"""The benchmark's three workloads, their correctness checks and the gate timer.

Each workload is a closed loop with one caller that drives kgfuse only
through public functions.  Its work is ``--seconds`` times a reference rate
measured on 2 vCPU when the benchmark was written, so a run lasts about
``--seconds`` there, and unit counts, per-layer counts and losses repeat
exactly on any machine.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kgfuse import checkpoint, data, kg, model, objectives, retriever, tensor, train
from kgfuse.config import Config
from kgfuse.optim import AdamState

from tracing import Hooks, Tracer, UnitClock, census, spanned

# Reference rates (2 vCPU, numpy 2.4, OpenBLAS) that size each run.
PRETRAIN_STEPS_PER_S = 2.0
GRADCHECK_EVALS_PER_S = 22.0
KG_EMBED_STEPS_PER_S = 55.0
MIN_PRETRAIN_STEPS = 20   # loss_ratio compares the first and last 10 steps
SETUP_REPEATS = 4        # before the work, and again after it
CRITERION_SEED = 17      # Config.seed of acceptance criteria 1 and 6

# Acceptance criterion 1's toy model.
GRADCHECK_CONFIG = Config(
    d=16, vision_layers=2, text_layers=2, gnn_layers=2, fusion_layers=2,
    k_final=12, batch_size=4, corpus_entities=50, corpus_relations=4,
    corpus_triplets=200, corpus_examples=20, per_node_cap=4, n_negatives=8)
GRADCHECK_TOLERANCE = 1e-4

# Acceptance criterion 5's graph and training settings.
KG_CONFIG = Config(corpus_entities=50, corpus_relations=4,
                   corpus_triplets=300, corpus_examples=4)
KG_EMBED_ARGS = dict(d=16, lr=0.05, n_negatives=32, gamma=0.0, drop_rate=0.15,
                     batch=32)
MIN_KG_EMBED_STEPS = 500  # criterion 5 trains 500 steps
KG_MRR_FACTOR = 3.0

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Run:
    """What one workload run measured, before it is turned into metrics."""

    unit_name: str
    item_name: str                 # what items_per_s counts
    clock: UnitClock = field(default_factory=UnitClock)
    items: int = 0
    work_s: float = 0.0            # wall time of the public call, less reference chunks
    setup_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0       # taken when the work ends
    checks: dict[str, bool] = field(default_factory=dict)
    unit_errors: int = 0
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.unit_errors + (0 if self.checks and all(self.checks.values()) else 1)

    @property
    def attempted(self) -> int:
        return self.clock.attempted + 1   # every unit, plus the run's check


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            "machine": platform.machine()}


def _span_call(tracer: Tracer | None, name: str, fn, *args):
    """Call ``fn`` once, inside a span when tracing."""
    if tracer is None:
        return fn(*args)
    index = tracer.open(name)
    try:
        return fn(*args)
    finally:
        tracer.close(index)


def _measure_setup(run: Run, build) -> object:
    """Run ``build`` SETUP_REPEATS times; keep each time and the last result.

    Each workload calls this before and after its work, so that the median
    set-up time spans the run rather than one moment of the machine's load.
    """
    built = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = build()
        run.setup_s.append(time.perf_counter() - start)
    return built


# ---- hooks -----------------------------------------------------------------


def _unit_hooks(hooks: Hooks, run: Run, tracer: Tracer | None, module, first: str,
                last: str | None = None, items=lambda args: 1, inside=()) -> None:
    """Open a unit when ``module.first`` is called; close it when ``module.last``
    (or, without one, ``first`` itself) returns.  Each call of a
    ``(module, name)`` in ``inside`` runs a reference chunk within the unit.

    These wrappers are the only instrumentation of an untraced run.  They go
    outside any span wrapper, so a traced unit includes the tracing cost.
    """
    clock = run.clock

    def opening(fn):
        def wrapper(*args, **kwargs):
            clock.begin()
            if tracer is not None:
                tracer.step += 1
            run.items += items(args)
            result = fn(*args, **kwargs)
            if last is None:
                clock.end()
            return result
        return wrapper

    def closing(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            clock.end()
            return result
        return wrapper

    def interleaving(fn):
        def wrapper(*args, **kwargs):
            clock.interleave()
            return fn(*args, **kwargs)
        return wrapper

    hooks.wrap(module, first, opening)
    if last is not None:
        hooks.wrap(module, last, closing)
    for inner_module, name in inside:
        hooks.wrap(inner_module, name, interleaving)


def _trace_hooks(hooks: Hooks, tr: Tracer) -> None:
    """Spans around each module's public functions at the sites that call them."""

    def span(module, attr, name, after=None):
        hooks.wrap(module, attr, lambda fn: spanned(tr, name, fn, after))

    def recall(args, out):
        corpus, plan = args[1], args[3]
        for ex, ids in zip(plan.examples, out.retrieved):
            truth = set(corpus.ground_truth[ex.index])
            tr.add("retriever.recall_at_k", len(truth & set(ids)) / len(truth))

    def subgraph_size(args, sub):
        tr.add("kg.subgraph_nodes", sub.num_nodes)
        tr.add("kg.subgraph_edges", len(sub.triplets_local))

    # pretrain calls compute_step through train's name, gradient_report's
    # objective through model's.
    span(train, "compute_step", "model.forward", recall)
    span(model, "compute_step", "model.forward", recall)
    span(model, "mask_patches", "objectives.mask")
    span(model, "mask_spans", "objectives.mask")
    span(model, "vision_encode", "encoders.vision")
    span(model, "text_encode", "encoders.text")
    span(model, "score_patches", "retriever.score")
    span(model, "retrieve_from_scores", "retriever.topk")
    span(model, "expand_subgraph", "kg.expand_subgraph", subgraph_size)
    span(model, "split_triplet_list", "kg.split",
         lambda args, out: tr.add("kg.held_out_edges", len(out[1])))
    span(train, "holdout_edges", "kg.split",
         lambda args, out: tr.add("kg.held_out_edges", len(out.held_out)))
    span(model, "entity_encode", "encoders.entity")
    span(model, "project_memory_rows", "encoders.entity")
    span(model, "gnn_encode", "gnn.encode")
    span(model, "assemble", "fusion.assemble",
         lambda args, seq: tr.add("fusion.seq_len", seq.elements.shape[0]))
    span(model, "fuse", "fusion.fuse")
    span(model, "heads", "fusion.heads")
    span(model, "mlm_loss", "objectives.mlm")
    span(model, "mvm_loss", "objectives.mvm")
    span(model, "itc_loss", "objectives.itc")
    span(model, "linkpred_loss", "objectives.linkpred")
    span(train, "linkpred_loss", "objectives.linkpred")
    span(objectives, "sample_negatives", "kg.sample_negatives",
         lambda args, negatives: tr.add("kg.negatives_drawn", len(negatives)))
    span(train, "optimizer_step", "optim.step")
    span(data, "generate_corpus", "data.corpus")
    span(train, "generate_corpus", "data.corpus")
    span(retriever, "build_memory", "retriever.build_memory")
    span(train, "build_model", "model.build")
    span(train, "eval_linkpred", "train.eval_linkpred")

    def probe_counter(fn):
        def has_triplet(self, triplet):
            tr.sums["kg.triplet_probes"] += 1
            return fn(self, triplet)
        return has_triplet

    hooks.wrap(kg.KnowledgeGraph, "has_triplet", probe_counter)

    def traced_backward(fn):
        def backward(loss):
            index = tr.open("trace.census")
            try:
                census(loss, tr)
            finally:
                tr.close(index)
            index = tr.open("tensor.backward")
            try:
                return fn(loss)
            finally:
                tr.close(index)
        return backward

    hooks.wrap(train, "backward", traced_backward)      # training loops
    hooks.wrap(tensor, "backward", traced_backward)     # finite_difference_check


@contextmanager
def _traced(tracer: Tracer | None):
    """Span hooks for the set-up and the work of a traced run."""
    hooks = Hooks()
    try:
        if tracer is not None:
            _trace_hooks(hooks, tracer)
        yield
    finally:
        hooks.restore()


def _drive(run: Run, install_units, work):
    """Call ``work`` once under the unit hooks and time it.

    A unit that raises ends the run; it counts as failed, and the run's
    check fails with it because there is no result to check.
    """
    hooks = Hooks()
    install_units(hooks)
    start = time.perf_counter()
    try:
        return work()
    except Exception:
        print(f"perfbench: the {run.unit_name} loop raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        run.unit_errors += 1
        return None
    finally:
        run.work_s = time.perf_counter() - start - run.clock.reference_s
        hooks.restore()
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---- workloads -------------------------------------------------------------


def run_pretrain(seed: int, seconds: float, tracer: Tracer | None, out_dir: Path) -> Run:
    """train.pretrain exactly as acceptance criterion 6 runs it (Config seed 17,
    lr 2e-3) for a fixed number of steps, then one checkpoint save and load.

    The seed does not reach this workload.  A step's cost is set by how many
    subgraph edges are held out, which follows the entities the model
    retrieves as it trains: over 20 steps, Config seeds 1, 2, 3 and 5 drew
    39, 32, 26 and 59 thousand negatives per step, and step time follows.
    """
    steps = max(MIN_PRETRAIN_STEPS, round(seconds * PRETRAIN_STEPS_PER_S))
    config = Config(seed=CRITERION_SEED, lr=2e-3, steps=steps)
    run = Run(unit_name="training step", item_name="examples")

    def setup():
        corpus = data.generate_corpus(config)
        model.build_model(config, corpus.kg)
        data.corpus_memory(corpus)
        return corpus

    with _traced(tracer):
        corpus = _measure_setup(run, setup)
        result = _drive(
            run,
            lambda hooks: _unit_hooks(hooks, run, tracer, train, "compute_step",
                                      "optimizer_step",
                                      items=lambda args: len(args[3].examples),
                                      inside=_per_example(tracer)),
            lambda: train.pretrain(config, corpus=corpus))
        _measure_setup(run, setup)
        if result is None:
            run.checks["pretrain_completed"] = False
            return run
        saved = _checkpoint_round_trip(tracer, out_dir / f"pretrain-seed{seed}.ckpt",
                                       config, result, run.quality)

    totals = [row[5] for row in result.metrics]
    run.quality["loss_ratio"] = float(np.mean(totals[-10:]) / np.mean(totals[:10]))
    run.checks["losses_finite"] = all(math.isfinite(v) for row in result.metrics
                                      for v in row[1:])
    run.checks["loss_ratio_below_1"] = run.quality["loss_ratio"] < 1.0
    run.checks["metrics_round_trip"] = (
        train.parse_metrics(train.format_metrics(result.metrics)) == result.metrics)

    fresh = model.build_model(config, corpus.kg)
    state = AdamState.init(fresh.store)
    saved.load_into(fresh.store, state)
    same = saved.step == result.final_step and state.t == result.state.t
    for name, trained in result.params.store.items():
        same = (same and np.array_equal(fresh.store[name].data, trained.data)
                and np.array_equal(state.m[name], result.state.m[name])
                and np.array_equal(state.v[name], result.state.v[name]))
    run.checks["checkpoint_restores_bitwise"] = same
    return run


def _per_example(tracer: Tracer | None):
    """Where a pretraining step runs reference chunks inside itself: at each
    example's vision encoder, so the chunks spread over the step.  A traced
    run keeps them out of the spans it is measuring."""
    return [] if tracer is not None else [(model, "vision_encode")]


def _checkpoint_round_trip(tracer, path: Path, config, result, quality: dict):
    """save_checkpoint then load_checkpoint through a file that is removed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        _span_call(tracer, "checkpoint.save", checkpoint.save_checkpoint, path,
                   config, result.final_step, result.params.store, result.state)
        quality["checkpoint_bytes"] = path.stat().st_size
        return _span_call(tracer, "checkpoint.load", checkpoint.load_checkpoint, path)
    finally:
        path.unlink(missing_ok=True)


def run_gradcheck(seed: int, seconds: float, tracer: Tracer | None, out_dir: Path) -> Run:
    """train.gradient_report exactly as acceptance criterion 1 runs it (Config
    seed 17, sampling seed 17), with fewer sampled coordinates.

    The seed does not reach this workload either.  Config.seed sets the
    corpus and subgraphs and so the cost of an evaluation.  The sampling
    seed picks the coordinates, and some draws hit coordinates whose true
    gradient is about 1e-9, where float64 rounding in the central difference
    alone exceeds the 1e-4 relative tolerance: with 72 coordinates per
    objective, sampling seeds 1 and 4 fail so, though analytic and numeric
    values agree to 2e-12 absolute.
    """
    # gradient_report evaluates each of its 5 objectives 2 * samples + 1 times.
    samples = max(1, round((seconds * GRADCHECK_EVALS_PER_S / 5 - 1) / 2))
    run = Run(unit_name="objective evaluation", item_name="evaluations")

    def setup():
        corpus = data.generate_corpus(GRADCHECK_CONFIG)
        model.build_model(GRADCHECK_CONFIG, corpus.kg)
        data.corpus_memory(corpus)

    with _traced(tracer):
        _measure_setup(run, setup)
        report = _drive(
            run, lambda hooks: _unit_hooks(hooks, run, tracer, model, "compute_step"),
            lambda: train.gradient_report(GRADCHECK_CONFIG, sample_count=samples,
                                          seed=CRITERION_SEED))
        _measure_setup(run, setup)
    if report is None:
        run.checks["gradient_report_completed"] = False
        return run
    run.quality["max_rel_error"] = max(report.values())
    for loss, error in report.items():
        run.checks[f"{loss}_rel_error_below_1e-4"] = error < GRADCHECK_TOLERANCE
    return run


def run_kg_embed(seed: int, seconds: float, tracer: Tracer | None, out_dir: Path) -> Run:
    """train.train_kg_embeddings on acceptance criterion 5's graph shape,
    ending with eval_linkpred.  The seed is both the graph seed and the
    training seed (criterion 5 fixes them at 5 and 0)."""
    steps = max(MIN_KG_EMBED_STEPS, round(seconds * KG_EMBED_STEPS_PER_S))
    run = Run(unit_name="training step", item_name="positives")

    def setup():
        graph = data.generate_corpus(KG_CONFIG, seed=seed).kg
        kg.holdout_edges(graph, KG_EMBED_ARGS["drop_rate"], seed)
        return graph

    with _traced(tracer):
        graph = _measure_setup(run, setup)
        result = _drive(
            run,
            lambda hooks: _unit_hooks(hooks, run, tracer, train, "linkpred_loss",
                                      "optimizer_step", items=lambda args: len(args[0])),
            lambda: train.train_kg_embeddings(graph, steps=steps, seed=seed,
                                              **KG_EMBED_ARGS))
        _measure_setup(run, setup)
    if result is None:
        run.checks["kg_embed_completed"] = False
        return run
    run.quality["kg_mrr"] = result.metrics["MRR"]
    baseline = train.random_baseline_mrr(graph, result.holdout.held_out,
                                         d=KG_EMBED_ARGS["d"])
    run.checks["mrr_at_least_3x_random"] = (
        result.metrics["MRR"] >= KG_MRR_FACTOR * baseline)
    return run


WORKLOADS = {"pretrain": run_pretrain, "gradcheck": run_gradcheck,
             "kg_embed": run_kg_embed}


# ---- acceptance gate timing ---------------------------------------------------


def gate_times() -> dict:
    """Wall time of acceptance criteria 1 (bound 120 s) and 6 (bound 600 s),
    run exactly as tests/test_acceptance.py runs them."""
    start = time.perf_counter()
    report = train.gradient_report(GRADCHECK_CONFIG, sample_count=200,
                                   seed=CRITERION_SEED)
    c1 = time.perf_counter() - start
    worst = max(report.values())

    config = Config(seed=CRITERION_SEED, steps=300, lr=2e-3)
    start = time.perf_counter()
    first = train.pretrain(config)
    second = train.pretrain(config)
    c6 = time.perf_counter() - start
    totals = [row[5] for row in first.metrics]
    ratio = float(np.mean(totals[-10:]) / np.mean(totals[:10]))
    bitwise = train.format_metrics(first.metrics) == train.format_metrics(second.metrics)
    return {
        "criterion_1": {"wall_s": c1, "bound_s": 120, "max_rel_error": worst,
                        "passed": worst < GRADCHECK_TOLERANCE and c1 < 120},
        "criterion_6": {"wall_s": c6, "bound_s": 600, "loss_ratio": ratio,
                        "bitwise": bitwise,
                        "passed": ratio <= 0.6 and bitwise and c6 < 600},
    }

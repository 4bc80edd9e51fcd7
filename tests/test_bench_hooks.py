"""The benchmark's trace hooks still find, and see called, every kgfuse name
they wrap.

``perfbench/workloads.py`` replaces module attributes such as
``train.holdout_edges`` or ``objectives.sample_negatives`` by name; deleting
or renaming one of them breaks ``perfbench/run.py --trace 1``, and a forward
pass that stops calling one through ``model`` leaves its stage reading 0.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# linkpred_loss samples through kg.negative_indices, which has no span.
UNSPANNED_STAGES = {"kg.sample_negatives"}


def test_trace_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from tracing import Hooks, Tracer

    hooks = Hooks()
    try:
        workloads._trace_hooks(hooks, Tracer())
        wrapped = list(hooks._saved)
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in wrapped)
    finally:
        hooks.restore()
    assert wrapped
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_every_forward_stage_gets_a_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # run.py turns off byte-code writing on import; keep this process as it was.
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    import run
    import workloads
    from tracing import Hooks, Tracer

    from kgfuse import model
    from kgfuse.config import Config
    from kgfuse.data import corpus_memory, generate_corpus

    config = Config(d=8, d_e=8, attn_width=8, ff_dim=16, vision_layers=1,
                    text_layers=1, gnn_layers=1, fusion_layers=1,
                    corpus_entities=40, corpus_relations=4, corpus_triplets=160,
                    corpus_examples=8, batch_size=3, per_node_cap=3,
                    n_negatives=4, k_final=4)
    corpus = generate_corpus(config)
    params = model.build_model(config, corpus.kg)
    memory = corpus_memory(corpus)
    plan = model.make_batch_plan(config, len(corpus), step=1)

    tracer = Tracer()
    hooks = Hooks()
    try:
        workloads._trace_hooks(hooks, tracer)
        out = model.compute_step(params, corpus, memory, plan)
    finally:
        hooks.restore()
    assert len(out.sample.positives)
    calls = tracer.span_table()
    assert "model.forward" in calls
    silent = [stage for stage in run.FORWARD_STAGES
              if stage not in UNSPANNED_STAGES and stage not in calls]
    assert not silent, f"stages without a span call: {silent}"
    # The batch is scored and its entities selected in one call each.
    assert calls["retriever.score"]["calls"] == 1
    assert calls["retriever.topk"]["calls"] == 1
    # The subgraph counters add up to the step's graph sample.
    sample = out.sample
    assert tracer.sums["kg.subgraph_nodes"] == sample.union.num_nodes
    assert tracer.sums["kg.held_out_edges"] == len(sample.positives)
    assert tracer.sums["kg.subgraph_edges"] == \
        len(sample.union.triplets_local) + len(sample.positives)


def test_gated_workloads_run_clean_at_their_minimum_size(monkeypatch, tmp_path):
    # The untraced runs the benchmark gates on read more than the hooks
    # above: each unit hook's item count, the checkpoint round trip and
    # each workload's result checks.  The traced runs also read each step's
    # record, gradient_report's itc-only objective included, in the recall
    # hook.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from tracing import Tracer

    for run_workload in (workloads.run_pretrain, workloads.run_gradcheck,
                         workloads.run_kg_embed):
        for tracer in (None, Tracer()):
            name = (run_workload.__name__, tracer is not None)
            run = run_workload(0, seconds=0, tracer=tracer, out_dir=tmp_path)
            assert run.failed == 0, name
            assert run.checks and all(run.checks.values()), (name, run.checks)
            if tracer is not None and run_workload is not workloads.run_kg_embed:
                assert tracer.counts["retriever.recall_at_k"] > 0, name

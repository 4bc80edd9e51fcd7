"""kgfuse benchmark: three workloads, end-to-end metrics untraced, per-layer traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload gradcheck --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --gates        # wall time of acceptance criteria 1 and 6

Workloads (see workloads.py for what each runs): ``pretrain``, ``gradcheck``
and ``kg_embed``.  With ``--trace 0`` the last line of standard output is a
JSON object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, and the spans of the run are written to
``perfbench/out/trace-<workload>-seed<n>.jsonl``.  The lines before it give
the environment, the checks and every metric by name with its unit,
including the wall-clock throughput and step times, which are printed but
not gated (see end_to_end_metrics).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True   # leave no byte-code caches in the checkout

import argparse
import json
import statistics
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# What items_per_s counts on each workload, as the printed name says.
ITEM_RATE_NAMES = {"pretrain": "examples_per_s", "gradcheck": "fd_evals_per_s",
                   "kg_embed": "positives_per_s"}

FORWARD_STAGES = ("objectives.mask", "encoders.vision", "encoders.text",
                  "retriever.score", "retriever.topk", "kg.expand_subgraph",
                  "kg.split", "encoders.entity", "gnn.encode",
                  "objectives.linkpred", "kg.sample_negatives", "fusion.assemble",
                  "fusion.fuse", "fusion.heads", "objectives.mlm",
                  "objectives.mvm", "objectives.itc")
PER_UNIT_SPANS = {
    "kg.sample_negatives_ms": "kg.sample_negatives",
    "kg.expand_subgraph_ms": "kg.expand_subgraph",
    "kg.split_ms": "kg.split",
    "tensor.backward_ms": "tensor.backward",
    "encoders.vision_ms": "encoders.vision",
    "encoders.text_ms": "encoders.text",
    "encoders.entity_ms": "encoders.entity",
    "gnn.encode_ms": "gnn.encode",
    "fusion.assemble_ms": "fusion.assemble",
    "fusion.fuse_ms": "fusion.fuse",
    "fusion.heads_ms": "fusion.heads",
    "objectives.mask_ms": "objectives.mask",
    "objectives.mlm_ms": "objectives.mlm",
    "objectives.mvm_ms": "objectives.mvm",
    "objectives.itc_ms": "objectives.itc",
    "model.forward_ms": "model.forward",
    "retriever.score_ms": "retriever.score",
    "retriever.topk_ms": "retriever.topk",
    "optim.step_ms": "optim.step",
}
PER_UNIT_SELF_SPANS = {
    "objectives.linkpred_self_ms": "objectives.linkpred",   # excludes sampling
    "model.forward_self_ms": "model.forward",
}
PER_CALL_SPANS = {
    "data.corpus_ms": "data.corpus",
    "retriever.build_memory_ms": "retriever.build_memory",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "train.eval_linkpred_ms": "train.eval_linkpred",
}
PER_CALL_MEANS = ("kg.subgraph_nodes", "kg.subgraph_edges", "kg.held_out_edges",
                  "fusion.seq_len", "retriever.recall_at_k")
CENSUS_OPS = ("matmul", "mul", "add", "sum", "take_rows", "softmax", "concat",
              "log_sigmoid")


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end_metrics(run) -> dict[str, tuple[float, str]]:
    """The gated metrics.

    Unit costs are in reference chunks (see tracing.UnitClock).  The 2-vCPU
    host this was written on changes speed by up to 1.6x from one second to
    the next: over five to ten runs of a workload, the quartile spread of
    wall-clock throughput was 14-42% of its median, and that of the cost in
    reference chunks 2-7%.
    """
    costs = run.clock.costs()
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "items_per_kref": (1000.0 * run.items / sum(costs) if costs else 0.0, "1/kref"),
        "step_cost_p50": (_percentile(costs, 50), "ref"),
        "step_cost_p80": (_percentile(costs, 80), "ref"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def wall_clock_metrics(run) -> dict[str, tuple[float, str]]:
    """Printed beside the gated metrics: the same quantities in seconds."""
    steps_ms = [d * 1000.0 for d in run.clock.durations]
    return {
        "items_per_s": (run.items / run.work_s if run.work_s > 0 else 0.0, "1/s"),
        "step_ms_p50": (_percentile(steps_ms, 50), "ms"),
        "step_ms_p80": (_percentile(steps_ms, 80), "ms"),
        "reference_ms_p50": (_percentile(run.clock.references, 50) * 1000.0, "ms"),
        "units": (len(steps_ms), "count"),
    }


def per_layer_metrics(run, tracer) -> dict[str, tuple[float, str]]:
    units = len(run.clock.durations)
    table = tracer.span_table()

    def span_ms(name: str, key: str) -> float:
        return table[name][key] * 1000.0 if name in table else 0.0

    def per_unit(value: float) -> float:
        return value / units if units else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for metric, name in PER_UNIT_SPANS.items():
        metrics[metric] = (per_unit(span_ms(name, "total_s")), "ms/unit")
    for metric, name in PER_UNIT_SELF_SPANS.items():
        metrics[metric] = (per_unit(span_ms(name, "self_s")), "ms/unit")
    for metric, name in PER_CALL_SPANS.items():
        calls = table[name]["calls"] if name in table else 0
        metrics[metric] = (span_ms(name, "total_s") / calls if calls else 0.0, "ms")
    for name in PER_CALL_MEANS:
        metrics[name] = (tracer.mean(name), "ratio" if name.endswith("_at_k") else "count")

    drawn = tracer.sums.get("kg.negatives_drawn", 0.0)
    probes = tracer.sums.get("kg.triplet_probes", 0.0)
    metrics["kg.negatives_drawn"] = (per_unit(drawn), "count/unit")
    metrics["kg.triplet_probes"] = (per_unit(probes), "count/unit")
    metrics["kg.negative_accept_ratio"] = (drawn / probes if probes else 0.0, "ratio")

    backwards = tracer.backward_calls
    nodes = sum(tracer.node_counts.values())
    metrics["tensor.nodes_per_step"] = (nodes / backwards if backwards else 0.0, "count")
    for op in CENSUS_OPS:
        count = tracer.node_counts.get(op, 0)
        metrics[f"tensor.nodes.{op}"] = (count / backwards if backwards else 0.0, "count")
        metrics[f"tensor.vjp_ms.{op}"] = (
            per_unit(tracer.vjp_seconds.get(op, 0.0) * 1000.0), "ms/unit")

    metrics["checkpoint.bytes"] = (run.quality.get("checkpoint_bytes", 0.0), "bytes")
    metrics["train.loss_ratio"] = (run.quality.get("loss_ratio", 0.0), "ratio")
    metrics["train.kg_mrr"] = (run.quality.get("kg_mrr", 0.0), "ratio")
    traced = end_to_end_metrics(run)
    metrics["trace.step_cost_p50"] = traced["step_cost_p50"]
    metrics["trace.items_per_kref"] = traced["items_per_kref"]
    return metrics


def _print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")


def _print_forward_shares(tracer, units: int) -> None:
    table = tracer.span_table()
    forward = table.get("model.forward", {}).get("total_s", 0.0)
    if not forward:
        return
    print("  share of model.forward (inclusive span time per unit):")
    for name in FORWARD_STAGES:
        if name in table:
            ms = table[name]["total_s"] * 1000.0 / units
            print(f"    {name:28s} {ms:10.3f} ms/unit {table[name]['total_s'] / forward:7.1%}")


def _write_trace(path: Path, header: dict, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for name, start, end, parent, step in tracer.spans:
            fh.write(json.dumps([name, start - origin, end - origin, parent, step]) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("pretrain", "gradcheck", "kg_embed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gates", action="store_true",
                        help="time acceptance criteria 1 and 6 instead of a workload")
    args = parser.parse_args(argv)
    if args.gates == (args.workload is not None):
        parser.error("give exactly one of --workload and --gates")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC_DIR / "kgfuse" / "__init__.py").is_file():
        print(f"perfbench: no kgfuse package under {SRC_DIR}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import workloads
    from tracing import Tracer

    env = workloads.environment()
    print("env " + json.dumps(env))
    if args.gates:
        gates = workloads.gate_times()
        gates["env"] = env
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUT_DIR / "gates.json").write_text(json.dumps(gates, indent=2) + "\n")
        print(json.dumps(gates))
        return 0

    tracer = Tracer() if args.trace else None
    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, OUT_DIR)
    correct = bool(run.checks) and all(run.checks.values()) and run.unit_errors == 0

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{len(run.clock.durations)} {run.unit_name}s, {run.items} {run.item_name} "
          f"in {run.work_s:.2f} s")
    print("checks " + " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in run.checks.items()))
    e2e = end_to_end_metrics(run)
    if tracer is None:
        metrics = e2e
        named = dict(e2e)
        wall = wall_clock_metrics(run)
        wall[ITEM_RATE_NAMES[args.workload]] = wall.pop("items_per_s")
        named.update(wall)
        named.update({k: (v, "bytes" if k.endswith("bytes") else "ratio")
                      for k, v in run.quality.items()})
        named["ops_attempted"] = (run.attempted, "count")
        named["ops_failed"] = (run.failed, "count")
        _print_metrics(named)
    else:
        metrics = per_layer_metrics(run, tracer)
        _print_metrics(metrics)
        _print_forward_shares(tracer, max(1, len(run.clock.durations)))
        header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "env": env, "checks": run.checks,
                  "span_table": tracer.span_table(),
                  "metrics": {k: v for k, (v, _) in metrics.items()},
                  "span_fields": ["name", "start_s", "end_s", "parent", "step"]}
        _write_trace(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl", header, tracer)

    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points.

Exit codes: 0 success, 1 validation error (bad files, bad config, bad
arguments), 2 numeric failure (non-finite values, failed gradient check).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import Config
from .data import corpus_memory, generate_corpus, oracle_patch_projection
from .encoders import patchify, vision_encode
from .errors import NumericsError, ValidationError
from .kg import holdout_edges, load_kg, save_kg
from .model import build_model
from .retriever import build_memory, load_memory, retrieve, save_memory
from .train import (eval_linkpred, eval_retrieval, format_metrics,
                    gradient_report, model_linkpred_tables, pretrain)

GRADCHECK_TOLERANCE = 1e-4


def _load_config(args) -> Config:
    config = Config.load(args.config) if args.config else Config()
    if args.seed is not None:
        config = config.replace(seed=args.seed)
    return config


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_ingest(args) -> int:
    kg = load_kg(args.entities, args.relations, args.triplets)
    out = _out_dir(args)
    save_kg(kg, out / "entities.tsv", out / "relations.tsv", out / "triplets.tsv")
    print(f"ingested {len(kg.entities)} entities, {len(kg.relations)} relations, "
          f"{len(kg.triplets)} triplets -> {out}")
    return 0


def _cmd_build_memory(args) -> int:
    config = _load_config(args)
    kg = load_kg(args.entities, args.relations, args.triplets)
    memory = build_memory(kg, config.d_e, config.seed)
    out = _out_dir(args) / "memory.embv"
    save_memory(memory, out)
    print(f"wrote {len(memory)} x {memory.d_e} memory -> {out}")
    return 0


def _cmd_retrieve(args) -> int:
    # A checkpoint's own patch size and k apply, whatever --config says.
    ckpt = load_checkpoint(args.checkpoint) if args.checkpoint else None
    config = ckpt.config if ckpt else _load_config(args)
    memory = load_memory(args.memory)
    seq = patchify(np.load(args.image), config.patch_size)
    if ckpt:
        corpus = generate_corpus(config)
        params = build_model(config, corpus.kg)
        ckpt.load_into(params.store)
        _, queries = vision_encode(seq.patches, params.vision)
        queries = queries.data
    else:
        # Untrained fallback: the fixed averaging projection that inverts
        # the synthetic tiling.
        queries = seq.patches @ oracle_patch_projection(config)
    rset = retrieve(queries, memory, config.k_per_patch, config.k_final)
    for entity_id, score in rset.entries:
        print(f"{entity_id}\t{score:.6f}")
    return 0


def _cmd_pretrain(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    result = pretrain(config)
    (out / "metrics.tsv").write_text(format_metrics(result.metrics),
                                     encoding="utf-8")
    save_checkpoint(out / "checkpoint.bin", config, result.final_step,
                    result.params.store, result.state)
    last = result.metrics[-1] if result.metrics else None
    print(f"trained {config.steps} steps -> {out / 'checkpoint.bin'}")
    if last:
        print(f"final total loss {last[5]:.4f}")
    return 0


def _cmd_gradcheck(args) -> int:
    config = _load_config(args)
    report = gradient_report(config, sample_count=args.samples)
    failed = False
    for name, value in report.items():
        status = "ok" if value < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{name}\tmax_rel_err={value:.3e}\t{status}")
        failed = failed or value >= GRADCHECK_TOLERANCE
    if failed:
        raise NumericsError("gradient check exceeded tolerance")
    return 0


def _cmd_eval_linkpred(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    corpus = generate_corpus(ckpt.config)
    params = build_model(ckpt.config, corpus.kg)
    ckpt.load_into(params.store)
    memory = corpus_memory(corpus)
    em, rm, erow, rrow = model_linkpred_tables(params, memory)
    # The split is the checkpoint's own, whatever --config or --seed say.
    holdout = holdout_edges(corpus.kg, ckpt.config.edge_drop, ckpt.config.seed)
    metrics = eval_linkpred(em, rm, erow, rrow, holdout.held_out, corpus.kg)
    for key, value in metrics.items():
        print(f"{key}\t{value:.4f}")
    return 0


def _cmd_eval_retrieval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    corpus = generate_corpus(ckpt.config)
    params = build_model(ckpt.config, corpus.kg)
    ckpt.load_into(params.store)
    memory = corpus_memory(corpus)
    recall = eval_retrieval(params, memory, corpus)
    print(f"recall@{ckpt.config.k_final}\t{recall:.4f}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="key = value config file")
    sub.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgfuse",
        description="Retrieval-augmented vision-language pretraining over a toy KG")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("ingest", help="validate TSV files into a KG snapshot")
    p.add_argument("--entities", required=True)
    p.add_argument("--relations", required=True)
    p.add_argument("--triplets", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_ingest)

    p = commands.add_parser("build-memory", help="embed entity descriptions")
    p.add_argument("--entities", required=True)
    p.add_argument("--relations", required=True)
    p.add_argument("--triplets", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_build_memory)

    p = commands.add_parser("retrieve", help="top-k entities for an image (.npy)")
    p.add_argument("--image", required=True)
    p.add_argument("--memory", required=True)
    p.add_argument("--checkpoint", default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_retrieve)

    p = commands.add_parser("pretrain", help="run the pretraining loop")
    _add_common(p)
    p.set_defaults(fn=_cmd_pretrain)

    p = commands.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--samples", type=int, default=200)
    _add_common(p)
    p.set_defaults(fn=_cmd_gradcheck)

    p = commands.add_parser("eval-linkpred", help="filtered ranking metrics")
    p.add_argument("--checkpoint", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_eval_linkpred)

    p = commands.add_parser("eval-retrieval", help="ground-truth recall@k")
    p.add_argument("--checkpoint", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_eval_retrieval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericsError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

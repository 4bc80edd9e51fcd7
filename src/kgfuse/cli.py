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
from .config import Config, parse_int
from .data import corpus_memory, generate_corpus
from .errors import NumericsError, ValidationError
from .kg import holdout_edges, load_kg
from .model import build_model, retrieve_images
from .train import (eval_linkpred, eval_retrieval, format_metrics,
                    gradient_report, model_linkpred_tables, pretrain)

GRADCHECK_TOLERANCE = 1e-4


def _load_config(args) -> Config:
    config = Config.load(args.config) if args.config else Config()
    return config if args.seed is None else config.replace(seed=args.seed)


def _load_trained(path):
    """A checkpoint's corpus, its model with the trained weights, and the
    corpus memory; the corpus carries the checkpoint's config."""
    ckpt = load_checkpoint(path)
    corpus = generate_corpus(ckpt.config)
    params = build_model(ckpt.config, corpus.kg)
    ckpt.load_into(params.store)
    return corpus, params, corpus_memory(corpus)


def _cmd_ingest(args) -> int:
    kg = load_kg(args.entities, args.relations, args.triplets)
    print(f"valid: {len(kg.entities)} entities, {len(kg.relations)} relations, "
          f"{len(kg.triplets)} triplets")
    return 0


def _cmd_retrieve(args) -> int:
    # The checkpoint's own config gives patch size and k, its corpus the memory.
    corpus, params, memory = _load_trained(args.checkpoint)
    config = corpus.config
    try:
        image = np.asarray(np.load(args.image))
    except ValueError as exc:
        raise ValidationError(f"cannot read image {args.image}: {exc}") from None
    if image.dtype.kind not in "biuf":  # a cast would drop an imaginary part
        raise ValidationError(f"cannot read image {args.image}: dtype {image.dtype} "
                              f"is not bool, integer or float")
    image = image.astype(np.float64)
    if not np.isfinite(image).all():
        raise ValidationError(f"image {args.image} holds non-finite values")
    if image.ndim != 3:
        raise ValidationError(f"expected an H x W x C image, got shape {image.shape}")
    if image.shape[-1] != config.image_c:
        raise ValidationError(f"image has {image.shape[-1]} channels; the config "
                              f"needs {config.image_c}")
    for entity_id, score in retrieve_images(params, memory, image[None], config).entries:
        print(f"{entity_id}\t{score:.6f}")
    return 0


def _cmd_pretrain(args) -> int:
    config = _load_config(args)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
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
    corpus, params, memory = _load_trained(args.checkpoint)
    # The split is the checkpoint's own.
    holdout = holdout_edges(corpus.kg, corpus.config.edge_drop, corpus.config.seed)
    metrics = eval_linkpred(model_linkpred_tables(params, memory), holdout.held_out,
                            corpus.kg)
    for key, value in metrics.items():
        print(f"{key}\t{value:.4f}")
    return 0


def _cmd_eval_retrieval(args) -> int:
    corpus, params, memory = _load_trained(args.checkpoint)
    recall = eval_retrieval(params, memory, corpus)
    print(f"recall@{corpus.config.k_final}\t{recall:.4f}")
    return 0


def nonnegative_int(text: str) -> int:
    value = parse_int(text)
    if value < 0:  # a usage error, before Config.validate rejects it
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def positive_int(text: str) -> int:
    value = parse_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="key = value config file")
    sub.add_argument("--seed", type=nonnegative_int, default=None, help="override config seed")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, as bad input does
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgfuse",
        description="Retrieval-augmented vision-language pretraining over a toy KG")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("ingest", help="validate the three KG TSV files")
    p.add_argument("--entities", required=True)
    p.add_argument("--relations", required=True)
    p.add_argument("--triplets", required=True)
    p.set_defaults(fn=_cmd_ingest)

    p = commands.add_parser("retrieve", help="top-k entities for an image (.npy)")
    p.add_argument("--image", required=True)
    p.add_argument("--checkpoint", required=True,
                   help="trained model, scored against its corpus memory")
    p.set_defaults(fn=_cmd_retrieve)

    p = commands.add_parser("pretrain", help="run the pretraining loop")
    _add_config_flags(p)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=_cmd_pretrain)

    p = commands.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--samples", type=positive_int, default=200)
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_gradcheck)

    # The evaluations read the checkpoint's own config, so they take no
    # --config or --seed, and they write nothing.
    p = commands.add_parser("eval-linkpred", help="filtered ranking metrics")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=_cmd_eval_linkpred)

    p = commands.add_parser("eval-retrieval", help="ground-truth recall@k")
    p.add_argument("--checkpoint", required=True)
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
    except OSError as exc:  # a missing, unreadable or clashing path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

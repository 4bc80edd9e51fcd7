"""CLI subcommands: happy paths and exit-code contracts."""

import argparse
import warnings
from pathlib import Path

import numpy as np
import pytest

from kgfuse.checkpoint import load_checkpoint
from kgfuse.cli import build_parser, main
from kgfuse.config import Config
from kgfuse.data import corpus_memory, generate_corpus
from kgfuse.encoders import patchify, vision_encode
from kgfuse.errors import ValidationError
from kgfuse.kg import holdout_edges
from kgfuse.model import build_model
from kgfuse.retriever import retrieve
from kgfuse.train import eval_linkpred, model_linkpred_tables

from helpers import checkpoint_bytes, write_kg_tsv

TINY_CFG = """
corpus_entities = 30
corpus_relations = 3
corpus_triplets = 90
corpus_examples = 8
batch_size = 2
per_node_cap = 3
n_negatives = 4
k_final = 4
steps = 2
lr = 0.001
"""


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """One checkpoint from a 2-step tiny pretrain, shared by the module."""
    run = tmp_path_factory.mktemp("tiny_run")
    config_path = run / "tiny.cfg"
    config_path.write_text(TINY_CFG)
    assert main(["pretrain", "--config", str(config_path), "--out", str(run)]) == 0
    return run / "checkpoint.bin"


@pytest.fixture
def kg_files(tmp_path, tiny_config_file):
    config = Config.load(tiny_config_file)
    corpus = generate_corpus(config)
    paths = (tmp_path / "entities.tsv", tmp_path / "relations.tsv",
             tmp_path / "triplets.tsv")
    write_kg_tsv(corpus.kg, *paths)
    return paths


def test_ingest_roundtrip(tmp_path, kg_files, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code = main(["ingest", "--entities", str(kg_files[0]),
                 "--relations", str(kg_files[1]), "--triplets", str(kg_files[2])])
    assert code == 0
    assert capsys.readouterr().out == "valid: 30 entities, 3 relations, 90 triplets\n"
    # ingest validates only: nothing is written.
    assert sorted(tmp_path.rglob("*")) == before
    assert main(["ingest", "--entities", str(kg_files[0]),
                 "--relations", str(kg_files[1]), "--triplets", str(kg_files[2]),
                 "--out", str(tmp_path / "snapshot")]) == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_ingest_bad_file_exits_one(tmp_path, kg_files, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\t0\t999\n")
    code = main(["ingest", "--entities", str(kg_files[0]),
                 "--relations", str(kg_files[1]), "--triplets", str(bad)])
    assert code == 1
    assert "error" in capsys.readouterr().err
    bad.write_text("0\t+0\t1\n")
    code = main(["ingest", "--entities", str(kg_files[0]),
                 "--relations", str(kg_files[1]), "--triplets", str(bad)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}:1: non-decimal id '+0'\n"


@pytest.mark.parametrize("case, reason", [
    ("checkpoint_is_a_directory", "Is a directory"),
    ("kg_file_is_a_directory", "Is a directory"),
    ("out_is_a_file", "File exists"),
    ("config_not_utf8", "latin1.txt: not UTF-8 at byte 5"),
    ("kg_file_not_utf8", "latin1.txt: not UTF-8 at byte 5"),
])
def test_unusable_paths_exit_one(tmp_path, tiny_config_file, kg_files, capsys, case, reason):
    a_file, latin1 = tmp_path / "a_file", tmp_path / "latin1.txt"
    a_file.write_text("x")
    latin1.write_bytes(b"0\tcaf\xe9\td\n")
    ingest = ["ingest", "--entities", str(kg_files[0]), "--relations", str(kg_files[1]),
              "--triplets"]
    argv = {
        "checkpoint_is_a_directory": ["eval-linkpred", "--checkpoint", str(tmp_path)],
        "kg_file_is_a_directory": ingest + [str(tmp_path)],
        "out_is_a_file": ["pretrain", "--config", str(tiny_config_file), "--out", str(a_file)],
        "config_not_utf8": ["pretrain", "--config", str(latin1), "--out", str(tmp_path / "run")],
        "kg_file_not_utf8": ingest + [str(latin1)],
    }[case]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and reason in captured.err
    assert not (tmp_path / "run").exists()


def test_retrieve_takes_patch_size_and_k_from_the_checkpoint(tmp_path, capsys):
    # Trained with 8-pixel patches; --config is not repeated at retrieval,
    # whose defaults (4-pixel patches, k_final 8) would not fit the model.
    trained_cfg = tmp_path / "patch8.cfg"
    trained_cfg.write_text(TINY_CFG + "patch_size = 8\n")
    run = tmp_path / "run"
    assert main(["pretrain", "--config", str(trained_cfg), "--out", str(run)]) == 0
    capsys.readouterr()

    config = Config.load(trained_cfg)
    corpus = generate_corpus(config)
    image_path = tmp_path / "image.npy"
    np.save(image_path, corpus.images[0])
    code = main(["retrieve", "--image", str(image_path),
                 "--checkpoint", str(run / "checkpoint.bin")])
    assert code == 0
    printed = capsys.readouterr().out

    # The entities are scored against the checkpoint corpus's own memory.
    params = build_model(config, corpus.kg)
    load_checkpoint(run / "checkpoint.bin").load_into(params.store)
    _, queries = vision_encode(patchify(corpus.images[0], config.patch_size).patches,
                               params.vision)
    found = retrieve(queries.data, corpus_memory(corpus), config.k_per_patch,
                     config.k_final)
    assert len(found.entries) == config.k_final
    assert printed == "".join(f"{e}\t{score:.6f}\n" for e, score in found.entries)


@pytest.mark.parametrize("argv, reason", [
    (["retrieve"], "required"),
    (["retrieve", "--image", "x.npy"], "required: --checkpoint"),
    (["pretrain", "--bogus"], "unrecognized arguments"),
    (["gradcheck", "--samples", "x"], "invalid positive_int value"),
    (["nope"], "invalid choice"),
    ([], "required"),
    # Each command takes only the flags it reads.
    (["gradcheck", "--out", "x"], "unrecognized arguments"),
    (["retrieve", "--image", "x.npy", "--checkpoint", "c", "--out", "x"],
     "unrecognized arguments"),
    (["eval-linkpred", "--checkpoint", "c", "--config", "x"], "unrecognized arguments"),
    (["eval-retrieval", "--checkpoint", "c", "--seed", "3"], "unrecognized arguments"),
    (["retrieve", "--image", "x.npy", "--checkpoint", "c", "--config", "x"],
     "unrecognized arguments"),
    (["gradcheck", "--seed", "-4"], "argument --seed: must be >= 0, got -4"),
    (["pretrain", "--seed", "1_0"], "argument --seed: invalid nonnegative_int value: '1_0'"),
    (["gradcheck", "--samples", "1_0"], "argument --samples: invalid positive_int value: '1_0'"),
    (["gradcheck", "--samples", "+\u0663"],
     "argument --samples: invalid positive_int value: '+\u0663'"),
    (["gradcheck", "--samples", "0"], "argument --samples: must be >= 1, got 0"),
])
def test_usage_errors_exit_one(argv, reason, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: kgfuse" in captured.err
    assert "error: " in captured.err and reason in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["retrieve", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: kgfuse" in capsys.readouterr().out


@pytest.mark.parametrize("image, reason", [
    (np.zeros((16, 16, 3)), "3 channels"),          # the config has image_c = 1
    (np.full((16, 16, 1), np.nan), "finite"),       # "image ... holds non-finite values"
    (np.array([[None]], dtype=object), "cannot read image"),
    (np.full((16, 16, 1), "a"), "cannot read image"),
    (np.zeros((32, 32, 1)), "position table"),      # 64 patches; the model has 16
    # A cast to float64 would drop the imaginary part with only a warning.
    (np.full((16, 16, 1), 1.0 + 2.0j), "dtype complex128 is not bool, integer or float"),
    # One image at a time, channels last.
    (np.zeros((16, 16)), "expected an H x W x C image, got shape (16, 16)"),
    (np.zeros((2, 16, 16, 1)), "expected an H x W x C image, got shape (2, 16, 16, 1)"),
])
def test_retrieve_bad_image_exits_one(tmp_path, tiny_checkpoint, capsys, image, reason):
    image_path = tmp_path / "image.npy"
    np.save(image_path, image, allow_pickle=True)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["retrieve", "--image", str(image_path),
                     "--checkpoint", str(tiny_checkpoint)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and reason in captured.err


def test_readme_lists_exactly_the_cli_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    advertised = [line.split()[1] for line in block.splitlines()
                  if line.startswith("kgfuse ")]
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert advertised == list(commands)


def test_retired_checkpoint_format_exits_one(tmp_path, capsys):
    old = tmp_path / "old.ckpt"
    old.write_bytes(b"RVLCKPT1" + b"\x00" * 24)
    with pytest.raises(ValidationError, match="RVLCKPT1 is retired"):
        load_checkpoint(old)
    assert main(["eval-linkpred", "--checkpoint", str(old)]) == 1
    assert "retired" in capsys.readouterr().err


def test_malformed_checkpoint_exits_one(tmp_path, tiny_config_file, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(checkpoint_bytes(tiny_config_file.read_bytes(),
                                     [(b"w", (2 ** 40, 2 ** 40), b"")]))
    assert main(["eval-linkpred", "--checkpoint", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "truncated" in err


def test_non_finite_checkpoint_exits_one(tmp_path, tiny_config_file, capsys):
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(checkpoint_bytes(tiny_config_file.read_bytes(),
                                     [(b"w", (2,), np.array([1.0, np.nan]).tobytes())]))
    assert main(["eval-linkpred", "--checkpoint", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'w' holds non-finite values" in err


@pytest.mark.parametrize("line, reason", [
    ("lr = nan", "lr must be finite"),
    ("beta1 = 1.0", "beta1 must be in [0,1)"),
    ("heads = 0", "heads must be positive"),
    ("heads = -2", "heads must be positive"),
    ("image_c = 0", "image_c must be positive"),
    ("seed = -4", "seed must be >= 0"),
    ("batch_size = 1", "batch_size must be >= 2"),
])
def test_config_values_that_would_break_a_run_exit_one(tmp_path, line, reason, capsys):
    bad = tmp_path / "bad.cfg"
    # A key may be given once, so the tiny config's own lr and steps go.
    key = line.split("=")[0].strip()
    kept = [row for row in TINY_CFG.splitlines() if row.split("=")[0].strip() not in (key, "steps")]
    bad.write_text("\n".join(kept) + "\nsteps = 1\n" + line + "\n")
    out = tmp_path / "run"
    assert main(["pretrain", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert not out.exists()


def test_pretrain_then_evals(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "run"
    code = main(["pretrain", "--config", str(tiny_config_file),
                 "--out", str(out)])
    assert code == 0
    assert (out / "checkpoint.bin").exists()
    metrics = (out / "metrics.tsv").read_text().splitlines()
    assert metrics[0] == "step\tmlm\tmvm\tlinkpred\titc\ttotal"
    assert len(metrics) == 3  # header + 2 steps

    code = main(["eval-linkpred", "--checkpoint", str(out / "checkpoint.bin")])
    assert code == 0
    assert "MRR" in capsys.readouterr().out

    code = main(["eval-retrieval", "--checkpoint", str(out / "checkpoint.bin")])
    assert code == 0
    assert "recall@" in capsys.readouterr().out


def test_eval_retrieval_rejects_out_and_writes_nothing(tmp_path, tiny_config_file,
                                                      capsys):
    run = tmp_path / "run"
    assert main(["pretrain", "--config", str(tiny_config_file), "--out", str(run)]) == 0
    capsys.readouterr()
    never_made = tmp_path / "never_made"
    assert main(["eval-retrieval", "--checkpoint", str(run / "checkpoint.bin"),
                 "--out", str(never_made)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --out" in captured.err
    assert not never_made.exists()


def test_eval_linkpred_uses_the_checkpoint_split(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "run"
    assert main(["pretrain", "--config", str(tiny_config_file), "--seed", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval-linkpred", "--checkpoint", str(out / "checkpoint.bin")]) == 0
    printed = capsys.readouterr().out

    ckpt = load_checkpoint(out / "checkpoint.bin")
    corpus = generate_corpus(ckpt.config)
    params = build_model(ckpt.config, corpus.kg)
    ckpt.load_into(params.store)
    tables = model_linkpred_tables(params, corpus_memory(corpus))

    def report(config):
        holdout = holdout_edges(corpus.kg, config.edge_drop, config.seed)
        metrics = eval_linkpred(tables, holdout.held_out, corpus.kg)
        return "".join(f"{key}\t{value:.4f}\n" for key, value in metrics.items())

    assert ckpt.config.seed == 5
    assert printed == report(ckpt.config)
    # The default config's split (seed 17) reads differently, so the check
    # above tells the two apart.
    assert printed != report(Config())


def test_pretrain_determinism_across_invocations(tmp_path, tiny_config_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["pretrain", "--config", str(tiny_config_file),
                 "--out", str(out_a)]) == 0
    assert main(["pretrain", "--config", str(tiny_config_file),
                 "--out", str(out_b)]) == 0
    assert (out_a / "metrics.tsv").read_bytes() == (out_b / "metrics.tsv").read_bytes()
    assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()


def test_gradcheck_passes_on_tiny_config(tmp_path, tiny_config_file, capsys):
    code = main(["gradcheck", "--config", str(tiny_config_file),
                 "--samples", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 5


def test_gradcheck_checks_a_zero_weight_loss_at_weight_one(tmp_path, tiny_config_file,
                                                          capsys):
    unweighted = tmp_path / "no_itc.cfg"
    unweighted.write_text(TINY_CFG + "w_itc = 0\n")
    reports = []
    # Ten samples can all miss the coordinates the itc loss reads; forty do not.
    for path in (tiny_config_file, unweighted):
        assert main(["gradcheck", "--config", str(path), "--samples", "40"]) == 0
        reports.append(dict(line.split("\t", 1) for line in
                            capsys.readouterr().out.splitlines()))
    assert "max_rel_err=0.000e+00" not in reports[1]["itc"]
    # The itc objective is the same function whatever the config weighs it.
    assert reports[1]["itc"] == reports[0]["itc"]


@pytest.mark.parametrize("command", ["pretrain", "gradcheck"])
def test_a_config_that_weighs_no_loss_exits_one(tmp_path, command, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CFG + "".join(f"{name} = 0\n" for name in
                                      ("w_mlm", "w_mvm", "w_linkpred", "w_itc")))
    out = tmp_path / "run"
    argv = [command, "--config", str(bad)] + (["--out", str(out)] if command == "pretrain" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: at least one loss weight must be > 0\n"
    assert captured.out == "" and not out.exists()


def test_bad_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n")
    code = main(["pretrain", "--config", str(bad)])
    assert code == 1


def test_seed_flag_overrides_config(tmp_path, tiny_config_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["pretrain", "--config", str(tiny_config_file),
                 "--seed", "5", "--out", str(out_a)]) == 0
    assert main(["pretrain", "--config", str(tiny_config_file),
                 "--seed", "6", "--out", str(out_b)]) == 0
    assert (out_a / "metrics.tsv").read_text() != (out_b / "metrics.tsv").read_text()

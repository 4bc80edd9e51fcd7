"""The package's public names and its modules' imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import kgfuse


def test_every_exported_name_resolves_once():
    names = kgfuse.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names)
                                                 if names.count(n) > 1)
    assert [n for n in names if not hasattr(kgfuse, n)] == []


# Imported only so that perfbench's traced run can wrap them by attribute.
UNREAD_IMPORTS_KEPT = {
    ("objectives", "sample_negatives"),  # the negative sampler's span
}


def unread_imports(source: str) -> set[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_unread_imports_are_only_the_kept_ones():
    unread = {(path.stem, name)
              for path in sorted(Path(kgfuse.__file__).parent.glob("*.py"))
              if path.name != "__init__.py"
              for name in unread_imports(path.read_text(encoding="utf-8"))}
    assert unread == UNREAD_IMPORTS_KEPT


# Public API that no src/ module and no perfbench hook reads, each kept for
# its callers outside the program.
UNCALLED_KEPT = {
    "gnn.gnn_layer": "acceptance criterion 4 checks one layer against its reference",
    "gnn.attention_weights": "acceptance criterion 4 checks the attention rows",
    "retriever.retrieve": "acceptance criterion 2's single-image retrieval API",
    "tensor.gelu": "the tests' reference transformer chain, and demo 01",
}


def referenced_names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Every name and attribute a tree reads; with ``strings``, its string
    literals too, since perfbench wraps functions by attribute name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_public_definition_has_a_caller():
    package = Path(kgfuse.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    bench = set().union(*(referenced_names(ast.parse(path.read_text(encoding="utf-8")), True)
                          for path in (package.parent.parent / "perfbench").glob("*.py")))
    uncalled = set()
    for module, tree in trees.items():
        # Another module, or this module outside the definition itself.
        others = set().union(*(referenced_names(t) for m, t in trees.items() if m != module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                own = set().union(*(referenced_names(n) for n in tree.body if n is not node))
                if node.name not in others | own | bench:
                    uncalled.add(f"{module}.{node.name}")
    assert uncalled == set(UNCALLED_KEPT)


# The stages a training step chains.  model.py alone imports them, so a step
# and every other reader of the stages (evaluation, the CLI) share one path:
# the step's record, or model.retrieve_images for retrieval.
STAGE_FUNCTIONS = {"patchify", "vision_encode", "text_encode", "score_patches",
                   "retrieve_from_scores", "expand_subgraph", "split_triplet_list",
                   "entity_encode", "gnn_encode", "assemble", "fuse", "heads"}


def test_only_the_model_imports_the_stage_functions():
    # __init__.py re-exports public names and calls none of them.
    importers = {(path.stem, alias.name)
                 for path in sorted(Path(kgfuse.__file__).parent.glob("*.py"))
                 if path.name not in ("model.py", "__init__.py")
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ImportFrom)
                 for alias in node.names if alias.name in STAGE_FUNCTIONS}
    assert importers == set()


# np.unique imports numpy.ma on its first call, about 1 MB of resident memory
# a gradient check would carry for nothing.
NO_GRAD_STEP = """
import sys
from kgfuse import tensor as T
from kgfuse.config import Config
from kgfuse.data import corpus_memory, generate_corpus
from kgfuse.model import build_model, compute_step, make_batch_plan, single_loss_objective
config = Config(d=8, d_e=8, attn_width=8, ff_dim=16, vision_layers=1, text_layers=1,
                gnn_layers=1, fusion_layers=1, corpus_entities=40, corpus_relations=4,
                corpus_triplets=160, corpus_examples=8, batch_size=3, per_node_cap=3,
                n_negatives=4, k_final=4)
corpus = generate_corpus(config)
params, memory = build_model(config, corpus.kg), corpus_memory(corpus)
plan = make_batch_plan(config, len(corpus), step=1)
with T.no_grad():
    compute_step(params, corpus, memory, plan)
T.finite_difference_check(single_loss_objective(params, corpus, memory, plan, "total"),
                          params.store, sample_count=4)
print("numpy.ma" in sys.modules)
"""


def test_a_gradient_check_leaves_numpy_ma_unimported():
    env = dict(os.environ, PYTHONPATH=str(Path(kgfuse.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-B", "-c", NO_GRAD_STEP], capture_output=True,
                            text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["False"]

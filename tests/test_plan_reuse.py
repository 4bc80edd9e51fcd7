"""A plan's memo reuses stage outputs across forward passes.

``model.compute_step`` keeps a plan's batch inputs (patches, masks, tokens),
its graph sample (subgraphs, holdout split, union, edge lists) and, under
``no_grad``, each parameter stage's output and the losses in ``plan.memo``.
Reuse must not change a single bit of any loss or gradient, must rebuild the
sample when retrieval changes, and must actually happen: the seeded sampling
runs once per retrieval, not once per evaluation.  The step's record holds
what each stage computed, the memo's own objects on a no-grad hit.
"""

import contextlib
import dataclasses
import itertools

import numpy as np
import pytest

from kgfuse import gnn, model
from kgfuse import tensor as T
from kgfuse.config import Config
from kgfuse.data import corpus_memory, generate_corpus
from kgfuse.errors import ValidationError
from kgfuse.model import (ALL_LOSSES, build_model, compute_step, make_batch_plan,
                          single_loss_objective)
from kgfuse.retriever import build_memory
from kgfuse.train import gradient_report

SMALL = Config(d=8, d_e=8, attn_width=8, ff_dim=16, vision_layers=1, text_layers=1,
               gnn_layers=2, fusion_layers=1, corpus_entities=40, corpus_relations=4,
               corpus_triplets=160, corpus_examples=8, batch_size=3, per_node_cap=3,
               n_negatives=4, k_final=4)


@pytest.fixture
def setting():
    corpus = generate_corpus(SMALL)
    return corpus, build_model(SMALL, corpus.kg), corpus_memory(corpus)


def fresh_plan():
    return make_batch_plan(SMALL, SMALL.corpus_examples, step=1)


def evaluate(params, corpus, memory, plan, loss_name):
    """The objective's value and every parameter's gradient, as arrays."""
    loss = single_loss_objective(params, corpus, memory, plan, loss_name)()
    grads = T.backward(loss)
    return loss.item(), {name: grads.get(t, np.zeros_like(t.data))
                         for name, t in params.store.items()}


def kept(plan, stage):
    """The output the plan's memo keeps for ``stage``."""
    return plan.memo[stage][1]


def assert_bitwise_equal(got, want):
    assert got[0] == want[0]
    for name, grad in want[1].items():
        assert np.array_equal(got[1][name], grad), name


@pytest.mark.parametrize("loss_name", ALL_LOSSES + ("total",))
def test_reused_plan_equals_fresh_plans_bitwise(setting, loss_name):
    corpus, params, memory = setting
    plan = fresh_plan()
    for _ in range(2):
        assert_bitwise_equal(evaluate(params, corpus, memory, plan, loss_name),
                             evaluate(params, corpus, memory, fresh_plan(), loss_name))
    assert "inputs" in plan.memo
    assert ("sample" in plan.memo) == (loss_name != "itc")


def test_a_single_loss_objective_weighs_its_loss_one_whatever_the_config(setting):
    corpus, params, memory = setting
    unweighted = dataclasses.replace(SMALL, w_itc=0.0)
    other = generate_corpus(unweighted)
    got = evaluate(params, other, corpus_memory(other), fresh_plan(), "itc")
    want = evaluate(params, corpus, memory, fresh_plan(), "itc")
    assert got[0] != 0.0
    assert_bitwise_equal(got, want)


def test_reused_plan_gives_fresh_bundle_values(setting):
    corpus, params, memory = setting
    plan = fresh_plan()
    first = compute_step(params, corpus, memory, plan)
    inputs, sample = kept(plan, "inputs"), kept(plan, "sample")
    again = compute_step(params, corpus, memory, plan)
    fresh = compute_step(params, corpus, memory, fresh_plan())
    assert kept(plan, "inputs") is inputs and kept(plan, "sample") is sample
    assert len(first.sample.positives)
    assert again.bundle.values() == fresh.bundle.values() == first.bundle.values()
    assert again.retrieved == fresh.retrieved


def test_changed_retrieval_rebuilds_the_sample(setting):
    corpus, params, memory = setting
    plan = fresh_plan()
    before = compute_step(params, corpus, memory, plan)
    inputs, sample = kept(plan, "inputs"), kept(plan, "sample")

    # A large change to the retrieval head moves which entities are retrieved.
    weights = params.vision.retrieval_w.data
    weights += 5.0 * np.random.default_rng(0).standard_normal(weights.shape)
    after = compute_step(params, corpus, memory, plan)
    assert after.retrieved != before.retrieved
    assert kept(plan, "inputs") is inputs and kept(plan, "sample") is not sample
    assert_bitwise_equal(evaluate(params, corpus, memory, plan, "total"),
                         evaluate(params, corpus, memory, fresh_plan(), "total"))

    # A change that keeps retrieval keeps the sample.
    rebuilt = kept(plan, "sample")
    params.fusion.cls_vec.data += 0.1
    compute_step(params, corpus, memory, plan)
    assert kept(plan, "sample") is rebuilt


@pytest.mark.parametrize("replaced", ["corpus", "memory"])
def test_a_second_corpus_or_memory_rebuilds_what_it_keys(setting, replaced):
    corpus, params, memory = setting
    plan = fresh_plan()
    compute_step(params, corpus, memory, plan)
    inputs, sample = kept(plan, "inputs"), kept(plan, "sample")
    # Equal to the first object, but not the same one.
    if replaced == "corpus":
        corpus = generate_corpus(SMALL)
    else:
        memory = build_memory(corpus.kg, SMALL.d_e, SMALL.seed)
    again = compute_step(params, corpus, memory, plan)
    # The inputs are keyed on the corpus, the sample on the inputs and memory.
    assert (kept(plan, "inputs") is inputs) == (replaced == "memory")
    assert plan.memo["inputs"][0][0] is corpus
    assert kept(plan, "sample") is not sample and plan.memo["sample"][0][1] is memory
    assert again.bundle.values() == \
        compute_step(params, corpus, memory, fresh_plan()).bundle.values()
    assert_bitwise_equal(evaluate(params, corpus, memory, plan, "total"),
                         evaluate(params, corpus, memory, fresh_plan(), "total"))


def test_a_plans_examples_cannot_be_rebound():
    # The memo keys the batch inputs on the corpus alone.
    with pytest.raises(dataclasses.FrozenInstanceError):
        fresh_plan().examples = make_batch_plan(SMALL, SMALL.corpus_examples, step=2).examples


def test_cached_arrays_are_read_only(setting):
    corpus, params, memory = setting
    plan = fresh_plan()
    compute_step(params, corpus, memory, plan)
    inputs, sample = kept(plan, "inputs"), kept(plan, "sample")
    arrays = [inputs.patches, inputs.masked, inputs.tokens, inputs.token_valid,
              inputs.patch_records[0].original_patches, sample.node_rows,
              sample.seed_rows, sample.entity_valid, sample.node_weight,
              sample.positive_rows, *sample.union.edge_lists, memory.matrix]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


STAGES = ("vision_encode", "text_encode", "gnn_encode", "linkpred_loss", "fuse", "heads",
          "itc_loss")


def test_sampling_runs_once_per_retrieval(monkeypatch):
    calls = {name: 0 for name in ("expand_subgraph", "split_triplet_list",
                                  "mask_spans", "mask_patches", "_edge_lists")}
    # Each stage's calls with gradients recorded and under no_grad.
    stage_calls = {name: [0, 0] for name in STAGES}
    retrievals = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            if name in stage_calls:
                stage_calls[name][not T.is_grad_enabled()] += 1
            else:
                calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("expand_subgraph", "split_triplet_list", "mask_spans", "mask_patches",
                 *STAGES):
        counted(model, name)
    counted(gnn, "_edge_lists")
    step = model.compute_step

    def recorded(*args, **kwargs):
        out = step(*args, **kwargs)
        if out.retrieved:
            retrievals.append(out.retrieved)
        return out
    monkeypatch.setattr(model, "compute_step", recorded)

    gradient_report(SMALL, sample_count=2)

    # 5 objectives x (2 x 2 + 1) evaluations; itc retrieves nothing.
    assert len(retrievals) == 20
    # The plan keeps one sample, so a retrieval that differs from the last
    # one rebuilds it.
    changes = sum(1 for i, ids in enumerate(retrievals)
                  if i == 0 or ids != retrievals[i - 1])
    assert changes < len(retrievals)
    batch = SMALL.batch_size
    assert calls == {"expand_subgraph": batch * changes,
                     "split_triplet_list": batch * changes,
                     "mask_spans": batch, "mask_patches": batch,
                     "_edge_lists": changes}
    # Grad mode runs every stage a nonzero weight reads; the no-grad
    # evaluations rerun only the stages a perturbation reaches.
    assert stage_calls == {"vision_encode": [5, 1], "text_encode": [4, 1],
                           "gnn_encode": [4, 1], "linkpred_loss": [2, 1],
                           "fuse": [3, 1], "heads": [3, 8], "itc_loss": [2, 1]}


# ---- the stage memo: no-grad passes reuse the stages a change cannot reach ----

GROUPS = ("vision", "text", "entity", "gnn", "fusion", "heads", "itc")


def value_without_grad(params, corpus, memory, plan, loss_name):
    with T.no_grad():
        return single_loss_objective(params, corpus, memory, plan, loss_name)().item()


def group_coordinates(params, corpus, memory):
    """For each module group, the (name, offset) of its coordinate with the
    largest total-loss gradient, so that moving it moves the total."""
    grads = evaluate(params, corpus, memory, fresh_plan(), "total")[1]
    best = {}
    for name, grad in grads.items():
        group = name.split(".")[0]
        offset = int(np.argmax(np.abs(grad)))
        if abs(grad.flat[offset]) > best.get(group, (0.0,))[0]:
            best[group] = (abs(grad.flat[offset]), name, offset)
    return {group: best[group][1:] for group in GROUPS}


@pytest.mark.parametrize("loss_name", ALL_LOSSES + ("total",))
def test_no_grad_values_on_a_warm_plan_equal_fresh_plans_bitwise(setting, loss_name):
    corpus, params, memory = setting
    plan = fresh_plan()
    base = value_without_grad(params, corpus, memory, plan, loss_name)
    for group, (name, offset) in group_coordinates(params, corpus, memory).items():
        data = params.store[name].data
        original = data.flat[offset]
        data.flat[offset] = original + 0.05
        moved = value_without_grad(params, corpus, memory, plan, loss_name)
        assert moved == value_without_grad(params, corpus, memory, fresh_plan(),
                                           loss_name), group
        if loss_name == "total":
            assert moved != base, group
        data.flat[offset] = original
        assert value_without_grad(params, corpus, memory, plan, loss_name) == base, group


def test_grad_mode_after_finite_differences_equals_a_fresh_plan(setting):
    corpus, params, memory = setting
    plan = fresh_plan()
    for loss_name in ALL_LOSSES:
        T.finite_difference_check(
            single_loss_objective(params, corpus, memory, plan, loss_name),
            params.store, eps=1e-4, sample_count=12, seed=3)
    entries = dict(plan.memo)
    assert set(entries) == {"inputs", "sample", "spans", "vision", "text", "graph",
                            "linkpred", "fusion", "heads", "itc", "mlm", "mvm", "total"}
    assert set(model.STAGE_GROUPS) == set(entries) - {"inputs", "sample", "spans", "mlm",
                                                      "mvm", "total"}
    assert_bitwise_equal(evaluate(params, corpus, memory, plan, "total"),
                         evaluate(params, corpus, memory, fresh_plan(), "total"))
    # Grad mode adds no entry and neither reads nor writes a parameter
    # stage's or a loss's.
    assert plan.memo.keys() == entries.keys()
    assert all(plan.memo[s] is entries[s] for s in (*model.STAGE_GROUPS, "mlm", "mvm", "total"))


def test_a_heads_change_runs_no_encoder(setting, monkeypatch):
    corpus, params, memory = setting
    calls = {name: 0 for name in ("vision_encode", "text_encode", "gnn_encode", "fuse",
                                  "heads", "expand_subgraph")}

    def counted(name):
        original = getattr(model, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(model, name, wrapper)

    for name in calls:
        counted(name)
    plan = fresh_plan()
    value_without_grad(params, corpus, memory, plan, "total")
    assert calls == {"vision_encode": 1, "text_encode": 1, "gnn_encode": 1, "fuse": 1,
                     "heads": 1, "expand_subgraph": SMALL.batch_size}

    params.heads.mlm_w.data[0, 0] += 0.05
    calls.update(dict.fromkeys(calls, 0))
    moved = value_without_grad(params, corpus, memory, plan, "total")
    assert calls == {"vision_encode": 0, "text_encode": 0, "gnn_encode": 0, "fuse": 0,
                     "heads": 1, "expand_subgraph": 0}
    assert moved == value_without_grad(params, corpus, memory, fresh_plan(), "total")

    # A change that flips retrieval reruns every stage after vision and
    # rebuilds the sample.
    sample = kept(plan, "sample")
    retrieved = kept(plan, "graph")[0]
    weights = params.vision.retrieval_w.data
    weights += 5.0 * np.random.default_rng(0).standard_normal(weights.shape)
    calls.update(dict.fromkeys(calls, 0))
    moved = value_without_grad(params, corpus, memory, plan, "total")
    assert kept(plan, "graph")[0] != retrieved
    assert kept(plan, "sample") is not sample
    assert calls == {"vision_encode": 1, "text_encode": 0, "gnn_encode": 1, "fuse": 1,
                     "heads": 1, "expand_subgraph": SMALL.batch_size}
    assert moved == value_without_grad(params, corpus, memory, fresh_plan(), "total")


@pytest.mark.parametrize("loss_name", ["total", "mlm"])
def test_a_warm_no_grad_pass_rebuilds_no_loss(setting, monkeypatch, loss_name):
    corpus, params, memory = setting
    calls = dict.fromkeys(("mlm_loss", "mvm_loss", "total_loss"), 0)

    def counted(name):
        original = getattr(model, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(model, name, wrapper)

    for name in calls:
        counted(name)
    plan = fresh_plan()
    base = value_without_grad(params, corpus, memory, plan, loss_name)
    calls.update(dict.fromkeys(calls, 0))
    # The "mlm" bundle holds three zero-weight losses' zeros, which must match too.
    assert value_without_grad(params, corpus, memory, plan, loss_name) == base
    assert calls == dict.fromkeys(calls, 0)

    params.heads.mlm_w.data[0, 0] += 0.05
    moved = value_without_grad(params, corpus, memory, plan, loss_name)
    assert calls == {"mlm_loss": 1, "mvm_loss": int(loss_name == "total"), "total_loss": 1}
    assert moved != base
    assert moved == value_without_grad(params, corpus, memory, fresh_plan(), loss_name)


def test_a_kept_key_of_another_length_is_a_miss():
    memo, a, b = {}, object(), object()
    assert model._reuse(memo, "stage", (a,), lambda: 1) == 1
    # A longer key whose first element is the kept key's, then a shorter one.
    assert model._reuse(memo, "stage", (a, b), lambda: 2) == 2
    assert model._reuse(memo, "stage", (a,), lambda: 3) == 3
    assert model._reuse(memo, "stage", (a,), lambda: 4) == 3


def test_only_the_token_rows_a_batch_reads_key_the_text_stage(setting, monkeypatch):
    corpus, params, memory = setting
    calls = dict.fromkeys(STAGES, 0)

    def counted(name):
        original = getattr(model, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(model, name, wrapper)

    for name in STAGES:
        counted(name)
    plan = fresh_plan()
    base = value_without_grad(params, corpus, memory, plan, "total")
    tokens = kept(plan, "inputs").tokens
    read = np.bincount(tokens.ravel(), minlength=SMALL.vocab) > 0
    assert read[0] and not read.all()   # CLS and padding read row 0
    embed = params.text.token_embed.data

    unread = int(np.flatnonzero(~read)[0])
    embed[unread, 0] += 0.05
    calls.update(dict.fromkeys(calls, 0))
    assert value_without_grad(params, corpus, memory, plan, "total") == base
    assert calls == dict.fromkeys(STAGES, 0)
    embed[unread, 0] -= 0.05

    for row in (0, int(tokens[0, 1])):
        original = embed[row, 0]
        embed[row, 0] += 0.05
        calls.update(dict.fromkeys(calls, 0))
        moved = value_without_grad(params, corpus, memory, plan, "total")
        assert calls == {"vision_encode": 0, "text_encode": 1, "gnn_encode": 0,
                         "linkpred_loss": 0, "fuse": 1, "heads": 1, "itc_loss": 1}, row
        assert moved != base
        assert moved == value_without_grad(params, corpus, memory, fresh_plan(), "total")
        embed[row, 0] = original
        assert value_without_grad(params, corpus, memory, plan, "total") == base


def test_a_data_reference_taken_after_build_model_reaches_the_step(setting):
    corpus, params, memory = setting
    weights = params.vision.retrieval_w.data
    plan = fresh_plan()
    with T.no_grad():
        base = compute_step(params, corpus, memory, plan)
        weights += np.random.default_rng(0).standard_normal(weights.shape)
        moved = compute_step(params, corpus, memory, plan)
        fresh = compute_step(params, corpus, memory, fresh_plan())
    assert weights is params.vision.retrieval_w.data
    assert not same_bits(moved.queries, base.queries)
    assert same_bits(moved.queries, fresh.queries)
    assert moved.bundle.values() == fresh.bundle.values()


def drawn_order_check(params, corpus, memory, loss_name, eps, sample_count, seed):
    """What finite_difference_check returns, with the coordinates taken in the
    order drawn and every value from a fresh plan."""
    def objective():
        return single_loss_objective(params, corpus, memory, fresh_plan(), loss_name)()

    grads = T.backward(objective())
    analytic = np.concatenate([grads.get(t, np.zeros_like(t.data)).ravel()
                               for _, t in params.store.items()])
    flat = params.store.flat()
    worst = 0.0
    for i in np.random.default_rng(seed).choice(flat.size, size=sample_count, replace=False):
        original, values = flat[i], []
        for value in (original + eps, original - eps):
            flat[i] = value
            with T.no_grad():
                values.append(objective().item())
            flat[i] = original
        numeric = (values[0] - values[1]) / (2.0 * eps)
        a = float(analytic[i])
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


@pytest.mark.parametrize("loss_name", ALL_LOSSES + ("total",))
def test_ascending_coordinates_give_the_drawn_orders_maximum(setting, loss_name):
    corpus, params, memory = setting
    got = T.finite_difference_check(
        single_loss_objective(params, corpus, memory, fresh_plan(), loss_name),
        params.store, eps=1e-4, sample_count=16, seed=5)
    assert got > 0.0
    assert got == drawn_order_check(params, corpus, memory, loss_name, 1e-4, 16, 5)


# ---- the step record: every stage's output, as the memo keeps it ---------------

# The record's fields each parameter stage fills, in the order of its memo entry.
STAGE_FIELDS = {"vision": ("vision", "queries"), "text": ("text",),
                "graph": ("retrieved", "relevance", "sample", "nodes"),
                "fusion": ("fused", "hidden"), "heads": ("heads",)}


def filled_fields(weights):
    """The record fields a step with loss weights ``weights`` fills."""
    mlm, mvm, linkpred, itc = weights
    fusion = bool(mlm or mvm)
    stages = {"vision": True, "text": fusion or bool(itc),
              "graph": fusion or bool(linkpred), "fusion": fusion, "heads": fusion}
    return {"inputs", "bundle"} | {name for stage, ran in stages.items() if ran
                                   for name in STAGE_FIELDS[stage]}


def filled(out):
    """The record fields ``out`` holds a value in."""
    return {f.name for f in dataclasses.fields(out)
            if getattr(out, f.name) is not None and getattr(out, f.name) != []}


def same_bits(got, want) -> bool:
    """Whether two record values hold the same numbers, bit for bit."""
    if isinstance(want, T.Tensor):
        got, want = got.data, want.data
    if isinstance(want, np.ndarray):
        return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    if dataclasses.is_dataclass(want):
        return type(got) is type(want) and all(
            same_bits(getattr(got, f.name), getattr(want, f.name))
            for f in dataclasses.fields(want))
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(map(same_bits, got, want))
    return got == want


# The 15 nonzero patterns of zero and unit loss weights, each named by the
# losses it weighs.
WEIGHT_PATTERNS = {"+".join(subset): tuple(float(name in subset) for name in ALL_LOSSES)
                   for n in range(1, len(ALL_LOSSES) + 1)
                   for subset in itertools.combinations(ALL_LOSSES, n)}


@pytest.mark.parametrize("weights", WEIGHT_PATTERNS.values(), ids=WEIGHT_PATTERNS.keys())
def test_a_skipped_stage_leaves_its_fields_empty(setting, weights):
    corpus, params, memory = setting
    out = compute_step(params, corpus, memory, fresh_plan(), weights)
    assert filled(out) == filled_fields(weights)
    if "retrieved" not in filled(out):
        assert out.retrieved == []   # a list, not None
    for name, weight in zip(ALL_LOSSES, weights):
        assert (getattr(out.bundle, name) is model._ZERO) == (weight == 0), name


def test_half_weights_run_the_stages_unit_weights_run(setting):
    corpus, params, memory = setting
    for weights in WEIGHT_PATTERNS.values():
        halves = tuple(0.5 * w for w in weights)
        one = compute_step(params, corpus, memory, fresh_plan(), weights)
        half = compute_step(params, corpus, memory, fresh_plan(), halves)
        assert filled(half) == filled(one) == filled_fields(weights), weights
        for name in ALL_LOSSES:
            assert getattr(half.bundle, name).item() == getattr(one.bundle, name).item()


@pytest.mark.parametrize("weights", [(1.0,), (1.0, 1.0, 1.0, -1.0), (1.0, 1.0, 1.0, np.nan),
                                     ("a", "b", "c", "d"), 4.0],
                         ids=["short", "negative", "nan", "strings", "scalar"])
def test_bad_weights_raise_before_any_stage_runs(setting, weights):
    corpus, params, memory = setting
    plan = fresh_plan()
    with pytest.raises(ValidationError, match="four nonnegative numbers"):
        compute_step(params, corpus, memory, plan, weights)
    assert plan.memo == {}


def test_a_no_grad_memo_hit_hands_back_the_kept_objects(setting):
    corpus, params, memory = setting
    plan = fresh_plan()
    with T.no_grad():
        first = compute_step(params, corpus, memory, plan)
        again = compute_step(params, corpus, memory, plan)
    assert again.inputs is kept(plan, "inputs") and again.sample is kept(plan, "sample")
    assert again.bundle is first.bundle is kept(plan, "total")
    for stage, names in STAGE_FIELDS.items():
        outputs = kept(plan, stage) if len(names) > 1 else (kept(plan, stage),)
        for name, output in zip(names, outputs, strict=True):
            assert getattr(again, name) is output, name
            assert getattr(first, name) is output, name


@pytest.mark.parametrize("grad", [False, True], ids=["no_grad", "grad"])
@pytest.mark.parametrize("weights", [*WEIGHT_PATTERNS.values(), None],
                         ids=[*WEIGHT_PATTERNS.keys(), "total"])
def test_every_record_field_equals_a_fresh_plans_bitwise(setting, weights, grad):
    corpus, params, memory = setting
    plan = fresh_plan()
    mode = contextlib.nullcontext if grad else T.no_grad
    # A pass with other retrieval weights leaves the memo keyed on them.  The
    # weights are read through the tensor each time: a no-grad pass may move
    # the store's arrays into one flat buffer.
    tensor = params.vision.retrieval_w
    original = tensor.data.copy()
    with mode():
        tensor.data += 5.0 * np.random.default_rng(0).standard_normal(original.shape)
        moved = compute_step(params, corpus, memory, plan, weights)
        tensor.data[...] = original
        warm = compute_step(params, corpus, memory, plan, weights)
        fresh = compute_step(params, corpus, memory, fresh_plan(), weights)
    assert not same_bits(moved.queries, fresh.queries)
    for f in dataclasses.fields(warm):
        assert same_bits(getattr(warm, f.name), getattr(fresh, f.name)), f.name

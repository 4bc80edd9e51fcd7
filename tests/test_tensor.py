"""Tensor core: primitive gradients, backward semantics, and error contracts."""

import math

import numpy as np
import pytest

from kgfuse import tensor as T
from kgfuse.errors import NumericsError, ValidationError

from helpers import (fd_input_grad, reference_attention, reference_layer_norm,
                     reference_log_sigmoid, scalar_gelu, segment_sum, softmax)


def _check_op_gradient(build, x_shape, seed, rtol=1e-6, positive=False):
    """Compare the analytic input gradient of a scalar objective with FD."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(x_shape)
    if positive:
        x = np.abs(x) + 0.5

    def objective(values: np.ndarray) -> float:
        t = T.Tensor(values, requires_grad=True)
        return float(build(t).data.reshape(()))

    t = T.Tensor(x, requires_grad=True)
    loss = build(t)
    grads = T.backward(loss)
    numeric = fd_input_grad(objective, x.copy())
    np.testing.assert_allclose(grads[t], numeric, rtol=rtol, atol=1e-7)


class TestPrimitiveGradients:
    """Every primitive's vector-Jacobian product against finite differences."""

    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(0)
        other = rng.standard_normal((1, 4))
        _check_op_gradient(
            lambda t: T.tensor_sum(T.mul(T.add(t, T.constant(other)), t)), (3, 4), 1)

    def test_sub_div(self):
        rng = np.random.default_rng(2)
        denom = np.abs(rng.standard_normal((3, 4))) + 1.0
        _check_op_gradient(
            lambda t: T.tensor_sum(T.div(T.sub(t, 1.5), T.constant(denom))), (3, 4), 3)

    def test_div_wrt_denominator(self):
        numer = np.random.default_rng(4).standard_normal((2, 3))
        _check_op_gradient(
            lambda t: T.tensor_sum(T.div(T.constant(numer), t)), (2, 3), 5,
            positive=True)

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(6)
        # 2-D; (L, d) @ (H, d, dh), whose left side broadcasts; (H, L, dh) @ (H, dh, d).
        for left, right, seed in (((3, 4), (4, 2), 7), ((3, 4), (2, 4, 2), 8),
                                  ((2, 3, 2), (2, 2, 4), 9)):
            a, b = rng.standard_normal(left), rng.standard_normal(right)
            probe = T.constant(rng.standard_normal((a @ b).shape))
            _check_op_gradient(lambda t: T.tensor_sum(
                T.mul(T.matmul(t, T.constant(b)), probe)), left, seed)
            _check_op_gradient(lambda t: T.tensor_sum(
                T.mul(T.matmul(T.constant(a), t), probe)), right, seed + 10)

    def test_transpose_reshape_narrow(self):
        _check_op_gradient(
            lambda t: T.tensor_sum(T.mul(T.transpose(t), T.transpose(t))), (3, 4), 9)
        probe = T.constant(np.random.default_rng(9).standard_normal((2, 4, 3)))
        _check_op_gradient(
            lambda t: T.tensor_sum(T.mul(T.transpose(t), probe)), (2, 3, 4), 9)
        _check_op_gradient(
            lambda t: T.tensor_sum(T.power(T.reshape(t, (2, 6)), 2.0)), (3, 4), 10)
        _check_op_gradient(lambda t: T.tensor_sum(T.mul(t[1:, :2], 3.0)), (3, 4), 11)

    def test_reductions(self):
        _check_op_gradient(lambda t: T.tensor_sum(T.power(
            T.tensor_sum(t, axis=1, keepdims=True), 2.0)), (3, 4), 12)
        _check_op_gradient(lambda t: T.tensor_sum(T.power(
            T.tensor_mean(t, axis=0), 3.0)), (3, 4), 13)

    @pytest.mark.parametrize("op,positive", [
        (T.log_sigmoid, False), (T.gelu, False),
    ])
    def test_unary(self, op, positive):
        _check_op_gradient(lambda t: T.tensor_sum(T.mul(op(t), 1.7)), (3, 4),
                           seed=14, positive=positive)

    def test_softmax_log_softmax(self):
        rng = np.random.default_rng(15)
        probe = rng.standard_normal((3, 5))
        _check_op_gradient(
            lambda t: T.tensor_sum(T.mul(softmax(t, axis=1), T.constant(probe))),
            (3, 5), 16)
        _check_op_gradient(
            lambda t: T.tensor_sum(T.mul(T.log_softmax(t, axis=1), T.constant(probe))),
            (3, 5), 17)

    def test_take_rows_accumulates_repeats(self):
        idx = [0, 2, 0, 1, 0]
        _check_op_gradient(
            lambda t: T.tensor_sum(T.power(T.take_rows(t, idx), 2.0)), (3, 4), 18)

    def test_take_rows_nd_index(self):
        idx = np.array([[0, 1], [2, 2]])
        _check_op_gradient(
            lambda t: T.tensor_sum(T.power(T.take_rows(t, idx), 2.0)), (3, 4), 19)

    def test_take_pairs_and_segment_ops(self):
        rows = [0, 1, 1]
        cols = [2, 0, 3]
        _check_op_gradient(
            lambda t: T.tensor_sum(T.power(T.take_pairs(t, rows, cols), 2.0)),
            (3, 4), 20)
        # Segments of 3, 1 and 2 rows: the softmax weights each row of the
        # gathered messages, and the weighted rows are summed per segment.
        segments = [0, 0, 0, 1, 2, 2]
        probe = np.random.default_rng(21).standard_normal((3, 4))

        def build(t):
            alpha = T.segment_softmax(T.tensor_sum(t, axis=1), segments, 3)
            weighted = T.mul(T.reshape(alpha, (6, 1)), T.power(t, 2.0))
            return T.tensor_sum(T.mul(segment_sum(weighted, segments, 3),
                                      T.constant(probe)))

        _check_op_gradient(build, (6, 4), 21)

    def test_concat(self):
        rng = np.random.default_rng(22)
        other = rng.standard_normal((2, 4))
        _check_op_gradient(
            lambda t: T.tensor_sum(T.power(
                T.concat([t, T.constant(other), t], axis=0), 2.0)), (3, 4), 23)

    def test_layer_norm_and_losses(self):
        gain = T.Tensor(np.full(4, 1.3))
        bias = T.Tensor(np.full(4, -0.2))
        _check_op_gradient(
            lambda t: T.tensor_sum(T.power(T.layer_norm(t, gain, bias), 2.0)),
            (3, 4), 24)
        target = np.random.default_rng(25).standard_normal((3, 4))
        _check_op_gradient(lambda t: T.mse(t, T.constant(target)), (3, 4), 26)
        _check_op_gradient(lambda t: T.cross_entropy(t, [0, 2, 1]), (3, 4), 27)
        _check_op_gradient(
            lambda t: T.tensor_sum(T.power(T.l2_normalize_rows(t), 3.0)), (3, 4), 28)


def _attention_inputs(shape, heads, masked, seed):
    """x, wq, wk, wv, wo (all trainable leaves), the boolean key mask and the
    scale 1/sqrt(d/M) of a random attention problem; a masked one pads each
    sequence differently."""
    rng = np.random.default_rng(seed)
    d = shape[-1]
    dh = d // heads
    leaves = [T.Tensor(rng.standard_normal(s), requires_grad=True)
              for s in (shape, (heads, d, dh), (heads, d, dh), (heads, d, dh), (heads, dh, d))]
    valid = None
    if masked:
        lengths = rng.integers(1, shape[-2] + 1, size=shape[:-2])
        valid = np.arange(shape[-2]) < lengths[..., None]
    return leaves, valid, 1.0 / math.sqrt(dh)


class TestTransformerKernels:
    """LayerNorm and attention are each one node that takes the composed
    chain's float steps in its order; GELU's cubic in Horner form agrees with
    the scalar formula."""

    @pytest.mark.parametrize("shape,heads,masked", [
        ((5, 8), 2, False),          # one sequence
        ((3, 6, 8), 4, False),       # a batch
        ((3, 6, 8), 2, True),        # a padded batch
        ((2, 3, 5, 4), 1, True),     # two batch axes, one head
    ])
    def test_attention_equals_composed_chain(self, shape, heads, masked):
        leaves, valid, scale = _attention_inputs(shape, heads, masked, len(shape) + heads)
        probe = T.constant(np.random.default_rng(heads).standard_normal(shape))
        out = T.attention(*leaves, valid)
        ref = reference_attention(*leaves, valid, scale)
        assert out.data.tobytes() == ref.data.tobytes()
        assert out.op == "attention"
        assert [id(p) for p in out._parents] == [id(leaf) for leaf in leaves]
        got = T.backward(T.tensor_sum(T.mul(out, probe)))
        want = T.backward(T.tensor_sum(T.mul(ref, probe)))
        for leaf in leaves:   # relative to the largest entry of each gradient
            assert np.max(np.abs(got[leaf] - want[leaf])) <= 1e-12 * np.max(np.abs(want[leaf]))

    def test_attention_passes_finite_differences(self):
        (x, *weights), valid, _ = _attention_inputs((2, 4, 6), 3, True, 40)
        params = T.Parameters()
        for name, leaf in zip(("x", "wq", "wk", "wv", "wo"), (x, *weights)):
            params.add(name, leaf)
        probe = T.constant(np.random.default_rng(41).standard_normal((2, 4, 6)))
        err = T.finite_difference_check(
            lambda: T.tensor_sum(T.mul(T.attention(x, *weights, valid), probe)),
            params, eps=1e-5, sample_count=params.flat_size(), seed=0)
        assert err < 1e-6

    def test_attention_overflow_names_the_node(self):
        (x, *weights), _, _ = _attention_inputs((4, 6), 2, False, 42)
        x.data[0] = 1e160   # finite projections, logits beyond float64
        with pytest.raises(NumericsError, match="attention"):
            T.attention(x, *weights, None)

    @pytest.mark.parametrize("which,shape", [
        (1, (2, 6, 4)),    # wq of the wrong width
        (2, (2, 6, 2)),    # wk unlike wq
        (3, (3, 6, 3)),    # wv with another head count
        (4, (2, 6, 3)),    # wo not (M, d/M, d)
        (1, (6, 3)),       # wq without a head axis
        (0, (6,)),         # x without a sequence axis
    ])
    def test_attention_rejects_misshapen_inputs(self, which, shape):
        inputs, _, _ = _attention_inputs((4, 6), 2, False, 43)
        inputs[which] = T.Tensor(np.ones(shape))
        with pytest.raises(ValidationError, match="attention shapes"):
            T.attention(*inputs, None)

    def test_attention_rejects_a_wrong_shape_mask(self):
        # The last mask has the right shape but is an additive float mask,
        # not a boolean one.
        inputs, valid, _ = _attention_inputs((3, 4, 6), 2, True, 44)
        for bad in (valid[0], valid[..., None], np.zeros((3, 5), dtype=bool),
                    np.where(valid, 0.0, -1e30)):
            with pytest.raises(ValidationError, match="attention shapes.*valid_mask"):
                T.attention(*inputs, bad)

    @pytest.mark.parametrize("shape", [(3, 7), (2, 5, 8), (2, 3, 4, 6)])
    def test_layer_norm_equals_composed_chain(self, shape):
        rng = np.random.default_rng(len(shape))
        values = rng.standard_normal(shape) * 3.0 + 1.5
        values[(0,) * (len(shape) - 1)] = 3.7   # one constant row
        x = T.Tensor(values, requires_grad=True)
        gain = T.Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
        bias = T.Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
        probe = T.constant(rng.standard_normal(shape))
        out = T.layer_norm(x, gain, bias)
        ref = reference_layer_norm(x, gain, bias)
        assert out.data.tobytes() == ref.data.tobytes()
        assert out.op == "layer_norm"
        assert [id(p) for p in out._parents] == [id(x), id(gain), id(bias)]
        got = T.backward(T.tensor_sum(T.mul(out, probe)))
        want = T.backward(T.tensor_sum(T.mul(ref, probe)))
        for leaf in (x, gain, bias):
            np.testing.assert_allclose(got[leaf], want[leaf], rtol=0, atol=1e-12)

    def test_gelu_matches_scalar_formula(self):
        xs = np.concatenate([np.linspace(-12.0, 12.0, 4801), [0.0, -0.0, 50.0, -50.0]])
        got = T.gelu(T.Tensor(xs)).data
        want = np.array([scalar_gelu(v) for v in xs])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestScatterMatchesAddAt:
    """The gather VJPs sum into each cell in index order, exactly as np.add.at;
    segment_sum, a scatter-add forward, agrees with it up to rounding."""

    @staticmethod
    def _input_grad(build, shape, probe):
        t = T.Tensor(np.zeros(shape), requires_grad=True)
        return T.backward(T.tensor_sum(T.mul(build(t), T.constant(probe))))[t]

    @pytest.mark.parametrize("shape,idx_shape", [
        ((5, 3), (1000,)),      # many repeats per row
        ((5, 3), (40, 25)),     # 2-D index array
        ((7,), (500,)),         # 1-D source
        ((4, 2, 3), (60,)),     # rows that are matrices
    ])
    def test_take_rows(self, shape, idx_shape):
        rng = np.random.default_rng(sum(idx_shape))
        idx = rng.integers(0, shape[0], size=idx_shape)
        probe = rng.standard_normal(idx_shape + shape[1:]) * 10.0 ** rng.integers(
            -8, 8, size=idx_shape + shape[1:])
        expected = np.zeros(shape)
        np.add.at(expected, idx, probe)
        got = self._input_grad(lambda t: T.take_rows(t, idx), shape, probe)
        assert np.array_equal(got, expected)

    def test_take_pairs(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 4, size=800)
        cols = rng.integers(0, 6, size=800)
        probe = rng.standard_normal(800) * 10.0 ** rng.integers(-8, 8, size=800)
        expected = np.zeros((4, 6))
        np.add.at(expected, (rows, cols), probe)
        got = self._input_grad(lambda t: T.take_pairs(t, rows, cols), (4, 6), probe)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shape", [(900,), (900, 16), (300, 2, 3), (5, 4)])
    def test_segment_sum_forward(self, shape):
        """Equal to np.add.at up to the rounding of a sum in another order:
        |error| <= (run length - 1) * eps * sum of |terms|."""
        rng = np.random.default_rng(shape[0] + len(shape))
        segments = np.sort(rng.integers(0, min(40, shape[0]), size=shape[0]))
        segments = np.unique(segments, return_inverse=True)[1]
        count = int(segments[-1]) + 1
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        expected, magnitude = np.zeros((2, count) + shape[1:])
        np.add.at(expected, segments, values)
        np.add.at(magnitude, segments, np.abs(values))
        got = segment_sum(T.Tensor(values), segments, count).data
        longest = np.bincount(segments).max()
        assert np.all(np.abs(got - expected) <= (longest - 1) * 2.0 ** -52 * magnitude)
        got_grad = self._input_grad(lambda t: segment_sum(t, segments, count),
                                    shape, expected)
        assert np.array_equal(got_grad, expected[segments])


class TestClosedForms:
    def test_softmax_symmetry(self):
        out = softmax(T.Tensor([0.0, 0.0, 0.0]), axis=0).data
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_softmax_rows_stochastic(self):
        rng = np.random.default_rng(29)
        out = softmax(T.Tensor(rng.standard_normal((6, 9)) * 20), axis=1).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_layernorm_constant_vector(self):
        gain = T.Tensor(np.ones(5))
        bias = T.Tensor(np.zeros(5))
        out = T.layer_norm(T.Tensor(np.full((2, 5), 3.7)), gain, bias).data
        np.testing.assert_array_equal(out, np.zeros((2, 5)))

    def test_sigmoid_identities(self):
        assert T.log_sigmoid(T.Tensor([0.0])).data[0] == -math.log(2.0)

    def test_batched_matmul_equals_per_slice_products(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((5, 6))
        w = rng.standard_normal((3, 6, 2))
        a = rng.standard_normal((3, 5, 5))
        stacked = T.matmul(T.Tensor(x), T.Tensor(w)).data
        assert np.array_equal(stacked, np.stack([x @ w[m] for m in range(3)]))
        mixed = T.matmul(T.Tensor(a), T.Tensor(stacked)).data
        assert np.array_equal(mixed, np.stack([a[m] @ stacked[m] for m in range(3)]))

    def test_log_sigmoid_extreme_inputs_stay_finite(self):
        out = T.log_sigmoid(T.Tensor([-800.0, 800.0])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0], -800.0)

    def test_log_sigmoid_bitwise_equals_masked_form(self):
        # Zeros of either sign, subnormal-adjacent inputs, where exp(-|x|)
        # drops below ulp(1), where it underflows, and a dense sweep.
        edges = np.array([0.0, 1e-300, 36.7, 745.2, 746.0, 900.0])
        x = np.concatenate([edges, -edges, np.linspace(-800.0, 800.0, 100_001)])
        g = np.random.default_rng(36).standard_normal(x.shape)
        g[:4] = [0.0, -0.0, 1.0, -1.0]
        t = T.Tensor(x, requires_grad=True)
        out = T.log_sigmoid(t)
        value, grad = reference_log_sigmoid(x, g)
        assert out.data.tobytes() == value.tobytes()
        assert out._vjp(g)[0].tobytes() == grad.tobytes()


class TestBackwardSemantics:
    def test_sum_gradient_is_ones(self):
        x = T.Tensor(np.random.default_rng(30).standard_normal((4, 5)),
                     requires_grad=True)
        grads = T.backward(T.tensor_sum(x))
        np.testing.assert_array_equal(grads[x], np.ones((4, 5)))

    def test_dot_product_gradients(self):
        rng = np.random.default_rng(31)
        xv, yv = rng.standard_normal(6), rng.standard_normal(6)
        x = T.Tensor(xv, requires_grad=True)
        y = T.Tensor(yv, requires_grad=True)
        grads = T.backward(T.dot(x, y))
        np.testing.assert_allclose(grads[x], yv)
        np.testing.assert_allclose(grads[y], xv)

    def test_fanout_accumulates(self):
        value = np.random.default_rng(32).standard_normal(5)
        x = T.Tensor(value, requires_grad=True)
        grads_self = T.backward(T.dot(x, x))
        y = T.Tensor(value.copy(), requires_grad=True)
        x2 = T.Tensor(value.copy(), requires_grad=True)
        grads_pair = T.backward(T.dot(x2, y))
        np.testing.assert_allclose(grads_self[x], grads_pair[x2] + grads_pair[y])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValidationError):
            T.backward(T.mul(x, 2.0))

    def test_second_backward_of_a_loss_raises(self):
        x = T.Tensor(np.arange(3.0), requires_grad=True)
        loss = T.dot(x, x)
        np.testing.assert_array_equal(T.backward(loss)[x], [0.0, 2.0, 4.0])
        with pytest.raises(ValidationError, match="consumed"):
            T.backward(loss)

    def test_loss_sharing_a_consumed_subgraph_raises(self):
        x = T.Tensor(np.arange(3.0), requires_grad=True)
        shared = T.mul(x, x)
        T.backward(T.tensor_sum(shared))
        with pytest.raises(ValidationError, match="consumed"):
            T.backward(T.tensor_sum(T.add(shared, x)))
        # Leaves are never consumed: a new graph over them still works.
        np.testing.assert_array_equal(T.backward(T.tensor_sum(x))[x], np.ones(3))

    def test_long_add_chain_is_exact(self):
        # 20,000 nodes deep: a recursive sweep would pass Python's recursion
        # limit.  Every step adds ``x`` once more, so the gradient is 20,001.
        x = T.Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        y = x
        for _ in range(20_000):
            y = T.add(y, x)
        np.testing.assert_array_equal(T.backward(T.tensor_sum(y))[x], np.full(3, 20_001.0))

    def test_forward_determinism(self):
        def run():
            rng = np.random.default_rng(33)
            a = T.Tensor(rng.standard_normal((4, 4)))
            b = T.Tensor(rng.standard_normal((4, 4)))
            return T.layer_norm(T.gelu(T.matmul(a, b)),
                                T.Tensor(np.ones(4)), T.Tensor(np.zeros(4))).data
        assert np.array_equal(run(), run())


class TestErrorContracts:
    def test_leaf_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            T.Tensor([1.0, np.nan])
        with pytest.raises(ValidationError):
            T.Tensor([np.inf])

    def test_shape_mismatch_names_shapes(self):
        a = T.Tensor(np.ones((2, 3)))
        b = T.Tensor(np.ones((2, 3)))
        with pytest.raises(ValidationError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(a, b)
        with pytest.raises(ValidationError, match=r"\(2, 3, 4\).*\(3, 4, 2\)"):
            T.matmul(T.Tensor(np.ones((2, 3, 4))), T.Tensor(np.ones((3, 4, 2))))
        with pytest.raises(ValidationError, match=r"\(3,\).*\(3, 2\)"):
            T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))
        with pytest.raises(ValidationError, match="axes"):
            T.transpose(T.Tensor(np.ones(3)))

    def test_matmul_overflow_names_the_node(self):
        with pytest.raises(NumericsError, match="matmul"):
            T.matmul(T.Tensor(np.full((2, 3), 1e160)), T.Tensor(np.full((3, 2), 1e160)))

    def test_nonfinite_intermediate_names_primitive(self):
        with pytest.raises(NumericsError, match="power"):
            T.power(T.Tensor([1e200]), 2.0)
        with pytest.raises(NumericsError, match="div"):
            T.div(T.Tensor([1.0]), T.Tensor([0.0]))

    def test_take_rows_bounds(self):
        with pytest.raises(ValidationError):
            T.take_rows(T.Tensor(np.ones((2, 2))), [0, 2])

    @pytest.mark.parametrize("shape,segments,count", [
        ((4, 2), [1, 0, 0, 2], 3),   # unsorted
        ((4, 2), [0, 0, 2, 2], 3),   # skips segment 1
        ((4, 2), [1, 1, 2, 2], 3),   # skips segment 0
        ((4, 2), [0, 0, 1, 1], 3),   # misses the last segment
        ((4, 2), [0, 1, 2], 3),      # one id short of the rows
        ((4, 2), [[0, 1], [1, 2]], 3),
        ((), 0, 1),                  # a scalar has no rows
    ])
    def test_segment_ids_must_be_sorted_runs(self, shape, segments, count):
        values = T.Tensor(np.ones(shape))
        for op in (T.segment_softmax, segment_sum):
            with pytest.raises(ValidationError, match="sorted runs"):
                op(values, segments, count)


class TestParameters:
    def test_flat_enumeration(self):
        p = T.Parameters()
        p.add("a", T.Tensor(np.zeros((2, 3))))
        p.add("b", T.Tensor(np.zeros(4)))
        assert p.flat_size() == 10
        assert p.locate(0) == ("a", 0)
        assert p.locate(5) == ("a", 5)
        assert p.locate(6) == ("b", 0)
        assert p.locate(9) == ("b", 3)
        with pytest.raises(ValidationError):
            p.locate(10)

    def test_duplicate_name_rejected(self):
        p = T.Parameters()
        p.add("a", T.Tensor(np.zeros(2)))
        with pytest.raises(ValidationError):
            p.add("a", T.Tensor(np.zeros(2)))

    def test_load_data_roundtrip(self):
        p = T.Parameters()
        p.add("a", T.Tensor(np.arange(4.0)))
        snapshot = {name: t.data.copy() for name, t in p.items()}
        p["a"].data[...] = 0
        p.load_data(snapshot)
        np.testing.assert_array_equal(p["a"].data, np.arange(4.0))


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self):
        p = T.Parameters()
        p.add("theta", T.Tensor(np.arange(1.0, 9.0)))
        err = T.finite_difference_check(
            lambda: T.dot(p["theta"], p["theta"]), p, eps=1e-4,
            sample_count=8, seed=0)
        assert err < 1e-8

    def test_transcendental_objective(self):
        p = T.Parameters()
        p.add("w", T.Tensor(np.random.default_rng(34).standard_normal((3, 3))))
        err = T.finite_difference_check(
            lambda: T.tensor_sum(T.gelu(T.matmul(p["w"], p["w"]))), p,
            eps=1e-4, sample_count=9, seed=1)
        assert err < 1e-6

    def test_nonfinite_perturbation_names_parameter(self):
        p = T.Parameters()
        p.add("w", T.Tensor(np.array([1e154])))  # w**2 finite, (2w)**2 overflows

        def objective():
            return T.tensor_sum(T.power(p["w"], 2.0))

        with pytest.raises(NumericsError, match=r"w\[0\]"):
            T.finite_difference_check(objective, p, eps=1e154, sample_count=1, seed=0)

    def test_invalid_arguments(self):
        p = T.Parameters()
        p.add("w", T.Tensor(np.ones(2)))
        fn = lambda: T.tensor_sum(p["w"])
        with pytest.raises(ValidationError):
            T.finite_difference_check(fn, p, eps=0.0)
        with pytest.raises(ValidationError):
            T.finite_difference_check(fn, p, sample_count=0)

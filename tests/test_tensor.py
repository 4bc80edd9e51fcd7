"""Tensor core: primitive gradients, backward semantics, and error contracts."""

import math

import numpy as np
import pytest

from kgfuse import tensor as T
from kgfuse.config import Config
from kgfuse.data import generate_corpus
from kgfuse.errors import NumericsError, ValidationError
from kgfuse.model import build_model

from helpers import (attention_node, fd_input_grad, graph_nodes, layer_norm_node,
                     log_sigmoid, reference_attention, reference_layer_norm,
                     reference_locate, reference_log_sigmoid, reference_transformer_block,
                     scalar_gelu, segment_sum, softmax)


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
        (log_sigmoid, False), (T.gelu, False),
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
            lambda t: T.tensor_sum(T.power(layer_norm_node(t, gain, bias), 2.0)),
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


def _block_inputs(shape, heads, masked, seed, ff=12):
    """The 13 trainable leaves of a random transformer_block problem, x and
    the attention weights of ``_attention_inputs`` first, and its key mask."""
    leaves, valid, _ = _attention_inputs(shape, heads, masked, seed)
    rng = np.random.default_rng(seed + 1000)
    d = shape[-1]
    leaves += [T.Tensor(rng.standard_normal(s), requires_grad=True)
               for s in ((d,), (d,), (d, ff), (ff,), (ff, d), (d,), (d,), (d,))]
    return leaves, valid


class TestTransformerKernels:
    """The forwards of LayerNorm and attention that the transformer block
    composes, each as the one node it once was, take the composed chain's
    float steps in its order; GELU's cubic in Horner form agrees with the
    scalar formula."""

    @pytest.mark.parametrize("shape,heads,masked", [
        ((5, 8), 2, False),          # one sequence
        ((3, 6, 8), 4, False),       # a batch
        ((3, 6, 8), 2, True),        # a padded batch
        ((2, 3, 5, 4), 1, True),     # two batch axes, one head
    ])
    def test_attention_equals_composed_chain(self, shape, heads, masked):
        leaves, valid, scale = _attention_inputs(shape, heads, masked, len(shape) + heads)
        probe = T.constant(np.random.default_rng(heads).standard_normal(shape))
        out = attention_node(*leaves, valid)
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
            lambda: T.tensor_sum(T.mul(attention_node(x, *weights, valid), probe)),
            params, eps=1e-5, sample_count=params.flat_size(), seed=0)
        assert err < 1e-6

    def test_attention_overflow_names_the_node(self):
        leaves, _ = _block_inputs((4, 6), 2, False, 42)
        leaves[0].data[0] = 1e160   # finite projections, logits beyond float64
        with pytest.raises(NumericsError, match="'transformer_block', in its attention logits"):
            T.transformer_block(*leaves, None)

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
            attention_node(*inputs, None)

    def test_attention_rejects_a_wrong_shape_mask(self):
        # The last mask has the right shape but is an additive float mask,
        # not a boolean one.
        inputs, valid, _ = _attention_inputs((3, 4, 6), 2, True, 44)
        for bad in (valid[0], valid[..., None], np.zeros((3, 5), dtype=bool),
                    np.where(valid, 0.0, -1e30)):
            with pytest.raises(ValidationError, match="attention shapes.*valid_mask"):
                attention_node(*inputs, bad)

    @pytest.mark.parametrize("shape", [(3, 7), (2, 5, 8), (2, 3, 4, 6)])
    def test_layer_norm_equals_composed_chain(self, shape):
        rng = np.random.default_rng(len(shape))
        values = rng.standard_normal(shape) * 3.0 + 1.5
        values[(0,) * (len(shape) - 1)] = 3.7   # one constant row
        x = T.Tensor(values, requires_grad=True)
        gain = T.Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
        bias = T.Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
        probe = T.constant(rng.standard_normal(shape))
        out = layer_norm_node(x, gain, bias)
        ref = reference_layer_norm(x, gain, bias)
        assert out.data.tobytes() == ref.data.tobytes()
        assert out.op == "layer_norm"
        assert [id(p) for p in out._parents] == [id(x), id(gain), id(bias)]
        got = T.backward(T.tensor_sum(T.mul(out, probe)))
        want = T.backward(T.tensor_sum(T.mul(ref, probe)))
        for leaf in (x, gain, bias):
            np.testing.assert_allclose(got[leaf], want[leaf], rtol=0, atol=1e-12)

    def test_gelu_gradient_stays_finite_past_overflow(self):
        # x * x overflows below about -1.3e154, where 1 - tanh^2 is 0.
        x = T.Tensor([-1e200, -1e100, -1e150, 1e200, 3.0], requires_grad=True)
        out = T.gelu(x)
        grad = T.backward(T.tensor_sum(out))[x]
        assert out.data[:2].tolist() == [0.0, 0.0] and out.data[3] == 1e200
        assert grad[:4].tolist() == [0.0, 0.0, 0.0, 1.0]
        # Below the cap the gradient is bitwise the uncapped formula's.
        xs = np.concatenate([np.linspace(-60.0, 60.0, 10_001), [-1e149, 1e149, 1e-300]])
        g = np.random.default_rng(37).standard_normal(xs.shape)
        with np.errstate(over="ignore"):
            t = np.tanh(math.sqrt(2.0 / math.pi) * xs * (1.0 + 0.044715 * (xs * xs)))
        want = g * (0.5 * (1.0 + t) + 0.5 * xs * (1.0 - t * t) * (
            math.sqrt(2.0 / math.pi) * (1.0 + 3.0 * 0.044715 * (xs * xs))))
        assert T.gelu(T.Tensor(xs, requires_grad=True))._vjp(g)[0].tobytes() == want.tobytes()

    def test_gelu_matches_scalar_formula(self):
        xs = np.concatenate([np.linspace(-12.0, 12.0, 4801), [0.0, -0.0, 50.0, -50.0]])
        got = T.gelu(T.Tensor(xs)).data
        want = np.array([scalar_gelu(v) for v in xs])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestTransformerBlock:
    """One node per layer, bitwise equal in its value and in every gradient
    to the ten-node chain of attention, add, LayerNorm, matmul, add, GELU,
    matmul, add, add and LayerNorm that it replaced."""

    @pytest.mark.parametrize("shape,heads,masked", [
        ((5, 8), 2, False),          # one sequence
        ((5, 8), 4, True),           # one padded sequence
        ((3, 6, 8), 2, False),       # a batch
        ((3, 6, 8), 4, True),        # a padded batch
    ])
    def test_equals_the_ten_node_chain(self, shape, heads, masked):
        leaves, valid = _block_inputs(shape, heads, masked, 50 + len(shape) + heads)
        probe = T.constant(np.random.default_rng(heads).standard_normal(shape))
        out = T.transformer_block(*leaves, valid)
        ref = reference_transformer_block(*leaves, valid)
        assert out.data.tobytes() == ref.data.tobytes()
        assert out.op == "transformer_block"
        assert [id(p) for p in out._parents] == [id(leaf) for leaf in leaves]
        assert len(graph_nodes(ref)) - len(leaves) == 10
        got = T.backward(T.tensor_sum(T.mul(out, probe)))
        want = T.backward(T.tensor_sum(T.mul(ref, probe)))
        assert set(got) == set(want) == set(leaves)
        for i, leaf in enumerate(leaves):
            assert np.array_equal(got[leaf], want[leaf]), i
            assert got[leaf].tobytes() == want[leaf].tobytes(), i

    def test_passes_finite_differences(self):
        leaves, valid = _block_inputs((2, 4, 6), 3, True, 60, ff=5)
        params = T.Parameters()
        for i, leaf in enumerate(leaves):
            params.add(str(i), leaf)
        probe = T.constant(np.random.default_rng(61).standard_normal((2, 4, 6)))
        err = T.finite_difference_check(
            lambda: T.tensor_sum(T.mul(T.transformer_block(*leaves, valid), probe)),
            params, eps=1e-5, sample_count=params.flat_size(), seed=0)
        assert err < 1e-5

    def test_feed_forward_overflow_names_the_node(self):
        leaves, _ = _block_inputs((4, 6), 2, False, 62)
        leaves[9].data[...] = 1e308   # ff_w2: the second product overflows
        with pytest.raises(NumericsError, match="primitive 'transformer_block'$"):
            T.transformer_block(*leaves, None)

    @pytest.mark.parametrize("which,shape", [
        (5, (5,)),         # ln1_gain of another width
        (6, (1, 6)),       # ln1_bias with a leading axis
        (7, (5, 12)),      # ff_w1 reading another width
        (8, (11,)),        # ff_b1 unlike ff_w1's columns
        (9, (12, 5)),      # ff_w2 writing another width
        (10, (12,)),       # ff_b2 of the hidden width
        (11, ()),          # ln2_gain a scalar
        (12, (7,)),        # ln2_bias of another width
    ])
    def test_rejects_misshapen_inputs(self, which, shape):
        leaves, _ = _block_inputs((4, 6), 2, False, 63)
        leaves[which] = T.Tensor(np.ones(shape))
        with pytest.raises(ValidationError, match="transformer_block shapes"):
            T.transformer_block(*leaves, None)


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
        out = layer_norm_node(T.Tensor(np.full((2, 5), 3.7)), gain, bias).data
        np.testing.assert_array_equal(out, np.zeros((2, 5)))

    def test_sigmoid_identities(self):
        assert log_sigmoid(T.Tensor([0.0])).data[0] == -math.log(2.0)

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
        out = log_sigmoid(T.Tensor([-800.0, 800.0])).data
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
        out = log_sigmoid(t)
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
            return layer_norm_node(T.gelu(T.matmul(a, b)),
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

    def test_locate_equals_the_scan_at_every_tensors_ends(self):
        store = build_model(Config(), generate_corpus(Config()).kg).store
        # An empty tensor between two others, or last, is never located.
        for name, shape in (("empty.0", (0,)), ("scalar", ()), ("empty.1", (3, 0)),
                            ("row", (1, 2)), ("empty.2", (0, 4))):
            store.add(name, T.Tensor(np.zeros(shape)))
        start = 0
        for _, t in store.items():
            for index in {start, start + t.size - 1} if t.size else ():
                assert store.locate(index) == reference_locate(store, index), index
            start += t.size
        assert start == store.flat_size() > 20_000
        for index, message in ((-1, "negative flat index"),
                               (start, f"flat index {start} out of range")):
            with pytest.raises(ValidationError, match=message):
                reference_locate(store, index)
            with pytest.raises(ValidationError, match=message):
                store.locate(index)

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


def _graph_attention_inputs(seed, k=5, d=4, width=3, relation_rows=3):
    """The nine trainable leaves of a random graph_attention problem and its
    edges: a self edge and one random in-edge per node, sorted by dst."""
    rng = np.random.default_rng(seed)
    shapes = ((k, d), (relation_rows, d), (d, width), (width,), (2 * d, width),
              (2 * d, d), (d,), (d, d), (d,))
    leaves = [T.Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    dst = np.repeat(np.arange(k), 2)
    src = np.stack([np.arange(k), rng.integers(0, k, size=k)], axis=1).ravel()
    rel = rng.integers(0, relation_rows, size=2 * k)
    return leaves, (dst, src, rel)


class TestNoGrad:
    """Inside no_grad operations record no graph, and their values are
    bitwise the ones grad mode computes."""

    def test_nodes_made_inside_record_nothing(self):
        w = T.Tensor(np.arange(1.0, 5.0), requires_grad=True)
        with T.no_grad():
            assert not T.is_grad_enabled()
            out = T.tensor_sum(T.gelu(T.mul(w, w)))
            leaf = T.Tensor(np.ones(2), requires_grad=True)
        assert T.is_grad_enabled()
        assert not out.requires_grad and out._parents == () and out._vjp is None
        assert leaf.requires_grad   # a leaf keeps what it was made with
        assert T.backward(out) == {}
        assert T.mul(w, w).requires_grad   # grad mode records again

    def test_restores_the_mode_after_nesting_and_an_exception(self):
        with T.no_grad():
            with T.no_grad():
                assert not T.is_grad_enabled()
            assert not T.is_grad_enabled()
        assert T.is_grad_enabled()
        with pytest.raises(NumericsError):
            with T.no_grad():
                T.power(T.Tensor([1e200], requires_grad=True), 2.0)
        assert T.is_grad_enabled()

    @pytest.mark.parametrize("kernel", ["transformer_block", "graph_attention",
                                        "distmult_sampling_loss"])
    def test_values_are_bitwise_the_grad_mode_values(self, kernel):
        if kernel == "transformer_block":
            leaves, valid = _block_inputs((3, 6, 8), 2, True, 70)
            build = lambda: T.transformer_block(*leaves, valid)
        elif kernel == "graph_attention":
            leaves, edges = _graph_attention_inputs(71)
            build = lambda: T.graph_attention(*leaves, edges)
        else:
            rng = np.random.default_rng(72)
            entities = T.Tensor(rng.standard_normal((7, 4)), requires_grad=True)
            relations = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            ends, rel = rng.integers(0, 7, size=(5, 2)), rng.integers(0, 3, size=5)
            candidates, coins = rng.integers(0, 7, size=(5, 6)), rng.integers(0, 2, size=(5, 6))
            build = lambda: T.distmult_sampling_loss(entities, relations, ends, rel,
                                                     candidates, coins, 0.3)
        graded = build()
        with T.no_grad():
            bare = build()
        assert graded.requires_grad and not bare.requires_grad
        assert bare.op == graded.op == kernel
        assert bare.data.tobytes() == graded.data.tobytes()


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
        for eps in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="eps must be positive and finite"):
                T.finite_difference_check(fn, p, eps=eps)
        with pytest.raises(ValidationError):
            T.finite_difference_check(fn, p, sample_count=0)

    def test_a_nan_gradient_fails_the_check(self):
        p = T.Parameters()
        w = p.add("w", T.Tensor(np.ones(3)))

        def objective():
            # The identity, with a VJP that returns NaN.
            node = T.Tensor._result(w.data.copy(), (w,),
                                    lambda g: (np.full_like(g, np.nan),), "nan_vjp")
            return T.tensor_sum(node)

        with pytest.raises(NumericsError, match=r"gradient check non-finite at parameter w\[\d\]"):
            T.finite_difference_check(objective, p, sample_count=3, seed=0)

    def test_coordinates_run_in_ascending_flat_order(self):
        p = T.Parameters()
        w = p.add("w", T.Tensor(np.zeros(50)))
        perturbed = []

        def objective():
            if not T.is_grad_enabled():
                perturbed.extend(np.flatnonzero(w.data).tolist())
            return T.dot(w, w)

        T.finite_difference_check(objective, p, sample_count=10, seed=0)
        # Each coordinate's two evaluations, the coordinates in ascending order.
        assert perturbed[::2] == perturbed[1::2] == sorted(set(perturbed))
        assert len(perturbed) == 20

    def test_perturbed_calls_run_without_a_graph(self):
        p = T.Parameters()
        p.add("w", T.Tensor(np.arange(1.0, 4.0)))
        modes = []

        def objective():
            modes.append(T.is_grad_enabled())
            return T.dot(p["w"], p["w"])

        T.finite_difference_check(objective, p, sample_count=2, seed=0)
        assert modes == [True, False, False, False, False]
        assert T.is_grad_enabled()

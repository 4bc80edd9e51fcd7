"""Tensor core: primitive gradients, backward semantics, and error contracts."""

import math

import numpy as np
import pytest

from kgfuse import tensor as T
from kgfuse.errors import NumericsError, ValidationError

from helpers import fd_input_grad


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
        w = rng.standard_normal((4, 2))
        _check_op_gradient(lambda t: T.tensor_sum(T.matmul(t, T.constant(w))), (3, 4), 7)
        v = rng.standard_normal((5, 3))
        _check_op_gradient(lambda t: T.tensor_sum(T.matmul(T.constant(v), t)), (3, 4), 8)

    def test_transpose_reshape_narrow(self):
        _check_op_gradient(
            lambda t: T.tensor_sum(T.mul(T.transpose(t), T.transpose(t))), (3, 4), 9)
        _check_op_gradient(
            lambda t: T.tensor_sum(T.power(T.reshape(t, (2, 6)), 2.0)), (3, 4), 10)
        _check_op_gradient(lambda t: T.tensor_sum(T.mul(t[1:, :2], 3.0)), (3, 4), 11)

    def test_reductions(self):
        _check_op_gradient(lambda t: T.tensor_sum(T.power(
            T.tensor_sum(t, axis=1, keepdims=True), 2.0)), (3, 4), 12)
        _check_op_gradient(lambda t: T.tensor_sum(T.power(
            T.tensor_mean(t, axis=0), 3.0)), (3, 4), 13)

    @pytest.mark.parametrize("op,positive", [
        (T.exp, False), (T.log, True), (T.sqrt, True), (T.tanh, False),
        (T.sigmoid, False), (T.log_sigmoid, False), (T.gelu, False),
    ])
    def test_unary(self, op, positive):
        _check_op_gradient(lambda t: T.tensor_sum(T.mul(op(t), 1.7)), (3, 4),
                           seed=14, positive=positive)

    def test_softmax_log_softmax(self):
        rng = np.random.default_rng(15)
        probe = rng.standard_normal((3, 5))
        _check_op_gradient(
            lambda t: T.tensor_sum(T.mul(T.softmax(t, axis=1), T.constant(probe))),
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

    def test_take_pairs_and_padded_scatter(self):
        rows = [0, 1, 1]
        cols = [2, 0, 3]
        _check_op_gradient(
            lambda t: T.tensor_sum(T.power(T.take_pairs(t, rows, cols), 2.0)),
            (3, 4), 20)
        _check_op_gradient(
            lambda t: T.tensor_sum(T.softmax(T.pairs_to_padded(
                T.take_pairs(t, rows, cols), [0, 0, 1], [0, 1, 0], (2, 3),
                fill=-1e30), axis=1)[:, :2]), (3, 4), 21)

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


class TestScatterMatchesAddAt:
    """The gather VJPs sum into each cell in index order, exactly as np.add.at."""

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


class TestClosedForms:
    def test_softmax_symmetry(self):
        out = T.softmax(T.Tensor([0.0, 0.0, 0.0]), axis=0).data
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_softmax_rows_stochastic(self):
        rng = np.random.default_rng(29)
        out = T.softmax(T.Tensor(rng.standard_normal((6, 9)) * 20), axis=1).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_layernorm_constant_vector(self):
        gain = T.Tensor(np.ones(5))
        bias = T.Tensor(np.zeros(5))
        out = T.layer_norm(T.Tensor(np.full((2, 5), 3.7)), gain, bias).data
        np.testing.assert_array_equal(out, np.zeros((2, 5)))

    def test_sigmoid_identities(self):
        assert T.sigmoid(T.Tensor([0.0])).data[0] == 0.5
        assert T.log_sigmoid(T.Tensor([0.0])).data[0] == -math.log(2.0)

    def test_log_sigmoid_extreme_inputs_stay_finite(self):
        out = T.log_sigmoid(T.Tensor([-800.0, 800.0])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0], -800.0)


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

    def test_nonfinite_intermediate_names_primitive(self):
        with pytest.raises(NumericsError, match="exp"):
            T.exp(T.Tensor([1000.0]))
        with pytest.raises(NumericsError, match="log"):
            T.log(T.Tensor([-1.0]))

    def test_take_rows_bounds(self):
        with pytest.raises(ValidationError):
            T.take_rows(T.Tensor(np.ones((2, 2))), [0, 2])


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
        snapshot = p.copy_data()
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
        p.add("w", T.Tensor(np.array([709.0])))  # exp(709) finite, exp(710) overflows

        def objective():
            return T.tensor_sum(T.exp(p["w"]))

        with pytest.raises(NumericsError, match=r"w\[0\]"):
            T.finite_difference_check(objective, p, eps=1.0, sample_count=1, seed=0)

    def test_invalid_arguments(self):
        p = T.Parameters()
        p.add("w", T.Tensor(np.ones(2)))
        fn = lambda: T.tensor_sum(p["w"])
        with pytest.raises(ValidationError):
            T.finite_difference_check(fn, p, eps=0.0)
        with pytest.raises(ValidationError):
            T.finite_difference_check(fn, p, sample_count=0)

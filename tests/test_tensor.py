import tracemalloc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from popformer.core import EvaluationBudget, Population, evaluate
from popformer.errors import ShapeError, TapeError
from popformer.model import ModelConfig, PopulationTransformer
from popformer.nn import (
    Adam,
    Tape,
    Tensor,
    add,
    causal_mask,
    const,
    gradient_check,
    logistic,
    matmul,
    mlp_block,
    mlp_params,
    mul,
    multi_head_attention,
    attention_params,
    norm_params,
    layer_norm,
    linear,
    relu,
    scale,
    softmax,
    sub,
    sum_all,
    uniform_linear,
)
from popformer.nn.layers import LinearParams, MlpParams
from popformer.nn import tensor
from popformer.nn.tensor import _emit
from popformer.problems import make_problem
from tape_oracle import composite_attention, composite_linear, mean_all
from tape_oracle import matmul as stacked_matmul


def leaf(data):
    return Tensor(np.asarray(data, dtype=float), requires_grad=True)


def attention_leaves(p):
    return [t for lin in (p.q, p.k, p.v, p.out) for t in (lin.w, lin.b)]


class TestMatmul:
    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        out = matmul(const(np.eye(3)), const(m))
        assert np.array_equal(out.data, m)

    def test_hand_product(self):
        out = matmul(const([[1.0, 2.0], [3.0, 4.0]]), const([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_grad_of_sum_is_ones_times_bt(self):
        a = leaf(np.random.default_rng(0).normal(size=(3, 4)))
        b = const(np.random.default_rng(1).normal(size=(4, 2)))
        with Tape() as tape:
            loss = sum_all(matmul(a, b))
        tape.backward(loss)
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            matmul(const(np.zeros((2, 3))), const(np.zeros((2, 3))))
        assert "(2, 3)" in str(exc.value)

    def test_batched_3d(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(4, 2, 3)), rng.normal(size=(3, 5))
        out = matmul(const(a), const(b))
        assert np.allclose(out.data, a @ b)

    @staticmethod
    def rows_product(a, b, g):
        """The value and the gradients of ``a`` and ``b`` in ``a @ b`` for a
        2-d ``b`` and output gradient ``g``, as matmul computed them when it
        had its own rows product: a 2-d ``a`` by the last-two-axes formula,
        a stacked one with every leading row in one 2-d product."""
        if a.ndim == 2:
            return a @ b, g @ np.swapaxes(b, -1, -2), np.swapaxes(a, -1, -2) @ g
        k, m = b.shape
        rows, g_rows = a.reshape(-1, k), g.reshape(-1, m)
        return ((rows @ b).reshape(a.shape[:-1] + (m,)), (g_rows @ b.T).reshape(a.shape),
                rows.T @ g_rows)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["2d", "stacked", "stacked-2"])
    def test_two_d_right_operand_bitwise_equal_to_the_rows_product(self, lead):
        rng = np.random.default_rng(7)
        a, b = leaf(rng.normal(size=lead + (4, 5))), leaf(rng.normal(size=(5, 3)))
        g = rng.normal(size=lead + (4, 3))
        with Tape() as tape:
            out = matmul(a, b)
            loss = sum_all(mul(out, const(g)))
        tape.backward(loss)
        want = self.rows_product(a.data, b.data, g)
        for got, expected in zip((out.data, a.grad, b.grad), want):
            assert np.array_equal(got, expected)

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        a = leaf(rng.normal(size=(3, 4)))
        b = leaf(rng.normal(size=(4, 2)))
        report = gradient_check(lambda: sum_all(mul(matmul(a, b), matmul(a, b))), [a, b])
        assert report["max_rel_err"] <= 1e-6


class TestElementwise:
    def test_add_sub_mul_reject_unequal_shapes(self):
        # no elementwise rule broadcasts; a bias is linear's to add
        for op in (add, sub, mul):
            with pytest.raises(ShapeError, match=r"\(5, 3\) and \(3,\)"):
                op(leaf(np.zeros((5, 3))), leaf(np.zeros(3)))

    def test_relu_negative_region_zero_gradient(self):
        x = leaf([-1.0, -0.5, 0.5, 2.0])
        with Tape() as tape:
            loss = sum_all(relu(x))
        tape.backward(loss)
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])

    def test_logistic_range_and_grad(self):
        x = leaf([-800.0, 0.0, 800.0])
        out = logistic(x)
        assert np.allclose(out.data, [0.0, 0.5, 1.0])
        report = gradient_check(lambda: sum_all(logistic(leafed)), [leafed := leaf([0.3, -1.2])])
        assert report["max_rel_err"] <= 1e-6

    def test_logistic_bitwise_equal_to_three_exp_form(self):
        x = np.concatenate([[-800.0, -0.0, 0.0, 800.0, 1e-300, -1e-300],
                            np.random.default_rng(4).normal(scale=30.0, size=500)])
        want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        assert np.array_equal(logistic(const(x)).data, want)
        assert np.array_equal(logistic(x), want)

    def test_fd_on_mixed_expression(self):
        rng = np.random.default_rng(5)
        a = leaf(rng.normal(size=(4, 3)))
        b = leaf(rng.normal(size=(4, 3)))

        def loss():
            return mean_all(mul(sub(a, b), relu(add(a, b))))

        assert gradient_check(loss, [a, b])["max_rel_err"] <= 1e-6


class TestPlainArrays:
    """One-operand primitives take a plain ndarray and return the plain
    array their Tensor form computes, recording nothing."""

    @pytest.mark.parametrize("op", [
        relu, logistic, softmax, lambda a: softmax(a, mask=causal_mask(4)),
        lambda a: scale(a, -2.5), lambda a: layer_norm(a, norm_params(4)),
    ], ids=["relu", "logistic", "softmax", "masked-softmax", "scale", "layer_norm"])
    def test_same_values_and_no_tape(self, op):
        x = np.random.default_rng(0).normal(size=(4, 4))
        want = op(leaf(x)).data
        with Tape() as tape:
            got = op(x)
        assert type(got) is np.ndarray and np.array_equal(got, want)
        assert len(tape) == 0

    def test_blocks_run_on_plain_arrays(self):
        rng = np.random.default_rng(1)
        attn, mlp = attention_params(rng, 8), mlp_params(rng, 8, 32)
        x = rng.normal(size=(5, 8))

        def blocks(a):
            return mlp_block(multi_head_attention(a, a, a, attn, 2, mask=causal_mask(5)), mlp)

        want = blocks(const(x)).data
        with Tape() as tape:
            got = blocks(x)
        assert type(got) is np.ndarray and np.array_equal(got, want)
        assert len(tape) == 0

    @pytest.mark.parametrize("plain", [True, False], ids=["array", "tensor"])
    def test_products_with_and_without_bias(self, plain):
        rng = np.random.default_rng(3)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
        operand = x if plain else const(x)
        for got, want in ((matmul(operand, const(w)), x @ w),
                          (tensor.linear(operand, const(w)), x @ w),
                          (tensor.linear(operand, const(w), const(b)), x @ w + b)):
            assert type(got) is (np.ndarray if plain else Tensor)
            assert np.array_equal(got if plain else got.data, want)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = softmax(const([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_large_logits_no_overflow(self):
        out = softmax(const([1000.0, 0.0]))
        assert np.allclose(out.data, [1.0, 0.0])

    def test_mask_hides_position(self):
        out = softmax(const([1.0, 1.0, 1.0]), mask=np.array([True, True, False]))
        assert np.allclose(out.data, [0.5, 0.5, 0.0])

    def test_fully_masked_row_zeros_and_warns(self):
        with pytest.warns(RuntimeWarning):
            out = softmax(const([[1.0, 2.0]]), mask=np.array([[False, False]]))
        assert np.array_equal(out.data, [[0.0, 0.0]])

    @pytest.mark.parametrize("row", [[1.0, np.inf], [-np.inf, -np.inf]],
                             ids=["plus-inf", "all-minus-inf"])
    def test_unmasked_non_finite_row_is_nan_without_warning(self, row):
        # the fully-masked guard runs only under a mask
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            out = softmax(const([row, [1.0, 2.0]]))
        assert np.isnan(out.data[0]).all()
        assert np.array_equal(out.data[1], softmax(const([1.0, 2.0])).data)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax(const(rng.normal(size=(20, 7)) * 10))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_masked_rows_sum_to_one_over_unmasked(self):
        rng = np.random.default_rng(1)
        mask = rng.random((10, 6)) > 0.4
        mask[:, 0] = True
        out = softmax(const(rng.normal(size=(10, 6))), mask=mask)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out.data[~mask] == 0.0)

    def test_finite_differences(self):
        x = leaf(np.random.default_rng(2).normal(size=(3, 4)))
        w = const(np.random.default_rng(3).normal(size=(3, 4)))

        def loss():
            return sum_all(mul(softmax(x), w))

        assert gradient_check(loss, [x])["max_rel_err"] <= 1e-6

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_factor_is_scale_then_softmax_bitwise(self, masked):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(2, 3, 5, 5)) * 4.0
        probe = const(rng.normal(size=scores.shape))
        mask = causal_mask(5) if masked else None
        factor = 1.0 / np.sqrt(7.0)

        def run(op):
            x = leaf(scores)
            with Tape() as tape:
                out = op(x)
                loss = sum_all(mul(out, probe))
            tape.backward(loss)
            return out.data, x.grad

        want = run(lambda x: softmax(scale(x, factor), mask=mask))
        got = run(lambda x: softmax(x, mask=mask, factor=factor))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.array_equal(softmax(scores, mask=mask, factor=factor), want[0])
        x = leaf(scores[0, 0])
        report = gradient_check(
            lambda: sum_all(mul(softmax(x, mask=mask, factor=factor), const(probe.data[0, 0]))),
            [x])
        assert report["max_rel_err"] <= 1e-6


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        p = norm_params(4)
        out = layer_norm(const(np.full((2, 4), 3.7)), p)
        assert np.allclose(out.data, 0.0, atol=1e-9)

    def test_row_statistics(self):
        rng = np.random.default_rng(0)
        p = norm_params(64)
        out = layer_norm(const(rng.normal(size=(10, 64)) * 5 + 2), p).data
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=1), 1.0, atol=1e-2)

    def test_shape_error(self):
        p = norm_params(3)
        with pytest.raises(ShapeError):
            layer_norm(const(np.zeros((2, 4))), p)

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        x = leaf(rng.normal(size=(4, 6)))
        p = norm_params(6)
        p.gain.data = rng.normal(size=6)
        p.bias.data = rng.normal(size=6)
        w = const(rng.normal(size=(4, 6)))

        def loss():
            return sum_all(mul(layer_norm(x, p), w))

        report = gradient_check(loss, [x, p.gain, p.bias])
        assert report["max_rel_err"] <= 1e-4


class TestAttention:
    def test_single_position_output_is_projected_value(self):
        rng = np.random.default_rng(0)
        p = attention_params(rng, 8)
        q = const(rng.normal(size=(1, 8)))
        v = const(rng.normal(size=(1, 8)))
        out = multi_head_attention(q, v, v, p, heads=2)
        want = (v.data @ p.v.w.data + p.v.b.data) @ p.out.w.data + p.out.b.data
        assert np.allclose(out.data, want)

    def test_causal_mask_blocks_future_rows(self):
        rng = np.random.default_rng(1)
        p = attention_params(rng, 8)
        x = rng.normal(size=(5, 8))
        mask = causal_mask(5)
        base = multi_head_attention(const(x), const(x), const(x), p, 2, mask=mask).data
        x2 = x.copy()
        x2[3] += 10.0  # perturb row 3; rows 0..2 must be bitwise unchanged
        pert = multi_head_attention(const(x2), const(x2), const(x2), p, 2, mask=mask).data
        assert np.array_equal(base[:3], pert[:3])
        assert not np.allclose(base[3:], pert[3:])

    def test_causal_gradient_zero_above_diagonal(self):
        rng = np.random.default_rng(2)
        p = attention_params(rng, 8)
        x = leaf(rng.normal(size=(4, 8)))
        row_pick = const(np.eye(4)[1][:, None] * np.ones((1, 8)))  # select output row 1
        with Tape() as tape:
            out = multi_head_attention(x, x, x, p, 2, mask=causal_mask(4))
            loss = sum_all(mul(out, row_pick))
        tape.backward(loss)
        assert np.all(x.grad[2:] == 0.0)  # inputs after position 1 cannot matter

    def test_full_jacobian_against_finite_differences(self):
        rng = np.random.default_rng(3)
        p = attention_params(rng, 8)
        x = leaf(rng.normal(size=(3, 8)))
        params = [x, p.q.w, p.q.b, p.k.w, p.k.b, p.v.w, p.v.b, p.out.w, p.out.b]
        w = const(rng.normal(size=(3, 8)))

        def loss():
            return sum_all(mul(multi_head_attention(x, x, x, p, 2, mask=causal_mask(3)), w))

        assert gradient_check(loss, params)["max_rel_err"] <= 1e-4

    def test_width_must_divide_heads(self):
        rng = np.random.default_rng(4)
        p = attention_params(rng, 8)
        x = const(rng.normal(size=(3, 8)))
        with pytest.raises(Exception):
            multi_head_attention(x, x, x, p, heads=3)


class TestFusedRules:
    """linear and attention are one node each, with hand-derived backward
    rules that agree with the composites and with finite differences."""

    def test_linear_finite_differences_on_stacked_rows(self):
        rng = np.random.default_rng(10)
        x = leaf(rng.normal(size=(2, 3, 5)))
        p = uniform_linear(rng, 5, 4)
        p.b.data = rng.normal(size=4)
        probe = const(rng.normal(size=(2, 3, 4)))
        report = gradient_check(lambda: sum_all(mul(linear(x, p), probe)), [x, p.w, p.b])
        assert report["max_rel_err"] <= 1e-6

    def test_linear_is_one_node_equal_to_the_composite(self):
        rng = np.random.default_rng(11)
        p = uniform_linear(rng, 5, 4)
        x = leaf(rng.normal(size=(2, 3, 5)))
        probe = const(rng.normal(size=(2, 3, 4)))
        results = []
        for op in (linear, composite_linear):
            x.grad = p.w.grad = p.b.grad = None
            with Tape() as tape:
                out = op(x, p)
                nodes = len(tape)
                loss = sum_all(mul(out, probe))
            tape.backward(loss)
            results.append((nodes, out.data, x.grad, p.w.grad, p.b.grad))
        assert (results[0][0], results[1][0]) == (1, 2)
        for got, want in zip(results[0][1:], results[1][1:]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_cross_attention_finite_differences_with_longer_memory(self):
        rng = np.random.default_rng(12)
        p = attention_params(rng, 8)
        y = leaf(rng.normal(size=(2, 3, 8)))
        memory = leaf(rng.normal(size=(2, 5, 8)))
        probe = const(rng.normal(size=(2, 3, 8)))

        def loss():
            return sum_all(mul(multi_head_attention(y, memory, memory, p, 2), probe))

        report = gradient_check(loss, [y, memory] + attention_leaves(p))
        assert report["max_rel_err"] <= 1e-4

    @pytest.mark.parametrize("case", ["self-causal", "cross-tensor-memory", "cross-plain-memory"])
    def test_values_and_gradients_match_the_composite(self, case):
        rng = np.random.default_rng(13)
        p = attention_params(rng, 8)
        for lin in (p.q, p.k, p.v, p.out):
            lin.b.data = rng.normal(size=8)
        y = leaf(rng.normal(size=(3, 4, 8)))
        mask = None
        if case == "self-causal":
            kv, mask = y, causal_mask(4)
        elif case == "cross-tensor-memory":
            kv = leaf(rng.normal(size=(3, 6, 8)))
        else:
            kv = rng.normal(size=(3, 6, 8))
        probe = const(rng.normal(size=(3, 4, 8)))
        leaves = [y] + ([kv] if isinstance(kv, Tensor) and kv is not y else []) \
            + attention_leaves(p)
        results = []
        for op in (multi_head_attention, composite_attention):
            for t in leaves:
                t.grad = None
            with Tape() as tape:
                out = op(y, kv, kv, p, 2, mask=mask)
                loss = sum_all(mul(out, probe))
            tape.backward(loss)
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            if want is None:  # a plain memory's projections are constants
                assert got is None
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert (p.k.w.grad is None) == (case == "cross-plain-memory")

    def test_attention_is_one_node(self):
        rng = np.random.default_rng(14)
        p = attention_params(rng, 8)
        x = leaf(rng.normal(size=(2, 3, 8)))
        counts = []
        for op in (multi_head_attention, composite_attention):
            with Tape() as tape:
                op(x, x, x, p, 2, mask=causal_mask(3))
            counts.append(len(tape))
        assert counts == [1, 20]

    def test_fully_masked_row_warns_and_mixes_nothing(self):
        rng = np.random.default_rng(15)
        p = attention_params(rng, 8)
        p.out.b.data = rng.normal(size=8)
        x = leaf(rng.normal(size=(3, 8)))
        mask = causal_mask(3)
        mask[1] = False
        with pytest.warns(RuntimeWarning, match="fully masked"):
            out = multi_head_attention(x, x, x, p, 2, mask=mask)
        # the row's probabilities are all zero, so only the out bias is left
        assert np.array_equal(out.data[1], p.out.b.data)

    def test_parameter_gradients_share_no_memory(self):
        # fused rules hand their fresh arrays to _accum without a copy
        problem = make_problem("zdt1", d=5)
        rng = np.random.default_rng(17)
        pops = [evaluate(Population(rng.random((6, 5))), problem, EvaluationBudget(6))
                for _ in range(4)]
        model = PopulationTransformer(
            ModelConfig(d_hat=8, m_hat=4, width=16, layers=2, heads=2, max_seq=12), seed=0)
        with Tape() as tape:
            loss = model.forced_loss([(pops[0], pops[1]), (pops[2], pops[3])], problem.spec)
        tape.backward(loss)
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, h) for h in grads[i + 1:])

    def test_default_teacher_forced_pass_records_48_nodes(self):
        # 6 in the embeddings, 8 per encoder and 10 per decoder layer, 2 in
        # the head and 4 in the loss; each node is named by the primitive
        # whose backward closure it holds
        problem = make_problem("zdt1", d=5)
        rng = np.random.default_rng(18)
        pops = [evaluate(Population(rng.random((6, 5))), problem, EvaluationBudget(6))
                for _ in range(2)]
        with Tape() as tape:
            PopulationTransformer(ModelConfig(), seed=0).forced_loss([tuple(pops)], problem.spec)
        assert len(tape) == 48
        counts = Counter(backward.__qualname__.split(".")[0] for _, backward in tape._nodes)
        assert counts == {"add": 12, "layer_norm": 8, "attention": 6, "linear": 13, "relu": 4,
                          "logistic": 1, "sub": 1, "mul": 1, "sum_all": 1, "scale": 1}


class TestStacked:
    """Leading stack axes: each stacked result equals the unstacked call on
    its slice, and tape gradients match finite differences."""

    def test_stacked_rows_times_weight(self):
        rng = np.random.default_rng(5)
        a = leaf(rng.normal(size=(3, 4, 5)))
        b = leaf(rng.normal(size=(5, 2)))
        probe = const(rng.normal(size=(3, 4, 2)))
        out = matmul(a, b).data
        for i in range(3):
            np.testing.assert_allclose(out[i], matmul(const(a.data[i]), b).data,
                                       rtol=1e-12, atol=1e-15)
        report = gradient_check(lambda: sum_all(mul(matmul(a, b), probe)), [a, b])
        assert report["max_rel_err"] <= 1e-6

    def test_stacked_heads_times_stacked_heads(self):
        rng = np.random.default_rng(6)
        q = leaf(rng.normal(size=(2, 3, 4, 2)))
        k = leaf(rng.normal(size=(2, 3, 2, 4)))
        probe = const(rng.normal(size=(2, 3, 4, 4)))
        out = stacked_matmul(q, k).data
        for i in range(2):
            np.testing.assert_allclose(out[i],
                                       stacked_matmul(const(q.data[i]), const(k.data[i])).data,
                                       rtol=1e-12, atol=1e-15)
        report = gradient_check(lambda: sum_all(mul(stacked_matmul(q, k), probe)), [q, k])
        assert report["max_rel_err"] <= 1e-6

    def test_stack_extents_must_agree(self):
        with pytest.raises(ShapeError):
            matmul(const(np.zeros((2, 3, 4))), const(np.zeros((3, 4, 5))))
        with pytest.raises(ShapeError):
            matmul(const(np.zeros((2, 3, 4))), const(np.zeros((5, 6))))

    def test_stacked_causal_attention(self):
        rng = np.random.default_rng(7)
        p = attention_params(rng, 8)
        x = leaf(rng.normal(size=(2, 3, 8)))
        mask = causal_mask(3)
        out = multi_head_attention(x, x, x, p, 2, mask=mask).data
        for i in range(2):
            xi = const(x.data[i])
            np.testing.assert_allclose(out[i], multi_head_attention(xi, xi, xi, p, 2,
                                                                    mask=mask).data,
                                       rtol=1e-12, atol=1e-15)
        w = const(rng.normal(size=(2, 3, 8)))
        params = [x, p.q.w, p.q.b, p.k.w, p.k.b, p.v.w, p.v.b, p.out.w, p.out.b]

        def loss():
            return sum_all(mul(multi_head_attention(x, x, x, p, 2, mask=mask), w))

        assert gradient_check(loss, params)["max_rel_err"] <= 1e-4

    def test_stacked_attention_inputs_must_share_stack(self):
        p = attention_params(np.random.default_rng(8), 8)
        q = const(np.zeros((2, 3, 8)))
        kv = const(np.zeros((3, 3, 8)))
        with pytest.raises(ShapeError):
            multi_head_attention(q, kv, kv, p, 2)


class TestMlp:
    def test_zero_weights_zero_output(self):
        p = MlpParams(
            inner=LinearParams(leaf(np.zeros((6, 24))), leaf(np.zeros(24))),
            outer=LinearParams(leaf(np.zeros((24, 6))), leaf(np.zeros(6))),
        )
        out = mlp_block(const(np.random.default_rng(0).normal(size=(3, 6))), p)
        assert np.array_equal(out.data, np.zeros((3, 6)))

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        p = mlp_params(rng, 6, 24)
        x = leaf(rng.normal(size=(4, 6)))

        def loss():
            return mean_all(mul(mlp_block(x, p), mlp_block(x, p)))

        params = [x, p.inner.w, p.inner.b, p.outer.w, p.outer.b]
        assert gradient_check(loss, params, max_entries=40)["max_rel_err"] <= 1e-4


class TestTape:
    def test_backward_twice_rejected(self):
        x = leaf([1.0, 2.0])
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        tape.backward(loss)
        with pytest.raises(TapeError):
            tape.backward(loss)

    def test_no_tape_no_recording(self):
        x = leaf([1.0])
        out = mul(x, x)
        assert out.requires_grad is False

    def test_scalar_loss_required(self):
        x = leaf(np.ones((2, 2)))
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_first_gradient_is_a_copy(self):
        # add hands its output's gradient on as it is; x's second gradient
        # must add to x's own buffer, not to y's
        x = leaf(np.arange(6.0).reshape(2, 3))
        v = const(np.full((2, 3), 0.5))
        w = const(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            first = sum_all(mul(x, v))
            y = add(x, const(np.zeros((2, 3))))
            loss = add(first, sum_all(mul(y, w)))
        tape.backward(loss)
        assert np.array_equal(y.grad, w.data)
        assert np.array_equal(x.grad, w.data + 0.5)

    def test_backward_releases_intermediates(self):
        rng = np.random.default_rng(0)
        x, w = leaf(rng.normal(size=(3, 4))), leaf(rng.normal(size=(4, 4)))
        with Tape() as tape:
            mid = matmul(x, w)
            gone = weakref.ref(mid.data)
            kept = relu(mid)
            loss = sum_all(mul(kept, kept))
            del mid
        tape.backward(loss)
        assert len(tape) == 0
        assert gone() is None
        # a held intermediate keeps its gradient, and leaves get theirs
        assert np.array_equal(kept.grad, 2.0 * kept.data)
        assert x.grad is not None and w.grad is not None

    def test_backward_peak_is_near_the_forward_activations(self):
        problem = make_problem("zdt1", d=8)
        rng = np.random.default_rng(1)

        def population():
            return evaluate(Population(rng.random((12, 8))), problem, EvaluationBudget(100))

        pairs = [(population(), population()) for _ in range(4)]
        model = PopulationTransformer(
            ModelConfig(d_hat=16, m_hat=4, width=16, layers=2, heads=2, max_seq=12), seed=0)
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = model.forced_loss(pairs, problem.spec)
            after_forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * after_forward

    def test_gradient_accumulates_across_reuse(self):
        x = leaf([2.0])
        with Tape() as tape:
            loss = add(sum_all(mul(x, x)), sum_all(x))  # x^2 + x
        tape.backward(loss)
        assert np.allclose(x.grad, [5.0])


class TestAdam:
    def test_zero_grad_zero_decay_is_identity(self):
        p = leaf(np.array([1.0, -2.0, 3.0]))
        before = p.data.copy()
        opt = Adam([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros_like(p.data)
        opt.step()
        assert np.array_equal(p.data, before)

    def test_first_step_is_sign_like(self):
        p = leaf(np.array([1.0, 1.0]))
        opt = Adam([p], lr=0.01, weight_decay=0.0)
        g = np.array([0.5, -3.0])
        p.grad = g.copy()
        opt.step()
        want = np.array([1.0, 1.0]) - 0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p.data, want, atol=1e-9)

    def test_weight_decay_applies_without_gradient(self):
        p = leaf(np.array([2.0]))
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        assert np.allclose(p.data, [2.0 * (1 - 0.1 * 0.5)])

    def test_quadratic_bowl_converges(self):
        rng = np.random.default_rng(0)
        w = leaf(rng.normal(size=8))
        w.data /= np.linalg.norm(w.data)  # start at norm 1
        opt = Adam([w], lr=0.01, weight_decay=0.0)
        for _ in range(500):
            w.grad = None
            with Tape() as tape:
                loss = sum_all(mul(w, w))
            tape.backward(loss)
            opt.step()
        assert np.linalg.norm(w.data) < 1e-2


class TestGradientCheckHarness:
    def test_linear_layer_tight(self):
        rng = np.random.default_rng(0)
        p = uniform_linear(rng, 5, 3)
        x = const(rng.normal(size=(4, 5)))

        def loss():
            return sum_all(linear(x, p))

        assert gradient_check(loss, [p.w, p.b])["max_rel_err"] <= 1e-6

    def test_corrupted_backward_fails_check(self):
        # a primitive whose backward rule is deliberately wrong must be caught
        x = leaf([0.5, -1.0, 2.0])

        def bad_square(t):
            out_data = t.data ** 2

            def backward(g):
                from popformer.nn.tensor import _accum
                _accum(t, g * 3.0 * t.data)  # wrong: should be 2x

            return _emit(out_data, (t,), backward)

        report = gradient_check(lambda: sum_all(bad_square(x)), [x])
        assert report["max_rel_err"] > 1e-2

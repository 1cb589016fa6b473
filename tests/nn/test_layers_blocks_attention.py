"""Tests for composite blocks, attention, embeddings, and activations."""

import numpy as np
import pytest

from repro import nn
from repro.nn.layers.attention import causal_mask, padding_mask
from tests.helpers import linear_probe_loss, max_relative_error, numerical_gradient

RNG = np.random.default_rng(11)


class TestResidual:
    def test_identity_shortcut_adds(self):
        block = nn.Residual(nn.Identity())
        x = RNG.standard_normal((2, 3)).astype(np.float32)
        np.testing.assert_allclose(block(x), 2 * x)

    def test_gradcheck_with_projection(self):
        rng = np.random.default_rng(0)
        block = nn.Residual(
            nn.Sequential(nn.Linear(4, 4, rng=rng), nn.Tanh()),
            nn.Linear(4, 4, rng=rng),
        )
        x = RNG.standard_normal((3, 4)).astype(np.float32)
        probe = RNG.standard_normal((3, 4)).astype(np.float32)
        block.forward(x)
        grad_in = block.backward(probe)
        loss = linear_probe_loss(block, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 1e-2

    def test_shape_mismatch_raises(self):
        block = nn.Residual(nn.Linear(4, 3, rng=np.random.default_rng(0)))
        with pytest.raises(ValueError):
            block(np.zeros((2, 4), dtype=np.float32))


class TestConcatBranches:
    def test_concatenates_on_channels(self):
        rng = np.random.default_rng(1)
        block = nn.ConcatBranches(
            [nn.Conv2d(2, 3, 1, rng=rng), nn.Conv2d(2, 5, 1, rng=rng)]
        )
        x = RNG.standard_normal((2, 2, 4, 4)).astype(np.float32)
        assert block(x).shape == (2, 8, 4, 4)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        block = nn.ConcatBranches(
            [nn.Conv2d(2, 2, 1, rng=rng), nn.Conv2d(2, 3, 3, padding=1, rng=rng)]
        )
        x = RNG.standard_normal((1, 2, 4, 4)).astype(np.float32)
        out = block.forward(x)
        probe = RNG.standard_normal(out.shape).astype(np.float32)
        block.forward(x)
        grad_in = block.backward(probe)
        loss = linear_probe_loss(block, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 2e-2

    def test_empty_branches_rejected(self):
        with pytest.raises(ValueError):
            nn.ConcatBranches([])


class TestDenseConcat:
    def test_output_prepends_input(self):
        rng = np.random.default_rng(3)
        block = nn.DenseConcat(nn.Conv2d(2, 3, 3, padding=1, rng=rng))
        x = RNG.standard_normal((1, 2, 4, 4)).astype(np.float32)
        out = block(x)
        assert out.shape == (1, 5, 4, 4)
        np.testing.assert_array_equal(out[:, :2], x)

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        block = nn.DenseConcat(nn.Conv2d(2, 2, 1, rng=rng))
        x = RNG.standard_normal((2, 2, 3, 3)).astype(np.float32)
        out = block.forward(x)
        probe = RNG.standard_normal(out.shape).astype(np.float32)
        block.forward(x)
        grad_in = block.backward(probe)
        loss = linear_probe_loss(block, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 2e-2


class TestActivations:
    @pytest.mark.parametrize(
        "layer", [nn.ReLU(), nn.ReLU6(), nn.Sigmoid(), nn.Tanh()]
    )
    def test_gradcheck(self, layer):
        x = RNG.standard_normal((3, 5)).astype(np.float32)
        probe = RNG.standard_normal((3, 5)).astype(np.float32)
        layer.forward(x)
        grad_in = layer.backward(probe)
        loss = linear_probe_loss(layer, x, probe)
        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 2e-2

    def test_relu6_clips(self):
        out = nn.ReLU6()(np.array([-1.0, 3.0, 9.0], dtype=np.float32))
        np.testing.assert_array_equal(out, [0.0, 3.0, 6.0])

    # (layer factory, the per-element select each one is defined by:
    # forward(x) and backward(x, g)).
    PIECEWISE = {
        "relu": (
            nn.ReLU,
            lambda x: np.where(x > 0.0, x, 0.0),
            lambda x, g: np.where(x > 0.0, g, 0.0),
        ),
        "relu6": (
            nn.ReLU6,
            lambda x: np.clip(x, 0.0, 6.0),
            lambda x, g: np.where((x > 0.0) & (x < 6.0), g, 0.0),
        ),
    }

    @pytest.mark.parametrize("name", PIECEWISE)
    def test_piecewise_linear_is_arithmetic_with_one_semantics(self, name):
        """The arithmetic forms equal the select they replaced (atol 0)
        on finite input, and both gradient modes run one expression:
        bitwise-equal outputs, signed zeros and NaN included — a diverged
        activation is as loud in a BP batch as in a GP one."""
        factory, forward, backward = self.PIECEWISE[name]
        x = (RNG.standard_normal((6, 40)) * 4.0).astype(np.float32)
        g = RNG.standard_normal(x.shape).astype(np.float32)
        x[0, :4] = [0.0, -0.0, 6.0, -6.0]
        layer = factory()
        out = layer(x)
        np.testing.assert_array_equal(out, forward(x))
        grad = layer.backward(g)
        assert grad.dtype == np.float32
        np.testing.assert_array_equal(grad, backward(x, g))

        x[1, 0] = np.nan
        with_grad = factory()(x)
        with nn.no_grad():
            without = factory()(x)
        assert np.isnan(with_grad[1, 0]) and np.isnan(without[1, 0])
        assert with_grad.tobytes() == without.tobytes()


class TestAttention:
    def test_self_attention_shape(self):
        mha = nn.MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        x = RNG.standard_normal((2, 5, 8)).astype(np.float32)
        assert mha.attend(x, x, x).shape == (2, 5, 8)

    def test_rejects_bad_head_split(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(7, 2)

    def test_causal_mask_blocks_future(self):
        mha = nn.MultiHeadAttention(4, 1, rng=np.random.default_rng(1))
        x = RNG.standard_normal((1, 4, 4)).astype(np.float32)
        mask = causal_mask(4)
        mha.attend(x, x, x, mask)
        _q, _k, _v, attn, _scale = mha._saved
        # Upper triangle (future positions) must carry ~zero weight.
        assert attn[0, 0][np.triu_indices(4, k=1)].max() < 1e-6

    def test_padding_mask_shape_and_values(self):
        ids = np.array([[5, 6, 0, 0]])
        mask = padding_mask(ids, pad_id=0)
        assert mask.shape == (1, 1, 1, 4)
        np.testing.assert_array_equal(mask[0, 0, 0], [1, 1, 0, 0])

    def test_gradcheck_self_attention(self):
        mha = nn.MultiHeadAttention(6, 3, rng=np.random.default_rng(2))
        x = RNG.standard_normal((2, 4, 6)).astype(np.float32)
        out = mha.attend(x, x, x)
        probe = RNG.standard_normal(out.shape).astype(np.float32)
        mha.attend(x, x, x)
        d_q, d_k, d_v = mha.backward_attend(probe)
        grad_in = d_q + d_k + d_v

        def loss() -> float:
            return float((mha.attend(x, x, x) * probe).sum())

        assert max_relative_error(grad_in, numerical_gradient(loss, x)) < 2e-2

    def test_backward_attend_gradcheck_per_input(self):
        """FD-check d_query, d_key and d_value independently."""
        mha = nn.MultiHeadAttention(4, 2, rng=np.random.default_rng(5))
        rng = np.random.default_rng(6)
        q = rng.standard_normal((2, 3, 4)).astype(np.float32)
        k = rng.standard_normal((2, 3, 4)).astype(np.float32)
        v = rng.standard_normal((2, 3, 4)).astype(np.float32)
        probe = rng.standard_normal((2, 3, 4)).astype(np.float32)
        mha.attend(q, k, v)
        d_q, d_k, d_v = mha.backward_attend(probe)

        def loss() -> float:
            return float((mha.attend(q, k, v) * probe).sum())

        for analytic, array in ((d_q, q), (d_k, k), (d_v, v)):
            assert max_relative_error(analytic, numerical_gradient(loss, array)) < 2e-2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_input_dtype_forward_and_backward(self, dtype):
        """The 1/sqrt(head_dim) scale is a Python float, which NEP 50
        treats as weak: float32 stays float32 (bit-identical to an
        explicit ``np.float32`` scale) and float64 gradchecks stay
        float64 (DESIGN.md §1, dtype policy)."""
        mha = nn.MultiHeadAttention(8, 2, rng=np.random.default_rng(7))
        rng = np.random.default_rng(8)
        q, k, v = (rng.standard_normal((2, 3, 8)).astype(dtype) for _ in range(3))
        mask = causal_mask(3)
        out = mha.attend(q, k, v, mask)
        saved_q, saved_k, saved_v, attn, scale = mha._saved
        grads = mha.backward_attend(rng.standard_normal(out.shape).astype(dtype))
        arrays = (out, saved_q, saved_k, saved_v, attn, *grads)
        assert [a.dtype for a in arrays] == [np.dtype(dtype)] * len(arrays)
        if dtype is np.float32:
            scores = nn.backend.current_backend().attn_scores(saved_q, saved_k)
            scores = np.where(mask.astype(bool), scores * np.float32(scale), np.float32(-1e9))
            assert attn.tobytes() == nn.functional.softmax(scores, axis=-1).tobytes()

    def test_default_rng_projections_differ(self):
        """Regression: q/k/v/out built without an rng must not collide.

        Before the per-layer seed-sequence policy, every Linear defaulted
        to a fresh ``default_rng(0)``, making all four projections
        bit-identical.
        """
        mha = nn.MultiHeadAttention(8, 2)
        weights = [
            mha.q_proj.weight.data,
            mha.k_proj.weight.data,
            mha.v_proj.weight.data,
            mha.out_proj.weight.data,
        ]
        for i in range(len(weights)):
            for j in range(i + 1, len(weights)):
                assert not np.array_equal(weights[i], weights[j])

    def test_gradcheck_cross_attention_memory(self):
        mha = nn.MultiHeadAttention(4, 2, rng=np.random.default_rng(3))
        q = RNG.standard_normal((1, 3, 4)).astype(np.float32)
        memory = RNG.standard_normal((1, 5, 4)).astype(np.float32)
        out = mha.attend(q, memory, memory)
        probe = RNG.standard_normal(out.shape).astype(np.float32)
        mha.attend(q, memory, memory)
        _d_q, d_k, d_v = mha.backward_attend(probe)
        grad_memory = d_k + d_v

        def loss() -> float:
            return float((mha.attend(q, memory, memory) * probe).sum())

        assert max_relative_error(grad_memory, numerical_gradient(loss, memory)) < 2e-2


class TestEmbedding:
    def test_lookup(self):
        emb = nn.Embedding(10, 4, rng=np.random.default_rng(0))
        ids = np.array([[1, 2], [3, 1]])
        out = emb(ids)
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out[0, 0], emb.weight.data[1])

    def test_backward_scatters_gradients(self):
        emb = nn.Embedding(5, 3, rng=np.random.default_rng(1))
        ids = np.array([[0, 0, 2]])
        emb(ids)
        grad = np.ones((1, 3, 3), dtype=np.float32)
        emb.backward(grad)
        np.testing.assert_allclose(emb.weight.grad[0], 2.0)  # id 0 used twice
        np.testing.assert_allclose(emb.weight.grad[2], 1.0)
        np.testing.assert_allclose(emb.weight.grad[1], 0.0)

    def test_out_of_range_rejected(self):
        emb = nn.Embedding(5, 3)
        with pytest.raises(ValueError):
            emb(np.array([[7]]))

    def test_positional_encoding_adds_fixed_table(self):
        pe = nn.PositionalEncoding(8, max_len=16)
        x = np.zeros((1, 4, 8), dtype=np.float32)
        out = pe(x)
        np.testing.assert_array_equal(out[0], pe.table[:4])
        with pytest.raises(ValueError):
            pe(np.zeros((1, 17, 8), dtype=np.float32))

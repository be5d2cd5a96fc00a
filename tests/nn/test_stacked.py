"""Tests for stacked (multi-copy) layers, losses, and StackedModel.

Every stacked kernel is gradient-checked against finite differences, and
checked copy-by-copy against its serial counterpart — the per-copy
equivalence the vectorized cohort trainer builds on.
"""

import numpy as np
import pytest

from repro.nn import (
    LSTM,
    Conv2D,
    Embedding,
    Flatten,
    Linear,
    MaxPool2D,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    StackedConv2D,
    StackedEmbedding,
    StackedFlatten,
    StackedLSTM,
    StackedLSTMCell,
    StackedLinear,
    StackedMaxPool2D,
    StackedModel,
    StackedReLU,
    StackedSigmoid,
    StackedTanh,
    Tanh,
    get_flat_grads,
    get_flat_params,
    gradcheck_module,
    log_softmax,
    make_cnn,
    make_lstm_lm,
    make_mlp,
    mse_loss,
    numerical_gradient,
    sequence_cross_entropy,
    set_flat_params,
    softmax,
    softmax_cross_entropy,
    stack_signature,
    stacked_mse,
    stacked_sequence_cross_entropy,
    stacked_softmax_cross_entropy,
    supports_stacking,
)

C, B = 3, 4  # copies, batch


def assert_same_bits(a, b):
    """Bit-for-bit equality; NaNs must sit at the same positions (their
    sign bit is not part of the contract)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    bits = np.dtype(f"u{a.dtype.itemsize}")
    assert np.array_equal(a[~nan].view(bits), b[~nan].view(bits))


@pytest.fixture(autouse=True)
def _float64_reference(monkeypatch):
    """Gradchecks and copy-by-copy serial comparisons assume the float64
    reference dtype: an ambient REPRO_DTYPE=float32 (the CI float32 leg)
    would narrow the stacked kernels while the serial layers stay
    float64. float32 coverage lives in tests/fl/test_float32.py."""
    from repro.nn.stacked import DTYPE_ENV

    monkeypatch.delenv(DTYPE_ENV, raising=False)


def stacked_linear(rng, d_in=5, d_out=4, n=C):
    return StackedLinear(rng.normal(size=(n, d_in, d_out)), rng.normal(size=(n, d_out)))


class TestStackedLayerGradchecks:
    def test_linear(self, rng):
        layer = stacked_linear(rng)
        gradcheck_module(layer, rng.normal(size=(C, B, 5)))

    def test_linear_no_bias(self, rng):
        layer = StackedLinear(rng.normal(size=(C, 5, 4)), None)
        gradcheck_module(layer, rng.normal(size=(C, B, 5)))

    def test_conv(self, rng):
        layer = StackedConv2D(
            rng.normal(size=(C, 3, 2, 3, 3)), rng.normal(size=(C, 3)), stride=1, pad=1
        )
        gradcheck_module(layer, rng.normal(size=(C, 2, 2, 4, 4)))

    def test_maxpool(self, rng):
        gradcheck_module(StackedMaxPool2D(2), rng.normal(size=(C, 2, 2, 4, 4)))

    def test_flatten(self, rng):
        gradcheck_module(StackedFlatten(), rng.normal(size=(C, B, 2, 3)))

    def test_activations(self, rng):
        for layer in (StackedReLU(), StackedTanh(), StackedSigmoid()):
            gradcheck_module(layer, rng.normal(size=(C, B, 6)))

    def test_stacked_mlp_model(self, rng):
        model = StackedModel(make_mlp(5, 3, hidden=(6,), rng=rng), C)
        gradcheck_module(model, rng.normal(size=(C, B, 5)))

    def test_stacked_cnn_model(self, rng):
        model = StackedModel(make_cnn(4, 1, 3, channels=(2, 3), rng=rng), C)
        gradcheck_module(model, rng.normal(size=(C, 2, 1, 4, 4)))


class TestStackedLossGradchecks:
    """Losses gradient-checked through random per-copy loss weights, with
    and without ragged-padding masks."""

    def ragged_mask(self, rng):
        # At least one real row per copy; at least one padded row somewhere.
        mask = (rng.random((C, B)) < 0.7).astype(np.float64)
        mask[:, 0] = 1.0
        mask[0, -1] = 0.0
        return mask

    def check_ce(self, rng, mask):
        labels = rng.integers(0, 5, size=(C, B))
        copy_w = rng.normal(size=C)
        logits = rng.normal(size=(C, B, 5))
        losses, dlogits = stacked_softmax_cross_entropy(logits.copy(), labels, mask)

        def objective(lg):
            ls, _ = stacked_softmax_cross_entropy(lg, labels, mask)
            return float((ls * copy_w).sum())

        numeric = numerical_gradient(objective, logits.copy())
        analytic = dlogits * copy_w[:, None, None]
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_cross_entropy_unmasked(self, rng):
        self.check_ce(rng, None)

    def test_cross_entropy_ragged_mask(self, rng):
        self.check_ce(rng, self.ragged_mask(rng))

    def check_mse(self, rng, mask):
        targets = rng.normal(size=(C, B, 3))
        copy_w = rng.normal(size=C)
        preds = rng.normal(size=(C, B, 3))
        losses, dpreds = stacked_mse(preds.copy(), targets, mask)

        def objective(p):
            ls, _ = stacked_mse(p, targets, mask)
            return float((ls * copy_w).sum())

        numeric = numerical_gradient(objective, preds.copy())
        np.testing.assert_allclose(dpreds * copy_w[:, None, None], numeric, rtol=1e-5, atol=1e-7)

    def test_mse_unmasked(self, rng):
        self.check_mse(rng, None)

    def test_mse_ragged_mask(self, rng):
        self.check_mse(rng, self.ragged_mask(rng))

    def test_masked_rows_get_zero_gradient(self, rng):
        mask = self.ragged_mask(rng)
        labels = rng.integers(0, 5, size=(C, B))
        _, dlogits = stacked_softmax_cross_entropy(rng.normal(size=(C, B, 5)), labels, mask)
        assert np.all(dlogits[mask == 0.0] == 0.0)

    def test_mask_excluding_a_copy_rejected(self, rng):
        mask = np.ones((C, B))
        mask[1] = 0.0
        with pytest.raises(ValueError):
            stacked_softmax_cross_entropy(rng.normal(size=(C, B, 5)), np.zeros((C, B), int), mask)


class TestSerialEquivalence:
    """Copy c of a stacked op must reproduce the serial op bit-for-bit."""

    def test_linear_matches_serial(self, rng):
        layer = stacked_linear(rng)
        x = rng.normal(size=(C, B, 5))
        y = layer.forward(x)
        dy = rng.normal(size=y.shape)
        dx = layer.backward(dy)
        for c in range(C):
            serial = Linear(5, 4, rng)
            serial.weight.data[...] = layer.weight.data[c]
            serial.bias.data[...] = layer.bias.data[c]
            ys = serial.forward(x[c])
            dxs = serial.backward(dy[c])
            assert np.array_equal(y[c], ys)
            assert np.array_equal(dx[c], dxs)
            assert np.array_equal(layer.weight.grad[c], serial.weight.grad)
            assert np.array_equal(layer.bias.grad[c], serial.bias.grad)

    def test_ce_matches_serial_per_copy(self, rng):
        logits = rng.normal(size=(C, B, 5), scale=10.0)
        labels = rng.integers(0, 5, size=(C, B))
        losses, dlogits = stacked_softmax_cross_entropy(logits, labels)
        for c in range(C):
            loss_s, d_s = softmax_cross_entropy(logits[c], labels[c])
            assert_same_bits(losses[c], loss_s)
            assert_same_bits(dlogits[c], d_s)

    def test_masked_ce_matches_serial_helpers_bitwise(self, rng):
        # No serial loss takes a row mask; the reference is the masked
        # formula over the serial log_softmax/softmax helpers.
        logits = rng.normal(size=(C, B, 5), scale=10.0)
        labels = rng.integers(0, 5, size=(C, B))
        mask = (rng.random((C, B)) < 0.6).astype(np.float64)
        mask[:, 0] = 1.0
        losses, dlogits = stacked_softmax_cross_entropy(logits, labels, mask)
        rows = np.arange(B)
        for c in range(C):
            count = mask[c].sum()
            nll = -log_softmax(logits[c], axis=1)[rows, labels[c]]
            d_s = softmax(logits[c], axis=1)
            d_s[rows, labels[c]] -= 1.0
            d_s *= (mask[c] / count)[:, None]
            assert_same_bits(losses[c], (nll * mask[c]).sum() / count)
            assert_same_bits(dlogits[c], d_s)

    def test_masked_ce_matches_serial_on_real_rows(self, rng):
        b_real = 2
        logits = rng.normal(size=(C, B, 5))
        labels = rng.integers(0, 5, size=(C, B))
        mask = np.zeros((C, B))
        mask[:, :b_real] = 1.0
        losses, dlogits = stacked_softmax_cross_entropy(logits, labels, mask)
        for c in range(C):
            loss_s, d_s = softmax_cross_entropy(logits[c, :b_real], labels[c, :b_real])
            assert losses[c] == pytest.approx(loss_s, rel=1e-14, abs=1e-15)
            np.testing.assert_allclose(dlogits[c, :b_real], d_s, rtol=1e-14, atol=1e-18)
            assert np.all(dlogits[c, b_real:] == 0.0)

    def test_mse_matches_serial_per_copy(self, rng):
        preds = rng.normal(size=(C, B, 3))
        targets = rng.normal(size=(C, B, 3))
        losses, dpreds = stacked_mse(preds, targets)
        for c in range(C):
            loss_s, d_s = mse_loss(preds[c], targets[c])
            assert losses[c] == pytest.approx(loss_s, rel=1e-14)
            np.testing.assert_allclose(dpreds[c], d_s, rtol=1e-14, atol=1e-18)

    def test_stacked_model_forward_matches_serial(self, rng):
        template = make_cnn(4, 1, 3, channels=(2, 3), rng=rng)
        model = StackedModel(template, C)
        # Give each copy distinct parameters.
        slab = rng.normal(size=model.slab.shape, scale=0.3)
        model.set_slab(slab)
        x = rng.normal(size=(C, 2, 1, 4, 4))
        y = model.forward(x)
        for c in range(C):
            set_flat_params(template, slab[c])
            assert np.array_equal(y[c], template.forward(x[c]))


class TestStackedModel:
    def test_set_flat_broadcasts(self, rng):
        template = make_mlp(5, 3, hidden=(6,), rng=rng)
        model = StackedModel(template, C)
        flat = get_flat_params(template)
        model.set_flat(flat)
        assert np.array_equal(model.slab, np.broadcast_to(flat, model.slab.shape))

    def test_slab_round_trip(self, rng):
        model = StackedModel(make_mlp(5, 3, hidden=(6,), rng=rng), C)
        slab = rng.normal(size=model.slab.shape)
        model.set_slab(slab)
        assert np.array_equal(model.get_slab(), slab)

    def test_params_alias_slab(self, rng):
        """Layer parameters are views: writing the slab writes the layers,
        and the gradient slab aliases every p.grad."""
        model = StackedModel(make_mlp(5, 3, hidden=(6,), rng=rng), C)
        model.slab.fill(0.5)
        for p in model.parameters():
            assert np.all(p.data == 0.5)
        model.forward(rng.normal(size=(C, B, 5)))
        model.backward(rng.normal(size=(C, B, 3)))
        assert np.any(model.grad_slab != 0.0)
        model.zero_grad()
        for p in model.parameters():
            assert np.all(p.grad == 0.0)

    def test_slab_order_matches_get_flat_params(self, rng):
        template = make_cnn(4, 1, 3, channels=(2, 3), rng=rng)
        model = StackedModel(template, C)
        model.set_flat(get_flat_params(template))
        assert np.array_equal(model.slab[1], get_flat_params(template))

    def test_prefix_activation_uses_leading_copies(self, rng):
        model = StackedModel(make_mlp(5, 3, hidden=(6,), rng=rng), C)
        slab = rng.normal(size=model.slab.shape, scale=0.3)
        model.set_slab(slab)
        k = C - 1
        x = rng.normal(size=(C, B, 5))
        full = model.forward(x)
        prefix = model.forward(x[:k])
        assert np.array_equal(prefix, full[:k])
        model.zero_grad()
        dy = rng.normal(size=(k, B, 3))
        model.backward(dy)
        # Retired copies accumulate nothing.
        assert np.all(model.grad_slab[k:] == 0.0)

    def test_supports_stacking(self, rng):
        assert supports_stacking(make_mlp(5, 3, rng=rng))
        assert supports_stacking(make_cnn(4, 1, 3, channels=(2, 3), rng=rng))
        assert supports_stacking(Sequential(Linear(4, 4, rng), Tanh(), Sigmoid(), Flatten()))
        assert supports_stacking(make_lstm_lm(10, 4, 4, 1, rng=rng))
        assert not supports_stacking(Linear(4, 4, rng))  # bare layer, no Sequential

    def test_unstackable_model_rejected(self, rng):
        with pytest.raises(ValueError):
            StackedModel(Linear(4, 4, rng), C)

    def test_nested_sequential_supported(self, rng):
        inner = Sequential(Linear(5, 6, rng), ReLU())
        model = StackedModel(Sequential(inner, Linear(6, 3, rng)), C)
        gradcheck_module(model, rng.normal(size=(C, B, 5)))


class TestStackedTextKernels:
    """Embedding/LSTM stacks and the stacked sequence loss — the kernels
    that let text models train in lockstep instead of falling back."""

    def lstm_stack(self, rng, n=C, d_in=4, h=5, layers=2):
        serials = [LSTM(d_in, h, num_layers=layers, rng=rng) for _ in range(n)]
        cells = [
            StackedLSTMCell(
                np.stack([s.cells[l].w_x.data for s in serials]),
                np.stack([s.cells[l].w_h.data for s in serials]),
                np.stack([s.cells[l].bias.data for s in serials]),
            )
            for l in range(layers)
        ]
        return StackedLSTM(cells), serials

    def test_lstm_gradcheck(self, rng):
        stacked, _ = self.lstm_stack(rng, layers=1, d_in=3, h=3)
        gradcheck_module(stacked, rng.normal(size=(C, 2, 3, 3)))

    def check_lstm_matches_serial(self, rng, n, t_steps, k):
        stacked, serials = self.lstm_stack(rng)
        x = rng.normal(size=(k, n, t_steps, 4))
        y = stacked.forward(x)
        dy = rng.normal(size=y.shape)
        dx = stacked.backward(dy)
        for c in range(k):
            assert_same_bits(y[c], serials[c].forward(x[c]))
            assert_same_bits(dx[c], serials[c].backward(dy[c]))
            for cell, scell in zip(stacked.cells, serials[c].cells):
                assert_same_bits(cell.w_x.grad[c], scell.w_x.grad)
                assert_same_bits(cell.w_h.grad[c], scell.w_h.grad)
                assert_same_bits(cell.bias.grad[c], scell.bias.grad)
        for cell in stacked.cells:
            for p in cell.parameters():
                assert np.all(p.grad[k:] == 0.0)

    def test_lstm_matches_serial_bitwise(self, rng):
        self.check_lstm_matches_serial(rng, B, 6, C)

    @pytest.mark.parametrize(
        "n, t_steps, k",
        [(1, 6, C), (B, 1, C), (B, 6, C - 1), (1, 1, 1)],
        ids=["batch1", "one_step", "prefix", "batch1_one_step_prefix"],
    )
    def test_lstm_matches_serial_at_edges(self, rng, n, t_steps, k):
        # Batch 1 sends every GEMM to gemv, T=1 runs no recurrence, and a
        # prefix k < C must leave the retired copies' gradients untouched.
        self.check_lstm_matches_serial(rng, n, t_steps, k)

    @pytest.mark.parametrize("n, k", [(1, C), (B, C - 1)], ids=["one_sequence", "prefix"])
    def test_language_model_forward_eval_matches_serial(self, rng, n, k):
        template = make_lstm_lm(9, embed_dim=4, hidden=5, num_layers=2, rng=rng)
        model = StackedModel(template, C)
        slab = rng.normal(size=model.slab.shape, scale=0.5)
        model.set_slab(slab)
        ids = rng.integers(0, 9, size=(n, 6))
        y = model.forward_eval(ids, k)
        assert y.shape == (k, n, 6, 9)
        for c in range(k):
            set_flat_params(template, slab[c])
            assert_same_bits(y[c], template.forward(ids))

    def test_embedding_matches_serial_bitwise(self, rng):
        vocab, dim = 7, 3
        weight = rng.normal(size=(C, vocab, dim))
        stacked = StackedEmbedding(weight.copy())
        # Duplicate ids on purpose: scatter-add accumulation order must
        # match the serial kernel's per copy.
        ids = rng.integers(0, vocab, size=(C, B, 5))
        ids[:, 0] = ids[:, 1]
        y = stacked.forward(ids)
        dy = rng.normal(size=y.shape)
        dx = stacked.backward(dy)
        assert np.all(dx == 0.0)
        for c in range(C):
            serial = Embedding(vocab, dim, rng)
            serial.weight.data[...] = weight[c]
            ys = serial.forward(ids[c])
            serial.backward(dy[c])
            assert np.array_equal(y[c], ys)
            assert np.array_equal(stacked.weight.grad[c], serial.weight.grad)

    def test_embedding_rejects_bad_ids(self, rng):
        stacked = StackedEmbedding(rng.normal(size=(C, 7, 3)))
        with pytest.raises(TypeError):
            stacked.forward(rng.normal(size=(C, B)))
        with pytest.raises(ValueError):
            stacked.forward(np.full((C, B), 7))

    def test_sequence_ce_matches_serial_per_copy(self, rng):
        logits = rng.normal(size=(C, B, 4, 6))
        labels = rng.integers(0, 6, size=(C, B, 4))
        losses, dlogits = stacked_sequence_cross_entropy(logits, labels)
        for c in range(C):
            loss_s, d_s = sequence_cross_entropy(logits[c], labels[c])
            assert losses[c] == loss_s
            assert np.array_equal(dlogits[c], d_s)

    def test_sequence_ce_row_mask_matches_serial_token_mask(self, rng):
        # A row mask is the serial loss's token mask repeated over T.
        t = 4
        logits = rng.normal(size=(C, B, t, 6))
        labels = rng.integers(0, 6, size=(C, B, t))
        mask = (rng.random((C, B)) < 0.6).astype(np.float64)
        mask[:, 0] = 1.0
        losses, dlogits = stacked_sequence_cross_entropy(logits, labels, mask)
        for c in range(C):
            token_mask = np.repeat(mask[c][:, None], t, axis=1)
            loss_s, d_s = sequence_cross_entropy(logits[c], labels[c], token_mask)
            assert_same_bits(losses[c], loss_s)
            assert_same_bits(dlogits[c], d_s)

    def test_sequence_ce_masked_rows(self, rng):
        b_real = 2
        logits = rng.normal(size=(C, B, 4, 6))
        labels = rng.integers(0, 6, size=(C, B, 4))
        mask = np.zeros((C, B))
        mask[:, :b_real] = 1.0
        losses, dlogits = stacked_sequence_cross_entropy(logits, labels, mask)
        assert np.all(dlogits[:, b_real:] == 0.0)
        for c in range(C):
            loss_s, d_s = sequence_cross_entropy(logits[c, :b_real], labels[c, :b_real])
            assert losses[c] == pytest.approx(loss_s, rel=1e-14)
            np.testing.assert_allclose(dlogits[c, :b_real], d_s, rtol=1e-14, atol=1e-18)

    def test_sequence_ce_gradcheck(self, rng):
        labels = rng.integers(0, 5, size=(C, 3, 2))
        copy_w = rng.normal(size=C)
        logits = rng.normal(size=(C, 3, 2, 5))
        _, dlogits = stacked_sequence_cross_entropy(logits.copy(), labels)

        def objective(lg):
            ls, _ = stacked_sequence_cross_entropy(lg, labels)
            return float((ls * copy_w).sum())

        numeric = numerical_gradient(objective, logits.copy())
        np.testing.assert_allclose(
            dlogits * copy_w[:, None, None, None], numeric, rtol=1e-5, atol=1e-7
        )

    def test_language_model_stack_matches_serial(self, rng):
        template = make_lstm_lm(9, embed_dim=4, hidden=4, num_layers=2, rng=rng)
        model = StackedModel(template, C)
        slab = rng.normal(size=model.slab.shape, scale=0.2)
        model.set_slab(slab)
        ids = rng.integers(0, 9, size=(C, B, 5))
        labels = rng.integers(0, 9, size=(C, B, 5))
        y = model.forward(ids)
        losses, d = stacked_sequence_cross_entropy(y, labels)
        model.zero_grad()
        model.backward(d)
        for c in range(C):
            set_flat_params(template, slab[c])
            template.zero_grad()
            ys = template.forward(ids[c])
            loss_s, d_s = sequence_cross_entropy(ys, labels[c])
            template.backward(d_s)
            assert np.array_equal(y[c], ys)
            assert losses[c] == loss_s
            assert np.array_equal(model.grad_slab[c], get_flat_grads(template))


class TestStackSignature:
    def test_same_architecture_same_signature(self, rng):
        a = make_mlp(5, 3, hidden=(6,), rng=rng)
        b = make_mlp(5, 3, hidden=(6,), rng=np.random.default_rng(99))
        assert stack_signature(a) == stack_signature(b)
        assert stack_signature(a) is not None

    def test_different_architectures_differ(self, rng):
        base = stack_signature(make_mlp(5, 3, hidden=(6,), rng=rng))
        assert stack_signature(make_mlp(5, 3, hidden=(7,), rng=rng)) != base
        assert stack_signature(make_mlp(5, 3, hidden=(6, 6), rng=rng)) != base
        assert (
            stack_signature(Sequential(Linear(5, 6, rng), Tanh(), Linear(6, 3, rng))) != base
        )

    def test_conv_extras_distinguish(self, rng):
        a = Sequential(Conv2D(1, 2, 3, stride=1, pad=1, rng=rng), Flatten(), Linear(32, 2, rng))
        b = Sequential(Conv2D(1, 2, 3, stride=1, pad=0, rng=rng), Flatten(), Linear(8, 2, rng))
        assert stack_signature(a) != stack_signature(b)

    def test_unsupported_model_is_none(self, rng):
        assert stack_signature(Linear(4, 4, rng)) is None

        class Scale(Module):  # a leaf type with no stacked counterpart
            def forward(self, x):
                return 2.0 * x

        assert stack_signature(Sequential(Linear(4, 4, rng), Scale())) is None

    def test_text_model_signature(self, rng):
        a = make_lstm_lm(9, embed_dim=4, hidden=4, num_layers=2, rng=rng)
        b = make_lstm_lm(9, embed_dim=4, hidden=4, num_layers=2, rng=np.random.default_rng(1))
        c = make_lstm_lm(9, embed_dim=4, hidden=5, num_layers=2, rng=rng)
        assert stack_signature(a) == stack_signature(b)
        assert stack_signature(a) != stack_signature(c)


class TestStackedSigmoidExactness:
    """The branch-free stacked sigmoid against both serial sigmoids (the
    LSTM gate helper and the Sigmoid layer), bit for bit at the edges of
    exp's range, at ±0/±inf/NaN, on subnormals, and on random inputs."""

    EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 36.7, -36.7, 37.0, -37.0,
             708.0, -708.0, 709.0, -709.0, 745.0, -745.0, 746.0, -746.0]

    def inputs(self, rng, dtype):
        info = np.finfo(dtype)
        subnormals = [info.smallest_subnormal, -info.smallest_subnormal,
                      info.smallest_normal / 2, -info.smallest_normal / 2]
        edges = np.array(self.EDGES + subnormals, dtype=dtype)
        normals = [rng.normal(scale=s, size=600).astype(dtype) for s in (1.0, 30.0, 300.0)]
        return np.concatenate([edges] + normals)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_serial_bit_for_bit(self, rng, dtype):
        from repro.nn.recurrent import _sigmoid as serial_sigmoid
        from repro.nn.stacked import _stacked_sigmoid

        x = self.inputs(rng, dtype)
        y = _stacked_sigmoid(x)
        assert y.dtype == dtype
        assert_same_bits(y, serial_sigmoid(x))
        assert_same_bits(y, Sigmoid().forward(x))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scratch_and_layouts(self, rng, dtype):
        # As the LSTM step runs it: a strided gate-block input, a
        # gate-major (transposed) output, caller-owned scratch; and in
        # place, and through StackedSigmoid's inference path.
        from repro.nn.recurrent import _sigmoid as serial_sigmoid
        from repro.nn.stacked import _stacked_sigmoid

        x = self.inputs(rng, dtype)[: 3 * 5 * 16].reshape(3, 5, 16)[:, :, 4:12]
        expect = serial_sigmoid(x)
        out = np.empty((8, 3, 5), dtype=dtype).transpose(1, 2, 0)
        scratch = (np.empty(x.shape, dtype), np.empty(x.shape, dtype), np.empty(x.shape, bool))
        assert _stacked_sigmoid(x, out, *scratch) is out
        assert_same_bits(out, expect)
        inplace = x.copy()
        assert _stacked_sigmoid(inplace, inplace) is inplace
        assert_same_bits(inplace, expect)
        assert_same_bits(StackedSigmoid().eval_forward(x, C, True)[0], expect)


def test_stacked_kernels_share_no_serial_helper():
    """The serial kernels are the oracle the stacked ones are tested
    against, so ``nn.stacked`` must not run them: a fault in a shared
    helper would pass every serial≡stacked test."""
    from repro.nn import functional, recurrent, stacked

    oracle = (
        recurrent._sigmoid,
        functional.softmax,
        functional.log_softmax,
        functional.im2col,
        functional.col2im,
    )
    bound = [name for name, value in vars(stacked).items() if any(value is o for o in oracle)]
    assert bound == []
    # No stacked layer runs a serial pooling or ReLU training kernel.
    serial = {getattr(cls, name) for cls in (MaxPool2D, ReLU) for name in ("forward", "backward")}
    inherited = [
        (cls.__name__, name)
        for cls in vars(stacked).values()
        if isinstance(cls, type) and issubclass(cls, Module) and cls.__module__ == stacked.__name__
        for name in ("forward", "backward")
        if getattr(cls, name) in serial
    ]
    assert inherited == []


class TestStackedCNNKernels:
    """The stacked conv, max-pool and ReLU kernels against the serial
    layers, bit for bit: tied windows (all-zero windows after a ReLU), ±0,
    NaN and ±inf, non-contiguous inputs, prefix activation and batch 1."""

    @staticmethod
    def pool_input(rng, k, b, c=2, h=8):
        x = rng.normal(size=(k, b, c, h, h))
        # One row of special windows, row-major from the first image:
        # 2-, 3- and 4-way ties of 0, ±0 in one window, a tie at the max
        # with a smaller value, NaN, +inf, -inf and a max tied at +inf.
        windows = [
            [0.0, 0.0, -1.0, -2.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, -0.0, -0.0, 0.0],
            [-0.0, -0.0, -0.0, -0.0],
            [1.5, -3.0, 1.5, 1.5],
            [np.nan, 1.0, 2.0, 3.0],
            [np.inf, 1.0, -np.inf, 0.0],
            [-np.inf, -np.inf, -np.inf, -np.inf],
            [np.inf, np.inf, 2.0, np.nan],
            [np.inf, np.inf, np.inf, -1.0],
        ]
        first_image = x.reshape(-1, h // 2, 2, h // 2, 2)[0]
        for n, vals in enumerate(windows):
            row, col = divmod(n, h // 2)
            first_image[row, :, col, :] = np.reshape(vals, (2, 2))
        return x

    @staticmethod
    def serial_pool(x, dy):
        layer = MaxPool2D(2)
        k, b = x.shape[:2]
        y = layer.forward(x.reshape((k * b,) + x.shape[2:]))
        dx = layer.backward(dy.reshape((k * b,) + dy.shape[2:]))
        return y.reshape((k, b) + y.shape[1:]), dx.reshape(x.shape)

    @pytest.mark.parametrize("k, b", [(C, B), (1, 1), (C, 1)])
    def test_pool_matches_serial_with_ties_and_specials(self, rng, k, b):
        x = self.pool_input(rng, k, b)
        layer = StackedMaxPool2D(2)
        with np.errstate(invalid="ignore"):
            y = layer.forward(x)
            dy = rng.normal(size=y.shape)
            dx = layer.backward(dy)
            y_s, dx_s = self.serial_pool(x, dy)
        assert_same_bits(y, y_s)
        assert_same_bits(dx, dx_s)
        # The special windows really are in the batch: a 3-way tie splits
        # the gradient in thirds, a NaN window gives NaN gradients.
        assert np.isnan(dx).any() and np.any(dx == (1.0 / 3.0) * dy.reshape(-1)[1])

    def test_pool_after_relu_of_conv_output(self, rng):
        # The training layout: a conv's channels-last output through ReLU
        # (many all-zero windows), pooled; also float32, where the
        # gradient stays float32 (the serial mask is float64, so its
        # float32 reference is compared within one rounding).
        for dtype in (np.float64, np.float32):
            conv = StackedConv2D(rng.normal(size=(C, 3, 2, 3, 3)), rng.normal(size=(C, 3)) - 1.0, pad=1)
            for p in conv.parameters():
                p.data = p.data.astype(dtype)
            h = StackedReLU().forward(conv.forward(rng.normal(size=(C, 1, 2, 4, 4)).astype(dtype)))
            assert (h == 0).mean() > 0.3
            layer = StackedMaxPool2D(2)
            y = layer.forward(h)
            dy = rng.normal(size=y.shape).astype(dtype)
            dx = layer.backward(dy)
            y_s, dx_s = self.serial_pool(h, dy)
            assert y.dtype == dx.dtype == dtype
            assert_same_bits(y, y_s)
            if dtype == np.float64:
                assert_same_bits(dx, dx_s)
            else:
                np.testing.assert_allclose(dx, dx_s, rtol=2e-7, atol=0)

    def test_relu_matches_serial_on_conv_output(self, rng):
        conv = StackedConv2D(rng.normal(size=(C, 3, 2, 3, 3)), rng.normal(size=(C, 3)), pad=1)
        x = conv.forward(rng.normal(size=(C, B, 2, 4, 4)))
        assert not x.flags.c_contiguous
        x[0, 0, 0, :2, 0] = [np.nan, -np.inf]
        x[0, 0, 0, 2:, 0] = [np.inf, -0.0]
        layer, serial = StackedReLU(), ReLU()
        with np.errstate(invalid="ignore"):
            y, y_s = layer.forward(x), serial.forward(x)
        dy = rng.normal(size=y.shape)
        assert_same_bits(y, y_s)
        assert_same_bits(layer.backward(dy), serial.backward(dy))
        with np.errstate(invalid="ignore"):
            assert_same_bits(layer.eval_forward(x, C, False)[0], y_s)

    @pytest.mark.parametrize("stride, pad, k, b", [(1, 1, C, B), (2, 0, C, B), (1, 2, 2, 1), (2, 1, 1, 1)])
    def test_conv_matches_serial(self, rng, stride, pad, k, b):
        layer = StackedConv2D(
            rng.normal(size=(C, 3, 2, 3, 3)), rng.normal(size=(C, 3)), stride=stride, pad=pad
        )
        # A non-contiguous input, as the trainer's batch buffer gives.
        x = rng.normal(size=(k, b + 1, 2, 5, 5))[:, 1:]
        y = layer.forward(x)
        dy = rng.normal(size=y.shape)
        dx = layer.backward(dy)
        shared_y = layer.eval_forward(x[0], k, True)[0]
        for c in range(k):
            serial = Conv2D(2, 3, 3, stride=stride, pad=pad, rng=rng)
            serial.weight.data[...] = layer.weight.data[c]
            serial.bias.data[...] = layer.bias.data[c]
            assert_same_bits(y[c], serial.forward(x[c]))
            assert_same_bits(dx[c], serial.backward(dy[c]))
            assert_same_bits(layer.weight.grad[c], serial.weight.grad)
            assert_same_bits(layer.bias.grad[c], serial.bias.grad)
            assert_same_bits(shared_y[c], serial.forward(x[0]))
        assert not layer.weight.grad[k:].any() and not layer.bias.grad[k:].any()

    @pytest.mark.parametrize("factory", ["cnn", "mlp", "lm"])
    def test_backward_params_matches_backward(self, rng, factory):
        # The trainer's step skips the first layer's input gradient; every
        # parameter gradient must equal the full backward's.
        if factory == "cnn":
            template, x = make_cnn(4, 1, 3, channels=(2, 3), rng=rng), rng.normal(size=(C, B, 1, 4, 4))
        elif factory == "mlp":
            template, x = make_mlp(5, 3, hidden=(6,), rng=rng), rng.normal(size=(C, B, 5))
        else:
            template, x = make_lstm_lm(9, embed_dim=4, hidden=4, rng=rng), rng.integers(0, 9, (C, B, 3))
        model = StackedModel(template, C)
        model.set_slab(rng.normal(size=model.slab.shape, scale=0.3))
        grads = []
        for step in ("backward", "backward_params"):
            model.zero_grad()
            y = model.forward(x[:2])
            getattr(model, step)(np.ones_like(y))
            grads.append(model.grad_slab.copy())
        assert_same_bits(grads[0], grads[1])
        assert grads[1][:2].any() and not grads[1][2:].any()

    def test_float32_cnn_never_upcasts(self, rng):
        model = StackedModel(make_cnn(4, 2, 3, channels=(2, 3), rng=rng), C, dtype="float32")
        seen = []

        def record(layer, name):
            inner = getattr(layer, name)

            def wrapper(a):
                out = inner(a)
                seen.append((type(layer).__name__, name, a.dtype, None if out is None else out.dtype))
                return out
            return wrapper

        for layer in model.layers:
            for name in ("forward", "backward", "backward_params"):
                if hasattr(layer, name):
                    setattr(layer, name, record(layer, name))
        x = rng.normal(size=(C, B, 2, 4, 4)).astype(np.float32)
        y = model.forward(x)
        losses, dy = stacked_softmax_cross_entropy(y, rng.integers(0, 3, (C, B)))
        model.backward(dy)
        model.backward_params(dy)
        assert {(name, step) for name, step, _, _ in seen} >= {
            (type(layer).__name__, step) for layer in model.layers for step in ("forward", "backward")
        }
        upcast = [entry for entry in seen if entry[2] != np.float32 or entry[3] not in (None, np.float32)]
        assert upcast == [] and losses.dtype == np.float32
        assert all(g.grad.dtype == np.float32 for g in model.parameters())

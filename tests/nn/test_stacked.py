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
    Dropout,
    Embedding,
    Flatten,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    StackedConv2D,
    StackedDropout,
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
    make_cnn,
    make_lstm_lm,
    make_mlp,
    mse_loss,
    numerical_gradient,
    sequence_cross_entropy,
    set_flat_params,
    softmax_cross_entropy,
    stack_signature,
    stacked_mse,
    stacked_sequence_cross_entropy,
    stacked_softmax_cross_entropy,
    supports_stacking,
)

C, B = 3, 4  # copies, batch


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
        logits = rng.normal(size=(C, B, 5))
        labels = rng.integers(0, 5, size=(C, B))
        losses, dlogits = stacked_softmax_cross_entropy(logits, labels)
        for c in range(C):
            loss_s, d_s = softmax_cross_entropy(logits[c], labels[c])
            assert losses[c] == pytest.approx(loss_s, rel=1e-15, abs=1e-15)
            np.testing.assert_allclose(dlogits[c], d_s, rtol=1e-15, atol=1e-18)

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
        # Text kernels landed with the fused runner: LSTM LMs and Dropout
        # models stack now.
        assert supports_stacking(make_lstm_lm(10, 4, 4, 1, rng=rng))
        assert supports_stacking(Sequential(Linear(4, 4, rng), Dropout(0.5, rng)))
        assert not supports_stacking(Linear(4, 4, rng))  # bare layer, no Sequential

    def test_shared_dropout_rng_stackable(self, rng):
        """One generator shared by two active Dropout layers is handled by
        the trainer's interleaved mask pre-draw (serial visit order), so
        the model stacks; stackability is purely structural."""
        shared = np.random.default_rng(0)
        assert supports_stacking(
            Sequential(Linear(4, 4, rng), Dropout(0.3, shared), Dropout(0.2, shared))
        )
        assert supports_stacking(
            Sequential(Linear(4, 4, rng), Dropout(0.0, shared), Dropout(0.2, shared))
        )

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

    def test_lstm_matches_serial_bitwise(self, rng):
        stacked, serials = self.lstm_stack(rng)
        x = rng.normal(size=(C, B, 6, 4))
        y = stacked.forward(x)
        dy = rng.normal(size=y.shape)
        dx = stacked.backward(dy)
        for c, serial in enumerate(serials):
            ys = serial.forward(x[c])
            dxs = serial.backward(dy[c])
            assert np.array_equal(y[c], ys)
            assert np.array_equal(dx[c], dxs)
            for cell, scell in zip(stacked.cells, serial.cells):
                assert np.array_equal(cell.w_x.grad[c], scell.w_x.grad)
                assert np.array_equal(cell.w_h.grad[c], scell.w_h.grad)
                assert np.array_equal(cell.bias.grad[c], scell.bias.grad)

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


class TestStackedDropout:
    """Per-copy stream pre-draw: masks (and generator end states) must be
    bit-identical to the serial client-by-client draw order."""

    def plan_for(self, rngs, sizes_per_copy):
        return [(rng, sizes, slot) for slot, (rng, sizes) in enumerate(zip(rngs, sizes_per_copy))]

    def test_masks_match_serial_draw_order(self, rng):
        rate, feat, steps = 0.4, (5,), [3, 3, 2]
        seeds = [11, 12, 13]
        serial_rngs = [np.random.default_rng(s) for s in seeds]
        stacked_rngs = [np.random.default_rng(s) for s in seeds]
        layer = StackedDropout(rate)
        layer.begin_round(self.plan_for(stacked_rngs, [steps[c :] for c in [0, 0, 0]]))
        # Serial reference: each copy's Dropout consumes its own stream,
        # batch by batch.
        serial_masks = []
        for c in range(C):
            d = Dropout(rate, serial_rngs[c])
            copy_masks = []
            for b in steps:
                x = np.ones((b,) + feat)
                d.forward(x)
                copy_masks.append(d._mask.copy())
            serial_masks.append(copy_masks)
        for t in range(len(steps)):
            layer.set_step(t)
            x = np.ones((C, steps[t]) + feat)
            y = layer.forward(x)
            for c in range(C):
                assert np.array_equal(y[c], serial_masks[c][t])
        for a, b in zip(serial_rngs, stacked_rngs):
            assert a.bit_generator.state == b.bit_generator.state

    def test_padded_tail_is_identity(self, rng):
        layer = StackedDropout(0.5)
        layer.begin_round(self.plan_for([np.random.default_rng(c) for c in range(C)], [[2]] * C))
        x = rng.normal(size=(C, 4, 3))  # width 4, real rows 2
        y = layer.forward(x)
        assert np.array_equal(y[:, 2:], x[:, 2:])

    def test_gradcheck(self, rng):
        layer = StackedDropout(0.3)
        layer.begin_round(self.plan_for([np.random.default_rng(c) for c in range(C)], [[B]] * C))
        gradcheck_module(layer, rng.normal(size=(C, B, 4)))

    def test_rate_zero_is_identity_without_draws(self, rng):
        layer = StackedDropout(0.0)
        x = rng.normal(size=(C, B, 4))
        assert layer.forward(x) is x
        dy = rng.normal(size=x.shape)
        assert layer.backward(dy) is dy

    def test_eval_mode_identity(self, rng):
        layer = StackedDropout(0.5)
        layer.eval()
        x = rng.normal(size=(C, B, 4))
        assert layer.forward(x) is x

    def test_forward_without_plan_raises(self, rng):
        with pytest.raises(RuntimeError):
            StackedDropout(0.5).forward(rng.normal(size=(C, B, 4)))

    def test_dropout_model_gradcheck(self, rng):
        template = Sequential(Linear(5, 6, rng), Dropout(0.4, rng), ReLU(), Linear(6, 3, rng))
        model = StackedModel(template, C)
        drop = [l for l in model.layers if isinstance(l, StackedDropout)][0]
        drop.begin_round(
            [(np.random.default_rng(c), [B], c) for c in range(C)]
        )
        gradcheck_module(model, rng.normal(size=(C, B, 5)))


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
        # Shared-generator Dropout is a training-schedule concern, not a
        # structural one: the model signs (and trains) like any other.
        shared = np.random.default_rng(0)
        assert (
            stack_signature(Sequential(Linear(4, 4, rng), Dropout(0.3, shared), Dropout(0.2, shared)))
            is not None
        )

    def test_text_model_signature(self, rng):
        a = make_lstm_lm(9, embed_dim=4, hidden=4, num_layers=2, rng=rng)
        b = make_lstm_lm(9, embed_dim=4, hidden=4, num_layers=2, rng=np.random.default_rng(1))
        c = make_lstm_lm(9, embed_dim=4, hidden=5, num_layers=2, rng=rng)
        assert stack_signature(a) == stack_signature(b)
        assert stack_signature(a) != stack_signature(c)

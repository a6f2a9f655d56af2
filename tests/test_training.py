"""Training module: loss, backpropagation against finite differences, Adam,
the plateau schedule, batching, and the training loop.
"""

import dataclasses
import logging
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from medner.corpus import (
    EncodedRecord,
    TagLabel,
    build_vocab,
    encode_corpus,
    gen_synthetic,
    label_index_from_types,
    parse_conll,
)
from medner.errors import FormatError, NumericalError
from medner.evaluation import span_metrics
from medner.model import (
    ModelConfig,
    ParamLayout,
    forward,
    gelu,
    init_params,
    layer_norm,
    layer_norm_backward,
    load_checkpoint_full,
    param_shapes,
    sinusoidal_positions,
    softmax,
)
from medner import evaluation, model, training
from medner.training import (
    TrainConfig,
    TrainLog,
    TrainLogRow,
    adam_step,
    backward,
    cross_entropy,
    init_adam_state,
    lr_schedule,
    make_batches,
    stagnant_epochs,
    train,
)

from helpers import backward_grads, init_param_views, matvec_column_sums, matvec_row_means
from test_evaluation import assert_no_children, force_fork, one_thread, refuse_fork
from oracles import (
    binary_cross_entropy,
    finite_difference_grads,
    max_relative_error,
    plateau_schedule,
)

LN2 = 0.69314718055994531


def tiny_config(**kwargs):
    base = dict(vocab_size=11, n_labels=3, d_model=8, n_heads=2, n_layers=1,
                d_ff=12, max_len=5, dropout_rate=0.0)
    base.update(kwargs)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# cross_entropy
# ---------------------------------------------------------------------------


def test_ce_confident_correct_is_near_zero():
    logits = np.array([[1e9, 0.0]])
    labels = np.array([0])
    loss, grad = cross_entropy(logits, labels, len(labels))
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(grad).all()


def test_ce_confident_wrong_is_clamped_at_1e_12():
    """A true-label probability that underflows to 0 counts as 1e-12, so
    the loss stays finite; the gradient is unclamped."""
    loss, grad = cross_entropy(np.array([[0.0, 1e9], [0.0, 0.0]]), np.array([0, 1]), 2)
    assert loss == pytest.approx((-math.log(1e-12) + LN2) / 2, abs=1e-12)
    np.testing.assert_allclose(grad, [[-0.5, 0.5], [0.25, -0.25]], atol=1e-12)


def test_ce_uniform_binary_is_ln2():
    loss, _ = cross_entropy(np.zeros((1, 2)), np.array([1]), 1)
    assert loss == pytest.approx(LN2, abs=1e-12)


def test_ce_matches_binary_form_at_k2():
    """Categorical CE at K=2 equals the textbook binary cross-entropy with
    y' taken as the class-1 softmax probability."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.integers(1, 7)
        logits = rng.normal(scale=3, size=(n, 2))
        labels = rng.integers(0, 2, size=n)
        loss, _ = cross_entropy(logits, labels, len(labels))
        y_prime = [
            math.exp(z[1]) / (math.exp(z[0]) + math.exp(z[1]))
            for z in logits
        ]
        ref = binary_cross_entropy(labels.tolist(), y_prime)
        assert loss == pytest.approx(ref, abs=1e-9)


def test_ce_gradient_closed_form_single_position():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(1, 4))
    labels = np.array([2])
    _, grad = cross_entropy(z, labels, len(labels))
    p = np.exp(z[0] - z[0].max())
    p /= p.sum()
    for k in range(4):
        expected = p[k] - (1.0 if k == 2 else 0.0)
        assert grad[0, k] == pytest.approx(expected, abs=1e-12)


def test_ce_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        logits = rng.normal(scale=5, size=(8, 3))
        labels = rng.integers(0, 3, size=8)
        loss, _ = cross_entropy(logits, labels, len(labels))
        assert loss >= 0.0


def test_ce_errors():
    with pytest.raises(ValueError, match="no tokens"):
        cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=int), 0)
    # every row is a token: -1 is out of range like any id >= n_labels
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(np.zeros((2, 3)), np.array([0, bad]), 2)
    with pytest.raises(ValueError, match="shape"):
        cross_entropy(np.zeros((2, 3)), np.array([0, 0, 0]), 3)
    with pytest.raises(ValueError, match="shape"):  # padded logits
        cross_entropy(np.zeros((1, 2, 3)), np.array([[0, 0]]), 2)
    with pytest.raises(ValueError, match="n_tokens 1 < 2"):
        cross_entropy(np.zeros((2, 3)), np.array([0, 0]), 1)


def test_ce_divides_by_the_token_count_it_is_given():
    """A shard's loss and gradient are its share of its batch's mean: the
    sum over its rows divided by the whole batch's token count."""
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    mean, dmean = cross_entropy(logits, labels, 5)
    share, dshare = cross_entropy(logits, labels, 20)
    assert share == pytest.approx(mean / 4, rel=1e-12)
    np.testing.assert_allclose(dshare, dmean / 4, rtol=1e-12)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def _loss_on(params, cfg, ids, mask, labels):
    logits, _ = forward(params, cfg, ids, mask, need_trace=False)
    return cross_entropy(logits, labels, len(labels))[0]


def test_backward_matches_finite_differences():
    cfg = tiny_config()
    rng = np.random.default_rng(0)
    params = init_param_views(cfg, seed=1, dtype=np.float64)
    ids = rng.integers(0, cfg.vocab_size, size=(2, 3))
    mask = np.array([[True, True, True], [True, True, False]])
    labels = rng.integers(0, cfg.n_labels, size=(2, 3))[mask]

    logits, trace = forward(params, cfg, ids, mask)
    _, dlogits = cross_entropy(logits, labels, len(labels))
    grads = backward_grads(params, cfg, trace, dlogits)
    fd = finite_difference_grads(
        lambda p: _loss_on(p, cfg, ids, mask, labels), params
    )
    assert set(grads) == set(params)
    for name in params:
        err = max_relative_error(grads[name], fd[name])
        assert err < 1e-5, (name, err)


def test_every_learned_tensor_gets_a_nonzero_gradient():
    """The whole model in float64 with every bias non-zero: each tensor's
    gradient matches central differences and is not 0, so no tensor is one
    the output does not depend on (as a key bias is: softmax cancels it)."""
    cfg = ModelConfig(vocab_size=9, n_labels=3, d_model=8, n_heads=2,
                      n_layers=1, d_ff=10, max_len=4, dropout_rate=0.0)
    rng = np.random.default_rng(5)
    params = init_param_views(cfg, seed=10, dtype=np.float64)
    for name, arr in params.items():
        if arr.ndim == 1 and not name.endswith(".g"):
            arr[:] = rng.normal(size=arr.shape)
    ids = rng.integers(0, cfg.vocab_size, size=(2, 3))
    mask = np.array([[True, True, True], [True, True, False]])
    labels = rng.integers(0, cfg.n_labels, size=(2, 3))[mask]

    logits, trace = forward(params, cfg, ids, mask)
    _, dlogits = cross_entropy(logits, labels, len(labels))
    grads = backward_grads(params, cfg, trace, dlogits)
    fd = finite_difference_grads(lambda p: _loss_on(p, cfg, ids, mask, labels), params)
    for name in params:
        assert max_relative_error(grads[name], fd[name]) < 1e-5, name
        assert np.abs(grads[name]).max() > 1e-6, (name, np.abs(grads[name]).max())


def split_heads(x, n_heads):
    """B x T x D -> B x H x T x D/H."""
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x):
    """split_heads undone."""
    b, h, t, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dk)


def test_backward_with_dropout_masks_in_trace():
    """With the sampled dropout masks held fixed (recorded in the trace),
    backward is still the exact gradient of the realized forward pass."""
    cfg = tiny_config(dropout_rate=0.25)
    rng = np.random.default_rng(1)
    params = init_param_views(cfg, seed=2, dtype=np.float64)
    ids = rng.integers(0, cfg.vocab_size, size=(1, 3))
    labels = rng.integers(0, cfg.n_labels, size=3)
    logits, trace = forward(params, cfg, ids, dropout_rng=np.random.default_rng(3))
    _, dlogits = cross_entropy(logits, labels, len(labels))
    grads = backward_grads(params, cfg, trace, dlogits)

    def fixed_mask_loss(p):
        x = p["emb.tok"][ids] + sinusoidal_positions(3, cfg.d_model, np.float64)
        for layer, lt in enumerate(trace.layers):
            pl = {k: p[f"enc.{layer}.{k}"] for k in (
                "attn.wq", "attn.wk", "attn.wv", "attn.wo", "attn.bq", "attn.bv",
                "attn.bo", "ln1.g", "ln1.b", "ln2.g", "ln2.b",
                "ff.w1", "ff.b1", "ff.w2", "ff.b2")}
            h, _, _ = layer_norm(x, pl["ln1.g"], pl["ln1.b"])
            q = split_heads(h @ pl["attn.wq"] + pl["attn.bq"], cfg.n_heads)
            k = split_heads(h @ pl["attn.wk"], cfg.n_heads)
            v = split_heads(h @ pl["attn.wv"] + pl["attn.bv"], cfg.n_heads)
            probs = softmax(q @ k.swapaxes(-1, -2) / math.sqrt(cfg.d_model // cfg.n_heads))
            ctx = merge_heads((probs * lt.attn.drop) @ v)
            x = x + ctx @ pl["attn.wo"] + pl["attn.bo"]
            h2, _, _ = layer_norm(x, pl["ln2.g"], pl["ln2.b"])
            act = gelu(h2 @ pl["ff.w1"] + pl["ff.b1"])[0] * lt.ff.drop
            x = x + act @ pl["ff.w2"] + pl["ff.b2"]
        logits = x[0] @ p["head.w"] + p["head.b"]
        return cross_entropy(logits, labels, len(labels))[0]

    fd = finite_difference_grads(fixed_mask_loss, params)
    for name in params:
        err = max_relative_error(grads[name], fd[name])
        assert err < 1e-5, (name, err)


def test_backward_padded_batch_with_dropout_matches_finite_differences():
    """Records of different lengths with dropout on: the packed FF dropout
    mask, the attention mask and the padded positions all take part. A
    generator seeded the same way draws the same masks on every forward
    (their shapes do not depend on the parameters), so the realized
    forward pass is a function of the parameters alone."""
    cfg = tiny_config(dropout_rate=0.25, n_layers=2)
    rng = np.random.default_rng(21)
    params = init_param_views(cfg, seed=22, dtype=np.float64)
    ids = rng.integers(0, cfg.vocab_size, size=(3, 5))
    mask = np.arange(5) < np.array([[5], [2], [4]])
    labels = rng.integers(0, cfg.n_labels, size=(3, 5))[mask]

    def loss(p):
        logits, _ = forward(p, cfg, ids, mask, dropout_rng=np.random.default_rng(23),
                            need_trace=False)
        return cross_entropy(logits, labels, len(labels))[0]

    logits, trace = forward(params, cfg, ids, mask, dropout_rng=np.random.default_rng(23))
    assert all(lt.ff.drop.shape == (mask.sum(), cfg.d_ff) for lt in trace.layers)
    assert all((lt.ff.drop == 0).any() for lt in trace.layers)
    _, dlogits = cross_entropy(logits, labels, len(labels))
    grads = backward_grads(params, cfg, trace, dlogits)
    fd = finite_difference_grads(loss, params)
    assert set(grads) == set(params)
    for name in params:
        err = max_relative_error(grads[name], fd[name])
        assert err < 1e-5, (name, err)


def test_shard_gradients_add_up_to_the_batch_mean_gradient():
    """A training step's shards, each forwarded with its own dropout masks
    held fixed: their gradients, from losses divided by the batch's token
    count, add up to the central-difference gradient of the batch-mean
    loss over all of the batch's tokens."""
    cfg = tiny_config(dropout_rate=0.25, n_layers=2)
    rng = np.random.default_rng(31)
    params = init_param_views(cfg, seed=32, dtype=np.float64)
    records = [EncodedRecord(rng.integers(2, cfg.vocab_size, size=k).tolist(),
                             rng.integers(0, cfg.n_labels, size=k).tolist()) for k in (5, 2, 4)]
    (batch,) = make_batches(records, batch_size=3, seed=0)
    assert [len(shard.token_ids) for shard in batch.shards] == [2, 1]
    assert not batch.shards[0].attention_mask.all()  # a padded shard

    def shard_forward(p, s, need_trace):
        shard = batch.shards[s]
        return forward(p, cfg, shard.token_ids, shard.attention_mask,
                       dropout_rng=np.random.default_rng(40 + s), need_trace=need_trace)

    def batch_mean_loss(p):
        logits = np.concatenate([shard_forward(p, s, False)[0] for s in range(2)])
        labels = np.concatenate([shard.label_ids for shard in batch.shards])
        return cross_entropy(logits, labels, len(labels))[0]

    summed = {name: np.zeros_like(arr) for name, arr in params.items()}
    for s, shard in enumerate(batch.shards):
        logits, trace = shard_forward(params, s, True)
        _, dlogits = cross_entropy(logits, shard.label_ids, batch.n_tokens)
        for name, grad in backward_grads(params, cfg, trace, dlogits).items():
            summed[name] += grad
    fd = finite_difference_grads(batch_mean_loss, params)
    for name in params:
        err = max_relative_error(summed[name], fd[name])
        assert err < 1e-5, (name, err)


def test_backward_linear_in_upstream_gradient():
    cfg = tiny_config()
    rng = np.random.default_rng(4)
    params = init_param_views(cfg, seed=4, dtype=np.float64)
    ids = rng.integers(0, cfg.vocab_size, size=(1, 4))
    labels = rng.integers(0, cfg.n_labels, size=4)
    logits, trace = forward(params, cfg, ids)
    _, dlogits = cross_entropy(logits, labels, len(labels))
    g1 = backward_grads(params, cfg, trace, dlogits)
    g2 = backward_grads(params, cfg, trace, 2.0 * dlogits)
    for name in params:
        np.testing.assert_allclose(g2[name], 2.0 * g1[name], rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_backward_gives_the_bits_of_its_formula(dtype):
    rng = np.random.default_rng(9)
    dy, x_hat = rng.normal(size=(2, 6, 16)).astype(dtype)
    inv = rng.uniform(0.1, 10.0, size=(6, 1)).astype(dtype)
    gain = rng.normal(size=16).astype(dtype)
    dxhat = dy * gain
    want = inv * (dxhat - matvec_row_means(dxhat) - x_hat * matvec_row_means(dxhat * x_hat))
    dgain, dbias = np.empty_like(gain), np.empty_like(gain)
    assert layer_norm_backward(dy, x_hat, inv, gain, dgain, dbias).tobytes() == want.tobytes()
    assert dgain.tobytes() == matvec_column_sums(dy * x_hat).tobytes()
    assert dbias.tobytes() == matvec_column_sums(dy).tobytes()
    d64 = [a.astype(np.float64) for a in (dy, x_hat, inv, gain)]
    dy64, x_hat64, inv64, gain64 = d64
    dxhat64 = dy64 * gain64
    want64 = inv64 * (dxhat64 - dxhat64.mean(axis=-1, keepdims=True)
                      - x_hat64 * (dxhat64 * x_hat64).mean(axis=-1, keepdims=True))
    tol = 64 * np.finfo(dtype).eps
    np.testing.assert_allclose(want, want64, rtol=tol, atol=tol * np.abs(want64).max())
    np.testing.assert_allclose(dgain, (dy64 * x_hat64).sum(axis=0), rtol=tol, atol=tol)
    np.testing.assert_allclose(dbias, dy64.sum(axis=0), rtol=tol, atol=tol)


def test_training_binds_no_private_name_of_model():
    """Layering: training calls model's public forward and backward; the
    packed rows, the heads and the padded layout stay model's own."""
    private = {id(value): name for name, value in vars(model).items()
               if name.startswith("_") and not name.startswith("__")}
    assert [private[id(value)] for value in vars(training).values() if id(value) in private] == []


def test_backward_trace_mismatch():
    cfg = tiny_config()
    params = init_param_views(cfg, seed=0)
    ids = np.zeros((1, 3), dtype=int)
    logits, trace = forward(params, cfg, ids)
    with pytest.raises(ValueError, match="mismatch"):
        backward_grads(params, cfg, trace, np.zeros((4, cfg.n_labels)))
    with pytest.raises(ValueError, match="mismatch"):  # padded dlogits
        backward_grads(params, cfg, trace, logits[None])


def _traced_batch(cfg, params, seed, shape, n_ids=None):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, n_ids or cfg.vocab_size, size=shape)
    mask = np.ones(shape, dtype=bool)
    mask[-1, shape[1] // 2:] = False
    labels = rng.integers(0, cfg.n_labels, size=shape)[mask]
    logits, trace = forward(params, cfg, ids, mask)
    return trace, cross_entropy(logits, labels, len(labels))[1]


def _joined(grads):
    return np.concatenate([a.ravel() for a in grads.values()])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_overwrites_stale_buffers(dtype):
    """Whatever the reused gradient vector held, backward leaves exactly
    the gradients it writes into a zeroed one."""
    cfg = tiny_config(vocab_size=13, max_len=6, n_layers=2)
    params = init_param_views(cfg, seed=5, dtype=dtype)
    trace, dlogits = _traced_batch(cfg, params, 6, (3, 6))
    zeroed = _joined(backward_grads(params, cfg, trace, dlogits, fill=0.0))
    assert np.isfinite(zeroed).all()
    for fill in (np.nan, np.inf, -7.0):
        got = _joined(backward_grads(params, cfg, trace, dlogits, fill=fill))
        assert got.tobytes() == zeroed.tobytes(), fill


def test_backward_second_call_leaves_no_residue():
    """A shorter batch with other token ids, into the vector the longer
    batch filled: no row of emb.tok keeps its old value."""
    cfg = tiny_config(vocab_size=13, max_len=6)
    params = init_param_views(cfg, seed=7, dtype=np.float32)
    layout = ParamLayout(cfg)
    reused = np.zeros(layout.size, dtype=np.float32)
    grads = layout.views(reused)
    backward(params, cfg, *_traced_batch(cfg, params, 8, (3, 6), n_ids=6), grads)
    assert np.abs(grads["emb.tok"][:6]).sum() > 0
    trace, dlogits = _traced_batch(cfg, params, 9, (2, 3))
    trace = dataclasses.replace(trace, token_ids=trace.token_ids % 7 + 6)  # ids 6..12
    backward(params, cfg, trace, dlogits, grads)
    assert reused.tobytes() == _joined(backward_grads(params, cfg, trace, dlogits)).tobytes()
    assert not grads["emb.tok"][:6].any()


def test_token_embedding_gradient_matches_sequential_loop():
    """The emb.tok gradient is the gradient of each input position added
    into its token's row one position at a time, in batch order. With
    token ids all distinct, the rows of emb.tok are those per-position
    gradients themselves, so the reference can be built from them."""
    cfg = tiny_config(vocab_size=24, max_len=6)
    params = init_param_views(cfg, seed=11, dtype=np.float32)
    trace, dlogits = _traced_batch(cfg, params, 12, (4, 6), n_ids=3)
    got = backward_grads(params, cfg, trace, dlogits)["emb.tok"]
    distinct = np.arange(24).reshape(4, 6)
    per_position = backward_grads(params, cfg, dataclasses.replace(trace, token_ids=distinct),
                                  dlogits)["emb.tok"]
    want = np.zeros_like(got)
    for pos, tok in enumerate(trace.token_ids.reshape(-1)):
        want[tok] += per_position[pos]
    assert got.tobytes() == want.tobytes()
    assert not got[3:].any()


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------


def _scalar_params(value):
    return np.array([value], dtype=np.float64)


def test_adam_zero_gradient_fixed_point():
    params = _scalar_params(0.7)
    state = init_adam_state(params)
    adam_step(params, np.zeros(1), state, lr=0.1)
    assert params[0] == 0.7
    assert state.t == 1


def test_adam_first_step_value():
    """t=1 with g=1: m_hat = 1, v_hat = 1, so p' = -lr / (1 + eps)."""
    lr = 1e-3
    params = _scalar_params(0.0)
    adam_step(params, np.ones(1), init_adam_state(params), lr=lr)
    assert params[0] == pytest.approx(-lr / (1.0 + 1e-8), abs=1e-15)
    assert params[0] == pytest.approx(-lr, rel=1e-6)


def test_adam_deterministic_runs():
    cfg = tiny_config()
    size = ParamLayout(cfg).size

    def run():
        params = init_params(cfg, seed=6, dtype=np.float64)
        state = init_adam_state(params)
        grad_rng = np.random.default_rng(7)
        for _ in range(10):
            adam_step(params, grad_rng.normal(size=size), state, lr=1e-3)
        return params

    assert run().tobytes() == run().tobytes()


def test_adam_matches_per_tensor_reference():
    """The flat in-place update is bit-identical to Adam applied tensor by
    tensor with the same elementwise operation order."""
    _check_adam_against_per_tensor_reference(clip=None)


def test_adam_clipped_matches_per_tensor_reference():
    _check_adam_against_per_tensor_reference(clip=1.0)


def _check_adam_against_per_tensor_reference(clip):
    cfg = tiny_config()
    layout = ParamLayout(cfg)
    flat = init_params(cfg, seed=3)
    ref = {n: a.copy() for n, a in layout.views(flat).items()}
    m = {n: np.zeros_like(a) for n, a in ref.items()}
    v = {n: np.zeros_like(a) for n, a in ref.items()}
    state = init_adam_state(flat)
    grad_rng = np.random.default_rng(4)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
    for t in range(1, 6):
        grads = {n: grad_rng.normal(size=a.shape).astype(np.float32) for n, a in ref.items()}
        adam_step(flat, _joined(grads), state, lr, grad_clip_norm=clip)
        if clip is not None:
            norm = training.global_grad_norm(_joined(grads))
            assert norm > clip
            grads = {n: g * (clip / norm) for n, g in grads.items()}
        for n, g in grads.items():
            m[n] = b1 * m[n] + (1.0 - b1) * g
            v[n] = b2 * v[n] + (1.0 - b2) * (g * g)
            ref[n] = ref[n] - lr * (m[n] / (1.0 - b1**t)) / (np.sqrt(v[n] / (1.0 - b2**t)) + eps)
    assert flat.tobytes() == _joined(ref).tobytes()
    assert state.m.tobytes() == _joined(m).tobytes()


def test_adam_nonfinite_gradient_changes_nothing():
    params = np.array([0.5, -0.5, 1.0])
    state = init_adam_state(params)
    adam_step(params, np.array([1.0, 2.0, 3.0]), state, lr=0.1)
    before = (params.copy(), state.m.copy(), state.v.copy(), state.t)
    with pytest.raises(NumericalError, match="non-finite"):
        adam_step(params, np.array([1.0, np.nan, 3.0]), state, lr=0.1)
    after = (params, state.m, state.v, state.t)
    for old, new in zip(before[:3], after[:3]):
        np.testing.assert_array_equal(old, new)
    assert after[3] == before[3] == 1


def test_adam_global_clip():
    grads = np.array([2.0] * 3 + [-2.0] * 4)
    norm = math.sqrt((grads**2).sum())

    def first_step(**clip):
        params = np.zeros(7)
        state = init_adam_state(params)
        adam_step(params, grads, state, lr=1.0, **clip)
        return state

    # a first Adam step moves by ~lr regardless of gradient scale, so the
    # rescale (here by exactly 1/2) is visible in the moment estimates
    st_clipped = first_step(grad_clip_norm=norm / 2)
    st_plain = first_step()
    np.testing.assert_allclose(st_clipped.m, st_plain.m / 2.0, rtol=1e-12)
    np.testing.assert_allclose(st_clipped.v, st_plain.v / 4.0, rtol=1e-12)
    # under the threshold nothing is rescaled
    np.testing.assert_array_equal(first_step(grad_clip_norm=norm * 2).m, st_plain.m)


def test_clipped_adam_step_squares_in_its_scratch():
    """The clip norm's float64 squares go into Adam's scratch, so a clipped
    step allocates no model-sized temporary (only isfinite's n bools), and
    the norm keeps its bits."""
    rng = np.random.default_rng(6)
    grads = rng.normal(size=100_000).astype(np.float32)
    params = np.zeros_like(grads)
    state = init_adam_state(params)
    tracemalloc.start()
    try:
        adam_step(params, grads, state, lr=1e-3, grad_clip_norm=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000, peak
    for dtype in (np.float32, np.float64):
        g = grads.astype(dtype)
        assert training.global_grad_norm(g, np.empty(len(g))) == math.sqrt(
            float((g.astype(np.float64) ** 2).sum()))


def test_adam_reduces_quadratic():
    params = _scalar_params(1.0)
    state = init_adam_state(params)
    adam_step(params, 2.0 * params, state, lr=1e-3)  # d/dp of p^2
    assert params[0] ** 2 < 1.0


def test_adam_shape_mismatch():
    params = np.zeros(2)
    with pytest.raises(ValueError):
        adam_step(params, np.zeros(3), init_adam_state(params), lr=0.1)
    with pytest.raises(ValueError):
        adam_step(params, np.zeros(2), init_adam_state(np.zeros(3)), lr=0.1)
    with pytest.raises(ValueError, match="dtype"):
        adam_step(params, np.zeros(2, dtype=np.float32), init_adam_state(params), lr=0.1)


# ---------------------------------------------------------------------------
# lr schedule
# ---------------------------------------------------------------------------


def _history(losses, lr):
    return [
        TrainLogRow(epoch=i + 1, train_loss=l, val_loss=l, val_span_f1=0.0,
                    learning_rate=lr)
        for i, l in enumerate(losses)
    ]


HALVING = TrainConfig(decay_factor=0.5, decay_patience=3, min_lr=1e-7)


def test_schedule_improving_unchanged():
    lr = lr_schedule(_history([1.0, 0.9, 0.8], 1e-3), HALVING)
    assert lr == 1e-3


def test_schedule_flat_series_halves_after_3_and_6():
    seen = []
    for epoch in range(1, 7):
        seen.append(lr_schedule(_history([1.0] * epoch, 1e-3), HALVING))
    assert seen == [1e-3, 1e-3, 5e-4, 5e-4, 5e-4, 2.5e-4]


def test_schedule_min_lr_floor():
    config = TrainConfig(decay_factor=0.5, decay_patience=1, min_lr=1e-4)
    lr = lr_schedule(_history([1.0] * 20, 1e-3), config)
    assert lr == 1e-4


def test_schedule_counter_resets_on_improvement():
    # improvements at epochs 2 and 3 keep resetting the counter
    lr = lr_schedule(_history([1.0, 0.5, 0.25, 0.25, 0.25], 1e-3), HALVING)
    assert lr == 1e-3
    lr = lr_schedule(_history([1.0, 0.5, 0.25, 0.25, 0.25, 0.25], 1e-3), HALVING)
    assert lr == 5e-4


def test_plateau_threshold_is_absolute():
    assert stagnant_epochs([1.0, 1.0 - 5e-7, 1.0 - 8e-7]) == [1, 2, 3]
    assert stagnant_epochs([1.0, 1.0 - 1e-3, 1.0 - 2e-3]) == [1, 0, 0]


def test_schedule_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    steps = [-1e-3, -1e-6, -5e-7, 0.0, 5e-7, 1e-6, 1e-3]
    for _ in range(300):
        losses = [float(x) for x in 1.0 + np.cumsum(rng.choice(steps, rng.integers(1, 25)))]
        factor = float(rng.choice([0.5, 0.3, 0.9]))
        patience = int(rng.integers(1, 6))
        initial = float(rng.choice([1e-3, 1e-6, 1e-8]))  # 1e-8 is below min_lr
        config = TrainConfig(decay_factor=factor, decay_patience=patience, min_lr=1e-7)
        want = plateau_schedule(losses, initial, factor, patience, 1e-7)
        assert stagnant_epochs(losses) == [count for count, _ in want]
        rows = _history(losses, initial)
        assert [lr_schedule(rows[:k], config) for k in range(1, len(rows) + 1)] == \
            [lr for _, lr in want]


def test_schedule_requires_history():
    with pytest.raises(ValueError):
        lr_schedule([], TrainConfig())


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def _encoded(n, length=4):
    """n records; record i starts with token id i + 2, so rows tell records apart."""
    return [
        EncodedRecord([i + 2] + [(i + j) % 7 + 2 for j in range(1, length)],
                      [(i + j) % 3 for j in range(length)])
        for i in range(n)
    ]


def _rows(batches):
    """Each batch row's real token ids and labels, in batch and shard order."""
    out = []
    for b in batches:
        for shard in filter(None, b.shards):
            labels = iter(shard.label_ids.tolist())
            for ids, real in zip(shard.token_ids, shard.attention_mask):
                out.append((tuple(ids[real]), tuple(next(labels) for _ in range(real.sum()))))
    return out


def test_batch_sizes_35_over_16():
    batches = make_batches(_encoded(35), batch_size=16, seed=0)
    assert [[len(s.token_ids) for s in b.shards] for b in batches] == [[8, 8], [8, 8], [2, 1]]
    assert [b.n_tokens for b in batches] == [64, 64, 12]


def test_a_batch_of_one_record_has_an_empty_last_shard():
    (batch,) = make_batches(_encoded(1, length=3), batch_size=16, seed=0)
    assert batch.shards[1] is None
    assert batch.shards[0].token_ids.tolist() == [[2, 3, 4]]
    assert batch.n_tokens == 3


def test_batches_follow_the_seeded_shuffle():
    records = _encoded(5)
    order = list(records)
    random.Random(4).shuffle(order)
    batches = make_batches(records, batch_size=2, seed=4)
    assert _rows(batches) == [(tuple(r.token_ids), tuple(r.label_ids)) for r in order]


def test_batches_partition_records():
    records = [*_encoded(22), EncodedRecord([40], [1])]
    rows = _rows(make_batches(records, batch_size=4, seed=3))
    assert sorted(rows) == sorted((tuple(r.token_ids), tuple(r.label_ids)) for r in records)


def test_batch_padding_invariant():
    """Each shard is padded to its own longest record: PAD ids exactly at
    the masked positions, and the labels packed: label_ids[i] labels the
    token at flat position flatnonzero(mask)[i]."""
    records = [
        EncodedRecord([2, 3, 4], [0, 1, 2]),
        EncodedRecord([5], [1]),
        EncodedRecord([6, 7, 8, 9, 10], [2, 2, 0, 1, 0]),
        EncodedRecord([11, 12], [1, 0]),
    ]
    (batch,) = make_batches(records, batch_size=8, seed=0)
    assert batch.n_tokens == 11
    label_of_token = {tok: lab for r in records for tok, lab in zip(r.token_ids, r.label_ids)}
    lengths = []
    for shard in batch.shards:
        rows_lengths = shard.attention_mask.sum(axis=1)
        lengths += rows_lengths.tolist()
        assert shard.token_ids.shape == (2, rows_lengths.max())
        np.testing.assert_array_equal(shard.attention_mask,
                                      np.arange(rows_lengths.max()) < rows_lengths[:, None])
        assert not shard.token_ids[~shard.attention_mask].any()
        rows = np.flatnonzero(shard.attention_mask)
        assert shard.label_ids.shape == (len(rows),)
        assert shard.label_ids.tolist() == [
            label_of_token[tok] for tok in shard.token_ids.reshape(-1)[rows]]
    assert sorted(lengths) == [1, 2, 3, 5]


def test_batches_shuffle_deterministic():
    records = _encoded(20)
    a = make_batches(records, batch_size=6, seed=5)
    b = make_batches(records, batch_size=6, seed=5)
    assert _rows(a) == _rows(b)
    c = make_batches(records, batch_size=6, seed=6)
    assert _rows(a) != _rows(c)


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------


def _tiny_corpus(n=8, seed=1):
    return gen_synthetic(n, ["D", "G"], vocab_size=30, max_len=8, seed=seed)


def _model_for(corpus, vocab, **kwargs):
    n_labels = len(label_index_from_types(corpus.label_inventory))
    base = dict(vocab_size=len(vocab), n_labels=n_labels, d_model=16, n_heads=2,
                n_layers=1, d_ff=24, max_len=10, dropout_rate=0.0)
    base.update(kwargs)
    return ModelConfig(**base)


def test_val_metrics_match_one_row_passes():
    corpus = _tiny_corpus(n=40, seed=4)
    vocab = build_vocab(corpus)
    cfg = _model_for(corpus, vocab)
    params = init_param_views(cfg, seed=4)
    label_index = label_index_from_types(corpus.label_inventory)
    label_of = [TagLabel.from_tag(tag) for tag in label_index]
    records = encode_corpus(corpus, vocab, label_index)
    gold = [list(rec.labels) for rec in corpus.records]

    loss_sum, preds = 0.0, []
    for rec in records:
        logits, _ = forward(params, cfg, np.array([rec.token_ids]), need_trace=False)
        loss_sum += cross_entropy(logits, np.array(rec.label_ids), len(rec))[0] * len(rec)
        preds.append([label_of[i] for i in np.argmax(logits, axis=-1)])
    want_loss = loss_sum / sum(len(rec) for rec in records)

    loss, f1 = training._val_metrics(params, cfg, records, gold, label_of)
    # batched logits and one mean over all tokens: float32 rounding
    assert loss == pytest.approx(want_loss, rel=1e-5)
    assert f1 == span_metrics(preds, gold).micro.f1 > 0

    # a padded training batch: the losses of its shards' packed logits and
    # labels, each divided by the batch's token count, add up to the
    # token-weighted mean of the one-record losses
    (batch,) = make_batches(records, batch_size=len(records), seed=4)
    batch_loss = 0.0
    for shard in batch.shards:
        assert len(set(shard.attention_mask.sum(axis=1).tolist())) > 1
        logits, _ = forward(params, cfg, shard.token_ids, shard.attention_mask,
                            need_trace=False)
        batch_loss += cross_entropy(logits, shard.label_ids, batch.n_tokens)[0]
    assert batch_loss == pytest.approx(want_loss, rel=1e-5)


def test_train_loss_decreases_and_log_invariants():
    corpus = _tiny_corpus(12)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=20, seed=2)
    result = train(corpus, _tiny_corpus(4, seed=9), vocab, mc, tc)
    rows = result.log.rows
    assert [r.epoch for r in rows] == list(range(1, len(rows) + 1))
    assert rows[-1].train_loss < rows[0].train_loss
    lrs = [r.learning_rate for r in rows]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    for a, b in zip(lrs, lrs[1:]):
        assert b == a or b == pytest.approx(max(a * tc.decay_factor, tc.min_lr))


def test_train_deterministic_same_seed(tmp_path):
    corpus = _tiny_corpus(10)
    val = _tiny_corpus(4, seed=5)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=6, seed=3)
    r1 = train(corpus, val, vocab, mc, tc, out_dir=tmp_path / "1")
    r2 = train(corpus, val, vocab, mc, tc, out_dir=tmp_path / "2")
    assert r1.log == r2.log
    p1, p2 = (load_checkpoint_full(tmp_path / run / "final.ckpt").params for run in "12")
    for name in p1:
        assert p1[name].tobytes() == p2[name].tobytes()


def test_train_with_dropout_deterministic():
    corpus = _tiny_corpus(6)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab, dropout_rate=0.2)
    tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=4, seed=8)
    r1 = train(corpus, None, vocab, mc, tc)
    r2 = train(corpus, None, vocab, mc, tc)
    assert r1.log == r2.log


@one_thread
def test_forked_validation_trains_the_same_model(tmp_path, monkeypatch):
    corpus = _tiny_corpus(12)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=3, seed=2)
    val = _tiny_corpus(40, seed=9)
    monkeypatch.setattr(evaluation, "_BATCH_BYTES", 4096)  # at least 3 validation batches
    train(corpus, val, vocab, mc, tc, out_dir=tmp_path / "one")
    children = force_fork(monkeypatch)
    train(corpus, val, vocab, mc, tc, out_dir=tmp_path / "forked")
    # the training worker, and two children per validation pass
    assert len(children) == 1 + 2 * tc.max_epochs
    for name in ("trainlog.csv", "best.ckpt", "final.ckpt"):
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    assert_no_children()


# ---------------------------------------------------------------------------
# the training worker
# ---------------------------------------------------------------------------

TRAIN_OUTPUTS = ("best.ckpt", "final.ckpt", "trainlog.csv")


def _outputs(out_dir):
    return {name: (out_dir / name).read_bytes() for name in TRAIN_OUTPUTS}


def one_process(monkeypatch):
    """Train as on one CPU, as under `taskset -c 0`; returns refuse_fork's
    list of fork calls, which should stay empty."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    return refuse_fork(monkeypatch)


def _worker_case(n_records=9, batch_size=4, **model_kwargs):
    """A run whose last batch holds one record (9 = 4 + 4 + 1), so its last
    shard is empty, and whose validation pass stays in process."""
    corpus = _tiny_corpus(n_records)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab, **model_kwargs)
    tc = TrainConfig(learning_rate=1e-3, batch_size=batch_size, max_epochs=4, seed=5)
    return corpus, _tiny_corpus(4, seed=9), vocab, mc, tc


def _train_in_one_process(monkeypatch, out_dir, *args, **kwargs):
    with monkeypatch.context() as m:
        forks = one_process(m)
        result = train(*args, out_dir=out_dir, **kwargs)
    assert forks == []
    return result


@one_thread
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_the_training_worker_writes_the_bytes_of_one_process(tmp_path, monkeypatch, dropout):
    corpus, val, vocab, mc, tc = _worker_case(dropout_rate=dropout)
    _train_in_one_process(monkeypatch, tmp_path / "one", corpus, val, vocab, mc, tc)
    parent, real_forward, traced = os.getpid(), training.forward, []

    def forward_here(*args, **kwargs):
        if os.getpid() == parent and kwargs.get("need_trace", True):
            traced.append(args[2].shape[0])
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward", forward_here)
    children = force_fork(monkeypatch)
    train(corpus, val, vocab, mc, tc, out_dir=tmp_path / "worker")
    assert len(children) == 1
    assert _outputs(tmp_path / "worker") == _outputs(tmp_path / "one")
    # this process forwarded the first shard of every step, records 2, 2, 1,
    # and the worker every last shard
    assert traced == [2, 2, 1] * tc.max_epochs
    assert_no_children()


@one_thread
def test_batches_of_one_record_train_with_an_empty_last_shard(tmp_path, monkeypatch):
    corpus, val, vocab, mc, tc = _worker_case(n_records=5, batch_size=1)
    one = _train_in_one_process(monkeypatch, tmp_path / "one", corpus, None, vocab, mc, tc)
    losses = [row.train_loss for row in one.log.rows]
    assert losses[-1] < losses[0]
    children = force_fork(monkeypatch)
    train(corpus, None, vocab, mc, tc, out_dir=tmp_path / "worker")
    assert len(children) == 1
    assert _outputs(tmp_path / "worker") == _outputs(tmp_path / "one")
    assert_no_children()


@one_thread
def test_an_early_stop_reaps_the_worker(monkeypatch):
    corpus, _, vocab, mc, _ = _worker_case()
    tc = TrainConfig(learning_rate=1e-12, batch_size=4, max_epochs=50, seed=1,
                     early_stop_patience=4)
    children = force_fork(monkeypatch)
    result = train(corpus, None, vocab, mc, tc)
    assert len(result.log.rows) < tc.max_epochs
    assert len(children) == 1
    assert_no_children()


@one_thread
def test_a_divergence_abort_kills_the_worker_and_writes_the_one_process_bytes(
        tmp_path, monkeypatch):
    corpus, _, vocab, mc, _ = _worker_case(n_records=4)
    tc = TrainConfig(learning_rate=1e25, batch_size=4, max_epochs=30, seed=0)
    with pytest.raises(NumericalError) as one:
        _train_in_one_process(monkeypatch, tmp_path / "one", corpus, None, vocab, mc, tc)
    children = force_fork(monkeypatch)
    with pytest.raises(NumericalError) as forked:
        train(corpus, None, vocab, mc, tc, out_dir=tmp_path / "worker")
    assert str(forked.value) == str(one.value)
    assert _outputs(tmp_path / "worker") == _outputs(tmp_path / "one")
    assert len(children) == 1
    assert_no_children()


@one_thread
def test_a_shard_the_worker_fails_on_is_computed_here(tmp_path, monkeypatch):
    """The worker raises on its third shard and exits: this process
    computes that shard and every last shard after it, with the bytes of
    one process."""
    corpus, val, vocab, mc, tc = _worker_case()
    _train_in_one_process(monkeypatch, tmp_path / "one", corpus, val, vocab, mc, tc)
    parent, real_backward = os.getpid(), training.backward
    worker_calls, here = [], []

    def backward_failing_in_the_worker(params, config, trace, dlogits, grads):
        if os.getpid() != parent:
            worker_calls.append(1)
            if len(worker_calls) == 3:
                raise MemoryError("the worker's shard failed")
        else:
            here.append(1)
        real_backward(params, config, trace, dlogits, grads)

    monkeypatch.setattr(training, "backward", backward_failing_in_the_worker)
    children = force_fork(monkeypatch)
    train(corpus, val, vocab, mc, tc, out_dir=tmp_path / "worker")
    assert _outputs(tmp_path / "worker") == _outputs(tmp_path / "one")
    assert len(children) == 1
    # 12 steps: 12 first shards and 8 non-empty last shards, the worker's
    # first two of which it finished
    assert len(here) == 12 + 8 - 2
    assert_no_children()


@one_thread
def test_an_interrupt_kills_and_reaps_the_worker(monkeypatch):
    corpus, val, vocab, mc, tc = _worker_case()

    def interrupt(row):
        raise KeyboardInterrupt

    children = force_fork(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        train(corpus, val, vocab, mc, tc, progress=interrupt)
    assert len(children) == 1
    assert_no_children()


def test_a_process_running_another_thread_trains_in_process(tmp_path, monkeypatch):
    corpus, val, vocab, mc, tc = _worker_case()
    _train_in_one_process(monkeypatch, tmp_path / "one", corpus, val, vocab, mc, tc)
    force_fork(monkeypatch)
    forks = refuse_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        train(corpus, val, vocab, mc, tc, out_dir=tmp_path / "threads")
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert _outputs(tmp_path / "threads") == _outputs(tmp_path / "one")


_KILLED_TRAINER = """
import os, sys, time
from medner.corpus import build_vocab, gen_synthetic, label_index_from_types
from medner.model import ModelConfig
from medner.training import TrainConfig, train

os.sched_getaffinity = lambda pid: {0, 1}
real_fork, children = os.fork, []

def fork():
    pid = real_fork()
    if pid:
        children.append(pid)
        print(pid, flush=True)
    return pid

def wait_to_be_killed(row):
    if not children:
        sys.exit("no worker was forked")
    time.sleep(600)

os.fork = fork
corpus = gen_synthetic(8, ["D", "G"], vocab_size=30, max_len=8, seed=1)
vocab = build_vocab(corpus)
n_labels = len(label_index_from_types(corpus.label_inventory))
mc = ModelConfig(vocab_size=len(vocab), n_labels=n_labels, d_model=16, n_heads=2,
                 n_layers=1, d_ff=24, max_len=10, dropout_rate=0.0)
train(corpus, None, vocab, mc, TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=2),
      progress=wait_to_be_killed)
"""


def _running(pid):
    """Whether `pid` runs: not once it has exited, as a zombie or reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@one_thread
def test_the_worker_exits_when_the_training_process_is_killed():
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_TRAINER], stdout=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    try:
        worker = int(proc.stdout.readline())
    finally:
        proc.kill()  # SIGKILL: no code of train runs after it
        proc.wait(timeout=30)
        proc.stdout.close()
    deadline = time.monotonic() + 30
    while _running(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        assert not _running(worker)
    finally:
        if _running(worker):
            os.kill(worker, signal.SIGKILL)


def test_train_no_val_falls_back_with_warning(caplog):
    corpus = _tiny_corpus(6)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=3, seed=1)
    with caplog.at_level(logging.WARNING):
        result = train(corpus, None, vocab, mc, tc)
    assert any("fall back" in r.message for r in caplog.records)
    assert all(math.isnan(r.val_loss) and math.isnan(r.val_span_f1)
               for r in result.log.rows)
    # best selection fell back to train loss
    best_by_loss = min(result.log.rows, key=lambda r: r.train_loss)
    assert result.best_epoch == best_by_loss.epoch


def test_train_best_checkpoint_highest_val_f1():
    corpus = _tiny_corpus(12)
    val = _tiny_corpus(5, seed=4)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=10, seed=6)
    result = train(corpus, val, vocab, mc, tc)
    f1s = [r.val_span_f1 for r in result.log.rows]
    assert result.best_epoch == f1s.index(max(f1s)) + 1


def test_train_best_epoch_is_the_earliest_of_a_val_f1_tie(tmp_path, monkeypatch):
    """Validation span-F1 of 0.5, 0.8, 0.8, 0.6: the best checkpoint is
    epoch 2's, as the final checkpoint of a two-epoch run holds it."""
    corpus = _tiny_corpus(12)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    for epochs in (4, 2):
        scripted = iter([(1.0, 0.5), (0.9, 0.8), (0.8, 0.8), (0.7, 0.6)])
        monkeypatch.setattr(training, "_val_metrics", lambda *args: next(scripted))
        tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=epochs, seed=6)
        result = train(corpus, _tiny_corpus(5, seed=4), vocab, mc, tc,
                       out_dir=tmp_path / str(epochs))
        assert result.best_epoch == 2
    assert (tmp_path / "4" / "best.ckpt").read_bytes() == \
        (tmp_path / "2" / "final.ckpt").read_bytes()


def test_train_loss_is_the_token_weighted_mean_of_the_batch_losses(tmp_path, monkeypatch):
    """trainlog.csv's train_loss is the mean loss per token of the epoch:
    its batches' losses weighted by their token counts, not by their
    record counts (10 records in batches of 3, 3, 3 and 1)."""
    corpus = _tiny_corpus(10)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    tc = TrainConfig(learning_rate=1e-3, batch_size=3, max_epochs=1, seed=2)
    losses = []  # (loss, the batch's token count) per shard

    def recording(logits, labels, n_tokens):
        loss, dlogits = cross_entropy(logits, labels, n_tokens)
        losses.append((loss, n_tokens))
        return loss, dlogits

    monkeypatch.setattr(training, "cross_entropy", recording)
    one_process(monkeypatch)  # every shard's loss is computed here
    train(corpus, None, vocab, mc, tc, out_dir=tmp_path)
    shards = iter(losses)
    # the one-record batch's second shard is empty and computes no loss
    batches = [[next(shards) for _ in range(k)] for k in (2, 2, 2, 1)]
    assert next(shards, None) is None
    batch_losses = [(sum(loss for loss, _ in b), b[0][1]) for b in batches]
    per_token = sum(loss * n for loss, n in batch_losses) / sum(n for _, n in batch_losses)
    per_record = sum(loss * r for (loss, _), r in zip(batch_losses, [3, 3, 3, 1])) / 10
    logged = (tmp_path / "trainlog.csv").read_text().splitlines()[1].split(",")[1]
    assert f"{per_record:.6g}" != f"{per_token:.6g}" == logged


def test_train_early_stop():
    corpus = _tiny_corpus(6)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    # lr so small that nothing improves: the stagnation counter should end it
    tc = TrainConfig(learning_rate=1e-12, batch_size=4, max_epochs=50, seed=1,
                     early_stop_patience=4)
    result = train(corpus, None, vocab, mc, tc)
    losses = [r.train_loss for r in result.log.rows]
    want = plateau_schedule(losses, tc.learning_rate, tc.decay_factor,
                            tc.decay_patience, tc.min_lr)
    counts = [count for count, _ in want]
    assert len(losses) == next(k + 1 for k, c in enumerate(counts)
                               if c >= tc.early_stop_patience)
    # 1e-12 is below min_lr: the floor must not raise it
    assert all(r.learning_rate == 1e-12 for r in result.log.rows)


def test_train_divergence_retains_last_good(tmp_path):
    corpus = _tiny_corpus(4)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    tc = TrainConfig(learning_rate=1e25, batch_size=4, max_epochs=30, seed=0)
    # and no RuntimeWarning, which fails a test
    with pytest.raises(NumericalError, match=r"^training diverged at epoch \d+ \(non-finite"):
        train(corpus, None, vocab, mc, tc, out_dir=tmp_path)
    assert (tmp_path / "final.ckpt").exists()
    assert (tmp_path / "best.ckpt").exists()
    assert (tmp_path / "trainlog.csv").exists()


def test_train_divergence_names_nonfinite_gradient_tensor(tmp_path, monkeypatch):
    real_backward = training.backward

    def poisoned_backward(*args):
        real_backward(*args)
        grads = args[-1]
        grads["enc.0.ff.b1"][2] = np.nan

    monkeypatch.setattr(training, "backward", poisoned_backward)
    corpus = _tiny_corpus(4)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    tc = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=2, seed=0)
    with pytest.raises(NumericalError, match="^training diverged at epoch 1 "
                       r"\(non-finite gradient in tensor 'enc.0.ff.b1'\)"):
        train(corpus, None, vocab, mc, tc, out_dir=tmp_path)
    # nothing was stepped: the retained checkpoint is the initialization
    saved = load_checkpoint_full(tmp_path / "final.ckpt").params
    for name, arr in init_param_views(mc, seed=tc.seed).items():
        np.testing.assert_array_equal(saved[name], arr)


def test_train_validates_label_space():
    corpus = _tiny_corpus(6)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    bad = ModelConfig(**{**mc.to_dict(), "n_labels": 2})
    with pytest.raises(ValueError, match="n_labels"):
        train(corpus, None, vocab, bad, TrainConfig(learning_rate=1e-3, max_epochs=1))


@pytest.mark.parametrize("split", ["train", "validation"])
def test_train_over_length_record_names_it_and_its_split(split):
    short = parse_conll("# id: short\nx\tB-D\ny\tO\n")
    long = parse_conll("# id: long\nx\tB-D\n" + "y\tO\n" * 5)
    train_c, val_c = (long, short) if split == "train" else (short, long)
    vocab = build_vocab(train_c)
    mc = _model_for(train_c, vocab, max_len=5)
    with pytest.raises(FormatError, match=f"^{split} record 'long' has 6 tokens "
                                          "but max_len is 5$"):
        train(train_c, val_c, vocab, mc, TrainConfig(max_epochs=1))


def test_train_overfit_small_batch():
    """Loss collapses on a fixed tiny batch (short version of the full
    500-epoch acceptance run)."""
    corpus = gen_synthetic(4, ["D"], vocab_size=25, max_len=8, seed=3)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    tc = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=150, seed=4)
    result = train(corpus, None, vocab, mc, tc)
    assert result.log.rows[-1].train_loss < 0.05


def test_positions_stay_sinusoidal(tmp_path):
    """Training has no position table to move: the trained parameters are
    the learned tensors only, and forward still adds the first T rows of
    the sinusoidal table to the token embeddings."""
    corpus = _tiny_corpus(6)
    vocab = build_vocab(corpus)
    mc = _model_for(corpus, vocab)
    tc = TrainConfig(learning_rate=1e-2, batch_size=4, max_epochs=3, seed=1)
    train(corpus, None, vocab, mc, tc, out_dir=tmp_path)
    trained = load_checkpoint_full(tmp_path / "final.ckpt").params
    fresh = init_param_views(mc, seed=tc.seed)
    assert list(trained) == list(param_shapes(mc)) == list(fresh)
    assert not np.array_equal(trained["emb.tok"], fresh["emb.tok"])
    ids = np.array([[2, 3, 4]])
    _, trace = forward(trained, mc, ids)
    x = trained["emb.tok"][ids] + sinusoidal_positions(3, mc.d_model)
    h, _, _ = layer_norm(x, trained["enc.0.ln1.g"], trained["enc.0.ln1.b"])
    assert trace.layers[0].attn.x.tobytes() == h.tobytes()


# ---------------------------------------------------------------------------
# TrainLog CSV
# ---------------------------------------------------------------------------


def test_trainlog_csv_roundtrip():
    log = TrainLog([
        TrainLogRow(1, 1.234567, 1.5, 0.25, 1e-3),
        TrainLogRow(2, 0.9, math.nan, math.nan, 5e-4),
    ])
    assert log.to_csv().splitlines() == [
        "epoch,train_loss,val_loss,val_span_f1,lr",
        "1,1.23457,1.5,0.25,0.001",
        "2,0.9,nan,nan,0.0005",
    ]


def test_trainconfig_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(decay_factor=1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="early_stop_patience"):
        TrainConfig(early_stop_patience=0)
    with pytest.raises(ValueError, match="grad_clip_norm"):
        TrainConfig(grad_clip_norm=0.0)

"""Model module: softmax, the attention oracle, forward pass, the
sublayers' backward functions against finite differences,
initialization, and the checkpoint format.

Numerical reference values were computed with an independent
high-precision (mpmath) script and frozen here.
"""

import hashlib
import json
import math
import re

import numpy as np
import pytest

from medner.errors import CheckpointError
from medner.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    LAYER_KEYS,
    ModelConfig,
    ParamLayout,
    affine,
    affine_backward,
    attention,
    attention_backward,
    feed_forward,
    feed_forward_backward,
    forward,
    gelu,
    gelu_grad,
    init_params,
    layer_norm,
    layer_norm_backward,
    layer_tensors,
    load_checkpoint_full,
    pad_rows,
    param_shapes,
    predict_labels,
    save_checkpoint,
    sinusoidal_positions,
    softmax,
)

from helpers import init_param_views, matvec_row_means, matvec_row_sums
from oracles import finite_difference_grads, max_relative_error, reference_attention

# softmax([1, 2, 3]) evaluated at 40 decimal digits
SOFTMAX_123 = [0.090030573170380458, 0.24472847105479765, 0.66524095577482189]
# rowsoftmax(I / sqrt(2)) diagonal/off-diagonal entries, same precision
ATTN_DIAG = 0.66976154932665693
ATTN_OFF = 0.33023845067334307


def tiny_config(**kwargs):
    base = dict(vocab_size=13, n_labels=4, d_model=8, n_heads=2, n_layers=1,
                d_ff=12, max_len=6, dropout_rate=0.0)
    base.update(kwargs)
    return ModelConfig(**base)


# An inventory that fits tiny_config(n_labels=3): 13 tokens, and the tags
# O, B-Drug, I-Drug
TINY_VOCAB = ["<PAD>", "<UNK>"] + [f"w{i}" for i in range(11)]
TINY_LABELS = ["Drug"]


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_uniform_cases():
    np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-12)
    np.testing.assert_allclose(softmax(np.array([5.0, 5.0])), [0.5, 0.5], atol=1e-12)


def test_softmax_reference_values():
    np.testing.assert_allclose(softmax(np.array([1.0, 2.0, 3.0])), SOFTMAX_123,
                               atol=1e-12)


def test_softmax_properties_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = rng.normal(scale=10, size=rng.integers(1, 9))
        p = softmax(z)
        assert (p > 0).all() and (p < 1 + 1e-12).all()
        assert abs(p.sum() - 1.0) < 1e-6
        np.testing.assert_allclose(p, softmax(z + rng.normal(scale=100)), atol=1e-6)


def test_softmax_extreme_inputs_stable():
    p = softmax(np.array([1e9, 0.0]))
    assert np.isfinite(p).all() and abs(p.sum() - 1) < 1e-9


def test_softmax_empty_errors():
    with pytest.raises(ValueError):
        softmax(np.array([]))


def np_max_softmax(z):
    """softmax with np.max as the stabiliser and the matvec row sum as the
    denominator; also checked close to the float64 textbook form."""
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    want = e / matvec_row_sums(e)
    z64 = z.astype(np.float64)
    e64 = np.exp(z64 - np.max(z64, axis=-1, keepdims=True))
    np.testing.assert_allclose(want, e64 / np.sum(e64, axis=-1, keepdims=True),
                               rtol=64 * np.finfo(z.dtype).eps, atol=1e-300)
    return want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(40, 7), (1, 7), (40, 1), (7,)])
def test_softmax_on_logit_shapes_takes_the_max_of_np_max(dtype, shape):
    """The row max of cross_entropy's N x n_labels logits, of one row and at
    width 1, with a NaN, -inf logits and signed-zero rows: the output has
    the bits of the np.max form."""
    rng = np.random.default_rng(5)
    z = rng.normal(scale=6.0, size=shape).astype(dtype)
    rows = z.reshape(-1, shape[-1])
    if len(rows) > 3:
        rows[0, rng.integers(shape[-1])] = np.nan
        rows[1, 1:][rng.random(shape[-1] - 1) < 0.5] = -np.inf  # not the whole row
        rows[2] = np.where(rng.random(shape[-1]) < 0.5, -0.0, 0.0)
        rows[3] = -0.0
    got = softmax(z)
    assert got.dtype == dtype and got.shape == shape
    assert got.tobytes() == np_max_softmax(z).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_matches_the_np_max_form_bit_for_bit(dtype):
    """softmax takes the row max over a transposed copy and the row sum as
    a matvec; it must give the bits of that formula, on every key length
    forward can see, with masked -inf keys, signed zeros and a NaN row."""
    rng = np.random.default_rng(3)
    for n in range(1, 34):
        z = rng.normal(scale=4.0, size=(3, 2, 5, n)).astype(dtype)
        z[0, 0, :, rng.random(n) < 0.3] = -np.inf
        z[0, 0, :, 0] = 0.0
        z[1, 0] = np.where(rng.random((5, n)) < 0.5, -0.0, 0.0)
        z[1, 1, 0, rng.integers(n)] = np.nan
        z[2, 1, :, rng.integers(n)] = 1e30
        got, want = softmax(z), np_max_softmax(z)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes(), bit_differences(got, want, n)


def bit_differences(got: np.ndarray, want: np.ndarray, n: int) -> str:
    """The key length, then each element whose bits differ: its index and
    the bytes of both values, in hex."""
    uint = np.dtype(f"u{got.itemsize}")
    diff = np.argwhere(np.ascontiguousarray(got).view(uint)
                       != np.ascontiguousarray(want).view(uint))
    return f"n={n}, {len(diff)} differ: " + "; ".join(
        f"{tuple(i.tolist())} got {got[tuple(i)].tobytes().hex()} "
        f"want {want[tuple(i)].tobytes().hex()}" for i in diff)


# ---------------------------------------------------------------------------
# attention: the reference oracle that forward's batched heads are checked
# against
# ---------------------------------------------------------------------------


def test_attention_single_row_is_identity():
    v = np.array([[3.0, -1.0, 2.0]])
    out, w = reference_attention(np.array([[0.5]]), np.array([[2.0]]), v)
    np.testing.assert_allclose(out, v, atol=1e-12)
    np.testing.assert_allclose(w, [[1.0]], atol=1e-12)


def test_attention_identical_keys_average_values():
    k = np.ones((4, 3))
    q = np.random.default_rng(1).normal(size=(2, 3))
    v = np.arange(12.0).reshape(4, 3)
    out, _ = reference_attention(q, k, v)
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-9)


def test_attention_reference_2x2():
    eye = np.eye(2)
    out, w = reference_attention(eye, eye, eye)
    expected = np.array([[ATTN_DIAG, ATTN_OFF], [ATTN_OFF, ATTN_DIAG]])
    np.testing.assert_allclose(w, expected, atol=1e-12)
    np.testing.assert_allclose(out, expected, atol=1e-12)  # V = I


def test_attention_mask_zeroes_keys():
    rng = np.random.default_rng(2)
    q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
    mask = np.array([True, False, True, False, True])
    out, w = reference_attention(q, k, v, mask)
    w = np.array(w)
    assert (w[:, ~mask] == 0.0).all()
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_allclose(out, w[:, mask] @ v[mask], atol=1e-12)


def test_attention_all_masked_errors():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="all positions masked"):
        reference_attention(eye, eye, eye, np.array([False, False]))


def test_attention_shape_mismatch():
    with pytest.raises(ValueError):
        reference_attention(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        reference_attention(np.ones((2, 3)), np.ones((4, 3)), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# gelu
# ---------------------------------------------------------------------------


def gelu_reference(x):
    """tanh-approximate GELU and its derivative, one float64 element at a time."""
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    out, grad = [], []
    for v in np.asarray(x, dtype=np.float64).tolist():
        t = math.tanh(c * (v + a * v**3))
        out.append(0.5 * v * (1.0 + t))
        grad.append(0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * c * (1.0 + 3.0 * a * v * v))
    return np.array(out), np.array(grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_and_grad_match_scalar_reference(dtype):
    # 1 + tanh cancels for negative x, so the error is absolute there
    eps = np.finfo(dtype).eps
    x = np.linspace(-8, 8, 4001).astype(dtype)
    ref, ref_grad = gelu_reference(x)
    y, t = gelu(x)
    for name, got, want in (("gelu", y, ref), ("gelu_grad", gelu_grad(x, t), ref_grad)):
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=8 * eps, atol=64 * eps, err_msg=name)


def test_gelu_grad_matches_central_differences():
    x = np.linspace(-5, 5, 101)
    h = 1e-5
    numeric = (gelu(x + h)[0] - gelu(x - h)[0]) / (2 * h)
    np.testing.assert_allclose(gelu_grad(x, gelu(x)[1]), numeric, rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_saturates_finite(dtype):
    x = np.array([-30, -10, 10, 30], dtype=dtype)
    y, t = gelu(x)
    np.testing.assert_array_equal(y, [0, 0, 10, 30])
    np.testing.assert_array_equal(gelu_grad(x, t), [0, 0, 1, 1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_ops_give_the_bits_of_their_formulas(dtype):
    """gelu, gelu_grad and layer_norm compute in place; every element must
    equal the plain numpy expression of the same formula, its means the
    matvecs of tests/helpers.py."""
    rng = np.random.default_rng(8)
    x = (rng.normal(size=(3, 5, 24)) * rng.choice([1e-3, 1.0, 8.0], size=(3, 5, 1))).astype(dtype)
    x[0, 0] = 2.5  # a constant row
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (x + a * (x * x * x)))
    y, got_t = gelu(x)
    assert got_t.tobytes() == t.tobytes()
    assert y.tobytes() == (0.5 * x * (1.0 + t)).tobytes()
    want = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * c * (1.0 + 3.0 * a * (x * x))
    assert gelu_grad(x, t).tobytes() == want.tobytes()

    gain = rng.normal(size=24).astype(dtype)
    bias = rng.normal(size=24).astype(dtype)
    centered = x - matvec_row_means(x)
    inv = 1.0 / np.sqrt(matvec_row_means(centered**2) + 1e-5)
    x_hat = centered * inv
    x64 = x.astype(np.float64)
    centered64 = x64 - x64.mean(axis=-1, keepdims=True)
    x_hat64 = centered64 / np.sqrt((centered64**2).mean(axis=-1, keepdims=True) + 1e-5)
    np.testing.assert_allclose(x_hat, x_hat64, rtol=0, atol=256 * np.finfo(dtype).eps)
    for got, want in zip(layer_norm(x, gain, bias), (gain * x_hat + bias, x_hat, inv)):
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_forward_keeps_the_gelu_tanh_of_each_layer():
    cfg = ModelConfig(vocab_size=9, n_labels=3, d_model=8, n_heads=2, n_layers=2,
                      d_ff=12, max_len=5, dropout_rate=0.0)
    params = init_param_views(cfg, seed=2)
    _, trace = forward(params, cfg, np.array([[1, 2, 3], [4, 5, 6]]))
    for lt in trace.layers:
        act, t = gelu(lt.ff.u)
        assert lt.ff.act.tobytes() == act.tobytes()
        assert lt.ff.gelu_tanh.tobytes() == t.tobytes()


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


def test_init_deterministic():
    cfg = tiny_config()
    a = init_params(cfg, seed=5)
    assert a.shape == (ParamLayout(cfg).size,) and a.dtype == np.float32
    assert a.tobytes() == init_params(cfg, seed=5).tobytes()
    assert a.tobytes() != init_params(cfg, seed=6).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_draws_each_tensor_in_float64_in_layout_order(dtype):
    """The vector holds, tensor by tensor in param_shapes order, the
    float64 Glorot draws of one generator cast to dtype, ones for the
    gains and zeros for the biases."""
    cfg = tiny_config(n_layers=2)
    rng = np.random.default_rng(8)
    want = []
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 2:
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            want.append(rng.uniform(-bound, bound, size=shape).astype(dtype).ravel())
        else:
            want.append(np.full(shape, 1.0 if name.endswith(".g") else 0.0, dtype=dtype))
    assert init_params(cfg, seed=8, dtype=dtype).tobytes() == np.concatenate(want).tobytes()


def test_init_biases_zero_gains_one():
    params = init_param_views(tiny_config(), seed=0)
    for name, arr in params.items():
        if arr.ndim == 1 and not name.endswith(".g"):
            assert not arr.any(), name
        if name.endswith(".g"):
            assert (arr == 1.0).all(), name


def test_init_weight_bounds():
    cfg = tiny_config()
    params = init_param_views(cfg, seed=3)
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 2:
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            assert (np.abs(params[name]) <= bound).all(), name


def test_position_table_is_shared_read_only_and_prefix_exact():
    """forward slices one table per (max_len, d_model, dtype): it must be
    read-only, and its first t rows must be the table of length t."""
    for d in (6, 8, 64):
        for dtype in (np.float32, np.float64):
            table = sinusoidal_positions(40, d, dtype)
            assert sinusoidal_positions(40, d, dtype) is table
            assert table.dtype == dtype and table.shape == (40, d)
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0
            for t in range(1, 41):
                assert table[:t].tobytes() == sinusoidal_positions(t, d, dtype).tobytes(), (d, t)


def test_layer_tensors_are_the_prefixed_entries_of_each_layer():
    cfg = tiny_config(n_layers=3)
    params = init_param_views(cfg, seed=1)
    for layer in range(cfg.n_layers):
        pfx = f"enc.{layer}."
        want = {name[len(pfx):]: params[name] for name in param_shapes(cfg)
                if name.startswith(pfx)}
        got = layer_tensors(params, layer)
        assert list(got) == list(want) and len(got) == len(LAYER_KEYS)
        assert all(got[key] is want[key] for key in want)


def test_positional_row_zero_pattern():
    pe = sinusoidal_positions(4, 8)
    np.testing.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-7)
    # the table is a function of the config, not a parameter
    assert "emb.pos" not in init_param_views(tiny_config(), seed=1)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_logit_shape():
    cfg = tiny_config(n_labels=4)
    params = init_param_views(cfg, seed=0)
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(2, 5))
    logits, trace = forward(params, cfg, ids)
    assert logits.shape == (10, 4)
    assert trace.final.shape == (10, cfg.d_model)
    assert trace.mask.all()


def test_forward_batch_permutation_equivariant():
    cfg = tiny_config()
    params = init_param_views(cfg, seed=1)
    rng = np.random.default_rng(4)
    ids = rng.integers(0, cfg.vocab_size, size=(3, 4))
    mask = np.ones((3, 4), dtype=bool)
    logits, _ = forward(params, cfg, ids, mask)
    perm = [2, 0, 1]
    logits_p, _ = forward(params, cfg, ids[perm], mask[perm])
    np.testing.assert_array_equal(logits_p.reshape(3, 4, -1), logits.reshape(3, 4, -1)[perm])


def test_forward_no_cross_record_mixing():
    cfg = tiny_config()
    params = init_param_views(cfg, seed=1)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, cfg.vocab_size, size=(2, 4))
    logits, _ = forward(params, cfg, ids)
    other = ids.copy()
    other[1] = (other[1] + 3) % cfg.vocab_size
    logits2, _ = forward(params, cfg, other)
    np.testing.assert_array_equal(logits2[:4], logits[:4])
    assert not np.array_equal(logits2[4:], logits[4:])


def _ragged_batch(cfg, seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, cfg.vocab_size, size=(4, 5))
    mask = np.arange(5) < np.array([[3], [5], [1], [4]])
    return ids, mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_padded_batch_matches_one_row_passes(dtype):
    """Each record's rows of the packed logits of a padded, traced batch
    are the logits of the record run alone."""
    cfg = tiny_config(n_layers=2)
    params = init_param_views(cfg, seed=3, dtype=dtype)
    ids, mask = _ragged_batch(cfg, 8)
    logits, trace = forward(params, cfg, ids, mask, need_trace=True)
    assert trace.final.shape == (mask.sum(), cfg.d_model)
    assert logits.shape == (mask.sum(), cfg.n_labels)
    start = 0
    for i, n in enumerate(mask.sum(axis=1)):
        alone, _ = forward(params, cfg, ids[i:i + 1, :n], need_trace=False)
        np.testing.assert_allclose(logits[start:start + n], alone,
                                   rtol=1e-5 if dtype == np.float32 else 1e-12, atol=1e-6)
        start += n


@pytest.mark.parametrize("need_trace", [True, False])
def test_forward_logits_are_one_row_per_real_token(need_trace):
    """Padded positions have no logits; with or without a trace, the packed
    rows are the same."""
    cfg = tiny_config()
    params = init_param_views(cfg, seed=4)
    ids, mask = _ragged_batch(cfg, 9)
    logits, _ = forward(params, cfg, ids, mask, need_trace=need_trace)
    assert logits.shape == (mask.sum(), cfg.n_labels)
    assert logits.all()
    other, _ = forward(params, cfg, ids, mask, need_trace=not need_trace)
    assert other.tobytes() == logits.tobytes()


def test_forward_zero_params_uniform():
    cfg = tiny_config()
    params = {name: np.zeros(shape, dtype=np.float32)
              for name, shape in param_shapes(cfg).items()}
    ids = np.zeros((1, 3), dtype=int)
    logits, _ = forward(params, cfg, ids)
    assert not logits.any()
    np.testing.assert_allclose(softmax(logits), 1.0 / cfg.n_labels, atol=1e-7)


def test_forward_attention_rows_stochastic_and_masked():
    cfg = tiny_config(n_layers=2)
    params = init_param_views(cfg, seed=2)
    ids = np.random.default_rng(6).integers(0, cfg.vocab_size, size=(3, 5))
    mask = np.ones((3, 5), dtype=bool)
    mask[1, 3:] = False
    mask[2, 1:] = False
    _, trace = forward(params, cfg, ids, mask)
    for lt in trace.layers:
        sums = lt.attn.probs.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        assert (lt.attn.probs[1, :, :, 3:] < 1e-12).all()
        assert (lt.attn.probs[2, :, :, 1:] < 1e-12).all()


def test_forward_attention_matches_reference():
    """The batched multi-head computation must agree with the reference
    attention applied per record and head."""
    cfg = tiny_config(n_layers=1, n_heads=2)
    params = init_param_views(cfg, seed=7, dtype=np.float64)
    rng = np.random.default_rng(7)
    ids = rng.integers(0, cfg.vocab_size, size=(2, 4))
    mask = np.ones((2, 4), dtype=bool)
    mask[0, 2:] = False
    _, trace = forward(params, cfg, ids, mask)
    lt = trace.layers[0].attn
    merged = (lt.probs @ lt.v)
    for b in range(2):
        for h in range(cfg.n_heads):
            ref, weights = reference_attention(lt.q[b, h], lt.k[b, h], lt.v[b, h], mask[b])
            np.testing.assert_allclose(lt.probs[b, h], weights, atol=1e-12)
            np.testing.assert_allclose(merged[b, h], ref, atol=1e-12)


def test_forward_deterministic_with_and_without_dropout():
    cfg = tiny_config(dropout_rate=0.3)
    params = init_param_views(cfg, seed=0)
    ids = np.random.default_rng(1).integers(0, cfg.vocab_size, size=(2, 4))
    plain1, _ = forward(params, cfg, ids)
    plain2, _ = forward(params, cfg, ids)
    np.testing.assert_array_equal(plain1, plain2)
    drop1, _ = forward(params, cfg, ids, dropout_rng=np.random.default_rng(9))
    drop2, _ = forward(params, cfg, ids, dropout_rng=np.random.default_rng(9))
    np.testing.assert_array_equal(drop1, drop2)
    assert not np.array_equal(drop1, plain1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_dropout_masks_are_inverted(dtype):
    """Each dropout mask in a forward trace holds only 0 and 1/(1 - rate),
    so a layer's expected output is unchanged: over the 98k attention and
    49k feed-forward entries here, a mask's mean is 1 within 0.03, more
    than ten standard deviations."""
    rate = 0.25
    cfg = tiny_config(dropout_rate=rate, max_len=64, d_ff=64)
    params = init_param_views(cfg, seed=0, dtype=dtype)
    ids = np.random.default_rng(2).integers(0, cfg.vocab_size, size=(12, 64))
    _, trace = forward(params, cfg, ids, dropout_rng=np.random.default_rng(5))
    keep = dtype(1) / dtype(1 - rate)
    for layer in trace.layers:
        for drop in (layer.attn.drop, layer.ff.drop):
            assert drop.dtype == dtype
            assert np.unique(drop).tolist() == [0.0, keep]
            assert abs(drop.mean() - 1.0) < 0.03, drop.mean()


def test_forward_input_validation():
    cfg = tiny_config()
    params = init_param_views(cfg, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        forward(params, cfg, np.full((1, 2), cfg.vocab_size))
    with pytest.raises(ValueError, match="all positions masked"):
        forward(params, cfg, np.zeros((1, 2), dtype=int),
                np.zeros((1, 2), dtype=bool))


def test_pad_rows_builds_the_input_of_forward():
    """Rows in order, each filled with PAD (id 0) up to the longest, and
    the mask False exactly at the fill."""
    ids, mask = pad_rows([[5, 6], [7], [8, 9, 10]])
    assert ids.dtype == np.int64 and mask.dtype == bool
    np.testing.assert_array_equal(ids, [[5, 6, 0], [7, 0, 0], [8, 9, 10]])
    np.testing.assert_array_equal(mask, [[1, 1, 0], [1, 0, 0], [1, 1, 1]])


# ---------------------------------------------------------------------------
# sublayer backward functions against central differences, in float64
# ---------------------------------------------------------------------------


def assert_backward_matches_finite_differences(run, back, x, params):
    """`run(x, params)` is a sublayer's forward returning (y, record) and
    `back(dy, record, params, grads)` its backward. For the loss sum(y * r)
    with a fixed random r, the gradients that back writes into grads (all
    NaN before, so every element must be written) and the input gradient
    it returns must match central differences."""
    y, record = run(x, params)
    r = np.random.default_rng(0).normal(size=y.shape)
    grads = {name: np.full_like(arr, np.nan) for name, arr in params.items()}
    dx = back(r, record, params, grads)
    fd = finite_difference_grads(lambda t: float((run(t["x"], params)[0] * r).sum()),
                                 {"x": x, **params})
    for name, got in {"x": dx, **grads}.items():
        err = max_relative_error(got, fd[name])
        assert err < 1e-5, (name, err)


def random_tensors(rng, **shapes):
    """Normal tensors by name, "_" in a keyword read as ".": attn_wq -> attn.wq."""
    return {name.replace("_", "."): rng.normal(size=shape) for name, shape in shapes.items()}


def test_affine_backward_matches_finite_differences():
    rng = np.random.default_rng(31)
    assert_backward_matches_finite_differences(
        lambda x, p: (affine(x, p["w"], p["b"]), x),
        lambda dy, x, p, g: affine_backward(dy, x, p["w"], g["w"], g["b"]),
        rng.normal(size=(5, 6)), random_tensors(rng, w=(6, 4), b=(4,)))


def test_layer_norm_backward_matches_finite_differences():
    def run(x, p):
        y, x_hat, inv = layer_norm(x, p["g"], p["b"])
        return y, (x_hat, inv)

    rng = np.random.default_rng(32)
    assert_backward_matches_finite_differences(
        run, lambda dy, rec, p, g: layer_norm_backward(dy, *rec, p["g"], g["g"], g["b"]),
        rng.normal(size=(5, 8)), random_tensors(rng, g=(8,), b=(8,)))


def test_attention_backward_on_a_padded_batch_with_dropout_matches_finite_differences():
    """Records of lengths 4, 2 and 3 padded to 4, and one fixed dropout
    mask on the probabilities: the packed rows, the -inf mask on the keys
    and the dropped probabilities all take part."""
    rng = np.random.default_rng(33)
    mask = np.arange(4) < np.array([[4], [2], [3]])
    drop = (rng.random((3, 2, 4, 4)) >= 0.25) / 0.75
    assert (drop == 0).any()
    params = random_tensors(rng, attn_wq=(8, 8), attn_wk=(8, 8), attn_wv=(8, 8),
                            attn_wo=(8, 8), attn_bq=(8,), attn_bv=(8,), attn_bo=(8,))
    assert_backward_matches_finite_differences(
        lambda x, p: attention(x, p, mask, 2, dropout=lambda shape: drop),
        attention_backward, rng.normal(size=(int(mask.sum()), 8)), params)


def test_feed_forward_backward_with_dropout_matches_finite_differences():
    rng = np.random.default_rng(34)
    drop = (rng.random((5, 12)) >= 0.25) / 0.75
    assert (drop == 0).any()
    params = random_tensors(rng, ff_w1=(8, 12), ff_b1=(12,), ff_w2=(12, 8), ff_b2=(8,))
    assert_backward_matches_finite_differences(
        lambda x, p: feed_forward(x, p, dropout=lambda shape: drop),
        feed_forward_backward, rng.normal(size=(5, 8)), params)


# ---------------------------------------------------------------------------
# predict_labels
# ---------------------------------------------------------------------------


def test_predict_labels_argmax_and_ties():
    logits = np.array([[[0.1, 2.0, -1.0], [1.0, 1.0, 0.0]]])
    np.testing.assert_array_equal(predict_labels(logits), [[1, 0]])


def test_predict_labels_softmax_invariant():
    rng = np.random.default_rng(3)
    logits = rng.normal(scale=4, size=(100, 5))
    np.testing.assert_array_equal(
        predict_labels(logits), predict_labels(softmax(logits))
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bits(tmp_path):
    cfg = tiny_config(n_layers=2, n_labels=3)
    for dtype in (np.float32, np.float64):
        flat = init_params(cfg, seed=11, dtype=dtype)
        params = ParamLayout(cfg).views(flat)
        path = tmp_path / f"model{dtype().itemsize}.ckpt"
        save_checkpoint(flat, cfg, seed=11, path=path,
                        vocab=TINY_VOCAB, labels=TINY_LABELS)
        full = load_checkpoint_full(path)
        assert full.config == cfg
        for name in params:
            assert full.params[name].dtype == params[name].dtype
            assert full.params[name].tobytes() == params[name].tobytes(), name
        _, length, rest = path.read_bytes().split(b"\n", 2)
        assert json.loads(rest[:int(length)])["seed"] == 11
        assert full.vocab.id_to_token == TINY_VOCAB
        assert full.labels == TINY_LABELS
        assert [lab.tag for lab in full.tags] == ["O", "B-Drug", "I-Drug"]


def test_checkpoint_truncated_payload(tmp_path):
    path = _saved_checkpoint(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-17])
    with pytest.raises(CheckpointError, match="truncated payload"):
        load_checkpoint_full(path)


@pytest.mark.parametrize("change", [-17, -1, 1, 64])
def test_checkpoint_payload_of_the_wrong_size_names_both_sizes(tmp_path, change):
    """A payload shorter or longer than the manifest's tensors is rejected
    before any of it is read."""
    path = _saved_checkpoint(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
    expected = ParamLayout(tiny_config(n_labels=3)).size * 4
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: truncated payload: expected {expected} bytes, "
            f"found {expected + change}")):
        load_checkpoint_full(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loaded_params_are_writeable_native_and_equal_to_the_saved(tmp_path, dtype):
    cfg = tiny_config(n_layers=2, n_labels=3)
    flat = init_params(cfg, seed=5, dtype=dtype)
    params = ParamLayout(cfg).views(flat)
    path = tmp_path / "model.ckpt"
    save_checkpoint(flat, cfg, seed=5, path=path, vocab=TINY_VOCAB, labels=TINY_LABELS)
    loaded = load_checkpoint_full(path).params
    assert list(loaded) == list(params)
    for name, array in loaded.items():
        assert array.dtype == np.dtype(dtype) and array.dtype.isnative, name
        assert array.flags.writeable and array.flags.c_contiguous, name
        assert array.tobytes() == params[name].tobytes(), name


def test_checkpoint_unknown_version(tmp_path):
    path = _saved_checkpoint(tmp_path)
    blob = path.read_bytes()
    header = f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n".encode()
    assert blob.startswith(header)
    path.write_bytes(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION + 1}\n".encode()
                     + blob[len(header):])
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: unsupported checkpoint version '{CHECKPOINT_VERSION + 1}'")):
        load_checkpoint_full(path)


def rewrite_manifest(path, edit):
    """Apply `edit` to the JSON manifest of the checkpoint at `path`."""
    blob = path.read_bytes()
    nl1 = blob.index(b"\n")
    nl2 = blob.index(b"\n", nl1 + 1)
    header_len = int(blob[nl1 + 1:nl2])
    manifest = json.loads(blob[nl2 + 1: nl2 + 1 + header_len])
    edit(manifest)
    header = json.dumps(manifest).encode()
    path.write_bytes(
        blob[:nl1 + 1] + f"{len(header)}\n".encode() + header
        + blob[nl2 + 1 + header_len:]
    )


def _saved_checkpoint(tmp_path):
    cfg = tiny_config(n_labels=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(cfg, seed=0), cfg, seed=0, path=path,
                    vocab=TINY_VOCAB, labels=TINY_LABELS)
    return path


def test_checkpoint_shape_mismatch_names_tensor(tmp_path):
    path = _saved_checkpoint(tmp_path)

    def widen_head_bias(manifest):
        for entry in manifest["tensors"]:
            if entry["name"] == "head.b":
                entry["shape"] = [entry["shape"][0] + 1]

    rewrite_manifest(path, widen_head_bias)
    with pytest.raises(CheckpointError, match="head.b"):
        load_checkpoint_full(path)


def test_checkpoint_missing_offset_names_tensor(tmp_path):
    path = _saved_checkpoint(tmp_path)
    rewrite_manifest(path, lambda m: m["tensors"][3].pop("offset"))
    name = list(param_shapes(tiny_config()))[3]
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: tensor '{name}': manifest offset")):
        load_checkpoint_full(path)


@pytest.mark.parametrize("key", ["shape", "offset", "length"])
def test_checkpoint_manifest_entry_off_by_one_names_tensor_and_key(tmp_path, key):
    """A tensor's shape, offset and length must each be the canonical one.
    The payload is read by the config's layout, so a wrong offset or length
    would otherwise go unnoticed."""
    path = _saved_checkpoint(tmp_path)

    def bump(manifest):
        entry = manifest["tensors"][3]
        entry[key] = [entry[key][0] + 1] if key == "shape" else entry[key] + 1

    rewrite_manifest(path, bump)
    name = list(param_shapes(tiny_config()))[3]
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: tensor '{name}': manifest {key} ")):
        load_checkpoint_full(path)


def test_checkpoint_permuted_manifest_rejected(tmp_path):
    path = _saved_checkpoint(tmp_path)

    def swap_first_two(manifest):
        tensors = manifest["tensors"]
        tensors[0], tensors[1] = tensors[1], tensors[0]

    rewrite_manifest(path, swap_first_two)
    with pytest.raises(CheckpointError, match="not in canonical order: 'enc.0.attn.wq'"):
        load_checkpoint_full(path)


def test_checkpoint_nan_payload_names_tensor(tmp_path):
    path = _saved_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # last element of head.b
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="tensor 'head.b': non-finite"):
        load_checkpoint_full(path)


@pytest.mark.parametrize("edit, needle", [
    (lambda m: m["config"].update(vocab_size=13.0), "vocab_size must be an integer"),
    (lambda m: m.update(vocab=5), "'vocab' and 'labels'"),
    (lambda m: m.update(labels="Drug"), "'vocab' and 'labels'"),
])
def test_checkpoint_mistyped_config_or_inventory(tmp_path, edit, needle):
    path = _saved_checkpoint(tmp_path)
    rewrite_manifest(path, edit)
    with pytest.raises(CheckpointError, match=needle):
        load_checkpoint_full(path)


@pytest.mark.parametrize("edit, needle", [
    (lambda m: m.update(vocab=TINY_VOCAB[:4]), "'vocab' has 4 tokens but config vocab_size is 13"),
    (lambda m: m.update(labels=["Disease", "Drug"]), "'labels' give 5 tags but config n_labels is 3"),
], ids=["vocab_size", "n_labels"])
def test_checkpoint_inventory_must_match_config(tmp_path, edit, needle):
    path = _saved_checkpoint(tmp_path)
    rewrite_manifest(path, edit)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: manifest {needle}")):
        load_checkpoint_full(path)


def test_checkpoint_directory_path(tmp_path):
    with pytest.raises(CheckpointError, match="not a regular file"):
        load_checkpoint_full(tmp_path)


# sha256 of the tiny_config(n_labels=3) checkpoint from init_params(seed=11)
# with TINY_VOCAB and TINY_LABELS: the on-disk format, manifest bytes
# included, must not change. The payloads were checked equal to those of
# format 2 (8b512cc9... and c0f5ebb8...) with the attention key bias bytes
# cut out, and format 2's to format 1's (5b288162... and c780991c...) with
# the emb.pos bytes cut out.
CHECKPOINT_SHA256 = {
    np.float32: "57a4498d6fa284def5bac04e4faafcdffe63e732c133f7bfdc3894eeeea0d8da",
    np.float64: "b7ca216bad42bf4c3ae231a64d8f57c505a3fd74eb128c870a95966722c0e16e",
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_bytes_pinned(tmp_path, dtype):
    cfg = tiny_config(n_labels=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(cfg, seed=11, dtype=dtype), cfg, seed=11, path=path,
                    vocab=TINY_VOCAB, labels=TINY_LABELS)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256[dtype]


@pytest.mark.parametrize("make, needle", [
    (lambda flat: flat[:-1], "shape"),
    (lambda flat: np.concatenate([flat, flat[:1]]), "shape"),
    (lambda flat: flat.astype(np.float16), "dtype float16"),
    (lambda flat: flat.astype(np.int32), "dtype int32"),
], ids=["short", "long", "float16", "int32"])
def test_save_checkpoint_refuses_a_vector_it_cannot_write(tmp_path, make, needle):
    """A vector of another length than the config's layout, or of a type
    the format has no precision tag for, is refused before anything is
    written: no checkpoint and no temporary file. An int32 vector has the
    itemsize of float32 but would be written as its values cast."""
    cfg = tiny_config(n_labels=3)
    with pytest.raises(ValueError, match=needle):
        save_checkpoint(make(init_params(cfg, seed=0)), cfg, seed=0,
                        path=tmp_path / "model.ckpt", vocab=TINY_VOCAB, labels=TINY_LABELS)
    assert list(tmp_path.iterdir()) == []


def test_param_layout_views_share_one_vector():
    cfg = tiny_config(n_layers=2)
    layout = ParamLayout(cfg)
    flat = init_params(cfg, seed=2)
    views = layout.views(flat)
    assert list(views) == list(param_shapes(cfg))
    assert all(views[name].shape == shape for name, shape in param_shapes(cfg).items())
    views["head.b"][0] = 5.0
    assert flat[layout.size - cfg.n_labels] == 5.0
    assert layout.first_nonfinite(flat) is None
    views["enc.1.ff.w1"][2, 3] = np.inf
    assert layout.first_nonfinite(flat) == "enc.1.ff.w1"
    with pytest.raises(ValueError, match="shape"):
        layout.views(flat[:-1])


def test_checkpoint_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"hello world\nnot a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint_full(path)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        tiny_config(dropout_rate=1.0)
    with pytest.raises(ValueError):
        tiny_config(n_layers=0)

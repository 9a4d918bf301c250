"""Kernel tests: layer semantics, hand-derived gradients vs finite
differences, softmax, Adam."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast import nn
from loadcast.errors import NumericError, ShapeError


def test_linear_identity():
    p = nn.LayerParams("linear", np.eye(3), np.zeros(3))
    x = np.array([[1.0, -2.0, 0.5], [4.0, 0.0, 3.0]])
    np.testing.assert_array_equal(nn.linear_forward(p, x), x)


def test_linear_hand_case():
    p = nn.LayerParams("linear", np.array([[1.0], [1.0]]), np.array([0.5]))
    out = nn.linear_forward(p, np.array([[2.0, 3.0]]))
    np.testing.assert_allclose(out, [[5.5]])


def test_linear_rejects_nan_input():
    p = nn.LayerParams("linear", np.eye(2), np.zeros(2))
    with pytest.raises(NumericError):
        nn.linear_forward(p, np.array([[1.0, np.nan]]))


def test_linear_shape_error_names_both_shapes():
    p = nn.LayerParams("linear", np.ones((3, 2)), np.zeros(2))
    with pytest.raises(ShapeError, match=r"\(1, 2\).*\(3, 2\)"):
        nn.linear_forward(p, np.ones((1, 2)))


def test_conv_identity_kernel():
    p = nn.LayerParams("conv1d", np.ones((1, 1, 1)), np.zeros(1))
    x = np.array([[[0.3, -1.0, 2.0, 5.0]]])
    np.testing.assert_array_equal(nn.conv1d_forward(p, x), x)


def test_conv_hand_case():
    p = nn.LayerParams("conv1d", np.array([[[1.0, 0.0, -1.0]]]), np.zeros(1))
    out = nn.conv1d_forward(p, np.array([[[0.0, 1.0, 2.0, 3.0]]]))
    np.testing.assert_allclose(out, [[[1.0, 2.0, 2.0, -2.0]]])


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_matches_np_convolve(k):
    rng = np.random.default_rng(k)
    x = rng.normal(size=9)
    kernel = rng.normal(size=k)
    p = nn.LayerParams("conv1d", kernel[None, None, :], np.zeros(1))
    ours = nn.conv1d_forward(p, x[None, None, :])[0, 0]
    ref = np.convolve(x, kernel, mode="same")
    np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_conv_rejects_a_2d_input():
    conv = nn.init_conv1d(np.random.default_rng(0), 2, 3, 3)
    with pytest.raises(ShapeError, match=r"\(2, 6\)"):
        nn.conv1d_forward(conv, np.ones((2, 6)))
    with pytest.raises(ShapeError, match=r"\(2, 6\)"):
        nn.conv1d_backward(conv, np.ones((2, 6)), np.ones((3, 6)))


def test_conv_kernel_too_wide():
    p = nn.LayerParams("conv1d", np.ones((1, 1, 8)), np.zeros(1))
    with pytest.raises(ShapeError, match="kernel width 8"):
        nn.conv1d_forward(p, np.ones((1, 1, 3)))


def test_layer_backward_zero_upstream():
    rng = np.random.default_rng(0)
    lin = nn.init_linear(rng, 4, 3)
    x = rng.normal(size=(2, 4))
    (dw, db), dx = nn.linear_backward(lin, x, np.zeros_like(nn.linear_forward(lin, x)))
    assert not dw.any() and not db.any() and not dx.any()
    conv = nn.init_conv1d(rng, 2, 3, 3)
    xc = rng.normal(size=(1, 2, 6))
    (dw, db), dx = nn.conv1d_backward(conv, xc, np.zeros_like(nn.conv1d_forward(conv, xc)))
    assert not dw.any() and not db.any() and not dx.any()


def test_linear_param_grad_hand_case():
    # single sample: dW = x^T @ g
    p = nn.LayerParams("linear", np.zeros((2, 2)), np.zeros(2))
    x = np.array([[1.0, 2.0]])
    g = np.array([[3.0, 4.0]])
    (dw, db), _ = nn.linear_backward(p, x, g)
    np.testing.assert_array_equal(dw, x.T @ g)
    np.testing.assert_array_equal(db, g[0])


@pytest.mark.parametrize("seed", range(5))
def test_layer_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    lin = nn.init_linear(rng, 4, 3)
    x = rng.normal(size=(3, 4))
    g = rng.normal(size=(3, 3))
    (dw, db), dx = nn.linear_backward(lin, x, g)
    report = nn.grad_check(
        lambda: float((nn.linear_forward(lin, x) * g).sum()),
        [lin.weights, lin.bias, x],
        [dw, db, dx],
    )
    assert report.max_rel_error < 1e-6

    conv = nn.init_conv1d(rng, 2, 3, 3)
    xc = rng.normal(size=(1, 2, 7))
    gc = rng.normal(size=(1, 3, 7))
    (dwc, dbc), dxc = nn.conv1d_backward(conv, xc, gc)
    report = nn.grad_check(
        lambda: float((nn.conv1d_forward(conv, xc) * gc).sum()),
        [conv.weights, conv.bias, xc],
        [dwc, dbc, dxc],
    )
    assert report.max_rel_error < 1e-5


def test_conv_batched_matches_per_sample():
    rng = np.random.default_rng(5)
    conv = nn.init_conv1d(rng, 2, 4, 3)
    xb = rng.normal(size=(6, 2, 9))
    batched = nn.conv1d_forward(conv, xb)
    per = np.stack([nn.conv1d_forward(conv, xb[i][None])[0] for i in range(6)])
    np.testing.assert_array_equal(batched, per)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_im2col_rows_are_padded_windows(k):
    rng = np.random.default_rng(k)
    x = rng.normal(size=(2, 3, 5))
    left = k - 1 - (k - 1) // 2
    xp = np.pad(x, [(0, 0), (0, 0), (left, (k - 1) // 2)])
    cols = nn.im2col(x, k)
    for b in range(2):
        for t in range(5):
            np.testing.assert_array_equal(cols[b * 5 + t], xp[b, :, t : t + k].reshape(-1))
    # a channels-last view gives the same matrix
    x_cl = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
    np.testing.assert_array_equal(nn.im2col(x_cl, k), cols)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_conv_input_gradient_matches_finite_differences(k):
    rng = np.random.default_rng(10 + k)
    conv = nn.init_conv1d(rng, 3, 4, k)
    x = rng.normal(size=(2, 3, 7))
    g = rng.normal(size=(2, 4, 7))
    (_, _), dx = nn.conv1d_backward(conv, x, g)
    report = nn.grad_check(lambda: float((nn.conv1d_forward(conv, x) * g).sum()), [x], [dx])
    assert report.max_rel_error < 1e-6


@pytest.mark.parametrize("k", [4, 5])
def test_conv_input_gradient_kernel_wider_than_series(k):
    # T = 2: some taps reach past the whole series and contribute nothing
    rng = np.random.default_rng(k)
    conv = nn.init_conv1d(rng, 2, 3, k)
    x = rng.normal(size=(1, 2, 2))
    g = rng.normal(size=(1, 3, 2))
    (dw, db), dx = nn.conv1d_backward(conv, x, g)
    report = nn.grad_check(
        lambda: float((nn.conv1d_forward(conv, x) * g).sum()),
        [conv.weights, conv.bias, x],
        [dw, db, dx],
    )
    assert report.max_rel_error < 1e-6


def test_conv_channels_last_views_match_contiguous():
    rng = np.random.default_rng(6)
    conv = nn.init_conv1d(rng, 3, 4, 3)
    x = rng.normal(size=(5, 3, 8))
    g = rng.normal(size=(5, 4, 8))
    x_cl = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
    g_cl = np.ascontiguousarray(g.transpose(0, 2, 1)).transpose(0, 2, 1)
    out = nn.conv1d_forward(conv, x)
    assert out.transpose(0, 2, 1).flags.c_contiguous  # channels-last buffer
    np.testing.assert_array_equal(nn.conv1d_forward(conv, x_cl), out)
    (dw, db), dx = nn.conv1d_backward(conv, x, g)
    (dw2, db2), dx2 = nn.conv1d_backward(conv, x_cl, g_cl)
    for a, b in ((dw, dw2), (db, db2), (dx, dx2)):
        np.testing.assert_array_equal(a, b)
    (dw3, db3), none = nn.conv1d_backward(conv, x, g, input_grad=False)
    np.testing.assert_array_equal(dw3, dw)
    np.testing.assert_array_equal(db3, db)
    assert none is None and dx.shape == x.shape


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("batch", [None, 1, 7, 33])  # None: one (5, 11) sample as x[None]
def test_conv_per_tap_weight_gradient_matches_patch_matrix_product(k, batch):
    rng = np.random.default_rng(20 + k)
    conv = nn.init_conv1d(rng, 5, 6, k)
    shape = (5, 11) if batch is None else (batch, 5, 11)
    x = rng.normal(size=shape)
    g = rng.normal(size=shape[:-2] + (6, 11))
    if batch is None:
        x, g = x[None], g[None]
    (dw, _), _ = nn.conv1d_backward(conv, x, g)
    g2 = g.transpose(0, 2, 1).reshape(-1, 6)
    ref = (nn.im2col(x, k).T @ g2).reshape(5, k, 6).transpose(2, 0, 1)[:, :, ::-1]
    np.testing.assert_allclose(dw, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_linear_backward_without_input_grad_is_bit_identical():
    rng = np.random.default_rng(7)
    lin = nn.init_linear(rng, 6, 5)
    x = rng.normal(size=(4, 6))
    g = rng.normal(size=(4, 5))
    (dw, db), dx = nn.linear_backward(lin, x, g)
    (dw2, db2), none = nn.linear_backward(lin, x, g, input_grad=False)
    np.testing.assert_array_equal(dw2, dw)
    np.testing.assert_array_equal(db2, db)
    assert none is None and dx.shape == x.shape


def test_softmax_uniform_and_hand_case():
    np.testing.assert_allclose(nn.softmax_rows(np.zeros((1, 3))), [[1 / 3] * 3])
    out = nn.softmax_rows(np.array([[np.log(2.0), 0.0]]))
    np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)


@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    st.floats(-100, 100),
)
@settings(max_examples=50, deadline=None)
def test_softmax_shift_invariance_and_row_sums(row, shift):
    z = np.asarray([row])
    a = nn.softmax_rows(z)
    b = nn.softmax_rows(z + shift)
    assert abs(a.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_adam_zero_gradient_is_identity():
    w = np.array([1.5, -2.0])
    state = nn.init_adam(w)
    nn.adam_step(state, w, np.zeros(2), "w")
    np.testing.assert_array_equal(w, [1.5, -2.0])
    assert state.t == 1


def test_adam_zero_lr_updates_moments_only():
    w = np.array([1.0])
    state = nn.init_adam(w, lr=0.0)
    nn.adam_step(state, w, np.array([0.5]), "w")
    np.testing.assert_array_equal(w, [1.0])
    assert state.m[0] != 0.0 and state.v[0] != 0.0


def test_adam_single_step_hand_computation():
    # one bias-corrected step recomputed from the update equations
    w = np.array([1.0])
    g = np.array([0.5])
    state = nn.init_adam(w, lr=0.001)
    nn.adam_step(state, w, g, "w")
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    expected = 1.0 - 0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(w, [expected], rtol=1e-12)


def test_adam_rejects_non_finite_gradient():
    w = np.array([1.0])
    state = nn.init_adam(w)
    with pytest.raises(NumericError, match="trunk"):
        nn.adam_step(state, w, np.array([np.inf]), "trunk")


def _adam_step_reference(state, p, g):
    """The Adam update written with fresh arrays, as before it ran in place."""
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = state.m / bc1
    v_hat = state.v / bc2
    p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def test_adam_in_place_is_bit_identical_to_fresh_arrays():
    rng = np.random.default_rng(8)
    shapes = [(7, 5), (5,), (3, 2, 4)]
    ours = [rng.normal(size=s) for s in shapes]
    ref = [p.copy() for p in ours]
    states = [nn.init_adam(p, lr=0.01) for p in ours]
    ref_states = [nn.init_adam(p, lr=0.01) for p in ref]
    moments = [id(a) for state in states for a in (state.m, state.v)]
    for _ in range(5):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-8, 3) for s in shapes]
        for i, g in enumerate(grads):
            nn.adam_step(states[i], ours[i], g, f"block {i}")
            _adam_step_reference(ref_states[i], ref[i], g)
        for i in range(len(shapes)):
            for a, b in ((ours[i], ref[i]), (states[i].m, ref_states[i].m),
                         (states[i].v, ref_states[i].v)):
                np.testing.assert_array_equal(a, b)
    assert [id(a) for state in states for a in (state.m, state.v)] == moments  # updated in place


def test_adam_scratch_is_fixed_whatever_the_block_size():
    import tracemalloc

    rng = np.random.default_rng(9)
    w = rng.normal(size=10**6)
    g = rng.normal(size=10**6)
    state = nn.init_adam(w)
    tracemalloc.start()
    try:
        nn.adam_step(state, w, g, "w")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two 256 KiB scratch rows and a 32 KiB finiteness mask; a whole-block
    # mask would be 1 MB and two whole-block temporaries 16 MB
    assert peak < 0.75 * 2**20, peak


def test_adam_rejects_non_contiguous_parameters():
    w = np.zeros((4, 3)).T
    state = nn.init_adam(w)
    with pytest.raises(ShapeError, match="bias is not C-contiguous"):
        nn.adam_step(state, w, np.zeros((3, 4)), "bias")

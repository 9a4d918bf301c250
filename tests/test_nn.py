"""Kernel tests: layer semantics, hand-derived gradients vs finite
differences, softmax/cross-entropy, Adam."""

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
    x = np.array([[0.3, -1.0, 2.0, 5.0]])
    np.testing.assert_array_equal(nn.conv1d_forward(p, x), x)


def test_conv_hand_case():
    p = nn.LayerParams("conv1d", np.array([[[1.0, 0.0, -1.0]]]), np.zeros(1))
    out = nn.conv1d_forward(p, np.array([[0.0, 1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(out, [[1.0, 2.0, 2.0, -2.0]])


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_matches_np_convolve(k):
    rng = np.random.default_rng(k)
    x = rng.normal(size=9)
    kernel = rng.normal(size=k)
    p = nn.LayerParams("conv1d", kernel[None, None, :], np.zeros(1))
    ours = nn.conv1d_forward(p, x[None, :])[0]
    ref = np.convolve(x, kernel, mode="same")
    np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_conv_kernel_too_wide():
    p = nn.LayerParams("conv1d", np.ones((1, 1, 8)), np.zeros(1))
    with pytest.raises(ShapeError, match="kernel width 8"):
        nn.conv1d_forward(p, np.ones((1, 3)))


def test_layer_backward_zero_upstream():
    rng = np.random.default_rng(0)
    for params, x in [
        (nn.init_linear(rng, 4, 3), rng.normal(size=(2, 4))),
        (nn.init_conv1d(rng, 2, 3, 3), rng.normal(size=(2, 6))),
    ]:
        out = (
            nn.linear_forward(params, x)
            if params.kind == "linear"
            else nn.conv1d_forward(params, x)
        )
        (dw, db), dx = nn.layer_backward(params, x, np.zeros_like(out))
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
    xc = rng.normal(size=(2, 7))
    gc = rng.normal(size=(3, 7))
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
    per = np.stack([nn.conv1d_forward(conv, xb[i]) for i in range(6)])
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
    np.testing.assert_array_equal(nn.im2col(x, k, transpose=True), cols.T)
    full = nn.im2col(x, k, pad=(k - 1, k - 1))
    assert full.shape == (2 * (5 + k - 1), 3 * k)


def test_conv_shared_patches_match_own():
    rng = np.random.default_rng(6)
    conv = nn.init_conv1d(rng, 3, 4, 3)
    x = rng.normal(size=(5, 3, 8))
    g = rng.normal(size=(5, 4, 8))
    np.testing.assert_array_equal(
        nn.conv1d_forward(conv, x, cols=nn.im2col(x, 3)), nn.conv1d_forward(conv, x)
    )
    (dw, db), dx = nn.conv1d_backward(conv, x, g)
    (dw2, db2), none = nn.conv1d_backward(
        conv, x, g, cols_t=nn.im2col(x, 3, transpose=True), input_grad=False
    )
    np.testing.assert_array_equal(dw2, dw)
    np.testing.assert_array_equal(db2, db)
    assert none is None and dx.shape == x.shape
    with pytest.raises(ShapeError, match="patch matrix"):
        nn.conv1d_forward(conv, x, cols=nn.im2col(x[:2], 3))


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


def test_cross_entropy_perfect_prediction():
    logits = np.array([[800.0, 0.0, 0.0]])
    loss, _ = nn.cross_entropy(logits, np.array([0]))
    assert loss == 0.0


def test_cross_entropy_uniform_is_log_n():
    for n in (2, 3, 5):
        logits = np.zeros((4, n))
        loss, _ = nn.cross_entropy(logits, np.zeros(4, dtype=int))
        assert abs(loss - np.log(n)) < 1e-12


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(5, 4))
    targets = rng.integers(0, 4, size=5)
    _, grad = nn.cross_entropy(logits, targets)
    report = nn.grad_check(
        lambda: nn.cross_entropy(logits, targets)[0],
        [logits],
        [grad],
    )
    assert report.max_rel_error < 1e-6


def test_cross_entropy_finite_for_large_logit_gap():
    loss, grad = nn.cross_entropy(np.array([[800.0, 0.0]]), np.array([1]))
    assert np.isfinite(loss) and loss == pytest.approx(800.0)
    np.testing.assert_allclose(grad, [[1.0, -1.0]])


def test_cross_entropy_target_out_of_range():
    logits = np.zeros((2, 3))
    with pytest.raises(ShapeError, match="out of range"):
        nn.cross_entropy(logits, np.array([0, 3]))


def test_adam_zero_gradient_is_identity():
    w = np.array([1.5, -2.0])
    state = nn.init_adam([w])
    nn.adam_step(state, [w], [np.zeros(2)])
    np.testing.assert_array_equal(w, [1.5, -2.0])
    assert state.t == 1


def test_adam_zero_lr_updates_moments_only():
    w = np.array([1.0])
    state = nn.init_adam([w], lr=0.0)
    nn.adam_step(state, [w], [np.array([0.5])])
    np.testing.assert_array_equal(w, [1.0])
    assert state.m[0][0] != 0.0 and state.v[0][0] != 0.0


def test_adam_single_step_hand_computation():
    # one bias-corrected step recomputed from the update equations
    w = np.array([1.0])
    g = np.array([0.5])
    state = nn.init_adam([w], lr=0.001)
    nn.adam_step(state, [w], [g])
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    expected = 1.0 - 0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(w, [expected], rtol=1e-12)


def test_adam_rejects_non_finite_gradient():
    w = np.array([1.0])
    state = nn.init_adam([w])
    with pytest.raises(NumericError, match="trunk"):
        nn.adam_step(state, [w], [np.array([np.inf])], names=["trunk"])

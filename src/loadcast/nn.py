"""Minimal dense numeric kernel: layers with hand-derived gradients.

Everything runs in float64 on plain numpy arrays. Linear and 1-D
convolution layers and a ReLU, which a model applies in place
(np.maximum(act, 0.0, out=act)) and undoes by masking with act > 0, are
enough for every model in this package, so gradients are written out by
hand instead of taping a general autodiff graph. A central
finite-difference checker validates them at test time.

Convolution here is true convolution (kernel flipped), matching
``np.convolve(x, kernel, mode="same")`` for a single channel, with
symmetric zero padding so the temporal length is preserved.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

Array = np.ndarray


def _require_finite(x: Array, what: str) -> None:
    if not np.isfinite(x).all():
        raise NumericError(f"{what} contains non-finite values (NaN/Inf)")


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Array:
    """Uniform init in +-sqrt(6/(fan_in+fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class LayerParams:
    """Parameters of one layer.

    kind "linear": weights (n_in, n_out), bias (n_out,).
    kind "conv1d": weights (out_channels, in_channels, kernel_width),
    bias (out_channels,), stride 1, same-length zero padding.
    """

    kind: str
    weights: Array
    bias: Array

    @property
    def kernel_width(self) -> int:
        return self.weights.shape[2]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]


def init_linear(rng: np.random.Generator, n_in: int, n_out: int) -> LayerParams:
    w = glorot_uniform(rng, (n_in, n_out), n_in, n_out)
    return LayerParams("linear", w, np.zeros(n_out))


def init_conv1d(rng: np.random.Generator, in_channels: int, out_channels: int, kernel_width: int) -> LayerParams:
    fan_in = in_channels * kernel_width
    fan_out = out_channels * kernel_width
    w = glorot_uniform(rng, (out_channels, in_channels, kernel_width), fan_in, fan_out)
    return LayerParams("conv1d", w, np.zeros(out_channels))


def linear_forward(params: LayerParams, x: Array) -> Array:
    """Rows of x through x @ W + bias. x is (rows, n_in)."""
    if params.kind != "linear":
        raise ShapeError(f"expected linear params, got kind={params.kind!r}")
    if x.ndim != 2 or x.shape[1] != params.weights.shape[0]:
        raise ShapeError(
            f"linear input shape {x.shape} incompatible with weights {params.weights.shape}"
        )
    _require_finite(x, "linear input")
    return x @ params.weights + params.bias


def linear_backward(
    params: LayerParams,
    x: Array,
    grad_out: Array,
    input_grad: bool = True,
    out: tuple[Array, Array] | None = None,
) -> tuple[tuple[Array, Array], Array | None]:
    """Analytic gradients of linear_forward.

    Returns ((dweights, dbias), dinput) for upstream gradient grad_out
    shaped like the forward output. input_grad=False skips the input
    gradient and returns None in its place. out, C-contiguous arrays
    shaped like the weights and like x, receives the weight and input
    gradients (the same matrix products, so the same bits) instead of
    fresh arrays.
    """
    if grad_out.shape != (x.shape[0], params.weights.shape[1]):
        raise ShapeError(
            f"upstream grad shape {grad_out.shape} does not match output "
            f"({x.shape[0]}, {params.weights.shape[1]})"
        )
    dw_out, dx_out = out if out is not None else (None, None)
    dw = np.matmul(x.T, grad_out, out=dw_out)
    db = grad_out.sum(axis=0)
    if not input_grad:
        return (dw, db), None
    return (dw, db), np.matmul(grad_out, params.weights.T, out=dx_out)


def _left_pad(k: int) -> int:
    """Zero steps before the series in the same-length padding of a width-k conv."""
    return k - 1 - (k - 1) // 2


def im2col(x: Array, k: int) -> Array:
    """Row-major patch matrix of x (batch, channels, T) for a width-k
    convolution, the operand of the matrix product in conv1d_forward.

    Row b*T + t, column c*k + j holds x[b, c, t + j - left], or 0 in the
    same-length zero padding (left = k - 1 - (k - 1) // 2 steps before the
    series, (k - 1) // 2 after). x may be any strided view; a channels-last
    one, (batch, T, channels) in memory, is copied the fastest.
    """
    b, ch, t = x.shape
    left = _left_pad(k)
    out = np.zeros((b, t, ch, k))
    src = x.transpose(0, 2, 1)
    for j in range(k):
        shift = j - left
        lo, hi = max(0, -shift), min(t, t - shift)
        out[:, lo:hi, :, j] = src[:, lo + shift : hi + shift]
    return out.reshape(b * t, ch * k)


def conv1d_forward(params: LayerParams, x: Array) -> Array:
    """True 1-D convolution, stride 1, output length equals input length.

    x is (batch, in_channels, T); the output swaps in_channels for
    out_channels. Single-channel output agrees with
    np.convolve(x, kernel, mode="same").

    The output is a (batch, out_channels, T) view of a channels-last buffer,
    one row of out_channels values per time step, and x may be such a view
    itself: chained convolutions then never transpose their activations.
    """
    if params.kind != "conv1d":
        raise ShapeError(f"expected conv1d params, got kind={params.kind!r}")
    if x.ndim != 3 or x.shape[1] != params.in_channels:
        raise ShapeError(
            f"conv1d input shape {x.shape} incompatible with weights {params.weights.shape}"
        )
    b, _, t = x.shape
    k = params.kernel_width
    if k > 2 * t + 1:
        raise ShapeError(f"kernel width {k} exceeds 2*time+1 = {2 * t + 1}")
    _require_finite(x, "conv1d input")
    # flipped kernel as an (in_channels*k, out_channels) matrix
    w = params.weights[:, :, ::-1].transpose(1, 2, 0).reshape(-1, params.out_channels)
    out = im2col(x, k) @ w
    out += params.bias
    return out.reshape(b, t, params.out_channels).transpose(0, 2, 1)


def conv1d_backward(
    params: LayerParams, x: Array, grad_out: Array, input_grad: bool = True
) -> tuple[tuple[Array, Array], Array | None]:
    """Analytic gradients of conv1d_forward for a (batch, in_channels, T) input.

    grad_out is read fastest as a channels-last view, like the output of
    conv1d_forward, and the input gradient is returned as one.
    input_grad=False skips the input gradient and returns None in its place.

    The weight gradient goes one tap at a time, from one shifted,
    zero-padded copy of x reused across taps (1/k of the im2col patch
    matrix), and each input-gradient tap is released before the next. The
    weight gradient sums the same products as im2col(x, k).T @ grad_out,
    but in k smaller matrix products that BLAS may block differently: at
    some batch sizes, such as tail batches of 7, 33 or 64, it differs from
    the patch-matrix product in its last bits (within 1e-14 of the largest
    entry). Full batches of 128 at the teacher's channel counts give the
    same bits with one BLAS thread. The bias and input gradients do not move.
    """
    k = params.kernel_width
    o, i = params.out_channels, params.in_channels
    if x.ndim != 3 or grad_out.shape != (x.shape[0], o, x.shape[2]):
        raise ShapeError(f"upstream grad shape {grad_out.shape} does not fit input {x.shape}")
    b, _, t = x.shape
    g = grad_out.transpose(0, 2, 1).reshape(b * t, o)  # (batch*T, out_channels)
    left = _left_pad(k)

    # Tap j reads x[t + j - left] at output step t through kernel column
    # k-1-j (see im2col): its weight gradient is that shifted copy of x,
    # zero outside the series, against g.
    src = x.transpose(0, 2, 1)  # (batch, T, in_channels)
    shifted = np.empty((b, t, i))
    dw = np.empty((o, i, k))
    for j in range(k):
        shift = j - left
        lo, hi = max(0, -shift), min(t, t - shift)
        shifted[:, :lo] = 0.0
        shifted[:, hi:] = 0.0
        shifted[:, lo:hi] = src[:, lo + shift : hi + shift]
        dw[:, :, k - 1 - j] = (shifted.reshape(b * t, i).T @ g).T
    del shifted
    db = g.sum(axis=0)
    if not input_grad:
        return (dw, db), None

    # Tap j carries x[t + j - left] to output step t through kernel column
    # k-1-j, so the input gradient at step s collects g[s - shift] @ that
    # column, shift = j - left: one matrix product per tap, added in place.
    dx = (g @ params.weights[:, :, k - 1 - left]).reshape(b, t, i)
    for j in range(k):
        shift = j - left
        lo, hi = max(0, shift), min(t, t + shift)
        if shift == 0 or lo >= hi:
            continue
        tap = (g @ params.weights[:, :, k - 1 - j]).reshape(b, t, i)
        dx[:, lo:hi] += tap[:, lo - shift : hi - shift]
        del tap
    return (dw, db), dx.transpose(0, 2, 1)


def softmax_rows(logits: Array) -> Array:
    """Row-wise softmax, stabilized by max subtraction."""
    _require_finite(logits, "softmax logits")
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class AdamState:
    """Adam moments and step counter of one parameter block."""

    m: Array
    v: Array
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0


def init_adam(param: Array, lr: float = 0.001) -> AdamState:
    return AdamState(np.zeros_like(param), np.zeros_like(param), lr=lr)


ADAM_CHUNK = 2**15  # elements per Adam scratch row: two 256 KiB scratch rows in all


def adam_step(state: AdamState, param: Array, grad: Array, name: str) -> None:
    """One bias-corrected Adam update, in place on the block and its state.

    The block must be C-contiguous: the gradient is checked, then the
    block and moments updated, through 1-D views ADAM_CHUNK elements at
    a time, so the scratch memory is fixed whatever the block size. A
    non-finite gradient raises NumericError naming the block before the
    block moves. train.train_loop keeps one state per block."""
    if param.shape != grad.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match parameter shape {param.shape}")
    if not param.flags.c_contiguous:
        raise ShapeError(f"parameter {name} is not C-contiguous")
    p, g, m, v = (a.reshape(-1) for a in (param, grad, state.m, state.v))
    for lo in range(0, g.size, ADAM_CHUNK):  # a mask the size of one scratch row
        if not np.isfinite(g[lo : lo + ADAM_CHUNK]).all():
            raise NumericError(f"non-finite gradient in {name}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    # Same operations in the same order, element by element, as
    #   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g
    #   p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
    # but written into m, v, p and two scratch rows.
    scratch = np.empty((2, ADAM_CHUNK))
    for lo in range(0, p.size, ADAM_CHUNK):
        pc, gc, mc, vc = (a[lo : lo + ADAM_CHUNK] for a in (p, g, m, v))
        tmp, denom = scratch[:, : pc.size]
        np.multiply(gc, 1.0 - state.beta1, out=tmp)
        mc *= state.beta1
        mc += tmp
        np.multiply(gc, 1.0 - state.beta2, out=tmp)
        tmp *= gc
        vc *= state.beta2
        vc += tmp
        np.divide(mc, bc1, out=tmp)
        tmp *= state.lr
        np.divide(vc, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        tmp /= denom
        pc -= tmp


@functools.cache
def _openblas_thread_query() -> Callable[[], int] | None:
    """OpenBLAS's thread-count query in the library numpy loaded, if it
    is OpenBLAS and exports one."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn
    return None


def blas_threads() -> int | None:
    """Threads the loaded BLAS runs a matrix product on, or None when the
    BLAS is not a known OpenBLAS."""
    query = _openblas_thread_query()
    return None if query is None else int(query())


def helper_thread_pays() -> bool:
    """Whether a second thread has a core of its own: the process may run
    on at least two CPUs and BLAS runs one thread. With more BLAS threads
    the matrix products already take the cores, and the split is slower;
    with an unknown BLAS nothing is known."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return cpus >= 2 and blas_threads() == 1


_helper: ThreadPoolExecutor | None = None  # started by the first run_parts that uses it


def run_parts(task: Callable[[Sequence, int], None], parts: tuple[Sequence, Sequence]) -> None:
    """task(part, lane) for both parts of independent work.

    When helper_thread_pays() and the second part is nonempty, it runs on
    one helper thread (lane 1), started at first use and kept for the
    process, while the caller runs the first part (lane 0); otherwise the
    caller runs both, in order, as lane 0. numpy releases the GIL inside
    its array loops and matrix products, so the two overlap there. The
    parts must write disjoint memory, and the result must not depend on
    which thread runs what. The caller waits for the helper before it
    returns or raises; an error of its own part wins, else the helper's
    propagates as raised."""
    global _helper
    first, second = parts
    if not second or not helper_thread_pays():
        for part in parts:
            task(part, 0)
        return
    if _helper is None:
        _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="loadcast-helper")
    future = _helper.submit(task, second, 1)
    try:
        task(first, 0)
    finally:
        wait([future])
    future.result()


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_block: str
    worst_index: int
    per_block: dict[str, float]


def grad_check(
    loss_fn: Callable[[], float],
    params: Sequence[Array],
    analytic_grads: Sequence[Array],
    h: float = 1e-5,
    names: Sequence[str] | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn re-evaluates the (deterministic) loss at the current
    parameter values; each entry of each block is probed at +-h. The
    relative error denominator is floored at 1e-6 so exact zeros on
    both sides count as zero error.
    """
    if names is None:
        names = [f"block {i}" for i in range(len(params))]
    worst = 0.0
    worst_block = ""
    worst_index = -1
    per_block: dict[str, float] = {}
    for name, p, g in zip(names, params, analytic_grads):
        p1 = p.reshape(-1)
        g1 = np.asarray(g).reshape(-1)
        block_worst = 0.0
        for i in range(p1.size):
            orig = p1[i]
            p1[i] = orig + h
            lp = loss_fn()
            p1[i] = orig - h
            lm = loss_fn()
            p1[i] = orig
            fd = (lp - lm) / (2.0 * h)
            rel = abs(fd - g1[i]) / max(abs(fd), abs(g1[i]), 1e-6)
            if rel > block_worst:
                block_worst = rel
            if rel > worst:
                worst, worst_block, worst_index = rel, name, i
        per_block[name] = block_worst
    return GradCheckReport(worst, worst_block, worst_index, per_block)

"""The teacher's heads on two threads (nn.run_parts): the same bits as
on one, errors that reach the caller unchanged, and the probe that
decides whether the helper thread runs at all."""

import threading
import time

import numpy as np
import pytest

from loadcast import nn
from loadcast.data import SeriesFrame
from loadcast.errors import NumericError, ShapeError
from loadcast.guidance import teacher_weights
from loadcast.labeling import StateProfile
from loadcast.msp import MspConfig, MspModel, _head_groups, msp_loss, state_accuracy, train_msp
from loadcast.pipeline import windows_for
from tests.batches import gradients

COUNTS = [2, 5, 3, 4, 2]  # unequal, so the two groups differ in heads and work


def force_helper(monkeypatch, on: bool) -> None:
    """The decision nn.run_parts takes, fixed for the test."""
    monkeypatch.setattr(nn, "helper_thread_pays", lambda: on)


def teacher(seed=0):
    return MspModel(MspConfig(lookback=12, horizon=3, n_variables=len(COUNTS), class_counts=COUNTS,
                              trunk_channels=4, ue_channels=3, kernel_width=3, seed=seed))


def splits():
    """Train, validation and test windows of a random five-variable
    series whose labels use every class count in COUNTS."""
    rng = np.random.default_rng(5)
    l = 190
    values = rng.normal(size=(l, len(COUNTS)))
    labels = np.stack([rng.integers(0, n, size=l) for n in COUNTS], axis=1)
    frame = SeriesFrame(3600 * np.arange(l), values, [f"v{i}" for i in range(len(COUNTS))])
    return windows_for(frame, StateProfile(labels, COUNTS), 12, [3])[1][3]


def test_head_groups_split_the_work_evenly_and_keep_every_head_once():
    assert _head_groups(COUNTS) == ([0, 1, 4], [2, 3])  # 9 and 7 classes
    assert _head_groups([3]) == ([0], [])
    assert _head_groups([2, 2, 2, 2, 3, 2, 3, 2]) == ([0, 2, 4, 5], [1, 3, 6, 7])
    for counts in ([5, 5, 2, 2, 2, 2], [2] * 7, [4, 3, 3, 2]):
        first, second = _head_groups(counts)
        assert sorted(first + second) == list(range(len(counts)))
        load = [sum(counts[i] for i in g) for g in (first, second)]
        assert abs(load[0] - load[1]) <= max(counts)


def run_everything(monkeypatch, on):
    """Every teacher output a helper could change, on one path, and the
    threads that stepped a block."""
    force_helper(monkeypatch, on)
    train_w, val_w, test_w = splits()
    assert len(train_w) % 16 != 0  # a short tail batch
    model = teacher(seed=3)
    starts = np.random.default_rng(1).permutation(len(train_w))[:9]
    z, cache = model.forward_batch(train_w.series, starts, want_cache=True)
    _, dz = msp_loss(z, train_w.s[starts], COUNTS)
    grads = gradients(model, cache, dz)
    states, threads = [], set()
    init_adam, adam_step = nn.init_adam, nn.adam_step

    def recording_init_adam(param, lr):
        states.append(init_adam(param, lr=lr))
        return states[-1]

    def recording_adam_step(state, param, grad, name):
        threads.add(threading.current_thread().name)
        adam_step(state, param, grad, name)

    monkeypatch.setattr(nn, "init_adam", recording_init_adam)
    monkeypatch.setattr(nn, "adam_step", recording_adam_step)
    history = train_msp(model, train_w, val_w, lr=0.01, batch_size=16, patience=3, max_epochs=3)
    monkeypatch.setattr(nn, "init_adam", init_adam)
    monkeypatch.setattr(nn, "adam_step", adam_step)
    outputs = {
        "logits": [z],
        "gradients": grads,
        "params": model.params(),
        "adam moments": [a for s in states for a in (s.m, s.v)],
        "teacher weights": [teacher_weights(model, test_w)],
    }
    scalars = {
        "steps": [s.t for s in states],
        "val loss": [float(v).hex() for v in history.val_loss],
        "accuracy": float(state_accuracy(model, test_w)).hex(),
    }
    return outputs, scalars, threads


def test_two_threads_give_the_same_bits_as_one(monkeypatch):
    """Logits, every handed-over block, 3 epochs of train_msp (a tail
    batch of 7 in each), the parameters and Adam moments after them, the
    teacher weights and the accuracy: bit for bit on both paths."""
    helper, helper_scalars, helper_threads = run_everything(monkeypatch, True)
    serial, serial_scalars, serial_threads = run_everything(monkeypatch, False)
    assert serial_threads == {threading.current_thread().name}
    assert len(helper_threads) == 2  # the helper stepped some blocks
    assert helper_scalars == serial_scalars
    for key, arrays in serial.items():
        assert len(helper[key]) == len(arrays), key
        for got, want in zip(helper[key], arrays):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), key


def second_group_head(model):
    """A head that the helper runs, and its first logit column."""
    i = model._groups[1][0]
    return i, sum(COUNTS[:i])


@pytest.mark.parametrize("on", [True, False])
def test_a_non_finite_gradient_on_the_helper_reaches_the_caller(monkeypatch, on):
    """A NaN in the fusion weights' row of one of the helper's logit
    columns makes only that head's linear gradients non-finite: Adam
    raises on the helper thread, and the caller sees the NumericError the
    caller alone raises, after the helper stopped."""
    force_helper(monkeypatch, on)
    model = teacher()
    i, column = second_group_head(model)
    params, names = model.params(), model.param_names()
    adam = [nn.init_adam(p) for p in params]
    rng = np.random.default_rng(2)
    series = rng.normal(size=(40, len(COUNTS)))
    z, cache = model.forward_batch(series, np.arange(0, 28, 3), want_cache=True)
    model.fusion.weights[column, 0] = np.nan
    seen = []

    def update(j, grad):
        seen.append((j, threading.current_thread().name))
        nn.adam_step(adam[j], params[j], grad, names[j])

    with pytest.raises(NumericError) as caught:
        model.backward_batch(cache, np.ones_like(z), update)
    assert str(caught.value) == f"non-finite gradient in extractor{i}.linear.weights"
    raised_on = dict(seen)[4 + 4 * i]
    assert (raised_on != threading.current_thread().name) == on


@pytest.mark.parametrize("on", [True, False])
def test_a_head_that_cannot_take_its_input_raises_the_same_shape_error(monkeypatch, on):
    """A helper head whose linear layer does not fit its input: the
    forward pass raises linear_forward's ShapeError, message unchanged."""
    force_helper(monkeypatch, on)
    model = teacher()
    i, _ = second_group_head(model)
    lin = model.extractor_linears[i]
    model.extractor_linears[i] = nn.LayerParams("linear", lin.weights[1:], lin.bias)
    series = np.random.default_rng(3).normal(size=(40, len(COUNTS)))
    with pytest.raises(ShapeError) as caught:
        model.forward_batch(series, np.arange(5))
    want = f"linear input shape (5, 36) incompatible with weights (35, {3 * COUNTS[i]})"
    assert str(caught.value) == want


def test_the_caller_waits_for_the_helper_before_it_raises(monkeypatch):
    """The caller's part fails at once, the helper's finishes later: the
    caller's error propagates only after the helper's part is done, and
    an error on the helper propagates as raised."""
    force_helper(monkeypatch, True)
    done = []

    def task(part, lane):
        if lane == 0:
            raise ShapeError("caller's part")
        time.sleep(0.05)
        done.append(part)

    with pytest.raises(ShapeError, match="caller's part"):
        nn.run_parts(task, ([0], [1]))
    assert done == [[1]]

    def helper_fails(part, lane):
        if lane == 1:
            raise NumericError(f"part {part} on lane {lane}")
        done.append(part)

    with pytest.raises(NumericError, match=r"^part \[1\] on lane 1$"):
        nn.run_parts(helper_fails, ([0], [1]))
    assert done == [[1], [0]]


@pytest.mark.parametrize("cpus, blas, runs", [
    ({0}, 1, False),  # one CPU
    ({0, 1}, 2, False),  # BLAS on two threads
    ({0, 1}, None, False),  # an unknown BLAS
    ({0, 1}, 1, True),
])
def test_the_probe_starts_a_helper_only_beside_a_one_thread_blas(monkeypatch, cpus, blas, runs):
    monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(nn, "blas_threads", lambda: blas)
    monkeypatch.setattr(nn, "_helper", None)
    before = threading.active_count()
    lanes = []
    nn.run_parts(lambda part, lane: lanes.append((part, lane, threading.current_thread().name)),
                 ("a", "b"))
    try:
        assert nn.helper_thread_pays() == runs
        assert (nn._helper is not None) == runs
        assert (threading.active_count() > before) == runs
        main = threading.current_thread().name
        got = sorted((part, lane, name == main) for part, lane, name in lanes)
        assert got == [("a", 0, True), ("b", int(runs), not runs)]
    finally:
        if nn._helper is not None:
            nn._helper.shutdown()

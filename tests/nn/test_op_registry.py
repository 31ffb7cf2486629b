"""Every differentiable op is one registry entry that the tape and the
execution plan both run.

For each entry a one-op program is stepped on the tape and through a
:class:`nn.Planner`, at a batch of one and at a batch (plus broadcasting
shapes for the binary ops): the plan's outputs and parameter gradients
must be byte-equal to the tape's, on two different inputs of one
signature.  A central finite difference checks the tape's gradient.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro import nn
from repro.distributed import build_trainer
from repro.experiments.scales import get_scale
from repro.experiments.training import make_ppo_config, make_train_config
from repro.nn import functional as F
from repro.nn.tensor import OPS, Tensor
from repro.obs import OpProfiler

BATCHES = (1, 3)


class Case:
    """One program: ``fn(params, inputs)`` over named parameter shapes
    (``low``/``high`` bound their values) and extra named inputs."""

    def __init__(self, fn, params, inputs=None, low=-1.0, high=1.0):
        self.fn = fn
        self.params = params
        self.inputs = inputs or {}
        self.low = low
        self.high = high


def _binary(fn, low=-1.0, high=1.0):
    """Same-shape, batch-of-rows against a row, and scalar-broadcast cases."""
    return lambda b: [
        Case(fn, {"a": (b, 4), "b": (b, 4)}, low=low, high=high),
        Case(fn, {"a": (b, 3, 4), "b": (4,)}, low=low, high=high),
        Case(fn, {"a": (1, 4), "b": (b, 1)}, low=low, high=high),
    ]


def _unary(fn, shape=(3, 4), low=-1.0, high=1.0):
    return lambda b: [Case(fn, {"x": (b,) + shape}, low=low, high=high)]


CASES = {
    "__add__": _binary(lambda p, i: p["a"] + p["b"]),
    "__sub__": _binary(lambda p, i: p["a"] - p["b"]),
    "__mul__": _binary(lambda p, i: p["a"] * p["b"]),
    "__truediv__": _binary(lambda p, i: p["a"] / p["b"], low=1.0, high=2.0),
    "maximum": _binary(lambda p, i: p["a"].maximum(p["b"])),
    "minimum": _binary(lambda p, i: p["a"].minimum(p["b"])),
    "where": lambda b: [
        Case(lambda p, i: nn.where(i["c"], p["a"], p["b"]), {"a": (b, 4), "b": (4,)},
             {"c": lambda rng: rng.random((b, 4)) > 0.5}),
    ],
    "__matmul__": lambda b: [
        Case(lambda p, i: p["a"] @ p["b"], {"a": (b, 4), "b": (4, 3)}),
        Case(lambda p, i: p["a"] @ p["b"], {"a": (b, 1, 4), "b": (4, 3)}),
        Case(lambda p, i: p["a"] @ p["b"], {"a": (b, 3, 4), "b": (b, 4, 2)}),
        Case(lambda p, i: p["a"] @ p["b"], {"a": (4,), "b": (4, b)}),
        Case(lambda p, i: p["a"] @ p["b"], {"a": (b, 4), "b": (4,)}),
        Case(lambda p, i: (p["a"] @ p["b"]) * float(b), {"a": (4,), "b": (4,)}),
    ],
    "__neg__": _unary(lambda p, i: -p["x"]),
    "__pow__": _unary(lambda p, i: p["x"] ** 1.5, low=0.5, high=2.0),
    "exp": _unary(lambda p, i: p["x"].exp()),
    "log": _unary(lambda p, i: p["x"].log(), low=0.5, high=2.0),
    "sqrt": _unary(lambda p, i: p["x"].sqrt(), low=0.5, high=2.0),
    "abs": _unary(lambda p, i: p["x"].abs()),
    "tanh": _unary(lambda p, i: p["x"].tanh()),
    "sigmoid": _unary(lambda p, i: p["x"].sigmoid()),
    "relu": _unary(lambda p, i: p["x"].relu()),
    "clip": _unary(lambda p, i: p["x"].clip(-0.5, 0.5)),
    "sum": lambda b: [
        Case(lambda p, i: p["x"].sum(), {"x": (b, 3, 4)}),
        Case(lambda p, i: p["x"].sum(axis=1), {"x": (b, 3, 4)}),
        Case(lambda p, i: p["x"].sum(axis=(0, 2), keepdims=True), {"x": (b, 3, 4)}),
    ],
    "max": lambda b: [
        Case(lambda p, i: p["x"].max(), {"x": (b, 3, 4)}),
        Case(lambda p, i: p["x"].max(axis=-1), {"x": (b, 3, 4)}),
        Case(lambda p, i: p["x"].max(axis=1, keepdims=True), {"x": (b, 3, 4)}),
    ],
    "reshape": _unary(lambda p, i: p["x"].reshape(-1, 2)),
    "transpose": lambda b: [
        Case(lambda p, i: p["x"].T, {"x": (b, 3, 4)}),
        Case(lambda p, i: p["x"].transpose(0, -1, -2), {"x": (b, 3, 4)}),
    ],
    "__getitem__": lambda b: [
        Case(lambda p, i: p["x"][:, 1:3], {"x": (b, 4)}),
        Case(lambda p, i: p["x"][i["rows"], i["cols"]], {"x": (b, 4)},
             {"rows": lambda rng: rng.integers(0, b, size=5),
              "cols": lambda rng: rng.integers(0, 4, size=5)}),
    ],
    "pad2d": _unary(lambda p, i: p["x"].pad2d(1), shape=(2, 3, 3)),
    "concat": lambda b: [
        Case(lambda p, i: nn.concat([p["a"], p["b"]], axis=1), {"a": (b, 2), "b": (b, 3)}),
    ],
    "stack": lambda b: [
        Case(lambda p, i: nn.stack([p["a"], p["b"]], axis=-1), {"a": (b, 3), "b": (b, 3)}),
    ],
    "conv2d": lambda b: [
        Case(lambda p, i: F.conv2d(p["x"], p["w"], p["bias"], padding=1),
             {"x": (b, 2, 5, 5), "w": (3, 2, 3, 3), "bias": (3,)}),
        Case(lambda p, i: F.conv2d(p["x"], p["w"], stride=2),
             {"x": (b, 2, 5, 5), "w": (3, 2, 3, 3)}),
    ],
    "max_pool2d": _unary(lambda p, i: F.max_pool2d(p["x"], 2), shape=(2, 4, 4)),
    "avg_pool2d": _unary(lambda p, i: F.avg_pool2d(p["x"], 2), shape=(2, 4, 4)),
    "channel_layer_norm": lambda b: [
        Case(lambda p, i: F.channel_layer_norm(p["x"], p["w"], p["bias"]),
             {"x": (b, 2, 3, 3), "w": (2,), "bias": (2,)}),
    ],
    "softplus": _unary(lambda p, i: F.softplus(p["x"])),
    "softmax": _unary(lambda p, i: F.softmax(p["x"], axis=-1)),
    "log_softmax": _unary(lambda p, i: F.log_softmax(p["x"], axis=1)),
    "entropy_from_logits": _unary(lambda p, i: F.entropy_from_logits(p["x"])),
    "dropout": _unary(
        lambda p, i: F.dropout(p["x"], 0.25, np.random.default_rng(5)), shape=(4,)
    ),
}

#: Entries whose program stays on the tape, and why.
ON_TAPE = {"dropout": "a per-call mask is not an array the plan can place"}


def test_every_entry_has_a_case():
    assert sorted(CASES) == sorted(OPS)
    for name, op in OPS.items():
        assert op.name == name


def _materialise(case, rng):
    params = {
        name: nn.Parameter(rng.uniform(case.low, case.high, size=shape))
        for name, shape in case.params.items()
    }
    return params


def _inputs(case, params, rng):
    inputs = {name: make(rng) for name, make in case.inputs.items()}
    shape = case.fn(params, inputs).shape
    inputs["w"] = rng.normal(size=shape)
    return inputs


def _program(case, params):
    def program(inputs):
        y = case.fn(params, inputs)
        return {"loss": (y * Tensor(inputs["w"])).sum(), "y": y}

    return program


def _tape(program, params, inputs):
    for p in params.values():
        p.grad = None
    outs = program(inputs)
    outs["loss"].backward()
    return (
        {name: t.data.copy() for name, t in outs.items()},
        {name: p.grad.copy() for name, p in params.items()},
    )


def _gradcheck(program, params, inputs, grads, eps=1e-6):
    for name, param in params.items():
        numeric = np.zeros_like(param.data)
        for index in np.ndindex(param.data.shape):
            saved = param.data[index]
            values = []
            for shift in (eps, -eps):
                param.data[index] = saved + shift
                with nn.no_grad():
                    values.append(program(inputs)["loss"].item())
            param.data[index] = saved
            numeric[index] = (values[0] - values[1]) / (2 * eps)
        np.testing.assert_allclose(grads[name], numeric, rtol=1e-4, atol=1e-6, err_msg=name)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("batch", BATCHES)
def test_entry_plans_byte_equal_to_the_tape(name, batch):
    rng = np.random.default_rng(sorted(CASES).index(name) * 10 + batch)
    for case in CASES[name](batch):
        params = _materialise(case, rng)
        program = _program(case, params)
        planner = nn.Planner(program, name=name)
        for __ in range(2):  # build + validate, then a plain replay
            inputs = _inputs(case, params, rng)
            want_outs, want_grads = _tape(program, params, inputs)
            for p in params.values():
                p.grad = None
            got = planner.step(inputs)
            if name in ON_TAPE:
                assert planner.last_path == "tape"
            else:
                assert planner.last_path == "plan", planner.last_reason
            assert sorted(got) == sorted(want_outs)
            for key, want in want_outs.items():
                assert got[key].tobytes() == want.tobytes(), key
            for key, p in params.items():
                assert p.grad.tobytes() == want_grads[key].tobytes(), key
        if name in ON_TAPE:
            assert planner.stats["unsupported"] == 1
        else:
            assert planner.stats["built"] == 1 and planner.stats["tape_runs"] == 0
        _gradcheck(program, params, inputs, want_grads)


@pytest.mark.parametrize("method", ["cews", "dppo", "edics"])
def test_every_op_of_a_smoke_episode_is_a_registry_entry(method, monkeypatch):
    """Wrapping ``_make`` sends every step to the tape, so the wrapper
    sees each op of one whole episode, update included — and so does the
    profiler, whose table has one row per entry called (with its call
    count) plus ``backward``, and no row for a composite like ``linear``."""
    seen = {}
    calls = collections.Counter()
    make = Tensor.__dict__["_make"].__func__

    def recording_make(op, parents, **attrs):
        seen[op.name] = op
        calls[op.name] += 1
        return make(op, parents, **attrs)

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
    scale = get_scale("smoke")
    trainer = build_trainer(
        method, scale.scenario(seed=0),
        train=make_train_config(scale, seed=0, backend="serial"),
        ppo=make_ppo_config(scale), seed=0,
    )
    try:
        with OpProfiler() as profiler:
            trainer.train(1)
    finally:
        trainer.close()
    assert seen
    for name, op in seen.items():
        assert OPS.get(name) is op, name
    rows = {stats.name: stats.calls for stats in profiler.hotspots()}
    assert rows.pop("backward") > 0
    assert rows == dict(calls)
    assert "concat" in rows

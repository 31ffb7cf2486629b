"""The surface ``bench/`` drives, pinned in tier-1.

``bench/`` is frozen between ``benchmark`` PRs and runs the program from
the outside: it imports a handful of ``repro`` names, spawns the real
``python -m repro serve`` CLI and parses its banner, reads replies with a
header-only fast path, and subtracts two ``info`` frames.  A PR under
``src/`` that drifts from any of that fails the benchmark pipeline after
the fact; these tests make it fail here first.  They use ``bench/``'s own
code, imported the way ``bench/run.py`` does (its directory on
``sys.path``).
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.serve import InferResult
from repro.serve.protocol import (
    encode_error,
    encode_reject,
    encode_result,
    encode_served,
)

from .conftest import serve_cli

REPO = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO / "bench"


@pytest.fixture(scope="module")
def bench():
    """``bench/``'s modules by name; unloaded again afterwards (their
    top-level names — ``serve``, ``stats``, ``proc`` — are too generic to
    leave in ``sys.modules``)."""
    names = ("serve", "inputs", "train_driver", "ledger")
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield {name: importlib.import_module(name) for name in names}
    finally:
        sys.path.remove(str(BENCH_DIR))
        for name, module in list(sys.modules.items()):
            if str(getattr(module, "__file__", "")).startswith(str(BENCH_DIR)):
                del sys.modules[name]


def test_bench_modules_import_against_src(bench):
    for name, module in bench.items():
        assert Path(module.__file__).parent == BENCH_DIR, name
    declared = {w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]}
    assert set(bench["serve"].WORKLOADS) == {n for n in declared if n.startswith("serve_")}


def test_training_driver_surface(bench):
    """``train_driver`` builds the smoke trainer lazily (not at import) and
    reads these fields off every episode's log."""
    trainer, config, scale = bench["train_driver"].smoke_trainer(0)
    seen = []
    try:
        trainer.train(1, on_episode_end=lambda t, episode: seen.append(t.last_episode_log))
    finally:
        trainer.close()
    [log] = seen
    for field in ("kappa", "xi", "rho", "policy_loss", "value_loss", "entropy",
                  "extrinsic_reward", "intrinsic_reward"):
        assert isinstance(getattr(log, field), float), field
    assert trainer.health.healthy


def test_peek_reply_takes_the_fast_path_on_every_reply_kind(bench):
    """If ``peek_reply`` falls back to a full ``decode_message`` the load
    generator's CPU triples and runs go invalid (``MAX_CLIENT_CPU_SHARE``)."""
    serve = bench["serve"]
    result = InferResult(
        moves=np.array([3, 0], dtype=np.int64),
        charges=np.array([0, 1], dtype=np.int64),
        log_prob=-1.25,
        value=0.5,
        generation=2,
        cached=True,
        batch_size=8,
    )
    # One seq per pickle integer opcode: BININT1, BININT2, BININT.
    for seq in (7, 255, 256, 65535, 65536, 2**31 - 1):
        frame = encode_result(result, seq)
        assert serve.peek_reply(frame, serve._HEADER) == (True, seq)
        for other in (
            encode_error(seq, "refused"),
            encode_reject(seq, 64, 0.01),
            encode_served(seq, {"generation": 1}),
        ):
            assert serve.peek_reply(other, serve._HEADER) == (False, seq)


def test_cli_banner_and_info_frame(bench, checkpoint_file):
    """``ServerProgram`` finds its ports in the banner, and the ``info``
    frame carries the counters the benchmark differences."""
    serve = bench["serve"]
    with serve.ServerProgram(checkpoint_file) as server:
        assert server.port > 0 and server.http_port > 0
        assert server.port != server.http_port
        with server.connect() as sock:
            info = serve._info(sock)
        orphans = server.stop()
    assert orphans == []
    assert server.process.returncode == 0
    for key in ("hits", "misses", "evictions"):
        assert isinstance(info["cache"][key], int), key
    for key in ("submitted", "rejected", "batches"):
        assert isinstance(info["batcher"][key], int), key


def test_cli_banner_has_one_line_per_front_door(checkpoint_file):
    with serve_cli(checkpoint_file, "--workers", "0") as (__, banner):
        tcp = [line for line in banner if "tcp://" in line]
        http = [line for line in banner if "http://" in line]
    assert len(tcp) == 1 and len(http) == 1
    # The expressions bench/serve.py parses them with.
    assert int(tcp[0].rsplit(":", 1)[1]) > 0
    assert int(http[0].split("http://")[1].split()[0].rsplit(":", 1)[1]) > 0

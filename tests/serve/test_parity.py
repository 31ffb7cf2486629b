"""Satellite 1: the batch-dimension parity gate.

The load-bearing numerical fact of the whole serving stack: a request's
answer must not depend on which micro-batch it was coalesced into.  The
engine stacks the conv trunk and runs every Linear layer as a stacked
``(B, 1, in)`` matmul (a plain ``(B, in)`` one varies with the row count
M for small M), then selects every row's action in one pass with the
function ``act_full`` itself calls — so a row of a B=6 forward is
bitwise-identical to the same request alone, with and without
forward-only execution plans, greedy or sampled, across reloads.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.agents.policy import PPOWorkerAgent
from repro.env import CrowdsensingEnv
from repro.experiments.scales import get_scale
from repro.serve import InferError, PolicyEngine
from repro.nn.functional import linear_rows

from .conftest import (
    Expected,
    assert_bitwise,
    capture_cases,
    request_of,
    tiny_scenario,
)

MAX_BATCH = 8  # the CLI's --max-batch default


@pytest.fixture
def cases(tiny_config, agent):
    env = CrowdsensingEnv(tiny_config)
    # Greedy and seeded-sampled requests interleaved in one batch.
    return capture_cases(env, agent, 6, seeds=[None, 11, None, 7, 11, None])


def select_path(monkeypatch, use_plans):
    """``REPRO_NO_PLANS=1`` is the one switch that serves from the tape."""
    if use_plans:
        monkeypatch.delenv("REPRO_NO_PLANS", raising=False)
    else:
        monkeypatch.setenv("REPRO_NO_PLANS", "1")


class TestBatchParity:
    @pytest.mark.parametrize("use_plans", [False, True], ids=["tape", "plans"])
    def test_stacked_rows_match_offline_act_full(
        self, network_state, cases, use_plans, monkeypatch
    ):
        select_path(monkeypatch, use_plans)
        engine = PolicyEngine(network_state)
        results = engine.infer_batch([request for request, __ in cases])
        assert len(results) == len(cases)
        for result, (__, expected) in zip(results, cases):
            assert_bitwise(result, expected)

    @pytest.mark.parametrize("use_plans", [False, True], ids=["tape", "plans"])
    def test_stacked_matches_per_row_singles(
        self, network_state, cases, use_plans, monkeypatch
    ):
        select_path(monkeypatch, use_plans)
        engine = PolicyEngine(network_state)
        stacked = engine.infer_batch([request for request, __ in cases])
        for (request, __), batched in zip(cases, stacked):
            [single] = engine.infer_batch([request])
            assert np.array_equal(single.moves, batched.moves)
            assert np.array_equal(single.charges, batched.charges)
            assert single.log_prob == batched.log_prob
            assert single.value == batched.value

    def test_plan_path_actually_replays(self, network_state, cases):
        engine = PolicyEngine(network_state)
        batch = [request for request, __ in cases]
        engine.infer_batch(batch)  # build + validate
        engine.infer_batch(batch)  # replay
        stats = engine.stats()
        assert stats["plan_runs"] >= 1
        assert stats["validation_failed"] == 0

    def test_plan_and_tape_agree_bitwise(self, network_state, cases, monkeypatch):
        planned = PolicyEngine(network_state)
        taped = PolicyEngine(network_state)
        batch = [request for request, __ in cases]
        planned.infer_batch(batch)  # warm the plan cache
        replayed = planned.infer_batch(batch)
        assert planned.stats()["plan_runs"] >= 1
        select_path(monkeypatch, use_plans=False)
        from_tape = taped.infer_batch(batch)
        assert taped.stats()["plan_runs"] == 0 and taped.stats()["tape_runs"] >= 1
        for a, b in zip(replayed, from_tape):
            assert np.array_equal(a.moves, b.moves)
            assert np.array_equal(a.charges, b.charges)
            assert a.log_prob == b.log_prob
            assert a.value == b.value

    def test_every_batch_size_matches_singles(self, network_state, cases, monkeypatch):
        """Parity holds for every prefix length, not just one size."""
        select_path(monkeypatch, use_plans=False)
        engine = PolicyEngine(network_state)
        batch = [request for request, __ in cases]
        singles = [engine.infer_batch([request])[0] for request in batch]
        for size in range(2, len(batch) + 1):
            for result, single in zip(engine.infer_batch(batch[:size]), singles):
                assert np.array_equal(result.moves, single.moves)
                assert result.log_prob == single.log_prob
                assert result.value == single.value


class Fleet:
    """Ten environment snapshots along one trajectory and the two networks
    (generation 1, and generation 2 after a reload) that answer them, so a
    test can ask for the offline ``act_full`` of any (state, seed,
    generation) and for an engine that has really been hot-reloaded."""

    def __init__(self):
        config = tiny_scenario()
        self.agents = {
            1: PPOWorkerAgent(config, seed=5),
            2: PPOWorkerAgent(config, seed=9),
        }
        env = CrowdsensingEnv(config)
        env.reset()
        self.snapshots = []
        for __ in range(10):
            self.snapshots.append(copy.deepcopy(env))
            action = self.agents[1].act(env, np.random.default_rng(0), greedy=True)
            env.step(action)
        self.engine = PolicyEngine(self.agents[1].network.state_dict(), generation=1)
        self.reloaded = PolicyEngine(self.agents[1].network.state_dict(), generation=1)
        # Plans are captured on generation 1's weights, then the weights
        # change under them.
        for size in range(1, MAX_BATCH + 1):
            self.reloaded.infer_batch([self.request(i, None) for i in range(size)])
        self.reloaded.reload(self.agents[2].network.state_dict(), generation=2)

    def request(self, index, seed):
        return request_of(self.snapshots[index], seed)

    def offline(self, generation, index, seed):
        rng = np.random.default_rng(0 if seed is None else seed)
        action, log_prob, value, __, __ = self.agents[generation].act_full(
            self.snapshots[index], rng, greedy=seed is None
        )
        return Expected(action.move, action.charge, log_prob, value)

    def check(self, engine, rows):
        """``rows`` = [(snapshot index, seed or None)]: one served batch,
        every row against offline ``act_full`` on ``engine``'s generation."""
        results = engine.infer_batch([self.request(i, seed) for i, seed in rows])
        for result, (index, seed) in zip(results, rows):
            assert result.generation == engine.generation
            assert result.batch_size == len(rows)
            assert_bitwise(result, self.offline(engine.generation, index, seed))


@pytest.fixture(scope="module")
def fleet():
    return Fleet()


class TestBatchNativeSelection:
    def test_every_batch_size_mixed_modes_across_a_reload(self, fleet):
        seeds = [None, 11, 7, None, None, 2**32 - 1, 0, None]
        for engine in (fleet.engine, fleet.reloaded):
            for size in range(1, MAX_BATCH + 1):
                # Slide the window so every row position sees both modes.
                rows = [((size + k) % 10, seeds[(size + k) % 8]) for k in range(size)]
                fleet.check(engine, rows)
            warm = engine.stats()
            for size in range(1, MAX_BATCH + 1):
                fleet.check(engine, [(k, seeds[k]) for k in range(size)])
            stats = engine.stats()
            # The stacked heads are planned, not silently taped.
            assert stats["validation_failed"] == 0
            assert stats["unsupported"] == 0
            assert stats["tape_runs"] == warm["tape_runs"]
            assert stats["built"] == warm["built"] == MAX_BATCH
            assert stats["plan_runs"] == warm["plan_runs"] + MAX_BATCH

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 9),
                st.one_of(st.none(), st.integers(0, 2**63 - 1)),
            ),
            min_size=1,
            max_size=MAX_BATCH,
        ),
        after_reload=st.booleans(),
    )
    def test_any_batch_composition_matches_offline(self, fleet, rows, after_reload):
        """Duplicates, any order, any seed: a row's answer is its own."""
        fleet.check(fleet.reloaded if after_reload else fleet.engine, rows)

    def test_all_greedy_and_all_sampled_batches(self, fleet):
        fleet.check(fleet.engine, [(k, None) for k in range(MAX_BATCH)])
        fleet.check(fleet.engine, [(k, 100 + k) for k in range(MAX_BATCH)])


class TestStackedMatmulProperty:
    """What ``linear_rows`` rests on, pinned where a numpy/BLAS that breaks it
    fails loudly instead of as a wrong served action: numpy runs a stacked
    ``(B, 1, in) @ (in, out)`` as one ``M = 1`` product per slice, so it
    reproduces the row-at-a-time bits.  (A plain ``(B, in) @`` does not —
    that is a fact about today's OpenBLAS, so it is not asserted.)"""

    @staticmethod
    def head_layers():
        config = get_scale("smoke").scenario()
        network = PPOWorkerAgent(config, seed=1).network
        return [
            network.fc,
            network.head_trunk,
            network.move_head,
            network.charge_head,
            network.value_head,
        ]

    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 8])
    def test_stacked_product_equals_the_row_loop(self, batch):
        rng = np.random.default_rng(batch)
        for layer in self.head_layers():
            weight_t = layer.weight.data.T  # the strided view F.linear uses
            bias = layer.bias.data
            for __ in range(8):
                x = rng.standard_normal((batch, layer.in_features))
                rows = np.concatenate(
                    [x[i : i + 1] @ weight_t + bias for i in range(batch)]
                )
                stacked = x.reshape(batch, 1, -1) @ weight_t + bias
                assert stacked.reshape(batch, -1).tobytes() == rows.tobytes()
                # Execution plans replay the product into a kept buffer.
                out = np.empty((batch, 1, layer.out_features))
                np.matmul(x.reshape(batch, 1, -1), weight_t, out=out)
                assert (out + bias).reshape(batch, -1).tobytes() == rows.tobytes()

    def test_rowwise_equals_per_row_linear_calls(self):
        rng = np.random.default_rng(0)
        with nn.no_grad():
            for layer in self.head_layers():
                x = nn.Tensor(rng.standard_normal((8, layer.in_features)))
                rows = np.concatenate([layer(x[i : i + 1]).data for i in range(8)])
                stacked = linear_rows(x, layer.weight, layer.bias)
                assert stacked.data.tobytes() == rows.tobytes()


class TestGeometryGuards:
    def test_mismatched_state_shape_is_refused(self, network_state, cases):
        engine = PolicyEngine(network_state)
        request, __ = cases[0]
        engine.infer_batch([request])  # pins the geometry
        bad = InferRequestVariant(request, pad=1)
        [marker] = engine.infer_batch([bad])
        assert isinstance(marker, InferError)

    def test_bad_row_fails_alone_not_its_chunk_mates(self, network_state, cases):
        """One stray-geometry row must not poison a coalesced batch."""
        engine = PolicyEngine(network_state)
        requests = [request for request, __ in cases]
        bad = InferRequestVariant(requests[0], pad=1)
        mixed = [requests[0], bad, requests[1]]
        first, marker, second = engine.infer_batch(mixed)
        assert isinstance(marker, InferError)
        assert_bitwise(first, cases[0][1])
        assert_bitwise(second, cases[1][1])
        # The forwarded batch was the two good rows only.
        assert first.batch_size == 2

    def test_bad_first_row_does_not_block_network_build(self, network_state, cases):
        """A stray first row must not pin (or poison) lazy network build."""
        engine = PolicyEngine(network_state)
        request, expected = cases[0]
        bad = InferRequestVariant(request, pad=1)
        marker, good = engine.infer_batch([bad, request])
        assert isinstance(marker, InferError)
        assert_bitwise(good, expected)

    def test_empty_batch_is_a_noop(self, network_state):
        assert PolicyEngine(network_state).infer_batch([]) == []


def InferRequestVariant(request, pad):
    """Same request with a spatially padded state (wrong geometry)."""
    from repro.serve import InferRequest

    g = request.state.shape[1] + pad
    return InferRequest(
        state=np.zeros((request.state.shape[0], g, g)),
        move_mask=request.move_mask,
        worker_features=request.worker_features,
        greedy=True,
        seed=None,
    )

"""Tests for the thread-safe gradient buffer."""

import math
import threading

import numpy as np
import pytest

from repro.distributed import GradientBuffer, GradientRejected


class TestBasics:
    def test_sum_of_contributions(self):
        buffer = GradientBuffer(2)
        buffer.add([np.ones(3), np.full(2, 2.0)])
        buffer.add([np.ones(3) * 2, np.full(2, 3.0)])
        grads, count = buffer.drain()
        assert count == 2
        np.testing.assert_array_equal(grads[0], np.full(3, 3.0))
        np.testing.assert_array_equal(grads[1], np.full(2, 5.0))

    def test_drain_clears(self):
        buffer = GradientBuffer(1)
        buffer.add([np.ones(1)])
        buffer.drain()
        assert buffer.count == 0
        with pytest.raises(RuntimeError, match="empty"):
            buffer.drain()

    def test_add_wrong_count_rejected(self):
        buffer = GradientBuffer(2)
        with pytest.raises(ValueError, match="expected 2"):
            buffer.add([np.ones(1)])

    def test_add_wrong_shape_rejected(self):
        buffer = GradientBuffer(1)
        buffer.add([np.ones(3)])
        with pytest.raises(ValueError, match="shape"):
            buffer.add([np.ones(4)])

    def test_clear(self):
        buffer = GradientBuffer(1)
        buffer.add([np.ones(1)])
        buffer.clear()
        assert buffer.count == 0

    def test_negative_num_params_rejected(self):
        with pytest.raises(ValueError):
            GradientBuffer(-1)

    def test_contributions_are_copied(self):
        buffer = GradientBuffer(1)
        grad = np.ones(2)
        buffer.add([grad])
        grad[:] = 100.0
        summed, __ = buffer.drain()
        np.testing.assert_array_equal(summed[0], np.ones(2))


class TestShapeValidation:
    def test_mismatch_names_parameter_index(self):
        buffer = GradientBuffer(3)
        buffer.add([np.ones(2), np.ones((2, 2)), np.ones(4)])
        with pytest.raises(ValueError, match="parameter index 1"):
            buffer.add([np.ones(2), np.ones((3, 2)), np.ones(4)])
        # The failed add never touched the sum.
        grads, count = buffer.drain()
        assert count == 1
        np.testing.assert_array_equal(grads[2], np.ones(4))

    def test_authoritative_shapes_validate_first_add(self):
        buffer = GradientBuffer(2, shapes=[(3,), (2, 2)])
        with pytest.raises(ValueError, match="parameter index 0"):
            buffer.add([np.ones(4), np.ones((2, 2))])
        buffer.add([np.ones(3), np.ones((2, 2))])
        assert buffer.count == 1

    def test_shapes_length_must_match(self):
        with pytest.raises(ValueError, match="shapes"):
            GradientBuffer(2, shapes=[(3,)])


class TestQuarantine:
    def test_nan_rejected_and_tallied(self):
        buffer = GradientBuffer(2)
        buffer.add([np.ones(3), np.ones(2)], employee=0)
        bad = [np.ones(3), np.array([1.0, np.nan])]
        with pytest.raises(GradientRejected, match="parameter index 1"):
            buffer.add(bad, employee=1)
        assert buffer.rejections == {1: 1}
        # The accepted sum is intact.
        grads, count = buffer.drain()
        assert count == 1
        np.testing.assert_array_equal(grads[0], np.ones(3))

    def test_inf_rejected(self):
        buffer = GradientBuffer(1)
        with pytest.raises(GradientRejected):
            buffer.add([np.array([np.inf])], employee=3)
        assert buffer.rejections == {3: 1}
        assert buffer.count == 0

    def test_norm_explosion_rejected(self):
        buffer = GradientBuffer(1, max_norm=10.0)
        buffer.add([np.ones(4)])  # norm 2: fine
        with pytest.raises(GradientRejected, match="norm"):
            buffer.add([np.full(4, 1e12)])
        grads, count = buffer.drain()
        assert count == 1

    def test_max_norm_disabled_by_default(self):
        buffer = GradientBuffer(1)
        buffer.add([np.full(4, 1e12)])  # huge but finite: accepted
        assert buffer.count == 1

    def test_rejections_anonymous_by_default(self):
        buffer = GradientBuffer(1)
        with pytest.raises(GradientRejected):
            buffer.add([np.array([np.nan])])
        assert buffer.rejections == {-1: 1}

    def test_clear_rejections(self):
        buffer = GradientBuffer(1)
        with pytest.raises(GradientRejected):
            buffer.add([np.array([np.nan])], employee=0)
        buffer.clear_rejections()
        assert buffer.rejections == {}

    def test_negative_max_norm_rejected(self):
        with pytest.raises(ValueError):
            GradientBuffer(1, max_norm=-1.0)


class TestThreadSafety:
    def test_concurrent_adds_all_counted(self):
        buffer = GradientBuffer(1)
        threads = [
            threading.Thread(target=lambda: buffer.add([np.ones(4)]))
            for __ in range(32)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        grads, count = buffer.drain()
        assert count == 32
        np.testing.assert_array_equal(grads[0], np.full(4, 32.0))


class TestRejectionMessages:
    """The list path and the vector path reject with the same words."""

    SHAPES = [(3,), (2, 2)]

    @pytest.mark.parametrize("path", ["list", "vector"])
    def test_non_finite_names_the_first_bad_parameter(self, path):
        buffer = GradientBuffer(2, shapes=self.SHAPES)
        grads = [np.array([1.0, np.inf, 2.0]), np.array([[np.nan, 1.0], [1.0, 1.0]])]
        with pytest.raises(GradientRejected) as caught:
            if path == "list":
                buffer.add(grads, employee=4)
            else:
                buffer.add_vector(np.concatenate([g.ravel() for g in grads]), employee=4)
        assert str(caught.value) == (
            "non-finite gradient at parameter index 0 (quarantined before accumulation)"
        )
        assert buffer.rejections == {4: 1}

    @pytest.mark.parametrize("path", ["list", "vector"])
    def test_norm_explosion_message(self, path):
        buffer = GradientBuffer(2, shapes=self.SHAPES, max_norm=10.0)
        grads = [np.full(3, 100.0), np.full((2, 2), 100.0)]
        with pytest.raises(GradientRejected) as caught:
            if path == "list":
                buffer.add(grads)
            else:
                buffer.add_vector(np.concatenate([g.ravel() for g in grads]))
        assert str(caught.value) == (
            "gradient norm 2.646e+02 exceeds quarantine threshold 1.000e+01"
        )

    def test_vector_of_the_wrong_size_is_refused(self):
        buffer = GradientBuffer(2, shapes=self.SHAPES)
        with pytest.raises(ValueError, match=r"expected \(7,\)"):
            buffer.add_vector(np.ones(6))
        assert buffer.count == 0


# ----------------------------------------------------------------------
# The chief's flat path against the per-parameter lists it replaced
# ----------------------------------------------------------------------
def reference_chief_round(state, contributions, num_employees, max_grad_norm, max_norm, lr):
    """One chief round as it ran on per-parameter lists: sum list by list
    (quarantining non-finite and norm-exploded contributions), unbias a
    degraded round, clip by the global norm, one Adam step per
    parameter.  ``state`` holds ``params``, ``m``, ``v`` and ``t``."""
    total, count = None, 0
    for grads in contributions:
        if not all(np.all(np.isfinite(g)) for g in grads):
            continue
        if max_norm > 0.0:
            squares = 0.0
            for grad in grads:
                squares += float(np.sum(np.asarray(grad, dtype=np.float64) ** 2))
            if float(np.sqrt(squares)) > max_norm:
                continue
        if total is None:
            total = [np.array(g, dtype=np.float64, copy=True) for g in grads]
        else:
            for acc, grad in zip(total, grads):
                acc += grad
        count += 1
    if count != num_employees:
        total = [grad * (num_employees / count) for grad in total]
    squares = 0.0
    for grad in total:
        squares += float(np.sum(grad * grad))
    norm = math.sqrt(squares)
    if norm > max_grad_norm and norm > 0.0:
        for grad in total:
            grad *= max_grad_norm / norm
    state["t"] += 1
    bias1 = 1.0 - 0.9 ** state["t"]
    bias2 = 1.0 - 0.999 ** state["t"]
    for param, m, v, grad in zip(state["params"], state["m"], state["v"], total):
        m *= 0.9
        m += (1.0 - 0.9) * grad
        square = (1.0 - 0.999) * grad
        square *= grad
        v *= 0.999
        v += square
        update = m / bias1
        update *= lr
        denominator = v / bias2
        np.sqrt(denominator, out=denominator)
        denominator += 1e-8
        update /= denominator
        param -= update
    return count


class TestChiefRoundsOnVectors:
    """Rounds through the trainer's buffer, clip and Adam on one vector
    give the bytes of the per-list chief: parameters, ``m`` and ``v``."""

    #: (gradient scale per employee, or None for an absent employee), and
    #: how many contributions each round sums.
    COUNTS = [3, 3, 2, 2, 2, 3]
    ROUNDS = [
        (1e-5, 2e-5, 3e-5),  # small: no clip
        (1.0, 0.5, 2.0),  # clips
        (1.0, None, 0.5),  # degraded quorum: 2 of 3
        (1.0, "nan", 0.5),  # a quarantined non-finite contribution
        (1.0, 1e6, 0.5),  # over quarantine_max_norm
        (1e-5, 1.0, 1e-3),
    ]

    def test_rounds_reproduce_the_per_list_bytes(self):
        from repro.agents import PPOConfig
        from repro.distributed import TrainConfig, build_trainer
        from repro.env import smoke_config

        trainer = build_trainer(
            "cews",
            smoke_config(seed=5, horizon=10, num_pois=15),
            train=TrainConfig(
                num_employees=3, quorum_fraction=0.5, quarantine_max_norm=1e4, seed=0
            ),
            ppo=PPOConfig(batch_size=10, epochs=1, learning_rate=1e-3),
        )
        try:
            params = trainer.global_agent.policy_parameters()
            optimizer = trainer.policy_optimizer
            state = {
                "params": [p.data.copy() for p in params],
                "m": [np.zeros(p.data.shape) for p in params],
                "v": [np.zeros(p.data.shape) for p in params],
                "t": 0,
            }
            rng = np.random.default_rng(41)
            for round_index, scales in enumerate(self.ROUNDS):
                contributions = []
                for index, scale in enumerate(scales):
                    if scale is None:
                        continue
                    grads = [rng.normal(size=p.data.shape) for p in params]
                    if scale == "nan":
                        grads[3][0] = np.nan
                    else:
                        grads = [g * scale for g in grads]
                    contributions.append(grads)
                    vector = np.concatenate([g.ravel() for g in grads])
                    try:
                        trainer.ppo_buffer.add_vector(vector, employee=index)
                    except GradientRejected:
                        pass
                trainer._apply_policy_gradients(episode=0)
                count = reference_chief_round(
                    state,
                    contributions,
                    num_employees=3,
                    max_grad_norm=trainer.global_agent.ppo.max_grad_norm,
                    max_norm=1e4,
                    lr=optimizer.lr,
                )
                assert count == self.COUNTS[round_index]
                saved = optimizer.state_dict()
                for i, param in enumerate(params):
                    assert param.data.tobytes() == state["params"][i].tobytes(), (round_index, i)
                    assert saved["m"][i].tobytes() == state["m"][i].tobytes(), (round_index, i)
                    assert saved["v"][i].tobytes() == state["v"][i].tobytes(), (round_index, i)
            assert trainer.health.degraded_rounds == 3
        finally:
            trainer.close()

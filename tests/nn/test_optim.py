"""Tests for optimizers and gradient utilities."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.modules import Parameter


def make_param(values):
    return Parameter(np.asarray(values, dtype=np.float64))


class TestOptimizerBase:
    def test_rejects_empty_params(self):
        with pytest.raises(ValueError, match="no trainable"):
            nn.SGD([], lr=0.1)

    def test_rejects_frozen_only_params(self):
        p = make_param([1.0])
        p.requires_grad = False
        with pytest.raises(ValueError, match="no trainable"):
            nn.SGD([p], lr=0.1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError, match="learning rate"):
            nn.SGD([make_param([1.0])], lr=0.0)

    def test_zero_grad(self):
        p = make_param([1.0])
        p.grad = np.array([1.0])
        opt = nn.SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_apply_gradients_count_mismatch(self):
        opt = nn.SGD([make_param([1.0])], lr=0.1)
        with pytest.raises(ValueError, match="gradients"):
            opt.apply_gradients([np.ones(1), np.ones(1)])

    def test_apply_gradients_steps(self):
        p = make_param([1.0])
        opt = nn.SGD([p], lr=0.5)
        opt.apply_gradients([np.array([2.0])])
        np.testing.assert_allclose(p.data, [0.0])


class TestSGD:
    def test_basic_step(self):
        p = make_param([1.0, 2.0])
        p.grad = np.array([0.5, 1.0])
        nn.SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 1.9])

    def test_none_grad_skipped(self):
        p = make_param([1.0])
        nn.SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_momentum_accumulates(self):
        p = make_param([0.0])
        opt = nn.SGD([p], lr=1.0, momentum=0.5)
        p.grad = np.array([1.0])
        opt.step()  # v=1, p=-1
        p.grad = np.array([1.0])
        opt.step()  # v=1.5, p=-2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_bad_momentum_rejected(self):
        with pytest.raises(ValueError, match="momentum"):
            nn.SGD([make_param([1.0])], lr=0.1, momentum=1.0)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # With bias correction the first Adam step is ~lr in magnitude.
        p = make_param([0.0])
        p.grad = np.array([3.7])
        nn.Adam([p], lr=0.01).step()
        np.testing.assert_allclose(p.data, [-0.01], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = make_param([5.0])
        opt = nn.Adam([p], lr=0.2)
        for __ in range(200):
            p.grad = 2 * (p.data - 1.0)
            opt.step()
        np.testing.assert_allclose(p.data, [1.0], atol=1e-3)

    def test_fits_linear_regression(self, rng):
        lin = nn.Linear(2, 1, rng=rng)
        opt = nn.Adam(lin.parameters(), lr=0.05)
        x = rng.normal(size=(64, 2))
        y = x @ np.array([[2.0], [-1.0]]) + 0.5
        for __ in range(300):
            opt.zero_grad()
            F.mse_loss(lin(nn.Tensor(x)), nn.Tensor(y)).backward()
            opt.step()
        np.testing.assert_allclose(lin.weight.data, [[2.0, -1.0]], atol=1e-2)
        np.testing.assert_allclose(lin.bias.data, [0.5], atol=1e-2)

    def test_bad_betas_rejected(self):
        with pytest.raises(ValueError, match="betas"):
            nn.Adam([make_param([1.0])], betas=(1.0, 0.999))

    def test_state_dict_round_trip(self):
        p = make_param([1.0])
        opt = nn.Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        state = opt.state_dict()

        p2 = make_param([1.0])
        opt2 = nn.Adam([p2], lr=0.1)
        opt2.load_state_dict(state)
        p.grad = np.array([0.5])
        p2.grad = np.array([0.5])
        opt.step()
        opt2.step()
        # p started from post-step value; replay p2 from the same point.
        assert opt2._step_count == opt._step_count

    def test_skips_frozen_parameters(self):
        trainable = make_param([1.0])
        frozen = make_param([1.0])
        frozen.requires_grad = False
        opt = nn.Adam([trainable, frozen], lr=0.1)
        assert len(opt.params) == 1


class TestGradClipping:
    def test_global_norm(self):
        a, b = make_param([3.0]), make_param([4.0])
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        assert nn.global_grad_norm([a, b]) == pytest.approx(5.0)

    def test_norm_ignores_none(self):
        a, b = make_param([1.0]), make_param([1.0])
        a.grad = np.array([2.0])
        assert nn.global_grad_norm([a, b]) == pytest.approx(2.0)

    def test_clip_scales_down(self):
        a, b = make_param([1.0]), make_param([1.0])
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        pre = nn.clip_grad_norm([a, b], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert nn.global_grad_norm([a, b]) == pytest.approx(1.0)
        # Direction preserved.
        np.testing.assert_allclose(a.grad / b.grad, [0.75])

    def test_clip_noop_when_under(self):
        a = make_param([1.0])
        a.grad = np.array([0.5])
        nn.clip_grad_norm([a], max_norm=1.0)
        np.testing.assert_allclose(a.grad, [0.5])

    #: The CNN actor-critic's parameter shapes at the smoke scale.
    POLICY_SHAPES = [(8, 3, 3, 3), (8,), (8,), (8,), (16, 8, 3, 3), (16,), (16,), (16,),
                     (16, 16, 3, 3), (16,), (16,), (16,), (128, 256), (128,), (9, 130),
                     (9,), (1, 128), (1,)]

    def test_vector_norm_and_clip_keep_the_list_bits(self):
        """One square over the vector, then one sum per parameter view, in
        order: the partial sums of the list path, so the same bits (a
        single sum over the whole vector differs in about a third of
        these draws)."""
        rng = np.random.default_rng(8)
        for __ in range(50):
            params = [Parameter(np.zeros(s)) for s in self.POLICY_SHAPES]
            for param in params:
                param.grad = rng.normal(size=param.data.shape) * 10.0 ** rng.integers(-3, 3)
            vector = nn.flatten_gradients(params)
            assert nn.vector_grad_norm(vector, params) == nn.global_grad_norm(params)
            norm = nn.clip_grad_vector(vector, params, max_norm=0.5)
            assert norm == nn.clip_grad_norm(params, max_norm=0.5)
            assert vector.tobytes() == nn.flatten_gradients(params).tobytes()


def reference_adam(datas, grad_steps, lr=0.01, betas=(0.9, 0.999), eps=1e-8):
    """Adam spelled out of place, as the optimizer computed it before its
    moments were updated in place; returns the parameters after every step."""
    beta1, beta2 = betas
    m = [np.zeros_like(d) for d in datas]
    v = [np.zeros_like(d) for d in datas]
    history = []
    for t, grads in enumerate(grad_steps, start=1):
        bias1 = 1.0 - beta1 ** t
        bias2 = 1.0 - beta2 ** t
        for i, grad in enumerate(grads):
            if grad is None:
                continue
            m[i] = beta1 * m[i] + (1.0 - beta1) * grad
            v[i] = beta2 * v[i] + (1.0 - beta2) * grad * grad
            m_hat = m[i] / bias1
            v_hat = v[i] / bias2
            datas[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        history.append([d.copy() for d in datas])
    return history


class TestAdamInPlace:
    SHAPES = [(2, 3), (4,), (3, 1, 2)]

    def grad_steps(self, steps=20):
        rng = np.random.default_rng(5)
        out = []
        for t in range(steps):
            grads = [rng.normal(scale=10.0 ** rng.integers(-3, 3), size=s) for s in self.SHAPES]
            if t % 7 == 3:
                grads[1] = None  # a parameter with no gradient this step
            out.append(grads)
        return out

    def initial(self):
        rng = np.random.default_rng(9)
        return [rng.normal(size=s) for s in self.SHAPES]

    def test_twenty_steps_with_a_round_trip_equal_the_reference(self):
        steps = self.grad_steps()
        want = reference_adam(self.initial(), steps)
        params = [Parameter(d) for d in self.initial()]
        opt = nn.Adam(params, lr=0.01)
        for t, grads in enumerate(steps):
            if t == 10:
                # Halfway, continue on a fresh optimizer from a state_dict.
                state = opt.state_dict()
                opt = nn.Adam(params, lr=0.01)
                opt.load_state_dict(state)
            for param, grad in zip(params, grads):
                param.grad = grad
            opt.step()
            for param, expected in zip(params, want[t]):
                assert param.data.tobytes() == expected.tobytes(), f"step {t}"

    def test_earlier_state_dict_is_not_moved_by_later_steps(self):
        params = [Parameter(d) for d in self.initial()]
        opt = nn.Adam(params, lr=0.01)
        steps = self.grad_steps(6)
        for param, grad in zip(params, steps[0]):
            param.grad = grad
        opt.step()
        state = opt.state_dict()
        frozen = [m.tobytes() for m in state["m"]] + [v.tobytes() for v in state["v"]]
        for grads in steps[1:]:
            for param, grad in zip(params, grads):
                param.grad = grad
            opt.step()
        assert [m.tobytes() for m in state["m"]] + [v.tobytes() for v in state["v"]] == frozen

    def test_loaded_moments_are_owned_copies(self):
        p = make_param([1.0, 2.0])
        opt = nn.Adam([p], lr=0.1)
        m, v = np.array([0.5, 0.5]), np.array([0.25, 0.25])
        opt.load_state_dict({"step_count": 1, "m": [m], "v": [v]})
        p.grad = np.array([1.0, -1.0])
        opt.step()
        np.testing.assert_array_equal(m, [0.5, 0.5])
        np.testing.assert_array_equal(v, [0.25, 0.25])
        assert opt.state_dict()["m"][0].dtype == np.float64

    def test_load_rejects_a_moment_of_the_wrong_shape(self):
        opt = nn.Adam([Parameter(np.zeros((2, 3)))], lr=0.1)
        with pytest.raises(ValueError, match=r"'m'\[0\] has shape \(1,\)"):
            opt.load_state_dict({"step_count": 1, "m": [np.zeros(1)], "v": [np.zeros((2, 3))]})
        with pytest.raises(ValueError, match=r"'v'\[0\]"):
            opt.load_state_dict({"step_count": 1, "m": [np.zeros((2, 3))], "v": [np.zeros(3)]})

    def test_load_rejects_a_wrong_moment_count(self):
        opt = nn.Adam([make_param([1.0])], lr=0.1)
        with pytest.raises(ValueError, match="2 moments for 1 parameters"):
            opt.load_state_dict(
                {"step_count": 1, "m": [np.zeros(1)] * 2, "v": [np.zeros(1)] * 2}
            )

    def test_load_accepts_none_entries_in_pairs_only(self):
        a, b = make_param([1.0]), make_param([2.0])
        opt = nn.Adam([a, b], lr=0.1)
        opt.load_state_dict({"step_count": 3, "m": [None, np.ones(1)], "v": [None, np.ones(1)]})
        a.grad, b.grad = np.array([1.0]), np.array([1.0])
        opt.step()  # the None pair starts from zero moments
        with pytest.raises(ValueError, match="moment 0"):
            opt.load_state_dict({"step_count": 1, "m": [None, None], "v": [np.ones(1), None]})

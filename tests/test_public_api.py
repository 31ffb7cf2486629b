"""Smoke tests of the top-level public API surface."""

import subprocess
import sys

import numpy as np
import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_subpackages_importable(self):
        for module in self._subpackages():
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_all_is_complete(self):
        """Every public (non-underscore, non-module) name appears in __all__."""
        import types

        for module in self._subpackages():
            public = {
                name
                for name, value in vars(module).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)
            }
            missing = public - set(module.__all__)
            assert not missing, f"{module.__name__}: missing from __all__: {sorted(missing)}"
            assert len(module.__all__) == len(set(module.__all__)), module.__name__

    @staticmethod
    def _subpackages():
        import repro.agents
        import repro.analysis
        import repro.curiosity
        import repro.distributed
        import repro.env
        import repro.experiments
        import repro.nn
        import repro.obs
        import repro.utils

        return (
            repro.agents,
            repro.analysis,
            repro.curiosity,
            repro.distributed,
            repro.env,
            repro.experiments,
            repro.nn,
            repro.obs,
            repro.utils,
        )


class TestLinterStaysOutOfRuntime:
    def test_runtime_imports_and_cli_parser_do_not_load_the_linter(self):
        """Training and serving import ``repro.analysis`` for the
        sanitizers only: the lint engine and its rules load when
        ``python -m repro lint`` runs, not when any parser is built."""
        probe = (
            "import sys\n"
            "import repro.distributed.procpool, repro.serve.pool\n"
            "from repro.__main__ import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "loaded = [m for m in ('repro.analysis.rules', 'repro.analysis.engine')"
            " if m in sys.modules]\n"
            "sys.exit(f'linter loaded: {loaded}' if loaded else 0)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


class TestQuickstartFlow:
    """The README quickstart must work exactly as documented."""

    def test_readme_quickstart(self):
        trainer = repro.build_trainer(
            "cews",
            repro.smoke_config(horizon=8, num_pois=10),
            train=repro.TrainConfig(num_employees=2, episodes=2, k_updates=1),
            ppo=repro.PPOConfig(batch_size=8, epochs=1),
        )
        history = trainer.train()
        trainer.close()
        assert np.isfinite(history.logs[-1].kappa)

    def test_evaluate_scripted_agent(self):
        config = repro.smoke_config(horizon=8, num_pois=10)
        env = repro.CrowdsensingEnv(config, reward_mode="dense")
        metrics = repro.evaluate_policy(
            repro.GreedyAgent(), env, np.random.default_rng(0)
        )
        assert 0.0 <= metrics.kappa <= 1.0


class TestSeedingUtils:
    def test_spawn_rngs_independent(self):
        from repro.utils import spawn_rngs

        a, b = spawn_rngs(0, 2)
        assert a.random() != b.random()

    def test_spawn_rngs_deterministic(self):
        from repro.utils import spawn_rngs

        first = [g.random() for g in spawn_rngs(7, 3)]
        second = [g.random() for g in spawn_rngs(7, 3)]
        assert first == second

    def test_spawn_validation(self):
        from repro.utils import spawn_rngs

        with pytest.raises(ValueError):
            spawn_rngs(0, 0)

    def test_rng_from(self):
        from repro.utils import rng_from

        gen = np.random.default_rng(0)
        assert rng_from(gen) is gen
        assert isinstance(rng_from(5), np.random.Generator)
        assert isinstance(rng_from(None), np.random.Generator)

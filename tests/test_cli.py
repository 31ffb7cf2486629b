"""Tests for the top-level ``python -m repro`` CLI."""

import ast
import glob
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.__main__ import main

from .conftest import process_alive as _alive

SRC_ROOT = Path(repro.__file__).resolve().parents[1]


class TestTrainCommand:
    def test_train_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        checkpoint = tmp_path / "ckpt.npz"
        history = tmp_path / "hist.csv"
        code = main(
            [
                "train",
                "--method",
                "dppo",
                "--scale",
                "smoke",
                "--episodes",
                "2",
                "--checkpoint",
                str(checkpoint),
                "--history",
                str(history),
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert checkpoint.exists()
        assert history.exists()
        out = capsys.readouterr().out
        assert "tail kappa=" in out

    def test_evaluate_round_trip(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt.npz"
        main(
            [
                "train", "--method", "cews", "--scale", "smoke",
                "--episodes", "1", "--checkpoint", str(checkpoint),
            ]
        )
        code = main(
            [
                "evaluate", "--method", "cews", "--scale", "smoke",
                "--checkpoint", str(checkpoint), "--episodes", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kappa=" in out

    def test_train_checkpoint_dir_resumes(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        args = [
            "train", "--method", "dppo", "--scale", "smoke",
            "--episodes", "2", "--checkpoint-dir", str(ckpt_dir),
            "--save-every", "1", "--keep-last", "2", "--seed", "1",
        ]
        assert main(args) == 0
        assert (ckpt_dir / "latest").exists()
        assert any(ckpt_dir.glob("ckpt-*.npz"))
        # Re-running with the same target is a checkpoint-covered no-op.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "already cover" in out

    def test_train_fault_tolerance_flags_accepted(self, tmp_path):
        code = main(
            [
                "train", "--method", "dppo", "--scale", "smoke",
                "--episodes", "1", "--backend", "serial",
                "--quorum-fraction", "0.5", "--employee-timeout", "30",
                "--max-retries", "2", "--quarantine-max-norm", "1e9",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flag", [["--backend", "thread"], ["--mode", "sequential"]]
    )
    def test_removed_backend_spellings_rejected(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--scale", "smoke", "--episodes", "1", *flag])
        assert excinfo.value.code == 2

    def test_report_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        (tmp_path / "fig3.txt").write_text("body")
        assert main(["report"]) == 0
        assert (tmp_path / "REPORT.md").exists()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["deploy"])
        assert excinfo.value.code == 2

    def test_help_lists_all_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in (
            "train", "worker", "evaluate", "report", "lint", "trace", "profile",
        ):
            assert command in out


class TestSocketTransportCli:
    def test_train_over_loopback_socket(self, tmp_path, capsys):
        checkpoint = tmp_path / "socket.npz"
        code = main(
            [
                "train", "--method", "cews", "--scale", "smoke",
                "--episodes", "1", "--backend", "socket",
                "--listen", "127.0.0.1:0", "--checkpoint", str(checkpoint),
            ]
        )
        assert code == 0
        assert checkpoint.exists()
        out = capsys.readouterr().out
        assert "transport: listening on 127.0.0.1:" in out
        assert "token" in out

    def test_remote_workers_prints_launch_hints(self, capsys):
        code = main(
            [
                "train", "--method", "cews", "--scale", "smoke",
                "--episodes", "1", "--backend", "socket",
                "--remote-workers", "0",
            ]
        )
        assert code == 0

    def test_malformed_listen_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "train", "--method", "cews", "--scale", "smoke",
                    "--episodes", "1", "--backend", "socket",
                    "--listen", "no-port-here",
                ]
            )

    def test_worker_requires_connect_token_index(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker"])
        assert excinfo.value.code == 2

    def test_worker_unreachable_chief_fails_cleanly(self, capsys):
        code = main(
            [
                "worker", "--connect", "127.0.0.1:1", "--token", "t",
                "--index", "0", "--connect-timeout", "0.2",
            ]
        )
        assert code == 1
        assert "unreachable" in capsys.readouterr().out


class TestObservabilityCommands:
    def test_train_with_trace_dir_and_summary(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        assert (
            main(
                [
                    "train", "--method", "dppo", "--scale", "smoke",
                    "--episodes", "1", "--seed", "1",
                    "--trace-dir", str(trace_dir),
                ]
            )
            == 0
        )
        assert (trace_dir / "trace.jsonl").exists()
        capsys.readouterr()
        assert main(["trace", "summary", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "phase.explore" in out
        assert "employee.explore" in out

    def test_trace_cat_emits_json_lines(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        main(
            [
                "train", "--method", "dppo", "--scale", "smoke",
                "--episodes", "1", "--seed", "1", "--trace-dir", str(trace_dir),
            ]
        )
        capsys.readouterr()
        assert main(["trace", "cat", str(trace_dir)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["schema"] == 1

    def test_trace_missing_path_fails_gracefully(self, tmp_path, capsys):
        assert main(["trace", "summary", str(tmp_path / "nope")]) == 1
        assert "no trace file" in capsys.readouterr().out

    def test_profile_flag_on_train(self, capsys):
        assert (
            main(
                [
                    "train", "--method", "dppo", "--scale", "smoke",
                    "--episodes", "1", "--seed", "1", "--profile",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "MFLOP" in out  # hot-spot table header

    @pytest.mark.parametrize("backend", ["process", "socket"])
    @pytest.mark.parametrize("flag", ["--profile", "--sanitize"])
    def test_op_instruments_refused_off_the_serial_backend(
        self, backend, flag, capsys
    ):
        """Employees' ops run in forked children there, so the parent's
        profiler or sanitizer would see none of them: refuse the flag
        before any worker starts."""
        code = main(
            [
                "train", "--scale", "smoke", "--episodes", "1",
                "--backend", backend, flag,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "--backend serial" in captured.err
        assert "training" not in captured.out

    def test_profile_subcommand(self, capsys):
        assert main(["profile", "--method", "dppo", "--episodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "profiler:" in out
        assert "backward" in out

    def test_dashboard_flag(self, capsys):
        assert (
            main(
                [
                    "train", "--method", "dppo", "--scale", "smoke",
                    "--episodes", "2", "--seed", "1", "--dashboard",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "episode" in out


def _descendants(pid):
    found = []
    for task in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            children = [int(child) for child in Path(task).read_text().split()]
        except OSError:
            continue
        for child in children:
            found += [child] + _descendants(child)
    return found


class TestTrainSignals:
    @pytest.mark.parametrize(
        "signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"]
    )
    def test_signal_stops_training_and_leaves_nothing_behind(self, signum):
        """SIGTERM (what a supervisor sends) takes SIGINT's way out of a
        process-backend run: ``trainer.close()`` reaps the employees and
        unlinks their slabs instead of the default action orphaning them."""
        before_shm = set(glob.glob("/dev/shm/repro-shm-*"))
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "train", "--method", "cews",
             "--scale", "smoke", "--episodes", "200", "--backend", "process",
             "--dashboard"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        family = []
        try:
            # The first dashboard frame: every employee is up and the
            # signal lands in the middle of an episode.
            for line in process.stdout:
                if "episode 0" in line:
                    break
            family = _descendants(process.pid)
            assert len(family) >= 2, "the CLI forked no employees"
            assert set(glob.glob("/dev/shm/repro-shm-*")) - before_shm
            process.send_signal(signum)
            process.wait(timeout=5)
            deadline = time.monotonic() + 5
            while any(map(_alive, family)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in family if _alive(pid)] == []
            assert set(glob.glob("/dev/shm/repro-shm-*")) == before_shm
        finally:
            # A failing run must not leak into the rest of the session.
            for pid in [process.pid] + family:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            process.wait(timeout=30)
            process.stdout.close()
            for path in set(glob.glob("/dev/shm/repro-shm-*")) - before_shm:
                os.unlink(path)


class TestEnvironmentKnobLedger:
    def test_readme_names_exactly_the_variables_src_reads(self):
        """Every ``REPRO_*`` switch the code reads is documented, and the
        README documents none the code stopped reading — so a new switch
        cannot land without a line of documentation, and the count (4)
        moves in review."""
        pattern = re.compile(r"REPRO_[A-Z_]+")
        in_src = set()
        for path in SRC_ROOT.rglob("*.py"):
            in_src.update(pattern.findall(path.read_text()))
        in_readme = set(pattern.findall((SRC_ROOT.parent / "README.md").read_text()))
        assert in_src - in_readme == set(), "read in src/, missing from README.md"
        assert in_readme - in_src == set(), "named in README.md, no longer read"
        assert len(in_src) == 4


class TestCliFlagLedger:
    def test_flag_count_is_pinned(self):
        """``python -m repro`` declares 56 flags (one ``add_argument`` call
        each, across every subcommand), so a new flag cannot land without
        moving this pin in review."""
        tree = ast.parse((SRC_ROOT / "repro" / "__main__.py").read_text())
        flags = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ]
        assert len(flags) == 56

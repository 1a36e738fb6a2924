"""Tests for the CLI runner and the E11/E12 extension experiments."""

import json

import pytest

from repro.experiments.__main__ import main as cli_main
from repro.experiments import run_connectivity, run_distributed


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        for key in ("e1", "e10", "e3b", "e11", "e12", "e13"):
            assert key in out

    def test_fast_single_experiment(self, capsys):
        assert cli_main(["e2", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "nested" in out

    def test_unknown_id_errors(self):
        with pytest.raises(SystemExit):
            cli_main(["e99"])

    def test_bad_jobs_errors(self):
        with pytest.raises(SystemExit):
            cli_main(["e2", "--jobs", "0"])

    def test_array_backend_errors(self, capsys):
        """The array backend is the dense backend's namespace now."""
        with pytest.raises(SystemExit):
            cli_main(["e2", "--fast", "--backend", "array"])
        assert "'dense', 'sparse', 'sharded'" in capsys.readouterr().err

    def test_jobs_and_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        assert cli_main(
            ["e2", "e10", "--fast", "--jobs", "2", "--artifacts", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "nested" in out
        for experiment in ("e2", "e10"):
            payload = json.loads(
                (out_dir / f"BENCH_{experiment}.json").read_text()
            )
            assert payload["kind"] == "bench"
            assert payload["experiment"] == experiment
            assert payload["env"]["jobs"] == 2
            assert payload["table"]["rows"]


class TestE11Distributed:
    @pytest.fixture(scope="class")
    def table(self):
        return run_distributed(n_values=(8,), trials=2, rng=13)

    def test_protocol_completes_feasibly(self, table):
        # The run itself validates every schedule; check bookkeeping.
        for row in table.rows:
            assert row["distributed_colors"] >= row["centralized_colors"] - 1e-9
            assert row["protocol_slots"] >= row["distributed_colors"]

    def test_overhead_reported(self, table):
        for row in table.rows:
            assert row["distributed_overhead"] >= 1.0


class TestE12Connectivity:
    @pytest.fixture(scope="class")
    def table(self):
        return run_connectivity(n_values=(8, 16), trials=1, rng=14)

    def test_chain_separation(self, table):
        rows = [r for r in table.rows if r["placement"] == "exp-chain"]
        # Uniform/linear grow with n; sqrt and free powers stay flat.
        assert rows[-1]["uniform"] > rows[0]["uniform"]
        assert rows[-1]["sqrt"] <= 3
        assert rows[-1]["free_power"] <= 3

    def test_free_power_never_worse(self, table):
        for row in table.rows:
            assert row["free_power"] <= row["uniform"]
            assert row["free_power"] <= row["linear"]
            assert row["free_power"] <= row["sqrt"]

"""The command-line interface."""

import json

import numpy as np
import pytest

import repro.cli as cli
from reference import congestion_reference, weak_diameter_reference
from repro.cli import main
from repro.decomposition.rozhon_ghaffari import decompose
from repro.graphs import generators
from repro.graphs.graph import Graph


class TestCLI:
    def test_color_command(self, capsys):
        assert main(["color", "--family", "cycle", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert "colored n=12" in out
        assert "seed_fixing" in out

    def test_color_with_clique_solver(self, capsys):
        assert main(
            ["color", "--family", "regular", "--n", "16", "--degree", "3",
             "--solver", "clique"]
        ) == 0
        assert "clique" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert main(["compare", "--family", "cycle", "--n", "12"]) == 0
        out = capsys.readouterr().out
        for solver in ("congest", "polylog", "clique", "mpc-linear"):
            assert solver in out

    def test_color_json_output(self, capsys):
        assert main(
            ["color", "--family", "cycle", "--n", "12", "--seed", "5", "--json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["solver"] == "congest"
        assert record["n"] == 12
        assert record["seed"] == 5
        assert record["rounds_total"] == sum(
            record["rounds_breakdown"].values()
        )
        assert len(record["colors_sha256"]) == 64

    def test_color_json_seed_changes_graph(self, capsys):
        hashes = []
        for seed in (0, 1):
            assert main(
                ["color", "--family", "regular", "--n", "16", "--degree", "3",
                 "--seed", str(seed), "--json"]
            ) == 0
            hashes.append(json.loads(capsys.readouterr().out)["colors_sha256"])
        assert hashes[0] != hashes[1]

    def test_compare_json_output(self, capsys):
        assert main(["compare", "--family", "cycle", "--n", "12", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["solver"] for r in records] == [
            "congest", "polylog", "clique", "mpc-linear", "mpc-sublinear"
        ]
        assert all(r["rounds_total"] > 0 for r in records)

    def test_decompose_command(self, capsys):
        assert main(["decompose", "--family", "grid", "--n", "25"]) == 0
        assert "decomposition" in capsys.readouterr().out

    def test_decompose_permuted_grid(self, capsys, monkeypatch):
        """On an id-permuted grid the printed weak diameter and congestion
        equal the per-cluster references."""
        base = generators.grid_graph(30, 30)
        perm = np.random.default_rng(7).permutation(base.n)
        graph = Graph(
            base.n, np.stack([perm[base.edges_u], perm[base.edges_v]], axis=1)
        )
        monkeypatch.setattr(cli, "_build_graph", lambda *args: graph)
        assert main(["decompose", "--family", "grid", "--n", "900"]) == 0
        out = capsys.readouterr().out
        decomposition = decompose(graph)
        assert (
            f"weak diameter {weak_diameter_reference(decomposition)}, "
            f"congestion {congestion_reference(decomposition)}"
        ) in out

    def test_unknown_family_exits(self):
        with pytest.raises(SystemExit):
            main(["color", "--family", "hypercube"])

    def test_unknown_solver_exits(self):
        with pytest.raises(SystemExit):
            main(["color", "--solver", "quantum"])

    def test_odd_regular_product_fixed_up(self, capsys):
        assert main(
            ["color", "--family", "regular", "--n", "15", "--degree", "3"]
        ) == 0

    @pytest.mark.parametrize("command", ["color", "compare"])
    def test_json_output_reproducible(self, capsys, command):
        # Every solver is deterministic: a rerun prints the same record.
        args = [command, "--family", "regular", "--n", "16", "--degree", "3",
                "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_sweep_workers_flag_removed(self):
        with pytest.raises(SystemExit):
            main(["color", "--sweep-workers", "2"])

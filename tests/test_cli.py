"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.epivoter import count_all
from repro.graph.bigraph import BipartiteGraph
from repro.graph.io import read_edge_list, write_edge_list
from repro.obs import NULL_REGISTRY, counts_from_dict, validate_report


@pytest.fixture
def graph_file(tmp_path):
    g = BipartiteGraph(4, 4, [(u, v) for u in range(4) for v in range(4) if u <= v])
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_count_defaults(self):
        args = build_parser().parse_args(["count", "--dataset", "Github"])
        assert args.max_p == 10 and args.pivot == "product"


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Github" in out and "DBLP" in out

    def test_count_all(self, graph_file, capsys):
        assert main(["count", "--input", graph_file, "--max-p", "3", "--max-q", "3"]) == 0
        out = capsys.readouterr().out
        assert "p\\q" in out

    def test_count_single(self, graph_file, capsys):
        assert main(["count", "--input", graph_file, "-p", "2", "-q", "2"]) == 0
        assert "C(2,2) = " in capsys.readouterr().out

    def test_count_requires_both_pq(self, graph_file):
        with pytest.raises(SystemExit):
            main(["count", "--input", graph_file, "-p", "2"])

    def test_estimate_zigzag(self, graph_file, capsys):
        code = main(
            [
                "estimate", "--input", graph_file, "--algorithm", "zigzag",
                "--h-max", "3", "--samples", "2000", "--seed", "1",
            ]
        )
        assert code == 0
        assert "p\\q" in capsys.readouterr().out

    def test_estimate_workers_match_serial(self, graph_file, capsys):
        base = [
            "estimate", "--input", graph_file, "--algorithm", "zigzag++",
            "--h-max", "3", "--samples", "500", "--seed", "4",
        ]
        outputs = []
        for extra in ([], ["--workers", "2"]):
            assert main(base + extra) == 0
            lines = capsys.readouterr().out.splitlines()
            outputs.append([l for l in lines if not l.startswith("elapsed")])
        assert outputs[0] == outputs[1]

    def test_estimate_hybrid(self, graph_file, capsys):
        code = main(
            [
                "estimate", "--input", graph_file, "--algorithm", "hybrid++",
                "--h-max", "3", "--samples", "2000", "--seed", "2",
            ]
        )
        assert code == 0

    def test_maximal(self, graph_file, capsys):
        assert main(["maximal", "--input", graph_file]) == 0
        assert "maximal bicliques" in capsys.readouterr().out

    def test_hcc(self, graph_file, capsys):
        assert main(["hcc", "--input", graph_file, "--h-max", "3"]) == 0
        assert "hcc(2,2)" in capsys.readouterr().out

    def test_densest_peeling(self, graph_file, capsys):
        assert main(["densest", "--input", graph_file, "-p", "2", "-q", "2"]) == 0
        assert "density" in capsys.readouterr().out

    def test_densest_exact(self, graph_file, capsys):
        code = main(
            ["densest", "--input", graph_file, "-p", "2", "-q", "2", "--method", "exact"]
        )
        assert code == 0

    def test_stats(self, graph_file, capsys):
        assert main(["stats", "--input", graph_file]) == 0
        out = capsys.readouterr().out
        assert "degeneracy" in out and "num_components" in out

    def test_partition(self, graph_file, capsys):
        assert main(["partition", "--input", graph_file, "--quantile", "0.5"]) == 0
        assert "sparse region" in capsys.readouterr().out

    def test_adaptive(self, graph_file, capsys):
        code = main(
            [
                "adaptive", "--input", graph_file, "-p", "2", "-q", "2",
                "--seed", "1", "--max-samples", "3000",
            ]
        )
        assert code == 0
        assert "samples" in capsys.readouterr().out

    def test_graph_required(self):
        with pytest.raises(SystemExit):
            main(["count"])

    def test_both_sources_rejected(self, graph_file):
        with pytest.raises(SystemExit):
            main(["count", "--dataset", "Github", "--input", graph_file])

    def test_elapsed_line_reports_phases(self, graph_file, capsys):
        main(["count", "--input", graph_file, "--max-p", "2", "--max-q", "2"])
        elapsed = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("elapsed:")
        ]
        assert len(elapsed) == 1
        assert "load" in elapsed[0] and "compute" in elapsed[0]
        assert "total" in elapsed[0]


class TestObservability:
    def test_plain_run_leaves_null_registry_untouched(self, graph_file, capsys):
        main(["count", "--input", graph_file, "--max-p", "3", "--max-q", "3"])
        plain = capsys.readouterr().out
        assert "--- run stats ---" not in plain
        assert NULL_REGISTRY.counters == {}
        assert NULL_REGISTRY.timers == {}
        assert NULL_REGISTRY.gauges == {}
        assert NULL_REGISTRY.workers == []

    def test_stats_flag_appends_block_without_changing_counts(
        self, graph_file, capsys
    ):
        main(["count", "--input", graph_file, "--max-p", "3", "--max-q", "3"])
        plain = capsys.readouterr().out
        main(["count", "--input", graph_file, "--max-p", "3", "--max-q", "3",
              "--stats"])
        with_stats = capsys.readouterr().out
        # Same counts table, stats appended after it.
        count_rows = [l for l in plain.splitlines() if l[:3].strip().isdigit()]
        for row in count_rows:
            assert row in with_stats
        assert "--- run stats ---" in with_stats
        assert "epivoter.nodes_expanded" in with_stats

    def test_report_file_with_workers(self, tmp_path, capsys):
        # The PR's acceptance invocation, at test scale: per-worker
        # stats, split load/compute phases, and peak memory in one JSON.
        path = tmp_path / "report.json"
        main(["count", "--dataset", "Github", "--max-p", "3", "--max-q", "3",
              "--workers", "2", "--report", str(path)])
        capsys.readouterr()
        data = validate_report(json.loads(path.read_text()))
        assert data["command"] == "count"
        assert data["arguments"]["workers"] == 2
        assert data["graph"]["num_edges"] > 0
        assert data["timers"]["load"] > 0 and data["timers"]["compute"] > 0
        assert data["memory"]["tracemalloc_peak_bytes"] > 0
        assert data["workers"]
        for worker in data["workers"]:
            assert worker["nodes_expanded"] >= 0
            assert worker["prune_hits"] >= 0
            assert worker["wall_time"] >= 0
        assert (
            sum(w["nodes_expanded"] for w in data["workers"])
            == data["counters"]["epivoter.nodes_expanded"]
        )

    def test_count_json_round_trips(self, graph_file, capsys):
        main(["count", "--input", graph_file, "--max-p", "3", "--max-q", "3",
              "--json"])
        out = capsys.readouterr().out
        data = validate_report(json.loads(out))  # stdout is pure JSON
        counts = counts_from_dict(data["counts"])
        graph, _, _ = read_edge_list(graph_file)
        assert counts == count_all(graph, 3, 3)

    def test_count_single_json(self, graph_file, capsys):
        main(["count", "--input", graph_file, "-p", "2", "-q", "2", "--json"])
        data = validate_report(json.loads(capsys.readouterr().out))
        assert data["counts"]["kind"] == "single"
        graph, _, _ = read_edge_list(graph_file)
        assert data["counts"]["value"] == count_all(graph, 2, 2)[2, 2]

    def test_estimate_json(self, graph_file, capsys):
        main(["estimate", "--input", graph_file, "--h-max", "3",
              "--samples", "500", "--seed", "3", "--json"])
        data = validate_report(json.loads(capsys.readouterr().out))
        assert data["counts"]["kind"] == "matrix"
        assert data["counters"]["zigzag.samples_drawn"] > 0

    def test_stats_on_maximal(self, graph_file, capsys):
        main(["maximal", "--input", graph_file, "--stats"])
        out = capsys.readouterr().out
        assert "mbce.nodes_expanded" in out

    def test_stats_on_adaptive(self, graph_file, capsys):
        main(["adaptive", "--input", graph_file, "-p", "2", "-q", "2",
              "--seed", "1", "--max-samples", "2000", "--stats"])
        out = capsys.readouterr().out
        assert "adaptive.samples_to_convergence" in out

    def test_progress_heartbeat(self, graph_file, capsys):
        main(["count", "--input", graph_file, "--max-p", "2", "--max-q", "2",
              "--progress"])
        err = capsys.readouterr().err
        assert "search nodes:" in err and "(done)" in err

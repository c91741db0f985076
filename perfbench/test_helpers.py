"""Tests of the benchmark's own helpers.

Run from the repository root:  python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import library  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
from stats import Tally, percentile, self_times, supported_percentile, tail  # noqa: E402


# -- the percentile rule ---------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert supported_percentile(100, 90) == 90
    assert supported_percentile(1000, 90) == 90
    # 50 samples support at most the 80th percentile (10 beyond it).
    assert supported_percentile(50, 90) == pytest.approx(80.0)
    assert supported_percentile(99, 90) == pytest.approx(100 * (1 - 10 / 99))


def test_too_few_samples_fall_back_to_the_median():
    assert supported_percentile(12, 90) == 50.0
    value, q = tail([5.0, 1.0, 3.0], 90)
    assert q == 50.0 and value == 3.0


def test_tail_reports_the_percentile_it_used():
    values = list(range(1, 51))  # 50 samples: p80 is the highest supported
    value, q = tail(values, 90)
    assert q == pytest.approx(80.0)
    assert value == pytest.approx(percentile(values, 80.0))
    assert sum(v > value for v in values) >= 10


def test_percentile_interpolates_linearly():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([10], 90) == 10
    with pytest.raises(ValueError):
        percentile([], 50)


# -- self time ---------------------------------------------------------------


def _span(name, offset, duration, *children):
    return {"name": name, "offset_ms": offset, "duration_ms": duration, "children": list(children)}


def test_self_time_subtracts_children():
    tree = _span("root", 0, 10, _span("a", 1, 2), _span("b", 5, 3))
    selfs = self_times(tree)
    assert selfs["root"] == [pytest.approx(5.0)]
    assert selfs["a"] == [2.0] and selfs["b"] == [3.0]


def test_self_time_counts_overlapping_children_once():
    # Two children covering [1, 6] together (overlap on [3, 4]).
    tree = _span("root", 0, 10, _span("a", 1, 3), _span("b", 3, 3))
    assert self_times(tree)["root"] == [pytest.approx(5.0)]


def test_self_time_clips_children_to_the_parent():
    # A cross-thread child placed partly before its parent started.
    tree = _span("engine", 2, 4, _span("queue_wait", 0, 3))
    assert self_times(tree)["engine"] == [pytest.approx(3.0)]


def test_self_time_collects_repeated_names_and_nests():
    tree = _span("root", 0, 10,
                 _span("mid", 0, 6, _span("leaf", 1, 2), _span("leaf", 4, 1)),
                 _span("mid", 7, 2))
    selfs = self_times(tree)
    assert sorted(selfs["mid"]) == [pytest.approx(2.0), pytest.approx(3.0)]
    assert sorted(selfs["leaf"]) == [1.0, 2.0]
    assert selfs["root"] == [pytest.approx(2.0)]


# -- seeded inputs -----------------------------------------------------------


def _take(stream, n):
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("workload", sorted(inputs.GRAPHS))
def test_same_seed_same_graphs_other_seed_other_graphs(workload):
    first = inputs.make_graphs(workload, 7)
    assert first == inputs.make_graphs(workload, 7)
    other = inputs.make_graphs(workload, 8)
    assert [g[3] for g in first] != [g[3] for g in other]


def test_same_seed_same_requests_other_seed_other_requests():
    names = ["a", "b", "c"]
    round_size = sum(n for _k, n in inputs.READ_ROUND)
    first = _take(inputs.read_requests(3, names), 15 * round_size)
    assert first == _take(inputs.read_requests(3, names), 15 * round_size)
    assert first != _take(inputs.read_requests(4, names), 15 * round_size)
    kinds = [kind for kind, _path, _body in first]
    # Every round holds the same mix.
    for kind, n in inputs.READ_ROUND:
        assert kinds.count(kind) == 15 * n
    # Every cold request is new to the cache.
    assert len({body["seed"] for _k, _p, body in first}) == len(first)


def test_repeat_client_resends_its_hot_set():
    names = ["a", "b", "c"]
    first = _take(inputs.repeat_requests(3, names), 5 * inputs.HOT_SET)
    assert first == _take(inputs.repeat_requests(3, names), 5 * inputs.HOT_SET)
    assert first != _take(inputs.repeat_requests(4, names), 5 * inputs.HOT_SET)
    passes = [first[i:i + inputs.HOT_SET] for i in range(0, len(first), inputs.HOT_SET)]
    hot = sorted(body["seed"] for _k, _p, body in passes[0])
    for one_pass in passes:
        # Each pass sends every hot body once, verbatim, in a new order.
        assert sorted(body["seed"] for _k, _p, body in one_pass) == hot
    assert passes[0] != passes[1]
    for kind, path, body in first:
        assert kind == "repeat" and path == "/v1/count"
        assert (body["p"], body["q"]) in inputs.SMALL_SHAPES


def test_the_two_clients_send_different_requests():
    cold = _take(inputs.read_requests(3, ["a"]), 200)
    hot = _take(inputs.repeat_requests(3, ["a"]), 50)
    seeds = {body["seed"] for _k, _p, body in cold} & {body["seed"] for _k, _p, body in hot}
    assert not seeds


def test_same_seed_same_writes_and_reads():
    edges = [(u, v) for u in range(20) for v in range(20) if (u + v) % 3 == 0]
    batches = _take(inputs.write_batches(5, 20, 20, edges, 10), 20)
    assert batches == _take(inputs.write_batches(5, 20, 20, edges, 10), 20)
    assert batches != _take(inputs.write_batches(6, 20, 20, edges, 10), 20)
    current = set(edges)
    for adds, removes in batches:
        assert set(removes) <= current and not set(adds) & current
        current = (current - set(removes)) | set(adds)
    reads = _take(inputs.write_reads(5, "g"), 100)
    assert reads == _take(inputs.write_reads(5, "g"), 100)
    assert reads != _take(inputs.write_reads(6, "g"), 100)


# -- failure accounting --------------------------------------------------------


def test_tally_counts_a_mismatch_as_a_failure():
    tally = Tally()
    assert tally.check(5, 5)
    assert not tally.check(4, 5, "cell")
    assert (tally.attempted, tally.failed, tally.mismatches) == (2, 1, 1)
    assert not tally.correct
    assert tally.reasons == {"mismatch:cell": 1}


def test_served_accounting_of_errors_and_429s():
    tally = Tally()
    ok = served._Record("small", "/v1/count", {}, 0.0)
    ok.status = 200
    rejected = served._Record("small", "/v1/count", {}, 0.0)
    rejected.status = 429
    broken = served._Record("small", "/v1/count", {}, 0.0)
    broken.error = "TimeoutError"
    assert served._account(ok, tally)
    assert not served._account(rejected, tally)
    assert not served._account(broken, tally)
    assert tally.failed == 2 and tally.correct
    assert tally.reasons == {"rejected:429": 1, "transport:TimeoutError": 1}


def _tiny_graphs(workload, seed):
    edges = sorted((u, v) for u in range(12) for v in range(10) if (u * 7 + v * 3 + seed) % 4)
    return [("tiny", 12, 10, edges)]


def test_injected_oracle_mismatch_fails_the_run(monkeypatch, capsys):
    real_oracle = library._oracle

    def wrong_oracle(ordered):
        expected = real_oracle(ordered)
        expected[0][(2, 2)] += 1
        return expected

    monkeypatch.setattr(inputs, "make_graphs", _tiny_graphs)
    monkeypatch.setattr(library, "_oracle", wrong_oracle)
    code = run.main(["--workload", "exact-allpairs", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    # One wrong cell per repetition, and nothing else.
    assert result["failed"] == library.MIN_JOB_REPS
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_untraced_library_run_prints_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setattr(inputs, "make_graphs", _tiny_graphs)
    code = run.main(["--workload", "exact-allpairs", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_library_run_matches_its_oracle(monkeypatch, capsys):
    monkeypatch.setattr(inputs, "make_graphs", _tiny_graphs)
    code = run.main(
        ["--workload", "exact-allpairs", "--seed", "2", "--seconds", "0", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)

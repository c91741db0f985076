"""CI smoke test for the HTTP serving layer.

Starts a real ``repro-biclique serve`` subprocess on a synthetic
dataset, exercises every endpoint with urllib, and asserts the served
counts equal the golden values pinned in ``tests/test_golden_counts.py``
— the same numbers the tier-1 suite holds the engines to, now checked
through planner, executor, cache, and HTTP socket.  The server runs a
2-process engine pool; one of its workers is SIGKILLed mid-run and the
next exact count must still be served, exactly, by a restarted pool,
and a seeded estimate on that pool must equal the in-process estimator.
Finally the server is stopped with SIGTERM, and none of its engine
workers may outlive it.

Run from the repository root:

    PYTHONPATH=src:. python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

DATASET = "DBLP"


def post(base: str, path: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=300) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get(base: str, path: str) -> tuple[int, dict]:
    with urllib.request.urlopen(base + path, timeout=60) as response:
        return response.status, json.loads(response.read())


def get_text(base: str, path: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(base + path, timeout=60) as response:
        return (
            response.status,
            response.read().decode(),
            response.headers.get("Content-Type", ""),
        )


#: Prometheus exposition grammar: a ``# TYPE`` comment or one sample
#: line ``name{labels} value`` (labels optional, numeric value).
_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_TYPE_LINE = re.compile(rf"^# TYPE {_NAME} (counter|gauge|histogram)$")
_SAMPLE_LINE = re.compile(
    rf"^{_NAME}(\{{{_NAME}=\"(?:[^\"\\]|\\.)*\"(?:,{_NAME}=\"(?:[^\"\\]|\\.)*\")*\}})? "
    r"-?[0-9][0-9eE+.\-]*$"
)


def check_prometheus(text: str) -> None:
    """Every line must match the exposition grammar; buckets monotone."""
    assert text.endswith("\n"), "exposition must end with a newline"
    bucket_series: dict[str, list[int]] = {}
    for line in text.strip("\n").split("\n"):
        assert _TYPE_LINE.match(line) or _SAMPLE_LINE.match(line), (
            f"bad exposition line: {line!r}"
        )
        if "_bucket" in line:
            labels, value = line.rsplit(" ", 1)
            series = re.sub(r'le="[^"]*",?', "", labels)
            bucket_series.setdefault(series, []).append(int(value))
    for series, values in bucket_series.items():
        assert values == sorted(values), (
            f"non-monotone cumulative buckets for {series}: {values}"
        )


def engine_worker_pids(server_pid: int) -> list[int]:
    """The engine pool workers: children of the server process that are
    not the multiprocessing resource tracker.

    ``/proc/<pid>/task/<tid>/children`` lists the children each *thread*
    forked, and the pool forks from a request thread, so every task of
    the server is scanned.
    """
    children = []
    for tid in os.listdir(f"/proc/{server_pid}/task"):
        with open(f"/proc/{server_pid}/task/{tid}/children") as fh:
            children.extend(int(pid) for pid in fh.read().split())
    workers = []
    for pid in children:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            if b"resource_tracker" not in fh.read():
                workers.append(pid)
    assert workers, f"no engine worker among children {children}"
    return workers


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def main() -> int:
    from repro.core.zigzag import _estimate_single
    from repro.graph.datasets import load_dataset
    from tests.test_golden_counts import GOLDEN

    golden = GOLDEN[DATASET]
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--dataset", DATASET, "--port", "0", "--threads", "2",
            "--engine-workers", "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"no readiness line, got {line!r}"
        base = f"http://{match.group(1)}:{match.group(2)}"
        print(f"server up at {base}")

        status, body = get(base, "/healthz")
        assert status == 200 and body["status"] == "ok", body
        assert body["graphs"] == [DATASET], body
        assert body["uptime_seconds"] >= 0, body
        assert body["registrations"][DATASET]["registered_unix"] > 0, body
        print(f"healthz OK (version {body['version']})")

        # Exact counts through the full service path == golden values.
        for p, q in ((2, 2), (3, 3), (4, 4)):
            status, body = post(
                base, "/v1/count", {"graph": DATASET, "p": p, "q": q}
            )
            assert status == 200, body
            assert body["exact"] is True and body["degraded"] is False, body
            assert body["value"] == golden[(p, q)], (
                f"count({p},{q}) = {body['value']} != golden {golden[(p, q)]}"
            )
            print(f"count({p},{q}) = {body['value']} (golden) "
                  f"in {body['elapsed_ms']}ms")

        # A dead engine worker costs one pool restart, not a 500: the
        # next uncached EPivoter count reruns on fresh workers, exactly.
        query = {"graph": DATASET, "p": 3, "q": 3, "method": "epivoter"}
        status, body = post(base, "/v1/count", query)  # starts the pool
        assert status == 200 and body["value"] == golden[(3, 3)], body
        victim = engine_worker_pids(proc.pid)[0]
        os.kill(victim, signal.SIGKILL)
        query = {"graph": DATASET, "p": 3, "q": 4, "method": "epivoter"}
        status, body = post(base, "/v1/count", query)
        assert status == 200, body
        assert body["cached"] is False and body["method"] == "epivoter", body
        assert body["value"] == golden[(3, 4)], body
        print(f"killed engine worker {victim}; count(3,4) = {body['value']} "
              "(golden) after the pool restart")

        # Estimates run on the same (restarted) pool; a seeded one must
        # equal the in-process estimator on the same graph and seed.
        query = {"graph": DATASET, "p": 3, "q": 4, "method": "zigzag++",
                 "samples": 2000, "seed": 7}
        status, body = post(base, "/v1/estimate", query)
        assert status == 200 and body["method"] == "zigzag++", body
        local = _estimate_single("zigzag++", load_dataset(DATASET), 3, 4, 2000, 7)
        assert body["value"] == local, (body["value"], local)
        print(f"pooled estimate(3,4) = {body['value']} (equals in-process)")

        # A repeat is served from the cache.
        status, body = post(base, "/v1/count", {"graph": DATASET, "p": 2, "q": 2})
        assert status == 200 and body["cached"] is True, body
        print("repeat query served from cache")

        # A millisecond deadline degrades to an estimator, not an error.
        status, body = post(
            base, "/v1/count",
            {"graph": DATASET, "p": 3, "q": 3, "deadline_ms": 1},
        )
        assert status == 200 and body["degraded"] is True, body
        assert body["method"] != "epivoter", body
        print(f"1ms deadline degraded to {body['method']}: {body['reason']}")

        # Estimation endpoint, seeded.
        status, body = post(
            base, "/v1/estimate",
            {"graph": DATASET, "p": 2, "q": 2, "samples": 5000, "seed": 7},
        )
        assert status == 200, body
        exact = golden[(2, 2)]
        assert 0 < body["value"] < 10 * exact, body
        print(f"estimate(2,2) = {body['value']} vs exact {exact}")

        # A traced query returns its span tree; the phase spans account
        # for (cannot exceed) the reported request latency.
        status, body = post(
            base, "/v1/count",
            {"graph": DATASET, "p": 4, "q": 2, "trace": True},
        )
        assert status == 200, body
        trace = body["trace"]
        assert trace["trace_id"] == body["trace_id"], body
        children = trace["spans"]["children"]
        names = [span["name"] for span in children]
        assert "queue_wait" in names and "plan" in names, names
        assert any(name.startswith("engine:") for name in names), names
        plan_span = next(s for s in children if s["name"] == "plan")
        assert plan_span["attributes"]["engine"] == body["method"], plan_span
        total_ms = sum(s["duration_ms"] for s in children)
        assert total_ms <= body["request_ms"] + 1.0, (total_ms, body["request_ms"])
        print(
            f"trace {body['trace_id']}: {len(children)} spans, "
            f"{total_ms:.2f}ms of {body['request_ms']}ms accounted"
        )

        # The trace ring serves the listing and the detail document.
        status, listing = get(base, "/v1/traces?slow=0")
        assert status == 200 and listing["retained"] >= 1, listing
        status, detail = get(base, f"/v1/traces/{body['trace_id']}")
        assert status == 200 and detail["spans"]["children"], detail
        print(f"trace ring holds {listing['retained']} traces")

        # Error mapping.
        status, _ = post(base, "/v1/count", {"graph": "ghost", "p": 2, "q": 2})
        assert status == 404, status
        status, _ = post(base, "/v1/count", {"graph": DATASET})
        assert status == 400, status

        # Metrics reflect what just happened.
        status, body = get(base, "/metrics")
        assert status == 200, status
        counters = body["counters"]
        assert counters["service.cache.hits"] >= 1, counters
        assert counters["service.degraded"] >= 1, counters
        assert counters["service.engine_runs"] >= 4, counters
        assert body["cache"]["size"] >= 4, body["cache"]
        assert body["cache"]["hits"] >= 1, body["cache"]
        assert counters["service.http_status.2xx"] >= 1, counters
        assert counters["service.http_status.4xx"] >= 2, counters
        assert counters["parallel.pool_restarts"] == 1, counters
        print("metrics OK:", {
            name: value for name, value in sorted(counters.items())
            if name.startswith("service.")
        })

        # Prometheus exposition: every line obeys the grammar, buckets
        # are monotone, and the HTTP latency histogram saw our traffic.
        status, text, content_type = get_text(base, "/metrics?format=prometheus")
        assert status == 200, status
        assert "version=0.0.4" in content_type, content_type
        check_prometheus(text)
        lines = text.strip("\n").split("\n")
        count_lines = [
            line for line in lines
            if line.startswith("service_http_latency_seconds_count")
        ]
        assert count_lines, "no HTTP latency histogram in exposition"
        assert any(int(l.rsplit(" ", 1)[1]) > 0 for l in count_lines), count_lines
        assert "# TYPE service_http_latency_seconds histogram" in lines
        print(f"prometheus exposition OK ({len(lines)} lines)")

        # SIGTERM takes the same clean shutdown as SIGINT: the server
        # closes its engine pool, so no worker outlives it.
        workers = engine_worker_pids(proc.pid)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0, proc.returncode
        deadline = time.monotonic() + 10
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = [pid for pid in workers if running(pid)]
        assert not survivors, f"engine workers {survivors} outlived SIGTERM"
        print(f"SIGTERM stopped the server and its {len(workers)} engine workers")
        print("service smoke OK")
        return 0
    finally:
        if proc.poll() is None:
            # SIGINT runs the server's clean shutdown (as SIGTERM does).
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()


if __name__ == "__main__":
    raise SystemExit(main())

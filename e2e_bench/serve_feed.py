"""Workload ``serve_feed``: the served feed cycle, driven by one closed-loop client.

A ``repro serve`` process serves a 50k-row dirty ``service_requests``
snapshot, the LOD graph snapshot of a 10k-row publication and a knowledge
base.  One client waits for every answer before it sends the next request,
over one keep-alive connection, as a BI user would; on 2 cores a rate sweep
would measure the scheduler.  One round is one cycle:

1. a 500-row batch lands in a JSONL fixture feed (after the previous batch,
   keyed by a ``datum`` cursor); the client fetches the delta with
   ``FeedConnector.records(since=cursor)``, opens the store and appends;
2. it saves to a temporary file, ``os.replace``-s it over the store and
   sends ``POST /reload``; the first answer carrying the new fingerprint and
   row count (a grand-total count) ends the freshness interval;
3. it sends the cold set — ``/profile`` (full and a subset), ``/advise``,
   ``/cube/aggregate``, ``/cube/pivot``, ``/kpi``, ``/lod/select`` and
   ``/lod/ask`` — none answered before on that snapshot (the LOD patterns
   vary by cycle, since the graph snapshot never changes);
4. it sends the same set again, now answered from the cache;
5. it sends three malformed requests that the server cannot answer today
   (they end in a dropped connection); each counts as failed unless it
   receives a 4xx with a JSON error body.  They are left out of every
   latency figure.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from harness import Meter, check, children_peak_rss_mb, median, tail
from openbi_loop import knowledge_base

from repro.core import KnowledgeBase
from repro.datasets import service_requests
from repro.datasets.civic import CIVIC, civic_lod_graph
from repro.feeds import FeedConnector, FixtureFeed
from repro.lod.graph import Graph
from repro.serve import encode_response, evaluate
from repro.tabular.dataset import Column, Dataset

#: 47620 rows plus the generator's 5% duplicates = 50001; the base keeps 50000.
BASE_GENERATED = 47620
BASE_ROWS = 50000
#: 477 rows plus 23 duplicates = one 500-row batch.
BATCH_GENERATED = 477
BATCH_ROWS = 500
PUBLICATION_ROWS = 10000
KB_ROWS = 300
SNAPSHOT = "requests"
GRAPH = "lod"
TOPICS = ("streetlight", "waste", "noise", "roads", "water", "parks")

CUBE = {
    "dimensions": ["district", "topic"],
    "measures": [{"column": "resolution_days", "aggregation": "mean", "name": "avg_days"},
                 {"column": "resolution_days", "aggregation": "count", "name": "requests"}],
}
GRAND_TOTAL = {
    "dimensions": ["topic"],
    "measures": [{"column": "resolution_days", "aggregation": "count", "name": "rows"}],
}
KPIS = [{"name": "resolution", "column": "resolution_days", "target": 14.0,
         "higher_is_better": False}]

#: Requests that crash the server's handler instead of getting a 4xx.
MALFORMED = (
    ("/kpi", {"kpis": [{"name": "x", "column": "resolution_days", "target": "x"}]}),
    ("/kpi", {"kpis": [{"name": "x", "column": "resolution_days", "target": {}}]}),
    ("/cube/aggregate", {"dimensions": [{"name": "district", "levels": 5}],
                         "measures": [{"column": "resolution_days"}]}),
)


def cold_set(cycle: int) -> list[tuple[str, str, dict]]:
    """The cycle's cold queries as ``(op name, path, params)``."""
    topic = TOPICS[cycle % len(TOPICS)]
    return [
        ("serve.profile_cold", "/profile", {}),
        ("serve.profile_cold", "/profile", {"criteria": ["completeness", "balance"]}),
        ("serve.advise_cold", "/advise", {}),
        ("serve.cube_cold", "/cube/aggregate", dict(CUBE, levels=["topic"])),
        ("serve.pivot_cold", "/cube/pivot", dict(CUBE, row_level="district",
                                                 column_level="topic", measure="avg_days")),
        ("serve.kpi_cold", "/kpi", {"kpis": KPIS, "level": "district"}),
        ("serve.lod_select_cold", "/lod/select", {
            "patterns": [["?s", str(CIVIC.topic), {"literal": topic}],
                         ["?s", str(CIVIC.district), "?d"]],
            "variables": ["s", "d"], "order_by": "s", "limit": 10 + cycle}),
        ("serve.lod_ask_cold", "/lod/ask", {
            "patterns": [[str(CIVIC[f"servicerequest/SR{cycle % PUBLICATION_ROWS:05d}"]),
                          str(CIVIC.topic), "?t"]]}),
    ]


FRESHNESS_OPS = {"feeds.fetch", "feeds.append", "store.save", "serve.reload",
                 "serve.first_answer"}
COLD_OPS = {name for name, _, _ in cold_set(0)}


def batch_rows(seed: int, cycle: int) -> list[dict]:
    rows = service_requests(n_rows=BATCH_GENERATED, dirty=True, seed=seed + 1000 + cycle).to_rows()
    for i, row in enumerate(rows):
        row["request_id"] = f"F{cycle:05d}-{i:03d}"
        row["datum"] = cursor(cycle, i)
    return rows


def cursor(cycle: int, i: int) -> str:
    return f"2026-01-01/{cycle:06d}/{i:04d}"


class Server:
    """A ``repro serve`` child process and one keep-alive client connection."""

    def __init__(self, args: list[str], stderr_path: Path) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with open(stderr_path, "ab") as stderr:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
                 "--port", "0", *args],
                stdout=subprocess.PIPE, stderr=stderr, text=True, env=env,
            )
        line = self.process.stdout.readline()
        match = re.search(r" on http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start (said {line!r}); see {stderr_path}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.connection = http.client.HTTPConnection(self.host, self.port, timeout=120)

    def request(self, path: str, params: dict) -> tuple[int, dict, bytes]:
        body = json.dumps(params).encode("utf-8")
        self.connection.request("POST", path, body=body,
                                headers={"Content-Type": "application/json"})
        response = self.connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()

    def reconnect(self) -> None:
        self.connection.close()
        self.connection = http.client.HTTPConnection(self.host, self.port, timeout=120)

    def stop(self) -> None:
        if getattr(self, "connection", None) is not None:
            self.connection.close()
        self.process.terminate()
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Workload:
    name = "serve_feed"
    round_name = "cycle_s"

    def __init__(self, seed: int, workdir: Path, meter: Meter) -> None:
        self.meter = meter
        self.seed = seed
        self.workdir = workdir
        base = service_requests(n_rows=BASE_GENERATED, dirty=True, seed=seed).head(BASE_ROWS)
        self.base = base.add_column(Column("datum", [cursor(0, 0)] * base.n_rows))
        self.publication = service_requests(n_rows=PUBLICATION_ROWS, seed=seed + 1)
        self.kb_source = service_requests(n_rows=KB_ROWS, seed=seed + 2)
        self.store_path = workdir / f"{SNAPSHOT}.rps"
        self.graph_path = workdir / f"{GRAPH}.rps"
        self.kb_path = workdir / "kb.json"
        self.feed_path = workdir / "feed.jsonl"
        # The server's tracebacks for the malformed requests land here.
        self.stderr_path = workdir.parent / f"serve-stderr-seed{seed}.log"
        self.stderr_path.write_bytes(b"")
        self.server: Server | None = None
        self.cycle = 0
        self.previous_batch: list[dict] = []
        self.cache_stats: list[dict] = []

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        op = self.meter.op
        op("store.save_dataset", self.base.save, self.store_path)
        graph = op("lod.publish", civic_lod_graph, self.publication, entity_class="ServiceRequest")
        op("store.save_graph", graph.save, self.graph_path)
        op("core.knowledge_base",
           lambda: knowledge_base(self.kb_source, "serve").to_json(self.kb_path))
        self.server = op("serve.start", Server,
                         ["--store", str(self.store_path), "--graph", str(self.graph_path),
                          "--kb", str(self.kb_path)], self.stderr_path)
        self.knowledge_base = KnowledgeBase.from_json(self.kb_path)
        self.graph = Graph.open(self.graph_path)
        self.cycle = 0
        self.previous_batch = []
        self.fingerprint = None

    def close(self) -> None:
        if self.server is None:
            return
        try:
            self.cache_stats.append(self._cache_stats())
        finally:
            self.server.stop()
            self.server = None
            self.graph.close()

    def _cache_stats(self) -> dict:
        status, _, body = self.server.request("/cache/stats", {})
        check(status == 200, f"/cache/stats answered {status}")
        return json.loads(body)["cache"]

    # -- one cycle ---------------------------------------------------------------

    def round(self, index: int, full_checks: bool) -> None:
        op = self.meter.op
        self.cycle += 1
        batch = batch_rows(self.seed, self.cycle)
        with open(self.feed_path, "w", encoding="utf-8") as handle:
            for row in self.previous_batch + batch:
                handle.write(json.dumps(row) + "\n")
        self.previous_batch = batch
        since = cursor(self.cycle - 1, 9999)

        rows = op("feeds.fetch", lambda: FeedConnector(FixtureFeed(self.feed_path))
                  .records(since=since))
        base, merged = op("feeds.append", self._append, rows)
        op("store.save", self._save, base, merged)
        status, _, body = op("serve.reload", self.server.request, "/reload", {"name": SNAPSHOT})
        check(status == 200 and json.loads(body)["changed"], f"/reload answered {status} {body!r}")
        first = op("serve.first_answer", self.server.request, "/cube/aggregate", GRAND_TOTAL)
        answered = [("/cube/aggregate", GRAND_TOTAL, first, "miss")]
        for name, path, params in cold_set(self.cycle):
            answered.append((path, params, op(name, self.server.request, path, params), "miss"))
        for _, path, params in cold_set(self.cycle):
            answered.append((path, params, op("serve.hot_query", self.server.request, path,
                                              params), "hit"))
        self.meter.mark_ops_done()
        for path, params in MALFORMED:
            self.meter.count(failed=not self._malformed_answered(path, params))
        self._check(rows, answered)

    def _append(self, rows: list[dict]):
        base = Dataset.open(self.store_path)
        return base, base.append_rows(rows)

    def _save(self, base: Dataset, merged: Dataset) -> None:
        tmp = self.store_path.with_name(self.store_path.name + ".tmp")
        merged.save(tmp)
        base.close()
        os.replace(tmp, self.store_path)

    def _malformed_answered(self, path: str, params: dict) -> bool:
        try:
            status, _, body = self.server.request(path, params)
        except (http.client.HTTPException, ConnectionError):
            self.server.reconnect()
            return False
        try:
            error = json.loads(body)
        except ValueError:
            return False
        return 400 <= status < 500 and isinstance(error, dict) and "error" in error

    # -- output checks -------------------------------------------------------------

    def _check(self, rows: list[dict], answered: list) -> None:
        check(len(rows) == BATCH_ROWS, f"feed delta held {len(rows)} records, not {BATCH_ROWS}")
        status, headers, body = answered[0][2]
        total = json.loads(body)["table"]["rows"][0][0] if status == 200 else None
        expected_rows = BASE_ROWS + self.cycle * BATCH_ROWS
        check(total == expected_rows,
              f"cycle {self.cycle}: grand-total count {total}, expected {expected_rows}")
        fingerprint = headers.get("X-Repro-Fingerprint")
        check(fingerprint != self.fingerprint, "the reload did not change the fingerprint")
        self.fingerprint = fingerprint
        snapshot = Dataset.open(self.store_path)
        try:
            cold: dict[str, bytes] = {}
            for path, params, (status, headers, body), cache in answered:
                key = path + json.dumps(params, sort_keys=True)
                check(status == 200, f"{path} answered {status}: {body[:200]!r}")
                check(headers.get("X-Repro-Cache") == cache,
                      f"{path} was a cache {headers.get('X-Repro-Cache')}, expected {cache}")
                check(headers.get("X-Repro-Fingerprint") == fingerprint or path.startswith("/lod"),
                      f"{path} answered from another snapshot")
                if cache == "hit":
                    check(body == cold[key], f"hot {path} bytes differ from the cold bytes")
                    continue
                cold[key] = body
                payload = self.graph if path.startswith("/lod") else snapshot
                reference = encode_response(evaluate(path, payload, params, self.knowledge_base))
                check(body == reference, f"{path} body differs from the direct library call")
        finally:
            snapshot.close()

    # -- reporting -----------------------------------------------------------------

    def summary(self) -> dict:
        rounds = self.meter.untraced()
        fresh = [sum(ref for name, _, ref in r["ops"] if name in FRESHNESS_OPS) for r in rounds]
        cold = [ref for _, ref in self.meter.op_samples(COLD_OPS, rounds)]
        hot = [ref for _, ref in self.meter.op_samples({"serve.hot_query"}, rounds)]
        stats = self.cache_stats[-1]
        hit_ratio = stats["hits"] / (stats["hits"] + stats["misses"])
        server_rss = children_peak_rss_mb()
        ms = [1000.0 * v for v in fresh], [1000.0 * v for v in cold], [1000.0 * v for v in hot]
        return {
            "lines": [
                f"freshness_ms: {tail(ms[0])} ms",
                f"cold_query_ms: {tail(ms[1])} ms",
                f"hot_query_ms: {tail(ms[2])} ms",
                f"server_rss_mb: {server_rss:.1f} MB; cache {stats}",
            ],
            "per_layer": {
                "serve.freshness_ms": median(ms[0]),
                "serve.cold_query_ms": median(ms[1]),
                "serve.hot_query_ms": median(ms[2]),
                "serve.cache_hit_ratio": hit_ratio,
                "serve.server_rss_mb": server_rss,
            },
        }

"""BENCH-PERF-LOD — columnar Linked-Open-Data tier timings.

Times the four LOD hot paths on both execution tiers — the vectorized
columnar tier (interned id arrays, ``searchsorted`` joins, blocked linking,
direct-to-encoded column assembly) and the retained dict-index / pairwise
reference tier (``select(..., force_row=True)``, ``_force_pairwise_link``,
``civic_lod_graph(..., force_row=True)``, ``tabulate_entities(..., force_row=True)``):

``select``
    A query session — five rounds of a four-query SPARQL-like batch — over
    a sensor-reading graph at 50k triples, including a three-pattern join
    from readings through their station to its district.  The columnar
    timing starts cold: the interned snapshot is dropped first and rebuilt
    inside the measurement, then amortised over the session like any real
    sequence of queries against a loaded graph.
``linker``
    ``EntityLinker.link`` between two city registries of 2 500 resources
    each (5k entities total) with one fuzzy name rule.
``publish``
    ``civic_lod_graph`` of a dirty service-request source (duplicated
    identifiers, missing cells) at about the same triple count, built
    columnar — interned triple arrays straight from the encoded views —
    against the one-``add``-per-triple reference (``force_row=True``).  The
    identity check compares term tables (literal value types included),
    all three orderings and their block tables.  Best of two runs, so the
    first run warms the caches.
``tabulate``
    ``tabulate_entities`` of the 50k-triple reading graph into a dataset
    **through** its encoded views (every column's missing/codes/float view
    materialised) — the shape the paper's pipeline consumes next, and what
    the columnar tier's direct-to-encoded pre-seeding optimises.  Cold:
    the snapshot is dropped before every run.

Results — speedups plus bit-identity checks (bindings incl. row order, link
sets and float-bit scores, published snapshots, tabulated cells and column
order) — are written
to ``BENCH_perf_lod.json`` at the repository root.  The JSON also records a
``quick`` section at reduced sizes used by the CI perf guard:
``python benchmarks/bench_perf_lod.py --quick`` reruns it and fails when a
guarded workload's speedup drops below half the recorded baseline (ratios,
not wall-clock) or when any columnar result diverges from the reference.

Run the full benchmark with ``pytest benchmarks/bench_perf_lod.py -s`` or
directly with ``python benchmarks/bench_perf_lod.py``.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
import time
from pathlib import Path

import numpy as np

from repro.datasets import service_requests
from repro.datasets.civic import civic_lod_graph
from repro.lod.graph import Graph
from repro.lod.linker import EntityLinker, LinkRule
from repro.lod.query import TriplePattern, Variable, select
from repro.lod.terms import Literal
from repro.lod.tabulate import tabulate_entities
from repro.lod.vocabulary import Namespace, RDF

EX = Namespace("http://openbi.example.org/bench/")

#: Triple count of the reading graph used by the select and tabulate workloads.
GRAPH_TRIPLES = 50_000
#: Rounds of the query batch per timed select session.
SELECT_ROUNDS = 5
#: Entities per side of the linker workload (5k entities in total).
LINKER_ENTITIES_PER_SIDE = 2_500
#: The acceptance bar: blocked linking at 5k entities must be at least this
#: many times faster than the pairwise reference.
MIN_LINKER_SPEEDUP_AT_5K = 5.0

#: Reduced sizes for the CI perf guard (see ``--quick``).
QUICK_TRIPLES = 8_000
QUICK_LINKER_PER_SIDE = 300
#: A quick workload fails the guard when its speedup drops below
#: ``baseline_speedup / QUICK_REGRESSION_FACTOR``.
QUICK_REGRESSION_FACTOR = 2.0
#: Workloads the guard checks for speedup regressions (identity is always
#: checked on all three).
GUARDED_WORKLOADS = ("select", "linker", "publish", "tabulate")
#: Published triples per source row of the dirty service-request source.
TRIPLES_PER_SOURCE_ROW = 8.8

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf_lod.json"

_DISTRICTS = [f"district_{i:02d}" for i in range(12)]
_WORDS = ["rio", "san", "villa", "puerto", "nueva", "alta", "baja", "gran", "monte", "costa"]


def _reading_graph(n_triples: int) -> Graph:
    """A sensor-reading graph: stations with districts, readings with values.

    Each reading contributes ~6 triples, each station ~3, so ``n_triples``
    controls the overall graph size.
    """
    rng = np.random.default_rng(0)
    graph = Graph("http://openbi.example.org/bench/graph")
    n_stations = max(10, n_triples // 500)
    for i in range(n_stations):
        graph.add_resource(
            EX[f"station/{i}"],
            rdf_type=EX.Station,
            properties={EX.district: Literal(_DISTRICTS[i % len(_DISTRICTS)])},
            label=f"Station {i}",
        )
    n_readings = max(1, (n_triples - len(graph)) // 6)
    stations = rng.integers(n_stations, size=n_readings)
    months = rng.integers(1, 13, size=n_readings)
    no2 = np.round(rng.uniform(5, 90, size=n_readings), 1)
    pm10 = np.round(rng.uniform(5, 60, size=n_readings), 1)
    alerts = rng.random(n_readings) < 0.1
    for i in range(n_readings):
        subject = EX[f"reading/{i}"]
        graph.add(subject, RDF.type, EX.Reading)
        graph.add(subject, EX.station, EX[f"station/{stations[i]}"])
        graph.add(subject, EX.month, Literal(int(months[i])))
        graph.add(subject, EX.no2, Literal(float(no2[i])))
        graph.add(subject, EX.pm10, Literal(float(pm10[i])))
        graph.add(subject, EX.alert, Literal("alert" if alerts[i] else "ok"))
    return graph


def _select_queries() -> list[dict]:
    """The query batch timed by the ``select`` workload."""
    reading, station = Variable("r"), Variable("s")
    return [
        {"patterns": [TriplePattern(reading, RDF.type, EX.Reading),
                      TriplePattern(reading, EX.alert, Literal("alert"))]},
        {"patterns": [TriplePattern(reading, RDF.type, EX.Reading),
                      TriplePattern(reading, EX.station, station),
                      TriplePattern(station, EX.district, Variable("d"))]},
        {"patterns": [TriplePattern(reading, EX.no2, Variable("v"))],
         "order_by": "v", "descending": True, "limit": 20},
        {"patterns": [TriplePattern(reading, EX.station, station)],
         "variables": ["s"], "distinct": True},
    ]


def _city_registry(suffix: str, n_entities: int, perturb: bool) -> Graph:
    """A registry of city-like resources with fuzzy-matchable names."""
    rng = np.random.default_rng(7)
    graph = Graph(f"http://openbi.example.org/bench/{suffix}")
    for i in range(n_entities):
        name = f"{_WORDS[rng.integers(len(_WORDS))]} {_WORDS[rng.integers(len(_WORDS))]} {i:05d}"
        if perturb:
            if i % 5 == 0:
                name = name.upper()
            if i % 7 == 0:
                name = name.replace("0", "o", 1)
            if i % 11 == 0:
                name = f"ciudad {name}"
        graph.add_resource(EX[f"{suffix}/city{i}"], rdf_type=EX.City,
                           properties={EX.cityName: Literal(name)})
    return graph


def _drop_columnar(graph: Graph) -> None:
    """Forget the graph's columnar snapshot so the next run pays to build it."""
    graph.store._columnar = None


def _timed(fn, repeats: int = 1):
    """Run ``fn`` ``repeats`` times; return its last value and the best wall time."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def _bits(value):
    """A bit-exact comparison key: floats by their IEEE-754 bytes."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def _identical_bindings(fast: list[list[dict]], slow: list[list[dict]]) -> bool:
    """Bit-exact query-result equality: row order and binding key order included."""
    if len(fast) != len(slow):
        return False
    for result_a, result_b in zip(fast, slow):
        if len(result_a) != len(result_b):
            return False
        for binding_a, binding_b in zip(result_a, result_b):
            if list(binding_a) != list(binding_b) or binding_a != binding_b:
                return False
    return True


def _identical_links(fast, slow) -> bool:
    """Same link pairs in the same order with bit-identical scores."""
    return [(l.left, l.right, _bits(l.score)) for l in fast] == [
        (l.left, l.right, _bits(l.score)) for l in slow
    ]


def _identical_datasets(a, b) -> bool:
    """Bit-exact dataset equality: column order, ctypes, row order, float bits."""
    if a.column_names != b.column_names or a.n_rows != b.n_rows:
        return False
    for name in a.column_names:
        if a[name].ctype != b[name].ctype:
            return False
        for x, y in zip(a[name].tolist(), b[name].tolist()):
            if isinstance(x, float) and isinstance(y, float) and np.isnan(x) and np.isnan(y):
                continue
            if _bits(x) != _bits(y):
                return False
    return True


def _materialise_encoding(dataset):
    """Touch every encoded view of ``dataset`` — the profile/cube entry cost."""
    from repro.tabular.encoded import encode_dataset

    encoded = encode_dataset(dataset)
    for name in dataset.column_names:
        encoded.missing_view(name)
        if dataset[name].is_numeric():
            encoded.numeric_view(name)
        else:
            encoded.codes_view(name)
    return dataset


def _identical_encodings(a, b) -> bool:
    """Bit-exact equality of the materialised encoded views of two datasets."""
    from repro.tabular.encoded import encode_dataset

    enc_a, enc_b = encode_dataset(a), encode_dataset(b)
    for name in a.column_names:
        if a[name].is_numeric():
            va, ma = enc_a.numeric_view(name)
            vb, mb = enc_b.numeric_view(name)
            if not (np.array_equal(va, vb, equal_nan=True) and np.array_equal(ma, mb)):
                return False
        else:
            ca, la, ia = enc_a.codes_view(name)
            cb, lb, ib = enc_b.codes_view(name)
            if not (np.array_equal(ca, cb) and la == lb and ia == ib):
                return False
    return True


def _identical_snapshots(fast: Graph, slow: Graph) -> bool:
    """Same term table (value types included), orderings and block tables."""
    a, b = fast.store.columnar(), slow.store.columnar()
    if a.terms != b.terms or [type(getattr(t, "value", t)) for t in a.terms] != [
        type(getattr(t, "value", t)) for t in b.terms
    ]:
        return False
    for index in ("spo", "pos", "osp"):
        pairs = zip(a.order(index) + a._block_table(index), b.order(index) + b._block_table(index))
        if not all(np.array_equal(x, y) for x, y in pairs):
            return False
    return True


def _compare_paths(n_triples: int, linker_per_side: int, repeats: int = 1) -> dict:
    """Time every workload on the columnar vs reference tier and check identity."""
    results: dict[str, dict] = {}
    graph = _reading_graph(n_triples)
    queries = _select_queries()

    def run_session(force_row: bool):
        session = []
        for _ in range(SELECT_ROUNDS):
            session.append([select(graph, force_row=force_row, **query) for query in queries])
        return session[-1]

    def encoded_select():
        _drop_columnar(graph)
        return run_session(False)

    fast, fast_s = _timed(encoded_select, repeats)
    slow, slow_s = _timed(lambda: run_session(True), repeats)
    results["select"] = {
        "encoded_s": fast_s,
        "row_s": slow_s,
        "speedup": slow_s / fast_s if fast_s > 0 else float("inf"),
        "identical_to_row_path": _identical_bindings(fast, slow),
    }

    left = _city_registry("left", linker_per_side, perturb=False)
    right = _city_registry("right", linker_per_side, perturb=True)
    blocked = EntityLinker([LinkRule(EX.cityName, EX.cityName)], threshold=0.9)
    pairwise = EntityLinker([LinkRule(EX.cityName, EX.cityName)], threshold=0.9)
    pairwise._force_pairwise_link = True
    fast, fast_s = _timed(lambda: blocked.link(left, EX.City, right, EX.City), repeats)
    slow, slow_s = _timed(lambda: pairwise.link(left, EX.City, right, EX.City), 1)
    results["linker"] = {
        "encoded_s": fast_s,
        "row_s": slow_s,
        "speedup": slow_s / fast_s if fast_s > 0 else float("inf"),
        "n_links": len(fast),
        "identical_to_row_path": _identical_links(fast, slow),
    }

    source = service_requests(n_rows=int(n_triples / TRIPLES_PER_SOURCE_ROW), dirty=True, seed=3)
    fast, fast_s = _timed(lambda: civic_lod_graph(source, entity_class="ServiceRequest"), 2)
    slow, slow_s = _timed(
        lambda: civic_lod_graph(source, entity_class="ServiceRequest", force_row=True), 2
    )
    results["publish"] = {
        "encoded_s": fast_s,
        "row_s": slow_s,
        "speedup": slow_s / fast_s if fast_s > 0 else float("inf"),
        "n_triples": len(fast),
        "identical_to_row_path": _identical_snapshots(fast, slow),
    }

    def encoded_tabulate():
        _drop_columnar(graph)
        return _materialise_encoding(tabulate_entities(graph, EX.Reading))

    fast, fast_s = _timed(encoded_tabulate, repeats)
    slow, slow_s = _timed(
        lambda: _materialise_encoding(tabulate_entities(graph, EX.Reading, force_row=True)), repeats
    )
    results["tabulate"] = {
        "encoded_s": fast_s,
        "row_s": slow_s,
        "speedup": slow_s / fast_s if fast_s > 0 else float("inf"),
        "identical_to_row_path": _identical_datasets(fast, slow) and _identical_encodings(fast, slow),
    }
    return results


def run_quick_case() -> dict:
    return _compare_paths(QUICK_TRIPLES, QUICK_LINKER_PER_SIDE, repeats=2)


def run_benchmark() -> dict:
    results: dict = {"sizes": {}}
    label = f"{GRAPH_TRIPLES}t/{2 * LINKER_ENTITIES_PER_SIDE}e"
    results["sizes"][label] = _compare_paths(GRAPH_TRIPLES, LINKER_ENTITIES_PER_SIDE)
    results["quick"] = {
        "n_triples": QUICK_TRIPLES,
        "linker_per_side": QUICK_LINKER_PER_SIDE,
        **run_quick_case(),
    }
    return results


def write_results(results: dict) -> Path:
    _RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    return _RESULT_PATH


def _print_results(results: dict) -> None:
    try:
        from benchmarks.conftest import print_table
    except ModuleNotFoundError:  # running as a plain script
        def print_table(title, header, rows):
            print(f"\n=== {title} ===")
            print("  ".join(header))
            for row in rows:
                print("  ".join(f"{c:.3f}" if isinstance(c, float) else str(c) for c in row))

    rows = []
    for size, entry in results["sizes"].items():
        for name, stats in entry.items():
            rows.append(
                [
                    f"{name}@{size}",
                    stats["encoded_s"],
                    stats["row_s"],
                    stats["speedup"],
                    "yes" if stats["identical_to_row_path"] else "NO",
                ]
            )
    print_table(
        "BENCH-PERF-LOD: select / linker / publish / tabulate, columnar vs reference tier",
        ["workload", "encoded_s", "row_s", "speedup", "identical"],
        rows,
    )


def run_quick_guard(baseline_path: Path = _RESULT_PATH) -> int:
    """Rerun the quick case and compare against the recorded baseline.

    Returns a process exit code: 0 when every workload is still bit-identical
    and the guarded workloads are within ``QUICK_REGRESSION_FACTOR`` of their
    recorded speedups, 1 otherwise.
    """
    if not baseline_path.exists():
        print(f"perf guard: no baseline at {baseline_path}; run the full benchmark first")
        return 1
    baseline = json.loads(baseline_path.read_text())
    quick = baseline.get("quick", {})
    stale = (
        quick.get("n_triples") != QUICK_TRIPLES
        or quick.get("linker_per_side") != QUICK_LINKER_PER_SIDE
        or any(name not in quick for name in GUARDED_WORKLOADS)
    )
    if stale:
        print("perf guard: baseline quick case is stale; rerun the full benchmark")
        return 1
    current = run_quick_case()
    failed = False
    for name in GUARDED_WORKLOADS:
        stats = current[name]
        verdict = "ok"
        if not stats["identical_to_row_path"]:
            verdict = "DIVERGED from reference tier"
        else:
            floor = quick[name]["speedup"] / QUICK_REGRESSION_FACTOR
            if stats["speedup"] < floor:
                verdict = f"REGRESSED (floor {floor:.1f}x)"
        print(
            f"perf guard: {name}: {stats['speedup']:.1f}x "
            f"(baseline {quick[name]['speedup']:.1f}x) {verdict}"
        )
        failed = failed or verdict != "ok"
    if failed:
        print("perf guard: FAILED for the LOD columnar tier")
        return 1
    print("perf guard: LOD columnar tier within budget")
    return 0


def test_perf_lod():
    results = run_benchmark()
    path = write_results(results)
    _print_results(results)
    for size, entry in results["sizes"].items():
        for name, stats in entry.items():
            assert stats["identical_to_row_path"], (
                f"{name}@{size}: columnar result diverged from the reference tier"
            )
    size_label = f"{GRAPH_TRIPLES}t/{2 * LINKER_ENTITIES_PER_SIDE}e"
    linker = results["sizes"][size_label]["linker"]["speedup"]
    assert linker >= MIN_LINKER_SPEEDUP_AT_5K, (
        f"blocked linking at {2 * LINKER_ENTITIES_PER_SIDE} entities is {linker:.1f}x, "
        f"below the {MIN_LINKER_SPEEDUP_AT_5K}x bar"
    )
    print(f"\nresults written to {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="rerun the reduced-size perf-guard case against the recorded baseline",
    )
    args = parser.parse_args(argv)
    if args.quick:
        return run_quick_guard()
    test_perf_lod()
    return 0


if __name__ == "__main__":
    sys.exit(main())

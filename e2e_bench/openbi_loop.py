"""Workload ``openbi_loop``: the quickstart loop on a dirty 10k-row civic CSV.

One round is the whole loop a non-expert runs: write the open-data CSV,
salvage a byte-corrupted copy, read it back, profile its data quality, ask
the DQ4DM advisor, fit and score the advised miner, roll the source up into a
cube with a KPI board, publish it as Linked Open Data (~88k triples),
tabulate the graph back, save both snapshots and reopen them, and profile
the reopened dataset.  The LOD and store layers do most of the work here.
"""

from __future__ import annotations

import math
from pathlib import Path

from harness import Meter, check

from repro.bi import KPI, Cube, Dimension, Measure, evaluate_kpis_by_level
from repro.core import Advisor, ExperimentPlan, ExperimentRunner, UserProfile
from repro.datasets import service_requests
from repro.datasets.civic import CIVIC, civic_lod_graph
from repro.lod.graph import Graph
from repro.lod.tabulate import tabulate_entities
from repro.mining import CLASSIFIER_REGISTRY, train_test_split
from repro.quality import measure_quality
from repro.recovery import apply_corruptions, salvage_csv
from repro.tabular import read_csv, write_csv
from repro.tabular.dataset import Dataset, is_missing_value

#: 9524 clean rows plus the generator's 5% duplicated records = 10000 rows.
SOURCE_ROWS = 9524
KB_ROWS = 300
CORRUPTIONS = {"ragged_rows": 0.05, "encoding": 0.05}
IDENTIFIER = "request_id"
TARGET = "resolved_late"


def knowledge_base(source: Dataset, name: str):
    """The small DQ4DM knowledge base the quickstart builds, from ``source``."""
    runner = ExperimentRunner(
        profile=UserProfile(name=name, algorithms=("decision_tree", "naive_bayes", "knn"),
                            cv_folds=3),
        plan=ExperimentPlan(criteria=("completeness", "accuracy", "balance"),
                            simple_severities=(0.0, 0.2, 0.4)),
    )
    return runner.run([source])


def cell_text(value) -> str:
    """A cell as CSV text: the form both the source and a read-back agree on."""
    if value is None or is_missing_value(value):
        return ""
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value).strip()


class Workload:
    name = "openbi_loop"
    round_name = "loop_s"

    def __init__(self, seed: int, workdir: Path, meter: Meter) -> None:
        self.meter = meter
        self.workdir = workdir
        self.seed = seed
        self.raw = service_requests(n_rows=SOURCE_ROWS, dirty=True, seed=seed)
        self.kb_source = service_requests(n_rows=KB_ROWS, seed=seed + 1)
        self._expect(self.raw.to_rows())
        self.knowledge_base = None
        self.snapshot_bytes = 0

    def _expect(self, rows: list[dict]) -> None:
        """Expected results, counted from the generated rows alone."""
        self.rows_text = [{k: cell_text(v) for k, v in row.items()} for row in rows]
        scored = [c for c in self.raw.column_names if c != IDENTIFIER]
        missing = sum(1 for row in self.rows_text for c in scored if row[c] == "")
        self.expected_completeness = 1.0 - missing / (len(rows) * len(scored))
        groups: dict[str, list[float]] = {}
        for row in self.rows_text:
            if row["resolution_days"] != "":
                groups.setdefault(row["topic"], []).append(float(row["resolution_days"]))
        self.expected_topics = {
            topic: (len(values), math.fsum(values) / len(values)) for topic, values in groups.items()
        }
        per_subject: dict[str, set] = {}
        for row in self.rows_text:
            cells = per_subject.setdefault(row[IDENTIFIER], set())
            cells.update((c, v) for c, v in row.items() if c != IDENTIFIER and v != "")
        # The class resource carries rdf:type and rdfs:label; every subject
        # carries rdf:type, dcterms:identifier and one triple per present cell.
        self.expected_triples = 2 + sum(2 + len(cells) for cells in per_subject.values())

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        self.knowledge_base = self.meter.op("core.knowledge_base", knowledge_base,
                                            self.kb_source, "openbi")

    def close(self) -> None:
        """Nothing to release: the rounds' files go with the work directory."""

    # -- one loop ----------------------------------------------------------------

    def round(self, index: int, full_checks: bool) -> None:
        op = self.meter.op
        csv_path = self.workdir / "service_requests.csv"
        op("tabular.write_csv", write_csv, self.raw, csv_path)
        clean_bytes = csv_path.read_bytes()
        corrupted = apply_corruptions(clean_bytes, CORRUPTIONS, seed=self.seed)
        op("recovery.salvage_csv", salvage_csv, corrupted)
        source = op("tabular.read_csv", lambda: read_csv(csv_path).set_target(TARGET)
                    .set_role(IDENTIFIER, "identifier"))
        profile = op("quality.profile", measure_quality, source)
        advice = op("core.advise", Advisor(self.knowledge_base, k=5).advise, source)
        model, test, accuracy = op("mining.fit_score", self._fit_score, source,
                                   advice.best_algorithm)
        rollup, _board = op("bi.cube_kpi", self._cube_kpi, source)
        graph = op("lod.publish", civic_lod_graph, source, entity_class="ServiceRequest")
        table = op("lod.tabulate", tabulate_entities, graph, CIVIC.ServiceRequest)
        dataset_path = op("store.save_dataset", source.save, self.workdir / "source.rps")
        graph_path = op("store.save_graph", graph.save, self.workdir / "graph.rps")
        reopened, reopened_graph = op("store.open", lambda: (Dataset.open(dataset_path),
                                                             Graph.open(graph_path)))
        reprofile = op("store.profile_reopened", measure_quality, reopened)
        self.meter.mark_ops_done()
        self.snapshot_bytes = dataset_path.stat().st_size + graph_path.stat().st_size
        try:
            self._check(source, profile, model, test, accuracy, rollup, graph, table, reopened,
                        reopened_graph, reprofile)
            if full_checks:
                self._check_files(source, clean_bytes, table)
        finally:
            reopened.close()
            reopened_graph.close()

    @staticmethod
    def _fit_score(source: Dataset, algorithm: str):
        train, test = train_test_split(source, test_fraction=0.3, seed=0)
        model = CLASSIFIER_REGISTRY[algorithm]()
        model.fit(train)
        return model, test, model.score(test)

    @staticmethod
    def _cube_kpi(source: Dataset):
        cube = Cube(
            source,
            dimensions=[Dimension("district", ("district",)), Dimension("topic", ("topic",))],
            measures=[Measure("avg_resolution_days", "resolution_days", "mean"),
                      Measure("requests", "resolution_days", "count")],
        )
        board = evaluate_kpis_by_level(
            [KPI("avg_resolution_days", "resolution_days", target=14.0, higher_is_better=False)],
            cube, "district",
        )
        return cube.rollup("topic"), board

    # -- output checks -------------------------------------------------------------

    def _check(self, source, profile, model, test, accuracy, rollup, graph, table, reopened,
               reopened_graph, reprofile) -> None:
        completeness = profile.score("completeness")
        check(abs(completeness - self.expected_completeness) <= 1e-12,
              f"completeness {completeness!r} != {self.expected_completeness!r} counted "
              "from the generated rows")
        got = {cell_text(row["topic"]): (row["requests"], row["avg_resolution_days"])
               for row in rollup.iter_rows()}
        check(set(got) == set(self.expected_topics),
              f"cube topics {sorted(got)} != {sorted(self.expected_topics)}")
        for topic, (count, mean) in self.expected_topics.items():
            got_count, got_mean = got[topic]
            check(got_count == count, f"topic {topic!r}: count {got_count} != {count}")
            check(abs(got_mean - mean) <= 1e-9 * abs(mean),
                  f"topic {topic!r}: mean {got_mean!r} != {mean!r}")
        check(len(graph) == self.expected_triples,
              f"published {len(graph)} triples, predicted {self.expected_triples}")
        check(len(reopened_graph) == len(graph), "reopened graph lost triples")
        check(reopened == source, "reopened dataset differs from the saved one")
        check(reprofile.as_dict() == profile.as_dict(), "reopened profile differs")
        labels = [str(v) for v in test.target_column().tolist()]
        hits = sum(1 for p, y in zip(model.predict(test), labels) if str(p) == y)
        check(accuracy == hits / len(labels),
              f"holdout accuracy {accuracy!r} != recounted {hits}/{len(labels)}")
        check(table.n_rows == len({row[IDENTIFIER] for row in self.rows_text}),
              f"tabulated {table.n_rows} subjects")

    def _check_files(self, source, clean_bytes: bytes, table) -> None:
        """The costlier cell-by-cell checks."""
        names = self.raw.column_names
        for i, row in enumerate(source.iter_rows()):
            expected = self.rows_text[i]
            for name in names:
                check(cell_text(row[name]) == expected[name],
                      f"CSV round trip: row {i} column {name!r} reads {row[name]!r}, "
                      f"wrote {expected[name]!r}")
        salvaged, _report = salvage_csv(clean_bytes)
        check(salvaged == read_csv(self.workdir / "service_requests.csv"),
              "salvage_csv of the clean file differs from read_csv")
        first = {}
        for row in source.iter_rows():
            first.setdefault(str(row[IDENTIFIER]), row)
        for row in table.iter_rows():
            expected = first[str(row["identifier"])]
            for name in names:
                if name != IDENTIFIER:
                    check(cell_text(row[name]) == cell_text(expected[name]),
                          f"tabulated {row['identifier']}.{name} = {row[name]!r}, "
                          f"source has {expected[name]!r}")

    # -- reporting -----------------------------------------------------------------

    def summary(self) -> dict:
        snapshot_mb = self.snapshot_bytes / 1e6
        return {"lines": [f"snapshot_mb: {snapshot_mb:.3f} MB (dataset + graph .rps)"],
                "per_layer": {"store.snapshot_mb": snapshot_mb}}

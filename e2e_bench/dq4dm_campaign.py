"""Workload ``dq4dm_campaign``: the paper's experimentation phase, then advice.

One round runs the DQ4DM experiment campaign over three clean civic sources
(500 rows each): every source is degraded by the completeness, accuracy and
balance injectors at severities 0.2 and 0.4 and by each pair of them, and
decision_tree, naive_bayes, knn and one_r are cross-validated (3 folds) on
every variant — 120 knowledge-base records.  The advisor then ranks the
algorithms for the dirty 2k-row variant of each source.  Mining
(cross-validation) does most of the work; the LOD, store and serve layers
are never called, so a change there should leave this workload flat.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from pathlib import Path

from harness import Meter, check

import repro.core.experiment as experiment
from repro.core import Advisor, ExperimentPlan, ExperimentRunner, KnowledgeBase, UserProfile
from repro.datasets import air_quality, municipal_budget, service_requests

GENERATORS = (municipal_budget, air_quality, service_requests)
SOURCE_ROWS = 500
DIRTY_ROWS = 2000
ALGORITHMS = ("decision_tree", "naive_bayes", "knn", "one_r")
CRITERIA = ("completeness", "accuracy", "balance")
SEVERITIES = (0.0, 0.2, 0.4)
FOLDS = 3
NEIGHBOURS = 7

#: The campaign's inner layer calls, as ``repro.core.experiment`` names them;
#: traced rounds wrap each one in a span.
TRACED_CALLS = {
    "apply_injections": "core.inject",
    "measure_quality": "quality.profile",
    "cross_validate": "mining.cv",
}


def expected_records() -> int:
    """Records the plan must yield: per source, the clean baseline, every
    criterion at every non-zero severity and every pair of criteria, each
    evaluated by every algorithm."""
    nonzero = sum(1 for s in SEVERITIES if s > 0.0)
    variants = 1 + len(CRITERIA) * nonzero + len(list(itertools.combinations(CRITERIA, 2)))
    return len(GENERATORS) * variants * len(ALGORITHMS)


def reference_ranking(records, profile: dict[str, float], criteria: list[str], k: int):
    """Plain-Python k-nearest-record, inverse-distance-weighted ranking."""
    by_algorithm: dict[str, list] = {}
    for record in records:
        by_algorithm.setdefault(record.algorithm, []).append(record)
    ranking = []
    for algorithm, mine in by_algorithm.items():
        scored = []
        for record in mine:
            total = 0.0
            for c in sorted(criteria):
                diff = record.quality_scores.get(c, 1.0) - profile.get(c, 1.0)
                total += diff * diff
            scored.append((math.sqrt(total), record.metrics["accuracy"]))
        nearest = sorted(scored, key=lambda pair: pair[0])[:k]
        weights = [1.0 / (distance + 1e-6) for distance, _ in nearest]
        score = sum(w * v for w, (_, v) in zip(weights, nearest)) / sum(weights)
        ranking.append((algorithm, score))
    ranking.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranking


class Workload:
    name = "dq4dm_campaign"
    round_name = "campaign_s"

    def __init__(self, seed: int, workdir: Path, meter: Meter) -> None:
        self.meter = meter
        self.sources = [gen(n_rows=SOURCE_ROWS, seed=seed + i) for i, gen in enumerate(GENERATORS)]
        self.dirty = [gen(n_rows=DIRTY_ROWS, seed=seed + 10 + i, dirty=True)
                      for i, gen in enumerate(GENERATORS)]
        self.runner = ExperimentRunner(
            profile=UserProfile(name="bench", algorithms=ALGORITHMS, cv_folds=FOLDS),
            plan=ExperimentPlan(criteria=CRITERIA, simple_severities=SEVERITIES),
        )

    def setup(self) -> None:
        """Nothing to build: the campaign itself is the measured work."""

    def close(self) -> None:
        pass

    @contextmanager
    def _traced_calls(self):
        """Wrap the campaign's inner layer calls in spans for a traced round."""
        if not self.meter.tracing:
            yield
            return
        originals = {name: getattr(experiment, name) for name in TRACED_CALLS}

        def wrap(function, span_name):
            def traced(*args, **kwargs):
                with self.meter.span(span_name):
                    return function(*args, **kwargs)
            return traced

        for name, span_name in TRACED_CALLS.items():
            setattr(experiment, name, wrap(originals[name], span_name))
        try:
            yield
        finally:
            for name, function in originals.items():
                setattr(experiment, name, function)

    def round(self, index: int, full_checks: bool) -> None:
        # Fresh copies, so no round reuses an encoding cached by the last one.
        sources = [source.copy() for source in self.sources]
        dirty = [source.copy() for source in self.dirty]
        knowledge_base = KnowledgeBase(name=f"dq4dm-{self.runner.profile.name}")
        with self._traced_calls():
            # One runner call per source, seeded as one call over all three
            # would seed it, so each source is its own calibrated operation.
            for position, source in enumerate(sources):
                part = self.meter.op("core.experiment", self.runner.run, [source],
                                     seed=1000 * position)
                knowledge_base.extend(part.records)
        advisor = Advisor(knowledge_base, k=NEIGHBOURS)
        advice = [self.meter.op("core.advise", advisor.advise, source) for source in dirty]
        self.meter.mark_ops_done()
        self._check(knowledge_base, advice)

    def _check(self, knowledge_base, advice) -> None:
        records = knowledge_base.records
        check(len(records) == expected_records(),
              f"{len(records)} records, the plan yields {expected_records()}")
        for record in records:
            accuracy = record.metrics["accuracy"]
            check(0.0 <= accuracy <= 1.0, f"accuracy {accuracy!r} outside [0, 1]")
        completeness: dict[tuple, dict[float, float]] = {}
        for record in records:
            if record.phase == experiment.PHASE_CLEAN:
                severity = 0.0
            elif set(record.injections) == {"completeness"}:
                severity = record.injections["completeness"]
            else:
                continue
            key = (record.dataset, record.algorithm)
            completeness.setdefault(key, {})[severity] = record.quality_scores["completeness"]
        for key, by_severity in completeness.items():
            check(by_severity.get(0.0) == 1.0, f"{key}: completeness at severity 0 is "
                  f"{by_severity.get(0.0)!r}, not 1")
            scores = [by_severity[s] for s in SEVERITIES]
            check(all(a >= b for a, b in zip(scores, scores[1:])),
                  f"{key}: completeness rises with severity: {scores}")
        criteria = knowledge_base.criteria()
        for recommendation in advice:
            expected = reference_ranking(records, recommendation.quality_profile, criteria,
                                         NEIGHBOURS)
            got = recommendation.ranked_algorithms
            check([a for a, _ in got] == [a for a, _ in expected],
                  f"{recommendation.dataset}: ranking {got} != reference {expected}")
            for (_, score), (_, reference) in zip(got, expected):
                check(abs(score - reference) <= 1e-12,
                      f"{recommendation.dataset}: score {score!r} != reference {reference!r}")

    def summary(self) -> dict:
        return {}

"""Publish datasets, data quality measurements and mined patterns as LOD.

The second half of the OpenBI loop (paper, §1) is *sharing*: "share the new
acquired information as LOD to be reused by anyone".  These helpers convert
the library's native objects into RDF graphs using the Data Cube (``qb``) and
Data Quality Vocabulary (``dqv``) style modelling, plus the reproduction's own
``openbi`` namespace.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.lod.columnar import TermLog, row_log
from repro.lod.graph import Graph
from repro.lod.terms import IRI, Literal
from repro.lod.vocabulary import DCTERMS, DQV, OPENBI, QB, RDF, RDFS
from repro.tabular.dataset import Dataset, is_missing_value


def _slug(text: str) -> str:
    """Turn free text into an IRI-safe slug."""
    out = "".join(ch if ch.isalnum() else "-" for ch in str(text).lower())
    while "--" in out:
        out = out.replace("--", "-")
    return out.strip("-") or "x"


def publish_dataset(
    dataset: Dataset,
    base_iri: str = "http://openbi.example.org/data/",
    graph: Graph | None = None,
    title: str | None = None,
    force_row: bool = False,
) -> Graph:
    """Publish a tabular dataset as a ``qb``-style data cube.

    Each row becomes a ``qb:Observation``; each column becomes a component
    property under ``base_iri``.  The dataset resource carries ``dcterms``
    metadata so it can be discovered and reused.

    A new graph is built columnar (:mod:`repro.lod.columnar`), straight
    from the dataset's encoded views.  Passing an existing ``graph`` adds
    the triples to it one at a time, and ``force_row=True`` does the same
    on a fresh graph: that row-at-a-time reference tier yields identical
    term tables, orderings and saved store bytes.
    """
    if graph is not None or force_row:
        return _publish_dataset_rows(dataset, base_iri, graph, title)
    slug = _slug(dataset.name)
    graph = Graph(f"{base_iri}graph/{slug}")
    log = TermLog()
    rdf_type, rdfs_label = log.iri(RDF.type), log.iri(RDFS.label)
    label = title or dataset.name
    dataset_variant = log.iri(IRI(f"{base_iri}dataset/{slug}"))
    head = [
        (dataset_variant, rdf_type, log.iri(QB.DataSet)),
        (dataset_variant, rdfs_label, log.literal(label)),
        (dataset_variant, log.iri(DCTERMS.title), log.literal(label)),
        (dataset_variant, log.iri(DCTERMS.identifier), log.literal(dataset.name)),
    ]
    n_rows = dataset.n_rows
    cells = [
        (rdf_type, np.full(n_rows, log.iri(QB.Observation), dtype=np.int64)),
        (log.iri(QB.dataSet), np.full(n_rows, dataset_variant, dtype=np.int64)),
    ]
    component_type = log.iri(QB.ComponentProperty)
    column_type, column_role = log.iri(OPENBI.columnType), log.iri(OPENBI.columnRole)
    for column in dataset.columns:
        component = log.iri(IRI(f"{base_iri}property/{_slug(column.name)}"))
        head += [
            (component, rdf_type, component_type),
            (component, rdfs_label, log.literal(column.name)),
            (component, column_type, log.literal(column.ctype)),
            (component, column_role, log.literal(column.role)),
        ]
        cells.append((component, log.column(column, dataset)))
    observations = log.iris(f"{base_iri}observation/{slug}/", [str(i) for i in range(n_rows)])
    graph.store = log.build(*row_log(head, observations, cells))
    return graph


def _publish_dataset_rows(dataset: Dataset, base_iri: str, graph: Graph | None, title: str | None) -> Graph:
    """Reference tier of :func:`publish_dataset`: one ``Graph.add`` per triple."""
    graph = graph or Graph(f"{base_iri}graph/{_slug(dataset.name)}")
    dataset_iri = IRI(f"{base_iri}dataset/{_slug(dataset.name)}")
    graph.add_resource(
        dataset_iri,
        rdf_type=QB.DataSet,
        label=title or dataset.name,
        properties={DCTERMS.title: Literal(title or dataset.name), DCTERMS.identifier: Literal(dataset.name)},
    )
    component_iris = {}
    for column in dataset.columns:
        component = IRI(f"{base_iri}property/{_slug(column.name)}")
        component_iris[column.name] = component
        graph.add_resource(
            component,
            rdf_type=QB.ComponentProperty,
            label=column.name,
            properties={OPENBI.columnType: Literal(column.ctype), OPENBI.columnRole: Literal(column.role)},
        )
    for index, row in enumerate(dataset.iter_rows()):
        observation = IRI(f"{base_iri}observation/{_slug(dataset.name)}/{index}")
        graph.add(observation, RDF.type, QB.Observation)
        graph.add(observation, QB.dataSet, dataset_iri)
        for name, value in row.items():
            if is_missing_value(value):
                continue
            graph.add(observation, component_iris[name], Literal(value))
    return graph


def publish_quality_profile(
    profile: Any,
    dataset_name: str,
    base_iri: str = "http://openbi.example.org/data/",
    graph: Graph | None = None,
) -> Graph:
    """Publish measured data quality criteria as ``dqv:QualityMeasurement`` resources.

    ``profile`` may be a :class:`repro.quality.profile.DataQualityProfile` (or
    anything exposing ``as_dict()``), or a plain mapping criterion → value.
    """
    measures: Mapping[str, float]
    as_dict = getattr(profile, "as_dict", None)
    measures = as_dict() if callable(as_dict) else dict(profile)
    graph = graph or Graph(f"{base_iri}graph/quality-{_slug(dataset_name)}")
    dataset_iri = IRI(f"{base_iri}dataset/{_slug(dataset_name)}")
    for criterion, value in measures.items():
        metric_iri = IRI(f"{base_iri}metric/{_slug(criterion)}")
        measurement_iri = IRI(f"{base_iri}measurement/{_slug(dataset_name)}/{_slug(criterion)}")
        graph.add_resource(metric_iri, rdf_type=DQV.Metric, label=str(criterion))
        graph.add(measurement_iri, RDF.type, DQV.QualityMeasurement)
        graph.add(measurement_iri, DQV.computedOn, dataset_iri)
        graph.add(measurement_iri, DQV.isMeasurementOf, metric_iri)
        graph.add(measurement_iri, DQV.value, Literal(float(value)))
    return graph


def publish_patterns(
    patterns: Sequence[Mapping[str, Any]],
    dataset_name: str,
    algorithm: str,
    base_iri: str = "http://openbi.example.org/data/",
    graph: Graph | None = None,
) -> Graph:
    """Publish mined knowledge patterns (rules, clusters, model summaries) as LOD.

    Each pattern is a mapping of descriptive fields (e.g. ``antecedent``,
    ``consequent``, ``support``, ``confidence`` for association rules) and is
    published as an ``openbi:Pattern`` resource linked to the source dataset
    and the algorithm that produced it.
    """
    graph = graph or Graph(f"{base_iri}graph/patterns-{_slug(dataset_name)}")
    dataset_iri = IRI(f"{base_iri}dataset/{_slug(dataset_name)}")
    algorithm_iri = IRI(f"{base_iri}algorithm/{_slug(algorithm)}")
    graph.add_resource(algorithm_iri, rdf_type=OPENBI.Algorithm, label=algorithm)
    for index, pattern in enumerate(patterns):
        pattern_iri = IRI(f"{base_iri}pattern/{_slug(dataset_name)}/{index}")
        graph.add(pattern_iri, RDF.type, OPENBI.Pattern)
        graph.add(pattern_iri, OPENBI.minedFrom, dataset_iri)
        graph.add(pattern_iri, OPENBI.producedBy, algorithm_iri)
        for key, value in pattern.items():
            if value is None:
                continue
            graph.add(pattern_iri, OPENBI[f"pattern_{_slug(key).replace('-', '_')}"], Literal(value))
    return graph


def publish_recommendation(
    dataset_name: str,
    algorithm: str,
    score: float,
    rationale: str,
    base_iri: str = "http://openbi.example.org/data/",
    graph: Graph | None = None,
) -> Graph:
    """Publish an advisor recommendation ("the best option is ALGORITHM X") as LOD."""
    graph = graph or Graph(f"{base_iri}graph/advice-{_slug(dataset_name)}")
    dataset_iri = IRI(f"{base_iri}dataset/{_slug(dataset_name)}")
    recommendation_iri = IRI(f"{base_iri}recommendation/{_slug(dataset_name)}/{_slug(algorithm)}")
    algorithm_iri = IRI(f"{base_iri}algorithm/{_slug(algorithm)}")
    graph.add_resource(algorithm_iri, rdf_type=OPENBI.Algorithm, label=algorithm)
    graph.add(recommendation_iri, RDF.type, OPENBI.Recommendation)
    graph.add(recommendation_iri, OPENBI.recommendsAlgorithm, algorithm_iri)
    graph.add(recommendation_iri, OPENBI.forDataset, dataset_iri)
    graph.add(recommendation_iri, OPENBI.expectedScore, Literal(float(score)))
    graph.add(recommendation_iri, RDFS.comment, Literal(rationale))
    return graph

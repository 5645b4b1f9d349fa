"""Parity of the columnar LOD publishers with their row-at-a-time reference tier.

``civic_lod_graph`` and ``publish_dataset`` build a graph's interned triple
arrays straight from a dataset's encoded views (:mod:`repro.lod.columnar`);
``force_row=True`` adds one triple at a time to the dict store instead.  The
two must agree on the term table (down to the Python type of each literal's
value), on the SPO/POS/OSP orderings and block tables, and on the bytes of
the saved ``.rps`` file.  The columnar-born graph must also get through
publish → tabulate → save → reopen without ever replaying a dict index.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets import service_requests
from repro.datasets.civic import CIVIC, civic_lod_graph
from repro.lod import triples as triples_module
from repro.lod.graph import Graph
from repro.lod.publish import publish_dataset
from repro.lod.query import TriplePattern, Variable, select
from repro.lod.tabulate import tabulate_entities
from repro.lod.terms import Literal
from repro.lod.vocabulary import RDF
from repro.store.reader import StoredTerms
from repro.tabular.dataset import Column, ColumnRole, ColumnType, Dataset

ORDERS = ("spo", "pos", "osp")


def assert_same_snapshot(columnar_graph: Graph, row_graph: Graph, tmp_path) -> None:
    """Equal term tables, orderings, block tables and saved bytes."""
    fast, reference = columnar_graph.store.columnar(), row_graph.store.columnar()
    assert fast.terms == reference.terms
    assert [type(t) for t in fast.terms] == [type(t) for t in reference.terms]
    assert [type(getattr(t, "value", None)) for t in fast.terms] == [
        type(getattr(t, "value", None)) for t in reference.terms
    ]
    for name in ORDERS:
        for a, b in zip(fast.order(name), reference.order(name)):
            assert np.array_equal(a, b), name
        for a, b in zip(fast._block_table(name), reference._block_table(name)):
            assert np.array_equal(a, b), name
    assert len(columnar_graph) == len(row_graph)
    fast_bytes = columnar_graph.save(tmp_path / "columnar.rps").read_bytes()
    assert fast_bytes == row_graph.save(tmp_path / "row.rps").read_bytes()


# -- property: small datasets whose literals collide across columns -------------

#: Values chosen to collide as literals: True == 1 == 1.0, False == 0 == 0.0 == -0.0.
_NUMBERS = st.sampled_from([0, 1, 2, 0.0, -0.0, 1.0, 2.5, None, float("nan")])
_FLAGS = st.sampled_from([True, False, None])
_TEXTS = st.sampled_from(["a", "b", "1", "True", "k1", "ds-0", None])
_IDS = st.sampled_from(["k1", "k2", "k3", "ds-0", "ds-1", None])


@st.composite
def _datasets(draw):
    n_rows = draw(st.integers(min_value=1, max_value=12))
    columns = []
    if draw(st.booleans()):
        ids = draw(st.lists(_IDS, min_size=n_rows, max_size=n_rows))
        columns.append(Column("key", ids, ctype=ColumnType.STRING, role=ColumnRole.IDENTIFIER))
    specs = [("n1", ColumnType.NUMERIC, _NUMBERS), ("f1", ColumnType.BOOLEAN, _FLAGS),
             ("t1", ColumnType.CATEGORICAL, _TEXTS), ("n2", ColumnType.NUMERIC, _NUMBERS),
             ("f2", ColumnType.BOOLEAN, _FLAGS), ("item/k1", ColumnType.STRING, _TEXTS)]
    chosen = draw(st.lists(st.sampled_from(specs), min_size=1, max_size=5, unique_by=lambda s: s[0]))
    for name, ctype, values in chosen:
        columns.append(Column(name, draw(st.lists(values, min_size=n_rows, max_size=n_rows)), ctype=ctype))
    return Dataset(columns, name="ds")


@given(dataset=_datasets())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_columnar_publishers_match_the_row_tier(dataset, tmp_path):
    assert_same_snapshot(
        civic_lod_graph(dataset, entity_class="Item"),
        civic_lod_graph(dataset, entity_class="Item", force_row=True),
        tmp_path,
    )
    assert_same_snapshot(publish_dataset(dataset), publish_dataset(dataset, force_row=True), tmp_path)


# -- fixed cases -----------------------------------------------------------------

@pytest.fixture(scope="module")
def dirty_requests():
    return service_requests(n_rows=400, dirty=True, seed=11)


def test_dirty_source_with_duplicated_identifiers(dirty_requests, tmp_path):
    ids = dirty_requests["request_id"].tolist()
    assert len(set(ids)) < len(ids)  # the dirty generator duplicates records
    fast = civic_lod_graph(dirty_requests, entity_class="ServiceRequest")
    reference = civic_lod_graph(dirty_requests, entity_class="ServiceRequest", force_row=True)
    assert_same_snapshot(fast, reference, tmp_path)
    assert_same_snapshot(publish_dataset(dirty_requests), publish_dataset(dirty_requests, force_row=True), tmp_path)


def test_rows_without_identifier_are_named_by_index(dirty_requests, tmp_path):
    anonymous = dirty_requests.set_role("request_id", ColumnRole.FEATURE)
    graph = civic_lod_graph(anonymous)
    assert_same_snapshot(graph, civic_lod_graph(anonymous, force_row=True), tmp_path)
    subjects = graph.subjects_of_type(CIVIC.ServiceRequests)
    assert [s.value for s in subjects[:2]] == [
        f"{CIVIC.prefix}servicerequests/{anonymous.name}-0",
        f"{CIVIC.prefix}servicerequests/{anonymous.name}-1",
    ]


def test_first_interned_literal_keeps_its_value_type(tmp_path):
    # Column "f" publishes Literal(True) first, so the merged term keeps the
    # bool; "n" alone holds 1.0 on the first subject, so there the float wins.
    for first, second, kept in (("f", "n", bool), ("n", "f", np.float64)):
        values = {"f": [True, True], "n": [1.0, 1.0]}
        ctypes = {"f": ColumnType.BOOLEAN, "n": ColumnType.NUMERIC}
        dataset = Dataset([Column(name, values[name], ctype=ctypes[name]) for name in (first, second)], name="ds")
        graph = civic_lod_graph(dataset)
        assert_same_snapshot(graph, civic_lod_graph(dataset, force_row=True), tmp_path)
        merged = [t for t in graph.store.columnar().terms if isinstance(t, Literal) and t == Literal(1)]
        assert len(merged) == 1 and type(merged[0].value) is kept


# -- no dict index on the columnar path --------------------------------------------

def test_publish_tabulate_save_reopen_never_replays_a_dict_index(dirty_requests, tmp_path, monkeypatch):
    replays: list[str] = []
    interned: list[int] = []
    decoded: list[int] = []
    original_replay = triples_module.TripleStore._replay
    original_init = triples_module.ColumnarTriples.__init__
    original_decode = StoredTerms.decode
    monkeypatch.setattr(triples_module.TripleStore, "_replay",
                        lambda self, index: replays.append(index) or original_replay(self, index))
    monkeypatch.setattr(triples_module.ColumnarTriples, "__init__",
                        lambda self, store: interned.append(1) or original_init(self, store))
    monkeypatch.setattr(StoredTerms, "decode", lambda self: decoded.append(1) or original_decode(self))

    graph = civic_lod_graph(dirty_requests, entity_class="ServiceRequest")
    table = tabulate_entities(graph, CIVIC.ServiceRequest)
    path = graph.save(tmp_path / "graph.rps")
    reopened = Graph.open(path)
    try:
        assert len(reopened) == len(graph)
        resaved = reopened.save(tmp_path / "again.rps")
        assert decoded == []  # open → len → save touches no term
        assert resaved.read_bytes() == path.read_bytes()
        assert tabulate_entities(reopened, CIVIC.ServiceRequest) == table
        assert decoded == [1]
        assert replays == [] and interned == []
    finally:
        reopened.close()

    # The reference tier agrees, and a mutation afterwards replays the dict
    # indexes and then behaves exactly like the row-built graph.
    reference = civic_lod_graph(dirty_requests, entity_class="ServiceRequest", force_row=True)
    assert tabulate_entities(graph, CIVIC.ServiceRequest, force_row=True) == table
    fresh = CIVIC["servicerequest/fresh"]
    for target in (graph, reference):
        target.add(fresh, RDF.type, CIVIC.ServiceRequest)
        target.add(fresh, CIVIC.topic, Literal("waste"))
    assert sorted(set(replays)) == ["osp", "pos", "spo"]
    assert_same_snapshot(graph, reference, tmp_path)
    patterns = [TriplePattern(Variable("s"), CIVIC.topic, Variable("o"))]
    assert select(graph, patterns) == select(reference, patterns)
    assert list(graph) == list(reference)
    assert tabulate_entities(graph, CIVIC.ServiceRequest) == tabulate_entities(
        reference, CIVIC.ServiceRequest, force_row=True
    )

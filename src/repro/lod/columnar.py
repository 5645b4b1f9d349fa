"""Columnar publishing: build a graph's interned triple arrays straight from a dataset.

The reference publishers (:func:`repro.datasets.civic.civic_lod_graph` and
:func:`repro.lod.publish.publish_dataset` with ``force_row=True``) add one
triple at a time to a dict-indexed :class:`~repro.lod.triples.TripleStore`
and let :class:`~repro.lod.triples.ColumnarTriples` intern the result.  The
columnar tier reaches the same snapshot without filling a single dict:

1. **Terms once per distinct value.**  A :class:`TermLog` interns every
   term the publisher would create into a *variant* id — one per distinct
   category code or distinct value of a column, one per subject — and
   merges variants into *classes* by RDF-term equality.  Literals compare
   by Python equality, so ``Literal(True) == Literal(1) == Literal(1.0)``
   and ``Literal(0.0) == Literal(-0.0)`` share a class across columns;
   variants remember which concrete value each publisher call carried.
2. **Orders from the add log.**  The publisher's row-major sequence of
   ``add`` calls becomes three variant-id arrays.  :func:`build_snapshot`
   drops repeated triples (a duplicated identifier revisits a subject after
   other subjects), orders the survivors exactly as the dict store's SPO,
   POS and OSP indexes would iterate them — every level of those nested
   dicts is in first-insertion order, so each ordering is a ``lexsort``
   over first-seen ranks — and interns the terms in SPO-walk order, keeping
   for each class the variant the dict store would hold as its key.

The result feeds :meth:`TripleStore.from_columnar`, so the published graph
is born columnar; its dict indexes replay only if a reference-tier scan or
a mutation asks for them.  Term tables, orderings, block tables and saved
``.rps`` bytes are identical to the reference tier's.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.lod.terms import _IRI_RE, IRI, Literal, trusted_iri
from repro.lod.triples import TripleStore
from repro.tabular.dataset import Column, Dataset
from repro.tabular.encoded import encode_dataset


class TermLog:
    """Interns a publisher's terms into variant ids grouped by equality class.

    IRIs are keyed by their string (one variant per distinct IRI); plain
    literals get one variant per value handed in, keyed into classes by the
    raw Python value, which is exactly how ``Literal`` equality and hashing
    behave for literals without datatype or language.
    """

    def __init__(self) -> None:
        """Start with no terms."""
        self._iri_variant: dict[str, int] = {}
        self._literal_class: dict = {}
        self._n_classes = 0
        self._is_iri: list[bool] = []
        self._values: list = []
        self._classes: list[int] = []

    def _iri_string(self, value: str) -> int:
        """The variant id of the IRI spelled ``value`` (assumed valid)."""
        variant = self._iri_variant.get(value)
        if variant is None:
            variant = self._iri_variant[value] = len(self._values)
            self._is_iri.append(True)
            self._values.append(value)
            self._classes.append(self._n_classes)
            self._n_classes += 1
        return variant

    def iri(self, iri: IRI) -> int:
        """The variant id of an already-constructed (validated) IRI."""
        return self._iri_string(iri.value)

    def iris(self, prefix: str, suffixes: Sequence[str]) -> np.ndarray:
        """Variant ids of ``IRI(prefix + suffix)`` for every suffix.

        The validation regex only inspects the scheme, so when ``prefix`` is
        itself an absolute IRI every extension is too and nothing is
        re-validated; otherwise each IRI is constructed (and validated) in
        full, raising the reference tier's :class:`~repro.exceptions.LODError`.
        """
        if not (prefix and _IRI_RE.match(prefix)):
            for suffix in suffixes:
                IRI(prefix + suffix)
        variant = self._iri_string
        return np.fromiter((variant(prefix + suffix) for suffix in suffixes), dtype=np.int64, count=len(suffixes))

    def literals(self, values: Sequence) -> np.ndarray:
        """One fresh literal variant per value, classed by value equality."""
        literal_class = self._literal_class
        classes = []
        for value in values:
            klass = literal_class.get(value)
            if klass is None:
                klass = literal_class[value] = self._n_classes
                self._n_classes += 1
            classes.append(klass)
        first = len(self._values)
        self._is_iri += [False] * len(classes)
        self._values += values
        self._classes += classes
        return np.arange(first, first + len(classes), dtype=np.int64)

    def literal(self, value) -> int:
        """One fresh literal variant for ``value``."""
        return int(self.literals([value])[0])

    def column(self, column: Column, dataset: Dataset) -> np.ndarray:
        """Per row, the literal variant of the column's cell (``-1`` where missing).

        Works from the dataset's encoded views: numeric columns are grouped
        by the bit pattern of their ``float64`` values (so ``0.0`` and
        ``-0.0`` stay separate variants of one class), other columns by
        their category code; each distinct value becomes one variant whose
        value is the column's own cell object.
        """
        if column.is_numeric():
            present = np.flatnonzero(~np.isnan(column.values))
            keys = column.values[present].view(np.int64)
        else:
            codes = encode_dataset(dataset).codes_view(column.name)[0]
            present = np.flatnonzero(codes >= 0)
            keys = codes[present]
        variants = np.full(len(column), -1, dtype=np.int64)
        if present.size:
            _, first_at, inverse = np.unique(keys, return_index=True, return_inverse=True)
            cells = column.values
            representatives = [cells[i] for i in present[first_at].tolist()]
            variants[present] = self.literals(representatives)[inverse.reshape(-1)]
        return variants

    def term(self, variant: int):
        """The RDF term of ``variant`` (constructed on demand)."""
        value = self._values[variant]
        if self._is_iri[variant]:
            return trusted_iri(value)
        return Literal(value)

    def build(self, s: np.ndarray, p: np.ndarray, o: np.ndarray) -> TripleStore:
        """A store born from the add log ``(s, p, o)``; see :func:`build_snapshot`."""
        terms, orders = build_snapshot(self, s, p, o)
        return TripleStore.from_columnar(orders, terms=terms)


def _first_seen(keys: np.ndarray) -> np.ndarray:
    """For every element, the position of the first element with the same key."""
    if keys.size == 0:
        return keys
    _, first_at, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first_at[inverse.reshape(-1)]


def build_snapshot(
    log: TermLog, s: np.ndarray, p: np.ndarray, o: np.ndarray
) -> tuple[list, dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """``(terms, orders)`` of a dict store fed ``add(s[i], p[i], o[i])`` for every ``i``.

    ``s``, ``p`` and ``o`` hold variant ids of ``log`` in add order.  The
    dict store keeps the first of equal triples; each level of its nested
    indexes lists keys in first-insertion order, and the first insertion of
    any key prefix is always a new triple, so every ordering is a lexsort
    of the surviving triples by the first-seen rank of each key prefix.
    Terms are interned in the order :class:`~repro.lod.triples.ColumnarTriples` walks the SPO
    index (subject, then each predicate, then its objects), and a class's
    term is the variant sitting at its first walk position — the object
    the dict store holds as that key.
    """
    classes = np.asarray(log._classes, dtype=np.int64)
    n_classes = np.int64(max(log._n_classes, 1))
    s, p, o = (np.asarray(a, dtype=np.int64) for a in (s, p, o))
    S, P, O = classes[s], classes[p], classes[o]
    if S.size:
        _, sp_id = np.unique(S * n_classes + P, return_inverse=True)
        _, first = np.unique(sp_id.reshape(-1) * n_classes + O, return_index=True)
        keep = np.sort(first)
        s, p, o, S, P, O = (a[keep] for a in (s, p, o, S, P, O))
    n = S.size
    arrival = np.arange(n)
    permutations = {
        "spo": np.lexsort((arrival, _first_seen(S * n_classes + P), _first_seen(S))),
        "pos": np.lexsort((arrival, _first_seen(P * n_classes + O), _first_seen(P))),
        "osp": np.lexsort((arrival, _first_seen(O * n_classes + S), _first_seen(O))),
    }

    spo = permutations["spo"]
    walk_s, walk_p = S[spo], P[spo]
    s_start = np.ones(n, dtype=bool)
    s_start[1:] = walk_s[1:] != walk_s[:-1]
    sp_start = s_start.copy()
    sp_start[1:] |= walk_p[1:] != walk_p[:-1]
    slots = np.stack([s_start, sp_start, np.ones(n, dtype=bool)], axis=1)
    walk_classes = np.stack([walk_s, walk_p, O[spo]], axis=1)[slots]
    walk_variants = np.stack([s[spo], p[spo], o[spo]], axis=1)[slots]
    term_classes, first_pos = np.unique(walk_classes, return_index=True)
    by_walk = np.argsort(first_pos)
    term_of_class = np.full(int(n_classes), -1, dtype=np.int64)
    term_of_class[term_classes[by_walk]] = np.arange(by_walk.size)
    terms = [log.term(v) for v in walk_variants[first_pos[by_walk]].tolist()]

    ids = (term_of_class[S], term_of_class[P], term_of_class[O])
    orders = {
        name: tuple(np.ascontiguousarray(column[perm]) for column in ids)
        for name, perm in permutations.items()
    }
    return terms, orders


def row_log(
    head: Sequence[tuple[int, int, int]],
    subjects: np.ndarray,
    cells: Sequence[tuple[int, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The add log of a row-at-a-time publisher: ``head`` triples, then one block per row.

    Row ``i`` adds ``(subjects[i], predicate, objects[i])`` for every
    ``(predicate, objects)`` in ``cells`` in order, skipping ``-1`` objects
    (missing cells).
    """
    n_rows = subjects.size
    width = len(cells)
    predicates = np.asarray([predicate for predicate, _ in cells], dtype=np.int64)
    objects = np.empty((n_rows, width), dtype=np.int64)
    for j, (_, column) in enumerate(cells):
        objects[:, j] = column
    present = objects >= 0
    s_rows = np.broadcast_to(subjects[:, None], (n_rows, width))[present]
    p_rows = np.broadcast_to(predicates[None, :], (n_rows, width))[present]
    head_arr = np.asarray(head, dtype=np.int64).reshape(-1, 3)
    return (
        np.concatenate([head_arr[:, 0], s_rows]),
        np.concatenate([head_arr[:, 1], p_rows]),
        np.concatenate([head_arr[:, 2], objects[present]]),
    )

"""Indexed triple store whose primary representation is interned id columns.

A :class:`TripleStore` answers any triple pattern through three nested
insertion-ordered dict indexes (SPO, POS, OSP) — the reference tier — and
through a :class:`ColumnarTriples` snapshot: every distinct RDF term is
interned into an ``int64`` id and the triples become three parallel id
arrays per index ordering.  The vectorized query join
(:mod:`repro.lod.query`), the direct-to-encoded tabulation
(:mod:`repro.lod.tabulate`) and the on-disk store (:mod:`repro.store`) run
over these arrays.

A store can be born either way.  Adding triples one at a time fills the
dict indexes, and the snapshot is interned from them lazily on first use
and dropped on every mutation.  A store born from arrays — the columnar
publishers (:mod:`repro.lod.columnar`) and ``Graph.open`` — starts with the
snapshot only; each dict index is replayed from its own saved ordering the
first time a reference-tier scan needs it, and all three are replayed
before the first mutation.  Either way every ordering is the exact
iteration order of the dict index it mirrors, so both tiers answer every
query bit-identically.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.exceptions import LODError
from repro.lod.terms import Object, Predicate, Subject, Triple


class ColumnarTriples:
    """An interned, columnar snapshot of one :class:`TripleStore` state.

    ``terms`` lists every distinct term in first-interned order and
    ``term_ids`` inverts it; a term's id is its position in ``terms``.  For
    each dict index of the store (``"spo"``, ``"pos"``, ``"osp"``) the
    snapshot holds three parallel ``int64`` arrays ``(s_ids, p_ids, o_ids)``
    whose row order is **exactly** the iteration order of that index's nested
    dicts.  This is what lets the vectorized query join reproduce
    the row order of the reference binding-at-a-time matcher bit for bit:
    filtering the arrays of the index the reference would have consulted
    yields matches in the same sequence the reference yields them.

    Within each ordering the rows sharing the primary key (subject for SPO,
    predicate for POS, object for OSP) are contiguous, so per-key candidate
    ranges are resolved with one :func:`numpy.searchsorted` over the block
    table instead of per-binding dict lookups.

    A snapshot interned from a store's dict indexes builds the SPO ordering
    (which also interns the terms) eagerly and the POS and OSP orderings on
    first use, so consumers that only scan in SPO order never pay for them.
    A snapshot born from arrays (:meth:`from_arrays`) holds all three
    orderings up front, and its term table may be decoded lazily from a
    ``term_source`` (see :mod:`repro.store.reader`).  The owning store drops
    its cached snapshot on every mutation, so code that re-fetches
    ``store.columnar()`` per operation (as the query engine and tabulation
    do) always sees fresh data; a snapshot *held across* a mutation is
    stale, and materialising one of its remaining orderings then raises
    :class:`~repro.exceptions.LODError` rather than silently mixing the
    frozen term table with the mutated dict indexes.  Callers must not
    modify the returned arrays.
    """

    __slots__ = ("_terms", "_term_ids", "_term_source", "_store", "_orders", "_blocks")

    #: Which of the three id columns is the contiguous primary key per ordering.
    _PRIMARY = {"spo": 0, "pos": 1, "osp": 2}

    def __init__(self, store: "TripleStore") -> None:
        """Intern every term of ``store`` and lay its triples out columnar."""
        term_ids: dict[Object, int] = {}
        s_col: list[int] = []
        p_col: list[int] = []
        o_col: list[int] = []
        for s, by_predicate in store._spo.items():
            s_code = term_ids.setdefault(s, len(term_ids))
            for p, objects in by_predicate.items():
                p_code = term_ids.setdefault(p, len(term_ids))
                o_codes = [term_ids.setdefault(o, len(term_ids)) for o in objects]
                s_col += [s_code] * len(o_codes)
                p_col += [p_code] * len(o_codes)
                o_col += o_codes
        spo = tuple(np.asarray(col, dtype=np.int64) for col in (s_col, p_col, o_col))

        self._terms = list(term_ids)
        self._term_ids = term_ids
        self._term_source = None
        self._store = store
        self._orders: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {"spo": spo}
        self._blocks: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_arrays(
        cls,
        store: "TripleStore",
        orders: dict,
        terms: list | None = None,
        term_source=None,
        blocks: dict | None = None,
    ) -> "ColumnarTriples":
        """A snapshot wired from ready-made arrays, with no interning pass.

        ``orders`` must hold all three orderings.  Pass either the decoded
        ``terms`` or a ``term_source`` whose ``decode()`` returns them on
        first use (``n_terms`` and ``sections()`` let the store writer skip
        decoding altogether); ``blocks`` optionally pre-seeds block tables.
        """
        snapshot = cls.__new__(cls)
        snapshot._terms = terms
        snapshot._term_ids = None
        snapshot._term_source = term_source
        snapshot._store = store
        snapshot._orders = dict(orders)
        snapshot._blocks = dict(blocks or {})
        return snapshot

    @property
    def terms(self) -> list:
        """Every distinct term, indexed by id (decoded on first use)."""
        if self._terms is None:
            self._terms = self._term_source.decode()
        return self._terms

    @property
    def term_ids(self) -> dict:
        """The inverse of :attr:`terms`: term → id (built on first use)."""
        if self._term_ids is None:
            term_ids: dict = {}
            for i, term in enumerate(self.terms):
                term_ids.setdefault(term, i)
            self._term_ids = term_ids
        return self._term_ids

    @property
    def n_terms(self) -> int:
        """Number of distinct terms, without decoding a lazy term table."""
        if self._terms is None:
            return self._term_source.n_terms
        return len(self._terms)

    @property
    def n_triples(self) -> int:
        """Number of triples in the snapshot."""
        return int(self._orders["spo"][0].shape[0])

    def order(self, index: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(s_ids, p_ids, o_ids)`` in the iteration order of dict index ``index``."""
        cached = self._orders.get(index)
        if cached is None:
            cached = self._build_order(index)
            self._orders[index] = cached
        return cached

    def _build_order(self, index: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise the POS or OSP ordering from the store's dict indexes."""
        if self._store._columnar is not self:
            raise LODError(
                "stale ColumnarTriples snapshot: the store was mutated after this "
                "snapshot was taken; call store.columnar() again for a fresh one"
            )
        term_ids = self.term_ids
        s_col: list[int] = []
        p_col: list[int] = []
        o_col: list[int] = []
        if index == "pos":
            for p, by_object in self._store._pos.items():
                p_code = term_ids[p]
                for o, subjects in by_object.items():
                    s_codes = [term_ids[s] for s in subjects]
                    s_col += s_codes
                    p_col += [p_code] * len(s_codes)
                    o_col += [term_ids[o]] * len(s_codes)
        elif index == "osp":
            for o, by_subject in self._store._osp.items():
                o_code = term_ids[o]
                for s, predicates in by_subject.items():
                    p_codes = [term_ids[p] for p in predicates]
                    s_col += [term_ids[s]] * len(p_codes)
                    p_col += p_codes
                    o_col += [o_code] * len(p_codes)
        else:
            raise KeyError(index)
        return tuple(np.asarray(col, dtype=np.int64) for col in (s_col, p_col, o_col))

    def term_id(self, term) -> int:
        """The interned id of ``term``, or ``-1`` when it is not in the store."""
        return self.term_ids.get(term, -1)

    def _extend(self, new_subjects: Iterable[Subject]) -> None:
        """Append freshly-added subjects' SPO rows to this snapshot in place.

        Called by :meth:`TripleStore.append` after it has inserted triples
        whose subjects were all new to the store: the fresh columnar build
        would walk the old subjects first (producing exactly the rows this
        snapshot already holds) and then the new subjects in first-add order,
        so extending the term table and the SPO arrays by just the new
        subjects' blocks is bit-identical to rebuilding — in O(new rows).
        The SPO block table gains the new subjects' runs and is re-sorted;
        the POS and OSP orderings cannot be extended (their buckets grow in
        the middle of the array), so they are dropped and lazily rebuilt
        from the mutated dict indexes on next use.
        """
        term_ids = self.term_ids
        terms = self.terms
        self._term_source = None  # the saved term table no longer matches

        def intern(term) -> int:
            code = term_ids.get(term)
            if code is None:
                code = len(term_ids)
                term_ids[term] = code
                terms.append(term)
            return code

        s_col: list[int] = []
        p_col: list[int] = []
        o_col: list[int] = []
        for s in new_subjects:
            by_predicate = self._store._spo.get(s)
            if not by_predicate:
                continue
            s_code = intern(s)
            for p, objects in by_predicate.items():
                p_code = intern(p)
                o_codes = [intern(o) for o in objects]
                s_col += [s_code] * len(o_codes)
                p_col += [p_code] * len(o_codes)
                o_col += o_codes
        spo_blocks = self._blocks.get("spo")
        self._orders.pop("pos", None)
        self._orders.pop("osp", None)
        self._blocks = {}
        if not s_col:
            return
        old_s, old_p, old_o = self._orders["spo"]
        base_len = int(old_s.shape[0])
        added = tuple(np.asarray(col, dtype=np.int64) for col in (s_col, p_col, o_col))
        self._orders["spo"] = tuple(
            np.concatenate([old, new]) for old, new in zip((old_s, old_p, old_o), added)
        )
        if spo_blocks is not None:
            keys, starts, ends = spo_blocks
            primary = added[0]
            boundaries = np.flatnonzero(primary[1:] != primary[:-1]) + 1
            new_starts = np.concatenate(([0], boundaries)) + base_len
            new_ends = np.concatenate((boundaries, [primary.size])) + base_len
            new_keys = primary[new_starts - base_len]
            keys = np.concatenate([keys, new_keys])
            starts = np.concatenate([starts, new_starts])
            ends = np.concatenate([ends, new_ends])
            by_key = np.argsort(keys)  # primary runs are unique per key
            self._blocks["spo"] = (keys[by_key], starts[by_key], ends[by_key])

    def _block_table(self, index: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, starts, ends)`` of the primary-key runs, sorted by key id."""
        cached = self._blocks.get(index)
        if cached is None:
            primary = self.order(index)[self._PRIMARY[index]]
            if primary.size == 0:
                empty = np.empty(0, dtype=np.int64)
                cached = (empty, empty, empty)
            else:
                boundaries = np.flatnonzero(primary[1:] != primary[:-1]) + 1
                starts = np.concatenate(([0], boundaries))
                ends = np.concatenate((boundaries, [primary.size]))
                keys = primary[starts]
                by_key = np.argsort(keys)  # primary runs are unique per key
                cached = (keys[by_key], starts[by_key], ends[by_key])
            self._blocks[index] = cached
        return cached

    def block_ranges(self, index: str, key_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-key ``(lo, hi)`` candidate ranges in the ``index`` ordering.

        Keys absent from the primary column (including ``-1`` for terms not in
        the store) resolve to the empty range ``(0, 0)``.
        """
        keys, starts, ends = self._block_table(index)
        key_ids = np.asarray(key_ids, dtype=np.int64)
        if keys.size == 0:
            zeros = np.zeros(key_ids.shape, dtype=np.int64)
            return zeros, zeros.copy()
        found_at = np.minimum(np.searchsorted(keys, key_ids), keys.size - 1)
        found = keys[found_at] == key_ids
        return np.where(found, starts[found_at], 0), np.where(found, ends[found_at], 0)

    def block(self, index: str, key) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``index``-ordered ``(s, p, o)`` rows whose primary term is ``key``."""
        lo, hi = self.block_ranges(index, np.asarray([self.term_id(key)], dtype=np.int64))
        lo, hi = int(lo[0]), int(hi[0])
        return tuple(column[lo:hi] for column in self.order(index))

    def first_object_ids(self, subject_ids: np.ndarray, predicate) -> np.ndarray:
        """Per subject id, the id of its first ``predicate`` object in SPO order (``-1`` if none).

        Vectorized :meth:`TripleStore.value` over many subjects: the SPO rows
        of one (subject, predicate) pair are contiguous and in dict order, so
        the first row per subject is the object ``value()`` returns.
        """
        subject_ids = np.asarray(subject_ids, dtype=np.int64)
        result = np.full(subject_ids.shape, -1, dtype=np.int64)
        s_arr, p_arr, o_arr = self.order("spo")
        selected = np.flatnonzero(p_arr == self.term_id(predicate))
        if selected.size == 0 or subject_ids.size == 0:
            return result
        present, first_at = np.unique(s_arr[selected], return_index=True)
        where = np.minimum(np.searchsorted(present, subject_ids), present.size - 1)
        found = present[where] == subject_ids
        result[found] = o_arr[selected[first_at[where[found]]]]
        return result


class TripleStore:
    """A set of triples with SPO / POS / OSP indexes.

    The store behaves like a set: adding the same triple twice keeps one copy.
    Every level of the three indexes is an insertion-ordered dict (the leaves
    are ``dict[X, None]``), so iteration order — and therefore the row order
    of every reference-tier scan and of the columnar snapshot built from it —
    is a deterministic function of the store's mutation history.

    A store born from arrays (:meth:`from_columnar`) starts with no dict
    index built.  Each one is replayed, independently, from its own saved
    ordering on first access.  Replaying per index matters: the three
    indexes first see keys in different orders during live mutation, so
    rebuilding all three from the SPO arrays would change POS/OSP iteration
    order.  :meth:`value`, which columnar tabulation calls per column
    label, reads the SPO arrays while that index is unbuilt; mutations
    replay all three indexes first.
    """

    def __init__(self, triples: Iterable[Triple] | None = None) -> None:
        """Create a store, optionally filled from an iterable of triples."""
        self._spo_index: dict[Subject, dict[Predicate, dict[Object, None]]] | None = {}
        self._pos_index: dict[Predicate, dict[Object, dict[Subject, None]]] | None = {}
        self._osp_index: dict[Object, dict[Subject, dict[Predicate, None]]] | None = {}
        self._size = 0
        self._columnar: ColumnarTriples | None = None
        #: The snapshot a store born from arrays replays its dict indexes
        #: from; dropped by the first mutation, which builds all three.
        self._born: ColumnarTriples | None = None
        if triples:
            for triple in triples:
                self.add(triple)

    @classmethod
    def from_columnar(
        cls, orders: dict, terms: list | None = None, term_source=None, blocks: dict | None = None
    ) -> "TripleStore":
        """A store born from arrays (see :meth:`ColumnarTriples.from_arrays`).

        ``orders`` must hold all three orderings; the dict indexes are
        replayed from them lazily.
        """
        store = cls.__new__(cls)
        store._spo_index = store._pos_index = store._osp_index = None
        store._born = ColumnarTriples.from_arrays(store, orders, terms, term_source, blocks)
        store._columnar = store._born
        store._size = store._born.n_triples
        return store

    # -- lazily replayed dict indexes ------------------------------------------

    @property
    def _spo(self) -> dict:
        """The SPO dict index (replayed from the SPO arrays on first use)."""
        if self._spo_index is None:
            self._spo_index = self._replay("spo")
        return self._spo_index

    @property
    def _pos(self) -> dict:
        """The POS dict index (replayed from the POS arrays on first use)."""
        if self._pos_index is None:
            self._pos_index = self._replay("pos")
        return self._pos_index

    @property
    def _osp(self) -> dict:
        """The OSP dict index (replayed from the OSP arrays on first use)."""
        if self._osp_index is None:
            self._osp_index = self._replay("osp")
        return self._osp_index

    def _replay(self, index: str) -> dict:
        """Insert the born snapshot's ``index`` rows into fresh nested dicts, in order."""
        snapshot = self._born
        terms = snapshot.terms
        s_ids, p_ids, o_ids = snapshot.order(index)
        if index == "spo":
            first, second, third = s_ids, p_ids, o_ids
        elif index == "pos":
            first, second, third = p_ids, o_ids, s_ids
        else:
            first, second, third = o_ids, s_ids, p_ids
        nested: dict = {}
        for a, b, c in zip(first.tolist(), second.tolist(), third.tolist()):
            nested.setdefault(terms[a], {}).setdefault(terms[b], {})[terms[c]] = None
        return nested

    # -- mutation ------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Add a triple; return ``True`` if it was not present before."""
        if not isinstance(triple, Triple):
            raise LODError("TripleStore.add expects a Triple")
        s, p, o = triple.as_tuple()
        bucket = self._spo.setdefault(s, {}).setdefault(p, {})
        if o in bucket:
            return False
        bucket[o] = None
        self._pos.setdefault(p, {}).setdefault(o, {})[s] = None
        self._osp.setdefault(o, {}).setdefault(s, {})[p] = None
        self._size += 1
        self._columnar = self._born = None
        return True

    def discard(self, triple: Triple) -> bool:
        """Remove a triple if present; return ``True`` when something was removed."""
        s, p, o = triple.as_tuple()
        spo, pos, osp = self._spo, self._pos, self._osp
        bucket = spo.get(s, {}).get(p)
        if not bucket or o not in bucket:
            return False
        del bucket[o]
        if not bucket:
            del spo[s][p]
            if not spo[s]:
                del spo[s]
        del pos[p][o][s]
        if not pos[p][o]:
            del pos[p][o]
            if not pos[p]:
                del pos[p]
        del osp[o][s][p]
        if not osp[o][s]:
            del osp[o][s]
            if not osp[o]:
                del osp[o]
        self._size -= 1
        self._columnar = self._born = None
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        """Add many triples; return how many were new."""
        return sum(1 for t in triples if self.add(t))

    def append(self, triples: Iterable[Triple], _force_rebuild: bool = False) -> int:
        """Add many triples, extending the columnar snapshot when possible.

        Behaves exactly like :meth:`update` (same dict-index mutations, same
        return value), but when a columnar snapshot is already materialised
        and every incoming triple's subject is new to the store, the snapshot
        is *extended* in place — new terms interned at the end of the term
        table, the new subjects' rows appended to the SPO arrays, the SPO
        block table repaired — instead of being dropped and rebuilt from
        scratch on next use.  The extended snapshot is bit-identical to a
        fresh :class:`ColumnarTriples` build of the mutated store.

        When any subject already exists (its SPO rows would have to grow in
        the middle of the array), when no snapshot is materialised, or when
        ``_force_rebuild`` pins the reference behaviour, the call falls back
        to :meth:`update` and the snapshot is rebuilt lazily as usual.
        """
        triples = list(triples)
        for triple in triples:
            if not isinstance(triple, Triple):
                raise LODError("TripleStore.append expects Triples")
        if not triples:
            return 0
        snapshot = self._columnar
        if (
            _force_rebuild
            or snapshot is None
            or any(t.subject in self._spo for t in triples)
        ):
            return self.update(triples)
        new_subjects = list(dict.fromkeys(t.subject for t in triples))
        added = sum(1 for t in triples if self.add(t))  # clears self._columnar
        snapshot._extend(new_subjects)
        self._columnar = snapshot
        return added

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        """Number of stored triples."""
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        """Whether the store holds ``triple``."""
        s, p, o = triple.as_tuple()
        return o in self._spo.get(s, {}).get(p, ())

    def __iter__(self) -> Iterator[Triple]:
        """Iterate over all triples in SPO index order."""
        for s, by_predicate in self._spo.items():
            for p, objects in by_predicate.items():
                for o in objects:
                    yield Triple(s, p, o)

    def match(
        self,
        subject: Subject | None = None,
        predicate: Predicate | None = None,
        object: Object | None = None,
    ) -> Iterator[Triple]:
        """Yield every triple matching the pattern; ``None`` is a wildcard.

        The most selective index available for the bound positions is used.
        """
        s, p, o = subject, predicate, object
        if s is not None:
            by_predicate = self._spo.get(s, {})
            predicates = [p] if p is not None else list(by_predicate)
            for pred in predicates:
                for obj in by_predicate.get(pred, ()):
                    if o is None or obj == o:
                        yield Triple(s, pred, obj)
            return
        if p is not None:
            by_object = self._pos.get(p, {})
            objects = [o] if o is not None else list(by_object)
            for obj in objects:
                for subj in by_object.get(obj, ()):
                    yield Triple(subj, p, obj)
            return
        if o is not None:
            by_subject = self._osp.get(o, {})
            for subj, predicates in by_subject.items():
                for pred in predicates:
                    yield Triple(subj, pred, o)
            return
        yield from iter(self)

    def subjects(self, predicate: Predicate | None = None, object: Object | None = None) -> list[Subject]:
        """Distinct subjects of triples matching the (predicate, object) pattern."""
        if predicate is not None and object is not None:
            # Fast path: the POS bucket lists exactly these subjects, in the
            # same insertion order the match() scan would visit them.
            return list(self._pos.get(predicate, {}).get(object, ()))
        seen: dict[Subject, None] = {}
        for triple in self.match(None, predicate, object):
            seen.setdefault(triple.subject, None)
        return list(seen)

    def predicates(self, subject: Subject | None = None) -> list[Predicate]:
        """Distinct predicates used (optionally restricted to one subject)."""
        if subject is not None:
            # Fast path: the SPO bucket's keys are the distinct predicates in
            # match() order, without materialising a Triple per cell.
            return list(self._spo.get(subject, ()))
        seen: dict[Predicate, None] = {}
        for triple in self.match(subject, None, None):
            seen.setdefault(triple.predicate, None)
        return list(seen)

    def objects(self, subject: Subject | None = None, predicate: Predicate | None = None) -> list[Object]:
        """Distinct objects of triples matching the (subject, predicate) pattern."""
        if subject is not None and predicate is not None:
            # Fast path: the SPO bucket holds exactly these objects, in the
            # same insertion order the match() scan would yield them.
            return list(self._spo.get(subject, {}).get(predicate, ()))
        seen: dict[Object, None] = {}
        for triple in self.match(subject, predicate, None):
            seen.setdefault(triple.object, None)
        return list(seen)

    def value(self, subject: Subject, predicate: Predicate, default=None):
        """Return one object for (subject, predicate), or ``default`` when absent."""
        if self._spo_index is None:
            snapshot = self._born
            _, p_ids, o_ids = snapshot.block("spo", subject)
            hits = np.flatnonzero(p_ids == snapshot.term_id(predicate))
            return snapshot.terms[int(o_ids[hits[0]])] if hits.size else default
        for obj in self._spo.get(subject, {}).get(predicate, ()):
            return obj
        return default

    def predicate_in_use(self, predicate: Predicate) -> bool:
        """Whether any triple uses ``predicate`` (one dict probe, no scan)."""
        return predicate in self._pos

    def columnar(self) -> ColumnarTriples:
        """The interned columnar snapshot of the current store state.

        Built lazily on first use and cached until the next mutation; see
        :class:`ColumnarTriples` for the layout guarantees.
        """
        if self._columnar is None:
            self._columnar = ColumnarTriples(self)
        return self._columnar

    def copy(self) -> "TripleStore":
        """Return an independent store holding the same triples."""
        return TripleStore(iter(self))

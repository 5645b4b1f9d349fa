"""Open ``.rps`` store files as memory-mapped datasets and graphs.

Opening does no per-cell work: array sections become zero-copy read-only
:class:`numpy.memmap` views wired straight into the instance caches the
execution core already consumes (:class:`~repro.tabular.encoded.EncodedDataset`
for datasets, :class:`~repro.lod.triples.ColumnarTriples` for graphs), so a
reopened payload starts in microseconds regardless of size and every hot
path is bit-identical to a cold in-memory encode of the same data.

Two store-backed lazy types bridge the gap to the object tiers:

* :class:`StoredColumn` — a :class:`~repro.tabular.dataset.Column` whose
  Python object cells are materialised from the code array and level table
  only when something actually asks for them;
* :class:`StoredTerms` — the saved term table of a graph, decoded into RDF
  term objects only when something asks for a term; the reopened
  :class:`~repro.lod.triples.TripleStore` is born from the saved order
  arrays and replays each dict index from them on first access, so
  reference-tier scans see the exact iteration order the live store had at
  save time.

``force_memory=True`` is the escape hatch back to the in-memory tier: every
array is copied out of the map (the two tiers must be bit-identical, which
the round-trip test suite enforces).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.exceptions import StoreError
from repro.lod.graph import Graph
from repro.lod.terms import BNode, Literal, trusted_iri
from repro.lod.triples import TripleStore
from repro.store.format import KIND_DATASET, KIND_GRAPH, KIND_NAMES, StoreFile
from repro.store.writer import (
    TERM_BNODE,
    TERM_IRI,
    TERM_LITERAL,
    VTAG_BOOL,
    VTAG_FLOAT,
    VTAG_INT,
    VTAG_STR,
)
from repro.tabular.dataset import Column, ColumnType, Dataset
from repro.tabular.encoded import encode_dataset


class StoredColumn(Column):
    """A non-numeric column backed by a store file's code array.

    Holds the int64 codes, the raw level table (``str`` levels, or ``bool``
    for BOOLEAN columns) and the memory-mapped missing mask; the object-cell
    array every :class:`~repro.tabular.dataset.Column` API is defined over
    is materialised lazily (``levels[code]``, ``None`` for ``-1``) the first
    time something reads it.  The encoded hot paths never do — their views
    are seeded from the store — so CV folds, group-bys and profiles run
    without ever paying the object materialisation.

    Mutating operations inherit the copy-on-write semantics of the plain
    column API: they read the cells through the ``_values`` property and
    build ordinary in-memory columns, leaving the map untouched.
    """

    __slots__ = ("_codes", "_levels", "_cells")

    @classmethod
    def _build(cls, name: str, ctype: str, role: str, codes: np.ndarray,
               levels: list, missing: np.ndarray | None) -> "StoredColumn":
        """Assemble a stored column without running ``Column.__init__``."""
        column = cls.__new__(cls)
        column.name = name
        column.ctype = ctype
        column.role = role
        column._codes = codes
        column._levels = levels
        column._cells = None
        column._missing_cache = missing
        return column

    @property
    def _values(self) -> np.ndarray:
        """The object-cell array, materialised on first access and cached."""
        cells = self._cells
        if cells is None:
            table = np.empty(len(self._levels) + 1, dtype=object)
            for i, level in enumerate(self._levels):
                table[i] = level
            table[-1] = None  # code -1 indexes here
            cells = table[np.asarray(self._codes)]
            self._cells = cells
        return cells

    def __len__(self) -> int:
        """Row count, read from the code array (no cell materialisation)."""
        return int(self._codes.shape[0])

    def take(self, indices) -> "StoredColumn":
        """Row subset that stays lazy: sliced codes, shared level table."""
        index_array = np.asarray(indices, dtype=int)
        return StoredColumn._build(
            self.name,
            self.ctype,
            self.role,
            np.asarray(self._codes)[index_array],
            self._levels,
            self._missing_cache[index_array] if self._missing_cache is not None else None,
        )


def _open_store(path: Path | str, expected_kind: int) -> StoreFile:
    """Open ``path`` and check its payload kind."""
    store_file = StoreFile(path)
    if store_file.kind != expected_kind:
        store_file.close()
        raise StoreError(
            f"store {path} holds a {KIND_NAMES[store_file.kind]} payload, "
            f"not a {KIND_NAMES[expected_kind]}"
        )
    return store_file


def _loader(force_memory: bool):
    """Identity for the memmap tier; a copying loader for the memory tier."""
    return (lambda view: np.array(view)) if force_memory else (lambda view: view)


def open_dataset(path: Path | str, force_memory: bool = False, verify: bool = False) -> Dataset:
    """Open a dataset store file; see :meth:`repro.tabular.dataset.Dataset.open`.

    Numeric columns alias the mapped ``float64`` sections directly; object
    columns become lazy :class:`StoredColumn` instances; and the dataset's
    :class:`~repro.tabular.encoded.EncodedDataset` cache is pre-seeded with
    the saved code arrays, vocabularies, numeric views and normalised level
    tables — so the encoding step every hot path starts with is skipped
    entirely.  ``verify=True`` additionally checksums every array section
    (metadata sections are always checked).
    """
    store_file = _open_store(path, KIND_DATASET)
    meta = store_file.json("meta")
    load = _loader(force_memory)
    columns: list[Column] = []
    seeds: list[tuple] = []
    for described in meta["columns"]:
        name, ctype, role, prefix = described["name"], described["ctype"], described["role"], described["prefix"]
        if ctype == ColumnType.NUMERIC:
            column = Column.__new__(Column)
            column.name = name
            column.ctype = ctype
            column.role = role
            column._values = load(store_file.array(f"{prefix}.val"))
            column._missing_cache = None
        else:
            codes = load(store_file.array(f"{prefix}.cod"))
            vocabulary = store_file.strings(f"{prefix}.lev")
            mask = load(store_file.array(f"{prefix}.msk"))
            levels = [text == "True" for text in vocabulary] if ctype == ColumnType.BOOLEAN else vocabulary
            column = StoredColumn._build(name, ctype, role, codes, levels, mask)
            seeds.append(
                (
                    name,
                    codes,
                    vocabulary,
                    load(store_file.array(f"{prefix}.num")),
                    load(store_file.array(f"{prefix}.nmk")),
                    store_file.strings(f"{prefix}.nrm"),
                )
            )
        columns.append(column)
    dataset = Dataset(columns, name=meta["name"])
    encoded = encode_dataset(dataset)
    for name, codes, vocabulary, num_values, num_missing, normalised in seeds:
        encoded.seed_categorical(name, codes, vocabulary)
        encoded.seed_numeric(name, num_values, num_missing)
        encoded.seed_normalised(name, normalised)
    if verify:
        store_file.verify()
    dataset._store_file = store_file  # keeps the map alive; provenance for tools
    return dataset


#: The sections of a graph's term table, in the order the writer emits them.
TERM_SECTIONS = ("term.knd", "term.txt", "term.vtg", "term.dty", "term.lng", "dty.tab", "lng.tab")


class StoredTerms:
    """A graph's saved term table, decoded into RDF terms on first use.

    Opening a graph only CRC-checks the term sections (metadata sections are
    always checked on access); the per-term Python of :func:`_decode_terms`
    runs the first time a term is actually needed, so ``Graph.open``
    followed by ``len()``, an array-only query or a re-save does none.
    ``sections()`` hands the writer the saved payloads verbatim, which is
    what re-encoding the decoded terms would produce byte for byte; it
    checks them as decoding would first, so a re-save never stamps fresh
    checksums on a damaged or malformed term table.
    """

    __slots__ = ("_store_file", "n_terms")

    def __init__(self, store_file: StoreFile) -> None:
        """Check the term sections' checksums and remember where they live."""
        for name in ("term.txt", "dty.tab", "lng.tab"):
            store_file._payload(name, check_crc=True)
        self._store_file = store_file
        self.n_terms = int(store_file.section("term.knd").count)

    def decode(self) -> list:
        """The decoded term list (see :func:`_decode_terms`)."""
        return _decode_terms(self._store_file)

    def sections(self) -> list[tuple[str, int, int, int, bytes, int]]:
        """The seven term-table section tuples, checked and copied from the file as saved."""
        store_file = self._store_file
        kinds = store_file.array("term.knd", verify=True)
        vtags = store_file.array("term.vtg", verify=True)
        bad_kinds = ~np.isin(kinds, (TERM_IRI, TERM_BNODE, TERM_LITERAL))
        if bad_kinds.any():
            raise StoreError(f"store {store_file.path}: unknown term kind {int(kinds[bad_kinds][0])}")
        literal_tags = vtags[kinds == TERM_LITERAL]
        bad_tags = ~np.isin(literal_tags, (VTAG_STR, VTAG_INT, VTAG_FLOAT, VTAG_BOOL))
        if bad_tags.any():
            raise StoreError(f"store {store_file.path}: unknown literal value tag {int(literal_tags[bad_tags][0])}")
        result = []
        for name in TERM_SECTIONS:
            section = store_file.section(name)
            payload = bytes(store_file._payload(name, check_crc=True))
            result.append((name, section.kind, section.dtype, section.flags, payload, section.count))
        return result


def _decode_terms(store_file: StoreFile) -> list:
    """Decode the interned term table back into RDF term objects.

    Terms were validated when first constructed, before saving, so decoding
    bypasses ``__post_init__`` validation with ``object.__new__`` — opening
    must not re-pay per-term regex checks.
    """
    kinds = store_file.array("term.knd")
    texts = store_file.strings("term.txt")
    vtags = store_file.array("term.vtg")
    datatype_ids = store_file.array("term.dty")
    language_ids = store_file.array("term.lng")
    datatypes = [trusted_iri(value) for value in store_file.strings("dty.tab")]
    languages = store_file.strings("lng.tab")
    terms: list = []
    for kind, text, vtag, datatype_id, language_id in zip(
        kinds.tolist(), texts, vtags.tolist(), datatype_ids.tolist(), language_ids.tolist()
    ):
        if kind == TERM_IRI:
            terms.append(trusted_iri(text))
        elif kind == TERM_BNODE:
            term = object.__new__(BNode)
            object.__setattr__(term, "identifier", text)
            terms.append(term)
        elif kind == TERM_LITERAL:
            if vtag == VTAG_STR:
                value = text
            elif vtag == VTAG_INT:
                value = int(text)
            elif vtag == VTAG_FLOAT:
                value = float(text)
            elif vtag == VTAG_BOOL:
                value = text == "true"
            else:
                raise StoreError(f"store {store_file.path}: unknown literal value tag {vtag}")
            term = object.__new__(Literal)
            object.__setattr__(term, "value", value)
            object.__setattr__(term, "datatype", datatypes[datatype_id] if datatype_id >= 0 else None)
            object.__setattr__(term, "language", languages[language_id] if language_id >= 0 else None)
            terms.append(term)
        else:
            raise StoreError(f"store {store_file.path}: unknown term kind {kind}")
    return terms


def open_graph(path: Path | str, force_memory: bool = False, verify: bool = False) -> Graph:
    """Open a graph store file; see :meth:`repro.lod.graph.Graph.open`.

    The columnar snapshot is wired directly from the mapped id arrays and
    block tables (no interning pass), the term table is decoded on first use
    (:class:`StoredTerms`), and the dict indexes stay unbuilt until a
    reference-tier scan or a mutation needs them — so opening, counting and
    re-saving a multi-million-triple graph run without any per-term or
    per-triple Python.
    """
    store_file = _open_store(path, KIND_GRAPH)
    meta = store_file.json("meta")
    load = _loader(force_memory)
    stored_terms = StoredTerms(store_file)
    orders = {
        index: tuple(load(store_file.array(f"{index}.{position}")) for position in "spo")
        for index in ("spo", "pos", "osp")
    }
    blocks = {
        index: tuple(load(store_file.array(f"{index}.{suffix}")) for suffix in ("bk", "bs", "be"))
        for index in ("spo", "pos", "osp")
    }
    if force_memory:
        # The memory tier decodes every term up front and keeps no tie to the map.
        store = TripleStore.from_columnar(orders, terms=stored_terms.decode(), blocks=blocks)
    else:
        store = TripleStore.from_columnar(orders, term_source=stored_terms, blocks=blocks)
    graph = Graph(meta["identifier"])
    graph.store = store
    for prefix, namespace in meta["prefixes"].items():
        graph.bind(prefix, namespace)
    graph._bnode_counter = int(meta.get("bnode_counter", 0))
    if verify:
        store_file.verify()
    graph._store_file = store_file  # keeps the map alive; provenance for tools
    return graph


def inspect_store(path: Path | str, verify: bool = False) -> dict:
    """Structural summary of a store file, as a JSON-serialisable dict.

    Returns the header fields plus one entry per section (kind, dtype,
    flags, offset, length, element count, checksum).  With ``verify=True``
    every payload is CRC-checked and per-section ``"status"`` fields report
    ``"ok"`` or the failure reason; structural damage below the
    header/directory level is reported the same way instead of raising.

    Inspection is self-contained: the store file is closed (its descriptor
    released) before the summary is returned.
    """
    with StoreFile(path, tolerant=True) as store_file:
        damage = dict(store_file.damage)
        if verify:
            damage = store_file.verify()
    sections = []
    for name, section in store_file.sections.items():
        sections.append(
            {
                "name": name,
                "kind": section.kind,
                "dtype": section.dtype,
                "derived": section.derived,
                "offset": section.offset,
                "length": section.length,
                "count": section.count,
                "crc32": section.crc,
                "status": damage.get(name, "ok" if verify else "not checked"),
            }
        )
    return {
        "path": str(store_file.path),
        "format_version": store_file.version,
        "payload": KIND_NAMES[store_file.kind],
        "file_length": store_file.file_length,
        "n_sections": len(store_file.sections),
        "damaged": sorted(damage),
        "sections": sections,
    }

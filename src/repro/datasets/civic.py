"""Named civic open-data scenarios (clean and dirty variants, tabular and LOD).

These deterministic generators stand in for the governmental open data the
paper motivates OpenBI with.  Each generator returns a
:class:`~repro.tabular.dataset.Dataset`; :func:`civic_lod_graph` additionally
publishes any of them as a Linked Open Data graph so the full
ingest → link → tabulate → measure → mine pipeline can be exercised.

The ``dirty`` variants exhibit the natural data quality problems of published
open data (missing cells, inconsistent category spellings, duplicated records,
out-of-range values) *without* using the controlled injectors — they are the
"unseen sources" the advisor is evaluated on.
"""

from __future__ import annotations

import numpy as np

from repro.lod.columnar import TermLog, row_log
from repro.lod.graph import Graph
from repro.lod.terms import Literal
from repro.lod.vocabulary import DCTERMS, Namespace, RDF, RDFS
from repro.tabular.dataset import ColumnRole, ColumnType, Dataset, is_missing_value
from repro.tabular.encoded import encode_dataset

#: Hoisted: every Namespace attribute access constructs and validates an IRI.
_RDF_TYPE = RDF.type

#: Namespace used for all civic LOD resources.
CIVIC = Namespace("http://openbi.example.org/civic/")

_DISTRICTS = ["centre", "north", "south", "east", "west", "harbour"]
_CATEGORIES = ["education", "culture", "transport", "health", "sports", "environment"]


def municipal_budget(n_rows: int = 240, seed: int = 0, dirty: bool = False, name: str = "municipal_budget") -> Dataset:
    """Municipal budget execution lines.

    Columns: district, category, year, budgeted, executed, execution_rate and
    the classification target ``overrun`` (whether executed > budgeted).
    """
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_rows):
        district = _DISTRICTS[int(rng.integers(len(_DISTRICTS)))]
        category = _CATEGORIES[int(rng.integers(len(_CATEGORIES)))]
        year = int(2008 + rng.integers(4))
        budgeted = float(np.round(rng.uniform(50_000, 2_000_000), 2))
        # Transport and health in dense districts tend to overrun.
        overrun_probability = 0.25
        if category in ("transport", "health"):
            overrun_probability += 0.3
        if district in ("centre", "harbour"):
            overrun_probability += 0.15
        overrun = rng.random() < overrun_probability
        factor = rng.uniform(1.02, 1.35) if overrun else rng.uniform(0.6, 0.99)
        executed = float(np.round(budgeted * factor, 2))
        rows.append(
            {
                "line_id": f"B{i:05d}",
                "district": district,
                "category": category,
                "year": year,
                "budgeted": budgeted,
                "executed": executed,
                "execution_rate": float(np.round(executed / budgeted, 4)),
                "overrun": "yes" if overrun else "no",
            }
        )
    if dirty:
        rows = _make_dirty(rows, rng, categorical=["district", "category"], numeric=["budgeted", "executed"])
    dataset = Dataset.from_rows(
        rows,
        name=name,
        roles={"line_id": ColumnRole.IDENTIFIER, "overrun": ColumnRole.TARGET},
        ctypes={"year": ColumnType.CATEGORICAL},
    )
    return dataset


def air_quality(n_rows: int = 360, seed: int = 1, dirty: bool = False, name: str = "air_quality") -> Dataset:
    """Hourly air-quality sensor readings with an ``alert`` classification target."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_rows):
        district = _DISTRICTS[int(rng.integers(len(_DISTRICTS)))]
        month = int(1 + rng.integers(12))
        traffic = float(np.round(rng.uniform(50, 900), 1))
        temperature = float(np.round(rng.normal(12 + 10 * np.sin(month / 12 * np.pi), 4), 1))
        wind = float(np.round(abs(rng.normal(12, 6)), 1))
        no2 = float(np.round(10 + 0.06 * traffic - 0.8 * wind + rng.normal(0, 5), 1))
        pm10 = float(np.round(8 + 0.04 * traffic - 0.5 * wind + 0.3 * max(temperature, 0) + rng.normal(0, 4), 1))
        alert = "alert" if (no2 > 45 or pm10 > 42) else "ok"
        rows.append(
            {
                "reading_id": f"AQ{i:05d}",
                "district": district,
                "month": month,
                "traffic_intensity": traffic,
                "temperature": temperature,
                "wind_speed": wind,
                "no2": max(no2, 0.0),
                "pm10": max(pm10, 0.0),
                "alert": alert,
            }
        )
    if dirty:
        rows = _make_dirty(rows, rng, categorical=["district"], numeric=["no2", "pm10", "wind_speed"])
    return Dataset.from_rows(
        rows,
        name=name,
        roles={"reading_id": ColumnRole.IDENTIFIER, "alert": ColumnRole.TARGET},
        ctypes={"month": ColumnType.NUMERIC},
    )


def census_income(n_rows: int = 400, seed: int = 2, dirty: bool = False, name: str = "census_income") -> Dataset:
    """Census-style microdata with an ``income_band`` classification target."""
    rng = np.random.default_rng(seed)
    education_levels = ["primary", "secondary", "vocational", "university"]
    sectors = ["public", "services", "industry", "agriculture", "unemployed"]
    rows = []
    for i in range(n_rows):
        age = int(rng.integers(18, 85))
        education = education_levels[int(rng.choice(len(education_levels), p=[0.2, 0.35, 0.25, 0.2]))]
        sector = sectors[int(rng.integers(len(sectors)))]
        household = int(rng.integers(1, 7))
        base = 12_000 + 350 * (age - 18 if age < 60 else 45)
        base += {"primary": 0, "secondary": 4_000, "vocational": 7_000, "university": 14_000}[education]
        base += {"public": 5_000, "services": 2_000, "industry": 3_500, "agriculture": -1_000, "unemployed": -9_000}[sector]
        income = max(float(rng.normal(base, 4_000)), 0.0)
        band = "high" if income > 30_000 else ("medium" if income > 18_000 else "low")
        rows.append(
            {
                "person_id": f"P{i:05d}",
                "age": age,
                "education": education,
                "sector": sector,
                "household_size": household,
                "district": _DISTRICTS[int(rng.integers(len(_DISTRICTS)))],
                "income": float(np.round(income, 2)),
                "income_band": band,
            }
        )
    if dirty:
        rows = _make_dirty(rows, rng, categorical=["education", "sector", "district"], numeric=["income", "age"])
    dataset = Dataset.from_rows(
        rows,
        name=name,
        roles={"person_id": ColumnRole.IDENTIFIER, "income_band": ColumnRole.TARGET},
    )
    # The raw income column would leak the target; mark it as metadata.
    return dataset.set_role("income", ColumnRole.METADATA)


def service_requests(n_rows: int = 300, seed: int = 3, dirty: bool = False, name: str = "service_requests") -> Dataset:
    """Citizen service-request (311-style) records with a ``resolved_late`` target."""
    rng = np.random.default_rng(seed)
    channels = ["web", "phone", "office", "mobile_app"]
    topics = ["streetlight", "waste", "noise", "roads", "water", "parks"]
    rows = []
    for i in range(n_rows):
        district = _DISTRICTS[int(rng.integers(len(_DISTRICTS)))]
        channel = channels[int(rng.integers(len(channels)))]
        topic = topics[int(rng.integers(len(topics)))]
        backlog = float(np.round(rng.uniform(0, 120), 1))
        priority = int(rng.integers(1, 4))
        late_probability = 0.15 + 0.004 * backlog + (0.2 if topic in ("roads", "water") else 0.0) - 0.05 * priority
        late = rng.random() < min(max(late_probability, 0.02), 0.95)
        resolution_days = float(np.round(rng.uniform(15, 60) if late else rng.uniform(1, 14), 1))
        rows.append(
            {
                "request_id": f"SR{i:05d}",
                "district": district,
                "channel": channel,
                "topic": topic,
                "priority": priority,
                "open_backlog": backlog,
                "resolution_days": resolution_days,
                "resolved_late": "late" if late else "on_time",
            }
        )
    if dirty:
        rows = _make_dirty(rows, rng, categorical=["district", "channel", "topic"], numeric=["open_backlog"])
    return Dataset.from_rows(
        rows,
        name=name,
        roles={"request_id": ColumnRole.IDENTIFIER, "resolved_late": ColumnRole.TARGET},
        ctypes={"priority": ColumnType.CATEGORICAL},
    )


#: Registry used by examples and benchmarks: name → generator callable.
CIVIC_GENERATORS = {
    "municipal_budget": municipal_budget,
    "air_quality": air_quality,
    "census_income": census_income,
    "service_requests": service_requests,
}


def _make_dirty(rows: list[dict], rng: np.random.Generator, categorical: list[str], numeric: list[str]) -> list[dict]:
    """Introduce the organic quality problems of real published open data."""
    dirty_rows = [dict(row) for row in rows]
    n = len(dirty_rows)
    # Missing cells spread over all feature columns.
    for row in dirty_rows:
        for key in categorical + numeric:
            if rng.random() < 0.06:
                row[key] = None
    # Inconsistent category spellings (case / whitespace variants).
    for row in dirty_rows:
        for key in categorical:
            value = row.get(key)
            if isinstance(value, str) and rng.random() < 0.05:
                row[key] = value.upper() if rng.random() < 0.5 else f" {value} ".title()
    # Out-of-range / corrupted numeric values.
    for row in dirty_rows:
        for key in numeric:
            value = row.get(key)
            if isinstance(value, (int, float)) and rng.random() < 0.03:
                row[key] = float(value) * -1 if rng.random() < 0.5 else float(value) * 100
    # Duplicated records.
    n_duplicates = max(1, int(0.05 * n))
    for _ in range(n_duplicates):
        dirty_rows.append(dict(dirty_rows[int(rng.integers(n))]))
    return dirty_rows


def civic_lod_graph(
    dataset: Dataset, entity_class: str | None = None, base: Namespace = CIVIC, force_row: bool = False
) -> Graph:
    """Publish a civic dataset as a LOD graph (one resource per row).

    Each row becomes an instance of ``base[entity_class]``; every column
    becomes a datatype property.  Identifier columns provide the resource IRI
    (rows without one are named ``"{dataset name}-{row index}"``).

    The graph is built columnar (:mod:`repro.lod.columnar`): its interned
    triple arrays come straight from the dataset's encoded views, with one
    term per distinct value.  ``force_row=True`` routes through the
    row-at-a-time reference tier, which adds one triple at a time; both
    tiers produce identical term tables, orderings and saved store bytes.
    """
    entity_class = entity_class or dataset.name.title().replace("_", "")
    if force_row:
        return _civic_lod_graph_rows(dataset, entity_class, base)
    class_iri = base[entity_class]
    graph = Graph(f"{base.prefix}graph/{dataset.name}")
    graph.bind("civic", base)
    identifier_columns = [c.name for c in dataset.columns if c.role == ColumnRole.IDENTIFIER]
    n_rows = dataset.n_rows
    locals_index: dict[str, int] = {}
    local_of_row = np.empty(n_rows, dtype=np.int64)
    if identifier_columns:
        codes, vocabulary, _ = encode_dataset(dataset).codes_view(identifier_columns[0])
        locals_index = {local: code for code, local in enumerate(vocabulary)}
        local_of_row[:] = codes
        unnamed = np.flatnonzero(codes < 0).tolist()
    else:
        unnamed = range(n_rows)
    for index in unnamed:
        local_of_row[index] = locals_index.setdefault(f"{dataset.name}-{index}", len(locals_index))
    locals_ = list(locals_index)

    log = TermLog()
    rdf_type = log.iri(_RDF_TYPE)
    class_variant = log.iri(class_iri)
    head = [
        (class_variant, rdf_type, log.iri(RDFS.Class)),
        (class_variant, log.iri(RDFS.label), log.literal(entity_class)),
    ]
    subjects = log.iris(f"{base.prefix}{entity_class.lower()}/", locals_)[local_of_row]
    cells = [
        (rdf_type, np.full(n_rows, class_variant, dtype=np.int64)),
        (log.iri(DCTERMS.identifier), log.literals(locals_)[local_of_row]),
    ]
    for column in dataset.columns:
        if column.name not in identifier_columns:
            cells.append((log.iri(base[column.name]), log.column(column, dataset)))
    graph.store = log.build(*row_log(head, subjects, cells))
    return graph


def _civic_lod_graph_rows(dataset: Dataset, entity_class: str, base: Namespace) -> Graph:
    """Reference tier of :func:`civic_lod_graph`: one ``Graph.add`` per triple."""
    class_iri = base[entity_class]
    graph = Graph(f"{base.prefix}graph/{dataset.name}")
    graph.bind("civic", base)
    graph.add_resource(class_iri, rdf_type=RDFS.Class, label=entity_class)
    identifier_columns = [c.name for c in dataset.columns if c.role == ColumnRole.IDENTIFIER]
    for index, row in enumerate(dataset.iter_rows()):
        if identifier_columns and not is_missing_value(row[identifier_columns[0]]):
            local = str(row[identifier_columns[0]])
        else:
            local = f"{dataset.name}-{index}"
        subject = base[f"{entity_class.lower()}/{local}"]
        graph.add(subject, RDF.type, class_iri)
        graph.add(subject, DCTERMS.identifier, Literal(local))
        for name, value in row.items():
            if name in identifier_columns or is_missing_value(value):
                continue
            graph.add(subject, base[name], Literal(value))
    return graph

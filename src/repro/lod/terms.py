"""RDF terms: IRIs, literals, blank nodes and triples.

The terms are immutable value objects so they can be used as dictionary keys
in the triple store indexes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Union

from repro.exceptions import LODError

_IRI_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")


@dataclass(frozen=True, slots=True)
class IRI:
    """An absolute IRI (e.g. ``http://example.org/resource/1``)."""

    value: str

    def __post_init__(self) -> None:
        """Reject relative or empty IRIs."""
        if not self.value or not _IRI_RE.match(self.value):
            raise LODError(f"not an absolute IRI: {self.value!r}")

    def __str__(self) -> str:
        """The raw IRI string."""
        return self.value

    def n3(self) -> str:
        """N-Triples / Turtle representation."""
        return f"<{self.value}>"

    def local_name(self) -> str:
        """The fragment or last path segment, used for readable column names."""
        for sep in ("#", "/", ":"):
            if sep in self.value:
                tail = self.value.rsplit(sep, 1)[1]
                if tail:
                    return tail
        return self.value


@dataclass(frozen=True, slots=True)
class BNode:
    """A blank node with a local identifier."""

    identifier: str

    def __post_init__(self) -> None:
        """Reject empty or non-alphanumeric blank node identifiers."""
        if not self.identifier or not re.match(r"^[A-Za-z0-9_]+$", self.identifier):
            raise LODError(f"invalid blank node identifier: {self.identifier!r}")

    def __str__(self) -> str:
        """The ``_:identifier`` form."""
        return f"_:{self.identifier}"

    def n3(self) -> str:
        """N-Triples / Turtle representation (same as ``str``)."""
        return f"_:{self.identifier}"


@dataclass(frozen=True, slots=True)
class Literal:
    """An RDF literal with an optional datatype IRI or language tag.

    ``value`` is kept as the native Python value (str, int, float, bool); the
    lexical form and datatype are derived from it when not given explicitly.
    """

    value: Any
    datatype: IRI | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        """Reject literals carrying both a language tag and a datatype."""
        if self.language is not None and self.datatype is not None:
            raise LODError("a literal cannot have both a language tag and a datatype")

    @property
    def lexical(self) -> str:
        """The lexical (string) form of the literal."""
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, float) and self.value.is_integer():
            return str(self.value)
        return str(self.value)

    def python_value(self) -> Any:
        """Return the native Python value."""
        return self.value

    def n3(self) -> str:
        """N-Triples / Turtle representation with escaping and tags."""
        escaped = (
            self.lexical.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")
        )
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype:
            return f'"{escaped}"^^{self.datatype.n3()}'
        return f'"{escaped}"'

    def __str__(self) -> str:
        """The lexical form."""
        return self.lexical


#: A subject may be an IRI or blank node; an object may additionally be a literal.
Subject = Union[IRI, BNode]
Predicate = IRI
Object = Union[IRI, BNode, Literal]


@dataclass(frozen=True, slots=True)
class Triple:
    """An RDF triple (subject, predicate, object)."""

    subject: Subject
    predicate: Predicate
    object: Object

    def __post_init__(self) -> None:
        """Validate the term types of the three positions."""
        if not isinstance(self.subject, (IRI, BNode)):
            raise LODError(f"triple subject must be an IRI or BNode, got {type(self.subject).__name__}")
        if not isinstance(self.predicate, IRI):
            raise LODError(f"triple predicate must be an IRI, got {type(self.predicate).__name__}")
        if not isinstance(self.object, (IRI, BNode, Literal)):
            raise LODError(f"triple object must be an IRI, BNode or Literal, got {type(self.object).__name__}")

    def n3(self) -> str:
        """The triple as one N-Triples line."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def as_tuple(self) -> tuple[Subject, Predicate, Object]:
        """The triple as a plain ``(subject, predicate, object)`` tuple."""
        return (self.subject, self.predicate, self.object)


def trusted_iri(value: str) -> IRI:
    """Construct an :class:`IRI` without re-running its validation regex.

    Only for values already known to be valid: IRIs read back from a store
    file, or IRIs extending a namespace prefix that was validated once.
    """
    iri = object.__new__(IRI)
    object.__setattr__(iri, "value", value)
    return iri


def coerce_object(value: Any) -> Object:
    """Convert a Python value to an RDF object term.

    IRIs/BNodes/Literals pass through; strings that look like absolute IRIs
    become :class:`IRI`; everything else becomes a plain :class:`Literal`.
    """
    if isinstance(value, (IRI, BNode, Literal)):
        return value
    if isinstance(value, str) and _IRI_RE.match(value) and " " not in value:
        return IRI(value)
    return Literal(value)

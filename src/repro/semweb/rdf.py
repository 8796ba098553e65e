"""A minimal RDF triple store.

The paper (§3.1) assumes all agent information lives in "machine-readable
homepages" encoded in RDF or OWL.  This module provides the substrate those
documents are built from: node types (:class:`URIRef`, :class:`Literal`,
:class:`BNode`) and an indexed, in-memory :class:`Graph` supporting triple
pattern matching.  It deliberately implements only the subset of RDF the
system needs — no inference, no named graphs — but implements that subset
carefully (hashable immutable terms, subject- and predicate-first
indexes, set semantics for triples).

The design mirrors rdflib's public API closely enough that code written
against this module would port to rdflib with mechanical changes only.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from typing import Optional, Union

__all__ = [
    "BNode",
    "Graph",
    "Literal",
    "Node",
    "Triple",
    "TriplePattern",
    "URIRef",
]


class Node:
    """Abstract base class for RDF terms.

    Concrete terms are :class:`URIRef`, :class:`Literal` and :class:`BNode`.
    All terms are immutable and hashable so they can be used in set-based
    triple indexes.
    """

    __slots__ = ()

    def n3(self) -> str:
        """Return the N-Triples serialization of this term."""
        raise NotImplementedError


class URIRef(Node, str):
    """An RDF URI reference.

    Subclasses :class:`str` so URIs compare and hash as plain strings,
    which keeps index lookups allocation-free.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"URIRef({str.__repr__(self)})"

    def n3(self) -> str:
        return f"<{str(self)}>"


class BNode(Node, str):
    """A blank node with an explicit local identifier.

    Identifiers must be supplied by the caller (e.g. ``BNode("b0")``);
    determinism matters for round-trip serialization tests, so no global
    counter or randomness is involved.  Labels are restricted to
    ``[A-Za-z0-9_]+`` so every blank node serializes to a parseable
    N-Triples label.
    """

    __slots__ = ()

    def __new__(cls, label: str) -> "BNode":
        if not label or not all(
            c.isascii() and (c.isalnum() or c == "_") for c in label
        ):
            raise ValueError(
                f"blank node label must match [A-Za-z0-9_]+, got {label!r}"
            )
        return str.__new__(cls, label)

    def __repr__(self) -> str:
        return f"BNode({str.__repr__(self)})"

    def n3(self) -> str:
        return f"_:{str(self)}"


_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}

_UNESCAPES = {v: k for k, v in _ESCAPES.items()}


def _escape_literal(value: str) -> str:
    out = []
    for ch in value:
        escaped = _ESCAPES.get(ch)
        if escaped is not None:
            out.append(escaped)
        elif ord(ch) < 0x20 or ord(ch) == 0x7F:
            # Control characters must not appear raw: several of them
            # (e.g. U+001E) are line separators for str.splitlines and
            # would corrupt the line-oriented N-Triples format.
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def _unescape_literal(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        if value[i] == "\\" and i + 1 < len(value):
            pair = value[i : i + 2]
            if pair in _UNESCAPES:
                out.append(_UNESCAPES[pair])
                i += 2
                continue
            if value[i + 1] == "u" and i + 6 <= len(value):
                out.append(chr(int(value[i + 2 : i + 6], 16)))
                i += 6
                continue
            if value[i + 1] == "U" and i + 10 <= len(value):
                out.append(chr(int(value[i + 2 : i + 10], 16)))
                i += 10
                continue
        out.append(value[i])
        i += 1
    return "".join(out)


class Literal(Node):
    """An RDF literal with optional datatype or language tag.

    Python values are converted on construction: ``Literal(0.75)`` stores
    the lexical form ``"0.75"`` with an ``xsd:double`` datatype, and
    :meth:`to_python` converts back.
    """

    __slots__ = ("lexical", "datatype", "language")

    _XSD = "http://www.w3.org/2001/XMLSchema#"
    XSD_INTEGER = URIRef(_XSD + "integer")
    XSD_DOUBLE = URIRef(_XSD + "double")
    XSD_BOOLEAN = URIRef(_XSD + "boolean")
    XSD_STRING = URIRef(_XSD + "string")

    def __init__(
        self,
        value: Union[str, int, float, bool],
        datatype: Optional[URIRef] = None,
        language: Optional[str] = None,
    ) -> None:
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot carry both datatype and language")
        if isinstance(value, bool):
            lexical = "true" if value else "false"
            datatype = datatype or self.XSD_BOOLEAN
        elif isinstance(value, int):
            lexical = str(value)
            datatype = datatype or self.XSD_INTEGER
        elif isinstance(value, float):
            lexical = repr(value)
            datatype = datatype or self.XSD_DOUBLE
        else:
            lexical = str(value)
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Literal instances are immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return (
            self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __hash__(self) -> int:
        return hash((self.lexical, self.datatype, self.language))

    def __repr__(self) -> str:
        parts = [repr(self.lexical)]
        if self.datatype is not None:
            parts.append(f"datatype={self.datatype!r}")
        if self.language is not None:
            parts.append(f"language={self.language!r}")
        return f"Literal({', '.join(parts)})"

    def n3(self) -> str:
        core = f'"{_escape_literal(self.lexical)}"'
        if self.language is not None:
            return f"{core}@{self.language}"
        if self.datatype is not None:
            return f"{core}^^{self.datatype.n3()}"
        return core

    def to_python(self) -> Union[str, int, float, bool]:
        """Convert the literal back to the closest Python value."""
        if self.datatype == self.XSD_INTEGER:
            return int(self.lexical)
        if self.datatype == self.XSD_DOUBLE:
            return float(self.lexical)
        if self.datatype == self.XSD_BOOLEAN:
            return self.lexical == "true"
        return self.lexical

    @staticmethod
    def unescape(lexical: str) -> str:
        """Reverse N-Triples escaping (used by the parser)."""
        return _unescape_literal(lexical)


Triple = tuple[Node, Node, Node]
TriplePattern = tuple[Optional[Node], Optional[Node], Optional[Node]]


class Graph:
    """An in-memory set of RDF triples with SPO/POS indexes.

    The two indexes answer every pattern with a bound subject or
    predicate in a single dictionary walk, the patterns the homepage
    parsers ask.  An object-only pattern scans the subject's index
    (``(s, ?, o)``) or the triple set (``(?, ?, o)``).  Triples have set
    semantics: adding a duplicate is a no-op and ``len`` counts distinct
    triples.
    """

    __slots__ = ("_triples", "_spo", "_pos")

    def __init__(self, triples: Optional[Iterable[Triple]] = None) -> None:
        self._triples: set[Triple] = set()
        self._spo: dict[Node, dict[Node, set[Node]]] = {}
        self._pos: dict[Node, dict[Node, set[Node]]] = {}
        if triples is not None:
            for triple in triples:
                self.add(triple)

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("Graph objects are unhashable")

    def copy(self) -> "Graph":
        """Return an independent copy of this graph."""
        return Graph(self._triples)

    def add(self, triple: Triple) -> "Graph":
        """Add a triple; duplicates are ignored.  Returns self for chaining."""
        subject, predicate, obj = triple
        self._validate(subject, predicate, obj)
        if triple in self._triples:
            return self
        self._triples.add(triple)
        self._spo.setdefault(subject, {}).setdefault(predicate, set()).add(obj)
        self._pos.setdefault(predicate, {}).setdefault(obj, set()).add(subject)
        return self

    def remove(self, pattern: TriplePattern) -> int:
        """Remove every triple matching *pattern*; return the removal count."""
        matched = list(self.triples(pattern))
        for triple in matched:
            self._discard(triple)
        return len(matched)

    def _discard(self, triple: Triple) -> None:
        subject, predicate, obj = triple
        self._triples.discard(triple)
        self._prune(self._spo, subject, predicate, obj)
        self._prune(self._pos, predicate, obj, subject)

    @staticmethod
    def _prune(
        index: dict[Node, dict[Node, set[Node]]], a: Node, b: Node, c: Node
    ) -> None:
        inner = index.get(a)
        if inner is None:
            return
        values = inner.get(b)
        if values is None:
            return
        values.discard(c)
        if not values:
            del inner[b]
        if not inner:
            del index[a]

    @staticmethod
    def _validate(subject: Node, predicate: Node, obj: Node) -> None:
        if not isinstance(subject, (URIRef, BNode)):
            raise TypeError(f"triple subject must be URIRef or BNode, got {subject!r}")
        if not isinstance(predicate, URIRef):
            raise TypeError(f"triple predicate must be URIRef, got {predicate!r}")
        if not isinstance(obj, (URIRef, BNode, Literal)):
            raise TypeError(f"triple object must be an RDF term, got {obj!r}")

    def triples(self, pattern: TriplePattern = (None, None, None)) -> Iterator[Triple]:
        """Yield every triple matching the (s, p, o) *pattern*.

        ``None`` acts as a wildcard in any position.
        """
        subject, predicate, obj = pattern
        if subject is not None and predicate is not None and obj is not None:
            if (subject, predicate, obj) in self._triples:
                yield (subject, predicate, obj)
        elif subject is not None and predicate is not None:
            for o in self._spo.get(subject, {}).get(predicate, ()):
                yield (subject, predicate, o)
        elif predicate is not None and obj is not None:
            for s in self._pos.get(predicate, {}).get(obj, ()):
                yield (s, predicate, obj)
        elif subject is not None and obj is not None:
            for p, objects in self._spo.get(subject, {}).items():
                if obj in objects:
                    yield (subject, p, obj)
        elif subject is not None:
            for p, objects in self._spo.get(subject, {}).items():
                for o in objects:
                    yield (subject, p, o)
        elif predicate is not None:
            for o, subjects in self._pos.get(predicate, {}).items():
                for s in subjects:
                    yield (s, predicate, o)
        elif obj is not None:
            for triple in self._triples:
                if triple[2] == obj:
                    yield triple
        else:
            yield from self._triples

    def subjects(
        self, predicate: Optional[Node] = None, obj: Optional[Node] = None
    ) -> Iterator[Node]:
        """Yield distinct subjects of triples matching (?, predicate, obj)."""
        seen: set[Node] = set()
        for s, _, _ in self.triples((None, predicate, obj)):
            if s not in seen:
                seen.add(s)
                yield s

    def objects(
        self, subject: Optional[Node] = None, predicate: Optional[Node] = None
    ) -> Iterator[Node]:
        """Yield distinct objects of triples matching (subject, predicate, ?)."""
        seen: set[Node] = set()
        for _, _, o in self.triples((subject, predicate, None)):
            if o not in seen:
                seen.add(o)
                yield o

    def predicates(
        self, subject: Optional[Node] = None, obj: Optional[Node] = None
    ) -> Iterator[Node]:
        """Yield distinct predicates of triples matching (subject, ?, obj)."""
        seen: set[Node] = set()
        for _, p, _ in self.triples((subject, None, obj)):
            if p not in seen:
                seen.add(p)
                yield p

    def value(
        self,
        subject: Optional[Node] = None,
        predicate: Optional[Node] = None,
        obj: Optional[Node] = None,
        default: Optional[Node] = None,
    ) -> Optional[Node]:
        """Return one term completing the pattern, or *default* if none.

        Exactly one of the three positions must be ``None``; that position
        is the one returned.  Mirrors ``rdflib.Graph.value``.
        """
        unbound = [subject, predicate, obj].count(None)
        if unbound != 1:
            raise ValueError("value() requires exactly one unbound position")
        for s, p, o in self.triples((subject, predicate, obj)):
            if subject is None:
                return s
            if predicate is None:
                return p
            return o
        return default

    def update(self, other: Union["Graph", Iterable[Triple]]) -> "Graph":
        """Add all triples from *other* into this graph."""
        for triple in other:
            self.add(triple)
        return self

    def __or__(self, other: "Graph") -> "Graph":
        return Graph(itertools.chain(self._triples, other._triples))

    def __sub__(self, other: "Graph") -> "Graph":
        return Graph(self._triples - other._triples)

    def __and__(self, other: "Graph") -> "Graph":
        return Graph(self._triples & other._triples)

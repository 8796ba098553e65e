"""N-Triples serialization and parsing, plus a Turtle-subset writer.

The decentralized infrastructure exchanges documents as flat RDF files
(§2: "messages are exchanged by publishing or updating documents encoded in
RDF, OWL, or similar formats").  N-Triples is the wire format because it is
line-oriented, trivially diffable and round-trip safe; the Turtle writer is
provided for human inspection only.
"""

from __future__ import annotations

import re

from .rdf import BNode, Graph, Literal, Node, Triple, URIRef

__all__ = [
    "ParseError",
    "parse_ntriples",
    "serialize_ntriples",
    "serialize_turtle",
]


class ParseError(ValueError):
    """Raised when an N-Triples document is malformed.

    Carries the 1-based line number to make crawler diagnostics useful.
    """

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def serialize_ntriples(graph: Graph) -> str:
    """Serialize *graph* to canonical (sorted) N-Triples text."""
    lines = [
        f"{s.n3()} {p.n3()} {o.n3()} ."
        for s, p, o in graph
    ]
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


# One N-Triples term: URI, blank node, or literal with optional suffix.
_TERM = re.compile(
    r"""
    \s*
    (?:
        <(?P<uri>[^>]*)>
      | _:(?P<bnode>[A-Za-z0-9_]+)
      | "(?P<lit>(?:[^"\\]|\\.)*)"
        (?:
            @(?P<lang>[A-Za-z][A-Za-z0-9-]*)
          | \^\^<(?P<dtype>[^>]*)>
        )?
    )
    """,
    re.VERBOSE,
)


def _parse_term(text: str, pos: int, line_number: int) -> tuple[Node, int]:
    match = _TERM.match(text, pos)
    if match is None:
        raise ParseError(f"expected RDF term at column {pos}", line_number)
    if match.group("uri") is not None:
        return URIRef(match.group("uri")), match.end()
    if match.group("bnode") is not None:
        return BNode(match.group("bnode")), match.end()
    lexical = Literal.unescape(match.group("lit"))
    lang = match.group("lang")
    dtype = match.group("dtype")
    if lang is not None:
        return Literal(lexical, language=lang), match.end()
    if dtype is not None:
        return Literal(lexical, datatype=URIRef(dtype)), match.end()
    return Literal(lexical), match.end()


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples *text* into a :class:`Graph`.

    Blank lines and ``#`` comment lines are skipped.  Raises
    :class:`ParseError` on the first malformed line.
    """
    graph = Graph()
    # Split on newline only: str.splitlines would also split on control
    # characters (U+001C-001E, U+0085, ...), which may legitimately occur
    # escaped inside literals but must never act as record separators.
    for line_number, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        subject, pos = _parse_term(line, 0, line_number)
        predicate, pos = _parse_term(line, pos, line_number)
        obj, pos = _parse_term(line, pos, line_number)
        tail = line[pos:].strip()
        if tail != ".":
            raise ParseError(f"expected terminating '.', got {tail!r}", line_number)
        if isinstance(subject, Literal):
            raise ParseError("literal in subject position", line_number)
        if not isinstance(predicate, URIRef):
            raise ParseError("predicate must be a URI", line_number)
        graph.add((subject, predicate, obj))
    return graph


def serialize_turtle(graph: Graph, prefixes: dict[str, str] | None = None) -> str:
    """Serialize *graph* to a readable Turtle subset.

    Groups triples by subject, abbreviates URIs against *prefixes*
    (mapping prefix label to namespace URI) and sorts everything for
    deterministic output.  The output targets human eyes; the parser only
    reads N-Triples.
    """
    prefixes = prefixes or {}

    def abbreviate(term: Node) -> str:
        if isinstance(term, URIRef):
            for label, base in prefixes.items():
                if term.startswith(base) and len(term) > len(base):
                    local = term[len(base):]
                    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.-]*", local):
                        return f"{label}:{local}"
        return term.n3()

    by_subject: dict[Node, list[Triple]] = {}
    for triple in graph:
        by_subject.setdefault(triple[0], []).append(triple)

    lines: list[str] = [
        f"@prefix {label}: <{base}> ."
        for label, base in sorted(prefixes.items())
    ]
    if lines:
        lines.append("")
    for subject in sorted(by_subject, key=lambda n: n.n3()):
        triples = sorted(by_subject[subject], key=lambda t: (t[1].n3(), t[2].n3()))
        lines.append(abbreviate(subject))
        for i, (_, predicate, obj) in enumerate(triples):
            terminator = " ." if i == len(triples) - 1 else " ;"
            lines.append(f"    {abbreviate(predicate)} {abbreviate(obj)}{terminator}")
        lines.append("")
    return "\n".join(lines)

"""Semantic Web substrate: triple store, vocabularies, serialization, FOAF."""

from .diff import GraphDelta, HomepageUpdate, graph_diff, summarize_homepage_update
from .namespace import FOAF, RDF, RDFS, REPRO, TRUST, Namespace
from .query import Variable, select, select_one
from .rdf import BNode, Graph, Literal, Node, URIRef
from .serializer import (
    ParseError,
    parse_ntriples,
    serialize_ntriples,
    serialize_turtle,
)
from .validation import Issue, validate_homepage

__all__ = [
    "BNode",
    "FOAF",
    "Graph",
    "GraphDelta",
    "HomepageUpdate",
    "Issue",
    "Literal",
    "Namespace",
    "Node",
    "ParseError",
    "RDF",
    "RDFS",
    "REPRO",
    "TRUST",
    "URIRef",
    "Variable",
    "graph_diff",
    "parse_ntriples",
    "select",
    "select_one",
    "serialize_ntriples",
    "serialize_turtle",
    "summarize_homepage_update",
    "validate_homepage",
]

"""Semantic Web substrate: triple store, vocabularies, serialization, FOAF."""

from .diff import GraphDelta, HomepageUpdate, graph_diff, summarize_homepage_update
from .namespace import FOAF, RDF, RDFS, REPRO, TRUST, Namespace
from .rdf import BNode, Graph, Literal, Node, URIRef
from .serializer import (
    ParseError,
    parse_ntriples,
    serialize_ntriples,
    serialize_turtle,
)

__all__ = [
    "BNode",
    "FOAF",
    "Graph",
    "GraphDelta",
    "HomepageUpdate",
    "Literal",
    "Namespace",
    "Node",
    "ParseError",
    "RDF",
    "RDFS",
    "REPRO",
    "TRUST",
    "URIRef",
    "graph_diff",
    "parse_ntriples",
    "serialize_ntriples",
    "serialize_turtle",
    "summarize_homepage_update",
]

"""Facet-list text format and certificate documents.

Facet lists are plain text: one facet per line as whitespace-separated
positive integers; lines whose first non-blank character is ``#`` are
comments; blank lines are ignored.  The empty face has no line form, so
the complex ``{∅}`` is not expressible in a file (it only ever arises as
an intermediate value).

Certificates are JSON documents with a top-level ``format`` version, the
``facets`` of the certified complex, the ``strategy`` that produced the
tree, and the ``tree`` itself with node kinds ``empty``, ``emptyface``,
``point``, and ``split``.  A subtree that a split holds as both children
(at a cone point) becomes one node dict under both keys; ``json.dumps``
writes it out in full under each, so the text is the plain format-1 tree.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import MAX_VERTICES, Face
from .decomposition import (
    DecompositionTree,
    Empty,
    EmptyFace,
    Point,
    Split,
    Strategy,
)
from .errors import InvalidLabel, ParseError

CERTIFICATE_FORMAT = 1


def parse_facets(text: str) -> list[Face]:
    """Parse facet-list text; raises :class:`ParseError` with a line number."""
    faces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        labels = []
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                raise ParseError(f"expected a positive integer, got {token!r}", lineno)
            labels.append(value)
        try:
            faces.append(Face(*labels))
        except InvalidLabel as exc:
            raise ParseError(str(exc), lineno)
    return faces


def format_facets(faces: Iterable[Face]) -> str:
    """One facet per line; inverse of :func:`parse_facets` for nonempty faces."""
    return "".join(" ".join(map(str, f.vertices)) + "\n" for f in faces)


def tree_to_node(tree: DecompositionTree) -> dict:
    if isinstance(tree, Empty):
        return {"kind": "empty"}
    if isinstance(tree, EmptyFace):
        return {"kind": "emptyface"}
    if isinstance(tree, Point):
        return {"kind": "point", "vertex": tree.vertex}
    link = tree_to_node(tree.link)
    shared = tree.deletion is tree.link
    return {
        "kind": "split",
        "vertex": tree.vertex,
        "link": link,
        "deletion": link if shared else tree_to_node(tree.deletion),
    }


def node_to_tree(node: object, depth: int = 0) -> DecompositionTree:
    """The tree of a certificate node; `depth` counts the splits above it.

    Each split uses up its vertex, so no valid tree nests more than
    MAX_VERTICES splits; deeper documents are refused before recursion can
    run out of stack.
    """
    if not isinstance(node, dict) or "kind" not in node:
        raise ParseError(f"certificate node must be an object with a kind: {node!r}")
    kind = node["kind"]
    if kind == "empty":
        return Empty()
    if kind == "emptyface":
        return EmptyFace()
    if kind == "point":
        return Point(vertex=_vertex_of(node))
    if kind == "split":
        if "link" not in node or "deletion" not in node:
            raise ParseError("split node needs link and deletion children")
        if depth == MAX_VERTICES:
            raise ParseError(f"certificate nests more than {MAX_VERTICES} splits")
        return Split(
            vertex=_vertex_of(node),
            link=node_to_tree(node["link"], depth + 1),
            deletion=node_to_tree(node["deletion"], depth + 1),
        )
    raise ParseError(f"unknown certificate node kind {kind!r}")


def _vertex_of(node: dict) -> int:
    v = node.get("vertex")
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ParseError(f"node vertex must be a positive integer, got {v!r}")
    return v


def certificate_document(
    facets: Iterable[Face], strategy: Strategy, tree: DecompositionTree
) -> dict:
    return {
        "format": CERTIFICATE_FORMAT,
        "facets": [list(f.vertices) for f in facets],
        "strategy": strategy.value,
        "tree": tree_to_node(tree),
    }


def parse_certificate(doc: object) -> tuple[list[Face], Strategy, DecompositionTree]:
    if not isinstance(doc, dict):
        raise ParseError("certificate must be a JSON object")
    fmt = doc.get("format")
    if isinstance(fmt, bool) or fmt != CERTIFICATE_FORMAT:
        raise ParseError(f"unsupported certificate format {fmt!r}")
    raw_facets = doc.get("facets")
    if not isinstance(raw_facets, list):
        raise ParseError("certificate facets must be a list of vertex lists")
    try:
        facets = [Face(*f) for f in raw_facets]
    except (TypeError, InvalidLabel) as exc:
        raise ParseError(f"bad facet in certificate: {exc}")
    try:
        strategy = Strategy(doc.get("strategy"))
    except ValueError:
        raise ParseError(f"unknown strategy {doc.get('strategy')!r}")
    return facets, strategy, node_to_tree(doc.get("tree"))

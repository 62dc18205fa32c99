"""Facet-list text format and certificate documents.

Facet lists are plain text: one facet per line as whitespace-separated
positive integers; lines whose first non-blank character is ``#`` are
comments; blank lines are ignored.  The empty face has no line form, so
the complex ``{∅}`` is not expressible in a file (it only ever arises as
an intermediate value).

Certificates are JSON documents with a top-level ``format`` version, the
``facets`` of the certified complex, the ``strategy`` that produced the
tree, and the ``tree`` itself with node kinds ``empty``, ``emptyface``,
``point``, and ``split``.  A subtree that the tree shares (a cone point's
link and deletion, or equal subcomplexes reached along different paths)
becomes one node dict, held wherever the tree holds it; the text writes it
out in full under each parent, so it is the plain format-1 tree, with
2^n - 1 nodes for a single n-vertex facet.  :func:`certificate_document`
counts the nodes the text writes out while it builds the distinct ones and
refuses more than ``WRITTEN_NODE_BUDGET``, before anything is written.

:func:`write_json` writes the text of ``json.dumps(doc, indent=2)`` to a
file in writes of about 64 KiB, so the document's expanded text is never
held in memory.  It renders a container by one plain call per nesting
level, as deep as ``json.dumps`` recurses (a valid certificate nests at
most 64 splits), not through the stdlib's slow generator-per-level
indenting encoder.  A container met again is rendered once more per
nesting depth, if its text fits in one write, and that text is copied
wherever it recurs, so a format-1 certificate costs its distinct nodes
plus the copying of its text.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, TextIO

from .complexes import MAX_VERTICES, Face
from .decomposition import (
    DecompositionTree,
    Empty,
    EmptyFace,
    Point,
    Split,
    Strategy,
)
from .errors import BudgetExceeded, InvalidLabel, ParseError

CERTIFICATE_FORMAT = 1
#: most nodes a format-1 tree may write out: a single 20-vertex facet's
#: 2^20 - 1 fit
WRITTEN_NODE_BUDGET = 2**20


def parse_facets(text: str) -> list[Face]:
    """Parse facet-list text; raises :class:`ParseError` with a line number."""
    faces = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            # int() alone also takes signs, underscores and non-ASCII digits
            if not (line.isascii() and all(map(str.isdigit, tokens))):
                raise ValueError
            labels = sorted(set(map(int, tokens)))
        except ValueError:  # name the first bad token; non-ASCII blanks pass
            labels = sorted(set(_labels(tokens, lineno)))
        if labels[0] < 1:  # 0, as every label is ASCII digits
            raise ParseError("vertex labels must be integers >= 1, got 0", lineno)
        faces.append(Face._unsafe(tuple(labels)))
    return faces


def _labels(tokens: list[str], lineno: int) -> Iterator[int]:
    for token in tokens:
        try:
            if not (token.isascii() and token.isdigit()):
                raise ValueError(token)
            yield int(token)
        except ValueError:
            raise ParseError(f"expected a positive integer, got {token!r}", lineno)


def format_facets(faces: Iterable[Face]) -> str:
    """One facet per line; inverse of :func:`parse_facets` for nonempty faces."""
    return "".join(" ".join(map(str, f.vertices)) + "\n" for f in faces)


def tree_to_node(tree: DecompositionTree) -> dict:
    """The format-1 node of a tree, with one dict per distinct tree node."""
    return _node(tree, {})[0]


def _node(tree: DecompositionTree, nodes: dict[int, tuple]) -> tuple[dict, int]:
    """The node of a tree and the number of nodes its text writes out."""
    if isinstance(tree, Empty):
        return {"kind": "empty"}, 1
    if isinstance(tree, EmptyFace):
        return {"kind": "emptyface"}, 1
    if isinstance(tree, Point):
        return {"kind": "point", "vertex": tree.vertex}, 1
    if id(tree) not in nodes:
        node = {"kind": "split", "vertex": tree.vertex}
        node["link"], links = _node(tree.link, nodes)
        node["deletion"], deletions = _node(tree.deletion, nodes)
        nodes[id(tree)] = node, 1 + links + deletions
    return nodes[id(tree)]


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
    """The format-1 document; raises ``BudgetExceeded`` when its text would
    write out more than ``WRITTEN_NODE_BUDGET`` nodes."""
    node, count = _node(tree, {})
    if count > WRITTEN_NODE_BUDGET:
        raise BudgetExceeded(
            f"the format-1 certificate writes out {count} nodes, over the "
            f"written-node budget of {WRITTEN_NODE_BUDGET}"
        )
    return {
        "format": CERTIFICATE_FORMAT,
        "facets": [list(f.vertices) for f in facets],
        "strategy": strategy.value,
        "tree": node,
    }


def parse_certificate(doc: object) -> tuple[list[Face], Strategy, DecompositionTree]:
    if not isinstance(doc, dict):
        raise ParseError("certificate must be a JSON object")
    fmt = doc.get("format")
    if isinstance(fmt, bool) or fmt != CERTIFICATE_FORMAT:
        raise ParseError(f"unsupported certificate format {fmt!r}")
    raw_facets = doc.get("facets")
    if not isinstance(raw_facets, list) or not all(isinstance(f, list) for f in raw_facets):
        raise ParseError("certificate facets must be a list of vertex lists")
    try:
        facets = [Face(*f) for f in raw_facets]
    except InvalidLabel as exc:
        raise ParseError(f"bad facet in certificate: {exc}")
    try:
        strategy = Strategy(doc.get("strategy"))
    except ValueError:
        raise ParseError(f"unknown strategy {doc.get('strategy')!r}")
    return facets, strategy, node_to_tree(doc.get("tree"))


#: characters gathered before each write; the text of a shared container
#: is memoized only when it fits in one write
_WRITE_CHARS = 1 << 16
_quote = json.encoder.encode_basestring_ascii


def write_json(obj: object, fp: TextIO) -> None:
    """Write exactly the text of ``json.dumps(obj, indent=2)`` to `fp`.

    Containers are dicts with string keys, lists and tuples; any other
    value is written as ``json.dumps`` writes it.  A container met again
    is rendered once more per nesting depth, if its text fits in one write,
    and that text is copied wherever the container recurs at that depth.
    """
    writer = _Writer(fp)
    writer.emit("", obj, 0)
    fp.write("".join(writer.pieces))


class _Writer:
    """The pieces of text not yet written, and what is known of containers."""

    def __init__(self, fp: TextIO):
        self.fp = fp
        self.pieces: list[str] = []
        self.size = self.flushes = 0  # characters in pieces; writes so far
        self.seen: set[int] = set()  # ids of the containers opened so far
        self.memo: dict[tuple[int, int], str] = {}  # (id, depth) -> text
        self.keys: dict[str, str] = {}  # key -> its quoted text and ": "

    def put(self, text: str) -> None:
        self.pieces.append(text)
        self.size += len(text)

    def emit(self, prefix: str, value: object, depth: int) -> None:
        """Render `prefix`, then `value` nested `depth` containers deep."""
        if isinstance(value, dict) and value:
            items, keyed, closer = value.items(), True, "}"
        elif isinstance(value, (list, tuple)) and value:
            items, keyed, closer = value, False, "]"
        else:
            return self.put(prefix + _leaf_text(value))
        self.put(prefix)
        start = None
        if id(value) not in self.seen:
            self.seen.add(id(value))
        else:  # held in several places: render it once per depth
            slot = id(value), depth
            text = self.memo.get(slot)
            if text is not None:
                return self.put(text)
            start = self.flushes, len(self.pieces), self.size
        inner = "\n" + "  " * (depth + 1)
        separator, comma = ("{" if keyed else "[") + inner, "," + inner
        for item in items:
            if keyed:
                key, item = item
                text = self.keys.get(key)
                if text is None:
                    text = self.keys[key] = _quote(key) + ": "
                separator += text
            self.emit(separator, item, depth + 1)
            separator = comma
            if self.size >= _WRITE_CHARS:
                self.fp.write("".join(self.pieces))
                self.pieces.clear()
                self.size = 0
                self.flushes += 1
        self.put(inner[:-2] + closer)
        if start and start[0] == self.flushes and self.size - start[2] <= _WRITE_CHARS:
            at = start[1]
            self.memo[slot] = text = "".join(self.pieces[at:])
            self.pieces[at:] = [text]


def _leaf_text(value: object) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is str:
        return _quote(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)  # floats, empty containers, subclasses

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
2^n - 1 nodes for a single n-vertex facet.  ``kkvd vd`` refuses to write
more than ``WRITTEN_NODE_BUDGET`` nodes, counted over the distinct ones.

:func:`write_json` writes the text of ``json.dumps(doc, indent=2)`` to a
file in writes of about 64 KiB, in one loop over a stack of open
containers, so the document's expanded text is never held in memory and
the stdlib's slow generator-per-level indenting encoder does not run.  A
container met again is rendered once more per nesting depth, if its text
fits in one write, and that text is copied wherever it recurs, so a
format-1 certificate costs its distinct nodes plus the copying of its text.
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
    return _node(tree, {})


def _node(tree: DecompositionTree, nodes: dict[int, dict]) -> dict:
    if isinstance(tree, Empty):
        return {"kind": "empty"}
    if isinstance(tree, EmptyFace):
        return {"kind": "emptyface"}
    if isinstance(tree, Point):
        return {"kind": "point", "vertex": tree.vertex}
    if id(tree) not in nodes:
        nodes[id(tree)] = {
            "kind": "split",
            "vertex": tree.vertex,
            "link": _node(tree.link, nodes),
            "deletion": _node(tree.deletion, nodes),
        }
    return nodes[id(tree)]


def _check_written_nodes(tree: DecompositionTree, budget: int) -> None:
    """Refuse a tree whose format-1 text writes out more than `budget` nodes.

    Counts once per distinct split, so a refusal costs the tree's distinct
    nodes, not its text.
    """
    counts: dict[int, int] = {}

    def written(t: DecompositionTree) -> int:
        if not isinstance(t, Split):
            return 1
        if id(t) not in counts:
            counts[id(t)] = 1 + written(t.link) + written(t.deletion)
        return counts[id(t)]

    count = written(tree)
    if count > budget:
        raise BudgetExceeded(
            f"the format-1 certificate writes out {count} nodes, over the "
            f"written-node budget of {budget}"
        )


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


#: characters gathered before each write; the text of a shared container
#: is memoized only when it fits in one write
_WRITE_CHARS = 1 << 16
_END = object()
_quote = json.encoder.encode_basestring_ascii


def write_json(obj: object, fp: TextIO) -> None:
    """Write exactly the text of ``json.dumps(obj, indent=2)`` to `fp`.

    Containers are dicts with string keys, lists and tuples; any other
    value is written as ``json.dumps`` writes it.  A container met again
    is rendered once more per nesting depth, if its text fits in one write,
    and that text is copied wherever the container recurs at that depth.
    """
    seen: set[int] = set()  # ids of the containers opened so far
    memo: dict[tuple[int, int], str] = {}  # (id, depth) -> text
    pieces: list[str] = []
    size = flushes = 0  # characters in pieces; writes so far
    # per open container: items, keyed, separator, closer, and for one met
    # again (memo slot, flushes, piece index, size) at its opening
    stack: list[tuple] = []
    keys: dict[str, str] = {}  # key -> its quoted text and ": "
    value = obj
    while True:
        if isinstance(value, dict) and value:
            items, keyed, opener = iter(value.items()), True, "{"
        elif isinstance(value, (list, tuple)) and value:
            items, keyed, opener = iter(value), False, "["
        else:
            items, text = None, _leaf_text(value)
        start = None
        if items is not None:
            if id(value) not in seen:
                seen.add(id(value))
            else:  # held in several places: render it once per depth
                slot = id(value), len(stack)
                text = memo.get(slot)
                if text is None:
                    start = slot, flushes, len(pieces), size
                else:
                    items = None
        if items is not None:
            indent = "\n" + "  " * len(stack)
            inner = indent + "  "
            closer = indent + ("}" if keyed else "]")
            stack.append((items, keyed, "," + inner, closer, start))
            pieces.append(opener + inner)
            size += len(inner) + 1
            item = next(items)
        else:
            pieces.append(text)
            size += len(text)
            # close every container this value finishes
            while stack:
                items, keyed, separator, closer, start = stack[-1]
                item = next(items, _END)
                if item is not _END:
                    pieces.append(separator)
                    size += len(separator)
                    break
                stack.pop()
                pieces.append(closer)
                size += len(closer)
                if start and start[1] == flushes and size - start[3] <= _WRITE_CHARS:
                    slot, _, at, _ = start
                    memo[slot] = text = "".join(pieces[at:])
                    pieces[at:] = [text]
            else:
                break
        if keyed:
            key, value = item
            text = keys.get(key)
            if text is None:
                text = keys[key] = _quote(key) + ": "
            pieces.append(text)
            size += len(text)
        else:
            value = item
        if size >= _WRITE_CHARS:
            fp.write("".join(pieces))
            pieces.clear()
            size = 0
            flushes += 1
    fp.write("".join(pieces))


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

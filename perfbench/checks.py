"""Answer checks that share no code path with kkvd beyond its face enumeration.

Certificates are replayed on sets of frozensets, extremality is decided by
comparing a brute-force shadow with the shadow of a brute-force squashed
prefix, and homology comes from ``tests/oracles.py`` (Fraction and set-xor
ranks).  Every check returns ``None`` when the answer holds and a short
reason otherwise.
"""

from __future__ import annotations

import functools
import math

import kkvd
from oracles import brute_faces, brute_shadow, brute_squashed


def facet_sets(facets) -> frozenset:
    """Inclusion-maximal faces of the complex the given faces generate."""
    faces = {frozenset(f) for f in facets}
    return frozenset(f for f in faces if not any(f < g for g in faces))


@functools.lru_cache(maxsize=None)
def squashed_prefix(k: int, n: int) -> tuple:
    """The first n k-sets in squashed order, by sorting all k-sets of 1..L."""
    top = k
    while math.comb(top, k) < n:
        top += 1
    return tuple(brute_squashed(k, top)[:n])


@functools.lru_cache(maxsize=None)
def min_shadow(k: int, n: int) -> int:
    """Shadow size of the first n k-sets, the Kruskal-Katona minimum."""
    return len(brute_shadow(set(squashed_prefix(k, n))))


def is_extremal(facets) -> bool:
    """Whether a pure facet family's shadow meets the minimum for its size."""
    fs = facet_sets(facets)
    k = len(next(iter(fs)))
    if k <= 1:
        return True
    return len(brute_shadow({tuple(sorted(f)) for f in fs})) == min_shadow(k, len(fs))


def f_vector(facets) -> list[int]:
    """(f_0, ..., f_d) by enumerating every subset of every facet."""
    faces = brute_faces(tuple(sorted(f)) for f in facets)
    top = max(len(f) for f in faces)
    return [sum(1 for f in faces if len(f) == i) for i in range(1, top + 1)]


def tree_node(tree) -> dict:
    """A certificate tree as the node dictionaries of the JSON format."""
    if isinstance(tree, kkvd.Split):
        return {
            "kind": "split",
            "vertex": tree.vertex,
            "link": tree_node(tree.link),
            "deletion": tree_node(tree.deletion),
        }
    if isinstance(tree, kkvd.Point):
        return {"kind": "point", "vertex": tree.vertex}
    if isinstance(tree, kkvd.EmptyFace):
        return {"kind": "emptyface"}
    if isinstance(tree, kkvd.Empty):
        return {"kind": "empty"}
    return {"kind": repr(tree)}


def replay(facets, node) -> str | None:
    """Replay a vertex-decomposition tree on facet sets.

    Every derived complex must be pure, every split vertex must be a vertex
    of its complex, and every leaf must describe its complex exactly.
    """
    return _replay(facet_sets(facets), node, "root")


def _replay(fs: frozenset, node, where: str) -> str | None:
    if len({len(f) for f in fs}) > 1:
        return f"{where}: complex is not pure"
    if not isinstance(node, dict):
        return f"{where}: node is not an object"
    kind = node.get("kind")
    if kind == "empty":
        return None if not fs else f"{where}: claimed empty"
    if kind == "emptyface":
        return None if fs == {frozenset()} else f"{where}: claimed {{∅}}"
    if kind == "point":
        ok = fs == {frozenset([node.get("vertex")])}
        return None if ok else f"{where}: claimed a single vertex"
    if kind != "split":
        return f"{where}: unknown node kind {kind!r}"
    v = node.get("vertex")
    star = [f for f in fs if v in f]
    if not star:
        return f"{where}: split vertex {v!r} is not a vertex"
    rest = [f for f in fs if v not in f]
    # in a pure complex F - v is dominated exactly when it lies in the
    # shadow of the facets avoiding v
    rest_shadow = {f - {u} for f in rest for u in f}
    link = frozenset(f - {v} for f in star)
    deletion = frozenset(rest) | frozenset(
        f - {v} for f in star if f - {v} not in rest_shadow
    )
    return _replay(link, node.get("link"), f"{where}/link {v}") or _replay(
        deletion, node.get("deletion"), f"{where}/del {v}"
    )


def is_vertex_decomposable(facets) -> bool:
    """Vertex decomposability by trying every shedding vertex, for small pure complexes.

    A simplex (one facet, {∅} included) is vertex decomposable; otherwise
    some vertex v must have a vertex decomposable link, and a deletion that
    keeps the complex's dimension (every facet minus v lies in a facet
    avoiding v) and is vertex decomposable.
    """
    return _vd(facet_sets(facets))


@functools.lru_cache(maxsize=None)
def _vd(fs: frozenset) -> bool:
    if len({len(f) for f in fs}) > 1:
        return False
    if len(fs) <= 1:
        return True
    for v in set().union(*fs):
        star = [f for f in fs if v in f]
        rest = frozenset(f for f in fs if v not in f)
        if not rest or any(not any(f - {v} < g for g in rest) for f in star):
            continue
        if _vd(frozenset(f - {v} for f in star)) and _vd(rest):
            return True
    return False


def certificate(facets, doc) -> str | None:
    """Check a certificate document against the complex it claims to certify."""
    if not isinstance(doc, dict):
        return "certificate is not an object"
    claimed = facet_sets(doc.get("facets") or ())
    if claimed != facet_sets(facets):
        return "certificate names other facets"
    return replay(claimed, doc.get("tree"))


def skeleton_betti(m: int, k: int) -> list[int]:
    """Reduced Betti numbers b_{-1}..b_{k-1} of all k-sets on m vertices."""
    return [0] * k + [math.comb(m - 1, k)]

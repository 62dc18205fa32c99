"""Vertex-decomposition certificates, their validation, and brute shellings.

A pure complex is vertex decomposable when it is empty, a single vertex,
or some vertex has a pure decomposable link and a pure decomposable
deletion.  The complex ``{∅}`` is treated as decomposable: it appears as
the link of any facet and the recursion has to bottom out there.

Two certification strategies:

* ``EXTREMAL`` exploits the Kruskal-Katona structure of complexes that
  attain the shadow bound.  If the facet family is all k-subsets of the
  vertex set, any vertex sheds; otherwise a witness vertex found by the
  counting dichotomy is guaranteed to keep both the link and the deletion
  extremal, so the recursion never backtracks.  A cone point (a vertex
  in every facet) has its link equal to its deletion, so its split holds
  one subtree as both children: a single n-vertex facet certifies with n
  distinct nodes, not 2^n - 1.  Certificate format 1 writes a shared
  subtree out in full under each parent, so its documents still have
  2^n - 1 nodes.
* ``EXHAUSTIVE`` tries every vertex, memoizing on the order-preserving
  canonical form of each subcomplex.

Verdicts are deterministic: vertex scans ascend, and a failure reports the
first failing path in smallest-vertex order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from .complexes import Face, SimplicialComplex, _bits, _compact, _union
from .complexes import _deletion_masks, _intersection, _link_masks, _maximal
from .errors import LimitExceeded, NotExtremal, NotPure
from .kruskal_katona import _attains_bound, _witness_scan, is_extremal


class Strategy(enum.Enum):
    AUTO = "auto"
    EXTREMAL = "extremal"
    EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class Empty:
    """Leaf: the empty complex."""


@dataclass(frozen=True)
class EmptyFace:
    """Leaf: the complex {∅}."""


@dataclass(frozen=True)
class Point:
    """Leaf: a single vertex."""

    vertex: int


@dataclass(frozen=True)
class Split:
    """Shed `vertex`; children certify its link and its deletion."""

    vertex: int
    link: "DecompositionTree"
    deletion: "DecompositionTree"


DecompositionTree = Union[Empty, EmptyFace, Point, Split]


def tree_depth(tree: DecompositionTree) -> int:
    if not isinstance(tree, Split):
        return 0
    if tree.deletion is tree.link:
        return 1 + tree_depth(tree.link)
    return 1 + max(tree_depth(tree.link), tree_depth(tree.deletion))


@dataclass(frozen=True)
class ObstructionStep:
    vertex: int
    reason: str

    def __str__(self) -> str:
        return f"vertex {self.vertex}: {self.reason}"


@dataclass(frozen=True)
class VDReport:
    decomposable: bool
    strategy_used: Strategy
    tree: DecompositionTree | None = None
    obstruction: tuple[ObstructionStep, ...] = ()


def _base_tree(labels, masks) -> DecompositionTree | None:
    if not masks:
        return Empty()
    if len(masks) == 1:
        if masks[0] == 0:
            return EmptyFace()
        if masks[0].bit_count() == 1:
            return Point(labels[masks[0].bit_length() - 1])
    return None


def _is_pure(masks) -> bool:
    return len({m.bit_count() for m in masks}) <= 1


def certify_vd(
    c: SimplicialComplex, strategy: Strategy | str = Strategy.AUTO
) -> VDReport:
    """Decide vertex decomposability and return a certificate or obstruction.

    ``EXTREMAL`` demands an extremal input and always succeeds on one;
    ``AUTO`` picks it when the input is extremal and falls back to the
    exhaustive search otherwise.
    """
    strategy = Strategy(strategy)
    if not c.is_pure:
        raise NotPure(f"{c!r} is not pure")
    labels, masks = c.vertex_set, c._facet_masks
    trivially_decomposable = _base_tree(labels, masks) is not None
    if strategy in (Strategy.AUTO, Strategy.EXTREMAL):
        extremal = trivially_decomposable or is_extremal(c)
        if strategy is Strategy.EXTREMAL and not extremal:
            raise NotExtremal(f"{c!r} does not attain the shadow bound")
        if extremal:
            return VDReport(
                decomposable=True,
                strategy_used=Strategy.EXTREMAL,
                tree=_certify_extremal(labels, masks),
            )
    tree, path = _certify_exhaustive(labels, masks, {})
    if tree is not None:
        return VDReport(
            decomposable=True, strategy_used=Strategy.EXHAUSTIVE, tree=tree
        )
    return VDReport(
        decomposable=False, strategy_used=Strategy.EXHAUSTIVE, obstruction=path
    )


def _certify_extremal(labels, masks) -> DecompositionTree:
    """Witness-guided recursion; masks are never compacted, so labels stay fixed."""
    base = _base_tree(labels, masks)
    if base is not None:
        return base
    if not (_is_pure(masks) and _attains_bound(masks)):
        # unreachable from certify_vd; guards direct internal misuse
        raise NotExtremal("a subcomplex does not attain the shadow bound")
    hit = _witness_scan(masks)
    # no witness means the facets are all k-subsets of the vertex set and
    # any vertex sheds; take the smallest either way
    x = next(_bits(_union(masks))) if hit is None else hit[0]
    bit = 1 << x
    link = _certify_extremal(labels, _link_masks(masks, bit))
    if _intersection(masks) & bit:
        # a cone point: its deletion is its link, so one subtree serves both
        return Split(vertex=labels[x], link=link, deletion=link)
    deletion = _certify_extremal(labels, _deletion_masks(masks, bit))
    return Split(vertex=labels[x], link=link, deletion=deletion)


def _certify_exhaustive(labels, masks, memo):
    """Returns (tree, ()) on success or (None, obstruction path) on failure."""
    base = _base_tree(labels, masks)
    if base is not None:
        return base, ()
    kept, key = _compact(masks)
    if key not in memo:
        memo[key] = _search_shedding_vertex(key, memo)
    tree, path = memo[key]
    back = [labels[b] for b in kept]
    if tree is not None:
        return _relabel_tree(tree, back), ()
    return None, tuple(
        ObstructionStep(vertex=back[s.vertex], reason=s.reason) for s in path
    )


def _search_shedding_vertex(masks, memo):
    """Search compacted masks; the answer names vertices by bit position."""
    positions = range(_union(masks).bit_length())
    first_failure = None
    for x in positions:
        # the link of a vertex in a pure complex is pure
        deletion = _deletion_masks(masks, 1 << x)
        if not _is_pure(deletion):
            failure = (ObstructionStep(x, "deletion is not pure"),)
        else:
            link = _link_masks(masks, 1 << x)
            link_tree, link_path = _certify_exhaustive(positions, link, memo)
            if link_tree is None:
                failure = (ObstructionStep(x, "link is not decomposable"),) + link_path
            else:
                del_tree, del_path = _certify_exhaustive(positions, deletion, memo)
                if del_tree is not None:
                    return Split(x, link_tree, del_tree), ()
                failure = (
                    ObstructionStep(x, "deletion is not decomposable"),
                ) + del_path
        if first_failure is None:
            first_failure = failure
    return None, first_failure


def _relabel_tree(tree, back):
    if isinstance(tree, Split):
        return Split(
            vertex=back[tree.vertex],
            link=_relabel_tree(tree.link, back),
            deletion=_relabel_tree(tree.deletion, back),
        )
    if isinstance(tree, Point):
        return Point(back[tree.vertex])
    return tree


def diagnose_certificate(
    c: SimplicialComplex, tree: DecompositionTree
) -> str | None:
    """None when the tree faithfully decomposes the complex, else the reason."""
    if not c.is_pure:
        return f"{c!r} is not pure"
    if isinstance(tree, Empty):
        return None if c.is_empty else f"claimed empty, but complex is {c!r}"
    if isinstance(tree, EmptyFace):
        if c.facets == (Face(),):
            return None
        return f"claimed {{∅}}, but complex is {c!r}"
    if isinstance(tree, Point):
        if c.facets == (Face(tree.vertex),):
            return None
        return f"claimed single vertex {tree.vertex}, but complex is {c!r}"
    if isinstance(tree, Split):
        if tree.vertex not in c.vertex_set:
            return f"split vertex {tree.vertex} is not a vertex of {c!r}"
        sub = diagnose_certificate(c.link(Face(tree.vertex)), tree.link)
        if sub is not None:
            return f"link of {tree.vertex}: {sub}"
        sub = diagnose_certificate(c.delete_vertex(tree.vertex), tree.deletion)
        if sub is not None:
            return f"deletion of {tree.vertex}: {sub}"
        return None
    return f"unknown tree node {tree!r}"


def validate_certificate(c: SimplicialComplex, tree: DecompositionTree) -> bool:
    """Replay the decomposition against the complex."""
    return diagnose_certificate(c, tree) is None


def find_shelling(
    c: SimplicialComplex, facet_limit: int = 8
) -> tuple[Face, ...] | None:
    """Backtracking search for a shelling order of a pure complex.

    Each facet after the first must meet the union of its predecessors in
    a pure complex of one dimension lower.  Returns None when no order
    works.  Intended as a desk-scale cross-check, hence the facet limit.
    """
    if not c.is_pure:
        raise NotPure(f"{c!r} is not pure")
    facets = c.facets
    m = len(facets)
    if m > facet_limit:
        raise LimitExceeded(f"{m} facets exceed the limit of {facet_limit}")
    if m <= 1:
        return facets
    d = len(facets[0]) - 1
    masks = c._facet_masks

    def admissible(j: int, placed: list[int]) -> bool:
        inters = _maximal(masks[j] & masks[l] for l in placed)
        return all(s.bit_count() == d for s in inters)

    order: list[int] = []
    used = [False] * m

    def backtrack() -> bool:
        if len(order) == m:
            return True
        for j in range(m):
            if used[j]:
                continue
            if order and not admissible(j, order):
                continue
            used[j] = True
            order.append(j)
            if backtrack():
                return True
            order.pop()
            used[j] = False
        return False

    if backtrack():
        return tuple(facets[j] for j in order)
    return None

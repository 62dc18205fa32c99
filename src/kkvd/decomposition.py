"""Vertex-decomposition certificates, their validation, and brute shellings.

A pure complex is vertex decomposable when it is empty, a single vertex,
or some vertex has a pure decomposable link and a pure decomposable
deletion.  The complex ``{∅}`` is treated as decomposable: it appears as
the link of any facet and the recursion has to bottom out there.

Two certification strategies:

* ``EXTREMAL`` exploits the Kruskal-Katona structure of complexes that
  attain the shadow bound.  A *complete* family, all k-subsets of its
  support (``len(masks) == C(|support|, k)``), is extremal and any vertex
  sheds, so the smallest does, with no shadow and no witness scan;
  otherwise a witness vertex found by the counting dichotomy is
  guaranteed to keep both the link and the deletion extremal, so the
  recursion never backtracks.  One call memoizes the recursion on the
  sorted facet masks, which are never compacted, so a subcomplex reached
  twice is certified once and both parents hold the same subtree object.
  The guard that a node attains the shadow bound runs once per distinct
  non-complete node.  A cone point (a vertex in every facet) has its link
  equal to its deletion, so a single n-vertex facet certifies with n
  distinct nodes, not 2^n - 1, and a complete family sheds into suffix
  families: C(m, k) needs O(m·k) distinct nodes.  Certificate format 1
  writes a shared subtree out in full under each parent, so its documents
  still have 2^n - 1 nodes for an n-vertex facet.
* ``EXHAUSTIVE`` tries every vertex and memoizes the same way, so its
  trees share subtrees too: a single n-vertex facet takes n distinct
  nodes under either strategy.  A failure is also memoized on the
  order-preserving compacted form of its subcomplex, because a failed
  search tries every vertex: two disjoint cliques on the labels 1..a and
  a+1..a+b reach about 2^(a+b) distinct failing subcomplexes but only
  a·b compacted ones.

Verdicts are deterministic: vertex scans ascend, and a failure reports the
first failing path in smallest-vertex order.

Trees compare and hash by structure.  ``Split`` caches its hash and
compares shared children by identity first, and validation replays each
(node, subcomplex) pair once, so each costs O(distinct nodes), not the
size of the tree written out in full.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Union

from .complexes import Face, SimplicialComplex, _bits, _compact, _union
from .complexes import _deletion_masks, _is_pure, _link_masks, _maximal
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


@dataclass(frozen=True, eq=False)
class Split:
    """Shed `vertex`; children certify its link and its deletion.

    Equality and hashing are structural, as for the other nodes, but cost
    O(distinct nodes) on a tree that shares subtrees.
    """

    vertex: int
    link: "DecompositionTree"
    deletion: "DecompositionTree"

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.vertex, self.link, self.deletion))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same_tree(self, other, set())


DecompositionTree = Union[Empty, EmptyFace, Point, Split]


def _same_tree(a, b, equal_pairs: set[tuple[int, int]]) -> bool:
    """Structural equality; `equal_pairs` holds the id pairs of splits found equal."""
    if a is b:
        return True
    if not (isinstance(a, Split) and isinstance(b, Split)):
        return a == b
    if (id(a), id(b)) in equal_pairs:
        return True
    if a.vertex != b.vertex:
        return False
    if not (
        _same_tree(a.link, b.link, equal_pairs)
        and _same_tree(a.deletion, b.deletion, equal_pairs)
    ):
        return False
    equal_pairs.add((id(a), id(b)))
    return True


def tree_depth(tree: DecompositionTree) -> int:
    """Splits on the longest root-to-leaf path; a shared subtree is measured once."""
    depths: dict[int, int] = {}

    def depth(t) -> int:
        if not isinstance(t, Split):
            return 0
        if id(t) not in depths:
            depths[id(t)] = 1 + max(depth(t.link), depth(t.deletion))
        return depths[id(t)]

    return depth(tree)


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
                tree=_certify_extremal(labels, masks, {}),
            )
    tree, path = _certify_exhaustive(labels, masks, {}, {})
    if tree is not None:
        return VDReport(
            decomposable=True, strategy_used=Strategy.EXHAUSTIVE, tree=tree
        )
    return VDReport(
        decomposable=False, strategy_used=Strategy.EXHAUSTIVE, obstruction=path
    )


def _certify_extremal(labels, masks, memo) -> DecompositionTree:
    """Witness-guided recursion; masks are never compacted, so labels stay fixed.

    `memo` maps each sorted mask tuple certified so far to its subtree, so
    equal subcomplexes (a cone point's link and deletion among them) share
    one subtree object.
    """
    key = tuple(sorted(masks))
    if key not in memo:
        memo[key] = _shed_extremal(labels, key, memo)
    return memo[key]


def _shed_extremal(labels, masks, memo) -> DecompositionTree:
    base = _base_tree(labels, masks)
    if base is not None:
        return base
    support, k = _union(masks), masks[0].bit_count()
    pure = _is_pure(masks)
    complete = pure and len(masks) == math.comb(support.bit_count(), k)
    if not (complete or pure and _attains_bound(masks)):
        # unreachable from certify_vd; guards direct internal misuse
        raise NotExtremal("a subcomplex does not attain the shadow bound")
    hit = None if complete else _witness_scan(masks)
    # no witness means the facets are all k-subsets of the support and any
    # vertex sheds; take the smallest either way
    x = (support & -support).bit_length() - 1 if hit is None else hit[0]
    bit = 1 << x
    return Split(
        vertex=labels[x],
        link=_certify_extremal(labels, _link_masks(masks, bit), memo),
        deletion=_certify_extremal(labels, _deletion_masks(masks, bit), memo),
    )


def _certify_exhaustive(labels, masks, memo, failures):
    """Returns (tree, ()) on success or (None, obstruction path) on failure.

    Labels stay fixed: `memo` maps each sorted mask tuple searched so far
    to its answer, so equal subcomplexes share one subtree object.  A
    failed search tries every vertex, so `failures` also keeps each failure
    under the order-preserving compacted form, its path naming positions
    there, for any order-isomorphic subcomplex to take over.
    """
    key = tuple(sorted(masks))
    if key not in memo:
        kept, shape = _compact(key)
        if shape in failures:
            memo[key] = None, tuple(
                ObstructionStep(labels[kept[p]], why) for p, why in failures[shape]
            )
        else:
            memo[key] = tree, path = _search_shedding_vertex(
                labels, key, memo, failures
            )
            if tree is None:
                position = {labels[b]: p for p, b in enumerate(kept)}
                failures[shape] = tuple((position[s.vertex], s.reason) for s in path)
    return memo[key]


def _search_shedding_vertex(labels, masks, memo, failures):
    base = _base_tree(labels, masks)
    if base is not None:
        return base, ()
    first_failure = None
    for x in _bits(_union(masks)):
        # the link of a vertex in a pure complex is pure
        bit, v = 1 << x, labels[x]
        deletion = _deletion_masks(masks, bit)
        if not _is_pure(deletion):
            failure = (ObstructionStep(v, "deletion is not pure"),)
        else:
            link = _link_masks(masks, bit)
            link_tree, link_path = _certify_exhaustive(labels, link, memo, failures)
            if link_tree is None:
                failure = (ObstructionStep(v, "link is not decomposable"),) + link_path
            else:
                del_tree, del_path = _certify_exhaustive(
                    labels, deletion, memo, failures
                )
                if del_tree is not None:
                    return Split(v, link_tree, del_tree), ()
                failure = (
                    ObstructionStep(v, "deletion is not decomposable"),
                ) + del_path
        if first_failure is None:
            first_failure = failure
    return None, first_failure


def diagnose_certificate(
    c: SimplicialComplex, tree: DecompositionTree
) -> str | None:
    """None when the tree faithfully decomposes the complex, else the reason.

    Each (node, subcomplex) pair is judged once per call: a node object
    reused under different subcomplexes is judged against each of them.
    """
    return _diagnose(c, tree, {})


def _diagnose(c, tree, verdicts) -> str | None:
    key = (id(tree), c)
    if key not in verdicts:
        verdicts[key] = _diagnose_node(c, tree, verdicts)
    return verdicts[key]


def _diagnose_node(c, tree, verdicts) -> str | None:
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
        sub = _diagnose(c.link(Face(tree.vertex)), tree.link, verdicts)
        if sub is not None:
            return f"link of {tree.vertex}: {sub}"
        sub = _diagnose(c.delete_vertex(tree.vertex), tree.deletion, verdicts)
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

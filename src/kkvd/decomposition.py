"""Vertex-decomposition certificates, their validation, and shellings.

A pure complex is vertex decomposable when it is empty, a single vertex,
or some vertex has a pure decomposable link and a pure decomposable
deletion.  The complex ``{∅}`` is treated as decomposable: it appears as
the link of any facet and the recursion has to bottom out there.

One memoized shedding search serves both certification strategies; they
differ only in which vertices a node tries.

* ``EXHAUSTIVE`` tries every vertex in ascending order.
* ``EXTREMAL`` exploits the Kruskal-Katona structure of complexes that
  attain the shadow bound and tries one vertex.  By the paper's lemma the
  link and the deletion of a witness vertex (found by the counting
  dichotomy), or of any vertex of a *complete* family (all k-subsets of
  its support, which has no witness), are extremal again, so the search
  sheds the witness or the smallest vertex, never fails and never
  backtracks.  Only the root is tested for extremality.  Answers stay
  exact without a per-node test: links and deletions are exact masks, a
  deletion's purity is checked before the search enters it, and
  ``certify_vd`` raises ``NotExtremal`` if the one-candidate search
  fails; a wrong shedding vertex could give only a valid certificate or
  that error.

One call memoizes the search on the sorted facet masks, which are never
compacted, so a subcomplex reached twice is searched once and both parents
hold the same subtree object.  A cone point (a vertex in every facet) has
its link equal to its deletion, so a single n-vertex facet certifies with
n distinct nodes, not 2^n - 1, and a complete family sheds into suffix
families: C(m, k) needs O(m·k) distinct nodes.

A failing node would try every vertex; two facts of Provan and Billera
(1980) end its scan early.  Every vertex link of a decomposable complex is
decomposable, so a failed link ends it.  A decomposable complex is
shellable, so its facets connect through shared ridges; after one failed
vertex, a node whose facets do not is done.  The search stays exponential
on some inputs, so one call may search at most 4096 distinct subcomplexes
(``_NODE_BUDGET``) and raises ``BudgetExceeded`` past them.

Verdicts are deterministic: vertex scans ascend, and a failure reports the
first failing path in smallest-vertex order.

Trees compare and hash by structure.  ``Split`` caches its hash and
compares shared children by identity first, and validation replays each
(node, subcomplex) pair once, so each costs O(distinct nodes), not the
size of the tree written out in full.  Validation takes a cone point's
link as its deletion, which it equals, and deletes no vertex there.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Union

from .complexes import Face, SimplicialComplex, _bits, _face_of, _union
from .complexes import _deletion_masks, _is_pure, _link_masks, _named, _ridges
from .errors import BudgetExceeded, InvalidInput, LimitExceeded, NotExtremal, NotPure
from .kruskal_katona import _witness_scan, is_extremal

# distinct subcomplexes one certify_vd call may search
_NODE_BUDGET = 4096


class Strategy(enum.Enum):
    AUTO = "auto"
    EXTREMAL = "extremal"
    EXHAUSTIVE = "exhaustive"

    @classmethod
    def _missing_(cls, value):
        raise InvalidInput(f"unknown strategy {_named(value)}")


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
    exhaustive search otherwise.  Raises ``BudgetExceeded`` when the search
    reaches more than 4096 distinct subcomplexes.
    """
    strategy = Strategy(strategy)
    if not c.is_pure:
        raise NotPure(f"{_named(c)} is not pure")
    labels, masks = c.vertex_set, c._facet_masks
    extremal = strategy is not Strategy.EXHAUSTIVE and (c.is_empty or is_extremal(c))
    if strategy is Strategy.EXTREMAL and not extremal:
        raise NotExtremal(f"{_named(c)} does not attain the shadow bound")
    tree, path = _certify(labels, masks, extremal, {})
    if extremal and tree is None:
        # unreachable: the paper's lemma keeps every link and deletion extremal
        raise NotExtremal("a subcomplex does not attain the shadow bound")
    return VDReport(
        decomposable=tree is not None,
        strategy_used=Strategy.EXTREMAL if extremal else Strategy.EXHAUSTIVE,
        tree=tree,
        obstruction=path,
    )


def _certify(labels, masks, extremal, memo):
    """Returns (tree, ()) on success or (None, obstruction path) on failure.

    Labels stay fixed: `memo` maps each sorted mask tuple searched so far
    to its answer, so equal subcomplexes share one subtree object.
    """
    key = tuple(sorted(masks))
    if key in memo:
        return memo[key]
    if len(memo) >= _NODE_BUDGET:
        raise BudgetExceeded(
            f"more than {_NODE_BUDGET} distinct subcomplexes reached, "
            f"over the node budget of {_NODE_BUDGET}"
        )
    memo[key] = _shed(labels, key, extremal, memo)
    return memo[key]


def _shed(labels, masks, extremal, memo):
    """Try the candidate vertices in turn; the first failure is the one reported."""
    base = _base_tree(labels, masks)
    if base is not None:
        return base, ()
    # covered: what the witness scan measured, then the shared ridges
    first_failure = covered = None
    if extremal:
        hit, covered = _witness_scan(masks)
        # no witness: a complete family, where any vertex sheds
        candidates = (next(_bits(_union(masks))) if hit is None else hit[0],)
    else:
        candidates = _bits(_union(masks))
    for x in candidates:
        # the link of a vertex in a pure complex is pure
        bit, v = 1 << x, labels[x]
        deletion = _deletion_masks(masks, bit, covered)
        if not _is_pure(deletion):
            failure = (ObstructionStep(v, "deletion is not pure"),)
        else:
            link = _link_masks(masks, bit)
            link_tree, link_path = _certify(labels, link, extremal, memo)
            if link_tree is None:
                # every vertex link of a decomposable complex is decomposable
                step = ObstructionStep(v, "link is not decomposable")
                return None, first_failure or (step,) + link_path
            del_tree, del_path = _certify(labels, deletion, extremal, memo)
            if del_tree is not None:
                return Split(v, link_tree, del_tree), ()
            failure = (ObstructionStep(v, "deletion is not decomposable"),) + del_path
        if first_failure is None:
            first_failure = failure
            connected, _, covered = _ridges(masks)
            if not connected:
                # a decomposable complex is shellable, so connected by ridges
                break
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
    verdict = verdicts.get(key := (id(tree), c), verdicts)  # None is a verdict
    if verdict is verdicts:
        verdict = verdicts[key] = _diagnose_node(c, tree, verdicts)
    return verdict


def _diagnose_node(c, tree, verdicts) -> str | None:
    if not c.is_pure:
        return f"{_named(c)} is not pure"
    if isinstance(tree, (Point, Split)):
        v = tree.vertex  # Point(True) would equal Point(1)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            return f"node vertex must be a positive integer, got {_named(v)}"
    if isinstance(tree, (Empty, EmptyFace, Point)):
        if tree == _base_tree(c.vertex_set, c._facet_masks):
            return None
        if isinstance(tree, Point):
            return f"claimed single vertex {_named(tree.vertex)}, but complex is {_named(c)}"
        claim = "empty" if isinstance(tree, Empty) else "{∅}"
        return f"claimed {claim}, but complex is {_named(c)}"
    if isinstance(tree, Split):
        if tree.vertex not in c.vertex_set:
            return f"split vertex {_named(tree.vertex)} is not a vertex of {_named(c)}"
        link = c.link(Face._unsafe((tree.vertex,)))
        sub = _diagnose(link, tree.link, verdicts)
        if sub is not None:
            return f"link of {_named(tree.vertex)}: {sub}"
        deletion = link  # of a cone point, which lies in all facets of pure c
        if link.facet_count < c.facet_count:
            deletion = c.delete_vertex(tree.vertex)
        sub = _diagnose(deletion, tree.deletion, verdicts)
        if sub is not None:
            return f"deletion of {_named(tree.vertex)}: {sub}"
        return None
    return f"unknown tree node {_named(tree)}"


def validate_certificate(c: SimplicialComplex, tree: DecompositionTree) -> bool:
    """Replay the decomposition against the complex."""
    return diagnose_certificate(c, tree) is None


def find_shelling(
    c: SimplicialComplex, facet_limit: int = 8
) -> tuple[Face, ...] | None:
    """Search for a shelling order of a pure complex.

    Each facet F after the first must meet its predecessors in ridges F - v
    (Björner and Wachs 1996): every placed F_i misses some v with
    F - F_l = {v}, F_l placed.  That rule, and whether an order can be
    finished, depend only on the placed set, so a depth-first search in
    ascending order, on its own stack, records each dead placed set once
    and visits at most 2^m sets.  Returns the lexicographically first valid
    order of ``c.facets``, or None.  The facet limit keeps it desk-scale.
    """
    if not c.is_pure:
        raise NotPure(f"{_named(c)} is not pure")
    masks = c._facet_masks
    m = len(masks)
    if m > facet_limit:
        raise LimitExceeded(f"{m} facets exceed the limit of {_named(facet_limit)}")
    order: list[int] = []
    placed = j = 0
    dead: set[int] = set()
    while len(order) < m:
        if j == m:  # no facet extends this placed set: undo the last one
            if not order:
                return None
            dead.add(placed)
            j = order.pop()
            placed ^= 1 << j
        elif not placed >> j & 1 and placed | 1 << j not in dead:
            diffs = [masks[j] & ~masks[i] for i in order]
            ridge = _union(d for d in diffs if d.bit_count() == 1)
            if all(ridge & d for d in diffs):
                order.append(j)
                placed |= 1 << j
                j = -1  # seek the next facet from index 0
        j += 1
    return tuple(_face_of(masks[j], c._labels) for j in order)

"""Squashed order, shadows, and the Kruskal-Katona lower bound.

The squashed (colex) order lists equal-size sets A < B whenever
max(A \\ B) < max(B \\ A).  The shadow of a family of k-sets is the set of
all (k-1)-subsets of its members.  Kruskal-Katona says the first n k-sets
in squashed order minimize the shadow among all n-member families, and the
minimum delta_{k-1}(n) has a closed form through the binomial cascade of n.

All counting goes through checked 64-bit arithmetic: a binomial or a sum
that leaves the signed 64-bit range raises :class:`Overflow` instead of
silently producing numbers the rest of the pipeline was never sized for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

from .complexes import Face, FaceFamily, SimplicialComplex, squashed_key
from .complexes import _bits, _face_of, _masks_of, _named, _ridges, _shadow_masks, _union
from .errors import EmptyComplex, InvalidInput, NotPure, Overflow, SizeMismatch

_I64_MAX = 2**63 - 1


def _checked(value: int, what: str, *values: object) -> int:
    """`value`, or ``Overflow`` naming it as `what` filled in with `values`."""
    if value > _I64_MAX:
        what = what.format(*map(_named, values))
        raise Overflow(f"{what} {_named(value)} exceeds the checked 64-bit range")
    return value


def comb64(n: int, k: int) -> int:
    """Binomial coefficient, checked against the 64-bit range."""
    if n < 0 or k < 0:
        raise InvalidInput(f"C({_named(n)},{_named(k)}) needs n >= 0 and k >= 0")
    return _checked(math.comb(n, k), "C({},{})", n, k)


def squashed_cmp(a: Face, b: Face) -> int:
    """-1, 0, or 1 as `a` precedes, equals, or follows `b` in squashed order."""
    if len(a) != len(b):
        raise SizeMismatch(f"cannot compare a {len(a)}-set with a {len(b)}-set")
    ka, kb = squashed_key(a.vertices), squashed_key(b.vertices)
    return (ka > kb) - (ka < kb)


def colex_rank(face: Face) -> int:
    """Position of the face in the squashed order of all same-size sets.

    rank({a_1 < ... < a_k}) = sum_j C(a_j - 1, j); the empty face has rank 0.
    """
    total = 0
    for j, a in enumerate(face.vertices, start=1):
        total = _checked(total + comb64(a - 1, j), "rank")
    return total


def colex_unrank(rank: int, k: int) -> Face:
    """The k-set at the given squashed-order position (inverse of colex_rank)."""
    if k < 1:
        raise InvalidInput(f"set size must be >= 1, got {_named(k)}")
    if rank < 0:
        raise InvalidInput(f"rank must be >= 0, got {_named(rank)}")
    _checked(rank, "rank")
    _checked(k, "set size")
    top = [a + 1 for a, _ in _greedy(rank, k)]
    return Face(*top, *range(1, k - len(top) + 1))  # past the last step a_j = j - 1


def _greedy(rem: int, k: int) -> Iterator[tuple[int, int]]:
    """(a_j, j) for j = k, k-1, ... while rem > 0: C(a_j, j) <= rem < C(a_j + 1, j)."""
    j = k
    while rem:  # at j = 1, a_1 = rem spends the rest
        lo, hi = j - 1, j  # C(j-1, j) = 0 always qualifies
        while math.comb(hi, j) <= rem:  # double the gap above j - 1, not hi
            lo, hi = hi, 2 * hi - j + 1
        while hi - lo > 1:  # invariant: C(lo, j) <= rem < C(hi, j)
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if math.comb(mid, j) <= rem else (lo, mid)
        yield lo, j
        rem -= math.comb(lo, j)
        j -= 1


def segment(k: int, n: int) -> FaceFamily:
    """The first n k-sets in squashed order."""
    return _segment(k, n, None)


def segment_avoiding(k: int, n: int, avoid: int) -> FaceFamily:
    """The first n squashed-order k-sets that do not contain `avoid`.

    Opens a zero bit at `avoid` in each of the first n k-bit masks, an
    order-preserving map onto the sets without it, so cost is O(n k).
    """
    return _segment(k, n, avoid)


def _segment(k: int, n: int, avoid: int | None) -> FaceFamily:
    if k < 1:
        raise InvalidInput(f"set size must be >= 1, got {_named(k)}")
    if n < 0:
        raise InvalidInput(f"count must be >= 0, got {_named(n)}")
    if avoid is not None and avoid < 1:
        raise InvalidInput(f"vertex labels must be >= 1, got {_named(avoid)}")
    _checked(k, "set size")
    # vertex v is bit v - 1; adding the bits at and above `gap` to
    # themselves moves them up one place.  Labels stay below n + k, so with
    # no `avoid` nothing moves.
    gap = n + k if avoid is None else avoid - 1
    faces = [
        Face._unsafe(tuple(b + 1 for b in _bits(m + (m >> gap << gap))))
        for m in _segment_masks(k, n)
    ]
    return FaceFamily._unsafe(faces, k)


def _segment_masks(k: int, n: int) -> Iterator[int]:
    """The first n k-bit masks, ascending: the squashed order's first n k-sets."""
    mask = (1 << k) - 1
    for _ in range(n):
        yield mask
        # Gosper's rule: the next larger mask with the same number of bits
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (mask ^ ripple) >> (low.bit_length() + 1)


def shadow(family: FaceFamily) -> FaceFamily:
    """All (k-1)-subsets of the members; the empty family shadows to itself."""
    k = family.uniform_size
    if not family or k == 0:  # {∅} has nothing below its one member
        return FaceFamily((), size=None if k is None else max(k - 1, 0))
    support = family.support
    # ascending masks over the sorted support are already in squashed order
    masks = sorted(_shadow_masks(_masks_of(family, support)))
    return FaceFamily._unsafe([_face_of(m, support) for m in masks], k - 1)


@dataclass(frozen=True)
class CascadeRep:
    """The binomial cascade n = C(a_k,k) + C(a_{k-1},k-1) + ... + C(a_t,t).

    Terms are (a_j, j) pairs with j descending from k to t, a_t < ... < a_k,
    and 1 <= t <= a_t; the representation is unique.
    """

    terms: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        return sum(math.comb(a, j) for a, j in self.terms)

    def shadow_count(self) -> int:
        """sum_j C(a_j, j-1): the matching lower bound for the shadow."""
        total = 0
        for a, j in self.terms:
            total = _checked(total + comb64(a, j - 1), "shadow bound")
        return total


def cascade_rep(n: int, k: int) -> CascadeRep:
    """Greedy construction of the unique binomial cascade of n at level k."""
    if n < 1:
        raise InvalidInput(f"cascade undefined for n={_named(n)}")
    if k < 1:
        raise InvalidInput(f"cascade undefined for k={_named(k)}")
    _checked(n, "n")
    # greedy keeps a_j >= j and strictly decreasing: the uniqueness condition
    return CascadeRep(tuple(_greedy(n, k)))


def delta(n: int, k: int) -> int:
    """Minimum shadow size over families of n k-sets (delta_{k-1}(n))."""
    if k < 1:
        raise InvalidInput(f"set size must be >= 1, got {_named(k)}")
    if n < 0:
        raise InvalidInput(f"family size must be >= 0, got {_named(n)}")
    _checked(n, "n")
    total, rem = 0, n
    for a, j in _greedy(n, k):  # the shadow_count of cascade_rep(n, k)
        if rem <= j:  # the rest is C(j, j) + C(j-1, j-1) + ...: rem unit terms
            return _checked(total + rem * j - rem * (rem - 1) // 2, "shadow bound")
        total = _checked(total + comb64(a, j - 1), "shadow bound")
        rem -= math.comb(a, j)
    return total


def is_extremal(c: SimplicialComplex) -> bool:
    """Whether the pure complex attains the Kruskal-Katona shadow bound.

    A pure complex of dimension d > 0 is extremal iff f_{d-1} = delta_d(f_d);
    in dimension <= 0 every complex is extremal.
    """
    if c.is_empty:
        raise EmptyComplex("extremality undefined for the empty complex")
    if not c.is_pure:
        raise NotPure(f"{_named(c)} is not pure")
    masks = c._facet_masks
    k = masks[0].bit_count()
    # the (d-1)-faces of a pure complex are exactly the facet shadow
    return k <= 1 or len(_shadow_masks(masks)) == delta(len(masks), k)


def split_by_vertex(family: FaceFamily, vertex: int) -> tuple[FaceFamily, FaceFamily]:
    """Partition by a vertex: (members avoiding it, members containing it minus it).

    The second family is empty exactly when the vertex misses every member.
    """
    k = family.uniform_size
    avoiding = []
    stripped = []
    for f in family:
        if vertex in f:
            stripped.append(f.without(vertex))
        else:
            avoiding.append(f)
    b = FaceFamily(avoiding, size=k)
    c = FaceFamily(stripped, size=None if k is None else max(k - 1, 0))
    return b, c


@dataclass(frozen=True)
class Witness:
    """A vertex whose avoiding-part shadow strictly beats its containing part."""

    vertex: int
    shadow_b_count: int
    c_count: int


@dataclass(frozen=True)
class CompleteOnSupport:
    """No witness exists: the family is all k-subsets of its support."""

    support: tuple[int, ...]


WitnessResult = Union[Witness, CompleteOnSupport]


def _witness_scan(masks) -> tuple[tuple[int, int, int] | None, set[int] | None]:
    """((bit, |shadow(B)|, |C|) for the lowest qualifying vertex bit, else
    None; the set measured there, which holds every F - v that another
    facet holds, for that vertex or, with no witness, the lowest one: the
    ``covered`` of :func:`_deletion_masks`).

    A complete family (all k-subsets of its support) has |shadow(B)| <= |C|
    at every vertex, so it returns at once.  Low vertices are tried by the
    shadow of B, in which F - v must lie to leave the deletion; once their
    B hold as many facets as the family, one ridge tally counts each later
    v: a ridge avoiding v is in shadow(B) unless its one facet is it + v.
    """
    support = _union(masks)
    if len(masks) == math.comb(support.bit_count(), masks[0].bit_count()):
        # F - v lies in another facet unless F is the only one
        low = support & -support
        return None, {m ^ low for m in masks if m & low} if len(masks) > 1 else set()
    rest, tried = support, 0
    while rest and tried < len(masks):
        bit = rest & -rest
        rest ^= bit
        b_masks = [m for m in masks if not m & bit]
        covered = _shadow_masks(b_masks)
        c_count = len(masks) - len(b_masks)
        if len(covered) > c_count:
            return (bit.bit_length() - 1, len(covered), c_count), covered
        tried += len(b_masks)
    _, ridges, shared = _ridges(masks)
    while rest:
        bit = rest & -rest
        rest ^= bit
        stripped = [m ^ bit for m in masks if m & bit]
        lone = len(stripped) - len(shared.intersection(stripped))
        # each ridge through the vertex adds bit to the sum
        shadow_b = len(ridges) - sum(map(bit.__and__, ridges)) // bit - lone
        if shadow_b > len(stripped):
            return (bit.bit_length() - 1, shadow_b, len(stripped)), shared
    return None, None


def find_witness(family: FaceFamily) -> WitnessResult:
    """First vertex (ascending) whose avoiding-part shadow beats its stripped part.

    Splitting at a vertex as in :func:`split_by_vertex`, a witness is a
    vertex where the shadow of the avoiding members strictly outnumbers the
    stripped members.  When no vertex qualifies the family must consist of
    all k-subsets of its support, and that completeness is returned instead;
    a complete family is recognised by its size, before any shadow.
    """
    if not family:
        raise InvalidInput("witness search needs a nonempty family")
    support = family.support
    hit, _ = _witness_scan(_masks_of(family, support))
    if hit is None:
        return CompleteOnSupport(support=support)
    b, shadow_b, c_count = hit
    return Witness(vertex=support[b], shadow_b_count=shadow_b, c_count=c_count)

"""Exact reduced simplicial homology over GF(2) and the rationals.

The chain complex is augmented: the empty face spans degree -1, so the
degree-0 boundary matrix is the all-ones augmentation row and the computed
Betti numbers are reduced.  Boundary matrices come from face masks: rows
are indexed by mask, and column m has (-1)^j at row m minus its j-th bit.
Two ranks hold in every field and need no matrix: rank d_0 = 1, and
rank d_1 = f_0 - c for the c connected components, which one union-find
pass over the facets counts.  So reduced_betti builds only d_2..d_d, reads
f_1 off the row count of d_2 (or counts the edges when d = 1) and f_i off
the column count of d_i, and lists the faces of each dimension 1..d at
most twice; a complex of dimension at most 1 needs no matrix at all.
Ranks are exact in both fields: GF(2) rows are bit-packed integers
eliminated by xor, rational ranks come from a row echelon on sparse
integer rows (Dumas, Saunders and Villard 2001), whose steps are integer
multiples and exact gcd divisions, never rounded.

Reisner's criterion then reads: a complex is Cohen-Macaulay over a field
exactly when every face has a link with vanishing reduced homology below
its dimension.  Only GF(2) and the rationals are supported; torsion at odd
primes is invisible here, which reports must spell out.

A cone (some vertex in every facet) is contractible: its reduced homology
vanishes and no boundary matrix is built for it.  A complex with cone
points C is the join of the simplex C and its base B = lk(C), so
lk(τ ∪ C) = lk_B(τ) (Munkres 1984).  The Reisner check runs on B, or on c
itself with no cone, visits faces up to dimension dim B - 2 (the larger
have points or {∅} for links, which cannot fail), reads a graph link's
b_0 off its components and ranks each larger shape once; its face
budget counts only until the count passes it.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .complexes import Face, SimplicialComplex, _bits, _components, _count_faces
from .complexes import _face_of, _faces_of_size, _intersection, _named
from .errors import BudgetExceeded, EmptyComplex, InvalidInput, OutOfRange


#: Faces, ∅ included, past which the Reisner check and ``kkvd betti`` refuse.
FACE_BUDGET = 5000


class CoefficientField(enum.Enum):
    GF2 = "gf2"
    RATIONALS = "q"

    @classmethod
    def _missing_(cls, value):
        raise InvalidInput(f"unknown coefficient field {_named(value)}")


def boundary_matrix(c: SimplicialComplex, i: int) -> list[list[int]]:
    """Integer matrix of the boundary map from i-faces to (i-1)-faces.

    Rows are indexed by the (i-1)-faces (the empty face alone when i = 0),
    columns by the i-faces, both in squashed order.  Entries follow the
    alternating-sign rule over each column face's sorted vertices.
    """
    d = c.dimension
    if d is None or i < 0 or i > d:
        raise OutOfRange(f"boundary index {_named(i)} out of range for {_named(c)}")
    rows = _faces_of_size(c._facet_masks, i)
    cols = _faces_of_size(c._facet_masks, i + 1)
    row_index = {m: r for r, m in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for j, m in enumerate(cols):
        sign = 1
        for b in _bits(m):
            matrix[row_index[m ^ (1 << b)]][j] = sign
            sign = -sign
    return matrix


def _check_integers(row: list[int], rank: str) -> None:
    """Refuse a row holding anything but ints (bools count as 0 and 1)."""
    try:  # a float, Fraction or other non-int entry makes the sum non-int
        if type(sum(row)) is int:
            return
    except TypeError:
        pass
    raise InvalidInput(f"{rank} rank needs integer entries")


def rank_gf2(matrix: list[list[int]]) -> int:
    """Rank over GF(2); each row is packed into one integer and xored down."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in matrix:
        _check_integers(row, "GF(2)")
        packed = 0
        for j, v in enumerate(row):
            if v & 1:
                packed |= 1 << j
        while packed:
            top = packed.bit_length() - 1
            if top in pivots:
                packed ^= pivots[top]
            else:
                pivots[top] = packed
                rank += 1
                break
    return rank


def rank_rational(matrix: list[list[int]]) -> int:
    """Rank over the rationals by row echelon on sparse integer rows.

    Each row becomes a {column: entry} dict and is reduced against the
    pivot rows by its top column, as rank_gf2 does by its top bit.  A ±1
    pivot clears with one integer multiple of its row; any other pivot p
    takes r <- p*r - a*P and then divides r by the gcd of its entries.
    Every step is exact integer arithmetic, so nothing is ever rounded.
    """
    pivots: dict[int, dict[int, int]] = {}
    for dense in matrix:
        _check_integers(dense, "rational")
        row = {j: dense[j] for j in itertools.compress(itertools.count(), dense)}
        while row:
            top = max(row)
            if top not in pivots:
                pivots[top] = row
                break
            pivot = pivots[top]
            a, p = row[top], pivot[top]
            unit = p in (1, -1)
            if unit:
                a *= p  # a / p
            else:
                row = {j: p * v for j, v in row.items()}
            for j, v in pivot.items():
                x = row.get(j, 0) - a * v
                if x:
                    row[j] = x
                else:
                    del row[j]
            g = 1 if unit else math.gcd(*row.values())  # 0 for an empty row
            if g > 1:
                row = {j: v // g for j, v in row.items()}
    return len(pivots)


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Betti numbers b_{-1}, b_0, ..., b_d of a nonempty complex."""

    reduced: tuple[int, ...]
    field: CoefficientField

    def betti(self, i: int) -> int:
        """Reduced Betti number in degree i (i ranges from -1)."""
        return self.reduced[i + 1]

    @property
    def top_dimension(self) -> int:
        return len(self.reduced) - 2


def reduced_betti(
    c: SimplicialComplex, field: CoefficientField | str = CoefficientField.RATIONALS
) -> BettiProfile:
    """Reduced Betti numbers from ranks: b_i = f_i - rank d_i - rank d_{i+1}."""
    field = CoefficientField(field)
    d = c.dimension
    if d is None:
        raise EmptyComplex("homology undefined for the empty complex")
    masks = c._facet_masks
    if _intersection(masks):
        # a cone is contractible, so its reduced homology vanishes
        return BettiProfile(reduced=(0,) * (d + 2), field=field)
    rank = rank_gf2 if field is CoefficientField.GF2 else rank_rational
    f0, components = _components(masks)
    # f_1 is the edge facets' count when d = 1, d_2's row count past that
    f = [f0, sum(m.bit_count() == 2 for m in masks)]
    r = [1, f0 - components]
    for i in range(2, d + 1):
        matrix = boundary_matrix(c, i)  # rows hold the (i-1)-faces, never none
        f[i - 1] = len(matrix)
        f.append(len(matrix[0]))
        r.append(rank(matrix))
    f, r = f[: d + 1], r[: d + 1] + [0]  # no boundaries arrive from degree d+1
    # the empty face spans degree -1 and maps to zero
    betti = [1 - r[0]] + [f[i] - r[i] - r[i + 1] for i in range(d + 1)]
    return BettiProfile(reduced=tuple(betti), field=field)


class Violation(NamedTuple):
    face: Face
    index: int
    rank: int


@dataclass(frozen=True)
class CMReport:
    is_cm: bool
    field: CoefficientField
    violations: tuple[Violation, ...]


def _check_face_budget(c: SimplicialComplex, face_budget: int) -> None:
    """Refuse a complex with more than face_budget faces, ∅ included."""
    masks = c._facet_masks  # a facet of s vertices has 2^s faces, ∅ included
    bound = sum(1 << m.bit_count() for m in masks)
    if bound > face_budget and len(_count_faces(masks, face_budget)) > face_budget:
        budget = _named(face_budget)
        raise BudgetExceeded(f"more than {budget} faces, over the budget of {budget}")


def reisner_cm_check(
    c: SimplicialComplex,
    field: CoefficientField | str = CoefficientField.RATIONALS,
    face_budget: int = FACE_BUDGET,
) -> CMReport:
    """Reisner's criterion: every link's reduced homology vanishes below its dimension.

    Records every (face, degree, rank) violation over all faces, ∅ included,
    in squashed order per dimension, which (A ∪ C) △ (B ∪ C) = A △ B keeps
    for the cone points C.  A face missing a cone point has a cone for its
    link; a face τ ∪ C has lk_B(τ), B = lk(C).  A link of points or {∅}
    has no degree below -1 and b_{-1} = 0, so only faces up to dimension
    d - 2 are visited; a graph link fails only by b_0 = components - 1.
    """
    field = CoefficientField(field)
    if c.dimension is None:
        raise EmptyComplex("Cohen-Macaulay check undefined for the empty complex")
    _check_face_budget(c, face_budget)
    apex = _face_of(_intersection(c._facet_masks), c._labels)
    base = c.link(apex) if apex else c
    betti: dict[tuple[int, ...], tuple[int, ...]] = {}  # by compacted link masks
    violations: list[Violation] = []
    for i in range(-1, base.dimension - 1):
        for face in base.faces_of_dim(i):
            link = base.link(face) if face else base
            masks, dim = link._facet_masks, link.dimension
            if dim == 1:  # a graph: only b_0 = components - 1 can fail
                ranks: tuple[int, ...] = (0, _components(masks)[1] - 1)
            elif dim > 1:
                if masks not in betti:
                    betti[masks] = reduced_betti(link, field).reduced[:-1]
                ranks = betti[masks]
            else:  # points or {∅}: b_{-1} = 0, and no degree lies below -1
                continue
            for j, rank in enumerate(ranks, start=-1):
                if rank:
                    violations.append(Violation(face.union(apex), j, rank))
    return CMReport(is_cm=not violations, field=field, violations=tuple(violations))

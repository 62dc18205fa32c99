"""Exact reduced simplicial homology over GF(2) and the rationals.

The chain complex is augmented: the empty face spans degree -1, so the
degree-0 boundary matrix is the all-ones augmentation row and the computed
Betti numbers are reduced.  Boundary matrices come from face masks: rows
are indexed by mask, and column m has (-1)^j at row m minus its j-th bit.
f_i is read off the column count of d_i, so reduced_betti enumerates
each dimension at most twice.  Ranks are exact in both fields: GF(2) rows
are bit-packed integers eliminated by xor, rational ranks come from
fraction-free elimination over the integers (divisions are postponed and
always exact, so no rounding ever happens).

Reisner's criterion then reads: a complex is Cohen-Macaulay over a field
exactly when every face has a link with vanishing reduced homology below
its dimension.  Only GF(2) and the rationals are supported; torsion at odd
primes is invisible here, which reports must spell out.

A cone (some vertex lies in every facet) is contractible, so its reduced
homology vanishes and no boundary matrix is built for it; every link of a
face in a simplex is one.  The face budget of the Reisner check counts
distinct face masks and stops as soon as the count passes the budget, so
a refusal costs at most the budget's worth of work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .complexes import Face, SimplicialComplex
from .complexes import _bits, _count_faces, _faces_of_size, _intersection
from .errors import BudgetExceeded, EmptyComplex, InvalidInput, OutOfRange


class CoefficientField(enum.Enum):
    GF2 = "gf2"
    RATIONALS = "q"


def boundary_matrix(c: SimplicialComplex, i: int) -> list[list[int]]:
    """Integer matrix of the boundary map from i-faces to (i-1)-faces.

    Rows are indexed by the (i-1)-faces (the empty face alone when i = 0),
    columns by the i-faces, both in squashed order.  Entries follow the
    alternating-sign rule over each column face's sorted vertices.
    """
    d = c.dimension
    if d is None or i < 0 or i > d:
        raise OutOfRange(f"boundary index {i} out of range for {c!r}")
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


def rank_gf2(matrix: list[list[int]]) -> int:
    """Rank over GF(2); each row is packed into one integer and xored down."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in matrix:
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
    """Rank over the rationals by fraction-free integer elimination.

    One-step Bareiss: entries stay integers, every division is exact, and
    the pivot history keeps intermediate growth polynomial.
    """
    m = [row[:] for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    prev_pivot = 1
    row = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(row, n_rows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for r in range(row + 1, n_rows):
            factor = m[r][col]
            for cc in range(col, n_cols):
                num = m[r][cc] * pivot - factor * m[row][cc]
                q, rem = divmod(num, prev_pivot)
                if rem:
                    raise InvalidInput("fraction-free elimination lost exactness")
                m[r][cc] = q
        prev_pivot = pivot
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


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
    c: SimplicialComplex, field: CoefficientField = CoefficientField.RATIONALS
) -> BettiProfile:
    """Reduced Betti numbers from ranks: b_i = f_i - rank d_i - rank d_{i+1}."""
    d = c.dimension
    if d is None:
        raise EmptyComplex("homology undefined for the empty complex")
    if _intersection(c._facet_masks):
        # a cone is contractible, so its reduced homology vanishes
        return BettiProfile(reduced=(0,) * (d + 2), field=field)
    rank = rank_gf2 if field is CoefficientField.GF2 else rank_rational
    f, r = [], []
    for i in range(d + 1):
        matrix = boundary_matrix(c, i)  # rows hold the (i-1)-faces, never none
        f.append(len(matrix[0]))
        r.append(rank(matrix))
    r.append(0)  # no boundaries arrive from degree d+1
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


def reisner_cm_check(
    c: SimplicialComplex,
    field: CoefficientField = CoefficientField.RATIONALS,
    face_budget: int = 5000,
) -> CMReport:
    """Reisner's criterion: every link's reduced homology vanishes below its dimension.

    Iterates over all faces including the empty one, in squashed order per
    dimension, and records every (face, degree, rank) violation.
    """
    d = c.dimension
    if d is None:
        raise EmptyComplex("Cohen-Macaulay check undefined for the empty complex")
    if _count_faces(c._facet_masks, face_budget) > face_budget:
        raise BudgetExceeded(
            f"more than {face_budget} faces, over the budget of {face_budget}"
        )
    violations: list[Violation] = []
    for face in c.all_faces():
        link = c.link(face)
        link_dim = link.dimension  # not None: the link of a face contains ∅
        if link_dim <= -1:
            continue
        profile = reduced_betti(link, field)
        for i in range(-1, link_dim):
            rank = profile.betti(i)
            if rank:
                violations.append(Violation(face=face, index=i, rank=rank))
    return CMReport(is_cm=not violations, field=field, violations=tuple(violations))

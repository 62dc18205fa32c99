"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive and shares no code path with the
package: squashed order by sorting, shadows and faces by itertools, ranks
by Fraction Gaussian elimination and by set-xor elimination over GF(2).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from kkvd import Face


def brute_squashed(k: int, max_label: int) -> list[tuple[int, ...]]:
    """All k-subsets of 1..max_label in squashed order, by sort."""
    combos = itertools.combinations(range(1, max_label + 1), k)
    return sorted(combos, key=lambda t: tuple(reversed(t)))


def brute_shadow(families: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    out = set()
    for member in families:
        for drop in member:
            out.add(tuple(v for v in member if v != drop))
    return out


def brute_faces(facets) -> set[tuple[int, ...]]:
    """Every face of the complex generated by the facets, including ()."""
    out: set[tuple[int, ...]] = set()
    for facet in facets:
        vs = tuple(facet)
        for r in range(len(vs) + 1):
            out.update(itertools.combinations(vs, r))
    return out


def rank_fraction(matrix) -> int:
    """Row-echelon rank over the rationals with exact Fraction arithmetic."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def rank_gf2_sets(matrix) -> int:
    """GF(2) rank via symmetric-difference elimination on column-index sets."""
    rows = [{j for j, v in enumerate(row) if v % 2} for row in matrix]
    rank = 0
    for _ in range(len(rows)):
        pivot_row = next((r for r in rows if r), None)
        if pivot_row is None:
            break
        pivot_col = min(pivot_row)
        rank += 1
        rows = [
            (r ^ pivot_row if pivot_col in r and r is not pivot_row else r)
            for r in rows
            if r is not pivot_row
        ]
    return rank


def face_levels(c) -> list[list[tuple[int, ...]]]:
    """Faces by size 0..d+1 from the facets by itertools, each in squashed order."""
    faces = sorted(brute_faces(f.vertices for f in c.facets), key=lambda t: t[::-1])
    return [[f for f in faces if len(f) == k] for k in range(c.dimension + 2)]


def boundary_oracle(c, i: int) -> list[list[int]]:
    """The augmented boundary matrix of degree i, from tuples of labels.

    Rows are the (i-1)-faces and columns the i-faces, both in squashed
    order; the entry for dropping the vertex at position p is (-1)^p.
    """
    rows, cols = face_levels(c)[i : i + 2]
    row_index = {f: r for r, f in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, face in enumerate(cols):
        for pos, v in enumerate(face):
            sub = tuple(x for x in face if x != v)
            mat[row_index[sub]][j] = (-1) ** pos
    return mat


def betti_oracle(c, rational: bool) -> list[int]:
    """Reduced Betti numbers recomputed from scratch with the oracle ranks.

    Faces come from the facets by itertools and matrices from
    :func:`boundary_oracle`, so no face enumeration of the library is shared.
    """
    d = c.dimension
    assert d is not None
    levels = face_levels(c)
    rank_fn = rank_fraction if rational else rank_gf2_sets
    ranks = []
    for i in range(0, d + 1):
        mat = boundary_oracle(c, i)
        ranks.append(rank_fn(mat) if mat and mat[0] else 0)
    ranks.append(0)
    betti = []
    for i in range(-1, d + 1):
        kernel = 1 if i == -1 else len(levels[i + 1]) - ranks[i]
        betti.append(kernel - ranks[i + 1])
    return betti


def is_valid_shelling(order) -> bool:
    """Replay the shelling condition on an explicit facet order."""
    if len(order) <= 1:
        return True
    d = len(order[0]) - 1
    for j in range(1, len(order)):
        new = set(order[j])
        # faces of the intersection with the union of predecessors
        inter_faces: set[tuple[int, ...]] = set()
        for prev in order[:j]:
            common = tuple(sorted(new & set(prev)))
            for r in range(len(common) + 1):
                inter_faces.update(itertools.combinations(common, r))
        maximal = [
            f
            for f in inter_faces
            if not any(f != g and set(f) <= set(g) for g in inter_faces)
        ]
        if not all(len(f) == d for f in maximal):
            return False
    return True


def random_family(rng, k: int, universe: int, n: int) -> list[Face]:
    """n distinct k-subsets of 1..universe (n clipped to the number available)."""
    pool = list(itertools.combinations(range(1, universe + 1), k))
    rng.shuffle(pool)
    return [Face(*t) for t in pool[: min(n, len(pool))]]


def torus_facets(a: int, b: int) -> list[tuple[int, int, int]]:
    """The triangles of the a×b grid triangulation of the torus (a, b >= 3).

    Vertex (i, j), taken mod (a, b), has the label b·i + j + 1; each grid
    square is cut along its diagonal.
    """

    def v(i: int, j: int) -> int:
        return b * (i % a) + j % b + 1

    return [
        t
        for i in range(a)
        for j in range(b)
        for t in (
            (v(i, j), v(i + 1, j), v(i + 1, j + 1)),
            (v(i, j), v(i, j + 1), v(i + 1, j + 1)),
        )
    ]


def random_complex(rng, max_vertices: int = 8, max_faces: int = 6):
    from kkvd import make_complex

    nv = rng.randint(1, max_vertices)
    faces = []
    for _ in range(rng.randint(1, max_faces)):
        size = rng.randint(1, min(nv, 4))
        faces.append(tuple(rng.sample(range(1, nv + 1), size)))
    return make_complex(faces)


def brute_vertex_decomposable(facets) -> bool:
    """Vertex decomposability by its definition, on sets of frozensets.

    A pure complex is decomposable when it is empty, {∅}, a single vertex,
    or some vertex has a pure decomposable link and a pure decomposable
    deletion.  Links and deletions are recomputed from the faces each time.
    """
    return _brute_vd(_maximal_sets(frozenset(f) for f in facets), {})


def _maximal_sets(faces) -> frozenset:
    faces = set(faces)
    return frozenset(f for f in faces if not any(f < g for g in faces))


def _brute_vd(facets: frozenset, memo: dict) -> bool:
    if len({len(f) for f in facets}) > 1:
        return False
    if len(facets) <= 1 and all(len(f) <= 1 for f in facets):
        return True
    if facets not in memo:
        memo[facets] = any(
            _brute_vd(_maximal_sets(f - {v} for f in facets if v in f), memo)
            and _brute_vd(_maximal_sets(f - {v} for f in facets), memo)
            for v in sorted(set().union(*facets))
        )
    return memo[facets]

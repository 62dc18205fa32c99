import itertools
import random
import time
from fractions import Fraction

import pytest

import kkvd.homology
from kkvd import (
    CMReport,
    CoefficientField,
    Face,
    SimplicialComplex,
    Violation,
    boundary_matrix,
    make_complex,
    rank_gf2,
    rank_rational,
    reduced_betti,
    reisner_cm_check,
    segment,
)
from kkvd.errors import BudgetExceeded, EmptyComplex, InvalidInput, KKError, OutOfRange

from oracles import (
    betti_oracle,
    boundary_oracle,
    face_levels,
    random_complex,
    random_family,
    rank_fraction,
    rank_gf2_sets,
)

GF2 = CoefficientField.GF2
Q = CoefficientField.RATIONALS

RP2_FACETS = [
    (1, 2, 3),
    (1, 3, 4),
    (1, 2, 6),
    (1, 4, 5),
    (1, 5, 6),
    (2, 3, 5),
    (2, 4, 5),
    (2, 4, 6),
    (3, 4, 6),
    (3, 5, 6),
]

# all 4-subsets of 1..8 but the last: not complete
C84_MINUS_ONE = list(itertools.combinations(range(1, 9), 4))[:-1]


@pytest.fixture(scope="module")
def projective_plane():
    c = make_complex(RP2_FACETS)
    # fixture sanity: 6 vertices, every edge in exactly two triangles,
    # Euler characteristic 1
    assert c.f_vector() == (6, 15, 10)
    edge_count = {}
    for f in c.facets:
        for e in itertools.combinations(f.vertices, 2):
            edge_count[e] = edge_count.get(e, 0) + 1
    assert set(edge_count.values()) == {2}
    return c


# ---------------------------------------------------------------- boundary


def test_boundary_of_an_edge():
    m = boundary_matrix(make_complex([(1, 2)]), 1)
    assert sorted(row[0] for row in m) == [-1, 1]


def test_degree_zero_boundary_is_augmentation_row():
    m = boundary_matrix(make_complex([(1, 2), (3, 4)]), 0)
    assert m == [[1, 1, 1, 1]]


def test_boundary_out_of_range():
    c = make_complex([(1, 2)])
    for i in (-1, 2):
        with pytest.raises(OutOfRange):
            boundary_matrix(c, i)
    with pytest.raises(OutOfRange):
        boundary_matrix(make_complex([]), 0)


def test_boundary_squared_is_zero_on_random_complexes():
    rng = random.Random(31)
    for _ in range(50):
        c = random_complex(rng)
        d = c.dimension
        for i in range(1, d + 1):
            a = boundary_matrix(c, i - 1)
            b = boundary_matrix(c, i)
            for row in range(len(a)):
                for col in range(len(b[0])):
                    entry = sum(a[row][k] * b[k][col] for k in range(len(b)))
                    assert entry == 0


# ---------------------------------------------------------------- ranks


def test_rank_implementations_match_oracles():
    rng = random.Random(13)
    for _ in range(120):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        assert rank_rational(m) == rank_fraction(m)
        assert rank_gf2(m) == rank_gf2_sets(m)


def test_rank_rational_matches_fraction_elimination():
    # entries up to 3 in size make non-unit pivots, so rows get scaled and
    # divided by their gcd; boundary matrices are sparse with ±1 entries
    rng = random.Random(17)
    for _ in range(400):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.random()
        m = [
            [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        assert rank_rational(m) == rank_fraction(m), m
    for _ in range(100):
        c = random_complex(rng, max_vertices=7, max_faces=5)
        for i in range(c.dimension + 1):
            m = boundary_matrix(c, i)
            assert rank_rational(m) == rank_fraction(m), (c, i)


def test_rank_rational_rejects_inexact_elimination():
    with pytest.raises(KKError):
        rank_rational([[3, 1, 1], [1, 3, 1], [1, 1, 2.5]])


@pytest.mark.parametrize("rank", [rank_gf2, rank_rational])
@pytest.mark.parametrize(
    "entry",
    [1.0, 0.5, "1", Fraction(1), Fraction(1, 2)],
    ids=["float", "half-float", "str", "fraction", "half-fraction"],
)
def test_ranks_refuse_non_integer_entries(rank, entry):
    with pytest.raises(InvalidInput, match="rank needs integer entries"):
        rank([[1, 0], [0, entry]])


@pytest.mark.parametrize("rank", [rank_gf2, rank_rational])
def test_ranks_count_bools_as_zero_and_one(rank):
    assert rank([[True, False], [False, True]]) == 2
    assert rank([[True, True], [True, True]]) == 1
    assert rank([[False, False]]) == 0


# ---------------------------------------------------------------- betti


@pytest.mark.parametrize("field", [GF2, Q])
def test_hollow_triangle_is_a_circle(field):
    profile = reduced_betti(make_complex([(1, 2), (1, 3), (2, 3)]), field)
    assert (profile.betti(0), profile.betti(1)) == (0, 1)


def test_solid_triangle_is_contractible():
    assert reduced_betti(make_complex([(1, 2, 3)]), Q).reduced == (0, 0, 0, 0)


@pytest.mark.parametrize("field", [GF2, Q])
def test_disjoint_pair_has_reduced_b0_one(field):
    assert reduced_betti(make_complex([(1, 2), (3, 4)]), field).betti(0) == 1


def test_empty_face_complex_profile():
    assert reduced_betti(make_complex([()]), Q).reduced == (1,)


def test_two_sphere():
    boundary = list(itertools.combinations(range(1, 5), 3))
    profile = reduced_betti(make_complex(boundary), Q)
    assert profile.reduced == (0, 0, 0, 1)
    assert profile.top_dimension == 2


def test_betti_requires_faces():
    with pytest.raises(EmptyComplex):
        reduced_betti(make_complex([]), Q)


def test_euler_poincare_on_random_complexes():
    rng = random.Random(47)
    for _ in range(50):
        c = random_complex(rng)
        f = c.f_vector()
        reduced_euler = sum((-1) ** i * fi for i, fi in enumerate(f)) - 1
        profile = reduced_betti(c, Q)
        alternating = -profile.betti(-1) + sum(
            (-1) ** i * profile.betti(i) for i in range(0, c.dimension + 1)
        )
        assert reduced_euler == alternating


def test_profiles_match_independent_oracle_on_random_complexes():
    rng = random.Random(53)
    for _ in range(40):
        c = random_complex(rng, max_vertices=7, max_faces=5)
        assert list(reduced_betti(c, Q).reduced) == betti_oracle(c, rational=True)
        assert list(reduced_betti(c, GF2).reduced) == betti_oracle(c, rational=False)


def test_fields_agree_away_from_torsion():
    rng = random.Random(59)
    for _ in range(40):
        c = random_complex(rng, max_vertices=6, max_faces=4)
        if c.dimension <= 1:
            # graphs have free homology; profiles must coincide
            assert reduced_betti(c, Q).reduced == reduced_betti(c, GF2).reduced


def test_projective_plane_profiles(projective_plane):
    assert reduced_betti(projective_plane, Q).reduced == (0, 0, 0, 0)
    assert reduced_betti(projective_plane, GF2).reduced == (0, 0, 1, 1)
    # pre-verified against the brute-force oracle as well
    assert betti_oracle(projective_plane, rational=True) == [0, 0, 0, 0]
    assert betti_oracle(projective_plane, rational=False) == [0, 0, 1, 1]


def component_inputs(rng, count=320):
    """Disjoint unions of 1-3 random pieces plus 0-3 isolated points.

    Three in four have facets of at most two vertices (points and graphs),
    the rest at most three; facet sizes are mixed, so many are not pure.
    """
    for t in range(count):
        top = (1, 2, 2, 3)[t % 4]
        facets, start = [], 0
        for _ in range(rng.randint(1, 3)):
            nv = rng.randint(1, 6)
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(1, min(nv, top))
                facets.append(tuple(start + v for v in rng.sample(range(1, nv + 1), size)))
            start += nv
        facets += [(start + i,) for i in range(1, rng.randint(1, 4))]
        yield make_complex(facets)


def test_component_ranks_match_oracle_on_graphs_and_unions():
    rng = random.Random(73)
    disconnected = low = nonpure = 0
    for c in component_inputs(rng):
        want_q = betti_oracle(c, rational=True)
        assert list(reduced_betti(c, Q).reduced) == want_q, c
        assert list(reduced_betti(c, GF2).reduced) == betti_oracle(c, rational=False), c
        disconnected += want_q[1] > 0
        low += c.dimension <= 1
        nonpure += not c.is_pure
    # the inputs lean on the paths the components decide
    assert disconnected >= 200 and low >= 200 and nonpure >= 100


@pytest.mark.parametrize(
    "facets,gf2,q",
    [
        ([()], (1,), (1,)),
        ([(7,)], (0, 0), (0, 0)),
        (RP2_FACETS + [tuple(v + 6 for v in f) for f in RP2_FACETS], (0, 1, 2, 2), (0, 1, 0, 0)),
    ],
    ids=["empty-face", "point", "two-rp2"],
)
def test_small_and_disconnected_profiles(facets, gf2, q):
    c = make_complex(facets)
    assert reduced_betti(c, GF2).reduced == gf2
    assert reduced_betti(c, Q).reduced == q
    assert list(gf2) == betti_oracle(c, rational=False)
    assert list(q) == betti_oracle(c, rational=True)


@pytest.mark.parametrize("field", [GF2, Q])
def test_boundary_matrices_built_only_from_degree_two(monkeypatch, field):
    built = []
    real = kkvd.homology.boundary_matrix
    monkeypatch.setattr(
        kkvd.homology, "boundary_matrix", lambda c, i: built.append(i) or real(c, i)
    )
    for d in range(5):
        # the boundary of the (d+1)-dimensional cross-polytope, not complete once d >= 1
        cross = make_complex(itertools.product(*((2 * i + 1, 2 * i + 2) for i in range(d + 1))))
        built.clear()
        assert reduced_betti(cross, field).reduced == (0,) * (d + 1) + (1,)
        assert built == list(range(2, d + 1))
        built.clear()
        assert reduced_betti(with_apex(cross), field).reduced == (0,) * (d + 3)
        # the boundary of a simplex is complete: read off its facet count
        sphere = make_complex(itertools.combinations(range(1, d + 3), d + 1))
        assert reduced_betti(sphere, field).reduced == (0,) * (d + 1) + (1,)
        assert built == []
    skeleton = make_complex(itertools.combinations(range(1, 9), 4))
    assert reduced_betti(skeleton, field).reduced == (0, 0, 0, 0, 35)
    for facets in ([()], [(1,)], [(1, 2), (3,)], [(1, 2), (2, 3), (3, 1), (4, 5)]):
        reduced_betti(make_complex(facets), field)
    assert built == []


@pytest.mark.parametrize("field", [GF2, Q])
def test_components_take_linear_time(field):
    # past the 64-label limit of the public constructors, so built from masks
    n = 5000
    labels = range(1, n + 1)
    points = SimplicialComplex._from_masks(labels, [1 << i for i in range(n)])
    path = SimplicialComplex._from_masks(labels, [3 << i for i in range(n - 1)])
    for c, want in ((points, (0, n - 1)), (path, (0, 0, 0))):
        start = time.perf_counter()
        assert reduced_betti(c, field).reduced == want
        assert time.perf_counter() - start < 0.1


def with_apex(c):
    """The cone over c: one new vertex added to every facet."""
    apex = max(c.vertex_set) + 1
    return make_complex([f.vertices + (apex,) for f in c.facets])


@pytest.mark.parametrize("field", [GF2, Q])
def test_cones_are_acyclic_against_oracle(field):
    rng = random.Random(61)
    for _ in range(40):
        cone = with_apex(random_complex(rng, max_vertices=7, max_faces=5))
        profile = reduced_betti(cone, field)
        assert list(profile.reduced) == [0] * (cone.dimension + 2)
        assert list(profile.reduced) == betti_oracle(cone, rational=field is Q)


@pytest.mark.parametrize("field", [GF2, Q])
@pytest.mark.parametrize(
    "facets",
    [[()], [(1, 2), (1, 3), (2, 3)], RP2_FACETS],
    ids=["empty-face", "hollow-triangle", "rp2"],
)
def test_non_cones_keep_their_homology(facets, field):
    # {∅} has facet mask 0, which no vertex lies in: b_{-1} stays 1
    c = make_complex(facets)
    assert list(reduced_betti(c, field).reduced) == betti_oracle(c, rational=field is Q)


def test_boundary_matrices_and_f_vectors_match_oracle():
    # half the complexes are cones: 1-3 new vertices added to every facet
    rng = random.Random(67)
    for t in range(200):
        c = random_complex(rng, max_vertices=7, max_faces=5)
        if t % 2:
            top = max(c.vertex_set)
            apex = tuple(range(top + 1, top + 1 + rng.randint(1, 3)))
            c = make_complex([f.vertices + apex for f in c.facets])
        for i in range(c.dimension + 1):
            assert boundary_matrix(c, i) == boundary_oracle(c, i), (c, i)
        levels = face_levels(c)
        assert c.f_vector() == tuple(len(level) for level in levels[1:]), c
        assert c.face_count() == sum(map(len, levels)), c


# ---------------------------------------------------------------- reisner


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("field", [GF2, Q])
def test_two_disjoint_simplices_are_never_cm(d, field):
    c = make_complex([tuple(range(1, d + 2)), tuple(range(d + 2, 2 * d + 3))])
    report = reisner_cm_check(c, field)
    assert not report.is_cm
    assert Violation(Face(), 0, 1) in report.violations


@pytest.mark.parametrize("field", [GF2, Q])
def test_segment_complexes_are_cm(field):
    for n in range(1, 11):
        assert reisner_cm_check(make_complex(segment(3, n)), field).is_cm


def test_projective_plane_cm_depends_on_field(projective_plane):
    assert reisner_cm_check(projective_plane, Q).is_cm
    report = reisner_cm_check(projective_plane, GF2)
    assert not report.is_cm
    assert Violation(Face(), 1, 1) in report.violations


def test_violations_report_original_faces():
    c = make_complex([(1, 2), (2, 3), (4, 5), (5, 6)])
    report = reisner_cm_check(c, Q)
    assert not report.is_cm
    assert report.violations[0].face == Face()


def reisner_reference(c, field, oracle=betti_oracle):
    """Violations face by face: every link from scratch, ranked by the oracle."""
    violations = []
    for face in c.all_faces():
        betti = oracle(c.link(face), rational=field is Q)
        # degrees -1 .. dim(link) - 1, below the link's top dimension
        violations += [Violation(face, i, b) for i, b in enumerate(betti[:-1], -1) if b]
    return violations


def random_reisner_inputs(rng):
    """Pure and non-pure complexes, some cones, on 1..n or scattered labels."""
    for t in range(160):
        if t % 2:
            c = random_complex(rng, max_vertices=7, max_faces=5)
        else:
            k = rng.randint(1, 3)
            c = make_complex(random_family(rng, k, rng.randint(k, 7), rng.randint(1, 6)))
        if t % 4 >= 2:
            c = with_apex(c) if t % 8 < 6 else with_apex(with_apex(c))
        if t % 3 == 0:
            labels = sorted(rng.sample(range(1, 65), len(c.vertex_set)))
            relabel = dict(zip(c.vertex_set, labels))
            c = make_complex([[relabel[v] for v in f] for f in c.facets])
        yield c
    yield make_complex(RP2_FACETS)
    yield with_apex(make_complex(RP2_FACETS))


@pytest.mark.parametrize("field", [GF2, Q])
def test_reisner_matches_face_by_face_reference(field):
    rng = random.Random(71)
    violating = 0
    for c in random_reisner_inputs(rng):
        report = reisner_cm_check(c, field)
        want = reisner_reference(c, field)
        assert list(report.violations) == want, c
        assert report.is_cm is not want
        violating += bool(want)
    assert violating >= 25  # the inputs exercise the violation path


def complete_families(rng):
    """(complex, whether complete): every C(s, k), all k-subsets of s vertices
    for 1 <= k <= s <= 9, on 1..s and on labels in 1..64; the cone over each;
    and, for k > 1, C(s, k) with one smaller facet through a new vertex.  Only
    those of at most 256 faces: past that the rational oracle takes seconds."""
    for s in range(1, 10):
        for k in range(1, s + 1):
            labels = sorted(rng.sample(range(1, 65), s + 1))
            full = list(itertools.combinations(range(1, s + 1), k))
            extra = rng.sample(range(1, s + 1), rng.randint(0, max(k - 2, 0))) + [s + 1]
            for name in (lambda v: v, lambda v: labels[v - 1]):
                c = make_complex([map(name, f) for f in full])
                family = [(c, True), (with_apex(c), False)]
                if k > 1:
                    family.append((make_complex([map(name, f) for f in full + [extra]]), False))
                yield from ((c, complete) for c, complete in family if c.face_count() <= 256)


def shape_oracle():
    """betti_oracle once per shape: a relabeling of the vertices keeps the homology."""
    known = {}

    def oracle(c, rational):
        key = (c.canonical_facets(), rational)
        if key not in known:
            known[key] = betti_oracle(c, rational=rational)
        return known[key]

    return oracle


@pytest.mark.parametrize("field", [GF2, Q])
def test_complete_families_match_oracles(field):
    # C(s, k) is a wedge of C(s - 1, k) spheres of dimension k - 1, and Cohen-Macaulay
    rng, oracle = random.Random(89), shape_oracle()
    wedges = violating = 0
    for c, complete in complete_families(rng):
        profile = reduced_betti(c, field).reduced
        assert list(profile) == oracle(c, rational=field is Q), c
        report = reisner_cm_check(c, field)
        assert list(report.violations) == reisner_reference(c, field, oracle), c
        assert report.is_cm or not complete
        wedges += complete and profile[-1] > 1
        violating += not report.is_cm
    assert wedges >= 45 and violating >= 45  # 50 and 54 with this seed


def interleaved_cones(rng):
    """(Δ, C, C * Δ): 1-3 cone points C placed among Δ's labels in 1..64."""
    for t in range(120):
        base = random_complex(rng, max_vertices=7, max_faces=5)
        if t % 2:
            k = rng.randint(1, 3)
            base = make_complex(random_family(rng, k, rng.randint(k, 7), rng.randint(1, 6)))
        cone = rng.randint(1, 3)
        labels = sorted(rng.sample(range(1, 65), len(base.vertex_set) + cone))
        apex = Face(*rng.sample(labels, cone))
        relabel = dict(zip(base.vertex_set, (v for v in labels if v not in apex)))
        base = make_complex([[relabel[v] for v in f] for f in base.facets])
        yield base, apex, make_complex([f.union(apex) for f in base.facets])


@pytest.mark.parametrize("field", [GF2, Q])
def test_reisner_on_cones_with_interleaved_apex_labels(field):
    # lk(τ ∪ C) = lk_Δ(τ) in C * Δ, and a face missing a point of C has a cone link
    rng = random.Random(73)
    violating = below = 0
    for base, apex, c in interleaved_cones(rng):
        report = reisner_cm_check(c, field)
        assert list(report.violations) == reisner_reference(c, field), c
        lifted = [
            Violation(v.face.union(apex), v.index, v.rank)
            for v in reisner_cm_check(base, field).violations
        ]
        assert list(report.violations) == lifted, c
        violating += bool(lifted)
        below += min(apex) < max(base.vertex_set)
    assert violating >= 10 and below >= 60  # 14 and 97 with this seed


def test_reisner_and_betti_on_spheres_are_fast():
    # the boundary of the 6-dimensional cross-polytope: 64 facets, 729 faces
    cross = [tuple(2 * i + s for i, s in enumerate(signs)) for signs in
             itertools.product((1, 2), repeat=6)]
    start = time.perf_counter()
    assert reisner_cm_check(make_complex(cross), Q).is_cm
    assert time.perf_counter() - start < 0.2
    # the boundary of the simplex on 10 vertices: 1,023 faces
    sphere = make_complex(itertools.combinations(range(1, 11), 9))
    start = time.perf_counter()
    assert reduced_betti(sphere, Q).reduced == (0,) * 9 + (1,)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert reisner_cm_check(sphere, Q).is_cm
    assert time.perf_counter() - start < 1.0


def test_face_budget(projective_plane):
    with pytest.raises(BudgetExceeded):
        reisner_cm_check(projective_plane, Q, face_budget=10)


def test_face_budget_counts_the_empty_face():
    # a 4-vertex facet has 2^4 = 16 faces, ∅ included
    c = make_complex([(1, 2, 3, 4)])
    assert reisner_cm_check(c, Q, face_budget=16).is_cm
    refusal = "more than 15 faces, over the budget of 15"
    with pytest.raises(BudgetExceeded, match=refusal):
        reisner_cm_check(c, Q, face_budget=15)


def test_face_budget_at_the_exact_face_count():
    # two triangles on an edge: 1 + 4 + 5 + 2 = 12 faces, but 2^3 + 2^3 = 16
    c = make_complex([(1, 2, 3), (2, 3, 4)])
    assert reisner_cm_check(c, Q, face_budget=12).is_cm
    with pytest.raises(BudgetExceeded, match="more than 11 faces, over the budget of 11"):
        reisner_cm_check(c, Q, face_budget=11)


def test_face_budget_still_refuses_a_14_vertex_facet():
    # 2^14 = 16,384 faces
    with pytest.raises(BudgetExceeded, match="more than 5000 faces, over the budget of 5000"):
        reisner_cm_check(make_complex([tuple(range(1, 15))]), Q)


def test_face_budget_counts_no_faces_under_the_facet_bound(monkeypatch):
    # the facets' 2^|F| sum, 16 here, bounds the face count from above
    def count_faces(masks, limit):
        raise AssertionError("faces counted")

    monkeypatch.setattr(kkvd.homology, "_count_faces", count_faces)
    assert reisner_cm_check(make_complex([(1, 2, 3), (2, 3, 4)]), Q, face_budget=16).is_cm


def test_face_budget_refuses_a_large_facet_without_counting(monkeypatch):
    # a 14-vertex facet alone has 2^14 = 16,384 faces
    def count_faces(masks, limit):
        raise AssertionError("faces counted")

    monkeypatch.setattr(kkvd.homology, "_count_faces", count_faces)
    with pytest.raises(BudgetExceeded, match="more than 5000 faces, over the budget of 5000"):
        reisner_cm_check(make_complex([tuple(range(1, 15))]), Q)
    # the boundary of the simplex on 13 vertices: 12-vertex facets, so counted
    with pytest.raises(AssertionError, match="faces counted"):
        reisner_cm_check(make_complex(itertools.combinations(range(1, 14), 12)), Q)


@pytest.mark.parametrize("field", [GF2, Q])
def test_face_budget_stops_counting_on_a_large_facet(field):
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="budget"):
        reisner_cm_check(make_complex([tuple(range(1, 65))]), field)
    assert time.perf_counter() - start < 1.0


def test_reisner_requires_faces():
    with pytest.raises(EmptyComplex):
        reisner_cm_check(make_complex([]), Q)


# ------------------------------------------------- fields and visited faces


@pytest.mark.parametrize("field", [GF2, Q])
def test_fields_given_as_strings(projective_plane, field):
    profile = reduced_betti(projective_plane, field.value)
    assert profile == reduced_betti(projective_plane, field)
    assert profile.field is field
    report = reisner_cm_check(projective_plane, field.value)
    assert report == reisner_cm_check(projective_plane, field)
    assert report.field is field
    assert report.is_cm is (field is Q)


@pytest.mark.parametrize("check", [reduced_betti, reisner_cm_check])
def test_unknown_field_is_invalid_input(projective_plane, check):
    with pytest.raises(InvalidInput, match="unknown coefficient field 'z'"):
        check(projective_plane, "z")


@pytest.mark.parametrize("field", [GF2, Q])
@pytest.mark.parametrize(
    "facets, want",
    [
        ([(1, 2, 3, 4), (1, 2, 5, 6)], [Violation(Face(1, 2), 0, 1)]),
        ([(1, 2, 3), (3, 4)], [Violation(Face(3), 0, 1)]),
        (
            [(1, 2, 3, 4), (1, 2, 5, 6), (7,)],
            [Violation(Face(), 0, 1), Violation(Face(1, 2), 0, 1)],
        ),
    ],
    ids=["two-tetrahedra", "non-pure", "with-a-point"],
)
def test_violations_at_codimension_two(facets, want, field):
    # a (d-2)-face with a disconnected link: the highest faces that can fail
    report = reisner_cm_check(make_complex(facets), field)
    assert report == CMReport(False, field, tuple(want))


@pytest.mark.parametrize(
    "c, top",
    [
        (make_complex(itertools.combinations(range(1, 9), 4)), None),
        (make_complex(C84_MINUS_ONE), 0),
        (with_apex(make_complex(RP2_FACETS)), -1),
        (make_complex([(1, 2, 3, 4)]), None),
        (make_complex([(1,)]), None),
        (make_complex([()]), None),
    ],
    ids=["C(8,4)", "C(8,4)-minus-one", "cone-over-rp2", "facet", "point", "empty-face"],
)
def test_reisner_visits_only_faces_up_to_codimension_two(monkeypatch, c, top):
    # links of (d-1)- and d-faces cannot fail, so those faces are never listed,
    # and the graph links of (d-2)-faces are read off the facets
    seen = []
    real = SimplicialComplex.faces_of_dim
    monkeypatch.setattr(
        SimplicialComplex, "faces_of_dim", lambda c, i: seen.append(i) or real(c, i)
    )
    reisner_cm_check(c, Q)
    assert max(seen, default=None) == top


# ------------------------------------------------------- links that are graphs


def graph_link_inputs(rng):
    """Complexes whose links of dimension at most 1 decide Reisner's check:
    disconnected codimension-2 links, 1-dimensional links with isolated
    points, bases of dimension 1 and cones over all of these."""
    for t in range(160):
        kind = t % 4
        if kind == 0:  # wings on a (k-3)-face τ: lk(τ) is two or three disjoint edges
            k = rng.randint(3, 4)
            tau = tuple(range(1, k - 1))
            wings = rng.randint(2, 3)
            facets = [tau + (k - 1 + 2 * w, k + 2 * w) for w in range(wings)]
            top = k + 2 * wings
            facets += random_family(rng, k, top, rng.randint(0, 2))
        elif kind == 1:  # triangles, plus edges that leave points in vertex links
            facets = random_family(rng, 3, 6, rng.randint(1, 4))
            support = sorted({v for f in facets for v in f})
            facets += [(rng.choice(support), 7 + e) for e in range(rng.randint(1, 2))]
        elif kind == 2:  # a graph with isolated points: a base of dimension 1
            facets = random_family(rng, 2, rng.randint(2, 7), rng.randint(1, 6))
            facets += [(8 + p,) for p in range(rng.randint(0, 2))]
        else:  # a connected graph: a path with chords
            n = rng.randint(2, 7)
            facets = [(v, v + 1) for v in range(1, n)]
            facets += random_family(rng, 2, n, rng.randint(0, 3))
        c = make_complex(facets)
        if t % 3 == 0:
            c = with_apex(c) if t % 2 else with_apex(with_apex(c))
        yield c


@pytest.mark.parametrize("field", [GF2, Q])
def test_reisner_on_links_of_dimension_at_most_one(field):
    # b_0 = components - 1 is all a graph link can fail by
    rng = random.Random(79)
    graph_failures = cones = disconnected = connected = 0
    for c in graph_link_inputs(rng):
        report = reisner_cm_check(c, field)
        assert list(report.violations) == reisner_reference(c, field), c
        graph_failures += any(c.link(v.face).dimension == 1 for v in report.violations)
        apex = Face(*set.intersection(*(set(f) for f in c.facets)))
        base = c.link(apex)
        cones += bool(apex)
        if base.dimension == 1:
            graph = reisner_cm_check(base, field).is_cm
            connected += graph
            disconnected += not graph
    # 108, 84, 40 and 60 with this seed
    assert graph_failures >= 80 and cones >= 60 and connected >= 30 and disconnected >= 40


@pytest.mark.parametrize("field", [GF2, Q])
@pytest.mark.parametrize(
    "c, ranked, links",
    [
        # complete: Cohen-Macaulay with no link built or ranked
        (make_complex(itertools.combinations(range(1, 9), 4)), 0, 0),
        # ∅, then two shapes for the eight vertex links; the edge links are graphs
        (make_complex(C84_MINUS_ONE), 3, 8),
        # ∅ only: vertex links are 5-cycles
        (make_complex(RP2_FACETS), 1, 0),
        # the apex's link; the base's six vertex links are 5-cycles
        (with_apex(make_complex(RP2_FACETS)), 1, 1),
        # a graph: its own link of ∅ is read off its components
        (make_complex([(1, 2), (3, 4)]), 0, 0),
        # ∅, then lk(3) = an edge and a point, and graphs or points elsewhere
        (make_complex([(1, 2, 3), (3, 4), (4, 5)]), 1, 0),
    ],
    ids=["C(8,4)", "C(8,4)-minus-one", "rp2", "cone-over-rp2", "two-edges", "non-pure"],
)
def test_reisner_ranks_no_graph_link_and_copies_no_complex(monkeypatch, field, c, ranked, links):
    seen_ranked, seen_links = [], []
    real_betti, real_link = kkvd.homology.reduced_betti, SimplicialComplex.link

    def betti(link, field):
        seen_ranked.append(link.dimension)
        return real_betti(link, field)

    def link(self, face):
        seen_links.append(Face(*face))
        return real_link(self, face)

    monkeypatch.setattr(kkvd.homology, "reduced_betti", betti)
    monkeypatch.setattr(SimplicialComplex, "link", link)
    report = reisner_cm_check(c, field)
    assert len(seen_ranked) == ranked and all(d > 1 for d in seen_ranked)
    # the link of ∅ is the complex itself: no link call copies it
    assert len(seen_links) == links and Face() not in seen_links
    monkeypatch.undo()
    assert list(report.violations) == reisner_reference(c, field)


def top_layer_inputs(rng):
    """Complexes of dimension 3 and 4 on at most 9 vertices: pure, non-pure
    (smaller facets beside the top ones) and cones, some on labels in 1..64."""
    for t in range(160):
        cone = t % 4 >= 2  # the apex adds one to the dimension
        k = 4 + t % 2 - cone
        facets = random_family(rng, k, rng.randint(k + 1, 9 - cone), rng.randint(2, 6))
        if t % 2:
            facets += random_family(rng, rng.randint(1, k - 1), 9 - cone, rng.randint(1, 4))
        c = make_complex(facets)
        if cone:
            c = with_apex(c)
        if t % 3 == 0:
            labels = sorted(rng.sample(range(1, 65), len(c.vertex_set)))
            relabel = dict(zip(c.vertex_set, labels))
            c = make_complex([[relabel[v] for v in f] for f in c.facets])
        yield c


@pytest.mark.parametrize("field", [GF2, Q])
def test_reisner_on_codimension_two_links_of_three_and_four_dimensional_complexes(field):
    # the (d-2)-faces' links come off the facets in one pass, not face by face
    rng = random.Random(83)
    dims, top, failing, non_pure = [], 0, 0, 0
    for c in top_layer_inputs(rng):
        report = reisner_cm_check(c, field)
        assert list(report.violations) == reisner_reference(c, field), c
        d = c.dimension
        dims.append(d)
        at_top = sum(len(v.face) == d - 1 for v in report.violations)
        top += at_top
        failing += bool(at_top)
        non_pure += not c.is_pure
    assert sorted(set(dims)) == [3, 4] and min(dims.count(3), dims.count(4)) == 80
    # 234 violations at (d-2)-faces in 84 complexes, 54 non-pure, with this seed
    assert top >= 150 and failing >= 60 and non_pure >= 40

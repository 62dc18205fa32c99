import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkvd import Face, FaceFamily, SimplicialComplex, make_complex, segment
from kkvd.complexes import _LISTED_COST, _deletion_masks, _faces_of_size, _ridges
from kkvd.complexes import _named, _shed_counts
from kkvd.errors import (
    BudgetExceeded,
    EmptyComplex,
    FaceNotInComplex,
    InvalidLabel,
    OutOfRange,
    SizeMismatch,
    TooManyVertices,
    VertexNotInComplex,
)
from kkvd.kruskal_katona import _witness_scan

from corpus import extremal_families_on_six, segment_complexes, skeleton_complexes
from oracles import _maximal_sets, brute_faces, random_complex, random_family


def faces_as_sets(family):
    return {f.vertices for f in family}


# ---------------------------------------------------------------- faces


def test_face_sorts_and_dedups():
    assert Face(3, 1, 2, 1).vertices == (1, 2, 3)


def test_face_empty_has_dimension_minus_one():
    assert Face().dimension == -1
    assert len(Face()) == 0


@pytest.mark.parametrize("bad", [0, -2, "x", 1.5, True])
def test_face_rejects_bad_labels(bad):
    with pytest.raises(InvalidLabel):
        Face(bad)


def test_face_set_behaviour():
    f = Face(2, 5)
    assert 2 in f and 3 not in f
    assert f.union(Face(3)) == Face(2, 3, 5)
    assert f.without(5) == Face(2)
    assert Face(2).issubset(f)


# ---------------------------------------------------------------- families


def test_family_dedups_and_sorts_squashed():
    fam = FaceFamily([Face(2, 3), Face(1, 4), Face(2, 3), Face(1, 2)])
    assert [f.vertices for f in fam] == [(1, 2), (2, 3), (1, 4)]
    assert fam.uniform_size == 2
    assert fam.support == (1, 2, 3, 4)


def test_family_rejects_mixed_sizes():
    with pytest.raises(SizeMismatch):
        FaceFamily([Face(1), Face(1, 2)])
    with pytest.raises(SizeMismatch):
        FaceFamily([Face(1, 2)], size=3)


def test_empty_family():
    fam = FaceFamily((), size=4)
    assert len(fam) == 0 and not fam
    assert fam.uniform_size == 4
    assert FaceFamily(()).uniform_size is None


def membership_cases(rng):
    """Families as the constructor, segments and faces_of_dim build them."""
    for t in range(300):
        k = rng.randint(1, 4)
        members = random_family(rng, k, rng.randint(k, 8), rng.randint(0, 12))
        yield FaceFamily(members, size=k)
        yield segment(k, rng.randint(0, 30))
        c = random_complex(rng)
        yield c.faces_of_dim(rng.randint(-1, c.dimension))
    yield FaceFamily(())
    yield FaceFamily((), size=0)


def test_family_membership_matches_a_set():
    rng = random.Random(29)
    for family in membership_cases(rng):
        members = set(family)
        probes = [*members, Face(), Face(1), (1, 2), [1], 1, None, "1 2", family]
        for _ in range(20):
            size = rng.randint(0, 5)
            probes.append(Face(*rng.sample(range(1, 10), size)))
        for probe in probes:
            want = isinstance(probe, Face) and probe in members
            assert (probe in family) is want, (family, probe)


def test_family_membership_bisects():
    family = segment(3, 100_000)
    rng = random.Random(31)
    probes = [Face(*rng.sample(range(1, 90), 3)) for _ in range(1000)]
    start = time.perf_counter()
    found = [probe in family for probe in probes]
    assert time.perf_counter() - start < 0.1
    members = set(family)
    assert found == [probe in members for probe in probes]
    assert 0 < sum(found) < len(probes)


# ---------------------------------------------------------------- construction


def test_make_complex_absorbs_contained_faces():
    c = make_complex([(1, 2, 3), (1, 2)])
    assert [f.vertices for f in c.facets] == [(1, 2, 3)]


def test_empty_complex_and_empty_face_complex_differ():
    empty = make_complex([])
    point_of_nothing = make_complex([Face()])
    assert empty.is_empty
    assert empty.dimension is None
    assert not point_of_nothing.is_empty
    assert point_of_nothing.dimension == -1
    assert empty != point_of_nothing


def test_two_disjoint_edges():
    c = make_complex([(1, 2), (3, 4)])
    assert faces_as_sets(c.facets) == {(1, 2), (3, 4)}
    assert c.vertex_set == (1, 2, 3, 4)


def test_vertex_cap():
    make_complex([tuple(range(1, 65))])  # 64 vertices is fine
    with pytest.raises(TooManyVertices):
        make_complex([(i,) for i in range(1, 66)])


# facet containers make_complex takes; the generator one is single-use
CONTAINERS = [tuple, list, set, frozenset, lambda s: (v for v in s), lambda s: Face(*s)]
BAD_LABELS = [True, 0, -3, 1.5, "2", None]


def random_facet_list(rng):
    """(label lists, the same facets in mixed containers): repeated labels
    and facets, dominated faces, ∅ and scattered labels of 1..64."""
    labels = rng.sample(range(1, 65), rng.randint(1, 12))
    sets = [rng.sample(labels, rng.randint(0, min(5, len(labels))))
            for _ in range(rng.randint(0, 7))]
    if sets and rng.random() < 0.4:
        sets.append(list(rng.choice(sets)))  # a repeated facet
    if sets and rng.random() < 0.4:
        sets.append(rng.choice(sets)[1:])  # a dominated face, ∅ from a point
    faces = []
    for s in sets:
        s = s + s[: rng.randint(0, len(s))]  # repeated labels
        rng.shuffle(s)
        faces.append(rng.choice(CONTAINERS)(s))
    return sets, faces


def test_construction_matches_the_maximal_sets():
    rng = random.Random(19)
    for _ in range(2000):
        sets, faces = random_facet_list(rng)
        c = make_complex(iter(faces) if rng.random() < 0.5 else faces)
        want = _maximal_sets(frozenset(s) for s in sets)
        assert {frozenset(f.vertices) for f in c.facets} == want
        assert len(c.facets) == len(want)
        assert c.vertex_set == tuple(sorted(set().union(*want)))


def test_construction_rejects_bad_labels_as_face_does():
    rng = random.Random(20)
    for _ in range(500):
        sets, faces = random_facet_list(rng)
        # hide a bad label in one facet, in its container's label order
        bad = rng.choice(BAD_LABELS)
        at = rng.randint(0, len(sets))
        labels = rng.sample(range(1, 65), rng.randint(0, 3)) + [bad]
        rng.shuffle(labels)
        wrap = rng.choice(CONTAINERS[:5])
        ordered = list(wrap(labels)) if wrap in (set, frozenset) else labels
        faces.insert(at, wrap(labels))
        with pytest.raises(InvalidLabel) as face_error:
            Face(*ordered)
        with pytest.raises(InvalidLabel) as error:
            make_complex(faces)
        assert str(error.value) == str(face_error.value)


def test_construction_counts_labels_before_the_mask_width():
    with pytest.raises(TooManyVertices, match="65 distinct vertices"):
        make_complex([(i, i + 1) for i in range(1, 65)])
    with pytest.raises(TooManyVertices, match="65 distinct vertices"):
        make_complex(iter([range(1, 66)]))


def test_labels_survive_roundtrip():
    c = make_complex([(10, 700), (700, 90000)])
    assert faces_as_sets(c.facets) == {(10, 700), (700, 90000)}
    assert c.vertex_set == (10, 700, 90000)


# ---------------------------------------------------------------- purity


@pytest.mark.parametrize(
    "facets,expected",
    [
        ([(1, 2), (3, 4)], True),
        ([(1, 2, 3), (4, 5)], False),
        ([], True),
        ([()], True),
    ],
)
def test_is_pure(facets, expected):
    assert make_complex(facets).is_pure is expected


# ---------------------------------------------------------------- face enumeration


def test_faces_of_dim_triangle():
    c = make_complex([(1, 2, 3)])
    assert faces_as_sets(c.faces_of_dim(1)) == {(1, 2), (1, 3), (2, 3)}


def test_faces_of_dim_vertices_of_disjoint_edges():
    assert len(make_complex([(1, 2), (3, 4)]).faces_of_dim(0)) == 4


def test_faces_of_dim_minus_one_is_single_empty_face():
    for facets in ([(1, 2)], [(1,)], [()], [(1, 2), (3, 4, 5)]):
        fam = make_complex(facets).faces_of_dim(-1)
        assert [f.vertices for f in fam] == [()]


def test_faces_of_dim_out_of_range():
    c = make_complex([(1, 2)])
    with pytest.raises(OutOfRange):
        c.faces_of_dim(2)
    with pytest.raises(OutOfRange):
        c.faces_of_dim(-2)
    with pytest.raises(OutOfRange):
        make_complex([]).faces_of_dim(0)


# ---------------------------------------------------------------- f-vector


def test_f_vector_examples():
    assert make_complex([(1, 2, 3)]).f_vector() == (3, 3, 1)
    assert make_complex([(1, 2), (2, 3)]).f_vector() == (3, 2)
    # two disjoint triangles: f_1 = 2d+2 with d = 2
    assert make_complex([(1, 2, 3), (4, 5, 6)]).f_vector() == (6, 6, 2)


def test_f_vector_empty_complex_raises():
    with pytest.raises(EmptyComplex):
        make_complex([]).f_vector()


def test_f_vector_of_empty_face_complex_is_empty_tuple():
    assert make_complex([()]).f_vector() == ()


@pytest.mark.parametrize("k", [*range(1, 7), 22, 40, 64])
def test_f_vector_of_simplex_is_binomial_row(k):
    import math

    c = make_complex([tuple(range(1, k + 1))])
    assert c.f_vector() == tuple(math.comb(k, i + 1) for i in range(k))


def seeded_complexes(seed: int, count: int):
    """Pure, non-pure and cone complexes on scattered labels up to 64, and {∅}."""
    rng = random.Random(seed)
    yield make_complex([()])
    for i in range(count):
        nv = rng.randint(1, 11)
        labels = rng.sample(range(1, 65), nv)
        sizes = [rng.randint(1, min(nv, 6))]
        if i % 2:  # non-pure: facet sizes drawn per facet
            sizes = [rng.randint(1, min(nv, 6)) for _ in range(8)]
        faces = [
            rng.sample(labels, rng.choice(sizes)) for _ in range(rng.randint(1, 12))
        ]
        if i % 3 == 0:  # a cone: some vertices join every face
            apex = rng.sample([v for v in range(1, 65) if v not in labels], 2)
            faces = [f + apex[: 1 + i % 2] for f in faces]
        yield make_complex(faces)


def test_f_vector_recursion_matches_listing():
    # counting by deletion and link against listing every face, 2,401 inputs
    checked = 0
    for c in seeded_complexes(1401, 2400):
        faces = brute_faces(f.vertices for f in c.facets)
        by_size = [0] * (c.dimension + 2)
        for face in faces:
            by_size[len(face)] += 1
        assert _shed_counts(c._facet_masks, {}, [10**9]) == by_size, c
        assert c.f_vector() == tuple(by_size[1:]), c
        assert c.face_count() == len(faces), c
        listed = [len(_faces_of_size(c._facet_masks, k)) for k in range(len(by_size))]
        assert listed == by_size, c
        checked += 1
    assert checked == 2401


def test_f_vector_lists_faces_where_that_costs_less():
    # 2,000 random 5-sets of 1..64 share few faces, so shedding them would
    # reach thousands of subcomplexes; listing their 64,000 subsets is cheaper
    rng = random.Random(1403)
    c = make_complex([rng.sample(range(1, 65), 5) for _ in range(2000)])
    listing = sum(1 << m.bit_count() for m in c._facet_masks)
    assert listing == 64000
    with pytest.raises(BudgetExceeded):
        _shed_counts(c._facet_masks, {}, [_LISTED_COST * listing])
    f = [len(_faces_of_size(c._facet_masks, k)) for k in range(1, 6)]
    assert c.f_vector() == tuple(f)


def test_f_vector_recursion_matches_listing_on_acceptance_corpus():
    complexes = [*segment_complexes().values(), *skeleton_complexes().values()]
    complexes += [make_complex(f) for f in extremal_families_on_six()]
    assert len(complexes) >= 10000
    for c in complexes:
        faces = brute_faces(f.vertices for f in c.facets)
        by_size = [sum(len(f) == k for f in faces) for k in range(c.dimension + 2)]
        assert _shed_counts(c._facet_masks, {}, [10**9]) == by_size, c
        assert c.f_vector() == tuple(by_size[1:]), c
        assert c.face_count() == len(faces), c


def head_faces_of_size(masks, k):
    """The face enumerator as it was: every k-subset of every facet."""
    seen = set()
    for fm in masks:
        singles = [1 << b for b in range(fm.bit_length()) if fm >> b & 1]
        seen.update(map(sum, itertools.combinations(singles, k)))
    return sorted(seen)


def test_faces_of_size_matches_every_subset_listing():
    # facets of exactly k bits are taken whole, smaller ones skipped
    rng = random.Random(1402)
    for _ in range(500):
        masks = [rng.getrandbits(rng.randint(0, 14)) for _ in range(rng.randint(1, 8))]
        top = max(m.bit_count() for m in masks)
        for k in [0, *range(1, top + 1), top + 1, top + 5]:
            assert _faces_of_size(masks, k) == head_faces_of_size(masks, k), (masks, k)


def test_f_vector_of_simplex_boundary_and_skeleton_is_read_off():
    # complete families end the recursion at once, whatever their size
    for n in (24, 40, 64):
        c = make_complex(itertools.combinations(range(1, n + 1), n - 1))
        assert c.f_vector() == tuple(math.comb(n, i + 1) for i in range(n - 1))
    c = make_complex(itertools.combinations(range(1, 25), 4))
    assert c.f_vector() == (24, 276, 2024, 10626)
    assert c.face_count() == 1 + 24 + 276 + 2024 + 10626


def test_f_vector_budget_stops_counting():
    # 40 random 20-sets of 1..64 share few faces: the recursion needs more
    # distinct subcomplexes than its budget allows
    rng = random.Random(14)
    c = make_complex([rng.sample(range(1, 65), 20) for _ in range(40)])
    with pytest.raises(BudgetExceeded, match="budget"):
        c.f_vector()
    with pytest.raises(BudgetExceeded, match="budget"):
        c.face_count()


# ---------------------------------------------------------------- link


def test_link_examples():
    c = make_complex([(1, 2), (2, 3)])
    assert faces_as_sets(c.link(Face(2)).facets) == {(1,), (3,)}
    assert c.link(Face()) == c
    assert make_complex([(1, 2, 3)]).link(Face(1)) == make_complex([(2, 3)])


def test_link_of_facet_is_empty_face_complex():
    assert make_complex([(1, 2)]).link(Face(1, 2)) == make_complex([()])


def test_link_requires_membership():
    with pytest.raises(FaceNotInComplex):
        make_complex([(1, 2)]).link(Face(3))
    with pytest.raises(FaceNotInComplex):
        make_complex([(1, 2), (2, 3)]).link(Face(1, 3))


@pytest.mark.parametrize(
    "facets, face, message",
    [
        # every label a vertex, but no facet holds them all
        ([(1, 2), (2, 3)], Face(1, 3), "Face(1, 3) is not a face of SimplicialComplex([{1,2}, {2,3}])"),
        ([(1, 2, 3), (3, 4, 5)], Face(2, 4), None),
        ([(1, 2, 3), (3, 4, 5)], Face(1, 2, 3, 4), None),
        ([(3, 5, 9), (5, 9, 12), (1,)], Face(1, 5), None),
        # ∅ in the empty complex, which has no faces at all
        ([], Face(), "Face() is not a face of SimplicialComplex([])"),
        ([], Face(1), None),
        # {∅} has ∅ as its one face
        ([()], Face(1), "Face(1) is not a face of SimplicialComplex([{}])"),
    ],
)
def test_link_refusals_keep_their_type_and_message(facets, face, message):
    # one scan for the facets through the face decides membership
    c = make_complex(facets)
    assert face not in c
    for arg in (face, face.vertices, list(face.vertices)):
        with pytest.raises(FaceNotInComplex) as error:
            c.link(arg)
        assert str(error.value) == (message or f"{face!r} is not a face of {c!r}")


def test_messages_name_a_large_complex_by_its_first_facets():
    small = make_complex([(1, 2), (2, 3)])
    assert _named(small) == repr(small)
    big = make_complex(itertools.combinations(range(1, 21), 3))
    text = _named(big)
    head = text.removesuffix(", ... 1140 facets])")
    assert len(head) <= 1024 and head.endswith("}") and repr(big).startswith(head)
    with pytest.raises(FaceNotInComplex) as error:
        big.link((1, 2, 3, 4))
    assert str(error.value) == f"Face(1, 2, 3, 4) is not a face of {text}"
    with pytest.raises(VertexNotInComplex) as error:
        big.delete_vertex(21)
    assert str(error.value) == f"vertex 21 not in {text}"
    # no whole facet in the first KiB: the repr is cut there
    huge = make_complex([[10**200 + i for i in range(10)]])
    assert _named(huge) == repr(huge)[:1024] + ", ... 1 facets])"


@pytest.mark.parametrize(
    "facets",
    [
        [()],
        [(4,)],
        [(1, 2), (2, 3), (3, 1)],
        [(3, 5, 9), (5, 9, 12), (9, 12, 64)],
        list(itertools.combinations(range(1, 7), 3)),
    ],
    ids=["empty-face", "point", "triangle", "scattered", "C(6,3)"],
)
def test_link_of_the_empty_face_and_of_a_facet(facets):
    # lk(∅) is the complex itself and a facet's link is {∅}, ∅ in {∅} included
    c = make_complex(facets)
    assert Face() in c and c.link(Face()) == c and c.link(()) == c
    for facet in c.facets:
        assert facet in c
        assert c.link(facet) == make_complex([()])


# ---------------------------------------------------------------- deletion


def test_delete_vertex_examples():
    assert make_complex([(1, 2), (2, 3)]).delete_vertex(1) == make_complex([(2, 3)])
    nonpure = make_complex([(1, 2), (3, 4)]).delete_vertex(1)
    assert faces_as_sets(nonpure.facets) == {(2,), (3, 4)}
    assert not nonpure.is_pure
    assert make_complex([(1, 2, 3)]).delete_vertex(3) == make_complex([(1, 2)])


def test_delete_last_vertex_leaves_empty_face_complex():
    assert make_complex([(1,)]).delete_vertex(1) == make_complex([()])


def test_delete_requires_vertex():
    with pytest.raises(VertexNotInComplex):
        make_complex([(1, 2)]).delete_vertex(9)
    c = make_complex([(1, 2, 3), (2, 3, 4)])
    for absent in (5, 64, 1 << 70):
        with pytest.raises(VertexNotInComplex) as error:
            c.delete_vertex(absent)
        assert str(error.value) == f"vertex {absent} not in {c!r}"


@pytest.mark.parametrize("bad", [True, 1.0, 0, -1, "1"])
def test_delete_vertex_rejects_bad_labels(bad):
    # True and 1.0 equal 1, but are no vertex labels, as for link
    c = make_complex([(1, 2, 3), (2, 3, 4)])
    with pytest.raises(InvalidLabel) as error:
        c.delete_vertex(bad)
    assert str(error.value) == f"vertex labels must be integers >= 1, got {bad!r}"


def test_link_and_membership_of_labels_outside_the_complex():
    # labels below the least, above the greatest and between the labels
    c = make_complex([(3, 5, 9), (5, 9, 12)])
    for face in [Face(1), Face(2, 3), Face(13), Face(64), Face(4), Face(5, 7),
                 Face(3, 12), Face(3, 5, 9, 12)]:
        assert face not in c
        with pytest.raises(FaceNotInComplex):
            c.link(face)
    for face, link in [(Face(3), [(5, 9)]), (Face(12), [(5, 9)]),
                       (Face(5, 9), [(3,), (12,)]), (Face(3, 5, 9), [()])]:
        assert face in c
        assert c.link(face) == make_complex(link)


def test_deletion_rule_takes_a_measured_cover():
    # the ridges two facets share, and at the witness (or, in a complete
    # family, the lowest vertex) the set the witness scan measured, decide
    # which F - x survive as the shadow of the facets avoiding x does; a
    # non-pure complex, which has no cover, keeps the maximal F - x
    rng = random.Random(16)
    non_pure = 0
    for i in range(1500):
        k = rng.randint(1, 4)
        labels = rng.sample(range(1, 65), rng.randint(k, 8))
        subsets = list(itertools.combinations(labels, k))
        if i % 10 == 0:
            facets = subsets
        elif i % 10 == 1:
            facets = [labels]
        else:
            facets = rng.sample(subsets, rng.randint(1, len(subsets)))
        if i >= 1000:
            extra = rng.randint(1, 3)
            facets += [rng.sample(labels, rng.randint(0, len(labels))) for _ in range(extra)]
        c = make_complex(facets)
        masks, labels = c._facet_masks, c.vertex_set
        covers, witness, covered = [None], None, None
        if c.is_pure:
            _, _, shared = _ridges(masks)
            hit, covered = _witness_scan(masks)
            covers, witness = [None, shared], 0 if hit is None else hit[0]
        non_pure += not c.is_pure
        for b, v in enumerate(labels):
            want = _maximal_sets(frozenset(f) - {v} for f in facets)
            for cover in covers + [covered] * (b == witness):
                got = _deletion_masks(masks, 1 << b, cover)
                faces = {frozenset(u for x, u in enumerate(labels) if m >> x & 1) for m in got}
                assert len(got) == len(faces) and faces == want, (facets, v, cover)
    assert non_pure > 100


# ---------------------------------------------------------------- properties

label = st.integers(min_value=1, max_value=12)
small_face = st.frozensets(label, min_size=0, max_size=4)
complex_strategy = st.lists(small_face, min_size=1, max_size=6).map(
    lambda fs: make_complex([tuple(sorted(f)) for f in fs])
)


@given(complex_strategy)
def test_absorption_roundtrip(c):
    # regenerating from the full face list gives the identical complex
    all_faces = [f for f in c.all_faces()]
    assert make_complex(all_faces) == c


@given(complex_strategy)
def test_link_deletion_partition(c):
    # faces containing x plus faces avoiding x account for every face
    if c.is_empty or c.dimension == -1:
        return
    x = c.vertex_set[0]
    link = c.link(Face(x))
    deletion = c.delete_vertex(x)
    with_x = {
        tuple(sorted((x,) + f.vertices)) for f in link.all_faces()
    }
    without_x = {f.vertices for f in deletion.all_faces()}
    assert with_x | without_x == {f.vertices for f in c.all_faces()}
    assert not (with_x & without_x)
    assert len(with_x) + len(without_x) == c.face_count()


@given(complex_strategy)
def test_face_enumeration_matches_brute_force(c):
    if c.is_empty:
        return
    expected = brute_faces(f.vertices for f in c.facets)
    assert {f.vertices for f in c.all_faces()} == expected


@given(complex_strategy)
@settings(max_examples=60)
def test_facets_are_inclusion_maximal(c):
    facets = [set(f.vertices) for f in c.facets]
    for a, b in itertools.permutations(facets, 2):
        assert not a < b


def test_complex_equality_ignores_construction_order():
    a = make_complex([(1, 2), (2, 3)])
    b = make_complex([(2, 3), (2, 1), (2,)])
    assert a == b and hash(a) == hash(b)


def test_canonical_facets_identify_order_isomorphic_complexes():
    a = make_complex([(2, 4), (4, 6)])
    b = make_complex([(1, 2), (2, 3)])
    assert a.canonical_facets() == b.canonical_facets()
    assert make_complex([]).canonical_facets() == ()
    assert make_complex([()]).canonical_facets() == ((),)

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkvd import (
    CompleteOnSupport,
    Face,
    FaceFamily,
    Witness,
    cascade_rep,
    comb64,
    colex_rank,
    colex_unrank,
    delta,
    find_witness,
    is_extremal,
    make_complex,
    segment,
    segment_avoiding,
    shadow,
    split_by_vertex,
    squashed_cmp,
)
from kkvd import kruskal_katona
from kkvd.complexes import _deletion_masks
from kkvd.errors import (
    EmptyComplex,
    InvalidInput,
    NotPure,
    Overflow,
    SizeMismatch,
)

from oracles import brute_shadow, brute_squashed, random_family


# ---------------------------------------------------------------- order


def test_squashed_cmp_examples():
    assert squashed_cmp(Face(1, 3), Face(2, 3)) == -1
    assert squashed_cmp(Face(3, 4), Face(1, 5)) == -1
    assert squashed_cmp(Face(1, 2), Face(1, 2)) == 0
    assert squashed_cmp(Face(2, 3), Face(1, 3)) == 1


def test_squashed_cmp_size_mismatch():
    with pytest.raises(SizeMismatch):
        squashed_cmp(Face(1), Face(1, 2))


face_of_size = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.integers(1, 20), min_size=k, max_size=k, unique=True
    ).map(lambda vs: Face(*vs))
)


@given(face_of_size, face_of_size)
def test_squashed_cmp_is_total_and_antisymmetric(a, b):
    if len(a) != len(b):
        return
    c = squashed_cmp(a, b)
    assert c in (-1, 0, 1)
    assert c == -squashed_cmp(b, a)
    assert (c == 0) == (a == b)


# ---------------------------------------------------------------- rank / unrank


def test_rank_frozen_values():
    assert colex_rank(Face(1, 3, 4)) == 2
    assert colex_unrank(2, 3) == Face(1, 3, 4)
    for k in range(1, 7):
        assert colex_rank(Face(*range(1, k + 1))) == 0
    # fifth 2-set after {1,2},{1,3},{2,3},{1,4}
    assert colex_rank(Face(2, 4)) == 4


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rank_matches_enumeration_oracle(k):
    for position, labels in enumerate(brute_squashed(k, 9)):
        assert colex_rank(Face(*labels)) == position
        assert colex_unrank(position, k) == Face(*labels)


@given(face_of_size)
def test_unrank_inverts_rank(face):
    assert colex_unrank(colex_rank(face), len(face)) == face


@given(face_of_size, face_of_size)
def test_rank_order_coincides_with_squashed_order(a, b):
    if len(a) != len(b):
        return
    cmp = squashed_cmp(a, b)
    ra, rb = colex_rank(a), colex_rank(b)
    assert cmp == (ra > rb) - (ra < rb)


def test_unrank_validates_arguments():
    with pytest.raises(InvalidInput):
        colex_unrank(0, 0)
    with pytest.raises(InvalidInput):
        colex_unrank(-1, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: colex_unrank(0, k),
        lambda k: colex_unrank(5, k),
        lambda k: segment(k, 1),
        lambda k: segment_avoiding(k, 1, 3),
    ],
    ids=["unrank-0", "unrank-5", "segment", "segment_avoiding"],
)
def test_set_sizes_past_the_64_bit_range_overflow(call):
    # not an OverflowError from range() or 1 << k, which is no KKError
    for k in (2**63, 10**20):
        with pytest.raises(Overflow, match=f"set size {k} exceeds the checked 64-bit range"):
            call(k)


@pytest.mark.parametrize("n, k", [(-1, 2), (3, -1), (-2, -2)])
def test_comb64_refuses_negative_arguments(n, k):
    # math.comb raises a ValueError that is no KKError
    with pytest.raises(InvalidInput, match=rf"C\({n},{k}\) needs n >= 0 and k >= 0"):
        comb64(n, k)


def test_comb64_in_range_formats_no_argument():
    # 10**5000 has more digits than int-to-string conversion allows
    assert comb64(10**5000, 0) == 1
    assert comb64(10**5000, 10**5000) == 1


def test_segments_and_delta_validate_arguments():
    for call, args in [
        (segment, (0, 5)),
        (segment, (3, -1)),
        (segment_avoiding, (0, 5, 1)),
        (segment_avoiding, (3, -1, 1)),
        (segment_avoiding, (3, 5, 0)),
        (delta, (5, 0)),
        (delta, (-1, 3)),
    ]:
        with pytest.raises(InvalidInput):
            call(*args)


def test_rank_overflow_on_astronomical_labels():
    with pytest.raises(Overflow):
        colex_rank(Face(10**18, 10**18 + 1))


# ---------------------------------------------------------------- segments


def test_segment_examples():
    assert [f.vertices for f in segment(3, 2)] == [(1, 2, 3), (1, 2, 4)]
    assert len(segment(2, 0)) == 0
    assert {f.vertices for f in segment(3, 4)} == set(
        itertools.combinations(range(1, 5), 3)
    )


@pytest.mark.parametrize("k,n", [(1, 8), (2, 20), (3, 25), (4, 12)])
def test_segment_is_prefix_of_enumeration(k, n):
    assert [f.vertices for f in segment(k, n)] == brute_squashed(k, 12)[:n]


def test_segment_avoiding_examples():
    assert [f.vertices for f in segment_avoiding(2, 3, 2)] == [
        (1, 3),
        (1, 4),
        (3, 4),
    ]
    assert segment_avoiding(2, 2, 10) == segment(2, 2)
    assert [f.vertices for f in segment_avoiding(1, 2, 1)] == [(2,), (3,)]


@pytest.mark.parametrize("k,i", [(1, 1), (2, 2), (2, 5), (3, 1), (3, 3)])
def test_segment_avoiding_matches_filtered_enumeration(k, i):
    filtered = [t for t in brute_squashed(k, 12) if i not in t][:10]
    assert [f.vertices for f in segment_avoiding(k, 10, i)] == filtered


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_segments_match_unranking(k):
    n = 300
    ranked = [colex_unrank(r, k).vertices for r in range(2 * n)]
    assert [f.vertices for f in segment(k, n)] == ranked[:n]
    for avoid in (1, 2, 3, 5, 9, 40, 10**9):
        kept = [t for t in ranked if avoid not in t][:n]
        assert len(kept) == n
        assert [f.vertices for f in segment_avoiding(k, n, avoid)] == kept, avoid


# ---------------------------------------------------------------- shadow


def test_shadow_examples():
    fam = FaceFamily([Face(1, 2, 3), Face(1, 2, 4)])
    assert {f.vertices for f in shadow(fam)} == {
        (1, 2),
        (1, 3),
        (2, 3),
        (1, 4),
        (2, 4),
    }
    assert [f.vertices for f in shadow(FaceFamily([Face(5)]))] == [()]


@pytest.mark.parametrize("d", range(1, 6))
def test_shadow_of_two_simplices_has_2d_plus_1_members(d):
    assert len(shadow(segment(d + 1, 2))) == 2 * d + 1


def test_shadow_of_empty_family_is_empty():
    assert len(shadow(FaceFamily((), size=3))) == 0
    assert shadow(FaceFamily(())).uniform_size is None
    # {∅} has no member below its one member, the empty face
    below_empty_face = shadow(FaceFamily([Face()]))
    assert len(below_empty_face) == 0 and below_empty_face.uniform_size == 0


@given(
    st.integers(2, 4).flatmap(
        lambda k: st.sets(
            st.frozensets(st.integers(1, 9), min_size=k, max_size=k),
            min_size=1,
            max_size=10,
        )
    )
)
def test_shadow_matches_brute_force(members):
    fam = FaceFamily([Face(*m) for m in members])
    expected = brute_shadow({tuple(sorted(m)) for m in members})
    assert {f.vertices for f in shadow(fam)} == expected


# ---------------------------------------------------------------- cascade


def test_cascade_examples():
    assert cascade_rep(5, 3).terms == ((4, 3), (2, 2))
    assert cascade_rep(math.comb(9, 4), 4).terms == ((9, 4),)
    for d in range(1, 8):
        assert cascade_rep(2, d + 1).terms == ((d + 1, d + 1), (d, d))


def test_cascade_validates_input():
    for n, k in ((0, 3), (-1, 2), (5, 0)):
        with pytest.raises(InvalidInput):
            cascade_rep(n, k)
    with pytest.raises(Overflow):
        cascade_rep(2**63, 2)


def test_cascade_validity_bulk():
    # uniqueness conditions and exact reconstruction across the whole range
    for k in range(1, 7):
        for n in range(1, 10_001):
            rep = cascade_rep(n, k)
            assert rep.value == n
            top = [a for a, _ in rep.terms]
            lows = [j for _, j in rep.terms]
            assert lows == list(range(k, k - len(lows), -1))
            assert all(a1 > a2 for a1, a2 in zip(top, top[1:]))
            a_t, t = rep.terms[-1]
            assert 1 <= t <= a_t


def linear_cascade(n, k):
    """The greedy cascade by stepping each a_j up one at a time from j - 1."""
    terms = []
    for j in range(k, 0, -1):
        if not n:
            break
        a = j - 1
        while math.comb(a + 1, j) <= n:
            a += 1
        terms.append((a, j))
        n -= math.comb(a, j)
    return tuple(terms)


def test_cascade_and_unrank_match_a_linear_scan():
    # small and large set sizes, against a search with no doubling
    rng = random.Random(20)
    for t in range(3000):
        if t % 3 == 0:
            n, k = rng.randint(1, 40), rng.randint(100, 5000)
        else:
            n, k = rng.randint(1, 100_000), rng.randint(2, 30)
        want = linear_cascade(n, k)
        assert cascade_rep(n, k).terms == want, (n, k)
        if k <= 30:
            assert colex_rank(colex_unrank(n, k)) == n, (n, k)


@pytest.mark.parametrize(
    "call, want",
    [
        # five sets of 200,000 labels: terms C(j, j), shadow 5k - 10
        (lambda: delta(5, 200_000), 999_990),
        (
            lambda: cascade_rep(3, 10**5).terms,
            ((10**5, 10**5), (10**5 - 1, 10**5 - 1), (10**5 - 2, 10**5 - 2)),
        ),
        # rank 5 swaps the label k - 4 for k + 1
        (
            lambda: colex_unrank(5, 10**5),
            Face(*range(1, 10**5 - 4), *range(10**5 - 3, 10**5 + 2)),
        ),
    ],
    ids=["delta", "cascade_rep", "colex_unrank"],
)
def test_greedy_on_a_large_set_size_is_fast(call, want):
    # the search above j - 1 never forms C(2j, j), a number of about 0.3 j digits
    start = time.perf_counter()
    assert call() == want
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------- delta


def test_delta_of_two_member_families_is_linear():
    for d in range(1, 21):
        assert delta(2, d + 1) == 2 * d + 1


def test_delta_frozen_values():
    assert delta(5, 3) == 8
    assert len(shadow(segment(3, 5))) == 8
    assert delta(10, 2) == 5
    assert delta(0, 6) == 0


def test_delta_agrees_with_shadow_enumeration():
    for k in range(1, 6):
        for n in range(0, 61):
            assert delta(n, k) == len(shadow(segment(k, n))), (k, n)


def test_delta_matches_the_cascade_shadow_count():
    # delta sums the shadow itself, counting a tail of unit terms at once
    for k in range(1, 30):
        for n in range(1, 400):
            assert delta(n, k) == cascade_rep(n, k).shadow_count(), (k, n)


def test_delta_counts_a_tail_of_unit_terms_at_once():
    # n <= k: the cascade is C(k, k) + C(k-1, k-1) + ..., n unit terms
    start = time.perf_counter()
    assert delta(10**6, 10**6) == 500000500000
    assert time.perf_counter() - start < 0.1
    with pytest.raises(Overflow, match="^shadow bound .* exceeds the checked 64-bit range$"):
        delta(10**12, 10**12)


# ---------------------------------------------------------------- extremality


def test_is_extremal_examples():
    assert is_extremal(make_complex([(1, 2), (2, 3)])) is True
    assert is_extremal(make_complex([(1, 2), (3, 4)])) is False
    assert is_extremal(make_complex([(1,), (5,), (9,)])) is True


def test_is_extremal_errors():
    with pytest.raises(EmptyComplex):
        is_extremal(make_complex([]))
    with pytest.raises(NotPure):
        is_extremal(make_complex([(1, 2, 3), (4, 5)]))


def test_segments_are_extremal():
    for k in range(2, 5):
        for n in range(1, 16):
            assert is_extremal(make_complex(segment(k, n))), (k, n)


# ---------------------------------------------------------------- splits


def test_split_by_vertex_examples():
    fam = FaceFamily([Face(1, 2, 3), Face(1, 2, 4)])
    b, c = split_by_vertex(fam, 4)
    assert [f.vertices for f in b] == [(1, 2, 3)]
    assert [f.vertices for f in c] == [(1, 2)]
    b, c = split_by_vertex(fam, 1)
    assert len(b) == 0
    assert {f.vertices for f in c} == {(2, 3), (2, 4)}
    b, c = split_by_vertex(fam, 9)
    assert b == fam and len(c) == 0


@given(
    st.sets(
        st.frozensets(st.integers(1, 8), min_size=3, max_size=3),
        min_size=1,
        max_size=8,
    ),
    st.integers(1, 8),
)
def test_split_partitions_the_family(members, vertex):
    fam = FaceFamily([Face(*m) for m in members])
    b, c = split_by_vertex(fam, vertex)
    assert len(b) + len(c) == len(fam)
    assert all(vertex not in f for f in b)
    assert {f.with_vertex(vertex).vertices for f in c} == {
        f.vertices for f in fam if vertex in f
    }


# ---------------------------------------------------------------- witness


def test_find_witness_returns_first_ascending_vertex():
    # both 3 and 4 qualify for this family; the scan takes the smaller
    w = find_witness(FaceFamily([Face(1, 2, 3), Face(1, 2, 4)]))
    assert w == Witness(vertex=3, shadow_b_count=3, c_count=1)


def test_find_witness_complete_family():
    w = find_witness(FaceFamily([Face(1, 2), Face(1, 3), Face(2, 3)]))
    assert w == CompleteOnSupport(support=(1, 2, 3))


def test_find_witness_complete_family_takes_no_shadow(monkeypatch):
    # a complete family is known by its size: neither a vertex's shadow nor
    # the ridge tally is taken
    calls = []

    def counting(original):
        def helper(masks):
            calls.append(original.__name__)
            return original(masks)

        return helper

    for name in ("_shadow_masks", "_ridges"):
        monkeypatch.setattr(
            kruskal_katona, name, counting(getattr(kruskal_katona, name))
        )
    for support, k in [((1, 2, 3), 2), (tuple(range(1, 11)), 4), ((2, 5, 7), 3)]:
        family = FaceFamily(itertools.combinations(support, k))
        assert find_witness(family) == CompleteOnSupport(support=support)
    assert calls == []
    # a family that is not complete is still scanned
    find_witness(FaceFamily([Face(1, 2, 3), Face(1, 2, 4)]))
    assert calls


def brute_witness(family):
    """The first vertex whose avoiding part's shadow beats its stripped part."""
    for v in family.support:
        avoiding, stripped = split_by_vertex(family, v)
        if len(shadow(avoiding)) > len(stripped):
            return Witness(v, len(shadow(avoiding)), len(stripped))
    return CompleteOnSupport(support=family.support)


def test_witness_scan_matches_each_vertex_shadow(monkeypatch):
    # low vertices are tried by their shadow, later ones by one ridge tally;
    # both must give the first witness, its counts and the exact deletion
    tallies = []
    ridges = kruskal_katona._ridges
    monkeypatch.setattr(
        kruskal_katona, "_ridges", lambda m: tallies.append(m) or ridges(m)
    )
    rng = random.Random(14)
    families = [segment(k, n) for k in (2, 3, 4) for n in range(1, 80, 7)]
    for _ in range(600):
        k = rng.randint(1, 4)
        families.append(
            FaceFamily(random_family(rng, k, rng.randint(k, 9), rng.randint(1, 40)))
        )
    for family in families:
        result = find_witness(family)
        assert result == brute_witness(family), list(family)
        if isinstance(result, Witness):
            c = make_complex(family)
            masks = c._facet_masks
            hit, covered = kruskal_katona._witness_scan(masks)
            deletion = _deletion_masks(masks, 1 << hit[0], covered)
            labels = c.vertex_set
            got = {tuple(v for b, v in enumerate(labels) if m >> b & 1) for m in deletion}
            want = {f.vertices for f in c.delete_vertex(result.vertex).facets}
            assert len(deletion) == len(got) and got == want, list(family)
    assert tallies


def test_find_witness_single_set_is_complete_on_itself():
    w = find_witness(FaceFamily([Face(2, 5, 7)]))
    assert w == CompleteOnSupport(support=(2, 5, 7))


def test_find_witness_needs_members():
    with pytest.raises(InvalidInput):
        find_witness(FaceFamily((), size=2))


def test_witness_dichotomy_random_families():
    rng = random.Random(2024)
    for _ in range(300):
        k = rng.randint(1, 4)
        fam = FaceFamily(random_family(rng, k, rng.randint(k, 8), rng.randint(1, 20)))
        result = find_witness(fam)
        if isinstance(result, Witness):
            assert result.shadow_b_count > result.c_count
        else:
            assert len(fam) == math.comb(len(result.support), k)


# ------------------------------------------------- shadow decomposition identity


@given(
    st.sets(
        st.frozensets(st.integers(1, 9), min_size=3, max_size=3),
        min_size=1,
        max_size=10,
    ),
    st.integers(1, 9),
)
def test_shadow_splits_along_any_vertex(members, vertex):
    # shadow(F) = shadow(B) ∪ C ∪ ({v} joined to shadow(C)), with the first
    # and last parts disjoint
    fam = FaceFamily([Face(*m) for m in members])
    b, c = split_by_vertex(fam, vertex)
    whole = {f.vertices for f in shadow(fam)}
    part_b = {f.vertices for f in shadow(b)}
    part_c = {f.vertices for f in c}
    joined = {f.with_vertex(vertex).vertices for f in shadow(c)}
    assert whole == part_b | part_c | joined
    assert not (part_b & joined)


def test_boundary_counting_bound():
    # summing |shadow(B_i)| over the support dominates k * n whenever the
    # support is strictly larger than k (for |support| = k every member
    # contains every support vertex, all B_i are empty, and the family is
    # trivially complete on its support)
    rng = random.Random(77)
    checked = 0
    while checked < 200:
        k = rng.randint(2, 4)
        fam = FaceFamily(random_family(rng, k, rng.randint(k + 1, 9), rng.randint(1, 15)))
        if len(fam.support) <= k:
            continue
        total = 0
        for i in fam.support:
            b, _ = split_by_vertex(fam, i)
            total += len(shadow(b))
        assert total >= k * len(fam)
        checked += 1


# ---------------------------------------------------------------- KK inequality


def test_kruskal_katona_inequality_random_sample():
    rng = random.Random(11)
    for _ in range(300):
        k = rng.randint(1, 4)
        fam = FaceFamily(random_family(rng, k, rng.randint(k, 9), rng.randint(1, 30)))
        assert len(shadow(fam)) >= delta(len(fam), k)

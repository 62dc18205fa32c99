import itertools
import math
import random
import time
from pathlib import Path

import pytest

from kkvd import (
    Empty,
    EmptyFace,
    Face,
    Point,
    SimplicialComplex,
    Split,
    Strategy,
    certify_vd,
    diagnose_certificate,
    find_shelling,
    is_extremal,
    make_complex,
    segment,
    tree_depth,
    validate_certificate,
)
from kkvd import decomposition
from kkvd.errors import BudgetExceeded, InvalidInput, LimitExceeded, NotExtremal
from kkvd.errors import NotPure

from oracles import (
    brute_vertex_decomposable,
    is_valid_shelling,
    random_family,
    torus_facets,
)


def walk_splits(c, tree):
    """Yield (complex, vertex, link, deletion) at every split of the tree."""
    if isinstance(tree, Split):
        link = c.link(Face(tree.vertex))
        deletion = c.delete_vertex(tree.vertex)
        yield c, tree.vertex, link, deletion
        yield from walk_splits(link, tree.link)
        yield from walk_splits(deletion, tree.deletion)


def distinct_nodes(tree) -> list:
    """The node objects of a tree, each shared one once."""
    seen = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if isinstance(node, Split):
                stack += [node.link, node.deletion]
    return list(seen.values())


# ---------------------------------------------------------------- certify


def test_certify_path_of_two_edges():
    c = make_complex([(1, 2), (2, 3)])
    report = certify_vd(c)
    assert report.decomposable
    assert report.strategy_used is Strategy.EXTREMAL
    assert validate_certificate(c, report.tree)
    # the first split sheds vertex 1: its link is the point 2 and its
    # deletion is the remaining edge
    assert isinstance(report.tree, Split) and report.tree.vertex == 1
    assert report.tree.link == Point(2)


def test_certify_two_disjoint_edges_fails():
    c = make_complex([(1, 2), (3, 4)])
    for strategy in (Strategy.AUTO, Strategy.EXHAUSTIVE):
        report = certify_vd(c, strategy)
        assert not report.decomposable
        assert report.strategy_used is Strategy.EXHAUSTIVE
        assert report.tree is None
        assert [str(s) for s in report.obstruction] == [
            "vertex 1: deletion is not pure"
        ]


def test_extremal_strategy_rejects_non_extremal_input():
    with pytest.raises(NotExtremal):
        certify_vd(make_complex([(1, 2), (3, 4)]), Strategy.EXTREMAL)


def test_certify_rejects_non_pure_input():
    with pytest.raises(NotPure):
        certify_vd(make_complex([(1, 2, 3), (4, 5)]))


@pytest.mark.parametrize("k", range(1, 7))
def test_single_simplex_is_decomposable(k):
    c = make_complex([tuple(range(1, k + 1))])
    report = certify_vd(c)
    assert report.decomposable
    assert validate_certificate(c, report.tree)


STRATEGIES = [Strategy.AUTO, Strategy.EXHAUSTIVE]
RP2 = Path(__file__).parent / "data" / "rp2.txt"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cone_points_share_one_subtree(strategy):
    # every vertex of a single facet is a cone point, whose link is its
    # deletion: 39 splits and one point instead of 2^40 - 1 nodes
    c = make_complex([tuple(range(1, 41))])
    report = certify_vd(c, strategy)
    distinct = distinct_nodes(report.tree)
    splits = [n for n in distinct if isinstance(n, Split)]
    assert all(n.link is n.deletion for n in splits)
    assert (len(distinct), len(splits)) == (40, 39)
    assert tree_depth(report.tree) == 39
    if strategy is Strategy.EXHAUSTIVE:
        assert report.tree == certify_vd(c, Strategy.EXTREMAL).tree


@pytest.mark.parametrize(
    "m, k",
    [(24, 4), (10, 3), (1, 1), (2, 2), (8, 8), (16, 16)],
    ids=["C(24,4)", "C(10,3)", "facet1", "facet2", "facet8", "facet16"],
)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_complete_families_shed_into_shared_suffix_subtrees(strategy, m, k):
    # the smallest vertex of all k-sets of 1..m sheds into all (k-1)-sets
    # and all k-sets of 2..m, and so on: O(m·k) distinct subcomplexes, each
    # certified once, where C(24, 4) written out in full has about 21,500
    # nodes; a single facet is C(m, m)
    c = make_complex(itertools.combinations(range(1, m + 1), k))
    start = time.perf_counter()
    report = certify_vd(c, strategy)
    assert time.perf_counter() - start < 1.0
    if strategy is Strategy.AUTO:
        assert report.strategy_used is Strategy.EXTREMAL
    else:
        assert report.strategy_used is strategy
    assert len(distinct_nodes(report.tree)) <= 150
    assert report.tree.vertex == 1
    assert validate_certificate(c, report.tree)
    if strategy is Strategy.EXHAUSTIVE:
        # any vertex of a complete family sheds, and both strategies shed
        # the smallest first
        assert report.tree == certify_vd(c, Strategy.EXTREMAL).tree


@pytest.mark.parametrize(
    "strategy, k, n, distinct",
    [(Strategy.AUTO, 4, 5000, 798), (Strategy.EXHAUSTIVE, 4, 2000, 148)],
)
def test_large_segments_certify_within_node_budget(strategy, k, n, distinct):
    # the largest searches the node budget must leave room for
    c = make_complex(segment(k, n))
    report = certify_vd(c, strategy)
    assert report.decomposable
    assert len(distinct_nodes(report.tree)) <= distinct
    assert validate_certificate(c, report.tree)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_torus_exceeds_node_budget(strategy):
    # the 5×5 torus is ridge connected and its vertex links are hexagons,
    # which decompose, so neither cut ends its own scan: the search is
    # refused at its node budget
    c = make_complex(torus_facets(5, 5))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="budget"):
        certify_vd(c, strategy)
    assert time.perf_counter() - start < 1.0


def clique_edges(*label_sets):
    return [e for labels in label_sets for e in itertools.combinations(labels, 2)]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "label_sets",
    [
        (range(1, 21, 2), range(2, 21, 2)),
        (range(1, 9), range(9, 17), range(17, 25)),
    ],
    ids=["K10 odd,even", "3 K8"],
)
def test_disjoint_cliques_are_not_decomposable(label_sets, strategy):
    # the first failed vertex finds the facets split into cliques, and the
    # disconnected node ends its scan
    c = make_complex(clique_edges(*label_sets))
    start = time.perf_counter()
    report = certify_vd(c, strategy)
    assert time.perf_counter() - start < 1.0
    assert not report.decomposable
    assert report.strategy_used is Strategy.EXHAUSTIVE
    obstruction_walk(c, report.obstruction)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_bridged_cliques_certify(strategy):
    # K10 on the odd and on the even labels of 1..20, joined by the edge {1, 2}
    c = make_complex(clique_edges(range(1, 21, 2), range(2, 21, 2)) + [(1, 2)])
    report = certify_vd(c, strategy)
    assert report.decomposable
    assert validate_certificate(c, report.tree)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_projective_plane_join_sphere_is_not_decomposable(strategy):
    # RP² on 1..6 joined with the boundary of the simplex on 7..13: each
    # failed node is ridge connected, and only the link cut keeps the search
    # far from its node budget
    rp2 = [tuple(map(int, line.split())) for line in RP2.read_text().splitlines()]
    sphere = list(itertools.combinations(range(7, 14), 6))
    c = make_complex([f + g for f in rp2 for g in sphere])
    start = time.perf_counter()
    report = certify_vd(c, strategy)
    assert time.perf_counter() - start < 1.0
    assert not report.decomposable
    obstruction_walk(c, report.obstruction)


def test_base_cases():
    assert certify_vd(make_complex([])).tree == Empty()
    assert certify_vd(make_complex([()])).tree == EmptyFace()
    assert certify_vd(make_complex([(7,)])).tree == Point(7)


def test_dimension_zero_decomposes_vertex_by_vertex():
    c = make_complex([(1,), (4,), (9,)])
    report = certify_vd(c)
    assert report.decomposable
    assert validate_certificate(c, report.tree)
    assert report.tree == Split(
        1, EmptyFace(), Split(4, EmptyFace(), Point(9))
    )


@pytest.mark.parametrize("d", range(0, 4))
def test_segments_certify_under_extremal_strategy(d):
    for n in range(1, 16):
        c = make_complex(segment(d + 1, n))
        report = certify_vd(c, Strategy.EXTREMAL)
        assert report.decomposable, (d, n)
        assert validate_certificate(c, report.tree), (d, n)


def test_strategies_agree_on_extremal_inputs():
    for d in range(0, 3):
        for n in range(1, 11):
            c = make_complex(segment(d + 1, n))
            a = certify_vd(c, Strategy.EXTREMAL)
            b = certify_vd(c, Strategy.EXHAUSTIVE)
            assert a.decomposable and b.decomposable
            assert validate_certificate(c, b.tree)


def test_auto_uses_exhaustive_on_non_extremal_decomposable_complex():
    # a 2-path plus a pendant edge off the middle: pure, decomposable, but
    # f_0 = 4 > 3 = delta_1(3)
    c = make_complex([(1, 2), (2, 3), (2, 4)])
    assert not is_extremal(c)
    report = certify_vd(c)
    assert report.decomposable
    assert report.strategy_used is Strategy.EXHAUSTIVE
    assert validate_certificate(c, report.tree)


def test_tree_depth_bounded_by_vertex_count():
    for d in range(0, 3):
        for n in range(1, 13):
            c = make_complex(segment(d + 1, n))
            report = certify_vd(c)
            assert tree_depth(report.tree) <= len(c.vertex_set)


def test_extremal_splits_keep_both_sides_extremal():
    # replay each split: away from the complete-family branch the link and
    # the deletion must both stay extremal
    for d in range(1, 4):
        for n in range(2, 13):
            c = make_complex(segment(d + 1, n))
            report = certify_vd(c, Strategy.EXTREMAL)
            for node, vertex, link, deletion in walk_splits(c, report.tree):
                nd = node.dimension
                complete = node.facet_count == math.comb(
                    len(node.vertex_set), nd + 1
                )
                if not complete:
                    assert is_extremal(link), (d, n, vertex)
                    assert is_extremal(deletion), (d, n, vertex)


def test_lowest_vertex_shedding_gives_valid_tree_or_not_extremal(monkeypatch):
    # with no witness every node sheds its lowest vertex, which the paper's
    # lemma does not cover; exact links and deletions, the deletion purity
    # check and the final NotExtremal still leave no wrong answer
    monkeypatch.setattr(decomposition, "_witness_scan", lambda masks: (None, None))
    rng = random.Random(13)
    outcomes = set()
    for k in range(1, 5):
        for n in range(1, 41):
            family = segment(k, n)
            support = sorted({v for f in family for v in f})
            label = dict(zip(support, rng.sample(range(1, 65), len(support))))
            c = make_complex([[label[v] for v in f] for f in family])
            try:
                tree = certify_vd(c, Strategy.EXTREMAL).tree
            except NotExtremal:
                outcomes.add("refused")
                continue
            assert validate_certificate(c, tree), (k, n)
            outcomes.add("valid")
    assert outcomes == {"valid", "refused"}


def test_memoization_shares_isomorphic_subproblems():
    # the subcomplexes of a complete 3-uniform family recur along many
    # paths; the exhaustive search memoizes equal ones and must finish fast
    # and correctly
    import itertools

    c = make_complex(list(itertools.combinations(range(1, 8), 3)))
    report = certify_vd(c, Strategy.EXHAUSTIVE)
    assert report.decomposable
    assert validate_certificate(c, report.tree)


def relabel_tree(tree, label):
    """A copy of the tree with each vertex v renamed label[v]; None stays None."""
    if isinstance(tree, Split):
        return Split(
            label[tree.vertex],
            relabel_tree(tree.link, label),
            relabel_tree(tree.deletion, label),
        )
    if isinstance(tree, Point):
        return Point(label[tree.vertex])
    return tree


def obstruction_walk(c, steps) -> list:
    """The subcomplexes an obstruction path passes through, c first.

    Every vertex of a failing complex fails and the scan ascends, so each
    step names the smallest vertex; the path ends at an impure deletion.
    """
    walk = [c]
    for i, step in enumerate(steps):
        assert step.vertex == min(c.vertex_set), (c, step)
        deletion = c.delete_vertex(step.vertex)
        if step.reason == "deletion is not pure":
            assert not deletion.is_pure and i == len(steps) - 1, (c, step)
            return walk
        if step.reason == "link is not decomposable":
            c = c.link(Face(step.vertex))
        else:
            assert step.reason == "deletion is not decomposable", step
            c = deletion
        walk.append(c)
    raise AssertionError(f"{steps} does not end at an impure deletion")


def disjoint_union(rng) -> tuple[int, list]:
    """(a + b, two random k-uniform families on 1..a and a+1..a+b), a + b <= 8."""
    k = rng.randint(1, 3)
    a = rng.randint(k, 8 - k)
    b = rng.randint(k, 8 - a)
    first = random_family(rng, k, a, rng.randint(1, 6))
    second = random_family(rng, k, b, rng.randint(1, 6))
    return a + b, first + [Face(*(v + a for v in f)) for f in second]


def test_verdicts_match_brute_force_oracle():
    # negative verdicts come only from the exhaustive search and its cuts;
    # compare every verdict with the definition on small pure complexes
    rng = random.Random(1302)
    negatives = 0
    for draw in range(1600):
        if draw < 1300:
            # draws 1000-1299 are denser: 10-14 triangles on 7 vertices
            dense = draw >= 1000
            nv = 7 if dense else rng.randint(2, 8)
            k = 3 if dense else rng.randint(1, min(nv, 4))
            labels = rng.sample(range(1, 65), nv)
            n = rng.randint(10, 14) if dense else rng.randint(1, 8)
            family = random_family(rng, k, nv, n)
        else:
            # the last 300 are disjoint unions of two families on at most 8
            # labels in total, which for k >= 2 are not ridge connected
            nv, family = disjoint_union(rng)
            labels = rng.sample(range(1, 65), nv)
        facets = [[labels[v - 1] for v in f] for f in family]
        expected = brute_vertex_decomposable(facets)
        for strategy in STRATEGIES:
            report = certify_vd(make_complex(facets), strategy)
            assert report.decomposable == expected, (strategy, facets)
            if report.decomposable:
                assert validate_certificate(make_complex(facets), report.tree)
            else:
                # each subcomplex the path names is itself not decomposable
                for sub in obstruction_walk(make_complex(facets), report.obstruction):
                    assert not brute_vertex_decomposable(sub.facets), (facets, sub)
        negatives += not expected
        # the search runs on fixed labels: an order-preserving relabeling
        # must carry the exhaustive answer along, tree and obstruction alike
        label = dict(zip(range(1, nv + 1), sorted(labels)))
        plain = certify_vd(make_complex(family), Strategy.EXHAUSTIVE)
        scattered = certify_vd(
            make_complex([[label[v] for v in f] for f in family]),
            Strategy.EXHAUSTIVE,
        )
        assert scattered.decomposable == plain.decomposable, family
        assert scattered.tree == relabel_tree(plain.tree, label), family
        assert [(s.vertex, s.reason) for s in scattered.obstruction] == [
            (label[s.vertex], s.reason) for s in plain.obstruction
        ], family
    assert negatives >= 100


# ---------------------------------------------------------------- tree identity


def chain_with_last_point(tree, vertex):
    """A copy of a cone-point chain whose final point names `vertex`."""
    if not isinstance(tree, Split):
        return Point(vertex)
    child = chain_with_last_point(tree.link, vertex)
    return Split(tree.vertex, child, child)


def test_shared_trees_compare_and_hash_in_distinct_nodes():
    # written out in full these trees have 2^20 - 1 nodes each
    c = make_complex([tuple(range(1, 21))])
    a, b = certify_vd(c).tree, certify_vd(c).tree
    assert a is not b
    start = time.perf_counter()
    assert hash(a) == hash(b)
    assert a == b
    assert time.perf_counter() - start < 0.01
    changed = chain_with_last_point(b, 21)
    start = time.perf_counter()
    assert a != changed
    assert time.perf_counter() - start < 0.01
    assert chain_with_last_point(b, 20) == a


def test_split_equality_stays_structural():
    shared = Point(3)
    assert Split(1, shared, shared) == Split(1, Point(3), Point(3))
    assert Split(1, shared, Empty()) == Split(1, shared, Empty())  # one child object
    assert hash(Split(1, shared, shared)) == hash(Split(1, Point(3), Point(3)))
    assert Split(1, Point(3), Point(3)) != Split(1, Point(3), Point(4))
    assert Split(1, Point(4), Point(3)) != Split(1, Point(3), Point(3))
    assert Split(1, Point(3), Point(3)) != Split(2, Point(3), Point(3))
    assert Split(1, Point(3), EmptyFace()) != Point(3)
    assert len({Split(1, Point(2), Empty()), Split(1, Point(2), Empty())}) == 1


# ---------------------------------------------------------------- validation


def test_validate_round_trip_is_contractual():
    c = make_complex([(1, 2), (2, 3)])
    report = certify_vd(c)
    assert validate_certificate(c, report.tree)


def test_validate_rejects_split_on_disjoint_edges():
    c = make_complex([(1, 2), (3, 4)])
    tree = Split(1, Point(2), Point(3))
    assert not validate_certificate(c, tree)
    assert "not pure" in diagnose_certificate(c, tree)


def test_validate_point_leaf():
    assert validate_certificate(make_complex([(5,)]), Point(5))
    assert not validate_certificate(make_complex([(5,)]), Point(6))
    assert not validate_certificate(make_complex([(5, 6)]), Point(5))
    # every other leaf kind, and a node that is no tree at all
    point = make_complex([(1,)])
    assert diagnose_certificate(make_complex([]), Empty()) is None
    assert diagnose_certificate(point, Empty()) == (
        "claimed empty, but complex is SimplicialComplex([{1}])"
    )
    assert diagnose_certificate(make_complex([()]), EmptyFace()) is None
    assert diagnose_certificate(point, EmptyFace()) == (
        "claimed {∅}, but complex is SimplicialComplex([{1}])"
    )
    assert diagnose_certificate(point, "split") == "unknown tree node 'split'"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_validation_replays_each_shared_node_once(strategy):
    c = make_complex([tuple(range(1, 19))])
    tree = certify_vd(c, strategy).tree
    start = time.perf_counter()
    assert validate_certificate(c, tree)
    assert time.perf_counter() - start < 0.01


def test_reused_node_is_judged_per_complex():
    # one node object under a link and a deletion that differ: it is judged
    # against each complex, not accepted once for both
    point = Point(2)
    path = make_complex([(1, 2), (2, 3)])
    assert diagnose_certificate(path, Split(1, point, point)) == (
        "deletion of 1: claimed single vertex 2, "
        "but complex is SimplicialComplex([{2,3}])"
    )
    shared = Split(2, Point(3), Point(3))
    two_triangles = make_complex([(1, 2, 3), (2, 3, 4)])
    assert diagnose_certificate(two_triangles, Split(1, shared, shared)) == (
        "deletion of 1: link of 2: claimed single vertex 3, "
        "but complex is SimplicialComplex([{3,4}])"
    )


def test_diagnosis_of_mutated_trees():
    c = make_complex(segment(3, 6))
    tree = certify_vd(c).tree
    assert tree.vertex == 2
    # a wrong split vertex, and link and deletion swapped
    assert diagnose_certificate(c, Split(5, tree.link, tree.deletion)) == (
        "link of 5: link of 3: deletion of 1: claimed single vertex 4, "
        "but complex is SimplicialComplex([{}])"
    )
    assert diagnose_certificate(c, Split(2, tree.deletion, tree.link)) == (
        "link of 2: link of 4: link of 1: claimed single vertex 3, "
        "but complex is SimplicialComplex([{}])"
    )
    # a node reused under different subcomplexes, right in the first only
    point = Point(3)
    triangle = make_complex([(1, 2), (1, 3), (2, 3)])
    assert diagnose_certificate(
        triangle, Split(1, Split(2, EmptyFace(), point), Split(3, point, point))
    ) == "deletion of 1: link of 3: claimed single vertex 3, but complex is SimplicialComplex([{2}])"


def test_cone_point_deletion_is_judged_against_its_link():
    # 1 lies in every facet, so its deletion is its link, the path 2-3-4
    cone = make_complex([(1, 2, 3), (1, 3, 4)])
    link_tree = certify_vd(cone.link(Face(1))).tree
    assert validate_certificate(cone, Split(1, link_tree, link_tree))
    assert diagnose_certificate(cone, Split(1, link_tree, Split(3, Point(2), Point(4)))) == (
        "deletion of 1: link of 3: claimed single vertex 2, "
        "but complex is SimplicialComplex([{2}, {4}])"
    )
    assert diagnose_certificate(cone, Split(1, link_tree, Split(2, EmptyFace(), Point(3)))) == (
        "deletion of 1: link of 2: claimed {∅}, but complex is SimplicialComplex([{3}])"
    )


def split_visits(facets, tree, seen):
    """(splits, cone splits) judged once per (node, subcomplex), on label sets."""
    if not isinstance(tree, Split) or (id(tree), facets) in seen:
        return 0, 0
    seen.add((id(tree), facets))
    v = tree.vertex
    link = frozenset(f - {v} for f in facets if v in f)
    rest = [f - {v} for f in facets]
    deletion = frozenset(f for f in rest if not any(f < g for g in rest))
    a = split_visits(link, tree.link, seen)
    b = split_visits(deletion, tree.deletion, seen)
    cone = all(v in f for f in facets)
    return 1 + a[0] + b[0], cone + a[1] + b[1]


def test_validation_deletes_a_vertex_only_at_splits_off_cones(monkeypatch):
    calls = {"link": 0, "delete_vertex": 0}
    for name in calls:
        method = getattr(SimplicialComplex, name)

        def counted(self, arg, method=method, name=name):
            calls[name] += 1
            return method(self, arg)

        monkeypatch.setattr(SimplicialComplex, name, counted)
    facet = make_complex([tuple(range(1, 9))])
    assert validate_certificate(facet, certify_vd(facet).tree)
    assert calls == {"link": 7, "delete_vertex": 0}  # a cone point at each split
    rng = random.Random(21)
    complexes = [facet, make_complex([(1, 2), (1, 3), (2, 3)])]
    complexes += [make_complex(segment(k, rng.randint(2, 30))) for k in (2, 3, 4) * 5]
    cones = 0
    for c in complexes:
        tree = certify_vd(c).tree
        facets = frozenset(frozenset(f.vertices) for f in c.facets)
        splits, cone_splits = split_visits(facets, tree, set())
        calls.update(link=0, delete_vertex=0)
        assert validate_certificate(c, tree)
        assert calls == {"link": splits, "delete_vertex": splits - cone_splits}
        cones += cone_splits
    assert cones > 0


@pytest.mark.parametrize("bad", [0, -1, True, 1.0, "1"])
def test_diagnosis_names_a_vertex_that_is_no_label(bad):
    # checked before the leaf claim, as Point(True) == Point(1)
    reason = f"node vertex must be a positive integer, got {bad!r}"
    assert diagnose_certificate(make_complex([(1,)]), Point(bad)) == reason
    path = make_complex([(1, 2), (2, 3)])
    assert validate_certificate(path, Split(1, Point(2), Split(2, Point(3), Point(3))))
    for tree, where in [
        (Split(bad, Point(2), Point(3)), ""),
        (Split(1, Point(bad), Split(2, Point(3), Point(3))), "link of 1: "),
        (Split(1, Point(2), Split(bad, Point(3), Point(3))), "deletion of 1: "),
        (Split(1, Point(2), Split(2, Point(bad), Point(3))), "deletion of 1: link of 2: "),
    ]:
        assert diagnose_certificate(path, tree) == where + reason
        assert not validate_certificate(path, tree)


def test_validate_checks_vertex_membership():
    c = make_complex([(1, 2)])
    assert not validate_certificate(c, Split(9, Point(2), Point(2)))


def test_mutated_certificates_are_rejected():
    rng = random.Random(5)
    pool = []
    for d in range(0, 3):
        for n in range(2, 10):
            c = make_complex(segment(d + 1, n))
            tree = certify_vd(c).tree
            if isinstance(tree, Split) and len(c.vertex_set) >= 2:
                pool.append((c, tree))
    rejected = 0
    for trial in range(100):
        c, tree = pool[trial % len(pool)]
        others = [v for v in c.vertex_set if v != tree.vertex]
        bad_vertex = rng.choice(others)
        mutated = Split(bad_vertex, tree.link, tree.deletion)
        if not validate_certificate(c, mutated):
            rejected += 1
    assert rejected == 100


# ---------------------------------------------------------------- shelling


def test_shelling_of_two_edge_path():
    order = find_shelling(make_complex([(1, 2), (2, 3)]))
    assert order is not None
    assert is_valid_shelling([set(f.vertices) for f in order])


def test_no_shelling_for_disjoint_edges():
    assert find_shelling(make_complex([(1, 2), (3, 4)])) is None


def test_single_facet_shelling():
    assert find_shelling(make_complex([(1, 2, 3)])) == (Face(1, 2, 3),)
    assert find_shelling(make_complex([])) == ()
    assert find_shelling(make_complex([()])) == (Face(),)


def test_points_always_shell():
    order = find_shelling(make_complex([(1,), (2,), (3,)]))
    assert order is not None and len(order) == 3


def test_shelling_respects_facet_limit():
    c = make_complex([(i, i + 1) for i in range(1, 11)])
    with pytest.raises(LimitExceeded):
        find_shelling(c)
    assert find_shelling(c, facet_limit=10) is not None


def test_shelling_requires_pure_input():
    with pytest.raises(NotPure):
        find_shelling(make_complex([(1, 2, 3), (4, 5)]))


def test_shelling_is_the_first_order_the_oracle_accepts():
    # by index into c.facets, the search answers the lexicographically first
    # valid permutation, and None exactly when the oracle accepts none
    rng = random.Random(17)
    complexes = [make_complex([]), make_complex([()])]
    for _ in range(800):
        k = rng.randint(1, 3)
        labels = rng.sample(range(1, 65), rng.randint(k + 1, 7))
        subsets = list(itertools.combinations(labels, k))
        n = min(len(subsets), rng.randint(2, 6))
        complexes.append(make_complex(rng.sample(subsets, n)))
    verdicts = set()
    for c in complexes:
        facets = c.facets
        orders = (
            tuple(facets[j] for j in p) for p in itertools.permutations(range(len(facets)))
        )
        want = next((o for o in orders if is_valid_shelling([f.vertices for f in o])), None)
        assert find_shelling(c) == want, c
        verdicts.add((len(facets), want is None))
    assert {(6, True), (6, False)} <= verdicts


def test_found_shellings_replay_against_oracle():
    for d in range(1, 3):
        for n in range(1, 9):
            c = make_complex(segment(d + 1, n))
            order = find_shelling(c)
            assert order is not None, (d, n)
            assert is_valid_shelling([set(f.vertices) for f in order])


@pytest.mark.parametrize("strategy", list(Strategy))
def test_strategies_given_as_strings(strategy):
    c = make_complex(segment(3, 7))
    assert certify_vd(c, strategy.value) == certify_vd(c, strategy)


def test_unknown_strategy_is_invalid_input():
    with pytest.raises(InvalidInput, match="unknown strategy 'bogus'"):
        certify_vd(make_complex(segment(3, 7)), "bogus")

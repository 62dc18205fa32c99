"""Acceptance suite: one check per shipped guarantee, with runtime caps.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per check.  Checks 6-8 share one certification sweep over the full
extremal corpus (squashed segments, simplex skeletons, and the exhaustive
six-vertex enumeration); the sweep is computed once and cached.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from kkvd import (
    CoefficientField,
    CompleteOnSupport,
    Face,
    FaceFamily,
    Split,
    Strategy,
    Violation,
    Witness,
    boundary_matrix,
    certify_vd,
    delta,
    find_shelling,
    find_witness,
    is_extremal,
    make_complex,
    reduced_betti,
    reisner_cm_check,
    segment,
    shadow,
    validate_certificate,
)

from corpus import extremal_families_on_six, segment_complexes, skeleton_complexes
from oracles import betti_oracle, random_complex, random_family

GF2 = CoefficientField.GF2
Q = CoefficientField.RATIONALS
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


@contextmanager
def acceptance(name: str, limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"[acceptance] {name}: FAIL (took {elapsed:.2f}s, limit {limit}s)")
        raise AssertionError(f"{name} exceeded its {limit}s runtime limit")
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


_CACHE: dict = {}


def certified_corpus():
    """(complex, certificate tree) for every extremal corpus member."""
    if "certified" not in _CACHE:
        complexes = list(segment_complexes().values())
        complexes += list(skeleton_complexes().values())
        complexes += [make_complex(f) for f in extremal_families_on_six()]
        certified = []
        for c in complexes:
            report = certify_vd(c, Strategy.EXTREMAL)
            assert report.decomposable, c
            assert report.tree is not None
            certified.append((c, report.tree))
        _CACHE["certified"] = certified
    return _CACHE["certified"]


def test_01_shadow_bound_closed_form():
    with acceptance("delta(2, d+1) = 2d+1 and matches shadow enumeration", 1.0):
        for d in range(1, 21):
            assert delta(2, d + 1) == 2 * d + 1, d
        for d in range(1, 7):
            assert len(shadow(segment(d + 1, 2))) == 2 * d + 1, d


def test_02_disjoint_pair_counterexample():
    with acceptance("two disjoint simplices: slack 1, no VD, never CM", 5.0):
        for d in range(1, 5):
            c = make_complex(
                [tuple(range(1, d + 2)), tuple(range(d + 2, 2 * d + 3))]
            )
            f = c.f_vector()
            assert f[d - 1] == delta(2, d + 1) + 1, d
            report = certify_vd(c, Strategy.EXHAUSTIVE)
            assert not report.decomposable, d
            for field in (GF2, Q):
                cm = reisner_cm_check(c, field)
                assert not cm.is_cm, (d, field)
                assert Violation(Face(), 0, 1) in cm.violations, (d, field)


def test_03_bound_equals_enumerated_shadow():
    with acceptance("delta(n,k) = |shadow(segment(k,n))| for k<=5, n<=60", 5.0):
        for k in range(1, 6):
            for n in range(0, 61):
                assert delta(n, k) == len(shadow(segment(k, n))), (k, n)


def test_04_shadow_inequality_random_families():
    with acceptance("shadow lower bound holds on 1000 random families", 10.0):
        rng = random.Random(20240)
        for _ in range(1000):
            k = rng.randint(1, 4)
            fam = FaceFamily(
                random_family(rng, k, rng.randint(k, 9), rng.randint(1, 30))
            )
            assert len(shadow(fam)) >= delta(len(fam), k)


def test_05_witness_dichotomy_random_families():
    with acceptance("witness-or-complete dichotomy on 1000 random families"):
        rng = random.Random(20241)
        for _ in range(1000):
            k = rng.randint(1, 4)
            fam = FaceFamily(
                random_family(rng, k, rng.randint(k, 9), rng.randint(1, 25))
            )
            result = find_witness(fam)
            if isinstance(result, Witness):
                assert result.shadow_b_count > result.c_count
            else:
                assert isinstance(result, CompleteOnSupport)
                assert len(fam) == math.comb(len(result.support), k)


def test_06_extremal_corpus_certifies():
    with acceptance(
        "every extremal corpus complex certifies and validates", 60.0
    ):
        certified = certified_corpus()
        # segments (4*15) + skeletons (36) + exhaustive six-vertex families
        assert len(certified) >= 10000
        for c, tree in certified:
            assert validate_certificate(c, tree), c


def test_07_splits_stay_extremal():
    with acceptance("every non-complete split keeps link and deletion extremal"):
        def walk(c, tree):
            if not isinstance(tree, Split):
                return
            link = c.link(Face(tree.vertex))
            deletion = c.delete_vertex(tree.vertex)
            d = c.dimension
            complete = c.facet_count == math.comb(len(c.vertex_set), d + 1)
            if not complete:
                assert is_extremal(link), (c, tree.vertex)
                assert is_extremal(deletion), (c, tree.vertex)
            walk(link, tree.link)
            walk(deletion, tree.deletion)

        for c, tree in certified_corpus():
            walk(c, tree)


def test_08_decomposable_implies_shellable_and_cm():
    with acceptance("corpus trees with <=8 facets shell and pass both CM checks"):
        checked = 0
        for c, _tree in certified_corpus():
            if c.facet_count > 8:
                continue
            assert find_shelling(c) is not None, c
            assert reisner_cm_check(c, GF2).is_cm, c
            assert reisner_cm_check(c, Q).is_cm, c
            checked += 1
        assert checked >= 3000


def test_09_homology_sanity():
    with acceptance("boundary algebra, Euler identity, and the field witness"):
        rng = random.Random(20242)
        for _ in range(50):
            c = random_complex(rng, max_vertices=8)
            d = c.dimension
            for i in range(1, d + 1):
                a = boundary_matrix(c, i - 1)
                b = boundary_matrix(c, i)
                for row in range(len(a)):
                    for col in range(len(b[0])):
                        assert (
                            sum(a[row][k] * b[k][col] for k in range(len(b))) == 0
                        )
            f = c.f_vector()
            reduced_euler = sum((-1) ** i * fi for i, fi in enumerate(f)) - 1
            profile = reduced_betti(c, Q)
            assert reduced_euler == -profile.betti(-1) + sum(
                (-1) ** i * profile.betti(i) for i in range(0, d + 1)
            )
        hollow = make_complex([(1, 2), (1, 3), (2, 3)])
        profile = reduced_betti(hollow, Q)
        assert (profile.betti(0), profile.betti(1)) == (0, 1)

        rp2 = make_complex(
            [
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
        )
        # brute-force oracle first: rational homology vanishes, GF(2) sees
        # the torsion class in degrees 1 and 2
        assert betti_oracle(rp2, rational=True) == [0, 0, 0, 0]
        assert betti_oracle(rp2, rational=False) == [0, 0, 1, 1]
        assert reisner_cm_check(rp2, Q).is_cm
        assert not reisner_cm_check(rp2, GF2).is_cm


def _cli(*argv, stdin=None):
    # the child imports kkvd from this checkout's src, installed or not
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-m", "kkvd", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    return proc.returncode, proc.stdout


def test_10_cli_contract():
    with acceptance("CLI pipes close, exit codes total, JSON byte-stable"):
        # pipe closure: generated segments feed every consumer
        code, gen_out = _cli("gen", "3", "6")
        assert code == 0
        for argv in (
            ["analyze", "-"],
            ["vd", "-"],
            ["shadow", "-"],
            ["betti", "-"],
            ["reisner", "-"],
            ["shell", "-"],
        ):
            code, _ = _cli(*argv, stdin=gen_out)
            assert code in (0, 1), argv
        # exit codes: 0 holds, 1 fails, 2 cannot evaluate
        assert _cli("vd", str(DATA / "path.txt"))[0] == 0
        assert _cli("vd", str(DATA / "disjoint_edges.txt"))[0] == 1
        assert _cli("vd", str(DATA / "nonpure.txt"))[0] == 2
        assert _cli("reisner", str(DATA / "rp2.txt"), "--field", "gf2")[0] == 1
        assert _cli("analyze", "/no/such/file")[0] == 2
        # byte-stable machine output, twice per command, against goldens
        for name, argv in (
            ("analyze_path.json", ["analyze", str(DATA / "path.txt"), "--json"]),
            ("vd_path.json", ["vd", str(DATA / "path.txt"), "--json"]),
            (
                "reisner_rp2_gf2.json",
                ["reisner", str(DATA / "rp2.txt"), "--field", "gf2", "--json"],
            ),
            ("delta_3_5.json", ["delta", "3", "5", "--json"]),
            ("gen_3_5.txt", ["gen", "3", "5"]),
        ):
            _, first = _cli(*argv)
            _, second = _cli(*argv)
            assert first == second
            assert first == (GOLDEN / name).read_text()
            if name.endswith(".json"):
                json.loads(first)

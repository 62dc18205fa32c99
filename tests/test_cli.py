import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kkvd import make_complex
from kkvd.cli import main

from oracles import torus_facets

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, stdin: str | None = None, optimize: bool = False):
    """Run the CLI in a child process; returns (exit code, stdout, stderr).

    The child imports kkvd from this checkout's ``src``, installed or not.
    """
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, *["-O"] * optimize, "-m", "kkvd", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------- analyze


def test_analyze_extremal_fixture(capsys):
    assert main(["analyze", str(DATA / "path.txt")]) == 0
    out = capsys.readouterr().out
    assert "slack: 0" in out
    assert "extremal: yes" in out


def test_analyze_disjoint_edges_has_slack_one(capsys):
    assert main(["analyze", str(DATA / "disjoint_edges.txt")]) == 0
    out = capsys.readouterr().out
    assert "kk-bound: 3" in out
    assert "slack: 1" in out
    assert "extremal: no" in out


def test_analyze_single_simplex(tmp_path, capsys):
    f = tmp_path / "simplex.txt"
    f.write_text("1 2 3\n")
    assert main(["analyze", str(f)]) == 0
    assert "extremal: yes" in capsys.readouterr().out


def test_analyze_zero_dimensional_complex(tmp_path, capsys):
    f = tmp_path / "points.txt"
    f.write_text("1\n2\n5\n")
    assert main(["analyze", str(f)]) == 0
    out = capsys.readouterr().out
    assert "kk-bound: 1" in out
    assert "slack: 0" in out
    assert "extremal: yes" in out
    f.write_text("# no facets\n")
    assert main(["analyze", str(f)]) == 0
    captured = capsys.readouterr()
    assert "facets: 0\n" in captured.out
    assert captured.err == "warning: empty complex, nothing to analyze\n"


def test_analyze_nonpure_warns_and_nulls_extremality(capsys):
    assert main(["analyze", str(DATA / "nonpure.txt"), "--json"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["is_pure"] is False
    assert doc["kk_bound"] is None
    assert doc["slack"] is None
    assert doc["is_extremal"] is None
    assert "not pure" in captured.err


def test_analyze_parse_error_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("1 2\n2 x\n")
    assert main(["analyze", str(f)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_analyze_missing_file_exits_2(capsys):
    assert main(["analyze", "/nonexistent/nowhere.txt"]) == 2


# ---------------------------------------------------------------- vd


def test_vd_writes_validating_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = main(["vd", str(DATA / "path.txt"), "--cert", str(cert_path)])
    assert code == 0
    from kkvd import make_complex, validate_certificate
    from kkvd.io import parse_certificate

    facets, strategy, tree = parse_certificate(json.loads(cert_path.read_text()))
    assert validate_certificate(make_complex(facets), tree)


def test_vd_cert_writes_the_format_1_text(tmp_path, capsys):
    from kkvd import Strategy, certify_vd, make_complex
    from kkvd.io import certificate_document

    facet = tuple(range(1, 17))
    path, cert_path = tmp_path / "facet16.txt", tmp_path / "cert.json"
    path.write_text(" ".join(map(str, facet)) + "\n")
    assert main(["vd", str(path), "--cert", str(cert_path)]) == 0
    c = make_complex([facet])
    doc = certificate_document(c.facets, Strategy.EXTREMAL, certify_vd(c).tree)
    assert cert_path.read_text() == json.dumps(doc, indent=2) + "\n"


def test_vd_exit_one_on_obstruction(capsys):
    assert main(["vd", str(DATA / "disjoint_edges.txt")]) == 1
    assert "not vertex decomposable" in capsys.readouterr().out


def test_vd_extremal_strategy_on_nonextremal_exits_2(capsys):
    code = main(["vd", str(DATA / "disjoint_edges.txt"), "--strategy", "extremal"])
    assert code == 2
    assert "shadow bound" in capsys.readouterr().err


def test_a_large_nonpure_complex_is_named_in_under_4_kib(tmp_path, capsys):
    # vd and shell refuse a non-pure complex by naming it; a long repr is cut
    rng = random.Random(1)
    facets = [sorted(rng.sample(range(1, 51), 4)) for _ in range(400)] + [range(1, 7)]
    path = tmp_path / "nonpure.txt"
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in facets))
    c = make_complex(facets)
    assert len(repr(c)) > 4096
    for command in ("vd", "shell"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SimplicialComplex([{")
        assert captured.err.endswith(f"}}, ... {c.facet_count} facets]) is not pure\n")
        assert max(map(len, captured.err.splitlines())) <= 4096


# ---------------------------------------------------------------- gen / delta / shadow


def test_gen_outputs_squashed_segment(capsys):
    assert main(["gen", "3", "5"]) == 0
    assert capsys.readouterr().out == "1 2 3\n1 2 4\n1 3 4\n2 3 4\n1 2 5\n"


def test_gen_zero_is_empty(capsys):
    assert main(["gen", "2", "0"]) == 0
    assert capsys.readouterr().out == ""


def test_gen_avoid(capsys):
    assert main(["gen", "2", "3", "--avoid", "2"]) == 0
    assert capsys.readouterr().out == "1 3\n1 4\n3 4\n"


@pytest.mark.parametrize("d", range(1, 21))
def test_delta_of_two_member_families(d, capsys):
    assert main(["delta", str(d + 1), "2"]) == 0
    assert capsys.readouterr().out.strip() == str(2 * d + 1)


def test_delta_of_a_huge_set_size_ends_quickly(capsys):
    # five 2,000,000-sets: each cascade term is C(j, j)
    start = time.perf_counter()
    assert main(["delta", "2000000", "5"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "9999990\n"


def test_delta_past_the_64_bit_range_exits_2_quickly(capsys):
    # 10^12 unit terms C(j, j): their shadow count leaves the 64-bit range
    start = time.perf_counter()
    assert main(["delta", "1000000000000", "1000000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(" exceeds the checked 64-bit range\n")


def test_gen_of_a_set_size_past_64_bits_exits_2(capsys):
    assert main(["gen", "100000000000000000000", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: set size 100000000000000000000 exceeds the checked 64-bit range\n"
    )


def test_shadow_of_generated_segment(tmp_path, capsys):
    f = tmp_path / "seg.txt"
    main(["gen", "3", "5"])
    f.write_text(capsys.readouterr().out)
    assert main(["shadow", str(f)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8


def test_shadow_of_singletons_exits_2(tmp_path, capsys):
    f = tmp_path / "points.txt"
    f.write_text("1\n2\n")
    assert main(["shadow", str(f)]) == 2


def test_shadow_mixed_sizes_exits_2(tmp_path, capsys):
    f = tmp_path / "mixed.txt"
    f.write_text("1 2\n1 2 3\n")
    assert main(["shadow", str(f)]) == 2


# ---------------------------------------------------------------- betti / reisner / shell


def test_betti_text_output(capsys):
    assert main(["betti", str(DATA / "hollow_triangle.txt")]) == 0
    out = capsys.readouterr().out
    assert "b[0] = 0" in out and "b[1] = 1" in out


def write_simplex_boundary(path, n):
    """Write the facets of the boundary of the simplex on 1..n: 2^n - 1 faces."""
    facets = itertools.combinations(range(1, n + 1), n - 1)
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in facets))
    return path


@pytest.mark.parametrize("field", ["gf2", "q"])
def test_betti_face_budget_spares_cones(field, tmp_path, capsys):
    refusal = "more than 5000 faces, over the budget of 5000"
    # 8,191 faces: refused by betti with the wording of the Reisner check
    f = write_simplex_boundary(tmp_path / "sphere13.txt", 13)
    for command in ("betti", "reisner"):
        assert main([command, str(f), "--field", field]) == 2
        assert refusal in capsys.readouterr().err
    # 4,095 faces: within the budget, a sphere of dimension 10
    f = write_simplex_boundary(tmp_path / "sphere12.txt", 12)
    assert main(["betti", str(f), "--field", field, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["reduced_betti"] == [0] * 11 + [1]
    # a 14-vertex facet has 16,384 faces but is a cone: all zeros at once
    f = tmp_path / "facet14.txt"
    f.write_text(" ".join(map(str, range(1, 15))) + "\n")
    assert main(["betti", str(f), "--field", field, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["reduced_betti"] == [0] * 15


def test_reisner_verdict_exit_codes():
    code, _, _ = run_cli("reisner", str(DATA / "rp2.txt"), "--field", "q")
    assert code == 0
    code, out, _ = run_cli("reisner", str(DATA / "rp2.txt"), "--field", "gf2")
    assert code == 1
    assert "not Cohen-Macaulay" in out


def test_reisner_disjoint_edges_both_fields(capsys):
    for field in ("gf2", "q"):
        assert main(["reisner", str(DATA / "disjoint_edges.txt"), "--field", field]) == 1
        assert "link of {}" in capsys.readouterr().out


def test_shell_exit_codes(capsys):
    assert main(["shell", str(DATA / "path.txt")]) == 0
    capsys.readouterr()
    assert main(["shell", str(DATA / "disjoint_edges.txt")]) == 1


def test_shell_facet_limit_exits_2(tmp_path, capsys):
    f = tmp_path / "many.txt"
    f.write_text("".join(f"{i} {i+1}\n" for i in range(1, 11)))
    assert main(["shell", str(f), "--facet-limit", "8"]) == 2


# ---------------------------------------------------------------- adversarial inputs

CERTIFICATE_ARGV = [["vd", "--json"], ["vd", "--cert", os.devnull]]
ADVERSARIAL_ARGV = [
    ["analyze"],
    ["analyze", "--json"],
    ["vd"],
    ["vd", "--strategy", "exhaustive"],
    *CERTIFICATE_ARGV,
    ["reisner", "--field", "gf2"],
    ["reisner", "--field", "q"],
    ["betti", "--field", "gf2"],
    ["betti", "--field", "q"],
    ["shell"],
]


def assert_each_ends_quickly(path, argvs, capsys, refusal_names):
    """Each call ends in under 1 s, and a refusal names its budget or limit.

    Returns the exit code of each call, by its argv as a tuple.
    """
    codes = {}
    for command, *flags in argvs:
        start = time.perf_counter()
        code = main([command, str(path), *flags])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert elapsed < 1.0, (command, flags, elapsed)
        assert code in (0, 1, 2), (command, flags)
        if code == 2:
            assert any(name in err for name in refusal_names), (command, flags, err)
        codes[(command, *flags)] = code
    return codes


@pytest.mark.parametrize("n", [22, 40, 64])
def test_single_large_facet_ends_quickly(n, tmp_path, capsys):
    f = tmp_path / f"facet{n}.txt"
    f.write_text(" ".join(str(v) for v in range(1, n + 1)) + "\n")
    codes = assert_each_ends_quickly(f, ADVERSARIAL_ARGV, capsys, ["budget"])
    # the format-1 text of 2^n - 1 nodes is refused before it is built
    assert [codes[tuple(argv)] for argv in CERTIFICATE_ARGV] == [2, 2]


@pytest.mark.parametrize("m, k", [(24, 4), (40, 2)])
def test_wide_skeleton_ends_quickly(m, k, tmp_path, capsys):
    f = tmp_path / f"skel{m}_{k}.txt"
    skeleton = itertools.combinations(range(1, m + 1), k)
    f.write_text("".join(" ".join(map(str, s)) + "\n" for s in skeleton))
    argvs = ADVERSARIAL_ARGV + [["vd", "--strategy", "extremal"]]
    # `shell` refuses past its facet limit, `reisner` and `betti` past
    # their face budget
    codes = assert_each_ends_quickly(f, argvs, capsys, ["budget", "limit"])
    assert [codes[tuple(argv)] for argv in CERTIFICATE_ARGV] == [0, 0]


@pytest.mark.parametrize("n", [24, 40])
def test_analyze_simplex_boundary_ends_quickly(n, tmp_path, capsys):
    # the 2^n - 1 faces of ∂Δ_n are counted, not listed
    f = write_simplex_boundary(tmp_path / f"sphere{n}.txt", n)
    start = time.perf_counter()
    assert main(["analyze", str(f), "--json"]) == 0
    assert time.perf_counter() - start < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["f_vector"] == [math.comb(n, i + 1) for i in range(n - 1)]
    assert doc["slack"] == 0


def write_random_sets(path):
    """40 seeded random 20-sets of 1..64, which share few faces."""
    rng = random.Random(14)
    sets = [sorted(rng.sample(range(1, 65), 20)) for _ in range(40)]
    path.write_text("".join(" ".join(map(str, s)) + "\n" for s in sets))
    return path


def test_random_wide_sets_end_quickly(tmp_path, capsys):
    # counting their faces takes more distinct subcomplexes than the budget
    f = write_random_sets(tmp_path / "sets.txt")
    assert_each_ends_quickly(f, ADVERSARIAL_ARGV[:2], capsys, ["budget"])
    assert_each_ends_quickly(f, ADVERSARIAL_ARGV[2:], capsys, ["budget", "limit"])


def write_two_cliques(path, first, second):
    """Write the edges of the cliques on two disjoint label sets."""
    edges = [*itertools.combinations(first, 2), *itertools.combinations(second, 2)]
    path.write_text("".join(f"{a} {b}\n" for a, b in edges))
    return path


@pytest.mark.parametrize(
    "first, second, refusal_names",
    [
        # the first failed vertex finds the facets disconnected: `vd` exits 1
        (range(1, 11), range(11, 21), ["limit"]),
        # the same on interleaved labels
        (range(1, 21, 2), range(2, 21, 2), ["budget", "limit"]),
    ],
    ids=["1..10,11..20", "odd,even"],
)
def test_disjoint_cliques_end_quickly(first, second, refusal_names, tmp_path, capsys):
    # two disjoint K_10: neither decomposable nor extremal, so `vd` runs
    # the exhaustive search, which fails on every vertex
    f = write_two_cliques(tmp_path / "cliques.txt", first, second)
    assert_each_ends_quickly(f, ADVERSARIAL_ARGV, capsys, refusal_names)


def test_torus_shelling_search_ends_quickly(tmp_path, capsys):
    # the 18 triangles of the 3×3 torus have no shelling; the search visits
    # each dead set of placed triangles once, not each order of them
    f = tmp_path / "torus.txt"
    f.write_text("".join(f"{a} {b} {c}\n" for a, b, c in torus_facets(3, 3)))
    argv = ["shell", "--facet-limit", "18"]
    assert assert_each_ends_quickly(f, [argv], capsys, []) == {tuple(argv): 1}


def test_refusals_survive_python_optimize(tmp_path):
    # python -O strips assert statements; budgets and guards must not be ones
    f = tmp_path / "torus.txt"
    f.write_text("".join(f"{a} {b} {c}\n" for a, b, c in torus_facets(5, 5)))
    code, _, err = run_cli("vd", str(f), optimize=True)
    assert code == 2 and "node budget" in err
    disjoint = str(DATA / "disjoint_edges.txt")
    code, _, err = run_cli("vd", disjoint, "--strategy", "extremal", optimize=True)
    assert code == 2 and "shadow bound" in err
    sets = write_random_sets(tmp_path / "sets.txt")
    code, _, err = run_cli("analyze", str(sets), optimize=True)
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("name", ["rp2", "disjoint_edges", "hollow_triangle"])
def test_homology_answers_survive_python_optimize(name):
    # the same bytes and exit codes with assert statements stripped
    path = str(DATA / f"{name}.txt")
    for command in ("betti", "reisner"):
        for field in ("gf2", "q"):
            argv = [command, path, "--field", field]
            code, out, _ = run_cli(*argv)
            assert code in (0, 1) and out
            assert run_cli(*argv, optimize=True)[:2] == (code, out), argv


# ---------------------------------------------------------------- pipes


def test_pipe_gen_into_every_consumer():
    code, gen_out, _ = run_cli("gen", "3", "6")
    assert code == 0
    for argv in (
        ["analyze", "-"],
        ["vd", "-"],
        ["shadow", "-"],
        ["betti", "-"],
        ["reisner", "-"],
        ["shell", "-"],
    ):
        code, _, err = run_cli(*argv, stdin=gen_out)
        assert code in (0, 1), (argv, err)


def test_shell_of_a_long_segment_prints_it_in_gen_order(tmp_path):
    # 1,200 facets deep: the search keeps its own stack, not Python's
    f = tmp_path / "segment.txt"
    code, gen_out, _ = run_cli("gen", "3", "1200")
    assert code == 0
    f.write_text(gen_out)
    assert run_cli("shell", str(f), "--facet-limit", "5000") == (0, gen_out, "")


def test_pipe_shadow_output_reparses():
    _, gen_out, _ = run_cli("gen", "3", "5")
    code, shadow_out, _ = run_cli("shadow", "-", stdin=gen_out)
    assert code == 0
    code, analyze_out, _ = run_cli("analyze", "-", "--json", stdin=shadow_out)
    assert code == 0
    doc = json.loads(analyze_out)
    assert doc["facet_count"] == 8
    assert doc["is_extremal"] is True


def test_exit_code_totality_over_error_paths(tmp_path):
    underscored = tmp_path / "underscored.txt"
    underscored.write_text("1_0 2\n+3 ٣\n", encoding="utf-8")
    undecodable = tmp_path / "undecodable.txt"
    undecodable.write_bytes(b"1 2\n\xff 3\n")
    cases = [
        (["gen", "3", "5"], 0),
        (["gen", "0", "5"], 2),
        (["gen", "3", "-1"], 2),
        (["gen", "3", "5", "--avoid", "0"], 2),
        (["analyze", str(underscored)], 2),
        (["analyze", str(undecodable)], 2),
        (["vd", str(DATA / "path.txt")], 0),
        (["vd", str(DATA / "disjoint_edges.txt")], 1),
        (["vd", str(DATA / "nonpure.txt")], 2),
        (["reisner", str(DATA / "rp2.txt"), "--field", "gf2"], 1),
        (["analyze", "/no/such/file"], 2),
        (["delta", "0", "5"], 2),
        (["nonsense-command"], 2),
        ([], 2),
    ]
    for argv, expected in cases:
        code, _, _ = run_cli(*argv)
        assert code == expected, argv


# ---------------------------------------------------------------- golden files


GOLDEN_CASES = [
    ("analyze_path.json", ["analyze", str(DATA / "path.txt"), "--json"]),
    (
        "analyze_disjoint_edges.json",
        ["analyze", str(DATA / "disjoint_edges.txt"), "--json"],
    ),
    ("vd_path.json", ["vd", str(DATA / "path.txt"), "--json"]),
    ("vd_disjoint_edges.json", ["vd", str(DATA / "disjoint_edges.txt"), "--json"]),
    (
        "betti_hollow_triangle.json",
        ["betti", str(DATA / "hollow_triangle.txt"), "--json"],
    ),
    ("betti_rp2_gf2.json", ["betti", str(DATA / "rp2.txt"), "--field", "gf2", "--json"]),
    ("betti_rp2_q.json", ["betti", str(DATA / "rp2.txt"), "--field", "q", "--json"]),
    (
        "betti_disjoint_edges.json",
        ["betti", str(DATA / "disjoint_edges.txt"), "--json"],
    ),
    ("reisner_rp2_gf2.json", ["reisner", str(DATA / "rp2.txt"), "--field", "gf2", "--json"]),
    ("reisner_rp2_q.json", ["reisner", str(DATA / "rp2.txt"), "--field", "q", "--json"]),
    ("shell_path.json", ["shell", str(DATA / "path.txt"), "--json"]),
    ("delta_3_5.json", ["delta", "3", "5", "--json"]),
    ("gen_3_5.txt", ["gen", "3", "5"]),
    # plain text, as each command renders it without --json
    ("analyze_path.txt", ["analyze", str(DATA / "path.txt")]),
    ("analyze_nonpure.txt", ["analyze", str(DATA / "nonpure.txt")]),
    ("delta_3_5.txt", ["delta", "3", "5"]),
    ("shadow_rp2.txt", ["shadow", str(DATA / "rp2.txt")]),
    ("vd_path.txt", ["vd", str(DATA / "path.txt")]),
    ("vd_path_cert.txt", ["vd", str(DATA / "path.txt"), "--cert", "cert.json"]),
    ("vd_disjoint_edges.txt", ["vd", str(DATA / "disjoint_edges.txt")]),
    ("betti_rp2_gf2.txt", ["betti", str(DATA / "rp2.txt"), "--field", "gf2"]),
    ("reisner_rp2_q.txt", ["reisner", str(DATA / "rp2.txt"), "--field", "q"]),
    ("reisner_rp2_gf2.txt", ["reisner", str(DATA / "rp2.txt"), "--field", "gf2"]),
    ("shell_path.txt", ["shell", str(DATA / "path.txt")]),
    ("shell_disjoint_edges.txt", ["shell", str(DATA / "disjoint_edges.txt")]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs_are_byte_stable(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative --cert path lands here
    first_code, first_out, _ = run_cli(*argv)
    second_code, second_out, _ = run_cli(*argv)
    assert first_code == second_code
    assert first_out == second_out  # byte-identical across runs
    assert first_out == (GOLDEN / name).read_text()

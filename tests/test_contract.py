"""The library and CLI contract on hostile values.

A call given an integer past Python's int-to-string digit limit, a string
of 10,000 characters or a 3,000-element tree must end with a ``KKError``
whose message stays under 4 KiB: values are shown through
``complexes._named``, never in raw.
"""

import functools
import tracemalloc

import pytest

from kkvd import (
    CoefficientField,
    Face,
    Strategy,
    boundary_matrix,
    cascade_rep,
    certify_vd,
    colex_rank,
    colex_unrank,
    comb64,
    delta,
    diagnose_certificate,
    find_shelling,
    make_complex,
    reduced_betti,
    reisner_cm_check,
    segment,
    segment_avoiding,
)
from kkvd.cli import main
from kkvd.complexes import _named
from kkvd.decomposition import Point, Split
from kkvd.errors import KKError
from kkvd.io import parse_certificate, parse_facets

BIG, LONG = 10**5000, "x" * 10000
SQUARE = make_complex([(1, 2), (2, 3), (3, 4), (1, 4)])


def certificate(**fields):
    doc = {"format": 1, "facets": [[1]], "strategy": "auto", "tree": {"kind": "empty"}}
    return {**doc, **fields}


HOSTILE = {
    "delete_vertex(BIG)": lambda: SQUARE.delete_vertex(BIG),
    "delete_vertex(-BIG)": lambda: SQUARE.delete_vertex(-BIG),
    "delete_vertex(LONG)": lambda: SQUARE.delete_vertex(LONG),
    "link([BIG])": lambda: SQUARE.link([BIG]),
    "link([1, BIG])": lambda: SQUARE.link([1, BIG]),
    "link([LONG])": lambda: SQUARE.link([LONG]),
    "faces_of_dim(BIG)": lambda: SQUARE.faces_of_dim(BIG),
    "boundary_matrix(-BIG)": lambda: boundary_matrix(SQUARE, -BIG),
    "Face.without(BIG)": lambda: Face(1, 2).without(BIG),
    "Face(-BIG)": lambda: Face(-BIG),
    "Face(LONG)": lambda: Face(LONG),
    "comb64(-BIG, 1)": lambda: comb64(-BIG, 1),
    "comb64(BIG, 1)": lambda: comb64(BIG, 1),
    "comb64(1, -BIG)": lambda: comb64(1, -BIG),
    "colex_rank(Face(BIG))": lambda: colex_rank(Face(BIG)),
    "colex_unrank(BIG, 2)": lambda: colex_unrank(BIG, 2),
    "colex_unrank(-BIG, 2)": lambda: colex_unrank(-BIG, 2),
    "colex_unrank(2, BIG)": lambda: colex_unrank(2, BIG),
    "delta(-BIG, 2)": lambda: delta(-BIG, 2),
    "delta(BIG, 2)": lambda: delta(BIG, 2),
    "delta(2, -BIG)": lambda: delta(2, -BIG),
    "delta(2, BIG)": lambda: delta(2, BIG),
    "cascade_rep(-BIG, 2)": lambda: cascade_rep(-BIG, 2),
    "cascade_rep(BIG, 2)": lambda: cascade_rep(BIG, 2),
    "segment(BIG, 1)": lambda: segment(BIG, 1),
    "segment(2, -BIG)": lambda: segment(2, -BIG),
    "segment_avoiding(2, 3, -BIG)": lambda: segment_avoiding(2, 3, -BIG),
    "find_shelling(-BIG)": lambda: find_shelling(SQUARE, facet_limit=-BIG),
    "reisner_cm_check(-BIG)": lambda: reisner_cm_check(SQUARE, face_budget=-BIG),
    "certify_vd(strategy=BIG)": lambda: certify_vd(SQUARE, BIG),
    "reduced_betti(field=-BIG)": lambda: reduced_betti(SQUARE, -BIG),
    "reisner_cm_check(field=BIG)": lambda: reisner_cm_check(SQUARE, BIG),
    "Strategy(LONG)": lambda: Strategy(LONG),
    "CoefficientField(LONG)": lambda: CoefficientField(LONG),
    "parse_facets(LONG)": lambda: parse_facets("1 2\n3 " + LONG + "\n"),
    "parse_facets(digits)": lambda: parse_facets("1 " + "9" * 10000 + "\n"),
    **{
        f"parse_certificate({name})": functools.partial(parse_certificate, doc)
        for name, doc in {
            "format LONG": certificate(format=LONG),
            "format BIG": certificate(format=BIG),
            "format -BIG": certificate(format=-BIG),
            "strategy LONG": certificate(strategy=LONG),
            "strategy BIG": certificate(strategy=BIG),
            "kind LONG": certificate(tree={"kind": LONG}),
            "kind BIG": certificate(tree={"kind": BIG}),
            "vertex LONG": certificate(tree={"kind": "point", "vertex": LONG}),
            "vertex -BIG": certificate(tree={"kind": "point", "vertex": -BIG}),
            "facet label LONG": certificate(facets=[[1, LONG]]),
            "facet label -BIG": certificate(facets=[[1, -BIG]]),
            "tree BIG": certificate(tree=BIG),
            "tree of 3000": certificate(tree=[{"kind": "point", "vertex": 1}] * 3000),
        }.items()
    },
}


@pytest.mark.parametrize("call", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_values_raise_a_short_kkerror(call):
    with pytest.raises(KKError) as error:
        call()
    assert len(str(error.value)) <= 4096


def test_analyze_names_a_long_token_in_a_short_line(tmp_path, capsys):
    f = tmp_path / "long.txt"
    f.write_text("1 2\n3 " + LONG + "\n")
    assert main(["analyze", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: expected a positive integer, got 'xxx")
    assert max(map(len, err.splitlines())) <= 4096


class Label(int):
    def __repr__(self):
        return f"<Label: {int(self)}>"


def test_diagnose_keeps_a_deep_reason_short():
    # a 40-vertex facet of 4,000-digit labels, with a wrong point at the bottom
    labels = [10**3999 + i for i in range(40)]

    def chain(label):
        tree = Point(1)
        for v in reversed(labels[:-1]):
            tree = Split(label(v), tree, tree)
        return tree

    reason = diagnose_certificate(make_complex([labels]), chain(int))
    assert len(reason) <= 4096  # 42,225 characters with every step kept
    # the first step and the innermost cause stay whole
    cause = diagnose_certificate(make_complex([labels[-1:]]), Point(1))
    assert cause.startswith("claimed single vertex 1, but complex is ")
    assert reason == f"link of {_named(labels[0])}: ...: {cause}"
    # a step shows an int subclass by its value, so no repr's ": " hides a step
    assert diagnose_certificate(make_complex([labels]), chain(Label)) == reason


def test_diagnose_renders_a_deep_reason_once():
    # a 64-vertex facet of 4,000-digit labels: each of its 63 steps names a label
    # in about 1 KB, so the whole reason has 67,545 characters, and keeping one
    # such reason per level holds 2.2 MB
    labels = [10**3999 + i for i in range(64)]
    tree = Point(1)
    for v in reversed(labels[:-1]):
        tree = Split(v, tree, tree)
    c = make_complex([labels])
    tracemalloc.start()
    try:
        reason = diagnose_certificate(c, tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024
    cause = diagnose_certificate(make_complex([labels[-1:]]), Point(1))
    assert reason == f"link of {_named(labels[0])}: ...: {cause}"

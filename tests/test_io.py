import json

import pytest

from kkvd import Face, Strategy, certify_vd, make_complex, segment
from kkvd.errors import ParseError
from kkvd.io import (
    certificate_document,
    format_facets,
    node_to_tree,
    parse_certificate,
    parse_facets,
    tree_to_node,
)


def test_parse_basic_file():
    text = "# comment\n1 2\n\n  2 3\n"
    assert parse_facets(text) == [Face(1, 2), Face(2, 3)]


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_facets("1 2\nfoo bar\n")
    assert err.value.lineno == 2
    assert "foo" in str(err.value)


def test_parse_rejects_nonpositive_labels():
    with pytest.raises(ParseError) as err:
        parse_facets("1 2\n0 3\n")
    assert err.value.lineno == 2


def test_format_parse_roundtrip():
    family = segment(3, 7)
    assert parse_facets(format_facets(family)) == list(family)


def test_certificate_roundtrip():
    c = make_complex(segment(2, 5))
    report = certify_vd(c)
    doc = certificate_document(c.facets, report.strategy_used, report.tree)
    # through JSON text and back
    facets, strategy, tree = parse_certificate(json.loads(json.dumps(doc)))
    assert facets == list(c.facets)
    assert strategy is Strategy.EXTREMAL
    assert tree == report.tree


def test_tree_node_encoding_kinds():
    from kkvd import Empty, EmptyFace, Point, Split

    tree = Split(2, Point(1), EmptyFace())
    node = tree_to_node(tree)
    assert node == {
        "kind": "split",
        "vertex": 2,
        "link": {"kind": "point", "vertex": 1},
        "deletion": {"kind": "emptyface"},
    }
    assert node_to_tree(node) == tree
    assert node_to_tree({"kind": "empty"}) == Empty()


@pytest.mark.parametrize(
    "doc",
    [
        42,
        {"format": 99, "facets": [], "strategy": "auto", "tree": {"kind": "empty"}},
        {"format": 1, "facets": "no", "strategy": "auto", "tree": {"kind": "empty"}},
        {"format": 1, "facets": [], "strategy": "wat", "tree": {"kind": "empty"}},
        {"format": 1, "facets": [], "strategy": "auto", "tree": {"kind": "wat"}},
        {"format": 1, "facets": [], "strategy": "auto", "tree": {"kind": "split"}},
        {"format": 1, "facets": [], "strategy": "auto", "tree": {"kind": "point"}},
        {
            "format": True,
            "facets": [[1]],
            "strategy": "auto",
            "tree": {"kind": "point", "vertex": 1},
        },
        {
            "format": 1,
            "facets": [[1]],
            "strategy": "auto",
            "tree": {"kind": "point", "vertex": True},
        },
    ],
)
def test_certificate_rejects_malformed_documents(doc):
    with pytest.raises(ParseError):
        parse_certificate(doc)

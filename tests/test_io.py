import io
import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kkvd.io
from kkvd import (
    EmptyFace,
    Face,
    Point,
    Split,
    Strategy,
    certify_vd,
    make_complex,
    segment,
    validate_certificate,
)
from kkvd.cli import main
from kkvd.errors import BudgetExceeded, ParseError
from kkvd.io import (
    certificate_document,
    format_facets,
    node_to_tree,
    parse_certificate,
    parse_facets,
    tree_to_node,
    write_json,
)

from oracles import random_family


def test_parse_basic_file():
    text = "# comment\n1 2\n\n  2 3\n"
    assert parse_facets(text) == [Face(1, 2), Face(2, 3)]


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_facets("1 2\nfoo bar\n")
    assert err.value.lineno == 2
    assert "foo" in str(err.value)
    # int() reads each of these as a number; only ASCII digits are labels
    for token in ["1_0", "+3", "٣", "²", "-1"]:
        with pytest.raises(ParseError) as err:
            parse_facets(f"1 2\n4 {token}\n")
        assert err.value.lineno == 2, token
        assert repr(token) in str(err.value), token
    # a line is checked at once; the first bad token is still the one named
    for text, message in [
        ("1 2\n3 4 x5 -6\n", "line 2: expected a positive integer, got 'x5'"),
        ("1 2\n\n3 0 2\n", "line 3: vertex labels must be integers >= 1, got 0"),
        ("1 2\n00 7\n", "line 2: vertex labels must be integers >= 1, got 0"),
        ("1 2\n3 " + "9" * 5000 + " x\n", "line 2: expected a positive integer, got '999"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_facets(text)
        assert str(err.value).startswith(message), text
    # duplicate labels collapse; tabs and other blanks separate labels
    assert parse_facets("2 2 1\n3 1 3 1\n") == [Face(1, 2), Face(1, 3)]
    assert parse_facets("1\t2\t3\n4\t 5\u00a06\n") == [Face(1, 2, 3), Face(4, 5, 6)]


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


def expanded_node(tree) -> dict:
    """The format-1 node of a tree, built node by node with nothing shared."""
    if isinstance(tree, Split):
        return {
            "kind": "split",
            "vertex": tree.vertex,
            "link": expanded_node(tree.link),
            "deletion": expanded_node(tree.deletion),
        }
    if isinstance(tree, Point):
        return {"kind": "point", "vertex": tree.vertex}
    return {"kind": "emptyface" if isinstance(tree, EmptyFace) else "empty"}


def test_shared_subtrees_serialize_in_full(tmp_path, capsys):
    rng = random.Random(67)
    complexes = [make_complex([tuple(range(1, n + 1))]) for n in range(1, 11)]
    # complete families share subtrees between different parents
    for m, k in ((5, 2), (6, 3), (7, 4), (8, 2)):
        complexes.append(make_complex(itertools.combinations(range(1, m + 1), k)))
    for _ in range(80):
        # a cone over random k-sets on 2..8, its apex 1 scanned first
        k = rng.randint(1, 3)
        base = random_family(rng, k, rng.randint(k, 7), rng.randint(1, 6))
        complexes.append(make_complex([(1, *(v + 1 for v in f)) for f in base]))
    shared = 0
    for c in complexes:
        report = certify_vd(c)
        tree = report.tree
        if tree is None:
            continue
        shared += isinstance(tree, Split) and tree.link is tree.deletion
        doc = certificate_document(c.facets, report.strategy_used, tree)
        expected = {
            "format": 1,
            "facets": [list(f.vertices) for f in c.facets],
            "strategy": report.strategy_used.value,
            "tree": expanded_node(tree),
        }
        text = json.dumps(expected, indent=2)
        assert json.dumps(doc, indent=2) == text
        assert validate_certificate(c, tree)
        # the CLI streams the same text to the certificate file and stdout
        facets, cert = tmp_path / "facets.txt", tmp_path / "cert.json"
        facets.write_text(format_facets(c.facets))
        assert main(["vd", str(facets), "--cert", str(cert)]) == 0
        assert cert.read_text() == text + "\n"
        capsys.readouterr()
        assert main(["vd", str(facets), "--json"]) == 0
        answer = {
            "decomposable": True,
            "strategy": report.strategy_used.value,
            "certificate": expected,
        }
        assert capsys.readouterr().out == json.dumps(answer, indent=2) + "\n"
    assert shared >= 40


def test_written_node_count_is_checked_against_the_budget(monkeypatch):
    # a single 5-vertex facet writes out 2^5 - 1 nodes from 5 distinct ones
    c = make_complex([range(1, 6)])
    report = certify_vd(c)
    monkeypatch.setattr(kkvd.io, "WRITTEN_NODE_BUDGET", 31)
    certificate_document(c.facets, report.strategy_used, report.tree)
    monkeypatch.setattr(kkvd.io, "WRITTEN_NODE_BUDGET", 30)
    with pytest.raises(BudgetExceeded, match="writes out 31 nodes.* budget of 30"):
        certificate_document(c.facets, report.strategy_used, report.tree)


class RecordingFile(io.StringIO):
    """A text file that remembers the length of its longest write."""

    longest = 0

    def write(self, text):
        self.longest = max(self.longest, len(text))
        return super().write(text)


SHARED = {"kind": "point", "vertex": 3}


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        None,
        True,
        False,
        -7,
        0,
        "",
        'a "quoted" \\ string\nwith\tcontrols',
        "non-ASCII: é ∅ 😀",
        [[]],
        [{}],
        {"a": {}},
        (1, (2, ())),
        {
            "format": 1,
            "empty": [],
            "none": None,
            "flags": [True, False],
            "negative": [-1, -2**70],
            "é ∅": {"deep": [[["x", {"y": [None]}]], {}]},
            "shared": [SHARED, {"again": SHARED}],
        },
    ],
)
def test_writer_matches_json_dumps(obj):
    out = io.StringIO()
    write_json(obj, out)
    assert out.getvalue() == json.dumps(obj, indent=2)


def test_writer_streams_a_large_document():
    node = {"kind": "point", "vertex": 1}
    for vertex in range(2, 15):
        node = {"kind": "split", "vertex": vertex, "link": node, "deletion": node}
    out = RecordingFile()
    write_json(node, out)
    text = json.dumps(node, indent=2)
    assert out.getvalue() == text
    assert out.longest < len(text) / 10


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.text(max_size=4),
    st.sampled_from([[], {}, ()]),
)


@st.composite
def shared_documents(draw):
    """A document whose containers each hold leaves or earlier containers.

    An earlier container may be held by several later ones, and so recurs
    at several depths of the document.
    """
    pool = []
    for _ in range(draw(st.integers(1, 8))):
        children = st.one_of(LEAVES, st.sampled_from(pool)) if pool else LEAVES
        items = draw(st.lists(children, min_size=1, max_size=3))
        kind = draw(st.sampled_from(["dict", "list", "tuple"]))
        if kind == "dict":
            size = len(items)
            keys = draw(st.lists(st.text(max_size=3), min_size=size, max_size=size, unique=True))
            pool.append(dict(zip(keys, items)))
        else:
            pool.append(items if kind == "list" else tuple(items))
    return pool[-1]


@settings(max_examples=200, deadline=None)
@given(shared_documents(), st.sampled_from([1, 7, 40, 200, 1 << 16]))
def test_writer_matches_json_dumps_on_shared_containers(obj, write_chars):
    out = io.StringIO()
    with mock.patch.object(kkvd.io, "_WRITE_CHARS", write_chars):
        write_json(obj, out)
    assert out.getvalue() == json.dumps(obj, indent=2)


def test_writer_renders_a_shared_subtree_once_per_depth(monkeypatch):
    # 2^13 points written out, from 14 distinct nodes
    node = {"kind": "point", "vertex": 1}
    for vertex in range(2, 15):
        node = {"kind": "split", "vertex": vertex, "link": node, "deletion": node}
    rendered = []
    leaf_text = kkvd.io._leaf_text
    monkeypatch.setattr(kkvd.io, "_leaf_text", lambda v: rendered.append(v) or leaf_text(v))
    monkeypatch.setattr(kkvd.io, "_WRITE_CHARS", 4096)
    out = io.StringIO()
    write_json(node, out)
    text = json.dumps(node, indent=2)
    assert out.getvalue() == text
    # each node renders two leaves.  One whose text fits in one write is
    # rendered twice, where it is first met and where it is met again and
    # memoized; one above that size at each of its places, which number at
    # most twice the writes.  Written out in full it would be 2^14 - 1 times.
    assert len(rendered) <= 2 * 2 * 14 + 2 * 2 * len(text) // 4096


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
        {"format": 1, "facets": [], "strategy": "auto", "tree": [{"kind": "empty"}]},
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
        {"format": 1, "facets": [""], "strategy": "auto", "tree": {"kind": "empty"}},
        {"format": 1, "facets": [{}], "strategy": "auto", "tree": {"kind": "empty"}},
        *(
            {"format": 1, "facets": facets, "strategy": "auto", "tree": {"kind": "empty"}}
            for facets in ([5], [None], ["12"], [[0]], [[True]], [[1.0]])
        ),
    ],
)
def test_certificate_rejects_malformed_documents(doc):
    with pytest.raises(ParseError) as error:
        parse_certificate(doc)
    assert "argument after" not in str(error.value)  # no TypeError text leaks out


def split_chain(depth: int) -> dict:
    """A tree document of `depth` nested splits, built without recursion."""
    node = {"kind": "point", "vertex": depth + 1}
    for v in range(depth, 0, -1):
        empty = {"kind": "empty"}
        node = {"kind": "split", "vertex": v, "link": node, "deletion": empty}
    return node


def test_chain_of_max_vertices_splits_parses():
    tree = node_to_tree(split_chain(64))
    for v in range(1, 65):
        assert isinstance(tree, Split) and tree.vertex == v
        tree = tree.link
    assert tree == Point(vertex=65)


def test_writer_matches_json_dumps_at_the_deepest_nesting():
    # the writer recurses once per container, so this is its deepest
    # certificate document: 64 splits below the document and its tree
    tree = node_to_tree(split_chain(64))
    doc = certificate_document([Face(*range(1, 66))], Strategy.EXHAUSTIVE, tree)
    out = io.StringIO()
    write_json(doc, out)
    assert out.getvalue() == json.dumps(doc, indent=2)


@pytest.mark.parametrize("depth", [65, 3000])
def test_deeply_nested_certificate_is_a_parse_error(depth):
    tree = split_chain(depth)
    doc = {"format": 1, "facets": [[1]], "strategy": "auto", "tree": tree}
    with pytest.raises(ParseError, match="nests more than 64 splits"):
        parse_certificate(doc)

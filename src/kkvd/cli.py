"""Command-line interface.

Exit codes are a contract: 0 means success (and, for verdict commands,
that the property holds), 1 means the property fails, 2 means the input
could not be evaluated at all.  Identical input produces byte-identical
output; there is no randomness anywhere in the command paths.

Each ``cmd_*`` function returns ``(exit code, JSON document, text)`` and
writes nothing to stdout: :func:`main` writes the document under
``--json`` and the text otherwise, inside the ``try`` that turns a
:class:`KKError` or an ``OSError`` (a broken pipe included) into exit 2.
A command that will not be asked for its document may return None for it.
Warnings go to stderr as the command finds them.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .complexes import FaceFamily, SimplicialComplex, _intersection, make_complex
from .decomposition import Strategy, certify_vd, find_shelling
from .errors import KKError, ParseError
from .homology import FACE_BUDGET, CoefficientField, _check_face_budget
from .homology import reduced_betti, reisner_cm_check
from .io import certificate_document, format_facets, parse_facets, write_json
from .kruskal_katona import delta, segment, segment_avoiding, shadow

#: what a command hands to :func:`main`: exit code, JSON document, text
_Result = tuple[int, object, str]


@dataclass(frozen=True)
class AnalysisReport:
    """Shape summary of a complex plus its slack against the shadow bound."""

    facet_count: int
    dimension: int | None
    f_vector: tuple[int, ...] | None
    is_pure: bool
    kk_bound: int | None
    slack: int | None
    is_extremal: bool | None


def analyze_complex(c: SimplicialComplex) -> AnalysisReport:
    d = c.dimension
    f = None if d is None else c.f_vector()
    bound = slack = None
    if c.is_pure and d is not None and d >= 0:
        bound = delta(f[d], d + 1)
        # in dimension 0 the only codimension-1 face is ∅
        slack = (f[d - 1] if d else 1) - bound
    return AnalysisReport(
        facet_count=c.facet_count,
        dimension=d,
        f_vector=f,
        is_pure=c.is_pure,
        kk_bound=bound,
        slack=slack,
        is_extremal=None if slack is None else slack == 0,
    )


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    # undecodable bytes reach the parser, as on stdin, and fail there
    return Path(path).read_text(errors="surrogateescape")


def _load_complex(path: str) -> SimplicialComplex:
    return make_complex(parse_facets(_read_text(path)))


def cmd_analyze(args: argparse.Namespace) -> _Result:
    report = analyze_complex(_load_complex(args.file))
    if report.facet_count == 0:
        print("warning: empty complex, nothing to analyze", file=sys.stderr)
    elif not report.is_pure:
        print(
            "warning: complex is not pure; extremality fields are unavailable",
            file=sys.stderr,
        )
    yes = {True: "yes", False: "no"}
    rows = (
        ("facets", report.facet_count),
        ("dimension", report.dimension),
        ("f-vector", report.f_vector and " ".join(map(str, report.f_vector))),
        ("pure", yes[report.is_pure]),
        ("kk-bound", report.kk_bound),
        ("slack", report.slack),
        ("extremal", yes.get(report.is_extremal)),
    )
    text = "".join(f"{name}: {'n/a' if v is None else v}\n" for name, v in rows)
    return 0, asdict(report) if args.json else None, text


def cmd_vd(args: argparse.Namespace) -> _Result:
    c = _load_complex(args.file)
    report = certify_vd(c, args.strategy)
    strategy = report.strategy_used.value
    if not report.decomposable:
        steps = [str(s) for s in report.obstruction]
        doc = {"decomposable": False, "strategy": strategy, "obstruction": steps}
        return 1, doc, "not vertex decomposable\n" + "".join(f"  {s}\n" for s in steps)
    doc, text = None, f"vertex decomposable (strategy: {strategy})\n"
    if args.cert or args.json:
        cert = certificate_document(c.facets, report.strategy_used, report.tree)
        doc = {"decomposable": True, "strategy": strategy, "certificate": cert}
    if args.cert:
        with Path(args.cert).open("w") as fp:
            write_json(cert, fp)
            fp.write("\n")
        text += f"certificate written to {args.cert}\n"
    return 0, doc, text


def cmd_gen(args: argparse.Namespace) -> _Result:
    if args.avoid is not None:
        family = segment_avoiding(args.k, args.n, args.avoid)
    else:
        family = segment(args.k, args.n)
    return 0, None, format_facets(family)


def cmd_delta(args: argparse.Namespace) -> _Result:
    value = delta(args.n, args.k)
    return 0, {"k": args.k, "n": args.n, "delta": value}, f"{value}\n"


def cmd_shadow(args: argparse.Namespace) -> _Result:
    family = FaceFamily(parse_facets(_read_text(args.file)))
    result = shadow(family)
    if result.uniform_size == 0 and len(result):
        raise ParseError(
            "shadow of singletons is the empty face, which has no facet-list form"
        )
    return 0, None, format_facets(result)


def cmd_betti(args: argparse.Namespace) -> _Result:
    c = _load_complex(args.file)
    if not _intersection(c._facet_masks):  # a cone answers at once
        _check_face_budget(c, FACE_BUDGET)
    reduced = list(reduced_betti(c, args.field).reduced)
    doc = {
        "field": args.field,
        "dimension": c.dimension,
        "min_degree": -1,
        "reduced_betti": reduced,
    }
    return 0, doc, "".join(f"b[{i}] = {b}\n" for i, b in enumerate(reduced, start=-1))


def cmd_reisner(args: argparse.Namespace) -> _Result:
    report = reisner_cm_check(_load_complex(args.file), args.field)
    violations = [
        {"face": list(v.face.vertices), "degree": v.index, "rank": v.rank}
        for v in report.violations
    ]
    doc = {"field": args.field, "is_cm": report.is_cm, "violations": violations}
    if report.is_cm:
        return 0, doc, f"Cohen-Macaulay over {args.field} (fields beyond gf2/q unchecked)\n"
    text = f"not Cohen-Macaulay over {args.field}\n" + "".join(
        f"  link of {{{','.join(map(str, v['face']))}}}: "
        f"reduced b[{v['degree']}] = {v['rank']}\n"
        for v in violations
    )
    return 1, doc, text


def cmd_shell(args: argparse.Namespace) -> _Result:
    order = find_shelling(_load_complex(args.file), facet_limit=args.facet_limit)
    if order is None:
        return 1, {"shellable": False, "order": None}, "no shelling order exists\n"
    doc = {"shellable": True, "order": [list(f.vertices) for f in order]}
    return 0, doc, format_facets(order)


_FILE = ("file", {"help": "facet-list file, or - for stdin"})
_JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})
_FIELD = ("--field", {
    "choices": [f.value for f in CoefficientField],
    "default": CoefficientField.RATIONALS.value,
    "help": "coefficient field (default: q)",
})
_K = ("k", {"type": int, "help": "face cardinality"})
#: (name, help, command, arguments) of each subcommand, in --help order
_COMMANDS = (
    ("analyze", "f-vector, shadow bound, slack, extremality", cmd_analyze, [_FILE, _JSON]),
    ("vd", "certify vertex decomposability", cmd_vd, [
        _FILE,
        ("--strategy", {"choices": [s.value for s in Strategy],
                        "default": Strategy.AUTO.value}),
        ("--cert", {"metavar": "PATH", "help": "write the certificate JSON here"}),
        _JSON,
    ]),
    ("gen", "emit an initial segment of the squashed order", cmd_gen, [
        _K,
        ("n", {"type": int, "help": "how many faces"}),
        ("--avoid", {"type": int, "help": "skip sets containing this vertex"}),
    ]),
    ("delta", "Kruskal-Katona shadow lower bound", cmd_delta, [
        _K,
        ("n", {"type": int, "help": "family size"}),
        _JSON,
    ]),
    ("shadow", "shadow of the facet family in a file", cmd_shadow, [_FILE]),
    ("betti", "reduced Betti numbers", cmd_betti, [_FILE, _FIELD, _JSON]),
    ("reisner", "Cohen-Macaulay check via link homology", cmd_reisner, [_FILE, _FIELD, _JSON]),
    ("shell", "search for a shelling order", cmd_shell, [
        _FILE,
        ("--facet-limit", {"type": int, "default": 8}),
        _JSON,
    ]),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="kkvd",
        description=(
            "Analyze pure simplicial complexes: Kruskal-Katona extremality, "
            "vertex-decomposition certificates, shellings, and Reisner "
            "Cohen-Macaulay checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, command, arguments in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=command, json=False)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, doc, text = args.func(args)
        if args.json:
            write_json(doc, sys.stdout)
        sys.stdout.write("\n" if args.json else text)
        return code
    except (KKError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

Exit codes are a contract: 0 means success (and, for verdict commands,
that the property holds), 1 means the property fails, 2 means the input
could not be evaluated at all.  Identical input produces byte-identical
output; there is no randomness anywhere in the command paths.
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


def _print_json(doc: dict) -> None:
    write_json(doc, sys.stdout)
    sys.stdout.write("\n")


def _yesno(flag: bool | None) -> str:
    if flag is None:
        return "n/a"
    return "yes" if flag else "no"


def cmd_analyze(args: argparse.Namespace) -> int:
    report = analyze_complex(_load_complex(args.file))
    if report.facet_count == 0:
        print("warning: empty complex, nothing to analyze", file=sys.stderr)
    elif not report.is_pure:
        print(
            "warning: complex is not pure; extremality fields are unavailable",
            file=sys.stderr,
        )
    if args.json:
        _print_json(asdict(report))
        return 0
    fv = "n/a" if report.f_vector is None else " ".join(map(str, report.f_vector))
    print(f"facets: {report.facet_count}")
    print(f"dimension: {'n/a' if report.dimension is None else report.dimension}")
    print(f"f-vector: {fv}")
    print(f"pure: {_yesno(report.is_pure)}")
    print(f"kk-bound: {'n/a' if report.kk_bound is None else report.kk_bound}")
    print(f"slack: {'n/a' if report.slack is None else report.slack}")
    print(f"extremal: {_yesno(report.is_extremal)}")
    return 0


def cmd_vd(args: argparse.Namespace) -> int:
    c = _load_complex(args.file)
    report = certify_vd(c, args.strategy)
    if report.decomposable:
        if args.cert or args.json:
            doc = certificate_document(c.facets, report.strategy_used, report.tree)
        if args.cert:
            with Path(args.cert).open("w") as fp:
                write_json(doc, fp)
                fp.write("\n")
        if args.json:
            _print_json(
                {
                    "decomposable": True,
                    "strategy": report.strategy_used.value,
                    "certificate": doc,
                }
            )
        else:
            print(f"vertex decomposable (strategy: {report.strategy_used.value})")
            if args.cert:
                print(f"certificate written to {args.cert}")
        return 0
    steps = [str(s) for s in report.obstruction]
    if args.json:
        _print_json(
            {
                "decomposable": False,
                "strategy": report.strategy_used.value,
                "obstruction": steps,
            }
        )
    else:
        print("not vertex decomposable")
        for step in steps:
            print(f"  {step}")
    return 1


def cmd_gen(args: argparse.Namespace) -> int:
    if args.avoid is not None:
        family = segment_avoiding(args.k, args.n, args.avoid)
    else:
        family = segment(args.k, args.n)
    sys.stdout.write(format_facets(family))
    return 0


def cmd_delta(args: argparse.Namespace) -> int:
    value = delta(args.n, args.k)
    if args.json:
        _print_json({"k": args.k, "n": args.n, "delta": value})
    else:
        print(value)
    return 0


def cmd_shadow(args: argparse.Namespace) -> int:
    family = FaceFamily(parse_facets(_read_text(args.file)))
    result = shadow(family)
    if result.uniform_size == 0 and len(result):
        raise ParseError(
            "shadow of singletons is the empty face, which has no facet-list form"
        )
    sys.stdout.write(format_facets(result))
    return 0


def cmd_betti(args: argparse.Namespace) -> int:
    c = _load_complex(args.file)
    if not _intersection(c._facet_masks):  # a cone answers at once
        _check_face_budget(c, FACE_BUDGET)
    profile = reduced_betti(c, args.field)
    if args.json:
        _print_json(
            {
                "field": args.field,
                "dimension": c.dimension,
                "min_degree": -1,
                "reduced_betti": list(profile.reduced),
            }
        )
    else:
        degrees = range(-1, profile.top_dimension + 1)
        for i, b in zip(degrees, profile.reduced):
            print(f"b[{i}] = {b}")
    return 0


def cmd_reisner(args: argparse.Namespace) -> int:
    c = _load_complex(args.file)
    report = reisner_cm_check(c, args.field)
    if args.json:
        _print_json(
            {
                "field": args.field,
                "is_cm": report.is_cm,
                "violations": [
                    {"face": list(v.face.vertices), "degree": v.index, "rank": v.rank}
                    for v in report.violations
                ],
            }
        )
    else:
        if report.is_cm:
            print(f"Cohen-Macaulay over {args.field} (fields beyond gf2/q unchecked)")
        else:
            print(f"not Cohen-Macaulay over {args.field}")
            for v in report.violations:
                face = "{" + ",".join(map(str, v.face.vertices)) + "}"
                print(f"  link of {face}: reduced b[{v.index}] = {v.rank}")
    return 0 if report.is_cm else 1


def cmd_shell(args: argparse.Namespace) -> int:
    c = _load_complex(args.file)
    order = find_shelling(c, facet_limit=args.facet_limit)
    if args.json:
        doc = {
            "shellable": order is not None,
            "order": None
            if order is None
            else [list(f.vertices) for f in order],
        }
        _print_json(doc)
    elif order is None:
        print("no shelling order exists")
    else:
        sys.stdout.write(format_facets(order))
    return 0 if order is not None else 1


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

    def add_file(p):
        p.add_argument("file", help="facet-list file, or - for stdin")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_field(p):
        p.add_argument(
            "--field",
            choices=[f.value for f in CoefficientField],
            default=CoefficientField.RATIONALS.value,
            help="coefficient field (default: q)",
        )

    p = sub.add_parser("analyze", help="f-vector, shadow bound, slack, extremality")
    add_file(p)
    add_json(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("vd", help="certify vertex decomposability")
    add_file(p)
    p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        default=Strategy.AUTO.value,
    )
    p.add_argument("--cert", metavar="PATH", help="write the certificate JSON here")
    add_json(p)
    p.set_defaults(func=cmd_vd)

    p = sub.add_parser("gen", help="emit an initial segment of the squashed order")
    p.add_argument("k", type=int, help="face cardinality")
    p.add_argument("n", type=int, help="how many faces")
    p.add_argument("--avoid", type=int, help="skip sets containing this vertex")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("delta", help="Kruskal-Katona shadow lower bound")
    p.add_argument("k", type=int, help="face cardinality")
    p.add_argument("n", type=int, help="family size")
    add_json(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("shadow", help="shadow of the facet family in a file")
    add_file(p)
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("betti", help="reduced Betti numbers")
    add_file(p)
    add_field(p)
    add_json(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("reisner", help="Cohen-Macaulay check via link homology")
    add_file(p)
    add_field(p)
    add_json(p)
    p.set_defaults(func=cmd_reisner)

    p = sub.add_parser("shell", help="search for a shelling order")
    add_file(p)
    p.add_argument("--facet-limit", type=int, default=8)
    add_json(p)
    p.set_defaults(func=cmd_shell)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KKError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

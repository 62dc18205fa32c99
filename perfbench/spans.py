"""Per-layer spans around kkvd's public functions, installed from outside the package.

``install`` replaces each traced function or method with a wrapper, in
every kkvd module namespace that holds it, so calls between kkvd's own
modules are traced too.  Spans are not kept one by one: each closing span
adds its self time (its duration minus the time its child spans cover) and
its counts to per-metric totals.  Bookkeeping done after a span closes,
such as counting certificate nodes, is covered by that span as seen from
its parent, so it lands in no layer's self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import kkvd
import kkvd.cli
import kkvd.io

# (metric, unit) in report order; per-layer metrics that should move which
# end-to-end metric on which workload are listed in README.md
METRICS = [
    ("complexes.build_s", "s"),
    ("complexes.build_calls", "count"),
    ("complexes.link_s", "s"),
    ("complexes.link_calls", "count"),
    ("complexes.delete_vertex_s", "s"),
    ("complexes.delete_vertex_calls", "count"),
    ("complexes.faces_of_dim_s", "s"),
    ("complexes.faces_enumerated", "count"),
    ("kruskal_katona.is_extremal_s", "s"),
    ("kruskal_katona.is_extremal_calls", "count"),
    ("kruskal_katona.segment_s", "s"),
    ("kruskal_katona.shadow_s", "s"),
    ("kruskal_katona.delta_s", "s"),
    ("decomposition.certify_extremal_s", "s"),
    ("decomposition.certify_exhaustive_s", "s"),
    ("decomposition.cert_nodes", "count"),
    ("decomposition.validate_s", "s"),
    ("decomposition.find_shelling_s", "s"),
    ("homology.boundary_matrix_s", "s"),
    ("homology.boundary_entries", "count"),
    ("homology.rank_gf2_s", "s"),
    ("homology.rank_q_s", "s"),
    ("homology.reduced_betti_s", "s"),
    ("homology.reisner_s", "s"),
    ("homology.reisner_calls", "count"),
    ("homology.refused_s", "s"),
    ("io.parse_facets_s", "s"),
    ("io.format_facets_s", "s"),
    ("io.certificate_document_s", "s"),
    ("io.cert_bytes", "bytes"),
    ("cli.main_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("bench.op_total_s", "s"),
    ("bench.outside_layers_s", "s"),
]


def _tree_nodes(tree) -> int:
    if isinstance(tree, kkvd.Split):
        return 1 + _tree_nodes(tree.link) + _tree_nodes(tree.deletion)
    return 1


def _certify_layer(args, kwargs, result):
    if result is not None:
        strategy = result.strategy_used
    else:
        strategy = kkvd.Strategy(args[1] if len(args) > 1 else kwargs.get("strategy", "auto"))
    if strategy is kkvd.Strategy.EXHAUSTIVE:
        return "decomposition.certify_exhaustive"
    return "decomposition.certify_extremal"


def _certify_counts(args, result):
    if result is not None and result.tree is not None:
        yield "decomposition.cert_nodes", _tree_nodes(result.tree)


def _faces_counts(args, result):
    yield "complexes.faces_enumerated", len(result)


def _boundary_counts(args, result):
    yield "homology.boundary_entries", len(result) * (len(result[0]) if result else 0)


def _cert_bytes(args, result):
    yield "io.cert_bytes", len(json.dumps(result))


class Tracer:
    """Self times and counts per metric; records only while ``on`` is set."""

    def __init__(self):
        self.on = False
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []

    def span(self, fn, layer, counts=None, calls=False):
        """Wrap fn; `layer` names its metrics, or picks the name per call."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            covered = [0.0]
            stack.append(covered)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(start, covered, layer, args, kwargs, None, exc, None, calls)
                raise
            tracer._close(start, covered, layer, args, kwargs, result, None, counts, calls)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, start, covered, layer, args, kwargs, result, exc, counts, calls):
        end = time.perf_counter()
        self._stack.pop()
        name = layer if isinstance(layer, str) else layer(args, kwargs, result)
        totals = self.totals
        totals[name + "_s"] += end - start - covered[0]
        if calls:
            totals[name + "_calls"] += 1
        if isinstance(exc, kkvd.errors.BudgetExceeded) and name == "homology.reisner":
            totals["homology.refused_s"] += end - start
        if counts is not None:
            for metric, amount in counts(args, result):
                totals[metric] += amount
        if self._stack:
            self._stack[-1][0] += time.perf_counter() - start

    def cli_span(self, fn):
        """cli.main, which also counts the bytes it writes to a captured stdout."""
        inner = self.span(fn, "cli.main")
        tracer = self

        def wrapper(argv=None):
            if not tracer.on:
                return fn(argv)
            before = sys.stdout.tell()
            try:
                return inner(argv)
            finally:
                tracer.totals["cli.stdout_bytes"] += sys.stdout.tell() - before

        wrapper.__wrapped__ = fn
        return wrapper

    def report(self) -> dict:
        """Every per-layer metric, zero for layers the run never entered."""
        totals = dict(self.totals)
        self_times = sum(
            v for k, v in totals.items()
            if k.endswith("_s") and k not in ("homology.refused_s", "bench.op_total_s")
        )
        totals["bench.outside_layers_s"] = totals.get("bench.op_total_s", 0.0) - self_times
        return {name: {"value": totals.get(name, 0), "unit": unit} for name, unit in METRICS}


def install(tracer: Tracer) -> None:
    """Wrap kkvd's traced functions and methods in every module that holds them."""
    from kkvd import complexes, decomposition, homology, kruskal_katona

    cls = complexes.SimplicialComplex
    for attr, layer, counts in (
        ("__init__", "complexes.build", None),
        ("link", "complexes.link", None),
        ("delete_vertex", "complexes.delete_vertex", None),
        ("faces_of_dim", "complexes.faces_of_dim", _faces_counts),
    ):
        calls = counts is None
        setattr(cls, attr, tracer.span(getattr(cls, attr), layer, counts, calls))

    kk, dec, hom = kruskal_katona, decomposition, homology
    functions = [
        (kk.is_extremal, "kruskal_katona.is_extremal", None, True),
        (kk.segment, "kruskal_katona.segment", None, False),
        (kk.segment_avoiding, "kruskal_katona.segment", None, False),
        (kk.shadow, "kruskal_katona.shadow", None, False),
        (kk.delta, "kruskal_katona.delta", None, False),
        (dec.certify_vd, _certify_layer, _certify_counts, False),
        (dec.validate_certificate, "decomposition.validate", None, False),
        (dec.find_shelling, "decomposition.find_shelling", None, False),
        (hom.boundary_matrix, "homology.boundary_matrix", _boundary_counts, False),
        (hom.rank_gf2, "homology.rank_gf2", None, False),
        (hom.rank_rational, "homology.rank_q", None, False),
        (hom.reduced_betti, "homology.reduced_betti", None, False),
        (hom.reisner_cm_check, "homology.reisner", None, True),
        (kkvd.io.parse_facets, "io.parse_facets", None, False),
        (kkvd.io.format_facets, "io.format_facets", None, False),
        (kkvd.io.certificate_document, "io.certificate_document", _cert_bytes, False),
    ]
    wrappers = [(fn, tracer.span(fn, *rest)) for fn, *rest in functions]
    wrappers.append((kkvd.cli.main, tracer.cli_span(kkvd.cli.main)))
    modules = [m for name, m in sys.modules.items() if name == "kkvd" or name.startswith("kkvd.")]
    for original, wrapped in wrappers:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

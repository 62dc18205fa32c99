"""The three benchmark workloads: inputs from a seed, one operation, its checks.

Each workload builds a *pass*, a seeded list of operation inputs that a
run repeats many times.  An untimed check after every operation compares
the answer with computations made apart from kkvd (see ``checks.py``); an
answer already verified at the same place in the pass is accepted when it
is byte-for-byte the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import kkvd
import kkvd.cli
import kkvd.io

import checks
from oracles import betti_oracle, brute_shadow, is_valid_shelling

DATA = Path(__file__).resolve().parent / "data"
GF2 = kkvd.CoefficientField.GF2
Q = kkvd.CoefficientField.RATIONALS


def corpus_sample(name: str) -> list[tuple]:
    """A fixed sample of the acceptance corpus from ``data/`` (see ``make_samples.py``)."""
    text = (DATA / name).read_text()
    return [
        tuple(tuple(int(v) for v in facet.split(",")) for facet in line.split())
        for line in text.splitlines()
    ]


def relabel(facets, labels) -> tuple:
    """Facets with vertex v renamed labels[v - 1], each facet sorted."""
    return tuple(tuple(sorted(labels[v - 1] for v in f)) for f in facets)


def scatter(facets, rng: random.Random) -> tuple:
    """An isomorphic copy of the facets on seeded distinct labels in 1..64."""
    top = max(v for f in facets for v in f)
    return relabel(facets, rng.sample(range(1, 65), top))


class Workload:
    name = ""
    #: percentile reported as op_tail_ms, and the completed-operation count a
    #: run needs so that at least ten samples lie beyond it
    tail_pct = 99
    min_samples = 1000
    #: whole passes over `items` in a traced run
    trace_passes = 2
    #: per-operation time limit in seconds
    limit_s = 20.0

    #: one pass: the operations a run repeats until it ends
    items: list

    def limit(self, item) -> float:
        return self.limit_s

    def is_fault(self, item) -> bool:
        return False

    def run(self, item):
        raise NotImplementedError

    def digest(self, item, result):
        return result

    def check(self, item, result) -> str | None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class CertifyCorpus(Workload):
    """One extremal complex: build, extremality, certify, serialize, validate."""

    name = "certify-corpus"

    def __init__(self, seed: int, root: Path, workdir: Path):
        rng = random.Random(seed)
        self.items = [scatter(f, rng) for f in corpus_sample("certify-corpus.txt")]
        rng.shuffle(self.items)
        self._extremal: dict = {}

    def run(self, facets):
        c = kkvd.make_complex(facets)
        extremal = kkvd.is_extremal(c)
        report = kkvd.certify_vd(c, kkvd.Strategy.EXTREMAL)
        doc = kkvd.io.certificate_document(c.facets, report.strategy_used, report.tree)
        text = json.dumps(doc)
        return extremal, text, kkvd.validate_certificate(c, report.tree)

    def check(self, facets, result):
        extremal, text, valid = result
        if facets not in self._extremal:
            self._extremal[facets] = checks.is_extremal(facets)
        if not self._extremal[facets]:
            return "input is not extremal by brute-force shadow count"
        if extremal is not True:
            return "is_extremal said False on an extremal complex"
        if valid is not True:
            return "validate_certificate rejected the certificate"
        doc = json.loads(text)
        if doc.get("strategy") != "extremal":
            return f"strategy {doc.get('strategy')!r}"
        return checks.certificate(facets, doc)


class CrosscheckMixed(Workload):
    """One complex with at most 8 facets: VD (auto), shelling, Reisner in both fields."""

    name = "crosscheck-mixed"
    #: random complexes in a pass, beside the 450 corpus members of the
    #: sample file, so that each input runs about ten times in a 30 s run
    random_complexes = 50
    #: the random complexes are drawn by this fixed generator, and only
    #: their labels and order come from the seed: non-decomposable ones cost
    #: up to fifty times the median input, so seeded draws made the pass's
    #: cost differ from seed to seed (see README.md)
    random_draw_seed = 0
    #: share of inputs whose Betti numbers are also recomputed by the oracle
    betti_share = 0.1

    def __init__(self, seed: int, root: Path, workdir: Path):
        rng = random.Random(seed)
        facets = corpus_sample("crosscheck-corpus.txt")
        draws = random.Random(self.random_draw_seed)
        facets += [random_pure_facets(draws) for _ in range(self.random_complexes)]
        self.items = [(f, kkvd.make_complex(f)) for f in (scatter(f, rng) for f in facets)]
        rng.shuffle(self.items)
        self._betti_sample = {
            facets for facets, _ in self.items if rng.random() < self.betti_share
        }

    def run(self, item):
        c = item[1]
        return (
            kkvd.certify_vd(c, kkvd.Strategy.AUTO),
            kkvd.find_shelling(c),
            kkvd.reisner_cm_check(c, GF2),
            kkvd.reisner_cm_check(c, Q),
        )

    def digest(self, item, result):
        return repr(result)

    def check(self, item, result):
        facets, c = item
        vd, order, cm2, cmq = result
        extremal = checks.is_extremal(facets)
        if extremal and not (vd.decomposable and vd.strategy_used is kkvd.Strategy.EXTREMAL):
            return "extremal complex not certified by the extremal strategy"
        if not extremal and vd.strategy_used is not kkvd.Strategy.EXHAUSTIVE:
            return "non-extremal complex certified as extremal"
        if order is not None:
            shelling = [f.vertices for f in order]
            if checks.facet_sets(shelling) != checks.facet_sets(facets):
                return "shelling does not list the facets"
            if not is_valid_shelling(shelling):
                return "returned shelling fails the oracle"
        if vd.decomposable:
            problem = checks.replay(facets, checks.tree_node(vd.tree))
            if problem:
                return f"certificate replay: {problem}"
            if order is None:
                return "vertex decomposable but no shelling found"
            if not (cm2.is_cm and cmq.is_cm):
                return "vertex decomposable but not Cohen-Macaulay"
        elif not vd.obstruction:
            return "no obstruction for a non-decomposable complex"
        if vd.decomposable != checks.is_vertex_decomposable(facets):
            return f"decomposable={vd.decomposable} differs from the brute-force search"
        if facets in self._betti_sample:
            for report, rational in ((cm2, False), (cmq, True)):
                betti = betti_oracle(c, rational)
                top = len(betti) - 2
                want = {(i, b) for i, b in enumerate(betti, start=-1) if i < top and b}
                got = {(v.index, v.rank) for v in report.violations if not len(v.face)}
                if got != want:
                    return f"Betti numbers of the complex differ from the oracle ({report.field.value})"
        return None


def random_pure_facets(rng: random.Random) -> tuple:
    """2 to 8 distinct k-sets (2 <= k <= 4) on 4 to 8 vertices."""
    nv = rng.randint(4, 8)
    k = rng.randint(2, min(4, nv - 1))
    pool = list(itertools.combinations(range(1, nv + 1), k))
    return tuple(sorted(rng.sample(pool, rng.randint(2, min(8, len(pool))))))


@dataclass
class CliOp:
    argv: list[str]
    check: Callable[[int, str, str], str | None]
    fault: bool = False
    cert: Path | None = None


class CliFiles(Workload):
    """One in-process ``kkvd.cli.main(argv)`` call over files written at setup."""

    name = "cli-files"
    tail_pct = 95
    min_samples = 400
    #: an adversarial single facet should be answered or refused within half
    #: a second
    fault_limit_s = 0.5
    #: times a round each call runs, except the five on the largest inputs
    #: (0.2-0.5 s each), which run once: a 30 s run then times every call
    #: at least six times and those the percentiles fall on about twenty
    repeats = 3

    def __init__(self, seed: int, root: Path, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        data = root / "tests" / "data"
        files = {p.stem: p.read_text() for p in sorted(data.glob("*.txt"))}
        self.facets = {name: _parse(text) for name, text in files.items()}

        def labels(n):
            return sorted(rng.sample(range(1, 65), n))

        self.n3 = rng.randint(960, 1000)
        seg_labels = rng.sample(range(1, 41), 20)
        self.facets["seg3"] = relabel(checks.squashed_prefix(3, self.n3), seg_labels)
        for m, k in ((7, 3), (8, 4), (6, 2)):
            self.facets[f"skel{m}_{k}"] = tuple(itertools.combinations(labels(m), k))
        for n in (7, 11, 13, 14, 22):
            self.facets[f"facet{n}"] = (tuple(labels(n)),)
        self.paths = {}
        for name, facets in self.facets.items():
            path = workdir / f"{name}.txt"
            text = files.get(name) or "".join(" ".join(map(str, f)) + "\n" for f in facets)
            path.write_text(text)
            self.paths[name] = str(path)
        self.gen4 = (rng.randint(900, 1000), rng.randint(1, 10))
        self.items = self._ops()
        rng.shuffle(self.items)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- the round -----------------------------------------------------------

    def _ops(self) -> list[CliOp]:
        p = self.paths
        ops = []

        def op(*argv, check, once=False, **kw):
            ops.extend([CliOp(list(argv), check, **kw)] * (1 if once else self.repeats))

        for name in ("path", "nonpure", "disjoint_edges", "seg3", "skel8_4", "facet7"):
            op("analyze", p[name], check=self._analyze(name, json_out=False))
        for name in ("rp2", "hollow_triangle"):
            op("analyze", p[name], "--json", check=self._analyze(name, json_out=True))

        for name in ("path", "seg3", "facet14"):
            cert = self.workdir / f"{name}.cert.json"
            op("vd", p[name], "--cert", str(cert), cert=cert, check=self._vd_cert(name, cert),
               once=name != "path")
        for name in ("skel7_3", "facet13"):
            op("vd", p[name], "--json", check=self._vd_json(name), once=name == "facet13")
        op("vd", p["hollow_triangle"], check=_rc_and(0, "vertex decomposable"))
        op("vd", p["disjoint_edges"], "--json", check=_rc_and(1, '"decomposable": false'))
        op("vd", p["rp2"], check=_rc_and(1, "not vertex decomposable"))
        op("vd", p["nonpure"], check=_rc_and(2, "", err="not pure"))

        op("gen", "3", str(self.n3), check=self._gen(3, self.n3, None))
        n4, avoid = self.gen4
        op("gen", "4", str(n4), "--avoid", str(avoid), check=self._gen(4, n4, avoid))
        op("delta", "3", str(self.n3), check=self._delta(3, self.n3, json_out=False))
        op("delta", "4", str(n4), "--json", check=self._delta(4, n4, json_out=True))
        op("shadow", p["seg3"], check=self._shadow("seg3"))

        for name in ("rp2", "hollow_triangle", "skel7_3", "skel8_4", "facet7"):
            for field_name in ("gf2", "q"):
                op("betti", p[name], "--field", field_name, "--json",
                   check=self._betti(name, field_name))
        # rp2 is not Cohen-Macaulay over GF(2) (b_1 = 1) and is over Q
        op("reisner", p["rp2"], "--field", "gf2", "--json", check=self._reisner("rp2", "gf2", 1))
        op("reisner", p["rp2"], "--field", "q", check=_rc_and(0, "Cohen-Macaulay over q"))
        op("reisner", p["disjoint_edges"], "--field", "gf2", check=_rc_and(1, "reduced b[0] = 1"))
        # extremal complexes are vertex decomposable, hence Cohen-Macaulay
        for name in ("skel7_3", "skel8_4", "facet7"):
            for field_name in ("gf2", "q"):
                op("reisner", p[name], "--field", field_name, check=_rc_and(0, "Cohen-Macaulay"))
        op("reisner", p["facet14"], check=_rc_and(2, "", err="budget"))

        op("shell", p["path"], check=self._shell("path"))
        op("shell", p["hollow_triangle"], "--json", check=self._shell("hollow_triangle"))
        op("shell", p["facet7"], check=self._shell("facet7"))
        op("shell", p["disjoint_edges"], check=_rc_and(1, "no shelling"))
        op("shell", p["skel6_2"], check=_rc_and(2, "", err="exceed the limit"))

        # faults kept as failing operations: each should answer or refuse
        # within fault_limit_s
        op("reisner", p["facet11"], fault=True, once=True,
           check=_answer_or_refuse("Cohen-Macaulay over q"))
        op("vd", p["facet22"], fault=True, once=True, check=_answer_or_refuse("vertex decomposable"))
        return ops

    def _analyze(self, name, json_out):
        facets = self.facets[name]

        def check(rc, out, err):
            if rc != 0:
                return f"exit {rc}"
            pure = len({len(f) for f in checks.facet_sets(facets)}) == 1
            if json_out:
                doc = json.loads(out)
                fv, extremal = doc["f_vector"], doc["is_extremal"]
            else:
                fields = dict(line.split(": ", 1) for line in out.splitlines())
                fv = [int(x) for x in fields["f-vector"].split()]
                extremal = {"yes": True, "no": False}.get(fields["extremal"])
            if fv != checks.f_vector(facets):
                return "f-vector differs from brute-force faces"
            if extremal != (checks.is_extremal(facets) if pure else None):
                return "extremality differs from brute-force shadow"
            return None

        return check

    def _vd_cert(self, name, cert):
        facets = self.facets[name]

        def check(rc, out, err):
            if rc != 0 or not out.startswith("vertex decomposable"):
                return f"exit {rc}: {out[:60]!r}"
            return checks.certificate(facets, json.loads(cert.read_text()))

        return check

    def _vd_json(self, name):
        facets = self.facets[name]

        def check(rc, out, err):
            doc = json.loads(out)
            if rc != 0 or doc.get("decomposable") is not True:
                return f"exit {rc}"
            return checks.certificate(facets, doc.get("certificate"))

        return check

    def _gen(self, k, n, avoid):
        def check(rc, out, err):
            top = k
            while True:
                sets = [s for s in checks.squashed_prefix(k, math.comb(top, k)) if avoid not in s]
                if len(sets) >= n:
                    break
                top += 1
            want = "".join(" ".join(map(str, s)) + "\n" for s in sets[:n])
            return None if rc == 0 and out == want else "differs from the sorted squashed order"

        return check

    def _delta(self, k, n, json_out):
        def check(rc, out, err):
            value = json.loads(out)["delta"] if json_out else int(out)
            ok = rc == 0 and value == checks.min_shadow(k, n)
            return None if ok else f"delta {value} differs from the brute-force shadow"

        return check

    def _shadow(self, name):
        want = brute_shadow(set(self.facets[name]))

        def check(rc, out, err):
            got = _parse(out)
            ok = rc == 0 and len(got) == len(want) and set(got) == want
            return None if ok else "shadow differs from the brute-force shadow"

        return check

    def _betti(self, name, field_name):
        facets = self.facets[name]

        def check(rc, out, err):
            if rc != 0:
                return f"exit {rc}"
            got = json.loads(out)["reduced_betti"]
            if name.startswith("skel"):
                m, k = (int(x) for x in name[4:].split("_"))
                want = checks.skeleton_betti(m, k)
            elif name.startswith("facet"):
                want = [0] * (len(facets[0]) + 1)
            else:
                want = betti_oracle(kkvd.make_complex(facets), field_name == "q")
            return None if got == want else f"Betti numbers {got} differ from {want}"

        return check

    def _reisner(self, name, field_name, rc_want):
        facets = self.facets[name]

        def check(rc, out, err):
            doc = json.loads(out)
            if rc != rc_want or doc["is_cm"] is not (rc_want == 0):
                return f"exit {rc}"
            betti = betti_oracle(kkvd.make_complex(facets), field_name == "q")
            top = len(betti) - 2
            want = {(i, b) for i, b in enumerate(betti, start=-1) if i < top and b}
            got = {(v["degree"], v["rank"]) for v in doc["violations"] if v["face"] == []}
            return None if got == want else "violations at the empty face differ from the oracle"

        return check

    def _shell(self, name):
        facets = self.facets[name]

        def check(rc, out, err):
            if rc != 0:
                return f"exit {rc}"
            order = json.loads(out)["order"] if out.startswith("{") else _parse(out)
            order = [tuple(f) for f in order]
            if checks.facet_sets(order) != checks.facet_sets(facets):
                return "shelling does not list the facets"
            return None if is_valid_shelling(order) else "shelling fails the oracle"

        return check

    # -- one operation -----------------------------------------------------

    def limit(self, item):
        return self.fault_limit_s if item.fault else self.limit_s

    def is_fault(self, item):
        return item.fault

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = kkvd.cli.main(item.argv)
        return rc, out.getvalue(), err.getvalue()

    def digest(self, item, result):
        h = hashlib.sha256(repr(result).encode())
        if item.cert is not None:
            h.update(item.cert.read_bytes())
        return h.hexdigest()

    def check(self, item, result):
        return item.check(*result)


def _parse(text: str) -> tuple:
    return tuple(
        tuple(int(x) for x in line.split())
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    )


def _rc_and(rc_want: int, text: str, err: str = "") -> Callable:
    def check(rc, out, stderr):
        ok = rc == rc_want and text in out and err in stderr
        return None if ok else f"exit {rc} (want {rc_want}): {out[:60]!r} {stderr[:60]!r}"

    return check


def _answer_or_refuse(verdict: str) -> Callable:
    """A correct verdict, or an exit-2 refusal that names the budget it hit."""

    def check(rc, out, err):
        if rc == 0 and out.startswith(verdict):
            return None
        if rc == 2 and "budget" in err:
            return None
        return f"exit {rc}: {out[:60]!r} {err[:60]!r}"

    return check


WORKLOADS = {w.name: w for w in (CertifyCorpus, CrosscheckMixed, CliFiles)}


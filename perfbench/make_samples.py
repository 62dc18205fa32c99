#!/usr/bin/env python3
"""Write the fixed corpus samples that ``certify-corpus`` and ``crosscheck-mixed`` run.

Run from the root of a kkvd checkout (needs numpy, which ``tests/corpus.py``
uses to enumerate the corpus):

    python3 perfbench/make_samples.py

The acceptance corpus (every extremal pure complex on labels {1..6}, plus
squashed segments and simplex skeletons) is sorted by face count, the sum of
2^|F| over facets, and cut into equal runs of similar cost; the middle
complex of each run is taken.  So a sample spans the corpus's cost range
and is the same whatever the benchmark's seed.  Each output line is one
complex: facets separated by spaces, vertices by commas.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: output file: (complexes in the sample, largest facet count allowed)
SAMPLES = {
    "certify-corpus.txt": (1000, None),
    "crosscheck-corpus.txt": (450, 8),
}


def corpus_families() -> list[tuple]:
    """The 10,209 facet families of the acceptance corpus, in corpus order."""
    from corpus import extremal_families_on_six, segment_complexes, skeleton_complexes

    fams = [c.canonical_facets() for c in segment_complexes().values()]
    fams += [c.canonical_facets() for c in skeleton_complexes().values()]
    fams += extremal_families_on_six()
    return [tuple(map(tuple, f)) for f in fams]


def cost_sample(families: list, size: int) -> list:
    """`size` families spread evenly over the face-count order."""
    ranked = sorted(families, key=lambda f: (sum(2 ** len(s) for s in f), f))
    step = len(ranked) / size
    return [ranked[int((i + 0.5) * step)] for i in range(size)]


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    families = corpus_families()
    for name, (size, max_facets) in SAMPLES.items():
        pool = [f for f in families if max_facets is None or len(f) <= max_facets]
        lines = (" ".join(",".join(map(str, s)) for s in f) for f in cost_sample(pool, size))
        (HERE / "data" / name).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()

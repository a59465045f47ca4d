"""oracle-small: ``alpha_eq`` verdicts on the criterion-04 universe.

The universe is every term of size at most 7 over 3 names (25,779
terms).  Each op is one verdict on a pair: with probability
``EQUAL_DRAW`` the second term is drawn from the first one's alpha-class,
otherwise uniformly.  The reference verdict is equality of the pair's
``to_debruijn`` images, computed once before timing.
"""

from __future__ import annotations

import itertools
import random
from array import array

from harness import Op
from refs import term_size

NAME = "oracle-small"
WHY = (
    "millions of tiny alpha_eq calls reusing one small universe: "
    "alpha_eq and its mediator permutations do the work, syntax none"
)
SETUP = (
    "from nomset import Name, all_terms\n"
    "universe = list(all_terms(7, tuple(Name(i) for i in range(3))))"
)
UNIVERSE_SIZE = 25779
EQUAL_DRAW = 0.5
ROUND_OPS = 1000

TAIL_D = 1000  # latency_tail_ms at p99.9; see harness.tail


class Workload:
    def __init__(self, api):
        from nomset import Name

        self.universe = api.all_terms(7, tuple(Name(i) for i in range(3)))
        n = len(self.universe)
        if n != UNIVERSE_SIZE:
            raise RuntimeError(f"universe has {n} terms")
        # Reference: one alpha-class id per term.  Terms are alpha-equal
        # when their de Bruijn images are equal; each image is kept only as
        # a few bytes, and only until the ids are assigned, so the
        # reference adds little to peak_rss_mb.
        class_of: dict[bytes, int] = {}
        self.cls = array("I", (
            class_of.setdefault(_encode(api.to_debruijn(t)), len(class_of))
            for t in self.universe))
        # Members of class c are order[start[c]:start[c + 1]].
        self.order = array("I", sorted(range(n), key=self.cls.__getitem__))
        counts = [0] * (len(class_of) + 1)
        for c in self.cls:
            counts[c + 1] += 1
        self.start = array("I", itertools.accumulate(counts))
        self.sizes = array("B", (term_size(t) for t in self.universe))

    def rounds(self, seed: int):
        rng = random.Random(seed)
        n = len(self.universe)
        universe, cls, order, start, sizes = (
            self.universe, self.cls, self.order, self.start, self.sizes)
        while True:
            batch = []
            for _ in range(ROUND_OPS):
                i = rng.randrange(n)
                if rng.random() < EQUAL_DRAW:
                    lo, hi = start[cls[i]], start[cls[i] + 1]
                    j = order[lo + rng.randrange(hi - lo)]
                else:
                    j = rng.randrange(n)
                expect = cls[i] == cls[j]
                batch.append(Op(
                    kind="alpha_eq",
                    key=i * n + j,
                    call=_caller(universe[i], universe[j]),
                    check=_checker(expect),
                    size=sizes[i] + sizes[j],
                    equal=expect,
                ))
            yield batch


def _encode(image) -> bytes:
    """A de Bruijn image in prefix form: a tag byte per node, then the
    index or the free name's id for leaves.  Equal images, and only
    those, give equal bytes."""
    from nomset import DbApp, DbFree, DbLam, DbVar

    out = bytearray()
    stack = [image]
    while stack:
        match stack.pop():
            case DbVar(index):
                out += b"v"
                out.append(index)
            case DbFree(name):
                out += b"f"
                out.append(name.id)
            case DbApp(fn, arg):
                out += b"a"
                stack += (arg, fn)
            case DbLam(body):
                out += b"l"
                stack.append(body)
            case other:
                raise TypeError(f"not a de Bruijn term: {other!r}")
    return bytes(out)


def _caller(t, u):
    return lambda api: api.alpha_eq(t, u)


def _checker(expect: bool):
    def check(out, tally):
        tally["alpha_eq.true"] += out is True
        return out is expect

    return check

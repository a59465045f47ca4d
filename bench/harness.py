"""Closed-loop runner, span tracer, statistics and run environment.

A workload yields rounds: lists of :class:`Op`.  The runner executes one
op at a time in a single thread (a closed loop with one client), times the
call into the program, then checks the answer outside the timed region.
An exception raised by the program is a failed op; an answer that
disagrees with the reference is a mismatch.

Tracing wraps the benchmark's own references to ``nomset`` functions; the
package itself is never patched.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import os
import platform
import random
import resource
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Latency samples are a uniform reservoir of fixed size (512 KiB), so the
# benchmark's own memory stays small and does not grow with the number of
# ops a faster program completes.  At p99.9 it leaves 65 samples beyond.
LATENCY_SLOTS = 1 << 16
# Repeated-input share is measured over this many leading ops, by key
# hash, for the same reason; every workload but normalize-church runs
# more ops than this.
MIX_KEYS = 10_000


@dataclass(slots=True)
class Op:
    """One operation: ``call(api)`` is timed, ``check(result, tally)`` is not.

    ``key`` describes the input and identifies repeats; ``size``, ``equal``
    and ``deep`` feed the input-mix record.  ``replay(api, tally)`` runs
    only in the traced pass, after the op, to split its time into layers.
    """

    kind: str
    key: Any
    call: Callable[[Any], Any]
    check: Callable[[Any, Counter], bool]
    size: int = 0
    equal: bool | None = None
    deep: bool = False
    replay: Callable[[Any, Counter], None] | None = None


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class _Span:
    __slots__ = ("tracer", "name_id", "index")

    def __init__(self, tracer: "Tracer", name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.start)
        tr.name.append(self.name_id)
        tr.parent.append(tr.stack[-1] if tr.stack else -1)
        tr.op.append(tr.op_id)
        tr.end.append(0.0)
        tr.stack.append(self.index)
        tr.start.append(perf_counter())
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.end[self.index] = perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """Spans kept in memory as columns: name id, start, end, parent span
    index (-1 for none) and op id (-1 outside any op)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str) -> _Span:
        return _Span(self, self._id(name))

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._id(name)

        def traced(*args, **kwargs):
            with _Span(self, name_id):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (call count, self seconds).  Self time is the
        span's duration minus the time its child spans cover."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        self_s = dur[:]
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_s[p] -= dur[i]
        calls = [0] * len(self.names)
        secs = [0.0] * len(self.names)
        for i, n in enumerate(self.name):
            calls[n] += 1
            secs[n] += self_s[i]
        return {name: (calls[i], secs[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Tab-separated spans, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.op):
                fh.write(f"{self.names[row[0]]}\t{row[1]:.9f}\t{row[2]:.9f}"
                         f"\t{row[3]}\t{row[4]}\n")


_NULL_SPAN = contextlib.nullcontext()


def _null_span(name: str):
    return _NULL_SPAN


def _all_terms(*args):
    from nomset.lam import all_terms

    return list(all_terms(*args))


def make_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The program's public functions as the benchmark calls them.

    Untraced, each attribute is the ``nomset`` function itself; traced,
    each is wrapped in a span named after its layer.  Tests substitute
    attributes to plant faults.
    """
    import nomset
    from nomset import cli

    table = {
        "alpha_eq": ("lam.alpha_eq", nomset.alpha_eq),
        "to_debruijn": ("lam.to_debruijn", nomset.to_debruijn),
        "all_terms": ("lam.all_terms", _all_terms),
        "normalize": ("lam.normalize", nomset.normalize),
        "subst": ("lam.subst", nomset.subst),
        "fv": ("lam.fv", nomset.fv),
        "term_act": ("lam.term_act", nomset.term_act),
        "parse_term": ("syntax.parse_term", nomset.parse_term),
        "parse_perm": ("syntax.parse_perm", nomset.parse_perm),
        "print_term": ("syntax.print_term", nomset.print_term),
        "cli_main": ("cli.main", cli.main),
        "perm_apply": ("perms", nomset.perm_apply),
        "perm_compose": ("perms", nomset.perm_compose),
        "perm_equiv": ("perms", nomset.perm_equiv),
        "perm_inverse": ("perms", nomset.perm_inverse),
        "fresh_dec": ("freshness.fresh_dec", nomset.fresh_dec),
        "fresh_universal_probe": (
            "freshness.fresh_universal_probe",
            nomset.fresh_universal_probe,
        ),
        "fresh_many": ("atoms.fresh_many", nomset.fresh_many),
        "alpha_equiv_dec": (
            "abstraction.alpha_equiv_dec",
            nomset.alpha_equiv_dec,
        ),
    }
    api = SimpleNamespace()
    for attr, (span, fn) in table.items():
        setattr(api, attr, fn if tracer is None else tracer.wrap(span, fn))
    # Called unwrapped: the caller opens a span that names the layer (and,
    # for check_laws, the instance) around the whole call.
    api.check_laws = nomset.check_laws
    api.fcb_lift = nomset.fcb_lift
    api.check_fcb = nomset.check_fcb
    api.alpha_rec = nomset.alpha_rec
    api.span = _null_span if tracer is None else tracer.span
    return api


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    rounds: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    latencies: list = field(default_factory=list)
    done_busy_by_kind: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)
    mismatch_samples: list = field(default_factory=list)
    tally: Counter = field(default_factory=Counter)
    mix: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def ops_per_s(self) -> float:
        """Completed ops per second of op time."""
        return self.completed / self.busy_s


def closed_loop(
    rounds, api, seconds: float, tracer: Tracer | None = None,
    between_rounds: Callable[[float], None] | None = None,
) -> LoopResult:
    """Run whole rounds until ``seconds`` of wall time have passed.

    At least one round always runs.  Op latency is the time of
    ``op.call`` alone; ``busy_s`` sums it over every attempted op.
    ``between_rounds``, if given, is called after each round but the last
    with the share of ``seconds`` elapsed.

    Before each round the cyclic garbage collector runs and then freezes
    every live object, so the collections that fall inside timed calls
    traverse only what the program allocated since, not the benchmark's
    inputs and references.
    """
    res = LoopResult()
    lat = array("d", bytes(8 * LATENCY_SLOTS))
    n_lat = 0
    sampler = random.Random(0)
    seen: set = set()
    repeats = 0
    sizes: Counter = Counter()
    equal = [0, 0]
    deep = 0
    tally = res.tally
    start = perf_counter()
    deadline = start + seconds
    for batch in rounds:
        gc.collect()
        gc.freeze()
        for op in batch:
            if tracer is not None:
                tracer.op_id += 1
                span = tracer.span("op." + op.kind).__enter__()
            t0 = perf_counter()
            try:
                out = op.call(api)
            except Exception as exc:  # a program failure is a measured outcome
                dt = perf_counter() - t0
                res.failed += 1
                res.errors[f"{op.kind}: {type(exc).__name__}"] += 1
                ok = True
            else:
                dt = perf_counter() - t0
                if n_lat < LATENCY_SLOTS:
                    lat[n_lat] = dt
                else:  # reservoir sampling: each op kept with equal chance
                    slot = sampler.randrange(n_lat + 1)
                    if slot < LATENCY_SLOTS:
                        lat[slot] = dt
                n_lat += 1
                res.done_busy_by_kind[op.kind] += dt
                try:
                    ok = op.check(out, tally)
                except Exception as exc:  # an answer of the wrong shape
                    ok = False
                    out = f"check raised {exc!r}"
            if tracer is not None:
                span.__exit__(None, None, None)
                if op.replay is not None:
                    with tracer.span("replay"):
                        try:
                            op.replay(api, tally)
                        except Exception:
                            pass  # already counted on the op itself
            res.attempted += 1
            res.busy_s += dt
            if not ok:
                res.mismatches += 1
                if len(res.mismatch_samples) < 5:
                    res.mismatch_samples.append(
                        (op.kind, _short_repr(op.key), _short_repr(out)))
            if res.attempted <= MIX_KEYS:
                key = hash(op.key)
                if key in seen:
                    repeats += 1
                else:
                    seen.add(key)
            sizes[op.size if op.size <= 16 else 1 << (op.size - 1).bit_length()] += 1
            if op.equal is not None:
                equal[0] += 1
                equal[1] += op.equal
            deep += op.deep
        res.rounds += 1
        now = perf_counter()
        if now >= deadline:
            break
        if between_rounds is not None:
            between_rounds((now - start) / seconds)
    res.wall_s = perf_counter() - start
    gc.unfreeze()
    # Read the high-water mark before statistics allocate anything.
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = min(n_lat, LATENCY_SLOTS)
    res.latencies = sorted(lat[:n])
    res.mix = {
        "ops": res.attempted,
        "size_histogram": {str(k): v for k, v in sorted(sizes.items())},
        "equal_share": equal[1] / equal[0] if equal[0] else None,
        "repeated_share": repeats / min(res.attempted, MIX_KEYS),
        "repeated_share_over_ops": min(res.attempted, MIX_KEYS),
        "deep_share": deep / res.attempted,
    }
    return res


def _short_repr(x) -> str:
    try:
        return repr(x)[:200]
    except RecursionError:  # dataclass repr of a deep term
        return f"<deep {type(x).__name__}>"


# ---------------------------------------------------------------------------
# Statistics and environment
# ---------------------------------------------------------------------------

def tail(latencies: list, d: int) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at percentile
    ``100 * (1 - 1/d)``, by nearest rank.

    Each workload fixes ``d`` at the highest of p50/p90/p99/p99.9 with at
    least ten samples beyond it in a run of ``run_seconds`` at the time
    the benchmark was defined.  Deriving it from each run's op count
    instead would read a faster program at a higher percentile.
    """
    n = len(latencies)
    idx = max(-(-n * (d - 1) // d) - 1, 0)  # ceil(n * (1 - 1/d)) - 1
    return 100 * (1 - 1 / d), latencies[idx], n - 1 - idx


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "recursion_limit": sys.getrecursionlimit(),
        "git_commit": git_commit(),
        "seed": seed,
    }


SETUP_RUNS = 15


class SetupTimer:
    """Seconds from ``import nomset`` through ``snippet`` in fresh
    interpreters, one after another.

    Creating it starts one unmeasured interpreter, which compiles
    bytecode, so every measured start finds it cached.  ``between_rounds``
    takes the measured starts at even shares of a run, so that their
    median spans the run's changes in machine speed as ``ops_per_s``
    does; ``finish`` takes any still missing.
    """

    def __init__(self, snippet: str, runs: int = SETUP_RUNS):
        self.code = (
            "import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "t0 = time.perf_counter()\n"
            "import nomset\n"
            f"{snippet}\n"
            "print(repr(time.perf_counter() - t0))\n"
        )
        self.runs = runs
        self.samples: list[float] = []
        self._start()

    def _start(self) -> float:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", self.code],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    def between_rounds(self, elapsed_share: float) -> None:
        if len(self.samples) < min(self.runs, elapsed_share * self.runs):
            self.samples.append(self._start())

    def finish(self) -> list[float]:
        while len(self.samples) < self.runs:
            self.samples.append(self._start())
        return self.samples

"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``.

They check that the references agree with the program's own oracle on a
small universe, that a planted wrong answer or a program exception is
caught and counted, that generators are deterministic, and that the
runner refuses to start without the sources.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import nomset
import refs
import run

ROOT = Path(__file__).resolve().parent.parent


def one_round(name: str, api=None):
    """Run exactly one round of ``name`` untraced, with ``api``."""
    api = api or harness.make_api()
    workload = run.load(name).Workload(harness.make_api())
    return harness.closed_loop(workload.rounds(7), api, seconds=0)


# -- references ---------------------------------------------------------------

def test_term_db_agrees_with_to_debruijn_on_small_universe():
    pool = tuple(nomset.Name(i) for i in range(3))
    universe = list(nomset.all_terms(5, pool))
    images = [nomset.to_debruijn(t) for t in universe]
    tokens = [refs.term_db(t) for t in universe]
    for i, j in itertools.combinations(range(0, len(universe), 7), 2):
        assert (images[i] == images[j]) == (tokens[i] == tokens[j])


def test_text_db_reads_printed_terms():
    pool = tuple(nomset.Name(i) for i in range(3))
    table = nomset.NameTable.from_labels({"x": pool[0], "y": pool[1], "z": pool[2]})
    for t in nomset.all_terms(5, pool):
        got = refs.text_db(nomset.print_term(t, table))
        want = tuple(("f", table.label_of(nomset.Name(tok[1])))
                     if isinstance(tok, tuple) and tok[0] == "f" else tok
                     for tok in refs.term_db(t))
        assert got == want


def test_text_db_handles_depth_past_the_recursion_limit():
    depth = 5 * sys.getrecursionlimit()
    assert refs.text_db("(" * depth + "x" + ")" * depth) == (("f", "x"),)
    chain = "".join(f"\\v{i}. " for i in range(depth)) + "v0"
    assert refs.text_db(chain) == ("L",) * depth + (("b", depth - 1),)


def test_church_db_matches_a_built_numeral():
    f, x = nomset.Name(0), nomset.Name(1)
    body = nomset.Var(x)
    for _ in range(3):
        body = nomset.App(nomset.Var(f), body)
    assert refs.term_db(nomset.Lam(f, nomset.Lam(x, body))) == refs.church_db(3)


# -- planted faults -------------------------------------------------------------

def _wrong_normalize(t, fuel=1000):
    r = nomset.normalize(t, fuel)
    return nomset.NormalizeResult(r.term, r.steps + 1, r.normal_form)


def _wrong_cli(argv):
    code = nomset.cli.main(argv)
    return 1 - code if code in (0, 1) else code


PLANTED = {
    "oracle-small": ("alpha_eq", lambda t, u: not nomset.alpha_eq(t, u)),
    "normalize-church": ("normalize", _wrong_normalize),
    "cli-queries": ("cli_main", _wrong_cli),
    "law-sweep": ("fresh_dec", lambda i, a, x: not nomset.fresh_dec(i, a, x)),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_wrong_answer_is_a_mismatch(name):
    attr, fake = PLANTED[name]
    api = harness.make_api()
    setattr(api, attr, fake)
    res = one_round(name, api)
    assert res.mismatches > 0
    assert res.mismatch_samples


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_unplanted_round_has_no_mismatch(name):
    res = one_round(name)
    assert res.mismatches == 0
    assert res.attempted > 0


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_program_exception_is_a_failed_op(name):
    attr, _ = PLANTED[name]

    def boom(*args, **kwargs):
        raise RuntimeError("planted")

    api = harness.make_api()
    setattr(api, attr, boom)
    res = one_round(name, api)
    assert res.failed > 0
    assert res.errors[next(k for k in res.errors if k.endswith("RuntimeError"))] > 0
    assert run.extra_metrics(res)["error_share"][0] == res.failed / res.attempted


class _FixedSetup:
    def __init__(self, snippet):
        pass

    def between_rounds(self, elapsed_share):
        pass

    def finish(self):
        return [0.1]


def test_run_exits_nonzero_and_reports_incorrect_on_mismatch(monkeypatch, capsys, tmp_path):
    real = harness.make_api

    def faulty(tracer=None):
        api = real(tracer)
        api.alpha_eq = lambda t, u: not nomset.alpha_eq(t, u)
        return api

    monkeypatch.setattr(harness, "make_api", faulty)
    monkeypatch.setattr(harness, "SetupTimer", _FixedSetup)
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "oracle-small", "--seed", "1",
                     "--seconds", "0.01", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False


# -- generators ---------------------------------------------------------------

def _inputs(name: str, seed: int, workload) -> bytes:
    rounds = workload.rounds(seed)
    return repr([op.key for _ in range(2) for op in next(rounds)]).encode()


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_same_seed_gives_identical_inputs(name):
    workload = run.load(name).Workload(harness.make_api())
    first = _inputs(name, 11, workload)
    assert first == _inputs(name, 11, workload)
    assert first != _inputs(name, 12, workload)


# -- statistics and start-up -------------------------------------------------------

def test_tail_reads_the_fixed_percentile_by_nearest_rank():
    xs = [float(i) for i in range(1, 1001)]
    assert harness.tail(xs, 100) == (pytest.approx(99.0), 990.0, 10)
    assert harness.tail(xs, 1000)[1:] == (999.0, 1)
    assert harness.tail(xs[:50], 10)[1:] == (45.0, 5)


def test_latency_reservoir_keeps_a_fixed_number_of_samples(monkeypatch):
    monkeypatch.setattr(harness, "LATENCY_SLOTS", 64)
    res = one_round("oracle-small")
    assert res.completed > 64
    assert len(res.latencies) == 64


def test_setup_timer_spreads_its_starts_over_the_run(monkeypatch):
    monkeypatch.setattr(harness.SetupTimer, "_start", lambda self: 1.0)
    timer = harness.SetupTimer("pass", runs=4)
    taken = []
    for share in (0.01, 0.02, 0.3, 0.4, 0.6, 0.9):
        timer.between_rounds(share)
        taken.append(len(timer.samples))
    assert taken == [1, 1, 2, 2, 3, 4]
    assert timer.finish() == [1.0] * 4


def test_tracer_self_time_excludes_children():
    tr = harness.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    times = tr.self_times()
    outer_total = tr.end[0] - tr.start[0]
    assert times["outer"][1] + times["inner"][1] == pytest.approx(outer_total)


def test_run_refuses_to_start_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "law-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

#!/usr/bin/env python3
"""Run one benchmark workload against the ``nomset`` sources in ``src/``.

    python3 bench/run.py --workload oracle-small --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time, then traced for the other half, and
reports per-layer metrics and the tracing overhead.  Every metric is
printed by name with its unit; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A run record goes to
``bench/out/``.  The exit code is 1 when any answer disagrees with its
reference and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import Counter
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = {
    "oracle-small": "oracle_small",
    "normalize-church": "normalize_church",
    "cli-queries": "cli_queries",
    "law-sweep": "law_sweep",
}

def _import_program():
    """Put the checkout's ``src`` first on the path; fail if it is absent,
    rather than measure some other installed copy."""
    if not (SRC / "nomset" / "__init__.py").is_file():
        print(f"error: no nomset sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nomset  # noqa: F401


def load(name: str):
    import importlib

    return importlib.import_module(WORKLOADS[name])


def end_to_end(loop, setup_times: list[float], tail_d: int) -> dict:
    pct, tail_s, beyond = harness.tail(loop.latencies, tail_d)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (loop.ops_per_s, "op/s"),
        "latency_p50_ms": (statistics.median(loop.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (loop.peak_rss_mb, "MiB"),
    }, {"latency_tail_percentile": pct, "latency_tail_beyond": beyond,
        "latency_samples": len(loop.latencies),
        "latency_ops": loop.completed}


def extra_metrics(loop) -> dict:
    """End-to-end metrics that are zero on some workload, so they cannot
    carry a relative bound; reported on every run all the same."""
    busy = loop.done_busy_by_kind.get("normalize", 0.0)
    steps = loop.tally.get("normalize.beta_steps", 0)
    return {
        "beta_steps_per_s": (steps / busy if busy else 0.0, "step/s"),
        "error_share": (loop.failed / loop.attempted, "ratio"),
        "mismatches": (loop.mismatches, "count"),
    }


def per_layer(tracer, traced, untraced) -> dict:
    times = tracer.self_times()
    rounds = traced.rounds
    tally = traced.tally

    def calls(span):
        return times.get(span, (0, 0.0))[0] / rounds

    def secs(span, per_round=True):
        return times.get(span, (0, 0.0))[1] / (rounds if per_round else 1)

    parse_s = secs("syntax.parse_term", per_round=False)
    replay_s = sum(v[1] for k, v in times.items()
                   if k != "cli.main" and not k.startswith("op."))
    main_s = secs("cli.main", per_round=False)
    alpha_calls = times.get("lam.alpha_eq", (0, 0.0))[0]
    traced_rate, untraced_rate = traced.ops_per_s, untraced.ops_per_s
    m = {
        "lam.all_terms.s": (secs("lam.all_terms", False), "s"),
        "lam.to_debruijn.s": (secs("lam.to_debruijn", False), "s"),
        "lam.alpha_eq.calls": (calls("lam.alpha_eq"), "call/round"),
        "lam.alpha_eq.s": (secs("lam.alpha_eq"), "s/round"),
        "lam.alpha_eq.equal_share": (
            tally["alpha_eq.true"] / alpha_calls if alpha_calls else 0.0, "ratio"),
        "lam.normalize.calls": (calls("lam.normalize"), "call/round"),
        "lam.normalize.s": (secs("lam.normalize"), "s/round"),
        "lam.normalize.beta_steps": (
            tally["normalize.beta_steps"] / rounds, "step/round"),
        "lam.normalize.peak_term_size": (
            tally["normalize.peak_term_size"], "node"),
        "lam.subst.calls": (calls("lam.subst"), "call/round"),
        "lam.subst.s": (secs("lam.subst"), "s/round"),
        "syntax.parse_term.calls": (calls("syntax.parse_term"), "call/round"),
        "syntax.parse_term.s": (secs("syntax.parse_term"), "s/round"),
        "syntax.parse_term.chars_per_s": (
            tally["parse_term.chars"] / parse_s if parse_s else 0.0, "char/s"),
        "syntax.print_term.calls": (calls("syntax.print_term"), "call/round"),
        "syntax.print_term.s": (secs("syntax.print_term"), "s/round"),
        "cli.overhead.s": (
            (main_s - replay_s) / rounds if main_s else 0.0, "s/round"),
        "cli.exit_code.0": (tally["cli.exit_code.0"] / rounds, "query/round"),
        "cli.exit_code.1": (tally["cli.exit_code.1"] / rounds, "query/round"),
        "cli.exit_code.2": (tally["cli.exit_code.2"] / rounds, "query/round"),
        "cli.errors": (
            traced.failed / rounds if main_s else 0.0, "query/round"),
        "perms.calls": (calls("perms"), "call/round"),
        "perms.s": (secs("perms"), "s/round"),
        "nominal.check_laws.trials": (
            tally["nominal.check_laws.trials"] / rounds, "trial/round"),
        "nominal.check_laws.s": (secs("nominal.check_laws"), "s/round"),
        "nominal.check_laws.term.trials": (
            tally["nominal.check_laws.term.trials"] / rounds, "trial/round"),
        "nominal.check_laws.term.s": (
            secs("nominal.check_laws.term"), "s/round"),
        "freshness.fresh_dec.calls": (calls("freshness.fresh_dec"), "call/round"),
        "freshness.fresh_dec.s": (secs("freshness.fresh_dec"), "s/round"),
        "abstraction.alpha_equiv_dec.calls": (
            calls("abstraction.alpha_equiv_dec"), "call/round"),
        "abstraction.alpha_equiv_dec.s": (
            secs("abstraction.alpha_equiv_dec"), "s/round"),
        "suppfn.fcb_lift.s": (secs("suppfn.fcb_lift"), "s/round"),
        "lam.alpha_rec.s": (secs("lam.alpha_rec"), "s/round"),
        "atoms.fresh_many.calls": (calls("atoms.fresh_many"), "call/round"),
        "atoms.fresh_many.s": (secs("atoms.fresh_many"), "s/round"),
        "trace.ops_per_s": (traced_rate, "op/s"),
        "trace.untraced_ops_per_s": (untraced_rate, "op/s"),
        "trace.overhead_share": (1 - traced_rate / untraced_rate, "ratio"),
    }
    m.update(extra_metrics(untraced))
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    wl = load(args.workload)
    record = {"workload": args.workload, "why": wl.WHY,
              "seconds": args.seconds, "trace": args.trace,
              "environment": harness.environment(args.seed)}
    if args.trace:
        tracer = harness.Tracer()
        traced_api = harness.make_api(tracer)
        workload = wl.Workload(traced_api)
        api = harness.make_api()
        untraced = harness.closed_loop(
            workload.rounds(args.seed), api, args.seconds / 2)
        loop = harness.closed_loop(
            workload.rounds(args.seed), traced_api, args.seconds / 2, tracer)
        metrics = per_layer(tracer, loop, untraced)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
        tracer.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, HERE.parent)
        record["spans"] = len(tracer)
        runs = (untraced, loop)
    else:
        setup = harness.SetupTimer(wl.SETUP)
        api = harness.make_api()
        workload = wl.Workload(api)
        loop = harness.closed_loop(workload.rounds(args.seed), api, args.seconds,
                                   between_rounds=setup.between_rounds)
        setup_times = setup.finish()
        metrics, tail_info = end_to_end(loop, setup_times, wl.TAIL_D)
        record["setup_samples_s"] = setup_times
        record.update(tail_info)
        record["extra_metrics"] = {
            k: {"value": v, "unit": u}
            for k, (v, u) in extra_metrics(loop).items()}
        runs = (loop,)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    mismatches = sum(r.mismatches for r in runs)
    errors = Counter()
    for r in runs:
        errors.update(r.errors)
    metric_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update({
        "rounds": [r.rounds for r in runs],
        "wall_s": [r.wall_s for r in runs],
        "input_mix": loop.mix,
        "errors": dict(errors),
        "mismatch_samples": [s for r in runs for s in r.mismatch_samples],
        "metrics": metric_json,
    })

    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {record['rounds']}  ops {attempted}")
    for k, v in {**metric_json, **record.get("extra_metrics", {})}.items():
        print(f"  {k:36s} {v['value']:14.6g} {v['unit']}")
    if not args.trace:
        print(f"  tail percentile p{record['latency_tail_percentile']:g} "
              f"with {record['latency_tail_beyond']} of "
              f"{record['latency_samples']} samples beyond "
              f"(sampled from {record['latency_ops']} ops)")
    print(f"  environment {json.dumps(record['environment'])}")
    print(f"  input mix {json.dumps(loop.mix)}")
    print(f"  errors {json.dumps(record['errors'])}")
    for sample in record["mismatch_samples"]:
        print(f"  MISMATCH {sample}", file=sys.stderr)
    print(f"  record {os.path.relpath(record_path, HERE.parent)}")
    print(json.dumps({"correct": mismatches == 0, "attempted": attempted,
                      "failed": failed, "metrics": metric_json}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Layered benchmark of the Minesweeper reproduction.

Usage, from the root of a checkout:

    python3 layerbench/run.py --workload fattree-audit --seed 1 \
        --seconds 35 --trace 0

Each workload runs in fresh processes started by this script.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Progress and the
reason for every failed operation go to standard error.  See README.md
in this directory for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import guard_counts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "fattree-audit": "fattree_audit.py",
    "cloud-audit": "cloud_audit.py",
    "serve-mixed": "serve_mixed.py",
}
AUDITS = ("fattree-audit", "cloud-audit")
# Set-up is timed this many times per run; setup_s is the median.
SETUP_SAMPLES = {"fattree-audit": 7, "cloud-audit": 7, "serve-mixed": 5}
# Every process is killed once the run has taken this long.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("lang.parse_s", "s"),
    ("net.build_s", "s"),
    ("analysis.preflight_s", "s"),
    ("analysis.dataflow_s", "s"),
    ("analysis.cache_key_s", "s"),
    ("core.encode_s", "s"),
    ("core.model_s", "s"),
    ("smt.add_s", "s"),
    ("smt.cnf_vars", "count"),
    ("smt.cnf_clauses", "count"),
    ("sat.load_s", "s"),
    ("sat.preprocess_s", "s"),
    ("sat.preprocess_runs", "count"),
    ("sat.pp_removed_clauses", "count"),
    ("sat.search_s", "s"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.propagations_per_s", "1/s"),
    ("sat.restarts", "count"),
    ("sat.learned_deleted", "count"),
    ("engine.encoding_cache_hit", "count"),
    ("engine.encoding_cache_miss", "count"),
    ("engine.encoding_hit_ratio", "ratio"),
    ("engine.encoding_recycled", "count"),
    ("serve.cache_evicted", "count"),
    ("diff.replayed", "count"),
    ("diff.reverified", "count"),
    ("diff.replay_ratio", "ratio"),
    ("serve.verify_s", "s"),
    ("serve.handler_s", "s"),
    ("serve.transport_s", "s"),
    ("serve.rss_growth_mb", "MB"),
    ("obs.ledger_append_s", "s"),
    ("obs.trace_overhead_s", "s"),
    ("request_s.p50", "s"),
    ("request_s.p90", "s"),
    ("cold_request_s.p50", "s"),
    ("refresh_s.p50", "s"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def launch(workload, seed, seconds, mode, trace, deadline):
    """Run one workload process; returns (seconds to ready, result)."""
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    argv = [sys.executable, os.path.join(HERE, WORKLOADS[workload]),
            "--seed", str(seed), "--seconds", str(seconds),
            "--mode", mode, "--trace", str(trace)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a process")
    started = time.perf_counter()
    # A session of its own, so that a process past the deadline is
    # killed together with anything it started (the serve daemon).
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE,
                            start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    killer = threading.Timer(remaining, kill_group)
    killer.start()
    ready_s, result = None, None
    try:
        for line in proc.stdout:
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if doc.get("ready") and ready_s is None:
                ready_s = time.perf_counter() - started
            else:
                result = doc
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise BenchError(f"{workload} {mode} process exited with {code}")
    if mode == "run" and result is None:
        raise BenchError(f"{workload} printed no result")
    return ready_s, result


def rounds_agree(doc) -> bool:
    """Every round of one process did the same work."""
    return all(counts == doc["counts"][0] for counts in doc["counts"])


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    tally = {"attempted": 0, "failed": 0, "reasons": []}
    correct = True

    def measure(mode, trace):
        nonlocal correct
        ready_s, doc = launch(args.workload, args.seed, args.seconds,
                              mode, trace, deadline)
        if doc is not None:
            tally["attempted"] += doc["attempted"]
            tally["failed"] += doc["failed"]
            tally["reasons"] += doc["reasons"]
            correct = correct and doc["answers_confirmed"]
        return ready_s, doc

    if not args.trace:
        setups = [measure("setup", 0)[0]
                  for _ in range(SETUP_SAMPLES[args.workload] - 1)]
        ready_s, doc = measure("run", 0)
        setups.append(ready_s)
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(doc["run_s"]),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    else:
        # The work-count guard is one operation of every traced run: the
        # counts must repeat between rounds, between the untraced and the
        # traced process, and against the first traced run of the same
        # sources, workload and seed.
        docs = []
        if args.workload in AUDITS:
            docs.append(measure("run", 0)[1])
        traced = measure("run", 1)[1]
        docs.append(traced)
        values = dict.fromkeys(dict(PER_LAYER), 0.0)
        values.update(traced["layers"])
        if len(docs) == 2:
            values["obs.trace_overhead_s"] = (
                statistics.median(traced["run_s"])
                - statistics.median(docs[0]["run_s"]))
        problems = ["work counts differ between the rounds of a run"
                    for doc in docs if not rounds_agree(doc)]
        if docs[0]["counts"][:1] != traced["counts"][:1]:
            problems.append("work counts differ between an untraced and "
                            "a traced run")
        stored = guard_counts(args.workload, args.seed, values)
        if stored is not None:
            problems.append(stored)
        tally["attempted"] += 1
        if problems:
            tally["failed"] += 1
            tally["reasons"] += problems
        units = dict(PER_LAYER)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for reason in tally["reasons"]:
        print(f"layerbench: FAILED {reason}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }


def _terminated(signum, frame):
    raise BenchError(f"stopped by signal {signum}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Stopped from outside: unwind through launch(), which kills the
    # workload's process group on the way out.
    signal.signal(signal.SIGTERM, _terminated)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("layerbench: no program sources under src/repro; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"layerbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

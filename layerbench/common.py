"""Pieces shared by the three workload processes.

A workload process talks to ``run.py`` over its standard output: one
``{"ready": true}`` line when set-up is done, and one JSON result line
when it ends.  Everything else it prints goes to standard error.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / "layerbench" / ".work"

# Self time of each program span, summed into one per-layer metric.
# Spans not listed here (batch.*, verify, verify.solve, ...) are the
# engine's own bookkeeping around the layers and are not reported.
SPAN_LAYERS = {
    "parse": "lang.parse_s",
    "parse.file": "lang.parse_s",
    "net.build": "net.build_s",
    "analysis.preflight": "analysis.preflight_s",
    "analysis.device": "analysis.preflight_s",
    "analysis.network": "analysis.preflight_s",
    "verify.encode": "core.encode_s",
    "verify.property": "core.encode_s",
    "verify.local_equivalence": "core.encode_s",
    "verify.pairwise_fault_invariance": "core.encode_s",
    "verify.model": "core.model_s",
    "smt.add": "smt.add_s",
    "sat.load": "sat.load_s",
    "sat.preprocess": "sat.preprocess_s",
    "sat.solve": "sat.search_s",
}

# Program counters (summed over labels) and the per-layer names they
# are reported under.
COUNTERS = {
    "cnf.vars": "smt.cnf_vars",
    "cnf.clauses": "smt.cnf_clauses",
    "sat.pp_removed_clauses": "sat.pp_removed_clauses",
    "sat.conflicts": "sat.conflicts",
    "sat.decisions": "sat.decisions",
    "sat.propagations": "sat.propagations",
    "sat.restarts": "sat.restarts",
    "sat.learned_deleted": "sat.learned_deleted",
    "engine.encoding_cache_hit": "engine.encoding_cache_hit",
    "engine.encoding_cache_miss": "engine.encoding_cache_miss",
    "engine.encoding_recycled": "engine.encoding_recycled",
    "serve.cache.evicted": "serve.cache_evicted",
    "diff.cache_hit": "diff.replayed",
    "diff.reverified": "diff.reverified",
}

# Counts that must repeat exactly between runs of the same code.
GUARDED_COUNTS = (
    "sat.conflicts", "sat.propagations", "smt.cnf_vars",
    "smt.cnf_clauses", "sat.preprocess_runs",
    "engine.encoding_cache_hit", "engine.encoding_cache_miss",
    "diff.replayed", "diff.reverified",
)


def emit(doc: Dict) -> None:
    """One protocol line on standard output."""
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    sys.stdout.flush()


def proc_memory_mb(pid="self") -> Dict[str, float]:
    """``VmHWM`` (peak) and ``VmRSS`` (current) of a process, in MB."""
    out = {}
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                out[key] = int(value.split()[0]) / 1024.0
    return out


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_rollup(tracer) -> Dict[str, float]:
    """Per-layer self times and counters from one traced run."""
    spans = tracer.spans
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent_id"]:
            child_time[span["parent_id"]] = (
                child_time.get(span["parent_id"], 0.0) + span["duration"])
    out: Dict[str, float] = {name: 0.0 for name in SPAN_LAYERS.values()}
    out["sat.preprocess_runs"] = 0
    for span in spans:
        name = span["name"]
        layer = SPAN_LAYERS.get(name)
        if layer is None and name.startswith("encode."):
            layer = "core.encode_s"
        if layer is not None:
            self_time = span["duration"] - child_time.get(span["span_id"], 0)
            out[layer] = out.get(layer, 0.0) + self_time
        if name == "sat.preprocess":
            out["sat.preprocess_runs"] += span["attrs"].get("runs", 0)
    out.update(counter_totals(tracer.metrics.snapshot()))
    return out


def counter_totals(snapshot: Dict) -> Dict[str, int]:
    """Program counters summed over their labels, by per-layer name."""
    out = {name: 0 for name in COUNTERS.values()}
    for entry in snapshot.values():
        layer = COUNTERS.get(entry["name"])
        if layer is not None and entry["kind"] == "counter":
            out[layer] += entry["value"]
    return out


def derived_ratios(layers: Dict[str, float]) -> None:
    """The ratio metrics, each over its stated base (0 with no base)."""
    search = layers.get("sat.search_s", 0.0)
    layers["sat.propagations_per_s"] = (
        layers.get("sat.propagations", 0) / search if search else 0.0)
    hits = layers.get("engine.encoding_cache_hit", 0)
    lookups = hits + layers.get("engine.encoding_cache_miss", 0)
    layers["engine.encoding_hit_ratio"] = hits / lookups if lookups else 0.0
    replayed = layers.get("diff.replayed", 0)
    planned = replayed + layers.get("diff.reverified", 0)
    layers["diff.replay_ratio"] = replayed / planned if planned else 0.0


def source_digest() -> str:
    """Content hash of the program's sources: work counts recorded by
    one build are only compared with counts of the same build."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def guard_counts(workload: str, seed: int,
                 counts: Dict[str, float]) -> Optional[str]:
    """Compare this traced run's work counts with the first traced run
    of the same build, workload and seed in this checkout; record them
    when there is none.  Returns a description of any disagreement."""
    counts = {name: counts[name] for name in GUARDED_COUNTS}
    path = WORK_DIR / "counts" / f"{source_digest()}-{workload}-{seed}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        differing = sorted(name for name in counts
                           if recorded.get(name) != counts[name])
        if differing:
            return (f"work counts differ from an earlier traced run: "
                    + ", ".join(f"{n} {recorded.get(n)} -> {counts[n]}"
                                for n in differing))
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return None


class Rounds:
    """Whole rounds of the same operations, as many as are expected to
    fit in ``seconds`` of measured time (at least one).  Stopping before
    the budget rather than after it keeps a run from doubling in length
    when one round takes about as long as the budget."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.measured = 0.0
        self.times: List[float] = []

    def more(self) -> bool:
        if not self.times:
            return True
        mean = self.measured / len(self.times)
        return self.measured + mean <= self.seconds

    def record(self, elapsed: float) -> None:
        self.times.append(elapsed)
        self.measured += elapsed


class Tally:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)
        return ok


timer = time.perf_counter

"""fattree-audit: the five-property battery on a pods-4 fat-tree.

One round loads the 20-router fat-tree from its config texts with
``repro.net.network_from_texts`` and runs reachability, black holes,
loops, bounded length (4 hops) and multipath consistency for one rack
/24 through one serial ``repro.core.verify_batch`` call.

The seed draws the fabric's rack address plan: each ToR's /24 comes from
10.0.0.0/9, distinct per ToR.  The audited rack is always the first
pod's first ToR.  Which ToR is audited changes the CDCL search by up to
2x in conflicts, while the address plan leaves every work count
unchanged, so run times compare across seeds.
"""

from __future__ import annotations

import argparse
import random

from repro import obs
from repro.core import BatchQuery, properties as P, verify_batch
from repro.gen import build_fattree
from repro.lang.writer import write_config
from repro.net import network_from_texts

from answers import fattree_problems
from common import (
    Rounds,
    Tally,
    derived_ratios,
    emit,
    layer_rollup,
    proc_memory_mb,
    timer,
)

PODS = 4
AUDITED = "tor_0_0"
BOUND = 4


def rack_plan(seed: int, tors):
    """ToR -> its seeded rack /24, distinct per ToR, inside 10.0.0.0/9
    (the fabric's link subnets live in 10.128.0.0/9)."""
    rng = random.Random(seed)
    blocks = rng.sample(range(1, 128 * 256), len(tors))
    return {tor: f"10.{b // 256}.{b % 256}.0/24"
            for tor, b in zip(tors, blocks)}


def renumbered_texts(tree, plan):
    """Config texts with each ToR's rack moved to its planned /24."""
    texts = {}
    for name, device in tree.network.devices.items():
        text = write_config(device)
        if name in plan:
            old = tree.tor_subnet(name).split("/")[0].rsplit(".", 1)[0]
            new = plan[name].split("/")[0].rsplit(".", 1)[0]
            for line in ("ip address {}.1 255.255.255.0",
                         "network {}.0 mask 255.255.255.0"):
                before, after = line.format(old), line.format(new)
                if before not in text:
                    raise RuntimeError(f"{name}: no line {before!r}")
                text = text.replace(before, after)
        texts[f"{name}.cfg"] = text
    return texts


def battery(prefix):
    return [
        BatchQuery(P.Reachability(sources="all", dest_prefix_text=prefix),
                   label="reachability"),
        BatchQuery(P.NoBlackHoles(dest_prefix_text=prefix),
                   label="blackholes"),
        BatchQuery(P.NoForwardingLoops(dest_prefix_text=prefix),
                   label="loops"),
        BatchQuery(P.BoundedPathLength(sources="all", bound=BOUND,
                                       dest_prefix_text=prefix),
                   label="bounded-length"),
        BatchQuery(P.MultipathConsistency(dest_prefix_text=prefix),
                   label="multipath"),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tree = build_fattree(PODS)
    plan = rack_plan(args.seed, tree.tors)
    texts = renumbered_texts(tree, plan)
    prefix = plan[AUDITED]
    queries = battery(prefix)
    emit({"ready": True})
    if args.mode == "setup":
        return

    tracer = obs.enable() if args.trace else None
    rounds = Rounds(args.seconds)
    outcomes = []
    while rounds.more():
        start = timer()
        try:
            network = network_from_texts(texts)
            results = verify_batch(network, queries)
        except Exception as exc:  # an operation that raises fails
            results = exc
        rounds.record(timer() - start)
        outcomes.append(results)
    memory = proc_memory_mb()
    if tracer is not None:
        obs.disable()

    tally = Tally()
    counts = []
    for results in outcomes:
        if isinstance(results, Exception):
            for query in queries:
                tally.check(False, f"{query.label}: raised {results!r}")
            continue
        for query, result in zip(queries, results):
            tally.check(result.holds is True,
                        f"{query.label}: got {result.holds}, want True")
        counts.append([[r.conflicts, r.num_variables, r.num_clauses]
                       for r in results])
    network = network_from_texts(texts)
    problems = fattree_problems(network, AUDITED, prefix)
    doc = {
        "rounds": len(rounds.times),
        "run_s": rounds.times,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons + problems,
        "answers_confirmed": not problems,
        "peak_rss_mb": memory["VmHWM"],
        "counts": counts,
    }
    if tracer is not None:
        layers = {k: v / len(rounds.times)
                  for k, v in layer_rollup(tracer).items()}
        derived_ratios(layers)
        doc["layers"] = layers
    emit(doc)


if __name__ == "__main__":
    main()

"""cloud-audit: the four §8.1 checks over a seeded draw of cloud networks.

The draw holds one network of each bug class of
:mod:`repro.gen.cloud`: a 3-router management hijack, a 6-router
local-equivalence drift, a 6-router deep black hole and a 3-router clean
network.  Networks of one class and size are isomorphic apart from their
addresses, so every draw does the same work.  Networks are at most 6
routers: at 8-9 routers the fault-invariance proof alone takes 34-77 s.

One round runs, on each network of the draw and through the program's
public ``Verifier``:

* management reachability from all routers, once per management prefix;
* local equivalence of chained same-role pairs (interfaces by name);
* no black holes toward the network's /16, drops allowed at the edge;
* pairwise fault invariance at k=1 toward the last rack, under a
  50,000-conflict budget.  It must come back HOLDS: UNKNOWN fails.
"""

from __future__ import annotations

import argparse
import random
import warnings

from repro import Verifier, obs
from repro.analysis import ConfigAnalysisWarning
from repro.core import properties as P
from repro.gen import SUITE_SIZE, build_cloud_network
from repro.lang.writer import write_config
from repro.net import network_from_texts

from answers import (
    edge_routers,
    equivalence_answer,
    mgmt_answers,
    replay_problem,
)
from common import (
    Rounds,
    Tally,
    derived_ratios,
    emit,
    layer_rollup,
    proc_memory_mb,
    timer,
)

FI_BUDGET = 50_000


def draw(seed: int):
    """One network per bug class, in a seeded order of the suite; hijack
    and clean at 3 routers, drift and black hole at 6 (the generator
    never makes them smaller)."""
    sizes = {"blackhole": 6, "clean": 3, "drift": 6, "hijack": 3}
    picked = {}
    order = list(range(SUITE_SIZE))
    random.Random(seed).shuffle(order)
    for index in order:
        cloud = build_cloud_network(index)
        kind = ("hijack" if cloud.seeded_hijack
                else "drift" if cloud.seeded_equiv_drift
                else "blackhole" if cloud.seeded_blackhole
                else "clean")
        if kind not in picked and len(cloud.network.devices) == sizes[kind]:
            picked[kind] = cloud
            if len(picked) == len(sizes):
                break
    return [picked[kind] for kind in sorted(sizes)]


def checks(cloud):
    """The round's operations on one network: (kind, label, thunk, answer,
    allowed) with ``thunk(verifiers)`` running one query."""
    network = cloud.network
    ops = []
    for prefix, answer in zip(cloud.management_prefixes,
                              mgmt_answers(cloud)):
        prop = P.Reachability(sources="all", dest_prefix_text=prefix)
        ops.append(("reachability", f"{cloud.name} mgmt {prefix}",
                    lambda v, p=prop: v["plain"].verify(p), answer, ()))
    for members in cloud.roles.values():
        for a, b in zip(members, members[1:]):
            ops.append(("equivalence", f"{cloud.name} equiv {a},{b}",
                        lambda v, a=a, b=b: v["plain"].
                        verify_local_equivalence(a, b,
                                                 iface_pairing="by-name"),
                        equivalence_answer(cloud, b), ()))
    edge = edge_routers(network)
    holes = P.NoBlackHoles(allowed=edge,
                           dest_prefix_text=f"10.{cloud.index % 120}.0.0/16")
    ops.append(("blackholes", f"{cloud.name} blackholes",
                lambda v, p=holes: v["plain"].verify(p),
                not cloud.seeded_blackhole, edge))
    racks = cloud.roles["tor"] or cloud.roles["core"]
    rack = f"10.{cloud.index % 120}.{len(racks) - 1}.0/24"
    ops.append(("fault-invariance", f"{cloud.name} fault-invariance",
                lambda v, r=rack: v["budget"].
                verify_pairwise_fault_invariance(k=1, dest_prefix=r),
                True, ()))
    return ops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Preflight findings on the seeded bugs are expected; keep stderr
    # readable.
    warnings.simplefilter("ignore", ConfigAnalysisWarning)
    clouds = draw(args.seed)
    texts = [{f"{n}.cfg": write_config(d)
              for n, d in c.network.devices.items()} for c in clouds]
    emit({"ready": True})
    if args.mode == "setup":
        return

    tracer = obs.enable() if args.trace else None
    rounds = Rounds(args.seconds)
    outcomes = []  # per round: per network (network, ops, results)
    while rounds.more():
        start = timer()
        per_round = []
        for cloud, config in zip(clouds, texts):
            network = network_from_texts(config)
            cloud.network = network
            verifiers = {
                "plain": Verifier(network),
                "budget": Verifier(network, conflict_budget=FI_BUDGET),
            }
            ops = checks(cloud)
            results = []
            for _kind, _label, thunk, _answer, _allowed in ops:
                try:
                    results.append(thunk(verifiers))
                except Exception as exc:  # an operation that raises fails
                    results.append(exc)
            per_round.append((network, ops, results))
        rounds.record(timer() - start)
        outcomes.append(per_round)
    memory = proc_memory_mb()
    if tracer is not None:
        obs.disable()

    tally = Tally()
    counts = []
    for per_round in outcomes:
        round_counts = []
        for network, ops, results in per_round:
            for (kind, label, _thunk, answer, allowed), result in zip(
                    ops, results):
                if isinstance(result, Exception):
                    tally.check(False, f"{label}: raised {result!r}")
                    continue
                round_counts.append([result.conflicts, result.num_variables,
                                     result.num_clauses])
                if result.holds is not answer:
                    tally.check(False, f"{label}: got {result.holds}, "
                                       f"want {answer}")
                    continue
                problem = (None if answer
                           else replay_problem(network, kind, result,
                                               allowed))
                tally.check(problem is None, f"{label}: {problem}")
        counts.append(round_counts)
    doc = {
        "rounds": len(rounds.times),
        "run_s": rounds.times,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "answers_confirmed": True,
        "peak_rss_mb": memory["VmHWM"],
        "counts": counts,
        "networks": [c.index for c in clouds],
    }
    if tracer is not None:
        layers = {k: v / len(rounds.times)
                  for k, v in layer_rollup(tracer).items()}
        derived_ratios(layers)
        doc["layers"] = layers
    emit(doc)


if __name__ == "__main__":
    main()

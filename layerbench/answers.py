"""Expected verdicts, derived without the encoder or the solver.

* Fat-trees: the answers follow from the Clos design.  Every router is
  at most four hops (ToR - agg - core - agg - ToR) from any rack, the
  cores drop the backbone's announcements of internal space, and every
  router runs BGP multipath, so each rack /24 is reachable from every
  router along every branch, within four hops, with no black hole and
  no loop.  :func:`fattree_problems` checks the design by breadth-first
  search over the links and confirms it with a ``repro.sim`` trace of
  the failure-free environment.
* Cloud networks: the answers are the generator's seeded labels
  (:mod:`repro.gen.cloud`), refined per management prefix by how the
  hijack works: an upstream's /32 beats the OSPF route on every core
  that does not own the address itself.
* Violations: every counterexample is replayed through
  ``repro.core.concrete.counterexample_environment`` and the simulator
  (:func:`replay_problem`), so a violation counts as right only when the
  concrete network shows it too.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Dict, Iterable, List, Optional

from repro.core.concrete import counterexample_environment
from repro.core.counterexample import Counterexample, EnvAnnouncement
from repro.net import ip as iplib
from repro.sim import (
    DELIVERED,
    NO_ROUTE,
    NULL_ROUTED,
    DataPlane,
    Environment,
    Packet,
    simulate,
)

CLOS_DIAMETER = 4


def hop_distances(network, start: str) -> Dict[str, int]:
    """Breadth-first hop counts from ``start`` over internal links."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        here = queue.popleft()
        for edge in network.edges_from(here):
            there = edge.target
            if there in network.devices and there not in dist:
                dist[there] = dist[here] + 1
                queue.append(there)
    return dist


def rack_host(prefix: str) -> int:
    """A host address inside a rack /24 (not the ToR's own address)."""
    network, _length = iplib.parse_prefix(prefix)
    return network + 10


def fattree_problems(network, tor: str, prefix: str) -> List[str]:
    """Where the Clos-design answers for ``tor``'s rack fail to hold in
    the design itself or in a failure-free simulation (empty list when
    both confirm them)."""
    problems = []
    dist = hop_distances(network, tor)
    far = [r for r in network.router_names()
           if dist.get(r, CLOS_DIAMETER + 1) > CLOS_DIAMETER]
    if far:
        problems.append(f"design: {far} more than {CLOS_DIAMETER} hops "
                        f"from {tor}")
    dataplane = DataPlane(simulate(network, Environment.empty()))
    packet = Packet(dst_ip=rack_host(prefix))
    for router in network.router_names():
        traces = dataplane.traces(router, packet)
        bad = [t for t in traces
               if t.disposition != DELIVERED or t.hops > CLOS_DIAMETER]
        if not traces or bad:
            problems.append(f"simulation: {router} -> {prefix}: "
                            f"{[(t.path, t.disposition) for t in bad]}")
    return problems


def unreachable_problems(network, prefix: str) -> List[str]:
    """Confirm by simulation that no router has a route to ``prefix`` (a
    rack whose address a refresh moved away): every packet stops, with
    no route, at the router it starts from."""
    dataplane = DataPlane(simulate(network, Environment.empty()))
    packet = Packet(dst_ip=rack_host(prefix))
    return [f"simulation: {router} -> {prefix}: {trace}"
            for router in network.router_names()
            for trace in dataplane.traces(router, packet)
            if trace.disposition != NO_ROUTE or trace.hops]


# -- cloud networks ---------------------------------------------------------


def mgmt_answers(cloud) -> List[bool]:
    """Per management prefix: does all-sources reachability hold?"""
    owners = cloud.roles["core"] + cloud.roles["agg"] + cloud.roles["tor"]
    cores = cloud.roles["core"]
    return [not cloud.seeded_hijack or cores == [owner]
            for owner in owners]


def equivalence_answer(cloud, router_b: str) -> bool:
    """Chained same-role pairs differ only at the drifted router."""
    return not (cloud.seeded_equiv_drift
                and cloud.drift_pair is not None
                and router_b == cloud.drift_pair[1])


def edge_routers(network) -> List[str]:
    return [r for r in network.router_names()
            if r.startswith("tor") or r.startswith("core")]


# -- counterexample replay --------------------------------------------------

_DST = re.compile(r"dstIp=(\d+\.\d+\.\d+\.\d+)")


class _WireResult:
    """The fields of a ``repro serve`` result object replay needs."""

    def __init__(self, doc) -> None:
        self.counterexample = doc.get("counterexample")
        self.message = doc.get("message", "")
        self.property_name = doc.get("property", "")


_ANNOUNCE = re.compile(
    r"^\s+(\S+) announces dst/(\d+) pathlen=(\d+)"
    r"(?: med=(\d+))?(?: comms=\[(.*)\])?$")
_FAILED = re.compile(r"\('([^']+)', '([^']+)'\)")


def parse_summary(text: str) -> Counterexample:
    """Rebuild the environment part of a counterexample from the
    ``Counterexample.summary()`` text a ``repro serve`` response carries."""
    dst = _DST.search(text)
    if dst is None:
        raise ValueError(f"no packet in counterexample {text!r}")
    src = re.search(r"srcIp=(\d+\.\d+\.\d+\.\d+)", text)
    cex = Counterexample(
        dst_ip=iplib.parse_ip(dst.group(1)),
        src_ip=iplib.parse_ip(src.group(1)) if src else 0)
    for line in text.splitlines():
        ann = _ANNOUNCE.match(line)
        if ann:
            comms = tuple(c.strip().strip("'")
                          for c in (ann.group(5) or "").split(",")
                          if c.strip())
            cex.announcements.append(EnvAnnouncement(
                peer=ann.group(1), prefix_length=int(ann.group(2)),
                path_length=int(ann.group(3)),
                med=int(ann.group(4) or 0), communities=comms))
        elif line.startswith("failed links:"):
            cex.failed_links = _FAILED.findall(line)
    return cex


def replay_problem(network, kind: str, result,
                   allowed: Iterable[str] = ()) -> Optional[str]:
    """Replay a violation through the simulator; None when the concrete
    network shows the same violation.

    ``kind`` is ``reachability`` (some router fails to deliver),
    ``blackholes`` (some router outside ``allowed`` drops), or
    ``equivalence`` (the two routers' interface ACLs disagree on the
    counterexample packet).
    A ``result`` may be a ``VerificationResult`` or a ``repro serve``
    result object (whose counterexample is its summary text).
    """
    if isinstance(result, dict):
        result = _WireResult(result)
    if kind == "equivalence":
        return _replay_equivalence(network, result)
    cex = result.counterexample
    if cex is None:
        return f"{kind}: violated without a counterexample"
    if isinstance(cex, str):
        cex = parse_summary(cex)
    environment = counterexample_environment(cex)
    dataplane = DataPlane(simulate(network, environment))
    packet = Packet(dst_ip=cex.dst_ip, src_ip=cex.src_ip,
                    protocol=cex.protocol, dst_port=cex.dst_port)
    allowed = set(allowed)
    for router in network.router_names():
        traces = dataplane.traces(router, packet)
        if kind == "reachability" and not any(t.delivered for t in traces):
            return None
        if kind == "blackholes" and any(
                t.disposition in (NULL_ROUTED, NO_ROUTE)
                and t.path[-1] not in allowed for t in traces):
            return None
    return (f"{kind}: counterexample to {iplib.format_ip(cex.dst_ip)} "
            "does not replay in the simulator")


def _replay_equivalence(network, result) -> Optional[str]:
    match = _DST.search(result.message)
    pair = re.search(r"LocalEquivalence\[(\w+),(\w+)\]",
                     result.property_name)
    if match is None or pair is None:
        return f"equivalence: no packet in {result.message!r}"
    dst = iplib.parse_ip(match.group(1))
    a, b = (network.device(name) for name in pair.groups())
    for iface_name, iface in a.interfaces.items():
        other = b.interfaces.get(iface_name)
        if other is None:
            continue
        for attr in ("acl_in", "acl_out"):
            verdicts = [_acl_permits(dev, getattr(i, attr), dst)
                        for dev, i in ((a, iface), (b, other))]
            if verdicts[0] != verdicts[1]:
                return None
    return (f"equivalence: ACLs of {pair.groups()} agree on "
            f"{match.group(1)}")


def _acl_permits(device, acl_name: Optional[str], dst: int) -> bool:
    if acl_name is None:
        return True
    acl = device.acls.get(acl_name)
    return acl is not None and acl.permits(dst)

"""serve-mixed: one closed-loop client against the ``repro serve`` daemon.

Set-up starts ``python -m repro serve`` with a state directory, a run
ledger and a JSON request log, and ingests three snapshots:

* ``fabric`` — the pods-2 fat-tree (5 routers) under a seeded rack
  address plan;
* ``edge`` — a seeded 3-router cloud network with the management hijack;
* ``wide`` — a seeded 9-router cloud network with the management hijack.

One round is a seeded script of 102 requests, sent one after another on
one keep-alive connection:

* 6 cold verifies, each needing a new (prefix, failure bound) group
  encoded: all-sources reachability to each fabric rack and to each edge
  management prefix, and black holes toward the wide network's /16;
* 18 verifies of new queries in those groups (encoding-cache hits);
* 70 verdict replays of earlier queries: 40 fabric, 20 edge, 10 wide;
* 2 refresh events on the fabric, one per rack: refresh with the rack
  renumbered and re-verify both racks (only the edited rack's
  reachability may flip, to violated), then refresh back and re-verify
  again.

Between rounds the client deletes and re-ingests the snapshots, untimed,
so every round starts from the same cold caches.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.analysis import deps
from repro.analysis.dataflow import analyze_dataflow
from repro.core import EncoderOptions, verify_batch
from repro.gen import SUITE_SIZE, build_cloud_network, build_fattree
from repro.lang.writer import write_config
from repro.net import network_from_texts
from repro.obs.ledger import RunLedger, build_record
from repro.obs.promexport import parse_exposition
from repro.serve.schemas import query_from_spec

from answers import (
    edge_routers,
    fattree_problems,
    mgmt_answers,
    replay_problem,
    unreachable_problems,
)
from common import (
    ROOT,
    WORK_DIR,
    Rounds,
    Tally,
    derived_ratios,
    emit,
    layer_rollup,
    median,
    percentile,
    proc_memory_mb,
    timer,
)
from fattree_audit import rack_plan, renumbered_texts

TENANT = "bench"
REPLAYS = {"fabric": 40, "edge": 20, "wide": 10}
BOUND = 4
# Daemon counters read from /metrics per round (per-layer name ->
# exposition family).
DAEMON_COUNTERS = {
    "engine.encoding_cache_hit": "engine_encoding_cache_hit_total",
    "engine.encoding_cache_miss": "engine_encoding_cache_miss_total",
    "engine.encoding_recycled": "engine_encoding_recycled_total",
    "serve.cache_evicted": "serve_cache_evicted_total",
    "diff.replayed": "diff_cache_hit_total",
    "diff.reverified": "diff_reverified_total",
    # Guarded but not reported: the per-layer SAT numbers of this
    # workload come from the outside replay of the round's queries.
    "daemon.sat.conflicts": "sat_conflicts_total",
    "daemon.sat.propagations": "sat_propagations_total",
}


@dataclass
class Query:
    snapshot: str
    spec: Dict
    answer: bool
    kind: str = ""  # reachability / blackholes / loops / bounded-length


@dataclass
class Op:
    kind: str  # cold, enc, replay, refresh-edit, reverify-edit, ...
    query: Optional[Query] = None
    batch: List[Query] = field(default_factory=list)
    edit: Optional[tuple] = None  # (rack, new prefix) of a refresh


def spec(prop, prefix, **extra):
    return dict({"property": prop, "dest_prefix": prefix}, **extra)


class Inputs:
    """The seeded snapshots, their queries and expected answers."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.tree = build_fattree(2)
        self.plan = rack_plan(seed, self.tree.tors)
        self.edge = self._pick(rng, 3)
        self.wide = self._pick(rng, 9)
        self.texts = {
            "fabric": renumbered_texts(self.tree, self.plan),
            "edge": self._texts(self.edge.network),
            "wide": self._texts(self.wide.network),
        }
        self.groups = self._groups()

    @staticmethod
    def _texts(network):
        return {f"{n}.cfg": write_config(d)
                for n, d in network.devices.items()}

    @staticmethod
    def _pick(rng, routers):
        """A hijack-class network of the given size, in seeded order."""
        order = list(range(SUITE_SIZE))
        rng.shuffle(order)
        for index in order:
            cloud = build_cloud_network(index)
            if cloud.seeded_hijack and len(cloud.network.devices) == routers:
                return cloud
        raise RuntimeError(f"no {routers}-router hijack network")

    def _groups(self):
        """Per group: the cold query first, then the encoding-hit ones."""
        groups = []
        routers = self.tree.network.router_names()
        for tor in self.tree.tors:
            prefix = self.plan[tor]
            group = [Query("fabric", spec("reachability", prefix), True,
                           "reachability"),
                     Query("fabric", spec("loops", prefix), True, "loops"),
                     Query("fabric", spec("blackholes", prefix), True,
                           "blackholes"),
                     Query("fabric", spec("bounded-length", prefix,
                                          bound=BOUND), True,
                           "bounded-length")]
            group += [Query("fabric", spec("reachability", prefix,
                                           sources=[r]), True,
                            "reachability")
                      for r in routers if r != tor]
            groups.append(group)
        every = self.edge.network.router_names()
        for prefix, answer in zip(self.edge.management_prefixes,
                                  mgmt_answers(self.edge)):
            groups.append([
                Query("edge", spec("reachability", prefix), answer,
                      "reachability"),
                Query("edge", spec("blackholes", prefix, allowed=every),
                      True, "blackholes"),
            ])
        wide_net = f"10.{self.wide.index % 120}.0.0/16"
        groups.append([
            Query("wide", spec("blackholes", wide_net,
                               allowed=edge_routers(self.wide.network)),
                  not self.wide.seeded_blackhole, "blackholes"),
            Query("wide", spec("blackholes", wide_net,
                               allowed=self.wide.network.router_names()),
                  True, "blackholes"),
        ])
        return groups

    def battery(self, edited=None):
        """The fabric re-verify batch: reachability, black holes and loops
        toward both racks' original prefixes.  With ``edited`` (a rack
        moved away), nothing originates its old prefix any more: no
        router has a route, so reachability flips to violated, while
        traffic is dropped where it starts and never arrives at a router
        that drops it, so black holes and loops still hold."""
        out = []
        for tor in self.tree.tors:
            prefix = self.plan[tor]
            moved = tor == edited
            out += [Query("fabric", spec("reachability", prefix),
                          not moved, "reachability"),
                    Query("fabric", spec("blackholes", prefix), True,
                          "blackholes"),
                    Query("fabric", spec("loops", prefix), True, "loops")]
        return out

    def edited_texts(self, rack, prefix):
        plan = dict(self.plan, **{rack: prefix})
        return renumbered_texts(self.tree, plan)


def make_script(inputs: Inputs, seed: int) -> List[Op]:
    """The round's requests: the groups in a fixed order (the 9-router
    network first, then edge, then fabric), each group's cold request
    first; replays of earlier queries and the refresh events at seeded
    places.  The order of the cold and encoding-hit requests is fixed
    because it changes the cost: learned clauses carry over between the
    queries of a group, and the 9-router network's cold request took
    5.2-5.6 s after the other groups against 2.8-3.1 s before them."""
    rng = random.Random(seed * 7919 + 1)
    order = {"wide": 0, "edge": 1, "fabric": 2}
    base = [Op("cold" if i == 0 else "enc", query=q)
            for group in sorted(inputs.groups,
                                key=lambda g: order[g[0].snapshot])
            for i, q in enumerate(group)]
    inserts = []  # (slot, op)
    for snapshot, count in REPLAYS.items():
        first = min(i for i, op in enumerate(base)
                    if op.query.snapshot == snapshot)
        for _ in range(count):
            slot = rng.randint(first + 1, len(base))
            done = [op.query for op in base[:slot]
                    if op.query.snapshot == snapshot]
            inserts.append((slot, [Op("replay", query=rng.choice(done))]))
    battery_done = 1 + max(
        i for i, op in enumerate(base) if op.query.snapshot == "fabric"
        and op.query.kind in ("reachability", "blackholes", "loops")
        and "sources" not in op.query.spec)
    used = set(inputs.plan.values())
    racks = list(inputs.tree.tors)  # each rack is renumbered once
    rng.shuffle(racks)
    for rack in racks:
        while True:
            block = rng.randrange(1, 128 * 256)
            prefix = f"10.{block // 256}.{block % 256}.0/24"
            if prefix not in used:
                used.add(prefix)
                break
        event = [Op("refresh-edit", edit=(rack, prefix)),
                 Op("reverify-edit", batch=inputs.battery(edited=rack),
                    edit=(rack, prefix)),
                 Op("refresh-restore", edit=(rack, prefix)),
                 Op("reverify-restore", batch=inputs.battery())]
        inserts.append((rng.randint(battery_done, len(base)), event))
    script: List[Op] = []
    by_slot: Dict[int, List[Op]] = {}
    for slot, ops in inserts:
        by_slot.setdefault(slot, []).extend(ops)
    for i in range(len(base) + 1):
        script.extend(by_slot.get(i, []))
        if i < len(base):
            script.append(base[i])
    return script


class Client:
    """One keep-alive HTTP connection; every call is recorded in order
    so the daemon's request log lines up with it."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=120)
        self.calls: List[tuple] = []  # (method, path, seconds)

    def call(self, method, path, body=None):
        payload = None if body is None else json.dumps(body)
        headers = {"X-Repro-Tenant": TENANT}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        start = timer()
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            # A failed request; the next one opens a new connection.
            self.conn.close()
            self.calls.append((method, path, timer() - start))
            return None, repr(exc), timer() - start
        seconds = timer() - start
        self.calls.append((method, path, seconds))
        if response.headers.get_content_type() == "application/json":
            return response.status, json.loads(raw), seconds
        return response.status, raw.decode(), seconds

    def close(self) -> None:
        self.conn.close()


def _default_sigint() -> None:
    # A process started in the background inherits SIGINT ignored, and
    # the daemon stops cleanly only on SIGINT: undo that before exec.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Daemon:
    """``repro serve`` as a child process with its state in ``workdir``."""

    def __init__(self, workdir) -> None:
        self.workdir = workdir
        self.log_path = os.path.join(workdir, "daemon.log.jsonl")
        os.makedirs(workdir)
        # The daemon finds ``repro`` through the PYTHONPATH run.py set.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", os.path.join(workdir, "state"),
             "--ledger", os.path.join(workdir, "ledger.sqlite"),
             "--log-json", self.log_path],
            cwd=ROOT, text=True, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, preexec_fn=_default_sigint)
        line = self.proc.stdout.readline().strip()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def request_log(self) -> List[Dict]:
        with open(self.log_path) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        return [r for r in records if r.get("event") == "serve.request"]


def exposition_counters(text: str) -> Dict[str, float]:
    """Every family of a Prometheus exposition, summed over labels."""
    return {family: sum(sample["value"] for sample in samples)
            for family, samples in parse_exposition(text).items()}


def ingest(client, inputs) -> None:
    for name, texts in inputs.texts.items():
        status, doc, _ = client.call("POST", "/v1/snapshots",
                                     {"configs": texts, "name": name})
        if status != 201:
            raise RuntimeError(f"ingest {name}: {status} {doc}")


def run_op(client, inputs, op):
    """Send one request; returns (status, doc, seconds)."""
    if op.kind in ("cold", "enc", "replay"):
        path = f"/v1/snapshots/{op.query.snapshot}/verify"
        return client.call("POST", path, op.query.spec)
    if op.kind.startswith("reverify"):
        return client.call("POST", "/v1/snapshots/fabric/verify-batch",
                           {"queries": [q.spec for q in op.batch]})
    texts = (inputs.edited_texts(*op.edit) if op.kind == "refresh-edit"
             else inputs.texts["fabric"])
    return client.call("POST", "/v1/snapshots/fabric/refresh",
                       {"configs": texts})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    inputs = Inputs(args.seed)
    script = make_script(inputs, args.seed)
    workdir = str(WORK_DIR / f"serve-{os.getpid()}")
    daemon = Daemon(workdir)
    try:
        client = Client(daemon.port)
        ingest(client, inputs)
        emit({"ready": True})
        if args.mode == "run":
            emit(measure(args, inputs, script, daemon, client))
        client.close()
    finally:
        daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, inputs, script, daemon, client) -> Dict:
    setup_rss = proc_memory_mb(daemon.proc.pid)["VmRSS"]
    rounds = Rounds(args.seconds)
    records = []  # per round: [(op, status, doc, seconds, call index)]
    counts = []
    while rounds.more():
        if rounds.times:  # every round starts from fresh snapshots
            for name in inputs.texts:
                client.call("DELETE", f"/v1/snapshots/{name}")
            ingest(client, inputs)
        before = exposition_counters(client.call("GET", "/metrics")[1])
        done = []
        start = timer()
        for op in script:
            status, doc, seconds = run_op(client, inputs, op)
            done.append((op, status, doc, seconds, len(client.calls) - 1))
        rounds.record(timer() - start)
        after = exposition_counters(client.call("GET", "/metrics")[1])
        counts.append({name: after.get(family, 0) - before.get(family, 0)
                       for name, family in DAEMON_COUNTERS.items()})
        records.append(done)
    memory = proc_memory_mb(daemon.proc.pid)
    log = daemon.request_log()
    if len(log) != len(client.calls):
        raise RuntimeError(f"request log has {len(log)} lines for "
                           f"{len(client.calls)} requests")

    tally = Tally()
    problems = check_answers(inputs, records, tally)
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
    if args.trace:
        layers = serve_layers(records, log, client.calls)
        layers["serve.rss_growth_mb"] = memory["VmRSS"] - setup_rss
        for name in DAEMON_COUNTERS:
            if not name.startswith("daemon."):
                layers[name] = median(c[name] for c in counts)
        layers.update(outside_layers(inputs, script, workdir=daemon.workdir))
        derived_ratios(layers)
        doc["layers"] = layers
    return doc


def check_answers(inputs, records, tally) -> List[str]:
    """Every request against its expected answer; every violation
    replayed in the simulator.  Returns where the simulator disagrees
    with the expected answers themselves."""
    networks = {name: network_from_texts(texts)
                for name, texts in inputs.texts.items()}
    problems = [p for tor in inputs.tree.tors
                for p in fattree_problems(networks["fabric"], tor,
                                          inputs.plan[tor])]
    edited = {}
    for done in records:
        for op, status, doc, _seconds, _index in done:
            label = f"{op.kind} {op.query.spec if op.query else op.edit}"
            if status != 200:
                tally.check(False, f"{label}: HTTP {status} {doc}")
                continue
            if op.kind.startswith("refresh"):
                tally.check(doc["changes"]["changed_devices"] == [op.edit[0]],
                            f"{label}: changed {doc['changes']}")
                continue
            if op.kind == "reverify-edit":
                if op.edit not in edited:
                    net = network_from_texts(inputs.edited_texts(*op.edit))
                    old = inputs.plan[op.edit[0]]
                    problems += unreachable_problems(net, old)
                    edited[op.edit] = net
                network = edited[op.edit]
            else:
                network = networks[revision_of(op)[0]]
            queries = [op.query] if op.query else op.batch
            for query, result in zip(queries, doc["results"]):
                _check(tally, network, query, result, label)
    return problems


def _check(tally, network, query, result, label) -> None:
    if result["holds"] is not query.answer:
        tally.check(False, f"{label} {query.spec}: got {result['holds']}, "
                           f"want {query.answer}")
        return
    problem = None
    # A replayed verdict carries no counterexample to replay.
    if not query.answer and not result["cached"]:
        problem = replay_problem(network, query.kind, result,
                                 query.spec.get("allowed", ()))
    tally.check(problem is None, f"{label} {query.spec}: {problem}")


def serve_layers(records, log, calls) -> Dict[str, float]:
    """Latency percentiles and the verify/handler/transport split of the
    timed requests, from the responses, the request log and the client."""
    latencies, cold, refresh = [], [], []
    verify_s = daemon_s = client_s = 0.0
    for done in records:
        pending = None
        for op, _status, doc, seconds, index in done:
            latencies.append(seconds)
            logged = log[index]["seconds"]
            method, path, _ = calls[index]
            if log[index]["path"] != path or log[index]["method"] != method:
                raise RuntimeError(f"request log out of step at {index}")
            results = doc.get("results", []) if isinstance(doc, dict) else []
            verify_s += sum(r["seconds"] for r in results)
            daemon_s += logged
            client_s += seconds
            if op.kind == "cold":
                cold.append(seconds)
            if op.kind == "refresh-edit":
                pending = seconds
            elif op.kind == "reverify-edit":
                refresh.append(pending + seconds)
    rounds = len(records)
    return {
        "request_s.p50": median(latencies),
        "request_s.p90": percentile(latencies, 90),
        "cold_request_s.p50": median(cold),
        "refresh_s.p50": median(refresh),
        "serve.verify_s": verify_s / rounds,
        "serve.handler_s": (daemon_s - verify_s) / rounds,
        "serve.transport_s": (client_s - daemon_s) / rounds,
    }


def revision_of(op) -> tuple:
    """The snapshot revision a verify op runs against: the snapshot name,
    plus the (rack, prefix) edit while a refresh has renumbered a rack."""
    if op.kind == "reverify-edit":
        return ("fabric",) + op.edit
    return (op.query.snapshot if op.query else "fabric",)


def outside_layers(inputs, script, workdir) -> Dict[str, float]:
    """Time the layers' public functions in this process on the daemon's
    inputs: parse and build of every snapshot, the dataflow fixpoint and
    the verdict-cache key of every verified query, a ledger append per
    verify request, and one traced ``verify_batch`` per snapshot revision
    over the queries the round sends it (the cold work)."""
    # Every revision the round verifies, with the queries it gets.
    work: Dict[tuple, Dict[str, Dict]] = {}
    uses: List[tuple] = []  # (revision, query key) per verified query
    for op in script:
        for query in ([op.query] if op.query else op.batch):
            key = json.dumps(query.spec, sort_keys=True)
            work.setdefault(revision_of(op), {})[key] = query.spec
            uses.append((revision_of(op), key))

    layers: Dict[str, float] = {}
    with obs.use(obs.Tracer()) as tracer:  # one ingest of each snapshot
        networks = {(name,): network_from_texts(texts)
                    for name, texts in inputs.texts.items()}
    ingest = layer_rollup(tracer)
    layers["lang.parse_s"] = ingest["lang.parse_s"]
    layers["net.build_s"] = ingest["net.build_s"]
    for revision in work:
        if revision not in networks:
            networks[revision] = network_from_texts(
                inputs.edited_texts(*revision[1:]))

    results = {}
    with obs.use(obs.Tracer()) as tracer:
        for revision, specs in work.items():
            batch = [query_from_spec(s) for s in specs.values()]
            for key, result in zip(specs, verify_batch(networks[revision],
                                                       batch)):
                results[(revision, key)] = result
    solved = layer_rollup(tracer)
    for name, value in solved.items():
        if name not in ("lang.parse_s", "net.build_s") and \
                not name.startswith(("engine.", "diff.", "serve.")):
            layers[name] = value

    options = EncoderOptions()
    dataflow_s: Dict[tuple, float] = {}
    key_s: Dict[tuple, float] = {}
    for revision, key in dict.fromkeys(uses):
        network = networks[revision]
        if revision not in dataflow_s:
            start = timer()
            analyze_dataflow(network)
            dataflow_s[revision] = timer() - start
        query = query_from_spec(json.loads(key))
        start = timer()
        deps.cache_key(network, query.prop, max_failures=query.max_failures,
                       assumptions=query.assumptions, options=options)
        key_s[(revision, key)] = timer() - start
    layers["analysis.dataflow_s"] = sum(dataflow_s[r] for r, _ in uses)
    layers["analysis.cache_key_s"] = sum(key_s[u] for u in uses)

    # A ledger append per verify request, shaped like the daemon's.
    ledger_path = os.path.join(workdir, "outside-ledger.sqlite")
    append_s = 0.0
    for op in script:
        if op.kind.startswith("refresh"):
            continue
        queries = [op.query] if op.query else op.batch
        record = build_record(
            "serve.verify", argv=[f"/v1/snapshots/{revision_of(op)[0]}"],
            results=[results[(revision_of(op),
                              json.dumps(q.spec, sort_keys=True))]
                     for q in queries],
            started=0.0, config_hash="0" * 64,
            extra={"tenant": TENANT, "snapshot": revision_of(op)[0],
                   "encoding_cache": {"hits": 0, "misses": 0}})
        start = timer()
        with RunLedger(ledger_path) as ledger:
            ledger.append(record)
        append_s += timer() - start
    layers["obs.ledger_append_s"] = append_s
    return layers


if __name__ == "__main__":
    main()

"""The ``run()`` workloads: ``sim-large`` and ``sim-mix``.

Both run the Claim 4.1 coin-election kernel.  ``sim-large`` puts one big
network through the numpy step kernel; ``sim-mix`` builds four small
networks per op, one per array engine, so per-call overhead dominates.
A trial runs in its own process: lowering and CSR caches start cold.

The traced trial times each layer from outside: a :class:`TracingBackend`
(a :class:`~repro.runtime.backends.NumpyBackend` passed as ``backend=``)
times the step-kernel hooks, ``Network.to_csr`` is wrapped for the
duration of the trial, and the network builds and ``run()`` calls are
timed where the benchmark makes them.
"""

from __future__ import annotations

import hashlib
import resource
from contextlib import contextmanager, nullcontext
from time import monotonic_ns

import numpy as np

from measure import Tracer, percentile, self_times
from repro import run
from repro.algorithms import election
from repro.core.ir import lower, lowering_cache_info
from repro.network import generators
from repro.network.graph import Network
from repro.network.symmetry import cyclic_rotation
from repro.runtime.backends import NumpyBackend
from repro.runtime.churn import ChurnPlan
from repro.runtime.quotient import OrbitBroadcastRng

from bench_churn import _mixed_plan  # the E22 21-event schedule

LARGE_N = 2**17
#: The reference engine checks sim-large on this smaller circulant: it
#: needs about 34 s at n = 2^17 and 2.4 s at 2^12 on a 2-CPU x86 host.
SIBLING_N = 2**10
OFFSETS = (1, 2, 3)
LARGE_STEPS = 32
LARGE_SEEDS = 8
#: sim-mix kinds, in the order a round runs them, and the engine each
#: must run on.
KIND_ENGINE = {"batched": "batched", "quotient": "quotient",
               "churn": "vectorized", "vectorized": "vectorized"}
#: Fewest ops a trial times, however long they take.
MIN_OPS = 4
#: Round index of a trial's untimed sim-mix warm-up (past any timed one).
WARMUP_ROUND = 10**6


def large_seeds(seed: int) -> list:
    """The seeds sim-large cycles over."""
    return [int(s) for s in np.random.default_rng([seed, 1]).integers(
        2**31, size=LARGE_SEEDS)]


def mix_seed(seed: int, round_index: int) -> int:
    """The seed of one sim-mix round."""
    return int(np.random.default_rng([seed, 2, round_index]).integers(2**31))


def state_digest(state, order=None) -> str:
    """sha256 of a final state's ``(node, state)`` pairs in ``order``
    (default: nodes sorted by repr)."""
    if order is None:
        order = sorted(state, key=repr)
    return hashlib.sha256(repr([(v, state[v]) for v in order]).encode()).hexdigest()


def _another_op(ops, ready_ns, seconds) -> bool:
    """True while the next op, as long as the last, ends within the
    trial's measuring time; the first :data:`MIN_OPS` always run."""
    if len(ops) < MIN_OPS:
        return True
    elapsed_ms = (monotonic_ns() - ready_ns) / 1e6
    return elapsed_ms + ops[-1]["ms"] <= seconds * 1e3


def repeat_violations(digests) -> list:
    """``digests`` is a list of ``(seed, digest)``; every op of one seed
    must end in the same final state."""
    first: dict = {}
    bad = []
    for i, (seed, digest) in enumerate(digests):
        if first.setdefault(seed, digest) != digest:
            bad.append(f"op {i} (seed {seed}): final state differs from "
                       f"the first op of that seed")
    return bad


class TracingBackend(NumpyBackend):
    """The numpy backend with every step-kernel hook recorded as a span."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts_bytes = 0

    def _timed(self, name, fn, *args):
        start = monotonic_ns()
        out = fn(*args)
        self.tracer.record(name, start, monotonic_ns())
        return out

    def neighbour_counts(self, adj, sig, n_states):
        out = self._timed("backends.counts", super().neighbour_counts,
                          adj, sig, n_states)
        self.counts_bytes += out.nbytes
        return out

    def transition(self, ir, counts, sig, live, draws):
        return self._timed("backends.transition", super().transition,
                           ir, counts, sig, live, draws)

    def draw(self, rng, randomness, size):
        return self._timed("backends.draw", super().draw, rng, randomness, size)


@contextmanager
def traced_csr(tracer: Tracer):
    """Record every ``Network.to_csr`` call, tagged with whether it built
    the matrix or answered from the network's cache."""
    original = Network.to_csr

    def to_csr(net):
        before = net.csr_rebuilds
        start = monotonic_ns()
        out = original(net)
        tracer.record("network.to_csr", start, monotonic_ns(),
                      rebuilt=net.csr_rebuilds != before)
        return out

    Network.to_csr = to_csr
    try:
        yield
    finally:
        Network.to_csr = original


class Probe:
    """What a trial measures around each op; a no-op when not traced."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.backend = TracingBackend(tracer) if tracer is not None else "auto"
        self.cache_hits = self.cache_lookups = 0

    @contextmanager
    def span(self, name, **tags):
        if self.tracer is None:
            yield None
        else:
            with self.tracer.span(name, **tags) as span:
                yield span

    def run(self, kind, *args, **kwargs):
        """``run()`` with this probe's backend, timed as ``runtime.run``."""
        with self.span("runtime.run", kind=kind) as span:
            res = run(*args, backend=self.backend, **kwargs)
        if span is not None:
            span["steps"] = res.steps
        return res

    @contextmanager
    def op(self, op_id):
        before = lowering_cache_info()
        if self.tracer is not None:
            self.tracer.op_id = op_id
        with self.span("op"):
            yield
        after = lowering_cache_info()
        self.cache_hits += after["hits"] - before["hits"]
        self.cache_lookups += (after["hits"] + after["misses"]
                               - before["hits"] - before["misses"])


# ----------------------------------------------------------------------
# sim-large
# ----------------------------------------------------------------------
def _coin(net, rng, until, **kwargs):
    """The coin kernel on ``net`` from its uniform start."""
    return run(election.coin_kernel_programs(), net,
               election.coin_kernel_init(net), randomness=2, rng=rng,
               until=until, **kwargs)


def large_trial(seed, trial, seconds, tracer=None) -> dict:
    seeds = large_seeds(seed)
    check_seed = seeds[trial % LARGE_SEEDS]
    # warms run()'s code paths; its final state is checked below
    sibling = generators.circulant_graph(SIBLING_N, OFFSETS)
    sibling_final = _coin(sibling, check_seed, LARGE_STEPS).final_state
    probe = Probe(tracer)
    ops, digests, violations = [], [], []
    with traced_csr(tracer) if tracer else nullcontext():
        with probe.span("network.build"):
            net = generators.circulant_graph(LARGE_N, OFFSETS)
        lower(election.coin_kernel_programs(), 2)
        order = net.to_csr()[1]
        init = election.coin_kernel_init(net)
        ready_ns = monotonic_ns()
        k = 0
        while _another_op(ops, ready_ns, seconds):
            op_seed = seeds[k % LARGE_SEEDS]
            start = monotonic_ns()
            with probe.op(k):
                res = probe.run(
                    "vectorized", election.coin_kernel_programs(), net, init,
                    randomness=2, until=LARGE_STEPS, rng=op_seed,
                )
            ops.append({"ms": (monotonic_ns() - start) / 1e6,
                        "node_steps": LARGE_N * res.steps})
            if (res.engine, res.backend) != ("vectorized", "numpy"):
                violations.append(f"op {k}: ran on {res.engine}/{res.backend}")
            digests.append((op_seed, state_digest(res.final_state, order)))
            k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    violations += repeat_violations(digests)
    ref = _coin(sibling, check_seed, LARGE_STEPS, engine="reference")
    if ref.final_state != sibling_final:
        violations.append(f"seed {check_seed}: n={SIBLING_N} run differs "
                          f"from the reference engine")
    return _trial_record(ready_ns, ops, violations, rss_mb, probe,
                         dict(digests))


# ----------------------------------------------------------------------
# sim-mix
# ----------------------------------------------------------------------
def _mix_networks(probe):
    """Build the round's four networks (and the churn plan)."""
    with probe.span("network.build"):
        k64 = generators.complete_graph(64)
    with probe.span("network.build"):
        cycle = generators.cycle_graph(4096)
        cycle.declare_symmetry(cyclic_rotation(4096))
    with probe.span("network.build"):
        k128 = generators.complete_graph(128)
    with probe.span("network.build"):
        circ = generators.circulant_graph(2048, OFFSETS)
    plan = _mixed_plan(k128, election.coin_kernel_init(k128))
    return k64, cycle, k128, plan, circ


def mix_round(seed, probe) -> dict:
    """One sim-mix op: a fresh network and ``run()`` per array engine."""
    k64, cycle, k128, plan, circ = _mix_networks(probe)
    P, init = election.coin_kernel_programs, election.coin_kernel_init
    return {
        "batched": probe.run(
            "batched", P(), k64, init(k64), replicas=64, randomness=2,
            rng=seed, until=election.kernel_unique_survivor),
        "quotient": probe.run(
            "quotient", P(), cycle, init(cycle), engine="quotient",
            randomness=2, rng=seed, until=24),
        "churn": probe.run(
            "churn", P(), k128, init(k128), randomness=2, rng=seed, until=20,
            fault_plan=ChurnPlan(plan)),
        "vectorized": probe.run(
            "vectorized", P(), circ, init(circ), randomness=2, rng=seed,
            until=16),
    }


def mix_node_steps(results) -> int:
    """Lifted nodes x steps x replicas over the round's four runs."""
    total = 0
    for res in results.values():
        replicas = len(res.replica_states) if res.replica_states else 1
        total += len(res.final_state) * res.steps * replicas
    return total


def mix_violations(seed, results) -> list:
    """Cheap checks every round gets: each kind ran on its engine and every
    batched replica ended with exactly one survivor."""
    bad = [
        f"seed {seed}: {kind} ran on {results[kind].engine}"
        for kind, engine in KIND_ENGINE.items()
        if results[kind].engine != engine
    ]
    survivors = {
        sum(1 for q in st.values() if q != election.K_OUT)
        for st in results["batched"].replica_states
    }
    if survivors != {1}:
        bad.append(f"seed {seed}: batched survivor counts {sorted(survivors)}")
    return bad


def mix_oracles(seed) -> dict:
    """Each kind's final state from the oracle its E-bench uses."""
    k64, cycle, k128, plan, circ = _mix_networks(Probe())
    replica0 = np.random.default_rng(seed).spawn(64)[0]
    shared = OrbitBroadcastRng(cycle, np.random.default_rng(seed))
    return {
        "batched": _coin(k64, replica0, election.kernel_unique_survivor,
                         engine="vectorized").final_state,
        "quotient": _coin(cycle, shared, 24, engine="vectorized").final_state,
        "churn": _coin(k128, seed, 20, engine="reference",
                       fault_plan=ChurnPlan(plan)).final_state,
        "vectorized": _coin(circ, seed, 16, engine="reference").final_state,
    }


def mix_digests(results) -> dict:
    return {
        kind: state_digest(res.replica_states[0] if kind == "batched"
                           else res.final_state)
        for kind, res in results.items()
    }


def oracle_violations(seed, digests, oracle_states) -> list:
    return [
        f"seed {seed}: {kind} final state differs from its oracle"
        for kind, state in oracle_states.items()
        if digests[kind] != state_digest(state)
    ]


def mix_trial(seed, trial, seconds, tracer=None) -> dict:
    mix_round(mix_seed(seed, WARMUP_ROUND + trial), Probe())  # warm-up
    probe = Probe(tracer)
    ops, rounds, violations = [], [], []
    with traced_csr(tracer) if tracer else nullcontext():
        ready_ns = monotonic_ns()
        k = 0
        while _another_op(ops, ready_ns, seconds):
            s = mix_seed(seed, k)
            start = monotonic_ns()
            with probe.op(k):
                results = mix_round(s, probe)
            ops.append({"ms": (monotonic_ns() - start) / 1e6,
                        "node_steps": mix_node_steps(results)})
            violations += mix_violations(s, results)
            rounds.append((s, mix_digests(results)))
            k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    s, digests = rounds[trial % len(rounds)]  # another round each trial
    violations += oracle_violations(s, digests, mix_oracles(s))
    return _trial_record(ready_ns, ops, violations, rss_mb, probe, None)


# ----------------------------------------------------------------------
# shared
# ----------------------------------------------------------------------
def _trial_record(ready_ns, ops, violations, rss_mb, probe, digests) -> dict:
    wall_s = sum(op["ms"] for op in ops) / 1e3
    out = {
        "ready_ns": ready_ns,
        "latencies_ms": [op["ms"] for op in ops],
        "ops_per_s": len(ops) / wall_s,
        "node_steps_per_s": sum(op["node_steps"] for op in ops) / wall_s,
        "attempted": len(ops),
        "failed": len(violations),
        "violations": violations[:20],
        "peak_rss_mb": rss_mb,
    }
    if digests is not None:
        out["digests"] = {str(s): d for s, d in digests.items()}
    if probe.tracer is not None:
        out["layers"] = sim_layers(probe, ops)
        out["spans"] = probe.tracer.spans
    return out


def sim_layers(probe, ops) -> dict:
    """Per-layer metrics of one traced sim trial."""
    spans = probe.tracer.spans
    by_id = {s["id"]: s for s in spans}

    def ms(s):
        return (s["end_ns"] - s["start_ns"]) / 1e6

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    runs = [s for s in spans if s["name"] == "runtime.run"]
    hooks = [s for s in spans if s["name"].startswith("backends.")]
    steps = sum(s["steps"] for s in runs) or 1
    first_hook, hook_ms = {}, {}
    for h in hooks:
        parent = h["parent"]
        first_hook[parent] = min(first_hook.get(parent, h["start_ns"]),
                                 h["start_ns"])
        hook_ms[parent] = hook_ms.get(parent, 0.0) + ms(h)
    prestep = {r["id"]: (first_hook.get(r["id"], r["end_ns"]) - r["start_ns"])
               / 1e6 for r in runs}
    run_ms = sum(ms(r) for r in runs) or 1.0

    def hook_per_step(name):
        return sum(ms(h) for h in hooks if h["name"] == name) / steps

    out = {
        "network.build_ms": mean(
            ms(s) for s in spans if s["name"] == "network.build"),
        "network.to_csr_ms": mean(
            ms(s) for s in spans
            if s["name"] == "network.to_csr" and s["rebuilt"]),
        "core.lowering_cache_hit_frac":
            probe.cache_hits / max(1, probe.cache_lookups),
        "runtime.prestep_ms": mean(prestep.values()),
        "runtime.engine_self_ms_per_step": sum(
            ms(r) - prestep[r["id"]] - hook_ms.get(r["id"], 0.0) for r in runs
        ) / steps,
        "backends.counts_ms_per_step": hook_per_step("backends.counts"),
        "backends.transition_ms_per_step": hook_per_step("backends.transition"),
        "backends.draw_ms_per_step": hook_per_step("backends.draw"),
        "backends.counts_bytes_per_step": probe.backend.counts_bytes / steps,
        "backends.kernel_share": sum(hook_ms.values()) / run_ms,
    }
    for kind in KIND_ENGINE:
        out[f"runtime.op_ms.{kind}"] = mean(
            ms(r) for r in runs if r["kind"] == kind)
    # every op's spans, self times summed, against the op's own timer
    own = self_times(spans)
    in_ops = sum(own[s["id"]] for s in spans if s["op_id"] is not None
                 and _root(s, by_id)["name"] == "op") / 1e6
    out["trace.accounted_frac"] = in_ops / (sum(op["ms"] for op in ops) or 1.0)
    out["loadgen.latency_ms_p99"] = percentile([op["ms"] for op in ops], 0.99)
    return out


def _root(span, by_id):
    while span["parent"] is not None:
        span = by_id[span["parent"]]
    return span

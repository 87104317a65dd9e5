"""Tests for the array-backend layer (:mod:`repro.runtime.backends`).

The engine-conformance harness already runs the numpy backend, and a
subclass wrapping its hooks, through the bitwise step-by-step
comparisons (``TestBackendConformance``); this module covers everything
around that hot loop: resolution and negotiation (an unknown name must
fail with ``ValueError``, a retired or unsatisfiable one with a
machine-readable blocker, never degrade silently), the telemetry backend
tag, and the ``run()``-level round trips — ``RunResult.backend``, the
manifest, and :func:`~repro.runtime.telemetry.replay` re-pinning the
recorded backend.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.ir import BackendLoweringError, LoweringError
from repro.network import NetworkState, generators
from repro.runtime import run
from repro.runtime.backends import (
    DEFAULT_MAX_STEPS,
    NumpyBackend,
    resolve_backend,
)
from repro.runtime.telemetry import MetricsRegistry, replay
from repro.runtime.vectorized import VectorizedSynchronousEngine


def _two_coloring_workload(n=10):
    from repro.algorithms import two_coloring as tc

    net = generators.cycle_graph(n)
    programs = tc.sticky_programs()
    init = NetworkState.from_function(
        net, lambda v: tc.RED if v == 0 else tc.BLANK
    )
    return net, programs, init


def _coin_kernel_workload(n=8):
    from repro.algorithms import election

    net = generators.complete_graph(n)
    return net, election.coin_kernel_programs(), election.coin_kernel_init(net)


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
def _census_workload():
    from repro.algorithms import census

    net = generators.connected_gnp_graph(10, 0.4, 0)
    automaton, init = census.build(net, rng=0)
    assert automaton.is_rule_based
    return automaton, net, init


class TestRegistry:
    def test_auto_and_none_resolve_to_numpy(self):
        assert isinstance(resolve_backend("auto"), NumpyBackend)
        assert isinstance(resolve_backend(None), NumpyBackend)
        assert resolve_backend("numpy").name == "numpy"

    def test_instance_passes_through(self):
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend

    @pytest.mark.parametrize("name", ["numba", "array-api"])
    def test_retired_names_raise_blocker(self, name):
        with pytest.raises(BackendLoweringError) as exc:
            resolve_backend(name)
        assert exc.value.blocker == "backend-retired"
        assert isinstance(exc.value, LoweringError)  # and hence a TypeError

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            resolve_backend("bogus")
        with pytest.raises(ValueError, match="numpy"):
            resolve_backend("bogus")

    def test_default_max_steps_is_shared(self):
        import repro.runtime as rt

        assert DEFAULT_MAX_STEPS == 100_000
        assert rt.DEFAULT_MAX_STEPS is DEFAULT_MAX_STEPS


# ----------------------------------------------------------------------
# negotiation: unsatisfiable backends must raise structured blockers
# ----------------------------------------------------------------------
def _engine_paths():
    """``(label, run-thunk-for-backend)`` for every engine path."""
    net, programs, init = _two_coloring_workload()
    automaton, cnet, cinit = _census_workload()
    return {
        "reference": lambda b: run(
            programs, net.copy(), init, engine="reference", backend=b
        ),
        "auto-fallback": lambda b: run(automaton, cnet.copy(), cinit, backend=b),
        "array": lambda b: run(programs, net.copy(), init, backend=b),
    }


class TestNegotiation:
    @pytest.mark.parametrize("path", ["reference", "auto-fallback", "array"])
    def test_mistyped_name_lists_choices_on_every_path(self, path):
        with pytest.raises(ValueError, match="unknown backend 'nmpy'") as exc:
            _engine_paths()[path]("nmpy")
        assert not isinstance(exc.value, LoweringError)
        assert "numpy" in str(exc.value)

    @pytest.mark.parametrize("name", ["numba", "array-api"])
    @pytest.mark.parametrize("path", ["reference", "auto-fallback", "array"])
    def test_retired_name_raises_blocker_on_every_path(self, path, name):
        with pytest.raises(BackendLoweringError) as exc:
            _engine_paths()[path](name)
        assert exc.value.blocker == "backend-retired"

    def test_run_reference_engine_rejects_pinned_backend(self):
        net, programs, init = _two_coloring_workload()
        with pytest.raises(BackendLoweringError) as exc:
            run(programs, net, init, engine="reference", backend="numpy")
        assert exc.value.blocker == "reference-engine"
        assert "engine='reference' was requested" in str(exc.value)

    def test_run_auto_fallback_rejects_pinned_backend(self):
        # a rule-based automaton auto-falls back to the reference
        # interpreter; a pinned backend must surface that, not vanish
        automaton, net, init = _census_workload()
        with pytest.raises(BackendLoweringError) as exc:
            run(automaton, net, init, backend="numpy")
        assert exc.value.blocker == "reference-engine"
        assert "fell back" in str(exc.value)

    def test_reference_engine_accepts_auto_backend(self):
        net, programs, init = _two_coloring_workload()
        res = run(programs, net, init, engine="reference", backend="auto")
        assert res.engine == "reference"
        assert res.backend is None


# ----------------------------------------------------------------------
# telemetry: tags, manifest, replay
# ----------------------------------------------------------------------
class TestBackendTelemetry:
    def test_metrics_registry_tags(self):
        met = MetricsRegistry()
        met.set_tag("backend", "first")
        met.set_tag("backend", "numpy")  # last writer wins
        assert met.snapshot()["tags"] == {"backend": "numpy"}

    def test_engine_tags_metrics(self):
        net, programs, init = _two_coloring_workload()
        met = MetricsRegistry()
        VectorizedSynchronousEngine(
            net, programs, init, metrics=met, backend="numpy"
        )
        assert met.snapshot()["tags"]["backend"] == "numpy"

    def test_run_result_and_manifest_carry_backend(self):
        net, programs, init = _two_coloring_workload()
        res = run(programs, net, init, backend="numpy")
        assert res.backend == "numpy"
        assert res.manifest.backend == "numpy"
        assert '"backend": "numpy"' in res.manifest.to_json()

    def test_auto_records_the_resolved_backend(self):
        net, programs, init = _two_coloring_workload()
        res = run(programs, net, init)
        assert res.backend == "numpy"
        assert res.manifest.backend == "numpy"

    def test_replay_round_trips_backend(self):
        net, programs, init = _coin_kernel_workload()
        res = run(
            programs, net, init, randomness=2, rng=11, until=12,
            backend="numpy",
        )
        redo = replay(res.manifest)
        assert redo.backend == "numpy"
        assert redo.final_state == res.final_state

    @pytest.mark.parametrize("name", ["numba", "array-api"])
    def test_replay_of_retired_backend_manifest_raises_blocker(self, name):
        net, programs, init = _coin_kernel_workload()
        res = run(programs, net, init, randomness=2, rng=11, until=12)
        retired = dataclasses.replace(res.manifest, backend=name)
        with pytest.raises(BackendLoweringError) as exc:
            replay(retired)
        assert exc.value.blocker == "backend-retired"

    def test_replay_reference_run_has_no_backend(self):
        automaton, net, init = _census_workload()
        res = run(automaton, net, init, rng=3)
        assert res.backend is None
        assert replay(res.manifest).backend is None


# ----------------------------------------------------------------------
# run()-level bitwise identity across every spelling of the backend
# ----------------------------------------------------------------------
def _axis():
    yield "auto"
    yield "numpy"
    yield None
    yield NumpyBackend()


class TestRunLevelIdentity:
    def test_deterministic_runs_identical(self):
        net, programs, init = _two_coloring_workload(12)
        results = [
            run(programs, net.copy(), init, backend=b) for b in _axis()
        ]
        base = results[0]
        for res in results[1:]:
            assert res.final_state == base.final_state
            assert res.steps == base.steps

    def test_probabilistic_runs_identical(self):
        net, programs, init = _coin_kernel_workload()
        results = [
            run(
                programs, net.copy(), init, randomness=2, rng=29, until=15,
                backend=b,
            )
            for b in _axis()
        ]
        base = results[0]
        for res in results[1:]:
            assert res.final_state == base.final_state
            assert res.rng_draws == base.rng_draws

    def test_batched_replicas_identical(self):
        net, programs, init = _coin_kernel_workload(6)
        results = [
            run(
                programs, net.copy(), init, replicas=3, randomness=2,
                rng=7, until=10, backend=b,
            )
            for b in _axis()
        ]
        base = results[0]
        for res in results[1:]:
            assert res.replica_states == base.replica_states


class TestBackendProtocol:
    def test_draw_is_the_canonical_stream(self):
        """The backend consumes rng.integers(r, size=m) — nothing else."""
        backend = NumpyBackend()
        a = backend.draw(np.random.default_rng(5), 3, 8)
        b = np.random.default_rng(5).integers(3, size=8)
        np.testing.assert_array_equal(a, b)

"""Unit tests for the flat-array fast-path engine (repro.simulation.fastpath).

The bit-identity contract itself is exercised exhaustively by
``tests/test_fastpath_differential.py`` (corpus) and
``tests/test_fastpath_properties.py`` (Hypothesis); this module covers
the machinery around it: backend selection, eligibility resolution, the
single-use contract, collector counters, slot growth/compaction, and the
runner / parallel-sweep / bench / CLI integration points.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.best_fit import BestFit, WorstFit
from repro.algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from repro.cli import main
from repro.core.errors import AlgorithmError, ConfigurationError
from repro.core.instance import Instance
from repro.core.items import Item
from repro.bench import FASTPATH_SMOKE_SCENARIOS, run_fastpath_scenario
from repro.observability.stats import StatsCollector
from repro.simulation.billing import QuantumAwareMoveToFront
from repro.simulation.engine import Engine, simulate
from repro.simulation.fastpath import (
    BACKEND_ENV,
    FAST_POLICIES,
    FastEngine,
    available_backends,
    default_backend,
    fast_policy_for,
    fast_simulate,
)
from repro.simulation.parallel import parallel_sweep
from repro.simulation.runner import run, run_many
from repro.workloads.uniform import UniformWorkload

BACKENDS = available_backends()


@pytest.fixture
def churny_instance():
    """Short durations + tight bins: lots of departures and bin reuse."""
    return UniformWorkload(d=2, n=80, mu=4, T=30, B=6).sample_seeded(11)


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_numpy_preferred_when_available(self):
        assert BACKENDS == ("numpy", "python")

    def test_vectorized_is_not_a_backend(self, monkeypatch, tiny_instance):
        # "vectorized" named a removed trial-lockstep kernel, never a
        # backend of its own
        monkeypatch.setenv(BACKEND_ENV, "vectorized")
        with pytest.raises(ConfigurationError, match="not a fastpath backend"):
            default_backend()
        monkeypatch.delenv(BACKEND_ENV)
        with pytest.raises(ConfigurationError, match="unknown fastpath backend"):
            FastEngine(tiny_instance, "first_fit", backend="vectorized")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert default_backend() == "python"
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert default_backend() == "numpy"

    def test_env_override_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fortran")
        with pytest.raises(ConfigurationError):
            default_backend()

    def test_explicit_backend_rejects_unknown(self, tiny_instance):
        with pytest.raises(ConfigurationError):
            FastEngine(tiny_instance, "first_fit", backend="fortran")

    def test_unknown_policy_rejected(self, tiny_instance):
        with pytest.raises(ConfigurationError):
            FastEngine(tiny_instance, "harmonic")


# ----------------------------------------------------------------------
# eligibility resolution
# ----------------------------------------------------------------------
class TestFastPolicyFor:
    def test_registry_names(self):
        for policy in PAPER_ALGORITHMS:
            assert fast_policy_for(policy) == (policy, 0)
        assert fast_policy_for("not_a_policy") is None

    def test_stock_objects_resolve(self):
        for policy in PAPER_ALGORITHMS:
            kwargs = {"seed": 0} if policy == "random_fit" else {}
            assert fast_policy_for(make_algorithm(policy, **kwargs)) == (policy, 0)

    def test_random_fit_carries_seed(self):
        assert fast_policy_for(make_algorithm("random_fit", seed=7)) == ("random_fit", 7)

    def test_nondefault_measure_resolves_to_measure_kernel(self):
        # the L1/Lp kernels closed the measure-eligibility gap: a
        # non-linf BestFit/WorstFit now resolves to a measure-qualified
        # policy spec instead of silently falling back to classic
        assert fast_policy_for(BestFit(measure="l1")) == ("best_fit:l1", 0)
        assert fast_policy_for(WorstFit(measure="lp")) == ("worst_fit:lp:2.0", 0)
        assert fast_policy_for(BestFit(measure="lp", p=3.0)) == ("best_fit:lp:3.0", 0)
        assert fast_policy_for(BestFit()) == ("best_fit", 0)

    def test_subclass_is_ineligible(self):
        # subclasses inherit fast_kernel but are not registered by class
        assert fast_policy_for(QuantumAwareMoveToFront(quantum=5.0)) is None

    def test_foreign_object_is_ineligible(self):
        class NotAnAlgorithm:
            pass

        assert fast_policy_for(NotAnAlgorithm()) is None


# ----------------------------------------------------------------------
# single-use contract (satellite d: both engines reject run() reuse)
# ----------------------------------------------------------------------
class TestSingleUse:
    def test_fast_engine_is_single_use(self, tiny_instance):
        eng = FastEngine(tiny_instance, "first_fit")
        eng.run()
        with pytest.raises(AlgorithmError):
            eng.run()

    def test_classic_engine_is_single_use(self, tiny_instance):
        # regression pairing: the classic engine enforces the identical
        # contract, so a caller can swap engines without a behaviour gap
        eng = Engine(tiny_instance, make_algorithm("first_fit"))
        eng.run()
        with pytest.raises(AlgorithmError):
            eng.run()


# ----------------------------------------------------------------------
# the replay itself: equality on targeted shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestReplayEquality:
    def test_matches_classic_on_fixture(self, backend, uniform_small, paper_algorithm_name):
        kwargs = {"seed": 0} if paper_algorithm_name == "random_fit" else {}
        classic = run(make_algorithm(paper_algorithm_name, **kwargs), uniform_small)
        fast = FastEngine(uniform_small, paper_algorithm_name, backend=backend).run()
        assert fast.assignment == classic.assignment
        assert fast.cost == pytest.approx(classic.cost, rel=1e-12)
        assert fast.algorithm == paper_algorithm_name

    def test_slot_growth_beyond_initial_capacity(self, backend):
        # 150 simultaneous unit items force 150 open bins: the slot
        # arrays must double past their initial 64 rows mid-run
        items = [Item(0.0, 5.0, np.array([1.0]), uid) for uid in range(150)]
        inst = Instance(items)
        fast = FastEngine(inst, "first_fit", backend=backend).run()
        classic = run("first_fit", inst)
        assert fast.num_bins == 150
        assert fast.assignment == classic.assignment

    def test_tombstone_compaction(self, backend):
        # 200 strictly sequential items: every bin closes before the next
        # opens, so the dead-slot compaction sweep must fire repeatedly
        items = [
            Item(float(2 * k), float(2 * k + 1), np.array([1.0]), k)
            for k in range(200)
        ]
        inst = Instance(items)
        for policy in sorted(FAST_POLICIES):
            fast = FastEngine(inst, policy, backend=backend).run()
            classic = run(
                make_algorithm(policy, **({"seed": 0} if policy == "random_fit" else {})),
                inst,
            )
            assert fast.assignment == classic.assignment, policy

    def test_churny_instance_all_policies(self, backend, churny_instance):
        for policy in sorted(FAST_POLICIES):
            kwargs = {"seed": 0} if policy == "random_fit" else {}
            classic = run(make_algorithm(policy, **kwargs), churny_instance)
            fast = fast_simulate(policy, churny_instance, backend=backend)
            assert fast.assignment == classic.assignment, policy


# ----------------------------------------------------------------------
# collector counters
# ----------------------------------------------------------------------
class TestCollectorCounters:
    def test_deterministic_counters_match_classic(self, churny_instance):
        # d = 1, 2 and 4: every policy's counters, Next Fit's on the
        # numpy backend included, are pinned below, at and above d = 2
        instances = [
            UniformWorkload(d=1, n=80, mu=4, T=30, B=6).sample_seeded(12),
            churny_instance,
            UniformWorkload(d=4, n=80, mu=4, T=30, B=6).sample_seeded(13),
        ]
        for inst in instances:
            for policy in ("move_to_front", "first_fit", "next_fit", "best_fit"):
                col_c = StatsCollector()
                run(make_algorithm(policy), inst, collector=col_c)
                for backend in BACKENDS:
                    col_f = StatsCollector()
                    FastEngine(inst, policy, collector=col_f, backend=backend).run()
                    c, f = col_c.snapshot(), col_f.snapshot()
                    for field in (
                        "runs", "events", "arrivals", "departures", "bins_opened",
                        "bins_closed", "peak_open_bins", "candidate_scans", "fit_checks",
                    ):
                        assert getattr(f, field) == getattr(c, field), (
                            inst.d, policy, backend, field,
                        )

    def test_fastpath_backend_recorded_and_zeroed(self, churny_instance):
        col = StatsCollector()
        FastEngine(
            churny_instance, "first_fit", backend="python", collector=col
        ).run()
        stats = col.snapshot()
        assert stats.fastpath_backend == "python"
        # an execution fact, not a result: zeroed from the deterministic
        # part so trajectories stay backend-independent
        assert stats.deterministic_part().fastpath_backend == ""

    def test_fastpath_runs_counter(self, tiny_instance):
        col = StatsCollector()
        FastEngine(tiny_instance, "first_fit", collector=col).run()
        FastEngine(tiny_instance, "next_fit", collector=col).run()
        snap = col.snapshot()
        assert snap.fastpath_runs == 2
        assert snap.runs == 2
        # a classic run never bumps it
        col2 = StatsCollector()
        run("first_fit", tiny_instance, collector=col2)
        assert col2.snapshot().fastpath_runs == 0


# ----------------------------------------------------------------------
# integration: simulate / runner / parallel sweep
# ----------------------------------------------------------------------
class TestIntegration:
    def test_simulate_fast_flag_routes_and_matches(self, uniform_small):
        classic = simulate(make_algorithm("move_to_front"), uniform_small)
        col = StatsCollector()
        fast = simulate(
            make_algorithm("move_to_front"), uniform_small, collector=col, fast=True
        )
        assert fast.assignment == classic.assignment
        assert col.snapshot().fastpath_runs == 1

    def test_simulate_fast_falls_back_for_ineligible_algorithm(self, uniform_small):
        from repro.simulation.engine import reset_fallback_warnings

        reset_fallback_warnings()
        # an unregistered subclass (quantum billing changes decisions)
        algo = make_algorithm("quantum_aware_move_to_front", quantum=5.0)
        col = StatsCollector()
        with pytest.warns(RuntimeWarning, match="no fast kernel"):
            fast = simulate(algo, uniform_small, collector=col, fast=True)
        classic = simulate(
            make_algorithm("quantum_aware_move_to_front", quantum=5.0), uniform_small
        )
        assert fast.assignment == classic.assignment
        assert col.snapshot().fastpath_runs == 0

    def test_simulate_fast_uses_measure_kernel(self, uniform_small):
        # regression for the measure-eligibility gap: BestFit(l1) now
        # runs on the fast engine and matches classic bit-for-bit
        col = StatsCollector()
        fast = simulate(BestFit(measure="l1"), uniform_small, collector=col, fast=True)
        classic = simulate(BestFit(measure="l1"), uniform_small)
        assert fast.assignment == classic.assignment
        assert col.snapshot().fastpath_runs == 1
        assert col.fastpath_fallbacks == 0

    def test_simulate_fast_falls_back_with_observers(self, uniform_small):
        from repro.simulation.engine import reset_fallback_warnings
        from repro.simulation.instrumentation import LeaderTracker

        reset_fallback_warnings()
        col = StatsCollector()
        with pytest.warns(RuntimeWarning, match="observers requested"):
            packing = simulate(make_algorithm("move_to_front"), uniform_small,
                               observers=[LeaderTracker()], collector=col, fast=True)
        # observers force the classic engine; result still correct
        assert col.snapshot().fastpath_runs == 0
        assert packing.assignment == run("move_to_front", uniform_small).assignment

    def test_run_engine_parameter(self, uniform_small):
        classic = run("first_fit", uniform_small)
        fast = run("first_fit", uniform_small, engine="fast")
        assert fast.assignment == classic.assignment
        with pytest.raises(ConfigurationError):
            run("first_fit", uniform_small, engine="warp")

    def test_run_many_engine_parameter(self, uniform_small, tiny_instance):
        batch = [tiny_instance, uniform_small]
        classic = run_many("move_to_front", batch)
        fast = run_many("move_to_front", batch, engine="fast")
        assert [p.assignment for p in fast] == [p.assignment for p in classic]

    def test_parallel_sweep_fast_serial(self, uniform_small, tiny_instance):
        insts = [tiny_instance, uniform_small]
        classic = parallel_sweep(["first_fit", "best_fit"], insts, processes=0)
        fast = parallel_sweep(["first_fit", "best_fit"], insts, processes=0,
                              engine="fast")
        for name in ("first_fit", "best_fit"):
            assert [u.cost for u in fast[name]] == [u.cost for u in classic[name]]
            assert [u.num_bins for u in fast[name]] == [u.num_bins for u in classic[name]]

    def test_parallel_sweep_fast_workers_chunked(self, uniform_small, tiny_instance):
        insts = [tiny_instance, uniform_small] * 3
        classic = parallel_sweep(["first_fit"], insts, processes=0)
        fast = parallel_sweep(["first_fit"], insts, processes=2,
                              collect_stats=True, engine="fast")
        assert [u.cost for u in fast["first_fit"]] == [u.cost for u in classic["first_fit"]]
        assert all(u.stats is not None and u.stats.fastpath_runs == 1
                   for u in fast["first_fit"])


# ----------------------------------------------------------------------
# bench + CLI surfaces
# ----------------------------------------------------------------------
class TestBenchAndCli:
    def test_fastpath_scenario_record_shape(self):
        scenario = FASTPATH_SMOKE_SCENARIOS[0]
        record = run_fastpath_scenario(
            scenario, algorithms=("first_fit", "next_fit"), repeats=1
        )
        assert record["name"] == scenario.name
        assert set(record["results"]) == {"first_fit", "next_fit"}
        for res in record["results"].values():
            assert res["identical"] is True
            assert res["classic_s"] > 0
            for backend in record["backends"]:
                assert res[f"fast_{backend}_s"] > 0
                assert res[f"speedup_{backend}"] > 0
        assert record["totals"]["identical"] is True

    def test_cli_run_engine_flag(self, tmp_path, capsys):
        path = str(tmp_path / "inst.json")
        assert main(["generate", path, "--d", "2", "--n", "30"]) == 0
        assert main(["run", path, "--engine", "fast", "--validate"]) == 0
        out_fast = capsys.readouterr().out
        assert "fast engine" in out_fast
        assert main(["run", path, "--engine", "classic"]) == 0


class TestIneligibilityGap:
    """Regression for the silent-eligibility gap (ROADMAP item 2).

    A policy with no fast kernel — an unregistered subclass whose
    options change *decisions*, not just bookkeeping — must fall back
    to the classic engine *audibly*: one RuntimeWarning per distinct
    cause and a ``fastpath_fallbacks`` counter bump on every
    occurrence.  Before the fix, the batch paths degraded silently.
    (``BestFit``/``WorstFit`` measure variants, the original specimens
    here, gained real L1/Lp kernels and are exercised by the
    eligibility tests instead.)
    """

    def setup_method(self):
        from repro.simulation.engine import reset_fallback_warnings

        reset_fallback_warnings()

    def test_reason_names_the_ineligible_class(self):
        from repro.simulation.fastpath import fast_ineligibility_reason

        assert fast_ineligibility_reason(make_algorithm("best_fit")) is None
        assert fast_ineligibility_reason(BestFit(measure="l1")) is None
        assert fast_ineligibility_reason(WorstFit(measure="lp", p=3.0)) is None
        reason = fast_ineligibility_reason(QuantumAwareMoveToFront(quantum=5.0))
        assert reason is not None
        assert "no fast kernel" in reason
        assert "QuantumAwareMoveToFront" in reason

    def test_reason_names_a_cleared_kernel(self):
        # an instance whose decision-changing option cleared the
        # class-level fast_kernel marker keeps its distinct reason
        from repro.simulation.fastpath import fast_ineligibility_reason

        algo = make_algorithm("best_fit")
        algo.fast_kernel = None
        reason = fast_ineligibility_reason(algo)
        assert reason is not None
        assert "no fast kernel" in reason
        assert "decision-changing" in reason

    def test_simulate_fast_warns_and_counts(self, uniform_small):
        col = StatsCollector()
        algo = QuantumAwareMoveToFront(quantum=5.0)
        with pytest.warns(RuntimeWarning, match="no fast kernel"):
            fast = simulate(algo, uniform_small, collector=col, fast=True)
        assert col.fastpath_fallbacks == 1
        classic = simulate(QuantumAwareMoveToFront(quantum=5.0), uniform_small)
        assert dict(fast.assignment) == dict(classic.assignment)

    def test_batch_runner_units_warn_and_count(self, uniform_small):
        from repro.simulation.batch import BatchRunner

        with pytest.warns(RuntimeWarning, match="no fast kernel"):
            units = BatchRunner(uniform_small).run_units(
                [("quantum_aware_move_to_front", {"quantum": 5.0})],
                collect_stats=True,
            )
        assert units[0].stats.fastpath_fallbacks == 1

    def test_batch_run_many_counts_every_run_warns_once(
        self, uniform_small, tiny_instance
    ):
        import warnings

        from repro.simulation.batch import batch_run_many

        col = StatsCollector()
        with pytest.warns(RuntimeWarning, match="no fast kernel"):
            batch_run_many(
                QuantumAwareMoveToFront(quantum=5.0),
                [uniform_small, tiny_instance],
                collector=col,
            )
        assert col.fastpath_fallbacks == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a repeat warning would raise
            batch_run_many(
                QuantumAwareMoveToFront(quantum=5.0),
                [uniform_small, tiny_instance],
                collector=col,
            )
        assert col.fastpath_fallbacks == 4


# ----------------------------------------------------------------------
# L1/Lp measure kernels (the measure-eligibility gap, closed)
# ----------------------------------------------------------------------
class TestMeasureKernels:
    MEASURE_SPECS = (
        ("best_fit:l1", lambda: BestFit(measure="l1")),
        ("best_fit:lp:3.0", lambda: BestFit(measure="lp", p=3.0)),
        ("worst_fit:l1", lambda: WorstFit(measure="l1")),
        ("worst_fit:lp:2.0", lambda: WorstFit(measure="lp", p=2.0)),
    )

    def test_parse_policy_spec_accepts_measure_specs(self):
        from repro.simulation.fastpath import parse_policy_spec

        assert parse_policy_spec("best_fit") == ("best_fit", "linf", None)
        assert parse_policy_spec("best_fit:l1") == ("best_fit", "l1", None)
        assert parse_policy_spec("worst_fit:lp:3.0") == ("worst_fit", "lp", 3.0)
        assert parse_policy_spec("best_fit:linf") == ("best_fit", "linf", None)

    def test_parse_policy_spec_rejects_malformed(self):
        from repro.simulation.fastpath import parse_policy_spec

        for bad in (
            "harmonic",            # unknown base policy
            "first_fit:l1",        # no measure knob on this kernel
            "best_fit:l7",         # unknown measure
            "best_fit:lp",         # missing exponent
            "best_fit:lp:x",       # non-float exponent
            "best_fit:lp:0.5",     # p < 1 is not a norm
            "best_fit:lp:nan",     # NaN exponent
        ):
            with pytest.raises(ConfigurationError):
                parse_policy_spec(bad)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_measure_kernels_match_classic(self, backend, churny_instance):
        for spec, factory in self.MEASURE_SPECS:
            classic = simulate(factory(), churny_instance)
            fast = FastEngine(churny_instance, spec, backend=backend).run()
            assert dict(fast.assignment) == dict(classic.assignment), (spec, backend)
            assert fast.algorithm == classic.algorithm

    def test_lp_p1_runs_the_l1_kernel_bitwise(self, churny_instance):
        # lp with p = 1 normalises to the l1 kernel; both replays must
        # produce the same assignment as the classic lp(p=1) algorithm
        classic = simulate(BestFit(measure="lp", p=1.0), churny_instance)
        via_lp = FastEngine(churny_instance, "best_fit:lp:1.0").run()
        via_l1 = FastEngine(churny_instance, "best_fit:l1").run()
        assert dict(via_lp.assignment) == dict(classic.assignment)
        assert dict(via_lp.assignment) == dict(via_l1.assignment)

    def test_lp_inf_runs_the_linf_kernel(self, churny_instance):
        classic = simulate(BestFit(measure="lp", p=float("inf")), churny_instance)
        fast = FastEngine(churny_instance, "best_fit:lp:inf").run()
        assert dict(fast.assignment) == dict(classic.assignment)

    def test_measure_variant_no_longer_counts_as_fallback(self, uniform_small):
        # before the L1/Lp kernels, this config bumped fastpath_fallbacks
        col = StatsCollector()
        simulate(BestFit(measure="l1"), uniform_small, collector=col, fast=True)
        assert col.fastpath_fallbacks == 0
        assert col.snapshot().fastpath_runs == 1


# ----------------------------------------------------------------------
# run_trials: seeded random_fit trials through one re-armed engine
# ----------------------------------------------------------------------
class TestLockstepTrials:
    """``FastEngine.run_trials`` on both backends.

    The ``lockstep`` test names predate the per-seed loop (they pinned a
    since-deleted numpy trial-lockstep kernel); the behaviour they check
    is the loop's too.
    """

    SEEDS = (0, 1, 2, 5, 11, 42)

    def test_lockstep_matches_per_seed_runs(self, churny_instance):
        eng = FastEngine(churny_instance, "random_fit", backend="numpy")
        lockstep = eng.run_trials(self.SEEDS)
        assert len(lockstep) == len(self.SEEDS)
        for seed, got in zip(self.SEEDS, lockstep):
            single = FastEngine(
                churny_instance, "random_fit", seed=seed, backend="numpy"
            ).run_assignment()
            classic = simulate(
                make_algorithm("random_fit", seed=seed), churny_instance
            )
            assert got == single, seed
            assert got == dict(classic.assignment), seed

    def test_lockstep_trials_differ_across_seeds(self, churny_instance):
        # distinct per-trial Generator streams: seeds must not collapse
        # onto one shared draw sequence
        out = FastEngine(churny_instance, "random_fit", backend="numpy").run_trials(
            (0, 1)
        )
        assert out[0] != out[1]

    def test_python_backend_run_trials_matches_numpy_lockstep(self, churny_instance):
        py = FastEngine(churny_instance, "random_fit", backend="python")
        npy = FastEngine(churny_instance, "random_fit", backend="numpy")
        assert py.run_trials(self.SEEDS) == npy.run_trials(self.SEEDS)

    @pytest.mark.parametrize("n_seeds", [1, 4])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_run_trials_contract(self, backend, n_seeds, churny_instance):
        # one contract on both backends: run_trials re-arms after a
        # prior run(), leaves ``seed`` untouched, and leaves the engine
        # spent like run() does
        seeds = [11, 12, 13, 14][:n_seeds]
        eng = FastEngine(churny_instance, "random_fit", seed=7, backend=backend)
        first = eng.run_assignment()
        out = eng.run_trials(seeds)
        assert eng.seed == 7
        for seed, got in zip(seeds, out):
            assert got == FastEngine(
                churny_instance, "random_fit", seed=seed, backend=backend
            ).run_assignment()
        with pytest.raises(AlgorithmError):
            eng.run_assignment()
        assert eng.reset().run_assignment() == first

    def test_run_trials_with_a_collector(self, churny_instance):
        # a collector sees one run per seed and changes no assignment
        col = StatsCollector()
        eng = FastEngine(churny_instance, "random_fit", backend="numpy", collector=col)
        assert eng.run_trials(self.SEEDS) == FastEngine(
            churny_instance, "random_fit", backend="numpy"
        ).run_trials(self.SEEDS)
        assert col.snapshot().runs == col.snapshot().fastpath_runs == len(self.SEEDS)

    def test_run_trials_rejects_non_random_policies(self, churny_instance):
        eng = FastEngine(churny_instance, "first_fit", backend="numpy")
        with pytest.raises(ConfigurationError):
            eng.run_trials((0, 1))

    def test_lockstep_slot_growth(self):
        # 150 simultaneous unit items force the slot buffers to double
        # past the initial allocation mid-run, in every trial
        items = [Item(0.0, 5.0, np.array([1.0]), uid) for uid in range(150)]
        inst = Instance(items)
        out = FastEngine(inst, "random_fit", backend="numpy").run_trials((0, 3))
        for seed, got in zip((0, 3), out):
            single = FastEngine(inst, "random_fit", seed=seed).run_assignment()
            assert got == single

    def test_lockstep_compaction(self):
        # strictly sequential items: bins die continuously, exercising
        # the stable compaction path in every trial
        items = [
            Item(float(2 * k), float(2 * k + 1), np.array([1.0]), k)
            for k in range(120)
        ]
        inst = Instance(items)
        out = FastEngine(inst, "random_fit", backend="numpy").run_trials((0, 7))
        for seed, got in zip((0, 7), out):
            single = FastEngine(inst, "random_fit", seed=seed).run_assignment()
            assert got == single


# ----------------------------------------------------------------------
# seed validation (the raw-TypeError bugfix)
# ----------------------------------------------------------------------
class TestSeedValidation:
    def test_random_fit_rejects_non_integer_seed(self):
        from repro.algorithms.random_fit import RandomFit

        for bad in (None, 1.5, "7"):
            with pytest.raises(ConfigurationError):
                RandomFit(seed=bad)

    def test_random_fit_accepts_index_like_seed(self):
        from repro.algorithms.random_fit import RandomFit

        assert RandomFit(seed=np.int64(9)).seed == 9
        assert RandomFit(seed=True).seed == 1  # operator.index semantics

    def test_fast_policy_for_rejects_non_integer_seed_attr(self):
        algo = make_algorithm("random_fit", seed=3)
        algo.seed = 2.5  # simulate post-construction corruption
        assert fast_policy_for(algo) is None
        from repro.simulation.fastpath import fast_ineligibility_reason

        reason = fast_ineligibility_reason(algo)
        assert reason is not None and "seed" in reason


class TestReplayContextOrder:
    """Both backends take the event order from one lexsort, which must be
    the classic engine's ``(time, kind, seq)`` event order."""

    @staticmethod
    def _classic_order(inst):
        from repro.core.events import EventKind, event_stream

        pos = {it.uid: p for p, it in enumerate(inst.items)}
        return [
            pos[ev.item.uid] + (0 if ev.kind is EventKind.ARRIVAL else len(inst.items))
            for ev in event_stream(inst)
        ]

    def test_backends_share_the_classic_order_on_the_corpus(self):
        from repro.simulation.fastpath import ReplayContext
        from repro.verify.generators import corpus_list

        recipes = set()
        for entry in corpus_list(60, seed=11):
            inst = entry.instance
            py = ReplayContext(inst, "python")
            npy = ReplayContext(inst, "numpy")
            assert py.order == npy.order == self._classic_order(inst)
            assert type(py.order) is list and all(type(i) is int for i in py.order)
            recipes.add(entry.recipe)
        assert "edge_static_burst" in recipes

    def test_shared_times_and_out_of_order_uids(self):
        from repro.simulation.fastpath import ReplayContext

        # every arrival and departure at one of two instants, uids not in
        # position order: departures at a shared time go by uid
        items = [
            Item(0.0, 1.0, np.array([0.2]), uid=5),
            Item(0.0, 1.0, np.array([0.2]), uid=2),
            Item(0.0, 2.0, np.array([0.2]), uid=9),
            Item(1.0, 2.0, np.array([0.2]), uid=0),
            Item(1.0, 2.0, np.array([0.2]), uid=7),
        ]
        inst = Instance(items)
        expected = self._classic_order(inst)
        assert ReplayContext(inst, "python").order == expected
        assert ReplayContext(inst, "numpy").order == expected
        assert expected == [0, 1, 2, 6, 5, 3, 4, 8, 9, 7]

    def test_numpy_context_converts_for_next_fit_once(self, churny_instance):
        from repro.simulation.fastpath import ReplayContext

        class CountingMatrix(np.ndarray):
            conversions = 0

            def tolist(self):
                type(self).conversions += 1
                return super().tolist()

        ctx = ReplayContext(churny_instance, "numpy")
        ctx.sizes = ctx.sizes.view(CountingMatrix)
        # Next Fit runs the python kernel on either backend
        engine = FastEngine(churny_instance, "next_fit", backend="numpy", context=ctx)
        first = engine.run_assignment()
        second = engine.reset().run_assignment()
        expected = FastEngine(churny_instance, "next_fit", backend="python").run_assignment()
        assert first == second == expected
        assert CountingMatrix.conversions == 1

"""The parallel campaign executor: equivalence, resume, crashes, worker inputs."""

import json
import multiprocessing
import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.scale import (
    AdversaryCampaignRunner,
    CampaignUnit,
    FleetScaleRunner,
    LatencyCampaignRunner,
    ProcessPoolCampaignExecutor,
    RunTable,
    SharedPopulationPack,
    StochasticCampaignRunner,
    Telemetry,
    TimelineCampaignRunner,
    canonical_result_bytes,
    run_churn_slo_frontier,
)
from repro.scale.population import ClientPopulation


def make_e12(**kwargs):
    kwargs.setdefault("client_counts", (500, 2000, 4000))
    kwargs.setdefault("n_sites", 4)
    return FleetScaleRunner(**kwargs)


def make_e13(**kwargs):
    kwargs.setdefault("clients", 1200)
    kwargs.setdefault("seed", 5)
    kwargs.setdefault("scenarios", ("flash_crowd", "regional_outage"))
    return TimelineCampaignRunner(**kwargs)


def make_e14(**kwargs):
    kwargs.setdefault("clients", 1500)
    kwargs.setdefault("nominal_sites", 4)
    kwargs.setdefault("max_sites", 6)
    kwargs.setdefault("epochs", 10)
    kwargs.setdefault("replicas", 5)
    kwargs.setdefault("seed", 7)
    return StochasticCampaignRunner(**kwargs)


def make_e15(**kwargs):
    kwargs.setdefault("clients", 1200)
    kwargs.setdefault("epochs", 8)
    kwargs.setdefault("replicas", 4)
    kwargs.setdefault("seed", 11)
    return LatencyCampaignRunner(**kwargs)


def make_e16(**kwargs):
    kwargs.setdefault("clients", 1200)
    kwargs.setdefault("n_sites", 4)
    kwargs.setdefault("epochs", 8)
    kwargs.setdefault("replicas_per_point", 2)
    kwargs.setdefault("seed", 3)
    kwargs.setdefault("aggressiveness", (0.3, 0.7))
    kwargs.setdefault("sensitivities", (4.0,))
    return AdversaryCampaignRunner(**kwargs)


class CrashingRunner(StochasticCampaignRunner):
    """E14 variant whose third unit raises inside the worker."""

    CRASH_REPLICA = 2

    def run_unit(self, unit):
        if unit.replica == self.CRASH_REPLICA:
            raise RuntimeError("synthetic unit failure")
        return super().run_unit(unit)


class InterruptingRunner(StochasticCampaignRunner):
    """E14 variant whose second unit raises KeyboardInterrupt."""

    def run_unit(self, unit):
        if unit.replica == 1:
            raise KeyboardInterrupt
        return super().run_unit(unit)


class PoisonedRunner(StochasticCampaignRunner):
    """E14 variant that must never be asked to simulate (resume-only)."""

    def run_unit(self, unit):
        raise AssertionError("resume must not re-run completed units")


class TestCanonicalResultBytes:
    def test_same_seed_same_bytes_different_seed_differs(self):
        first = canonical_result_bytes(make_e14().run())
        second = canonical_result_bytes(make_e14().run())
        other = canonical_result_bytes(make_e14(seed=8).run())
        assert first == second
        assert first != other

    def test_wall_clock_fields_are_dropped(self):
        result = make_e14().run()
        decoded = json.loads(canonical_result_bytes(result))
        assert "started_at" not in decoded
        assert "duration_seconds" not in decoded
        assert "report" not in decoded
        assert all("wall_seconds" not in record
                   for record in decoded["records"])


class TestRunTable:
    def test_roundtrip_and_atomic_files(self, tmp_path):
        table = RunTable.open(tmp_path / "ck", run_id="r1", total_units=3)
        unit = CampaignUnit(index=1, point=None, replica=1, label="replica 1")
        table.record_outcome(unit, {"value": 42})
        assert table.completed_outcomes() == {1: {"value": 42}}
        # atomic writes leave no temp droppings
        assert not list((tmp_path / "ck").glob("*.tmp-*"))

    def test_header_mismatch_refuses_to_resume(self, tmp_path):
        RunTable.open(tmp_path / "ck", run_id="r1", total_units=3)
        with pytest.raises(WorkloadError):
            RunTable.open(tmp_path / "ck", run_id="r2", total_units=3)
        with pytest.raises(WorkloadError):
            RunTable.open(tmp_path / "ck", run_id="r1", total_units=4)

    def test_corrupt_records_degrade_to_rerun_not_crash(self, tmp_path):
        table = RunTable.open(tmp_path / "ck", run_id="r1", total_units=2)
        good = CampaignUnit(index=0, point=None, replica=0, label="replica 0")
        bad = CampaignUnit(index=1, point=None, replica=1, label="replica 1")
        table.record_outcome(good, "ok")
        table.record_outcome(bad, "will corrupt")
        table.unit_path(1).write_text("{ not json")
        assert table.completed_outcomes() == {0: "ok"}

    def test_failures_are_recorded_and_not_resumed(self, tmp_path):
        table = RunTable.open(tmp_path / "ck", run_id="r1", total_units=2)
        unit = CampaignUnit(index=0, point=None, replica=0, label="replica 0")
        table.record_failure(unit, "RuntimeError: boom")
        assert table.completed_outcomes() == {}
        assert table.failed_units() == {0: "RuntimeError: boom"}


class TestSerialEquivalence:
    """n_workers=1 must be bit-identical to the plain serial path."""

    @pytest.mark.parametrize("factory", [make_e13, make_e14, make_e15, make_e16],
                             ids=["E13", "E14", "E15", "E16"])
    def test_one_worker_is_bit_identical_to_serial(self, factory):
        serial = canonical_result_bytes(factory().run())
        one = canonical_result_bytes(factory().run_parallel(n_workers=1))
        assert one == serial

    def test_runners_survive_pickling(self):
        # the spawn path ships the runner through __getstate__
        runner = make_e14()
        clone = pickle.loads(pickle.dumps(runner))
        assert canonical_result_bytes(clone.run()) == \
            canonical_result_bytes(make_e14().run())

    def test_zero_workers_is_rejected(self):
        with pytest.raises(WorkloadError):
            ProcessPoolCampaignExecutor(make_e14(), n_workers=0)


class TestPooledEquivalence:
    """Multi-process runs must produce identical aggregate tables."""

    def test_e14_pool_matches_serial(self):
        serial = canonical_result_bytes(make_e14().run())
        pooled = canonical_result_bytes(make_e14().run_parallel(n_workers=2))
        assert pooled == serial

    def test_e16_pool_matches_serial(self):
        serial = canonical_result_bytes(make_e16().run())
        pooled = canonical_result_bytes(make_e16().run_parallel(n_workers=2))
        assert pooled == serial

    def test_e12_pools_and_closes_its_event_stream(self):
        # E12 draws one population per point and pools all the same; a
        # pooled run must close the event stream it opened.
        serial = canonical_result_bytes(make_e12().run())
        runner = make_e12(telemetry=Telemetry(trace=False, events=True))
        pooled = canonical_result_bytes(runner.run_parallel(n_workers=2))
        assert pooled == serial
        kinds = [event.kind for event in runner.telemetry.events.events]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_complete"

    def test_pool_merges_worker_telemetry_into_one_registry(self):
        serial_telemetry = Telemetry()
        make_e14(telemetry=serial_telemetry).run()
        pooled_telemetry = Telemetry()
        runner = make_e14(telemetry=pooled_telemetry)
        executor = ProcessPoolCampaignExecutor(runner, n_workers=2)
        executor.run()
        serial_counters = serial_telemetry.metrics.as_dict()["counters"]
        pooled_counters = pooled_telemetry.metrics.as_dict()["counters"]
        simulation_keys = {key for key in serial_counters
                           if key.split(".")[0] in
                           ("solver", "timeline", "scenario", "campaign")}
        for key in simulation_keys:
            assert pooled_counters.get(key, 0.0) == pytest.approx(
                serial_counters[key]), key
        gauges = pooled_telemetry.metrics.as_dict()["gauges"]
        assert gauges["parallel.n_workers"] == 2
        assert executor.phase_durations.get("replica")
        assert runner.get_current_state().completed_points == runner.replicas

    def test_pool_writes_per_worker_span_files(self, tmp_path):
        runner = make_e14()
        executor = ProcessPoolCampaignExecutor(
            runner, n_workers=2, trace_dir=tmp_path / "spans")
        executor.run()
        span_files = list((tmp_path / "spans").glob("worker-*.jsonl"))
        assert span_files
        records = [json.loads(line)
                   for line in span_files[0].read_text().splitlines()]
        assert any(record["name"] == "replica" for record in records)


class TestResume:
    def test_interrupted_checkpoint_resumes_to_identical_result(self, tmp_path):
        baseline = canonical_result_bytes(make_e14().run())
        first = ProcessPoolCampaignExecutor(
            make_e14(), n_workers=1, checkpoint_dir=tmp_path / "ck")
        first.run()
        # simulate an interruption that lost two units
        unit_files = sorted((tmp_path / "ck").glob("unit-*.json"))
        for path in unit_files[:2]:
            path.unlink()
        second = ProcessPoolCampaignExecutor(
            make_e14(), n_workers=1, checkpoint_dir=tmp_path / "ck")
        resumed = second.run()
        assert canonical_result_bytes(resumed) == baseline
        assert second.units_resumed == len(unit_files) - 2

    def test_resume_does_not_rerun_completed_units(self, tmp_path):
        ProcessPoolCampaignExecutor(
            make_e14(), n_workers=1, checkpoint_dir=tmp_path / "ck").run()
        poisoned = PoisonedRunner(
            clients=1500, nominal_sites=4, max_sites=6,
            epochs=10, replicas=5, seed=7)
        executor = ProcessPoolCampaignExecutor(
            poisoned, n_workers=1, checkpoint_dir=tmp_path / "ck")
        result = executor.run()  # would raise if any unit re-ran
        assert executor.units_resumed == 5
        assert canonical_result_bytes(result) == \
            canonical_result_bytes(make_e14().run())

    def test_checkpoint_rejects_a_different_campaign(self, tmp_path):
        ProcessPoolCampaignExecutor(
            make_e14(), n_workers=1, checkpoint_dir=tmp_path / "ck").run()
        with pytest.raises(WorkloadError):
            ProcessPoolCampaignExecutor(
                make_e14(seed=99), n_workers=1,
                checkpoint_dir=tmp_path / "ck").run()

    def test_frontier_sweep_resumes_per_point(self, tmp_path):
        kwargs = dict(clients=1000, epochs=6, replicas=3, seed=3,
                      targets=(0.90, 0.95))
        baseline = canonical_result_bytes(run_churn_slo_frontier(**kwargs))
        interrupted = canonical_result_bytes(run_churn_slo_frontier(
            **kwargs, n_workers=1, checkpoint_dir=tmp_path / "frontier"))
        # second pass is resume-only and must agree
        resumed = canonical_result_bytes(run_churn_slo_frontier(
            **kwargs, n_workers=1, checkpoint_dir=tmp_path / "frontier"))
        assert interrupted == baseline
        assert resumed == baseline
        assert (tmp_path / "frontier" / "target-0.9" / "header.json").exists()


class TestFailureHandling:
    def test_crashing_unit_surfaces_and_does_not_hang(self, tmp_path):
        runner = CrashingRunner(
            clients=1500, nominal_sites=4, max_sites=6,
            epochs=10, replicas=5, seed=7)
        executor = ProcessPoolCampaignExecutor(
            runner, n_workers=2, checkpoint_dir=tmp_path / "ck")
        with pytest.raises(WorkloadError, match="synthetic unit failure"):
            executor.run()
        table = RunTable.open(tmp_path / "ck", run_id=runner.run_id,
                              total_units=5)
        assert CrashingRunner.CRASH_REPLICA in table.failed_units()

    def test_serial_crash_is_equally_surfaced(self, tmp_path):
        runner = CrashingRunner(
            clients=1500, nominal_sites=4, max_sites=6,
            epochs=10, replicas=5, seed=7)
        executor = ProcessPoolCampaignExecutor(
            runner, n_workers=1, checkpoint_dir=tmp_path / "ck")
        with pytest.raises(WorkloadError, match="synthetic unit failure"):
            executor.run()
        table = RunTable.open(tmp_path / "ck", run_id=runner.run_id,
                              total_units=5)
        assert table.failed_units()
        assert table.completed_outcomes()  # units before the crash persisted
        # plain run() is the same engine: same error, same counter
        plain = CrashingRunner(
            clients=1500, nominal_sites=4, max_sites=6,
            epochs=10, replicas=5, seed=7)
        with pytest.raises(WorkloadError, match="'replica 2' failed: "
                                                "synthetic unit failure") as caught:
            plain.run()
        assert isinstance(caught.value.__cause__, RuntimeError)
        assert plain.telemetry.counter_value("parallel.units_failed") == 1
        assert runner.telemetry.counter_value("parallel.units_failed") == 1
        with pytest.raises(KeyboardInterrupt):
            InterruptingRunner(
                clients=1500, nominal_sites=4, max_sites=6,
                epochs=10, replicas=5, seed=7).run()


def _simulation(value):
    """``value`` with the wall-clock fields dropped, arrays as lists."""
    return json.loads(canonical_result_bytes(value))


class TestWorkerInputs:
    """A unit's inputs are the prepared runner, serial and pooled alike."""

    @pytest.mark.parametrize("factory", [make_e14, make_e15, make_e16],
                             ids=["E14", "E15", "E16"])
    def test_replica_reads_nothing_per_client(self, factory, monkeypatch):
        """Pins ``prepare()`` as the only O(n_clients) code of a campaign:
        after it, the population's per-client arrays are off limits."""
        runner, twin = factory(), factory()
        runner.prepare()
        population = runner.shared_population()

        def off_limits():
            raise AssertionError("a replica went back to the sorted population")

        monkeypatch.setattr(population, "ring_sorted", off_limits)
        for name in ("ring_positions", "class_index", "region_index", "_ring_sorted"):
            monkeypatch.setattr(population, name, None)
        unit = runner.unit_specs()[0]
        assert _simulation(runner.run_unit(unit)) == _simulation(twin.run_unit(unit))

    def test_pool_never_touches_shared_memory(self, monkeypatch):
        """No exit path — success, unit failure, interrupt — creates a segment."""
        def no_shm(*args, **kwargs):
            raise AssertionError("the engine created a shared-memory segment")

        monkeypatch.setattr(shared_memory, "SharedMemory", no_shm)
        shape = dict(clients=1500, nominal_sites=4, max_sites=6,
                     epochs=10, replicas=5, seed=7)
        assert canonical_result_bytes(make_e14().run_parallel(n_workers=2)) == \
            canonical_result_bytes(make_e14().run())
        with pytest.raises(WorkloadError, match="synthetic unit failure"):
            ProcessPoolCampaignExecutor(CrashingRunner(**shape), n_workers=2).run()
        with pytest.raises(KeyboardInterrupt):
            ProcessPoolCampaignExecutor(InterruptingRunner(**shape), n_workers=2).run()

    def test_spawned_pool_matches_serial(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        pooled = canonical_result_bytes(make_e14().run_parallel(n_workers=2))
        assert pooled == canonical_result_bytes(make_e14().run())

    def test_prepared_runner_pickles_with_its_template(self, monkeypatch):
        from repro.scale.scenario import ProblemTemplate

        runner = make_e14()
        runner.prepare()
        clone = pickle.loads(pickle.dumps(runner))
        expected = runner.run_unit(runner.unit_specs()[0])

        def no_build(*args, **kwargs):
            raise AssertionError("the template did not travel with the runner")

        monkeypatch.setattr(ProblemTemplate, "build", no_build)
        assert _simulation(clone.run_unit(clone.unit_specs()[0])) == \
            _simulation(expected)


class TestSharedMemoryLifecycle:
    """The engine does not use the pack; the benchmark suite still probes it."""

    def test_pack_attach_roundtrips_population(self):
        population = ClientPopulation(4000, seed=13)
        pack = SharedPopulationPack.create(population)
        try:
            view, segments = SharedPopulationPack.attach(pack.manifest)
            assert view.n_clients == population.n_clients
            np.testing.assert_array_equal(view.class_index,
                                          population.class_index)
            np.testing.assert_array_equal(view.ring_positions,
                                          population.ring_positions)
            for left, right in zip(view.ring_sorted(),
                                   population.ring_sorted()):
                np.testing.assert_array_equal(left, right)
            for segment in segments:
                segment.close()
            assert pack.nbytes > 0
        finally:
            pack.close()
            pack.unlink()

"""PlacementService semantics, snapshot/restore, and the serve protocol.

The service contract: a monotonic clock, scheduled departures firing
before same-instant arrivals (the :mod:`repro.core.events` tie-break),
open-ended items departing only explicitly, exact Eq. 1 cost accrual,
and a snapshot/restore round trip that yields *identical future
decisions* — including the ``random_fit`` RNG stream position.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, InvalidItemError
from repro.observability.stats import StatsCollector
from repro.simulation.runner import run
from repro.streaming import OPEN_ENDED, PlacementService, serve_loop
from repro.workloads.uniform import UniformWorkload

SNAPSHOT_POLICIES = ["move_to_front", "first_fit", "next_fit",
                     "random_fit", "harmonic_fit"]


def assert_rejected(svc, error, call, *args, **kwargs):
    """``call`` must raise ``error`` and leave ``svc.snapshot()`` as it was."""
    before = json.dumps(svc.snapshot(), sort_keys=True)
    with pytest.raises(error):
        call(*args, **kwargs)
    assert json.dumps(svc.snapshot(), sort_keys=True) == before


class TestServiceSemantics:
    def test_place_depart_lifecycle(self):
        svc = PlacementService(policy="first_fit", capacity=10.0, d=2)
        b0 = svc.place([6.0, 6.0], duration=4.0)        # departs at 4
        b1 = svc.place([6.0, 6.0], at=1.0)              # open-ended, new bin
        assert b0 == 0 and b1 == 1
        assert svc.live_items == 2 and svc.open_bins == 2
        fired = svc.advance(10.0)
        assert fired == 1                                # the scheduled one
        assert svc.live_items == 1 and svc.open_bins == 1
        assert svc.depart(1) is True                     # closes bin 1
        assert svc.live_items == 0 and svc.open_bins == 0
        # cost: bin 0 open [0, 4), bin 1 open [1, 10)
        assert svc.cost == pytest.approx((4.0 - 0.0) + (10.0 - 1.0))

    def test_clock_is_monotonic(self):
        svc = PlacementService(capacity=10.0)
        svc.place(1.0, at=5.0)
        assert_rejected(svc, ConfigurationError, svc.place, 1.0, at=4.0)
        assert_rejected(svc, ConfigurationError, svc.advance, 4.0)
        assert_rejected(svc, ConfigurationError, svc.depart, 0, at=4.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_are_rejected(self, bad):
        # nan < now is False, so a bare monotonic check would let NaN in
        # and poison the clock, the cost and every later comparison
        svc = PlacementService(capacity=10.0)
        svc.place(1.0, duration=5.0, at=1.0)
        assert_rejected(svc, ConfigurationError, svc.advance, bad)
        assert_rejected(svc, ConfigurationError, svc.place, 1.0, at=bad)
        assert_rejected(svc, ConfigurationError, svc.depart, 0, at=bad)
        assert_rejected(svc, ConfigurationError, svc.place, 1.0, duration=bad)
        assert_rejected(svc, ConfigurationError, svc.place, 1.0, departure=bad)
        svc.advance(2.0)  # a later valid time is still judged against now
        assert svc.now == 2.0

    def test_rejected_place_does_not_advance_the_clock(self):
        svc = PlacementService(capacity=[100.0, 100.0])
        svc.place([10.0, 10.0], duration=5.0, at=0.0)
        assert_rejected(svc, InvalidItemError, svc.place, [500.0, 1.0],
                        at=7.0, item_id=9)
        assert svc.now == 0.0 and svc.live_items == 1
        assert svc.snapshot()["next_uid"] == 1

    def test_depart_after_scheduled_departure_is_rejected(self):
        svc = PlacementService(capacity=10.0)
        svc.place(1.0, duration=5.0)
        svc.place(1.0, duration=9.0)
        # item 0 leaves on schedule at 5, so departing it at 5 or later
        # must neither succeed nor fire the departure as a side effect
        assert_rejected(svc, ConfigurationError, svc.depart, 0, at=5.0)
        assert_rejected(svc, ConfigurationError, svc.depart, 0, at=6.0)
        assert svc.live_items == 2 and svc.now == 0.0
        assert svc.depart(1, at=6.0) is True  # fires item 0 first
        assert svc.stats().departures == 2

    def test_reusing_an_id_that_departs_by_then_is_accepted(self):
        svc = PlacementService(capacity=10.0)
        svc.place(4.0, duration=2.0, item_id=3)
        assert_rejected(svc, ConfigurationError, svc.place, 4.0, at=1.0,
                        item_id=3)
        assert svc.place(4.0, at=2.0, item_id=3) == 1
        assert svc.live_items == 1

    def test_departure_fires_before_same_instant_arrival(self):
        # item 0 fills the bin and departs at t=2; the t=2 arrival must
        # see the bin already vacated (departures-first tie-break) —
        # first_fit then reuses nothing because the bin closed
        svc = PlacementService(policy="first_fit", capacity=10.0)
        svc.place(10.0, duration=2.0)
        b = svc.place(10.0, at=2.0)
        assert b == 1  # bin 0 closed the instant before
        assert svc.open_bins == 1
        assert svc.stats().bins_closed == 1

    def test_explicit_depart_then_scheduled_time_is_stale(self):
        svc = PlacementService(capacity=10.0)
        svc.place(5.0, duration=8.0, item_id=42)
        svc.depart(42, at=3.0)                 # explicit, early
        assert svc.live_items == 0
        fired = svc.advance(20.0)              # stale heap entry skipped
        assert fired == 0
        assert svc.stats().departures == 1

    def test_depart_unknown_item_raises(self):
        svc = PlacementService(capacity=10.0)
        svc.place(1.0, duration=2.0)
        assert_rejected(svc, ConfigurationError, svc.depart, 7)
        # the clock does not move towards a rejected depart's time
        assert_rejected(svc, ConfigurationError, svc.depart, 7, at=3.0)
        assert svc.now == 0.0 and svc.live_items == 1

    def test_duplicate_live_item_id_raises(self):
        svc = PlacementService(capacity=10.0)
        svc.place(1.0, item_id=3)
        assert_rejected(svc, ConfigurationError, svc.place, 1.0, item_id=3)
        assert_rejected(svc, ConfigurationError, svc.place, 1.0, at=2.0,
                        item_id=3)

    @pytest.mark.parametrize(
        "bad",
        [1.5, 1.0, True, "1", np.float64(1.0), np.bool_(True), [1]],
        ids=["float", "integral-float", "bool", "str", "numpy-float",
             "numpy-bool", "list"],
    )
    def test_non_integer_item_ids_are_rejected(self, bad):
        # int() would truncate 1.5 to 1 and read True or "1" as id 1:
        # both place and depart must refuse the id by name instead
        svc = PlacementService(capacity=10.0)
        svc.place(1.0, item_id=1, duration=5.0)
        before = json.dumps(svc.snapshot(), sort_keys=True)
        with pytest.raises(ConfigurationError, match="item_id"):
            svc.place(1.0, at=1.0, item_id=bad)
        with pytest.raises(ConfigurationError, match="item_id"):
            svc.depart(bad, at=1.0)
        assert json.dumps(svc.snapshot(), sort_keys=True) == before

    def test_numpy_integer_item_ids_are_accepted(self):
        svc = PlacementService(capacity=10.0)
        svc.place(1.0, item_id=np.int64(4))
        assert svc.snapshot()["next_uid"] == 5
        assert svc.depart(np.int32(4)) is True

    def test_oversized_item_raises(self):
        svc = PlacementService(capacity=[4.0, 4.0])
        svc.place([1.0, 1.0], duration=1.0)
        assert_rejected(svc, InvalidItemError, svc.place, [5.0, 1.0], at=2.0)
        # wrong dimensionality
        assert_rejected(svc, InvalidItemError, svc.place, [1.0, 1.0, 1.0])
        assert_rejected(svc, InvalidItemError, svc.place, [1.0, float("nan")])
        assert_rejected(svc, InvalidItemError, svc.place, [-1.0, 1.0])

    def test_duration_and_departure_are_exclusive(self):
        svc = PlacementService(capacity=10.0)
        assert_rejected(svc, ConfigurationError, svc.place, 1.0,
                        duration=2.0, departure=5.0)
        assert_rejected(svc, ConfigurationError, svc.place, 1.0, duration=0.0)
        assert_rejected(svc, ConfigurationError, svc.place, 1.0, at=3.0,
                        departure=3.0)

    def test_open_ended_sentinel_never_reaches_cost(self):
        svc = PlacementService(capacity=10.0)
        svc.place(1.0)                                   # open-ended at t=0
        svc.advance(7.0)
        assert svc.cost == pytest.approx(7.0)
        assert svc.cost < OPEN_ENDED / 2                 # sanity: finite, small

    def test_matches_batch_engine_on_replayed_instance(self):
        # replaying a materialised instance call by call must accrue the
        # classic engine's exact Eq. 1 cost
        inst = UniformWorkload(d=2, n=120, mu=10).sample_seeded(6)
        classic = run("first_fit", inst)
        svc = PlacementService(policy="first_fit", capacity=inst.capacity)
        assignment = {}
        for item in inst.items:
            assignment[item.uid] = svc.place(
                item.size, departure=item.departure, at=item.arrival,
                item_id=item.uid,
            )
        svc.advance(max(i.departure for i in inst.items))
        assert assignment == dict(classic.assignment)
        assert svc.cost == pytest.approx(classic.cost, abs=1e-9)
        assert svc.live_items == 0 and svc.open_bins == 0

    def test_next_fit_service_keeps_no_release_audit(self):
        # a service lives indefinitely, so next_fit's O(bins-opened)
        # Theorem 4 bookkeeping must stay switched off for its lifetime
        svc = PlacementService(policy="next_fit", capacity=4.0)
        for k in range(50):
            svc.place(3.0, at=float(k), duration=2.0)  # every item: new bin
        assert svc.stats().bins_opened == 50
        assert svc._algorithm.release_log == []
        assert svc._algorithm.release_times == {}

    def test_collector_integration(self):
        col = StatsCollector()
        svc = PlacementService(capacity=10.0, collector=col)
        svc.place(5.0, duration=1.0)
        svc.place(6.0, duration=2.0)
        svc.advance(5.0)
        stats = col.snapshot()
        assert stats.arrivals == 2 and stats.departures == 2
        assert stats.bins_opened == 2
        assert stats.peak_live_items == 2
        assert svc.stats().events == 4


class TestSnapshotRestore:
    def _drive(self, svc, seed):
        """A deterministic mixed workload of places/departs/advances."""
        rng = np.random.default_rng(seed)
        decisions = []
        for k in range(60):
            # advance first, so the pool of live items is settled before
            # the next action is drawn (a pre-drawn uid could otherwise
            # depart on schedule during the advance)
            fired = svc.advance(svc.now + float(rng.uniform(0.0, 0.5)))
            decisions.append(("advance", fired))
            if svc.live_items and rng.random() < 0.25:
                live = sorted(svc._items)
                uid = int(live[int(rng.integers(len(live)))])
                closed = svc.depart(uid)
                decisions.append(("depart", uid, closed))
            else:
                size = rng.integers(1, 40, size=2).astype(float)
                dur = float(rng.uniform(0.5, 4.0)) if rng.random() < 0.8 else None
                bin_ = svc.place(size, duration=dur)
                decisions.append(("place", bin_))
        return decisions

    @pytest.mark.parametrize("policy", SNAPSHOT_POLICIES)
    def test_restore_mid_stream_is_bit_identical(self, policy):
        a = PlacementService(policy=policy, capacity=100.0, d=2, seed=7)
        self._drive(a, seed=1)
        # force a full JSON round trip, as a file on disk would
        state = json.loads(json.dumps(a.snapshot()))
        b = PlacementService.restore(state)
        assert b.snapshot() == a.snapshot()
        assert b.cost == a.cost and b.now == a.now
        # identical *future* decisions, including RNG position
        da = self._drive(a, seed=2)
        db = self._drive(b, seed=2)
        assert da == db
        assert a.snapshot() == b.snapshot()
        assert a.cost == b.cost

    def test_restore_rejects_wrong_schema(self):
        with pytest.raises(ConfigurationError):
            PlacementService.restore({"schema": "bogus/v9"})

    def test_snapshot_file_round_trip_and_checksum(self, tmp_path):
        svc = PlacementService(policy="move_to_front", capacity=50.0, d=1)
        svc.place(10.0, duration=5.0)
        svc.place(20.0, at=1.0)
        path = str(tmp_path / "svc.json")
        assert svc.snapshot_to(path) == path
        back = PlacementService.restore_from(path)
        assert back.snapshot() == svc.snapshot()
        # tampering must be detected
        doc = json.loads(Path(path).read_text())
        doc["state"]["cost_closed"] = 999.0
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ConfigurationError):
            PlacementService.restore_from(path)


class TestServeLoop:
    def test_protocol_round_trip(self, tmp_path):
        svc = PlacementService(policy="first_fit", capacity=10.0, d=2)
        out = []
        snap = str(tmp_path / "snap.json")
        reqs = [
            '{"op": "place", "size": [3, 4], "duration": 5}',
            '',  # blank lines are skipped
            '{"op": "place", "size": [9, 9], "at": 1.0, "item_id": 77}',
            '{"op": "advance", "to": 10}',
            '{"op": "depart", "item_id": 77}',
            '{"op": "stats"}',
            json.dumps({"op": "snapshot", "path": snap}),
            '{"op": "quit"}',
        ]
        handled = serve_loop(svc, reqs, out.append)
        assert handled == 7
        resp = [json.loads(line) for line in out]
        assert resp[0] == {"ok": True, "bin": 0, "item_id": 0, "now": 0.0}
        assert resp[1]["bin"] == 1 and resp[1]["item_id"] == 77
        assert resp[2] == {"ok": True, "departed": 1, "now": 10.0}
        assert resp[3] == {"ok": True, "closed": True, "now": 10.0}
        assert resp[4]["ok"] and resp[4]["stats"]["arrivals"] == 2
        assert resp[5] == {"ok": True, "path": snap}
        assert resp[6] == {"ok": True, "bye": True}
        restored = PlacementService.restore_from(snap)
        assert restored.now == 10.0

    def test_errors_do_not_kill_the_loop(self):
        svc = PlacementService(capacity=10.0)
        out = []
        reqs = [
            'garbage',
            '{"op": "warp"}',
            '{"op": "place", "size": 99}',       # oversized
            '{"op": "place"}',                   # missing size
            '{"op": "place", "size": 1.0}',      # still fine afterwards
        ]
        assert serve_loop(svc, reqs, out.append) == 5
        resp = [json.loads(line) for line in out]
        assert [r["ok"] for r in resp] == [False, False, False, False, True]

    def test_rejected_lines_leave_state_unchanged(self):
        svc = PlacementService(capacity=10.0)
        serve_loop(svc, ['{"op": "place", "size": 1.0, "duration": 4}'],
                   lambda line: None)
        before = json.dumps(svc.snapshot(), sort_keys=True)
        out = []
        reqs = [
            '{"op": "advance", "to": NaN}',
            '{"op": "place", "size": 99, "at": 3}',
            '{"op": "place", "size": 1.0, "at": Infinity}',
            '{"op": "depart", "item_id": 5, "at": 3}',
            '{"op": "depart", "item_id": 0, "at": 4}',
        ]
        serve_loop(svc, reqs, out.append)
        resp = [json.loads(line) for line in out]
        assert [r["ok"] for r in resp] == [False] * len(reqs)
        assert json.dumps(svc.snapshot(), sort_keys=True) == before


    @pytest.mark.parametrize(
        "line",
        ["[1, 2]", '"x"', "42", "null", "[" * 200_000],
        ids=["array", "string", "number", "null", "deeply-nested"],
    )
    def test_non_object_lines_do_not_kill_the_loop(self, line):
        svc = PlacementService(capacity=10.0)
        serve_loop(svc, ['{"op": "place", "size": 1.0, "duration": 4}'],
                   lambda line: None)
        before = json.dumps(svc.snapshot(), sort_keys=True)
        out = []
        assert serve_loop(svc, [line, '{"op": "stats"}'], out.append) == 2
        resp = [json.loads(l) for l in out]
        assert resp[0]["ok"] is False
        assert "ConfigurationError" in resp[0]["error"]
        assert resp[1]["ok"] is True and resp[1]["live_items"] == 1
        assert json.dumps(svc.snapshot(), sort_keys=True) == before

    def test_non_integer_item_id_lines_are_rejected(self):
        svc = PlacementService(capacity=10.0)
        serve_loop(svc, ['{"op": "place", "size": 1.0, "item_id": 1}'],
                   lambda line: None)
        before = json.dumps(svc.snapshot(), sort_keys=True)
        out = []
        reqs = [
            '{"op": "place", "size": 1.0, "item_id": 1.7}',
            '{"op": "place", "size": 1.0, "item_id": true}',
            '{"op": "place", "size": 1.0, "item_id": "7"}',
            '{"op": "depart", "item_id": 1.0}',
            '{"op": "depart", "item_id": true}',
        ]
        serve_loop(svc, reqs, out.append)
        resp = [json.loads(l) for l in out]
        assert [r["ok"] for r in resp] == [False] * len(reqs)
        assert all("item_id" in r["error"] for r in resp)
        assert json.dumps(svc.snapshot(), sort_keys=True) == before


class TestServeCLI:
    def test_serve_command_end_to_end(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        snap = str(tmp_path / "exit.json")
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"op": "place", "size": [2.0, 2.0], "duration": 3}\n'
            '{"op": "stats"}\n'
        ))
        rc = main(["serve", "--policy", "first_fit", "--capacity", "8",
                   "--d", "2", "--snapshot-on-exit", snap])
        assert rc == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[0]["ok"] and lines[0]["bin"] == 0
        assert lines[1]["stats"]["arrivals"] == 1
        # the exit snapshot restores into a live service
        restored = PlacementService.restore_from(snap)
        assert restored.live_items == 1

        # and --restore picks it straight back up
        monkeypatch.setattr("sys.stdin", io.StringIO('{"op": "stats"}\n'))
        rc = main(["serve", "--restore", snap])
        assert rc == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[0] == {"ok": True, "restored": snap}
        assert lines[1]["live_items"] == 1

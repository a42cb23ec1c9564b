"""PlacementService semantics, snapshot/restore, and the serve protocol.

The service contract: a monotonic clock, scheduled departures firing
before same-instant arrivals (the :mod:`repro.core.events` tie-break),
open-ended items departing only explicitly, exact Eq. 1 cost accrual,
and a snapshot/restore round trip that yields *identical future
decisions* — including the ``random_fit`` RNG stream position.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path
from typing import Tuple

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.algorithms.registry import make_algorithm
from repro.core.errors import ConfigurationError, DVBPError, InvalidItemError
from repro.core.instance import Instance
from repro.core.items import Item
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

    def test_stats_op_reports_the_scans_of_a_classic_run(self):
        # stats() reads the one collector the service counts into, so the
        # candidate scans and fit checks its policy made show up there
        inst = UniformWorkload(d=2, n=80, mu=10).sample_seeded(3)
        col = StatsCollector()
        run("first_fit", inst, collector=col)
        classic = col.snapshot()
        reqs = [
            json.dumps({
                "op": "place", "size": [float(x) for x in it.size],
                "at": it.arrival, "departure": it.departure, "item_id": it.uid,
            })
            for it in inst.items
        ]
        reqs.append(json.dumps(
            {"op": "advance", "to": max(it.departure for it in inst.items)}
        ))
        reqs.append('{"op": "stats"}')
        out = []
        svc = PlacementService(policy="first_fit", capacity=inst.capacity)
        serve_loop(svc, reqs, out.append)
        stats = json.loads(out[-1])["stats"]
        assert stats["candidate_scans"] == classic.candidate_scans > 0
        assert stats["fit_checks"] == classic.fit_checks
        assert stats["dispatch_time_s"] > 0.0
        for field in ("arrivals", "departures", "bins_opened", "bins_closed",
                      "peak_open_bins"):
            assert stats[field] == getattr(classic, field), field


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
                live = sorted(svc._core.live)
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

    def test_snapshot_keeps_a_departed_members_latest_departure(self):
        svc = PlacementService(policy="first_fit", capacity=10.0)
        svc.place(3.0, duration=9.0)          # uid 0, bin 0, due at 9
        svc.place(3.0, duration=2.0, at=1.0)  # uid 1, bin 0, due at 3
        svc.depart(0, at=2.0)                 # the late member leaves early
        state = json.loads(json.dumps(svc.snapshot()))
        (rec,) = state["bins"]
        assert [it["uid"] for it in rec["items"]] == [1]
        assert rec["latest_departure"] == 9.0  # history-max, not residents'
        back = PlacementService.restore(state)
        assert back.snapshot() == svc.snapshot()
        assert back.cost == svc.cost

    def test_restore_rejects_wrong_schema(self):
        with pytest.raises(ConfigurationError):
            PlacementService.restore({"schema": "bogus/v9"})

    @staticmethod
    def _two_bin_state():
        svc = PlacementService(policy="first_fit", capacity=10.0)
        svc.place(6.0, duration=5.0)           # bin 0
        svc.place(6.0, duration=5.0, at=1.0)   # bin 1
        svc.place(3.0, at=2.0)                 # bin 0, open-ended
        return json.loads(json.dumps(svc.snapshot()))

    def test_restore_rejects_an_item_in_two_bins(self):
        state = self._two_bin_state()
        state["bins"][1]["items"].append(state["bins"][0]["items"][1])
        with pytest.raises(ConfigurationError, match="'bins'.*item 2"):
            PlacementService.restore(state)

    def test_restore_rejects_next_uid_at_a_live_uid(self):
        state = self._two_bin_state()
        state["next_uid"] = 2
        with pytest.raises(ConfigurationError, match="next_uid"):
            PlacementService.restore(state)

    def test_restore_rejects_next_bin_index_at_an_open_bin(self):
        state = self._two_bin_state()
        state["next_bin_index"] = 1
        with pytest.raises(ConfigurationError, match="next_bin_index"):
            PlacementService.restore(state)

    @pytest.mark.parametrize("corrupt", ["duplicate-bin", "empty-bin"])
    def test_restore_rejects_malformed_bin_lists(self, corrupt):
        state = self._two_bin_state()
        if corrupt == "duplicate-bin":
            state["bins"][1]["index"] = 0
        else:
            state["bins"][1]["items"] = []
        with pytest.raises(ConfigurationError, match="'bins'"):
            PlacementService.restore(state)

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


def _signed(state) -> str:
    """A snapshot file body around ``state`` with a matching checksum."""
    body = json.dumps(state, sort_keys=True)
    return json.dumps({"sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
                       "state": state})


def _bad_snapshot(case: str) -> Tuple[str, str]:
    """``(file text, message pattern)`` of one unusable snapshot file."""
    svc = PlacementService(policy="move_to_front", capacity=10.0)
    for at in (0.0, 1.0, 2.0):
        svc.place(3.0, duration=5.0, at=at)
    state = json.loads(json.dumps(svc.snapshot()))
    if case == "truncated":
        text = _signed(state)
        return text[: len(text) // 2], "JSONDecodeError"
    if case == "empty":
        return "", "JSONDecodeError"
    if case == "not-an-object":
        return "[1, 2]", "'sha256' and 'state'"
    if case == "no-sha256":
        return json.dumps({"state": state}), "'sha256' and 'state'"
    if case == "no-pending":
        del state["pending"]
        return _signed(state), "field 'pending' is missing"
    if case == "foreign-policy":
        state["policy"] = "random_fit"
        return _signed(state), "field 'algorithm' does not fit policy 'random_fit'"
    assert case == "dimension-mismatch"
    state["capacity"] = [10.0, 10.0]
    return _signed(state), "'bins' holds item 0 of dimension 1, but 'capacity' has 2"


@pytest.mark.parametrize("case", [
    "truncated", "empty", "not-an-object", "no-sha256", "no-pending",
    "foreign-policy", "dimension-mismatch",
])
def test_a_bad_snapshot_file_is_rejected_by_name(case, tmp_path, monkeypatch, capsys):
    from repro.cli import main

    text, pattern = _bad_snapshot(case)
    path = tmp_path / "snap.json"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=pattern) as info:
        PlacementService.restore_from(str(path))
    if case in ("truncated", "empty", "not-an-object", "no-sha256"):
        assert str(path) in str(info.value)
    monkeypatch.setattr("sys.stdin", io.StringIO('{"op": "stats"}\n'))
    assert main(["serve", "--restore", str(path)]) == 2
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines == [{"ok": False, "error": str(info.value)}]


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


# ----------------------------------------------------------------------
# stateful differential test of the service boundary
# ----------------------------------------------------------------------
MACHINE_POLICIES = ["first_fit", "best_fit", "move_to_front", "next_fit",
                    "random_fit"]
MACHINE_CAPACITY = 10.0
sizes = st.lists(st.integers(1, 7).map(float), min_size=2, max_size=2)
gaps = st.sampled_from([0.0, 0.5, 1.0, 2.5])


class ServiceMachine(RuleBasedStateMachine):
    """Random place/depart/advance/snapshot-restore sequences, with
    malformed requests mixed in, against one :class:`PlacementService`
    (the regression test for the service's move onto the live core).

    The machine models only the clock and which items are live, so it
    knows the exact order in which the service applies departures
    (scheduled ones fire in ``(time, uid)`` order before the request
    that moved the clock past them).  Every rejected request must leave
    ``snapshot()`` byte-identical.  At teardown every item is departed
    and the bins the service returned, and the closed flags of its
    explicit departs, are compared with a classic ``run`` of the
    accepted items.
    """

    @initialize(policy=st.sampled_from(MACHINE_POLICIES))
    def start(self, policy):
        self.policy = policy
        self.svc = PlacementService(policy=policy, capacity=MACHINE_CAPACITY, d=2)
        self.now = 0.0
        self.next_uid = 0
        self.live = {}       # uid -> scheduled departure (None: open-ended)
        self.items = {}      # uid -> [arrival, departure, size]
        self.log = []        # ("place" | "depart", uid) in service order
        self.bins = {}       # uid -> bin index the service returned
        self.closed = {}     # log position of an explicit depart -> flag

    # -- model ---------------------------------------------------------
    def _advance(self, at):
        due = sorted((t, uid) for uid, t in self.live.items()
                     if t is not None and t <= at)
        for t, uid in due:
            self._departed(uid, t)
        self.now = at

    def _departed(self, uid, t):
        del self.live[uid]
        self.items[uid][1] = t
        self.log.append(("depart", uid))

    def _snapshot_bytes(self):
        return json.dumps(self.svc.snapshot(), sort_keys=True)

    def _rejected(self, call, *args, **kwargs):
        before = self._snapshot_bytes()
        with pytest.raises(DVBPError):
            call(*args, **kwargs)
        assert self._snapshot_bytes() == before

    # -- accepted requests ---------------------------------------------
    @rule(size=sizes, gap=gaps, explicit_id=st.booleans(),
          duration=st.sampled_from([None, 0.5, 1.0, 3.0, 7.5]))
    def place(self, size, gap, explicit_id, duration):
        at = self.now + gap
        uid = self.next_uid + (3 if explicit_id else 0)
        got = self.svc.place(size, duration=duration, at=at,
                             item_id=uid if explicit_id else None)
        self._advance(at)
        self.next_uid = uid + 1
        self.live[uid] = None if duration is None else at + duration
        self.items[uid] = [at, None, size]
        self.log.append(("place", uid))
        self.bins[uid] = got

    @precondition(lambda self: self.live)
    @rule(data=st.data(), gap=st.sampled_from([0.5, 1.0, 2.0]))
    def depart(self, data, gap):
        # strictly after the clock, so no arrival shares the instant
        at = self.now + gap
        departable = sorted(uid for uid, t in self.live.items()
                            if t is None or t > at)
        if not departable:
            return
        uid = data.draw(st.sampled_from(departable))
        closed = self.svc.depart(uid, at=at)
        self._advance(at)
        self._departed(uid, at)
        self.closed[len(self.log) - 1] = closed

    @rule(gap=st.sampled_from([0.5, 1.0, 4.0]))
    def advance(self, gap):
        fired = self.svc.advance(self.now + gap)
        before = len(self.log)
        self._advance(self.now + gap)
        assert fired == len(self.log) - before

    @rule()
    def snapshot_then_restore(self):
        state = json.loads(self._snapshot_bytes())
        self.svc = PlacementService.restore(state)
        assert json.loads(self._snapshot_bytes()) == state

    # -- rejected requests ---------------------------------------------
    @rule(kind=st.sampled_from(["nan", "inf", "negative", "oversize",
                                "backwards", "duplicate", "unknown"]),
          gap=gaps, data=st.data())
    def malformed(self, kind, gap, data):
        # at a later time where the request allows one, so a service that
        # moved its clock (firing departures) before validating shows up
        at = self.now + gap
        bad_size = {"nan": float("nan"), "inf": float("inf"),
                    "negative": -1.0, "oversize": MACHINE_CAPACITY + 1.0}
        if kind in bad_size:
            self._rejected(self.svc.place, [1.0, bad_size[kind]], at=at)
        elif kind == "backwards":
            back = self.now - 1.0
            self._rejected(self.svc.place, [1.0, 1.0], at=back)
            self._rejected(self.svc.advance, back)
            self._rejected(self.svc.depart, self.next_uid, at=back)
        elif kind == "duplicate":
            still_live = sorted(uid for uid, t in self.live.items()
                                if t is None or t > at)
            if still_live:
                uid = data.draw(st.sampled_from(still_live))
                self._rejected(self.svc.place, [1.0, 1.0], at=at, item_id=uid)
        else:
            self._rejected(self.svc.depart, self.next_uid + 100, at=at)

    # -- the differential check ----------------------------------------
    def teardown(self):
        if not getattr(self, "items", None):
            return
        end = self.now + 100.0
        self.svc.advance(end)
        self._advance(end)
        for uid in sorted(self.live):
            self.closed[len(self.log)] = self.svc.depart(uid, at=end)
            self._departed(uid, end)
        assert self.svc.live_items == 0 and self.svc.open_bins == 0
        order = [uid for kind, uid in self.log if kind == "place"]
        instance = Instance(
            [Item(self.items[u][0], self.items[u][1], np.asarray(self.items[u][2]),
                  uid=u) for u in order],
            capacity=[MACHINE_CAPACITY] * 2,
        )
        kwargs = {"seed": 0} if self.policy == "random_fit" else {}
        classic = run(make_algorithm(self.policy, **kwargs), instance)
        assert self.bins == dict(classic.assignment)
        residents = {}
        for pos, (kind, uid) in enumerate(self.log):
            b = classic.assignment[uid]
            residents[b] = residents.get(b, 0) + (1 if kind == "place" else -1)
            if pos in self.closed:
                assert self.closed[pos] == (residents[b] == 0), (pos, uid)


def test_service_state_machine():
    run_state_machine_as_test(
        ServiceMachine, settings=settings(stateful_step_count=20)
    )


@pytest.mark.fuzz
def test_service_state_machine_deep():
    run_state_machine_as_test(
        ServiceMachine,
        settings=settings(max_examples=300, stateful_step_count=60),
    )

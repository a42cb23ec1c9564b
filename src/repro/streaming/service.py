"""A long-lived placement service wrapping the streaming machinery.

:class:`PlacementService` turns the packer from a batch experiment into
an online server: callers ``place`` items and ``depart`` them one call
at a time, against a monotonic service clock, with no instance and no
pre-declared horizon.  State is exactly the streaming engine's live
state — open :class:`~repro.streaming.engine.StreamBin` objects, the
live item → bin map, a scheduled-departure heap — plus the dispatch
policy's own exported state, so the whole service can be snapshotted to
a JSON document and restored bit-identically (same future decisions,
same costs), persisted through the same crash-safe
:func:`~repro.orchestration.checkpoint.atomic_write` primitive the
checkpoint store uses.

Semantics
---------
* The clock never runs backwards: every ``at`` must be finite and
  ``>= now``.
* A request is validated in full before it changes anything, so a
  rejected request leaves the service (and its :meth:`snapshot`)
  unchanged.
* Scheduled departures (items placed with a ``duration`` or an explicit
  ``departure``) fire automatically as the clock advances, *before* any
  arrival at the same instant — the departures-first tie-break of
  :mod:`repro.core.events`.
* Items placed with neither a duration nor a departure are
  **open-ended**: they stay resident until an explicit :meth:`depart`.
  Internally they carry the finite sentinel :data:`OPEN_ENDED`
  (``sys.float_info.max``) so the core item validation stays intact;
  the sentinel never reaches any cost term because cost accrues from
  observed clock times only.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import sys
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..algorithms.base import OnlineAlgorithm
from ..algorithms.registry import make_algorithm
from ..core.errors import ConfigurationError, DVBPError, InvalidItemError
from ..core.items import Item
from ..observability.stats import RunStats, StatsCollector
from ..orchestration.checkpoint import atomic_write
from .engine import StreamBin, _CapacityContext

__all__ = ["OPEN_ENDED", "PlacementService"]

#: Sentinel departure time of an item with no scheduled departure.
#: Finite (``Item`` validation requires it), astronomically far, and
#: excluded from every cost computation by construction.
OPEN_ENDED = sys.float_info.max

#: Snapshot document schema; bump on incompatible changes.
SNAPSHOT_SCHEMA = "repro-service-snapshot/v1"

__all__.append("SNAPSHOT_SCHEMA")


class PlacementService:
    """An online DVBP placement server with snapshot/restore.

    Parameters
    ----------
    policy:
        Registry name of the dispatch policy (e.g. ``"move_to_front"``).
        The policy must support ``export_state``/``import_state`` for
        :meth:`snapshot` to work — all stock policies do.
    capacity:
        Per-dimension bin capacity: a sequence, or a scalar combined
        with ``d``.
    d:
        Number of resource dimensions when ``capacity`` is a scalar.
    seed:
        Seed forwarded to ``random_fit`` (ignored by deterministic
        policies).
    collector:
        Optional shared :class:`~repro.observability.stats.StatsCollector`
        (e.g. to fan service telemetry into an existing trace sink); a
        private one is created when omitted.
    """

    def __init__(
        self,
        policy: str = "move_to_front",
        capacity: Union[float, Sequence[float]] = 100.0,
        d: int = 1,
        seed: int = 0,
        collector: Optional[StatsCollector] = None,
    ) -> None:
        if np.isscalar(capacity):
            cap = np.full(int(d), float(capacity))
        else:
            cap = np.asarray(capacity, dtype=np.float64)
        if cap.ndim != 1 or cap.size < 1 or not np.all(cap > 0):
            raise ConfigurationError(
                f"capacity must be a positive vector, got {capacity!r}"
            )
        self.policy = policy
        self.seed = int(seed)
        self.capacity = cap
        self.collector = collector if collector is not None else StatsCollector()
        kwargs = {"seed": self.seed} if policy == "random_fit" else {}
        self._algorithm: OnlineAlgorithm = make_algorithm(policy, **kwargs)
        # a service lives indefinitely: suspend unbounded proof
        # bookkeeping (next_fit's release_log) permanently, same as the
        # streaming engine does per run
        self._algorithm.audit_mode = False
        self._algorithm.start(_CapacityContext(cap))
        self.collector.run_started(_CapacityContext(cap), self._algorithm)
        self._algorithm.bind_collector(self.collector)
        self._now = 0.0
        self._next_uid = 0
        self._next_bin_index = 0
        self._open_bins: Dict[int, StreamBin] = {}
        self._items: Dict[int, Tuple[Item, StreamBin]] = {}
        self._pending: List[Tuple[float, int]] = []
        self._cost_closed = 0.0
        self._arrivals = 0
        self._departures = 0
        self._bins_closed = 0
        self._peak_open_bins = 0
        self._peak_live_items = 0

    # ------------------------------------------------------------------
    # clock and state queries
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The service clock (the latest ``at`` any call supplied)."""
        return self._now

    @property
    def live_items(self) -> int:
        """Number of currently resident items."""
        return len(self._items)

    @property
    def open_bins(self) -> int:
        """Number of currently open bins."""
        return len(self._open_bins)

    @property
    def cost(self) -> float:
        """Eq. 1 cost accrued so far.

        Exact ``closed - opened`` usage of every closed bin, plus
        ``now - opened`` for each still-open bin (open bins have been
        continuously non-empty since they opened, so that is their exact
        accrued usage — no estimate involved).
        """
        return self._cost_closed + sum(
            self._now - b.opened_at for b in self._open_bins.values()
        )

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def place(
        self,
        size: Union[float, Sequence[float]],
        duration: Optional[float] = None,
        departure: Optional[float] = None,
        at: Optional[float] = None,
        item_id: Optional[int] = None,
    ) -> int:
        """Place one item; return the index of the bin it landed in.

        ``duration`` and ``departure`` are mutually exclusive ways to
        schedule the item's automatic departure; with neither the item
        is open-ended and departs only via :meth:`depart`.  ``at``
        defaults to the current clock and must not move it backwards.
        ``item_id`` overrides the auto-assigned uid (an integer that must
        not collide with an item still live at ``at``).  Every field is
        validated before anything changes, so a rejected request leaves
        the service exactly as it was.
        """
        at = self._check_time(at)
        if duration is not None and departure is not None:
            raise ConfigurationError("pass duration or departure, not both")
        if duration is not None:
            duration = float(duration)
            if not 0 < duration < math.inf:
                raise ConfigurationError(
                    f"duration must be positive and finite, got {duration}"
                )
            end = at + duration
        elif departure is not None:
            end = float(departure)
            if not at < end < math.inf:
                raise ConfigurationError(
                    f"departure {end} must be finite and after arrival {at}"
                )
        else:
            end = OPEN_ENDED
        if item_id is None:
            uid = self._next_uid
        else:
            uid = _check_item_id(item_id)
            if uid in self._items and not self._departs_by(uid, at):
                raise ConfigurationError(f"item id {uid} is already live")
        item = Item(at, end, np.asarray(size, dtype=np.float64), uid=uid)
        if item.size.shape != self.capacity.shape or np.any(item.size > self.capacity):
            raise InvalidItemError(
                f"item size {np.asarray(size)!r} does not fit the service "
                f"capacity {self.capacity!r}"
            )
        self._advance(at)
        self._next_uid = max(self._next_uid, uid + 1)

        opened: List[StreamBin] = []

        def open_new_bin() -> StreamBin:
            fresh = StreamBin(self.capacity, index=self._next_bin_index, opened_at=at)
            self._next_bin_index += 1
            self._open_bins[fresh.index] = fresh
            opened.append(fresh)
            return fresh

        t0 = perf_counter()
        target = self._algorithm.dispatch(item, at, open_new_bin)
        target.pack(item)
        elapsed = perf_counter() - t0
        self._items[uid] = (item, target)
        if end != OPEN_ENDED:
            heapq.heappush(self._pending, (end, uid))
        self._arrivals += 1
        if len(self._open_bins) > self._peak_open_bins:
            self._peak_open_bins = len(self._open_bins)
        if len(self._items) > self._peak_live_items:
            self._peak_live_items = len(self._items)
        self.collector.record_arrival(elapsed, opened_new=bool(opened))
        if len(self._items) > self.collector.peak_live_items:
            self.collector.peak_live_items = len(self._items)
        return target.index

    def depart(self, item_id: int, at: Optional[float] = None) -> bool:
        """Depart a live item explicitly; return whether its bin closed.

        The call first advances the clock to ``at`` (firing any
        departure scheduled at or before it), so departing an item at
        or after its scheduled time is rejected — it has already left.
        """
        uid = _check_item_id(item_id)
        at = self._check_time(at)
        if uid not in self._items or self._departs_by(uid, at):
            raise ConfigurationError(
                f"item {uid} is not live at t={at} (never placed, or "
                f"already departed)"
            )
        self._advance(at)
        return self._process_departure(uid, at)

    def advance(self, to: float) -> int:
        """Advance the clock to ``to``; return how many departures fired."""
        before = self._departures
        self._advance(self._check_time(float(to)))
        return self._departures - before

    def stats(self) -> RunStats:
        """Lifecycle counters in the library's standard stats currency."""
        return RunStats(
            algorithm=self._algorithm.name,
            runs=1,
            events=self._arrivals + self._departures,
            arrivals=self._arrivals,
            departures=self._departures,
            bins_opened=self._next_bin_index,
            bins_closed=self._bins_closed,
            peak_open_bins=self._peak_open_bins,
            peak_live_items=self._peak_live_items,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_time(self, at: Optional[float]) -> float:
        """Validate a requested clock time (default: now) without moving it."""
        if at is None:
            return self._now
        at = float(at)
        if not self._now <= at < math.inf:
            raise ConfigurationError(
                f"the service clock is finite and monotonic: at={at} is "
                f"not in [now={self._now}, inf)"
            )
        return at

    def _departs_by(self, uid: int, at: float) -> bool:
        """Whether live item ``uid``'s scheduled departure fires by ``at``."""
        departure = self._items[uid][0].departure
        return departure != OPEN_ENDED and departure <= at

    def _advance(self, at: float) -> None:
        """Move the clock to a validated ``at``, firing due departures."""
        # scheduled departures up to and including ``at`` fire before
        # whatever op requested the advance (departures-first tie-break)
        while self._pending and self._pending[0][0] <= at:
            t, uid = heapq.heappop(self._pending)
            entry = self._items.get(uid)
            if entry is None or entry[0].departure != t:
                continue  # stale entry: the item departed explicitly
            self._process_departure(uid, t)
        self._now = at

    def _process_departure(self, uid: int, now: float) -> bool:
        item, bin_ = self._items.pop(uid)
        closed = bin_.remove(item, now)
        self._algorithm.notify_departure(bin_, item, now, closed)
        self._departures += 1
        if closed:
            self._bins_closed += 1
            self._cost_closed += bin_.closed_at - bin_.opened_at
            del self._open_bins[bin_.index]
        self.collector.record_departure(closed)
        return closed

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the complete service state.

        Restoring it (:meth:`restore`) yields a service that makes the
        same future decisions at the same costs: bins are rebuilt by
        re-packing their residents in original pack order (so float
        loads re-fold identically), and the policy re-adopts its own
        exported state (open-list order, RNG stream position, …).
        """
        bins = []
        for index in sorted(self._open_bins):
            b = self._open_bins[index]
            bins.append({
                "index": index,
                "opened_at": b.opened_at,
                "latest_departure": b.latest_departure,
                "items": [
                    {
                        "uid": it.uid,
                        "arrival": it.arrival,
                        "departure": it.departure,
                        "size": [float(x) for x in it.size],
                    }
                    for it in b.active_items()
                ],
            })
        pending = sorted(
            (t, uid) for t, uid in self._pending
            if uid in self._items and self._items[uid][0].departure == t
        )
        return {
            "schema": SNAPSHOT_SCHEMA,
            "policy": self.policy,
            "seed": self.seed,
            "capacity": [float(x) for x in self.capacity],
            "now": self._now,
            "next_uid": self._next_uid,
            "next_bin_index": self._next_bin_index,
            "cost_closed": self._cost_closed,
            "counters": {
                "arrivals": self._arrivals,
                "departures": self._departures,
                "bins_closed": self._bins_closed,
                "peak_open_bins": self._peak_open_bins,
                "peak_live_items": self._peak_live_items,
            },
            "bins": bins,
            "pending": [[t, uid] for t, uid in pending],
            "algorithm": self._algorithm.export_state(),
        }

    @classmethod
    def restore(
        cls,
        state: Mapping[str, Any],
        collector: Optional[StatsCollector] = None,
    ) -> "PlacementService":
        """Rebuild a service from a :meth:`snapshot` document."""
        if state.get("schema") != SNAPSHOT_SCHEMA:
            raise ConfigurationError(
                f"not a service snapshot (schema {state.get('schema')!r}, "
                f"expected {SNAPSHOT_SCHEMA!r})"
            )
        svc = cls(
            policy=state["policy"],
            capacity=state["capacity"],
            seed=state.get("seed", 0),
            collector=collector,
        )
        svc._now = float(state["now"])
        svc._next_uid = int(state["next_uid"])
        svc._next_bin_index = int(state["next_bin_index"])
        svc._cost_closed = float(state["cost_closed"])
        counters = state["counters"]
        svc._arrivals = int(counters["arrivals"])
        svc._departures = int(counters["departures"])
        svc._bins_closed = int(counters["bins_closed"])
        svc._peak_open_bins = int(counters["peak_open_bins"])
        svc._peak_live_items = int(counters["peak_live_items"])
        for rec in state["bins"]:
            b = StreamBin(
                svc.capacity, index=int(rec["index"]), opened_at=float(rec["opened_at"])
            )
            for it_rec in rec["items"]:
                item = Item(
                    float(it_rec["arrival"]),
                    float(it_rec["departure"]),
                    np.asarray(it_rec["size"], dtype=np.float64),
                    uid=int(it_rec["uid"]),
                )
                b.pack(item)  # re-folds the load in original pack order
                svc._items[item.uid] = (item, b)
            # pack() tracked only the residents' max departure; the true
            # high-water mark may come from an already-departed member
            b.latest_departure = float(rec["latest_departure"])
            svc._open_bins[b.index] = b
        svc._pending = [(float(t), int(uid)) for t, uid in state["pending"]]
        heapq.heapify(svc._pending)
        svc._algorithm.import_state(state["algorithm"], svc._open_bins)
        return svc

    def snapshot_to(self, path: str) -> str:
        """Persist :meth:`snapshot` crash-safely; return the path.

        Uses the checkpoint store's atomic-write primitive (temp file +
        fsync + rename + directory fsync) and embeds a SHA-256 checksum
        so :meth:`restore_from` can reject torn or hand-edited files.
        """
        state = self.snapshot()
        body = json.dumps(state, sort_keys=True)
        document = json.dumps(
            {"sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
             "state": state},
            sort_keys=True, indent=2,
        )
        atomic_write(path, document + "\n")
        return path

    @classmethod
    def restore_from(
        cls, path: str, collector: Optional[StatsCollector] = None
    ) -> "PlacementService":
        """Load a :meth:`snapshot_to` file, verifying its checksum."""
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        body = json.dumps(document["state"], sort_keys=True)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if digest != document["sha256"]:
            raise ConfigurationError(
                f"service snapshot {path!r} failed its checksum "
                f"(stored {document['sha256'][:12]}…, computed {digest[:12]}…)"
            )
        return cls.restore(document["state"], collector=collector)


def _check_item_id(item_id) -> int:
    """An item id is a Python or numpy integer, never a bool.

    ``int()`` would silently truncate ``1.5`` to 1 and turn ``True`` or
    ``"7"`` into an id, so anything else is rejected by name.
    """
    if isinstance(item_id, bool) or not isinstance(item_id, (int, np.integer)):
        raise ConfigurationError(
            f"item_id must be an integer, got {type(item_id).__name__} "
            f"{item_id!r}"
        )
    return int(item_id)


def _decode_request(raw: str) -> dict:
    """Parse one protocol line, rejecting anything but a JSON object."""
    try:
        req = json.loads(raw)
    except RecursionError:
        raise ConfigurationError("request nests too deeply to decode") from None
    if not isinstance(req, dict):
        raise ConfigurationError(
            f"a request must be a JSON object, got {type(req).__name__}"
        )
    return req


def serve_loop(
    service: PlacementService,
    requests: Iterable[str],
    write: Callable[[str], None],
) -> int:
    """Drive ``service`` over a JSON-lines request/response protocol.

    One request object per input line, one response object per output
    line — ``repro serve`` wires this to stdin/stdout; tests drive it
    with plain lists.  Requests carry an ``"op"`` key:

    * ``{"op": "place", "size": s, "duration": …}`` (or ``"departure"``,
      ``"at"``, ``"item_id"``) →
      ``{"ok": true, "bin": i, "item_id": uid, "now": t}``;
    * ``{"op": "depart", "item_id": uid, "at": …}`` →
      ``{"ok": true, "closed": bool, "now": t}``;
    * ``{"op": "advance", "to": t}`` →
      ``{"ok": true, "departed": k, "now": t}``;
    * ``{"op": "stats"}`` → ``{"ok": true, "stats": {…}, "cost": c,
      "live_items": n, "open_bins": m, "now": t}``;
    * ``{"op": "snapshot", "path": p}`` → ``{"ok": true, "path": p}``
      (checksummed file via :meth:`PlacementService.snapshot_to`);
      without ``"path"`` the state document is returned inline under
      ``"state"``;
    * ``{"op": "quit"}`` → ``{"ok": true, "bye": true}`` and the loop
      returns early.

    A malformed or failing request — an undecodable line or one that is
    not a JSON object included — yields ``{"ok": false, "error": msg}``
    and the loop continues — one bad client line must not take the
    service down.  Blank lines are skipped.  Returns the number of
    requests handled.
    """
    import dataclasses

    handled = 0
    for raw in requests:
        raw = raw.strip()
        if not raw:
            continue
        handled += 1
        try:
            req = _decode_request(raw)
            op = req.get("op")
            if op == "place":
                uid = req["item_id"] if req.get("item_id") is not None \
                    else service._next_uid
                bin_index = service.place(
                    req["size"],
                    duration=req.get("duration"),
                    departure=req.get("departure"),
                    at=req.get("at"),
                    item_id=req.get("item_id"),
                )
                resp = {
                    "ok": True, "bin": bin_index, "item_id": int(uid),
                    "now": service.now,
                }
            elif op == "depart":
                closed = service.depart(req["item_id"], at=req.get("at"))
                resp = {"ok": True, "closed": closed, "now": service.now}
            elif op == "advance":
                departed = service.advance(req["to"])
                resp = {"ok": True, "departed": departed, "now": service.now}
            elif op == "stats":
                resp = {
                    "ok": True,
                    "stats": dataclasses.asdict(service.stats()),
                    "cost": service.cost,
                    "live_items": service.live_items,
                    "open_bins": service.open_bins,
                    "now": service.now,
                }
            elif op == "snapshot":
                if req.get("path"):
                    resp = {"ok": True, "path": service.snapshot_to(req["path"])}
                else:
                    resp = {"ok": True, "state": service.snapshot()}
            elif op == "quit":
                write(json.dumps({"ok": True, "bye": True}))
                break
            else:
                resp = {"ok": False, "error": f"unknown op {op!r}"}
        except (DVBPError, ValueError, KeyError, TypeError, OSError) as exc:
            resp = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        write(json.dumps(resp))
    return handled


__all__.append("serve_loop")

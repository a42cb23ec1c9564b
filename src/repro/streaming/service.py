"""A long-lived placement service wrapping the streaming machinery.

:class:`PlacementService` turns the packer from a batch experiment into
an online server: callers ``place`` items and ``depart`` them one call
at a time, against a monotonic service clock, with no instance and no
pre-declared horizon.  State is exactly the streaming engine's live
state — a :class:`~repro.simulation.live.LivePacking` core over
:class:`~repro.streaming.engine.StreamBin` objects and a
scheduled-departure heap — plus the dispatch policy's own exported
state, so the whole service can be snapshotted to
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
from collections import Counter
from dataclasses import asdict, replace
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
from ..simulation.live import LivePacking
from .engine import StreamBin

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
        private one is created when omitted.  It is the service's one
        counter set: :meth:`stats` and the snapshot counters read it.
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
        # the collector is the service's one counter set: the core counts
        # the lifecycle into it, the policy its candidate scans
        self._core = LivePacking(
            self._algorithm, cap, bin_type=StreamBin, stats=self.collector,
            timed=True,
        )
        self.collector.run_started(None, self._algorithm)
        self._algorithm.bind_collector(self.collector)
        self._now = 0.0
        self._next_uid = 0
        self._pending: List[Tuple[float, int]] = []

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
        return len(self._core.live)

    @property
    def open_bins(self) -> int:
        """Number of currently open bins."""
        return len(self._core.open)

    @property
    def cost(self) -> float:
        """Eq. 1 cost accrued so far.

        Exact ``closed - opened`` usage of every closed bin, plus
        ``now - opened`` for each still-open bin (open bins have been
        continuously non-empty since they opened, so that is their exact
        accrued usage — no estimate involved).
        """
        return self._core.cost_closed + sum(
            self._now - b.opened_at for b in self._core.open.values()
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
            if uid in self._core.live and not self._departs_by(uid, at):
                raise ConfigurationError(f"item id {uid} is already live")
        item = Item(at, end, np.asarray(size, dtype=np.float64), uid=uid)
        if item.size.shape != self.capacity.shape or np.any(item.size > self.capacity):
            raise InvalidItemError(
                f"item size {np.asarray(size)!r} does not fit the service "
                f"capacity {self.capacity!r}"
            )
        self._advance(at)
        self._next_uid = max(self._next_uid, uid + 1)
        target = self._core.place(item, at)
        if end != OPEN_ENDED:
            heapq.heappush(self._pending, (end, uid))
        return target.index

    def depart(self, item_id: int, at: Optional[float] = None) -> bool:
        """Depart a live item explicitly; return whether its bin closed.

        The call first advances the clock to ``at`` (firing any
        departure scheduled at or before it), so departing an item at
        or after its scheduled time is rejected — it has already left.
        """
        uid = _check_item_id(item_id)
        at = self._check_time(at)
        if uid not in self._core.live or self._departs_by(uid, at):
            raise ConfigurationError(
                f"item {uid} is not live at t={at} (never placed, or "
                f"already departed)"
            )
        self._advance(at)
        return self._core.depart(uid, at)

    def advance(self, to: float) -> int:
        """Advance the clock to ``to``; return how many departures fired."""
        before = self.collector.departures
        self._advance(self._check_time(float(to)))
        return self.collector.departures - before

    def stats(self) -> RunStats:
        """The collector's counters in the library's standard stats currency.

        Lifecycle counters, candidate scans, fit checks and dispatch
        time all come from the one collector the service counts into.
        """
        return replace(
            self.collector.snapshot(), algorithm=self._algorithm.name, runs=1
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
        departure = self._core.live[uid][0].departure
        return departure != OPEN_ENDED and departure <= at

    def _advance(self, at: float) -> None:
        """Move the clock to a validated ``at``, firing due departures."""
        # scheduled departures up to and including ``at`` fire before
        # whatever op requested the advance (departures-first tie-break)
        while self._pending and self._pending[0][0] <= at:
            t, uid = heapq.heappop(self._pending)
            entry = self._core.live.get(uid)
            if entry is None or entry[0].departure != t:
                continue  # stale entry: the item departed explicitly
            self._core.depart(uid, t)
        self._now = at

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
        core = self._core
        col = self.collector
        bins = []
        for index in sorted(core.open):
            b = core.open[index]
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
            if uid in core.live and core.live[uid][0].departure == t
        )
        return {
            "schema": SNAPSHOT_SCHEMA,
            "policy": self.policy,
            "seed": self.seed,
            "capacity": [float(x) for x in self.capacity],
            "now": self._now,
            "next_uid": self._next_uid,
            "next_bin_index": core.next_index,
            "cost_closed": core.cost_closed,
            "counters": {
                "arrivals": col.arrivals,
                "departures": col.departures,
                "bins_closed": col.bins_closed,
                "peak_open_bins": col.peak_open_bins,
                "peak_live_items": col.peak_live_items,
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
        """Rebuild a service from a :meth:`snapshot` document.

        The document is checked before anything is built: a missing
        field, an item whose dimension differs from the capacity's, an
        item in two bins (or twice in one), an empty or duplicated bin,
        a ``next_uid`` or ``next_bin_index`` that does not lie above
        every live item or open bin, and policy state that does not fit
        the named policy are each rejected with a
        :class:`~repro.core.errors.ConfigurationError` naming the field.
        Its counters replace those of ``collector`` (a fresh one when
        omitted), which keeps counting from there.
        """
        schema = state.get("schema") if isinstance(state, Mapping) else None
        if schema != SNAPSHOT_SCHEMA:
            raise ConfigurationError(
                f"not a service snapshot (schema {schema!r}, "
                f"expected {SNAPSHOT_SCHEMA!r})"
            )
        _check_snapshot(state)
        svc = cls(
            policy=state["policy"],
            capacity=state["capacity"],
            seed=state.get("seed", 0),
            collector=collector,
        )
        core = svc._core
        svc._now = float(state["now"])
        svc._next_uid = int(state["next_uid"])
        core.next_index = int(state["next_bin_index"])
        core.cost_closed = float(state["cost_closed"])
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
                core.live[item.uid] = (item, b)
            # pack() tracked only the residents' max departure; the true
            # high-water mark may come from an already-departed member
            b.latest_departure = float(rec["latest_departure"])
            core.open[b.index] = b
        svc._pending = [(float(t), int(uid)) for t, uid in state["pending"]]
        heapq.heapify(svc._pending)
        try:
            svc._algorithm.import_state(state["algorithm"], core.open)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"snapshot field 'algorithm' does not fit policy "
                f"{svc.policy!r} ({type(exc).__name__}: {exc})"
            ) from None
        col = svc.collector
        for name in ("arrivals", "departures", "bins_closed", "peak_open_bins",
                     "peak_live_items"):
            setattr(col, name, int(state["counters"][name]))
        col.bins_opened = core.next_index
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
        """Load a :meth:`snapshot_to` file, verifying its checksum.

        A file that is not JSON, not a ``{"sha256", "state"}`` object, or
        fails its checksum raises
        :class:`~repro.core.errors.ConfigurationError` naming the path.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
            body = json.dumps(document["state"], sort_keys=True)
            stored = str(document["sha256"])
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigurationError(
                f"service snapshot {path!r} is not a JSON object with "
                f"'sha256' and 'state' ({type(exc).__name__}: {exc})"
            ) from None
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if digest != stored:
            raise ConfigurationError(
                f"service snapshot {path!r} failed its checksum "
                f"(stored {stored[:12]}…, computed {digest[:12]}…)"
            )
        return cls.restore(document["state"], collector=collector)


#: Fields every snapshot carries besides ``schema`` (``seed`` is optional).
_SNAPSHOT_FIELDS = ("policy", "capacity", "now", "next_uid", "next_bin_index",
                    "cost_closed", "counters", "bins", "pending", "algorithm")


def _check_snapshot(state: Mapping[str, Any]) -> None:
    """Reject a snapshot that lacks a field or contradicts itself."""
    missing = [field for field in _SNAPSHOT_FIELDS if field not in state]
    if missing:
        raise ConfigurationError(f"snapshot field {missing[0]!r} is missing")
    bins = state["bins"]
    d = len(state["capacity"])
    for rec in bins:
        for it in rec["items"]:
            if len(it["size"]) != d:
                raise ConfigurationError(
                    f"snapshot field 'bins' holds item {it['uid']} of "
                    f"dimension {len(it['size'])}, but 'capacity' has {d}"
                )
    indexes = Counter(int(rec["index"]) for rec in bins)
    uids = Counter(int(it["uid"]) for rec in bins for it in rec["items"])
    for what, counts in (("bin", indexes), ("item", uids)):
        twice = [key for key, n in counts.items() if n > 1]
        if twice:
            raise ConfigurationError(f"snapshot field 'bins' lists {what} {twice[0]} twice")
    if not all(rec["items"] for rec in bins):
        raise ConfigurationError("snapshot field 'bins' lists a bin with no items")
    for field, taken, what in (
        ("next_uid", uids, "live item"), ("next_bin_index", indexes, "open bin")
    ):
        if taken and int(state[field]) <= max(taken):
            raise ConfigurationError(
                f"snapshot field {field!r} is {state[field]!r}, not above "
                f"{what} {max(taken)}"
            )


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
                    "stats": asdict(service.stats()),
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

"""A bounded result cache for the serving tier, with single-flight.

The RDFFrames workloads this repo reproduces are dominated by *repeats*:
a practitioner iterates on downstream features while re-running the same
extraction pipeline, so the serving tier sees the same handful of query
texts over and over.  PR 6's :class:`~repro.sparql.server.QueryServer`
re-executed every one of them.  :class:`ResultCache` closes that gap:

* **Keyed on plan identity, not query text.**  The cache key is the
  engine's normalized :func:`~repro.sparql.plan.plan_key` — query
  structure + default graph + *dataset fingerprint*.  Two spellings of
  the same query share an entry; a graph mutation changes the
  fingerprint, so every pre-mutation entry becomes unreachable and ages
  out of the LRU instead of serving stale rows (the same lazy
  invalidation the plan cache and endpoint cursor cache use).
* **Bounded, twice.**  A global entry-count + byte budget (LRU
  eviction), and optional *per-tenant* entry/byte quotas so one tenant's
  churn evicts its own entries first — tenant A cannot starve tenant B
  out of the cache past B's quota.
* **Single-flight coalescing.**  Concurrent identical submissions share
  one execution: the first becomes the *leader* and evaluates; followers
  park on the flight and receive the leader's result.  A cancelled or
  failed leader aborts the flight without poisoning followers — one of
  them simply becomes the next leader.
* **Never caches a failure.**  Only a complete, successful
  :class:`~repro.sparql.results.ResultSet` is inserted; timeouts,
  cancellations and fault-injected errors leave the cache untouched.

The cache stores *decoded* results (term objects, not ids) together with
the :class:`~repro.sparql.evaluator.EvaluationStats` of the execution
that produced them, so a hit can report the original work done.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from .evaluator import EvaluationStats
from .results import ResultSet

__all__ = ["CacheStats", "ResultCache", "approximate_result_bytes"]

#: Rows sampled when estimating an entry's footprint.
_SAMPLE_ROWS = 32


def approximate_result_bytes(result: ResultSet) -> int:
    """A deterministic, cheap estimate of a result set's memory footprint.

    Samples the first :data:`_SAMPLE_ROWS` rows (per-term cost
    ``48 + len(str(term))`` — object header plus payload) and
    extrapolates linearly.  Deterministic by construction (no ``sys``
    introspection), so quota tests can reason about exact byte accounting.
    """
    base = 64 + 48 * len(result.variables)
    rows = result.rows
    if not rows:
        return base
    sample = rows[:_SAMPLE_ROWS]
    sampled = 0
    for row in sample:
        sampled += 56  # tuple overhead
        for term in row:
            if term is not None:
                sampled += 48 + len(str(term))
    return base + int(sampled * (len(rows) / len(sample)))


class CacheStats:
    """Thread-safe monotone counters for one :class:`ResultCache`."""

    FIELDS = ("hits", "misses", "inserts", "evictions", "rejected",
              "coalesced")

    def __init__(self):
        self._lock = threading.Lock()
        for field in self.FIELDS:
            setattr(self, field, 0)

    def bump(self, field: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + by)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {field: getattr(self, field) for field in self.FIELDS}

    def __repr__(self):
        return "CacheStats(%r)" % self.as_dict()


class _Entry:
    __slots__ = ("key", "tenant", "result", "stats", "nbytes")

    def __init__(self, key, tenant, result, stats, nbytes):
        self.key = key
        self.tenant = tenant
        self.result = result
        self.stats = stats
        self.nbytes = nbytes


class _Flight:
    """One in-progress execution that concurrent identical requests join.

    The leader executes and either *resolves* the flight (result shared
    with every follower) or *aborts* it (followers wake empty-handed and
    race to become the next leader — a cancelled leader never poisons
    the queries coalesced behind it).
    """

    __slots__ = ("event", "result", "stats", "ok", "waiters")

    def __init__(self):
        self.event = threading.Event()
        self.result: Optional[ResultSet] = None
        self.stats: Optional[EvaluationStats] = None
        self.ok = False
        self.waiters = 0  # followers currently parked (introspection)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the leader resolves or aborts; True iff resolved."""
        self.event.wait(timeout)
        return self.ok


class ResultCache:
    """Bounded LRU over complete query results, with per-tenant quotas.

    Parameters
    ----------
    max_entries / max_bytes:
        Global bounds.  Exceeding either evicts least-recently-used
        entries — the inserting tenant's own entries first, so a churning
        tenant reclaims from itself before touching anyone else.
    max_entry_bytes:
        Results estimated larger than this are not cached at all
        (``rejected`` counter).
    tenant_max_entries / tenant_max_bytes:
        Per-tenant quotas; a tenant over quota evicts only its *own*
        least-recently-used entries.
    """

    def __init__(self, max_entries: int = 256, max_bytes: int = 64 << 20,
                 max_entry_bytes: Optional[int] = None,
                 tenant_max_entries: Optional[int] = None,
                 tenant_max_bytes: Optional[int] = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.max_entry_bytes = max_entry_bytes
        self.tenant_max_entries = tenant_max_entries
        self.tenant_max_bytes = tenant_max_bytes
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._total_bytes = 0
        self._tenant_entries: Dict[str, int] = {}
        self._tenant_bytes: Dict[str, int] = {}
        self._flights: Dict[str, _Flight] = {}

    # -- lookup --------------------------------------------------------
    def get(self, key: str, count: bool = True
            ) -> Optional[Tuple[ResultSet, Optional[EvaluationStats]]]:
        """LRU-touching lookup; counts a hit or a miss.  ``count=False``
        is for a caller that probes once more for the same request and
        accounts for the outcome itself."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count:
                    self.stats.bump("misses")
                return None
            self._entries.move_to_end(key)
            if count:
                self.stats.bump("hits")
            return entry.result, entry.stats

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes

    def tenant_usage(self, tenant: str) -> Tuple[int, int]:
        """``(entries, bytes)`` currently attributed to ``tenant``."""
        with self._lock:
            return (self._tenant_entries.get(tenant, 0),
                    self._tenant_bytes.get(tenant, 0))

    # -- insertion / eviction ------------------------------------------
    def put(self, key: str, result: ResultSet,
            stats: Optional[EvaluationStats] = None,
            tenant: str = "anonymous") -> int:
        """Insert a *complete* result; returns how many entries were
        evicted making room.  Oversized results (``max_entry_bytes``) are
        rejected; quotas and global bounds then evict LRU entries — the
        inserting tenant's own first."""
        nbytes = approximate_result_bytes(result)
        if (self.max_entry_bytes is not None
                and nbytes > self.max_entry_bytes):
            self.stats.bump("rejected")
            return 0
        with self._lock:
            if key in self._entries:
                self._remove_locked(key)
            entry = _Entry(key, tenant, result, stats, nbytes)
            self._entries[key] = entry
            self._total_bytes += nbytes
            self._tenant_entries[tenant] = \
                self._tenant_entries.get(tenant, 0) + 1
            self._tenant_bytes[tenant] = \
                self._tenant_bytes.get(tenant, 0) + nbytes
            evicted = self._shrink_tenant_locked(tenant, keep=key)
            evicted += self._shrink_global_locked(tenant, keep=key)
            self.stats.bump("inserts")
            if evicted:
                self.stats.bump("evictions", evicted)
            return evicted

    def invalidate(self, key: str) -> bool:
        with self._lock:
            if key not in self._entries:
                return False
            self._remove_locked(key)
            self.stats.bump("evictions")
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._total_bytes = 0
            self._tenant_entries.clear()
            self._tenant_bytes.clear()

    def _remove_locked(self, key: str) -> None:
        entry = self._entries.pop(key)
        self._total_bytes -= entry.nbytes
        remaining = self._tenant_entries.get(entry.tenant, 1) - 1
        if remaining <= 0:
            self._tenant_entries.pop(entry.tenant, None)
            self._tenant_bytes.pop(entry.tenant, None)
        else:
            self._tenant_entries[entry.tenant] = remaining
            self._tenant_bytes[entry.tenant] = \
                self._tenant_bytes.get(entry.tenant, entry.nbytes) \
                - entry.nbytes

    def _oldest_locked(self, tenant: Optional[str],
                       keep: str) -> Optional[str]:
        """Oldest key (optionally restricted to ``tenant``) that is not
        the just-inserted ``keep`` entry."""
        for key, entry in self._entries.items():
            if key == keep:
                continue
            if tenant is None or entry.tenant == tenant:
                return key
        return None

    def _shrink_tenant_locked(self, tenant: str, keep: str) -> int:
        evicted = 0
        while True:
            over_entries = (self.tenant_max_entries is not None
                            and self._tenant_entries.get(tenant, 0)
                            > self.tenant_max_entries)
            over_bytes = (self.tenant_max_bytes is not None
                          and self._tenant_bytes.get(tenant, 0)
                          > self.tenant_max_bytes)
            if not (over_entries or over_bytes):
                return evicted
            victim = self._oldest_locked(tenant, keep)
            if victim is None:
                # The fresh entry alone exceeds the tenant byte quota:
                # it does not get to stick.
                if keep in self._entries:
                    self._remove_locked(keep)
                    evicted += 1
                return evicted
            self._remove_locked(victim)
            evicted += 1

    def _shrink_global_locked(self, tenant: str, keep: str) -> int:
        evicted = 0
        while (len(self._entries) > self.max_entries
               or self._total_bytes > self.max_bytes):
            victim = self._oldest_locked(tenant, keep)
            if victim is None:
                victim = self._oldest_locked(None, keep)
            if victim is None:
                # Only the fresh entry remains and it alone busts the
                # global byte budget: evict it rather than hold an
                # over-budget cache.
                if keep in self._entries:
                    self._remove_locked(keep)
                    evicted += 1
                return evicted
            self._remove_locked(victim)
            evicted += 1
        return evicted

    # -- single-flight coalescing --------------------------------------
    def join_flight(self, key: str) -> Tuple[bool, _Flight]:
        """Join (or open) the in-progress execution for ``key``.

        Returns ``(is_leader, flight)``.  The leader must call
        :meth:`resolve_flight` on success or :meth:`abort_flight` on any
        failure — typically via ``try/finally`` — or followers park
        until their own timeout."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                return True, flight
            flight.waiters += 1
            self.stats.bump("coalesced")
            return False, flight

    def resolve_flight(self, key: str, flight: _Flight, result: ResultSet,
                       stats: Optional[EvaluationStats] = None) -> None:
        with self._lock:
            self._flights.pop(key, None)
        flight.result = result
        flight.stats = stats
        flight.ok = True
        flight.event.set()

    def abort_flight(self, key: str, flight: _Flight) -> None:
        with self._lock:
            self._flights.pop(key, None)
        flight.ok = False
        flight.event.set()

    def flight_waiters(self, key: str) -> int:
        """Followers currently coalesced behind ``key`` (test hook)."""
        with self._lock:
            flight = self._flights.get(key)
            return 0 if flight is None else flight.waiters

    def __repr__(self):
        with self._lock:
            return "ResultCache(%d entries, %d bytes, %r)" % (
                len(self._entries), self._total_bytes, self.stats)

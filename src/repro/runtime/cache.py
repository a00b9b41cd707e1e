"""Content-addressed on-disk cache of executed sweep points.

Every :class:`~repro.runtime.spec.RunSpec` is a deterministic simulation:
the bench suite asserts bit-identical quantities across repeats, and the
executor tests assert serial == parallel byte-identity.  A spec's result
is therefore a pure function of the spec's *content* plus the simulator's
code version -- exactly what a content-addressed cache wants.  Reruns of
benchmarks, CI sweeps and experiment scripts skip simulation entirely.

**Cache key** (:func:`spec_key`): sha256 over the canonical JSON of
``spec.to_dict()`` together with :data:`CACHE_SCHEMA` (this module's
payload layout) and :data:`CODE_VERSION` (bumped whenever the simulator's
observable results change).  ``wall_time`` is *not* part of the cached
identity -- it is measurement, not result -- and a hit returns the stored
result with its **original** wall time, so a fully cached rerun's JSON is
byte-for-byte identical to the run that populated the cache.

**Invalidation**: an unreadable or corrupt payload, a foreign pickle, or
a schema/key/spec mismatch inside the payload drops the entry (counted in
``invalidations``) and reads as a miss; the next execution rewrites it.
Writes go through a temp file + :func:`os.replace`, so concurrent sweep
processes sharing a cache directory see whole entries or none.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from typing import Dict, Iterable, Optional

from .spec import PointResult, RunSpec

#: payload layout version; entries written under another schema are
#: invalidated on first touch
CACHE_SCHEMA = 1

#: observable-results version of the simulator.  Part of every cache key:
#: bump it whenever an engine/routing change alters what any spec
#: produces, and every stale entry silently becomes a miss.
#: 2: the pluggable routing-scheme layer -- ``RunSpec.to_dict()`` gained
#:    the ``scheme`` identity, so every spec's canonical form changed.
#: 3: online deadlock recovery + stall-watchdog fixes -- the watchdog now
#:    fires one cycle earlier (detection cycles shifted) and
#:    ``RunSpec.to_dict()`` gained the ``recovery`` flag, so no
#:    pre-recovery entry may serve a post-recovery spec.
#: 4: sweep-runtime telemetry -- ``LoadPoint`` grew ``recoveries`` and
#:    ``PointResult.to_dict()`` now emits it, so every result's canonical
#:    form changed; cached pre-telemetry ``PointResult`` pickles would
#:    also deserialize without the new field.
#: 5: the batched SoA engine mode -- ``RunSpec.to_dict()`` gained the
#:    ``engine`` driver selection, and the route phase now offers
#:    candidates in sorted-cid order (grant-conflict winners are
#:    candidate-order dependent, so heavily contended runs' observable
#:    results shifted).
#: 6: a decision with no outputs and no drop (a broadcast copy entering a
#:    crossbar whose only other router is faulty) is a sink for that copy,
#:    not a whole-packet drop; and the SoA route phase routes NORMAL
#:    headers at fault-free switches without a memo lookup, so
#:    ``route_cache.*`` metrics of ``engine="soa"`` specs shrink.
CODE_VERSION = 6


def spec_key(spec: RunSpec) -> str:
    """Content hash identifying ``spec``'s result on this code version."""
    ident = {
        "cache_schema": CACHE_SCHEMA,
        "code_version": CODE_VERSION,
        "spec": spec.to_dict(),
    }
    blob = json.dumps(ident, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_identity(results: Iterable[PointResult]) -> str:
    """Canonical JSON of a result list with ``wall_time`` (the only
    non-deterministic field) removed.

    Two runs of the same specs must match on this string byte-for-byte
    whether they ran serially, chunked across a warm pool, or straight
    out of the cache -- the identity the executor tests and the
    ``sweep_fanout`` bench gate on.
    """
    docs = []
    for r in results:
        d = r.to_dict()
        d.pop("wall_time", None)
        docs.append(d)
    return json.dumps(docs, sort_keys=True, separators=(",", ":"))


class ResultCache:
    """Directory of pickled :class:`PointResult`s keyed by content hash.

    Sharded two-level layout (``<root>/<key[:2]>/<key>.pkl``) so a large
    cache does not pile thousands of entries into one directory.  The
    counters feed :class:`repro.obs.collectors.ResultCacheStats`:

    * ``hits``          -- entries served without simulating;
    * ``misses``        -- absent (or invalidated) entries;
    * ``invalidations`` -- corrupt/stale entries dropped (each also
      counts as a miss);
    * ``puts``          -- entries written.
    """

    def __init__(self, root: str = ".repro-cache") -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.puts = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def path_for(self, spec: RunSpec) -> str:
        return self._path(spec_key(spec))

    def get(self, spec: RunSpec) -> Optional[PointResult]:
        """The cached result for ``spec``, or None (counted as a miss)."""
        # hash the spec exactly once per lookup: the path and the
        # payload's stored key derive from the same computation
        key = spec_key(spec)
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                payload = pickle.load(f)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self._invalidate(path)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA
            or payload.get("key") != key
            or payload.get("spec") != spec.to_dict()
        ):
            self._invalidate(path)
            return None
        self.hits += 1
        return payload["result"]

    def put(self, result: PointResult) -> None:
        """Store ``result`` under its spec's content key (atomic)."""
        key = spec_key(result.spec)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "spec": result.spec.to_dict(),
            "result": result,
        }
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.puts += 1

    def _invalidate(self, path: str) -> None:
        self.invalidations += 1
        self.misses += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (the shape ``ResultCacheStats`` wraps)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "puts": self.puts,
        }

    def metrics(self):
        """The counters as a mergeable :class:`~repro.obs.metrics.MetricSet`."""
        from ..obs.collectors import ResultCacheStats

        return ResultCacheStats(self).metrics()

    def describe(self) -> str:
        s = self.stats()
        return (
            f"cache: {s['hits']} hit(s), {s['misses']} miss(es), "
            f"{s['invalidations']} invalidation(s), {s['puts']} put(s) "
            f"-> {self.root}"
        )

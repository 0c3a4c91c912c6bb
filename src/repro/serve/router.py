"""Consistent-hash routing of query fingerprints onto worker shards.

The cluster front-end (:mod:`repro.serve.cluster`) is shared-nothing:
each worker process owns a private :class:`~repro.perf.TranslationCache`
shard, and both cache sharing and cache warmth rest on one invariant —
*the same canonical query fingerprint always lands on the same shard*.
A :class:`HashRing` provides that invariant with the two extra
properties a cluster needs:

* **Stability under membership change** — shards are placed on a ring
  via many virtual points; when one shard dies (or is draining for a
  rolling restart), only the keys it owned move, each to the next live
  shard clockwise.  The other shards' cache working sets are untouched.
* **Determinism** — placement depends only on the shard ids, never on
  process identity or startup order, so a restarted front-end routes
  exactly like its predecessor and a restored cache snapshot stays on
  the shard that will receive its fingerprints.

Keys are the hex fingerprints of :func:`repro.perf.query_fingerprint`
(any hex string works); the ring hashes its own points with SHA-256, so
shard placement is uniform without coordinating with the fingerprint
hash.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Collection, Iterable, Sequence

__all__ = ["HashRing"]

#: Virtual points per shard.  64 keeps the max/min shard load within ~2x
#: for random keys, at a few KiB of ring state.
REPLICAS = 64


def _point(label: str) -> int:
    """Ring position of one virtual node label (64-bit, uniform)."""
    return int.from_bytes(hashlib.sha256(label.encode("ascii")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring over integer shard ids.

    :data:`REPLICAS` virtual points per shard smooth the key
    distribution.  The ring itself is immutable; liveness is a
    *query-time* concern — pass the currently routable shards to
    :meth:`route` and dead or draining shards are skipped in ring order.
    """

    def __init__(self, shard_ids: Sequence[int]):
        if not shard_ids:
            raise ValueError("HashRing needs at least one shard id")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError(f"duplicate shard ids: {sorted(shard_ids)}")
        self.shard_ids = tuple(shard_ids)
        points = [
            (_point(f"shard:{shard}:vnode:{replica}"), shard)
            for shard in shard_ids
            for replica in range(REPLICAS)
        ]
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    @staticmethod
    def key_position(key: str) -> int:
        """Ring position of one routing key (a hex fingerprint)."""
        try:
            return int(key[:16], 16)
        except ValueError:
            # Not hex (a fallback routing key): hash it onto the ring.
            return _point(f"key:{key}")

    def preference(self, key: str) -> Iterable[int]:
        """Shard ids in ring order from ``key``'s position, deduplicated.

        The first id is the key's owner; the rest are its failover
        sequence.  Every shard appears exactly once, so walking the
        whole preference list visits the full cluster.
        """
        start = bisect_right(self._points, self.key_position(key))
        seen: set[int] = set()
        total = len(self._owners)
        for offset in range(total):
            shard = self._owners[(start + offset) % total]
            if shard not in seen:
                seen.add(shard)
                yield shard
                if len(seen) == len(self.shard_ids):
                    return

    def route(self, key: str, routable: Collection[int] | None = None) -> int:
        """The owning shard for ``key`` among the ``routable`` ids.

        With ``routable=None`` every shard is eligible.  Raises
        :class:`LookupError` when no eligible shard remains — the
        cluster-down case the caller must answer with a structured
        error, not an exception escaping the event loop.
        """
        for shard in self.preference(key):
            if routable is None or shard in routable:
                return shard
        raise LookupError(f"no routable shard for key {key[:16]!r}")

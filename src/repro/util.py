"""Small shared utilities."""

from __future__ import annotations

import hashlib
import threading


def stable_hash(*parts: object, bits: int = 64) -> int:
    """Deterministic cross-process hash of the reprs of ``parts``.

    Python's builtin ``hash`` is salted per process, which would make
    seeded runs unreproducible; everything that derives randomness from
    labels goes through this instead.
    """
    material = "\x1f".join(repr(part) for part in parts).encode("utf-8")
    digest = hashlib.blake2s(material, digest_size=(bits + 7) // 8).digest()
    return int.from_bytes(digest, "big") & ((1 << bits) - 1)


class BoundedMemo:
    """A memo of at most ``limit`` entries that evicts the oldest first.

    For pure steps whose keys come off the wire: a hostile peer picks
    the keys, so the memo must not grow with what it is sent.  Lookups
    count ``cache.hits`` / ``cache.misses`` (label ``cache=name``) in
    the registry's process section — how often a memo hits depends on
    which process and run it lives in, never on the results.
    """

    def __init__(self, name: str, limit: int, registry) -> None:
        self.limit = limit
        self._entries: dict = {}
        # Misses run under the lock: racing threads compute a key once
        # and never evict the same oldest key twice.  A hit is one dict
        # lookup and takes no lock.
        self._lock = threading.Lock()
        self._hits = registry.process_counter("cache.hits", cache=name)
        self._misses = registry.process_counter("cache.misses", cache=name)

    def __len__(self) -> int:
        return len(self._entries)

    def recall(self, key, compute):
        """The stored value for ``key``, else ``compute()`` stored under it."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            with self._lock:
                # Another thread may have stored it while this one waited.
                value = self._entries.get(key, _MISSING)
                if value is _MISSING:
                    self._misses.inc()
                    value = compute()
                    if len(self._entries) >= self.limit:
                        del self._entries[next(iter(self._entries))]
                    self._entries[key] = value
                    return value
        self._hits.inc()
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_MISSING = object()

"""Content-addressed cell result cache.

Every sweep cell's result is stored under the SHA-256 of its *canonical
spec* (:func:`repro.experiments.spec.spec_hash`) — the cache key is what
the experiment **is**, not where or when it ran.  The consequences fall out
for free:

- Re-running an identical sweep touches no simulator at all: every cell is
  a cache hit.
- Editing one axis of a grid (or appending values to it) only recomputes
  the cells whose resolved specs actually changed.
- Two workers racing on the same cell write the same bytes to the same
  key; the ``os.replace`` publish makes the race harmless.

Entries are JSON files fanned out by the first two hex digits
(``cache/ab/abcdef….json``) so a directory never collects millions of
files.  Each entry carries the result plus a small execution record (which
worker, how long) that feeds the sweep provenance sidecar without ever
touching the canonical sweep document.

The result is stored as its :func:`~repro.experiments.spec.document_json`
text, the text a sweep document splices in as it is, so a cached cell is
encoded once, when it is computed.  Beside the text sits its SHA-256: an
entry damaged into different but still valid JSON fails the digest and
is a miss (logged), and the cell is computed again.

The spec hash says what the experiment *is*; it says nothing about the
code that ran it.  So every entry is also stamped with a fingerprint of
the ``repro`` package source, and an entry whose fingerprint does not
match the running code is treated as a miss — a sweep resumed after a
simulator change recomputes its cells instead of silently replaying
results the current code would not produce (which would break the
byte-identical-to-serial guarantee).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Set

from repro.cluster.fsqueue import read_json, write_json_atomic
from repro.experiments.spec import document_json
from repro.obs.logsetup import get_logger

logger = get_logger("cluster.cache")

#: Version tag written into cache entries.
CACHE_SCHEMA = "cell_cache/v2"

_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + bytes), memoized.

    Identical checkouts — on any machine sharing the queue directory —
    fingerprint identically; any source change (even one that *probably*
    does not affect results) invalidates the cache, which is the right
    default for a byte-identity guarantee.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode("utf-8"))
                digest.update(b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
                digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


class CellCache:
    """A directory of cell results keyed by canonical spec hash."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.tmp_dir = os.path.join(root, "tmp")
        os.makedirs(self.tmp_dir, exist_ok=True)
        #: Hash-prefix directories this instance has already made.
        self._prefixes: Set[str] = set()

    def path_for(self, key: str) -> str:
        """Where the entry for ``key`` lives (two-digit fan-out)."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The full cache entry for ``key`` (schema, ``result_text`` and
        its digest, execution record) plus ``result``, the text parsed; or
        ``None`` on a miss — including entries computed by a different
        version of the code, which must not replay (a schema change is a
        code change, so such entries miss here too), and entries whose
        text fails its digest."""
        entry = read_json(self.path_for(key))
        if entry is None:
            logger.debug("cell cache miss %s", key[:12])
            return None
        if entry.get("code") != code_fingerprint():
            logger.debug("cell cache stale %s (code fingerprint changed)",
                         key[:12])
            return None
        text = entry.get("result_text")
        if not isinstance(text, str) or entry.get("result_sha256") != \
                hashlib.sha256(text.encode("utf-8")).hexdigest():
            logger.warning("cell cache entry %s fails its digest; "
                           "computing the cell again", key[:12])
            return None
        logger.debug("cell cache hit %s", key[:12])
        entry["result"] = json.loads(text)
        return entry

    def put(self, key: str, result: Dict[str, Any], *,
            worker: str = "", wall_seconds: float = 0.0) -> str:
        """Publish a result under ``key`` (atomic; last writer wins, and
        racing writers computed identical results by construction) and
        return its :func:`document_json` text, the text stored."""
        text = document_json(result)
        if key[:2] not in self._prefixes:
            os.makedirs(os.path.join(self.root, key[:2]), exist_ok=True)
            self._prefixes.add(key[:2])
        write_json_atomic(self.path_for(key), {
            "schema": CACHE_SCHEMA,
            "spec_hash": key,
            "code": code_fingerprint(),
            "worker": worker,
            "wall_seconds": wall_seconds,
            "result_text": text,
            "result_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }, self.tmp_dir)
        return text

    def keys(self) -> List[str]:
        """Every cached spec hash (mainly for tests and inspection)."""
        found: List[str] = []
        for prefix in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, prefix)
            if prefix == "tmp" or not os.path.isdir(subdir):
                continue
            found.extend(sorted(entry[:-len(".json")]
                                for entry in os.listdir(subdir)
                                if entry.endswith(".json")))
        return found

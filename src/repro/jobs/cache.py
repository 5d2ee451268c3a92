"""Persistent on-disk job-result cache.

Closes ROADMAP follow-up (e): the :class:`~repro.core.engine.MappingEngine`
caches live per process, so a sweep farm that re-evaluates the same designs
across many invocations — or many worker machines sharing a filesystem —
used to redo every mapping.  :class:`JobCache` persists finished
:class:`~repro.jobs.runner.JobResult` envelopes as one JSON file per key,
where the key is :func:`repro.jobs.spec.job_hash` — a content hash over the
resolved job (design contents, operating point, mapper configuration, job
kind and knobs) — so a hit is valid by construction and never stale.

The store is deliberately simple and concurrency-tolerant:

* one file per key, named by the hash — no index to corrupt, safe to prune
  with ``rm`` or share over NFS;
* writes go through a per-process temporary file and ``os.replace`` — a
  reader never observes a half-written entry, and concurrent writers of the
  same key overwrite each other with identical content (payloads are pure
  functions of the key);
* unreadable or corrupt entries count as misses and are re-computed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Union

from repro.jobs.store import EngineStateStore

__all__ = ["JobCache", "SCHEMA", "dumps_compact"]

#: layout version of :class:`~repro.jobs.runner.JobResult` envelopes and the
#: cache entries holding them.  Untagged entries are schema 1 (they may still
#: carry inline ``engine_results``); an entry tagged with a *newer* schema
#: than this reader knows counts as a miss.
SCHEMA = 2


def dumps_compact(document) -> str:
    """Compact JSON text (no indent, so the C encoder does the work)."""
    return json.dumps(document, separators=(",", ":"))


class JobCache:
    """Directory-backed result store keyed by job content hashes.

    Besides the envelope files, the cache owns an
    :class:`~repro.jobs.store.EngineStateStore` under
    ``<directory>/engine-state/`` — the only warm-start corpus: executions
    ingest what they computed into it, and engines attached to it read
    previously computed mappings and fixed-placement evaluations directly
    from disk, keyed.  Envelopes carry no engine state; :meth:`sync_store`
    folds in the inline exports of legacy (schema 1) entries.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: the keyed on-disk engine-state store (envelope files stay at the
        #: top level; the store's subtree never collides with the ``*.json``
        #: envelope glob)
        self.store = EngineStateStore(self.directory / "engine-state")
        #: number of lookups answered from disk / missed since construction
        self.hits = 0
        self.misses = 0
        #: number of results written since construction
        self.stores = 0
        #: entry file names :meth:`sync_store` need not read: the ones this
        #: instance wrote (they carry no exports) or already folded in
        self._synced: Set[str] = set()

    def path_for(self, key: str) -> Path:
        """The file one key's result lives in."""
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[Dict]:
        """The stored result document for a key, or ``None`` on a miss.

        Unreadable entries, non-object documents and entries tagged with a
        schema newer than :data:`SCHEMA` are misses; untagged legacy entries
        are hits.
        """
        target = self.path_for(key)
        try:
            document = json.loads(target.read_text())
        except (OSError, json.JSONDecodeError):
            document = None
        schema = document.get("schema", 1) if isinstance(document, dict) else None
        if not isinstance(schema, int) or schema > SCHEMA:
            self.misses += 1
            return None
        self.hits += 1
        return document

    def put(self, key: str, document: Dict) -> Path:
        """Atomically store one result document; returns the path written."""
        target = self.path_for(key)
        scratch = target.with_suffix(f".tmp.{os.getpid()}")
        scratch.write_text(dumps_compact(document))
        os.replace(scratch, target)
        self._synced.add(target.name)
        self.stores += 1
        return target

    def sync_store(self) -> Dict[str, int]:
        """Fold legacy envelope-borne engine exports into the engine-state store.

        Schema 1 entries (written before the store existed, or by writers
        that only dropped result documents) carry their engine exports
        inline as ``engine_results``; this reads the entries not seen yet —
        skipping the ones this instance wrote or already read — and ingests
        those exports into :attr:`store`, after which store-attached engines
        can read them keyed.  Idempotent: the store skips keys it already
        holds.  The hit/miss counters are left untouched (syncing is not a
        lookup).
        """
        exports = []
        for stored in sorted(self.directory.glob("*.json")):
            if stored.name in self._synced:
                continue
            try:
                document = json.loads(stored.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            self._synced.add(stored.name)
            if not isinstance(document, dict):
                continue
            entries = document.get("engine_results")
            if isinstance(entries, list):
                exports.extend(entry for entry in entries if isinstance(entry, dict))
        return self.store.ingest(exports)

    def keys(self) -> Iterator[str]:
        """All keys currently stored."""
        for entry in sorted(self.directory.glob("*.json")):
            yield entry.stem

    def clear(self) -> int:
        """Delete every stored result; returns how many were removed."""
        removed = 0
        for entry in self.directory.glob("*.json"):
            entry.unlink()
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobCache({str(self.directory)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )

"""Content-addressed result cache for the run service.

Every cacheable request is reduced to a canonical JSON payload and
hashed through the same SHA-256 machinery that pins the golden traces
(:func:`repro.verify.golden.trajectory_digest`), together with a digest
of the ``repro`` package sources.  The resulting key identifies
*(configuration, seed, code version)*: any change to the request, the
master seed, or the library itself produces a different key, so a cache
hit is guaranteed to be the bit-identical artifact a recomputation would
produce (engines are deterministic given a seed).

Entries are JSON files under ``<cache_dir>/<key[:2]>/<key>.json`` — the
two-character fan-out keeps directories small under sustained load.
Unseeded requests (``seed=None`` draws OS entropy) are never cached.
"""

from __future__ import annotations

import json
import pathlib
import threading
from typing import Dict, Optional, Union

import numpy as np

from ..verify.golden import trajectory_digest

__all__ = ["canonical_key", "code_version", "ResultCache"]

PathLike = Union[str, pathlib.Path]

_CODE_VERSION: Optional[str] = None
_CODE_VERSION_LOCK = threading.Lock()


def _text_digest(text: str) -> str:
    """Route a canonical text payload through :func:`trajectory_digest`.

    The golden-trace hasher digests numeric arrays only, so the UTF-8
    bytes are presented as a ``uint8`` array — same canonical encoding
    (dtype kind + shape + raw bytes), same SHA-256.
    """
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    return trajectory_digest(data)


def code_version() -> str:
    """Digest of every ``repro`` package source file (content-addressed).

    Cached after the first call: the sources cannot change under a
    running process, and a restarted process recomputes honestly.
    """
    global _CODE_VERSION
    if _CODE_VERSION is not None:
        return _CODE_VERSION
    with _CODE_VERSION_LOCK:
        if _CODE_VERSION is None:
            package = pathlib.Path(__file__).resolve().parents[1]
            parts = []
            for path in sorted(package.rglob("*.py")):
                relative = path.relative_to(package).as_posix()
                parts.append(f"{relative}\0{path.read_text(encoding='utf-8')}")
            _CODE_VERSION = _text_digest("\0\0".join(parts))
    return _CODE_VERSION


def canonical_key(kind: str, request: Dict[str, object]) -> str:
    """The cache key for one request: hash of (kind, request, code).

    ``request`` must already be normalized (defaults resolved, transport
    options like ``wait`` stripped) so equivalent requests collide; the
    canonical form is sorted-key compact JSON.
    """
    payload = {
        "kind": kind,
        "request": request,
        "code_version": code_version(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _text_digest(text)


class ResultCache:
    """On-disk content-addressed store of service result envelopes.

    Thread-safe; hit/miss/store/corrupt counters feed the ``/health``
    endpoint and the load benchmark's cache-speedup measurement.
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored envelope for ``key``, or ``None`` on a miss.

        An entry that does not parse as a JSON object (a truncated or
        otherwise damaged file) is a miss: it is moved aside as
        ``<key>.corrupt`` and counted, so the next :meth:`put` stores
        the key afresh.
        """
        path = self._path(key)
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            damaged = not isinstance(envelope, dict)
        except FileNotFoundError:
            envelope, damaged = None, False
        except ValueError:  # truncated JSON or undecodable bytes
            envelope, damaged = None, True
        if damaged:
            envelope = None
            self._quarantine(path)
        with self._lock:
            if envelope is None:
                self.misses += 1
            else:
                self.hits += 1
        return envelope

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a damaged entry aside as ``<key>.corrupt``."""
        try:
            path.replace(path.with_suffix(".corrupt"))
        except FileNotFoundError:
            return  # another reader moved it first
        with self._lock:
            self.corrupt += 1

    def put(self, key: str, envelope: Dict[str, object]) -> pathlib.Path:
        """Store ``envelope`` under ``key`` (atomic rename on POSIX)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_suffix(".tmp")
        temp.write_text(
            json.dumps(envelope, sort_keys=True) + "\n", encoding="utf-8"
        )
        temp.replace(path)
        with self._lock:
            self.stores += 1
        return path

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    @property
    def entries(self) -> int:
        """Number of cached envelopes currently on disk."""
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def stats(self) -> Dict[str, object]:
        """Counter snapshot for ``/health`` and the benchmarks."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt": self.corrupt,
                "entries": self.entries,
                "directory": str(self.directory),
            }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.directory.glob("*/*.json")):
            path.unlink()
            removed += 1
        return removed

"""Content-addressed compile cache: in-memory LRU tier + disk tier.

A cache key is the SHA-256 of a canonical JSON payload covering
everything that can change a compile's outcome: the kernel text (mini-C
source or printed IR), the full :class:`VectorizerConfig` (including the
budget and the score function, by qualified name), the cost-model
target's :class:`TargetDescription`, the pipeline name, the guard/verify
settings, and the repro version — so a new repro release or a tweaked
opcode cost can never serve a stale artifact.  Keys are process-stable
(pure content hashing, no Python ``hash()``), which the cross-process
tests assert.

Entries store the *printed* IR plus the serialized
:class:`VectorizationReport` and diagnostics; a disk entry is only
served after the IR rehydrates through :func:`repro.ir.parser`, so a
corrupted or truncated file degrades to a miss, never a crash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .. import __version__ as REPRO_VERSION
from ..costmodel.tti import TargetCostModel
from ..robustness.faults import ServiceFaultPlan
from ..slp.vectorizer import VectorizerConfig
from .serde import canonical_json

#: bump when the entry layout changes; old entries become misses
#: (schema 2: execution-backend fields — ``backend`` and the generated
#: ``repro.backend`` source ride the artifact)
CACHE_SCHEMA = 2

#: default on-disk location, relative to the working directory
DEFAULT_CACHE_DIR = ".lslp-cache"


# ---------------------------------------------------------------------------
# Key computation
# ---------------------------------------------------------------------------


def _function_fingerprint(fn: Any) -> str:
    module = getattr(fn, "__module__", "")
    name = getattr(fn, "__qualname__", getattr(fn, "__name__", repr(fn)))
    return f"{module}.{name}"


def config_fingerprint(config: VectorizerConfig) -> dict[str, Any]:
    """Every config field, with callables reduced to qualified names and
    nested dataclasses (the budget) expanded to their fields."""
    fingerprint: dict[str, Any] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if callable(value):
            value = _function_fingerprint(value)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = dataclasses.asdict(value)
        fingerprint[f.name] = value
    return fingerprint


def target_fingerprint(target: TargetCostModel) -> dict[str, Any]:
    return dataclasses.asdict(target.desc)


def compute_key(payload_kind: str, payload: str,
                config: VectorizerConfig, target: TargetCostModel,
                pipeline: str = "default",
                extra: Optional[dict[str, Any]] = None) -> str:
    """Stable content hash for one (kernel, configuration) compile.

    ``payload_kind`` is ``"source"`` (mini-C text) or ``"ir"`` (printed
    IR); the two never collide even for identical text.
    """
    document = {
        "schema": CACHE_SCHEMA,
        "repro": REPRO_VERSION,
        "pipeline": pipeline,
        "payload_kind": payload_kind,
        "payload": payload,
        "config": config_fingerprint(config),
        "target": target_fingerprint(target),
        "extra": extra or {},
    }
    blob = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


class StaleSchemaError(ValueError):
    """An on-disk entry written by an older (or newer) cache schema.

    Distinct from corruption: the entry is intact, just from a
    different era.  :class:`DiskCache` treats it as a clean miss and
    counts it under ``stale_schema`` rather than ``corrupt``."""


def _content_checksum(data: dict[str, Any]) -> str:
    """SHA-256 over an entry's canonical JSON, checksum field excluded."""
    blob = json.dumps({k: v for k, v in data.items() if k != "checksum"},
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    """One compiled artifact: printed IR + diagnostics, JSON-friendly."""

    key: str
    name: str                      #: job name (kernel / suite / file)
    config_name: str
    ir_text: str                   #: printed module after compilation
    report: dict[str, Any]         #: serde.report_to_dict form
    remarks: list[dict[str, Any]] = field(default_factory=list)
    rolled_back: list[str] = field(default_factory=list)
    compile_seconds: float = 0.0
    static_cost: int = 0
    #: execution backend the artifact was produced/verified for
    #: ("interp" | "compiled" | "auto")
    backend: str = "interp"
    #: flat Python source from :mod:`repro.backend.emit`; empty
    #: for interpreter-only artifacts.  A warm hit hands this straight
    #: to :func:`repro.backend.runtime.load_compiled` — zero re-emits.
    generated_source: str = ""
    schema: int = CACHE_SCHEMA

    def to_json(self) -> str:
        data = dataclasses.asdict(self)
        # An end-to-end integrity checksum: the rehydrate check catches
        # structural damage, but a flipped bit deep inside the IR text
        # can still parse — the checksum is what turns *any* on-disk
        # corruption into a miss instead of a silently stale artifact.
        data["checksum"] = _content_checksum(data)
        return json.dumps(data, sort_keys=True, indent=1)

    @staticmethod
    def from_json(text: str) -> "CacheEntry":
        data = json.loads(text)
        if data.get("schema") != CACHE_SCHEMA:
            raise StaleSchemaError(
                f"cache schema {data.get('schema')!r} != {CACHE_SCHEMA}"
            )
        # The checksum is mandatory: a flipped bit in the *field name*
        # would otherwise silently disarm verification.
        checksum = data.pop("checksum", None)
        if checksum != _content_checksum(data):
            raise ValueError("cache entry checksum mismatch")
        field_names = {f.name for f in dataclasses.fields(CacheEntry)}
        return CacheEntry(**{k: v for k, v in data.items()
                             if k in field_names})


# ---------------------------------------------------------------------------
# Tiers
# ---------------------------------------------------------------------------


class MemoryCache:
    """Bounded LRU of :class:`CacheEntry` objects."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()


class DiskCache:
    """One JSON file per entry under ``root/<key[:2]>/<key>.json``.

    Writes are atomic (temp file + rename); reads validate the schema,
    the embedded key, and — via the caller's rehydration hook — that the
    stored IR still parses.  Any failure deletes the bad file
    best-effort and reports a miss.
    """

    def __init__(self, root: os.PathLike | str = DEFAULT_CACHE_DIR,
                 fault_plan: Optional[ServiceFaultPlan] = None):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        #: intact entries from an older/newer schema: clean misses,
        #: never counted as corruption
        self.stale_schema = 0
        #: armed chaos sites (``cache-corrupt``/``cache-enospc``/
        #: ``cache-slow``), deterministic per key; ``faults_fired``
        #: records what actually fired so chaos runs can assert
        #: coverage
        self.fault_plan = fault_plan
        self.faults_fired: list[tuple[str, str]] = []

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _fires(self, site: str, key: str) -> bool:
        if self.fault_plan is None or not self.fault_plan.fires(site, key):
            return False
        self.faults_fired.append((site, key))
        return True

    def get(self, key: str) -> Optional[CacheEntry]:
        if self._fires("cache-slow", key):
            time.sleep(min(self.fault_plan.duration("cache-slow"), 1.0))
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        except UnicodeDecodeError:
            # Bit rot can make the file unreadable as UTF-8 before it
            # is unreadable as JSON; same treatment as any corruption.
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            entry = CacheEntry.from_json(text)
            if entry.key != key:
                raise ValueError(f"entry key {entry.key!r} != {key!r}")
            _rehydrate_check(entry)
        except StaleSchemaError:
            # A pre-existing cache directory from an older release: the
            # entry is healthy, just obsolete.  Recompile (miss) and
            # let the write-through replace the file.
            self.stale_schema += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        except Exception:
            # Corrupted / truncated / stale-schema entry: drop it and
            # treat the lookup as a miss — never crash a compile.
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        path = self._path(key)
        text = entry.to_json()
        if self._fires("cache-corrupt", key):
            # A torn write: the rename is atomic but the payload is
            # garbage.  The next read must degrade to a miss.
            text = text[:max(8, len(text) // 3)]
        try:
            if self._fires("cache-enospc", key):
                raise OSError(28, "No space left on device (injected)")
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            # A read-only or full disk degrades to memory-only caching.
            pass


def _rehydrate_check(entry: CacheEntry) -> None:
    """A disk entry must round-trip through the IR parser to be served."""
    from ..ir.parser import parse_module

    parse_module(entry.ir_text)


# ---------------------------------------------------------------------------
# Combined cache
# ---------------------------------------------------------------------------


class CompileCache:
    """Memory LRU in front of an optional disk tier.

    Disk hits are promoted into the memory tier; stores write through to
    both.  ``memory_capacity=0``-style configurations are expressed by
    passing ``memory=None``.
    """

    def __init__(self, memory: Optional[MemoryCache] = None,
                 disk: Optional[DiskCache] = None,
                 memory_capacity: int = 256):
        if memory is None and memory_capacity > 0:
            memory = MemoryCache(memory_capacity)
        self.memory = memory
        self.disk = disk
        self.stores = 0

    @staticmethod
    def with_disk(root: os.PathLike | str = DEFAULT_CACHE_DIR,
                  memory_capacity: int = 256) -> "CompileCache":
        return CompileCache(disk=DiskCache(root),
                            memory_capacity=memory_capacity)

    def get(self, key: str) -> tuple[Optional[CacheEntry], str]:
        """``(entry, tier)``; tier is ``"memory"``, ``"disk"`` or ``""``."""
        if self.memory is not None:
            entry = self.memory.get(key)
            if entry is not None:
                return entry, "memory"
        if self.disk is not None:
            entry = self.disk.get(key)
            if entry is not None:
                if self.memory is not None:
                    self.memory.put(key, entry)
                return entry, "disk"
        return None, ""

    def put(self, key: str, entry: CacheEntry) -> None:
        self.stores += 1
        if self.memory is not None:
            self.memory.put(key, entry)
        if self.disk is not None:
            self.disk.put(key, entry)


__all__ = [
    "CACHE_SCHEMA",
    "CacheEntry",
    "CompileCache",
    "compute_key",
    "config_fingerprint",
    "DEFAULT_CACHE_DIR",
    "DiskCache",
    "MemoryCache",
    "StaleSchemaError",
    "target_fingerprint",
]

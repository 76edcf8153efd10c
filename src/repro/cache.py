"""Content-addressed artifact cache with pluggable storage backends.

Everything the pipeline computes — dynamic traces, CritIC profiles, and
simulation statistics — is a pure function of a small parameter record
(workload profile + walk length + scheme + finder config + CPU config).
This module keys each artifact by the SHA-256 of that record's canonical
JSON and stores it through a narrow :class:`CacheBackend`:

* ``local`` (:class:`LocalBackend`) — today's on-disk layout::

      $REPRO_CACHE_DIR/v<SCHEMA_VERSION>/<kind>/<hh>/<hash>.<ext>

  (default root ``~/.cache/repro``), byte-identical to every previous
  schema-v3 cache, written atomically (tmp file + ``os.replace``) so
  concurrent runners never observe torn files.
* ``remote`` (:class:`RemoteBackend`) — a read-through client that
  fetches blobs from a ``repro.serve`` cache endpoint over the
  :mod:`repro.dispatch.wire` framing and writes them back into the
  local tier.  An unreachable or misbehaving server degrades to a
  miss (compute locally, write locally) — never an exception.
* ``tiered`` (:class:`TieredBackend`) — local-over-remote composition:
  answer from disk when possible, fall back to the network, write back
  what the network served.

The backend is selected by the ``REPRO_CACHE_BACKEND`` spec::

    local                     today's directory store (the default)
    local:/other/root         same, rooted elsewhere
    remote:host:7017          read-through against a serve wire front
    tiered:host:7017?token=s  local first, then the remote tier

and is recorded in run manifests for provenance — but never enters
``config_hash``: *where* an artifact came from cannot change *what* it
is (keys are content addresses).

Traces are stored in the columnar ``# repro-trace v2`` format of
:mod:`repro.trace.trace_io`: a JSON table of the distinct static
instructions plus one packed base64 column per entry field (static
index, pc, memory address, branch outcome, and ``seq`` unless it is
dense), sealed by a CRC-32 trailer.  A warm load rebuilds each static
``Instruction`` once instead of re-parsing an assembly line per dynamic
instruction.  :meth:`ArtifactCache.load_trace` picks the reader from
the blob's first line rather than from the key, so v1 text artifacts
written under the same keys by earlier code still load: the format
change needs no :data:`SCHEMA_VERSION` bump and no backend change
(blobs stay ASCII text).  The ``cache.encode_trace`` and
``cache.decode_trace`` phases time the formatting apart from the IO in
``cache.store_trace``/``cache.load_trace``.

Invalidation is structural: any change to the parameter record changes
the key, and incompatible changes to the *artifact formats or the
pipeline semantics themselves* are handled by bumping
:data:`SCHEMA_VERSION`, which moves the whole store to a fresh ``v<N>/``
namespace.  Corrupt blobs — from disk or from the remote tier — degrade
to a miss with a ``cache.corrupt`` trail, identically for every backend,
because parsing happens above the backend seam.

Set ``REPRO_CACHE=0`` to disable the cache entirely (every lookup misses
and nothing is written); ``REPRO_CACHE_DIR`` relocates the local store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import socket
import tempfile
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Any, Dict, List, Optional, Protocol

from repro import telemetry
from repro.cpu.stats import SimStats
from repro.profiler.profile_table import CriticProfile
from repro.trace.dynamic import Trace
from repro.trace.trace_io import decode_artifact, encode_columnar

#: Bump on any change that invalidates previously stored artifacts
#: (trace format, generator semantics, simulator accounting, ...).
#: v2: SimStats gained ``truncated`` and per-prefetcher issue counters,
#: and ``prefetches_issued`` became the sum of both prefetchers (it was
#: last-writer-wins when CLPT and EFetch were enabled together).
#: v3: the component registry landed — scheme/stats keys now fold in the
#: versioned component identities (``critic@1``, ``two-level@1``, ...)
#: and SimStats gained ``component_counters``; the key-record shape
#: changed for every scheme trace and stats artifact.
SCHEMA_VERSION = 3

ENV_DIR = "REPRO_CACHE_DIR"
ENV_ENABLE = "REPRO_CACHE"
ENV_BACKEND = "REPRO_CACHE_BACKEND"
ENV_TOKEN = "REPRO_CACHE_TOKEN"

#: Shared-secret fallback: a fleet token usually guards the same serve
#: front the cache tier reads from (kept in sync with
#: ``repro.dispatch.fleet.ENV_TOKEN``).
_ENV_FLEET_TOKEN = "REPRO_FLEET_TOKEN"

#: Seconds a remote tier stays benched after a connect/protocol failure
#: before the next lookup tries the network again — one dead server
#: must not tax every single artifact lookup with a connect timeout.
REMOTE_COOLDOWN_S = 5.0

#: Socket timeout for remote-tier connects and round-trips, seconds.
REMOTE_TIMEOUT_S = 10.0

_DEFAULT_DIR = os.path.join("~", ".cache", "repro")

#: file extension per artifact kind (anything else stores as .json blobs)
_EXT = {"trace": "trace", "critic_profile": "json", "stats": "json"}
_DEFAULT_EXT = "json"


def _canonical(obj: Any) -> Any:
    """Reduce a parameter object to JSON-stable primitives."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_canonical(v) for v in obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"unhashable cache parameter: {obj!r}")


def artifact_key(kind: str, **params: Any) -> str:
    """SHA-256 content key over ``kind`` + params + schema version."""
    record = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "params": _canonical(params),
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- the backend seam --------------------------------------------------------


class CacheBackend(Protocol):
    """Narrow storage surface every cache tier implements.

    Blobs are opaque text — parsing (and therefore corrupt-degrade)
    belongs to :class:`ArtifactCache`, above this seam.  ``get`` returns
    ``None`` for any miss, including storage errors: backends degrade,
    they never raise into the pipeline.
    """

    name: str

    def get(self, kind: str, key: str) -> Optional[str]: ...

    def put(self, kind: str, key: str, text: str) -> None: ...

    def delete(self, kind: str, key: str) -> bool: ...

    def list(self, kind: str) -> List[str]: ...

    def describe(self) -> str: ...


class LocalBackend:
    """The on-disk directory store (today's layout, byte-identical)."""

    name = "local"

    def __init__(self, root: str) -> None:
        self.root = Path(os.path.expanduser(str(root)))

    def path_for(self, kind: str, key: str) -> Path:
        """Where the artifact for ``key`` lives (may not exist yet)."""
        ext = _EXT.get(kind, _DEFAULT_EXT)
        return (self.root / f"v{SCHEMA_VERSION}" / kind / key[:2]
                / f"{key}.{ext}")

    def get(self, kind: str, key: str) -> Optional[str]:
        try:
            return self.path_for(kind, key).read_text()
        except (OSError, UnicodeDecodeError):
            return None

    def put(self, kind: str, key: str, text: str) -> None:
        path = self.path_for(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=path.suffix,
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full cache dir degrades to a no-op, not a crash.
            pass

    def delete(self, kind: str, key: str) -> bool:
        try:
            self.path_for(kind, key).unlink()
            return True
        except OSError:
            return False

    def list(self, kind: str) -> List[str]:
        base = self.root / f"v{SCHEMA_VERSION}" / kind
        if not base.exists():
            return []
        return sorted(
            path.stem for path in base.rglob("*")
            if path.is_file() and not path.name.startswith(".tmp-")
        )

    def describe(self) -> str:
        return f"local:{self.root}"

    def clear(self) -> int:
        """Delete every artifact in the current schema namespace.

        Returns the number of *artifacts* removed.  Orphaned ``.tmp-*``
        files left behind by interrupted atomic writes are deleted too,
        but never counted — they were never artifacts.
        """
        removed = 0
        base = self.root / f"v{SCHEMA_VERSION}"
        if not base.exists():
            return 0
        for path in sorted(base.rglob("*"), reverse=True):
            try:
                if path.is_dir():
                    path.rmdir()
                else:
                    path.unlink()
                    if not path.name.startswith(".tmp-"):
                        removed += 1
            except OSError:
                pass
        return removed


class RemoteTier:
    """Blocking wire-framed client for a serve cache endpoint.

    One lazily-opened connection, guarded by a lock (artifact lookups
    come from event-loop threads and worker pools alike).  Every failure
    mode — connect refused, timeout, protocol garbage, auth denial —
    degrades to a miss and benches the tier for ``cooldown_s``, so an
    unreachable server costs one connect attempt per cooldown window,
    not one per artifact.
    """

    def __init__(self, host: str, port: int, token: str = "",
                 timeout_s: float = REMOTE_TIMEOUT_S,
                 cooldown_s: float = REMOTE_COOLDOWN_S) -> None:
        self.host = host
        self.port = int(port)
        self.token = token
        self.timeout_s = timeout_s
        self.cooldown_s = cooldown_s
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._down_until = 0.0

    def fetch(self, kind: str, key: str) -> Optional[str]:
        """One remote lookup; returns the blob text or ``None``."""
        with self._lock:
            if time.monotonic() < self._down_until:
                return None
            try:
                reply = self._request({
                    "type": "cache.get", "kind": kind, "key": key,
                    "token": self.token,
                })
            except Exception as exc:
                self._fail(kind, key, f"{type(exc).__name__}: {exc}")
                return None
            if not isinstance(reply, dict) \
                    or reply.get("type") != "cache.blob":
                got = reply.get("type") if isinstance(reply, dict) \
                    else type(reply).__name__
                self._fail(kind, key, f"unexpected reply {got!r}")
                return None
        if reply.get("hit"):
            telemetry.inc("repro_cache_remote_requests_total",
                          help="Remote cache-tier lookups by outcome.",
                          kind=kind, result="hit")
            telemetry.emit("cache.remote.hit", artifact=kind,
                           key=key[:12])
            return reply.get("text")
        telemetry.inc("repro_cache_remote_requests_total",
                      help="Remote cache-tier lookups by outcome.",
                      kind=kind, result="miss")
        telemetry.emit("cache.remote.miss", artifact=kind, key=key[:12])
        return None

    def _request(self, message: Dict[str, Any]) -> Any:
        from repro.dispatch import wire

        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s)
        wire.send_msg(self._sock, message)
        return wire.recv_msg(self._sock)

    def _fail(self, kind: str, key: str, error: str) -> None:
        """Bench the tier: close the socket, start the cooldown, leave
        a trail — silent network degradation is how warm tiers rot."""
        self.close()
        self._down_until = time.monotonic() + self.cooldown_s
        telemetry.inc("repro_cache_remote_requests_total",
                      help="Remote cache-tier lookups by outcome.",
                      kind=kind, result="error")
        telemetry.emit("cache.remote.error", artifact=kind,
                       key=key[:12], error=error,
                       host=self.host, port=self.port)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


class RemoteBackend:
    """Read-through remote tier with local write-back.

    Reads go to the network first; a hit is written back into the local
    tier (so the *next* run answers from disk even if the server is
    gone) and a miss — or any network failure — falls through to a
    plain miss: the caller computes and ``put`` lands locally.
    """

    name = "remote"

    def __init__(self, local: LocalBackend, tier: RemoteTier) -> None:
        self.local = local
        self.tier = tier

    def get(self, kind: str, key: str) -> Optional[str]:
        text = self.tier.fetch(kind, key)
        if text is not None:
            self.local.put(kind, key, text)
        return text

    def put(self, kind: str, key: str, text: str) -> None:
        self.local.put(kind, key, text)

    def delete(self, kind: str, key: str) -> bool:
        return self.local.delete(kind, key)

    def list(self, kind: str) -> List[str]:
        return self.local.list(kind)

    def describe(self) -> str:
        return f"{self.name}:{self.tier.host}:{self.tier.port}"

    def close(self) -> None:
        self.tier.close()


class TieredBackend(RemoteBackend):
    """Local-over-remote composition: disk answers first, the remote
    tier backfills what disk doesn't have."""

    name = "tiered"

    def get(self, kind: str, key: str) -> Optional[str]:
        text = self.local.get(kind, key)
        if text is not None:
            return text
        return super().get(kind, key)


def parse_backend_spec(spec: str) -> Dict[str, Any]:
    """Parse a ``REPRO_CACHE_BACKEND`` spec string.

    Accepted shapes (query options: ``root``, ``token``, ``timeout_s``)::

        ""                      -> local, default root
        "local"                 -> local, default root
        "local:/some/root"      -> local, rooted there
        "remote:host:7017"      -> remote read-through
        "tiered:host:7017?root=/r&token=s" -> local over remote

    Raises :class:`ValueError` on an unknown mode, a missing host:port,
    or an unknown query option — a misspelled backend must fail loudly,
    not silently run uncached.
    """
    spec = (spec or "").strip()
    if not spec:
        return {"mode": "local", "root": None}
    mode, _, rest = spec.partition(":")
    if mode == "local":
        return {"mode": "local", "root": rest or None}
    if mode not in ("remote", "tiered"):
        raise ValueError(
            f"unknown cache backend {mode!r} in spec {spec!r} "
            f"(choose local, remote, or tiered)"
        )
    rest, _, query = rest.partition("?")
    host, _, port = rest.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            f"cache backend spec {spec!r} needs {mode}:HOST:PORT"
        )
    opts = {k: v[-1] for k, v in
            urllib.parse.parse_qs(query, keep_blank_values=True).items()}
    unknown = set(opts) - {"root", "token", "timeout_s"}
    if unknown:
        raise ValueError(
            f"unknown option(s) {sorted(unknown)} in cache backend "
            f"spec {spec!r} (choose from root, token, timeout_s)"
        )
    return {
        "mode": mode, "host": host, "port": int(port),
        "root": opts.get("root"), "token": opts.get("token"),
        "timeout_s": float(opts["timeout_s"])
        if "timeout_s" in opts else None,
    }


def backend_from_spec(spec: Optional[str] = None,
                      root: Optional[str] = None) -> CacheBackend:
    """Build a backend from a spec string (default: the env spec).

    An explicit ``root`` wins over the spec's ``?root=`` option wins
    over ``REPRO_CACHE_DIR`` — the same precedence
    :class:`ArtifactCache` always had for its local directory.
    """
    if spec is None:
        spec = os.environ.get(ENV_BACKEND, "")
    parsed = parse_backend_spec(spec)
    local_root = (root or parsed.get("root")
                  or os.environ.get(ENV_DIR) or _DEFAULT_DIR)
    local = LocalBackend(local_root)
    if parsed["mode"] == "local":
        return local
    token = parsed.get("token")
    if token is None:
        token = (os.environ.get(ENV_TOKEN)
                 or os.environ.get(_ENV_FLEET_TOKEN) or "")
    tier = RemoteTier(
        parsed["host"], parsed["port"], token=token,
        timeout_s=parsed.get("timeout_s") or REMOTE_TIMEOUT_S,
    )
    cls = TieredBackend if parsed["mode"] == "tiered" else RemoteBackend
    return cls(local, tier)


# -- the typed cache ---------------------------------------------------------


class ArtifactCache:
    """One typed artifact store over a :class:`CacheBackend`."""

    def __init__(self, root: Optional[str] = None,
                 enabled: Optional[bool] = None,
                 backend: Optional[CacheBackend] = None):
        if enabled is None:
            enabled = os.environ.get(ENV_ENABLE, "1") != "0"
        if backend is None:
            backend = backend_from_spec(root=root)
        self.backend = backend
        self._local: LocalBackend = getattr(backend, "local", backend)
        self.root = self._local.root
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    def backend_spec(self) -> str:
        """The backend identity recorded in manifests (provenance only —
        never part of ``config_hash``)."""
        return self.backend.describe()

    # -- paths ---------------------------------------------------------------

    def path_for(self, kind: str, key: str) -> Path:
        """Where the artifact for ``key`` lives in the *local* tier
        (may not exist yet)."""
        return self._local.path_for(kind, key)

    # -- generic text IO -----------------------------------------------------

    def _read(self, kind: str, key: str) -> Optional[str]:
        if not self.enabled:
            return None
        text = self.backend.get(kind, key)
        if text is None:
            self.misses += 1
            telemetry.count(f"cache.miss.{kind}")
            telemetry.inc("repro_cache_requests_total",
                          help="Artifact cache lookups by outcome.",
                          kind=kind, result="miss")
            telemetry.emit("cache.miss", artifact=kind, key=key[:12])
            return None
        self.hits += 1
        telemetry.count(f"cache.hit.{kind}")
        telemetry.inc("repro_cache_requests_total",
                      help="Artifact cache lookups by outcome.",
                      kind=kind, result="hit")
        telemetry.emit("cache.hit", artifact=kind, key=key[:12])
        return text

    def peek_local(self, kind: str, key: str) -> Optional[str]:
        """Raw local-tier read with no hit/miss accounting.

        The serve cache endpoint answers remote tiers through this, so
        serving a blob to host B never skews host A's own cache stats —
        and never recurses through host A's *own* remote tier.
        """
        if not self.enabled:
            return None
        return self._local.get(kind, key)

    def _corrupt(self, kind: str, key: str) -> None:
        """A stored artifact parsed as garbage: degrade to a miss, but
        leave a trail — silent corruption is how caches rot."""
        telemetry.count(f"cache.corrupt.{kind}")
        telemetry.inc("repro_cache_corrupt_total",
                      help="Cache artifacts that failed to parse and "
                           "degraded to a miss.",
                      kind=kind)
        telemetry.emit("cache.corrupt", artifact=kind, key=key[:12])

    def _write(self, kind: str, key: str, text: str) -> None:
        if not self.enabled:
            return
        self.backend.put(kind, key, text)

    # -- typed artifacts -----------------------------------------------------

    def load_trace(self, key: str) -> Optional[Trace]:
        """Load a trace in either format (the reader follows the blob's
        header line, so v1 text artifacts still load)."""
        with telemetry.phase("cache.load_trace"):
            text = self._read("trace", key)
            if text is None:
                return None
            try:
                with telemetry.phase("cache.decode_trace"):
                    return decode_artifact(text)
            except ValueError:
                self._corrupt("trace", key)
                return None  # torn/stale artifact: treat as a miss

    def store_trace(self, key: str, trace: Trace) -> None:
        """Store ``trace`` in the columnar v2 format."""
        if not self.enabled:
            return
        with telemetry.phase("cache.store_trace"):
            with telemetry.phase("cache.encode_trace"):
                text = encode_columnar(trace)
            self._write("trace", key, text)

    def load_profile(self, key: str) -> Optional[CriticProfile]:
        text = self._read("critic_profile", key)
        if text is None:
            return None
        try:
            return CriticProfile.from_json(text)
        except (ValueError, KeyError):
            self._corrupt("critic_profile", key)
            return None

    def store_profile(self, key: str, profile: CriticProfile) -> None:
        self._write("critic_profile", key, profile.to_json())

    def load_stats(self, key: str) -> Optional[SimStats]:
        text = self._read("stats", key)
        if text is None:
            return None
        try:
            return SimStats.from_dict(json.loads(text))
        except (ValueError, KeyError, TypeError):
            self._corrupt("stats", key)
            return None

    def store_stats(self, key: str, stats: SimStats) -> None:
        self._write("stats", key, json.dumps(stats.to_dict(), sort_keys=True))

    def load_json(self, kind: str, key: str) -> Optional[Any]:
        """Load an arbitrary JSON artifact (derived analysis results)."""
        text = self._read(kind, key)
        if text is None:
            return None
        try:
            return json.loads(text)
        except ValueError:
            self._corrupt(kind, key)
            return None

    def store_json(self, kind: str, key: str, payload: Any) -> None:
        self._write(kind, key, json.dumps(payload, sort_keys=True))

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> int:
        """Delete every artifact in the local tier's current schema
        namespace (see :meth:`LocalBackend.clear`)."""
        return self._local.clear()

    def close(self) -> None:
        """Release backend resources (the remote tier's socket)."""
        closer = getattr(self.backend, "close", None)
        if closer is not None:
            closer()


_default: Optional[ArtifactCache] = None


def get_cache() -> ArtifactCache:
    """The process-wide cache (constructed from the env on first use)."""
    global _default
    if _default is None:
        _default = ArtifactCache()
    return _default


def reset_cache() -> None:
    """Drop the process-wide cache so the next use re-reads the env."""
    global _default
    if _default is not None:
        _default.close()
    _default = None

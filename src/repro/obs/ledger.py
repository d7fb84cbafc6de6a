"""The analysis ledger — append-only provenance for every safety analysis.

The paper's end state (§8) has FMEDA results serving as assurance-case
evidence with machine-executable queries *re-evaluated on change*.  That
requires knowing, for every analysis result, exactly which model and
configuration produced it, whether it is stale, and what changed between
iterations.  This module supplies the storage half of that story:

- :class:`LedgerEntry` — one provenance record: kind of analysis, content
  digests of the model and reliability data, the campaign fingerprint
  (reused from :func:`repro.safety.resilience.campaign_fingerprint`), the
  analysis configuration, per-row outcome digests, the SPFM/ASIL verdict, a
  snapshot of key execution metrics, the repo's ``git describe``, and a
  pointer into the trace file when ``--trace`` was on;
- :class:`AnalysisLedger` — an append-only JSONL store of entries, tolerant
  of corrupt lines (a crash mid-write must not poison history), with
  reference resolution (entry id, unique id prefix, ``@N`` sequence,
  negative indices) and artifact attachment records that link an entry to
  the workbook exported from it;
- :class:`LedgerIndex` — a persistent sidecar index (``<ledger>.idx``) of
  byte offsets keyed by entry id, ``meta.service_cache_key`` and
  ``(kind, system)``, appended incrementally on every write and validated
  against a (size, line-count, tail-digest) stamp on load — so lookups
  seek straight to the lines they need instead of re-parsing the whole
  history, and the cost of a cache hit stays O(1) as the ledger grows;
- ``record_fmea`` / ``record_fmeda`` / ``record_optimizer`` /
  ``record_iteration`` — builders that derive an entry from an analysis
  result plus its inputs.

Entries are deterministic modulo timestamps: the :attr:`~LedgerEntry.
content_digest` covers only what the analysis *computed* (digests, config,
verdicts, per-row outcomes), never when or how fast it ran, so re-running
the same model + config appends an entry with an identical digest and
``repro diff`` between the two reports no changes.

Every ``append`` emits a zero-duration ``ledger.record`` span carrying the
entry id (when observability is enabled), and the entry stores the id of
the span that was current at record time — a trace file and its ledger
entry are mutually resolvable.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs

#: Ledger line schema version.
_VERSION = 1

#: Float fields are digested after rounding to this many significant
#: decimals, so a verdict re-derived through a different (but numerically
#: equivalent) code path cannot flip the content digest on noise.
_DIGEST_DECIMALS = 9


class LedgerError(Exception):
    """Raised for unreadable ledgers or unresolvable entry references."""


def canonicalizer(
    float_decimals: Optional[int] = None,
) -> Callable[[object], object]:
    """A function giving the JSON-stable view of digest inputs.

    Mappings become ``str``-keyed dicts, lists and tuples become lists,
    JSON primitives pass through, anything else becomes its ``repr``;
    floats are rounded to ``float_decimals`` when it is given.  The view
    is meant for ``json.dumps(..., sort_keys=True)``, which orders the
    keys itself, so dicts keep insertion order here: coercing keys with
    ``str()`` first keeps last-wins on keys that collide as strings
    exactly as sorting them first would.  Exact built-in types take a
    fast path; subclasses (``Mapping`` implementations, numpy scalars,
    ...) take the general ``isinstance`` path, with the same result.
    """
    leaf = frozenset(
        (str, int, bool, type(None))
        + (() if float_decimals is not None else (float,))
    )

    def canonical(value: object) -> object:
        kind = type(value)
        if kind in leaf:
            return value
        # Leaves and rounded floats are handled inline: a call per scalar
        # would cost more than everything else here.
        if kind is dict:
            return {
                str(k): v if (t := type(v)) in leaf
                else round(v, float_decimals) if t is float
                else canonical(v)
                for k, v in value.items()  # type: ignore[union-attr]
            }
        if kind is list or kind is tuple:
            return [
                v if (t := type(v)) in leaf
                else round(v, float_decimals) if t is float
                else canonical(v)
                for v in value  # type: ignore[union-attr]
            ]
        if kind is float:
            return round(value, float_decimals)  # type: ignore[call-overload]
        return general(value)

    def general(value: object) -> object:
        if isinstance(value, Mapping):
            return {
                str(k): canonical(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
            }
        if isinstance(value, (list, tuple)):
            return [canonical(v) for v in value]
        if float_decimals is not None and isinstance(value, float):
            return round(value, float_decimals)
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        return repr(value)

    return canonical


#: JSON-stable view of ledger digest inputs (floats rounded).
_canonical = canonicalizer(_DIGEST_DECIMALS)


def content_digest_of(payload: object) -> str:
    """SHA-256 over the canonical JSON form of ``payload``."""
    blob = json.dumps(
        _canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def model_digest(model: object) -> str:
    """Content hash of a design model, or ``""`` when not serialisable.

    Accepts anything with a ``to_dict`` method (:class:`SimulinkModel`,
    :class:`SSAMModel`) and falls back to the metamodel serializer for raw
    SSAM elements — the same notion of identity the DECISIVE loop uses for
    its FMEA cache.
    """
    if model is None:
        return ""
    payload = None
    to_dict = getattr(model, "to_dict", None)
    if callable(to_dict):
        try:
            payload = to_dict()
        except Exception:  # noqa: BLE001 — digesting must never abort a run
            payload = None
    if payload is None:
        try:
            from repro.metamodel import MetamodelError, ModelResource

            payload = ModelResource().to_dict(model)
        except Exception:  # noqa: BLE001
            return ""
    try:
        return content_digest_of(payload)
    except (TypeError, ValueError):
        return ""


def reliability_digest(reliability: object) -> str:
    """Content hash of a reliability model's entries, or ``""``."""
    if reliability is None:
        return ""
    try:
        payload = [
            {
                "class": entry.component_class,
                "fit": entry.fit,
                "modes": [
                    (m.name, m.distribution, m.nature)
                    for m in entry.failure_modes
                ],
            }
            for entry in sorted(
                reliability.entries(), key=lambda e: e.component_class
            )
        ]
    except Exception:  # noqa: BLE001
        return ""
    return content_digest_of(payload)


_GIT_DESCRIBE: Optional[str] = None


def git_describe() -> str:
    """``git describe --always --dirty`` of the working tree (cached)."""
    global _GIT_DESCRIBE
    if _GIT_DESCRIBE is None:
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                capture_output=True,
                text=True,
                timeout=5,
            )
            _GIT_DESCRIBE = out.stdout.strip() if out.returncode == 0 else ""
        except (OSError, subprocess.SubprocessError):
            _GIT_DESCRIBE = ""
    return _GIT_DESCRIBE


# -- entries -----------------------------------------------------------------


@dataclass
class LedgerEntry:
    """One provenance record: what produced an analysis result, and what
    the result was.  ``metrics``, ``timestamp``, ``git``, ``trace`` and
    ``artifacts`` are execution circumstances and deliberately excluded
    from the content digest."""

    kind: str  # 'fmea' | 'fmeda' | 'optimizer' | 'decisive-iteration' | ...
    system: str
    spfm: Optional[float] = None
    asil: Optional[str] = None
    model_digest: str = ""
    reliability_digest: str = ""
    fingerprint: str = ""  # campaign fingerprint ('' for graph analyses)
    config: Dict[str, object] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)
    row_digests: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    git: str = ""
    timestamp: float = 0.0
    trace: str = ""
    trace_span: Optional[int] = None
    artifacts: List[str] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    #: Position in the ledger file; assigned on append/read, not digested.
    seq: int = -1

    @property
    def content_digest(self) -> str:
        """Digest over everything the analysis *determined* (not timing)."""
        return content_digest_of(
            {
                "kind": self.kind,
                "system": self.system,
                "spfm": self.spfm,
                "asil": self.asil,
                "model": self.model_digest,
                "reliability": self.reliability_digest,
                "fingerprint": self.fingerprint,
                "config": self.config,
                "row_digests": self.row_digests,
            }
        )

    @property
    def entry_id(self) -> str:
        return f"{self.kind}-{self.content_digest[:12]}"

    def to_dict(self) -> Dict[str, object]:
        """The entry's ledger-line payload, with its content digest
        computed once.

        Shallow: nested values are the entry's own objects, which the
        line's ``json.dumps`` serialises as they are — a deep copy of every
        row would cost more than the write.
        """
        payload = {name: getattr(self, name) for name in _ENTRY_FIELDS}
        digest = self.content_digest
        payload["v"] = _VERSION
        payload["type"] = "entry"
        payload["id"] = f"{self.kind}-{digest[:12]}"
        payload["digest"] = digest
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, object], seq: int = -1) -> "LedgerEntry":
        fields = {
            key: data[key]
            for key in (
                "kind", "system", "spfm", "asil", "model_digest",
                "reliability_digest", "fingerprint", "config", "rows",
                "row_digests", "metrics", "git", "timestamp", "trace",
                "trace_span", "artifacts", "meta",
            )
            if key in data
        }
        entry = cls(**fields)  # type: ignore[arg-type]
        entry.seq = seq
        return entry


#: The fields a ledger line carries (``seq`` is the line's position).
_ENTRY_FIELDS = tuple(
    f.name for f in dataclass_fields(LedgerEntry) if f.name != "seq"
)


def _row_digests(rows: Sequence[Mapping[str, object]]) -> Dict[str, str]:
    """``component/failure_mode`` -> short digest of the row's outcome."""
    digests: Dict[str, str] = {}
    for row in rows:
        key = f"{row.get('component')}/{row.get('failure_mode')}"
        digests[key] = content_digest_of(row)[:12]
    return digests


def fmea_rows_payload(result) -> List[Dict[str, object]]:
    """Compact, diffable row records for an :class:`FmeaResult`."""
    return [
        {
            "component": row.component,
            "component_class": row.component_class,
            "failure_mode": row.failure_mode,
            "fit": row.fit,
            "distribution": row.distribution,
            "safety_related": row.safety_related,
            "impact": row.impact,
            "effect": row.effect,
            "warning": row.warning,
        }
        for row in result.rows
    ]


def fmeda_rows_payload(result) -> List[Dict[str, object]]:
    """Compact, diffable row records for an :class:`FmedaResult`."""
    return [
        {
            "component": row.component,
            "failure_mode": row.failure_mode,
            "fit": row.fit,
            "distribution": row.distribution,
            "safety_related": row.safety_related,
            "safety_mechanism": row.safety_mechanism,
            "sm_coverage": row.sm_coverage,
            "residual_rate": row.residual_rate,
        }
        for row in result.rows
    ]


def _stats_metrics(result) -> Dict[str, object]:
    """Key execution-metric snapshot off ``result.stats`` (may be empty)."""
    stats = getattr(result, "stats", None)
    if stats is None:
        return {}
    out: Dict[str, object] = {}
    for name in (
        "wall_time", "baseline_time", "jobs", "rows", "solves",
        "retries", "timeouts", "job_failures", "resumed_jobs",
        "solver_backend", "direct_solves", "batched_columns",
    ):
        value = getattr(stats, name, None)
        if value is not None:
            out[name] = value
    return out


# -- the sidecar index -------------------------------------------------------


#: Short digest of a ledger line's raw bytes, stamped on its index record.
def _line_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:12]


class LedgerIndex:
    """Persistent byte-offset index over a ledger file (``<ledger>.idx``).

    The sidecar holds one compact JSONL record per ledger line, carrying
    the line's byte offset and length plus the keys lookups need — entry
    id, content digest, kind, system and ``meta.service_cache_key`` — so
    ``entries(kind=...)``, ``latest()``, ``resolve()``, cache-key lookups
    and artifact folding seek straight to the lines that matter instead
    of re-parsing the whole history.  Artifact records are resolved to
    their target entry *at index time* (the latest entry with that id so
    far, exactly the fold rule the scan applies), so folding costs no
    file reads at all.

    Every record doubles as a stamp: it stores the ledger size after its
    line (``z``) and a digest of the line's bytes (``d``); the line count
    is the record count.  On load the last record's stamp is checked
    against the ledger file — size shrunk or tail bytes changed means the
    ledger was rewritten and the index **rebuilds** from scratch; size
    grown means another process appended and the index **extends**
    incrementally, parsing only the new tail.  A corrupt or truncated
    sidecar also rebuilds.  The ledger file itself is never trusted less
    than before: the scan path remains intact as a differential fallback.

    Record keys (kept one or two characters to bound sidecar growth):
    ``o`` offset, ``n`` length, ``t`` line type (``e`` entry / ``a``
    artifact / ``x`` junk), ``z``/``d``/``u`` the stamp (size after,
    line digest, unterminated-tail flag), and for entries ``id``, ``g``
    (content digest), ``k`` (kind), ``s`` (system), ``c`` (service cache
    key), ``q`` (entry sequence number); for artifacts ``tq`` (resolved
    target entry sequence), ``p`` (path), ``ak`` (artifact kind).
    """

    def __init__(self, ledger_path: Union[str, Path]) -> None:
        self.ledger_path = Path(ledger_path)
        self.sidecar = Path(str(ledger_path) + ".idx")
        self.loaded = False
        #: Sidecar size as of our last write/load; -1 = unknown.  Appends
        #: land only when the file is where we left it — another writer
        #: moving it triggers an atomic full rewrite instead, so two
        #: ledger handles over one file never interleave duplicates.
        self._sidecar_bytes = -1
        self._clear()

    # -- in-memory state ---------------------------------------------------

    def _clear(self) -> None:
        #: One record per ledger line, in file order.
        self.records: List[Dict[str, object]] = []
        #: Entry records only; position == entry sequence number.
        self.entries: List[Dict[str, object]] = []
        self.by_id: Dict[str, List[int]] = {}
        self.by_cache_key: Dict[str, List[int]] = {}
        self.by_kind: Dict[str, List[int]] = {}
        self.by_system: Dict[str, List[int]] = {}
        self.by_kind_system: Dict[Tuple[str, str], List[int]] = {}
        #: entry seq -> artifact paths folded into it, in file order.
        self.artifacts_by_seq: Dict[int, List[str]] = {}
        #: Ledger bytes covered by the index.
        self.size = 0
        #: The last indexed line had no trailing newline (interrupted
        #: write): its length may still grow, so any ledger growth forces
        #: a rebuild instead of an extend.
        self.tail_open = False

    def _register(self, record: Dict[str, object]) -> None:
        self.records.append(record)
        kind = record["t"]
        if kind == "e":
            seq = int(record["q"])  # type: ignore[arg-type]
            self.entries.append(record)
            self.by_id.setdefault(str(record["id"]), []).append(seq)
            cache_key = record.get("c")
            if cache_key:
                self.by_cache_key.setdefault(str(cache_key), []).append(seq)
            self.by_kind.setdefault(str(record["k"]), []).append(seq)
            self.by_system.setdefault(str(record["s"]), []).append(seq)
            self.by_kind_system.setdefault(
                (str(record["k"]), str(record["s"])), []
            ).append(seq)
        elif kind == "a":
            self.artifacts_by_seq.setdefault(
                int(record["tq"]), []  # type: ignore[arg-type]
            ).append(str(record["p"]))

    # -- classification ----------------------------------------------------

    def _index_line(
        self,
        raw: bytes,
        offset: int,
        payload: Optional[Mapping[str, object]] = None,
        trusted: bool = False,
    ) -> Dict[str, object]:
        """The index record for one raw ledger line.

        Classification mirrors the scan exactly: an entry line must parse,
        be ``type == "entry"`` with a ``kind``, and round-trip through
        :meth:`LedgerEntry.from_dict`; an artifact line must name a known
        entry and a path — anything else is junk (``x``) and only its
        offsets are kept.  The content digest is *recomputed* from the
        payload (never trusted from the line) so indexed ``resolve()``
        matches the scan even on hand-written lines — except for a
        ``trusted`` payload this process built and just appended.
        """
        record: Dict[str, object] = {
            "o": offset,
            "n": len(raw),
            "t": "x",
            "z": offset + len(raw),
            "d": _line_digest(raw),
        }
        if not raw.endswith(b"\n"):
            record["u"] = 1
        if payload is None:
            try:
                decoded = json.loads(raw.decode("utf-8").strip() or "null")
            except (ValueError, UnicodeDecodeError):
                decoded = None
            payload = decoded if isinstance(decoded, dict) else None
        if payload is None:
            return record
        if payload.get("type") == "entry" and "kind" in payload:
            try:
                entry = LedgerEntry.from_dict(payload)
            except (TypeError, ValueError, KeyError):
                return record
            digest = (
                str(payload["digest"]) if trusted and "digest" in payload
                else entry.content_digest
            )
            record.update(
                t="e",
                id=f"{entry.kind}-{digest[:12]}",
                g=digest,
                k=entry.kind,
                s=entry.system,
                q=len(self.entries),
            )
            meta = payload.get("meta")
            cache_key = (
                meta.get("service_cache_key")
                if isinstance(meta, Mapping)
                else None
            )
            if isinstance(cache_key, str) and cache_key:
                record["c"] = cache_key
        elif payload.get("type") == "artifact" and payload.get("path"):
            targets = self.by_id.get(str(payload.get("entry")), [])
            if targets:
                record.update(t="a", tq=targets[-1], p=str(payload["path"]))
                if payload.get("kind"):
                    record["ak"] = str(payload["kind"])
        return record

    # -- persistence -------------------------------------------------------

    def _ledger_size(self) -> int:
        try:
            return self.ledger_path.stat().st_size
        except OSError:
            return 0

    def _persist_append(self, records: Sequence[Mapping[str, object]]) -> None:
        if not records:
            return
        blob = b"".join(
            json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
            for record in records
        )
        try:
            actual = self.sidecar.stat().st_size
        except OSError:
            actual = 0 if not self.sidecar.exists() else -2
        if actual != self._sidecar_bytes:
            # Another handle wrote the sidecar since we last did; our
            # in-memory state (which already includes ``records``) is the
            # freshest view — replace the file wholesale, atomically.
            self._rewrite_sidecar()
            return
        with open(self.sidecar, "ab") as handle:
            handle.write(blob)
        self._sidecar_bytes += len(blob)

    def _rewrite_sidecar(self) -> None:
        tmp = self.sidecar.with_name(self.sidecar.name + ".tmp")
        blob = b"".join(
            json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
            for record in self.records
        )
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, self.sidecar)
        self._sidecar_bytes = len(blob)

    def _load_sidecar(self) -> bool:
        """Adopt the on-disk sidecar if its stamp matches the ledger."""
        self._clear()
        if not self.sidecar.exists():
            return self._ledger_size() == 0
        try:
            data = self.sidecar.read_bytes()
            text = data.decode("utf-8")
        except (OSError, UnicodeDecodeError):
            return False
        records: List[Dict[str, object]] = []
        for line in text.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                return False
            if (
                not isinstance(record, dict)
                or not all(key in record for key in ("o", "n", "t", "z", "d"))
            ):
                return False
            records.append(record)
        size = self._ledger_size()
        if not records:
            return size == 0
        last = records[-1]
        end = int(last["z"])  # type: ignore[arg-type]
        if end > size:
            return False  # ledger truncated or rewritten shorter
        try:
            with open(self.ledger_path, "rb") as handle:
                handle.seek(int(last["o"]))  # type: ignore[arg-type]
                raw = handle.read(int(last["n"]))  # type: ignore[arg-type]
        except OSError:
            return False
        if _line_digest(raw) != last["d"]:
            return False  # tail rewritten in place
        for record in records:
            if record["t"] == "e" and record.get("q") != len(self.entries):
                self._clear()
                return False  # sequence numbering corrupted
            self._register(record)
        self.size = end
        self.tail_open = bool(last.get("u"))
        self._sidecar_bytes = len(data)
        if size > end:
            if self.tail_open:
                self._clear()
                return False  # the open tail line may have grown: reparse
            self._extend()
        return True

    def _parse_region(self, start: int) -> List[Dict[str, object]]:
        """Index every ledger line from byte ``start`` to EOF."""
        records: List[Dict[str, object]] = []
        with open(self.ledger_path, "rb") as handle:
            handle.seek(start)
            offset = start
            for raw in iter(handle.readline, b""):
                record = self._index_line(raw, offset)
                self._register(record)
                records.append(record)
                offset += len(raw)
        self.size = offset if records else start
        self.tail_open = bool(records and records[-1].get("u"))
        return records

    def _extend(self) -> None:
        """Catch up with lines another writer appended past our stamp.

        The last indexed line is re-digested first: growth caused by a
        rewrite rather than an append fails the stamp and rebuilds."""
        if self.records:
            last = self.records[-1]
            with open(self.ledger_path, "rb") as handle:
                handle.seek(int(last["o"]))  # type: ignore[arg-type]
                raw = handle.read(int(last["n"]))  # type: ignore[arg-type]
            if _line_digest(raw) != last["d"]:
                self._rebuild()
                return
        added = self._parse_region(self.size)
        self._persist_append(added)
        obs.counter("ledger_index_extensions").inc()

    def _rebuild(self) -> None:
        """Re-derive the whole index from the ledger file."""
        self._clear()
        if self.ledger_path.exists():
            self._parse_region(0)
        self._rewrite_sidecar()
        obs.counter("ledger_index_rebuilds").inc()

    # -- the sync protocol -------------------------------------------------

    def sync(self) -> "LedgerIndex":
        """Make the in-memory index current; the caller holds the lock.

        First use loads the sidecar (or rebuilds it); afterwards a single
        ``stat`` validates per call — same size means nothing to do, grown
        means an incremental extend, shrunk (or growth past an
        unterminated tail line) means a rebuild.
        """
        if not self.loaded:
            self.loaded = True
            if not self._load_sidecar():
                self._rebuild()
            return self
        size = self._ledger_size()
        if size == self.size:
            return self
        if size < self.size or self.tail_open:
            self._rebuild()
        else:
            self._extend()
        return self

    def note_line(
        self, raw: bytes, offset: int, payload: Mapping[str, object]
    ) -> None:
        """Index one line this process just appended (no re-parse)."""
        # The payload is this process's own: its id/digest are trusted.
        record = self._index_line(raw, offset, payload=payload, trusted=True)
        self._register(record)
        self._persist_append([record])
        self.size = offset + len(raw)
        self.tail_open = False

    def status(self) -> Dict[str, object]:
        return {
            "sidecar": str(self.sidecar),
            "lines": len(self.records),
            "entries": len(self.entries),
            "artifacts": sum(
                len(paths) for paths in self.artifacts_by_seq.values()
            ),
            "cache_keys": len(self.by_cache_key),
            "bytes_covered": self.size,
            "tail_open": self.tail_open,
        }


# -- the ledger --------------------------------------------------------------


class AnalysisLedger:
    """Append-only JSONL store of :class:`LedgerEntry` records.

    Two line types share the file: ``{"type": "entry", ...}`` (a full
    provenance record) and ``{"type": "artifact", "entry": <id>, "path":
    ...}`` (appended when a workbook is exported from an already-recorded
    result — the append-only discipline means entries are never rewritten).
    Loading tolerates corrupt or truncated lines.

    Reads go through the :class:`LedgerIndex` sidecar by default, making
    ``latest()``, ``resolve()``, ``latest_by_cache_key()`` and filtered
    ``entries()`` O(1) in history size (one dict lookup + one line seek)
    instead of a full-file parse.  ``use_index=False`` keeps the original
    scan semantics — the differential reference the index is tested
    against — and any index failure (unwritable sidecar, races with an
    external rewrite mid-read) transparently falls back to the scan.
    All mutation and index access is serialised by an internal lock, so
    concurrent appends and lookups from service worker threads are safe.
    """

    def __init__(self, path: Union[str, Path], use_index: bool = True) -> None:
        self.path = Path(path)
        self._use_index = bool(use_index)
        self._index: Optional[LedgerIndex] = None
        self._lock = threading.RLock()

    # -- index plumbing ----------------------------------------------------

    def _indexed(self) -> Optional["LedgerIndex"]:
        """The synced index, or ``None`` when disabled or broken.

        A failure to build or persist the index permanently disables it
        for this ledger object (counted by ``ledger_index_fallbacks``) —
        the scan path serves every later read, never an exception.
        """
        if not self._use_index:
            return None
        try:
            if self._index is None:
                self._index = LedgerIndex(self.path)
            return self._index.sync()
        except (OSError, ValueError, KeyError, TypeError):
            obs.counter("ledger_index_fallbacks").inc()
            self._index = None
            self._use_index = False
            return None

    def _materialize(
        self, index: "LedgerIndex", seq: int, handle=None
    ) -> LedgerEntry:
        """Parse the single ledger line behind entry ``seq`` and fold its
        index-resolved artifacts in."""
        record = index.entries[seq]
        if handle is None:
            with open(self.path, "rb") as own:
                own.seek(int(record["o"]))  # type: ignore[arg-type]
                raw = own.read(int(record["n"]))  # type: ignore[arg-type]
        else:
            handle.seek(int(record["o"]))  # type: ignore[arg-type]
            raw = handle.read(int(record["n"]))  # type: ignore[arg-type]
        entry = LedgerEntry.from_dict(
            json.loads(raw.decode("utf-8")), seq=seq
        )
        for path in index.artifacts_by_seq.get(seq, ()):
            if path not in entry.artifacts:
                entry.artifacts.append(path)
        obs.counter("ledger_index_seeks").inc()
        return entry

    def _entry_seqs(
        self,
        index: "LedgerIndex",
        kind: Optional[str],
        system: Optional[str],
    ) -> Sequence[int]:
        if kind is not None and system is not None:
            return index.by_kind_system.get((kind, system), [])
        if kind is not None:
            return index.by_kind.get(kind, [])
        if system is not None:
            return index.by_system.get(system, [])
        return range(len(index.entries))

    def index_status(self) -> Dict[str, object]:
        """Sidecar-index health for ``same ledger-index``."""
        with self._lock:
            index = self._indexed()
            if index is None:
                return {"enabled": False, "path": str(self.path)}
            status = index.status()
        status.update(enabled=True, path=str(self.path))
        return status

    def rebuild_index(self) -> Dict[str, object]:
        """Force a from-scratch rebuild of the sidecar index."""
        with self._lock:
            if not self._use_index:
                return {"enabled": False, "path": str(self.path)}
            if self._index is None:
                self._index = LedgerIndex(self.path)
            try:
                self._index._rebuild()
                self._index.loaded = True
            except OSError as exc:
                raise LedgerError(
                    f"cannot rebuild ledger index for {self.path}: {exc}"
                ) from exc
        return self.index_status()

    # -- writing ----------------------------------------------------------

    def append(self, entry: LedgerEntry) -> LedgerEntry:
        """Record one entry (stamping time + git) and return it.

        With observability enabled a zero-duration ``ledger.record`` span
        carrying the entry id is emitted under the current span, and the
        entry remembers that parent span id — a trace file and the ledger
        are mutually resolvable.
        """
        if not entry.timestamp:
            entry.timestamp = time.time()
        if not entry.git:
            entry.git = git_describe()
        if entry.trace_span is None:
            entry.trace_span = obs.current_span_id()
        # Provenance, like trace_span/timestamp: which run produced this
        # entry.  Lives in meta, which the content digest excludes, so
        # identical analyses still dedupe/diff as identical.
        cid = obs.correlation_id()
        if cid is not None:
            entry.meta.setdefault("correlation_id", cid)
        with self._lock:
            entry.seq = self._next_seq()
            payload = entry.to_dict()  # the one content digest per append
            with obs.span(
                "ledger.record", entry=payload["id"], kind=entry.kind
            ):
                self._append_line(payload)
        return entry

    def attach_artifact(
        self,
        entry: Union[LedgerEntry, str],
        path: Union[str, Path],
        kind: Optional[str] = None,
    ) -> None:
        """Link an exported artifact (e.g. a workbook, an event log or a
        profile) to an entry; ``kind`` tags what the artifact is."""
        entry_id = entry.entry_id if isinstance(entry, LedgerEntry) else entry
        record = {
            "v": _VERSION,
            "type": "artifact",
            "entry": entry_id,
            "path": str(path),
        }
        if kind:
            record["kind"] = kind
        with self._lock:
            self._append_line(record)
        if isinstance(entry, LedgerEntry):
            entry.artifacts.append(str(path))

    def _append_line(self, payload: Mapping[str, object]) -> None:
        """Write one line and index it; the caller holds the lock.

        The index is synced *before* the write (catching any external
        append so offsets stay truthful) and told about the new line
        afterwards, so an append costs one stat + two small writes — no
        re-scan.  When the file ends in an interrupted, unterminated line
        a newline is healed in first, keeping line boundaries exactly
        where the index recorded them.  Index persistence failures
        degrade to scan mode; they never lose the ledger line itself.
        """
        index = self._indexed()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            raw = (
                json.dumps(payload, sort_keys=True) + "\n"
            ).encode("utf-8")
            with open(self.path, "ab") as handle:
                if index is not None and index.tail_open:
                    handle.write(b"\n")
                offset = handle.tell()
                handle.write(raw)
        except OSError as exc:
            raise LedgerError(
                f"cannot write analysis ledger {self.path}: {exc}"
            ) from exc
        if index is not None:
            try:
                index.note_line(raw, offset, payload)
            except (OSError, ValueError, KeyError, TypeError):
                obs.counter("ledger_index_fallbacks").inc()
                self._index = None
                self._use_index = False

    def _next_seq(self) -> int:
        with self._lock:
            index = self._indexed()
            if index is not None:
                return len(index.entries)
        return sum(1 for _ in self._raw_entries())

    # -- reading ----------------------------------------------------------

    def _raw_lines(self) -> Iterator[Mapping[str, object]]:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, TypeError):
                    continue  # truncated/corrupt line: skip, don't abort
                if isinstance(record, dict):
                    yield record

    def _raw_entries(self) -> Iterator[Mapping[str, object]]:
        for record in self._raw_lines():
            if record.get("type") == "entry" and "kind" in record:
                yield record

    def entries(
        self,
        kind: Optional[str] = None,
        system: Optional[str] = None,
    ) -> List[LedgerEntry]:
        """Entries in file order, artifact records folded in.

        With the index, a filtered query parses only the matching lines
        (seq numbers stay global, as the scan assigns them); without it,
        the original full scan runs.
        """
        with self._lock:
            index = self._indexed()
            if index is not None:
                try:
                    seqs = list(self._entry_seqs(index, kind, system))
                    if not seqs:
                        return []
                    with open(self.path, "rb") as handle:
                        return [
                            self._materialize(index, seq, handle)
                            for seq in seqs
                        ]
                except (OSError, ValueError, KeyError, TypeError):
                    obs.counter("ledger_index_fallbacks").inc()
        return self._entries_scan(kind, system)

    def _entries_scan(
        self,
        kind: Optional[str] = None,
        system: Optional[str] = None,
    ) -> List[LedgerEntry]:
        """The index-free reference read: parse every line, fold, filter."""
        entries: List[LedgerEntry] = []
        by_id: Dict[str, List[LedgerEntry]] = {}
        for record in self._raw_lines():
            if record.get("type") == "entry" and "kind" in record:
                try:
                    entry = LedgerEntry.from_dict(record, seq=len(entries))
                except (TypeError, ValueError, KeyError):
                    continue
                entries.append(entry)
                by_id.setdefault(entry.entry_id, []).append(entry)
            elif record.get("type") == "artifact":
                # Attach to the *latest* entry with that id so far.
                targets = by_id.get(str(record.get("entry")), [])
                if targets and record.get("path"):
                    path = str(record["path"])
                    if path not in targets[-1].artifacts:
                        targets[-1].artifacts.append(path)
        return [
            entry
            for entry in entries
            if (kind is None or entry.kind == kind)
            and (system is None or entry.system == system)
        ]

    def latest(
        self,
        kind: Optional[str] = None,
        system: Optional[str] = None,
    ) -> Optional[LedgerEntry]:
        """The most recent matching entry — one index lookup + one seek."""
        with self._lock:
            index = self._indexed()
            if index is not None:
                try:
                    seqs = self._entry_seqs(index, kind, system)
                    if not seqs:
                        return None
                    return self._materialize(index, seqs[-1])
                except (OSError, ValueError, KeyError, TypeError):
                    obs.counter("ledger_index_fallbacks").inc()
        matching = self._entries_scan(kind=kind, system=system)
        return matching[-1] if matching else None

    def latest_by_cache_key(self, cache_key: str) -> Optional[LedgerEntry]:
        """The newest entry whose ``meta.service_cache_key`` matches.

        The analysis service's cache hit: a dict lookup plus one line
        seek, O(1) in ledger size.  Without the index this degrades to
        the reverse scan the service originally performed.
        """
        if not cache_key:
            return None
        with self._lock:
            index = self._indexed()
            if index is not None:
                try:
                    seqs = index.by_cache_key.get(cache_key, [])
                    if not seqs:
                        return None
                    return self._materialize(index, seqs[-1])
                except (OSError, ValueError, KeyError, TypeError):
                    obs.counter("ledger_index_fallbacks").inc()
        for entry in reversed(self._entries_scan()):
            if entry.meta.get("service_cache_key") == cache_key:
                return entry
        return None

    def resolve(self, ref: str) -> LedgerEntry:
        """Resolve an entry reference.

        Accepted forms: ``@N`` / plain integer (file-order sequence,
        negatives count from the end), ``latest``/``HEAD``, a full entry
        id, or a unique id/digest prefix.  When several entries share an
        identical id (byte-identical re-runs) the latest wins.  With the
        index, id and digest matching runs over the in-memory key maps
        and only the winning entry's line is parsed.
        """
        with self._lock:
            index = self._indexed()
            if index is not None:
                try:
                    return self._resolve_indexed(index, ref)
                except LedgerError:
                    raise
                except (OSError, ValueError, KeyError, TypeError):
                    obs.counter("ledger_index_fallbacks").inc()
        return self._resolve_scan(ref)

    @staticmethod
    def _parse_ref(ref: str) -> Tuple[str, Optional[int]]:
        text = ref.strip()
        index_text = text[1:] if text.startswith("@") else text
        try:
            return text, int(index_text)
        except ValueError:
            return text, None

    def _resolve_indexed(self, index: "LedgerIndex", ref: str) -> LedgerEntry:
        count = len(index.entries)
        if not count:
            raise LedgerError(f"ledger {self.path} has no entries")
        text, position = self._parse_ref(ref)
        if position is not None:
            seq = position if position >= 0 else count + position
            if not 0 <= seq < count:
                raise LedgerError(
                    f"entry index {position} out of range "
                    f"(ledger has {count} entries)"
                )
            return self._materialize(index, seq)
        if text.lower() in ("latest", "head"):
            return self._materialize(index, count - 1)
        matches = [
            record
            for record in index.entries
            if record["id"] == text
            or str(record["id"]).startswith(text)
            or str(record["g"]).startswith(text)
        ]
        if not matches:
            raise LedgerError(f"no ledger entry matches {ref!r}")
        distinct = {str(record["id"]) for record in matches}
        if len(distinct) > 1:
            raise LedgerError(
                f"ambiguous reference {ref!r}: matches {sorted(distinct)}"
            )
        return self._materialize(index, int(matches[-1]["q"]))  # type: ignore[arg-type]

    def _resolve_scan(self, ref: str) -> LedgerEntry:
        entries = self._entries_scan()
        if not entries:
            raise LedgerError(f"ledger {self.path} has no entries")
        text, index = self._parse_ref(ref)
        if index is not None:
            try:
                return entries[index]
            except IndexError:
                raise LedgerError(
                    f"entry index {index} out of range "
                    f"(ledger has {len(entries)} entries)"
                ) from None
        if text.lower() in ("latest", "head"):
            return entries[-1]
        matches = [
            entry
            for entry in entries
            if entry.entry_id == text
            or entry.entry_id.startswith(text)
            or entry.content_digest.startswith(text)
        ]
        if not matches:
            raise LedgerError(f"no ledger entry matches {ref!r}")
        distinct = {entry.entry_id for entry in matches}
        if len(distinct) > 1:
            raise LedgerError(
                f"ambiguous reference {ref!r}: matches {sorted(distinct)}"
            )
        return matches[-1]


# -- recorders ---------------------------------------------------------------


def _campaign_fingerprint_for(
    model, reliability, config: Mapping[str, object]
) -> str:
    """The campaign fingerprint of an injection analysis, or ``""``.

    Imported lazily: the ledger must stay importable without dragging the
    whole safety package in (and vice versa).
    """
    try:
        from repro.safety.resilience import campaign_fingerprint

        return campaign_fingerprint(
            model,
            reliability,
            str(config.get("analysis", "dc")),
            float(config.get("t_stop", 5e-3)),  # type: ignore[arg-type]
            float(config.get("dt", 5e-5)),  # type: ignore[arg-type]
            config.get("behavior_overrides"),  # type: ignore[arg-type]
        )
    except Exception:  # noqa: BLE001 — provenance must not abort analyses
        return ""


def record_fmea(
    ledger: AnalysisLedger,
    result,
    model=None,
    reliability=None,
    spfm: Optional[float] = None,
    asil: Optional[str] = None,
    config: Optional[Mapping[str, object]] = None,
    trace: str = "",
    meta: Optional[Mapping[str, object]] = None,
    model_digest_value: Optional[str] = None,
) -> LedgerEntry:
    """Record an FMEA run (injection or graph) as a ledger entry.

    ``model_digest_value``, when given, is ``model_digest(model)``
    computed once by a caller that records several entries per model.
    """
    config = dict(config or {})
    rows = fmea_rows_payload(result)
    fingerprint = ""
    if getattr(result, "method", "") == "injection" and model is not None:
        fingerprint = _campaign_fingerprint_for(model, reliability, config)
    entry = LedgerEntry(
        kind="fmea",
        system=result.system,
        spfm=spfm,
        asil=asil,
        model_digest=(
            model_digest(model) if model_digest_value is None
            else model_digest_value
        ),
        reliability_digest=reliability_digest(reliability),
        fingerprint=fingerprint,
        config=config,
        rows=rows,
        row_digests=_row_digests(rows),
        metrics=_stats_metrics(result),
        trace=trace,
        meta=dict(meta or {"method": getattr(result, "method", "")}),
    )
    return ledger.append(entry)


def record_fmeda(
    ledger: AnalysisLedger,
    result,
    model=None,
    reliability=None,
    config: Optional[Mapping[str, object]] = None,
    trace: str = "",
    meta: Optional[Mapping[str, object]] = None,
    model_digest_value: Optional[str] = None,
) -> LedgerEntry:
    """Record an FMEDA (rows + SPFM/ASIL verdict) as a ledger entry
    (``model_digest_value`` as for :func:`record_fmea`)."""
    config = dict(config or {})
    config.setdefault(
        "deployments",
        [
            {
                "component": d.component,
                "failure_mode": d.failure_mode,
                "mechanism": d.mechanism,
                "coverage": d.coverage,
                "cost": d.cost,
            }
            for d in result.deployments
        ],
    )
    rows = fmeda_rows_payload(result)
    entry = LedgerEntry(
        kind="fmeda",
        system=result.system,
        spfm=result.spfm,
        asil=result.asil,
        model_digest=(
            model_digest(model) if model_digest_value is None
            else model_digest_value
        ),
        reliability_digest=reliability_digest(reliability),
        config=config,
        rows=rows,
        row_digests=_row_digests(rows),
        metrics={
            "total_cost": result.total_cost,
            "diagnostic_coverage": getattr(
                result, "diagnostic_coverage", None
            ),
        },
        trace=trace,
        meta=dict(meta or {}),
    )
    return ledger.append(entry)


def record_optimizer(
    ledger: AnalysisLedger,
    plan,
    system: str,
    model=None,
    reliability=None,
    config: Optional[Mapping[str, object]] = None,
    meta: Optional[Mapping[str, object]] = None,
    model_digest_value: Optional[str] = None,
) -> LedgerEntry:
    """Record a mechanism-search outcome (a :class:`DeploymentPlan`)
    (``model_digest_value`` as for :func:`record_fmea`)."""
    rows = [
        {
            "component": d.component,
            "failure_mode": d.failure_mode,
            "mechanism": d.mechanism,
            "coverage": d.coverage,
            "cost": d.cost,
        }
        for d in plan.deployments
    ]
    entry = LedgerEntry(
        kind="optimizer",
        system=system,
        spfm=plan.spfm,
        asil=plan.asil,
        model_digest=(
            model_digest(model) if model_digest_value is None
            else model_digest_value
        ),
        reliability_digest=reliability_digest(reliability),
        config=dict(config or {}),
        rows=rows,
        row_digests=_row_digests(rows),
        metrics={"cost": plan.cost, "deployments": len(plan.deployments)},
        meta=dict(meta or {}),
    )
    return ledger.append(entry)


def record_iteration(
    ledger: AnalysisLedger,
    fmea,
    index: int,
    spfm: float,
    asil: str,
    deployments: Sequence[object] = (),
    model_digest_value: str = "",
    reliability=None,
    config: Optional[Mapping[str, object]] = None,
    meta: Optional[Mapping[str, object]] = None,
) -> LedgerEntry:
    """Record one DECISIVE Step 4 iteration as a ledger entry."""
    config = dict(config or {})
    config["iteration"] = index
    config["deployments"] = [
        {
            "component": d.component,
            "failure_mode": d.failure_mode,
            "mechanism": d.mechanism,
            "coverage": d.coverage,
            "cost": d.cost,
        }
        for d in deployments
    ]
    rows = fmea_rows_payload(fmea)
    entry = LedgerEntry(
        kind="decisive-iteration",
        system=fmea.system,
        spfm=spfm,
        asil=asil,
        model_digest=model_digest_value,
        reliability_digest=reliability_digest(reliability),
        config=config,
        rows=rows,
        row_digests=_row_digests(rows),
        metrics=_stats_metrics(fmea),
        meta=dict(meta or {}),
    )
    return ledger.append(entry)

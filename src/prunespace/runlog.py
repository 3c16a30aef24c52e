"""Deterministic serialization: trial logs, checkpoints, report CSVs.

Every float is written with 17 significant digits, which round-trips binary64
exactly, so identical runs produce byte-identical files and any record can be
re-parsed bit-for-bit. Trial logs are append-only JSONL with a header line
carrying the schema version and a hash of the generating config; indices must
increase strictly. Checkpoints use a small self-describing binary container
(JSON header plus raw little-endian tensor bytes) with no timestamps; the
header holds the architecture document of the weights, so a checkpoint loads
as weights and architecture together, checked against each other. A log
header, a trial line and a checkpoint header are each a spec, written by
`spec_to_json` and read back strictly by `spec_from_json`.
Whole files are written through `write_atomic`, so none is ever left half
written by a killed process.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .analysis import DistributionSummary, EDFCurve, RegimeRow, SpaceComparison, TrialRecord
from .arch import ArchitectureSpec, arch_to_json, load_arch
from .errors import LogError, SchemaError, ValidationError
from .network import NetworkWeights, check_weights
from .schema import spec_from_json, spec_to_json


log = logging.getLogger("prunespace")

SCHEMA_VERSION = 1  # of trial logs
CHECKPOINT_VERSION = 2
_CKPT_MAGIC = b"PSCKPT1\n"
_DTYPES = {"float32": "<f4", "float64": "<f8"}


# -- canonical JSON -----------------------------------------------------------


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError("non-finite floats cannot be serialized; use null sentinels")
    text = format(x, ".17g")
    if "." not in text and "e" not in text:  # .17g writes exponents as "e"
        text += ".0"
    return text


def canonical_json(obj, sort_keys: bool = False) -> str:
    """Compact JSON with explicit 17-significant-digit floats."""
    parts: list[str] = []
    _emit(obj, parts, sort_keys)
    return "".join(parts)


def _emit(obj, parts: list[str], sort_keys: bool) -> None:
    if isinstance(obj, (float, np.floating)):  # the commonest leaf, tested first
        parts.append(_format_float(float(obj)))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        parts.append(str(int(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, Mapping):
        keys = sorted(obj) if sort_keys else list(obj)
        parts.append("{")
        for i, k in enumerate(keys):
            if i:
                parts.append(",")
            if not isinstance(k, str):
                raise ValidationError(f"JSON object keys must be strings, got {type(k).__name__}")
            parts.append(json.dumps(k))
            parts.append(":")
            _emit(obj[k], parts, sort_keys)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit(v, parts, sort_keys)
        parts.append("]")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")


def config_hash(config: Mapping) -> str:
    return hashlib.sha256(canonical_json(config, sort_keys=True).encode()).hexdigest()[:16]


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace `path` with `data` in one rename, so a reader sees all of it or none.

    The bytes go to the fixed sibling `.<name>.tmp` first, which `os.replace`
    then moves onto `path`. A process killed midway leaves `path` as it was
    (or absent) plus at most that temp file, which the next write of `path`
    reuses. Nothing is fsynced: the guarantee covers a killed process, not a
    power loss, after which `path` may still read empty or short.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    with open(tmp, "wb") as f:
        f.write(data.encode() if isinstance(data, str) else data)
    os.replace(tmp, path)


# -- trial records ------------------------------------------------------------


trial_to_json = TrialRecord.to_json


def trial_from_json(doc: Mapping) -> TrialRecord:
    """The record of one parsed trial line; a legacy line's always-null `wall_time` is dropped."""
    if isinstance(doc, dict) and "wall_time" in doc:
        doc = {k: v for k, v in doc.items() if k != "wall_time"}
    try:
        return spec_from_json(TrialRecord, doc)
    except SchemaError as e:
        raise LogError(str(e)) from e


@dataclass(frozen=True)
class LogHeader:
    """Line 1 of a trial log: its schema version and the hash of the config that wrote it."""

    schema_version: int
    config_hash: str

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ValidationError(
                f"schema_version {self.schema_version} unsupported (expected {SCHEMA_VERSION})"
            )


class TrialLog:
    """Append-only JSONL trial log bound to one config hash.

    Opening a log cuts the bytes after its last newline, left by a kill
    mid-append, with a warning; corruption anywhere else is refused. The file
    is parsed once, at open, into `records`, which each `append` extends.
    """

    def __init__(self, path: str | Path, config: Mapping):
        self.path = Path(path)
        self.records: list[TrialRecord] = []
        data = self.path.read_bytes() if self.path.exists() else b""
        keep = data.rfind(b"\n") + 1
        if keep < len(data):
            log.warning("%s: cutting %d bytes of a torn final line", self.path, len(data) - keep)
            os.truncate(self.path, keep)
        want = config_hash(config)
        if keep > 0:
            header, self.records = read_trials(self.path)
            if header["config_hash"] != want:
                raise LogError(
                    f"{self.path} was written by a different config "
                    f"(hash {header['config_hash']}, current {want}); "
                    "resume with the original config, or use a fresh log path"
                )
        else:
            write_atomic(self.path, canonical_json(spec_to_json(LogHeader(SCHEMA_VERSION, want))) + "\n")

    def append(self, record: TrialRecord) -> None:
        last = self.records[-1].index if self.records else -1
        if record.index <= last:
            raise LogError(f"record index {record.index} not greater than last index {last}")
        with open(self.path, "a") as f:
            f.write(canonical_json(record.to_json()) + "\n")
        self.records.append(record)


def read_trials(path: str | Path) -> tuple[dict, list[TrialRecord]]:
    """Parse a trial log; corrupt lines raise LogError naming the line number."""
    path = Path(path)
    if not path.exists():
        raise LogError(f"no trial log at {path}")
    records: list[TrialRecord] = []
    header: LogHeader | None = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                if lineno == 1:
                    header = spec_from_json(LogHeader, doc)
                    continue
                record = trial_from_json(doc)
            except json.JSONDecodeError as e:
                raise LogError(f"not valid JSON: {e.msg}", line=lineno) from e
            except ValidationError as e:
                raise LogError(str(e), line=lineno) from e
            if records and record.index <= records[-1].index:
                raise LogError(
                    f"index {record.index} not greater than previous {records[-1].index}",
                    line=lineno,
                )
            records.append(record)
    if header is None:
        raise LogError("log is empty (missing header)", line=1)
    return spec_to_json(header), records


# -- checkpoints ---------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointEntry:
    """One tensor of a checkpoint: its place in the weights, its shape, and its body bytes."""

    layer: int
    role: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int

    to_json = spec_to_json


@dataclass(frozen=True)
class CheckpointHeader:
    """The JSON line between a checkpoint's magic and its tensor bytes; `arch` is the
    architecture document the tensors belong to."""

    version: int
    arch: dict
    dtype: str
    meta: dict
    entries: tuple[CheckpointEntry, ...]

    def __post_init__(self):
        if self.dtype not in _DTYPES:
            raise ValidationError(f"dtype must be one of {sorted(_DTYPES)}, got {self.dtype!r}")
        itemsize = np.dtype(_DTYPES[self.dtype]).itemsize
        for i, e in enumerate(self.entries):
            if e.offset < 0 or min(e.shape, default=0) < 0 or e.nbytes != math.prod(e.shape) * itemsize:
                raise ValidationError(
                    f"entries[{i}] must lie at offset >= 0 with nbytes = prod(shape) * {itemsize}, "
                    f"got offset {e.offset}, shape {list(e.shape)}, nbytes {e.nbytes}"
                )


def save_checkpoint(
    path: str | Path, weights: NetworkWeights, arch: ArchitectureSpec, meta: Mapping | None = None
) -> None:
    """Versioned binary container of `weights` and the `arch` they belong to;
    identical weights and arch give identical bytes."""
    dtype = np.dtype(weights.dtype)
    entries, offset = [], 0
    for lid, role, a in weights.items():
        entries.append(CheckpointEntry(lid, role, a.shape, offset, a.size * dtype.itemsize))
        offset += entries[-1].nbytes
    header = CheckpointHeader(CHECKPOINT_VERSION, arch_to_json(arch), dtype.name, dict(meta or {}), tuple(entries))
    blobs = [np.ascontiguousarray(a, dtype=_DTYPES[dtype.name]).tobytes() for _, _, a in weights.items()]
    write_atomic(path, b"".join([_CKPT_MAGIC, canonical_json(spec_to_json(header)).encode(), b"\n", *blobs]))


def load_checkpoint(path: str | Path) -> tuple[NetworkWeights, ArchitectureSpec, dict]:
    """The weights, their architecture (from the header) and the meta of a checkpoint.

    Refuses a checkpoint of another version, and one whose tensors do not fit
    its own architecture.
    """
    path = Path(path)
    with open(path, "rb") as f:
        if f.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ValidationError(f"{path} is not a checkpoint (bad magic)")
        header_line = f.readline()
        body = f.read()
    try:
        doc = json.loads(header_line)
        # checked first: a version-1 header also fails the version-2 spec, on `arch`
        version = doc.get("version") if isinstance(doc, dict) else None
        if version != CHECKPOINT_VERSION:
            raise ValidationError(f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})")
        header = spec_from_json(CheckpointHeader, doc)
        arch = load_arch(header.arch)
        tensors: dict[int, dict[str, np.ndarray]] = {}
        for e in header.entries:
            raw = body[e.offset : e.offset + e.nbytes]
            if len(raw) != e.nbytes:
                raise ValidationError("truncated checkpoint body")
            a = np.frombuffer(raw, dtype=_DTYPES[header.dtype]).reshape(e.shape).copy()
            tensors.setdefault(e.layer, {})[e.role] = a
        weights = NetworkWeights(tensors)
        check_weights(weights, arch)
    except (json.JSONDecodeError, ValidationError) as e:
        raise SchemaError(f"{path}: {e}") from e
    return weights, arch, header.meta


# -- report CSVs ----------------------------------------------------------------

# Column orders are part of the wire format; see the README reference table.


def _csv_line(values: Iterable) -> str:
    cells = []
    for v in values:
        if isinstance(v, (float, np.floating)):
            cells.append(_format_float(float(v)))
        else:
            cells.append(str(v))
    return ",".join(cells)


def _csv(header: str, rows: Iterable[Iterable]) -> str:
    """A CSV document: the header, then one line per row."""
    return "".join(f"{line}\n" for line in [header, *map(_csv_line, rows)])


def edf_csv(curve: EDFCurve) -> str:
    finite = [float(v) for v in curve.drops if not math.isinf(v)]
    return _csv(
        "accuracy_drop,fraction_below,fraction_at_or_below",
        ([v, curve.fraction_below(v), curve.fraction_at_or_below(v)] for v in finite),
    )


def summary_csv(summary: DistributionSummary) -> str:
    stats = ("n", "minimum", "q1", "median", "q3", "maximum")
    return _csv("stat,value", ([name, getattr(summary, name)] for name in stats))


def histogram_csv(summary: DistributionSummary) -> str:
    return _csv("bin_lo,bin_hi,count", zip(summary.bin_edges, summary.bin_edges[1:], summary.counts))


def winners_csv(winners: Sequence[TrialRecord]) -> str:
    rows = (
        [rank, t.index, "inf" if t.diverged else t.accuracy_drop, t.cost.c_flops, t.cost.c_params,
         t.cost.mcb, t.recipe_std, t.seed, t.epochs, t.schedule, ";".join(map(_format_float, t.recipe))]
        for rank, t in enumerate(winners, start=1)
    )
    return _csv("rank,index,accuracy_drop,c_flops,c_params,mcb,recipe_std,seed,epochs,schedule,recipe", rows)


def regimes_csv(rows: Sequence[RegimeRow]) -> str:
    names = [f.name for f in fields(RegimeRow)]
    return _csv(",".join(names), ([getattr(r, name) for name in names] for r in rows))


def compare_csv(report: SpaceComparison) -> str:
    rows = (
        [pair.space_a, pair.space_b, *cells, str(pair.a_dominates_at_median).lower()]
        for pair in report.pairs
        for cells in zip(pair.quantile_levels, pair.drop_points, pair.edf_a, pair.edf_b, pair.diffs)
    )
    return _csv("space_a,space_b,quantile,drop_at_quantile,edf_a,edf_b,edf_diff,a_dominates_at_median", rows)

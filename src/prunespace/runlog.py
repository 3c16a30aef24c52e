"""Deterministic serialization: trial logs, checkpoints, report CSVs.

Every float is written with 17 significant digits, which round-trips binary64
exactly, so identical runs produce byte-identical files and any record can be
re-parsed bit-for-bit. Trial logs are append-only JSONL with a header line
carrying the schema version and a hash of the generating config; indices must
increase strictly. Checkpoints use a small self-describing binary container
(JSON header plus raw little-endian tensor bytes) with no timestamps.
Whole files are written through `write_atomic`, so none is ever left half
written by a killed process.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .analysis import DistributionSummary, EDFCurve, RegimeRow, SpaceComparison, TrialRecord
from .cost import CostReport
from .errors import LogError, ValidationError
from .network import NetworkWeights


log = logging.getLogger("prunespace")

SCHEMA_VERSION = 1
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


def trial_to_json(t: TrialRecord) -> dict:
    return {
        "index": t.index,
        "recipe": list(t.recipe),
        "arch": t.arch,
        "cost": t.cost.to_json(),
        "recipe_std": t.recipe_std,
        "accuracy_drop": None if t.diverged else t.accuracy_drop,
        "diverged": t.diverged,
        "schedule": t.schedule_kind,
        "epochs": t.epochs,
        "seed": t.seed,
    }


def trial_from_json(doc: Mapping) -> TrialRecord:
    try:
        cost = doc["cost"]
        drop = doc["accuracy_drop"]
        diverged = bool(doc["diverged"])
        return TrialRecord(
            index=int(doc["index"]),
            recipe=tuple(float(r) for r in doc["recipe"]),
            arch=str(doc["arch"]),
            cost=CostReport(
                flops=int(cost["flops"]),
                params=int(cost["params"]),
                c_flops=float(cost["c_flops"]),
                c_params=float(cost["c_params"]),
                mcb=float(cost["mcb"]),
            ),
            recipe_std=float(doc["recipe_std"]),
            accuracy_drop=math.inf if diverged else float(drop),
            schedule_kind=str(doc["schedule"]),
            epochs=int(doc["epochs"]),
            seed=int(doc["seed"]),
            diverged=diverged,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise LogError(f"bad trial record: {e}") from e


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
            header = {"schema_version": SCHEMA_VERSION, "config_hash": want}
            write_atomic(self.path, canonical_json(header) + "\n")

    def append(self, record: TrialRecord) -> None:
        last = self.records[-1].index if self.records else -1
        if record.index <= last:
            raise LogError(f"record index {record.index} not greater than last index {last}")
        with open(self.path, "a") as f:
            f.write(canonical_json(trial_to_json(record)) + "\n")
        self.records.append(record)


def read_trials(path: str | Path) -> tuple[dict, list[TrialRecord]]:
    """Parse a trial log; corrupt lines raise LogError naming the line number."""
    path = Path(path)
    if not path.exists():
        raise LogError(f"no trial log at {path}")
    records: list[TrialRecord] = []
    header: dict | None = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise LogError(f"not valid JSON: {e.msg}", line=lineno) from e
            if lineno == 1:
                if not isinstance(doc, dict) or "schema_version" not in doc:
                    raise LogError("first line must be the log header", line=1)
                if doc["schema_version"] != SCHEMA_VERSION:
                    raise LogError(
                        f"schema version {doc['schema_version']} unsupported "
                        f"(expected {SCHEMA_VERSION})",
                        line=1,
                    )
                header = doc
                continue
            try:
                record = trial_from_json(doc)
            except LogError as e:
                raise LogError(str(e), line=lineno) from e
            if records and record.index <= records[-1].index:
                raise LogError(
                    f"index {record.index} not greater than previous {records[-1].index}",
                    line=lineno,
                )
            records.append(record)
    if header is None:
        raise LogError("log is empty (missing header)", line=1)
    return header, records


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(
    path: str | Path, weights: NetworkWeights, meta: Mapping | None = None
) -> None:
    """Versioned binary container; identical weights give identical bytes."""
    entries = []
    blobs = []
    offset = 0
    dtype_name = np.dtype(weights.dtype).name
    if dtype_name not in _DTYPES:
        raise ValidationError(f"checkpoint dtype must be float32/float64, got {dtype_name}")
    for lid, role, a in weights.items():
        raw = np.ascontiguousarray(a, dtype=_DTYPES[dtype_name]).tobytes()
        entries.append(
            {"layer": lid, "role": role, "shape": list(a.shape), "offset": offset, "nbytes": len(raw)}
        )
        blobs.append(raw)
        offset += len(raw)
    header = {
        "version": SCHEMA_VERSION,
        "arch": weights.arch_name,
        "dtype": dtype_name,
        "meta": dict(meta) if meta else {},
        "entries": entries,
    }
    write_atomic(path, b"".join([_CKPT_MAGIC, canonical_json(header).encode(), b"\n", *blobs]))


def load_checkpoint(path: str | Path) -> tuple[NetworkWeights, dict]:
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ValidationError(f"{path} is not a checkpoint (bad magic)")
        header_line = f.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise ValidationError(f"{path}: corrupt checkpoint header") from e
        if header.get("version") != SCHEMA_VERSION:
            raise ValidationError(f"{path}: unsupported checkpoint version {header.get('version')}")
        body = f.read()
    dtype = _DTYPES.get(header.get("dtype"))
    if dtype is None:
        raise ValidationError(f"{path}: unknown checkpoint dtype {header.get('dtype')}")
    tensors: dict[int, dict[str, np.ndarray]] = {}
    for e in header["entries"]:
        raw = body[e["offset"] : e["offset"] + e["nbytes"]]
        if len(raw) != e["nbytes"]:
            raise ValidationError(f"{path}: truncated checkpoint body")
        a = np.frombuffer(raw, dtype=dtype).reshape(e["shape"]).copy()
        tensors.setdefault(int(e["layer"]), {})[e["role"]] = a
    return NetworkWeights(tensors, header.get("arch", "")), header.get("meta", {})


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


def edf_csv(curve: EDFCurve) -> str:
    lines = ["accuracy_drop,fraction_below,fraction_at_or_below"]
    for value in curve.drops:
        if math.isinf(value):
            continue
        v = float(value)
        lines.append(_csv_line([v, curve.fraction_below(v), curve.fraction_at_or_below(v)]))
    return "\n".join(lines) + "\n"


def summary_csv(summary: DistributionSummary) -> str:
    lines = ["stat,value"]
    lines.append(_csv_line(["n", summary.n]))
    for name in ("minimum", "q1", "median", "q3", "maximum"):
        lines.append(_csv_line([name, getattr(summary, name)]))
    return "\n".join(lines) + "\n"


def histogram_csv(summary: DistributionSummary) -> str:
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, count in zip(summary.bin_edges, summary.bin_edges[1:], summary.counts):
        lines.append(_csv_line([lo, hi, count]))
    return "\n".join(lines) + "\n"


def winners_csv(winners: Sequence[TrialRecord]) -> str:
    lines = ["rank,index,accuracy_drop,c_flops,c_params,mcb,recipe_std,seed,epochs,schedule,recipe"]
    for rank, t in enumerate(winners, start=1):
        recipe = ";".join(_format_float(r) for r in t.recipe)
        drop = "inf" if t.diverged else _format_float(t.accuracy_drop)
        lines.append(
            _csv_line(
                [rank, t.index, drop, t.cost.c_flops, t.cost.c_params, t.cost.mcb,
                 t.recipe_std, t.seed, t.epochs, t.schedule_kind, recipe]
            )
        )
    return "\n".join(lines) + "\n"


def regimes_csv(rows: Sequence[RegimeRow]) -> str:
    lines = [
        "target_cflops,flops_reduction,winner_mcb_q1,winner_mcb_median,winner_mcb_q3,"
        "best_drop,uniform_mcb"
    ]
    for r in rows:
        lines.append(
            _csv_line(
                [r.target_cflops, r.flops_reduction, r.winner_mcb_q1, r.winner_mcb_median,
                 r.winner_mcb_q3, r.best_drop, r.uniform_mcb]
            )
        )
    return "\n".join(lines) + "\n"


def compare_csv(report: SpaceComparison) -> str:
    lines = ["space_a,space_b,quantile,drop_at_quantile,edf_a,edf_b,edf_diff,a_dominates_at_median"]
    for pair in report.pairs:
        for level, point, fa, fb, diff in zip(
            pair.quantile_levels, pair.drop_points, pair.edf_a, pair.edf_b, pair.diffs
        ):
            lines.append(
                _csv_line(
                    [pair.space_a, pair.space_b, level, point, fa, fb, diff,
                     str(pair.a_dominates_at_median).lower()]
                )
            )
    return "\n".join(lines) + "\n"

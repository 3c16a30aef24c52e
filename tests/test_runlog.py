import hashlib
import json
import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunespace import (
    CostReport,
    LogError,
    TrialLog,
    TrialRecord,
    ValidationError,
    arch_to_json,
    builtin_arch,
    canonical_json,
    config_hash,
    compare_spaces,
    compare_csv,
    distribution_summary,
    edf,
    edf_csv,
    histogram_csv,
    init_weights,
    load_checkpoint,
    one_shot_prune,
    prunable_units,
    read_trials,
    save_checkpoint,
    summary_csv,
    trial_from_json,
    trial_to_json,
    winners_csv,
)
from prunespace.runlog import write_atomic
from prunespace.training import KINDS


def _trial(index, drop=1.5, seed=0):
    diverged = math.isinf(drop)
    return TrialRecord(
        index=index,
        recipe=(0.1 + index * 1e-9, 0.5),
        arch="chain3",
        cost=CostReport(6942, 153, 6942 / 20796, 153 / 404, (6942 / 20796) / (153 / 404)),
        recipe_std=0.2,
        accuracy_drop=drop,
        schedule="finetune",
        epochs=2,
        seed=seed,
        diverged=diverged,
    )


# -- canonical JSON ------------------------------------------------------------


def test_float_formatting():
    assert canonical_json(0.5) == "0.5"
    assert canonical_json(1.0) == "1.0"
    assert canonical_json(-3.0) == "-3.0"
    assert canonical_json(2.0**100) == "1.2676506002282294e+30"
    assert canonical_json(0.1) == "0.10000000000000001"
    with pytest.raises(ValidationError):
        canonical_json(math.nan)
    with pytest.raises(ValidationError):
        canonical_json(math.inf)


def test_float_round_trip_exact():
    rng = np.random.default_rng(0)
    values = list(rng.normal(size=200)) + list(rng.normal(size=50) * 1e-300)
    values += [5e-324, -5e-324, 2.0**-1074, 1.7e308, 1 / 3]
    for v in values:
        v = float(v)
        assert float(canonical_json(v)) == v, v


def test_canonical_json_shapes():
    assert canonical_json(True) == "true"
    assert canonical_json(None) == "null"
    assert canonical_json(np.int64(3)) == "3"
    assert canonical_json(np.float64(0.25)) == "0.25"
    assert canonical_json({"b": 1, "a": [2, "x"]}) == '{"b":1,"a":[2,"x"]}'
    assert canonical_json({"b": 1, "a": 2}, sort_keys=True) == '{"a":2,"b":1}'
    with pytest.raises(ValidationError):
        canonical_json({1: "x"})
    with pytest.raises(ValidationError):
        canonical_json(object())


def test_config_hash_is_order_insensitive():
    a = config_hash({"a": 1, "b": {"c": 0.5}})
    b = config_hash({"b": {"c": 0.5}, "a": 1})
    assert a == b
    assert len(a) == 16 and all(c in "0123456789abcdef" for c in a)
    assert config_hash({"a": 2}) != a


# -- trial records ---------------------------------------------------------------


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _trials(draw, index=st.integers(0, 2**40)):
    diverged = draw(st.booleans())
    return TrialRecord(
        index=draw(index),
        recipe=tuple(draw(st.lists(st.floats(0.0, 1.0) | st.integers(0, 1), max_size=8))),
        arch=draw(st.text(max_size=12)),
        cost=draw(st.builds(CostReport, st.integers(1, 2**53), st.integers(1, 2**53), _finite, _finite, _finite)),
        recipe_std=draw(_finite),
        accuracy_drop=math.inf if diverged else draw(_finite),
        diverged=diverged,
        schedule=draw(st.sampled_from(KINDS)),
        epochs=draw(st.integers(1, 1000)),
        seed=draw(st.integers(-(2**63), 2**64)),
    )


@settings(max_examples=200, deadline=None)
@given(t=_trials())
def test_trial_record_round_trip(t):
    assert trial_from_json(json.loads(canonical_json(trial_to_json(t)))) == t


def test_diverged_trial_round_trip():
    t = _trial(0, drop=math.inf)
    doc = trial_to_json(t)
    assert doc["accuracy_drop"] is None
    assert doc["diverged"] is True
    back = trial_from_json(doc)
    assert back.diverged and math.isinf(back.accuracy_drop)


def test_trial_lines_without_and_with_wall_time():
    # schema 1 lines once carried an always-null "wall_time"; both shapes read
    t = _trial(2)
    doc = trial_to_json(t)
    assert "wall_time" not in doc
    line = canonical_json(doc)
    legacy = line[:-1] + ',"wall_time":null}'
    assert trial_from_json(json.loads(legacy)) == t == trial_from_json(json.loads(line))


def test_trial_from_json_rejects_malformed():
    with pytest.raises(LogError):
        trial_from_json({"index": 0})
    with pytest.raises(LogError, match="misses the required field 'diverged'"):
        trial_from_json({k: v for k, v in trial_to_json(_trial(0)).items() if k != "diverged"})
    doc = trial_to_json(_trial(0))
    doc["cost"] = "cheap"
    with pytest.raises(LogError):
        trial_from_json(doc)


# -- trial logs -------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    indices=st.lists(st.integers(0, 10_000), unique=True, max_size=6).map(sorted),
    data=st.data(),
)
def test_trial_log_round_trip(indices, data):
    records = [data.draw(_trials(index=st.just(i))) for i in indices]
    config = {"arch": "chain3", "n": len(indices)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.jsonl"
        log = TrialLog(path, config)
        for r in records:
            log.append(r)
        header, back = read_trials(path)
        assert header == {"schema_version": 1, "config_hash": config_hash(config)}
        assert back == records == log.records == TrialLog(path, config).records


def test_trial_log_enforces_index_order(tmp_path):
    log = TrialLog(tmp_path / "t.jsonl", {"x": 1})
    log.append(_trial(0))
    log.append(_trial(2))
    with pytest.raises(LogError):
        log.append(_trial(2))
    with pytest.raises(LogError):
        log.append(_trial(1))


def test_trial_log_reopen_continues(tmp_path):
    path = tmp_path / "t.jsonl"
    config = {"x": 1}
    first = TrialLog(path, config)
    first.append(_trial(0))
    again = TrialLog(path, config)
    again.append(_trial(1))
    assert [r.index for r in again.records] == [0, 1]


def test_trial_log_rejects_config_mismatch(tmp_path):
    path = tmp_path / "t.jsonl"
    TrialLog(path, {"x": 1}).append(_trial(0))
    with pytest.raises(LogError, match="different config"):
        TrialLog(path, {"x": 2})
    log = TrialLog(path, {"x": 1})
    assert [r.index for r in log.records] == [0]


def test_read_trials_reports_corrupt_line(tmp_path):
    path = tmp_path / "t.jsonl"
    log = TrialLog(path, {"x": 1})
    log.append(_trial(0))
    with open(path, "a") as f:
        f.write("{not json\n")
    with pytest.raises(LogError) as err:
        read_trials(path)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_read_trials_header_requirements(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(canonical_json(trial_to_json(_trial(0))) + "\n")
    with pytest.raises(LogError) as err:
        read_trials(path)
    assert err.value.line == 1
    path.write_text('{"schema_version":99,"config_hash":"0"}\n')
    with pytest.raises(LogError):
        read_trials(path)
    with pytest.raises(LogError):
        read_trials(tmp_path / "nope.jsonl")


def test_read_trials_rejects_disordered_indices(tmp_path):
    path = tmp_path / "t.jsonl"
    log = TrialLog(path, {"x": 1})
    log.append(_trial(0))
    log.append(_trial(1))
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    with pytest.raises(LogError) as err:
        read_trials(path)
    assert err.value.line == 3


def test_trial_log_cuts_torn_final_line(tmp_path, caplog):
    path = tmp_path / "t.jsonl"
    log = TrialLog(path, {"x": 1})
    for i in range(2):
        log.append(_trial(i))
    whole = path.read_bytes()
    last = canonical_json(trial_to_json(_trial(2))) + "\n"
    path.write_bytes(whole + last[: len(last) // 2].encode())
    with pytest.raises(LogError):
        read_trials(path)  # the reader refuses a torn line and leaves it in place
    assert path.read_bytes() == whole + last[: len(last) // 2].encode()
    # the writer cuts a record torn mid-line, and one complete but for its newline
    for tail in (last[: len(last) // 2], last[:-1]):
        path.write_bytes(whole + tail.encode())
        caplog.clear()
        with caplog.at_level("WARNING", logger="prunespace"):
            reopened = TrialLog(path, {"x": 1})
        assert path.read_bytes() == whole
        assert len([r for r in caplog.records if "torn final line" in r.getMessage()]) == 1
        reopened.append(_trial(2))
        assert path.read_bytes() == whole + last.encode()


def test_trial_log_torn_header_starts_over(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"schema_version":1,"con')
    log = TrialLog(path, {"x": 1})
    log.append(_trial(0))
    fresh = tmp_path / "fresh.jsonl"
    TrialLog(fresh, {"x": 1}).append(_trial(0))
    assert path.read_bytes() == fresh.read_bytes()


def test_trial_log_refuses_corrupt_middle_line(tmp_path):
    path = tmp_path / "t.jsonl"
    log = TrialLog(path, {"x": 1})
    for i in range(3):
        log.append(_trial(i))
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:10]
    path.write_text("\n".join(lines) + "\n")
    before = path.read_bytes()
    with pytest.raises(LogError) as err:
        TrialLog(path, {"x": 1})
    assert err.value.line == 3
    with pytest.raises(LogError):
        read_trials(path)
    assert path.read_bytes() == before


def test_write_atomic_replaces_whole_file(tmp_path, monkeypatch):
    path = tmp_path / "sub" / "a.txt"
    write_atomic(path, "first\n")
    write_atomic(path, b"second\n")
    assert path.read_bytes() == b"second\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["a.txt"]

    def failing(src, dst):
        raise OSError("injected")

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="injected"):
        write_atomic(path, "third\n")
    assert path.read_bytes() == b"second\n"  # the old file survives a failed write
    monkeypatch.undo()
    write_atomic(path, "third\n")  # and the next write takes over the stale temp file
    assert sorted(p.name for p in path.parent.iterdir()) == ["a.txt"]
    assert path.read_bytes() == b"third\n"


def test_trial_log_scales(tmp_path):
    path = tmp_path / "big.jsonl"
    log = TrialLog(path, {"x": 1})
    lines = [canonical_json(trial_to_json(_trial(i, drop=0.001 * i))) for i in range(10_000)]
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")
    start = time.perf_counter()
    _, records = read_trials(path)
    elapsed = time.perf_counter() - start
    assert len(records) == 10_000
    assert elapsed < 1.0


# -- checkpoints ------------------------------------------------------------------


_meta = st.dictionaries(
    st.text(max_size=8),
    st.none() | st.booleans() | st.integers() | _finite | st.text(max_size=8) | st.lists(st.integers(), max_size=3),
    max_size=4,
)


@st.composite
def _network(draw):
    """Weights and architecture: a builtin, or one pruned from it by a drawn recipe."""
    arch = builtin_arch(draw(st.sampled_from(["chain3", "resnet-tiny"])))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    weights = init_weights(arch, draw(st.integers(0, 2**32)), dtype=dtype)
    if draw(st.booleans()):
        units = len(prunable_units(arch))
        ratios = draw(st.lists(st.floats(0.0, 0.95), min_size=units, max_size=units))
        pruned = one_shot_prune(weights, arch, ratios)
        weights, arch = pruned.weights, pruned.arch
    return weights, arch


@settings(max_examples=50, deadline=None)
@given(network=_network(), meta=_meta)
def test_checkpoint_round_trip(network, meta):
    weights, arch = network
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.ckpt", Path(tmp) / "b.ckpt"
        save_checkpoint(first, weights, arch, meta=meta)
        back, back_arch, back_meta = load_checkpoint(first)
        assert back_meta == meta and arch_to_json(back_arch) == arch_to_json(arch)
        assert [(lid, role) for lid, role, _ in back.items()] == [(lid, role) for lid, role, _ in weights.items()]
        for (_, _, a), (_, _, b) in zip(weights.items(), back.items()):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        save_checkpoint(second, back, back_arch, meta=back_meta)
        assert second.read_bytes() == first.read_bytes()


def test_checkpoint_float64_and_default_meta(tmp_path):
    arch = builtin_arch("chain3")
    weights = init_weights(arch, seed=1, dtype=np.float64)
    path = tmp_path / "w.ckpt"
    save_checkpoint(path, weights, arch)
    back, _, meta = load_checkpoint(path)
    assert meta == {}
    assert back.dtype == np.float64
    assert np.array_equal(back.tensors[0]["w"], weights.tensors[0]["w"])


def test_checkpoint_bytes_deterministic(tmp_path):
    arch = builtin_arch("chain3")
    weights = init_weights(arch, seed=2)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, weights, arch, meta={"k": 1})
    save_checkpoint(b, weights.copy(), arch, meta={"k": 1})
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_rejects_bad_inputs(tmp_path):
    arch = builtin_arch("chain3")
    weights = init_weights(arch, seed=3)
    path = tmp_path / "w.ckpt"
    with pytest.raises(ValidationError):
        save_checkpoint(path, weights.astype(np.float16), arch)
    save_checkpoint(path, weights, arch)
    data = path.read_bytes()
    (tmp_path / "bad_magic.ckpt").write_bytes(b"NOTACKPT" + data[8:])
    with pytest.raises(ValidationError):
        load_checkpoint(tmp_path / "bad_magic.ckpt")
    (tmp_path / "truncated.ckpt").write_bytes(data[:-16])
    with pytest.raises(ValidationError):
        load_checkpoint(tmp_path / "truncated.ckpt")


# -- pinned bytes ---------------------------------------------------------------


def _pinned_trial(index, drop, seed, kind="finetune", epochs=2):
    return TrialRecord(
        index=index,
        recipe=(0.1 + index * 1e-9, 0.5, 1 / 3),
        arch="chain3",
        cost=CostReport(6942, 153, 6942 / 20796, 153 / 404, (6942 / 20796) / (153 / 404)),
        recipe_std=0.2,
        accuracy_drop=drop,
        diverged=math.isinf(drop),
        schedule=kind,
        epochs=epochs,
        seed=seed,
    )


def _format_bytes(tmp: Path) -> dict[str, bytes]:
    log = TrialLog(tmp / "t.jsonl", {"arch": "chain3", "n": 3})
    for r in (_pinned_trial(0, -0.25, 1), _pinned_trial(1, math.inf, 1), _pinned_trial(2, 12.5, 1)):
        log.append(r)
    chain3, tiny = builtin_arch("chain3"), builtin_arch("resnet-tiny")
    save_checkpoint(tmp / "a.ckpt", init_weights(chain3, 0), chain3, meta={"val_accuracy": 0.97, "note": "dense"})
    save_checkpoint(
        tmp / "b.ckpt",
        init_weights(tiny, 1, dtype=np.float64),
        tiny,
        meta={"dense_key": "0123456789abcdef", "val_accuracy": 0.5, "nested": {"rank": [1, 2]}},
    )
    return {
        "trial.finite": canonical_json(trial_to_json(_pinned_trial(3, 0.1 + 0.2, 0))).encode(),
        "trial.diverged": canonical_json(trial_to_json(_pinned_trial(7, math.inf, 5, "scratch", 3))).encode(),
        "log": (tmp / "t.jsonl").read_bytes(),
        "ckpt.chain3.float32": (tmp / "a.ckpt").read_bytes(),
        "ckpt.resnet-tiny.float64": (tmp / "b.ckpt").read_bytes(),
    }


# sha256 of each format's bytes: trial lines and logs as the hand-written emitters
# wrote them; checkpoints as of version 2, whose header holds the arch document
_FORMAT_DIGESTS = {
    "trial.finite": "f30da929e5d6faa48b5b69addd5839a3fe673bacc26acc18918a6211deeb269b",
    "trial.diverged": "d5a29ed30b6a9e9d1b3b0c3c07c875de6671e9d11d57a93b776bb1de8eef50bb",
    "log": "a4fbf289e3c8cc3e17bfac23ea61ae52348927ddbc751233c7ebafba48a91baa",
    "ckpt.chain3.float32": "1bf8eca623061d3ed3117c2ec88d285ebec3a504e221e437bbf6cfc00016c36b",
    "ckpt.resnet-tiny.float64": "158366421877a13f9be7b6edd584fd9a7d7146fc7d8d579a730a1dfd50c72aa0",
}


def test_format_bytes_are_pinned(tmp_path):
    got = {name: hashlib.sha256(data).hexdigest() for name, data in _format_bytes(tmp_path).items()}
    assert got == _FORMAT_DIGESTS


# -- CSVs ----------------------------------------------------------------------


def test_edf_csv_golden():
    curve = edf([1.0, 2.0, math.inf])
    text = edf_csv(curve)
    assert text == (
        "accuracy_drop,fraction_below,fraction_at_or_below\n"
        "1.0,0.0,0.33333333333333331\n"
        "2.0,0.33333333333333331,0.66666666666666663\n"
    )


def test_summary_and_histogram_csv():
    trials = [_trial(i, drop=float(i)) for i in range(5)]
    s = distribution_summary(trials, "accuracy_drop", bins=2)
    assert summary_csv(s) == (
        "stat,value\nn,5\nminimum,0.0\nq1,1.0\nmedian,2.0\nq3,3.0\nmaximum,4.0\n"
    )
    hist = histogram_csv(s)
    lines = hist.strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 3
    assert lines[1].endswith(",2") and lines[2].endswith(",3")


def test_winners_csv_shape():
    rows = winners_csv([_trial(4, drop=0.25), _trial(7, drop=math.inf)]).strip().split("\n")
    assert rows[0].startswith("rank,index,accuracy_drop")
    first = rows[1].split(",")
    assert first[0] == "1" and first[1] == "4" and first[2] == "0.25"
    assert ";" in first[-1]  # recipe stays one cell
    second = rows[2].split(",")
    assert second[0] == "2" and second[2] == "inf"


def test_compare_csv_shape():
    a = [_trial(i, 1.0) for i in range(4)]
    b = [_trial(i, 2.0) for i in range(4)]
    text = compare_csv(compare_spaces({"a": a, "b": b}))
    lines = text.strip().split("\n")
    assert lines[0].startswith("space_a,space_b,quantile")
    assert len(lines) == 1 + 2 * 3  # two ordered pairs, three quantiles
    assert lines[1].split(",")[-1] in ("true", "false")

import collections
import dataclasses
import functools
import json
import math
import operator

import numpy as np
import pytest

from prunespace import (
    ArchitectureSpec,
    LayerSpec,
    SchemaError,
    ValidationError,
    arch_to_json,
    builtin_arch,
    builtin_names,
    kept_channels,
    load_arch,
    prunable_units,
    resolve_plan,
)

from .oracles import kept_channels_fraction


def test_builtin_names():
    assert builtin_names() == ("chain3", "resnet-tiny", "resnet50-shape")
    with pytest.raises(ValidationError):
        builtin_arch("nope")


def test_chain3_structure():
    arch = builtin_arch("chain3")
    assert len(arch.layers) == 3
    assert arch.input_shape == (3, 8, 8)
    units = prunable_units(arch)
    assert len(units) == 2
    assert [u.c_out for u in units] == [4, 6]
    # classifier excluded from the knobs
    assert all(arch.classifier_id not in u.layer_ids for u in units)


def test_resnet_tiny_structure():
    arch = builtin_arch("resnet-tiny")
    units = prunable_units(arch)
    assert len(units) == 6
    groups = [u for u in units if len(u.layer_ids) > 1]
    assert len(groups) == 2
    assert sorted(u.c_out for u in groups) == [8, 16]
    # every residual sum is fed by layers of one group
    for lid, prods in arch.producers.items():
        if len(prods) > 1:
            gids = {arch.layer(p).coupling_group for p in prods}
            assert len(gids) == 1 and None not in gids


def test_resnet50_shape_structure():
    arch = builtin_arch("resnet50-shape")
    convs = [l for l in arch.layers if l.kind == "conv"]
    assert len(convs) == 53
    units = prunable_units(arch)
    assert len(units) == 20
    # 16 per-block knobs plus 4 stage groups tying blocks to their shortcut
    widths = collections.Counter(u.c_out for u in units)
    assert widths == {64: 3, 128: 4, 256: 7, 512: 4, 1024: 1, 2048: 1}


def test_kept_channels_table():
    assert kept_channels(8, 0.5) == 4
    assert kept_channels(8, 0.25) == 6
    assert kept_channels(8, 0.9) == 1
    assert kept_channels(1, 0.95) == 1
    assert kept_channels(5, 0.5) == 3  # half rounds up
    assert kept_channels(6, 0.5) == 3
    assert kept_channels(4, 0.0) == 4


def test_kept_channels_matches_fraction_oracle():
    rng = np.random.default_rng(0)
    for _ in range(500):
        c = int(rng.integers(1, 64))
        r = float(rng.uniform(0, 0.95))
        assert kept_channels(c, r) == kept_channels_fraction(c, r), (c, r)


def test_resolve_plan_group_sharing():
    arch = builtin_arch("resnet-tiny")
    units = prunable_units(arch)
    plan = resolve_plan(arch, [0.3] * len(units))
    for u in units:
        kept = {plan.kept[lid] for lid in u.layer_ids}
        assert len(kept) == 1


def test_resolve_plan_validation():
    arch = builtin_arch("chain3")
    with pytest.raises(ValidationError):
        resolve_plan(arch, [0.5])  # wrong length
    with pytest.raises(ValidationError):
        resolve_plan(arch, [0.5, 0.96], ratio_max=0.95)  # above a space's R
    with pytest.raises(ValidationError):
        resolve_plan(arch, [0.5, 0.96], 0.95)  # the bound passed positionally
    with pytest.raises(ValidationError):
        resolve_plan(arch, [-0.1, 0.5])
    with pytest.raises(ValidationError):
        resolve_plan(arch, [0.5, 1.01])  # above the geometric domain [0, 1]
    with pytest.raises(ValidationError):
        resolve_plan(arch, [math.nan, 0.5])
    # without a space's bound, any ratio in [0, 1] resolves
    assert resolve_plan(arch, [0.96, 1.0]).kept == {0: 1, 1: 1, 2: 10}


def test_arch_json_round_trip():
    for name in builtin_names():
        arch = builtin_arch(name)
        doc = arch_to_json(arch)
        again = load_arch(json.dumps(doc))
        assert arch_to_json(again) == doc
        assert len(prunable_units(again)) == len(prunable_units(arch))


def _chain_doc():
    return {
        "name": "t",
        "input": [3, 8, 8],
        "layers": [
            {"id": 0, "kind": "conv", "c_in": 3, "c_out": 4, "k": 3, "stride": 1,
             "pad": 1, "bias": True, "prunable": True},
            {"id": 1, "kind": "fc", "c_in": 4, "c_out": 2, "k": 0, "stride": 1,
             "pad": 0, "bias": True, "prunable": False},
        ],
        "edges": [[0, 1]],
        "classifier": 1,
    }


def test_load_arch_rejects_unknown_fields():
    doc = _chain_doc()
    doc["layers"][0]["color"] = "red"
    with pytest.raises(ValidationError):
        load_arch(doc)
    doc = _chain_doc()
    doc["extra"] = 1
    with pytest.raises(ValidationError):
        load_arch(doc)


@pytest.mark.parametrize("where", [
    ("input", 0),
    ("layers", 0, "id"),
    ("layers", 0, "c_in"),
    ("layers", 0, "c_out"),
    ("layers", 0, "k"),
    ("layers", 0, "stride"),
    ("layers", 0, "pad"),
    ("layers", 0, "group"),
    ("edges", 0, 0),
    ("classifier",),
], ids=lambda where: ".".join(map(str, where)))
def test_load_arch_rejects_bools_for_ints(where):
    # JSON true is no integer, although Python's True == 1; stride true must not load as stride 1
    doc = _chain_doc()
    *parents, key = where
    functools.reduce(operator.getitem, parents, doc)[key] = True
    with pytest.raises(SchemaError):
        load_arch(doc)


def test_load_arch_rejects_cycles():
    doc = _chain_doc()
    doc["layers"].insert(1, {
        "id": 2, "kind": "conv", "c_in": 4, "c_out": 3, "k": 3, "stride": 1,
        "pad": 1, "bias": True, "prunable": True,
    })
    doc["layers"][0]["c_in"] = 3
    doc["edges"] = [[0, 2], [2, 0], [2, 1]]
    with pytest.raises(ValidationError):
        load_arch(doc)


def test_load_arch_rejects_shape_mismatch():
    doc = _chain_doc()
    doc["layers"][0]["c_out"] = 5
    doc["layers"][1]["c_in"] = 4  # disagrees with producer
    with pytest.raises(ValidationError):
        load_arch(doc)


def test_multi_producer_requires_shared_group():
    layers = [
        LayerSpec(0, "conv", 3, 4, kernel=3, stride=1, padding=1, has_bias=True, prunable=True),
        LayerSpec(1, "conv", 4, 4, kernel=3, stride=1, padding=1, has_bias=True, prunable=True),
        LayerSpec(2, "conv", 4, 5, kernel=3, stride=1, padding=1, has_bias=True, prunable=True),
        LayerSpec(3, "fc", 5, 2, has_bias=True, prunable=False),
    ]
    edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    with pytest.raises(ValidationError):
        ArchitectureSpec("t", (3, 8, 8), layers, edges, 3)
    grouped = [
        dataclasses.replace(layers[0], coupling_group=0),
        dataclasses.replace(layers[1], coupling_group=0),
        layers[2],
        layers[3],
    ]
    arch = ArchitectureSpec("t", (3, 8, 8), grouped, edges, 3)
    assert len(prunable_units(arch)) == 2  # group + free layer


def test_spatial_shape_propagation():
    arch = builtin_arch("resnet-tiny")
    stem = arch.layer(0)
    assert (stem.out_h, stem.out_w) == (16, 16)
    # stage-2 entry halves the grid
    strided = [l for l in arch.layers if l.kind == "conv" and l.stride == 2]
    assert all((l.out_h, l.out_w) == (8, 8) for l in strided)


def test_classifier_constraints():
    doc = _chain_doc()
    doc["classifier"] = 0  # conv classifier
    with pytest.raises(ValidationError):
        load_arch(doc)

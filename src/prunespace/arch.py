"""Architecture descriptions, builtin model families, and pruning plans.

An architecture is an acyclic graph of conv/fc layers. Edges carry activation
flow from producer to consumer; a consumer with several producers sums their
outputs (a residual add), which forces those producers to share output-channel
structure. Layers whose outputs are summed together therefore belong to one
coupling group and are always pruned identically.

A pruning recipe assigns one ratio in [0, 1] to each prunable unit (a free
layer or a whole coupling group); a pruning space may bound it lower, by its
ratio_max R. `resolve_plan` is the one place a recipe becomes concrete
per-layer kept-channel counts, with the rounding rule

    kept_out = max(1, round_half_up((1 - r) * c_out))

so a layer never loses all of its filters.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import SchemaError, ValidationError
from .schema import spec_from_json

if TYPE_CHECKING:
    from .sampling import PruningRecipe

RATIO_MAX_DEFAULT = 0.95

CONV = "conv"
FC = "fc"

@dataclass(frozen=True)
class LayerSpec:
    """One weight layer. out_h/out_w are derived from the graph when zero."""

    id: int
    kind: str
    c_in: int
    c_out: int
    kernel: int = 1
    stride: int = 1
    padding: int = 0
    out_h: int = 0
    out_w: int = 0
    has_bias: bool = True
    has_affine: bool = False
    prunable: bool = True
    coupling_group: int | None = None


@dataclass(frozen=True)
class PrunableUnit:
    """One knob of a pruning recipe: a free layer or a whole coupling group."""

    index: int
    layer_ids: tuple[int, ...]
    c_out: int
    coupling_group: int | None

    @property
    def label(self) -> str:
        if self.coupling_group is None:
            return f"layer{self.layer_ids[0]}"
        return f"group{self.coupling_group}"


@dataclass(frozen=True)
class SubnetworkPlan:
    """Concrete kept-channel counts for every layer of an arch.

    Which filters survive is decided later, by weight-aware pruning.
    """

    kept: Mapping[int, int]


class ArchitectureSpec:
    """Validated layer graph with resolved spatial shapes.

    Immutable after construction. Derived lookups (producers, consumers,
    topological order, prunable units) are computed once here and shared by
    the cost model, the sampler, and the training kernel.
    """

    def __init__(
        self,
        name: str,
        input_shape: Sequence[int],
        layers: Iterable[LayerSpec],
        edges: Iterable[tuple[int, int]],
        classifier_id: int,
    ):
        self.name = str(name)
        self.input_shape = tuple(int(v) for v in input_shape)
        self.edges = tuple((int(a), int(b)) for a, b in edges)
        self.classifier_id = int(classifier_id)
        self.layers = self._resolve(tuple(layers))
        self.layer_map = {l.id: l for l in self.layers}
        self._units = self._collect_units()

    # -- validation / shape propagation -------------------------------------

    def _resolve(self, layers: tuple[LayerSpec, ...]) -> tuple[LayerSpec, ...]:
        if len(self.input_shape) != 3 or any(v < 1 for v in self.input_shape):
            raise ValidationError(f"input shape must be 3 positive ints, got {self.input_shape}")
        ids = [l.id for l in layers]
        if len(ids) != len(set(ids)):
            raise ValidationError("duplicate layer ids")
        if not layers:
            raise ValidationError("architecture has no layers")
        by_id = {l.id: l for l in layers}
        if self.classifier_id not in by_id:
            raise ValidationError(f"classifier id {self.classifier_id} is not a layer")
        for a, b in self.edges:
            if a not in by_id or b not in by_id:
                raise ValidationError(f"edge ({a}, {b}) references unknown layer")
            if a == b:
                raise ValidationError(f"self-edge on layer {a}")
        if len(set(self.edges)) != len(self.edges):
            raise ValidationError("duplicate edges")

        producers: dict[int, list[int]] = {l.id: [] for l in layers}
        consumers: dict[int, list[int]] = {l.id: [] for l in layers}
        for a, b in self.edges:
            producers[b].append(a)
            consumers[a].append(b)

        # Kahn toposort; cycles are schema violations.
        indeg = {i: len(producers[i]) for i in by_id}
        queue = sorted(i for i, d in indeg.items() if d == 0)
        topo: list[int] = []
        while queue:
            i = queue.pop(0)
            topo.append(i)
            for c in consumers[i]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
            queue.sort()
        if len(topo) != len(layers):
            raise ValidationError("layer graph has a cycle")

        for l in layers:
            if l.kind not in (CONV, FC):
                raise ValidationError(f"layer {l.id}: unknown kind {l.kind!r}")
            if l.kind == FC and l.id != self.classifier_id:
                raise ValidationError(f"layer {l.id}: fc layers other than the classifier are not supported")
            if min(l.c_in, l.c_out) < 1:
                raise ValidationError(f"layer {l.id}: channel counts must be positive")
            if l.kind == CONV and (l.kernel < 1 or l.stride < 1 or l.padding < 0):
                raise ValidationError(f"layer {l.id}: bad conv geometry")
        clf = by_id[self.classifier_id]
        if clf.kind != FC:
            raise ValidationError("classifier layer must have kind 'fc'")
        if clf.prunable:
            raise ValidationError("classifier output channels are not prunable")
        if clf.has_affine:  # the forward pass applies no affine to the classifier
            raise ValidationError("classifier layer cannot have an affine")
        if consumers[self.classifier_id]:
            raise ValidationError("classifier must be the final layer (no consumers)")
        for l in layers:
            if l.id != self.classifier_id and not consumers[l.id]:
                raise ValidationError(f"layer {l.id}: output is never consumed")

        # Shape propagation in topological order. A layer with no producers
        # reads the network input.
        in_c, in_h, in_w = self.input_shape
        shapes: dict[int, tuple[int, int, int]] = {}
        resolved: dict[int, LayerSpec] = {}
        for lid in topo:
            l = by_id[lid]
            prods = producers[lid]
            if not prods:
                src = (in_c, in_h, in_w)
            else:
                seen = {shapes[p] for p in prods}
                if len(seen) != 1:
                    raise ValidationError(
                        f"layer {lid}: producers disagree on shape: {sorted(seen)}"
                    )
                src = seen.pop()
                if len(prods) > 1:
                    groups = {by_id[p].coupling_group for p in prods}
                    if len(groups) != 1 or None in groups:
                        raise ValidationError(
                            f"layer {lid}: residual add requires all producers in one coupling group"
                        )
            sc, sh, sw = src
            if l.c_in != sc:
                raise ValidationError(f"layer {lid}: c_in {l.c_in} != producer channels {sc}")
            if l.kind == CONV:
                span_h = sh + 2 * l.padding - l.kernel
                span_w = sw + 2 * l.padding - l.kernel
                if span_h < 0 or span_w < 0:
                    raise ValidationError(f"layer {lid}: kernel exceeds padded input")
                oh = span_h // l.stride + 1
                ow = span_w // l.stride + 1
            else:
                oh = ow = 1  # global average pool feeds the classifier
            if (l.out_h and l.out_h != oh) or (l.out_w and l.out_w != ow):
                raise ValidationError(
                    f"layer {lid}: declared output {l.out_h}x{l.out_w} != computed {oh}x{ow}"
                )
            l = replace(l, out_h=oh, out_w=ow)
            resolved[lid] = l
            shapes[lid] = (l.c_out, oh, ow)

        groups: dict[int, list[int]] = {}
        for l in resolved.values():
            if l.coupling_group is not None:
                groups.setdefault(l.coupling_group, []).append(l.id)
        for gid, members in groups.items():
            outs = {resolved[m].c_out for m in members}
            if len(outs) != 1:
                raise ValidationError(f"coupling group {gid}: members disagree on c_out {sorted(outs)}")
            flags = {resolved[m].prunable for m in members}
            if len(flags) != 1:
                raise ValidationError(f"coupling group {gid}: members disagree on prunable flag")

        self.producers = {i: tuple(producers[i]) for i in by_id}
        self.consumers = {i: tuple(consumers[i]) for i in by_id}
        self.topo_order = tuple(topo)
        self.groups = {g: tuple(sorted(m)) for g, m in groups.items()}
        return tuple(resolved[l.id] for l in layers)

    def _collect_units(self) -> tuple[PrunableUnit, ...]:
        units: list[PrunableUnit] = []
        seen: set[int] = set()
        for l in sorted(self.layers, key=lambda x: x.id):
            if l.id == self.classifier_id or not l.prunable:
                continue
            g = l.coupling_group
            if g is None:
                units.append(PrunableUnit(len(units), (l.id,), l.c_out, None))
            elif g not in seen:
                seen.add(g)
                units.append(PrunableUnit(len(units), self.groups[g], l.c_out, g))
        return tuple(units)

    # -- queries -------------------------------------------------------------

    @property
    def num_classes(self) -> int:
        return self.layer_map[self.classifier_id].c_out

    def layer(self, layer_id: int) -> LayerSpec:
        return self.layer_map[layer_id]


def prunable_units(arch: ArchitectureSpec) -> tuple[PrunableUnit, ...]:
    """Recipe knobs in layer-id order: free layers and coupling groups (once each)."""
    return arch._units


def kept_channels(c_out: int, ratio: float) -> int:
    """Rounding rule: keep max(1, round_half_up((1 - ratio) * c_out)) filters."""
    return max(1, math.floor((1.0 - ratio) * c_out + 0.5))


def resolve_plan(
    arch: ArchitectureSpec, recipe: PruningRecipe | Sequence[float], ratio_max: float = 1.0
) -> SubnetworkPlan:
    """Turn a recipe into per-layer kept counts.

    `recipe` is a per-unit ratio sequence, or any object with `ratios` (a
    sampled recipe) whose `arch`, when it has one, must name this
    architecture. Every ratio must lie in [0, ratio_max]; pass a space's
    bound to hold a recipe to that space. Coupled layers receive one shared
    count; non-prunable layers and the classifier keep everything.
    """
    if hasattr(recipe, "ratios"):
        named = getattr(recipe, "arch", arch.name)
        if named != arch.name:
            raise ValidationError(f"recipe is for {named!r}, not {arch.name!r}")
        recipe = recipe.ratios
    units = prunable_units(arch)
    ratios = [float(r) for r in recipe]
    if len(ratios) != len(units):
        raise ValidationError(f"recipe length {len(ratios)} != {len(units)} prunable units")
    kept = {l.id: l.c_out for l in arch.layers}
    for i, (unit, r) in enumerate(zip(units, ratios)):
        if not 0.0 <= r <= ratio_max:  # NaN fails every comparison
            raise ValidationError(f"ratio[{i}] = {r} outside [0, {ratio_max}]")
        k = kept_channels(unit.c_out, r)
        for lid in unit.layer_ids:
            kept[lid] = k
    return SubnetworkPlan(kept)


# -- JSON wire format ---------------------------------------------------------


@dataclass(frozen=True)
class _LayerDoc:
    """A layer entry of an architecture document, under its wire names."""

    id: int
    kind: str
    c_in: int
    c_out: int
    k: int
    stride: int
    pad: int
    bias: bool
    prunable: bool
    group: int | None = None
    affine: bool = False

    def __post_init__(self):
        if self.kind not in (CONV, FC):
            raise SchemaError(f"layer kind must be 'conv' or 'fc', got {self.kind!r}")


@dataclass(frozen=True)
class _ArchDoc:
    name: str
    input: tuple[int, int, int]
    layers: tuple[_LayerDoc, ...]
    edges: tuple[tuple[int, int], ...]
    classifier: int


# the wire name of each LayerSpec field, in document order
_LAYER_WIRE = {
    "id": "id", "kind": "kind", "c_in": "c_in", "c_out": "c_out", "kernel": "k", "stride": "stride",
    "padding": "pad", "has_bias": "bias", "prunable": "prunable", "coupling_group": "group",
    "has_affine": "affine",
}


def load_arch(document: str | bytes | Mapping) -> ArchitectureSpec:
    """Parse and validate an architecture JSON document (text or parsed dict).

    Unknown fields are rejected so typos fail loudly.
    """
    doc = spec_from_json(_ArchDoc, document)
    layers = [
        LayerSpec(**{field: getattr(entry, wire) for field, wire in _LAYER_WIRE.items()})
        for entry in doc.layers
    ]
    return ArchitectureSpec(doc.name, doc.input, layers, doc.edges, doc.classifier)


def arch_to_json(arch: ArchitectureSpec) -> dict:
    """Emit the canonical JSON form (round-trips through load_arch)."""
    layers = []
    for l in arch.layers:
        entry = {wire: getattr(l, field) for field, wire in _LAYER_WIRE.items()}
        # a layer outside any coupling group, or without affine parameters, omits the key
        if entry["group"] is None:
            del entry["group"]
        if not entry["affine"]:
            del entry["affine"]
        layers.append(entry)
    return {
        "name": arch.name,
        "input": list(arch.input_shape),
        "layers": layers,
        "edges": [list(e) for e in arch.edges],
        "classifier": arch.classifier_id,
    }


# -- builtin families ---------------------------------------------------------


def _chain3() -> ArchitectureSpec:
    layers = [
        LayerSpec(0, CONV, 3, 4, kernel=3, stride=1, padding=1, has_bias=True),
        LayerSpec(1, CONV, 4, 6, kernel=3, stride=1, padding=1, has_bias=True),
        LayerSpec(2, FC, 6, 10, has_bias=True, prunable=False),
    ]
    return ArchitectureSpec("chain3", (3, 8, 8), layers, [(0, 1), (1, 2)], 2)


def _resnet_tiny() -> ArchitectureSpec:
    def conv(i, c_in, c_out, k=3, s=1, p=1, group=None):
        return LayerSpec(
            i, CONV, c_in, c_out, kernel=k, stride=s, padding=p,
            has_bias=False, has_affine=True, coupling_group=group,
        )

    layers = [
        conv(0, 3, 8, group=0),            # stem, shortcut source for stage 1
        conv(1, 8, 8),                     # block 1 internals
        conv(2, 8, 8, group=0),
        conv(3, 8, 8),                     # block 2 internals
        conv(4, 8, 8, group=0),
        conv(5, 8, 16, s=2),               # stage 2 entry, downsampling
        conv(6, 16, 16, group=1),
        conv(7, 8, 16, k=1, s=2, p=0, group=1),  # projection shortcut
        conv(8, 16, 16),
        conv(9, 16, 16, group=1),
        LayerSpec(10, FC, 16, 10, has_bias=True, prunable=False),
    ]
    edges = [
        (0, 1), (1, 2),
        (0, 3), (2, 3), (3, 4),
        (0, 5), (2, 5), (4, 5),
        (5, 6),
        (0, 7), (2, 7), (4, 7),
        (6, 8), (7, 8), (8, 9),
        (6, 10), (7, 10), (9, 10),
    ]
    return ArchitectureSpec("resnet-tiny", (3, 16, 16), layers, edges, 10)


def _resnet50_shape() -> ArchitectureSpec:
    """Bottleneck ResNet at 224x224 image-classification scale, for cost studies.

    The stem maxpool is folded into the stage-1 entry convs as stride 2 (the
    multiply count is identical). Each bottleneck's two internal convs form one
    coupling group (one width knob per block); the block-output convs and the
    stage's projection shortcut form the per-stage group. The stem conv shares
    the first bottleneck's internal group: it has the same width, and tying it
    there keeps one knob per block while letting uniform recipes reach every
    multiply in the network.
    """
    widths = (64, 128, 256, 512)
    blocks = (3, 4, 6, 3)
    expansion = 4

    layers: list[LayerSpec] = []
    edges: list[tuple[int, int]] = []
    next_id = 0
    next_group = 0

    def conv(c_in, c_out, k, s, p, group=None, prunable=True):
        nonlocal next_id
        l = LayerSpec(
            next_id, CONV, c_in, c_out, kernel=k, stride=s, padding=p,
            has_bias=False, has_affine=True, prunable=prunable, coupling_group=group,
        )
        layers.append(l)
        next_id += 1
        return l.id

    stem = conv(3, 64, k=7, s=2, p=3)
    prev_out = [stem]
    prev_ch = 64
    for s_idx, (w, n_blocks) in enumerate(zip(widths, blocks)):
        stage_group = next_group
        next_group += 1
        stage_out: list[int] = []
        for b in range(n_blocks):
            block_group = next_group
            next_group += 1
            entry = prev_out if b == 0 else stage_out
            entry_ch = prev_ch if b == 0 else w * expansion
            # Stage 1 downsamples at its entry 1x1 (folded maxpool); later
            # stages downsample in the 3x3 conv, torchvision style.
            s1 = 2 if (s_idx == 0 and b == 0) else 1
            s2 = 2 if (s_idx > 0 and b == 0) else 1
            c1 = conv(entry_ch, w, k=1, s=s1, p=0, group=block_group)
            edges.extend((p, c1) for p in entry)
            c2 = conv(w, w, k=3, s=s2, p=1, group=block_group)
            edges.append((c1, c2))
            c3 = conv(w, w * expansion, k=1, s=1, p=0, group=stage_group)
            edges.append((c2, c3))
            if b == 0:
                ds = conv(entry_ch, w * expansion, k=1, s=2, p=0, group=stage_group)
                edges.extend((p, ds) for p in entry)
                stage_out = [c3, ds]
            else:
                stage_out = stage_out + [c3]
        prev_out = stage_out
        prev_ch = w * expansion
    fc = LayerSpec(next_id, FC, prev_ch, 1000, has_bias=True, prunable=False)
    layers.append(fc)
    edges.extend((p, fc.id) for p in prev_out)
    # stem joins the first bottleneck's internal group (same width)
    layers[stem] = replace(layers[stem], coupling_group=layers[stem + 1].coupling_group)
    return ArchitectureSpec("resnet50-shape", (3, 224, 224), layers, edges, fc.id)


_BUILTINS = {
    "chain3": _chain3,
    "resnet-tiny": _resnet_tiny,
    "resnet50-shape": _resnet50_shape,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


@functools.cache
def builtin_arch(name: str) -> ArchitectureSpec:
    """The builtin spec of `name`; one per name, which keeps its cost table cached."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValidationError(
            f"unknown builtin architecture {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    return factory()

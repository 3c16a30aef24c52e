"""Constrained recipe sampling: carving subspaces out of one FLOPs band.

All three spaces below target a quarter of the dense MACs. Tightening the
recipe standard deviation pulls samples toward the uniform recipe; adding a
compute-budget band additionally pins the FLOPs-to-parameter ratio. The
populations are nested restrictions of the same base space.
"""

import numpy as np

from prunespace import (
    SpaceSpec,
    builtin_arch,
    derive_seed,
    is_member,
    network_cost,
    recipe_std,
    resolve_plan,
    sample_population,
)

ARCH = "resnet-tiny"
N = 200
SEED = 42


def describe(label, space, population, arch):
    stds = np.asarray([recipe_std(r) for r in population])
    costs = [network_cost(arch, resolve_plan(arch, r.ratios)) for r in population]
    c_flops = np.asarray([c.c_flops for c in costs])
    mcbs = np.asarray([c.mcb for c in costs])
    sound = all(is_member(arch, space, r).passed for r in population)
    print(f"-- {label} --")
    print(f"  c_flops  [{c_flops.min():.4f}, {c_flops.max():.4f}]  target 0.25 +/- {space.delta}")
    print(f"  std      median {np.median(stds):.4f}  max {stds.max():.4f}")
    print(f"  mcb      [{mcbs.min():.4f}, {mcbs.max():.4f}]")
    print(f"  all {len(population)} samples satisfy is_member: {sound}")


def main():
    arch = builtin_arch(ARCH)
    spaces = {
        "base band": SpaceSpec(target_cflops=0.25, delta=0.002),
        "+ std cap 0.01": SpaceSpec(target_cflops=0.25, delta=0.002, std_cap=0.01),
        "+ mcb band 1.0 +/- 0.1": SpaceSpec(
            target_cflops=0.25, delta=0.002, std_cap=0.01, mcb_band=(1.0, 0.1)
        ),
    }
    for i, (label, space) in enumerate(spaces.items()):
        population = sample_population(arch, space, N, derive_seed(SEED, i))
        describe(label, space, population, arch)
        print()

    # same seed, same population: sampling is a pure function of (arch, space, seed)
    space = spaces["base band"]
    again = sample_population(arch, space, N, derive_seed(SEED, 0))
    assert again == sample_population(arch, space, N, derive_seed(SEED, 0))
    first = again[0]
    print(f"reproducibility: seed {SEED} always opens with ratios "
          f"{tuple(round(r, 3) for r in first.ratios[:3])}... on {first.arch}")


if __name__ == "__main__":
    main()

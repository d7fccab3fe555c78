"""The benchmark's workloads and why each one is in the set.

A workload is a list of ``pfopt.bench.ExperimentConfig`` built from the
benchmark seed.  One pass runs every config through ``run_experiment`` and
writes one CSV and one SVG for all of the pass's cells, which is what
``pfopt-bench run`` does for a single config.

The layer names are the modules of ``pfopt``: ``core`` (types and step
schedules, paid once at import), ``algorithms`` (the solver loops),
``objectives`` (subgradient and value oracles), ``sets`` (LMO and
projection), ``linalg`` (the SVD helpers behind the nuclear ball) and
``bench`` (experiment runner, CSV and SVG output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from pfopt.bench import ExperimentConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str
    configs: Callable[[int, bool], List[ExperimentConfig]]
    # optimum the benchmark derives itself where run_experiment reports none
    f_star: Optional[float] = None


# Single-experiment workloads are split into one config per noise level: the
# cells are the same, and the machine's speed is read between configs, so a
# config should not run for more than a few seconds.


def _hypercube_sweep(seed: int, tiny: bool) -> List[ExperimentConfig]:
    n, T, seeds = (10, 200, 2) if tiny else (100, 10000, 5)
    return [
        ExperimentConfig(
            experiment="hypercube_l1",
            n=n,
            sigma_list=[sigma],
            T_list=[T],
            # the anchor comes from seeds[0], so both configs share it
            seeds=[seeds * seed + i for i in range(seeds)],
            algorithms=["pfw", "pgd"],
        )
        for sigma in (0.0, 0.5)
    ]


def _nuclear(size: int, T: int, anchors: int, pgd_anchors: int):
    # run_experiment draws one anchor matrix per config (from seeds[0]), and
    # the power-iteration LMO's cost depends on that anchor: at the sizes
    # below, pfw's cost per iteration varies by 10% (20x20) and 30% (300x300,
    # heavy-tailed) from one anchor to the next.  A pass therefore runs many
    # anchors, one config each.  pgd's full-SVD cost does not depend on the
    # anchor, so fewer anchors measure it steadily.
    def build(seed: int, tiny: bool) -> List[ExperimentConfig]:
        m, t, k, k_pgd = (6, 20, 2, 1) if tiny else (size, T, anchors, pgd_anchors)
        return [
            ExperimentConfig(
                experiment="nuclear_l1",
                n=m,
                m=m,
                tau=5.0,
                omega_mode="outside",
                sigma_list=[0.0],
                T_list=[t],
                seeds=[k * seed + i],
                algorithms=["pfw", "pgd"] if i < k_pgd else ["pfw"],
            )
            for i in range(k)
        ]

    return build


def _polytope_num3(seed: int, tiny: bool) -> List[ExperimentConfig]:
    n, T = (4, 200) if tiny else (10, 10000)
    return [
        ExperimentConfig(
            experiment="num3_demo",
            n=n,
            sigma_list=[sigma],
            T_list=[T],
            seeds=[2 * seed, 2 * seed + 1],
            algorithms=["pfw"],
        )
        for sigma in (0.0, 0.5)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hypercube_sweep",
            why="elementwise LMO and projection, so the solver loop and the "
            "l1 oracle dominate",
            stresses="algorithms loop bookkeeping (about 70% of a pfw "
            "iteration) and the objectives oracle, called twice per "
            "iteration; 2 noise levels x 5 seeds x pfw+pgd = 20 cells, "
            "the shape that batching across seeds acts on",
            bypasses="linalg does not run; the LMO (sign) and the projection "
            "(clip) are about 10% of the time",
            configs=_hypercube_sweep,
        ),
        Workload(
            name="nuclear_small",
            why="20x20 nuclear ball, where the power-iteration LMO costs "
            "about 40x the dense projection it replaces",
            stresses="linalg.top_singular_triplet through NuclearBall.lmo "
            "(about 99% of pfw time) on the ill-gapped drift matrices that "
            "the solver produces; pgd's full_svd projection",
            bypasses="one problem instance per config and exact oracles, so "
            "batching and loop-bookkeeping changes have nothing to act on",
            configs=_nuclear(size=20, T=300, anchors=6, pgd_anchors=6),
        ),
        Workload(
            name="nuclear_large",
            why="300x300 nuclear ball, past the size crossover: the LMO is "
            "cheaper than the full-SVD projection",
            stresses="the same linalg layers as nuclear_small on the other "
            "side of the crossover; a size-selected LMO must win on "
            "nuclear_small without losing here.  The solver's own work on "
            "90000-entry arrays and the l1 oracle are about a third of pfw's "
            "time and a tenth of pgd's",
            bypasses="one instance per config and exact oracles, so batching "
            "has nothing to act on",
            configs=_nuclear(size=300, T=40, anchors=16, pgd_anchors=4),
        ),
        Workload(
            name="polytope_num3",
            why="the only workload that runs VertexPolytope.lmo (a 1024x10 "
            "scan) and the exact-penalty oracle",
            stresses="sets.VertexPolytope.lmo and "
            "objectives.penalized_value_subgrad inside the pfw loop",
            bypasses="there is no projection and no baseline; linalg does "
            "not run",
            configs=_polytope_num3,
            # min -min(x) over [0,1]^n with sum(x) <= n/2 is attained at
            # x = 1/2, and gamma = 10 exceeds the multiplier 1/n, so the
            # penalty is exact
            f_star=-0.5,
        ),
    )
}

"""The benchmark's named workloads.

Each run times one input instance, made from --seed, over and over for the
measuring time. Most workloads draw the instance's structure from the seed.
The fitting workload's cost is not a smooth function of its input: a Cauchy
fit on samples whose most common value holds more than half of them has no
maximum, and whether the simplex search stops early or runs to its
evaluation cap (~0.5 s) turns on rounding. Two inputs of the demo shape
differ up to 2.5x in run time, so a structure drawn from the seed would make
the seed, not the program, decide the figure. The fitting workload
therefore keeps one structure, the first its shape gives, with two capped
Cauchy fits, and the seed renames and reshuffles it (gen.Relabel): the
program's work, capped fits included, is the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from gen import Shape

ALL_GROUPS = ("basic", "microscopic", "mesoscopic", "quality", "clustering")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    target: str   # the layer with the largest self-time share
    fixed_structure: bool = False  # the seed only renames and reshuffles

    def structure(self, seed: int) -> str:
        """The structure seed of the instance; the label seed is `seed`."""
        return f"{self.name}/structure/0" if self.fixed_structure else f"{self.name}/{seed}"


WORKLOADS = {w.name: w for w in (
    Workload(
        "demo",
        "README demo shape, 500 nodes/40 communities, all groups: distribution "
        "fitting dominates, on small samples, capped Cauchy fits included",
        Shape(nodes=500, communities=40, max_size=60, fractions=(0.05, 0.2, 0.5),
              groups=ALL_GROUPS),
        target="distfit", fixed_structure=True),
    Workload(
        "rank8",
        "8 candidates, quality and clustering groups: two exact Kemeny tables "
        "at m = 8 dominate and fitting is idle",
        Shape(nodes=500, communities=40, max_size=60,
              fractions=(0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
              groups=("quality", "clustering")),
        target="ranking"),
    Workload(
        "cluster2k",
        "2000 nodes/160 communities, quality and clustering groups: clustering "
        "metrics and community-graph topology dominate, fitting idle",
        Shape(nodes=2000, communities=160, max_size=120, fractions=(0.05, 0.2, 0.5),
              groups=("quality", "clustering")),
        target="clustering"),
)}


def toy(w: Workload) -> Workload:
    """The same shape at a scale that runs in about a second."""
    s = w.shape
    return replace(w, shape=replace(
        s, nodes=s.nodes // 5, communities=s.communities // 5,
        max_size=s.max_size // 2, fractions=s.fractions[:5]))

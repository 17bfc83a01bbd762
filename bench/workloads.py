"""Benchmark workloads: the solves each one runs and the counts they are gated on.

Every workload is a closed loop over a fixed list of cases: one case runs
after the previous one has finished, and the list repeats until the run's
time is up. The reference counts are the acceptance tables of the test suite
(1D V-cycle, 2D V-cycle at level 7 and below, 2D CG with one V-cycle as the
preconditioner), copied here so the benchmark depends only on the library.
"""
from __future__ import annotations

from dataclasses import dataclass

WORKLOAD_NAMES = ("mg1d_verify", "mg2d", "pcg2d")

#: level -> V-cycle counts for p = 1..15 (1D, coarse level 5)
TABLE_1D = {
    12: [23, 20, 20, 20, 20, 20, 20, 20, 20, 19, 19, 19, 19, 18, 18],
    11: [23, 20, 20, 20, 20, 20, 20, 20, 19, 19, 19, 19, 18, 19, 18],
    10: [23, 20, 20, 20, 20, 20, 20, 19, 19, 19, 19, 18, 17, 17, 17],
}

#: level -> V-cycle counts for p = 1..15 (2D, automatic coarse level)
TABLE_2D = {
    7: [86, 88, 99, 102, 99, 100, 99, 98, 97, 96, 94, 95, 93, 92, 92],
    4: [66, 95, 104, 105, 102, 100, 99, 96, 96, 95, 94, 92, 92, 91, 91],
}

#: CG iterations for p = 1..15 (2D, level 7, one V-cycle preconditioner)
TABLE_2D_CG = [21, 21, 23, 23, 23, 22, 23, 22, 22, 22, 21, 21, 21, 21, 21]

#: coarse level of every 1D case, as in the 1D reference table
COARSE_1D = 5


@dataclass(frozen=True)
class Case:
    """One solve (``kind`` "mg" or "pcg") or one verification report.

    A "verify" case checks degrees 1..``degree`` at ``level``; ``coarse`` is
    unused for it. ``reference`` is the acceptance-table count the solve is
    gated on, or None where no table covers the cell.
    """

    kind: str
    dim: int
    degree: int
    level: int
    coarse: int
    reference: int | None = None

    @property
    def name(self) -> str:
        if self.kind == "verify":
            return f"verify-d{self.dim}-p1..{self.degree}-l{self.level}"
        return f"{self.kind}-d{self.dim}-p{self.degree}-l{self.level}"

    def cycle_tolerance(self) -> float:
        """Acceptance tolerance on the count: +-3 in 1D and for CG,
        +-max(5, 10%) for the 2D V-cycle."""
        if self.kind == "mg" and self.dim == 2:
            return max(5.0, 0.1 * self.reference)
        return 3.0


def _mg1d(level: int, p: int) -> Case:
    return Case("mg", 1, p, level, COARSE_1D, TABLE_1D[level][p - 1])


def build_cases(workload: str, auto_coarse, smoke: bool = False) -> list[Case]:
    """Cases of ``workload``; ``auto_coarse(p)`` is the library's automatic
    coarse level. ``smoke`` gives a seconds-long version of each workload."""
    if workload == "mg1d_verify":
        if smoke:
            return [_mg1d(10, 3), Case("verify", 1, 2, 3, 0)]
        return [_mg1d(level, p) for level in (10, 11, 12) for p in (3, 8, 15)] \
            + [Case("verify", 1, 8, 4, 0)]
    if workload == "mg2d":
        if smoke:
            return [Case("mg", 2, 3, 4, auto_coarse(3), TABLE_2D[4][2])]
        return [Case("mg", 2, p, 7, auto_coarse(p), TABLE_2D[7][p - 1])
                for p in (4, 8, 15)]
    if workload == "pcg2d":
        degrees = (2,) if smoke else (8, 15)
        return [Case("pcg", 2, p, 7, auto_coarse(p), TABLE_2D_CG[p - 1])
                for p in degrees]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose one of {', '.join(WORKLOAD_NAMES)}")

"""Time each row of `verify theorems lattice` in this process, grouped by
the half of the split that `checks.WORKER_ROWS` puts it in.

Each half runs its rows in suite order from an empty memo, as the command's
own process and the forked worker each do in a fresh `verify` run.  Both
halves run PASSES times, and each row reports its minimum: one pass on a
shared host can run up to 1.7x slow, and the minimum is the pass least
disturbed by it.  The sums of those minima show whether the split is
balanced.  Run it from the repository root:

    PYTHONPATH=src python tools/verify_rows.py
"""

import time

from ivowa import checks, sampling
from ivowa.sampling import DEFAULT_GRID

PASSES = 5


def half_times(worker: bool) -> dict[str, float]:
    sampling._MEMO.clear()
    times = {}
    for table in (checks._THEOREM_CHECKS, checks._LATTICE_CHECKS):
        for row, check in table.items():
            if (row in checks.WORKER_ROWS) == worker:
                start = time.perf_counter()
                check(DEFAULT_GRID)
                times[row] = time.perf_counter() - start
    return times


def main() -> None:
    halves = {"command": False, "worker": True}
    best: dict[str, dict[str, float]] = {title: {} for title in halves}
    for _ in range(PASSES):
        for title, worker in halves.items():
            for row, seconds in half_times(worker).items():
                best[title][row] = min(seconds, best[title].get(row, seconds))
    for title, times in best.items():
        print(f"{title} half (minimum of {PASSES} passes per row)")
        for row, seconds in times.items():
            print(f"  {seconds:7.3f} s  {row}")
        print(f"  {sum(times.values()):7.3f} s  sum")


if __name__ == "__main__":
    main()

"""Time each row of `verify theorems lattice` in this process, grouped by
the half of the split that `checks.WORKER_ROWS` puts it in.

Each half runs its rows in suite order from an empty memo, as the command's
own process and the forked worker each do in a fresh `verify` run.  The
sums of the two halves show whether the split is balanced.  Run it from the
repository root:

    PYTHONPATH=src python tools/verify_rows.py
"""

import time

from ivowa import checks, sampling
from ivowa.sampling import DEFAULT_GRID


def half_times(worker: bool) -> list[tuple[str, float]]:
    sampling._MEMO.clear()
    times = []
    for table in (checks._THEOREM_CHECKS, checks._LATTICE_CHECKS):
        for row, check in table.items():
            if (row in checks.WORKER_ROWS) == worker:
                start = time.perf_counter()
                check(DEFAULT_GRID)
                times.append((row, time.perf_counter() - start))
    return times


def main() -> None:
    for title, worker in (("command", False), ("worker", True)):
        times = half_times(worker)
        print(f"{title} half")
        for row, seconds in times:
            print(f"  {seconds:7.3f} s  {row}")
        print(f"  {sum(s for _, s in times):7.3f} s  sum")


if __name__ == "__main__":
    main()

"""Time cold operator validation (`make_gowa`) for each spec the rank
benchmarks validate, each in fresh processes.

The specs are the rank-cold deck's and the rank-warm pool's (`COLD_DECK` and
`WARM_POOL` in bench/gen.py).  The package is byte-compiled first, so no run
pays for writing bytecode.  Each spec is then validated in RUNS fresh
interpreters, timing `make_gowa` alone after the imports, and reports its
minimum: one run on a shared host can run slow, and the minimum is the run
least disturbed by it.  A rejected spec (a distributivity witness, a missing
neutral element) is timed up to its `GowaError`.  Each line ends with the
spec's verdict: `accepted`, or the `GowaError` text up to its first `;`, so
two runs' tables show both the times and that no verdict moved.  The
weights are ones that make a valid spec valid: all [1,1] for geomean, a
selector for max and the uniform vector for tsum.  Run it from the
repository root:

    python tools/validation_times.py
"""

import compileall
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from gen import COLD_DECK, WARM_POOL  # noqa: E402

RUNS = 5

# One cold validation: argv is (aggregator, overlap, arity); prints seconds
# and the verdict.
CHILD = """
import sys, time
from ivowa.intervals import ONE
from ivowa.owa import GowaError, WeightVector, make_gowa
from ivowa.registry import resolve_aggregator, resolve_iv_overlap

name, token, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
m, o = resolve_aggregator(name, n), resolve_iv_overlap(token)
w = {"geomean": WeightVector((ONE,) * n), "max": WeightVector.selector(n, 1),
     "tsum": WeightVector.uniform(n)}[name]
start = time.perf_counter()
try:
    make_gowa(m, o, w)
except GowaError as error:
    print(time.perf_counter() - start, str(error).partition(";")[0])
else:
    print(time.perf_counter() - start, "accepted")
"""


def cold_validation(name: str, token: str, n: int) -> tuple[float, str]:
    """The least of RUNS cold validation times, in seconds, and the verdict
    (the distinct verdicts joined by " | ", should runs ever disagree)."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = [subprocess.run([sys.executable, "-c", CHILD, name, token, str(n)], env=env,
                           check=True, capture_output=True, text=True).stdout.split(maxsplit=1)
            for _ in range(RUNS)]
    return min(float(seconds) for seconds, _ in runs), " | ".join(
        sorted({verdict.strip() for _, verdict in runs}))


def main() -> None:
    compileall.compile_dir(ROOT / "src" / "ivowa", quiet=1)
    print(f"cold make_gowa, minimum of {RUNS} fresh processes per spec")
    for deck, specs in (("rank-cold", [spec[:3] for spec in COLD_DECK]), ("rank-warm", WARM_POOL)):
        for name, token, n, *rest in specs:
            label = f"{deck} {name} x {token} n={n}" + "".join(f" {r}" for r in rest)
            seconds, verdict = cold_validation(name, token, n)
            print(f"  {seconds * 1e3:8.2f} ms  {label}: {verdict}")


if __name__ == "__main__":
    main()

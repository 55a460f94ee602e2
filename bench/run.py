"""itsub benchmark: one workload, closed loop, one process and thread.

    python3 bench/run.py --workload cli_tables --seed 1 --seconds 15 --trace 0

Runs whole passes of the workload until the next pass would overrun
--seconds (at least one), checks every result against its oracle and
prints one ``metric <name> <value> <unit>`` line per metric, then a
last line of JSON: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced passes and reports the per-layer metrics, writing
the spans to bench/out/. --tiny shrinks every workload for the smoke
test. See bench/README.md for the definitions.

Exit code 0 when every result passed its check, 1 when one did not,
2 when the library sources are missing.
"""

import os
import sys

# Pin every BLAS/OpenMP pool to one thread before numpy loads; the
# set-up probes inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    if not os.path.isdir(os.path.join(SRC, "itsub")):
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())

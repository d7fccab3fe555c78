"""pfopt benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports pfopt from the checkout's ``src``, runs the workload's experiments
for about S seconds, checks the results, prints every metric by name with
its unit, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` gives the per-layer split.  Details of
the run (environment, samples, failures) go to
``.perfbench_out/<workload>/result-seed<N>-trace<T>.json``.
"""

import os

# one process, one BLAS thread: set before numpy is first imported
PINNED_THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7


def _args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not (SRC / "pfopt" / "__init__.py").is_file():
        print(f"error: no pfopt sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from harness import END_TO_END, PER_LAYER, environment, run_benchmark
    from workloads import WORKLOADS

    args = _args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out" / workload.name
    env = environment(ROOT, {var: os.environ[var] for var in THREAD_VARS})
    report = run_benchmark(
        workload, args.seed, args.seconds, bool(args.trace), out_dir,
        src=SRC, setup_samples=SETUP_SAMPLES,
    )

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} "
              f"(n={report.samples[name]})")
    for note in report.notes:
        print(f"  note: {note}")
    print(f"  failed_cells {report.failed}/{report.attempted}")
    for failure in report.failures:
        print(f"  FAIL {failure}", file=sys.stderr)

    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "env": env,
                "configs": [asdict(c) for c in workload.configs(args.seed, False)],
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "failures": report.failures,
                "metrics": {n: {"value": v, "unit": u, "samples": report.samples[n]}
                            for n, (v, u) in report.metrics.items()},
                "notes": report.notes,
                "spans": {n: dict(zip(("calls", "total_s", "self_s"), v))
                          for n, v in report.spans.items()},
            },
            indent=2,
        ) + "\n"
    )

    expected = PER_LAYER if args.trace else END_TO_END
    if set(report.metrics) != set(expected):
        print("error: no measurement completed", file=sys.stderr)
        return 1
    print(report.result_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())

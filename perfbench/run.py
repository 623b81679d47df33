"""mgtdetect benchmark: one command for every workload, or one workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload.  The last line of standard output is a JSON
        object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
        every end-to-end metric with --trace 0, every per-layer metric with
        --trace 1.

    python3 perfbench/run.py [--seeds 42,43] [--seconds S]
        Runs each workload in its own process, untraced at every seed and
        traced at the first, prints every metric by name with its unit and
        the median and quartile spread over the seeds, checks the outputs
        (including that the traced and untraced runs at the first seed
        trained, saved and predicted byte-identical results), and rewrites
        BENCHMARK.json from perfbench/spec.py.

Run it from the repository root.  It needs ``src/mgtdetect`` and
``tests/synthdata.py`` beside it and exits with status 2 when they are
missing.  Files it writes go under ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread keeps a run on one core (the machines this was tuned on
# have two cores shared with other work).
BLAS_THREADS = "1"


def _environment() -> str:
    import numpy

    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, blas threads {BLAS_THREADS}"
    )


def _one_run(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import bench

    result, report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    expected = spec.per_layer_units() if args.trace else spec.end_to_end_units()
    if list(result["metrics"]) != list(expected):
        raise SystemExit(f"run.py: metrics {list(result['metrics'])} do not match spec.py")
    print(f"# {_environment()}")
    for line in report:
        print(f"# {line}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


def _child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run in its own process: (result object, output digests)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {done.returncode}")
    digests = {}
    for line in lines[:-1]:
        print(f"  {line}")
        if line.startswith("# digests "):
            digests = json.loads(line.removeprefix("# digests "))
    return json.loads(lines[-1]), digests


def _spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def _all_workloads(args) -> int:
    seeds = [int(s) for s in args.seeds.split(",")]
    print(f"# {_environment()}")
    all_correct = True
    summary = {}
    for workload in spec.workload_names():
        results, digests = [], []
        for seed in seeds:
            print(f"{workload} seed {seed}")
            result, digest = _child(workload, seed, args.seconds, 0)
            results.append(result)
            digests.append(digest)
        print(f"{workload} seed {seeds[0]}, traced")
        traced, traced_digests = _child(workload, seeds[0], args.seconds, 1)
        # Same seed, so same model, training log and predictions.
        identical = bool(digests[0]) and all(
            traced_digests.get(k) == v for k, v in digests[0].items()
        )
        if not identical:
            print(f"problem: traced and untraced runs at seed {seeds[0]} differ in their outputs")
        correct = all(r["correct"] for r in results) and traced["correct"] and identical
        all_correct &= correct
        rows = {}
        print(f"\n{workload}: correct {correct}, {len(seeds)} seeds")
        for name, unit in spec.end_to_end_units().items():
            median, spread = _spread([r["metrics"][name]["value"] for r in results])
            rows[name] = {"median": median, "iqr_share": spread, "unit": unit}
            print(f"  {name:24s} {median:14.6g} {unit:8s} spread {spread:.3f}")
        for name, metric in traced["metrics"].items():
            print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
        summary[workload] = {
            "correct": correct,
            "seeds": seeds,
            "end_to_end": rows,
            "runs": results,
            "traced": traced,
            "digests": traced_digests,
        }
    out = HERE / ".work" / "summary.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json(), encoding="utf-8")
    print(f"\nall outputs correct: {all_correct}; summary in {out.relative_to(ROOT)}")
    return 0 if all_correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", default="42")
    args = parser.parse_args(argv)
    # numpy reads these when it is first imported, which happens below.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    missing = [p for p in ("src/mgtdetect", "tests/synthdata.py") if not (ROOT / p).exists()]
    if missing:
        print(f"run.py: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    if args.workload:
        return _one_run(args)
    return _all_workloads(args)


if __name__ == "__main__":
    sys.exit(main())

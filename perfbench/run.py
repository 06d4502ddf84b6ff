"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-repeat --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  Every output line but the last is diagnostic JSON (hardware
fingerprint, the hypervisor's steal share during the run, input
properties, problems found); the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``, with every
end-to-end metric of ``BENCHMARK.json`` when ``--trace 0`` and every
per-layer metric when ``--trace 1``.  Traced runs also write their spans
to ``.bench_out/trace-<workload>.json``.

Exit status: 0 after a result line (correct or not), 2 when the
program cannot be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: One BLAS thread: the two cores belong to the generator and the
#: service's drain thread (and the trainer's own thread in train-fit).
#: Idle BLAS workers spinning on a 2-core machine were the largest
#: source of tail noise in calibration.  Set before numpy is imported.
BLAS_THREADS = "1"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = BLAS_THREADS

#: Units of the end-to-end metrics (names and bounds: BENCHMARK.json).
END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "success_rate": "fraction",
    "rel_error": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fingerprint() -> dict:
    """Where the numbers came from: hardware, interpreter, BLAS, commit."""
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(),
    }


def host_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs; (0, 0) without ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test scale (seconds, not minutes)"
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    workload_class = workloads.WORKLOADS.get(args.workload)
    if workload_class is None:
        print(
            f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    workload = workload_class(args.seed, args.tiny, OUT_DIR)
    steal0, total0 = host_ticks()
    outcome = workload.run(args.seconds, bool(args.trace))
    steal1, total1 = host_ticks()
    steal = round((steal1 - steal0) / max(1, total1 - total0), 4)
    tracer = getattr(workload, "tracer", None)
    if tracer is not None:
        tracer.write(
            OUT_DIR / f"trace-{args.workload}.json",
            {"workload": args.workload, "seed": args.seed},
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        import layers

        values = dict(outcome.per_layer)
        values["error_rate"] = outcome.failed / outcome.attempted
        units = layers.UNITS
    else:
        values = {**outcome.end_to_end, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    metrics = {
        name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
    }
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "why": workload.why,
        "fingerprint": fingerprint(),
        "steal_share": steal,
        "inputs": outcome.inputs,
        "problems": outcome.problems,
    }))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

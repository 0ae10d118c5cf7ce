"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload graded --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer metrics.  Every operation's output is checked.
End-to-end timings are scaled to the reference speed of kernel.py.  The
last line of standard output is the result object; the line before it is a
summary with the sample count, the failure ratio, the outcome mix, the
unscaled timings and the machine-noise record (steal ticks and the
reference-kernel times per block).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from kernel import REFERENCE_S, kernel_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("graded", "compressed_cli", "hilbert")
SETUP_PROBES = 8
DEADLINE_S = 170.0


def steal_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine, from /proc/stat; read only."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


class Worker:
    """Runs worker.py in a child process, within the run's deadline."""

    def __init__(self, workload: str, seed: int):
        self.base = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                     "--seed", str(seed)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.deadline = perf_counter() + DEADLINE_S

    def __call__(self, *args: str) -> tuple[float, dict]:
        start = perf_counter()
        proc = subprocess.run(
            self.base + list(args), env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - start),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
        return start, json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """The q-quantile by linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile."""
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(worker: Worker, seconds: float) -> tuple[dict, dict, dict]:
    """Scaled timings: each time is multiplied by REFERENCE_S / kernel time.

    An operation's kernel time is the mean of the kernel runs just before
    and after it.  A set-up's is the mean of three: one in this process just
    before the child starts, and two in the child, before it imports
    `apolar` and after its set-up.
    """
    setups, setups_raw = [], []

    def setup_probe(*args):
        before = kernel_s()
        start, res = worker(*args)
        setups_raw.append(res["first_op_at"] - start)
        kernels = [before, *res["kernel_s"]]
        setups.append(setups_raw[-1] * REFERENCE_S * len(kernels) / sum(kernels))
        return res

    for _ in range(SETUP_PROBES):
        setup_probe("--mode", "setup")
    steal_before = steal_ticks()
    res = setup_probe("--mode", "measure", "--seconds", str(seconds))
    steal_after = steal_ticks()

    lat_raw = res["latencies"]
    lat = [t * REFERENCE_S / k for t, k in zip(lat_raw, res["kernels"])]
    size = res["block_size"]
    rates, kernel_ms = [], []
    for b in range(0, len(lat), size):
        rates.append(sum(res["verified"][b:b + size]) / sum(lat[b:b + size]))
        kernel_ms.append(1000 * statistics.median(res["kernels"][b:b + size]))
    metrics = {
        "presentations_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1000 * percentile(lat, 0.90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    steal = None
    if steal_before and steal_after:
        steal = {"steal_ticks": steal_after[0] - steal_before[0],
                 "total_ticks": steal_after[1] - steal_before[1]}
    summary = {
        "samples": len(lat),
        "blocks": len(rates),
        "timed_s": res["timed_s"],
        "failed_ratio": res["verified"].count(False) / len(lat),
        "unscaled": {"latency_p50_ms": 1000 * statistics.median(lat_raw),
                     "latency_p90_ms": 1000 * percentile(lat_raw, 0.90),
                     "setup_s": statistics.median(setups_raw)},
        "noise": {"steal": steal, "kernel_ms_quartiles": quartiles(kernel_ms),
                  "kernel_ms_per_block": [round(k, 3) for k in kernel_ms]},
    }
    return res, metrics, summary


def per_layer(worker: Worker, workload: str, seed: int) -> tuple[dict, dict, dict]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.jsonl"
    _, res = worker("--mode", "trace", "--spans", str(spans))
    res["metrics"] = {k: tuple(v) for k, v in res["metrics"].items()}
    summary = {"samples": res["attempted"], "spans": str(spans.relative_to(ROOT)),
               "failed_ratio": len(res["failures"]) / res["attempted"]}
    return res, res["metrics"], summary


def main() -> int:
    parser = argparse.ArgumentParser(description="apolar benchmark: one workload, one seed")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "apolar" / "__init__.py").is_file():
        print(f"no apolar sources under {SRC}", file=sys.stderr)
        return 2

    worker = Worker(args.workload, args.seed)
    if args.trace:
        res, metrics, summary = per_layer(worker, args.workload, args.seed)
    else:
        res, metrics, summary = end_to_end(worker, args.seconds)
    failed = len(res["failures"])
    summary.update(workload=args.workload, seed=args.seed, mix=res["mix"],
                   failures=res["failures"][:5])
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

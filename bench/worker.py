"""One benchmark process: set up, then run a workload's stream in a closed loop.

Started by run.py with `PYTHONPATH` pointing at the checkout's `src`.  One
client, one thread: the next operation starts when the previous one has
returned and its output has been checked.  Prints one JSON line.

Modes:
  setup    import, generate the first block, one warm-up operation, stop;
  measure  setup, then whole blocks until --seconds of timed operations and
           at least MIN_OPS operations have run, trace off; every operation
           is bracketed by two runs of the reference kernel (kernel.py);
  trace    setup, then the workload's first `trace_ops` operations, each run
           once untraced and once traced (the order alternates), spans kept
           in memory and written to --spans;
  digests  rewrite digests/<workload>.json for --seed.

Every mode also reports the kernel runs made before and after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from kernel import kernel_s

# A speed sample from the start of set-up, before `apolar` is imported; with
# the one after set-up and the runner's one before the process started, it
# scales this process's set-up time (run.py).
START_KERNEL_S = kernel_s()

import spans as spanlib  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_OPS = 100


def load_digests(name: str, seed: int) -> list[str]:
    """The committed output digests, if they were written for this seed."""
    doc = json.loads((HERE / "digests" / f"{name}.json").read_text())
    return doc["digests"] if doc["seed"] == seed else []


class Session:
    """The stream of one workload at one seed, with its output checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.digests = load_digests(workload.name, seed)
        self.seen: list[str] = []
        self.failures: list[str] = []
        self.mix: Counter = Counter()

    def blocks(self):
        b = 0
        while True:
            yield [(item, self.workload.prepare(item)) for item in self.workload.block(self.seed, b)]
            b += 1

    def items(self):
        for block in self.blocks():
            yield from block

    def verify(self, item, arg, out, error) -> bool:
        """Check one output outside the timed region; record why it failed."""
        w = self.workload
        if error is not None:
            problem = f"raised {error!r}"
        else:
            try:
                problem = w.check(item, arg, out)
                d = w.digest(out)
            except Exception as exc:  # malformed output fails its check
                problem, d = f"check raised {exc!r}", None
            self.seen.append(d)
            if problem is None and item.index < len(self.digests) and d != self.digests[item.index]:
                problem = "digest differs from the committed one"
            if problem is None:
                self.mix.update(w.outcome(out))
        if problem is not None:
            self.failures.append(f"item {item.index} ({item.label}): {problem}")
        return problem is None


def mix_summary(mix: Counter) -> dict:
    """Outcome counts, with `kind:value` labels reduced to distinct-value counts."""
    out = {k: v for k, v in sorted(mix.items()) if ":" not in k}
    for kind in sorted({k.split(":")[0] for k in mix if ":" in k}):
        out[f"distinct_{kind}"] = sum(1 for k in mix if k.startswith(kind + ":"))
    return out


def timed_call(workload, arg):
    start = perf_counter()
    try:
        out, error = workload.run(arg), None
    except Exception as exc:  # a failed operation is counted, not fatal
        out, error = None, exc
    return perf_counter() - start, out, error


def setup(workload, seed):
    session = Session(workload, seed)
    blocks = session.blocks()
    first = next(blocks)
    workload.run(workload.prepare(workload.warmup()))
    return session, blocks, first


def measure(session, blocks, first, seconds: float) -> dict:
    latencies, kernels, verified = [], [], []
    block, timed = first, 0.0
    while True:
        for item, arg in block:
            before = kernel_s()
            dt, out, error = timed_call(session.workload, arg)
            kernels.append((before + kernel_s()) / 2)
            latencies.append(dt)
            timed += dt
            verified.append(session.verify(item, arg, out, error))
        if timed >= seconds and len(latencies) >= MIN_OPS:
            break
        block = next(blocks)
    return {"latencies": latencies, "kernels": kernels, "verified": verified,
            "block_size": len(first), "timed_s": timed}


def trace(session, ops: int, spans_path: str | None) -> dict:
    """Run the first `ops` operations untraced and traced, alternating order.

    The untraced pass runs with the original bindings, the traced pass with
    every wrapper installed.  The traced output gets the full check; the
    untraced one must have the same digest.
    """
    recorder = spanlib.Recorder()
    elapsed = {False: 0.0, True: 0.0}
    for k, (item, arg) in enumerate(session.items()):
        if k == ops:
            break
        outputs = {}
        for traced_pass in ((False, True) if k % 2 == 0 else (True, False)):
            recorder.op_id = item.index
            with spanlib.traced(recorder) if traced_pass else contextlib.nullcontext():
                dt, out, error = timed_call(session.workload, arg)
            elapsed[traced_pass] += dt
            outputs[traced_pass] = out, error
        if session.verify(item, arg, *outputs[True]):
            plain, error = outputs[False]
            if error is not None or session.workload.digest(plain) != session.seen[-1]:
                session.failures.append(f"item {item.index} ({item.label}): untraced output differs")
    if spans_path:
        recorder.write(spans_path)
    metrics = spanlib.layer_metrics(recorder.spans)
    metrics["trace.overhead_ratio"] = (elapsed[True] / elapsed[False], "1")
    return {"attempted": 2 * ops, "metrics": metrics}


def write_digests(workload, seed: int) -> None:
    session = Session(workload, seed)
    session.digests = []  # the outputs are about to replace them
    count = workload.digest_blocks * len(workload.slots)
    for k, (item, arg) in enumerate(session.items()):
        if k == count:
            break
        _, out, error = timed_call(workload, arg)
        if not session.verify(item, arg, out, error):
            sys.exit("\n".join(session.failures))
    path = HERE / "digests" / f"{workload.name}.json"
    path.write_text(json.dumps({"seed": seed, "digests": session.seen}, indent=0) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "digests"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="timed seconds of the measure mode")
    parser.add_argument("--spans", default=None, help="file the trace mode writes its spans to")
    args = parser.parse_args()
    if args.mode == "measure" and args.seconds is None:
        parser.error("the measure mode needs --seconds")
    workload = WORKLOADS[args.workload]
    if args.mode == "digests":
        write_digests(workload, args.seed)
        return 0

    session, blocks, first = setup(workload, args.seed)
    result = {"first_op_at": perf_counter(), "kernel_s": [START_KERNEL_S, kernel_s()]}
    if args.mode == "measure":
        result.update(measure(session, blocks, first, args.seconds))
        result["attempted"] = len(result["latencies"])
    elif args.mode == "trace":
        result.update(trace(session, workload.trace_ops, args.spans))
    result["failures"] = session.failures
    result["mix"] = mix_summary(session.mix)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

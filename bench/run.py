"""Run one benchmark workload in this process and print its result.

    python3 bench/run.py --workload train_pinned --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (``windows_per_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones, from
spans recorded around each layer's public functions. See README.md.
"""

import os

# One BLAS thread, set before numpy loads: OpenBLAS's second thread doubled
# CPU time here and gave no speed-up, and it makes timings depend on what
# else the machine runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SOURCES = BENCH.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_pinned", "impute_metr", "eval_metr"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="total time of the timed operations")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def release_memory() -> None:
    """Free what earlier work left behind, as a fresh ``maginet`` process
    starts without it: otherwise heap fragmentation left by earlier
    operations adds to a later one's peak, by up to 12 MB on impute_metr."""
    gc.collect()
    libc = ctypes.CDLL(None)
    if hasattr(libc, "malloc_trim"):
        libc.malloc_trim(0)


def measure(workload, seconds: float, tracer) -> dict:
    """Set up, warm up, then run whole operations until their timed total
    reaches ``seconds``. The set-ups after the first are spread between
    the operations, ``setups_per_op`` after each up to ``setup_repeats``,
    so that the fastest of them, like the fastest operation, is taken
    from the whole run rather than one moment of it."""
    from workloads import Incorrect

    setups = [timed(workload.setup)]
    workload.prepare()
    release_memory()
    times, failures, wrong = [], Counter(), []
    while sum(times) < seconds:
        with tracer.operation():
            start = time.perf_counter()
            output = workload.operation()
            times.append(time.perf_counter() - start)
        try:
            reason = workload.check(output)
        except Incorrect as err:
            wrong.append(str(err))
            reason = None
        if reason:
            failures[reason] += 1
        for _ in range(workload.setups_per_op):
            if len(setups) < workload.setup_repeats:
                setups.append(timed(workload.setup))
        release_memory()
    while len(setups) < workload.setup_repeats:
        setups.append(timed(workload.setup))
    rates = [workload.windows_per_op / t for t in times]
    return {"setups": setups, "rates": rates, "failures": failures, "wrong": wrong}


class NoTracer:
    def operation(self):
        return contextlib.nullcontext()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "maginet" / "__init__.py").is_file():
        print(f"error: no maginet sources at {SOURCES}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCES), str(BENCH)]
    import maginet
    if Path(maginet.__file__).resolve().parent != SOURCES / "maginet":
        print(f"error: imported maginet from {maginet.__file__}, not {SOURCES}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS, Incorrect

    tracer = NoTracer()
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    work_root = BENCH / "work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        run = measure(workload, args.seconds, tracer)
    except Incorrect as err:  # in the warm-up or a once-per-run check
        print(f"{args.workload}: wrong output before timing: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(run["rates"])
    failed = sum(run["failures"].values())
    # The fastest operation and set-up, not the median: the host's speed
    # moves by up to half within a run and between runs, and contention
    # only ever adds time, so the fastest is the steadiest measure of the
    # program's own cost (README.md, "Steadiness").
    rate = max(run["rates"])
    for reason, count in run["failures"].items():
        print(f"{args.workload}: {count} of {attempted} operations failed: {reason}")
    for message in run["wrong"][:3]:
        print(f"{args.workload}: wrong output: {message}")
    print(f"{args.workload}: {attempted} operations of {workload.windows_per_op} windows, "
          f"{min(run['rates']):.4f} to {rate:.4f} windows/s, median "
          f"{statistics.median(run['rates']):.4f}; "
          f"setup {', '.join(f'{s:.4f}' for s in run['setups'])} s")
    if args.trace:
        total, own, calls = tracer.self_times()
        op_time = total["op"]
        print(f"traced: windows_per_s {rate:.4f}; self times add up to "
              f"{sum(own.values()):.6f} s of {op_time:.6f} s traced operation time")
        for name, seconds in own.most_common():
            print(f"  self {name:28s} {1000.0 * seconds / attempted:10.3f} ms/op "
                  f"({calls[name] / attempted:g} calls/op)")
        metrics = tracer.layer_metrics(attempted * workload.windows_per_op)
    else:
        metrics = {
            "windows_per_s": {"value": rate, "unit": "windows/s"},
            "setup_s": {"value": min(run["setups"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not run["wrong"], "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

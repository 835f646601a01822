"""Run a workload once per seed and report each metric's spread.

    python3 bench/spread.py --workload impute_metr --seeds 1-10 --seconds 30

For each metric it prints the median of the runs and the distance
between their first and third quartiles (``statistics.quantiles``, n=4)
as a share of that median: the figure a bound must stay above. Runs are
made one after another, each in its own process; each run's JSON line
is printed as it arrives.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", default="30", help="as run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    results = []
    for seed in args.seeds:
        start = time.perf_counter()
        out = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", args.seconds,
                              "--trace", args.trace],
                             capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        wall = time.perf_counter() - start
        print(json.dumps({"seed": seed, "wall_s": round(wall, 1), **result}), flush=True)
        results.append(result)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, correct in {sum(r['correct'] for r in results)}, "
          f"failed shares {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"  {name:34s} median {median:12.6g}  quartiles {q1:12.6g} {q3:12.6g}  "
              f"spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

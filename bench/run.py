"""acbound benchmark: one workload, its end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is driven from one fresh
worker interpreter (``workloads.py``) with BLAS held to one thread.
Set-up time is interpreter start, import and warm-up, timed in
``SETUP_REPEATS`` fresh interpreters (the measuring worker among them)
and reported as their median.  With ``--trace 0`` the run prints every
end-to-end metric; with ``--trace 1`` it traces each call into a layer
and prints the per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full report is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "workloads.py"
OUT = BENCH / "out"

WORKLOADS = ("limits_cold", "search_climb")
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 3
BUDGET_S = 170.0   # the whole run, worker processes included


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # `acbound limits --json` stamps a time only when this is set
    env.pop("SOURCE_DATE_EPOCH", None)
    return env


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    # run() kills the worker and waits for it if the budget runs out
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                          cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with status {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    attempted, failed = result["attempted"], result["failed"]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": result["items"] / result["busy_s"],
        "op_ms_p50": 1000 * result["op_s_p50"],
        "op_ms_tail": 1000 * result["op_s_tail"],
        "pass_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a single set-up, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "acbound" / "__init__.py").is_file():
        print(f"error: no acbound sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        repeats = 1 if args.smoke else SETUP_REPEATS
        setups = [run_worker(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(repeats - 1)]
        result = run_worker(args, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    if args.trace:
        metrics = result.pop("per_layer")
    else:
        values = end_to_end(result, setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    attempted, failed = result["attempted"], result["failed"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps({
        "metrics": metrics, "setup_samples_s": setups, "fail_ratio": failed / attempted, **result,
    }, indent=2))

    for name, m in metrics.items():
        print(f"{name:50s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"{'op_ms_tail is p' + str(result['tail_percentile']):50s} "
              f"{result['tail_beyond']} of {result['ops']} ops beyond it")
    print(f"{'fail_ratio':50s} {failed / attempted:>16.6g} ({failed} of {attempted} checks)")
    for failure in result["failures"]:
        print(f"FAIL {failure}")
    print("# manifest: " + json.dumps(result["manifest"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""mathsynth benchmark: one workload, checked, with its metrics as JSON.

    python3 bench/run.py --workload episodes --seed 1 --seconds 25 --trace 0

Each workload runs in fresh processes with numeric thread pools pinned to
one thread and a fixed hash seed.  Set-up is timed in SETUP_SAMPLES fresh
processes and reported as their median; the last of them goes on to run
the timed rounds.  Times are scaled to the quiet speed of this host
(hostspeed.py); the unscaled figures go to standard error.  With ``--trace 1`` one process runs with spans around
the calls into each layer and the per-layer metrics are printed instead;
the spans are written to ``runs/bench/trace-<workload>-<seed>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"  # the workloads, and the metrics printed by name and unit
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170  # every process this run starts ends within it
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def child_environment() -> dict:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # the worker puts this checkout's src/ first
    return env


def run_child(args: list, deadline: float) -> dict:
    """Run the worker to completion (killed at the deadline) and return the
    JSON object on its last output line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("no time left for another process")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=child_environment(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed("worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def with_units(values: dict, listed: list) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        main = run_child(common + ["--trace", "1"], deadline)
        metrics = with_units(main["per_layer"], spec["per_layer"])
        untraced = ", ".join(f"{k}={v:.6g}" for k, v in main["end_to_end"].items())
        print(f"traced end-to-end: setup_s={main['setup_s']:.6g}, {untraced}", file=sys.stderr)
        print(f"spans written to {main['trace']}", file=sys.stderr)
    else:
        setups = [run_child(common + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
        main = run_child(common, deadline)
        setups.append(main)
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups), **main["end_to_end"]}
        metrics = with_units(values, spec["end_to_end"])
        raw = ", ".join(f"{k}={v:.6g}" for k, v in main["raw"].items())
        print(
            f"host factor {main['host_factor']:.4f}; unscaled: "
            f"setup_s={statistics.median(s['setup_raw_s'] for s in setups):.6g}, {raw}",
            file=sys.stderr,
        )
    print(
        f"{workload} seed {seed}: {main['rounds']} rounds, {main['attempted']} operations, "
        f"{main['failed']} failed",
        file=sys.stderr,
    )
    return {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "mathsynth" / "__init__.py").is_file():
        print(f"no mathsynth package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    # a terminated run still stops the worker it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        result = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

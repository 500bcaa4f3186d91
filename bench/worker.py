"""One workload in a fresh process: set up, run whole rounds for the given
seconds, check every operation, and print one JSON line.

Started by run.py; ``--setup-only`` stops after set-up and reports its time.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from the first line

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # host-speed samples right after set-up, which scale it


def end_to_end(rounds, host_factor: float, peak_rss_mb: float) -> dict:
    """Rates are medians over rounds, each round timed by its program calls,
    scaled to the quiet host speed."""

    def median_rate(count, seconds):
        return host_factor * statistics.median(count(r) / (seconds(r) or busy) for r, busy in rounds)

    def round_reward(r):
        if r.eval_reward is not None:
            return r.eval_reward
        return sum(r.rewards) / len(r.rewards) if r.rewards else 0.0

    return {
        "env_steps_per_s": median_rate(lambda r: r.env_steps, lambda r: r.steps_time),
        "problems_per_s": median_rate(lambda r: r.problems, lambda r: r.problems_time),
        "eval_reward": statistics.median(round_reward(r) for r, _ in rounds),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import mathsynth

    # only the package in this checkout's src/ is measured
    if Path(mathsynth.__file__).resolve().parent != SRC / "mathsynth":
        print(f"mathsynth was imported from {mathsynth.__file__}, not {SRC}", file=sys.stderr)
        return 1

    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)
    from hostspeed import HostSpeed
    from workloads import WORKLOADS, Meter

    workdir = ROOT / "runs" / "bench" / f"tmp-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.perf_counter() - START
    host = HostSpeed()
    host.sample(SETUP_SAMPLES)
    setup = {"setup_s": setup_s / host.factor(), "setup_raw_s": setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    meter = Meter(tracer, host)
    rounds = []
    loop_start = time.perf_counter()
    while True:  # whole rounds; start one only if it should end in time
        busy = meter.busy
        result = workload.round(meter)
        rounds.append((result, meter.busy - busy))
        elapsed = time.perf_counter() - loop_start
        if elapsed + elapsed / len(rounds) > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        **setup,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "rounds": len(rounds),
        "host_factor": host.factor(),
        "end_to_end": end_to_end(rounds, host.factor(), peak_rss_mb),
        "raw": end_to_end(rounds, 1.0, peak_rss_mb),
    }
    if tracer is not None:
        import layers

        out["per_layer"] = layers.metrics(tracer, len(rounds))
        trace_path = ROOT / "runs" / "bench" / f"trace-{args.workload}-{args.seed}.npz"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
        out["trace"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the `autorecipe` command line, run as a user runs it.

    python3 perfbench/run.py --workload replay-generate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each operation is a fresh
`python -m autorecipe.cli` process with the checkout's `src` first on the
path.  One closed-loop client runs one command at a time; the next starts
when the last has exited.  Every output is checked.  With `--trace 0` the
last stdout line is a JSON object with the end-to-end metrics; with
`--trace 1` a separate in-process run is traced and the per-layer metrics
are printed instead (see perfbench/trace.py).

Workloads:
  replay-generate   `generate --replay` over the asset-health preset
  latency-generate  the same through `--gateway-config` to a stub endpoint
                    that answers each call after a fixed delay
  bulk-inputs       rounds of `plan`, `score` and `metrics` on large inputs
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from procs import child_env, cli, environment, nproc, run_child  # noqa: E402

WORKLOADS = ("replay-generate", "latency-generate", "bulk-inputs")
SETUPS = 3  # set-up repeats; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    Below 2 * TAIL_BEYOND + 1 samples that percentile would sit at or
    under the median, so the median is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    if n <= 2 * TAIL_BEYOND:
        return median, 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# --- set-up ----------------------------------------------------------------------

class Workload:
    """Set-up state plus the operation the closed loop repeats."""

    def __init__(self, name: str, seed: int, root: Path, work: Path):
        self.name = name
        self.seed = seed
        self.root = root
        self.work = work
        self.env = child_env(root)
        self.stub = None
        self.state: dict = {}

    # Each set-up builds everything from the seed into its own directory.
    def setup(self, index: int) -> str | None:
        d = self.work / f"setup{index}"
        shutil.rmtree(d, ignore_errors=True)
        rng = random.Random(self.seed)
        if self.name == "bulk-inputs":
            state = inputs.bulk_inputs(rng, d / "inputs")
        else:
            state = inputs.generate_inputs(rng, d / "inputs")
            state["recorded"] = d / "recorded"
            state["store"] = d / "store.jsonl"
            argv = cli(*inputs.generate_args(
                state, str(state["recorded"]),
                ["--script", state["files"]["script"], "--record", str(state["store"])],
            ))
            _, _, code = run_child(argv, self.env, d / "record.log")
            if code != 0:
                return f"recording run exited with {code}: {(d / 'record.log').read_text()[-400:]}"
            if self.name == "latency-generate":
                error = self._start_stub(state, d)
                if error:
                    return error
        _, _, code = run_child(cli("--help"), self.env, d / "warmup.log")
        if code != 0:
            return f"warm-up exited with {code}"
        state["digest"] = inputs.digest(d / "inputs")
        self.state = state
        return None

    def _start_stub(self, state: dict, d: Path) -> str | None:
        from stub import DELAY_S, StubEndpoint, load_store

        self.stop()
        store = load_store(state["store"])
        if len(store) != state["expected_calls"]:
            return f"recorded {len(store)} distinct sessions, expected {state['expected_calls']}"
        self.stub = StubEndpoint(store, DELAY_S, nproc())
        endpoint = self.stub.start()
        state["gateway_config"] = d / "gateway.yaml"
        config = {
            "endpoint": endpoint, "model": "stub", "timeout_seconds": 30,
            "max_retries": 2, "backoff_seconds": 0.05, "max_parallel": nproc(),
        }
        state["gateway_config"].write_text(json.dumps(config), encoding="utf-8")
        return None

    def stop(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None

    def commands(self, out: Path) -> list[tuple[str, list[str], object]]:
        """One op's CLI commands as (label, arguments, check); a check returns an error or None.

        `out` is emptied first.  Call once per op: the latency check counts
        the stub's requests from the moment of this call.
        """
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        s = self.state
        if self.name == "bulk-inputs":
            (plan, plan_out), (score, score_out), (metrics, metrics_out) = (
                inputs.bulk_commands(s, str(out)).values()
            )
            return [
                ("plan", plan, lambda: checks.plan_ok(Path(plan_out), s["plan_steps"])),
                ("score", score, lambda: checks.scores_ok(Path(score_out), s["expected_scores"])),
                ("metrics", metrics,
                 lambda: checks.metrics_ok(Path(metrics_out), s["expected_metrics"])),
            ]
        bundle = out / "bundle"
        if self.name == "replay-generate":
            args = inputs.generate_args(s, str(bundle), ["--replay", str(s["store"])])
            return [("generate", args, lambda: checks.bundle_identical(bundle, s["recorded"]))]
        args = inputs.generate_args(s, str(bundle), ["--gateway-config", str(s["gateway_config"])])
        before = self.stub.requests

        def check():
            served = self.stub.requests - before
            if served != s["expected_calls"]:
                return f"stub served {served} requests, expected {s['expected_calls']}"
            return checks.bundle_identical_but_time(bundle, s["recorded"])

        return [("generate", args, check)]

    def op(self) -> list[tuple[str, float, float, str | None]]:
        """Run one op as child processes: (label, wall s, peak RSS MiB, error) each."""
        out = self.work / "out"
        results = []
        for label, args, check in self.commands(out):
            log = out / f"{label}.log"
            wall, rss, code = run_child(cli(*args), self.env, log)
            error = self._exit_error(code, log) or check()
            results.append((label, wall, rss, error))
        return results

    @staticmethod
    def _exit_error(code, log: Path) -> str | None:
        if code == 0:
            return None
        reason = "timed out" if code is None else f"exited with {code}"
        return f"{reason}: {log.read_text(errors='replace')[-300:].strip()}"


# --- end-to-end run ------------------------------------------------------------------

def run_e2e(workload: Workload, seconds: float) -> dict:
    setup_times, states = [], []
    for index in range(SETUPS):
        start = time.perf_counter()
        error = workload.setup(index)
        setup_times.append(time.perf_counter() - start)
        if error:
            raise SystemExit(f"set-up failed: {error}")
        states.append(workload.state)
    # One seed must give the same inputs, and scripted runs the same bundle.
    errors = [f"set-up {i}: inputs differ" for i, st in enumerate(states)
              if st["digest"] != states[-1]["digest"]]
    if "recorded" in states[-1]:
        errors += [f"set-up {i}: {e}" for i, st in enumerate(states)
                   if (e := checks.bundle_identical(st["recorded"], states[-1]["recorded"]))]
    for error in errors:
        print(error, file=sys.stderr)
    correct = not errors

    op_times, rss, per_command = [], [], {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        results = workload.op()
        for label, wall, peak, error in results:
            attempted += 1
            per_command.setdefault(label, []).append(wall)
            rss.append(peak)
            if error:
                failed += 1
                print(f"op {len(op_times) + 1} {label}: {error}", file=sys.stderr)
        op_times.append(sum(wall for _, wall, _, _ in results))
    workload.stop()

    p50 = statistics.median(op_times)
    tail_value, tail_pct = tail(op_times)
    print(f"workload {workload.name} seed {workload.seed}: {len(op_times)} ops in {seconds} s, "
          f"closed loop, one client; {environment()}")
    for label, times in per_command.items():
        print(f"  {label}_s.p50 {statistics.median(times):.4f} s over {len(times)} processes")
    print(f"  op_s.tail is p{tail_pct:.0f} of {len(op_times)} ops")
    print(f"  op_s samples {' '.join(f'{t:.3f}' for t in op_times)}")
    print(f"  failed_ratio {failed / attempted:.4f} ({failed} of {attempted})")
    print(f"  setup_s samples {', '.join(f'{t:.3f}' for t in setup_times)}")
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "op_s.p50": {"value": p50, "unit": "s"},
        "op_s.tail": {"value": tail_value, "unit": "s"},
        "peak_rss_mb": {"value": max(rss), "unit": "MiB"},
        "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }
    return {"correct": correct and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "autorecipe" / "cli.py").is_file():
        print("run from the root of an autorecipe checkout: src/autorecipe/cli.py not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = Workload(args.workload, args.seed, root, work)
    try:
        if args.trace:
            import trace_run

            result = trace_run.run_traced(workload)
        else:
            result = run_e2e(workload, args.seconds)
    finally:
        workload.stop()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child processes: the environment they run in and how one is timed."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

CHILD_TIMEOUT_S = 60.0


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Bytecode is cached as it is for an installed package, so start-up
    # does not recompile the sources on every run.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # The stub endpoint is local; never route it through a proxy.
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def run_child(argv: list[str], env: dict, log: Path, timeout: float = CHILD_TIMEOUT_S):
    """Run one process; returns (wall seconds, peak RSS MiB, exit code or None on timeout)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    code = None if proc.returncode < 0 else proc.returncode
    return wall, usage.ru_maxrss / 1024.0, code


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "autorecipe.cli", *args]


def environment() -> str:
    """Python, numpy, PyYAML with or without libyaml, and nproc."""
    import numpy
    import yaml

    libyaml = "with" if yaml.__with_libyaml__ else "without"
    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"PyYAML {yaml.__version__} {libyaml} libyaml, nproc {nproc()}")

"""End-to-end benchmark for the fglops CLI (standard library only).

    python3 bench/run.py --workload search|relations|requests|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With ``--trace 0`` one
closed-loop client runs the workload's requests as ``python -m fglops``
subprocesses, one at a time, for whole rounds until ``--seconds`` have
passed, checks every output against the longhand oracles, and prints the
end-to-end metrics.  With ``--trace 1`` it drives one round in-process
through ``fglops.cli.main`` four times (warm-up, untraced, traced, and with
the coefficient layer counted and timed) and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from oracles import Mismatch
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("search", "relations", "requests")
SETUP_REPEATS = 11  # start-up samples of the traced run's startup layer
SETUP_PER_ROUND = 3  # set-up samples spread across each round
CHILD_TIMEOUT_S = 120
SETUP_SNIPPET = "import fglops.cli; fglops.cli.build_parser()"


def child_env() -> dict:
    """The parent's environment without Python or fglops settings, plus src."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "FGLOPS_TRUNC_MAX"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, cwd) -> tuple:
    """Run the parent's interpreter once; returns (wall s, code, stdout, stderr)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return time.perf_counter() - start, None, "", f"timed out after {exc.timeout} s"
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def median_wall(args, cwd, repeats=SETUP_REPEATS) -> float:
    spawn(args, cwd)  # warm-up: compiles bytecode and fills the page cache
    return statistics.median(spawn(args, cwd)[0] for _ in range(repeats))


def broke_contract(code, err: str) -> bool:
    """A request fails when it crashes: a traceback, a timeout, or an exit code outside 0/1/2."""
    return code not in (0, 1, 2) or "Traceback (most recent call last)" in err


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Ledger:
    """Attempted, failed and checked requests of one run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.candidates = self.relations = 0
        self._verified = {}

    def judge(self, req, code, out, err) -> None:
        self.attempted += 1
        if broke_contract(code, err):
            self.failed += 1
            return
        key = (req.argv, code, out)
        tally = self._verified.get(key)
        if tally is None:
            try:
                tally = req.check(code, out, err)
            except (Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
                print(f"MISMATCH {' '.join(req.argv)}: {exc}", file=sys.stderr)
                self.correct = False
                return
            self._verified[key] = tally
        self.candidates += tally.candidates
        self.relations += tally.relations


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure(name: str, seed: int, seconds: float, scratch: Path) -> dict:
    """Closed loop over whole rounds of subprocess requests; end-to-end metrics.

    Every request of the workload runs once per round, and its latency is
    the fastest of its repetitions: other tenants of a shared machine only
    ever slow a run down, at times to half speed for seconds, and the
    fastest repetition discounts that.  Throughput is what one round
    certifies over the sum of these latencies.  Set-up is sampled at three
    points spread across each round, each round contributes its fastest
    sample, and setup_s is the median over rounds.
    """
    workload = Workload(name, seed, scratch)
    n = len(workload.requests)
    ledger, best = Ledger(), [math.inf] * n
    setup_at = {round(k * n / SETUP_PER_ROUND) for k in range(SETUP_PER_ROUND)}
    spawn(["-c", SETUP_SNIPPET], scratch)  # warm-up: compiles bytecode and fills the page cache
    setups = []
    start, rounds = time.perf_counter(), 0
    while rounds < workload.min_rounds or time.perf_counter() - start < seconds:
        round_setups = []
        for position, (i, req) in enumerate(workload.round()):
            if position in setup_at:
                round_setups.append(spawn(["-c", SETUP_SNIPPET], scratch)[0])
            wall, code, out, err = spawn(["-m", "fglops", *req.argv], scratch)
            best[i] = min(best[i], wall)
            ledger.judge(req, code, out, err)
        setups.append(min(round_setups))
        rounds += 1
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"{name}: {rounds} rounds, {ledger.attempted} requests", file=sys.stderr)
    busy = sum(best)
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "candidates_per_s": metric(ledger.candidates / rounds / busy, "1/s"),
            "relations_per_s": metric(ledger.relations / rounds / busy, "1/s"),
            "request_p50_ms": metric(1e3 * percentile(best, 0.50), "ms"),
            "request_p95_ms": metric(1e3 * percentile(best, 0.95), "ms"),
            "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        },
    }


def startup_metrics(scratch: Path) -> dict:
    """Bare interpreter start, then import and parser build timed inside a child."""
    probe = ("import time; t0 = time.perf_counter(); import fglops.cli; "
             "t1 = time.perf_counter(); fglops.cli.build_parser(); "
             "print(t1 - t0, time.perf_counter() - t1)")
    interp = median_wall(["-c", "pass"], scratch)
    spawn(["-c", probe], scratch)
    pairs = [tuple(map(float, spawn(["-c", probe], scratch)[2].split())) for _ in range(SETUP_REPEATS)]
    return {
        "startup.interp_s": metric(interp, "s"),
        "startup.import_s": metric(statistics.median(p[0] for p in pairs), "s"),
        "startup.parser_s": metric(statistics.median(p[1] for p in pairs), "s"),
    }


def traced(name: str, seed: int, scratch: Path) -> dict:
    metrics = startup_metrics(scratch)
    requests = [req for _, req in Workload(name, seed, scratch).round()]
    ledger = Ledger()
    os.environ.pop("FGLOPS_TRUNC_MAX", None)
    layer_metrics = tracing.profile(requests, ledger, scratch, OUT / f"spans-{name}.tsv")
    metrics.update(layer_metrics)
    return {"correct": ledger.correct, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fglops" / "__init__.py").is_file():
        print(f"error: no fglops sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One child per workload, so each reports its own peak RSS.
        for name in WORKLOADS:
            child = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                   stdout=subprocess.PIPE, text=True, check=True)
            print(json.dumps({"workload": name, **json.loads(child.stdout.splitlines()[-1])}), flush=True)
        return 0
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=OUT) as tmp:
        if args.trace:
            result = traced(args.workload, args.seed, Path(tmp))
        else:
            result = measure(args.workload, args.seed, args.seconds, Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one sidkit benchmark workload and print its metrics.

    python3 bench/run.py --workload score --seed 1 --seconds 12 --trace 0

Run from anywhere inside a source checkout: the benchmark finds ``src/``
next to its own directory, makes the seeded inputs in
``.bench_work/<workload>-<seed>-<pid>/`` (removed at exit) and runs sidkit as
``python -m sidkit.cli`` with ``PYTHONPATH=src``, one process at a time.

``--trace 0`` sets up three times (inputs plus one warm-up pass), each time
followed by a timed pass, adds timed passes until they have taken
``--seconds`` and reports the end-to-end metrics.
``--trace 1`` repeats a pass of processes, the same calls in-process and the
same calls in-process under the tracer, and reports the per-layer metrics.
The metric names and units come from ``BENCHMARK.json``. Every call's exit
code and outputs are checked; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS, Call, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 3
STARTUP_SAMPLES = 5


def sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Runner:
    """Runs passes of one workload and checks every call it makes."""

    def __init__(self, workload: Workload, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[tuple[int, str], str] = {}
        self.rejected: set[int] = set()  # calls whose full check failed
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=60)
        self.launcher.stdout.close()

    def setup(self, seed: int, full_check: bool) -> float:
        """Fresh inputs plus one warm-up pass; returns their time in seconds."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        start = perf_counter()
        self.workload.generate(self.work, seed)
        generate_s = perf_counter() - start
        self.calls = self.workload.calls()
        return generate_s + self.process_pass(full_check)["wall"]

    def spawn(self, argv: list[str]) -> dict:
        """One child Python process: exit code, wall, CPU and peak RSS."""
        request = {"argv": [sys.executable, *argv], "cwd": str(self.work), "env": self.env,
                   "stderr": str(self.work / "stderr.txt")}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        return json.loads(self.launcher.stdout.readline())

    def process_pass(self, full_check: bool = False) -> dict:
        """Each call as its own sidkit process. The wall time sums the
        processes' lifetimes, so the checks between them are not counted."""
        wall = cpu = rss = 0.0
        for index, call in enumerate(self.calls):
            child = self.spawn(["-m", "sidkit.cli", *call.argv])
            wall += child["wall"]
            cpu += child["cpu"]
            rss = max(rss, child["rss_mb"])
            stderr = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            self.verify(index, call, child["code"], stderr, full_check)
        return {"wall": wall, "cpu": cpu, "rss": rss}

    def inprocess_pass(self, traced: bool) -> tuple[float, list[list]]:
        """The same calls in this process through ``sidkit.cli.main``, with
        or without the tracer; returns the wall time and the spans."""
        import sidkit.cli

        tracer = tracing.Tracer()
        wall = 0.0
        here = os.getcwd()
        os.chdir(self.work)
        try:
            with tracer if traced else contextlib.nullcontext():
                for index, call in enumerate(self.calls):
                    stderr = io.StringIO()
                    start = perf_counter()
                    with contextlib.redirect_stderr(stderr):
                        try:
                            code = sidkit.cli.main(list(call.argv))
                        except SystemExit as exc:  # argparse usage errors
                            code = exc.code if isinstance(exc.code, int) else 2
                    wall += perf_counter() - start
                    self.verify(index, call, code, stderr.getvalue(), full_check=False)
        finally:
            os.chdir(here)
        return wall, tracer.spans

    def verify(self, index: int, call: Call, code: int, stderr: str, full_check: bool) -> None:
        """Expected exit code; outputs pass the full check (first pass) or
        are byte-identical to the first pass's."""
        self.attempted += 1
        problems = []
        if code != call.expect:
            problems.append(f"exit code {code}, expected {call.expect}: {stderr.strip()[-500:]}")
        else:
            try:
                if full_check:
                    problems += call.check(self.work)
                    if problems:
                        self.rejected.add(index)
                elif index in self.rejected:
                    problems.append("repeats a call whose first outputs failed their check")
                for name in call.outputs:
                    digest = sha256(self.work / name)
                    if self.digests.setdefault((index, name), digest) != digest:
                        problems.append(f"{name} differs from the first pass")
            except Exception as exc:  # a malformed output fails its check, not the run
                problems.append(f"check raised {exc!r}")
                if full_check:
                    self.rejected.add(index)
        if call.discard:
            for name in call.outputs:
                (self.work / name).unlink(missing_ok=True)
        if problems:
            self.failed += 1
            self.problems += [f"sidkit {' '.join(call.argv)}: {p}" for p in problems]


def measure(runner: Runner, seed: int, seconds: float) -> dict:
    """Set-up rounds, each followed by one timed pass, then timed passes
    until they have taken ``seconds``. Interleaving spreads the timed passes
    over the whole run, so one slow spell of a shared host weighs less."""
    setups, passes = [], []
    measured = 0.0
    for r in range(SETUP_ROUNDS):
        setups.append(runner.setup(seed, full_check=(r == 0)))
        start = perf_counter()
        passes.append(runner.process_pass())
        measured += perf_counter() - start
    while measured < seconds:
        start = perf_counter()
        passes.append(runner.process_pass())
        measured += perf_counter() - start
    walls = [p["wall"] for p in passes]
    q1, median, q3 = quartiles(walls)
    size_mb = runner.workload.sizes["bytes"] / 1e6
    print(f"passes: {len(passes)}  pass_s median {median:.4f}  quartiles [{q1:.4f}, {q3:.4f}]  "
          f"throughput {size_mb / median:.2f} MB/s of input")
    print(f"setup rounds (s): {', '.join(f'{s:.4f}' for s in setups)}")
    return {
        "pass_s": median,
        "peak_rss_mb": statistics.median(p["rss"] for p in passes),
        "setup_s": statistics.median(setups),
    }


def startup(runner: Runner) -> dict:
    """Fresh-interpreter costs: ``--version`` and ``import sidkit.cli``."""
    def median_wall(argv: list[str]) -> float:
        return statistics.median(runner.spawn(argv)["wall"] for _ in range(STARTUP_SAMPLES))

    bare = median_wall(["-c", "pass"])
    return {
        "cli.startup_s": median_wall(["-m", "sidkit.cli", "--version"]),
        "cli.import_s": median_wall(["-c", "import sidkit.cli"]) - bare,
    }


def trace(runner: Runner, seed: int, seconds: float) -> dict:
    sys.path.insert(0, str(SRC))
    runner.setup(seed, full_check=True)
    runner.inprocess_pass(traced=False)  # warm-up: first in-process imports and caches
    samples: list[dict] = []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        plain = runner.process_pass()
        untraced_wall, _ = runner.inprocess_pass(traced=False)
        traced_wall, spans = runner.inprocess_pass(traced=True)
        if not samples:
            assert_work(runner, spans)
        samples.append(tracing.layer_metrics(spans, {
            "cli.processes": len(runner.calls),
            "cli.cpu_s": plain["cpu"],
            "cli.offcpu_s": plain["wall"] - plain["cpu"],
            "trace.overhead_s": traced_wall - untraced_wall,
        }))
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics.update(startup(runner))
    metrics["surgery.mav_peak_alloc_mb"] = 0.0
    if runner.workload.name == "surgery":
        wl = runner.workload
        metrics["surgery.mav_peak_alloc_mb"] = tracing.mav_peak_alloc_mb(runner.work / wl.A, runner.work / wl.B)
    print(f"traced passes: {len(samples)}")
    return metrics


def assert_work(runner: Runner, spans: list[list]) -> None:
    """The workload's own layers did work; the layers it bypasses were idle."""
    metrics = tracing.layer_metrics(spans, {})
    wl = runner.workload
    for name in wl.busy:
        if not metrics[name] > 0:
            runner.problems.append(f"trace: {name} is {metrics[name]}, expected work in that layer")
    for layer in wl.idle:
        calls = tracing.layer_calls(spans, layer)
        if calls:
            runner.problems.append(f"trace: {calls} calls into {layer}, which {wl.name} should bypass")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "sidkit" / "cli.py").is_file():
        print(f"bench: no sidkit sources under {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(workload, work)
    try:
        run = trace if args.trace else measure
        metrics = run(runner, args.seed, args.seconds)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print(f"workload {workload.name}, seed {args.seed}, inputs {json.dumps(workload.sizes)}")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    fail_ratio = runner.failed / runner.attempted
    print(f"fail_ratio {fail_ratio:.4f} 1 ({runner.failed} of {runner.attempted} invocations)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

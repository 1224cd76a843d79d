"""Benchmark for `zecheck verify`, the run zecheck's users wait on.

    python3 perfbench/run.py --workload d3n2 --seed 7 --seconds 50 --trace 0

Run from anywhere; it measures the checkout that holds this file, with
`src` on PYTHONPATH and no install.  Each workload is one closed-loop
client: one `python -m zecheck verify` child at a time, with BLAS held
to one thread.  On a 2-vCPU box OpenBLAS's default of two threads made
`--d 3 --n 2` slower (about 35 s against 33.5 s) and burnt 45 s of CPU
instead of 33 s spinning on 81x81 products, so its time followed the
load on both vCPUs rather than the program.

Children run back to back until the next one would end past --seconds
(at least one), each timed from spawn to exit with `os.wait4`; the
verify metrics are the mean over the run's children, so a run reports
seconds per verify over its whole length.  Set-up time is that of a
fresh process that imports zecheck and builds the workload's channel,
timed SETUP_EDGE times before the first verify, once between verifies
and SETUP_EDGE times after the last; the median is reported.

Every report passes the gate in gate.py, and its values digest must
equal that of every other report of the run; a run that fails counts
all its expected claims as failed.  With --trace 1 one more child runs
the same configuration under tracer.py and the per-layer metrics come
from it.

The last stdout line is the result object; the line before it holds the
machine fingerprint, the values digest and every child's numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from gate import GateError, SAMPLE_COUNTS, check_report, expected_claims
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = {
    # the configuration users wait on: n=2 branch kernel, ppt_search at 81x81
    "d3n2": {"d": 3, "n": 2, "trials": 100},
    # same n=2 kernel, many small calls; the d=2 sub-design search and alt identity
    "d2n2-t300": {"d": 2, "n": 2, "trials": 300},
}
SUITES = ("design", "channel", "zero-error", "theorem2", "privacy", "ppt", "ncgraph")
SETUP_EDGE = 5  # set-up probes before the first and after the last verify
TIME_LIMIT_S = 170.0
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


@dataclass
class VerifyRun:
    traced: bool
    child: Child
    failed: int = 0
    digest: str | None = None
    counts: dict | None = None
    problem: str = ""


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.config = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("ZEC_")}
        self.env.update(dict.fromkeys(BLAS_ENV, "1"))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.count = 0

    def spawn(self, args: list[str]) -> tuple[Child, str, str]:
        """Run one child to completion; time it from spawn to exit."""
        self.count += 1
        out_path = self.workdir / f"child{self.count}.out"
        err_path = self.workdir / f"child{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=self.env, stdout=out, stderr=err
            )
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            returncode=proc.returncode,
        )
        return child, out_path.read_text(), err_path.read_text(errors="replace")

    def verify_args(self, report: Path) -> list[str]:
        c = self.config
        return [
            "verify", "--d", str(c["d"]), "--n", str(c["n"]), "--trials", str(c["trials"]),
            "--seed", str(self.seed), "--format", "json", "--output", str(report),
        ]

    def setup(self, fingerprint: bool = False) -> tuple[Child, str]:
        """One set-up probe; exits the benchmark if zecheck cannot be imported and built."""
        args = [str(BENCH_DIR / "setup_probe.py"), str(self.config["d"])]
        child, out, err = self.spawn(args + (["--fingerprint"] if fingerprint else []))
        if child.returncode != 0:
            raise SystemExit(f"set-up probe failed (exit {child.returncode}):\n{err}")
        return child, out

    def fingerprint(self) -> dict:
        """Untimed first probe: warms bytecode caches and names what was imported."""
        info = json.loads(self.setup(fingerprint=True)[1].strip().splitlines()[-1])
        if not Path(info["zecheck_file"]).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"imported zecheck from {info['zecheck_file']}, not this checkout")
        return info

    def verify(self, traced: bool) -> tuple[VerifyRun, dict | None, dict | None]:
        """One verify child, gated; returns the run, its report and its spans."""
        report_path = self.workdir / f"report{self.count + 1}.json"
        spans_path = self.workdir / f"spans{self.count + 1}.json"
        args = ["-m", "zecheck"]
        if traced:
            args = [str(BENCH_DIR / "tracer.py"), str(spans_path)]
        child, _, err = self.spawn(args + self.verify_args(report_path))
        run = VerifyRun(traced=traced, child=child)
        report = trace = None
        try:
            if child.returncode != 0:
                raise GateError(f"exit code {child.returncode}: {err.strip()[-500:]}")
            report = json.loads(report_path.read_text())
            if traced:
                trace = json.loads(spans_path.read_text())
            cfg = report["config"]
            asked = dict(self.config, seed=self.seed)
            if any(cfg.get(k) != v for k, v in asked.items()):
                raise GateError(f"report config {cfg} does not match {asked}")
            run.counts, run.digest = check_report(report, self.config["d"])
        except (GateError, OSError, ValueError, KeyError, TypeError) as exc:
            run.failed = len(expected_claims(self.config["d"]))
            run.problem = f"{type(exc).__name__}: {exc}"
        return run, report, trace


def measure(bench: Bench, seconds: float, traced: bool):
    """Set-up probes, untraced verifies for `seconds`, then the traced verify if asked."""
    setups: list[Child] = []

    def time_setup(times: int) -> None:
        if not traced:
            setups.extend(bench.setup()[0] for _ in range(times))

    # the box's speed drifts over tens of seconds, so set-up probes are
    # spread over the whole run instead of taken back to back
    time_setup(SETUP_EDGE)
    runs: list[VerifyRun] = []
    start = time.perf_counter()
    while True:
        runs.append(bench.verify(traced=False)[0])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runs) > seconds:
            break
        time_setup(1)
    time_setup(SETUP_EDGE)
    traced_result = bench.verify(traced=True) if traced else None
    return setups, runs, traced_result


def layer_result(traced_result, untraced: list[Child]) -> dict:
    traced_run, report, trace = traced_result
    metrics = layer_metrics(trace or Tracer().to_dict())
    claims = report["claims"] if report else []
    for suite in SUITES:
        metrics[f"suites.{suite}_s"] = sum(
            c["runtime_ms"] for c in claims if c["suite"] == suite
        ) / 1000.0
    wall = traced_run.child.wall_s
    metrics["suites.unattributed_s"] = wall - sum(c["runtime_ms"] for c in claims) / 1000.0
    metrics["trace_overhead_s"] = wall - statistics.fmean(c.wall_s for c in untraced)
    metrics["trace_coverage"] = sum(v for k, v in metrics.items() if k.endswith(".self_s")) / wall
    units = {"calls": "count", "branches": "count", "unconverged": "count",
             "branch_mb": "MiB", "accept_ratio": "ratio", "trace_coverage": "ratio"}
    return {
        name: {"value": value, "unit": units.get(name.rsplit(".", 1)[-1], "s")}
        for name, value in metrics.items()
    }


def end_to_end_result(setups: list[Child], untraced: list[Child], passed_frac: float,
                      counts: dict[str, int]) -> dict:
    result = {
        "verify_wall_s": {"value": statistics.fmean(c.wall_s for c in untraced), "unit": "s"},
        "verify_cpu_s": {"value": statistics.fmean(c.cpu_s for c in untraced), "unit": "s"},
        "peak_rss_mb": {"value": statistics.fmean(c.rss_mb for c in untraced), "unit": "MiB"},
        "setup_s": {"value": statistics.median(c.wall_s for c in setups), "unit": "s"},
        "claims_passed_frac": {"value": passed_frac, "unit": "ratio"},
    }
    result.update({name: {"value": v, "unit": "count"} for name, v in counts.items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zecheck" / "__init__.py").is_file():
        print(f"no zecheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()[0]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        probe = bench.fingerprint()
        setups, runs, traced_result = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = runs + ([traced_result[0]] if traced_result else [])
    expected = len(expected_claims(bench.config["d"]))
    gated = [r for r in everything if not r.failed]
    reference = gated[0].digest if gated else None
    for r in gated:
        if r.digest != reference:
            r.failed = expected
            r.problem = f"values digest {r.digest} differs from {reference}"
    attempted = len(everything) * expected
    failed = sum(r.failed for r in everything)
    untraced = [r.child for r in runs]
    if traced_result:
        result = layer_result(traced_result, untraced)
    else:
        counts = next((r.counts for r in runs if not r.failed), dict.fromkeys(SAMPLE_COUNTS, 0))
        result = end_to_end_result(setups, untraced, 1.0 - failed / attempted, counts)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "config": bench.config,
        "values_digest": reference,
        "fingerprint": {
            "numpy": probe["numpy"],
            "blas": probe["blas"],
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "child_blas_env": {k: bench.env[k] for k in BLAS_ENV},
            "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0],
        },
        "setup_runs": [asdict(c) for c in setups],
        "verify_runs": [asdict(r) for r in everything],
    }
    if traced_result and traced_result[2] and traced_result[2]["missing"]:
        details["not_traced"] = traced_result[2]["missing"]
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""ergokit benchmark: CPU time and throughput of the CLI, with a traced run
for per-layer self time and exact work counts.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src/``. Every CLI invocation is a child process started from this one
process, one at a time (a closed loop with one client), with BLAS pinned
to one thread. Each child's stdout is checked against an independent
oracle and against earlier invocations of the same argv.

``--trace 0`` measures invocation sets for S seconds and reports the
end-to-end metrics. ``--trace 1`` alternates untraced sets with sets run
through ``bench/tracer.py`` (same argv, in-process through
``ergokit.cli.main``) and reports the per-layer metrics. Human-readable
lines start with ``#``; the last line is the JSON result.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and (through the environment) in every
# child: two threads on this problem size were slower and far noisier.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 60
# CPU time of SpeedReference.time() at this host's fast speed (2-core x86_64
# VM, numpy 2.4 with OpenBLAS on one thread).
REFERENCE_NOMINAL_S = 0.04
SETUP_PROBES = 9
# A set's slowdown is the median over the reference samples of the sets this
# many places either side of it: one sample is noisier than the drift it
# tracks. Over ten 30 s runs this halved the spread of verify-small.
SPEED_WINDOW = 2
# Distinct inputs per run; the run cycles through them, so each is repeated
# and its stdout compared byte for byte.
INPUTS_PER_RUN = 2
# A traced child's span self times must sum to the time its outermost spans
# cover (up to rounding), and those spans must cover its wall time up to the
# few statements of tracer.py that run outside every span.
ACCOUNTING_SLACK_S = 1e-6
COVERAGE_SLACK_FRAC = 0.02
COVERAGE_SLACK_S = 0.01
CLAIMS = ("theorem1", "theorem2", "theorem3", "lemma1", "schur")

END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "ops_per_cpu_s": "1/s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "instances.self_s": "s",
    "audits.self_s": "s",
    "states.sample_s": "s",
    "states.build_s": "s",
    "measurement.build_s": "s",
    "measurement.estimate_s": "s",
    "measurement.povm_builds_per_op": "count",
    "linalg.self_s": "s",
    "linalg.eig_s": "s",
    "linalg.eigensolves_per_op": "count",
    "linalg.eig_calls_per_op": "count",
    "linalg.eig_cost_d3": "count",
    "linalg.qr_per_op": "count",
    "ergotropy.self_s": "s",
    "majorization.self_s": "s",
    "ergokit.import_s": "s",
    "trace.overhead_frac": "frac",
}


# --- child processes --------------------------------------------------------

@dataclass
class Child:
    code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mib: float


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list, work: Path, env: dict) -> Child:
    """Run one child to completion; wall time from spawn to reap, CPU time
    (user + system) and peak RSS from its rusage. Output goes to files, so
    no pipe can fill and stall it."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_bytes(), wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


# --- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    name: str
    args: tuple
    ops: int
    check: Callable[[bytes], int]  # stdout -> number of failed ops


def check_verify(stdout: bytes, trials: int) -> int:
    """One JSON line per claim, in order, each with the requested trial
    count and no violations; a bad line fails that claim's trials."""
    lines = stdout.decode(errors="replace").splitlines()
    if len(lines) != len(CLAIMS):
        return trials * len(CLAIMS)
    failed = 0
    for claim, line in zip(CLAIMS, lines):
        try:
            doc = json.loads(line)
        except ValueError:
            doc = {}
        ok = doc.get("claim") == claim and doc.get("trials") == trials and doc.get("violations") == 0
        failed += 0 if ok else trials
    return failed


def check_report(stdout: bytes, expected: dict, tol: float) -> int:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return 1
    fields = [k for k in expected if k != "d"]
    if not isinstance(doc, dict) or set(doc) != set(expected) or doc["d"] != expected["d"]:
        return 1
    if not all(type(doc[k]) in (int, float) for k in fields):
        return 1
    return int(any(abs(doc[k] - expected[k]) > tol for k in fields))


def check_sweep(stdout: bytes, grid: list, expected: list, tol: float) -> int:
    """CSV header plus one row per grid point; each row is one op."""
    lines = stdout.decode(errors="replace").splitlines()
    if len(lines) != len(grid) + 1 or lines[0] != "parameter,observational_ergotropy":
        return len(grid)
    failed = 0
    for line, t, value in zip(lines[1:], grid, expected):
        try:
            param, got = (float(x) for x in line.split(","))
        except ValueError:
            failed += 1
            continue
        failed += int(param != t or abs(got - value) > tol)
    return failed


def verify_inputs(seed: int, work: Path, d: int, n: int, trials: int) -> list:
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=INPUTS_PER_RUN)
    return [[Command("verify", ("verify", "all", "--d", str(d), "--n", str(n), "--trials", str(trials),
                                "--seed", str(int(s))),
                     trials * len(CLAIMS), partial(check_verify, trials=trials))]
            for s in seeds]


def instance_inputs(seed: int, work: Path, d: int, points: int) -> list:
    grid = [float(v) for v in np.linspace(0.0, 1.0, points)]
    inputs = []
    for k in range(INPUTS_PER_RUN):
        inst = oracle.make_instance(seed, k, d)
        path = work / f"instance-{k}.json"
        path.write_text(json.dumps(oracle.instance_document(inst)))
        rel = str(path.relative_to(ROOT))
        tol = oracle.tolerance(inst)
        inputs.append([
            Command("report", ("report", rel, "--measurement", "general"), 1,
                    partial(check_report, expected=oracle.report_values(inst), tol=tol)),
            Command("sweep", ("sweep", rel, "--family", "mix", "--grid", f"0:1:{points}",
                              "--measurement", "general"), points,
                    partial(check_sweep, grid=grid, expected=oracle.mix_sweep_values(inst, grid), tol=tol)),
        ])
    return inputs


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "verify-small": {"full": partial(verify_inputs, d=3, n=4, trials=200),
                     "tiny": partial(verify_inputs, d=3, n=4, trials=5)},
    "verify-large": {"full": partial(verify_inputs, d=64, n=64, trials=2),
                     "tiny": partial(verify_inputs, d=8, n=8, trials=1)},
    "instance-cli": {"full": partial(instance_inputs, d=16, points=101),
                     "tiny": partial(instance_inputs, d=4, points=5)},
}


# --- measurement ----------------------------------------------------------------

@dataclass
class SetResult:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mib: float = 0.0
    ops: int = 0
    failed: int = 0
    command_cpu_s: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    coverage_ok: bool = True
    max_outside_s: float = 0.0
    slowdown: float = 1.0

    def scaled(self, seconds: float) -> float:
        return seconds / self.slowdown


class SpeedReference:
    """Fixed interpreter, small-numpy and LAPACK work, whose CPU time this
    process measures around every timed child.

    The host's speed drifts by up to 2x within seconds, and the CPU time of
    identical invocations drifts with it. Every reported time is therefore
    scaled by REFERENCE_NOMINAL_S over the reference time measured around
    it: a time in seconds at the host's fast speed. CPU time rather than
    wall time, on both sides, leaves out the time a process waits for a
    core on this shared host.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        small, large = rng.standard_normal((3, 3)), rng.standard_normal((64, 64))
        self.small, self.large = small + small.T, large + large.T
        self.time()  # warm-up
        self.last = self.time()

    def time(self) -> float:
        t0 = time.process_time()
        acc, table = 0, {}
        for i in range(100_000):
            table[i & 255] = acc
            acc = (acc + 7 * i) % 1_000_003
        for _ in range(2500):
            np.linalg.eigvalsh(self.small)
        for _ in range(50):
            np.linalg.eigvalsh(self.large)
        return time.process_time() - t0

    def slowdown(self) -> float:
        """Mean reference time at both ends of the interval since the last
        call, relative to nominal."""
        now = self.time()
        factor = (self.last + now) / 2.0 / REFERENCE_NOMINAL_S
        self.last = now
        return factor


def smoothed(factors: list) -> list:
    """Each slowdown replaced by the median of its SPEED_WINDOW-wide
    neighbourhood."""
    w = SPEED_WINDOW
    return [statistics.median(factors[max(0, i - w):i + w + 1]) for i in range(len(factors))]


def run_set(commands: list, traced: bool, work: Path, env: dict, reference: dict) -> SetResult:
    result = SetResult(traced)
    for cmd in commands:
        trace_path = work / "trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), "--", *cmd.args]
        else:
            argv = [sys.executable, "-m", "ergokit", *cmd.args]
        child = run_child(argv, work, env)
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.rss_mib = max(result.rss_mib, child.rss_mib)
        result.ops += cmd.ops
        result.command_cpu_s[cmd.name] = child.cpu_s
        if child.code != 0 or reference.setdefault(cmd.args, child.stdout) != child.stdout:
            result.failed += cmd.ops
            continue
        result.failed += cmd.check(child.stdout)
        if traced:
            trace = json.loads(trace_path.read_text())
            for key, value in trace["self_s"].items():
                result.self_s[key] = result.self_s.get(key, 0.0) + value
            for key, value in trace["counts"].items():
                result.counts[key] = result.counts.get(key, 0) + value
            outside = trace["wall_s"] - trace["spans_s"]
            result.max_outside_s = max(result.max_outside_s, outside)
            result.coverage_ok &= (
                abs(sum(trace["self_s"].values()) - trace["spans_s"]) <= ACCOUNTING_SLACK_S
                and -ACCOUNTING_SLACK_S <= outside <= COVERAGE_SLACK_FRAC * trace["wall_s"] + COVERAGE_SLACK_S)
    return result


def measure_setup(work: Path, env: dict, probes: int, speed: SpeedReference) -> list:
    """Interpreter start, ``import ergokit`` and parser build: the CPU time
    of ``python -m ergokit --help``, scaled to nominal speed; one untimed
    warm-up fills the caches."""
    times, slowdowns = [], []
    for i in range(probes + 1):
        child = run_child([sys.executable, "-m", "ergokit", "--help"], work, env)
        slowdown = speed.slowdown()
        if child.code != 0 or not child.stdout.startswith(b"usage: ergokit"):
            raise SystemExit(f"error: `python -m ergokit --help` failed with exit code {child.code}")
        if i:
            times.append(child.cpu_s)
            slowdowns.append(slowdown)
    return [t / f for t, f in zip(times, smoothed(slowdowns))]


def probe_env(work: Path, env: dict) -> dict:
    child = run_child([sys.executable, str(BENCH / "env_probe.py")], work, env)
    if child.code != 0:
        raise SystemExit("error: cannot import ergokit and numpy in a child process")
    record = json.loads(child.stdout)
    module = Path(record["ergokit"]).resolve()
    if ROOT / "src" not in module.parents:
        raise SystemExit(f"error: ergokit was imported from {module}, not from this checkout's src/")
    record["ergokit"] = str(module.relative_to(ROOT))
    record["nproc"] = os.cpu_count()
    record["blas_pin"] = BLAS_PIN
    record["blas_pin_applied"] = None if record["blas_threads"] is None else record["blas_threads"] == 1
    return record


def run_sets(inputs: list, seconds: float, trace: bool, work: Path, env: dict,
             speed: SpeedReference) -> list:
    """Cycle through the inputs for ``seconds`` (at least two sets per input).
    With tracing, set pairs run the same input untraced then traced."""
    per_input = 2 if trace else 1
    reference = {}
    sets = []
    deadline = time.perf_counter() + seconds
    while len(sets) < 2 * len(inputs) or time.perf_counter() < deadline:
        i = len(sets)
        commands = inputs[(i // per_input) % len(inputs)]
        result = run_set(commands, trace and i % 2 == 1, work, env, reference)
        result.slowdown = speed.slowdown()
        sets.append(result)
    for result, factor in zip(sets, smoothed([s.slowdown for s in sets])):
        result.slowdown = factor
    return sets


# --- metrics ----------------------------------------------------------------------

def upper_percentile(values: list) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def end_to_end_metrics(sets: list, setup: list) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(s.scaled(s.cpu_s) for s in sets),
        "ops_per_cpu_s": statistics.median(s.ops / s.scaled(s.cpu_s) for s in sets),
        "peak_rss_mb": statistics.median(s.rss_mib for s in sets),
    }


def per_layer_metrics(sets: list) -> dict:
    plain = [s for s in sets if not s.traced]
    traced = [s for s in sets if s.traced]
    # metric -> prefixes of the "<layer>.<kind>" self-time keys it sums
    times = {
        "cli.self_s": ("cli.",),
        "instances.self_s": ("instances.",),
        "audits.self_s": ("audits.",),
        "states.sample_s": ("states.sample",),
        "states.build_s": ("states.call",),
        "measurement.build_s": ("measurement.call",),
        "measurement.estimate_s": ("measurement.estimate",),
        "linalg.self_s": ("linalg.call", "linalg.import"),
        "linalg.eig_s": ("linalg.eig",),
        "ergotropy.self_s": ("ergotropy.",),
        "majorization.self_s": ("majorization.",),
    }
    out = {}
    for metric, prefixes in times.items():
        out[metric] = statistics.median(
            s.scaled(sum(v for k, v in s.self_s.items() if k.startswith(prefixes))) for s in traced)
    out["ergokit.import_s"] = statistics.median(
        s.scaled(sum(v for k, v in s.self_s.items() if k.endswith(".import")))
        for s in traced)
    # Counts are exact; take them from the first traced set, whose input is
    # fixed by the seed.
    first = traced[0]
    calls = first.counts
    out["measurement.povm_builds_per_op"] = calls.get("measurement:Povm.__post_init__", 0) / first.ops
    out["linalg.eigensolves_per_op"] = calls.get("eigensolves", 0) / first.ops
    out["linalg.eig_calls_per_op"] = (calls.get("numpy.linalg.eigh", 0) + calls.get("numpy.linalg.eigvalsh", 0)) / first.ops
    out["linalg.eig_cost_d3"] = calls.get("eig_cost_d3", 0) / first.ops
    out["linalg.qr_per_op"] = calls.get("qr", 0) / first.ops
    untraced = statistics.median(s.scaled(s.cpu_s) for s in plain)
    out["trace.overhead_frac"] = (statistics.median(s.scaled(s.cpu_s) for s in traced) - untraced) / untraced
    return {name: out[name] for name in PER_LAYER_UNITS}


def summary(sets: list) -> dict:
    plain = [s for s in sets if not s.traced]
    attempted = sum(s.ops for s in sets)
    failed = sum(s.failed for s in sets)
    cpu = [s.scaled(s.cpu_s) for s in plain]
    out = {"sets": len(sets), "untraced_sets": len(plain), "attempted": attempted, "failed": failed,
           "fail_frac": failed / attempted}
    hi = upper_percentile(cpu)
    if hi is not None:
        out[f"cpu_s_p{hi[0]}"] = hi[1]
    for name in plain[0].command_cpu_s:
        out[f"{name}_cpu_p50_s"] = statistics.median(s.scaled(s.command_cpu_s[name]) for s in plain)
    out["raw_cpu_s"] = statistics.median(s.cpu_s for s in plain)
    out["raw_wall_s"] = statistics.median(s.wall_s for s in plain)
    out["slowdown"] = statistics.median(s.slowdown for s in sets)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ergokit" / "__init__.py").is_file():
        print(f"error: no ergokit sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        env = child_env()
        record = probe_env(work, env)
        speed = SpeedReference()
        setup = measure_setup(work, env, SETUP_PROBES if args.size == "full" else 2, speed)
        inputs = WORKLOADS[args.workload][args.size](args.seed, work)
        sets = run_sets(inputs, args.seconds, bool(args.trace), work, env, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = summary(sets)
    if args.trace:
        values, units = per_layer_metrics(sets), PER_LAYER_UNITS
        coverage_ok = all(s.coverage_ok for s in sets if s.traced)
        info["trace_coverage_ok"] = coverage_ok
        info["trace_max_outside_s"] = max(s.max_outside_s for s in sets if s.traced)
    else:
        values, units = end_to_end_metrics(sets, setup), END_TO_END_UNITS
        coverage_ok = True
        info["setup_samples"] = len(setup)
    print(f"# env {json.dumps(record)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(info)}")
    for name, value in values.items():
        print(f"# {name:32s} {value!r} {units[name]}")
    print(json.dumps({
        "correct": info["failed"] == 0 and coverage_ok,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Desk-scale benchmark of the ``nelsonlab`` CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src``.  Each workload (see ``workloads.py``) is one closed-loop,
single-client ``python -m nelsonlab ...`` subprocess at a time; the CLI pins
BLAS/OpenMP to one thread.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``wall_s``: spawn to exit of one workload invocation, median over the run;
* ``cpu_s``: user + sys CPU time of that child, median over the run;
* ``setup_s``: spawn to exit of a fresh ``import nelsonlab.cli`` (numpy and
  scipy included), median of several probes interleaved with the workload;
* ``peak_rss_mb``: peak RSS of the workload children, from their rusage.

Invocations repeat until ``--seconds`` have passed, so at 20 s a run times
one invocation of ``verify-reference`` or ``solve-fine`` and two of
``effmass-fiber``.  The seed fixes the interleaving of set-up probes and the
first invocation, and the coupling grid of ``scan-coarse``.

``--trace 1`` makes one in-process traced run (``tracer.py``) and reports
the per-layer metrics, the traced wall time and the tracing overhead: traced
wall minus the median untraced wall of the earlier runs of the same source
tree and argv in this checkout.  Without such runs it makes one untraced
invocation first.

Every invocation is checked: exit status 0, the workload's oracle, and the
SHA-256 of its stdout, which must equal that of every earlier run of the
same source tree and argv in this checkout.  The traced run's deterministic
counts must also repeat exactly.  These records and the untraced wall times
are kept under ``.bench_build``.

The last stdout line is the JSON result; the line before it holds machine
facts.  The exit status is 0 when a result was printed, 2 when there is no
source tree, and 1 when the benchmark cannot measure: a set-up probe or the
traced child crashed, or the trace lost a span the workload must record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import DETERMINISTIC, layer_metrics, silent_spans  # noqa: E402
from workloads import WORKLOADS, OracleError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
SETUP_ARGV = [sys.executable, "-c", "import nelsonlab.cli"]
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchmarkError(Exception):
    """The benchmark itself cannot measure this checkout."""


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    stdout: str
    stderr: str


def invoke(argv: list[str], timeout: float) -> Invocation:
    """Run one child to completion; its rusage comes from ``os.wait4``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile(dir=STATE) as out, tempfile.TemporaryFile(dir=STATE) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
        out.seek(0)
        err.seek(0)
        return Invocation(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            status=proc.returncode,
            stdout=out.read().decode(),
            stderr=err.read().decode(),
        )


def source_facts() -> tuple[str, int]:
    """SHA-256 over the files of ``src`` and the line count of its modules."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        if path.suffix == ".py":
            lines += data.count(b"\n")
    return digest.hexdigest(), lines


class Record:
    """What earlier runs of one source tree and argv saw, kept on disk.

    The first run writes the stdout digest and the deterministic counts;
    later runs must reproduce them.  Untraced wall times accumulate.
    """

    def __init__(self, src_sha: str, argv: list[str]):
        key = hashlib.sha256((src_sha + "\0" + json.dumps(argv)).encode()).hexdigest()
        self.path = STATE / f"record-{key[:32]}.json"
        self.data = json.loads(self.path.read_text()) if self.path.exists() else {}

    def same(self, field: str, value) -> bool:
        if field not in self.data:
            self.data[field] = value
            self._save()
        return self.data[field] == value

    def add(self, field: str, value) -> None:
        self.data.setdefault(field, []).append(value)
        self._save()

    def _save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True))
        os.replace(tmp, self.path)


def check(workload, argv: list[str], status: int, stdout: str, record: Record) -> str | None:
    """The reason an invocation failed, or None when it holds."""
    if status != 0:
        return f"exit status {status}"
    try:
        workload.check(stdout, argv, ROOT)
    except (OracleError, KeyError, ValueError, TypeError) as exc:
        return f"oracle: {type(exc).__name__}: {exc}"
    if not record.same("stdout_sha256", hashlib.sha256(stdout.encode()).hexdigest()):
        return "stdout differs from an earlier run of the same source and argv"
    return None


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "nelsonlab", *argv]


class Run:
    """Counts attempts and failures of one benchmark run."""

    def __init__(self, workload, seed: int, src_sha: str):
        self.workload = workload
        self.argv = workload.argv(seed)
        self.record = Record(src_sha, self.argv)
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.t0)

    def judge(self, status: int, stdout: str, counts: dict | None = None) -> bool:
        """Count one invocation; True when it holds."""
        self.attempted += 1
        reason = check(self.workload, self.argv, status, stdout, self.record)
        if reason is None and counts is not None and not self.record.same("counts", counts):
            reason = f"counts {counts} differ from an earlier run's {self.record.data['counts']}"
        if reason is not None:
            self.failures.append(reason)
            print(f"perfbench: {self.workload.name}: invocation failed: {reason}", file=sys.stderr)
        return reason is None

    def invocation(self) -> Invocation:
        """One untraced workload invocation, judged; its wall time is recorded."""
        call = invoke(cli_argv(self.argv), self.remaining())
        if self.judge(call.status, call.stdout):
            self.record.add("wall_s", call.wall_s)
        return call

    def setup_probe(self) -> float:
        probe = invoke(SETUP_ARGV, self.remaining())
        if probe.status != 0:
            raise BenchmarkError(f"importing nelsonlab.cli failed:\n{probe.stderr}")
        return probe.wall_s


def measure(run: Run, seconds: float, rng: random.Random) -> dict:
    """The end-to-end metrics, with tracing off."""
    run.setup_probe()  # untimed: byte-compiles the sources and warms the file cache
    setups: list[float] = []
    calls: list[Invocation] = []
    schedule = ["setup"] * SETUP_PROBES + ["workload"]
    rng.shuffle(schedule)
    for item in schedule:
        if item == "setup":
            setups.append(run.setup_probe())
        else:
            calls.append(run.invocation())
    while time.perf_counter() - run.t0 < seconds and run.remaining() > 2 * calls[-1].wall_s:
        calls.append(run.invocation())
    return {
        "wall_s": (statistics.median(c.wall_s for c in calls), "s"),
        "cpu_s": (statistics.median(c.cpu_s for c in calls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(c.rss_mb for c in calls), "MB"),
    }


def trace(run: Run, src_lines: int) -> dict:
    """The per-layer metrics, from one traced invocation."""
    walls = run.record.data.get("wall_s") or [run.invocation().wall_s]
    traced = invoke([sys.executable, str(ROOT / "perfbench" / "tracer.py"), *run.argv], run.remaining())
    if traced.status != 0:
        raise BenchmarkError(f"traced run crashed:\n{traced.stderr}")
    payload = json.loads(traced.stdout)
    stats = payload["stats"]
    metrics = layer_metrics(stats)
    counts = {name: metrics[name][0] for name in DETERMINISTIC}
    if run.judge(payload["status"], payload["stdout"], counts):
        # A run that worked but left a span empty has lost sight of a layer.
        silent = silent_spans(stats, run.workload.spans)
        if run.workload.counts_fft and not stats["ffts"].get("spectral.matvec"):
            silent.append("numpy.fft inside spectral.matvec")
        if silent:
            raise BenchmarkError(
                f"spans recorded no calls or no self time on {run.workload.name}: "
                f"{', '.join(silent)}; a traced function was renamed or bypassed"
            )
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - statistics.median(walls), "s")
    metrics["failed_frac"] = (len(run.failures) / run.attempted, "fraction")
    metrics["src.lines"] = (src_lines, "count")
    return metrics


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _mem_available_mb() -> float | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def machine_facts(src_lines: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "cache": _cache_sizes(),
        "mem_available_mb": _mem_available_mb(),
        "src_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through invoke(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "nelsonlab" / "cli.py").is_file():
        print(f"perfbench: no nelsonlab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    STATE.mkdir(parents=True, exist_ok=True)
    src_sha, src_lines = source_facts()
    run = Run(WORKLOADS[args.workload], args.seed, src_sha)
    try:
        if args.trace:
            metrics = trace(run, src_lines)
        else:
            metrics = measure(run, args.seconds, random.Random(args.seed))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"machine": machine_facts(src_lines), "argv": run.argv}))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

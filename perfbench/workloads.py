"""The benchmark workloads: the CLI argv each one runs, the oracle that
checks its output, and the trace spans that must fire on it.

Each workload is one ``python -m nelsonlab`` invocation.  Three are pinned,
because their oracles are pinned values; ``scan-coarse`` draws the start of
its coupling grid from the seed.  ``BENCHMARK.json`` lists all but
``scan-coarse``, whose wall time spread too widely from run to run on a
shared host (see README.md); it still runs by hand.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDENS = Path("tests") / "data" / "goldens.json"

# The C06 reproduction tolerance of tests/test_acceptance.py.
GOLDEN_REL, GOLDEN_ABS = 1e-8, 1e-12
SOLVE_FINE_ENERGY = -0.04548145130662061
SOLVE_FINE_REL = 1e-8
EFFMASS_REL = 1e-3

SCAN_START = (0.05, 0.10)
SCAN_STOP = 0.5
SCAN_STEPS = 10

# Spans every traced run records, whatever the workload.
_COMMON_SPANS = (
    "cli.main",
    "spectral.assemble",
    "spectral.matvec",
    "spectral.lanczos",
    "fockspace.basis",
    "fockspace.ladder_ops",
)
_SUITE_SPANS = _COMMON_SPANS + (
    "verify.run_suite",
    "spectral.apply_D",
    "spectral.pull_through",
    "spectral.telescoping",
    "particle.atomic_ground",
    "observables",
)


class OracleError(Exception):
    """The CLI output does not hold what the workload's oracle requires."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]  # seed -> CLI arguments after ``nelsonlab``
    check: Callable[[str, list[str], Path], None]  # (stdout, argv, root); raises OracleError
    spans: tuple[str, ...]  # spans that must fire with nonzero self time
    counts_fft: bool  # the coupled matvec runs FFTs on this workload


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleError(msg)


def _close(value: float, ref: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= max(rel * abs(ref), abs_)


def _goldens(root: Path) -> dict[str, float]:
    return json.loads((root / GOLDENS).read_text())


def _json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise OracleError(f"output is not JSON: {exc}") from None


def _check_verify(stdout: str, argv: list[str], root: Path) -> None:
    payload = _json(stdout)
    _require(payload.get("passed") is True, "suite did not pass")
    slacks = {r["id"]: r["slack"] for r in payload["reports"]}
    for cid, pinned in _goldens(root).items():
        got = slacks.get(cid)
        _require(got is not None, f"slack {cid} missing")
        _require(
            _close(got, pinned, GOLDEN_REL, GOLDEN_ABS),
            f"slack {cid} = {got!r}, golden {pinned!r}",
        )


def _scan_argv(seed: int) -> list[str]:
    start = random.Random(seed).uniform(*SCAN_START)
    return [
        "scan", "--axis", "e", "--from", f"{start:.6f}", "--to", str(SCAN_STOP),
        "--steps", str(SCAN_STEPS), "--Z", "1", "--grid-n", "8",
        "--modes-radial", "2", "--nmax", "1",
    ]


def _check_scan(stdout: str, argv: list[str], root: Path) -> None:
    start = float(argv[argv.index("--from") + 1])
    stop = float(argv[argv.index("--to") + 1])
    steps = int(argv[argv.index("--steps") + 1])
    rows = list(csv.DictReader(line for line in io.StringIO(stdout) if not line.startswith("#")))
    _require(len(rows) == steps, f"{len(rows)} rows, expected {steps}")
    checked = _goldens(root)  # the 16 checks with a slack at the reference point
    for i, row in enumerate(rows):
        expected = start + i * (stop - start) / (steps - 1)
        _require(_close(float(row["e"]), expected, 1e-12), f"row {i} at e={row['e']}")
        _require(row["passed"] == "1", f"row {i} (e={row['e']}) did not pass")
        for cid in checked:
            cell = row.get(f"slack.{cid}")
            _require(bool(cell) and math.isfinite(float(cell)), f"row {i}: slack.{cid} missing")


def _check_solve(stdout: str, argv: list[str], root: Path) -> None:
    energy = _json(stdout)["report"]["energy"]
    _require(
        _close(energy, SOLVE_FINE_ENERGY, SOLVE_FINE_REL),
        f"energy {energy!r}, pinned {SOLVE_FINE_ENERGY!r}",
    )


def _check_effmass(stdout: str, argv: list[str], root: Path) -> None:
    rows = {r["name"]: r["value"] for r in _json(stdout)["rows"]}
    numeric, mode_sum = rows["inertia.numeric"], rows["inertia.mode_sum"]
    _require(
        _close(numeric, mode_sum, EFFMASS_REL),
        f"inertia.numeric {numeric!r} vs mode_sum {mode_sum!r}",
    )


def _pinned(*args: str) -> Callable[[int], list[str]]:
    return lambda seed: list(args)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-reference",
            _pinned("verify", "--e", "0.3", "--Z", "1", "--grid-n", "16",
                    "--modes-radial", "4", "--nmax", "2"),
            _check_verify,
            _SUITE_SPANS,
            True,
        ),
        Workload("scan-coarse", _scan_argv, _check_scan, _SUITE_SPANS, True),
        Workload(
            "solve-fine",
            _pinned("solve", "--e", "0.3", "--Z", "40", "--grid-n", "32",
                    "--box-L", "10", "--modes-radial", "1", "--nmax", "1"),
            _check_solve,
            _COMMON_SPANS + ("particle.atomic_ground", "observables"),
            True,
        ),
        Workload(
            "effmass-fiber",
            _pinned("effmass", "--e", "0.1", "--Z", "1", "--kappa", "0.3",
                    "--lambda", "2.0", "--modes-radial", "4",
                    "--modes-angular", "6", "--nmax", "4"),
            _check_effmass,
            _COMMON_SPANS + ("spectral.effmass",),
            False,
        ),
    )
}

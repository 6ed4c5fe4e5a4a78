"""Command-line surface: constant tables, integral tables, single solves,
the verification suite, parameter scans, effective mass, and the binding
expansion.

Exit status: 0 when no check failed (skips allowed), 1 when at least one
check failed, 2 on usage or configuration errors (a solve that misses its
tolerance among them), 3 on internal errors, including a verification
check that raised (a missed tolerance inside the suite too).

Output is deterministic: the same argv produces byte-identical bytes (no
timestamps).  Every command writes through ``_emit``: JSON is the config
echo and the command's payload; CSV is the echo as comment lines and one
table whose numeric cells carry 17 significant digits, next to a rounded
display column where the table has one.
"""

import os
import sys

# Reproducibility: identical invocations must emit identical bytes no matter
# how many BLAS/OpenMP threads the host would otherwise use, so the numeric
# backends are pinned to one thread here, before numpy first loads.  The
# package __init__ imports submodules lazily to keep this effective.
if "numpy" not in sys.modules:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[_var] = "1"

import argparse
import ctypes
import functools
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import closedform as cf
from . import quadrature as qd
from .fockspace import FockBasis, build_modes
from .model import (
    ConvergenceError,
    DomainError,
    ParameterError,
    frame_for,
    make_params,
)
from .particle import radial_resolvent_l1
from .spectral import effective_mass_numeric, effective_mass_riemann
from .verify import Resolution, ground_report, run_suite, suite_passed


class UsageError(Exception):
    """Bad flags or config-file contents; maps to exit status 2."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# canonical key (flag name and config-file key) -> RunConfig field, type
_CONFIG_KEYS = {
    "e": ("e", float),
    "Z": ("Z", float),
    "m": ("m", float),
    "kappa": ("kappa", float),
    "lambda": ("lam", float),
    "tau": ("tau", float),
    "lambda1": ("lambda1", float),
    "grid-n": ("n", int),
    "box-L": ("L", float),
    "modes-radial": ("n_radial", int),
    "modes-angular": ("n_angular", int),
    "nmax": ("n_max", int),
    "tol": ("tol", float),
    "maxit": ("maxit", int),
    "format": ("format", str),
    "out": ("out", str),
    "select": ("select", str),
    "axis": ("axis", str),
    "from": ("start", float),
    "to": ("stop", float),
    "steps": ("steps", int),
}
_SCAN_AXES = ("e", "Z", "kappa", "lambda")
_CHOICES = {"format": ("json", "csv"), "axis": _SCAN_AXES}

# The keys each command reads, with format and out added to each.  A
# subparser registers only its command's keys, a config file sets only them,
# and the header echoes only them.  lambda1 is read only at tau != 0, and
# scan's e only off the e axis.  A frame (tau, lambda1) enters the closed-form
# tables only: the truncated Hamiltonian is covariant under it.
_SUITE_KEYS = ("e", "Z", "kappa", "lambda", "grid-n", "box-L", "modes-radial",
               "modes-angular", "nmax", "tol", "maxit", "select")
_COMMAND_KEYS = {name: keys + ("format", "out") for name, keys in {
    "constants": ("e", "Z", "tau", "lambda1"),
    "integrals": ("e", "Z", "m", "kappa", "lambda", "tau", "lambda1"),
    "solve": ("e", "Z", "kappa", "lambda", "grid-n", "box-L", "modes-radial",
              "modes-angular", "nmax", "tol", "maxit"),
    "verify": _SUITE_KEYS,
    "scan": _SUITE_KEYS + ("axis", "from", "to", "steps"),
    # effmass never reads Z: the fiber has no source.  --Z stays accepted
    # because the benchmark's effmass-fiber argv passes --Z 1.
    "effmass": ("e", "Z", "kappa", "lambda", "modes-radial", "modes-angular", "nmax"),
    "binding": ("e", "Z"),
}.items()}


@dataclass(frozen=True)
class RunConfig:
    """Effective parameters of one invocation (defaults + config file + flags)."""

    command: str
    e: float = 0.0
    Z: float = 1.0
    m: float = 1.0
    kappa: float = 0.1
    lam: float = 10.0
    tau: float = 0.0
    lambda1: float = 1.0
    n: int = 16
    L: float = 10.0
    n_radial: int = 4
    n_angular: int = 1
    n_max: int = 2
    tol: float = 1e-9
    maxit: int = 400
    format: str = "json"
    out: str | None = None
    select: str | None = None
    axis: str | None = None
    start: float | None = None
    stop: float | None = None
    steps: int = 10

    @property
    def selection(self) -> list[str] | None:
        if self.select is None:
            return None
        parts = [p.strip() for p in self.select.split(",") if p.strip()]
        if not parts:
            raise UsageError("empty --select filter")
        return parts

    def params(self):
        """The model parameters of this run."""
        return make_params(self.e, self.Z, m=self.m, kappa=self.kappa, lam=self.lam)

    def frame(self):
        """The scale frame of this run, the one place a command builds it."""
        return frame_for(self.params(), self.tau, self.lambda1)

    def echo(self) -> dict:
        """The keys this command reads, for output headers: canonical keys, no Nones."""
        out = {"command": self.command}
        for key, (field, _) in _CONFIG_KEYS.items():
            value = getattr(self, field)
            if value is not None and key in _COMMAND_KEYS[self.command]:
                out[key] = value
        return out


def _config_tokens(path: str, command: str) -> list[str]:
    """The file's lines for the keys ``command`` reads, as ``--key=value``."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        if key in ("command", "config"):
            raise UsageError(f"{path}:{lineno}: {key!r} cannot be set from a config file")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in _COMMAND_KEYS[command]:  # a shared file may set other commands' keys
            tokens.append(f"--{key}={value}")
    return tokens


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nelsonlab",
        description="constants, integrals, solves, and inequality checks "
        "for the cutoff atom-field model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "constants": "closed-form constant table and the overlap charge window",
        "integrals": "shell-integral norms against their closed-form ceilings",
        "solve": "ground-state solve and observable report",
        "verify": "inequality and identity suite on a computed ground state",
        "scan": "verification suite swept along one parameter axis",
        "effmass": "effective mass: numeric second order vs mode-sum prediction",
        "binding": "second-order binding shift: ratio-one, resolvent, envelope",
    }
    for name, help_text in specs.items():
        # no prefix matching: on a command without --to, "--to" must not mean --tol
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for key, (field, cast) in _CONFIG_KEYS.items():
            if key in _COMMAND_KEYS[name]:
                sp.add_argument(f"--{key}", dest=field, type=cast, choices=_CHOICES.get(key))
        sp.add_argument("--config")
    sub.choices["scan"].set_defaults(format="csv")  # a scan is a plot-ready sweep
    return parser


def build_config(argv: list[str]) -> RunConfig:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        # file lines parse as flags ahead of argv's, so argv's win; argv[0]
        # is the command, since the top-level parser has no flags of its own
        ns = parser.parse_args([ns.command, *_config_tokens(ns.config, ns.command), *argv[1:]])
    cfg = RunConfig(**{k: v for k, v in vars(ns).items() if v is not None and k != "config"})
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.command == "scan":
        if cfg.axis is None or cfg.start is None or cfg.stop is None:
            raise UsageError("scan needs --axis, --from, and --to")
        if cfg.steps < 1:
            raise UsageError(f"steps must be >= 1, got {cfg.steps}")
    if cfg.maxit < 1:
        raise UsageError(f"maxit must be >= 1, got {cfg.maxit}")
    if not 0.0 < cfg.tol < math.inf:
        raise UsageError(f"tol must be finite and positive, got {cfg.tol}")
    cfg.selection  # validated on access


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _f17(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return f"{v:.17g}"


def _display(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, str):
        return v
    return f"{v:.6g}"


def _jsonable(v):
    """Floats survive as JSON numbers; non-finite values become strings."""
    if isinstance(v, float) and not math.isfinite(v):
        return "inf" if v == math.inf else "-inf" if v == -math.inf else "nan"
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return _jsonable(float(v))
    return v


def _to_json(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _emit(cfg: RunConfig, payload: dict, columns: tuple[str, ...], rows: list[dict]) -> str:
    """The one writer of every command's output.  JSON is the config echo
    and ``payload``; CSV is the echo as ``# key=value`` lines, then ``rows``
    under ``columns``, numbers at 17 significant digits (rounded in a
    display column)."""
    if cfg.format == "json":
        return _to_json({"config": cfg.echo(), **payload})
    lines = [f"# {k}={v}" for k, v in cfg.echo().items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_display(row.get(col)) if col == "display" else _f17(row.get(col))
                              for col in columns))
    return "\n".join(lines) + "\n"


_NAMED = ("name", "value", "display")  # the columns of a named-value table


def _row(rows: list, name: str, fn, *extra: str) -> None:
    """Evaluate one table entry; out-of-domain entries stay in the table.
    ``fn`` returns the value, or with ``extra`` columns the value and their
    cells.  Python floats raise an ArithmeticError where numpy returns inf."""
    try:
        value, *cells = fn() if extra else (fn(),)
    except (DomainError, ParameterError, ArithmeticError) as exc:
        why = exc if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
        rows.append({"name": name, "value": None, "display": f"n/a ({why})",
                     **dict.fromkeys(extra)})
        return
    if isinstance(value, (float, int, np.floating)):
        value = float(value)
    rows.append({"name": name, "value": value, "display": _display(value),
                 **dict(zip(extra, cells))})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _chain_tau(cfg: RunConfig) -> float:
    # the overlap chain needs tau in (3/4, 1]; fall back to its reference
    return cfg.tau if 0.75 < cfg.tau <= 1.0 else cf.CHAIN_TAU


def cmd_constants(cfg: RunConfig) -> tuple[str, int]:
    params = cfg.params()
    e, Z = params.e, params.Z
    rows: list[dict] = []
    _row(rows, "alpha", lambda: e * e / (4.0 * math.pi))
    _row(rows, "alphaZ", lambda: params.alphaZ)
    _row(rows, "E_at", lambda: cf.atomic_level(e, Z))
    _row(rows, "C_UV", lambda: cf.c_uv(e, Z))
    # built inside each row: a frame the charge cannot carry fails its rows alone
    _row(rows, "C_star", lambda: cf.c_star_c1(e, Z, cfg.frame())[0])
    _row(rows, "C_1", lambda: cf.c_star_c1(e, Z, cfg.frame())[1])
    _row(rows, "C_D", lambda: cf.c_d(e, Z))
    _row(rows, "coupling_log", lambda: cf.coupling_log(e, Z))
    _row(rows, "photon_K", lambda: cf.photon_k(e, Z))
    _row(rows, "photons.hard", lambda: cf.hard_photon_bound(e, Z))
    _row(rows, "photons.soft", lambda: cf.soft_photon_bound(e, Z))
    _row(rows, "photons.total", lambda: cf.total_photon_bound(e, Z))

    euv = functools.cache(lambda: cf.e_uv(Z))
    _row(rows, "e_uv", euv)
    _row(rows, "e_uv_residual", lambda: abs(cf.c_uv(euv(), Z) - 1.0))

    tau_c = _chain_tau(cfg)
    _row(rows, "chain.tau", lambda: tau_c)  # the tau of the chain and window rows
    chain = functools.cache(lambda: cf.overlap_constants(e, Z, tau_c))
    for key in ("L", "M", "c_tau", "f_ir", "g_ir", "photon_K", "photon_K_low", "q_bound",
                "theta1", "theta2"):
        _row(rows, f"chain.{key}", lambda k=key: chain()[k])

    window = functools.cache(lambda: cf.coupling_window(Z, tau_c))
    for key in ("e_uv", "a_ir1", "a_ir2", "e_ir", "g_ir_at_e_ir"):
        _row(rows, f"window.{key}", lambda k=key: getattr(window(), k))
    return _emit(cfg, {"rows": rows}, _NAMED, rows), 0


def _with_margin(value: float, ceiling: float | None) -> tuple:
    """The cells of an integrals row: value, ceiling and margin (None without a ceiling)."""
    return value, ceiling, None if ceiling is None else ceiling - value


def cmd_integrals(cfg: RunConfig) -> tuple[str, int]:
    params, frame = cfg.params(), cfg.frame()
    # each norm its own row: one that leaves the float range blanks only itself and xi.self
    norm = functools.cache(lambda name: qd.f_tau_norm(params, frame, name))
    names = [f.name for f in fields(cf.NormBundle)]
    bundle = functools.cache(lambda: cf.NormBundle(*map(norm, names)))
    ceilings = (cf.ir_l2_ceiling, cf.ir_inv_sqrt_ceiling,  # in the field order of NormBundle
                lambda: cf.uv_inv_sqrt_ceiling(frame), lambda: cf.uv_inv_quarter_ceiling(frame))
    rows: list[dict] = []
    for name, value, ceiling in (
        *((f"norm.{n}", lambda n=n: norm(n), c) for n, c in zip(names, ceilings)),
        ("xi.self", lambda: cf.xi_bound(bundle(), bundle()), lambda: cf.xi_self_ceiling(frame)),
        ("cin.100", lambda: qd.cin(100.0), lambda: qd.EULER_GAMMA + math.log(15.0) + 91.0 / 30.0),
        ("effective_mass.coefficient", qd.effective_mass_coefficient, None),
        ("effective_mass.exact", lambda: qd.EFFECTIVE_MASS_COEFFICIENT_EXACT, None),
        ("self_energy.quadrature", lambda: qd.energy_renormalization(params), None),
        ("self_energy.analytic", lambda: qd.energy_renormalization_analytic(params), None),
    ):
        # the value and its ceiling are one entry: either failing blanks the row
        _row(rows, name, lambda v=value, c=ceiling: _with_margin(v(), c() if c else None),
             "ceiling", "margin")
    columns = ("name", "value", "ceiling", "margin", "display")
    return _emit(cfg, {"rows": rows}, columns, rows), 0


def _resolution(cfg: RunConfig) -> Resolution:
    return Resolution(
        n=cfg.n,
        L=cfg.L,
        n_radial=cfg.n_radial,
        n_angular=cfg.n_angular,
        n_max=cfg.n_max,
        tol=cfg.tol,
        maxit=cfg.maxit,
    )


def cmd_solve(cfg: RunConfig) -> tuple[str, int]:
    report = ground_report(cfg.params(), _resolution(cfg)).to_dict()
    rows = []  # one key per value, the moments as moments.<name>
    for key, value in report.items():
        if isinstance(value, dict):
            rows += [{"key": f"{key}.{k}", "value": v} for k, v in value.items()]
        else:
            rows.append({"key": key, "value": value})
    return _emit(cfg, {"report": report}, ("key", "value"), rows), 0


def _suite_status(suites) -> int:
    """3 when a check raised, 1 when a check failed, 0 otherwise."""
    if any(r.errored for reports in suites for r in reports):
        return 3
    return 0 if all(suite_passed(reports) for reports in suites) else 1


def cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    reports = run_suite(cfg.params(), _resolution(cfg), selection=cfg.selection)
    payload = {"reports": [r.to_dict() for r in reports], "passed": suite_passed(reports)}
    rows = [{"id": r.id, "status": r.status.split("(")[0], "lhs": r.lhs, "rhs": r.rhs,
             "slack": r.slack} for r in reports]
    columns = ("id", "status", "lhs", "rhs", "slack")
    return _emit(cfg, payload, columns, rows), _suite_status([reports])


def cmd_scan(cfg: RunConfig) -> tuple[str, int]:
    values = np.linspace(cfg.start, cfg.stop, cfg.steps)
    field = _CONFIG_KEYS[cfg.axis][0]
    res = _resolution(cfg)
    table: list[tuple[float, list]] = []
    for v in values:
        point = replace(cfg, **{field: float(v)})
        table.append((float(v), run_suite(point.params(), res, selection=cfg.selection)))
    status = _suite_status([reports for _, reports in table])
    points = [{"value": v, "passed": suite_passed(reports),
               "slack": {r.id: r.slack for r in reports}} for v, reports in table]
    columns = (cfg.axis, *(f"slack.{r.id}" for r in table[0][1]), "passed")
    rows = [{cfg.axis: p["value"], **{f"slack.{i}": s for i, s in p["slack"].items()},
             "passed": "1" if p["passed"] else "0"} for p in points]
    return _emit(cfg, {"axis": cfg.axis, "rows": points}, columns, rows), status


def cmd_effmass(cfg: RunConfig) -> tuple[str, int]:
    params = cfg.params()
    modes = build_modes(cfg.kappa, cfg.lam, cfg.n_radial, cfg.n_angular)
    basis = FockBasis(modes.count, cfg.n_max)
    numeric = effective_mass_numeric(params, modes, basis)
    coeff = effective_mass_riemann(modes)
    rows: list[dict] = []
    _row(rows, "m_eff_over_m.numeric", lambda: numeric)
    _row(rows, "inertia.numeric", lambda: 1.0 - 1.0 / numeric)
    _row(rows, "inertia.mode_sum", lambda: params.e**2 * coeff)
    _row(
        rows,
        "inertia.continuum",
        lambda: params.e**2 * qd.EFFECTIVE_MASS_COEFFICIENT_EXACT,
    )
    _row(rows, "coefficient.mode_sum", lambda: coeff)
    _row(rows, "coefficient.exact", lambda: qd.EFFECTIVE_MASS_COEFFICIENT_EXACT)
    return _emit(cfg, {"rows": rows}, _NAMED, rows), 0


def cmd_binding(cfg: RunConfig) -> tuple[str, int]:
    params = cfg.params()
    e, Z, aZ = params.e, params.Z, params.alphaZ
    rows: list[dict] = []
    _row(rows, "shift.ratio_one", lambda: qd.binding_second_order(e, Z))
    _row(rows, "shift.reference", lambda: cf.atomic_level(e, Z) * e * e / (6.0 * math.pi**2))
    _row(rows, "shift.resolvent",
         lambda: qd.binding_second_order(e, Z, resolvent=lambda s: radial_resolvent_l1(aZ, s)))
    _row(rows, "shift.envelope", lambda: qd.binding_envelope(e, Z))
    return _emit(cfg, {"rows": rows}, _NAMED, rows), 0


_DISPATCH = {
    "constants": cmd_constants,
    "integrals": cmd_integrals,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "effmass": cmd_effmass,
    "binding": cmd_binding,
}


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters (malloc.h)
_MMAP_THRESHOLD = 32 * 2**20  # glibc's ceiling for its dynamic mmap threshold on 64-bit


def _retain_heap() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at
    64 MiB, where its dynamic rule leaves them on 64-bit after freeing a
    block of 32 MiB (DEFAULT_MMAP_THRESHOLD_MAX).

    Blocks below the ceiling come from the heap either way once one as
    large has been freed, but the dynamic trim threshold, twice the largest
    freed mmapped block, sat at about 2 MiB with the solver's 1 MiB vectors
    at the reference sizes, so every free at the top of the heap went back
    to the kernel and the next allocation faulted its pages in afresh.
    Called from ``main``, not at import; a no-op where glibc is absent.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def main(argv: list[str] | None = None) -> int:
    _retain_heap()
    try:
        cfg = build_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        text, status = _DISPATCH[cfg.command](cfg)
    except (UsageError, ParameterError, DomainError, ConvergenceError) as exc:
        # a solver that misses its tolerance is a setting it cannot honour;
        # inside verify and scan it stays a check error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the boundary turns bugs into status 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if cfg.out is None:
        sys.stdout.write(text)
        return status
    try:
        Path(cfg.out).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {cfg.out}: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())

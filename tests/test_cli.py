"""Command-line plumbing: config merging, exit codes, output formats."""

import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import nelsonlab.cli as cli
import nelsonlab.closedform as cf
import nelsonlab.quadrature as qd
import nelsonlab.verify as verify
from nelsonlab.cli import RunConfig, UsageError, build_config, main
from nelsonlab.model import frame_for, make_params

ROOT = Path(__file__).resolve().parent.parent
TINY_MODES = ["--modes-radial", "2", "--nmax", "1"]
TINY = ["--grid-n", "8"] + TINY_MODES


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# configuration


def test_defaults_and_flag_override():
    cfg = build_config(["verify", "--e", "0.3", "--tol", "1e-8"])
    assert cfg.command == "verify"
    assert cfg.e == 0.3 and cfg.tol == 1e-8
    assert cfg.Z == 1.0 and cfg.n == 16 and cfg.format == "json"


def test_config_file_overlay(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment line\n"
        "e = 0.2   # trailing comment\n"
        "Z=2\n"
        "grid-n=8\n"
        "lambda=4.0\n"
        "select=photons,energy\n"
        "\n"
    )
    cfg = build_config(["verify", "--config", str(path), "--Z", "1"])
    assert cfg.e == 0.2
    assert cfg.Z == 1.0  # flag beats file
    assert cfg.n == 8 and cfg.lam == 4.0
    assert cfg.selection == ["photons", "energy"]


def test_every_config_key_is_a_flag(tmp_path):
    """The parser is built from the key tables: on each command, each key it
    reads sets the same field as a flag and as a file line, and a file line
    for a key it does not read is skipped and stays out of the header."""
    scan = {"axis": "e", "from": "0", "to": "1"}
    samples = {float: "0.25", int: "3", "format": "csv", "out": "o.txt",
               "select": "energy", "axis": "Z"}
    path = tmp_path / "one.cfg"
    for command in cli._COMMAND_KEYS:
        for key, (field, cast) in cli._CONFIG_KEYS.items():
            base = [command]
            if command == "scan":
                base += [f"--{k}={v}" for k, v in scan.items() if k != key]
            raw = samples.get(key) or samples[cast]
            path.write_text(f"{key}={raw}\n")
            by_file = build_config(base + ["--config", str(path)])
            if key in cli._COMMAND_KEYS[command]:
                by_flag = build_config(base + [f"--{key}", raw])
                assert getattr(by_flag, field) == getattr(by_file, field) == cast(raw), key
                assert by_file.echo()[key] == cast(raw), (command, key)
            else:
                assert by_file == build_config(base), (command, key)
                assert key not in by_file.echo(), (command, key)


def test_config_file_rejects_unknown_and_malformed(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus=1\n")
    with pytest.raises(UsageError, match="unknown config key"):
        build_config(["constants", "--config", str(bad)])
    bad.write_text("just a line\n")
    with pytest.raises(UsageError, match="key=value"):
        build_config(["constants", "--config", str(bad)])
    bad.write_text("command=verify\n")
    with pytest.raises(UsageError, match="cannot be set"):
        build_config(["constants", "--config", str(bad)])
    # file values parse as flags: a bad value is an argparse usage error
    for line, command in (("tol=abc", "solve"), ("format=xml", "solve"), ("axis=m", "scan")):
        bad.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            build_config([command, "--config", str(bad)])
        assert exc.value.code == 2, line


def test_scan_requires_axis_and_defaults_to_csv():
    with pytest.raises(UsageError, match="--axis"):
        build_config(["scan", "--Z", "1"])
    cfg = build_config(["scan", "--axis", "e", "--from", "0.1", "--to", "0.2"])
    assert cfg.format == "csv"
    cfg = build_config(
        ["scan", "--axis", "e", "--from", "0.1", "--to", "0.2", "--format", "json"]
    )
    assert cfg.format == "json"


def test_suite_frame_is_pinned(capsys):
    """The solver runs in defining units: solve, verify and scan take no
    --tau or --lambda1."""
    for command in (["solve"], ["verify"], ["scan", "--axis", "e", "--from", "0", "--to", "1"]):
        for flag in ("--tau", "--lambda1"):
            with pytest.raises(SystemExit) as exc:
                build_config(command + [flag, "0.9"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_echo_uses_canonical_keys():
    echo = build_config(["solve", "--e", "0.1"]).echo()
    assert echo["command"] == "solve"
    assert echo["grid-n"] == 16 and echo["box-L"] == 10.0 and echo["lambda"] == 10.0
    assert "out" not in echo  # None values stay out of the header
    assert "m" not in echo and "steps" not in echo  # nor keys solve does not read


# The sweep: every key a command takes, perturbed from a tiny CSV base run,
# must change the exit status or stdout below its # header lines.  A key read
# only under a condition is perturbed under it.
_SWEEP_BASE = {
    "constants": ["--e", "0.3"],
    "integrals": ["--e", "0.3"],
    "solve": ["--e", "0.3"] + TINY,
    "verify": ["--e", "0.3", "--select", "energy"] + TINY,
    "scan": ["--axis", "e", "--from", "0.1", "--to", "0.2", "--steps", "2",
             "--select", "energy"] + TINY,
    "effmass": ["--e", "0.1", "--modes-angular", "6"] + TINY_MODES,
    "binding": ["--e", "0.3"],
}
_SWEEP_VALUES = {
    "e": "0.25", "Z": "2", "m": "2", "kappa": "0.2", "lambda": "5", "tau": "0.8",
    "lambda1": "2", "grid-n": "10", "box-L": "8", "modes-radial": "3", "modes-angular": "2",
    "nmax": "2", "tol": "1e-4", "maxit": "3", "select": "energy.upper", "format": "json",
    "axis": "Z", "from": "0.15", "to": "0.3", "steps": "3",
}
_SWEEP_CONDITION = {
    # lambda1 enters only the frame at tau != 0
    **{(command, "lambda1"): ["--tau", "0.8"] for command in ("constants", "integrals")},
    ("scan", "e"): ["--axis", "Z", "--from", "1", "--to", "2"],  # the e axis overrides e
}
_SWEEP_VALUE = {("effmass", "modes-angular"): "4"}
# effmass never reads Z; it keeps --Z because the benchmark's effmass-fiber
# argv passes --Z 1.
_SWEEP_UNREAD = {("effmass", "Z")}


def _sweep_run(capsys, argv):
    code = main(argv)
    return code, [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]


def test_every_accepted_flag_is_read_and_every_other_is_refused(tmp_path, capsys):
    values = dict(_SWEEP_VALUES, out=str(tmp_path / "out.txt"))
    unperturbed = {}
    for command, base in _SWEEP_BASE.items():
        keys = cli._COMMAND_KEYS[command]
        for key in keys:
            argv = [command, "--format", "csv"] + base + _SWEEP_CONDITION.get((command, key), [])
            value = _SWEEP_VALUE.get((command, key), values[key])
            if tuple(argv) not in unperturbed:
                unperturbed[tuple(argv)] = _sweep_run(capsys, argv)
            same = unperturbed[tuple(argv)] == _sweep_run(capsys, argv + [f"--{key}", value])
            assert same == ((command, key) in _SWEEP_UNREAD), (command, key)
        for key in cli._CONFIG_KEYS.keys() - keys:
            with pytest.raises(SystemExit) as exc:
                main([command, f"--{key}", values[key]])
            assert exc.value.code == 2, (command, key)
    capsys.readouterr()


def test_effmass_refuses_tol(monkeypatch, capsys):
    """The fiber's conjugate gradients stop at a fixed 1e-10: the inertia
    converges quadratically in their residual, so no tol moved a printed
    digit, and effmass refuses the flag before any solve."""
    monkeypatch.setattr(cli, "effective_mass_numeric", lambda *a: pytest.fail("solved"))
    for tol in ("1e-4", "1e-12", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["effmass", "--e", "0.1", "--tol", tol] + TINY_MODES)
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_benchmark_and_readme_argv_parse(monkeypatch):
    """Every argv the benchmark runs (perfbench/ is read, never changed) and
    every README example is a valid command line."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    argvs = [w.argv(seed) for w in workloads.WORKLOADS.values() for seed in (1, 2)]
    readme = (ROOT / "README.md").read_text().replace("\\\n", " ")
    examples = [shlex.split(ln)[1:] for ln in readme.splitlines() if ln.startswith("nelsonlab ")]
    assert len(argvs) == 8 and len(examples) >= 5
    for argv in argvs + examples:
        build_config(argv)


def test_selection_property():
    assert RunConfig(command="verify").selection is None
    assert RunConfig(command="verify", select="a, b,").selection == ["a", "b"]
    with pytest.raises(UsageError):
        RunConfig(command="verify", select=" , ").selection


# ---------------------------------------------------------------------------
# exit codes


def test_usage_exit_codes(capsys):
    assert main(["constants", "--Z", "-1"]) == 2  # module precondition
    assert main(["scan", "--Z", "1"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["dance"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_mass_is_refused_where_it_is_ignored(capsys):
    """The Hamiltonian is 1/2 p^2: only the integrals read m, so every other
    command has no --m and refuses it before any solve."""
    scan = ["scan", "--axis", "e", "--from", "0.1", "--to", "0.2", "--steps", "2"]
    for command in (["constants"], ["solve"], ["verify"], scan, ["effmass"], ["binding"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--m", "1"])
        assert exc.value.code == 2, command
        assert "unrecognized arguments: --m" in capsys.readouterr().err, command
    code, payload = run_json(capsys, ["integrals", "--e", "0.3", "--m", "2"])
    assert code == 0 and payload["config"]["m"] == 2.0


@pytest.mark.parametrize("command", [
    ["verify"], ["scan", "--axis", "e", "--from", "0.1", "--to", "0.2", "--steps", "2"],
])
def test_select_entry_matching_no_check_exits_two(monkeypatch, capsys, command):
    """A misspelt entry is a usage error named on stderr, raised before any
    model is assembled, also next to an entry that does match."""
    calls = []
    monkeypatch.setattr(verify, "assemble", lambda *a, **k: calls.append(a))
    for select in ("energy.uper", "energy.upper,energy.uper"):
        assert main(command + ["--e", "0.2", "--select", select] + TINY) == 2, select
        out, err = capsys.readouterr()
        assert out == "" and "'energy.uper'" in err, err
    assert calls == []


def test_verify_json_is_strict_when_a_ceiling_is_infinite(capsys):
    """At e = 1e-150 the quadratic moment ceiling overflows to inf; the JSON
    carries it as the string "inf", as every other command does, so a strict
    parser (no Infinity or NaN literals) reads it."""
    code = main(["verify", "--e", "1e-150", "--grid-n", "8", "--modes-radial", "1",
                 "--nmax", "1", "--select", "moment.x_squared"])
    out = capsys.readouterr().out

    def refuse(literal):
        raise ValueError(f"non-standard JSON literal {literal}")

    payload = json.loads(out, parse_constant=refuse)
    assert code == 0
    (report,) = payload["reports"]
    assert report["rhs"] == "inf" and report["slack"] == "inf"


@pytest.mark.parametrize("flag,value", [("--maxit", "0"), ("--tol", "-1"), ("--tol", "nan")])
def test_bad_solver_settings_exit_two(capsys, flag, value):
    scan = ["scan", "--axis", "e", "--from", "0.0", "--to", "0.1", "--steps", "2"]
    for command in (["solve"] + TINY, ["verify"] + TINY, scan + TINY):
        assert main(command + [flag, value]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:] in err, (command, err)


def test_missed_tolerance_exits_two(capsys):
    """A solver that cannot reach its tolerance within --maxit is a setting
    it cannot honour: solve exits 2 with the solver's message.  Inside the
    suite the same miss is a check error, so verify exits 3."""
    argv = ["--e", "0.3", "--maxit", "3"] + TINY
    assert main(["solve"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: LOBPCG did not reach tol="), err
    code, payload = run_json(capsys, ["verify", "--select", "energy.upper"] + argv)
    assert code == 3
    assert payload["reports"][0]["status"].startswith("error(ConvergenceError: ")


def test_check_failure_exits_one(monkeypatch, capsys):
    row = verify._Check("zz.sentinel", "synthetic", lambda ctx: (2.0, 1.0, {}))
    monkeypatch.setattr(verify, "_CHECKS", (row,))
    code, payload = run_json(capsys, ["verify", "--e", "0.0"] + TINY)
    assert code == 1
    assert payload["passed"] is False


def test_check_error_exits_three(monkeypatch, capsys):
    def boom(ctx):
        raise ValueError("synthetic fault")

    monkeypatch.setattr(verify, "_CHECKS", (verify._Check("zz.sentinel", "synthetic", boom),))
    code, payload = run_json(capsys, ["verify", "--e", "0.0"] + TINY)
    assert code == 3
    assert payload["passed"] is False
    assert payload["reports"][0]["status"] == "error(ValueError: synthetic fault)"
    code = main(["scan", "--axis", "e", "--from", "0.0", "--to", "0.1", "--steps", "2"] + TINY)
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert code == 3
    assert [row.split(",")[-1] for row in rows[1:]] == ["0", "0"]


def test_internal_error_exits_three(monkeypatch, capsys):
    def explode(cfg):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli._DISPATCH, "constants", explode)
    assert main(["constants"]) == 3
    assert "wires crossed" in capsys.readouterr().err


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["constants", "--e", "0.3", "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {target}: "), err


# ---------------------------------------------------------------------------
# command output


def test_constants_table(capsys):
    code, payload = run_json(capsys, ["constants", "--Z", "1", "--e", "0.3"])
    assert code == 0
    rows = {r["name"]: r["value"] for r in payload["rows"]}
    assert rows["e_uv_residual"] < 1e-12
    assert rows["C_star"] == pytest.approx(rows["C_UV"], rel=1e-13)
    assert rows["window.a_ir1"] == pytest.approx(0.02240555228292217, rel=1e-9)
    assert rows["window.empty"] is False
    assert payload["config"]["e"] == 0.3


def test_constants_csv_prints_the_window_flag_as_a_flag(capsys):
    """The CSV value cell of window.empty carries the flag, as the JSON value
    and the display cell do, not the 0 or 1 of a number format."""
    assert main(["constants", "--Z", "1", "--e", "0.3", "--format", "csv"]) == 0
    rows = {cells[0]: cells[1:] for cells in _csv_body(capsys)[1:]}
    assert rows["window.empty"] == ["False", "False"]
    assert float(rows["window.a_ir1"][0]) == pytest.approx(0.02240555228292217, rel=1e-9)


def test_constants_survives_zero_charge(capsys):
    code, payload = run_json(capsys, ["constants", "--Z", "1"])
    assert code == 0
    rows = {r["name"]: r["value"] for r in payload["rows"]}
    assert rows["photon_K"] == "inf"  # non-finite values stay strings in JSON
    assert rows["chain.g_ir"] == 1.0


@pytest.mark.parametrize("tau, chain_tau", [("0.5", 0.9), ("0.8", 0.8)])
def test_constants_records_the_chain_tau(capsys, tau, chain_tau):
    # the overlap chain needs tau in (3/4, 1]; outside it runs at CHAIN_TAU = 0.9
    code, payload = run_json(capsys, ["constants", "--e", "0.3", "--tau", tau])
    assert code == 0
    rows = {r["name"]: r["value"] for r in payload["rows"]}
    assert rows["chain.tau"] == chain_tau


def test_integrals_margins_positive(capsys):
    code, payload = run_json(capsys, ["integrals", "--e", "0.3", "--Z", "1"])
    assert code == 0
    for row in payload["rows"]:
        if row["ceiling"] is not None:
            assert row["margin"] > 0.0, row["name"]
        assert row["value"] is not None, row["name"]


def test_frame_rows_come_from_the_run_frame(capsys):
    """At tau != 0 the ceilings, norms and C_* rows are the library's values
    at frame_for(params, tau, lambda1), the frame RunConfig.frame() builds."""
    argv = ["--e", "0.3", "--tau", "0.9", "--lambda1", "2.5"]
    params = make_params(0.3, 1.0)
    frame = frame_for(params, 0.9, 2.5)
    code, payload = run_json(capsys, ["integrals", *argv])
    assert code == 0
    rows = {r["name"]: r for r in payload["rows"]}
    norms = qd.f_tau_norms(params, frame)
    for name, value, ceiling in (
        ("f_uv_over_sqrt_omega", norms.f_uv_over_sqrt_omega, cf.uv_inv_sqrt_ceiling(frame)),
        ("f_uv_over_quarter_omega", norms.f_uv_over_quarter_omega,
         cf.uv_inv_quarter_ceiling(frame)),
        ("f_ir_l2", norms.f_ir_l2, cf.ir_l2_ceiling()),
        ("f_ir_over_sqrt_omega", norms.f_ir_over_sqrt_omega, cf.ir_inv_sqrt_ceiling()),
    ):
        assert rows[f"norm.{name}"]["value"] == value, name
        assert rows[f"norm.{name}"]["ceiling"] == ceiling, name
    assert rows["xi.self"]["ceiling"] == cf.xi_self_ceiling(frame)
    code, payload = run_json(capsys, ["constants", *argv])
    assert code == 0
    rows = {r["name"]: r["value"] for r in payload["rows"]}
    assert (rows["C_star"], rows["C_1"]) == cf.c_star_c1(0.3, 1.0, frame)


def test_solve_report(capsys):
    code, payload = run_json(
        capsys, ["solve", "--e", "0.2", "--Z", "1", "--box-L", "8.0"] + TINY
    )
    assert code == 0
    report = payload["report"]
    assert report["energy"] < 0.0
    assert report["n_f_total"] == pytest.approx(
        report["n_f_soft"] + report["n_f_hard"], abs=1e-15
    )
    assert 0.0 < report["vacuum_weight"] <= 1.0


def test_solve_prints_the_suite_report(monkeypatch, capsys):
    """solve reaches its ground state through the suite's one pipeline:
    one solve, of the coupled model."""
    calls = []
    solve = verify.lanczos_ground

    def counted(model, **kwargs):
        calls.append(model.variant)
        return solve(model, **kwargs)

    monkeypatch.setattr(verify, "lanczos_ground", counted)
    code, payload = run_json(capsys, ["solve", "--e", "0.3", "--Z", "1"] + TINY)
    assert code == 0 and calls == ["gross"]
    assert payload["report"]["energy"] < 0.0


def test_assembly_guard_exits_two(capsys):
    """A dimension past the assembly guard is a configuration error, raised
    before the operator is built: 64^3 points times 15 Fock states."""
    assert main(["solve", "--e", "0.3", "--grid-n", "64", "--nmax", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dimension 3932160 exceeds the assembly guard 500000\n"


def test_solve_csv_and_out_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        ["solve", "--e", "0.2", "--Z", "1", "--box-L", "8.0", "--format", "csv",
         "--out", str(out)] + TINY
    )
    assert code == 0
    assert capsys.readouterr().out == ""  # --out leaves stdout empty
    lines = out.read_text().strip().split("\n")
    header = [ln for ln in lines if ln.startswith("#")]
    assert any(ln == "# command=solve" for ln in header)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "key,value"
    values = dict(ln.split(",", 1) for ln in body[1:])
    assert float(values["energy"]) < 0.0
    assert "moments.abs_x" in values


def test_verify_json_has_config_and_reports(capsys):
    code, payload = run_json(capsys, ["verify", "--e", "0.0", "--Z", "1"] + TINY)
    assert code == 0
    assert payload["passed"] is True
    assert payload["config"]["command"] == "verify"
    ids = [r["id"] for r in payload["reports"]]
    assert ids == sorted(ids) and "energy.upper" in ids


def test_scan_rows(capsys):
    code = main(
        ["scan", "--axis", "e", "--from", "0.1", "--to", "0.3", "--steps", "3",
         "--Z", "1", "--select", "energy.upper,photons.total"] + TINY
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "e,slack.energy.upper,slack.photons.total,passed"
    assert len(body) == 4  # header + 3 rows
    first = body[1].split(",")
    assert float(first[0]) == pytest.approx(0.1)
    assert first[-1] == "1"


def _csv_body(capsys) -> list[list[str]]:
    """The cells of the table the last command printed, header first."""
    lines = capsys.readouterr().out.splitlines()
    return [ln.split(",") for ln in lines if not ln.startswith("#")]


def test_verify_csv_flattening(capsys):
    """One row per check under id,status,lhs,rhs,slack; each numeric cell
    parses to the float the JSON report carries."""
    argv = ["verify", "--e", "0.3", "--Z", "1"] + TINY
    _, payload = run_json(capsys, argv)
    assert main(argv + ["--format", "csv"]) == 0
    header, *rows = _csv_body(capsys)
    assert header == ["id", "status", "lhs", "rhs", "slack"]
    assert len(rows) == len(payload["reports"])
    for cells, report in zip(rows, payload["reports"]):
        row = dict(zip(header, cells))
        assert row["id"] == report["id"]
        assert row["status"] == report["status"].split("(")[0]
        for key in ("lhs", "rhs", "slack"):
            assert (float(row[key]) if row[key] else None) == report[key]


def test_verify_csv_and_a_one_step_scan_print_the_same_slack_cells(capsys):
    point = ["--Z", "1", "--format", "csv"] + TINY
    assert main(["verify", "--e", "0.3"] + point) == 0
    _, *rows = _csv_body(capsys)
    assert main(["scan", "--axis", "e", "--from", "0.3", "--to", "0.3", "--steps", "1"]
                + point) == 0
    header, cells = _csv_body(capsys)
    scan = dict(zip(header, cells))
    assert [f"slack.{row[0]}" for row in rows] == header[1:-1]
    assert [row[4] for row in rows] == [scan[f"slack.{row[0]}"] for row in rows]


# check id -> (side, key of solve's flattened report) of the value the check reads
_REPORTED = {
    "moment.abs_x": ("lhs", "moments.abs_x"),
    "moment.log": ("lhs", "moments.log3"),
    "moment.x_squared": ("lhs", "moments.x_squared"),
    "overlap.lower_bound": ("rhs", "overlap_p"),
    "overlap.markov": ("rhs", "vacuum_weight"),
    "overlap.q_bound": ("lhs", "overlap_q"),
    "photons.hard": ("lhs", "n_f_hard"),
    "photons.soft": ("lhs", "n_f_soft"),
    "photons.total": ("lhs", "n_f_total"),
}


@pytest.mark.parametrize("e", ["0.3", "1e-9"])  # the overlap floor is open at 1e-9 only
def test_verify_reads_the_observables_solve_reports(capsys, e):
    point = ["--e", e, "--Z", "1"] + TINY
    _, solved = run_json(capsys, ["solve"] + point)
    report = solved["report"]
    flat = {**report, **{f"moments.{k}": v for k, v in report["moments"].items()}}
    _, suite = run_json(capsys, ["verify"] + point)
    checks = {r["id"]: r for r in suite["reports"]}
    for check_id, (side, key) in _REPORTED.items():
        if check_id == "overlap.lower_bound" and e == "0.3":
            assert checks[check_id]["status"].startswith("skipped")
            continue
        assert checks[check_id]["status"] == "pass"
        assert checks[check_id][side] == flat[key]  # bit for bit, through JSON's repr
    assert checks["overlap.markov"]["lhs"] == 1.0 - report["n_f_total"]


def test_effmass_matches_mode_sum(capsys):
    code, payload = run_json(
        capsys,
        ["effmass", "--e", "0.1", "--Z", "1", "--kappa", "0.3", "--lambda", "2.0",
         "--modes-radial", "2", "--modes-angular", "6", "--nmax", "2"],
    )
    assert code == 0
    rows = {r["name"]: r["value"] for r in payload["rows"]}
    assert rows["m_eff_over_m.numeric"] > 1.0
    assert rows["inertia.numeric"] == pytest.approx(rows["inertia.mode_sum"], rel=1e-3)


def test_effmass_refusal_prints_a_real_expectation(capsys):
    """<W> of a Hermitian W is real: the refusal of a grid whose fiber ground
    state carries momentum prints it with no imaginary part."""
    assert main(["effmass", "--e", "0.3", "--modes-radial", "1", "--nmax", "2"]) == 2
    err = capsys.readouterr().err
    value = re.search(r"<W> = (\S+)$", err.strip()).group(1)
    assert "j" not in value and abs(float(value)) > 1e-8, err


def test_binding_table(capsys):
    code, payload = run_json(capsys, ["binding", "--e", "0.3", "--Z", "1"])
    assert code == 0
    rows = {r["name"]: r["value"] for r in payload["rows"]}
    assert rows["shift.ratio_one"] == pytest.approx(rows["shift.reference"], rel=1e-6)
    assert abs(rows["shift.resolvent"]) < abs(rows["shift.envelope"])
    assert abs(rows["shift.envelope"]) == pytest.approx(
        2.0 * abs(rows["shift.ratio_one"]), rel=1e-9
    )


# ---------------------------------------------------------------------------
# determinism across processes and thread counts


def _verify_bytes(threads: str) -> bytes:
    env = os.environ.copy()
    env["OMP_NUM_THREADS"] = threads
    env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, "-m", "nelsonlab", "verify", "--e", "0.2", "--Z", "1"] + TINY,
        capture_output=True,
        env=env,
        check=True,
    )
    return proc.stdout


def test_verify_bytes_identical_across_thread_counts():
    assert _verify_bytes("1") == _verify_bytes("6")


def test_import_leaves_slow_scipy_modules_unloaded():
    """A fresh import of the CLI loads numpy alone: quadrature, root finding
    and the banded radial solve load their scipy modules on first use, and
    nothing else imports scipy."""
    probe = "import sys, nelsonlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


# Runs each argv list (JSON in argv[1]) through the CLI, with every scipy
# import refused when argv[2] is "refuse", and prints the
# [exit status, stdout] pairs as JSON.
_RUN_CLI = """
import contextlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} refused")
        return None

if sys.argv[2] == "refuse":
    sys.meta_path.insert(0, RefuseScipy())
from nelsonlab.cli import main

runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def test_solver_commands_run_without_scipy():
    """verify, solve, scan and effmass need numpy alone: with every scipy
    import refused they exit 0 and print what an unrestricted run prints.
    Both sides run in fresh processes: a run inside this one, after other
    tests, can differ in the last digit of roundoff-sized values."""
    runs = json.dumps([
        ["verify"] + TINY,
        ["solve"] + TINY,
        ["scan", "--axis", "e", "--from", "0.1", "--to", "0.3", "--steps", "2"] + TINY,
        ["effmass", "--modes-angular", "6"] + TINY_MODES,
    ])
    refused, allowed = (
        json.loads(subprocess.run([sys.executable, "-c", _RUN_CLI, runs, mode],
                                  capture_output=True, text=True, check=True).stdout)
        for mode in ("refuse", "allow")
    )
    assert [code for code, _ in refused] == [0, 0, 0, 0]
    assert refused == allowed


def test_solver_commands_leave_numpy_random_unloaded():
    """The symmetry sample of assembly and the pull-through probes draw from
    spectral's own stream, so no command loads numpy.random."""
    probe = (
        "import contextlib, io, json, sys\n"
        "from nelsonlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'numpy.random' in sys.modules]))\n"
    )
    runs = json.dumps([["solve"] + TINY, ["verify"] + TINY,
                       ["effmass", "--modes-angular", "6"] + TINY_MODES])
    proc = subprocess.run([sys.executable, "-c", probe, runs], capture_output=True, text=True,
                          check=True)
    assert json.loads(proc.stdout) == [[0, 0, 0], False]


# ---------------------------------------------------------------------------
# heap retention


class _Libc:
    """A stand-in for glibc that records its mallopt calls."""

    def __init__(self, calls, result=1):
        self.calls, self.result = calls, result

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.result


def test_main_fixes_the_heap_thresholds(monkeypatch, capsys):
    """M_MMAP_THRESHOLD (-3) at 32 MiB and M_TRIM_THRESHOLD (-1) at 64 MiB,
    once per run of main."""
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: _Libc(calls))
    assert main(["constants"]) == 0
    assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]


def _no_glibc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [_no_glibc, lambda name: object(), lambda name: _Libc([], 0)],
                         ids=["no-glibc", "no-mallopt", "mallopt-refuses"])
def test_main_runs_without_heap_control(monkeypatch, capsys, cdll):
    assert main(["constants"]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert main(["constants"]) == 0
    assert capsys.readouterr().out == expected


_IMPORT_PROBE = """
import ctypes
calls = []

class Libc:
    def __init__(self, lib):
        self.lib = lib

    def __getattr__(self, name):
        if name == "mallopt":
            return lambda *args: calls.append(args) or 1
        return getattr(self.lib, name)

real = ctypes.CDLL
ctypes.CDLL = lambda *args, **kwargs: Libc(real(*args, **kwargs))
import nelsonlab.cli
print(len(calls))
nelsonlab.cli._retain_heap()
print(len(calls))
"""


def test_import_leaves_the_heap_alone():
    """A fresh import makes no mallopt call (so start-up time cannot move);
    the probe sees the two calls that ``main`` makes."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["0", "2"]

"""End-to-end checks of the command-line front end.

Each test drives ``main`` with a real argv and inspects exit code, stdout,
stderr and any file the command wrote.  One test shells out to the
``commplan`` script to cover the packaging entry point: the installed script
when one is on ``PATH``, else the entry point ``pyproject.toml`` declares.
Another scans the package source for scipy imports, since scipy is only a
test dependency.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from commplan.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from commplan.model_io import parse_model
from commplan.msbpi import msbpi
from commplan.myopic import comm_policy_table, comm_table_csv
from commplan.tables import CellCheck, TableReport

TINY_MODEL = """\
# tiny two-state chain for planner smoke tests
model tiny
horizon 3
comm_cost -0.4
initial s0 s0

agent 1 left
  states s0 s1
  actions move stay
  noop stay
  goals s1
  cost move -1.0
  cost stay -0.2
  trans s0 move : s0 0.3 s1 0.7

agent 2 right
  states s0 s1
  actions move stay
  noop stay
  goals s1
  cost move -1.0
  cost stay -0.2
  trans s0 move : s0 0.5 s1 0.5

goal_pairs (s1,s1)
"""


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_plan_myopic_prints_config_then_exchange_table(capsys):
    rc, out, err = run_cli(
        capsys, ["plan", "--algo", "myopic", "--pu", "0.4", "--comm-cost", "-1"]
    )
    assert rc == EXIT_OK
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("config: ")
    cfg = json.loads(lines[0][len("config: "):])
    assert cfg["algo"] == "myopic"
    assert cfg["pu"] == 0.4
    assert cfg["comm_cost"] == -1.0
    table = "\n".join(lines[1:]) + "\n"
    assert table == comm_table_csv(
        comm_cost=-1.0, p_values=(0.4,), action_cost=-1.0
    )
    header = lines[1].split(",")
    row = lines[2].split(",")
    assert header[0] == "p_u" and header[1:] == [str(d) for d in range(1, 19)]
    assert row[0] == "0.4"
    assert row[header.index("5")] == "4"  # distance 5 exchanges after step 4


def test_plan_myopic_row_matches_policy_table(capsys):
    rc, out, _ = run_cli(
        capsys, ["plan", "--algo", "myopic", "--pu", "0.8", "--comm-cost", "-0.1"]
    )
    assert rc == EXIT_OK
    pol = comm_policy_table(p_u=0.8, comm_cost=-0.1, action_cost=-1.0)
    row = out.splitlines()[2].split(",")
    for d in range(1, 19):
        want = str(pol.times[d]) if d in pol.times else "never"
        assert row[d] == want


def test_plan_msbpi_on_a_model_file(capsys, tmp_path):
    path = tmp_path / "tiny.model"
    path.write_text(TINY_MODEL)
    rc, out, err = run_cli(capsys, ["plan", "--algo", "msbpi", "--model-file", str(path)])
    assert rc == EXIT_OK
    assert err == ""
    assert "iterations:" in out
    value_line = next(l for l in out.splitlines() if l.startswith("value at initial state:"))
    printed = float(value_line.split(":", 1)[1])
    mech = msbpi(parse_model(TINY_MODEL))
    assert printed == pytest.approx(float(mech.value[0, 0, 0]), abs=0)
    assert (
        f"iterations: {mech.iterations}, nodes created: {mech.nodes_created},"
        f" largest cell: {mech.max_cell_nodes} of budget 1000000"
    ) in out.splitlines()


def test_plan_msbpi_budget_exhaustion_is_a_usage_error(capsys):
    rc, out, err = run_cli(
        capsys, ["plan", "--algo", "msbpi", "--domain", "meeting", "--node-budget", "10"]
    )
    assert rc == EXIT_USAGE
    assert "search-node budget exhausted" in err
    assert "10" in err


def test_plan_lgo_writes_mechanism_csv(capsys, tmp_path):
    path = tmp_path / "mech.csv"
    rc, out, err = run_cli(
        capsys, ["plan", "--algo", "lgo", "--domain", "production", "--out", str(path)]
    )
    assert rc == EXIT_OK
    assert err == ""
    assert "sweeps:" in out
    assert f"wrote {path}" in out
    text = path.read_text()
    assert text.splitlines()[0] == "s1,s2,t,g1,g2,k,V"
    assert len(text.splitlines()) > 1


def test_plan_lgo_on_the_readme_model_file(capsys, tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("model example\n")
    path = tmp_path / "example.model"
    path.write_text(readme[start:readme.index("```", start)])
    rc, out, err = run_cli(capsys, ["plan", "--algo", "lgo", "--model-file", str(path)])
    assert rc == EXIT_OK
    assert err == ""
    lines = out.splitlines()
    assert "value at initial state: -2.0" in lines
    assert "s1,s2,t,g1,g2,k,V" in lines


def test_plan_lgo_needs_candidate_goals(capsys):
    rc, _, err = run_cli(capsys, ["plan", "--algo", "lgo", "--domain", "meeting"])
    assert rc == EXIT_USAGE
    assert "production domain" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--algo", "msbpi", "--model-file", "{tmp}/twice.model"],
        ["plan", "--algo", "msbpi", "--model-file", "{tmp}/missing.model"],
        ["plan", "--algo", "msbpi", "--model-file", "{tmp}/bare.model"],
        ["plan", "--algo", "lgo", "--model-file", "{tmp}/no-goals.model"],
        ["plan", "--algo", "lgo", "--model-file", "{tmp}/no-noop.model"],
        ["plan", "--algo", "msbpi", "--max-option-length", "0"],
        ["plan", "--algo", "lgo", "--domain", "production", "--comm-cost", "5"],
        ["plan", "--algo", "msbpi", "--pu", "0"],
        ["simulate", "--strategy", "lgo", "--domain", "meeting"],
        ["simulate", "--strategy", "subgoals", "--domain", "production"],
        ["simulate", "--strategy", "no_comm", "--episodes", "0"],
        ["simulate", "--strategy", "subgoals", "--subgoal-p", "0"],
        ["simulate", "--strategy", "no_comm", "--pu", "1.5"],
        ["simulate", "--strategy", "no_comm", "--seed", "-1"],
        ["plan", "--algo", "myopic", "--comm-cost", "0.5"],
        ["simulate", "--strategy", "myopic", "--comm-cost", "0.5"],
        ["plan", "--algo", "myopic", "--pu", "1e-17"],
        ["simulate", "--strategy", "myopic", "--pu", "1e-17"],
    ],
    ids=["model-file-repeated-key", "model-file-missing", "model-file-bare-key",
         "lgo-model-file-no-goals", "lgo-model-file-no-noop",
         "max-option-length-0", "lgo-positive-comm-cost", "plan-pu-0", "lgo-on-meeting",
         "subgoals-on-production", "episodes-0", "subgoal-p-0", "pu-1.5", "seed-negative",
         "myopic-plan-positive-comm-cost", "myopic-simulate-positive-comm-cost",
         "myopic-plan-pu-1e-17", "myopic-simulate-pu-1e-17"],
)
def test_bad_run_inputs_are_usage_errors(capsys, tmp_path, argv):
    (tmp_path / "twice.model").write_text("horizon 3\nhorizon 4\n")
    (tmp_path / "bare.model").write_text("horizon\n")
    (tmp_path / "no-goals.model").write_text(TINY_MODEL.replace("  goals s1\n", ""))
    (tmp_path / "no-noop.model").write_text(TINY_MODEL.replace("  noop stay\n", ""))
    rc, _, err = run_cli(capsys, [a.format(tmp=tmp_path) for a in argv])
    assert rc == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_simulate_subgoals_writes_results_csv(capsys, tmp_path):
    path = tmp_path / "results.csv"
    rc, out, err = run_cli(
        capsys,
        [
            "simulate",
            "--strategy",
            "subgoals",
            "--episodes",
            "50",
            "--seed",
            "3",
            "--out",
            str(path),
        ],
    )
    assert rc == EXIT_OK
    assert err == ""
    assert "mean utility" in out
    assert "episodes 50" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "domain,strategy,param,mean_utility,variance,mean_comm,mean_steps,episodes,seed"
    assert lines[1].startswith("meeting,subgoals,pu=0.8,")
    assert lines[1].endswith(",50,3")


def test_simulate_is_reproducible_from_logged_config(capsys):
    argv = ["simulate", "--strategy", "no_comm", "--episodes", "40", "--seed", "11"]
    rc1, out1, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


def test_reproduce_unknown_table_is_a_usage_error(capsys):
    rc, _, err = run_cli(capsys, ["reproduce", "--table", "T4"])
    assert rc == EXIT_USAGE
    assert "not part of the recorded reference set" in err

    rc, _, err = run_cli(capsys, ["reproduce", "--table", "nope"])
    assert rc == EXIT_USAGE
    assert err.startswith("error:")


def test_reproduce_reports_exchange_table_mismatches(capsys):
    rc, out, _ = run_cli(capsys, ["reproduce", "--table", "T5"])
    assert rc == EXIT_FAIL
    assert "T5: FAIL" in out
    assert "cell match fraction" in out


def test_report_only_rows_print_info():
    report = TableReport("T12")
    report.checks.append(CellCheck("p=0.8 subgoals comms", 0.0, 1.06, None, True))
    report.checks.append(CellCheck("p=0.8 myopic comms", 1.0, 1.5, 0.1, False))
    assert report.summary().splitlines()[1:] == [
        "  [info] p=0.8 subgoals comms: expected 0.0 got 1.06",
        "  [FAIL] p=0.8 myopic comms: expected 1.0 got 1.5 (tol 0.1)",
    ]


def test_missing_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def _declared_script_argv():
    """Command that runs the ``commplan`` entry point of ``pyproject.toml``.

    It imports the declared ``module:attr`` target here, so a target that does
    not exist fails the test, then calls it in a fresh interpreter the way a
    console-script wrapper does, with ``PYTHONPATH`` on the directory that
    holds the imported package.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["commplan"]
    module_name, attr = target.split(":")
    getattr(importlib.import_module(module_name), attr)

    package = sys.modules[module_name.split(".")[0]]
    root = str(Path(package.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    code = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"
    return [sys.executable, "-c", code], env


def test_console_script_is_installed():
    # An installed script is run as is; from a source tree (src on
    # PYTHONPATH, no install) the entry point pyproject.toml declares is run.
    exe = shutil.which("commplan")
    if exe is not None:
        argv, env = [exe], None
    else:
        argv, env = _declared_script_argv()
    proc = subprocess.run(argv + ["--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "plan" in proc.stdout and "simulate" in proc.stdout and "reproduce" in proc.stdout


def test_import_loads_neither_numpy_random_nor_scipy():
    # numpy.random loads only when a batch is simulated, and scipy is a test
    # dependency; a fresh interpreter shows what importing the package pulls in
    import commplan

    env = dict(os.environ)
    src = str(Path(commplan.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, commplan; print(sorted({'numpy.random', 'scipy'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_library_does_not_import_scipy():
    # scipy is declared in the test extra only, so no module of the package
    # may import it
    import ast

    import commplan

    found = []
    for path in sorted(Path(commplan.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []

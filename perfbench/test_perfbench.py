"""Tests of the benchmark itself: the gate fires on perturbed outputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from gate import compare, load_reference, within_se  # noqa: E402
from child import covered  # noqa: E402
from run import cross_check  # noqa: E402
from tracing import Run, Tracer, self_times  # noqa: E402
from workloads import ToyMsbpi, sha  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def reference():
    ref = load_reference()
    assert ref is not None, "reference.json missing"
    return ref


@pytest.fixture(scope="module")
def toy():
    """One untraced toy run, kept unverified so tests can perturb it."""
    w = ToyMsbpi()
    run = Run(Tracer(False), SEED)
    for phase in ("setup", "plan", "export", "simulate"):
        getattr(w, phase)(run)
    return w


def verified(w, reference):
    """Gate problems for the workload's current outputs."""
    run = Run(Tracer(False), SEED)
    w.verify(run)
    expected = reference["cores"]["Haswell"]["toy_msbpi"]
    problems = {op: list(msgs) for op, msgs in run.problems.items()}
    for op, msg in compare(run.facts, expected, SEED, reference["seed"]):
        problems.setdefault(op, []).append(msg)
    return problems


def test_unperturbed_toy_passes(toy, reference):
    assert verified(toy, reference) == {}


def test_perturbed_export_fails(toy, reference):
    w = copy.copy(toy)
    w.csv = toy.csv.replace("\n", "\r\n", 1)
    assert list(verified(w, reference)) == ["msbpi.iteration_csv"]


def test_perturbed_value_table_fails(toy, reference):
    w = copy.copy(toy)
    w.value = toy.value.copy()
    w.value[0, 0, 0] = w.value[0, 0, 0] + 1e-12
    problems = verified(w, reference)
    assert set(problems) == {"msbpi.evaluate_policy"}
    assert any("differs from the planner" in m for m in problems["msbpi.evaluate_policy"])


def test_perturbed_simulation_fails(toy, reference):
    w = copy.copy(toy)
    w.sim = copy.copy(toy.sim)
    w.sim.mean_utility = toy.sim.mean_utility + 10 * toy.sim.std_error
    problems = verified(w, reference)
    assert set(problems) == {"sim.msbpi"}
    assert any("SE from" in m for m in problems["sim.msbpi"])


def test_seeded_facts_checked_only_at_reference_seed():
    expected = {"op": {"fixed": {"v0": 1.0}, "seeded": {"log": "a"}}}
    got = {"op": {"fixed": {"v0": 1.0}, "seeded": {"log": "b"}}}
    assert compare(got, expected, seed=7, reference_seed=0) == []
    assert compare(got, expected, seed=0, reference_seed=0) == [
        ("op", "log: expected 'a', got 'b'")
    ]


def test_missing_and_unknown_ops_fail():
    expected = {"a": {"fixed": {}, "seeded": {}}}
    got = {"b": {"fixed": {}, "seeded": {}}}
    assert sorted(op for op, _ in compare(got, expected, 0, 0)) == ["a", "b"]


def test_within_se():
    assert within_se(1.0, 0.1, 1.39) is None
    assert "4.10 SE" in within_se(1.0, 0.1, 1.41)
    assert within_se(2.0, 0.0, 2.0) is None
    assert within_se(2.0, 0.0, 2.1) is not None


def test_self_time_subtracts_children():
    spans = [
        {"start": 0.0, "end": 10.0, "parent": None},
        {"start": 1.0, "end": 4.0, "parent": 0},
        {"start": 2.0, "end": 3.0, "parent": 1},
        {"start": 5.0, "end": 9.0, "parent": 0},
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_coverage_counts_only_calls_inside_phases():
    spans = [
        {"layer": "phase", "start": 0.0, "end": 4.0, "parent": None},
        {"layer": "import", "start": 0.5, "end": 1.0, "parent": 0},
        {"layer": "lgo", "start": 1.5, "end": 3.5, "parent": 0},
        {"layer": "lgo", "start": 2.0, "end": 3.0, "parent": 2},
        {"layer": "phase", "start": 4.0, "end": 6.0, "parent": None},
        {"layer": "sim", "start": 4.0, "end": 5.0, "parent": 4},
        {"layer": "phase", "start": 6.0, "end": 7.0, "parent": None},
        {"layer": "gate", "start": 6.0, "end": 7.0, "parent": 6},
    ]
    assert covered(spans, end=6.0) == 3.5


def test_cross_check_flags_differing_repetitions():
    def rec(digest):
        return {"setup_only": False, "failed": [], "problems": {},
                "facts": {"sim": {"fixed": {}, "seeded": {"log": digest}}}}

    records = [rec(sha("a")), rec(sha("a")), rec(sha("b"))]
    cross_check(records)
    assert [r["failed"] for r in records] == [[], [], ["sim"]]


def test_no_result_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "toy_msbpi",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""

"""Acceptance checks for the whole package.

Every test prints one verdict line of the form

    ACCEPTANCE <n> (<name>): PASS|FAIL -- <details>

and then asserts its gate.  Verdict lines are emitted with capture disabled
so they show up in batch logs whether or not the gate holds.  Three gates
compare Monte-Carlo runs against recorded reference
tables whose values sit beyond hard combinatorial bounds of the stated
domains; those tests print the measured numbers and the bound analysis, then
fail honestly rather than loosening the gate.
"""

import time

import numpy as np
import pytest

from commplan.domains import (
    GridConfig,
    Ideal,
    NoCommunication,
    build_meeting,
    build_production,
)
from commplan.lgo import lgo_msbpi
from commplan.model import FactoredState
from commplan.msbpi import msbpi
from commplan.myopic import comm_policy_table, theta_nc_meeting
from commplan.sim import SimConfig, monte_carlo
from commplan.tables import EXPECTED, reproduce

from conftest import TOY_GRID, toy_model
from oracles import delta_independence, joint_pn, pair_forward
from test_msbpi import enumeration_value, macro_mmdp_oracle
from test_options import complete_pair

P_VALUES = (0.2, 0.4, 0.6, 0.8)


def verdict(capsys, n, name, ok, details):
    line = f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} -- {details}"
    with capsys.disabled():
        print(line, flush=True)
    return line


def match_counts(report):
    """(matched, total) parsed from a comm-table report's fraction check."""
    for check in report.checks:
        if check.label.startswith("cell match fraction"):
            inner = check.label.split("(")[1].rstrip(")")
            matched, total = inner.split("/")
            return int(matched), int(total)
    raise AssertionError(f"no match-fraction check in {report.table}")


@pytest.fixture(scope="module")
def comm_table_reports():
    t0 = time.perf_counter()
    reports = {tid: reproduce(tid) for tid in ("T5", "T6", "T7")}
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def meeting_reports():
    out = {}
    for tid in ("T8", "T9", "T10", "T11", "T12", "T13"):
        t0 = time.perf_counter()
        out[tid] = (reproduce(tid, episodes=1000, seed=0), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def production_reports():
    out = {}
    for tid in ("T1", "T2", "T3"):
        t0 = time.perf_counter()
        out[tid] = (reproduce(tid, episodes=1000, seed=0), time.perf_counter() - t0)
    return out


def test_acceptance_1_exchange_time_tables(comm_table_reports, capsys):
    reports, elapsed = comm_table_reports
    per_table = {tid: match_counts(rep) for tid, rep in reports.items()}
    matched = sum(m for m, _ in per_table.values())
    total = sum(n for _, n in per_table.values())

    anchors = []
    cheap = comm_policy_table(p_u=0.4, comm_cost=-1.0)
    dear = comm_policy_table(p_u=0.4, comm_cost=-10.0)
    for pol, d, want in ((cheap, 5, 4), (dear, 5, 9), (dear, 12, 16)):
        got = pol.times.get(d, "never")
        anchors.append((pol.comm_cost, d, want, got, got == want))

    anchor_txt = "; ".join(
        f"(C={c:g}, p=0.4, d={d}) want {w} got {g}" for c, d, w, g, _ in anchors
    )
    frac_txt = ", ".join(f"{tid} {m}/{n}" for tid, (m, n) in sorted(per_table.items()))
    ok = matched / total >= 0.95 and all(a[-1] for a in anchors) and elapsed < 10
    verdict(
        capsys,
        1,
        "exchange-time tables",
        ok,
        f"{matched}/{total} cells ({frac_txt}); anchors: {anchor_txt}; {elapsed:.1f}s",
    )

    assert elapsed < 10
    assert matched / total >= 0.95 and all(a[-1] for a in anchors), (
        f"recorded exchange-time grids match on {matched}/{total} cells.\n"
        "Every mismatched cell lies where a single exchange cannot repay its "
        "fee under the profit rule this package implements (exchange at the "
        "earliest step whose expected re-split gain, over walks still short "
        "of their goals, exceeds the fee in step units):\n"
        "  - at separations d <= 2 the re-split of the remaining distance "
        "equals the current split, so the gain is identically zero and no "
        "profit threshold can fire;\n"
        "  - at fee C=-10 (5 step units) the largest conditional re-split "
        "gain anywhere on the grid measures 2.888 steps (p=0.2, d=17, t=33), "
        "so the whole table is unprofitable, yet the recorded grid has an "
        "entry in all 72 cells;\n"
        "  - the recorded entries at those cells scale like 1/p and are not "
        "monotone in d (C=-1, p=0.2 row: d=2 -> 4 but d=5 -> 3), patterns no "
        "earliest/argmax threshold on the gain curve produces (ten rule "
        "variants scored strictly worse than the implemented one).\n"
        "The implemented rule maximizes agreement and hits the one anchor "
        "cell that is attainable under profit-based accounting."
    )


def test_acceptance_2_no_comm_analytic_utilities(capsys):
    recorded = dict(zip(P_VALUES, (-104.925, -51.4522, -33.4955, -24.3202)))
    t0 = time.perf_counter()
    computed = {p: 2.0 * theta_nc_meeting(9, 9, p, p) for p in P_VALUES}
    elapsed = time.perf_counter() - t0
    errs = {p: abs(computed[p] - recorded[p]) for p in P_VALUES}
    ok = max(errs.values()) <= 0.01 and elapsed < 1.0
    verdict(
        capsys,
        2,
        "analytic no-communication utilities",
        ok,
        "max |err| %.2g over p=%s; %.2fs" % (max(errs.values()), P_VALUES, elapsed),
    )
    assert elapsed < 1.0
    for p in P_VALUES:
        assert computed[p] == pytest.approx(recorded[p], abs=0.01), (p, computed[p])


def test_acceptance_3_balanced_goal_placement_is_optimal(capsys):
    # identify which success probability the recorded -12.16 belongs to
    at_balanced = {p: theta_nc_meeting(9, 9, p, p) for p in P_VALUES}
    hits = [p for p in P_VALUES if abs(at_balanced[p] - (-12.16)) <= 0.01]

    placements = {d1: theta_nc_meeting(d1, 18 - d1, 0.8, 0.8) for d1 in range(19)}
    best = max(placements, key=placements.get)
    ok = hits == [0.8] and best == 9 and abs(placements[9] - (-12.16)) <= 0.01
    verdict(
        capsys,
        3,
        "balanced goal placement",
        ok,
        f"best split d1={best}, cost {placements[best]:.4f}; "
        "balanced cost per p: "
        + ", ".join(f"{p}: {at_balanced[p]:.2f}" for p in P_VALUES),
    )
    assert hits == [0.8], "only p=0.8 should reproduce the recorded -12.16"
    assert best == 9
    assert placements[9] == pytest.approx(-12.16, abs=0.01)


def test_acceptance_4_meeting_monte_carlo(meeting_reports, capsys):
    failures = []
    slow = []
    for tid, (report, dt) in meeting_reports.items():
        if dt >= 60:
            slow.append((tid, dt))
        wanted = ("comms",) if tid in ("T11", "T12", "T13") else ("ideal", "myopic")
        for check in report.checks:
            if any(w in check.label for w in wanted) and "subgoals" not in check.label:
                if not check.ok:
                    failures.append((tid, check.label, check.expected, check.actual))
    gated = sum(
        1
        for tid, (report, _) in meeting_reports.items()
        for check in report.checks
        if any(
            w in check.label
            for w in (("comms",) if tid in ("T11", "T12", "T13") else ("ideal", "myopic"))
        )
        and "subgoals" not in check.label
    )
    ok = not failures and not slow
    verdict(
        capsys,
        4,
        "meeting Monte-Carlo tables",
        ok,
        f"{gated - len(failures)}/{gated} gated cells within 3 SE; "
        f"max table time {max(dt for _, (_, dt) in meeting_reports.items()):.1f}s",
    )

    bounded = [f for f in failures if f[0] in ("T8", "T9", "T10") or "ideal comms" in f[1]]
    counted = [f for f in failures if f not in bounded]
    never = [f for f in counted if f[3] == 0.0]
    bound_rows = "\n".join(
        f"  p={p}: utility bound -18/p = {-18 / p:7.2f}, recorded ideal "
        f"{EXPECTED['T8']['rows'][p]['ideal']:8.3f}, recorded myopic "
        f"{EXPECTED['T8']['rows'][p]['myopic']:8.3f}; count bound 9/p = "
        f"{9 / p:5.2f}, recorded ideal {EXPECTED['T11']['rows'][p]['ideal']:6.3f}"
        for p in P_VALUES
    )
    never_rows = "\n".join(f"  {t} {l}: recorded {e}" for t, l, e, _ in never)
    count_rows = "\n".join(
        f"  {t} {l}: recorded {e}, simulated {a:.3f} ({'above' if a > e else 'below'})"
        for t, l, e, a in counted
        if a != 0.0
    )
    problems = [f"tables over the 60s budget: {slow}"] if slow else []
    if failures:
        problems.append(
            f"{len(failures)} of {gated} gated cells fall outside 3 standard "
            "errors.\n"
            f"{len(bounded)} of them are the T8-T10 utilities and the T11 ideal "
            "exchange counts, and those recorded values are unattainable on this "
            "domain: agents starting 18 apart close at most 2 cells per step, "
            "each move landing with probability p, so expected meeting time is "
            "at least 18/(2p) steps.  Utility (two agents paying -1 per step) is "
            "then at most -18/p, and the ideal strategy, which exchanges every "
            "step until the agents meet, makes at least 9/p exchanges.  The "
            "recorded values lie beyond those bounds at every p:\n" + bound_rows + "\n"
            "Simulated values do respect the bounds, and the no-communication "
            "column (which the analytic recursion pins down) matches to 0.01, "
            "so the discrepancy is confined to the recorded comm-strategy "
            "columns.\n"
            f"The other {len(counted)} are myopic exchange counts, on which the "
            "bounds say nothing: the myopic strategy exchanges when the "
            "exchange-time table of acceptance 1 says so.  That table has no "
            "entry at the start separation d=18 for fee -10 at any p, nor for "
            "fee -1 at p=0.8, so there the strategy never exchanges and the "
            "simulated count is exactly 0 with zero SE:\n" + never_rows + "\n"
            "The remaining count misses lie on both sides of the record, and "
            "the repository's documents do not settle why (they state neither "
            "the recorded move model nor how the recorded myopic rule accounts "
            "for costs):\n" + count_rows
        )
    assert not problems, "\n".join(problems)


def test_acceptance_5_production_monte_carlo(production_reports, capsys):
    failures = []
    slow = []
    gated = 0
    for tid, (report, dt) in production_reports.items():
        if dt >= 120:
            slow.append((tid, dt))
        for check in report.checks:
            gated += 1
            if not check.ok:
                failures.append((tid, check.label, check.expected, check.actual))
    lgo_failures = [f for f in failures if "lgo" in f[1]]
    ok = not failures and not slow
    verdict(
        capsys,
        5,
        "production Monte-Carlo tables",
        ok,
        f"{gated - len(failures)}/{gated} cells within tolerance "
        f"({len(lgo_failures)} mechanism cells among the misses); "
        f"max table time {max(dt for _, (_, dt) in production_reports.items()):.1f}s",
    )

    planned = {
        (tid, check.label): check.actual
        for tid, (report, _) in production_reports.items()
        for check in report.checks
    }
    lgo_rows = []
    for t, l, e, a in lgo_failures:
        optimum = planned[(t, l.replace(" lgo", " ideal"))]
        fees = (optimum - a) / -EXPECTED[t]["comm_cost"]
        lgo_rows.append(
            f"  {t} {l}: recorded {e}, planned {a:.3f} "
            f"({'better' if a > e else 'worse'} than the record; the optimum "
            f"{optimum:.3f} less {fees:.3g} fees)"
        )
    problems = [f"tables over the 120s budget: {slow}"] if slow else []
    if failures:
        problems.append(
            f"{len(failures)} of {gated} cells fall outside tolerance.\n"
            "The recorded ideal column is one unit above a counting cap: the "
            "second machine can only consume parts the first machine has built, "
            "so finished products never exceed machine 1's successful builds, "
            "and with 10 steps at -1 each plus +1 per product the utility is at "
            "most -20 + 10*p1 in expectation.  The recorded ideal column equals "
            "-19 + 10*p1 at every (p1, p2), one unit above the cap; the "
            "planned optimum (backward induction over the joint model) sits "
            "exactly at the cap.  The always-communicate column shifts by ten "
            "exchange fees and inherits the same offset.\n"
            f"Mechanism (lgo) cells use a 1.0 tolerance; {len(lgo_failures)} miss, "
            "on both sides of the record:\n" + "\n".join(lgo_rows) + "\n"
            "Every planned lgo value is the optimum less two exchange fees.  The "
            "mechanism charges the exchange that closes every window, including "
            "one that ends at the horizon, and windows last at most T-1 steps "
            "(lgo.py), so each plan pays at least two fees.  That is why "
            "T3 p=(0.2,0.2) is worse than the record: the optimum -18 less two "
            "fees of 10 is -38, against a recorded -17.262.\n"
            f"misses: {[(t, l, e, round(a, 3)) for t, l, e, a in failures]}"
        )
    assert not problems, "\n".join(problems)


def test_acceptance_6_msbpi_matches_enumeration(capsys):
    # exact up to float associativity: the two backups sum identical terms
    # in different orders, so agreement is asserted at 1e-12, far below any
    # model quantity and three orders above the observed 1-ulp wobble
    t0 = time.perf_counter()
    for params in TOY_GRID:
        m = toy_model(**params)
        np.testing.assert_allclose(msbpi(m).value, enumeration_value(m), atol=1e-12)
        np.testing.assert_allclose(
            msbpi(m, max_option_length=2).value, macro_mmdp_oracle(m), atol=1e-12
        )
    elapsed = time.perf_counter() - t0
    verdict(
        capsys,
        6,
        "tree-pair planner oracle equivalence",
        True,
        f"match vs pair enumeration and capped flat induction at 1e-12 on "
        f"{len(TOY_GRID)} toy models; {elapsed:.1f}s",
    )


def test_acceptance_7_invariant_suites(capsys):
    # forward kernels conserve probability mass
    worst = 0.0
    for seed in range(12):
        m = toy_model(**TOY_GRID[seed % len(TOY_GRID)])
        t1, t2 = complete_pair(seed, m, min(3, m.horizon))
        start = FactoredState(0, 0)
        term, stopped = pair_forward(t1, t2, m, start, 0)
        mass = sum(mu for cells in term.values() for mu, _ in cells.values())
        mass += sum(mu for cells in stopped.values() for mu, _ in cells.values())
        worst = max(worst, abs(mass - 1.0))
        for N in term:
            per_cell = np.zeros((2, 2))
            for (s1, s2), (mu, _) in term[N].items():
                per_cell[s1, s2] += mu
            np.testing.assert_allclose(
                joint_pn(t1, t2, m, start, 0, N), per_cell, atol=1e-9
            )
    assert worst <= 1e-9

    # value improves monotonically across planner iterations
    for params in TOY_GRID:
        sums = [row["v_sum"] for row in msbpi(toy_model(**params)).history]
        assert all(b > a for a, b in zip(sums, sums[1:]))
    prev = None
    for sweeps in (1, 2, 3):
        val = lgo_msbpi(toy_model(comm_cost=-0.1), max_sweeps=sweeps).value
        if prev is not None:
            assert np.all(val >= prev - 1e-9)
        prev = val

    # no interference gap when costs ignore the partner's goal
    delta, bound = delta_independence(
        lambda agent, s, own, other: -3.0 - own, [0, 1], [0, 1], [0, 1, 2], T=9
    )
    assert delta == 0.0 and bound == 0.0

    # fixed seeds reproduce Monte-Carlo output bit for bit
    meeting = build_meeting(GridConfig())
    production = build_production(0.8, 0.8)
    for domain, strategy in ((meeting, NoCommunication()), (production, Ideal())):
        cfg = SimConfig(
            domain=domain, strategy=strategy, episodes=40, seed=17, log_episodes=True
        )
        a, b = monte_carlo(cfg), monte_carlo(cfg)
        assert a.mean_utility == b.mean_utility
        assert a.per_episode == b.per_episode

    verdict(
        capsys,
        7,
        "invariant suites",
        True,
        f"kernel mass within {worst:.1e} of 1; planner values monotone; "
        "zero interference gap on independent costs; seeded runs bitwise equal",
    )


def test_acceptance_8_sweep_cost_scaling(production_08, capsys):
    m = toy_model()
    mech = lgo_msbpi(m)
    toy_per_sweep = (m.horizon - 1) * m.horizon * 2 * 2 * 1 * 1
    assert mech.sweep_candidate_counts == [toy_per_sweep] * mech.sweeps

    domain, prod_mech = production_08
    pm = domain.model
    per_sweep = (
        (pm.horizon - 1)
        * pm.horizon
        * pm.agent1.n_states
        * pm.agent2.n_states
        * len(domain.candidates1)
        * len(domain.candidates2)
    )
    assert prod_mech.sweep_candidate_counts == [per_sweep] * prod_mech.sweeps
    assert prod_mech.candidates_considered == per_sweep * prod_mech.sweeps
    verdict(
        capsys,
        8,
        "sweep cost scaling",
        True,
        f"candidate evaluations per sweep equal (T-1)*T*|S1||S2||G1||G2| "
        f"on both instrumented runs (production: {per_sweep} per sweep, "
        f"{prod_mech.sweeps} sweeps)",
    )

"""The package's public names.

A name leaves (or joins) the public API only by editing PUBLIC below, so a
cleanup that drops one says so in its diff.
"""

import commplan

PUBLIC = [
    "AgentModel", "AlwaysCommunicate", "COMMUNICATE", "CommPolicy", "DEFAULT_NODE_BUDGET",
    "DecMdpCom", "FactoredState", "GeneralMechanism", "GoalAssignment", "GridConfig",
    "Ideal", "LgoMechanism", "LocalGoalPolicy", "MeetingDomain", "MyopicGreedy",
    "NoCommunication", "NodeBudgetExceeded", "PolicyTree", "ProductionDomain", "SimConfig",
    "SimResult", "SubGoals", "TABLE_IDS", "build_meeting", "build_production",
    "comm_policy_table", "evaluate_lgo", "evaluate_policy", "expected_table",
    "joint_f_value", "lgo_msbpi", "monte_carlo", "msbpi", "parse_model", "reproduce",
    "run_episode", "serialize_model", "solve_joint_mmdp", "solve_local_mdp",
    "theta_nc_meeting", "validate",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 41
    assert sorted(commplan.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in commplan.__all__:
        assert getattr(commplan, name) is not None, name

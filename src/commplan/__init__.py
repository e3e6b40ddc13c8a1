"""Planning and simulation for two-agent models with costly state exchange.

Two locally fully observable agents with independent dynamics share a team
reward and may synchronize their states at a price.  The package provides
the joint model (:mod:`commplan.model`), a text format for it
(:mod:`commplan.model_io`), policy-tree options that end in an exchange
(:mod:`commplan.options`), exact multi-step backup policy iteration
(:mod:`commplan.msbpi`), the scalable goal-assignment variant
(:mod:`commplan.lgo`), myopic exchange timing on the meeting grid
(:mod:`commplan.myopic`), two benchmark scenarios (:mod:`commplan.domains`),
a seeded Monte-Carlo runner (:mod:`commplan.sim`), and recorded reference
tables with reproduction helpers (:mod:`commplan.tables`).
"""

from .domains import (
    AlwaysCommunicate,
    GridConfig,
    Ideal,
    MeetingDomain,
    MyopicGreedy,
    NoCommunication,
    ProductionDomain,
    SubGoals,
    build_meeting,
    build_production,
    solve_joint_mmdp,
)
from .lgo import (
    GoalAssignment,
    LgoMechanism,
    LocalGoalPolicy,
    evaluate_lgo,
    lgo_msbpi,
    solve_local_mdp,
)
from .model import AgentModel, DecMdpCom, FactoredState, validate
from .model_io import parse_model, serialize_model
from .msbpi import (
    DEFAULT_NODE_BUDGET,
    GeneralMechanism,
    NodeBudgetExceeded,
    evaluate_policy,
    msbpi,
)
from .myopic import CommPolicy, comm_policy_table, theta_nc_meeting
from .options import COMMUNICATE, PolicyTree, joint_f_value
from .sim import SimConfig, SimResult, monte_carlo, run_episode
from .tables import TABLE_IDS, expected_table, reproduce

__version__ = "0.1.0"

__all__ = [
    "AgentModel",
    "AlwaysCommunicate",
    "COMMUNICATE",
    "CommPolicy",
    "DEFAULT_NODE_BUDGET",
    "DecMdpCom",
    "FactoredState",
    "GeneralMechanism",
    "GoalAssignment",
    "GridConfig",
    "Ideal",
    "LgoMechanism",
    "LocalGoalPolicy",
    "MeetingDomain",
    "MyopicGreedy",
    "NoCommunication",
    "NodeBudgetExceeded",
    "PolicyTree",
    "ProductionDomain",
    "SimConfig",
    "SimResult",
    "SubGoals",
    "TABLE_IDS",
    "build_meeting",
    "build_production",
    "comm_policy_table",
    "evaluate_lgo",
    "evaluate_policy",
    "expected_table",
    "joint_f_value",
    "lgo_msbpi",
    "monte_carlo",
    "msbpi",
    "parse_model",
    "reproduce",
    "run_episode",
    "serialize_model",
    "solve_joint_mmdp",
    "solve_local_mdp",
    "theta_nc_meeting",
    "validate",
]

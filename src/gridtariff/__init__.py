"""gridtariff: bilevel time-of-use pricing for demand-side management.

A supplier (leader) posts per-slot prices; a smart-grid operator (follower)
schedules client devices, a battery and uncertain on-site generation to
minimize billing plus inconvenience.  The package builds the follower's
scenario-tree LP, reformulates the pricing problem into a single-level MILP
via optimality conditions and big-M switches, and solves long horizons with a
rolling-horizon loop.
"""

from .baselines import compare, perfect_case, reference_case
from .follower import (build_follower_lp, build_follower_system,
                       evaluate_schedule, leader_profit, solve_follower)
from .generator import (VariantSpec, generate_instance,
                        generate_mini_instance, generate_week_instance)
from .model import (Battery, Device, Horizon, Instance, PriceData,
                    TimeWindow, validate)
from .reformulation import (BilevelSolution, audit_big_m, build_mpcc,
                            default_dual_m, linearize, solve_bilevel)
from .rolling import RhConfig, RhTrajectory, audit_trajectory, make_subinstance
from .rolling import run as run_rolling_horizon
from .scenario import (BaseScenario, MarkovSelector, ScenarioTree,
                       build_complete_tree, flat_tree, node_map,
                       realize_next, single_path_tree, uniform_selector)
from .serialize import read_instance, write_instance
from .solver import SolveOptions, Status, get_backend, register_backend

__version__ = "0.1.0"

__all__ = [
    "Battery", "Device", "Horizon", "Instance", "PriceData", "TimeWindow",
    "validate",
    "BaseScenario", "MarkovSelector", "ScenarioTree", "build_complete_tree",
    "flat_tree", "node_map",
    "realize_next", "single_path_tree", "uniform_selector",
    "VariantSpec", "generate_instance", "generate_mini_instance",
    "generate_week_instance",
    "build_follower_lp", "build_follower_system", "evaluate_schedule",
    "leader_profit", "solve_follower",
    "BilevelSolution", "audit_big_m", "build_mpcc", "default_dual_m",
    "linearize", "solve_bilevel",
    "RhConfig", "RhTrajectory", "audit_trajectory", "make_subinstance",
    "run_rolling_horizon",
    "compare", "perfect_case", "reference_case",
    "read_instance", "write_instance",
    "SolveOptions", "Status", "get_backend", "register_backend",
]

"""tollsim: a mesoscopic laboratory for joint routing and pricing control of
mixed fleets of selfish (UE) and centrally routed (SO) vehicles.
"""

__version__ = "0.1.0"

from .network import (Clock, InvalidPathError, Link, Network, Node, Path,
                      load_network_file, validate_network)
from .demand import SO, UE, ClassDemand, NoiseConfig, split_demand
from .fd import (ClassReactionTimes, FDParams, blended_reaction_time,
                 fd_capacity, fd_flow)
from .loading import (GridlockError, LoadingResult, PathAssignment,
                      load_network, load_vehicles)
from .routing import CostSkims, PathSet, UnreachableError, td_shortest_path
from .equilibrium import (EquilibriumResult, SolverConfig, StepSchedule,
                          path_flows, relative_gap, solve_mixed_equilibrium,
                          step_size, update_proportions)
from .pricing import (PIState, TollConfig, TollSchedule, bilevel_solve,
                      congestion_weight, estimate_critical_density, nfd_point,
                      nfd_series, pi_update)
from .analysis import class_zone_summary, hysteresis_area
from .nguyen import build_nguyen
from .scenario import Scenario, run_scenario, validate_scenario

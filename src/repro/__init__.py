"""repro — Distributed node coloring in the SINR model (ICDCS 2010).

A from-scratch reproduction of Derbel & Talbi, *Distributed Node Coloring
in the SINR Model*: the re-parameterised Moscibroda-Wattenhofer coloring
algorithm running over a faithful SINR physical layer, plus the
coloring-based TDMA MAC layer (Theorem 3) and the single-round simulation
of message-passing algorithms (Corollary 1) — with the unit-disk-graph,
radio-simulation and message-passing substrates they need.

Quickstart::

    from repro import uniform_deployment, run_mw_coloring, PhysicalParams

    params = PhysicalParams().with_r_t(1.0)
    deployment = uniform_deployment(n=100, extent=6.0, seed=1)
    result = run_mw_coloring(deployment, params, seed=0)
    assert result.is_proper()
    print(result.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
claim-by-claim validation of the paper.
"""

from __future__ import annotations

from .algorithms.classical import greedy_coloring, randomized_coloring
from .coloring import (
    AlgorithmConstants,
    MWColoringResult,
    reduce_palette,
    reduce_palette_simulated,
    run_distance_d_coloring,
    run_mw_coloring,
)
from .errors import (
    ColoringError,
    ConfigurationError,
    DeploymentError,
    ProtocolError,
    ReproError,
    ScheduleError,
    SimulationError,
)
from .faults import (
    FaultPlan,
    FaultyChannel,
    Jammer,
    MessageFaults,
    NodeOutage,
    SlotSkew,
    WakeupSpec,
    load_fault_plan,
)
from .geometry import (
    Deployment,
    clustered_deployment,
    grid_deployment,
    perturbed_grid_deployment,
    phi_empirical,
    phi_upper_bound,
    poisson_deployment,
    uniform_deployment,
)
from .graphs import Coloring, UnitDiskGraph, power_graph
from .invariants import IndependenceAuditor
from .mac import (
    TDMASchedule,
    run_slotted_aloha,
    simulate_general_algorithm,
    simulate_uniform_algorithm,
    verify_tdma_broadcast,
)
from .messaging import (
    BFSTreeAlgorithm,
    ConvergecastSum,
    FloodingBroadcast,
    MaxIdLeaderElection,
    PairwiseTokenExchange,
    run_general_rounds,
    run_uniform_rounds,
)
from .simulation import WakeupSchedule
from .sinr import (
    CollisionFreeChannel,
    GraphChannel,
    PhysicalParams,
    ProtocolChannel,
    SINRChannel,
)

__version__ = "1.0.0"

__all__ = [
    "AlgorithmConstants",
    "BFSTreeAlgorithm",
    "Coloring",
    "ColoringError",
    "CollisionFreeChannel",
    "ConfigurationError",
    "ConvergecastSum",
    "Deployment",
    "DeploymentError",
    "FaultPlan",
    "FaultyChannel",
    "FloodingBroadcast",
    "GraphChannel",
    "IndependenceAuditor",
    "Jammer",
    "MessageFaults",
    "NodeOutage",
    "SlotSkew",
    "MWColoringResult",
    "MaxIdLeaderElection",
    "PairwiseTokenExchange",
    "PhysicalParams",
    "ProtocolChannel",
    "ProtocolError",
    "ReproError",
    "SINRChannel",
    "ScheduleError",
    "SimulationError",
    "TDMASchedule",
    "UnitDiskGraph",
    "WakeupSchedule",
    "WakeupSpec",
    "clustered_deployment",
    "greedy_coloring",
    "grid_deployment",
    "load_fault_plan",
    "perturbed_grid_deployment",
    "phi_empirical",
    "phi_upper_bound",
    "poisson_deployment",
    "power_graph",
    "randomized_coloring",
    "reduce_palette",
    "reduce_palette_simulated",
    "run_distance_d_coloring",
    "run_general_rounds",
    "run_mw_coloring",
    "run_slotted_aloha",
    "run_uniform_rounds",
    "simulate_general_algorithm",
    "simulate_uniform_algorithm",
    "uniform_deployment",
    "verify_tdma_broadcast",
    "__version__",
]

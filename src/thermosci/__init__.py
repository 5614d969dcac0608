"""Work-budgeted sequential learning: simulation, bounds, and strategy sweeps."""

from .bounds import (
    BoundCheck,
    BudgetScenario,
    Regime,
    RegimeResult,
    SubdomainBudget,
    bound_report,
    federated_eta_cap,
    federated_info_cap,
    partition_entropy_gap,
    per_subdomain_cap,
    regime_classify,
    scenario_from_ledger,
    unpartitioned_eta_cap,
    unpartitioned_info_cap,
)
from .cycle_sim import (
    CompressionMap,
    CostModel,
    EnvironmentModel,
    EpisodeSummary,
    ExpectedMode,
    FixedSequence,
    GreedyInfoMax,
    RandomPolicy,
    RoundRecord,
    RoundRobin,
    SampledMode,
    WorkLedger,
    cumulative_information,
    efficiency,
    run_episode,
)
from .info_core import (
    DiscreteDistribution,
    LikelihoodModel,
    Units,
    entropy,
    expected_information_gain,
    mutual_information_of_joint,
    posterior_update,
    predictive_outcome_dist,
)
from .strategies import (
    PartitionSpec,
    build_partition_from_joint,
    generalist_partition,
    h_fed,
    scenario_from_partition,
    specialist_partition,
)
from .toy_model import (
    Pair,
    SecondAxis,
    SweepAxes,
    SweepGrid,
    ToyParams,
    c_fed,
    delta_eta,
    eta_toy,
    read_grid_csv,
    strategy_etas,
    sweep,
    write_grid_csv,
    zero_contours,
)

__version__ = "0.1.0"

"""fedhire: one-shot hierarchical federated clustering."""

from .core import DataMatrix, EmptyClusterError
from .federation import (
    ExperimentError,
    ExperimentResult,
    FederationConfig,
    PartitionPlan,
    fragment_partition,
    run_one_shot,
)
from .metrics import acc, ari, nmi, purity
from .synth import gaussian_mixture

__version__ = "0.1.0"

__all__ = [
    "DataMatrix",
    "EmptyClusterError",
    "ExperimentError",
    "ExperimentResult",
    "FederationConfig",
    "PartitionPlan",
    "acc",
    "ari",
    "fragment_partition",
    "gaussian_mixture",
    "nmi",
    "purity",
    "run_one_shot",
    "__version__",
]

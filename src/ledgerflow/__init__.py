"""ledgerflow: topology, null-model significance, and recirculation analytics
for timestamped transaction ledgers.

The pipeline: parse a ledger CSV into a columnar ledger, aggregate it into a
weighted directed simple graph, partition the graph into exclusive
topological categories, test category sizes and triad counts against
degree-preserving null ensembles, and extract per-user recirculation
operations with quartile frequency categories.

Importing the package sets ``OPENBLAS_THREAD_TIMEOUT=4`` unless it is set,
so idle OpenBLAS workers sleep after 2**4 spin cycles, not 2**28; it acts
only if numpy is not loaded yet, and changes no thread count or result.
"""

__version__ = "0.1.0"  # first, so a submodule may import it at any time

import os

os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")  # before any submodule imports numpy

from .errors import AnalysisError, ConfigError, DataError, LedgerflowError
from .graph import AggregateDiagnostics, LedgerGraph, aggregate
from .ingest import (
    ColumnMapping,
    FilterSpec,
    IngestDiagnostics,
    Ledger,
    parse_ledger,
    write_transactions,
)
from .degrees import DegreeStats, PowerLawFit, degree_stats
from .topology import (
    CATEGORY_ORDER,
    CategoryRow,
    NodeCategory,
    OneTimeUserTable,
    TopologyPartition,
    categorize,
    category_stats,
    one_time_users,
)
from .nullmodel import (
    EnsembleSpec,
    RandomizationError,
    SwapMode,
    derive_seed,
    randomize,
    run_ensemble,
    significance,
)
from .stats import SignificanceCell
from .triads import (
    TRIAD_LABELS,
    category_census,
    triad_significance,
)
from .recirculation import (
    ClassifiedOps,
    FrequencyCategory,
    Operations,
    Signatures,
    classify_ops,
    crosstab,
    extract_ops,
    user_signatures,
)
from .synthetic import ScenarioSpec, SyntheticLedger, generate_synthetic

__all__ = [
    "AnalysisError",
    "ConfigError",
    "DataError",
    "LedgerflowError",
    "AggregateDiagnostics",
    "LedgerGraph",
    "aggregate",
    "ColumnMapping",
    "FilterSpec",
    "IngestDiagnostics",
    "Ledger",
    "parse_ledger",
    "write_transactions",
    "DegreeStats",
    "PowerLawFit",
    "degree_stats",
    "CATEGORY_ORDER",
    "CategoryRow",
    "NodeCategory",
    "OneTimeUserTable",
    "TopologyPartition",
    "categorize",
    "category_stats",
    "one_time_users",
    "EnsembleSpec",
    "RandomizationError",
    "SignificanceCell",
    "SwapMode",
    "derive_seed",
    "randomize",
    "run_ensemble",
    "significance",
    "TRIAD_LABELS",
    "category_census",
    "triad_significance",
    "ClassifiedOps",
    "FrequencyCategory",
    "Operations",
    "Signatures",
    "classify_ops",
    "crosstab",
    "extract_ops",
    "user_signatures",
    "ScenarioSpec",
    "SyntheticLedger",
    "generate_synthetic",
    "__version__",
]

"""Streaming Maximum k-Coverage: a reproduction of Indyk & Vakilian,
"Tight Trade-offs for the Maximum k-Coverage Problem in the General
Streaming Model" (PODS 2019).

Quickstart
----------

>>> from repro import EstimateMaxCover, EdgeStream, planted_cover
>>> workload = planted_cover(n=400, m=200, k=8, seed=1)
>>> stream = EdgeStream.from_system(workload.system, order="random", seed=2)
>>> algo = EstimateMaxCover(m=200, n=400, k=8, alpha=4.0, seed=3)
>>> estimate = algo.process_stream(stream).estimate()

Package map
-----------

``repro.core``
    The paper's contribution: ``EstimateMaxCover`` (Theorem 3.1), the
    ``(alpha, delta, eta)``-oracle with its three subroutines
    (Section 4), universe reduction (Section 3.1), and the k-cover
    reporter (Theorem 3.2).
``repro.sketch``
    The vector-sketching substrate: limited-independence hashing,
    ``L_0``, ``F_2``, CountSketch heavy hitters, contributing classes,
    set/element sampling.
``repro.coverage``
    Set systems and offline solvers (greedy, lazy greedy, array greedy,
    exact).
``repro.streams``
    The edge-arrival stream model and synthetic workload families.
``repro.baselines``
    Table 1 comparators (McGregor--Vu, Bateni et al., Saha--Getoor,
    sieve-streaming).
``repro.lowerbound``
    Section 5 hard instances and communication experiments.
``repro.bench``
    Experiment harness shared by the ``benchmarks/`` targets.
"""

from repro.base import (
    MergeIncompatibleError,
    RunReport,
    SetArrivalAlgorithm,
    StreamConsumedError,
    StreamingAlgorithm,
    StreamRunner,
)
from repro.parallel import (
    PersistentShardExecutor,
    ShardedRunReport,
    ShardExecutionError,
    ShardTiming,
)
from repro.core import (
    EstimateMaxCover,
    LargeCommon,
    LargeSet,
    MaxCoverReporter,
    Oracle,
    OracleEstimate,
    Parameters,
    ReportedCover,
    SmallSet,
    UniverseReducer,
)
from repro.coverage import (
    SetSystem,
    array_greedy,
    exact_max_cover,
    greedy_max_cover,
    lazy_greedy,
    optimal_coverage,
)
from repro.streams import (
    ARRIVAL_ORDERS,
    EdgeStream,
    Workload,
    common_heavy,
    few_large_sets,
    many_small_sets,
    planted_cover,
    random_uniform,
    zipf_frequencies,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # protocol
    "StreamingAlgorithm",
    "SetArrivalAlgorithm",
    "StreamConsumedError",
    "MergeIncompatibleError",
    "StreamRunner",
    "RunReport",
    "ShardedRunReport",
    "ShardTiming",
    "PersistentShardExecutor",
    "ShardExecutionError",
    # core
    "Parameters",
    "UniverseReducer",
    "LargeCommon",
    "LargeSet",
    "SmallSet",
    "Oracle",
    "OracleEstimate",
    "EstimateMaxCover",
    "MaxCoverReporter",
    "ReportedCover",
    # coverage
    "SetSystem",
    "array_greedy",
    "greedy_max_cover",
    "lazy_greedy",
    "exact_max_cover",
    "optimal_coverage",
    # streams
    "ARRIVAL_ORDERS",
    "EdgeStream",
    "Workload",
    "random_uniform",
    "planted_cover",
    "zipf_frequencies",
    "common_heavy",
    "few_large_sets",
    "many_small_sets",
]

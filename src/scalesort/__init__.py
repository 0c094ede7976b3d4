"""Sorting with rank-selection scales.

A (k, t1, ..., ts) scale answers a query of k distinct elements with the
unordered set of those holding ranks t1 < ... < ts inside the query.  This
package provides the simulated oracle, adaptive (online) and one-shot
(offline) sorting algorithms, a brute-force consistency oracle certifying
that each algorithm extracts everything its answers determine, and a CLI.
"""

from .core import (
    DuplicateElementError,
    HiddenOrder,
    InconsistentAnswersError,
    MirroredOracle,
    Oracle,
    PartitionError,
    PreconditionError,
    QuerySizeError,
    RESOLVED,
    REFLECTION_AMBIGUOUS,
    ScaleError,
    ScaleSpec,
    SortResult,
    UnknownElementError,
    UnsupportedScaleError,
    equivalent_up_to_ambiguity,
)
from .online import (
    multi_sort,
    singleton_sort,
    sort_online,
)
from .offline_adjacency import (
    adjacency_sort,
    build_adjacency_plan,
    eliminate_nonadjacent,
    rebuild_order,
)
from .offline_recursive import (
    DeductionError,
    KnowledgeBase,
    build_recursive_plan,
    deduce_query,
    find_ordered_pair,
    offline_lower_bound,
    order_superset,
    recursive_sort,
)
from .harness import (
    ambiguity_class,
    bench_sweep,
    consistent_permutations,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

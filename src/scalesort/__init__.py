"""Sorting with rank-selection scales.

A (k, t1, ..., ts) scale answers a query of k distinct elements with the
unordered set of those holding ranks t1 < ... < ts inside the query.  This
package provides the simulated oracle, adaptive (online) and one-shot
(offline) sorting algorithms, a brute-force consistency oracle certifying
that each algorithm extracts everything its answers determine, and a CLI.
"""

__version__ = "0.1.0"

"""Exact symmetric-group character degrees and knapsack-style identities
between their sums: computation, verification, symbolic certificates,
lattice-path counting, and exploratory search.

The exports below are loaded on first use (PEP 562), so `import sytknap`
and each CLI command load only the modules they run.
"""

from importlib import import_module

# Eager: a submodule import binds its name on the package, and the
# `partitions` export is the function, not the module of the same name
from .partitions import partitions

__version__ = "0.1.0"

_EXPORTS = {
    "certificates": ("CertificateReport", "certify_all"),
    "degrees": (
        "degree",
        "degree_fat_hook",
        "degree_three_row",
        "fat_hook_value",
        "syt_enumerate",
        "three_row_value",
    ),
    "identities": (
        "Report",
        "Term",
        "report_to_json",
        "swapped",
        "verify_analytic_ladder",
        "verify_boundary",
        "verify_branch_rows",
        "verify_catalan_pair",
        "verify_expansion",
        "verify_hook_wrap",
        "verify_knapsack",
        "verify_knapsack_sweep",
        "verify_ladder",
        "verify_riordan",
    ),
    "partitions": (
        "Partition",
        "add_rim_hooks",
        "branching_children",
        "conjugate",
        "fat_hook",
        "format_shape",
        "hook_lengths",
        "make_partition",
        "parse_shape",
        "partitions",
        "second_part_family",
        "square_two_tail_partitions",
        "three_row",
    ),
    "paths": (
        "PathKind",
        "catalan_number",
        "count_paths",
        "count_riordan_by_steps",
        "enumerate_paths",
        "syt_row_bounded_count",
    ),
    "search": ("build_pool", "find_equal_sum_pairs", "scan_even_ladders"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """An export, read from its module each time, so the package never holds
    a stale copy of a name its module rebinds."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())

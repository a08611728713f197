"""Exact symmetric-group character degrees and knapsack-style identities
between their sums: computation, verification, symbolic certificates,
lattice-path counting, and exploratory search."""

from .certificates import CertificateReport, certify_all
from .degrees import (
    degree,
    degree_fat_hook,
    degree_three_row,
    fat_hook_value,
    syt_enumerate,
    three_row_value,
)
from .identities import (
    Report,
    Term,
    report_to_json,
    swapped,
    verify_analytic_ladder,
    verify_boundary,
    verify_branch_rows,
    verify_catalan_pair,
    verify_expansion,
    verify_hook_wrap,
    verify_knapsack,
    verify_knapsack_sweep,
    verify_ladder,
    verify_riordan,
)
from .partitions import (
    Partition,
    add_rim_hooks,
    branching_children,
    conjugate,
    fat_hook,
    format_shape,
    hook_lengths,
    make_partition,
    parse_shape,
    partitions,
    second_part_family,
    square_two_tail_partitions,
    three_row,
)
from .paths import (
    PathKind,
    catalan_number,
    count_paths,
    count_riordan_by_steps,
    enumerate_paths,
    syt_row_bounded_count,
)
from .search import build_pool, find_equal_sum_pairs, scan_even_ladders

__version__ = "0.1.0"

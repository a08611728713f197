"""The package's exports resolve lazily to the objects their modules hold."""

import importlib
import os
import subprocess
import sys

import pytest

import sytknap

# every name the package exported when it imported all its modules eagerly
EXPORTS = {
    "CertificateReport": "certificates",
    "certify_all": "certificates",
    "degree": "degrees",
    "degree_fat_hook": "degrees",
    "degree_three_row": "degrees",
    "fat_hook_value": "degrees",
    "syt_enumerate": "degrees",
    "three_row_value": "degrees",
    "Report": "identities",
    "Term": "identities",
    "report_to_json": "identities",
    "swapped": "identities",
    "verify_analytic_ladder": "identities",
    "verify_boundary": "identities",
    "verify_branch_rows": "identities",
    "verify_catalan_pair": "identities",
    "verify_expansion": "identities",
    "verify_hook_wrap": "identities",
    "verify_knapsack": "identities",
    "verify_knapsack_sweep": "identities",
    "verify_ladder": "identities",
    "verify_riordan": "identities",
    "Partition": "partitions",
    "add_rim_hooks": "partitions",
    "branching_children": "partitions",
    "conjugate": "partitions",
    "fat_hook": "partitions",
    "format_shape": "partitions",
    "hook_lengths": "partitions",
    "make_partition": "partitions",
    "parse_shape": "partitions",
    "partitions": "partitions",
    "second_part_family": "partitions",
    "square_two_tail_partitions": "partitions",
    "three_row": "partitions",
    "PathKind": "paths",
    "catalan_number": "paths",
    "count_paths": "paths",
    "count_riordan_by_steps": "paths",
    "enumerate_paths": "paths",
    "syt_row_bounded_count": "paths",
    "build_pool": "search",
    "find_equal_sum_pairs": "search",
    "scan_even_ladders": "search",
}


def home(name):
    return getattr(importlib.import_module(f"sytknap.{EXPORTS[name]}"), name)


@pytest.mark.parametrize("name", EXPORTS)
def test_attribute_is_the_modules_object(name):
    assert getattr(sytknap, name) is home(name)


def test_star_import_binds_the_same_objects():
    namespace = {}
    exec("from sytknap import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    for name in EXPORTS:
        assert namespace[name] is home(name), name


def test_all_and_dir_list_the_exports():
    assert sorted(sytknap.__all__) == sorted(EXPORTS)
    assert set(EXPORTS) <= set(dir(sytknap))
    assert sytknap.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        sytknap.nope
    assert not hasattr(sytknap, "nope")


def test_partitions_stays_the_function_in_a_fresh_interpreter():
    # the submodule imports bind their names on the package; `partitions`
    # must still be the function however the modules were first imported
    code = (
        "import sys, sytknap.degrees, sytknap.partitions, sytknap\n"
        "from sytknap import partitions\n"
        "assert sytknap.partitions is partitions is sys.modules['sytknap.partitions'].partitions\n"
        "assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr

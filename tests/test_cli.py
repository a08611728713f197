import io
import json
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import pytest

from conftest import assert_report_json, read_golden
from sytknap import certificates, identities, paths, search
from sytknap.cli import VERIFIERS, main
from sytknap.degrees import degree
from sytknap.identities import MAX_HOOK_WRAP_WORK
from sytknap.partitions import MAX_RIM_HOOK_CELLS, MAX_SHAPE_CELLS, branching_children, format_shape, partitions
from sytknap.paths import catalan_number, syt_row_bounded_count
from sytknap.render import TABLES, render_table


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDegreeCommand:
    def test_catalan_shape(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--shape", "10,10")
        assert code == 0 and out == "16796\n"

    def test_caret_syntax(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--shape", "5,5,1^10")
        code2, out2, _ = run_cli(capsys, "degree", "--shape", "5,5,1,1,1,1,1,1,1,1,1,1")
        assert code == code2 == 0 and out == out2

    def test_enumerate_route(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--shape", "3,2,1", "--route", "enumerate")
        assert code == 0 and out == "16\n"

    def test_bad_shape_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "degree", "--shape", "1,3")
        assert code == 2 and "error" in err

    def test_past_the_str_digit_limit(self, capsys):
        # over 16 000 digits: str() alone stops at 4300 by default
        code, out, err = run_cli(capsys, "degree", "--shape", "100^100")
        assert code == 0 and err == ""
        assert out == f"{Decimal(degree((100,) * 100))}\n" and len(out) > 16_000

    @pytest.mark.parametrize(
        "argv",
        [
            ("degree", "--shape", f"1^{MAX_SHAPE_CELLS + 1}"),
            ("verify", "--id", "hookwrap", "--mu", f"{MAX_SHAPE_CELLS + 1}", "--k", "2"),
        ],
        ids=["degree", "hookwrap"],
    )
    def test_shape_over_budget_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: shape has {MAX_SHAPE_CELLS + 1} cells; the limit is {MAX_SHAPE_CELLS}\n"


class TestPathsCommand:
    def test_riordan_count(self, capsys):
        code, out, _ = run_cli(capsys, "paths", "--kind", "riordan", "--n", "20")
        assert code == 0 and out == "13393689\n"

    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "paths", "--kind", "riordan", "--n", "4", "--list")
        assert code == 0 and out.splitlines() == ["UDUD", "UFFD", "UUDD"]

    def test_list_over_budget_is_usage_error(self, capsys, monkeypatch):
        # dyck n = 14 has one path more than the patched budget
        limit = paths.count_paths(paths.PathKind.DYCK, 14) - 1
        monkeypatch.setattr(paths, "MAX_LISTED_PATHS", limit)
        code, out, err = run_cli(capsys, "paths", "--kind", "dyck", "--n", "14", "--list")
        assert code == 2 and out == ""
        assert err == f"error: dyck n=14 has more than {limit} paths to list\n"


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "knapsack", "--n", "32", "--k", "13")
        assert code == 0
        assert "swapped" in out and out.count("PASS") == 2

    def test_hookwrap_known_example(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "hookwrap", "--mu", "3,1", "--k", "6")
        assert code == 0 and "0 = 0" in out

    def test_rim_hook_over_budget_is_usage_error(self, capsys):
        k = MAX_RIM_HOOK_CELLS + 1
        code, out, err = run_cli(capsys, "verify", "--id", "hookwrap", "--mu", "3,1", "--k", f"{k}")
        assert code == 2 and out == ""
        assert err == f"error: rim hook has {k} cells; the limit is {MAX_RIM_HOOK_CELLS}\n"

    def test_hookwrap_work_over_budget_is_usage_error(self, capsys):
        # 9000 one-cell rows at k = 1000 ran for about 45 s before the budget
        code, out, err = run_cli(capsys, "verify", "--id", "hookwrap", "--mu", "1^9000", "--k", "1000")
        assert code == 2 and out == ""
        assert err == (
            f"error: 1001 rim hooks of 10000-cell shapes: work 1001000000; the limit is {MAX_HOOK_WRAP_WORK}\n"
        )

    def test_hookwrap_work_at_the_budget(self, capsys, monkeypatch):
        # (3,1) at k = 6: 6 rim hooks of 10-cell shapes, work 6 * 10 * isqrt(10)
        monkeypatch.setattr(identities, "MAX_HOOK_WRAP_WORK", 180)
        code, out, _ = run_cli(capsys, "verify", "--id", "hookwrap", "--mu", "3,1", "--k", "6")
        assert code == 0 and "0 = 0" in out
        monkeypatch.setattr(identities, "MAX_HOOK_WRAP_WORK", 179)
        code, out, err = run_cli(capsys, "verify", "--id", "hookwrap", "--mu", "3,1", "--k", "6")
        assert code == 2 and out == ""
        assert err == "error: 6 rim hooks of 10-cell shapes: work 180; the limit is 179\n"

    def test_analytic_terms_over_budget_is_usage_error(self, capsys, monkeypatch):
        # d = 2 has 9 terms; the default budget stops at d = 197
        monkeypatch.setattr(identities, "MAX_ANALYTIC_TERMS", 8)
        code, out, err = run_cli(capsys, "verify", "--id", "analytic", "--d", "2", "--k", "3", "--m", "9")
        assert code == 2 and out == ""
        assert err == "error: analytic ladder d=2 has 9 terms; the limit is 8\n"
        monkeypatch.undo()
        code, out, err = run_cli(capsys, "verify", "--id", "analytic", "--d", "198", "--k", "3", "--m", "792")
        assert code == 2 and out == ""
        assert err == f"error: analytic ladder d=198 has 20099 terms; the limit is {identities.MAX_ANALYTIC_TERMS}\n"

    def test_analytic_work_over_budget_is_usage_error(self, capsys, monkeypatch):
        # d = 2 at 2k+m = 15: work 9 * 15^2 = 2025
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 2024)
        code, out, err = run_cli(capsys, "verify", "--id", "analytic", "--d", "2", "--k", "3", "--m", "9")
        assert code == 2 and out == ""
        assert err == "error: analytic ladder d=2 has 9 terms of size 2k+m=15: work 2025; the limit is 2024\n"

    def test_ladder_terms_over_budget_is_usage_error(self, capsys, monkeypatch):
        # d = 2 counts 9 terms, as the analytic ladder does
        argv = ("verify", "--id", "ladder", "--d", "2", "--k", "6", "--m", "10")
        monkeypatch.setattr(identities, "MAX_ANALYTIC_TERMS", 9)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "[delta] -> PASS" in out
        monkeypatch.setattr(identities, "MAX_ANALYTIC_TERMS", 8)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: ladder d=2 has 9 terms; the limit is 8\n"

    def test_ladder_work_over_budget_is_usage_error(self, capsys, monkeypatch):
        # d = 2 at 2k+m = 22: work 9 * 22^2 = 4356
        argv = ("verify", "--id", "ladder", "--d", "2", "--k", "6", "--m", "10")
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 4356)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "[delta] -> PASS" in out
        monkeypatch.setattr(identities, "MAX_ANALYTIC_WORK", 4355)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: ladder d=2 has 9 terms of size 2k+m=22: work 4356; the limit is 4355\n"

    @pytest.mark.parametrize(
        "argv, kind",
        [(("paths", "--kind", "motzkin"), "motzkin"), (("verify", "--id", "riordan"), "riordan")],
        ids=["paths", "riordan"],
    )
    def test_path_length_over_budget_is_usage_error(self, capsys, argv, kind):
        n = paths.MAX_PATH_LENGTH + 1
        code, out, err = run_cli(capsys, *argv, "--n", str(n))
        assert code == 2 and out == ""
        assert err == f"error: {kind} n={n} has paths of {n} steps; the limit is {paths.MAX_PATH_LENGTH}\n"

    @pytest.mark.parametrize("family", ["knapsack", "riordan"])
    def test_sweep_over_budget_is_usage_error(self, capsys, family, monkeypatch):
        n = identities.MAX_SWEEP_N + 1

        def never(*args):
            raise AssertionError("the knapsack sweep ran past its budget")

        monkeypatch.setattr(identities, "degree", never)
        code, out, err = run_cli(capsys, "verify", "--id", family, "--n", str(n), "--format", "json")
        assert code == 2 and out == ""
        assert err == f"error: knapsack sweep n={n} is over budget; the limit is n={identities.MAX_SWEEP_N}\n"

    @pytest.mark.parametrize("limit", [5, None], ids=["patched", "default"])
    def test_catalan_pair_over_budget_is_usage_error(self, capsys, monkeypatch, limit):
        if limit is not None:
            monkeypatch.setattr(identities, "MAX_CATALAN_PAIR_M", limit)
        limit = identities.MAX_CATALAN_PAIR_M

        def never(*args):
            raise AssertionError("catalan-pair enumerated past its budget")

        monkeypatch.setattr(identities, "partitions", never)
        monkeypatch.setattr(identities, "square_two_tail_partitions", never)
        code, out, err = run_cli(capsys, "verify", "--id", "catalan-pair", "--m", str(limit + 1), "--format", "json")
        assert code == 2 and out == ""
        assert err == f"error: catalan-pair m={limit + 1} is over budget; the limit is m={limit}\n"

    def test_json_past_the_str_digit_limit(self, capsys):
        argv = ("verify", "--id", "hookwrap", "--mu", "100^100", "--k", "2", "--format", "json")
        code, out, _ = run_cli(capsys, *argv)
        (report,) = json.loads(out)
        assert code == 0 and report["pass"] and len(report["terms"]) > 1
        for term in report["terms"]:
            assert term["value"] == str(Decimal(degree(tuple(term["shape"]))))
            assert len(term["value"]) > 16_000

    def test_failing_verification_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "hookwrap", "--mu", "1", "--k", "1")
        assert code == 1 and "FAIL" in out

    def test_knapsack_sweep_without_k(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "knapsack", "--n", "12")
        assert code == 0 and out.count("PASS") == 14

    def test_missing_param_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--id", "knapsack")
        assert code == 2 and "--n" in err

    def test_out_of_range_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--id", "knapsack", "--n", "20", "--k", "30")
        assert code == 2

    def test_json_schema_all_families(self, capsys):
        invocations = [
            ("verify", "--id", "knapsack", "--n", "20", "--k", "5"),
            ("verify", "--id", "riordan", "--n", "8"),
            ("verify", "--id", "ladder", "--d", "1", "--k", "14", "--m", "7"),
            ("verify", "--id", "analytic", "--d", "1", "--k", "4", "--m", "11"),
            ("verify", "--id", "expansion", "--n", "20", "--k", "8"),
            ("verify", "--id", "boundary", "--k", "3", "--m", "2"),
            ("verify", "--id", "hookwrap", "--mu", "3,1", "--k", "6"),
            ("verify", "--id", "catalan-pair", "--m", "3"),
            ("verify", "--id", "branch", "--n", "20", "--k", "5", "--parity", "opposite"),
        ]
        for args in invocations:
            code, out, _ = run_cli(capsys, *args, "--format", "json")
            assert code == 0, args
            for report in json.loads(out):
                assert_report_json(report)
                assert report["pass"]


class TestVerifierRegistry:
    VALUES = {"n": "12", "k": "3", "m": "4", "d": "1", "mu": "3,2", "parity": "same"}

    @pytest.mark.parametrize("family", VERIFIERS)
    def test_each_required_option_is_checked(self, capsys, family):
        required, _ = VERIFIERS[family]
        for dropped in required:
            argv = ["verify", "--id", family]
            for name in required:
                if name != dropped:
                    argv += [f"--{name}", self.VALUES[name]]
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert err == f"error: verify --id {family} needs --{dropped}\n"

    def test_id_choices_are_the_registry_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "  --id {" + ",".join(VERIFIERS) + "}\n" in out
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--id", "nope"])
        assert exc.value.code == 2


class TestParserChoices:
    """The parser writes its choices out so that building it loads no
    subcommand module; they must stay the modules' own lists."""

    @staticmethod
    def help_text(capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_verify_ids(self):
        # the parser offers exactly these keys: test_id_choices_are_the_registry_keys
        ids = "knapsack,riordan,ladder,analytic,expansion,boundary,hookwrap,catalan-pair,branch"
        assert ",".join(VERIFIERS) == ids

    def test_path_kinds(self, capsys):
        assert [k.value for k in paths.PathKind] == ["dyck", "motzkin", "riordan"]
        assert "  --kind {dyck,motzkin,riordan}\n" in self.help_text(capsys, "paths")

    def test_table_ids(self, capsys):
        assert sorted(TABLES) == ["knapsack-n20", "knapsack-n32", "ladder-n35"]
        assert "  --id {knapsack-n20,knapsack-n32,ladder-n35}\n" in self.help_text(capsys, "table")


class TestImportFootprint:
    """Each light command, run in a fresh interpreter, loads only what it
    runs: no symbolic carrier, no search, no dataclasses."""

    SRC = os.path.join(os.path.dirname(__file__), "..", "src")
    REPORT = (
        "import sys\n"
        "from sytknap.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
        "raise SystemExit(status)\n"
    )
    NO_REPORTS = {"sytknap.identities", "sytknap.certificates", "sytknap.polynomials", "sytknap.search",
                  "dataclasses"}
    NO_SYMBOLIC = {"sytknap.certificates", "sytknap.polynomials", "sytknap.search", "dataclasses", "fractions"}

    def loaded(self, code, *argv):
        env = dict(os.environ, PYTHONPATH=self.SRC)
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        return set(done.stderr.splitlines()[-1].split())

    @pytest.fixture(scope="class")
    def preloaded(self):
        """What a bare interpreter already holds (site hooks may load some)."""
        return self.loaded("import sys; print(' '.join(sys.modules), file=sys.stderr)")

    @pytest.mark.parametrize("argv", [
        ("degree", "--shape", "5,5,1^10"),
        ("degree", "--shape", "3,2,1", "--route", "enumerate"),
        ("paths", "--kind", "riordan", "--n", "20"),
        ("paths", "--kind", "dyck", "--n", "3", "--list"),
    ])
    def test_degree_and_paths(self, argv, preloaded):
        loaded = self.loaded(self.REPORT, *argv)
        assert {"sytknap.degrees", "sytknap.partitions"} <= loaded
        assert not (loaded - preloaded) & self.NO_REPORTS

    @pytest.mark.parametrize("argv", [
        ("verify", "--id", "knapsack", "--n", "20"),
        ("verify", "--id", "riordan", "--n", "12", "--format", "json"),
        ("table", "--id", "ladder-n35"),
    ])
    def test_verify_and_table(self, argv, preloaded):
        loaded = self.loaded(self.REPORT, *argv)
        assert {"sytknap.identities", "sytknap.render"} <= loaded
        assert not (loaded - preloaded) & self.NO_SYMBOLIC


class TestTableCommand:
    @pytest.mark.parametrize("table_id", ["knapsack-n20", "knapsack-n32", "ladder-n35"])
    def test_golden_byte_match(self, capsys, table_id):
        code, out, _ = run_cli(capsys, "table", "--id", table_id)
        assert code == 0
        assert out == read_golden(f"{table_id}.txt")

    def test_unknown_table(self, capsys):
        # argparse rejects unknown choices itself, with the usage exit code
        with pytest.raises(SystemExit) as exc:
            main(["table", "--id", "nope"])
        assert exc.value.code == 2


class TestCertifyCommand:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "certify")
        assert code == 0 and out.count("PASS") == 5 and "FAIL" not in out

    def test_single(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--name", "argument-rotation")
        assert code == 0 and "difference = 0" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--format", "json")
        reports = json.loads(out)
        assert code == 0 and len(reports) == 5
        for rep in reports:
            assert rep["pass"] and rep["regime"] == "symbolic"

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--name", "nope")
        assert code == 2


class TestSearchCommand:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "6", "--max-side", "3")
        assert code == 0
        assert "f(6) = f(1^6)" in out
        assert "rediscovers knapsack-eq1 n=6 k=0" in out

    def test_json_reports_validate(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "8", "--max-side", "3", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and not payload["truncated"]
        for rep in payload["pairs"]:
            assert_report_json(rep)
            assert rep["pass"]

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "search", "--n", "10", "--max-side", "3")
        _, out2, _ = run_cli(capsys, "search", "--n", "10", "--max-side", "3")
        assert out1 == out2

    @pytest.mark.parametrize(
        "option, value, name",
        [("--max-side", "0", "max_side"), ("--max-side", "-3", "max_side"), ("--max-evals", "-1", "max_evals")],
    )
    def test_bad_budget_is_usage_error(self, capsys, option, value, name):
        code, out, err = run_cli(capsys, "search", "--n", "6", option, value)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and name in err
        assert "Traceback" not in err


def _old_json(payload) -> str:
    """What --format json printed when the whole payload was one json.dumps."""
    return json.dumps(payload, indent=2) + "\n"


def _search_payload(n, max_side, max_evals=10_000_000):
    pool = search.build_pool(n)
    result = search.find_equal_sum_pairs(pool, max_side, max_evals)
    return {
        "n": n,
        "pool": sorted(format_shape(s) for s, _ in pool.members),
        "truncated": result.truncated,
        "pairs": [identities.report_to_json(p.to_report()) for p in result.pairs],
    }


class _CountingSink(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


class TestStreamedJson:
    """--format json is encoded one report at a time; its bytes are those of
    the whole payload passed to json.dumps."""

    @pytest.mark.parametrize(
        "args, reports",
        [
            (("knapsack", "--n", "20", "--k", "5"), lambda: list(identities.verify_knapsack(20, 5))),
            (("knapsack", "--n", "12"), lambda: [r for k in range(7) for r in identities.verify_knapsack(12, k)]),
            (("riordan", "--n", "8"), lambda: identities.verify_riordan(8)),
            (("ladder", "--d", "1", "--k", "14", "--m", "7"), lambda: [identities.verify_ladder(1, 14, 7)]),
            (("analytic", "--d", "1", "--k", "4", "--m", "11"), lambda: [identities.verify_analytic_ladder(1, 4, 11)]),
            (("expansion", "--n", "30", "--k", "11"), lambda: [identities.verify_expansion(30, 11)]),
            (("boundary", "--k", "3", "--m", "2"), lambda: [identities.verify_boundary(3, 2)]),
            (("hookwrap", "--mu", "3,1", "--k", "6"), lambda: [identities.verify_hook_wrap((3, 1), 6)]),
            (("catalan-pair", "--m", "3"), lambda: [identities.verify_catalan_pair(3)]),
            (("branch", "--n", "20", "--k", "5", "--parity", "opposite"),
             lambda: [identities.verify_branch_rows(20, 5, False)]),
        ],
        ids=["knapsack", "knapsack-sweep", "riordan", "ladder", "analytic", "expansion", "boundary", "hookwrap",
             "catalan-pair", "branch"],
    )
    def test_verify(self, capsys, args, reports):
        code, out, _ = run_cli(capsys, "verify", "--id", *args, "--format", "json")
        expected = reports()
        assert code == (0 if all(r.passed for r in expected) else 1)
        assert out == _old_json([identities.report_to_json(r) for r in expected])

    def test_certify(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--format", "json")
        assert code == 0
        assert out == _old_json([r.to_json() for r in certificates.certify_all()])

    @pytest.mark.parametrize(
        "n, max_side, max_evals, kind",
        [(8, 3, 10_000_000, "pairs"), (1, 4, 10_000_000, "no pairs"), (10, 3, 1000, "truncated"),
         (6, 2, 0, "truncated, no pairs")],
        ids=["pairs", "no-pairs", "truncated", "truncated-no-pairs"],
    )
    def test_search(self, capsys, n, max_side, max_evals, kind):
        argv = ("search", "--n", str(n), "--max-side", str(max_side), "--max-evals", str(max_evals))
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        payload = _search_payload(n, max_side, max_evals)
        assert code == 0 and out == _old_json(payload)
        assert payload["truncated"] == ("truncated" in kind)
        assert (payload["pairs"] == []) == ("no pairs" in kind)
        if not payload["pairs"]:
            assert '  "pairs": []\n}\n' in out

    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SYTKNAP_OUT_DIR", str(tmp_path))
        for argv in [("search", "--n", "8", "--max-side", "3"), ("verify", "--id", "riordan", "--n", "8")]:
            code, out, _ = run_cli(capsys, *argv, "--format", "json", "--out", "o.json")
            assert code == 0
            assert (tmp_path / "o.json").read_bytes() == out.encode()

    def test_peak_memory_is_about_the_output_size(self, monkeypatch):
        # building the whole payload before encoding it peaked at 9.5 times
        # the output; one report at a time it is about 1.2 times
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["search", "--n", "12", "--max-side", "3", "--format", "json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.chars > 3_000_000
        assert peak < 2 * sink.chars


class TestScanCommand:
    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--k", "4", "--m", "7", "--dmax", "4")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "d,value,probe_shape,probe_value,residual,candidates,note"
        assert lines[1].startswith("0,0,")
        # quoted shape field keeps the csv rectangular
        assert lines[2].split(",")[2].startswith('"')

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--k", "5", "--m", "5", "--dmax", "2", "--format", "text")
        assert code == 0 and "d=0" in out and "d=2" in out

    def test_dmax_past_k_plus_m(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--k", "2", "--m", "2", "--dmax", "8")
        assert (code, err) == (0, "")
        assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
            ["0", "0"], ["2", "14"], ["4", "14"], ["6", "14"], ["8", "14"]
        ]

    def test_rows_at_the_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(search, "MAX_SCAN_ROWS", 5)
        for dmax in (8, 9):  # d = 0, 2, 4, 6, 8
            code, out, err = run_cli(capsys, "scan", "--k", "2", "--m", "2", "--dmax", str(dmax))
            assert (code, err, len(out.splitlines())) == (0, "", 6)
        code, out, err = run_cli(capsys, "scan", "--k", "2", "--m", "2", "--dmax", "10")
        assert code == 2 and out == ""
        assert err == "error: scan d_max=10 has 6 rows; the limit is 5\n"

    def test_rows_over_budget_is_usage_error(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("the scan built a row past its budget")

        monkeypatch.setattr(search, "partitions", never)
        monkeypatch.setattr(search, "ladder_sum_terms", never)
        dmax = 2 * search.MAX_SCAN_ROWS  # one row past the limit
        code, out, err = run_cli(capsys, "scan", "--k", "2", "--m", "2", "--dmax", str(dmax))
        assert code == 2 and out == ""
        assert err == f"error: scan d_max={dmax} has {dmax // 2 + 1} rows; the limit is {search.MAX_SCAN_ROWS}\n"


class TestInputGuards:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--id", "riordan", "--n", "0"),
            ("verify", "--id", "catalan-pair", "--m", "1"),
            ("verify", "--id", "analytic", "--d", "-1", "--k", "3", "--m", "2"),
            ("verify", "--id", "hookwrap", "--mu", "3,1", "--k", "0"),
            ("search", "--n", "0"),
            ("paths", "--kind", "dyck", "--n", "-1"),
            ("paths", "--kind", "dyck", "--n", "-1", "--list"),
        ],
        ids=["riordan", "catalan-pair", "analytic", "hookwrap", "search", "paths", "paths-list"],
    )
    def test_cli_guard_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_branch_size_below_one_names_the_given_size(self, capsys, n):
        code, out, err = run_cli(capsys, "verify", "--id", "branch", "--n", n, "--k", "0", "--parity", "same")
        assert code == 2 and out == ""
        assert err == f"error: need n >= 1, got n={n}\n"

    @pytest.mark.parametrize(
        "call, args, message",
        [
            (lambda n: list(partitions(n)), (-1,), "cannot partition a negative integer"),
            (branching_children, ((),), "the empty partition has no boxes"),
            (catalan_number, (-1,), "Catalan numbers start at n = 0"),
            (syt_row_bounded_count, (3, 0), "need n >= 0 and max_rows >= 1"),
            (render_table, ("nope",), "unknown table 'nope'"),
        ],
        ids=["partitions", "branching_children", "catalan_number", "syt_row_bounded_count", "render_table"],
    )
    def test_library_guard_raises(self, call, args, message):
        with pytest.raises(ValueError, match=message):
            call(*args)


class TestOutFile(object):
    def test_out_writes_same_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SYTKNAP_OUT_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, "table", "--id", "ladder-n35", "--out", "t.txt")
        assert code == 0
        assert (tmp_path / "t.txt").read_text() == out

    def test_absolute_out_ignores_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SYTKNAP_OUT_DIR", str(tmp_path / "missing"))
        target = tmp_path / "d.txt"
        code, out, _ = run_cli(capsys, "degree", "--shape", "3,2", "--out", str(target))
        assert code == 0 and out == "5\n" and target.read_text() == out

    @pytest.mark.parametrize("where", ["missing/x.txt", "."], ids=["missing-directory", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, monkeypatch, where):
        monkeypatch.setenv("SYTKNAP_OUT_DIR", str(tmp_path))
        code, out, err = run_cli(capsys, "degree", "--shape", "3,2", "--out", where)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "missing").exists()


class TestClosedStdout:
    """A reader that closes stdout early gets exit 2 and one error line."""

    def test_in_process(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "w") as target:
            class Closed:
                def writelines(self, pieces):
                    raise BrokenPipeError(32, "Broken pipe")

                def fileno(self):
                    return target.fileno()

            monkeypatch.setattr(sys, "stdout", Closed())
            code = main(["degree", "--shape", "3,2"])
            # the descriptor now leads to devnull, so a final flush cannot fail
            assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
        err = capsys.readouterr().err
        assert code == 2 and err == "error: [Errno 32] Broken pipe\n"

    # stdout block-buffered, as it is on a pipe unless PYTHONUNBUFFERED is set
    ENV = dict({k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
               PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))

    def test_reader_gone_before_a_short_output(self):
        # "5\n" waits in the stdout buffer: the flush in main, not the
        # interpreter's exit, must meet the closed pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "sytknap", "degree", "--shape", "3,2"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=self.ENV, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (2, b"error: [Errno 32] Broken pipe\n")

    def test_reader_closes_after_100_bytes(self):
        # 214 KB of output in many pieces, far more than a pipe holds, so the
        # child still has writes to make when the reader closes
        child = subprocess.Popen([sys.executable, "-m", "sytknap", "verify", "--id", "knapsack", "--n", "300"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.ENV)
        head = child.stdout.read(100)
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 2
        assert len(head) == 100
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


ANALYTIC_ERROR = "total -8 < 0: leading factorial undefined"


class TestPinnedText:
    def test_analytic_terms(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--id", "analytic", "--d", "2", "--k", "3", "--m", "9")
        assert (code, err) == (0, "")
        assert out == (
            "analytic-ladder d=2 k=3 m=9 [analytic] -> PASS\n"
            "  e2(3,3;9) + e2(4,4;7) + e2(5,5;5) + e2(6,6;3) + e2(7,7;1)"
            " = e2(7,3;5) + e3(3,3,9) + e3(5,3,7) + e3(5,5,5)\n"
            "  83006 = 83006\n"
        )

    def test_analytic_error(self, capsys):
        argv = ("verify", "--id", "analytic", "--d", "1", "--k", "-5", "--m", "2")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "")
        assert out == f"analytic-ladder d=1 k=-5 m=2 -> FAIL\n  error: {ANALYTIC_ERROR}\n"
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (1, "")
        report = {
            "id": "analytic-ladder",
            "params": {"d": 1, "k": -5, "m": 2},
            "lhs": "0",
            "rhs": "0",
            "pass": False,
            "regime": "",
            "terms": [],
            "error": ANALYTIC_ERROR,
        }
        assert out == json.dumps([report], indent=2) + "\n"

    def test_expansion_failed_checks(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--id", "expansion", "--n", "30", "--k", "11")
        assert (code, err) == (1, "")
        assert out == (
            "expansion n=30 k=11 [outside validity regime] -> FAIL\n"
            "  f(11,11,1^8) + f(12,12,1^6) = e3(8,11,11) + e3(10,11,9)"
            " + f(12,11,7) + f(14,11,5) + f(16,11,3) + f(18,11,1)\n"
            "  175858025070 = 175858025070\n"
            "  check non-partition values cancel: FAILED\n"
            "  check matches same-parity family sum: FAILED\n"
        )

"""Command-line surface: parsing, reports, formats, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lodayhom import cli
from lodayhom.cli import main, parse_args, run
from lodayhom.algebra import dump_algebra, truncated_poly
from lodayhom.simplicial import ValidationReport

TORUS = "prod(S1,S1)"
WEDGE = "wedge(wedge(S1,S1),sphere(2))"

COMPARE_ARGS = [
    "compare", "--space-a", TORUS, "--space-b", WEDGE,
    "--algebra", "truncpoly(2)", "--field", "F3", "--coeff", "unit",
    "--max-degree", "2",
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    cfg = parse_args(argv)
    code = run(cfg, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestParseArgs:
    def test_compute(self):
        cfg = parse_args(["compute", "--space", "S1", "--algebra",
                          "truncpoly(2)", "--field", "F3", "--coeff", "unit",
                          "--max-degree", "3"])
        assert vars(cfg) == dict(command="compute", space="S1",
                                 algebra="truncpoly(2)", field="F3",
                                 coeff="unit", max_degree=3, max_weight=None,
                                 no_normalize=False, format="text",
                                 max_basis=None)

    def test_compare(self):
        cfg = parse_args(COMPARE_ARGS)
        assert cfg.command == "compare"
        assert cfg.space_a == TORUS and cfg.space_b == WEDGE

    def test_poly_needs_weight_bound(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["compute", "--space", "S1", "--algebra", "poly",
                        "--field", "Q", "--coeff", "unit", "--max-degree", "2"])
        assert err.value.code == 2

    def test_poly_with_surrounding_whitespace_needs_weight_bound(self):
        # the algebra grammar strips its text, so " poly" is poly
        with pytest.raises(SystemExit) as err:
            parse_args(["compute", "--space", "S1", "--algebra", " poly",
                        "--field", "F3", "--max-degree", "2"])
        assert err.value.code == 2

    def test_bad_field_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["compute", "--space", "S1", "--algebra",
                        "truncpoly(2)", "--field", "F4", "--coeff", "unit",
                        "--max-degree", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("only", ["99", "x", "3,14", "0", "", "3,,4"])
    def test_seed_suite_only_outside_the_criteria_is_usage_error(self, only):
        with pytest.raises(SystemExit) as err:
            parse_args(["seed-suite", "--only", only])
        assert err.value.code == 2

    def test_seed_suite_only_is_parsed(self):
        assert parse_args(["seed-suite", "--only", "10,3,4,3"]).only == (3, 4, 10)
        assert parse_args(["seed-suite"]).only is None

    def test_max_basis_flag(self):
        cfg = parse_args(["compute", "--space", "S1", "--algebra",
                          "truncpoly(2)", "--field", "F3", "--max-degree", "1",
                          "--max-basis", "77"])
        assert cfg.max_basis == 77

    @pytest.mark.parametrize("flag", ["--max-weight", "--max-basis"])
    def test_negative_bound_is_usage_error(self, flag):
        with pytest.raises(SystemExit) as err:
            parse_args(["compute", "--space", "S1", "--algebra", "poly",
                        "--field", "F3", "--max-degree", "1",
                        "--max-weight", "1", flag, "-1"])
        assert err.value.code == 2

    def test_negative_top_level_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["validate", "--space", "pt", "--top-level", "-2"])
        assert err.value.code == 2


class TestComputeCommand:
    def test_point(self):
        code, out, _ = run_cli(["compute", "--space", "pt", "--algebra",
                                "truncpoly(2)", "--field", "F5", "--coeff",
                                "unit", "--max-degree", "2"])
        assert code == 0
        assert "totals by degree: [1, 0, 0]" in out

    def test_csv(self):
        code, out, _ = run_cli(["compute", "--space", "S1", "--algebra",
                                "truncpoly(2)", "--field", "F3",
                                "--max-degree", "2", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,weight,dimension"
        assert lines[1:] == ["0,0,1", "1,1,1", "2,2,1"]

    def test_json_totals_shape(self):
        code, out, _ = run_cli(["compute", "--space", "S1", "--algebra",
                                "truncpoly(2)", "--field", "F3",
                                "--max-degree", "2", "--format", "json"])
        payload = json.loads(out)
        assert payload["dims"] == {"0": 1, "1": 1, "2": 1}
        assert payload["verdict"] is None

    def test_json_weight_resolved_shape(self):
        code, out, _ = run_cli(["compute", "--space", "S1", "--algebra",
                                "poly", "--field", "F3", "--max-degree", "2",
                                "--max-weight", "2", "--format", "json"])
        payload = json.loads(out)
        assert payload["dims"] == {"0": {"0": 1}, "1": {"1": 1}, "2": {}}

    def test_unnormalized_flag(self):
        code, out, _ = run_cli(["compute", "--space", "S1", "--algebra",
                                "truncpoly(2)", "--field", "F3",
                                "--max-degree", "2", "--no-normalize"])
        assert code == 0 and "[1, 1, 1]" in out

    @pytest.mark.parametrize("algebra,coeff", [
        ("truncpoly(x)", "unit"),
        ("truncpoly(2)", "bogus"),
        ("file(/nonexistent.json)", "unit"),
    ])
    def test_rejected_by_run_exits_one(self, algebra, coeff):
        code, out, err = run_cli(["compute", "--space", "S1", "--algebra",
                                  algebra, "--field", "F3", "--coeff", coeff,
                                  "--max-degree", "1"])
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_basis_ceiling_is_internal_error(self):
        code, out, err = run_cli(["compute", "--space", TORUS, "--algebra",
                                  "truncpoly(2)", "--field", "F3",
                                  "--max-degree", "2", "--max-basis", "10"])
        assert code == 1
        assert out == ""
        assert "error" in err


class TestCompareCommand:
    def test_discrepancy_exit_code(self):
        code, out, _ = run_cli(COMPARE_ARGS)
        assert code == 10
        assert "verdict: first-discrepancy(degree=2,weight=2,left=2,right=3)" in out

    def test_agreement_exit_code(self):
        args = list(COMPARE_ARGS)
        args[args.index("F3")] = "F2"
        code, out, _ = run_cli(args)
        assert code == 0
        assert "agree-through-degree-2" in out

    def test_exit_ten_iff_discrepancy_in_report(self):
        for field, expected in (("F3", 10), ("F2", 0)):
            args = list(COMPARE_ARGS) + ["--format", "json"]
            args[args.index("F3")] = field
            code, out, _ = run_cli(args)
            assert code == expected
            payload = json.loads(out)
            assert ("first-discrepancy" in payload["verdict"]) == (code == 10)

    def test_json_round_trip_bytes(self):
        args = list(COMPARE_ARGS) + ["--format", "json"]
        _, out, _ = run_cli(args)
        payload = json.loads(out)
        again = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert again == out

    def test_byte_identical_reruns(self):
        args = list(COMPARE_ARGS) + ["--format", "json"]
        first = run_cli(args)
        second = run_cli(args)
        assert first == second

    def test_csv_schema(self):
        args = list(COMPARE_ARGS) + ["--format", "csv"]
        _, out, _ = run_cli(args)
        lines = out.strip().splitlines()
        assert lines[0] == "degree,weight,left,right"
        assert "2,2,2,3" in lines


class TestOtherCommands:
    def test_check_product(self):
        code, out, _ = run_cli(["check-product", "--space-a", "S1",
                                "--space-b", "S1", "--algebra", "truncpoly(2)",
                                "--field", "F3", "--max-degree", "2"])
        assert code == 10
        assert "wedge(wedge(S1,S1),smash(S1,S1))" in out

    def test_oracle_bicomplex(self):
        code, out, _ = run_cli(["oracle-bicomplex", "--algebra", "truncpoly(2)",
                                "--field", "F3", "--max-degree", "2"])
        assert code == 0
        assert "totals by degree: [1, 2, 3]" in out

    def test_oracle_bicomplex_rejects_no_normalize(self):
        # the grid is always unnormalized, so the flag would be ignored
        with pytest.raises(SystemExit) as err:
            parse_args(["oracle-bicomplex", "--algebra", "truncpoly(2)",
                        "--field", "F3", "--max-degree", "2", "--no-normalize"])
        assert err.value.code == 2

    def test_oracle_bicomplex_basis_ceiling(self):
        code, out, err = run_cli(["oracle-bicomplex", "--algebra",
                                  "truncpoly(2)", "--field", "F3",
                                  "--max-degree", "3", "--max-basis", "10"])
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_validate(self):
        code, out, _ = run_cli(["validate", "--space", "smash(S1,sphere(2))",
                                "--top-level", "3"])
        assert code == 0
        assert "result: pass" in out

    def test_validate_has_no_csv_format(self):
        # a validation report is no table, so it has text and json forms only
        with pytest.raises(SystemExit) as err:
            parse_args(["validate", "--space", "S1", "--format", "csv"])
        assert err.value.code == 2

    def test_validate_malformed_expression(self):
        code, out, err = run_cli(["validate", "--space", "wedge(S1)"])
        assert code == 1
        assert "error" in err

    def test_validate_violations_exit_one(self, monkeypatch):
        monkeypatch.setattr(
            cli, "validate",
            lambda space: ValidationReport(["d_0 at level 1 is broken"]))
        code, out, _ = run_cli(["validate", "--space", "S1"])
        assert code == 1
        assert "result: fail" in out
        assert "d_0 at level 1 is broken" in out

    def test_algebra_file(self, tmp_path):
        doc = dump_algebra(truncated_poly(3, 2))
        path = tmp_path / "square_zero.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["compute", "--space", "S1", "--algebra",
                                f"file({path})", "--field", "F3",
                                "--max-degree", "2"])
        assert code == 0
        assert "totals by degree: [1, 1, 1]" in out

    def test_coefficient_file_acts_through_augmentation(self, tmp_path):
        doc = dump_algebra(truncated_poly(3, 2))
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["compute", "--space", "S1", "--algebra",
                                "truncpoly(2)", "--field", "F3", "--coeff",
                                f"file({path})", "--max-degree", "2"])
        assert code == 0
        # H(S^1; k) tensored with the two-dimensional coefficient algebra
        assert "totals by degree: [2, 2, 2]" in out

    def test_coefficients_with_surrounding_whitespace(self):
        code, out, err = run_cli(["compute", "--space", "S1", "--algebra",
                                  " truncpoly( 2 ) ", "--field", "F3",
                                  "--coeff", " self", "--max-degree", "2"])
        assert code == 0, err
        # HH of F3[t]/t^2 on the circle
        assert "totals by degree: [2, 1, 1]" in out

    def test_coefficient_file_over_another_field_exits_one(self, tmp_path):
        doc = dump_algebra(truncated_poly(5, 2))
        path = tmp_path / "coeffs_f5.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["compute", "--space", "S1", "--algebra",
                                  "truncpoly(2)", "--field", "F3", "--coeff",
                                  f"file({path})", "--max-degree", "1"])
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_seed_suite_subset(self):
        code, out, err = run_cli(["seed-suite", "--only", "3,4,10"])
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("criterion")]
        assert len(lines) == 3
        assert all("PASS" in l for l in lines)


def test_main_returns_exit_code():
    assert main(["compute", "--space", "pt", "--algebra", "truncpoly(2)",
                 "--field", "F3", "--max-degree", "1"]) == 0


def _fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter on this checkout's
    ``src``, writing no bytecode, as a ``loday`` process starts."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300, check=False)


def test_only_seed_suite_imports_the_acceptance_criteria():
    """Importing the CLI leaves ``acceptance`` unimported, so no other
    command compiles it; ``seed-suite`` still imports it to run a criterion
    and to reject a number outside the criteria as a usage error."""
    probe = _fresh_python("-c", "import sys, lodayhom.cli; "
                          "print('lodayhom.acceptance' in sys.modules)")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "False\n"
    passed = _fresh_python("-m", "lodayhom.cli", "seed-suite", "--only", "2")
    assert passed.returncode == 0, passed.stderr
    assert "criterion  2: PASS" in passed.stdout
    assert "1/1 criteria passed" in passed.stdout
    unknown = _fresh_python("-m", "lodayhom.cli", "seed-suite", "--only", "14")
    assert unknown.returncode == 2
    assert "--only takes comma-separated criterion numbers" in unknown.stderr


def test_importing_the_cli_builds_no_parser():
    """``import lodayhom.cli`` builds no ``ArgumentParser``; the first
    ``parse_args`` builds the one parser and a second call reuses it."""
    probe = _fresh_python("-c", """
import argparse
made = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    made.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from lodayhom import cli
print(len(made))
cli.parse_args(["validate", "--space", "pt"])
first = len(made)
cli.parse_args(["compute", "--space", "S1", "--algebra", "truncpoly(2)",
                "--field", "F3", "--max-degree", "1"])
print(first > 0, len(made) == first)
""")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "0\nTrue True\n"


def test_reused_parser_returns_independent_configs():
    first = parse_args(COMPARE_ARGS)
    second = parse_args(["compute", "--space", "S1", "--algebra", "poly",
                         "--field", "Q", "--max-degree", "3",
                         "--max-weight", "4", "--no-normalize"])
    assert first is not second
    second.max_degree = 9
    assert vars(first) == dict(command="compare", space_a=TORUS,
                               space_b=WEDGE, algebra="truncpoly(2)",
                               field="F3", coeff="unit", max_degree=2,
                               max_weight=None, no_normalize=False,
                               format="text", max_basis=None)
    assert parse_args(COMPARE_ARGS) == first
    assert second.space == "S1" and second.no_normalize


@pytest.mark.parametrize("rejected", [
    ["compute", "--space", "S1", "--algebra", "poly", "--field", "F3",
     "--max-degree", "2"],
    ["compare", "--space-a", "S1", "--algebra", "poly", "--field", "F3",
     "--max-degree", "2", "--max-weight", "2", "--no-normalize"],
    ["validate", "--space", "pt", "--top-level", "-1", "--format", "json"],
    ["seed-suite", "--only", "99"],
], ids=["poly-without-bound", "missing-space-b", "negative-top", "bad-only"])
def test_a_rejected_argv_leaves_the_next_parse_alone(rejected):
    """After a usage error (exit 2) the reused parser parses a valid argv
    as a fresh interpreter does."""
    valid = ["compare", "--space-a", "S1", "--space-b", "sphere(2)",
             "--algebra", "truncpoly(2)", "--field", "F2", "--max-degree", "1"]
    with pytest.raises(SystemExit) as err:
        parse_args(rejected)
    assert err.value.code == 2
    alone = _fresh_python("-c", "import sys; from lodayhom.cli import "
                          "parse_args; print(repr(parse_args(sys.argv[1:])))",
                          *valid)
    assert alone.returncode == 0, alone.stderr
    assert repr(parse_args(valid)) + "\n" == alone.stdout

"""Acceptance suite: one test per exit criterion, at its stated tolerance.

All comparisons are exact integer equality (tolerance 0).  The criteria share
one workspace so repeated configurations are computed once; each test prints
its own pass/fail line.
"""

import pytest

from lodayhom import acceptance


@pytest.fixture(scope="module")
def results():
    out = {}
    ws = acceptance.Workspace()
    for i, criterion in enumerate(acceptance.CRITERIA, start=1):
        out[i] = criterion(ws)
    return out


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.cid}: {status} ({result.seconds:.1f}s) "
          f"{result.name} -- {result.detail}")
    assert result.passed, f"criterion {result.cid}: {result.detail}"


def test_criterion_01_nonstability_counterexample(results):
    _report(results[1])


def test_criterion_02_char_two_agreement(results):
    _report(results[2])


def test_criterion_03_circle_closed_form(results):
    _report(results[3])


def test_criterion_04_sphere_low_degree_table(results):
    _report(results[4])


def test_criterion_05_bicomplex_oracle_equivalence(results):
    _report(results[5])


def test_criterion_06_rational_discrepancy(results):
    _report(results[6])


def test_criterion_07_smooth_positive_case(results):
    _report(results[7])


def test_criterion_08_normalization_invariance(results):
    _report(results[8])


def test_criterion_09_boundary_squares(results):
    _report(results[9])


def test_criterion_10_kunneth_convolution(results):
    _report(results[10])


def test_criterion_11_determinism(results):
    _report(results[11])


def test_criterion_12_hochschild_closed_form(results):
    _report(results[12])


def test_criterion_13_degree_three_grid(results):
    _report(results[13])


def test_workspace_reads_the_coefficient_grammar():
    ws = acceptance.Workspace()
    with pytest.raises(ValueError, match="bad coefficients"):
        ws.homology("S1", "truncpoly(2)", 3, 1, coeff="bogus")
    assert ws.homology("S1", "truncpoly(2)", 3, 1, coeff="self").totals() \
        == [2, 1]

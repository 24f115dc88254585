"""The benchmark's workloads: fixed `loday` argv lists with frozen reports.

Every job is a real command line.  Its expected exit code and the exact
stdout bytes of its `--format json` report are frozen here, next to where
each value comes from.  `test_bench.py` re-derives the homology values from
the closed forms quoted in the `source` notes, so a frozen report cannot
drift from the mathematics unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass

TORUS = "prod(S1,S1)"
WEDGE = "wedge(wedge(S1,S1),sphere(2))"


@dataclass(frozen=True)
class Job:
    """One `loday` invocation and its frozen outcome."""

    name: str
    argv: tuple
    exit_code: int
    report: str
    source: str


def _compare(field: str) -> tuple:
    return ("compare", "--space-a", TORUS, "--space-b", WEDGE,
            "--algebra", "truncpoly(2)", "--field", field, "--coeff", "unit",
            "--max-degree", "2", "--format", "json")


def _torus_vs_wedge_report(field: str, torus_two: int, verdict: str) -> str:
    return ('{"algebra":"truncpoly(2)","coeff":"unit","command":"compare",'
            f'"dims":{{"0":[1,1],"1":[2,2],"2":[{torus_two},4]}},'
            f'"field":"{field}","max_degree":2,'
            f'"space":{{"left":"{TORUS}","right":"{WEDGE}"}},'
            f'"verdict":"{verdict}","weight_bound":null}}\n')


_DISCREPANCY = "first-discrepancy(degree=2,weight=2,left=2,right=3)"


def _circle_poly(field: str) -> tuple:
    return ("compute", "--space", "S1", "--algebra", "poly", "--field", field,
            "--coeff", "unit", "--max-degree", "8", "--max-weight", "12",
            "--format", "json")


def _circle_poly_report(field: str) -> str:
    empty = ",".join(f'"{n}":{{}}' for n in range(2, 9))
    return ('{"algebra":"poly","coeff":"unit","command":"compute",'
            f'"dims":{{"0":{{"0":1}},"1":{{"1":1}},{empty}}},'
            f'"field":"{field}","max_degree":8,"space":"S1",'
            '"verdict":null,"weight_bound":12}\n')


def _hochschild(m: int, field: str, degree: int) -> tuple:
    return ("compute", "--space", "S1", "--algebra", f"truncpoly({m})",
            "--field", field, "--coeff", "self", "--max-degree", str(degree),
            "--format", "json")


def _hochschild_report(m: int, field: str, degree: int, positive: int) -> str:
    dims = ",".join(f'"{n}":{m if n == 0 else positive}'
                    for n in range(degree + 1))
    return (f'{{"algebra":"truncpoly({m})","coeff":"self","command":"compute",'
            f'"dims":{{{dims}}},"field":"{field}","max_degree":{degree},'
            '"space":"S1","verdict":null,"weight_bound":null}\n')


_TORUS_SOURCE = ("torus [1,2,3] against wedge [1,2,4] when 2 is invertible: "
                 "acceptance criteria 1 (F3) and 6 (Q)")
_HH_SOURCE = ("HH_n(k[t]/t^m): m in degree 0; in degree n > 0, m-1 when "
              "char k does not divide m and m when it does")

WORKLOADS = {
    # The paper's flagship: the diagonal torus and wedge complexes of
    # k[t]/t^2, dominated by assembly (face pushforwards) over a 32 272
    # labeling basis, plus the grid bicomplex oracle to degree 4.
    "headline": (
        Job("compare-F3", _compare("F3"), 10,
            _torus_vs_wedge_report("F3", 3, _DISCREPANCY), _TORUS_SOURCE),
        Job("compare-F2", _compare("F2"), 0,
            _torus_vs_wedge_report("F2", 4, "agree-through-degree-2"),
            "torus and wedge agree at [1,2,4] over F2: acceptance criterion 2"),
        Job("compare-Q", _compare("Q"), 10,
            _torus_vs_wedge_report("Q", 3, _DISCREPANCY), _TORUS_SOURCE),
        Job("grid-F3",
            ("oracle-bicomplex", "--algebra", "truncpoly(2)", "--field", "F3",
             "--coeff", "unit", "--max-degree", "4", "--format", "json"),
            0,
            '{"algebra":"truncpoly(2)","coeff":"unit",'
            '"command":"oracle-bicomplex","dims":{"0":1,"1":2,"2":3,"3":6,'
            '"4":8},"field":"F3","max_degree":4,"space":"prod(S1,S1)",'
            '"verdict":null,"weight_bound":null}\n',
            "degrees 0-2 equal the diagonal torus [1,2,3] (acceptance "
            "criterion 5); degrees 3-4 are a regression value of the grid "
            "bicomplex, out of reach of the diagonal path"),
    ),
    # k[t] with a weight bound: the circle jobs are enumeration-bound,
    # because normalization discards most candidate labelings, and the
    # product check runs the stability driver on a lazy algebra.
    "weighted": (
        Job("circle-poly-F3", _circle_poly("F3"), 0, _circle_poly_report("F3"),
            "L_S1(k[t];k) = exterior algebra on dt: 1 in (degree 0, weight "
            "0) and in (degree 1, weight 1), 0 elsewhere"),
        Job("circle-poly-Q", _circle_poly("Q"), 0, _circle_poly_report("Q"),
            "L_S1(k[t];k) = exterior algebra on dt, as over F3"),
        Job("product-poly-F3",
            ("check-product", "--space-a", "S1", "--space-b", "S1",
             "--algebra", "poly", "--field", "F3", "--coeff", "unit",
             "--max-degree", "2", "--max-weight", "5", "--format", "json"),
            0,
            '{"algebra":"poly","coeff":"unit","command":"check-product",'
            '"dims":{"0":{"0":[1,1]},"1":{"1":[2,2]},'
            '"2":{"1":[1,1],"2":[1,1]}},"field":"F3","max_degree":2,'
            '"space":{"left":"prod(S1,S1)",'
            '"right":"wedge(wedge(S1,S1),smash(S1,S1))"},'
            '"verdict":"agree-through-degree-2","weight_bound":5}\n',
            "both sides agree (acceptance criterion 7 to weight 3); the "
            "values are the free graded-commutative algebra on the reduced "
            "homology of the torus placed in weight 1"),
    ),
    # Hochschild homology L_S1(A; A): elimination and coefficient-algebra
    # multiplications dominate; the wedge split never applies here.
    "hochschild": (
        Job("hh-t4-F3", _hochschild(4, "F3", 7), 0,
            _hochschild_report(4, "F3", 7, 3), _HH_SOURCE),
        Job("hh-t4-F2", _hochschild(4, "F2", 7), 0,
            _hochschild_report(4, "F2", 7, 4), _HH_SOURCE),
        Job("hh-t3-Q", _hochschild(3, "Q", 8), 0,
            _hochschild_report(3, "Q", 8, 2), _HH_SOURCE),
    ),
}

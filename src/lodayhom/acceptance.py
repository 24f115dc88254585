"""The acceptance suite: every exit criterion as an executable check.

Each criterion returns a result with its frozen expected values asserted
exactly (tolerance zero everywhere; all arithmetic is exact).  A shared
workspace memoizes homology tables across criteria and records a boundary
square check for every complex it assembles, which criterion 9 then audits.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random

from .algebra import (
    Coefficients, parse_algebra_expr, parse_coeff_expr, polynomial,
)
from .loday import build_complex, homology_dims
from .oracle import torus_bicomplex, wedge_kunneth_dims
from .simplicial import build_space, parse_space_expr
from .stability import compare_tables, product_decomposition_check

TORUS = "prod(S1,S1)"
WEDGE = "wedge(wedge(S1,S1),sphere(2))"


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    seconds: float
    detail: str


class Workspace:
    """Memoized homology tables plus a registry of boundary-square checks."""

    def __init__(self):
        self.tables = {}
        self.square_checks = []  # (description, ok)

    def homology(self, space_expr: str, algebra_spec: str, field,
                 max_degree: int, weight_bound=None, normalized=True,
                 coeff="unit"):
        def make():
            algebra = parse_algebra_expr(algebra_spec, field)
            space = build_space(parse_space_expr(space_expr), max_degree + 1)
            return build_complex(space, algebra,
                                 parse_coeff_expr(coeff, field), max_degree,
                                 weight_bound, normalized)
        return self._audited(
            (space_expr, algebra_spec, str(field), max_degree, weight_bound,
             normalized, coeff),
            f"{space_expr} / {algebra_spec} / {field} / {coeff} / "
            f"norm={normalized}", make)

    def bicomplex_homology(self, algebra_spec: str, field, max_degree: int,
                           weight_bound=None):
        return self._audited(
            ("bicomplex", algebra_spec, str(field), max_degree, weight_bound),
            self.bicomplex_description(algebra_spec, field, max_degree),
            lambda: torus_bicomplex(parse_algebra_expr(algebra_spec, field),
                                    Coefficients.unit(), max_degree,
                                    weight_bound))

    def _audited(self, key, description, make):
        """The memoized homology table of the complex ``make()``: homology
        first, on the implicit top that the CLI runs; the square audit then
        lists the top total degree and checks the total complex."""
        if key not in self.tables:
            complex_ = make()
            self.tables[key] = homology_dims(complex_)
            self.square_checks.append(
                (description, not complex_.check_boundary_squares()))
        return self.tables[key]

    @staticmethod
    def bicomplex_description(algebra_spec: str, field, max_degree: int):
        """How ``square_checks`` names the audit of a grid."""
        return f"bicomplex / {algebra_spec} / {field} / degree {max_degree}"


def criterion_1(ws: Workspace) -> CriterionResult:
    """Torus vs wedge non-stability over F_3 and F_5."""
    name = "non-stability counterexample (F3, F5): torus [1,2,3] vs wedge [1,2,4]"
    t0 = time.monotonic()
    details = []
    ok = True
    for p in (3, 5):
        tp0 = time.monotonic()
        torus = ws.homology(TORUS, "truncpoly(2)", p, 2)
        wedge_t = ws.homology(WEDGE, "truncpoly(2)", p, 2)
        torus_unnorm = ws.homology(TORUS, "truncpoly(2)", p, 2, normalized=False)
        per_prime = time.monotonic() - tp0
        rows, verdict = compare_tables(torus, wedge_t, 2)
        good = (torus.totals() == [1, 2, 3]
                and wedge_t.totals() == [1, 2, 4]
                and torus_unnorm.totals() == [1, 2, 3]
                and verdict.startswith("first-discrepancy(degree=2")
                and per_prime < 60.0)
        ok = ok and good
        details.append(f"F{p}: torus {torus.totals()} wedge {wedge_t.totals()} "
                       f"unnormalized torus {torus_unnorm.totals()} "
                       f"[{per_prime:.1f}s]")
    return CriterionResult(1, name, ok, time.monotonic() - t0, "; ".join(details))


def criterion_2(ws: Workspace) -> CriterionResult:
    """p = 2 agreement: both give 4 in degree 2."""
    name = "p=2 agreement: torus and wedge both [1,2,4]"
    t0 = time.monotonic()
    torus = ws.homology(TORUS, "truncpoly(2)", 2, 2)
    wedge_t = ws.homology(WEDGE, "truncpoly(2)", 2, 2)
    _, verdict = compare_tables(torus, wedge_t, 2)
    elapsed = time.monotonic() - t0
    ok = (torus.totals() == [1, 2, 4] and wedge_t.totals() == [1, 2, 4]
          and verdict == "agree-through-degree-2" and elapsed < 60.0)
    return CriterionResult(2, name, ok, elapsed,
                           f"torus {torus.totals()} wedge {wedge_t.totals()}")


def criterion_3(ws: Workspace) -> CriterionResult:
    """Circle homology of F_p[t]/t^2 is one-dimensional in degrees 0..4."""
    name = "circle closed form: dims 1 in degrees 0..4 for p in {2,3,5}"
    t0 = time.monotonic()
    details = []
    ok = True
    for p in (2, 3, 5):
        table = ws.homology("S1", "truncpoly(2)", p, 4)
        good = table.totals() == [1, 1, 1, 1, 1]
        ok = ok and good
        details.append(f"F{p}: {table.totals()}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    return CriterionResult(3, name, ok, elapsed, "; ".join(details))


def criterion_4(ws: Workspace) -> CriterionResult:
    """S^2 gives [1, 0, 1] over F_3 in both sphere models."""
    name = "S^2 low-degree table [1,0,1] over F3, both models"
    t0 = time.monotonic()
    smash_model = ws.homology("sphere(2)", "truncpoly(2)", 3, 2)
    delta_model = ws.homology("simplexsphere(2)", "truncpoly(2)", 3, 2)
    elapsed = time.monotonic() - t0
    ok = (smash_model.totals() == [1, 0, 1]
          and delta_model.totals() == [1, 0, 1]
          and smash_model.dims == delta_model.dims
          and elapsed < 30.0)
    return CriterionResult(4, name, ok, elapsed,
                           f"smash {smash_model.totals()} "
                           f"delta {delta_model.totals()}")


def criterion_5(ws: Workspace) -> CriterionResult:
    """Bicomplex total homology equals the simplicial product blockwise."""
    name = "bicomplex oracle equals simplicial torus (F3, F2), all blocks"
    t0 = time.monotonic()
    ok = True
    details = []
    for p in (3, 2):
        direct = ws.homology(TORUS, "truncpoly(2)", p, 2)
        via_grid = ws.bicomplex_homology("truncpoly(2)", p, 2)
        good = direct.dims == via_grid.dims
        ok = ok and good
        details.append(f"F{p}: {'equal' if good else 'DIFFER'}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    return CriterionResult(5, name, ok, elapsed, "; ".join(details))


def criterion_6(ws: Workspace) -> CriterionResult:
    """Rational discrepancy: degree-2 dims 3 vs 4, bicomplex agrees with the
    simplicial value."""
    name = "rational discrepancy: Q[t]/t^2 torus 3 vs wedge 4 in degree 2"
    t0 = time.monotonic()
    torus = ws.homology(TORUS, "truncpoly(2)", "Q", 2)
    wedge_t = ws.homology(WEDGE, "truncpoly(2)", "Q", 2)
    via_grid = ws.bicomplex_homology("truncpoly(2)", "Q", 2)
    elapsed = time.monotonic() - t0
    ok = (torus.total(2) != wedge_t.total(2)
          and torus.totals() == [1, 2, 3]
          and wedge_t.totals() == [1, 2, 4]
          and torus.dims == via_grid.dims
          and elapsed < 120.0)
    return CriterionResult(6, name, ok, elapsed,
                           f"torus {torus.totals()} wedge {wedge_t.totals()}")


def criterion_7(ws: Workspace) -> CriterionResult:
    """k[t] over F_3 decomposes the product of two circles per block."""
    name = "smooth positive case: k[t] decomposes S1 x S1, weights <= 3"
    t0 = time.monotonic()
    report = product_decomposition_check("S1", "S1", polynomial(3),
                                         Coefficients.unit(), 2,
                                         weight_bound=3)
    elapsed = time.monotonic() - t0
    ok = report.agrees and elapsed < 120.0
    return CriterionResult(7, name, ok, elapsed, report.verdict)


ACCEPTANCE_NORMALIZATION_INPUTS = (
    (TORUS, "truncpoly(2)", 3, 2, None),
    (TORUS, "truncpoly(2)", 5, 2, None),
    (TORUS, "truncpoly(2)", 2, 2, None),
    (TORUS, "truncpoly(2)", "Q", 2, None),
    (WEDGE, "truncpoly(2)", 3, 2, None),
    (WEDGE, "truncpoly(2)", 2, 2, None),
    (WEDGE, "truncpoly(2)", "Q", 2, None),
    ("S1", "truncpoly(2)", 2, 4, None),
    ("S1", "truncpoly(2)", 3, 4, None),
    ("S1", "truncpoly(2)", 5, 4, None),
    ("sphere(2)", "truncpoly(2)", 3, 2, None),
    ("simplexsphere(2)", "truncpoly(2)", 3, 2, None),
    (TORUS, "poly", 3, 2, 3),
)

_RANDOM_ATOMS = ("pt", "S1", "sphere(2)", "simplexsphere(2)")
_RANDOM_ALGEBRAS = ("truncpoly(2)", "truncpoly(3)", "exterior")
_RANDOM_FIELDS = (2, 3, 5)


def random_small_inputs(count: int = 20, seed: int = 20250809):
    """Deterministic sample of small comparison inputs for criterion 8.

    Expressions use at most two combinators; candidates whose top chain level
    would be too large for the unnormalized build are skipped, keeping the
    suite fast.
    """
    rng = Random(seed)

    def random_expr(combinators):
        if combinators == 0:
            return rng.choice(_RANDOM_ATOMS)
        op = rng.choice(("wedge", "prod", "smash", "susp"))
        if op == "susp":
            return f"susp({random_expr(combinators - 1)})"
        split = rng.randint(0, combinators - 1)
        return (f"{op}({random_expr(split)},"
                f"{random_expr(combinators - 1 - split)})")

    out = []
    while len(out) < count:
        expr = random_expr(rng.randint(0, 2))
        algebra_spec = rng.choice(_RANDOM_ALGEBRAS)
        p = rng.choice(_RANDOM_FIELDS)
        max_degree = rng.randint(0, 2)
        space = build_space(parse_space_expr(expr), max_degree + 1)
        slots = space.size(max_degree + 1) - 1
        dim = 3 if algebra_spec == "truncpoly(3)" else 2
        if dim ** slots > 20000:
            continue
        out.append((expr, algebra_spec, p, max_degree))
    return out


def criterion_8(ws: Workspace) -> CriterionResult:
    """Homology agrees with normalization on and off, everywhere."""
    name = "normalization invariance on acceptance inputs and 20 random inputs"
    t0 = time.monotonic()
    ok = True
    checked = 0
    bad = []
    for expr, algebra_spec, field, d, w in ACCEPTANCE_NORMALIZATION_INPUTS:
        on = ws.homology(expr, algebra_spec, field, d, w, normalized=True)
        off = ws.homology(expr, algebra_spec, field, d, w, normalized=False)
        checked += 1
        if on.dims != off.dims:
            ok = False
            bad.append(f"{expr}/{algebra_spec}/{field}")
    for expr, algebra_spec, p, d in random_small_inputs():
        on = ws.homology(expr, algebra_spec, p, d, normalized=True)
        off = ws.homology(expr, algebra_spec, p, d, normalized=False)
        checked += 1
        if on.dims != off.dims:
            ok = False
            bad.append(f"{expr}/{algebra_spec}/F{p}")
    detail = f"{checked} inputs" + (f"; disagreements: {bad}" if bad else "")
    return CriterionResult(8, name, ok, time.monotonic() - t0, detail)


def criterion_9(ws: Workspace) -> CriterionResult:
    """Boundary-squared vanishes for every complex assembled so far."""
    name = "boundary . boundary = 0 for every assembled complex"
    t0 = time.monotonic()
    if not ws.square_checks:
        ws.homology(TORUS, "truncpoly(2)", 3, 2)
        ws.bicomplex_homology("truncpoly(2)", 3, 2)
    failures = [desc for desc, good in ws.square_checks if not good]
    ok = not failures and len(ws.square_checks) > 0
    detail = f"{len(ws.square_checks)} complexes checked"
    if failures:
        detail += f"; failures: {failures}"
    return CriterionResult(9, name, ok, time.monotonic() - t0, detail)


def criterion_10(ws: Workspace) -> CriterionResult:
    """Künneth convolution predicts direct wedge computations over F_3."""
    name = "Kunneth convolution matches direct wedges for (S1,S1),(S1,S2),(S2,S2)"
    t0 = time.monotonic()
    pairs = (("S1", "S1"), ("S1", "sphere(2)"), ("sphere(2)", "sphere(2)"))
    ok = True
    details = []
    for a, b in pairs:
        ha = ws.homology(a, "truncpoly(2)", 3, 2)
        hb = ws.homology(b, "truncpoly(2)", 3, 2)
        predicted = wedge_kunneth_dims(ha, hb, 2)
        direct = ws.homology(f"wedge({a},{b})", "truncpoly(2)", 3, 2)
        good = predicted.dims == direct.dims
        ok = ok and good
        details.append(f"({a},{b}): {'equal' if good else 'DIFFER'}")
    return CriterionResult(10, name, ok, time.monotonic() - t0,
                           "; ".join(details))


def _cli_json_compare_bytes(hash_seed: str) -> bytes:
    src_dir = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-m", "lodayhom.cli", "compare",
         "--space-a", TORUS, "--space-b", WEDGE,
         "--algebra", "truncpoly(2)", "--field", "F3", "--coeff", "unit",
         "--max-degree", "2", "--format", "json"],
        capture_output=True, env=env, check=False)
    if proc.returncode != 10:
        raise RuntimeError(
            f"expected exit code 10 from the comparison, got {proc.returncode}: "
            f"{proc.stderr.decode()}")
    return proc.stdout


def criterion_11(ws: Workspace) -> CriterionResult:
    """Running the flagship comparison twice emits byte-identical json."""
    name = "determinism: criterion-1 json reports are byte-identical"
    t0 = time.monotonic()
    # distinct hash seeds so set/dict hashing cannot leak into the bytes
    first = _cli_json_compare_bytes("1")
    second = _cli_json_compare_bytes("2")
    ok = first == second and len(first) > 0
    json.loads(first.decode())  # also a well-formedness check
    return CriterionResult(11, name, ok, time.monotonic() - t0,
                           f"{len(first)} bytes")


def _field_name(field) -> str:
    return "Q" if field == "Q" else f"F{field}"


def hochschild_closed_form(m, characteristic, d):
    """HH_n(k[x]/x^m) per (degree, weight) through degree d, from the
    2-periodic resolution: HH_0 is A, in weights 0..m-1; HH_{2i-1} sits in
    weights (i-1)m+1 .. im-1 and HH_{2i} in im+1 .. im+m-1, each widened by
    the weight im when the characteristic divides m; every weight carries
    dimension 1.  ``characteristic`` is None over Q."""
    divides = characteristic is not None and m % characteristic == 0
    dims = {(0, w): 1 for w in range(m)}
    for n in range(1, d + 1):
        i = (n + 1) // 2
        if n % 2:
            weights = range((i - 1) * m + 1, i * m + divides)
        else:
            weights = range(i * m + (not divides), i * m + m)
        dims.update(((n, w), 1) for w in weights)
    return dims


def criterion_12(ws: Workspace) -> CriterionResult:
    """Hochschild homology of k[x]/x^m, weight by weight, against the closed
    form of the 2-periodic resolution."""
    name = "HH(k[x]/x^m) on S1 equals its closed form (F2, F3, Q; m = 2..4)"
    t0 = time.monotonic()
    ok = True
    bad = []
    for field in (2, 3, "Q"):
        for m in (2, 3, 4):
            table = ws.homology("S1", f"truncpoly({m})", field, 5, coeff="self")
            want = hochschild_closed_form(m, table.field.p, 5)
            if table.dims != want:
                ok = False
                bad.append(f"{_field_name(field)}/m={m}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    detail = "9 tables to degree 5" + (f"; differ: {bad}" if bad else "")
    return CriterionResult(12, name, ok, elapsed, detail)


def criterion_13(ws: Workspace) -> CriterionResult:
    """The degree-3 grid, the first whose boundary squares see the sign
    twist of the total complex: the squares vanish and the totals are
    [1,2,3,6] over F3 and Q, [1,2,4,7] over F2."""
    name = "degree-3 grid: twisted squares vanish, [1,2,3,6] (F3, Q), [1,2,4,7] (F2)"
    t0 = time.monotonic()
    ok = True
    details = []
    for field, want in ((3, [1, 2, 3, 6]), ("Q", [1, 2, 3, 6]),
                        (2, [1, 2, 4, 7])):
        table = ws.bicomplex_homology("truncpoly(2)", field, 3)
        squares = dict(ws.square_checks)[
            ws.bicomplex_description("truncpoly(2)", field, 3)]
        ok = ok and squares and table.totals() == want
        details.append(f"{_field_name(field)}: {table.totals()}"
                       + ("" if squares else " (squares do not vanish)"))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    return CriterionResult(13, name, ok, elapsed, "; ".join(details))


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
)


def run_all(only=None, log=None):
    """Run the acceptance criteria in order; returns their results."""
    ws = Workspace()
    results = []
    for i, criterion in enumerate(CRITERIA, start=1):
        if only is not None and i not in only:
            continue
        if log:
            log(f"running criterion {i} ...")
        try:
            result = criterion(ws)
        except Exception as exc:
            result = CriterionResult(i, criterion.__doc__ or f"criterion {i}",
                                     False, 0.0, f"raised {exc!r}")
        results.append(result)
    return results

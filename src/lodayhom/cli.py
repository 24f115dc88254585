"""Command-line driver.

Commands: compute, compare, check-product, oracle-bicomplex, validate and
seed-suite.  Reports go to stdout in text, csv or json form (validate: text
or json); diagnostics go to stderr.  Output bytes depend only on the
configuration.

Exit codes: 0 success/agreement; 10 a comparison reported a discrepancy;
2 arguments rejected by ``parse_args``; 1 anything ``run`` rejects, including
malformed --space, --algebra and --coeff text, unreadable algebra files, an
exceeded basis ceiling and failed checks (validate reported violations,
seed-suite had a failing criterion).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .algebra import parse_algebra_expr, parse_coeff_expr
from .exactlinalg import make_field
from .loday import DEFAULT_MAX_BLOCK, build_complex, homology_dims
from .oracle import torus_bicomplex, total_homology
from .simplicial import build_space, parse_space_expr, validate
from .stability import (
    EVIDENCE_NOTE, compare_spaces, product_decomposition_check,
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the ``loday`` command line, built on the first
    call (``parse_args``), never at import, and reused by every later call
    in the process: a parse keeps no state in it, so a rejected argv leaves
    the next parse as it would be alone."""
    parser = argparse.ArgumentParser(
        prog="loday",
        description="homology of algebra-labelled complexes over pointed "
                    "simplicial sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spaces):
        if spaces == 1:
            p.add_argument("--space", required=True)
        elif spaces == 2:
            p.add_argument("--space-a", required=True)
            p.add_argument("--space-b", required=True)
        p.add_argument("--algebra", required=True)
        p.add_argument("--field", required=True)
        p.add_argument("--coeff", default="unit")
        p.add_argument("--max-degree", type=int, required=True)
        p.add_argument("--max-weight", type=int, default=None)
        if spaces:  # the grid of oracle-bicomplex is always unnormalized
            p.add_argument("--no-normalize", action="store_true")
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
        p.add_argument("--max-basis", type=int, default=None,
                       help="ceiling on the total number of labelings of a "
                            f"complex (default {DEFAULT_MAX_BLOCK})")

    common(sub.add_parser("compute", help="homology table of one space"), 1)
    common(sub.add_parser("compare", help="compare two spaces"), 2)
    common(sub.add_parser("check-product",
                          help="product vs wedge-smash decomposition"), 2)
    common(sub.add_parser("oracle-bicomplex",
                          help="torus homology via the grid bicomplex"), 0)
    vp = sub.add_parser("validate", help="validate a space expression")
    vp.add_argument("--space", required=True)
    vp.add_argument("--top-level", type=int, default=3)
    vp.add_argument("--format", choices=("text", "json"), default="text")
    sp = sub.add_parser("seed-suite", help="run the acceptance suite")
    sp.add_argument("--only", default=None,
                    help="comma-separated criterion numbers")
    return parser


def _parse_criteria(text: str, parser) -> tuple:
    """The criterion numbers of ``--only``; anything but a comma-separated
    list of known criteria is a usage error."""
    from . import acceptance  # only seed-suite needs the criteria
    known = range(1, len(acceptance.CRITERIA) + 1)
    try:
        numbers = tuple(sorted({int(x) for x in text.split(",")}))
    except ValueError:
        numbers = ()
    if not numbers or any(n not in known for n in numbers):
        parser.error(f"--only takes comma-separated criterion numbers "
                     f"{known.start}-{known.stop - 1}, got {text!r}")
    return numbers


def parse_args(argv) -> argparse.Namespace:
    """argparse's namespace for ``argv``, which ``run`` reads as it is, once
    it passes the checks argparse does not make (a failed one exits 2)."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "seed-suite":
        if ns.only is not None:
            ns.only = _parse_criteria(ns.only, parser)
        return ns
    for name in ("top_level", "max_degree", "max_weight", "max_basis"):
        if (getattr(ns, name, None) or 0) < 0:
            parser.error(f"--{name.replace('_', '-')} must be >= 0")
    if ns.command == "validate":
        return ns
    try:
        make_field(ns.field)
    except ValueError as exc:
        parser.error(str(exc))
    if ns.algebra.strip() == "poly" and ns.max_weight is None:
        parser.error("--max-weight is required for the algebra 'poly'")
    return ns


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _report(ns, sides, columns, rows, totals, verdict=None) -> str:
    """A homology table (one column ``dim``, no verdict) or a comparison
    (a column per side, and its verdict) in ``ns.format``.

    ``sides`` are ``(label, space)`` pairs, ``rows`` the nonzero
    ``(degree, weight, *dims)`` in order and ``totals`` each column's
    totals by degree.  A text column is as wide as its name."""
    if ns.format == "json":
        def cell(dims):
            return dims[0] if len(dims) == 1 else list(dims)
        if ns.max_weight is None:
            dims = {str(n): cell(at_n) for n, at_n in enumerate(zip(*totals))}
        else:
            dims = {str(n): {} for n in range(ns.max_degree + 1)}
            for n, w, *at_nw in rows:
                dims[str(n)][str(w)] = cell(at_nw)
        return _dump_json({
            "command": ns.command,
            "space": sides[0][1] if len(sides) == 1 else dict(sides),
            "algebra": ns.algebra, "field": ns.field, "coeff": ns.coeff,
            "max_degree": ns.max_degree, "weight_bound": ns.max_weight,
            "dims": dims, "verdict": verdict,
        })
    names = ["degree", "weight", *columns]
    if ns.format == "csv":
        header = names[:2] + ["dimension"] if len(columns) == 1 else names
        lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
        return "\n".join(lines) + "\n"
    lines = [f"command: {ns.command}",
             *(f"{label}: {space}" for label, space in sides),
             f"algebra: {ns.algebra}",
             f"field: {ns.field}",
             f"coeff: {ns.coeff}",
             f"max degree: {ns.max_degree}",
             f"weight bound: {'none' if ns.max_weight is None else ns.max_weight}",
             " ".join(names)]
    lines += [" ".join(f"{v:>{len(name)}}" for v, name in zip(row, names))
              for row in rows]
    lines += [f"{'' if len(columns) == 1 else column + ' '}totals by degree: "
              f"{t}" for column, t in zip(columns, totals)]
    if verdict is not None:
        lines += [f"verdict: {verdict}", f"note: {EVIDENCE_NOTE}"]
    return "\n".join(lines) + "\n"


def run(ns: argparse.Namespace, out=None, err=None) -> int:
    """Execute the namespace ``parse_args`` returns; returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        if ns.command == "seed-suite":
            from . import acceptance
            results = acceptance.run_all(only=ns.only,
                                         log=lambda s: print(s, file=err))
            failed = [r for r in results if not r.passed]
            for r in results:
                status = "PASS" if r.passed else "FAIL"
                print(f"criterion {r.cid:>2}: {status} ({r.seconds:.1f}s) {r.name}",
                      file=out)
            print(f"{len(results) - len(failed)}/{len(results)} criteria passed",
                  file=out)
            return 0 if not failed else 1
        if ns.command == "validate":
            expr = parse_space_expr(ns.space)
            report = validate(build_space(expr, ns.top_level))
            if ns.format == "json":
                out.write(_dump_json({
                    "command": "validate",
                    "space": str(expr),
                    "top_level": ns.top_level,
                    "violations": list(report.violations),
                    "ok": report.ok,
                }))
            else:
                out.write(f"space: {expr}\n")
                out.write("result: pass\n" if report.ok else
                          "result: fail\n" + "\n".join(report.violations) + "\n")
            return 0 if report.ok else 1
        field = make_field(ns.field)
        algebra = parse_algebra_expr(ns.algebra, field)
        coefficients = parse_coeff_expr(ns.coeff, field)
        if ns.command == "compute":
            expr = parse_space_expr(ns.space)
            table = homology_dims(build_complex(
                build_space(expr, ns.max_degree + 1), algebra, coefficients,
                ns.max_degree, ns.max_weight, not ns.no_normalize,
                ns.max_basis))
        elif ns.command == "oracle-bicomplex":
            expr = "prod(S1,S1)"
            table = total_homology(torus_bicomplex(
                algebra, coefficients, ns.max_degree, ns.max_weight,
                ns.max_basis))
        else:
            check = (compare_spaces if ns.command == "compare"
                     else product_decomposition_check)
            report = check(ns.space_a, ns.space_b, algebra, coefficients,
                           ns.max_degree, ns.max_weight, not ns.no_normalize,
                           ns.max_basis)
            out.write(_report(
                ns, (("left", report.left_expr), ("right", report.right_expr)),
                ("left", "right"), [r for r in report.rows if any(r[2:])],
                (report.left_totals(), report.right_totals()), report.verdict))
            return 0 if report.agrees else 10
        out.write(_report(ns, (("space", str(expr)),), ("dim",),
                          [(n, w, d) for (n, w), d in table.nonzero_blocks()],
                          (table.totals(),)))
        return 0
    except Exception as exc:  # internal errors map to exit code 1
        print(f"error: {exc}", file=err)
        return 1


def main(argv=None) -> int:
    code = run(parse_args(sys.argv[1:] if argv is None else argv))
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

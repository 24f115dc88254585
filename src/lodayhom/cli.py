"""Command-line driver.

Commands: compute, compare, check-product, oracle-bicomplex, validate and
seed-suite.  Reports go to stdout in text, csv or json form; diagnostics go to
stderr.  Exit codes: 0 success/agreement, 10 a comparison reported a
discrepancy, 1 internal error or a failed check (validate reported violations,
seed-suite had a failing criterion), 2 usage error.  Output bytes depend only
on the configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import acceptance
from .algebra import Coefficients, load_algebra, parse_algebra_expr
from .exactlinalg import make_field
from .loday import build_complex, homology_dims
from .oracle import torus_bicomplex, total_homology
from .simplicial import build_space, parse_space_expr, validate
from .stability import (
    EVIDENCE_NOTE, ComparisonReport, compare_spaces, product_decomposition_check,
)


@dataclass
class RunConfig:
    command: str
    space: str | None = None
    space_b: str | None = None
    algebra: str | None = None
    field: str | None = None
    coeff: str = "unit"
    max_degree: int = 2
    weight_bound: int | None = None
    normalized: bool = True
    output: str = "text"
    max_basis: int | None = None
    only: str | None = None


def _parse_field_string(text: str):
    if text == "Q":
        return make_field("Q")
    if text.startswith("F") and text[1:].isdigit():
        return make_field(int(text[1:]))
    raise ValueError(f"bad field {text!r}: use F<p> or Q")


def _parse_coeff_string(text: str) -> Coefficients:
    if text == "unit":
        return Coefficients.unit()
    if text == "self":
        return Coefficients.self_algebra()
    if text.startswith("file(") and text.endswith(")"):
        path = text[len("file("):-1]
        with open(path, "r", encoding="utf-8") as fh:
            c_alg = load_algebra(fh.read())
        return Coefficients.through_augmentation(c_alg)
    raise ValueError(f"bad coefficients {text!r}: use unit, self or file(<path>)")


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--no-normalize", action="store_true")
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
        p.add_argument("--max-basis", type=int, default=None)

    common(sub.add_parser("compute", help="homology table of one space"), 1)
    common(sub.add_parser("compare", help="compare two spaces"), 2)
    common(sub.add_parser("check-product",
                          help="product vs wedge-smash decomposition"), 2)
    common(sub.add_parser("oracle-bicomplex",
                          help="torus homology via the grid bicomplex"), 0)
    vp = sub.add_parser("validate", help="validate a space expression")
    vp.add_argument("--space", required=True)
    vp.add_argument("--top-level", type=int, default=3)
    vp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sp = sub.add_parser("seed-suite", help="run the acceptance suite")
    sp.add_argument("--only", default=None,
                    help="comma-separated criterion numbers")
    return parser


def parse_args(argv) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    cfg = RunConfig(command=ns.command)
    if ns.command == "validate":
        cfg.space = ns.space
        cfg.max_degree = ns.top_level
        cfg.output = ns.format
        return cfg
    if ns.command == "seed-suite":
        cfg.only = ns.only
        return cfg
    cfg.algebra = ns.algebra
    cfg.field = ns.field
    cfg.coeff = ns.coeff
    cfg.max_degree = ns.max_degree
    cfg.weight_bound = ns.max_weight
    cfg.normalized = not ns.no_normalize
    cfg.output = ns.format
    cfg.max_basis = ns.max_basis
    if cfg.max_basis is None and os.environ.get("LODAY_MAX_BASIS"):
        try:
            cfg.max_basis = int(os.environ["LODAY_MAX_BASIS"])
        except ValueError:
            parser.error("LODAY_MAX_BASIS must be an integer")
    if ns.command in ("compare", "check-product"):
        cfg.space = ns.space_a
        cfg.space_b = ns.space_b
    elif ns.command == "compute":
        cfg.space = ns.space
    if cfg.max_degree < 0:
        parser.error("--max-degree must be >= 0")
    try:
        _parse_field_string(cfg.field)
    except ValueError as exc:
        parser.error(str(exc))
    if cfg.algebra == "poly" and cfg.weight_bound is None:
        parser.error("--max-weight is required for the algebra 'poly'")
    return cfg


def _json_dims(table, weight_bound):
    if weight_bound is None:
        return {str(n): table.total(n) for n in range(table.max_degree + 1)}
    out = {}
    for n in range(table.max_degree + 1):
        out[str(n)] = {str(w): table.get(n, w) for w in table.weights()
                       if table.get(n, w)}
    return out


def _json_pair_dims(report: ComparisonReport):
    if report.weight_bound is None:
        left, right = report.left_totals(), report.right_totals()
        return {str(n): [left[n], right[n]]
                for n in range(report.max_degree + 1)}
    out = {}
    for n in range(report.max_degree + 1):
        block = {str(w): [l, r] for (m, w, l, r) in report.rows
                 if m == n and (l or r)}
        out[str(n)] = block
    return out


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _emit_table(cfg: RunConfig, table, space_name: str) -> str:
    if cfg.output == "json":
        return _dump_json({
            "command": cfg.command,
            "space": space_name,
            "algebra": cfg.algebra,
            "field": cfg.field,
            "coeff": cfg.coeff,
            "max_degree": cfg.max_degree,
            "weight_bound": cfg.weight_bound,
            "dims": _json_dims(table, cfg.weight_bound),
            "verdict": None,
        })
    if cfg.output == "csv":
        lines = ["degree,weight,dimension"]
        for (n, w), dim in table.nonzero_blocks():
            lines.append(f"{n},{w},{dim}")
        return "\n".join(lines) + "\n"
    lines = [
        f"command: {cfg.command}",
        f"space: {space_name}",
        f"algebra: {cfg.algebra}",
        f"field: {cfg.field}",
        f"coeff: {cfg.coeff}",
        f"max degree: {cfg.max_degree}",
        f"weight bound: {'none' if cfg.weight_bound is None else cfg.weight_bound}",
        "degree weight dim",
    ]
    for (n, w), dim in table.nonzero_blocks():
        lines.append(f"{n:>6} {w:>6} {dim:>3}")
    lines.append(f"totals by degree: {table.totals()}")
    return "\n".join(lines) + "\n"


def _emit_report(cfg: RunConfig, report: ComparisonReport) -> str:
    if cfg.output == "json":
        return _dump_json({
            "command": cfg.command,
            "space": {"left": report.left_expr, "right": report.right_expr},
            "algebra": cfg.algebra,
            "field": cfg.field,
            "coeff": cfg.coeff,
            "max_degree": cfg.max_degree,
            "weight_bound": cfg.weight_bound,
            "dims": _json_pair_dims(report),
            "verdict": report.verdict,
        })
    if cfg.output == "csv":
        lines = ["degree,weight,left,right"]
        for (n, w, l, r) in report.rows:
            if l or r:
                lines.append(f"{n},{w},{l},{r}")
        return "\n".join(lines) + "\n"
    lines = [
        f"command: {cfg.command}",
        f"left: {report.left_expr}",
        f"right: {report.right_expr}",
        f"algebra: {cfg.algebra}",
        f"field: {cfg.field}",
        f"coeff: {cfg.coeff}",
        f"max degree: {cfg.max_degree}",
        f"weight bound: {'none' if cfg.weight_bound is None else cfg.weight_bound}",
        "degree weight left right",
    ]
    for (n, w, l, r) in report.rows:
        if l or r:
            lines.append(f"{n:>6} {w:>6} {l:>4} {r:>5}")
    lines.append(f"left totals by degree: {report.left_totals()}")
    lines.append(f"right totals by degree: {report.right_totals()}")
    lines.append(f"verdict: {report.verdict}")
    lines.append(f"note: {EVIDENCE_NOTE}")
    return "\n".join(lines) + "\n"


def run(cfg: RunConfig, out=None, err=None) -> int:
    """Execute a validated configuration; returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        if cfg.command == "seed-suite":
            only = None
            if cfg.only:
                only = {int(x) for x in cfg.only.split(",")}
            results = acceptance.run_all(only=only, log=lambda s: print(s, file=err))
            failed = [r for r in results if not r.passed]
            for r in results:
                status = "PASS" if r.passed else "FAIL"
                print(f"criterion {r.cid:>2}: {status} ({r.seconds:.1f}s) {r.name}",
                      file=out)
            print(f"{len(results) - len(failed)}/{len(results)} criteria passed",
                  file=out)
            return 0 if not failed else 1
        if cfg.command == "validate":
            expr = parse_space_expr(cfg.space)
            space = build_space(expr, cfg.max_degree)
            report = validate(space)
            if cfg.output == "json":
                out.write(_dump_json({
                    "command": "validate",
                    "space": str(expr),
                    "top_level": cfg.max_degree,
                    "violations": list(report.violations),
                    "ok": report.ok,
                }))
            else:
                out.write(f"space: {expr}\n")
                out.write("result: pass\n" if report.ok else
                          "result: fail\n" + "\n".join(report.violations) + "\n")
            return 0 if report.ok else 1
        field = _parse_field_string(cfg.field)
        algebra = parse_algebra_expr(cfg.algebra, field)
        coefficients = _parse_coeff_string(cfg.coeff)
        if cfg.command == "compute":
            expr = parse_space_expr(cfg.space)
            space = build_space(expr, cfg.max_degree + 1)
            complex_ = build_complex(space, algebra, coefficients,
                                     cfg.max_degree, cfg.weight_bound,
                                     cfg.normalized, cfg.max_basis)
            out.write(_emit_table(cfg, homology_dims(complex_), str(expr)))
            return 0
        if cfg.command == "oracle-bicomplex":
            bicomplex = torus_bicomplex(algebra, coefficients, cfg.max_degree,
                                        cfg.weight_bound, cfg.max_basis)
            table = total_homology(bicomplex, cfg.max_degree)
            out.write(_emit_table(cfg, table, "prod(S1,S1)"))
            return 0
        if cfg.command == "compare":
            report = compare_spaces(cfg.space, cfg.space_b, algebra,
                                    coefficients, cfg.max_degree,
                                    cfg.weight_bound, cfg.normalized,
                                    cfg.max_basis)
        else:
            report = product_decomposition_check(cfg.space, cfg.space_b,
                                                 algebra, coefficients,
                                                 cfg.max_degree,
                                                 cfg.weight_bound,
                                                 cfg.normalized, cfg.max_basis)
        out.write(_emit_report(cfg, report))
        return 0 if report.agrees else 10
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

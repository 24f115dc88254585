"""Pinned bytes of every report command in every format.

Each case runs one argv through ``parse_args`` and ``run`` and compares its
exit code and the sha256 of its stdout and of its stderr with the values the
reports had before the report writer was rewritten, so a change to any byte
of a text, csv or json report, or of an error message, fails here.  Text is
the default format, so its argv carries no ``--format``.
"""

import hashlib
import io

import pytest

from lodayhom.cli import parse_args, run

TORUS = "prod(S1,S1)"
WEDGE = "wedge(wedge(S1,S1),sphere(2))"

REPORTS = {
    "compute-totals": ["compute", "--space", "S1", "--algebra",
                       "truncpoly(2)", "--field", "F3", "--max-degree", "3"],
    "compute-weights": ["compute", "--space", "S1", "--algebra", "poly",
                        "--field", "F3", "--max-degree", "2",
                        "--max-weight", "3"],
    "compute-finite-weights": ["compute", "--space", "sphere(2)",
                               "--algebra", "truncpoly(3)", "--field", "F2",
                               "--max-degree", "2", "--max-weight", "4"],
    "compute-self": ["compute", "--space", "S1", "--algebra",
                     " truncpoly( 3 ) ", "--field", "Q", "--coeff", " self",
                     "--max-degree", "3"],
    "compute-unnormalized": ["compute", "--space", "S1", "--algebra",
                             "truncpoly(2)", "--field", "F2",
                             "--max-degree", "2", "--no-normalize"],
    "compute-point": ["compute", "--space", "pt", "--algebra", "exterior",
                      "--field", "F5", "--max-degree", "2"],
    "compare-agree": ["compare", "--space-a", TORUS, "--space-b", WEDGE,
                      "--algebra", "truncpoly(2)", "--field", "F2",
                      "--coeff", "unit", "--max-degree", "2"],
    "compare-discrepancy": ["compare", "--space-a", TORUS, "--space-b", WEDGE,
                            "--algebra", "truncpoly(2)", "--field", "F3",
                            "--coeff", "unit", "--max-degree", "2"],
    "compare-weights": ["compare", "--space-a", "S1", "--space-b",
                        "sphere(2)", "--algebra", "poly", "--field", "F3",
                        "--max-degree", "2", "--max-weight", "3"],
    "check-product": ["check-product", "--space-a", "S1", "--space-b", "S1",
                      "--algebra", "truncpoly(2)", "--field", "F3",
                      "--max-degree", "2"],
    "check-product-weights": ["check-product", "--space-a", "S1",
                              "--space-b", "S1", "--algebra", "poly",
                              "--field", "F3", "--max-weight", "3",
                              "--max-degree", "2"],
    "oracle-bicomplex": ["oracle-bicomplex", "--algebra", "truncpoly(2)",
                         "--field", "F3", "--max-degree", "2"],
    "oracle-bicomplex-weights": ["oracle-bicomplex", "--algebra", "poly",
                                 "--field", "F2", "--max-degree", "2",
                                 "--max-weight", "3"],
    "ceiling": ["compute", "--space", TORUS, "--algebra", "truncpoly(2)",
                "--field", "F3", "--max-degree", "2", "--max-basis", "10"],
    "malformed-algebra": ["compute", "--space", "S1", "--algebra",
                          "truncpoly(x)", "--field", "F3", "--max-degree", "1"],
}
VALIDATE = {
    "validate-pass": ["validate", "--space", "smash(S1,sphere(2))",
                      "--top-level", "3"],
    "validate-malformed": ["validate", "--space", "wedge(S1)"],
}
CASES = {
    **{f"{name}-{fmt}": argv + ([] if fmt == "text" else ["--format", fmt])
       for name, argv in REPORTS.items() for fmt in ("text", "csv", "json")},
    **{f"{name}-{fmt}": argv + ([] if fmt == "text" else ["--format", fmt])
       for name, argv in VALIDATE.items() for fmt in ("text", "json")},
}

# (exit code, sha256 of stdout, sha256 of stderr), first 16 hex digits each
PINS = {
    'ceiling-csv': (1, 'e3b0c44298fc1c14', '329fda6e5a19312f'),
    'ceiling-json': (1, 'e3b0c44298fc1c14', '329fda6e5a19312f'),
    'ceiling-text': (1, 'e3b0c44298fc1c14', '329fda6e5a19312f'),
    'check-product-csv': (10, '3660b81a151fd7ac', 'e3b0c44298fc1c14'),
    'check-product-json': (10, '5fafd80f0b24a77e', 'e3b0c44298fc1c14'),
    'check-product-text': (10, 'bbf33150bb9c6f24', 'e3b0c44298fc1c14'),
    'check-product-weights-csv': (0, '149f9310f49572c1', 'e3b0c44298fc1c14'),
    'check-product-weights-json': (0, 'affb914093c7c921', 'e3b0c44298fc1c14'),
    'check-product-weights-text': (0, '233c91fdce949b46', 'e3b0c44298fc1c14'),
    'compare-agree-csv': (0, '8770643f3a469b88', 'e3b0c44298fc1c14'),
    'compare-agree-json': (0, 'f14d070c4419f5e4', 'e3b0c44298fc1c14'),
    'compare-agree-text': (0, '9d6ee8ba4720554c', 'e3b0c44298fc1c14'),
    'compare-discrepancy-csv': (10, '3660b81a151fd7ac', 'e3b0c44298fc1c14'),
    'compare-discrepancy-json': (10, '438f3999d4422777', 'e3b0c44298fc1c14'),
    'compare-discrepancy-text': (10, '79fdb6b0dacdd518', 'e3b0c44298fc1c14'),
    'compare-weights-csv': (10, '6047f6314d79a1e3', 'e3b0c44298fc1c14'),
    'compare-weights-json': (10, '40c5d03e7df2bead', 'e3b0c44298fc1c14'),
    'compare-weights-text': (10, '379f465fab6cadb1', 'e3b0c44298fc1c14'),
    'compute-finite-weights-csv': (0, '9c690f415e67c4cc', 'e3b0c44298fc1c14'),
    'compute-finite-weights-json': (0, 'd7790577217255a9', 'e3b0c44298fc1c14'),
    'compute-finite-weights-text': (0, '63b48b2df5e81abb', 'e3b0c44298fc1c14'),
    'compute-point-csv': (0, '017816d59047d338', 'e3b0c44298fc1c14'),
    'compute-point-json': (0, '314707ea45a29ca1', 'e3b0c44298fc1c14'),
    'compute-point-text': (0, '979c945594926bfd', 'e3b0c44298fc1c14'),
    'compute-self-csv': (0, '05c9fac691e25262', 'e3b0c44298fc1c14'),
    'compute-self-json': (0, '38f85b7ac6322a77', 'e3b0c44298fc1c14'),
    'compute-self-text': (0, '8e09d3972698401b', 'e3b0c44298fc1c14'),
    'compute-totals-csv': (0, 'b597d325ae2fccd7', 'e3b0c44298fc1c14'),
    'compute-totals-json': (0, '6a709705c5d665b5', 'e3b0c44298fc1c14'),
    'compute-totals-text': (0, 'b7b341b70b10539c', 'e3b0c44298fc1c14'),
    'compute-unnormalized-csv': (0, '6aa16cfea0a757fc', 'e3b0c44298fc1c14'),
    'compute-unnormalized-json': (0, '923e64f68648b77c', 'e3b0c44298fc1c14'),
    'compute-unnormalized-text': (0, 'b8b3f6e5f7d0fdad', 'e3b0c44298fc1c14'),
    'compute-weights-csv': (0, '6b10d962e46136f3', 'e3b0c44298fc1c14'),
    'compute-weights-json': (0, '0d4ccec40de69e9a', 'e3b0c44298fc1c14'),
    'compute-weights-text': (0, 'c671009d68d030cd', 'e3b0c44298fc1c14'),
    'malformed-algebra-csv': (1, 'e3b0c44298fc1c14', 'd7200c912d1acbaa'),
    'malformed-algebra-json': (1, 'e3b0c44298fc1c14', 'd7200c912d1acbaa'),
    'malformed-algebra-text': (1, 'e3b0c44298fc1c14', 'd7200c912d1acbaa'),
    'oracle-bicomplex-csv': (0, '5ea2bf52a5801120', 'e3b0c44298fc1c14'),
    'oracle-bicomplex-json': (0, 'fa3d563e9f999f17', 'e3b0c44298fc1c14'),
    'oracle-bicomplex-text': (0, '5c6b06a620fd7c2c', 'e3b0c44298fc1c14'),
    'oracle-bicomplex-weights-csv': (0, 'f9fb1ea7cf6c3464', 'e3b0c44298fc1c14'),
    'oracle-bicomplex-weights-json': (0, 'bce8357528e134f1', 'e3b0c44298fc1c14'),
    'oracle-bicomplex-weights-text': (0, 'a4802dd423f21688', 'e3b0c44298fc1c14'),
    'validate-malformed-json': (1, 'e3b0c44298fc1c14', 'f23a933f1b21ab22'),
    'validate-malformed-text': (1, 'e3b0c44298fc1c14', 'f23a933f1b21ab22'),
    'validate-pass-json': (0, '569e874e418b4ced', 'e3b0c44298fc1c14'),
    'validate-pass-text': (0, 'a06fbe1a9b23304a', 'e3b0c44298fc1c14'),
}


def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(parse_args(argv), out=out, err=err)
    return (code, *(hashlib.sha256(s.getvalue().encode()).hexdigest()[:16]
                    for s in (out, err)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_pinned(case):
    assert outcome(CASES[case]) == PINS[case]

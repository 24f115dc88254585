#!/usr/bin/env python3
"""Model independence: homology only sees the homotopy type.

S^2 enters twice, as the smash square of the minimal circle and as the
quotient of the standard 2-simplex by its boundary.  The level tables differ
(the smash model even has a non-degenerate edge) but every homology dimension
agrees, as it must.  Suspension identities come along for free.
"""

from lodayhom import (
    Coefficients, build_complex, build_space, compare_spaces, homology_dims,
    truncated_poly, validate,
)

UNIT = Coefficients.unit()
A = truncated_poly(3, 2)

smash_model = build_space("sphere(2)", 3)
delta_model = build_space("simplexsphere(2)", 3)
print("Two models of the 2-sphere, truncated at level 3:")
print(f"  smash model level sizes: {list(smash_model.level_sizes)} "
      f"(non-degenerate per level: {smash_model.nondegenerate_counts()})")
print(f"  Delta^2/boundary sizes : {list(delta_model.level_sizes)} "
      f"(non-degenerate per level: {delta_model.nondegenerate_counts()})")
for model in (smash_model, delta_model):
    assert validate(model).ok

hs = homology_dims(build_complex(smash_model, A, UNIT, 2))
hd = homology_dims(build_complex(delta_model, A, UNIT, 2))
print(f"  homology over F3, smash model: {hs.totals()}")
print(f"  homology over F3, Delta model: {hd.totals()}")
print(f"  blockwise equal: {hs.dims == hd.dims}\n")

print("Suspension identities at the dimension level:")
for left, right in (("susp(S1)", "sphere(2)"),
                    ("susp(S1)", "simplexsphere(2)"),
                    ("susp(simplexsphere(2))", "sphere(3)")):
    degree = 2 if "3" not in right else 1
    report = compare_spaces(left, right, A, UNIT, degree)
    print(f"  {left:>24} vs {right}: {report.verdict}")

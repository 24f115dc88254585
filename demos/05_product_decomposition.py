#!/usr/bin/env python3
"""Decomposing products: L(X x Y) against L(X v Y v X^Y).

The suspension of a product splits as the wedge of the factors and their
smash, so a stable construction must satisfy this decomposition for every
pair of connected spaces.  Smooth algebras do (shown here for k[t] per weight);
the square-zero quotient k[t]/t^2 fails at the first opportunity.  With unit
coefficients the check takes the wedge side as the Künneth convolution of
the homologies of the factors and of their smash, and the product side on
the factors' own axes; the direct wedge computation reproduces the former
exactly.
"""

from lodayhom import (
    Coefficients, build_complex, build_space, homology_dims, polynomial,
    product_decomposition_check, truncated_poly, wedge_kunneth_dims,
)

UNIT = Coefficients.unit()

print("k[t] over F_3 (smooth), weights <= 3:")
report = product_decomposition_check("S1", "S1", polynomial(3), UNIT, 2,
                                     weight_bound=3)
print(f"  {report.left_expr} vs {report.right_expr}")
print(f"  verdict: {report.verdict}\n")

print("k[t]/t^2 over F_3 (square-zero):")
report = product_decomposition_check("S1", "S1", truncated_poly(3, 2), UNIT, 2)
print(f"  verdict: {report.verdict}")
print(f"  left  totals: {report.left_totals()}")
print(f"  right totals: {report.right_totals()}\n")

print("The wedge side is already determined by the factors (Künneth):")
h = lambda text: homology_dims(build_complex(
    build_space(text, 3), truncated_poly(3, 2), UNIT, 2))
predicted = wedge_kunneth_dims(
    wedge_kunneth_dims(h("S1"), h("S1"), 2), h("smash(S1,S1)"), 2)
print(f"  convolution of H(S1), H(S1), H(S1^S1): {predicted.totals()}")
print(f"  direct wedge computation:              "
      f"{h('wedge(wedge(S1,S1),smash(S1,S1))').totals()}")

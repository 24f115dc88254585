#!/usr/bin/env python3
"""Torus homology two ways.

The grid evaluates the labeling functor on S^1_n x S^1_m directly: the
(n, m) term is one copy of the algebra for each of the (n+1)(m+1) - 1
non-basepoint cells.  It is a ``LodayComplex`` like the diagonal one, over
two circle axes instead of one, and ``homology_dims`` ranks its total
complex, twisted by a sign, as it ranks any other; it must give the same
dimensions as the diagonal product-space complex (Eilenberg-Zilber).  Both
label cells, enumerate bases and pull boundaries with the same core; what
the check exercises independently is the bisimplicial cell structure of the
grid, its per-axis face maps and the twisted totalization, against the
diagonal simplicial.product.
"""

from lodayhom import (
    Coefficients, build_complex, build_space, homology_dims, torus_bicomplex,
    truncated_poly,
)

UNIT = Coefficients.unit()
A = truncated_poly(3, 2)

bicomplex = torus_bicomplex(A, UNIT, max_degree=2)
dims = {}
for (n, m, _), labelings in bicomplex.terms.items():
    dims[(n, m)] = dims.get((n, m), 0) + len(labelings)
print("Grid terms for k[t]/t^2 (dimension = 2^(cells)):")
for n in range(3):
    row = [f"({n},{m}): {dims[(n, m)]:>3}" for m in range(3) if n + m <= 3]
    print("  " + "   ".join(row))
print()

via_grid = homology_dims(bicomplex)
direct = homology_dims(build_complex(build_space("prod(S1,S1)", 3), A, UNIT, 2))
print(f"total complex homology: {via_grid.totals()}")
print(f"diagonal product model: {direct.totals()}")
print(f"blockwise equal: {via_grid.dims == direct.dims}")

print("\nSame check over F_2 and Q:")
for field in (2, "Q"):
    a = truncated_poly(field, 2)
    grid = homology_dims(torus_bicomplex(a, UNIT, 2))
    diag = homology_dims(build_complex(build_space("prod(S1,S1)", 3), a, UNIT, 2))
    name = "Q" if field == "Q" else f"F{field}"
    print(f"  {name}: grid {grid.totals()} vs diagonal {diag.totals()} "
          f"(equal: {grid.dims == diag.dims})")

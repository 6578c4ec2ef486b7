"""Why the unit sphere is invariant: the defect obeys a linear ODE.

For the literally projected field, psi(t) = |u(t)|_{L2}^2 - 1 satisfies

    psi'(t) = 2 (|u|_{H2}^2 + 2 |u|_{H1}^2 + |u|_{L2n}^{2n}) psi(t),

so psi(0) = 0 forces psi to vanish forever (invariance), while any nonzero
initial defect grows at exactly the predicted exponential rate.  The demo
measures the initial rate off the sphere and compares with the formula.
"""

import numpy as np

from sphereflow import (
    DomainSpec,
    ModelParams,
    SpectralGrid,
    basis_mode,
    invariance_growth_test,
    random_unit_field,
)

grid = SpectralGrid(DomainSpec(1, (np.pi,), (16,)))
params = ModelParams(n=1)

print("scaled ground mode, |u0|^2 = 1 + eps:")
print("   eps       measured rate    predicted rate   rel. error")
for eps in (1e-3, -1e-3, 1e-2, -1e-2):
    rep = invariance_growth_test(basis_mode(grid, 1), params, eps)
    print(f"{eps:+8.0e}   {rep.measured_rate:.10f}   "
          f"{rep.predicted_rate:.10f}   {rep.relative_error:.2e}")

print("\nrandom state, n = 2:")
g8 = SpectralGrid(DomainSpec(1, (np.pi,), (8,)))
u = random_unit_field(g8, np.random.default_rng(9))
for eps in (1e-3, 1e-2):
    rep = invariance_growth_test(u, ModelParams(n=2), eps)
    print(f"{eps:+8.0e}   {rep.measured_rate:.10f}   "
          f"{rep.predicted_rate:.10f}   {rep.relative_error:.2e}")

print("\non the sphere the defect stays identically zero: psi(0) = 0 "
      "is rejected as degenerate by the probe.")

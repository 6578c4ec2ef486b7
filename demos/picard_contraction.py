"""The mild solution as a fixed point, built by Picard iteration.

The truncated map Phi(u) = S(.) u0 + S * [theta_m(|u|_{X_p}) F(u)] is a
strict contraction on a short horizon.  Iterating it from the free
evolution converges geometrically to the mild solution; the sampled
Lipschitz factor of Phi shrinks like sqrt(T), the truncation is invisible
while the space-time norm stays below m, and the limit agrees with a
fine RK4 integration.
"""

import numpy as np

from sphereflow import (
    DomainSpec,
    ModelParams,
    SpectralGrid,
    StepperConfig,
    TruncationTheta,
    contraction_factor_probe,
    integrate,
    picard_solve,
    random_unit_field,
)

grid = SpectralGrid(DomainSpec(1, (np.pi,), (14,)))
u0 = random_unit_field(grid, np.random.default_rng(2))
params = ModelParams(n=2)
T = 0.02
theta = TruncationTheta(1e6)

res = picard_solve(u0, theta, params, T=T, num_points=81)
print(f"picard on [0, {T}]: {res.iterations} iterations, "
      f"converged = {res.converged}")
print(" iter   sup-V distance   factor")
for j, d in enumerate(res.distances, start=1):
    factor = f"{res.factors[j - 2]:.4f}" if j >= 2 else "  -  "
    print(f"  {j:3d}   {d:.6e}   {factor}")

ref = integrate(u0, params,
                StepperConfig(scheme="rk4", h=T / 400, t_end=T,
                              renormalize=False, record_every=5))
# both hold coefficients at the same 81 times: L2 distances by Parseval
gap = np.sqrt(((res.solution.coeffs - ref.coeffs) ** 2).sum(axis=1).max())
print(f"\nsup-L2 gap to the RK4 reference: {gap:.3e}")

res10 = picard_solve(u0, TruncationTheta(1e7), params, T=T, num_points=81)
print("effect of raising the truncation level tenfold:",
      np.max(np.abs(res.solution.coeffs - res10.solution.coeffs)))

print("\nsampled contraction factor of Phi (finer grid, more modes):")
fine = SpectralGrid(DomainSpec(1, (np.pi,), (32,)))
u0f = random_unit_field(fine, np.random.default_rng(2))
for horizon in (T, T / 4, T / 16):
    L = contraction_factor_probe(u0f, theta, params, horizon, samples=8, seed=0)
    print(f"  T = {horizon:.5f}:  L = {L:.4f}")
print("(each quartering of T roughly halves the factor: the sqrt(T) law)")

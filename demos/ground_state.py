"""The n = 1 flow is a continuous power iteration.

With the exponent n = 1 the projected field on the unit sphere reduces to
du/dt = -A u + <A u, u> u, the gradient flow of the Rayleigh quotient of
A = lap^2 - 2 lap.  From any random start the trajectory relaxes to the
ground eigenmode: on (0, pi) the quotient converges to mu_1 = 3 and the
energy to Y = 2.5.
"""

import numpy as np

from sphereflow import (
    DomainSpec,
    ModelParams,
    SpectralGrid,
    StepperConfig,
    basis_mode,
    integrate,
    norm_l2,
    random_unit_field,
    rayleigh_quotient,
)

grid = SpectralGrid(DomainSpec(1, (np.pi,), (64,)))
u0 = random_unit_field(grid, np.random.default_rng(42))
params = ModelParams(n=1)
cfg = StepperConfig(scheme="etd1", h=1e-3, t_end=10.0, record_every=500)

traj = integrate(u0, params, cfg)
led = traj.ledger

print(" t      Rayleigh <Au,u>   energy Y        |u_t|_L2")
# the Rayleigh quotient <Ac, c> of each record's coefficients, by Parseval
rayleigh = ((grid.A_eigs * traj.coeffs) * traj.coeffs).sum(axis=1)
for t, rq, Y, ut in zip(led.t, rayleigh, led.Y, np.sqrt(led.ut_l2_sq)):
    print(f"{t:5.2f}   {rq:.12f}   {Y:.10f}   {ut:.3e}")

ground = basis_mode(grid, 1)
sign = 1.0 if norm_l2(traj.final_state - ground) < 1.0 else -1.0
print(f"\ndistance to {'+' if sign > 0 else '-'}ground mode:",
      f"{norm_l2(traj.final_state - sign * ground):.3e}")
print(f"Rayleigh quotient gap: {abs(rayleigh_quotient(traj.final_state) - 3.0):.3e}")
print(f"energy gap to 2.5:     {abs(led.Y[-1] - 2.5):.3e}")

"""The exact dissipation ledger of the constrained flow.

Along solutions the energy Y(u) = ||u||_V^2 / 2 + |u|_{L2n}^{2n} / (2n)
decreases at exactly the rate |du/dt|_{L2}^2, so

    Y(u(T)) - Y(u(0)) + integral_0^T |u_t|^2 dt = 0

up to time-quadrature error.  With a fourth-order stepper the residual is
pure trapezoid error and shrinks by 4 when the step halves.
"""

import numpy as np

from sphereflow import (
    DomainSpec,
    ModelParams,
    SpectralGrid,
    StepperConfig,
    energy_identity_residual,
    integrate,
    random_unit_field,
)

grid = SpectralGrid(DomainSpec(1, (np.pi,), (12,)))
u0 = random_unit_field(grid, np.random.default_rng(11))
params = ModelParams(n=2)

residuals = {}
for h in (4e-5, 2e-5, 1e-5):
    cfg = StepperConfig(scheme="rk4", h=h, t_end=0.1, record_every=1,
                        keep_snapshots=False)
    traj = integrate(u0, params, cfg)
    residuals[h] = energy_identity_residual(traj)
    led = traj.ledger
    print(f"h = {h:.0e}:  Y {led.Y[0]:.8f} -> {led.Y[-1]:.8f}   "
          f"dissipated {led.dissipation_integral[-1]:.8f}   "
          f"identity residual {residuals[h]:.3e}")

hs = sorted(residuals, reverse=True)
for a, b in zip(hs, hs[1:]):
    print(f"residual ratio {a:.0e} / {b:.0e} = {residuals[a] / residuals[b]:.3f}"
          "   (4 means second order)")

print("\nglobal bound: sup ||u||_V <=", 2 * led.Y[0])
print("observed sup ||u||_V:       ", np.sqrt(led.v_norm_sq).max())

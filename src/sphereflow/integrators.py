"""Time integration of the projected flow with manifold retraction.

Every scheme runs through one kernel, stepped only by ``integrate``, that
marches the coefficients c of u.  A stage evaluates the vector field
k = N - A c, N being the coefficients of F(u), and a scheme is only its
stage coefficients (a, b) in ``TABLEAUS``:

    c_i = c + h sum_j a[i-1][j] k_j    state of stage i >= 1 (stage 0 at c)
    c+  = c + h sum_j b[j] k_j         explicit: projected Euler, RK4
    c+  = exp(-hA) c + b[0] N_0        exponential: ETD1, b naming phi_weights columns

ETD1 is exact on the stiff linear part; the explicit schemes are subject to
the stability limit h <~ 2 / mu_max.  A per-step L2 renormalization (the
cheapest retraction consistent with the invariance of the unit sphere) is
applied by default, and a blow-up guard turns runaway V-norms into errors.
With V = 1 + A the guard reads |c|_V^2 = |c|^2 + <A c, c> of each new state
from sums the step takes anyway: |c|^2 from the retraction and <A c, c>
from the next stage, before that stage takes F.  The state never leaves
coefficient space: u's values are computed for the final state only, or
for the last valid state when the guard trips.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import energy
from .model import ModelParams, _a_terms, _F_values, _Work
from .spectral import Field, _vdot, coeff_norms_sq, norm_l2, phi_weights


# scheme -> (a, b) as in the module docstring
TABLEAUS = {
    "etd1": ((), ("h_phi1",)),
    "projected_euler": ((), (1.0,)),
    "rk4": (((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1 / 6, 1 / 3, 1 / 3, 1 / 6)),
}
SCHEMES = tuple(TABLEAUS)
# the schemes whose b names phi_weights columns
EXPONENTIAL = tuple(name for name, (_, b) in TABLEAUS.items() if isinstance(b[0], str))
V_NORM_LIMIT = 1e8  # the blow-up guard trips above this V-norm
# The guard passes a squared V-norm vn_sq exactly when
# -inf < vn_sq <= _VN_SQ_MAX: finite, NaN failing both comparisons, and at
# most V_NORM_LIMIT**2.  integrate tests this inline and calls _blow_up.
_VN_SQ_MAX = V_NORM_LIMIT**2


class BlowUpError(RuntimeError):
    """The V-norm crossed the blow-up guard; carries the last valid state."""

    def __init__(self, message, t=None, last_state=None):
        super().__init__(message)
        self.t = t
        self.last_state = last_state


def divides(h: float, t_end: float) -> bool:
    """Whether a whole number of steps h ends at t_end, to 1e-9 relative."""
    return abs(round(t_end / h) * h - t_end) <= 1e-9 * t_end


# the rule each StepperConfig field meets, as (test, what the field must be)
STEPPER_RULES = {
    "scheme": (lambda x: x in SCHEMES, f"one of {SCHEMES}"),
    "h": (lambda x: 0 < x < math.inf, "finite and positive"),
    "t_end": (lambda x: 0 <= x < math.inf, "finite and nonnegative"),
    "record_every": (lambda x: x >= 1 and x % 1 == 0, "an integer >= 1"),
    "renormalize": (lambda x: isinstance(x, (bool, np.bool_)), "a boolean"),
    "keep_snapshots": (lambda x: isinstance(x, (bool, np.bool_)), "a boolean"),
}


def check_stepper_field(name: str, value) -> None:
    """Raise ValueError unless value meets the rule of StepperConfig field name."""
    test, what = STEPPER_RULES[name]
    if not test(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class StepperConfig:
    scheme: str = "etd1"
    h: float = 1e-3
    t_end: float = 1.0
    renormalize: bool = True
    record_every: int = 1
    keep_snapshots: bool = True

    def __post_init__(self):
        for name in STEPPER_RULES:
            check_stepper_field(name, getattr(self, name))
        if not divides(self.h, self.t_end):
            raise ValueError(f"step h = {self.h!r} does not divide t_end = {self.t_end!r}")


@dataclass
class TrajectoryRecord:
    """The energy ledger (one numpy column per ``EnergyReport`` field), the
    coefficients of the state at its record times if kept (one row per
    record, shaped ``(records,) + grid.shape`` as ``SpaceTimeGrid.coeffs``)
    and the final state."""

    ledger: energy.EnergyReport
    coeffs: np.ndarray | None
    final_state: Field


def stability_limit(grid) -> float:
    """The largest step the explicit schemes take stably, 2 / mu_max."""
    return 2.0 / grid.mu_max


def default_step(scheme: str, grid) -> float:
    """Default step: StepperConfig.h for exponential schemes, else stability-limited."""
    if scheme in EXPONENTIAL:
        return StepperConfig.h
    return min(StepperConfig.h, stability_limit(grid) / 4)


class _Kernel:
    """One scheme for one grid, model and step size, with the h-dependent
    weights and every grid-sized array of a step made once, so that a step
    allocates none.  A stage is the tuple (N, k, s): N, k = N - A c and the
    integral s of u^(2n) as F took it.  N is F's ``work.N`` and k is
    written over A c in ``ks[i]``, row i of one array of the stages, so a
    stage's arrays live until the next stage of the same index.
    ``advance`` writes the next c into the array of ``pair`` that c is not
    (the first when c is neither), so it never overwrites the c it reads,
    and the c it returns holds until the advance after next.  Callers hold
    ``np.errstate(over="ignore")`` around their steps."""

    def __init__(self, scheme: str, grid, p: ModelParams, h: float):
        a, b = TABLEAUS[scheme]
        self.A_eigs = grid.A_eigs  # read once, not on every stage
        # the nonzero (j, h a_ij) of each stage row.  h a_ij and a one-term
        # step's h b_0 are float64 0-d arrays: times an array they give the
        # bits of the Python float, which numpy would convert again on
        # every product
        self.ha = [[(j, np.array(h * x)) for j, x in enumerate(row) if x] for row in a]
        self.work = _Work(grid, p)
        block = np.empty((len(b),) + grid.shape)
        self.ks = list(block)  # views of its rows
        pair = self.pair = (np.empty(grid.shape), np.empty(grid.shape))
        views, self.k_rows = (None, None), None
        if scheme in EXPONENTIAL:
            self.decay, *self.hb = phi_weights(grid, h, "decay", *b)
            # exp(-z) is exactly 0 past z = 746 (semigroup_factors), where
            # decay * c adds a zero, which leaves h phi1 N as it is (the full
            # sum would differ only on a -0 where c > 0, which needs
            # |N| < 1e-308 mu): the update runs on the leading box of the
            # nonzero decays, through views of decay, of each array of the
            # pair and of a product array made once
            box = tuple(slice(0, int(i.max(initial=-1)) + 1) for i in np.nonzero(self.decay))
            self.box, self.decay_box = box, self.decay[box]
            self.box_product = np.empty(self.decay_box.shape)
            views = tuple(x[box] for x in pair)
        elif len(b) == 1:
            self.decay, self.hb = None, [np.array(h * b[0])]
        else:
            # sum_j h b_j k_j as one matrix-vector product of the row hb and
            # the rows of ks, written through a flat view of each array of
            # the pair; ci holds the state of stages 1, 2, ...
            self.decay, self.hb = None, np.array([h * x for x in b])
            self.k_rows, self.ci = block.reshape(len(b), -1), np.empty(grid.shape)
            views = tuple(x.reshape(-1) for x in pair)
        # advance's (next c, its view, c, c's view), indexed by whether c is
        # pair[0]: each view is the decay box for ETD1, flat for RK4
        self.slots = ((pair[0], views[0], pair[1], views[1]),
                      (pair[1], views[1], pair[0], views[0]))

    def stage(self, c: np.ndarray, values: np.ndarray | None = None,
              a_terms: tuple | None = None, i: int = 0) -> tuple:
        """Stage i at c; a caller that holds u at c (``values``) or
        ``_a_terms(A_eigs, c, ks[i])`` passes them."""
        ac, a_sq = _a_terms(self.A_eigs, c, self.ks[i]) if a_terms is None else a_terms
        n, s = _F_values(self.work, c, a_sq, values)
        return n, np.subtract(n, ac, ac), s

    def advance(self, c: np.ndarray, first: tuple) -> np.ndarray:
        """The next coefficients, given ``first = stage(c)``, stage 0, whose
        k is ``ks[0]``.  ETD1 takes decay * c + h phi1 N_0; projected Euler
        c + h k_0; RK4 forms each stage state c + h a_ij k_j and then the
        sum of h b_j k_j as one matrix-vector product over the rows of
        ``ks``, to which it adds c."""
        out, out_view, prev, c_view = self.slots[c is self.pair[0]]
        mul = np.multiply  # looked up once: a small grid's step is call overhead
        if self.decay is not None:
            # IEEE addition commutes, so this is decay * c + hb * N to the bit
            mul(self.hb[0], first[0], out)
            if c is not prev:  # a c the kernel did not make
                c_view = c[self.box]
            out_view += mul(self.decay_box, c_view, self.box_product)
            return out
        if self.k_rows is None:
            return np.add(c, mul(self.hb[0], first[1], out), out)
        add, ci, stage, ks = np.add, self.ci, self.stage, self.ks
        for i, row in enumerate(self.ha, 1):
            # out holds each h a_ij k_j until the final sum
            x = c
            for j, w in row:
                x = add(x, mul(w, ks[j], out), ci)
            stage(x, None, None, i)
        self.hb.dot(self.k_rows, out_view)
        return add(c, out, out)


def _blow_up(grid, vn_sq: float, t: float, last: np.ndarray) -> None:
    """Raise the BlowUpError of a squared V-norm ``vn_sq`` that failed the
    guard at time t; ``last`` holds the coefficients of the state before."""
    raise BlowUpError(
        f"blow-up at t = {t:.6g}: V-norm {math.sqrt(max(vn_sq, 0.0))!r} "
        f"exceeded {V_NORM_LIMIT:g}",
        t=t, last_state=Field._wrap(grid, grid.to_values(last)),
    )


# one unretracted integrate step each, kept for the benchmark's per-step time
def step_etd1(u: Field, p: ModelParams, h: float) -> Field:
    """One exponential Euler step from u, unretracted: integrate to t_end = h."""
    cfg = StepperConfig("etd1", h, h, renormalize=False, keep_snapshots=False)
    return integrate(u, p, cfg).final_state


def step_rk4(u: Field, p: ModelParams, h: float) -> Field:
    """One classical RK4 step from u, unretracted: integrate to t_end = h."""
    cfg = StepperConfig("rk4", h, h, renormalize=False, keep_snapshots=False)
    return integrate(u, p, cfg).final_state


def integrate(u0: Field, p: ModelParams, cfg: StepperConfig) -> TrajectoryRecord:
    """Advance the projected flow from u0 to t_end.

    With ``cfg.renormalize`` the state is retracted onto the unit sphere,
    c / |c|, at t = 0 and after every step.  Without it the state is never
    retracted: the run starts from u0's coefficients as given, and its first
    stage takes u0's values, so one step to t_end = h is one step of the
    scheme from u0 itself.  This is the only code that steps the kernel.

    The state marches in coefficient space (so unexcited high modes decay
    to the dynamical floor instead of being pinned at transform roundoff).
    Every ``record_every`` steps and at t_end it records an energy report
    (norm drift | |u|_L2^2 - 1 | included) from the first stage of the next
    step, so a record costs no transform, and with ``keep_snapshots`` the
    state's coefficients c into one preallocated array; the reports are
    stacked into the ledger's columns once, at the end.  u's values are
    computed once, for the final state.  The dissipation integral is the
    trapezoid of |u_t|^2 over every step, with u_t = -A u + F(u).  Raises
    BlowUpError carrying the last valid state and time if the guard trips;
    it trips before F runs on the offending state.
    """
    grid = u0.grid
    if cfg.scheme not in EXPONENTIAL and cfg.h > stability_limit(grid):
        warnings.warn(
            f"step {cfg.h} exceeds the explicit stability limit "
            f"{stability_limit(grid):.3e} for scheme {cfg.scheme}",
            stacklevel=2,
        )
    h = cfg.h
    n_steps = int(round(cfg.t_end / h))
    kernel = _Kernel(cfg.scheme, grid, p, h)

    # the state starts in the pair, and ks[0] is the transforms' middle
    # product until the first stage and after the last one
    A_eigs, ac = kernel.A_eigs, kernel.ks[0]
    c = grid.to_coeffs(u0.values, kernel.pair[1], ac)
    record_every, renormalize = cfg.record_every, cfg.renormalize
    if renormalize:
        r = math.sqrt(_vdot(c, c))
        if r == 0.0:
            raise ValueError("cannot renormalize the zero field")
        c /= r

    rows = []
    # steps 0, record_every, 2 record_every, ... and the last step
    n_records = math.ceil(n_steps / record_every) + 1
    coeffs = np.empty((n_records,) + grid.shape) if cfg.keep_snapshots else None
    dissipation = 0.0
    with np.errstate(over="ignore"):  # _F_values raises on an overflowing power
        advance, stage_at = kernel.advance, kernel.stage
        # unretracted, c is u0's and stage 0 takes u0's values as given
        stage = stage_at(c, None if renormalize else u0.values)
        for i in range(n_steps + 1):
            _, k, s = stage
            ut_sq = float(_vdot(k, k))
            if i:
                dissipation += 0.5 * h * (prev_ut_sq + ut_sq)
            prev_ut_sq = ut_sq
            if i % record_every == 0 or i == n_steps:
                sums = coeff_norms_sq(grid, c)
                if coeffs is not None:
                    coeffs[len(rows)] = c
                rows.append(energy.make_report(None, p, i * h, ut_sq, dissipation, sums, s))
            if i == n_steps:
                break
            last, c = c, advance(c, stage)
            r_sq = float(_vdot(c, c))
            if not math.isfinite(r_sq):
                _blow_up(grid, r_sq, (i + 1) * h, last)
            if renormalize:
                c /= math.sqrt(r_sq)  # c is the kernel's array, not last
            a_terms = _a_terms(A_eigs, c, ac)
            a_sq = a_terms[1]
            # |c|_V^2 of the state advance reached, before it is retracted
            vn_sq = r_sq * (1.0 + a_sq) if renormalize else r_sq + a_sq
            if not -math.inf < vn_sq <= _VN_SQ_MAX:
                _blow_up(grid, vn_sq, (i + 1) * h, last)
            stage = stage_at(c, None, a_terms)

    ledger = energy.EnergyReport(*map(np.array, zip(*rows)))
    return TrajectoryRecord(ledger=ledger, coeffs=coeffs,
                            final_state=Field._wrap(grid, grid.to_values(c, None, ac)))


@dataclass(frozen=True)
class OrderEstimate:
    order: float
    errors: tuple
    h_list: tuple


def convergence_order_probe(u0: Field, p: ModelParams, scheme: str, h_list,
                            t_end: float = 0.05) -> OrderEstimate:
    """Estimate the convergence order of a scheme by Richardson comparison.

    Runs the retracted scheme at each h in ``h_list`` (geometric, at least
    three entries) against an RK4 reference at min(h) / 16 and returns the
    least-squares slope of log error versus log h.  A reference step, or
    for an explicit scheme a step in ``h_list``, above the stability limit
    raises ValueError before any run.
    """
    h_list = sorted(float(h) for h in h_list)
    if len(h_list) < 3:
        raise ValueError("need at least three step sizes")

    def config(name, h):
        return StepperConfig(scheme=name, h=h, t_end=t_end, record_every=10**9,
                             keep_snapshots=False)

    # every step is checked against t_end before the first run
    ref_cfg = config("rk4", h_list[0] / 16)
    cfgs = [config(scheme, h) for h in h_list]
    limit = stability_limit(u0.grid)
    if ref_cfg.h > limit:
        raise ValueError(f"RK4 reference step {ref_cfg.h:.3e} exceeds the stability "
                         f"limit {limit:.3e}; use smaller steps")
    if scheme not in EXPONENTIAL and h_list[-1] > limit:
        raise ValueError(f"{scheme} step {h_list[-1]:.3e} exceeds the stability "
                         f"limit {limit:.3e}; use smaller steps")
    ref = integrate(u0, p, ref_cfg).final_state
    errors = [norm_l2(integrate(u0, p, cfg).final_state - ref) for cfg in cfgs]
    x = np.log(np.asarray(h_list))
    y = np.log(np.asarray(errors))
    A = np.vstack([x, np.ones_like(x)]).T
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    return OrderEstimate(order=float(coef[0]), errors=tuple(errors), h_list=tuple(h_list))

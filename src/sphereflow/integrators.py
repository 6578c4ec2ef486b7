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
applied by default, and two guards turn a run that leaves the flow into an
error, both from sums the step takes anyway.  The blow-up guard reads
|c|_V^2 = |c|^2 + <A c, c> of each new state (V = 1 + A): |c|^2 from the
retraction and <A c, c> from the next stage, before that stage takes F.
On the sphere the flow is a gradient flow, so its energy
Y = (1 + <A c, c>) / 2 + s / (2n), s the integral of u^(2n) that the next
stage's F takes, never rises; a step that raises it by more than
ENERGY_RISE_MAX * Y(u0) is unstable, at any step size.  The state never
leaves coefficient space: u's values are computed for the final state
only, or for the last valid state when a guard trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import energy
from .model import ModelParams, _a_terms, _F_values, _Work
from .spectral import Field, coeff_norms_sq, norm_l2, phi_weights


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
# a retracted run fails when one step raises Y by more than this times
# Y(u0): valid runs rise by at most ~4e-16 of it, unstable ones by 1e-6 or more
ENERGY_RISE_MAX = 1e-12
# the bytes of coefficients a record block holds when snapshots are off
_RECORD_BLOCK_BYTES = 1 << 15


class BlowUpError(RuntimeError):
    """The V-norm crossed the blow-up guard, or a retracted step raised the
    energy; carries the last valid state."""

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
    ``advance`` writes the next c into the array of ``pair`` that c is not,
    so it never overwrites the c it reads, and the c it returns holds until
    the advance after next; ETD1's c must be one of ``pair``.  Callers hold
    ``np.errstate(over="ignore")`` around their steps."""

    def __init__(self, scheme: str, grid, p: ModelParams, h: float):
        a, b = TABLEAUS[scheme]
        self.grid = grid
        # the nonzero (j, h a_ij) of each stage row.  h a_ij is a float64
        # 0-d array: times an array it gives the bits of the Python float,
        # which numpy would convert again on every product
        self.ha = [[(j, np.array(h * x)) for j, x in enumerate(row) if x] for row in a]
        self.work = _Work(grid, p)
        block = np.empty((len(b),) + grid.shape)
        self.ks = list(block)  # views of its rows
        pair = self.pair = (np.empty(grid.shape), np.empty(grid.shape))
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
        else:
            # sum_j h b_j k_j as one matrix-vector product of the row hb and
            # the rows of ks, written through a flat view of each array of
            # the pair; ci holds the state of stages 1, 2, ... if any
            self.decay, self.hb = None, np.array([h * x for x in b])
            self.k_rows = block.reshape(len(b), -1)
            self.ci = np.empty(grid.shape) if a else None
            views = tuple(x.reshape(-1) for x in pair)
        # advance's (next c, its view, c's view), indexed by whether c is
        # pair[0]: each view is the decay box for ETD1, flat otherwise
        self.slots = ((pair[0], views[0], views[1]), (pair[1], views[1], views[0]))

    def stage(self, c: np.ndarray, values: np.ndarray | None = None,
              a_terms: tuple | None = None, i: int = 0) -> tuple:
        """Stage i at c; a caller that holds u at c (``values``) or
        ``_a_terms(grid, c, ks[i])`` passes them."""
        ac, a_sq = _a_terms(self.grid, c, self.ks[i]) if a_terms is None else a_terms
        n, s = _F_values(self.work, c, a_sq, values)
        return n, np.subtract(n, ac, ac), s

    def advance(self, c: np.ndarray, first: tuple) -> np.ndarray:
        """The next coefficients, given ``first = stage(c)``, stage 0, whose
        k is ``ks[0]``.  ETD1 takes decay * c + h phi1 N_0, for a c of
        ``pair``.  An explicit scheme forms each stage state c + h a_ij k_j
        and then the sum of h b_j k_j as one matrix-vector product over the
        rows of ``ks``, to which it adds c."""
        out, out_view, c_view = self.slots[c is self.pair[0]]
        mul = np.multiply  # looked up once: a small grid's step is call overhead
        if self.decay is not None:
            # IEEE addition commutes, so this is decay * c + hb * N to the bit
            mul(self.hb[0], first[0], out)
            out_view += mul(self.decay_box, c_view, self.box_product)
            return out
        add, ci, stage, ks = np.add, self.ci, self.stage, self.ks
        for i, row in enumerate(self.ha, 1):
            # out holds each h a_ij k_j until the final sum
            x = c
            for j, w in row:
                x = add(x, mul(w, ks[j], out), ci)
            stage(x, None, None, i)
        self.hb.dot(self.k_rows, out_view)
        return add(c, out, out)


def _blow_up(grid, t: float, last: np.ndarray, cause: str) -> None:
    """Raise the BlowUpError of the state a step reached at time t, for the
    cause named; ``last`` holds the coefficients of the state before."""
    raise BlowUpError(f"blow-up at t = {t:.6g}: {cause}", t=t,
                      last_state=Field._wrap(grid, grid.to_values(last)))


def _v_norm_cause(vn_sq: float) -> str:
    """The cause of a squared V-norm ``vn_sq`` that failed the guard."""
    return f"V-norm {math.sqrt(max(vn_sq, 0.0))!r} exceeded {V_NORM_LIMIT:g}"


def _rise_cause(cfg: StepperConfig, grid, rise: float, y_u0: float) -> str:
    """The cause of a retracted step that raised the energy by ``rise``,
    given Y(u0) = ``y_u0``."""
    return (f"the energy Y rose by {rise:.3g} ({rise / y_u0:.2g} Y(u0)) in one step, which "
            f"the flow on the sphere never does: the step is unstable ({cfg.scheme} at "
            f"h = {cfg.h:.4g}; explicit stability limit {stability_limit(grid):.4g})")


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
    Every ``record_every`` steps and at t_end it records the state's
    coefficients c and, from the first stage of the next step, |u_t|^2, the
    dissipation so far and F's integral of u^(2n), so a record costs no
    transform: c goes into a block of rows (of the snapshot array with
    ``keep_snapshots``), the scalars into columns made once.  The Parseval
    sums are taken per block, and one energy report (norm drift
    | |u|_L2^2 - 1 | included) is made of the columns at the end: the
    ledger.  u's values are computed once, for the final state.  The
    dissipation integral is the trapezoid of |u_t|^2 over every step, with
    u_t = -A u + F(u).  Raises BlowUpError carrying the last valid state and
    time if the V-norm guard trips, before F runs on the offending state, or
    if a retracted step raises the energy Y by more than ENERGY_RISE_MAX *
    Y(u0), which the next stage's F tells; that error names the rise, the
    scheme, h and the explicit stability limit.
    """
    grid = u0.grid
    h = cfg.h
    n_steps = int(round(cfg.t_end / h))
    kernel = _Kernel(cfg.scheme, grid, p, h)

    # the state starts in the pair, and ks[0] is the transforms' middle
    # product until the first stage and after the last one
    ac, dot = kernel.ks[0], grid.dot
    c = grid.to_coeffs(u0.values, kernel.pair[1], ac)
    record_every, renormalize = cfg.record_every, cfg.renormalize
    if renormalize:
        r = math.sqrt(dot(c, c))
        if r == 0.0:
            raise ValueError("cannot renormalize the zero field")
        c /= r

    # steps 0, record_every, 2 record_every, ... and the last step
    n_records = math.ceil(n_steps / record_every) + 1
    # a record copies c into the current block of ``window`` and its scalars
    # into columns; the Parseval sums are taken once per block of per_block
    # records.  With snapshots a block is a range of rows of coeffs, and
    # without it is one buffer of about _RECORD_BLOCK_BYTES, or c itself
    # when a state outgrows that (per_block = 1, window None)
    per_block = max(1, _RECORD_BLOCK_BYTES // c.nbytes)
    coeffs = np.empty((n_records,) + grid.shape) if cfg.keep_snapshots else None
    if coeffs is not None:
        window = coeffs[:per_block]
    else:
        window = np.empty((min(per_block, n_records),) + grid.shape) if per_block > 1 else None
    ut_col, dissipation_col, s_col = np.empty((3, n_records))
    sums = np.empty((3, n_records))
    r = lo = 0  # records made, and the first record of the current block
    dissipation = 0.0
    norm = np.empty(())  # the retraction's divisor, as a float64 0-d array
    with np.errstate(over="ignore"):  # _F_values raises on an overflowing power
        advance, stage_at, divide = kernel.advance, kernel.stage, np.divide
        a_terms = _a_terms(grid, c, ac)
        a_sq = a_terms[1]
        # unretracted, c is u0's and stage 0 takes u0's values as given
        stage = stage_at(c, None if renormalize else u0.values, a_terms)
        # the law reads 2 Y - 1 = <A c, c> + s / n of each state on the
        # sphere; off it the law does not hold, and no rise trips
        inv_n = 1.0 / p.n  # a float product costs less than a division by an int
        prev_y = y0 = a_sq + stage[2] * inv_n
        rise_max = ENERGY_RISE_MAX * (y0 + 1.0) if renormalize else math.inf
        for i in range(n_steps + 1):
            _, k, s = stage
            ut_sq = float(dot(k, k))
            if i:
                dissipation += 0.5 * h * (prev_ut_sq + ut_sq)
                y = a_sq + s * inv_n
                if y - prev_y > rise_max:
                    _blow_up(grid, i * h, last,
                             _rise_cause(cfg, grid, (y - prev_y) / 2, (y0 + 1.0) / 2))
                prev_y = y
            prev_ut_sq = ut_sq
            if i % record_every == 0 or i == n_steps:
                if window is not None:
                    window[r - lo] = c
                ut_col[r], dissipation_col[r], s_col[r] = ut_sq, dissipation, s
                r += 1
                if r - lo == per_block:
                    block = c[np.newaxis] if window is None else window
                    coeff_norms_sq(grid, block, sums[:, lo:r])
                    lo = r
                    if coeffs is not None:
                        window = coeffs[r:r + per_block]
            if i == n_steps:
                break
            last, c = c, advance(c, stage)
            r_sq = float(dot(c, c))
            if not math.isfinite(r_sq):
                _blow_up(grid, (i + 1) * h, last, _v_norm_cause(r_sq))
            if renormalize:  # c is the kernel's array, not last
                norm[()] = math.sqrt(r_sq)
                divide(c, norm, c)
            a_terms = _a_terms(grid, c, ac)
            a_sq = a_terms[1]
            # |c|_V^2 of the state advance reached, before it is retracted
            vn_sq = r_sq * (1.0 + a_sq) if renormalize else r_sq + a_sq
            if not -math.inf < vn_sq <= _VN_SQ_MAX:
                _blow_up(grid, (i + 1) * h, last, _v_norm_cause(vn_sq))
            stage = stage_at(c, None, a_terms)

    if r > lo:  # the last block, short of per_block records
        coeff_norms_sq(grid, window[:r - lo], sums[:, lo:r])
    # record j is at step j record_every, the last at step n_steps; the
    # integer step index times h has the bits of the Python product i * h
    t = np.minimum(np.arange(n_records) * record_every, n_steps) * h
    ledger = energy.make_report(None, p, t, ut_col, dissipation_col, sums, s_col)
    # u's values go into the array of the pair that c is not
    values = grid.to_values(c, kernel.pair[c is kernel.pair[0]], ac)
    return TrajectoryRecord(ledger=ledger, coeffs=coeffs, final_state=Field._wrap(grid, values))


@dataclass(frozen=True)
class OrderEstimate:
    order: float
    errors: tuple
    h_list: tuple


def _reference_step(grid, scheme: str, h_min: float, t_end: float) -> float:
    """The step of convergence_order_probe's RK4 reference for a scheme
    whose finest step is h_min: the largest step that divides t_end and is
    at most both the stability limit and h_min, or h_min / 4 when the
    scheme is RK4 itself.  RK4 at a first-order scheme's finest step is
    orders of magnitude more accurate than that scheme there; against RK4
    a quarter of its step puts the reference's error at 4^-4 of the finest
    error, near the floor its rounding sets."""
    h = min(h_min / 4 if scheme == "rk4" else h_min, stability_limit(grid))
    return t_end / max(1, math.ceil(t_end / h - 1e-9))


def convergence_order_probe(u0: Field, p: ModelParams, scheme: str, h_list,
                            t_end: float = 0.05) -> OrderEstimate:
    """Estimate the convergence order of a scheme by Richardson comparison.

    Runs the retracted scheme at each h in ``h_list`` (geometric, at least
    three distinct entries) against an RK4 reference at ``_reference_step``
    and returns the least-squares slope of log error versus log h.  For an
    explicit scheme a step in ``h_list`` above the stability limit raises
    ValueError before any run.
    """
    h_list = sorted(float(h) for h in h_list)
    if len(set(h_list)) < 3:  # fewer make the least-squares fit rank-deficient
        raise ValueError(f"h_list must hold at least three distinct step sizes, got {h_list}")

    def config(name, h):
        return StepperConfig(scheme=name, h=h, t_end=t_end, record_every=10**9,
                             keep_snapshots=False)

    # every step is checked against t_end before the first run
    cfgs = [config(scheme, h) for h in h_list]
    limit = stability_limit(u0.grid)
    if scheme not in EXPONENTIAL and h_list[-1] > limit:
        raise ValueError(f"{scheme} step {h_list[-1]:.3e} exceeds the stability "
                         f"limit {limit:.3e}; use smaller steps")
    ref_cfg = config("rk4", _reference_step(u0.grid, scheme, h_list[0], t_end))
    ref = integrate(u0, p, ref_cfg).final_state
    errors = [norm_l2(integrate(u0, p, cfg).final_state - ref) for cfg in cfgs]
    x = np.log(np.asarray(h_list))
    y = np.log(np.asarray(errors))
    A = np.vstack([x, np.ones_like(x)]).T
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    return OrderEstimate(order=float(coef[0]), errors=tuple(errors), h_list=tuple(h_list))

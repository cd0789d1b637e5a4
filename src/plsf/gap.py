"""Energy-gap diagnostics: exceedance partitions, the energy-identity
residual, both forms of the gap functional, the bounded-variation
functional and measure bound, and the exponent bookkeeping.

Everything here is a pure post-process over trajectory records.  The
gradient-energy trace rho(tau) = ||grad v||_2^2 is treated as the
piecewise-linear interpolant of its samples; threshold crossings,
integrals and difference quotients are all taken against that
interpolant, so the diagnostics depend only on the CSV contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientFamilyError
from .galerkin import TrajectoryRecord

# -- exponent table ---------------------------------------------------------


@dataclass(frozen=True)
class ExponentTable:
    """Closed-form exponents of the a-priori machinery as functions of p.

    Two candidate beta formulas circulate, differing in one denominator
    term: beta = p(5p-9) / (2(-p^2+8p-9)) (the "statement" variant) and
    beta = p(5p-9) / (2(-p^2+8p-6)) (the "proof" variant).  Both are
    evaluated, the closed-form root of the exponent-balance condition
    that defines beta arbitrates, and `beta_variant` names the winner (the
    loser's deviation is in `beta_discrepancy`).
    """

    p: float
    zeta: float
    gamma: float
    lam: float
    b: float
    c_interp: float
    d: float
    beta_statement: float
    beta_proof: float
    beta_balance: float
    beta_variant: str
    beta_discrepancy: float
    valid_full: bool
    valid_zeta_only: bool
    violation: str | None
    dim_warning: str | None = None
    dim: int = 3

    @property
    def beta(self) -> float:
        """The arbitrated beta value."""
        return self.beta_statement if self.beta_variant == "statement" else self.beta_proof


def _beta_formula(p: float, shift: float) -> float:
    """p(5p-9) / (2(-p^2+8p-shift)); NaN at the pole p = 4 + sqrt(16-shift)."""
    den = 2 * (-p * p + 8 * p - shift)
    return p * (5 * p - 9) / den if den != 0 else float("nan")


def _beta_balance(p: float) -> float:
    """Solve 1/delta + 1/delta' = 1 for beta in closed form.

    With lam = 2(3-p)/(3p-5),
        1/delta  = A * beta / (1 - beta),  A = (2-p)/p + (5p-6) lam / p^2,
        1/delta' = B / (1 - beta),         B = 3 lam (2-p) / (2p),
    the condition (A beta + B) / (1 - beta) = 1 is linear in beta, with
    the root beta = (1 - B) / (1 + A).  NaN unless the left side increases
    in beta (1 + A > 0) and the root lies in (1e-12, 1 - 1e-12).
    """
    lam = 2.0 * (3.0 - p) / (3.0 * p - 5.0)
    A = (2.0 - p) / p + (5.0 * p - 6.0) * lam / (p * p)
    B = 3.0 * lam * (2.0 - p) / (2.0 * p)
    if 1.0 + A <= 0.0:
        return float("nan")
    beta = (1.0 - B) / (1.0 + A)
    if not 1e-12 < beta < 1.0 - 1e-12:
        return float("nan")
    return beta


def exponents(p: float, dim: int = 3) -> ExponentTable:
    """Evaluate every closed-form exponent at p with validity flags.

    The full table needs p in (9/5, 2); zeta, gamma and lam only need
    p in (5/3, 2).  Out-of-range requests are still evaluated (boundary
    diagnostics) but flagged with the violated bound named.  The closed
    forms come from 3D Sobolev embeddings; requesting them for another
    dimension sets `dim_warning` instead of silently reusing them.
    """
    dim_warning = None
    if dim != 3:
        dim_warning = (
            f"exponent formulas are derived for dim = 3; dim = {dim} values "
            f"are nominal only"
        )
    violation = None
    valid_full = 9.0 / 5.0 < p < 2.0
    valid_zeta = 5.0 / 3.0 < p < 2.0
    if not valid_full:
        if p <= 9.0 / 5.0:
            violation = f"p = {p} violates p > 9/5"
        else:
            violation = f"p = {p} violates p < 2"
    if p <= 5.0 / 3.0:
        violation = f"p = {p} violates p > 5/3 (zeta, gamma, lam undefined)"
        nan = float("nan")
        return ExponentTable(p, nan, nan, nan, (3 - p) / 2, p / (3 * p - 2),
                             2 * p / (7 * p - 6), nan, nan, nan, "undefined", nan,
                             False, False, violation, dim_warning, dim)
    zeta = 3.0 * (p - 1.0) / (3.0 * p - 5.0)
    gamma = zeta - 1.0
    lam = 2.0 * (3.0 - p) / (3.0 * p - 5.0)
    b = (3.0 - p) / 2.0
    c_interp = p / (3.0 * p - 2.0)
    d = 2.0 * p / (7.0 * p - 6.0)
    beta_s = _beta_formula(p, 9)
    beta_p = _beta_formula(p, 6)
    beta_bal = _beta_balance(p)
    if np.isnan(beta_bal):
        variant, disc = "undefined", float("nan")
    elif abs(beta_s - beta_bal) <= abs(beta_p - beta_bal):
        variant, disc = "statement", abs(beta_p - beta_bal)
    else:
        variant, disc = "proof", abs(beta_s - beta_bal)
    return ExponentTable(
        p=p, zeta=zeta, gamma=gamma, lam=lam, b=b, c_interp=c_interp, d=d,
        beta_statement=beta_s, beta_proof=beta_p, beta_balance=beta_bal,
        beta_variant=variant, beta_discrepancy=disc,
        valid_full=valid_full, valid_zeta_only=valid_zeta and not valid_full,
        violation=violation, dim_warning=dim_warning, dim=dim,
    )


# -- piecewise-linear sample helpers ----------------------------------------


def _interp(times: np.ndarray, values: np.ndarray, t: float) -> float:
    return float(np.interp(t, times, values))


def _integrate_linear(times: np.ndarray, values: np.ndarray, a: float, b: float) -> float:
    """Exact integral of the piecewise-linear interpolant over [a, b]."""
    if b <= a:
        return 0.0
    lo = int(np.searchsorted(times, a, side="right"))
    hi = int(np.searchsorted(times, b, side="left"))
    ts = np.concatenate([[a], times[lo:hi], [b]])
    vs = np.concatenate([[_interp(times, values, a)], values[lo:hi],
                         [_interp(times, values, b)]])
    return float(np.trapezoid(vs, ts))


def _centered_derivative(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Centered difference quotients at the samples, one-sided at the ends."""
    dv = np.empty_like(values)
    dv[1:-1] = (values[2:] - values[:-2]) / (times[2:] - times[:-2])
    dv[0] = (values[1] - values[0]) / (times[1] - times[0])
    dv[-1] = (values[-1] - values[-2]) / (times[-1] - times[-2])
    return dv


# -- exceedance partitions ---------------------------------------------------


@dataclass(frozen=True)
class ExceedanceInterval:
    start: float
    end: float
    left_truncated: bool = False
    right_truncated: bool = False

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ExceedancePartition:
    """The exceedance set {tau in [s, t] : rho^gamma(tau) > tan(alpha)}
    decomposed into ordered disjoint nonempty open intervals.

    Interior endpoints sit on the threshold exactly on the linear
    interpolant; endpoints flagged truncated coincide with s or t
    instead.  The `admissible` flag records whether rho^gamma stayed
    below the threshold at both s and t (the admissibility precondition
    of the gap construction), also when the interval open there rounds
    to length zero and is not listed."""

    alpha: float
    gamma: float
    threshold: float
    s: float
    t: float
    intervals: tuple[ExceedanceInterval, ...]
    admissible: bool

    @property
    def total_measure(self) -> float:
        return float(sum(iv.length for iv in self.intervals))


def _check_window(record: TrajectoryRecord, s: float, t: float) -> None:
    """Raise ValueError unless s < t and [s, t] lies in the record's span,
    up to 1e-12."""
    if not s < t:  # NaN fails it too
        raise ValueError(f"need s < t, got s={s}, t={t}")
    t0, t1 = record.span
    if s < t0 - 1e-12 or t > t1 + 1e-12:
        raise ValueError(f"[{s}, {t}] is outside the record span [{t0}, {t1}]")


def exceedance_partition(
    record: TrajectoryRecord, s: float, t: float, alpha: float, gamma: float
) -> ExceedancePartition:
    """Decompose {rho^gamma > tan(alpha)} within [s, t] into intervals.

    Each sign change of rho^gamma - tan(alpha) between neighbouring
    samples is one crossing, taken in closed form on the linear segment;
    the crossings alternate up and down, so after adding s (when the set
    is entered already at s) and t (when it is still open at t) they pair
    off into intervals.
    """
    _check_window(record, s, t)
    if not 0.0 <= alpha < np.pi / 2:
        raise ValueError(f"alpha must lie in [0, pi/2), got {alpha}")
    thr = float(np.tan(alpha))

    times = record.times
    y_all = record.rho**gamma
    lo = int(np.searchsorted(times, s, side="right"))
    hi = int(np.searchsorted(times, t, side="left"))
    ts = np.concatenate([[s], times[lo:hi], [t]])
    ys = np.concatenate([[_interp(times, y_all, s)], y_all[lo:hi],
                         [_interp(times, y_all, t)]])

    above = ys > thr
    left_open, right_open = bool(above[0]), bool(above[-1])
    i = np.flatnonzero(above[:-1] != above[1:])
    crossings = ts[i] + (thr - ys[i]) * (ts[i + 1] - ts[i]) / (ys[i + 1] - ys[i])
    crossings = np.clip(crossings, ts[i], ts[i + 1])
    edges = ([s] if left_open else []) + crossings.tolist() + ([t] if right_open else [])
    n = len(edges) // 2
    # a pair whose crossing rounds onto its partner (a left-truncated one
    # onto s, say) has end <= start and is dropped once the flags are set;
    # a NaN edge fails `<=` and stays in view
    intervals = tuple(
        ExceedanceInterval(a, b, left_open and k == 0, right_open and k == n - 1)
        for k, (a, b) in enumerate(zip(edges[0::2], edges[1::2])) if not b <= a
    )
    return ExceedancePartition(
        alpha=alpha, gamma=gamma, threshold=thr, s=s, t=t,
        intervals=intervals, admissible=not left_open and not right_open,
    )


# -- energy identities -------------------------------------------------------


def energy_residual(record: TrajectoryRecord, s: float, t: float) -> float:
    """| ||v(t)||^2 + 2 int_s^t rho_tilde - ||v(s)||^2 | with the integral
    by composite trapezoid over the samples; [s, t] must lie in the
    record's span."""
    _check_window(record, s, t)
    e_t = _interp(record.times, record.energy, t)
    e_s = _interp(record.times, record.energy, s)
    integral = _integrate_linear(record.times, record.rho_tilde, s, t)
    return abs(e_t + 2.0 * integral - e_s)


def energy_residual_over(record: TrajectoryRecord, part: ExceedancePartition) -> float:
    """Sum of per-interval energy-identity residuals over the partition."""
    return float(sum(energy_residual(record, iv.start, iv.end) for iv in part.intervals))


# -- the gap functional -------------------------------------------------------


def dissipation_form(record: TrajectoryRecord, part: ExceedancePartition) -> float:
    """2 int_{J_N(alpha)} rho_tilde dtau."""
    return float(
        2.0
        * sum(
            _integrate_linear(record.times, record.rho_tilde, iv.start, iv.end)
            for iv in part.intervals
        )
    )


def jump_form(record: TrajectoryRecord, part: ExceedancePartition) -> float:
    """- sum_h ( ||v(t_h)||^2 - ||v(s_h)||^2 )."""
    total = 0.0
    for iv in part.intervals:
        total -= _interp(record.times, record.energy, iv.end) - _interp(
            record.times, record.energy, iv.start
        )
    return float(total)


@dataclass
class GapEstimate:
    """Both gap forms per (N, alpha), the family limsup per alpha, and the
    plateau-extrapolated gap value."""

    s: float
    t: float
    gamma: float
    alphas: list[float]
    # the results, which gap_estimate fills in
    per_alpha: list[list[dict]] = field(default_factory=list, init=False)
    limsup_dissipation: list[float] = field(default_factory=list, init=False)
    M_estimate: float = field(default=0.0, init=False)
    M_alpha: float = field(default=float("nan"), init=False)
    plateau_found: bool = field(default=False, init=False)
    measure_decay_ok: bool = field(default=True, init=False)
    converged_endpoints: bool = field(default=True, init=False)
    # the partition behind each per_alpha row, for callers that need the
    # intervals again; not part of the report schema
    partitions: list[list[ExceedancePartition]] = field(
        default_factory=list, init=False, repr=False)


# Plateau criterion for the alpha -> pi/2 limit: successive limsups that
# differ by less than this relative amount count as stable.
PLATEAU_RTOL = 1e-3

# Convergence proxy: the two largest-N records count as agreeing at a time
# where their gradient norms differ by less than this relative amount.
CONVERGED_RTOL = 0.01


def converged_times_mask(records: list[TrajectoryRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Proxy for the full-measure convergence set: times where the two
    largest-N records agree on ||grad v||_2 and ||grad v||_p within
    CONVERGED_RTOL.  Returns (times of the largest-N record, boolean mask)."""
    ordered = sorted(records, key=lambda r: r.N)
    ref, second = ordered[-1], ordered[-2]
    times = ref.times
    g2_ref = np.sqrt(ref.rho)
    g2_sec = np.interp(times, second.times, np.sqrt(second.rho))
    gp_ref = ref.grad_p_norm
    gp_sec = np.interp(times, second.times, second.grad_p_norm)
    scale2 = np.maximum(np.abs(g2_ref), 1e-300)
    scalep = np.maximum(np.abs(gp_ref), 1e-300)
    mask = (np.abs(g2_ref - g2_sec) / scale2 < CONVERGED_RTOL) & (
        np.abs(gp_ref - gp_sec) / scalep < CONVERGED_RTOL
    )
    return times, mask


def gap_estimate(
    records: list[TrajectoryRecord],
    s: float,
    t: float,
    alphas,
    gamma: float,
) -> GapEstimate:
    """Evaluate both gap forms over the resolution family and extrapolate.

    The limsup over N is realized as the max over the available family;
    the alpha -> pi/2 limit as the largest alpha whose limsup sits on a
    stability plateau (successive grid values within PLATEAU_RTOL
    relative).  Nothing is silently extrapolated: the grids and the
    plateau flag travel with the result.
    """
    if len(records) < 2:
        raise InsufficientFamilyError(
            f"gap extrapolation needs at least 2 resolutions, got {len(records)}"
        )
    alphas = sorted(float(a) for a in alphas)
    if not alphas:
        raise ValueError("the alpha grid is empty")
    est = GapEstimate(s=s, t=t, gamma=gamma, alphas=alphas)

    times, mask = converged_times_mask(records)
    for tau in (s, t):
        idx = int(np.argmin(np.abs(times - tau)))
        if not mask[idx]:
            est.converged_endpoints = False

    prev_measures = None
    for alpha in alphas:
        row = []
        parts = []
        for rec in sorted(records, key=lambda r: r.N):
            part = exceedance_partition(rec, s, t, alpha, gamma)
            parts.append(part)
            row.append(
                {
                    "N": rec.N,
                    "dissipation_form": dissipation_form(rec, part),
                    "jump_form": jump_form(rec, part),
                    "J_measure": part.total_measure,
                    "intervals": [[iv.start, iv.end] for iv in part.intervals],
                    "admissible": part.admissible,
                }
            )
        measures = [r["J_measure"] for r in row]
        if prev_measures is not None:
            # |J_N(alpha)| must shrink as alpha grows, uniformly over N
            if any(m > pm + 1e-12 for m, pm in zip(measures, prev_measures)):
                est.measure_decay_ok = False
        prev_measures = measures
        est.per_alpha.append(row)
        est.partitions.append(parts)
        est.limsup_dissipation.append(max(r["dissipation_form"] for r in row))

    est.M_estimate = est.limsup_dissipation[-1]
    est.M_alpha = alphas[-1]
    est.plateau_found = False
    for i in range(len(alphas) - 1, 0, -1):
        a, b = est.limsup_dissipation[i - 1], est.limsup_dissipation[i]
        if abs(a - b) <= max(PLATEAU_RTOL * max(abs(a), abs(b)), 1e-12):
            est.M_estimate = b
            est.M_alpha = alphas[i]
            est.plateau_found = True
            break
    return est


# -- bounded-variation functional and measure bound ---------------------------


def lemma5_functional(record: TrajectoryRecord, zeta: float) -> float:
    """int (1 + rho)^(-zeta) |d rho / dtau| dtau over the whole record,
    with centered-difference derivatives and composite trapezoid."""
    times = record.times
    drho = _centered_derivative(times, record.rho)
    integrand = (1.0 + record.rho) ** (-zeta) * np.abs(drho)
    return float(np.trapezoid(integrand, times))


def lemma5_monotone_bound(record: TrajectoryRecord, zeta: float) -> float:
    """Exact value of the functional for the piecewise-linear rho: on each
    segment |d rho| (1 + rho)^(-zeta) integrates to the change of the
    antiderivative (1 + rho)^(1 - zeta) / (1 - zeta), which is monotone."""
    g = (1.0 + record.rho) ** (1.0 - zeta)
    return float(np.sum(np.abs(np.diff(g))) / (zeta - 1.0))


def measure_bound_check(
    records: list[TrajectoryRecord], alphas, beta: float, gamma: float
) -> dict:
    """Compare measured |J_N(alpha)| with the tail bound
    (tan alpha)^(-beta/(2 gamma)) * int rho^(beta/2) dtau per (N, alpha)."""
    alphas = sorted(float(a) for a in alphas)
    report = {"beta": beta, "gamma": gamma, "alphas": alphas, "per_N": [], "violations": 0}
    for rec in sorted(records, key=lambda r: r.N):
        s, t = rec.span
        tail_integral = float(np.trapezoid(rec.rho ** (beta / 2.0), rec.times))
        rows = []
        for alpha in alphas:
            part = exceedance_partition(rec, s, t, alpha, gamma)
            bound = float(np.tan(alpha)) ** (-beta / (2.0 * gamma)) * tail_integral
            ok = part.total_measure <= bound * (1.0 + 1e-9)
            if not ok:
                report["violations"] += 1
            rows.append(
                {
                    "alpha": alpha,
                    "measure": part.total_measure,
                    "bound": bound,
                    "ok": ok,
                }
            )
        report["per_N"].append({"N": rec.N, "tail_integral": tail_integral, "rows": rows})
    return report


def gap_report_json(est: GapEstimate, table: ExponentTable) -> dict:
    """Assemble the gap report in its file schema."""
    return {
        "alphas": [
            {
                "alpha": alpha,
                "per_N": est.per_alpha[i],
                "limsup_dissipation": est.limsup_dissipation[i],
            }
            for i, alpha in enumerate(est.alphas)
        ],
        "M_estimate": est.M_estimate,
        "M_alpha": est.M_alpha,
        "plateau_found": est.plateau_found,
        "measure_decay_ok": est.measure_decay_ok,
        "converged_endpoints": est.converged_endpoints,
        "s": est.s,
        "t": est.t,
        "gamma": table.gamma,
        "zeta": table.zeta,
        "beta_variant_used": table.beta_variant,
        # the bound on p that the exponents assume and p violates, or null
        "violation": table.violation,
        # the family's dimension, and a note when the 3D exponents are not its
        "dim": table.dim,
        "dim_warning": table.dim_warning,
    }

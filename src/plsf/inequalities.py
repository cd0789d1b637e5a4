"""Numerical verification of the functional inequalities on random field
ensembles.

Pass criteria are empirical: no violation at a frozen constant plus
stability of the estimated constants across independent ensembles.  The
reports are evidence, never proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import full_basis
from .constitutive import FluidParams, I_p
from .errors import ConfigError
from .fields import (
    SpectralVelocity,
    gradient,
    hessian_samples,
    lp_norm,
    random_solenoidal,
    sym_gradient,
)
from .galerkin import GalerkinState, TrajectoryRecord, galerkin_rhs
from .grid import TorusGrid


@dataclass
class FieldEnsemble:
    """Reproducible collection of random band-limited solenoidal fields.

    Per-sample L^2 amplitudes are log-uniform over `amp_spread` decades
    around `amplitude`, so scale-sensitive constants (the mu-dependent
    lemma bounds) get probed in every regime.
    """

    dim: int
    M: int
    L: float
    band: int
    decay: float
    seed: int
    count: int
    amplitude: float = 1.0
    amp_spread: float = 2.0
    dealias: float = 1.5
    samples: list[SpectralVelocity] = field(default_factory=list, repr=False)

    @classmethod
    def generate(cls, dim, M, L, band, decay, seed, count, amplitude=1.0,
                 amp_spread=2.0, dealias=1.5):
        grid = TorusGrid(dim, M, L, dealias_factor=dealias)
        children = np.random.SeedSequence(seed).spawn(count + 1)
        amps = amplitude * 10.0 ** np.random.default_rng(children[0]).uniform(
            -amp_spread, amp_spread, size=count
        )
        samples = [
            random_solenoidal(grid, band=band, decay=decay,
                              seed=np.random.default_rng(children[i + 1]),
                              amplitude=float(amps[i]))
            for i in range(count)
        ]
        return cls(dim, M, L, band, decay, seed, count, amplitude, amp_spread,
                   dealias, samples)

    @property
    def grid(self) -> TorusGrid:
        return self.samples[0].grid


@dataclass
class InequalityReport:
    """Per-sample left/right values of one inequality and the empirical
    constant (the max ratio over the ensemble)."""

    id: str
    p: float
    mu: float
    count: int
    left: list[float]
    right: list[float]
    worst_ratio: float
    empirical_C: float
    frozen_C: float | None = None
    violations: int = 0
    skipped: int = 0
    note: str = ""

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "p": self.p,
            "mu": self.mu,
            "count": self.count,
            "worst_ratio": self.worst_ratio,
            "empirical_C": self.empirical_C,
            "frozen_C": self.frozen_C,
            "violations": self.violations,
        }


def _make_report(name, p, mu, left, right, frozen_c, skipped=0, note=""):
    ratios = [l / r for l, r in zip(left, right) if r > 0]
    worst = max(ratios) if ratios else 0.0
    violations = 0
    if frozen_c is not None:
        violations = sum(1 for l, r in zip(left, right) if l > frozen_c * r)
    return InequalityReport(
        id=name, p=p, mu=mu, count=len(left), left=left, right=right,
        worst_ratio=worst, empirical_C=worst, frozen_C=frozen_c,
        violations=violations, skipped=skipped, note=note,
    )


# -- Lemma-style inequalities -------------------------------------------------


def check_lemma1(ensemble: FieldEnsemble, q: float, frozen_c: float | None = None):
    """||u||_q + ||grad u||_q <= c ||D^2 u||_q on zero-mean periodic fields."""
    if q <= 1:
        raise ValueError(f"q must exceed 1, got {q}")
    left, right = [], []
    skipped = 0
    for u in ensemble.samples:
        d2 = lp_norm(hessian_samples(u), q, grid=u.grid)
        if d2 == 0.0:
            skipped += 1  # only the zero field; nothing to bound
            continue
        left.append(lp_norm(u, q) + lp_norm(gradient(u), q))
        right.append(d2)
    return _make_report("lemma1", q, float("nan"), left, right, frozen_c,
                        skipped=skipped,
                        note="zero-field samples skipped" if skipped else "")


def check_friedrichs(ensemble: FieldEnsemble, q: float, epsilon: float):
    """Least kappa with ||u||_2^2 <= (1+eps) sum_{j<=kappa} (u, a^j)^2
    + eps ||grad u||_q^2 over the whole ensemble.

    The unsquared form of this bound is sign-ambiguous in its projection
    terms, so the squared form is what gets checked.  Each sample's least
    kappa >= 1 comes from one scan over every kappa; the ensemble's is the
    largest of these, and the full basis size when some sample never
    holds (on band-limited fields the full basis always suffices).
    """
    if q <= 6.0 / 5.0:
        raise ValueError(f"q must exceed 6/5, got {q}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    basis = full_basis(ensemble.grid)
    lhs = []
    cums = []
    grads = []
    for u in ensemble.samples:
        coeffs = basis.project(u)
        cums.append(np.concatenate([[0.0], np.cumsum(coeffs**2)]))
        lhs.append(lp_norm(u, 2) ** 2)
        grads.append(lp_norm(gradient(u), q) ** 2)

    kappa = 1
    for l, c, g in zip(lhs, cums, grads):
        holds = l <= (1 + epsilon) * c[1:] + epsilon * g + 1e-12 * max(l, 1.0)
        kappa = max(kappa, int(np.argmax(holds)) + 1 if holds.any() else basis.size)
    worst = max(
        l / ((1 + epsilon) * c[kappa] + epsilon * g)
        for l, c, g in zip(lhs, cums, grads)
    )
    rep = InequalityReport(
        id="friedrichs", p=q, mu=float("nan"), count=len(lhs),
        left=lhs, right=[(1 + epsilon) * c[kappa] + epsilon * g
                         for c, g in zip(cums, grads)],
        worst_ratio=worst, empirical_C=float(kappa), frozen_C=None,
        note=f"kappa={kappa} at epsilon={epsilon}",
    )
    rep.kappa = kappa
    rep.epsilon = epsilon
    return rep


def check_lemma3(ensemble: FieldEnsemble, params: FluidParams,
                 frozen: dict | None = None):
    """The three second-derivative estimates tying ||D^2 u||_p,
    the shifted-strain norm and ||grad u||_{3p} to I_p; returns one
    report per inequality (SD1, SD4, SD2)."""
    if params.mu <= 0:
        raise ValueError("lemma-3 checks need mu > 0")
    p, mu = params.p, params.mu
    frozen = frozen or {}
    sd1_l, sd1_r, sd4_l, sd4_r, sd2_l, sd2_r = [], [], [], [], [], []
    for u in ensemble.samples:
        ip = I_p(u, params)
        D = sym_gradient(u)
        shifted = np.sqrt(mu + np.sum(D.values**2, axis=(0, 1)))
        shifted_p = lp_norm(shifted, p, grid=u.grid)
        sd1_l.append(lp_norm(hessian_samples(u), p, grid=u.grid))
        sd1_r.append(np.sqrt(ip) * shifted_p ** ((2.0 - p) / 2.0))
        sd4_l.append(shifted_p ** (p / 2.0))
        sd4_r.append(np.sqrt(ip) + mu ** (p / 4.0))
        sd2_l.append(lp_norm(gradient(u), 3.0 * p))
        sd2_r.append(ip ** (1.0 / p) + np.sqrt(mu))
    return (
        _make_report("SD1", p, mu, sd1_l, sd1_r, frozen.get("SD1")),
        _make_report("SD4", p, mu, sd4_l, sd4_r, frozen.get("SD4")),
        _make_report("SD2", p, mu, sd2_l, sd2_r, frozen.get("SD2")),
    )


# Hoelder interpolations hold with constant exactly 1 for the discrete
# quadrature norms; anything above this slack is a real violation.
INTERP_SLACK = 1e-10


def check_interpolations(ensemble: FieldEnsemble, p: float,
                         frozen_d: float | None = None):
    """Exact-constant norm interpolations of the gradient plus the
    mixed second-derivative/energy bound on ||grad u||_2.

    (c1): ||grad v||_3 <= ||grad v||_{3p}^b ||grad v||_p^(1-b), b = (3-p)/2
    (c2): ||grad v||_3 <= ||grad v||_{3p}^c ||grad v||_2^(1-c), c = p/(3p-2)
    (d):  ||grad u||_2 <= C ||D^2 u||_p^d ||u||_2^(1-d),        d = 2p/(7p-6)
    """
    b = (3.0 - p) / 2.0
    c = p / (3.0 * p - 2.0)
    d = 2.0 * p / (7.0 * p - 6.0)
    c1_l, c1_r, c2_l, c2_r, d_l, d_r = [], [], [], [], [], []
    for u in ensemble.samples:
        G = gradient(u)
        g3 = lp_norm(G, 3.0)
        g3p = lp_norm(G, 3.0 * p)
        gp = lp_norm(G, p)
        g2 = lp_norm(G, 2.0)
        c1_l.append(g3)
        c1_r.append(g3p**b * gp ** (1.0 - b))
        c2_l.append(g3)
        c2_r.append(g3p**c * g2 ** (1.0 - c))
        d_l.append(g2)
        d_r.append(
            lp_norm(hessian_samples(u), p, grid=u.grid) ** d
            * lp_norm(u, 2.0) ** (1.0 - d)
        )
    return {
        "c1": _make_report("c1", p, float("nan"), c1_l, c1_r, 1.0 + INTERP_SLACK),
        "c2": _make_report("c2", p, float("nan"), c2_l, c2_r, 1.0 + INTERP_SLACK),
        "d_interp": _make_report("d_interp", p, float("nan"), d_l, d_r, frozen_d),
    }


# -- trajectory-level and state-level checks ----------------------------------

CL_I_UNIFORMITY_FACTOR = 4.0


def check_cl_i(records: list[TrajectoryRecord], p: float) -> dict:
    """Time integrals of ||D^2 v^N||_p^(2 beta) across the family, for both
    printed beta variants; uniform iff the spread over N stays within
    CL_I_UNIFORMITY_FACTOR."""
    from .gap import exponents  # local import to avoid a module cycle

    for rec in records:
        if rec.d2_p_norm is None:
            raise ConfigError(
                [f"record N={rec.N} lacks the d2_p_norm channel; "
                 f"rerun with record_d2 enabled"]
            )
    table = exponents(p)
    out = {"p": p, "beta_variant_used": table.beta_variant, "per_N": []}
    values = []
    for rec in sorted(records, key=lambda r: r.N):
        row = {"N": rec.N}
        for name, beta in (("statement", table.beta_statement),
                           ("proof", table.beta_proof)):
            row[f"integral_beta_{name}"] = float(
                np.trapezoid(rec.d2_p_norm ** (2.0 * beta), rec.times)
            )
        values.append(row[f"integral_beta_{table.beta_variant}"])
        out["per_N"].append(row)
    vmax, vmin = max(values), min(values)
    out["uniform_bound"] = vmax
    out["spread"] = vmax / vmin if vmin > 0 else float("inf")
    out["uniform"] = out["spread"] <= CL_I_UNIFORMITY_FACTOR
    return out


AP3_SLACK = 1e-8


def check_ap3(ensemble: FieldEnsemble, params: FluidParams) -> dict:
    """Instantaneous differential inequality
        1/2 d/dt ||grad v||_2^2 + (p-1) I_p(v) <= ||grad v||_3^3
    on Galerkin states built from the ensemble, with d/dt ||grad v||_2^2
    taken from the right-hand side by the chain rule."""
    if params.mu <= 0:
        raise ValueError("the ap3 check needs mu > 0")
    basis = full_basis(ensemble.grid)
    lam = basis.eigenvalues
    rows = []
    violations = 0
    for u in ensemble.samples:
        c = basis.project(u)
        state = GalerkinState(basis, c, 0.0)
        cdot = galerkin_rhs(state, params)
        drho_half = float(np.dot(lam * c, cdot))  # = 1/2 d/dt ||grad v||^2
        ip = I_p(u, params)
        g3 = lp_norm(gradient(u), 3.0) ** 3
        lhs = drho_half + (params.p - 1.0) * ip
        scale = 1.0 + abs(drho_half) + (params.p - 1.0) * ip + g3
        ok = lhs <= g3 + AP3_SLACK * scale
        if not ok:
            violations += 1
        rows.append({"lhs": lhs, "rhs": g3, "margin": g3 - lhs, "ok": ok})
    return {
        "id": "ap3",
        "p": params.p,
        "mu": params.mu,
        "count": len(rows),
        "violations": violations,
        "min_margin": min(r["margin"] for r in rows),
        "rows": rows,
    }

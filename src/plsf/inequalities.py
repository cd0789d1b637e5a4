"""Numerical verification of the functional inequalities on random field
ensembles.

Pass criteria are empirical: no violation at a frozen constant plus
stability of the estimated constants across independent ensembles.  The
reports are evidence, never proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import full_basis
from .constitutive import FluidParams
from .errors import ConfigError, GridMismatchError
from .fields import SpectralVelocity, _kept_entries, random_solenoidal
from .galerkin import GalerkinState, TrajectoryRecord, _arena, _padded_values, galerkin_rhs
from .gap import exponents
from .grid import TorusGrid


# Per-sample L^2 amplitudes of an ensemble spread this many decades either
# side of its amplitude.
AMP_SPREAD = 2.0


def ensemble_fields(dim, M, L, band, decay, seed, count, amplitude=1.0, dealias=1.5):
    """A reproducible ensemble of `count` random band-limited solenoidal
    fields, drawn one at a time as they are iterated.

    Per-sample L^2 amplitudes are log-uniform over AMP_SPREAD decades
    around `amplitude`, so scale-sensitive constants (the mu-dependent
    lemma bounds) get probed in every regime.  The per-sample amplitudes
    come up front from the first child of
    SeedSequence(seed).spawn(count + 1), and field i from child i + 1, so
    each field is bit for bit the same however many the caller holds.
    """
    grid = TorusGrid(dim, M, L, dealias_factor=dealias)
    children = np.random.SeedSequence(seed).spawn(count + 1)
    amps = amplitude * 10.0 ** np.random.default_rng(children[0]).uniform(
        -AMP_SPREAD, AMP_SPREAD, size=count
    )
    for i in range(count):
        yield random_solenoidal(grid, band=band, decay=decay,
                                seed=np.random.default_rng(children[i + 1]),
                                amplitude=float(amps[i]))


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

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in (
            "id", "p", "mu", "count", "worst_ratio", "empirical_C", "frozen_C",
            "violations")}


def _make_report(name, p, mu, left, right, frozen_c, skipped=0):
    ratios = [l / r for l, r in zip(left, right) if r > 0]
    worst = max(ratios) if ratios else 0.0
    violations = 0
    if frozen_c is not None:
        violations = sum(1 for l, r in zip(left, right) if l > frozen_c * r)
    return InequalityReport(
        id=name, p=p, mu=mu, count=len(left), left=left, right=right,
        worst_ratio=worst, empirical_C=worst, frozen_C=frozen_c,
        violations=violations, skipped=skipped,
    )


# -- the per-field table ---------------------------------------------------


def field_table(samples, keys) -> list[dict]:
    """One pass over the fields: row i maps each key to its value on the
    i-th field of `samples`, any iterable of fields on one grid.  It is
    read once, and each field is let go when the next one arrives, so a
    pass over a generator holds at most two fields.  The keys are ("u",
    q), ("grad", q) and ("hess", q) for ||u||_q, ||grad u||_q and ||D^2
    u||_q; ("I_p", params) and ("rho_tilde", params); ("shifted", params)
    for ||(mu + |Du|^2)^(1/2)||_p; ("drho_half", params) for 1/2 d/dt
    ||grad v||_2^2 at the Galerkin state of u; ("proj_cumsum", None) for
    0, then the running sums of the squared full-basis coefficients of u,
    up to its last nonzero one (every later sum equals that one); and
    ("basis_size", None) for the full basis size.
    TABLE_KEYS[name](arg) lists the keys check `name` reads.  The u,
    Hessian, projection and drho_half values equal bit for bit what
    lp_norm, the full-channel Hessian, StokesBasis.project and
    galerkin_rhs give; those of grad, shifted, I_p and rho_tilde come from
    trace-free channels and agree with full-channel forms (the tests'
    oracle) within 1e-14 relative.  The full basis is built once, from the
    first field, and every row works in its arena (see `table_row`).
    """
    keys = list(dict.fromkeys(keys))
    rows, basis = [], None
    for u in samples:
        if basis is None:
            basis = full_basis(u.grid)
        rows.append(table_row(u, keys, basis))
    return rows


def table_row(u: SpectralVelocity, keys, basis) -> dict:
    """The row of field_table for u, in the arena of `basis`, the full
    basis of u's grid.

    The projection keys come from the full-basis coefficients of u, and
    the Galerkin RHS for drho_half; every other key goes to the padded-grid
    kernel of the trajectory sample, `plsf.galerkin._padded_values`, which
    reads u.coeffs at the basis's kept positions and forms each pointwise
    magnitude once.  The RHS's buffers and the kernel's share the arena's
    memory.  Once the arena is built, a row allocates no grid-sized array.
    """
    if u.grid != basis.grid:
        raise GridMismatchError(f"{u.grid!r} vs {basis.grid!r}")
    projected = [key for key in keys if key[0] in ("proj_cumsum", "drho_half")]
    values = {("basis_size", None): basis.size}
    if projected:
        c = basis.project(u)
        for name, params in projected:
            if name == "proj_cumsum":
                sq = c**2
                # cumsum adds in order, so past the last nonzero square every
                # sum is the last kept one, bit for bit; one sum is always kept
                nonzero = np.flatnonzero(sq)
                stop = nonzero[-1] + 1 if nonzero.size else 1
                values[name, params] = np.concatenate([[0.0], np.cumsum(sq[:stop])])
            else:
                values[name, params] = float(np.dot(
                    basis.eigenvalues * c, galerkin_rhs(GalerkinState(basis, c, 0.0), params)))
    padded = [key for key in keys
              if key[0] not in ("proj_cumsum", "drho_half", "basis_size")]
    if padded:
        coef = _kept_entries(u.coeffs, basis.kept, out=_arena(basis).coef)
        values.update(_padded_values(basis, coef, padded))
    return {key: values[key] for key in keys}


# The keys each check reads, by check, as a function of its argument.
TABLE_KEYS = {
    "lemma1": lambda q: [("u", q), ("grad", q), ("hess", q)],
    "friedrichs": lambda q: [("u", 2.0), ("grad", q), ("proj_cumsum", None),
                             ("basis_size", None)],
    "lemma3": lambda params: [("I_p", params), ("shifted", params),
                              ("hess", params.p), ("grad", 3.0 * params.p)],
    "interp": lambda p: [("grad", 3.0), ("grad", 3.0 * p), ("grad", p),
                         ("grad", 2.0), ("hess", p), ("u", 2.0)],
    "ap3": lambda params: [("drho_half", params), ("I_p", params), ("grad", 3.0)],
}


# -- Lemma-style inequalities -------------------------------------------------


def check_lemma1(table: list[dict], q: float, frozen_c: float | None = None):
    """||u||_q + ||grad u||_q <= c ||D^2 u||_q on zero-mean periodic fields."""
    if q <= 1:
        raise ValueError(f"q must exceed 1, got {q}")
    k_u, k_grad, k_hess = TABLE_KEYS["lemma1"](q)
    left, right = [], []
    skipped = 0
    for row in table:
        if row[k_hess] == 0.0:
            skipped += 1  # only the zero field; nothing to bound
            continue
        left.append(row[k_u] + row[k_grad])
        right.append(row[k_hess])
    return _make_report("lemma1", q, float("nan"), left, right, frozen_c,
                        skipped=skipped)


def check_friedrichs(table: list[dict], q: float, epsilon: float):
    """Least kappa with ||u||_2^2 <= (1+eps) sum_{j<=kappa} (u, a^j)^2
    + eps ||grad u||_q^2 over the whole table.

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
    k_u, k_grad, k_cum, k_size = TABLE_KEYS["friedrichs"](q)
    # only the zero field has ||u||_2 = 0, and then nothing to bound
    kept = [row for row in table if row[k_u] != 0.0]
    lhs = [row[k_u] ** 2 for row in kept]
    cums = [row[k_cum] for row in kept]
    grads = [row[k_grad] ** 2 for row in kept]
    sizes = [row[k_size] for row in kept]

    kappa = 1
    for l, c, g, n in zip(lhs, cums, grads, sizes):
        # every sum past the end of c equals its last one: where none of
        # c's kappas holds, no larger kappa does either
        holds = l <= (1 + epsilon) * c[1:] + epsilon * g + 1e-12 * max(l, 1.0)
        kappa = max(kappa, int(np.argmax(holds)) + 1 if holds.any() else n)
    right = [(1 + epsilon) * c[min(kappa, len(c) - 1)] + epsilon * g
             for c, g in zip(cums, grads)]
    worst = max((l / r for l, r in zip(lhs, right)), default=0.0)
    rep = InequalityReport(
        id="friedrichs", p=q, mu=float("nan"), count=len(lhs),
        left=lhs, right=right, worst_ratio=worst, empirical_C=float(kappa), frozen_C=None,
        skipped=len(table) - len(kept),
    )
    rep.kappa = kappa
    return rep


def check_lemma3(table: list[dict], params: FluidParams):
    """The three second-derivative estimates tying ||D^2 u||_p,
    the shifted-strain norm and ||grad u||_{3p} to I_p; returns one
    report per inequality (SD1, SD4, SD2)."""
    if params.mu <= 0:
        raise ValueError("lemma-3 checks need mu > 0")
    p, mu = params.p, params.mu
    k_ip, k_shifted, k_hess, k_grad = TABLE_KEYS["lemma3"](params)
    sd1_l, sd1_r, sd4_l, sd4_r, sd2_l, sd2_r = [], [], [], [], [], []
    for row in table:
        ip, shifted_p = row[k_ip], row[k_shifted]
        sd1_l.append(row[k_hess])
        sd1_r.append(np.sqrt(ip) * shifted_p ** ((2.0 - p) / 2.0))
        sd4_l.append(shifted_p ** (p / 2.0))
        sd4_r.append(np.sqrt(ip) + mu ** (p / 4.0))
        sd2_l.append(row[k_grad])
        sd2_r.append(ip ** (1.0 / p) + np.sqrt(mu))
    return (
        _make_report("SD1", p, mu, sd1_l, sd1_r, None),
        _make_report("SD4", p, mu, sd4_l, sd4_r, None),
        _make_report("SD2", p, mu, sd2_l, sd2_r, None),
    )


# Hoelder interpolations hold with constant exactly 1 for the discrete
# quadrature norms; anything above this slack is a real violation.
INTERP_SLACK = 1e-10


def check_interpolations(table: list[dict], p: float):
    """Exact-constant norm interpolations of the gradient plus the
    mixed second-derivative/energy bound on ||grad u||_2.

    (c1): ||grad v||_3 <= ||grad v||_{3p}^b ||grad v||_p^(1-b), b = (3-p)/2
    (c2): ||grad v||_3 <= ||grad v||_{3p}^c ||grad v||_2^(1-c), c = p/(3p-2)
    (d):  ||grad u||_2 <= C ||D^2 u||_p^d ||u||_2^(1-d),        d = 2p/(7p-6)
    """
    ex = exponents(p)
    b, c, d = ex.b, ex.c_interp, ex.d
    k_g3, k_g3p, k_gp, k_g2, k_hess, k_u2 = TABLE_KEYS["interp"](p)
    c1_l, c1_r, c2_l, c2_r, d_l, d_r = [], [], [], [], [], []
    for row in table:
        g3, g3p, gp, g2 = row[k_g3], row[k_g3p], row[k_gp], row[k_g2]
        c1_l.append(g3)
        c1_r.append(g3p**b * gp ** (1.0 - b))
        c2_l.append(g3)
        c2_r.append(g3p**c * g2 ** (1.0 - c))
        d_l.append(g2)
        d_r.append(row[k_hess] ** d * row[k_u2] ** (1.0 - d))
    return {
        "c1": _make_report("c1", p, float("nan"), c1_l, c1_r, 1.0 + INTERP_SLACK),
        "c2": _make_report("c2", p, float("nan"), c2_l, c2_r, 1.0 + INTERP_SLACK),
        "d_interp": _make_report("d_interp", p, float("nan"), d_l, d_r, None),
    }


# -- trajectory-level and state-level checks ----------------------------------

CL_I_UNIFORMITY_FACTOR = 4.0


def check_cl_i(records: list[TrajectoryRecord], p: float) -> dict:
    """Time integrals of ||D^2 v^N||_p^(2 beta) across the family, for both
    printed beta variants; uniform iff the spread over N stays within
    CL_I_UNIFORMITY_FACTOR."""
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


def check_ap3(table: list[dict], params: FluidParams) -> dict:
    """Instantaneous differential inequality
        1/2 d/dt ||grad v||_2^2 + (p-1) I_p(v) <= ||grad v||_3^3
    on the Galerkin states of the table's fields, with d/dt ||grad v||_2^2
    taken from the right-hand side by the chain rule."""
    if params.mu <= 0:
        raise ValueError("the ap3 check needs mu > 0")
    k_drho, k_ip, k_grad = TABLE_KEYS["ap3"](params)
    rows = []
    violations = 0
    for row in table:
        drho_half, ip, g3 = row[k_drho], row[k_ip], row[k_grad] ** 3
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

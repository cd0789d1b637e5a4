"""Faedo-Galerkin dynamics for the power-law system.

The velocity is expanded in the first N Stokes eigenfunctions,
v = sum_r c_r(t) a^r, and the coefficients evolve by

    dc_r/dt = (div T, a^r),      T = sigma(Dv) - s v (x) v,

one flux, transformed to the band once per evaluation.  On a dealiased
grid (`TorusGrid.dealiased`: padded_M >= 3(M/2 - 1) + 1) the product
v (x) v of two band fields is alias-free on the band, so s = 1 and the
divergence form div(v (x) v) alone is used: its contribution to
d/dt ||v||_2^2 is the exact integral of v . div(v (x) v) = 0 and vanishes
at rounding level.  On a coarser grid aliasing breaks that, and the
convection term is the skew-symmetric average ((v.grad v) + div(v (x) v))/2,
whose discrete trilinear form is exactly antisymmetric whatever the
aliasing: s = 1/2, and (v.grad v)/2 is subtracted as well.

The basis is divergence-free, so it annihilates gradients, which is what
removes the pressure: (grad q, a^r) = 0.  An isotropic part q I of the
flux has div(q I) = grad q, so T_dd is subtracted from T's diagonal
without changing the RHS, and T keeps the (d-1)(d+2)/2 independent
channels of a traceless symmetric tensor, as D does.

The energy law stays exact.  D is band-limited, so by discrete Parseval
c . P div sigma = -(sigma, Dv) is the padded-grid quadrature of
sigma : Dv, which is rho_tilde, whatever sigma aliases into.  The
dropped T_dd and the convection term add rounding only, so the
semi-discrete balance d/dt ||v||_2^2 + 2 rho_tilde = 0 is a
machine-checkable identity rather than an approximation casualty.

Time integration is an embedded explicit Dormand-Prince 5(4) pair with a
PI step controller; the 5th-order solution is propagated.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import constitutive as law
from .basis import StokesBasis, basis_capacity, count_modes_below, make_basis
from .constitutive import FluidParams
from .errors import GridMismatchError, StiffnessError
# gradient and lp_norm stay importable from here, unused: the benchmark's
# own tests (perfbench/test_perfbench.py) check that they are the names
# plsf.fields defines
from .fields import (  # noqa: F401
    SpectralVelocity,
    _magnitude,
    _norm_of_magnitude,
    _kept_wavevectors,
    _sum_of_squares,
    _wavevectors,
    gradient,
    load_checkpoint,
    lp_norm,
    random_solenoidal,
    symmetric_components,
    taylor_green,
)
from .grid import TorusGrid

CSV_COLUMNS = ("t", "energy", "rho", "rho_tilde", "grad_p_norm", "Ip")
CSV_D2_COLUMN = "d2_p_norm"


@dataclass
class GalerkinState:
    """Coefficients of v^N = sum_r c_r a^r at time t."""

    basis: StokesBasis
    c: np.ndarray
    t: float = 0.0

    def velocity(self) -> SpectralVelocity:
        return self.basis.synthesize(self.c)


def project_initial_data(v0: SpectralVelocity, basis: StokesBasis) -> GalerkinState:
    """Orthogonal projection of v0 onto span{a^1 .. a^N} at t = 0."""
    if v0.grid != basis.grid:
        raise GridMismatchError(f"{v0.grid!r} vs {basis.grid!r}")
    return GalerkinState(basis, basis.project(v0), 0.0)


# -- work arena --------------------------------------------------------------


class _Arena:
    """Work buffers of the two padded-grid kernels on one basis:
    `_rhs_parts`, and `_padded_values`, which serves `state_functionals`
    and the rows of `plsf.inequalities.field_table`.

    The two are never live together, so they share one set of named
    buffers, each allocated once and sized for the larger of the two
    kernels' needs.  Every call writes a buffer before it reads it.  The
    constants beside them are computed once.

    No field spectrum is formed.  A kernel's transform inputs are
    formed at the basis's kept positions (`StokesBasis.kept`: the band
    modes with last index >= 0 that the basis reaches) and scattered
    straight into the kept padded half-spectrum that `TorusGrid.to_physical`
    transforms, which lives in `work`.
    """

    def __init__(self, basis: StokesBasis):
        g = basis.grid
        d = g.dim
        rows, cols, pos = symmetric_components(d)
        npair = len(rows)
        n_ind = npair - 1  # every pair but the last, (d-1, d-1)
        diag = pos.diagonal()[:-1]
        off = rows[:n_ind] != cols[:n_ind]
        self.grid = g
        self.pos = pos
        self.pairs = list(zip(rows.tolist(), cols.tolist()))
        self.strain_pairs = self.pairs[:n_ind]
        self.rot_pairs = [] if g.dealiased else [
            pair for pair, o in zip(self.strain_pairs, off) if o
        ]
        self.diag = slice(diag[0], diag[-1] + 1, max(1, diag[-1] - diag[0]))
        self.w_off = 1.0 + off  # off-diagonal pairs count twice in |D|^2
        # where the kept coefficients are scattered, their wavevectors, and
        # 1j * k there
        self.kept = basis.kept
        self.dst = self.kept[0]
        self.modes = basis.modes
        self.kept_ik = 1j * _wavevectors(g, self.kept_modes())
        # where the forward transforms read the basis wavevectors, and
        # 1j * k there
        self.index = g.band_index(basis.modes)
        self.ikm = 1j * _wavevectors(g, basis.modes)

        # RHS padded channels: v, the rotation's strict upper triangle (off
        # a dealiased grid only) and D's upper triangle without D_dd go in;
        # the traceless flux T over D's channels, then v . grad v (off a
        # dealiased grid only), come out.  D_dd has a grid of its own.
        n_rot = len(self.rot_pairs)
        skew = d if n_rot else 0
        self.n_in = d + n_rot + n_ind  # v, the rotation and D go in
        self.n_rhs = self.n_in + skew  # and v . grad v comes out after T
        n_fwd = n_ind + skew  # T, then v . grad v
        # div_i = sum_j ik_j T_ij over T's channels: T_dd = 0 leaves the
        # last row one term short
        self.flux_rows = [row[: d - 1] if i == d - 1 else row for i, row in enumerate(pos)]
        # One buffer per role, sized for both kernels.  phys: the RHS's
        # padded channels, or the functionals' grad v, d_s D_ij for up to d
        # pairs or one component's Hessian (npair <= d*d channels).  coef:
        # the state's coefficients at the kept positions, and row: two
        # kept-position scratch rows, where each transform input is formed.
        # work: the kept padded half-spectrum of the largest transform.
        # dd: D_dd (RHS) or |Dv|^2 (functionals).  mag: |D|^2 and then the
        # stress factor (RHS), or a magnitude or sum of squares
        # (functionals).
        grid, kept, modes = g.padded_shape, (len(self.dst),), (len(basis.modes),)
        self.phys = np.empty((max(self.n_rhs, d * d),) + grid)
        self.dd = np.empty(grid)
        self.mag = np.empty(grid)
        self.tmp = np.empty(grid)
        self.mask = np.empty(grid, dtype=np.bool_)
        self.coef = np.empty((d,) + kept, np.complex128)
        self.row = np.empty((2,) + kept, np.complex128)
        self.work = np.empty(max(g.work_size(self.n_in, False), g.work_size(n_fwd, True),
                                 g.work_size(max(d, npair), False)), np.complex128)
        self.gath = np.empty((n_fwd,) + modes, np.complex128)
        self.tensor_row = np.empty((d,) + modes, np.complex128)
        self.div = np.empty((d,) + modes, np.complex128)

    @cached_property
    def kept_kk(self) -> np.ndarray:
        """k_j k_k at the kept positions for the pairs j <= k, as complex
        (the Hessian's factor)."""
        k = _wavevectors(self.grid, self.kept_modes())
        rows, cols = zip(*self.pairs)
        return (k[list(rows)] * k[list(cols)]).astype(np.complex128)

    def kept_modes(self) -> np.ndarray:
        """The wavevector of each kept entry, shape (count, d)."""
        return _kept_wavevectors(self.modes, self.kept)

    def inputs(self, channels: int) -> tuple[np.ndarray, np.ndarray]:
        """`channels` zeroed channels of the kept padded half-spectrum in
        `work`, for `to_physical`, and the same memory as (channels, -1):
        scatter a row into channel j as flat[j][self.dst] = row."""
        shape = (channels,) + self.grid.kept_shape
        spec = self.work[: math.prod(shape)].reshape(shape)
        spec.fill(0.0)
        return spec, spec.reshape(channels, -1)


def _arena(basis: StokesBasis) -> _Arena:
    if basis.arena is None:
        basis.arena = _Arena(basis)
    return basis.arena


def _padded_values(basis: StokesBasis, coef: np.ndarray, keys) -> dict:
    """The padded-grid functionals of the field with coefficients `coef` on
    the grid of `basis`, by key: ("u", q), ("grad", q) and ("hess", q) for
    ||v||_q, ||grad v||_q and ||D^2 v||_q; ("shifted", params) for
    ||(mu + |Dv|^2)^(1/2)||_p; ("rho_tilde", params) and ("I_p", params).

    `coef` holds the coefficients at the basis's kept positions, (d, kept)
    as `StokesBasis.kept_coeffs` gives them, or as `_kept_entries` reads
    them from a field's coefficients: a field on the basis's wavevectors.
    Each transform input is formed there and scattered into the kept
    padded half-spectrum, so no field spectrum is built.

    The channels are trace-free: div v = 0 and tr D = 0 give d_d v_d and
    d_s D_dd pointwise as minus the sums of the other diagonal entries, so
    neither is transformed.  This is plsf's one implementation of these
    functionals; the tests' full-channel oracle (`tests/conftest.py`)
    gives the "u" and "hess" values bit for bit, and the others within
    1e-14 relative, the rounding of the trace-free channels.  rho_tilde is
    the quadrature of (mu + |Dv|^2)^((p-2)/2) |Dv|^2 = sigma : Dv, and an
    I_p key with the same params reuses its stress factor.  Each pointwise
    magnitude a key reads is formed once, in the basis's arena, and each
    (quantity, q) key is reduced from it through a scratch grid; no
    (d, d, d)-tensor grid is held.  q must be finite and >= 1.
    """
    args = {}
    for name, arg in keys:
        args.setdefault(name, []).append(arg)
    if any(params.mu <= 0 for params in args.get("I_p", ())):
        raise ValueError("I_p is only defined for mu > 0 (integrand singular at Dv = 0)")
    if not args:
        return {}
    arena = _arena(basis)
    g = basis.grid
    d, pos, dst = g.dim, arena.pos, arena.dst
    phys, mag, tmp = arena.phys, arena.mag, arena.tmp
    ik, row, other = arena.kept_ik, arena.row[0], arena.row[1]
    values = {}

    def reduce(name, magnitude):
        for q in args[name]:
            values[name, q] = _norm_of_magnitude(magnitude, q, g, out=tmp)

    def add_squares(channels, weight=1.0, scratch=tmp):
        # mag += weight * ch**2 for each channel in turn
        for ch in channels:
            sq = np.square(ch, out=scratch)
            if weight != 1.0:
                sq *= weight
            np.add(mag, sq, out=mag)

    def transform(factors, c, out, negate=False):
        # samples of factors[j] * c, a channel each, into out
        spec, flat = arena.inputs(len(factors))
        for channel, factor in zip(flat, factors):
            np.multiply(factor, c, out=row)
            if negate:
                np.negative(row, out=row)
            channel[dst] = row
        return g.to_physical(spec, out=out)

    if "u" in args:
        spec, flat = arena.inputs(d)
        flat[:, dst] = coef
        reduce("u", _magnitude(g.to_physical(spec, out=phys[:d]), mag, tmp))
    strain = args.keys() & {"shifted", "rho_tilde", "I_p"}
    if "grad" in args or strain:
        # d_j v_i into channel d*i + j of G (gradient(v) in C order), a row
        # per transform; the last, d_d v_d, is minus the other diagonal
        # entries' sum
        G = phys[: d * d]
        for i in range(d):
            n = d - 1 if i == d - 1 else d
            transform(ik[:n], coef[i], G[d * i : d * i + n])
        np.negative(np.sum(G[: d * d - 1 : d + 1], axis=0, out=G[-1]), out=G[-1])
    if "grad" in args:
        reduce("grad", _magnitude(G, mag, tmp))
    shared = None  # the params whose stress factor tmp keeps for I_p
    if strain:
        # G becomes D = (grad v + grad v^T)/2, and dd |D|^2, summed in C order
        for i in range(d):
            for j in range(i, d):
                Dij = np.add(G[d * i + j], G[d * j + i], out=G[d * i + j])
                np.multiply(0.5, Dij, out=Dij)
                G[d * j + i] = Dij
        dd = _sum_of_squares(G, arena.dd, tmp)
        for params in args.get("shifted", ()):
            root = np.sqrt(np.add(params.mu, dd, out=tmp), out=tmp)
            values["shifted", params] = _norm_of_magnitude(root, params.p, g)
        rho = args.get("rho_tilde", [])
        ip = set(args.get("I_p", ()))
        if len(ip) == 1 and ip <= set(rho):
            # the I_p factor is the last rho_tilde's, and dd is dead after it
            (shared,) = ip
            rho = [params for params in rho if params != shared] + [shared]
        for params in rho:
            # sigma : D = (mu + |D|^2)^((p-2)/2) |D|^2
            fac = law._stress_factor(dd, params, out=tmp, mask=arena.mask)
            prod = np.multiply(fac, dd, out=dd if params == shared else fac)
            values["rho_tilde", params] = float(np.sum(prod) * g.quad_weight)
    if "I_p" in args:
        # |grad D|^2 into mag, adding (d_s D_ij)^2 over the pairs i <= j in
        # row order and s, the off-diagonal pairs twice.  A pair per
        # transform, but the last, (d, d): d_s D_dd = -sum_i d_s D_ii, so
        # diagonal pair (i, i) keeps slot i until then, and the others
        # take the last slot.  The squares go through dd when tmp keeps
        # the shared stress factor.
        scratch = tmp if shared is None else arena.dd
        slots = phys[: d * d].reshape((d, d) + g.padded_shape)
        mag.fill(0.0)
        for (i, j), weight in zip(arena.strain_pairs, arena.w_off):
            slot = slots[i if i == j else d - 1]
            # d_s D_ij from D_ij = (ik_j c_i + ik_i c_j)/2
            np.multiply(ik[j], coef[i], out=other)
            np.add(other, np.multiply(ik[i], coef[j], out=row), out=other)
            np.multiply(0.5, other, out=other)
            transform(ik, other, slot)
            add_squares(slot, weight, scratch)
        last = slots[d - 1]
        add_squares(np.negative(np.sum(slots[: d - 1], axis=0, out=last), out=last),
                    scratch=scratch)
        for params in args["I_p"]:
            fac = tmp if params == shared else law._stress_factor(dd, params, out=tmp)
            values["I_p", params] = float(np.sum(np.multiply(fac, mag, out=fac)) * g.quad_weight)
    if "hess" in args:
        # d_j d_k v_i = -(k_j k_k) c_i for the pairs j <= k, a component per
        # transform, its squares added over (j, k) before the next i: the
        # (i, j, k) order of the magnitude of the full (d, d, d) Hessian
        H = phys[: len(arena.pairs)]
        mag.fill(0.0)
        for i in range(d):
            transform(arena.kept_kk, coef[i], H, negate=True)
            add_squares([H[pos[j, k]] for j in range(d) for k in range(d)])
        reduce("hess", np.sqrt(mag, out=mag))
    return values


# -- right-hand side -------------------------------------------------------


def _rhs_parts(basis: StokesBasis, params: FluidParams, c: np.ndarray) -> np.ndarray:
    """dc/dt = P div T, with T = sigma - s v (x) v the one flux of the RHS.

    s is 1 on a dealiased grid.  Off it, s is 1/2 and P (v . grad v)/2 is
    subtracted as well: the skew-symmetric average of the two convection
    forms.  T_dd is subtracted from T's diagonal, which leaves P div T
    unchanged (see the module docstring), so only T's upper triangle
    without T_dd is transformed.  v and the upper triangle of D without D_dd
    go in (tr D = 0 gives D_dd pointwise); off a dealiased grid the strict
    upper triangle of the rotation (grad v)_A goes in too and v . grad v
    comes out with T.  The inputs are formed at the basis's kept positions
    and scattered into the padded half-spectrum, and the divergence is
    formed at the basis wavevectors alone.  All work happens in the
    basis's arena; only the returned vector is new.
    """
    arena = _arena(basis)
    g = basis.grid
    d, dst = g.dim, arena.dst
    ik = arena.kept_ik
    n_rot = len(arena.rot_pairs)
    n_ind = len(arena.strain_pairs)
    vhat = basis.kept_coeffs(c, out=arena.coef)
    spec, flat = arena.inputs(arena.n_in)
    flat[:d, dst] = vhat
    # ghat[i, j] = d_j v_i; the rotation and D from its two triangles
    half, other = arena.row
    for k, (i, j) in enumerate(arena.rot_pairs + arena.strain_pairs):
        np.multiply(ik[j], vhat[i], out=half)
        np.multiply(ik[i], vhat[j], out=other)
        (np.subtract if k < n_rot else np.add)(half, other, out=half)
        np.multiply(0.5, half, out=half)
        flat[d + k][dst] = half
    phys = arena.phys
    g.to_physical(spec, out=phys[: arena.n_in])
    V = phys[:d]
    D, D_dd = phys[d + n_rot : arena.n_in], arena.dd  # D's upper triangle but D_dd
    np.negative(np.sum(D[arena.diag], axis=0, out=D_dd), out=D_dd)
    # |D|^2, the off-diagonal pairs counted twice
    dd_sq = np.einsum("k...,k...,k->...", D, D, arena.w_off, out=arena.mag)
    dd_sq += np.square(D_dd, out=arena.tmp)
    fac = law._stress_factor(dd_sq, params, out=dd_sq, mask=arena.mask)
    if n_rot:
        # v (x) v aliases into the band, so the divergence form alone is not
        # energy-neutral; it is averaged with the advective form v . grad v,
        # whose discrete trilinear form cancels it exactly:
        # (v . grad v)_i = sum_j v_j (D_ij + R_ij), R antisymmetric
        strain = [*D, D_dd]  # the pairs in the order arena.pos indexes
        w1 = phys[arena.n_in : arena.n_rhs]
        for i, row in enumerate(arena.pos):
            np.multiply(V[0], strain[row[0]], out=w1[i])
            for j in range(1, d):
                w1[i] += np.multiply(V[j], strain[row[j]], out=arena.tmp)
        for R, (i, j) in zip(phys[d : d + n_rot], arena.rot_pairs):
            w1[i] += np.multiply(V[j], R, out=arena.tmp)
            w1[j] -= np.multiply(V[i], R, out=arena.tmp)

    # T over D's channels: sigma_ij - s v_i v_j, minus T_dd on the diagonal
    # (s = 1/2 off a dealiased grid; s = 1 takes no multiply)
    D[arena.diag] -= D_dd
    t_dd = np.square(V[d - 1], out=D_dd)
    if n_rot:
        np.multiply(0.5, t_dd, out=t_dd)
    for T, (i, j) in zip(D, arena.strain_pairs):
        np.multiply(fac, T, out=T)
        vv = np.multiply(V[i], V[j], out=arena.tmp)
        if n_rot:
            np.multiply(0.5, vv, out=vv)
        T -= vv
        if i == j:
            T += t_dd
    # T, with v . grad v after it, transformed at the basis wavevectors alone
    S = g.to_spectral(phys[d + n_rot : arena.n_rhs], arena.index, out=arena.gath,
                      work=arena.work)
    div = arena.div
    for i, entries in enumerate(arena.flux_rows):
        n = len(entries)
        row = np.take(S, entries, axis=0, out=arena.tensor_row[:n], mode="clip")
        np.einsum("j...,j...->...", arena.ikm[:n], row, out=div[i])
    if n_rot:
        div -= np.multiply(0.5, S[n_ind:], out=S[n_ind:])
    return basis.project_modes(div)


def galerkin_rhs(state: GalerkinState, params: FluidParams) -> np.ndarray:
    """dc/dt for the Galerkin system."""
    return _rhs_parts(state.basis, params, state.c)


def state_functionals(state: GalerkinState, params: FluidParams, record_d2: bool = False):
    """All scalar functionals one trajectory sample records.

    energy and rho use the exact coefficient sums (basis orthonormality
    and the eigenvalue relation).  The nonlinear functionals -- rho_tilde,
    ||grad v||_p, I_p (when mu > 0) and, with `record_d2`, ||D^2 v||_p --
    come from `_padded_values`, on trace-free channels, which reads the
    state's coefficients at the basis's kept positions
    (`StokesBasis.kept_coeffs`); v is never synthesized.
    """
    basis, c = state.basis, state.c
    keys = [("grad", params.p), ("rho_tilde", params)]
    if params.mu > 0:
        keys.append(("I_p", params))
    if record_d2:
        keys.append(("hess", params.p))
    values = _padded_values(basis, basis.kept_coeffs(c, out=_arena(basis).coef), keys)
    out = {
        "energy": float(np.dot(c, c)),
        "rho": float(np.dot(basis.eigenvalues * c, c)),
        "rho_tilde": values["rho_tilde", params],
        "grad_p_norm": values["grad", params.p],
        "Ip": values.get(("I_p", params), float("nan")),
    }
    if record_d2:
        out[CSV_D2_COLUMN] = values["hess", params.p]
    return out


# -- adaptive Dormand-Prince 5(4) ------------------------------------------

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)

# classical quartic dense-output polynomial of the Dormand-Prince pair:
# y(t0 + theta*dt) = y0 + dt * sum_s k_s * sum_j P[s][j] * theta^(j+1)
_DP_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


@dataclass
class StepSegment:
    """One accepted step with its stages, for dense output inside it."""

    t0: float
    dt: float
    y0: np.ndarray
    stages: np.ndarray  # (7, N)

    @property
    def t1(self) -> float:
        return self.t0 + self.dt

    def interpolate(self, t: float) -> np.ndarray:
        theta = (t - self.t0) / self.dt
        powers = theta ** np.arange(1, 5)
        weights = _DP_P @ powers
        return self.y0 + self.dt * (weights @ self.stages)


@dataclass
class StepController:
    """Embedded-pair error control with a PI step-size law.

    `last_segment` holds the stages of the most recent accepted step so
    callers can densely sample inside it.  Its stages live in the
    controller's stage buffer, so it is valid until the next `advance` on
    the same controller.  `nrhs` counts the RHS evaluations `advance` makes.
    """

    rtol: float = 1e-8
    atol: float = 1e-12
    dt_min: float = 1e-12
    dt_max: float = float("inf")
    safety: float = 0.9
    dt: float | None = None
    err_prev: float = 1.0
    naccept: int = 0
    nreject: int = 0
    nrhs: int = 0
    last_segment: StepSegment | None = None
    # the (7, N) stages and two N-vectors of stage sums, reallocated when N
    # changes
    _buffers: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # written so that NaN fails every check
        if not (self.rtol > 0 and self.atol >= 0 and self.dt_min > 0):
            raise ValueError("tolerances must be positive")

    def error_norm(self, err: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> float:
        sc = self.atol + self.rtol * np.maximum(np.abs(y0), np.abs(y1))
        return float(np.sqrt(np.mean((err / sc) ** 2)))

    def accept_factor(self, err_norm: float) -> float:
        if err_norm == 0.0:
            return 5.0
        fac = self.safety * err_norm ** (-0.7 / 5.0) * self.err_prev ** (0.4 / 5.0)
        return float(np.clip(fac, 0.2, 5.0))


def _initial_dt(f0: np.ndarray, y0: np.ndarray, ctrl: StepController, horizon: float) -> float:
    sc = ctrl.atol + ctrl.rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / sc) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-3 * horizon if horizon > 0 else 1e-6
    else:
        h = 0.01 * d0 / d1
    return float(np.clip(h, ctrl.dt_min, min(ctrl.dt_max, horizon or h)))


def _weighted_sum(weights, ks, acc: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sum(w * k for w, k in zip(weights, ks) if w != 0.0) into acc, bit for
    bit: Python's sum starts from int 0, so the first term gets + 0.0."""
    terms = [(w, k) for w, k in zip(weights, ks) if w != 0.0]
    np.multiply(terms[0][0], terms[0][1], out=acc)
    acc += 0.0
    for w, k in terms[1:]:
        acc += np.multiply(w, k, out=tmp)
    return acc


def advance(
    state: GalerkinState,
    params: FluidParams,
    ctrl: StepController,
    dt_cap: float | None = None,
) -> GalerkinState:
    """One accepted adaptive step; ctrl carries the step-size state and
    the stage buffers."""

    def f(y):
        ctrl.nrhs += 1
        return _rhs_parts(state.basis, params, y)

    y0 = state.c
    # the stages, filled in place and handed to the step's segment, and
    # the stage sums, all in the controller's buffers
    if ctrl._buffers is None or ctrl._buffers.shape[1] != y0.size:
        ctrl._buffers = np.empty((len(_DP_A) + 2, y0.size))
    ks, acc, tmp = ctrl._buffers[:-2], ctrl._buffers[-2], ctrl._buffers[-1]
    ks[0] = f(y0)
    if ctrl.dt is None:
        ctrl.dt = _initial_dt(ks[0], y0, ctrl, dt_cap if dt_cap is not None else 1.0)
    dt = min(ctrl.dt, ctrl.dt_max)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    while True:
        for s, row in enumerate(_DP_A[1:], start=1):
            # y0 + dt * sum(a * k); the last stage state is the step's
            # solution, so it gets an array of its own
            incr = np.multiply(dt, _weighted_sum(row, ks, acc, tmp), out=acc)
            yi = np.add(y0, incr, out=None if s == len(_DP_A) - 1 else tmp)
            ks[s] = f(yi)
        # FSAL: the last stage is evaluated at the 5th-order solution
        # (_DP_A[-1] is _DP_B5 without its zero last weight)
        y5 = yi
        weights = [b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4)]
        err = np.multiply(dt, _weighted_sum(weights, ks, acc, tmp), out=acc)
        err_norm = ctrl.error_norm(err, y0, y5)
        if not math.isfinite(err_norm):
            # also catches a non-finite dt (a NaN k1 gives a NaN initial step):
            # `dt < dt_min` below never holds for NaN, so rejection would loop
            raise StiffnessError(state.t, dt, err_norm)
        if err_norm <= 1.0:
            capped = dt_cap is not None and dt >= dt_cap
            proposal = dt * ctrl.accept_factor(err_norm)
            if capped:
                # keep growing from the controller's own proposal, not the cap
                proposal = max(proposal, ctrl.dt)
            ctrl.dt = min(proposal, ctrl.dt_max)
            ctrl.err_prev = max(err_norm, 1e-4)
            ctrl.naccept += 1
            ctrl.last_segment = StepSegment(state.t, dt, y0, ks)
            return GalerkinState(state.basis, y5, state.t + dt)
        ctrl.nreject += 1
        dt = dt * max(0.1, ctrl.safety * err_norm ** (-0.2))
        if dt < ctrl.dt_min:
            raise StiffnessError(state.t, dt, err_norm)
        ctrl.dt = dt


# -- trajectory runs --------------------------------------------------------


@dataclass
class SolverConfig:
    """Everything one trajectory run needs; mirrors the config file schema."""

    dim: int = 2
    M: int = 64
    L: float = 2 * np.pi
    dealias: float = 1.5
    p: float = 1.9
    mu: float = 1.0
    N: int | None = None
    lambda_cut: float | None = None
    record_d2: bool = False
    T: float = 1.0
    rtol: float = 1e-8
    atol: float = 1e-12
    dt_min: float = 1e-12
    sample_dt: float | None = None
    init_kind: str = "taylor_green"
    seed: int = 0
    band: int = 1
    amplitude: float = 1.0
    decay: float = 2.0
    path: str | None = None

    def build_grid(self) -> TorusGrid:
        return TorusGrid(self.dim, self.M, self.L, dealias_factor=self.dealias)

    def build_params(self) -> FluidParams:
        return FluidParams(self.p, self.mu)

    def resolve_N(self, grid: TorusGrid) -> int:
        """The basis size: N, the modes with eigenvalue <= lambda_cut, or
        the grid's capacity.  An empty Galerkin system is a ValueError."""
        if self.N is not None:
            if self.N < 1:
                raise ValueError(f"N = {self.N} selects no mode; need N >= 1")
            return self.N
        if self.lambda_cut is not None:
            N = count_modes_below(grid, self.lambda_cut)
            if N == 0:
                raise ValueError(
                    f"lambda_cut = {self.lambda_cut!r} selects no mode: the lowest "
                    f"eigenvalue is (2 pi / L)^2 = {(2.0 * np.pi / grid.L) ** 2!r}"
                )
            return N
        return basis_capacity(grid)

    def build_initial(self, grid: TorusGrid) -> SpectralVelocity:
        if self.init_kind == "taylor_green":
            return taylor_green(grid, amplitude=self.amplitude, band=self.band)
        if self.init_kind == "random_band":
            return random_solenoidal(
                grid, band=self.band, decay=self.decay, seed=self.seed,
                amplitude=self.amplitude,
            )
        if self.init_kind == "checkpoint":
            if not self.path:
                raise ValueError("checkpoint initial data needs a path")
            v = load_checkpoint(self.path, dealias_factor=self.dealias)
            if v.grid != grid:
                raise GridMismatchError(f"checkpoint grid {v.grid!r} vs run grid {grid!r}")
            return v
        raise ValueError(f"unknown init kind {self.init_kind!r}")


@dataclass
class TrajectoryRecord:
    """Scalar time series of one Galerkin run; everything the energy-gap
    diagnostics consume."""

    p: float
    mu: float
    N: int
    times: np.ndarray
    energy: np.ndarray
    rho: np.ndarray
    rho_tilde: np.ndarray
    grad_p_norm: np.ndarray
    Ip: np.ndarray
    d2_p_norm: np.ndarray | None = None
    steps: int = 0
    rejections: int = 0
    rhs_evaluations: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.size >= 2 and np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def write_csv(self, fh) -> None:
        cols = list(CSV_COLUMNS) + ([CSV_D2_COLUMN] if self.d2_p_norm is not None else [])
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        arrays = [self.times, self.energy, self.rho, self.rho_tilde,
                  self.grad_p_norm, self.Ip]
        if self.d2_p_norm is not None:
            arrays.append(self.d2_p_norm)
        for row in zip(*arrays):
            writer.writerow([repr(float(x)) for x in row])

    def csv_bytes(self) -> bytes:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue().encode()

    @classmethod
    def from_csv(cls, path, p: float = float("nan"), mu: float = float("nan"),
                 N: int = -1) -> "TrajectoryRecord":
        with open(path) as fh:
            header = next(csv.reader([fh.readline()]), [])
            base = list(CSV_COLUMNS)
            if header[: len(base)] != base:
                raise ValueError(f"{path} does not follow the trajectory CSV contract")
            has_d2 = len(header) > len(base) and header[len(base)] == CSV_D2_COLUMN
            with warnings.catch_warnings():
                # a header-only file is reported below, not as a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        if data.size == 0:
            raise ValueError(f"{path} holds no samples")
        # one C-contiguous row per column: strided column views would make
        # every np.interp on them copy the whole column
        cols = np.ascontiguousarray(data.T)
        return cls(
            p=p, mu=mu, N=N,
            times=cols[0], energy=cols[1], rho=cols[2],
            rho_tilde=cols[3], grad_p_norm=cols[4], Ip=cols[5],
            d2_p_norm=cols[6] if has_d2 else None,
        )


def run_trajectory(config: SolverConfig, collect_states_at=None):
    """Integrate on [0, T] and record every functional at each accepted
    step plus the configured sampling cadence.

    Cadence samples are evaluated on the integrator's dense-output
    interpolant, so the sampling never perturbs the step sequence.
    Deterministic for a fixed config (the only randomness is the seeded
    initial data).  When `collect_states_at` is given, also returns the
    run's `GalerkinState` at each of those times, on the run's one basis,
    each with the length-N vector sampled then, which no later step writes.
    A time within 1e-9 T of T is T's, as for the sample cadence; a time
    outside [0, T] beyond that raises ValueError.
    """
    grid = config.build_grid()
    params = config.build_params()
    N = config.resolve_N(grid)
    basis = make_basis(grid, N)
    state = project_initial_data(config.build_initial(grid), basis)

    targets = set()
    T = float(config.T)
    if config.sample_dt:
        n_samples = int(np.floor(T / config.sample_dt + 1e-9))
        targets.update(k * config.sample_dt for k in range(1, n_samples + 1))
    tol = 1e-9 * T
    collect = []
    for t in collect_states_at or ():
        t = float(t)
        if not -tol <= t <= T + tol:  # NaN included
            raise ValueError(f"state time {t!r} lies outside [0, T = {T!r}]")
        collect.append(min(max(t, 0.0), T))
    collect.sort()
    targets.update(collect)
    targets.add(T)
    snap = _snap_targets(sorted(t for t in targets if 0.0 < t <= T), T)
    target_list = sorted(set(snap.values()))
    collect_set = {snap.get(t, t) for t in collect}

    ctrl = StepController(rtol=config.rtol, atol=config.atol, dt_min=config.dt_min)
    rows = []
    seen_times = set()
    states = {}

    def record_coeffs(t: float, c: np.ndarray):
        if t in seen_times:
            return
        seen_times.add(t)
        st = GalerkinState(basis, c, t)
        rows.append((t, state_functionals(st, params, record_d2=config.record_d2)))
        if t in collect_set:
            states[t] = st

    record_coeffs(0.0, state.c)
    pending = list(target_list)
    while state.t < T:
        t_prev = state.t
        state = advance(state, params, ctrl, dt_cap=T - t_prev)
        if abs(state.t - T) <= 1e-12 * max(1.0, T):
            state.t = T
        seg = ctrl.last_segment
        while pending and pending[0] < state.t:
            record_coeffs(pending[0], seg.interpolate(pending[0]))
            pending.pop(0)
        record_coeffs(state.t, state.c)
        while pending and pending[0] <= state.t:
            pending.pop(0)

    record_obj = _rows_to_record(config, params, N, rows, ctrl)
    if collect_states_at is None:
        return record_obj
    # one state per requested time, also where two requests snapped together
    ordered = [states[snap.get(t, t)] for t in collect]
    return record_obj, ordered


def _snap_targets(times: list[float], T: float) -> dict[float, float]:
    """Map sorted sample targets in (0, T] onto the times actually sampled.

    Targets within 1e-9 * T of T become T, and a target within that
    tolerance of the previous kept one becomes that one: floating-point
    cadences such as k * 0.03 can land an ulp below T = 0.33, and two
    samples that close would make one-sided differences meaningless.
    """
    tol = 1e-9 * T
    snap = {}
    kept = None
    for t in times:
        if T - t <= tol:
            s = T
        elif kept is not None and t - kept <= tol:
            s = kept
        else:
            s = kept = t
        snap[t] = s
    return snap


def _rows_to_record(config, params, N, rows, ctrl) -> TrajectoryRecord:
    # record_coeffs samples each time once, so rows hold no duplicate times
    times = np.array([t for t, _ in rows])
    get = lambda key: np.array([vals[key] for _, vals in rows])
    return TrajectoryRecord(
        p=params.p, mu=params.mu, N=N,
        times=times,
        energy=get("energy"),
        rho=get("rho"),
        rho_tilde=get("rho_tilde"),
        grad_p_norm=get("grad_p_norm"),
        Ip=get("Ip"),
        d2_p_norm=get(CSV_D2_COLUMN) if config.record_d2 else None,
        steps=ctrl.naccept,
        rejections=ctrl.nreject,
        rhs_evaluations=ctrl.nrhs,
    )

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

# the trajectory CSV's columns in file order, each with the TrajectoryRecord
# field that holds it; the last one is written only when it is recorded
CSV_FIELDS = {"t": "times", "energy": "energy", "rho": "rho", "rho_tilde": "rho_tilde",
              "grad_p_norm": "grad_p_norm", "Ip": "Ip", "d2_p_norm": "d2_p_norm"}
CSV_COLUMNS = tuple(CSV_FIELDS)[:-1]
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
    constants beside them are computed once.  The buffers and their roles:

    - phys, padded grids.  RHS: v, the rotation's strict upper triangle
      (off a dealiased grid), D's upper triangle without D_dd, which
      becomes the flux T in place, then v . grad v (off a dealiased
      grid): `n_rhs` grids.  Functionals: v; or grad v in C order but the
      last entry, d_d v_d, which takes d_0 v_1's slot once D_01 has
      freed it, and then D's upper triangle; or d_s D_ij in two slots of
      d grids and the sum of their squares in the grid after them; or a
      component's Hessian pairs.  On a dealiased 3D grid that is the
      RHS's n_rhs = 8 grids.
    - mag and tmp, padded grids.  RHS: |D|^2 and then the stress factor
      in mag, and tmp as the scratch grid, which also takes D_dd each
      time it is read.  Functionals: a magnitude or sum of squares, |D|^2
      while a strain key reads it, in mag; tmp as the scratch grid, which
      also keeps the stress factor that rho_tilde and I_p share.
    - dd, a padded grid off a dealiased grid only: D_dd, which the RHS's
      v . grad v reads beside the rotation.  None on a dealiased grid.
    - mask, a padded boolean grid: where the stress factor is singular.
    - coef and row: the coefficients at the kept positions, and two
      kept-position rows in which each transform input is formed (the
      first also takes each term of the RHS's divergence).
    - work and gath: the padded half-spectrum of one transform call, and
      one forward call's coefficients at the basis wavevectors.

    The RHS's divergence is summed by `StokesBasis.project_sum` in the
    basis's own mode-value scratch, so the arena holds no (d, modes)
    buffer.

    No field spectrum is formed.  A kernel's transform inputs are
    formed at the basis's kept positions (`StokesBasis.kept`: the band
    modes with last index >= 0 that the basis reaches) and scattered
    straight into the kept padded half-spectrum that `TorusGrid.to_physical`
    transforms, which lives in `work`.  Every padded transform runs
    through `sample` or `spectra`, a chunk of as many channels as
    `_CHUNK_BYTES` of spectrum hold (at least one) per call, so `work`
    holds one call's spectrum and `gath` one forward call's coefficients,
    not a whole pass's.
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
        self.kept_ik = 1j * _wavevectors(g, _kept_wavevectors(self.modes, self.kept))
        # where the forward transforms read the basis wavevectors, and
        # 1j * k there
        self.index = g.band_index(basis.modes)
        self.ikm = 1j * _wavevectors(g, basis.modes)

        # RHS padded channels: v, the rotation's strict upper triangle (off
        # a dealiased grid only) and D's upper triangle without D_dd go in;
        # the traceless flux T over D's channels, then v . grad v (off a
        # dealiased grid only), come out
        n_rot = len(self.rot_pairs)
        skew = d if n_rot else 0
        self.n_in = d + n_rot + n_ind  # v, the rotation and D go in
        self.n_rhs = self.n_in + skew  # and v . grad v comes out after T
        n_fwd = n_ind + skew  # T, then v . grad v
        # channels per to_physical and per to_spectral call
        self.chunk = _channels_per_call(g, forward=False)
        self.fwd_chunk = _channels_per_call(g, forward=True)
        # the functionals hold at most d*d - 1 grids of grad v, or two
        # slots of d grids of d_s D_ij and the sum of their squares
        grid, kept = g.padded_shape, (len(self.dst),)
        self.phys = np.empty((max(self.n_rhs, d * d - 1, 2 * d + 1),) + grid)
        self.dd = np.empty(grid) if n_rot else None
        self.mag = np.empty(grid)
        self.tmp = np.empty(grid)
        self.mask = np.empty(grid, dtype=np.bool_)
        self.coef = np.empty((d,) + kept, np.complex128)
        self.row = np.empty((2,) + kept, np.complex128)
        n_inv = max(self.n_in, npair)  # the most channels one pass samples
        fwd = min(n_fwd, self.fwd_chunk)
        self.work = np.empty(max(g.work_size(min(n_inv, self.chunk), False),
                                 g.work_size(fwd, True)), np.complex128)
        self.gath = np.empty((fwd, len(basis.modes)), np.complex128)

    def sample(self, rows, out: np.ndarray) -> np.ndarray:
        """Padded-grid samples of len(out) channels into out.  `rows`
        yields each channel's transform input at the kept positions in
        turn; it is scattered into a zeroed chunk of the kept padded
        half-spectrum in `work`, and `to_physical` samples `chunk`
        channels per call (the last call fewer)."""
        rows = iter(rows)
        for start in range(0, len(out), self.chunk):
            chunk = out[start : start + self.chunk]
            shape = (len(chunk),) + self.grid.kept_shape
            spec = self.work[: math.prod(shape)].reshape(shape)
            spec.fill(0.0)
            for channel in spec.reshape(len(chunk), -1):
                channel[self.dst] = next(rows)
            self.grid.to_physical(spec, out=chunk)
        return out

    def spectra(self, samples: np.ndarray):
        """Yield each channel's coefficients at the basis wavevectors, in
        channel order, from `fwd_chunk` channels of `samples` per
        `to_spectral` call.  A yielded row lives in `gath` until the next
        call."""
        for start in range(0, len(samples), self.fwd_chunk):
            chunk = samples[start : start + self.fwd_chunk]
            yield from self.grid.to_spectral(chunk, self.index, out=self.gath[: len(chunk)],
                                             work=self.work)


# A padded transform call takes at most this many bytes of spectrum: as
# many channels as fit, and at least one.  numpy transforms each lane on
# its own, so a chunk of channels gives the bits of one call over them all,
# and `work` need hold only one chunk.  From 3D 32^3 up one channel's
# spectrum is larger than this, and a call per channel costs no more per
# channel than a batched one; on 2D grids and 3D 16^3 a kernel's whole
# pass fits in one call, where a call per channel would cost up to about
# twice as much per channel.
_CHUNK_BYTES = 1 << 20


def _channels_per_call(grid: TorusGrid, forward: bool) -> int:
    per_channel = grid.work_size(1, forward) * np.dtype(np.complex128).itemsize
    return max(1, _CHUNK_BYTES // per_channel)


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
    d, pos = g.dim, arena.pos
    phys, mag, tmp = arena.phys, arena.mag, arena.tmp
    ik, row, other = arena.kept_ik, arena.row[0], arena.row[1]
    values = {}

    def reduce(name, magnitude):
        for q in args[name]:
            values[name, q] = _norm_of_magnitude(magnitude, q, g, out=tmp)

    def add_squares(channels, weight=1.0, scratch=tmp, acc=mag):
        # acc += weight * ch**2 for each channel in turn
        for ch in channels:
            sq = np.square(ch, out=scratch)
            if weight != 1.0:
                sq *= weight
            np.add(acc, sq, out=acc)

    def at(i, j):
        # the slot of d_j v_i, and of D_ij for i <= j
        return d if i == j == d - 1 else d * i + j

    def strain_entry(i, j):
        # D_ij = (d_j v_i + d_i v_j)/2 for i <= j, over d_j v_i
        Dij = np.add(phys[at(i, j)], phys[at(j, i)], out=phys[at(i, j)])
        np.multiply(0.5, Dij, out=Dij)

    def products(factors, c, negate=False):
        # the inputs factors[j] * c, a channel each
        for factor in factors:
            np.multiply(factor, c, out=row)
            if negate:
                np.negative(row, out=row)
            yield row

    if "u" in args:
        reduce("u", _magnitude(arena.sample(coef, phys[:d]), mag, tmp))
    strain = args.keys() & {"shifted", "rho_tilde", "I_p"}
    if "grad" in args or strain:
        # d_j v_i into slot d*i + j, a row per transform, the squares added
        # to mag as each row arrives: the C order of gradient(v)'s
        # magnitude.  D_01 is formed as soon as row 1 is in, which frees
        # d_0 v_1's slot, d; the last entry, d_d v_d, is minus the other
        # diagonal entries' sum and takes that slot.  Then D's upper
        # triangle replaces grad v's, D_dd in slot d
        G = phys[: d * d - 1]
        for i in range(d):
            n = d - 1 if i == d - 1 else d
            grad_row = arena.sample(products(ik[:n], coef[i]), G[d * i : d * i + n])
            if "grad" in args:
                if i == 0:
                    _sum_of_squares(grad_row, mag, tmp)
                else:
                    add_squares(grad_row)
            if i == 1 and strain:
                strain_entry(0, 1)
        last = np.negative(np.sum(G[:: d + 1], axis=0, out=phys[d]), out=phys[d])
        if "grad" in args:
            add_squares([last])
            reduce("grad", np.sqrt(mag, out=mag))
    shared = None  # the params whose stress factor tmp keeps for I_p
    if strain:
        for i, j in arena.pairs:
            if (i, j) != (0, 1):
                strain_entry(i, j)
        # |D|^2 into mag, summed in C order
        D = [phys[at(min(i, j), max(i, j))] for i in range(d) for j in range(d)]
        dd = _sum_of_squares(D, mag, tmp)
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
        # |grad D|^2 into the grid after two slots of d, adding (d_s D_ij)^2
        # over the pairs i <= j in row order and s, the off-diagonal pairs
        # twice.  A pair per transform, but the last, (d, d): d_s D_dd =
        # -sum_i d_s D_ii, so the first diagonal pair keeps the first slot
        # and every other pair takes the second, a later diagonal one
        # added into the first as soon as its squares are in.  The squares
        # go through mag when tmp keeps the shared stress factor, and |D|^2
        # is dead
        diag_sum, each, grad_sq = phys[:d], phys[d : 2 * d], phys[2 * d]
        scratch = tmp if shared is None else mag
        grad_sq.fill(0.0)
        for (i, j), weight in zip(arena.strain_pairs, arena.w_off):
            slot = diag_sum if i == j == 0 else each
            # d_s D_ij from D_ij = (ik_j c_i + ik_i c_j)/2
            np.multiply(ik[j], coef[i], out=other)
            np.add(other, np.multiply(ik[i], coef[j], out=row), out=other)
            np.multiply(0.5, other, out=other)
            arena.sample(products(ik, other), slot)
            add_squares(slot, weight, scratch, grad_sq)
            if i == j != 0:
                np.add(diag_sum, each, out=diag_sum)
        add_squares(np.negative(diag_sum, out=each), scratch=scratch, acc=grad_sq)
        for params in args["I_p"]:
            fac = tmp if params == shared else law._stress_factor(dd, params, out=tmp)
            values["I_p", params] = float(np.sum(np.multiply(fac, grad_sq, out=fac))
                                          * g.quad_weight)
    if "hess" in args:
        # d_j d_k v_i = -(k_j k_k) c_i for the pairs j <= k, a component per
        # transform, its squares added over (j, k) before the next i: the
        # (i, j, k) order of the magnitude of the full (d, d, d) Hessian.
        # k_j k_k is formed a pair at a time in the real part of the free
        # scratch row, from k = ik.imag, which holds k's bits
        H = phys[: len(arena.pairs)]
        kk = other.real

        def factors():
            for j, k in arena.pairs:
                yield np.multiply(ik[j].imag, ik[k].imag, out=kk)

        mag.fill(0.0)
        for i in range(d):
            arena.sample(products(factors(), coef[i], negate=True), H)
            add_squares([H[pos[j, k]] for j in range(d) for k in range(d)])
        reduce("hess", np.sqrt(mag, out=mag))
    return values


# -- right-hand side -------------------------------------------------------


def _rhs_parts(basis: StokesBasis, params: FluidParams, c: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
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
    formed at the basis wavevectors alone, by `StokesBasis.project_sum`.
    All work happens in the basis's arena and scratch.  dc/dt is written
    into `out` (a length-N float vector that aliases neither c nor the
    basis's scratch) when it is given, and `out` is returned; otherwise
    the returned vector is the one new array.
    """
    arena = _arena(basis)
    d = basis.grid.dim
    ik = arena.kept_ik
    n_rot = len(arena.rot_pairs)
    n_ind = len(arena.strain_pairs)
    vhat = basis.kept_coeffs(c, out=arena.coef)
    half, other = arena.row

    def inputs():
        yield from vhat
        # ghat[i, j] = d_j v_i; the rotation and D from its two triangles
        for k, (i, j) in enumerate(arena.rot_pairs + arena.strain_pairs):
            np.multiply(ik[j], vhat[i], out=half)
            np.multiply(ik[i], vhat[j], out=other)
            (np.subtract if k < n_rot else np.add)(half, other, out=half)
            np.multiply(0.5, half, out=half)
            yield half

    phys, tmp = arena.phys, arena.tmp
    arena.sample(inputs(), phys[: arena.n_in])
    V = phys[:d]
    D = phys[d + n_rot : arena.n_in]  # D's upper triangle but D_dd

    def trace_part(out):
        # D_dd = -sum_i D_ii, formed again each time it is read
        return np.negative(np.sum(D[arena.diag], axis=0, out=out), out=out)

    # |D|^2, the off-diagonal pairs counted twice
    dd_sq = np.einsum("k...,k...,k->...", D, D, arena.w_off, out=arena.mag)
    D_dd = trace_part(tmp)
    dd_sq += np.square(D_dd, out=D_dd)
    fac = law._stress_factor(dd_sq, params, out=dd_sq, mask=arena.mask)
    if n_rot:
        # v (x) v aliases into the band, so the divergence form alone is not
        # energy-neutral; it is averaged with the advective form v . grad v,
        # whose discrete trilinear form cancels it exactly:
        # (v . grad v)_i = sum_j v_j (D_ij + R_ij), R antisymmetric
        strain = [*D, trace_part(arena.dd)]  # the pairs in the order arena.pos indexes
        w1 = phys[arena.n_in : arena.n_rhs]
        for i, row in enumerate(arena.pos):
            np.multiply(V[0], strain[row[0]], out=w1[i])
            for j in range(1, d):
                w1[i] += np.multiply(V[j], strain[row[j]], out=tmp)
        for R, (i, j) in zip(phys[d : d + n_rot], arena.rot_pairs):
            w1[i] += np.multiply(V[j], R, out=tmp)
            w1[j] -= np.multiply(V[i], R, out=tmp)

    # T over D's channels: sigma_ij - s v_i v_j, minus T_dd = -s v_d^2 on
    # the diagonal (s = 1/2 off a dealiased grid; s = 1 takes no multiply)
    D[arena.diag] -= trace_part(tmp)
    for T, (i, j) in zip(D, arena.strain_pairs):
        np.multiply(fac, T, out=T)
        vv = np.multiply(V[i], V[j], out=tmp)
        if n_rot:
            np.multiply(0.5, vv, out=vv)
        T -= vv
        if i == j:
            t_dd = np.square(V[d - 1], out=tmp)
            if n_rot:
                np.multiply(0.5, t_dd, out=t_dd)
            T += t_dd
    # T, with v . grad v after it, transformed at the basis wavevectors
    # alone.  div_i = sum_j ik_j T_ij gains each pair's terms as its channel
    # arrives: in row order, every row's terms come in j order (T_dd = 0
    # leaves the last row one short), the sums of an einsum over each row.
    # v . grad v is subtracted after every flux term, as -(S/2) added:
    # x + (-y) is x - y bit for bit
    ikm = arena.ikm
    term = half[: len(basis.modes)]

    def div_terms():
        for k, S in enumerate(arena.spectra(phys[d + n_rot : arena.n_rhs])):
            if k < n_ind:
                i, j = arena.strain_pairs[k]
                yield i, np.multiply(ikm[j], S, out=term)
                if i != j:
                    yield j, np.multiply(ikm[i], S, out=term)
            else:
                yield k - n_ind, np.negative(np.multiply(0.5, S, out=S), out=S)

    return basis.project_sum(div_terms(), out=out)


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
# the error estimate's weights, b5 - b4
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))
# the step-size laws' safety factor
_SAFETY = 0.9

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

    def interpolate(self, t: float) -> np.ndarray:
        """The dense-output state at t, a fresh vector: callers keep it."""
        theta = (t - self.t0) / self.dt
        powers = theta ** np.arange(1, 5)
        weights = _DP_P @ powers
        y = weights @ self.stages
        np.multiply(self.dt, y, out=y)
        return np.add(self.y0, y, out=y)


@dataclass
class StepController:
    """Embedded-pair error control with a PI step-size law.

    A caller sets the tolerances and, to resume a run, the step-size state
    `dt` and `err_prev`; the counters and `last_segment` are the
    controller's own.  `last_segment` holds the stages of the most recent
    accepted step so callers can densely sample inside it.  Its stages
    live in the controller's stage buffer, so it is valid until the next
    `advance` on the same controller.  `nrhs` counts the RHS evaluations
    `advance` makes.

    The buffer is (9, N): the seven stages, then `acc` and `tmp`.  Each
    RHS evaluation of `advance` writes its stage straight into its row;
    `acc` takes each stage sum and then the error estimate, and `tmp`
    each intermediate stage state and each weighted term.  The last stage
    state is the step's solution, which the step returns, so it is a new
    vector, reused by the retries of a rejected step.  `advance` hands
    `error_norm` the `tmp` row, free by then, for its scale and ratio, so
    |y1| is its one transient; the first step's size is weighed in that
    row too, before any stage sum needs it.
    """

    rtol: float = 1e-8
    atol: float = 1e-12
    dt_min: float = 1e-12
    dt: float | None = None
    err_prev: float = 1.0
    naccept: int = field(default=0, init=False)
    nreject: int = field(default=0, init=False)
    nrhs: int = field(default=0, init=False)
    last_segment: StepSegment | None = field(default=None, init=False)
    # the (7, N) stages and two N-vectors of stage sums, reallocated when N
    # changes
    _buffers: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # written so that NaN fails every check
        if not (self.rtol > 0 and self.atol >= 0 and self.dt_min > 0):
            raise ValueError("tolerances must be positive")

    def error_norm(self, err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                   out: np.ndarray) -> float:
        """The RMS of err / (atol + rtol * max(|y0|, |y1|)), with the scale
        and the ratio formed in `out`, which none of the three may alias."""
        sc = np.maximum(np.abs(y0, out=out), np.abs(y1), out=out)
        np.multiply(self.rtol, sc, out=sc)
        np.add(self.atol, sc, out=sc)
        ratio = np.divide(err, sc, out=sc)
        return float(np.sqrt(np.mean(np.square(ratio, out=ratio))))

    def accept_factor(self, err_norm: float) -> float:
        if err_norm == 0.0:
            return 5.0
        fac = _SAFETY * err_norm ** (-0.7 / 5.0) * self.err_prev ** (0.4 / 5.0)
        return float(np.clip(fac, 0.2, 5.0))


def _initial_dt(f0: np.ndarray, y0: np.ndarray, ctrl: StepController, horizon: float,
                tmp: np.ndarray) -> float:
    """The first step's size from the RMS sizes of y0 and f0 = f(y0),
    weighted as `error_norm` weights an error at y0; `tmp`, an N-vector
    that neither may alias, is its scratch."""
    d0 = ctrl.error_norm(y0, y0, y0, tmp)
    d1 = ctrl.error_norm(f0, y0, y0, tmp)
    if d0 < 1e-5 or d1 < 1e-5:
        h = 1e-3 * horizon if horizon > 0 else 1e-6
    else:
        h = 0.01 * d0 / d1
    return float(np.clip(h, ctrl.dt_min, horizon or h))


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

    def f(y, out):
        # looked up in the module and given `out` positionally, so that a
        # wrapper of _rhs_parts sees and counts every call
        ctrl.nrhs += 1
        _rhs_parts(state.basis, params, y, out)

    y0 = state.c
    # the stages, each written in place by its RHS and handed to the step's
    # segment, and the stage sums, all in the controller's buffers
    if ctrl._buffers is None or ctrl._buffers.shape[1] != y0.size:
        ctrl._buffers = np.empty((len(_DP_A) + 2, y0.size))
    ks, acc, tmp = ctrl._buffers[:-2], ctrl._buffers[-2], ctrl._buffers[-1]
    f(y0, ks[0])
    if ctrl.dt is None:
        ctrl.dt = _initial_dt(ks[0], y0, ctrl, dt_cap if dt_cap is not None else 1.0, tmp)
    dt = ctrl.dt
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    y5 = None
    while True:
        for s, row in enumerate(_DP_A[1:], start=1):
            # y0 + dt * sum(a * k); the last stage state is the step's
            # solution, so it gets an array of its own, which a rejected
            # attempt hands on to the next
            incr = np.multiply(dt, _weighted_sum(row, ks, acc, tmp), out=acc)
            if s < len(_DP_A) - 1:
                yi = np.add(y0, incr, out=tmp)
            else:
                yi = y5 = np.add(y0, incr, out=y5)
            f(yi, ks[s])
        # FSAL: the last stage is evaluated at the 5th-order solution
        # (_DP_A[-1] is _DP_B5 without its zero last weight)
        err = np.multiply(dt, _weighted_sum(_DP_E, ks, acc, tmp), out=acc)
        err_norm = ctrl.error_norm(err, y0, y5, tmp)
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
            ctrl.dt = proposal
            ctrl.err_prev = max(err_norm, 1e-4)
            ctrl.naccept += 1
            ctrl.last_segment = StepSegment(state.t, dt, y0, ks)
            return GalerkinState(state.basis, y5, state.t + dt)
        ctrl.nreject += 1
        dt = dt * max(0.1, _SAFETY * err_norm ** (-0.2))
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
    # a column that from_csv was not asked to convert is None
    energy: np.ndarray | None
    rho: np.ndarray | None
    rho_tilde: np.ndarray | None
    grad_p_norm: np.ndarray | None
    Ip: np.ndarray | None
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
        self._csv_columns()  # a partial record raises before the file is made
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def _csv_columns(self) -> dict[str, np.ndarray]:
        """The CSV's columns by name, in file order; ValueError for a
        record that from_csv read without some of them."""
        cols = {name: getattr(self, attr) for name, attr in CSV_FIELDS.items()
                if name != CSV_D2_COLUMN or self.d2_p_norm is not None}
        missing = [name for name, col in cols.items() if col is None]
        if missing:
            raise ValueError(f"the record was read without the column(s) "
                             f"{', '.join(missing)} and cannot be written")
        return cols

    def write_csv(self, fh) -> None:
        cols = self._csv_columns()
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in zip(*cols.values()):
            writer.writerow([repr(float(x)) for x in row])

    def csv_bytes(self) -> bytes:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue().encode()

    @classmethod
    def from_csv(cls, path, p: float = float("nan"), mu: float = float("nan"),
                 N: int = -1, columns=None) -> "TrajectoryRecord":
        """The record of a trajectory CSV, converting only the CSV columns
        named in `columns` (all of them when None; `t` always).  The others
        come back as None, and such a record cannot be written.

        Every row must hold the header's number of fields, unread ones
        included, and every converted value must be finite, except in
        `Ip`, which a mu = 0 run fills with NaN.  A violation is a
        ValueError naming the file and the data row, counted from 1."""
        with open(path) as fh:
            header = next(csv.reader([fh.readline()]), [])
            if header[: len(CSV_COLUMNS)] != list(CSV_COLUMNS):
                raise ValueError(f"{path} does not follow the trajectory CSV contract")
            known = [name for name in CSV_FIELDS if name in header[: len(CSV_FIELDS)]]
            wanted = set(known if columns is None else columns) | {"t"}
            if not wanted <= set(known):
                raise ValueError(f"{path} has no column "
                                 f"{', '.join(sorted(wanted - set(known)))}")
            # an unread field is a zero-width string: loadtxt still counts
            # it, so a short or long row is an error, but parses nothing
            parsed = [j < len(known) and name in wanted for j, name in enumerate(header)]
            dtype = np.dtype([(f"c{j}", "f8" if conv else "S0") for j, conv in enumerate(parsed)])
            with warnings.catch_warnings():
                # a header-only file is reported below, not as a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                try:
                    data = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=1)
                except ValueError as exc:
                    fh.seek(0)
                    fh.readline()
                    why = _refused_row(fh, header, parsed) or str(exc)
                    raise ValueError(f"{path}: {why}") from None
        if data.size == 0:
            raise ValueError(f"{path} holds no samples")
        values = dict.fromkeys(CSV_FIELDS.values())
        for j, name in enumerate(known):
            if name not in wanted:
                continue
            # one C-contiguous array per column: strided field views would
            # make every np.interp on them copy the whole column
            col = np.ascontiguousarray(data[f"c{j}"])
            if name != "Ip" and not np.isfinite(col).all():
                row = int(np.argmin(np.isfinite(col)))
                raise ValueError(f"{path}: column {name} holds {float(col[row])!r} "
                                 f"at data row {row + 1}")
            values[CSV_FIELDS[name]] = col
        return cls(p=p, mu=mu, N=N, **values)


def _refused_row(lines, header: list[str], parsed: list[bool]) -> str | None:
    """Why loadtxt refused these data lines: the first row, counted from 1
    over the lines it reads (one that a # comment empties is none), whose
    field count is not the header's or whose converted field is no number;
    None if no row is."""
    data = (line.partition("#")[0].rstrip("\n") for line in lines)
    for row, fields in enumerate((line.split(",") for line in data if line), 1):
        if len(fields) != len(header):
            return f"{len(fields)} field(s) under a {len(header)}-field header at data row {row}"
        for name, text, conv in zip(header, fields, parsed):
            if conv and not _is_float(text):
                return f"column {name} holds {text!r}, not a number, at data row {row}"
    return None


def _is_float(text: str) -> bool:
    """Whether numpy's parser reads `text` as a float: float() without _ or non-ASCII."""
    try:
        float(text)
    except ValueError:
        return False
    return text.isascii() and "_" not in text


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

    T = float(config.T)
    tol = 1e-9 * T
    collect = []
    for t in collect_states_at or ():
        t = float(t)
        if not -tol <= t <= T + tol:  # NaN included
            raise ValueError(f"state time {t!r} lies outside [0, T = {T!r}]")
        collect.append(min(max(t, 0.0), T))
    collect.sort()
    n_cadence = int(np.floor(T / config.sample_dt + 1e-9)) if config.sample_dt else 0
    targets = {k * config.sample_dt for k in range(1, n_cadence + 1)} | {*collect, T}
    snap = _snap_targets(sorted(t for t in targets if 0.0 < t <= T), T)
    # the sample times after 0, popped from the end as the steps reach them
    pending = sorted(set(snap.values()), reverse=True)
    # the state kept at each collected time, filled when it is sampled
    states = dict.fromkeys(snap.get(t, t) for t in collect)

    ctrl = StepController(rtol=config.rtol, atol=config.atol, dt_min=config.dt_min)
    columns = {name: [] for name in CSV_FIELDS if name != CSV_D2_COLUMN or config.record_d2}

    def record_coeffs(t: float, c: np.ndarray):
        st = GalerkinState(basis, c, t)
        columns["t"].append(t)
        for name, value in state_functionals(st, params, record_d2=config.record_d2).items():
            columns[name].append(value)
        if t in states:
            states[t] = st

    record_coeffs(0.0, state.c)
    while state.t < T:
        state = advance(state, params, ctrl, dt_cap=T - state.t)
        if abs(state.t - T) <= 1e-12 * max(1.0, T):
            state.t = T
        # every target up to the previous step end is gone, so one before
        # this end lies inside the step and is read off its dense output
        seg = ctrl.last_segment
        while pending[-1] < state.t:
            t = pending.pop()
            record_coeffs(t, seg.interpolate(t))
        if pending[-1] == state.t:
            pending.pop()
        record_coeffs(state.t, state.c)

    arrays = {CSV_FIELDS[name]: np.array(col) for name, col in columns.items()}
    record = TrajectoryRecord(params.p, params.mu, N, steps=ctrl.naccept,
                              rejections=ctrl.nreject, rhs_evaluations=ctrl.nrhs, **arrays)
    if collect_states_at is None:
        return record
    # one state per requested time, also where two requests snapped together
    return record, [states[snap.get(t, t)] for t in collect]


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

"""The test oracle: plain full-channel forms of the padded-grid functionals
that plsf computes in one kernel, `plsf.galerkin._padded_values`.

Each form transforms every channel of a half-layout spectrum and reduces
with numpy sums: no trace-free channel, no arena and no `out=` buffer.
Beside them, the basis's coefficient transforms the plain way
(`table_mode_values`, `table_project_modes`): through a zero-padded
(modes, d-1, 2) table of every slot, the last mode's missing ones 0.
The half layout is the real-input FFT's, (dim,) + `spectral_shape(g)`:
modes with last index >= 0, in numpy fft order on the leading axes; on
the plane of last index 0 it holds both n and -n.  plsf holds a field's
coefficients at its representative wavevectors alone; the helpers here
move between the two layouts.  Tests import them from here, and the
full-layout helpers below, which build spectra the way a test would
write them out by hand, and the full-layout initial data that plsf's
constructors are compared with.

The last section holds the checks that only tests read, on plsf's
private helpers: the stress of a single tensor and the stress-difference
bound, the Leray projection of raw coefficients, the inner product and
the Parseval L^2 norm of fields, the arctangent weight with the
weighted energy identity, and the energy-identity residual with the two
gap forms, one interval at a time, which plsf.gap.gap_estimate forms in
one pass and must match bit for bit.
"""

import numpy as np
import pytest

from plsf.constitutive import FluidParams
from plsf.errors import GridMismatchError
from plsf.fields import (
    SpectralVelocity,
    TensorField,
    _coefficient_array,
    _l2_norm,
    _samples_and_grid,
    _solenoidal_part,
    _wavevectors,
    gradient,
    lp_norm,
    representative_modes,
)
from plsf.galerkin import TrajectoryRecord
from plsf.gap import (
    ExceedancePartition,
    _centered_derivative,
    _check_window,
    _integrate_linear,
    _interp,
    exceedance_partition,
)
from plsf.grid import TorusGrid


@pytest.fixture
def grid2d():
    return TorusGrid(2, 16, 2 * np.pi)


def fft_modes(g) -> np.ndarray:
    """Integer wavenumbers along one axis of length M, in fft order."""
    return np.rint(np.fft.fftfreq(g.M) * g.M).astype(np.int64)


def full_mode_grid(g) -> np.ndarray:
    """Integer multi-indices of the full numpy fftn layout, shape
    (dim,) + (M,)*dim."""
    return np.stack(np.meshgrid(*([fft_modes(g)] * g.dim), indexing="ij"))


def spectral_shape(g) -> tuple:
    """Shape of one component of a half-layout spectrum."""
    return (g.M,) * (g.dim - 1) + (g.M // 2,)


def half_mode_grid(g) -> np.ndarray:
    """Integer multi-indices of the half layout, (dim,) + spectral_shape."""
    axes = [fft_modes(g)] * (g.dim - 1) + [np.arange(g.M // 2, dtype=np.int64)]
    return np.stack(np.meshgrid(*axes, indexing="ij"))


def half_wavevectors(g) -> np.ndarray:
    """k = (2*pi/L) * n over the half layout, (dim,) + spectral_shape."""
    return (2.0 * np.pi / g.L) * half_mode_grid(g).astype(np.float64)


def band_mask(g) -> np.ndarray:
    """True on the half layout where every |n_i| <= M/2 - 1."""
    return np.all(np.abs(half_mode_grid(g)) <= g.M // 2 - 1, axis=0)


def reflect(g, c) -> np.ndarray:
    """The array r with r(n) = c(-n), for an array whose last dim axes
    each hold every mode modulo their length: the full fftn layout, or the
    plane c[..., :1] of a half-layout spectrum."""
    out = c
    for ax in range(c.ndim - g.dim, c.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def rep_wavevectors(g) -> np.ndarray:
    """k = (2*pi/L) * n at the representatives, shape (dim, count)."""
    return (2.0 * np.pi / g.L) * representative_modes(g).T.astype(np.float64)


def rep_index(g, n) -> int:
    """The column of wavevector n among representative_modes(g)."""
    (row,) = np.flatnonzero(np.all(representative_modes(g) == np.asarray(n), axis=1))
    return int(row)


def half_spectrum(g, coeffs) -> np.ndarray:
    """The half layout of coefficients at the representatives, lead +
    (count,): c(n) where n has last index >= 0, conj c(n) at -n where -n
    has, zeros elsewhere."""
    coeffs = np.asarray(coeffs)
    lead = coeffs.shape[:-1]
    n = representative_modes(g)
    out = np.zeros(lead + spectral_shape(g), dtype=np.complex128)
    for sign, vals in ((1, coeffs), (-1, np.conj(coeffs))):
        at = sign * n[:, -1] >= 0
        out[(Ellipsis,) + tuple((sign * n[at] % g.M).T)] = vals[..., at]
    return out


def from_half(g, half) -> np.ndarray:
    """The coefficients at the representatives that a half-layout
    spectrum holds, lead + (count,): c(n), or conj c(-n) where n has a
    negative last index."""
    n = representative_modes(g)
    neg = n[:, -1] < 0
    vals = half[(Ellipsis,) + tuple((np.where(neg[:, None], -n, n) % g.M).T)]
    return np.where(neg, np.conj(vals), vals)


def half_to_physical(g, half) -> np.ndarray:
    """Padded-grid samples of a half-layout spectrum, lead +
    spectral_shape: `grid.to_physical` of its kept_spectrum."""
    return g.to_physical(kept_spectrum(g, half))


def kept_spectrum(g, half) -> np.ndarray:
    """The band of a half-layout spectrum placed into the kept padded
    half-spectrum (lead + kept_shape) by signed leading-axis mode."""
    lead = half.shape[: half.ndim - g.dim]
    low = g.M // 2
    lanes = [np.arange(-(low - 1), low)] * (g.dim - 1)
    spec = np.zeros(lead + g.kept_shape, dtype=np.complex128)
    src = np.ix_(*[n % g.M for n in lanes])
    dst = np.ix_(*[n % g.padded_M for n in lanes])
    spec[(Ellipsis,) + dst + (slice(None),)] = half[(Ellipsis,) + src + (slice(None),)]
    return spec


def grid_points(g, padded=True) -> np.ndarray:
    """Physical sample coordinates of the padded grid, or of the native
    (M,)^dim one, shape (dim,) + that grid's shape."""
    n = g.padded_M if padded else g.M
    x = np.arange(n) * (g.L / n)
    return np.stack(np.meshgrid(*([x] * g.dim), indexing="ij"))


def hermitian_half(g, lead=(), seed=0) -> np.ndarray:
    """Random complex noise on the full (M,)^dim layout, symmetrized as
    (c + conj c(-n)) / 2 and cut to the half layout, shape
    lead + spectral_shape.  Nothing is masked: the leading axes' Nyquist
    rows hold noise too."""
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + g.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.ascontiguousarray((0.5 * (raw + np.conj(reflect(g, raw))))[..., : g.M // 2])


def noise(g, lead=(), seed=0) -> np.ndarray:
    """Random complex coefficients at the representatives, lead + (count,):
    a real field, not divergence-free."""
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (len(representative_modes(g)),)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def shear_mode(L=2 * np.pi, M=16, amplitude=1.0) -> SpectralVelocity:
    """The 2D shear flow v = (a sin(2 pi y / L), 0): its one stored mode,
    (0, 1) of the first component, holds a / 2i; (0, -1) is implied."""
    g = TorusGrid(2, M, L)
    c = np.zeros((2, len(representative_modes(g))), dtype=np.complex128)
    c[0, rep_index(g, (0, 1))] = complex(0.0, -0.5 * amplitude)
    return SpectralVelocity(g, c)


def sampled_taylor_green(g, amplitude=1.0, band=1) -> SpectralVelocity:
    """The Taylor-Green vortex of plsf.fields.taylor_green, sampled on the
    native (M,)^dim grid, transformed by fftn, symmetrized as
    (c + conj c(-n)) / 2 over the full layout, read at the representatives
    and Leray projected."""
    kap = 2.0 * np.pi * band / g.L
    x = grid_points(g, padded=False)
    a = float(amplitude)
    cz = np.cos(kap * x[2]) if g.dim == 3 else 1.0
    u = a * np.sin(kap * x[0]) * np.cos(kap * x[1]) * cz
    w = -a * np.cos(kap * x[0]) * np.sin(kap * x[1]) * cz
    samples = np.stack([u, w] + [np.zeros_like(u)] * (g.dim - 2))
    c = np.fft.fftn(samples, axes=tuple(range(1, 1 + g.dim))) / float(g.M**g.dim)
    half = g.M // 2
    return leray_project(g, from_half(g, 0.5 * (c[..., :half] + np.conj(reflect(g, c)[..., :half]))))


def full_layout_draw(g, band, decay=2.0, seed=0) -> SpectralVelocity:
    """The Leray-projected draw of plsf.fields.random_solenoidal before its
    rescaling, built over the full layout: one (dim,) + (M,)^dim array of
    real normals, then one of imaginary normals, weighted by |n|^(-decay)
    on 0 < |n| <= band and symmetrized there, and read at the
    representatives."""
    rng = np.random.default_rng(seed)
    shape = (g.dim,) + g.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    nsq = np.sum(full_mode_grid(g).astype(np.float64) ** 2, axis=0)
    keep = (nsq > 0) & (nsq <= float(band) ** 2)
    with np.errstate(divide="ignore"):
        weight = np.where(keep, nsq ** (-decay / 2.0), 0.0)
    sym = 0.5 * (raw * weight + np.conj(reflect(g, raw) * weight))
    return leray_project(g, from_half(g, sym[..., : g.M // 2]))


def full_layout_random(g, band, decay=2.0, seed=0, amplitude=1.0) -> SpectralVelocity:
    """full_layout_draw rescaled to L^2 norm `amplitude`, the norm summed
    as |c|^2 over the full (dim,) + (M,)^dim spectrum in memory order."""
    v = full_layout_draw(g, band, decay, seed)
    half = g.M // 2
    sq = np.zeros((g.dim,) + g.shape)
    sq[..., :half] = np.abs(half_spectrum(g, v.coeffs)) ** 2
    sq[..., half + 1 :] = reflect(g, sq)[..., half + 1 :]
    return v * (float(amplitude) / float(np.sqrt(g.volume * np.sum(sq))))


def grazing_record(gamma, alpha, N=1) -> TrajectoryRecord:
    """A record sampled at times (0, 1, 1.001, 2) whose rho^gamma sits a
    few ulps above tan(alpha) at t = 1 and at half of it elsewhere.  On
    [1, 2] its exceedance set is the left-truncated interval (1, 1): the
    down-crossing lies within rounding of 1 and is clipped onto it."""
    thr = float(np.tan(alpha))
    peak = thr ** (1.0 / gamma)
    while peak**gamma <= thr:
        peak = float(np.nextafter(peak, np.inf))
    low = (0.5 * thr) ** (1.0 / gamma)
    times, rho = np.array([0.0, 1.0, 1.001, 2.0]), np.array([low, peak, low, low])
    return TrajectoryRecord(p=1.9, mu=1.0, N=N, times=times, energy=np.exp(-times), rho=rho,
                            rho_tilde=0.5 * np.exp(-times), grad_p_norm=np.sqrt(rho), Ip=rho)


def permute_axes(v: SpectralVelocity) -> SpectralVelocity:
    """The 3D field w(x) = S v(S^-1 x) of the cyclic axis map
    S (x, y, z) = (y, z, x): w holds S c(n) at S n, read at the
    representatives, where -S n is the representative conj(S c(n)).
    Every functional of the velocity's magnitude, gradient and strain is
    the same for w as for v."""
    g = v.grid
    assert g.dim == 3
    modes = representative_modes(g)
    column = {tuple(n): r for r, n in enumerate(modes.tolist())}
    out = np.zeros_like(v.coeffs)
    for n, vals in zip(modes[:, [1, 2, 0]].tolist(), v.coeffs[[1, 2, 0]].T):
        if tuple(n) in column:
            out[:, column[tuple(n)]] = vals
        else:
            out[:, column[tuple(-m for m in n)]] = np.conj(vals)
    return SpectralVelocity(g, out)


def sym_gradient(u) -> TensorField:
    """The strain rate D = (grad u + grad u^T)/2, entry (i, j) -> D_ij."""
    G = gradient(u).values
    return TensorField(u.grid, 0.5 * (G + np.swapaxes(G, 0, 1)))


def grad_sym_gradient(u) -> np.ndarray:
    """d_s D_ij at [s, i, j], shape (d, d, d) + padded_shape, from
    D_ij = (ik_j c_i + ik_i c_j)/2."""
    g = u.grid
    ik = 1j * half_wavevectors(g)
    c = half_spectrum(g, u.coeffs)
    dhat = 0.5 * (ik[np.newaxis, :] * c[:, np.newaxis] + ik[:, np.newaxis] * c[np.newaxis, :])
    return half_to_physical(g, ik[:, np.newaxis, np.newaxis] * dhat[np.newaxis])


def hessian(u) -> np.ndarray:
    """d_j d_k u_i at [i, j, k], shape (d, d, d) + padded_shape."""
    g = u.grid
    k = half_wavevectors(g)
    return half_to_physical(
        g,
        -(k[np.newaxis, :, np.newaxis] * k[np.newaxis, np.newaxis, :]
          * half_spectrum(g, u.coeffs)[:, np.newaxis, np.newaxis])
    )


def stress_factor(dd, params) -> np.ndarray:
    """(mu + |D|^2)^((p-2)/2) from dd = |D|^2, extended by 0 where
    mu + |D|^2 = 0."""
    base = params.mu + dd
    with np.errstate(divide="ignore"):
        return np.where(base > 0, np.power(base, 0.5 * (params.p - 2.0)), 0.0)


def stress(D: TensorField, params) -> TensorField:
    """The power-law stress sigma(D) = (mu + |D|^2)^((p-2)/2) D, pointwise."""
    fac = stress_factor(np.sum(D.values**2, axis=(0, 1)), params)
    return TensorField(D.grid, fac * D.values)


def rho_tilde(u, params) -> float:
    """(sigma(Du), Du), the quadrature of (mu + |Du|^2)^((p-2)/2) |Du|^2."""
    D = sym_gradient(u)
    return inner_product(stress(D, params), D)


def I_p(u, params) -> float:
    """The quadrature of (mu + |Du|^2)^((p-2)/2) |grad Du|^2; mu > 0."""
    if params.mu <= 0:
        raise ValueError("I_p is only defined for mu > 0")
    fac = stress_factor(np.sum(sym_gradient(u).values ** 2, axis=(0, 1)), params)
    sq = np.sum(grad_sym_gradient(u) ** 2, axis=(0, 1, 2))
    return float(np.sum(fac * sq) * u.grid.quad_weight)


def trace_free_value(u, key):
    """A padded-grid functional of u built from trace-free channels in the
    sum order of plsf.galerkin._padded_values.

    div u = 0 and tr D = 0 give d_d u_d and d_s D_dd as minus the sums of
    the other diagonal entries; they replace the transformed entries.  The
    squares of d_s D_ij are added over the pairs i <= j in row order and s,
    the off-diagonal pairs counted twice, and rho_tilde is the quadrature
    of (mu + |D|^2)^((p-2)/2) |D|^2.
    """
    g = u.grid
    d = g.dim
    name, arg = key
    if name == "u":
        return lp_norm(u, arg)
    if name == "hess":
        return lp_norm(hessian(u), arg, grid=g)
    G = np.array(gradient(u).values)  # d_j u_i at [i, j]
    G[-1, -1] = -np.sum([G[i, i] for i in range(d - 1)], axis=0)
    if name == "grad":
        return lp_norm(G, arg, grid=g)
    D = 0.5 * (G + G.swapaxes(0, 1))
    dd = np.sum(D**2, axis=(0, 1))
    if name == "shifted":
        return lp_norm(np.sqrt(arg.mu + dd), arg.p, grid=g)
    fac = stress_factor(dd, arg)
    if name == "rho_tilde":
        return float(np.sum(fac * dd) * g.quad_weight)
    assert name == "I_p"
    dD = grad_sym_gradient(u)  # d_s D_ij at [s, i, j]
    dD[:, -1, -1] = -np.sum([dD[:, i, i] for i in range(d - 1)], axis=0)
    sq = np.zeros(g.padded_shape)
    for i in range(d):
        for j in range(i, d):
            for s in range(d):
                sq = sq + (1.0 if i == j else 2.0) * dD[s, i, j] ** 2
    return float(np.sum(fac * sq) * g.quad_weight)


def table_mode_values(basis, c) -> np.ndarray:
    """The coefficients of sum_r c_r a^r at the basis wavevectors, (d,
    modes): c fills a zero-padded C-ordered (modes, d-1, 2) table (mode,
    polarization, cos|sin), and every slot of every mode adds its term,
    a_cos carrying e / scale and a_sin -i e / scale, from zero in
    polarization order."""
    d, count = basis.grid.dim, len(basis.modes)
    table = np.zeros((count, d - 1, 2))
    table.reshape(-1)[: basis.size] = c
    inv = 1.0 / basis._scale
    vals = np.zeros((d, count), dtype=np.complex128)
    for p in range(d - 1):
        for part, trig, factor in ((vals.real, 0, inv), (vals.imag, 1, -inv)):
            part += (table[:, p, trig] * factor) * basis._directions[p]
    return vals


def table_project_modes(basis, sub) -> np.ndarray:
    """The inner products (f, a^r) from f's coefficients sub (d, modes) at
    the basis wavevectors: e . c(n) for every slot of every mode, summed
    from zero in component order, the sine slots negated, scaled, read in
    table order and cut to the basis size."""
    d, count = basis.grid.dim, len(basis.modes)
    amp = np.zeros((d - 1, 2, count))
    for p in range(d - 1):
        for i in range(d):
            amp[p, 0] += basis._directions[p, i] * sub[i].real
            amp[p, 1] += basis._directions[p, i] * sub[i].imag
    amp[:, 1] *= -1.0
    return (basis._scale * amp.transpose(2, 0, 1)).reshape(-1)[: basis.size]


# -- checks that only tests read ------------------------------------------

# Empirical constant for the stress-difference bound
#   |sigma(A) - sigma(B)| <= C |A - B| / (mu + |A| + |B|)^(2-p).
# Calibrated once over ~2.8e6 random symmetric pairs (2D and 3D, magnitudes
# log-uniform in [1e-3, 1e3], one fifth near-antipodal) spanning
# p in [1.8, 2], mu in [1e-2, 1e2]; max observed ratio 1.592 at p = 1.8,
# mu = 1e2 on antipodal pairs, then frozen with margin.  The ratio grows
# like (mu + 4)^((2-p)/2) on antipodal pairs, so C is only valid for
# mu <= 1e2; no sharpness claim.
STRESS_DIFF_CONSTANT = 2.0


def stress_tensor(D: np.ndarray, params: FluidParams) -> np.ndarray:
    """The power-law stress sigma(D) of a single d x d tensor."""
    D = np.asarray(D, dtype=np.float64)
    dd_sq = float(np.sum(D**2))
    base = params.mu + dd_sq
    expo = 0.5 * (params.p - 2.0)
    if base == 0.0:
        return np.zeros_like(D)
    return base**expo * D


def stress_difference_bound_check(
    A: np.ndarray, B: np.ndarray, params: FluidParams, constant: float = STRESS_DIFF_CONSTANT
) -> bool:
    """True iff |sigma(A)-sigma(B)| <= C |A-B| (mu+|A|+|B|)^(p-2)."""
    if params.mu <= 0:
        raise ValueError("the stress-difference bound needs mu > 0")
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    lhs = float(np.sqrt(np.sum((stress_tensor(A, params) - stress_tensor(B, params)) ** 2)))
    diff = float(np.sqrt(np.sum((A - B) ** 2)))
    amag = float(np.sqrt(np.sum(A**2)))
    bmag = float(np.sqrt(np.sum(B**2)))
    rhs = constant * diff * (params.mu + amag + bmag) ** (params.p - 2.0)
    return lhs <= rhs * (1.0 + 1e-12) + 1e-300


def leray_project(grid: TorusGrid, coeffs: np.ndarray) -> SpectralVelocity:
    """Project real spectral data onto divergence-free fields.

    `coeffs` holds the data's coefficients at the representative
    wavevectors, shape (dim, count).  Per mode the output is
    f(k) - k (k . f(k)) / |k|^2.  If the input is already solenoidal at
    rounding level it is passed through unchanged (copied), which makes a
    second application an exact fixed point of the first.
    """
    coeffs = _coefficient_array(grid, coeffs)
    return SpectralVelocity(
        grid, _solenoidal_part(grid, _wavevectors(grid, representative_modes(grid)), coeffs), validate=False)


def inner_product(f, g) -> float:
    """Quadrature of the pointwise (full tensor) contraction of f and g."""
    fs, fgrid = _samples_and_grid(f)
    gs, ggrid = _samples_and_grid(g)
    if fgrid != ggrid:
        raise GridMismatchError(f"{fgrid!r} vs {ggrid!r}")
    if fs.shape != gs.shape:
        raise GridMismatchError(f"field shapes differ: {fs.shape} vs {gs.shape}")
    return float(np.sum(fs * gs) * fgrid.quad_weight)


def l2_norm_spectral(v: SpectralVelocity) -> float:
    """Coefficient-sum (Parseval) form of the L^2 norm: each stored
    coefficient stands for itself and its mirror, so it counts twice."""
    return _l2_norm(v.grid, v.coeffs)


def weight_P(alpha: float, rho, gamma: float):
    """Arctangent cutoff weight: 1 below the threshold rho^gamma <= tan(alpha),
    then (pi - 2 arctan(rho^gamma)) / (pi - 2 alpha), decaying to 0."""
    if not 0.0 <= alpha < np.pi / 2:
        raise ValueError(f"alpha must lie in [0, pi/2), got {alpha}")
    rho_arr = np.asarray(rho, dtype=np.float64)
    if np.any(rho_arr < 0):
        raise ValueError("rho must be nonnegative")
    r = rho_arr**gamma
    thr = np.tan(alpha)
    out = np.where(r <= thr, 1.0, (np.pi - 2.0 * np.arctan(r)) / (np.pi - 2.0 * alpha))
    return float(out) if np.isscalar(rho) else out


def weighted_energy_residual(
    record: TrajectoryRecord, s: float, t: float, alpha: float, gamma: float
) -> float:
    """Absolute defect of the P-weighted energy identity on [s, t].

    The identity integrates the weighted balance by parts:
        E(t) P(t) - E(s) P(s)
        + 2/(pi - 2 alpha) * int_{J} E (1 + rho^{2 gamma})^{-1} d(rho^gamma)/dtau
        + 2 int_s^t rho_tilde P = 0,
    with d(rho^gamma)/dtau by centered differences on the samples.
    """
    part = exceedance_partition(record, s, t, alpha, gamma)
    times = record.times
    e_t = _interp(times, record.energy, t)
    e_s = _interp(times, record.energy, s)
    rho_t = _interp(times, record.rho, t)
    rho_s = _interp(times, record.rho, s)
    total = e_t * weight_P(alpha, rho_t, gamma) - e_s * weight_P(alpha, rho_s, gamma)

    y = record.rho**gamma
    dy = _centered_derivative(times, y)
    g_samples = record.energy * dy / (1.0 + y**2)
    for iv in part.intervals:
        total += (2.0 / (np.pi - 2.0 * alpha)) * _integrate_linear(
            times, g_samples, iv.start, iv.end
        )

    weighted_diss = record.rho_tilde * weight_P(alpha, record.rho, gamma)
    total += 2.0 * _integrate_linear(times, weighted_diss, s, t)
    return abs(total)


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

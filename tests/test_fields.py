import itertools
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import (
    full_layout_draw,
    full_layout_random,
    grid_points,
    half_spectrum,
    hessian,
    noise,
    reflect,
    rep_index,
    rep_wavevectors,
    sampled_taylor_green,
    shear_mode,
    spectral_shape,
    sym_gradient,
)
from plsf import fields
from plsf.basis import full_basis
from plsf.constitutive import FluidParams
from plsf.errors import FieldInvariantError, GridMismatchError
from plsf.fields import (
    SpectralVelocity,
    gradient,
    inner_product,
    l2_norm_spectral,
    leray_project,
    load_checkpoint,
    lp_norm,
    pointwise_magnitude,
    random_solenoidal,
    representative_modes,
    save_checkpoint,
    taylor_green,
)
from plsf.grid import TorusGrid
from plsf.inequalities import ensemble_fields, field_table


def hermitian_noise(grid, seed=0):
    return noise(grid, (grid.dim,), seed=seed)


# -- Leray projection ---------------------------------------------------------


def test_leray_leaves_solenoidal_unchanged(grid2d):
    v = random_solenoidal(grid2d, band=5, seed=1)
    again = leray_project(grid2d, v.coeffs)
    assert np.array_equal(again.coeffs, v.coeffs)


def test_leray_kills_gradients(grid2d):
    phi = noise(grid2d, (1,), seed=2)
    grad_phi = 1j * rep_wavevectors(grid2d) * phi[0]
    out = leray_project(grid2d, grad_phi)
    assert np.max(np.abs(out.coeffs)) < 1e-13 * np.max(np.abs(grad_phi))


def test_leray_output_divergence_free(grid2d):
    f = hermitian_noise(grid2d, seed=3)
    out = leray_project(grid2d, f)
    div = np.sum(rep_wavevectors(grid2d) * out.coeffs, axis=0)
    assert np.max(np.abs(div)) <= 1e-12 * np.max(np.abs(f))


def test_leray_idempotent_exactly(grid2d):
    f = hermitian_noise(grid2d, seed=4)
    once = leray_project(grid2d, f)
    twice = leray_project(grid2d, once.coeffs)
    assert np.array_equal(once.coeffs, twice.coeffs)


# -- velocity invariants ------------------------------------------------------


def test_invariant_validation_rejects_divergent(grid2d):
    f = hermitian_noise(grid2d, seed=5)
    with pytest.raises(FieldInvariantError):
        SpectralVelocity(grid2d, f)


def test_zero_mode_and_nyquist_cleared(grid2d):
    # no representative is the mean or reaches a Nyquist index, so no field
    # holds either
    reps = representative_modes(grid2d)
    assert np.all(np.any(reps != 0, axis=1)) and np.max(np.abs(reps)) == 7
    half = half_spectrum(grid2d, random_solenoidal(grid2d, band=7, seed=6).coeffs)
    assert np.all(half[:, 0, 0] == 0)
    assert np.all(half[:, 8, :] == 0)  # Nyquist row
    assert np.any(half[:, 7, :] != 0) and np.any(half[:, 9, :] != 0)


@pytest.mark.parametrize("dim, M", [(2, 16), (3, 8)])
def test_coeffs_are_the_representative_layout(tmp_path, dim, M):
    g = TorusGrid(dim, M, 2 * np.pi)
    shape = (dim, ((M - 1) ** dim - 1) // 2)
    assert shape == (dim, len(representative_modes(g)))
    path = tmp_path / "v.plsf"
    save_checkpoint(path, random_solenoidal(g, band=2, seed=2))
    for v in (random_solenoidal(g, band=3, seed=1), taylor_green(g), SpectralVelocity.zero(g),
              load_checkpoint(path), full_basis(g).entry_field(3)):
        assert v.coeffs.shape == shape
    # the full layout and the half layout are refused, naming the shape
    for wrong in ((dim,) + g.shape, (dim,) + spectral_shape(g)):
        for make in (SpectralVelocity, leray_project):
            with pytest.raises(FieldInvariantError, match=f"expected {re.escape(str(shape))}"):
                make(g, np.zeros(wrong, dtype=complex))


def test_field_is_real(grid2d):
    v = random_solenoidal(grid2d, band=5, seed=7)
    # the full spectrum the coefficients imply transforms to real samples,
    # which are the field's on the unpadded grid
    half = grid2d.M // 2
    full = np.zeros((2,) + grid2d.shape, dtype=complex)
    full[..., :half] = half_spectrum(grid2d, v.coeffs)
    full[..., half + 1 :] = np.conj(reflect(grid2d, full))[..., half + 1 :]
    samples = np.fft.ifftn(full, axes=(1, 2)) * grid2d.M**2
    assert np.max(np.abs(samples.imag)) < 1e-14 * np.max(np.abs(samples.real))
    unpadded = TorusGrid(2, grid2d.M, grid2d.L, dealias_factor=1.0)
    assert np.max(np.abs(SpectralVelocity(unpadded, v.coeffs).physical - samples.real)) < 1e-13


@pytest.mark.parametrize("dim, M", [(2, 16), (3, 8)])
def test_plane_without_hermitian_symmetry_rejected(dim, M):
    # c(1, 0, ..) != conj c(-1, 0, ..) on the plane of last index 0 can be
    # written into a half-layout spectrum, which holds both, but a field
    # holds one coefficient per pair: the array is refused by its shape,
    # and whatever a field holds, its half-layout spectrum is Hermitian
    # there
    g = TorusGrid(dim, M, 2 * np.pi)
    c = np.zeros((dim,) + spectral_shape(g), dtype=complex)
    c[(1, 1) + (0,) * (dim - 1)] = 1.0 + 0.5j
    c[(1, M - 1) + (0,) * (dim - 1)] = 2.0
    with pytest.raises(FieldInvariantError, match="shape"):
        SpectralVelocity(g, c)
    plane = half_spectrum(g, noise(g, (dim,), seed=dim))[..., :1]
    assert np.array_equal(plane, np.conj(reflect(g, plane)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("dim, M", [(2, 16), (3, 8)])
def test_non_finite_coefficients_rejected(dim, M, bad):
    g = TorusGrid(dim, M, 2 * np.pi)
    v = random_solenoidal(g, band=3, seed=dim)
    # a mode the draw reaches; one it leaves at zero
    for where in ((0, rep_index(g, (1,) * dim)), (dim - 1, -1)):
        for part in (1.0, 1j):
            c = np.array(v.coeffs)
            c[where] = bad * part
            with pytest.raises(FieldInvariantError, match="not finite"):
                SpectralVelocity(g, c)


# -- the strain rate: the oracle's, and the kernel's |D|^2 ----------------------


def test_sym_gradient_zero(grid2d):
    zero = SpectralVelocity.zero(grid2d)
    assert np.all(sym_gradient(zero).values == 0)
    params = FluidParams(2.0, 1.0)
    keys = [("rho_tilde", params), ("shifted", params)]
    # at D = 0, rho_tilde = 0 and ||(mu + |D|^2)^(1/2)||_p = mu^(1/2) |Omega|^(1/p)
    row = field_table([zero], keys)[0]
    assert row[keys[0]] == 0.0
    assert row[keys[1]] == pytest.approx(2 * np.pi, rel=1e-14)


def test_sym_gradient_single_shear_mode():
    # v = (sin(2 pi y / L), 0): off-diagonals (pi/L) cos(2 pi y / L), zero diagonal
    L = 5.0
    v = shear_mode(L=L, M=16)
    D = sym_gradient(v)
    xp = grid_points(v.grid)
    expected = (np.pi / L) * np.cos(2 * np.pi * xp[1] / L)
    assert np.max(np.abs(D.values[0, 1] - expected)) < 1e-12
    assert np.max(np.abs(D.values[1, 0] - expected)) < 1e-12
    assert np.max(np.abs(D.values[0, 0])) < 1e-13
    assert np.max(np.abs(D.values[1, 1])) < 1e-13
    # the kernel's |D|^2 = 2 (pi/L)^2 cos^2: at p = 2 rho_tilde integrates it
    # to pi^2 whatever L, and ||grad v||_2^2 = (2 pi / L)^2 L^2 / 2 = 2 pi^2
    params = FluidParams(2.0, 1.0)
    row = field_table([v], [("rho_tilde", params), ("grad", 2.0)])[0]
    assert row["rho_tilde", params] == pytest.approx(np.pi**2, rel=1e-12)
    assert row["grad", 2.0] ** 2 == pytest.approx(2 * np.pi**2, rel=1e-12)


def test_sym_gradient_trace_free(grid2d):
    # tr D = 0, which lets the kernel form D_dd from the other diagonal entries
    v = random_solenoidal(grid2d, band=6, seed=8, amplitude=3.0)
    D = sym_gradient(v)
    trace = np.trace(D.values, axis1=0, axis2=1)
    assert np.max(np.abs(trace)) < 1e-10
    assert np.array_equal(D.values, np.swapaxes(D.values, 0, 1))


# -- norms and inner products -------------------------------------------------


def test_lp_norm_examples(grid2d):
    assert lp_norm(SpectralVelocity.zero(grid2d), 2) == 0.0
    # constant scalar field c on (0, L)^d -> |c| L^(d/q)
    g = TorusGrid(2, 8, 3.0)
    const = np.full(g.padded_shape, -2.5)
    assert lp_norm(const, 3.0, grid=g) == pytest.approx(2.5 * 3.0 ** (2 / 3), rel=1e-12)
    # f = sin(2 pi x / L), q = 2, d = 2 -> L / sqrt(2)
    x = grid_points(g)
    f = np.sin(2 * np.pi * x[0] / 3.0)
    assert lp_norm(f, 2.0, grid=g) == pytest.approx(3.0 / np.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("dim, M, seed", [(2, 16, 0), (2, 12, 1), (3, 8, 2), (3, 12, 3)])
def test_hessian_upper_triangle_matches_full_transform(dim, M, seed):
    # the kernel transforms the j <= k upper triangle of each component;
    # its ||D^2 v||_q equals that of all d^3 channels bit for bit
    grid = TorusGrid(dim, M, 2 * np.pi)
    v = random_solenoidal(grid, band=M // 2 - 1, seed=seed)
    full = hessian(v)  # all d^3 channels of d_j d_k v_i
    qs = (1.5, 1.9, 2.0, 3.0)
    row = field_table([v], [("hess", q) for q in qs])[0]
    assert row == {("hess", q): lp_norm(full, q, grid=grid) for q in qs}


def test_lp_norm_rejects_q_below_one(grid2d):
    with pytest.raises(ValueError):
        lp_norm(SpectralVelocity.zero(grid2d), 0.5)


BAD_Q = pytest.mark.parametrize("q", [float("inf"), float("nan"), 0.5],
                                ids=["inf", "nan", "half"])


@BAD_Q
def test_lp_norm_rejects_q_not_a_finite_number_at_least_one(grid2d, q):
    # q = inf read as a power gives 1.0, and NaN passes `q < 1`
    v = random_solenoidal(grid2d, band=4, seed=2)
    for f, grid in ((v, None), (gradient(v), None), (v.physical, grid2d)):
        with pytest.raises(ValueError, match="finite number >= 1"):
            lp_norm(f, q, grid=grid)


@BAD_Q
@pytest.mark.parametrize("name", ["u", "grad", "hess"])
def test_kernel_rejects_q_not_a_finite_number_at_least_one(grid2d, q, name):
    v = random_solenoidal(grid2d, band=4, seed=2)
    with pytest.raises(ValueError, match="finite number >= 1"):
        field_table([v], [(name, 2.0), (name, q)])


def test_parseval(grid2d):
    v = random_solenoidal(grid2d, band=6, seed=9, amplitude=1.7)
    quad = lp_norm(v, 2)
    spectral = l2_norm_spectral(v)
    assert abs(quad**2 - spectral**2) <= 1e-10 * spectral**2


@pytest.mark.parametrize("dim, M", [(2, 16), (3, 8)])
def test_parseval_counts_every_representative_twice(dim, M):
    # the full band reaches the plane of last index 0 and the top modes
    g = TorusGrid(dim, M, 2 * np.pi)
    for seed in range(3):
        v = random_solenoidal(g, band=M // 2 - 1, seed=seed, amplitude=1.3)
        assert l2_norm_spectral(v) == pytest.approx(lp_norm(v, 2.0), rel=1e-13, abs=0)
    # a field on the plane of last index 0 alone, where the half layout of
    # the transforms holds both n and -n: each pair still counts twice
    c = np.array(random_solenoidal(g, band=M // 2 - 1, seed=5).coeffs)
    c[:, representative_modes(g)[:, -1] != 0] = 0.0
    plane = SpectralVelocity(g, c)
    assert np.any(plane.coeffs != 0)
    assert l2_norm_spectral(plane) == pytest.approx(lp_norm(plane, 2.0), rel=1e-13, abs=0)
    assert l2_norm_spectral(plane) ** 2 == pytest.approx(
        2.0 * g.volume * np.sum(np.abs(c) ** 2), rel=1e-14)


def test_inner_product_examples(grid2d):
    v = random_solenoidal(grid2d, band=5, seed=10)
    w = random_solenoidal(grid2d, band=5, seed=11)
    assert inner_product(v, v) == pytest.approx(lp_norm(v, 2) ** 2, rel=1e-12)
    assert inner_product(v, SpectralVelocity.zero(grid2d)) == 0.0
    # bilinearity / symmetry
    a = inner_product(v, w)
    assert inner_product(w, v) == pytest.approx(a, rel=1e-12)
    two_v = 2.0 * v
    assert inner_product(two_v, w) == pytest.approx(2 * a, rel=1e-12)


def test_inner_product_grid_mismatch(grid2d):
    other = TorusGrid(2, 32, 2 * np.pi)
    with pytest.raises(GridMismatchError):
        inner_product(random_solenoidal(grid2d, 3, seed=1),
                      random_solenoidal(other, 3, seed=1))


def test_pointwise_magnitude_shapes(grid2d):
    v = random_solenoidal(grid2d, band=4, seed=12)
    mag = pointwise_magnitude(v.physical, grid2d)
    assert mag.shape == grid2d.padded_shape
    assert np.all(mag >= 0)


@pytest.mark.parametrize("dim, M", [(2, 16), (3, 8)])
def test_pointwise_magnitude_matches_squared_sum(dim, M):
    # one channel at a time in C order is the order np.sum reduces leading
    # axes of C-contiguous samples in, so the bits agree
    g = TorusGrid(dim, M, 2 * np.pi)
    v = random_solenoidal(g, band=3, seed=dim)
    for samples in (v.physical, gradient(v).values, hessian(v)):
        lead = tuple(range(samples.ndim - dim))
        want = np.sqrt(np.sum(samples**2, axis=lead))
        assert pointwise_magnitude(samples, g).tobytes() == want.tobytes()


def test_pointwise_magnitude_forms_no_second_input_array():
    g = TorusGrid(3, 12, 1.0)
    hess = hessian(random_solenoidal(g, band=3, seed=9))  # 27 channels
    channel = hess[0, 0, 0].nbytes
    pointwise_magnitude(hess, g)  # warm up
    tracemalloc.start()
    try:
        pointwise_magnitude(hess, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * channel < hess.nbytes


def test_physical_samples_are_read_only(grid2d):
    # the cached samples serve every later norm of the field
    v = random_solenoidal(grid2d, band=6, seed=13)
    before = lp_norm(v, 2.0)
    with pytest.raises(ValueError):
        v.physical[0] *= 2.0
    assert lp_norm(v, 2.0) == before


# -- constructors -------------------------------------------------------------


def test_taylor_green_energy():
    # ||v||_2^2 = 2 A^2 (L/2)^2 ... for L = 2 pi, A = 1: 2 pi^2
    g = TorusGrid(2, 32, 2 * np.pi)
    v = taylor_green(g, amplitude=1.0)
    assert lp_norm(v, 2) ** 2 == pytest.approx(2 * np.pi**2, rel=1e-12)
    # gradient energy = |k|^2 * energy with |k|^2 = 2
    from plsf.fields import gradient

    assert lp_norm(gradient(v), 2) ** 2 == pytest.approx(4 * np.pi**2, rel=1e-12)


def test_taylor_green_3d_divergence_free():
    g = TorusGrid(3, 12, 2 * np.pi)
    v = taylor_green(g, amplitude=0.7)
    div = np.sum(rep_wavevectors(g) * v.coeffs, axis=0)
    assert np.max(np.abs(div)) < 1e-13


@pytest.mark.parametrize("dim, M", [(2, 16), (2, 64), (3, 16)])
@pytest.mark.parametrize("band", [1, 2])
def test_taylor_green_is_the_sampled_field(dim, M, band):
    # the closed form holds a / 2^dim exactly at the two velocity
    # components of its 2^(dim-1) representatives;
    # the sampled field carries the rounding of sin and cos of k x, which
    # grows with k, on its modes and off them
    g = TorusGrid(dim, M, 2 * np.pi)
    a = 1.7
    v = taylor_green(g, amplitude=a, band=band).coeffs
    want = sampled_taylor_green(g, amplitude=a, band=band).coeffs
    on = v != 0
    assert np.count_nonzero(on) == 2**dim
    assert np.all(v[on].real == 0) and np.all(np.abs(v[on].imag) == a / 2**dim)
    assert np.max(np.abs(v[on] - want[on])) <= 1e-16 * band * a
    assert np.max(np.abs(want[~on])) <= 1e-16 * band * a


@pytest.mark.parametrize(
    "dim, M, band", [(2, 16, 1), (2, 16, 7), (2, 64, 3), (2, 64, 20), (3, 16, 3), (3, 16, 7)])
@pytest.mark.parametrize("decay", [2.0, 1.5])
def test_random_solenoidal_is_the_full_layout_draw(monkeypatch, dim, M, band, decay):
    # the band's normals are those of the full-layout draw, so the field
    # before its rescaling, projected on the band's representatives alone,
    # is that draw's bit for bit, signs of zero included; the rescaling
    # sums |c|^2 over the representatives, grouped unlike the full
    # spectrum's sum, and the scale may move by rounding
    g = TorusGrid(dim, M, 2 * np.pi)
    drawn = []
    project = fields._solenoidal_part

    def spy(grid, k, c):
        drawn.append(project(grid, k, c))
        return drawn[-1]

    monkeypatch.setattr(fields, "_solenoidal_part", spy)
    for seed in range(4):
        v = random_solenoidal(g, band, decay=decay, seed=seed, amplitude=2.5)
        want = full_layout_draw(g, band, decay, seed).coeffs
        size = drawn[-1].shape[1]
        assert drawn[-1].tobytes() == np.ascontiguousarray(want[:, :size]).tobytes()
        assert not np.any(want[:, size:])
        want = full_layout_random(g, band, decay, seed, amplitude=2.5)
        assert l2_norm_spectral(v - want) <= 4e-16 * l2_norm_spectral(want)


def test_initial_data_peak_memory_is_a_few_fields():
    # the draw keeps only the band's normals and projects the band's
    # representatives alone, and Taylor-Green writes its modes in place:
    # the traced peaks read 1.40 and 2.35 times the field's bytes here (the
    # draw's one (M,)^3 buffer of normals is 0.37 of it, Taylor-Green's
    # divergence check about 1.3); with the half-layout spectrum they read
    # 5.0 and 3.4, and with full (dim,) + (M,)^dim set-up spectra 7.5 and
    # 9.7
    g = TorusGrid(3, 32, 2 * np.pi)
    for make, bound in ((lambda: random_solenoidal(g, band=3, seed=1), 1.6),
                        (lambda: taylor_green(g, amplitude=1.0, band=2), 2.6)):
        make()  # fill the cached wavevector enumeration
        tracemalloc.start()
        try:
            v = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * v.coeffs.nbytes, peak / v.coeffs.nbytes


def test_random_solenoidal_reproducible(grid2d):
    a = random_solenoidal(grid2d, band=5, decay=2.0, seed=77, amplitude=1.3)
    b = random_solenoidal(grid2d, band=5, decay=2.0, seed=77, amplitude=1.3)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = random_solenoidal(grid2d, band=5, decay=2.0, seed=78, amplitude=1.3)
    assert not np.array_equal(a.coeffs, c.coeffs)
    assert lp_norm(a, 2) == pytest.approx(1.3, rel=1e-12)


# -- checkpoints --------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, grid2d):
    v = random_solenoidal(grid2d, band=6, seed=13, amplitude=0.9)
    path = tmp_path / "state.plsf"
    save_checkpoint(path, v)
    w = load_checkpoint(path)
    assert w.grid == grid2d
    assert np.max(np.abs(w.coeffs - v.coeffs)) < 1e-15


def test_checkpoint_bad_magic_rejected(tmp_path, grid2d):
    v = random_solenoidal(grid2d, band=3, seed=14)
    path = tmp_path / "state.plsf"
    save_checkpoint(path, v)
    raw = path.read_bytes()
    assert raw[:4] == b"PLSF"
    bad = tmp_path / "bad.plsf"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FieldInvariantError):
        load_checkpoint(bad)


def test_checkpoint_3d_roundtrip(tmp_path):
    g = TorusGrid(3, 12, 1.9)
    v = random_solenoidal(g, band=3, seed=15)
    path = tmp_path / "state3.plsf"
    save_checkpoint(path, v)
    w = load_checkpoint(path)
    assert np.max(np.abs(w.coeffs - v.coeffs)) < 1e-15


# the documented little-endian checkpoint header
HEADER = struct.Struct("<4sIIIdQ")


def write_raw_checkpoint(path, dim, M, L, count, payload_bytes):
    path.write_bytes(HEADER.pack(b"PLSF", 1, dim, M, L, count) + bytes(payload_bytes))
    return path


def test_checkpoint_trailing_bytes_rejected(tmp_path, grid2d):
    v = random_solenoidal(grid2d, band=3, seed=16)
    path = tmp_path / "state.plsf"
    save_checkpoint(path, v)
    long = tmp_path / "long.plsf"
    long.write_bytes(path.read_bytes() + b"\0" * 16)
    with pytest.raises(FieldInvariantError, match="long.plsf"):
        load_checkpoint(long)


def test_checkpoint_truncated_payload_rejected(tmp_path, grid2d):
    v = random_solenoidal(grid2d, band=3, seed=17)
    path = tmp_path / "state.plsf"
    save_checkpoint(path, v)
    short = tmp_path / "short.plsf"
    short.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FieldInvariantError, match="short.plsf"):
        load_checkpoint(short)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_non_finite_payload_rejected(tmp_path, grid2d, value):
    # NaN passes every `>` comparison of the invariant checks, so the loader
    # has to look at the payload itself
    v = random_solenoidal(grid2d, band=3, seed=18)
    path = tmp_path / "state.plsf"
    save_checkpoint(path, v)
    raw = bytearray(path.read_bytes())
    offset = HEADER.size + 8 * 5
    raw[offset : offset + 8] = struct.pack("<d", value)
    bad = tmp_path / "nonfinite.plsf"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FieldInvariantError, match="nonfinite.plsf"):
        load_checkpoint(bad)


@pytest.mark.parametrize(
    "dim, M, L",
    [
        (4, 8, 1.0),  # no such torus
        (1, 8, 1.0),
        (2, 9, 1.0),  # odd M
        (2, 6, 1.0),  # M below 8
        (2, 8, 0.0),
        (2, 8, -2.0),
        (2, 8, math.nan),
        (2, 8, math.inf),
    ],
)
def test_checkpoint_bad_header_grid_rejected(tmp_path, dim, M, L):
    # the mode count and payload length match the header, so only the grid is wrong
    count = ((M - 1) ** dim - 1) // 2
    path = write_raw_checkpoint(tmp_path / "grid.plsf", dim, M, L, count, count * dim * 16)
    with pytest.raises(FieldInvariantError, match="grid.plsf"):
        load_checkpoint(path)


def test_checkpoint_mode_count_mismatch_rejected(tmp_path):
    path = write_raw_checkpoint(tmp_path / "count.plsf", 2, 8, 1.0, 25, 25 * 2 * 16)
    with pytest.raises(FieldInvariantError, match="count.plsf"):
        load_checkpoint(path)


@pytest.mark.parametrize("dim, M", [(2, 2**30), (3, 2**20)])
def test_checkpoint_huge_header_fails_before_allocating(tmp_path, dim, M):
    # a consistent header for a grid with ~1e18 modes over a 32-byte payload:
    # the length check must fire before any mode is enumerated
    count = ((M - 1) ** dim - 1) // 2
    path = write_raw_checkpoint(tmp_path / "huge.plsf", dim, M, 1.0, count, 32)
    with pytest.raises(FieldInvariantError, match="huge.plsf"):
        load_checkpoint(path)


@pytest.mark.parametrize("dim, M", [(2, 10), (3, 8)])
def test_load_checkpoint_matches_per_row_oracle(tmp_path, dim, M):
    # row m of the payload is column m of the coefficients, bit for bit, on
    # a payload holding +0.0 and -0.0 in both parts.  Zeroing the real or
    # imaginary parts of whole rows keeps the field divergence-free.
    g = TorusGrid(dim, M, 2.1)
    count = ((M - 1) ** dim - 1) // 2
    path = tmp_path / "zeros.plsf"
    save_checkpoint(path, random_solenoidal(g, band=M // 2 - 1, seed=dim))
    head = path.read_bytes()[: HEADER.size]
    payload = np.frombuffer(path.read_bytes()[HEADER.size :], dtype="<f8")
    payload = payload.reshape(count, dim, 2).copy()
    rng = np.random.default_rng(dim)
    for part in (0, 1):
        rows = rng.random(count) < 0.3
        signs = np.where(rng.random((rows.sum(), dim)) < 0.5, -1.0, 1.0)
        payload[rows, :, part] = 0.0 * signs
    path.write_bytes(head + payload.astype("<f8").tobytes())
    half = M // 2 - 1
    reps = [
        n
        for n in itertools.product(range(-half, half + 1), repeat=dim)
        if next((x for x in n if x != 0), 0) > 0
    ]
    reps.sort(key=lambda n: (sum(x * x for x in n), n))
    assert representative_modes(g).tolist() == [list(n) for n in reps]
    want = np.array([[complex(*payload[row, i]) for row in range(count)] for i in range(dim)])
    assert load_checkpoint(path).coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, M, L", [(2, 16, 2 * np.pi), (3, 8, 1.7), (3, 10, 0.6)])
def test_any_solenoidal_payload_loads_and_resaves_byte_identical(tmp_path, dim, M, L):
    # every row of the payload is one free pair n, -n: arbitrary finite
    # values, made divergence-free row by row, are a field, the plane of
    # last index 0 included, where a half-layout spectrum held n and -n
    # apart and could lose c(-n) = conj c(n)
    g = TorusGrid(dim, M, L)
    rng = np.random.default_rng(M)
    count = len(representative_modes(g))
    c = (rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))) * 10.0 ** (
        rng.uniform(-3, 3, count))
    k = rep_wavevectors(g)
    c -= k * (np.sum(k * c, axis=0) / np.sum(k * k, axis=0))
    c += 0.0  # a file plsf writes holds no -0.0
    payload = np.stack([c.real.T, c.imag.T], axis=-1)
    path = tmp_path / "free.plsf"
    path.write_bytes(HEADER.pack(b"PLSF", 1, dim, M, L, count) + payload.astype("<f8").tobytes())
    v = load_checkpoint(path)
    assert v.coeffs.tobytes() == c.tobytes()
    plane = half_spectrum(g, v.coeffs)[..., :1]
    assert np.array_equal(plane, np.conj(reflect(g, plane)))
    resaved = tmp_path / "resaved.plsf"
    save_checkpoint(resaved, v)
    assert resaved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("dim, M", [(2, 16), (3, 8)])
def test_checkpoint_resave_is_byte_identical(tmp_path, dim, M):
    # a checkpoint read and written again keeps its bytes, whatever the
    # signs of the field's vanishing parts: one of a random field, as a
    # run's input, the same with every vanishing part -0.0, a loaded field
    # and a basis-synthesized one, as a run's final state
    g = TorusGrid(dim, M, 2 * np.pi)
    basis = full_basis(g)
    synthesized = basis.synthesize(np.random.default_rng(dim).standard_normal(basis.size))
    drawn = random_solenoidal(g, band=M // 2 - 2, seed=dim)
    signed = drawn.coeffs.copy()
    signed.real[signed.real == 0.0] = -0.0
    signed.imag[signed.imag == 0.0] = -0.0
    raw, f, resaved = tmp_path / "raw.plsf", tmp_path / "f.plsf", tmp_path / "resaved.plsf"
    save_checkpoint(raw, drawn)
    for v in (drawn, SpectralVelocity(g, signed), load_checkpoint(raw), synthesized):
        save_checkpoint(f, v)
        save_checkpoint(resaved, load_checkpoint(f))
        assert resaved.read_bytes() == f.read_bytes()
        payload = np.frombuffer(f.read_bytes()[HEADER.size :], dtype="<f8")
        assert not np.any((payload == 0.0) & np.signbit(payload))  # no -0.0 stored
    # every representative is read back where it was written, the plane's
    # mirrors and the modes with a negative last index included
    assert load_checkpoint(f).coeffs.tobytes() == synthesized.coeffs.tobytes()


@pytest.mark.parametrize("dim, M", [(2, 16), (3, 8)])
def test_ensemble_holds_half_spectra(dim, M):
    # k fields of one coefficient per pair n, -n: d * ((M-1)^d - 1)/2
    # complex128 coefficients, and no more
    count = 5
    ens = list(ensemble_fields(dim, M, 2 * np.pi, band=3, decay=2.0, seed=4, count=count))
    held = sum(u.coeffs.nbytes for u in ens)
    assert held == count * dim * ((M - 1) ** dim - 1) // 2 * 16

import itertools
import math
import struct

import numpy as np
import pytest

from plsf.errors import FieldInvariantError, GridMismatchError
from plsf.fields import (
    SpectralVelocity,
    hessian_samples,
    inner_product,
    l2_norm_spectral,
    leray_project,
    load_checkpoint,
    lp_norm,
    pointwise_magnitude,
    random_solenoidal,
    save_checkpoint,
    sym_gradient,
    taylor_green,
)
from plsf.grid import TorusGrid


@pytest.fixture
def grid2d():
    return TorusGrid(2, 16, 2 * np.pi)


def hermitian_noise(grid, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((grid.dim,) + grid.shape) + 1j * rng.standard_normal(
        (grid.dim,) + grid.shape
    )
    return 0.5 * (raw + np.conj(grid.reflect(raw)))


# -- Leray projection ---------------------------------------------------------


def test_leray_leaves_solenoidal_unchanged(grid2d):
    v = random_solenoidal(grid2d, band=5, seed=1)
    again = leray_project(grid2d, v.coeffs)
    assert np.array_equal(again.coeffs, v.coeffs)


def test_leray_kills_gradients(grid2d):
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((1,) + grid2d.shape) + 1j * rng.standard_normal(
        (1,) + grid2d.shape
    )
    phi = 0.5 * (phi + np.conj(grid2d.reflect(phi)))
    grad_phi = 1j * grid2d.wavevectors * phi[0]
    out = leray_project(grid2d, grad_phi)
    assert np.max(np.abs(out.coeffs)) < 1e-13 * np.max(np.abs(grad_phi))


def test_leray_output_divergence_free(grid2d):
    f = hermitian_noise(grid2d, seed=3)
    out = leray_project(grid2d, f)
    div = np.sum(grid2d.wavevectors * out.coeffs, axis=0)
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
    v = random_solenoidal(grid2d, band=5, seed=6)
    assert np.all(v.coeffs[:, 0, 0] == 0)
    assert np.all(v.coeffs[:, 8, :] == 0)  # Nyquist row
    assert np.all(v.coeffs[:, :, 8] == 0)


def test_field_is_real(grid2d):
    v = random_solenoidal(grid2d, band=5, seed=7)
    herm = v.coeffs - np.conj(grid2d.reflect(v.coeffs))
    assert np.max(np.abs(herm)) < 1e-14


# -- sym_gradient -------------------------------------------------------------


def test_sym_gradient_zero(grid2d):
    D = sym_gradient(SpectralVelocity.zero(grid2d))
    assert np.all(D.values == 0)


def test_sym_gradient_single_shear_mode():
    # v = (sin(2 pi y / L), 0): off-diagonals (pi/L) cos(2 pi y / L), zero diagonal
    L = 5.0
    g = TorusGrid(2, 16, L)
    x = g.points(padded=False)
    samples = np.stack([np.sin(2 * np.pi * x[1] / L), np.zeros_like(x[0])])
    v = SpectralVelocity.from_physical(g, samples)
    D = sym_gradient(v)
    xp = g.points(padded=True)
    expected = (np.pi / L) * np.cos(2 * np.pi * xp[1] / L)
    assert np.max(np.abs(D.values[0, 1] - expected)) < 1e-12
    assert np.max(np.abs(D.values[1, 0] - expected)) < 1e-12
    assert np.max(np.abs(D.values[0, 0])) < 1e-13
    assert np.max(np.abs(D.values[1, 1])) < 1e-13


def test_sym_gradient_trace_free(grid2d):
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
    x = g.points(padded=True)
    f = np.sin(2 * np.pi * x[0] / 3.0)
    assert lp_norm(f, 2.0, grid=g) == pytest.approx(3.0 / np.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("dim, M, seed", [(2, 16, 0), (2, 12, 1), (3, 8, 2), (3, 12, 3)])
def test_hessian_upper_triangle_matches_full_transform(dim, M, seed):
    grid = TorusGrid(dim, M, 2 * np.pi)
    v = random_solenoidal(grid, band=M // 2 - 1, seed=seed)
    k = grid.wavevectors
    full = grid.to_physical(
        -(k[np.newaxis, :, np.newaxis] * k[np.newaxis, np.newaxis, :]
          * v.coeffs[:, np.newaxis, np.newaxis])
    )  # all d^3 channels of d_j d_k v_i
    hess = hessian_samples(v)
    assert hess.flags.c_contiguous
    assert np.array_equal(hess, full)
    for q in (1.5, 1.9, 2.0, 3.0):
        assert lp_norm(hess, q, grid=grid) == lp_norm(full, q, grid=grid)


def test_lp_norm_rejects_q_below_one(grid2d):
    with pytest.raises(ValueError):
        lp_norm(SpectralVelocity.zero(grid2d), 0.5)


def test_parseval(grid2d):
    v = random_solenoidal(grid2d, band=6, seed=9, amplitude=1.7)
    quad = lp_norm(v, 2)
    spectral = l2_norm_spectral(v)
    assert abs(quad**2 - spectral**2) <= 1e-10 * spectral**2


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
    div = np.sum(g.wavevectors * v.coeffs, axis=0)
    assert np.max(np.abs(div)) < 1e-13


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
    # per-row scatter plus the reflected conjugate, bit for bit, on a payload
    # holding +0.0 and -0.0 in both parts.  Zeroing the real or imaginary
    # parts of whole rows keeps the field divergence-free.
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
    coeffs = np.zeros((dim,) + g.shape, dtype=np.complex128)
    for row, n in enumerate(reps):
        coeffs[(slice(None),) + tuple(x % M for x in n)] = (
            payload[row, :, 0] + 1j * payload[row, :, 1]
        )
    want = SpectralVelocity(g, coeffs + np.conj(g.reflect(coeffs)))
    assert load_checkpoint(path).coeffs.tobytes() == want.coeffs.tobytes()

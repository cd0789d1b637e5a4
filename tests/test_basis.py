import itertools
import struct

import numpy as np
import pytest

from conftest import full_mode_grid, half_spectrum, reflect, rep_index, rep_wavevectors
from plsf.basis import (
    StokesBasis,
    basis_capacity,
    count_modes_below,
    full_basis,
    make_basis,
)
from plsf.errors import CapacityError
from plsf.fields import (
    inner_product,
    lp_norm,
    random_solenoidal,
    representative_modes,
    save_checkpoint,
)
from plsf.grid import TorusGrid


def test_first_shell_2d(grid2d):
    # L = 2 pi, N = 4: the whole lambda = 1 shell (k = +-e1, +-e2)
    basis = make_basis(grid2d, 4)
    assert np.allclose(basis.eigenvalues, 1.0)
    assert basis.modes.tolist() == [[0, 1], [1, 0]]
    # entries alternate cos | sin: real, then imaginary coefficients at n
    for r, n in enumerate([(0, 1), (0, 1), (1, 0), (1, 0)]):
        c = basis.entry_field(r).coeffs[:, rep_index(grid2d, n)]
        assert np.all(c.imag == 0.0) if r % 2 == 0 else np.all(c.real == 0.0)
        assert np.max(np.abs(c)) > 0.1


def test_constructor_is_canonical_and_checks_capacity():
    g = TorusGrid(3, 8, 1.0)
    basis = StokesBasis(g, 13)  # a partial last mode: 4 entries per mode
    assert basis.size == 13
    assert np.array_equal(basis.modes, representative_modes(g)[:4])
    c = np.random.default_rng(2).standard_normal(13)
    assert basis.synthesize(c).coeffs.tobytes() == make_basis(g, 13).synthesize(c).coeffs.tobytes()
    for N in (-1, basis_capacity(g) + 1):
        with pytest.raises(CapacityError):
            StokesBasis(g, N)


def test_single_entry_unit_norm():
    g = TorusGrid(2, 16, 3.7)
    basis = make_basis(g, 1)
    assert basis.eigenvalues[0] == pytest.approx((2 * np.pi / 3.7) ** 2, rel=1e-14)
    field = basis.entry_field(0)
    assert lp_norm(field, 2) == pytest.approx(1.0, rel=1e-12)


def test_empty_basis_valid(grid2d):
    basis = make_basis(grid2d, 0)
    assert basis.size == 0


def test_capacity_error_names_maximum(grid2d):
    cap = basis_capacity(grid2d)
    with pytest.raises(CapacityError) as exc:
        make_basis(grid2d, cap + 1)
    assert str(cap) in str(exc.value)


def test_orthonormality(grid2d):
    basis = make_basis(grid2d, 16)
    gram = np.empty((16, 16))
    fields = [basis.entry_field(r) for r in range(16)]
    for r in range(16):
        for s in range(16):
            gram[r, s] = inner_product(fields[r], fields[s])
    assert np.max(np.abs(gram - np.eye(16))) < 1e-10


def test_eigenfunction_relation(grid2d):
    basis = make_basis(grid2d, 10)
    for r in (0, 3, 7, 9):
        a = basis.entry_field(r)
        lap = np.sum(rep_wavevectors(grid2d) ** 2, axis=0) * a.coeffs  # -Delta in spectral form
        assert np.max(np.abs(lap - basis.eigenvalues[r] * a.coeffs)) < 1e-12


def test_entries_sorted_by_eigenvalue(grid2d):
    basis = full_basis(grid2d)
    assert np.all(np.diff(basis.eigenvalues) >= -1e-12)
    # each field is divergence-free, real, mean-free by construction
    a = basis.entry_field(17)
    div = np.sum(rep_wavevectors(grid2d) * a.coeffs, axis=0)
    assert np.max(np.abs(div)) < 1e-13


def test_completeness_roundtrip(grid2d):
    # any field built from the first N modes reprojects exactly
    basis = make_basis(grid2d, 24)
    rng = np.random.default_rng(42)
    c = rng.standard_normal(24)
    v = basis.synthesize(c)
    c_back = basis.project(v)
    assert np.max(np.abs(c_back - c)) < 1e-12 * max(1.0, np.max(np.abs(c)))
    v_back = basis.synthesize(c_back)
    assert np.max(np.abs(v_back.coeffs - v.coeffs)) <= 1e-12 * np.max(np.abs(v.coeffs))


def test_projection_is_bessel_contraction(grid2d):
    v = random_solenoidal(grid2d, band=6, seed=3, amplitude=2.0)
    basis = make_basis(grid2d, 12)
    c = basis.project(v)
    assert np.sqrt(np.sum(c**2)) <= lp_norm(v, 2) * (1 + 1e-12)


def test_nesting(grid2d):
    v = random_solenoidal(grid2d, band=6, seed=4)
    small = make_basis(grid2d, 10)
    large = make_basis(grid2d, 30)
    assert np.array_equal(small.project(v), large.project(v)[:10])


def test_capacity_3d():
    g = TorusGrid(3, 12, 1.0)
    cap = basis_capacity(g)
    # (d-1) * 2 per representative; representatives are half the nonzero band
    half = 12 // 2 - 1
    n_modes = (2 * half + 1) ** 3 - 1
    assert cap == 2 * 2 * (n_modes // 2)
    basis = make_basis(g, 8)
    gram = np.array(
        [
            [inner_product(basis.entry_field(r), basis.entry_field(s)) for s in range(8)]
            for r in range(8)
        ]
    )
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10


def test_count_modes_below(grid2d):
    # lambda = 1 shell has 4 entries, lambda = 2 shell has 4 more
    assert count_modes_below(grid2d, 1.0) == 4
    assert count_modes_below(grid2d, 2.0) == 8
    assert count_modes_below(grid2d, 0.5) == 0


# -- oracle: the per-mode enumeration the array-native basis replaced ---------


def _oracle_modes(dim, M):
    half = M // 2 - 1
    reps = [
        n
        for n in itertools.product(range(-half, half + 1), repeat=dim)
        if next((x for x in n if x != 0), 0) > 0
    ]
    reps.sort(key=lambda n: (sum(x * x for x in n), n))
    return reps


def _oracle_polarizations(n):
    nv = np.asarray(n, dtype=np.float64)
    if len(n) == 2:
        return [np.array([-nv[1], nv[0]]) / np.linalg.norm(nv)]
    ref = np.array([0.0, 0.0, 1.0])
    if n[0] == 0 and n[1] == 0:
        ref = np.array([1.0, 0.0, 0.0])
    e1 = np.cross(nv, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nv, e1)
    e2 /= np.linalg.norm(e2)
    return [e1, e2]


def _oracle_entries(grid):
    """(eigenvalue, wavevector, polarization, trig, direction) per entry."""
    ksc_sq = (2.0 * np.pi / grid.L) ** 2
    out = []
    for n in _oracle_modes(grid.dim, grid.M):
        lam = ksc_sq * float(sum(x * x for x in n))
        for pol, e in enumerate(_oracle_polarizations(n)):
            for trig in ("cos", "sin"):
                out.append((lam, n, pol, trig, e))
    return out


ORACLE_GRIDS = [(2, 8, 1.0), (2, 16, 3.7), (3, 8, 2 * np.pi), (3, 12, 1.9)]


@pytest.mark.parametrize("dim, M, L", ORACLE_GRIDS)
def test_full_basis_matches_per_mode_oracle(dim, M, L):
    g = TorusGrid(dim, M, L)
    want = _oracle_entries(g)
    assert np.array_equal(representative_modes(g), np.array(_oracle_modes(dim, M)))
    basis = full_basis(g)
    assert basis.size == len(want) == basis_capacity(g)
    lam = np.array([w[0] for w in want])
    assert basis.eigenvalues.tobytes() == lam.tobytes()
    # entry j is mode j // 2(d-1), polarization (j // 2) mod (d-1); the
    # cos | sin slots are pinned by the synthesize/project oracle below
    per_mode = 2 * (dim - 1)
    assert [tuple(n) for n in np.repeat(basis.modes, per_mode, axis=0).tolist()] == [
        w[1] for w in want
    ]
    # polarization vectors bit for bit, signed zeros included
    pol = basis._directions.transpose(2, 0, 1).reshape(-1, dim)  # (mode, pol) rows
    dirs = np.repeat(pol, 2, axis=0)
    assert dirs.tobytes() == np.array([w[4] for w in want]).tobytes()


@pytest.mark.parametrize("dim, M, L", ORACLE_GRIDS)
def test_count_modes_below_at_every_shell(dim, M, L):
    g = TorusGrid(dim, M, L)
    lam = np.array([w[0] for w in _oracle_entries(g)])
    for shell in np.unique(lam):
        for cut in (np.nextafter(shell, -np.inf), shell, np.nextafter(shell, np.inf)):
            assert count_modes_below(g, cut) == int(np.sum(lam <= cut))
    assert count_modes_below(g, 0.0) == 0
    assert count_modes_below(g, np.inf) == basis_capacity(g)


@pytest.mark.parametrize("dim, M", [(2, 8), (2, 10), (2, 64), (3, 8), (3, 14), (3, 32)])
def test_capacity_is_enumeration_length(dim, M):
    g = TorusGrid(dim, M, 1.0)
    assert basis_capacity(g) == 2 * (dim - 1) * len(representative_modes(g))
    assert len(representative_modes(g)) == ((M - 1) ** dim - 1) // 2


def _oracle_spectrum(g, c):
    """synthesize on the full fftn layout, per entry: each entry's
    amplitude added at its wavevector (np.add.at), then the reflected
    conjugate added; returns it with the positions of the entries."""
    dim, M, N = g.dim, g.M, len(c)
    entries = _oracle_entries(g)[:N]
    flat = np.array([np.ravel_multi_index([x % M for x in n], g.shape)
                     for _, n, _, _, _ in entries])
    E = np.array([e for *_, e in entries])
    is_cos = np.array([trig == "cos" for _, _, _, trig, _ in entries])
    buf = np.zeros((dim, M**dim), dtype=np.complex128)
    amp = np.where(is_cos, c, -1j * c) / np.sqrt(2.0 * g.volume)
    for i in range(dim):
        np.add.at(buf[i], flat, amp * E[:, i])
    buf = buf.reshape((dim,) + g.shape)
    return buf + np.conj(reflect(g, buf)), flat, E, is_cos


@pytest.mark.parametrize("dim, M, N", [(2, 16, 37), (3, 8, 101)])
def test_save_checkpoint_matches_per_row_oracle(tmp_path, dim, M, N):
    # the file holds, at each representative, what the full-layout spectrum
    # of the field holds there, bit for bit: also at a representative with
    # a negative last index, which the real-input FFT reads at its mirror
    g = TorusGrid(dim, M, 1.3)
    basis = make_basis(g, N)  # a partial last shell
    c = np.random.default_rng(N).standard_normal(N)
    c[::5] = 0.0
    v = basis.synthesize(c)
    path = tmp_path / "state.plsf"
    save_checkpoint(path, v)
    reps = _oracle_modes(dim, M)
    assert any(n[-1] < 0 for n in reps[: -(-N // (2 * (dim - 1)))])
    # the band mask, as SpectralVelocity applies it
    full = _oracle_spectrum(g, c)[0] * np.all(np.abs(full_mode_grid(g)) < M // 2, axis=0)
    want = struct.pack("<4sIIIdQ", b"PLSF", 1, dim, M, 1.3, len(reps))
    for n in reps:
        for z in full[(slice(None),) + tuple(x % M for x in n)]:
            want += struct.pack("<dd", z.real, z.imag)
    raw = path.read_bytes()
    assert raw == want
    payload = np.frombuffer(raw[struct.calcsize("<4sIIIdQ"):], dtype="<f8")
    assert not np.any((payload == 0.0) & np.signbit(payload))  # no -0.0 stored


def test_full_basis_3d_m64_builds():
    g = TorusGrid(3, 64, 1.0)
    basis = full_basis(g)
    assert basis.size == 500_092
    assert np.all(np.diff(basis.eigenvalues) >= 0)


@pytest.mark.parametrize("dim, M, N", [(2, 16, 37), (3, 8, 101), (3, 8, 416)])
def test_synthesize_and_project_match_per_entry_oracle(dim, M, N):
    # the per-entry scatter (np.add.at, then the reflected conjugate) and
    # gather on the full layout, bit for bit at the representatives, signed
    # zeros included
    g = TorusGrid(dim, M, 1.3)
    basis = make_basis(g, N)
    rng = np.random.default_rng(N)
    c = rng.standard_normal(N)
    c[::5] = 0.0
    c[1::7] = -0.0
    want, flat, E, is_cos = _oracle_spectrum(g, c)
    got = basis.synthesize(c).coeffs
    reps = representative_modes(g)
    assert got.shape == (dim, len(reps))
    assert got.tobytes() == np.ascontiguousarray(
        want[(slice(None),) + tuple((reps % M).T)]).tobytes()

    # the projection reads the field's full-layout spectrum at the entries'
    # wavevectors
    v = random_solenoidal(g, band=3, seed=N)
    full = np.zeros((dim,) + g.shape, dtype=np.complex128)
    full[..., : M // 2] = half_spectrum(g, v.coeffs)
    full[..., M // 2 + 1 :] = np.conj(reflect(g, full))[..., M // 2 + 1 :]
    sub = full.reshape(dim, -1)[:, flat]
    a = np.einsum("nd,dn->n", E, sub)
    proj = np.sqrt(2.0 * g.volume) * np.where(is_cos, a.real, -a.imag)
    assert basis.project(v).tobytes() == proj.tobytes()

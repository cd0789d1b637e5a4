"""Power-law stress and the scalar functionals built from it.

The constitutive law is sigma(D) = (mu + |D|^2)^((p-2)/2) D with |D| the
Frobenius norm of the strain rate.  For p < 2 and mu = 0 the prefactor is
singular at D = 0; the product still tends to zero there, so sigma is
extended continuously by 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    SpectralVelocity,
    TensorField,
    inner_product,
    sym_gradient,
)

# Empirical constant for the stress-difference bound
#   |sigma(A) - sigma(B)| <= C |A - B| / (mu + |A| + |B|)^(2-p).
# Calibrated once over ~2.8e6 random symmetric pairs (2D and 3D, magnitudes
# log-uniform in [1e-3, 1e3], one fifth near-antipodal) spanning
# p in [1.8, 2], mu in [1e-2, 1e2]; max observed ratio 1.592 at p = 1.8,
# mu = 1e2 on antipodal pairs, then frozen with margin.  The ratio grows
# like (mu + 4)^((2-p)/2) on antipodal pairs, so C is only valid for
# mu <= 1e2; no sharpness claim.
STRESS_DIFF_CONSTANT = 2.0


@dataclass(frozen=True)
class FluidParams:
    """Constitutive exponent p and stress offset mu."""

    p: float
    mu: float

    def __post_init__(self):
        if not (1.0 < self.p <= 2.0):
            raise ValueError(f"p must lie in (1, 2], got {self.p}")
        if not (self.mu >= 0):  # NaN fails every comparison
            raise ValueError(f"mu must be nonnegative, got {self.mu}")

    @property
    def theory_range(self) -> bool:
        """True iff the energy-gap theory applies: p in (9/5, 2), mu > 0."""
        return 1.8 < self.p < 2.0 and self.mu > 0


def _stress_factor(dd_sq: np.ndarray, params: FluidParams, out=None, mask=None) -> np.ndarray:
    """(mu + |D|^2)^((p-2)/2) with the continuous extension at 0^negative.

    Written into `out` when it is given (dd_sq itself will do); `mask`, a
    bool array shaped like dd_sq, is then the scratch of the mu = 0 case.
    """
    base = np.add(params.mu, dd_sq, out=out)
    expo = 0.5 * (params.p - 2.0)
    if params.mu > 0 or expo == 0.0:
        return np.power(base, expo, out=base)
    nz = np.greater(base, 0.0, out=mask)
    np.power(base, expo, out=base, where=nz)
    np.copyto(base, 0.0, where=np.logical_not(nz, out=nz))
    return base


def stress(D: TensorField, params: FluidParams) -> TensorField:
    """Pointwise power-law stress of a strain-rate field."""
    dd_sq = np.sum(D.values**2, axis=(0, 1))
    fac = _stress_factor(dd_sq, params)
    return TensorField(D.grid, fac[np.newaxis, np.newaxis] * D.values)


def stress_tensor(D: np.ndarray, params: FluidParams) -> np.ndarray:
    """stress() for a single d x d tensor."""
    D = np.asarray(D, dtype=np.float64)
    dd_sq = float(np.sum(D**2))
    base = params.mu + dd_sq
    expo = 0.5 * (params.p - 2.0)
    if base == 0.0:
        return np.zeros_like(D)
    return base**expo * D


def stress_derivative(D: np.ndarray, dD: np.ndarray, params: FluidParams) -> np.ndarray:
    """Directional derivative of sigma at D in direction dD (mu > 0)."""
    if params.mu <= 0:
        raise ValueError("the stress derivative needs mu > 0")
    D = np.asarray(D, dtype=np.float64)
    dD = np.asarray(dD, dtype=np.float64)
    base = params.mu + float(np.sum(D**2))
    fac = base ** (0.5 * (params.p - 2.0))
    fac2 = base ** (0.5 * (params.p - 4.0))
    ddot = float(np.sum(D * dD))
    return fac * dD + (params.p - 2.0) * fac2 * ddot * D


def rho_tilde(v: SpectralVelocity, params: FluidParams) -> float:
    """Integral of (mu + |Dv|^2)^((p-2)/2) |Dv|^2, the natural dissipation
    density; by construction equals inner_product(stress(Dv), Dv)."""
    D = sym_gradient(v)
    return inner_product(stress(D, params), D)


def I_p(v: SpectralVelocity, params: FluidParams) -> float:
    """Weighted second-order dissipation
    integral of (mu + |Dv|^2)^((p-2)/2) |grad Dv|^2; requires mu > 0."""
    if params.mu <= 0:
        raise ValueError("I_p is only defined for mu > 0 (integrand singular at Dv = 0)")
    D = sym_gradient(v)
    dd_sq = np.sum(D.values**2, axis=(0, 1))
    fac = _stress_factor(dd_sq, params)
    density = fac * v.grad_strain_sq  # cached: one transform for every mu
    return float(np.sum(density) * v.grid.quad_weight)


def oo_identity_residual(D: np.ndarray, dD: np.ndarray, params: FluidParams) -> float:
    """Mismatch between the directional stress derivative contracted with
    dD and its expanded two-term form.

    The expansion is
        (mu+|D|^2)^((p-2)/2) |dD|^2 + (p-2) (mu+|D|^2)^((p-4)/2) (D:dD)^2
    and the residual should sit at rounding level, far below the
    documented bound 1e-10 * (1+|D|)^p * |dD|^2.
    """
    if params.mu <= 0:
        raise ValueError("the identity check needs mu > 0")
    D = np.asarray(D, dtype=np.float64)
    dD = np.asarray(dD, dtype=np.float64)
    lhs = float(np.sum(stress_derivative(D, dD, params) * dD))
    base = params.mu + float(np.sum(D**2))
    ddot = float(np.sum(D * dD))
    rhs = base ** (0.5 * (params.p - 2.0)) * float(np.sum(dD**2))
    rhs += (params.p - 2.0) * base ** (0.5 * (params.p - 4.0)) * ddot**2
    return abs(lhs - rhs)


def oo_residual_scale(D: np.ndarray, dD: np.ndarray, params: FluidParams) -> float:
    """The (1+|D|)^p |dD|^2 scale the residual bound is stated against."""
    dmag = float(np.sqrt(np.sum(np.asarray(D, float) ** 2)))
    ddmag_sq = float(np.sum(np.asarray(dD, float) ** 2))
    return (1.0 + dmag) ** params.p * ddmag_sq


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

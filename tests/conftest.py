import numpy as np
import pytest

from plsf.fields import gradient, grad_sym_gradient_samples, hessian_samples, lp_norm


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
        return lp_norm(hessian_samples(u), arg, grid=g)
    G = np.array(gradient(u).values)  # d_j u_i at [i, j]
    G[-1, -1] = -np.sum([G[i, i] for i in range(d - 1)], axis=0)
    if name == "grad":
        return lp_norm(G, arg, grid=g)
    D = 0.5 * (G + G.swapaxes(0, 1))
    dd = np.sum(D**2, axis=(0, 1))
    if name == "shifted":
        return lp_norm(np.sqrt(arg.mu + dd), arg.p, grid=g)
    base = arg.mu + dd
    fac = np.zeros_like(base)
    np.power(base, 0.5 * (arg.p - 2.0), out=fac, where=base > 0)
    if name == "rho_tilde":
        return float(np.sum(fac * dd) * g.quad_weight)
    assert name == "I_p"
    dD = np.array(grad_sym_gradient_samples(u))  # d_s D_ij at [s, i, j]
    dD[:, -1, -1] = -np.sum([dD[:, i, i] for i in range(d - 1)], axis=0)
    sq = np.zeros(g.padded_shape)
    for i in range(d):
        for j in range(i, d):
            for s in range(d):
                sq = sq + (1.0 if i == j else 2.0) * dD[s, i, j] ** 2
    return float(np.sum(fac * sq) * g.quad_weight)


@pytest.fixture
def trace_free_oracle():
    return trace_free_value

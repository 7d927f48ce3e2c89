"""First Dirichlet eigenpair of the unweighted Laplacian on a component.

The spectral margin condition (f2) compares gamma, the slope of the
nonlinearity at 0+, against a_M * lambda_1(D) for every connected component
D of the domain minus the zero set, where a_M is the maximum of the weight
over the closure of D.  Each step on the stencil matrix K takes the
Rayleigh-Ritz minimum on span{x, T(Kx - lambda x), the last step's
direction}, single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001),
so lambda is a Rayleigh quotient, never below the discrete lambda_1.  K is
the component's K0 (:func:`~multibump.assembly.dirichlet_conductances`).  In
2D, T is the solve with a direct factor of K (:func:`factorize`: a band
Cholesky in reverse Cuthill-McKee order while the band is narrow, else
scipy's fill-reducing sparse LU), built once per component and handed to the
2D Newton solve with K's diagonal; in 3D that fill takes gigabytes at a few
ten thousand unknowns, so T is Jacobi and no factor is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalFailureError
from .grid import Grid
from .tolerances import ToleranceConfig
from .topology import Component
from .weights import WeightField


@dataclass(frozen=True)
class EigenPair:
    """Lowest Dirichlet eigenvalue and positive eigenfunction of -Laplace.

    ``e1`` is given on the component's nodes (same ordering as
    ``component.nodes``), normalized to max-norm 1 and strictly positive.
    ``rayleigh_residual`` is |Kx - lambda x|/lambda at the last unit iterate
    x, after ``iterations`` Rayleigh-Ritz steps.  In 2D, ``factor`` is
    :func:`factorize`'s solve x -> K^-1 x with the component's unit-conductance
    matrix K and ``diagonal`` is K's diagonal; in 3D both are None.
    """

    component_id: tuple[int, int]
    lambda1: float
    e1: np.ndarray
    rayleigh_residual: float
    iterations: int
    factor: Callable | None = None
    diagonal: np.ndarray | None = None


@dataclass(frozen=True)
class F2Entry:
    component_id: tuple[int, int]
    a_max: float
    lambda1: float
    gamma: float
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin > 0.0


def splu(*args, **kwargs):
    from scipy.sparse.linalg import splu  # here, not at module top: it brings scipy.linalg
    return splu(*args, **kwargs)


# n (kd + 1)^2 multiply-adds, up to which a band Cholesky and twenty of its solves (a lambda_1
# and a factored Newton solve) beat SuperLU's on a 2D K0, 2-core Xeon, one BLAS thread: 5.7
# against 8.0 ms on the square @65 (1.6e7), 12.5 against 13.5 @81 (4.0e7), 22.3 against 19.9 @97.
BAND_BUDGET = 2 ** 25


def factorize(K, component_id: tuple[int, int]) -> Callable[[np.ndarray], np.ndarray]:
    """The solve x -> K^-1 x of the symmetric positive definite 2D matrix ``K``.

    In reverse Cuthill-McKee order (George and Liu, 1981) a lattice component's
    band is about as wide as the component, kd; LAPACK's ``dpbtrf`` factors it
    while n (kd + 1)^2 <= ``BAND_BUDGET``, a fill-reducing ``splu`` past that.
    ``NumericalFailureError`` names the component when the factorization fails.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee  # loaded by the decomposition
    K = K.tocsr()
    order = reverse_cuthill_mckee(K, symmetric_mode=True)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    row, col = np.repeat(position, np.diff(K.indptr)), position[K.indices]  # in that order
    kd = int(np.max(col - row, initial=0))
    if K.shape[0] * (kd + 1) ** 2 > BAND_BUDGET:
        del order, position, row, col  # not to be held through SuperLU's peak memory
        try:
            return splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1).solve
        except RuntimeError as exc:
            raise NumericalFailureError(
                f"sparse LU failed on component {component_id}: {exc}") from exc
    from scipy.linalg.lapack import dpbtrf, dpbtrs
    upper = row <= col
    band = np.zeros((kd + 1, K.shape[0]), order="F")  # upper band: row kd is the diagonal
    band[kd + row[upper] - col[upper], col[upper]] = K.data[upper]
    band, info = dpbtrf(band, overwrite_ab=1)
    if info != 0:
        raise NumericalFailureError(
            f"band Cholesky failed on component {component_id}: "
            f"leading minor of order {info} is not positive definite")
    return lambda b: dpbtrs(band, b[order], overwrite_b=1)[0][position]


def jacobi(K) -> Callable[[np.ndarray], np.ndarray]:
    """The Jacobi preconditioner r -> r / diag(K), its inverse diagonal built once."""
    inv_diag = 1.0 / K.diagonal()
    return lambda r: inv_diag * r


def pcg(K, shift, g: np.ndarray, eta: float,
        precondition: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, int]:
    """Newton's inexact solve of (K - diag(shift)) d = g by preconditioned CG.

    ``precondition`` maps a residual r to M^-1 r for a symmetric positive
    definite M: :func:`jacobi` (M = diag K), or the factor's solve of the
    unit-conductance matrix scaled to K's diagonal.  Stops at residual
    eta*|g| or at the first direction of nonpositive curvature; if that is
    the first direction, the preconditioned gradient is returned, so
    g.d > 0 always.  Returns d and the number of CG steps.
    """
    d, r, stop = np.zeros_like(g), g.copy(), eta * np.linalg.norm(g)
    p = z = precondition(r)
    rz, work = r @ z, np.empty_like(g)
    for step in range(1, g.size + 1):
        Hp = K @ p
        Hp -= np.multiply(shift, p, out=work)
        pHp = p @ Hp
        if pHp <= 0.0:
            return (z if step == 1 else d), step
        alpha = rz / pHp
        d += np.multiply(alpha, p, out=work)
        r -= np.multiply(alpha, Hp, out=Hp)
        if math.sqrt(r @ r) <= stop:  # np.linalg.norm(r), bit for bit
            break
        z = precondition(r)
        rz, rz_prev = r @ z, rz
        p *= rz / rz_prev  # the first z, returned only at step 1, is free now
        p += z
    return d, step


# Rayleigh-Ritz steps before a component fails; the 3D shell @129 takes 114, 2D at most 54.
EIG_MAX_ITER = 500


def dirichlet_lambda1(component: Component, grid: Grid, K,
                      tol: ToleranceConfig = ToleranceConfig()) -> EigenPair:
    """Lowest eigenpair of the Dirichlet Laplacian on the component.

    ``K`` is the component's K0, with zero boundary data on its shell.  The
    steps stop once their contraction puts lambda within ``eig_tol`` of the
    discrete lambda_1, relatively; after ``EIG_MAX_ITER`` steps they fail.
    In 2D the factor's solve that preconditions them is returned as ``factor``.
    """
    if grid.ndim == 2:
        solve = precondition = factorize(K, component.id)
    else:  # Jacobi: a 3D factor's fill grows too fast
        solve, precondition = None, jacobi(K)
    S, KS = np.empty((3, K.shape[0])), np.empty((3, K.shape[0]))  # rows x, w, p; K times them
    S[0] = 1.0 / np.sqrt(K.shape[0])
    KS[0] = K @ S[0]
    lam, step, m = S[0] @ KS[0], 0.0, 2
    for iteration in range(1, EIG_MAX_ITER + 1):
        S[1] = precondition(KS[0] - lam * S[0])
        KS[1] = K @ S[1]
        G, A = (np.array([S[:m] @ v for v in V[:m]]) for V in (S, KS))
        # Z: an orthonormal basis of the span, in which a zero or dependent w or p drops out
        d = 1.0 / np.sqrt(np.diag(G) + (np.diag(G) == 0.0))
        g, Q = np.linalg.eigh(d[:, None] * G * d)
        Z = d[:, None] * Q[:, g > 1e-12 * g[-1]] / np.sqrt(g[g > 1e-12 * g[-1]])
        theta, Y = np.linalg.eigh(Z.T @ A @ Z)
        y = Z @ Y[:, 0]
        S[2], KS[2] = y[1:m] @ S[1:m], y[1:m] @ KS[1:m]
        S[0], KS[0] = y[0] * S[0] + S[2], y[0] * KS[0] + KS[2]
        lam, step_prev, step, m = theta[0], step, lam - theta[0], 3
        # Steps contracting by rho = step/step_prev leave about step*rho/(1 - rho) of
        # lam - lambda_1; a hundredth of eig_tol covers the uneven contraction of Jacobi.
        if step <= 0.0 or step ** 2 <= (step_prev - step) * 0.01 * tol.eig_tol * lam:
            break
    else:
        raise NumericalFailureError(
            f"Rayleigh-Ritz iteration did not converge on component {component.id}")

    x = S[0] / np.linalg.norm(S[0])
    Kx = K @ x
    lam = float(x @ Kx)
    residual = float(np.linalg.norm(Kx - lam * x)) / lam
    e1 = x / x[np.argmax(np.abs(x))]
    if np.min(e1) <= 0.0:
        raise NumericalFailureError(
            f"first eigenfunction not strictly positive on component {component.id}")
    return EigenPair(component_id=component.id, lambda1=lam, e1=e1,
                     rayleigh_residual=residual, iterations=iteration, factor=solve,
                     diagonal=None if solve is None else K.diagonal())


def check_hypothesis_f2(component: Component, field: WeightField, gamma: float,
                        eigen: EigenPair) -> F2Entry:
    """Spectral margin gamma/lambda_1 - a_M for one component: the one (f2) verdict.

    a_M approximates the maximum of the weight over the component closure:
    the component nodes plus their boundary shell.  gamma > 0 is (f1)'s.
    """
    values = field.values.ravel()
    closure = np.concatenate([component.nodes, component.shell])
    a_max = float(np.max(values[closure]))
    margin = gamma / eigen.lambda1 - a_max
    return F2Entry(component_id=component.id, a_max=a_max,
                   lambda1=eigen.lambda1, gamma=gamma, margin=margin)

"""First Dirichlet eigenpair of the unweighted Laplacian on a component.

The spectral margin condition (f2) compares gamma, the slope of the
nonlinearity at 0+, against a_M * lambda_1(D) for every connected component
D of the domain minus the zero set, where a_M is the maximum of the weight
over the closure of D.  Only the lowest eigenpair is needed, so we run
inverse power iteration on the symmetric positive definite stencil matrix K:
each step solves K y = x, sets x = y/|y| and lambda = x.Kx, a Rayleigh
quotient, so never below the discrete lambda_1 however inexact the solve
(Golub & Ye, BIT 40, 2000).  In 2D, K is factorized once per component by a
fill-reducing sparse LU (:func:`factorize`, which the 2D Newton solve also
uses); in 3D the fill takes gigabytes at a few ten thousand unknowns, so
each solve is the Newton solve's CG (:func:`pcg`, Jacobi) to ``INNER_RTOL``,
whose memory stays linear.  A 2D stiffness that is a multiple of K (a
constant weight, no cut edges) shares K's factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import boundary_cut_fractions, lattice_operator
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
    x.  ``factor`` is x -> S^-1 x for a stiffness S that shares K's factor.
    """

    component_id: tuple[int, int]
    lambda1: float
    e1: np.ndarray
    rayleigh_residual: float
    iterations: int
    factor: Callable | None = None


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


def factorize(K, component_id: tuple[int, int]) -> Callable[[np.ndarray], np.ndarray]:
    """The solve x -> K^-1 x by a fill-reducing sparse LU of the 2D matrix ``K``.

    ``NumericalFailureError`` names the component when the factorization fails.
    """
    try:
        return splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1).solve
    except RuntimeError as exc:
        raise NumericalFailureError(
            f"sparse LU failed on component {component_id}: {exc}") from exc


# Largest entry of S - c K relative to S's largest for S = c K; boxes give 0.
MULTIPLE_TOL = 1e-12


def multiple_of(S, K) -> float | None:
    """c with S = c K on K's sparsity, to ``MULTIPLE_TOL``, or None."""
    if np.array_equal(S.indptr, K.indptr) and np.array_equal(S.indices, K.indices):
        c = S.data[0] / K.data[0]
        if np.max(np.abs(S.data - c * K.data)) <= MULTIPLE_TOL * np.max(np.abs(S.data)):
            return c
    return None


def pcg(K, shift, g: np.ndarray, eta: float,
        precondition: Callable | None = None) -> tuple[np.ndarray, int]:
    """Inexact solve of (K - diag(shift)) d = g by preconditioned CG.

    ``precondition`` maps a residual r to M^-1 r for a symmetric positive
    definite M: Jacobi (M = diag K) by default, or the solve with an LU
    factor of K.  Stops at residual eta*|g| or at the first direction of
    nonpositive curvature; if that is the first direction, the
    preconditioned gradient is returned, so g.d > 0 always.  Returns d and
    the number of CG steps.
    """
    if precondition is None:
        inv_diag = 1.0 / K.diagonal()
        precondition = lambda r: inv_diag * r
    d, r, stop = np.zeros_like(g), g.copy(), eta * np.linalg.norm(g)
    p = z = precondition(r)
    rz = r @ z
    for step in range(1, g.size + 1):
        Hp = K @ p - shift * p
        pHp = p @ Hp
        if pHp <= 0.0:
            return (z if step == 1 else d), step
        d += (rz / pHp) * p
        r -= (rz / pHp) * Hp
        if np.linalg.norm(r) <= stop:
            break
        z = precondition(r)
        rz, rz_prev = r @ z, rz
        p = z + (rz / rz_prev) * p
    return d, step


# Relative residual of each 3D inner solve: on the 3D shell @17-81 the outer
# steps and lambda_1 (to 1e-11) are those of solves to 1e-12.
INNER_RTOL = 1e-6


def dirichlet_laplacian(grid: Grid):
    """The lattice's unit-conductance operator over h^2, built once per run.

    An edge crossing the domain boundary at theta*h from its inside end has
    conductance 1/theta, so the zero condition sits on the true boundary
    rather than on the pinned lattice ring.
    """
    conductances = [1.0 / theta for theta in boundary_cut_fractions(grid)]
    return lattice_operator(grid, conductances, scale=1.0 / grid.h ** 2)


def dirichlet_lambda1(component: Component, grid: Grid, laplacian,
                      tol: ToleranceConfig = ToleranceConfig(),
                      stiffness=None) -> EigenPair:
    """Lowest eigenpair of the Dirichlet Laplacian on the component.

    ``laplacian`` is :func:`dirichlet_laplacian` of ``grid``; restricting
    it to the component's nodes gives zero boundary data on its shell.
    Converged when successive eigenvalue estimates agree to ``eig_tol``
    relatively, within ``eig_max_iter`` steps.  In 2D, a ``stiffness``
    that is c times that restriction gets the LU factor over c as the
    result's ``factor``; any other factor is dropped on return.
    """
    K = laplacian[component.nodes][:, component.nodes]
    if grid.ndim == 2:
        solve = factorize(K, component.id)
    else:
        solve = lambda b: pcg(K, 0.0, b, INNER_RTOL)[0]

    x = np.ones(K.shape[0]) / np.sqrt(K.shape[0])
    lam = np.inf
    for iteration in range(1, tol.eig_max_iter + 1):
        y = solve(x)
        x = y / np.linalg.norm(y)
        Kx = K @ x
        lam, lam_prev = float(x @ Kx), lam
        if abs(lam - lam_prev) <= tol.eig_tol * lam:
            break
    else:
        raise NumericalFailureError(
            f"inverse power iteration did not converge on component {component.id}")

    residual = float(np.linalg.norm(Kx - lam * x)) / lam
    e1 = x / x[np.argmax(np.abs(x))]
    if np.min(e1) <= 0.0:
        raise NumericalFailureError(
            f"first eigenfunction not strictly positive on component {component.id}")
    scale = multiple_of(stiffness, K) if stiffness is not None and grid.ndim == 2 else None
    return EigenPair(component_id=component.id, lambda1=lam, e1=e1,
                     rayleigh_residual=residual, iterations=iteration,
                     factor=None if scale is None else lambda b: solve(b) / scale)


def check_hypothesis_f2(component: Component, field: WeightField, gamma: float,
                        eigen: EigenPair) -> F2Entry:
    """Spectral margin gamma/lambda_1 - a_M for one component.

    a_M approximates the maximum of the weight over the component closure:
    the component nodes plus their boundary shell.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    values = field.values.ravel()
    closure = np.concatenate([component.nodes, component.shell])
    a_max = float(np.max(values[closure]))
    margin = gamma / eigen.lambda1 - a_max
    return F2Entry(component_id=component.id, a_max=a_max,
                   lambda1=eigen.lambda1, gamma=gamma, margin=margin)

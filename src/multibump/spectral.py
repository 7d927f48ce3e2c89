"""First Dirichlet eigenpair of the unweighted Laplacian on a component.

The spectral margin condition (f2) compares gamma, the slope of the
nonlinearity at 0+, against a_M * lambda_1(D) for every connected component
D of the domain minus the zero set, where a_M is the maximum of the weight
over the closure of D.  Only the lowest eigenpair is needed, so we run
inverse power iteration with a Jacobi-preconditioned conjugate-gradient
inner solve on the symmetric positive definite stencil matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .assembly import build_stiffness, cut_unit_conductances
from .errors import NumericalFailureError
from .grid import Grid
from .topology import Component
from .weights import WeightField


@dataclass(frozen=True)
class EigenPair:
    """Lowest Dirichlet eigenvalue and positive eigenfunction of -Laplace.

    ``e1`` is given on the component's nodes (same ordering as
    ``component.nodes``), normalized to max-norm 1 and strictly positive.
    """

    component_id: tuple[int, int]
    lambda1: float
    e1: np.ndarray
    rayleigh_residual: float
    iterations: int


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


def dirichlet_lambda1(component: Component, grid: Grid, tol: float = 1e-8,
                      max_iter: int = 500) -> EigenPair:
    """Lowest eigenpair of the Dirichlet Laplacian on the component.

    Zero boundary data on the component's shell; edges crossing the domain
    boundary carry the cut-length correction so the zero condition sits on
    the true boundary rather than the pinned lattice ring.  Converged when
    successive eigenvalue estimates agree to ``tol`` relatively.
    """
    unknown = np.zeros(grid.shape, dtype=bool)
    unknown.ravel()[component.nodes] = True
    K, _ = build_stiffness(grid, cut_unit_conductances(grid), unknown,
                           scale=1.0 / grid.h ** 2)
    p = K.shape[0]
    if p == 0:
        raise NumericalFailureError(f"component {component.id} has no nodes")

    inv_diag = 1.0 / K.diagonal()
    M = LinearOperator((p, p), matvec=lambda v: inv_diag * v)

    x = np.ones(p)
    x /= np.linalg.norm(x)
    lam_prev = np.inf
    lam = np.inf
    for iteration in range(1, max_iter + 1):
        y, info = cg(K, x, rtol=1e-12, atol=0.0, maxiter=20 * p, M=M)
        if info != 0:
            raise NumericalFailureError(
                f"inner CG failed (info={info}) on component {component.id}")
        # K y = x up to cg tolerance, so the Rayleigh quotient of y is
        # (y.x)/(y.y) without another matvec.
        lam = float(y @ x) / float(y @ y)
        x = y / np.linalg.norm(y)
        if np.isfinite(lam_prev) and abs(lam - lam_prev) <= tol * abs(lam):
            break
        lam_prev = lam
    else:
        raise NumericalFailureError(
            f"inverse power iteration did not converge on component {component.id}")

    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    e1 = x / np.max(x)
    if np.min(e1) <= 0.0:
        raise NumericalFailureError(
            f"first eigenfunction not strictly positive on component {component.id}")
    ray = float(x @ (K @ x)) / float(x @ x)
    return EigenPair(component_id=component.id, lambda1=lam, e1=e1,
                     rayleigh_residual=abs(ray - lam) / lam,
                     iterations=iteration)


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

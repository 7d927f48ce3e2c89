"""Truncated nonlinearity, discrete energy, and one-bump minimization.

On each component D the functional

    J(u) = 1/2 sum_edges c_e (u_i - u_j)^2 h^(N-2) - sum_nodes F*(u_i) h^N

is minimized by line-search Newton-CG, where F* is the primitive of the
truncated nonlinearity f*: equal to f on (-beta*, s*), frozen at f(-beta*)
below -beta*, and zero above s*.  The truncation makes J coercive and
forces the minimizer into [0, s*] without any clamping; the bounds emerge
from stationarity alone.

The inner solves are the spectral stage's CG (``pcg``), preconditioned by its
LU factor when the eigenpair carries one (2D, weight constant on the closure,
no cut edge), else by Jacobi, which a 2D component swaps for a factor of K
once that pays (``minimize_energy``); 3D memory stays linear.

Every nonlinearity kind only supplies f and gets one primitive: a Simpson
table plus Simpson's rule on the partial panel, exact on each quadrature
panel where f is cubic, so J and its gradient agree for every kind.

Minimization starts from a small positive multiple of the first Dirichlet
eigenfunction chosen so the energy is already negative, which is possible
exactly when the spectral margin condition (f2) holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import (HypothesisViolationError, InvalidNonlinearityError,
                     NumericalFailureError, SeedFailureError)
from .expressions import compile_expression
from .grid import Grid
from .spectral import EigenPair, factorize, pcg
from .tolerances import ToleranceConfig, real
from .topology import Component
from .weights import WeightField


@dataclass(frozen=True)
class NonlinearitySpec:
    """Reaction term f with slope gamma at 0+, upper zero s*, margin beta*.

    Required shape: f(0) = 0 with a strict local minimum at 0, f > 0 on
    (0, s*) with f(s*) = 0, f > 0 on [-beta*, 0), and finite one-sided
    slope gamma = lim f(s)/s as s -> 0+.
    """

    kind: str
    gamma: float
    s_star: float
    beta_star: float
    evaluator: Callable

    @classmethod
    def logistic(cls, gamma: float, s_star: float = 1.0,
                 beta_star: float | None = None) -> "NonlinearitySpec":
        """Default nonlinearity gamma*|s|*(1 - s/s*) capped at zero past s*."""
        gamma, s_star = real(gamma, "gamma"), real(s_star, "s_star")
        if beta_star is None:
            beta_star = s_star / 2.0

        def logistic_f(s):
            return np.where(s <= s_star, gamma * np.abs(s) * (1.0 - s / s_star), 0.0)
        return cls(kind="logistic-default", gamma=gamma, s_star=s_star,
                   beta_star=real(beta_star, "beta_star"), evaluator=logistic_f)

    @classmethod
    def custom(cls, expr: str, gamma: float, s_star: float,
               beta_star: float) -> "NonlinearitySpec":
        """f given by the expression ``expr`` in ``s``."""
        return cls(kind="custom", gamma=real(gamma, "gamma"),
                   s_star=real(s_star, "s_star"), beta_star=real(beta_star, "beta_star"),
                   evaluator=compile_expression(expr, ("s",)))

    def f(self, s):
        return np.asarray(self.evaluator(np.asarray(s, dtype=float)), dtype=float)


def validate_nonlinearity(spec: NonlinearitySpec) -> None:
    """Sampled check of the shape conditions (f1); raises on violation.

    f is sampled at 2048 points on each side of 0, and its slope at 0+ must
    match gamma to 5%.
    """
    samples = 2048
    if spec.gamma <= 0 or spec.s_star <= 0 or spec.beta_star <= 0:
        raise InvalidNonlinearityError(
            "gamma, s_star and beta_star must all be positive")
    inner = np.linspace(0.0, spec.s_star, samples + 2)[1:-1]
    lower = np.linspace(-spec.beta_star, 0.0, samples + 1)[:-1]
    delta = 1e-8 * spec.s_star
    # NaN fails every comparison, so the checks below need finite samples.
    with np.errstate(all="ignore"):
        sampled = spec.f(np.concatenate([lower, [0.0, delta], inner, [spec.s_star]]))
    if not np.all(np.isfinite(sampled)):
        raise InvalidNonlinearityError("f must be finite on [-beta*, s*]")
    scale = spec.gamma * spec.s_star
    if abs(float(spec.f(0.0))) > 1e-12 * scale:
        raise InvalidNonlinearityError("f(0) must vanish")
    if abs(float(spec.f(spec.s_star))) > 1e-9 * scale:
        raise InvalidNonlinearityError(f"f(s*) must vanish at s* = {spec.s_star}")
    if np.min(spec.f(inner)) <= 0.0:
        raise InvalidNonlinearityError("f must be strictly positive on (0, s*)")
    if np.min(spec.f(lower)) <= 0.0:
        raise InvalidNonlinearityError("f must be strictly positive on [-beta*, 0)")
    slope = float(spec.f(delta)) / delta
    if abs(slope - spec.gamma) > 0.05 * spec.gamma:
        raise InvalidNonlinearityError(
            f"slope of f at 0+ is {slope:.6g}, declared gamma is {spec.gamma:.6g}")


@dataclass(frozen=True)
class TruncatedNonlinearity:
    """f* and its primitive F* (F*(0) = 0, nondecreasing on [0, s*]).

    ``knots`` are the Simpson panel ends on [-beta*, s*], uniform on each
    side of the knot at 0, which is ``knots[zero]``; ``f_knots`` and
    ``F_knots`` hold f and F* there.
    """

    base: NonlinearitySpec
    zero: int
    knots: np.ndarray = dc_field(repr=False)
    f_knots: np.ndarray = dc_field(repr=False)
    F_knots: np.ndarray = dc_field(repr=False)

    def f_star(self, s):
        s = np.asarray(s, dtype=float)
        b = self.base
        return np.where(s >= b.s_star, 0.0,
                        np.where(s <= -b.beta_star, self.f_knots[0], b.f(s)))

    def F_star(self, s):
        """Primitive of f* from 0, exact on each quadrature panel.

        On [-beta*, s*], F*(s) is the tabulated value at the knot s_k below
        s plus Simpson's rule on [s_k, s], so dF*/ds = f* up to the rule's
        O(w^4) error on a panel of width w <= s*/1000, and to round-off
        when f is a cubic on each panel (the logistic default is quadratic
        on each side of 0).  F* is constant above s* and continues with
        slope f(-beta*) below -beta*.
        """
        s = np.asarray(s, dtype=float)
        b, knots, zero = self.base, self.knots, self.zero
        x = np.clip(s, -b.beta_star, b.s_star)
        # Index of the knot below x, by arithmetic on each uniform side.
        below = (x + b.beta_star) * (zero / b.beta_star)
        above = zero + x * ((knots.size - 1 - zero) / b.s_star)
        k = np.fmin(np.where(x < 0.0, below, above), knots.size - 2).astype(np.intp)
        s_k = knots[k]
        panel = (x - s_k) / 6.0 * (self.f_knots[k] + 4.0 * b.f(0.5 * (s_k + x)) + b.f(x))
        return self.F_knots[k] + panel + self.f_knots[0] * np.minimum(s - x, 0.0)


def truncate_nonlinearity(spec: NonlinearitySpec) -> TruncatedNonlinearity:
    """Validate the shape conditions and tabulate the primitive of f*.

    Composite Simpson on panels of width <= s*/1000, accumulated outward
    from the knot at 0 so that F*(0) = 0 exactly.
    """
    validate_nonlinearity(spec)

    def knots(a, b):
        panels = max(int(np.ceil((b - a) / (spec.s_star / 1000.0))), 1)
        return np.linspace(a, b, panels + 1)

    lower, upper = knots(-spec.beta_star, 0.0), knots(0.0, spec.s_star)
    s = np.concatenate([lower[:-1], upper])
    f = spec.f(s)
    mids = spec.f(0.5 * (s[:-1] + s[1:]))
    panel = (np.diff(s) / 6.0) * (f[:-1] + 4.0 * mids + f[1:])
    below = panel[:lower.size - 1]
    F = np.concatenate([-np.cumsum(below[::-1])[::-1], [0.0],
                        np.cumsum(panel[lower.size - 1:])])
    if not np.all(np.isfinite(F)):  # f is NaN or infinite at a quadrature knot
        raise InvalidNonlinearityError("f must be finite on [-beta*, s*]")
    return TruncatedNonlinearity(base=spec, zero=lower.size - 1, knots=s,
                                 f_knots=f, F_knots=F)


@dataclass(frozen=True)
class DiscreteEnergy:
    """J and its exact gradient on one component's nodes."""

    component: Component
    K: object = dc_field(repr=False)
    trunc: TruncatedNonlinearity = dc_field(repr=False)
    cell_volume: float
    a_max_closure: float
    ndim: int

    @property
    def size(self) -> int:
        return self.K.shape[0]

    def value(self, u: np.ndarray) -> float:
        return 0.5 * float(u @ (self.K @ u)) \
            - float(np.sum(self.trunc.F_star(u))) * self.cell_volume

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.K @ u - self.trunc.f_star(u) * self.cell_volume


def assemble_energy(component: Component, field: WeightField,
                    trunc: TruncatedNonlinearity, grid: Grid) -> DiscreteEnergy:
    """Assemble J on a component (weighted stiffness + lumped reaction).

    K is the weight's operator restricted to the component's nodes.  Mass
    lumping makes the gradient exactly K u - f*(u) h^N, the true
    derivative of the discrete value.
    """
    nodes = component.nodes
    K = field.operator[nodes][:, nodes]
    closure = np.concatenate([nodes, component.shell])
    a_max = float(np.max(field.values.ravel()[closure]))
    return DiscreteEnergy(component=component, K=K, trunc=trunc,
                          cell_volume=grid.cell_volume, a_max_closure=a_max,
                          ndim=grid.ndim)


# Jacobi-CG counts grow like 1/h ~ sqrt(unknowns) only where K dominates the
# Hessian, which is where the factor of K makes them independent of h.  Minimize
# ms with the switch / Jacobi only at n = 65, 129, 257, 513 (2-core host, best of
# 3, one run at 513): square with a = 1 + 0.5xy 20/26, 94/232, 611/1792,
# 4556/19027; disk of radius 1/2, a = 1, 18/23, 80/115, 453/866, 3157/7312;
# `ring` (1,1) 7.1/7.6, 18/18, 91/121, 523/821.  Where the f*' shift dominates,
# as on the nested rings' annuli (<= 33 Jacobi steps per Newton step at n = 129),
# the count stays below the bound; CG with the factor took as many steps (62 vs
# 72), 4-5x dearer.  Their disk (1,1) switches at step 9-11 of 10-12 from n = 129
# on and loses: 8.2/6.6, 22/17, 107/89.
FACTOR_SWITCH = 0.5


@dataclass(frozen=True)
class BumpSolution:
    """Converged nonnegative minimizer on one component.

    ``values`` live on ``nodes`` (flat lattice indices of the component).
    ``factored_from`` is the first Newton step (counted from 1) whose inner
    solve used the LU factor of K, or None if the component never switched.
    """

    component_id: tuple[int, int]
    nodes: np.ndarray
    values: np.ndarray
    energy: float
    grad_norm: float
    min_value: float
    max_value: float
    iterations: int
    linear_iterations: int
    seed_scale: float
    factored_from: int | None = None

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.values.setflags(write=False)


def minimize_energy(energy: DiscreteEnergy, eigen: EigenPair,
                    tol: ToleranceConfig = ToleranceConfig()) -> BumpSolution:
    """Line-search Newton-CG (Nocedal & Wright, Alg. 7.1) from a negative seed.

    Refuses to run when the spectral margin (f2) fails on this component,
    since the seed J(s e1) < 0 is then not available.  Each step solves
    H d = g, H = K - diag(f*'(u)) h^N, to relative residual
    min(0.5, sqrt(|g|/|g0|)) and backtracks on J from the full step.
    Converged when max|g| <= grad_tol_scale * gamma * h^N and, once max u
    is within ``bounds_tol`` of s*, the last step is at most bounds_tol/10
    (on the kink of f* at s* a small gradient does not bound the error in u).

    Given ``eigen.factor`` (x -> K^-1 x), every step is CG preconditioned
    by it.  Otherwise the inner solve is Jacobi-CG until, in 2D, one step's
    count reaches ``FACTOR_SWITCH * sqrt(unknowns)``; every later step is CG
    preconditioned by a sparse LU factor of K, built once before it.
    """
    b = energy.trunc.base
    if b.gamma / eigen.lambda1 <= energy.a_max_closure:
        raise HypothesisViolationError(
            "f2", f"component {energy.component.id}: "
            f"max(a) = {energy.a_max_closure:.6g} >= gamma/lambda1 = "
            f"{b.gamma / eigen.lambda1:.6g}")

    s0 = b.s_star
    smallest = b.s_star * 2.0 ** (-tol.seed_min_exponent)
    while (J := energy.value(s0 * eigen.e1)) >= 0.0:
        s0 *= 0.5
        if s0 < smallest:
            raise SeedFailureError(
                f"no negative-energy seed on component {energy.component.id}; "
                "the (f2) margin is too small at this resolution")

    grad_tol = tol.grad_tol_scale * b.gamma * energy.cell_volume
    K, hN, trunc = energy.K, energy.cell_volume, energy.trunc
    # f*' only shapes the Newton direction; the line search and the gradient
    # test decide correctness, so a central difference is accurate enough.
    # It is one-sided at s* (the semismooth choice): 0 from s* up, and below
    # s* taken at most at s* - ds, so it never straddles the kink.
    ds = 1e-6 * b.s_star
    u = s0 * eigen.e1
    g0 = float(np.linalg.norm(energy.gradient(u)))
    linear_iterations, step = 0, np.inf
    switch_at = FACTOR_SWITCH * np.sqrt(energy.size) if energy.ndim == 2 else np.inf
    precondition, factored_from = eigen.factor, (None if eigen.factor is None else 1)
    switch = False
    for iteration in range(tol.max_minimize_iterations):
        Ku = K @ u
        g = Ku - trunc.f_star(u) * hN
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= grad_tol and (step <= tol.bounds_tol / 10.0
                                  or np.max(u) < b.s_star - tol.bounds_tol):
            return BumpSolution(
                component_id=energy.component.id, nodes=energy.component.nodes,
                values=u, energy=J, grad_norm=gnorm,
                min_value=float(np.min(u)), max_value=float(np.max(u)),
                iterations=iteration, linear_iterations=linear_iterations,
                seed_scale=s0, factored_from=factored_from)
        eta = min(0.5, np.sqrt(np.linalg.norm(g) / g0))
        v = np.minimum(u, b.s_star - ds)
        shift = np.where(u < b.s_star, trunc.f_star(v + ds) - trunc.f_star(v - ds),
                         0.0) * (hN / (2.0 * ds))
        if switch and precondition is None:
            precondition, factored_from = factorize(K, energy.component.id), iteration + 1
        d, steps = pcg(K, shift, g, eta, precondition)
        linear_iterations += steps
        switch |= steps >= switch_at
        g_d, d_Ku, d_Kd = float(g @ d), float(d @ Ku), float(d @ (K @ d))
        F_u = trunc.F_star(u)
        # Armijo only compares round-off once alpha*g.d is below J's resolution.
        resolution = np.finfo(float).eps * abs(J)
        alpha = 1.0
        while True:
            trial = u - alpha * d
            change = alpha * (0.5 * alpha * d_Kd - d_Ku) \
                - float(np.sum(trunc.F_star(trial) - F_u)) * hN
            if change <= -1e-4 * alpha * g_d or alpha * g_d <= resolution:
                break
            alpha *= 0.5
        u, J, step = trial, J + change, alpha * float(np.max(np.abs(d)))

    raise NumericalFailureError(
        f"Newton-CG did not reach gradient tolerance {grad_tol:.3g} within "
        f"{tol.max_minimize_iterations} iterations on component {energy.component.id}")

"""Truncated nonlinearity, discrete energy, and one-bump minimization.

On each component D the functional

    J(u) = 1/2 sum_edges c_e (u_i - u_j)^2 h^(N-2) - sum_nodes F*(u_i) h^N

is minimized by line-search Newton-CG, where F* is the primitive of the
truncated nonlinearity f*: equal to f on (-beta*, s*), frozen at f(-beta*)
below -beta*, and zero above s*.  The truncation makes J coercive and
forces the minimizer into [0, s*] without any clamping; the bounds emerge
from stationarity alone.

The inner solves are CG (``spectral.pcg``).  In 2D the spectral stage's LU
factor of the unit-conductance matrix K0, scaled to the weight's diagonal, is
a preconditioner for the weighted K: exact where the two diagonals are
proportional, and taken from the first step then, else once Jacobi stops
paying (``minimize_energy`` decides).  3D stays on Jacobi; its memory stays
linear.

Every nonlinearity kind only supplies f.  ``truncate_nonlinearity`` samples
it once, decides (f1) from that sample, and builds the one primitive: a
Simpson table plus Simpson's rule on the partial panel, exact on each
quadrature panel where f is cubic, so J and its gradient agree for every kind.

Minimization starts from a small positive multiple of the first Dirichlet
eigenfunction chosen so the energy is already negative; such a seed needs the
margin (f2), which the caller decides (``spectral.check_hypothesis_f2``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import HypothesisViolationError, NumericalFailureError
from .expressions import compile_expression
from .grid import Grid
from .spectral import EigenPair, jacobi, pcg
from .tolerances import ToleranceConfig, real
from .topology import Component


@dataclass(frozen=True)
class NonlinearitySpec:
    """Reaction term f with slope gamma at 0+, upper zero s*, margin beta*.

    Required shape: f(0) = 0 with a strict local minimum at 0, f > 0 on
    (0, s*) with f(s*) = 0, f > 0 on [-beta*, 0), and finite one-sided
    slope gamma = lim f(s)/s as s -> 0+.  ``expr`` is f as a formula in ``s``.
    """

    gamma: float
    s_star: float
    beta_star: float
    expr: str

    def __post_init__(self):
        compile_expression(self.expr, ("s",))  # a bad expression is a configuration error

    @classmethod
    def logistic(cls, gamma: float, s_star: float = 1.0,
                 beta_star: float | None = None) -> "NonlinearitySpec":
        """Default nonlinearity gamma*|s|*(1 - s/s*) capped at zero past s*."""
        gamma, s_star = real(gamma, "gamma"), real(s_star, "s_star")
        if beta_star is None:
            beta_star = s_star / 2.0
        return cls(gamma=gamma, s_star=s_star, beta_star=real(beta_star, "beta_star"),
                   expr=f"where(s <= {s_star!r}, "
                        f"{gamma!r} * abs(s) * (1.0 - s / {s_star!r}), 0.0)")

    @classmethod
    def custom(cls, expr: str, gamma: float, s_star: float,
               beta_star: float) -> "NonlinearitySpec":
        """f given by the expression ``expr`` in ``s``."""
        return cls(gamma=real(gamma, "gamma"), s_star=real(s_star, "s_star"),
                   beta_star=real(beta_star, "beta_star"), expr=expr)

    def f(self, s):
        f = compile_expression(self.expr, ("s",))
        return np.asarray(f(np.asarray(s, dtype=float)), dtype=float)


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
        return np.where(s >= b.s_star, 0.0, np.where(s <= -b.beta_star, self.f_knots[0],
                                                     b.f(np.clip(s, -b.beta_star, b.s_star))))

    def F_and_f_star(self, s):
        """F*(s), the primitive of f* from 0 exact on each quadrature panel, and f*(s).

        On [-beta*, s*], F*(s) is the tabulated value at the knot s_k below
        s plus Simpson's rule on [s_k, s], so dF*/ds = f* up to the rule's
        O(w^4) error on a panel of width w <= s*/1000, and to round-off
        when f is a cubic on each panel (the logistic default is quadratic
        on each side of 0).  F* is constant above s* and continues with
        slope f(-beta*) below -beta*.  On (-beta*, s*) f*(s) is the f(s) the
        rule already evaluates, so one pass gives both.
        """
        s = np.asarray(s, dtype=float)
        b, knots, zero = self.base, self.knots, self.zero
        x = np.clip(s, -b.beta_star, b.s_star)
        # Index of the knot below x, by arithmetic on each uniform side.
        below = (x + b.beta_star) * (zero / b.beta_star)
        above = zero + x * ((knots.size - 1 - zero) / b.s_star)
        k = np.fmin(np.where(x < 0.0, below, above), knots.size - 2).astype(np.intp)
        s_k = knots[k]
        f = b.f(x)
        panel = (x - s_k) / 6.0 * (self.f_knots[k] + 4.0 * b.f(0.5 * (s_k + x)) + f)
        return (self.F_knots[k] + panel + self.f_knots[0] * np.minimum(s - x, 0.0),
                np.where(s >= b.s_star, 0.0, np.where(s <= -b.beta_star, self.f_knots[0], f)))


def truncate_nonlinearity(spec: NonlinearitySpec) -> TruncatedNonlinearity:
    """Decide (f1) and tabulate the primitive of f*; raises an (f1) violation.

    One evaluation of f covers 2048 points on each side of 0, then 0, 1e-8*s*
    (the slope at 0+ must match gamma to 5%) and s*, and the knots and
    midpoints of composite Simpson on panels of width <= s*/1000, accumulated
    outward from the knot at 0 so that F*(0) = 0 exactly.
    """
    if spec.gamma <= 0 or spec.s_star <= 0 or spec.beta_star <= 0:
        raise HypothesisViolationError(
            "f1", "gamma, s_star and beta_star must all be positive")
    samples, delta = 2048, 1e-8 * spec.s_star

    def knots(a, b):
        panels = max(int(np.ceil((b - a) / (spec.s_star / 1000.0))), 1)
        return np.linspace(a, b, panels + 1)

    lower, upper = knots(-spec.beta_star, 0.0), knots(0.0, spec.s_star)
    s = np.concatenate([lower[:-1], upper])
    parts = [np.linspace(-spec.beta_star, 0.0, samples + 1)[:-1], [0.0, delta],
             np.linspace(0.0, spec.s_star, samples + 2)[1:-1], [spec.s_star],
             s, 0.5 * (s[:-1] + s[1:])]
    points = np.concatenate(parts)
    # NaN fails every comparison, so the checks below need finite samples.
    with np.errstate(all="ignore"):
        values = np.broadcast_to(spec.f(points), points.shape)  # a constant f is 0-d
    f_lower, (f_zero, f_delta), f_inner, (f_top,), f, mids = np.split(
        values, np.cumsum([len(p) for p in parts[:-1]]))
    if not np.all(np.isfinite(values[:2 * samples + 3])):
        raise HypothesisViolationError("f1", "f must be finite on [-beta*, s*]")
    scale = spec.gamma * spec.s_star
    if abs(f_zero) > 1e-12 * scale:
        raise HypothesisViolationError("f1", "f(0) must vanish")
    if abs(f_top) > 1e-9 * scale:
        raise HypothesisViolationError("f1", f"f(s*) must vanish at s* = {spec.s_star}")
    if np.min(f_inner) <= 0.0:
        raise HypothesisViolationError("f1", "f must be strictly positive on (0, s*)")
    if np.min(f_lower) <= 0.0:
        raise HypothesisViolationError("f1", "f must be strictly positive on [-beta*, 0)")
    slope = f_delta / delta
    if abs(slope - spec.gamma) > 0.05 * spec.gamma:
        raise HypothesisViolationError(
            "f1", f"slope of f at 0+ is {slope:.6g}, declared gamma is {spec.gamma:.6g}")
    panel = (np.diff(s) / 6.0) * (f[:-1] + 4.0 * mids + f[1:])
    below = panel[:lower.size - 1]
    F = np.concatenate([-np.cumsum(below[::-1])[::-1], [0.0],
                        np.cumsum(panel[lower.size - 1:])])
    if not np.all(np.isfinite(F)):  # f is NaN or infinite at a quadrature knot
        raise HypothesisViolationError("f1", "f must be finite on [-beta*, s*]")
    return TruncatedNonlinearity(base=spec, zero=lower.size - 1, knots=s,
                                 f_knots=f, F_knots=F)


@dataclass(frozen=True)
class DiscreteEnergy:
    """J and its exact gradient on one component's nodes."""

    component: Component
    K: object = dc_field(repr=False)
    trunc: TruncatedNonlinearity = dc_field(repr=False)
    cell_volume: float

    @property
    def size(self) -> int:
        return self.K.shape[0]

    def value(self, u: np.ndarray) -> float:
        return 0.5 * float(u @ (self.K @ u)) \
            - float(np.sum(self.trunc.F_and_f_star(u)[0])) * self.cell_volume

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.K @ u - self.trunc.f_star(u) * self.cell_volume


def assemble_energy(component: Component, K, trunc: TruncatedNonlinearity,
                    grid: Grid) -> DiscreteEnergy:
    """Assemble J on a component (weighted stiffness + lumped reaction).

    ``K`` is the component's K_w, built with its K0 on one sparsity pattern,
    so the weight enters J only through it.  Mass lumping makes the gradient
    exactly K u - f*(u) h^N, the true derivative of the discrete value.
    """
    return DiscreteEnergy(component=component, K=K, trunc=trunc,
                          cell_volume=grid.cell_volume)


# Jacobi-CG counts grow like 1/h ~ sqrt(unknowns) only where K dominates the
# Hessian, which is where the factor makes them independent of h.  Where the f*'
# shift dominates, as on the nested rings' annuli, the count stays below the
# bound, and CG with the factor takes about as many steps, each dearer.
FACTOR_SWITCH = 0.5


@dataclass(frozen=True)
class BumpSolution:
    """Converged nonnegative minimizer on one component.

    ``values`` live on ``nodes`` (flat lattice indices of the component).
    ``factored_from`` is the first Newton step (counted from 1) whose inner
    solve used the spectral stage's LU factor, or None if none did.
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

    The caller gates on (f2); without a seed J(s e1) < 0, s >= s* 2^-seed_min_exponent,
    it stops with ``NumericalFailureError``.  Each step solves
    H d = g, H = K - diag(f*'(u)) h^N, to relative residual
    min(0.5, sqrt(|g|/|g0|)) and backtracks on J from the full step.
    Converged when max|g| <= grad_tol_scale * gamma * h^N and, once max u
    is within ``bounds_tol`` of s*, the last step is at most bounds_tol/10
    (on the kink of f* at s* a small gradient does not bound the error in u).

    In 2D ``eigen.factor`` (x -> K0^-1 x) gives the preconditioner
    M^-1 = D^-1/2 K0^-1 D^-1/2, D = diag(K) / ``eigen.diagonal``.  When D is
    constant, as for a constant weight with no cut edge (then M = K), every
    step uses it.  Otherwise the inner solve is Jacobi-CG until one step's
    count reaches ``FACTOR_SWITCH * sqrt(unknowns)``, and M from the next
    step on.  3D has no factor and stays on Jacobi.
    """
    b = energy.trunc.base
    K, hN, trunc = energy.K, energy.cell_volume, energy.trunc
    s0 = b.s_star
    smallest = b.s_star * 2.0 ** (-tol.seed_min_exponent)
    while True:  # J(u) is DiscreteEnergy.value; F*(u) and f*(u) go on to the first step
        u = s0 * eigen.e1
        Ku = K @ u
        F_u, f_u = trunc.F_and_f_star(u)
        if (J := 0.5 * float(u @ Ku) - float(np.sum(F_u)) * hN) < 0.0:
            break
        s0 *= 0.5
        if s0 < smallest:
            raise NumericalFailureError(
                f"no negative-energy seed on component {energy.component.id}; "
                "the (f2) margin is too small at this resolution")

    grad_tol = tol.grad_tol_scale * b.gamma * energy.cell_volume
    # f*' only shapes the Newton direction; the line search and the gradient
    # test decide correctness, so a central difference is accurate enough.
    # It is one-sided at s* (the semismooth choice): 0 from s* up, and below
    # s* taken at most at s* - ds, so it never straddles the kink.
    ds = 1e-6 * b.s_star
    linear_iterations, step = 0, np.inf
    precondition, factored_from = jacobi(K), None
    switch, switch_at = False, np.inf
    # M = D^1/2 K0 D^1/2 is K for a constant weight and no cut edge, where D is constant
    if eigen.factor is not None:
        D = K.diagonal() / eigen.diagonal
        root = 1.0 / np.sqrt(D)
        switch, switch_at = np.ptp(D) == 0.0, FACTOR_SWITCH * np.sqrt(energy.size)
    for iteration in range(tol.max_minimize_iterations):
        g = Ku - f_u * hN
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= grad_tol and (step <= tol.bounds_tol / 10.0
                                  or np.max(u) < b.s_star - tol.bounds_tol):
            return BumpSolution(
                component_id=energy.component.id, nodes=energy.component.nodes,
                values=u, energy=J, grad_norm=gnorm,
                min_value=float(np.min(u)), max_value=float(np.max(u)),
                iterations=iteration, linear_iterations=linear_iterations,
                seed_scale=s0, factored_from=factored_from)
        if iteration == 0:
            g0 = float(np.linalg.norm(g))
        eta = min(0.5, np.sqrt(np.linalg.norm(g) / g0))
        v = np.minimum(u, b.s_star - ds)
        shift = np.where(u < b.s_star, trunc.f_star(v + ds) - trunc.f_star(v - ds),
                         0.0) * (hN / (2.0 * ds))
        if switch and factored_from is None:
            precondition, factored_from = (lambda r: root * eigen.factor(root * r)), iteration + 1
        d, steps = pcg(K, shift, g, eta, precondition)
        linear_iterations += steps
        switch |= steps >= switch_at
        g_d, d_Ku, d_Kd = float(g @ d), float(d @ Ku), float(d @ (K @ d))
        # Armijo only compares round-off once alpha*g.d is below J's resolution.
        resolution = np.finfo(float).eps * abs(J)
        alpha = 1.0
        while True:
            trial = u - alpha * d
            F_trial, f_trial = trunc.F_and_f_star(trial)
            change = alpha * (0.5 * alpha * d_Kd - d_Ku) - float(np.sum(F_trial - F_u)) * hN
            if change <= -1e-4 * alpha * g_d or alpha * g_d <= resolution:
                break
            alpha *= 0.5
        u, F_u, f_u = trial, F_trial, f_trial
        Ku, J, step = K @ u, J + change, alpha * float(np.max(np.abs(d)))

    raise NumericalFailureError(
        f"Newton-CG did not reach gradient tolerance {grad_tol:.3g} within "
        f"{tol.max_minimize_iterations} iterations on component {energy.component.id}")

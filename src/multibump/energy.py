"""Truncated nonlinearity, discrete energy, and one-bump minimization.

On each component D the functional

    J(u) = 1/2 sum_edges c_e (u_i - u_j)^2 h^(N-2) - sum_nodes F*(u_i) h^N

is minimized by line-search Newton-CG with matrix-free inner solves, where
F* is the primitive of the truncated nonlinearity f*: equal to f on
(-beta*, s*), frozen at f(-beta*) below -beta*, and zero above s*.  The
truncation makes J coercive and forces the minimizer into [0, s*] without
any clamping; the bounds emerge from stationarity alone.

Minimization starts from a small positive multiple of the first Dirichlet
eigenfunction chosen so the energy is already negative, which is possible
exactly when the spectral margin condition (f2) holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .assembly import build_stiffness
from .errors import (HypothesisViolationError, InvalidNonlinearityError,
                     NumericalFailureError, SeedFailureError)
from .expressions import compile_expression
from .grid import Grid
from .spectral import EigenPair
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
    evaluator: Callable | None = None
    expr: str | None = None

    @classmethod
    def logistic(cls, gamma: float, s_star: float = 1.0,
                 beta_star: float | None = None) -> "NonlinearitySpec":
        """Default nonlinearity gamma*|s|*(1 - s/s*) capped at zero past s*."""
        if beta_star is None:
            beta_star = s_star / 2.0
        return cls(kind="logistic-default", gamma=float(gamma),
                   s_star=float(s_star), beta_star=float(beta_star))

    @classmethod
    def custom(cls, evaluator: Callable | str, gamma: float, s_star: float,
               beta_star: float) -> "NonlinearitySpec":
        expr = None
        if isinstance(evaluator, str):
            expr = evaluator
            evaluator = compile_expression(evaluator, ("s",))
        return cls(kind="custom", gamma=float(gamma), s_star=float(s_star),
                   beta_star=float(beta_star), evaluator=evaluator, expr=expr)

    def f(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "logistic-default":
            return np.where(s <= self.s_star,
                            self.gamma * np.abs(s) * (1.0 - s / self.s_star),
                            0.0)
        return np.asarray(self.evaluator(s), dtype=float)


def validate_nonlinearity(spec: NonlinearitySpec, samples: int = 2048,
                          slope_rtol: float = 0.05) -> None:
    """Sampled check of the shape conditions (f1); raises on violation."""
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
    if abs(slope - spec.gamma) > slope_rtol * spec.gamma:
        raise InvalidNonlinearityError(
            f"slope of f at 0+ is {slope:.6g}, declared gamma is {spec.gamma:.6g}")


@dataclass(frozen=True)
class TruncatedNonlinearity:
    """f* and its primitive F* (F*(0) = 0, nondecreasing on [0, s*])."""

    base: NonlinearitySpec
    _table_s: np.ndarray | None = dc_field(default=None, repr=False)
    _table_F: np.ndarray | None = dc_field(default=None, repr=False)

    @property
    def f_at_minus_beta(self) -> float:
        return float(self.base.f(-self.base.beta_star))

    def f_star(self, s):
        s = np.asarray(s, dtype=float)
        b = self.base
        return np.where(s >= b.s_star, 0.0,
                        np.where(s <= -b.beta_star, self.f_at_minus_beta, b.f(s)))

    def F_star(self, s):
        s = np.asarray(s, dtype=float)
        b = self.base
        if b.kind == "logistic-default":
            g, ss, bb = b.gamma, b.s_star, b.beta_star
            top = g * ss ** 2 / 6.0
            f_mb = g * bb * (1.0 + bb / ss)
            F_mb = g * (-bb ** 2 / 2.0 - bb ** 3 / (3.0 * ss))
            pos = g * (s ** 2 / 2.0 - s ** 3 / (3.0 * ss))
            neg = g * (-(s ** 2) / 2.0 + s ** 3 / (3.0 * ss))
            mid = np.where(s >= 0.0, pos, neg)
            return np.where(s >= ss, top,
                            np.where(s <= -bb, F_mb + f_mb * (s + bb), mid))
        inner = np.interp(np.clip(s, -b.beta_star, b.s_star),
                          self._table_s, self._table_F)
        F_top = self._table_F[-1]
        F_bot = self._table_F[0]
        return np.where(s >= b.s_star, F_top,
                        np.where(s <= -b.beta_star,
                                 F_bot + self.f_at_minus_beta * (s + b.beta_star),
                                 inner))


def _simpson_table(spec: NonlinearitySpec) -> tuple[np.ndarray, np.ndarray]:
    # Cumulative primitive of f on [-beta*, s*], anchored at F(0) = 0, with
    # 0 as a knot; composite Simpson per panel of width <= s*/1000.
    def knots(a, b):
        panels = max(int(np.ceil((b - a) / (spec.s_star / 1000.0))), 1)
        return np.linspace(a, b, panels + 1)

    s = np.unique(np.concatenate([knots(-spec.beta_star, 0.0), knots(0.0, spec.s_star)]))
    mids = 0.5 * (s[:-1] + s[1:])
    widths = np.diff(s)
    panel = (widths / 6.0) * (spec.f(s[:-1]) + 4.0 * spec.f(mids) + spec.f(s[1:]))
    cumulative = np.concatenate([[0.0], np.cumsum(panel)])
    anchor = np.interp(0.0, s, cumulative)
    return s, cumulative - anchor


def truncate_nonlinearity(spec: NonlinearitySpec) -> TruncatedNonlinearity:
    """Validate the shape conditions and build f* with its primitive."""
    validate_nonlinearity(spec)
    if spec.kind == "logistic-default":
        return TruncatedNonlinearity(base=spec)
    table_s, table_F = _simpson_table(spec)
    if not np.all(np.isfinite(table_F)):  # f is NaN or infinite at a quadrature knot
        raise InvalidNonlinearityError("f must be finite on [-beta*, s*]")
    return TruncatedNonlinearity(base=spec, _table_s=table_s, _table_F=table_F)


def primitive_F(trunc: TruncatedNonlinearity, s) -> float | np.ndarray:
    """F*(s), the primitive of the truncated nonlinearity from 0."""
    out = trunc.F_star(s)
    return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out


@dataclass(frozen=True)
class DiscreteEnergy:
    """J and its exact gradient on one component's nodes."""

    component: Component
    K: object = dc_field(repr=False)
    trunc: TruncatedNonlinearity = dc_field(repr=False)
    cell_volume: float
    a_max_closure: float

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

    Mass lumping makes the gradient exactly K u - f*(u) h^N, the true
    derivative of the discrete value.
    """
    unknown = np.zeros(grid.shape, dtype=bool)
    unknown.ravel()[component.nodes] = True
    K, _ = build_stiffness(grid, field.conductances, unknown)
    closure = np.concatenate([component.nodes, component.shell])
    a_max = float(np.max(field.values.ravel()[closure]))
    return DiscreteEnergy(component=component, K=K, trunc=trunc,
                          cell_volume=grid.cell_volume, a_max_closure=a_max)


@dataclass(frozen=True)
class SolverOptions:
    """Newton iteration and seeding controls for bump minimization."""

    grad_tol_scale: float = 1e-8
    max_iterations: int = 100000
    seed_min_exponent: int = 30

    def grad_tolerance(self, gamma: float, cell_volume: float) -> float:
        return self.grad_tol_scale * gamma * cell_volume


@dataclass(frozen=True)
class BumpSolution:
    """Converged nonnegative minimizer on one component.

    ``values`` live on ``nodes`` (flat lattice indices of the component).
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

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.values.setflags(write=False)


def _newton_direction(K, shift, g: np.ndarray, eta: float) -> tuple[np.ndarray, int]:
    """Inexact solve of (K - diag(shift)) d = g by Jacobi-preconditioned CG.

    Stops at residual eta*|g| or at the first direction of nonpositive
    curvature; if that is the first direction, the preconditioned gradient
    is returned, so g.d > 0 always.  Returns d and the number of CG steps.
    """
    inv_diag = 1.0 / K.diagonal()
    d, r = np.zeros_like(g), g.copy()
    p = z = inv_diag * r
    rz = r @ z
    for step in range(1, g.size + 1):
        Hp = K @ p - shift * p
        pHp = p @ Hp
        if pHp <= 0.0:
            return (z if step == 1 else d), step
        d += (rz / pHp) * p
        r -= (rz / pHp) * Hp
        if np.linalg.norm(r) <= eta * np.linalg.norm(g):
            break
        z = inv_diag * r
        rz, rz_prev = r @ z, rz
        p = z + (rz / rz_prev) * p
    return d, step


def minimize_energy(energy: DiscreteEnergy, eigen: EigenPair,
                    options: SolverOptions | None = None) -> BumpSolution:
    """Line-search Newton-CG (Nocedal & Wright, Alg. 7.1) from a negative seed.

    Refuses to run when the spectral margin (f2) fails on this component,
    since the seed J(s e1) < 0 is then not available.  Each step solves
    H d = g, H = K - diag(f*'(u)) h^N, to relative residual
    min(0.5, sqrt(|g|/|g0|)) and backtracks on J from the full step.
    """
    opts = options or SolverOptions()
    b = energy.trunc.base
    if b.gamma / eigen.lambda1 <= energy.a_max_closure:
        raise HypothesisViolationError(
            "f2", f"component {energy.component.id}: "
            f"max(a) = {energy.a_max_closure:.6g} >= gamma/lambda1 = "
            f"{b.gamma / eigen.lambda1:.6g}")

    s0 = b.s_star
    smallest = b.s_star * 2.0 ** (-opts.seed_min_exponent)
    while (J := energy.value(s0 * eigen.e1)) >= 0.0:
        s0 *= 0.5
        if s0 < smallest:
            raise SeedFailureError(
                f"no negative-energy seed on component {energy.component.id}; "
                "the (f2) margin is too small at this resolution")

    tol = opts.grad_tolerance(b.gamma, energy.cell_volume)
    K, hN, trunc = energy.K, energy.cell_volume, energy.trunc
    # f*' only shapes the Newton direction; the line search and the gradient
    # test decide correctness, so a central difference is accurate enough.
    ds = 1e-6 * b.s_star
    u = s0 * eigen.e1
    g0 = float(np.linalg.norm(energy.gradient(u)))
    linear_iterations = 0
    for iteration in range(opts.max_iterations):
        Ku = K @ u
        g = Ku - trunc.f_star(u) * hN
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= tol:
            return BumpSolution(
                component_id=energy.component.id, nodes=energy.component.nodes,
                values=u, energy=J, grad_norm=gnorm,
                min_value=float(np.min(u)), max_value=float(np.max(u)),
                iterations=iteration, linear_iterations=linear_iterations,
                seed_scale=s0)
        eta = min(0.5, np.sqrt(np.linalg.norm(g) / g0))
        shift = (trunc.f_star(u + ds) - trunc.f_star(u - ds)) * (hN / (2.0 * ds))
        d, steps = _newton_direction(K, shift, g, eta)
        linear_iterations += steps
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
        u, J = trial, J + change

    raise NumericalFailureError(
        f"Newton-CG did not reach gradient tolerance {tol:.3g} within "
        f"{opts.max_iterations} iterations on component {energy.component.id}")

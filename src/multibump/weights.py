"""Weight coefficient evaluation and admissibility diagnostics.

The diffusion coefficient a >= 0 is admissible when (a1) its zero set is a
union of closed manifolds strictly inside the domain and (a2) a is a
Muckenhoupt A2 weight with 1/a integrable to some power t > N/2.  Near a
set of codimension k, a ~ dist^alpha is A2 iff alpha < k, and 1/a is in
L^t for some t > N/2 iff alpha < 2k/N.  The weight is a closed form, so
alpha is read between the nodes: the slope of log a against log t at
t = 1e-4 ... 1e-8 along the normal of each declared zero manifold, and
inside the domain boundary (:func:`read_exponent`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .assembly import edge_conductances
from .errors import InvalidWeightError
from .expressions import compile_expression, evaluate_expression, point_variables
from .grid import Grid, dilate
from .tolerances import ToleranceConfig, real


# One item of a radial weight's ``pieces`` and of a product weight's ``factors``.
RadialPiece = NamedTuple("RadialPiece", [("r_max", float), ("expr", str)])
PowerFactor = NamedTuple("PowerFactor", [("center", tuple), ("radius", float),
                                         ("power", float)])


def _radial_profile(pieces):
    """p(r) of pieces ``(r_hi, expr)`` covering [0, r_1], (r_1, r_2], ...

    r is clamped to the last ``r_hi`` so evaluation stays defined on the
    boundary ring.  ``ValueError`` if a piece does not compile.
    """
    evaluators = [(r_hi, compile_expression(expr, ("r",))) for r_hi, expr in pieces]

    def profile(r):
        r = np.minimum(np.asarray(r, dtype=float), pieces[-1][0])
        out = np.empty_like(r)
        r_lo = -np.inf
        for r_hi, ev in evaluators:
            sel = (r > r_lo) & (r <= r_hi)
            out[sel] = ev(r[sel])
            r_lo = r_hi
        return out

    return profile


@dataclass(frozen=True)
class WeightSpec:
    """Closed-form description of the weight coefficient, in one of two forms.

    * Profile form (``expr`` None): ``scale * prod_k p_k(|x - c_k|)`` over
      ``profiles`` ``(c_k, pieces_k)`` (see :func:`_radial_profile`), with
      declared zero manifolds ``spheres`` ``(center, radius)``; radius 0 is
      a point zero.  ``constant`` is the empty product; ``radial-piecewise``
      one profile, its spheres at ``zero_radii``; ``product-of-powers`` one
      profile ``abs(r - rho)**power`` per factor, its rings the spheres.
    * Expression form (``custom-expression``): ``scale * expr`` in the
      coordinates, with an optional ``zero_expr`` giving the distance to the
      interior zero set, signed or not (enables band detection and its exponent reading;
      without it, near-exact nodal zeros are an undeclared zero set).

    ``reference`` is a human-readable closed-form description.
    """

    scale: float = 1.0
    profiles: tuple[tuple[tuple[float, ...], tuple[tuple[float, str], ...]], ...] = ()
    spheres: tuple[tuple[tuple[float, ...], float], ...] = ()
    expr: str | None = None
    zero_expr: str | None = None
    reference: str = ""

    @classmethod
    def constant(cls, value: float) -> "WeightSpec":
        value = real(value, "value")
        return cls(scale=value, reference=f"a(x) = {value}")

    @classmethod
    def radial(cls, center, pieces, zero_radii, scale: float = 1.0) -> "WeightSpec":
        pieces = tuple((real(r, "r_max"), str(e)) for r, e in pieces)
        scale = real(scale, "scale")
        ref = ", ".join(f"{e} for r <= {r}" for r, e in pieces)
        zero_radii = tuple(real(r, "zero_radii") for r in zero_radii)
        center = tuple(real(c, "center") for c in center)
        if not pieces:
            raise ValueError("pieces must not be empty")
        if not all(r_max > 0 for r_max, _ in pieces):
            raise ValueError("every r_max must be positive and finite")
        if any(lo >= hi for (lo, _), (hi, _) in zip(pieces, pieces[1:])):
            raise ValueError("r_max must increase from piece to piece")
        if any(r < 0 for r in zero_radii):
            raise ValueError("every zero_radii entry must be nonnegative")
        _radial_profile(pieces)  # compiles every piece
        return cls(profiles=((center, pieces),), scale=scale,
                   spheres=tuple((center, r) for r in zero_radii),
                   reference=f"a(r) = {scale} * ({ref})")

    @classmethod
    def power_product(cls, factors, scale: float = 1.0) -> "WeightSpec":
        factors = tuple((tuple(real(c, "center") for c in ctr), real(rho, "radius"),
                         real(alpha, "power"))
                        for ctr, rho, alpha in factors)
        ref = " * ".join(f"||x-{c}|-{rho}|^{alpha}" for c, rho, alpha in factors)
        scale = real(scale, "scale")
        if not factors:
            raise ValueError("factors must not be empty")
        if any(rho < 0 for _, rho, _ in factors):
            raise ValueError("every factor radius must be nonnegative")
        return cls(profiles=tuple((c, ((np.inf, f"abs(r - {rho!r})**{alpha!r}"),))
                                  for c, rho, alpha in factors),
                   spheres=tuple((c, rho) for c, rho, _ in factors), scale=scale,
                   reference=f"a(x) = {scale} * {ref}")

    @classmethod
    def expression(cls, expr: str, zero_expr: str | None = None,
                   scale: float = 1.0) -> "WeightSpec":
        expr, scale = str(expr), real(scale, "scale")
        return cls(expr=expr, zero_expr=zero_expr,
                   scale=scale, reference=f"a(x) = {scale} * ({expr})")

    def compile(self, ndim: int) -> None:
        """Check the spec for points in R^ndim; ``ValueError`` on a bad part.

        Every centre needs ``ndim`` coordinates, and every coordinate
        expression must compile (the constructors compile the profiles).
        """
        for center, _ in self.profiles:
            if len(center) != ndim:
                raise ValueError(f"centre {list(center)} has {len(center)} coordinates; "
                                 f"the domain has {ndim}")
        for expr in (self.expr, self.zero_expr):
            if expr is not None:
                compile_expression(expr, point_variables(ndim))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the weight at points of shape (..., N)."""
        if self.expr is not None:
            return self.scale * evaluate_expression(self.expr, points)
        out = np.full(points.shape[:-1], self.scale)
        for center, pieces in self.profiles:
            r = np.linalg.norm(points - np.asarray(center), axis=-1)
            out = out * _radial_profile(pieces)(r)
        return out

    def zero_distance(self, points: np.ndarray) -> np.ndarray | None:
        """Unsigned distance to the declared interior zero set, or None if none is declared."""
        if self.expr is not None:
            return None if self.zero_expr is None \
                else np.abs(evaluate_expression(self.zero_expr, points))
        dists = [np.abs(np.linalg.norm(points - np.asarray(c), axis=-1) - rho)
                 for c, rho in self.spheres]
        return np.min(dists, axis=0) if dists else None


@dataclass(frozen=True)
class WeightField:
    """Nodal weight values plus their edge conductances on one grid.

    Values are stored on the full lattice (zero at exterior nodes, which
    never enter any sum); ``a_max`` is the maximum over the non-exterior
    nodes, the discrete stand-in for the closure of the domain.
    ``conductances``, the :func:`~multibump.assembly.edge_conductances` table
    of a solve's K_w and of every residual, is computed when first read.  Both
    arrays are read-only, so one field can be shared between runs.
    """

    spec: WeightSpec
    values: np.ndarray = dc_field(repr=False)
    a_max: float
    grid: Grid = dc_field(repr=False)

    @cached_property
    def conductances(self) -> np.ndarray:
        table = edge_conductances(self.grid, self.values)
        table.setflags(write=False)
        return table


def evaluate_weight(spec: WeightSpec, grid: Grid) -> WeightField:
    """Evaluate the weight at all non-exterior nodes.

    Raises :class:`InvalidWeightError` on negative or non-finite values
    (values within round-off of zero are clipped to zero).
    """
    active = grid.interior_mask | grid.boundary_mask
    values = np.zeros(grid.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # rejected just below
        sampled = spec.evaluate(_node_points(grid, active))
    if not np.all(np.isfinite(sampled)):
        raise InvalidWeightError(f"weight {spec.reference} evaluates to non-finite values")
    floor = -1e-12 * max(abs(spec.scale), 1.0)
    if np.any(sampled < floor):
        raise InvalidWeightError(f"weight {spec.reference} takes negative values")
    values[active] = np.maximum(sampled, 0.0)
    values.setflags(write=False)
    a_max = float(np.max(values[active]))
    if a_max <= 0.0:
        raise InvalidWeightError(f"weight {spec.reference} vanishes identically")
    return WeightField(spec=spec, values=values, a_max=a_max, grid=grid)


def detect_zero_set(field: WeightField, grid: Grid,
                    tol: ToleranceConfig = ToleranceConfig()) -> np.ndarray:
    """Read-only mask of the interior nodes in the zero set of the weight.

    The mask combines near-exact zeros (value below ``zero_threshold *
    a_max``) with, when the weight declares its zero manifolds, all interior
    nodes within ``zero_band * h`` of a manifold.  The band guarantees that
    every stencil edge crossing a manifold has a masked endpoint, so
    components decouple exactly in the discrete operator.
    """
    mask = grid.interior_mask & (field.values < tol.zero_threshold * field.a_max)
    zd = field.spec.zero_distance(_node_points(grid, grid.interior_mask))
    if zd is not None:
        mask[grid.interior_mask] |= zd <= tol.zero_band * grid.h
    mask.setflags(write=False)
    return mask


# The distances from a zero set at which a is read, and how far the slope of
# log a on another decade may stray from the last decade's.
READ_DISTANCES = 10.0 ** -np.arange(4.0, 9.0)
SLOPE_SPREAD = 1e-2
# A distance's central-difference step, and the Newton steps that take a node a
# lattice step off a smooth zero set onto it, stopping at 1e-6 of the least reading.
_DIFF_STEP, _NEWTON_STEPS, _ON_ZERO_SET = 1e-6, 4, 1e-14
# Each failing verdict, in the order they are tried, and the hypothesis it violates.
VERDICTS = {"zero-set-touches-boundary": "a1", "zero-manifolds-cross": "a1",
            "undeclared-zero-set": "a1", "exponent-unresolved": "a2",
            "violates-a2": "a2", "violates-lt": "a2"}


def _node_points(grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Coordinates of the nodes in ``mask``, shape (count, N), in C order."""
    return np.stack([axis[i] for axis, i in zip(grid.axes, np.nonzero(mask))], axis=-1)


def read_exponent(spec: WeightSpec, points: np.ndarray, directions: np.ndarray) -> float | None:
    """The largest alpha of a ~ t^alpha read at ``points + t * directions``; None if unresolved.

    t runs over ``READ_DISTANCES``, and alpha is the slope of log a against
    log t over the last decade.  It is not resolved when a value is not
    finite and positive, or when another decade's slope strays from it by
    more than ``SLOPE_SPREAD``.
    """
    with np.errstate(all="ignore"):  # a non-finite slope is the verdict
        log_a = np.log(spec.evaluate(points + READ_DISTANCES[:, None, None] * directions))
        slopes = np.diff(log_a, axis=0) / np.diff(np.log(READ_DISTANCES))[:, None]
    if not (slopes.size and np.all(np.abs(slopes - slopes[-1]) <= SLOPE_SPREAD)):  # NaN fails
        return None
    return float(np.max(slopes[-1])) + 0.0  # a constant reads 0, not -0


def _gradient(distance, points: np.ndarray) -> np.ndarray:
    """The gradient of ``distance`` at ``points`` by central differences."""
    return np.stack([(distance(points + step) - distance(points - step)) / (2 * _DIFF_STEP)
                     for step in _DIFF_STEP * np.eye(points.shape[-1])], axis=-1)


def read_at_zero_set(spec: WeightSpec, distance, points: np.ndarray,
                     sides: tuple[float, ...] = (1.0, -1.0)) -> float | None:
    """:func:`read_exponent` at the zero set of ``distance`` near ``points``.

    Each point p moves onto distance = 0 by Newton steps q - d g/|g|^2, g
    the central-difference gradient at q.  One step lands an exact
    distance; a step is kept only where it brings |d| down, so a formula
    that is no distance converges, and a point on the kink of an unsigned
    distance stays there.  a is read from q along side * g/|g|, g taken at
    p, for each of ``sides`` (-1: towards negative ``distance``).  A point
    where g vanishes has no normal and is skipped.
    """
    with np.errstate(all="ignore"):  # a non-finite distance leaves the exponent unresolved
        grad = _gradient(distance, points)
        keep = np.any(grad != 0.0, axis=-1)
        q, normal = points[keep], grad[keep] / np.linalg.norm(grad[keep], axis=-1, keepdims=True)
        for _ in range(_NEWTON_STEPS):
            d = distance(q)
            if np.all(np.abs(d) <= _ON_ZERO_SET):
                break
            grad = _gradient(distance, q)
            step = q - (d / np.sum(grad ** 2, axis=-1))[:, None] * grad
            q = np.where((np.abs(distance(step)) < np.abs(d))[:, None], step, q)
    return read_exponent(spec, np.concatenate([q] * len(sides)),
                         np.concatenate([side * normal for side in sides]))


@dataclass(frozen=True)
class ExponentReading:
    """The exponent of a at one zero manifold of codimension k, or at the boundary (k = 1).

    a ~ dist^alpha is A2 iff alpha < k, and 1/a is in L^t for some t > N/2
    iff alpha < ``bound`` = 2k/N.  ``exponent`` is None if not resolved.
    """

    manifold: str
    codimension: int
    bound: float
    exponent: float | None


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the (a1)/(a2) checks for one weight on one domain."""

    readings: tuple[ExponentReading, ...]
    zero_count: int
    touches_domain_boundary: bool
    verdict: str

    @property
    def admissible(self) -> bool:
        return self.verdict == "admissible"

    @property
    def violated_hypothesis(self) -> str | None:
        """The hypothesis the verdict violates, "a1" or "a2"; None when admissible."""
        return VERDICTS.get(self.verdict)


def _readings(grid: Grid, spec: WeightSpec, points: np.ndarray, band: float):
    """The exponent at each declared manifold with base nodes among the zero-set
    ``points`` (a point zero: inside the domain), then at the boundary."""
    ndim, phi = grid.ndim, grid.domain.membership_function()
    spheres = dict.fromkeys(spec.spheres)
    manifolds = [(f"sphere {list(c)} r={r!r}",
                  lambda x, c=np.asarray(c), r=r: np.linalg.norm(x - c, axis=-1) - r)
                 for c, r in spheres if r > 0.0]
    if spec.zero_expr is not None:
        manifolds.append(("zero_expr", partial(evaluate_expression, spec.zero_expr)))
    readings = [ExponentReading(name, 1, 2.0 / ndim, read_at_zero_set(spec, distance, base))
                for name, distance in manifolds
                if len(base := points[np.abs(distance(points)) <= band])]
    axes = np.concatenate([np.eye(ndim), -np.eye(ndim)])  # a point is read along them
    readings += [ExponentReading(f"point {list(c)}", ndim, 2.0,
                                 read_exponent(spec, np.asarray(c) + 0.0 * axes, axes))
                 for c, r in spheres if r == 0.0 and phi(np.asarray(c)) < 0]
    boundary = read_at_zero_set(spec, phi, _node_points(grid, grid.boundary_mask), (-1.0,))
    return tuple(readings) + (ExponentReading("boundary", 1, 2.0 / ndim, boundary),)


def assess_admissibility(grid: Grid, field: WeightField, zero: np.ndarray,
                         tol: ToleranceConfig = ToleranceConfig()) -> AdmissibilityReport:
    """Decide (a1) and (a2) from the weight's declared zero manifolds.

    The exponent is read at each declared sphere and ``zero_expr`` (both
    sides, from its band nodes), at each point zero and inside the domain
    boundary (from the Dirichlet ring); see :func:`_readings`.  The verdict
    is the first of ``VERDICTS`` that holds, else ``admissible``:

    * ``zero-set-touches-boundary``: the zero set meets the Dirichlet ring,
      as one that holds every interior node always does (a1),
    * ``zero-manifolds-cross``: two declared spheres cross or touch (a1),
    * ``undeclared-zero-set``: a zero-set node is not chained to a declared
      manifold's band, as in an expression weight with nodal zeros and no
      ``zero_expr`` (a1),
    * ``exponent-unresolved``: an exponent is not resolved (a2),
    * ``violates-a2``: an exponent is at least its codimension k,
    * ``violates-lt``: an exponent is at least its bound 2k/N.
    """
    band, points = tol.zero_band * grid.h, _node_points(grid, zero)
    readings = _readings(grid, field.spec, points, band)
    zd = field.spec.zero_distance(points)
    alphas = [(r.exponent, r) for r in readings if r.exponent is not None]
    spheres = list(dict.fromkeys(field.spec.spheres))  # points included
    touches = bool(np.any(dilate(zero) & grid.boundary_mask))
    # A zero-set node chained to a declared band through zero-set nodes is explained:
    # a weight flat at its manifold falls below the zero threshold past the band.
    explained = np.zeros_like(zero)
    explained[zero] = zd is not None and zd <= band
    while not touches and np.any(grown := dilate(explained, box=True) & zero & ~explained):
        explained |= grown
    holds = [touches,
             any(abs(r1 - r2) <= np.linalg.norm(np.subtract(c1, c2)) <= r1 + r2
                 for i, (c1, r1) in enumerate(spheres) for c2, r2 in spheres[i + 1:]),
             bool(np.any(zero & ~explained)),
             len(alphas) < len(readings),
             any(alpha >= r.codimension for alpha, r in alphas),
             any(alpha >= r.bound for alpha, r in alphas)]
    verdict = next((v for v, held in zip(VERDICTS, holds) if held), "admissible")
    return AdmissibilityReport(readings=readings, zero_count=len(points),
                               touches_domain_boundary=touches, verdict=verdict)

"""Weight coefficient evaluation and admissibility diagnostics.

The diffusion coefficient a >= 0 is admissible when (a1) its zero set is a
union of closed manifolds strictly inside the domain and (a2) a is a
Muckenhoupt A2 weight with 1/a integrable to some power t > N/2.  Neither
condition is decidable exactly from nodal samples, so this module provides
estimators whose *trend under grid refinement* is the observable:

* the A2 constant is bounded below by a maximum of ball averages
  avg(a) * avg(1/a) over balls centered at every interior node with dyadic
  radii; for inadmissible weights the estimate grows as h shrinks,
* the L^t norms of 1/a are nodal quadratures; divergent exponents show as
  norm growth between two refinement levels.

Nodes flagged as zero-set contribute to reciprocal integrals through the
smallest weight value resolvable in their neighborhood, which keeps all
arithmetic finite while preserving the growth trend of a genuinely
divergent integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .assembly import edge_conductances
from .errors import InvalidWeightError
from .expressions import compile_expression, evaluate_expression, point_variables
from .grid import Grid, build_grid, dilate
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
      interior zero set (enables band detection; without it only near-exact
      zeros are detected).

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
        """Distance to the declared interior zero set, or None if none is declared."""
        if self.expr is not None:
            return None if self.zero_expr is None \
                else evaluate_expression(self.zero_expr, points)
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
        sampled = spec.evaluate(grid.points()[active])
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
    zd = field.spec.zero_distance(grid.points())
    if zd is not None:
        mask |= grid.interior_mask & (zd <= tol.zero_band * grid.h)
    mask.setflags(write=False)
    return mask


def resolvable_floor(field: WeightField, grid: Grid, zero: np.ndarray,
                     tol: ToleranceConfig = ToleranceConfig()) -> np.ndarray:
    """Weight values with zero-set nodes lifted to their resolvable scale.

    A node in the zero-set mask contributes to reciprocal integrals through
    the smallest weight value among unmasked interior nodes within two
    lattice steps.  This mimics cutting the integral off at the scale the
    grid can resolve: genuinely divergent integrals keep growing under
    refinement, convergent ones stabilize.  Nodes with a fully masked
    neighborhood fall back to ``zero_threshold * a_max``.
    """
    unmasked = grid.interior_mask & ~zero
    local_min = np.pad(np.where(unmasked, field.values, np.inf), 2, constant_values=np.inf)
    for axis in range(grid.ndim):  # the 5^N box minimum, one axis at a time
        width = local_min.shape[axis] - 4
        local_min = reduce(np.minimum, (local_min[(slice(None),) * axis + (slice(k, k + width),)]
                                        for k in range(5)))
    floor = np.where(np.isfinite(local_min), local_min, tol.zero_threshold * field.a_max)
    return np.where(zero, np.maximum(field.values, floor), field.values)


def dyadic_radii(grid: Grid) -> tuple[float, ...]:
    """Radii 2h, 4h, 8h, ... up to half the domain diameter."""
    r_cap = grid.domain.diameter() / 2.0
    radii = []
    r = 2.0 * grid.h
    while r <= r_cap:
        radii.append(r)
        r *= 2.0
    return tuple(radii)


def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n >= 1, a fast FFT length."""
    while 30 ** n.bit_length() % n:  # 5-smooth n divides 30^k for every k >= log2 n
        n += 1
    return n


def estimate_a2_constant(a: np.ndarray, grid: Grid,
                         radii: tuple[float, ...] | None = None) -> float:
    """Sampled lower bound of the Muckenhoupt A_2 constant.

    Maximum over balls contained in the domain (centered at every interior
    node, radii ``dyadic_radii(grid)`` unless given) of avg(a) * avg(1/a),
    both averages over ``a``, the floored nodal values.  The arithmetic-harmonic
    mean inequality makes the result >= 1 for every weight.
    """
    if radii is None:
        radii = dyadic_radii(grid)
    member = grid.interior_mask
    a_in = np.where(member, a, 0.0)
    rec_in = np.where(member, 1.0 / np.where(member, a, 1.0), 0.0)
    # Circular sums over a period of at least n + 1 per axis.  A ball that
    # leaves the lattice holds the node one step past a face on its axis line,
    # which the extra zero layer counts as not interior; a contained ball lies
    # inside the lattice, so its circular sums are its plain ones.
    fshape = [_fast_len(n + 1) for n in grid.shape]
    axes, lattice = range(grid.ndim), tuple(slice(n) for n in grid.shape)
    spectra = [np.fft.rfftn(x, fshape, axes) for x in (member.astype(float), a_in, rec_in)]
    # Squared lattice distance of each node from the origin, around the period.
    dist2 = sum(np.meshgrid(*(np.minimum(np.arange(m), m - np.arange(m)) ** 2 for m in fshape),
                            indexing="ij", sparse=True))

    best = 1.0
    for radius in radii:
        if 2 * int(radius / grid.h) + 1 > grid.n:  # wider than the lattice
            continue
        kernel = (dist2 <= (radius / grid.h) ** 2).astype(float)
        spectrum = np.fft.rfftn(kernel, axes=axes)
        sums = (np.fft.irfftn(s * spectrum, fshape, axes)[lattice] for s in spectra)
        count = float(kernel.sum())
        # Containment: every lattice node of the ball is an interior node,
        # mirroring the supremum over balls inside the domain.
        contained = next(sums) > count - 0.5
        if not contained.any():
            continue
        sum_a, sum_rec = sums
        product = np.where(contained, (sum_a / count) * (sum_rec / count), -np.inf)
        best = max(best, float(np.max(product)))
    return best


def estimate_lt_norm(a: np.ndarray, grid: Grid, t: float) -> float:
    """Nodal quadrature of the L^t norm of 1/a (floored values) over the domain (t >= 1)."""
    total = float(np.sum(a[grid.interior_mask] ** (-t))) * grid.cell_volume
    return total ** (1.0 / t)


@dataclass(frozen=True)
class LtRow:
    """L^t norm of 1/a at two refinement levels and its growth diagnosis."""

    t: float
    norm_coarse: float
    norm_fine: float
    growth: float
    growing: bool
    stable: bool


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the (a1)/(a2) checks for one weight on one domain."""

    n_coarse: int
    n_fine: int
    a2_coarse: float
    a2_estimate: float
    a2_growth: float
    a2_divergent: bool
    lt_rows: tuple[LtRow, ...]
    best_t: float | None
    n_over_2: float
    zero_count: int
    touches_domain_boundary: bool
    verdict: str

    @property
    def admissible(self) -> bool:
        return self.verdict == "admissible"


def assess_admissibility(grid: Grid, field: WeightField, zero: np.ndarray,
                         tol: ToleranceConfig = ToleranceConfig()) -> AdmissibilityReport:
    """Two-level admissibility assessment of a weight.

    The caller's grid, weight field and zero-set mask (detected at ``tol``)
    are the fine level; the coarse level, with roughly doubled spacing, is
    built here, its zero set detected at ``tol`` too.
    Divergence of the A2 constant or of an L^t norm is read off the growth
    between the levels.  The verdict is

    * ``zero-set-touches-boundary`` when the fine zero set meets the
      Dirichlet ring, as one that holds every interior node always does
      (condition (a1) fails; nothing else decides it),
    * ``violates-a2`` when the A2 estimate grows beyond tolerance,
    * ``violates-lt`` when no scanned exponent above N/2 has a stable norm,
    * ``admissible`` otherwise.
    """
    n_coarse = max((grid.n + 1) // 2, 5)
    grid_c = build_grid(grid.domain, n_coarse)
    field_c = evaluate_weight(field.spec, grid_c)
    zero_c = detect_zero_set(field_c, grid_c, tol)
    floor_c = resolvable_floor(field_c, grid_c, zero_c, tol)
    floor_f = resolvable_floor(field, grid, zero, tol)

    # Both levels sample the same physical radii (dyadic from the coarse
    # spacing) so the growth ratio compares like-for-like quadratures.
    radii = dyadic_radii(grid_c)
    a2_c = estimate_a2_constant(floor_c, grid_c, radii)
    a2_f = estimate_a2_constant(floor_f, grid, radii)
    a2_growth = a2_f / a2_c
    a2_divergent = bool(a2_growth > tol.a2_growth_tol or not np.isfinite(a2_f))

    rows = []
    for t in tol.t_scan:
        nc = estimate_lt_norm(floor_c, grid_c, t)
        nf = estimate_lt_norm(floor_f, grid, t)
        growth = nf / nc
        rows.append(LtRow(t=t, norm_coarse=nc, norm_fine=nf, growth=growth,
                          growing=bool(growth > tol.lt_growing_tol),
                          stable=bool(np.isfinite(nf) and growth <= tol.lt_stable_tol)))

    stable_ts = [row.t for row in rows if row.stable]
    best_t = max(stable_ts) if stable_ts else None
    n_over_2 = grid.ndim / 2.0

    touches = bool(np.any(dilate(zero) & grid.boundary_mask))
    if touches:
        verdict = "zero-set-touches-boundary"
    elif a2_divergent:
        verdict = "violates-a2"
    elif best_t is None or best_t <= n_over_2:
        verdict = "violates-lt"
    else:
        verdict = "admissible"

    return AdmissibilityReport(
        n_coarse=n_coarse, n_fine=grid.n,
        a2_coarse=a2_c, a2_estimate=a2_f, a2_growth=a2_growth,
        a2_divergent=a2_divergent, lt_rows=tuple(rows), best_t=best_t,
        n_over_2=n_over_2, zero_count=int(np.count_nonzero(zero)),
        touches_domain_boundary=touches,
        verdict=verdict)


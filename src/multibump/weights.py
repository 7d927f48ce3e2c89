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

import numpy as np
from scipy import ndimage, signal

from .assembly import edge_conductances
from .errors import InvalidWeightError
from .expressions import compile_expression, point_variables
from .grid import Grid, build_grid


@dataclass(frozen=True)
class WeightSpec:
    """Closed-form description of the weight coefficient.

    Kinds:

    * ``constant``: ``value`` everywhere,
    * ``radial-piecewise``: profile in r = |x - center| given by pieces
      ``(r_hi, expr)`` covering [0, r_1], (r_1, r_2], ...; the radial
      coordinate is clamped to the profile's range so evaluation stays
      defined on the boundary ring,
    * ``product-of-powers``: product over factors ``(center, ring_radius,
      power)`` of ``| |x - c| - rho | ** power``; ring_radius 0 gives a
      point zero,
    * ``custom-expression``: arbitrary expression in the coordinates, with
      an optional ``zero_expr`` giving the distance to the interior zero
      set (enables band detection; without it only near-exact zeros are
      detected).

    ``scale`` multiplies every kind.  ``reference`` is a human-readable
    closed-form description, auto-built when omitted.
    """

    kind: str
    scale: float = 1.0
    value: float | None = None
    center: tuple[float, ...] | None = None
    pieces: tuple[tuple[float, str], ...] = ()
    zero_radii: tuple[float, ...] | None = None
    factors: tuple[tuple[tuple[float, ...], float, float], ...] = ()
    expr: str | None = None
    zero_expr: str | None = None
    reference: str = ""

    @classmethod
    def constant(cls, value: float) -> "WeightSpec":
        return cls(kind="constant", value=float(value),
                   reference=f"a(x) = {value}")

    @classmethod
    def radial(cls, center, pieces, zero_radii=None, scale: float = 1.0) -> "WeightSpec":
        pieces = tuple((float(r), str(e)) for r, e in pieces)
        ref = ", ".join(f"{e} for r <= {r}" for r, e in pieces)
        return cls(kind="radial-piecewise", center=tuple(float(c) for c in center),
                   pieces=pieces, scale=float(scale),
                   zero_radii=None if zero_radii is None else tuple(float(r) for r in zero_radii),
                   reference=f"a(r) = {scale} * ({ref})")

    @classmethod
    def power_product(cls, factors, scale: float = 1.0) -> "WeightSpec":
        factors = tuple((tuple(float(c) for c in ctr), float(rho), float(alpha))
                        for ctr, rho, alpha in factors)
        ref = " * ".join(f"||x-{c}|-{rho}|^{alpha}" for c, rho, alpha in factors)
        return cls(kind="product-of-powers", factors=factors, scale=float(scale),
                   reference=f"a(x) = {scale} * {ref}")

    @classmethod
    def expression(cls, expr: str, zero_expr: str | None = None,
                   scale: float = 1.0) -> "WeightSpec":
        return cls(kind="custom-expression", expr=str(expr), zero_expr=zero_expr,
                   scale=float(scale), reference=f"a(x) = {scale} * ({expr})")

    def _radial_profile(self):
        evaluators = [(r_hi, compile_expression(expr, ("r",)))
                      for r_hi, expr in self.pieces]
        r_last = evaluators[-1][0]

        def profile(r):
            r = np.minimum(np.asarray(r, dtype=float), r_last)
            out = np.empty_like(r)
            r_lo = 0.0
            for r_hi, ev in evaluators:
                sel = (r >= r_lo - 1e-300) & (r <= r_hi) if r_lo == 0.0 \
                    else (r > r_lo) & (r <= r_hi)
                if np.any(sel):
                    out[sel] = ev(r[sel])
                r_lo = r_hi
            return out

        return profile, r_last

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the weight at points of shape (..., N)."""
        if self.kind == "constant":
            return np.full(points.shape[:-1], self.value * self.scale)
        if self.kind == "radial-piecewise":
            profile, _ = self._radial_profile()
            r = np.linalg.norm(points - np.asarray(self.center), axis=-1)
            return self.scale * profile(r)
        if self.kind == "product-of-powers":
            out = np.full(points.shape[:-1], self.scale)
            for ctr, rho, alpha in self.factors:
                d = np.abs(np.linalg.norm(points - np.asarray(ctr), axis=-1) - rho)
                out = out * d ** alpha
            return out
        if self.kind == "custom-expression":
            ev = compile_expression(self.expr, point_variables(points.shape[-1]))
            coords = tuple(points[..., d] for d in range(points.shape[-1]))
            return self.scale * np.asarray(ev(*coords), dtype=float)
        raise ValueError(f"unknown weight kind {self.kind!r}")

    def zero_distance(self, points: np.ndarray) -> np.ndarray | None:
        """Distance to the declared interior zero set, or None if unknown."""
        if self.kind == "constant":
            return None
        if self.kind == "radial-piecewise":
            radii = self.zero_radii
            if radii is None:
                radii = self._detect_zero_radii()
            if not radii:
                return None
            r = np.linalg.norm(points - np.asarray(self.center), axis=-1)
            return np.min(np.abs(r[..., None] - np.asarray(radii)), axis=-1)
        if self.kind == "product-of-powers":
            dists = [np.abs(np.linalg.norm(points - np.asarray(ctr), axis=-1) - rho)
                     for ctr, rho, _ in self.factors]
            return np.min(np.stack(dists), axis=0)
        if self.kind == "custom-expression":
            if self.zero_expr is None:
                return None
            ev = compile_expression(self.zero_expr, point_variables(points.shape[-1]))
            coords = tuple(points[..., d] for d in range(points.shape[-1]))
            return np.asarray(ev(*coords), dtype=float)
        raise ValueError(f"unknown weight kind {self.kind!r}")

    def _detect_zero_radii(self, samples: int = 4096) -> tuple[float, ...]:
        # Roots of the radial profile strictly inside (0, r_last); a zero at
        # the profile's outer endpoint belongs to the domain boundary and is
        # not an interior manifold.
        profile, r_last = self._radial_profile()
        r = np.linspace(0.0, r_last, samples + 1)
        v = profile(r)
        tiny = v <= 1e-9 * np.max(v)
        tiny[-2:] = False
        radii = []
        idx = np.flatnonzero(tiny)
        if idx.size:
            breaks = np.flatnonzero(np.diff(idx) > 1)
            for cluster in np.split(idx, breaks + 1):
                sub = cluster[np.argmin(v[cluster])]
                radii.append(float(r[sub]))
        return tuple(radii)


@dataclass(frozen=True)
class WeightField:
    """Nodal weight values plus derived edge conductances on one grid.

    Values are stored on the full lattice (zero at exterior nodes, which
    never enter any sum); ``a_max`` is the maximum over the non-exterior
    nodes, the discrete stand-in for the closure of the domain.
    """

    spec: WeightSpec
    values: np.ndarray = dc_field(repr=False)
    a_max: float
    conductances: list[np.ndarray] = dc_field(repr=False)

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class ZeroSet:
    """Nodes treated as part of the zero set of the weight.

    The mask combines near-exact zeros (value below ``eps_zero * a_max``)
    with, when the weight declares its zero manifolds, all interior nodes
    within ``band * h`` of a manifold.  The band guarantees that every
    stencil edge crossing a manifold has a masked endpoint, so components
    decouple exactly in the discrete operator.
    """

    mask: np.ndarray = dc_field(repr=False)
    eps_zero: float
    band: float
    touches_domain_boundary: bool

    def __post_init__(self):
        self.mask.setflags(write=False)

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.mask))


def evaluate_weight(spec: WeightSpec, grid: Grid) -> WeightField:
    """Evaluate the weight at all non-exterior nodes.

    Raises :class:`InvalidWeightError` on negative or non-finite values
    (values within round-off of zero are clipped to zero).
    """
    active = grid.interior_mask | grid.boundary_mask
    values = np.zeros(grid.shape)
    sampled = spec.evaluate(grid.points()[active])
    if not np.all(np.isfinite(sampled)):
        raise InvalidWeightError(f"weight {spec.reference} evaluates to non-finite values")
    floor = -1e-12 * max(abs(spec.scale), 1.0)
    if np.any(sampled < floor):
        raise InvalidWeightError(f"weight {spec.reference} takes negative values")
    values[active] = np.maximum(sampled, 0.0)
    a_max = float(np.max(values[active]))
    if a_max <= 0.0:
        raise InvalidWeightError(f"weight {spec.reference} vanishes identically")
    return WeightField(spec=spec, values=values, a_max=a_max,
                       conductances=edge_conductances(values))


def detect_zero_set(field: WeightField, grid: Grid, eps_zero: float = 1e-6,
                    band: float = 0.75) -> ZeroSet:
    """Mask interior nodes belonging to the zero set of the weight."""
    if not 0.0 < eps_zero < 1.0:
        raise ValueError(f"eps_zero must lie in (0, 1), got {eps_zero}")
    member = grid.interior_mask
    mask = member & (field.values < eps_zero * field.a_max)
    zd = field.spec.zero_distance(grid.points())
    if zd is not None:
        mask |= member & (zd <= band * grid.h)
    grown = ndimage.binary_dilation(mask, structure=grid.stencil_structure())
    touches = bool(np.any(grown & grid.boundary_mask))
    return ZeroSet(mask=mask, eps_zero=eps_zero, band=band,
                   touches_domain_boundary=touches)


def resolvable_floor(field: WeightField, grid: Grid, zero: ZeroSet) -> np.ndarray:
    """Weight values with zero-set nodes lifted to their resolvable scale.

    A node in the zero-set mask contributes to reciprocal integrals through
    the smallest weight value among unmasked interior nodes within two
    lattice steps.  This mimics cutting the integral off at the scale the
    grid can resolve: genuinely divergent integrals keep growing under
    refinement, convergent ones stabilize.  Nodes with a fully masked
    neighborhood fall back to ``eps_zero * a_max``.
    """
    unmasked = grid.interior_mask & ~zero.mask
    guarded = np.where(unmasked, field.values, np.inf)
    local_min = ndimage.minimum_filter(guarded, size=2 * 2 + 1,
                                       mode="constant", cval=np.inf)
    floor = np.where(np.isfinite(local_min), local_min, zero.eps_zero * field.a_max)
    return np.where(zero.mask, np.maximum(field.values, floor), field.values)


@dataclass(frozen=True)
class BallFamily:
    """Sampling plan for the A2 estimate: dyadic radii, all interior centers."""

    radii: tuple[float, ...] | None = None

    def resolve(self, grid: Grid) -> tuple[float, ...]:
        if self.radii is not None:
            return self.radii
        r_cap = grid.domain.diameter() / 2.0
        radii = []
        r = 2.0 * grid.h
        while r <= r_cap:
            radii.append(r)
            r *= 2.0
        return tuple(radii)


def _ball_kernel(radius: float, h: float, ndim: int) -> np.ndarray:
    m = int(np.floor(radius / h))
    offsets = np.arange(-m, m + 1)
    mesh = np.meshgrid(*([offsets] * ndim), indexing="ij")
    dist2 = sum(o.astype(float) ** 2 for o in mesh)
    return (dist2 <= (radius / h) ** 2).astype(float)


def estimate_a2_constant(field: WeightField, grid: Grid,
                         family: BallFamily | None = None,
                         zero: ZeroSet | None = None, p: float = 2.0) -> float:
    """Sampled lower bound of the Muckenhoupt A_p constant (p = 2 default).

    Maximum over balls contained in the domain (centered at every interior
    node, dyadic radii) of avg(a) * avg(a^(-1/(p-1)))^(p-1), both averages
    over the floored nodal values.  The arithmetic-harmonic mean inequality
    makes the result >= 1 for every weight.
    """
    if family is None:
        family = BallFamily()
    if zero is None:
        zero = detect_zero_set(field, grid)
    member = grid.interior_mask
    a = resolvable_floor(field, grid, zero)
    a_in = np.where(member, a, 0.0)
    rec_in = np.where(member, np.where(member, a, 1.0) ** (-1.0 / (p - 1.0)), 0.0)
    member_f = member.astype(float)

    best = 1.0
    for radius in family.resolve(grid):
        if radius < 2.0 * grid.h:
            continue
        kernel = _ball_kernel(radius, grid.h, grid.ndim)
        count = np.rint(signal.fftconvolve(member_f, kernel, mode="same"))
        sum_a = signal.fftconvolve(a_in, kernel, mode="same")
        sum_rec = signal.fftconvolve(rec_in, kernel, mode="same")
        with np.errstate(invalid="ignore", divide="ignore"):
            product = (sum_a / count) * (sum_rec / count) ** (p - 1.0)
        # Containment: every lattice node of the ball is an interior node,
        # mirroring the supremum over balls inside the domain.
        contained = member & (count == float(kernel.sum()))
        if not contained.any():
            continue
        product = np.where(contained, product, -np.inf)
        best = max(best, float(np.max(product)))
    return best


def estimate_lt_norm(field: WeightField, grid: Grid, t: float,
                     zero: ZeroSet | None = None) -> float:
    """Nodal quadrature of the L^t norm of 1/a over the domain."""
    if t < 1.0:
        raise ValueError(f"t must be >= 1, got {t}")
    if zero is None:
        zero = detect_zero_set(field, grid)
    member = grid.interior_mask
    a = resolvable_floor(field, grid, zero)[member]
    total = float(np.sum(a ** (-t))) * grid.cell_volume
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


@dataclass(frozen=True)
class AdmissibilityOptions:
    t_scan: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0, 4.0)
    a2_growth_tol: float = 1.10
    lt_stable_tol: float = 1.15
    lt_growing_tol: float = 1.05


def assess_admissibility(grid: Grid, field: WeightField, zero: ZeroSet,
                         options: AdmissibilityOptions | None = None) -> AdmissibilityReport:
    """Two-level admissibility assessment of a weight.

    The caller's grid, weight field and zero set are the fine level; the
    coarse level, with roughly doubled spacing, is built here, its zero set
    detected with the ``eps_zero`` and ``band`` stored on ``zero``.
    Divergence of the A2 constant or of an L^t norm is read off the growth
    between the levels.  The verdict is

    * ``zero-set-touches-boundary`` when the detected zero set meets the
      Dirichlet ring (condition (a1) fails),
    * ``violates-a2`` when the A2 estimate grows beyond tolerance,
    * ``violates-lt`` when no scanned exponent above N/2 has a stable norm,
    * ``admissible`` otherwise.
    """
    opts = options or AdmissibilityOptions()
    n_coarse = max((grid.n + 1) // 2, 5)
    grid_c = build_grid(grid.domain, n_coarse)
    field_c = evaluate_weight(field.spec, grid_c)
    zero_c = detect_zero_set(field_c, grid_c, eps_zero=zero.eps_zero, band=zero.band)

    # Both levels sample the same physical radii (dyadic from the coarse
    # spacing) so the growth ratio compares like-for-like quadratures.
    family = BallFamily(radii=BallFamily().resolve(grid_c))
    a2_c = estimate_a2_constant(field_c, grid_c, family=family, zero=zero_c)
    a2_f = estimate_a2_constant(field, grid, family=family, zero=zero)
    a2_growth = a2_f / a2_c
    a2_divergent = bool(a2_growth > opts.a2_growth_tol or not np.isfinite(a2_f))

    rows = []
    for t in opts.t_scan:
        nc = estimate_lt_norm(field_c, grid_c, t, zero=zero_c)
        nf = estimate_lt_norm(field, grid, t, zero=zero)
        growth = nf / nc
        rows.append(LtRow(t=t, norm_coarse=nc, norm_fine=nf, growth=growth,
                          growing=bool(growth > opts.lt_growing_tol),
                          stable=bool(np.isfinite(nf) and growth <= opts.lt_stable_tol)))

    stable_ts = [row.t for row in rows if row.stable]
    best_t = max(stable_ts) if stable_ts else None
    n_over_2 = grid.ndim / 2.0

    if zero.touches_domain_boundary:
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
        n_over_2=n_over_2, zero_count=zero.count,
        touches_domain_boundary=zero.touches_domain_boundary,
        verdict=verdict)


def cbrt_ring_weight() -> WeightSpec:
    """Radial weight on the ball of radius 2 vanishing on the circle r = 1.

    Cube-root zero on the interior circle, square-root zero on the outer
    boundary: an admissible weight splitting the ball into two components
    (disk and annulus).
    """
    return WeightSpec.radial(
        center=(0.0, 0.0),
        pieces=((1.0, "cbrt(1 - r**2)"), (2.0, "sqrt((1 - r)*(r - 2))")),
        zero_radii=(1.0,))

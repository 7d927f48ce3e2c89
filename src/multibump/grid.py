"""Uniform structured grids over implicitly defined bounded domains.

The solver discretizes a bounded domain in R^N (N >= 2) on a uniform tensor
lattice covering its bounding box.  Each domain is a formula phi (negative
inside) that :mod:`multibump.expressions` evaluates.  The grid stores two
node masks:

* interior -- node center strictly inside the domain; these carry all
  unknowns,
* boundary -- node center on or outside the boundary but adjacent (in
  the 2N-point stencil) to an interior node; pinned to 0 in every solve.

Every other node is excluded from all linear algebra.

Membership uses a strict inequality at node centers, so lattice nodes that
fall exactly on the boundary (the generic case for axis-aligned boxes)
become Dirichlet nodes with cut fraction exactly 1.  On a box that gives the
classical Dirichlet stencil with (n-2)^N unknowns and its closed-form
eigenvalues exactly.  On a curved domain the energy and the verification pin
the zero on the first lattice ring outside (first order); the spectral
operator's cut conductances 1/theta put it on the true boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .errors import ConfigError, ResolutionTooCoarseError
from .expressions import (compile_expression, distance_formula, evaluate_expression,
                          point_variables)
from .tolerances import real

@dataclass(frozen=True)
class DomainSpec:
    """Implicit description of a bounded domain.

    ``kind`` is one of ``"box"``, ``"ball"``, ``"custom-implicit"``.  Every
    kind is its ``expression``, a signed-distance-like formula in the
    coordinates (negative inside), over a bounding box.  A custom domain
    gives both; a box writes its max-norm distance and a ball its Euclidean
    one, every number as ``repr`` so the formula is exact.  The bounding box
    must be a hypercube so that a single lattice spacing serves every axis.
    """

    kind: str
    dimension: int
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    expression: str

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        if len(self.lo) != self.dimension or len(self.hi) != self.dimension:
            raise ValueError("bounding box arity does not match dimension")
        widths = np.asarray(self.hi, float) - np.asarray(self.lo, float)
        if np.any(widths <= 0):
            raise ValueError("bounding box must have positive extent on every axis")
        if np.max(widths) - np.min(widths) > 1e-9 * np.max(widths):
            raise ValueError("bounding box must be a hypercube (equal axis extents)")
        compile_expression(self.expression, point_variables(self.dimension))

    @classmethod
    def box(cls, lo, hi) -> "DomainSpec":
        lo = tuple(real(v, "lo") for v in lo)
        hi = tuple(real(v, "hi") for v in hi)
        names = point_variables(len(lo))
        # Max is exact, and of equal sides it keeps the last: every lo side
        # before every hi side gives a zero at a corner the sign it had in numpy.
        # A box without axes gets "", which the dimension check refuses first.
        sides = ([f"{a!r} - {x}" for a, x in zip(lo, names)]
                 + [f"{x} - {b!r}" for x, b in zip(names, hi)]) or [""]
        return cls(kind="box", dimension=len(lo), lo=lo, hi=hi,
                   expression=reduce(lambda left, right: f"maximum({left}, {right})", sides))

    @classmethod
    def ball(cls, center, radius: float) -> "DomainSpec":
        center = tuple(real(v, "center") for v in center)
        r = real(radius, "radius")
        lo = tuple(c - r for c in center)
        hi = tuple(c + r for c in center)
        return cls(kind="ball", dimension=len(center), lo=lo, hi=hi,
                   expression=f"{distance_formula(center)} - {r!r}")

    @classmethod
    def implicit(cls, expression: str, lo, hi) -> "DomainSpec":
        lo = tuple(real(v, "lo") for v in lo)
        hi = tuple(real(v, "hi") for v in hi)
        return cls(kind="custom-implicit", dimension=len(lo), lo=lo, hi=hi,
                   expression=expression)

    def membership_function(self):
        """Return phi(points) < 0 inside; points has shape (..., N)."""
        return partial(evaluate_expression, self.expression)


@dataclass(frozen=True)
class Grid:
    """Classified uniform lattice over the bounding box of a domain.

    ``interior_mask`` and ``boundary_mask`` are disjoint ``bool`` arrays of
    shape ``(n,) * N``.  Node coordinates along axis d are ``axes[d]``; the
    full lattice is their tensor product in C order (axis 0 slowest).
    Immutable after construction; safe for concurrent reads.
    """

    domain: DomainSpec
    n: int
    h: float
    interior_mask: np.ndarray = field(repr=False)
    boundary_mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.interior_mask.setflags(write=False)
        self.boundary_mask.setflags(write=False)

    @property
    def ndim(self) -> int:
        return self.domain.dimension

    @property
    def shape(self) -> tuple[int, ...]:
        return self.interior_mask.shape

    @property
    def axes(self) -> list[np.ndarray]:
        return _lattice_axes(self.domain, self.n)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.ndim

    def points(self) -> np.ndarray:
        """All node coordinates, shape (n, ..., n, N)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)


def dilate(mask: np.ndarray) -> np.ndarray:
    """``mask`` grown to the 2N face neighbours; nodes beyond the lattice count as False."""
    grown = mask.copy()
    for axis in range(mask.ndim):
        head, tail = ((slice(None),) * axis + (s,) for s in (slice(1, None), slice(None, -1)))
        grown[head] |= mask[tail]
        grown[tail] |= mask[head]
    return grown


def _lattice_axes(domain: DomainSpec, n: int) -> list[np.ndarray]:
    """Node coordinates along each axis, from ``lo[d]`` to exactly ``hi[d]``.

    Each axis gets its own step: taking axis 0's ``h`` everywhere can leave
    the last node of another axis one ulp below ``hi[d]``, which would class
    that far face of a box as interior.
    """
    return [np.linspace(lo, hi, n) for lo, hi in zip(domain.lo, domain.hi)]


def build_grid(domain: DomainSpec, n: int) -> Grid:
    """Build and classify the uniform grid with ``n`` nodes per axis.

    Raises :class:`ResolutionTooCoarseError` when the resolution leaves no
    interior node, and :class:`ConfigError` when a custom domain's interior
    reaches a face of its bounding box, which leaves no Dirichlet ring there.
    """
    if n < 2:
        raise ResolutionTooCoarseError(f"need at least 2 nodes per axis, got {n}")
    h = (domain.hi[0] - domain.lo[0]) / (n - 1)

    mesh = np.meshgrid(*_lattice_axes(domain, n), indexing="ij")
    points = np.stack(mesh, axis=-1)
    member = domain.membership_function()(points) < 0.0

    if not member.any():
        raise ResolutionTooCoarseError(
            f"no interior node at resolution n={n}; refine the grid")
    # A box or ball encloses itself by construction, and a ball's tangent node
    # can read phi < 0 by round-off alone: only a custom box is checked.
    if domain.kind == "custom-implicit" and any(
            np.take(member, [0, -1], axis=d).any() for d in range(domain.dimension)):
        raise ConfigError("invalid domain: interior nodes lie on a face of the "
                          "bounding box, which must enclose the domain")

    return Grid(domain=domain, n=n, h=h, interior_mask=member,
                boundary_mask=dilate(member) & ~member)

"""Config-driven pipeline: hypotheses, decomposition, bumps, enumeration.

One runner takes every run through its stages in order: setup (grid,
weight, zero set), admissibility, decomposition, the nonlinearity (f1),
spectral margins (f2), and for a solve bump minimization, subset
enumeration and verification.  The first stage that fails stops the run;
one table maps its exception to the report's status and, for a failed
hypothesis, the violated condition.  Partial reports are still written.

The setup of the last configuration is kept for the next call: a solve
and the re-verification of each file it wrote share one grid, weight field
and zero set.  The memo holds one entry, keyed on the exact (``repr``)
domain, weight, resolution, zero threshold and zero band.  A run's first
solution file puts the text of its files (``_RunText``, fixed-width bytes)
in the caller's context until the next run, so each coordinate and value
is formatted once per run; a file read back whose SHA-256 is that of a file
the run wrote is not parsed, and any other file goes to ``np.loadtxt``.

All outputs are deterministic: reruns with an identical configuration
produce byte-identical report and solution files.  Timings are kept in
memory and logged (one line per stage), never serialized.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field as dc_field
from functools import lru_cache, partial, reduce
from pathlib import Path

import numpy as np

from .composition import MultiBumpSolution, enumerate_all
from .energy import (BumpSolution, NonlinearitySpec, assemble_energy,
                     minimize_energy, truncate_nonlinearity)
from .errors import (ConfigError, EmptyDecompositionError,
                     EnumerationSizeError, HypothesisViolationError,
                     InvalidNonlinearityError, InvalidWeightError,
                     NumericalFailureError, ResolutionTooCoarseError,
                     SeedFailureError)
from .grid import DomainSpec, Grid, build_grid
from .spectral import (F2Entry, check_hypothesis_f2, dirichlet_lambda1,
                       dirichlet_laplacian)
from .tolerances import ToleranceConfig, is_count
from .topology import decompose_components
from .verify import VerificationReport, check_conclusions
from .weights import (AdmissibilityReport, PowerFactor, RadialPiece, WeightSpec,
                      assess_admissibility, detect_zero_set, evaluate_weight)

log = logging.getLogger("multibump")


@dataclass(frozen=True)
class EnumerationConfig:
    max_chi: int = 20

    def __post_init__(self):
        if not is_count(self.max_chi, 1):
            raise ConfigError("invalid enumeration: max_chi must be an integer >= 1, "
                              f"got {self.max_chi!r}")


@dataclass(frozen=True)
class RunConfig:
    """One run's configuration, checked whenever it is built.

    ``parse_config`` and the CLI overrides (``dataclasses.replace``) pass the
    same checks.  ``raw`` is the parsed tree that :meth:`digest` hashes.
    """

    domain: DomainSpec
    weight: WeightSpec
    nonlinearity: NonlinearitySpec
    resolution: int
    output_dir: str = "out"
    tolerances: ToleranceConfig = ToleranceConfig()
    enumeration: EnumerationConfig = EnumerationConfig()
    export_vtk: bool = False
    raw: dict = dc_field(default_factory=dict, repr=False)

    def __post_init__(self):
        for name, valid, rule in (
                ("resolution", is_count(self.resolution, 8), "an integer >= 8"),
                ("output_dir", isinstance(self.output_dir, str) and self.output_dir != "",
                 "a non-empty string"),
                ("export_vtk", isinstance(self.export_vtk, bool), "a boolean")):
            if not valid:
                raise ConfigError(f"invalid {name}: must be {rule}, "
                                  f"got {getattr(self, name)!r}")
        _section("weight", self.weight.compile, self.domain.dimension)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:16]


# Section -> kind -> constructor; a section without kinds has one
# constructor.  A section's keys other than ``kind`` are its constructor's
# keyword arguments, so the constructor's signature is the one list of a
# kind's keys and their defaults.
_SECTIONS = {
    "domain": {"box": DomainSpec.box, "ball": DomainSpec.ball,
               "custom-implicit": DomainSpec.implicit},
    "weight": {"constant": WeightSpec.constant, "radial-piecewise": WeightSpec.radial,
               "product-of-powers": WeightSpec.power_product,
               "custom-expression": WeightSpec.expression},
    "nonlinearity": {"logistic-default": NonlinearitySpec.logistic,
                     "custom": NonlinearitySpec.custom},
    "tolerances": ToleranceConfig,
    "enumeration": EnumerationConfig,
}
_DEFAULT_KIND = {"nonlinearity": "logistic-default"}
# List-valued keys whose items are mappings of an item type's fields.
_ITEMS = {"pieces": RadialPiece, "factors": PowerFactor}


def _mapping(node) -> dict:
    """A copy of ``node``; ``TypeError`` unless it is a mapping."""
    if not isinstance(node, dict):
        raise TypeError(f"expected a mapping, got {node!r}")
    return dict(node)


def _build(section: str, node):
    """The object a section of the configuration tree describes (see ``_SECTIONS``)."""
    args = _mapping(node)
    constructor = _SECTIONS[section]
    if isinstance(constructor, dict):
        kind = args.pop("kind", _DEFAULT_KIND.get(section))
        if kind not in constructor:
            raise ValueError(f"unknown {section} kind {kind!r}")
        constructor = constructor[kind]
    for key, item in _ITEMS.items():
        if key in args:
            args[key] = [item(**_mapping(entry)) for entry in args[key]]
    return constructor(**args)


def _section(name: str, parse, *args):
    """``parse(*args)``, with a malformed value reported as a ConfigError naming ``name``."""
    try:
        return parse(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    """Validate and parse a configuration tree; unknown keys and bad expressions are errors.

    The root's keys are :class:`RunConfig`'s fields; each section named in
    ``_SECTIONS`` is built by :func:`_build`.
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    fields = {name: _section(name, _build, name, node) if name in _SECTIONS else node
              for name, node in data.items()}
    return _section("configuration", lambda: RunConfig(**fields, raw=data))


def load_config(path: str | Path) -> RunConfig:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parse_config(data)


@dataclass
class SolutionRecord:
    solution: MultiBumpSolution
    verification: VerificationReport
    filename: str


@dataclass
class RunReport:
    """Everything one run produced; serialized without timings."""

    config_digest: str
    resolution: int
    domain_kind: str
    weight_reference: str
    gamma: float
    s_star: float
    status: str = "incomplete"
    violated_hypothesis: str | None = None
    failure_message: str | None = None
    admissibility: AdmissibilityReport | None = None
    zero_count: int | None = None
    chi: int | None = None
    j_counts: dict[int, int] | None = None
    component_sizes: dict[str, int] | None = None
    f2_entries: list[F2Entry] = dc_field(default_factory=list)
    bumps: list[BumpSolution] = dc_field(default_factory=list)
    solutions: list[SolutionRecord] = dc_field(default_factory=list)
    expected_solutions: int | None = None
    all_verified: bool | None = None
    timings: dict[str, float] = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        # A hypothesis-only run requests no solutions (expected_solutions None).
        return self.status == "ok" and (self.expected_solutions is None or (
            bool(self.all_verified) and self.expected_solutions == len(self.solutions)))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _comp_label(comp_id) -> str:
    return f"({comp_id[0]},{comp_id[1]})"


def _label_key(label: str) -> tuple[int, ...]:
    """Numeric sort key of a component label "(i,l)" or a j-count key "i"."""
    return tuple(int(part) for part in label.strip("()").split(","))


def render_report(data: dict) -> str:
    """Fixed-field plain-text rendering of :func:`report_to_dict`'s output.

    Reads nothing but the dict, so the text rendered from a loaded
    ``report.json`` equals ``report.txt`` byte for byte.
    """
    lines = ["multibump run report",
             f"config-digest: {data['config_digest']}",
             f"resolution: {data['resolution']}",
             f"domain: {data['domain_kind']}",
             f"weight: {data['weight_reference']}",
             f"gamma: {_fmt(data['gamma'])}",
             f"s-star: {_fmt(data['s_star'])}",
             f"status: {data['status']}"]
    if data["violated_hypothesis"]:
        lines.append(f"violated-hypothesis: ({data['violated_hypothesis']})")
    if data["failure_message"]:
        lines.append(f"failure: {data['failure_message']}")
    adm = data.get("admissibility")
    if adm is not None:
        best_t = adm["best_t"]
        lines += ["", "[admissibility]",
                  f"levels: {adm['n_coarse']} -> {adm['n_fine']}",
                  f"a2-estimate: {_fmt(adm['a2_estimate'])}",
                  f"a2-growth: {_fmt(adm['a2_growth'])}",
                  f"a2-divergent: {_fmt(adm['a2_divergent'])}"]
        lines += [f"lt t={_fmt(row['t'])}: norm={_fmt(row['norm_fine'])} "
                  f"growth={_fmt(row['growth'])} growing={_fmt(row['growing'])} "
                  f"stable={_fmt(row['stable'])}" for row in adm["lt"]]
        lines += [f"best-t: {_fmt(best_t) if best_t is not None else 'none'}",
                  f"n-over-2: {_fmt(adm['n_over_2'])}",
                  f"zero-set-nodes: {adm['zero_count']}",
                  f"zero-set-touches-boundary: {_fmt(adm['touches_domain_boundary'])}",
                  f"verdict: {adm['verdict']}"]
    if data["chi"] is not None:
        j_counts, sizes = data["j_counts"], data["component_sizes"]
        lines += ["", "[decomposition]", f"chi: {data['chi']}",
                  "j-counts: " + ", ".join(f"j{j}={j_counts[j]}"
                                           for j in sorted(j_counts, key=_label_key))]
        lines += [f"component {label}: nodes={sizes[label]}"
                  for label in sorted(sizes, key=_label_key)]
    if data["f2"]:
        lines += ["", "[spectral]"]
        lines += [f"component {e['component']}: lambda1={_fmt(e['lambda1'])} "
                  f"a-max={_fmt(e['a_max'])} margin={_fmt(e['margin'])} "
                  f"verdict={'pass' if e['passed'] else 'fail'}" for e in data["f2"]]
    if data["bumps"]:
        lines += ["", "[bumps]"]
        lines += [f"component {b['component']}: energy={_fmt(b['energy'])} "
                  f"grad-norm={_fmt(b['grad_norm'])} min={_fmt(b['min'])} "
                  f"max={_fmt(b['max'])} iterations={b['iterations']} "
                  f"seed={_fmt(b['seed'])}" for b in data["bumps"]]
    if data["solutions"]:
        hist = Counter(sol["n_bumps"] for sol in data["solutions"])
        lines += ["", "[solutions]", f"count: {len(data['solutions'])}",
                  f"expected: {data['expected_solutions']}",
                  "histogram: " + ", ".join(f"n={n}:{hist[n]}" for n in sorted(hist))]
        lines += [f"solution {sol['subset']}: n-bumps={sol['n_bumps']} "
                  f"energy={_fmt(sol['energy'])} residual={_fmt(sol['residual'])} "
                  f"min={_fmt(sol['min'])} max={_fmt(sol['max'])} "
                  f"zero-trace={_fmt(sol['zero_trace'])} w11={_fmt(sol['w11'])} "
                  f"verified={_fmt(sol['verified'])} file={sol['file']}"
                  for sol in data["solutions"]]
    if data["all_verified"] is not None:
        lines += ["", f"all-verified: {_fmt(data['all_verified'])}"]
    lines.append(f"overall: {'pass' if data['overall_pass'] else 'fail'}")
    return "\n".join(lines) + "\n"


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready structure of a report (no timings, keys sorted downstream).

    The one serialization: ``report.json`` is this dict and ``report.txt``
    is :func:`render_report` of it.
    """
    out = {
        "config_digest": report.config_digest,
        "resolution": report.resolution,
        "domain_kind": report.domain_kind,
        "weight_reference": report.weight_reference,
        "gamma": report.gamma,
        "s_star": report.s_star,
        "status": report.status,
        "violated_hypothesis": report.violated_hypothesis,
        "failure_message": report.failure_message,
        "zero_count": report.zero_count,
        "chi": report.chi,
        "j_counts": {str(k): v for k, v in (report.j_counts or {}).items()} or None,
        "component_sizes": report.component_sizes,
        "expected_solutions": report.expected_solutions,
        "all_verified": report.all_verified,
        "overall_pass": report.passed,
    }
    if report.admissibility is not None:
        adm = out["admissibility"] = asdict(report.admissibility)
        adm["lt"] = list(adm.pop("lt_rows"))
    out["f2"] = [{"component": _comp_label(e.component_id), "a_max": e.a_max,
                  "lambda1": e.lambda1, "gamma": e.gamma, "margin": e.margin,
                  "passed": e.passed} for e in report.f2_entries]
    out["bumps"] = [{"component": _comp_label(b.component_id), "energy": b.energy,
                     "grad_norm": b.grad_norm, "min": b.min_value,
                     "max": b.max_value, "iterations": b.iterations,
                     "seed": b.seed_scale} for b in report.bumps]
    out["solutions"] = [{
        "subset": r.solution.label(), "n_bumps": r.solution.n_bumps,
        "energy": r.solution.energy, "residual": r.verification.residual_norm,
        "min": r.verification.min_value, "max": r.verification.max_value,
        "zero_trace": r.verification.zero_trace_max,
        "w11": r.verification.w11_seminorm,
        "verified": r.verification.passed, "file": r.filename,
    } for r in report.solutions]
    return out


class _RunText:
    """The text of a run's solution files on ``grid``, each part formatted once.

    Its text is fixed-width, NUL-padded ``bytes_``: ``first`` holds the
    axis-0 coordinates and ``rest`` every combination of the others in C
    order, each followed by a comma.  ``bits`` and ``lines`` hold per node
    the last nonzero value written there and its line (``repr`` and
    newline).  ``files`` maps the SHA-256 of a file written on ``grid`` to
    its packed nonzero mask until :meth:`values` forgets it.  The first
    write on a grid puts a new one in the caller's context, where the
    read-back of the files written on it finds it until the next run.
    """

    _current: ContextVar[_RunText | None] = ContextVar("run_text", default=None)

    def __init__(self, grid: Grid):
        first, *others = [np.array([repr(c) + "," for c in axis.tolist()], dtype="S")
                          for axis in grid.axes]
        self.grid, self.first = grid, first
        self.rest = reduce(lambda rest, axis: np.char.add(rest[:, None], axis).ravel(), others)
        self.header = (_csv_header(grid) + "\n").encode()
        self.bits = np.zeros(grid.classes.size, np.int64)
        self.lines = np.zeros(grid.classes.size, "S25")  # a float's repr has at most 24 characters
        self.files: dict[bytes, np.ndarray] = {}

    @classmethod
    def of(cls, grid: Grid) -> _RunText:
        text = cls._current.get()
        if text is None or text.grid is not grid:
            cls._current.set(text := cls(grid))
        return text

    def values(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """C-order mask of the entries other than +0.0, and every node's line (``0.0`` there).

        Only nodes whose bits changed are formatted, each distinct value
        once: bits keep -0.0, subnormals and NaN exact, and +0.0 leaves
        ``lines`` alone.  A change at a nonzero node forgets ``files``, so
        each file left in it holds ``bits`` on its mask and +0.0 elsewhere.
        """
        bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.int64)
        nonzero = bits != 0
        stale = nonzero & (bits != self.bits)
        if self.bits[stale].any():
            self.files.clear()
        self.bits[stale] = bits[stale]
        new, where = np.unique(bits[stale], return_inverse=True)
        self.lines[stale] = np.array([repr(v) + "\n" for v in new.view(float).tolist()],
                                     dtype="S25")[where]
        lines = self.lines.copy()
        lines[~nonzero] = b"0.0\n"
        return nonzero, lines


# Rows the CSV writer joins at once (whole axis-0 slabs, at least one); bounds its table in 3D.
_BLOCK_ROWS = 1 << 14


def _joined(*columns: np.ndarray) -> np.ndarray:
    """The bytes of ``columns`` (fixed-width, broadcast together) row by row, padding dropped."""
    table = np.rec.fromarrays(np.broadcast_arrays(*columns)).view(np.uint8, np.ndarray)
    return table[table != 0]


def _csv_header(grid: Grid) -> str:
    return ",".join([f"x{d + 1}" for d in range(grid.ndim)] + ["u"])


def write_solution_csv(path: Path, values: np.ndarray, grid: Grid) -> None:
    """Nodal field as CSV: coordinate columns then u, full lattice scan order.

    Coordinates and values come from the run's text (:class:`_RunText`), so
    each is formatted once per run.  A call joins at most ``_BLOCK_ROWS``
    rows (or one axis-0 slab) at a time, and records the file's SHA-256.
    """
    text = _RunText.of(grid)
    nonzero, lines = text.values(values)
    step = max(_BLOCK_ROWS // text.rest.size, 1)
    digest = hashlib.sha256(text.header)
    with open(path, "wb") as handle:
        handle.write(text.header)
        for start in range(0, grid.n, step):
            block = slice(start, start + step)
            chunk = _joined(text.first[block, None], text.rest,
                            lines.reshape(grid.n, -1)[block])
            digest.update(chunk)
            handle.write(chunk)
    text.files[digest.digest()] = np.packbits(nonzero)


def read_solution_csv(path: str | Path, grid: Grid) -> np.ndarray:
    """Load a solution CSV and check its header and that it matches the grid's lattice.

    A file whose SHA-256 is that of a file this context's :class:`_RunText`
    on ``grid`` wrote holds that file's values, which are returned unparsed.
    """
    text = _RunText._current.get()
    if text is not None and text.grid is grid:
        mask = text.files.get(hashlib.sha256(Path(path).read_bytes()).digest())
        if mask is not None:
            nonzero = np.unpackbits(mask, count=text.bits.size).view(bool)
            return np.where(nonzero, text.bits, 0).view(float).reshape(grid.shape)
    header = _csv_header(grid)
    with open(path, "rb") as handle:
        if handle.readline().rstrip(b"\r\n") != header.encode():
            raise ConfigError(f"{path}: expected header {header}")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:  # a cell that is not a number, or a row of another length
        data = np.empty((0, 0))
    expected = grid.n ** grid.ndim
    if data.shape != (expected, grid.ndim + 1):
        raise ConfigError(
            f"{path}: expected {expected} rows x {grid.ndim + 1} columns")
    points = grid.points().reshape(-1, grid.ndim)
    if not np.allclose(data[:, :grid.ndim], points, atol=1e-9 * grid.h):
        raise ConfigError(f"{path}: node coordinates do not match the grid")
    return data[:, -1].reshape(grid.shape)


def write_solution_vtk(path: Path, values: np.ndarray, grid: Grid) -> None:
    """Legacy-ASCII rectilinear export: the run's lines (:class:`_RunText`) in Fortran order."""
    dims = list(grid.shape) + [1] * (3 - grid.ndim)
    origin = list(grid.domain.lo) + [0.0] * (3 - grid.ndim)
    lines = _RunText.of(grid).values(values)[1]
    with open(path, "wb") as handle:
        handle.write("# vtk DataFile Version 3.0\nmultibump solution field\nASCII\n"
                     f"DATASET STRUCTURED_POINTS\nDIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n"
                     f"ORIGIN {origin[0]!r} {origin[1]!r} {origin[2]!r}\n"
                     f"SPACING {grid.h!r} {grid.h!r} {grid.h!r}\nPOINT_DATA {values.size}\n"
                     "SCALARS u double 1\nLOOKUP_TABLE default\n".encode())
        handle.write(_joined(lines.reshape(grid.shape).ravel(order="F")))


class _FailedVerdict(HypothesisViolationError):
    """A hypothesis stage's own verdict is negative; reported with its bare message."""

    def __init__(self, hypothesis: str, message: str):
        super().__init__(hypothesis, message)
        self.args = (message,)


# Exception that stops a run -> (report status, violated hypothesis).  A
# HypothesisViolationError names its own hypothesis.
_STOPS = {
    InvalidWeightError: ("invalid-weight", None),
    HypothesisViolationError: ("hypothesis-violation", None),
    EmptyDecompositionError: ("hypothesis-violation", "a1"),
    InvalidNonlinearityError: ("hypothesis-violation", "f1"),
    SeedFailureError: ("numerical-failure", None),
    NumericalFailureError: ("numerical-failure", None),
    EnumerationSizeError: ("enumeration-overflow", None),
    ResolutionTooCoarseError: ("resolution-too-coarse", None),
}


def _setup(config: RunConfig):
    """Grid, weight field and zero set at the configured resolution.

    Shared with the previous call when its inputs are exactly the same (see
    :func:`_lattice_setup`); every array in the result is read-only.
    """
    tol = config.tolerances
    # Of the tolerances, only the zero-set thresholds shape the setup.
    zero_tol = ToleranceConfig(zero_threshold=tol.zero_threshold, zero_band=tol.zero_band)
    inputs = (config.domain, config.weight, config.resolution, zero_tol)
    return _lattice_setup(repr(inputs), *inputs)


@lru_cache(maxsize=1)
def _lattice_setup(exact_key: str, domain: DomainSpec, weight: WeightSpec,
                   resolution: int, zero_tol: ToleranceConfig):
    """One-entry memo of the setup over exactly the inputs it depends on.

    ``exact_key`` is the ``repr`` of the other arguments.  Float ``repr``
    round-trips, so inputs that compare equal but print differently, such
    as a box corner at ``-0.0`` and at ``0.0``, get their own setup.  A
    failed setup raises and is not cached.
    """
    grid = build_grid(domain, resolution)
    field = evaluate_weight(weight, grid)
    return grid, field, detect_zero_set(field, grid, zero_tol)


@contextmanager
def _stage(timings: dict[str, float], name: str):
    """Time one stage into ``timings`` and log it, whether or not it stops the run."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - start
        log.info("stage %s: %.3fs", name, timings[name])


def _run(config: RunConfig, solve: bool, out_path: Path | None = None) -> RunReport:
    """Run the stages in order; the first failure sets the report's status.

    Hypothesis stages always run; ``solve`` adds minimization, enumeration
    and verification.  Solution files and the reports are written into
    ``out_path`` unless it is None.
    """
    tol, nonlinearity = config.tolerances, config.nonlinearity
    report = RunReport(
        config_digest=config.digest(), resolution=config.resolution,
        domain_kind=config.domain.kind, weight_reference=config.weight.reference,
        gamma=nonlinearity.gamma, s_star=nonlinearity.s_star)
    stage = partial(_stage, report.timings)
    # Kept under this solve, the last run's text would raise its peak RSS.
    _RunText._current.set(None)
    start = time.perf_counter()
    try:
        with stage("setup"):
            grid, field, zero = _setup(config)
        with stage("admissibility"):
            adm = report.admissibility = assess_admissibility(grid, field, zero, tol)
            report.zero_count = adm.zero_count
            if not adm.admissible:
                raise _FailedVerdict(
                    "a1" if adm.verdict == "zero-set-touches-boundary" else "a2",
                    f"admissibility verdict: {adm.verdict}")
        with stage("decomposition"):
            decomposition = decompose_components(grid, zero)
            report.chi, report.j_counts = decomposition.chi, decomposition.j_counts
            report.component_sizes = {_comp_label(c.id): c.node_count
                                      for c in decomposition.components}
        with stage("nonlinearity"):
            trunc = truncate_nonlinearity(nonlinearity)
        with stage("spectral"):
            eigenpairs = []
            laplacian = dirichlet_laplacian(grid)
            for comp in decomposition.components:
                eigen = dirichlet_lambda1(comp, grid, laplacian, tol, field if solve else None)
                eigenpairs.append(eigen)
                log.info("component %s: lambda1 %.6g, %d iterations, rayleigh "
                         "residual %.3g", comp.id, eigen.lambda1, eigen.iterations,
                         eigen.rayleigh_residual)
                report.f2_entries.append(check_hypothesis_f2(
                    comp, field, nonlinearity.gamma, eigen))
            failing = [_comp_label(e.component_id)
                       for e in report.f2_entries if not e.passed]
            if failing:
                raise _FailedVerdict("f2", "spectral margin non-positive on "
                                     "component(s) " + ", ".join(failing))
        if solve:
            with stage("minimize"):
                bumps = {}
                for comp in decomposition.components:
                    eigen = eigenpairs.pop(0)
                    energy = assemble_energy(comp, field, trunc, grid)
                    bump = bumps[comp.id] = minimize_energy(energy, eigen, tol)
                    report.bumps.append(bump)
                    log.info("component %s: energy %.6g, %d iterations, "
                             "%d linear iterations, %s", comp.id, bump.energy,
                             bump.iterations, bump.linear_iterations,
                             f"LU factor from step {bump.factored_from}"
                             if bump.factored_from else "no LU factor")
                del eigen  # the last shared factor, held no longer than its minimize
            with stage("enumerate"):
                solutions = enumerate_all(bumps, config.enumeration.max_chi)
            report.expected_solutions = 2 ** decomposition.chi - 1
            with stage("verify"):
                if out_path is not None:
                    out_path.mkdir(parents=True, exist_ok=True)
                for rank, solution in enumerate(solutions, start=1):
                    values = solution.field(grid)
                    stem = f"solution_{rank:03d}"
                    filename = f"{stem}.csv"
                    if out_path is not None:
                        write_solution_csv(out_path / filename, values, grid)
                        if config.export_vtk:
                            write_solution_vtk(out_path / f"{stem}.vtk", values, grid)
                    report.solutions.append(SolutionRecord(
                        solution=solution, filename=filename,
                        verification=check_conclusions(values, field, nonlinearity,
                                                       grid, zero, tol)))
                report.all_verified = all(r.verification.passed for r in report.solutions)
        report.status = "ok"
    except tuple(_STOPS) as exc:
        report.status, hypothesis = next(row for kind, row in _STOPS.items()
                                         if isinstance(exc, kind))
        report.violated_hypothesis = getattr(exc, "hypothesis", hypothesis)
        report.failure_message = str(exc)
    report.timings["total"] = time.perf_counter() - start
    log.info("pipeline %s in %.2fs", report.status, report.timings["total"])
    if out_path is not None:
        write_outputs(report, out_path)
    return report


def check_hypotheses(config: RunConfig) -> RunReport:
    """The hypothesis stages shared by `check` and `solve`: setup through (f2)."""
    return _run(config, solve=False)


def run_pipeline(config: RunConfig, out_dir: str | Path | None = None,
                 write: bool = True) -> RunReport:
    """Full solve: hypotheses, bumps, enumeration, verification, outputs."""
    out_path = Path(out_dir if out_dir is not None else config.output_dir)
    return _run(config, solve=True, out_path=out_path if write else None)


def write_outputs(report: RunReport, out_dir: str | Path) -> None:
    """Write report.json and its text rendering report.txt (no timings)."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    data = report_to_dict(report)
    (out_path / "report.txt").write_text(render_report(data))
    (out_path / "report.json").write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def verify_solution_file(config: RunConfig, field_file: str | Path) -> VerificationReport:
    """Re-verify an exported solution CSV against its configuration.

    The grid, weight field and zero set come from the one-entry setup memo,
    so verifying many files of one configuration, or the files of the run
    that just solved it, builds them once.
    """
    grid, field, zero = _setup(config)
    return check_conclusions(read_solution_csv(field_file, grid), field,
                             config.nonlinearity, grid, zero, config.tolerances)

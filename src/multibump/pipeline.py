"""Config-driven pipeline: hypotheses, decomposition, bumps, enumeration.

One runner takes every run through its stages in order: setup (grid,
weight, zero set), admissibility, decomposition, the nonlinearity (f1),
one pass per component (its K0 and K_w, (f2), then in a solve while (f2)
holds its bump), and enumeration and verification.  The first stage that
fails stops the run, (f2) once every margin is in; its exception's class
declares the report's status (:mod:`multibump.errors`) and, for a failed
hypothesis, carries the violated condition.  Partial reports are written.

The setup of the last configuration is kept for the next call: a solve
and the re-verification of each file it wrote share one grid, weight field
and zero set.  The memo holds one entry, keyed on the exact (``repr``)
domain, weight, resolution, zero threshold and zero band.  A run formats
each CSV row once per state (``_RunText``) and splices its files from runs
of those rows; a file read back whose SHA-256 is that of a file the run
wrote is not parsed.  Each bump and the full subset are checked on the whole
lattice; no edge joins two components, so other subsets take their bumps' largest.

All outputs are deterministic: reruns with an identical configuration
produce byte-identical report and solution files.  Timings are only
logged (one line per stage), never kept or serialized.
"""

from __future__ import annotations

import hashlib
import json
import logging
import mmap
import time
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field as dc_field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .assembly import dirichlet_conductances, stencil_matrices
from .composition import MultiBumpSolution, enumerate_all
from .energy import (BumpSolution, NonlinearitySpec, assemble_energy,
                     minimize_energy, truncate_nonlinearity)
from .errors import ConfigError, HypothesisViolationError, SolverError
from .grid import DomainSpec, Grid, build_grid
from .spectral import F2Entry, check_hypothesis_f2, dirichlet_lambda1
from .tolerances import ToleranceConfig, is_count
from .topology import decompose_components
from .verify import VerificationReport, check_conclusions, conclusions
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
        if self.export_vtk and self.domain.dimension > 3:  # legacy VTK points have 3 axes
            raise ConfigError("invalid export_vtk: VTK export needs a 2D or 3D domain, "
                              f"got {self.domain.dimension}D")
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
    """Everything one run produced."""

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
    chi: int | None = None
    j_counts: dict[int, int] | None = None
    component_sizes: dict[str, int] | None = None
    f2_entries: list[F2Entry] = dc_field(default_factory=list)
    bumps: list[BumpSolution] = dc_field(default_factory=list)
    solutions: list[SolutionRecord] = dc_field(default_factory=list)
    expected_solutions: int | None = None
    all_verified: bool | None = None

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
        lines += ["", "[admissibility]"] + [
            f"exponent {r['manifold']}: "
            f"{'unresolved' if r['exponent'] is None else _fmt(r['exponent'])} "
            f"bound={_fmt(r['bound'])} codimension={r['codimension']}" for r in adm["readings"]]
        lines += [f"zero-set-nodes: {adm['zero_count']}",
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
    """JSON-ready structure of a report (keys sorted downstream).

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
        "chi": report.chi,
        "j_counts": {str(k): v for k, v in (report.j_counts or {}).items()} or None,
        "component_sizes": report.component_sizes,
        "expected_solutions": report.expected_solutions,
        "all_verified": report.all_verified,
        "overall_pass": report.passed,
    }
    if report.admissibility is not None:
        out["admissibility"] = asdict(report.admissibility)
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
    """The rows of a run's solution files on ``grid``, each formatted once per state.

    A row is a node's coordinates and line (``repr``, newline) for +0.0
    (state 0) or for the value whose bits ``bits`` holds (state 1).  ``text``
    has room for every row in both states after 24 spare bytes; only the rows
    formatted so far (compact, in node order by blocks of n^2) take memory.
    ``starts`` and ``sizes`` locate them (start -1: none), and ``files`` maps
    each file's SHA-256 to its packed nonzero mask.  The first write on a grid
    puts one in the caller's context, for the read-back, until the next run.
    """

    _current: ContextVar[_RunText | None] = ContextVar("run_text", default=None)

    def __init__(self, grid: Grid):
        self.grid, size = grid, grid.interior_mask.size
        self.coordinates = [np.array([repr(c) + "," for c in axis.tolist()], dtype="S")
                            for axis in grid.axes]
        self.header = (_csv_header(grid) + "\n").encode()
        self.text = mmap.mmap(-1, 24 + 2 * size * 25 * (grid.ndim + 1))  # <= 25 bytes a cell
        self.used, self.bits = 24, np.zeros(size, np.int64)
        self.starts = np.full((2, size), -1, np.int32 if len(self.text) < 2**31 else np.int64)
        self.sizes = np.zeros((2, size), np.uint16)
        self.files: dict[bytes, np.ndarray] = {}

    @classmethod
    def of(cls, grid: Grid) -> _RunText:
        text = cls._current.get()
        if text is None or text.grid is not grid:
            cls._current.set(text := cls(grid))
        return text

    def rows(self, values: np.ndarray) -> np.ndarray:
        """C-order mask of the entries other than +0.0, after formatting the rows it lacks.

        Bits keep -0.0 and NaN apart.  A new value at a node that held another
        forgets ``files`` and every row, so each file in ``files`` holds ``bits``.
        """
        bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.int64)
        nonzero = bits != 0
        stale = nonzero & (bits != self.bits)
        if self.bits[stale].any():  # so no node ever needs a third row: start over
            self.files.clear()
            self.starts[:], self.used = -1, 24
        np.copyto(self.bits, bits, where=stale)
        missing = np.flatnonzero(np.where(nonzero, self.starts[1] < 0, self.starts[0] < 0))
        for start in range(0, missing.size, self.grid.n ** 2):  # distinct values once a block
            nodes = missing[start:start + self.grid.n ** 2]
            valued = nonzero[nodes]
            new, where = np.unique(bits[nodes[valued]], return_inverse=True)
            new = np.array([repr(v) + "\n" for v in new.view(float).tolist()] + ["0.0\n"],
                           dtype="S")
            line = np.full(nodes.size, new.size - 1)
            line[valued] = where
            index = np.unravel_index(nodes, self.grid.shape)
            table = np.rec.fromarrays([axis[i] for axis, i in zip(self.coordinates, index)]
                                      + [new[line]]).view(np.uint8, np.ndarray)
            joined = table[table != 0]  # the rows, their padding dropped
            ends = self.used + 1 + np.flatnonzero(joined == ord("\n"))
            self.text[self.used:ends[-1]] = joined
            state = valued.view(np.int8), nodes
            self.sizes[state] = sizes = np.diff(ends, prepend=self.used)
            self.starts[state] = ends - sizes
            self.used = int(ends[-1])
        return nonzero


def _csv_header(grid: Grid) -> str:
    return ",".join([f"x{d + 1}" for d in range(grid.ndim)] + ["u"])


def write_solution_csv(path: Path, values: np.ndarray, grid: Grid) -> None:
    """Nodal field as CSV: coordinate columns then u, full lattice scan order.

    Spliced from the runs of its rows that lie side by side in the run's text
    (:class:`_RunText`), by blocks of n^2 rows; records the file's SHA-256.
    """
    text = _RunText.of(grid)
    nonzero = text.rows(values)
    digest = hashlib.sha256(text.header)
    with open(path, "wb") as handle, memoryview(text.text) as view:
        handle.write(text.header)
        for start in range(0, nonzero.size, grid.n ** 2):
            block = slice(start, start + grid.n ** 2)
            first = np.where(nonzero[block], text.starts[1, block], text.starts[0, block])
            last = first + np.where(nonzero[block], text.sizes[1, block], text.sizes[0, block])
            cut = np.flatnonzero(first[1:] != last[:-1])  # where a run of adjacent rows ends
            chunk = b"".join([view[a:b] for a, b in zip(
                [int(first[0])] + first[cut + 1].tolist(), last[cut].tolist() + [int(last[-1])])])
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
    if not np.allclose(data[:, :grid.ndim], points, rtol=0.0, atol=1e-9 * grid.h):
        raise ConfigError(f"{path}: node coordinates do not match the grid")
    return data[:, -1].reshape(grid.shape)


def write_solution_vtk(path: Path, values: np.ndarray, grid: Grid) -> None:
    """Legacy-ASCII rectilinear export: the rows' ends after their last comma, Fortran order."""
    dims = list(grid.shape) + [1] * (3 - grid.ndim)
    origin = list(grid.domain.lo) + [0.0] * (3 - grid.ndim)
    text = _RunText.of(grid)
    state = text.rows(values).view(np.int8), np.arange(values.size)
    tails = np.lib.stride_tricks.sliding_window_view(np.frombuffer(text.text, np.uint8), 25)[
        (text.starts[state] + text.sizes[state] - 25).reshape(grid.shape).ravel(order="F")]
    tails[np.logical_or.accumulate(tails[:, ::-1] == ord(","), axis=1)[:, ::-1]] = 0
    with open(path, "wb") as handle:
        handle.write("# vtk DataFile Version 3.0\nmultibump solution field\nASCII\n"
                     f"DATASET STRUCTURED_POINTS\nDIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n"
                     f"ORIGIN {origin[0]!r} {origin[1]!r} {origin[2]!r}\n"
                     f"SPACING {grid.h!r} {grid.h!r} {grid.h!r}\nPOINT_DATA {values.size}\n"
                     "SCALARS u double 1\nLOOKUP_TABLE default\n".encode())
        handle.write(tails[tails != 0])


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
def _stage(name: str):
    """Log one stage's wall time, whether or not it stops the run."""
    start = time.perf_counter()
    try:
        yield
    finally:
        log.info("stage %s: %.3fs", name, time.perf_counter() - start)


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
    # Kept under this solve, the last run's text would raise its peak RSS.
    _RunText._current.set(None)
    start = time.perf_counter()
    try:
        with _stage("setup"):
            grid, field, zero = _setup(config)
        with _stage("admissibility"):
            adm = report.admissibility = assess_admissibility(grid, field, zero, tol)
            if not adm.admissible:
                raise HypothesisViolationError(adm.violated_hypothesis,
                                               f"admissibility verdict: {adm.verdict}")
        with _stage("decomposition"):
            decomposition = decompose_components(grid, zero)
            report.chi, report.j_counts = decomposition.chi, decomposition.j_counts
            report.component_sizes = {_comp_label(c.id): c.node_count
                                      for c in decomposition.components}
            tables = [dirichlet_conductances(grid)]  # K0's edges, and in a solve K_w's
            tables += [field.conductances] if solve else []
        with _stage("nonlinearity"):
            trunc = truncate_nonlinearity(nonlinearity)
        bumps = {}
        for comp in decomposition.components:
            with _stage("spectral"):
                operators = stencil_matrices(grid, comp.nodes, *tables)
                eigen = dirichlet_lambda1(comp, grid, operators[0], tol)
                log.info("component %s: lambda1 %.6g, %d iterations, rayleigh "
                         "residual %.3g", comp.id, eigen.lambda1, eigen.iterations,
                         eigen.rayleigh_residual)
                report.f2_entries.append(check_hypothesis_f2(
                    comp, field, nonlinearity.gamma, eigen))
            if solve and all(e.passed for e in report.f2_entries):
                with _stage("minimize"):
                    bump = bumps[comp.id] = minimize_energy(
                        assemble_energy(comp, operators[1], trunc, grid), eigen, tol)
                    log.info("component %s: energy %.6g, %d iterations, "
                             "%d linear iterations, %s", comp.id, bump.energy,
                             bump.iterations, bump.linear_iterations,
                             f"LU factor from step {bump.factored_from}"
                             if bump.factored_from else "no LU factor")
            del eigen, operators  # with the 2D factor, before the next component's are built
        del tables  # not held through verification
        failing = [_comp_label(e.component_id) for e in report.f2_entries if not e.passed]
        if failing:  # the bumps made before it are not reported
            raise HypothesisViolationError("f2", "spectral margin non-positive on "
                                           "component(s) " + ", ".join(failing))
        report.bumps = list(bumps.values())
        if solve:
            with _stage("enumerate"):
                solutions = enumerate_all(bumps, config.enumeration.max_chi)
            report.expected_solutions = 2 ** decomposition.chi - 1
            with _stage("verify"):
                if out_path is not None:
                    out_path.mkdir(parents=True, exist_ok=True)
                residuals = {}  # by subset, of the fields checked against the lattice
                for rank, solution in enumerate(solutions, start=1):
                    values = solution.field(grid)
                    if solution.n_bumps > 1 and rank < len(solutions):  # no edge joins bumps
                        residual = float(np.max([residuals[c,] for c in solution.subset]))
                        verified = conclusions(values, residual, nonlinearity, grid, zero, tol)
                    else:  # each bump, and the full subset on the lattice itself
                        verified = check_conclusions(values, field, nonlinearity, grid, zero, tol)
                        residuals[solution.subset] = verified.residual_norm
                    stem = f"solution_{rank:03d}"
                    filename = f"{stem}.csv"
                    if out_path is not None:
                        write_solution_csv(out_path / filename, values, grid)
                        if config.export_vtk:
                            write_solution_vtk(out_path / f"{stem}.vtk", values, grid)
                    report.solutions.append(SolutionRecord(
                        solution=solution, filename=filename, verification=verified))
                report.all_verified = all(r.verification.passed for r in report.solutions)
        report.status = "ok"
    except SolverError as exc:
        if exc.status is None:
            raise
        report.status, report.failure_message = exc.status, str(exc)
        report.violated_hypothesis = getattr(exc, "hypothesis", None)
    log.info("pipeline %s in %.2fs", report.status, time.perf_counter() - start)
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
    """Write report.json and its text rendering report.txt."""
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

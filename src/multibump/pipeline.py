"""Config-driven pipeline: hypotheses, decomposition, bumps, enumeration.

One runner takes every run through its stages in order: setup (grid,
weight, zero set), admissibility, decomposition, the nonlinearity (f1),
spectral margins (f2), and for a solve bump minimization, subset
enumeration and verification.  The first stage that fails stops the run;
one table maps its exception to the report's status and, for a failed
hypothesis, the violated condition.  Partial reports are still written.

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
from dataclasses import asdict, dataclass, field as dc_field
from functools import partial
from pathlib import Path

import numpy as np

from .composition import MultiBumpSolution, enumerate_all
from .energy import (BumpSolution, NonlinearitySpec, SolverOptions,
                     assemble_energy, minimize_energy, truncate_nonlinearity)
from .errors import (ConfigError, EmptyDecompositionError,
                     EnumerationSizeError, HypothesisViolationError,
                     InvalidNonlinearityError, InvalidWeightError,
                     NumericalFailureError, ResolutionTooCoarseError,
                     SeedFailureError)
from .grid import DomainSpec, Grid, build_grid
from .spectral import F2Entry, check_hypothesis_f2, dirichlet_lambda1
from .topology import decompose_components
from .verify import VerificationReport, VerifyTolerances, check_conclusions
from .weights import (AdmissibilityOptions, AdmissibilityReport, WeightSpec,
                      assess_admissibility, detect_zero_set, evaluate_weight)

log = logging.getLogger("multibump")


@dataclass(frozen=True)
class ToleranceConfig:
    zero_threshold: float = 1e-6
    zero_band: float = 0.75
    grad_tol_scale: float = 1e-8
    residual_tol_scale: float = 1e-6
    bounds_tol: float = 1e-8
    zero_trace_tol: float = 0.0
    eig_tol: float = 1e-8
    eig_max_iter: int = 500
    max_minimize_iterations: int = 100000
    seed_min_exponent: int = 30
    a2_growth_tol: float = 1.10
    lt_stable_tol: float = 1.15
    lt_growing_tol: float = 1.05
    t_scan: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0, 4.0)

    def __post_init__(self):
        for name in ("zero_threshold", "zero_band", "grad_tol_scale",
                     "residual_tol_scale", "eig_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"tolerance {name} must be positive")
        for name in ("bounds_tol", "zero_trace_tol"):
            if getattr(self, name) < 0:
                raise ConfigError(f"tolerance {name} must be nonnegative")


@dataclass(frozen=True)
class EnumerationConfig:
    max_chi: int = 20
    allow_large: bool = False


@dataclass(frozen=True)
class RunConfig:
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
        if self.resolution < 8:
            raise ConfigError(f"resolution must be >= 8, got {self.resolution}")

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:16]


def _require_keys(mapping: dict, allowed: set[str], required: set[str], path: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under '{path}'")
    missing = required - set(mapping)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} under '{path}'")


def _parse_domain(node: dict) -> DomainSpec:
    kind = node.get("kind")
    if kind == "box":
        _require_keys(node, {"kind", "lo", "hi"}, {"kind", "lo", "hi"}, "domain")
        return DomainSpec.box(node["lo"], node["hi"])
    if kind == "ball":
        _require_keys(node, {"kind", "center", "radius"}, {"kind", "center", "radius"}, "domain")
        return DomainSpec.ball(node["center"], node["radius"])
    if kind == "custom-implicit":
        _require_keys(node, {"kind", "expression", "lo", "hi"},
                      {"kind", "expression", "lo", "hi"}, "domain")
        return DomainSpec.implicit(node["expression"], node["lo"], node["hi"])
    raise ConfigError(f"unknown domain kind {kind!r}")


def _parse_weight(node: dict) -> WeightSpec:
    kind = node.get("kind")
    if kind == "constant":
        _require_keys(node, {"kind", "value"}, {"kind", "value"}, "weight")
        return WeightSpec.constant(node["value"])
    if kind == "radial-piecewise":
        _require_keys(node, {"kind", "center", "pieces", "zero_radii", "scale"},
                      {"kind", "center", "pieces"}, "weight")
        pieces = []
        for i, piece in enumerate(node["pieces"]):
            _require_keys(piece, {"r_max", "expr"}, {"r_max", "expr"}, f"weight.pieces[{i}]")
            pieces.append((piece["r_max"], piece["expr"]))
        return WeightSpec.radial(node["center"], pieces,
                                 zero_radii=node.get("zero_radii"),
                                 scale=node.get("scale", 1.0))
    if kind == "product-of-powers":
        _require_keys(node, {"kind", "factors", "scale"}, {"kind", "factors"}, "weight")
        factors = []
        for i, factor in enumerate(node["factors"]):
            _require_keys(factor, {"center", "radius", "power"},
                          {"center", "radius", "power"}, f"weight.factors[{i}]")
            factors.append((factor["center"], factor["radius"], factor["power"]))
        return WeightSpec.power_product(factors, scale=node.get("scale", 1.0))
    if kind == "custom-expression":
        _require_keys(node, {"kind", "expr", "zero_expr", "scale"}, {"kind", "expr"}, "weight")
        return WeightSpec.expression(node["expr"], zero_expr=node.get("zero_expr"),
                                     scale=node.get("scale", 1.0))
    raise ConfigError(f"unknown weight kind {kind!r}")


def _parse_nonlinearity(node: dict) -> NonlinearitySpec:
    kind = node.get("kind", "logistic-default")
    if kind == "logistic-default":
        _require_keys(node, {"kind", "gamma", "s_star", "beta_star"},
                      {"kind", "gamma"}, "nonlinearity")
        return NonlinearitySpec.logistic(node["gamma"], node.get("s_star", 1.0),
                                         node.get("beta_star"))
    if kind == "custom":
        _require_keys(node, {"kind", "expr", "gamma", "s_star", "beta_star"},
                      {"kind", "expr", "gamma", "s_star", "beta_star"}, "nonlinearity")
        return NonlinearitySpec.custom(node["expr"], node["gamma"],
                                       node["s_star"], node["beta_star"])
    raise ConfigError(f"unknown nonlinearity kind {kind!r}")


_TOP_KEYS = {"domain", "weight", "nonlinearity", "resolution", "output_dir",
             "tolerances", "enumeration", "export_vtk"}


def parse_config(data: dict) -> RunConfig:
    """Validate and parse a configuration tree; unknown keys are errors."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    _require_keys(data, _TOP_KEYS, {"domain", "weight", "nonlinearity", "resolution"},
                  "<root>")
    tol_node = dict(data.get("tolerances", {}))
    allowed_tols = set(ToleranceConfig.__dataclass_fields__)
    _require_keys(tol_node, allowed_tols, set(), "tolerances")
    if "t_scan" in tol_node:
        tol_node["t_scan"] = tuple(float(t) for t in tol_node["t_scan"])
    enum_node = dict(data.get("enumeration", {}))
    _require_keys(enum_node, {"max_chi", "allow_large"}, set(), "enumeration")
    return RunConfig(
        domain=_parse_domain(data["domain"]),
        weight=_parse_weight(data["weight"]),
        nonlinearity=_parse_nonlinearity(data["nonlinearity"]),
        resolution=int(data["resolution"]),
        output_dir=str(data.get("output_dir", "out")),
        tolerances=ToleranceConfig(**tol_node),
        enumeration=EnumerationConfig(**enum_node),
        export_vtk=bool(data.get("export_vtk", False)),
        raw=data)


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


def _nonzero_reprs(flat: np.ndarray) -> tuple[list[int], list[str]]:
    """Indices and ``repr`` of the entries of ``flat`` other than +0.0.

    Exact zeros, the bulk of a zero-extended field, are written as one
    shared ``"0.0"`` literal by the callers; ``-0.0`` keeps its sign.
    """
    flat = np.asarray(flat, dtype=float)
    index = np.flatnonzero((flat != 0) | np.signbit(flat))
    return index.tolist(), [repr(v) for v in flat[index].tolist()]


def write_solution_csv(path: Path, values: np.ndarray, grid: Grid) -> None:
    """Nodal field as CSV: coordinate columns then u, full lattice scan order.

    Written one axis-0 slab at a time, with each coordinate formatted once
    per call, so transient memory stays at one slab.
    """
    header = ",".join([f"x{d + 1}" for d in range(grid.ndim)] + ["u"])
    labels = [[repr(c) + "," for c in axis.tolist()] for axis in grid.axes]
    prefixes = [""]
    for axis_labels in labels[1:]:
        prefixes = [p + c for p in prefixes for c in axis_labels]
    zero_rows = np.array([p + "0.0\n" for p in prefixes], dtype=object)
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for label, slab in zip(labels[0], values.reshape(grid.n, -1)):
            rows = zero_rows.copy()
            index, reprs = _nonzero_reprs(slab)
            rows[index] = [prefixes[i] + r + "\n" for i, r in zip(index, reprs)]
            handle.write(label + label.join(rows))


def read_solution_csv(path: str | Path, grid: Grid) -> np.ndarray:
    """Load a solution CSV and check it matches the grid's lattice."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    expected = grid.n ** grid.ndim
    if data.ndim != 2 or data.shape != (expected, grid.ndim + 1):
        raise ConfigError(
            f"{path}: expected {expected} rows x {grid.ndim + 1} columns")
    points = grid.points().reshape(-1, grid.ndim)
    if not np.allclose(data[:, :grid.ndim], points, atol=1e-9 * grid.h):
        raise ConfigError(f"{path}: node coordinates do not match the grid")
    return data[:, -1].reshape(grid.shape)


def write_solution_vtk(path: Path, values: np.ndarray, grid: Grid) -> None:
    """Legacy-ASCII rectilinear export for visualization tools."""
    dims = list(grid.shape) + [1] * (3 - grid.ndim)
    origin = list(grid.domain.lo) + [0.0] * (3 - grid.ndim)
    with open(path, "w") as handle:
        handle.write("# vtk DataFile Version 3.0\n")
        handle.write("multibump solution field\n")
        handle.write("ASCII\nDATASET STRUCTURED_POINTS\n")
        handle.write(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n")
        handle.write(f"ORIGIN {origin[0]!r} {origin[1]!r} {origin[2]!r}\n")
        handle.write(f"SPACING {grid.h!r} {grid.h!r} {grid.h!r}\n")
        handle.write(f"POINT_DATA {values.size}\n")
        handle.write("SCALARS u double 1\nLOOKUP_TABLE default\n")
        lines = np.full(values.size, "0.0\n", dtype=object)
        index, reprs = _nonzero_reprs(values.ravel(order="F"))
        lines[index] = [r + "\n" for r in reprs]
        handle.write("".join(lines))


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
    """Grid, weight field and zero set at the configured resolution."""
    grid = build_grid(config.domain, config.resolution)
    field = evaluate_weight(config.weight, grid)
    tol = config.tolerances
    zero = detect_zero_set(field, grid, eps_zero=tol.zero_threshold, band=tol.zero_band)
    return grid, field, zero


def _verify(config: RunConfig, values: np.ndarray, grid: Grid, field, zero) -> VerificationReport:
    """The paper's conclusions for one candidate field, at the configured tolerances."""
    tol, nonlinearity = config.tolerances, config.nonlinearity
    tolerances = VerifyTolerances.from_problem(
        nonlinearity.gamma, nonlinearity.s_star, grid,
        residual_scale=tol.residual_tol_scale, bounds_tol=tol.bounds_tol,
        zero_trace_tol=tol.zero_trace_tol)
    return check_conclusions(values, field, nonlinearity, grid, zero,
                             nonlinearity.s_star, tolerances)


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
    start = time.perf_counter()
    try:
        with stage("setup"):
            grid, field, zero = _setup(config)
        with stage("admissibility"):
            adm = report.admissibility = assess_admissibility(
                grid, field, zero, AdmissibilityOptions(
                    t_scan=tol.t_scan, a2_growth_tol=tol.a2_growth_tol,
                    lt_stable_tol=tol.lt_stable_tol, lt_growing_tol=tol.lt_growing_tol))
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
            for comp in decomposition.components:
                eigenpairs.append(dirichlet_lambda1(comp, grid, tol=tol.eig_tol,
                                                    max_iter=tol.eig_max_iter))
                report.f2_entries.append(check_hypothesis_f2(
                    comp, field, nonlinearity.gamma, eigenpairs[-1]))
            failing = [_comp_label(e.component_id)
                       for e in report.f2_entries if not e.passed]
            if failing:
                raise _FailedVerdict("f2", "spectral margin non-positive on "
                                     "component(s) " + ", ".join(failing))
        if solve:
            with stage("minimize"):
                options = SolverOptions(grad_tol_scale=tol.grad_tol_scale,
                                        max_iterations=tol.max_minimize_iterations,
                                        seed_min_exponent=tol.seed_min_exponent)
                bumps = {}
                for comp, eigen in zip(decomposition.components, eigenpairs):
                    energy = assemble_energy(comp, field, trunc, grid)
                    bump = bumps[comp.id] = minimize_energy(energy, eigen, options)
                    report.bumps.append(bump)
                    log.info("component %s: energy %.6g, %d iterations, "
                             "%d linear iterations", comp.id, bump.energy,
                             bump.iterations, bump.linear_iterations)
            with stage("enumerate"):
                solutions = enumerate_all(bumps, max_chi=config.enumeration.max_chi,
                                          allow_large=config.enumeration.allow_large)
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
                        verification=_verify(config, values, grid, field, zero)))
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
    """Re-verify an exported solution CSV against its configuration."""
    grid, field, zero = _setup(config)
    return _verify(config, read_solution_csv(field_file, grid), grid, field, zero)

"""Config-driven pipeline: hypotheses, decomposition, bumps, enumeration.

Stages run in order: admissibility of the weight, zero-set decomposition,
per-component eigenvalues and spectral margins, per-component energy
minimization, subset enumeration, verification.  A failed hypothesis stage
aborts the run with the violated condition named in the report; an invalid
weight or a solver that does not converge aborts it with a status naming
that failure.  Partial reports are still written.

All outputs are deterministic: reruns with an identical configuration
produce byte-identical report and solution files (timings are kept in
memory and logged, never serialized).
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .composition import MultiBumpSolution, bump_histogram, enumerate_all
from .energy import (BumpSolution, NonlinearitySpec, SolverOptions,
                     assemble_energy, minimize_energy, truncate_nonlinearity)
from .errors import (ConfigError, EmptyDecompositionError,
                     EnumerationSizeError, HypothesisViolationError,
                     InvalidNonlinearityError, InvalidWeightError,
                     NumericalFailureError, SeedFailureError)
from .grid import DomainSpec, Grid, build_grid
from .spectral import F2Entry, check_hypothesis_f2, dirichlet_lambda1
from .topology import Decomposition, decompose_components
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
        if self.status != "ok":
            return False
        if self.expected_solutions is None:
            # Hypothesis-only run: no solutions were requested.
            return True
        return bool(self.all_verified) and self.expected_solutions == len(self.solutions)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _comp_label(comp_id) -> str:
    return f"({comp_id[0]},{comp_id[1]})"


def render_report(report: RunReport) -> str:
    """Fixed-field plain-text rendering (deterministic, no timings)."""
    lines = []
    push = lines.append
    push("multibump run report")
    push(f"config-digest: {report.config_digest}")
    push(f"resolution: {report.resolution}")
    push(f"domain: {report.domain_kind}")
    push(f"weight: {report.weight_reference}")
    push(f"gamma: {_fmt(report.gamma)}")
    push(f"s-star: {_fmt(report.s_star)}")
    push(f"status: {report.status}")
    if report.violated_hypothesis:
        push(f"violated-hypothesis: ({report.violated_hypothesis})")
    if report.failure_message:
        push(f"failure: {report.failure_message}")
    adm = report.admissibility
    if adm is not None:
        push("")
        push("[admissibility]")
        push(f"levels: {adm.n_coarse} -> {adm.n_fine}")
        push(f"a2-estimate: {_fmt(adm.a2_estimate)}")
        push(f"a2-growth: {_fmt(adm.a2_growth)}")
        push(f"a2-divergent: {_fmt(adm.a2_divergent)}")
        for row in adm.lt_rows:
            push(f"lt t={_fmt(row.t)}: norm={_fmt(row.norm_fine)} "
                 f"growth={_fmt(row.growth)} growing={_fmt(row.growing)} "
                 f"stable={_fmt(row.stable)}")
        push(f"best-t: {_fmt(adm.best_t) if adm.best_t is not None else 'none'}")
        push(f"n-over-2: {_fmt(adm.n_over_2)}")
        push(f"zero-set-nodes: {adm.zero_count}")
        push(f"zero-set-touches-boundary: {_fmt(adm.touches_domain_boundary)}")
        push(f"verdict: {adm.verdict}")
    if report.chi is not None:
        push("")
        push("[decomposition]")
        push(f"chi: {report.chi}")
        push("j-counts: " + ", ".join(f"j{i}={c}" for i, c in sorted(report.j_counts.items())))
        for label, size in report.component_sizes.items():
            push(f"component {label}: nodes={size}")
    if report.f2_entries:
        push("")
        push("[spectral]")
        for entry in report.f2_entries:
            push(f"component {_comp_label(entry.component_id)}: "
                 f"lambda1={_fmt(entry.lambda1)} a-max={_fmt(entry.a_max)} "
                 f"margin={_fmt(entry.margin)} verdict={'pass' if entry.passed else 'fail'}")
    if report.bumps:
        push("")
        push("[bumps]")
        for bump in report.bumps:
            push(f"component {_comp_label(bump.component_id)}: "
                 f"energy={_fmt(bump.energy)} grad-norm={_fmt(bump.grad_norm)} "
                 f"min={_fmt(bump.min_value)} max={_fmt(bump.max_value)} "
                 f"iterations={bump.iterations} seed={_fmt(bump.seed_scale)}")
    if report.solutions:
        push("")
        push("[solutions]")
        push(f"count: {len(report.solutions)}")
        push(f"expected: {report.expected_solutions}")
        hist = bump_histogram([r.solution for r in report.solutions])
        push("histogram: " + ", ".join(f"n={n}:{c}" for n, c in hist.items()))
        for record in report.solutions:
            sol, ver = record.solution, record.verification
            push(f"solution {sol.label()}: n-bumps={sol.n_bumps} "
                 f"energy={_fmt(sol.energy)} residual={_fmt(ver.residual_norm)} "
                 f"min={_fmt(ver.min_value)} max={_fmt(ver.max_value)} "
                 f"zero-trace={_fmt(ver.zero_trace_max)} "
                 f"w11={_fmt(ver.w11_seminorm)} "
                 f"verified={_fmt(ver.passed)} file={record.filename}")
    if report.all_verified is not None:
        push("")
        push(f"all-verified: {_fmt(report.all_verified)}")
    push(f"overall: {'pass' if report.passed else 'fail'}")
    return "\n".join(lines) + "\n"


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready structure (no timings, keys sorted downstream)."""
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
        adm = report.admissibility
        out["admissibility"] = {
            "n_coarse": adm.n_coarse, "n_fine": adm.n_fine,
            "a2_coarse": adm.a2_coarse, "a2_estimate": adm.a2_estimate,
            "a2_growth": adm.a2_growth, "a2_divergent": adm.a2_divergent,
            "lt": [asdict(row) for row in adm.lt_rows],
            "best_t": adm.best_t, "n_over_2": adm.n_over_2,
            "zero_count": adm.zero_count,
            "touches_domain_boundary": adm.touches_domain_boundary,
            "verdict": adm.verdict,
        }
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


def check_hypotheses(config: RunConfig, grid: Grid | None = None):
    """Stages shared by `check` and `solve`: admissibility through (f2).

    Returns (report, context) where context carries the objects later
    stages need; on a hypothesis violation the report is finalized and
    context is None.
    """
    tol = config.tolerances
    report = RunReport(
        config_digest=config.digest(), resolution=config.resolution,
        domain_kind=config.domain.kind,
        weight_reference=config.weight.reference,
        gamma=config.nonlinearity.gamma, s_star=config.nonlinearity.s_star)

    t0 = time.perf_counter()
    if grid is None:
        grid = build_grid(config.domain, config.resolution)
    report.timings["grid"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    adm_opts = AdmissibilityOptions(
        eps_zero=tol.zero_threshold, band=tol.zero_band, t_scan=tol.t_scan,
        a2_growth_tol=tol.a2_growth_tol, lt_stable_tol=tol.lt_stable_tol,
        lt_growing_tol=tol.lt_growing_tol)
    try:
        adm = assess_admissibility(config.weight, config.domain, config.resolution,
                                   options=adm_opts, fine_grid=grid)
    except InvalidWeightError as exc:
        report.status = "invalid-weight"
        report.failure_message = str(exc)
        return report, None
    report.admissibility = adm
    report.zero_count = adm.zero_count
    report.timings["admissibility"] = time.perf_counter() - t0
    if adm.verdict != "admissible":
        report.status = "hypothesis-violation"
        report.violated_hypothesis = "a1" if adm.verdict == "zero-set-touches-boundary" else "a2"
        report.failure_message = f"admissibility verdict: {adm.verdict}"
        return report, None

    field = evaluate_weight(config.weight, grid)
    zero = detect_zero_set(field, grid, eps_zero=tol.zero_threshold, band=tol.zero_band)
    t0 = time.perf_counter()
    try:
        decomposition = decompose_components(grid, zero)
    except HypothesisViolationError as exc:
        report.status = "hypothesis-violation"
        report.violated_hypothesis = exc.hypothesis
        report.failure_message = str(exc)
        return report, None
    except EmptyDecompositionError as exc:
        report.status = "hypothesis-violation"
        report.violated_hypothesis = "a1"
        report.failure_message = str(exc)
        return report, None
    report.chi = decomposition.chi
    report.j_counts = decomposition.j_counts
    report.component_sizes = {_comp_label(c.id): c.node_count
                              for c in decomposition.components}
    report.timings["decomposition"] = time.perf_counter() - t0

    try:
        trunc = truncate_nonlinearity(config.nonlinearity)
    except InvalidNonlinearityError as exc:
        report.status = "hypothesis-violation"
        report.violated_hypothesis = "f1"
        report.failure_message = str(exc)
        return report, None

    t0 = time.perf_counter()
    eigenpairs = {}
    for comp in decomposition.components:
        try:
            eig = dirichlet_lambda1(comp, grid, tol=tol.eig_tol,
                                    max_iter=tol.eig_max_iter)
        except NumericalFailureError as exc:
            report.status = "numerical-failure"
            report.failure_message = str(exc)
            return report, None
        eigenpairs[comp.id] = eig
        report.f2_entries.append(
            check_hypothesis_f2(comp, field, config.nonlinearity.gamma, eig))
    report.timings["spectral"] = time.perf_counter() - t0
    if not all(e.passed for e in report.f2_entries):
        failing = [_comp_label(e.component_id) for e in report.f2_entries if not e.passed]
        report.status = "hypothesis-violation"
        report.violated_hypothesis = "f2"
        report.failure_message = ("spectral margin non-positive on component(s) "
                                  + ", ".join(failing))
        return report, None

    context = {"grid": grid, "field": field, "zero": zero,
               "decomposition": decomposition, "trunc": trunc,
               "eigenpairs": eigenpairs}
    return report, context


def run_pipeline(config: RunConfig, out_dir: str | Path | None = None,
                 write: bool = True) -> RunReport:
    """Full solve: hypotheses, bumps, enumeration, verification, outputs."""
    total0 = time.perf_counter()
    out_path = Path(out_dir if out_dir is not None else config.output_dir)
    report, context = check_hypotheses(config)
    if context is None:
        _finalize(report, out_path, write, total0)
        return report

    grid: Grid = context["grid"]
    field = context["field"]
    zero = context["zero"]
    decomposition: Decomposition = context["decomposition"]
    trunc = context["trunc"]
    tol = config.tolerances

    t0 = time.perf_counter()
    opts = SolverOptions(grad_tol_scale=tol.grad_tol_scale,
                         max_iterations=tol.max_minimize_iterations,
                         seed_min_exponent=tol.seed_min_exponent)
    bumps = {}
    try:
        for comp in decomposition.components:
            energy = assemble_energy(comp, field, trunc, grid)
            bump = minimize_energy(energy, context["eigenpairs"][comp.id], opts)
            bumps[comp.id] = bump
            report.bumps.append(bump)
            log.info("component %s: energy %.6g, %d iterations, %d linear iterations",
                     comp.id, bump.energy, bump.iterations, bump.linear_iterations)
    except (SeedFailureError, NumericalFailureError) as exc:
        report.status = "numerical-failure"
        report.failure_message = str(exc)
        _finalize(report, out_path, write, total0)
        return report
    report.timings["minimize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        solutions = enumerate_all(bumps, max_chi=config.enumeration.max_chi,
                                  allow_large=config.enumeration.allow_large)
    except EnumerationSizeError as exc:
        report.status = "enumeration-overflow"
        report.failure_message = str(exc)
        _finalize(report, out_path, write, total0)
        return report
    report.expected_solutions = 2 ** decomposition.chi - 1

    verify_tols = VerifyTolerances.from_problem(
        config.nonlinearity.gamma, config.nonlinearity.s_star, grid,
        residual_scale=tol.residual_tol_scale, bounds_tol=tol.bounds_tol,
        zero_trace_tol=tol.zero_trace_tol)
    if write:
        out_path.mkdir(parents=True, exist_ok=True)
    for rank, solution in enumerate(solutions, start=1):
        values = solution.field(grid)
        verification = check_conclusions(values, field, config.nonlinearity,
                                         grid, zero, config.nonlinearity.s_star,
                                         verify_tols)
        filename = f"solution_{rank:03d}.csv"
        if write:
            write_solution_csv(out_path / filename, values, grid)
            if config.export_vtk:
                write_solution_vtk(out_path / f"solution_{rank:03d}.vtk", values, grid)
        report.solutions.append(SolutionRecord(solution=solution,
                                               verification=verification,
                                               filename=filename))
    report.all_verified = all(r.verification.passed for r in report.solutions)
    report.status = "ok"
    report.timings["enumerate_verify"] = time.perf_counter() - t0
    _finalize(report, out_path, write, total0)
    return report


def write_outputs(report: RunReport, out_dir: str | Path) -> None:
    """Write report.txt and report.json (deterministic, no timings)."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    (out_path / "report.txt").write_text(render_report(report))
    (out_path / "report.json").write_text(
        json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n")


def _finalize(report: RunReport, out_path: Path, write: bool, total0: float) -> None:
    report.timings["total"] = time.perf_counter() - total0
    log.info("pipeline %s in %.2fs", report.status, report.timings["total"])
    if write:
        write_outputs(report, out_path)


def verify_solution_file(config: RunConfig, field_file: str | Path) -> VerificationReport:
    """Re-verify an exported solution CSV against its configuration."""
    grid = build_grid(config.domain, config.resolution)
    field = evaluate_weight(config.weight, grid)
    tol = config.tolerances
    zero = detect_zero_set(field, grid, eps_zero=tol.zero_threshold, band=tol.zero_band)
    values = read_solution_csv(field_file, grid)
    verify_tols = VerifyTolerances.from_problem(
        config.nonlinearity.gamma, config.nonlinearity.s_star, grid,
        residual_scale=tol.residual_tol_scale, bounds_tol=tol.bounds_tol,
        zero_trace_tol=tol.zero_trace_tol)
    return check_conclusions(values, field, config.nonlinearity, grid, zero,
                             config.nonlinearity.s_star, verify_tols)

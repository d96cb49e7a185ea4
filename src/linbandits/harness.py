"""Experiment orchestration: config parsing, multi-seed paired runs,
aggregation, and deterministic CSV/SVG/manifest outputs.

Within one run every policy consumes the identical arm-set stream and the
identical per-step noise draws (the noise substream is indexed by the step,
not by the chosen arm, which is distributionally the same because the noise
is arm-independent), so cross-policy comparisons are paired. Runs execute
concurrently when ``workers > 1``; outputs do not depend on the scheduling.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import math
import os
import re
from collections.abc import Iterable, Mapping
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import algorithms
from .algorithms import Inference, Kind, PolicyConfig, ScaleMode
from .environments import (
    ARM_SCALINGS,
    FAMILIES,
    BanditInstance,
    RegretTrace,
    make_instance,
    sample_arm_set,
)
from .linalg import ConfidenceParams
from .svgplot import LinePlot

POLICY_NAMES = ("lints", "lints_approx", "linbucb", "linbucb_approx")

@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; round-trips losslessly through the
    sectioned key=value config format. The field defaults are the config's
    defaults, and a field without one is a required config key."""

    family: str
    dim: int
    n_arms: int
    horizon: int
    n_runs: int
    base_seed: int
    policies: tuple[str, ...]
    name: str = "experiment"
    instance_seed: int | None = None
    theta: tuple[float, ...] | None = None
    noise_sd: float = 0.5
    arm_scaling: str = "ball"
    output_dir: str = "out"
    workers: int = 1
    lam: float = 1.0
    nu: float = 0.5
    s_bound: float | str = "auto"
    delta: float = 0.05
    gamma: float = 0.6
    approx_mode: str = "cov_only"
    posterior_scale: str = "auto"
    gamma_grid: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("dim", "n_arms", "horizon", "n_runs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.workers < 1:
            raise ValueError("workers must be a positive integer")
        for name in ("base_seed", "instance_seed"):
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0.0):
            raise ValueError("noise_sd must be finite and non-negative")
        if self.theta is not None:
            if not all(math.isfinite(v) for v in self.theta):
                raise ValueError("theta must be finite")
            if len(self.theta) != self.dim:
                raise ValueError(f"theta must have dim={self.dim} entries, got {len(self.theta)}")
        for name in ("name", "output_dir"):
            if not _round_trips(getattr(self, name)):
                raise ValueError(
                    f"{name} {getattr(self, name)!r} cannot be written to a config: "
                    "no line breaks, no surrounding blanks, and no ';' or '#' at the "
                    "start or after a blank"
                )
        if not self.policies:
            raise ValueError("at least one policy is required")
        for p in self.policies:
            if p not in POLICY_NAMES:
                raise ValueError(f"unknown policy {p!r}; valid: {POLICY_NAMES}")
        if len(set(self.policies)) != len(self.policies):
            raise ValueError("policies must be distinct")
        if self.arm_scaling not in ARM_SCALINGS:
            raise ValueError("arm_scaling must be 'ball' or 'sphere'")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if self.gamma_grid is not None:
            if not self.gamma_grid:
                raise ValueError("gamma_grid must be non-empty")
            if not all(0.0 < g < 1.0 for g in self.gamma_grid):
                raise ValueError("every gamma_grid level must lie in (0, 1)")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.approx_mode not in ("mean_and_cov", "cov_only"):
            raise ValueError("approx_mode must be 'mean_and_cov' or 'cov_only'")
        if self.posterior_scale not in ("auto", "unit", "confidence_radius"):
            raise ValueError(
                "posterior_scale must be 'auto', 'unit', or 'confidence_radius'"
            )
        if isinstance(self.s_bound, str):
            if self.s_bound != "auto":
                raise ValueError("s_bound must be a number or 'auto'")
        elif not (math.isfinite(self.s_bound) and self.s_bound > 0.0):
            raise ValueError("s_bound must be finite and positive")
        if self.family == "P3" and self.instance_seed is None:
            raise ValueError("family P3 requires instance_seed")
        if self.family == "custom" and self.theta is None:
            raise ValueError("family custom requires theta")
        # last: the checks above allow the instance, built once per config
        instance = make_instance(
            self.family,
            self.dim,
            self.n_arms,
            noise_sd=self.noise_sd,
            seed=self.instance_seed,
            theta=self.theta,
        )
        object.__setattr__(self, "_instance", instance)
        self.confidence()

    def instance(self) -> BanditInstance:
        return self._instance

    def resolved_s_bound(self) -> float:
        if self.s_bound == "auto":
            norm = self.instance().theta_norm
            if not norm > 0.0:
                raise ValueError("s_bound = auto is the norm of theta, which is 0; set s_bound")
            return norm
        return float(self.s_bound)

    def confidence(self) -> ConfidenceParams:
        return ConfidenceParams(
            nu=self.nu, lam=self.lam, s_bound=self.resolved_s_bound(), delta=self.delta
        )

    def _scale_mode(self, kind: Kind) -> ScaleMode:
        """Per-policy spread scaling. ``auto`` matches the reference
        experiments: the sampling policy uses the plain conjugate posterior
        (a unit Gaussian prior at ridge 1), while the quantile policy keeps
        the confidence-radius scaling whose level sensitivity it reports."""
        if self.posterior_scale == "auto":
            return ScaleMode.UNIT if kind is Kind.LINTS else ScaleMode.CONFIDENCE_RADIUS
        return ScaleMode(self.posterior_scale)

    def policy_configs(self) -> list[PolicyConfig]:
        conf = self.confidence()
        out = []
        for name in self.policies:
            kind = Kind.LINTS if name.startswith("lints") else Kind.LINBUCB
            inference = Inference(self.approx_mode) if name.endswith("_approx") else Inference.EXACT
            out.append(
                PolicyConfig(
                    kind=kind,
                    inference=inference,
                    confidence=conf,
                    horizon=self.horizon,
                    gamma=self.gamma if kind is Kind.LINBUCB else None,
                    scale_mode=self._scale_mode(kind),
                )
            )
        return out


# An inline comment starts at ';' or '#' when it opens the value or follows
# whitespace, so such text would be cut off when the config is read back.
_INLINE_COMMENT = re.compile(r"(^|\s)[;#]")


def _round_trips(text: str) -> bool:
    """Whether ``text`` survives being written as a config value and read back."""
    single_line = "\n" not in text and "\r" not in text
    return single_line and text == text.strip() and not _INLINE_COMMENT.search(text)


def _parser() -> configparser.ConfigParser:
    """Values are literal (``%`` is not interpolation syntax) and may carry the
    inline comments the README's config example uses."""
    return configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def _names(raw: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def _s_bound(raw: str) -> float | str:
    return raw if raw == "auto" else float(raw)


# Every config key, as (section, key) -> (ExperimentConfig field, parser), in
# the order save_config writes them. Defaults and required keys come from
# the dataclass fields.
CONFIG_KEYS = {
    ("experiment", "name"): ("name", str),
    ("experiment", "family"): ("family", str),
    ("experiment", "dim"): ("dim", int),
    ("experiment", "n_arms"): ("n_arms", int),
    ("experiment", "horizon"): ("horizon", int),
    ("experiment", "n_runs"): ("n_runs", int),
    ("experiment", "base_seed"): ("base_seed", int),
    ("experiment", "noise_sd"): ("noise_sd", float),
    ("experiment", "arm_scaling"): ("arm_scaling", str),
    ("experiment", "output_dir"): ("output_dir", str),
    ("experiment", "workers"): ("workers", int),
    ("experiment", "instance_seed"): ("instance_seed", int),
    ("experiment", "theta"): ("theta", _floats),
    ("model", "lambda"): ("lam", float),
    ("model", "nu"): ("nu", float),
    ("model", "s_bound"): ("s_bound", _s_bound),
    ("model", "delta"): ("delta", float),
    ("policies", "policies"): ("policies", _names),
    ("policies", "gamma"): ("gamma", float),
    ("policies", "approx_mode"): ("approx_mode", str),
    ("policies", "posterior_scale"): ("posterior_scale", str),
    ("sweep", "gamma_grid"): ("gamma_grid", _floats),
}


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a sectioned key=value config file; unknown sections
    or keys are rejected outright, and so is text that is not such a file."""
    parser = _parser()
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            # configparser's messages span lines; an error here is one line
            raise ValueError(" ".join(str(exc).split())) from exc
    if parser.defaults():
        # configparser copies [DEFAULT] keys into every section, so the loop
        # below would blame the first section for them
        key = next(iter(parser.defaults()))
        raise ValueError(f"key {key!r} in section [DEFAULT]: every key belongs in its own section")
    sections = {section for section, _ in CONFIG_KEYS}
    values: dict = {}
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        for key in parser[section]:
            if (section, key) not in CONFIG_KEYS:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            name, parse = CONFIG_KEYS[section, key]
            try:
                values[name] = parse(parser[section][key])
            except ValueError as exc:
                raise ValueError(f"key {key!r} in section [{section}]: {exc}") from exc
    unset = {f.name for f in fields(ExperimentConfig) if f.default is MISSING} - set(values)
    missing = sorted(key for (_, key), (name, _) in CONFIG_KEYS.items() if name in unset)
    if missing:
        raise ValueError(f"missing required config keys: {missing}")
    return ExperimentConfig(**values)


def _format_value(parse, value) -> str:
    if parse is _floats:
        return ",".join(repr(float(v)) for v in value)
    if parse is _names:
        return ", ".join(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_config(config: ExperimentConfig, path: str) -> None:
    """Serialize back to the sectioned format; load(save(c)) == c. A key
    whose value is None is left out, and so is a section left empty."""
    parser = _parser()
    for (section, key), (name, parse) in CONFIG_KEYS.items():
        value = getattr(config, name)
        if value is not None:
            if not parser.has_section(section):
                parser.add_section(section)
            parser[section][key] = _format_value(parse, value)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        parser.write(fh)


# ---------------------------------------------------------------------------
# Execution


@dataclass(frozen=True)
class AggregateResult:
    """Across-run mean and standard error of the cumulative regret."""

    mean_cumulative: np.ndarray
    stderr_cumulative: np.ndarray
    per_run_final: np.ndarray


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    traces: dict[str, list[RegretTrace]] = field(default_factory=dict)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.traces)

    def aggregate(self, label: str) -> AggregateResult:
        runs = np.stack([t.cumulative for t in self.traces[label]])
        mean = runs.mean(axis=0)
        if runs.shape[0] > 1:
            stderr = runs.std(axis=0, ddof=1) / math.sqrt(runs.shape[0])
        else:
            stderr = np.zeros_like(mean)
        return AggregateResult(
            mean_cumulative=mean,
            stderr_cumulative=stderr,
            per_run_final=runs[:, -1].copy(),
        )

    def aggregates(self) -> dict[str, AggregateResult]:
        return {label: self.aggregate(label) for label in self.labels}


def _run_streams(config: ExperimentConfig, run_idx: int):
    """Arm, noise, and per-policy rngs for one run, derived from disjoint
    spawn keys so scheduling cannot perturb them."""
    arm_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.base_seed, spawn_key=(run_idx, 0))
    )
    noise_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.base_seed, spawn_key=(run_idx, 1))
    )
    # keyed by the fixed policy-name table, so a policy's stream does not
    # depend on which other policies share the run
    policy_rngs = [
        np.random.default_rng(
            np.random.SeedSequence(
                entropy=config.base_seed,
                spawn_key=(run_idx, 2 + POLICY_NAMES.index(name)),
            )
        )
        for name in config.policies
    ]
    return arm_rng, noise_rng, policy_rngs


def _run_single(config: ExperimentConfig, run_idx: int) -> dict[str, RegretTrace]:
    """Step every policy through one run and return its regret traces.

    Each step draws one arm set and one noise value, and every policy in turn
    selects an arm from that set and updates, so the run holds one arm set
    at a time. When a step fails, the first failure in (step, policy) order
    is reported, with its policy and step.
    """
    policy_configs = config.policy_configs()
    arm_rng, noise_rng, policy_rngs = _run_streams(config, run_idx)

    t_max, d = config.horizon, config.dim
    theta = config.instance().theta_star
    states = [algorithms.init_policy(pcfg, d) for pcfg in policy_configs]
    inst = [np.zeros(t_max) for _ in policy_configs]
    for t in range(t_max):
        arms = sample_arm_set(d, config.n_arms, arm_rng, config.arm_scaling)
        vals = arms @ theta
        best = np.max(vals)
        noise = noise_rng.standard_normal() * config.noise_sd
        for p, (pcfg, prng) in enumerate(zip(policy_configs, policy_rngs)):
            try:
                idx = algorithms.select_arm(states[p], pcfg, arms, prng)
                inst[p][t] = float(best - vals[idx])
                states[p] = algorithms.update(states[p], arms[idx], float(vals[idx] + noise))
            except Exception as exc:
                raise RuntimeError(
                    f"run failed at seed={config.base_seed}+run {run_idx}, "
                    f"policy={pcfg.name}, step={t + 1}: {exc}"
                ) from exc
    return {
        pcfg.name: RegretTrace.from_instantaneous(regret)
        for pcfg, regret in zip(policy_configs, inst)
    }


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every configured policy on paired streams across all seeds."""
    result = ExperimentResult(config=config, traces={name: [] for name in config.policies})
    if config.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            run_outputs = list(
                pool.map(_run_single, [config] * config.n_runs, range(config.n_runs))
            )
    else:
        run_outputs = [_run_single(config, i) for i in range(config.n_runs)]
    for traces in run_outputs:
        for label, runs in result.traces.items():
            runs.append(traces[label])
    return result


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    label: str
    mean_final: float
    stderr_final: float


def sweep_config(config: ExperimentConfig, gamma_grid) -> ExperimentConfig:
    """The config a sweep over ``gamma_grid`` runs: only the
    quantile-selection policies, with the grid validated as a config
    ``gamma_grid``, so a bad level fails before any run or output."""
    bucb_only = tuple(p for p in config.policies if p.startswith("linbucb"))
    if not bucb_only:
        raise ValueError("sweep requires at least one quantile-selection policy")
    return replace(config, policies=bucb_only, gamma_grid=tuple(float(g) for g in gamma_grid))


def sensitivity_sweep(config: ExperimentConfig, gamma_grid) -> list[SweepRow]:
    """Re-run the quantile-selection policies across a grid of levels with
    shared streams, so the comparison across gamma is paired."""
    sweep = sweep_config(config, gamma_grid)
    rows: list[SweepRow] = []
    for g in sweep.gamma_grid:
        result = run_experiment(replace(sweep, gamma=g))
        for label, agg in result.aggregates().items():
            finals = agg.per_run_final
            stderr = (
                float(np.std(finals, ddof=1) / math.sqrt(finals.size))
                if finals.size > 1
                else 0.0
            )
            rows.append(SweepRow(g, label, float(np.mean(finals)), stderr))
    return rows


# ---------------------------------------------------------------------------
# Outputs


def _fmt_float(x: float) -> str:
    return repr(float(x))


def check_output_dir(path: str) -> None:
    """Fail before any run starts if the output location is unusable."""
    os.makedirs(path, exist_ok=True)
    if not os.access(path, os.W_OK):
        raise PermissionError(f"output directory {path!r} is not writable")


def write_csv(path: str, header: str, rows: Iterable[str]) -> None:
    """Write the header line and one line per already formatted row, each
    ending in a single newline."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def write_traces_csv(traces: Mapping[str, list[RegretTrace]], path: str) -> None:
    """One row per step of every run, labels in mapping order and runs in
    list order; the run's index in its list is its ``seed`` column."""
    rows = (
        f"{t},{_fmt_float(inst)},{_fmt_float(cum)},{label},{run_idx}"
        for label, runs in traces.items()
        for run_idx, trace in enumerate(runs)
        for t, (inst, cum) in enumerate(zip(trace.instantaneous, trace.cumulative), 1)
    )
    write_csv(path, "step,instant_regret,cum_regret,policy,seed", rows)


def write_aggregate_csv(aggregates: dict[str, AggregateResult], path: str) -> None:
    rows = (
        f"{t},{_fmt_float(mean)},{_fmt_float(stderr)},{label}"
        for label, agg in aggregates.items()
        for t, (mean, stderr) in enumerate(zip(agg.mean_cumulative, agg.stderr_cumulative), 1)
    )
    write_csv(path, "step,mean,stderr,policy", rows)


def _output_paths(output_dir: str, **names: str) -> dict[str, str]:
    """Check ``output_dir`` and place each named output in it, then the manifest."""
    check_output_dir(output_dir)
    return {
        kind: os.path.join(output_dir, name)
        for kind, name in {**names, "manifest": "manifest.cfg"}.items()
    }


def _write_plot_and_manifest(
    plot: LinePlot, config: ExperimentConfig, paths: dict[str, str]
) -> dict[str, str]:
    with open(paths["plot"], "w", newline="\n") as fh:
        fh.write(plot.render())
    save_config(config, paths["manifest"])
    return paths


def emit_outputs(result: ExperimentResult, output_dir: str) -> dict[str, str]:
    """Write the per-run trace CSV, the aggregate CSV, the regret plot, and a
    manifest that reproduces the run byte-for-byte."""
    paths = _output_paths(
        output_dir, traces="traces.csv", aggregate="aggregate.csv", plot="regret.svg"
    )
    aggregates = result.aggregates()
    write_traces_csv(result.traces, paths["traces"])
    write_aggregate_csv(aggregates, paths["aggregate"])
    plot = LinePlot(
        title=f"mean cumulative regret ({result.config.name})",
        x_label="step",
        y_label="cumulative regret",
    )
    for label, agg in aggregates.items():
        steps = np.arange(1, agg.mean_cumulative.shape[0] + 1)
        plot.add(label, steps, agg.mean_cumulative, agg.stderr_cumulative)
    return _write_plot_and_manifest(plot, result.config, paths)


def emit_sweep_outputs(
    rows: list[SweepRow], config: ExperimentConfig, output_dir: str
) -> dict[str, str]:
    """Write the sweep CSV, the final-regret-by-level plot, and the manifest."""
    paths = _output_paths(output_dir, sweep="sweep.csv", plot="sweep.svg")
    lines = (
        f"{_fmt_float(row.gamma)},{row.label},"
        f"{_fmt_float(row.mean_final)},{_fmt_float(row.stderr_final)}"
        for row in rows
    )
    write_csv(paths["sweep"], "gamma,policy,mean_final_regret,stderr_final_regret", lines)
    plot = LinePlot(
        title="final regret by quantile level", x_label="gamma", y_label="mean final regret"
    )
    for label in sorted({row.label for row in rows}):
        sub = [row for row in rows if row.label == label]
        plot.add(
            label,
            [row.gamma for row in sub],
            [row.mean_final for row in sub],
            [row.stderr_final for row in sub],
        )
    return _write_plot_and_manifest(plot, config, paths)

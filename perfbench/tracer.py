"""Span recorder for the traced run.

The recorder replaces module attributes and class methods that ``linbandits``
looks up at call time with timing wrappers, so nothing under ``src/`` changes.
Each wrapped call records a span (name, start, end, parent); spans stay in
memory until the traced iteration ends, when ``layer_metrics`` reduces them.
A layer's self time is its span time minus the time covered by its child
spans. High-frequency inner callables get count-only wrappers without a span.
"""

from __future__ import annotations

import collections
import inspect
import math
from time import perf_counter

# Per-layer metrics with their units, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "cli.main.self_s": "s",
    "harness.run_experiment.self_s": "s",
    "harness._run_single.calls": "count",
    "harness.emit_outputs.self_s": "s",
    "harness.write_traces_csv.self_s": "s",
    "harness.write_aggregate_csv.self_s": "s",
    "harness.save_config.self_s": "s",
    "harness.output_mb": "MB",
    "svgplot.LinePlot.render.self_s": "s",
    "environments.sample_arm_set.calls": "count",
    "environments.sample_arm_set.self_s": "s",
    "environments.arm_buffer_mb_computed": "MB",
    "algorithms.select_arm.calls": "count",
    "algorithms.select_arm.self_s": "s",
    "algorithms.select_arm.total_s": "s",
    "algorithms.select_arm.p50_us": "us",
    "algorithms.select_arm.p99_us": "us",
    "algorithms.update.calls": "count",
    "algorithms.update.self_s": "s",
    "algorithms.update.total_s": "s",
    "algorithms.update.p50_us": "us",
    "algorithms.update.p99_us": "us",
    "posterior.GaussianPosterior.init.calls": "count",
    "posterior.GaussianPosterior.init.self_s": "s",
    "posterior.cholesky_per_step": "count/step",
    "posterior.arm_value_quantiles.self_s": "s",
    "posterior.arm_value_quantiles.gflop_s_computed": "GFLOP/s",
    "posterior.sample.self_s": "s",
    "posterior.certify.self_s": "s",
    "posterior.certify.mb_computed": "MB",
    "linalg.rls_update.calls": "count",
    "linalg.rls_update.self_s": "s",
    "linalg.diag_update.self_s": "s",
    "linalg.beta.calls": "count",
    "normal.norm_ppf.calls": "count",
    "normal.norm_ppf.calls_per_step": "count/step",
    "normal.norm_ppf.self_s": "s",
    "normal.norm_pdf.calls_per_step": "count/step",
    "adversarial.run_adversarial_episode.self_s": "s",
    "adversarial.ts_adversary_sample.self_s": "s",
    "adversarial.ts_divergence.self_s": "s",
    "adversarial.bucb_divergence.self_s": "s",
    "adversarial.bucb_adversary_quantiles.self_s": "s",
    "adversarial.bucb_second_marginal_cdf.calls_per_step": "count/step",
    "divergence.alpha_divergence.closed_form_gaussian.calls": "count",
    "divergence.alpha_divergence.closed_form_gaussian.self_s": "s",
    "divergence.alpha_divergence.quadrature_1d.calls": "count",
    "divergence.alpha_divergence.quadrature_1d.self_s": "s",
    "divergence.alpha_divergence.monte_carlo.calls": "count",
    "divergence.alpha_divergence.monte_carlo.self_s": "s",
    "divergence.verify_invariance.self_s": "s",
    "verify.suite_divergence.self_s": "s",
    "verify.suite_concentration.self_s": "s",
    "verify.suite_quantile_shift.self_s": "s",
    "verify.checks": "count",
    "verify.checks_passed": "count",
    "trace.overhead_s": "s",
}

# Per-layer metrics that run.py fills from the iterations' wall times and
# the PASS/FAIL lines of ``linbandits verify``, not from spans.
FROM_RUN = ("verify.checks", "verify.checks_passed", "trace.overhead_s")

# Spans whose per-layer metrics are reported as calls / self_s / total_s /
# p50_us / p99_us wherever LAYER_UNITS names them.
_SPAN_STATS = ("calls", "self_s", "total_s", "p50_us", "p99_us")


def _quantile_flops(posterior, arms, *args, **kwargs) -> float:
    """2*K*d^2 for an exact (dense-covariance) quantile-score call, else 0."""
    if posterior.cov.ndim != 2:
        return 0.0
    k = len(arms)
    d = posterior.cov.shape[0]
    return 2.0 * k * d * d


def _projection_mb(fn):
    """samples x directions x 8 bytes: the projection array of one type-2
    certification call."""
    signature = inspect.signature(fn)

    def tag(*args, **kwargs) -> float:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["samples"] * bound.arguments["directions"] * 8 / 1e6

    return tag


class Recorder:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: list[float] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn, tag=None, rename=None):
        names, starts, ends, parents, tags, stack = (
            self.names, self.starts, self.ends, self.parents, self.tags, self._stack
        )

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            tags.append(tag(*args, **kwargs) if tag is not None else 0.0)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if rename is not None:
                names[idx] = rename(result)
            return result

        return wrapper

    def _count(self, name: str, fn, under: str | None = None):
        counts, names, stack = self.counts, self.names, self._stack
        if under is None:

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                if stack and names[stack[-1]].startswith(under):
                    counts[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced call site of the imported ``linbandits``."""
        import numpy

        from linbandits import (
            adversarial, algorithms, cli, divergence, harness, posterior, svgplot, verify,
        )

        gp = posterior.GaussianPosterior
        spans = [
            (cli, "main", "cli.main", {}),
            (harness, "run_experiment", "harness.run_experiment", {}),
            (harness, "_run_single", "harness._run_single", {}),
            (harness, "emit_outputs", "harness.emit_outputs", {}),
            (harness, "write_traces_csv", "harness.write_traces_csv", {}),
            (harness, "write_aggregate_csv", "harness.write_aggregate_csv", {}),
            (harness, "save_config", "harness.save_config", {}),
            (harness, "sample_arm_set", "environments.sample_arm_set", {}),
            (svgplot.LinePlot, "render", "svgplot.LinePlot.render", {}),
            (algorithms, "select_arm", "algorithms.select_arm", {}),
            (algorithms, "update", "algorithms.update", {}),
            (gp, "__post_init__", "posterior.GaussianPosterior.init", {}),
            (gp, "sample", "posterior.sample", {}),
            (gp, "arm_value_quantiles", "posterior.arm_value_quantiles", {"tag": _quantile_flops}),
            (verify, "certify_anti_concentration", "posterior.certify", {}),
            (verify, "certify_concentration_type1", "posterior.certify", {}),
            (
                verify, "certify_concentration_type2", "posterior.certify",
                {"tag": _projection_mb(verify.certify_concentration_type2)},
            ),
            (algorithms, "rls_update", "linalg.rls_update", {}),
            (adversarial, "rls_update", "linalg.rls_update", {}),
            (algorithms, "diag_update", "linalg.diag_update", {}),
            (algorithms, "beta", "linalg.beta", {}),
            (adversarial, "beta", "linalg.beta", {}),
            (posterior, "norm_ppf", "normal.norm_ppf", {}),
            (adversarial, "norm_ppf", "normal.norm_ppf", {}),
            (divergence, "norm_ppf", "normal.norm_ppf", {}),
            (verify, "norm_ppf", "normal.norm_ppf", {}),
            (adversarial, "run_adversarial_episode", "adversarial.run_adversarial_episode", {}),
            (adversarial, "ts_adversary_sample", "adversarial.ts_adversary_sample", {}),
            (adversarial, "ts_divergence", "adversarial.ts_divergence", {}),
            (adversarial, "bucb_divergence", "adversarial.bucb_divergence", {}),
            (adversarial, "bucb_adversary_quantiles", "adversarial.bucb_adversary_quantiles", {}),
            (verify, "verify_invariance", "divergence.verify_invariance", {}),
            (verify, "suite_divergence", "verify.suite_divergence", {}),
            (verify, "suite_concentration", "verify.suite_concentration", {}),
            (verify, "suite_quantile_shift", "verify.suite_quantile_shift", {}),
        ]
        by_route = {"rename": lambda res: f"divergence.alpha_divergence.{res.method.value}"}
        spans += [
            (verify, "alpha_divergence", "divergence.alpha_divergence", by_route),
            (divergence, "alpha_divergence", "divergence.alpha_divergence", by_route),
        ]
        for owner, attr, name, options in spans:
            self._patch(owner, attr, self._span(name, owner.__dict__[attr], **options))
        counted = [
            (adversarial, "norm_pdf", "normal.norm_pdf", None),
            (adversarial, "bucb_second_marginal_cdf", "adversarial.bucb_second_marginal_cdf", None),
            (numpy.linalg, "cholesky", "posterior.cholesky", "posterior."),
        ]
        for owner, attr, name, under in counted:
            self._patch(owner, attr, self._count(name, owner.__dict__[attr], under))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------

    def _times(self) -> tuple[list[float], list[float]]:
        """Duration and self time of every span."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        self_times = list(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                self_times[parent] -= durations[i]
        return durations, self_times

    def span_stats(self) -> dict[str, dict[str, float]]:
        """calls, self_s, total_s, p50_us and p99_us per span name."""
        durations, self_times = self._times()
        grouped: dict[str, list[int]] = collections.defaultdict(list)
        for i, name in enumerate(self.names):
            grouped[name].append(i)
        stats = {}
        for name, idx in grouped.items():
            ordered = sorted(durations[i] for i in idx)
            stats[name] = {
                "calls": len(idx),
                "self_s": sum(self_times[i] for i in idx),
                "total_s": sum(ordered),
                "p50_us": _nearest_rank(ordered, 0.50) * 1e6,
                "p99_us": _nearest_rank(ordered, 0.99) * 1e6,
            }
        return stats

    def exact_quantile_rate(self) -> float:
        """GFLOP/s of exact quantile-score calls: 2*K*d^2 flops per call over
        their self time."""
        _, self_times = self._times()
        flops, seconds = 0.0, 0.0
        for i, name in enumerate(self.names):
            if name == "posterior.arm_value_quantiles" and self.tags[i] > 0.0:
                flops += self.tags[i]
                seconds += self_times[i]
        return flops / seconds / 1e9 if seconds > 0.0 else 0.0


def _nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(rec: Recorder, steps: int, output_mb: float, arm_buffer_mb: float) -> dict:
    """Every LAYER_UNITS metric except those in FROM_RUN for one traced
    iteration; a layer the workload never reaches reads 0."""
    stats = rec.span_stats()
    per_step = 1.0 / steps if steps else 0.0
    certify_mb = max(
        (t for name, t in zip(rec.names, rec.tags) if name == "posterior.certify"), default=0.0
    )
    derived = {
        "harness.output_mb": output_mb,
        "environments.arm_buffer_mb_computed": arm_buffer_mb,
        "posterior.cholesky_per_step": rec.counts["posterior.cholesky"] * per_step,
        "posterior.arm_value_quantiles.gflop_s_computed": rec.exact_quantile_rate(),
        "posterior.certify.mb_computed": certify_mb,
        "normal.norm_ppf.calls_per_step": stats.get("normal.norm_ppf", {}).get("calls", 0) * per_step,
        "normal.norm_pdf.calls_per_step": rec.counts["normal.norm_pdf"] * per_step,
        "adversarial.bucb_second_marginal_cdf.calls_per_step": (
            rec.counts["adversarial.bucb_second_marginal_cdf"] * per_step
        ),
    }
    out = {}
    for metric in LAYER_UNITS:
        if metric in FROM_RUN:
            continue
        if metric in derived:
            out[metric] = float(derived[metric])
            continue
        span, stat = metric.rsplit(".", 1)
        if stat not in _SPAN_STATS:
            raise KeyError(f"no rule computes {metric}")
        out[metric] = float(stats.get(span, {}).get(stat, 0.0))
    return out

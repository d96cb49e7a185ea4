"""The three benchmark workloads.

Each workload is a list of ``linbandits`` command lines that one caller runs
back to back through ``linbandits.cli.main``, plus the config files those
command lines read, the amount of work they do, and what their outputs must
satisfy. Everything is derived from the benchmark seed; the package sees only
the generated files and flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NAMES = ("highdim", "adversarial", "verify")
DEFAULT_SEED = 20240601
# At the default seed a run workload draws its P3 instance from seed 7, as the
# paper's reference experiment does; other benchmark seeds shift it by the
# same offset as the stream seed.
REFERENCE_INSTANCE_SEED = 7
POLICIES = ("lints", "lints_approx", "linbucb", "linbucb_approx")
RUN_FILES = ("traces.csv", "aggregate.csv", "regret.svg", "manifest.cfg")
ADVERSARIAL_FILES = ("adversarial_traces.csv", "adversarial_budget.csv")
# Checks per suite of `linbandits verify` at its built-in seeds.
VERIFY_CHECKS = {"divergence": 6, "concentration": 5, "quantile-shift": 4}


@dataclass(frozen=True)
class Call:
    """One ``linbandits`` command line and what its outputs must satisfy."""

    label: str
    argv: tuple[str, ...]
    kind: str  # "run", "adversarial" or "verify"
    operations: int  # run x policy traces, episodes, or verify checks
    out: str | None = None  # output directory, relative to the work directory
    files: tuple[str, ...] = ()
    horizon: int = 0
    epsilon: float = 0.0
    linear_regret: bool = False  # the linbucb adversary forces R(T) = T


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    steps: int  # policy-steps, episode-steps, or verify checks per iteration
    arm_buffer_mb: float  # T*K*d*8 bytes per run, as the harness allocates it
    inputs: dict[str, str] = field(default_factory=dict)


def _run_config(name: str, seed: int, dim: int, arms: int, horizon: int, runs: int) -> str:
    instance_seed = (seed - DEFAULT_SEED + REFERENCE_INSTANCE_SEED) % 2**32
    return (
        "[experiment]\n"
        f"name = {name}\n"
        "family = P3\n"
        f"dim = {dim}\n"
        f"n_arms = {arms}\n"
        f"horizon = {horizon}\n"
        f"n_runs = {runs}\n"
        f"base_seed = {seed}\n"
        f"instance_seed = {instance_seed}\n"
        "output_dir = out\n"
        "\n"
        "[policies]\n"
        f"policies = {', '.join(POLICIES)}\n"
    )


def _run_workload(name: str, seed: int, dim: int, arms: int, horizon: int, runs: int) -> Workload:
    call = Call(
        label="run",
        argv=("run", f"{name}.cfg"),
        kind="run",
        operations=runs * len(POLICIES),
        out="out",
        files=RUN_FILES,
        horizon=horizon,
    )
    return Workload(
        name=name,
        calls=(call,),
        steps=runs * horizon * len(POLICIES),
        arm_buffer_mb=horizon * arms * dim * 8 / 1e6,
        inputs={f"{name}.cfg": _run_config(name, seed, dim, arms, horizon, runs)},
    )


def _adversarial_workload(seed: int, horizon: int, runs: int) -> Workload:
    alpha, epsilon = "2", "0.1"
    calls = []
    for policy in ("lints", "linbucb"):
        for control in (False, True):
            label = f"{policy}_{'control' if control else 'adversarial'}"
            argv = [
                "adversarial", "--policy", policy, "--alpha", alpha, "--epsilon", epsilon,
                "--mu1", "1", "--mu2", "0", "--horizon", str(horizon), "--runs", str(runs),
                "--seed", str(seed), "--output-dir", f"out/{label}",
            ]
            if control:
                argv.append("--control")
            calls.append(
                Call(
                    label=label,
                    argv=tuple(argv),
                    kind="adversarial",
                    operations=runs,
                    out=f"out/{label}",
                    files=ADVERSARIAL_FILES,
                    horizon=horizon,
                    epsilon=float(epsilon),
                    linear_regret=policy == "linbucb" and not control,
                )
            )
    return Workload(
        name="adversarial", calls=tuple(calls), steps=len(calls) * runs * horizon, arm_buffer_mb=0.0
    )


def _verify_workload(suites: tuple[str, ...]) -> Workload:
    # The suites run at their built-in seeds, as `linbandits verify` does by
    # default: the divergence suite's Monte-Carlo check fails at many other
    # seeds (see perfbench/README.md), so a seeded run would not measure a
    # workload on which every operation passes.
    calls = tuple(
        Call(label=s, argv=("verify", "--suite", s), kind="verify", operations=VERIFY_CHECKS[s])
        for s in suites
    )
    return Workload(
        name="verify", calls=calls, steps=sum(c.operations for c in calls), arm_buffer_mb=0.0
    )


def build(name: str, seed: int, toy: bool = False) -> Workload:
    """The workload ``name`` at ``seed``; ``toy`` shrinks every shape so the
    self-check runs in seconds."""
    if name == "highdim":
        return _run_workload(name, seed, *((6, 4, 40, 1) if toy else (200, 50, 1000, 1)))
    if name == "adversarial":
        return _adversarial_workload(seed, *((40, 1) if toy else (2000, 1)))
    if name == "verify":
        return _verify_workload(("quantile-shift",) if toy else tuple(VERIFY_CHECKS))
    raise ValueError(f"unknown workload {name!r}")


import dataclasses
import hashlib
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linbandits.harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    emit_outputs,
    emit_sweep_outputs,
    load_config,
    run_experiment,
    save_config,
    sensitivity_sweep,
    write_aggregate_csv,
    write_traces_csv,
)


def _tiny(**kw) -> ExperimentConfig:
    base = dict(
        family="P3",
        dim=4,
        n_arms=5,
        horizon=60,
        n_runs=3,
        base_seed=777,
        instance_seed=5,
        policies=("lints", "linbucb"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_round_trip(tmp_path):
    config = _tiny(gamma_grid=(0.5, 0.6), s_bound=1.25, workers=2)
    path = os.path.join(tmp_path, "config.cfg")
    save_config(config, path)
    assert load_config(path) == config
    # auto s_bound survives the round trip as the literal token
    auto = _tiny()
    save_config(auto, path)
    assert load_config(path) == auto


def test_unknown_keys_and_sections_rejected(tmp_path):
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write("[experiment]\nfamily = P1\nwhatever = 1\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(path)
    with open(path, "w") as fh:
        fh.write("[mystery]\nx = 1\n")
    with pytest.raises(ValueError, match="unknown config section"):
        load_config(path)
    with open(path, "w") as fh:
        fh.write("[experiment]\nfamily = P1\n")
    with pytest.raises(ValueError, match="missing required"):
        load_config(path)


@pytest.mark.parametrize(
    "section,key,raw,detail",
    [
        ("experiment", "dim", "three", "invalid literal for int() with base 10: 'three'"),
        ("policies", "gamma", "0.6x", "could not convert string to float: '0.6x'"),
        ("experiment", "theta", "0.5,x,1.0", "could not convert string to float: 'x'"),
    ],
    ids=["int", "float", "list"],
)
def test_unparsable_value_names_its_key(tmp_path, section, key, raw, detail):
    path = tmp_path / "bad.cfg"
    save_config(_tiny(family="custom", dim=3, theta=(0.5, 0.0, 1.0)), path)
    text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {raw}", path.read_text())
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_config(path)
    assert str(exc.value) == f"key {key!r} in section [{section}]: {detail}"


def test_default_section_keys_rejected_by_name(tmp_path):
    # configparser copies [DEFAULT] keys into every section; the error must
    # name [DEFAULT], not the first section they were copied into
    path = os.path.join(tmp_path, "default.cfg")
    save_config(_tiny(), path)
    with open(path) as fh:
        text = fh.read()
    for key in ("nu", "family"):
        with open(path, "w") as fh:
            fh.write(f"[DEFAULT]\n{key} = 0.5\n\n" + text)
        with pytest.raises(ValueError) as exc:
            load_config(path)
        message = str(exc.value)
        assert "[DEFAULT]" in message and repr(key) in message
        assert "[experiment]" not in message and "\n" not in message


def test_config_validation():
    with pytest.raises(ValueError):
        _tiny(policies=("lints", "lints"))
    with pytest.raises(ValueError):
        _tiny(policies=("ucb1",))
    with pytest.raises(ValueError):
        _tiny(family="P9")
    with pytest.raises(ValueError):
        _tiny(posterior_scale="always")
    with pytest.raises(ValueError):
        _tiny(family="P3", instance_seed=None)


def test_readme_config_block_loads_verbatim(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    path = os.path.join(tmp_path, "readme.cfg")
    with open(path, "w") as fh:
        fh.write(block)
    config = load_config(path)
    assert config.name == "p3-reference"
    assert config.instance_seed == 7
    assert config.workers == 1
    assert config.s_bound == "auto"
    assert config.policies == ("lints", "lints_approx", "linbucb", "linbucb_approx")
    assert config.gamma_grid == (0.5, 0.55, 0.6, 0.65, 0.7)


def test_config_table_names_every_field_once():
    names = [name for name, _ in CONFIG_KEYS.values()]
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))


def test_readme_config_block_names_every_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    section, written = None, set()
    for line in block.splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        if header:
            section = header.group(1)
            continue
        # the one optional key without a usable default is shown commented out
        key = re.match(r"[;\s]*(\w+)\s*=", line)
        if key:
            written.add((section, key.group(1)))
    assert written == set(CONFIG_KEYS)
    assert "; theta = " in block


_BARE = dict(family="P1", dim=3, n_arms=4, horizon=20, n_runs=2, base_seed=1, policies=("lints",))
_EVERY_KEY = dict(
    family="custom",
    dim=3,
    n_arms=4,
    horizon=20,
    n_runs=2,
    base_seed=9,
    policies=("linbucb", "lints_approx"),
    name="50%-full",
    instance_seed=4,
    theta=(0.5, -0.25, 1.0),
    noise_sd=0.3,
    arm_scaling="sphere",
    output_dir="out/x",
    workers=2,
    lam=2.0,
    nu=0.25,
    s_bound=1.5,
    delta=0.1,
    gamma=0.7,
    approx_mode="mean_and_cov",
    posterior_scale="unit",
    gamma_grid=(0.5, 0.8),
)


@pytest.mark.parametrize(
    "fields,digest",
    [
        (_BARE, "1c50e9c7cf3f37e2a3405515d750b03abfba7a3cbe8602b2535a1b5739ac048b"),
        (_EVERY_KEY, "b677bb4fa1df2f6c56ea8e4cdad854ae7e41f9609cb010837f9d272f281da143"),
    ],
    ids=["bare", "every-key"],
)
def test_saved_config_bytes_are_pinned(fields, digest, tmp_path):
    config = ExperimentConfig(**fields)
    path = tmp_path / "config.cfg"
    save_config(config, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert load_config(path) == config


def test_percent_in_name_round_trips(tmp_path):
    config = _tiny(name="50%-run", output_dir="out/100%")
    path = os.path.join(tmp_path, "config.cfg")
    save_config(config, path)
    assert load_config(path) == config


@settings(max_examples=200, deadline=None)
@given(
    name=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    noise_sd=st.floats(min_value=0.0, allow_infinity=False),
    s_bound=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_config_round_trip_or_rejection(name, noise_sd, s_bound):
    # every config that constructs survives save/load; the rest never constructs
    try:
        config = _tiny(name=name, noise_sd=noise_sd, s_bound=s_bound)
    except ValueError as exc:
        assert "cannot be written to a config" in str(exc)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.cfg")
        save_config(config, path)
        assert load_config(path) == config


@pytest.mark.parametrize("name", ["a ;b", "a #b", "a\t;b", ";lead", "#lead", " pad", "two\nlines"])
def test_names_that_cannot_round_trip_are_rejected(name):
    with pytest.raises(ValueError, match="cannot be written to a config"):
        _tiny(name=name)
    with pytest.raises(ValueError, match="cannot be written to a config"):
        _tiny(output_dir=name)
    _tiny(name="a;b#c")  # no blank before the marker: not a comment


@pytest.mark.parametrize(
    "field,value",
    [
        ("noise_sd", math.nan),
        ("noise_sd", -0.1),
        ("noise_sd", math.inf),
        ("base_seed", -1),
        ("instance_seed", -3),
        ("s_bound", 0.0),
        ("s_bound", -1.0),
        ("s_bound", math.inf),
        ("s_bound", math.nan),
        ("gamma_grid", (0.5, 1.5)),
        ("gamma_grid", (math.nan,)),
        ("gamma_grid", ()),
        ("theta", (1.0, 0.5)),
        ("lam", -1.0),
        ("nu", math.nan),
        ("theta", (0.0, 0.0, 0.0, 0.0)),
        ("gamma_grid", (0.6, 0.7, 0.6)),
    ],
)
def test_bad_numbers_rejected_before_any_run(field, value):
    # only the custom family reads a theta of the right length
    if not (field == "theta" and len(value) == 4):
        with pytest.raises(ValueError, match=field):
            _tiny(**{field: value})
    if field == "theta":
        with pytest.raises(ValueError, match=field):
            _tiny(family="custom", **{field: value})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_rejected(bad):
    with pytest.raises(ValueError, match="theta must be finite"):
        _tiny(family="custom", dim=2, theta=(1.0, bad))
    _tiny(family="custom", dim=2, theta=(1.0, 0.5))


def test_single_arm_single_step_has_zero_regret():
    config = _tiny(n_arms=1, horizon=1, n_runs=1, policies=("lints",))
    result = run_experiment(config)
    assert result.aggregate("lints").per_run_final[0] == 0.0


def test_runs_are_reproducible():
    config = _tiny()
    a = run_experiment(config)
    b = run_experiment(config)
    for label in a.labels:
        for ta, tb in zip(a.traces[label], b.traces[label]):
            assert np.array_equal(ta.instantaneous, tb.instantaneous)


def test_each_config_builds_its_instance_once(monkeypatch):
    from linbandits import harness

    calls = []
    make_instance = harness.make_instance

    def counted(*args, **kwargs):
        calls.append(args)
        return make_instance(*args, **kwargs)

    monkeypatch.setattr(harness, "make_instance", counted)
    config = _tiny()
    run_experiment(config)  # three runs of two policies
    assert len(calls) == 1
    sensitivity_sweep(config, (0.5, 0.6, 0.7))
    assert len(calls) == 1 + 1 + 3  # the sweep's config and one per level


def test_environment_streams_do_not_depend_on_policy_set():
    # paired comparisons need the arm/noise streams to be a function of the
    # run seed alone, not of which policies run on them
    solo = run_experiment(_tiny(policies=("lints",)))
    joint = run_experiment(_tiny(policies=("linbucb", "lints")))
    for a, b in zip(solo.traces["lints"], joint.traces["lints"]):
        assert np.array_equal(a.instantaneous, b.instantaneous)


def test_aggregate_matches_recomputation():
    config = _tiny()
    result = run_experiment(config)
    agg = result.aggregate("lints")
    runs = np.stack([t.cumulative for t in result.traces["lints"]])
    assert np.array_equal(agg.mean_cumulative, runs.mean(axis=0))
    assert np.allclose(
        agg.stderr_cumulative, runs.std(axis=0, ddof=1) / np.sqrt(runs.shape[0])
    )
    assert np.array_equal(agg.per_run_final, runs[:, -1])


def test_emit_outputs_files_and_shapes(tmp_path):
    config = _tiny(output_dir=str(tmp_path / "out"))
    result = run_experiment(config)
    paths = emit_outputs(result, config.output_dir)
    with open(paths["traces"]) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "step,instant_regret,cum_regret,policy,seed"
    assert len(lines) == 1 + config.horizon * config.n_runs * len(config.policies)
    with open(paths["aggregate"]) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "step,mean,stderr,policy"
    assert len(lines) == 1 + config.horizon * len(config.policies)
    svg = open(paths["plot"]).read()
    assert svg.startswith("<svg") and "polyline" in svg
    assert os.path.exists(paths["manifest"])


def test_aggregate_csv_recomputable_from_trace_csv(tmp_path):
    config = _tiny(output_dir=str(tmp_path / "out"))
    result = run_experiment(config)
    paths = emit_outputs(result, config.output_dir)

    per_run: dict[tuple[str, int], dict[int, float]] = {}
    with open(paths["traces"]) as fh:
        next(fh)
        for line in fh:
            step, _, cum, policy, seed = line.strip().split(",")
            per_run.setdefault((policy, int(seed)), {})[int(step)] = float(cum)
    with open(paths["aggregate"]) as fh:
        next(fh)
        for line in fh:
            step, mean, stderr, policy = line.strip().split(",")
            runs = np.array(
                [per_run[(policy, s)][int(step)] for s in range(config.n_runs)]
            )
            assert float(mean) == runs.mean()  # exact, repr round-trips floats
            expected = runs.std(ddof=1) / np.sqrt(runs.size)
            assert float(stderr) == pytest.approx(expected, abs=0.0, rel=1e-15)


def test_manifest_rerun_is_byte_identical(tmp_path):
    config = _tiny(output_dir=str(tmp_path / "first"))
    result = run_experiment(config)
    paths = emit_outputs(result, config.output_dir)

    manifest = load_config(paths["manifest"])
    rerun = run_experiment(manifest)
    second = emit_outputs(rerun, str(tmp_path / "second"))
    for key in ("traces", "aggregate", "plot"):
        assert open(paths[key], "rb").read() == open(second[key], "rb").read()


def test_parallel_scheduling_is_byte_identical(tmp_path):
    serial = _tiny(output_dir=str(tmp_path / "serial"), workers=1)
    parallel = _tiny(output_dir=str(tmp_path / "parallel"), workers=2)
    p1 = emit_outputs(run_experiment(serial), serial.output_dir)
    p2 = emit_outputs(run_experiment(parallel), parallel.output_dir)
    assert open(p1["traces"], "rb").read() == open(p2["traces"], "rb").read()
    assert open(p1["aggregate"], "rb").read() == open(p2["aggregate"], "rb").read()


def test_empty_results_produce_headers_only(tmp_path):
    from linbandits.harness import ExperimentResult

    config = _tiny()
    empty = ExperimentResult(config=config, traces={})
    paths = emit_outputs(empty, str(tmp_path / "empty"))
    assert open(paths["traces"]).read() == "step,instant_regret,cum_regret,policy,seed\n"
    assert open(paths["aggregate"]).read() == "step,mean,stderr,policy\n"
    assert "<svg" in open(paths["plot"]).read()


def test_sweep_rows_and_pairing(tmp_path):
    config = _tiny(policies=("lints", "linbucb"), horizon=150, n_runs=3)
    rows = sensitivity_sweep(config, (0.6, 0.999))
    # only the quantile-selection policy participates
    assert {row.label for row in rows} == {"linbucb"}
    by_gamma = {row.gamma: row.mean_final for row in rows}
    assert set(by_gamma) == {0.6, 0.999}
    assert all(np.isfinite(v) for v in by_gamma.values())
    # paired seeds: the over-conservative level cannot win
    assert by_gamma[0.999] >= by_gamma[0.6]
    paths = emit_sweep_outputs(rows, config, str(tmp_path / "sweep"))
    lines = open(paths["sweep"]).read().strip().split("\n")
    assert lines[0] == "gamma,policy,mean_final_regret,stderr_final_regret"
    assert len(lines) == 3

    with pytest.raises(ValueError):
        sensitivity_sweep(_tiny(policies=("lints",)), (0.5,))


def test_sweep_rejects_bad_level_before_any_run(monkeypatch):
    from linbandits import harness

    def no_run(*args, **kwargs):
        raise AssertionError("a level ran before the grid was checked")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    for grid in ((0.5, 1.5), (math.nan,), ()):
        with pytest.raises(ValueError, match="gamma_grid"):
            sensitivity_sweep(_tiny(), grid)


def test_run_failure_reports_context(monkeypatch):
    config = _tiny()
    from linbandits import harness

    # horizon mismatch cannot happen through the public API, so force a
    # failure by monkeypatching the selector
    original = harness.algorithms.select_arm

    def boom(*args, **kwargs):
        raise RuntimeError("kaput")

    monkeypatch.setattr(harness.algorithms, "select_arm", boom)
    with pytest.raises(RuntimeError, match="policy=lints, step=1"):
        harness._run_single(config, 0)

    # a failure of the second policy at step s is reported after the first
    # policy has made s calls and before it makes call s + 1
    step = 10
    calls = {"lints": 0, "linbucb": 0}

    def fail_late(state, pcfg, arms, rng):
        calls[pcfg.name] += 1
        if pcfg.name == "linbucb" and calls["linbucb"] == step:
            raise RuntimeError("kaput")
        return original(state, pcfg, arms, rng)

    monkeypatch.setattr(harness.algorithms, "select_arm", fail_late)
    with pytest.raises(RuntimeError, match=f"policy=linbucb, step={step}:"):
        harness._run_single(config, 0)
    assert calls == {"lints": step, "linbucb": step}


# SHA-256 of traces.csv and aggregate.csv for _BLOCK_GOLDEN, recorded with
# every arm set of a run drawn before its first step
_BLOCK_GOLDEN_TRACES = "20cb88f69c35bcefcc41a55a3cf67a079e1e1fce515b0fd0342ac5969b721abc"
_BLOCK_GOLDEN_AGGREGATE = "4de431d4ab1eac31bcf41da9f9e2008d793bac983d7305942b456abc98e1d7a1"
_BLOCK_GOLDEN = dict(
    family="P3",
    dim=20,
    n_arms=10,
    horizon=300,
    n_runs=2,
    base_seed=20240601,
    instance_seed=7,
    policies=("lints", "lints_approx", "linbucb", "linbucb_approx"),
)


def test_block_golden_outputs_are_pinned(tmp_path):
    result = run_experiment(ExperimentConfig(**_BLOCK_GOLDEN))
    write_traces_csv(result.traces, tmp_path / "traces.csv")
    write_aggregate_csv(result.aggregates(), tmp_path / "aggregate.csv")
    for name, digest in (
        ("traces.csv", _BLOCK_GOLDEN_TRACES),
        ("aggregate.csv", _BLOCK_GOLDEN_AGGREGATE),
    ):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def _block_replay(config: ExperimentConfig, run_idx: int, block: int) -> np.ndarray:
    """Per-policy instantaneous regret of one run when ``block`` arm sets are
    drawn at once and each policy steps through all of them before the next
    block is drawn."""
    from linbandits import algorithms, harness
    from linbandits.environments import sample_arm_set

    policy_configs = config.policy_configs()
    arm_rng, noise_rng, policy_rngs = harness._run_streams(config, run_idx)
    theta = config.instance().theta_star
    states = [algorithms.init_policy(pcfg, config.dim) for pcfg in policy_configs]
    regret = np.zeros((len(policy_configs), config.horizon))
    for start in range(0, config.horizon, block):
        steps = min(block, config.horizon - start)
        arm_sets = [
            sample_arm_set(config.dim, config.n_arms, arm_rng, config.arm_scaling)
            for _ in range(steps)
        ]
        noise = noise_rng.standard_normal(steps) * config.noise_sd
        for p, (pcfg, prng) in enumerate(zip(policy_configs, policy_rngs)):
            for i, arms in enumerate(arm_sets):
                vals = arms @ theta
                idx = algorithms.select_arm(states[p], pcfg, arms, prng)
                regret[p, start + i] = float(np.max(vals) - vals[idx])
                states[p] = algorithms.update(states[p], arms[idx], float(vals[idx] + noise[i]))
    return regret


@pytest.mark.parametrize("block", [1, 7, 300, 10_000])
def test_outputs_do_not_depend_on_block_length(block):
    from linbandits import harness

    # the run steps one arm set at a time; drawing the arm sets in blocks and
    # stepping each policy through a whole block gives the same bits, since
    # every stream is consumed in the same order. 7 does not divide the
    # horizon, so the last block is short, and 10 000 exceeds the horizon
    config = ExperimentConfig(**_BLOCK_GOLDEN)
    for run_idx in range(config.n_runs):
        traces = harness._run_single(config, run_idx)
        replay = _block_replay(config, run_idx, block)
        for p, pcfg in enumerate(config.policy_configs()):
            assert np.array_equal(traces[pcfg.name].instantaneous, replay[p])


# SHA-256 of traces.csv and aggregate.csv for the two approximate policies
# under the mean_and_cov approximation, recorded while every approximate
# policy still stepped a diagonal state alongside its design state
_MEAN_AND_COV_TRACES = "88caf9f9b1d4cbb2e0a21463974c975910bf1e08e49644826bc72e2eae5b2068"
_MEAN_AND_COV_AGGREGATE = "f74e104ec44305b9fb246a12875331a921a7f1e70ce957d12f5aebfd623e0916"


def test_mean_and_cov_outputs_are_pinned(tmp_path):
    config = ExperimentConfig(
        **dict(_BLOCK_GOLDEN, policies=("lints_approx", "linbucb_approx")),
        approx_mode="mean_and_cov",
    )
    result = run_experiment(config)
    write_traces_csv(result.traces, tmp_path / "traces.csv")
    write_aggregate_csv(result.aggregates(), tmp_path / "aggregate.csv")
    for name, digest in (
        ("traces.csv", _MEAN_AND_COV_TRACES),
        ("aggregate.csv", _MEAN_AND_COV_AGGREGATE),
    ):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_run_memory_does_not_grow_with_horizon():
    from linbandits import harness

    # all arm sets of this run take 64 MB; a run holds one of them at a time
    config = _tiny(dim=100, n_arms=40, horizon=2000, n_runs=1, policies=("lints_approx",))
    budget = 2**20
    assert config.horizon * config.n_arms * config.dim * 8 >= 64 * 10**6
    tracemalloc.start()
    try:
        harness._run_single(config, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget

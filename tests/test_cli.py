import hashlib
import os
import subprocess
import sys

import pytest

import linbandits
from linbandits import adversarial, verify
from linbandits.cli import main
from linbandits.harness import ExperimentConfig, save_config


def _write_config(tmp_path, **kw) -> str:
    base = dict(
        family="P3",
        dim=3,
        n_arms=4,
        horizon=40,
        n_runs=2,
        base_seed=11,
        instance_seed=3,
        policies=("lints", "linbucb"),
        output_dir=str(tmp_path / "out"),
    )
    base.update(kw)
    path = str(tmp_path / "config.cfg")
    save_config(ExperimentConfig(**base), path)
    return path


def test_run_command(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "mean final regret" in out
    assert os.path.exists(tmp_path / "out" / "traces.csv")
    assert os.path.exists(tmp_path / "out" / "regret.svg")
    assert os.path.exists(tmp_path / "out" / "manifest.cfg")


def test_sweep_command(tmp_path, capsys):
    path = _write_config(tmp_path, policies=("linbucb",))
    assert main(["sweep-gamma", path, "--grid", "0.5,0.7"]) == 0
    out = capsys.readouterr().out
    assert "gamma" in out
    assert os.path.exists(tmp_path / "out" / "sweep.csv")


def test_sweep_manifest_reruns_its_grid(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["sweep-gamma", path, "--grid", "0.5,0.7"]) == 0
    out = tmp_path / "out"
    first = (out / "sweep.csv").read_bytes()
    assert main(["sweep-gamma", str(out / "manifest.cfg")]) == 0
    assert (out / "sweep.csv").read_bytes() == first


def test_sweep_grid_from_the_file_keeps_the_manifest_bytes(tmp_path, capsys):
    path = _write_config(tmp_path, gamma_grid=(0.5, 0.7))
    assert main(["sweep-gamma", path]) == 0
    with open(path, "rb") as fh:
        assert (tmp_path / "out" / "manifest.cfg").read_bytes() == fh.read()


# SHA-256 of sweep.csv and sweep.svg per approx_mode, and of manifest.cfg per
# (approx_mode, workers), for `sweep-gamma --grid 0.5,0.7,0.9` on _SWEEP_GOLDEN
_SWEEP_GOLDEN_OUTPUTS = {
    "cov_only": (
        "fbc25b850216b76f488dec1e23eadf30c8de3d90831c712bf6c675613c0a4aaa",
        "e422f45e7a90149c15669066ff4064026cf686baea5d5703f3a5fb98c57a7eb3",
    ),
    "mean_and_cov": (
        "59a0db62d07ab0d1a290c25b54e8d43d60f0b613c29a6a3a29684b005b0d3648",
        "d8f304e5c07d32629e770d981f54b48f9374983d5478f9d5713ce4713bcfd155",
    ),
}
_SWEEP_GOLDEN_MANIFESTS = {
    ("cov_only", 1): "485c7c1e70c37951ab4936b619839a69838db2d0be03df25bc9bfd076dd8922d",
    ("cov_only", 2): "fb307df38382aefe4de2dc5285604c214a40f9a23425c15add79a41ac7db0c75",
    ("mean_and_cov", 1): "909340168fc54fde6d0b3ae128551b68650cb9dce90b298d46cb44dfbaa931c3",
    ("mean_and_cov", 2): "a22fe3bce84f95a0ee86b4ffcb3aec2c6a4f7e12559dafe03bad53b58a45c937",
}
_SWEEP_GOLDEN = dict(
    family="P3",
    dim=3,
    n_arms=3,
    horizon=20,
    n_runs=3,
    base_seed=20240601,
    instance_seed=7,
    policies=("lints", "linbucb", "linbucb_approx"),
    output_dir="out",
)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("approx_mode", ["cov_only", "mean_and_cov"])
def test_sweep_outputs_are_pinned(tmp_path, capsys, monkeypatch, approx_mode, workers):
    # a relative output_dir keeps the manifest bytes independent of tmp_path
    monkeypatch.chdir(tmp_path)
    config = ExperimentConfig(**_SWEEP_GOLDEN, approx_mode=approx_mode, workers=workers)
    save_config(config, "sweep.cfg")
    assert main(["sweep-gamma", "sweep.cfg", "--grid", "0.5,0.7,0.9"]) == 0
    digests = [
        hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in ("sweep.csv", "sweep.svg", "manifest.cfg")
    ]
    assert tuple(digests[:2]) == _SWEEP_GOLDEN_OUTPUTS[approx_mode]
    assert digests[2] == _SWEEP_GOLDEN_MANIFESTS[approx_mode, workers]


def test_sweep_requires_grid(tmp_path, capsys):
    path = _write_config(tmp_path, policies=("linbucb",))
    assert main(["sweep-gamma", path]) == 2
    assert "no gamma grid" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_adversarial_command(tmp_path, capsys):
    out_dir = str(tmp_path / "adv")
    code = main(
        [
            "adversarial",
            "--policy",
            "linbucb",
            "--alpha",
            "2.0",
            "--epsilon",
            "0.1",
            "--horizon",
            "50",
            "--runs",
            "2",
            "--output-dir",
            out_dir,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mean final regret over 2 runs: 50.00" in out
    header = open(os.path.join(out_dir, "adversarial_traces.csv")).readline().strip()
    assert header == "step,instant_regret,cum_regret,policy,seed"
    assert os.path.exists(os.path.join(out_dir, "adversarial_budget.csv"))


def test_adversarial_control_flag(capsys):
    assert (
        main(
            [
                "adversarial",
                "--policy",
                "lints",
                "--alpha",
                "2.0",
                "--epsilon",
                "0.1",
                "--horizon",
                "60",
                "--control",
            ]
        )
        == 0
    )
    assert "control" in capsys.readouterr().out


def test_verify_command(capsys):
    assert main(["verify", "--suite", "quantile-shift"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out.replace("FAILED", "")


@pytest.mark.parametrize(
    "suite,digest",
    [
        ("divergence", "ae216968e9aa6bb8e11f6fedd287f466415460110e2f21d0527ad94414f476f3"),
        ("quantile-shift", "3c4e3ad0f9a16658665dd880b00f4e7aef762c351633897556bb212015296fa0"),
    ],
)
def test_verify_divergence_stdout_is_pinned(capsys, suite, digest):
    # recorded while the divergence routes still had a Gaussian class of their own
    assert main(["verify", "--suite", suite]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_concentration_stdout_is_pinned(capsys):
    # recorded before the Type-II certificate stopped partitioning every row
    assert main(["verify", "--suite", "concentration"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == "92dbe13e0ba1485f55154565721379eafc46f3cc89615e3b97343286a397e2b4"


@pytest.mark.parametrize("flag", ["--runs", "--horizon"])
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_adversarial_counts_must_be_positive(tmp_path, capsys, monkeypatch, flag, value):
    def no_episode(**kwargs):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(adversarial, "run_adversarial_episode", no_episode)
    argv = ["adversarial", "--policy", "lints", "--alpha", "2.0", "--epsilon", "0.1",
            "--horizon", "20", "--output-dir", str(tmp_path / "adv"), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    usage, _, error = capsys.readouterr().err.rstrip("\n").rpartition("\n")
    assert usage.startswith("usage: linbandits adversarial")
    assert error == (
        f"linbandits adversarial: error: argument {flag}: "
        f"must be a positive integer, got '{value}'"
    )
    assert not os.path.exists(tmp_path / "adv")


@pytest.mark.parametrize("command", ["adversarial", "verify"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "adversarial":
        argv = ["adversarial", "--policy", "lints", "--alpha", "2.0", "--epsilon", "0.1",
                "--horizon", "20", "--output-dir", str(out)]
    else:
        argv = ["verify", "--suite", "quantile-shift"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    usage, _, error = capsys.readouterr().err.rstrip("\n").rpartition("\n")
    assert usage.startswith(f"usage: linbandits {command}")
    assert error == (
        f"linbandits {command}: error: argument --seed: "
        "must be a non-negative integer, got '-1'"
    )
    assert not os.path.exists(out)


def test_bounds_command(capsys):
    assert main(["bounds", "--preset", "default"]) == 0
    out = capsys.readouterr().out
    assert "kappa1=0.158655" in out
    assert "sampling-selection bound" in out
    assert "quantile-selection bound (type2, approximate" in out


def _bad_argv(tmp_path, monkeypatch, command):
    if command == "run":
        path = _write_config(tmp_path)
        with open(path, "a") as fh:
            fh.write("\n[bogus]\nkey = 1\n")
        return ["run", path], "unknown config section [bogus]"
    if command == "sweep-gamma":
        path = _write_config(tmp_path, policies=("linbucb",))
        return ["sweep-gamma", path, "--grid", "0.5,1.5"], "gamma_grid level must lie in (0, 1)"
    if command == "adversarial":
        argv = ["adversarial", "--policy", "lints", "--alpha", "-1", "--epsilon", "0.1",
                "--horizon", "10", "--output-dir", str(tmp_path / "out")]
        return argv, "alpha must be positive"
    # no verify option reaches a suite's ValueError, so a suite raises one
    def bad_suite(name, seed=None):
        raise ValueError("suite rejected its input")

    monkeypatch.setattr(verify, "run_suite", bad_suite)
    return ["verify", "--suite", "quantile-shift"], "suite rejected its input"


@pytest.mark.parametrize("command", ["run", "sweep-gamma", "adversarial", "verify"])
def test_value_error_prints_one_line(tmp_path, capsys, monkeypatch, command):
    argv, detail = _bad_argv(tmp_path, monkeypatch, command)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"linbandits {command}: error: ")
    assert detail in captured.err
    assert captured.err.count("\n") == 1
    # rejected before any output directory is made
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "policy,alpha,epsilon,detail",
    [
        ("lints", "nan", "0.1", "alpha must be finite, got nan"),
        ("linbucb", "nan", "0.1", "alpha must be finite, got nan"),
        ("lints", "2", "nan", "epsilon must be finite, got nan"),
        ("lints", "inf", "0.1", "alpha must be finite, got inf"),
        ("lints", "2", "1e-300", "budget epsilon=1e-300 is too small at alpha=2.0"),
        ("lints", "1", "1e-300", "budget epsilon=1e-300 is too small at alpha=1.0"),
    ],
)
def test_adversarial_budget_must_be_finite_and_feasible(tmp_path, capsys, policy, alpha,
                                                        epsilon, detail):
    argv = ["adversarial", "--policy", policy, "--alpha", alpha, "--epsilon", epsilon,
            "--horizon", "50", "--output-dir", str(tmp_path / "adv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"linbandits adversarial: error: {detail}")
    assert captured.err.count("\n") == 1
    assert not os.path.exists(tmp_path / "adv")


@pytest.mark.parametrize(
    "alpha,epsilon,detail",
    [
        ("nan", "0.1", "alpha must be finite, got nan"),
        ("inf", "0.1", "alpha must be finite, got inf"),
        ("2", "0", "epsilon must be positive"),
    ],
)
def test_adversarial_control_checks_its_budget(tmp_path, capsys, alpha, epsilon, detail):
    argv = ["adversarial", "--policy", "lints", "--alpha", alpha, "--epsilon", epsilon,
            "--horizon", "20", "--control", "--output-dir", str(tmp_path / "adv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"linbandits adversarial: error: {detail}\n"
    assert not os.path.exists(tmp_path / "adv")


@pytest.mark.parametrize(
    "extra,detail",
    [
        (["--mu1", "0", "--mu2", "1"], "the first arm must be strictly better"),
        (["--mu1", "inf"], "arm means must have a finite norm, got (inf, 0.0)"),
        (["--policy", "linbucb", "--control", "--gamma", "1.5"], "gamma must lie in (0, 1)"),
    ],
)
def test_adversarial_instance_and_gamma_fail_before_the_output_dir(tmp_path, capsys, extra,
                                                                   detail):
    argv = ["adversarial", "--policy", "lints", "--alpha", "2.0", "--epsilon", "0.1",
            "--horizon", "20", "--output-dir", str(tmp_path / "adv"), *extra]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"linbandits adversarial: error: {detail}\n"
    assert not os.path.exists(tmp_path / "adv")


def test_adversarial_checks_the_output_dir_before_any_episode(tmp_path, capsys, monkeypatch):
    def no_episode(**kwargs):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(adversarial, "run_adversarial_episode", no_episode)
    taken = tmp_path / "adv"
    taken.write_text("a file, not a directory\n")
    argv = ["adversarial", "--policy", "lints", "--alpha", "2.0", "--epsilon", "0.1",
            "--horizon", "20", "--output-dir", str(taken)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("linbandits adversarial: error: [Errno 17] File exists")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "line,detail",
    [
        ("lambda = -1", "lam must be a finite positive real"),
        ("nu = nan", "nu must be a finite non-negative real"),
    ],
)
def test_bad_model_numbers_fail_before_the_output_dir(tmp_path, capsys, line, detail):
    path = _write_config(tmp_path)
    key = line.split(" = ")[0]
    with open(path) as fh:
        text = "".join(
            f"{line}\n" if row.startswith(f"{key} = ") else row for row in fh
        )
    with open(path, "w") as fh:
        fh.write(text)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("linbandits run: error: ") and detail in err
    assert err.count("\n") == 1
    assert not os.path.exists(tmp_path / "out")


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(linbandits.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "linbandits", "bounds", "--preset", "small"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("preset small: d=5 T=500")


def test_sweep_bad_grid_entry_is_one_line(tmp_path, capsys):
    path = _write_config(tmp_path, policies=("linbucb",))
    assert main(["sweep-gamma", path, "--grid", "0.5,x"]) == 2
    assert capsys.readouterr().err.startswith("linbandits sweep-gamma: error: could not convert")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("source", ["flag", "file"])
def test_sweep_rejects_a_repeated_level(tmp_path, capsys, source):
    path = _write_config(tmp_path, policies=("linbucb",), gamma_grid=(0.5, 0.7))
    argv = ["sweep-gamma", path, "--grid", "0.6,0.6"]
    if source == "file":
        with open(path) as fh:
            text = fh.read().replace("gamma_grid = 0.5,0.7", "gamma_grid = 0.6,0.7,0.6")
        with open(path, "w") as fh:
            fh.write(text)
        argv = argv[:2]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "linbandits sweep-gamma: error: gamma_grid levels must be distinct\n"
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("grid", ["", " "], ids=["empty", "blank"])
def test_sweep_empty_grid_does_not_fall_back_to_the_file(tmp_path, capsys, grid):
    path = _write_config(tmp_path, policies=("linbucb",), gamma_grid=(0.5, 0.7))
    assert main(["sweep-gamma", path, "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("linbandits sweep-gamma: error: could not convert")
    assert err.count("\n") == 1
    assert not os.path.exists(tmp_path / "out")


def test_failed_run_keeps_its_traceback(tmp_path, monkeypatch):
    from linbandits import algorithms

    def broken(*args, **kwargs):
        raise ValueError("broken selection")

    monkeypatch.setattr(algorithms, "select_arm", broken)
    with pytest.raises(RuntimeError, match="policy=lints, step=1: broken selection"):
        main(["run", _write_config(tmp_path)])


def _unusable_config(tmp_path, case):
    path = tmp_path / "config.cfg"
    if case == "missing":
        return str(path), "No such file or directory"
    if case == "no-section-header":
        path.write_text("dim = 3\n[experiment]\nfamily = P1\n")
        return str(path), "File contains no section headers."
    if case == "repeated-key":
        path.write_text("[experiment]\ndim = 3\ndim = 4\n")
        return str(path), "option 'dim' in section 'experiment' already exists"
    return _write_config(tmp_path), "is not writable"


@pytest.mark.parametrize(
    "case", ["missing", "no-section-header", "repeated-key", "unwritable-output"]
)
def test_unusable_config_or_output_is_one_line(tmp_path, capsys, monkeypatch, case):
    path, detail = _unusable_config(tmp_path, case)
    if case == "unwritable-output":
        # the real check passes for a privileged user whatever the mode bits
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("linbandits run: error: ")
    assert detail in captured.err
    assert captured.err.count("\n") == 1
    assert not os.path.exists(tmp_path / "out" / "traces.csv")


@pytest.mark.parametrize(
    "policy,traces_digest",
    [
        ("lints", "b6f3425f34d8a65dfbcc8602204814d93c8e747091e210429628b1d59d84d3cd"),
        ("linbucb", "c89756198ede45a31adf23b487a5fb138b969e1f83c536695f91a232d6ba90ff"),
    ],
)
def test_adversarial_control_csvs_are_pinned(tmp_path, capsys, policy, traces_digest):
    out_dir = tmp_path / "adv"
    argv = ["adversarial", "--policy", policy, "--alpha", "2.0", "--epsilon", "0.1",
            "--horizon", "200", "--runs", "2", "--control", "--output-dir", str(out_dir)]
    assert main(argv) == 0
    for name, digest in (
        ("adversarial_traces.csv", traces_digest),
        ("adversarial_budget.csv", "c66574926ada0bf8b5ca1f36c0f990c5f66bcc76dbe037eb45abddb3a5d52bd6"),
    ):
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest

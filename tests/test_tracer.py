"""The benchmark's span recorder (``perfbench/tracer.py``) still finds every
name it wraps in the package, and puts every one back."""

import importlib.util
from pathlib import Path

import numpy as np

from linbandits.adversarial import run_adversarial_episode

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _recorder():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Recorder()


def test_recorder_installs_and_uninstalls_on_the_package():
    recorder = _recorder()
    try:
        recorder.install()  # a KeyError here names a traced attribute that is gone
        patches = list(recorder._patches)
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, attr
        # a control episode steps through the policy's select and update
        run_adversarial_episode(
            "linbucb", (1.0, 0.0), 2.0, 0.1, 5, np.random.default_rng(0), r=1.0
        )
    finally:
        recorder.uninstall()
    assert patches
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, attr
    stats = recorder.span_stats()
    for span in ("algorithms.select_arm", "algorithms.update", "linalg.rls_update", "linalg.beta"):
        assert stats[span]["calls"] == 5, span


def test_linbucb_adversary_reads_one_cdf_value_per_step():
    recorder = _recorder()
    try:
        recorder.install()
        run_adversarial_episode("linbucb", (1.0, 0.0), 2.0, 0.1, 5, np.random.default_rng(0))
    finally:
        recorder.uninstall()
    assert recorder.counts["adversarial.bucb_second_marginal_cdf"] == 5
    stats = recorder.span_stats()
    assert stats["adversarial.bucb_divergence"]["calls"] == 5
    assert "adversarial.bucb_adversary_quantiles" not in stats

"""What importing the package, and a short run, load from SciPy.

Short processes (one seed, one point of a sweep) pay for every module the
package imports, so each SciPy submodule is loaded by the first call that
uses it, not by ``import linbandits``. Names are imported from their modules,
as the README's library tour lists them; the package root re-exports none.
"""

import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import linbandits
from linbandits.harness import POLICY_NAMES, ExperimentConfig, save_config

_SRC = os.path.dirname(os.path.dirname(linbandits.__file__))
_HEAVY = {"scipy.linalg", "scipy.integrate", "scipy.optimize"}


def _scipy_modules_after(code: str, prefix: str = "scipy.") -> set[str]:
    """SciPy submodules (or the modules named ``prefix...``) in ``sys.modules``
    after a fresh interpreter runs ``code``."""
    script = (
        f"{code}\nimport sys, json\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=_SRC), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_loads_no_scipy_submodule():
    loaded = _scipy_modules_after("import linbandits, linbandits.cli")
    assert not loaded & (_HEAVY | {"scipy.special", "scipy.sparse", "scipy.stats"})


def test_import_builds_no_gauss_hermite_rule():
    # the quantile adversary builds its nodes at its first call
    assert not _scipy_modules_after("import linbandits.cli", prefix="numpy.polynomial")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "CONFIG"],
        ["sweep-gamma", "CONFIG", "--grid", "0.6,0.7"],
        ["bounds"],
        ["adversarial", "--policy", "linbucb", "--control", "--alpha", "2",
         "--epsilon", "0.1", "--horizon", "20"],
        ["verify", "--suite", "concentration"],
    ],
    ids=["run", "sweep-gamma", "bounds", "linbucb-control", "verify-concentration"],
)
def test_subcommand_loads_no_scipy_special(tmp_path, argv):
    # a float quantile level runs the package's ndtri port, not SciPy's
    path = str(tmp_path / "config.cfg")
    save_config(
        ExperimentConfig(
            family="P3", dim=3, n_arms=4, horizon=20, n_runs=1, base_seed=0,
            instance_seed=0, policies=POLICY_NAMES, output_dir=str(tmp_path / "out"),
        ),
        path,
    )
    argv = [path if a == "CONFIG" else a for a in argv]
    loaded = _scipy_modules_after(
        f"from linbandits.cli import main\nassert main({argv!r}) == 0"
    )
    assert not loaded & (_HEAVY | {"scipy.special"})


def test_linbucb_adversary_loads_only_scipy_special():
    loaded = _scipy_modules_after(
        "from linbandits.cli import main\n"
        "assert main(['adversarial', '--policy', 'linbucb', '--alpha', '2',"
        " '--epsilon', '0.1', '--horizon', '20']) == 0"
    )
    assert "scipy.special" in loaded
    assert not loaded & (_HEAVY | {"scipy.sparse"})


def test_lints_adversary_loads_only_scipy_special():
    # the certified step's region mass comes from the QUADPACK port
    loaded = _scipy_modules_after(
        "from linbandits.cli import main\n"
        "assert main(['adversarial', '--policy', 'lints', '--alpha', '2',"
        " '--epsilon', '0.1', '--horizon', '20']) == 0"
    )
    assert "scipy.special" in loaded
    assert not loaded & (_HEAVY | {"scipy.sparse"})


def test_package_root_defines_only_its_version():
    script = (
        "import json, sys, linbandits\n"
        "print(json.dumps([sorted(n for n in vars(linbandits) if not n.startswith('_')),"
        " sorted(m for m in sys.modules if m.startswith('linbandits.')),"
        " linbandits.__version__]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=_SRC), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    public, submodules, version = json.loads(done.stdout)
    assert public == [] and submodules == []
    assert version


def test_every_name_in_the_library_tour_imports_from_its_module():
    with open(os.path.join(os.path.dirname(_SRC), "README.md")) as fh:
        tour = fh.read().split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(linbandits\.\w+)` \| ([^|]+) \|", tour, re.M)
    assert len(rows) == 8
    for module, names in rows:
        mod = importlib.import_module(module)
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(mod, name), f"{module} has no {name}"

"""The QUADPACK QAGS port against ``scipy.integrate.quad``, bit for bit.

``quadpack.qags`` gives the certified LinTS adversary its region mass, which
``adversarial_budget.csv`` writes with ``repr``; so the port must return
``quad``'s value and error estimate to the last bit, and on hard integrands
also its error flag and subinterval count.
"""

import functools
import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from linbandits import adversarial, quadpack
from linbandits.normal import norm_pdf
from linbandits.quadpack import qags, qags_many


def _quad_mass(z0):
    lo = max(-38.0, z0 - 24.0)
    return integrate.quad(norm_pdf, lo, z0, epsabs=1e-12, limit=200)


def _mass_pair(z0):
    """hex (value, error estimate) of ``quad`` and of the port on the certified
    LinTS adversary's integral for ``z0``, and the port's value through
    ``adversarial``."""
    lo = max(-38.0, z0 - 24.0)
    got = qags(norm_pdf, lo, z0, epsabs=1e-12, epsrel=1.49e-8, limit=200)
    assert adversarial._gaussian_masses_below_quad([z0]) == [got[0]]
    return [v.hex() for v in _quad_mass(z0)], [v.hex() for v in got[:2]]


def _mismatches(zs):
    """z0 values where the port differs from ``quad``, one integral at a
    time and in batches of ``adversarial._CERTIFY_BLOCK``, as an episode
    certifies."""
    zs = [float(z0) for z0 in zs]
    out = []
    for z0 in zs:
        want, got = _mass_pair(z0)
        if want != got:
            out.append((z0.hex(), want, got))
    block = adversarial._CERTIFY_BLOCK
    for i in range(0, len(zs), block):
        batch = zs[i:i + block]
        got = adversarial._gaussian_masses_below_quad(batch)
        out += [(z0.hex(), "batch") for z0, g in zip(batch, got)
                if z0 > -38.0 and g != _quad_mass(z0)[0]]
    return out


def test_gaussian_mass_matches_quad_on_a_grid(monkeypatch):
    calls = []
    qelg = quadpack._qelg
    monkeypatch.setattr(quadpack, "_qelg", lambda *a: calls.append(1) or qelg(*a))
    zs = np.concatenate([
        np.linspace(-37.99, 59.99, 2001),
        np.linspace(-4.0, 4.0, 801),
        -14.0 + np.array([-1e-9, 0.0, 1e-9]),  # where the lower limit stops at -38
        [-37.999999, 1e-300, -0.0, 8.5, 37.5],
    ])
    assert _mismatches(zs) == []
    assert calls  # the extrapolation runs on part of the grid


@functools.cache
def _episode_blocks():
    """The z0 values of the first criterion-4 LinTS episode (alpha 2, epsilon
    0.1) in the blocks it certifies its 2,000 steps in."""
    blocks = []
    masses = adversarial._gaussian_masses_below_quad
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            adversarial, "_gaussian_masses_below_quad", lambda z0s: blocks.append(z0s) or masses(z0s)
        )
        rng = np.random.default_rng(np.random.SeedSequence(entropy=4242, spawn_key=(0,)))
        adversarial.run_adversarial_episode("lints", (1.0, 0.0), 2.0, 0.1, 2000, rng, gamma=0.9)
    return blocks


def test_gaussian_mass_matches_quad_over_a_certified_lints_episode():
    blocks = _episode_blocks()
    assert [len(b) for b in blocks] == [64] * 31 + [16]
    assert _mismatches([z0 for b in blocks for z0 in b]) == []


@pytest.mark.parametrize("size", [1, 64])
def test_a_batch_calls_the_density_once_per_subinterval_of_its_longest_integral(size):
    # the integrals of a batch advance in lockstep: the first call evaluates
    # every [a, b], each later one the two halves of every unfinished
    # integral's next bisection
    z0s = [z0 for b in _episode_blocks() for z0 in b]
    for i in range(0, len(z0s), size):
        calls = []

        def density(x):
            calls.append(x.size)
            return norm_pdf(x)

        ends = [(max(-38.0, z0 - 24.0), z0) for z0 in z0s[i:i + size]]
        results = qags_many(density, ends, epsabs=1e-12, epsrel=1.49e-8, limit=200)
        assert len(calls) == max(last for *_, last in results)
        assert calls[0] == 22 * len(ends)
        assert all(n % 44 == 0 for n in calls[1:])


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-38.0, max_value=60.0, exclude_min=True, exclude_max=True))
def test_gaussian_mass_matches_quad_property(z0):
    want, got = _mass_pair(z0)
    assert want == got


# Hard integrands, called one float at a time by quad and through a
# per-element loop by the port, so both see the same integrand bits.
_HARD = {
    "inv_sqrt": (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0),
    "log": (math.log, 0.0, 1.0),
    "sin_50x": (lambda x: math.sin(50.0 * x), 0.0, 3.0),
    "peak": (lambda x: 1.0 / (1e-6 + x * x), -1.0, 1.0),
    "x^-0.9": (lambda x: x**-0.9, 0.0, 1.0),
    "x^-1.5": (lambda x: x**-1.5, 0.0, 1.0),
}
_TOLERANCES = [(1.49e-8, 1.49e-8), (1e-12, 1e-10), (0.0, 1e-13), (1e-14, 0.0)]
# quad reports a nonzero error flag through its message only
_IER = {
    "maximum number of subdivisions": 1,
    "roundoff error is detected, which": 2,
    "Extremely bad integrand behavior": 3,
    "does not converge": 4,
    "probably divergent": 5,
}


def _quad_ier(out):
    if len(out) == 3:
        return 0
    (ier,) = [v for key, v in _IER.items() if key in out[3]]
    return ier


def _vectorised(g):
    return lambda xs: np.array([g(x) for x in xs.tolist()])


@pytest.mark.parametrize("name", sorted(_HARD))
def test_hard_integrands_match_quad_with_error_flag_and_subinterval_count(name):
    g, a, b = _HARD[name]
    for epsabs, epsrel in _TOLERANCES:
        for limit in (10, 50, 200):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                want = integrate.quad(
                    g, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1
                )
            got = qags(_vectorised(g), a, b, epsabs, epsrel, limit)
            case = (epsabs, epsrel, limit)
            assert (want[0].hex(), want[1].hex()) == (got[0].hex(), got[1].hex()), case
            assert (_quad_ier(want), want[2]["last"]) == (got[2], got[3]), case


@pytest.mark.parametrize(
    "name,epsabs,epsrel,limit,ier",
    [
        ("log", 1.49e-8, 1.49e-8, 50, 0),
        ("sin_50x", 1.49e-8, 1.49e-8, 10, 1),
        ("peak", 1e-14, 0.0, 50, 2),
        ("x^-0.9", 1e-14, 0.0, 50, 4),
        ("x^-1.5", 1.49e-8, 1.49e-8, 50, 5),
    ],
)
def test_hard_integrands_reach_each_error_flag_through_the_extrapolation(
    monkeypatch, name, epsabs, epsrel, limit, ier
):
    # the cases above cover every flag but 3 (bad behaviour at a point), and
    # each reaches dqelg
    calls = []
    qelg = quadpack._qelg
    monkeypatch.setattr(quadpack, "_qelg", lambda *a: calls.append(1) or qelg(*a))
    g, a, b = _HARD[name]
    assert qags(_vectorised(g), a, b, epsabs, epsrel, limit)[2] == ier
    assert calls


def test_a_batch_gives_each_interval_what_it_gets_alone():
    # qags_many advances the integrals of a batch in lockstep and evaluates
    # the rules they ask for in one density call a round; a rule depends on
    # its interval's ends only, so each result is still its interval's alone,
    # an interval repeated in the batch included
    def bits(results):
        return [(r.hex(), e.hex(), ier, last) for r, e, ier, last in results]

    assert qags_many(norm_pdf, []) == []
    for name in ("sin_50x", "peak", "log"):
        g, a, b = _HARD[name]
        f = _vectorised(g)
        intervals = [(a, b), (a, 0.5 * (a + b)), (0.25 * a + 0.75 * b, b), (a, b)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            want = [integrate.quad(g, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=50)[:2]
                    for lo, hi in intervals]
        got = qags_many(f, intervals, 1e-12, 1e-10, 50)
        assert bits(got) == bits([qags(f, lo, hi, 1e-12, 1e-10, 50) for lo, hi in intervals])
        assert [(r.hex(), e.hex()) for r, e, _, _ in got] == [(r.hex(), e.hex()) for r, e in want]


def test_epsilon_table_with_a_nan_difference_takes_the_converged_branch():
    # dqelg stops when `err2.gt.tol2 .or. err3.gt.tol3` is false, and a NaN
    # difference is greater than nothing: the table (nan, 1, 1) returns its
    # newest entry at once, keeping all three. quad cannot be the oracle
    # here, since SciPy's quad can crash on a NaN integrand.
    epstab = [0.0, math.nan, 1.0, 1.0] + [0.0] * (quadpack._LIMEXP - 1)
    n, result, abserr, nres = quadpack._qelg(3, epstab, [0.0, 0.0, 0.0], 0)
    assert (n, result, nres) == (3, 1.0, 1)
    assert math.isnan(abserr)


def test_invalid_limit_and_tolerance_are_rejected():
    with pytest.raises(ValueError, match="limit"):
        qags(norm_pdf, 0.0, 1.0, limit=0)
    with pytest.raises(ValueError, match="tolerance"):
        qags(norm_pdf, 0.0, 1.0, epsabs=0.0, epsrel=0.0)


def test_kronrod_rule_literals_to_30_digits():
    mpmath = pytest.importorskip("mpmath")
    literals = re.findall(r"0\.\d{30,}", inspect.getsource(quadpack))
    assert len(literals) == 10 + 11 + 5
    xgk, wgk, wg = literals[:10], literals[10:21], literals[21:]
    # the tuples hold the literals rounded to the nearest double
    assert tuple(map(float, xgk)) == quadpack._XGK
    assert tuple(map(float, wgk)) == quadpack._WGK
    assert tuple(map(float, wg)) == quadpack._WG
    tol = mpmath.mpf("1e-30")
    with mpmath.workdps(50):
        x = [mpmath.mpf(v) for v in xgk]
        gauss, g = x[1::2], [mpmath.mpf(v) for v in wg]
        for node in gauss:  # the Gauss abscissae are the roots of P_10
            assert abs(mpmath.legendre(10, node)) < tol
        for k in range(10):  # and the 10-point rule is exact through degree 19
            moment = 2 * sum(gj * n ** (2 * k) for gj, n in zip(g, gauss))
            assert abs(moment - mpmath.mpf(2) / (2 * k + 1)) < tol

        # Kronrod weights from the abscissae by the even moments through
        # degree 20; the rule they give is exact through degree 31 only if
        # the abscissae are right
        def moment_row(k):
            return [2 * n ** (2 * k) for n in x] + [1 if k == 0 else 0]

        exact = mpmath.lu_solve(
            mpmath.matrix([moment_row(k) for k in range(11)]),
            mpmath.matrix([mpmath.mpf(2) / (2 * k + 1) for k in range(11)]),
        )
        for k in range(11, 16):
            moment = sum(c * w for c, w in zip(moment_row(k), exact))
            assert abs(moment - mpmath.mpf(2) / (2 * k + 1)) < tol
        off = [abs(mpmath.mpf(v) - w) for v, w in zip(wgk, exact)]
        # QUADPACK prints wgk(7) 7.5e-22 off; it rounds to the same double
        assert off[6] < mpmath.mpf("1e-21")
        assert all(d < tol for j, d in enumerate(off) if j != 6)
        assert [float(w) for w in exact] == list(quadpack._WGK)

"""QUADPACK's QAGS (``dqagse``) in Python and numpy, pinned bit for bit to
the ``scipy.integrate.quad`` that runs it on a finite interval. It is the
package's one quadrature, with two callers: the certified LinTS
adversary's region masses (``adversarial.ts_divergences``) and the 1-d
divergence quadrature (``divergence._quadrature``, one integral per piece
between the laws' cuts).

Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner (1983): globally adaptive
bisection with the 21-point Gauss-Kronrod rule (``dqk21``), an error list
kept in descending order (``dqpsrt``) and Wynn's epsilon extrapolation
(``dqelg``). Every floating-point operation runs in QUADPACK's order, so
value, error estimate, ``ier`` and ``last`` match SciPy's (tests pin them on
the certified LinTS adversary's integrand, on the divergence quadrature of
cut-free pairs and on hard integrands).

What differs is how the work is batched. numpy evaluates ``dqk21`` on many
intervals at once (``_rules``): the nodes, the pair sums and the products
are elementwise, and each of the rule's four sums adds its terms one at a
time in QUADPACK's order (``np.add.accumulate``), so every rule keeps its
bits. ``_dqagse`` asks for the rules it needs next, [a, b] first and then
the two halves of each bisection, and ``qags_many`` moves a batch of
integrals forward in lockstep, with one call of the integrand per round on
the nodes every unfinished integral asked for. So the integrand must be
elementwise and accept a 1-D array of floats, and a batch makes as many
calls as its longest integral has subintervals. Loading ``scipy.integrate``
costs about 26 MB of resident memory; this module costs none.
"""

from __future__ import annotations

import sys

import numpy as np

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
_RESABS_FLOOR = _UFLOW / (0.5e2 * _EPMACH)
_LIMEXP = 50

# dqk21: Kronrod abscissae (xgk, the Gauss ones at the even indices 2, 4, ...,
# 10 in QUADPACK's 1-based numbering), Kronrod weights and Gauss weights.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067052903, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


# dqk21 adds its Kronrod terms in this order of the xgk indices (0-based):
# after the centre, the Gauss pairs at xgk(2), xgk(4), ..., xgk(10), then the
# pairs at xgk(1), xgk(3), ..., xgk(9)
_TERMS = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
# The nodes of a rule on [-1, 1], 22 columns: the centre, -xgk in _TERMS
# order, a spare column, +xgk in _TERMS order. Each pair of nodes sits 11
# columns apart, and the spare column's value is set to -0.0, which adds
# exactly nothing, so row[:11] + row[11:] is the centre and the pair sums.
_OFFSETS = np.array([0.0] + [-_XGK[j] for j in _TERMS] + [0.0] + [_XGK[j] for j in _TERMS])
_KRONROD = np.array([_WGK[10]] + [_WGK[j] for j in _TERMS])
_GAUSS = np.array(_WG)  # weights of the terms at columns 1 to 5
# resasc adds the same terms in xgk order: the centre, xgk(1), xgk(2), ...
_RESASC_ORDER = np.array([0] + [1 + _TERMS.index(j) for j in range(10)])


def _rules(f, ends):
    """``dqk21`` on each interval (a, b) of ``ends``, with one call of ``f``
    on all their nodes: per interval a list [result, abserr, resabs,
    resasc], with abserr as ``_finish`` takes it. Every node, product and sum
    rounds as in ``dqk21``, so the values have its bits; like QUADPACK's
    arithmetic, numpy's here sets no floating-point error."""
    lo, hi = np.array(ends, dtype=float).T
    with np.errstate(all="ignore"):
        centr = 0.5 * (lo + hi)
        hlgth = 0.5 * (hi - lo)
        x = np.multiply.outer(hlgth, _OFFSETS)
        x += centr[:, None]  # centr + hlgth * -xgk rounds as centr - hlgth * xgk
    x[:, 0] = centr  # not centr + 0.0, which turns -0.0 into 0.0
    y = np.empty((2,) + x.shape)  # f and |f| at the nodes
    y[0] = np.reshape(f(x.ravel()), x.shape)
    y[0, :, 11] = -0.0
    with np.errstate(all="ignore"):
        np.abs(y[0], out=y[1])
        terms = y[..., :11] + y[..., 11:]
        resk, resabs = np.add.accumulate(terms * _KRONROD, axis=-1)[..., -1]
        resg = np.add.accumulate(terms[0, :, 1:6] * _GAUSS, axis=-1)[:, -1]
        dev = np.abs(y[0] - (resk * 0.5)[:, None])
        dev[:, 11] = 0.0
        dev = (dev[:, :11] + dev[:, 11:]) * _KRONROD
        resasc = np.add.accumulate(dev[:, _RESASC_ORDER], axis=-1)[:, -1]
        dhlgth = np.abs(hlgth)
        out = np.empty((len(lo), 4))
        out[:, 0] = resk * hlgth
        out[:, 1] = np.abs((resk - resg) * hlgth)
        out[:, 2] = resabs * dhlgth
        out[:, 3] = resasc * dhlgth
    return out.tolist()


def _finish(rule):
    """The end of ``dqk21`` on a rule from ``_rules``: abserr scaled by
    min(1, (200 abserr / resasc)^1.5) and raised to the roundoff floor, in
    Python floats: numpy's ``power`` rounds ``x**1.5`` differently from the C
    library's ``pow`` on about 5 % of arguments in (0, 1).
    Return (result, abserr, resabs, resasc)."""
    result, abserr, resabs, resasc = rule
    if resasc != 0.0 and abserr != 0.0:
        ratio = 0.2e3 * abserr / resasc
        abserr = resasc * ratio**1.5 if ratio < 1.0 else resasc  # min(1, ratio^1.5)
    if resabs > _RESABS_FLOOR:
        abserr = max((_EPMACH * 0.5e2) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """``dqpsrt``: keep ``iord`` (0-based interval indices) in descending
    order of error after interval ``maxerr`` was bisected into itself and
    interval ``last - 1``; return the next (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[0], iord[1] = 0, 1
    else:
        errmax = elist[maxerr]
        while nrmax > 0:  # a bisection that raised the error moves it up
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last - 1]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd):  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                for k in range(jbnd - 1, i - 1, -1):  # insert errmin bottom-up
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last - 1
                        break
                    iord[k + 1] = isucc
                else:
                    iord[i] = last - 1
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd - 1] = maxerr
            iord[jupbn - 1] = last - 1
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """``dqelg``, Wynn's epsilon algorithm on the table ``epstab`` (1-based as
    in QUADPACK, slot 0 unused) of ``n`` entries; ``res3la`` holds the last
    three results. Return (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 0.5e1 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        res = epstab[k1 + 2]
        e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, res, max(err2 + err3, 0.5e1 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 0.1e1 / delta1 + 0.1e1 / delta2 - 0.1e1 / delta3
        if not abs(ss * e1) > 0.1e-3:  # irregular: cut the table
            n = i + i - 1
            break
        res = e1 + 0.1e1 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr = error
            result = res
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres - 1] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[2]) + abs(result - res3la[1]) + abs(result - res3la[0])
        res3la[0], res3la[1], res3la[2] = res3la[1], res3la[2], result
    return n, result, max(abserr, 0.5e1 * _EPMACH * abs(result)), nres


def qags(f, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """Integral of ``f`` over the finite interval [a, b] by ``dqagse``:
    ``(result, abserr, ier, last)``, with ``ier`` as ``quad``'s
    ``full_output`` reports it (0 success, 1 ``limit`` reached, 2 roundoff,
    3 bad integrand behaviour, 4 no convergence, 5 probably divergent) and
    ``last`` the number of subintervals. ``f`` maps a 1-D float64 array of
    abscissae to the integrand values elementwise."""
    return qags_many(f, [(a, b)], epsabs, epsrel, limit)[0]


def qags_many(f, intervals, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """``qags`` on each finite interval (a, b) of ``intervals``: a list of
    (result, abserr, ier, last). The integrals advance in lockstep: each
    round makes one call of ``f`` on the nodes of every rule the unfinished
    ones ask for, so memory grows with the batch."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if epsabs <= 0.0 and epsrel < max(0.5e2 * _EPMACH, 0.5e-28):
        raise ValueError("tolerance too small: raise epsabs or epsrel")
    runs = [_dqagse(float(a), float(b), epsabs, epsrel, limit) for a, b in intervals]
    out = [None] * len(runs)
    asks = {i: next(run) for i, run in enumerate(runs)}
    while asks:
        rules = _rules(f, [ends for ask in asks.values() for ends in ask])
        k = 0
        for i, ask in list(asks.items()):
            try:
                asks[i] = runs[i].send(rules[k:k + len(ask)])
            except StopIteration as done:
                out[i] = done.value
                del asks[i]
            k += len(ask)
    return out


def _dqagse(a, b, epsabs, epsrel, limit):
    """``dqagse`` on [a, b] as a generator: it yields the list of intervals
    whose ``dqk21`` rules it needs next, is sent those rules (from
    ``_rules``), and returns (result, abserr, ier, last)."""
    (rule,) = yield [(a, b)]
    result, abserr, defabs, resabs = _finish(rule)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 1.0e2 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, 1

    alist, blist, rlist, elist, iord = [a], [b], [result], [abserr], [0]
    rlist2 = [0.0] * (_LIMEXP + 3)
    rlist2[1] = result
    res3la = [0.0, 0.0, 0.0]
    errmax = abserr
    maxerr = 0
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = nres = ktmin = ierro = iroff1 = iroff2 = iroff3 = 0
    numrl2 = 2
    extrap = noext = False
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (0.1e1 - 0.5e2 * _EPMACH) * defabs else -1

    for last in range(2, limit + 1):
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        rule1, rule2 = yield [(a1, b1), (a2, b2)]
        area1, error1, _, defab1 = _finish(rule1)
        area2, error2, _, defab2 = _finish(rule2)

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 0.1e-4 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (0.1e1 + 0.1e3 * _EPMACH) * (abs(a2) + 0.1e4 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last - 1] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        iord.append(last - 1)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _sum(rlist), errsum, _final_ier(ier), last
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # is the interval to bisect next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 1
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect the
            # larger intervals first while any is left
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 0.1e-2 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[0]
        errmax = elist[maxerr]
        nrmax = 0
        extrap = False
        small *= 0.5
        erlarg = errsum

    # set the final result and error estimate
    if abserr == _OFLOW:
        return _sum(rlist), errsum, _final_ier(ier), last
    if ier + ierro != 0:
        if ierro == 3:
            abserr += correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _sum(rlist), errsum, _final_ier(ier), last
        elif abserr > errsum:
            return _sum(rlist), errsum, _final_ier(ier), last
        elif area == 0.0:
            return result, abserr, _final_ier(ier), last
    # test on divergence
    if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.1e-1):
        if area != 0.0:
            ratio = result / area
        else:  # IEEE division: +-inf, or nan for 0/0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = float(np.float64(result) / area)
        if 0.1e-1 > ratio or ratio > 0.1e3 or errsum > abs(area):
            ier = 6
    return result, abserr, _final_ier(ier), last


def _sum(rlist):
    """QUADPACK's global sum: the subinterval results added in list order
    (not ``sum``, which compensates the rounding from Python 3.12 on)."""
    total = 0.0
    for value in rlist:
        total += value
    return total


def _final_ier(ier):
    return ier - 1 if ier > 2 else ier

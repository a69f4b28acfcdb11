"""Gamma-family special functions on a log scale, plus sphere coordinate draws.

All radial geometry in this package flows through the regularized lower
incomplete gamma function P(a, x): for a spherically symmetric model in d
dimensions with a Gaussian prior, the prior mass inside radius r is
P(d/2, r^2 / (2 sigma^2)).  High-dimensional runs need that mass in its deep
tail: at d = 1000 the sampler walks down to ln P around -3700, far below the
smallest positive double (exp(-745)), so any routine that returns P itself is
pinned at zero there.  The functions here therefore compute and invert ln P
directly and never leave the log scale.

The split follows the standard numeric treatment: a power series for the lower
function when x <= a + 1, a modified Lentz continued fraction for the upper
function otherwise.  The inverse is a bracketed bisection/Newton hybrid in
u = ln x, which stays stable however deep the requested tail is.

The public functions of x take two kinds of x:

* a scalar (a Python float or a 0-d array) gives the bits of a 1-element
  array; in log_reg_lower_inc_gamma it runs the series or continued
  fraction in Python floats and finishes with the array path's numpy and
  ln Gamma calls (`_log_p_0d`), at a few microseconds per call;
* an array runs the series one block of x at a time, and each block
  stops when its own elements have converged; the later terms of a
  converged sum are below half an ulp of it, so the stop moves no bit.
  The continued fraction alone iterates over the whole array, until every
  element above a + 1 has converged, so an element that converged early
  takes further factors close to 1, and its last bit can depend on the
  other elements.

The inverse solver alone evaluates ln P and ln Q through private kernels
in Python floats that finish with `math` calls (`_log_p_float`,
`_log_q_float`), so their last bit may differ from the array path's.
Contour-map nodes, support floors and estimator truths all rest on the
inverse's bits.

ln Gamma is a port of the Cephes `lgam` routine (S. L. Moshier, 1989) for
x > 0 in Python floats: the same constants and the same operations in the
same order, so its bits equal those of scipy.special.gammaln, which calls the
same routine, while the package needs no scipy at run time.  math.lgamma is a
different algorithm and differs from it in the last bit on about half of
the shapes d/2.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "log_reg_lower_inc_gamma",
    "inv_log_reg_lower_inc_gamma",
    "sample_beta_first_coordinate",
]

_SERIES_MAX_TERMS = 20000
_CF_MAX_ITER = 20000
_CF_TINY = 1e-300
_LN_HALF = math.log(0.5)
# the series, contour queries and the contour table builds run in blocks
# whose temporaries stay in cache
_QUERY_BLOCK = 8192
# the bracket of the inverse solve reaches ln x = -745 (x = 0) or 709 (x
# overflows) from its start in at most about ten doublings
_BRACKET_DOUBLINGS = 64

# Cephes lgam: _LGAM_A is the Stirling correction series in 1/x^2, _LGAM_B
# and _LGAM_C the numerator and monic denominator of the rational on [2, 3).
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4,
           -3.31612992738871184744E5, -1.16237097492762307383E6,
           -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (-3.51815701436523470549E2, -1.70642106651881159223E4,
           -2.20528590553854454839E5, -1.13933444367982507207E6,
           -2.53252307177582951285E6, -2.01889141433532773231E6)
_LS2PI = 0.91893853320467274178     # ln sqrt(2 pi)
_MAXLGM = 2.556348e305              # ln Gamma overflows above this


def _blocks(n: int):
    """Slices that cover range(n) in runs of _QUERY_BLOCK."""
    return (slice(lo, min(lo + _QUERY_BLOCK, n))
            for lo in range(0, n, _QUERY_BLOCK))


def _lgam(x: float) -> float:
    """ln Gamma(x) for x > 0 (or NaN/inf, returned as given), Cephes lgam
    operation for operation."""
    if not math.isfinite(x):
        return x
    if x < 13.0:
        # shift into [2, 3) keeping the product of the shifts in z
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        num = _LGAM_B[0]                # polevl(x, B, 5)
        for c in _LGAM_B[1:]:
            num = num * x + c
        den = x + _LGAM_C[0]            # p1evl(x, C, 6)
        for c in _LGAM_C[1:]:
            den = den * x + c
        return math.log(z) + x * num / den
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p
               - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        series = _LGAM_A[0]             # polevl(p, A, 4)
        for c in _LGAM_A[1:]:
            series = series * p + c
        q += series / x
    return q


# the kernels ask for ln Gamma of the same one or two shapes on every
# series, continued-fraction and Newton evaluation
_gammaln = functools.lru_cache(maxsize=256)(_lgam)


def _series_sum(a: float, x: float) -> float:
    """sum_k c_k of _log_p_series in Python floats: the same operations in
    the same order as the array loop, so the same bits for one element."""
    term = 1.0
    total = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term *= x / (a + k)
        total += term
        if term <= 1e-17 * total:
            return total
    raise RuntimeError("incomplete gamma series failed to converge")


def _cf_value(a: float, x: float) -> float:
    """The continued fraction h of _log_q_cf in Python floats, bit for bit
    the array loop's value for one element."""
    b = x + 1.0 - a
    c = 1.0 / _CF_TINY
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = b + an / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete gamma continued fraction failed to converge")


def _log_p_float(a: float, x: float) -> float:
    """ln P(a, x) for the inverse solver, in Python floats finished with
    `math` calls; its last bit may differ from the array path's."""
    if x == 0.0:
        return -math.inf
    if x <= a + 1.0:
        return (a * math.log(x) - x - math.lgamma(a + 1.0)
                + math.log(_series_sum(a, x)))
    return math.log1p(-math.exp(_log_q_float(a, x)))


def _log_q_float(a: float, x: float) -> float:
    """ln Q(a, x) for the inverse solver, computed like _log_p_float."""
    if x == 0.0:
        return 0.0
    if x <= a + 1.0:
        return math.log(-math.expm1(_log_p_float(a, x)))
    return a * math.log(x) - x - math.lgamma(a) + math.log(_cf_value(a, x))


def _log_p_series(a, x):
    """ln P(a, x) by the ascending series; valid elementwise for x <= a + 1,
    and -inf at x = 0.

    P(a,x) = x^a e^-x / Gamma(a+1) * sum_k c_k with c_0 = 1 and
    c_k = c_{k-1} * x / (a + k).  In the valid region every term ratio is
    below 1, so the sum is between 1 and its term count and log(sum) is safe.
    The loop stops when every element of x has converged.
    """
    total = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term *= x / (a + k)
        total += term
        if np.all(term <= 1e-17 * total):
            break
    else:
        raise RuntimeError("incomplete gamma series failed to converge")
    with np.errstate(divide="ignore"):
        return a * np.log(x) - x - _gammaln(a + 1.0) + np.log(total)


def _log_q_cf(a, x):
    """ln Q(a, x) by the Lentz continued fraction; valid elementwise for x > a + 1."""
    x = np.asarray(x, dtype=float)
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _CF_TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _CF_MAX_ITER + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        np.copyto(d, _CF_TINY, where=np.abs(d) < _CF_TINY)
        c = b + an / c
        np.copyto(c, _CF_TINY, where=np.abs(c) < _CF_TINY)
        d = 1.0 / d
        delta = d * c
        h *= delta
        # 1e-15 is the practical floor: delta settles a few ulp away from 1.
        if np.all(np.abs(delta - 1.0) < 1e-15):
            break
    else:
        raise RuntimeError("incomplete gamma continued fraction failed to converge")
    return a * np.log(x) - x - _gammaln(a) + np.log(h)


def _validate_a(a):
    a = float(a)
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("shape parameter a must be positive and finite")
    return a


def log_reg_lower_inc_gamma(a, x):
    """ln P(a, x), scalar or array in x, exact into tails where P underflows.

    x must be >= 0; x = 0 maps to -inf.

    The series runs on one block of _QUERY_BLOCK entries of x at a time,
    each with its own series-region mask, and stops when that block's
    elements have converged; the continued fraction runs once on every
    element above a + 1.  A call peaks at the output, the continued
    fraction's region mask and block temporaries.
    """
    a = _validate_a(a)
    x_arr = np.asarray(x, dtype=float)
    if x_arr.ndim == 0:
        return _log_p_0d(a, float(x_arr))
    if np.any(x_arr < 0.0) or np.any(np.isnan(x_arr)):
        raise ValueError("x must be nonnegative")
    out = np.empty(x_arr.shape)
    flat_x = x_arr.reshape(-1)
    flat_out = out.reshape(-1)
    for b in _blocks(flat_x.size):
        x_block = flat_x[b]
        lower = x_block <= a + 1.0
        flat_out[b][lower] = _log_p_series(a, x_block[lower])
    upper = x_arr > a + 1.0
    if np.any(upper):
        # P = 1 - Q with Q < 0.5 here, so log1p loses nothing.
        out[upper] = np.log1p(-np.exp(_log_q_cf(a, x_arr[upper])))
    return out


def _log_p_0d(a: float, x: float) -> float:
    """log_reg_lower_inc_gamma of a 0-d array: the loops run in Python
    floats and the final value takes the array path's numpy and ln Gamma
    (_gammaln) calls, so the result equals the array path's bit for bit."""
    if math.isnan(x) or x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return -math.inf
    if x <= a + 1.0:
        return float(a * np.log(x) - x - _gammaln(a + 1.0)
                     + np.log(_series_sum(a, x)))
    log_q = a * np.log(x) - x - _gammaln(a) + np.log(_cf_value(a, x))
    return float(np.log1p(-np.exp(log_q)))


def _log_p_derivative_wrt_u(a, u, log_p):
    """d ln P / d u at u = ln x, given ln P there.

    d P/d x = x^(a-1) e^-x / Gamma(a), so
    d ln P/d u = exp(a u - e^u - ln Gamma(a) - ln P).
    """
    arg = a * u - math.exp(u) - _gammaln(a) - log_p
    # Hugely positive arg cannot occur (the derivative of a CDF in log-x is
    # bounded by a near the origin); guard anyway so a bad bracket cannot trap.
    return math.exp(min(arg, 700.0))


def _solve_monotone(func, deriv, target, lo, hi, tol):
    """Find u in [lo, hi] with func(u) = target for increasing func.

    Newton from the midpoint with bisection fallback; the bracket is
    maintained at every step.  Raises RuntimeError if 200 steps leave the
    residual above tol.
    """
    f_lo = func(lo) - target
    f_hi = func(hi) - target
    if f_lo > 0.0 or f_hi < 0.0:
        raise RuntimeError("root not bracketed")
    u = 0.5 * (lo + hi)
    for _ in range(200):
        f_u = func(u) - target
        if abs(f_u) < tol:
            return u
        if f_u > 0.0:
            hi = u
        else:
            lo = u
        d = deriv(u, f_u + target)
        step_ok = d > 0.0 and math.isfinite(d)
        if step_ok:
            u_new = u - f_u / d
            if not (lo < u_new < hi):
                step_ok = False
        if not step_ok:
            u_new = 0.5 * (lo + hi)
        if u_new == u:
            return u
        u = u_new
    raise RuntimeError("monotone solve did not converge in 200 steps")


def inv_log_reg_lower_inc_gamma(a, log_p):
    """Inverse of ln P(a, .): the x with ln P(a, x) = log_p.

    log_p must be <= 0; -inf maps to 0.  Works as deep in the lower tail as
    the preimage x is representable at all (ln x above roughly -730), which
    is what distinguishes it from probability-scale inverses.
    """
    a = _validate_a(a)
    log_p = float(log_p)
    if math.isnan(log_p) or log_p > 0.0:
        raise ValueError("log_p must be in [-inf, 0]")
    if log_p == -math.inf:
        return 0.0
    if log_p == 0.0:
        raise ValueError("p = 1 has no finite preimage")

    if log_p > _LN_HALF:
        # Upper half: solve on the Q side where the target is well conditioned.
        log_q = math.log(-math.expm1(log_p))
        def f(u):
            return -_log_q_float(a, math.exp(u))
        def df(u, f_at_u):
            # f_at_u is -ln Q at u, and
            # d(-lnQ)/du = (P'/Q) * x = exp(a u - e^u - lnGamma(a) - lnQ).
            return math.exp(min(a * u - math.exp(u) - _gammaln(a) + f_at_u, 700.0))
        target = -log_q
    else:
        def f(u):
            return _log_p_float(a, math.exp(u))
        def df(u, f_at_u):
            return _log_p_derivative_wrt_u(a, u, f_at_u)
        target = log_p

    # Initial guess from the leading series term: ln P ~ a u - lnGamma(a+1)
    # for small x; cap at the bulk scale ln(a) when that overshoots.
    u0 = (log_p + _gammaln(a + 1.0)) / a
    if u0 < -730.0:
        raise ValueError("tail too deep: preimage x underflows double precision")
    u0 = min(u0, math.log(a) + 5.0)
    lo = _expand_bracket(lambda u: f(u) > target, u0 - 2.0, -2.0)
    hi = _expand_bracket(lambda u: f(u) < target, u0 + 2.0, 2.0)
    u = _solve_monotone(f, df, target, lo, hi, tol=1e-12)
    return math.exp(u)


def _expand_bracket(outside, u, step):
    """The first of u, u + step, u + 3 step, ... (the step doubling each
    time) where outside is false; RuntimeError after _BRACKET_DOUBLINGS
    doublings."""
    for _ in range(_BRACKET_DOUBLINGS + 1):
        if not outside(u):
            return u
        u += step
        step *= 2.0
    raise RuntimeError("inverse incomplete gamma: no bracket after "
                       f"{_BRACKET_DOUBLINGS} doublings")


def sample_beta_first_coordinate(d, rng, size):
    """Array of the given shape of first coordinates of uniform points on
    the unit (d-1)-sphere.

    Uses the marginal law: u1^2 ~ Beta(1/2, (d-1)/2) with a random sign.
    O(1) work per draw in any dimension; d = 1 gives an exact random sign.
    """
    d = int(d)
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d == 1:
        return np.where(rng.integers(0, 2, size=size) == 0, -1.0, 1.0)
    b = rng.beta(0.5, 0.5 * (d - 1), size=size)
    sign = np.where(rng.integers(0, 2, size=size) == 0, -1.0, 1.0)
    return sign * np.sqrt(b)

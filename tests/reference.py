"""Reference implementations that only the tests read.

* The four-coefficient contour table and its evaluation, as `ContourMap`
  held and queried them before it kept node values and slopes alone: the
  tests require the node-value query (`models._pchip_eval`) to give their
  bits.
* ln P with the series run over the whole array until its slowest element
  has converged, as `specialfn.log_reg_lower_inc_gamma` ran it before it
  stopped the series block by block: the tests require the blocked call
  to give its bytes.
* ln X of a likelihood contour by the 0-d array route the sampler's
  region ends took before `models.log_x_from_log_likelihood` kept only its
  float path: the tests require the float path to give its bits.
* Oracles that no CLI path calls: the posterior peak in ln X, the
  radius-domain evidence quadrature, ln Q, P and its inverse on the
  probability scale and ln Gamma of an array.  Their tests and pins stay
  with them.
* Run quantities and estimator ids that only the tests read, moved out of
  the package unchanged: the expected ln X of each point, the normalised
  posterior weights, the information content (the effective number of
  posterior samples) and one `EstimatorId` per estimator kind the tests
  name.
"""

import math

import numpy as np

from varlive import models as md
from varlive import runs
from varlive import specialfn as sf
from varlive.analysis import EstimatorId


# ---------------------------------------------------------------------------
# Run quantities and estimator ids

LOG_Z = EstimatorId("log_z")
MEAN_THETA1 = EstimatorId("mean_theta1")
MEDIAN_THETA1 = EstimatorId("median_theta1")
MEAN_RADIUS = EstimatorId("mean_radius")
MEDIAN_RADIUS = EstimatorId("median_radius")


def log_prior_volumes(run: runs.NestedRun) -> np.ndarray:
    """E[ln X_i] = -sum_{k<=i} 1/n_k (deterministic expectation, no sampled
    shrinkage ratios)."""
    counts = runs.live_point_counts(run)
    if counts.shape[0] == 0:
        return runs._EMPTY_F.copy()
    return -np.cumsum(1.0 / counts)


def posterior_weights(run: runs.NestedRun) -> np.ndarray:
    """Simplex weights p_i proportional to w_i L_i; sums to exactly 1."""
    return runs._normalised_weights(runs.point_log_weights(run) + run.log_l)


def information_content(run: runs.NestedRun) -> float:
    """Effective number of posterior samples, exp of the weight entropy."""
    p = posterior_weights(run)
    nz = p[p > 0.0]
    return float(np.exp(-np.sum(nz * np.log(nz))))


# ---------------------------------------------------------------------------
# The four-coefficient contour table


def reference_pchip_table(x: np.ndarray, y: np.ndarray):
    """Coefficients (c0, c1, c2, c3) of the monotone cubic Hermite
    interpolant through strictly increasing nodes x and values y, for at
    least three nodes.  Entry k of each array holds interval k,
    [x[k], x[k+1]], where the value at s = q - x[k] is
    ((c3 + c2 s) + c1 s^2) + c0 s^3.  The last entry has no interval and is
    NaN; `reference_pchip_eval` sends every query outside the nodes there.
    y is taken over as c3, so the caller passes an array it owns."""
    c0, c1 = np.empty(y.size), np.empty(y.size)
    d = c2 = np.zeros(y.size)  # node slopes, c2 once the last is dropped
    m = c1[:-1]  # interval slopes, turned into c1 in place below
    np.subtract(y[1:], y[:-1], out=m)
    for b in md._blocks(m.size):
        m[b] /= md._spacings(x, b)
    m0, m1, slopes = m[:-1], m[1:], d[1:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for b in md._blocks(slopes.size):
            h0, h1 = md._spacings(x[:-1], b), md._spacings(x[1:], b)
            w1 = 2.0 * h1
            w1 += h0
            w2 = 2.0 * h0
            w2 += h1
            den = w1 + w2
            w1 /= m0[b]
            w2 /= m1[b]
            w1 += w2
            w1 /= den
            same_sign = (m0[b] > 0.0) & (m1[b] > 0.0)
            same_sign |= (m0[b] < 0.0) & (m1[b] < 0.0)
            np.divide(1.0, w1, out=slopes[b], where=same_sign)
    xs = x.item
    d[0] = md._pchip_end_slope(xs(1) - xs(0), xs(2) - xs(1),
                               m.item(0), m.item(1))
    d[-1] = md._pchip_end_slope(xs(-1) - xs(-2), xs(-2) - xs(-3),
                                m.item(-1), m.item(-2))

    d_left, d_right, cubic = d[:-1], d[1:], c0[:-1]
    for b in md._blocks(m.size):
        t, mb, hb = cubic[b], m[b], md._spacings(x, b)
        np.add(d_left[b], d_right[b], out=t)
        t -= 2.0 * mb
        t /= hb
        mb -= d_left[b]
        mb /= hb
        mb -= t
        t /= hb
    c0[-1] = c1[-1] = c2[-1] = np.nan
    # the evaluation sums from 0.0, which turns a -0.0 node value into 0.0
    np.add(y[:-1], 0.0, out=y[:-1])
    y[-1] = np.nan
    return c0, c1, c2, y


def reference_pchip_nodes(x: np.ndarray) -> np.ndarray:
    """Nodes x turned, in place, into the search array of
    `reference_pchip_eval`: the interval starts, then the float just above
    x[-1].  q == x[-1] falls in the last interval; q beyond it or NaN falls
    in the NaN entry, and so does q below x[0], whose index -1 wraps around
    to it."""
    x[-1] = np.nextafter(x[-1], np.inf)
    return x


def reference_pchip_eval(nodes: np.ndarray, tables, q: np.ndarray) -> list:
    """Values at q of `reference_pchip_table` interpolants over the same
    nodes, one array per table, from one interval search: the power sum in
    the order of scipy's PPoly evaluation, NaN outside the nodes, in blocks
    that write into one preallocated output per table."""
    flat = q.reshape(-1)
    out = [np.empty(flat.size) for _ in tables]
    for b in md._blocks(flat.size):
        qb = flat[b]
        k = nodes.searchsorted(qb, side="right") - 1
        s = qb - nodes[k]
        s2 = s * s
        s3 = s2 * s
        for (c0, c1, c2, c3), o in zip(tables, out):
            value = np.multiply(c2[k], s, out=o[b])
            value += c3[k]
            value += c1[k] * s2
            value += c0[k] * s3
    return [o.reshape(q.shape) for o in out]


# ---------------------------------------------------------------------------
# Oracles of varlive.models


def reference_log_x_from_log_likelihood(m: md.ModelSpec, logl: float) -> float:
    """ln X of the contour at height logl below the peak, as a 0-d array
    took it: the family's closed-form radius in numpy ufuncs, t = r^2 /
    (2 sigma^2) with the 0-d array's scalar ** 2, and ln P(d/2, t) from the
    array path of `specialfn.log_reg_lower_inc_gamma` on a 1-element array,
    which shares no code with its scalar kernel."""
    drop = md.log_likelihood_at_radius(m, 0.0) - np.asarray(logl)
    if m.family == md.GAUSSIAN:
        r = np.sqrt(2.0 * drop)
    elif m.family == md.EXP_POWER:
        r = np.power(2.0 * drop, 1.0 / (2.0 * m.b))
    else:
        r = np.sqrt(np.expm1(2.0 * drop / (m.d + 1)))
    if np.isinf(r):
        return 0.0
    t = 0.5 * (np.asarray(r) / m.sigma_pi) ** 2
    return sf.log_reg_lower_inc_gamma(0.5 * m.d, np.array([t])).item()


def argmax_log_x_relative_posterior_mass(m: md.ModelSpec) -> float:
    """ln X at which L(X) * X peaks (parabolic refinement on the posterior
    quadrature grid)."""
    cmap, grid = md._posterior_grid(m)
    f = md._fill_log_l_plus_x(cmap, grid, np.empty(grid.n))
    i = int(np.argmax(f))
    x = grid.nodes(np.array([i]))[0]
    if 0 < i < grid.n - 1:
        denom = f[i - 1] - 2.0 * f[i] + f[i + 1]
        if denom < 0.0:
            shift = 0.5 * (f[i - 1] - f[i + 1]) / denom
            return float(x + shift * grid.spacing())
    return float(x)


def log_evidence_radius_quadrature(m: md.ModelSpec,
                                   n_nodes: int = 400_001) -> float:
    """Independent evidence oracle integrating over radius instead of ln X.

    Z = int L(r) dX(r) with dX/dr = t^(a-1) e^-t / Gamma(a) * r / sigma^2,
    t = r^2/(2 sigma^2).  Shares no code path with the ln X route beyond the
    likelihood formula itself.
    """
    a = 0.5 * m.d
    sig = m.sigma_pi
    # the integrand is cut off by the prior factor, so prior support suffices
    r_hi = sig * math.sqrt(2.0 * (a + 45.0 * math.sqrt(a) + 120.0))
    r = np.linspace(0.0, r_hi, n_nodes)
    t = 0.5 * (r / sig) ** 2
    with np.errstate(divide="ignore"):
        log_dxdr = ((a - 1.0) * np.log(t) - t - math.lgamma(a) + np.log(r)
                    - 2.0 * math.log(sig))
    log_dxdr[0] = -np.inf
    logl = md.log_likelihood_at_radius(m, r)
    h = r[1] - r[0]
    terms = logl + log_dxdr + math.log(h)
    terms[0] -= math.log(2.0)
    terms[-1] -= math.log(2.0)
    mx = np.max(terms)
    return float(mx + math.log(np.sum(np.exp(terms - mx))))


# ---------------------------------------------------------------------------
# Oracles of varlive.specialfn


def log_gamma(x):
    """ln Gamma(x) for positive real x, scalar or array, from the Cephes
    port `specialfn._lgam`."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("log_gamma requires x > 0")
    if x.ndim == 0:
        return sf._lgam(float(x))
    return np.fromiter(map(sf._lgam, x.ravel().tolist()), dtype=float,
                       count=x.size).reshape(x.shape)


def log_reg_upper_inc_gamma(a, x):
    """ln Q(a, x) = ln(1 - P(a, x)), scalar or array in x."""
    a = sf._validate_a(a)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(np.isnan(x_arr)):
        raise ValueError("x must be nonnegative")
    out = np.empty_like(x_arr)
    lower = x_arr <= a + 1.0
    upper = ~lower
    if np.any(lower):
        lp = sf._log_p_series(a, np.where(x_arr[lower] == 0.0, 1.0,
                                          x_arr[lower]))
        lp = np.where(x_arr[lower] == 0.0, -np.inf, lp)
        # Q = 1 - P via expm1; relative error in Q is ~eps/Q, which stays
        # inside the absolute tolerance this branch is asked for (Q is not
        # tiny for x <= a+1 unless a is far below any radial use).
        out[lower] = np.log(-np.expm1(lp))
    if np.any(upper):
        out[upper] = sf._log_q_cf(a, x_arr[upper])
    return float(out) if out.ndim == 0 else out


def inv_reg_lower_inc_gamma(a, p):
    """Inverse of P(a, .) on the probability scale; p in [0, 1)."""
    a = sf._validate_a(a)
    p = float(p)
    if math.isnan(p) or not (0.0 <= p < 1.0):
        raise ValueError("p must be in [0, 1)")
    if p == 0.0:
        return 0.0
    return sf.inv_log_reg_lower_inc_gamma(a, math.log(p))


def reg_lower_inc_gamma(a, x):
    """P(a, x) on the probability scale, scalar or array in x."""
    a = sf._validate_a(a)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(np.isnan(x_arr)):
        raise ValueError("x must be nonnegative")
    out = np.empty_like(x_arr)
    lower = x_arr <= a + 1.0
    upper = ~lower
    if np.any(lower):
        out[lower] = np.exp(sf.log_reg_lower_inc_gamma(a, x_arr[lower]))
    if np.any(upper):
        out[upper] = -np.expm1(sf._log_q_cf(a, x_arr[upper]))
    return float(out) if out.ndim == 0 else out


def reference_log_p_series(a, x):
    """ln P(a, x) by the ascending series over the whole of x, for
    0 < x <= a + 1: the loop runs until every element has converged, and
    the sum and the result are finished in place with the operations of
    the whole-array expression, in the same order."""
    x = np.asarray(x, dtype=float)
    total = np.ones_like(x)
    term = np.ones_like(x)
    scratch = np.empty_like(x)
    flags = np.empty(x.shape, dtype=bool)
    for k in range(1, sf._SERIES_MAX_TERMS + 1):
        term *= np.divide(x, a + k, out=scratch)
        total += term
        if np.less_equal(term, np.multiply(total, 1e-17, out=scratch),
                         out=flags).all():
            break
    else:
        raise RuntimeError("incomplete gamma series failed to converge")
    lead = scratch
    with np.errstate(divide="ignore"):
        np.log(x, out=lead)
        np.log(total, out=total)
    lead *= a
    lead -= x
    lead -= sf._gammaln(a + 1.0)
    total += lead
    return total


def reference_log_reg_lower_inc_gamma(a, x):
    """ln P(a, x) for an array x: -inf at 0, the whole-array series
    (`reference_log_p_series`) on the masked copy of 0 < x <= a + 1 and the
    continued fraction on x > a + 1."""
    x_arr = np.asarray(x, dtype=float)
    out = np.empty_like(x_arr)
    zero = x_arr == 0.0
    out[zero] = -np.inf
    lower = ~zero & (x_arr <= a + 1.0)
    upper = x_arr > a + 1.0
    if np.any(lower):
        out[lower] = reference_log_p_series(a, x_arr[lower])
    if np.any(upper):
        out[upper] = np.log1p(-np.exp(sf._log_q_cf(a, x_arr[upper])))
    return out

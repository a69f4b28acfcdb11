"""Spherically symmetric test models with exactly known geometry.

Three likelihood families (gaussian, exp_power, cauchy), all radially
decreasing around the origin, paired with a centred spherical Gaussian prior
of width sigma_pi.  That combination makes every quantity the samplers need a
one-dimensional map: the prior mass enclosed by the likelihood contour
through radius r is X(r) = P(d/2, r^2/(2 sigma_pi^2)), with P the
regularized lower incomplete gamma function from `specialfn`.

Because the maps are strictly monotone, expensive inverse solves can be
avoided almost everywhere: `ContourMap` tabulates exact forward evaluations
of ln X on an adaptive grid once per model and serves interpolated
ln X -> ln L and ln X -> radius queries from monotone piecewise cubic
Hermite (PCHIP, Fritsch-Carlson) tables, built and evaluated in numpy.
Samplers and quadrature oracles all read from that shared cache.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import specialfn as sf
from .specialfn import _blocks

__all__ = [
    "GAUSSIAN",
    "EXP_POWER",
    "CAUCHY",
    "FAMILIES",
    "ModelSpec",
    "log_likelihood_at_radius",
    "radius_from_log_x",
    "log_likelihood_from_log_x",
    "log_x_from_log_likelihood",
    "analytic_log_evidence",
    "log_evidence_quadrature",
    "relative_posterior_mass",
    "log_relative_posterior_mass",
    "posterior_mass_remaining",
    "log_posterior_mass_remaining",
    "ContourMap",
    "get_contour_map",
]

GAUSSIAN = "gaussian"
EXP_POWER = "exp_power"
CAUCHY = "cauchy"
FAMILIES = (GAUSSIAN, EXP_POWER, CAUCHY)


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model description: family, dimension, shape, prior width."""

    family: str
    d: int
    sigma_pi: float
    b: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError("d must be an integer >= 1")
        if not (self.sigma_pi > 0.0 and math.isfinite(self.sigma_pi)):
            raise ValueError("sigma_pi must be positive and finite")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError("b must be positive and finite")

    def to_dict(self):
        return {"family": self.family, "d": self.d,
                "b": self.b, "sigma_pi": self.sigma_pi}

    @classmethod
    def from_dict(cls, data):
        data = as_object(data, "model", ("family", "d", "sigma_pi"))
        return cls(family=data["family"], d=as_int(data["d"], "d"),
                   sigma_pi=as_float(data["sigma_pi"], "sigma_pi"),
                   b=as_float(data.get("b", 1.0), "b"))


def as_int(value, what: str) -> int:
    """An integer field of a document (run file, config) as an int.  A bool
    or a non-integral number raises ValueError instead of being truncated."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_object(value, what: str, keys=()) -> dict:
    """A section of a document (run file, config) that must be a JSON
    object holding every one of keys.  Anything else raises ValueError,
    which names the first missing key."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, "
                         f"got {type(value).__name__}")
    for key in keys:
        if key not in value:
            raise ValueError(f"{what} has no {key!r}")
    return value


def as_float(value, what: str) -> float:
    """A real field of a document (run file, config) as a finite float.  A
    bool, a string or a non-finite number raises ValueError instead of
    being converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _log_norm_const(m: ModelSpec) -> float:
    """ln L at r = 0 (the normalization constant of the likelihood)."""
    d = m.d
    if m.family == GAUSSIAN:
        return -0.5 * d * math.log(2.0 * math.pi)
    if m.family == EXP_POWER:
        b = m.b
        return (math.log(d) + math.lgamma(0.5 * d) - 0.5 * d * math.log(math.pi)
                - (1.0 + 0.5 * d / b) * math.log(2.0)
                - math.lgamma(1.0 + 0.5 * d / b))
    # cauchy
    return math.lgamma(0.5 * (d + 1)) - 0.5 * (d + 1) * math.log(math.pi)


def log_likelihood_at_radius(m: ModelSpec, r):
    """ln L(theta) for |theta| = r; scalar or array, r may be +inf."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0) or np.any(np.isnan(r_arr)):
        raise ValueError("radius must be nonnegative")
    out = _log_l_at_radius(m, r_arr, np.empty_like(r_arr))
    return float(out) if out.ndim == 0 else out


def _log_l_at_radius(m: ModelSpec, r: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """The closed form of `log_likelihood_at_radius` without its checks:
    ln L at the float radii r, at least 1-d unless out is given, written
    into out (allocated when None; it must not be r) and returned.  Every
    family runs its expression as numpy ufuncs over whole arrays in one
    order, c - 0.5 r r, c - 0.5 r^(2b) and c - (d + 1)/2 ln(1 + r r), so
    an entry gets the same bits whether it is computed alone or inside a
    longer array."""
    c = _log_norm_const(m)
    if m.family == GAUSSIAN:
        out = np.multiply(0.5, r, out=out)
        out *= r
    elif m.family == EXP_POWER:
        out = np.power(r, 2.0 * m.b, out=out)
        out *= 0.5
    else:
        out = np.multiply(r, r, out=out)
        np.log1p(out, out=out)
        out *= 0.5 * (m.d + 1)
    return np.subtract(c, out, out=out)


def _radius_below_peak(m: ModelSpec, drop: float):
    """Radius of the contour drop = ln L(0) - ln L >= 0 below the peak, as
    the numpy float64 its ufunc returns."""
    if m.family == GAUSSIAN:
        return np.sqrt(2.0 * drop)
    if m.family == EXP_POWER:
        return np.power(2.0 * drop, 1.0 / (2.0 * m.b))
    return np.sqrt(np.expm1(2.0 * drop / (m.d + 1)))


def radius_from_log_x(m: ModelSpec, logx):
    """Radius of the contour enclosing prior mass X = e^logx, through a
    scalar solve per element; logx = 0 maps to +inf."""
    logx_arr = np.asarray(logx, dtype=float)
    if np.any(logx_arr > 0.0) or np.any(np.isnan(logx_arr)):
        raise ValueError("logx must be <= 0")
    a = 0.5 * m.d
    flat = np.atleast_1d(logx_arr).ravel()
    out = np.empty_like(flat)
    for i, lx in enumerate(flat):
        if lx == 0.0:
            out[i] = np.inf
        else:
            out[i] = m.sigma_pi * math.sqrt(2.0 * sf.inv_log_reg_lower_inc_gamma(a, lx))
    out = out.reshape(np.shape(logx_arr))
    return float(out) if out.ndim == 0 else out


def log_likelihood_from_log_x(m: ModelSpec, logx):
    """L(X) on log scales: the likelihood on the contour enclosing mass X.

    logx = 0 is the r -> inf boundary and returns -inf for every family.
    """
    return log_likelihood_at_radius(m, radius_from_log_x(m, logx))


def log_x_from_log_likelihood(m: ModelSpec, logl) -> float:
    """Enclosed prior mass ln X of the contour at height logl, a float (or
    a 0-d array): the closed-form radius r in numpy ufuncs, then
    ln P(d/2, r^2 / (2 sigma^2)) from `specialfn._log_p_0d`, which gives
    the bits of `specialfn.log_reg_lower_inc_gamma` at the same t."""
    logl = float(logl)
    c = _log_norm_const(m)
    if logl > c:
        raise ValueError("log-likelihood above the peak value")
    if math.isnan(logl):
        raise ValueError("log-likelihood is NaN")
    r = _radius_below_peak(m, c - logl)
    if r == math.inf:
        return 0.0
    # r is a numpy float64, so ** 2 is numpy's scalar pow, the squaring the
    # recorded runs rest on; r * r can differ from it in the last bit
    return sf._log_p_0d(0.5 * m.d, float(0.5 * (r / m.sigma_pi) ** 2))


# ---------------------------------------------------------------------------
# Cached monotone contour tables


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at an end node, with the two shape masks
    of Moler's pchiptx (Numerical Computing with MATLAB, sec. 3.6)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _spacings(x: np.ndarray, b: slice) -> np.ndarray:
    """x[k+1] - x[k] for k in the block b, the entries np.diff(x)[b]."""
    return x[1:][b] - x[:-1][b]


def _pchip_table(x: np.ndarray, y,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Node slopes d of the monotone cubic Hermite interpolant through
    strictly increasing nodes x, for at least three nodes, written into
    out (allocated when None) and returned; `_pchip_eval` evaluates the
    table.  y gives the node values: y(k) returns them at the nodes k, a
    slice.

    The slopes follow Fritsch and Carlson (SIAM J. Numer. Anal. 17, 238,
    1980): the weighted harmonic mean of the neighbouring interval slopes,
    or 0 where they change sign or one is 0.  Every expression repeats
    scipy's PchipInterpolator in the same order, so d[:-1] holds the bits
    of its linear coefficients.  Besides d it allocates only block-sized
    temporaries: the values, interval slopes and spacings are built in
    blocks of specialfn._QUERY_BLOCK, so a y that computes its values
    never makes the whole row.
    """
    d = np.empty(x.size) if out is None else out
    d.fill(0.0)
    slopes = d[1:-1]
    # a zero interval slope divides by zero and is masked out below; a tiny
    # one overflows to inf and leaves a node slope of 0, as in scipy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for b in _blocks(slopes.size):
            # the intervals on both sides of the block's nodes
            around = slice(b.start, b.stop + 1)
            h = _spacings(x, around)
            m = y(slice(b.start, b.stop + 2))
            m = m[1:] - m[:-1]
            m /= h
            h0, h1, m0, m1 = h[:-1], h[1:], m[:-1], m[1:]
            w1 = 2.0 * h1
            w1 += h0
            w2 = 2.0 * h0
            w2 += h1
            den = w1 + w2
            w1 /= m0
            w2 /= m1
            w1 += w2
            w1 /= den
            same_sign = (m0 > 0.0) & (m1 > 0.0)
            same_sign |= (m0 < 0.0) & (m1 < 0.0)
            np.divide(1.0, w1, out=slopes[b], where=same_sign)

    def secants(ends):
        """The two spacings and interval slopes of the three end nodes."""
        (x0, x1, x2), (y0, y1, y2) = x[ends].tolist(), y(ends).tolist()
        return x1 - x0, x2 - x1, (y1 - y0) / (x1 - x0), (y2 - y1) / (x2 - x1)

    h0, h1, m0, m1 = secants(slice(0, 3))
    d[0] = _pchip_end_slope(h0, h1, m0, m1)
    h0, h1, m0, m1 = secants(slice(-3, None))
    d[-1] = _pchip_end_slope(h1, h0, m1, m0)
    return d


# the offsets of an interval's two end nodes from its start node
_ENDS = np.array([[0], [1]])


def _pchip_eval(x: np.ndarray, y, slopes: np.ndarray,
                q: np.ndarray) -> np.ndarray:
    """Values at q of monotone cubic Hermite tables over the nodes x, NaN
    outside them.  slopes holds a table's node slopes `_pchip_table(x, y)`:
    shape (n,) for one table, or (tables, n) with one table per row.  y
    gives the node values: for a (2, m) array ends of node indices, the
    start and end nodes of m intervals, y(ends) returns a new array of
    shape (2,) + slopes.shape[:-1] + (m,) with the tables' values there.
    The result has shape slopes.shape[:-1] + q.shape.

    The cubic of each queried interval is worked out from the values and
    slopes at its two ends with the operations of scipy's
    CubicHermiteSpline, and summed in the order of scipy's PPoly
    evaluation, so queries give scipy's bits.  One interval search serves
    every table, and the query runs in blocks of _QUERY_BLOCK entries that
    write into one preallocated output.
    """
    flat = q.reshape(-1)
    tables = slopes.shape[:-1]
    out = np.empty(tables + flat.shape)
    # flat indices into the slope rows: node k of row i is k + i n
    d = slopes.reshape(-1)
    d_next = d[1:]
    row_start = np.arange(0, d.size, x.size).reshape(tables + (1,))
    # searching the inner nodes gives k in [0, n - 2] for every query:
    # interval k holds x[k] <= q < x[k+1], and q == x[-1] the last one
    inner, x_next = x[1:-1], x[1:]
    for b in _blocks(flat.size):
        qb = flat[b]
        k = inner.searchsorted(qb, side="right")
        x0, x1 = x[k], x_next[k]
        s = qb - x0
        # below x[0], above x[-1] or NaN
        s[(qb < x0) | ~(qb <= x1)] = np.nan
        h = np.subtract(x1, x0, out=x1)
        del x0, x1
        # every temporary is freed once read, which keeps a long query's
        # peak within the memory tests' bounds
        y0, m = y(k + _ENDS)
        k = k + row_start
        d0, t = d[k], d_next[k]
        del k
        m -= y0
        m /= h
        t += d0
        t -= m + m
        t /= h
        m -= d0
        m /= h
        m -= t  # the s^2 coefficient
        t /= h  # the s^3 coefficient
        del h
        value = np.multiply(d0, s, out=out[..., b])
        del d0
        # a -0.0 node value is summed from 0.0, as in PPoly
        y0 += 0.0
        value += y0
        del y0
        s2 = s * s
        m *= s2
        value += m
        s2 *= s
        del s
        t *= s2
        value += t
        # m and t hold the end buffers, which the next block must not meet
        del m, t, s2
    return out.reshape(slopes.shape[:-1] + q.shape)


class ContourMap:
    """Tabulated ln X -> ln L and ln X -> radius maps for one model.

    Built from exact forward evaluations of ln X on an adaptive grid:
    a coarse pass in ln t locates the ln X values, a second pass re-grids to
    near-uniform ln X spacing (`nodes_per_unit` per ln-unit) plus a stack of
    geometrically spaced levels hugging ln X = 0 where uniform spacing cannot
    reach.  Both maps share one node array and are monotone cubic Hermite
    tables (`_pchip_table`).  Queries outside the tabulated range raise
    rather than extrapolate; `get_contour_map` rebuilds deeper on demand.

    Memory: a map of n nodes holds 4 arrays of n * 8 bytes: the search
    nodes, the node radii, and the node slopes of each table.  The ln L
    table keeps no node values: the build and every query compute them
    from the node radii with the model's closed form (`_log_l_at_radius`),
    which gives each entry the same bits in any array.  The node ln X pass
    runs in place on the gamma argument t, which then becomes the radius
    row, and the slopes are built in blocks of _QUERY_BLOCK entries
    straight into their rows, so the build peaks at the four arrays it
    keeps plus block temporaries.  At d=1000 that is 2.1M nodes and about
    64 MiB held, in every `--workers` process.

    Time: the node ln X pass runs the incomplete-gamma series block by
    block, so the deep-tail nodes, which converge in a few terms, stop
    there rather than at the slowest node's term count.
    """

    COARSE_NODES = 20_001
    NODES_PER_UNIT = 400.0
    MIN_NODES = 200_000

    def __init__(self, model: ModelSpec, log_x_floor: float):
        if not (log_x_floor < -1.0):
            raise ValueError("log_x_floor must be well below 0")
        self.model = model
        self.log_x_floor = float(log_x_floor)
        a = 0.5 * model.d
        t_floor = sf.inv_log_reg_lower_inc_gamma(a, self.log_x_floor)
        t_hi = a + 45.0 * math.sqrt(a) + 300.0
        u_coarse = np.linspace(math.log(t_floor), math.log(t_hi), self.COARSE_NODES)
        lnx_coarse = sf.log_reg_lower_inc_gamma(a, np.exp(u_coarse))

        n_uniform = max(self.MIN_NODES,
                        int(-self.log_x_floor * self.NODES_PER_UNIT))
        targets = np.linspace(self.log_x_floor, -0.05, n_uniform)
        # geometric levels from -0.05 toward 0 (|ln X| down to 1e-14, ~7%
        # steps), already ascending as ln X values; no realized draw lands
        # closer to X = 1 than that
        levels = -np.geomspace(0.05, 1e-14, 400)[1:]
        targets = np.concatenate([targets, levels])
        # a d=1000 map has 2.1M nodes: t = e^u overwrites the interpolated
        # u, the gamma pass runs beside it, t becomes the radius row in
        # place, and the tables fill their rows in place
        u_nodes = np.interp(targets, lnx_coarse, u_coarse)
        del targets, u_coarse, lnx_coarse
        t_nodes = np.exp(u_nodes, out=u_nodes)
        del u_nodes
        lnx_nodes = sf.log_reg_lower_inc_gamma(a, t_nodes)
        # exact forward values may collide after interpolation; enforce
        # strict order, copying the nodes only when one is dropped
        keep = np.concatenate([[True], lnx_nodes[1:] > lnx_nodes[:-1]])
        if not keep.all():
            lnx_nodes = lnx_nodes[keep]
            t_nodes = t_nodes[keep]
        del keep

        self.log_x_top = float(lnx_nodes[-1])
        self._nodes = lnx_nodes
        # r = sigma_pi sqrt(2 t)
        self._radius = r_nodes = np.multiply(t_nodes, 2.0, out=t_nodes)
        del t_nodes
        np.sqrt(r_nodes, out=r_nodes)
        r_nodes *= model.sigma_pi
        self._slopes = np.empty((2, lnx_nodes.size))  # rows: ln L, radius
        _pchip_table(lnx_nodes, self._log_l_nodes, out=self._slopes[0])
        _pchip_table(lnx_nodes, r_nodes.__getitem__, out=self._slopes[1])

    def _log_l_nodes(self, k):
        """ln L at the nodes k, from their radii."""
        return _log_l_at_radius(self.model, self._radius[k])

    def _log_l_and_radius_nodes(self, ends):
        """ln L and the radius at the interval ends of `_pchip_eval`."""
        r = self._radius[ends]
        out = np.empty((2, 2, ends.shape[1]))
        out[:, 0] = _log_l_at_radius(self.model, r)
        out[:, 1] = r
        return out

    def _query(self, y, rows, logx, what):
        out = _pchip_eval(self._nodes, y, self._slopes[rows],
                          np.asarray(logx, dtype=float))
        if np.isnan(out).any():
            raise ValueError(f"{what} query outside tabulated contour range")
        return out

    def log_l(self, logx):
        return self._query(self._log_l_nodes, 0, logx, "log_l")

    def radius(self, logx):
        return self._query(self._radius.__getitem__, 1, logx, "radius")

    def log_l_and_radius(self, logx):
        """(log_l(logx), radius(logx)) from one interval search."""
        out = self._query(self._log_l_and_radius_nodes, slice(None), logx,
                          "log_l and radius")
        return out[0, ...], out[1, ...]


_MAP_CACHE: dict[ModelSpec, ContourMap] = {}


def get_contour_map(model: ModelSpec, log_x_floor: float) -> ContourMap:
    """Shared per-model map, kept at the deepest floor requested so far."""
    cached = _MAP_CACHE.get(model)
    if cached is not None and cached.log_x_floor <= log_x_floor:
        return cached
    # hysteresis: overshoot the request so nearby demands reuse this build
    built = ContourMap(model, 1.25 * log_x_floor - 20.0)
    _MAP_CACHE[model] = built
    return built


# ---------------------------------------------------------------------------
# Quadrature oracles


def _quad_floor(m: ModelSpec) -> float:
    return -(40.0 * m.d + 100.0)


@lru_cache(maxsize=None)
def _posterior_support_floor(m: ModelSpec) -> float:
    """ln X below which posterior mass is negligible (< ~1e-12 of total).

    Located on a coarse exact grid so fine tables never need to span the
    full quadrature range at high d.
    """
    a = 0.5 * m.d
    deep = _quad_floor(m)
    t_floor = sf.inv_log_reg_lower_inc_gamma(a, deep)
    t_hi = a + 45.0 * math.sqrt(a) + 300.0
    u = np.linspace(math.log(t_floor), math.log(t_hi), 60_000)
    lnx = sf.log_reg_lower_inc_gamma(a, np.exp(u))
    logl = log_likelihood_at_radius(m, m.sigma_pi * np.sqrt(2.0 * np.exp(u)))
    f = logl + lnx  # integrand of Z in d(ln X)
    peak = np.max(f)
    # cumulative from the deep end; first index where it is within e^-28 of the peak sum
    rel = f - peak
    csum = np.logaddexp.accumulate(rel)
    idx = int(np.searchsorted(csum, csum[-1] - 28.0))
    return float(lnx[max(idx - 2, 0)])


def sampling_log_x_floor(m: ModelSpec, n_live: int) -> float:
    """Pre-draw depth for a run with n_live points: posterior support plus
    shrinkage-noise margin (realized ln X at a given index wanders by
    ~sqrt(|ln X|/n))."""
    base = _posterior_support_floor(m)
    return base - 8.0 * math.sqrt(-base / max(n_live, 1)) - 25.0


class _UniformGrid(NamedTuple):
    """np.linspace(start, stop, n), n >= 2, held as its parameters.  Nodes
    are rebuilt on demand with linspace's own formula, k * step + start
    with the last node set to stop, so they carry its bits without the
    grid being held."""

    start: float
    stop: float
    n: int

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.n - 1)

    def nodes(self, k: np.ndarray) -> np.ndarray:
        """The nodes at the integer indices k."""
        out = k * self.step
        out += self.start
        out[k == self.n - 1] = self.stop
        return out

    def spacing(self) -> float:
        """x[1] - x[0], the width the trapezoid rules use."""
        x0, x1 = self.nodes(np.arange(2))
        return float(x1 - x0)

    def around(self, q: np.ndarray) -> np.ndarray:
        """Sorted indices of the last node and of the nodes within two
        places of each query.  Rounding moves a query's position by far
        less than one place, so the two nodes that bracket it are among
        them, and np.interp on these nodes alone gives the bits of the
        whole grid."""
        pos = (q.reshape(-1) - self.start) / self.step
        # fmax and fmin send NaN to node 0, and infinities to the ends
        k = np.floor(np.fmin(np.fmax(pos, 0.0), self.n - 1)).astype(np.int64)
        k = np.add.outer(k, np.arange(-2, 3)).reshape(-1)
        k = np.sort(np.append(k.clip(0, self.n - 1), self.n - 1))
        return k[np.diff(k, prepend=-1) > 0]


def _fill_log_l_plus_x(cmap: ContourMap, grid: _UniformGrid,
                       out: np.ndarray) -> np.ndarray:
    """out[k] = ln L(x_k) + x_k on the nodes x_k of grid, with one contour
    query per block of _QUERY_BLOCK nodes, into a buffer of grid.n entries
    that the caller owns.  A node above the map's top reads ln L there,
    and one below its floor reads the peak ln L(0), a bound on the
    integrand that adds nothing at double precision below a deep floor."""
    peak = _log_norm_const(cmap.model)
    for b in _blocks(grid.n):
        x, o = grid.nodes(np.arange(b.start, b.stop)), out[b]
        # the grid ascends, so the nodes inside the map are a suffix of it
        inside = int(x.searchsorted(cmap.log_x_floor, side="left"))
        o[:inside] = peak
        # the capped nodes are read before the query's values overwrite them
        q = np.minimum(x[inside:], cmap.log_x_top, out=o[inside:])
        o[inside:] = cmap.log_l(q)
        o += x
    return out


def log_evidence_quadrature(m: ModelSpec, n_nodes: int = 1_000_001) -> float:
    """Trapezoid evidence on a uniform ln X grid spanning [-(40 d + 100), 0].

    Contour heights are read from the cached exact-node PCHIP table; below
    the table floor the integrand is bounded by peak * X and contributes
    nothing at double precision.  The terms are summed in one buffer of
    n_nodes entries.
    """
    deep = _quad_floor(m)
    fine_floor = _posterior_support_floor(m) - 60.0
    cmap = get_contour_map(m, max(fine_floor, deep))
    grid = _UniformGrid(deep, 0.0, n_nodes)
    terms = _fill_log_l_plus_x(cmap, grid, np.empty(n_nodes))
    terms[-1] = -np.inf  # X = 1 boundary: L -> 0 for every family
    log_h = math.log(grid.spacing())
    terms[1:-1] += log_h
    terms[[0, -1]] += log_h + math.log(0.5)
    mx = np.max(terms)
    terms -= mx
    return float(mx + math.log(np.sum(np.exp(terms, out=terms))))


@lru_cache(maxsize=None)
def analytic_log_evidence(m: ModelSpec) -> float:
    """True ln Z: Gaussian closed form, high-resolution quadrature otherwise."""
    if m.family == GAUSSIAN:
        return -0.5 * m.d * math.log(2.0 * math.pi * (1.0 + m.sigma_pi ** 2))
    return log_evidence_quadrature(m)


_POSTERIOR_GRID_NODES = 400_001


def _posterior_grid(m: ModelSpec):
    """(contour map, `_UniformGrid`) of the posterior quadrature grid:
    _POSTERIOR_GRID_NODES from 60 below the posterior support floor up to
    the map's top."""
    fine_floor = _posterior_support_floor(m) - 60.0
    cmap = get_contour_map(m, fine_floor)
    return cmap, _UniformGrid(fine_floor, min(-1e-9, cmap.log_x_top),
                              _POSTERIOR_GRID_NODES)


def log_relative_posterior_mass(m: ModelSpec, logx):
    """ln of L(X) * X, the (unnormalized) posterior density in ln X."""
    logx_arr = np.asarray(logx, dtype=float)
    logl = np.asarray(log_likelihood_from_log_x(m, logx_arr))
    with np.errstate(invalid="ignore"):
        out = logl + logx_arr
    # both boundaries are genuine zeros of L(X) X
    out = np.where(np.isnan(out), -np.inf, out)
    return float(out) if out.ndim == 0 else out


def relative_posterior_mass(m: ModelSpec, logx):
    out = np.exp(log_relative_posterior_mass(m, logx))
    return float(out) if np.ndim(out) == 0 else out


def _remaining_table(m: ModelSpec):
    """(grid, ln of the posterior mass below each node) on the posterior
    quadrature grid, a `_UniformGrid`: the running log-sum of the
    trapezoid weights, normalised, times Z.  It holds one grid-length
    buffer: the ln weights are filled in once for ln Z and again to become
    the table, instead of being kept beside it."""
    cmap, grid = _posterior_grid(m)
    log_h = math.log(grid.spacing())

    def log_weights(out):
        _fill_log_l_plus_x(cmap, grid, out)
        out += log_h
        out[[0, -1]] -= math.log(2.0)
        return out

    log_cum = log_weights(np.empty(grid.n))
    mx = float(np.max(log_cum))
    log_cum -= mx
    log_z = mx + math.log(np.sum(np.exp(log_cum, out=log_cum)))
    log_weights(log_cum)
    log_cum -= log_z
    np.exp(log_cum, out=log_cum)
    log_cum /= float(np.sum(log_cum))
    with np.errstate(divide="ignore"):
        np.log(log_cum, out=log_cum)
    log_cum += log_z
    np.logaddexp.accumulate(log_cum, out=log_cum)
    return grid, log_cum


def log_posterior_mass_remaining(m: ModelSpec, logx):
    """ln of int_{-inf}^{logx} L(X) X d(ln X): posterior mass below logx."""
    logx_arr = np.asarray(logx, dtype=float)
    if np.any(logx_arr > 0.0):
        raise ValueError("logx must be <= 0")
    grid, log_cum = _remaining_table(m)
    k = grid.around(logx_arr)
    out = np.interp(logx_arr, grid.nodes(k), log_cum[k],
                    left=-np.inf, right=float(log_cum[-1]))
    return float(out) if out.ndim == 0 else out


def posterior_mass_remaining(m: ModelSpec, logx):
    out = np.exp(log_posterior_mass_remaining(m, logx))
    return float(out) if np.ndim(out) == 0 else out

"""Scalar radial profiles, their squared-distance jets, and monotonicity checks.

Three radial families and the plane wave:

  gaussian      p_w(x, y) = exp(-w ||x-y||^2)          (w scales squared distance)
  askey(l)      p_w(x, y) = (1 - w ||x-y||)_+^(l-1)    (w scales distance)
  omega(m)      p_w(x, y) = Omega_m(w ||x-y||)         (w scales distance)
  plane wave    p_xi(x, y) = exp(-i (x-y) . xi)

profile_value, scales (A,) against distances (n,) -> (n, A), is the one
batched evaluator of the radial families: every radial kernel block uses it.

Omega_m(t) is the mean of plane waves over the unit sphere S^{m-1}: the
radial function whose value at t is the average of exp(-i t u.e) over unit
vectors u.  With nu = m/2 - 1,

  Omega_m(t) = sum_k (-t^2/4)^k / (k! (m/2)_k) = Gamma(nu+1) (2/t)^nu J_nu(t),

so Omega_1 = cos and Omega_3(t) = sin(t)/t.  omega_values sums the series
only for t <= 1 (its terms reach about 8e11 at t=30).  Above that it runs
Miller's backward recurrence (DLMF 10.74) f_{k-1} = 2 (nu+k)/t f_k - f_{k+1}
from f_N = 1, f_{N+1} = 0, N ~ t + 30 + 12 t^(1/3), so f_k is proportional
to J_{nu+k}(t) (values past 2^330 are rescaled), and normalizes it with
Neumann's sum (DLMF 10.23), free of powers of t and Gamma calls:

  Omega_m(t) = f_0 / (f_0 + sum_{k>=1} (nu+2k) (nu+1)_{k-1} / k! f_{2k}).

The recurrence tracks its own rounding error (error-free products and
sums); in plain floats its phase error reaches 4e-13 at t = 1e4.  Beyond
OMEGA_T_MAX = 1e4, the range checked against cos and sin(t)/t to 1e-13,
omega_values raises NumericalFailure instead of returning a number.

Derivative machinery uses squared-distance jets: write a radial atom as
f(d) = g(s) with s = ||d||^2.  A mixed partial of f is a finite sum
sum_k poly_k(d) g^(k)(s) -- a RadialJet -- with the closed form

  d^gamma g(s) = sum over (k_1..k_m) of g^(k)(s) prod_i a(gamma_i, k_i) d_i^(2k_i - gamma_i),
  k = k_1 + .. + k_m,  a(n, k) = n! 2^(2k-n) / ((2k-n)! (n-k)!),  ceil(n/2) <= k <= n.

It holds because the chain rule d/dd_i [q(d) g^(k)(s)] = (dq/dd_i) g^(k)(s)
+ 2 d_i q(d) g^(k+1)(s) is the rule by which d/dd_i acts on q(d) lam^k
exp(lam s).  So d^gamma acts on g(s) as it does on prod_i exp(lam d_i^2),
with lam^k standing for g^(k), and the n-th derivative of exp(lam x^2) is
sum_k a(n, k) x^(2k-n) lam^k exp(lam x^2).  The jets are family-independent;
families plug in their own g^(k) values (gaussian and omega are smooth at
0; askey is not, so it has no jets here).  For omega the series above
differentiates termwise into

  g^(k)(s) = (-w^2/2)^k / (m (m+2) ... (m+2k-2)) Omega_{m+2k}(w sqrt(s)),

and Omega_{m+2k} = (nu+1)_k (2/t)^k f_k / (the same normalization sum).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidGrid,
    InvalidMeasure,
    InvalidParameter,
    NumericalFailure,
    UnsupportedJet,
)

OMEGA_T_MAX = 1e4  # largest argument w*t evaluated (see the module docstring)
OMEGA_SERIES_T = 1.0  # the float power series (12 terms) is used up to here
_DEKKER = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
_RESCALE_EXP = 330  # recurrence values past 2^330 are scaled by 2^-330

# Jets are capped at total derivative order 8.
JET_ORDER_CAP = 8
# Askey ell, and the ell of a Williamson truncated power: no memory grows
# with it, but it enters float arithmetic as the exponent ell - 1, which a
# Python integer past about 1e308 cannot. The benchmark's largest is 3.
MAX_ASKEY_ELL = 1_000_000
# Omega m: no memory grows with it either, but the Neumann weights
# (nu+1)_{k-1} / k! of the recurrence, nu = m/2 - 1, overflow near
# w*t = OMEGA_T_MAX from m = 300 on; up to the cap every w*t <= OMEGA_T_MAX
# evaluates, jets included. The benchmark's largest is 5.
MAX_OMEGA_M = 256

MultiIndex = tuple[int, ...]


# ----------------------------------------------------------------------
# multi-indices
# ----------------------------------------------------------------------


def validate_multi_index(alpha, m: int, q: int | None = None) -> MultiIndex:
    """alpha as a tuple of Python ints of length m, each >= 0, and with q
    given of order |alpha| <= q. The checks run before any array holds alpha:
    numpy would store 2**63 as uint64, where alpha + alpha wraps to 0."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != m:
        raise InvalidParameter(f"multi-index {alpha} has length {len(alpha)}, expected {m}")
    if any(a < 0 for a in alpha):
        raise InvalidParameter(f"multi-index {alpha} has a negative component")
    if q is not None and sum(alpha) > q:
        raise UnsupportedJet(f"derivative order exceeds cap {q}")
    return alpha


@functools.lru_cache(maxsize=64)
def multi_indices_up_to(m: int, q: int) -> tuple[MultiIndex, ...]:
    """All multi-indices of length m with |alpha| <= q, graded lexicographic.

    Sorted by total order first, then componentwise lexicographically, e.g.
    m=2, q=2: (0,0), (0,1), (1,0), (0,2), (1,1), (2,0). Each index is built
    from the coordinates it differentiates (a multiset of order <= q), so the
    work is the C(m+q, q) indices returned, not (q+1)^m.
    """
    if m < 1 or q < 0:
        raise InvalidParameter("need m >= 1 and q >= 0")
    coords = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(m), total) for total in range(q + 1)
    )
    return tuple(sorted((tuple(c.count(i) for i in range(m)) for c in coords), key=lambda a: (sum(a), a)))


# ----------------------------------------------------------------------
# profile families
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """One of the radial families; parameters validated on construction.

    kind            "gaussian" | "askey" | "omega"
    ell_smoothness  askey exponent parameter l >= 2 (profile is (1-wt)_+^(l-1))
    m_source        omega source dimension m >= 1 (sphere S^{m-1})

    ell_smoothness is at most MAX_ASKEY_ELL, m_source at most MAX_OMEGA_M.
    """

    kind: str
    ell_smoothness: int | None = None
    m_source: int | None = None

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.ell_smoothness is not None or self.m_source is not None:
                raise InvalidParameter("gaussian takes no parameters")
        elif self.kind == "askey":
            if self.ell_smoothness is None or self.ell_smoothness < 2:
                raise InvalidParameter("askey needs integer ell_smoothness >= 2")
            if self.ell_smoothness > MAX_ASKEY_ELL:
                raise InvalidParameter(f"askey needs ell_smoothness <= {MAX_ASKEY_ELL}")
            if self.m_source is not None:
                raise InvalidParameter("askey takes no m_source")
        elif self.kind == "omega":
            if self.m_source is None or self.m_source < 1:
                raise InvalidParameter("omega needs integer m_source >= 1")
            if self.m_source > MAX_OMEGA_M:
                raise InvalidParameter(f"omega needs m_source <= {MAX_OMEGA_M}")
            if self.ell_smoothness is not None:
                raise InvalidParameter("omega takes no ell_smoothness")
        else:
            raise InvalidParameter(f"unknown radial family kind {self.kind!r}")

    @staticmethod
    def gaussian() -> "RadialProfile":
        return RadialProfile("gaussian")

    @staticmethod
    def askey(ell_smoothness: int) -> "RadialProfile":
        return RadialProfile("askey", ell_smoothness=int(ell_smoothness))

    @staticmethod
    def omega(m_source: int) -> "RadialProfile":
        return RadialProfile("omega", m_source=int(m_source))


def omega_values(m: int, t, kmax: int = 0) -> np.ndarray:
    """Omega_{m+2j}(t) for j = 0..kmax over an array t: shape (kmax+1, *t.shape).

    See the module docstring. Omega is even, so t enters through |t|. NaN
    raises InvalidParameter; |t| > OMEGA_T_MAX or an overflow raises
    NumericalFailure.
    """
    t = np.abs(np.asarray(t, dtype=float))
    if m < 1 or np.isnan(t).any():
        raise InvalidParameter("Omega_m needs m >= 1 and finite arguments")
    tmax = float(t.max(initial=0.0))
    if tmax > OMEGA_T_MAX:
        raise NumericalFailure(
            f"Omega_{m} is evaluated only for w*t <= {OMEGA_T_MAX:g} (the range "
            f"checked against closed forms); got w*t = {tmax:.6g}"
        )
    flat = t.reshape(-1)
    out = np.empty((kmax + 1, flat.size))
    small = flat <= OMEGA_SERIES_T
    x = -0.25 * flat[small] ** 2
    for j in range(kmax + 1):
        term = total = np.ones_like(x)
        for k in range(1, 13):
            term = term * x / (k * (m / 2.0 + j + k - 1))
            total = total + term
        out[j, small] = total
    if not small.all():
        out[:, ~small] = _omega_miller(m / 2.0 - 1.0, flat[~small], kmax)
    if not np.all(np.isfinite(out)):
        raise NumericalFailure(f"Omega_{m} evaluation overflowed (w*t up to {tmax:.6g})")
    return out.reshape((kmax + 1,) + t.shape)


def _omega_miller(nu: float, t: np.ndarray, kmax: int) -> np.ndarray:
    """Omega_{m+2j}(t), j <= kmax, for t > 1 by the backward recurrence.

    Every element starts at the largest t's start index; starting higher
    only costs steps, and the steps are shared. Each step carries f and its
    rounding error e: 2/t = uh + ul with uh of 11 bits, so (nu+k)*uh*f is
    split exactly (Dekker), then Fast2Sum with the tail (nu+k)*ul*f and
    TwoSum with -f_{k+1}. The loop body only uses arithmetic operators, so
    one argument runs it on Python floats, free of numpy's per-call cost.
    """
    top = int(np.ceil(t.max() + 30.0 + 12.0 * np.cbrt(t.max())))
    u = 2.0 / t
    c = (2.0**42 + 1.0) * u
    uh = c - (c - u)
    th = _DEKKER * t
    th = th - (th - t)
    ul = ((2.0 - uh * th) - uh * (t - th)) / t  # exact residual of uh * t
    if t.size == 1:
        u, uh, ul = float(u[0]), float(uh[0]), float(ul[0])
    # Neumann weights (nu+2j) (nu+1)_{j-1} / j! of f_{2j}
    j = np.arange(1, top // 2 + 1)
    poch = np.cumprod(np.concatenate([[1.0], (nu + j[:-1]) / (j[:-1] + 1)]))
    weight = [0.0] + ((nu + 2 * j) * poch).tolist()
    zero = uh * 0.0
    f, f1, e, e1, norm = zero + 1.0, zero, zero, zero, zero  # f_k, f_{k+1}, errors
    low = [zero] * (kmax + 1)
    for k in range(top, 0, -1):
        if k % 2 == 0:
            norm = norm + weight[k // 2] * (f + e)
        if k <= kmax:
            low[k] = f + e
        ah = (nu + k) * uh
        al = (nu + k) * ul
        p = ah * f
        split = _DEKKER * f
        fh = split - (split - f)
        perr = (ah * fh - p) + ah * (f - fh)
        tail = al * f
        q = p + tail
        qerr = tail - (q - p)
        s = q - f1
        back = s - q
        serr = (q - (s - back)) - (f1 + back)
        f1, e1, f, e = f, e, s, ((ah + al) * e - e1) + (perr + qerr + serr)
        if k % 16 == 0:
            sc = 2.0 ** (-_RESCALE_EXP * (abs(f) > 2.0**_RESCALE_EXP))
            f, f1, e, e1, norm = f * sc, f1 * sc, e * sc, e1 * sc, norm * sc
            low = [x * sc for x in low]
    low[0] = f + e
    scale = np.divide(1.0, norm + low[0])  # a zero sum gives inf, caught by the caller
    out = np.empty((kmax + 1, t.size))
    for j in range(kmax + 1):
        out[j] = scale * low[j]
        scale = scale * ((nu + j + 1) * u)
    return out


def omega_eval(m: int, t: float) -> float:
    """Omega_m(t) at one argument; see omega_values."""
    return float(omega_values(int(m), float(t))[0])


def profile_value(profile: RadialProfile, omegas, t) -> np.ndarray:
    """p_omega(t) at scales omegas and distances t >= 0, shape t.shape +
    omegas.shape. The argument rounds as (t*t)*omega (gaussian) or t*omega;
    one that overflows counts as far, where a scale-0 atom keeps its t = 0
    value. NaN or negative t, negative or infinite scales: InvalidParameter."""
    omegas, t = np.asarray(omegas, dtype=float), np.asarray(t, dtype=float)
    if not ((np.isfinite(omegas) & (omegas >= 0.0)).all() and (t >= 0.0).all()):
        raise InvalidParameter("need finite scales >= 0 and distances >= 0 (not NaN)")
    with np.errstate(over="ignore", invalid="ignore"):
        arg = np.where(omegas > 0.0, np.multiply.outer(t * t if profile.kind == "gaussian" else t, omegas), 0.0)
    if profile.kind == "gaussian":
        return np.exp(-arg)
    if profile.kind == "askey":
        return np.clip(1.0 - arg, 0.0, None) ** (profile.ell_smoothness - 1)
    return omega_values(profile.m_source, arg)[0]


def sjet_derivatives(profile: RadialProfile, omega, s, kmax: int) -> np.ndarray:
    """Derivatives g^(0..kmax)(s) of the squared-distance form g(s) = p_omega
    at squared distance s, where p_omega(x,y) = g(||x-y||^2).

    omega and s broadcast against each other; the result has shape
    (kmax+1, *broadcast shape), so scalars give a (kmax+1,) vector.

    gaussian: g(s) = exp(-omega s), so g^(k)(s) = (-omega)^k exp(-omega s).
    omega(m): the Omega_{m+2k} identity of the module docstring.
    askey:    no jets (kink at the support edge and at 0) -> UnsupportedJet.
    s = inf (a squared distance that overflowed) is far, where a scale-0
    atom keeps its s = 0 jet. Overflowing jets (huge scales) raise
    NumericalFailure.
    """
    omega, s = np.asarray(omega, dtype=float), np.asarray(s, dtype=float)
    if not (np.all(np.isfinite(omega) & (omega >= 0.0)) and np.all(s >= 0.0)):
        raise InvalidParameter("need finite scales >= 0 and squared distances >= 0 (not NaN)")
    kmax = int(kmax)
    if kmax < 0 or kmax > JET_ORDER_CAP:
        raise InvalidParameter(f"kmax must be in [0, {JET_ORDER_CAP}]")
    if profile.kind == "askey":
        raise UnsupportedJet(
            "askey profiles have no squared-distance jets (kinks at t=0 and the "
            "support edge)"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        if profile.kind == "gaussian":
            e = np.exp(np.where(omega > 0.0, -omega * s, 0.0))
            out = np.stack([(-omega) ** k * e for k in range(kmax + 1)])
        else:
            out = omega_values(profile.m_source, np.where(omega > 0.0, omega * np.sqrt(s), 0.0), kmax)
            for k in range(1, kmax + 1):
                out[k:] *= -omega * omega / (2.0 * (profile.m_source + 2 * k - 2))
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("squared-distance jets overflow at these scales")
    return out


# ----------------------------------------------------------------------
# radial jets: mixed partials of f(d) = g(||d||^2)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RadialJet:
    """A mixed partial of a radial function in jet form:

        (partial^gamma f)(d) = sum_k poly_k(d) * g^(k)(||d||^2)

    terms holds (k, ((exponents, coefficient), ...)) pairs sorted by k, each
    polynomial sorted by exponent tuple. The order-0 jet is {0: 1}; the
    maximal k is |gamma|.
    """

    m: int
    terms: tuple[tuple[int, tuple[tuple[MultiIndex, float], ...]], ...]

    @property
    def max_k(self) -> int:
        return max((k for k, _ in self.terms), default=0)


def _jet_1d(n: int) -> tuple[tuple[int, int, int], ...]:
    """(k, 2k - n, a(n, k)): the n-th derivative of exp(lam x^2) is
    sum_k a(n, k) x^(2k-n) lam^k exp(lam x^2), a(n, k) an exact integer."""
    return tuple(
        (k, 2 * k - n, math.factorial(n) * 2 ** (2 * k - n) // (math.factorial(2 * k - n) * math.factorial(n - k)))
        for k in range((n + 1) // 2, n + 1)
    )


@functools.cache
def _radial_jet(gamma: MultiIndex) -> RadialJet:
    """The closed form of the module docstring: one monomial per choice of
    (k_1..k_m), grouped by k = k_1 + .. + k_m."""
    terms: dict[int, list[tuple[MultiIndex, float]]] = {}
    for choice in itertools.product(*map(_jet_1d, gamma)):
        k = sum(c[0] for c in choice)
        terms.setdefault(k, []).append((tuple(c[1] for c in choice), float(math.prod(c[2] for c in choice))))
    return RadialJet(m=len(gamma), terms=tuple((k, tuple(sorted(poly))) for k, poly in sorted(terms.items())))


def jet_for_multi_index(m: int, gamma: MultiIndex) -> RadialJet:
    """The jet of partial^gamma applied to a radial f, cached by gamma."""
    return _radial_jet(validate_multi_index(gamma, m, JET_ORDER_CAP))


def jet_eval(jet: RadialJet, d: np.ndarray, gvals: np.ndarray) -> np.ndarray:
    """sum_k poly_k(d) gvals[k] over a batch of displacements.

    d is (npairs, m) and gvals is (kmax+1, npairs, ...) as returned by
    sjet_derivatives; the result has shape (npairs, ...).
    """
    exps = np.array([e for _, poly in jet.terms for e, _ in poly]).reshape(-1, jet.m)
    powers = np.asarray(d, dtype=float)[:, :, None] ** np.arange(exps.max(initial=0) + 1)
    monos = np.prod(powers[:, np.arange(jet.m), exps], axis=2)  # (npairs, terms)
    out, col = 0.0, 0
    for k, poly in jet.terms:
        vals = monos[:, col : col + len(poly)] @ np.array([c for _, c in poly])
        col += len(poly)
        out = out + vals.reshape(vals.shape + (1,) * (gvals.ndim - 2)) * gvals[k]
    return out


# ----------------------------------------------------------------------
# complete monotonicity checks
# ----------------------------------------------------------------------

CM_DEFAULT_H = 1e-2
# Largest forward-difference order (cm nmax, ell-cm ell). The binomial
# weights of Delta_h^n sum to 2^n, so its rounding error is about
# 2^n * 1.1e-16 * max|f|, which meets the 1e-9 cm tolerance near n = 23 and
# the 1e-8 ell-cm tolerance near n = 26: exp(-t) fails cm from n = 25.
MAX_DIFFERENCE_ORDER = 20


@dataclass(frozen=True)
class CMCheckResult:
    ok: bool
    violation: tuple[int, float] | None  # (difference order n, grid point t)
    tolerance: float


def _stencil_values(f, t: np.ndarray, depth: int, h: float) -> np.ndarray:
    """The table f(t_i + j*h), j = 0..depth, shape (t.size, depth + 1). A
    stencil whose last point t_max + depth*h leaves the float range raises
    InvalidGrid before f is evaluated. f gets Python floats, so a Williamson
    mixture overflows to inf without a warning, and a table that is not
    finite raises NumericalFailure."""
    if not math.isfinite(float(t[-1]) + depth * h):
        raise InvalidGrid(f"the difference stencil reaches t_max + {depth}*h = inf; shrink h or the grid")
    vals = np.empty((t.size, depth + 1), dtype=float)
    for j in range(depth + 1):
        vals[:, j] = [float(f(ti + j * h)) for ti in t.tolist()]
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure("function values on the difference stencil are not finite")
    return vals


def _signed_difference(vals: np.ndarray, n: int, offset: int = 0) -> np.ndarray:
    """(-1)^n Delta_h^n at each grid point, shifted offset steps of h along
    the value table of _stencil_values; one that overflows raises
    NumericalFailure."""
    coeffs = np.array([(-1) ** (n - j) * math.comb(n, j) for j in range(n + 1)], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        fd = vals[:, offset : offset + n + 1] @ coeffs
    if not np.all(np.isfinite(fd)):
        raise NumericalFailure(f"forward difference of order {n} overflows the float range")
    return (-1.0) ** n * fd


def completely_monotone_check(g, t_grid, nmax: int = 6, h: float = CM_DEFAULT_H) -> CMCheckResult:
    """Sampled complete-monotonicity test via forward differences.

    Checks (-1)^n Delta_h^n g(t) >= -1e-9 |g(t_min)| for n = 0..nmax at every
    grid point. The grid must be strictly increasing and positive with
    t_min > nmax*h so the stencil stays well inside the domain.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or not np.all(np.isfinite(t)):
        raise InvalidGrid("grid must be a finite 1-d array")
    if np.any(t <= 0.0) or np.any(np.diff(t) <= 0.0):
        raise InvalidGrid("grid must be strictly increasing and positive")
    if not (isinstance(nmax, int) and 0 <= nmax <= MAX_DIFFERENCE_ORDER):
        raise InvalidParameter(f"nmax must be an integer in [0, {MAX_DIFFERENCE_ORDER}]")
    h = float(h)
    if not math.isfinite(h) or h <= 0.0:
        raise InvalidParameter("h must be finite and > 0")
    if t[0] <= nmax * h:
        raise InvalidGrid(
            f"t_min = {t[0]} must exceed nmax*h = {nmax * h} for the difference stencil"
        )

    vals = _stencil_values(g, t, nmax, h)
    tol = 1e-9 * abs(vals[0, 0])

    for n in range(nmax + 1):
        bad = np.nonzero(_signed_difference(vals, n) < -tol)[0]
        if bad.size:
            return CMCheckResult(ok=False, violation=(n, float(t[bad[0]])), tolerance=tol)
    return CMCheckResult(ok=True, violation=None, tolerance=tol)


def williamson_construct(atoms, ell: int):
    """f(t) = sum_j lambda_j (1 - r_j t)_+^(ell-1) from atoms (r_j, lambda_j).

    Nonnegative mixtures of truncated-power profiles; a negative weight or
    scale raises InvalidMeasure. Returns a scalar callable.
    """
    if not (isinstance(ell, int) and 2 <= ell <= MAX_ASKEY_ELL):
        raise InvalidParameter(f"ell must be an integer in [2, {MAX_ASKEY_ELL}]")
    checked = []
    for r, lam in atoms:
        r, lam = float(r), float(lam)
        if not (math.isfinite(r) and math.isfinite(lam)):
            raise InvalidMeasure("atoms must be finite (r, lambda) pairs")
        if lam < 0.0:
            raise InvalidMeasure(f"negative weight {lam} in truncated-power mixture")
        if r < 0.0:
            raise InvalidMeasure(f"negative scale {r} in truncated-power mixture")
        checked.append((r, lam))
    power = ell - 1

    def f(t: float) -> float:
        return sum(lam * max(0.0, 1.0 - r * t) ** power for r, lam in checked)

    return f


@dataclass(frozen=True)
class EllCMResult:
    ok: bool
    failed_checks: tuple[str, ...]
    tolerance: float
    notes: str


def ell_cm_check(f, ell: int, t_grid, h: float = CM_DEFAULT_H) -> EllCMResult:
    """Sampled multiply-monotone test of order ell.

    Checks, at tolerance 1e-8 * |f(grid min)|:
      * nonnegativity of f on the grid,
      * boundedness of f on the tail of the grid (max over the last quarter
        does not exceed the max over the rest) -- a HEURISTIC stand-in for
        the existence of a finite limit at infinity, which no finite sample
        can certify,
      * convexity of D(t) = (-1)^(ell-2) Delta_h^(ell-2) f(t), via
        nonnegative second forward differences with the same step h.
    """
    if not (isinstance(ell, int) and 2 <= ell <= MAX_DIFFERENCE_ORDER):
        raise InvalidParameter(f"ell must be an integer in [2, {MAX_DIFFERENCE_ORDER}]")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 4 or not np.all(np.isfinite(t)):
        raise InvalidGrid("grid must be a finite 1-d array with at least 4 points")
    if np.any(t <= 0.0) or np.any(np.diff(t) <= 0.0):
        raise InvalidGrid("grid must be strictly increasing and positive")
    h = float(h)
    if not math.isfinite(h) or h <= 0.0:
        raise InvalidParameter("h must be finite and > 0")

    vals = _stencil_values(f, t, ell, h)  # forward-difference depth: ell-2 for D, +2 for convexity
    tol = 1e-8 * abs(vals[0, 0])

    failed = []
    if np.any(vals[:, 0] < -tol):
        failed.append("nonnegativity")

    split = max(1, (3 * t.size) // 4)
    head_max = float(np.max(np.abs(vals[:split, 0])))
    tail_max = float(np.max(np.abs(vals[split:, 0])))
    if tail_max > head_max + tol:
        failed.append("tail-boundedness")

    # D at t, t+h, t+2h assembled from the f-value table
    d0, d1, d2 = (_signed_difference(vals, ell - 2, j) for j in range(3))
    with np.errstate(over="ignore", invalid="ignore"):
        second = d2 - 2.0 * d1 + d0
    if not np.all(np.isfinite(second)):
        raise NumericalFailure("second difference of D overflows the float range")
    if np.any(second < -tol):
        failed.append("convexity")

    return EllCMResult(
        ok=not failed,
        failed_checks=tuple(failed),
        tolerance=tol,
        notes=(
            "tail-boundedness is a heuristic proxy for the existence of a finite "
            "limit at infinity; a finite grid cannot certify a limit"
        ),
    )

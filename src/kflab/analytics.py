"""Threshold analytics for the k-core of a sparse random graph.

Everything here is a pure function of its arguments.  The central object is

    f(x) = x / P(Po(x) >= k-1),

whose minimum over x > 0 is the k-core threshold c_k, attained at a unique
x_k.  For c >= c_k the greatest root x of f(x) = c drives the limiting core
law: the core occupies a zeta fraction of the vertices and its degree-i
fraction converges to the Poisson weight e^(-x) x^i / i!.

x_k and x(c) each come from one bisection bracketed by the shape of f
(see c_k_threshold and x_of_c).  The module uses only math.

Poisson tails are evaluated in log space (lgamma) and accumulated from the
largest term outward, so nothing here cancels catastrophically for x up to
about 1e4.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .graphs import _integer, _real

__all__ = [
    "ThresholdParams",
    "CoreLaw",
    "poisson_pmf",
    "poisson_tail",
    "f_of_x",
    "c_k_threshold",
    "c_k_asymptotic",
    "x_of_c",
    "core_law",
    "g_branching",
    "chernoff_upper",
    "chernoff_lower",
    "supermartingale_bound",
    "default_beta",
    "threshold_params",
]

_X_TOL = 1e-10
# Relative size below which further tail terms cannot move a float64 sum.
_TERM_CUTOFF = 1e-20


def poisson_pmf(x: float, i: int) -> float:
    """P(Po(x) = i), evaluated in log space."""
    if x <= 0:
        raise DomainError(f"poisson_pmf needs x > 0, got {x}")
    if i < 0:
        return 0.0
    return math.exp(-x + i * math.log(x) - math.lgamma(i + 1))


def poisson_tail(x: float, j: int) -> float:
    """P(Po(x) >= j) without cancellation on either side of the mode.

    For j <= x the complementary lower sum is the small side; for j > x the
    tail itself is summed directly.  Terms are accumulated starting at the
    largest one (the end nearest the mode) and stopped once they can no
    longer affect the sum.
    """
    if x <= 0:
        raise DomainError(f"poisson_tail needs x > 0, got {x}")
    if j <= 0:
        return 1.0
    logx = math.log(x)
    if j <= x:
        # sum P(Po = i) for i = j-1 down to 0; terms decrease in that order
        acc = 0.0
        for i in range(j - 1, -1, -1):
            term = math.exp(-x + i * logx - math.lgamma(i + 1))
            acc += term
            if term < acc * _TERM_CUTOFF:
                break
        return max(1.0 - acc, 0.0)
    # upper side: terms decrease geometrically with ratio x/(i+1) < 1, so
    # the first negligible term ends the sum, also once terms underflow to 0
    acc = 0.0
    i = j
    while True:
        term = math.exp(-x + i * logx - math.lgamma(i + 1))
        acc += term
        if term <= acc * _TERM_CUTOFF:
            return acc
        i += 1


def f_of_x(x: float, k: int) -> float:
    """f(x) = x / P(Po(x) >= k-1); +inf once the denominator underflows."""
    if x <= 0:
        raise DomainError(f"f_of_x needs x > 0, got {x}")
    denom = poisson_tail(x, k - 1)
    if denom <= 0.0:
        return math.inf
    return x / denom


def _bisect(below, lo: float, hi: float) -> float:
    """Where below turns from true at lo to false at hi, to _X_TOL or to
    adjacent floats (near 1e6 those are farther apart than _X_TOL)."""
    while hi - lo > _X_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def c_k_threshold(k: int) -> tuple[float, float]:
    """(c_k, x_k): minimum of f and its unique minimizer, to 1e-10 in x.

    f'(x) has the sign of P(Po(x) >= k-1) - (k-1) P(Po(x) = k-1).  The
    ratio of those two terms rises from 1 without bound, so x_k is the
    single sign change.  It lies in [k-2, 2k]: the ratio is below k/(k-x)
    for x < k and above k at 2k.  Bisecting on that sign, not on f itself,
    keeps x_k clear of the float noise of a nearly flat f.
    """
    k = _integer(k, 3, "k")

    def falling(x: float) -> bool:
        return poisson_tail(x, k - 1) < (k - 1) * poisson_pmf(x, k - 1)

    x_k = _bisect(falling, k - 2.0, 2.0 * k)
    return f_of_x(x_k, k), x_k


def c_k_asymptotic(k: int) -> float:
    """Second-order expansion k + sqrt(k q_k) + sqrt(k/q_k) + (q_k - 1)/3.

    q_k = log k - log(2 pi) is only positive from k = 7 on; below that the
    expansion leaves its domain and nan is returned with a warning.
    """
    k = _integer(k, 3, "k")
    q = math.log(k) - math.log(2.0 * math.pi)
    if k < 7:
        warnings.warn(
            f"c_k_asymptotic is outside its asymptotic domain for k={k} (q_k={q:.4f})",
            stacklevel=2,
        )
        if q <= 0:
            return math.nan
    return k + math.sqrt(k * q) + math.sqrt(k / q) + (q - 1.0) / 3.0


def x_of_c(c: float, k: int) -> float:
    """Greatest root of f(x) = c, for finite c >= c_k.

    f rises past x_k and f(x) >= x, so the root lies in [x_k, c].
    """
    c = _real(c, "c")
    c_k, x_k = c_k_threshold(k)
    if not c_k - 1e-12 <= c < math.inf:
        raise DomainError(f"x_of_c needs finite c >= c_k = {c_k:.10g}, got c = {c}")
    if c <= c_k:
        return x_k
    return _bisect(lambda x: f_of_x(x, k) < c, x_k, c)


@dataclass(frozen=True)
class ThresholdParams:
    """Constants of the threshold window for a given k."""

    k: int
    beta: float
    alpha: float
    c_min: float
    c_max: float


def default_beta(k: int) -> float:
    """beta = e^(-k/200), the deletion procedure's default cap rate."""
    return math.exp(-k / 200.0)


def threshold_params(k: int) -> ThresholdParams:
    k = _integer(k, 3, "k")
    c_k, _ = c_k_threshold(k)
    beta = default_beta(k)
    return ThresholdParams(
        k=k,
        beta=beta,
        alpha=k**9 * beta,
        c_min=c_k + k**10 * beta,
        c_max=c_k + k ** (-0.5),
    )


@dataclass(frozen=True)
class CoreLaw:
    """Limiting k-core law at average degree c: size and degree profile.

    lam[0] corresponds to degree k; lam[i - k] = e^(-x) x^i / i!.  All
    fractions are relative to the number of vertices of the ambient graph.
    """

    k: int
    c: float
    x: float
    x_k: float
    c_k: float
    zeta: float
    lam: tuple[float, ...]

    def lambda_of(self, i: int) -> float:
        if i < self.k or i >= self.k + len(self.lam):
            raise DomainError(f"degree {i} outside tabulated range")
        return self.lam[i - self.k]


def core_law(c: float, k: int, i_max: int) -> CoreLaw:
    """Evaluate the limiting core law; requires c >= c_k."""
    k = _integer(k, 3, "k")
    c_k, x_k = c_k_threshold(k)
    i_max = _integer(i_max, k, "i_max")
    c = _real(c, "c")
    x = x_of_c(c, k)
    zeta = poisson_tail(x, k)
    lam = tuple(poisson_pmf(x, i) for i in range(k, i_max + 1))
    return CoreLaw(k=k, c=c, x=x, x_k=x_k, c_k=c_k, zeta=zeta, lam=lam)


def g_branching(x: float, k: int) -> float:
    """k(k-1) e^(-x) x^k / k! divided by x P(Po(x) >= k-1).

    Equals 1 exactly at x = x_k and drops below 1 as x grows past it; this
    is the subcriticality ratio of the two-step exploration among the
    degree-k vertices of the core.
    """
    if x <= 0:
        raise DomainError(f"g_branching needs x > 0, got {x}")
    denom = x * poisson_tail(x, k - 1)
    if denom <= 0.0:
        return math.inf
    return k * (k - 1) * poisson_pmf(x, k) / denom


def chernoff_upper(mu: float, t: float) -> float:
    """exp(-t^2 / (2 (mu + t/3))): bound on P(X >= mu + t)."""
    if mu < 0 or t < 0:
        raise DomainError("chernoff_upper needs mu >= 0 and t >= 0")
    if t == 0.0:
        return 1.0
    return math.exp(-(t * t) / (2.0 * (mu + t / 3.0)))


def chernoff_lower(mu: float, t: float) -> float:
    """exp(-t^2 / (2 mu)): bound on P(X <= mu - t)."""
    if mu < 0 or t < 0:
        raise DomainError("chernoff_lower needs mu >= 0 and t >= 0")
    if t == 0.0:
        return 1.0
    if mu == 0.0:
        return 0.0
    return math.exp(-(t * t) / (2.0 * mu))


def supermartingale_bound(b: float, c_steps, a: float) -> float:
    """exp(-a^2 / (2 sum c_j^2)).

    Bounds the probability that some prefix of a supermartingale with
    per-step drift b and increments bounded by c_j ever exceeds i*b + a.
    The drift b shifts the event, not the bound, so it does not enter the
    returned value.
    """
    if a <= 0:
        raise DomainError(f"supermartingale_bound needs a > 0, got {a}")
    s = float(sum(cj * cj for cj in c_steps))
    if s <= 0.0:
        raise DomainError("supermartingale_bound needs a positive sum of c_j^2")
    return math.exp(-(a * a) / (2.0 * s))

"""Threshold analytics: identities, frozen oracle values, bound evaluators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflab import analytics as A
from kflab.errors import DomainError


# ---------------------------------------------------------------- oracles

def c3_fine_grid_oracle() -> tuple[float, float]:
    """Independent minimization of f for k=3 with the closed-form denominator.

    P(Po(x) >= 2) = 1 - e^(-x)(1+x), so no shared code with the package's
    tail machinery.  Grid over (0, 20] at step 1e-6, then ternary refine.
    """
    xs = np.arange(1e-6, 20.0, 1e-6)
    with np.errstate(divide="ignore", invalid="ignore"):
        fs = xs / (1.0 - np.exp(-xs) * (1.0 + xs))
    i = int(np.nanargmin(fs))
    f = lambda x: x / (1.0 - math.exp(-x) * (1.0 + x))
    lo, hi = xs[i - 1], xs[i + 1]
    while hi - lo > 1e-12:
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    x = 0.5 * (lo + hi)
    return f(x), x


# ---------------------------------------------------------------- f and c_k

def test_f_domain_and_divergence():
    with pytest.raises(DomainError):
        A.f_of_x(0.0, 3)
    with pytest.raises(DomainError):
        A.f_of_x(-1.0, 3)
    # denominator vanishes like x^2/2: below float resolution it reports +inf
    assert A.f_of_x(1e-300, 3) == math.inf
    # moderate small x stays finite and large
    assert A.f_of_x(1e-3, 3) > 1e3


def test_c3_matches_independent_oracle():
    c3_ref, x3_ref = c3_fine_grid_oracle()
    c3, x3 = A.c_k_threshold(3)
    assert c3 == pytest.approx(c3_ref, abs=1e-6)
    assert x3 == pytest.approx(x3_ref, abs=1e-6)
    # frozen from the oracle above
    assert c3 == pytest.approx(3.3509188715, abs=1e-8)
    assert x3 == pytest.approx(1.7932821255, abs=1e-8)


def test_c_k_is_a_true_minimum():
    for k in (3, 4, 5, 10, 50, 137):
        c_k, x_k = A.c_k_threshold(k)
        assert A.f_of_x(x_k - 1e-4, k) > c_k
        assert A.f_of_x(x_k + 1e-4, k) > c_k


def test_f_increasing_past_minimizer():
    c10, x10 = A.c_k_threshold(10)
    assert A.f_of_x(2.0 * x10, 10) > c10


def test_derivative_vanishes_at_x_k():
    h = 1e-5
    for k in (3, 5, 20, 100, 200):
        _, x_k = A.c_k_threshold(k)
        der = (A.f_of_x(x_k + h, k) - A.f_of_x(x_k - h, k)) / (2 * h)
        assert abs(der) < 1e-4
        assert abs(der) <= 10.0 * k**-0.5


def test_x3_is_the_closed_form_root():
    # for k = 3, f'(x) = 0 reduces to e^x = 1 + x + x^2
    lo, hi = 1.0, 3.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if math.exp(mid) < 1.0 + mid + mid * mid:
            lo = mid
        else:
            hi = mid
    assert A.c_k_threshold(3)[1] == pytest.approx(lo, abs=1e-10)


def test_x_k_is_the_sign_change_of_f_prime():
    # f'(x) has the sign of P(Po(x) >= k-1) - (k-1) P(Po(x) = k-1)
    for k in (3, 4, 10, 100, 1000, 3200):
        _, x_k = A.c_k_threshold(k)
        s = lambda x: A.poisson_tail(x, k - 1) - (k - 1) * A.poisson_pmf(x, k - 1)
        assert s(x_k - 1e-9) < 0.0 < s(x_k + 1e-9), k


def test_c_k_threshold_rejects_small_k():
    with pytest.raises(DomainError):
        A.c_k_threshold(2)


def test_k_must_be_an_integer():
    for f in (A.c_k_threshold, A.c_k_asymptotic, A.threshold_params):
        for k in (3.5, math.nan, "4", None):
            with pytest.raises(DomainError):
                f(k)
        assert f(7.0) == f(7)


# ---------------------------------------------------------------- asymptotics

def test_c_k_asymptotic_closed_form_point():
    # q_k = 1 exactly at k = 2*pi*e, killing the (q-1)/3 term
    k = 2 * math.pi * math.e
    q = math.log(k) - math.log(2 * math.pi)
    assert q == pytest.approx(1.0, abs=1e-12)
    # evaluate the formula shape directly at that real-valued k
    val = k + math.sqrt(k * q) + math.sqrt(k / q) + (q - 1) / 3
    assert val == pytest.approx(k + 2 * math.sqrt(k), abs=1e-9)


def test_c_k_asymptotic_monotone_sweep():
    ks = list(range(10, 200)) + list(range(200, 10_001, 97))
    vals = [A.c_k_asymptotic(k) for k in ks]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_c_k_asymptotic_domain_warning_below_7():
    with pytest.warns(UserWarning):
        out = A.c_k_asymptotic(6)  # q_6 < 0: expansion leaves its domain
    assert math.isnan(out)
    with pytest.warns(UserWarning):
        A.c_k_asymptotic(5)


def test_c_k_gap_measured_values():
    # Frozen ground truth: the printed expansion overshoots c_k at desk
    # scale and the absolute gap grows with k, while the relative gap
    # contracts.  (The advertised "< 1 at k=100" does not hold.)
    gap100 = A.c_k_threshold(100)[0] - A.c_k_asymptotic(100)
    gap1000 = A.c_k_threshold(1000)[0] - A.c_k_asymptotic(1000)
    assert gap100 == pytest.approx(-1.2793, abs=1e-3)
    assert abs(gap1000) < 2.5
    rel100 = abs(gap100) / A.c_k_threshold(100)[0]
    rel1000 = abs(gap1000) / A.c_k_threshold(1000)[0]
    assert rel1000 < rel100 < 0.011
    # residual table over k = 50 .. 3200, doubling
    ks = (50, 100, 200, 400, 800, 1600, 3200)
    gaps = [A.c_k_threshold(k)[0] - A.c_k_asymptotic(k) for k in ks]
    assert gaps == pytest.approx(
        [-1.28, -1.28, -1.37, -1.54, -1.79, -2.14, -2.60], abs=5e-3
    )


# ---------------------------------------------------------------- x_of_c

def test_x_of_c_at_threshold_and_domain():
    for k in (3, 7, 50):
        c_k, x_k = A.c_k_threshold(k)
        assert A.x_of_c(c_k, k) == pytest.approx(x_k, abs=1e-9)
        with pytest.raises(DomainError):
            A.x_of_c(c_k - 1e-3, k)


def test_x_of_c_far_above_threshold_and_non_finite():
    x = A.x_of_c(1e6, 5)
    assert A.f_of_x(x, 5) == pytest.approx(1e6, rel=1e-12)
    for c in (math.inf, math.nan, "7", None):
        with pytest.raises(DomainError):
            A.x_of_c(c, 5)


def test_x_of_c_round_trip():
    rng = np.random.default_rng(20260815)
    for k in (3, 5, 12):
        c_k, _ = A.c_k_threshold(k)
        for c in c_k + rng.random(100):
            x = A.x_of_c(c, k)
            assert A.f_of_x(x, k) == pytest.approx(c, abs=1e-8)


def test_x_of_c_stays_within_log_k_window_at_c_max():
    k = 50
    p = A.threshold_params(k)
    _, x_k = A.c_k_threshold(k)
    x = A.x_of_c(p.c_max, k)
    assert x_k < x <= x_k + math.log(k)


def test_x_of_c_picks_greatest_root():
    # f has two roots for c > c_k; the returned one lies right of x_k and
    # any point left of x_k with the same value must differ from it
    k = 4
    c_k, x_k = A.c_k_threshold(k)
    x = A.x_of_c(c_k + 0.7, k)
    assert x > x_k
    # left branch: f is decreasing, so some x' < x_k also hits c; bisect it
    lo, hi = 1e-6, x_k
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if A.f_of_x(mid, k) > c_k + 0.7:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - x) > 1.0


# ---------------------------------------------------------------- core law

def test_core_law_zeta_and_lambda_identities():
    law = A.core_law(A.c_k_threshold(5)[0] + 0.5, 5, 50)
    # zeta equals the tabulated lambda sum up to tail truncation
    gap = law.zeta - sum(law.lam)
    assert -1e-14 <= gap <= A.poisson_tail(law.x, 51) + 1e-14
    assert A.poisson_tail(law.x, 5 * 10) < 1e-12
    assert all(v >= 0 for v in law.lam)
    # full Poisson mass extended below k sums to one
    total = sum(A.poisson_pmf(law.x, i) for i in range(0, 200))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_core_law_zeta_growth_in_k():
    # frozen: zeta at c_k is 0.843456 for k=20 and 0.966253 for k=200
    z20 = A.core_law(A.c_k_threshold(20)[0], 20, 200).zeta
    z200 = A.core_law(A.c_k_threshold(200)[0], 200, 2000).zeta
    assert z200 > z20
    assert z200 > 0.9
    assert z20 == pytest.approx(0.8434563, abs=1e-6)
    assert z200 == pytest.approx(0.9662532, abs=1e-6)


def test_core_law_lambda_k_scaling_at_50():
    # frozen: lambda[k]*k = 0.93115 at c_max(50); the window [c_min, c_max]
    # itself is empty at k=50 (c_min is astronomically large), so the law is
    # probed at the meaningful upper edge
    p = A.threshold_params(50)
    assert p.c_min > p.c_max
    law = A.core_law(p.c_max, 50, 500)
    v = law.lambda_of(50) * 50
    assert 0.9 < v < 1.1
    assert v == pytest.approx(0.9311526, abs=1e-6)


def test_core_law_domain():
    with pytest.raises(DomainError):
        A.core_law(1.0, 5, 50)
    with pytest.raises(DomainError):  # once a bare TypeError
        A.core_law("7", 5, 9)
    with pytest.raises(DomainError):
        A.core_law(10.0, 5, 4)


# ---------------------------------------------------------------- branching g

def test_g_equals_one_at_minimizer():
    for k in (3, 17, 80, 200):
        _, x_k = A.c_k_threshold(k)
        assert A.g_branching(x_k, k) == pytest.approx(1.0, abs=1e-6)


def test_g_below_one_past_minimizer_and_decreasing():
    k = 50
    _, x_k = A.c_k_threshold(k)
    assert A.g_branching(x_k + 0.5, k) < 1.0
    xs = np.linspace(x_k, x_k + math.log(k), 100)
    gs = [A.g_branching(x, k) for x in xs]
    assert all(b < a for a, b in zip(gs, gs[1:]))


def test_g_domain():
    with pytest.raises(DomainError):
        A.g_branching(0.0, 5)


# ---------------------------------------------------------------- tail bounds

def test_chernoff_basic_points():
    assert A.chernoff_upper(123.4, 0.0) == 1.0
    assert A.chernoff_lower(123.4, 0.0) == 1.0
    assert A.chernoff_upper(100.0, 30.0) == pytest.approx(math.exp(-900.0 / 220.0))
    assert A.chernoff_lower(0.0, 0.0) == 1.0
    assert A.chernoff_lower(0.0, 5.0) == 0.0


def test_chernoff_monte_carlo_dominated_by_bound():
    rng = np.random.default_rng(7)
    samples = rng.binomial(100_000, 1e-3, size=100_000)
    emp = float(np.mean(samples >= 130))
    assert emp <= A.chernoff_upper(100.0, 30.0)


@given(
    mu=st.floats(0.1, 1e6),
    t1=st.floats(0.0, 1e5),
    dt=st.floats(0.1, 1e5),
)
@settings(max_examples=200, deadline=None)
def test_bounds_monotone_in_deviation(mu, t1, dt):
    assert A.chernoff_upper(mu, t1 + dt) <= A.chernoff_upper(mu, t1)
    assert A.chernoff_lower(mu, t1 + dt) <= A.chernoff_lower(mu, t1)


def test_supermartingale_bound_values():
    n = 40
    assert A.supermartingale_bound(3.14, [1.0] * n, float(n)) == pytest.approx(
        math.exp(-n / 2.0)
    )
    # a -> infinity drives the bound to zero
    assert A.supermartingale_bound(0.0, [2.0, 2.0], 1e9) == 0.0
    with pytest.raises(DomainError):
        A.supermartingale_bound(1.0, [], 1.0)
    with pytest.raises(DomainError):
        A.supermartingale_bound(1.0, [1.0], 0.0)


def test_supermartingale_bound_halting_instantiation():
    # c_j = 8k^3 over l = beta*n/k^3 steps, threshold a = e^(-k/50) n.
    # Frozen: at n=1e4, k=10 the bound is exp(-0.055059...) = 0.94643; the
    # exp(-Omega(n)) decay only reaches 1e-6 once n > 2.51e6.
    def bound(n, k):
        beta = math.exp(-k / 200.0)
        steps = int(beta * n / k**3)
        return A.supermartingale_bound(0.0, [8.0 * k**3] * steps, math.exp(-k / 50.0) * n)

    b4 = bound(10_000, 10)
    assert b4 == pytest.approx(0.9434730, abs=1e-6)
    assert bound(3_000_000, 10) < 1e-6


def test_threshold_params_invariants():
    for k in (3, 10, 200):
        p = A.threshold_params(k)
        assert 0.0 < p.beta < 1.0
        assert p.beta == math.exp(-k / 200.0)
        assert p.alpha == k**9 * p.beta
        c_k, _ = A.c_k_threshold(k)
        assert p.c_min > c_k
        assert p.c_max > c_k


def test_poisson_tail_agrees_with_scipy():
    sp = pytest.importorskip("scipy.stats").poisson
    for x in (0.3, 1.7, 4.9, 60.1, 233.0, 861.7, 5000.0):
        for j in (1, 2, 5, int(0.8 * x) + 1, int(x) + 1, int(1.3 * x) + 2):
            ref = float(sp.sf(j - 1, x))
            if ref > 1e-290:
                assert A.poisson_tail(x, j) == pytest.approx(ref, rel=1e-9)


def test_poisson_tail_underflows_to_zero():
    # every term of the upper sum underflows, so the first one ends it
    assert A.poisson_tail(1e-6, 100000) == 0.0
    assert A.poisson_tail(1e-6, 2) > 0.0

"""Closed-form evaluators for the quantities driving the structural results:
iterated logs, the degree concentration point, the BFS layer-profile pmf,
the layer-entropy minimization (exact and continuous), the independence
counting quantities, and the sparse-neighborhood chromatic bound.

All logarithms are natural.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import accumulate, combinations

from .errors import BudgetExceededError, DomainError, NoConvergenceError

DEFAULT_ENUM_WORK_CAP = 5_000_000


@dataclass(frozen=True)
class DegreeProfile:
    """BFS layer sizes (l_1, ..., l_r) from a vertex, with implicit l_0 = 1:
    the argmin that ``lemma2_min_exact`` returns."""

    ell: tuple


def iterated_log(x: float, k: int) -> float:
    """Natural log applied k times; k = 0 returns x."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if x != x:
        raise DomainError("iterated log undefined at NaN")
    if x == math.inf:   # log(inf) = inf, so k loops would not move it
        return x
    for _ in range(k):
        if x <= 0:
            raise DomainError(f"iterated log undefined: intermediate {x} <= 0")
        x = math.log(x)
    return x


def d_star(n, r) -> float:
    """Concentration point log n / log_{(r+1)} n of the max G^r degree."""
    denom = iterated_log(n, r + 1)
    if denom <= 0:
        raise DomainError(f"log_({r + 1})({n}) = {denom} <= 0")
    return math.log(n) / denom


# -- layer-profile pmf -----------------------------------------------------


def log_u(ell, d) -> float:
    """Exact log of the layer-profile weight (log-gamma, no Stirling).

    The weight is d^D * e^{-d(1 + D - l_r)} / prod(l_i!) * prod l_{i-1}^{l_i}
    with l_0 = 1 and D = sum l_i, for a tuple of int layers.  Note the
    exponent uses d (as the Poisson derivation forces), and returns -inf
    when a zero layer precedes a nonzero one.
    """
    if any(x < 0 for x in ell):
        raise DomainError(f"layer sizes must be nonnegative, got {ell}")
    if not (math.isfinite(d) and d >= 0):
        raise DomainError(f"d must be finite and >= 0, got {d}")
    big_d = sum(ell)
    if big_d == 0:
        # all layers empty: Poisson mass at zero, or weight 1 when r = 0
        return -d if ell else 0.0
    if d == 0:
        return float("-inf")  # d^D = 0: no neighbours at all
    out = big_d * math.log(d) - d * (1 + big_d - ell[-1])
    prev = 1
    for x in ell:
        out -= math.lgamma(x + 1)
        if x:
            if prev == 0:
                return float("-inf")
            out += x * math.log(prev)
        prev = x
    return out


def u_value(ell, d) -> float:
    """Layer-profile weight on probability scale (0 for infeasible)."""
    return math.exp(log_u(ell, d))


def degree_pmf(d, r, top) -> list:
    """Limit pmf [P(D=0), ..., P(D=top)] of the G^r-degree, dropping the
    vanishing finite-n correction factor.

    D is the total progeny of generations 1..r of a Poisson(d) branching
    process (layer-size law ``u_value``), with generating function H_r,
    H_0 = 1, H_k(z) = exp(d(z H_{k-1}(z) - 1)).  Each round exponentiates
    the series a = d z H_{k-1}: b_0 = e^{-d}, m b_m = sum_k k a_k b_{m-k},
    all terms nonnegative.  Raises BudgetExceededError when
    max(r, 1) (top+1)^2 exceeds DEFAULT_ENUM_WORK_CAP (the list alone
    costs top + 1 at r = 0), DomainError when d is not finite and
    nonnegative, r < 0 or e^{-d} underflows.  Those are checked first; a
    negative top then gives [] at no further cost.
    """
    if not (math.isfinite(d) and d >= 0):
        raise DomainError(f"d must be finite and >= 0, got {d}")
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    b0 = math.exp(-d)
    if b0 < sys.float_info.min:
        raise DomainError(f"e^-d underflows at d={d}")
    if top < 0:
        return []
    if max(r, 1) * (top + 1) ** 2 > DEFAULT_ENUM_WORK_CAP:
        raise BudgetExceededError(
            f"pmf to D={top} at r={r} exceeds work cap {DEFAULT_ENUM_WORK_CAP}")
    h = [1.0] + [0.0] * top
    for _ in range(r):
        ka = [k * d * h[k - 1] for k in range(1, top + 1)]  # k a_k, k >= 1
        b = [b0]
        for m in range(1, top + 1):
            b.append(sum(map(operator.mul, ka, b[::-1])) / m)
        h = b
    return h


def degree_sum_pmf(d, r, big_d) -> float:
    """Limit pmf P(D = big_d) of the G^r-degree (see ``degree_pmf``); 0.0
    for big_d < 0, once d and r are found valid."""
    pmf = degree_pmf(d, r, big_d)
    return pmf[-1] if pmf else 0.0


# -- layer-entropy minimization -------------------------------------------


def layer_entropy(ell) -> float:
    """sum_i l_i log(l_i / l_{i-1}) with l_0 = 1, 0 log 0 = 0, and +inf
    when a zero layer precedes a nonzero one."""
    prev = 1
    out = 0.0
    for x in ell:
        if x:
            if prev == 0:
                return float("inf")
            out += x * math.log(x / prev)
        prev = x
    return out


def _parts(cuts, total):
    """The composition of ``total`` cut at the increasing points ``cuts``."""
    return tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))


def _tail_step(x, s, m):
    """f(x + 1) - f(x), 1 <= x < s, for the entropy f(x) = x log(x/m) +
    (s-x) log((s-x)/x) of the last two layers after one of size m, summed
    from terms that do not cancel; f is of size s log s, and the difference
    of two of its values loses every bit once s passes about 10^15."""
    last = (s - x - 1) * math.log1p(-1 / (s - x)) if x + 1 < s else 0.0
    return ((2 * x - s) * math.log1p(1 / x) + last + 2 * math.log(x + 1)
            - math.log(s - x) - math.log(m))


def lemma2_min_exact(big_d, r):
    """Exact integer minimum of the layer entropy over profiles summing to D.

    Returns (value, argmin profile); the lexicographically smallest argmin
    wins ties.  Every profile is a prefix of k positive layers, k = 0..
    min(r - 1, D) - 1, then a pair (x, S - x) placing the S left, then
    zeros.  After a prefix ending in m (1 when empty) the cost of the pair
    is convex in x (l log(l/m) is jointly convex), so a binary search on its
    forward difference finds the smallest minimiser x* and only x* - 2..
    x* + 2 are scored with ``layer_entropy``, without the trailing zeros
    (they add nothing, and sort below any positive layer); x = S ends the
    profile one layer early.  The result, value and argmin, is bit-identical
    to scoring every composition.  Work is charged r units for the profile
    returned and one per prefix, both before any search, and for each
    search its longest run, two per probe; past DEFAULT_ENUM_WORK_CAP units
    it raises BudgetExceededError, at once when the profile and prefixes
    alone pass the cap.  r = 3 runs to about D = 10^5, r = 4 to about
    D = 700, and r = 400 to about D = 21.
    """
    if big_d < 0:
        raise DomainError(f"D must be >= 0, got {big_d}")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    work = 0

    def charge(units):
        nonlocal work
        work += units
        if work > DEFAULT_ENUM_WORK_CAP:
            raise BudgetExceededError(
                f"layer-entropy minimum at D={big_d}, r={r} exceeds work cap "
                f"{DEFAULT_ENUM_WORK_CAP}")

    charge(r)
    ks = range(min(r - 1, big_d))
    for k in ks:
        charge(math.comb(big_d - 1, k))
    # (D,) is a profile at every D and r, and the only one at D = 0 or r = 1
    best = (layer_entropy((big_d,)), (big_d,))
    for k in ks:   # k = 0: the empty cut alone, without copying range(1, D)
        for cuts in combinations(range(1, big_d), k) if k else [()]:
            parts = _parts(cuts, big_d)
            prefix, s = parts[:-1], parts[-1]
            m = prefix[-1] if prefix else 1
            lo, hi = 1, s
            while lo < hi:   # smallest x with f(x + 1) >= f(x), or s
                mid = (lo + hi) // 2
                if _tail_step(mid, s, m) >= 0:
                    hi = mid
                else:
                    lo = mid + 1
            lo, hi = max(1, lo - 2), min(s, lo + 2)
            charge(2 * (s - 1).bit_length() + hi - lo)
            candidates = [prefix + ((x, s - x) if x < s else (s,))
                          for x in range(lo, hi + 1)]
            best = min(best, *((layer_entropy(ell), ell) for ell in candidates))
    value, ell = best
    return value, DegreeProfile(ell + (0,) * (r - len(ell)))


@dataclass
class LagrangeSolution:
    """Continuous relaxation of the layer-entropy minimum.

    ``ratios`` holds (p_1, ..., p_r) with p_i = l_i / l_{i-1}; the interior
    stationarity conditions p_i = p_r * e^{p_{i+1}} hold by construction,
    and ``residual`` is |sum l_i - D| after bisection on p_r.
    """

    value: float
    ratios: list
    ell: list
    residual: float
    iterations: int


def _lagrange_profile(p_r, r):
    """Layer ratios and sizes induced by the last ratio p_r; a ratio or a
    layer past the float range is inf."""
    ratios = [p_r] * r
    q = p_r
    for i in range(r - 2, -1, -1):
        try:
            q = p_r * math.exp(q)
        except OverflowError:
            q = math.inf
        ratios[i] = q
    return ratios, list(accumulate(ratios, operator.mul))


def lemma2_min_lagrange(big_d, r) -> LagrangeSolution:
    """Continuous layer-entropy minimum via bisection on the last ratio.

    The layer sum increases with p_r and is at least l_1 = p_1 >= p_r, so
    its root lies in (0, D]: the bracket's top doubles from min(1, D) but
    never past D, bisection runs until the bracket's ends are adjacent
    floats, and the answer is read at whichever end's layer sum is nearer
    D (the top on a tie).  Each layer sum is charged r units of work,
    before it is built; past DEFAULT_ENUM_WORK_CAP units it raises
    BudgetExceededError.  Raises NoConvergenceError (with the bracket)
    when float64 cannot place the sum within max(1e-8, 64 ulp(D)) of D,
    and DomainError when the value passes the float range.
    """
    if not (math.isfinite(big_d) and big_d > 0):
        raise DomainError(f"D must be finite and > 0, got {big_d}")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    it = 0

    def profile(p_r):
        nonlocal it
        it += 1
        if it * r > DEFAULT_ENUM_WORK_CAP:
            raise BudgetExceededError(
                f"Lagrange minimum at D={big_d}, r={r} exceeds work cap "
                f"{DEFAULT_ENUM_WORK_CAP}")
        return _lagrange_profile(p_r, r)

    lo, hi = 0.0, min(1.0, big_d)
    top = bottom = profile(hi)
    while sum(top[1]) < big_d:
        lo, hi, bottom = hi, min(2 * hi, big_d), top
        top = profile(hi)
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        at_mid = profile(mid)
        if sum(at_mid[1]) < big_d:
            lo, bottom = mid, at_mid
        else:
            hi, top = mid, at_mid
    ratios, ell = min(top, bottom, key=lambda at: abs(sum(at[1]) - big_d))
    residual = abs(sum(ell) - big_d)
    if residual > max(1e-8, 64 * math.ulp(float(big_d))):
        raise NoConvergenceError(
            f"constraint residual {residual} too large", bracket=(lo, hi))
    value = sum(l * math.log(q) for l, q in zip(ell, ratios))
    if value == math.inf:
        raise DomainError(
            f"Lagrange minimum at D={big_d:.6g}, r={r} overflows a float")
    return LagrangeSolution(value, ratios, ell, residual, it)


# -- independence counting and chromatic bounds ----------------------------


def _require_janson_domain(n, d, r):
    if not (n >= 1 and math.isfinite(d) and d > 0 and r >= 1):
        raise DomainError("require n >= 1, finite d > 0, r >= 1")


def _exp_in_range(log_value, what):
    """e^log_value, or DomainError when it passes the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(
            f"{what} = e^{log_value:.6g} overflows a float") from None


def janson_k0(n, d, r) -> float:
    """Independent-set size threshold 10 r! n log d / d^r (needs d > 1),
    evaluated in log space."""
    _require_janson_domain(n, d, r)
    if d <= 1:
        raise DomainError("k0 requires d > 1")
    log_k0 = (math.log(10) + math.lgamma(r + 1) + math.log(n)
              + math.log(math.log(d)) - r * math.log(d))
    return _exp_in_range(log_k0, "k0")


def janson_mu(n, d, r, k) -> float:
    """Expected path count C(k,2) C(n-2, r-1) p^r with p = d/n, evaluated
    in log space."""
    _require_janson_domain(n, d, r)
    if not k >= 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if k < 2 or n - 2 < r - 1:
        return 0.0
    log_mu = (_log_binomial(k, 2) + _log_binomial(n - 2, r - 1)
              + r * (math.log(d) - math.log(n)))
    return _exp_in_range(log_mu, "mu")


def _log_binomial(n, k):
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def aks_chi_bound(delta, t, c=1.0) -> float:
    """Sparse-neighborhood chromatic bound c * Delta / log t, for 2 <= t <= Delta.

    The leading constant is taken as an explicit input (default 1): only the
    bound is evaluated here, never the coloring procedure behind it.
    """
    if not (math.isfinite(delta) and 2 <= t <= delta):
        raise DomainError("require 2 <= t <= delta < inf")
    if not (math.isfinite(c) and c > 0):
        raise DomainError(f"c must be finite and > 0, got {c}")
    bound = c * delta / math.log(t)
    if bound == math.inf:
        raise DomainError(
            f"aks bound {c:.6g} * {delta:.6g} / log {t:.6g} overflows a float")
    return bound

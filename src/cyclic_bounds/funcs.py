"""Decay kernels and block bounds used throughout the analysis.

The kernel family is

    eval_g(k, x)   = k (1 - exp(-x/k)) / (exp(x) - 1),   eval_g(k, 0) = 1,

for any real k > 0, together with its k -> infinity limit x / (exp(x) - 1)
(request it with the sentinel INFINITY).  The family interpolates between
exp(-x) at k = 1 and the limit kernel; all members are positive, decreasing
and convex.  The helper p(x) = (1 - exp(-x)) / x links them through the exact
factorization eval_g(k, x) = eval_g(INFINITY, x) * eval_p(x / k).

Everything is evaluated through expm1/log1p style kernels so the removable
singularities at x = 0 cost no accuracy, and extreme arguments fall back to
log-space arithmetic instead of overflowing.
"""

from __future__ import annotations

import math

from .errors import _integer, _real

__all__ = [
    "INFINITY",
    "eval_g",
    "eval_g_derivative",
    "eval_p",
    "eval_f",
    "eval_f_derivative",
    "lower_bound_theorem2",
]

INFINITY = math.inf

# Largest exp() argument used directly (expm1 raises past float64 range); caps witness log-entries.
_EXP_MAX = 700.0
_LOG_FLOAT_MAX = 709.0


# ---------------------------------------------------------------------------
# the kernels
# ---------------------------------------------------------------------------

def _g_inf(x: float) -> float:
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if x > _EXP_MAX:
        # x / (e^x - 1) in log space; underflows gracefully to 0
        log_g = math.log(x) - x - math.log1p(-math.exp(-x))
        return math.exp(log_g)
    return x / math.expm1(x)


def eval_g(idx, x: float) -> float:
    """Kernel value for family index idx (positive real or INFINITY) at real x."""
    k = _real("idx", idx, 0.0)
    x = float(x)
    if k == INFINITY:
        return _g_inf(x)
    if x == 0.0:
        return 1.0
    if x > _EXP_MAX:
        # value ~ k e^{-x}; assemble in log space
        log_g = (
            math.log(k)
            + math.log(-math.expm1(-x / k))
            - x
            - math.log1p(-math.exp(-x))
        )
        return math.exp(log_g)
    if -x / k > _EXP_MAX:
        # very negative x: value ~ k e^{-x/k}, may genuinely overflow
        y = -x
        log_g = (
            math.log(k)
            + y / k
            + math.log1p(-math.exp(-y / k))
            - math.log1p(-math.exp(-y))
        )
        return math.inf if log_g >= _LOG_FLOAT_MAX else math.exp(log_g)
    return -k * math.expm1(-x / k) / math.expm1(x)


def eval_p(x: float) -> float:
    """p(x) = (1 - exp(-x)) / x with the removable singularity p(0) = 1."""
    x = float(x)
    if x == 0.0:
        return 1.0
    if x == -math.inf:
        return math.inf
    if -x > _EXP_MAX:
        y = -x
        log_p = y + math.log1p(-math.exp(-y)) - math.log(y)
        return math.inf if log_p >= _LOG_FLOAT_MAX else math.exp(log_p)
    return -math.expm1(-x) / x


# Maclaurin coefficients of d/du [u / (e^u - 1)]: B_n u^{n-1} / (n-1)! summed
# over even n plus the constant -1/2.  Nonzero through u^13 keeps the series
# good to ~1e-16 for |u| <= 0.35.
_GINF_PRIME_SERIES = (
    (1, 1.0 / 6.0),
    (3, -1.0 / 180.0),
    (5, 1.0 / 5040.0),
    (7, -1.0 / 151200.0),
    (9, 1.0 / 4790016.0),
    (11, -691.0 / (2730.0 * 39916800.0)),
    (13, 7.0 / (6.0 * 6227020800.0)),
)


def _g_inf_prime(u: float) -> float:
    if abs(u) < 0.35:
        acc = -0.5
        for power, coef in _GINF_PRIME_SERIES:
            acc += coef * u**power
        return acc
    if u > 350.0:
        # (E - u e^u) / E^2 ~ -(u - 1) e^{-u}, corrections below 1e-150
        return -math.exp(math.log(u - 1.0) - u)
    e = math.expm1(u)
    return (e - u * math.exp(u)) / (e * e)


# Series for p'(x): sum over n >= 1 of (-1)^n n x^{n-1} / (n+1)!.
_P_PRIME_SERIES = tuple(
    (n - 1, (-1.0) ** n * n / math.factorial(n + 1)) for n in range(1, 18)
)


def _p_prime(x: float) -> float:
    if abs(x) < 0.5:
        acc = 0.0
        for power, coef in _P_PRIME_SERIES:
            acc += coef * x**power
        return acc
    if -x > _EXP_MAX:
        # ((1 + x) e^{-x} - 1) / x^2 ~ (1 + x) e^{-x} / x^2, negative, may overflow
        y = -x
        log_mag = math.log(y - 1.0) + y - 2.0 * math.log(y)  # nan at x = -inf
        return -math.exp(log_mag) if log_mag < _LOG_FLOAT_MAX else -math.inf
    if x > _EXP_MAX:
        # the formula below, whose (1 + x) e^{-x} is under half an ulp of 1; -0.0 at inf
        return -1.0 / (x * x)
    return ((1.0 + x) * math.exp(-x) - 1.0) / (x * x)


def eval_g_derivative(idx, x: float) -> float:
    """d/dx of eval_g(idx, .); strictly negative on the real line, -0.0 where it underflows.

    Finite families are differentiated through the factorization
    g_k = g_inf(x) * p(x/k), whose two derivative terms share a sign, so no
    cancellation occurs anywhere.
    """
    k = _real("idx", idx, 0.0)
    x = float(x)
    if math.isinf(x):
        # limits: flat at +inf; slope of k e^{-x/k} (-inf) or of -x (-1) at -inf
        return 0.0 if x > 0.0 else (-1.0 if k == INFINITY else -math.inf)
    if k == INFINITY:
        return _g_inf_prime(x)
    u = x / k
    return _g_inf_prime(x) * eval_p(u) + _g_inf(x) * _p_prime(u) / k


# ---------------------------------------------------------------------------
# block bound f and closed-form floors
# ---------------------------------------------------------------------------

def _softplus(t: float) -> float:
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


# The least int that float() refuses, since it would round to 2^1024.
_K_FLOAT_END = 2**1024 - 2**970


def _over_huge_k(v: float, ki: int) -> float:
    """v / ki for an int ki >= _K_FLOAT_END, scaled by 2^s so that no int is converted whole."""
    s = ki.bit_length() - 64
    return math.ldexp(v / (ki >> s), -s)


def _block_bound(ki: int, sp: float) -> float:
    """k (e^{sp/k} - 1) for an int k >= 1 and sp >= 0, the softplus of t.

    Never below sp, as k (e^{x/k} - 1) >= x: the float path clamps the one-ulp
    undershoot that rounding sp / k gives at some large k.
    """
    if ki < _K_FLOAT_END:
        arg = sp / ki
        return math.inf if arg > _EXP_MAX else max(sp, ki * math.expm1(arg))
    a = _over_huge_k(sp, ki)  # at most 1 for finite sp; sp (e^a - 1) / a is the value
    return sp * (math.expm1(a) / a) if 0.0 < a < math.inf else sp


def eval_f(k, t: float) -> float:
    """Per-block bound f_k(t) = k ((1 + e^t)^{1/k} - 1); convex, increasing.

    f_k(0) = k (2^{1/k} - 1) is the floor of the normalized cyclic sum.
    """
    return _block_bound(_integer("k", k, 1), _softplus(float(t)))


def eval_f_derivative(k, t: float) -> float:
    """Closed form (1 + e^t)^{1/k} / (1 + e^{-t}); positive for all t."""
    ki = _integer("k", k, 1)
    t = float(t)
    sp = _softplus(t)
    if ki >= _K_FLOAT_END:  # e^{sp/k} / (1 + e^{-t}), without the rounding of t - sp
        return math.exp(_over_huge_k(sp, ki) + min(t, 0.0)) / (1.0 + math.exp(-abs(t)))
    arg = sp / ki + (t - sp)  # grouped so that a huge t does not absorb sp / ki
    return math.inf if t == math.inf or arg > _EXP_MAX else math.exp(arg)


def lower_bound_theorem2(k) -> float:
    """Unconditional floor k (2^{1/k} - 1) = f_k(0) of the normalized cyclic sum.

    Never below math.log(2) for any k >= 1, and decreasing toward it.
    """
    return _block_bound(_integer("k", k, 1), math.log(2.0))

"""Near-optimal witness vectors certifying the common-tangent ceiling.

Given a solved tangent geometry for integer k >= 2 and a slack eps > 0, the
plan picks a rational weight mu* = m/n close to the tangent weight mu_k (via
continued-fraction convergents), keeps the left abscissa a* = a_k, and moves
the right abscissa to b* = -mu*/(1-mu*) * a* so the linear constraint
mu* a* + (1-mu*) b* = 0 holds by construction.  The built vector of length n
is sparse-geometric: below m' = n - m only every k-th entry is nonzero and
those grow geometrically like exp(j b*); from m' on the entries decay
geometrically like exp(a* (i - n) / k).  All but k + 1 of its nonzero cyclic
sum terms collapse to the two closed forms exp(-b*) and g_k(a*) / k, which
yields the analytic certificate

    (k/n) * sum  <  (1-mu*) exp(-b*) + mu* g_k(a*) + delta / n  <  gamma_k + eps

once n > 2 delta / eps, where delta = k^2 exp(-a*/k) - k g_k(a*).

Planning and evaluation are pure Python, and evaluation is O(k) once per
(k, a*): the value is computed from the closed form, without building the
vector.  numpy is imported only by the functions that build or sum the
vector, and only build_witness refuses a valid spec whose entries would
leave float64 range.

Only the scan's threshold and the scale depend on eps, so the rest of a
plan and an evaluation is memoized in bounded caches of immutable values,
each keyed by what its value depends on: _kernel_constants(k, a*) holds
g_k(a*) and delta; _scan_convergents(mu_k) the convergents p/q of mu_k with
0 < p < q; _scan_row(k, a*, p, q) b*, the mid value and Fraction(p, q) of
one convergent, computed only when a scan reaches it; and
_wrap_partials(k, a*) the exact sum of the k - 1 wrap terms as a few
non-overlapping partials.  A first plan therefore costs no more than an
uncached one, a hand-built tangent solution for the same k with another a*
gets its own values, and refusing a plan for a huge k costs O(1), since
only an evaluation sums the wrap terms.

A planned spec is built from the numbers the scan already holds (b*, the
mid value, delta and gamma_k); it skips only their re-derivation, not the
guards every spec passes (_checked_abscissa).  It and a public
WitnessSpec(...) write their fields through _fill, so every field is derived
in one place.  Cached or not, planned or public, every result has the same
bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import CapacityError, InvalidSpecError, SolverError, _integer, _real
from .funcs import _EXP_MAX, eval_g
from .tangent import TangentSolution, _mixed_value, solve_tangent

if TYPE_CHECKING:
    import numpy as np

    from .sums import CyclicVector

__all__ = [
    "WitnessSpec",
    "WitnessReport",
    "plan_witness",
    "build_witness",
    "witness_value_and_bound",
    "DEFAULT_N_CAP",
]

DEFAULT_N_CAP = 10_000_000


@dataclass(frozen=True)
class WitnessSpec:
    """Discrete plan for one witness vector; one that exists is valid.

    Stored: k, n, m, a_star, eps.  Derived: m_prime = n - m, the exact
    mu_star = m/n, b_star, delta, analytic_bound (the certificate's middle
    term) and gamma_plus_eps.  Construction raises InvalidSpecError unless
    k, n, m are integers (stored as ints), k >= 2, k | m, k | n, 0 < m < n,
    a_star and eps are reals (stored as floats), a_star < 0 < b_star,
    0 < eps < inf and the mid-certificate
    (1-mu*) exp(-b*) + mu* g_k(a*) < gamma_k + eps/2 holds, and CapacityError
    when n is beyond float range.
    """

    k: int
    n: int
    m: int
    a_star: float
    eps: float
    m_prime: int = field(init=False)
    mu_star: Fraction = field(init=False)
    b_star: float = field(init=False)
    delta: float = field(init=False)
    analytic_bound: float = field(init=False)
    gamma_plus_eps: float = field(init=False)

    def __post_init__(self) -> None:
        k = _integer("k", self.k, 2, error=InvalidSpecError)
        n = _integer("n", self.n, 2, error=InvalidSpecError)
        m = _integer("m", self.m, 1, n - 1, error=InvalidSpecError)
        a = _real("a_star", self.a_star, -math.inf, math.inf, InvalidSpecError)  # a cache key
        eps = _real("eps", self.eps, 0.0, math.inf, InvalidSpecError)
        if n % k != 0 or m % k != 0:
            raise InvalidSpecError(f"both m={m} and n={n} must be divisible by k={k}")
        mu = Fraction(m, n)
        b = _checked_abscissa(k, n, a, eps, mu.numerator, mu.denominator)
        gamma = solve_tangent(k).gamma
        # m / n is float(mu): int division rounds correctly
        mix, half = _mixed_value(k, m / n, a, b), gamma + eps / 2.0
        if not mix < half:
            raise InvalidSpecError(f"mixed value {mix} is not below gamma + eps/2 = {half}")
        _fill(self, k, n, m, a, eps, mu, b, gamma, mix, _kernel_constants(k, a)[1])


def _checked_abscissa(k: int, n: int, a: float, eps: float, p: int, q: int) -> float:
    """b* for mu* = p/q, after the guards every spec passes, in this order.

    Raises CapacityError when n is beyond float range and InvalidSpecError
    unless a < 0 < b* and a / k < 0: the wrap terms divide by expm1(a s / k),
    which is 0 once a / k underflows.
    """
    if n > sys.float_info.max:  # delta / n and the abscissas need n, m as floats
        raise CapacityError(
            f"witness for k={k}, eps={eps} needs n beyond float range", required_n=n
        )
    b = _right_abscissa(a, p, q)
    if not (a < 0.0 < b):
        raise InvalidSpecError(f"need a_star < 0 < b_star, got {a}, {b}")
    if not a / k < 0.0:
        raise InvalidSpecError(f"a_star / k underflows to 0 for a_star = {a}, k = {k}")
    return b


def _fill(spec: WitnessSpec, k: int, n: int, m: int, a: float, eps: float, mu: Fraction,
          b: float, gamma: float, mix: float, delta: float) -> WitnessSpec:
    """Write every field of spec from its checked inputs, mu = m/n, b*, gamma_k,
    the mid value mix and delta."""
    # one write to the instance dict sets every field past the frozen __setattr__
    vars(spec).update(k=k, n=n, m=m, a_star=a, eps=eps, m_prime=n - m, mu_star=mu, b_star=b,
                      delta=delta, analytic_bound=mix + delta / n, gamma_plus_eps=gamma + eps)
    return spec


@dataclass(frozen=True)
class WitnessReport:
    """Witness value and its certificate; certified: value <= analytic_bound < gamma_plus_eps."""

    value: float
    analytic_bound: float
    gamma_plus_eps: float

    @property
    def certified(self) -> bool:
        return self.value <= self.analytic_bound < self.gamma_plus_eps


def _right_abscissa(a_star: float, p: int, q: int) -> float:
    """b* = -a* p/(q-p), so mu* a* + (1-mu*) b* = 0 holds for mu* = p/q."""
    return -a_star * p / (q - p)


@lru_cache(maxsize=256)
def _kernel_constants(k: int, a_star: float) -> tuple[float, float]:
    """(g_k(a*), delta = k^2 exp(-a*/k) - k g_k(a*)); delta/n bounds what the k tail terms add."""
    g = eval_g(k, a_star)
    return g, k * k * math.exp(-a_star / k) - k * g


@lru_cache(maxsize=256)
def _scan_convergents(mu: float) -> tuple[tuple[int, int], ...]:
    """The convergents p/q of mu with 0 < p < q, in the order a scan tries them."""
    return tuple((p, q) for p, q in _convergents(mu) if 0 < p < q)


@lru_cache(maxsize=1024)
def _scan_row(k: int, a_star: float, p: int, q: int) -> tuple[float, float, Fraction]:
    """(mid value, b*, Fraction(p, q)) of the convergent p/q of mu_k."""
    b = _right_abscissa(a_star, p, q)
    # convergents are coprime, so p/q is m/n in lowest terms
    return _mixed_value(k, p / q, a_star, b), b, Fraction(p, q)


@lru_cache(maxsize=256)
def _wrap_partials(k: int, a_star: float) -> tuple[float, ...]:
    """Exact partials of the closed form's k - 1 wrap terms, expm1(-a*/k) / (-expm1(a* s/k))."""
    rise = math.expm1(-a_star / k)
    return _exact_partials([rise / -math.expm1(a_star * s / k) for s in range(1, k)])


def _exact_partials(terms: list[float]) -> tuple[float, ...]:
    """Non-overlapping floats whose exact sum is that of terms, which is consumed.

    msum's partials, read off fsum at C speed: fsum rounds an exact sum
    correctly, so each pass yields the remainder of the terms less the
    partials so far, rounded; it is appended negated until it is 0.
    """
    parts = []
    while part := math.fsum(terms):
        parts.append(part)
        terms.append(-part)
    return tuple(parts)


def _convergents(x: float) -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q of a float, exact and terminating."""
    num, den = x.as_integer_ratio()
    coeffs = []
    while den:
        q, r = divmod(num, den)
        coeffs.append(q)
        num, den = den, r
    h_prev, h = 1, coeffs[0]
    k_prev, k = 0, 1
    out = [(h, k)]
    for a in coeffs[1:]:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        out.append((h, k))
    return out


def plan_witness(
    k: int, eps: float, sol: TangentSolution, n_cap: int = DEFAULT_N_CAP
) -> WitnessSpec:
    """Choose mu* = m/n and (a*, b*) so the analytic certificate beats gamma_k + eps.

    a* is kept at the tangency abscissa of sol; each convergent p/q of mu_k is
    tried in turn with b* = -p/(q-p) * a*, advancing to the next convergent
    whenever the strict mid-certificate mu* g(a*) + (1-mu*) e^{-b*}
    < gamma + eps/2 fails; gamma is solve_tangent(k).gamma, the value
    WitnessSpec(...) tests against, so the returned spec equals the one it
    would build from (k, n, m, a*, eps).  n = k q s with the smallest integer
    scale s making delta/n < eps/2.

    sol must have index float(k), under which solve_tangent memoizes k; any
    other solution, or a k beyond float range, raises InvalidSpecError.
    Raises CapacityError when the needed n exceeds n_cap, or when a tiny eps
    puts it beyond float range; a plan whose entries would leave float64
    range is still returned, since only build_witness needs them.  Raises
    SolverError when no convergent, mu_k itself included, meets the
    mid-certificate in float arithmetic: eps/2 is then below the rounding of
    the mid value, which needs eps within a few ulps of gamma, as in
    plan_witness(5, 1e-16, solve_tangent(5)).  n is chosen only after a
    convergent passes, so this happens whatever n_cap is.
    """
    ki = _integer("k", k, 2, error=InvalidSpecError)
    n_cap = _integer("n_cap", n_cap, 1, error=InvalidSpecError)
    eps = _real("eps", eps, 0.0, math.inf, InvalidSpecError)
    try:
        idx = float(ki)  # the index solve_tangent memoizes k under
    except OverflowError:  # no solution is for a k beyond float range
        idx = math.nan
    if sol.idx != idx:
        raise InvalidSpecError(f"tangent solution is for index {sol.idx}, not for k = {ki}")
    a_star, gamma = sol.a, solve_tangent(ki).gamma
    half = gamma + eps / 2.0
    for p, q in _scan_convergents(sol.mu):
        mix, b, mu_star = _scan_row(ki, a_star, p, q)
        if not mix < half:
            continue
        delta = _kernel_constants(ki, a_star)[1]
        quotient = 2.0 * delta / (eps * ki * q)
        if quotient == math.inf:  # a subnormal eps: int() cannot take the overflow
            raise CapacityError(
                f"witness for k={ki}, eps={eps} needs n beyond float range > cap {n_cap}"
            )
        scale = int(quotient) + 1
        n = ki * q * scale
        if n > n_cap:
            raise CapacityError(
                f"witness for k={ki}, eps={eps} needs n = {n} > cap {n_cap}",
                required_n=n,
            )
        _checked_abscissa(ki, n, a_star, eps, p, q)  # the guards every spec passes
        return _fill(object.__new__(WitnessSpec), ki, n, ki * p * scale, a_star, eps,
                     mu_star, b, gamma, mix, delta)

    raise SolverError(
        f"no continued-fraction convergent of mu={sol.mu} satisfied the "
        f"mid-certificate for k={ki}, eps={eps}"
    )


def _check_float64_range(spec: WitnessSpec) -> None:
    """Raise CapacityError if the entries of build_witness(spec) would leave float64 range.

    The peak log-entry (m'/k) b* sits at the sparse/dense boundary.
    """
    peak = (spec.m_prime / spec.k) * spec.b_star
    if peak > _EXP_MAX:
        raise CapacityError(
            f"witness for k={spec.k}, eps={spec.eps} needs entries up to "
            f"exp({peak:.1f}), beyond float64 range",
            required_n=spec.n,
        )


def _log_profile(n: int, k: int, m_prime: int, a: float, b: float) -> np.ndarray:
    """Log-entries of the witness layout of length n, -inf where an entry is zero.

    Entry i (1-based) has log j b at the sparse indices i = j k < m', is zero
    elsewhere below m', and has log a (i - n) / k from m' to n.
    """
    import numpy as np

    logx = np.full(n, -np.inf)
    js = np.arange(1, m_prime // k)
    logx[js * k - 1] = js * b
    i_dense = np.arange(m_prime, n + 1)
    logx[i_dense - 1] = a * (i_dense - n) / k
    return logx


def build_witness(spec: WitnessSpec) -> CyclicVector:
    """Materialize the sparse-geometric vector described by spec.

    Log-entries are linear in the index and exponentiated once, so no
    cumulative multiplication error accrues; the entries get the
    constructor's scan and are wrapped without a copy.  Raises CapacityError
    for a valid spec whose entries leave float64 range.
    """
    import numpy as np

    from .sums import CyclicVector

    _check_float64_range(spec)
    logx = _log_profile(spec.n, spec.k, spec.m_prime, spec.a_star, spec.b_star)
    return CyclicVector._adopt(CyclicVector._checked(np.exp(logx)))


def _closed_form_value(spec: WitnessSpec) -> float:
    """(k/n) times the cyclic sum of build_witness(spec), term class by term class.

    With m' = n - m the sum is (m'/k) e^{-b*} from the nonzero sparse entries
    and the last one, (m - k + 1) g_k(a*)/k from the dense windows, and the
    k - 1 terms at i = n - s whose windows wrap onto zeros, each
    expm1(-a*/k) / (-expm1(a* s/k)).  O(k) scalar work the first time a
    (k, a*) is evaluated, O(1) after; no entry is formed.
    """
    k, a = spec.k, spec.a_star
    # the partials sum exactly to the wrap terms, so fsum rounds the same exact total
    total = math.fsum([spec.m_prime // k * math.exp(-spec.b_star),
                       (spec.m - k + 1) * _kernel_constants(k, a)[0] / k, *_wrap_partials(k, a)])
    return k / spec.n * total


def witness_value_and_bound(spec: WitnessSpec) -> WitnessReport:
    """The witness value and its analytic certificate, without building the vector.

    value is (k/n) times the cyclic sum of the vector build_witness(spec)
    would return, from its closed form in O(k) pure-Python work, so it
    needs no numpy and holds for specs whose entries leave float64 range;
    analytic_bound is (1-mu*) exp(-b*) + mu* g_k(a*) + delta/n.
    """
    return WitnessReport(_closed_form_value(spec), spec.analytic_bound, spec.gamma_plus_eps)


def _value_and_bound(spec: WitnessSpec, x: CyclicVector) -> WitnessReport:
    """The report for x, the vector built from spec, with value summed from its entries."""
    from .sums import diananda_sum

    value = spec.k / spec.n * diananda_sum(x, spec.k)
    return WitnessReport(value, spec.analytic_bound, spec.gamma_plus_eps)

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._records import json_text, record
from .errors import CapacityError, InvalidSpecError, SolverError
from .funcs import eval_g
from .sums import CyclicVector, diananda_sum
from .tangent import TangentSolution, _mixed_value, solve_tangent

__all__ = [
    "WitnessSpec",
    "WitnessReport",
    "plan_witness",
    "build_witness",
    "witness_value_and_bound",
    "DEFAULT_N_CAP",
]

DEFAULT_N_CAP = 10_000_000

# Largest log-entry the built vector may carry; beyond this exp() leaves
# float64 range and the vector cannot be materialized at all.
_MAX_LOG_ENTRY = 700.0


@dataclass(frozen=True)
class WitnessSpec:
    """Discrete plan for one witness vector.

    mu_star is the exact rational m/n; m and n are both divisible by k and
    m < n.  delta is recorded for audit: the analytic certificate is
    (1-mu*) exp(-b*) + mu* g_k(a*) + delta/n.
    """

    k: int
    n: int
    m: int
    m_prime: int
    a_star: float
    b_star: float
    mu_star: Fraction
    eps: float
    delta: float

    def validate(self) -> None:
        if self.k < 2:
            raise InvalidSpecError(f"witness needs integer k >= 2, got {self.k}")
        if self.n <= 0 or self.m <= 0 or self.m >= self.n:
            raise InvalidSpecError(f"need 0 < m < n, got m={self.m}, n={self.n}")
        if self.n % self.k != 0 or self.m % self.k != 0:
            raise InvalidSpecError(
                f"both m={self.m} and n={self.n} must be divisible by k={self.k}"
            )
        if self.m_prime != self.n - self.m:
            raise InvalidSpecError(
                f"m_prime={self.m_prime} is not n - m = {self.n - self.m}"
            )
        if not (self.a_star < 0.0 < self.b_star):
            raise InvalidSpecError(
                f"need a_star < 0 < b_star, got {self.a_star}, {self.b_star}"
            )
        if not 0.0 < self.eps < math.inf:
            raise InvalidSpecError(f"eps must be positive and finite, got {self.eps}")
        mu = float(self.mu_star)
        if self.mu_star != Fraction(self.m, self.n):
            raise InvalidSpecError(
                f"mu_star={self.mu_star} does not equal m/n = {self.m}/{self.n}"
            )
        lin = mu * self.a_star + (1.0 - mu) * self.b_star
        if abs(lin) > 1e-12:
            raise InvalidSpecError(
                f"mu*a + (1-mu)*b = {lin} violates the 1e-12 linear constraint"
            )
        gamma = solve_tangent(self.k).gamma
        mix = _mixed_value(self.k, mu, self.a_star, self.b_star)
        if not mix < gamma + self.eps / 2.0:
            raise InvalidSpecError(
                f"mixed value {mix} is not below gamma + eps/2 = {gamma + self.eps / 2.0}"
            )

    def json_fields(self) -> dict:
        """The fields of the JSON record, in output order."""
        return record(self, "k n m a_star b_star eps delta")

    def to_json(self) -> str:
        return json_text(self.json_fields())


@dataclass(frozen=True)
class WitnessReport:
    """Computed value of the witness against its analytic certificate."""

    value: float
    analytic_bound: float
    gamma_plus_eps: float


def _convergents(x: float) -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q of a float, exact and terminating."""
    fr = Fraction(x)
    num, den = fr.numerator, fr.denominator
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
    < gamma + eps/2 fails.  n = k q s with the smallest integer scale s
    making delta/n < eps/2.

    Raises CapacityError when the needed n exceeds n_cap, or when the built
    entries would leave float64 range.
    """
    ki = int(k)
    if ki != k or ki < 2:
        raise InvalidSpecError(f"witness needs integer k >= 2, got {k!r}")
    if not 0.0 < eps < math.inf:
        raise InvalidSpecError(f"eps must be positive and finite, got {eps}")
    if not (math.isfinite(sol.idx) and float(sol.idx) == ki):
        raise InvalidSpecError(
            f"tangent solution is for index {sol.idx}, not for k = {ki}"
        )

    a_star = sol.a
    g_a = eval_g(ki, a_star)
    delta = ki * ki * math.exp(-a_star / ki) - ki * g_a

    for p, q in _convergents(sol.mu):
        if p < 1 or q - p < 1:
            continue
        b_star = -a_star * p / (q - p)
        mid = _mixed_value(ki, p / q, a_star, b_star)
        if not mid < sol.gamma + eps / 2.0:
            continue
        scale = int(2.0 * delta / (eps * ki * q)) + 1
        n = ki * q * scale
        if n > n_cap:
            raise CapacityError(
                f"witness for k={ki}, eps={eps} needs n = {n} > cap {n_cap}",
                required_n=n,
            )
        m = ki * p * scale
        m_prime = n - m
        # the peak log-entry sits at the sparse/dense boundary
        if (m_prime / ki) * b_star > _MAX_LOG_ENTRY:
            raise CapacityError(
                f"witness for k={ki}, eps={eps} needs entries up to "
                f"exp({(m_prime / ki) * b_star:.1f}), beyond float64 range",
                required_n=n,
            )
        spec = WitnessSpec(
            k=ki,
            n=n,
            m=m,
            m_prime=m_prime,
            a_star=a_star,
            b_star=b_star,
            mu_star=Fraction(m, n),
            eps=float(eps),
            delta=delta,
        )
        spec.validate()
        return spec

    raise SolverError(
        f"no continued-fraction convergent of mu={sol.mu} satisfied the "
        f"mid-certificate for k={ki}, eps={eps}"
    )


def _log_profile(n: int, k: int, m_prime: int, a: float, b: float) -> np.ndarray:
    """Log-entries of the witness layout of length n, -inf where an entry is zero.

    Entry i (1-based) has log j b at the sparse indices i = j k < m', is zero
    elsewhere below m', and has log a (i - n) / k from m' to n.
    """
    logx = np.full(n, -np.inf)
    js = np.arange(1, m_prime // k)
    logx[js * k - 1] = js * b
    i_dense = np.arange(m_prime, n + 1)
    logx[i_dense - 1] = a * (i_dense - n) / k
    return logx


def build_witness(spec: WitnessSpec) -> CyclicVector:
    """Materialize the sparse-geometric vector described by spec.

    Log-entries are linear in the index and exponentiated once, so no
    cumulative multiplication error accrues.
    """
    spec.validate()
    logx = _log_profile(spec.n, spec.k, spec.m_prime, spec.a_star, spec.b_star)
    return CyclicVector._adopt(np.exp(logx))


def witness_value_and_bound(spec: WitnessSpec) -> WitnessReport:
    """Evaluate the built witness and compare with its analytic certificate.

    value is (k/n) times the cyclic sum of the built vector; analytic_bound
    is (1-mu*) exp(-b*) + mu* g_k(a*) + delta/n.
    """
    return _value_and_bound(spec, build_witness(spec))


def _value_and_bound(spec: WitnessSpec, x: CyclicVector) -> WitnessReport:
    """witness_value_and_bound for the vector x already built from spec."""
    value = spec.k / spec.n * diananda_sum(x, spec.k)
    mix = _mixed_value(spec.k, float(spec.mu_star), spec.a_star, spec.b_star)
    analytic = mix + spec.delta / spec.n
    gamma = solve_tangent(spec.k).gamma
    return WitnessReport(
        value=value, analytic_bound=analytic, gamma_plus_eps=gamma + spec.eps
    )

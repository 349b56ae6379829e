"""Cyclic interval sums, Diananda/Baston cyclic sums, and structure-preserving transforms.

All quantities live on nonnegative vectors with cyclic indexing.  The public
index convention is 1-based (entry(1)..entry(n), wrapping modulo n); internal
storage is a 0-based numpy array.  Error messages always report 1-based
indices.

Every operation here is a pure function of immutable inputs and is safe to
call concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, ShapeError, WindowError

__all__ = [
    "CyclicVector",
    "BlockDiagnostics",
    "as_cyclic_vector",
    "interval_sum",
    "diananda_sum",
    "baston_sum",
    "replicate",
    "zero_insert",
    "block_diagnostics",
    "vector_to_json",
    "vector_from_json",
    "vector_to_lines",
    "vector_from_lines",
]


class CyclicVector:
    """Immutable nonnegative vector with cyclic 1-based indexing.

    Entries may be zero; whether the vector is admissible for a given window
    length k (every cyclic window of k consecutive entries has positive sum)
    is a k-dependent property, so it is checked by the operations that need
    it rather than at construction.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[float]):
        arr = np.array(entries, dtype=float, copy=True)
        if arr.ndim != 1:
            raise ShapeError(f"expected a 1-d sequence, got shape {arr.shape}")
        if arr.size < 1:
            raise ShapeError("vector must have at least one entry")
        if not np.all(np.isfinite(arr)):
            bad = int(np.nonzero(~np.isfinite(arr))[0][0])
            raise DomainError(f"entry {bad + 1} is not finite")
        if np.any(arr < 0):
            bad = int(np.nonzero(arr < 0)[0][0])
            raise DomainError(f"entry {bad + 1} is negative ({arr[bad]})")
        arr.flags.writeable = False
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        """Read-only float64 array of the entries (0-based storage)."""
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.size

    def __len__(self) -> int:
        return self._entries.size

    def __iter__(self) -> Iterator[float]:
        return iter(self._entries.tolist())

    def entry(self, i: int) -> float:
        """Entry x_i under 1-based cyclic indexing, so entry(n + i) == entry(i)."""
        return float(self._entries[(i - 1) % self.n])

    def require_window_positivity(self, k: int) -> None:
        """Raise DomainError unless every cyclic window sum of length k is positive."""
        sums = _window_sums(self._entries, _check_window(k, self.n), 0)
        zero = np.nonzero(sums == 0.0)[0]
        if zero.size:
            raise DomainError(
                f"window sum t[{int(zero[0]) + 1},{k}] is zero; "
                f"vector is not admissible for window length {k}"
            )

    def __repr__(self) -> str:
        head = ", ".join(format(v, ".6g") for v in self._entries[:6])
        tail = ", ..." if self.n > 6 else ""
        return f"CyclicVector([{head}{tail}], n={self.n})"


def as_cyclic_vector(x: "CyclicVector | Sequence[float]") -> CyclicVector:
    """Coerce a sequence to CyclicVector; pass CyclicVector through unchanged."""
    return x if isinstance(x, CyclicVector) else CyclicVector(x)


@dataclass(frozen=True)
class BlockDiagnostics:
    """Per-block ratios and partial sums for a vector split into nu blocks of k.

    ratios[j] is the quotient of consecutive block window sums (cyclically),
    so the product over all j telescopes to 1.  partials[j] is the portion of
    the Diananda sum contributed by block j; each one dominates the
    arithmetic-geometric bound k((1 + ratios[j])**(1/k) - 1).
    """

    k: int
    nu: int
    ratios: np.ndarray
    partials: np.ndarray

    def __post_init__(self):
        self.ratios.flags.writeable = False
        self.partials.flags.writeable = False


# ---------------------------------------------------------------------------
# window machinery
# ---------------------------------------------------------------------------

def _check_window(k: int, n: int) -> int:
    k = int(k)
    if k < 1 or k > n:
        raise WindowError(f"window length {k} outside valid range 1..{n}")
    return k


def _window_sums(a: np.ndarray, k: int, shift: int) -> np.ndarray:
    """Sums of k consecutive entries starting at storage index j + shift, for all j.

    Windows run along the last axis, so a 2-d array gives the window sums of
    each row.  Each window is accumulated directly from its k entries (never
    by differencing long prefix sums), so relative error stays at a few ulps
    per window even when entry magnitudes span hundreds of orders.
    """
    n = a.shape[-1]
    ext = np.concatenate([a, a[..., : min(k + shift, n)]], axis=-1) if k + shift > 1 else a
    acc = np.zeros(a.shape)
    for d in range(k):
        acc += ext[..., shift + d : shift + d + n]
    return acc


def _checked_denominators(a: np.ndarray, k: int, shift: int, label: str) -> np.ndarray:
    denom = _window_sums(a, k, shift)
    zero = np.nonzero(denom == 0.0)[0]
    if zero.size:
        j = int(zero[0])
        start = (j + shift) % a.size + 1
        raise DomainError(
            f"window sum t[{start},{k}] is zero while evaluating {label}"
        )
    return denom


# ---------------------------------------------------------------------------
# sums
# ---------------------------------------------------------------------------

def interval_sum(x: "CyclicVector | Sequence[float]", i: int, k: int) -> float:
    """Sum of k consecutive entries starting at 1-based index i, cyclically.

    i may be any integer; it is reduced modulo n.
    """
    v = as_cyclic_vector(x)
    k = _check_window(k, v.n)
    idx = (int(i) - 1 + np.arange(k)) % v.n
    return float(np.sum(v.entries[idx]))


def diananda_sum(x: "CyclicVector | Sequence[float]", k: int) -> float:
    """Cyclic sum of entry i over the window sum of the k entries that follow it.

    The value is invariant under positive scaling of x and under cyclic
    rotation.  Summation is numpy pairwise, which keeps the identity checks
    below 1e-12 relative error for lengths up to about 1e5.

    Raises DomainError (with the offending 1-based window start) if any
    denominator window sums to zero.
    """
    v = as_cyclic_vector(x)
    k = _check_window(k, v.n)
    a = v.entries
    denom = _checked_denominators(a, k, 1, "the cyclic sum")
    return float(np.sum(a / denom))


def baston_sum(x: "CyclicVector | Sequence[float]", k: int) -> float:
    """Cyclic sum of entry i over the window sum of the k entries starting at i.

    The numerator entry sits inside its own denominator window, so every term
    lies in [0, 1].
    """
    v = as_cyclic_vector(x)
    k = _check_window(k, v.n)
    a = v.entries
    denom = _checked_denominators(a, k, 0, "the self-including cyclic sum")
    return float(np.sum(a / denom))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def replicate(x: "CyclicVector | Sequence[float]", copies: int) -> CyclicVector:
    """Concatenation of `copies` copies of x.

    For every window length k valid for x, the normalized cyclic sum
    diananda_sum(., k) / len(.) is preserved exactly.
    """
    copies = int(copies)
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    v = as_cyclic_vector(x)
    return CyclicVector(np.tile(v.entries, copies))


def zero_insert(x: "CyclicVector | Sequence[float]", k: int) -> CyclicVector:
    """Append one zero after each block of k entries (length must be divisible by k).

    The result has length (k+1) * (n/k), is admissible for window length k+1,
    and satisfies diananda_sum(result, k+1) == diananda_sum(x, k).
    """
    v = as_cyclic_vector(x)
    k = _check_window(k, v.n)
    if v.n % k != 0:
        raise ShapeError(f"length {v.n} is not divisible by window length {k}")
    nu = v.n // k
    blocks = v.entries.reshape(nu, k)
    out = np.concatenate([blocks, np.zeros((nu, 1))], axis=1)
    return CyclicVector(out.reshape(-1))


def block_diagnostics(x: "CyclicVector | Sequence[float]", k: int) -> BlockDiagnostics:
    """Ratios of consecutive block window sums and per-block partial sums.

    Requires length n = k * nu and strictly positive entries.  partials sum
    to diananda_sum(x, k) up to reordering of the same terms.
    """
    v = as_cyclic_vector(x)
    k = _check_window(k, v.n)
    if v.n % k != 0:
        raise ShapeError(f"length {v.n} is not divisible by window length {k}")
    a = v.entries
    if np.any(a == 0.0):
        bad = int(np.nonzero(a == 0.0)[0][0])
        raise DomainError(f"entry {bad + 1} is zero; block diagnostics need x > 0")
    nu = v.n // k
    block_sums = a.reshape(nu, k).sum(axis=1)
    ratios = block_sums / np.roll(block_sums, -1)
    terms = a / _window_sums(a, k, 1)
    partials = terms.reshape(nu, k).sum(axis=1)
    return BlockDiagnostics(k=k, nu=nu, ratios=ratios, partials=partials)


# ---------------------------------------------------------------------------
# serialization (17 significant digits on output)
# ---------------------------------------------------------------------------

def vector_to_json(x: "CyclicVector | Sequence[float]") -> str:
    v = as_cyclic_vector(x)
    return "[" + ", ".join(format(e, ".17g") for e in v.entries) + "]"


def vector_from_json(text: str) -> CyclicVector:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ShapeError("expected a JSON array of numbers")
    return CyclicVector(data)


def vector_to_lines(x: "CyclicVector | Sequence[float]") -> str:
    """One value per line, trailing newline included."""
    v = as_cyclic_vector(x)
    return "".join(format(e, ".17g") + "\n" for e in v.entries)


def vector_from_lines(text: str) -> CyclicVector:
    values = [float(line) for line in text.split() if line.strip()]
    return CyclicVector(values)

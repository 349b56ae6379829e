"""Diananda/Baston cyclic sums, block diagnostics, and structure-preserving transforms.

All quantities live on nonnegative vectors with cyclic indexing.  The public
index convention is 1-based (entry(1)..entry(n), wrapping modulo n); internal
storage is a 0-based numpy array.  Error messages always report 1-based
indices.

Every operation here is a pure function of immutable inputs and is safe to
call concurrently.  A public sum whose window sums, quotients or total leave
float64 range raises CapacityError instead of returning inf or a lost term.

Every window sum here comes from one helper, `_slice_sums`: the public
sums take theirs through `_terms_into`, stacks of rows (the descent,
`gradient` and `verify`'s finite differences) through `_windows`, and
batches of 1-d rows of mixed lengths through `_ragged_sums`.  It adds a
window in one of two orders.  A window of fewer than 64 entries adds its
entries left to right, so n windows cost O(nk) adds.  From 64 entries on,
a window adds the power-of-two blocks of k's binary digits, smallest
first, each block the sum of its two halves, so n windows cost
O(n log k).  Either way a window's bits depend only on its entries.

`diananda_sum`, `baston_sum` and `block_diagnostics` never hold an n-length
array of terms.  Each computes its terms a stretch of at most
max(2^15, k) entries at a time into one buffer that belongs to the call.
The two sums reduce the stretches along numpy's own pairwise tree, so each
value is bit for bit np.add.reduce over all n terms.

`replicate` and `zero_insert` write their output once, into the one array
the result wraps, and never scan it.  Every way of creating a
`CyclicVector` either scans its entries (finite and >= 0) or copies them
from one that was scanned, and the transforms' outputs hold only such
copies and 0.0, so a scan could not fail.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, DomainError, ShapeError, WindowError, _integer

__all__ = [
    "CyclicVector",
    "BlockDiagnostics",
    "as_cyclic_vector",
    "diananda_sum",
    "baston_sum",
    "replicate",
    "zero_insert",
    "block_diagnostics",
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
        self._entries = self._checked(np.array(entries, dtype=float, copy=True))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "CyclicVector":
        """Wrap a 1-d float64 array this package has just built, without copying or scanning it.

        Every way of creating a CyclicVector either scans its entries or
        copies them from one that was scanned, so arr may hold only entries
        that passed _checked, copied or not, and 0.0.  Freezes arr in place,
        so the caller must hold no other reference it still writes through.
        """
        arr.flags.writeable = False
        v = cls.__new__(cls)
        v._entries = arr
        return v

    @staticmethod
    def _checked(arr: np.ndarray) -> np.ndarray:
        if arr.ndim != 1:
            raise ShapeError(f"expected a 1-d sequence, got shape {arr.shape}")
        if arr.size < 1:
            raise ShapeError("vector must have at least one entry")
        if not np.isfinite(arr).all():
            bad = int(np.nonzero(~np.isfinite(arr))[0][0])
            raise DomainError(f"entry {bad + 1} is not finite")
        if (arr < 0).any():
            bad = int(np.nonzero(arr < 0)[0][0])
            raise DomainError(f"entry {bad + 1} is negative ({arr[bad]})")
        arr.flags.writeable = False
        return arr

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
        """Entry x_i under 1-based cyclic indexing: entry(n + i) == entry(i) for every integer i."""
        return float(self._entries[(_integer("i", i, None) - 1) % self.n])

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

def _in_float64_range(fn):
    """Make fn raise CapacityError where a sum, product or quotient overflows float64.

    Results of every call that does not overflow are unchanged, bit for bit.
    """

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise CapacityError(f"{fn.__name__}: a value is beyond float64 range") from exc

    return checked


# Columns per tile: 2^15 float64 entries (256 KB) keep a tile's accumulator
# and the slices added into it resident in a 2 MB L2 cache over all k offsets.
_TILE = 1 << 15
# Shortest window summed from power-of-two blocks: 64 is the smallest power of
# two above every window length that a pinned output depends on, so those keep
# the left-to-right fold's bits.
_BLOCK_K = 64


def _slice_sums(ext: np.ndarray, k: int, n: int, out=None) -> np.ndarray:
    """Window sums ext[..., i : i + k].sum(-1) for i < n, written into out when one is given.

    ext holds at least n + k - 1 entries along its last axis.  Windows of
    fewer than _BLOCK_K = 64 entries are the sum of the k slices
    ext[..., d : d + n], started from the first slice (never from a 0.0
    fill) and added in the order d = 1..k-1: O(nk) adds, each entry bit for
    bit the one added into zeros, but for the sign of a zero sum (0.0 + a
    == a for every a but -0.0).  From 64 entries on, each window is split,
    left to right, into the power-of-two blocks of k's binary digits in
    increasing size; each block of 2w entries is the sum of its two blocks
    of w, and the window adds its blocks left to right from the smallest.
    The blocks of each size are built for all windows at once, one level
    from the one below into two reused buffers, so the cost is
    O((n + k) log k) adds and a window's rounding chain at most 2 log2 k
    adds long.  Either way each window is accumulated from its own k
    entries, never by differencing long prefix sums, so relative error stays
    at a few ulps per window even when entry magnitudes span hundreds of
    orders, and a window's bits depend only on its entries, never on n or
    on where ext starts.  With k = 1 and no out, the slice itself is
    returned.
    """
    if k < _BLOCK_K:
        acc = ext[..., :n]
        if k > 1:
            acc = np.add(acc, ext[..., 1 : 1 + n], out=out)
        elif out is not None:
            out[...] = acc
            acc = out
        for d in range(2, k):
            acc += ext[..., d : d + n]
        return acc
    level, width, acc = ext[..., : n + k - 1], 1, None
    spare = (np.empty(level.shape), np.empty(level.shape))
    for j in range(k.bit_length()):
        if j:
            size = level.shape[-1] - width
            into = spare[j % 2][..., :size]
            level = np.add(level[..., :size], level[..., width : width + size], out=into)
            width *= 2
        if k & width:
            block = level[..., k % width : k % width + n]
            if acc is not None:
                acc += block
            elif out is None:
                acc = block.copy()
            else:
                out[...] = block
                acc = out
    return acc


def _terms_into(
    out: np.ndarray, a: np.ndarray, k: int, shift: int, lo: int, context: str
) -> np.ndarray:
    """Terms a[j] / t[j + shift + 1, k] of a 1-d cyclic sum for j from lo, written into out.

    The window sums come from _slice_sums over a[lo:], extended by the
    entries that wrap around to the start where the windows reach past the
    end.  They are checked for zeros and divided into in place while out is
    still in cache, so the terms are bit for bit those of one pass over the
    whole vector, wherever lo falls.  The first zero window raises
    DomainError naming its 1-based start, followed by context.
    """
    n, m = a.size, out.size
    end = lo + m + k + shift - 1
    ext = a[lo:end] if end <= n else np.concatenate((a[lo:], a[: end - n]))
    _slice_sums(ext[shift:], k, m, out)
    if not out.all():
        start = (lo + int(np.flatnonzero(out == 0.0)[0]) + shift) % n + 1
        raise DomainError(f"window sum t[{start},{k}] is zero{context}")
    return np.divide(a[lo : lo + m], out, out)


def _cyclic_sum(a: np.ndarray, k: int, shift: int, context: str) -> np.float64:
    """Sum of all n terms of _terms_into, bit for bit np.add.reduce of the whole terms array.

    No n-length terms array is held: each leaf of _pairwise_tree, a stretch
    of at most max(_TILE, k) terms, is written into one buffer and reduced
    there.  (A tile at least k wide keeps the block levels' k extra entries
    per tile within a factor of two of its width.)  Leaves run left first,
    so the first zero window named is the lowest.  The buffer belongs to
    the call, so calls may run concurrently.
    """
    buf = np.empty(min(a.size, max(_TILE, k)))

    def leaf(lo: int, m: int) -> np.float64:
        return np.add.reduce(_terms_into(buf[:m], a, k, shift, lo, context))

    return _pairwise_tree(leaf, 0, a.size, buf.size)


def _pairwise_tree(leaf, lo: int, m: int, width: int) -> np.float64:
    """np.add.reduce of m float64 terms from lo, given leaf(lo, m) for stretches of at most width.

    For contiguous float64, np.add.reduce is numpy's pairwise_sum over the
    whole array: a stretch of more than 128 terms is split after
    m // 2 - (m // 2) % 8 of its m terms and the sums of the two parts are
    added.  This walks the same tree down to the stretches of at most width
    terms, whose np.add.reduce is their subtree's own sum, so width must be
    at least 128 if m exceeds it.  The adds above the leaves are np.float64
    adds, so they obey the caller's np.errstate where a Python float would
    overflow to inf silently.  (A closure that called itself would be a
    reference cycle, keeping its arrays alive until the cyclic garbage
    collector runs.)
    """
    if m <= width:
        return leaf(lo, m)
    m2 = m // 2
    m2 -= m2 % 8
    return _pairwise_tree(leaf, lo, m2, width) + _pairwise_tree(leaf, lo + m2, m - m2, width)


def _windows(x: np.ndarray, k: int) -> np.ndarray:
    """Shift-one cyclic window sums of each row of x: [..., j] sums the k entries after j.

    They are the `_slice_sums` windows of each row extended by its first k
    entries, so a row's windows are those of `diananda_sum`, bit for bit.
    """
    return _slice_sums(np.concatenate((x[..., 1:], x[..., :k]), axis=-1), k, x.shape[-1])


def _row_sums(rows: np.ndarray, k: int) -> np.ndarray:
    """diananda_sum of each row of rows, bit for bit, with no checks.

    The quotients of a row are contiguous, so their sum along the last axis
    adds them in numpy's pairwise order, as the sum of that row alone would.
    """
    return np.add.reduce(rows / _windows(rows, k), -1)


def _ragged_sums(cases) -> np.ndarray:
    """diananda_sum of the row of every (row, k) case, bit for bit, in case order.

    row is 1-d, of nonnegative entries whose windows of k <= n entries all
    have positive sums; lengths and k may differ between cases.  Each row is
    laid out as its n entries and then its first k again, and the rows
    follow each other sorted by k, longest first.  Each run of cases that
    share a k takes the windows of its whole span from one `_slice_sums`
    call, so each window adds its own entries as `_cyclic_sum`'s do.  The
    quotients of the rows of one length are gathered into one contiguous
    array, whose sum along the last axis adds each row in numpy's pairwise
    order, as the sum of that row alone would.  The windows that start in a
    row's repeated entries or past the last row are never gathered; the
    layout ends in ones, so they stay positive.  It skips the `CyclicVector`
    copy and checks, which cost more than the sum at small n.
    """
    order = sorted(range(len(cases)), key=lambda i: -cases[i][1])
    pieces, run_ends, by_length = [], {}, {}
    at = 0
    for i in order:
        row, k = cases[i]
        starts, outs = by_length.setdefault(row.size, ([], []))
        pieces += (row, row[:k])
        starts.append(at)
        outs.append(i)
        at += row.size + k
        run_ends[k] = at
    ext = np.concatenate(pieces + [np.ones(cases[order[0]][1])])
    win = np.empty(at)
    begin = 0
    for k, end in run_ends.items():
        _slice_sums(ext[1 + begin :], k, end - begin, win[begin:end])
        begin = end
    np.divide(ext[:at], win, out=win)
    out = np.empty(len(cases))
    for n, (starts, outs) in by_length.items():
        out[outs] = win[np.add.outer(starts, np.arange(n))].sum(axis=-1)
    return out


# ---------------------------------------------------------------------------
# sums
# ---------------------------------------------------------------------------

@_in_float64_range
def diananda_sum(x: "CyclicVector | Sequence[float]", k: int) -> float:
    """Cyclic sum of entry i over the window sum of the k entries that follow it.

    The value is invariant under positive scaling of x and under cyclic
    rotation.  Each window sum adds its k entries left to right when k < 64
    and as power-of-two blocks from k = 64 on (see `_slice_sums`), at a cost
    of O(nk) and O(n log k) adds.  The terms are summed in numpy's pairwise
    order over all n of them, one leaf of the tree at a time (see
    `_cyclic_sum`), which keeps the replication and zero-insertion
    identities within 1e-12 relative error at lengths of 1e6 and 2e6.

    Raises DomainError (with the offending 1-based window start) if any
    denominator window sums to zero.
    """
    v = as_cyclic_vector(x)
    k = _integer("k", k, 1, v.n, error=WindowError)
    return float(_cyclic_sum(v.entries, k, 1, " while evaluating the cyclic sum"))


@_in_float64_range
def baston_sum(x: "CyclicVector | Sequence[float]", k: int) -> float:
    """Cyclic sum of entry i over the window sum of the k entries starting at i.

    The numerator entry sits inside its own denominator window, so every term
    lies in [0, 1].
    """
    v = as_cyclic_vector(x)
    k = _integer("k", k, 1, v.n, error=WindowError)
    return float(_cyclic_sum(v.entries, k, 0, " while evaluating the self-including cyclic sum"))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def replicate(x: "CyclicVector | Sequence[float]", copies: int) -> CyclicVector:
    """Concatenation of `copies` copies of x.

    For every window length k valid for x, the normalized cyclic sum
    diananda_sum(., k) / len(.) is preserved exactly.  Raises CapacityError,
    before allocating, when the result's bytes exceed the largest array size.
    The copies are written once, row by row, into the one array the result
    wraps, and are not scanned again: they are exact copies of entries
    that were checked when x was built.
    """
    copies = _integer("copies", copies, 1)
    v = as_cyclic_vector(x)
    n = v.n * copies
    if n * v.entries.itemsize > np.iinfo(np.intp).max:
        raise CapacityError(f"{copies} copies of {v.n} entries exceed the largest array",
                            required_n=n)
    out = np.empty((copies, v.n))
    out[...] = v.entries
    return CyclicVector._adopt(out.reshape(-1))


def zero_insert(x: "CyclicVector | Sequence[float]", k: int) -> CyclicVector:
    """Append one zero after each block of k entries (length must be divisible by k).

    The result has length (k+1) * (n/k), is admissible for window length k+1,
    and satisfies diananda_sum(result, k+1) == diananda_sum(x, k).  It is
    written once, as an (n/k, k+1) array whose first k columns are the blocks
    of x and whose last column is 0.0, and is not scanned again: every entry
    is a copy of one that was checked when x was built, or 0.0.
    """
    v = as_cyclic_vector(x)
    k = _integer("k", k, 1, v.n, error=WindowError)
    if v.n % k != 0:
        raise ShapeError(f"length {v.n} is not divisible by window length {k}")
    nu = v.n // k
    out = np.empty((nu, k + 1))
    out[:, :k] = v.entries.reshape(nu, k)
    out[:, k] = 0.0
    return CyclicVector._adopt(out.reshape(-1))


@_in_float64_range
def block_diagnostics(x: "CyclicVector | Sequence[float]", k: int) -> BlockDiagnostics:
    """Ratios of consecutive block window sums and per-block partial sums.

    Requires length n = k * nu and strictly positive entries.  partials sum
    to diananda_sum(x, k) up to reordering of the same terms.
    """
    v = as_cyclic_vector(x)
    k = _integer("k", k, 1, v.n, error=WindowError)
    if v.n % k != 0:
        raise ShapeError(f"length {v.n} is not divisible by window length {k}")
    n, a = v.n, v.entries
    if not a.all():
        bad = int(np.flatnonzero(a == 0.0)[0])
        raise DomainError(f"entry {bad + 1} is zero; block diagnostics need x > 0")
    # Tiles of whole blocks, so each block's sums come from one tile; ratios
    # holds the block sums until each is divided by the next, cyclically.
    width = k * max(1, _TILE // k)
    buf = np.empty(min(n, width))
    ratios, partials = np.empty(n // k), np.empty(n // k)
    for lo in range(0, n, width):
        tile = buf[: min(width, n - lo)]
        blocks = slice(lo // k, (lo + tile.size) // k)
        _block_sums(a[lo : lo + tile.size], k, ratios[blocks])
        terms = _terms_into(tile, a, k, 1, lo, " while evaluating the block diagnostics")
        _block_sums(terms, k, partials[blocks])
    first = ratios[0]
    np.divide(ratios[:-1], ratios[1:], out=ratios[:-1])
    ratios[-1] /= first
    return BlockDiagnostics(k=k, nu=n // k, ratios=ratios, partials=partials)


def _block_sums(a: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """Sums of the consecutive blocks of k entries of a, written into out.

    They are bit for bit a.reshape(-1, k).sum(axis=1).  numpy adds a row of
    fewer than 8 entries left to right, as the k strided slices do, several
    times faster at small k; from 8 entries on it uses 8 accumulators, so
    those rows keep the reshape.
    """
    if k >= 8:
        return a.reshape(-1, k).sum(axis=1, out=out)
    if k == 1:
        out[...] = a
        return out
    np.add(a[0::k], a[1::k], out=out)
    for d in range(2, k):
        out += a[d::k]
    return out

"""Tests for cyclic vectors, cyclic sums and transforms.

Independent oracle used throughout: direct per-term summation with
math.fsum over explicit Python loops, never the vectorized library path.
"""

import gc
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_bounds import (
    CapacityError,
    CyclicVector,
    DomainError,
    ShapeError,
    WindowError,
    baston_sum,
    block_diagnostics,
    diananda_sum,
    lower_bound_theorem2,
    build_witness,
    plan_witness,
    replicate,
    solve_tangent,
    zero_insert,
)
from cyclic_bounds import sums
from cyclic_bounds.optimize import _window_kernel


def oracle_interval(xs, i, k):
    n = len(xs)
    return math.fsum(xs[(i - 1 + d) % n] for d in range(k))


def oracle_diananda(xs, k):
    n = len(xs)
    return math.fsum(xs[i] / oracle_interval(xs, i + 2, k) for i in range(n))


def oracle_baston(xs, k):
    n = len(xs)
    return math.fsum(xs[i] / oracle_interval(xs, i + 1, k) for i in range(n))


class TestCyclicVector:
    def test_cyclic_indexing_wraps(self):
        v = CyclicVector([1.0, 2.0, 3.0, 4.0])
        assert v.entry(1) == 1.0
        assert v.entry(5) == 1.0
        assert v.entry(0) == 4.0
        assert v.entry(-3) == 1.0
        assert v.entry(4 + 2) == v.entry(2)

    def test_rejects_negative_entry_with_position(self):
        with pytest.raises(DomainError, match="entry 3"):
            CyclicVector([1.0, 2.0, -0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            CyclicVector([1.0, math.nan])
        with pytest.raises(DomainError):
            CyclicVector([1.0, math.inf])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            CyclicVector([])

    def test_entries_are_immutable(self):
        v = CyclicVector([1.0, 2.0])
        with pytest.raises(ValueError):
            v.entries[0] = 9.0

    def test_adopt_freezes_without_copying_and_checked_scans(self):
        arr = np.array([1.0, 0.0, 2.0])
        v = CyclicVector._adopt(arr)
        assert np.shares_memory(v.entries, arr)
        assert not arr.flags.writeable
        assert not np.shares_memory(CyclicVector(v.entries).entries, arr)
        # the scan lives in _checked, which the constructor and build_witness call
        assert CyclicVector._checked(np.array([0.0, 5e-324])).tolist() == [0.0, 5e-324]
        with pytest.raises(DomainError, match="entry 2"):
            CyclicVector._checked(np.array([1.0, -1.0]))
        with pytest.raises(ShapeError):
            CyclicVector._checked(np.ones((2, 2)))

    def test_entry_takes_any_integer(self):
        v = CyclicVector([1.0, 2.0, 3.0])
        indices = (2, 2.0, np.float64(2.0), np.int64(2), np.int32(5), -1, 0, 10**30)
        assert [v.entry(i) for i in indices] == [2.0] * 6 + [3.0, 1.0]

    @pytest.mark.parametrize("bad", [1.5, np.float64(0.5), math.nan, math.inf, "1", None])
    def test_entry_refuses_a_non_integer_naming_i(self, bad):
        # 2.0 and 1.5 raised numpy's IndexError, "1" and None a bare TypeError
        with pytest.raises(ValueError) as err:
            CyclicVector([1.0, 2.0, 3.0]).entry(bad)
        assert type(err.value) is ValueError
        assert str(err.value) == f"i must be an integer, got {bad!r}"

    def test_iterates_as_python_floats(self):
        items = list(CyclicVector([1, 2.5]))
        assert items == [1.0, 2.5] and all(type(v) is float for v in items)

    def test_repr_shows_at_most_six_entries(self):
        assert repr(CyclicVector([1.0, 0.5])) == "CyclicVector([1, 0.5], n=2)"
        assert repr(CyclicVector(range(1, 8))) == "CyclicVector([1, 2, 3, 4, 5, 6, ...], n=7)"

    def test_window_positivity_check_is_k_dependent(self):
        v = CyclicVector([1.0, 0.0, 1.0, 0.0])
        diananda_sum(v, 2)  # every pair of neighbors has positive sum
        with pytest.raises(DomainError, match=r"t\[2,1\]"):
            diananda_sum(v, 1)


class TestDiananda:
    def test_uniform_gives_n_over_k(self):
        for n, k in [(5, 2), (12, 3), (9, 9), (7, 1)]:
            assert diananda_sum([3.5] * n, k) == pytest.approx(n / k, rel=1e-14)

    def test_hand_value_1_2_3_k2(self):
        # 1/5 + 2/4 + 3/3, frozen from the direct-summation oracle
        assert oracle_diananda([1, 2, 3], 2) == pytest.approx(1.7, abs=1e-15)
        assert diananda_sum([1, 2, 3], 2) == pytest.approx(1.7, rel=1e-14)

    def test_k1_value_and_floor(self):
        val = diananda_sum([1, 2, 3], 1)
        assert val == pytest.approx(oracle_diananda([1, 2, 3], 1), rel=1e-14)
        assert val == pytest.approx(1 / 2 + 2 / 3 + 3.0, rel=1e-14)
        assert val >= 3.0

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, n + 1))
            xs = np.exp(rng.uniform(-4, 4, n)).tolist()
            assert diananda_sum(xs, k) == pytest.approx(
                oracle_diananda(xs, k), rel=1e-12
            )

    def test_zero_window_reports_index(self):
        # windows of length 2 after entry 2 are (0, 0): t[3,2] = 0
        with pytest.raises(DomainError, match=r"t\[3,2\]"):
            diananda_sum([1.0, 1.0, 0.0, 0.0, 1.0], 2)

    def test_invalid_window(self):
        for k in (0, 4):
            with pytest.raises(WindowError, match=rf"^k must be an integer in 1\.\.3, got {k}$"):
                diananda_sum([1, 2, 3], k)

    def test_zero_entries_allowed_when_windows_positive(self):
        xs = [1.0, 0.0, 3.0]
        assert diananda_sum(xs, 2) == pytest.approx(oracle_diananda(xs, 2), rel=1e-14)

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=2, max_size=12),
        st.floats(0.001, 1000.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_scale_invariance(self, xs, c):
        k = max(1, len(xs) // 2)
        base = diananda_sum(xs, k)
        scaled = diananda_sum([c * v for v in xs], k)
        assert abs(scaled - base) <= 1e-10 * base

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=12), st.integers(0, 20))
    @settings(max_examples=120, deadline=None)
    def test_shift_invariance(self, xs, shift):
        k = max(1, len(xs) - 1)
        rotated = xs[shift % len(xs):] + xs[: shift % len(xs)]
        assert diananda_sum(rotated, k) == pytest.approx(
            diananda_sum(xs, k), rel=1e-12
        )

    def test_floor_on_random_positive_vectors(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, n + 1))
            xs = np.exp(rng.uniform(-5, 5, n))
            val = (k / n) * diananda_sum(xs, k)
            assert val >= lower_bound_theorem2(k) - 1e-9


class TestBaston:
    def test_uniform(self):
        assert baston_sum([1, 1, 1], 2) == pytest.approx(1.5, rel=1e-15)

    def test_hand_value_1_10_100(self):
        expected = oracle_baston([1, 10, 100], 2)
        assert expected == pytest.approx(1 / 11 + 10 / 110 + 100 / 101, abs=1e-15)
        assert baston_sum([1, 10, 100], 2) == pytest.approx(expected, rel=1e-14)

    def test_terms_lie_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            k = int(rng.integers(2, n + 1))
            xs = np.exp(rng.uniform(-4, 4, n))
            val = baston_sum(xs, k)
            assert 0.0 <= val <= n

    def test_geometric_sequences_approach_one(self):
        # with n >= k >= 2 the infimum is 1; steep geometric growth approaches it
        prev = math.inf
        for log_ratio in (1.0, 2.0, 4.0, 8.0):
            xs = np.exp(np.arange(6) * log_ratio)
            val = baston_sum(xs, 3)
            assert val > 1.0
            assert val < prev
            prev = val
        assert prev < 1.001


class TestTransforms:
    def test_replicate_concatenates(self):
        v = replicate([1.0, 2.0], 3)
        assert np.array_equal(v.entries, [1, 2, 1, 2, 1, 2])

    def test_replicate_doubles_hand_value(self):
        assert diananda_sum(replicate([1, 2, 3], 2), 2) == pytest.approx(3.4, rel=1e-13)

    def test_replicate_single_entry(self):
        v = replicate([5.0], 4)
        assert np.array_equal(v.entries, [5, 5, 5, 5])
        assert diananda_sum(v, 1) == pytest.approx(4.0, rel=1e-15)

    def test_replicate_preserves_normalized_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 15))
            k = int(rng.integers(1, n + 1))
            copies = int(rng.integers(1, 6))
            xs = np.exp(rng.uniform(-3, 3, n))
            rep = replicate(xs, copies)
            lhs = diananda_sum(rep, k) / len(rep)
            rhs = diananda_sum(xs, k) / n
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_replicate_rejects_bad_count(self):
        with pytest.raises(ValueError):
            replicate([1.0], 0)

    @pytest.mark.parametrize("copies", [2**62, 2**63, 10**20])
    def test_replicate_beyond_the_largest_array_is_capacity_error(self, copies):
        # refused before numpy is asked to allocate the result
        with pytest.raises(CapacityError) as info:
            replicate([1.0, 2.0], copies)
        assert info.value.required_n == 2 * copies

    def test_zero_insert_hand_case_k1(self):
        v = zero_insert([1.0, 2.0], 1)
        assert np.array_equal(v.entries, [1, 0, 2, 0])
        assert diananda_sum(v, 2) == pytest.approx(2.5, rel=1e-15)
        assert diananda_sum([1.0, 2.0], 1) == pytest.approx(2.5, rel=1e-15)

    def test_zero_insert_uniform(self):
        v = zero_insert([1.0] * 4, 2)
        assert np.array_equal(v.entries, [1, 1, 0, 1, 1, 0])
        assert diananda_sum(v, 3) == pytest.approx(2.0, rel=1e-15)

    def test_zero_insert_hand_case_k2(self):
        v = zero_insert([1.0, 2.0, 3.0, 4.0], 2)
        assert np.array_equal(v.entries, [1, 2, 0, 3, 4, 0])
        lhs = oracle_diananda([1, 2, 0, 3, 4, 0], 3)
        rhs = oracle_diananda([1, 2, 3, 4], 2)
        assert lhs == pytest.approx(rhs, rel=1e-15)
        assert diananda_sum(v, 3) == pytest.approx(diananda_sum([1, 2, 3, 4], 2), rel=1e-13)

    def test_zero_insert_identity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            k = int(rng.integers(1, 7))
            nu = int(rng.integers(1, 9))
            xs = np.exp(rng.uniform(-3, 3, k * nu))
            out = zero_insert(xs, k)
            assert len(out) == (k + 1) * nu
            lhs = diananda_sum(out, k + 1)  # raises DomainError on a zero window
            rhs = diananda_sum(xs, k)
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_zero_insert_shape_error(self):
        with pytest.raises(ShapeError):
            zero_insert([1.0, 2.0, 3.0], 2)


class TestBlockDiagnostics:
    def test_uniform_blocks(self):
        diag = block_diagnostics([1.0] * 4, 2)
        assert diag.nu == 2
        assert np.allclose(diag.ratios, [1.0, 1.0])
        assert np.allclose(diag.partials, [1.0, 1.0])
        # per-block floor k(2^{1/k} - 1) ~ 0.82843 sits below each partial
        floor = lower_bound_theorem2(2)
        assert floor == pytest.approx(0.8284271247461901, rel=1e-15)
        assert np.all(diag.partials >= floor - 1e-12)

    def test_hand_ratios(self):
        diag = block_diagnostics([1.0, 1.0, 2.0, 2.0], 2)
        assert diag.ratios[0] == pytest.approx(0.5, rel=1e-15)
        assert diag.ratios[1] == pytest.approx(2.0, rel=1e-15)
        assert np.prod(diag.ratios) == pytest.approx(1.0, rel=1e-15)

    def test_partials_sum_to_cyclic_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            nu = int(rng.integers(1, 17))
            xs = np.exp(rng.uniform(-3, 3, k * nu))
            diag = block_diagnostics(xs, k)
            assert abs(np.prod(diag.ratios) - 1.0) <= 1e-12
            total = float(np.sum(diag.partials))
            ref = diananda_sum(xs, k)
            assert abs(total - ref) <= 1e-12 * ref
            for r, s in zip(diag.ratios, diag.partials):
                bound = k * ((1.0 + r) ** (1.0 / k) - 1.0)
                assert s >= bound - 1e-12

    def test_rejects_zero_entry(self):
        with pytest.raises(DomainError, match="entry 2"):
            block_diagnostics([1.0, 0.0, 1.0, 1.0], 2)

    def test_rejects_indivisible_length(self):
        with pytest.raises(ShapeError):
            block_diagnostics([1.0, 2.0, 3.0], 2)


def untiled_window_sums(a, k, shift):
    """The window sums as one pass over a full-length wrapped copy.

    Below 64 entries a window adds its entries left to right.  From 64 on it
    is split, left to right, into the power-of-two blocks of k's binary
    digits in increasing size, each block the sum of its two halves, and
    adds the blocks left to right.
    """
    n = a.shape[-1]
    ext = np.concatenate([a, a[..., : min(k + shift, n)]], axis=-1) if k + shift > 1 else a
    ext = ext[..., shift:]
    acc = np.zeros(a.shape)
    if k < 64:
        for d in range(k):
            acc += ext[..., d : d + n]
        return acc
    blocks = [ext]  # blocks[j][..., i] sums the 2^j entries from i on
    while 2 ** len(blocks) <= k:
        half = 2 ** (len(blocks) - 1)
        blocks.append(blocks[-1][..., :-half] + blocks[-1][..., half:])
    offset = 0
    for j, level in enumerate(blocks):
        if k >> j & 1:
            acc += level[..., offset : offset + n]
            offset += 2**j
    return acc


def tree_window(xs, i, k):
    """Window x_i..x_{i+k-1} of a Python list in the documented block order, k >= 64."""
    total, start = None, i
    for j in range(k.bit_length()):
        if k >> j & 1:
            block = xs[start : start + 2**j]
            start += 2**j
            while len(block) > 1:
                block = [block[m] + block[m + 1] for m in range(0, len(block), 2)]
            total = block[0] if total is None else total + block[0]
    return total


def untiled_terms(a, k, shift, context):
    denom = untiled_window_sums(a, k, shift)
    zero = np.nonzero(denom == 0.0)[0]
    if zero.size:
        start = (int(zero[0]) + shift) % a.size + 1
        raise DomainError(f"window sum t[{start},{k}] is zero{context}")
    return a / denom


def untiled_sum(a, k, shift, context):
    return float(np.sum(untiled_terms(a, k, shift, context)))


T = sums._TILE
TILED_CASES = [
    (n, k)
    for k in (1, 2, 3, 7, 8, 10, 63, 64, 65, 100, 127, 128, 1000)
    for n in (1, 2, T - 1, T, T + 1, 2 * T + k, 100003, 4 * T + 9, 8 * T + 1)
    if k <= n
]


def stretch_terms(a, k, shift, cuts):
    """The terms of a cyclic sum, one _terms_into call per stretch between consecutive cuts."""
    return np.concatenate(
        [sums._terms_into(np.empty(hi - lo), a, k, shift, lo, "") for lo, hi in zip(cuts, cuts[1:])]
    )


class TestTiledKernel:
    """The terms of any stretch and the descent's row-wise window sums match one untiled pass."""

    @pytest.mark.parametrize("n,k", TILED_CASES)
    def test_window_sums_bitwise(self, n, k):
        rng = np.random.default_rng([n, k])
        a = np.exp(rng.uniform(-30.0, 30.0, n))
        rows = np.exp(rng.uniform(-30.0, 30.0, (3, n)))
        # stretches that start off the tile multiples, the last ones reaching into the wrap
        cuts = sorted({0, n} | {c for c in (7, T - 1, T + 5, n // 2 + 3, n - k) if 0 < c < n})
        for shift in (0, 1):
            got = stretch_terms(a, k, shift, cuts)
            assert got.tobytes() == (a / untiled_window_sums(a, k, shift)).tobytes()
        denom, acc = _window_kernel(rows, k)
        assert denom.tobytes() == untiled_window_sums(rows, k, 1).tobytes()
        w = (rows / (denom * denom))[..., ::-1]  # acc sums the windows of w backwards
        assert acc.tobytes() == untiled_window_sums(w, k, 1)[..., ::-1].tobytes()

    @pytest.mark.parametrize("n,k", TILED_CASES)
    def test_sums_bitwise(self, n, k):
        rng = np.random.default_rng([n, k, 1])
        a = np.exp(rng.uniform(-30.0, 30.0, n))
        if n > 4 * k:
            a[rng.integers(0, n, n // 5)] = 0.0  # zero entries, windows may stay positive
        a[0] = -0.0  # a window of signed zeros sums to -0.0 from its first slice, not 0.0
        try:
            want = untiled_sum(a, k, 1, " while evaluating the cyclic sum").hex()
        except DomainError as exc:
            want = str(exc)
        try:
            got = diananda_sum(a, k).hex()
        except DomainError as exc:
            got = str(exc)
        assert got == want
        b = np.exp(rng.uniform(-30.0, 30.0, n))
        want = untiled_sum(b, k, 0, " while evaluating the self-including cyclic sum")
        assert baston_sum(b, k).hex() == want.hex()
        m = n - n % k
        diag = block_diagnostics(b[:m], k)
        ref = untiled_terms(b[:m], k, 1, "").reshape(m // k, k).sum(axis=1)
        assert diag.partials.tobytes() == ref.tobytes()
        blocks = b[:m].reshape(m // k, k).sum(axis=1)
        assert diag.ratios.tobytes() == (blocks / np.roll(blocks, -1)).tobytes()

    @pytest.mark.parametrize("k", [64, 100, 1000, 1500])
    def test_blocks_do_not_depend_on_the_tile(self, k, monkeypatch):
        rng = np.random.default_rng([k, 2])
        a = np.exp(rng.uniform(-30.0, 30.0, 5 * 1024 + k + 7))
        m = a.size - a.size % k

        def outputs(width):
            cuts = list(range(0, a.size, width)) + [a.size]
            diag = block_diagnostics(a[:m], k)
            return [stretch_terms(a, k, shift, cuts).tobytes() for shift in (0, 1)] + [
                diananda_sum(a, k).hex(),
                baston_sum(a, k).hex(),
                diag.ratios.tobytes(),
                diag.partials.tobytes(),
            ]

        want = outputs(a.size)  # one stretch, and every sum one leaf of at most _TILE terms
        monkeypatch.setattr(sums, "_TILE", 1 << 10)  # k = 1500 widens a leaf to k
        assert outputs(max(1 << 10, k)) == want

    @pytest.mark.parametrize("k", [64, 100, 1000])
    def test_block_order_and_error(self, k):
        rng = np.random.default_rng([k, 3])
        n = k + 200
        xs = np.exp(rng.uniform(-30.0, 30.0, n + k - 1)).tolist()
        got = sums._slice_sums(np.array(xs), k, n).tolist()
        bound = 2 * math.ceil(math.log2(k)) * 2.0**-53
        for i, w in enumerate(got):
            assert w == tree_window(xs, i, k)
            exact = math.fsum(xs[i : i + k])
            assert abs(w - exact) <= bound * exact

    @pytest.mark.parametrize("k", [1, 3, 100])
    @pytest.mark.parametrize(
        "where", ["first tile", "tile boundary", "next tile", "wrapped tail", "tree split"]
    )
    def test_zero_window_reported_across_tiles(self, k, where):
        n = 100003 if where == "tree split" else 2 * T + 50
        # numpy's pairwise sum splits 100003 terms after 50000, half of them rounded down to 8s
        split = 50000 - (k + 1) // 2
        p = {
            "first tile": 5,
            "tile boundary": T - 1,
            "next tile": T,
            "wrapped tail": n - 1,
            "tree split": split,
        }[where]
        a = np.ones(n)
        a[(p + np.arange(k)) % n] = 0.0
        if where != "first tile":
            a[(p + T // 2 + np.arange(k)) % n] = 0.0  # a later zero window is not the one named
        for fn, shift, context in (
            (diananda_sum, 1, " while evaluating the cyclic sum"),
            (baston_sum, 0, " while evaluating the self-including cyclic sum"),
        ):
            with pytest.raises(DomainError) as ref:
                untiled_terms(a, k, shift, context)
            with pytest.raises(DomainError) as got:
                fn(a, k)
            assert str(got.value) == str(ref.value)


# diananda_sum and baston_sum hex of the certify benchmark's vectors: default_rng([0, 2]),
# n = 1e6, log-uniform over six e-folds, one vector per k drawn in this order
CERTIFY_SUMS = {
    2: ("0x1.343304d7fe23dp+21", "0x1.e84ee90772816p+18"),
    10: ("0x1.ff698967725f2p+16", "0x1.869d581823d3bp+16"),
    100: ("0x1.3f1496811a09fp+13", "0x1.388b2d295a26ep+13"),
}


class TestCallContract:
    """The bulk sums keep their bits, hold no n-length array and share nothing between calls."""

    def test_certify_vectors_keep_their_bits(self):
        rng = np.random.default_rng([0, 2])
        for k, want in CERTIFY_SUMS.items():
            x = CyclicVector(np.exp(rng.uniform(-3.0, 3.0, 1_000_000)))
            assert (diananda_sum(x, k).hex(), baston_sum(x, k).hex()) == want

    @pytest.mark.parametrize("k", [2, 10, 100])
    def test_peak_memory_holds_no_n_length_array(self, k):
        a = np.exp(np.random.default_rng([k, 4]).uniform(-3.0, 3.0, 2**20))
        x, blocks = CyclicVector(a), CyclicVector(a[: a.size - a.size % k])  # n = k * nu for blocks
        gc.disable()  # scratch held by a reference cycle would outlive the call
        tracemalloc.start()
        try:
            for fn, v in ((diananda_sum, x), (baston_sum, x), (block_diagnostics, blocks)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = fn(v, k)
                # block_diagnostics returns two arrays of n / k entries; only the rest is scratch
                kept = out.ratios.nbytes + out.partials.nbytes if fn is block_diagnostics else 0
                peak = tracemalloc.get_traced_memory()[1] - before - kept
                del out
                left = tracemalloc.get_traced_memory()[0] - before
                assert peak <= 1.5e6, (fn.__name__, peak)
                assert left <= 2**14, (fn.__name__, left)
        finally:
            tracemalloc.stop()
            gc.enable()

    def test_concurrent_calls_match_serial(self):
        n, k = 3 * T + 5, 100
        rngs = [np.random.default_rng([s, 5]) for s in (0, 1)]
        xs = [CyclicVector(np.exp(rng.uniform(-30.0, 30.0, n))) for rng in rngs]

        def values(x):
            return diananda_sum(x, k).hex(), baston_sum(x, k).hex()

        want = [[values(x)] * 20 for x in xs]
        got = [[], []]
        start = threading.Barrier(2, timeout=60)

        def run(i):
            start.wait()
            got[i].extend(values(xs[i]) for _ in range(20))

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the leaves too
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want


def zero_inserted(a, k):
    """zero_insert's layout: each block of k entries of a, then 0.0."""
    return np.concatenate((a.reshape(-1, k), np.zeros((a.size // k, 1))), axis=1).ravel()


class TestTransformOutputs:
    """Each transform writes one fresh frozen array, copies exact, and nothing else."""

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 192, T - 1, T, 2 * T, 2 * T + 3])
    def test_fresh_read_only_exact_copies(self, n):
        rng = np.random.default_rng([n, 6])
        a = np.exp(rng.uniform(-700.0, 700.0, n))
        a[rng.random(n) < 0.2] = 0.0
        a[rng.random(n) < 0.1] = 5e-324
        a[0] = -0.0  # the constructor admits -0.0; a copy keeps its sign
        x = CyclicVector(a)
        outs = [(replicate(x, c), np.tile(a, c)) for c in (1, 2, 3, 4)]
        outs += [(zero_insert(x, k), zero_inserted(a, k)) for k in {1, 2, 64, n} if n % k == 0]
        for out, want in outs:
            assert not out.entries.flags.writeable
            assert not np.shares_memory(out.entries, x.entries)
            assert out.entries.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [2, 10, 100])
    def test_doubled_sum_is_exactly_twice(self, k):
        # numpy's pairwise tree splits 2n terms at n when n % 8 == 0 and 2n > _TILE,
        # so each half is the tree of x's own n terms
        x = CyclicVector(np.exp(np.random.default_rng([k, 7]).uniform(-3.0, 3.0, 2**16)))
        assert diananda_sum(replicate(x, 2), k) == 2 * diananda_sum(x, k)

    @pytest.mark.parametrize(
        "transform, arg", [(replicate, 2), (zero_insert, 2), (zero_insert, 64)]
    )
    def test_output_is_the_only_allocation(self, transform, arg):
        x = CyclicVector(np.exp(np.random.default_rng(8).uniform(-3.0, 3.0, 2**20)))
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = transform(x, arg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak <= out.entries.nbytes + 2**16, (out.entries.nbytes, peak)

    def test_only_a_new_vector_is_scanned(self, monkeypatch):
        checked, scanned = CyclicVector._checked, []

        def spy(arr):
            scanned.append(arr.size)
            return checked(arr)

        x = CyclicVector([1.0, 2.0, 3.0, 4.0])
        monkeypatch.setattr(CyclicVector, "_checked", staticmethod(spy))
        replicate(x, 3)
        zero_insert(x, 2)
        assert scanned == []
        w = build_witness(plan_witness(2, 0.01, solve_tangent(2)))
        assert scanned == [w.n]


class TestRowBatch:
    """_row_sums gives each row of a stack its diananda_sum bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_row_sums_bitwise(self, seed):
        rng = np.random.default_rng([seed, 7])
        shapes = [(4, 1, 1), (3, 5, 5), (2, 40, 40)]  # n = 1 and k = n
        for _ in range(40):
            n = int(rng.integers(1, 300))
            shapes.append((int(rng.integers(1, 25)), n, int(rng.integers(1, n + 1))))
        for r_count, n, k in shapes:
            P = np.exp(rng.uniform(-30.0, 30.0, (r_count, n)))
            got = sums._row_sums(P, k)
            for r in range(r_count):
                assert got[r].hex() == diananda_sum(P[r], k).hex(), (r_count, n, k, r)


class TestFloat64Range:
    """An overflow raises CapacityError instead of leaking a warning and a wrong value."""

    def test_diananda_sum(self):
        with pytest.raises(CapacityError, match="float64 range"):
            diananda_sum([1e308] * 3, 2)  # was 0.0, below the floor
        with pytest.raises(CapacityError, match="float64 range"):
            diananda_sum([1e300, 1e-300], 1)  # was inf
        assert diananda_sum([1e307] * 3, 2) == 1.5

    def test_overflow_above_the_leaves(self):
        # each leaf of 2^15 terms sums to 2^14 * 1e304 = 1.6384e308; only their sum overflows
        with pytest.raises(CapacityError, match="float64 range"):
            diananda_sum(np.tile([1e296, 1e-8], 2**15), 1)

    def test_block_windows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapacityError, match="float64 range"):
                diananda_sum([1e307] * 200, 100)  # every window sums to 1e309
        period = [2.0**1016] * 99 + [29 * 2.0**1016]  # every window sums to 2^1023
        assert diananda_sum(period * 2, 100) == 2.0

    def test_baston_sum(self):
        with pytest.raises(CapacityError, match="float64 range"):
            baston_sum([1e308] * 3, 3)  # was 0.0, the true value is 1
        assert baston_sum([5e307] * 3, 3) == 1.0

    def test_block_diagnostics(self):
        with pytest.raises(CapacityError, match="float64 range"):
            block_diagnostics([1e308, 1e308, 1.0, 1.0], 2)  # ratios were [inf, 0]
        diag = block_diagnostics([5e307, 5e307, 1.0, 1.0], 2)
        assert diag.ratios.tolist() == [1e308 / 2.0, 2.0 / 1e308]


class TestSerialization:
    def test_lines_round_trip(self, tmp_path, capsys):
        from cyclic_bounds.cli import main

        path = tmp_path / "witness.txt"
        assert main(["witness", "--k", "2", "--eps", "0.01", "--out", str(path)]) == 0
        capsys.readouterr()
        xs = build_witness(plan_witness(2, 0.01, solve_tangent(2))).entries
        text = path.read_text()
        assert text.endswith("\n")
        assert len(text.splitlines()) == xs.size
        assert np.array_equal([float(t) for t in text.split()], xs)

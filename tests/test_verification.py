"""The batch sums and the draw identities that the verification groups rely on.

`_ragged_sums` must give each row's `diananda_sum` bit for bit, whatever mix
of lengths, window lengths and row stacks one call holds; the kernel groups
draw runs of same-range uniforms in one call and need that to be the stream
of one call per value; a group that draws all its cases before it sums
them must still hold only a few MB at once; and a suite name other than
"fast" or "all" is refused.
"""

import tracemalloc

import numpy as np
import pytest

from cyclic_bounds.sums import _ragged_sums, diananda_sum
from cyclic_bounds.verification import run_verification


def _expected(cases):
    return [diananda_sum(row, k).hex() for rows, k in cases for row in np.atleast_2d(rows)]


@pytest.mark.parametrize("seed", range(6))
def test_ragged_sums_bitwise(seed):
    rng = np.random.default_rng([seed, 11])

    def positive(shape):
        return np.exp(rng.uniform(-30.0, 30.0, shape))

    cases = [(positive(1), 1), (positive((3, 1)), 1), (positive(7), 7), (positive((2, 5)), 5)]
    for _ in range(60):
        n = int(rng.integers(1, 90))
        k = int(rng.integers(1, n + 1))
        shape = n if rng.integers(2) else (int(rng.integers(1, 6)), n)
        cases.append((positive(shape), k))
    got = [v.hex() for v in _ragged_sums(cases).tolist()]
    assert got == _expected(cases)


def test_ragged_sums_one_length_many_k():
    rng = np.random.default_rng(3)
    x = np.exp(rng.uniform(-3.0, 3.0, 40))
    zeros = np.insert(x[:12], [3, 6, 9, 12], 0.0)  # zero_insert's layout, summed with k = 4
    cases = [(x, k) for k in range(1, 41)] + [(np.stack((x, 2.0 * x)), 40), (x[:1], 1), (zeros, 4)]
    got = [v.hex() for v in _ragged_sums(cases).tolist()]
    assert got == _expected(cases)


@pytest.mark.parametrize("k", [3, 63, 64, 100])
def test_ragged_sums_run_spans_cases_of_every_length(k):
    # each k's cases are one run of windows: rows and stacks of four lengths,
    # between cases of another k that sort before and after them
    rng = np.random.default_rng(k)

    def positive(shape):
        return np.exp(rng.uniform(-3.0, 3.0, shape))

    cases = [(positive(k + 1), k + 1)]
    for n in (k, k + 1, 2 * k + 3, 3 * k):
        cases += [(positive(n), k), (positive((2, n)), k)]
    cases.append((positive(k), k - 1 or 1))
    got = [v.hex() for v in _ragged_sums(cases).tolist()]
    assert got == _expected(cases)


@pytest.mark.parametrize("lo, hi, m, j", [(-30.0, 30.0, 7, 8), (-30.0, 30.0, 5, 2), (-20.0, 20.0, 9, 3)])
def test_uniform_block_is_the_scalar_stream(lo, hi, m, j):
    for seed in range(20):
        block = np.random.default_rng(seed).uniform(lo, hi, (m, j))
        rng = np.random.default_rng(seed)
        scalars = [rng.uniform(lo, hi) for _ in range(m * j)]
        assert [v.hex() for v in block.ravel().tolist()] == [v.hex() for v in scalars]


def test_peak_memory_of_the_full_suite():
    # each group's cases and its one batch of sums: about 2.2 MB traced
    run_verification("all", 0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run_verification("all", 0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_unknown_suite_is_refused():
    for suite in ("slow", "ALL", "", None):
        with pytest.raises(ValueError) as err:
            run_verification(suite, 0)
        assert str(err.value) == f"unknown suite {suite!r}; expected 'fast' or 'all'"

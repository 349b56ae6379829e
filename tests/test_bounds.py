"""Tests for the floor/ceiling table and the CLI's csv and json forms of it."""

import json
import math

import pytest

from cyclic_bounds import bounds_table
from cyclic_bounds.cli import main


def bounds_out(capsys, fmt):
    assert main(["bounds", "--k-max", "3", "--format", fmt]) == 0
    return capsys.readouterr().out


class TestBoundsTable:
    def test_k2_row(self):
        rows = bounds_table(3)
        assert rows[0].k == 2
        assert rows[0].lower == pytest.approx(0.82843, abs=5e-6)
        assert rows[0].upper == pytest.approx(0.98913, abs=5e-6)

    def test_k10_upper(self):
        rows = bounds_table(10)
        row10 = [r for r in rows if r.k == 10][0]
        assert row10.upper == pytest.approx(0.94983, abs=5e-6)

    def test_limit_row(self):
        rows = bounds_table(4)
        lim = rows[-1]
        assert math.isinf(lim.k)
        assert lim.lower == pytest.approx(math.log(2), rel=1e-15)
        assert lim.upper == pytest.approx(0.930498, abs=1e-6)

    def test_rows_internally_consistent(self):
        rows = bounds_table(12)
        finite = rows[:-1]
        for r in rows:
            assert r.gap > 0
            assert r.upper < 1.0
        for r in finite:
            assert math.log(2) < r.lower < r.upper
        lowers = [r.lower for r in finite]
        uppers = [r.upper for r in finite]
        assert all(b < a for a, b in zip(lowers, lowers[1:]))
        assert all(b < a for a, b in zip(uppers, uppers[1:]))
        # both columns approach the limit row from above
        assert lowers[-1] > rows[-1].lower
        assert uppers[-1] > rows[-1].upper

    def test_k_max_validation(self):
        for k_max in (1, 3.9):  # 3.9 was truncated to the rows for k = 2, 3
            with pytest.raises(ValueError, match=rf"^k_max must be an integer >= 2, got {k_max}$"):
                bounds_table(k_max)

    def test_csv_format(self, capsys):
        text = bounds_out(capsys, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "k,lower,upper,gap"
        assert lines[1].startswith("2,")
        assert lines[-1].startswith("inf,")
        assert "\r" not in text

    def test_json_format(self, capsys):
        recs = json.loads(bounds_out(capsys, "json"))
        assert recs[0]["k"] == 2
        assert recs[-1]["k"] == "inf"
        assert recs[-1]["lower"] == pytest.approx(math.log(2), rel=1e-15)


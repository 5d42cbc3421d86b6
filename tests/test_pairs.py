"""The pair protocol's verdict (``benchmarks/pairs.py``) on hand-made
numbers: a gain needs wins in nine tenths of the pairs and a median gap
larger than the parent's quartile spread."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [236.0, 232.0, 240.0, 238.0, 231.0, 241.0, 235.0, 237.0, 233.0,
          239.0]


def test_nine_of_ten_wins_outside_the_spread_is_a_gain(pairs):
    change = [v - 25.0 for v in PARENT]
    change[3] = PARENT[3] + 1.0          # the one lost pair
    result = pairs.verdict(PARENT, change, "lower")
    assert (result.wins, result.pairs) == (9, 10)
    assert result.gap > result.spread
    assert result.gain


def test_eight_of_ten_wins_is_not(pairs):
    change = [v - 25.0 for v in PARENT]
    change[3] = PARENT[3] + 1.0
    change[5] = PARENT[5]                # a tie counts for neither side
    result = pairs.verdict(PARENT, change, "lower")
    assert result.wins == 8
    assert not result.gain


def test_ties_win_nothing(pairs):
    result = pairs.verdict(PARENT, list(PARENT), "lower")
    assert result.wins == 0
    assert result.gap == 0.0
    assert not result.gain


def test_gap_inside_the_spread_is_not_a_gain(pairs):
    change = [v - 2.0 for v in PARENT]   # wins every pair by a little
    result = pairs.verdict(PARENT, change, "lower")
    assert result.wins == 10
    assert 0 < result.gap < result.spread
    assert not result.gain


def test_higher_is_better_flips_the_direction(pairs):
    change = [v + 25.0 for v in PARENT]
    assert pairs.verdict(PARENT, change, "higher").gain
    assert not pairs.verdict(PARENT, change, "lower").gain


def test_one_pair_is_refused(pairs):
    with pytest.raises(ValueError):
        pairs.verdict([1.0], [0.5], "lower")

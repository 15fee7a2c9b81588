"""The percentile sample-count rule and the comparison verdicts."""

import pytest

from compare import verdict
from metrics import percentile, quartiles, spread, tail_samples


@pytest.mark.parametrize("p, n", [
    (50.0, 20), (75.0, 40), (80.0, 50), (90.0, 100), (95.0, 200),
    (99.0, 1000),
])
def test_tail_samples_leave_ten_samples_beyond(p, n):
    assert tail_samples(p) == n
    values = list(range(n))
    assert sum(v > percentile(values, p) for v in values) >= 10
    fewer = list(range(n - 1))
    assert sum(v > percentile(fewer, p) for v in fewer) < 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile([3.0], 99) == 3.0


def test_spread_is_interquartile_share_of_median():
    q1, med, q3 = quartiles([1, 2, 3, 4, 5])
    assert med == 3
    assert spread([1, 2, 3, 4, 5]) == pytest.approx((q3 - q1) / 3)


def _pairs(base, new):
    return list(zip(base, new))


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    slower = [v * 1.2 for v in base]
    faster = [v * 0.8 for v in base]
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(base, base, _pairs(base, base), "lower", 0.1,
                   False)[0] == "unchanged"
    assert verdict(base, slower, _pairs(base, slower), "lower", 0.1,
                   False)[0] == "regressed"
    assert verdict(base, faster, _pairs(base, faster), "lower", 0.1,
                   False) == ("improved", 1.0)
    assert verdict(noisy, noisy, _pairs(noisy, noisy), "lower", 0.1,
                   False)[0] == "unresolved"
    assert verdict(base, faster, _pairs(base, faster), "higher", 0.1,
                   False)[0] == "regressed"
    assert verdict(base, base, _pairs(base, base), "lower", 0.1,
                   True)[0] == "identical"
    assert verdict(base, slower, _pairs(base, slower), "lower", 0.1,
                   True)[0] == "model changed"


def test_pairs_resolve_a_slowdown_smaller_than_a_wide_bound():
    drifting = [10.0, 11.5, 9.0, 12.0, 10.5, 9.5, 11.0, 12.5, 9.8, 10.2]
    slower = [v * 1.2 for v in drifting]
    assert verdict(drifting, slower, _pairs(drifting, slower), "lower",
                   0.25, False)[0] == "regressed"
    one_pair = _pairs(drifting, slower)[:1] + _pairs(drifting, drifting)[1:]
    assert verdict(drifting, drifting, one_pair, "lower", 0.25,
                   False)[0] == "unchanged"


def test_any_new_failure_rate_regresses():
    clean = [0.0] * 10
    failing = [0.0] * 4 + [0.01] * 6
    assert verdict(clean, clean, _pairs(clean, clean), "lower", 0.0,
                   False)[0] == "unchanged"
    assert verdict(clean, failing, _pairs(clean, failing), "lower", 0.0,
                   False)[0] == "regressed"

"""``bootstrap_ci`` against the per-resample loop it vectorizes.

The loop below is the oracle: it draws the same index stream as
:func:`repro.validation.scoring.bootstrap_ci` (one flat ``integers``
call, consumed row by row) and sums each resample in Python, so the two
intervals agree to 12 decimals from the same seed.
"""

import math

import numpy as np
import pytest

from repro.common.rng import make_rng
from repro.validation.scoring import CostModel, bootstrap_ci, maintenance_cost


def bootstrap_ci_loop(values, rng, n_resamples=2000, alpha=0.05):
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return (math.nan, math.nan)
    if arr.size == 1:
        v = float(arr[0])
        return (v, v)
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    means = np.empty(n_resamples, dtype=np.float64)
    for k in range(n_resamples):
        total = 0.0
        row = idx[k]
        for j in range(arr.size):
            total += arr[row[j]]
        means[k] = total / arr.size
    lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return (float(lo), float(hi))


def costs(n):
    """``n`` maintenance costs over lead times from -10 min to 1 h."""
    model = CostModel()
    return [maintenance_cost(float(lead), model) for lead in np.linspace(-600.0, 3600.0, n)]


@pytest.mark.parametrize("n_values", [0, 1, 2, 48])
@pytest.mark.parametrize("n_resamples", [1, 500])
def test_vectorized_bootstrap_equals_the_loop(n_values, n_resamples):
    values = costs(n_values)
    want = bootstrap_ci_loop(values, make_rng(3), n_resamples=n_resamples)
    got = bootstrap_ci(values, make_rng(3), n_resamples=n_resamples)
    # NaN (no values) compares equal to NaN in the same place.
    np.testing.assert_array_equal(np.round(got, 12), np.round(want, 12))
    if n_values >= 2:
        assert want[0] <= want[1]

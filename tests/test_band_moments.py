"""Deformed-band moments against frozen mpmath values (``data/band_moments.json``).

``band_moment_refs.py`` beside this file computes the values and says how.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from drnewsvendor import Beta, PiecewiseLinear, deform_lower, deform_upper

REFS = json.loads((Path(__file__).with_name("data") / "band_moments.json").read_text())
BAND = {"upper": deform_upper, "lower": deform_lower}


@pytest.mark.parametrize("name", sorted(REFS["piecewise"]))
def test_piecewise_band_moments_are_exact(name):
    ref = REFS["piecewise"][name]
    forecast = PiecewiseLinear(ref["levels"], ref["values"])
    offers = np.array(REFS["offers"])
    for row in ref["rows"]:
        band = BAND[row["side"]](forecast, row["rho"])
        under, over = band.partial_expectations(offers)
        assert band.mean() == pytest.approx(row["mean"], abs=1e-12)
        np.testing.assert_allclose(under, row["under"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(over, np.maximum(np.array(row["under"]) - offers + row["mean"], 0.0),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("row", REFS["beta"], ids=lambda r: f"{r['a']}-{r['b']}-{r['rho']}-{r['side']}")
def test_beta_band_moments_beat_adaptive_quadrature(row):
    band = BAND[row["side"]](Beta(row["a"], row["b"]), row["rho"])
    errors = (abs(band.mean() - row["mean"]),
              abs(float(band.partial_expectations(0.3)[0]) - row["under_0.3"]))
    for error, quad_error in zip(errors, (row["quad_mean_error"], row["quad_under_error"])):
        if row["rho"] <= 0.4:
            assert error <= 1e-9
        # never farther off than the quadrature it replaced, up to double rounding
        assert error <= max(quad_error, 1e-15)


def test_the_hardest_band_mean():
    # adaptive quadrature of the CDF returned 0.94210, with an IntegrationWarning
    band = deform_lower(Beta(0.5, 8), 0.99)
    row = next(r for r in REFS["beta"]
               if (r["a"], r["b"], r["rho"], r["side"]) == (0.5, 8.0, 0.99, "lower"))
    assert band.mean() == pytest.approx(row["mean"], abs=1e-12)
    assert row["quad_mean_error"] > 7e-3

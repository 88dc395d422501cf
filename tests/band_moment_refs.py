"""Write ``data/band_moments.json``: mpmath moments of deformed FSD bands.

Run ``PYTHONPATH=src python tests/band_moment_refs.py`` (needs mpmath;
about three minutes). The values are independent of the package's moment
code: each is a 40-digit ``mpmath.quad`` of the band's CDF or survival
function over the x domain.

* ``beta``: bands around Beta(a, b), a in {0.5, 2, 8}, b in {0.5, 6, 8},
  rho in {0.4, 0.8, 0.95, 0.99}, both sides: the mean and ``under(0.3)``.
  F and S = 1 - F come from the hypergeometric series on the nearer side of
  1/2, so both keep their relative precision in the tails. Also recorded is
  the error of the adaptive ``scipy.integrate.quad`` of the CDF (absolute
  tolerance 1e-10, 200 subintervals) that computed these moments before the
  fixed quantile-domain rule replaced it.
* ``piecewise``: bands around three piecewise-linear forecasts at rho in
  {0, 0.1, 0.4, 0.8, 0.95, 0.99}: the mean and ``under`` at five offers,
  integrated segment by segment between the knots.
"""

import json
import warnings
from pathlib import Path

import mpmath as mp
from scipy import integrate

from drnewsvendor import Beta, deform_lower, deform_upper, standard_forecast_levels

mp.mp.dps = 40
HALF = mp.mpf("0.5")
OUT = Path(__file__).with_name("data") / "band_moments.json"


def _operator(u, beta, side):
    u = min(max(u, mp.mpf(0)), mp.mpf(1))
    if side == "upper":
        return mp.power(1 - mp.power(1 - u, 1 / beta), beta)
    return 1 - mp.power(1 - mp.power(u, 1 / beta), beta)


def _inc(p, q, z):
    """Regularized incomplete beta I_z(p, q), z <= 1/2, by the 2F1 series."""
    if z <= 0:
        return mp.mpf(0)
    return z ** p * (1 - z) ** q / (p * mp.beta(p, q)) * mp.hyp2f1(p + q, 1, p + 1, z)


def _one_minus_root(f, s, beta):
    """1 - f^(1/beta) for f = 1 - s, accurate at both ends."""
    if f < HALF:
        return 1 - mp.exp(mp.log(f) / beta) if f > 0 else mp.mpf(1)
    return -mp.expm1(mp.log1p(-s) / beta)


def _beta_band(a, b, beta, side, want, x, z):
    """The band's CDF (want="cdf") or survival at x = 1 - z."""
    if x <= HALF:
        f = _inc(a, b, x)
        s = 1 - f
    else:
        s = _inc(b, a, z)
        f = 1 - s
    if side == "lower":
        surv = mp.power(_one_minus_root(f, s, beta), beta)
        return surv if want == "surv" else 1 - surv
    cdf = mp.power(_one_minus_root(s, f, beta), beta)
    return cdf if want == "cdf" else 1 - cdf


def _beta_integral(a, b, beta, side, want, upto):
    """Integral over [0, upto], graded toward 0 (x = w^4) and toward 1 (1 - x = w^25)."""
    end = min(upto, HALF)
    total = mp.quad(lambda w: _beta_band(a, b, beta, side, want, w ** 4, 1 - w ** 4) * 4 * w ** 3,
                    mp.linspace(0, end ** (mp.mpf(1) / 4), 24))
    if upto > HALF:
        k = 25
        top = HALF ** (mp.mpf(1) / k)
        total += mp.quad(lambda w: _beta_band(a, b, beta, side, want, 1 - w ** k, w ** k) * k * w ** (k - 1),
                         [mp.mpf(0)] + [top * mp.mpf(2) ** -j for j in range(30, -1, -1)])
    return total


def _quad_moments(band, y):
    """The moments as adaptive quadrature of the CDF computed them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mean = integrate.quad(lambda x: 1.0 - float(band.cdf(x)), 0.0, 1.0, epsabs=1e-10, limit=200)[0]
        under = integrate.quad(lambda x: float(band.cdf(x)), 0.0, y, epsabs=1e-10, limit=200)[0]
    return mean, under


def beta_rows():
    rows = []
    for a in (0.5, 2.0, 8.0):
        for b in (0.5, 6.0, 8.0):
            for rho in (0.4, 0.8, 0.95, 0.99):
                for side in ("upper", "lower"):
                    beta, A, B = 1 - mp.mpf(rho), mp.mpf(a), mp.mpf(b)
                    mean = float(_beta_integral(A, B, beta, side, "surv", mp.mpf(1)))
                    under = float(_beta_integral(A, B, beta, side, "cdf", mp.mpf("0.3")))
                    band = (deform_upper if side == "upper" else deform_lower)(Beta(a, b), rho)
                    q_mean, q_under = _quad_moments(band, 0.3)
                    rows.append({"a": a, "b": b, "rho": rho, "side": side, "mean": mean,
                                 "under_0.3": under, "quad_mean_error": abs(q_mean - mean),
                                 "quad_under_error": abs(q_under - under)})
    return rows


PIECEWISE = {
    "beta26_19": (standard_forecast_levels().tolist(),
                  Beta(2, 6).quantile(standard_forecast_levels()).tolist()),
    "atoms": ([0.1, 0.3, 0.5, 0.7, 0.9], [0.0, 0.25, 0.25, 0.6, 1.0]),
    "steep": ([0.01, 0.02, 0.98, 0.99], [0.3, 0.7, 0.71, 0.72]),
}
OFFERS = (0.05, 0.25, 0.3, 0.6, 0.95)


def _piecewise_under(ps, xs, beta, side, y):
    total = mp.mpf(0)
    for i in range(len(xs) - 1):
        x0, x1 = xs[i], min(xs[i + 1], y)
        if x1 > x0:
            slope = (ps[i + 1] - ps[i]) / (xs[i + 1] - xs[i])
            total += mp.quad(lambda x: _operator(ps[i] + (x - x0) * slope, beta, side), [x0, x1])
    return total


def piecewise_refs():
    out = {}
    for name, (levels, values) in PIECEWISE.items():
        ps = [mp.mpf(0)] + [mp.mpf(v) for v in levels] + [mp.mpf(1)]
        xs = [mp.mpf(0)] + [mp.mpf(v) for v in values] + [mp.mpf(1)]
        rows = []
        for rho in (0.0, 0.1, 0.4, 0.8, 0.95, 0.99):
            for side in ("upper", "lower"):
                beta = 1 - mp.mpf(rho)
                mean = 1 - _piecewise_under(ps, xs, beta, side, mp.mpf(1))
                unders = [float(_piecewise_under(ps, xs, beta, side, mp.mpf(y))) for y in OFFERS]
                rows.append({"rho": rho, "side": side, "mean": float(mean), "under": unders})
        out[name] = {"levels": levels, "values": values, "rows": rows}
    return out


if __name__ == "__main__":
    OUT.parent.mkdir(exist_ok=True)
    payload = {"mpmath": mp.__version__, "offers": list(OFFERS),
               "beta": beta_rows(), "piecewise": piecewise_refs()}
    OUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {OUT}")

"""Probability distributions on the unit interval.

Every offer rule in this package consumes a predictive distribution for
normalized generation through the small interface defined here: CDF,
generalized-inverse quantile, mean and partial expectations.
Piecewise-linear distributions built from quantile forecasts are the
production representation; Beta, Uniform01 and Heaviside cover
simulation studies and limit cases.
"""

from __future__ import annotations

import copy
import csv
import io
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "UnitDistribution",
    "PiecewiseLinear",
    "PiecewiseLinearBatch",
    "Beta",
    "Uniform01",
    "Heaviside",
    "RngStream",
    "read_quantile_forecast",
    "standard_forecast_levels",
]


def _validate_prob(p, name: str):
    arr = np.asarray(p, dtype=float)
    # written as "not all inside" so that NaN fails too
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
    return arr


def _graded_gauss_legendre(order: int = 16, levels: int = 26, ratio: float = 0.25):
    """Nodes and weights of a Gauss-Legendre rule on [0, 1], graded toward 0.

    The panel edges are 0, r^L, ..., r, 1, with ``order`` nodes in each
    panel. Quantile functions have their singularities at the ends of
    [0, 1]: p^(1/a) near 0 for Beta(a, .), and a deformation of radius rho
    multiplies such an exponent by 1 - rho at one end. The default moments
    take both halves of [0, 1] from their ends (see
    ``UnitDistribution.mean``), so one end is enough; panels down to r^L
    (2e-16) leave out less than that of an integrand bounded by 1.
    """
    edges = np.concatenate(([0.0], ratio ** np.arange(levels, -1, -1)))
    x, w = np.polynomial.legendre.leggauss(order)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + width * (x + 1.0) / 2.0).ravel(), (width * w / 2.0).ravel()


# the default moment rule of UnitDistribution: 432 nodes
_QUANTILE_RULE = _graded_gauss_legendre()


def _integral_to(q, p) -> np.ndarray:
    """Integral of the vectorized function ``q`` over [0, p], elementwise in ``p``.

    Each row is summed by the same reduction whatever the shape of ``p``, so
    an entry's bits do not depend on the entries priced with it (a matrix
    product rounds a scalar's dot and an array's rows differently).
    """
    nodes, weights = _QUANTILE_RULE
    p = np.asarray(p, dtype=float)
    return p * (np.asarray(q(p[..., None] * nodes), dtype=float) * weights).sum(axis=-1)


def _match_input(x, out):
    """Return a bare float when the query was scalar."""
    if np.ndim(x) == 0:
        return float(out)
    return out


class UnitDistribution(ABC):
    """A probability distribution supported on [0, 1].

    Instances are immutable after construction and safe to share across
    concurrent tasks. Subclasses must provide the CDF and quantile
    function; ``mean`` and ``_cdf_integral`` default to a fixed
    Gauss-Legendre rule on the quantile domain (:data:`_QUANTILE_RULE`)
    and are overridden where a closed form exists, and from these two
    :meth:`partial_expectations` forms both partial expectations. Every query
    accepts a scalar or an array, elementwise: an entry's result is the
    same to the bit whether it is asked alone or within an array of any
    shape.
    """

    __slots__ = ()

    @abstractmethod
    def cdf(self, x):
        """P[omega <= x]; accepts scalars or arrays, clamps outside [0, 1]."""

    @abstractmethod
    def quantile(self, p):
        """Generalized inverse inf{x : cdf(x) >= p} for p in [0, 1]."""

    def _quantile_below(self, p):
        """The quantile at levels ``p`` in [0, 1/2]."""
        return self.quantile(p)

    def _quantile_above(self, s):
        """The quantile at levels ``1 - s``, ``s`` in [0, 1/2].

        Subclasses whose quantile is steep near 1 override this to use ``s``
        itself, so that levels which round to 1 stay apart.
        """
        return self.quantile(1.0 - np.asarray(s, dtype=float))

    def mean(self) -> float:
        """E[omega], the integral of the quantile function over [0, 1].

        The default takes each half of the levels from its end, with
        :meth:`_quantile_below` and :meth:`_quantile_above`, by the graded
        rule :data:`_QUANTILE_RULE`.
        """
        return float(_integral_to(self._quantile_below, 0.5) + _integral_to(self._quantile_above, 0.5))

    def partial_expectations(self, y):
        """Expected overage and underage volumes at offer ``y``.

        Returns ``(under, over)`` where ``under = E[(y - omega)+]``
        (the integral of the CDF up to ``y``) and
        ``over = E[(omega - y)+]`` (the integral of the survival function
        above ``y``). The two are linked by ``under - over = y - mean``.
        Like ``quantile``, an array ``y`` gives arrays of the same shape.
        Subclasses supply ``under`` through :meth:`_cdf_integral`.
        """
        arr = _validate_prob(y, "y")
        under = self._cdf_integral(arr)
        over = under - arr + self.mean()
        return _match_input(y, np.maximum(under, 0.0)), _match_input(y, np.maximum(over, 0.0))

    def _cdf_integral(self, y: np.ndarray) -> np.ndarray:
        """The integral of the CDF over [0, y], elementwise: E[(y - omega)+].

        The default takes the integral of the quantile function Q over the
        shorter side of P = F(y): ``y*P - (integral of Q over [0, P])`` when
        P <= 1/2, else ``y - mean + (integral of Q over [P, 1]) - y*(1 - P)``.
        Both hold with atoms and flat stretches of the CDF alike.
        """
        p = np.asarray(self.cdf(y), dtype=float)
        low = p <= 0.5
        under = y * p - _integral_to(self._quantile_below, np.where(low, p, 0.0))
        over = _integral_to(self._quantile_above, np.where(low, 0.0, 1.0 - p)) - y * (1.0 - p)
        return np.where(low, under, over + y - self.mean())


class _KnotError(ValueError):
    """A :class:`PiecewiseLinear` knot check that first fails at index ``knot``."""

    def __init__(self, message: str, knot: int):
        super().__init__(message)
        self.knot = knot


class PiecewiseLinear(UnitDistribution):
    """Distribution whose quantile function linearly interpolates forecast quantiles.

    ``levels`` are strictly increasing probabilities in (0, 1) and
    ``values`` the matching non-decreasing generation fractions. The knots
    are anchored at (0, 0) and (1, 1) so the support is exactly the unit
    interval. Repeated values encode point masses; the CDF is then
    right-continuous at the atom.
    """

    # a backtest holds one forecast per hour, so each carries no more than its knots
    __slots__ = ("_ps", "_xs", "_mean")

    def __init__(self, levels, values):
        levels = np.asarray(levels, dtype=float)
        values = np.asarray(values, dtype=float)
        if levels.ndim != 1 or levels.shape != values.shape or levels.size == 0:
            raise ValueError("levels and values must be equal-length 1-D sequences")
        # each check asks "all inside", so a NaN knot fails it; a check on
        # consecutive knots (offset 1) blames the later one
        for ok, offset, problem in (
            ((levels > 0.0) & (levels < 1.0), 0,
             "levels must be finite and lie strictly inside (0, 1), got {levels}"),
            (np.diff(levels) > 0.0, 1, "levels must be strictly increasing"),
            ((values >= 0.0) & (values <= 1.0), 0,
             "values must be finite and lie in [0, 1], got {values}"),
            (np.diff(values) >= 0.0, 1, "values must be non-decreasing"),
        ):
            if not ok.all():
                raise _KnotError(problem.format(levels=levels, values=values),
                                 int(np.argmin(ok)) + offset)
        self._ps = np.concatenate(([0.0], levels, [1.0]))
        self._xs = np.concatenate(([0.0], values, [1.0]))
        self._mean = float(self._knot_integrals()[-1])

    @property
    def levels(self) -> np.ndarray:
        return self._ps[1:-1].copy()

    @property
    def values(self) -> np.ndarray:
        return self._xs[1:-1].copy()

    def cdf(self, x):
        # np.interp on the swapped knot arrays is the right-continuous
        # inverse: at a repeated value (atom) it returns the upper level.
        arr = np.asarray(x, dtype=float)
        return _match_input(x, np.interp(arr, self._xs, self._ps))

    def quantile(self, p):
        arr = _validate_prob(p, "p")
        return _match_input(p, np.interp(arr, self._ps, self._xs))

    def mean(self) -> float:
        return self._mean

    def _knot_integrals(self) -> np.ndarray:
        """Exact integral of the quantile function from 0 to each knot."""
        seg = np.diff(self._ps) * (self._xs[:-1] + self._xs[1:]) / 2.0
        return np.concatenate(([0.0], np.cumsum(seg)))

    def _quantile_integral(self, p: np.ndarray) -> np.ndarray:
        """Exact integral of the quantile function over [0, p]."""
        cum = self._knot_integrals()
        last = self._ps.size - 1
        i = np.minimum(np.searchsorted(self._ps, p, side="right") - 1, last)
        qp = np.interp(p, self._ps, self._xs)
        inner = cum[i] + (p - self._ps[i]) * (self._xs[i] + qp) / 2.0
        return np.where(i >= last, cum[-1], inner)

    def _cdf_integral(self, y: np.ndarray) -> np.ndarray:
        p_star = np.interp(y, self._xs, self._ps)
        return y * p_star - self._quantile_integral(p_star)

    def __repr__(self) -> str:
        return f"PiecewiseLinear({self._ps.size - 2} knots)"


class Beta(UnitDistribution):
    """Beta(a, b) distribution via the regularized incomplete beta function.

    Its methods import ``scipy.special`` when called, so a command that
    never prices a Beta (``crossval``, ``backtest``) does not load it.
    """

    def __init__(self, a: float, b: float):
        self.a = float(a)
        self.b = float(b)
        # written as "inside", so that NaN fails too
        if not (0.0 < self.a < np.inf and 0.0 < self.b < np.inf):
            raise ValueError(f"Beta shape parameters must be positive and finite, "
                             f"got a={self.a}, b={self.b}")

    def cdf(self, x):
        from scipy import special

        arr = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return _match_input(x, special.betainc(self.a, self.b, arr))

    def quantile(self, p):
        arr = _validate_prob(p, "p")
        from scipy import special

        out = special.betaincinv(self.a, self.b, arr)
        # betaincinv underflows to nan for subnormal tail probabilities,
        # where the quantile is 0 or 1 to double precision
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(bad, np.where(np.asarray(arr) < 0.5, 0.0, 1.0), out)
        return _match_input(p, out)

    def _quantile_above(self, s):
        # 1 - omega follows Beta(b, a)
        return 1.0 - np.asarray(Beta(self.b, self.a).quantile(s), dtype=float)

    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def partial_expectations(self, y):
        # the base rule; bench/tracing.py wraps Beta.__dict__["partial_expectations"]
        return super().partial_expectations(y)

    def _cdf_integral(self, y: np.ndarray) -> np.ndarray:
        # E[(y-w)+] = y*I_y(a,b) - mu*I_y(a+1,b); exact, no quadrature needed
        from scipy import special

        return (y * special.betainc(self.a, self.b, y)
                - self.mean() * special.betainc(self.a + 1.0, self.b, y))

    def __repr__(self) -> str:
        return f"Beta({self.a:g}, {self.b:g})"


class Uniform01(UnitDistribution):
    """Standard uniform distribution; its CDF is the identity on [0, 1]."""

    def cdf(self, x):
        arr = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return _match_input(x, arr)

    def quantile(self, p):
        arr = _validate_prob(p, "p")
        return _match_input(p, arr.astype(float))

    def mean(self) -> float:
        return 0.5

    def partial_expectations(self, y):
        arr = _validate_prob(y, "y")
        return _match_input(y, arr * arr / 2.0), _match_input(y, (1.0 - arr) ** 2 / 2.0)

    def __repr__(self) -> str:
        return "Uniform01()"


class Heaviside(UnitDistribution):
    """Point mass at ``location``; the limit shape of fully deformed CDFs."""

    def __init__(self, location: float):
        self.location = float(_validate_prob(location, "location"))

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        return _match_input(x, (arr >= self.location).astype(float))

    def quantile(self, p):
        # inf{x in [0,1] : cdf(x) >= p} is the support bottom at p = 0
        arr = _validate_prob(p, "p")
        return _match_input(p, np.where(arr > 0.0, self.location, 0.0))

    def mean(self) -> float:
        return self.location

    def partial_expectations(self, y):
        arr = _validate_prob(y, "y")
        return (_match_input(y, np.maximum(arr - self.location, 0.0)),
                _match_input(y, np.maximum(self.location - arr, 0.0)))

    def __repr__(self) -> str:
        return f"Heaviside({self.location:g})"


class PiecewiseLinearBatch:
    """Many piecewise-linear forecasts as a knot table and a row index.

    The table holds one knot row per distinct forecast object, and entry
    ``i`` of the batch reads row ``rows[i]``, so forecasts shared by many
    periods are stored once. ``quantile(p)`` evaluates entry ``i`` at
    ``p[..., i]`` and ``mean()`` gives every entry's mean, bit for bit as
    the entry's own PiecewiseLinear would. Rows with fewer knots are padded
    with the (1, 1) anchor.
    """

    def __init__(self, dists: Sequence[PiecewiseLinear]):
        # forecasts hash by identity: one row per object, in order of first use
        index: dict[PiecewiseLinear, int] = {}
        self._rows = np.fromiter((index.setdefault(d, len(index)) for d in dists),
                                 dtype=np.int64, count=len(dists))
        table = list(index)
        sizes = np.fromiter((d._xs.size for d in table), dtype=np.int64, count=len(table))
        width = int(sizes.max()) if sizes.size else 2
        ps = _stack_rows([d._ps for d in table], sizes, width)
        self._xs = _stack_rows([d._xs for d in table], sizes, width)
        self._means = np.fromiter((d._mean for d in table), dtype=float, count=len(table))
        # each segment's slope, as np.interp forms it; the last column (and a
        # padded segment's 0/0) is read only at a knot hit, where it is unused
        self._slopes = np.zeros_like(self._xs)
        with np.errstate(all="ignore"):
            self._slopes[:, :-1] = np.diff(self._xs) / np.diff(ps)
        # one level row when every row shares it (as every loaded or synthetic
        # market's rows do), else the level matrix: exactly one is set
        shared = bool(table) and bool((ps == ps[0]).all())
        self._levels = ps[0].copy() if shared else None
        self._ps = None if shared else ps

    def take(self, index) -> "PiecewiseLinearBatch":
        """The entries ``index`` of this batch, reading the same knot table."""
        out = copy.copy(self)
        out._rows = self._rows[index]
        return out

    def quantile(self, p) -> np.ndarray:
        """Entry-wise ``np.interp(p[..., i], levels[i], values[i])``, with its arithmetic.

        The last axis of the float array ``p`` holds one probability per
        entry; leading axes broadcast, so one call prices many grid points.
        Levels in [0, 1], one per entry, are the caller's to ensure, as
        :func:`~drnewsvendor.ambiguity.ball_bounds` leaves its arguments.
        """
        rows = self._rows
        # j: the last knot at or below p, found on the shared levels when there are some
        if self._levels is not None:
            j = self._levels.searchsorted(p, side="right")
            j -= 1
            p0 = self._levels[j]
        else:
            ps = self._ps[rows]
            j = np.count_nonzero(ps <= p[..., None], axis=-1) - 1
            p0 = ps[np.arange(rows.size), j]
        j += rows * self._xs.shape[1]  # now the knot's index in the flat table
        x0 = self._xs.take(j)
        # in place, so a block of many grid points holds few block-sized temporaries
        out = np.subtract(p, p0)
        with np.errstate(all="ignore"):
            out *= self._slopes.take(j)
            out += x0
        # a knot hit (p = 1 included) returns the knot value, as np.interp does
        np.copyto(out, x0, where=p0 == p)
        return out

    def _quantile_above(self, s) -> np.ndarray:
        """Entry-wise quantile at levels ``1 - s``, as ``UnitDistribution._quantile_above``."""
        return self.quantile(1.0 - np.asarray(s, dtype=float))

    def mean(self) -> np.ndarray:
        return self._means[self._rows]


def _stack_rows(rows: list[np.ndarray], sizes: np.ndarray, width: int) -> np.ndarray:
    """Rows of ``sizes`` lengths as a matrix, each padded on the right with 1."""
    out = np.ones((sizes.size, width))
    out[np.arange(width) < sizes[:, None]] = np.concatenate(rows or [np.empty(0)])
    return out


@dataclass
class RngStream:
    """Reproducible random stream addressed by (master_seed, stream_id).

    Equal addresses replay the identical sequence; distinct stream ids are
    statistically independent (SeedSequence spawn keys). A stream is
    single-owner: share the address, not the instance.
    """

    master_seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError("master_seed must be a non-negative integer")
        if self.stream_id < 0:
            raise ValueError("stream_id must be a non-negative integer")
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        self._gen = np.random.default_rng(seq)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def standard_forecast_levels() -> np.ndarray:
    """The production quantile levels 0.025, 0.075, ..., 0.975."""
    return np.round(np.arange(0.025, 0.9751, 0.05), 3)


def read_quantile_forecast(path) -> PiecewiseLinear:
    """Parse a two-column ``level,value`` quantile CSV into a PiecewiseLinear.

    Every error names the file and, but for an empty file, the line.
    """
    path = Path(path)
    levels: list[float] = []
    values: list[float] = []
    lines: list[int] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["level", "value"]:
            raise ValueError(f"{path}:1: expected header 'level,value', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {row!r}")
            try:
                levels.append(float(row[0]))
                values.append(float(row[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric entry {row!r}") from exc
            lines.append(lineno)
    if not levels:
        raise ValueError(f"{path}: no quantile rows")
    try:
        return PiecewiseLinear(levels, values)
    except _KnotError as exc:
        raise ValueError(f"{path}: {exc} (line {lines[exc.knot]})") from exc


def _share_knots(dist: PiecewiseLinear, previous: PiecewiseLinear | None) -> PiecewiseLinear:
    """``previous`` when it has the knots of ``dist``, else ``dist``.

    A ``dist`` on the levels of ``previous`` takes over its level array, so
    a run of forecasts on common levels stores them once.
    """
    if previous is None or not np.array_equal(dist._ps, previous._ps):
        return dist
    if np.array_equal(dist._xs, previous._xs):
        return previous
    dist._ps = previous._ps
    return dist


def _forecast_text(dist: PiecewiseLinear) -> str:
    """The CSV text :func:`read_quantile_forecast` reads back as ``dist``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["level", "value"])
    for lvl, val in zip(dist.levels, dist.values):
        writer.writerow([repr(float(lvl)), repr(float(val))])
    return buf.getvalue()

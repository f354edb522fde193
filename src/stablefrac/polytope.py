"""Exact evaluation of the matching polytopes and the vertex test.

Two linear systems are evaluated over the acceptable pairs: the feasibility
system (quota caps, unit demand, nonnegativity, zero off the acceptable
pairs) and the stable-feasibility system, which adds one no-blocking
inequality per acceptable pair.  A point is a vertex exactly when its tight
constraints have full rank over the rationals; coordinates on non-acceptable
pairs are identically zero and are eliminated rather than carried along.

Both systems are evaluated in one integer pass over the point's own form,
numerators N over its least common denominator D: every row is compared in
``int``, and the pass keeps each pair's weak prefix sums at D for the strong
stability condition and its sweep.  The point keeps that report for its
market, so every layer takes ``(market, x)`` and evaluates a point once;
``check_feasibility`` is that report without its noblock rows.  Every
constraint row is one sparse map from acceptable-pair position to its
nonzero integer coefficient, shared by the vertex test and the two walks.
The walks start from N and D, take integer null-space directions from
``linalg.Rref`` and compare step lengths by cross-multiplication, so a step
builds one ``Fraction``: its length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterator

from .linalg import Rref, rank
from .model import (
    FractionalMatching, InfeasibleError, Market, Rational, _from_cells)

ConstraintId = tuple[str, ...]


@dataclass(frozen=True)
class _ScaledSums:
    """Weak prefix sums of one point, times the point's denominator.

    ``firm[k]`` is the firm's cumulative mass down to the worker of the k-th
    acceptable pair, ``worker[k]`` the worker's down to the firm.
    """

    firm: list[int]
    worker: list[int]


@dataclass(frozen=True)
class ConstraintReport:
    """Violated and exactly-tight constraints of one evaluation."""

    violations: tuple[tuple[ConstraintId, Rational, Rational], ...]
    tight: tuple[ConstraintId, ...]
    # set by check_stable_feasibility; not part of the report's value
    _sums: _ScaledSums | None = field(default=None, compare=False, repr=False)

    @property
    def feasible(self) -> bool:
        return not self.violations

    def first_violation(self) -> tuple[ConstraintId, Rational, Rational]:
        return self.violations[0]

    def require(self) -> ConstraintReport:
        """The report; InfeasibleError at the first violated constraint, if any."""
        if self.violations:
            raise InfeasibleError(*self.first_violation())
        return self


def constraint_label(cid: ConstraintId) -> str:
    kind, *agents = cid
    return f"{kind}:{','.join(agents)}"


def check_feasibility(market: Market, x: FractionalMatching) -> ConstraintReport:
    """Evaluate the feasibility system exactly.

    Per firm the row sum is capped by the quota, per worker the column sum by
    one, entries are nonnegative, and entries on non-acceptable pairs must be
    exactly zero.  Tightness of a zero entry is only reported on acceptable
    pairs; off the acceptable pairs a zero is an identity, not a constraint.
    The rows are those of the point's kept stable-feasibility report, which
    lists them first, without its noblock rows.
    """
    report = check_stable_feasibility(market, x)
    return ConstraintReport(
        tuple(v for v in report.violations if v[0][0] != "noblock"),
        tuple(cid for cid in report.tight if cid[0] != "noblock"))


def check_stable_feasibility(market: Market,
                             x: FractionalMatching) -> ConstraintReport:
    """Feasibility plus, per acceptable pair, the no-blocking inequality.

    For a pair (f, w): the mass f gives to strictly better workers, plus
    quota-many times the mass w gives to strictly better firms, plus
    quota-many times the pair's own entry, must reach the quota.  The report
    keeps the evaluation's weak prefix sums for ``strong_stability``, and the
    point keeps the report: a second call for the same market returns it.
    """
    if x._stable is None or x._stable[0] is not market:
        x._stable = (market, _evaluate(market, x))
    return x._stable[1]


def _evaluate(market: Market, x: FractionalMatching) -> ConstraintReport:
    """One evaluation of the stable-feasibility system at N = D * x.

    A violation's lhs becomes a ``Fraction`` over D, its rhs is the row's
    integer bound.
    """
    denom, scaled = x._denom, x._nums
    if len(scaled) != market.n_firms or any(
            len(row) != market.n_workers for row in scaled):
        raise ValueError("matrix dimensions do not match the market")
    violations: list[tuple[ConstraintId, Rational, Rational]] = []
    tight: list[ConstraintId] = []

    def bound(cid: ConstraintId, lhs: int, rhs: int, upper: bool) -> None:
        """Record the row  lhs <= D * rhs  (upper) or  lhs >= D * rhs."""
        slack = rhs * denom - lhs if upper else lhs - rhs * denom
        if slack == 0:
            tight.append(cid)
        elif slack < 0:
            violations.append((cid, Fraction(lhs, denom), Fraction(rhs)))

    for f, row in zip(market.firms, scaled):
        bound(("quota", f), sum(row), market.quota[f], upper=True)
    for w, column in zip(market.workers, zip(*scaled)):
        bound(("unit", w), sum(column), 1, upper=True)
    for f, row in zip(market.firms, scaled):
        acceptable = set(market.acceptable_to_firm(f))
        for w, v in zip(market.workers, row):
            if w in acceptable:
                bound(("nonneg", f, w), v, 0, upper=False)
            elif v:
                violations.append((("zero", f, w), Fraction(v, denom), Fraction(0)))

    pos, fidx, widx = market.pair_position, market.firm_index, market.worker_index
    n = len(market.pairs())
    entry, firm_sum, worker_sum = [0] * n, [0] * n, [0] * n
    for f, row in zip(market.firms, scaled):
        acc = 0
        for w in market.acceptable_to_firm(f):
            k = pos(f, w)
            entry[k] = row[widx(w)]
            acc += entry[k]
            firm_sum[k] = acc
    for w in market.workers:
        acc, j = 0, widx(w)
        for f in market.acceptable_to_worker(w):
            acc += scaled[fidx(f)][j]
            worker_sum[pos(f, w)] = acc
    for k, (f, w) in enumerate(market.pairs()):
        q = market.quota[f]
        # (F - e) + q (W - e) + q e  with F, W the weak prefix sums at (f, w)
        bound(("noblock", f, w), firm_sum[k] - entry[k] + q * worker_sum[k], q,
              upper=False)
    return ConstraintReport(tuple(violations), tuple(tight),
                            _ScaledSums(firm_sum, worker_sum))


def _constraint_row(market: Market, cid: ConstraintId) -> dict[int, int]:
    """Nonzero coefficients of one constraint, by acceptable-pair position.

    Every coefficient is 1 or the firm's quota.
    """
    kind, *agents = cid
    pos = market.pair_position
    if kind == "quota":
        f, = agents
        return {pos(f, w): 1 for w in market.acceptable_to_firm(f)}
    if kind == "unit":
        w, = agents
        return {pos(f, w): 1 for f in market.acceptable_to_worker(w)}
    if kind == "nonneg":
        return {pos(*agents): 1}
    if kind == "noblock":
        f, w = agents
        q = market.quota[f]
        workers, firms = market.acceptable_to_firm(f), market.acceptable_to_worker(w)
        row = {pos(f, v): 1 for v in workers[:workers.index(w)]}    # f prefers v to w
        row.update({pos(g, w): q for g in firms[:firms.index(f)]})  # w prefers g to f
        row[pos(f, w)] = q
        return row
    raise ValueError(f"unknown constraint kind {kind!r}")


def is_extreme_point(market: Market, x: FractionalMatching) -> tuple[bool, int]:
    """Vertex test: x is a vertex exactly when the exactly-tight constraints
    of the stable-feasibility system have rank equal to the number of
    acceptable pairs.  Returns that verdict and the rank.

    The nonneg rows are presolved: a tight one is the unit vector of its
    pair, so each adds one to the rank and fixes its coordinate, which the
    exact rank of the other tight rows then drops.
    """
    tight = check_stable_feasibility(market, x).require().tight
    fixed = {market.pair_position(*cid[1:]) for cid in tight if cid[0] == "nonneg"}
    rest = [{c: a for c, a in _constraint_row(market, cid).items() if c not in fixed}
            for cid in tight if cid[0] != "nonneg"]
    r = len(fixed) + rank(rest, len(market.pairs()))
    return r == len(market.pairs()), r


@dataclass(frozen=True)
class _Inequality:
    cid: ConstraintId
    coeffs: dict[int, int]
    rhs: int


def _inequality_rows(market: Market) -> tuple[_Inequality, ...]:
    """The stable-feasibility system normalized to  a . x <= b  rows, built
    once per market and kept on it for every later walk, which only reads."""
    if "_inequality_rows" in vars(market):
        return market._inequality_rows

    def row(cid: ConstraintId, sign: int, rhs: int) -> _Inequality:
        coeffs = {c: sign * a for c, a in _constraint_row(market, cid).items()}
        return _Inequality(cid, coeffs, rhs)

    rows = [row(("quota", f), 1, market.quota[f]) for f in market.firms]
    rows += [row(("unit", w), 1, 1)
             for w in market.workers if market.acceptable_to_worker(w)]
    rows += [row(("nonneg", f, w), -1, 0) for f, w in market.pairs()]
    rows += [row(("noblock", f, w), -1, -market.quota[f])
             for f, w in market.pairs()]
    object.__setattr__(market, "_inequality_rows", tuple(rows))
    return market._inequality_rows


def _dot(a: dict[int, int], b: list[int]) -> int:
    return sum(u * b[c] for c, u in a.items())


class _Point:
    """A walk point x = N / D on the acceptable pairs, taken from the point's
    own form and kept reduced by ``move``; a row  a . x <= b  is tight
    exactly when a . N == b * D."""

    def __init__(self, market: Market, x: FractionalMatching):
        fidx, widx = market.firm_index, market.worker_index
        self.denom = x._denom
        self.nums = [x._nums[fidx(f)][widx(w)] for f, w in market.pairs()]

    def is_tight(self, row: _Inequality) -> bool:
        return _dot(row.coeffs, self.nums) == row.rhs * self.denom

    def move(self, step: Fraction, direction: list[int]) -> None:
        """x += step * direction, reduced to the least common denominator."""
        p, q = step.numerator * self.denom, step.denominator
        nums = [n * q + p * d for n, d in zip(self.nums, direction)]
        denom = self.denom * q
        g = gcd(denom, *nums)
        self.nums, self.denom = [n // g for n in nums], denom // g

    def matching(self, market: Market) -> FractionalMatching:
        return _from_cells(market, self.denom,
                           ((f, w, n) for (f, w), n in zip(market.pairs(), self.nums)))


def _step_length(rows: tuple[_Inequality, ...], point: _Point,
                 direction: list[int]) -> tuple[Fraction, list[_Inequality]]:
    """The ratio test: how far the point may move along direction and stay
    feasible, and the rows that bind at that distance.

    Row a . x <= b allows the step (b D - a . N) / (D a . d) when a . d > 0;
    the ratios share D, so they are compared by cross-multiplying
    (b D - a . N) / (a . d) and only the smallest becomes a ``Fraction``.
    The polytope is bounded, so some row always binds, and a direction taken
    from the null space of the tight rows leaves a positive step.
    """
    best_num, best_den, binding = 0, 0, []
    nums, denom = point.nums, point.denom
    for row in rows:
        ad = _dot(row.coeffs, direction)
        if ad > 0:
            num = row.rhs * denom - _dot(row.coeffs, nums)
            if not binding or num * best_den < best_num * ad:
                best_num, best_den, binding = num, ad, [row]
            elif num * best_den == best_num * ad:
                binding.append(row)
    best = Fraction(best_num, best_den * denom) if binding else None
    if best is None or best <= 0:
        raise AssertionError(f"ratio test gave no positive step ({best})")
    return best, binding


_INTERIOR_STEPS = 4


def _drop_each(dropping: list[_Inequality], kept: list[_Inequality],
               n: int) -> Iterator[tuple[_Inequality, Rref]]:
    """Each row of ``dropping`` with the basis of all the other rows, lazily.

    ``kept`` is eliminated once; each dropped row's basis is a copy of that
    basis plus the other rows of ``dropping``.  By ``Rref.copy`` it equals a
    fresh ``Rref`` of every row but the dropped one, in any order.
    """
    shared = Rref(n)
    for row in kept:
        shared.add(row.coeffs)
    for dropped in dropping:
        basis = shared.copy()
        for row in dropping:
            if row is not dropped:
                basis.add(row.coeffs)
        yield dropped, basis


def _slack_directions(tight: list[_Inequality], n: int,
                      rng: random.Random) -> Iterator[list[int]]:
    """Directions that give one of the first six tight rows slack and keep
    the other tight rows tight, lazily, in the walk's random order."""
    for dropped, basis in _drop_each(tight[:6], tight[6:], n):
        if basis.rank < n:
            free = [c for c in range(n) if c not in basis.pivot_columns()]
            rng.shuffle(free)
            for col in free:
                direction = basis.null_vector(col)
                s = _dot(dropped.coeffs, direction)
                if s:
                    yield [-v for v in direction] if s > 0 else direction


def interior_walk(market: Market, x: FractionalMatching,
                  rng: random.Random) -> FractionalMatching:
    """Move a feasible point onto higher-dimensional faces of the polytope.

    Each of up to ``_INTERIOR_STEPS`` steps picks one currently tight
    constraint, finds a feasible direction that gives it slack while keeping
    the other tight constraints tight, and moves half the maximal feasible
    distance.  This escapes the minimal face containing the start point,
    which a null-space vertex walk never leaves; combined they fuzz the
    whole polytope.

    The tight rows are shuffled and the first six are tried in turn as the
    dropped row, each basis from ``_drop_each``: it equals a basis built
    from scratch, so the walk draws the same random numbers either way.
    """
    check_stable_feasibility(market, x).require()
    n = len(market.pairs())
    if n == 0:
        return x
    point = _Point(market, x)
    rows = _inequality_rows(market)

    for _ in range(_INTERIOR_STEPS):
        tight = [row for row in rows if point.is_tight(row)]
        rng.shuffle(tight)
        # a usable direction almost always shows up early
        direction = next(_slack_directions(tight, n, rng), None)
        if direction is None:
            break
        best, _ = _step_length(rows, point, direction)
        point.move(best / 2, direction)
    return point.matching(market)


def vertex_walk(market: Market, x: FractionalMatching, rng: random.Random,
                trace: list[FractionalMatching] | None = None) -> FractionalMatching:
    """Walk from a stable-feasible point to a vertex of the same polytope.

    Repeatedly picks a direction in the null space of the currently tight
    constraints (randomized over the free coordinates) and moves as far as
    feasibility allows; every step makes at least one new independent
    constraint tight, so the walk ends in at most one step per coordinate.
    Only the rows that bind in the ratio test become tight: a row tight
    before the step lies in the basis's span, so the direction keeps it
    tight, and each row is added to the basis once.  Intermediate points are
    appended to ``trace`` when given.
    """
    check_stable_feasibility(market, x).require()
    n = len(market.pairs())
    if n == 0:
        return x
    point = _Point(market, x)
    rows = _inequality_rows(market)

    basis = Rref(n)
    for row in rows:
        if point.is_tight(row):
            basis.add(row.coeffs)
    while basis.rank < n:
        pivots = basis.pivot_columns()
        free = [c for c in range(n) if c not in pivots]
        direction = basis.null_vector(rng.choice(free))
        if rng.random() < 0.5:
            direction = [-v for v in direction]
        best, binding = _step_length(rows, point, direction)
        point.move(best, direction)
        for row in binding:
            basis.add(row.coeffs)
        if trace is not None:
            trace.append(point.matching(market))
    return point.matching(market)

"""Exact evaluation of the matching polytopes and the vertex test.

Two linear systems are evaluated over the acceptable pairs: the feasibility
system (quota caps, unit demand, nonnegativity, zero off the acceptable
pairs) and the stable-feasibility system, which adds one no-blocking
inequality per acceptable pair.  A point is a vertex exactly when its tight
constraints have full rank over the rationals; coordinates on non-acceptable
pairs are identically zero and are eliminated rather than carried along.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Rref, rank
from .model import FractionalMatching, InfeasibleError, Market, Rational

ConstraintId = tuple[str, ...]


@dataclass(frozen=True)
class ConstraintReport:
    """Violated and exactly-tight constraints of one evaluation."""

    violations: tuple[tuple[ConstraintId, Rational, Rational], ...]
    tight: tuple[ConstraintId, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations

    def first_violation(self) -> tuple[ConstraintId, Rational, Rational]:
        return self.violations[0]

    def require(self) -> None:
        """Raise InfeasibleError at the first violated constraint, if any."""
        if self.violations:
            raise InfeasibleError(*self.first_violation())


def constraint_label(cid: ConstraintId) -> str:
    kind, *agents = cid
    return f"{kind}:{','.join(agents)}"


def _require_shape(market: Market, x: FractionalMatching) -> None:
    if len(x.entries) != market.n_firms or any(
            len(row) != market.n_workers for row in x.entries):
        raise ValueError("matrix dimensions do not match the market")


def firm_weak_prefix(market: Market, x: FractionalMatching,
                     f: str) -> dict[str, Rational]:
    """Cumulative mass a firm assigns from its favourite worker down to each."""
    out: dict[str, Rational] = {}
    acc = Fraction(0)
    i = market.firm_index(f)
    for w in market.acceptable_to_firm(f):
        acc += x.entries[i][market.worker_index(w)]
        out[w] = acc
    return out


def worker_weak_prefix(market: Market, x: FractionalMatching,
                       w: str) -> dict[str, Rational]:
    out: dict[str, Rational] = {}
    acc = Fraction(0)
    j = market.worker_index(w)
    for f in market.acceptable_to_worker(w):
        acc += x.entries[market.firm_index(f)][j]
        out[f] = acc
    return out


def check_feasibility(market: Market, x: FractionalMatching) -> ConstraintReport:
    """Evaluate the feasibility system exactly.

    Per firm the row sum is capped by the quota, per worker the column sum by
    one, entries are nonnegative, and entries on non-acceptable pairs must be
    exactly zero.  Tightness of a zero entry is only reported on acceptable
    pairs; off the acceptable pairs a zero is an identity, not a constraint.
    """
    _require_shape(market, x)
    violations: list[tuple[ConstraintId, Rational, Rational]] = []
    tight: list[ConstraintId] = []
    for i, f in enumerate(market.firms):
        s = sum(x.entries[i], Fraction(0))
        q = Fraction(market.quota[f])
        if s > q:
            violations.append((("quota", f), s, q))
        elif s == q:
            tight.append(("quota", f))
    for j, w in enumerate(market.workers):
        s = sum((row[j] for row in x.entries), Fraction(0))
        if s > 1:
            violations.append((("unit", w), s, Fraction(1)))
        elif s == 1:
            tight.append(("unit", w))
    for i, f in enumerate(market.firms):
        for j, w in enumerate(market.workers):
            v = x.entries[i][j]
            if market.acceptable(f, w):
                if v < 0:
                    violations.append((("nonneg", f, w), v, Fraction(0)))
                elif v == 0:
                    tight.append(("nonneg", f, w))
            elif v != 0:
                violations.append((("zero", f, w), v, Fraction(0)))
    return ConstraintReport(tuple(violations), tuple(tight))


def check_stable_feasibility(market: Market,
                             x: FractionalMatching) -> ConstraintReport:
    """Feasibility plus, per acceptable pair, the no-blocking inequality.

    For a pair (f, w): the mass f gives to strictly better workers, plus
    quota-many times the mass w gives to strictly better firms, plus
    quota-many times the pair's own entry, must reach the quota.
    """
    base = check_feasibility(market, x)
    violations = list(base.violations)
    tight = list(base.tight)
    fpre = {f: firm_weak_prefix(market, x, f) for f in market.firms}
    wpre = {w: worker_weak_prefix(market, x, w) for w in market.workers}
    for f, w in market.pairs():
        e = x.value(market, f, w)
        q = Fraction(market.quota[f])
        lhs = (fpre[f][w] - e) + q * (wpre[w][f] - e) + q * e
        if lhs < q:
            violations.append((("noblock", f, w), lhs, q))
        elif lhs == q:
            tight.append(("noblock", f, w))
    return ConstraintReport(tuple(violations), tuple(tight))


def _constraint_row(market: Market, cid: ConstraintId) -> list[Fraction]:
    """Coefficients of one constraint over the acceptable-pair coordinates."""
    n = len(market.pairs())
    row = [Fraction(0)] * n
    kind = cid[0]
    if kind == "quota":
        f = cid[1]
        for w in market.acceptable_to_firm(f):
            row[market.pair_position(f, w)] = Fraction(1)
    elif kind == "unit":
        w = cid[1]
        for f in market.acceptable_to_worker(w):
            row[market.pair_position(f, w)] = Fraction(1)
    elif kind == "nonneg":
        f, w = cid[1], cid[2]
        row[market.pair_position(f, w)] = Fraction(1)
    elif kind == "noblock":
        f, w = cid[1], cid[2]
        q = Fraction(market.quota[f])
        for v in market.acceptable_to_firm(f):
            if market.firm_rank(f, v) < market.firm_rank(f, w):
                row[market.pair_position(f, v)] = Fraction(1)
        for g in market.acceptable_to_worker(w):
            if market.worker_rank(w, g) < market.worker_rank(w, f):
                row[market.pair_position(g, w)] = q
        row[market.pair_position(f, w)] += q
    else:
        raise ValueError(f"unknown constraint kind {kind!r}")
    return row


def is_extreme_point(market: Market, x: FractionalMatching) -> tuple[bool, int]:
    """Vertex test by the rank of the tight constraints.

    Collects every exactly-tight constraint of the stable-feasibility system
    and computes its rank over the rationals with Gaussian elimination; x is a
    vertex exactly when the rank equals the number of acceptable pairs.
    """
    report = check_stable_feasibility(market, x)
    report.require()
    n = len(market.pairs())
    rows = [_constraint_row(market, cid) for cid in report.tight]
    r = rank(rows, n)
    return r == n, r


@dataclass(frozen=True)
class _Inequality:
    cid: ConstraintId
    coeffs: tuple[Fraction, ...]
    rhs: Fraction


def _inequality_rows(market: Market) -> list[_Inequality]:
    """The stable-feasibility system normalized to  a . x <= b  rows."""
    rows: list[_Inequality] = []
    n = len(market.pairs())
    for f in market.firms:
        rows.append(_Inequality(
            ("quota", f),
            tuple(_constraint_row(market, ("quota", f))),
            Fraction(market.quota[f])))
    for w in market.workers:
        if market.acceptable_to_worker(w):
            rows.append(_Inequality(
                ("unit", w),
                tuple(_constraint_row(market, ("unit", w))),
                Fraction(1)))
    for f, w in market.pairs():
        unit = _constraint_row(market, ("nonneg", f, w))
        rows.append(_Inequality(
            ("nonneg", f, w), tuple(-v for v in unit), Fraction(0)))
    for f, w in market.pairs():
        block = _constraint_row(market, ("noblock", f, w))
        rows.append(_Inequality(
            ("noblock", f, w),
            tuple(-v for v in block),
            Fraction(-market.quota[f])))
    return rows


def _dot(a: tuple[Fraction, ...], b: list[Fraction]) -> Fraction:
    return sum((u * v for u, v in zip(a, b) if u), Fraction(0))


def _step_length(rows: list[_Inequality], vec: list[Fraction],
                 direction: list[Fraction]) -> Fraction:
    """The ratio test: how far vec may move along direction and stay feasible.

    The polytope is bounded, so some row always binds, and a direction taken
    from the null space of the tight rows leaves a positive step.
    """
    best: Fraction | None = None
    for row in rows:
        ad = _dot(row.coeffs, direction)
        if ad > 0:
            t = (row.rhs - _dot(row.coeffs, vec)) / ad
            if best is None or t < best:
                best = t
    if best is None or best <= 0:
        raise AssertionError(f"ratio test gave no positive step ({best})")
    return best


def interior_walk(market: Market, x: FractionalMatching, rng: random.Random,
                  steps: int = 4) -> FractionalMatching:
    """Move a feasible point onto higher-dimensional faces of the polytope.

    Each step picks one currently tight constraint, finds a feasible
    direction that gives it slack while keeping the other tight constraints
    tight, and moves half the maximal feasible distance.  This escapes the
    minimal face containing the start point, which a null-space vertex walk
    never leaves; combined they fuzz the whole polytope.
    """
    check_stable_feasibility(market, x).require()
    n = len(market.pairs())
    if n == 0:
        return x
    vec = list(x.flatten(market))
    rows = _inequality_rows(market)

    for _ in range(steps):
        tight = [row for row in rows if _dot(row.coeffs, vec) == row.rhs]
        if not tight:
            break
        rng.shuffle(tight)
        moved = False
        for dropped in tight[:6]:   # a usable direction almost always shows up early
            basis = Rref(n)
            for row in tight:
                if row is not dropped:
                    basis.add(row.coeffs)
            if basis.rank == n:
                continue
            free = [c for c in range(n) if c not in basis.pivot_columns()]
            rng.shuffle(free)
            for col in free:
                direction = basis.null_vector(col)
                s = _dot(dropped.coeffs, direction)
                if s == 0:
                    continue
                if s > 0:
                    direction = [-v for v in direction]
                best = _step_length(rows, vec, direction)
                vec = [v + (best / 2) * d for v, d in zip(vec, direction)]
                moved = True
                break
            if moved:
                break
        if not moved:
            break
    return FractionalMatching.from_pair_values(market, vec)


def vertex_walk(market: Market, x: FractionalMatching, rng: random.Random,
                trace: list[FractionalMatching] | None = None) -> FractionalMatching:
    """Walk from a stable-feasible point to a vertex of the same polytope.

    Repeatedly picks a direction in the null space of the currently tight
    constraints (randomized over the free coordinates) and moves as far as
    feasibility allows; every step makes at least one new independent
    constraint tight, so the walk ends in at most one step per coordinate.
    Intermediate points are appended to ``trace`` when given.
    """
    check_stable_feasibility(market, x).require()
    n = len(market.pairs())
    if n == 0:
        return x
    vec = list(x.flatten(market))
    rows = _inequality_rows(market)

    basis = Rref(n)
    for row in rows:
        if _dot(row.coeffs, vec) == row.rhs:
            basis.add(row.coeffs)
    while basis.rank < n:
        pivots = basis.pivot_columns()
        free = [c for c in range(n) if c not in pivots]
        direction = basis.null_vector(rng.choice(free))
        if rng.random() < 0.5:
            direction = [-v for v in direction]
        best = _step_length(rows, vec, direction)
        vec = [v + best * d for v, d in zip(vec, direction)]
        for row in rows:
            if _dot(row.coeffs, vec) == row.rhs:
                basis.add(row.coeffs)
        if trace is not None:
            trace.append(FractionalMatching.from_pair_values(market, vec))
    return FractionalMatching.from_pair_values(market, vec)

"""Exact evaluation of the matching polytopes and the vertex test.

Two linear systems are evaluated over the acceptable pairs: the feasibility
system (quota caps, unit demand, nonnegativity, zero off the acceptable
pairs) and the stable-feasibility system, which adds one no-blocking
inequality per acceptable pair.  A point is a vertex exactly when its tight
constraints have full rank over the rationals; coordinates on non-acceptable
pairs are identically zero and are eliminated rather than carried along.

Every constraint row is one sparse map from acceptable-pair position to its
nonzero integer coefficient.  The vertex test and the two walks share that
format; the vertex test also counts tight nonnegativity rows without
eliminating them, since each is a unit vector.
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


def _tight_rank(market: Market, tight: tuple[ConstraintId, ...]) -> int:
    """Rank of the given tight constraints, with the nonneg rows presolved.

    A tight nonneg row is the unit vector of its pair, so each one adds one
    to the rank and fixes its coordinate.  The rank is the number of those
    rows plus the rank of the other rows with the fixed coordinates dropped.
    """
    fixed = {market.pair_position(*cid[1:]) for cid in tight if cid[0] == "nonneg"}
    rest = [{c: a for c, a in _constraint_row(market, cid).items() if c not in fixed}
            for cid in tight if cid[0] != "nonneg"]
    return len(fixed) + rank(rest, len(market.pairs()))


def is_extreme_point(market: Market, x: FractionalMatching) -> tuple[bool, int]:
    """Vertex test by the rank of the tight constraints.

    Collects every exactly-tight constraint of the stable-feasibility system
    and computes its rank over the rationals with sparse Gaussian
    elimination; x is a vertex exactly when the rank equals the number of
    acceptable pairs.  Tight nonneg rows are unit vectors and are counted
    without elimination: removing their columns from the other rows leaves
    the rank unchanged apart from adding one per such row, so the result
    stays exact.
    """
    report = check_stable_feasibility(market, x)
    report.require()
    n = len(market.pairs())
    r = _tight_rank(market, report.tight)
    return r == n, r


@dataclass(frozen=True)
class _Inequality:
    cid: ConstraintId
    coeffs: dict[int, int]
    rhs: Fraction


def _inequality_rows(market: Market) -> list[_Inequality]:
    """The stable-feasibility system normalized to  a . x <= b  rows."""
    def row(cid: ConstraintId, sign: int, rhs: int) -> _Inequality:
        coeffs = {c: sign * a for c, a in _constraint_row(market, cid).items()}
        return _Inequality(cid, coeffs, Fraction(rhs))

    rows = [row(("quota", f), 1, market.quota[f]) for f in market.firms]
    rows += [row(("unit", w), 1, 1)
             for w in market.workers if market.acceptable_to_worker(w)]
    rows += [row(("nonneg", f, w), -1, 0) for f, w in market.pairs()]
    rows += [row(("noblock", f, w), -1, -market.quota[f])
             for f, w in market.pairs()]
    return rows


def _dot(a: dict[int, int], b: list[Fraction]) -> Fraction:
    return sum((u * b[c] for c, u in a.items()), Fraction(0))


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

"""Exact evaluation of the matching polytopes and the vertex test.

Two linear systems are evaluated over the acceptable pairs: the feasibility
system (quota caps, unit demand, nonnegativity, zero off the acceptable
pairs) and the stable-feasibility system, which adds one no-blocking
inequality per acceptable pair.  A point is a vertex exactly when its tight
constraints have full rank over the rationals; coordinates on non-acceptable
pairs are identically zero and are eliminated rather than carried along.

Both systems are evaluated in one integer pass over the point's own form,
numerators N over its least common denominator D: every row is compared in
``int``, and the pass keeps N on the pairs and each pair's weak prefix sums
at D.  The point keeps that report for its market, so every layer takes
``(market, x)`` and evaluates a point once: the vertex test, the walks and
the strong stability sweep read N off the report, the strong stability
condition its sums, and ``check_feasibility`` is the report without its
noblock rows.

Each market keeps one index of its acceptable pairs, built on first use and
the one place that numbers them: every pair's cell and quota, the pair
positions along each agent's list, and the one numbering of the
stable-feasibility system's rows  a . x <= b  with each row's bound b.  From
it one prefix-sum pass over any pair vector v gives a . v for every row in
O(pairs): the lists' totals are the quota and unit rows, and each pair's
weak prefix sums on both sides give its noblock row.  The evaluation, the
tight and ratio tests of the two walks, and the strong stability condition
and sweep all read that pass.  A sparse row, a map from acceptable-pair
position to its nonzero integer coefficient, is built from slices of the
lists only for a row that enters a basis of the walks' ``linalg.Rref`` or is
the dropped row of an interior step.  The vertex test reads its tight rows'
numbers off the point's kept evaluation and builds each row lazily, in
row-number order, from the same slices restricted to the point's support S,
the pairs where it is nonzero; ``linalg.rank`` pulls them until the rank
reaches |S|, so on a vertex no row after the one that completes the rank is
built.  The walks carry row numbers, start from N and D, take integer
null-space directions from ``Rref`` and compare step lengths by
cross-multiplication, so a step builds one ``Fraction``: its length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

from .linalg import Rref, rank
from .model import (
    FractionalMatching, InfeasibleError, Market, Rational, _from_cells)

__all__ = (
    "ConstraintReport",
    "check_feasibility",
    "check_stable_feasibility",
    "constraint_label",
    "is_extreme_point",
    "vertex_walk",
)

ConstraintId = tuple[str, ...]
Slicer = Callable[[int, int], list[int]]


class _Lists:
    """One side's preference lists over the acceptable pairs, laid end to end.

    ``order`` holds the pair positions of each list in turn, most-preferred
    first.  The lists lie end to end, so ``starts`` holds both bounds of
    each: list i fills ``order[starts[i]:starts[i + 1]]``, and the last
    entry is ``len(order)``.  Pair k's list, down to and including k, fills
    ``order[base[k]:upto[k]]``.  With ``run`` the running sums of a pair
    vector along ``order``, led by a zero, a pair's weak prefix sum is
    ``run[upto[k]] - run[base[k]]``, and a list's total is the weak prefix
    sum at its last pair.  The lists hold every pair once.
    """

    __slots__ = ("order", "starts", "base", "upto")

    def __init__(self, lists: list[list[int]]):
        self.order = list(chain.from_iterable(lists))
        self.base, self.upto = [0] * len(self.order), [0] * len(self.order)
        base, upto, self.starts, end = self.base, self.upto, [0], 0
        for positions in lists:
            start = end
            for k in positions:
                end += 1
                base[k] = start
                upto[k] = end
            self.starts.append(end)

    def sums(self, v: list[int]) -> list[int]:
        """Each pair's weak prefix sum of v along its list."""
        run = [0, *accumulate([v[k] for k in self.order])]
        return [run[u] - run[b] for u, b in zip(self.upto, self.base)]

    def totals(self, sums: list[int]) -> list[int]:
        """Each list's total, from the weak prefix sums of ``sums``."""
        order, starts = self.order, self.starts
        return [sums[order[e - 1]] if e > s else 0 for s, e in zip(starts, starts[1:])]

    def slice(self, a: int, b: int) -> list[int]:
        """The pairs of ``order[a:b]``."""
        return self.order[a:b]

    def slicer(self, v: list[int]) -> Slicer:
        """``slice`` restricted to the pairs where v is nonzero.  One count
        pass along ``order`` gives how many of them come before each
        position, and so each slice's share of them."""
        flags = [v[k] != 0 for k in self.order]
        kept, before = list(compress(self.order, flags)), [0, *accumulate(flags)]
        return lambda a, b: kept[before[a]:before[b]]


class _PairIndex:
    """A market's acceptable pairs indexed for prefix sums, and the numbered
    rows  a . x <= b  of its stable-feasibility system.

    Pair k, the k-th of ``market.pairs()``, sits at flat cell ``cells[k]``
    (firm index times the number of workers, plus the worker index) and
    belongs to a firm of quota ``quota[k]``.  ``firm`` and ``worker`` hold
    every agent's list as pair positions, in declaration order; the map from
    a pair to its position lives only while they are laid out.  The rows are
    numbered in one order: a quota row per firm, a unit row per worker, then
    a nonneg row and a noblock row per pair; ``bound`` holds each row's b.
    A worker with no acceptable pair has an all-zero unit row, which is never
    tight (0 < D) and never binds.
    """

    __slots__ = ("cells", "quota", "firm", "worker", "bound")

    def __init__(self, market: Market):
        pairs, quota = market.pairs(), market.quota
        pos = {p: k for k, p in enumerate(pairs)}
        nw, findex, windex = market.n_workers, market._findex, market._windex
        self.cells = [findex[f] * nw + windex[w] for f, w in pairs]
        self.quota = [quota[f] for f, _ in pairs]
        self.firm = _Lists([[pos[f, w] for w in market.acceptable_to_firm(f)]
                            for f in market.firms])
        self.worker = _Lists([[pos[f, w] for f in market.acceptable_to_worker(w)]
                              for w in market.workers])
        self.bound = [*(quota[f] for f in market.firms), *[1] * nw,
                      *[0] * len(pairs), *[-q for q in self.quota]]

    def row(self, i: int, slicers: tuple[Slicer, Slicer] | None = None
            ) -> dict[int, int]:
        """Row i's nonzero coefficients by pair position, from slices of the
        lists: a quota or unit row is its list at 1, pair k's nonneg row is
        -1 at the last pair of the firm's list down to k, which is k, and its
        noblock row is -1 along the firm's list down to k and -q along the
        worker's list down to k, which overwrites k: -1 at the firm's better
        workers, -q at the worker's better firms and at k itself.

        The slices are the lists' ``slice``, or the firm's and worker's
        ``slicers``: those of ``_Lists.slicer`` give the row restricted to
        a point's support.
        """
        firm, worker, n = self.firm, self.worker, len(self.quota)
        nf, nw = len(firm.starts) - 1, len(worker.starts) - 1
        cut, cut_worker = slicers or (firm.slice, worker.slice)
        if i < nf:
            return dict.fromkeys(cut(firm.starts[i], firm.starts[i + 1]), 1)
        if i < nf + nw:
            i -= nf
            return dict.fromkeys(cut_worker(worker.starts[i], worker.starts[i + 1]), 1)
        k = i - nf - nw
        if k < n:
            return dict.fromkeys(cut(firm.upto[k] - 1, firm.upto[k]), -1)
        k -= n
        row = dict.fromkeys(cut(firm.base[k], firm.upto[k]), -1)
        row.update(dict.fromkeys(cut_worker(worker.base[k], worker.upto[k]),
                                 -self.quota[k]))
        return row


def _pair_index_of(market: Market) -> _PairIndex:
    """The market's pair index, built on first use and kept on the market."""
    if "_polytope_index" not in vars(market):
        object.__setattr__(market, "_polytope_index", _PairIndex(market))
    return market._polytope_index


def _noblock_lhs(index: _PairIndex, v: list[int], firm_sums: list[int],
                 worker_sums: list[int]) -> list[int]:
    """(F - v) + q W per pair: the no-blocking row's a . v before its sign."""
    return [f - e + q * w for f, e, q, w in zip(firm_sums, v, index.quota, worker_sums)]


def _row_values(index: _PairIndex, v: list[int]) -> list[int]:
    """a . v for every row of the index, by row number, from one prefix-sum
    pass along each side's lists: O(pairs), whatever the rows' lengths."""
    firm_sums, worker_sums = index.firm.sums(v), index.worker.sums(v)
    return [*index.firm.totals(firm_sums), *index.worker.totals(worker_sums),
            *[-e for e in v], *[-a for a in _noblock_lhs(index, v, firm_sums, worker_sums)]]


@dataclass(frozen=True)
class _ScaledSums:
    """One point's numerators on the acceptable pairs and its weak prefix
    sums, all times the point's denominator.

    ``entry[k]`` is the point's numerator at the k-th acceptable pair,
    ``firm[k]`` the firm's cumulative mass down to the pair's worker,
    ``worker[k]`` the worker's down to the firm.
    """

    entry: list[int]
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

    def require(self) -> ConstraintReport:
        """The report; InfeasibleError at the first violated constraint, if any."""
        if self.violations:
            raise InfeasibleError(*self.violations[0])
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
    keeps the point's numerators on the pairs and the evaluation's weak
    prefix sums, which the vertex test, the walks and ``strong_stability``
    read, and the point keeps the report: a second call for the same market
    returns it.
    """
    if x._stable is None or x._stable[0] is not market:
        x._stable = (market, _evaluate(market, x))
    return x._stable[1]


def _evaluate(market: Market, x: FractionalMatching) -> ConstraintReport:
    """One evaluation of the stable-feasibility system at N = D * x.

    The quota and unit rows are the matrix's row and column sums.  The
    noblock rows come from one prefix-sum pass over N on the pairs; the
    report keeps N on the pairs and the weak prefix sums.  A constraint id
    is built only for a tight or violated row.  The nonneg rows are N on the
    pairs, unless N has a negative entry or a nonzero off the pairs: then
    one scan of every cell reports the nonneg and zero rows in matrix order.
    A violation's lhs becomes a ``Fraction`` over D, its rhs is the row's
    integer bound.
    """
    denom, scaled = x._denom, x._nums
    if len(scaled) != market.n_firms or any(
            len(row) != market.n_workers for row in scaled):
        raise ValueError("matrix dimensions do not match the market")
    violations: list[tuple[ConstraintId, Rational, Rational]] = []
    tight: list[ConstraintId] = []

    def bound(kind: str, agents: Sequence[tuple[str, ...]], lhs: list[int],
              rhs: Iterable[int], slack: list[int]) -> None:
        """Record each row whose slack is zero as tight, below zero as
        violated; a row's id is its kind and its agents."""
        kind_ = (kind,)
        tight.extend([kind_ + a for a, gap in zip(agents, slack) if not gap])
        if min(slack, default=0) < 0:
            violations.extend([(kind_ + a, Fraction(b, denom), Fraction(c))
                               for a, b, c, gap in zip(agents, lhs, rhs, slack) if gap < 0])

    caps = [market.quota[f] for f in market.firms]
    loads = list(map(sum, scaled))
    bound("quota", list(zip(market.firms)), loads, caps,
          [c * denom - a for c, a in zip(caps, loads)])
    loads = list(map(sum, zip(*scaled)))
    bound("unit", list(zip(market.workers)), loads, repeat(1), [denom - a for a in loads])

    index, pairs = _pair_index_of(market), market.pairs()
    flat = list(chain.from_iterable(scaled))
    entry = [flat[c] for c in index.cells]
    if min(flat, default=0) >= 0 and \
            len(flat) - flat.count(0) == len(entry) - entry.count(0):
        bound("nonneg", pairs, entry, repeat(0), entry)
    else:
        for f, row in zip(market.firms, scaled):
            acceptable = set(market.acceptable_to_firm(f))
            for w, v in zip(market.workers, row):
                if w not in acceptable:
                    if v:
                        violations.append((("zero", f, w), Fraction(v, denom), Fraction(0)))
                elif v < 0:
                    violations.append((("nonneg", f, w), Fraction(v, denom), Fraction(0)))
                elif not v:
                    tight.append(("nonneg", f, w))

    firm_sum, worker_sum = index.firm.sums(entry), index.worker.sums(entry)
    lhs = _noblock_lhs(index, entry, firm_sum, worker_sum)
    # (F - e) + q (W - e) + q e >= q  with F, W the weak prefix sums at (f, w)
    bound("noblock", pairs, lhs, index.quota,
          [a - q * denom for a, q in zip(lhs, index.quota)])
    return ConstraintReport(tuple(violations), tuple(tight),
                            _ScaledSums(entry, firm_sum, worker_sum))


def is_extreme_point(market: Market, x: FractionalMatching) -> tuple[bool, int]:
    """Vertex test: x is a vertex exactly when the exactly-tight constraints
    of the stable-feasibility system have rank equal to the number of
    acceptable pairs.  Returns that verdict and the rank.

    A feasible point's tight nonneg rows are exactly the unit vectors of its
    zero pairs Z, so the rank is |Z| plus the rank of the other tight rows
    restricted to the supported pairs S.  Those rows are found from the
    point's kept evaluation, without constraint ids: a quota or unit row's
    lhs is its list's total, the weak prefix sum at the list's last pair,
    and a noblock row's comes from the pair's two weak prefix sums.  Each is
    built on S from the supported slices of the lists, which one count pass
    per side gives.  The rows touch only the |S| columns of S, so their rank
    is at most |S|: they are built lazily, in row-number order, and
    ``linalg.rank`` eliminates them until the rank reaches |S|.  On a vertex
    no row after the one that brings the rank to |S| is built; on a
    non-vertex every tight row is.
    """
    sums = check_stable_feasibility(market, x).require()._sums
    index, denom, entry = _pair_index_of(market), x._denom, sums.entry
    firm, worker, n = index.firm, index.worker, len(entry)
    totals = [*firm.totals(sums.firm), *worker.totals(sums.worker)]
    tight = [i for i, (t, b) in enumerate(zip(totals, index.bound)) if t == b * denom]
    first = len(totals) + n
    tight += [first + k for k, (a, q) in enumerate(zip(
        _noblock_lhs(index, entry, sums.firm, sums.worker), index.quota)) if a == q * denom]
    slicers, zeros = (firm.slicer(entry), worker.slicer(entry)), entry.count(0)
    r = zeros + rank((index.row(i, slicers) for i in tight), n - zeros)
    return r == n, r


class _Point:
    """A walk point x = N / D on the acceptable pairs, taken from the point's
    kept evaluation and kept reduced by ``move``."""

    def __init__(self, market: Market, x: FractionalMatching):
        self.index = _pair_index_of(market)
        self.denom = x._denom
        self.nums = check_stable_feasibility(market, x)._sums.entry

    def row_values(self) -> list[int]:
        """a . N for every row of the index, by row number."""
        return _row_values(self.index, self.nums)

    def move(self, step: Fraction, direction: list[int]) -> None:
        """x += step * direction, reduced to the least common denominator."""
        p, q = step.numerator * self.denom, step.denominator
        nums = [n * q + p * d for n, d in zip(self.nums, direction)]
        denom = self.denom * q
        g = gcd(denom, *nums)
        self.nums, self.denom = [n // g for n in nums], denom // g

    def matching(self, market: Market) -> FractionalMatching:
        return _from_cells(market, self.denom, zip(self.index.cells, self.nums))


def _tight(point: _Point, values: list[int]) -> list[int]:
    """The numbers of the rows  a . x <= b  with a . N == b * D, given
    ``values`` = a . N."""
    denom = point.denom
    return [i for i, (value, b) in enumerate(zip(values, point.index.bound))
            if value == b * denom]


def _step_length(point: _Point, values: list[int],
                 direction: list[int]) -> tuple[Fraction, list[int]]:
    """The ratio test: how far the point may move along direction and stay
    feasible, and the numbers of the rows that bind at that distance.

    Row a . x <= b allows the step (b D - a . N) / (D a . d) when a . d > 0;
    ``values`` holds every row's a . N, and a . d comes from one prefix-sum
    pass over the direction.  The ratios share D, so they are compared by
    cross-multiplying (b D - a . N) / (a . d) and only the smallest becomes
    a ``Fraction``.  The polytope is bounded, so some row always binds, and
    a direction taken from the null space of the tight rows leaves a
    positive step.
    """
    best_num, best_den, binding = 0, 0, []
    denom = point.denom
    slopes = _row_values(point.index, direction)
    for i, (ad, an, b) in enumerate(zip(slopes, values, point.index.bound)):
        if ad <= 0:
            continue
        num = b * denom - an
        if not binding or num * best_den < best_num * ad:
            best_num, best_den, binding = num, ad, [i]
        elif num * best_den == best_num * ad:
            binding.append(i)
    best = Fraction(best_num, best_den * denom) if binding else None
    if best is None or best <= 0:
        raise AssertionError(f"ratio test gave no positive step ({best})")
    return best, binding


_INTERIOR_STEPS = 4


def _drop_each(index: _PairIndex, dropping: list[int], kept: list[int],
               n: int) -> Iterator[tuple[dict[int, int], Rref]]:
    """The row of each number in ``dropping`` with the basis of all the
    other rows, lazily.

    ``kept`` is eliminated once and each row of ``dropping`` built once;
    each dropped row's basis is a copy of the kept basis plus the other rows
    of ``dropping``.  By ``Rref.copy`` it equals a fresh ``Rref`` of every
    row but the dropped one, in any order.
    """
    shared = Rref(n)
    for i in kept:
        shared.add(index.row(i))
    rows = [index.row(i) for i in dropping]
    for dropped in rows:
        basis = shared.copy()
        for row in rows:
            if row is not dropped:
                basis.add(row)
        yield dropped, basis


def _slack_directions(index: _PairIndex, tight: list[int], n: int,
                      rng: random.Random) -> Iterator[list[int]]:
    """Directions that give one of the first six tight rows slack and keep
    the other tight rows tight, lazily, in the walk's random order."""
    for dropped, basis in _drop_each(index, tight[:6], tight[6:], n):
        if basis.rank < n:
            pivots = basis.pivot_columns()
            free = [c for c in range(n) if c not in pivots]
            rng.shuffle(free)
            for col in free:
                direction = basis.null_vector(col)
                s = sum(a * direction[c] for c, a in dropped.items())
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

    for _ in range(_INTERIOR_STEPS):
        values = point.row_values()
        tight = _tight(point, values)
        rng.shuffle(tight)
        # a usable direction almost always shows up early
        direction = next(_slack_directions(point.index, tight, n, rng), None)
        if direction is None:
            break
        best, _ = _step_length(point, values, direction)
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
    tight, and each row is built and added to the basis once.  Intermediate
    points are appended to ``trace`` when given.
    """
    check_stable_feasibility(market, x).require()
    n = len(market.pairs())
    if n == 0:
        return x
    point = _Point(market, x)
    row = point.index.row

    basis = Rref(n)
    for i in _tight(point, point.row_values()):
        basis.add(row(i))
    while basis.rank < n:
        pivots = basis.pivot_columns()
        free = [c for c in range(n) if c not in pivots]
        direction = basis.null_vector(rng.choice(free))
        if rng.random() < 0.5:
            direction = [-v for v in direction]
        best, binding = _step_length(point, point.row_values(), direction)
        point.move(best, direction)
        for i in binding:
            basis.add(row(i))
        if trace is not None:
            trace.append(point.matching(market))
    return point.matching(market)

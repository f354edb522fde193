"""The strong stability condition and the ordered decomposition it induces.

A stable-feasible point is strongly stable when, for every acceptable pair,
either the firm has exhausted its quota on weakly better workers or the
worker has exhausted its unit of time on weakly better firms.  Such a point
is an exact convex combination of stable matchings that strictly decrease in
the eyes of all firms, read off the firms' cumulative masses in one sweep.
Both read the weak prefix sums that the point's one stable-feasibility
evaluation keeps, the sweep also its numerators on the pairs, with each
pair's quota from the market's pair index.  ``strong_stability_check`` is
the one evaluator of the condition: its report keeps every pair's integer
gaps and the verdict, and builds a pair's ``PairCondition`` only when it is
read, so ``decompose`` and ``peel`` refuse at the first failing pair
without building the others'.  The CLI's ``check`` builds no
``PairCondition`` for its records: it writes them off the integer gaps,
with one string per distinct gap value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, groupby
from operator import itemgetter, mul

from .model import (
    AlreadyIntegralError,
    ContestedWorkerError,
    Decomposition,
    FractionalMatching,
    Market,
    Matching,
    NotStronglyStableError,
    Rational,
    _ZERO,
    incidence_vector,
)
from .polytope import _pair_index_of, check_feasibility, check_stable_feasibility

__all__ = (
    "PairCondition",
    "StrongStabilityReport",
    "check_almost_integral",
    "decompose",
    "peel",
    "strong_stability_check",
    "support_matching",
)


@dataclass(frozen=True)
class PairCondition:
    """Both factors of the strong stability condition at one pair."""

    firm: str
    worker: str
    firm_factor: Rational    # quota minus the firm's weak prefix sum at the worker
    worker_factor: Rational  # one minus the worker's weak prefix sum at the firm
    product: Rational

    def _refusal(self) -> NotStronglyStableError:
        """The error refusing a point at this pair; it keeps the condition
        as ``_condition``, so a caller that catches it need not scan again."""
        refusal = NotStronglyStableError(
            f"strong stability fails at ({self.firm},{self.worker}) "
            f"with product {self.product}",
            pair=(self.firm, self.worker), product=self.product)
        refusal._condition = self
        return refusal


@dataclass(frozen=True)
class StrongStabilityReport:
    """The strong stability condition of one point, kept as integers.

    ``firm_gaps`` and ``worker_gaps`` hold each acceptable pair's gaps
    q D - F and D - W in the order of ``names``, where F and W are the
    pair's weak prefix sums at the point's denominator ``denom``; the pair's
    factors are gap / D.  ``overall`` is true exactly when no pair has both
    gaps nonzero.  No ``PairCondition`` is built until ``pairs`` or
    ``first_failure`` is read.
    """

    names: tuple[tuple[str, str], ...]
    firm_gaps: list[int]
    worker_gaps: list[int]
    denom: int
    overall: bool

    @property
    def pairs(self) -> tuple[PairCondition, ...]:
        """Every pair's condition.  A point has few distinct gap values, so
        one ``Fraction`` is built per value and shared by every pair with
        that gap, and a product only where both gaps are nonzero."""
        d = self.denom
        factor = {g: Fraction(g, d) if g else _ZERO
                  for g in {*self.firm_gaps, *self.worker_gaps}}
        return tuple(PairCondition(f, w, factor[a], factor[b],
                                   Fraction(a * b, d * d) if a and b else _ZERO)
                     for (f, w), a, b in zip(self.names, self.firm_gaps, self.worker_gaps))

    def first_failure(self) -> PairCondition | None:
        """The first pair whose product is nonzero, or None on a passing
        report: a scan in C finds the first pair whose gaps are both
        nonzero, and only that pair's condition is built."""
        if self.overall:
            return None
        k = next(compress(count(), map(mul, self.firm_gaps, self.worker_gaps)))
        a, b, d = self.firm_gaps[k], self.worker_gaps[k], self.denom
        return PairCondition(*self.names[k], Fraction(a, d), Fraction(b, d),
                             Fraction(a * b, d * d))


def strong_stability_check(market: Market,
                           x: FractionalMatching) -> StrongStabilityReport:
    """Evaluate the strong stability condition at every acceptable pair.

    Requires a stable-feasible point (InfeasibleError otherwise).  With F
    and W the integer weak prefix sums of the point's one stable-feasibility
    evaluation at its denominator D, the report keeps every pair's gaps
    q D - F and D - W and whether the condition holds, decided by one scan
    in C; it builds the pairs' conditions only when they are read.
    """
    sums, d = check_stable_feasibility(market, x).require()._sums, x._denom
    firm_gaps = [q * d - f for q, f in zip(_pair_index_of(market).quota, sums.firm)]
    worker_gaps = [d - w for w in sums.worker]
    return StrongStabilityReport(market.pairs(), firm_gaps, worker_gaps, d,
                                 not any(map(mul, firm_gaps, worker_gaps)))


def support_matching(market: Market, x: FractionalMatching) -> Matching:
    """Give each firm its most-preferred supported workers, up to quota.

    When two firms claim the same worker the result is not a matching; this
    happens only for points that are not strongly stable and is reported as a
    ContestedWorkerError naming the worker.  The point must be feasible
    (InfeasibleError otherwise); ``check_feasibility`` reads that off the
    point's kept stable-feasibility report.
    """
    check_feasibility(market, x).require()
    claimed: dict[str, str] = {}
    chosen: dict[str, list[str]] = {}
    for f, row in zip(market.firms, x._nums):
        supported = [w for w in market.acceptable_to_firm(f)
                     if row[market.worker_index(w)] > 0]
        take = supported[: market.quota[f]]
        for w in take:
            if w in claimed:
                raise ContestedWorkerError(w, (claimed[w], f))
            claimed[w] = f
        chosen[f] = take
    return Matching.build(market, chosen)


def peel(market: Market, x: FractionalMatching
         ) -> tuple[Rational, Matching, FractionalMatching]:
    """Split off the support-best stable matching with its maximal weight.

    Returns (alpha, mu, y) with  x = alpha * mu + (1 - alpha) * y,  where mu
    is the support-best matching, alpha is the smallest entry of x on mu's
    support, and y is again strongly stable with strictly smaller support.
    Requires a strongly stable, non-integral point.  Peeling until an
    integral point remains gives the same terms as ``decompose`` by an
    independent route, which is what the tests compare against.
    """
    failure = strong_stability_check(market, x).first_failure()
    if failure is not None:
        raise failure._refusal()
    mu = support_matching(market, x)
    inc = incidence_vector(market, mu)
    if inc == x:
        raise AlreadyIntegralError("point is already a stable matching")
    alpha = min(x.value(market, f, w)
                for f, ws in mu.assignment for w in ws)
    if not 0 < alpha < 1:
        raise AssertionError(f"peel weight {alpha} is not strictly between 0 and 1")
    scale = 1 / (1 - alpha)
    y = FractionalMatching.linear_combination(
        [(x, scale), (inc, -alpha * scale)])
    return alpha, mu, y


def decompose(market: Market, x: FractionalMatching) -> Decomposition:
    """The ordered convex decomposition of a strongly stable point.

    Checks the strong stability condition once, then reads the whole chain
    off one threshold sweep (Teo & Sethuraman 1998, "The geometry of
    fractional stable matchings").  Along each firm's list the cumulative
    masses c_1 <= c_2 <= ... cut the threshold range [0, 1) at their
    fractional parts.  On each interval [t, t') between cut points the firm
    employs worker k exactly when ceil(c_k - t) > ceil(c_{k-1} - t), and that
    matching gets weight t' - t.  Later intervals give matchings that are
    worse for every firm, so the terms come out in the firms' order; weights
    sum to one exactly, and the reconstruction is verified before returning.

    The sweep runs on the firms' integer prefix sums C = D c of the point's
    one evaluation, pair by pair in pair order: the cuts T are the values
    C mod D, and an interval [T, E) weighs (E - T) / D.  A pair k with entry
    e = C_k - C_{k-1} > 0 is employed on [T, E) exactly when some T + m D
    lies in [C_{k-1}, C_k), that is when (T - C_{k-1}) mod D < e; a pair
    with no entry never is.  Each term's rows are written in worker-index
    order; a row over its firm's quota, or a worker in two rows, raises
    ``ValueError``.
    """
    failure = strong_stability_check(market, x).first_failure()
    if failure is not None:
        raise failure._refusal()
    sums, d = check_stable_feasibility(market, x)._sums, x._denom
    after, entry = sums.firm, sums.entry
    # each supported pair with the firm's mass on better workers, and its entry
    support = [(pair, c - e, e) for pair, c, e in zip(market.pairs(), after, entry) if e]
    cuts = sorted({0} | {c % d for c in after})
    terms: list[tuple[Matching, Rational]] = []
    for t, end in zip(cuts, cuts[1:] + [d]):
        rows = dict.fromkeys(market.firms, ())
        employed = [pair for pair, before, e in support if (t - before) % d < e]
        for f, staff in groupby(employed, itemgetter(0)):
            rows[f] = tuple(map(itemgetter(1), staff))
            if len(rows[f]) > market.quota[f]:
                raise ValueError(f"firm {f} exceeds its quota")
        # the constructor raises ValueError for a worker in two rows
        terms.append((Matching(tuple(rows.items())), Fraction(end - t, d)))
    result = Decomposition(tuple(terms))
    if result.reconstruct(market) != x:
        raise AssertionError("decomposition does not reconstruct the point")
    return result


def check_almost_integral(market: Market, x: FractionalMatching) -> bool:
    """At most two firms per worker, at most one lottery position per firm.

    Every worker's column may have at most two positive entries.  Every
    firm's row must be 0/1 except for at most one pair of fractional entries
    that sum to an integer.  The pattern is necessary for strong stability
    but not sufficient.  An entry N / D is integral when D divides N.
    """
    d = x._denom
    if any(sum(n > 0 for n in column) > 2 for column in zip(*x._nums)):
        return False
    for row in x._nums:
        fractional = [n for n in row if n % d]
        if any(n not in (0, d) for n in row if not n % d):
            return False
        if fractional and (len(fractional) != 2 or sum(fractional) % d):
            return False
    return True

"""The strong stability condition and the ordered decomposition it induces.

A stable-feasible point is strongly stable when, for every acceptable pair,
either the firm has exhausted its quota on weakly better workers or the
worker has exhausted its unit of time on weakly better firms.  Such a point
is an exact convex combination of stable matchings that strictly decrease in
the eyes of all firms, read off the firms' cumulative masses in one sweep.
Both read the weak prefix sums that the point's one stable-feasibility
evaluation keeps, the sweep also its numerators on the pairs, with each
pair's quota from the market's pair index.  One helper turns them into
every pair's integer gaps: the full condition report reads every pair's,
while ``decompose`` and ``peel`` find the first failing pair with a scan in
C and refuse there, without building the other pairs' conditions.
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
    pairs: tuple[PairCondition, ...]
    overall: bool

    def first_failure(self) -> PairCondition | None:
        """The first pair whose product is nonzero, or None on a passing
        report."""
        return next((p for p in self.pairs if p.product != 0), None)


def _condition(f: str, w: str, firm_gap: int, worker_gap: int, d: int,
               factor: dict[int, Rational]) -> PairCondition:
    """The pair's condition with factors gap / d, read off ``factor``, which
    maps each gap to its factor; the product is zero whenever either factor
    is."""
    return PairCondition(
        f, w, factor[firm_gap], factor[worker_gap],
        Fraction(firm_gap * worker_gap, d * d) if firm_gap and worker_gap else _ZERO)


def _gaps(market: Market, x: FractionalMatching) -> tuple[list[int], list[int]]:
    """Each acceptable pair's integer gaps q D - F and D - W, as two lists in
    pair order, where F and W are the weak prefix sums of the point's one
    stable-feasibility evaluation at its denominator D.  Requires a
    stable-feasible point (InfeasibleError otherwise)."""
    sums, d = check_stable_feasibility(market, x).require()._sums, x._denom
    return ([q * d - f for q, f in zip(_pair_index_of(market).quota, sums.firm)],
            [d - w for w in sums.worker])


def strong_stability_check(market: Market,
                           x: FractionalMatching) -> StrongStabilityReport:
    """Evaluate the strong stability condition at every acceptable pair.

    Requires a stable-feasible point (InfeasibleError otherwise).  The report
    carries both factors and their product per pair; ``overall`` is true
    exactly when every product is zero.  With F and W the integer weak
    prefix sums at the point's denominator D, the factors are (q D - F) / D
    and (D - W) / D.  A point has few distinct gap values, so one
    ``Fraction`` is built per value and shared by every pair with that gap,
    and a product only where both gaps are nonzero.
    """
    firm_gaps, worker_gaps, d = *_gaps(market, x), x._denom
    factor = {g: Fraction(g, d) if g else _ZERO for g in {*firm_gaps, *worker_gaps}}
    conditions = tuple(_condition(f, w, a, b, d, factor) for (f, w), a, b
                       in zip(market.pairs(), firm_gaps, worker_gaps))
    return StrongStabilityReport(conditions, not any(map(mul, firm_gaps, worker_gaps)))


def _first_failure(market: Market, x: FractionalMatching) -> PairCondition | None:
    """``strong_stability_check(market, x).first_failure()``, or None when
    the condition holds: a scan in C finds the first pair whose gaps are
    both nonzero, and only that pair's condition is built.  Requires a
    stable-feasible point (InfeasibleError otherwise)."""
    firm_gaps, worker_gaps = _gaps(market, x)
    for k in compress(count(), map(mul, firm_gaps, worker_gaps)):
        a, b, d = firm_gaps[k], worker_gaps[k], x._denom
        return _condition(*market.pairs()[k], a, b, d,
                          {a: Fraction(a, d), b: Fraction(b, d)})
    return None


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
    failure = _first_failure(market, x)
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
    failure = _first_failure(market, x)
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

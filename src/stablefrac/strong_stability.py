"""The strong stability condition and the ordered decomposition it induces.

A stable-feasible point is strongly stable when, for every acceptable pair,
either the firm has exhausted its quota on weakly better workers or the
worker has exhausted its unit of time on weakly better firms.  Such a point
is an exact convex combination of stable matchings that strictly decrease in
the eyes of all firms, read off the firms' cumulative masses in one sweep.
Both read the weak prefix sums of the point's one stable-feasibility
evaluation.  One scan turns them into each pair's integer gaps: the full
condition report reads every pair's, while ``decompose`` and ``peel`` stop
at the first failing pair and refuse there, without building the other
pairs' conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

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
from .polytope import check_feasibility, check_stable_feasibility


@dataclass(frozen=True)
class PairCondition:
    """Both factors of the strong stability condition at one pair."""

    firm: str
    worker: str
    firm_factor: Rational    # quota minus the firm's weak prefix sum at the worker
    worker_factor: Rational  # one minus the worker's weak prefix sum at the firm
    product: Rational

    def _refusal(self) -> NotStronglyStableError:
        return NotStronglyStableError(
            f"strong stability fails at ({self.firm},{self.worker}) "
            f"with product {self.product}",
            pair=(self.firm, self.worker), product=self.product)


@dataclass(frozen=True)
class StrongStabilityReport:
    pairs: tuple[PairCondition, ...]
    overall: bool

    def failures(self) -> tuple[PairCondition, ...]:
        return tuple(p for p in self.pairs if p.product != 0)

    def first_failure(self) -> PairCondition:
        return self.failures()[0]


def _gaps(market: Market, x: FractionalMatching) -> Iterator[tuple[str, str, int, int]]:
    """Each acceptable pair (f, w) with its integer gaps (q D - F, D - W),
    lazily, where F and W are the weak prefix sums of the point's one
    stable-feasibility evaluation at its denominator D.  Requires a
    stable-feasible point (InfeasibleError otherwise)."""
    sums = check_stable_feasibility(market, x).require()._sums
    d = x._denom
    for (f, w), firm_sum, worker_sum in zip(market.pairs(), sums.firm, sums.worker):
        yield f, w, market.quota[f] * d - firm_sum, d - worker_sum


def _condition(f: str, w: str, firm_gap: int, worker_gap: int, d: int) -> PairCondition:
    """The pair's condition with factors gap / d; the product is zero
    whenever either factor is."""
    return PairCondition(
        f, w, Fraction(firm_gap, d) if firm_gap else _ZERO,
        Fraction(worker_gap, d) if worker_gap else _ZERO,
        Fraction(firm_gap * worker_gap, d * d) if firm_gap and worker_gap else _ZERO)


def strong_stability_check(market: Market,
                           x: FractionalMatching) -> StrongStabilityReport:
    """Evaluate the strong stability condition at every acceptable pair.

    Requires a stable-feasible point (InfeasibleError otherwise).  The report
    carries both factors and their product per pair; ``overall`` is true
    exactly when every product is zero.  With F and W the integer weak
    prefix sums at the point's denominator D, the factors are (q D - F) / D
    and (D - W) / D.
    """
    d = x._denom
    conditions = tuple(_condition(*gaps, d) for gaps in _gaps(market, x))
    return StrongStabilityReport(conditions, not any(p.product for p in conditions))


def _first_failure(market: Market, x: FractionalMatching) -> PairCondition | None:
    """``strong_stability_check(market, x).first_failure()``, or None when
    the condition holds, without building the other pairs' conditions."""
    for f, w, firm_gap, worker_gap in _gaps(market, x):
        if firm_gap and worker_gap:
            return _condition(f, w, firm_gap, worker_gap, x._denom)
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
    one evaluation: the cuts T are the values C mod D, ceil(c - T / D) is
    the floor division -((T - C) // D), and an interval [T, E) weighs
    (E - T) / D.
    """
    failure = _first_failure(market, x)
    if failure is not None:
        raise failure._refusal()
    sums = check_stable_feasibility(market, x)._sums
    d, pos = x._denom, market.pair_position
    prefix = {f: [(w, sums.firm[pos(f, w)]) for w in market.acceptable_to_firm(f)]
              for f in market.firms}
    cuts = sorted({0} | {c % d for firm_sums in prefix.values()
                         for _, c in firm_sums})
    terms: list[tuple[Matching, Rational]] = []
    for t, end in zip(cuts, cuts[1:] + [d]):
        chosen: dict[str, list[str]] = {}
        for f, firm_sums in prefix.items():
            chosen[f] = []
            before = 0      # ceil((C_0 - T) / D) with C_0 = 0 and 0 <= T < D
            for w, c in firm_sums:
                now = -((t - c) // d)
                if now > before:
                    chosen[f].append(w)
                before = now
        terms.append((Matching.build(market, chosen), Fraction(end - t, d)))
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

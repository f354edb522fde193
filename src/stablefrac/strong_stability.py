"""The strong stability condition and the ordered decomposition it induces.

A stable-feasible point is strongly stable when, for every acceptable pair,
either the firm has exhausted its quota on weakly better workers or the
worker has exhausted its unit of time on weakly better firms.  Such a point
is an exact convex combination of stable matchings that strictly decrease in
the eyes of all firms, read off the firms' cumulative masses in one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import ceil

from .model import (
    AlreadyIntegralError,
    ContestedWorkerError,
    Decomposition,
    FractionalMatching,
    Market,
    Matching,
    NotStronglyStableError,
    Rational,
    incidence_vector,
)
from .polytope import (
    check_feasibility,
    check_stable_feasibility,
    firm_weak_prefix,
    worker_weak_prefix,
)


@dataclass(frozen=True)
class PairCondition:
    """Both factors of the strong stability condition at one pair."""

    firm: str
    worker: str
    firm_factor: Rational    # quota minus the firm's weak prefix sum at the worker
    worker_factor: Rational  # one minus the worker's weak prefix sum at the firm
    product: Rational


@dataclass(frozen=True)
class StrongStabilityReport:
    pairs: tuple[PairCondition, ...]
    overall: bool

    def failures(self) -> tuple[PairCondition, ...]:
        return tuple(p for p in self.pairs if p.product != 0)

    def first_failure(self) -> PairCondition:
        return self.failures()[0]

    def require(self) -> None:
        """Raise NotStronglyStableError at the first failing pair, if any."""
        if not self.overall:
            fail = self.first_failure()
            raise NotStronglyStableError(
                f"strong stability fails at ({fail.firm},{fail.worker}) "
                f"with product {fail.product}",
                pair=(fail.firm, fail.worker), product=fail.product)


def strong_stability_check(market: Market,
                           x: FractionalMatching) -> StrongStabilityReport:
    """Evaluate the strong stability condition at every acceptable pair.

    Requires a stable-feasible point (InfeasibleError otherwise).  The report
    carries both factors and their product per pair; ``overall`` is true
    exactly when every product is zero.
    """
    check_stable_feasibility(market, x).require()
    return _pair_conditions(market, x)


def _pair_conditions(market: Market,
                     x: FractionalMatching) -> StrongStabilityReport:
    """The report of ``strong_stability_check``, for a stable-feasible x."""
    fpre = {f: firm_weak_prefix(market, x, f) for f in market.firms}
    wpre = {w: worker_weak_prefix(market, x, w) for w in market.workers}
    conditions = []
    for f, w in market.pairs():
        firm_factor = Fraction(market.quota[f]) - fpre[f][w]
        worker_factor = Fraction(1) - wpre[w][f]
        conditions.append(PairCondition(
            f, w, firm_factor, worker_factor, firm_factor * worker_factor))
    overall = all(c.product == 0 for c in conditions)
    return StrongStabilityReport(tuple(conditions), overall)


def support_matching(market: Market, x: FractionalMatching) -> Matching:
    """Give each firm its most-preferred supported workers, up to quota.

    When two firms claim the same worker the result is not a matching; this
    happens only for points that are not strongly stable and is reported as a
    ContestedWorkerError naming the worker.
    """
    check_feasibility(market, x).require()
    claimed: dict[str, str] = {}
    chosen: dict[str, list[str]] = {}
    for f in market.firms:
        i = market.firm_index(f)
        supported = [w for w in market.acceptable_to_firm(f)
                     if x.entries[i][market.worker_index(w)] > 0]
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
    strong_stability_check(market, x).require()
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
    """
    strong_stability_check(market, x).require()
    return _threshold_sweep(market, x)


def _threshold_sweep(market: Market, x: FractionalMatching) -> Decomposition:
    """The sweep of ``decompose``, for a point known to be strongly stable."""
    prefix = {f: firm_weak_prefix(market, x, f) for f in market.firms}
    cuts = sorted({Fraction(0)} | {c % 1 for sums in prefix.values()
                                   for c in sums.values()})
    terms: list[tuple[Matching, Rational]] = []
    for t, end in zip(cuts, cuts[1:] + [Fraction(1)]):
        chosen: dict[str, list[str]] = {}
        for f, sums in prefix.items():
            chosen[f] = []
            before = 0      # ceil(c_0 - t) with c_0 = 0 and 0 <= t < 1
            for w, c in sums.items():
                now = ceil(c - t)
                if now > before:
                    chosen[f].append(w)
                before = now
        terms.append((Matching.build(market, chosen), end - t))
    result = Decomposition(tuple(terms))
    if result.reconstruct(market) != x:
        raise AssertionError("decomposition does not reconstruct the point")
    return result


class DominanceResult(Enum):
    STRONGLY_DOMINATES = "strongly-dominates"
    WEAKLY_DOMINATES = "weakly-dominates"
    DOMINATED = "dominated"
    INCOMPARABLE = "incomparable"


def dominance_compare(market: Market, x: FractionalMatching,
                      y: FractionalMatching, agent: str) -> DominanceResult:
    """Compare two points by one agent's cumulative preference mass.

    At every rank of the agent's list the prefix sums are compared; x weakly
    dominates y when its prefix is never smaller, strongly when additionally
    some prefix is larger.  Equal points weakly dominate each other.
    """
    if agent in market._findex:
        px = firm_weak_prefix(market, x, agent)
        py = firm_weak_prefix(market, y, agent)
        order = market.acceptable_to_firm(agent)
    elif agent in market._windex:
        px = worker_weak_prefix(market, x, agent)
        py = worker_weak_prefix(market, y, agent)
        order = market.acceptable_to_worker(agent)
    else:
        raise ValueError(f"unknown agent {agent!r}")
    more = any(px[a] > py[a] for a in order)
    less = any(px[a] < py[a] for a in order)
    if more and less:
        return DominanceResult.INCOMPARABLE
    if more:
        return DominanceResult.STRONGLY_DOMINATES
    if less:
        return DominanceResult.DOMINATED
    return DominanceResult.WEAKLY_DOMINATES


def matching_firm_order(market: Market, a: Matching, b: Matching) -> DominanceResult:
    """Aggregate dominance of two matchings in the eyes of all firms."""
    xa = incidence_vector(market, a)
    xb = incidence_vector(market, b)
    results = {dominance_compare(market, xa, xb, f) for f in market.firms}
    if DominanceResult.INCOMPARABLE in results:
        return DominanceResult.INCOMPARABLE
    strong = DominanceResult.STRONGLY_DOMINATES in results
    worse = DominanceResult.DOMINATED in results
    if strong and worse:
        return DominanceResult.INCOMPARABLE
    if strong:
        return DominanceResult.STRONGLY_DOMINATES
    if worse:
        return DominanceResult.DOMINATED
    return DominanceResult.WEAKLY_DOMINATES


def firm_weakly_prefers(market: Market, a: Matching, b: Matching) -> bool:
    return matching_firm_order(market, a, b) in (
        DominanceResult.STRONGLY_DOMINATES, DominanceResult.WEAKLY_DOMINATES)


def firm_strictly_prefers(market: Market, a: Matching, b: Matching) -> bool:
    return matching_firm_order(market, a, b) is DominanceResult.STRONGLY_DOMINATES


def check_almost_integral(market: Market, x: FractionalMatching) -> bool:
    """At most two firms per worker, at most one lottery position per firm.

    Every worker's column may have at most two positive entries.  Every
    firm's row must be 0/1 except for at most one pair of fractional entries
    that sum to an integer.  The pattern is necessary for strong stability
    but not sufficient.
    """
    for j in range(market.n_workers):
        positives = sum(1 for row in x.entries if row[j] > 0)
        if positives > 2:
            return False
    for row in x.entries:
        fractional = [v for v in row if v.denominator != 1]
        if any(v not in (0, 1) for v in row if v.denominator == 1):
            return False
        if fractional and (len(fractional) != 2
                           or sum(fractional).denominator != 1):
            return False
    return True

"""Classical stable-matching algorithms and the brute-force oracle.

The brute-force enumerator is the ground truth every structural result in
this library is validated against; it is only meant for desk-scale markets.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .model import CapExceededError, Market, Matching

DEFAULT_ENUMERATION_CAP = 10_000_000

BLOCK_VACANCY = "firm-has-vacancy"
BLOCK_SWAP = "firm-prefers-swap"


class Side(Enum):
    FIRMS = "firms"
    WORKERS = "workers"


@dataclass(frozen=True)
class BlockingPair:
    firm: str
    worker: str
    reason: str  # BLOCK_VACANCY or BLOCK_SWAP


def deferred_acceptance(market: Market, side: Side) -> Matching:
    """Deferred acceptance with quotas.

    ``Side.FIRMS`` returns the firm-optimal stable matching, ``Side.WORKERS``
    the worker-optimal one.  With strict preferences the outcome does not
    depend on the proposal order; declaration order is used.
    """
    if side is Side.FIRMS:
        return _da_firms(market)
    if side is Side.WORKERS:
        return _da_workers(market)
    raise ValueError(f"unknown side: {side!r}")


def _da_firms(market: Market) -> Matching:
    held: dict[str, str] = {}                     # worker -> firm holding the offer
    count = {f: 0 for f in market.firms}
    nxt = {f: 0 for f in market.firms}
    queue = deque(market.firms)
    while queue:
        f = queue.popleft()
        acc = market.acceptable_to_firm(f)
        while count[f] < market.quota[f] and nxt[f] < len(acc):
            w = acc[nxt[f]]
            nxt[f] += 1
            g = held.get(w)
            if g is None:
                held[w] = f
                count[f] += 1
            elif market.worker_rank(w, f) < market.worker_rank(w, g):
                held[w] = f
                count[f] += 1
                count[g] -= 1
                queue.append(g)
    mapping: dict[str, list[str]] = {f: [] for f in market.firms}
    for w, f in held.items():
        mapping[f].append(w)
    return Matching.build(market, mapping)


def _da_workers(market: Market) -> Matching:
    held: dict[str, list[str]] = {f: [] for f in market.firms}
    nxt = {w: 0 for w in market.workers}
    queue = deque(market.workers)
    while queue:
        w = queue.popleft()
        acc = market.acceptable_to_worker(w)
        while nxt[w] < len(acc):
            f = acc[nxt[w]]
            nxt[w] += 1
            lst = held[f]
            if len(lst) < market.quota[f]:
                lst.append(w)
                break
            worst = max(lst, key=lambda v: market.firm_rank(f, v))
            if market.firm_rank(f, w) < market.firm_rank(f, worst):
                lst.remove(worst)
                lst.append(w)
                queue.append(worst)
                break
    return Matching.build(market, held)


def is_individually_rational(market: Market, mu: Matching) -> bool:
    """Every matched pair is mutually acceptable and no quota is exceeded."""
    for f, ws in mu.assignment:
        if len(ws) > market.quota[f]:
            return False
        for w in ws:
            if not market.acceptable(f, w):
                return False
    return True


def blocking_pairs(market: Market, mu: Matching) -> tuple[BlockingPair, ...]:
    """All pairs that would rather be matched with each other.

    A pair (f, w) not matched together blocks when w prefers f to its current
    employer (or is unmatched) and f either has a vacancy or employs somebody
    it likes less than w.
    """
    out = []
    wrank = market._wrank
    worst: dict[str, int | None] = {}   # worst staff rank; None: a vacancy
    for f, w in market.pairs():
        employer = mu.employer(w)
        if employer == f:
            continue
        if employer is not None and wrank[w][f] >= wrank[w][employer]:
            continue
        if f not in worst:
            staff = mu.matched(f)
            worst[f] = None if len(staff) < market.quota[f] else \
                max(market.firm_rank(f, v) for v in staff)
        if worst[f] is None:
            out.append(BlockingPair(f, w, BLOCK_VACANCY))
        elif market.firm_rank(f, w) < worst[f]:
            out.append(BlockingPair(f, w, BLOCK_SWAP))
    return tuple(out)


def is_stable(market: Market, mu: Matching) -> bool:
    return is_individually_rational(market, mu) and not blocking_pairs(market, mu)


def enumerate_stable_bruteforce(
        market: Market, cap: int = DEFAULT_ENUMERATION_CAP) -> set[Matching]:
    """Exhaustively enumerate all stable matchings.

    Iterates every worker -> (acceptable firm | unmatched) map, filters quota
    feasibility and then stability.  Raises CapExceededError when the number
    of candidate maps exceeds ``cap``.
    """
    choices: list[tuple[str | None, ...]] = []
    total = 1
    for w in market.workers:
        opts = (None,) + market.acceptable_to_worker(w)
        choices.append(opts)
        total *= len(opts)
        if total > cap:
            raise CapExceededError(
                f"{total}+ candidate matchings exceed the cap of {cap}")

    quota = market.quota
    frank = {f: market._frank[f] for f in market.firms}
    wrank = {w: market._wrank[w] for w in market.workers}
    pairs = market.pairs()
    workers = market.workers

    stable: set[Matching] = set()
    for combo in itertools.product(*choices):
        staff: dict[str, list[str]] = {}
        feasible = True
        for w, f in zip(workers, combo):
            if f is None:
                continue
            lst = staff.setdefault(f, [])
            lst.append(w)
            if len(lst) > quota[f]:
                feasible = False
                break
        if not feasible:
            continue
        employer = {w: f for w, f in zip(workers, combo) if f is not None}
        worst = {f: max(frank[f][w] for w in ws) for f, ws in staff.items()}
        blocked = False
        for f, w in pairs:
            g = employer.get(w)
            if g == f:
                continue
            if g is not None and wrank[w][f] >= wrank[w][g]:
                continue
            ws = staff.get(f, ())
            if len(ws) < quota[f] or frank[f][w] < worst[f]:
                blocked = True
                break
        if not blocked:
            stable.add(Matching.build(market, staff))
    return stable


def check_rural_hospital(market: Market, matchings: Iterable[Matching]) -> bool:
    """The rural hospital property over a set of stable matchings.

    The set of matched workers must coincide across the set, and any firm that
    is below quota in one matching must have the identical worker set in all.
    """
    ms = list(matchings)
    if len(ms) <= 1:
        return True
    matched = {mu.matched_workers() for mu in ms}
    if len(matched) != 1:
        return False
    for f in market.firms:
        staffs = [mu.matched(f) for mu in ms]
        if any(len(s) < market.quota[f] for s in staffs) and len(set(staffs)) != 1:
            return False
    return True

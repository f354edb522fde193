"""Classical stable-matching algorithms and the brute-force oracle.

Every blocking test of the library runs through one scan, ``_blocks``:
``blocking_pairs`` lists what it finds over all firms, ``is_stable`` stops
at the first pair, and the rotation search asks about a cycle's firms only.

The brute-force enumerator is the ground truth every structural result in
this library is validated against; it is only meant for desk-scale markets.
It searches the worker -> (firm | unmatched) maps depth first and cuts a
subtree only when every map in it overfills a firm or holds a swap block
between workers already placed (staff only grows down a branch, so such a
block never goes away); every complete map gets the full stability check,
its own leaf check rather than ``_blocks``, so that the oracle shares no
code with what it validates.  It uses neither deferred acceptance nor
rotations.
"""

from __future__ import annotations

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
    """Deferred acceptance with quotas, ``side`` proposing through ``_propose``.

    ``Side.FIRMS`` returns the firm-optimal stable matching, ``Side.WORKERS``
    the worker-optimal one.  With strict preferences the outcome does not
    depend on the proposal order; declaration order is used.
    """
    one = dict.fromkeys(market.workers, 1)
    if side is Side.FIRMS:
        staff, _ = _propose(market._firm_acc, market.quota, one, market._wrank)
    elif side is Side.WORKERS:
        _, staff = _propose(market._worker_acc, one, market.quota, market._frank)
    else:
        raise ValueError(f"unknown side: {side!r}")
    return Matching.build(market, staff)


def _propose(lists: dict[str, tuple[str, ...]], room: dict[str, int],
             capacity: dict[str, int], rank: dict[str, dict[str, int]]
             ) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """The offers held once every proposer p has worked down ``lists[p]``
    until it holds ``room[p]`` of them or its list ends, as proposer ->
    receivers and receiver -> proposers.  A receiver r full at
    ``capacity[r]`` trades its worst offer by ``rank[r]`` for a better one,
    and that offer's proposer goes back into the queue."""
    taken: dict[str, list[str]] = {p: [] for p in lists}
    held: dict[str, list[str]] = {r: [] for r in capacity}
    nxt = dict.fromkeys(lists, 0)
    queue = deque(lists)
    while queue:
        p = queue.popleft()
        acc, mine = lists[p], taken[p]
        while len(mine) < room[p] and nxt[p] < len(acc):
            r = acc[nxt[p]]
            nxt[p] += 1
            offers, rk = held[r], rank[r]
            if len(offers) == capacity[r]:
                worst = max(offers, key=rk.__getitem__)
                if rk[p] > rk[worst]:
                    continue
                offers.remove(worst)
                taken[worst].remove(r)
                queue.append(worst)
            offers.append(p)
            mine.append(r)
    return taken, held


def is_individually_rational(market: Market, mu: Matching) -> bool:
    """Every matched pair is mutually acceptable and no quota is exceeded."""
    for f, ws in mu.assignment:
        if len(ws) > market.quota[f]:
            return False
        for w in ws:
            if not market.acceptable(f, w):
                return False
    return True


def _blocks(market: Market, mu: Matching, firms: Iterable[str]):
    """The pairs (f, w) blocking ``mu`` with f in ``firms``, f by f: a firm
    with a vacancy scans every acceptable worker, a full one the workers it
    ranks above its worst staff member, and (f, w) blocks when w is
    unmatched or prefers f to its employer."""
    wrank = market._wrank
    employer = mu.employer
    for f in firms:
        staff = mu.matched(f)
        rank = market._frank[f]
        # every listed worker ranks below len(rank): a vacancy scans them all,
        # and so does a full firm with a staff member it does not list
        reason, cut = BLOCK_VACANCY, len(rank)
        if len(staff) >= market.quota[f]:
            reason = BLOCK_SWAP
            try:
                cut = max(map(rank.__getitem__, staff))
            except KeyError:
                pass
        for w in market.acceptable_to_firm(f):
            if rank[w] >= cut:
                break
            mine = wrank[w]     # no employer, or one w does not list, ranks last
            if mine[f] < mine.get(employer(w), len(mine)):
                yield BlockingPair(f, w, reason)


def blocking_pairs(market: Market, mu: Matching) -> tuple[BlockingPair, ...]:
    """All pairs that would rather be matched with each other, in
    ``market.pairs()`` order.

    A pair (f, w) not matched together blocks when w prefers f to its current
    employer (or is unmatched) and f either has a vacancy or employs somebody
    it likes less than w.  A partner that an agent does not list ranks below
    every one it lists.
    """
    return tuple(sorted(_blocks(market, mu, market.firms),
                        key=lambda b: market.pair_position(b.firm, b.worker)))


def is_stable(market: Market, mu: Matching) -> bool:
    """Individually rational, and no pair blocks: the scan stops at the first."""
    return is_individually_rational(market, mu) and \
        next(_blocks(market, mu, market.firms), None) is None


def enumerate_stable_bruteforce(
        market: Market, cap: int = DEFAULT_ENUMERATION_CAP) -> set[Matching]:
    """Exhaustively enumerate all stable matchings: the ground truth.

    Searches the worker -> (acceptable firm | unmatched) maps depth first,
    placing the workers in declaration order on an explicit stack, and runs
    the full vacancy and swap check on every complete map.  Raises
    CapExceededError when the number of candidate maps, counted before the
    search, exceeds ``cap``.

    A subtree is cut only when the full check would reject each of its
    leaves, so the set equals that of scanning every map:

    - *Quota.*  A worker is never placed at a firm that is already full; a
      map that overfills a firm is not a matching.
    - *Settled swap block.*  Worker w skips choice g when a firm f that w
      prefers to g (any acceptable firm if g is "unmatched") already employs
      someone it ranks below w, or when an earlier worker u prefers g to its
      own choice and g ranks u above w.  Then (f, w), or (g, u), blocks by a
      swap.  Staff only grows along a branch and placed choices stay, so the
      block holds at every leaf below.

    Neither rule uses deferred acceptance or rotations, so the oracle stays
    independent of the structure it validates.
    """
    total = 1
    for w in market.workers:
        if total > cap:
            break
        total *= 1 + len(market.acceptable_to_worker(w))
    if total > cap:
        raise CapExceededError(
            f"{total}+ candidate matchings exceed the cap of {cap}")

    quota = market.quota
    frank = market._frank
    wrank = market._wrank
    pairs = market.pairs()
    workers = market.workers
    index = {w: k for k, w in enumerate(workers)}
    unmatched_rank = len(market.firms)      # ranks below every listed firm

    # choices[k]: (firm, its rank of w, w's rank of it, rivals) per acceptable
    # firm of w = workers[k], best first, then "unmatched".  The rivals of
    # (g, w) are the earlier workers u that g ranks above w, with u's rank of g.
    choices = []
    for k, w in enumerate(workers):
        opts = []
        for g in market.acceptable_to_worker(w):
            rivals = []
            for u in market.acceptable_to_firm(g):
                if u == w:
                    break
                if index[u] < k:
                    rivals.append((index[u], wrank[u][g]))
            opts.append((g, frank[g][w], wrank[w][g], tuple(rivals)))
        opts.append((None, 0, unmatched_rank, ()))
        choices.append(opts)

    staff: dict[str, list[str]] = {f: [] for f in market.firms}
    worst: dict[str, list[int]] = {f: [] for f in market.firms}  # running max rank
    ranked = [unmatched_rank] * len(workers)  # each placed worker's rank of its choice

    def allowed(k: int) -> list[tuple]:
        out = []
        for opt in choices[k]:
            g, r, _, rivals = opt
            if g is None:
                out.append(opt)
                break
            if len(worst[g]) < quota[g] and \
                    all(ranked[j] <= s for j, s in rivals):
                out.append(opt)
            if worst[g] and worst[g][-1] > r:
                break       # g employs someone below w: no worse choice survives
        return out

    stable: set[Matching] = set()
    placed: list[str | None] = []
    pending: list = []      # per depth: iterator over the allowed choices left
    while True:
        if len(placed) == len(workers):
            employer = {w: f for w, f in zip(workers, placed) if f is not None}
            for f, w in pairs:
                g = employer.get(w)
                if g == f:
                    continue
                if g is not None and wrank[w][f] >= wrank[w][g]:
                    continue
                if len(staff[f]) < quota[f] or frank[f][w] < worst[f][-1]:
                    break
            else:
                stable.add(Matching.build(market, staff))
        else:
            pending.append(iter(allowed(len(placed))))
        while pending:
            if len(placed) == len(pending):
                f = placed.pop()
                if f is not None:
                    staff[f].pop()
                    worst[f].pop()
            opt = next(pending[-1], None)
            if opt is None:
                pending.pop()
                continue
            k = len(placed)
            g, r, ranked[k], _ = opt
            if g is not None:
                staff[g].append(workers[k])
                worst[g].append(max(worst[g][-1], r) if worst[g] else r)
            placed.append(g)
            break
        else:
            return stable

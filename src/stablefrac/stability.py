"""Classical stable-matching algorithms and the brute-force oracle.

Every blocking test of the library runs through one scan, ``_blocks``:
``blocking_pairs`` lists what it finds over all firms, ``is_stable`` stops
at the first pair, and the rotation search asks about a cycle's firms only.

The brute-force enumerator is the ground truth every structural result in
this library is validated against; it is only meant for desk-scale markets.
It searches the worker -> (firm | unmatched) maps depth first and cuts a
subtree only when every map in it overfills a firm, holds a swap block
between workers already placed (staff only grows down a branch, so such a
block never goes away), or holds a vacancy block at a firm that the
workers still to be placed cannot fill.  Its cap counts the nodes the
search visits, so it bounds the work done, not a guess at it.  Every
complete map gets the full stability check, its own leaf check rather
than ``_blocks``, so that the oracle shares no code with what it
validates.  It uses neither deferred acceptance nor rotations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import gt, le
from typing import Iterable

from .model import CapExceededError, Market, Matching

__all__ = (
    "BLOCK_SWAP",
    "BLOCK_VACANCY",
    "BlockingPair",
    "Side",
    "blocking_pairs",
    "deferred_acceptance",
    "enumerate_stable_bruteforce",
    "is_individually_rational",
    "is_stable",
)

# each cap counts what was built: the oracle's search nodes, the matchings
# the rotation search lists, the members of a connected set
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
    depend on the proposal order; declaration order is used.  Each side's
    matching is computed once per market and kept on it, so repeated calls
    return the same object.
    """
    if not isinstance(side, Side):
        raise ValueError(f"unknown side: {side!r}")
    kept = vars(market).setdefault("_deferred_acceptance", {})
    if side not in kept:
        one = dict.fromkeys(market.workers, 1)
        if side is Side.FIRMS:
            staff, _ = _propose(market._firm_acc, market.quota, one, market._wrank)
        else:
            _, staff = _propose(market._worker_acc, one, market.quota, market._frank)
        kept[side] = Matching.build(market, staff)
    return kept[side]


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
    return tuple(sorted(_blocks(market, mu, market.firms), key=lambda b: (
        market.firm_index(b.firm), market.worker_index(b.worker))))


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
    CapExceededError as soon as the search has visited more than ``cap``
    nodes (see ``_search``).

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
    - *Settled vacancy.*  A firm's staff grows only by later workers that
      list it and that it lists.  Let g be a firm on w's list whose staff
      plus such workers after w fall short of its quota: g has a vacancy
      at every leaf below at which w does not join it.  So w skips every
      choice it ranks below g, "unmatched" included, as (g, w) blocks there
      by the vacancy; and when an earlier worker u that g lists prefers g
      to its own choice, w skips every choice but g, as (g, u) blocks there.
      Only a firm whose later listers alone fall short of its quota can be
      short, so each depth looks at a list of firms fixed before the search.

    None of the rules uses deferred acceptance or rotations, so the oracle
    stays independent of the structure it validates.
    """
    return _search(market, cap)[0]


def _search(market: Market, cap: int = DEFAULT_ENUMERATION_CAP
            ) -> tuple[set[Matching], int]:
    """The stable set by ``enumerate_stable_bruteforce``'s pruned search,
    and the number of nodes it visited: the partial maps it extended, the
    empty one included.  Each complete map it reaches is a leaf, not a node.
    Raises CapExceededError at the first node past ``cap``.

    The leaf check never rejects a complete map that the cuts let through;
    it stays as the definition the cuts are argued against.  A swap block
    (f, w) is cut where the later of w and f's worst staff member is
    placed.  For a vacancy block (g, u), take the first of u and the
    workers after u that list g and that g lists at which g stays short
    unless that worker joins it.  At u, this caps u's choice at g.  At a
    later worker, u forces it, and every such worker after it, to join g,
    which fills g.  If there is no such worker, g is full at the leaf.
    """
    quota = market.quota
    frank = market._frank
    wrank = market._wrank
    pairs = market.pairs()
    workers = market.workers
    index = {w: k for k, w in enumerate(workers)}
    unmatched_rank = len(market.firms)      # ranks below every listed firm

    def ranks_of(g: str, us: list[str]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple([index[u] for u in us]), tuple([wrank[u][g] for u in us])

    # choices[k]: per acceptable firm g of w = workers[k], best first, then
    # "unmatched": (g, g's rank of w, w's rank of g, rivals, their ranks of
    # g), the rivals being the earlier workers that g ranks above w, as
    # indices.  tight[k]: per acceptable firm g of w whose quota the
    # ``later`` workers after w that list it cannot fill: (w's rank of g,
    # later, g, listers, their ranks of g), the listers being the earlier
    # workers that list g.
    later = {f: len(market.acceptable_to_firm(f)) for f in market.firms}
    choices, tight = [], []
    for k, w in enumerate(workers):
        opts, short = [], []
        for g in market.acceptable_to_worker(w):
            later[g] -= 1
            listers = [u for u in market.acceptable_to_firm(g) if index[u] < k]
            rivals = [u for u in listers if frank[g][u] < frank[g][w]]
            opts.append((g, frank[g][w], wrank[w][g], *ranks_of(g, rivals)))
            if later[g] < quota[g]:
                short.append((wrank[w][g], later[g], g, *ranks_of(g, listers)))
        opts.append((None, 0, unmatched_rank, (), ()))
        choices.append(opts)
        tight.append(short)

    staff: dict[str, list[str]] = {f: [] for f in market.firms}
    worst: dict[str, list[int]] = {f: [] for f in market.firms}  # running max rank
    ranked = [unmatched_rank] * len(workers)  # each placed worker's rank of its choice

    def allowed(k: int) -> list[tuple]:
        # w must take a choice it ranks in [lo, hi]: a firm g that stays
        # short unless w joins caps hi at g, and forces lo up to g as well
        # when an earlier worker prefers g to its own choice
        lo, hi = 0, unmatched_rank
        for mine, left, g, js, ss in tight[k]:
            if len(worst[g]) + left < quota[g]:
                hi = min(hi, mine)
                if any(map(gt, map(ranked.__getitem__, js), ss)):
                    lo = max(lo, mine)
        out = []
        for opt in choices[k]:
            g, r, mine, js, ss = opt
            if mine > hi:
                break
            if g is None:
                out.append(opt)
                break
            if mine >= lo and len(worst[g]) < quota[g] and \
                    all(map(le, map(ranked.__getitem__, js), ss)):
                out.append(opt)
            if worst[g] and worst[g][-1] > r:
                break       # g employs someone below w: no worse choice survives
        return out

    stable: set[Matching] = set()
    nodes = 0
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
            nodes += 1
            if nodes > cap:
                raise CapExceededError(f"{nodes}+ search nodes exceed the cap of {cap}")
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
            g, r, ranked[k], _, _ = opt
            if g is not None:
                staff[g].append(workers[k])
                worst[g].append(max(worst[g][-1], r) if worst[g] else r)
            placed.append(g)
            break
        else:
            return stable, nodes

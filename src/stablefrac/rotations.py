"""Preference-list reduction, rotations, and rotation-based enumeration.

Given a stable matching, the reduction truncates every list to the portion
that can still matter for stable matchings the firms like weakly less:
firms keep the span between their best current partner and their worst
worker-optimal one, workers the span between their worker-optimal partner
and their current one, and a pair stays only when both spans admit it.
Each firm's reduced list begins with its staff; the cycles of the map from
a firm to the employer of its next listed worker are the rotations
(Gusfield & Irving 1989; Roth & Sotomayor 1990 for q-responsive firms), and
applying one trades along the cycle and lands on another stable matching.

Enumeration finds the rotations once, on one chain from the firm-optimal
to the worker-optimal matching (``_Chain``), without reducing a profile:
each step is one scan of the pointers of ``_Pointers``, which only move
forward (Gusfield 1987), so the chain reads every firm's list once in all.
The same pass reads off each rotation's predecessors in the rotation poset,
as a bitmask: the rotation before it at each of its firms, and, for each
worker a firm's pointer passes because the worker works for a firm it ranks
at least as high, the rotation that first moved it that high, each with its
own predecessors.  The chain's order is a linear extension of the
poset, whose closed sets are the stable matchings, so a depth-first search
that adds a rotation later in that order than the last one added, once its
predecessors are applied, lists each stable matching once, from one parent
(``_Chain.listing``).  Building the chain is polynomial; only the listing
is exponential.  The chain records each rotation's trade, the rows of its
firms before and after it, and the search replays it: a child is a copy of
its parent's rows with the cycle firms' rows swapped for those the chain
gave them, so the search calls no ``apply_cycle``, scans no worker for the
fit and sorts no row.  The search tests one child per rotation, where the
rotation is first exposed, with ``_stable_step``, which decides from the
cycle's firms alone; ``_Chain.exposed`` reads the rotations exposed at any
listed matching off the same bitmasks.

So one rotation set, the rotations exposed at a stable matching, has three
routes: ``find_cycles(reduce_profile(...))``, which the ``rotations``
command takes because it reports the reduced lists; ``_Chain.exposed``, off
a listed matching's mask, which ``verify`` takes; and ``_scan_rotations``,
the chain's ``_Pointers`` scan, which certification takes for a matching
that was not listed.  The tests hold the three to one another at every
listed matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .model import (
    CapExceededError,
    CycleMismatchError,
    Market,
    Matching,
    NotStableError,
)
from .stability import (
    DEFAULT_ENUMERATION_CAP,
    Side,
    _blocks,
    deferred_acceptance,
    is_stable,
)

__all__ = (
    "ReducedProfile",
    "Rotation",
    "apply_cycle",
    "connected_set",
    "enumerate_stable_via_rotations",
    "find_cycles",
    "reduce_profile",
)


@dataclass(frozen=True)
class ReducedProfile:
    """A market's lists truncated around its stable matching ``base``:
    every agent's reduced list, most-preferred first, in declaration order.
    The lists are mutually acceptable, and each firm's begins with its staff.
    """

    base: Matching
    firm_lists: dict[str, tuple[str, ...]]
    worker_lists: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class Rotation:
    """A cyclic trade among firms exposed by a reduced profile.

    ``workers[d]`` is the first worker after the staff on ``firms[d]``'s
    reduced list, employed by ``firms[d + 1]`` (cyclically) in the base
    matching.  Canonical form starts at the firm declared first.
    """

    firms: tuple[str, ...]
    workers: tuple[str, ...]

    def __post_init__(self):
        if len(self.firms) < 2:
            raise ValueError("a rotation involves at least two firms")
        if len(set(self.firms)) != len(self.firms):
            raise ValueError("rotation firms must be distinct")
        if len(self.workers) != len(self.firms):
            raise ValueError("rotation worker sequence must align with firms")


def reduce_profile(market: Market, mu: Matching) -> ReducedProfile:
    """Truncate all preference lists around a stable matching.

    Each firm keeps the workers from its best current partner down to its
    worst worker-optimal partner, and each worker the firms from its
    worker-optimal partner down to its current one; an agent unmatched in
    either matching keeps nothing (it is unmatched in every stable
    matching).  A pair stays on both lists exactly when both spans admit
    it, so the reduced lists are mutually acceptable by construction.

    Checked, as an ``AssertionError``: every firm's list begins with its
    staff, and a firm below quota lists only its staff.  The staff are kept:
    workers prefer mu_W, and firms like mu at least as well (Roth & Sotomayor
    1990), a firm below quota having the same staff in both (rural
    hospitals).  Any other kept worker ranks the firm above its employer, so
    it would block mu were it ranked above the firm's worst staff member, or
    the firm below quota.  So mu is stable in the reduced lists, and
    firm-proposing deferred acceptance on them stops at mu.
    """
    if not is_stable(market, mu):
        raise NotStableError("reduction requires a stable matching")
    mu_w = deferred_acceptance(market, Side.WORKERS)
    frank, wrank = market._frank, market._wrank

    def span(rank: dict[str, int], top: Iterable[str | None],
             bottom: Iterable[str | None]) -> range:
        """The ranks from the best of ``top`` to the worst of ``bottom``,
        empty when either holds no partner."""
        top = [rank[a] for a in top if a is not None]
        bottom = [rank[a] for a in bottom if a is not None]
        return range(min(top), max(bottom) + 1) if top and bottom else range(0)

    fspan = {f: span(frank[f], mu.matched(f), mu_w.matched(f))
             for f in market.firms}
    wspan = {w: span(wrank[w], [mu_w.employer(w)], [mu.employer(w)])
             for w in market.workers}

    def kept(f: str, w: str) -> bool:
        return frank[f][w] in fspan[f] and wrank[w][f] in wspan[w]

    firm_lists = {f: tuple(w for w in market.acceptable_to_firm(f) if kept(f, w))
                  for f in market.firms}
    worker_lists = {w: tuple(f for f in market.acceptable_to_worker(w)
                             if kept(f, w)) for w in market.workers}
    for f, lst in firm_lists.items():
        staff = mu.matched(f)
        if set(lst[:len(staff)]) != set(staff) or (
                len(staff) < market.quota[f] and len(lst) > len(staff)):
            raise AssertionError(
                f"reduced list of {f} must begin with its staff, and list "
                "nothing else below quota")
    return ReducedProfile(mu, firm_lists, worker_lists)


def find_cycles(profile: ReducedProfile) -> tuple[Rotation, ...]:
    """All rotations of a reduced profile, by their first firm's index.

    A firm's reduced list begins with its staff, and the successor of a
    firm is the employer of the first worker after them, if any (never for
    a firm below quota).  The cycles of this partial successor map are
    exactly the rotations (``_cycles``).
    """
    mu = profile.base
    successor, wanted = {}, {}      # firm -> next firm, and -> its worker
    for f, lst in profile.firm_lists.items():
        k = len(mu.matched(f))
        if len(lst) > k:
            w = lst[k]
            employer = mu.employer(w)
            if employer is None:
                raise AssertionError(
                    "a reduced-list worker outside a full firm must be matched")
            successor[f] = employer
            wanted[f] = w
    return _cycles(tuple(profile.firm_lists), successor, wanted)


class _Pointers:
    """The pointer rule (Gusfield & Irving 1989; Gusfield 1987), set at the
    stable matching mu.  It holds the worker-optimal matching ``mu_w``,
    each worker's rank of its worker-optimal employer, and, for each firm f
    full at mu (so at every stable matching, by the rural hospitals
    theorem), f's list, a pointer just past f's worst staff member and the
    rank of f's worst worker-optimal partner.

    ``scan(employer)`` moves each pointer on to rest at the first worker w
    that f ranks no lower than its worst worker-optimal partner, and that
    ranks f no better than its own worker-optimal employer and strictly
    above ``employer[w]``: the tests of both spans of ``reduce_profile``.
    So w is the first worker after the staff on f's reduced list, w's
    employer is f's successor, and the cycles of this map are the exposed
    rotations (``_cycles``), read with no reduced list.
    ``passed(f, w, rank)``, when given, hears of each passed worker w that
    ranks f (at ``rank``) no better than its worker-optimal employer.

    Along a chain down from mu, scanned in order, a firm's staff only get
    worse for it and the workers' employers only better for them, so a
    worker that fails the tests never passes them again, and the pointers
    only move forward: the scans read each list once in all, plus one look
    per full firm and scan.  The worker at rest fails the tests once it
    moves up to a firm it ranks above f, or once f gains it.
    """

    def __init__(self, market: Market, mu: Matching, passed: Callable | None = None):
        self.market, self.passed = market, passed
        self.mu_w = deferred_acceptance(market, Side.WORKERS)
        frank, wrank = market._frank, market._wrank
        self.top = {w: wrank[w][f] for f, ws in self.mu_w.assignment for w in ws}
        self.full, self.at = [], {}     # (firm, list, worst mu_w rank), pointer
        for (f, ws), (_, ws_w) in zip(mu.assignment, self.mu_w.assignment):
            if len(ws) == market.quota[f]:
                lst = market.acceptable_to_firm(f)
                self.full.append((f, lst, max(map(frank[f].__getitem__, ws_w))))
                self.at[f] = 1 + max(map(lst.index, ws))

    def scan(self, employer: dict[str, str]) -> tuple[Rotation, ...]:
        """The rotations exposed where the workers' employers are ``employer``."""
        frank, wrank = self.market._frank, self.market._wrank
        top, at, passed = self.top, self.at, self.passed
        successor, wanted = {}, {}
        for f, lst, bottom in self.full:
            i, rank = at[f], frank[f]
            while i < len(lst) and rank[lst[i]] <= bottom:
                w = lst[i]
                mine = wrank[w]
                if w in top and top[w] <= mine[f]:
                    if mine[f] < mine[employer[w]]:
                        successor[f], wanted[f] = employer[w], w
                        break
                    if passed is not None:
                        passed(f, w, mine[f])
                i += 1
            at[f] = i
        return _cycles(self.market.firms, successor, wanted)


def _scan_rotations(market: Market, mu: Matching) -> tuple[Rotation, ...]:
    """The rotations exposed at the stable matching mu, as ``find_cycles(
    reduce_profile(market, mu))`` gives them, by one ``_Pointers`` scan set
    at mu.  Raises ``NotStableError``, with ``reduce_profile``'s message,
    when mu is not stable."""
    if not is_stable(market, mu):
        raise NotStableError("reduction requires a stable matching")
    return _Pointers(market, mu).scan(mu._employer)


def _cycles(firms: Sequence[str], successor: dict[str, str],
            wanted: dict[str, str]) -> tuple[Rotation, ...]:
    """The cycles of the partial map ``successor`` (firm -> next firm), as
    rotations with ``wanted[f]`` as firm f's worker.  Each starts at its
    firm first in ``firms``, the declaration order, and they are sorted by
    that firm's index.  Each firm has one successor, so the cycles are
    firm-disjoint."""
    index = {f: i for i, f in enumerate(firms)}.__getitem__
    seen: set[str] = set()
    rotations = []
    for start in firms:
        path: list[str] = []
        cur = start
        while cur in successor and cur not in seen:
            seen.add(cur)
            path.append(cur)
            cur = successor[cur]
        if cur in path:
            cycle = path[path.index(cur):]
            k = cycle.index(min(cycle, key=index))
            ordered = cycle[k:] + cycle[:k]
            rotations.append(
                Rotation(tuple(ordered), tuple(wanted[f] for f in ordered)))
    rotations.sort(key=lambda r: index(r.firms[0]))
    return tuple(rotations)


def apply_cycle(market: Market, mu: Matching, sigma: Rotation) -> Matching:
    """Trade workers along one rotation.

    Each firm of the cycle keeps its assignment except that it gains its own
    cycle worker and loses its predecessor's; all other firms are untouched.
    The rotation must fit the matching (each cycle worker employed by the
    next firm, and so absent from its own firm), or ``CycleMismatchError``
    is raised at the first position that does not.  A fitting cycle moves
    distinct workers and keeps every row's size, so no worker can be
    assigned twice: the child is derived from ``mu``'s rows, of which only
    the cycle's are rebuilt (re-sorted by worker index when they hold more
    than one worker).  Rows are read by firm index, so no lookup dict is
    built for either matching, and the cost of a step is one copy of the row
    tuple plus the rotation's work.

    It is the step of the rotation chain and of ``connected_set``; the
    rotation search replays the trades the chain recorded instead.
    """
    rows, index = list(mu.assignment), market._findex
    r = len(sigma.firms)
    for d, w in enumerate(sigma.workers):
        if w not in rows[index[sigma.firms[(d + 1) % r]]][1]:
            f, nxt = sigma.firms[d], sigma.firms[(d + 1) % r]
            if w in rows[index[f]][1]:
                raise CycleMismatchError(f"cycle worker {w} already works for {f}")
            raise CycleMismatchError(
                f"cycle worker {w} is not employed by {nxt} in the base matching")
    for d, f in enumerate(sigma.firms):
        lost, gained = sigma.workers[d - 1], sigma.workers[d]
        i = index[f]
        staff = rows[i][1]
        if len(staff) == 1:         # the fit makes it (lost,)
            new = (gained,)
        else:
            kept = [w for w in staff if w != lost]
            kept.append(gained)
            if len(kept) > market.quota[f]:
                raise ValueError(f"firm {f} exceeds its quota")
            new = tuple(sorted(kept, key=market._windex.__getitem__))
        rows[i] = (f, new)
    return Matching._derive(tuple(rows))


def connected_set(market: Market, mu: Matching,
                  kprime: Sequence[Rotation]) -> set[Matching]:
    """All matchings reachable from mu by applying a subset of ``kprime``;
    ``CapExceededError``, before any rotation is applied, when the 2^k
    subsets exceed ``DEFAULT_ENUMERATION_CAP``.  The members double with
    each rotation, one ``apply_cycle`` per new member.  The rotations must
    be firm-disjoint, as those exposed at one matching are; an overlap
    raises ``AssertionError``."""
    seen: set[str] = set()
    for rot in kprime:
        overlap = seen & set(rot.firms)
        if overlap:
            raise AssertionError(f"overlapping rotations at {sorted(overlap)}")
        seen.update(rot.firms)
    if 2 ** len(kprime) > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(f"2^{len(kprime)} connected matchings exceed "
                               f"the cap of {DEFAULT_ENUMERATION_CAP}")
    members = [mu]
    for rot in kprime:
        members += [apply_cycle(market, nu, rot) for nu in members]
    out = set(members)
    if len(out) != len(members):
        raise AssertionError("distinct subsets give distinct matchings")
    return out


def _stable_step(market: Market, nu: Matching, sigma: Rotation) -> bool:
    """``is_stable(market, nu)``, found from the lists of ``sigma``'s firms.

    ``nu`` is mu with ``sigma`` applied, where mu is individually rational
    and every pair blocking mu has its firm on the cycle; a stable mu, as in
    the enumeration, qualifies.  Precondition: every cycle worker's new pair
    is mutually acceptable and the worker strictly prefers its new firm to
    its old one.  ``_Chain`` checks this for each rotation it finds; its
    listing passes each of them here once more, where it is first exposed,
    and passes no other rotation here.

    Then nu is individually rational: ``apply_cycle`` keeps every quota,
    and a trade the search replays gives each cycle firm the row that
    ``apply_cycle`` gave it on the chain; the new pairs are acceptable and
    every other pair is one of mu's.  A pair (f, w) with f off the cycle
    cannot block nu either: f's staff, and so its vacancy and its worst
    staff member, are those of mu, and w's employer is mu's or one w
    strictly prefers, so the pair would block mu.  (Were w employed by f in
    mu and not in nu, w would be a cycle worker and f a cycle firm.)  What
    is left is exactly the scan of ``_blocks`` restricted to the cycle's
    firms.
    """
    return next(_blocks(market, nu, sigma.firms), None) is None


class _Chain:
    """The rotation chain of a market: from the firm-optimal matching
    ``start``, find the rotations exposed at the current matching, apply
    them one at a time and repeat until none is exposed.  Every rotation
    lies on every maximal chain of the stable lattice (Gusfield & Irving,
    1989; the many-to-one case follows by cloning each firm into
    quota-many copies), so this one chain of at most |R| + 1 steps finds
    the whole rotation set R.  ``rotations`` is r_1, ..., r_n in the
    chain's order, ``pred[j]`` the bitmask of D_j, the rotations that
    precede r_j, and ``trades[j]`` r_j's trade: for each of its firms, the
    firm's index and its rows before and after the step.  Building the
    chain is polynomial; ``listing`` runs the exponential search over the
    closed sets, and ``exposed`` reads a listed matching's cube off the
    masks.

    Each step is one scan of the ``_Pointers`` set at ``start``, kept from
    step to step.  Each rotation must meet the precondition of
    ``_stable_step`` and each matching the chain reaches must pass
    ``_stable_step``; the chain must end at the worker-optimal matching,
    and no rotation may be found twice.  Each failure raises
    ``AssertionError``.

    The same pass reads off the predecessors (Gusfield 1987), hearing of
    the workers the pointers pass through the scan's ``passed`` hook.  Each
    full firm f keeps ``due[f]``, a set of rotations that must precede f's
    next rotation, and each worker w keeps ``moves[w]``: w's rank of each
    employer it held along the chain, with the rotations applied up to that
    move, starting from its firm-optimal employer with none.  ``pred[j]`` is
    the union of ``due[f]`` over r_j's firms; then each of them owes
    ``pred[j]`` and r_j, and each of its workers records the move.  Two
    kinds of edge enter ``due[f]``:

    - Two rotations at one firm are never exposed together, since the firm
      has one successor, so the chain's order orders them.
    - When f's pointer passes a worker w that ranks f no better than its
      worker-optimal employer because w's employer ranks at least as high
      as f, f's next rotation gives f a worker that f ranks below w.  The
      rotations that move w are totally ordered (w has one employer), and
      until the first of them that lifts w to a firm it ranks no lower than
      f is applied, w and f would block; so that rotation, with its
      predecessors, must come first.  When w's firm-optimal employer already
      ranks that high, no rotation is owed.

    Every set entered is some D_i plus r_i, which is closed, and unions of
    closed sets are closed, so no transitive closure is needed.
    """

    def __init__(self, market: Market):
        start = deferred_acceptance(market, Side.FIRMS)
        wrank = market._wrank
        employer = {w: f for f, ws in start.assignment for w in ws}
        # per worker: its rank of each employer it held, with the rotations
        # applied by then; its firm-optimal employer comes with none
        moves = {w: [(wrank[w][f], 0)] for w, f in employer.items()}
        # per firm: the rotations its next rotation must follow
        due = dict.fromkeys(market.firms, 0)

        def passed(f: str, w: str, rank: int) -> None:
            due[f] |= next(s for r, s in moves[w] if r <= rank)

        pointers = _Pointers(market, start, passed)
        rotations: list[Rotation] = []
        pred: list[int] = []
        # per rotation: (firm index, its row before, its row after) per firm
        trades: list[list[tuple[int, tuple, tuple]]] = []
        mu = start
        while True:
            exposed = pointers.scan(employer)
            if not exposed:
                break
            for sigma in exposed:
                mask = 0
                for d, (f, w) in enumerate(zip(sigma.firms, sigma.workers)):
                    old = sigma.firms[(d + 1) % len(sigma.firms)]
                    if not (market.acceptable(f, w) and market.acceptable(old, w)
                            and wrank[w][f] < wrank[w][old]):
                        raise AssertionError(
                            f"cycle worker {w} must move up from {old} to {f}")
                    mask |= due[f]
                nu = apply_cycle(market, mu, sigma)
                if not _stable_step(market, nu, sigma):
                    raise AssertionError(
                        "the rotation chain must pass only stable matchings")
                trades.append([(i, mu.assignment[i], nu.assignment[i])
                               for i in map(market._findex.__getitem__, sigma.firms)])
                mu = nu
                done = mask | 1 << len(rotations)
                for f, w in zip(sigma.firms, sigma.workers):
                    employer[w], due[f] = f, done
                    moves[w].append((wrank[w][f], done))
                rotations.append(sigma)
                pred.append(mask)
        if mu != pointers.mu_w:
            raise AssertionError(
                "the rotation chain must end at the worker-optimal matching")
        if len(set(rotations)) != len(rotations):
            raise AssertionError("a rotation was found twice on the chain")
        self.market, self.start = market, start
        self.rotations, self.pred, self.trades = rotations, pred, trades

    def listing(self, cap: int = DEFAULT_ENUMERATION_CAP) -> dict[Matching, int]:
        """The rotation search: each stable matching, mapped to the bitmask
        of the rotations applied to ``start`` to reach it.

        The chain's order is a linear extension of the rotation poset, since
        a rotation is exposed only after all of its predecessors were
        applied.  So a nonempty closed set I has exactly one parent, I minus
        its highest-index rotation, which is closed as well, and its
        matching is the parent's with that rotation applied, exposed and so
        fitting.  A depth-first search from the firm-optimal matching
        extends each matching by every r_j with j above the last index
        added and ``pred[j]`` inside the applied set, and by nothing else.
        Every stable matching is reached this way; one reached twice would
        be an error, and is raised as one.

        The child is built by replaying r_j's recorded trade, which is
        exact, many-to-one included.  The rotations at one firm are totally
        ordered in the poset, since ``due[f]`` puts each of them in the next
        one's mask.  So at any closed set where r_j is applied, each of
        r_j's firms has had exactly the rotations at that firm that precede
        r_j, the same ones as on the chain, and its row is the row the chain
        gave it before r_j.  The search checks that equality for each firm,
        and raises ``AssertionError`` where it fails; equal rows imply the
        fit ``apply_cycle`` checks, each cycle worker employed by the next
        firm.

        One check bears the load: at the applied set equal to ``pred[j]``,
        where r_j is first exposed, the child must pass ``_stable_step``, or
        ``AssertionError`` is raised; that is one test per rotation.  A mask
        that misses a predecessor fails it: were ``pred[j]`` the first such
        mask, every earlier mask would be exact, so ``pred[j]`` would be a
        closed set at which r_j is not exposed.

        Raises ``CapExceededError`` once more than ``cap`` matchings, the
        firm-optimal one included, are listed.
        """
        rotations, pred, trades = self.rotations, self.pred, self.trades
        listed: dict[Matching, int] = {}
        count = 0
        # (matching, bitmask of the rotations applied, next index)
        stack: list[tuple[Matching, int, int]] = [(self.start, 0, 0)]
        while stack:
            mu, applied, first = stack.pop()
            listed[mu] = applied
            count += 1
            if count > cap:
                raise CapExceededError(
                    f"{count}+ stable matchings exceed the cap of {cap}")
            for j in range(first, len(rotations)):
                if pred[j] & ~applied:
                    continue
                rows = list(mu.assignment)
                for i, before, after in trades[j]:
                    if rows[i] != before:
                        raise AssertionError(
                            "each rotation's firms must hold the rows they held "
                            "on the chain")
                    rows[i] = after
                nu = Matching._derive(tuple(rows))
                if applied == pred[j] and not _stable_step(self.market, nu, rotations[j]):
                    raise AssertionError(
                        "each rotation must be exposed once its predecessors "
                        "are applied")
                stack.append((nu, applied | 1 << j, j + 1))
        if len(listed) != count:
            raise AssertionError("a stable matching was generated twice")
        return listed

    def exposed(self, applied: int) -> tuple[Rotation, ...]:
        """The rotations exposed at the listed matching with mask ``applied``,
        by their first firm's index as ``find_cycles`` returns them: each r_j
        outside ``applied`` whose predecessors ``pred[j]`` all lie inside it."""
        return tuple(sorted(
            (sigma for j, sigma in enumerate(self.rotations)
             if not (applied >> j) & 1 and not self.pred[j] & ~applied),
            key=lambda sigma: self.market.firm_index(sigma.firms[0])))


def enumerate_stable_via_rotations(
        market: Market, cap: int = DEFAULT_ENUMERATION_CAP) -> set[Matching]:
    """All stable matchings, one per closed set of the rotation poset: the
    matchings that the rotation search ``_Chain.listing`` lists.

    Raises ``CapExceededError`` once more than ``cap`` matchings, the
    firm-optimal one included, are listed.
    """
    return set(_Chain(market).listing(cap))

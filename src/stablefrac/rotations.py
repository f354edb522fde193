"""Preference-list reduction, rotations, and rotation-based enumeration.

Given a stable matching, the reduction truncates every list to the portion
that can still matter for stable matchings the firms like weakly less:
firms keep the span between their best current partner and their worst
worker-optimal one, workers the span between their worker-optimal partner
and their current one, and a pair stays only when both spans admit it.
Cycles of the "best worker outside my assignment" successor map in the
reduced market are the rotations; applying one trades along the cycle and
lands on another stable matching.

Enumeration finds the rotations once, on one chain from the firm-optimal to
the worker-optimal matching.  The order in which the chain finds them is a
linear extension of the rotation poset, and the stable matchings are the
closed sets of that poset, so a depth-first search that only ever adds a
rotation later in that order than the last one added generates each stable
matching once, from one parent, with one ``apply_cycle``.  A rotation that
fits is not always exposed, so each candidate is kept only when it is
stable; ``_stable_step`` decides that exactly by scanning the lists of the
cycle's firms alone, and only for a rotation whose predecessors the search
cannot yet show to be applied.  Its precondition, that every cycle worker
moves along an acceptable pair to a firm it strictly prefers, holds for every
rotation of a reduced profile; the chain checks it once per rotation, when
it finds it.  The search also learns the poset itself: the intersection of
the applied sets at which it finds a rotation exposed is, once it
completes, exactly the set of that rotation's predecessors, so the
rotations exposed at any listed matching are read off bitmasks
(``_exposed``) rather than found by reducing its profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class ReducedProfile:
    """A market with truncated lists, together with its base matching.

    The base matching is stable and firm-optimal in the reduced market, and
    the reduced lists are mutually acceptable exactly.
    """

    base: Matching
    market: Market      # reduced lists, same agents and quotas

    def firm_list(self, f: str) -> tuple[str, ...]:
        return self.market.firm_pref[f]

    def worker_list(self, w: str) -> tuple[str, ...]:
        return self.market.worker_pref[w]


@dataclass(frozen=True)
class Rotation:
    """A cyclic trade among firms exposed by a reduced profile.

    ``workers[d]`` is the best reduced-list worker of ``firms[d]`` outside its
    assignment, and is employed by ``firms[d + 1]`` (cyclically) in the base
    matching.  Canonical form starts at the firm with the smallest
    declaration index.
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
    reduced = Market(market.firms, market.workers, dict(market.quota),
                     firm_lists, worker_lists)
    if not is_stable(reduced, mu):
        raise AssertionError("base matching must stay stable after reduction")
    if deferred_acceptance(reduced, Side.FIRMS) != mu:
        raise AssertionError(
            "base matching must be firm-optimal in the reduced market")
    return ReducedProfile(base=mu, market=reduced)


def find_cycles(profile: ReducedProfile) -> tuple[Rotation, ...]:
    """All rotations of a reduced profile, by their first firm's index.

    The successor of a firm is the employer of its best reduced-list worker
    outside its own assignment; it is undefined for firms below quota (those
    never rotate: below-quota firms keep the same workers in every stable
    matching) and for firms with no outside worker left.  The cycles of this
    partial successor map, found by pointer chasing with visitation stamps,
    are exactly the rotations.  Each firm has one successor, so the cycles
    are firm-disjoint, and each cycle worker is employed by the next firm.
    """
    mu = profile.base
    reduced = profile.market
    successor: dict[str, str] = {}
    wanted: dict[str, str] = {}
    for f in reduced.firms:
        staff = mu.matched(f)
        if len(staff) < reduced.quota[f]:
            continue
        outside = [w for w in reduced.acceptable_to_firm(f) if w not in staff]
        if not outside:
            continue
        w = outside[0]
        employer = mu.employer(w)
        if employer is None:
            raise AssertionError(
                "a reduced-list worker outside a full firm must be matched")
        successor[f] = employer
        wanted[f] = w

    visited: set[str] = set()
    cycles: list[list[str]] = []
    for start in reduced.firms:
        if start in visited or start not in successor:
            continue
        path: list[str] = []
        position: dict[str, int] = {}
        cur: str | None = start
        while cur is not None and cur not in visited and cur not in position:
            position[cur] = len(path)
            path.append(cur)
            cur = successor.get(cur)
        if cur is not None and cur in position:
            cycles.append(path[position[cur]:])
        visited.update(path)

    rotations = []
    for cycle in cycles:
        k = min(range(len(cycle)),
                key=lambda i: reduced.firm_index(cycle[i]))
        ordered = cycle[k:] + cycle[:k]
        rotations.append(
            Rotation(tuple(ordered), tuple(wanted[f] for f in ordered)))
    rotations.sort(key=lambda r: reduced.firm_index(r.firms[0]))
    return tuple(rotations)


def _misfit(mu: Matching, sigma: Rotation) -> int | None:
    """The first cycle position whose worker the next firm does not employ.

    ``sigma`` fits ``mu`` when there is none: each cycle worker is employed
    by the next firm of the cycle, and so not by its own.
    """
    r = len(sigma.firms)
    for d, w in enumerate(sigma.workers):
        if mu.employer(w) != sigma.firms[(d + 1) % r]:
            return d
    return None


def apply_cycle(market: Market, mu: Matching, sigma: Rotation) -> Matching:
    """Trade workers along one rotation.

    Each firm of the cycle keeps its assignment except that it gains its own
    cycle worker and loses its predecessor's; all other firms are untouched.
    The rotation must fit the matching (each cycle worker employed by the
    next firm, absent from its own firm), or ``CycleMismatchError`` is
    raised.  A fitting cycle moves distinct workers and keeps every row's
    size, so no worker can be assigned twice: the child is derived from
    ``mu``, whose other rows and lookup entries, already canonical, are
    reused, and only the cycle's rows (re-sorted by worker index when they
    hold more than one worker) and the moved workers' employers are new.
    The cost of a step thus scales with the rotation, not the market.
    """
    d = _misfit(mu, sigma)
    if d is not None:
        f, w = sigma.firms[d], sigma.workers[d]
        if mu.employer(w) == f:
            raise CycleMismatchError(f"cycle worker {w} already works for {f}")
        nxt = sigma.firms[(d + 1) % len(sigma.firms)]
        raise CycleMismatchError(
            f"cycle worker {w} is not employed by {nxt} in the base matching")
    rows = list(mu.assignment)
    changed: dict[str, tuple[str, ...]] = {}
    for d, f in enumerate(sigma.firms):
        lost, gained = sigma.workers[d - 1], sigma.workers[d]
        staff = mu.matched(f)
        if len(staff) == 1:         # the fit makes it (lost,)
            new = (gained,)
        else:
            kept = [w for w in staff if w != lost]
            kept.append(gained)
            if len(kept) > market.quota[f]:
                raise ValueError(f"firm {f} exceeds its quota")
            new = tuple(sorted(kept, key=market.worker_index))
        rows[market.firm_index(f)] = (f, new)
        changed[f] = new
    return mu._derive(tuple(rows), changed, dict(zip(sigma.workers, sigma.firms)))


def _disjoint(cycles: Iterable[Rotation]) -> tuple[Rotation, ...]:
    """``cycles`` as a tuple, once they are checked to be firm-disjoint."""
    cycles = tuple(cycles)
    seen: set[str] = set()
    for rot in cycles:
        overlap = seen & set(rot.firms)
        if overlap:
            raise AssertionError(f"overlapping rotations at {sorted(overlap)}")
        seen.update(rot.firms)
    return cycles


def apply_cycle_set(market: Market, mu: Matching,
                    cycles: Iterable[Rotation]) -> Matching:
    """Apply a set of rotations; they are disjoint, so the order is irrelevant."""
    result = mu
    for rot in _disjoint(cycles):
        result = apply_cycle(market, result, rot)
    return result


def connected_set(market: Market, mu: Matching,
                  kprime: Sequence[Rotation]) -> set[Matching]:
    """All matchings reachable from mu by applying a subset of ``kprime``;
    ``CapExceededError``, before any rotation is applied, when the 2^k
    subsets exceed ``DEFAULT_ENUMERATION_CAP``.  The members double with
    each rotation, one ``apply_cycle`` per new member."""
    kprime = _disjoint(kprime)
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
    its old one; the chain of ``enumerate_stable_via_rotations`` checks this
    for each rotation it finds, so the search passes no other rotation here.

    Then nu is individually rational: ``apply_cycle`` keeps every quota, the
    new pairs are acceptable and every other pair is one of mu's.  A pair
    (f, w) with f off the cycle cannot block nu either: f's staff, and so
    its vacancy and its worst staff member, are those of mu, and w's
    employer is mu's or one w strictly prefers, so the pair would block mu.
    (Were w employed by f in mu and not in nu, w would be a cycle worker and
    f a cycle firm.)  What is left is exactly the scan of ``_blocks``
    restricted to the cycle's firms.
    """
    return next(_blocks(market, nu, sigma.firms), None) is None


def _lattice(market: Market, cap: int = DEFAULT_ENUMERATION_CAP
             ) -> tuple[list[Rotation], dict[Matching, int], list[int]]:
    """The rotation search: ``(rotations, listed, known)``.

    ``rotations`` is r_1, ..., r_n in the chain's order, ``listed`` maps
    each stable matching to the bitmask of the rotations applied to the
    firm-optimal matching to reach it, and ``known[j]`` is the bitmask of
    D_j, the rotations that precede r_j.

    Chain phase: from the firm-optimal matching, reduce the profile, apply
    every exposed rotation at once and repeat until none is exposed.  Every
    rotation lies on every maximal chain of the stable lattice (Gusfield &
    Irving, 1989; the many-to-one case follows by cloning each firm into
    quota-many copies), so this one chain of at most |R| + 1 reductions
    finds the whole rotation set R.  Each rotation must meet the precondition
    of ``_stable_step``, the chain must end at the worker-optimal matching,
    and no rotation may be found twice.

    Search phase: the chain's order is a linear extension of the rotation
    poset, since a rotation is exposed only after all of its predecessors
    were applied.  So a nonempty closed set I has exactly one parent, I
    minus its highest-index rotation, which is closed as well, and its
    matching is the parent's with that rotation applied, exposed and so
    fitting.  A depth-first search from the firm-optimal matching extends
    each matching only by rotations r_j with j above the last index added,
    and keeps a candidate when r_j fits and the result is stable
    (``_stable_step``).  Every stable matching is reached this way; one
    reached twice would be an error, and is raised as one.

    The search learns the precedence relation as it goes.  r_j is exposed
    at a closed set I exactly when r_j is not in I and D_j is, so every set
    at which the search finds r_j exposed contains D_j, and so does
    ``known[j]``, the intersection of these sets.  A later candidate r_j
    whose ``known[j]`` lies inside the applied set is therefore exposed,
    and is kept without ``_misfit`` or ``_stable_step``; ``apply_cycle``
    still checks that it fits.  Once the search completes, ``known[j]`` is
    exactly D_j: D_j is closed, so the search lists it, and with j among
    its candidates, since every rotation of D_j precedes r_j in the chain's
    order; r_j is exposed there, so D_j is intersected into ``known[j]``
    unless ``known[j]`` already lies inside it.  ``_exposed`` reads the
    rotations exposed at any listed matching off these masks.

    Raises ``CapExceededError`` once more than ``cap`` matchings, the
    firm-optimal one included, are listed; no masks exist then.
    """
    start = deferred_acceptance(market, Side.FIRMS)
    wrank = market._wrank
    rotations: list[Rotation] = []
    mu = start
    while True:
        exposed = find_cycles(reduce_profile(market, mu))
        if not exposed:
            break
        for sigma in exposed:
            for d, (f, w) in enumerate(zip(sigma.firms, sigma.workers)):
                old = sigma.firms[(d + 1) % len(sigma.firms)]
                if not (market.acceptable(f, w) and market.acceptable(old, w)
                        and wrank[w][f] < wrank[w][old]):
                    raise AssertionError(
                        f"cycle worker {w} must move up from {old} to {f}")
        rotations.extend(exposed)
        mu = apply_cycle_set(market, mu, exposed)
    if mu != deferred_acceptance(market, Side.WORKERS):
        raise AssertionError(
            "the rotation chain must end at the worker-optimal matching")
    if len(set(rotations)) != len(rotations):
        raise AssertionError("a rotation was found twice on the chain")

    listed: dict[Matching, int] = {}
    count = 0
    known = [(1 << len(rotations)) - 1] * len(rotations)
    # (matching, bitmask of the rotations applied, next index)
    stack: list[tuple[Matching, int, int]] = [(start, 0, 0)]
    while stack:
        mu, applied, first = stack.pop()
        listed[mu] = applied
        count += 1
        if count > cap:
            raise CapExceededError(
                f"{count}+ stable matchings exceed the cap of {cap}")
        for j in range(first, len(rotations)):
            sigma = rotations[j]
            if known[j] & ~applied:
                if _misfit(mu, sigma) is not None:
                    continue
                nu = apply_cycle(market, mu, sigma)
                if not _stable_step(market, nu, sigma):
                    continue
                known[j] &= applied
            else:
                nu = apply_cycle(market, mu, sigma)
            stack.append((nu, applied | 1 << j, j + 1))
    if len(listed) != count:
        raise AssertionError("a stable matching was generated twice")
    return rotations, listed, known


def _exposed(market: Market, rotations: Sequence[Rotation], known: Sequence[int],
             applied: int) -> tuple[Rotation, ...]:
    """The rotations exposed at the listed matching with mask ``applied``,
    by their first firm's index as ``find_cycles`` returns them: each r_j
    outside ``applied`` whose predecessors ``known[j]`` all lie inside it."""
    return tuple(sorted(
        (sigma for j, sigma in enumerate(rotations)
         if not (applied >> j) & 1 and not known[j] & ~applied),
        key=lambda sigma: market.firm_index(sigma.firms[0])))


def enumerate_stable_via_rotations(
        market: Market, cap: int = DEFAULT_ENUMERATION_CAP) -> set[Matching]:
    """All stable matchings, one per closed set of the rotation poset: the
    matchings that the rotation search ``_lattice`` lists.

    Raises ``CapExceededError`` once more than ``cap`` matchings, the
    firm-optimal one included, are listed.
    """
    return set(_lattice(market, cap)[1])

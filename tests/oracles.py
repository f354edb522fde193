"""Reference oracles that the library's faster code is compared against,
the matrix text writer, the random markets several test modules share, and
the helpers only the tests need: positions read off the declared lists, a
point's pair coordinates, a set of rotations applied in turn and a hull
certificate's point rebuilt from its rotation subsets.

Not a test module: ``test_*.py`` files and ``sweep_oracles.py`` import it.
"""

import itertools
import random
import re
import warnings
from fractions import Fraction
from math import gcd, lcm

import stablefrac as sf
from stablefrac import FractionalMatching, Market, Rational
from stablefrac.hulls import _cube_coordinates
from stablefrac.polytope import _Lists, _PairIndex, _ScaledSums, check_stable_feasibility
from stablefrac.rotations import _Chain
from stablefrac.stability import _search


# --- positions, coordinates and rotation sets, read without the library ----
#
# The library keeps rank tables and applies rotations on its own paths; these
# read a position off the declared lists and apply a set of rotations one
# ``apply_cycle`` at a time.

def firm_rank(market, f, w):
    """Position of w in f's declared list (0 = most preferred)."""
    return market.firm_pref[f].index(w)


def worker_rank(market, w, f):
    """Position of f in w's declared list (0 = most preferred)."""
    return market.worker_pref[w].index(f)


def flatten(market, x):
    """The coordinates of x on the acceptable pairs, in the market's pair order."""
    return tuple(x.value(market, f, w) for f, w in market.pairs())


def apply_cycle_set(market, mu, cycles):
    """mu with each rotation of ``cycles`` applied in turn; for firm-disjoint
    rotations the order is irrelevant."""
    for rot in cycles:
        mu = sf.apply_cycle(market, mu, rot)
    return mu


def certificate_matchings(market, cert):
    """Each hull certificate term's matching, rebuilt from its rotation
    subset: the base with those rotations applied."""
    return tuple(apply_cycle_set(market, cert.base,
                                 [cert.rotations[i] for i in sorted(ids)])
                 for ids, _ in cert.terms)


def reconstruct(market, cert):
    """The point a hull certificate describes: its terms' matchings, rebuilt
    from the rotation subsets, mixed with the terms' weights.  It reads
    neither the certificate's decomposition nor ``Decomposition.reconstruct``."""
    return FractionalMatching.linear_combination(
        [(sf.incidence_vector(market, mu), weight) for mu, (_, weight)
         in zip(certificate_matchings(market, cert), cert.terms)])


def hull_samples(market, mu, seed, count):
    """``sample_hull`` over the connected set of mu and the rotations its
    reduced profile exposes."""
    return sf.sample_hull(market, mu, seed, count,
                          sf.find_cycles(sf.reduce_profile(market, mu)))


def reference_enumerate_stable(market):
    """Every worker -> (acceptable firm | unmatched) map, each fully checked.

    The exhaustive scan ``enumerate_stable_bruteforce`` did before it pruned:
    filter quota feasibility, then look for a vacancy or swap block.
    """
    choices = [(None,) + market.acceptable_to_worker(w) for w in market.workers]
    quota = market.quota
    frank = {f: {w: r for r, w in enumerate(market.firm_pref[f])} for f in market.firms}
    wrank = {w: {f: r for r, f in enumerate(market.worker_pref[w])} for w in market.workers}
    pairs = market.pairs()
    workers = market.workers

    stable = set()
    for combo in itertools.product(*choices):
        staff = {}
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
            stable.add(sf.Matching.build(market, staff))
    return stable


def reference_reduced_lists(market, mu):
    """Each side's lists cut to its span around ``mu`` on their own, then
    the mutual-acceptability closure iterated to a fixpoint, where
    ``reduce_profile`` keeps a pair in one test of both spans.  Returns the
    reduced firm and worker lists."""
    mu_w = sf.deferred_acceptance(market, sf.Side.WORKERS)
    firm_lists, worker_lists = {}, {}
    for f in market.firms:
        mine, bottom = mu.matched(f), mu_w.matched(f)
        lo = min((firm_rank(market, f, w) for w in mine), default=None)
        hi = max((firm_rank(market, f, w) for w in bottom), default=None)
        firm_lists[f] = () if lo is None or hi is None else tuple(
            w for w in market.acceptable_to_firm(f)
            if lo <= firm_rank(market, f, w) <= hi)
    for w in market.workers:
        current, top = mu.employer(w), mu_w.employer(w)
        worker_lists[w] = () if current is None or top is None else tuple(
            f for f in market.acceptable_to_worker(w)
            if worker_rank(market, w, top) <= worker_rank(market, w, f)
            <= worker_rank(market, w, current))

    changed = True
    while changed:
        changed = False
        wsets = {w: set(fs) for w, fs in worker_lists.items()}
        for f, ws in firm_lists.items():
            kept = tuple(w for w in ws if f in wsets[w])
            if kept != ws:
                firm_lists[f] = kept
                changed = True
        fsets = {f: set(ws) for f, ws in firm_lists.items()}
        for w, fs in worker_lists.items():
            kept = tuple(f for f in fs if w in fsets[f])
            if kept != fs:
                worker_lists[w] = kept
                changed = True
    return firm_lists, worker_lists


def reduced_market(market, profile):
    """The reduced lists of ``profile`` rebuilt as a market of their own,
    for the checks ``reduce_profile`` no longer makes on one: the base
    matching is stable in it, and firm-proposing deferred acceptance gives
    the base."""
    return Market(market.firms, market.workers, market.quota,
                  profile.firm_lists, profile.worker_lists)


def reduced_lists_keep_the_base(market, mu):
    """Whether ``mu`` is stable and firm-optimal in its reduced market."""
    red = reduced_market(market, sf.reduce_profile(market, mu))
    return sf.is_stable(red, mu) and \
        sf.deferred_acceptance(red, sf.Side.FIRMS) == mu


# --- orders and properties the paper proves ------------------------------
#
# The library computes none of these; the tests check them.  The prefix sums
# are also the ``Fraction`` reference for ``polytope._evaluate``'s integer ones.

def firm_weak_prefix(market: Market, x: FractionalMatching,
                     f: str) -> dict[str, Rational]:
    """Cumulative mass a firm assigns from its favourite worker down to each."""
    out: dict[str, Rational] = {}
    acc = Fraction(0)
    i = market.firm_index(f)
    for w in market.acceptable_to_firm(f):
        acc += x.entries[i][market.worker_index(w)]
        out[w] = acc
    return out


def worker_weak_prefix(market: Market, x: FractionalMatching,
                       w: str) -> dict[str, Rational]:
    out: dict[str, Rational] = {}
    acc = Fraction(0)
    j = market.worker_index(w)
    for f in market.acceptable_to_worker(w):
        acc += x.entries[market.firm_index(f)][j]
        out[f] = acc
    return out


def reference_condition(market: Market, x: FractionalMatching):
    """Each acceptable pair's strong stability condition from its definition,
    in ``Fraction``: the firm factor is the quota minus the firm's weak
    prefix sum down to the worker, the worker factor one minus the worker's
    down to the firm, both summed from ``x.value``, and the product theirs."""
    out = []
    for f, w in market.pairs():
        firm = market.quota[f] - sum(
            (x.value(market, f, v) for v in market.acceptable_to_firm(f)
             if firm_rank(market, f, v) <= firm_rank(market, f, w)), Fraction(0))
        worker = 1 - sum(
            (x.value(market, g, w) for g in market.acceptable_to_worker(w)
             if worker_rank(market, w, g) <= worker_rank(market, w, f)), Fraction(0))
        out.append(sf.PairCondition(f, w, firm, worker, firm * worker))
    return tuple(out)


def dominates(market, x, y, agents=None, strict=False):
    """Whether x gives every agent at least y's cumulative mass at each rank
    of its list; with ``strict``, also more at some rank of some agent.

    ``x`` and ``y`` are matchings or fractional matchings, and ``agents``
    defaults to all firms: ``dominates(m, mu, nu)`` is the firms' weak order.
    """
    x, y = (sf.incidence_vector(market, v) if isinstance(v, sf.Matching) else v
            for v in (x, y))
    pairs = []
    for a in market.firms if agents is None else agents:
        prefix = firm_weak_prefix if a in market.quota else worker_weak_prefix
        px, py = prefix(market, x, a), prefix(market, y, a)
        pairs += [(px[b], py[b]) for b in px]
    return all(u >= v for u, v in pairs) and (
        not strict or any(u > v for u, v in pairs))


def rural_hospital(market, matchings):
    """Every matching employs the same workers, and a firm below its quota
    in one of them employs the same workers in all."""
    ms = list(matchings)
    employed = {frozenset(w for _, ws in mu.assignment for w in ws) for mu in ms}
    return len(employed) <= 1 and all(
        len({mu.matched(f) for mu in ms}) == 1 for f in market.firms
        if any(len(mu.matched(f)) < market.quota[f] for mu in ms))


# --- text form of a fractional matching -----------------------------------

def serialize_fractional(market: Market, x: FractionalMatching) -> str:
    """The matrix text that ``parse_fractional`` reads: one firm per line."""
    return "\n".join(
        " ".join(str(v) for v in row) for row in x.entries) + "\n"


# --- Fraction references for the integer form ------------------------------
#
# The library holds a fractional matching as integer numerators over their
# least common denominator, and mixes, rebuilds and checks points in that
# form.  These are the same routines entry by entry in ``Fraction``s, as the
# library had them before; their results must be equal.

def reference_linear_combination(terms):
    nrows = len(terms[0][0].entries)
    ncols = len(terms[0][0].entries[0]) if nrows else 0
    grid = [[Fraction(0)] * ncols for _ in range(nrows)]
    for x, weight in terms:
        weight = Fraction(weight)
        for i, row in enumerate(x.entries):
            for j, v in enumerate(row):
                if v:
                    grid[i][j] += weight * v
    return FractionalMatching.from_rows(grid)


def reference_from_scaled(denom, rows):
    """``(denominator, numerator rows)`` of ``rows / denom`` as
    ``FractionalMatching._from_scaled`` once brought it to the canonical
    form: the gcd over every cell, zeros included, and, when it is above 1,
    a division of every cell."""
    rows = tuple(map(tuple, rows))
    g = gcd(denom, *itertools.chain.from_iterable(rows)) if denom > 1 else 1
    return denom // g, rows if g == 1 else tuple(tuple(n // g for n in r) for r in rows)


def reference_reconstruct(market, decomposition):
    grid = [[Fraction(0)] * market.n_workers for _ in market.firms]
    for mu, a in decomposition.terms:
        for f, ws in mu.assignment:
            row = grid[market.firm_index(f)]
            for w in ws:
                row[market.worker_index(w)] += a
    return FractionalMatching.from_rows(grid)


def reference_check_almost_integral(market, x):
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


# --- shared random markets -------------------------------------------------

RANDOM_SIZES = [(5, 5, 1), (3, 5, 2), (4, 6, 2)]


def random_markets(nf, nw, qmax):
    return [sf.gen_random_market(seed, nf, nw, qmax, density=density)
            for seed in range(50) for density in (1.0, 0.7)]


# --- rotation-rich random markets --------------------------------------------

# complete 12x12 markets: 13^12 maps, which the pruned search covers in 28-30
# thousand nodes, well inside the default cap
RICH_SIZE = 12


def compare_rich(seed: int) -> tuple[int, int, bool]:
    """The stable-set size of the seed's complete ``RICH_SIZE`` x
    ``RICH_SIZE`` one-to-one market, the nodes the pruned search visits
    there, and whether the rotation search lists the pruned search's set."""
    m = sf.gen_random_market(seed, RICH_SIZE, RICH_SIZE, 1, density=1.0)
    stable, nodes = _search(m)
    return len(stable), nodes, sf.enumerate_stable_via_rotations(m) == stable


# --- cyclic block markets --------------------------------------------------

def cyclic_blocks(sizes: list[int]) -> Market:
    """Independent cyclic latin-square blocks, quota 1 everywhere.

    In a block of size m, firm i ranks worker i+k at k and worker j ranks
    firm j+1+k at k (indices mod m).  Its stable matchings are the m shifts
    (firm i employs worker i+s), linked by a chain of m-1 rotations, so the
    market has prod(sizes) stable matchings and sum(m-1) rotations.
    """
    firms, workers, fpref, wpref = [], [], {}, {}
    for b, m in enumerate(sizes):
        fs = [f"f{b}_{i}" for i in range(m)]
        ws = [f"w{b}_{i}" for i in range(m)]
        for i in range(m):
            fpref[fs[i]] = [ws[(i + k) % m] for k in range(m)]
            wpref[ws[i]] = [fs[(i + 1 + k) % m] for k in range(m)]
        firms += fs
        workers += ws
    return Market(firms, workers, {f: 1 for f in firms}, fpref, wpref)


def cloned_blocks(sizes: list[int], q: int) -> Market:
    """``cyclic_blocks(sizes)`` with each worker cloned ``q`` times and every
    firm of quota ``q``.

    A firm lists the q clones of each worker group next to each other, in
    clone order, and each clone keeps its group's list.  A block of size m
    chains (m - 1) * q rotations, each moving one clone at a firm that keeps
    its other q - 1 staff, so the market has prod((m - 1) * q + 1) stable
    matchings, and the firm-optimal matching exposes one rotation per
    block.
    """
    base = cyclic_blocks(sizes)
    clones = {w: tuple(f"{w}.{c}" for c in range(q)) for w in base.workers}
    return Market(base.firms, [c for w in base.workers for c in clones[w]],
                  dict.fromkeys(base.firms, q),
                  {f: [c for w in base.firm_pref[f] for c in clones[w]]
                   for f in base.firms},
                  {c: base.worker_pref[w] for w in base.workers for c in clones[w]})


# (block sizes, clones per worker) of the spare-firm markets; each gets one
# or two spare firms
SPARE_SIZES = [([2, 2], 1), ([2, 3], 1), ([2, 2, 2], 1), ([3], 2), ([2, 2], 2),
               ([2], 3)]


def spare_blocks(sizes: list[int], q: int, spares: int, seed: int) -> Market:
    """``cloned_blocks(sizes, q)`` with ``spares`` more firms of quota 2, the
    spare firms ``s0``, ``s1``, ...

    Each spare firm lists a seeded random half of the workers, in random
    order, and each of those workers inserts the spare firm at a seeded
    random position of its own list.  A spare firm can draw a worker away
    from its block, so firms stay short of their quotas in markets that keep
    several stable matchings: vacancies on a rich lattice.
    """
    base = cloned_blocks(sizes, q)
    rng = random.Random(f"spare:{sizes}:{q}:{spares}:{seed}")
    names = [f"s{k}" for k in range(spares)]
    firm_pref = dict(base.firm_pref)
    worker_pref = {w: list(fs) for w, fs in base.worker_pref.items()}
    for s in names:
        firm_pref[s] = rng.sample(base.workers, len(base.workers) // 2)
        for w in firm_pref[s]:
            worker_pref[w].insert(rng.randint(0, len(worker_pref[w])), s)
    return Market(base.firms + tuple(names), base.workers,
                  {**base.quota, **dict.fromkeys(names, 2)}, firm_pref, worker_pref)


# --- markets with a prescribed rotation poset --------------------------------

def poset_market(n: int, less: set[tuple[int, int]], q: int = 1) -> Market:
    """A market whose rotation poset is the strict order ``less`` on the
    elements 0..n-1, given closed: it holds (k, i) for every k < i.

    Element i has firms ``a{i}``, ``b{i}`` and workers ``x{i}``, ``y{i}``:

    - a_i lists x_i, then x_k for each k < i, then y_i;
    - b_i lists y_i, x_i;
    - x_i lists b_i, then a_j for each j > i, then a_i;
    - y_i lists a_i, b_i.

    Rotation r_i trades x_i and y_i between a_i and b_i, and for k < i the
    pair (a_i, x_k) blocks exactly when r_i is applied and r_k is not, so
    the stable matchings are the order ideals (Irving & Leather 1986).  With
    ``q > 1`` each worker is cloned q times and every firm has quota q, as
    in ``cloned_blocks``; that market's rotations need not be one per
    element.
    """
    firm_pref, worker_pref = {}, {}
    for i in range(n):
        below = [f"x{k}" for k in range(n) if (k, i) in less]
        above = [f"a{j}" for j in range(n) if (i, j) in less]
        firm_pref[f"a{i}"] = [f"x{i}", *below, f"y{i}"]
        firm_pref[f"b{i}"] = [f"y{i}", f"x{i}"]
        worker_pref[f"x{i}"] = [f"b{i}", *above, f"a{i}"]
        worker_pref[f"y{i}"] = [f"a{i}", f"b{i}"]
    clones = {w: [f"{w}.{c}" for c in range(q)] if q > 1 else [w] for w in worker_pref}
    return Market(list(firm_pref), [c for w in worker_pref for c in clones[w]],
                  dict.fromkeys(firm_pref, q),
                  {f: [c for w in ws for c in clones[w]] for f, ws in firm_pref.items()},
                  {c: fs for w, fs in worker_pref.items() for c in clones[w]})


def random_order(seed: int, n: int, p: float) -> set[tuple[int, int]]:
    """A seeded strict order on 0..n-1, closed: each pair k < i is drawn
    with probability p, and i lies above each drawn k and all below k."""
    rng = random.Random(f"order:{seed}:{n}:{p}")
    below: list[set[int]] = []
    for i in range(n):
        drawn = [k for k in range(i) if rng.random() < p]
        below.append(set(drawn).union(*(below[k] for k in drawn)))
    return {(k, i) for i in range(n) for k in below[i]}


# Strict orders, closed, on 0..n-1: a diamond, the crown on three minimal
# and three maximal elements, and a seeded random order with two joins.
POSETS = {
    "diamond": (4, {(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)}),
    "crown": (6, {(i, 3 + j) for i in range(3) for j in range(3) if i != j}),
    "random": (10, random_order(0, 10, 0.25)),
}


def chain_elements(chain) -> list[int]:
    """The element i of a ``poset_market`` (q = 1) that each rotation of
    its chain belongs to, read off the rotation's firm a_i."""
    return [int(next(f for f in sigma.firms if f.startswith("a"))[1:])
            for sigma in chain.rotations]


def chain_order(chain, n: int) -> set[tuple[int, int]] | None:
    """The strict order on 0..n-1 that the chain of ``poset_market(n,
    less)`` (q = 1) reads off: (k, i) when ``pred`` puts the rotation at
    firm a_k below the one at a_i.  None unless the chain has exactly one
    rotation per element."""
    element = chain_elements(chain)
    if sorted(element) != list(range(n)):
        return None
    return {(element[k], element[j]) for j, mask in enumerate(chain.pred)
            for k in range(n) if mask >> k & 1}


def order_ideals(n: int, less: set[tuple[int, int]]) -> int:
    """The number of down-closed subsets of 0..n-1 under ``less``."""
    below = [sum(1 << k for k in range(n) if (k, i) in less) for i in range(n)]
    return sum(all(below[i] & ~s == 0 for i in range(n) if s >> i & 1)
               for s in range(1 << n))


# --- balanced many-to-one markets -------------------------------------------

def balanced_market(seed: int, nf: int, q: int) -> Market:
    """``nf`` firms of quota ``q`` and ``q * nf`` workers, every list
    complete and in uniform random order: every firm is full in every stable
    matching, so each rotation moves a worker at a firm that keeps other
    staff."""
    rng = random.Random(f"balanced:{seed}:{nf}:{q}")
    firms = tuple(f"f{i}" for i in range(1, nf + 1))
    workers = tuple(f"w{j}" for j in range(1, q * nf + 1))
    return Market(firms, workers, dict.fromkeys(firms, q),
                  {f: tuple(rng.sample(workers, len(workers))) for f in firms},
                  {w: tuple(rng.sample(firms, nf)) for w in workers})


# --- exposures read off the rotation lattice ---------------------------------

def lattice_exposures_agree(market: Market) -> tuple[int, bool]:
    """The number of stable matchings the rotation search lists, and
    whether its masks agree with reductions.

    At every listed matching the rotations read off the masks
    (``rotations._Chain.exposed``) must be ``find_cycles(reduce_profile(...))``,
    and each ``pred[j]`` must be D_j: the intersection of the listed closed
    sets that contain r_j, with r_j itself removed.
    """
    chain = _Chain(market)
    listed = chain.listing()
    below = [~0] * len(chain.rotations)
    for applied in listed.values():
        for j in range(len(chain.rotations)):
            if applied >> j & 1:
                below[j] &= applied
    same = all(p == b & ~(1 << j)
               for j, (p, b) in enumerate(zip(chain.pred, below)))
    same = same and all(
        chain.exposed(applied) == sf.find_cycles(sf.reduce_profile(market, mu))
        for mu, applied in listed.items())
    return len(listed), same


def reference_search(market: Market) -> tuple[dict, list[int]]:
    """``(listed, known)``: the stable matchings, each with the bitmask of
    the chain's rotations applied to reach it, and each rotation's
    predecessors, from a search that is not told the predecessors and
    builds every matching with ``apply_cycle``: the search and the masks
    the rotation search once built while it listed.  It needs only the
    chain's rotations (``rotations._Chain``), not its listing.

    Over the chain's rotations r_j, a depth-first search extends each listed
    closed set by the r_j above its last index.  A candidate whose
    ``known[j]`` lies inside the applied set is kept untested; any other is
    kept when it fits and the child ``is_stable``, and then ``known[j]`` is
    intersected with the applied set.  r_j is exposed exactly at the closed
    sets that contain D_j and not r_j, and the search lists D_j with j among
    its candidates, so ``known[j]`` ends equal to D_j.
    """
    rotations = _Chain(market).rotations
    n = len(rotations)
    known = [(1 << n) - 1] * n
    listed = {}
    stack = [(sf.deferred_acceptance(market, sf.Side.FIRMS), 0, 0)]
    while stack:
        mu, applied, first = stack.pop()
        listed[mu] = applied
        for j in range(first, n):
            try:
                nu = sf.apply_cycle(market, mu, rotations[j])
            except sf.CycleMismatchError:
                continue
            if known[j] & ~applied:
                if not sf.is_stable(market, nu):
                    continue
                known[j] &= applied
            stack.append((nu, applied | 1 << j, j + 1))
    return listed, known


def rotations_at_a_firm_are_ordered(rotations, pred) -> bool:
    """Whether every rotation has each earlier rotation at any of its firms
    among its predecessors: the rotations at one firm form a chain of the
    poset, which lets the rotation search replay a rotation's trade on the
    rows the firm held on the chain."""
    earlier = {}
    for j, sigma in enumerate(rotations):
        for f in sigma.firms:
            mask = earlier.get(f, 0)
            if pred[j] & mask != mask:
                return False
            earlier[f] = mask | 1 << j
    return True


def reference_chain(market: Market) -> list:
    """The rotations of the chain that reduces the whole profile at every
    step, in the order it finds them: from the firm-optimal matching,
    ``find_cycles(reduce_profile(...))``, every exposed rotation applied at
    once, until none is exposed.  ``rotations._Chain`` reads the same
    rotations off one pointer per firm; ``reduce_profile`` gates each step
    on ``is_stable``."""
    mu = sf.deferred_acceptance(market, sf.Side.FIRMS)
    rotations = []
    while True:
        exposed = sf.find_cycles(sf.reduce_profile(market, mu))
        if not exposed:
            return rotations
        rotations.extend(exposed)
        mu = apply_cycle_set(market, mu, exposed)


def chain_agrees(market: Market) -> tuple[int, bool]:
    """The number of rotations on the chain of ``rotations._Chain``, and
    whether they are ``reference_chain``'s in the same order and every
    matching the chain passes, its rotations applied one at a time from the
    firm-optimal matching, is stable."""
    chain = _Chain(market).rotations
    mu = sf.deferred_acceptance(market, sf.Side.FIRMS)
    stable = True
    for sigma in chain:
        mu = sf.apply_cycle(market, mu, sigma)
        stable = stable and sf.is_stable(market, mu)
    return len(chain), stable and chain == reference_chain(market)


def in_any_hull(market, cubes, x):
    """Whether x lies in the cube of some stable matching of ``cubes``
    (matching -> its exposed rotations): the test of every cube, which
    ``hulls._in_a_hull`` narrows to the cube of x's support matching."""
    return any(_cube_coordinates(market, mu, rotations, x) is not None
               for mu, rotations in cubes.items())


# --- the stable-feasibility system row by row -----------------------------
#
# ``polytope`` reads a . v for every row off one prefix-sum pass along the
# agents' lists.  These are the same values row by row: the evaluator as it
# was when each pair looked its cells up by name and every row was compared
# on its own, and the sparse dot product of every row the walks use.

def reference_evaluate(market, x):
    """``polytope._evaluate`` before the pair index: every row bounded in
    turn, each pair's prefix sums built by name lookups."""
    denom, scaled = x._denom, x._nums
    if len(scaled) != market.n_firms or any(
            len(row) != market.n_workers for row in scaled):
        raise ValueError("matrix dimensions do not match the market")
    violations, tight = [], []

    def bound(cid, lhs, rhs, upper):
        slack = rhs * denom - lhs if upper else lhs - rhs * denom
        if slack == 0:
            tight.append(cid)
        elif slack < 0:
            violations.append((cid, Fraction(lhs, denom), Fraction(rhs)))

    for f, row in zip(market.firms, scaled):
        bound(("quota", f), sum(row), market.quota[f], upper=True)
    for w, column in zip(market.workers, zip(*scaled)):
        bound(("unit", w), sum(column), 1, upper=True)
    for f, row in zip(market.firms, scaled):
        acceptable = set(market.acceptable_to_firm(f))
        for w, v in zip(market.workers, row):
            if w in acceptable:
                bound(("nonneg", f, w), v, 0, upper=False)
            elif v:
                violations.append((("zero", f, w), Fraction(v, denom), Fraction(0)))

    pos = {p: k for k, p in enumerate(market.pairs())}.__getitem__
    fidx, widx = market.firm_index, market.worker_index
    n = len(market.pairs())
    entry, firm_sum, worker_sum = [0] * n, [0] * n, [0] * n
    for f, row in zip(market.firms, scaled):
        acc = 0
        for w in market.acceptable_to_firm(f):
            k = pos((f, w))
            entry[k] = row[widx(w)]
            acc += entry[k]
            firm_sum[k] = acc
    for w in market.workers:
        acc, j = 0, widx(w)
        for f in market.acceptable_to_worker(w):
            acc += scaled[fidx(f)][j]
            worker_sum[pos((f, w))] = acc
    for k, (f, w) in enumerate(market.pairs()):
        q = market.quota[f]
        bound(("noblock", f, w), firm_sum[k] - entry[k] + q * worker_sum[k], q,
              upper=False)
    return sf.ConstraintReport(tuple(violations), tuple(tight),
                               _ScaledSums(entry, firm_sum, worker_sum))


def dense_row(market, cid):
    """One constraint's coefficients over the acceptable pairs, in pair
    order, from its definition, before the sign of its  a . x <= b  row."""
    kind, f, *rest = cid
    coeff = {}
    for g, w in market.pairs():
        if kind == "quota":
            coeff[g, w] = int(g == f)
        elif kind == "unit":
            coeff[g, w] = int(w == f)
        elif kind == "nonneg":
            coeff[g, w] = int((g, w) == (f, rest[0]))
        else:
            v = rest[0]
            q = market.quota[f]
            if (g, w) == (f, v):
                coeff[g, w] = q
            elif g == f:
                coeff[g, w] = int(firm_rank(market, f, w) < firm_rank(market, f, v))
            elif w == v:
                coeff[g, w] = q * (worker_rank(market, v, g) < worker_rank(market, v, f))
            else:
                coeff[g, w] = 0
    return [coeff[p] for p in market.pairs()]


def reference_rows(market):
    """Every row  a . x <= b  of the stable-feasibility system, numbered as
    the pair index numbers them: (constraint id, a over the acceptable
    pairs, b), each a read off its definition by ``dense_row``."""
    signed = [(("quota", f), 1, market.quota[f]) for f in market.firms]
    signed += [(("unit", w), 1, 1) for w in market.workers]
    signed += [(("nonneg", f, w), -1, 0) for f, w in market.pairs()]
    signed += [(("noblock", f, w), -1, -market.quota[f]) for f, w in market.pairs()]
    return [(cid, [sign * a for a in dense_row(market, cid)], b)
            for cid, sign, b in signed]


def reference_row_values(market, v):
    """a . v for every row of ``reference_rows``, in its order."""
    return [sum(a * e for a, e in zip(coeffs, v))
            for _, coeffs, _ in reference_rows(market)]


def dense_rank(rows):
    """Dense exact Gaussian elimination over full rows: the reference rank.

    Each basis row is 1 at its pivot and 0 at the pivots before it, so one
    pass over the basis in order clears every pivot of a new row.
    """
    basis = []
    for row in rows:
        v = [Fraction(a) for a in row]
        for p, b in basis:
            if v[p]:
                c = v[p]
                v = [a - c * y if y else a for a, y in zip(v, b)]
        pivot = next((c for c, a in enumerate(v) if a), None)
        if pivot is not None:
            basis.append((pivot, [a / v[pivot] for a in v]))
    return len(basis)


def reference_vertex_test(market, x, rng: random.Random):
    """``is_extreme_point`` from its definition: the dense rank of every
    tight row of ``reference_evaluate``, nonneg rows included, in a shuffled
    order."""
    rows = [dense_row(market, cid) for cid in reference_evaluate(market, x).tight]
    rng.shuffle(rows)
    r = dense_rank(rows)
    return r == len(market.pairs()), r


def _sparse_rows(market):
    """``reference_rows`` as (nonzero coefficients by pair position, b)."""
    return [({c: a for c, a in enumerate(coeffs) if a}, b)
            for _, coeffs, b in reference_rows(market)]


def reference_pair_index(market):
    """``_PairIndex(market)`` as built when the lists read each pair's
    position off a map keyed by (firm, worker), not off its flat cell."""
    pairs, quota, nw = market.pairs(), market.quota, market.n_workers
    pos = {p: k for k, p in enumerate(pairs)}
    index = _PairIndex.__new__(_PairIndex)
    index.cells = [market.firm_index(f) * nw + market.worker_index(w) for f, w in pairs]
    index.quota = [quota[f] for f, _ in pairs]
    index.firm = _Lists([[pos[f, w] for w in market.acceptable_to_firm(f)]
                         for f in market.firms])
    index.worker = _Lists([[pos[f, w] for f in market.acceptable_to_worker(w)]
                           for w in market.workers])
    index.bound = [*(quota[f] for f in market.firms), *[1] * nw,
                   *[0] * len(pairs), *[-q for q in index.quota]]
    return index


# --- Fraction elimination and walks -----------------------------------------
#
# The library keeps its basis rows and walk points in integers.  These are
# the same algorithms over ``Fraction``s: a basis row normalized to 1 at its
# pivot, a null vector with 1 at its free column, and a walk point held entry
# by entry.  Every rank, pivot set, point, trace and rng draw must agree.

class ReferenceRref:
    """Reduced row-echelon basis of sparse ``Fraction`` rows, pivot 1."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}   # pivot column -> reduced row

    @property
    def rank(self):
        return len(self.rows)

    def pivot_columns(self):
        return set(self.rows)

    def add(self, vector):
        v = {c: Fraction(a) for c, a in vector.items() if a}
        for p, row in self.rows.items():
            if p in v:
                _subtract(v, v[p], row)
        if not v:
            return False
        pivot = min(v)
        pv = v[pivot]
        v = {c: a / pv for c, a in v.items()}
        for row in self.rows.values():
            if pivot in row:
                _subtract(row, row[pivot], v)
        self.rows[pivot] = v
        return True

    def null_vector(self, free_col):
        if free_col in self.rows:
            raise ValueError("free_col is a pivot column")
        v = [Fraction(0)] * self.ncols
        v[free_col] = Fraction(1)
        for p, row in self.rows.items():
            if free_col in row:
                v[p] = -row[free_col]
        return v


def _subtract(target, factor, row):
    """target -= factor * row, dropping entries that cancel to zero."""
    for c, b in row.items():
        a = target.get(c, 0) - factor * b
        if a:
            target[c] = a
        else:
            del target[c]


def _dot(a, b):
    return sum((u * b[c] for c, u in a.items()), Fraction(0))


def _step_length(rows, vec, direction):
    best = None
    for coeffs, b in rows:
        ad = _dot(coeffs, direction)
        if ad > 0:
            t = (b - _dot(coeffs, vec)) / ad
            if best is None or t < best:
                best = t
    if best is None or best <= 0:
        raise AssertionError(f"ratio test gave no positive step ({best})")
    return best


def from_pair_values(market, values):
    """The matrix with ``values`` on the acceptable pairs, zero elsewhere."""
    grid = [[Fraction(0)] * market.n_workers for _ in market.firms]
    for (f, w), v in zip(market.pairs(), values):
        grid[market.firm_index(f)][market.worker_index(w)] = Fraction(v)
    return sf.FractionalMatching.from_rows(grid)


def reference_interior_walk(market, x, rng: random.Random, steps=4):
    check_stable_feasibility(market, x).require()
    n = len(market.pairs())
    if n == 0:
        return x
    vec = list(flatten(market, x))
    rows = _sparse_rows(market)

    for _ in range(steps):
        tight = [row for row in rows if _dot(row[0], vec) == row[1]]
        if not tight:
            break
        rng.shuffle(tight)
        moved = False
        for dropped in tight[:6]:
            basis = ReferenceRref(n)
            for row in tight:
                if row is not dropped:
                    basis.add(row[0])
            if basis.rank == n:
                continue
            free = [c for c in range(n) if c not in basis.pivot_columns()]
            rng.shuffle(free)
            for col in free:
                direction = basis.null_vector(col)
                s = _dot(dropped[0], direction)
                if s == 0:
                    continue
                if s > 0:
                    direction = [-v for v in direction]
                best = _step_length(rows, vec, direction)
                vec = [v + (best / 2) * d for v, d in zip(vec, direction)]
                moved = True
                break
            if moved:
                break
        if not moved:
            break
    return from_pair_values(market, vec)


def reference_vertex_walk(market, x, rng: random.Random, trace=None):
    check_stable_feasibility(market, x).require()
    n = len(market.pairs())
    if n == 0:
        return x
    vec = list(flatten(market, x))
    rows = _sparse_rows(market)

    basis = ReferenceRref(n)
    for coeffs, b in rows:
        if _dot(coeffs, vec) == b:
            basis.add(coeffs)
    while basis.rank < n:
        pivots = basis.pivot_columns()
        free = [c for c in range(n) if c not in pivots]
        direction = basis.null_vector(rng.choice(free))
        if rng.random() < 0.5:
            direction = [-v for v in direction]
        best = _step_length(rows, vec, direction)
        vec = [v + best * d for v, d in zip(vec, direction)]
        for coeffs, b in rows:
            if _dot(coeffs, vec) == b:
                basis.add(coeffs)
        if trace is not None:
            trace.append(from_pair_values(market, vec))
    return from_pair_values(market, vec)


def walk_pair(market, x, seed, interior, vertex):
    """``interior`` then ``vertex`` walk from x with one rng seeded by ``seed``.

    Returns (start, endpoint, trace, next rng draw), the four things the
    integer walks and their references must agree on.
    """
    rng = random.Random(seed)
    start = interior(market, x, rng)
    trace = []
    end = vertex(market, start, rng, trace=trace)
    return start, end, trace, rng.random()


# --- the text parsers before they read each line once ---------------------
#
# ``parse_market`` and ``parse_fractional`` as they were when every id had
# its own regex test, undeclared names were checked entry by entry, the
# pruning built a set per list on both sides and every matrix token was
# read.  ``reference_caches`` is ``Market``'s table building of that time.

_REF_ID_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")
_REF_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")
_REF_INTEGER_RE = re.compile(r"^-?[0-9]+$")


def _reference_prune_mutual(firm_pref, worker_pref, warn):
    def mutual(side, prefs, back):
        listed = {b: set(lst) for b, lst in back.items()}
        out = {}
        for a, lst in prefs.items():
            out[a] = tuple(b for b in lst if a in listed.get(b, ()))
            if warn:
                for b in lst:
                    if a not in listed.get(b, ()):
                        warnings.warn(
                            f"dropping one-sided pair: {side} {a} lists {b} "
                            f"but {b} does not list {a}",
                            sf.OneSidedPreferenceWarning, stacklevel=4)
        return out
    return (mutual("firm", firm_pref, worker_pref),
            mutual("worker", worker_pref, firm_pref))


def _reference_parse_ids(text, lineno):
    ids = tuple(text.split())
    for name in ids:
        if not _REF_ID_RE.match(name):
            raise sf.ParseError(f"invalid id {name!r}", lineno)
    if len(set(ids)) != len(ids):
        raise sf.ParseError("duplicate ids", lineno)
    return ids


def reference_parse_market(text):
    ids = {}
    quota = {}
    prefs = {"firm": {}, "worker": {}}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("quota:"):
            for token in line[len("quota:"):].split():
                name, sep, val = token.partition("=")
                if not sep:
                    raise sf.ParseError(f"bad quota token {token!r}", lineno)
                if not _REF_INTEGER_RE.match(val):
                    raise sf.ParseError(f"bad quota value {val!r}", lineno)
                q = int(val)
                if q < 1:
                    raise sf.ParseError(f"quota of {name} must be at least 1", lineno)
                if name in quota:
                    raise sf.ParseError(f"repeated quota for {name}", lineno)
                quota[name] = (q, lineno)
            continue
        side = "firm" if line.startswith("firm") else \
            "worker" if line.startswith("worker") else ""
        tail = line[len(side):] if side else ""
        if tail.startswith("s:"):
            if side in ids:
                raise sf.ParseError(f"repeated {side}s: line", lineno)
            ids[side] = _reference_parse_ids(tail[2:], lineno)
        elif tail.startswith(" "):
            head, sep, rest = tail.partition(":")
            if not sep:
                raise sf.ParseError(f"missing ':' in {side} line", lineno)
            name = head.strip()
            if name in prefs[side]:
                raise sf.ParseError(
                    f"repeated preference line for {side} {name}", lineno)
            prefs[side][name] = (_reference_parse_ids(rest, lineno), lineno)
        else:
            raise sf.ParseError(f"unrecognized line {line!r}", lineno)

    for side in prefs:
        if side not in ids:
            raise sf.ParseError(f"missing {side}s: line")
    firms, workers = ids["firm"], ids["worker"]
    declared = {side: set(ids[side]) for side in prefs}
    for name, (_, lineno) in quota.items():
        if name not in declared["firm"]:
            raise sf.ParseError(f"quota for undeclared firm {name}", lineno)
    for side, other in (("firm", "worker"), ("worker", "firm")):
        known = declared[other]
        for name, (lst, lineno) in prefs[side].items():
            if name not in declared[side]:
                raise sf.ParseError(
                    f"preference line for undeclared {side} {name}", lineno)
            for b in lst:
                if b not in known:
                    raise sf.ParseError(
                        f"{side} {name} lists undeclared {other} {b}", lineno)

    lists = {side: {a: prefs[side].get(a, ((), 0))[0] for a in ids[side]}
             for side in prefs}
    firm_lists, worker_lists = _reference_prune_mutual(
        lists["firm"], lists["worker"], warn=True)
    quotas = {f: quota.get(f, (1, 0))[0] for f in firms}
    try:
        return Market(firms, workers, quotas, firm_lists, worker_lists)
    except ValueError as exc:
        raise sf.ParseError(str(exc)) from exc


def reference_parse_fractional(market, text):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(rows) == len(market.firms):
            raise sf.ParseError(
                f"expected {market.n_firms} rows, found more", lineno)
        tokens = line.split()
        if len(tokens) != market.n_workers:
            raise sf.ParseError(
                f"expected {market.n_workers} entries, found {len(tokens)}", lineno)
        f = market.firms[len(rows)]
        row = []
        for j, token in enumerate(tokens):
            if token == "0":
                row.append((0, 1))
                continue
            num, _, den = token.partition("/")
            if not _REF_RATIONAL_RE.match(token) or (den and not int(den)):
                raise sf.ParseError(f"bad rational token {token!r}", lineno)
            n = int(num)
            w = market.workers[j]
            if n < 0:
                raise sf.ParseError(f"negative entry for ({f},{w})", lineno)
            if n and not market.acceptable(f, w):
                raise sf.ParseError(
                    f"nonzero entry for non-acceptable pair ({f},{w})", lineno)
            row.append((n, int(den or 1)))
        rows.append(row)
    if not market.n_workers:        # every row of an n x 0 matrix is blank
        rows = [[] for _ in market.firms]
    if len(rows) != market.n_firms:
        raise sf.ParseError(
            f"expected {market.n_firms} rows, found {len(rows)}")
    denom = lcm(*{d for row in rows for _, d in row})
    return FractionalMatching._from_scaled(
        denom, [[n * (denom // d) for n, d in row] for row in rows])


CACHES = ("_findex", "_windex", "_frank", "_wrank", "_firm_acc", "_worker_acc",
          "_pairs")


def reference_caches(market):
    """The tables ``Market`` keeps, built from its lists as they once were,
    by name; ``Market.__eq__`` compares none of them."""
    findex = {f: i for i, f in enumerate(market.firms)}
    windex = {w: j for j, w in enumerate(market.workers)}
    frank = {f: {w: r for r, w in enumerate(market.firm_pref[f])} for f in market.firms}
    wrank = {w: {f: r for r, f in enumerate(market.worker_pref[w])} for w in market.workers}
    firm_acc = {
        f: tuple(w for w in market.firm_pref[f] if f in wrank[w])
        for f in market.firms}
    worker_acc = {
        w: tuple(f for f in market.worker_pref[w] if w in frank[f])
        for w in market.workers}
    pairs = tuple((f, w) for f in market.firms
                  for w in sorted(firm_acc[f], key=windex.__getitem__))
    return dict(zip(CACHES, (findex, windex, frank, wrank, firm_acc, worker_acc,
                             pairs)))

"""Cross-check the three stable-set enumerators, the rotation chain and the
walks on random markets.

Compares ``enumerate_stable_bruteforce``'s pruned search
(``stability._search``, which also counts the nodes it visits), the
exhaustive scan in ``oracles.reference_enumerate_stable`` and
``enumerate_stable_via_rotations`` on ``gen_random_market`` instances: 9
sizes, seeds 0-449, densities 1.0 and 0.7, 8100 instances in all.  On every
instance it also checks ``deferred_acceptance`` from both sides: the firms'
run must give the reference set's firm-best member, the one in the set that
``oracles.dominates`` every member for the firms, and the workers' run its
worker-best member, the same for the workers.  At every stable matching
it compares the lists of ``reduce_profile`` with
``oracles.reference_reduced_lists``.  On every instance with
several stable matchings it also runs ``interior_walk`` and then
``vertex_walk`` from a random mix of the stable matchings, once in integers
and once with the ``Fraction`` references, from the same seed, and compares
the start, endpoint, trace and next rng draw; at the mix, the walk's start
and its endpoint it compares ``is_extreme_point``, which ranks the tight
rows on the point's support, with the dense rank of every tight row
(``oracles.reference_vertex_test``), and at the mix and the endpoint it
compares ``strong_stability_check``'s verdict, first failing pair and
every pair's factors with the definition (``oracles.reference_condition``).
Then, on complete 12x12 one-to-one markets, which are rich in rotations,
it compares ``enumerate_stable_via_rotations`` with the pruned search alone
(``oracles.compare_rich``, seeds 0 to min(N, 100) - 1; the search visits
28-30 thousand nodes of their 13^12 maps).  Then, on
balanced many-to-one markets (``oracles.balanced_market``: every firm of
quota q, q times as many workers, complete lists; seeds 0 to
min(N, 100) - 1), it checks at every
stable matching that the exposures read off the rotation search's masks
are those of ``reduce_profile`` (``oracles.lattice_exposures_agree``) and
that the base is stable and firm-optimal in its reduced lists rebuilt as a
market (``oracles.reduced_lists_keep_the_base``), and at 6x12 and 8x16
(q = 2) and 6x18 (q = 3) that the rotation search lists the pruned
search's set.  Last, on markets where firms stay short of their quotas and
the pruned search's vacancy cut fires, it compares the pruned search with
the exhaustive scan and the rotation search: sparse lists (density 0.3 to
0.5, quotas up to 3) and more firms than workers (6x4 and 5x3), seeds 0 to
N - 1 per size (``VACANCY_SIZES``), and ``oracles.cyclic_blocks`` with
blocks [2]*4, [3, 3] and [2, 3].  Then, on vacancies in rich lattices,
cloned blocks with one or two spare firms of quota 2 (``oracles.spare_blocks``
over ``oracles.SPARE_SIZES``, seeds 0 to min(N, 20) - 1), it compares the
same three and counts the markets with several stable matchings, each of
which must have a firm short of its quota, and those where a spare firm
hires.  Last, on many-to-one markets rich in
rotations (``oracles.cloned_blocks``, ``CLONED_BLOCKS``), it compares the
pruned search with the rotation search, the exhaustive scan too where it
is small enough, and checks the chain, the predecessors and the listing
as on the first three families, and the exposures as on the balanced
markets.  Last, on markets with a prescribed rotation poset
(``oracles.poset_market``) of random orders (``oracles.random_order``: 4 to
12 elements, edge probabilities 0.1, 0.25 and 0.5, seeds 0 to min(N, 50) -
1), it checks that the chain's predecessor masks are the order
(``oracles.chain_order``) and that the listing has one matching per order
ideal, and at every fourth seed that it is the pruned search's set and
that ``verify_characterization(m, 0, 25)`` is ok, which runs the hull
certificates on rotation posets with joins; it prints the negative density
of those runs' mixes, summed.  Then, on the same random orders of 3 to 7
elements with every worker cloned and every quota 2 (``poset_market(n,
less, q=2)``, seeds 0 to min(N, 20) - 1), whose rotations are no longer one
per element, it checks that the listing is the pruned search's set.

On every instance of the first three families, and on complete 20x20
one-to-one markets (seeds 0 to min(N, 100) - 1), it also compares the
rotation search's chain, read off one pointer per firm, with the chain
that reduces the whole profile at every step (``oracles.reference_chain``):
the same rotations in the same order, and every matching the pointer
chain passes stable (``oracles.chain_agrees``).  On the same instances it
compares the rotation search with a search that is not told the
predecessors and builds every matching with ``apply_cycle``
(``oracles.reference_search``): each rotation's predecessor mask, read off
the chain, with the mask that search learns, and the matchings the search
lists by replaying each rotation's row trade, with their masks, with those
it lists.  It also checks that the rotations at each firm form a chain of
the poset (``oracles.rotations_at_a_firm_are_ordered``), which makes the
replay exact.

Prints the counts, with the nodes the pruned search visited per family,
so a lost cut shows as a larger count, and exits 1 on any disagreement.
Not collected by pytest (``test_rotations.py`` runs three rich seeds
through ``compare_rich``, and this script with ``--seeds 1``); run from the
repository root:

    PYTHONPATH=src python tests/sweep_oracles.py [--seeds N]

The full sweep took 5 min 19 s on one core of a 2-vCPU VM;
the exhaustive scan of the (6, 6, 1) and (5, 6, 2) markets takes about 2
minutes of it, and the spare-firm blocks about 9 s.
Each rich market takes the pruned search 0.1-0.16 s.  The random-order
family takes about 5 s (1350 poset markets, 158270 stable matchings), and
its 351 verify runs 33 s; the cloned random orders take 3 s (300 markets,
43944 stable matchings).  With ``--seeds 20`` the sweep takes about 37 s.
"""

import argparse
import random
import sys

import stablefrac as sf
from oracles import (RICH_SIZE, SPARE_SIZES, balanced_market, chain_agrees, chain_order,
                     cloned_blocks, compare_rich, cyclic_blocks, dominates,
                     lattice_exposures_agree, order_ideals, poset_market,
                     random_order,
                     reduced_lists_keep_the_base, reference_condition,
                     reference_enumerate_stable, reference_interior_walk,
                     reference_reduced_lists, reference_search,
                     reference_vertex_test, reference_vertex_walk,
                     rotations_at_a_firm_are_ordered, spare_blocks, walk_pair)
from stablefrac.hulls import _random_mix
from stablefrac.polytope import interior_walk, is_extreme_point, vertex_walk
from stablefrac.rotations import _Chain
from stablefrac.stability import _search

SIZES = [(5, 5, 1), (3, 5, 2), (4, 6, 2), (4, 5, 3), (3, 6, 3), (5, 6, 2),
         (6, 6, 1), (4, 4, 2), (2, 6, 3)]
DENSITIES = (1.0, 0.7)
RICH_SEEDS = 100
LARGE_SIZE = 20     # complete one-to-one markets: chains and predecessors only
# (firms, quota, compared with the pruned search) per balanced size
BALANCED = [(6, 2, True), (8, 2, True), (6, 3, True), (10, 2, False),
            (8, 3, False)]
BALANCED_SEEDS = 100
# (firms, workers, qmax, density): sparse lists and more firms than workers,
# where firms stay short of their quotas and the pruned search's vacancy cut
# fires; and cyclic block markets small enough for the exhaustive scan
VACANCY_SIZES = [(4, 6, 3, 0.3), (5, 7, 3, 0.4), (4, 6, 3, 0.5),
                 (6, 4, 1, 0.7), (6, 4, 2, 1.0), (5, 3, 1, 1.0), (5, 3, 2, 1.0)]
VACANCY_BLOCKS = [[2] * 4, [3, 3], [2, 3]]
SPARE_SEEDS = 20
# (block sizes, clones per worker, compared with the exhaustive scan)
CLONED_BLOCKS = [([2], 2, True), ([3], 2, True), ([2], 3, True),
                 ([2, 2], 2, True), ([2] * 4, 2, False), ([2] * 3, 3, False),
                 ([3, 3], 3, False), ([2] * 6, 2, False)]
# random orders for poset markets: elements, edge probabilities and seeds;
# the listing is compared with the pruned search at every ORDER_ORACLE-th seed
ORDER_SIZES = range(4, 13)
ORDER_DENSITIES = (0.1, 0.25, 0.5)
ORDER_SEEDS = 50
ORDER_ORACLE = 4
# cloned random orders (quota 2): elements and seeds; the listing is
# compared with the pruned search on every one
CLONED_ORDER_SIZES = range(3, 8)
CLONED_ORDER_SEEDS = 20


def condition_agrees(m, x) -> bool:
    """Whether ``strong_stability_check`` gives the definition's verdict,
    first failing pair and every pair's factors at x."""
    report, want = sf.strong_stability_check(m, x), reference_condition(m, x)
    failing = [c for c in want if c.product]
    return (report.overall == (not failing)
            and report.first_failure() == next(iter(failing), None)
            and report.pairs == want)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=450,
                        help="seeds 0..N-1 per size and density (default 450)")
    args = parser.parse_args(argv)
    instances = multi = profiles = chains = chain_rotations = edges = 0
    conditions = 0
    searched = size_nodes = 0
    disagreements = []

    def compare_chain(m, name, *where):
        nonlocal chains, chain_rotations, edges, searched
        count, same = chain_agrees(m)
        chains += 1
        chain_rotations += count
        if not same:
            disagreements.append((name, *where))
        chain = _Chain(m)
        listed, pred = chain.listing(), chain.pred
        edges += sum(bin(mask).count("1") for mask in pred)
        reference_listed, reference_pred = reference_search(m)
        if pred != reference_pred or \
                not rotations_at_a_firm_are_ordered(chain.rotations, pred):
            disagreements.append((f"{name} predecessors", *where))
        searched += len(listed)
        if listed != reference_listed:
            disagreements.append((f"{name} listing", *where))

    for nf, nw, qmax in SIZES:
        for seed in range(args.seeds):
            for density in DENSITIES:
                m = sf.gen_random_market(seed, nf, nw, qmax, density=density)
                reference = reference_enumerate_stable(m)
                oracle, nodes = _search(m)
                size_nodes += nodes
                found = {"bruteforce": oracle,
                         "rotations": sf.enumerate_stable_via_rotations(m)}
                for name, stable in found.items():
                    if stable != reference:
                        disagreements.append((name, nf, nw, qmax, seed, density))
                compare_chain(m, "chain", nf, nw, qmax, seed, density)
                for side, agents in ((sf.Side.FIRMS, m.firms),
                                     (sf.Side.WORKERS, m.workers)):
                    best = sf.deferred_acceptance(m, side)
                    if best not in reference or not all(
                            dominates(m, best, mu, agents) for mu in reference):
                        disagreements.append((f"deferred acceptance ({side.value})",
                                              nf, nw, qmax, seed, density))
                for mu in reference:
                    red = sf.reduce_profile(m, mu)
                    if (red.firm_lists, red.worker_lists) != \
                            reference_reduced_lists(m, mu):
                        disagreements.append(("reduce_profile", nf, nw, qmax,
                                              seed, density))
                    profiles += 1
                instances += 1
                if len(reference) > 1:
                    multi += 1
                    key = f"{nf},{nw},{qmax}:{seed}:{density}"
                    x = _random_mix(m, sorted(reference, key=lambda mu: mu.assignment),
                                    random.Random(key))
                    walked = walk_pair(m, x, key, interior_walk, vertex_walk)
                    if walked != walk_pair(m, x, key, reference_interior_walk,
                                           reference_vertex_walk):
                        disagreements.append(("walks", nf, nw, qmax, seed, density))
                    rng = random.Random(key)
                    if any(is_extreme_point(m, p) != reference_vertex_test(m, p, rng)
                           for p in (x, *walked[:2])):
                        disagreements.append(("vertex test", nf, nw, qmax, seed,
                                              density))
                    for p in (x, walked[1]):
                        conditions += 1
                        if not condition_agrees(m, p):
                            disagreements.append(("strong stability", nf, nw, qmax,
                                                  seed, density))
        print(f"size {(nf, nw, qmax)}: {instances} instances so far, "
              f"{multi} with several stable matchings, {size_nodes} oracle "
              "nodes at this size", flush=True)
        size_nodes = 0
    rich_seeds = min(args.seeds, RICH_SEEDS)
    rich_listed = rich_nodes = 0
    for seed in range(rich_seeds):
        size, nodes, same = compare_rich(seed)
        rich_listed += size
        rich_nodes += nodes
        if not same:
            disagreements.append(("rich rotations", RICH_SIZE, RICH_SIZE, 1,
                                  seed, 1.0))
        compare_chain(sf.gen_random_market(seed, RICH_SIZE, RICH_SIZE, 1,
                                           density=1.0),
                      "rich chain", RICH_SIZE, RICH_SIZE, 1, seed, 1.0)
    print(f"rich family: {rich_seeds} markets, {rich_listed} stable "
          f"matchings, {rich_nodes} oracle nodes", flush=True)
    for seed in range(rich_seeds):
        compare_chain(sf.gen_random_market(seed, LARGE_SIZE, LARGE_SIZE, 1,
                                           density=1.0),
                      "large chain", LARGE_SIZE, LARGE_SIZE, 1, seed, 1.0)
    print(f"large family: {rich_seeds} complete {LARGE_SIZE}x{LARGE_SIZE} "
          "markets", flush=True)
    balanced_seeds = min(args.seeds, BALANCED_SEEDS)
    for nf, q, oracle in BALANCED:
        balanced_listed = balanced_nodes = 0
        for seed in range(balanced_seeds):
            m = balanced_market(seed, nf, q)
            compare_chain(m, "balanced chain", nf, q * nf, q, seed, 1.0)
            size, same = lattice_exposures_agree(m)
            balanced_listed += size
            if not same:
                disagreements.append(("balanced exposures", nf, q * nf, q,
                                      seed, 1.0))
            if not all(reduced_lists_keep_the_base(m, mu)
                       for mu in sf.enumerate_stable_via_rotations(m)):
                disagreements.append(("balanced reduced market", nf, q * nf,
                                      q, seed, 1.0))
            if oracle:
                stable, nodes = _search(m)
                balanced_nodes += nodes
                if sf.enumerate_stable_via_rotations(m) != stable:
                    disagreements.append(("balanced rotations", nf, q * nf, q,
                                          seed, 1.0))
        print(f"balanced {nf}x{q * nf}, q = {q}: {balanced_seeds} markets, "
              f"{balanced_listed} stable matchings"
              + (f", {balanced_nodes} oracle nodes" if oracle else ""),
              flush=True)
    vacancy_markets = [((nf, nw, qmax), seed, density,
                        sf.gen_random_market(seed, nf, nw, qmax, density=density))
                       for nf, nw, qmax, density in VACANCY_SIZES
                       for seed in range(args.seeds)]
    vacancy_markets += [((sum(sizes), sum(sizes), 1), sizes, 1.0,
                         cyclic_blocks(sizes)) for sizes in VACANCY_BLOCKS]
    vacancy_listed = vacancy_nodes = 0
    for size, seed, density, m in vacancy_markets:
        stable, nodes = _search(m)
        vacancy_listed += len(stable)
        vacancy_nodes += nodes
        if not stable == reference_enumerate_stable(m) == \
                sf.enumerate_stable_via_rotations(m):
            disagreements.append(("vacancy-rich", *size, seed, density))
    print(f"vacancy-rich family: {len(vacancy_markets)} markets, "
          f"{vacancy_listed} stable matchings, {vacancy_nodes} oracle nodes",
          flush=True)
    spare_markets = spare_several = spare_hiring = spare_listed = spare_nodes = 0
    for sizes, q in SPARE_SIZES:
        for spares in (1, 2):
            for seed in range(min(args.seeds, SPARE_SEEDS)):
                m = spare_blocks(sizes, q, spares, seed)
                where = (len(m.firms), len(m.workers), q, seed, sizes)
                stable, nodes = _search(m)
                spare_markets += 1
                spare_listed += len(stable)
                spare_nodes += nodes
                if not stable == reference_enumerate_stable(m) == \
                        sf.enumerate_stable_via_rotations(m):
                    disagreements.append(("spare firms", *where))
                if len(stable) > 1:
                    spare_several += 1
                    if all(len(mu.matched(f)) == m.quota[f]
                           for mu in stable for f in m.firms):
                        disagreements.append(("spare firms, no vacancy", *where))
                    spare_hiring += any(mu.matched(f) for mu in stable
                                        for f in m.firms[len(m.firms) - spares:])
    print(f"spare-firm blocks: {spare_markets} markets, {spare_several} with "
          f"several stable matchings, a spare firm hiring in {spare_hiring} of "
          f"them, {spare_listed} stable matchings, {spare_nodes} oracle nodes",
          flush=True)
    cloned_listed = cloned_nodes = 0
    for sizes, q, scanned in CLONED_BLOCKS:
        m = cloned_blocks(sizes, q)
        where = (len(m.firms), len(m.workers), q, sizes, 1.0)
        stable, nodes = _search(m)
        cloned_listed += len(stable)
        cloned_nodes += nodes
        if sf.enumerate_stable_via_rotations(m) != stable or \
                scanned and reference_enumerate_stable(m) != stable:
            disagreements.append(("cloned blocks", *where))
        compare_chain(m, "cloned chain", *where)
        if lattice_exposures_agree(m) != (len(stable), True):
            disagreements.append(("cloned exposures", *where))
    print(f"cloned blocks: {len(CLONED_BLOCKS)} markets, {cloned_listed} "
          f"stable matchings, {cloned_nodes} oracle nodes", flush=True)
    order_seeds = min(args.seeds, ORDER_SEEDS)
    orders = order_listed = order_nodes = verified = negatives = mixes = 0
    for n in ORDER_SIZES:
        for p in ORDER_DENSITIES:
            for seed in range(order_seeds):
                less = random_order(seed, n, p)
                m = poset_market(n, less)
                chain = _Chain(m)
                listed = chain.listing()
                orders += 1
                order_listed += len(listed)
                if chain_order(chain, n) != less or \
                        len(listed) != order_ideals(n, less):
                    disagreements.append(("poset market", n, n, 1, seed, p))
                if seed % ORDER_ORACLE == 0:
                    stable, nodes = _search(m)
                    order_nodes += nodes
                    if listed.keys() != stable:
                        disagreements.append(("poset listing", n, n, 1, seed, p))
                    report = sf.verify_characterization(m, 0, 25)
                    verified += 1
                    if not report.ok:
                        disagreements.append(("poset verify", n, n, 1, seed, p))
                    negatives += report.mixes_refused
                    mixes += report.mixes_drawn
    print(f"random orders: {orders} poset markets, {order_listed} stable "
          f"matchings, {order_nodes} oracle nodes; {verified} verify runs, "
          f"negative density {negatives}/{mixes}", flush=True)
    cloned_orders = cloned_order_listed = cloned_order_nodes = most = 0
    for n in CLONED_ORDER_SIZES:
        for p in ORDER_DENSITIES:
            for seed in range(min(args.seeds, CLONED_ORDER_SEEDS)):
                m = poset_market(n, random_order(seed, n, p), q=2)
                chain = _Chain(m)
                listed = chain.listing()
                stable, nodes = _search(m)
                cloned_orders += 1
                cloned_order_listed += len(listed)
                cloned_order_nodes += nodes
                most = max(most, len(chain.rotations))
                if listed.keys() != stable:
                    disagreements.append(("cloned poset listing", n, n, 2,
                                          seed, p))
    print(f"cloned random orders: {cloned_orders} poset markets (q = 2), "
          f"{cloned_order_listed} stable matchings, at most {most} rotations, "
          f"{cloned_order_nodes} oracle nodes", flush=True)
    for name, *where in disagreements:
        print(f"DISAGREE {name}: size {tuple(where[:3])} seed {where[3]} "
              f"density {where[4]}")
    print(f"{instances} instances, {multi} with several stable matchings "
          f"(walks and vertex tests compared on each), {conditions} strong stability "
          f"reports, {profiles} reduced profiles, "
          f"{chains} chains ({chain_rotations} rotations, {edges} "
          f"predecessor pairs, {searched} matchings listed), "
          f"{len(disagreements)} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())

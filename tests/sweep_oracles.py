"""Cross-check the three stable-set enumerators, the rotation chain and the
walks on random markets.

Compares ``enumerate_stable_bruteforce`` (the pruned search), the exhaustive
scan in ``oracles.reference_enumerate_stable`` and
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
the start, endpoint, trace and next rng draw.  Then, on complete 12x12
one-to-one markets, which are rich in rotations, it compares
``enumerate_stable_via_rotations`` with ``enumerate_stable_bruteforce``
alone (``oracles.compare_rich``, seeds 0 to min(N, 100) - 1; the default cap
refuses their 13^12 candidate maps).  Last, on balanced many-to-one markets
(``oracles.balanced_market``: every firm of quota q, q times as many
workers, complete lists; seeds 0 to min(N, 100) - 1), it checks at every
stable matching that the exposures read off the rotation search's masks
are those of ``reduce_profile`` (``oracles.lattice_exposures_agree``) and
that the base is stable and firm-optimal in its reduced lists rebuilt as a
market (``oracles.reduced_lists_keep_the_base``), and at 6x12 and 8x16
(q = 2) and 6x18 (q = 3) that the rotation search lists the pruned
search's set, with its cap lifted to ``BALANCED_CAP``.

On every instance of all three families it also compares the rotation
search's chain, read off one pointer per firm, with the chain that reduces
the whole profile at every step (``oracles.reference_chain``): the same
rotations in the same order, and every matching the pointer chain passes
stable (``oracles.chain_agrees``).

Prints the counts and exits 1 on any disagreement.  Not collected by pytest
(``test_rotations.py`` runs three rich seeds through ``compare_rich``); run
from the repository root:

    PYTHONPATH=src python tests/sweep_oracles.py [--seeds N]

The full sweep took about 6 minutes on one core of a 2-vCPU VM; the
exhaustive scan of the (6, 6, 1) and (5, 6, 2) markets dominates.  Each
rich market takes the pruned search 0.2-0.3 s.
"""

import argparse
import random
import sys

import stablefrac as sf
from oracles import (RICH_SIZE, balanced_market, chain_agrees, compare_rich,
                     dominates, lattice_exposures_agree,
                     reduced_lists_keep_the_base,
                     reference_enumerate_stable, reference_interior_walk,
                     reference_reduced_lists, reference_vertex_walk, walk_pair)
from stablefrac.hulls import _random_mix
from stablefrac.polytope import interior_walk, vertex_walk

SIZES = [(5, 5, 1), (3, 5, 2), (4, 6, 2), (4, 5, 3), (3, 6, 3), (5, 6, 2),
         (6, 6, 1), (4, 4, 2), (2, 6, 3)]
DENSITIES = (1.0, 0.7)
RICH_SEEDS = 100
# (firms, quota, compared with the pruned search) per balanced size
BALANCED = [(6, 2, True), (8, 2, True), (6, 3, True), (10, 2, False),
            (8, 3, False)]
BALANCED_SEEDS = 100
BALANCED_CAP = 10 ** 16     # 9^16 and 7^18 candidate maps at 8x16 and 6x18


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=450,
                        help="seeds 0..N-1 per size and density (default 450)")
    args = parser.parse_args(argv)
    instances = multi = profiles = chains = chain_rotations = 0
    disagreements = []

    def compare_chain(m, name, *where):
        nonlocal chains, chain_rotations
        count, same = chain_agrees(m)
        chains += 1
        chain_rotations += count
        if not same:
            disagreements.append((name, *where))

    for nf, nw, qmax in SIZES:
        for seed in range(args.seeds):
            for density in DENSITIES:
                m = sf.gen_random_market(seed, nf, nw, qmax, density=density)
                reference = reference_enumerate_stable(m)
                found = {"bruteforce": sf.enumerate_stable_bruteforce(m),
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
                    if (walk_pair(m, x, key, interior_walk, vertex_walk)
                            != walk_pair(m, x, key, reference_interior_walk,
                                         reference_vertex_walk)):
                        disagreements.append(("walks", nf, nw, qmax, seed, density))
        print(f"size {(nf, nw, qmax)}: {instances} instances so far, "
              f"{multi} with several stable matchings", flush=True)
    rich_seeds = min(args.seeds, RICH_SEEDS)
    rich_listed = 0
    for seed in range(rich_seeds):
        size, same = compare_rich(seed)
        rich_listed += size
        if not same:
            disagreements.append(("rich rotations", RICH_SIZE, RICH_SIZE, 1,
                                  seed, 1.0))
        compare_chain(sf.gen_random_market(seed, RICH_SIZE, RICH_SIZE, 1,
                                           density=1.0),
                      "rich chain", RICH_SIZE, RICH_SIZE, 1, seed, 1.0)
    print(f"rich family: {rich_seeds} markets, {rich_listed} stable "
          "matchings", flush=True)
    balanced_seeds = min(args.seeds, BALANCED_SEEDS)
    for nf, q, oracle in BALANCED:
        balanced_listed = 0
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
            if oracle and sf.enumerate_stable_via_rotations(m) != \
                    sf.enumerate_stable_bruteforce(m, cap=BALANCED_CAP):
                disagreements.append(("balanced rotations", nf, q * nf, q,
                                      seed, 1.0))
        print(f"balanced {nf}x{q * nf}, q = {q}: {balanced_seeds} markets, "
              f"{balanced_listed} stable matchings", flush=True)
    for name, *where in disagreements:
        print(f"DISAGREE {name}: size {tuple(where[:3])} seed {where[3]} "
              f"density {where[4]}")
    print(f"{instances} instances, {multi} with several stable matchings "
          f"(walks compared on each), {profiles} reduced profiles, "
          f"{chains} chains ({chain_rotations} rotations), "
          f"{len(disagreements)} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())

import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import stablefrac as sf
from oracles import (POSETS, RANDOM_SIZES, SPARE_SIZES, apply_cycle_set, balanced_market,
                     chain_agrees, chain_order, cloned_blocks, compare_rich, dominates,
                     lattice_exposures_agree, order_ideals, poset_market,
                     random_markets, random_order, reduced_lists_keep_the_base,
                     reduced_market, reference_enumerate_stable,
                     reference_reduced_lists, reference_search,
                     rotations_at_a_firm_are_ordered, spare_blocks)

from stablefrac.rotations import _Chain, _scan_rotations
from stablefrac.stability import _search

DATA = Path(__file__).parent / "data"


def test_reduced_lists_at_firm_optimal(market, mu_f):
    profile = sf.reduce_profile(market, mu_f)
    assert profile.firm_lists["f1"] == ("w1", "w2", "w4")
    assert profile.firm_lists["f2"] == ("w4", "w3", "w2")
    assert profile.worker_lists["w1"] == ("f1",)
    assert profile.worker_lists["w2"] == ("f2", "f1")
    assert profile.worker_lists["w3"] == ("f2",)
    assert profile.worker_lists["w4"] == ("f1", "f2")


def test_reduced_lists_at_worker_optimal(market, mu_w):
    profile = sf.reduce_profile(market, mu_w)
    for f in market.firms:
        assert set(profile.firm_lists[f]) == set(mu_w.matched(f))
    for w in market.workers:
        assert profile.worker_lists[w] == (mu_w.employer(w),)


def test_reduction_on_single_pair_market():
    m = sf.parse_market("""
firms: f1
workers: w1
quota: f1=1
firm f1: w1
worker w1: f1
""")
    mu = sf.deferred_acceptance(m, sf.Side.FIRMS)
    profile = sf.reduce_profile(m, mu)
    assert profile.firm_lists["f1"] == ("w1",)
    assert profile.worker_lists["w1"] == ("f1",)


def test_reduction_rejects_unstable_matchings(market):
    """The reduction and the pointer scan that certification reads a base's
    rotations with refuse an unstable matching with the same message."""
    unstable = sf.Matching.build(market, {"f1": ["w1", "w3"], "f2": ["w2", "w4"]})
    for read in (sf.reduce_profile, _scan_rotations):
        with pytest.raises(sf.NotStableError,
                           match="^reduction requires a stable matching$"):
            read(market, unstable)


def test_single_rotation_at_firm_optimal(market, mu_f):
    rotations = sf.find_cycles(sf.reduce_profile(market, mu_f))
    assert len(rotations) == 1
    rot = rotations[0]
    assert set(rot.firms) == {"f1", "f2"}
    wanted = dict(zip(rot.firms, rot.workers))
    assert wanted == {"f1": "w4", "f2": "w2"}


def test_no_rotations_at_worker_optimal(market, mu_w):
    assert len(sf.find_cycles(sf.reduce_profile(market, mu_w))) == 0


def test_slack_firms_never_rotate(fleet, fleet_stable):
    for m, stable in zip(fleet, fleet_stable):
        for mu in stable:
            for rot in sf.find_cycles(sf.reduce_profile(m, mu)):
                for f in rot.firms:
                    assert len(mu.matched(f)) == m.quota[f]


def test_apply_cycle_reaches_worker_optimal(market, mu_f, mu_w):
    profile = sf.reduce_profile(market, mu_f)
    sigma = sf.find_cycles(profile)[0]
    nxt = sf.apply_cycle(market, mu_f, sigma)
    assert nxt == mu_w
    assert sf.blocking_pairs(market, nxt) == ()
    assert dominates(market, mu_f, nxt, strict=True)
    assert not dominates(market, nxt, mu_f)


def test_apply_cycle_rejects_wrong_base(market, mu_f, mu_w):
    sigma = sf.find_cycles(sf.reduce_profile(market, mu_f))[0]
    with pytest.raises(sf.CycleMismatchError):
        sf.apply_cycle(market, mu_w, sigma)


def test_connected_set_of_no_rotations_is_the_matching(market, mu_f):
    assert sf.connected_set(market, mu_f, ()) == {mu_f}


def test_apply_cycle_set_single(market, mu_f, mu_w):
    rotations = sf.find_cycles(sf.reduce_profile(market, mu_f))
    assert apply_cycle_set(market, mu_f, rotations) == mu_w


def test_twin_cycles_commute(twin_cycle_market):
    m = twin_cycle_market
    mu = sf.deferred_acceptance(m, sf.Side.FIRMS)
    rotations = sf.find_cycles(sf.reduce_profile(m, mu))
    assert len(rotations) == 2
    first, second = rotations
    assert set(first.firms).isdisjoint(second.firms)
    via_first = sf.apply_cycle(m, mu, first)
    # the other cycle survives the move and the two orders agree
    assert second in sf.find_cycles(sf.reduce_profile(m, via_first))
    one_way = sf.apply_cycle(m, via_first, second)
    other_way = sf.apply_cycle(m, sf.apply_cycle(m, mu, second), first)
    assert one_way == other_way


def test_twin_cycle_connected_set(twin_cycle_market):
    m = twin_cycle_market
    mu = sf.deferred_acceptance(m, sf.Side.FIRMS)
    rotations = sf.find_cycles(sf.reduce_profile(m, mu))
    members = sf.connected_set(m, mu, rotations)
    assert len(members) == 4
    assert mu in members
    for nu in members:
        assert sf.is_stable(m, nu)
        assert dominates(m, mu, nu)
    assert members == sf.enumerate_stable_bruteforce(m)


def test_connected_set_of_example(market, mu_f, mu_w):
    rotations = sf.find_cycles(sf.reduce_profile(market, mu_f))
    assert sf.connected_set(market, mu_f, rotations) == {mu_f, mu_w}
    assert sf.connected_set(market, mu_f, ()) == {mu_f}


def test_connected_set_cap(block_market, monkeypatch):
    mu = sf.deferred_acceptance(block_market, sf.Side.FIRMS)
    rotations = sf.find_cycles(sf.reduce_profile(block_market, mu))
    monkeypatch.setattr(sf.rotations, "DEFAULT_ENUMERATION_CAP", 16)
    assert len(sf.connected_set(block_market, mu, rotations)) == 16
    monkeypatch.setattr(sf.rotations, "DEFAULT_ENUMERATION_CAP", 15)

    def refuse(*args):
        raise AssertionError("a rotation was applied before the cap check")

    monkeypatch.setattr(sf.rotations, "apply_cycle", refuse)
    with pytest.raises(sf.CapExceededError):
        sf.connected_set(block_market, mu, rotations)


def test_connected_set_of_six_rotations(cyclic_blocks, monkeypatch):
    m = cyclic_blocks([2] * 6)
    mu = sf.deferred_acceptance(m, sf.Side.FIRMS)
    rotations = sf.find_cycles(sf.reduce_profile(m, mu))
    assert len(rotations) == 6
    by_subset = {apply_cycle_set(m, mu, subset)
                 for size in range(7) for subset in combinations(rotations, size)}
    assert len(by_subset) == 64
    assert sf.connected_set(m, mu, rotations) == by_subset

    applied = []
    monkeypatch.setattr(sf.rotations, "apply_cycle",
                        lambda *args: applied.append(args))
    sigma = rotations[0]
    with pytest.raises(AssertionError, match="overlapping rotations"):
        sf.connected_set(m, mu, (sigma, sigma))
    assert applied == []


def test_connected_set_of_four_many_to_one_rotations():
    """At the firm-optimal matching of ``cloned_blocks([2] * 4, 2)`` four
    rotations are exposed, one per block; each moves one clone at a firm
    that keeps its other staff member, and they span 16 matchings."""
    m = cloned_blocks([2] * 4, 2)
    mu = sf.deferred_acceptance(m, sf.Side.FIRMS)
    rotations = sf.find_cycles(sf.reduce_profile(m, mu))
    assert len(rotations) == 4
    for rot in rotations:
        nu = sf.apply_cycle(m, mu, rot)
        for d, f in enumerate(rot.firms):
            kept = set(mu.matched(f)) & set(nu.matched(f))
            assert len(kept) == 1 and len(nu.matched(f)) == 2
            assert set(nu.matched(f)) - kept == {rot.workers[d]}
    by_subset = {apply_cycle_set(m, mu, subset)
                 for size in range(5) for subset in combinations(rotations, size)}
    assert len(by_subset) == 16
    assert sf.connected_set(m, mu, rotations) == by_subset


@pytest.mark.parametrize("firms,workers,message", [
    (("f1",), ("w1",), "at least two firms"),
    (("f1", "f1"), ("w1", "w2"), "must be distinct"),
    (("f1", "f2"), ("w1",), "must align with firms"),
])
def test_rotation_rejects_malformed_cycles(firms, workers, message):
    with pytest.raises(ValueError, match=message):
        sf.Rotation(firms, workers)


def test_rotation_enumeration_on_example(market, mu_f, mu_w):
    assert sf.enumerate_stable_via_rotations(market) == {mu_f, mu_w}


def test_rotation_enumeration_unique_market():
    m = sf.parse_market("""
firms: f1
workers: w1
quota: f1=1
firm f1: w1
worker w1: f1
""")
    assert len(sf.enumerate_stable_via_rotations(m)) == 1


def test_rotation_enumeration_matches_bruteforce(
        fleet, fleet_stable, block_market, twin_cycle_market, cyclic_blocks):
    for m, stable in zip(fleet, fleet_stable):
        assert sf.enumerate_stable_via_rotations(m) == set(stable)
    for m in (block_market, twin_cycle_market, cyclic_blocks([2, 3]),
              cyclic_blocks([2, 2, 3])):
        assert sf.enumerate_stable_via_rotations(m) == \
            sf.enumerate_stable_bruteforce(m)
    assert len(sf.enumerate_stable_via_rotations(block_market)) == 24


def test_reduction_gate(fleet, fleet_stable):
    """The reduced market's stable set is exactly the weakly firm-dominated slice."""
    for m, stable in zip(fleet, fleet_stable):
        for mu in stable:
            profile = sf.reduce_profile(m, mu)
            reduced_stable = sf.enumerate_stable_bruteforce(
                reduced_market(m, profile))
            expected = {nu for nu in stable if dominates(m, mu, nu)}
            assert reduced_stable == expected


def test_reduced_lists_are_mutual(fleet, fleet_stable):
    for m, stable in zip(fleet, fleet_stable):
        for mu in stable:
            red = sf.reduce_profile(m, mu)
            assert list(red.firm_lists) == list(m.firms)
            assert list(red.worker_lists) == list(m.workers)
            for f in m.firms:
                for w in red.firm_lists[f]:
                    assert f in red.worker_lists[w]
            for w in m.workers:
                for f in red.worker_lists[w]:
                    assert w in red.firm_lists[f]


def test_one_pass_reduction_matches_the_fixpoint(fleet):
    """One pruning pass gives the lists the iterated closure converges to."""
    markets = fleet + [m for size in RANDOM_SIZES for m in random_markets(*size)]
    profiles = 0
    for m in markets:
        for mu in sf.enumerate_stable_via_rotations(m):
            red = sf.reduce_profile(m, mu)
            assert (red.firm_lists, red.worker_lists) == \
                reference_reduced_lists(m, mu)
            profiles += 1
    assert profiles > 400


def test_rotations_are_disjoint_everywhere(fleet, fleet_stable):
    for m, stable in zip(fleet, fleet_stable):
        for mu in stable:
            seen = set()
            for rot in sf.find_cycles(sf.reduce_profile(m, mu)):
                assert seen.isdisjoint(rot.firms)
                seen.update(rot.firms)


def test_cyclic_matchings_are_stable_and_firm_worse(fleet, fleet_stable):
    for m, stable in zip(fleet, fleet_stable):
        for mu in stable:
            for rot in sf.find_cycles(sf.reduce_profile(m, mu)):
                nu = sf.apply_cycle(m, mu, rot)
                assert sf.is_stable(m, nu)
                assert dominates(m, mu, nu, strict=True)


def test_reduction_gate_survives_optimize(src_env, tmp_path):
    """With the input gate patched to let every matching of the example
    through, the reduction's own invariant, which ``-O`` keeps, refuses
    exactly the unstable matchings that leave the base unstable or not
    firm-optimal in the rebuilt reduced market: 33 of the 61."""
    script = tmp_path / "unstable_base.py"
    script.write_text(f"""
import itertools
import sys
import stablefrac as sf
if sys.flags.optimize < 1:
    sys.exit("not running under -O")
m = sf.parse_market(open({str(DATA / "example.market")!r}).read())
real_is_stable = sf.rotations.is_stable
sf.rotations.is_stable = lambda market, matching: True
refused = kept = 0
for choice in itertools.product((None,) + m.firms, repeat=len(m.workers)):
    staff = {{f: [w for w, g in zip(m.workers, choice) if g == f] for f in m.firms}}
    if any(len(ws) > m.quota[f] for f, ws in staff.items()):
        continue
    mu = sf.Matching.build(m, staff)
    if real_is_stable(m, mu):
        continue
    try:
        profile = sf.reduce_profile(m, mu)
    except AssertionError as exc:
        if "must begin with its staff" not in str(exc):
            raise
        refused += 1
        continue
    red = sf.Market(m.firms, m.workers, m.quota, profile.firm_lists,
                    profile.worker_lists)
    if not real_is_stable(red, mu) or \
            sf.deferred_acceptance(red, sf.Side.FIRMS) != mu:
        sys.exit(f"an unrefused base fails in its reduced market: {{mu}}")
    kept += 1
print(refused, kept)
""")
    run = subprocess.run([sys.executable, "-O", str(script)], env=src_env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["33", "28"]


def test_reduced_lists_keep_the_base_stable_and_firm_optimal(
        fleet, cyclic_blocks):
    """The two checks ``reduce_profile`` once made on a market of its own
    lists hold on that market rebuilt, at every stable matching: the base is
    stable there, and firm-proposing deferred acceptance gives it."""
    markets = fleet + [m for size in RANDOM_SIZES for m in random_markets(*size)]
    markets += [cyclic_blocks(sizes) for sizes in ([2] * 6, [3, 4], [2, 3, 4])]
    markets += [balanced_market(seed, nf, 2) for nf in (6, 8) for seed in range(10)]
    profiles = 0
    for m in markets:
        for mu in sf.enumerate_stable_via_rotations(m):
            assert reduced_lists_keep_the_base(m, mu)
            profiles += 1
    assert profiles == 62 + 365 + 64 + 12 + 24 + 31 + 39


def test_enumeration_builds_no_market_and_runs_each_side_once(
        monkeypatch, cyclic_blocks):
    """Reductions are lists over the market they came from: listing the
    1728 stable matchings builds no second ``Market``, and deferred
    acceptance runs once per side, the firms' to start the chain and the
    workers' for the bounds of its pointers and its end."""
    markets = [cyclic_blocks([3, 3, 3, 4, 4, 4]), balanced_market(0, 8, 2)]
    counts = {"_build_caches": 0, "_propose": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(sf.Market, "_build_caches")
    counted(sf.stability, "_propose")
    for m in markets:
        counts.update(_build_caches=0, _propose=0)
        assert len(sf.enumerate_stable_via_rotations(m)) > 1
        assert counts == {"_build_caches": 0, "_propose": 2}


# Two markets whose rotation poset is not a disjoint union of chains: the
# firm-optimal profile exposes two rotations, and a third one is exposed only
# once both have been applied.  The second has quota-2 firms.
JOINED_ROTATION_MARKETS = ["""
firms: f1 f2 f3 f4 f5
workers: w1 w2 w3 w4 w5
quota: f1=1 f2=1 f3=1 f4=1 f5=1
firm f1: w5 w1 w4 w2 w3
firm f2: w4 w1 w2 w5 w3
firm f3: w2 w3 w1 w5 w4
firm f4: w1 w5 w4 w3 w2
firm f5: w3 w4 w1 w2 w5
worker w1: f1 f2 f4 f3 f5
worker w2: f1 f2 f4 f5 f3
worker w3: f4 f3 f1 f5 f2
worker w4: f2 f4 f3 f5 f1
worker w5: f5 f3 f2 f4 f1
""", """
firms: f1 f2 f3 f4
workers: w1 w2 w3 w4 w5 w6 w7
quota: f1=2 f2=1 f3=2 f4=2
firm f1: w2 w7 w6 w4 w1 w5 w3
firm f2: w7 w5 w6 w2 w1 w3 w4
firm f3: w3 w7 w1 w6 w4 w2 w5
firm f4: w4 w5 w2 w6 w7 w3 w1
worker w1: f3 f4 f1 f2
worker w2: f4 f3 f1 f2
worker w3: f1 f2 f4 f3
worker w4: f2 f3 f1 f4
worker w5: f4 f2 f1 f3
worker w6: f1 f4 f3 f2
worker w7: f3 f1 f2 f4
"""]


def exposed(m, mu):
    return set(sf.find_cycles(sf.reduce_profile(m, mu)))


@pytest.mark.parametrize("text", JOINED_ROTATION_MARKETS,
                         ids=["one-to-one", "quota-2"])
def test_rotation_exposed_only_after_two_others(text):
    m = sf.parse_market(text)
    mu = sf.deferred_acceptance(m, sf.Side.FIRMS)
    first, second = sf.find_cycles(sf.reduce_profile(m, mu))
    after_first = sf.apply_cycle(m, mu, first)
    after_second = sf.apply_cycle(m, mu, second)
    both = sf.apply_cycle(m, after_first, second)
    assert exposed(m, after_first) == {second}
    assert exposed(m, after_second) == {first}
    (third,) = exposed(m, both)
    assert third not in (first, second)
    assert exposed(m, sf.apply_cycle(m, both, third)) == set()
    stable = sf.enumerate_stable_bruteforce(m)
    assert len(stable) == 5
    assert stable == reference_enumerate_stable(m)
    assert sf.enumerate_stable_via_rotations(m) == stable
    chain = _Chain(m)
    assert chain.rotations == [first, second, third]
    assert chain.pred == [0, 0, 0b11] == reference_search(m)[1]


@pytest.mark.parametrize("nf,nw,qmax", RANDOM_SIZES)
def test_rotation_enumeration_on_random_markets(nf, nw, qmax):
    multi = 0
    for m in random_markets(nf, nw, qmax):
        stable = sf.enumerate_stable_bruteforce(m)
        assert stable == reference_enumerate_stable(m)
        assert sf.enumerate_stable_via_rotations(m) == stable
        multi += len(stable) > 1
    assert multi >= 10


@pytest.mark.parametrize("seed,size", [(0, 4), (1, 4), (2, 5)])
def test_rotation_rich_markets_match_the_oracle(seed, size):
    """Complete 12x12 one-to-one markets, 13^12 maps that the pruned
    search covers in 28-30 thousand nodes, list the same stable set by
    rotations (``sweep_oracles.py`` runs 100 seeds)."""
    count, _, same = compare_rich(seed)
    assert (count, same) == (size, True)


def test_sweep_script_runs_clean_on_one_seed(src_env):
    """``sweep_oracles.py`` at one seed per family, so the script that runs
    every oracle on thousands of markets keeps working between full runs."""
    run = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "sweep_oracles.py"),
         "--seeds", "1"],
        env=src_env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.rstrip().endswith(", 0 disagreements")


def test_exposures_read_off_the_masks_match_reductions(fleet, cyclic_blocks):
    """At every stable matching the rotations that the search's masks say
    are exposed are those that reducing its profile finds, and each
    ``pred[j]`` is the set of r_j's predecessors: on cyclic blocks (six
    rotations exposed at one profile with ``[2]*6``), the fleet and the
    shared random markets."""
    markets = [cyclic_blocks(sizes) for sizes in ([2] * 6, [3, 4], [2, 3, 4])]
    markets += fleet
    markets += [m for size in RANDOM_SIZES for m in random_markets(*size)]
    listed = 0
    for m in markets:
        count, same = lattice_exposures_agree(m)
        assert same
        listed += count
    assert listed == 64 + 12 + 24 + 62 + 365


def test_predecessors_read_off_the_chain_match_the_learned_ones(
        fleet, cyclic_blocks):
    """Each rotation's predecessor mask, read off the chain, is the one a
    search that is not told them learns (``oracles.reference_search``):
    on the families of ``test_exposures_read_off_the_masks_match_reductions``,
    complete 20x20 one-to-one markets and balanced 12x36 markets of quota
    3, seeds 0-9."""
    markets = [cyclic_blocks(sizes) for sizes in ([2] * 6, [3, 4], [2, 3, 4])]
    markets += fleet
    markets += [m for size in RANDOM_SIZES for m in random_markets(*size)]
    markets += [sf.gen_random_market(seed, 20, 20, 1, density=1.0)
                for seed in range(10)]
    markets += [balanced_market(seed, 12, 3) for seed in range(10)]
    rotations = edges = 0
    for m in markets:
        pred = _Chain(m).pred
        assert pred == reference_search(m)[1]
        rotations += len(pred)
        edges += sum(bin(mask).count("1") for mask in pred)
    assert (rotations, edges) == (247, 511)


def test_listed_matchings_match_the_reference_search(fleet, cyclic_blocks):
    """The search replays each rotation's row trade from the chain; it lists
    the matchings, with the masks, that a search building each one with
    ``apply_cycle`` and testing it with ``is_stable`` lists without being
    told the predecessors (``oracles.reference_search``).  The replay is
    exact because the rotations at one firm form a chain of the poset."""
    markets = list(fleet)
    markets += [sf.parse_market(text) for text in JOINED_ROTATION_MARKETS]
    for size in RANDOM_SIZES:
        markets += random_markets(*size)
    markets += [cyclic_blocks([3, 3, 3, 4, 4, 4]), cyclic_blocks([2] * 6)]
    markets += [balanced_market(seed, nf, q) for nf, q in ((6, 2), (8, 2), (6, 3))
                for seed in range(10)]
    listed = 0
    for m in markets:
        chain = _Chain(m)
        found = chain.listing()
        assert rotations_at_a_firm_are_ordered(chain.rotations, chain.pred)
        assert (found, chain.pred) == reference_search(m)
        listed += len(found)
    assert listed == 2334


def test_a_worker_placed_from_the_start_owes_no_rotation():
    """A worker that a firm's pointer passes makes the firm's next rotation
    follow the rotation that first lifted the worker to a firm it ranks at
    least as high; a worker whose firm-optimal employer already ranks that
    high adds no edge.  On this balanced 10x20 market, looking only at the
    rotations that moved the worker, and not at its firm-optimal employer,
    adds the false edge r_1 -> r_2 (counting from r_0)."""
    m = balanced_market(5, 10, 2)
    pred = _Chain(m).pred
    assert pred == [0, 0, 0b1, 0b101] == reference_search(m)[1]


@pytest.mark.parametrize("seed", range(10))
def test_balanced_many_to_one_markets_match_the_oracle(seed):
    """Balanced 6x12 markets of quota 2, 7^12 maps that the pruned search
    covers in 4-5 thousand nodes: the rotation search lists the pruned
    search's set, and its masks agree with reductions at every stable
    matching."""
    m = balanced_market(seed, 6, 2)
    stable = sf.enumerate_stable_bruteforce(m)
    assert sf.enumerate_stable_via_rotations(m) == stable
    assert lattice_exposures_agree(m) == (len(stable), True)


@pytest.mark.parametrize("sizes,q,counts", [
    ([2] * 4, 2, (81, 8, 600)),
    ([2] * 3, 3, (64, 9, 756)),
    ([3, 3], 3, (49, 12, 2200)),
    ([2] * 6, 2, (729, 12, 5460)),
], ids=["2x4-q2", "2x3-q3", "3-3-q3", "2x6-q2"])
def test_cloned_blocks_match_the_oracle(sizes, q, counts):
    """Many-to-one markets rich in rotations, 4.3e7 to 2.8e11 maps each:
    the rotation search lists the pruned search's set.  Pinned: the stable
    matchings, the rotations and the nodes the pruned search visits."""
    m = cloned_blocks(sizes, q)
    stable, nodes = _search(m)
    chain = _Chain(m)
    assert chain.listing().keys() == stable
    assert (len(stable), len(chain.rotations), nodes) == counts


def test_spare_blocks_match_the_oracle():
    """Cloned blocks with one or two spare firms of quota 2
    (``oracles.spare_blocks``), seeds 0-2: the pruned search, the exhaustive
    scan and the rotation search list the same set.  Every market with
    several stable matchings has a firm short of its quota, and in some of
    them a spare firm hires.  Pinned: the markets with several stable
    matchings, those where a spare firm hires, the stable matchings and the
    pruned search's nodes."""
    several = hiring = listed = visited = 0
    for sizes, q in SPARE_SIZES:
        for spares in (1, 2):
            for seed in range(3):
                m = spare_blocks(sizes, q, spares, seed)
                stable, nodes = _search(m)
                assert reference_enumerate_stable(m) == stable
                assert sf.enumerate_stable_via_rotations(m) == stable
                listed += len(stable)
                visited += nodes
                if len(stable) > 1:
                    several += 1
                    assert any(len(mu.matched(f)) < m.quota[f]
                               for mu in stable for f in m.firms)
                    hiring += any(mu.matched(f) for mu in stable
                                  for f in m.firms[len(m.firms) - spares:])
    assert (several, hiring, listed, visited) == (12, 5, 57, 1277)


def test_full_firms_are_full_at_the_worker_optimal_matching(fleet, block_market):
    """A firm full at one stable matching has quota-many worker-optimal
    partners (rural hospitals), so the pointer setup (``rotations._Pointers``)
    always finds a full firm's worst worker-optimal partner: at every listed
    stable matching of the fleet, the block market, balanced 6x12 markets
    (q = 2, seeds 0-9), spare blocks (seeds 0-2), two cloned blocks and the
    named posets at q = 1 and 2.  Pinned: the (matching, firm) pairs seen
    full and short of quota."""
    markets = [*fleet, block_market]
    markets += [balanced_market(seed, 6, 2) for seed in range(10)]
    markets += [spare_blocks(sizes, q, spares, seed) for sizes, q in SPARE_SIZES
                for spares in (1, 2) for seed in range(3)]
    markets += [cloned_blocks([2] * 4, 2), cloned_blocks([3, 3], 3)]
    markets += [poset_market(*POSETS[name], q=q) for name in POSETS for q in (1, 2)]
    full = short = 0
    for m in markets:
        mu_w = sf.deferred_acceptance(m, sf.Side.WORKERS)
        for mu in _Chain(m).listing():
            for f in m.firms:
                if len(mu.matched(f)) == m.quota[f]:
                    assert len(mu_w.matched(f)) == m.quota[f]
                    full += 1
                else:
                    short += 1
    assert (full, short) == (23883, 144)


def test_balanced_many_to_one_exposures_beyond_the_oracle():
    """At 8x16 only the masks are checked against reductions; the sweep
    compares the listing with the pruned search, about 60 thousand nodes a
    market."""
    counts = []
    for seed in range(10):
        count, same = lattice_exposures_agree(balanced_market(seed, 8, 2))
        assert same
        counts.append(count)
    assert sum(counts) == 39 and max(counts) == 6


def test_pointer_chain_matches_the_reduction_chain(fleet, cyclic_blocks):
    """``_Chain`` finds the rotations of the chain that reduces the whole
    profile at every step, in the same order, and every matching it passes
    is stable."""
    markets = list(fleet)
    markets += [sf.parse_market(text) for text in JOINED_ROTATION_MARKETS]
    for size in RANDOM_SIZES:
        markets += random_markets(*size)
    markets += [cyclic_blocks([3, 3, 3, 4, 4, 4]), cyclic_blocks([2] * 6)]
    markets += [balanced_market(seed, nf, q) for nf, q in ((6, 2), (8, 2), (6, 3))
                for seed in range(10)]
    found = 0
    for m in markets:
        count, same = chain_agrees(m)
        assert same
        found += count
    assert found == 30 + 6 + 65 + 21 + 66


def test_rotations_are_found_on_one_chain(monkeypatch, cyclic_blocks):
    """One chain of at most |R| + 1 steps finds the rotations without
    reducing a profile, and applies each rotation once; after it, each
    matching is built once, by replaying its rotation's row trade with no
    ``apply_cycle`` call (there were 1727 here), and no stability check
    scans the whole market.  With a reduction per step the chain made 4
    reductions here, each gated on ``is_stable``."""
    m = cyclic_blocks([3, 3, 3, 4, 4, 4])
    n_rotations = 3 * 2 + 3 * 3
    counts = {"reduce_profile": 0, "_cycles": 0, "apply_cycle": 0,
              "is_stable": 0, "_derive": 0}
    at_chain_end = {}
    derive = sf.Matching._derive

    def derived(assignment):
        counts["_derive"] += 1
        return derive(assignment)
    monkeypatch.setattr(sf.Matching, "_derive", staticmethod(derived))

    def counter(name, after=None):
        real = getattr(sf.rotations, name)

        def wrapper(*args):
            counts[name] += 1
            out = real(*args)
            if after is not None:
                after(out)
            return out
        monkeypatch.setattr(sf.rotations, name, wrapper)

    def step_done(exposed):
        if not exposed:             # the step that finds none ends the chain
            at_chain_end.update(counts)

    counter("reduce_profile")
    counter("_cycles", step_done)
    counter("apply_cycle")
    counter("is_stable")
    found = sf.enumerate_stable_via_rotations(m)
    assert len(found) == 1728
    assert counts["reduce_profile"] == 0
    assert counts["_cycles"] == at_chain_end["_cycles"] <= n_rotations + 1
    assert at_chain_end["apply_cycle"] == counts["apply_cycle"] == n_rotations
    assert at_chain_end["_derive"] == n_rotations
    assert counts["_derive"] - at_chain_end["_derive"] == 1727
    assert counts["is_stable"] == 0
    assert all(sf.is_stable(m, mu) for mu in found)


def test_listed_matchings_match_a_fresh_build(cyclic_blocks):
    """Each listed matching is derived from its parent, and equality compares
    only the rows: its lookups must be those of a build from its rows."""
    markets = [cyclic_blocks([3, 3, 3, 4, 4, 4])]
    for size in RANDOM_SIZES:
        markets += random_markets(*size)
    listed = 0
    for m in markets:
        for nu in sf.enumerate_stable_via_rotations(m):
            fresh = sf.Matching(nu.assignment)
            assert nu == fresh and hash(nu) == hash(fresh)
            assert [nu.employer(w) for w in m.workers] == \
                [fresh.employer(w) for w in m.workers]
            assert [nu.matched(f) for f in m.firms] == \
                [fresh.matched(f) for f in m.firms]
            listed += 1
    assert listed > 1728


def test_listed_matchings_build_no_lookups(monkeypatch, cyclic_blocks):
    """The search reads a matching's rows by firm index: of the 1728
    matchings listed here, only the 15 candidates that ``_stable_step``
    tests build the lookups its scan reads (each listed matching copied its
    parent's two lookup dicts before).  Each keeps the hash it was listed
    under, the hash of a fresh build from its rows."""
    m = cyclic_blocks([3, 3, 3, 4, 4, 4])
    tested = []
    real = sf.rotations._stable_step

    def recorded(market, nu, sigma):
        tested.append(nu)
        return real(market, nu, sigma)

    monkeypatch.setattr(sf.rotations, "_stable_step", recorded)
    listed = _Chain(m).listing()
    assert len(listed) == 1728
    with_lookups = [mu for mu in listed
                    if "_rows" in vars(mu) or "_employer" in vars(mu)]
    assert len(with_lookups) == 15
    assert all(any(mu is nu for nu in tested) for mu in with_lookups)
    assert all(vars(mu)["_hash"] == hash(sf.Matching(mu.assignment))
               for mu in listed)


def test_enumeration_cap(block_market):
    assert len(sf.enumerate_stable_via_rotations(block_market, cap=24)) == 24
    with pytest.raises(sf.CapExceededError):
        sf.enumerate_stable_via_rotations(block_market, cap=23)
    # the firm-optimal matching counts against the cap too
    m = sf.parse_market("firms: f1\nworkers: w1\nfirm f1: w1\nworker w1: f1\n")
    assert len(sf.enumerate_stable_via_rotations(m, cap=1)) == 1
    with pytest.raises(sf.CapExceededError,
                       match=r"^1\+ stable matchings exceed the cap of 0$"):
        sf.enumerate_stable_via_rotations(m, cap=0)


def test_chain_checks_survive_optimize(src_env, tmp_path):
    script = tmp_path / "broken_chain.py"
    script.write_text(f"""
import inspect
import sys
import types
import stablefrac as sf
if sys.flags.optimize < 1:
    sys.exit("not running under -O")
m = sf.parse_market(open({str(DATA / "example.market")!r}).read())
real_cycles = sf.rotations._cycles
real_apply_cycle = sf.rotations.apply_cycle
mu_f = sf.deferred_acceptance(m, sf.Side.FIRMS)
mu_w = sf.deferred_acceptance(m, sf.Side.WORKERS)
sigma = sf.find_cycles(sf.reduce_profile(m, mu_f))[0]

# no rotation is ever exposed: the chain stops at the firm-optimal matching
sf.rotations._cycles = lambda firms, successor, wanted: ()
try:
    sf.enumerate_stable_via_rotations(m)
except AssertionError as exc:
    print("raised:", exc)

# the one rotation is reported twice on a chain that still ends at mu_w
answers = [(sigma,), (sigma,), ()]
sf.rotations._cycles = lambda firms, successor, wanted: answers.pop(0)
sf.rotations.apply_cycle = lambda market, mu, sigma: mu_w
try:
    sf.enumerate_stable_via_rotations(m)
except AssertionError as exc:
    print("raised:", exc)

def patched(name, line, replacement):
    # a copy of the module with one line of its source replaced
    source = inspect.getsource(sf.rotations)
    if source.count(line) != 1:
        sys.exit("the line to replace is not in the module once: " + line)
    module = types.ModuleType("stablefrac." + name)
    module.__package__ = "stablefrac"
    sys.modules[module.__name__] = module
    exec(compile(source.replace(line, replacement), sf.rotations.__file__,
                 "exec"), module.__dict__)
    return module

# a sound chain, but a copy of the module whose search replays no trade:
# its one build is the matching already listed
sf.rotations._cycles = real_cycles
sf.rotations.apply_cycle = real_apply_cycle
try:
    patched("rotations_replaying_no_trade", "rows[i] = after",
            "rows[i] = before").enumerate_stable_via_rotations(m)
except AssertionError as exc:
    print("raised:", exc)

# a rotation that fits mu_f but moves w3 down from f2, its first choice, to f1
sf.rotations._cycles = lambda firms, successor, wanted: (
    sf.Rotation(("f1", "f2"), ("w3", "w1")),)
try:
    sf.enumerate_stable_via_rotations(m)
except AssertionError as exc:
    print("raised:", exc)
sf.rotations._cycles = real_cycles

# a copy of the module whose chain records no edge for a passed worker: on
# this market one rotation then misses a predecessor, and the search tests
# it where it is not exposed
try:
    patched("rotations_without_passed_workers",
            "due[f] |= next(s for r, s in moves[w] if r <= rank)", "pass",
            ).enumerate_stable_via_rotations(
                sf.gen_random_market(1, 5, 5, 1, density=1.0))
except AssertionError as exc:
    print("raised:", exc)

# a copy of the module whose chain records each firm's row after a step as
# its row before it: the search's first replay finds another row there
try:
    patched("rotations_recording_wrong_rows",
            "(i, mu.assignment[i], nu.assignment[i])",
            "(i, nu.assignment[i], nu.assignment[i])"
            ).enumerate_stable_via_rotations(m)
except AssertionError as exc:
    print("raised:", exc)
""")
    run = subprocess.run([sys.executable, "-O", str(script)], env=src_env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "raised: the rotation chain must end at the worker-optimal matching",
        "raised: a rotation was found twice on the chain",
        "raised: a stable matching was generated twice",
        "raised: cycle worker w3 must move up from f2 to f1",
        "raised: each rotation must be exposed once its predecessors are applied",
        "raised: each rotation's firms must hold the rows they held on the chain",
    ]


def test_chain_refuses_an_unstable_step(monkeypatch, market):
    """Each matching the chain reaches must pass ``_stable_step``."""
    monkeypatch.setattr(sf.rotations, "_stable_step",
                        lambda market, nu, sigma: False)
    with pytest.raises(AssertionError,
                       match="the rotation chain must pass only stable matchings"):
        sf.enumerate_stable_via_rotations(market)


def test_apply_cycle_mismatch_branches(market, mu_f):
    sigma = sf.find_cycles(sf.reduce_profile(market, mu_f))[0]
    moved = sf.apply_cycle(market, mu_f, sigma)
    with pytest.raises(sf.CycleMismatchError, match="already works for"):
        sf.apply_cycle(market, moved, sigma)
    empty = sf.Matching.build(market, {})
    with pytest.raises(sf.CycleMismatchError, match="is not employed by"):
        sf.apply_cycle(market, empty, sigma)
    # a row already over its quota, in a matching built without the check
    crowded = sf.Matching((("f1", ("w1", "w2", "w3")), ("f2", ("w4",))))
    with pytest.raises(ValueError, match="^firm f1 exceeds its quota$"):
        sf.apply_cycle(market, crowded, sigma)


def test_apply_cycle_rows_match_a_full_rebuild(fleet, fleet_stable):
    checked = 0
    for m, stable in zip(fleet, fleet_stable):
        for mu in stable:
            for rot in sf.find_cycles(sf.reduce_profile(m, mu)):
                staff = {f: set(ws) for f, ws in mu.assignment}
                r = len(rot.firms)
                for d, f in enumerate(rot.firms):
                    staff[f].discard(rot.workers[(d - 1) % r])
                    staff[f].add(rot.workers[d])
                nu = sf.apply_cycle(m, mu, rot)
                assert nu.assignment == sf.Matching.build(m, staff).assignment
                checked += 1
    assert checked > 30


def test_stable_step_agrees_with_is_stable(monkeypatch, fleet, cyclic_blocks):
    """Every candidate the enumeration tests gets the verdict of is_stable,
    and every matching it lists is stable.  The chain tests each of the 116
    matchings it reaches, one per rotation, and the search tests each
    rotation once more, where its predecessors are exactly the applied set:
    116 of the 2165 matchings listed here.  No test fails; the search that
    learned the predecessors made 8 failing tests here."""
    real = sf.rotations._stable_step
    verdicts = []

    def checked(market, nu, sigma):
        verdict = real(market, nu, sigma)
        assert verdict == sf.is_stable(market, nu), (nu, sigma)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(sf.rotations, "_stable_step", checked)
    markets = list(fleet)
    markets += [sf.parse_market(text) for text in JOINED_ROTATION_MARKETS]
    for size in RANDOM_SIZES:
        markets += random_markets(*size)
    markets.append(cyclic_blocks([3, 3, 3, 4, 4, 4]))
    listed = 0
    for m in markets:
        found = sf.enumerate_stable_via_rotations(m)
        assert all(sf.is_stable(m, mu) for mu in found)
        listed += len(found)
    assert listed == 2165
    assert verdicts.count(True) == 116 + 116
    assert verdicts.count(False) == 0


# A hand-made step the enumeration never takes: mu leaves f1 below quota
# and blocked at f1 only; the workers improve, and nu is blocked only
# through f1's vacancy, by w3.
HAND_MADE_STEPS = {
    "vacancy-on-the-cycle": ("""
firms: f1 f2
workers: w1 w2 w3
quota: f1=2 f2=1
firm f1: w1 w2 w3
firm f2: w1 w2
worker w1: f1 f2
worker w2: f2 f1
worker w3: f1
""", {"f1": ["w2"], "f2": ["w1"]}),
}


@pytest.mark.parametrize("name", sorted(HAND_MADE_STEPS))
def test_stable_step_on_hand_made_steps(monkeypatch, name):
    text, rows = HAND_MADE_STEPS[name]
    m = sf.parse_market(text)
    mu = sf.Matching.build(m, rows)
    sigma = sf.Rotation(("f1", "f2"), ("w1", "w2"))
    nu = sf.apply_cycle(m, mu, sigma)
    full_checks = []
    is_stable = sf.rotations.is_stable

    def counted(market, matching):
        full_checks.append(matching)
        return is_stable(market, matching)

    monkeypatch.setattr(sf.rotations, "is_stable", counted)
    assert sf.rotations._stable_step(m, nu, sigma) is False
    assert full_checks == []
    assert not sf.is_stable(m, nu)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_poset_market_has_the_prescribed_rotation_poset(name):
    """The rotation search finds one rotation per element, ordered as the
    prescribed order; the stable matchings are its order ideals, as brute
    force lists them, and the characterization holds."""
    n, less = POSETS[name]
    m = poset_market(n, less)
    chain = _Chain(m)
    assert chain_order(chain, n) == less
    listed = chain.listing()
    assert len(listed) == order_ideals(n, less)
    assert listed.keys() == sf.enumerate_stable_bruteforce(m)
    report = sf.verify_characterization(m, 0, 25)
    assert report.ok and report.stable_count == len(listed)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_cloned_poset_market_lists_what_brute_force_finds(name):
    """With every worker cloned and every quota 2, the rotation listing
    still equals brute force's stable set, though the rotations are no
    longer one per element."""
    n, less = POSETS[name]
    m = poset_market(n, less, q=2)
    assert _Chain(m).listing().keys() == sf.enumerate_stable_bruteforce(m)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n,p", [(40, 0.1), (40, 0.25), (80, 0.05)])
def test_chain_reads_the_prescribed_order_past_the_listing(n, p, seed):
    """The chain alone, which is polynomial, reads the prescribed order off
    poset markets of 40 and 80 elements, whose stable matchings are far too
    many to list: one rotation per element, and ``pred`` is the order."""
    less = random_order(seed, n, p)
    assert less
    assert chain_order(_Chain(poset_market(n, less)), n) == less


def test_poset_market_on_twelve_elements_lists_its_ideals():
    """A random order on 12 elements: the listing has one stable matching
    per order ideal, 192 of them, and is what brute force finds."""
    n, less = 12, random_order(0, 12, 0.25)
    m = poset_market(n, less)
    chain = _Chain(m)
    assert chain_order(chain, n) == less
    listed = chain.listing()
    assert len(listed) == order_ideals(n, less) == 192
    assert listed.keys() == sf.enumerate_stable_bruteforce(m)

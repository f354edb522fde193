import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import stablefrac as sf
from oracles import (RANDOM_SIZES, RICH_CAP, balanced_market, compare_rich,
                     dominates, lattice_exposures_agree, random_markets,
                     reference_enumerate_stable, reference_reduced_lists)

DATA = Path(__file__).parent / "data"


def test_reduced_lists_at_firm_optimal(market, mu_f):
    profile = sf.reduce_profile(market, mu_f)
    assert profile.firm_list("f1") == ("w1", "w2", "w4")
    assert profile.firm_list("f2") == ("w4", "w3", "w2")
    assert profile.worker_list("w1") == ("f1",)
    assert profile.worker_list("w2") == ("f2", "f1")
    assert profile.worker_list("w3") == ("f2",)
    assert profile.worker_list("w4") == ("f1", "f2")


def test_reduced_lists_at_worker_optimal(market, mu_w):
    profile = sf.reduce_profile(market, mu_w)
    for f in market.firms:
        assert set(profile.firm_list(f)) == set(mu_w.matched(f))
    for w in market.workers:
        assert profile.worker_list(w) == (mu_w.employer(w),)


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
    assert profile.firm_list("f1") == ("w1",)
    assert profile.worker_list("w1") == ("f1",)


def test_reduction_rejects_unstable_matchings(market):
    unstable = sf.Matching.build(market, {"f1": ["w1", "w3"], "f2": ["w2", "w4"]})
    with pytest.raises(sf.NotStableError):
        sf.reduce_profile(market, unstable)


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


def test_apply_cycle_set_empty_is_identity(market, mu_f):
    assert sf.apply_cycle_set(market, mu_f, []) == mu_f


def test_apply_cycle_set_single(market, mu_f, mu_w):
    rotations = sf.find_cycles(sf.reduce_profile(market, mu_f))
    assert sf.apply_cycle_set(market, mu_f, rotations) == mu_w


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
    assert one_way == other_way == sf.apply_cycle_set(m, mu, rotations)


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
    by_subset = {sf.apply_cycle_set(m, mu, subset)
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
            reduced_stable = sf.enumerate_stable_bruteforce(profile.market)
            expected = {nu for nu in stable if dominates(m, mu, nu)}
            assert reduced_stable == expected


def test_reduced_lists_are_mutual(fleet, fleet_stable):
    for m, stable in zip(fleet, fleet_stable):
        for mu in stable:
            red = sf.reduce_profile(m, mu).market
            for f in red.firms:
                for w in red.firm_pref[f]:
                    assert f in red.worker_pref[w]
            for w in red.workers:
                for f in red.worker_pref[w]:
                    assert w in red.firm_pref[f]


def test_one_pass_reduction_matches_the_fixpoint(fleet):
    """One pruning pass gives the lists the iterated closure converges to."""
    markets = fleet + [m for size in RANDOM_SIZES for m in random_markets(*size)]
    profiles = 0
    for m in markets:
        for mu in sf.enumerate_stable_via_rotations(m):
            red = sf.reduce_profile(m, mu).market
            assert (red.firm_pref, red.worker_pref) == \
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
    script = tmp_path / "unstable_base.py"
    script.write_text(f"""
import sys
import stablefrac as sf
if sys.flags.optimize < 1:
    sys.exit("not running under -O")
m = sf.parse_market(open({str(DATA / "example.market")!r}).read())
mu = sf.deferred_acceptance(m, sf.Side.FIRMS)
# the input gate sees the original market; the reduced market fails the check
sf.rotations.is_stable = lambda market, matching: market is m
sf.reduce_profile(m, mu)
""")
    run = subprocess.run([sys.executable, "-O", str(script)], env=src_env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1, run.stderr
    assert "AssertionError: base matching must stay stable" in run.stderr


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
    """Complete 12x12 one-to-one markets, beyond the pruned search's default
    cap, list the same stable set by rotations (``sweep_oracles.py`` runs
    100 seeds)."""
    assert compare_rich(seed) == (size, True)


def test_exposures_read_off_the_masks_match_reductions(fleet, cyclic_blocks):
    """At every stable matching the rotations that the search's masks say
    are exposed are those that reducing its profile finds, and each
    ``known[j]`` is the set of r_j's predecessors: on cyclic blocks (six
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


@pytest.mark.parametrize("seed", range(10))
def test_balanced_many_to_one_markets_match_the_oracle(seed):
    """Balanced 6x12 markets of quota 2, whose 7^12 candidate maps the
    default cap refuses: the rotation search lists the pruned search's set,
    and its masks agree with reductions at every stable matching."""
    m = balanced_market(seed, 6, 2)
    stable = sf.enumerate_stable_bruteforce(m, cap=RICH_CAP)
    assert sf.enumerate_stable_via_rotations(m) == stable
    assert lattice_exposures_agree(m) == (len(stable), True)


def test_balanced_many_to_one_exposures_beyond_the_oracle():
    """At 8x16 the 9^16 candidate maps exceed even the lifted cap, so only
    the masks are checked against reductions."""
    counts = []
    for seed in range(10):
        count, same = lattice_exposures_agree(balanced_market(seed, 8, 2))
        assert same
        counts.append(count)
    assert sum(counts) == 39 and max(counts) == 6


def test_rotations_are_found_on_one_chain(monkeypatch, cyclic_blocks):
    """One chain finds the rotations; after it, each matching is built once
    and no stability check scans the whole market: ``is_stable`` runs only
    in the chain's reductions."""
    m = cyclic_blocks([3, 3, 3, 4, 4, 4])
    n_rotations = 3 * 2 + 3 * 3
    calls = []
    counts = {"apply_cycle": 0, "is_stable": 0}
    at_chain_end = {}
    reduce = sf.rotations.reduce_profile

    def counted(market, mu):
        calls.append(mu)
        profile = reduce(market, mu)
        at_chain_end.update(counts)     # the last reduction ends the chain
        return profile

    def counter(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(sf.rotations, "reduce_profile", counted)
    counter(sf.rotations, "apply_cycle")
    counter(sf.rotations, "is_stable")
    found = sf.enumerate_stable_via_rotations(m)
    assert len(calls) <= n_rotations + 1
    assert len(found) == 1728
    assert counts["apply_cycle"] - at_chain_end["apply_cycle"] == 1727
    assert at_chain_end["is_stable"] == 2 * len(calls)
    assert counts["is_stable"] == at_chain_end["is_stable"]
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
            assert nu == fresh
            assert [nu.employer(w) for w in m.workers] == \
                [fresh.employer(w) for w in m.workers]
            assert [nu.matched(f) for f in m.firms] == \
                [fresh.matched(f) for f in m.firms]
            listed += 1
    assert listed > 1728


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
import sys
import stablefrac as sf
if sys.flags.optimize < 1:
    sys.exit("not running under -O")
m = sf.parse_market(open({str(DATA / "example.market")!r}).read())
real_find_cycles = sf.rotations.find_cycles
real_apply_cycle_set = sf.rotations.apply_cycle_set
real_apply_cycle = sf.rotations.apply_cycle
mu_w = sf.deferred_acceptance(m, sf.Side.WORKERS)

# no rotation is ever exposed: the chain stops at the firm-optimal matching
sf.rotations.find_cycles = lambda profile: ()
try:
    sf.enumerate_stable_via_rotations(m)
except AssertionError as exc:
    print("raised:", exc)

# the one rotation is reported twice on a chain that still ends at mu_w
mu_f = sf.deferred_acceptance(m, sf.Side.FIRMS)
sigma = real_find_cycles(sf.reduce_profile(m, mu_f))[0]
answers = [(sigma,), (sigma,), ()]
sf.rotations.find_cycles = lambda profile: answers.pop(0)
sf.rotations.apply_cycle_set = lambda market, mu, cycles: mu_w
try:
    sf.enumerate_stable_via_rotations(m)
except AssertionError as exc:
    print("raised:", exc)

# a sound chain, but the search's one build returns a matching already listed
sf.rotations.find_cycles = real_find_cycles
sf.rotations.apply_cycle_set = real_apply_cycle_set
builds = []

def rebuild_start(market, mu, sigma):
    builds.append(sigma)
    return real_apply_cycle(market, mu, sigma) if len(builds) == 1 else mu_f

sf.rotations.apply_cycle = rebuild_start
try:
    sf.enumerate_stable_via_rotations(m)
except AssertionError as exc:
    print("raised:", exc)

# a rotation that fits mu_f but moves w3 down from f2, its first choice, to f1
sf.rotations.apply_cycle = real_apply_cycle
sf.rotations.find_cycles = lambda profile: (sf.Rotation(("f1", "f2"), ("w3", "w1")),)
try:
    sf.enumerate_stable_via_rotations(m)
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
    ]


def test_apply_cycle_mismatch_branches(market, mu_f):
    sigma = sf.find_cycles(sf.reduce_profile(market, mu_f))[0]
    moved = sf.apply_cycle(market, mu_f, sigma)
    with pytest.raises(sf.CycleMismatchError, match="already works for"):
        sf.apply_cycle(market, moved, sigma)
    empty = sf.Matching.build(market, {})
    with pytest.raises(sf.CycleMismatchError, match="is not employed by"):
        sf.apply_cycle(market, empty, sigma)


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
    and every matching it lists is stable.  A rotation whose predecessors
    the search has already seen applied is kept untested, so only 116 of
    the 2165 matchings listed here pass a test."""
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
    assert verdicts.count(True) == 116
    assert verdicts.count(False) == 8


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

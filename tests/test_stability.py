import random

import pytest
from hypothesis import given, settings, strategies as st

import stablefrac as sf
from oracles import (RANDOM_SIZES, balanced_market, dominates, random_markets,
                     reference_enumerate_stable, rural_hospital)
from stablefrac.cli import main
from stablefrac.stability import BLOCK_SWAP, BLOCK_VACANCY, BlockingPair, _search

SINGLE_PAIR = """
firms: f1
workers: w1
quota: f1=1
firm f1: w1
worker w1: f1
"""


def test_deferred_acceptance_firm_side(market, mu_f):
    assert mu_f.as_dict() == {"f1": ("w1", "w2"), "f2": ("w3", "w4")}
    assert sf.is_stable(market, mu_f)


def test_deferred_acceptance_worker_side(market, mu_w):
    assert mu_w.as_dict() == {"f1": ("w1", "w4"), "f2": ("w2", "w3")}
    assert sf.is_stable(market, mu_w)


def test_single_pair_market_both_sides_agree():
    m = sf.parse_market(SINGLE_PAIR)
    a = sf.deferred_acceptance(m, sf.Side.FIRMS)
    b = sf.deferred_acceptance(m, sf.Side.WORKERS)
    assert a == b
    assert a.as_dict() == {"f1": ("w1",)}


def test_deferred_acceptance_is_kept_on_the_market(fleet):
    """Each side runs once per market: repeated calls return one object,
    equal to a run on a freshly built copy of the market."""
    for m in fleet:
        for side in sf.Side:
            first = sf.deferred_acceptance(m, side)
            assert sf.deferred_acceptance(m, side) is first
            fresh = sf.Market(m.firms, m.workers, m.quota, m.firm_pref,
                              m.worker_pref)
            assert sf.deferred_acceptance(fresh, side) == first
    with pytest.raises(ValueError, match="unknown side"):
        sf.deferred_acceptance(fleet[0], "firms")


def test_individual_rationality(market, mu_f):
    assert sf.is_individually_rational(market, mu_f)
    empty = sf.Matching.build(market, {})
    assert sf.is_individually_rational(market, empty)
    with pytest.warns(sf.OneSidedPreferenceWarning):
        m = sf.parse_market("""
firms: f1 f2
workers: w1
quota: f1=1 f2=1
firm f1: w1
firm f2: w1
worker w1: f1
""")
    placed_badly = sf.Matching.build(m, {"f2": ["w1"]})
    assert not sf.is_individually_rational(m, placed_badly)


def test_stable_matchings_have_no_blocking_pairs(market, mu_f, mu_w):
    assert sf.blocking_pairs(market, mu_f) == ()
    assert sf.blocking_pairs(market, mu_w) == ()


def test_swap_blocking_pair_detected(market):
    mu = sf.Matching.build(market, {"f1": ["w1", "w3"], "f2": ["w2", "w4"]})
    blocks = sf.blocking_pairs(market, mu)
    assert ("f2", "w3") in {(b.firm, b.worker) for b in blocks}
    reason = next(b.reason for b in blocks if (b.firm, b.worker) == ("f2", "w3"))
    assert reason == sf.BLOCK_SWAP
    assert not sf.is_stable(market, mu)


def test_vacancy_blocking_pair_detected():
    m = sf.parse_market(SINGLE_PAIR)
    empty = sf.Matching.build(m, {})
    blocks = sf.blocking_pairs(m, empty)
    assert [(b.firm, b.worker, b.reason) for b in blocks] == [
        ("f1", "w1", sf.BLOCK_VACANCY)]


def test_empty_matching_stable_when_nothing_is_acceptable():
    m = sf.parse_market("""
firms: f1
workers: w1
quota: f1=1
firm f1:
worker w1:
""")
    assert sf.is_stable(m, sf.Matching.build(m, {}))


def test_bruteforce_on_example(market, mu_f, mu_w):
    stable = sf.enumerate_stable_bruteforce(market)
    assert stable == {mu_f, mu_w}


def test_bruteforce_single_pair():
    m = sf.parse_market(SINGLE_PAIR)
    assert len(sf.enumerate_stable_bruteforce(m)) == 1


def test_bruteforce_contains_da_endpoints_on_cyclic_marriage():
    m = sf.parse_market("""
firms: f1 f2 f3
workers: w1 w2 w3
quota: f1=1 f2=1 f3=1
firm f1: w1 w2 w3
firm f2: w2 w3 w1
firm f3: w3 w1 w2
worker w1: f2 f3 f1
worker w2: f3 f1 f2
worker w3: f1 f2 f3
""")
    stable = sf.enumerate_stable_bruteforce(m)
    assert sf.deferred_acceptance(m, sf.Side.FIRMS) in stable
    assert sf.deferred_acceptance(m, sf.Side.WORKERS) in stable
    assert len(stable) >= 2


def test_bruteforce_cap(market, tmp_path, capsys):
    """The cap counts the nodes the pruned search visits: one node past it
    raises CapExceededError, and ``stable-all --method brute`` exits 2."""
    firms = "firms: f1 f2\n"
    workers = "workers: " + " ".join(f"w{j}" for j in range(1, 31)) + "\n"
    quota = "quota: f1=2 f2=2\n"
    fl = "".join(
        f"firm f{i}: " + " ".join(f"w{j}" for j in range(1, 31)) + "\n"
        for i in (1, 2))
    wl = "".join(f"worker w{j}: f1 f2\n" for j in range(1, 31))
    text = firms + workers + quota + fl + wl
    m = sf.parse_market(text)
    # 3^30 maps, yet the search visits 247 nodes
    assert _search(m)[1] == 247
    with pytest.raises(sf.CapExceededError,
                       match=r"^247\+ search nodes exceed the cap of 246$"):
        sf.enumerate_stable_bruteforce(m, cap=246)
    assert len(sf.enumerate_stable_bruteforce(m, cap=247)) == 1
    path = tmp_path / "thirty.market"
    path.write_text(text)
    argv = ["stable-all", str(path), "--method", "brute", "--cap"]
    assert main(argv + ["246"]) == 2
    assert capsys.readouterr().err == \
        "error: 247+ search nodes exceed the cap of 246\n"
    assert main(argv + ["247"]) == 0
    # the cap is configurable: the example market takes 13 nodes
    with pytest.raises(sf.CapExceededError):
        sf.enumerate_stable_bruteforce(market, cap=12)
    assert len(sf.enumerate_stable_bruteforce(market, cap=13)) == 2
    # a market without workers visits no node: the empty map is a leaf
    m = sf.parse_market("firms: f1\nworkers:\n")
    assert len(sf.enumerate_stable_bruteforce(m, cap=0)) == 1


def test_bruteforce_matches_reference_on_structured_markets(
        fleet, block_market, twin_cycle_market, cyclic_blocks):
    """The random markets and JOINED_ROTATION_MARKETS are compared with the
    reference in test_rotations.py."""
    markets = list(fleet) + [block_market, twin_cycle_market, cyclic_blocks([2, 2, 3])]
    sizes = []
    for m in markets:
        stable = sf.enumerate_stable_bruteforce(m)
        assert stable == reference_enumerate_stable(m)
        sizes.append(len(stable))
    assert sizes[len(fleet):] == [24, 4, 12]


def test_individual_rationality_needs_the_quota(market):
    """A matching built without ``Matching.build``'s checks may overfill a
    firm; it is not individually rational, and so not stable."""
    crowded = sf.Matching((("f1", ("w1", "w2", "w3")), ("f2", ("w4",))))
    assert not sf.is_individually_rational(market, crowded)
    assert not sf.is_stable(market, crowded)


def test_bruteforce_search_node_counts(block_market, cyclic_blocks):
    """The pruned search's stable sets and node counts, pinned: dropping
    either swap cut or either vacancy cut changes a count, so a lost cut
    shows here, not only in the time taken."""
    markets = [cyclic_blocks([2] * 6), block_market, balanced_market(0, 6, 2)]
    assert [(len(stable), nodes) for stable, nodes in map(_search, markets)] == \
        [(64, 252), (24, 164), (4, 5141)]


@st.composite
def small_markets(draw):
    """Up to 3 firms with quotas 1-3 and 5 workers.  Every pair is mutually
    acceptable, or each is at random (sparse lists; an agent with no pair has
    an empty list), and each agent ranks its pairs in random order."""
    firms = [f"f{i}" for i in range(3 - draw(st.integers(0, 2)))]   # larger first
    workers = [f"w{j}" for j in range(5 - draw(st.integers(0, 4)))]
    dense = draw(st.booleans())
    pairs = {(f, w) for f in firms for w in workers if dense or draw(st.booleans())}
    quota = {f: draw(st.integers(1, 3)) for f in firms}
    firm_pref = {f: draw(st.permutations([w for w in workers if (f, w) in pairs]))
                 for f in firms}
    worker_pref = {w: draw(st.permutations([f for f in firms if (f, w) in pairs]))
                   for w in workers}
    return sf.Market(firms, workers, quota, firm_pref, worker_pref)


@settings(max_examples=300, deadline=None)
@given(small_markets())
def test_bruteforce_matches_reference_property(m):
    assert sf.enumerate_stable_bruteforce(m) == reference_enumerate_stable(m)


def test_bruteforce_search_is_not_recursive(tmp_path, capsys):
    """1200 workers, one of them with a firm: deeper than Python recursion goes."""
    workers = [f"w{j}" for j in range(1200)]
    text = ("firms: f1\nworkers: " + " ".join(workers) + "\nquota: f1=1\n"
            "firm f1: w0\n" + "".join(f"worker {w}:\n" for w in workers[1:])
            + "worker w0: f1\n")
    m = sf.parse_market(text)
    assert sf.enumerate_stable_bruteforce(m) == {sf.Matching.build(m, {"f1": ["w0"]})}
    path = tmp_path / "deep.market"
    path.write_text(text)
    assert main(["stable-all", str(path), "--method", "brute", "--json"]) == 0
    assert '"count": 1' in capsys.readouterr().out


def test_da_is_optimal_for_its_side(fleet, fleet_stable, cyclic_blocks):
    markets = random_markets(*RANDOM_SIZES[0]) + [cyclic_blocks([2, 3, 3])]
    stable_sets = [sf.enumerate_stable_bruteforce(m) for m in markets]
    assert len(stable_sets[-1]) == 18
    for m, stable in zip(fleet + markets, fleet_stable + stable_sets):
        top = sf.deferred_acceptance(m, sf.Side.FIRMS)
        bottom = sf.deferred_acceptance(m, sf.Side.WORKERS)
        assert top in stable and bottom in stable
        for mu in stable:
            assert dominates(m, top, mu) and dominates(m, mu, bottom)


def test_da_invariant_under_declaration_order(market, mu_f, mu_w):
    reordered = sf.Market(
        tuple(reversed(market.firms)),
        tuple(reversed(market.workers)),
        dict(market.quota),
        {f: market.firm_pref[f] for f in reversed(market.firms)},
        {w: market.worker_pref[w] for w in reversed(market.workers)},
    )
    again_f = sf.deferred_acceptance(reordered, sf.Side.FIRMS)
    again_w = sf.deferred_acceptance(reordered, sf.Side.WORKERS)
    assert {f: set(ws) for f, ws in again_f.as_dict().items()} == \
           {f: set(ws) for f, ws in mu_f.as_dict().items()}
    assert {f: set(ws) for f, ws in again_w.as_dict().items()} == \
           {f: set(ws) for f, ws in mu_w.as_dict().items()}


def test_blocking_pairs_iff_unstable(fleet):
    for m in fleet:
        mu = sf.deferred_acceptance(m, sf.Side.FIRMS)
        assert (not sf.blocking_pairs(m, mu)) == sf.is_stable(m, mu)


def reference_blocking_pairs(market, mu):
    """Reference: scans the firm's whole staff for every candidate pair.  A
    partner that an agent does not list ranks below every one it lists."""
    def rank(prefs, a, b):
        return prefs[a].index(b) if b in prefs[a] else len(prefs[a])

    out = []
    for f, w in market.pairs():
        employer = mu.employer(w)
        if employer == f:
            continue
        if employer is not None and \
                rank(market.worker_pref, w, f) >= rank(market.worker_pref, w, employer):
            continue
        staff = mu.matched(f)
        if len(staff) < market.quota[f]:
            out.append(BlockingPair(f, w, BLOCK_VACANCY))
        elif any(rank(market.firm_pref, f, w) < rank(market.firm_pref, f, v)
                 for v in staff):
            out.append(BlockingPair(f, w, BLOCK_SWAP))
    return tuple(out)


def random_matching(market, rng):
    """Each worker joins a random acceptable firm with room left, or none."""
    staff = {f: [] for f in market.firms}
    for w in market.workers:
        options = [f for f in market.acceptable_to_worker(w)
                   if len(staff[f]) < market.quota[f]]
        pick = rng.choice([None] + options)
        if pick is not None:
            staff[pick].append(w)
    return sf.Matching.build(market, staff)


# Matchings that are not individually rational: f1 employs w3, and neither
# lists the other.  Their blocking pairs follow from the rule that an
# unlisted partner ranks below every listed one.
NOT_RATIONAL = sf.Market(
    ("f1", "f2"), ("w1", "w2", "w3"), {"f1": 1, "f2": 1},
    {"f1": ("w1",), "f2": ("w2", "w1")},
    {"w1": ("f2", "f1"), "w2": ("f2",), "w3": ()})


def test_blocking_pairs_match_reference(fleet, fleet_stable):
    rng = random.Random(2024)
    unstable, reasons = 0, set()
    for m, stable in zip(fleet, fleet_stable):
        for mu in stable:
            assert sf.blocking_pairs(m, mu) == reference_blocking_pairs(m, mu) == ()
        for _ in range(25):
            mu = random_matching(m, rng)
            pairs = sf.blocking_pairs(m, mu)
            assert pairs == reference_blocking_pairs(m, mu)
            assert sf.is_stable(m, mu) == (
                sf.is_individually_rational(m, mu) and not pairs)
            unstable += bool(pairs)
            reasons.update(p.reason for p in pairs)
    assert unstable > 25 * len(fleet) // 2
    assert reasons == {BLOCK_VACANCY, BLOCK_SWAP}
    m = NOT_RATIONAL
    for rows, expected in [({"f1": ["w3"], "f2": ["w2"]}, ("f1", "w1")),
                           ({"f1": ["w3"], "f2": ["w1"]}, ("f2", "w2"))]:
        mu = sf.Matching.build(m, rows)
        pairs = sf.blocking_pairs(m, mu)
        assert pairs == reference_blocking_pairs(m, mu) == (
            BlockingPair(*expected, BLOCK_SWAP),)
        assert not sf.is_individually_rational(m, mu)
        assert not sf.is_stable(m, mu)


def test_rural_hospital_on_random_markets():
    count = 0
    for seed in range(200, 250):
        m = sf.gen_random_market(seed, 4, 6, 3, density=0.8)
        stable = sf.enumerate_stable_bruteforce(m)
        assert rural_hospital(m, stable)
        count += 1
    assert count == 50

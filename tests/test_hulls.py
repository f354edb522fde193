import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest

import stablefrac as sf
from oracles import (POSETS, apply_cycle_set, balanced_market, certificate_matchings,
                     chain_elements, cloned_blocks, dominates, flatten, hull_samples,
                     in_any_hull, poset_market, reconstruct, reference_condition)
from stablefrac.cli import main
from stablefrac.hulls import _cube_coordinates, _in_a_hull, _random_mix
from stablefrac.polytope import interior_walk
from stablefrac.rotations import _Chain


def _cube_against_subset_search(market, stable, points, max_rotations):
    """Decide every (point, connected set) pair by the cube test and by the
    subset search; the two must agree.  Connected sets of more than
    ``max_rotations`` rotations are skipped.  Returns the number of pairs and
    how many of them were inside."""
    cubes = []
    for mu in stable:
        rotations = sf.find_cycles(sf.reduce_profile(market, mu))
        if len(rotations) <= max_rotations:
            members = sorted(sf.connected_set(market, mu, rotations),
                             key=lambda m: m.assignment)
            cubes.append((mu, rotations, [
                flatten(market, sf.incidence_vector(market, m)) for m in members]))
    pairs = inside = 0
    for x in points:
        flat = flatten(market, x)
        for mu, rotations, vectors in cubes:
            member = _cube_coordinates(market, mu, rotations, x) is not None
            assert member == sf.point_in_hull(vectors, flat)
            pairs += 1
            inside += member
    return pairs, inside


def _mixes(market, stable, seed, count):
    """Random convex combinations of the whole stable set."""
    rng = random.Random(f"mixes:{seed}")
    return [_random_mix(market, stable, rng) for _ in range(count)]


def test_certify_midpoint(market, mu_f, x_mid):
    cert = sf.certify_strongly_stable(market, x_mid)
    assert isinstance(cert, sf.HullCertificate)
    assert cert.base == mu_f
    assert len(cert.rotations) == 1
    assert cert.terms == ((frozenset(), Fraction(1, 2)),
                          (frozenset({0}), Fraction(1, 2)))
    assert reconstruct(market, cert) == x_mid


def test_certify_refuses_fractional_vertex(market, x_vertex):
    refusal = sf.certify_strongly_stable(market, x_vertex)
    assert isinstance(refusal, sf.PairCondition)
    assert (refusal.firm, refusal.worker) == ("f2", "w3")
    assert refusal.product == Fraction(1, 4)


def test_certify_scans_the_condition_once(fleet, fleet_stable, monkeypatch):
    """Certifying a point evaluates the condition once, refused or not: a
    refusal is the condition ``decompose`` refused at, and it equals the
    report's first failure."""
    check = sf.strong_stability.strong_stability_check
    scans = []

    def counted(market, x):
        scans.append(x)
        return check(market, x)

    monkeypatch.setattr(sf.strong_stability, "strong_stability_check", counted)
    outcomes = Counter()
    for idx, (m, stable) in enumerate(zip(fleet, fleet_stable)):
        for x in _mixes(m, stable, idx, 4):
            scans.clear()
            cert = sf.certify_strongly_stable(m, x)
            assert scans == [x]
            refused = isinstance(cert, sf.PairCondition)
            if refused:
                assert repr(cert) == repr(check(m, x).first_failure())
            outcomes[refused] += 1
    assert outcomes == {False: 92, True: 28}


def test_certify_reads_one_cube(fleet, fleet_stable, monkeypatch):
    """A certificate reads its point's cube coordinates once, however many
    terms its decomposition has, and a refusal at a pair reads none.  Read
    once per term, the 92 certificates of these mixes made 137 readings."""
    cube_coordinates = sf.hulls._cube_coordinates
    readings = []

    def counted(market, base, rotations, x):
        readings.append(x)
        return cube_coordinates(market, base, rotations, x)

    monkeypatch.setattr(sf.hulls, "_cube_coordinates", counted)
    terms = Counter()
    for idx, (m, stable) in enumerate(zip(fleet, fleet_stable)):
        for x in _mixes(m, stable, idx, 4):
            readings.clear()
            cert = sf.certify_strongly_stable(m, x)
            refused = isinstance(cert, sf.PairCondition)
            assert readings == ([] if refused else [x])
            terms[0 if refused else len(cert.terms)] += 1
    assert terms == {0: 28, 1: 54, 2: 31, 3: 7}


def test_certify_integral_point(market, mu_w, x_worker):
    cert = sf.certify_strongly_stable(market, x_worker)
    assert isinstance(cert, sf.HullCertificate)
    assert cert.base == mu_w
    assert cert.terms == ((frozenset(), Fraction(1)),)


def test_certificates_reconstruct_everywhere(fleet, fleet_stable, block_market,
                                            cyclic_blocks):
    """Every certificate rebuilds its point, and its terms form a strict
    chain, the paper's second result: each term's rotation subset strictly
    contains the previous one's, and each term is weakly worse than the
    previous one for every firm and strictly worse for some firm."""
    extra = [block_market, cyclic_blocks([2, 2, 3]), cyclic_blocks([2] * 6),
             cloned_blocks([2] * 4, 2), cloned_blocks([3, 3], 3)]
    stables = fleet_stable + [sorted(sf.enumerate_stable_bruteforce(m),
                                     key=lambda mu: mu.assignment) for m in extra]
    lengths = Counter()
    for idx, (m, stable) in enumerate(zip(fleet + extra, stables)):
        for mu in stable:
            for x in hull_samples(m, mu, seed=900 + idx, count=4):
                cert = sf.certify_strongly_stable(m, x)
                assert isinstance(cert, sf.HullCertificate)
                assert reconstruct(m, cert) == x
                # base weakly firm-dominates every certified term
                terms = certificate_matchings(m, cert)
                for nu in terms:
                    assert dominates(m, cert.base, nu)
                subsets = [ids for ids, _ in cert.terms]
                assert all(a < b for a, b in zip(subsets, subsets[1:]))
                assert all(dominates(m, a, b, strict=True)
                           for a, b in zip(terms, terms[1:]))
                lengths[len(terms)] += 1
    assert sum(lengths.values()) == 1168 and max(lengths) == 7


def test_sample_hull_is_the_segment(market, mu_f, x_firm, x_worker):
    points = hull_samples(market, mu_f, seed=3, count=24)
    assert len(points) == 24
    for x in points:
        lam = x.value(market, "f1", "w2")
        expected = sf.FractionalMatching.linear_combination(
            [(x_firm, lam), (x_worker, 1 - lam)])
        assert x == expected
        assert sf.strong_stability_check(market, x).overall


def test_sample_hull_deterministic(market, mu_f):
    a = hull_samples(market, mu_f, seed=11, count=6)
    b = hull_samples(market, mu_f, seed=11, count=6)
    assert a == b
    assert hull_samples(market, mu_f, seed=11, count=0) == []


def test_point_in_hull_segment():
    p0 = (Fraction(0), Fraction(0))
    p1 = (Fraction(1), Fraction(1))
    assert sf.point_in_hull([p0, p1], (Fraction(1, 2), Fraction(1, 2)))
    assert sf.point_in_hull([p0, p1], p0)
    assert not sf.point_in_hull([p0, p1], (Fraction(1, 2), Fraction(1, 3)))
    assert not sf.point_in_hull([p0, p1], (Fraction(2), Fraction(2)))
    assert not sf.point_in_hull([], p0)


def test_point_in_hull_triangle():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
           (Fraction(0), Fraction(1))]
    assert sf.point_in_hull(pts, (Fraction(1, 3), Fraction(1, 3)))
    assert not sf.point_in_hull(pts, (Fraction(2, 3), Fraction(2, 3)))


def test_cube_test_agrees_with_subset_search_on_fleet(fleet, fleet_stable):
    pairs = inside = 0
    for idx, (m, stable) in enumerate(zip(fleet, fleet_stable)):
        points = _mixes(m, stable, idx, 30)
        for j, mu in enumerate(stable):
            points += hull_samples(m, mu, seed=700 + 31 * idx + j, count=16)
        # rotations are firm-disjoint, so no connected set is skipped
        p, i = _cube_against_subset_search(m, stable, points, len(m.firms))
        pairs += p
        inside += i
    assert 0 < inside < pairs


def test_cube_test_agrees_with_subset_search_on_block_market(block_market):
    # the subset search is too slow for the 16-member connected sets
    stable = sorted(sf.enumerate_stable_via_rotations(block_market),
                    key=lambda mu: mu.assignment)
    points = _mixes(block_market, stable, 40, 2)
    for j in range(0, len(stable), 6):
        points += hull_samples(block_market, stable[j], seed=40 + j, count=1)
    pairs, inside = _cube_against_subset_search(block_market, stable, points, 3)
    assert 0 < inside < pairs


def test_cube_coordinates_round_trip(block_market, cyclic_blocks):
    values = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 7),
              Fraction(1, 2))
    for m in (block_market, cyclic_blocks([2, 2, 2, 2, 2])):
        base = sf.deferred_acceptance(m, sf.Side.FIRMS)
        rotations = sf.find_cycles(sf.reduce_profile(m, base))
        lam = values[:len(rotations)]
        assert len(lam) == len(rotations) >= 4
        # the product distribution over the connected set has mean lam
        terms = []
        for chosen in product((False, True), repeat=len(rotations)):
            weight = prod(v if c else 1 - v for v, c in zip(lam, chosen))
            if weight:
                nu = apply_cycle_set(
                    m, base, [r for r, c in zip(rotations, chosen) if c])
                terms.append((sf.incidence_vector(m, nu), weight))
        x = sf.FractionalMatching.linear_combination(terms)
        scaled = _cube_coordinates(m, base, rotations, x)
        assert all(type(v) is int for v in scaled)
        assert tuple(Fraction(v, x._denom) for v in scaled) == lam


def test_cube_coordinates_rejections(block_market):
    m = block_market
    base = sf.deferred_acceptance(m, sf.Side.FIRMS)
    rotations = sf.find_cycles(sf.reduce_profile(m, base))
    start = sf.incidence_vector(m, base)

    def along(k, value):
        """inc(base) + value * delta_k."""
        moved = sf.incidence_vector(m, sf.apply_cycle(m, base, rotations[k]))
        return sf.FractionalMatching.linear_combination(
            [(start, 1 - value), (moved, value)])

    def rewrite(x, firm, cells):
        """x with the row of ``firm`` replaced by ``cells``."""
        rows = [list(row) for row in x.entries]
        rows[m.firm_index(firm)] = [cells.get(w, 0) for w in m.workers]
        return sf.FractionalMatching.from_rows(rows)

    third = Fraction(1, 3)
    assert _cube_coordinates(m, base, rotations, along(0, third)) == (1, 0, 0, 0)
    # a negative entry, and one above 1
    for value in (-third, 1 + third):
        assert _cube_coordinates(m, base, rotations, along(0, value)) is None
    # the second firm of the 3-cycle moves another share than the first
    x = rewrite(along(3, Fraction(1, 2)), "f8", {"w8": 1 - third, "w9": third})
    assert _cube_coordinates(m, base, rotations, x) is None
    # f1 moves its w10 share, which no rotation trades, onto w3
    x = rewrite(along(0, Fraction(1, 2)), "f1",
                {"w1": Fraction(1, 2), "w2": Fraction(1, 2), "w3": 1})
    assert _cube_coordinates(m, base, rotations, x) is None
    # f1 also holds w3, which neither its staff nor a rotation gives it
    x = rewrite(along(0, Fraction(1, 2)), "f1", {"w1": Fraction(1, 2),
                                                 "w2": Fraction(1, 2),
                                                 "w10": 1, "w3": third})
    assert _cube_coordinates(m, base, rotations, x) is None
    # after the f1/f2 swap, f2 is in no rotation and must keep w1
    swapped = sf.apply_cycle(m, base, rotations[0])
    rest = sf.find_cycles(sf.reduce_profile(m, swapped))
    x = sf.incidence_vector(m, swapped)
    assert _cube_coordinates(m, swapped, rest, x) == (0, 0, 0)
    assert _cube_coordinates(m, swapped, rest, rewrite(x, "f2", {"w2": 1})) is None


def test_gen_random_market_deterministic():
    a = sf.gen_random_market(7, 3, 5, 2)
    b = sf.gen_random_market(7, 3, 5, 2)
    assert a == b
    assert sf.serialize_market(a) == sf.serialize_market(b)
    assert sf.gen_random_market(8, 3, 5, 2) != a


def test_gen_random_market_tiny():
    m = sf.gen_random_market(1, 1, 1, 1)
    assert len(m.pairs()) <= 1
    with pytest.raises(ValueError):
        sf.gen_random_market(1, 0, 1, 1)


def test_gen_random_market_respects_bounds():
    for seed in range(30, 40):
        m = sf.gen_random_market(seed, 4, 6, 3)
        assert len(m.firms) == 4 and len(m.workers) == 6
        assert all(1 <= q <= 3 for q in m.quota.values())


def test_verify_example_market(market):
    outcome = sf.verify_characterization(market, seed=5, samples=200)
    assert outcome.ok
    assert outcome.stable_count == 2
    assert outcome.hull_points >= 200
    assert outcome.counterexamples == ()


def test_verify_keeps_the_mix_counts(market, block_market):
    """The stable-set mixes drawn and refused are fields of the report; the
    refused ones are among the negative points, and the first note words the
    two counts."""
    for m, seed, samples, counts in [(market, 5, 200, (100, 0, 8)),
                                     (block_market, 1, 10, (5, 5, 9))]:
        outcome = sf.verify_characterization(m, seed, samples)
        assert (outcome.mixes_drawn, outcome.mixes_refused,
                outcome.negative_points) == counts
        assert outcome.notes == (f"negative density {counts[1]}/{counts[0]} "
                                 "over stable-set mixes",)


def test_verify_block_market_without_subset_search(block_market, monkeypatch):
    def refuse(points, target):
        raise AssertionError("verify must decide hull membership by the cube test")

    monkeypatch.setattr("stablefrac.hulls.point_in_hull", refuse)
    outcome = sf.verify_characterization(block_market, seed=1, samples=10)
    assert outcome.ok
    assert (outcome.stable_count, outcome.hull_points,
            outcome.negative_points) == (24, 24, 9)


@pytest.mark.parametrize("sizes,counts", [
    ([2, 2, 3, 3], (36, 36, 11)),
    ([2] * 5, (32, 32, 0)),
    ([2] * 6, (64, 64, 0)),
    ([2] * 7, (128, 128, 0)),
    ([3, 3, 3], (27, 27, 10)),
    ([2, 3, 4], (24, 24, 10)),
], ids=["2-2-3-3", "2x5", "2x6", "2x7", "3-3-3", "2-3-4"])
def test_verify_rotation_rich_blocks(cyclic_blocks, sizes, counts):
    """One rotation per block exposed at the firm-optimal profile, three to
    seven in all, in one cube; a block of m firms chains m - 1 rotations.
    The default cap admits the brute-force oracle on each market."""
    outcome = sf.verify_characterization(cyclic_blocks(sizes), seed=1, samples=10)
    assert outcome.ok
    assert (outcome.stable_count, outcome.hull_points,
            outcome.negative_points) == counts


@pytest.mark.parametrize("sizes,q,stable", [
    ([2] * 8, 1, 256),
    ([3, 3, 3, 4], 1, 108),
    ([2] * 4, 2, 81),
    ([2] * 3, 3, 64),
    ([3, 3], 3, 49),
    ([2] * 6, 2, 729),
], ids=["2x8", "3-3-3-4", "2x4-q2", "2x3-q3", "3-3-q3", "2x6-q2"])
def test_verify_markets_of_many_maps(cyclic_blocks, sizes, q, stable):
    """4.3e7 to 2.8e11 worker -> firm maps, which the oracle's pruned search
    covers in 600 to 5 460 nodes: ``verify`` runs at the default cap, on
    one-to-one cyclic blocks and their many-to-one clones."""
    m = cyclic_blocks(sizes) if q == 1 else cloned_blocks(sizes, q)
    outcome = sf.verify_characterization(m, 0, 50)
    assert outcome.ok
    assert outcome.stable_count == stable


def test_certify_four_many_to_one_rotations():
    """inc(mu) + sum(lambda_i * delta_i), lambda = 1/5, 2/5, 3/5, 4/5, over
    the four rotations exposed at the firm-optimal matching of
    ``cloned_blocks([2] * 4, 2)``, certifies with five nested terms of
    weight 1/5: the base, then the rotations of the largest lambda first."""
    m = cloned_blocks([2] * 4, 2)
    mu = sf.deferred_acceptance(m, sf.Side.FIRMS)
    rotations = sf.find_cycles(sf.reduce_profile(m, mu))
    lam = [Fraction(i, 5) for i in range(1, 5)]
    # delta_i = inc(mu with rotation i) - inc(mu)
    x = sf.FractionalMatching.linear_combination(
        [(sf.incidence_vector(m, mu), 1 - sum(lam))]
        + [(sf.incidence_vector(m, sf.apply_cycle(m, mu, rot)), a)
           for rot, a in zip(rotations, lam)])
    cert = sf.certify_strongly_stable(m, x)
    assert isinstance(cert, sf.HullCertificate)
    assert (cert.base, cert.rotations) == (mu, rotations)
    assert cert.terms == tuple((frozenset(range(k, 4)), Fraction(1, 5))
                               for k in range(4, -1, -1))
    assert reconstruct(m, cert) == x


@pytest.mark.parametrize("fault,kinds", [
    ("lattice", {"brute force and the rotation lattice disagree",
                 "passing point's top matching is not a listed stable matching"}),
    ("almost-integral", {"passing point not almost integral"}),
    ("certify", {"hull point fails the condition at (f2,w3)",
                 "failing point lies in a connected-set hull"}),
    ("vertex", {"endpoint is not a vertex (rank 0)"}),
    ("integral", {"integral vertex is not a stable matching"}),
    ("fractional", {"non-integral vertex passes the condition"}),
])
def test_verify_reports_each_counterexample(market, x_vertex, monkeypatch,
                                            fault, kinds):
    """Each check of ``verify`` reports its counterexample when what it
    checks is made to fail.  At seed 0 with 100 samples the example market
    gets four walks; the third ends on a fractional vertex, the others on
    stable matchings."""
    top = sf.deferred_acceptance(market, sf.Side.FIRMS)
    refusal = sf.certify_strongly_stable(market, x_vertex)

    class ChainMissingTop(_Chain):
        def listing(self, *cap):
            return {mu: a for mu, a in super().listing(*cap).items() if mu != top}

    name, fake = {
        "lattice": ("_Chain", ChainMissingTop),
        "almost-integral": ("check_almost_integral", lambda m, x: False),
        "certify": ("certify_strongly_stable",
                    lambda m, x, rotations_of=None: refusal),
        "vertex": ("is_extreme_point", lambda m, x: (False, 0)),
        "integral": ("matching_from_matrix", lambda m, x: sf.Matching.build(m, {})),
        "fractional": ("strong_stability_check",
                       lambda m, x: sf.StrongStabilityReport((), [], [], 1, True)),
    }[fault]
    monkeypatch.setattr(sf.hulls, name, fake)
    outcome = sf.verify_characterization(market, seed=0, samples=100)
    assert {c.split(": ", 1)[1] for c in outcome.counterexamples} == kinds


def test_verify_unique_stable_market():
    m = sf.parse_market("""
firms: f1
workers: w1
quota: f1=1
firm f1: w1
worker w1: f1
""")
    outcome = sf.verify_characterization(m, seed=5, samples=40)
    assert outcome.ok
    assert outcome.stable_count == 1


def test_verify_empty_market():
    m = sf.parse_market("""
firms: f1
workers: w1
quota: f1=1
firm f1:
worker w1:
""")
    outcome = sf.verify_characterization(m, seed=5, samples=10)
    assert outcome.ok


def test_verify_propagates_cap(monkeypatch, tmp_path, capsys):
    """One node past the oracle's default cap, ``verify`` raises
    CapExceededError and the CLI exits 2; at the cap it runs.  The market's
    search visits 247 nodes, so the default cap is lowered to 246."""
    text = ("firms: f1 f2\nworkers: " + " ".join(f"w{j}" for j in range(1, 31))
            + "\nquota: f1=2 f2=2\n"
            + "".join(f"firm f{i}: " + " ".join(f"w{j}" for j in range(1, 31))
                      + "\n" for i in (1, 2))
            + "".join(f"worker w{j}: f1 f2\n" for j in range(1, 31)))
    m = sf.parse_market(text)
    path = tmp_path / "thirty.market"
    path.write_text(text)
    monkeypatch.setattr(sf.enumerate_stable_bruteforce, "__defaults__", (246,))
    with pytest.raises(sf.CapExceededError,
                       match=r"^247\+ search nodes exceed the cap of 246$"):
        sf.verify_characterization(m, seed=1, samples=10)
    assert main(["verify", str(path), "--samples", "10"]) == 2
    assert capsys.readouterr().err == \
        "error: 247+ search nodes exceed the cap of 246\n"
    monkeypatch.setattr(sf.enumerate_stable_bruteforce, "__defaults__", (247,))
    assert sf.verify_characterization(m, seed=1, samples=10).ok


def test_certificate_keeps_the_sweep_matchings(fleet, fleet_stable, block_market):
    """Each certificate term's rotation subset, read off the point's cube
    coordinates by the threshold rule, rebuilds the matching the sweep gave
    that term: on the fleet, the block market, many-to-one cloned blocks,
    and poset markets whose rotation posets have joins, one-to-one and
    cloned with quota 2."""
    checked = 0
    extra = [block_market, cloned_blocks([2] * 4, 2), cloned_blocks([3, 3], 3)]
    extra += [poset_market(*POSETS[name]) for name in ("diamond", "crown", "random")]
    extra.append(poset_market(*POSETS["diamond"], q=2))
    cases = list(zip(fleet, fleet_stable)) + [
        (m, sorted(sf.enumerate_stable_bruteforce(m), key=lambda mu: mu.assignment))
        for m in extra]
    for idx, (m, stable) in enumerate(cases):
        for mu in stable:
            for x in hull_samples(m, mu, seed=300 + idx, count=2):
                cert = sf.certify_strongly_stable(m, x)
                assert tuple(mu for mu, _ in cert.decomposition.terms) == \
                    certificate_matchings(m, cert)
                assert cert.decomposition == sf.decompose(m, x)
                checked += 1
    assert checked == 714


def test_verify_reduces_only_the_chains_profiles(block_market, monkeypatch):
    """verify reduces no profile, certification included: the rotation
    chain reads its rotations off one pointer per firm in three steps, four
    rotations exposed at the firm-optimal matching, one after them and none
    at the worker-optimal matching, and each stable matching's exposed
    rotations are read off the lattice's masks.  With a reduction per chain
    step it made 3 reductions, and 24 with one per stable matching."""
    calls, steps = [], []
    reduce_profile = sf.rotations.reduce_profile
    cycles = sf.rotations._cycles

    def counted_reduce(market, mu):
        calls.append(mu)
        return reduce_profile(market, mu)

    def counted_cycles(firms, successor, wanted):
        found = cycles(firms, successor, wanted)
        steps.append(len(found))
        return found

    monkeypatch.setattr(sf.hulls, "reduce_profile", counted_reduce)
    monkeypatch.setattr(sf.rotations, "reduce_profile", counted_reduce)
    monkeypatch.setattr(sf.rotations, "_cycles", counted_cycles)
    outcome = sf.verify_characterization(block_market, seed=1, samples=10)
    assert outcome.ok
    assert outcome.stable_count == 24
    assert calls == []
    assert steps == [4, 1, 0]


def test_verify_evaluates_each_point_once(block_market, monkeypatch):
    """A point's support matching reads the stable-feasibility report the
    point keeps: the support matchings that verify takes on ``block.market``
    make no ``polytope._evaluate`` call, and the same point built afresh
    makes one.  They made 9 ``check_feasibility`` calls when each one
    evaluated its point again."""
    points, active, inside = [], [], []
    evaluate, support = sf.polytope._evaluate, sf.hulls.support_matching

    def recorded(market, x):
        if active:
            inside.append(x)
        return evaluate(market, x)

    def supported(market, x):
        points.append(x)
        active.append(x)
        try:
            return support(market, x)
        finally:
            active.pop()

    monkeypatch.setattr(sf.polytope, "_evaluate", recorded)
    monkeypatch.setattr(sf.hulls, "support_matching", supported)
    assert sf.verify_characterization(block_market, seed=1, samples=10).ok
    assert points and inside == []
    fresh = sf.FractionalMatching.from_rows(points[0].entries)
    supported(block_market, fresh)
    assert inside == [fresh]


def test_verify_does_no_fraction_arithmetic(block_market, monkeypatch):
    """verify mixes, evaluates, walks, sweeps and rebuilds its points as
    integers over one denominator: not one Fraction sum, difference, product
    or quotient on the whole run.  With the points held as ``Fraction``
    matrices the same run made 8174 (4346 sums, 3480 products, 348
    quotients)."""
    counts = Counter()
    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        def counted(a, b, op=getattr(Fraction, name), name=name):
            counts[name] += 1
            return op(a, b)
        monkeypatch.setattr(Fraction, name, counted)
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)     # counting works
    assert counts == {"__add__": 1}
    counts.clear()
    outcome = sf.verify_characterization(block_market, 0, 20)
    assert outcome.ok
    assert (outcome.stable_count, outcome.hull_points, outcome.negative_points,
            outcome.vertex_points) == (24, 24, 14, 1)
    assert sum(counts.values()) == 0


def test_certify_with_known_rotations_matches_certify(fleet, fleet_stable,
                                                      block_market):
    """The harness's certify, which looks the base's rotations up, gives the
    public certificate, or the same refusal, on every hull sample and on
    mixes of the whole stable set."""
    block_stable = sorted(sf.enumerate_stable_bruteforce(block_market),
                          key=lambda mu: mu.assignment)
    cases = list(zip(fleet, fleet_stable)) + [(block_market, block_stable)]
    certified = refused = 0
    for idx, (m, stable) in enumerate(cases):
        cubes = {mu: sf.find_cycles(sf.reduce_profile(m, mu)) for mu in stable}
        rng = random.Random(f"known:{idx}")
        points = [x for mu in stable
                  for x in hull_samples(m, mu, seed=400 + idx, count=2)]
        points += [_random_mix(m, stable, rng) for _ in range(4)]
        for x in points:
            cert = sf.certify_strongly_stable(m, x, cubes.__getitem__)
            assert cert == sf.certify_strongly_stable(m, x)
            if isinstance(cert, sf.HullCertificate):
                assert cert.decomposition == sf.decompose(m, x)
                certified += 1
            else:
                refused += 1
    assert certified >= 150
    assert refused >= 10


def test_first_failure_agrees_with_pair_conditions(fleet, fleet_stable,
                                                  block_market):
    """The report's verdict, its first failing pair and every pair's
    condition, factors and product included, are the definition's
    (``reference_condition``) on hull samples, mixes of the whole stable set
    and walk points."""
    block_stable = sorted(sf.enumerate_stable_bruteforce(block_market),
                          key=lambda mu: mu.assignment)
    outcomes = Counter()
    for idx, (m, stable) in enumerate(list(zip(fleet, fleet_stable))
                                      + [(block_market, block_stable)]):
        rng = random.Random(f"first-failure:{idx}")
        points = [x for mu in stable
                  for x in hull_samples(m, mu, seed=500 + idx, count=2)]
        points += _mixes(m, stable, idx, 4)
        if m.pairs():
            points.append(sf.vertex_walk(m, interior_walk(m, points[-1], rng), rng))
        for x in points:
            report, want = sf.strong_stability_check(m, x), reference_condition(m, x)
            failing = [c for c in want if c.product]
            assert report.overall == (not failing)
            assert repr(report.first_failure()) == repr(next(iter(failing), None))
            assert report.pairs == want
            outcomes[report.overall] += 1
    assert outcomes[True] >= 250 and outcomes[False] >= 30


def test_verify_reports_a_top_matching_outside_the_stable_set(market, mu_w,
                                                              monkeypatch):
    """An oracle that drops the worker-optimal matching disagrees with the
    rotation lattice, and a passing point whose top matching the oracle's
    set lacks is a counterexample; verify takes that matching's rotations
    neither from the lattice nor from a reduction of its profile."""
    enumerate_stable = sf.hulls.enumerate_stable_bruteforce
    monkeypatch.setattr(sf.hulls, "enumerate_stable_bruteforce",
                        lambda m: enumerate_stable(m) - {mu_w})
    outcome = sf.verify_characterization(market, seed=1, samples=20)
    assert outcome.counterexamples == (
        "stable set: brute force and the rotation lattice disagree",
        "hull sample 0/10: passing point's top matching is not a listed "
        "stable matching",)


def test_one_cube_agrees_with_every_cube(fleet, block_market, cyclic_blocks,
                                         monkeypatch):
    """verify tests a point only against the cube of its support matching
    (``_in_a_hull``); on every hull, mix and walk point that verify
    classifies, that answer is the any-of-all-cubes test
    (``oracles.in_any_hull``): on the fleet, the block markets and balanced
    6x12 markets.  The default cap refuses the balanced markets' oracle, so
    the harness takes every stable set from the rotation lattice, which
    ``test_rotations.py`` holds to the oracle on these markets."""
    points = []
    certify = sf.hulls.certify_strongly_stable

    def recorded(market, x, rotations_of=None):
        points.append(x)
        return certify(market, x, rotations_of)

    monkeypatch.setattr(sf.hulls, "certify_strongly_stable", recorded)
    monkeypatch.setattr(sf.hulls, "enumerate_stable_bruteforce",
                        lambda m: set(_Chain(m).listing()))
    markets = fleet + [block_market, cyclic_blocks([2, 2, 3, 3]),
                       cyclic_blocks([2] * 5)]
    markets += [balanced_market(seed, 6, 2) for seed in range(10)]
    answers = Counter()
    for idx, m in enumerate(markets):
        points.clear()
        assert sf.verify_characterization(m, seed=idx, samples=50).ok
        chain = _Chain(m)
        cubes = {mu: chain.exposed(applied)
                 for mu, applied in chain.listing().items()}
        for x in points:
            inside = in_any_hull(m, cubes, x)
            assert _in_a_hull(m, cubes, x) == inside
            answers[inside] += 1
    assert answers == {True: 3036, False: 444}


def test_a_base_with_rotations_exposed_from_different_chains():
    """On the diamond r0 < r1, r2 < r3 (``oracles.poset_market``), the base
    M({r0}) exposes r1 and r2, two incomparable rotations both below the
    join r3.  Half of M({r0, r1}) and half of M({r0, r2}) lies in that
    base's cube and certifies with it; half of M({r0}) and half of
    M({r0, r1, r2, r3}) is refused at a pair and lies in no cube."""
    m = poset_market(*POSETS["diamond"])
    chain = _Chain(m)
    listed = chain.listing()
    index = {e: j for j, e in enumerate(chain_elements(chain))}
    at = {applied: mu for mu, applied in listed.items()}

    def matching(*elements):
        return at[sum(1 << index[e] for e in elements)]

    def half_and_half(mu, nu):
        return sf.FractionalMatching.linear_combination(
            [(sf.incidence_vector(m, mu), Fraction(1, 2)),
             (sf.incidence_vector(m, nu), Fraction(1, 2))])

    cubes = {mu: chain.exposed(applied) for mu, applied in listed.items()}
    base = matching(0)
    r1, r2 = (chain.rotations[index[e]] for e in (1, 2))
    assert set(cubes[base]) == {r1, r2}
    join = chain.pred[index[3]]
    assert join >> index[1] & 1 and join >> index[2] & 1
    assert not chain.pred[index[1]] >> index[2] & 1
    assert not chain.pred[index[2]] >> index[1] & 1

    x = half_and_half(matching(0, 1), matching(0, 2))
    cert = sf.certify_strongly_stable(m, x, cubes.get)
    assert isinstance(cert, sf.HullCertificate)
    assert cert.base == base and set(cert.rotations) == {r1, r2}
    assert reconstruct(m, cert) == x
    assert _in_a_hull(m, cubes, x)

    y = half_and_half(base, matching(0, 1, 2, 3))
    assert isinstance(sf.certify_strongly_stable(m, y, cubes.get), sf.PairCondition)
    assert not _in_a_hull(m, cubes, y)
    assert not in_any_hull(m, cubes, y)

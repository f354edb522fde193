import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

import stablefrac as sf
from stablefrac.hulls import _cube_coordinates, _random_mix


def _rows(market, x):
    """A point as sparse per-firm rows, ``{firm: {worker: nonzero value}}``."""
    return {f: {w: v for w, v in zip(market.workers, row) if v}
            for f, row in zip(market.firms, x.entries)}


def _cube_against_subset_search(market, stable, points, max_rotations):
    """Decide every (point, connected set) pair by the cube test and by the
    subset search; the two must agree.  Connected sets of more than
    ``max_rotations`` rotations are skipped.  Returns the number of pairs and
    how many of them were inside."""
    cubes = []
    for mu in stable:
        rotations = sf.find_cycles(sf.reduce_profile(market, mu))
        if len(rotations) <= max_rotations:
            members = sorted(sf.connected_set(market, mu, tuple(rotations)),
                             key=lambda m: m.assignment)
            cubes.append((mu, rotations, [
                sf.incidence_vector(market, m).flatten(market) for m in members]))
    pairs = inside = 0
    for x in points:
        rows, flat = _rows(market, x), x.flatten(market)
        for mu, rotations, vectors in cubes:
            member = _cube_coordinates(mu, rotations, rows) is not None
            assert member == sf.point_in_hull(vectors, flat)
            pairs += 1
            inside += member
    return pairs, inside


def _mixes(market, stable, seed, count):
    """Random convex combinations of the whole stable set."""
    incidences = [sf.incidence_vector(market, mu) for mu in stable]
    rng = random.Random(f"mixes:{seed}")
    return [_random_mix(incidences, rng) for _ in range(count)]


def test_certify_midpoint(market, mu_f, x_mid):
    cert = sf.certify_strongly_stable(market, x_mid)
    assert isinstance(cert, sf.HullCertificate)
    assert cert.base == mu_f
    assert len(cert.rotations) == 1
    assert cert.terms == ((frozenset(), Fraction(1, 2)),
                          (frozenset({0}), Fraction(1, 2)))
    assert cert.reconstruct(market) == x_mid


def test_certify_refuses_fractional_vertex(market, x_vertex):
    refusal = sf.certify_strongly_stable(market, x_vertex)
    assert isinstance(refusal, sf.StrongStabilityRefusal)
    assert (refusal.firm, refusal.worker) == ("f2", "w3")
    assert refusal.product == Fraction(1, 4)


def test_certify_integral_point(market, mu_w, x_worker):
    cert = sf.certify_strongly_stable(market, x_worker)
    assert isinstance(cert, sf.HullCertificate)
    assert cert.base == mu_w
    assert cert.terms == ((frozenset(), Fraction(1)),)


def test_certificates_reconstruct_everywhere(fleet, fleet_stable):
    for idx, (m, stable) in enumerate(zip(fleet, fleet_stable)):
        for mu in stable:
            for x in sf.sample_hull(m, mu, seed=900 + idx, count=4):
                cert = sf.certify_strongly_stable(m, x)
                assert isinstance(cert, sf.HullCertificate)
                assert cert.reconstruct(m) == x
                # base weakly firm-dominates every certified term
                for nu in cert.term_matchings(m):
                    assert sf.firm_weakly_prefers(m, cert.base, nu)


def test_sample_hull_is_the_segment(market, mu_f, x_firm, x_worker):
    points = sf.sample_hull(market, mu_f, seed=3, count=24)
    assert len(points) == 24
    for x in points:
        lam = x.value(market, "f1", "w2")
        expected = sf.FractionalMatching.linear_combination(
            [(x_firm, lam), (x_worker, 1 - lam)])
        assert x == expected
        assert sf.strong_stability_check(market, x).overall


def test_sample_hull_deterministic(market, mu_f):
    a = sf.sample_hull(market, mu_f, seed=11, count=6)
    b = sf.sample_hull(market, mu_f, seed=11, count=6)
    assert a == b
    assert sf.sample_hull(market, mu_f, seed=11, count=0) == []


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
            points += sf.sample_hull(m, mu, seed=700 + 31 * idx + j, count=16)
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
        points += sf.sample_hull(block_market, stable[j], seed=40 + j, count=1)
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
                nu = sf.apply_cycle_set(
                    m, base, [r for r, c in zip(rotations, chosen) if c])
                terms.append((sf.incidence_vector(m, nu), weight))
        x = sf.FractionalMatching.linear_combination(terms)
        assert _cube_coordinates(base, rotations, _rows(m, x)) == lam


def test_cube_coordinates_rejections(block_market):
    m = block_market
    base = sf.deferred_acceptance(m, sf.Side.FIRMS)
    rotations = sf.find_cycles(sf.reduce_profile(m, base))
    start = sf.incidence_vector(m, base)

    def along(k, value):
        """Rows of inc(base) + value * delta_k."""
        moved = sf.incidence_vector(m, sf.apply_cycle(m, base, rotations[k]))
        return _rows(m, sf.FractionalMatching.linear_combination(
            [(start, 1 - value), (moved, value)]))

    third = Fraction(1, 3)
    assert _cube_coordinates(base, rotations, along(0, third)) == (third, 0, 0, 0)
    for value in (-third, 1 + third):
        assert _cube_coordinates(base, rotations, along(0, value)) is None
    # the second firm of the 3-cycle moves another share than the first
    rows = along(3, Fraction(1, 2))
    rows["f8"] = {"w8": 1 - third, "w9": third}
    assert _cube_coordinates(base, rotations, rows) is None
    # f1 moves its w10 share, which no rotation trades, onto w3
    rows = along(0, Fraction(1, 2))
    rows["f1"] = {"w1": Fraction(1, 2), "w2": Fraction(1, 2), "w3": 1}
    assert _cube_coordinates(base, rotations, rows) is None
    # after the f1/f2 swap, f2 is in no rotation and must keep w1
    swapped = sf.apply_cycle(m, base, rotations[0])
    rest = sf.find_cycles(sf.reduce_profile(m, swapped))
    rows = _rows(m, sf.incidence_vector(m, swapped))
    assert _cube_coordinates(swapped, rest, rows) == (0, 0, 0)
    rows["f2"] = {"w2": 1}
    assert _cube_coordinates(swapped, rest, rows) is None


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


def test_verify_block_market_without_subset_search(block_market, monkeypatch):
    def refuse(points, target):
        raise AssertionError("verify must decide hull membership by the cube test")

    monkeypatch.setattr("stablefrac.hulls.point_in_hull", refuse)
    outcome = sf.verify_characterization(block_market, seed=1, samples=10)
    assert outcome.ok
    assert (outcome.stable_count, outcome.hull_points,
            outcome.negative_points) == (24, 24, 9)


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


def test_verify_propagates_cap():
    text = ("firms: f1 f2\nworkers: " + " ".join(f"w{j}" for j in range(1, 31))
            + "\nquota: f1=2 f2=2\n"
            + "".join(f"firm f{i}: " + " ".join(f"w{j}" for j in range(1, 31))
                      + "\n" for i in (1, 2))
            + "".join(f"worker w{j}: f1 f2\n" for j in range(1, 31)))
    m = sf.parse_market(text)
    with pytest.raises(sf.CapExceededError):
        sf.verify_characterization(m, seed=1, samples=10)


def test_certificate_keeps_the_sweep_matchings(fleet, fleet_stable, block_market):
    checked = 0
    block_stable = sorted(sf.enumerate_stable_bruteforce(block_market),
                          key=lambda mu: mu.assignment)
    cases = list(zip(fleet, fleet_stable)) + [(block_market, block_stable)]
    for idx, (m, stable) in enumerate(cases):
        for mu in stable:
            for x in sf.sample_hull(m, mu, seed=300 + idx, count=2):
                cert = sf.certify_strongly_stable(m, x)
                assert cert._matchings == cert.term_matchings(m)
                assert cert._matchings == sf.decompose(m, x).matchings()
                checked += 1
    assert checked >= 150


def test_verify_reduces_each_stable_profile_once(block_market, monkeypatch):
    calls = {"outside": 0}
    inside = []
    reduce_profile = sf.hulls.reduce_profile
    certify = sf.hulls.certify_strongly_stable

    def counted_reduce(market, mu):
        if not inside:
            calls["outside"] += 1
        return reduce_profile(market, mu)

    def flagged_certify(market, x):
        inside.append(x)
        try:
            return certify(market, x)
        finally:
            inside.pop()

    monkeypatch.setattr(sf.hulls, "reduce_profile", counted_reduce)
    monkeypatch.setattr(sf.rotations, "reduce_profile", counted_reduce)
    monkeypatch.setattr(sf.hulls, "certify_strongly_stable", flagged_certify)
    outcome = sf.verify_characterization(block_market, seed=1, samples=10)
    assert outcome.ok
    assert outcome.stable_count == 24
    assert calls["outside"] == outcome.stable_count

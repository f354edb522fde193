"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
comparisons are exact rational equality; there are no tolerances anywhere.
"""

import itertools
from contextlib import contextmanager
from fractions import Fraction

import pytest

import stablefrac as sf
from oracles import dominates, hull_samples, reduced_market, rural_hospital


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_example_reproduction(market, mu_f, mu_w):
    with criterion(1, "worked example reproduces exactly"):
        assert sf.incidence_vector(market, mu_f).entries == (
            (1, 1, 0, 0), (0, 0, 1, 1))
        assert sf.incidence_vector(market, mu_w).entries == (
            (1, 0, 0, 1), (0, 1, 1, 0))
        assert sf.enumerate_stable_bruteforce(market) == {mu_f, mu_w}


def test_criterion_2_condition_witness(market, x_vertex):
    with criterion(2, "condition witness factors 1/2 * 1/2 = 1/4 at (f2,w3)"):
        report = sf.strong_stability_check(market, x_vertex)
        pair = next(c for c in report.pairs
                    if (c.firm, c.worker) == ("f2", "w3"))
        assert pair.firm_factor == Fraction(1, 2)
        assert pair.worker_factor == Fraction(1, 2)
        assert pair.product == Fraction(1, 4)
        assert not report.overall


def test_criterion_3_vertex_ranks(market, x_vertex, x_mid):
    with criterion(3, "fractional point is a vertex of rank 8; midpoint is not"):
        assert sf.is_extreme_point(market, x_vertex) == (True, 8)
        is_vertex, rank = sf.is_extreme_point(market, x_mid)
        assert not is_vertex and rank < 8


def test_criterion_4_decomposition_roundtrip(fleet, fleet_stable):
    with criterion(4, "1000 sampled points decompose exactly with strict chains"):
        assert len(fleet) >= 30
        checked = 0
        rounds = 0
        while checked < 1000:
            for idx, (m, stable) in enumerate(zip(fleet, fleet_stable)):
                mu = stable[(checked + rounds) % len(stable)]
                seed = 10_000 + 97 * idx + rounds
                for x in hull_samples(m, mu, seed=seed, count=3):
                    dec = sf.decompose(m, x)
                    assert dec.reconstruct(m) == x
                    chain, weights = zip(*dec.terms)
                    assert sum(weights) == 1
                    assert all(a > 0 for a in weights)
                    for a, b in zip(chain, chain[1:]):
                        assert dominates(m, a, b, strict=True)
                    checked += 1
            rounds += 1
        assert checked >= 1000


def test_criterion_5_integer_points_are_stable_matchings(fleet, fleet_stable):
    with criterion(5, "integer stable-feasible points = brute-force stable set"):
        for m, stable in zip(fleet, fleet_stable):
            choices = [(None,) + m.acceptable_to_worker(w) for w in m.workers]
            from_polytope = set()
            for combo in itertools.product(*choices):
                staff = {}
                ok = True
                for w, f in zip(m.workers, combo):
                    if f is None:
                        continue
                    staff.setdefault(f, []).append(w)
                    if len(staff[f]) > m.quota[f]:
                        ok = False
                        break
                if not ok:
                    continue
                mu = sf.Matching.build(m, staff)
                x = sf.incidence_vector(m, mu)
                if sf.check_stable_feasibility(m, x).feasible:
                    from_polytope.add(mu)
            assert from_polytope == set(stable)


def test_criterion_6_reduction_gate(fleet, fleet_stable):
    with criterion(6, "reduced stable set = weakly firm-dominated slice, everywhere"):
        for m, stable in zip(fleet, fleet_stable):
            for mu in stable:
                profile = sf.reduce_profile(m, mu)
                reduced = sf.enumerate_stable_bruteforce(
                    reduced_market(m, profile))
                expected = {nu for nu in stable
                            if dominates(m, mu, nu)}
                assert reduced == expected


def test_criterion_7_rotation_properties(fleet, fleet_stable, twin_cycle_market):
    with criterion(7, "rotations disjoint, cyclic matchings stable, orders commute"):
        commutation_checked = 0
        for m, stable in zip(fleet, fleet_stable):
            for mu in stable:
                rotations = sf.find_cycles(sf.reduce_profile(m, mu))
                seen = set()
                for rot in rotations:
                    assert seen.isdisjoint(rot.firms)
                    seen.update(rot.firms)
                    nu = sf.apply_cycle(m, mu, rot)
                    assert sf.is_stable(m, nu)
                for first, second in itertools.combinations(rotations, 2):
                    via_first = sf.apply_cycle(m, mu, first)
                    assert second in tuple(
                        sf.find_cycles(sf.reduce_profile(m, via_first)))
                    one = sf.apply_cycle(m, via_first, second)
                    other = sf.apply_cycle(m, sf.apply_cycle(m, mu, second), first)
                    assert one == other
                    commutation_checked += 1
        m = twin_cycle_market
        mu = sf.deferred_acceptance(m, sf.Side.FIRMS)
        rotations = sf.find_cycles(sf.reduce_profile(m, mu))
        assert len(rotations) == 2
        a = sf.apply_cycle(m, sf.apply_cycle(m, mu, rotations[0]), rotations[1])
        b = sf.apply_cycle(m, sf.apply_cycle(m, mu, rotations[1]), rotations[0])
        assert a == b
        commutation_checked += 1
        assert commutation_checked >= 2


def test_criterion_8_characterization_harness(fleet, market, x_vertex):
    with criterion(8, "hull characterization verified both ways, 30x100 samples"):
        for idx, m in enumerate(fleet):
            outcome = sf.verify_characterization(m, seed=idx, samples=100)
            assert outcome.ok, outcome.counterexamples[:3]
            assert outcome.hull_points >= 100
        outcome = sf.verify_characterization(market, seed=99, samples=100)
        assert outcome.ok
        # pinned instance: a non-integral vertex is never strongly stable
        assert sf.is_extreme_point(market, x_vertex) == (True, 8)
        assert not sf.strong_stability_check(market, x_vertex).overall
        assert sf.check_almost_integral(market, x_vertex)


def test_criterion_9_enumeration_agreement_and_rural_hospital(fleet, fleet_stable):
    with criterion(9, "rotation enumeration = brute force; rural hospital holds"):
        for m, stable in zip(fleet, fleet_stable):
            assert sf.enumerate_stable_via_rotations(m) == set(stable)
            assert rural_hospital(m, stable)

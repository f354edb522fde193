"""The integer form of a point and its evaluation against Fraction references.

The library holds a point as integer numerators over the least common
denominator of its entries, builds mixes, walk points and reconstructions
straight in that form, and reads the stable-feasibility system, the strong
stability condition, the threshold sweep and the almost-integral test off it.
The references evaluate the same objects entry by entry in ``Fraction``s, as
the library did before; every point, report and decomposition must come out
equal, down to the repr.
"""

import random
from fractions import Fraction
from math import ceil, lcm

import pytest
from hypothesis import given, settings, strategies as st

import stablefrac as sf
from oracles import (
    firm_weak_prefix,
    hull_samples,
    reference_check_almost_integral,
    reference_evaluate,
    reference_from_scaled,
    reference_linear_combination,
    reference_reconstruct,
    serialize_fractional,
    worker_weak_prefix,
)
from stablefrac.hulls import _random_mix
from stablefrac.model import _from_cells
from stablefrac.polytope import interior_walk


def reference_check_feasibility(market, x):
    violations, tight = [], []
    for i, f in enumerate(market.firms):
        s = sum(x.entries[i], Fraction(0))
        q = Fraction(market.quota[f])
        if s > q:
            violations.append((("quota", f), s, q))
        elif s == q:
            tight.append(("quota", f))
    for j, w in enumerate(market.workers):
        s = sum((row[j] for row in x.entries), Fraction(0))
        if s > 1:
            violations.append((("unit", w), s, Fraction(1)))
        elif s == 1:
            tight.append(("unit", w))
    for i, f in enumerate(market.firms):
        for j, w in enumerate(market.workers):
            v = x.entries[i][j]
            if market.acceptable(f, w):
                if v < 0:
                    violations.append((("nonneg", f, w), v, Fraction(0)))
                elif v == 0:
                    tight.append(("nonneg", f, w))
            elif v != 0:
                violations.append((("zero", f, w), v, Fraction(0)))
    return sf.ConstraintReport(tuple(violations), tuple(tight))


def reference_check_stable_feasibility(market, x):
    base = reference_check_feasibility(market, x)
    violations, tight = list(base.violations), list(base.tight)
    fpre = {f: firm_weak_prefix(market, x, f) for f in market.firms}
    wpre = {w: worker_weak_prefix(market, x, w) for w in market.workers}
    for f, w in market.pairs():
        e = x.value(market, f, w)
        q = Fraction(market.quota[f])
        lhs = (fpre[f][w] - e) + q * (wpre[w][f] - e) + q * e
        if lhs < q:
            violations.append((("noblock", f, w), lhs, q))
        elif lhs == q:
            tight.append(("noblock", f, w))
    return sf.ConstraintReport(tuple(violations), tuple(tight))


def reference_pair_conditions(market, x):
    fpre = {f: firm_weak_prefix(market, x, f) for f in market.firms}
    wpre = {w: worker_weak_prefix(market, x, w) for w in market.workers}
    conditions = []
    for f, w in market.pairs():
        firm_factor = Fraction(market.quota[f]) - fpre[f][w]
        worker_factor = Fraction(1) - wpre[w][f]
        conditions.append(sf.PairCondition(
            f, w, firm_factor, worker_factor, firm_factor * worker_factor))
    return tuple(conditions), all(c.product == 0 for c in conditions)


def reference_threshold_sweep(market, x):
    prefix = {f: firm_weak_prefix(market, x, f) for f in market.firms}
    cuts = sorted({Fraction(0)} | {c % 1 for sums in prefix.values()
                                   for c in sums.values()})
    terms = []
    for t, end in zip(cuts, cuts[1:] + [Fraction(1)]):
        chosen = {}
        for f, sums in prefix.items():
            chosen[f] = []
            before = 0
            for w, c in sums.items():
                now = ceil(c - t)
                if now > before:
                    chosen[f].append(w)
                before = now
        terms.append((sf.Matching.build(market, chosen), end - t))
    return sf.Decomposition(tuple(terms))


def assert_canonical(x, reference):
    """x is the reference's matrix, held over the least common denominator
    of its entries; the two compare, hash and print alike."""
    assert x == reference and hash(x) == hash(reference)
    assert repr(x) == repr(reference) and x.entries == reference.entries
    assert all(type(v) is Fraction for row in x.entries for v in row)
    d = lcm(*(v.denominator for row in reference.entries for v in row))
    assert x._denom == d
    assert x._nums == tuple(tuple(v.numerator * (d // v.denominator) for v in row)
                            for row in reference.entries)


def assert_matches_reference(market, x):
    """Every integer-evaluated object at x equals its Fraction reference.

    Returns the kind of point: "infeasible", "stable-infeasible", "failing"
    (stable-feasible, condition fails) or "strong".
    """
    assert sf.check_almost_integral(market, x) == \
        reference_check_almost_integral(market, x)
    feasibility = sf.check_feasibility(market, x)
    assert repr(feasibility) == repr(reference_check_feasibility(market, x))
    report = sf.check_stable_feasibility(market, x)
    assert repr(report) == repr(reference_check_stable_feasibility(market, x))
    reference = reference_evaluate(market, x)
    assert (report.violations, report.tight, report._sums) == \
        (reference.violations, reference.tight, reference._sums)
    if not feasibility.feasible:
        return "infeasible"
    if not report.feasible:
        return "stable-infeasible"
    condition = sf.strong_stability_check(market, x)
    pairs, overall = reference_pair_conditions(market, x)
    assert (repr(condition.pairs), condition.overall) == (repr(pairs), overall)
    assert repr(condition.first_failure()) == \
        repr(next((c for c in pairs if c.product), None))
    if not overall:
        return "failing"
    assert repr(sf.decompose(market, x)) == repr(
        reference_threshold_sweep(market, x))
    return "strong"


def _perturbed(market, x, rng):
    """x with one acceptable entry moved by a random rational: a point that
    typically breaks a quota, unit or no-blocking row."""
    f, w = rng.choice(market.pairs())
    delta = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(2, 7))
    rows = [list(row) for row in x.entries]
    rows[market.firm_index(f)][market.worker_index(w)] += delta
    return sf.FractionalMatching.from_rows(rows)


def test_integer_evaluation_matches_reference_on_fleet(fleet, fleet_stable):
    rng = random.Random(606)
    kinds, violated, almost_integral = {}, set(), set()
    for m, stable in zip(fleet, fleet_stable):
        incidences = [sf.incidence_vector(m, mu) for mu in stable]
        points = list(incidences)
        points += [_random_mix(m, stable, rng) for _ in range(4)]
        for mu in stable[:2]:
            points += hull_samples(m, mu, seed=rng.randint(0, 999), count=2)
        if m.pairs():
            start = interior_walk(m, points[-1], rng)
            trace = []
            points += [start, sf.vertex_walk(m, start, rng, trace=trace)] + trace
            points += [_perturbed(m, p, rng) for p in points[:8]]
        for x in points:
            kind = assert_matches_reference(m, x)
            kinds[kind] = kinds.get(kind, 0) + 1
            violated.update(cid[0] for cid, _, _ in
                            sf.check_stable_feasibility(m, x).violations)
            almost_integral.add(sf.check_almost_integral(m, x))
    assert set(kinds) == {"infeasible", "stable-infeasible", "failing", "strong"}
    assert {"quota", "unit", "nonneg", "noblock"} <= violated
    assert almost_integral == {True, False}


def test_integer_evaluation_matches_reference_on_raw_matrices(market, fleet):
    # negative entries and nonzeros off the acceptable pairs, which
    # parse_fractional rejects but from_rows accepts
    rng = random.Random(77)
    violated = set()
    for m in [market] + fleet[18:24]:
        for _ in range(20):
            rows = [[Fraction(rng.randint(-3, 4), rng.randint(1, 6))
                     if rng.random() < 0.6 else 0 for _ in m.workers]
                    for _ in m.firms]
            x = sf.FractionalMatching.from_rows(rows)
            assert_matches_reference(m, x)
            violated.update(cid[0] for cid, _, _ in
                            sf.check_stable_feasibility(m, x).violations)
    assert {"quota", "unit", "nonneg", "zero", "noblock"} <= violated


def test_integer_evaluation_with_coprime_denominators(block_market):
    # weights 1/97, 1/101, 1/103, ...: D is a product of distinct primes,
    # beyond a machine word on the larger connected sets
    m = block_market
    stable = sorted(sf.enumerate_stable_bruteforce(m), key=lambda mu: mu.assignment)
    primes = [97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157,
              163, 167, 173, 179, 181, 191, 193, 197, 199, 211]

    def prime_mix(matchings):
        weights = [Fraction(1, p) for p in primes[:len(matchings) - 1]]
        weights.append(1 - sum(weights))
        terms = [(sf.incidence_vector(m, nu), a) for nu, a in zip(matchings, weights)]
        x = sf.FractionalMatching.linear_combination(terms)
        assert_canonical(x, reference_linear_combination(terms))
        return x

    rng = random.Random(5)
    kinds, largest = [], 1
    for mu in stable:
        rotations = sf.find_cycles(sf.reduce_profile(m, mu))
        x = prime_mix(sorted(sf.connected_set(m, mu, rotations),
                             key=lambda nu: nu.assignment))
        largest = max(largest, lcm(*(v.denominator for row in x.entries for v in row)))
        kinds += [assert_matches_reference(m, x),
                  assert_matches_reference(m, _perturbed(m, x, rng))]
    kinds.append(assert_matches_reference(m, prime_mix(stable)))
    assert largest > 2 ** 64
    assert {"strong", "failing", "infeasible"} <= set(kinds)


_RATIONALS = st.fractions(min_value=-1, max_value=2, max_denominator=12)


@pytest.fixture(scope="module")
def block_incidences(block_market):
    stable = sorted(sf.enumerate_stable_bruteforce(block_market),
                    key=lambda mu: mu.assignment)
    return [sf.incidence_vector(block_market, mu) for mu in stable]


@settings(max_examples=40, deadline=None)
@given(values=st.lists(_RATIONALS, min_size=8, max_size=8),
       keep=st.lists(st.booleans(), min_size=8, max_size=8))
def test_integer_evaluation_property_on_raw_matrices(market, values, keep):
    # the example market: 2 firms (f1 with quota 2) and 4 workers
    flat = [v if k else Fraction(0) for v, k in zip(values, keep)]
    x = sf.FractionalMatching.from_rows([flat[:4], flat[4:]])
    assert_matches_reference(market, x)


@settings(max_examples=40, deadline=None)
@given(raw=st.lists(st.integers(min_value=0, max_value=30), min_size=24, max_size=24))
def test_integer_evaluation_property_on_stable_mixes(block_market, block_incidences,
                                                     raw):
    # random convex weights over the block market's 24 stable matchings
    if not any(raw):
        raw = [1] + raw[1:]
    total = sum(raw)
    x = sf.FractionalMatching.linear_combination(
        [(inc, Fraction(r, total)) for inc, r in zip(block_incidences, raw) if r])
    assert assert_matches_reference(block_market, x) in ("failing", "strong")


_NEAR_INTEGRAL = st.sampled_from(
    [Fraction(v) for v in (0, 0, 0, 1, 1, 2, -1)]
    + [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3),
       Fraction(2, 3), Fraction(-4, 3), Fraction(5, 6)])


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.lists(_NEAR_INTEGRAL, min_size=4, max_size=4),
                     min_size=2, max_size=2))
def test_almost_integral_property_on_raw_matrices(market, rows):
    # negative entries, entries above one, and fractional pairs that may or
    # may not sum to an integer
    x = sf.FractionalMatching.from_rows(rows)
    assert sf.check_almost_integral(market, x) == \
        reference_check_almost_integral(market, x)


def test_from_scaled_matches_the_gcd_over_every_cell(market, fleet, fleet_stable,
                                                     monkeypatch):
    """``_from_scaled`` reduces by the gcd of the nonzero numerators and
    divides no zero cell; its form equals that of the gcd over every cell
    on each call the fleet's hull samples make, and on an all-zero grid."""
    real = sf.FractionalMatching._from_scaled.__func__
    calls = []

    def recorded(cls, denom, rows):
        rows = [list(row) for row in rows]
        x = real(cls, denom, rows)
        calls.append((denom, rows, x))
        return x

    monkeypatch.setattr(sf.FractionalMatching, "_from_scaled", classmethod(recorded))
    for idx, (m, stable) in enumerate(zip(fleet, fleet_stable)):
        for mu in stable:
            hull_samples(m, mu, seed=idx, count=2)
    _from_cells(market, 28, [])
    for denom, rows, x in calls:
        assert (x._denom, x._nums) == reference_from_scaled(denom, rows)
    assert calls[-1][2]._nums == ((0,) * 4,) * 2 and calls[-1][2]._denom == 1
    reduced = sum(x._denom < denom for denom, _, x in calls)
    assert len(calls) > 100 and reduced > 50


def test_canonical_form_from_every_source(fleet, fleet_stable):
    rng = random.Random(808)
    reconstructed = walked = 0
    for m, stable in zip(fleet, fleet_stable):
        incidences = [sf.incidence_vector(m, mu) for mu in stable]
        for mu, x in zip(stable, incidences):
            assert_canonical(x, sf.FractionalMatching.from_rows(
                [[int(w in mu.matched(f)) for w in m.workers] for f in m.firms]))
        seed = rng.random()
        x = _random_mix(m, stable, random.Random(seed))
        draws = random.Random(seed)
        raw = [draws.randint(0, 8) for _ in incidences]
        raw[0] += not any(raw)
        assert_canonical(x, reference_linear_combination(
            [(v, Fraction(r, sum(raw))) for v, r in zip(incidences, raw) if r]))
        # signed weights, as ``peel`` uses
        terms = [(v, Fraction(rng.randint(-3, 5), rng.randint(1, 7)))
                 for v in incidences + [x]]
        assert_canonical(sf.FractionalMatching.linear_combination(terms),
                         reference_linear_combination(terms))
        for y in [x] + hull_samples(m, stable[0], seed=rng.randint(0, 999), count=2):
            reference = sf.FractionalMatching.from_rows(y.entries)
            assert_canonical(y, reference)
            assert_canonical(sf.parse_fractional(m, serialize_fractional(m, y)),
                             reference)
            if sf.strong_stability_check(m, y).overall:
                dec = sf.decompose(m, y)
                assert_canonical(dec.reconstruct(m), reference_reconstruct(m, dec))
                reconstructed += 1
        if m.pairs():
            trace = []
            start = interior_walk(m, x, rng)
            end = sf.vertex_walk(m, start, rng, trace=trace)
            for y in [start, end] + trace:
                assert_canonical(y, sf.FractionalMatching.from_rows(y.entries))
                walked += 1
    assert reconstructed > 60 and walked > 60

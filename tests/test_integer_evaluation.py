"""The integer evaluation of a point against its Fraction references.

The library scales a point once by the LCM of its denominators and reads the
stable-feasibility system, the strong stability condition and the threshold
sweep off integer prefix sums.  The references below evaluate the same
objects entry by entry in ``Fraction``s, as the library did before; every
report and decomposition must come out equal, down to the repr.
"""

import random
from fractions import Fraction
from math import ceil, lcm

import pytest
from hypothesis import given, settings, strategies as st

import stablefrac as sf
from stablefrac.hulls import _random_mix
from stablefrac.polytope import firm_weak_prefix, interior_walk, worker_weak_prefix
from stablefrac.strong_stability import _pair_conditions, _threshold_sweep


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
    overall = all(c.product == 0 for c in conditions)
    return sf.StrongStabilityReport(tuple(conditions), overall)


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


def assert_matches_reference(market, x):
    """Every integer-evaluated object at x equals its Fraction reference.

    Returns the kind of point: "infeasible", "stable-infeasible", "failing"
    (stable-feasible, condition fails) or "strong".
    """
    feasibility = sf.check_feasibility(market, x)
    assert repr(feasibility) == repr(reference_check_feasibility(market, x))
    report = sf.check_stable_feasibility(market, x)
    assert repr(report) == repr(reference_check_stable_feasibility(market, x))
    if not feasibility.feasible:
        return "infeasible"
    if not report.feasible:
        return "stable-infeasible"
    condition = _pair_conditions(market, report._sums)
    assert repr(condition) == repr(reference_pair_conditions(market, x))
    assert sf.strong_stability_check(market, x) == condition
    if not condition.overall:
        return "failing"
    assert repr(_threshold_sweep(market, x, report._sums)) == repr(
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
    kinds, violated = {}, set()
    for m, stable in zip(fleet, fleet_stable):
        incidences = [sf.incidence_vector(m, mu) for mu in stable]
        points = list(incidences)
        points += [_random_mix(incidences, rng) for _ in range(4)]
        for mu in stable[:2]:
            points += sf.sample_hull(m, mu, seed=rng.randint(0, 999), count=2)
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
    assert set(kinds) == {"infeasible", "stable-infeasible", "failing", "strong"}
    assert {"quota", "unit", "nonneg", "noblock"} <= violated


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
        return sf.FractionalMatching.linear_combination(
            [(sf.incidence_vector(m, nu), a) for nu, a in zip(matchings, weights)])

    rng = random.Random(5)
    kinds, largest = [], 1
    for mu in stable:
        rotations = sf.find_cycles(sf.reduce_profile(m, mu))
        x = prime_mix(sorted(sf.connected_set(m, mu, tuple(rotations)),
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

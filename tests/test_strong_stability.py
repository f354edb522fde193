import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stablefrac as sf
from oracles import (apply_cycle_set, cloned_blocks, dominates, hull_samples,
                     reference_condition)
from stablefrac.hulls import _random_mix

DATA = Path(__file__).parent / "data"


def _pair(report, f, w):
    return next(c for c in report.pairs if (c.firm, c.worker) == (f, w))


def test_condition_witness_on_fractional_vertex(market, x_vertex):
    report = sf.strong_stability_check(market, x_vertex)
    assert not report.overall
    witness = _pair(report, "f2", "w3")
    assert witness.firm_factor == Fraction(1, 2)
    assert witness.worker_factor == Fraction(1, 2)
    assert witness.product == Fraction(1, 4)
    # the only failing pair
    assert [(c.firm, c.worker) for c in report.pairs if c.product] == [("f2", "w3")]


def test_stable_incidences_pass_condition(market, x_firm, x_worker):
    assert sf.strong_stability_check(market, x_firm).overall
    assert sf.strong_stability_check(market, x_worker).overall


def test_midpoint_passes_condition(market, x_mid):
    report = sf.strong_stability_check(market, x_mid)
    assert report.overall
    assert all(c.product == 0 for c in report.pairs)


def test_first_failure_is_none_on_a_passing_report(market, x_mid, x_vertex):
    """A failing report gives its first failing pair; a passing one gives
    None, and no StopIteration escapes into a caller's ``map``."""
    failing = sf.strong_stability_check(market, x_vertex)
    assert failing.first_failure() == _pair(failing, "f2", "w3")
    passing = sf.strong_stability_check(market, x_mid)
    assert passing.first_failure() is None
    assert list(map(lambda r: r.first_failure(), [passing, failing])) == \
        [None, _pair(failing, "f2", "w3")]


def test_condition_requires_stable_feasibility(market):
    zero = sf.parse_fractional(market, "0 0 0 0\n0 0 0 0\n")
    with pytest.raises(sf.InfeasibleError):
        sf.strong_stability_check(market, zero)


def test_support_matching_examples(market, mu_f, mu_w, x_vertex, x_mid, x_worker):
    assert sf.support_matching(market, x_vertex) == mu_f
    assert sf.support_matching(market, x_worker) == mu_w
    assert sf.support_matching(market, x_mid) == mu_f


def test_support_matching_contested_worker():
    m = sf.parse_market("""
firms: f1 f2
workers: w1 w2
quota: f1=1 f2=1
firm f1: w1 w2
firm f2: w1 w2
worker w1: f1 f2
worker w2: f1 f2
""")
    x = sf.parse_fractional(m, "1/2 0\n1/2 0\n")
    with pytest.raises(sf.ContestedWorkerError) as err:
        sf.support_matching(m, x)
    assert err.value.worker == "w1"


@pytest.mark.parametrize("text,feasibility_violations", [
    ("0 0 0 0\n0 0 0 0\n", 0),      # feasible, blocked at every pair
    ("1 1 1 0\n0 0 0 0\n", 1),      # f1 over its quota of 2
    ("1 0 0 0\n1 0 0 1\n", 1),      # w1 over its unit
])
def test_support_matching_reads_a_kept_report(monkeypatch, market, text,
                                              feasibility_violations):
    """``support_matching`` reads the point's one stable-feasibility
    evaluation: a fresh point is evaluated once, a point that keeps its
    report not at all, and the outcome is the same: the same matching, or
    the same ``InfeasibleError``, at the constraint and values that
    ``check_feasibility`` names first.  The kept report holds
    ``feasibility_violations`` rows that are not noblock rows."""
    calls = []
    real = sf.polytope._evaluate

    def counted(m, x):
        calls.append(x)
        return real(m, x)

    monkeypatch.setattr(sf.polytope, "_evaluate", counted)

    def outcome(x):
        try:
            return sf.support_matching(market, x)
        except sf.InfeasibleError as exc:
            return exc.constraint, exc.lhs, exc.rhs, str(exc)

    point = sf.parse_fractional(market, text)
    fresh = outcome(point)
    assert len(calls) == 1 and calls[0] is point
    x = sf.parse_fractional(market, text)
    report = sf.check_stable_feasibility(market, x)
    assert not report.feasible
    assert sum(cid[0] != "noblock" for cid, _, _ in report.violations) == \
        feasibility_violations
    calls.clear()
    assert outcome(x) == fresh
    assert calls == []
    feasibility = sf.check_feasibility(market, x)
    assert feasibility.feasible == (not feasibility_violations)
    if feasibility_violations:
        assert fresh[:3] == feasibility.violations[0]


def test_peel_midpoint(market, mu_f, x_mid, x_worker):
    alpha, mu, residue = sf.peel(market, x_mid)
    assert alpha == Fraction(1, 2)
    assert mu == mu_f
    assert residue == x_worker


def test_peel_three_quarters(market, mu_f, x_firm, x_worker):
    x = sf.FractionalMatching.linear_combination(
        [(x_firm, Fraction(3, 4)), (x_worker, Fraction(1, 4))])
    alpha, mu, residue = sf.peel(market, x)
    assert (alpha, mu) == (Fraction(3, 4), mu_f)
    assert residue == x_worker


def test_peel_rejects_fractional_vertex(market, x_vertex, x_firm):
    with pytest.raises(sf.NotStronglyStableError) as err:
        sf.peel(market, x_vertex)
    assert err.value.pair == ("f2", "w3")
    assert err.value.product == Fraction(1, 4)
    # its would-be residue is an unstable matching: the independent reason
    # the peel must refuse
    residue = sf.FractionalMatching.linear_combination(
        [(x_vertex, Fraction(2)), (x_firm, Fraction(-1))])
    mu = sf.matching_from_matrix(market, residue)
    assert mu.as_dict() == {"f1": ("w1", "w3"), "f2": ("w2", "w4")}
    assert not sf.is_stable(market, mu)


def test_peel_rejects_integral_points(market, x_firm):
    with pytest.raises(sf.AlreadyIntegralError):
        sf.peel(market, x_firm)


def test_decompose_integral(market, mu_f, x_firm):
    dec = sf.decompose(market, x_firm)
    assert dec.terms == ((mu_f, Fraction(1)),)


def test_decompose_midpoint(market, mu_f, mu_w, x_mid):
    dec = sf.decompose(market, x_mid)
    assert dec.terms == ((mu_f, Fraction(1, 2)), (mu_w, Fraction(1, 2)))
    assert dec.reconstruct(market) == x_mid


def test_decompose_two_thirds(market, mu_f, mu_w, x_firm, x_worker):
    x = sf.FractionalMatching.linear_combination(
        [(x_firm, Fraction(2, 3)), (x_worker, Fraction(1, 3))])
    dec = sf.decompose(market, x)
    assert dec.terms == ((mu_f, Fraction(2, 3)), (mu_w, Fraction(1, 3)))


def test_decompose_refuses_with_witness(market, x_vertex):
    with pytest.raises(sf.NotStronglyStableError) as err:
        sf.decompose(market, x_vertex)
    assert err.value.pair == ("f2", "w3")


def test_almost_integral_examples(market, x_mid, x_vertex):
    assert sf.check_almost_integral(market, x_mid)
    # necessary, not sufficient: the fractional vertex has the pattern too
    assert sf.check_almost_integral(market, x_vertex)
    assert not sf.strong_stability_check(market, x_vertex).overall


def test_almost_integral_rejects_three_way_column():
    m = sf.parse_market("""
firms: f1 f2 f3
workers: w1
quota: f1=1 f2=1 f3=1
firm f1: w1
firm f2: w1
firm f3: w1
worker w1: f1 f2 f3
""")
    x = sf.FractionalMatching.from_rows(
        [[Fraction(1, 3)], [Fraction(1, 3)], [Fraction(1, 3)]])
    assert not sf.check_almost_integral(m, x)


def test_almost_integral_rejects_lone_fraction(market):
    x = sf.parse_fractional(market, "1/2 0 0 0\n0 0 0 0\n")
    assert not sf.check_almost_integral(market, x)


def test_stable_incidences_pass_condition_everywhere(fleet, fleet_stable):
    for m, stable in zip(fleet, fleet_stable):
        for mu in stable:
            assert sf.strong_stability_check(m, sf.incidence_vector(m, mu)).overall


def test_condition_matches_its_definition(fleet, fleet_stable):
    """The condition report equals ``reference_condition`` on the fleet's
    stable matchings, the midpoints of consecutive ones and failing mixes of
    them, and on a cloned block market, as does the first failure; every
    factor of one value is one shared object."""
    block = cloned_blocks([2] * 4, 2)
    block_stable = sorted(sf.enumerate_stable_via_rotations(block),
                          key=lambda mu: mu.assignment)
    rng = random.Random(34)
    checked = failing = 0
    for m, stable in [*zip(fleet, fleet_stable), (block, block_stable)]:
        points = [sf.incidence_vector(m, mu) for mu in stable]
        points += [sf.FractionalMatching.linear_combination(
            [(x, Fraction(1, 2)), (y, Fraction(1, 2))]) for x, y in zip(points, points[1:])]
        mixes = [_random_mix(m, stable, rng) for _ in range(4)]
        points += [x for x in mixes if any(c.product for c in reference_condition(m, x))]
        for x in points:
            report = sf.strong_stability_check(m, x)
            want = reference_condition(m, x)
            assert report.pairs == want
            assert report.overall == all(c.product == 0 for c in want)
            assert report.first_failure() == next((c for c in want if c.product), None)
            factors = [v for c in report.pairs for v in (c.firm_factor, c.worker_factor)]
            assert len({id(v) for v in factors}) == len(set(factors))
            checked += 1
            failing += not report.overall
    assert checked > 250 and failing > 30


def test_sampled_points_decompose_and_sandwich(fleet, fleet_stable):
    for idx, (m, stable) in enumerate(zip(fleet[:12], fleet_stable[:12])):
        top = sf.incidence_vector(m, sf.deferred_acceptance(m, sf.Side.FIRMS))
        bottom = sf.incidence_vector(m, sf.deferred_acceptance(m, sf.Side.WORKERS))
        for mu in stable:
            for x in hull_samples(m, mu, seed=40 + idx, count=5):
                report = sf.strong_stability_check(m, x)
                assert report.overall
                chosen = sf.support_matching(m, x)
                assert sf.is_stable(m, chosen)
                # the whole feasible band sits between the two optima
                assert dominates(m, top, x) and dominates(m, x, bottom)
                assert dominates(m, bottom, x, m.workers)
                assert dominates(m, x, top, m.workers)
                assert sf.check_almost_integral(m, x)


def _support(x):
    return {(i, j) for i, row in enumerate(x.entries)
            for j, v in enumerate(row) if v > 0}


def test_peel_shrinks_support_and_keeps_condition(fleet, fleet_stable):
    rng = random.Random(4242)
    checked = 0
    for m, stable in zip(fleet, fleet_stable):
        if len(stable) < 2:
            continue
        for mu in stable:
            for x in hull_samples(m, mu, seed=rng.randint(0, 10 ** 6), count=3):
                if x.is_integral():
                    continue
                alpha, chosen, residue = sf.peel(m, x)
                assert 0 < alpha < 1
                assert sf.is_stable(m, chosen)
                assert sf.strong_stability_check(m, residue).overall
                assert _support(residue) < _support(x)
                checked += 1
    assert checked >= 20


def _peel_terms(m, x):
    """The ordered decomposition by repeated peeling: the reference route."""
    terms, remaining = [], Fraction(1)
    while True:
        try:
            alpha, mu, x = sf.peel(m, x)
        except sf.AlreadyIntegralError:
            terms.append((sf.support_matching(m, x), remaining))
            return tuple(terms)
        terms.append((mu, remaining * alpha))
        remaining *= 1 - alpha


def test_peel_oracle_matches_decompose_on_fleet(fleet, fleet_stable):
    checked = 0
    for idx, (m, stable) in enumerate(zip(fleet, fleet_stable)):
        for mu in stable:
            for x in hull_samples(m, mu, seed=700 + idx, count=2):
                assert sf.decompose(m, x).terms == _peel_terms(m, x)
                checked += 1
    assert checked >= 100


def test_peel_oracle_matches_decompose_on_block_market(block_market):
    m = block_market
    base = sf.deferred_acceptance(m, sf.Side.FIRMS)
    assert len(sf.find_cycles(sf.reduce_profile(m, base))) >= 3
    stable = sorted(sf.enumerate_stable_bruteforce(m), key=lambda mu: mu.assignment)
    assert len(stable) == 24
    longest = 0
    for idx, mu in enumerate(stable):
        for x in hull_samples(m, mu, seed=idx, count=2):
            dec = sf.decompose(m, x)
            assert dec.terms == _peel_terms(m, x)
            longest = max(longest, len(dec.terms))
    assert longest >= 4


def test_rotations_with_equal_weight_merge_into_one_term(block_market):
    m = block_market
    base = sf.deferred_acceptance(m, sf.Side.FIRMS)
    rotations = sf.find_cycles(sf.reduce_profile(m, base))
    lambdas = [Fraction(1, 3), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]
    inc = sf.incidence_vector(m, base)
    parts = [(inc, Fraction(1))]
    for rot, lam in zip(rotations, lambdas):
        moved = sf.incidence_vector(m, sf.apply_cycle(m, base, rot))
        parts += [(moved, lam), (inc, -lam)]
    x = sf.FractionalMatching.linear_combination(parts)
    dec = sf.decompose(m, x)
    assert dec.terms == _peel_terms(m, x)
    # rotation i is applied from threshold 1 - lambda_i on: five matchings
    # would need five terms, but the two rotations at 1/3 arrive together
    assert tuple(a for _, a in dec.terms) == (Fraction(1, 4), Fraction(1, 4),
                                              Fraction(1, 6), Fraction(1, 3))
    rotations = list(rotations)
    assert tuple(mu for mu, _ in dec.terms) == (
        base,
        apply_cycle_set(m, base, rotations[3:]),
        apply_cycle_set(m, base, rotations[2:]),
        apply_cycle_set(m, base, rotations))


def test_reconstruction_check_survives_optimize(src_env, tmp_path):
    script = tmp_path / "wrong_reconstruct.py"
    script.write_text(f"""
import sys
import stablefrac as sf
if sys.flags.optimize < 1:
    sys.exit("not running under -O")
m = sf.parse_market(open({str(DATA / "example.market")!r}).read())
x = sf.parse_fractional(m, open({str(DATA / "mid.frac")!r}).read())
zero = sf.FractionalMatching.from_rows([[0] * m.n_workers for _ in m.firms])
sf.Decomposition.reconstruct = lambda self, market: zero
sf.decompose(m, x)
""")
    run = subprocess.run([sys.executable, "-O", str(script)], env=src_env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1, run.stderr
    assert "AssertionError: decomposition does not reconstruct" in run.stderr


_DOCTORED_SWEEP = """
import sys
import pytest
import stablefrac as sf
from stablefrac.polytope import ConstraintReport, _ScaledSums
# both firms rank w1 first and hold half of each worker, so the sweep's first
# term gives both of them w1; worker sums of D make every worker gap zero,
# so the condition lets the doctored point through to the sweep
m = sf.parse_market(
    'firms: f1 f2\\nworkers: w1 w2\\nfirm f1: w1 w2\\nfirm f2: w1 w2\\n'
    'worker w1: f1 f2\\nworker w2: f1 f2\\n')

def doctored(firm_sums):
    x = sf.parse_fractional(m, '1/2 1/2\\n1/2 1/2\\n')
    x._stable = (m, ConstraintReport((), (), _ScaledSums([1] * 4, firm_sums, [2] * 4)))
    return x

with pytest.raises(ValueError, match='worker w1 assigned twice'):
    sf.decompose(m, doctored([1, 2, 1, 2]))
# a second prefix sum of 3 puts both of f1's workers in the first term
with pytest.raises(ValueError, match='firm f1 exceeds its quota'):
    sf.decompose(m, doctored([1, 3, 1, 2]))
print('raised', sys.flags.optimize)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_sweep_refuses_doctored_prefix_sums(src_env, tmp_path, flags):
    """A sweep fed prefix sums that put a worker in two rows of one term,
    or a firm over its quota, raises; both checks hold under ``python -O``."""
    script = tmp_path / "doctored_sweep.py"
    script.write_text(_DOCTORED_SWEEP)
    run = subprocess.run([sys.executable, *flags, str(script)], env=src_env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"raised {len(flags)}\n"


def test_certify_term_check_survives_optimize(src_env, tmp_path):
    script = tmp_path / "no_rotations.py"
    script.write_text(f"""
import sys
import stablefrac as sf
if sys.flags.optimize < 1:
    sys.exit("not running under -O")
m = sf.parse_market(open({str(DATA / "example.market")!r}).read())
x = sf.parse_fractional(m, open({str(DATA / "mid.frac")!r}).read())
# with no rotations the base's cube is the base alone, so the second term
# of the midpoint's decomposition is no vertex of it
sf.hulls.find_cycles = lambda profile: ()
sf.certify_strongly_stable(m, x)
""")
    run = subprocess.run([sys.executable, "-O", str(script)], env=src_env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1, run.stderr
    assert ("AssertionError: strongly stable point lies outside its base's cube"
            in run.stderr)

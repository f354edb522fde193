import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stablefrac as sf
from oracles import (RANDOM_SIZES, ReferenceRref, random_markets,
                     reference_interior_walk, reference_vertex_walk, walk_pair)
from stablefrac import polytope
from stablefrac.cli import main
from stablefrac.hulls import _random_mix
from stablefrac.linalg import Rref, rank, solve_exact
from stablefrac.polytope import _drop_each, _inequality_rows, _Point, interior_walk

DATA = Path(__file__).parent / "data"


def test_stable_incidences_are_feasible(market, x_firm, x_worker, x_vertex):
    for x in (x_firm, x_worker, x_vertex):
        assert sf.check_feasibility(market, x).feasible
        assert sf.check_stable_feasibility(market, x).feasible


def test_vertex_point_has_tight_quota_rows(market, x_vertex):
    report = sf.check_feasibility(market, x_vertex)
    assert ("quota", "f1") in report.tight
    assert ("quota", "f2") in report.tight


def test_quota_violation_reported(market):
    x = sf.parse_fractional(market, "1 1/2 1/2 1/2\n0 0 0 0\n")
    report = sf.check_feasibility(market, x)
    assert not report.feasible
    cid, lhs, rhs = report.first_violation()
    assert cid == ("quota", "f1")
    assert lhs == Fraction(5, 2) and rhs == 2


def test_evaluation_refuses_a_matrix_of_other_dimensions(market):
    for rows in ([[0] * 4], [[0] * 3, [0] * 3], [[0] * 4, [0] * 5]):
        with pytest.raises(ValueError,
                           match="^matrix dimensions do not match the market$"):
            sf.check_stable_feasibility(market, sf.FractionalMatching.from_rows(rows))


def test_unit_violation_reported(market):
    x = sf.parse_fractional(market, "1 0 0 0\n1/2 0 0 0\n")
    report = sf.check_feasibility(market, x)
    assert (("unit", "w1"), Fraction(3, 2), Fraction(1)) in report.violations


def test_zero_matrix_feasible_but_blocked(market):
    zero = sf.parse_fractional(market, "0 0 0 0\n0 0 0 0\n")
    cp = sf.check_feasibility(market, zero)
    assert cp.feasible
    assert not any(cid[0] in ("quota", "unit") for cid in cp.tight)
    scp = sf.check_stable_feasibility(market, zero)
    assert not scp.feasible
    # every acceptable pair would rather be matched than idle
    assert {cid for cid, _, _ in scp.violations} == {
        ("noblock", f, w) for f, w in market.pairs()}


def test_stable_feasibility_extends_feasibility_term_for_term(market, x_mid):
    cp = sf.check_feasibility(market, x_mid)
    scp = sf.check_stable_feasibility(market, x_mid)
    assert set(cp.violations) <= set(scp.violations)
    assert set(cp.tight) <= set(scp.tight)
    extra = set(scp.tight) - set(cp.tight)
    assert all(cid[0] == "noblock" for cid in extra)


def test_fractional_vertex_rank(market, x_vertex):
    assert sf.is_extreme_point(market, x_vertex) == (True, 8)


def test_midpoint_is_not_a_vertex(market, x_mid):
    is_vertex, rank = sf.is_extreme_point(market, x_mid)
    assert not is_vertex
    assert rank == 7


def test_integer_stable_points_are_vertices(market, x_firm, x_worker):
    assert sf.is_extreme_point(market, x_firm) == (True, 8)
    assert sf.is_extreme_point(market, x_worker) == (True, 8)


def test_extreme_point_requires_feasibility(market):
    zero = sf.parse_fractional(market, "0 0 0 0\n0 0 0 0\n")
    with pytest.raises(sf.InfeasibleError):
        sf.is_extreme_point(market, zero)


def test_integer_stable_feasibility_matches_oracle(fleet, fleet_stable):
    # stable-feasible incidence vectors are exactly the stable matchings
    import itertools
    for m, stable in zip(fleet[:8], fleet_stable[:8]):
        choices = [(None,) + m.acceptable_to_worker(w) for w in m.workers]
        seen = set()
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
            if sf.check_stable_feasibility(m, sf.incidence_vector(m, mu)).feasible:
                seen.add(mu)
        assert seen == set(stable)


def test_vertex_walk_lands_on_vertices(market, x_firm, x_worker, x_vertex):
    rng = random.Random(5150)
    mix = sf.FractionalMatching.linear_combination(
        [(x_firm, Fraction(2, 5)), (x_worker, Fraction(3, 5))])
    hit_fractional = False
    for _ in range(25):
        v = sf.vertex_walk(market, interior_walk(market, mix, rng), rng)
        ok, rank = sf.is_extreme_point(market, v)
        assert ok and rank == 8
        if not v.is_integral():
            hit_fractional = True
            assert not sf.strong_stability_check(market, v).overall
    assert hit_fractional, "fuzzing should reach a fractional vertex here"


def test_interior_walk_preserves_feasibility(fleet, fleet_stable):
    rng = random.Random(77)
    for m, stable in zip(fleet[:6], fleet_stable[:6]):
        x = sf.incidence_vector(m, stable[0])
        y = interior_walk(m, x, rng)
        assert sf.check_stable_feasibility(m, y).feasible


def test_walks_match_fraction_reference(fleet, fleet_stable, block_market,
                                        cyclic_blocks):
    markets = list(zip(fleet, fleet_stable))
    extra = [block_market, cyclic_blocks([2, 2, 3])]
    extra += [m for size in RANDOM_SIZES for m in random_markets(*size)[:20]]
    markets += [(m, sorted(sf.enumerate_stable_bruteforce(m),
                           key=lambda mu: mu.assignment)) for m in extra]
    steps = fractional = 0
    for k, (m, stable) in enumerate(markets):
        for j in range(2):
            x = _random_mix(m, stable, random.Random(f"{k}:{j}"))
            got = walk_pair(m, x, 2 * k + j, interior_walk, sf.vertex_walk)
            want = walk_pair(m, x, 2 * k + j, reference_interior_walk,
                             reference_vertex_walk)
            assert got == want, (k, j)
            steps += len(got[2])
            fractional += not got[1].is_integral()
    assert len(markets) == 92
    assert steps > 100 and fractional > 3


def test_vertex_walk_adds_each_row_once(fleet, fleet_stable, monkeypatch):
    # a row tight before a step stays tight, so only the rows that bind in
    # the ratio test are new; re-adding the old ones is wasted elimination
    added = []
    real_add = Rref.add

    def add(self, vector):
        added.append(vector)
        return real_add(self, vector)

    monkeypatch.setattr(Rref, "add", add)
    rng = random.Random(31)
    walks = 0
    for m, stable in zip(fleet, fleet_stable):
        for _ in range(3):
            start = interior_walk(m, _random_mix(m, stable, rng), rng)
            added.clear()
            sf.vertex_walk(m, start, rng)
            counts = Counter(map(id, added))
            assert max(counts.values(), default=1) == 1
            walks += len(added) > 0
    assert walks > 80


def test_kept_basis_equals_a_fresh_one_on_walk_points(fleet, fleet_stable):
    """At every fleet walk point, each dropped row's basis built from the
    copied basis of the rows never dropped equals a fresh ``Rref`` of every
    tight row but the dropped one, in the walk's shuffled order."""
    rng = random.Random(53)
    bases = 0
    for m, stable in zip(fleet, fleet_stable):
        n = len(m.pairs())
        rows = _inequality_rows(m)
        x = _random_mix(m, stable, rng)
        start = interior_walk(m, x, rng)
        trace = []
        sf.vertex_walk(m, start, rng, trace=trace)
        for y in [x, start] + trace:
            point = _Point(m, y)
            tight = [row for row in rows if point.is_tight(row)]
            rng.shuffle(tight)
            for dropped, basis in _drop_each(tight[:6], tight[6:], n):
                fresh = Rref(n)
                for row in tight:
                    if row is not dropped:
                        fresh.add(row.coeffs)
                assert basis.rows == fresh.rows
                bases += 1
    assert bases > 500


def test_verify_builds_the_inequality_rows_once(block_market, monkeypatch):
    """Two interior and two vertex walks on one market share one build of its
    rows, which keep the order and values of a fresh build."""
    m = sf.parse_market(sf.serialize_market(block_market))    # nothing cached
    made = []

    class Counted(sf.polytope._Inequality):
        def __init__(self, cid, coeffs, rhs):
            made.append(cid)
            super().__init__(cid, coeffs, rhs)

    monkeypatch.setattr(sf.polytope, "_Inequality", Counted)
    outcome = sf.verify_characterization(m, seed=0, samples=50)
    assert outcome.ok and outcome.vertex_points == 2
    rows = _inequality_rows(m)
    assert made == [row.cid for row in rows]
    assert _inequality_rows(m) is rows
    monkeypatch.undo()
    fresh = _inequality_rows(sf.parse_market(sf.serialize_market(m)))
    assert [(r.cid, r.coeffs, r.rhs) for r in rows] == \
        [(r.cid, r.coeffs, r.rhs) for r in fresh]


def test_walks_at_check_dense_sizes():
    for seed in (0, 2, 3):
        m = sf.gen_random_market(seed, 10, 13, 2, density=1.0)
        assert len(m.pairs()) == 130
        rng = random.Random(seed)
        v = sf.vertex_walk(m, interior_walk(m, _midpoint(m), rng), rng)
        assert sf.is_extreme_point(m, v) == (True, 130)


def test_constraint_labels(market):
    assert sf.constraint_label(("noblock", "f2", "w3")) == "noblock:f2,w3"
    assert sf.constraint_label(("quota", "f1")) == "quota:f1"


# --- the sparse, presolved rank against a dense reference ------------------

def _dense_rank(rows: list[list[Fraction]]) -> int:
    """Dense exact Gaussian elimination over full rows: the reference rank."""
    basis: dict[int, list[Fraction]] = {}
    for row in rows:
        v = [Fraction(a) for a in row]
        for p, b in basis.items():
            if v[p]:
                c = v[p]
                v = [a - c * y for a, y in zip(v, b)]
        pivot = next((c for c, a in enumerate(v) if a), None)
        if pivot is None:
            continue
        v = [a / v[pivot] for a in v]
        for p, b in basis.items():
            if b[pivot]:
                c = b[pivot]
                basis[p] = [a - c * y for a, y in zip(b, v)]
        basis[pivot] = v
    return len(basis)


def _dense_row(m: sf.Market, cid) -> list[Fraction]:
    """One constraint row over all acceptable pairs, built from its definition."""
    kind, f, *rest = cid
    coeff = {}
    for g, w in m.pairs():
        if kind == "quota":
            coeff[g, w] = int(g == f)
        elif kind == "unit":
            coeff[g, w] = int(w == f)
        elif kind == "nonneg":
            coeff[g, w] = int((g, w) == (f, rest[0]))
        else:
            v = rest[0]
            q = m.quota[f]
            if (g, w) == (f, v):
                coeff[g, w] = q
            elif g == f:
                coeff[g, w] = int(m.firm_rank(f, w) < m.firm_rank(f, v))
            elif w == v:
                coeff[g, w] = q * (m.worker_rank(v, g) < m.worker_rank(v, f))
            else:
                coeff[g, w] = 0
    return [Fraction(coeff[p]) for p in m.pairs()]


def _reference_vertex_test(m: sf.Market, x: sf.FractionalMatching,
                           rng: random.Random) -> tuple[bool, int]:
    rows = [_dense_row(m, cid) for cid in sf.check_stable_feasibility(m, x).tight]
    rng.shuffle(rows)
    r = _dense_rank(rows)
    return r == len(m.pairs()), r


def test_vertex_rank_matches_dense_reference(fleet, fleet_stable):
    rng = random.Random(2024)
    checked = 0
    for m, stable in zip(fleet, fleet_stable):
        points = [sf.incidence_vector(m, mu) for mu in stable]
        points += sf.sample_hull(m, stable[0], 7, 2)
        start = interior_walk(m, points[-1], rng)
        points += [start, sf.vertex_walk(m, start, rng)]
        for x in points:
            assert sf.is_extreme_point(m, x) == _reference_vertex_test(m, x, rng)
            checked += 1
    for seed in (0, 2, 3):
        m = sf.gen_random_market(seed, 10, 13, 2, density=1.0)
        mid = _midpoint(m)
        assert sf.is_extreme_point(m, mid) == _reference_vertex_test(m, mid, rng)
        checked += 1
    assert checked > 150


def _midpoint(m: sf.Market) -> sf.FractionalMatching:
    """Midpoint of the firm- and worker-optimal incidence vectors."""
    ends = [sf.incidence_vector(m, sf.deferred_acceptance(m, side))
            for side in (sf.Side.FIRMS, sf.Side.WORKERS)]
    assert ends[0] != ends[1]
    return sf.FractionalMatching.linear_combination(
        [(ends[0], Fraction(1, 2)), (ends[1], Fraction(1, 2))])


def test_vertex_test_at_800_pairs():
    m = sf.gen_random_market(8, 20, 40, 2, density=1.0)
    assert len(m.pairs()) == 800
    for side in (sf.Side.FIRMS, sf.Side.WORKERS):
        x = sf.incidence_vector(m, sf.deferred_acceptance(m, side))
        assert sf.is_extreme_point(m, x) == (True, 800)
    mid = _midpoint(m)
    assert not sf.is_extreme_point(m, mid)[0]
    rng = random.Random(8)
    v = sf.vertex_walk(m, interior_walk(m, mid, rng), rng)
    assert sf.is_extreme_point(m, v) == (True, 800)


NCOLS = 6
sparse_rows = st.lists(
    st.dictionaries(st.integers(0, NCOLS - 1),
                    st.integers(-3, 3).filter(bool), max_size=4),
    max_size=8)


@given(sparse_rows)
@settings(max_examples=200, deadline=None)
def test_rref_matches_dense_elimination(rows):
    dense = [[Fraction(row.get(c, 0)) for c in range(NCOLS)] for row in rows]
    basis = Rref(NCOLS)
    for k, row in enumerate(rows):
        rose = _dense_rank(dense[:k + 1]) > _dense_rank(dense[:k])
        assert basis.add(row) is rose
    assert basis.rank == rank(rows, NCOLS) == _dense_rank(dense)
    reference = ReferenceRref(NCOLS)
    for row in rows:
        reference.add(row)
    assert basis.pivot_columns() == reference.pivot_columns()
    for p, row in basis.rows.items():
        # primitive integer row with a positive pivot: the reference row
        # times row[p]
        assert all(type(a) is int for a in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1
        assert {c: Fraction(a, row[p]) for c, a in row.items()} == reference.rows[p]
    for col in basis.pivot_columns():
        with pytest.raises(ValueError, match="^free_col is a pivot column$"):
            basis.null_vector(col)
    for col in set(range(NCOLS)) - basis.pivot_columns():
        null = basis.null_vector(col)
        assert all(sum(a * b for a, b in zip(r, null)) == 0 for r in dense)
        assert all(type(a) is int for a in null)
        scale = null[col]
        assert scale > 0
        assert null == [scale * a for a in reference.null_vector(col)]


@given(sparse_rows, sparse_rows)
@settings(max_examples=200, deadline=None)
def test_rref_copy_is_independent(rows, more):
    """Adding rows to a copy leaves the original's rows as they were, and
    the copy ends with the basis a fresh ``Rref`` of all the rows has."""
    basis = Rref(NCOLS)
    for row in rows:
        basis.add(row)
    before = {p: dict(row) for p, row in basis.rows.items()}
    copy = basis.copy()
    for row in more:
        copy.add(row)
    assert basis.rows == before
    fresh = Rref(NCOLS)
    for row in more + rows:
        fresh.add(row)
    assert copy.rows == fresh.rows


entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def linear_systems(draw):
    """Augmented rows [A | b] of 1-5 equations in 1-5 unknowns.  A row may
    be a combination of two earlier rows, with its right-hand side kept (a
    dependent row) or moved by one (an inconsistent row)."""
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if rows and draw(st.booleans()):
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(entries), draw(entries)
            row = [a * s + b * t for s, t in zip(u, v)]
            row[n] += draw(st.sampled_from([0, 1]))
        else:
            row = draw(st.lists(entries, min_size=n + 1, max_size=n + 1))
        rows.append(row)
    return rows


def _reference_rank(rows, ncols):
    basis = ReferenceRref(ncols)
    for row in rows:
        basis.add(dict(enumerate(row)))
    return basis.rank


@given(linear_systems())
@settings(max_examples=300, deadline=None)
def test_solve_exact_follows_the_ranks(system):
    """The status follows the ranks of A and of [A | b], and a unique
    solution satisfies A x = b exactly."""
    a_rows, rhs = [row[:-1] for row in system], [row[-1] for row in system]
    n = len(a_rows[0])
    rank_a, rank_ab = _reference_rank(a_rows, n), _reference_rank(system, n + 1)
    status, x = solve_exact(a_rows, rhs)
    assert status == ("none" if rank_ab > rank_a else
                      "many" if rank_a < n else "unique")
    if status == "unique":
        assert all(type(v) is Fraction for v in x)
        assert [sum(a * v for a, v in zip(row, x)) for row in a_rows] == rhs
    else:
        assert x is None


def _recorded_evaluations(monkeypatch):
    """Every ``_evaluate`` call as (market, point); the list keeps the
    objects alive, so their ids are not reused during the run."""
    calls = []
    evaluate = polytope._evaluate

    def recorded(market, x):
        calls.append((market, x))
        return evaluate(market, x)

    monkeypatch.setattr(polytope, "_evaluate", recorded)
    return calls


@pytest.mark.parametrize("command", ["check", "decompose"])
@pytest.mark.parametrize("fraction", ["vertex.frac", "mid.frac", "firm_opt.frac"])
def test_check_and_decompose_evaluate_the_point_once(command, fraction,
                                                     monkeypatch, capsys):
    """The condition, the vertex test and the decomposition read the
    evaluation that the point keeps for its market."""
    calls = _recorded_evaluations(monkeypatch)
    assert main([command, str(DATA / "example.market"), str(DATA / fraction)]) in (0, 1)
    assert len(calls) == 1


@pytest.mark.parametrize("market_file", ["example.market", "block.market"])
def test_verify_evaluates_each_point_once(market_file, monkeypatch, capsys):
    """No (market, point) pair is evaluated twice in a whole verify run:
    the walk start is classified and then walked from, and each walk
    endpoint is vertex-tested and then scanned, on one evaluation each."""
    calls = _recorded_evaluations(monkeypatch)
    assert main(["verify", str(DATA / market_file), "--samples", "20"]) == 0
    keys = [(id(market), id(x)) for market, x in calls]
    assert len(keys) >= 20
    assert len(set(keys)) == len(keys)


def _moved_incidences(market, mu):
    """mu's incidence, and it with one acceptable entry raised or lowered
    by one: an infeasible point wherever the raised worker was employed."""
    inc = sf.incidence_vector(market, mu)
    points = [(inc, False)]
    for f, w in market.pairs():
        i, j = market.firm_index(f), market.worker_index(w)
        for step in (1, -1):
            rows = [list(row) for row in inc.entries]
            rows[i][j] += step
            if rows[i][j] >= 0:
                points.append((sf.FractionalMatching.from_rows(rows),
                               step == 1 and mu.employer(w) is not None))
    return points


def test_check_feasibility_reads_the_kept_report(fleet, fleet_stable, monkeypatch):
    """The feasibility report is the point's kept stable-feasibility report
    without its noblock rows, which that report lists last; it evaluates
    nothing for a point that keeps its report."""
    calls = _recorded_evaluations(monkeypatch)
    infeasible = blocked = 0
    for m, stable in zip(fleet, fleet_stable):
        for mu in stable:
            for x, must_fail in _moved_incidences(m, mu):
                report = sf.check_stable_feasibility(m, x)
                calls.clear()
                feasibility = sf.check_feasibility(m, x)
                assert calls == []
                violated, tight = len(feasibility.violations), len(feasibility.tight)
                assert report.violations[:violated] == feasibility.violations
                assert report.tight[:tight] == feasibility.tight
                kept = [cid for cid, _, _ in feasibility.violations] + \
                    list(feasibility.tight)
                rest = [cid for cid, _, _ in report.violations[violated:]] + \
                    list(report.tight[tight:])
                assert all(cid[0] != "noblock" for cid in kept)
                assert all(cid[0] == "noblock" for cid in rest)
                assert not must_fail or not feasibility.feasible
                infeasible += not feasibility.feasible
                blocked += feasibility.feasible and not report.feasible
    assert infeasible >= 100 and blocked >= 100

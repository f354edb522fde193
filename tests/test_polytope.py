import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stablefrac as sf
from oracles import (RANDOM_SIZES, ReferenceRref, balanced_market, cloned_blocks,
                     dense_rank, hull_samples, random_markets, reference_evaluate,
                     reference_interior_walk, reference_row_values, reference_rows,
                     reference_vertex_test, reference_vertex_walk, walk_pair)
from stablefrac import polytope
from stablefrac.cli import main
from stablefrac.hulls import _random_mix
from stablefrac.linalg import Rref, rank, solve_exact
from stablefrac.polytope import (
    _drop_each, _evaluate, _Lists, _pair_index_of, _PairIndex, _Point,
    _row_values, _tight, interior_walk)

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
    cid, lhs, rhs = report.violations[0]
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
    built = []
    row = _PairIndex.row

    def recorded(self, i):
        built.append(i)
        return row(self, i)

    monkeypatch.setattr(_PairIndex, "row", recorded)
    rng = random.Random(31)
    walks = 0
    for m, stable in zip(fleet, fleet_stable):
        for _ in range(3):
            start = interior_walk(m, _random_mix(m, stable, rng), rng)
            built.clear()
            sf.vertex_walk(m, start, rng)
            counts = Counter(built)
            assert max(counts.values(), default=1) == 1
            walks += len(built) > 0
    assert walks > 80


def test_kept_basis_equals_a_fresh_one_on_walk_points(fleet, fleet_stable):
    """At every fleet walk point, each dropped row's basis built from the
    copied basis of the rows never dropped equals a fresh ``Rref`` of every
    tight row but the dropped one, in the walk's shuffled order."""
    rng = random.Random(53)
    bases = 0
    for m, stable in zip(fleet, fleet_stable):
        n = len(m.pairs())
        index = _pair_index_of(m)
        x = _random_mix(m, stable, rng)
        start = interior_walk(m, x, rng)
        trace = []
        sf.vertex_walk(m, start, rng, trace=trace)
        for y in [x, start] + trace:
            point = _Point(m, y)
            tight = _tight(point, point.row_values())
            rng.shuffle(tight)
            for i, (dropped, basis) in zip(tight, _drop_each(index, tight[:6], tight[6:], n)):
                assert dropped == index.row(i)
                fresh = Rref(n)
                for j in tight:
                    if j != i:
                        fresh.add(index.row(j))
                assert basis.rows == fresh.rows
                bases += 1
    assert bases > 500


def test_verify_builds_each_pair_index_once_and_only_tight_rows(
        market, block_market, fleet, monkeypatch):
    """A verify run builds its market's pair index once, and the walks build
    the sparse row of a number only where that row is tight at the walk's
    current point: before a step, or after it where the row binds."""
    indexed, points, checked = [], [], Counter()
    init, row = _PairIndex.__init__, _PairIndex.row
    walking = None

    def counted(self, market):
        indexed.append(market)
        init(self, market)

    class Recorded(_Point):
        def __init__(self, market, x):
            super().__init__(market, x)
            points.append(self)

    def checked_row(self, i, *slicers):
        if walking:
            point = points[-1]
            assert _row_values(self, point.nums)[i] == self.bound[i] * point.denom
            checked[walking] += 1
        return row(self, i, *slicers)

    def walk(fn):
        def walked(*args, **kwargs):
            nonlocal walking
            walking = fn.__name__
            try:
                return fn(*args, **kwargs)
            finally:
                walking = None
        return walked

    monkeypatch.setattr(_PairIndex, "__init__", counted)
    monkeypatch.setattr(_PairIndex, "row", checked_row)
    monkeypatch.setattr(polytope, "_Point", Recorded)
    for name in ("interior_walk", "vertex_walk"):
        monkeypatch.setattr(sf.hulls, name, walk(getattr(sf.hulls, name)))
    # the interior walks step on the first and last; on most markets they do not
    for given in (market, block_market, fleet[5]):
        m = sf.parse_market(sf.serialize_market(given))    # nothing cached
        indexed.clear()
        outcome = sf.verify_characterization(m, seed=0, samples=50)
        assert outcome.ok and indexed == [m]
    assert checked["interior_walk"] > 200 and checked["vertex_walk"] > 150


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

def _vertex_test_points(m, stable, rng):
    """Points of m's polytope for the vertex test: its stable matchings, two
    hull samples, the firm/worker midpoint when they differ, and the start
    and end of the two walks from the last of them."""
    points = [sf.incidence_vector(m, mu) for mu in stable]
    points += hull_samples(m, stable[0], 7, 2)
    if len(stable) > 1:
        points.append(_midpoint(m))
    start = interior_walk(m, points[-1], rng)
    return points + [start, sf.vertex_walk(m, start, rng)]


def _stable(m):
    return sorted(sf.enumerate_stable_via_rotations(m), key=lambda mu: mu.assignment)


def _noblock_supports(m, x):
    """Whether each tight noblock row of x sits at a supported pair."""
    return {bool(x.value(m, *cid[1:])) for cid in sf.check_stable_feasibility(m, x).tight
            if cid[0] == "noblock"}


def test_vertex_rank_matches_dense_reference(fleet, fleet_stable):
    """The rank on the support equals the dense rank of every tight row, on
    the one-to-one fleet, cloned blocks and balanced many-to-one markets,
    and the points reach tight noblock rows at supported and at unsupported
    pairs, where the row's own coefficient is left out."""
    rng = random.Random(2024)
    many = [cloned_blocks([2] * 4, 2), *(balanced_market(seed, 6, 2) for seed in range(3))]
    markets = [*zip(fleet, fleet_stable), *zip(many, map(_stable, many))]
    checked, supports = 0, set()
    for m, stable in markets:
        for x in _vertex_test_points(m, stable, rng):
            assert sf.is_extreme_point(m, x) == reference_vertex_test(m, x, rng)
            checked += 1
            supports |= _noblock_supports(m, x)
    for seed in (0, 2, 3):
        m = sf.gen_random_market(seed, 10, 13, 2, density=1.0)
        mid = _midpoint(m)
        assert sf.is_extreme_point(m, mid) == reference_vertex_test(m, mid, rng)
        checked += 1
    assert checked > 150 and supports == {False, True}


def test_rank_gets_the_tight_rows_on_the_support(monkeypatch, fleet, fleet_stable):
    """The rows the vertex test hands ``rank`` are pulled, in order, from the
    tight quota, unit and noblock rows of the definition restricted to the
    point's support S, with no column off it and |S| as the column bound.
    On a vertex the last row pulled is the one that brings the rank to |S|;
    on a non-vertex every such row is pulled.  A row is built only when
    pulled."""
    seen, built = [], []
    row = _PairIndex.row

    def counted(self, i, slicers=None):
        built.append(i)
        return row(self, i, slicers)

    def spy(rows, ncols):
        pulled = []
        seen.append((pulled, ncols))

        def record():
            for row in rows:
                pulled.append(row)
                yield row
        return rank(record(), ncols)

    monkeypatch.setattr(polytope, "rank", spy)
    monkeypatch.setattr(_PairIndex, "row", counted)
    rng = random.Random(7)
    block = cloned_blocks([2] * 4, 2)
    checked, vertices = 0, 0
    for m, stable in [*zip(fleet, fleet_stable), (block, _stable(block))]:
        rows = {cid: coeffs for cid, coeffs, _ in reference_rows(m)}
        for x in _vertex_test_points(m, stable, rng):
            support = {k for k, (f, w) in enumerate(m.pairs()) if x.value(m, f, w)}
            seen.clear()
            built.clear()
            is_vertex, _ = sf.is_extreme_point(m, x)
            [(pulled, ncols)] = seen
            expected = [{k: a for k, a in enumerate(rows[cid]) if a and k in support}
                        for cid in reference_evaluate(m, x).tight if cid[0] != "nonneg"]
            assert ncols == len(support)
            assert all(set(row) <= support for row in pulled)
            if is_vertex:
                basis, stop = ReferenceRref(len(m.pairs())), 0
                while basis.rank < len(support):
                    basis.add(expected[stop])
                    stop += 1
                expected = expected[:stop]
                vertices += 1
            assert pulled == expected and len(built) == len(pulled)
            checked += 1
    assert checked > 250 and 0 < vertices < checked


def _midpoint(m: sf.Market) -> sf.FractionalMatching:
    """Midpoint of the firm- and worker-optimal incidence vectors."""
    ends = [sf.incidence_vector(m, sf.deferred_acceptance(m, side))
            for side in (sf.Side.FIRMS, sf.Side.WORKERS)]
    assert ends[0] != ends[1]
    return sf.FractionalMatching.linear_combination(
        [(ends[0], Fraction(1, 2)), (ends[1], Fraction(1, 2))])


@st.composite
def _pruned_markets(draw):
    """Up to 4 firms of quota 1 to 3 and up to 5 workers, each agent listing
    any subset of the other side in any order: one-sided entries, which the
    market prunes, and agents left with no acceptable partner included."""
    firms = [f"f{i}" for i in range(draw(st.integers(1, 4)))]
    workers = [f"w{j}" for j in range(draw(st.integers(0, 5)))]

    def lists(agents, others):
        return {a: tuple(draw(st.permutations(others))[:draw(st.integers(0, len(others)))])
                for a in agents}

    quota = {f: draw(st.integers(1, 3)) for f in firms}
    return sf.Market(firms, workers, quota, lists(firms, workers), lists(workers, firms))


@settings(max_examples=150, deadline=None)
@given(m=_pruned_markets(), data=st.data())
def test_pair_index_rows_are_the_definition(m, data):
    """Every numbered row of the pair index, with its sign and its bound, is
    its definition, and so is its restriction to a random support, built
    from the slices of ``_Lists.slicer``; one prefix-sum pass gives every
    row's a . v, in row order, for integer vectors of either sign; and the
    evaluation of a matrix with negative entries and entries off the pairs
    equals the row-by-row reference."""
    n, index = len(m.pairs()), _pair_index_of(m)
    rows = reference_rows(m)
    support = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    slicers = index.firm.slicer(support), index.worker.slicer(support)
    assert len(index.bound) == len(rows) == m.n_firms + m.n_workers + 2 * n
    for i, (_, coeffs, b) in enumerate(rows):
        row = index.row(i)
        assert [row.get(k, 0) for k in range(n)] == coeffs and 0 not in row.values()
        assert index.bound[i] == b
        assert index.row(i, slicers) == {k: a for k, a in row.items() if support[k]}
    v = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    assert _row_values(index, v) == reference_row_values(m, v)
    x = sf.FractionalMatching.from_rows(
        [[Fraction(data.draw(st.integers(-2, 4)), data.draw(st.integers(1, 4)))
          for _ in m.workers] for _ in m.firms])
    report, reference = _evaluate(m, x), reference_evaluate(m, x)
    assert (report.violations, report.tight, report._sums) == \
        (reference.violations, reference.tight, reference._sums)


def test_lists_end_each_list_once():
    """One start per list and the end of the last, empty lists and no lists
    included."""
    for lists in ([], [[]], [[2, 0], [], [1]]):
        side = _Lists(lists)
        assert len(side.starts) == len(lists) + 1 and side.starts[-1] == len(side.order)
        assert [side.order[s:e] for s, e in zip(side.starts, side.starts[1:])] == lists
    m = sf.Market(["f1", "f2"], [], {"f1": 1, "f2": 2}, {}, {})
    index = _pair_index_of(m)
    assert index.bound == [1, 2] and [index.row(i) for i in range(2)] == [{}, {}]
    assert _row_values(index, []) == [0, 0]


_REFUSED_STEP = """
import sys
import pytest
import stablefrac as sf
from stablefrac.polytope import _Point, _step_length
m = sf.parse_market(open(sys.argv[1]).read())
x = sf.incidence_vector(m, sf.deferred_acceptance(m, sf.Side.FIRMS))
point = _Point(m, x)
values = point.row_values()
# a zero direction moves no row, so none binds
with pytest.raises(AssertionError, match=r'^ratio test gave no positive step \\(None\\)$'):
    _step_length(point, values, [0] * len(point.nums))
# lowering an unmatched pair's zero leaves its tight nonneg row at once
direction = [0] * len(point.nums)
direction[point.nums.index(0)] = -1
with pytest.raises(AssertionError, match=r'^ratio test gave no positive step \\(0\\)$'):
    _step_length(point, values, direction)
print('raised', sys.flags.optimize)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_ratio_test_refuses_no_positive_step(src_env, tmp_path, flags):
    """The ratio test raises for a zero direction and for a direction that
    leaves a tight nonneg row at once; both hold under ``python -O``."""
    script = tmp_path / "refused_step.py"
    script.write_text(_REFUSED_STEP)
    run = subprocess.run([sys.executable, *flags, str(script), str(DATA / "example.market")],
                         env=src_env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"raised {len(flags)}\n"


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
        rose = dense_rank(dense[:k + 1]) > dense_rank(dense[:k])
        assert basis.add(row) is rose
    assert basis.rank == rank(rows, NCOLS) == dense_rank(dense)
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


def _raise_after(rows, last):
    """The first ``last`` rows, then an error if another row is pulled."""
    yield from rows[:last]
    raise AssertionError("a row was pulled after the rank reached ncols")


@given(sparse_rows, st.sets(st.integers(0, NCOLS - 1), min_size=1))
@settings(max_examples=200, deadline=None)
def test_rank_stops_at_full_rank(rows, columns):
    """``rank`` pulls no row after the one that brings the rank to ncols,
    here the number of columns the rows touch, wherever those lie, and none
    at all when ncols is 0."""
    rows = [{c: a for c, a in row.items() if c in columns} for row in rows]
    rows += [{c: 1} for c in sorted(columns)]
    dense = [[Fraction(row.get(c, 0)) for c in range(NCOLS)] for row in rows]
    last = next(k for k in range(len(rows) + 1) if dense_rank(dense[:k]) == len(columns))
    assert rank(_raise_after(rows, last), len(columns)) == len(columns)
    assert rank(_raise_after(rows, 0), 0) == 0


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

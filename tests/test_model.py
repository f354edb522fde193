import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import stablefrac as sf
from oracles import serialize_fractional


def test_example_market_parses(market):
    assert market.firms == ("f1", "f2")
    assert market.workers == ("w1", "w2", "w3", "w4")
    assert market.quota == {"f1": 2, "f2": 2}
    assert market.firm_pref["f2"] == ("w4", "w3", "w2", "w1")
    assert market.worker_pref["w4"] == ("f1", "f2")
    assert len(market.pairs()) == 8


def test_pairs_canonical_order(market):
    assert market.pairs()[:4] == (
        ("f1", "w1"), ("f1", "w2"), ("f1", "w3"), ("f1", "w4"))


def test_empty_preferences_give_empty_acceptability():
    m = sf.parse_market("""
firms: f1 f2
workers: w1 w2
quota: f1=1 f2=1
firm f1:
firm f2:
worker w1:
worker w2:
""")
    assert m.pairs() == ()


def test_one_sided_entry_is_pruned_with_warning():
    text = """
firms: f1
workers: w1 w2
quota: f1=1
firm f1: w1 w2
worker w2: f1
"""
    with pytest.warns(sf.OneSidedPreferenceWarning):
        m = sf.parse_market(text)
    assert not m.acceptable("f1", "w1")
    assert m.acceptable("f1", "w2")
    assert m.firm_pref["f1"] == ("w2",)


def test_missing_quota_defaults_to_one():
    m = sf.parse_market("""
firms: f1
workers: w1
firm f1: w1
worker w1: f1
""")
    assert m.quota["f1"] == 1


@pytest.mark.parametrize("text,line", [
    ("firms: f1 f1\nworkers: w1\n", 1),
    ("firms: f1\nworkers: w1\nquota: f1=0\n", 3),
    ("firms: f1\nworkers: w1\nquota: f1=x\n", 3),
    ("firms: f1\nworkers: w1\nnonsense here\n", 3),
    ("firms: f1\nworkers: w1\nfirm f1: w1 w1\n", 3),
    ("firms: f1\nworkers: w1\nfirm f1: w9\n", 3),
    ("firms: f1\nworkers: w1\nworker w1: f9\n", 3),
    ("firms: f1\nworkers: w1\nquota: f9=1\n", 3),
    ("firms: f1\nworkers: w1\nfirm f1: w1\nfirm f1: w1\n", 4),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(sf.ParseError) as err:
        sf.parse_market(text)
    assert err.value.line == line


def test_parse_rejects_missing_sections():
    with pytest.raises(sf.ParseError):
        sf.parse_market("workers: w1\n")
    with pytest.raises(sf.ParseError):
        sf.parse_market("firms: f1\n")


def test_ids_must_not_straddle_sides():
    with pytest.raises(sf.ParseError):
        sf.parse_market("firms: a\nworkers: a\n")


def test_market_roundtrip(market):
    assert sf.parse_market(sf.serialize_market(market)) == market


def test_incidence_vectors_match_known_matrices(market, mu_f, mu_w):
    assert sf.incidence_vector(market, mu_f).entries == (
        (1, 1, 0, 0), (0, 0, 1, 1))
    assert sf.incidence_vector(market, mu_w).entries == (
        (1, 0, 0, 1), (0, 1, 1, 0))


def test_incidence_of_empty_matching_is_zero(market):
    empty = sf.Matching.build(market, {})
    x = sf.incidence_vector(market, empty)
    assert all(v == 0 for row in x.entries for v in row)


def test_parse_fractional_vertex(market, x_vertex):
    assert x_vertex.entries == (
        (1, Fraction(1, 2), Fraction(1, 2), 0),
        (0, Fraction(1, 2), Fraction(1, 2), 1))


def test_parse_fractional_zero_and_oversized_entries(market):
    zero = sf.parse_fractional(market, "0 0 0 0\n0 0 0 0\n")
    assert all(v == 0 for row in zero.entries for v in row)
    # format-level parsing accepts entries above one; polytope checks reject later
    big = sf.parse_fractional(market, "3/2 0 0 0\n0 0 0 0\n")
    assert big.entries[0][0] == Fraction(3, 2)


def test_zero_spellings_parse_to_exact_zero(market):
    x = sf.parse_fractional(market, "0 -0 00 0/3\n0 0 0 0\n")
    assert all(type(v) is Fraction and v == 0 for row in x.entries for v in row)


def test_from_rows_keeps_fractions_and_converts_integers():
    half = Fraction(1, 2)
    x = sf.FractionalMatching.from_rows([[1, half], [0, 2]])
    assert x.entries == ((1, half), (0, 2))
    assert x.entries[0][1] is half
    assert all(type(v) is Fraction for row in x.entries for v in row)


@pytest.mark.parametrize("text", [
    "1 0 0\n0 0 0\n",            # wrong row width
    "1 0 0 0\n",                 # missing row
    "1 0 0 0\n0 0 0 0\n0 0 0 0\n",
    "-1 0 0 0\n0 0 0 0\n",       # negative entry
    "0.5 0 0 0\n0 0 0 0\n",      # decimals are not exact tokens
    "1/0 0 0 0\n0 0 0 0\n",      # zero denominator
    "0/0 0 0 0\n0 0 0 0\n",      # zero denominator on a zero numerator
])
def test_parse_fractional_rejects(market, text):
    with pytest.raises(sf.ParseError):
        sf.parse_fractional(market, text)


def test_parse_fractional_rejects_nonzero_off_acceptable():
    with pytest.warns(sf.OneSidedPreferenceWarning):
        m = sf.parse_market("""
firms: f1
workers: w1 w2
quota: f1=2
firm f1: w1 w2
worker w2: f1
""")
    with pytest.raises(sf.ParseError):
        sf.parse_fractional(m, "1 0\n")
    assert sf.parse_fractional(m, "0 1\n").entries[0][1] == 1


def test_fractional_roundtrip_over_stable_matchings(fleet, fleet_stable):
    for m, stable in zip(fleet, fleet_stable):
        for mu in stable:
            x = sf.incidence_vector(m, mu)
            again = sf.parse_fractional(m, serialize_fractional(m, x))
            assert again == x
            assert sf.matching_from_matrix(m, again) == mu


def test_rational_arithmetic_against_integer_crossmultiplication():
    rng = random.Random(987)
    for _ in range(1000):
        a, c = rng.randint(-40, 40), rng.randint(-40, 40)
        b, d = rng.randint(1, 40), rng.randint(1, 40)
        x, y = Fraction(a, b), Fraction(c, d)
        assert x + y == Fraction(a * d + c * b, b * d)
        assert x * y == Fraction(a * c, b * d)
        assert (x < y) == (a * d < c * b)
        assert x - y == Fraction(a * d - c * b, b * d)


def test_rationals_stored_in_lowest_terms():
    v = sf.parse_rational("6/4")
    assert (v.numerator, v.denominator) == (3, 2)
    with pytest.raises(ValueError):
        sf.parse_rational("1.5")


def test_acceptability_is_mutual(fleet):
    for m in fleet:
        for f in m.firms:
            for w in m.workers:
                both = (w in m.firm_pref[f]) and (f in m.worker_pref[w])
                assert m.acceptable(f, w) == both


def test_matching_build_validates(market):
    with pytest.raises(ValueError):
        sf.Matching.build(market, {"f1": ["w1", "w2", "w3"]})   # over quota
    with pytest.raises(ValueError):
        sf.Matching.build(market, {"f1": ["w1"], "f2": ["w1"]})  # duplicate worker
    mu = sf.Matching.build(market, {"f2": ["w4", "w3"]})
    assert mu.employer("w4") == "f2"
    assert mu.employer("w1") is None
    assert mu.matched("f1") == ()
    with pytest.raises(KeyError):
        mu.matched("f9")
    assert mu.as_dict() == {"f1": (), "f2": ("w3", "w4")}


def test_market_ids_validated_outside_parser():
    with pytest.raises(ValueError):
        sf.Market(("f1",), ("w1",), {"f1": 0}, {"f1": ()}, {"w1": ()})
    with pytest.raises(ValueError):
        sf.Market(("f1",), ("w1",), {"f1": 1}, {"f1": ("w2",)}, {"w1": ()})


_IDS = st.text("abcxyzXY019_.+-", min_size=1, max_size=4)


@st.composite
def _markets(draw):
    """Markets with valid ids and mutual preference lists (nothing to prune)."""
    names = draw(st.lists(_IDS, min_size=2, max_size=9, unique=True))
    cut = draw(st.integers(1, len(names) - 1))
    firms, workers = names[:cut], names[cut:]
    fpref = {f: draw(st.permutations(workers))[:draw(st.integers(0, len(workers)))]
             for f in firms}
    wpref = {w: draw(st.permutations(firms))[:draw(st.integers(0, len(firms)))]
             for w in workers}
    fpref = {f: tuple(w for w in ws if f in wpref[w]) for f, ws in fpref.items()}
    wpref = {w: tuple(f for f in fs if w in fpref[f]) for w, fs in wpref.items()}
    quota = {f: draw(st.integers(1, 3)) for f in firms}
    return sf.Market(firms, workers, quota, fpref, wpref)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_market_and_fractional_text_round_trips(data):
    m = data.draw(_markets())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sf.parse_market(sf.serialize_market(m)) == m
    values = st.fractions(min_value=0, max_value=3, max_denominator=50)
    x = sf.FractionalMatching.from_rows(
        [[data.draw(values) if m.acceptable(f, w) else 0 for w in m.workers]
         for f in m.firms])
    assert sf.parse_fractional(m, serialize_fractional(m, x)) == x

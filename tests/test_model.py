import copy
import pickle
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import stablefrac as sf
from oracles import (
    CACHES,
    reference_caches,
    reference_parse_fractional,
    reference_parse_market,
    serialize_fractional,
)


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


_HEAD = "firms: f1 f2\nworkers: w1 w2\n"
_LONG = "1" * 5000      # more digits than int() reads from a string

# Every ParseError of parse_market: (text, message, line).  When a text has
# several faults, the lines are read first, then the missing sections, the
# quota names, the firms' preference lines and the workers' ones, in order.
PARSE_ERRORS = [
    ("firms: f1\nfirms: f2\nworkers: w1\n", "line 2: repeated firms: line", 2),
    ("firms: f1\nworkers: w1\nworkers: w2\n", "line 3: repeated workers: line", 3),
    ("firms: f1 f1\nworkers: w1\n", "line 1: duplicate ids", 1),
    ("firms: f1\nworkers: w1 w!\n", "line 2: invalid id 'w!'", 2),
    (_HEAD + "quota: f1\n", "line 3: bad quota token 'f1'", 3),
    (_HEAD + "quota: f1=x\n", "line 3: bad quota value 'x'", 3),
    (_HEAD + "quota: f1=\n", "line 3: bad quota value ''", 3),
    (_HEAD + "quota: f1=2.0\n", "line 3: bad quota value '2.0'", 3),
    (_HEAD + "quota: f1= 2\n", "line 3: bad quota value ''", 3),
    (_HEAD + "quota: f1=0\n", "line 3: quota of f1 must be at least 1", 3),
    (_HEAD + "quota: f1=-1\n", "line 3: quota of f1 must be at least 1", 3),
    (_HEAD + "quota: f1=-0\n", "line 3: quota of f1 must be at least 1", 3),
    (_HEAD + "quota: f1=1 f1=2\n", "line 3: repeated quota for f1", 3),
    (_HEAD + "quota: f9=1\n", "line 3: quota for undeclared firm f9", 3),
    (_HEAD + "quota: =1\n", "line 3: quota for undeclared firm ", 3),
    (_HEAD + "firm f1 w1 w2\n", "line 3: missing ':' in firm line", 3),
    (_HEAD + "worker w1 f1\n", "line 3: missing ':' in worker line", 3),
    (_HEAD + "firm f1: w1\nfirm f1 w2\n", "line 4: missing ':' in firm line", 4),
    (_HEAD + "firm f1: w1\nfirm f1: w2\n",
     "line 4: repeated preference line for firm f1", 4),
    (_HEAD + "worker w1: f1\nworker w1: f2\n",
     "line 4: repeated preference line for worker w1", 4),
    (_HEAD + "firm f1: w1 w1\n", "line 3: duplicate ids", 3),
    (_HEAD + "worker w1: f1 f1\n", "line 3: duplicate ids", 3),
    (_HEAD + "firm f1: w1 w#2\n", "line 3: firm f1 lists undeclared worker w", 3),
    (_HEAD + "firm f1: w1 w$\n", "line 3: invalid id 'w$'", 3),
    (_HEAD + "nonsense here\n", "line 3: unrecognized line 'nonsense here'", 3),
    (_HEAD + "firm:\n", "line 3: unrecognized line 'firm:'", 3),
    (_HEAD + "firms :\n", "line 3: unrecognized line 'firms :'", 3),
    (_HEAD + "Firm f1: w1\n", "line 3: unrecognized line 'Firm f1: w1'", 3),
    ("workers: w1\n", "missing firms: line", None),
    ("firms: f1\n", "missing workers: line", None),
    ("", "missing firms: line", None),
    ("# only a comment\n\n", "missing firms: line", None),
    ("firm f1: w1\nworkers: w1\n", "missing firms: line", None),
    (_HEAD + "firm f9: w1\n", "line 3: preference line for undeclared firm f9", 3),
    (_HEAD + "firm f1: w9\n", "line 3: firm f1 lists undeclared worker w9", 3),
    (_HEAD + "worker w9: f1\n",
     "line 3: preference line for undeclared worker w9", 3),
    (_HEAD + "worker w1: f9\n", "line 3: worker w1 lists undeclared firm f9", 3),
    (_HEAD + "firm :\n", "line 3: preference line for undeclared firm ", 3),
    (_HEAD + "firm :w1\n", "line 3: preference line for undeclared firm ", 3),
    (_HEAD + "worker :\n", "line 3: preference line for undeclared worker ", 3),
    (_HEAD + "worker :f1\n", "line 3: preference line for undeclared worker ", 3),
    (_HEAD + "worker w1: f9\nfirm f1: w9\n",
     "line 4: firm f1 lists undeclared worker w9", 4),
    (_HEAD + "worker w9: f1\nfirm f9: w1\n",
     "line 4: preference line for undeclared firm f9", 4),
    (_HEAD + "firm f9: w1\nquota: f8=1\n", "line 4: quota for undeclared firm f8", 4),
    ("firms: a\nworkers: a\n", "ids used on both sides: ['a']", None),
    ("firms: f1 w1\nworkers: w1 f1\n", "ids used on both sides: ['f1', 'w1']", None),
    # past the interpreter's limit on integer strings
    (_HEAD + "quota: f1=" + _LONG + "\n",
     "line 3: quota value of 5000 digits is too long", 3),
    (_HEAD + "quota: f1=2\nquota: f2=-" + _LONG + "\n",
     "line 4: quota value of 5000 digits is too long", 4),
]


def _short(value):
    """A test id for a long text, where pytest would print all of it."""
    return f"<{len(value)} characters>" if isinstance(value, str) and len(value) > 200 \
        else None


@pytest.mark.parametrize("text,message,line", PARSE_ERRORS, ids=_short)
def test_parse_error_table(text, message, line):
    with pytest.raises(sf.ParseError) as err:
        sf.parse_market(text)
    assert (str(err.value), err.value.line) == (message, line)


def test_one_sided_warnings_firms_first():
    """The firms' dropped entries warn before the workers', each side in
    declaration order, at the line that called parse_market."""
    text = _HEAD + ("worker w1:\nworker w2: f2 f1\n"
                    "firm f2: w1\nfirm f1: w1 w2\n")
    with pytest.warns(sf.OneSidedPreferenceWarning) as record:
        m = sf.parse_market(text)
    assert [str(r.message) for r in record] == [
        "dropping one-sided pair: firm f1 lists w1 but w1 does not list f1",
        "dropping one-sided pair: firm f2 lists w1 but w1 does not list f2",
        "dropping one-sided pair: worker w2 lists f2 but f2 does not list w2"]
    assert {r.filename for r in record} == {__file__}
    assert m.firm_pref == {"f1": ("w2",), "f2": ()}
    assert m.worker_pref == {"w1": (), "w2": ("f1",)}


@pytest.mark.parametrize("value", ["1_0", "\u0662", "+2", "2.", "0x2"])
def test_quota_accepts_only_ascii_integers(value):
    with pytest.raises(sf.ParseError) as err:
        sf.parse_market(_HEAD + f"quota: f1={value}\n")
    assert (str(err.value), err.value.line) == (
        f"line 3: bad quota value {value!r}", 3)
    assert sf.parse_market(_HEAD + "quota: f1=02\n").quota["f1"] == 2


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


@pytest.mark.parametrize("firms,workers,bad", [
    (("f 1", "f2"), ("w1",), "f 1"),
    (("a:b", "f2"), ("w1",), "a:b"),
    (("f1", "x#y", "a:b"), ("w1",), "x#y"),
    (("f1",), ("w1", ""), ""),
    (("f1",), ("w\u00e9",), "w\u00e9"),
    (("f1\n",), ("w1",), "f1\n"),
])
def test_serialize_market_refuses_unreadable_ids(firms, workers, bad):
    """A market built directly may use ids its text cannot carry; the first
    one, firms before workers, is named rather than written."""
    m = sf.Market(firms, workers, dict.fromkeys(firms, 1), {}, {})
    with pytest.raises(ValueError) as err:
        sf.serialize_market(m)
    assert str(err.value) == f"id {bad!r} is not made of [A-Za-z0-9_.+-]"


@pytest.mark.parametrize("worker_w2,message", [
    (("f2",), "firm f1 lists w2 but w2 does not list f1"),
    (("f1", "f2"), "worker w1 lists f2 but f2 does not list w1"),
])
def test_serialize_market_refuses_one_sided_entries(worker_w2, message):
    """A market built directly may keep one-sided entries, which the parser
    would drop with a warning, reading back a different market; the first
    one, firms before workers, is named rather than written."""
    m = sf.Market(("f1", "f2"), ("w1", "w2"), {"f1": 1, "f2": 1},
                  {"f1": ("w1", "w2"), "f2": ("w2",)},
                  {"w1": ("f1", "f2"), "w2": worker_w2})
    with pytest.raises(ValueError) as err:
        sf.serialize_market(m)
    assert str(err.value) == message


def test_empty_linear_combination_is_refused():
    with pytest.raises(ValueError, match="^empty combination$"):
        sf.FractionalMatching.linear_combination([])


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


# f2 lists w1, but w1 does not list f2: (f2,w1) is the one pair that is
# not acceptable.
_FRACTION_MARKET_TEXT = """firms: f1 f2
workers: w1 w2
firm f1: w1 w2
firm f2: w2 w1
worker w1: f1
worker w2: f2 f1
"""

# Every ParseError of parse_fractional on that market: (text, message,
# line).  The rows are read first, each row's width before its tokens, and a
# row's tokens left to right, so its leftmost fault is the one reported.
FRACTION_ERRORS = [
    ("1 0 0\n0 0\n", "line 1: expected 2 entries, found 3", 1),
    ("0 0\n1\n", "line 2: expected 2 entries, found 1", 2),
    ("0 0\n0 0\n0 0\n", "line 3: expected 2 rows, found more", 3),
    ("0 0\n\n# c\n0 0\n0 x\n", "line 5: expected 2 rows, found more", 5),
    ("0 0\n", "expected 2 rows, found 1", None),
    ("# only a comment\n", "expected 2 rows, found 0", None),
    ("0.5 0\n0 0\n", "line 1: bad rational token '0.5'", 1),
    ("0 +1\n0 0\n", "line 1: bad rational token '+1'", 1),
    ("0 0\n0 1/-2\n", "line 2: bad rational token '1/-2'", 2),
    ("1/0 0\n0 0\n", "line 1: bad rational token '1/0'", 1),
    ("0/0 0\n0 0\n", "line 1: bad rational token '0/0'", 1),
    ("-1/0 0\n0 0\n", "line 1: bad rational token '-1/0'", 1),
    ("-1 0\n0 0\n", "line 1: negative entry for (f1,w1)", 1),
    ("0 0\n0 -1/2\n", "line 2: negative entry for (f2,w2)", 2),
    ("0 0\n1 0\n", "line 2: nonzero entry for non-acceptable pair (f2,w1)", 2),
    ("0 0\n1/3 0\n", "line 2: nonzero entry for non-acceptable pair (f2,w1)", 2),
    # two faults in a row: the leftmost wins
    ("-1 x\n0 0\n", "line 1: negative entry for (f1,w1)", 1),
    ("x -1\n0 0\n", "line 1: bad rational token 'x'", 1),
    ("0 0\n1 -1\n", "line 2: nonzero entry for non-acceptable pair (f2,w1)", 2),
    ("0 0\n-1 1\n", "line 2: negative entry for (f2,w1)", 2),
    ("1/0 -1\n0 0\n", "line 1: bad rational token '1/0'", 1),
    ("0 0\n00 1/0\n", "line 2: bad rational token '1/0'", 2),
    ("1 x y\n0 0\n", "line 1: expected 2 entries, found 3", 1),
    # past the interpreter's limit on integer strings
    (_LONG + " 0\n0 0\n", "line 1: numerator of 5000 digits is too long", 1),
    (_LONG + "/" + _LONG + " 0\n0 0\n",
     "line 1: denominator of 5000 digits is too long", 1),
    ("0 0\n0 1/" + _LONG + "\n", "line 2: denominator of 5000 digits is too long", 2),
    ("0/" + "7" * 5000 + " 0\n0 0\n",
     "line 1: denominator of 5000 digits is too long", 1),
    ("0 -" + _LONG + "\n0 0\n", "line 1: numerator of 5000 digits is too long", 1),
    (_LONG + "/0 0\n0 0\n", "line 1: bad rational token '" + _LONG + "/0'", 1),
]


@pytest.mark.parametrize("text,message,line", FRACTION_ERRORS, ids=_short)
def test_parse_fractional_error_table(text, message, line):
    with pytest.warns(sf.OneSidedPreferenceWarning):
        m = sf.parse_market(_FRACTION_MARKET_TEXT)
    with pytest.raises(sf.ParseError) as err:
        sf.parse_fractional(m, text)
    assert (str(err.value), err.value.line) == (message, line)


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


def test_acceptability_is_mutual(fleet):
    for m in fleet:
        for f in m.firms:
            for w in m.workers:
                both = (w in m.firm_pref[f]) and (f in m.worker_pref[w])
                assert m.acceptable(f, w) == both


def test_acceptable_on_api_built_markets_with_one_sided_entries():
    """A market built through the constructor keeps one-sided entries in its
    lists; ``acceptable`` is "both list each other", exactly the pairs, and
    False for a name the market does not declare or for swapped sides."""
    rng = random.Random(8)
    one_sided = 0
    for _ in range(40):
        firms = [f"f{i}" for i in range(rng.randint(1, 5))]
        workers = [f"w{j}" for j in range(rng.randint(0, 5))]
        firm_pref = {f: tuple(rng.sample(workers, rng.randint(0, len(workers))))
                     for f in firms}
        worker_pref = {w: tuple(rng.sample(firms, rng.randint(0, len(firms))))
                       for w in workers}
        m = sf.Market(firms, workers, dict.fromkeys(firms, 1), firm_pref, worker_pref)
        for f in firms:
            for w in workers:
                both = w in firm_pref[f] and f in worker_pref[w]
                one_sided += (w in firm_pref[f]) != (f in worker_pref[w])
                assert m.acceptable(f, w) == both == ((f, w) in m.pairs())
                assert not m.acceptable(w, f)
            assert not m.acceptable(f, "nobody")
        for w in workers:
            assert not m.acceptable("nobody", w)
        assert not m.acceptable("nobody", "nobody")
    assert one_sided > 50


def test_matching_build_validates(market):
    with pytest.raises(ValueError):
        sf.Matching.build(market, {"f1": ["w1", "w2", "w3"]})   # over quota
    with pytest.raises(ValueError):
        sf.Matching.build(market, {"f1": ["w1"], "f2": ["w1"]})  # duplicate worker
    with pytest.raises(ValueError, match=r"unknown workers in assignment: \['zz'\]"):
        sf.Matching.build(market, {"f1": ["zz"]})
    with pytest.raises(ValueError, match=r"unknown firms in assignment: \['f9'\]"):
        sf.Matching.build(market, {"f9": ["w1"]})
    mu = sf.Matching.build(market, {"f2": ["w4", "w3"]})
    assert mu.employer("w4") == "f2"
    assert mu.employer("w1") is None
    assert mu.matched("f1") == ()
    with pytest.raises(KeyError):
        mu.matched("f9")
    assert mu.as_dict() == {"f1": (), "f2": ("w3", "w4")}


def test_matching_hash_is_built_at_birth_and_lookups_on_first_read(market):
    """A matching is made with its rows and its hash, and keeps no lookup
    until one is read; a copy or a pickle round trip rebuilds the hash from
    the rows, as does a matching derived from them."""
    with pytest.raises(ValueError, match="worker w1 assigned twice"):
        sf.Matching((("f1", ("w1",)), ("f2", ("w1",))))
    mu = sf.Matching((("f1", ("w1", "w2")), ("f2", ("w3", "w4"))))
    assert set(vars(mu)) == {"assignment", "_hash"}
    assert hash(mu) == hash((mu.assignment,))
    derived = sf.Matching._derive(mu.assignment)
    assert vars(derived) == vars(mu) and hash(derived) == hash(mu)
    assert mu.employer("w3") == "f2" and mu.matched("f1") == ("w1", "w2")
    assert set(vars(mu)) == {"assignment", "_hash", "_rows", "_employer"}
    with pytest.raises(AttributeError):
        mu._missing
    for twin in (copy.copy(mu), pickle.loads(pickle.dumps(mu))):
        assert twin == mu and set(vars(twin)) == {"assignment", "_hash"}
        assert hash(twin) == hash(mu) and twin.employer("w1") == "f1"


def test_market_ids_validated_outside_parser():
    with pytest.raises(ValueError):
        sf.Market(("f1",), ("w1",), {"f1": 0}, {"f1": ()}, {"w1": ()})
    with pytest.raises(ValueError):
        sf.Market(("f1",), ("w1",), {"f1": 1}, {"f1": ("w2",)}, {"w1": ()})


_F, _W, _Q = ("f1", "f2"), ("w1", "w2"), {"f1": 1, "f2": 1}


@pytest.mark.parametrize("args,message", [
    ((("f1", "f1"), _W, {"f1": 1}, {}, {}), "duplicate firm ids"),
    ((_F, ("w1", "w1"), _Q, {}, {}), "duplicate worker ids"),
    ((("f1", "a"), ("a", "w1"), {"f1": 1, "a": 1}, {}, {}),
     "ids used on both sides: ['a']"),
    ((_F, _W, {"f1": 1}, {}, {}), "quota must cover exactly the declared firms"),
    ((_F, _W, {"f1": 1, "f2": 1.0}, {}, {}), "quota of f2 must be a positive integer"),
    ((_F, _W, _Q, {"f1": ("w1", "w1")}, {}),
     "duplicate entries in preference list of f1"),
    ((_F, _W, _Q, {"f2": ("w9", "w1", "w8")}, {}),
     "f2 lists undeclared workers: ['w8', 'w9']"),
    ((_F, _W, _Q, {}, {"w2": ("f2", "f2")}),
     "duplicate entries in preference list of w2"),
    ((_F, _W, _Q, {}, {"w1": ("f9",)}), "w1 lists undeclared firms: ['f9']"),
    ((_F, _W, _Q, {"f1": ("w9",)}, {"w1": ("f9",)}),
     "f1 lists undeclared workers: ['w9']"),
    ((_F, _W, {"f1": True, "f2": 1}, {}, {}), "quota of f1 must be a positive integer"),
])
def test_market_validation_messages(args, message):
    """The firms' lists are checked before the workers'; lists of undeclared
    agents are dropped."""
    with pytest.raises(ValueError) as err:
        sf.Market(*args)
    assert str(err.value) == message
    m = sf.Market(_F, _W, _Q, {"f1": ("w1",), "f9": ("w1",)}, {"w2": ("f1",)})
    assert (m.firm_pref, m.worker_pref) == (
        {"f1": ("w1",), "f2": ()}, {"w1": (), "w2": ("f1",)})


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


@pytest.mark.parametrize("firms,workers", [(["f1"], []), (["f1", "f2"], []),
                                           ([], ["w1"]), ([], [])])
def test_matrices_round_trip_on_a_side_without_agents(firms, workers):
    """An n x 0 matrix is n blank rows, and ``parse_fractional`` skips blank
    lines, so text with no non-blank line reads as that matrix; a non-blank
    line still fails on its number of entries."""
    m = sf.Market(firms, workers, dict.fromkeys(firms, 2), {}, {})
    x = sf.FractionalMatching([[] for _ in firms])
    assert sf.parse_fractional(m, serialize_fractional(m, x)) == x
    assert sf.parse_fractional(m, "\n# nothing\n") == x == \
        reference_parse_fractional(m, "")
    if firms and not workers:
        with pytest.raises(sf.ParseError, match="^line 2: expected 0 entries, found 1$"):
            sf.parse_fractional(m, "\n0\n")


# --- the parsers against their earlier forms in ``oracles`` ---------------

def _outcome(parse, *args):
    """What a caller sees of ``parse(*args)``: the value, or the ParseError's
    text and line; and every warning, with where it points."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = parse(*args)
        except sf.ParseError as exc:
            value = (str(exc), exc.line)
    return value, [(w.category, str(w.message), w.filename, w.lineno)
                   for w in caught]


def _market_shape(m):
    """The fields and tables of a market in their order, as text."""
    fields = ("firms", "workers", "quota", "firm_pref", "worker_pref") + CACHES
    return [repr(getattr(m, name)) for name in fields]


def _same_market_outcome(text):
    new, new_warnings = _outcome(sf.parse_market, text)
    old, old_warnings = _outcome(reference_parse_market, text)
    assert new_warnings == old_warnings
    assert {filename for _, _, filename, _ in new_warnings} <= {__file__}
    assert isinstance(new, sf.Market) == isinstance(old, sf.Market)
    if isinstance(new, sf.Market):
        assert new == old
        assert _market_shape(new) == _market_shape(old)
        assert {name: getattr(new, name) for name in CACHES} == reference_caches(new)
    else:
        assert new == old
    return new


_GAPS = st.sampled_from([" ", "  ", "\t", "\u00a0", "\u2003", " \u3000 "])


@st.composite
def _market_texts(draw):
    """Market texts with one-sided entries, agents without a line, default
    quotas, lines in any order, comments, blank lines, ``\\r\\n`` endings
    and non-ASCII whitespace between ids."""
    names = draw(st.lists(_IDS, min_size=2, max_size=9, unique=True))
    cut = draw(st.integers(1, len(names) - 1))
    firms, workers = names[:cut], names[cut:]

    def spaced(words):
        return "".join(draw(_GAPS) + word for word in words)

    lines = ["firms:" + spaced(firms), "workers:" + spaced(workers)]
    quotas = [f"{f}={draw(st.integers(1, 3))}" for f in firms if draw(st.booleans())]
    if quotas:
        lines.append("quota:" + spaced(quotas))
    for side, own, other in (("firm", firms, workers), ("worker", workers, firms)):
        for a in own:
            if draw(st.integers(0, 4)):
                lst = draw(st.permutations(other))[:draw(st.integers(0, len(other)))]
                lines.append(f"{side} {a}:" + spaced(lst))
    lines = draw(st.permutations(lines))
    out = []
    for line in lines:
        out += [""] * draw(st.integers(0, 1))
        out.append(line + draw(st.sampled_from(["", "  # note", "#", " \t"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(out) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=_market_texts())
def test_parse_market_matches_the_reference(text):
    """Equal markets, equal tables in equal order, and equal warnings, in
    order and pointing at the caller."""
    _same_market_outcome(text)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_market_tables_match_the_reference(data):
    """Markets built directly keep one-sided entries in their lists; the
    tables built from those lists are the reference's."""
    names = data.draw(st.lists(_IDS, min_size=2, max_size=9, unique=True))
    cut = data.draw(st.integers(1, len(names) - 1))
    firms, workers = names[:cut], names[cut:]
    prefs = [{a: data.draw(st.permutations(other))[:data.draw(st.integers(0, len(other)))]
              for a in own}
             for own, other in ((firms, workers), (workers, firms))]
    m = sf.Market(firms, workers, dict.fromkeys(firms, 1), *prefs)
    assert {name: getattr(m, name) for name in CACHES} == reference_caches(m)


@pytest.mark.parametrize("text,message,line", PARSE_ERRORS, ids=_short)
def test_parse_errors_match_the_reference(text, message, line):
    """The reference raised ValueError, not ParseError, on integers past the
    interpreter's limit; every other text gives it the same error."""
    if "too long" in message:
        with pytest.raises(ValueError, match="Exceeds the limit"):
            reference_parse_market(text)
    else:
        assert _same_market_outcome(text) == (message, line)


_VALUES = st.one_of(
    st.fractions(min_value=0, max_value=3, max_denominator=20).map(str),
    st.sampled_from(["0", "00", "-0", "0/3", "2/4", "06/4"]))
_FAULTS = st.sampled_from(["-1", "-2/3", "1/0", "0/0", "-1/0", "x", "1.5",
                           "+1", "1/", "/2", "1/-2", "\u0661"])


def _sometimes(draw, one_in: int) -> bool:
    return draw(st.sampled_from([False] * (one_in - 1) + [True]))


@st.composite
def _fraction_texts(draw, market):
    """Matrices for ``market``: values on the acceptable pairs, zeros in
    several spellings elsewhere, and now and then a faulty token, a nonzero
    entry off the acceptable pairs, a row too short or too long, a row
    missing or extra, comments and blank lines."""
    nrows = market.n_firms + draw(st.sampled_from([0] * 10 + [-1, 1]))
    out = []
    for i in range(nrows):
        f = market.firms[min(i, market.n_firms - 1)]
        row = [draw(_VALUES) if market.acceptable(f, w)
               else "1" if _sometimes(draw, 20) else draw(st.sampled_from(["0", "0", "-0", "0/5"]))
               for w in market.workers]
        if row and _sometimes(draw, 6):
            row[draw(st.integers(0, len(row) - 1))] = draw(_FAULTS)
        if _sometimes(draw, 12):
            row = row[:-1] if draw(st.booleans()) else row + ["0"]
        out += ["", "# c"][:draw(st.integers(0, 2))]
        out.append(draw(_GAPS).join(row) + draw(st.sampled_from(["", " # r"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(out) + "\n"


def _same_fraction_outcome(market, text):
    new, new_warnings = _outcome(sf.parse_fractional, market, text)
    old, old_warnings = _outcome(reference_parse_fractional, market, text)
    assert new == old and new_warnings == old_warnings == []
    if isinstance(new, sf.FractionalMatching):
        assert (new._denom, new._nums) == (old._denom, old._nums)
    return new


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_fractional_matches_the_reference(data):
    """Equal matrices in the same canonical form, or the same error."""
    text = data.draw(_market_texts())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            m = sf.parse_market(text)
        except sf.ParseError:
            return
    _same_fraction_outcome(m, data.draw(_fraction_texts(m)))


@pytest.mark.parametrize("text,message,line", FRACTION_ERRORS, ids=_short)
def test_fraction_errors_match_the_reference(text, message, line):
    with pytest.warns(sf.OneSidedPreferenceWarning):
        m = sf.parse_market(_FRACTION_MARKET_TEXT)
    if "too long" in message:
        with pytest.raises(ValueError, match="Exceeds the limit"):
            reference_parse_fractional(m, text)
    else:
        assert _same_fraction_outcome(m, text) == (message, line)

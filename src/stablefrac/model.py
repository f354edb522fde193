"""Core domain types and text formats for many-to-one matching markets.

Every matching quantity in this library is exact.  A fractional matching is
held as integer numerators over the least common denominator of its entries,
and the polytope, sweep and hull code compute on that form; weights,
condition factors and the entries a caller reads are ``fractions.Fraction``s.
Floats appear only in ``gen_random_market``, where draws against
``density`` shape an instance's preference lists.
"""

from __future__ import annotations

import random
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

__all__ = (
    "AlreadyIntegralError",
    "CapExceededError",
    "ContestedWorkerError",
    "CycleMismatchError",
    "Decomposition",
    "FractionalMatching",
    "InfeasibleError",
    "Market",
    "MarketError",
    "Matching",
    "NotStableError",
    "NotStronglyStableError",
    "OneSidedPreferenceWarning",
    "ParseError",
    "Rational",
    "gen_random_market",
    "incidence_vector",
    "matching_from_matrix",
    "parse_fractional",
    "parse_market",
    "serialize_market",
)

Rational = Fraction

_ID_RE = re.compile(r"[A-Za-z0-9_.+-]+")
_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")
_INTEGER_RE = re.compile(r"^-?[0-9]+$")
_ZERO = Fraction(0)     # one shared zero for the many zero factors of a report


class MarketError(Exception):
    """Base class for errors raised by this library."""


class ParseError(MarketError):
    """Malformed market or matrix text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotStableError(MarketError):
    """An operation that requires a stable matching received an unstable one."""


class InfeasibleError(MarketError):
    """A point violates the linear constraints it was required to satisfy."""

    def __init__(self, constraint: tuple[str, ...], lhs: Rational, rhs: Rational):
        self.constraint = constraint
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"constraint {':'.join(constraint)} violated ({lhs} vs {rhs})")


class NotStronglyStableError(MarketError):
    """A point fails the strong stability condition."""

    def __init__(self, message: str, pair: tuple[str, str] | None = None,
                 product: Rational | None = None):
        self.pair = pair
        self.product = product
        super().__init__(message)


class ContestedWorkerError(NotStronglyStableError):
    """Two firms claim the same worker among their best supported workers."""

    def __init__(self, worker: str, firms: tuple[str, str]):
        self.worker = worker
        self.firms = firms
        super().__init__(
            f"worker {worker} is claimed by both {firms[0]} and {firms[1]}")


class AlreadyIntegralError(MarketError):
    """Peeling was attempted on a point that is already a stable matching."""


class CapExceededError(MarketError):
    """The instance exceeds the brute-force enumeration cap."""


class CycleMismatchError(MarketError):
    """The given rotation is not a cycle at the given matching."""


class OneSidedPreferenceWarning(UserWarning):
    """A preference entry whose counterpart does not list the agent back."""


@dataclass(frozen=True)
class Market:
    """A many-to-one matching market: firms with quotas and strict lists.

    Preference lists are most-preferred first.  A firm's preferences over
    *sets* of workers are never stored; they are induced from its individual
    list and quota (vacancies are filled with acceptable workers, and a set
    improves when one worker is swapped for a more-preferred one).

    The constructor checks every field, each list as it ranks it, the firms'
    first; lists of undeclared agents are dropped, one-sided entries kept.
    Instances are immutable after construction and safe to share across
    threads.  All operations in this library are pure functions.  The
    constructor keeps each agent's index, rank table and acceptable list,
    and the acceptable pairs in order.  Two derived values are kept on a
    market, each built on first use: the polytope layer's index of the
    acceptable pairs, the one place that holds a pair's position and numbers
    the rows of the stable-feasibility system, and deferred acceptance's two
    matchings.
    """

    firms: tuple[str, ...]
    workers: tuple[str, ...]
    quota: dict[str, int]
    firm_pref: dict[str, tuple[str, ...]]
    worker_pref: dict[str, tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(self, "firms", tuple(self.firms))
        object.__setattr__(self, "workers", tuple(self.workers))
        object.__setattr__(self, "quota", dict(self.quota))
        for side, ids in (("firm", self.firms), ("worker", self.workers)):
            if len(set(ids)) != len(ids):
                raise ValueError(f"duplicate {side} ids")
        overlap = set(self.firms) & set(self.workers)
        if overlap:
            raise ValueError(f"ids used on both sides: {sorted(overlap)}")
        if set(self.quota) != set(self.firms):
            raise ValueError("quota must cover exactly the declared firms")
        for f, q in self.quota.items():
            if type(q) is not int or q < 1:   # bool is an int subclass
                raise ValueError(f"quota of {f} must be a positive integer")
        self._build_caches()

    def _build_caches(self):
        findex = {f: i for i, f in enumerate(self.firms)}
        windex = {w: j for j, w in enumerate(self.workers)}
        tables = []
        for prefs, ids, known, other in (
                (self.firm_pref, self.firms, windex, "worker"),
                (self.worker_pref, self.workers, findex, "firm")):
            lists, ranks = {}, {}
            for a in ids:
                lst = lists[a] = tuple(prefs.get(a, ()))
                rank = ranks[a] = {b: r for r, b in enumerate(lst)}
                if len(rank) != len(lst):
                    raise ValueError(f"duplicate entries in preference list of {a}")
                if not known.keys() >= rank.keys():
                    unknown = sorted(rank.keys() - known.keys())
                    raise ValueError(f"{a} lists undeclared {other}s: {unknown}")
            tables += lists, ranks
        firm_pref, frank, worker_pref, wrank = tables
        firm_acc, worker_acc = _prune_mutual(firm_pref, worker_pref, warn=False)
        # canonical order: firm declaration order, then worker declaration order
        pairs = tuple((f, w) for f in self.firms
                      for w in sorted(firm_acc[f], key=windex.__getitem__))
        object.__setattr__(self, "firm_pref", firm_pref)
        object.__setattr__(self, "worker_pref", worker_pref)
        object.__setattr__(self, "_findex", findex)
        object.__setattr__(self, "_windex", windex)
        object.__setattr__(self, "_frank", frank)
        object.__setattr__(self, "_wrank", wrank)
        object.__setattr__(self, "_firm_acc", firm_acc)
        object.__setattr__(self, "_worker_acc", worker_acc)
        object.__setattr__(self, "_pairs", pairs)

    @property
    def n_firms(self) -> int:
        return len(self.firms)

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def firm_index(self, f: str) -> int:
        return self._findex[f]

    def worker_index(self, w: str) -> int:
        return self._windex[w]

    def acceptable(self, f: str, w: str) -> bool:
        """Whether f and w list each other; False for an unknown name."""
        return w in self._frank.get(f, ()) and f in self._wrank.get(w, ())

    def pairs(self) -> tuple[tuple[str, str], ...]:
        """Mutually acceptable pairs in (firm declaration, worker declaration) order."""
        return self._pairs

    def acceptable_to_firm(self, f: str) -> tuple[str, ...]:
        """f's preference list restricted to mutually acceptable workers."""
        return self._firm_acc[f]

    def acceptable_to_worker(self, w: str) -> tuple[str, ...]:
        return self._worker_acc[w]


@dataclass(frozen=True)
class Matching:
    """An assignment of workers to firms.

    ``assignment`` holds one row per firm in declaration order; workers within
    a row are in declaration order.  Unmatched workers are simply absent (a
    worker matched to itself is a derived view, never stored).

    Equality compares ``assignment`` alone, and the hash, that of the
    tuple ``(assignment,)``, is computed once when the matching is made.
    The lookups behind ``matched`` and ``employer`` are built from the rows
    the first time they are read and then kept, so a matching that is only
    stored, hashed and compared costs its rows and its hash.
    """

    assignment: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for _, ws in self.assignment:
            for w in ws:
                if w in seen:
                    raise ValueError(f"worker {w} assigned twice")
                seen.add(w)
        object.__setattr__(self, "_hash", hash((self.assignment,)))

    @classmethod
    def _derive(cls, assignment: tuple[tuple[str, tuple[str, ...]], ...]
                ) -> "Matching":
        """The matching ``assignment``, unchecked: the caller guarantees
        that no worker is in two rows, as a rotation's trade does."""
        child = object.__new__(cls)
        child.__dict__.update(assignment=assignment, _hash=hash((assignment,)))
        return child

    @cached_property
    def _rows(self) -> dict[str, tuple[str, ...]]:
        """Firm -> row, built on first read and kept in the instance."""
        return dict(self.assignment)

    @cached_property
    def _employer(self) -> dict[str, str]:
        """Worker -> firm, built on first read and kept in the instance."""
        return {w: f for f, ws in self.assignment for w in ws}

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a copy or an unpickled matching rebuilds its lookups and hash,
        # which string hashing may change from one process to the next
        return Matching, (self.assignment,)

    @classmethod
    def build(cls, market: Market, mapping: Mapping[str, Iterable[str]]) -> "Matching":
        """Canonicalize a firm -> workers mapping against a market."""
        rows = []
        for f in market.firms:
            staff = set(mapping.get(f, ()))
            unknown = staff.difference(market._windex)
            if unknown:
                raise ValueError(f"unknown workers in assignment: {sorted(unknown)}")
            ws = tuple(sorted(staff, key=market.worker_index))
            if len(ws) > market.quota[f]:
                raise ValueError(f"firm {f} exceeds its quota")
            rows.append((f, ws))
        extra = set(mapping) - set(market.firms)
        if extra:
            raise ValueError(f"unknown firms in assignment: {sorted(extra)}")
        return cls(tuple(rows))

    def matched(self, f: str) -> tuple[str, ...]:
        return self._rows[f]

    def employer(self, w: str) -> str | None:
        return self._employer.get(w)

    def as_dict(self) -> dict[str, tuple[str, ...]]:
        return dict(self.assignment)


class FractionalMatching:
    """An |F| x |W| matrix of exact rationals, indexed in declaration order,
    held as integer rows ``_nums`` over ``_denom``, the least common
    denominator of its entries.  That form is canonical, so equality and
    hashing compare it; ``entries`` is built on first read, unless the
    constructor was given it.  ``_stable`` is None or ``(market, report)``,
    the point's one stable-feasibility evaluation, which
    ``polytope.check_stable_feasibility`` keeps and reads back."""

    __slots__ = ("_denom", "_nums", "_entries", "_stable")

    def __init__(self, entries: Sequence[Sequence[Rational]]):
        self._entries = entries = tuple(map(tuple, entries))
        self._stable = None
        self._denom = d = lcm(*{v.denominator for row in entries for v in row})
        self._nums = tuple(tuple(v.numerator * (d // v.denominator) for v in row)
                           for row in entries)

    @classmethod
    def _from_scaled(cls, denom: int,
                     rows: Iterable[Iterable[int]]) -> "FractionalMatching":
        """The matrix ``rows / denom``, for integer rows and ``denom > 0``,
        brought to the canonical form by dividing each nonzero numerator by
        the gcd of ``denom`` and the nonzero numerators."""
        rows = tuple(map(tuple, rows))
        g = gcd(denom, *filter(None, chain.from_iterable(rows))) if denom > 1 else 1
        x = object.__new__(cls)
        x._denom, x._entries, x._stable = denom // g, None, None
        x._nums = rows if g == 1 else tuple(
            tuple([n // g if n else 0 for n in r]) if any(r) else r for r in rows)
        return x

    @property
    def entries(self) -> tuple[tuple[Rational, ...], ...]:
        if self._entries is None:
            self._entries = tuple(tuple(Fraction(n, self._denom) for n in row)
                                  for row in self._nums)
        return self._entries

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FractionalMatching:
            return NotImplemented
        return self._denom == other._denom and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._denom, self._nums))

    def __repr__(self) -> str:
        return f"FractionalMatching(entries={self.entries!r})"

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rational | int]]) -> "FractionalMatching":
        return cls([[v if isinstance(v, Fraction) else Fraction(v) for v in row]
                    for row in rows])

    def value(self, market: Market, f: str, w: str) -> Rational:
        return self.entries[market.firm_index(f)][market.worker_index(w)]

    def is_integral(self) -> bool:
        return self._denom == 1

    @staticmethod
    def linear_combination(
            terms: Sequence[tuple["FractionalMatching", Rational]]) -> "FractionalMatching":
        if not terms:
            raise ValueError("empty combination")
        weights = [(x, Fraction(a)) for x, a in terms]
        denom = lcm(*(a.denominator * x._denom for x, a in weights))
        grid = [[0] * len(row) for row in terms[0][0]._nums]
        for x, a in weights:
            c = a.numerator * (denom // (a.denominator * x._denom))
            for acc, row in zip(grid, x._nums):
                for j, n in enumerate(row):
                    if n:
                        acc[j] += c * n
        return FractionalMatching._from_scaled(denom, grid)


def _from_cells(market: Market, denom: int,
                cells: Iterable[tuple[int, int]]) -> FractionalMatching:
    """The matrix over ``denom`` whose numerator at each flat cell c sums n
    over cells (c, n); flat cell c is row c // n_workers, column
    c % n_workers."""
    nw = market.n_workers
    flat = [0] * (market.n_firms * nw)
    for c, n in cells:
        flat[c] += n
    rows = zip(*[iter(flat)] * nw) if nw else [()] * market.n_firms
    return FractionalMatching._from_scaled(denom, rows)


def _mix(market: Market, denom: int,
         terms: Iterable[tuple[Matching, int]]) -> FractionalMatching:
    """The matrix over ``denom`` whose numerators sum n times mu's incidence
    over terms (mu, n)."""
    nw, findex, windex = market.n_workers, market._findex, market._windex
    return _from_cells(market, denom, ((findex[f] * nw + windex[w], n) for mu, n in terms
                                       for f, ws in mu.assignment for w in ws))


@dataclass(frozen=True)
class Decomposition:
    """An ordered convex decomposition into stable matchings.

    Weights are positive and sum to one exactly; successive matchings are
    strictly worse for the firms as a whole.
    """

    terms: tuple[tuple[Matching, Rational], ...]

    def reconstruct(self, market: Market) -> FractionalMatching:
        denom = lcm(*(a.denominator for _, a in self.terms))
        return _mix(market, denom, (
            (mu, a.numerator * (denom // a.denominator)) for mu, a in self.terms))


def incidence_vector(market: Market, mu: Matching) -> FractionalMatching:
    """The 0/1 matrix with a unit entry exactly where a worker is employed."""
    return _mix(market, 1, [(mu, 1)])


def matching_from_matrix(market: Market, x: FractionalMatching) -> Matching:
    """Interpret a 0/1 matrix as a matching; reject anything non-integral."""
    mapping: dict[str, list[str]] = {f: [] for f in market.firms}
    for i, f in enumerate(market.firms):
        for j, w in enumerate(market.workers):
            n = x._nums[i][j]
            if n == 0:
                continue
            if n != x._denom:
                raise ValueError(
                    f"entry for ({f},{w}) is {x.entries[i][j]}, not 0/1")
            mapping[f].append(w)
    return Matching.build(market, mapping)


def _prune_mutual(firm_pref: dict[str, tuple[str, ...]],
                  worker_pref: dict[str, tuple[str, ...]],
                  warn: bool) -> tuple[dict, dict]:
    """Drop one-sided preference entries from both sides, the firms' first;
    with ``warn``, each dropped entry warns at the caller's caller.  Every
    entry must have a list, and no list may repeat an entry."""
    wsets = {w: set(fs) for w, fs in worker_pref.items()}
    # all mutual when the firms' entries list them back and the workers' are no more
    if sum(map(len, firm_pref.values())) == sum(map(len, worker_pref.values())) \
            and all(f in wsets[w] for f, ws in firm_pref.items() for w in ws):
        return dict(firm_pref), dict(worker_pref)
    fsets = {f: set(ws) for f, ws in firm_pref.items()}
    out = []
    for side, prefs, back in (("firm", firm_pref, wsets), ("worker", worker_pref, fsets)):
        out.append({a: tuple(b for b in lst if a in back[b]) for a, lst in prefs.items()})
        for a, lst in prefs.items() if warn else ():
            for b in lst:
                if a not in back[b]:
                    warnings.warn(
                        f"dropping one-sided pair: {side} {a} lists {b} "
                        f"but {b} does not list {a}",
                        OneSidedPreferenceWarning, stacklevel=3)
    return tuple(out)


def gen_random_market(seed: int, nf: int, nw: int, qmax: int,
                      density: float | None = None) -> Market:
    """A deterministic random market.

    Each agent draws a uniform random subset of the other side in uniform
    random order; quotas are uniform on [1, qmax]; one-sided entries are
    pruned silently.  ``density`` overrides the per-entry inclusion
    probability (1.0 gives complete lists); the default of None keeps the
    subset distribution uniform.  Randomness only shapes the instance; all
    matching arithmetic downstream stays exact.
    """
    if nf < 1 or nw < 1 or qmax < 1:
        raise ValueError("nf, nw and qmax must all be at least 1")
    p = 0.5 if density is None else density
    rng = random.Random(f"market:{seed}:{nf}:{nw}:{qmax}:{p}")
    firms = tuple(f"f{i}" for i in range(1, nf + 1))
    workers = tuple(f"w{j}" for j in range(1, nw + 1))
    quota = {f: rng.randint(1, qmax) for f in firms}

    def draw(others: tuple[str, ...]) -> tuple[str, ...]:
        chosen = [a for a in others if rng.random() < p]
        rng.shuffle(chosen)
        return tuple(chosen)

    firm_pref, worker_pref = _prune_mutual({f: draw(workers) for f in firms},
                                           {w: draw(firms) for w in workers},
                                           warn=False)
    return Market(firms, workers, quota, firm_pref, worker_pref)


def _parse_ids(text: str, lineno: int) -> tuple[str, ...]:
    ids = text.split()
    if ids and not _ID_RE.fullmatch("".join(ids)):    # one test per line
        bad = next(name for name in ids if not _ID_RE.fullmatch(name))
        raise ParseError(f"invalid id {bad!r}", lineno)
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate ids", lineno)
    return tuple(ids)


def _integer(token: str, what: str, lineno: int) -> int:
    """``int(token)``, or a ParseError giving its length past the limit."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} of {len(token.lstrip('-'))} digits is too long",
                         lineno) from None


def parse_market(text: str) -> Market:
    """Parse the textual market format.

    The format is line based; ``#`` starts a comment::

        firms: f1 f2
        workers: w1 w2 w3 w4
        quota: f1=2 f2=2
        firm f1: w1 w2 w3 w4     # most-preferred first
        worker w1: f2 f1

    Firms without a quota entry default to quota one.  Preference entries
    whose counterpart does not list the agent back are dropped with a
    OneSidedPreferenceWarning.  A line's ids are checked together when it is
    read, and its names against the declared ones by one set test at the end.
    """
    ids: dict[str, tuple[str, ...]] = {}         # side -> declared ids
    quota: dict[str, tuple[int, int]] = {}        # name -> (value, line)
    # side -> name -> (list, line)
    prefs: dict[str, dict[str, tuple[tuple[str, ...], int]]] = {
        "firm": {}, "worker": {}}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("quota:"):
            for token in line[len("quota:"):].split():
                name, sep, val = token.partition("=")
                if not sep:
                    raise ParseError(f"bad quota token {token!r}", lineno)
                # ASCII digits only: int() would also take "+2", "1_0" and
                # non-ASCII digits
                if not _INTEGER_RE.match(val):
                    raise ParseError(f"bad quota value {val!r}", lineno)
                q = _integer(val, "quota value", lineno)
                if q < 1:
                    raise ParseError(f"quota of {name} must be at least 1", lineno)
                if name in quota:
                    raise ParseError(f"repeated quota for {name}", lineno)
                quota[name] = (q, lineno)
            continue
        side = "firm" if line.startswith("firm") else \
            "worker" if line.startswith("worker") else ""
        tail = line[len(side):] if side else ""
        if tail.startswith("s:"):
            if side in ids:
                raise ParseError(f"repeated {side}s: line", lineno)
            ids[side] = _parse_ids(tail[2:], lineno)
        elif tail.startswith(" "):
            head, sep, rest = tail.partition(":")
            if not sep:
                raise ParseError(f"missing ':' in {side} line", lineno)
            name = head.strip()
            if name in prefs[side]:
                raise ParseError(
                    f"repeated preference line for {side} {name}", lineno)
            prefs[side][name] = (_parse_ids(rest, lineno), lineno)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)

    for side in prefs:
        if side not in ids:
            raise ParseError(f"missing {side}s: line")
    firms, workers = ids["firm"], ids["worker"]
    declared = {side: set(ids[side]) for side in prefs}
    for name, (_, lineno) in quota.items():
        if name not in declared["firm"]:
            raise ParseError(f"quota for undeclared firm {name}", lineno)
    for side, other in (("firm", "worker"), ("worker", "firm")):
        known = declared[other]
        for name, (lst, lineno) in prefs[side].items():
            if name not in declared[side]:
                raise ParseError(
                    f"preference line for undeclared {side} {name}", lineno)
            if not known.issuperset(lst):
                b = next(b for b in lst if b not in known)
                raise ParseError(
                    f"{side} {name} lists undeclared {other} {b}", lineno)

    lists = {side: {a: prefs[side].get(a, ((), 0))[0] for a in ids[side]}
             for side in prefs}
    firm_lists, worker_lists = _prune_mutual(lists["firm"], lists["worker"],
                                             warn=True)
    quotas = {f: quota.get(f, (1, 0))[0] for f in firms}
    try:
        return Market(firms, workers, quotas, firm_lists, worker_lists)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_market(market: Market) -> str:
    """The text ``parse_market`` reads back as an equal market; ValueError
    for an unwritable id, or for a one-sided entry, which the parser would
    drop (the firms' first, as the parser warns)."""
    for name in chain(market.firms, market.workers):
        if not _ID_RE.fullmatch(name):
            raise ValueError(f"id {name!r} is not made of [A-Za-z0-9_.+-]")
    for side, prefs, back in (("firm", market.firm_pref, market._wrank),
                              ("worker", market.worker_pref, market._frank)):
        for a, lst in prefs.items():
            for b in lst:
                if a not in back[b]:
                    raise ValueError(f"{side} {a} lists {b} but {b} does not list {a}")
    lines = [
        "firms: " + " ".join(market.firms),
        "workers: " + " ".join(market.workers),
        "quota: " + " ".join(f"{f}={market.quota[f]}" for f in market.firms),
    ]
    for f in market.firms:
        lines.append(f"firm {f}: " + " ".join(market.firm_pref[f]))
    for w in market.workers:
        lines.append(f"worker {w}: " + " ".join(market.worker_pref[w]))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def parse_fractional(market: Market, text: str) -> FractionalMatching:
    """Parse a matrix of rational tokens, one row per firm.

    Only the format and the sign/zero pattern are validated here: entries must
    be nonnegative and entries on non-acceptable pairs must be exactly zero.
    Quota and stability constraints are checked separately.  A row's tokens
    other than ``0`` are read left to right; its first fault is reported.
    With no workers every row is blank, so text with no non-blank line is
    the matrix with no columns.
    """
    cells: list[tuple[int, int, int]] = []    # nonzero (flat cell, num, denom)
    nrows = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if nrows == len(market.firms):
            raise ParseError(
                f"expected {market.n_firms} rows, found more", lineno)
        tokens = line.split()
        if len(tokens) != market.n_workers:
            raise ParseError(
                f"expected {market.n_workers} entries, found {len(tokens)}", lineno)
        f, row = market.firms[nrows], nrows * len(tokens)     # row's first flat cell
        nrows += 1
        unread = len(tokens) - tokens.count("0")     # counted in C
        for j, token in enumerate(tokens):
            if not unread:
                break
            if token == "0":
                continue
            unread -= 1
            num, _, den = token.partition("/")
            if not _RATIONAL_RE.match(token) or (
                    den and not _integer(den, "denominator", lineno)):
                raise ParseError(f"bad rational token {token!r}", lineno)
            n = _integer(num, "numerator", lineno)
            w = market.workers[j]
            if n < 0:
                raise ParseError(f"negative entry for ({f},{w})", lineno)
            if n and not market.acceptable(f, w):
                raise ParseError(
                    f"nonzero entry for non-acceptable pair ({f},{w})", lineno)
            if n:
                cells.append((row + j, n, int(den or 1)))
    if nrows != market.n_firms and market.n_workers:
        raise ParseError(
            f"expected {market.n_firms} rows, found {nrows}")
    # tokens need not be reduced, so their denominators' LCM need not be
    # least; ``_from_scaled`` divides it down
    denom = lcm(*{d for *_, d in cells})
    return _from_cells(market, denom, ((c, n * (denom // d)) for c, n, d in cells))

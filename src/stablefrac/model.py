"""Core domain types and text formats for many-to-one matching markets.

Every numeric quantity in this library is an exact ``fractions.Fraction``;
no floating point is used anywhere.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

Rational = Fraction

_ID_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")
_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


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


def parse_rational(token: str) -> Rational:
    """Parse "a/b" or an integer literal into an exact rational."""
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"not a rational token: {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


@dataclass(frozen=True)
class Market:
    """A many-to-one matching market: firms with quotas and strict lists.

    Preference lists are most-preferred first.  A firm's preferences over
    *sets* of workers are never stored; they are induced from its individual
    list and quota (vacancies are filled with acceptable workers, and a set
    improves when one worker is swapped for a more-preferred one).

    Instances are immutable after construction and safe to share across
    threads.  All operations in this library are pure functions.
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
        object.__setattr__(
            self, "firm_pref",
            {f: tuple(ws) for f, ws in self.firm_pref.items()})
        object.__setattr__(
            self, "worker_pref",
            {w: tuple(fs) for w, fs in self.worker_pref.items()})
        self._validate()
        self._build_caches()

    def _validate(self):
        if len(set(self.firms)) != len(self.firms):
            raise ValueError("duplicate firm ids")
        if len(set(self.workers)) != len(self.workers):
            raise ValueError("duplicate worker ids")
        overlap = set(self.firms) & set(self.workers)
        if overlap:
            raise ValueError(f"ids used on both sides: {sorted(overlap)}")
        firm_set, worker_set = set(self.firms), set(self.workers)
        if set(self.quota) != firm_set:
            raise ValueError("quota must cover exactly the declared firms")
        for f, q in self.quota.items():
            if not isinstance(q, int) or q < 1:
                raise ValueError(f"quota of {f} must be a positive integer")
        for f in self.firms:
            lst = self.firm_pref.get(f, ())
            if len(set(lst)) != len(lst):
                raise ValueError(f"duplicate entries in preference list of {f}")
            unknown = set(lst) - worker_set
            if unknown:
                raise ValueError(f"{f} lists undeclared workers: {sorted(unknown)}")
        for w in self.workers:
            lst = self.worker_pref.get(w, ())
            if len(set(lst)) != len(lst):
                raise ValueError(f"duplicate entries in preference list of {w}")
            unknown = set(lst) - firm_set
            if unknown:
                raise ValueError(f"{w} lists undeclared firms: {sorted(unknown)}")
        object.__setattr__(
            self, "firm_pref", {f: self.firm_pref.get(f, ()) for f in self.firms})
        object.__setattr__(
            self, "worker_pref", {w: self.worker_pref.get(w, ()) for w in self.workers})

    def _build_caches(self):
        findex = {f: i for i, f in enumerate(self.firms)}
        windex = {w: j for j, w in enumerate(self.workers)}
        frank = {f: {w: r for r, w in enumerate(self.firm_pref[f])} for f in self.firms}
        wrank = {w: {f: r for r, f in enumerate(self.worker_pref[w])} for w in self.workers}
        firm_acc = {
            f: tuple(w for w in self.firm_pref[f] if f in wrank[w])
            for f in self.firms}
        worker_acc = {
            w: tuple(f for f in self.worker_pref[w] if w in frank[f])
            for w in self.workers}
        acc_set = frozenset(
            (f, w) for f in self.firms for w in firm_acc[f])
        # canonical order: firm declaration order, then worker declaration order
        pairs = tuple(
            (f, w) for f in self.firms for w in self.workers if (f, w) in acc_set)
        pair_index = {p: k for k, p in enumerate(pairs)}
        object.__setattr__(self, "_findex", findex)
        object.__setattr__(self, "_windex", windex)
        object.__setattr__(self, "_frank", frank)
        object.__setattr__(self, "_wrank", wrank)
        object.__setattr__(self, "_firm_acc", firm_acc)
        object.__setattr__(self, "_worker_acc", worker_acc)
        object.__setattr__(self, "_acc_set", acc_set)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_pair_index", pair_index)

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

    def firm_rank(self, f: str, w: str) -> int:
        """Position of w in f's declared list (0 = most preferred)."""
        return self._frank[f][w]

    def worker_rank(self, w: str, f: str) -> int:
        return self._wrank[w][f]

    def acceptable(self, f: str, w: str) -> bool:
        return (f, w) in self._acc_set

    def pairs(self) -> tuple[tuple[str, str], ...]:
        """Mutually acceptable pairs in (firm declaration, worker declaration) order."""
        return self._pairs

    def pair_position(self, f: str, w: str) -> int:
        return self._pair_index[(f, w)]

    def acceptable_to_firm(self, f: str) -> tuple[str, ...]:
        """f's preference list restricted to mutually acceptable workers."""
        return self._firm_acc[f]

    def acceptable_to_worker(self, w: str) -> tuple[str, ...]:
        return self._worker_acc[w]


@dataclass(frozen=True)
class AcceptablePairSet:
    """The set of mutually acceptable firm-worker pairs of a market."""

    pairs: frozenset[tuple[str, str]]

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self.pairs)


def acceptable_pairs(market: Market) -> AcceptablePairSet:
    """Exactly the pairs where each side lists the other."""
    return AcceptablePairSet(market._acc_set)


@dataclass(frozen=True)
class Matching:
    """An assignment of workers to firms.

    ``assignment`` holds one row per firm in declaration order; workers within
    a row are in declaration order.  Unmatched workers are simply absent (a
    worker matched to itself is a derived view, never stored).
    """

    assignment: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        employer: dict[str, str] = {}
        for f, ws in self.assignment:
            for w in ws:
                if w in employer:
                    raise ValueError(f"worker {w} assigned twice")
                employer[w] = f
        object.__setattr__(self, "_employer", employer)

    @classmethod
    def build(cls, market: Market, mapping: Mapping[str, Iterable[str]]) -> "Matching":
        """Canonicalize a firm -> workers mapping against a market."""
        rows = []
        for f in market.firms:
            ws = tuple(sorted(set(mapping.get(f, ())), key=market.worker_index))
            if len(ws) > market.quota[f]:
                raise ValueError(f"firm {f} exceeds its quota")
            rows.append((f, ws))
        extra = set(mapping) - set(market.firms)
        if extra:
            raise ValueError(f"unknown firms in assignment: {sorted(extra)}")
        return cls(tuple(rows))

    def matched(self, f: str) -> tuple[str, ...]:
        for firm, ws in self.assignment:
            if firm == f:
                return ws
        raise KeyError(f)

    def employer(self, w: str) -> str | None:
        return self._employer.get(w)

    def matched_workers(self) -> frozenset[str]:
        return frozenset(self._employer)

    def as_dict(self) -> dict[str, tuple[str, ...]]:
        return {f: ws for f, ws in self.assignment}


@dataclass(frozen=True)
class FractionalMatching:
    """An |F| x |W| matrix of exact rationals, indexed in declaration order."""

    entries: tuple[tuple[Rational, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rational | int]]) -> "FractionalMatching":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @classmethod
    def from_pair_values(cls, market: Market,
                         values: Sequence[Rational]) -> "FractionalMatching":
        """Build a full matrix from values on the acceptable pairs (zero elsewhere)."""
        grid = [[Fraction(0)] * market.n_workers for _ in market.firms]
        for (f, w), v in zip(market.pairs(), values):
            grid[market.firm_index(f)][market.worker_index(w)] = Fraction(v)
        return cls.from_rows(grid)

    def value(self, market: Market, f: str, w: str) -> Rational:
        return self.entries[market.firm_index(f)][market.worker_index(w)]

    def flatten(self, market: Market) -> tuple[Rational, ...]:
        """The coordinates on the acceptable pairs, in canonical pair order."""
        return tuple(self.value(market, f, w) for f, w in market.pairs())

    def support(self, market: Market) -> tuple[tuple[str, str], ...]:
        """Positive positions, in (firm declaration, worker declaration) order."""
        out = []
        for i, f in enumerate(market.firms):
            for j, w in enumerate(market.workers):
                if self.entries[i][j] > 0:
                    out.append((f, w))
        return tuple(out)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for row in self.entries for v in row)

    @staticmethod
    def linear_combination(
            terms: Sequence[tuple["FractionalMatching", Rational]]) -> "FractionalMatching":
        if not terms:
            raise ValueError("empty combination")
        nrows = len(terms[0][0].entries)
        ncols = len(terms[0][0].entries[0]) if nrows else 0
        grid = [[Fraction(0)] * ncols for _ in range(nrows)]
        for x, weight in terms:
            weight = Fraction(weight)
            for i, row in enumerate(x.entries):
                for j, v in enumerate(row):
                    if v:
                        grid[i][j] += weight * v
        return FractionalMatching.from_rows(grid)


@dataclass(frozen=True)
class Decomposition:
    """An ordered convex decomposition into stable matchings.

    Weights are positive and sum to one exactly; successive matchings are
    strictly worse for the firms as a whole.
    """

    terms: tuple[tuple[Matching, Rational], ...]

    def matchings(self) -> tuple[Matching, ...]:
        return tuple(mu for mu, _ in self.terms)

    def weights(self) -> tuple[Rational, ...]:
        return tuple(a for _, a in self.terms)

    def reconstruct(self, market: Market) -> FractionalMatching:
        return FractionalMatching.linear_combination(
            [(incidence_vector(market, mu), a) for mu, a in self.terms])


def incidence_vector(market: Market, mu: Matching) -> FractionalMatching:
    """The 0/1 matrix with a unit entry exactly where a worker is employed."""
    grid = [[Fraction(0)] * market.n_workers for _ in market.firms]
    for f, ws in mu.assignment:
        for w in ws:
            grid[market.firm_index(f)][market.worker_index(w)] = Fraction(1)
    return FractionalMatching.from_rows(grid)


def matching_from_matrix(market: Market, x: FractionalMatching) -> Matching:
    """Interpret a 0/1 matrix as a matching; reject anything non-integral."""
    mapping: dict[str, list[str]] = {f: [] for f in market.firms}
    for i, f in enumerate(market.firms):
        for j, w in enumerate(market.workers):
            v = x.entries[i][j]
            if v == 0:
                continue
            if v != 1:
                raise ValueError(f"entry for ({f},{w}) is {v}, not 0/1")
            mapping[f].append(w)
    return Matching.build(market, mapping)


def _prune_mutual(firm_pref: dict[str, tuple[str, ...]],
                  worker_pref: dict[str, tuple[str, ...]],
                  warn: bool) -> tuple[dict, dict]:
    """Drop one-sided preference entries from both sides."""
    fset = {f: set(ws) for f, ws in firm_pref.items()}
    wset = {w: set(fs) for w, fs in worker_pref.items()}
    new_f = {}
    for f, ws in firm_pref.items():
        kept = tuple(w for w in ws if f in wset.get(w, ()))
        if warn:
            for w in ws:
                if f not in wset.get(w, ()):
                    warnings.warn(
                        f"dropping one-sided pair: firm {f} lists {w} "
                        f"but {w} does not list {f}",
                        OneSidedPreferenceWarning, stacklevel=3)
        new_f[f] = kept
    new_w = {}
    for w, fs in worker_pref.items():
        kept = tuple(f for f in fs if w in fset.get(f, ()))
        if warn:
            for f in fs:
                if w not in fset.get(f, ()):
                    warnings.warn(
                        f"dropping one-sided pair: worker {w} lists {f} "
                        f"but {f} does not list {w}",
                        OneSidedPreferenceWarning, stacklevel=3)
        new_w[w] = kept
    return new_f, new_w


def _parse_ids(text: str, lineno: int) -> tuple[str, ...]:
    ids = tuple(text.split())
    for name in ids:
        if not _ID_RE.match(name):
            raise ParseError(f"invalid id {name!r}", lineno)
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate ids", lineno)
    return ids


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
    OneSidedPreferenceWarning.
    """
    firms: tuple[str, ...] | None = None
    workers: tuple[str, ...] | None = None
    quota: dict[str, tuple[int, int]] = {}        # name -> (value, line)
    fpref: dict[str, tuple[tuple[str, ...], int]] = {}
    wpref: dict[str, tuple[tuple[str, ...], int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("firms:"):
            if firms is not None:
                raise ParseError("repeated firms: line", lineno)
            firms = _parse_ids(line[len("firms:"):], lineno)
        elif line.startswith("workers:"):
            if workers is not None:
                raise ParseError("repeated workers: line", lineno)
            workers = _parse_ids(line[len("workers:"):], lineno)
        elif line.startswith("quota:"):
            for token in line[len("quota:"):].split():
                name, sep, val = token.partition("=")
                if not sep:
                    raise ParseError(f"bad quota token {token!r}", lineno)
                try:
                    q = int(val)
                except ValueError:
                    raise ParseError(f"bad quota value {val!r}", lineno) from None
                if q < 1:
                    raise ParseError(f"quota of {name} must be at least 1", lineno)
                if name in quota:
                    raise ParseError(f"repeated quota for {name}", lineno)
                quota[name] = (q, lineno)
        elif line.startswith("firm "):
            head, sep, rest = line.partition(":")
            if not sep:
                raise ParseError("missing ':' in firm line", lineno)
            name = head[len("firm "):].strip()
            if name in fpref:
                raise ParseError(f"repeated preference line for firm {name}", lineno)
            fpref[name] = (_parse_ids(rest, lineno), lineno)
        elif line.startswith("worker "):
            head, sep, rest = line.partition(":")
            if not sep:
                raise ParseError("missing ':' in worker line", lineno)
            name = head[len("worker "):].strip()
            if name in wpref:
                raise ParseError(f"repeated preference line for worker {name}", lineno)
            wpref[name] = (_parse_ids(rest, lineno), lineno)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)

    if firms is None:
        raise ParseError("missing firms: line")
    if workers is None:
        raise ParseError("missing workers: line")
    firm_set, worker_set = set(firms), set(workers)
    for name, (_, lineno) in quota.items():
        if name not in firm_set:
            raise ParseError(f"quota for undeclared firm {name}", lineno)
    for name, (ws, lineno) in fpref.items():
        if name not in firm_set:
            raise ParseError(f"preference line for undeclared firm {name}", lineno)
        for w in ws:
            if w not in worker_set:
                raise ParseError(f"firm {name} lists undeclared worker {w}", lineno)
    for name, (fs, lineno) in wpref.items():
        if name not in worker_set:
            raise ParseError(f"preference line for undeclared worker {name}", lineno)
        for f in fs:
            if f not in firm_set:
                raise ParseError(f"worker {name} lists undeclared firm {f}", lineno)

    firm_lists = {f: fpref.get(f, ((), 0))[0] for f in firms}
    worker_lists = {w: wpref.get(w, ((), 0))[0] for w in workers}
    firm_lists, worker_lists = _prune_mutual(firm_lists, worker_lists, warn=True)
    quotas = {f: quota.get(f, (1, 0))[0] for f in firms}
    try:
        return Market(firms, workers, quotas, firm_lists, worker_lists)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_market(market: Market) -> str:
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
    Quota and stability constraints are checked separately.
    """
    rows: list[list[Rational]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(rows) == len(market.firms):
            raise ParseError(
                f"expected {market.n_firms} rows, found more", lineno)
        tokens = line.split()
        if len(tokens) != market.n_workers:
            raise ParseError(
                f"expected {market.n_workers} entries, found {len(tokens)}", lineno)
        f = market.firms[len(rows)]
        row = []
        for j, token in enumerate(tokens):
            try:
                v = parse_rational(token)
            except ValueError:
                raise ParseError(f"bad rational token {token!r}", lineno) from None
            w = market.workers[j]
            if v < 0:
                raise ParseError(f"negative entry for ({f},{w})", lineno)
            if v != 0 and not market.acceptable(f, w):
                raise ParseError(
                    f"nonzero entry for non-acceptable pair ({f},{w})", lineno)
            row.append(v)
        rows.append(row)
    if len(rows) != market.n_firms:
        raise ParseError(
            f"expected {market.n_firms} rows, found {len(rows)}")
    return FractionalMatching.from_rows(rows)


def serialize_fractional(market: Market, x: FractionalMatching) -> str:
    return "\n".join(
        " ".join(str(v) for v in row) for row in x.entries) + "\n"

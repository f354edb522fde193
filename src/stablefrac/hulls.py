"""Connected-set hull certificates and the cross-validation harness.

A connected set is a stable matching with any subset of its exposed
rotations applied.  The rotations are firm-disjoint, so its hull is the
affine cube ``inc(mu) + sum(lambda_i * delta_i)`` over lambda in [0,1]^k,
and ``_cube_coordinates`` decides membership exactly by reading D * lambda,
D the point's denominator, off its cells.  ``certify_strongly_stable``
reads a strongly stable point's coordinates once, in the cube of its top
matching, and gives term k of the ordered decomposition, which starts at
threshold T_k / D, the rotations with D * lambda_i + T_k >= D: a rotation
firm lists the worker it trades away (mass 1 - lambda_i) before the one it
gains (lambda_i), so the sweep employs the gained one from 1 - lambda_i on.
``verify_characterization`` stress-tests the equivalence from both
directions against brute-force enumeration and the cube test; the subset
search ``point_in_hull`` is the reference the tests hold the cube test to.
The harness builds the rotation chain once (``rotations._Chain``), lists
its stable matchings, each with the opaque mask of its applied rotations,
and asks the chain which rotations each mask exposes (``_Chain.exposed``).
That table of cubes is the one copy: certification looks its base up there
once, and a failing point is tested on one cube only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import attrgetter
from typing import Callable

from .linalg import solve_exact
from .model import (
    ContestedWorkerError,
    Decomposition,
    FractionalMatching,
    Market,
    Matching,
    NotStableError,
    NotStronglyStableError,
    Rational,
    _mix,
    matching_from_matrix,
)
from .polytope import interior_walk, is_extreme_point, vertex_walk
from .rotations import (
    Rotation,
    _Chain,
    connected_set,
    find_cycles,
    reduce_profile,
)
from .stability import enumerate_stable_bruteforce
from .strong_stability import (
    PairCondition,
    check_almost_integral,
    decompose,
    strong_stability_check,
    support_matching,
)

__all__ = (
    "CharacterizationReport",
    "HullCertificate",
    "certify_strongly_stable",
    "point_in_hull",
    "sample_hull",
    "verify_characterization",
)


@dataclass(frozen=True)
class HullCertificate:
    """A point written as a convex combination inside one connected set.

    ``base`` is the top matching of the ordered decomposition, ``rotations``
    its rotation set, and every term names the subset of rotation indices
    that turns the base into that term's matching.  ``decomposition`` is
    the ordered decomposition the terms were read from, term for term; it
    takes no part in equality or the repr.
    """

    base: Matching
    rotations: tuple[Rotation, ...]
    terms: tuple[tuple[frozenset[int], Rational], ...]
    decomposition: Decomposition = field(compare=False, repr=False)


def certify_strongly_stable(
        market: Market, x: FractionalMatching,
        rotations_of: Callable[[Matching], tuple[Rotation, ...] | None] | None = None
) -> HullCertificate | PairCondition:
    """Certify hull membership constructively, or refuse with a witness pair.

    Requires a stable-feasible point (InfeasibleError otherwise).  When the
    strong stability condition fails, the refusal is the first failing
    ``PairCondition`` with its factors, the one ``decompose`` refused at,
    so the condition is scanned once.  When it holds, the point's
    coordinates D * lambda in its base matching's cube are read once, and
    term k, which starts at threshold T_k / D (T_k is D times the earlier
    terms' weights, an integer), gets {i : D * lambda_i + T_k >= D}, since
    each rotation firm lists its lost worker (mass 1 - lambda_i) before its
    gained one.  A strongly stable point outside its base's cube would
    falsify the paper's Theorem 1; it raises AssertionError, under
    ``python -O`` too, instead of being swallowed.  ``rotations_of(base)``,
    when given, stands in for reducing the base's profile: a lookup of the
    known stable matchings' rotations, whose None refuses the base with
    NotStableError.
    """
    try:
        decomposition = decompose(market, x)
    except NotStronglyStableError as refusal:
        return refusal._condition
    base = decomposition.terms[0][0]
    rotations = (rotations_of(base) if rotations_of is not None
                 else find_cycles(reduce_profile(market, base)))
    if rotations is None:
        raise NotStableError("top matching is not a listed stable matching")
    lam = _cube_coordinates(market, base, rotations, x)
    if lam is None:
        raise AssertionError("strongly stable point lies outside its base's cube")
    d, done, terms = x._denom, 0, []
    for _, weight in decomposition.terms:
        terms.append((frozenset(i for i, v in enumerate(lam) if v + done >= d), weight))
        done += weight.numerator * (d // weight.denominator)
    return HullCertificate(base, rotations, tuple(terms), decomposition)


def _cube_coordinates(market: Market, base: Matching,
                      rotations: tuple[Rotation, ...], x: FractionalMatching
                      ) -> tuple[int, ...] | None:
    """D times the lambda in [0,1]^k with ``x = inc(base) +
    sum(lambda_i * delta_i)``, as integers, D being x's denominator, or None.

    Reads only the cells that the cube fixes and each row's count of
    nonzero cells.  On each of rotation i's firms the gained worker carries
    lambda_i and the lost one 1 - lambda_i; every other staff cell of the
    base carries 1; and a row holds no other nonzero cell, which its count
    says.  The count also refuses a lambda_i outside [0, 1], which leaves
    both traded cells nonzero.  ``certify_strongly_stable`` reads the
    ordered decomposition's terms off these coordinates by the threshold
    rule: the sweep trades rotation i's firms from threshold 1 - lambda_i
    on.
    """
    nums, d = x._nums, x._denom
    findex, windex = market._findex, market._windex
    lam: list[int] = []
    lost: dict[str, tuple[str, bool]] = {}   # firm -> (worker it trades, both held)
    for rot in rotations:
        value = nums[findex[rot.firms[0]]][windex[rot.workers[0]]]
        for k, f in enumerate(rot.firms):
            row = nums[findex[f]]
            if row[windex[rot.workers[k]]] != value or \
                    row[windex[rot.workers[k - 1]]] != d - value:
                return None
            lost[f] = (rot.workers[k - 1], 0 < value < d)
        lam.append(value)
    for f, staff in base.assignment:
        row, (traded, split) = nums[findex[f]], lost.get(f, (None, False))
        if len(row) - row.count(0) != len(staff) + split or any(
                row[windex[w]] != d for w in staff if w != traded):
            return None
    return tuple(lam)


def _in_a_hull(market: Market, cubes: dict[Matching, tuple[Rotation, ...]],
               x: FractionalMatching) -> bool:
    """Whether x lies in the hull of some connected set of ``cubes``
    (stable matching -> its exposed rotations), tested on one cube.

    Were x = inc(mu) + sum(lambda_i * delta_i), each gained worker would
    rank below all of its new firm's staff, so x's support matching is mu
    with the rotations of lambda_i = 1 applied, where those of 0 < lambda_i
    < 1 are still exposed: only that matching's cube can hold x.
    """
    try:
        top = support_matching(market, x)
    except ContestedWorkerError:
        return False
    return top in cubes and _cube_coordinates(market, top, cubes[top], x) is not None


def sample_hull(market: Market, mu: Matching, seed: int, count: int,
                rotations: tuple[Rotation, ...]) -> list[FractionalMatching]:
    """Random rational convex combinations over the connected set of mu and
    ``rotations``, the rotations exposed at mu, which the caller supplies
    (``verify_characterization`` reads them off the rotation chain);
    deterministic in the seed.  ``_random_mix`` draws small integer weights,
    so denominators stay below a small multiple of the connected-set size."""
    members = sorted(connected_set(market, mu, rotations),
                     key=attrgetter("assignment"))
    rng = random.Random(f"hull:{seed}")
    return [_random_mix(market, members, rng) for _ in range(count)]


def point_in_hull(points: list[tuple[Rational, ...]],
                  target: tuple[Rational, ...]) -> bool:
    """Exact convex-hull membership by exhaustive subset search.

    A point lies in the hull exactly when some affinely independent subset
    carries it with nonnegative coefficients, so trying every subset (of size
    at most dimension + 1) with an exact linear solve decides membership.
    Exponential in the number of points, and independent of the rotation
    structure: the tests use it as the reference for the cube test that
    ``verify_characterization`` runs on connected-set hulls.
    """
    if not points:
        return False
    if target in points:
        return True
    dim = len(target)
    for c in range(dim):
        column = [p[c] for p in points]
        if not min(column) <= target[c] <= max(column):
            return False
    rhs = [*target, Fraction(1)]
    for size in range(2, min(len(points), dim + 1) + 1):
        for subset in combinations(points, size):
            rows = [[p[c] for p in subset] for c in range(dim)] + [[Fraction(1)] * size]
            status, coeffs = solve_exact(rows, rhs)
            if status == "unique" and all(c >= 0 for c in coeffs):
                return True
    return False


@dataclass(frozen=True)
class CharacterizationReport:
    """Counts and counterexamples from one harness run.

    ``negative_points`` counts every point the condition refused: the
    ``mixes_refused`` of the ``mixes_drawn`` random mixes of the stable
    matchings, then the walk points.  The first note states the mixes'
    ratio as text.
    """

    stable_count: int
    hull_points: int
    negative_points: int
    mixes_drawn: int
    mixes_refused: int
    vertex_points: int
    counterexamples: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _random_mix(market: Market, matchings: list[Matching],
                rng: random.Random) -> FractionalMatching:
    """The matchings mixed with weights r / sum(r), each r drawn on [0, 8]."""
    raw = [rng.randint(0, 8) for _ in matchings]
    if not any(raw):
        raw[0] = 1
    return _mix(market, sum(raw), zip(matchings, raw))


def verify_characterization(market: Market, seed: int,
                            samples: int) -> CharacterizationReport:
    """Stress-test the hull characterization on one market.

    Positive direction: sampled hull points must satisfy the strong stability
    condition, certify constructively (the sweep has already checked that
    the certificate's terms rebuild the point), and be almost integral.
    The rotation chain is built and listed once: its stable set must equal
    brute force's, or that is a counterexample, and the chain reads each
    stable matching's exposed rotations off the mask it was listed with,
    with no reduction of its profile.
    Certification looks the top matching's rotations up there, and a
    passing point whose top matching is not in the stable set is a
    counterexample.
    Negative direction: stable-feasible points that fail the condition must
    be refused and must lie outside every connected-set hull, as decided by
    the cube of their support matching, the one cube that can hold them
    (``_in_a_hull``), which does not use the decomposition.  Vertex fuzzing:
    random walk endpoints must pass the rank test; the non-integral ones
    must fail the condition, the integral ones must be stable matchings.
    """
    oracle = enumerate_stable_bruteforce(market)
    stable = sorted(oracle, key=attrgetter("assignment"))
    chain = _Chain(market)
    listed = chain.listing()

    counterexamples: list[str] = []
    if listed.keys() != oracle:
        counterexamples.append(
            "stable set: brute force and the rotation lattice disagree")
    cubes = {mu: chain.exposed(listed[mu]) for mu in stable if mu in listed}

    def classify(x: FractionalMatching, origin: str, expect_member: bool) -> bool:
        """Record counterexamples at x; true when x passes the condition."""
        try:
            cert = certify_strongly_stable(market, x, cubes.get)
        except NotStableError as exc:
            counterexamples.append(f"{origin}: passing point's {exc}")
            return True
        if isinstance(cert, HullCertificate):
            if not check_almost_integral(market, x):
                counterexamples.append(f"{origin}: passing point not almost integral")
            return True
        if expect_member:
            counterexamples.append(
                f"{origin}: hull point fails the condition at "
                f"({cert.firm},{cert.worker})")
        if _in_a_hull(market, cubes, x):
            counterexamples.append(
                f"{origin}: failing point lies in a connected-set hull")
        return False

    hull_points = 0
    per_mu = max(1, -(-samples // max(1, len(stable))))   # ceil division
    for idx, (mu, rotations) in enumerate(cubes.items()):
        for k, x in enumerate(
                sample_hull(market, mu, seed * 1009 + idx, per_mu, rotations)):
            hull_points += 1
            classify(x, f"hull sample {idx}/{k}", expect_member=True)

    refused, mixes = 0, max(1, samples // 2)
    rng = random.Random(f"negatives:{seed}")
    for k in range(mixes):
        x = _random_mix(market, stable, rng)
        if not classify(x, f"mix {k}", expect_member=False):
            refused += 1

    negative_points = refused
    wrng = random.Random(f"vertex:{seed}")
    walks = max(1, min(4, samples // 25))
    for k in range(walks):
        start = interior_walk(market, _random_mix(market, stable, wrng), wrng)
        if not classify(start, f"walk {k} start", expect_member=False):
            negative_points += 1
        trace: list[FractionalMatching] = []
        v = vertex_walk(market, start, wrng, trace=trace)
        for j, mid in enumerate(trace[:-1]):
            if not classify(mid, f"walk {k} step {j}", expect_member=False):
                negative_points += 1
        is_vertex, rank_value = is_extreme_point(market, v)
        if not is_vertex:
            counterexamples.append(
                f"walk {k}: endpoint is not a vertex (rank {rank_value})")
        if v.is_integral():
            if matching_from_matrix(market, v) not in stable:
                counterexamples.append(
                    f"walk {k}: integral vertex is not a stable matching")
        elif strong_stability_check(market, v).overall:
            counterexamples.append(f"walk {k}: non-integral vertex passes the condition")

    return CharacterizationReport(
        stable_count=len(stable),
        hull_points=hull_points,
        negative_points=negative_points,
        mixes_drawn=mixes, mixes_refused=refused,
        vertex_points=walks,
        counterexamples=tuple(counterexamples),
        notes=(f"negative density {refused}/{mixes} over stable-set mixes",),
    )

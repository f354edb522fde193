"""Connected-set hull certificates and the cross-validation harness.

A strongly stable point decomposes into stable matchings that all live in
one connected set: the rotation closure of the decomposition's top matching.
``certify_strongly_stable`` makes that constructive: it checks the strong
stability condition once, or refuses with the failing ``PairCondition``, and
expresses every term of the threshold-sweep decomposition as a subset of the
top matching's rotations.  ``verify_characterization`` stress-tests the whole
equivalence on one market from both directions, against brute-force
enumeration and an exhaustive convex-hull membership oracle that is
independent of the constructive route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linalg import solve_exact
from .model import (
    FractionalMatching,
    Market,
    Matching,
    Rational,
    incidence_vector,
    matching_from_matrix,
    _prune_mutual,
)
from .polytope import interior_walk, is_extreme_point, vertex_walk
from .rotations import (
    RotationSet,
    apply_cycle_set,
    connected_set,
    find_cycles,
    reduce_profile,
)
from .stability import enumerate_stable_bruteforce
from .strong_stability import (
    PairCondition,
    _threshold_sweep,
    check_almost_integral,
    strong_stability_check,
)

StrongStabilityRefusal = PairCondition      # a refusal is the failing pair itself


@dataclass(frozen=True)
class HullCertificate:
    """A point written as a convex combination inside one connected set.

    ``base`` is the top matching of the ordered decomposition, ``rotations``
    its rotation set, and every term names the subset of rotation indices
    that turns the base into that term's matching.
    """

    base: Matching
    rotations: RotationSet
    terms: tuple[tuple[frozenset[int], Rational], ...]

    def term_matchings(self, market: Market) -> tuple[Matching, ...]:
        return tuple(
            apply_cycle_set(market, self.base,
                            [self.rotations[i] for i in sorted(ids)])
            for ids, _ in self.terms)

    def reconstruct(self, market: Market) -> FractionalMatching:
        return FractionalMatching.linear_combination(
            [(incidence_vector(market, mu), weight)
             for mu, (_, weight) in zip(self.term_matchings(market), self.terms)])


def certify_strongly_stable(
        market: Market, x: FractionalMatching
) -> HullCertificate | PairCondition:
    """Certify hull membership constructively, or refuse with a witness pair.

    Requires a stable-feasible point (InfeasibleError otherwise).  When the
    strong stability condition fails, the refusal is the first failing
    ``PairCondition`` with its factors.  When it holds, the ordered
    decomposition is computed without checking the condition again, and
    every term is matched, firm by firm, to the subset of the base matching's
    rotations that produces it.  A decomposition term that is not expressible
    that way would falsify the characterization; it raises instead of being
    swallowed.
    """
    report = strong_stability_check(market, x)
    if not report.overall:
        return report.first_failure()
    decomposition = _threshold_sweep(market, x)
    base = decomposition.terms[0][0]
    rotations = find_cycles(reduce_profile(market, base))
    firm_to_rotation: dict[str, int] = {}
    for idx, rot in enumerate(rotations):
        for f in rot.firms:
            firm_to_rotation[f] = idx
    terms: list[tuple[frozenset[int], Rational]] = []
    for mu, weight in decomposition.terms:
        ids: set[int] = set()
        for f in market.firms:
            if mu.matched(f) == base.matched(f):
                continue
            idx = firm_to_rotation.get(f)
            if idx is None:
                raise AssertionError(
                    f"term differs from the base at {f}, which is in no rotation")
            ids.add(idx)
        rebuilt = apply_cycle_set(
            market, base, [rotations[i] for i in sorted(ids)])
        if rebuilt != mu:
            raise AssertionError(
                "decomposition term is not a cyclic matching of the base")
        terms.append((frozenset(ids), weight))
    return HullCertificate(base, rotations, tuple(terms))


def sample_hull(market: Market, mu: Matching, seed: int,
                count: int) -> list[FractionalMatching]:
    """Random rational convex combinations over the connected set of mu.

    Deterministic in the seed.  Weights are drawn as small integers and
    normalized, so denominators stay bounded by a small multiple of the
    connected-set size.
    """
    members = sorted(
        connected_set(market, mu, tuple(find_cycles(reduce_profile(market, mu)))),
        key=lambda m: m.assignment)
    vectors = [incidence_vector(market, m) for m in members]
    rng = random.Random(f"hull:{seed}")
    return [_random_mix(vectors, rng) for _ in range(count)]


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
    firm_pref = {}
    for f in firms:
        chosen = [w for w in workers if rng.random() < p]
        rng.shuffle(chosen)
        firm_pref[f] = tuple(chosen)
    worker_pref = {}
    for w in workers:
        chosen = [f for f in firms if rng.random() < p]
        rng.shuffle(chosen)
        worker_pref[w] = tuple(chosen)
    firm_pref, worker_pref = _prune_mutual(firm_pref, worker_pref, warn=False)
    return Market(firms, workers, quota, firm_pref, worker_pref)


def point_in_hull(points: list[tuple[Rational, ...]],
                  target: tuple[Rational, ...]) -> bool:
    """Exact convex-hull membership by exhaustive subset search.

    A point lies in the hull exactly when some affinely independent subset
    carries it with nonnegative coefficients, so trying every subset (of size
    at most dimension + 1) with an exact linear solve decides membership.
    Exponential in the number of points; fine for the connected sets this
    library meets, and deliberately independent of the constructive
    certification path.
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
    max_size = min(len(points), dim + 1)
    for size in range(2, max_size + 1):
        for subset in combinations(points, size):
            rows = [[p[c] for p in subset] for c in range(dim)]
            rows.append([Fraction(1)] * size)
            rhs = list(target) + [Fraction(1)]
            status, coeffs = solve_exact(rows, rhs)
            if status == "unique" and all(c >= 0 for c in coeffs):
                return True
    return False


@dataclass(frozen=True)
class CharacterizationReport:
    """Counts and counterexamples from one harness run."""

    stable_count: int
    hull_points: int
    negative_points: int
    vertex_points: int
    counterexamples: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _random_mix(vectors: list[FractionalMatching],
                rng: random.Random) -> FractionalMatching:
    raw = [rng.randint(0, 8) for _ in vectors]
    if not any(raw):
        raw[0] = 1
    total = Fraction(sum(raw))
    return FractionalMatching.linear_combination(
        [(v, Fraction(r) / total) for v, r in zip(vectors, raw) if r])


def verify_characterization(market: Market, seed: int,
                            samples: int) -> CharacterizationReport:
    """Stress-test the hull characterization on one market.

    Positive direction: sampled hull points must satisfy the strong stability
    condition, certify constructively, reconstruct exactly, and be almost
    integral.  Negative direction: stable-feasible points that fail the
    condition must be refused and must lie outside every connected-set hull,
    as decided by the independent membership oracle.  Vertex fuzzing: random
    walk endpoints must pass the rank test; the non-integral ones must fail
    the condition, the integral ones must be stable matchings.
    """
    stable = sorted(enumerate_stable_bruteforce(market),
                    key=lambda mu: mu.assignment)
    incidences = [incidence_vector(market, mu) for mu in stable]
    hull_vectors = {}
    for idx, mu in enumerate(stable):
        members = connected_set(
            market, mu, tuple(find_cycles(reduce_profile(market, mu))))
        hull_vectors[idx] = [incidence_vector(market, m).flatten(market)
                             for m in sorted(members, key=lambda m: m.assignment)]

    counterexamples: list[str] = []
    notes: list[str] = []

    def classify(x: FractionalMatching, origin: str, expect_member: bool) -> bool:
        """Record counterexamples at x; true when x passes the condition."""
        cert = certify_strongly_stable(market, x)
        if isinstance(cert, HullCertificate):
            if cert.reconstruct(market) != x:
                counterexamples.append(f"{origin}: certificate does not reconstruct")
            if not check_almost_integral(market, x):
                counterexamples.append(f"{origin}: passing point not almost integral")
            return True
        if expect_member:
            counterexamples.append(
                f"{origin}: hull point fails the condition at "
                f"({cert.firm},{cert.worker})")
        flat = x.flatten(market)
        for idx in hull_vectors:
            if point_in_hull(hull_vectors[idx], flat):
                counterexamples.append(
                    f"{origin}: failing point lies in a connected-set hull")
                break
        return False

    hull_points = 0
    per_mu = max(1, -(-samples // max(1, len(stable))))   # ceil division
    for idx, mu in enumerate(stable):
        for k, x in enumerate(sample_hull(market, mu, seed * 1009 + idx, per_mu)):
            hull_points += 1
            classify(x, f"hull sample {idx}/{k}", expect_member=True)

    negative_points = 0
    mixes = max(1, samples // 2)
    rng = random.Random(f"negatives:{seed}")
    for k in range(mixes):
        x = _random_mix(incidences, rng)
        if not classify(x, f"mix {k}", expect_member=False):
            negative_points += 1
    notes.append(f"negative density {negative_points}/{mixes} over stable-set mixes")

    vertex_points = 0
    wrng = random.Random(f"vertex:{seed}")
    walks = max(1, min(4, samples // 25))
    n_pairs = len(market.pairs())
    for k in range(walks):
        start = interior_walk(market, _random_mix(incidences, wrng), wrng)
        if not classify(start, f"walk {k} start", expect_member=False):
            negative_points += 1
        trace: list[FractionalMatching] = []
        v = vertex_walk(market, start, wrng, trace=trace)
        vertex_points += 1
        for j, mid in enumerate(trace[:-1] if trace else []):
            if not classify(mid, f"walk {k} step {j}", expect_member=False):
                negative_points += 1
        is_vertex, rank_value = is_extreme_point(market, v)
        if not is_vertex or rank_value != n_pairs:
            counterexamples.append(
                f"walk {k}: endpoint is not a vertex (rank {rank_value})")
        if v.is_integral():
            if matching_from_matrix(market, v) not in stable:
                counterexamples.append(
                    f"walk {k}: integral vertex is not a stable matching")
        else:
            if strong_stability_check(market, v).overall:
                counterexamples.append(
                    f"walk {k}: non-integral vertex passes the condition")

    return CharacterizationReport(
        stable_count=len(stable),
        hull_points=hull_points,
        negative_points=negative_points,
        vertex_points=vertex_points,
        counterexamples=tuple(counterexamples),
        notes=tuple(notes),
    )

"""Seeded benchmark inputs whose answers are known from how they are built.

Everything here is the benchmark's own code: its own market record, its own
deferred acceptance, its own strong stability arithmetic and its own text
writers.  The library under test is used only to draw dense random markets
(``gen_random_market``, the generator the test fleet uses), never to decide
an answer.

Block markets are k independent m-cycles with latin-square lists.  Inside a
block with firms F_0..F_{m-1} and workers W_0..W_{m-1}, firm F_i ranks
W_i, W_{i+1}, ... and worker W_j ranks F_{j+1}, F_{j+2}, ... (indices mod m).
The block's stable matchings are exactly the m shifts s (F_i takes W_{i+s}),
so the market has exactly prod(m) stable matchings, one per shift vector.
Shift 0 is firm-optimal, shift m-1 worker-optimal, and the rotation that
leads from shift s to shift s+1 is the whole block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

Point = dict  # (firm, worker) -> Fraction; absent pairs are zero


@dataclass(frozen=True)
class Spec:
    """A market as the benchmark knows it, with optional block structure.

    ``blocks`` lists, per cycle, its firms and workers in cycle order, so
    that firm ``firms[i]`` of a block at shift s holds ``workers[(i+s) % m]``.
    """

    firms: tuple[str, ...]
    workers: tuple[str, ...]
    quota: dict
    fpref: dict
    wpref: dict
    blocks: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()
    _frank: dict = field(init=False, repr=False, compare=False)
    _wrank: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_frank", {
            f: {w: r for r, w in enumerate(ws)} for f, ws in self.fpref.items()})
        object.__setattr__(self, "_wrank", {
            w: {f: r for r, f in enumerate(fs)} for w, fs in self.wpref.items()})

    def pairs(self) -> list[tuple[str, str]]:
        """Mutually acceptable pairs in (firm, worker) declaration order."""
        return [(f, w) for f in self.firms for w in self.workers
                if w in self._frank[f] and f in self._wrank[w]]

    def stable_count(self) -> int:
        return prod(len(fs) for fs, _ in self.blocks)

    def text(self) -> str:
        lines = ["firms: " + " ".join(self.firms),
                 "workers: " + " ".join(self.workers),
                 "quota: " + " ".join(f"{f}={self.quota[f]}" for f in self.firms)]
        lines += [f"firm {f}: " + " ".join(self.fpref[f]) for f in self.firms]
        lines += [f"worker {w}: " + " ".join(self.wpref[w]) for w in self.workers]
        return "\n".join(lines) + "\n"

    def point_text(self, x: Point) -> str:
        return "".join(
            " ".join(str(x.get((f, w), 0)) for w in self.workers) + "\n"
            for f in self.firms)


def spec_from_market(market) -> Spec:
    """Copy a library ``Market`` into the benchmark's own record."""
    return Spec(tuple(market.firms), tuple(market.workers), dict(market.quota),
                dict(market.firm_pref), dict(market.worker_pref))


# ---------------------------------------------------------------- block markets

def block_market(sizes: list[int], rng: random.Random) -> Spec:
    """Independent latin-square cycles of the given sizes.

    The seed shuffles which declared names play which cycle positions, so the
    blocks interleave in declaration order.
    """
    n = sum(sizes)
    fnames = [f"f{i}" for i in range(1, n + 1)]
    wnames = [f"w{i}" for i in range(1, n + 1)]
    fperm, wperm = rng.sample(fnames, n), rng.sample(wnames, n)
    fpref, wpref, blocks = {}, {}, []
    start = 0
    for m in sizes:
        fs = tuple(fperm[start:start + m])
        ws = tuple(wperm[start:start + m])
        for i in range(m):
            fpref[fs[i]] = tuple(ws[(i + k) % m] for k in range(m))
            wpref[ws[i]] = tuple(fs[(i + 1 + k) % m] for k in range(m))
        blocks.append((fs, ws))
        start += m
    return Spec(tuple(fnames), tuple(wnames), {f: 1 for f in fnames},
                fpref, wpref, tuple(blocks))


def shift_matching(spec: Spec, shifts: list[int]) -> dict[str, list[str]]:
    """The stable matching with the given per-block shifts, as firm -> workers."""
    out: dict[str, list[str]] = {}
    for (fs, ws), s in zip(spec.blocks, shifts):
        for i, f in enumerate(fs):
            out[f] = [ws[(i + s) % len(fs)]]
    return out


def _add_shift(x: Point, fs, ws, s: int, weight: Fraction) -> None:
    m = len(fs)
    for i, f in enumerate(fs):
        key = (f, ws[(i + s) % m])
        x[key] = x.get(key, Fraction(0)) + weight


def lambda_point(spec: Spec, rng: random.Random):
    """``inc(base) + sum_b lambda_b * Delta_b`` with distinct lambdas in (0, 1).

    Half of the blocks (rounded up) rotate, each from a random shift that has
    a successor; the others sit at a random shift.  Returns the point and its
    known ordered decomposition: a list of (shift vector, weight), firm-best
    first.  Every rotated block costs exactly one peel, so the decomposition
    has one term more than there are rotated blocks.
    """
    movable = rng.sample(range(len(spec.blocks)), (len(spec.blocks) + 1) // 2)
    base = [rng.randrange(len(fs) - (b in movable)) for b, (fs, _) in enumerate(spec.blocks)]
    denom = rng.randint(len(movable) + 2, 4 * len(movable) + 8)
    lams = {b: Fraction(a, denom)
            for b, a in zip(movable, rng.sample(range(1, denom), len(movable)))}
    x: Point = {}
    for b, (fs, ws) in enumerate(spec.blocks):
        lam = lams.get(b, Fraction(0))
        _add_shift(x, fs, ws, base[b], 1 - lam)
        if lam:
            _add_shift(x, fs, ws, base[b] + 1, lam)
    x = {k: v for k, v in x.items() if v}
    order = sorted(lams, key=lambda b: -lams[b])
    terms = [(list(base), 1 - lams[order[0]])]
    for j, b in enumerate(order):
        shifts = list(terms[-1][0])
        shifts[b] += 1
        nxt = lams[order[j + 1]] if j + 1 < len(order) else Fraction(0)
        terms.append((shifts, lams[b] - nxt))
    return x, terms


def cross_chain_point(spec: Spec, rng: random.Random) -> Point:
    """Shifts s and s+2 of one block of size >= 3 mixed; integral elsewhere.

    No connected set holds both shifts, so the point is stable-feasible but
    not strongly stable.  The mixing weight is drawn, so the two factors of
    the failing pair differ on most points.
    """
    candidates = [b for b, (fs, _) in enumerate(spec.blocks) if len(fs) >= 3]
    target = rng.choice(candidates)
    denom = rng.randint(3, 9)
    t = Fraction(rng.randint(1, denom - 1), denom)
    x: Point = {}
    for b, (fs, ws) in enumerate(spec.blocks):
        if b == target:
            s = rng.randrange(len(fs) - 2)
            _add_shift(x, fs, ws, s, t)
            _add_shift(x, fs, ws, s + 2, 1 - t)
        else:
            _add_shift(x, fs, ws, rng.randrange(len(fs)), Fraction(1))
    return x


# ---------------------------------------------------------------- dense markets

def deferred_acceptance(spec: Spec, firms_propose: bool) -> dict[str, list[str]]:
    """Firm- or worker-optimal stable matching, as firm -> sorted workers."""
    held: dict[str, list[str]] = {f: [] for f in spec.firms}
    if firms_propose:
        employer: dict[str, str] = {}
        nxt = {f: 0 for f in spec.firms}
        queue = list(spec.firms)
        while queue:
            f = queue.pop()
            while len(held[f]) < spec.quota[f] and nxt[f] < len(spec.fpref[f]):
                w = spec.fpref[f][nxt[f]]
                nxt[f] += 1
                g = employer.get(w)
                if g is not None and spec._wrank[w][g] < spec._wrank[w][f]:
                    continue
                if g is not None:
                    held[g].remove(w)
                    queue.append(g)
                employer[w] = f
                held[f].append(w)
    else:
        nxt = {w: 0 for w in spec.workers}
        queue = list(spec.workers)
        while queue:
            w = queue.pop()
            while nxt[w] < len(spec.wpref[w]):
                f = spec.wpref[w][nxt[w]]
                nxt[w] += 1
                held[f].append(w)
                if len(held[f]) <= spec.quota[f]:
                    break
                worst = max(held[f], key=spec._frank[f].get)
                held[f].remove(worst)
                if worst != w:
                    queue.append(worst)
                    break
    windex = {w: j for j, w in enumerate(spec.workers)}
    return {f: sorted(ws, key=windex.get) for f, ws in held.items()}


def incidence(matching: dict[str, list[str]]) -> Point:
    return {(f, w): Fraction(1) for f, ws in matching.items() for w in ws}


def pick_dense(rng: random.Random, nf: int, nw: int, qmax: int,
               multi: bool, gen_random_market) -> tuple[Spec, dict, dict]:
    """A complete-list random market with a unique (or several) stable matchings.

    Returns the market with its firm- and worker-optimal matchings.
    """
    while True:
        spec = spec_from_market(
            gen_random_market(rng.randrange(10**9), nf, nw, qmax, density=1.0))
        top = deferred_acceptance(spec, firms_propose=True)
        bottom = deferred_acceptance(spec, firms_propose=False)
        if (top != bottom) == multi:
            return spec, top, bottom


def perturb(spec: Spec, matching: dict[str, list[str]], rng: random.Random):
    """Push one row past its quota or one column past 1; nothing else breaks.

    Returns the point and the (label, lhs, rhs) of the single violated
    feasibility constraint.
    """
    half = Fraction(1, 2)
    employer = {w: f for f, ws in matching.items() for w in ws}
    x = incidence(matching)
    full = [f for f in spec.firms if len(matching[f]) == spec.quota[f]
            and len(matching[f]) < len(spec.workers)]
    if full and (not employer or rng.random() < 0.5):
        f = rng.choice(full)
        w = rng.choice([w for w in spec.workers if w not in matching[f]])
        x[(f, w)] = half
        if w in employer:
            x[(employer[w], w)] = half
        q = spec.quota[f]
        return x, (f"quota:{f}", q + half, Fraction(q))
    w = rng.choice(sorted(employer, key=spec.workers.index))
    f = rng.choice([f for f in spec.firms if f != employer[w]])
    x[(f, w)] = half
    if len(matching[f]) == spec.quota[f]:
        x[(f, rng.choice(matching[f]))] = half
    return x, (f"unit:{w}", 1 + half, Fraction(1))


# ---------------------------------------------------------------- exact checks

def condition(spec: Spec, x: Point) -> list[tuple[str, str, Fraction, Fraction]]:
    """Both strong stability factors at every acceptable pair, in pair order."""
    out = []
    for f, w in spec.pairs():
        fr = spec._frank[f][w]
        wr = spec._wrank[w][f]
        firm_mass = sum((x.get((f, v), 0) for v in spec.fpref[f][:fr + 1]), Fraction(0))
        worker_mass = sum((x.get((g, w), 0) for g in spec.wpref[w][:wr + 1]), Fraction(0))
        out.append((f, w, spec.quota[f] - firm_mass, 1 - worker_mass))
    return out


def first_failure(spec: Spec, x: Point):
    """The first pair whose factor product is nonzero, or None."""
    return next(((f, w, a, b) for f, w, a, b in condition(spec, x) if a * b),
                None)

"""The four workloads: seeded rounds of CLI commands with known answers.

A workload is a list of rounds.  Every round has the same composition
(sizes and input kinds) and fresh inputs drawn from the seed, so a run that
completes whole rounds measures the same mix on every seed.  Inputs are
written under a fixed relative directory, because reports embed input paths
and must stay byte-identical.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import builders as b
import checks

ROUNDS = 8          # distinct rounds prepared; a run cycles through them
WORKDIR = ".bench_work"


@dataclass(frozen=True)
class Command:
    cid: str                      # stable id, the key of the report digest
    argv: tuple[str, ...]         # arguments of stablefrac.cli.main
    check: Callable[[int, dict], str | None]
    size: str | None = None       # size class of the size breakdown


class _Files:
    def __init__(self, workload: str):
        self.root = os.path.join(WORKDIR, workload)
        os.makedirs(self.root, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


# check-dense: (firms, workers, qmax, multi-stable) per market of a round.
# Small markets dominate.  The mix puts the median inside the 42-pair class
# and the 90th percentile inside the 99-pair class, where command times vary
# least between markets, so both stay put from seed to seed.  With qmax 2 a
# quarter or more of the draws at every shape are multi-stable, so picking
# takes few draws on any seed.
DENSE_SLOTS = [
    (5, 6, 2, False), (5, 6, 2, True),
    (6, 7, 2, False), (6, 7, 2, True), (6, 7, 2, True), (6, 7, 2, True),
    (7, 8, 2, True), (7, 8, 2, False),
    (8, 9, 2, True),
    (9, 11, 2, True), (9, 11, 2, True), (9, 11, 2, False),
    (10, 13, 2, True),
]


def check_dense(rng: random.Random, files: _Files, gen_random_market) -> list[list[Command]]:
    rounds = []
    for r in range(ROUNDS):
        cmds = []
        for k, (nf, nw, qmax, multi) in enumerate(DENSE_SLOTS):
            spec, top, bottom = b.pick_dense(rng, nf, nw, qmax, multi, gen_random_market)
            tag = f"r{r}-m{k}"
            market = files.write(f"{tag}.market", spec.text())
            size = f"pairs-{nf * nw}"
            high = b.incidence(top)
            points = [("top", high, checks.feasible_point(spec, high, True))]
            if multi:
                low = b.incidence(bottom)
                mid = {key: Fraction(high.get(key, 0) + low.get(key, 0), 2)
                       for key in high.keys() | low.keys()}
                points.append(("bottom", low, checks.feasible_point(spec, low, True)))
                points.append(("mid", mid, checks.feasible_point(spec, mid, False)))
            bad, (label, lhs, rhs) = b.perturb(spec, top, rng)
            points.append(("bad", bad, checks.infeasible_point(label, lhs, rhs)))
            for name, x, check in points:
                path = files.write(f"{tag}-{name}.frac", spec.point_text(x))
                # perturbed points stop at feasibility, so they stay out of
                # the size breakdown of the vertex test
                cmds.append(Command(f"{tag}-{name}", ("check", market, path, "--json"),
                                    check, None if name == "bad" else size))
        rounds.append(cmds)
    return rounds


# decompose-blocks: firm counts of the block markets of a round, spread
# evenly so that the median and the 90th percentile fall where neighbouring
# sizes overlap.  Every market gets a lambda-point; every other market also
# gets a cross-chain point.
DECOMPOSE_FIRMS = [16, 18, 20, 22, 24, 26, 28, 30, 33, 36, 40]


def _cycle_sizes(firms: int) -> list[int]:
    """A fixed mix of 2-, 3- and 4-cycles over exactly ``firms`` firms."""
    fours = threes = firms // 9
    if (firms - 7 * fours) % 2:
        threes += 1
    return [4] * fours + [3] * threes + [2] * ((firms - 4 * fours - 3 * threes) // 2)


def decompose_blocks(rng: random.Random, files: _Files, _gen) -> list[list[Command]]:
    rounds = []
    for r in range(ROUNDS):
        cmds = []
        for k, firms in enumerate(DECOMPOSE_FIRMS):
            sizes = _cycle_sizes(firms)
            spec = b.block_market(rng.sample(sizes, len(sizes)), rng)
            tag = f"r{r}-m{k}"
            market = files.write(f"{tag}.market", spec.text())
            x, terms = b.lambda_point(spec, rng)
            points = [("lam", x, checks.decomposition(spec, x, terms))]
            if k % 2 == 0:
                x = b.cross_chain_point(spec, rng)
                points.append(("cross", x, checks.refusal(spec, x)))
            for name, x, check in points:
                path = files.write(f"{tag}-{name}.frac", spec.point_text(x))
                cmds.append(Command(f"{tag}-{name}", ("decompose", market, path, "--json"),
                                    check))
        rounds.append(cmds)
    return rounds


# enumerate-blocks: cycle sizes per command of a round, from 64 to 1728
# stable matchings; most commands are small.  The median falls inside the
# 144 class and the 90th percentile inside the 576 class.
ENUMERATE_SLOTS = (
    [[2, 2, 2, 2, 4]] * 6            # 64
    + [[2, 2, 3, 3, 4]] * 4          # 144
    + [[2, 3, 3, 4, 4]] * 4          # 288
    + [[3, 3, 4, 4, 4]] * 3          # 576
    + [[3, 3, 3, 4, 4, 4]]           # 1728
)


def enumerate_blocks(rng: random.Random, files: _Files, _gen) -> list[list[Command]]:
    rounds = []
    for r in range(ROUNDS):
        cmds = []
        for k, sizes in enumerate(ENUMERATE_SLOTS):
            spec = b.block_market(rng.sample(sizes, len(sizes)), rng)
            tag = f"r{r}-m{k}"
            market = files.write(f"{tag}.market", spec.text())
            cmds.append(Command(tag, ("stable-all", market, "--method", "rotations", "--json"),
                                checks.stable_set(spec), f"matchings-{spec.stable_count()}"))
        rounds.append(cmds)
    return rounds


# verify-fleet: the dense half of the test fleet, regenerated by the same
# gen_random_market call, plus small block markets with 12 to 18 stable
# matchings, whose stable count the check also confirms.  Blocks with 27
# stable matchings take over a second per command and are left out.
FLEET_SPECS = [
    (912, 4, 4, 1), (940, 4, 6, 2), (16, 4, 4, 1), (20, 4, 6, 2),
    (56, 4, 4, 1), (77, 3, 6, 2), (99, 4, 5, 2), (136, 4, 4, 1),
    (233, 4, 5, 1), (7, 3, 5, 2), (12, 4, 6, 2), (28, 4, 6, 2),
    (40, 4, 4, 1), (41, 4, 5, 1), (42, 4, 6, 1), (94, 4, 6, 3),
    (132, 4, 6, 2), (1, 4, 4, 1),
]
VERIFY_BLOCKS = [[2, 2, 3], [4, 3], [2, 2, 4], [2, 2, 2, 2], [2, 3, 3]]


def verify_fleet(rng: random.Random, files: _Files, gen_random_market) -> list[list[Command]]:
    fleet = []
    for seed, nf, nw, q in FLEET_SPECS:
        spec = b.spec_from_market(gen_random_market(seed, nf, nw, q, density=1.0))
        fleet.append(files.write(f"fleet-{seed}-{nf}x{nw}q{q}.market", spec.text()))
    rounds = []
    for r in range(ROUNDS):
        targets = [(f"r{r}-f{k}", path, None) for k, path in enumerate(fleet)]
        for k, sizes in enumerate(VERIFY_BLOCKS):
            spec = b.block_market(rng.sample(sizes, len(sizes)), rng)
            path = files.write(f"r{r}-b{k}.market", spec.text())
            targets.append((f"r{r}-b{k}", path, spec.stable_count()))
        cmds = [Command(cid, ("verify", path, "--samples", str(rng.randint(1, 4)),
                              "--seed", str(rng.randrange(1000)), "--json"),
                        checks.harness(count))
                for cid, path, count in targets]
        rounds.append(cmds)
    return rounds


WORKLOADS = {
    "check-dense": check_dense,
    "decompose-blocks": decompose_blocks,
    "enumerate-blocks": enumerate_blocks,
    "verify-fleet": verify_fleet,
}


def build(workload: str, seed: int, gen_random_market) -> list[list[Command]]:
    """Draw a workload's inputs from the seed and write them to disk."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, _Files(workload), gen_random_market)

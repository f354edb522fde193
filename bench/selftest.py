"""Self-test of the benchmark, in seconds.  Run from the repository root:

    python3 bench/selftest.py

It checks the builders' known answers against the library's brute-force
oracle on tiny markets, the benchmark's own arithmetic against the way each
input was built, one command of every kind end to end, that the tracer
restores every binding it patched, and that the metric names match
``BENCHMARK.json``.  It exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import random
import sys

import builders as b
import run
import workloads
from speed import Speed
from tracer import NAMES, Tracer

library = run.load_library()
speed = Speed()


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")


def library_matchings(spec: b.Spec) -> set:
    market = library.parse_market(spec.text())
    return {tuple((f, ws) for f, ws in mu.assignment)
            for mu in library.enumerate_stable_bruteforce(market)}


def shift_set(spec: b.Spec) -> set:
    out = set()
    for index in range(spec.stable_count()):
        shifts = []
        for fs, _ in spec.blocks:
            index, s = divmod(index, len(fs))
            shifts.append(s)
        mu = b.shift_matching(spec, shifts)
        out.add(tuple((f, tuple(mu[f])) for f in spec.firms))
    return out


def feasibility_violations(spec: b.Spec, x: b.Point) -> list[str]:
    rows = [f"quota:{f}" for f in spec.firms
            if sum(x.get((f, w), 0) for w in spec.workers) > spec.quota[f]]
    cols = [f"unit:{w}" for w in spec.workers
            if sum(x.get((f, w), 0) for f in spec.firms) > 1]
    return rows + cols


def check_builders(rng: random.Random) -> None:
    for sizes, count in (([2, 3], 6), ([3, 3], 9), ([2, 2, 2], 8), ([4], 4), ([2, 4], 8)):
        spec = b.block_market(sizes, rng)
        expect(spec.stable_count() == count, f"{sizes} counts {spec.stable_count()}")
        expect(library_matchings(spec) == shift_set(spec),
               f"{sizes}: stable matchings are not the per-block shifts")
        x, terms = b.lambda_point(spec, rng)
        expect(b.first_failure(spec, x) is None, f"{sizes}: lambda-point fails the condition")
        expect(len(terms) >= 2 and sum(w for _, w in terms) == 1
               and all(w > 0 for _, w in terms), f"{sizes}: lambda terms")
        rebuilt: dict = {}
        for shifts, w in terms:
            for key in b.incidence(b.shift_matching(spec, shifts)):
                rebuilt[key] = rebuilt.get(key, 0) + w
        expect({k: v for k, v in rebuilt.items() if v} == x,
               f"{sizes}: lambda terms do not rebuild the point")
        if max(sizes) >= 3:
            cross = b.cross_chain_point(spec, rng)
            expect(b.first_failure(spec, cross) is not None,
                   f"{sizes}: cross-chain point passes the condition")
            expect(not feasibility_violations(spec, cross), f"{sizes}: cross-chain infeasible")

    for nf, nw, q in ((3, 4, 2), (5, 6, 2), (4, 6, 3)):
        for multi in (False, True):
            spec, top, bottom = b.pick_dense(rng, nf, nw, q, multi, library.gen_random_market)
            market = library.parse_market(spec.text())
            for side, mine in ((library.Side.FIRMS, top), (library.Side.WORKERS, bottom)):
                theirs = library.deferred_acceptance(market, side).as_dict()
                expect({f: list(ws) for f, ws in theirs.items()} == mine,
                       f"own deferred acceptance differs on {nf}x{nw} ({side})")
            expect(b.first_failure(spec, b.incidence(top)) is None,
                   "a stable matching fails the condition")
            for _ in range(4):
                x, (label, lhs, rhs) = b.perturb(spec, top, rng)
                expect(feasibility_violations(spec, x) == [label],
                       f"perturbation breaks {feasibility_violations(spec, x)}, not {label}")
                expect(all(v >= 0 for v in x.values()), "perturbation went negative")
                expect(lhs > rhs, "perturbation does not exceed its bound")


def check_commands() -> None:
    """One command of every kind, verdict and digest checked as in a run."""
    kinds = {"check-dense": ("r0-m0-top", "r0-m1-bottom", "r0-m1-mid", "r0-m0-bad"),
             "decompose-blocks": ("r0-m0-lam", "r0-m0-cross"),
             "enumerate-blocks": ("r0-m0",),
             "verify-fleet": ("r0-f0", "r0-b0")}
    with open(run.DIGESTS, encoding="utf-8") as handle:
        digests = json.load(handle)
    for workload, cids in kinds.items():
        rounds = workloads.build(workload, run.DIGEST_SEED, library.gen_random_market)
        commands = [c for c in rounds[0] if c.cid in cids]
        expect(len(commands) == len(cids), f"{workload}: missing commands")
        client = run.Client(library.cli, digests[workload], speed)
        client.run(commands)
        expect(not client.failures, f"{workload}: {client.failures}")


def check_tracer() -> None:
    modules = [m for k, m in sys.modules.items() if k.startswith("stablefrac")]
    before = [dict(vars(m)) for m in modules]
    classes = (library.linalg.Rref, library.model.FractionalMatching)
    methods = [dict(vars(c)) for c in classes]
    rounds = workloads.build("check-dense", run.DIGEST_SEED, library.gen_random_market)
    commands = [c for c in rounds[0] if c.cid == "r0-m0-top"]
    tracer = Tracer()
    client = run.Client(library.cli, {}, speed)
    client.tracer = tracer
    tracer.install()
    try:
        samples = client.run(commands)
    finally:
        tracer.uninstall()
    expect(all(dict(vars(m)) == d for m, d in zip(modules, before)),
           "tracer left a module binding patched")
    expect(all(dict(vars(c)) == d for c, d in zip(classes, methods)),
           "tracer left a method patched")
    expect({s[4] for s in tracer.spans} == {"r0-m0-top"}, "spans lack the command id")
    names = {NAMES[s[0]] for s in tracer.spans}
    expect({"cli.main", "polytope.is_extreme_point", "linalg.Rref.add",
            "linalg.rank", "model.parse_market"} <= names, f"spans seen: {names}")
    for name_id, start, end, parent, _ in tracer.spans:
        if NAMES[name_id] == "linalg.Rref.add":
            expect(NAMES[tracer.spans[parent][0]] == "linalg.rank", "Rref.add outside rank")
        expect(parent < 0 or tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2],
               "a child span leaves its parent")

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    layer = run.per_layer(tracer, samples, samples, 0)
    expect([m["name"] for m in declared["per_layer"]] == list(layer),
           "per_layer names differ from what --trace 1 reports")
    expect(all(m["unit"] == layer[m["name"]][1] for m in declared["per_layer"]),
           "per_layer units differ")
    e2e = run.end_to_end(samples * 2, 0, 1.0)
    expect([m["name"] for m in declared["end_to_end"]] == list(e2e),
           "end_to_end names differ from what --trace 0 reports")
    expect(all(m["unit"] == e2e[m["name"]][1] for m in declared["end_to_end"]),
           "end_to_end units differ")
    expect([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
           "workload names differ")


def main() -> int:
    check_builders(random.Random("selftest"))
    check_commands()
    check_tracer()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference oracles that the library's faster code is compared against.

Not a test module: ``test_*.py`` files and ``sweep_oracles.py`` import it.
"""

import itertools

import stablefrac as sf


def reference_enumerate_stable(market):
    """Every worker -> (acceptable firm | unmatched) map, each fully checked.

    The exhaustive scan ``enumerate_stable_bruteforce`` did before it pruned:
    filter quota feasibility, then look for a vacancy or swap block.
    """
    choices = [(None,) + market.acceptable_to_worker(w) for w in market.workers]
    quota = market.quota
    frank = {f: market._frank[f] for f in market.firms}
    wrank = {w: market._wrank[w] for w in market.workers}
    pairs = market.pairs()
    workers = market.workers

    stable = set()
    for combo in itertools.product(*choices):
        staff = {}
        feasible = True
        for w, f in zip(workers, combo):
            if f is None:
                continue
            lst = staff.setdefault(f, [])
            lst.append(w)
            if len(lst) > quota[f]:
                feasible = False
                break
        if not feasible:
            continue
        employer = {w: f for w, f in zip(workers, combo) if f is not None}
        worst = {f: max(frank[f][w] for w in ws) for f, ws in staff.items()}
        blocked = False
        for f, w in pairs:
            g = employer.get(w)
            if g == f:
                continue
            if g is not None and wrank[w][f] >= wrank[w][g]:
                continue
            ws = staff.get(f, ())
            if len(ws) < quota[f] or frank[f][w] < worst[f]:
                blocked = True
                break
        if not blocked:
            stable.add(sf.Matching.build(market, staff))
    return stable

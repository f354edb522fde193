"""Verdict checks behind ``ok_frac``.

Each check compares one JSON report and exit code with the answer known
from how the input was built, using only the benchmark's own arithmetic in
``builders``.  A check returns None when the report is right and a short
reason otherwise.  Checks compute their expectations when called, so the
work stays out of set-up time as well as out of the timed commands.
"""

from __future__ import annotations

from fractions import Fraction

from builders import (Point, Spec, condition, first_failure, incidence,
                      shift_matching)


def _shifts(spec: Spec, payload: dict) -> tuple[int, ...] | None:
    """The per-block shift vector of a reported matching, or None."""
    if set(payload) != set(spec.firms):
        return None
    out = []
    for fs, ws in spec.blocks:
        m = len(fs)
        first = payload[fs[0]]
        if len(first) != 1 or first[0] not in ws:
            return None
        s = ws.index(first[0])
        if any(payload[f] != [ws[(i + s) % m]] for i, f in enumerate(fs)):
            return None
        out.append(s)
    return tuple(out)


def feasible_point(spec: Spec, x: Point, is_vertex: bool):
    """``check`` on a stable-feasible point: factors, verdict and vertex status."""
    def check(code: int, report: dict) -> str | None:
        own = condition(spec, x)
        holds = all(a * b == 0 for _, _, a, b in own)
        n = len(own)
        result = report["result"]
        if code != (0 if holds else 1):
            return f"exit {code}, expected {0 if holds else 1}"
        if result["feasible"] is not True or result["violations"]:
            return "feasible point reported infeasible"
        if result["condition"]["overall"] is not holds:
            return "condition verdict differs"
        pairs = [(p["firm"], p["worker"], p["firm_factor"], p["worker_factor"],
                  p["product"]) for p in result["condition"]["pairs"]]
        if pairs != [(f, w, str(a), str(b), str(a * b)) for f, w, a, b in own]:
            return "condition factors differ"
        vertex = result["vertex"]
        if vertex["dimension"] != n or vertex["is_vertex"] is not is_vertex:
            return f"vertex status {vertex}, expected is_vertex={is_vertex}"
        if is_vertex != (vertex["rank"] == n):
            return f"rank {vertex['rank']} of {n} contradicts is_vertex"
        return None
    return check


def infeasible_point(label: str, lhs: Fraction, rhs: Fraction):
    """``check`` on a perturbed point: exit 1 naming the broken constraint."""
    expected = {"constraint": label, "lhs": str(lhs), "rhs": str(rhs)}

    def check(code: int, report: dict) -> str | None:
        result = report["result"]
        if code != 1 or result["feasible"] is not False:
            return f"exit {code} on an infeasible point"
        if result["violations"][:1] != [expected]:
            return f"first violation {result['violations'][:1]}, expected {expected}"
        if "condition" in result or "vertex" in result:
            return "infeasible point was analysed further"
        return None
    return check


def decomposition(spec: Spec, x: Point, terms: list[tuple[list[int], Fraction]]):
    """``decompose`` on a lambda-point: the known ordered shift terms."""
    expected = [(tuple(s), w) for s, w in terms]

    def check(code: int, report: dict) -> str | None:
        if code != 0:
            return f"exit {code} on a strongly stable point"
        got = [(_shifts(spec, t["matching"]), Fraction(t["weight"]))
               for t in report["result"]["terms"]]
        if any(s is None for s, _ in got):
            return "a term is not a per-block shift"
        if any(w <= 0 for _, w in got) or sum(w for _, w in got) != 1:
            return "weights are not positive or do not sum to 1"
        rebuilt: Point = {}
        for shifts, w in got:
            for key in incidence(shift_matching(spec, shifts)):
                rebuilt[key] = rebuilt.get(key, 0) + w
        if {k: v for k, v in rebuilt.items() if v} != x:
            return "terms do not reconstruct the point"
        if got != expected:
            return f"{len(got)} terms, expected the {len(expected)} known ones"
        return None
    return check


def refusal(spec: Spec, x: Point):
    """``decompose`` on a cross-chain point: refused at the first failing pair."""
    def check(code: int, report: dict) -> str | None:
        f, w, a, b = first_failure(spec, x)
        expected = {"kind": "not-strongly-stable", "firm": f, "worker": w,
                    "firm_factor": str(a), "worker_factor": str(b),
                    "product": str(a * b)}
        if code != 1:
            return f"exit {code} on a point that is not strongly stable"
        if report["result"].get("refusal") != expected:
            return f"refusal {report['result'].get('refusal')}, expected {expected}"
        return None
    return check


def stable_set(spec: Spec):
    """``stable-all`` on a block market: exactly the per-block shifts."""
    count = spec.stable_count()

    def check(code: int, report: dict) -> str | None:
        result = report["result"]
        if code != 0 or result["count"] != count:
            return f"exit {code}, count {result['count']}, expected {count}"
        shifts = {_shifts(spec, mu) for mu in result["matchings"]}
        if None in shifts or len(shifts) != count:
            return "listed matchings are not the distinct per-block shifts"
        return None
    return check


def harness(stable_count: int | None):
    """``verify``: ok, no counterexamples, and the known stable count if any."""
    def check(code: int, report: dict) -> str | None:
        result = report["result"]
        if code != 0 or result["ok"] is not True or result["counterexamples"]:
            return f"exit {code}, counterexamples {result['counterexamples'][:2]}"
        if stable_count is not None and result["stable_count"] != stable_count:
            return f"stable_count {result['stable_count']}, expected {stable_count}"
        return None
    return check

"""Command-line interface for batch analysis and report emission.

Exit codes are uniform across commands: 0 when the command succeeded and the
checked property holds, 1 when the property fails (the report carries a
witness), 2 for usage, file, or parse errors.  With ``--json`` every command
emits the report envelope described by ``report_schema.json``; reports are
byte-identical across runs for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import warnings
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .hulls import (
    HullCertificate,
    certify_strongly_stable,
    gen_random_market,
    verify_characterization,
)
from .model import (
    FractionalMatching,
    InfeasibleError,
    Market,
    MarketError,
    Matching,
    matching_from_matrix,
    incidence_vector,
    parse_fractional,
    parse_market,
    serialize_market,
)
from .polytope import _tight_rank, check_stable_feasibility, constraint_label
from .rotations import (
    enumerate_stable_via_rotations,
    find_cycles,
    reduce_profile,
)
from .stability import Side, deferred_acceptance, enumerate_stable_bruteforce
from .strong_stability import _pair_conditions

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_USAGE = 2


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        self.code = code
        super().__init__(message)


def _rat(v: Fraction) -> str:
    return str(v)


def _matrix(x: FractionalMatching) -> list[list[str]]:
    return [[_rat(v) for v in row] for row in x.entries]


def _matching_payload(mu: Matching) -> dict[str, tuple[str, ...]]:
    return dict(mu.assignment)


def _read_file(path: str) -> tuple[str, str]:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}", EXIT_USAGE) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path}: not valid UTF-8 ({exc})", EXIT_USAGE) from exc
    return text, hashlib.sha256(data).hexdigest()


def _load_market(path: str, diagnostics: list[str]) -> tuple[Market, dict]:
    text, digest = _read_file(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            market = parse_market(text)
        except MarketError as exc:
            raise _CliError(f"{path}: {exc}", EXIT_USAGE) from exc
    diagnostics.extend(str(w.message) for w in caught)
    return market, {"path": path, "sha256": digest}


def _load_fractional(market: Market, path: str) -> tuple[FractionalMatching, dict]:
    text, digest = _read_file(path)
    try:
        x = parse_fractional(market, text)
    except MarketError as exc:
        raise _CliError(f"{path}: {exc}", EXIT_USAGE) from exc
    return x, {"path": path, "sha256": digest}


def _dumps(report) -> str:
    """Exactly ``json.dumps(report, indent=2, sort_keys=True)``, faster.

    Reports are built from dicts with string keys, lists, tuples, strings,
    ints, booleans and None; any other type raises ``TypeError``.  The
    fragment of a list or tuple of strings depends only on its values and
    its depth, and matching rows repeat across the thousands of matchings
    of a large report, so each such fragment is encoded once per call.
    """
    fragments: dict[tuple, str] = {}

    def block(opening: str, parts: Iterable[str], closing: str,
              depth: int) -> str:
        inner = "\n" + "  " * (depth + 1)
        return (opening + inner + ("," + inner).join(parts)
                + "\n" + "  " * depth + closing)

    def encode(value, depth: int) -> str:
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            for item in value:
                if not isinstance(item, str):
                    return block("[", [encode(entry, depth + 1)
                                       for entry in value], "]", depth)
            key = (tuple(value), depth)
            fragment = fragments.get(key)
            if fragment is None:
                fragment = fragments[key] = block(
                    "[", map(encode_basestring_ascii, value), "]", depth)
            return fragment
        if isinstance(value, dict):
            if not value:
                return "{}"
            parts = []
            for key, item in sorted(value.items()):
                if not isinstance(key, str):
                    raise TypeError(
                        f"report keys must be str, not {type(key).__name__}")
                parts.append(encode_basestring_ascii(key) + ": "
                             + encode(item, depth + 1))
            return block("{", parts, "}", depth)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable")

    return encode(report, 0)


def _emit(args, report: dict, human: Iterable[str]) -> None:
    """Print ``report`` as JSON under --json, else the human-readable lines.

    ``human`` is iterated only without --json, so it may be a generator.
    """
    if args.json:
        print(_dumps(report))
    else:
        for line in human:
            print(line)
        for note in report["diagnostics"]:
            print(f"note: {note}")


def _matching_line(mu: Matching) -> str:
    parts = []
    for f, ws in mu.assignment:
        parts.append(f"{f}: {' '.join(ws) if ws else '-'}")
    return "{" + " | ".join(parts) + "}"


def _cmd_solve(args) -> int:
    diagnostics: list[str] = []
    market, market_input = _load_market(args.market, diagnostics)
    side = Side.FIRMS if args.side == "firms" else Side.WORKERS
    mu = deferred_acceptance(market, side)
    x = incidence_vector(market, mu)
    report = {
        "command": "solve",
        "inputs": {"market": market_input},
        "result": {
            "side": args.side,
            "matching": _matching_payload(mu),
            "incidence": _matrix(x),
        },
        "diagnostics": diagnostics,
    }
    human = [f"side: {args.side}"]
    human += [f"  {f}: {' '.join(ws) if ws else '-'}" for f, ws in mu.assignment]
    human.append("incidence:")
    human += ["  " + " ".join(row) for row in _matrix(x)]
    _emit(args, report, human)
    return EXIT_OK


def _cmd_check(args) -> int:
    diagnostics: list[str] = []
    market, market_input = _load_market(args.market, diagnostics)
    x, frac_input = _load_fractional(market, args.fraction)
    inputs = {"market": market_input, "fraction": frac_input}
    feas = check_stable_feasibility(market, x)
    result: dict = {
        "feasible": feas.feasible,
        "violations": [
            {"constraint": constraint_label(cid), "lhs": _rat(lhs), "rhs": _rat(rhs)}
            for cid, lhs, rhs in feas.violations],
        "tight": [constraint_label(cid) for cid in feas.tight],
    }
    human = []
    if not feas.feasible:
        cid, lhs, rhs = feas.first_violation()
        human.append("feasible: no")
        human.append(
            f"first violated constraint: {constraint_label(cid)} ({lhs} vs {rhs})")
        code = EXIT_PROPERTY_FAILS
    else:
        condition = _pair_conditions(market, feas._sums)
        rank_value = _tight_rank(market, feas.tight)
        vertex = rank_value == len(market.pairs())
        result["condition"] = {
            "overall": condition.overall,
            "pairs": [
                {"firm": c.firm, "worker": c.worker,
                 "firm_factor": _rat(c.firm_factor),
                 "worker_factor": _rat(c.worker_factor),
                 "product": _rat(c.product)}
                for c in condition.pairs],
        }
        result["vertex"] = {
            "is_vertex": vertex,
            "rank": rank_value,
            "dimension": len(market.pairs()),
        }
        human.append("feasible: yes")
        if condition.overall:
            human.append("strongly stable: yes")
            code = EXIT_OK
        else:
            fail = condition.first_failure()
            human.append("strongly stable: no")
            human.append(
                f"witness pair ({fail.firm},{fail.worker}): "
                f"firm factor {fail.firm_factor}, worker factor "
                f"{fail.worker_factor}, product {fail.product}")
            code = EXIT_PROPERTY_FAILS
        human.append(
            f"vertex: {'yes' if vertex else 'no'} "
            f"(rank {rank_value} of {len(market.pairs())})")
    report = {"command": "check", "inputs": inputs,
              "result": result, "diagnostics": diagnostics}
    _emit(args, report, human)
    return code


def _cmd_decompose(args) -> int:
    diagnostics: list[str] = []
    market, market_input = _load_market(args.market, diagnostics)
    x, frac_input = _load_fractional(market, args.fraction)
    inputs = {"market": market_input, "fraction": frac_input}
    try:
        certificate = certify_strongly_stable(market, x)
    except InfeasibleError as exc:
        label = constraint_label(exc.constraint)
        report = {
            "command": "decompose", "inputs": inputs,
            "result": {"refusal": {
                "kind": "infeasible",
                "constraint": label,
                "lhs": _rat(exc.lhs), "rhs": _rat(exc.rhs)}},
            "diagnostics": diagnostics,
        }
        _emit(args, report, [f"infeasible: {label} ({exc.lhs} vs {exc.rhs})"])
        return EXIT_PROPERTY_FAILS
    if not isinstance(certificate, HullCertificate):
        report = {
            "command": "decompose", "inputs": inputs,
            "result": {"refusal": {
                "kind": "not-strongly-stable",
                "firm": certificate.firm, "worker": certificate.worker,
                "firm_factor": _rat(certificate.firm_factor),
                "worker_factor": _rat(certificate.worker_factor),
                "product": _rat(certificate.product)}},
            "diagnostics": diagnostics,
        }
        _emit(args, report, [
            "not strongly stable",
            f"witness pair ({certificate.firm},{certificate.worker}): "
            f"product {certificate.product}"])
        return EXIT_PROPERTY_FAILS
    terms = [(mu, weight) for mu, (_, weight) in
             zip(certificate._matchings, certificate.terms)]
    result = {
        "terms": [
            {"matching": _matching_payload(mu), "weight": _rat(weight)}
            for mu, weight in terms],
        "certificate": {
            "base": _matching_payload(certificate.base),
            "rotations": [
                {"firms": list(rot.firms), "workers": list(rot.workers)}
                for rot in certificate.rotations],
            "terms": [
                {"rotations": sorted(ids), "weight": _rat(weight)}
                for ids, weight in certificate.terms],
        },
    }
    human = ["decomposition:"]
    human += [f"  {weight} * {_matching_line(mu)}" for mu, weight in terms]
    human.append(f"certificate base: {_matching_line(certificate.base)}")
    for k, (ids, weight) in enumerate(certificate.terms):
        names = ",".join(str(i) for i in sorted(ids)) or "-"
        human.append(f"  term {k}: rotations {{{names}}} weight {weight}")
    for i, rot in enumerate(certificate.rotations):
        human.append(
            f"rotation {i}: firms {' '.join(rot.firms)} / "
            f"workers {' '.join(rot.workers)}")
    report = {"command": "decompose", "inputs": inputs,
              "result": result, "diagnostics": diagnostics}
    _emit(args, report, human)
    return EXIT_OK


def _cmd_rotations(args) -> int:
    diagnostics: list[str] = []
    market, market_input = _load_market(args.market, diagnostics)
    inputs = {"market": market_input}
    if args.mu:
        x, mu_input = _load_fractional(market, args.mu)
        inputs["mu"] = mu_input
        try:
            mu = matching_from_matrix(market, x)
        except ValueError as exc:
            raise _CliError(f"{args.mu}: {exc}", EXIT_USAGE) from exc
    else:
        mu = deferred_acceptance(market, Side.FIRMS)
    try:
        profile = reduce_profile(market, mu)
    except MarketError as exc:
        report = {
            "command": "rotations", "inputs": inputs,
            "result": {"error": str(exc)}, "diagnostics": diagnostics,
        }
        _emit(args, report, [f"error: {exc}"])
        return EXIT_PROPERTY_FAILS
    rotations = find_cycles(profile)
    result = {
        "matching": _matching_payload(mu),
        "reduced": {
            "firms": {f: list(profile.firm_list(f)) for f in market.firms},
            "workers": {w: list(profile.worker_list(w)) for w in market.workers},
        },
        "rotations": [
            {"firms": list(rot.firms), "workers": list(rot.workers)}
            for rot in rotations],
    }
    human = [f"matching: {_matching_line(mu)}",
             f"rotations: {len(rotations)}"]
    for i, rot in enumerate(rotations):
        human.append(
            f"  {i}: firms {' '.join(rot.firms)} / workers {' '.join(rot.workers)}")
    report = {"command": "rotations", "inputs": inputs,
              "result": result, "diagnostics": diagnostics}
    _emit(args, report, human)
    return EXIT_OK


def _cmd_stable_all(args) -> int:
    diagnostics: list[str] = []
    market, market_input = _load_market(args.market, diagnostics)
    enumerate_stable = (enumerate_stable_bruteforce if args.method == "brute"
                        else enumerate_stable_via_rotations)
    try:
        found = enumerate_stable(market, cap=args.cap)
    except MarketError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    ordered = sorted(found, key=lambda mu: mu.assignment)
    result = {
        "method": args.method,
        "count": len(ordered),
        "matchings": [_matching_payload(mu) for mu in ordered],
    }
    human = chain([f"method: {args.method}", f"count: {len(ordered)}"],
                  (f"  {_matching_line(mu)}" for mu in ordered))
    report = {"command": "stable-all", "inputs": {"market": market_input},
              "result": result, "diagnostics": diagnostics}
    _emit(args, report, human)
    return EXIT_OK


def _cmd_verify(args) -> int:
    diagnostics: list[str] = []
    inputs: dict = {}
    if (args.market is None) == (args.random is None):
        raise _CliError("verify needs a market file or --random, not both")
    if args.samples < 1:
        raise _CliError(f"--samples must be at least 1, not {args.samples}")
    if args.market is not None:
        market, market_input = _load_market(args.market, diagnostics)
        inputs["market"] = market_input
    else:
        seed, nf, nw, qmax = args.random
        try:
            market = gen_random_market(seed, nf, nw, qmax)
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
        inputs["market"] = {"generator": {
            "seed": seed, "firms": nf, "workers": nw, "qmax": qmax}}
    try:
        outcome = verify_characterization(market, args.seed, args.samples)
    except MarketError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    result = {
        "ok": outcome.ok,
        "stable_count": outcome.stable_count,
        "hull_points": outcome.hull_points,
        "negative_points": outcome.negative_points,
        "vertex_points": outcome.vertex_points,
        "counterexamples": list(outcome.counterexamples),
    }
    diagnostics.extend(outcome.notes)
    human = [
        f"stable matchings: {outcome.stable_count}",
        f"hull points checked: {outcome.hull_points}",
        f"condition-failing points checked: {outcome.negative_points}",
        f"vertices checked: {outcome.vertex_points}",
        f"counterexamples: {len(outcome.counterexamples)}",
    ]
    human += [f"  {c}" for c in outcome.counterexamples]
    report = {"command": "verify", "inputs": inputs,
              "result": result, "diagnostics": diagnostics}
    _emit(args, report, human)
    return EXIT_OK if outcome.ok else EXIT_PROPERTY_FAILS


def _cmd_gen(args) -> int:
    try:
        market = gen_random_market(args.seed, args.nf, args.nw, args.qmax)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    text = serialize_market(market)
    report = {
        "command": "gen",
        "inputs": {"market": {"generator": {
            "seed": args.seed, "firms": args.nf,
            "workers": args.nw, "qmax": args.qmax}}},
        "result": {"market": text,
                   "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()},
        "diagnostics": [],
    }
    _emit(args, report, text.splitlines())
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="stablefrac",
        description="Exact analysis of stable and strongly stable fractional "
                    "matchings in many-to-one markets.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="run deferred acceptance")
    p.add_argument("market")
    p.add_argument("--side", choices=["firms", "workers"], default="firms")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="feasibility, strong stability, vertex status")
    p.add_argument("market")
    p.add_argument("fraction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose",
                       help="ordered decomposition and hull certificate")
    p.add_argument("market")
    p.add_argument("fraction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("rotations", help="rotations at a stable matching")
    p.add_argument("market")
    p.add_argument("--mu", help="matching as a 0/1 matrix file "
                                "(default: firm-optimal)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_rotations)

    p = sub.add_parser("stable-all", help="enumerate all stable matchings")
    p.add_argument("market")
    p.add_argument("--method", choices=["brute", "rotations"], default="brute")
    p.add_argument("--cap", type=int, default=10_000_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stable_all)

    p = sub.add_parser("verify", help="run the characterization harness")
    p.add_argument("market", nargs="?")
    p.add_argument("--random", nargs=4, type=int,
                   metavar=("SEED", "NF", "NW", "QMAX"))
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a deterministic random market")
    p.add_argument("seed", type=int)
    p.add_argument("nf", type=int)
    p.add_argument("nw", type=int)
    p.add_argument("qmax", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except MarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()

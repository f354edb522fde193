"""Command-line interface for batch analysis and report emission.

Exit codes are uniform across commands: 0 when the command succeeded and the
checked property holds, 1 when the property fails (the report carries a
witness), 2 for usage, file, or parse errors.  With ``--json`` every command
emits the report envelope described by ``report_schema.json``; reports are
byte-identical across runs for fixed inputs and seeds.

Every command takes one report path.  A ``_cmd_*`` function parses each of
its files once through ``_load``, which records the file in ``inputs`` and
each parser warning in ``diagnostics``, and returns its result, its lines
for humans and its exit code.  Only ``main`` turns that into output: the
JSON envelope under ``--json``, written by ``_dumps`` into one list joined
once, else the lines and one ``note:`` line per diagnostic; ``_CliError``
and ``MarketError`` become ``error: ...`` on stderr and exit 2.  The lines
are read only without ``--json``, so a command may return them as a generator.
A report that cannot be written, because its reader closed the pipe, exits
2 too (``main_entry``).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
import warnings
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Iterable

from .hulls import certify_strongly_stable, verify_characterization
from .model import (
    InfeasibleError, Market, MarketError, Matching, gen_random_market,
    incidence_vector, matching_from_matrix, parse_fractional, parse_market,
    serialize_market)
from .polytope import check_stable_feasibility, constraint_label, is_extreme_point
from .rotations import (
    Rotation,
    enumerate_stable_via_rotations,
    find_cycles,
    reduce_profile,
)
from .stability import (
    DEFAULT_ENUMERATION_CAP,
    Side,
    deferred_acceptance,
    enumerate_stable_bruteforce,
)
from .strong_stability import PairCondition, strong_stability_check

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_USAGE = 2


# what a command returns: its result, its human-readable lines, its exit code
_Outcome = tuple[dict, Iterable[str], int]


class _CliError(Exception):
    """A usage, file or input error; ``main`` prints it and exits 2."""


def _read_file(path: str) -> tuple[str, str]:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path}: not valid UTF-8 ({exc})") from exc
    # a leading byte-order mark is not part of the text; the digest is the bytes'
    return text.removeprefix("\ufeff"), hashlib.sha256(data).hexdigest()


def _load(path: str, parse, key: str, inputs: dict, diagnostics: list[str]):
    """``parse`` the text of ``path`` and record the file as ``inputs[key]``.

    Parser warnings become diagnostics; a parse error is a usage error
    prefixed with the path.
    """
    text, digest = _read_file(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = parse(text)
        except (MarketError, ValueError) as exc:
            raise _CliError(f"{path}: {exc}") from exc
    diagnostics.extend(str(w.message) for w in caught)
    inputs[key] = {"path": path, "sha256": digest}
    return value


def _generate(inputs: dict, seed: int, nf: int, nw: int, qmax: int) -> Market:
    try:
        market = gen_random_market(seed, nf, nw, qmax)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    inputs["market"] = {"generator": {
        "seed": seed, "firms": nf, "workers": nw, "qmax": qmax}}
    return market


class _Column(dict):
    """The ``"key": value`` entries of one key at one depth, by value."""

    __slots__ = ("prefix", "depth")

    def __missing__(self, value) -> str:
        # a hashable value holds no dict, so a new table of columns will do
        out = [self.prefix]
        _write(value, self.depth, {}, out)
        fragment = "".join(out)
        if isinstance(value, str) or type(value) is tuple and value and all(
                map(str.__instancecheck__, value)):
            self[value] = fragment
        return fragment


def _dumps(report) -> str:
    """Exactly ``json.dumps(report, indent=2, sort_keys=True)``, faster.

    Reports are built from dicts with string keys, lists, tuples, strings,
    ints, booleans and None; any other type raises ``TypeError``.

    Every fragment, bracket and separator goes to one list, joined once.
    A *column* per key and depth holds the text ``"key": value`` of each
    string or nonempty tuple of strings it has seen as a value.  Ints and
    booleans are never stored: ``1 == True``, so they would share an entry.
    A list whose first item is a nonempty dict of strings and tuples, or a
    lone dict of tuples, is a list of records: the first record's keys are
    sorted once, and each record with the same keys is one join of its
    columns' lookups, done in C.  Other dicts, and records holding an
    unhashable value, go entry by entry.  The columns live for one call.
    """
    out: list[str] = []
    _write(report, 0, {}, out)
    return "".join(out)


def _write(value, depth: int, columns: dict, out: list[str]) -> None:
    """Append the fragments of ``value``, as ``_dumps`` writes it at ``depth``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if value and all(map(tuple.__instancecheck__, value.values())):
            _records((value,), depth, columns, out)
        else:
            _entries(value, sorted(value), depth, columns, out)
    elif isinstance(value, (list, tuple)) and all(map(str.__instancecheck__, value)):
        out.append(_block(map(encode_basestring_ascii, value), depth, "[]")
                   if value else "[]")      # also the empty list
    elif isinstance(value, (list, tuple)):
        inner = "\n" + "  " * (depth + 1)
        out.append("[" + inner)
        if isinstance(value[0], dict) and value[0] and all(
                map(isinstance, value[0].values(), repeat((str, tuple)))):
            _records(value, depth + 1, columns, out)
        else:
            for k, item in enumerate(value):
                if k:
                    out.append("," + inner)
                _write(item, depth + 1, columns, out)
        out.append(inner[:-2] + "]")
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _block(parts: Iterable[str], depth: int, brackets: str) -> str:
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(parts) + inner[:-2] + brackets[1]


def _entries(value: dict, order, depth: int, columns: dict, out: list[str]) -> None:
    """A dict at ``depth``, its keys in ``order``, entry by entry."""
    inner = "\n" + "  " * (depth + 1)
    separator = "{" + inner
    for key in order:
        out.append(separator + encode_basestring_ascii(key) + ": ")
        _write(value[key], depth + 1, columns, out)
        separator = "," + inner
    out.append(inner[:-2] + "}" if order else "{}")


def _records(items, depth: int, columns: dict, out: list[str]) -> None:
    """The items of ``items``, a list of records at ``depth``, and commas."""
    order, keys = tuple(sorted(items[0])), items[0].keys()
    line = columns.get((order, depth))
    if line is None:            # the columns of ``order``, made on first use
        for key in order:
            if (key, depth) not in columns:
                column = columns[key, depth] = _Column()
                column.prefix = encode_basestring_ascii(key) + ": "  # or TypeError
                column.depth = depth + 1
        line = columns[order, depth] = [columns[key, depth] for key in order]
    inner = "\n" + "  " * (depth + 1)
    opening, separator, closing = "{" + inner, "," + inner, inner[:-2] + "}"
    between = "," + inner[:-2]
    get = itemgetter(*order) if len(order) > 1 else lambda item: (item[order[0]],)
    for k, item in enumerate(items):
        if k:
            out.append(between)
        if not (isinstance(item, dict) and item.keys() == keys):
            _write(item, depth, columns, out)
            continue
        try:
            entries = map(_Column.__getitem__, line, get(item))
            out.append(opening + separator.join(entries) + closing)
        except TypeError:           # an unhashable value
            _entries(item, order, depth, columns, out)


def _staff(f: str, ws: tuple[str, ...]) -> str:
    return f"{f}: {' '.join(ws) if ws else '-'}"


def _matching_line(mu: Matching) -> str:
    return "{" + " | ".join(_staff(f, ws) for f, ws in mu.assignment) + "}"


def _violation(cid, lhs, rhs) -> dict:
    return {"constraint": constraint_label(cid), "lhs": str(lhs), "rhs": str(rhs)}


def _violation_words(violation: dict) -> str:
    return "{constraint} ({lhs} vs {rhs})".format(**violation)


def _condition(c: PairCondition) -> dict:
    return {"firm": c.firm, "worker": c.worker,
            "firm_factor": str(c.firm_factor),
            "worker_factor": str(c.worker_factor), "product": str(c.product)}


def _rotation(rot: Rotation) -> dict:
    return {"firms": list(rot.firms), "workers": list(rot.workers)}


def _rotation_words(rot: Rotation) -> str:
    return f"firms {' '.join(rot.firms)} / workers {' '.join(rot.workers)}"


def _cmd_solve(args, inputs, diagnostics) -> _Outcome:
    market = _load(args.market, parse_market, "market", inputs, diagnostics)
    mu = deferred_acceptance(
        market, Side.FIRMS if args.side == "firms" else Side.WORKERS)
    incidence = [[str(v) for v in row]
                 for row in incidence_vector(market, mu).entries]
    result = {"side": args.side, "matching": dict(mu.assignment),
              "incidence": incidence}
    human = chain([f"side: {args.side}"],
                  ("  " + _staff(f, ws) for f, ws in mu.assignment),
                  ["incidence:"], ("  " + " ".join(row) for row in incidence))
    return result, human, EXIT_OK


def _cmd_check(args, inputs, diagnostics) -> _Outcome:
    market = _load(args.market, parse_market, "market", inputs, diagnostics)
    x = _load(args.fraction, functools.partial(parse_fractional, market),
              "fraction", inputs, diagnostics)
    feas = check_stable_feasibility(market, x)
    violations = [_violation(*v) for v in feas.violations]
    result: dict = {
        "feasible": feas.feasible,
        "violations": violations,
        "tight": [constraint_label(cid) for cid in feas.tight],
    }
    if violations:
        human = ["feasible: no",
                 "first violated constraint: " + _violation_words(violations[0])]
        return result, human, EXIT_PROPERTY_FAILS
    condition = strong_stability_check(market, x)
    is_vertex, rank_value = is_extreme_point(market, x)
    dimension = len(market.pairs())
    # the records are read off the integer gaps, priced per distinct value:
    # one string per gap value, a product only where both gaps are nonzero
    d, firm_gaps, worker_gaps = condition.denom, condition.firm_gaps, condition.worker_gaps
    text = {g: str(Fraction(g, d)) for g in {*firm_gaps, *worker_gaps}}
    result["condition"] = {"overall": condition.overall, "pairs": [
        {"firm": f, "worker": w, "firm_factor": text[a], "worker_factor": text[b],
         "product": str(Fraction(a * b, d * d)) if a and b else "0"}
        for (f, w), a, b in zip(condition.names, firm_gaps, worker_gaps)]}
    result["vertex"] = {"is_vertex": is_vertex,
                        "rank": rank_value, "dimension": dimension}
    if condition.overall:
        human = ["feasible: yes", "strongly stable: yes"]
    else:
        human = ["feasible: yes", "strongly stable: no",
                 "witness pair ({firm},{worker}): firm factor {firm_factor}, "
                 "worker factor {worker_factor}, product {product}".format(
                     **_condition(condition.first_failure()))]
    human.append(f"vertex: {'yes' if is_vertex else 'no'} "
                 f"(rank {rank_value} of {dimension})")
    return result, human, EXIT_OK if condition.overall else EXIT_PROPERTY_FAILS


def _cmd_decompose(args, inputs, diagnostics) -> _Outcome:
    market = _load(args.market, parse_market, "market", inputs, diagnostics)
    x = _load(args.fraction, functools.partial(parse_fractional, market),
              "fraction", inputs, diagnostics)
    try:
        certificate = certify_strongly_stable(market, x)
    except InfeasibleError as exc:
        refusal = {"kind": "infeasible",
                   **_violation(exc.constraint, exc.lhs, exc.rhs)}
        human = ["infeasible: " + _violation_words(refusal)]
        return {"refusal": refusal}, human, EXIT_PROPERTY_FAILS
    if isinstance(certificate, PairCondition):
        refusal = {"kind": "not-strongly-stable", **_condition(certificate)}
        human = ["not strongly stable", "witness pair ({firm},{worker}): "
                 "product {product}".format(**refusal)]
        return {"refusal": refusal}, human, EXIT_PROPERTY_FAILS
    terms = certificate.decomposition.terms
    result = {
        "terms": [{"matching": dict(mu.assignment), "weight": str(weight)}
                  for mu, weight in terms],
        "certificate": {
            "base": dict(certificate.base.assignment),
            "rotations": [_rotation(rot) for rot in certificate.rotations],
            "terms": [{"rotations": sorted(ids), "weight": str(weight)}
                      for ids, weight in certificate.terms],
        },
    }

    def human():
        yield "decomposition:"
        for mu, weight in terms:
            yield f"  {weight} * {_matching_line(mu)}"
        yield f"certificate base: {_matching_line(certificate.base)}"
        for k, (ids, weight) in enumerate(certificate.terms):
            names = ",".join(str(i) for i in sorted(ids)) or "-"
            yield f"  term {k}: rotations {{{names}}} weight {weight}"
        for i, rot in enumerate(certificate.rotations):
            yield f"rotation {i}: {_rotation_words(rot)}"
    return result, human(), EXIT_OK


def _cmd_rotations(args, inputs, diagnostics) -> _Outcome:
    market = _load(args.market, parse_market, "market", inputs, diagnostics)
    if args.mu:
        mu = _load(args.mu, lambda text: matching_from_matrix(
            market, parse_fractional(market, text)), "mu", inputs, diagnostics)
    else:
        mu = deferred_acceptance(market, Side.FIRMS)
    try:
        profile = reduce_profile(market, mu)
    except MarketError as exc:
        return {"error": str(exc)}, [f"error: {exc}"], EXIT_PROPERTY_FAILS
    rotations = find_cycles(profile)
    result = {
        "matching": dict(mu.assignment),
        "reduced": {
            "firms": {f: list(lst) for f, lst in profile.firm_lists.items()},
            "workers": {w: list(lst) for w, lst in profile.worker_lists.items()},
        },
        "rotations": [_rotation(rot) for rot in rotations],
    }

    def human():
        yield f"matching: {_matching_line(mu)}"
        yield f"rotations: {len(rotations)}"
        for i, rot in enumerate(rotations):
            yield f"  {i}: {_rotation_words(rot)}"
    return result, human(), EXIT_OK


def _cmd_stable_all(args, inputs, diagnostics) -> _Outcome:
    if args.cap < 0:
        raise _CliError(f"--cap must be at least 0, not {args.cap}")
    market = _load(args.market, parse_market, "market", inputs, diagnostics)
    enumerate_stable = (enumerate_stable_bruteforce if args.method == "brute"
                        else enumerate_stable_via_rotations)
    ordered = sorted(enumerate_stable(market, cap=args.cap),
                     key=attrgetter("assignment"))
    result = {
        "method": args.method,
        "count": len(ordered),
        "matchings": [dict(mu.assignment) for mu in ordered],
    }
    human = chain([f"method: {args.method}", f"count: {len(ordered)}"],
                  (f"  {_matching_line(mu)}" for mu in ordered))
    return result, human, EXIT_OK


def _cmd_verify(args, inputs, diagnostics) -> _Outcome:
    if args.market is None and args.random is None:
        raise _CliError("verify needs a market file or --random")
    if args.market is not None and args.random is not None:
        raise _CliError("verify takes a market file or --random, not both")
    if args.samples < 1:
        raise _CliError(f"--samples must be at least 1, not {args.samples}")
    if args.market is not None:
        market = _load(args.market, parse_market, "market", inputs, diagnostics)
    else:
        market = _generate(inputs, *args.random)
    outcome = verify_characterization(market, args.seed, args.samples)
    diagnostics.extend(outcome.notes)
    result = {
        "ok": outcome.ok,
        "stable_count": outcome.stable_count,
        "hull_points": outcome.hull_points,
        "negative_points": outcome.negative_points,
        "vertex_points": outcome.vertex_points,
        "counterexamples": list(outcome.counterexamples),
    }
    human = [
        f"stable matchings: {outcome.stable_count}",
        f"hull points checked: {outcome.hull_points}",
        f"condition-failing points checked: {outcome.negative_points}",
        f"vertices checked: {outcome.vertex_points}",
        f"counterexamples: {len(outcome.counterexamples)}",
        *(f"  {c}" for c in outcome.counterexamples),
    ]
    return result, human, EXIT_OK if outcome.ok else EXIT_PROPERTY_FAILS


def _cmd_gen(args, inputs, diagnostics) -> _Outcome:
    text = serialize_market(
        _generate(inputs, args.seed, args.nf, args.nw, args.qmax))
    result = {"market": text,
              "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    return result, text.splitlines(), EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that words an invalid choice as Python 3.10 to
    3.13.0 do, with the repr of each choice, whatever the interpreter's
    argparse says; subparsers are built from the same class."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, "invalid choice: %r (choose from %s)"
                                         % (value, ", ".join(map(repr, action.choices))))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as is."""
    parser = _Parser(
        prog="stablefrac",
        description="Exact analysis of stable and strongly stable fractional "
                    "matchings in many-to-one markets.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="run deferred acceptance")
    p.add_argument("market")
    p.add_argument("--side", choices=["firms", "workers"], default="firms")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="feasibility, strong stability, vertex status")
    p.add_argument("market")
    p.add_argument("fraction")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose",
                       help="ordered decomposition and hull certificate")
    p.add_argument("market")
    p.add_argument("fraction")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("rotations", help="rotations at a stable matching")
    p.add_argument("market")
    p.add_argument("--mu", help="matching as a 0/1 matrix file "
                                "(default: firm-optimal)")
    p.set_defaults(func=_cmd_rotations)

    p = sub.add_parser("stable-all", help="enumerate all stable matchings")
    p.add_argument("market")
    p.add_argument("--method", choices=["brute", "rotations"], default="brute")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.set_defaults(func=_cmd_stable_all)

    p = sub.add_parser("verify", help="run the characterization harness")
    p.add_argument("market", nargs="?")
    p.add_argument("--random", nargs=4, type=int,
                   metavar=("SEED", "NF", "NW", "QMAX"))
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a deterministic random market")
    p.add_argument("seed", type=int)
    p.add_argument("nf", type=int)
    p.add_argument("nw", type=int)
    p.add_argument("qmax", type=int)
    p.set_defaults(func=_cmd_gen)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    inputs: dict = {}
    diagnostics: list[str] = []
    try:
        result, human, code = args.func(args, inputs, diagnostics)
    except (_CliError, MarketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(_dumps({"command": args.cmd, "inputs": inputs,
                      "result": result, "diagnostics": diagnostics}))
    else:
        for line in chain(human, (f"note: {note}" for note in diagnostics)):
            print(line)
    return code


def main_entry() -> None:
    """Run ``main`` and exit with its code.  A reader that closes the pipe
    early (``stablefrac ... | head``) leaves the report unwritten: stdout is
    pointed at the null device, so the exit flush cannot fail again, and
    the exit code is 2."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    raise SystemExit(code)


if __name__ == "__main__":
    main_entry()

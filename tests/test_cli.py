import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import stablefrac as sf
from oracles import cloned_blocks, serialize_fractional
from stablefrac import cli
from stablefrac.cli import _dumps, build_parser, main
from stablefrac.hulls import _random_mix

DATA = Path(__file__).parent / "data"
SCHEMA = json.loads(
    (Path(sf.__file__).parent / "report_schema.json").read_text())


@pytest.fixture()
def market_file(tmp_path):
    p = tmp_path / "m.market"
    p.write_text((DATA / "example.market").read_text())
    return str(p)


@pytest.fixture()
def vertex_file(tmp_path):
    p = tmp_path / "x.frac"
    p.write_text((DATA / "vertex.frac").read_text())
    return str(p)


@pytest.fixture()
def mid_file(tmp_path):
    p = tmp_path / "mid.frac"
    p.write_text((DATA / "mid.frac").read_text())
    return str(p)


@pytest.fixture()
def firm_opt_file(tmp_path):
    p = tmp_path / "muF.frac"
    p.write_text((DATA / "firm_opt.frac").read_text())
    return str(p)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_solve_firms(capsys, market_file):
    code, report = run_json(capsys, ["solve", market_file, "--side", "firms"])
    assert code == 0
    assert report["command"] == "solve"
    assert report["result"]["incidence"] == [
        ["1", "1", "0", "0"], ["0", "0", "1", "1"]]
    assert report["result"]["matching"] == {"f1": ["w1", "w2"], "f2": ["w3", "w4"]}
    assert len(report["inputs"]["market"]["sha256"]) == 64


def test_solve_workers(capsys, market_file):
    code, report = run_json(capsys, ["solve", market_file, "--side", "workers"])
    assert code == 0
    assert report["result"]["incidence"] == [
        ["1", "0", "0", "1"], ["0", "1", "1", "0"]]


def test_solve_missing_file(capsys):
    code = main(["solve", "no-such-file.market"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_check_fractional_vertex(capsys, market_file, vertex_file):
    code, report = run_json(capsys, ["check", market_file, vertex_file])
    assert code == 1
    result = report["result"]
    assert result["feasible"] is True
    assert result["condition"]["overall"] is False
    witness = [p for p in result["condition"]["pairs"]
               if p["firm"] == "f2" and p["worker"] == "w3"]
    assert witness[0]["product"] == "1/4"
    assert result["vertex"] == {"is_vertex": True, "rank": 8, "dimension": 8}


def test_check_midpoint_strongly_stable(capsys, market_file, mid_file):
    code, report = run_json(capsys, ["check", market_file, mid_file])
    assert code == 0
    assert report["result"]["condition"]["overall"] is True
    assert report["result"]["vertex"]["is_vertex"] is False


def test_check_integral_point(capsys, market_file, firm_opt_file):
    code, report = run_json(capsys, ["check", market_file, firm_opt_file])
    assert code == 0
    assert report["result"]["vertex"]["is_vertex"] is True


def test_check_infeasible_point(capsys, market_file, tmp_path):
    bad = tmp_path / "bad.frac"
    bad.write_text("0 0 0 0\n0 0 0 0\n")
    code, report = run_json(capsys, ["check", market_file, str(bad)])
    assert code == 1
    assert report["result"]["feasible"] is False
    assert report["result"]["violations"][0]["constraint"].startswith("noblock:")


def test_decompose_midpoint(capsys, market_file, mid_file):
    code, report = run_json(capsys, ["decompose", market_file, mid_file])
    assert code == 0
    terms = report["result"]["terms"]
    assert [t["weight"] for t in terms] == ["1/2", "1/2"]
    assert terms[0]["matching"] == {"f1": ["w1", "w2"], "f2": ["w3", "w4"]}
    cert = report["result"]["certificate"]
    assert cert["base"] == {"f1": ["w1", "w2"], "f2": ["w3", "w4"]}
    assert cert["terms"] == [
        {"rotations": [], "weight": "1/2"},
        {"rotations": [0], "weight": "1/2"}]


def test_decompose_refusal(capsys, market_file, vertex_file):
    code, report = run_json(capsys, ["decompose", market_file, vertex_file])
    assert code == 1
    refusal = report["result"]["refusal"]
    assert refusal["kind"] == "not-strongly-stable"
    assert (refusal["firm"], refusal["worker"]) == ("f2", "w3")
    assert refusal["product"] == "1/4"


def test_decompose_infeasible_refusal(capsys, market_file, tmp_path):
    bad = tmp_path / "bad.frac"
    bad.write_text("0 0 0 0\n0 0 0 0\n")
    _, checked = run_json(capsys, ["check", market_file, str(bad)])
    code, report = run_json(capsys, ["decompose", market_file, str(bad)])
    assert code == 1
    assert report["result"] == {"refusal": {
        "kind": "infeasible", **checked["result"]["violations"][0]}}


def test_decompose_integral(capsys, market_file, firm_opt_file):
    code, report = run_json(capsys, ["decompose", market_file, firm_opt_file])
    assert code == 0
    assert [t["weight"] for t in report["result"]["terms"]] == ["1"]


@pytest.mark.parametrize("market_text", [
    "firms: f1\nworkers:\n", "firms: f1 f2\nworkers:\nquota: f2=2\n",
    "firms:\nworkers: w1\n"])
def test_check_and_decompose_on_a_side_without_agents(capsys, tmp_path,
                                                      market_text):
    """A market with no workers or no firms has one point, the empty
    matrix, written as no non-blank line; both commands accept it."""
    market = tmp_path / "m.market"
    market.write_text(market_text)
    point = tmp_path / "x.frac"
    point.write_text("# no entries\n")
    code, report = run_json(capsys, ["check", str(market), str(point)])
    assert code == 0
    assert report["result"]["vertex"] == {"is_vertex": True, "rank": 0,
                                          "dimension": 0}
    code, report = run_json(capsys, ["decompose", str(market), str(point)])
    assert code == 0
    assert [t["weight"] for t in report["result"]["terms"]] == ["1"]


def test_check_and_decompose_name_the_same_witness(capsys, tmp_path, block_market):
    """``check`` and ``decompose`` name the report's first failure, factors
    and product included, on the example's fractional vertex (one failing
    pair) and on a mix of the block market's stable matchings (three)."""
    stable = sorted(sf.enumerate_stable_bruteforce(block_market),
                    key=lambda mu: mu.assignment)
    mix = _random_mix(block_market, stable, random.Random(0))
    cases = [((DATA / "example.market").read_text(), (DATA / "vertex.frac").read_text()),
             (sf.serialize_market(block_market), serialize_fractional(block_market, mix))]
    for market_text, point_text in cases:
        (tmp_path / "m.market").write_text(market_text)
        (tmp_path / "x.frac").write_text(point_text)
        argv = [str(tmp_path / "m.market"), str(tmp_path / "x.frac")]
        market = sf.parse_market(market_text)
        want = cli._condition(sf.strong_stability_check(
            market, sf.parse_fractional(market, point_text)).first_failure())
        code, checked = run_json(capsys, ["check", *argv])
        assert code == 1
        assert next(p for p in checked["result"]["condition"]["pairs"]
                    if p["product"] != "0") == want
        code, decomposed = run_json(capsys, ["decompose", *argv])
        assert code == 1
        assert decomposed["result"]["refusal"] == {"kind": "not-strongly-stable", **want}


def test_check_condition_records_are_the_reports(capsys, tmp_path, market, x_vertex,
                                                 fleet, fleet_stable):
    """``check --json`` writes its condition records off the report's integer
    gaps, one string per distinct gap value; they equal ``_condition`` of
    every pair the API's report gives, on the fleet's stable matchings and
    midpoints, failing mixes of several stable matchings, the example's
    fractional vertex, q = 2 points of cloned blocks and a market with no
    workers."""
    def midpoint(m, a, b):
        return sf.FractionalMatching.linear_combination(
            [(sf.incidence_vector(m, a), Fraction(1, 2)),
             (sf.incidence_vector(m, b), Fraction(1, 2))])

    rng = random.Random(0)
    cases = [(market, x_vertex)]
    for m, stable in zip(fleet, fleet_stable):
        cases += [(m, sf.incidence_vector(m, mu)) for mu in stable]
        cases += [(m, midpoint(m, stable[0], mu)) for mu in stable[1:]]
        if len(stable) > 2:
            cases += [(m, _random_mix(m, stable, rng)) for _ in range(3)]
    cloned = cloned_blocks([2, 3], 2)
    stable = sorted(sf.enumerate_stable_bruteforce(cloned), key=lambda mu: mu.assignment)
    cases += [(cloned, midpoint(cloned, stable[0], stable[-1]))]
    cases += [(cloned, _random_mix(cloned, stable, rng)) for _ in range(3)]
    empty = sf.parse_market("firms: f1 f2\nworkers:\n")
    cases.append((empty, sf.parse_fractional(empty, "")))
    products = []
    for m, x in cases:
        (tmp_path / "m.market").write_text(sf.serialize_market(m))
        (tmp_path / "x.frac").write_text(serialize_fractional(m, x))
        _, report = run_json(capsys, ["check", str(tmp_path / "m.market"),
                                      str(tmp_path / "x.frac")])
        want = [cli._condition(c) for c in sf.strong_stability_check(m, x).pairs]
        assert report["result"]["condition"]["pairs"] == want
        products.append(len({c["product"] for c in want} - {"0"}))
    assert max(products) > 1


def test_rotations_default_base(capsys, market_file):
    code, report = run_json(capsys, ["rotations", market_file])
    assert code == 0
    rots = report["result"]["rotations"]
    assert len(rots) == 1
    assert set(rots[0]["firms"]) == {"f1", "f2"}
    assert report["result"]["reduced"]["firms"]["f1"] == ["w1", "w2", "w4"]


def test_rotations_with_explicit_matching(capsys, market_file, tmp_path):
    mw = tmp_path / "muW.frac"
    mw.write_text("1 0 0 1\n0 1 1 0\n")
    code, report = run_json(capsys, ["rotations", market_file, "--mu", str(mw)])
    assert code == 0
    assert report["result"]["rotations"] == []


def test_rotations_with_unstable_matching(capsys, market_file, tmp_path):
    bad = tmp_path / "bad.frac"
    bad.write_text("1 0 1 0\n0 1 0 1\n")
    code, report = run_json(capsys, ["rotations", market_file, "--mu", str(bad)])
    assert code == 1
    assert "error" in report["result"]


@pytest.fixture()
def block_file(tmp_path, block_market):
    p = tmp_path / "block.market"
    p.write_text(sf.serialize_market(block_market))
    return str(p)


def test_stable_all_methods_agree(capsys, market_file, block_file):
    for path, count in ((market_file, 2), (block_file, 24)):
        code_a, report_a = run_json(capsys, ["stable-all", path,
                                             "--method", "brute"])
        code_b, report_b = run_json(capsys, ["stable-all", path,
                                             "--method", "rotations"])
        assert code_a == code_b == 0
        assert report_a["result"]["count"] == report_b["result"]["count"] == count
        assert report_a["result"]["matchings"] == report_b["result"]["matchings"]


def test_stable_all_json_formats_no_human_lines(capsys, block_file,
                                                monkeypatch):
    argv = ["stable-all", block_file, "--method", "rotations", "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(mu):
        raise AssertionError("a human-readable line was formatted under --json")

    monkeypatch.setattr("stablefrac.cli._matching_line", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_stable_all_rotations_honours_cap(capsys, block_file, tmp_path):
    argv = ["stable-all", block_file, "--method", "rotations"]
    assert main(argv + ["--cap", "23"]) == 2
    assert "cap" in capsys.readouterr().err
    code, capped = run_json(capsys, argv + ["--cap", "24"])
    assert code == 0
    assert capped["result"]["count"] == 24
    assert capped == run_json(capsys, argv)[1]
    # the firm-optimal matching counts against the cap too
    lone = tmp_path / "one.market"
    lone.write_text("firms: f1\nworkers: w1\nfirm f1: w1\nworker w1: f1\n")
    assert main(["stable-all", str(lone), "--method", "rotations", "--cap", "0"]) == 2
    assert capsys.readouterr().err == \
        "error: 1+ stable matchings exceed the cap of 0\n"


def test_stable_all_rotations_largest_report(capsys, tmp_path, cyclic_blocks,
                                            monkeypatch):
    """1728 matchings: the report must still be exactly ``json.dumps``, and
    the encoder encodes each distinct ``(firm, row)`` entry once: at most its
    firm and its workers, besides the strings of the rest of the report."""
    path = tmp_path / "blocks.market"
    path.write_text(sf.serialize_market(cyclic_blocks([3, 3, 3, 4, 4, 4])))
    argv = ["stable-all", str(path), "--method", "rotations"]
    code, report = run_json(capsys, argv)
    assert code == 0
    matchings = report["result"]["matchings"]
    assert report["result"]["count"] == len(matchings) == 1728

    calls = 0

    def counting(text):
        nonlocal calls
        calls += 1
        return encode_basestring_ascii(text)

    monkeypatch.setattr(cli, "encode_basestring_ascii", counting)
    _dumps({**report, "result": {**report["result"], "matchings": []}})
    envelope, calls = calls, 0
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == report
    entries = {(f, tuple(row)) for mu in matchings for f, row in mu.items()}
    assert calls <= envelope + sum(1 + len(row) for _, row in entries)
    assert len(entries) < 100


def test_parser_is_reused_across_calls(capsys, market_file, mid_file):
    assert main(["stable-all", market_file, "--method", "nope"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    code, report = run_json(capsys, ["check", market_file, mid_file])
    assert code == 0
    assert report["command"] == "check"
    assert report["result"]["condition"]["overall"] is True
    code, report = run_json(capsys, ["stable-all", market_file])
    assert code == 0
    assert report["result"]["method"] == "brute"
    assert report["result"]["count"] == 2
    assert build_parser() is build_parser()


def test_verify_random_market(capsys):
    code, report = run_json(capsys, ["verify", "--random", "7", "3", "5", "2",
                                     "--samples", "40"])
    assert code == 0
    assert report["result"]["ok"] is True
    assert report["result"]["counterexamples"] == []
    assert report["inputs"]["market"]["generator"]["seed"] == 7


def test_verify_market_file(capsys, market_file):
    code, report = run_json(capsys, ["verify", market_file, "--samples", "50"])
    assert code == 0
    assert report["result"]["ok"] is True


def test_verify_exits_2_at_the_connected_set_cap(capsys, block_file,
                                                 monkeypatch):
    # the firm-optimal matching's connected set has 16 members
    monkeypatch.setattr(sf.rotations, "DEFAULT_ENUMERATION_CAP", 15)
    assert main(["verify", block_file, "--samples", "2"]) == 2
    assert "cap" in capsys.readouterr().err


def test_verify_reports_an_oracle_lattice_disagreement(capsys, market_file,
                                                      monkeypatch):
    """When brute force and the rotation lattice list different stable
    sets, verify reports it as a counterexample and exits 1."""
    enumerate_stable = sf.hulls.enumerate_stable_bruteforce
    monkeypatch.setattr(sf.hulls, "enumerate_stable_bruteforce",
                        lambda m: enumerate_stable(m) - {
                            sf.deferred_acceptance(m, sf.Side.WORKERS)})
    code, report = run_json(capsys, ["verify", market_file, "--samples", "4"])
    assert code == 1
    assert report["result"]["ok"] is False
    assert report["result"]["counterexamples"] == [
        "stable set: brute force and the rotation lattice disagree"]


def test_verify_usage_error(capsys, market_file):
    assert main(["verify"]) == 2
    assert capsys.readouterr().err == \
        "error: verify needs a market file or --random\n"
    assert main(["verify", market_file, "--random", "1", "2", "2", "1"]) == 2
    assert capsys.readouterr().err == \
        "error: verify takes a market file or --random, not both\n"


def test_gen_roundtrip(capsys):
    code = main(["gen", "5", "3", "4", "2"])
    assert code == 0
    text = capsys.readouterr().out
    m = sf.parse_market(text)
    assert m == sf.gen_random_market(5, 3, 4, 2)


def test_gen_json(capsys):
    code, report = run_json(capsys, ["gen", "5", "3", "4", "2"])
    assert code == 0
    assert sf.parse_market(report["result"]["market"]) == \
        sf.gen_random_market(5, 3, 4, 2)


def test_reports_are_byte_identical(capsys, market_file, mid_file):
    main(["decompose", market_file, mid_file, "--json"])
    first = capsys.readouterr().out
    main(["decompose", market_file, mid_file, "--json"])
    second = capsys.readouterr().out
    assert first == second
    main(["verify", market_file, "--samples", "30", "--json"])
    v1 = capsys.readouterr().out
    main(["verify", market_file, "--samples", "30", "--json"])
    v2 = capsys.readouterr().out
    assert v1 == v2


def test_malformed_market_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.market"
    bad.write_text("firms: f1\nworkers: w1\nquota: f1=0\n")
    assert main(["solve", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_non_utf8_market_exits_2(capsys, tmp_path):
    bad = tmp_path / "latin.market"
    bad.write_bytes(b"firms: f\xff\n")
    assert main(["solve", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not valid UTF-8" in err


@pytest.mark.parametrize("command,names", [
    ("solve", ["example.market"]),
    ("check", ["example.market", "mid.frac"]),
    ("check", ["example.market", "vertex.frac"]),
])
def test_byte_order_mark_is_not_part_of_the_text(capsys, tmp_path, command, names):
    """Files saved with a UTF-8 byte-order mark give the report of their
    twins without one, in both forms; only the digests, which are taken
    over the raw bytes, differ."""
    paths = [tmp_path / name for name in names]
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        for path, name in zip(paths, names):
            path.write_bytes(bom + (DATA / name).read_bytes())
        code, report = run_json(capsys, [command, *map(str, paths)])
        for entry in report["inputs"].values():
            raw = Path(entry["path"]).read_bytes()
            assert raw.startswith(bom) and entry.pop("sha256") == hashlib.sha256(raw).hexdigest()
        human = main([command, *map(str, paths)]), capsys.readouterr()
        outputs.append((code, report, human))
    assert outputs[0] == outputs[1]


def test_module_runs_the_cli(src_env):
    solve = subprocess.run(
        [sys.executable, "-m", "stablefrac.cli", "solve", str(DATA / "example.market")],
        env=src_env, capture_output=True, text=True, timeout=60)
    assert solve.returncode == 0, solve.stderr
    assert "  f1: w1 w2\n  f2: w3 w4\n" in solve.stdout
    bare = subprocess.run([sys.executable, "-m", "stablefrac.cli"],
                          env=src_env, capture_output=True, text=True, timeout=60)
    assert bare.returncode == 2
    assert "usage:" in bare.stderr


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_closed_pipe_exits_2_without_a_traceback(src_env, tmp_path, json_flag):
    """A reader that closes the pipe after one line leaves the report
    unwritten: exit 2, and no traceback.  The 729 stable matchings of six
    cloned swaps print well over the pipe's 64 KiB buffer, so the command is
    still writing when the pipe closes."""
    path = tmp_path / "blocks.market"
    path.write_text(sf.serialize_market(cloned_blocks([2] * 6, 2)))
    argv = [sys.executable, "-m", "stablefrac.cli", "stable-all", str(path),
            "--method", "rotations", *json_flag]
    full = subprocess.run(argv, env=src_env, capture_output=True, timeout=60)
    assert full.returncode == 0 and len(full.stdout) > 1 << 16
    with subprocess.Popen(argv, env=src_env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 2
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_prune_warning_lands_in_diagnostics(capsys, tmp_path):
    p = tmp_path / "p.market"
    p.write_text("""
firms: f1
workers: w1 w2
quota: f1=1
firm f1: w1 w2
worker w2: f1
""")
    code, report = run_json(capsys, ["solve", str(p)])
    assert code == 0
    assert any("one-sided" in d for d in report["diagnostics"])


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_fewer_than_one_sample(capsys, market_file, samples):
    assert main(["verify", market_file, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples must be at least 1" in captured.err


@pytest.mark.parametrize("method", ["brute", "rotations"])
def test_stable_all_rejects_a_negative_cap(capsys, market_file, method):
    assert main(["stable-all", market_file, "--method", method, "--cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cap must be at least 0, not -1" in captured.err
    assert main(["stable-all", market_file, "--method", method, "--cap", "0"]) == 2
    assert "--cap must be at least" not in capsys.readouterr().err


def _spliced(base: bytes):
    """``base`` with a random byte run replacing a random slice of it."""
    return st.tuples(st.integers(0, len(base)), st.integers(0, 16),
                     st.binary(max_size=12)).map(
        lambda t: base[:t[0]] + t[2] + base[t[0] + t[1]:])


def _parses(data: bytes, parse) -> bool:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            parse(data.decode("utf-8"))
    except (UnicodeDecodeError, sf.MarketError):
        return False
    return True


def _run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


_MARKET_BYTES = (DATA / "example.market").read_bytes()
_MID_BYTES = (DATA / "mid.frac").read_bytes()
_FIRM_OPT_BYTES = (DATA / "firm_opt.frac").read_bytes()


@pytest.fixture(scope="module")
def byte_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bytes")
    (path / "ok.market").write_bytes(_MARKET_BYTES)
    (path / "ok.frac").write_bytes(_MID_BYTES)
    return path


@settings(max_examples=60, deadline=None)
@given(data=st.one_of(st.binary(max_size=64), _spliced(_MARKET_BYTES)),
       command=st.sampled_from(["check", "decompose", "stable-all", "verify",
                                "solve", "rotations"]))
def test_arbitrary_market_bytes_exit_2(byte_dir, data, command):
    path = byte_dir / "any.market"
    path.write_bytes(data)
    argv = {"check": ["check", str(path), str(byte_dir / "ok.frac")],
            "decompose": ["decompose", str(path), str(byte_dir / "ok.frac")],
            "stable-all": ["stable-all", str(path)],
            "verify": ["verify", str(path), "--samples", "1"],
            "solve": ["solve", str(path)],
            "rotations": ["rotations", str(path)]}[command]
    code = _run_quietly(argv)
    if _parses(data, sf.parse_market):
        assert code in (0, 1, 2)
    else:
        assert code == 2


@settings(max_examples=60, deadline=None)
@given(data=st.one_of(st.binary(max_size=64), _spliced(_MID_BYTES),
                      _spliced(_FIRM_OPT_BYTES)),
       command=st.sampled_from(["check", "decompose", "rotations"]))
def test_arbitrary_fraction_bytes_exit_2(byte_dir, market, data, command):
    """Arbitrary bytes as the fraction file of check and decompose, or as
    the --mu matching of rotations (exit 2 when it is not a 0/1 matrix)."""
    path = byte_dir / "any.frac"
    path.write_bytes(data)
    ok_market = str(byte_dir / "ok.market")
    argv = ([command, ok_market, "--mu", str(path)] if command == "rotations"
            else [command, ok_market, str(path)])
    code = _run_quietly(argv)
    if not _parses(data, lambda text: sf.parse_fractional(market, text)):
        assert code == 2
    elif command == "rotations":
        assert code in (0, 1, 2)
    else:
        assert code in (0, 1)


@settings(max_examples=40, deadline=None)
@given(numbers=st.lists(st.integers(-3, 12), min_size=4, max_size=4),
       as_json=st.booleans())
def test_gen_arguments_exit_0_or_2(numbers, as_json):
    seed, nf, nw, qmax = numbers
    code = _run_quietly(["gen", *map(str, numbers)] + ["--json"] * as_json)
    assert code == (2 if min(nf, nw, qmax) < 1 else 0)


# Report-shaped values: strings with non-ASCII, quote, backslash and control
# characters, repeated so that equal string lists recur at several depths.
_STRINGS = st.one_of(st.text(max_size=6),
                     st.sampled_from(["w1", "f1", "\u00e9", '"', "\\", "\x00\n"]))
_SCALARS = st.one_of(st.none(), st.sampled_from([True, False, 1, 0]),
                     st.integers(), st.integers(-2 ** 200, 2 ** 200), _STRINGS)
_REPORTS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.lists(_STRINGS, max_size=3).map(tuple),
    st.dictionaries(_STRINGS, inner, max_size=4)), max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(value=_REPORTS)
def test_dumps_matches_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


# Cases of the column cache: a tuple that is not all strings, equal
# tuples of other types, one tuple at two depths or under two keys, a tuple
# and an equal list.  Then records that leave the joined path: a key missing
# or extra, an item that is not a dict, an unhashable value after a cached
# tuple under the same key, 1 and True after "1", a tuple at two depths, an
# empty first dict, a lone dict of tuples with a list inside one.
@pytest.mark.parametrize("value", [
    {"k": ("w1", ["w2"])},
    [{"k": ("w1", ["w2"])}, {"k": ("w1", ["w2"])}],
    [{"k": (1,)}, {"k": (True,)}, {"k": (1,)}],
    [{"k": (True,)}, {"k": (1,)}],
    [{"k": ("w1", 1)}, {"k": ("w1", True)}],
    {"a": {"k": ("w1", "w2")}, "k": ("w1", "w2")},
    {"a": ("w1", "w2"), "k": ("w1", "w2")},
    [{"k": ("w1", "w2")}, [{"k": ("w1", "w2")}]],
    [{"k": ("w1", "w2")}, {"k": ["w1", "w2"]}, {"k": ("w1", "w2")}],
    [{"a": "x", "b": ("w1",)}, {"a": "x"}, {"a": "x", "b": ("w1",)}],
    [{"a": "x"}, {"a": "x", "b": "y"}, {"b": "x"}, {"a": "x"}],
    [{"a": "x"}, "a", ["x"], None, 1, ("x",), {"a": "x"}],
    [{"k": ("w1",)}, {"k": ("w1",)}, {"k": ["w1"]}, {"k": ("w1", ["w2"])},
     {"k": ("w1",)}],
    [{"k": "1"}, {"k": 1}, {"k": True}, {"k": ("1",)}, {"k": (1,)},
     {"k": (True,)}, {"k": "1"}],
    {"k": ("w1", "w2"), "r": [{"k": ("w1", "w2")}, {"k": ("w1", "w2")}]},
    [[{"k": ("w1",)}], [[{"k": ("w1",)}]], {"k": ("w1",)}],
    [{}, {"a": "x"}, {}],
    {"a": ("w1",), "b": ("w1", ["w2"])},
    # record lists followed by non-records, where the writer's separators
    # between items and after the last record must be its own
    [{"a": "x"}, {"a": "y"}, "z", 1, None, ["x"], {"b": ("w1",)}, [], {}],
    [[{"a": "x"}, {"a": "y"}], "z", [{"a": ("w1",)}], 0],
    {"r": [{"a": "x"}, {"a": "x"}], "s": "z", "t": [1, True], "u": {}},
    [{"a": ("w1",)}, {"a": ("w1",)}, {}, [], ""],
    # records nested three deep, in lists, in dicts and as lone dicts of tuples
    {"a": [{"b": [{"c": [{"k": "x", "l": ("w1",)}, {"k": "y", "l": ("w1",)}]}]}]},
    [[[{"k": ("w1",)}, {"k": ("w2",)}], [{"k": ("w1",)}]], [{"k": ("w1",)}]],
    {"a": {"b": {"c": {"k": ("w1", "w2")}}}, "k": ("w1", "w2")},
    [{"a": [{"a": [{"a": "x"}, {"a": "x"}]}, "tail"]}, {"a": "x"}],
])
def test_dumps_entry_cache_cases(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


# Other types, also inside records: a key that is not a str, a float after
# a joined record, a float inside a tuple of a record or of a lone dict.
@pytest.mark.parametrize("value", [
    1.5, Fraction(1, 2), {"w1"}, {"rows": [["w1"], 0.0]}, {1: "f1"},
    [{"a": "x"}, {1: "x"}],
    [{1: "x"}, {1: "x"}],
    [{"a": "x"}, {"a": "x", 1: "y"}],
    [{"a": "x"}, {"a": 1.5}],
    [{"a": ("w1",)}, {"a": ("w1", 1.5)}],
    {"a": ("w1",), "b": (0.5,)},
])
def test_dumps_refuses_other_types(value):
    with pytest.raises(TypeError):
        _dumps(value)


# Lists of records: dicts sharing one key set, with values from small pools
# so that entries repeat, including 1, True and "1" and both a tuple and a
# list of the same strings, at two depths.
_POOL = st.sampled_from(["w1", "w2", "1", "\u00e9", '"\\'])
_RECORD_VALUES = st.one_of(
    _POOL, st.just(()), st.sampled_from([1, True, 0, False, None]),
    st.lists(_POOL, min_size=1, max_size=3).map(tuple),
    st.lists(_POOL, max_size=3),
    st.dictionaries(_POOL, _POOL, max_size=2))
_RECORDS = st.lists(_POOL, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, _RECORD_VALUES)),
                          min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(records=_RECORDS, other=_RECORDS)
def test_dumps_record_lists_match_json_dumps(records, other):
    for value in (records, {"rows": records, "more": [other, records]},
                  records + other, records[0]):
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)

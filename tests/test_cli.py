import contextlib
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import stablefrac as sf
from stablefrac.cli import build_parser, main

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
    report = json.loads(capsys.readouterr().out)
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


def test_stable_all_rotations_honours_cap(capsys, block_file):
    argv = ["stable-all", block_file, "--method", "rotations"]
    assert main(argv + ["--cap", "23"]) == 2
    assert "cap" in capsys.readouterr().err
    code, capped = run_json(capsys, argv + ["--cap", "24"])
    assert code == 0
    assert capped["result"]["count"] == 24
    assert capped == run_json(capsys, argv)[1]


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


def test_verify_usage_error(capsys, market_file):
    assert main(["verify"]) == 2
    assert main(["verify", market_file, "--random", "1", "2", "2", "1"]) == 2


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


@pytest.fixture(scope="module")
def byte_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bytes")
    (path / "ok.market").write_bytes(_MARKET_BYTES)
    (path / "ok.frac").write_bytes(_MID_BYTES)
    return path


@settings(max_examples=40, deadline=None)
@given(data=st.one_of(st.binary(max_size=64), _spliced(_MARKET_BYTES)),
       command=st.sampled_from(["check", "decompose", "stable-all", "verify"]))
def test_arbitrary_market_bytes_exit_2(byte_dir, data, command):
    path = byte_dir / "any.market"
    path.write_bytes(data)
    argv = {"check": ["check", str(path), str(byte_dir / "ok.frac")],
            "decompose": ["decompose", str(path), str(byte_dir / "ok.frac")],
            "stable-all": ["stable-all", str(path)],
            "verify": ["verify", str(path), "--samples", "1"]}[command]
    code = _run_quietly(argv)
    if _parses(data, sf.parse_market):
        assert code in (0, 1, 2)
    else:
        assert code == 2


@settings(max_examples=40, deadline=None)
@given(data=st.one_of(st.binary(max_size=64), _spliced(_MID_BYTES)),
       command=st.sampled_from(["check", "decompose"]))
def test_arbitrary_fraction_bytes_exit_2(byte_dir, market, data, command):
    path = byte_dir / "any.frac"
    path.write_bytes(data)
    code = _run_quietly([command, str(byte_dir / "ok.market"), str(path)])
    if _parses(data, lambda text: sf.parse_fractional(market, text)):
        assert code in (0, 1)
    else:
        assert code == 2

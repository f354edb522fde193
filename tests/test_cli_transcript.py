"""Golden transcript of the CLI's human and JSON output, errors and help.

Every invocation below runs in process through ``main`` on copies of
``tests/data`` and a few small files written to a temporary directory, with
``COLUMNS=80`` so that argparse wraps ``--help`` and usage lines the same way
everywhere.  The exit code, stdout and stderr of each, with the temporary
directory written as ``$TMP``, must equal ``tests/data/cli_transcript.txt``
byte for byte.

After an intended change of the output, rewrite the expected file with

    PYTHONPATH=src python tests/test_cli_transcript.py

and review its diff.
"""

import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

from stablefrac.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_transcript.txt"


FILES = {
    "m.market": (DATA / "example.market").read_bytes(),
    "vertex.frac": (DATA / "vertex.frac").read_bytes(),
    "mid.frac": (DATA / "mid.frac").read_bytes(),
    "muF.frac": (DATA / "firm_opt.frac").read_bytes(),
    "muW.frac": b"1 0 0 1\n0 1 1 0\n",
    "zero.frac": b"0 0 0 0\n0 0 0 0\n",
    "unstable.frac": b"1 0 1 0\n0 1 0 1\n",
    "short.frac": b"1 0 0 1\n",
    "block.market": (DATA / "block.market").read_bytes(),
    "quota0.market": b"firms: f1\nworkers: w1\nquota: f1=0\n",
    "latin.market": b"firms: f\xff\n",
    "oneside.market": (b"firms: f1\nworkers: w1 w2\nquota: f1=1\n"
                       b"firm f1: w1 w2\nworker w2: f1\n"),
}

COMMANDS = [
    # solve
    "solve $TMP/m.market",
    "solve $TMP/m.market --json",
    "solve $TMP/m.market --side workers",
    "solve $TMP/oneside.market",
    "solve $TMP/oneside.market --json",
    # check: vertex (not strongly stable), midpoint, integral, infeasible
    "check $TMP/m.market $TMP/vertex.frac",
    "check $TMP/m.market $TMP/vertex.frac --json",
    "check $TMP/m.market $TMP/mid.frac",
    "check $TMP/m.market $TMP/mid.frac --json",
    "check $TMP/m.market $TMP/muF.frac",
    "check $TMP/m.market $TMP/zero.frac",
    "check $TMP/m.market $TMP/zero.frac --json",
    "check $TMP/m.market $TMP/short.frac",
    # decompose: certificate, both refusals, integral point
    "decompose $TMP/m.market $TMP/mid.frac",
    "decompose $TMP/m.market $TMP/mid.frac --json",
    "decompose $TMP/m.market $TMP/vertex.frac",
    "decompose $TMP/m.market $TMP/vertex.frac --json",
    "decompose $TMP/m.market $TMP/zero.frac",
    "decompose $TMP/m.market $TMP/zero.frac --json",
    "decompose $TMP/m.market $TMP/muF.frac",
    # rotations
    "rotations $TMP/m.market",
    "rotations $TMP/m.market --json",
    "rotations $TMP/m.market --mu $TMP/muW.frac",
    "rotations $TMP/m.market --mu $TMP/unstable.frac",
    "rotations $TMP/m.market --mu $TMP/unstable.frac --json",
    "rotations $TMP/m.market --mu $TMP/mid.frac",
    "rotations $TMP/block.market --json",
    # stable-all
    "stable-all $TMP/m.market",
    "stable-all $TMP/m.market --json",
    "stable-all $TMP/block.market --method rotations",
    "stable-all $TMP/block.market --method rotations --cap 23",
    "stable-all $TMP/m.market --method nope",
    # verify
    "verify $TMP/m.market --samples 3",
    "verify $TMP/m.market --samples 3 --json",
    "verify --random 7 3 5 2 --samples 2",
    "verify --random 7 3 5 2 --samples 2 --json",
    "verify --random 7 0 5 2",
    "verify",
    "verify $TMP/m.market --random 1 2 2 1",
    "verify $TMP/m.market --samples 0",
    # gen
    "gen 5 3 4 2",
    "gen 5 3 4 2 --json",
    "gen 5 0 4 2 --json",
    # read and parse errors, usage
    "solve $TMP/missing.market",
    "solve $TMP/quota0.market",
    "stable-all $TMP/latin.market --json",
    "",
    "frobnicate",
] + [f"{cmd} --help".lstrip() for cmd in ("", "solve", "check", "decompose",
                                          "rotations", "stable-all", "verify",
                                          "gen")]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def transcript(tmp: Path) -> str:
    """The transcript of every command in ``COMMANDS``, run in ``tmp``."""
    for name, data in FILES.items():
        (tmp / name).write_bytes(data)
    blocks = []
    for command in COMMANDS:
        argv = shlex.split(command.replace("$TMP", str(tmp)))
        code, out, err = _run(argv)
        blocks.append(
            f"$ stablefrac {command}".rstrip() + f"\n[exit {code}]\n"
            f"[stdout]\n{out}[stderr]\n{err}".replace(str(tmp), "$TMP"))
    return "\n".join(blocks)


def _with_columns(fn):
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        return fn()
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def test_cli_transcript_matches_golden(tmp_path):
    got = _with_columns(lambda: transcript(tmp_path))
    assert got == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        text = _with_columns(lambda: transcript(Path(tmp)))
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(COMMANDS)} invocations)", file=sys.stderr)

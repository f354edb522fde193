"""Benchmark of the stablefrac CLI: one closed-loop client, four workloads.

Run from the repository root:

    python3 bench/run.py --workload check-dense --seed 1 --seconds 20 --trace 0

The client is this process on one thread.  It calls ``stablefrac.cli.main``
in-process with stdout captured, so interpreter start-up stays out of
command latency; ``setup_s`` measures start-up, import and input building
in fresh processes instead.  Every command's exit code and JSON report are
checked against the answer known from how its input was built, and reports
must be byte-identical whenever a command repeats and, at the digest seed,
equal to the committed digests.  The loop runs whole rounds until
``--seconds`` have passed, so every run measures the same mix of sizes.
Times are scaled to a reference host speed measured around every command,
because shared hosts drift; see ``speed.py``.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` a traced run gives per-layer metrics instead, followed by an
untraced replay of the same commands for the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads
from speed import Speed
from tracer import NAMES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
DIGEST_SEED = 0
SETUP_SAMPLES = 7
MIN_COMMANDS = 100      # so that ten samples lie beyond the 90th percentile

DENSE_SIZES = [f"pairs-{n}"
               for n in sorted({nf * nw for nf, nw, _, _ in workloads.DENSE_SLOTS})]
ENUMERATE_SIZES = [f"matchings-{n}"
                   for n in sorted({math.prod(sizes) for sizes in workloads.ENUMERATE_SLOTS})]


def load_library():
    """Import stablefrac from ``src/`` of the current directory, or exit 1."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "stablefrac", "__init__.py")):
        sys.exit("error: run from the repository root; src/stablefrac not found")
    sys.path.insert(0, src)
    import stablefrac.cli
    if not os.path.abspath(stablefrac.__file__).startswith(src + os.sep):
        sys.exit(f"error: stablefrac imported from {stablefrac.__file__}, not {src}")
    return stablefrac


def call(cli, argv) -> tuple[float, int | None, str, str | None]:
    """One in-process command: (seconds, exit code, stdout, escaped exception)."""
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:       # an escaped exception is a failed command
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error


class Client:
    """Runs commands, checks verdicts and report identity, keeps the samples."""

    def __init__(self, cli, digests: dict[str, str], speed: Speed):
        self.cli = cli
        self.digests = digests
        self.speed = speed
        self.tracer: Tracer | None = None    # labels spans with the command id
        self.raw_seconds = 0.0
        self.seen: dict[str, str] = {}
        self.failures: list[str] = []
        self.matchings_listed = 0

    def judge(self, cmd, code, text, error) -> str | None:
        if error is not None:
            return error
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.seen.setdefault(cmd.cid, digest) != digest:
            return "report changed between two runs of the command"
        if self.digests.get(cmd.cid, digest) != digest:
            return "report differs from the committed digest"
        try:
            report = json.loads(text)
            if report["command"] == "stable-all":
                self.matchings_listed += report["result"]["count"]
            return cmd.check(code, report)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed report ({type(exc).__name__}: {exc}), exit {code}"

    def run(self, commands) -> list[tuple[float, str | None]]:
        """(scaled seconds, size) per command; see ``speed`` for the scaling."""
        samples = []
        for cmd in commands:
            if self.tracer is not None:
                self.tracer.command = cmd.cid
            elapsed, code, text, error = call(self.cli, cmd.argv)
            samples.append((self.speed.scale(elapsed), cmd.size))
            self.raw_seconds += elapsed
            reason = self.judge(cmd, code, text, error)
            if reason is not None:
                self.failures.append(f"{cmd.cid} ({' '.join(cmd.argv)}): {reason}")
        return samples

    def run_rounds(self, rounds, seconds: float, min_commands: int = 1):
        """Whole rounds until ``seconds`` have passed and ``min_commands`` ran.

        Returns the commands run and their samples.
        """
        done, samples = [], []
        start = time.perf_counter()
        r = 0
        while len(done) < min_commands or time.perf_counter() - start < seconds:
            batch = rounds[r % len(rounds)]
            samples += self.run(batch)
            done += batch
            r += 1
        return done, samples


def measure_setup(workload: str, seed: int, speed: Speed) -> float:
    """Median scaled wall time of fresh processes that import and build the inputs.

    Each child prints the wall clock when its inputs are written, so the
    parent's polling while it waits does not round the measurement.
    """
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        child = subprocess.run(argv, check=True, timeout=120,
                               capture_output=True, text=True)
        times.append(speed.scale(float(child.stdout) - start))
    return statistics.median(times)


def end_to_end(samples, failed: int, setup_s: float) -> dict[str, tuple[float, str]]:
    times = [t for t, _ in samples]
    return {
        "setup_s": (setup_s, "s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_p90_s": (statistics.quantiles(times, n=10)[-1], "s"),
        "cmds_per_s": (len(times) / sum(times), "1/s"),
        "ok_frac": ((len(times) - failed) / len(times), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def size_breakdown(samples) -> dict[str, tuple[float, str]]:
    """Median command time per input size; 0 for sizes this workload lacks."""
    by_size: dict[str, list[float]] = {}
    for t, size in samples:
        by_size.setdefault(size, []).append(t)
    return {f"size.{size}.verdict_p50_s":
            (statistics.median(by_size[size]) if size in by_size else 0.0, "s")
            for size in DENSE_SIZES + ENUMERATE_SIZES}


def per_layer(tracer: Tracer, traced, plain, listed: int) -> dict[str, tuple[float, str]]:
    metrics = tracer.layer_metrics()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls = {name: metrics[f"{name}.calls"][0] for name in NAMES}
    traced_rate = len(traced) / sum(t for t, _ in traced)
    plain_rate = len(plain) / sum(t for t, _ in plain)
    metrics.update({
        "linalg.Rref.add.useful_ratio":
            (ratio(tracer.useful, calls["linalg.Rref.add"]), "ratio"),
        "hulls.point_in_hull.solves_per_call":
            (ratio(tracer.calls_under("linalg.solve_exact", "hulls.point_in_hull"),
                   calls["hulls.point_in_hull"]), "ratio"),
        "strong_stability.strong_stability_check.per_cmd":
            (ratio(calls["strong_stability.strong_stability_check"], len(traced)), "ratio"),
        "rotations.reduce_profile.per_matching":
            (ratio(calls["rotations.reduce_profile"], listed), "ratio"),
        "stability.deferred_acceptance.per_matching":
            (ratio(calls["stability.deferred_acceptance"], listed), "ratio"),
        "trace.commands": (len(traced), "count"),
        "trace.matchings_listed": (listed, "count"),
        "trace.cmds_per_s": (traced_rate, "1/s"),
        "trace.untraced_cmds_per_s": (plain_rate, "1/s"),
        "trace.overhead_ratio": (traced_rate / plain_rate, "ratio"),
    })
    metrics.update(size_breakdown(plain))
    return metrics


def report(workload: str, metrics, attempted: int, failed: int, failures,
           raw_seconds: float) -> None:
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    print(f"{workload} commands {attempted}, failed {failed}, "
          f"unscaled command seconds {raw_seconds:.3f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the library and write the inputs, then exit")
    args = parser.parse_args()

    library = load_library()
    rounds = workloads.build(args.workload, args.seed, library.gen_random_market)
    if args.setup_only:
        print(repr(time.time()))
        return 0
    digests = {}
    if args.seed == DIGEST_SEED:
        with open(DIGESTS, encoding="utf-8") as handle:
            digests = json.load(handle)[args.workload]
    speed = Speed()
    client = Client(library.cli, digests, speed)
    setup_s = measure_setup(args.workload, args.seed, speed) if args.trace == 0 else 0.0
    call(library.cli, rounds[0][0].argv)      # warm-up, not counted

    if args.trace == 0:
        _, samples = client.run_rounds(rounds, args.seconds, MIN_COMMANDS)
        failed = len(client.failures)
        metrics = end_to_end(samples, failed, setup_s)
        attempted = len(samples)
    else:
        tracer = client.tracer = Tracer()
        tracer.install()
        try:
            done, traced = client.run_rounds(rounds, args.seconds / 2)
        finally:
            tracer.uninstall()
            client.tracer = None
        listed = client.matchings_listed
        plain = client.run(done)
        tracer.write(os.path.join(workloads.WORKDIR, args.workload, "spans.tsv"))
        metrics = per_layer(tracer, traced, plain, listed)
        attempted = len(traced) + len(plain)
        failed = len(client.failures)
    report(args.workload, metrics, attempted, failed, client.failures, client.raw_seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``digests.json``: the sha256 of every report at the digest seed.

Run from the repository root after a change that alters reports on purpose:

    python3 bench/make_digests.py

Every command of every prepared round runs once and must pass its verdict
check; nothing is written if one fails.
"""

from __future__ import annotations

import json
import sys

import run
import workloads
from speed import Speed


def main() -> int:
    library = run.load_library()
    digests = {}
    for name in workloads.WORKLOADS:
        rounds = workloads.build(name, run.DIGEST_SEED, library.gen_random_market)
        client = run.Client(library.cli, {}, Speed())
        for batch in rounds:
            client.run(batch)
        if client.failures:
            print("\n".join(client.failures[:10]), file=sys.stderr)
            return 1
        digests[name] = dict(sorted(client.seen.items()))
        print(f"{name}: {len(client.seen)} reports")
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

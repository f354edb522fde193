"""Host speed reference, measured around every timed section.

The benchmark runs on shared virtual machines whose speed drifts: on a
2-vCPU Xeon VM at 2.1 GHz one command repeated 60 times in one process took
between 0.056 s and 0.108 s, and whole 25-second runs differed by 40% in
commands per second.  The drift comes in spells of seconds to minutes and
hits every piece of Python code alike, so the benchmark times a short
reference task, made only of its own code, right before and after each
timed section and scales the section's wall time by ``REF_S`` over the mean
of the two reference times.  Reported times therefore read as seconds on a
host where the reference task takes ``REF_S``; a change to ``src/`` cannot
move the reference.
"""

from __future__ import annotations

import json
import random
import time

import builders as b

# The reference task's typical time on the 2-vCPU Xeon VM the bounds were set on.
REF_S = 0.0008


def _dense_market(rng: random.Random, nf: int, nw: int) -> b.Spec:
    """Complete random lists and quotas 1 or 2, drawn without the library."""
    firms = tuple(f"f{i}" for i in range(1, nf + 1))
    workers = tuple(f"w{j}" for j in range(1, nw + 1))
    return b.Spec(firms, workers, {f: rng.randint(1, 2) for f in firms},
                  {f: tuple(rng.sample(workers, nw)) for f in firms},
                  {w: tuple(rng.sample(firms, nf)) for w in workers})


class Speed:
    def __init__(self):
        self._dense = _dense_market(random.Random("speed reference"), 6, 7)
        self._point = b.incidence(b.deferred_acceptance(self._dense, firms_propose=True))
        self._last = self.reference()

    def reference(self) -> float:
        """Seconds taken by a fixed mix of the benchmark's own exact arithmetic.

        The fastest of three repetitions, so that neither an interrupt nor
        caches left cold by the command before skew the scale.
        """
        times = []
        for _ in range(3):
            start = time.perf_counter()
            rng = random.Random(0)
            b.deferred_acceptance(self._dense, firms_propose=True)
            b.deferred_acceptance(self._dense, firms_propose=False)
            b.condition(self._dense, self._point)
            spec = b.block_market([2, 3, 4, 3, 2], rng)
            json.dumps({"text": spec.text(), "point": b.lambda_point(spec, rng)[1]},
                       indent=2, default=str)
            times.append(time.perf_counter() - start)
        return min(times)

    def scale(self, seconds: float) -> float:
        """Scale a section that ended just now to the reference host."""
        before, self._last = self._last, self.reference()
        return seconds * REF_S * 2 / (before + self._last)

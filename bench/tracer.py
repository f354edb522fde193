"""Spans around the calls into each layer, recorded from outside the library.

Every traced function is replaced at each module attribute that binds it,
because ``cli``, ``hulls`` and ``strong_stability`` hold their own
references through ``from .x import y``.  Methods are patched on their
class.  Spans (name, start, end, parent, command) stay in memory until the
run ends; ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# module -> traced functions; a dotted name is a method patched on its class
TRACED = {
    "model": ["parse_market", "parse_fractional",
              "FractionalMatching.linear_combination"],
    "stability": ["deferred_acceptance", "blocking_pairs",
                  "enumerate_stable_bruteforce"],
    "polytope": ["check_feasibility", "check_stable_feasibility",
                 "is_extreme_point", "interior_walk", "vertex_walk"],
    "linalg": ["Rref.add", "rank", "solve_exact"],
    "strong_stability": ["strong_stability_check", "support_matching", "peel",
                         "decompose"],
    "rotations": ["reduce_profile", "find_cycles", "apply_cycle",
                  "connected_set", "enumerate_stable_via_rotations"],
    "hulls": ["certify_strongly_stable", "sample_hull", "point_in_hull",
              "verify_characterization"],
    "cli": ["main"],
}
NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
USEFUL = "linalg.Rref.add"      # counts calls that return True (rank rose)


class Tracer:
    def __init__(self):
        self.spans: list = []           # (name id, start, end, parent index, command)
        self.useful = 0
        self.command = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_useful = NAMES[name_id] == USEFUL

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.command)
            if count_useful and result:
                self.useful += 1
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "stablefrac" or key.startswith("stablefrac.")]
        for name_id, name in enumerate(NAMES):
            mod_name, _, attr = name.partition(".")
            module = sys.modules[f"stablefrac.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name_id, raw.__func__))
                else:
                    new = self._wrap(name_id, raw)
                self._patch(owner, meth, new)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name_id, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tcommand\n")
            for name_id, start, end, parent, command in self.spans:
                handle.write(f"{NAMES[name_id]}\t{start:.9f}\t{end:.9f}\t"
                             f"{parent}\t{command}\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, total_s and self_s per traced function.

        Self time is a span's duration minus its direct child spans.  Total
        time counts only the outermost span of a name, so nested calls of
        one function are not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name_id, start, end, parent, _) in enumerate(spans):
            duration = end - start
            calls[name_id] += 1
            own[name_id] += duration - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name_id:
                p = spans[p][3]
            if p < 0:
                total[name_id] += duration
        out: dict[str, tuple[float, str]] = {}
        for name_id, name in enumerate(NAMES):
            out[f"{name}.calls"] = (calls[name_id], "count")
            out[f"{name}.total_s"] = (total[name_id], "s")
            out[f"{name}.self_s"] = (own[name_id], "s")
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` that run inside a span of ``ancestor``."""
        target, outer = NAMES.index(name), NAMES.index(ancestor)
        count = 0
        for name_id, _, _, parent, _ in self.spans:
            if name_id != target:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] != outer:
                p = self.spans[p][3]
            count += p >= 0
        return count

"""Per-layer tracing from outside the library.

The tracer replaces the public functions at each module boundary of
``wordorbits`` with wrappers that record a span (name, start, end, parent)
in memory, and it counts the two hot permutation operations instead of
giving them spans.  Names bound by ``from ... import`` are replaced in every
``wordorbits`` module, so a call through ``construct.factors`` or
``cli.orbit_classes`` is traced like one through ``words.factors``.  The
library source is not touched.  Spans are reduced to metrics once, after
the session.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, act count at start, at end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.acts = [0]
        self.muls = [0]
        self.prefix_letters = 0
        self.factor_keys: set = set()
        self.factor_repeats = 0
        self.factor_prefix_letters = 0
        self.ladder_lengths = 0
        self.factors_partitioned = 0
        self.closure_elements = 0
        self.conjugates_distinct = 0

    def span(self, name: str, fn, after=None):
        spans, stack, acts, clock = self.spans, self._stack, self.acts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, acts[0], 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[5] = acts[0]
                record[2] = clock()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    @staticmethod
    def counted(cell: list, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    # -- hooks that count work at the boundary ------------------------------

    def _on_prefix(self, args, result):
        self.prefix_letters += args[1]

    def _on_factors(self, args, result):
        key = (args[0], args[1])
        if key in self.factor_keys:
            self.factor_repeats += 1
        else:
            self.factor_keys.add(key)
            self.factor_prefix_letters += result.source_prefix_length

    def _on_ladder(self, args, result):
        self.ladder_lengths += args[1] + 1

    def _on_orbit_classes(self, args, result):
        self.factors_partitioned += len(args[0])

    def _on_elements(self, args, result):
        self.closure_elements += len(result)

    def _on_scan(self, args, result):
        self.conjugates_distinct += len(result.rows)

    def install(self) -> None:
        """Wrap the library; call after ``wordorbits.cli`` is imported."""
        from wordorbits import cli, complexity, construct, perm, words

        functions = [
            (words, "factors", "words.factors", self._on_factors),
            (words, "special_factors", "words.special_factors", None),
            (words, "bispecial_ladder", "words.bispecial_ladder", self._on_ladder),
            (complexity, "orbit_classes", "complexity.orbit_classes", self._on_orbit_classes),
            (complexity, "verify_complexity_bound", "complexity.verify_bound", None),
            (construct, "fine_wilf_data", "construct.fine_wilf_data", None),
            (construct, "sturmian_cycle", "construct.sturmian_cycle", None),
            (construct, "build_isomorphic_witness", "construct.witness", None),
            (construct, "build_conjugate_witness", "construct.witness", None),
            (construct, "conjugacy_scan", "construct.conjugacy_scan", self._on_scan),
            (cli, "main", "cli.main", None),
        ]
        modules = [m for key, m in sys.modules.items()
                   if key == "wordorbits" or key.startswith("wordorbits.")]
        for module, attr, name, after in functions:
            original = getattr(module, attr)
            wrapped = self.span(name, original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

        for cls in (words.SturmianWord, words.SubstitutionWord,
                    words.PeriodicWord, words.ExplicitWord):
            cls.prefix = self.span("words.prefix", cls.prefix, self._on_prefix)
        perm.PermGroup.elements = self.span("perm.elements", perm.PermGroup.elements,
                                            self._on_elements)
        perm.Permutation.act = self.counted(self.acts, perm.Permutation.act)
        perm.Permutation.__mul__ = self.counted(self.muls, perm.Permutation.__mul__)

    # -- reduction ----------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Calls, total time and self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _, _), children in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return dict(out)

    def metrics(self, stdout_bytes: int) -> dict[str, float]:
        table = self.table()
        get = lambda name, key: table.get(name, {}).get(key, 0)
        acts_in_orbits = sum(r[5] - r[4] for r in self.spans
                             if r[0] == "complexity.orbit_classes")
        factors_calls = get("words.factors", "calls")
        return {
            "words.prefix_s": get("words.prefix", "total_s"),
            "words.prefix_calls": get("words.prefix", "calls"),
            "words.prefix_letters": self.prefix_letters,
            "words.factors_s": get("words.factors", "self_s"),
            "words.factors_calls": factors_calls,
            "words.factors_repeat_share": (self.factor_repeats / factors_calls
                                           if factors_calls else 0.0),
            "words.factor_prefix_letters": self.factor_prefix_letters,
            "words.special_factors_s": get("words.special_factors", "total_s"),
            "words.bispecial_ladder_s": get("words.bispecial_ladder", "total_s"),
            "words.bispecial_ladder_lengths": self.ladder_lengths,
            "perm.act_calls": self.acts[0],
            "perm.mul_calls": self.muls[0],
            "perm.elements_s": get("perm.elements", "total_s"),
            "perm.closure_elements": self.closure_elements,
            "complexity.orbit_classes_s": get("complexity.orbit_classes", "self_s"),
            "complexity.orbit_classes_calls": get("complexity.orbit_classes", "calls"),
            "complexity.factors_partitioned": self.factors_partitioned,
            "complexity.acts_per_factor": (acts_in_orbits / self.factors_partitioned
                                           if self.factors_partitioned else 0.0),
            "construct.fine_wilf_data_s": get("construct.fine_wilf_data", "total_s"),
            "construct.sturmian_cycle_s": get("construct.sturmian_cycle", "total_s"),
            "construct.witness_s": get("construct.witness", "self_s"),
            "construct.conjugacy_scan_s": get("construct.conjugacy_scan", "self_s"),
            "construct.conjugates_distinct": self.conjugates_distinct,
            "cli.self_s": get("cli.main", "self_s"),
            "cli.stdout_bytes": stdout_bytes,
        }

"""Outside-in tracing of codecensus layers.

Each traced layer is a public function of a codecensus module.  Its wrapper
is re-bound under every name that refers to the same function object in the
codecensus module namespaces, so calls made inside the package go through
the wrapper too and nested calls give parent/child spans.  Nothing under
src/ is edited.

A span is (name, start, end, parent span); spans stay in memory and are
written out when the traced process ends.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from array import array

EXIT = -1  # event kind of a span exit; entries carry the span name index

# (span name, defining module, attribute, modules whose namespaces are
# re-bound; None means every codecensus module).  qarith is wrapped only
# where burnside, boundscheck and cli call it: gauss_binomial inside
# submodcount sits in the innermost block-lattice loop, so its time stays
# in component_lattice self time.
_QARITH_CALLERS = ("codecensus.burnside", "codecensus.boundscheck", "codecensus.cli")
TARGETS = (
    ("gf2poly.factor_cyclic", "codecensus.gf2poly", "factor_cyclic", None),
    ("cyclestruct.primary_components", "codecensus.cyclestruct", "primary_components", None),
    ("cyclestruct.class_size", "codecensus.cyclestruct", "class_size", None),
    ("submodcount.component_lattice", "codecensus.submodcount", "component_lattice", None),
    ("submodcount.lattice_dim_poly", "codecensus.submodcount", "lattice_dim_poly", None),
    ("submodcount.lattice_size", "codecensus.submodcount", "lattice_size", None),
    ("burnside.count_codes", "codecensus.burnside", "count_codes", None),
    ("qarith", "codecensus.qarith", "gauss_total", _QARITH_CALLERS),
    ("qarith", "codecensus.qarith", "gauss_binomial", _QARITH_CALLERS),
    ("qarith", "codecensus.qarith", "scaled_u", _QARITH_CALLERS),
    ("qarith", "codecensus.qarith", "lemma1_tail_product", _QARITH_CALLERS),
    ("boundscheck.check_lemma1", "codecensus.boundscheck", "check_lemma1", None),
    ("boundscheck.check_lemma2_3", "codecensus.boundscheck", "check_lemma2_3", None),
    ("boundscheck.check_lower_bound_4", "codecensus.boundscheck", "check_lower_bound_4", None),
    ("boundscheck.check_dimension_bounds", "codecensus.boundscheck", "check_dimension_bounds", None),
    ("boundscheck.classify_D", "codecensus.boundscheck", "classify_D", None),
    ("boundscheck.theorem_constants_report", "codecensus.boundscheck", "theorem_constants_report", None),
    ("cli.main", "codecensus.cli", "main", None),
)
# Generators are counted, not timed: their time interleaves with the caller,
# whose self time therefore includes the enumeration loop.
COUNTED_GENERATORS = (
    ("cyclestruct.cycle_types", "codecensus.cyclestruct", "cycle_types_of"),
)


def partition_count(n: int) -> int:
    """p(n) by the standard coin-change recurrence, independent of the package."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _package_modules(only):
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "codecensus" or name.startswith("codecensus.")):
            continue
        if only is None or name in only:
            yield mod


def _rebind(original, replacement, only) -> int:
    count = 0
    for mod in _package_modules(only):
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


class Tracer:
    """An event log of span entries and exits in two flat arrays (no
    per-call Python objects for the garbage collector to walk), plus the
    counters the per-layer metrics need."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.kinds = array("i")               # name index on entry, EXIT on exit
        self.times = array("d")
        self.missing: list[str] = []
        self.distinct_u: set = set()          # factor_cyclic arguments
        self.block_lens: dict = {}            # component_lattice args -> result length
        self.blocks = 0                       # blocks returned by primary_components
        self.types_checked: dict = {}         # cycle type parts -> block dims sum to n
        self.enumerations: list = []          # (n, cycle types yielded)

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        observers = {
            "gf2poly.factor_cyclic": self._observe_factor,
            "cyclestruct.primary_components": self._observe_components,
            "submodcount.component_lattice": self._observe_block,
        }
        for span_name, module, attr, only in TARGETS:
            original = getattr(sys.modules.get(module), attr, None)
            if not callable(original) or not _rebind(
                    original, self._wrap(span_name, original, observers.get(span_name)), only):
                self.missing.append(f"{module}.{attr}")
        for _, module, attr in COUNTED_GENERATORS:
            original = getattr(sys.modules.get(module), attr, None)
            if not callable(original) or not _rebind(original, self._count(original), None):
                self.missing.append(f"{module}.{attr}")

    def _observe_factor(self, args, result) -> None:
        self.distinct_u.add(args[0])

    def _observe_block(self, args, result) -> None:
        self.block_lens[args] = len(result)

    def _observe_components(self, args, result) -> None:
        self.blocks += len(result)
        ct = args[0]
        if ct.parts not in self.types_checked:
            self.types_checked[ct.parts] = sum(c.dim for c in result) == ct.n

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn, observe):
        k = self._index(name)
        kind, stamp, clock = self.kinds.append, self.times.append, time.perf_counter

        def wrapper(*args, **kwargs):
            kind(k)
            stamp(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                stamp(clock())
                kind(EXIT)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count(self, gen_fn):
        record = self.enumerations

        def counting(n, *args, **kwargs):
            items = 0
            try:
                for item in gen_fn(n, *args, **kwargs):
                    items += 1
                    yield item
            finally:
                record.append((n, items))

        return counting

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around its calls into a layer."""
        self.kinds.append(self._index(name))
        self.times.append(time.perf_counter())
        try:
            yield
        finally:
            self.times.append(time.perf_counter())
            self.kinds.append(EXIT)

    def spans(self) -> tuple[list, list, list, list]:
        """Rebuild the spans from the event log: name index, start, end and
        parent span index (-1 for a root) of each span, in entry order."""
        name, start, end, parent = [], [], [], []
        stack: list[int] = []
        for k, t in zip(self.kinds, self.times):
            if k == EXIT:
                end[stack.pop()] = t
            else:
                parent.append(stack[-1] if stack else -1)
                stack.append(len(name))
                name.append(k)
                start.append(t)
                end.append(t)
        return name, start, end, parent

    def layer_stats(self) -> dict:
        """Per span name: calls, self seconds, largest inclusive call."""
        name, start, end, parent = self.spans()
        durations = [e - s for s, e in zip(start, end)]
        child = [0.0] * len(durations)
        for d, p in zip(durations, parent):
            if p >= 0:
                child[p] += d
        stats = {n: {"calls": 0, "self_s": 0.0, "max_call_s": 0.0} for n in self.names}
        for k, d, c in zip(name, durations, child):
            s = stats[self.names[k]]
            s["calls"] += 1
            s["self_s"] += d - c
            s["max_call_s"] = max(s["max_call_s"], d)
        return stats

    def mark(self) -> tuple[int, int, int]:
        """Position in the log, for delta(): taken before forking a child."""
        return len(self.kinds), len(self.enumerations), self.blocks

    def delta(self, mark) -> dict:
        """What a forked child recorded since mark, for the parent's merge()."""
        events, enumerations, blocks = mark
        return {"names": self.names, "kinds": self.kinds[events:], "times": self.times[events:],
                "distinct_u": self.distinct_u, "block_lens": self.block_lens,
                "blocks": self.blocks - blocks, "types_checked": self.types_checked,
                "enumerations": self.enumerations[enumerations:]}

    def merge(self, delta: dict) -> None:
        """Append a forked child's spans and counts to this log."""
        index = [self._index(name) for name in delta["names"]]
        self.kinds.extend(k if k == EXIT else index[k] for k in delta["kinds"])
        self.times.extend(delta["times"])
        self.distinct_u |= delta["distinct_u"]
        self.block_lens.update(delta["block_lens"])
        self.blocks += delta["blocks"]
        self.types_checked.update(delta["types_checked"])
        self.enumerations.extend(delta["enumerations"])

    def summary(self) -> dict:
        """Per-layer numbers and the traced-run invariants, counted from outside."""
        violations = [f"block dims of cycle type {parts} do not sum to n"
                      for parts, ok in self.types_checked.items() if not ok]
        violations += [f"visited {items} cycle types of n={n}, p(n) = {partition_count(n)}"
                       for n, items in self.enumerations if items != partition_count(n)]
        counts = {
            "gf2poly.factor_cyclic.distinct_u": len(self.distinct_u),
            "cyclestruct.primary_components.blocks": self.blocks,
            "cyclestruct.cycle_types.count": sum(items for _, items in self.enumerations),
            "submodcount.component_lattice.distinct_blocks": len(self.block_lens),
            "submodcount.component_lattice.largest_block_len": max(self.block_lens.values(), default=0),
        }
        return {"layers": self.layer_stats(), "counts": counts, "violations": violations,
                "missing": self.missing, "spans": len(self.times) // 2}

    def write(self, path) -> None:
        """Write the spans (span i: name, start, end, parent id) and the run id."""
        name, start, end, parent = self.spans()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"run_id": self.run_id, "names": self.names, "name": name,
                       "start": start, "end": end, "parent": parent}, fh)

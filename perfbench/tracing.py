"""Spans at mmeskit's module boundaries, recorded from outside the library.

The tracer replaces public names in the namespace of the module that
calls them (for example `mmeskit.mmes.purity_form2`, which is what
`is_perfect_mmes` looks up) with a wrapper that records a span, so no
library code changes.  A name that a later version of the library no
longer binds is skipped.  Spans live in memory and are written out as
JSON lines when the run ends.

Layers are mmeskit's modules.  `bitspace` calls take microseconds and are
not wrapped; their time lands in their callers' self time.  `bench` spans
are the benchmark's own output checks.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, name bound in it, span name).  The span name is the layer that
# owns the function; the module is the one whose lookup is intercepted.
WRAP_POINTS = [
    ("mmeskit.cli", "state_from_json", "states.state_from_json"),
    ("mmeskit.cli", "uniform_from_signs", "states.uniform_from_signs"),
    ("mmeskit.cli", "polar", "states.polar"),
    ("mmeskit.cli", "purity_form1", "bipartite.purity_form1"),
    ("mmeskit.cli", "purity_form2", "bipartite.purity_form2"),
    ("mmeskit.cli", "is_perfect_mmes", "mmes.is_perfect_mmes"),
    ("mmeskit.cli", "catalog", "mmes.catalog"),
    ("mmeskit.cli", "catalog_sign_vector", "mmes.catalog_sign_vector"),
    ("mmeskit.cli", "exhaustive_search", "search.exhaustive_search"),
    ("mmeskit.cli", "anneal", "search.anneal"),
    # cli imports the potential forms at call time, and the potential module
    # calls its own public names through these globals too.
    ("mmeskit.potential", "build_coupling_table", "potential.build_coupling_table"),
    ("mmeskit.potential", "pi_me_form1", "potential.pi_me_form1"),
    ("mmeskit.potential", "pi_me_form2", "potential.pi_me_form2"),
    ("mmeskit.potential", "pi_me_form4", "potential.pi_me_form4"),
    ("mmeskit.potential", "pi_me_uniform", "potential.pi_me_uniform"),
    ("mmeskit.potential", "energy_uniform_exact", "potential.energy_uniform_exact"),
    ("mmeskit.potential", "purity_form2", "bipartite.purity_form2"),
    ("mmeskit.mmes", "purity_form2", "bipartite.purity_form2"),
    ("mmeskit.mmes", "reduced_density_matrix", "bipartite.reduced_density_matrix"),
    ("mmeskit.mmes", "pi_me_form2", "potential.pi_me_form2"),
    ("mmeskit.mmes", "energy_uniform_exact", "potential.energy_uniform_exact"),
    ("mmeskit.mmes", "uniform_from_signs", "states.uniform_from_signs"),
    ("mmeskit.mmes", "marginal_uniformity_gap", "mmes.marginal_uniformity_gap"),
    ("mmeskit.mmes", "phase_equation_residual", "mmes.phase_equation_residual"),
    ("mmeskit.search", "build_coupling_table", "potential.build_coupling_table"),
    ("mmeskit.search", "energy_uniform_exact", "potential.energy_uniform_exact"),
    ("mmeskit.search", "pi_me_uniform", "potential.pi_me_uniform"),
]

# Span fields, in the order they are stored.
ID, NAME, PARENT, CMD, PHASE, START, END, N = range(8)


def _size_of(args) -> int | None:
    """Qubit count of a call: the first argument's `.n`, or an int n."""
    if not args:
        return None
    first = args[0]
    if isinstance(first, int):
        return first
    n = getattr(first, "n", None)
    return n if isinstance(n, int) else None


class Tracer:
    """Collects spans: id, name, parent id, command id, phase, start, end, n.

    The command id is the id of the root span, so the spans of one command
    share it.  `phase` is set by the harness (setup, loop, probe).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.installed: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        cmd = self.stack[0] if self.stack else sid
        span = [sid, name, parent, cmd, self.phase, 0.0, 0.0, _size_of(args)]
        self.spans.append(span)
        self.stack.append(sid)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every WRAP_POINTS name that the loaded library binds."""
        for modname, attr, name in WRAP_POINTS:
            mod = sys.modules.get(modname)
            if mod is not None and hasattr(mod, attr):
                orig = getattr(mod, attr)
                self.installed.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(name, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self.installed):
            setattr(mod, attr, orig)
        self.installed.clear()

    def write(self, path: str) -> None:
        keys = ("id", "name", "parent", "cmd", "phase", "start", "end", "n")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class Profile:
    """Durations, self times and call counts of the spans of one phase."""

    def __init__(self, spans: list[list], phase: str) -> None:
        self.spans = [s for s in spans if s[PHASE] == phase]
        child_time: dict[int, float] = defaultdict(float)
        self.children: dict[int, list[list]] = defaultdict(list)
        for s in self.spans:
            if s[PARENT] is not None:
                child_time[s[PARENT]] += s[END] - s[START]
                self.children[s[PARENT]].append(s)
        self.duration: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        for s in self.spans:
            d = s[END] - s[START]
            self.duration[s[NAME]] += d
            self.calls[s[NAME]] += 1
            self.layer_self[s[NAME].split(".")[0]] += d - child_time[s[ID]]

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    def self_time_under(self, root_name: str, layer: str) -> float:
        """Self time of `layer` spans inside spans named `root_name`."""
        total = 0.0
        for root in self.named(root_name):
            todo = [root]
            while todo:
                s = todo.pop()
                kids = self.children.get(s[ID], [])
                todo.extend(kids)
                if s[NAME].split(".")[0] == layer:
                    total += (s[END] - s[START]) - sum(k[END] - k[START] for k in kids)
        return total

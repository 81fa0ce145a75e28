"""Span tracer that wraps kdia's public functions from outside the package.

Each call of a wrapped function records one span: its name, start and end
(``time.perf_counter`` seconds) and the index of the span that was open when
it started (-1 at top level). Spans stay in memory; ``summary`` turns them
into per-name call counts, total time and self time, where self time is a
span's duration minus the durations of its direct children.

Wrapping replaces a module attribute or a class attribute, so it reaches
every call that looks the name up at call time (``nn.forward(...)`` from
another module, or ``diversity_loss(...)`` inside ``generator``). Calls of
private helpers are not wrapped and count as self time of their caller.
"""

from __future__ import annotations

import inspect
import time
from array import array


def public_targets(modules):
    """(owner, attribute, span name) for every public function defined in
    ``modules`` and every public method of the classes they define."""
    targets = []
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append((module, attr, f"{short}.{attr}"))
            elif inspect.isclass(obj):
                for method, fn in vars(obj).items():
                    if not method.startswith("_") and inspect.isfunction(fn):
                        targets.append((obj, method, f"{short}.{obj.__name__}.{method}"))
    return targets


class Tracer:
    """Records spans for the calls of ``targets`` while installed.

    ``suffix`` maps a span name to a function of the call's positional
    arguments that returns a suffix for the name, e.g. the optimizer kind.
    """

    def __init__(self, targets, suffix=None):
        self.targets = list(targets)
        self.suffix = dict(suffix or {})
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._open = [-1]
        self._saved = []

    def _wrap(self, fn, name):
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        suffix = self.suffix.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name + suffix(args) if suffix else name)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced

    def install(self) -> None:
        for owner, attr, name in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def summary(self) -> dict:
        """{name: [calls, total seconds, self seconds]} over all spans."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict = {}
        for name, d, c in zip(self.names, dur, child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += d - c
        return out

    def calls_under(self, name: str, parent: str) -> int:
        """Number of ``name`` spans whose direct parent is a ``parent`` span."""
        return sum(
            1
            for n, p in zip(self.names, self.parents)
            if n == name and p >= 0 and self.names[p] == parent
        )

    def child_time(self, parent: str, children) -> tuple[float, float]:
        """(total ``parent`` time, time of its direct children named in
        ``children`` plus the parents' own self time)."""
        children = set(children)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        total = covered = 0.0
        for i, n in enumerate(self.names):
            if n == parent:
                total += dur[i]
                covered += dur[i]
            p = self.parents[i]
            if p >= 0 and self.names[p] == parent:
                # a child either counts as a stage or is taken out of the self time
                if n not in children:
                    covered -= dur[i]
        return total, covered

    def tree(self, root: int) -> list[dict]:
        """Spans of the subtree under span ``root``, times relative to its start."""
        keep = {root}
        rows = []
        t0 = self.starts[root]
        for i in range(root, len(self.names)):
            if i == root or self.parents[i] in keep:
                keep.add(i)
                rows.append({
                    "id": i,
                    "parent": self.parents[i] if i != root else -1,
                    "name": self.names[i],
                    "start_s": self.starts[i] - t0,
                    "end_s": self.ends[i] - t0,
                })
        return rows

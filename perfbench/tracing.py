"""Outside-in tracing: a span around every call into a public traceprod function.

The source stays untouched. `install` rebinds a timing wrapper in every
traceprod module namespace that holds one of the wrapped functions, so calls
between modules become spans too; `uninstall` puts the originals back. Spans
stay in memory as tuples (name, start, end, parent, job, count) and are
written out when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

from jobs import LAYERS


def _stack_len(pos: int, name: str):
    def count(args, kwargs, result):
        return len(args[pos] if len(args) > pos else kwargs[name])
    return count


# work counts taken at the boundary, by span name
COUNTERS = {
    "spaces.coords_batch": _stack_len(1, "batch"),
    "spaces.reassemble_batch": _stack_len(1, "x"),
    "linmaps.apply_batch": _stack_len(1, "batch"),
    "spaces.random_batch": lambda a, k, r: int(a[1] if len(a) > 1 else k["count"]),
    "extend.check_preservation": lambda a, k, r: (r.mode.value, int(r.trials)),
}


class _JsonText:
    """Stands in for `json` inside traceprod.cli, so that turning documents
    into text and back counts as the jsonio layer rather than as cli.run."""

    def __init__(self, dump, loads):
        self.dump, self.loads = dump, loads

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Records a span for every call into a wrapped function while installed."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list = []
        self.job = None
        self._stack: list = []
        self._bound: list = []
        self._wrappers = {}
        for layer in LAYERS:
            mod = getattr(lib, layer)
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        self._json = _JsonText(self._wrap("jsonio.dump", json.dump), self._wrap("jsonio.loads", json.loads))

    def _wrap(self, name, fn):
        spans, stack, count_of = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job, None)
            if count_of is not None:
                spans[idx] = (name, start, end, parent, self.job, count_of(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "traceprod" and not modname.startswith("traceprod."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in self._wrappers:
                    self._bound.append((mod, attr, val))
                    setattr(mod, attr, self._wrappers[val])
        self._bound.append((self.lib.cli, "json", json))
        self.lib.cli.json = self._json

    def uninstall(self) -> None:
        while self._bound:
            mod, attr, val = self._bound.pop()
            setattr(mod, attr, val)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# per-job stats of single functions, as <module>.<function>.<stat>
_CALLS_SELF = (
    "spaces.coords", "spaces.reassemble", "spaces.membership", "linmaps.linmap_from_images",
    "linmaps.from_canonical", "families.generate", "extend.check_preservation",
    "linmaps.image_stack", "cli.run", "linmaps.complexify", "linmaps.is_hermitian_preserving",
)
_ITEMS_SELF = ("spaces.coords_batch", "spaces.reassemble_batch", "linmaps.apply_batch", "spaces.random_batch")
_SELF = (
    "extend.dualize", "extend.embed_extend_pair", "extend.infeasibility_certificate",
    "extend.extend_from_subset", "decompose.verify_weighted",
)


def layer_metrics(spans, jobs: int) -> dict:
    """Per-job layer metrics from the spans of `jobs` traced jobs.

    A span's self time is its duration minus the time its child spans cover.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    items = defaultdict(int)
    # time spent by the decomposer's stages, found by the span that called them
    stage_s = defaultdict(float)
    checked = defaultdict(int)
    for i, (name, start, end, parent, _, count) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
        if isinstance(count, int):
            items[name] += count
        elif count is not None:
            checked[count[0]] += count[1]
        if parent >= 0 and spans[parent][0].startswith("decompose."):
            stage_s[name] += end - start

    def group(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    out = {}
    for name in _ITEMS_SELF:
        out[f"{name}.items"] = items[name] / jobs
        out[f"{name}.self_s"] = self_s[name] / jobs
    for name in _CALLS_SELF:
        out[f"{name}.calls"] = calls[name] / jobs
        out[f"{name}.self_s"] = self_s[name] / jobs
    for name in _SELF:
        out[f"{name}.self_s"] = self_s[name] / jobs
    # decompose() and the family decomposer it dispatches to: product
    # extension, gauge fixing and parameter recovery
    out["decompose.decompose.calls"] = calls["decompose.decompose"] / jobs
    out["decompose.decompose.self_s"] = (self_s["decompose.decompose"] + group("decompose.decompose_")) / jobs
    out["decompose.precheck_s"] = stage_s["extend.check_preservation"] / jobs
    out["decompose.conjugator_s"] = stage_s["decompose.recover_conjugator"] / jobs
    out["decompose.rebuild_s"] = stage_s["linmaps.from_canonical"] / jobs
    out["extend.check.random_trials"] = checked["randomized"] / jobs
    out["extend.check.basis_tuples"] = checked["exhaustive"] / jobs
    out["jsonio.encode.self_s"] = (group("jsonio.encode") + self_s["jsonio.dump"]) / jobs
    out["jsonio.decode.self_s"] = (group("jsonio.decode") + self_s["jsonio.loads"]) / jobs
    return out

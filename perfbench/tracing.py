"""Per-layer tracing for the traced run, installed from outside the program.

Every public function of the traced ``rougewe`` modules is wrapped, and every
module-level name that refers to it is rebound to the wrapper, so calls made
through ``from .x import f`` are seen too. ``EmbeddingTable.compose`` is
wrapped on its class. A wrapper adds a call count, inclusive seconds, and
seconds spent in the outermost call of its module (the module's busy time).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("textpipe", "embeddings", "rouge", "correlation", "harness")


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.module_seconds: defaultdict[str, float] = defaultdict(float)
        self._depth: Counter[str] = Counter()
        self.units_extracted = 0
        self.extract_inputs: set = set()
        self.load_entries = 0
        self.load_peak_rss_kb = 0

    def _wrap(self, layer: str, name: str, fn, hook=None):
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth[layer] -= 1
                self.calls[key] += 1
                self.seconds[key] += elapsed
                if not self._depth[layer]:
                    self.module_seconds[layer] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count_units(self, args, result) -> None:
        # A multiset object or a plain Counter of units.
        self.units_extracted += sum(getattr(result, "entries", result).values())

    def _note_extract_input(self, args, result) -> None:
        seq, variant = args[0], args[1]
        self.extract_inputs.add((tuple(getattr(seq, "tokens", seq)), variant))

    def _note_load(self, args, result) -> None:
        s = result.load_summary
        self.load_entries += result.size + s.duplicates + s.case_collisions + s.zero_dropped
        self.load_peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def install(self) -> None:
        hooks = {
            "textpipe.extract_ngrams": self._count_units,
            "textpipe.extract_skip_bigrams": self._count_units,
            "rouge.extract_units": self._note_extract_input,
            "embeddings.load_binary": self._note_load,
            "embeddings.load_text": self._note_load,
        }
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rougewe.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(layer, name, obj, hooks.get(f"{layer}.{name}"))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "rougewe" or modname.startswith("rougewe.")):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, name, wrappers[id(obj)])
        embeddings = importlib.import_module("rougewe.embeddings")
        table = embeddings.EmbeddingTable
        table.compose = self._wrap("embeddings", "compose", table.compose)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "module_seconds": dict(self.module_seconds),
            "units_extracted": self.units_extracted,
            "extract_unique_inputs": len(self.extract_inputs),
            "load_entries": self.load_entries,
            "load_peak_rss_kb": self.load_peak_rss_kb,
        }

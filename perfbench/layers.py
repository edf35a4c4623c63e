"""Layer map of ``src/repro`` and the split of a cProfile run across it.

Every module of the package belongs to exactly one layer (the self-test
``test_every_module_has_one_layer`` enforces it).  Host self time of package
functions goes to their own layer; time in NumPy, the standard library and
builtins goes to the layer of the package function that called it, split by
the profiler's per-caller figures when several layers call the same thing.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

#: Layer -> module paths relative to ``src/repro`` ("dir/" covers a package).
LAYERS: dict[str, tuple[str, ...]] = {
    "gridsim.engine": (
        "gridsim/engine.py", "gridsim/scheduler.py", "gridsim/executor.py",
        "gridsim/__init__.py",
    ),
    "gridsim.communicator": ("gridsim/communicator.py",),
    "gridsim.collectives": ("gridsim/collectives.py",),
    "gridsim.platform": (
        "gridsim/platform.py", "gridsim/network.py", "gridsim/kernelmodel.py",
        "gridsim/topology.py", "gridsim/machine.py", "gridsim/middleware.py",
        "gridsim/failures.py",
    ),
    "gridsim.trace": ("gridsim/trace.py",),
    "obs": ("obs/",),
    "programs": ("programs/", "tsqr/", "scalapack/"),
    "dag.graph": ("dag/graph.py",),
    "dag.placement": ("dag/placement.py", "dag/analysis.py"),
    "dag.runtime": ("dag/runtime.py", "dag/recovery.py", "dag/__init__.py"),
    "kernels": ("kernels/", "dag/kernels.py", "virtual/", "linalg/"),
    "service": ("service/",),
    "experiments": (
        "experiments/", "model/", "util/", "cli.py",
        "__init__.py", "__main__.py", "exceptions.py",
    ),
}

#: Profile entry key: (filename, first line, function name), as in pstats.
Func = tuple[str, int, str]


def layers_of_module(rel: str) -> list[str]:
    """Every layer whose patterns match ``rel`` (a path under ``src/repro``)."""
    return [
        layer
        for layer, patterns in LAYERS.items()
        if any(rel.startswith(p) if p.endswith("/") else rel == p for p in patterns)
    ]


class LayerMap:
    """Resolves profiled file names to layers for one package directory."""

    def __init__(self, package_dir: Path) -> None:
        self._prefix = str(package_dir.resolve()) + "/"
        self._memo: dict[str, str | None] = {}

    def layer(self, filename: str) -> str | None:
        """Layer of a profiled file, or None for code outside the package."""
        if filename not in self._memo:
            layer = None
            if filename.startswith(self._prefix):
                found = layers_of_module(filename[len(self._prefix):])
                layer = found[0] if found else None
            self._memo[filename] = layer
        return self._memo[filename]


class ProfileSplit:
    """Per-layer self time and call counts of one ``pstats.Stats.stats`` dict."""

    def __init__(self, stats: dict, layers: LayerMap) -> None:
        self.stats = stats
        self.layer_of: dict[Func, str | None] = {f: layers.layer(f[0]) for f in stats}
        self._shares: dict[Func, dict[str, float]] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        self.outside_s = 0.0
        for func, (_cc, _nc, tt, _ct, callers) in stats.items():
            own = self.layer_of[func]
            if own is not None:
                self.self_s[own] += tt
                continue
            # Outside the package: charge each caller's share of the self
            # time to the layer(s) that caller's time belongs to.
            for caller, (_c, _n, caller_tt, _t) in callers.items():
                shares = self._caller_shares(caller)
                for layer, share in shares.items():
                    self.self_s[layer] += caller_tt * share
                if not shares:
                    self.outside_s += caller_tt
            if not callers:
                self.outside_s += tt

    def _caller_shares(self, func: Func) -> dict[str, float]:
        """How ``func``'s executions split across layers (weights sum to 1)."""
        own = self.layer_of.get(func)
        if own is not None:
            return {own: 1.0}
        if func in self._shares:
            return self._shares[func]
        self._shares[func] = {}  # recursion guard for cycles outside the package
        if func not in self.stats:
            return {}
        acc: dict[str, float] = defaultdict(float)
        total = 0.0
        for caller, (_c, nc, _tt, ct) in self.stats[func][4].items():
            weight = ct if ct > 0.0 else nc * 1e-12
            for layer, share in self._caller_shares(caller).items():
                acc[layer] += weight * share
            total += weight
        shares = {layer: w / total for layer, w in acc.items()} if total > 0 else {}
        self._shares[func] = shares
        return shares

    # ----------------------------------------------------------------- counts
    def calls(self, layer: str, name: str, *, caller_layer: str | None = None) -> int:
        """Calls of functions called ``name`` in ``layer``; with
        ``caller_layer``, only calls made from that layer."""
        total = 0
        for func, (_cc, nc, _tt, _ct, callers) in self.stats.items():
            if func[2] != name or self.layer_of[func] != layer:
                continue
            if caller_layer is None:
                total += nc
            else:
                total += sum(v[1] for c, v in callers.items()
                             if self.layer_of.get(c) == caller_layer)
        return total

    def builtin_calls(self, name: str, *, caller_layer: str) -> int:
        """Calls of builtin ``name`` (as pstats names it) made from a layer."""
        total = 0
        for func, (_cc, _nc, _tt, _ct, callers) in self.stats.items():
            if func[0] == "~" and func[2] == name:
                total += sum(v[1] for c, v in callers.items()
                             if self.layer_of.get(c) == caller_layer)
        return total

    def entry_calls(self, layer: str) -> int:
        """Calls into ``layer`` from code outside it (boundary crossings)."""
        total = 0
        for func, (_cc, _nc, _tt, _ct, callers) in self.stats.items():
            if self.layer_of[func] == layer:
                total += sum(v[1] for c, v in callers.items()
                             if self.layer_of.get(c) != layer)
        return total

    def entry_time(self, layer: str, name: str) -> float:
        """Cumulative time of ``name`` in ``layer`` when entered from outside it."""
        total = 0.0
        for func, (_cc, _nc, _tt, _ct, callers) in self.stats.items():
            if func[2] == name and self.layer_of[func] == layer:
                total += sum(v[3] for c, v in callers.items()
                             if self.layer_of.get(c) != layer)
        return total

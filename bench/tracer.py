"""Per-layer span tracer for one ergokit CLI invocation.

Run as ``python3 bench/tracer.py TRACE.json -- <ergokit argv>`` with the
package importable. It executes the argv in-process through
``ergokit.cli.main`` (stdout and exit code are those of the CLI) and writes
the trace to TRACE.json:

- ``self_s``: self time per ``<layer>.<kind>``. A span is one call of a
  wrapped function, or the execution of one ergokit module's body at import;
  its self time is its duration minus the time covered by its child spans.
- ``counts``: exact work counts at the numpy boundary (eigensolves, their
  summed n^3 cost, QR factorisations) and calls per wrapped function.
- ``wall_s``: time from the start of ``main`` (numpy already imported) to
  the end of the CLI's ``main``.
- ``spans_s``: time covered by outermost spans. The tracer's own set-up
  (wrapper installation and the import of ``ergokit.cli``) is one such span,
  ``trace.setup``, so only a few statements run outside every span.

The wrappers are installed from here, so the program itself is unchanged.
Every layer is a module of ``src/ergokit``. Wrapped are the public functions
of each module (its ``__all__``, or every public name when it has none), the
names other ergokit modules imported from it, and the public methods,
``__init__`` and ``__post_init__`` of its public classes. Calls through
containers that hold the original function object (such as the audit
registry) run unwrapped; their time lands in the enclosing span of the same
layer, so per-layer totals are unaffected.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import json
import math
import sys
import time
import types
from collections import defaultdict

import numpy

LAYERS = ("cli", "instances", "audits", "states", "measurement", "linalg", "ergotropy", "majorization")
ESTIMATE_FUNCTIONS = frozenset({"coarse_grained_state", "outcome_distribution", "refine_distribution"})
SAMPLER_CLASSES = frozenset({"RandomSource"})


def span_kind(owner: str | None, name: str) -> str:
    """Sampling, estimate math, or any other call (construction, validation,
    kernels, serialisation) within its layer."""
    if owner in SAMPLER_CLASSES or name.startswith("random_") or name == "haar_unitary":
        return "sample"
    if name in ESTIMATE_FUNCTIONS:
        return "estimate"
    return "call"


class Tracer:
    """Accumulates self time per key and call counts, in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        # Time covered by finished child spans, one entry per open span;
        # the bottom entry, for code outside every span, collects the
        # outermost spans.
        self._child = [0.0]

    def spans_s(self) -> float:
        """Total duration of the finished outermost spans."""
        return self._child[0]

    def wrap(self, key: str, fn, name: str):
        child, self_s, counts, clock = self._child, self.self_s, self.counts, time.perf_counter

        def span(*args, **kwargs):
            counts[name] += 1
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[key] += dur - child.pop()
                child[-1] += dur

        return functools.wraps(fn)(span)


def _batch_and_order(a) -> tuple[int, int]:
    shape = numpy.shape(a)
    return math.prod(shape[:-2]), shape[-1]


def count_numpy_linalg(tracer: Tracer, linalg) -> None:
    """Time and count the eigensolvers; count QR factorisations. A batched
    call of shape (..., n, n) counts one solve per matrix."""
    for fname in ("eigh", "eigvalsh"):
        timed = tracer.wrap("linalg.eig", getattr(linalg, fname), f"numpy.linalg.{fname}")

        def eig(a, *args, _timed=timed, **kwargs):
            batch, n = _batch_and_order(a)
            tracer.counts["eigensolves"] += batch
            tracer.counts["eig_cost_d3"] += batch * n ** 3
            return _timed(a, *args, **kwargs)

        setattr(linalg, fname, functools.wraps(timed)(eig))

    qr = linalg.qr

    def counted_qr(a, *args, **kwargs):
        tracer.counts["qr"] += _batch_and_order(a)[0]
        return qr(a, *args, **kwargs)

    linalg.qr = functools.wraps(qr)(counted_qr)


class TimedImports:
    """Meta-path finder that records the execution of each module body of
    one package as an import span of that module's layer."""

    def __init__(self, tracer: Tracer, package: str):
        self.tracer = tracer
        self.package = package

    def find_spec(self, name, path=None, target=None):
        if name != self.package and not name.startswith(self.package + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        layer = "package" if name == self.package else name.rpartition(".")[2]
        spec.loader.exec_module = self.tracer.wrap(f"{layer}.import", spec.loader.exec_module, f"import {name}")
        return spec


def _exported(mod: types.ModuleType, package_modules: list) -> set:
    """Ids of the objects defined in ``mod`` that it exports or that another
    package module imported from it."""
    defined = {name: obj for name, obj in vars(mod).items()
               if getattr(obj, "__module__", None) == mod.__name__
               and isinstance(obj, (types.FunctionType, type))}
    public = getattr(mod, "__all__", None)
    if public is None:
        public = [name for name in defined if not name.startswith("_")]
    chosen = {id(defined[name]) for name in public if name in defined}
    wanted = {id(obj) for obj in defined.values()}
    for other in package_modules:
        if other is not mod:
            chosen |= {id(obj) for obj in vars(other).values() if id(obj) in wanted}
    return chosen


def _instrument_class(tracer: Tracer, layer: str, cls: type) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
            continue
        key = f"{layer}.{span_kind(cls.__name__, attr)}"
        name = f"{layer}:{cls.__name__}.{attr}"
        if isinstance(value, types.FunctionType):
            setattr(cls, attr, tracer.wrap(key, value, name))
        elif isinstance(value, (classmethod, staticmethod)):
            setattr(cls, attr, type(value)(tracer.wrap(key, value.__func__, name)))


def instrument(tracer: Tracer, package: str) -> None:
    """Install span wrappers on every layer module already imported."""
    package_modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
    for layer in LAYERS:
        mod = sys.modules.get(f"{package}.{layer}")
        if mod is None:
            continue
        chosen = _exported(mod, package_modules)
        for obj in [o for o in vars(mod).values() if id(o) in chosen]:
            if isinstance(obj, type):
                _instrument_class(tracer, layer, obj)
                continue
            wrapped = tracer.wrap(f"{layer}.{span_kind(None, obj.__name__)}", obj, f"{layer}:{obj.__name__}")
            for other in package_modules:
                for attr, value in list(vars(other).items()):
                    if value is obj:
                        setattr(other, attr, wrapped)


def set_up(tracer: Tracer) -> types.ModuleType:
    """Install the wrappers and import the CLI; returns ``ergokit.cli``."""
    count_numpy_linalg(tracer, numpy.linalg)
    sys.meta_path.insert(0, TimedImports(tracer, "ergokit"))
    cli = importlib.import_module("ergokit.cli")
    instrument(tracer, "ergokit")
    return cli


def main(argv: list) -> int:
    start = time.perf_counter()
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <ergokit argv>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    cli = tracer.wrap("trace.setup", set_up, "trace.setup")(tracer)
    code = cli.main(cli_argv)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"wall_s": wall, "spans_s": tracer.spans_s(), "self_s": dict(tracer.self_s),
                   "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

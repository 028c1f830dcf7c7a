"""Per-layer tracing of mobench by wrapping its public functions.

`Tracer.install()` replaces each public function of the mobench modules
under every module attribute that binds it (`instance.apply_forward` and
`transforms.apply_forward` are the same function), plus
`ParetoArchive.insert` on its class. Each wrapper counts calls and adds up
total time and self time (total minus the time of traced calls made inside
it). `Tracer.restore()` puts every original back.

Run as a script, it traces one `mobench` command line and writes the
totals as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py trace.json run --config c.json
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

MODULES = ("specfun", "transforms", "problems", "instance", "algorithms", "indicators", "harness")
# Modules that re-export names they import; their bindings are wrapped too.
BINDERS = MODULES + ("cli",)


def _points(x) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


# Work counted next to calls and time: name -> (counter, f(args, result)).
COUNTERS = {
    "specfun.reg_inc_beta": ("values", lambda args, res: int(np.size(args[0]))),
    "transforms.apply_forward": ("points", lambda args, res: _points(args[1])),
    "instance.evaluate_instance_batch": ("points", lambda args, res: len(args[1])),
    "indicators.ParetoArchive.insert": ("accepted", lambda args, res: int(bool(res))),
}


class Tracer:
    """Wraps mobench's public functions; `stats` holds the totals by name."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[float] = []  # child time of each open traced call
        self._saved: list[tuple[object, str, object]] = []

    def _record(self, name: str, total: float, child: float, extra: dict | None = None) -> None:
        entry = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += total
        entry["self_s"] += total - child
        for key, value in (extra or {}).items():
            entry[key] = entry.get(key, 0) + value

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += total
            extra = {counter[0]: counter[1](args, result)} if counter else None
            self._record(name, total, child, extra)
            if name == "algorithms.run_algorithm":
                cfg = args[1]
                self._record(f"algorithms.run.{cfg.name}.p{cfg.population}", total, child)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = importlib.import_module("mobench")
        mods = {m: importlib.import_module(f"mobench.{m}") for m in BINDERS}
        binders = [pkg, *mods.values()]
        for short in MODULES:
            mod = mods[short]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for owner in binders:
                    for bound_name, value in list(vars(owner).items()):
                        if value is fn:
                            self._set(owner, bound_name, wrapper)
        archive = mods["indicators"].ParetoArchive
        self._set(archive, "insert", self._wrap("indicators.ParetoArchive.insert", archive.insert))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def main(argv: list[str]) -> int:
    out_path, *cli_args = argv
    from mobench import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
        Path(out_path).write_text(json.dumps(tracer.stats), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Traced launcher: run one painleve-backlund command with layer wrappers.

    python3 perfbench/launch.py OUT.json CMD_KEY ARG...

Installs the wrappers as each package module finishes executing, before any
other module can import a name from it by value, so every by-value binding
(`from .ratfn import ratfn_equal`, `from .groups import _word_on_symbol`, ...)
already refers to the wrapper.  It then calls painleve_backlund.cli.main(ARGS)
and writes the trace to OUT.json at exit.

Two kinds of record, both kept in memory until exit:

* spans at the coarse boundaries (the command, each run_check id, lift_word,
  verify_subgroup_relations, verify_relation, apply_word, the numeric
  checks): name, start, end, parent span and argument; every span of one
  process belongs to the command CMD_KEY;
* per-function counters everywhere else (Poly, EpsSeries, RatFn,
  FactoredFrac kernels, which run up to ~10^6 times per command): calls,
  inclusive time of the outermost calls, self time, plus a few exact
  work counts (term-count products, try_div hits, word-cache misses).

Wrappers return what the wrapped function returns.  The launcher refuses to
run when a module still holds an unwrapped target after import.
"""

from __future__ import annotations

import functools
import importlib.machinery
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = "painleve_backlund"

# module -> [(attribute path, record spans?)]
TARGETS = {
    "exprio": [("parse_expr", False)],
    "poly": [("Poly.__mul__", False), ("Poly.try_div", False)],
    "ratfn": [("RatFn.substitute", False), ("ratfn_equal", False)],
    "factored": [("FactoredFrac.substitute", False), ("substitute_reduced", False)],
    "series": [
        ("EpsSeries.__mul__", False),
        ("EpsSeries.from_ratfn", False),
        ("ratfn_at_series", False),
    ],
    "groups": [
        ("apply_word", True),
        ("verify_relation", True),
        ("_word_on_symbol", False),
    ],
    "degeneration": [
        ("lift_word", True),
        ("lift_generator", False),
        ("verify_subgroup_relations", True),
        ("verify_arrow_data", False),
        ("verify_eps_actions", False),
        ("degenerate_hamiltonian", False),
    ],
    "numeric": [
        ("integrate", False),
        ("_rk4", False),
        ("backlund_numeric_check", True),
        ("degeneration_numeric_check", True),
    ],
    "checks": [("run_check", True)],
}


class Stat:
    __slots__ = ("calls", "total", "self_s", "depth", "work", "hits", "max_terms")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # inclusive time of outermost calls
        self.self_s = 0.0  # minus time spent in other wrapped functions
        self.depth = 0
        self.work = 0  # exact work count, meaning set per function
        self.hits = 0
        self.max_terms = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__ if k != "depth"}


def _poly_mul(stat, args, result, parent):
    a, b = len(args[0].terms), len(args[1].terms)
    stat.work += a * b  # QSqrt2 multiplies done by the schoolbook loop
    stat.max_terms = max(stat.max_terms, a, b, len(result.terms))


def _try_div(stat, args, result, parent):
    if result is not None:
        stat.hits += 1


def _apply_word(stat, args, result, parent):
    if parent == "groups._word_on_symbol":
        stat.hits += 1  # a _word_cache miss


def _rk4(stat, args, result, parent):
    # Computed from the arguments with the integrator's own step rule.
    t0, t1, h = args[3], args[6], args[7]
    stat.work += max(1, round(abs(t1 - t0) / h))


AFTER = {
    "poly.Poly.__mul__": _poly_mul,
    "poly.Poly.try_div": _try_div,
    "groups.apply_word": _apply_word,
    "numeric._rk4": _rk4,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []
        self.frames: list[list] = []  # [child time, name] per active wrapped call
        self.open_spans: list[int] = []
        self.originals: dict[int, str] = {}

    def wrap(self, name: str, fn, span: bool):
        stat = self.stats[name] = Stat()
        self.originals[id(fn)] = name
        frames, spans, open_spans = self.frames, self.spans, self.open_spans
        after = AFTER.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = frames[-1][1] if frames else None
            frame = [0.0, name]
            frames.append(frame)
            if span:
                idx = len(spans)
                arg = args[0] if args and isinstance(args[0], str) else None
                spans.append([name, 0.0, 0.0, open_spans[-1] if open_spans else None, arg])
                open_spans.append(idx)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.depth -= 1
                frames.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if not stat.depth:
                    stat.total += elapsed
                if frames:
                    frames[-1][0] += elapsed
                if span:
                    spans[idx][1] = start
                    spans[idx][2] = start + elapsed
                    open_spans.pop()
            if after is not None:
                after(stat, args, result, parent)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self, short: str, module) -> None:
        for path, span in TARGETS[short]:
            name = f"{short}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, span)))
                else:
                    setattr(cls, attr, self.wrap(name, raw, span))
            else:
                setattr(module, path, self.wrap(name, getattr(module, path), span))

    def unwrapped_bindings(self) -> list[str]:
        """Names in any package module still bound to an original target."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith(PKG):
                continue
            for attr, value in vars(module).items():
                target = self.originals.get(id(getattr(value, "__func__", value)))
                if target is not None:
                    found.append(f"{mod_name}.{attr} -> {target}")
                if isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in vars(value).items():
                        target = self.originals.get(id(getattr(cvalue, "__func__", cvalue)))
                        if target is not None:
                            found.append(f"{mod_name}.{attr}.{cattr} -> {target}")
        return found

    def reset_counts(self) -> dict:
        """Return the counters so far and start new ones (same Stat objects)."""
        snapshot = {name: s.as_dict() for name, s in self.stats.items() if s.calls}
        for s in self.stats.values():
            s.__init__()
        self.spans.clear()
        return snapshot


class _WrapOnLoad:
    """Meta-path finder that wraps a module's targets right after it executes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        prefix, _, short = fullname.partition(".")
        if prefix != PKG or short not in TARGETS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None:
            return None
        loader, tracer = spec.loader, self.tracer
        execute = loader.exec_module

        def exec_module(module):
            execute(module)
            tracer.install(short, module)

        loader.exec_module = exec_module
        return spec


def main(argv: list[str]) -> int:
    out_path, cmd, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    sys.meta_path.insert(0, _WrapOnLoad(tracer))
    start = time.perf_counter()
    import painleve_backlund.cli as cli

    import_s = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != SRC / PKG:
        print(f"launch: imported {cli.__file__}, not the checkout's source", file=sys.stderr)
        return 3
    unwrapped = tracer.unwrapped_bindings()
    if unwrapped:
        print("launch: unwrapped bindings: " + "; ".join(unwrapped), file=sys.stderr)
        return 3
    import_stats = tracer.reset_counts()
    rc = 3
    root = ["command", time.perf_counter(), 0.0, None, cmd]
    tracer.spans.append(root)
    tracer.open_spans.append(0)
    try:
        rc = cli.main(cli_args)
    finally:
        root[2] = time.perf_counter()
        trace = {
            "cmd": cmd,
            "rc": rc,
            "import_s": import_s,
            "import_stats": import_stats,
            "stats": {n: s.as_dict() for n, s in tracer.stats.items() if s.calls},
            "spans": [
                {"cmd": cmd, "name": n, "start": a, "end": b, "parent": p, "arg": x}
                for n, a, b, p, x in tracer.spans
            ],
        }
        with open(out_path, "w") as fh:
            json.dump(trace, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

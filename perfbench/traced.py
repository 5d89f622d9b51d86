"""Run one markovwords command with every call between its layers timed.

Usage: python perfbench/traced.py TRACE_FILE CLI_ARG...   (with src on PYTHONPATH)

The layers are the six modules of the package. Before the command runs,
every function a module imported from another layer is replaced, in the
importing module's namespace, by a timing wrapper; so are the per-item
entry points of ``theorems`` and ``QuadraticSurd.to_decimal``. Recursion
inside a layer goes through the layer's own names and is not spanned.

Each call is charged to its callee and to the layer it was called from.
Direct children of the command are kept as spans (name, start, end,
parent); deeper calls, such as the word operations inside
``markov_value``, only add to per-function counts and times. The command
writes its normal stdout and exit status. At the end the summary is
printed on stderr as the last line and, with the spans, written to
TRACE_FILE.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("words", "diatomic", "tree", "theorems", "spectrum", "cli")


class Tracer:
    def __init__(self) -> None:
        # a frame is [layer, seconds spent in traced callees]
        self.stack: list[list] = []
        self.spans: list[tuple[str, float, float, int]] = []
        # (callee, caller layer) -> [calls, seconds, self seconds]
        self.calls: dict[tuple[str, str], list] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.maxima: dict[str, int] = {}
        self.sums: dict[str, int] = {}
        self.wall = 0.0

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def note_sum(self, key: str, value: int) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def wrap(self, layer: str, fn_name: str, fn, observe=None):
        name = f"{layer}.{fn_name}"
        stack, calls, layer_self, spans = self.stack, self.calls, self.layer_self, self.spans

        def traced(*args, **kwargs):
            caller = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[1]
                caller[1] += elapsed
                layer_self[layer] += own
                entry = calls.get((name, caller[0]))
                if entry is None:
                    entry = calls[(name, caller[0])] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += own
                if len(stack) == 1:
                    spans.append((name, start, end, 0))
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def run(self, main, argv):
        """Run the command as the root span; its self time is the cli layer's own work."""
        root = ["cli", 0.0]
        self.stack.append(root)
        start = perf_counter()
        try:
            return main(argv)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.layer_self["cli"] += (end - start) - root[1]
            self.spans.insert(0, ("cli.main", start, end, -1))
            self.wall = end - start


def _surd_bits(surd) -> int:
    return max(abs(v).bit_length() for v in surd.as_tuple())


def _observe_s_rec(tracer, args, result):
    tracer.note_max("tree.s_rec.max_len", len(result))


def _observe_markov_value(tracer, args, result):
    tracer.note_max("spectrum.markov_value.max_len", len(args[0]))
    tracer.note_max("spectrum.surd_max_bits", _surd_bits(result.value))


def _observe_bqf_min(tracer, args, result):
    radius = args[1]
    tracer.note_sum("spectrum.bqf_min.points", (2 * radius + 1) ** 2 - 1)
    tracer.note_max("spectrum.surd_max_bits", _surd_bits(result.normalized))


OBSERVERS = {
    "tree.s_rec": _observe_s_rec,
    "spectrum.markov_value": _observe_markov_value,
    "spectrum.bqf_min": _observe_bqf_min,
}


def install(tracer: Tracer) -> dict:
    """Wrap the layer boundaries; return the memoised functions by name."""
    modules = {name: importlib.import_module(f"markovwords.{name}") for name in LAYERS}
    caches = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            origin = getattr(obj, "__module__", None) or ""
            if origin == module.__name__ and hasattr(obj, "cache_info"):
                caches[f"{layer}.{attr}"] = obj
            if (not origin.startswith("markovwords.") or origin == module.__name__
                    or isinstance(obj, type) or not callable(obj)
                    or inspect.isgeneratorfunction(obj)):
                continue
            callee = origin.rsplit(".", 1)[1]
            name = f"{callee}.{attr}"
            setattr(module, attr, tracer.wrap(callee, attr, obj, OBSERVERS.get(name)))
    theorems = modules["theorems"]
    for attr in ["verify_shift_palindromic"] + [a for a in vars(theorems) if a.startswith("check_")]:
        setattr(theorems, attr, tracer.wrap("theorems", attr, getattr(theorems, attr)))
    surd = modules["spectrum"].QuadraticSurd
    surd.to_decimal = tracer.wrap("spectrum", "to_decimal", surd.to_decimal)
    return caches


def main(argv: list[str]) -> int:
    trace_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    caches = install(tracer)
    before = {name: fn.cache_info() for name, fn in caches.items()}
    cli = importlib.import_module("markovwords.cli")
    try:
        status = tracer.run(cli.main, cli_args)
    finally:
        sys.stdout.flush()
    cache_stats = {}
    for name, fn in caches.items():
        info, old = fn.cache_info(), before[name]
        cache_stats[name] = {"hits": info.hits - old.hits, "misses": info.misses - old.misses,
                             "size": info.currsize}
    functions: dict[str, dict] = {}
    for (callee, caller), (count, seconds, own) in tracer.calls.items():
        f = functions.setdefault(callee, {"calls": 0, "s": 0.0, "self_s": 0.0, "by_caller": {}})
        f["calls"] += count
        f["s"] += seconds
        f["self_s"] += own
        f["by_caller"][caller] = {"calls": count, "s": seconds}
    summary = {
        "argv": cli_args,
        "wall_s": tracer.wall,
        "layers": tracer.layer_self,
        "functions": functions,
        "caches": cache_stats,
        "maxima": tracer.maxima,
        "sums": tracer.sums,
    }
    with open(trace_file, "w") as fh:
        json.dump({**summary, "spans": tracer.spans}, fh)
    print(json.dumps(summary), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

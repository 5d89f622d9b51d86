"""End-to-end benchmark of the markovwords command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs in a closed loop: a session is a fixed list of commands,
each a fresh ``python -m markovwords.cli`` process with src on PYTHONPATH,
and the next command starts when the previous one has exited. Sessions
repeat until S seconds have passed. Every command's stdout is checked
against the independent oracles in ``oracles.py``; a mismatch, a nonzero
exit or a timeout counts as one failed operation.

Workloads (the seed picks only inputs that leave the work unchanged):

* ``spectrum_session`` -- ``scan --n-max 320 --json``; ``spectrum`` in
  text mode on one of the 30 words of length 466 with index below 8192
  (seed-chosen); ``bqf`` on the Markov forms 1,1,-1 / 1,2,-1 / 5,11,-5 at
  radius 350. The only workload that reaches ``spectrum``.
* ``verify_sweep`` -- ``verify prop-main --n-max 32768`` with
  seed-chosen letters --a/--b (runs past the 4096-entry ``s_rec`` cache
  and formats 32768 lines), then ``verify lemmas --k-max 262144`` (index
  arithmetic in ``theorems`` over many cached ``diatomic`` reads). Never
  reaches ``spectrum``. The two sweeps share a session because the
  lemma sweep alone swings too much between sessions on a shared host.

A session starts only if the longest one so far still fits in S seconds,
so a run ends within S seconds of its first session.

Before each session the fixed reference job ``reference.py`` runs twice
and ``import markovwords.cli`` runs three times, each in a fresh
interpreter. With ``--trace 0`` the last stdout line reports:

* ``wall_norm_s`` -- session time to solution, scaled to a machine that
  runs the reference job in REFERENCE_NOMINAL_S: the run's mean session
  time times REFERENCE_NOMINAL_S over the run's mean reference time. A
  shared host's speed drifts by tens of percent from minute to minute,
  and the reference job, which never changes, drifts with it.
* ``cpu_norm_s`` -- user + sys of the session's processes (from
  ``os.wait4``), scaled the same way by the reference job's user + sys.
* ``peak_rss_mb`` -- the median over sessions of the largest process RSS.
* ``setup_s`` -- interpreter start plus ``import markovwords.cli``,
  scaled like ``wall_norm_s``.

Means are taken without the lowest and highest tenth of the values; the
unscaled session and reference means go in the run record.
With ``--trace 1`` untraced and traced sessions alternate (see
``traced.py``) and the line reports the per-layer metrics instead.
Records and trace files go to ``.perfbench/`` in the repository root.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import oracles
from selftest import run_selftests

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
RUN_BUDGET_S = 170.0  # a run must end within 180 s, whatever happens
SETUP_LAUNCHES = 3  # per session

SCAN_N = 320
SPECTRUM_LENGTH, SPECTRUM_BELOW = 466, 8192
MARKOV_FORMS = (((1, 1, -1), 1), ((1, 2, -1), 2), ((5, 11, -5), 5))
BQF_RADIUS = 350
PROP_N = 32768
LEMMAS_K = 262144
REFERENCE_LAUNCHES = 2  # per session
REFERENCE_OUT = b"537842092\n"
# a round figure near the reference job's time on a 2-vCPU Xeon VM; scaled
# times are session times on a machine that runs the reference job this fast
REFERENCE_NOMINAL_S = 0.25


class Command(NamedTuple):
    args: list[str]  # arguments after ``python -m markovwords.cli``
    check: Callable[[bytes], "str | None"]


class Launch(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: "int | None"  # None when killed on timeout
    out: bytes
    err: bytes


def launch(argv: list[str], timeout: float) -> Launch:
    """Run ``python argv`` in the repository root; rusage comes from this child alone.

    ``os.wait4`` reaps the child, so its ``ru_maxrss`` is not mixed with
    earlier children as ``RUSAGE_CHILDREN`` would be. A child started by
    vfork begins with this process's peak RSS as its own, so the harness
    must stay smaller than the smallest command; its peak goes in the run
    record as ``harness_maxrss_mb``.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            left = start + timeout - time.perf_counter()
            if left <= 0:
                timed_out = True
                os.kill(proc.pid, signal.SIGKILL)
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, wait_status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    proc.stdout.close()
    proc.stderr.close()
    return Launch(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  None if timed_out else proc.returncode,
                  b"".join(chunks[out_fd]), b"".join(chunks[err_fd]))


def run_cli(args: list[str]) -> bytes:
    """Stdout of one small command; used by the self-tests."""
    return launch(["-m", "markovwords.cli", *args], timeout=30.0).out


@functools.cache
def _spectrum_indices() -> list[int]:
    return oracles.indices_of_length(SPECTRUM_LENGTH, SPECTRUM_BELOW)


@functools.cache
def _prop_main_expected() -> bytes:
    return oracles.prop_main_expected(PROP_N)


def spectrum_session(rng: random.Random):
    n = rng.choice(_spectrum_indices())
    period = oracles.s_word(n)
    commands = [
        Command(["scan", "--n-max", str(SCAN_N), "--json"],
                lambda out: oracles.check_scan(out, SCAN_N)),
        Command(["spectrum", "--period", oracles.fmt_word(period)],
                lambda out: oracles.check_spectrum(out, period)),
    ]
    for form, m in MARKOV_FORMS:
        commands.append(Command(
            ["bqf", "--form", ",".join(map(str, form)), "--radius", str(BQF_RADIUS)],
            lambda out, form=form, m=m: oracles.check_bqf(out, form, m, BQF_RADIUS)))
    return {"spectrum_index": n}, commands


def verify_sweep(rng: random.Random):
    a, b = rng.sample(range(1, 10), 2)
    lemmas = oracles.lemmas_expected(LEMMAS_K)
    commands = [
        Command(["verify", "prop-main", "--n-max", str(PROP_N), "--a", str(a), "--b", str(b)],
                lambda out: oracles.check_exact(out, _prop_main_expected(), "prop-main")),
        Command(["verify", "lemmas", "--k-max", str(LEMMAS_K)],
                lambda out: oracles.check_exact(out, lemmas, "lemmas")),
    ]
    return {"a": a, "b": b}, commands


WORKLOADS = {
    "spectrum_session": spectrum_session,
    "verify_sweep": verify_sweep,
}


class Runner:
    """Launches commands, checks them and counts operations for one run."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []

    def _timeout(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def setup(self) -> float:
        """One fresh interpreter that imports the CLI; returns its wall time."""
        result = launch(["-c", "import markovwords.cli"], self._timeout())
        self.attempted += 1
        if result.status != 0:
            self.failures.append(f"setup launch: exit status {result.status}")
        return result.wall_s

    def reference(self) -> Launch:
        """One run of the fixed reference job (``reference.py``)."""
        result = launch([str(Path(__file__).with_name("reference.py"))], self._timeout())
        if result.status != 0 or result.out != REFERENCE_OUT:
            self.failures.append(f"reference job: exit status {result.status}, output {result.out!r}")
        return result

    def session(self, commands: list[Command], trace_stem: "str | None" = None):
        """Run the commands in order; return (wall, cpu, peak rss, traces, stdout lines)."""
        wall = cpu = rss = 0.0
        traces, lines = [], 0
        for k, cmd in enumerate(commands):
            if trace_stem is None:
                argv = ["-m", "markovwords.cli", *cmd.args]
            else:
                argv = [str(Path(__file__).with_name("traced.py")),
                        str(OUT_DIR / f"{trace_stem}-cmd{k}.json"), *cmd.args]
            result = launch(argv, self._timeout())
            self.attempted += 1
            wall += result.wall_s
            cpu += result.cpu_s
            rss = max(rss, result.rss_mb)
            lines += result.out.count(b"\n")
            if result.status is None:
                problem = "timed out"
            elif result.status != 0:
                problem = f"exit status {result.status}"
            else:
                problem = cmd.check(result.out)
            if problem is None and trace_stem is not None:
                try:
                    traces.append(json.loads(result.err.rstrip(b"\n").rsplit(b"\n", 1)[-1]))
                except ValueError:
                    problem = "no trace summary on stderr"
            if problem is not None:
                self.failures.append(f"{' '.join(cmd.args[:2])}: {problem}")
        return wall, cpu, rss, traces, lines


LEMMA_CHECKS = (
    "check_length_identity", "check_length_is_diatomic", "check_half_length_chain",
    "check_factorizations", "check_shift_inequalities", "check_row_symmetry",
    "check_mirror_arithmetic", "check_index_identities", "check_block_exponents",
)


def _from_layer(traces: list[dict], callee: str, caller: str, key: str) -> float:
    return sum(f["by_caller"].get(caller, {}).get(key, 0)
               for t in traces for name, f in t["functions"].items()
               if name.startswith(callee + "."))


def _cache(traces: list[dict], name: str) -> tuple[int, int, int]:
    hits = sum(t["caches"][name]["hits"] for t in traces)
    misses = sum(t["caches"][name]["misses"] for t in traces)
    size = max(t["caches"][name]["size"] for t in traces)
    return hits, misses, size


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(traces: list[dict], lines: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced session, from its per-command summaries."""
    def fn(name: str, key: str) -> float:
        return sum(t["functions"][name][key] for t in traces if name in t["functions"])

    def most(key: str) -> int:
        return max(t["maxima"].get(key, 0) for t in traces)

    out: dict[str, tuple[float, str]] = {}
    for layer in ("words", "diatomic", "tree", "theorems", "spectrum", "cli"):
        out[f"{layer}.self_s"] = (sum(t["layers"][layer] for t in traces), "s")
    out.update({
        "spectrum.markov_value.calls": (fn("spectrum.markov_value", "calls"), "count"),
        "spectrum.markov_value.self_s": (fn("spectrum.markov_value", "self_s"), "s"),
        "spectrum.markov_value.max_len": (most("spectrum.markov_value.max_len"), "letters"),
        "spectrum.to_decimal.s": (fn("spectrum.to_decimal", "s"), "s"),
        "spectrum.bqf_min.s": (fn("spectrum.bqf_min", "s"), "s"),
        "spectrum.bqf_min.points": (sum(t["sums"].get("spectrum.bqf_min.points", 0)
                                        for t in traces), "count"),
        "spectrum.surd_max_bits": (most("spectrum.surd_max_bits"), "bits"),
        "words.from_spectrum.calls": (_from_layer(traces, "words", "spectrum", "calls"), "count"),
        "words.from_spectrum.s": (_from_layer(traces, "words", "spectrum", "s"), "s"),
        "words.from_theorems.calls": (_from_layer(traces, "words", "theorems", "calls"), "count"),
        "words.from_theorems.s": (_from_layer(traces, "words", "theorems", "s"), "s"),
        "tree.s_rec.calls": (fn("tree.s_rec", "calls"), "count"),
        "tree.s_rec.s": (fn("tree.s_rec", "s"), "s"),
        "tree.s_rec.max_len": (most("tree.s_rec.max_len"), "letters"),
    })
    hits, misses, _ = _cache(traces, "tree._s_rec_cached")
    out["tree.s_rec_cache.hit_ratio"] = (_ratio(hits, misses), "ratio")
    out["tree.s_rec_cache.misses"] = (misses, "count")
    out["tree.block_labels.s"] = (fn("tree.block_labels", "s"), "s")
    out["diatomic.stern.calls"] = (fn("diatomic.stern", "calls"), "count")
    out["diatomic.stern.s"] = (fn("diatomic.stern", "s"), "s")
    hits, misses, size = _cache(traces, "diatomic.stern")
    out["diatomic.stern_cache.size"] = (size, "entries")
    out["diatomic.stern_cache.hit_ratio"] = (_ratio(hits, misses), "ratio")
    out["diatomic.a_of.calls"] = (fn("diatomic.a_of", "calls"), "count")
    out["diatomic.a_of.s"] = (fn("diatomic.a_of", "s"), "s")
    out["theorems.verify_shift_palindromic.calls"] = (
        fn("theorems.verify_shift_palindromic", "calls"), "count")
    out["theorems.verify_shift_palindromic.self_s"] = (
        fn("theorems.verify_shift_palindromic", "self_s"), "s")
    for check in LEMMA_CHECKS:
        out[f"theorems.{check}.s"] = (fn(f"theorems.{check}", "s"), "s")
    out["cli.lines"] = (lines, "lines")
    return out


def _median_metrics(samples: list[dict[str, tuple[float, str]]]) -> dict:
    return {name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
            for name, (_, unit) in samples[0].items()}


class Clock:
    """Says whether one more session fits in the run's measuring time."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds
        self.longest = 0.0
        self.started: "float | None" = None

    def another(self) -> bool:
        now = time.perf_counter()
        if self.started is None:
            fits = True
        else:
            self.longest = max(self.longest, now - self.started)
            fits = now + self.longest <= self.end
        self.started = now
        return fits


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth (at least one each, from five values)."""
    values = sorted(values)
    cut = max(1, len(values) // 10) if len(values) >= 5 else 0
    return statistics.fmean(values[cut:len(values) - cut])


def measure(runner: Runner, make_session, seconds: float, record: dict) -> dict:
    walls, cpus, rsss, setups, ref_walls, ref_cpus = [], [], [], [], [], []
    runner.reference()  # warm-up: the first launch after the self-tests runs slow
    clock = Clock(seconds)
    while clock.another():
        inputs, commands = make_session()
        record["inputs"].append(inputs)
        for _ in range(REFERENCE_LAUNCHES):
            ref = runner.reference()
            ref_walls.append(ref.wall_s)
            ref_cpus.append(ref.cpu_s)
        setups.extend(runner.setup() for _ in range(SETUP_LAUNCHES))
        wall, cpu, rss, _, _ = runner.session(commands)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
    record["samples"] = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsss, "setup_s": setups,
                         "reference_wall_s": ref_walls, "reference_cpu_s": ref_cpus}
    wall, cpu, setup = trimmed_mean(walls), trimmed_mean(cpus), trimmed_mean(setups)
    ref_wall, ref_cpu = trimmed_mean(ref_walls), trimmed_mean(ref_cpus)
    record["unscaled"] = {"wall_s": wall, "cpu_s": cpu, "setup_s": setup,
                          "reference_wall_s": ref_wall, "reference_cpu_s": ref_cpu}
    return {
        "wall_norm_s": {"value": wall * REFERENCE_NOMINAL_S / ref_wall, "unit": "s"},
        "cpu_norm_s": {"value": cpu * REFERENCE_NOMINAL_S / ref_cpu, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rsss), "unit": "MB"},
        "setup_s": {"value": setup * REFERENCE_NOMINAL_S / ref_wall, "unit": "s"},
    }


def measure_traced(runner: Runner, make_session, seconds: float, record: dict,
                   stem: str) -> dict:
    plain_walls, traced_walls, samples = [], [], []
    clock = Clock(seconds)
    while clock.another():
        inputs, commands = make_session()
        record["inputs"].append(inputs)
        plain_walls.append(runner.session(commands)[0])
        wall, _, _, traces, lines = runner.session(commands, trace_stem=stem)
        traced_walls.append(wall)
        if len(traces) == len(commands):
            samples.append(layer_metrics(traces, lines))
    record["samples"] = {"plain_wall_s": plain_walls, "traced_wall_s": traced_walls}
    if not samples:
        return {}
    metrics = _median_metrics(samples)
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_walls) - statistics.median(plain_walls), "unit": "s"}
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "markovwords" / "cli.py").is_file():
        print(f"error: no markovwords sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(time.perf_counter() + RUN_BUDGET_S)
    rng = random.Random(args.seed)
    make_session = functools.partial(WORKLOADS[args.workload], rng)
    # the self-tests' launches also write the bytecode caches before any timing
    wrong_selftests = run_selftests(run_cli)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "inputs": []}
    stem = f"trace-{args.workload}-seed{args.seed}"
    if args.trace:
        metrics = measure_traced(runner, make_session, args.seconds, record, stem)
    else:
        metrics = measure(runner, make_session, args.seconds, record)
    record.update(failures=runner.failures, selftest_wrong=wrong_selftests,
                  harness_maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    for problem in wrong_selftests:
        print(f"selftest went wrong: {problem}", file=sys.stderr)
    for problem in runner.failures[:10]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "inputs": record["inputs"]}))
    print(json.dumps({
        "correct": not runner.failures and not wrong_selftests and bool(metrics),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

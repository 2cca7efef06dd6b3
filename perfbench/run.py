"""Benchmark for cesarospaces: one client, closed loop, seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0

Workloads are ``queries``, ``crosscheck`` and ``verify`` (see
workloads.py).  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it wraps every library module and prints the per-layer
metrics and the tracing overhead instead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout that holds this
file; nothing is installed.  Scratch files go under ``.perfbench-out/`` in
that checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_REPEATS = 3       # fresh interpreters per run for setup_s
CLI_REPEATS = 5         # cold command-line calls per traced run
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
CHILD_TIMEOUT_S = 120

# Time metrics are reported at a fixed machine speed: the speed at which
# ``reference_loop`` takes REFERENCE_S.  The loop runs after every request,
# outside its timed span, and a request's time is scaled by REFERENCE_S over
# the median loop time of the 2 * PROBE_WINDOW + 1 requests around it.  On
# the 2-vCPU machine this was written on, the same work ran up to 40 %
# slower for tens of seconds at a time, and the loop slowed with it.
REFERENCE_S = 1.25e-3
PROBE_WINDOW = 4

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    from tracer import LAYER_METRICS
    units = {}
    for name in LAYER_METRICS:
        if name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.endswith((".calls", "_per_decision", ".families_tried")):
            units[name] = "count"
        else:
            units[name] = "s"
    units["setup.import_s"] = "s"
    units["cli.cold_start_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _self_command(args: argparse.Namespace, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed), *extra]


# ---------------------------------------------------------------------------
# child modes


def setup_child(args: argparse.Namespace) -> int:
    """Import the library, build the first round, report, exit."""
    t0 = time.perf_counter()
    import cesarospaces  # noqa: F401
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS
    next(WORKLOADS[args.workload].rounds(args.seed))
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


def replay_child(args: argparse.Namespace) -> int:
    """Run the first ``--replay`` requests untraced; report their busy
    seconds at reference speed."""
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    latencies, loop_s = [], []
    left = args.replay
    for rnd in wl.rounds(args.seed):
        for req in rnd[:left]:
            t0 = time.perf_counter()
            try:
                wl.execute(req)
            except Exception:  # failed requests are timed in the pass too
                pass
            latencies.append(time.perf_counter() - t0)
            loop_s.append(reference_loop())
        left -= len(rnd)
        if left <= 0:
            break
    print(json.dumps({"busy_s": sum(at_reference_speed(latencies, loop_s))}),
          flush=True)
    return 0


def _run_child(cmd: list[str]) -> tuple[float, dict]:
    """Start a child, return (seconds until its first line, that line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(),
                            cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not line:
        raise RuntimeError(f"child {cmd[2:]} exited with {code}")
    return elapsed, json.loads(line)


# ---------------------------------------------------------------------------
# measured pass


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of float, dict and call work."""
    t0 = time.perf_counter()
    d: dict[int, float] = {}
    s = 0.0
    for i in range(3000):
        x = (i * 0.37) % 1.7
        d[i & 63] = d.get(i & 63, 0.0) + x * x
        s += abs(x - 0.5) ** 1.5
    return time.perf_counter() - t0


def speed(loop_s: list[float]) -> float:
    """Machine speed relative to the reference, from loop times."""
    return REFERENCE_S / statistics.median(loop_s)


def at_reference_speed(latencies: list[float],
                       loop_s: list[float]) -> list[float]:
    """Each latency scaled by the loop times of the requests around it."""
    return [lat * speed(loop_s[max(j - PROBE_WINDOW, 0):j + PROBE_WINDOW + 1])
            for j, lat in enumerate(latencies)]


class Pass:
    """Closed loop over whole cycles of ``CYCLE_ROUNDS`` rounds until the
    busy time nears the window; at least one cycle however short the
    window.

    Every round fills the same slots, so each slot is timed once per round,
    and its figure is the mean over its rounds.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.idents: list[int] = []
        self.loop_s: list[float] = []    # reference loop after each request
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.rounds = 0
        self.round_len = 0
        self.busy = 0.0

    def run(self, wl, seed: int, seconds: float, tracer=None,
            between=None) -> "Pass":
        from workloads import CYCLE_ROUNDS
        for rnd in wl.rounds(seed):
            for req in rnd:
                self.attempted += 1
                err = group = None
                if tracer is not None:
                    tracer.request = self.attempted
                    tracer.active = True
                t0 = time.perf_counter()
                try:
                    out = wl.execute(req)
                except Exception as exc:  # any exception is a failed answer
                    err = f"{type(exc).__name__}: {exc}"
                    group = f"{req.kind}: raised {type(exc).__name__}"
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.active = False
                self.latencies.append(t1 - t0)
                self.idents.append(req.ident)
                self.loop_s.append(reference_loop())
                self.busy += t1 - t0
                if err is None:
                    group = f"{req.kind}: wrong answer"
                    try:
                        err = wl.check(req, out)
                    except Exception as exc:
                        err = f"check raised {type(exc).__name__}: {exc}"
                        group = (f"{req.kind}: check raised "
                                 f"{type(exc).__name__}")
                if err is not None:
                    self.failures.append(
                        (group, f"{req.document.strip()[:160]}: {err}"))
                if between is not None:
                    between(self)
            self.rounds += 1
            self.round_len = len(rnd)
            # stop at the cycle boundary nearest to the window
            cycles, part = divmod(self.rounds, CYCLE_ROUNDS)
            if not part and self.busy + 0.5 * self.busy / cycles >= seconds:
                return self
        return self

    def end_to_end(self) -> dict[str, float]:
        """Throughput and latencies at reference speed, over the mean
        latency of each slot.  A slot's inputs differ in cost from round to
        round (a step function of one piece or of six); the mean weighs
        them as the mix does, where a median of three would jump between
        them."""
        rounds: dict[int, list[float]] = defaultdict(list)
        for ident, lat in zip(self.idents,
                              at_reference_speed(self.latencies, self.loop_s)):
            rounds[ident].append(lat)
        lat = sorted(statistics.fmean(v) for v in rounds.values())
        n = len(lat)
        return {
            "throughput_rps": n / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": lat[max(n - TAIL_BEYOND - 1, 0)] * 1e3,
        }

    def tail_percentile(self) -> float:
        n = len(set(self.idents))
        return 100.0 * max(n - TAIL_BEYOND, 0) / n


# ---------------------------------------------------------------------------
# command line measurements


def _write_docs(tmp: Path, i: int, fdoc: str, xdoc: str) -> tuple[str, str]:
    fpath, xpath = tmp / f"f{i}.json", tmp / f"x{i}.json"
    fpath.write_text(fdoc, encoding="utf-8")
    xpath.write_text(xdoc, encoding="utf-8")
    return str(fpath), str(xpath)


def cold_cli(tmp: Path, i: int, fdoc: str, xdoc: str,
             failures: list[tuple[str, str]]) -> float:
    """Wall time of one ``python -m cesarospaces.cli oc-point --method all``."""
    from cesarospaces import documents as dc
    from cesarospaces import oc
    fpath, xpath = _write_docs(tmp, i, fdoc, xdoc)
    cmd = [sys.executable, "-m", "cesarospaces.cli", "oc-point",
           "--function", fpath, "--space", xpath, "--method", "all"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        failures.append((f"cold cli: exit {proc.returncode}",
                         proc.stderr[-200:]))
        return elapsed
    try:
        want = oc.oc_point(dc.load_function(fdoc), dc.load_space(xdoc),
                           method="all")
    except Exception as exc:  # the check failed, not the benchmark
        failures.append((f"cold cli: check raised {type(exc).__name__}",
                         str(exc)))
        return elapsed
    got = json.loads(proc.stdout)
    if (got["verdict"], got["rule"]) != (want.verdict, want.rule):
        failures.append(("cold cli: wrong answer",
                         f"verdict {got['verdict']}/{got['rule']} != "
                         f"{want.verdict}/{want.rule}"))
    return elapsed


class Setups:
    """Setup children spread evenly over the measured pass (between
    requests, outside their timed spans), so their median sees the same
    machine as the requests do."""

    def __init__(self, args):
        self.args = args
        self.setup_s: list[float] = []
        self.marks = [(k + 1) * args.seconds / (SETUP_REPEATS + 1)
                      for k in range(SETUP_REPEATS)]

    def _setup(self) -> None:
        elapsed, _ = _run_child(_self_command(self.args, "--setup-only"))
        self.setup_s.append(elapsed)

    def step(self, run: Pass) -> None:
        while self.marks and run.busy >= self.marks[0]:
            self.marks.pop(0)
            self._setup()

    def finish(self) -> None:
        while self.marks:
            self.marks.pop(0)
            self._setup()


def traced_cli(seed: int, tmp: Path, tracer,
               failures: list[tuple[str, str]]) -> int:
    """The command-line layer in process, traced: oc-point and verify."""
    from cesarospaces import cli
    from workloads import cli_documents
    calls = 0
    for i, (fdoc, xdoc) in enumerate(cli_documents(seed, CLI_REPEATS)):
        fpath, xpath = _write_docs(tmp, i, fdoc, xdoc)
        out = str(tmp / f"out{i}.txt")
        for argv in (["oc-point", "--function", fpath, "--space", xpath,
                      "--method", "all", "--adversarial", "4",
                      "--seed", str(seed), "--out", out],
                     ["verify", "--function", fpath, "--space", xpath,
                      "--out", out]):
            calls += 1
            tracer.active = True
            try:
                code = cli.main(argv)
                if code != 0:
                    failures.append((f"cli {argv[0]}: exit {code}", fdoc))
            except Exception as exc:  # uncaught by the front end
                failures.append((f"cli {argv[0]}: raised "
                                 f"{type(exc).__name__}", str(exc)))
            finally:
                tracer.active = False
    return calls


# ---------------------------------------------------------------------------


def machine() -> dict[str, str]:
    import numpy
    import scipy
    return {"nproc": str(os.cpu_count()), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def emit(metrics: dict[str, float], units: dict[str, str], attempted: int,
         failures: list[tuple[str, str]]) -> None:
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    print(f"  error_rate {len(failures) / attempted:.6g} "
          f"({len(failures)} failed of {attempted} attempted)")
    # grouped by request kind and exception class, so that a new class or a
    # higher count than the README records stands out
    for group, n in sorted(Counter(g for g, _ in failures).items()):
        print(f"  FAILURES {n:5d}  {group}")
    for group, detail in failures[:20]:
        print(f"  FAILED [{group}] {detail}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


def main_run(args) -> int:
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(machine()))
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        if args.trace:
            return traced_run(args, wl, tmp)
        setups = Setups(args)
        run = Pass().run(wl, args.seed, args.seconds, between=setups.step)
        setups.finish()
        metrics = {"setup_s": statistics.median(setups.setup_s),
                   **run.end_to_end(),
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        print(f"  {run.rounds} rounds of {run.round_len} requests in "
              f"{run.busy:.3f} s busy; tail is p{run.tail_percentile():.2f} "
              f"of {run.round_len} mean latencies; machine at "
              f"{speed(run.loop_s):.3f} of reference speed")
        print("  setup children "
              + " ".join(f"{x:.4f}" for x in setups.setup_s) + " s")
        emit(metrics, END_TO_END, run.attempted, run.failures)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def traced_run(args, wl, tmp: Path) -> int:
    import tracer as tr
    import_s = statistics.median(
        _run_child(_self_command(args, "--setup-only"))[1]["import_s"]
        for _ in range(SETUP_REPEATS))
    tracer = tr.Tracer()
    tracer.install()
    try:
        run = Pass().run(wl, args.seed, args.seconds, tracer)
        workload = tracer.totals()
        failures = run.failures
        cli_calls = traced_cli(args.seed, tmp, tracer, failures)
        both = tracer.totals()
    finally:
        tracer.uninstall()
    from workloads import cli_documents
    cold_s = [cold_cli(tmp, i, *docs, failures)
              for i, docs in enumerate(cli_documents(args.seed, CLI_REPEATS))]
    # the workload per round, plus the fixed command-line calls once, so a
    # faster library (more rounds per run) leaves the figures per round
    metrics = tr.metrics({name: total / run.rounds + both[name] - total
                          for name, total in workload.items()})
    # untraced replay of a prefix in a fresh interpreter, for the overhead;
    # both sides at reference speed, as they ran at different times
    k, raw = 0, 0.0
    while k < len(run.latencies) and raw < run.busy / 3.0:
        raw += run.latencies[k]
        k += 1
    traced = sum(at_reference_speed(run.latencies, run.loop_s)[:k])
    _, replay = _run_child(_self_command(args, "--replay", str(k)))
    metrics["setup.import_s"] = import_s
    metrics["cli.cold_start_s"] = statistics.median(cold_s)
    metrics["trace.overhead"] = traced / replay["busy_s"]
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.dump(str(spans_path))
    print(f"  {run.rounds} rounds of {run.round_len} requests traced in "
          f"{run.busy:.3f} s; {tracer.spans()} spans written to "
          f"{spans_path.relative_to(ROOT)}")
    print(f"  overhead: first {k} requests took {traced:.3f} s traced, "
          f"{replay['busy_s']:.3f} s untraced, at reference speed; "
          f"per-layer figures are per "
          f"round plus {cli_calls} in-process command-line calls")
    print("  cold command-line calls " + " ".join(f"{x:.4f}" for x in cold_s)
          + " s")
    emit(metrics, per_layer_units(), run.attempted + cli_calls + CLI_REPEATS,
         failures)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["queries", "crosscheck", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cesarospaces" / "__init__.py").is_file():
        print(f"error: no cesarospaces package under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the run and its children, so the reference loop runs on
    # the CPU whose speed it stands for
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.setup_only:
        return setup_child(args)
    if args.replay:
        return replay_child(args)
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())

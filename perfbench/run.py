"""blueweyl benchmark: workloads, end-to-end metrics, and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload so5-weyl --seed 1 --seconds 55 --trace 0

The load generator is a closed loop with one client: the next query starts
only after the previous worker process has exited, so at most one worker is
busy at a time.  Every query runs in a fresh interpreter (cold process, cold
caches), as a CLI user pays it.  ``--trace 0`` measures the end-to-end
metrics, wall and CPU time scaled to a reference host speed (see
``Reference``).
``--trace 1`` makes one traced pass and derives the per-layer
metrics from spans recorded around calls into each module (see tracer.py);
each traced query runs back to back with an untraced one, which gives the
tracing overhead.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the per-step figures.  Spans and scratch files are written
to ``.bench_work/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import self_times

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"
SETUP_REPEATS = 21
DEADLINE_S = 165  # the whole run, set-up included, ends well within 180 s


def ladder_cli_queries(seed: int) -> list[tuple[list[str], str]]:
    """(argv, model) of every ladder-cli query; the oracles sample with ``seed``."""
    queries = [(["spec", m], m) for m in ("sl:3", "sl:4")]
    queries += [(["rank-space", m], m) for m in
                ("sl:3", "sl:4", "gl:3", "sp:4", "so:4", "o:4", "nstorus", "levi:3:2,1")]
    queries += [(["weyl", "psl2-adj"], "psl2-adj"),
                (["tits-points", "sl:3", "--m", "2"], "sl:3"),
                (["--seed", str(seed), "oracle", "psl2-conj"], "psl2-conj"),
                (["--seed", str(seed), "oracle", "psl2-adj"], "psl2-adj"),
                (["points", "--model", "sl:2", "--semiring", "boolean",
                  "--check", "[1, 0, 0, 1]"], "sl:2"),
                (["points", "--model", "sl:2", "--semiring", "tropical",
                  "--check", "[0, 5, 7, 0]"], "sl:2")]
    return queries


# each query is one `python -m blueweyl.cli` process
WORKLOADS = {
    "so5-weyl": lambda seed: [(["weyl", "so:5"], "so:5")],
    "ladder-cli": ladder_cli_queries,
}


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


class Deadline(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# The host's CPUs and their shared last-level cache serve other tenants, and
# the workers' speed drifts by 20-50 % over tens of seconds to minutes.  A
# fixed task in this process that, like the workers, builds and probes a dict
# of tens of MB tracks that drift when it is timed all through the run.
# Wall and CPU time are scaled by REFERENCE_S / (median time of the task in
# the run), i.e. to a host on which the task takes REFERENCE_S.
REFERENCE_S = 0.125
REFERENCE_EVERY_S = 2.0
REFERENCE_KEYS = 60000


def reference_task() -> float:
    """Time one fixed task: build a dict of frozenset keys, then probe it."""
    t0 = time.perf_counter()
    n = REFERENCE_KEYS
    keys = [frozenset(((i * 2654435761) % 1000003, i % 977, (i * 31) % 100003))
            for i in range(n)]
    index = {key: i for i, key in enumerate(keys)}
    total = sum(index[keys[(i * 7919) % n]] for i in range(n))
    if total != n * (n - 1) // 2:
        raise AssertionError("reference task miscounted")
    return time.perf_counter() - t0


class Reference:
    """Samples of the reference task, one per REFERENCE_EVERY_S of the run."""

    def __init__(self):
        self.samples: list[float] = []
        self.next_at = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() >= self.next_at

    def sample(self) -> None:
        self.samples.append(reference_task())
        self.next_at = time.perf_counter() + REFERENCE_EVERY_S

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


def spawn(argv: list[str], deadline: float, stderr_path: Path,
          ref: Reference | None = None) -> dict:
    """Run one worker to completion within ``deadline``.

    Returns stdout, exit code, and the wall and CPU times and the peak
    resident set of that process alone (from wait4).  With ``ref``, the
    worker is stopped (SIGSTOP) whenever a reference sample is due, and the
    time it spends stopped is not part of its wall time.
    """
    with open(stderr_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
    fd = proc.stdout.fileno()
    chunks = []
    stopped_s = 0.0
    status = usage = None
    try:
        while True:
            now = time.perf_counter()
            left = deadline - now
            wait = left if ref is None or status is not None else min(left, ref.next_at - now)
            if select.select([fd], [], [], max(0.0, wait))[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
            elif time.perf_counter() >= deadline:
                proc.kill()
                raise Deadline(" ".join(argv))
            elif ref is not None and status is None and ref.due():
                t_stop = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                _, code, rusage = os.wait4(proc.pid, os.WUNTRACED)
                if os.WIFSTOPPED(code):
                    try:
                        ref.sample()
                    finally:  # never leave the worker stopped
                        os.kill(proc.pid, signal.SIGCONT)
                    stopped_s += time.perf_counter() - t_stop
                else:  # it had exited and is now reaped
                    status, usage = code, rusage
    finally:
        proc.stdout.close()
        if status is None:
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    t_exit = time.perf_counter()
    return {"stdout": b"".join(chunks), "code": proc.returncode,
            "t_spawn": t_spawn, "t_exit": t_exit,
            "wall_s": t_exit - t_spawn - stopped_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def last_json(stdout: bytes):
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def py(*args) -> list[str]:
    return [sys.executable, *map(str, args)]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_cli(expected: dict, argv: list[str], run: dict) -> bool:
    if run["code"] != 0:
        return False
    if "oracle" in argv:
        answer = last_json(run["stdout"])
        pinned = expected["oracle"][argv[-1]]
        return answer is not None and all(answer.get(k) == v for k, v in pinned.items())
    return hashlib.sha256(run["stdout"]).hexdigest() == expected["cli"][" ".join(argv)]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Bench:
    """One workload: its steps, their output checks, and the failure count.

    A step is one CLI query in its own worker process.  A pass is every step
    once.
    """

    def __init__(self, name: str, seed: int, deadline: float):
        self.name = name
        self.queries = WORKLOADS[name](seed)
        self.seed = seed
        self.deadline = deadline
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def steps(self) -> list:
        """The workload's steps in one order per seed."""
        queries = list(self.queries)
        random.Random(self.seed).shuffle(queries)
        return queries

    def run_step(self, step, spans: Path | None = None,
                 ref: Reference | None = None) -> dict:
        """Run one step in a fresh worker and check its answer."""
        argv, model = step
        if spans is None:
            command = py("-m", "blueweyl.cli", *argv)
        else:
            spans.unlink(missing_ok=True)
            command = py(WORKER, "cli", "--spans", spans, "--model", model, "--", *argv)
        run = spawn(command, self.deadline, WORK / "stderr.txt", ref)
        self.attempted += 1
        if not check_cli(self.expected, argv, run):
            self._fail(" ".join(argv))
        run.update(label=" ".join(argv), spans=spans)
        return run

    def setup_time(self) -> float:
        """Fresh-interpreter import plus construction of the workload's models."""
        models = sorted({model for _, model in self.queries})
        argv = py(WORKER, "setup", *models)
        run = spawn(argv, self.deadline, WORK / "stderr.txt")
        answer = last_json(run["stdout"]) if run["code"] == 0 else None
        if answer is None:
            raise SystemExit("set-up failed: " + (WORK / "stderr.txt").read_text()[-2000:])
        if not Path(answer["package"]).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"blueweyl was imported from {answer['package']}, "
                             f"not from {ROOT / 'src'}")
        return answer["setup_s"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Cycle through the steps until ``seconds`` are spent, each at least once.

    A pass figure is the sum over steps of each step's median, so a burst of
    load from elsewhere on the host moves one sample of one step, not the
    pass.  Set-up is sampled before, between and after the steps, so it too
    sees the whole run rather than one moment of it.  The reference task is
    sampled every REFERENCE_EVERY_S through the steps, between them or with
    the running worker stopped, so its median weighs every part of the run
    alike, including the inside of a long query.
    """
    bench.setup_time()  # untimed: writes the checkout's bytecode cache
    setups = [bench.setup_time() for _ in range(SETUP_REPEATS // 2)]
    steps = bench.steps()
    samples: list[list[dict]] = [[] for _ in steps]
    every = max(1, len(steps) // 4)
    ref = Reference()
    t0 = time.perf_counter()
    k = 0
    while True:
        if ref.due():
            ref.sample()
        samples[k % len(steps)].append(bench.run_step(steps[k % len(steps)], ref=ref))
        k += 1
        if k % every == 0:
            setups.append(bench.setup_time())
        elapsed = time.perf_counter() - t0
        if k >= len(steps) and elapsed + samples[k % len(steps)][0]["wall_s"] > seconds:
            break
    ref.sample()
    setups += [bench.setup_time() for _ in range(SETUP_REPEATS - len(setups))]

    def total(key):
        return sum(statistics.median(r[key] for r in runs) for runs in samples)

    unscaled = {"wall_s": total("wall_s"), "cpu_s": total("cpu_s")}
    values = {k: v * ref.scale() for k, v in unscaled.items()}
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = max(statistics.median(r["rss_mb"] for r in runs)
                                for runs in samples)
    detail = {"unscaled": unscaled, "scale": ref.scale(), "reference_s": ref.samples,
              "steps": [{"step": runs[0]["label"], "wall_s": [r["wall_s"] for r in runs]}
                        for runs in samples],
              "setup_s": setups}
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}, detail


def _first_per_model(spans: list[dict], name: str) -> dict:
    first = {}
    for s in spans:
        if s["name"] == name and s["info"] is not None:
            first.setdefault(s["model"], s["info"])
    return first


def traced_wall(run: dict, record: dict) -> float:
    """Wall time of a traced worker up to its answer (writing spans excluded)."""
    return run["wall_s"] - (record["t_end"] - record["t_done"])


def paired_pass(bench: Bench) -> tuple[list[dict], list[dict]]:
    """Every step once traced and once untraced, the two back to back.

    Which of the pair runs first alternates from step to step, and the seed
    picks the order of the first pair, so drift on the host falls on both
    sides of the pair alike.
    """
    traced, untraced = [], []
    for i, step in enumerate(bench.steps()):
        spans = WORK / f"spans-{bench.name}-{i}.json"
        for trace in ((True, False) if (i + bench.seed) % 2 == 0 else (False, True)):
            if trace:
                traced.append(bench.run_step(step, spans))
            else:
                untraced.append(bench.run_step(step))
    return traced, untraced


def trace_metrics(bench: Bench) -> tuple[dict, dict]:
    spans, procs = [], []
    traced, untraced = paired_pass(bench)
    for qid, run in enumerate(traced):
        if run["spans"].is_file():
            record = json.loads(run["spans"].read_text())
        else:  # the worker failed before its answer; the check counted it
            record = {"spans": [], "unpatched": [],
                      "t_done": run["t_exit"], "t_end": run["t_exit"]}
        base = len(spans)
        for name, start, end, parent, model, info in record["spans"]:
            spans.append({"name": name, "start": start, "end": end,
                          "parent": None if parent is None else base + parent,
                          "workload": bench.name, "model": model, "query": qid,
                          "info": info})
        procs.append((run, record, base, len(spans)))
    own = self_times([[s["name"], s["start"], s["end"], s["parent"]] for s in spans])

    def self_sum(*names):
        return sum(t for s, t in zip(spans, own) if s["name"] in names)

    def total(*names):
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    # the second rank_space call per model and process (natural or added)
    repeat = 0.0
    for _, _, lo, hi in procs:
        seen: dict = {}
        for s in spans[lo:hi]:
            if s["name"] in ("weyl.rank_space", "weyl.rank_space_repeat"):
                seen[s["model"]] = seen.get(s["model"], 0) + 1
                if seen[s["model"]] == 2:
                    repeat += s["end"] - s["start"]

    # the CLI's own work (arguments, payloads, JSON) is the self time of its
    # cli.run span; the residual is what no library layer or set-up explains
    answered = covered = residual = 0.0
    for run, record, lo, hi in procs:
        wall = record["t_done"] - run["t_spawn"]
        top = [i for i in range(lo, hi)
               if spans[i]["parent"] is None and spans[i]["end"] <= record["t_done"]]
        library = [i for i in range(lo, hi) if spans[i]["parent"] in top
                   and spans[spans[i]["parent"]]["name"] == "cli.run"]
        library += [i for i in top if spans[i]["name"] != "cli.run"]
        answered += wall
        covered += sum(spans[i]["end"] - spans[i]["start"] for i in top)
        residual += wall - sum(spans[i]["end"] - spans[i]["start"] for i in library)
    traced_walls = [traced_wall(run, record) for run, record, _, _ in procs]
    overheads = [t - u["wall_s"] for t, u in zip(traced_walls, untraced)]

    certified = _first_per_model(spans, "weyl.pseudo_hopf")
    todo = {m: info["certified_points"] for m, info in certified.items()}
    todo_path = WORK / f"classify-{bench.name}.json"
    todo_path.write_text(json.dumps(todo))
    run = spawn(py(WORKER, "classify", todo_path), bench.deadline, WORK / "stderr.txt")
    classified = last_json(run["stdout"]) if run["code"] == 0 else None
    if classified is None:
        raise SystemExit("classification failed: " + (WORK / "stderr.txt").read_text()[-2000:])

    def counted(name, key="n"):
        return sum(info[key] for info in _first_per_model(spans, name).values())

    values = {
        "catalog.build_s": (total("catalog.build"), "s"),
        "blueprint.saturate_s": (self_sum("blueprint.saturate"), "s"),
        "blueprint.saturated_relations": (counted("blueprint.saturate"), "count"),
        "blueprint.classify_s": (classified["classify_s"], "s"),
        "blueprint.classified_points": (classified["classified_points"], "count"),
        "spectrum.enumerate_s": (self_sum("spectrum.enumerate"), "s"),
        "spectrum.points": (counted("spectrum.enumerate"), "count"),
        "spectrum.poset_s": (self_sum("spectrum.poset", "spectrum.components"), "s"),
        "weyl.pseudo_hopf_s": (self_sum("weyl.pseudo_hopf"), "s"),
        "weyl.certified": (counted("weyl.pseudo_hopf", "certified"), "count"),
        "weyl.unknown": (counted("weyl.pseudo_hopf", "unknown"), "count"),
        "weyl.fast_scan_est_s": (self_sum("weyl.pseudo_hopf") - classified["classify_s"], "s"),
        "weyl.rank_space_repeat_s": (repeat, "s"),
        "weyl.law_s": (self_sum("weyl.law"), "s"),
        "weyl.tits_s": (self_sum("weyl.tits"), "s"),
        "weyl.rank_points": (counted("weyl.rank_space"), "count"),
        "patterns.sample_s": (self_sum("patterns.sample"), "s"),
        "patterns.compare_s": (self_sum("patterns.compare"), "s"),
        "patterns.patterns": (sum(s["info"]["n"] for s in spans
                                  if s["name"] == "patterns.compare" and s["info"]), "count"),
        "semirings.is_point_s": (total("semirings.is_point"), "s"),
        "cli.residual_s": (residual, "s"),
        "trace.coverage": (covered / answered, "ratio"),
        "trace.wall_s": (sum(traced_walls), "s"),
        "trace.overhead_s": (sum(overheads), "s"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    (WORK / f"spans-{bench.name}-seed{bench.seed}.json").write_text(
        json.dumps({"workload": bench.name, "seed": bench.seed, "spans": spans}))
    detail = {"untraced_wall_s": sum(u["wall_s"] for u in untraced),
              "overhead_s_per_step": {run["label"]: d for run, d in zip(traced, overheads)},
              "unpatched_layers": sorted({u for _, r, _, _ in procs for u in r["unpatched"]})}
    return metrics, detail


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {"commit": git_commit(), "source_sha256": source_digest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "load1_start": os.getloadavg()[0],
            "generator": "closed loop, one client, one worker process at a time"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "blueweyl" / "__init__.py").is_file():
        print(f"no blueweyl sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = environment(args)
    bench = Bench(args.workload, args.seed, deadline)
    try:
        if args.trace:
            metrics, detail = trace_metrics(bench)
        else:
            metrics, detail = measure(bench, args.seconds)
    except Deadline as late:
        print(f"run exceeded {DEADLINE_S} s at: {late}", file=sys.stderr)
        return 3
    env["load1_end"] = os.getloadavg()[0]
    detail.update(fail_ratio=bench.failed / bench.attempted, failures=bench.failures)
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

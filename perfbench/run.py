"""End-to-end and per-layer benchmark of the qiso command line.

    python3 perfbench/run.py --workload tree-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``qiso`` is imported from its ``src/``.
One client drives ``qiso.cli.main`` in-process in a closed loop: each
command starts when the previous one has returned. Every output is
checked from outside the program (see ``checks.py``).

``--trace 0`` first times set-up (``setup_s``: a fresh interpreter that
imports ``qiso.cli`` and generates the inputs, median of five after one
warm-up), then runs instances until ``--seconds`` have passed and reports
the end-to-end metrics. Every timed call is scaled by the speed probes
that bracket it (see ``probe.py``); raw wall-time medians are kept on the
detail line. ``--trace 1`` runs the fixed digest instances
twice, untraced and then traced, and reports the per-layer metrics of the
traced pass; both passes must produce identical output digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is a JSON object with every metric and its sample count, the output
digest, and provenance; the same object is saved under
``.perfbench_runs/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import probe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# Gated metrics: every workload reports them. The other timings
# (all_roots_s, analyze_s, weights_s, the p90s) and failed_ratio are
# reported, with their sample counts, on the detail line only.
END_TO_END = ("setup_s", "instances_per_s", "simplify_s", "verify_s", "peak_rss_mb")


class Session:
    """Runs commands in-process, times them, and counts failed operations.

    Every timed call is bracketed by two runs of ``probe``; a call's
    *scaled* time is its wall time times ``probe.scale`` (see probe.py).
    """

    def __init__(self, cli):
        self.cli = cli
        self.calls: list[tuple[str, int, float, float]] = []  # kind, instance, wall, scaled
        self.cli_seconds = 0.0  # scaled
        self.wall_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.exit_codes: list[int] = []
        self.instance = ""
        self.index = 0
        self.setup: list[tuple[float, float]] = []  # wall, scaled

    def op(self, kind: str, argv: list[str], expect: int, check) -> None:
        """One command; a wrong exit code or a failed check counts it failed.

        Only commands expected to succeed are timing samples: a rejected
        input is not a ``simplify`` or ``verify``.
        """
        err = io.StringIO()
        before = probe.run()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation; keep measuring
                rc = -1
                print(f"crash: {type(exc).__name__}: {exc}", file=sys.stderr)
            elapsed = time.perf_counter() - t0
        scaled = elapsed * probe.scale(before, probe.run())
        self.wall_seconds += elapsed
        self.cli_seconds += scaled
        self.attempted += 1
        self.exit_codes.append(rc)
        if expect == 0:
            self.calls.append((kind, self.index, elapsed, scaled))
        if rc != expect:
            self.fail(f"{argv[0]} exited {rc}, expected {expect}: {err.getvalue().strip()}")
        elif expect == 2 and not err.getvalue().startswith("error: "):
            self.fail(f"{argv[0]} rejected its input without an error message")
        elif check is not None:
            self.check_instance(check)

    def check_instance(self, check) -> None:
        try:
            check()
        except (checks.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
            self.fail(f"{type(exc).__name__}: {exc}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{self.instance}: {message}")

    def samples(self, kind: str, scaled: bool = True) -> list[float]:
        """One sample per instance: the mean time of its ``kind`` calls.

        graph-sparse runs three ``simplify`` methods and two ``verify``s per
        instance; averaging within the instance keeps the samples from one
        distribution, so their median does not jump between methods.
        """
        per_instance: dict[int, list[float]] = {}
        for k, i, wall, sc in self.calls:
            if k == kind:
                per_instance.setdefault(i, []).append(sc if scaled else wall)
        return [statistics.fmean(v) for v in per_instance.values()]

    def per_call(self, kind: str) -> list[float]:
        return [sc for k, _, _, sc in self.calls if k == kind]


def run_instances(session: Session, args, manifest: list[dict], seconds: float) -> list[str]:
    """Run instances in order until ``seconds`` pass, at least those in ``manifest``.

    Instances past the manifest are generated on demand, outside the
    command timings. Returns one digest per instance. Runs in the work
    directory, where ``in/`` holds the inputs and ``out/`` the outputs.
    """
    runner = workloads.RUNNERS[args.workload]
    digests = []
    t0 = time.perf_counter()
    for i in itertools.count():
        if i >= len(manifest) and time.perf_counter() - t0 >= seconds:
            break
        if i < len(manifest):
            inst = manifest[i]
        else:
            inst = workloads.generate_instance(args.workload, args.seed, i, Path("in"))
        out = Path("out") / inst["dir"]
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        session.instance = inst["dir"]
        session.index = i
        first_code = len(session.exit_codes)
        try:
            expected = runner(session, inst, Path("in") / inst["dir"], out)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            # An earlier command left no usable output for a later step.
            session.fail(f"instance aborted: {type(exc).__name__}: {exc}")
            expected = None
        present = sorted(p.name for p in out.iterdir())
        if expected is None:
            digests.append("aborted")
        elif present != sorted(expected):
            session.fail(f"output files {present}, expected {sorted(expected)}")
            digests.append("missing-outputs")
        else:
            digests.append(checks.digest_files(out, expected, session.exit_codes[first_code:]))
        shutil.rmtree(out)
    return digests


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def tree_digest(directory: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_setup(workload: str, seed: int, inputs: Path) -> tuple[list[tuple[float, float]], bool]:
    """Time the set-up script in fresh interpreters; the last run's inputs stay.

    Returns ``(wall, scaled)`` per timed run, each run bracketed by probes
    like a command, and whether every run wrote identical inputs.
    The wait blocks in ``waitpid``: ``subprocess`` polls in steps of up to
    50 ms when given a timeout, so a timer kills a hung child instead.
    """
    env = {k: v for k, v in os.environ.items() if k != "QISO_THREADS"}
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(inputs)]
    times, digests = [], set()
    for rep in range(SETUP_REPEATS + 1):
        shutil.rmtree(inputs, ignore_errors=True)
        before = probe.run()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env)
        killer = threading.Timer(150, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - t0
        scaled = elapsed * probe.scale(before, probe.run())
        if rc != 0:
            raise subprocess.CalledProcessError(rc, argv)
        if rep:  # the first run warms the file cache (and writes bytecode if enabled)
            times.append((elapsed, scaled))
        digests.add(tree_digest(inputs, "*"))
    return times, len(digests) == 1


def timing(scaled: list[float], wall: list[float]) -> dict:
    return {"value": statistics.median(scaled), "unit": "s", "samples": len(scaled),
            "wall_median": statistics.median(wall)}


def p90(samples: list[float]) -> dict | None:
    """Nearest-rank p90, reported only when at least ten samples lie beyond it."""
    ordered = sorted(samples)
    value = ordered[max(0, -(-9 * len(ordered) // 10) - 1)] if ordered else 0.0
    beyond = sum(1 for x in ordered if x > value)
    if beyond < 10:
        return None
    return {"value": value, "unit": "s", "samples": len(samples), "beyond": beyond}


def provenance(seed: int, allowed: list[int]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=20, check=True,
            ).stdout.strip()
    import numpy
    import scipy

    return {
        "commit": commit,
        "src_qiso_sha256": tree_digest(SRC / "qiso", "*.py"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(allowed),
        "pinned_cpu": allowed[0],
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "QISO_THREADS": os.environ.get("QISO_THREADS"),
        "clients": 1,
        "loop": "closed",
    }


def end_to_end(args, work: Path, cli) -> tuple[dict, Session, dict]:
    setup_times, inputs_stable = measure_setup(args.workload, args.seed, work / "in")
    manifest = json.loads((work / "in" / "manifest.json").read_text())
    session = Session(cli)
    session.setup = setup_times
    digests = run_instances(session, args, manifest, args.seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    metrics = {"setup_s": timing([sc for _, sc in setup_times], [w for w, _ in setup_times])}
    metrics["instances_per_s"] = {"value": len(digests) / session.cli_seconds, "unit": "1/s",
                                  "samples": len(digests),
                                  "wall_value": len(digests) / session.wall_seconds}
    for kind in ("simplify", "all_roots", "analyze", "weights", "verify"):
        if session.samples(kind):
            metrics[kind + "_s"] = timing(session.samples(kind), session.samples(kind, False))
    for kind in ("simplify", "verify"):
        tail = p90(session.per_call(kind))
        if tail is not None:
            metrics[kind + "_p90_s"] = tail
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB", "samples": 1}
    metrics["failed_ratio"] = {"value": session.failed / session.attempted, "unit": "1",
                               "samples": session.attempted}
    extra = {
        "instances": len(digests),
        "inputs_identical_across_setups": inputs_stable,
        "digest": combined_digest(digests[: len(manifest)]),
        "digest_all": combined_digest(digests),
        "correct": inputs_stable,
    }
    return metrics, session, extra


def traced(args, work: Path, cli, qiso_error) -> tuple[dict, Session, dict]:
    import tracing

    tracer = tracing.Tracer(qiso_error)
    tracer.install()
    try:
        manifest = workloads.generate(args.workload, args.seed, work / "in")
    finally:
        tracer.uninstall()
    generation_s = tracer.module_time("generators")

    plain = Session(cli)
    plain_digests = run_instances(plain, args, manifest, 0)
    tracer.reset()
    spans = tracer.install()
    try:
        session = Session(cli)
        digests = run_instances(session, args, manifest, 0)
    finally:
        tracer.uninstall()

    layers, missing = tracer.layer_metrics()
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    metrics["generators.s"] = {"value": generation_s, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": plain.cli_seconds / session.cli_seconds,
                                       "unit": "1"}
    session.attempted += plain.attempted
    session.failed += plain.failed
    session.problems = plain.problems + session.problems
    same = digests == plain_digests
    if not same:
        session.problems.append("traced outputs differ from untraced outputs")
    extra = {
        "instances": len(digests),
        "digest": combined_digest(digests),
        "untraced_digest": combined_digest(plain_digests),
        "spans_recorded": len(tracer.name),
        "span_names_installed": len(spans),
        "span_names_missing": missing,
        "matrix_bytes_note": "computed from the nbytes of distance_matrix results",
        "correct": same,
    }
    return metrics, session, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DIGEST_INSTANCES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "qiso" / "cli.py").is_file():
        print(f"error: no qiso sources under {SRC}; run from a qiso checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("QISO_THREADS", None)
    # One CPU for the whole run, set-up children included: the probes then
    # measure the CPU the timed work runs on, and on the measuring host a
    # pinned set-up child took a steadier time than one free to move.
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    sys.path.insert(0, str(SRC))
    import qiso.cli
    from qiso.errors import QisoError

    runs = ROOT / ".perfbench_runs"
    work = runs / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(work)
        if args.trace:
            metrics, session, extra = traced(args, work, qiso.cli, QisoError)
        else:
            metrics, session, extra = end_to_end(args, work, qiso.cli)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    correct = extra.pop("correct") and session.failed == 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **extra,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "metrics": metrics,
        "provenance": provenance(args.seed, allowed),
    }
    results = runs / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw = dict(detail, setup_runs=session.setup, calls=session.calls)
    (results / name).write_text(json.dumps(raw, indent=2) + "\n")

    wanted = END_TO_END if not args.trace else list(metrics)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

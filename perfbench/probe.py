"""A fixed, qiso-free piece of work that tracks the machine's current speed.

The measuring host is a shared VM whose speed drifts by ±20% from one
second to the next, and whose file-creation cost creeps up over minutes
of runs, apart from the CPU's speed. The probe does in small what a qiso
command does: it parses arguments, runs breadth-first searches, sums
fractions, formats JSON, and writes, reads and removes a file through a
temporary name. The benchmark runs it right before and right after every
timed call and scales the call's wall time by::

    NOMINAL_S / mean(probe before, probe after)

so a timing reads as seconds on the reference machine at its typical
speed. The probe does not import qiso, so a change to the program cannot
change it. Raw wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import tempfile
import time
from fractions import Fraction

# The probe's median on the reference machine: a 2-vCPU Firecracker VM
# (Intel Xeon, Python 3.11.7). Only the ratio to it matters, and it is a
# constant of the benchmark, the same on both sides of any comparison.
NOMINAL_S = 0.002

_N = 300


def _tree(n: int, rng: random.Random) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].append(v)
        adj[v].append(u)
    return adj


_RNG = random.Random(20211126)
_ADJ = _tree(_N, _RNG)
_FRACTIONS = [Fraction(_RNG.randint(1, 9), _RNG.randint(1, 9)) for _ in range(60)]


def _work() -> None:
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="command")
    for name in ("simplify", "analyze", "verify"):
        p = sub.add_parser(name)
        p.add_argument("graph")
        p.add_argument("-o", "--output")
        p.add_argument("--root", type=int, default=0)
    args = parser.parse_args(["analyze", "g.el", "-o", "probe", "--root", "5"])
    sums = []
    for s in range(0, _N, 15):
        dist = [-1] * _N
        dist[s] = 0
        queue = [s]
        for x in queue:
            d = dist[x] + 1
            for y in _ADJ[x]:
                if dist[y] < 0:
                    dist[y] = d
                    queue.append(y)
        sums.append(sum(dist))
    weight = sum(_FRACTIONS, Fraction(0)) * sum(f * f for f in _FRACTIONS)
    text = json.dumps({"args": vars(args), "sums": sums, "weight": str(weight)},
                      indent=2, sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=".", prefix="probe")
    with os.fdopen(fd, "w") as handle:
        handle.write(text)
    os.replace(tmp, "probe.json")
    with open("probe.json") as handle:
        back = json.loads(handle.read())
    os.unlink("probe.json")
    if back["sums"] != sums:
        raise AssertionError("probe read back other data than it wrote")


def run() -> float:
    """Seconds taken by one probe, in the current directory.

    The collector is paused so that garbage left by the program under test
    is not collected, and timed, inside the probe.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time bracketed by two probes into nominal seconds."""
    return NOMINAL_S * 2 / (before + after)

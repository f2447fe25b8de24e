"""One benchmark session, run in a fresh interpreter by ``run.py``.

Set-up (imports, input generation, parser build) ends at a ``ready`` stamp
on the system-wide monotonic clock, which the parent compares with the time
it started this process.  The workload's commands then run one after
another through ``wordorbits.cli.main`` in this process, so library caches
start cold and are shared within the session.  Each command's stdout goes
to its own file in ``--out``; the parent checks the files.  The last line
of stdout is a JSON record of timings, exit codes and peak memory.

Every timing is also reported at the reference speed.  The machine the
benchmark was sized on slows by up to 2x for stretches of seconds to many
minutes, and process CPU time slows with it.  So a fixed piece of pure
Python work (``calibrate``) runs before the first command and after each
one, and each command's time is scaled by ``REFERENCE_CAL_S`` over the mean
of the calibrations on either side of it.  A change to the library moves
the commands' time and not the calibration's, so it shows in full.

    python3 perfbench/session.py --workload orbit-sym --seed 1 --trace 0 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Time of ``calibrate`` on the reference machine (README.md, "Noise") in a
#: fast stretch; scaled timings read as seconds on that machine at that speed.
REFERENCE_CAL_S = 0.025


def calibrate() -> float:
    """Seconds taken by fixed interpreter work, allocating almost nothing.

    Integer arithmetic alone slows a little less than the orbit search when
    the machine is busy, and small-tuple hashing a little more (README.md,
    "Noise"), so the calibration does both.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(8):
        start = tuple(range(6))
        seen, todo = {start}, [start]
        while todo:
            w = todo.pop()
            for i in range(5):
                v = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
    return time.perf_counter() - t0


def peak_rss_kb() -> int:
    """This process's peak resident memory since exec, in KiB.

    ``ru_maxrss`` is no use here: it keeps the high-water mark of the parent
    it was forked from, which grows while it checks large outputs.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    from wordorbits import cli
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    steps = workloads.plan(args.workload, args.seed)
    cli.build_parser()
    ready = time.monotonic()

    # The first calibration also takes whatever memory calibrating needs,
    # so that the peak after ``base_kb`` is the commands' own.
    cals = [calibrate()]
    base_kb = peak_rss_kb()
    commands = []
    for i, step in enumerate(steps):
        err = io.StringIO()
        error = None
        t0 = time.perf_counter()
        with open(args.out / f"{i}.out", "w") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(step.argv))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            except Exception as exc:  # a crash counts as a failed command
                code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if code != 0 and error is None:
            error = " ".join(line for line in err.getvalue().splitlines()
                             if not line.startswith("# elapsed"))[-400:]
        cals.append(calibrate())
        scale = REFERENCE_CAL_S / ((cals[-2] + cals[-1]) / 2)
        commands.append({"code": code, "error": error, "seconds": seconds,
                         "scaled_s": seconds * scale})
    peak_kb = peak_rss_kb()

    result = {"ready": ready, "raw_wall_s": sum(c["seconds"] for c in commands),
              "wall_s": sum(c["scaled_s"] for c in commands),
              "scale": REFERENCE_CAL_S / sorted(cals)[len(cals) // 2],
              "peak_rss_mb": peak_kb / 1024,
              "rss_added_mb": (peak_kb - base_kb) / 1024, "commands": commands}
    if tracer is not None:
        stdout_bytes = sum((args.out / f"{i}.out").stat().st_size
                           for i in range(len(steps)))
        result["layers"] = tracer.metrics(stdout_bytes)
        result["spans"] = tracer.table()
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""The wordorbits benchmark: scripted CLI sessions, checked and timed.

    python3 perfbench/run.py --workload orbit-sym --seed 1 --seconds 25 --trace 0

A run first proves its checker (the self-check session must report exactly
its planted failures), then starts sessions of the workload, each in a fresh
interpreter, until ``--seconds`` would be exceeded (at least three, or two
traced rounds).  Every command's output is checked against a fact from
``oracles.py``.  Sessions scale their timings to the reference speed (see
``session.py``).  With ``--trace 0`` the run reports the end-to-end metrics,
each the median over the sessions.  With ``--trace 1`` it alternates
untraced and traced sessions and reports the per-layer metrics, medians
over the traced sessions.  Metric names and units come from
``BENCHMARK.json``.  Human-readable
lines come first; the last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracles import CheckFailure  # noqa: E402
from workloads import SELF_CHECK_FAILS, WORKLOADS, plan  # noqa: E402

MIN_ROUNDS = {0: 3, 1: 2}  # by --trace; a traced round is two sessions
RUN_LIMIT_S = 150          # no further rounds past this, minimum or not
SESSION_TIMEOUT_S = 150
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class SessionError(RuntimeError):
    """A session process died or produced no result."""


def run_session(workload: str, seed: int, trace: int, out_dir: Path) -> dict:
    """Run one session and check its outputs; adds setup_s and failures."""
    steps = plan(workload, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "session.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace), "--out", str(out_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SessionError(f"{workload} session exceeded {SESSION_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SessionError(f"{workload} session exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-600:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = (result["ready"] - spawned) * result["scale"]
    failures = []
    for i, (step, command) in enumerate(zip(steps, result["commands"])):
        path = out_dir / f"{i}.out"
        reason = None
        if command["code"] != 0:
            reason = f"exit {command['code']}: {command['error']}"
        else:
            try:
                step.check(path.read_text())
            except (CheckFailure, ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"check failed: {type(exc).__name__}: {exc}"
        path.unlink(missing_ok=True)
        if reason is not None:
            failures.append((i, " ".join(step.argv), reason))
    result["failures"] = failures
    return result


def self_check(out_dir: Path) -> str | None:
    """None if the checker flags exactly the planted failures, else why not."""
    failures = run_session("self-check", 0, 0, out_dir)["failures"]
    found = tuple(i for i, _, _ in failures)
    if found != SELF_CHECK_FAILS:
        return f"self-check flagged commands {found}, expected {SELF_CHECK_FAILS}"
    return None


def measure(workload: str, seed: int, seconds: float, trace: int,
            out_dir: Path) -> tuple[list[dict], list[dict]]:
    """Sessions until the next one would overrun ``seconds``: (untraced, traced)."""
    untraced: list[dict] = []
    traced: list[dict] = []
    started = time.monotonic()
    rounds = []
    while True:
        t0 = time.monotonic()
        untraced.append(run_session(workload, seed, 0, out_dir))
        if trace:
            traced.append(run_session(workload, seed, 1, out_dir))
        rounds.append(time.monotonic() - t0)
        finish = time.monotonic() - started + statistics.median(rounds)
        if finish > seconds and (len(rounds) >= MIN_ROUNDS[trace] or finish > RUN_LIMIT_S):
            return untraced, traced


def _median(sessions: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in sessions)


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced sessions; times at the reference speed.

    ``trace.overhead_s`` pairs each traced session with the untraced one run
    just before it, so that both saw the same stretch of machine speed.
    """
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = statistics.median(t["wall_s"] - u["wall_s"]
                                      for u, t in zip(untraced, traced))
        elif unit == "s":
            value = statistics.median(t["layers"][name] * t["scale"] for t in traced)
        else:  # counts repeat exactly; median_low keeps them whole
            value = statistics.median_low(t["layers"][name] for t in traced)
        metrics[name] = value
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wordorbits" / "cli.py").is_file():
        print(f"error: no wordorbits source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = HERE / ".runs" / str(os.getpid())
    try:
        problem = self_check(out_dir)
        untraced, traced = measure(args.workload, args.seed, args.seconds,
                                   args.trace, out_dir)
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            out_dir.parent.rmdir()

    sessions = untraced + traced
    attempted = sum(len(s["commands"]) for s in sessions)
    failures = [f for s in sessions for f in s["failures"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced sessions, one caller, closed loop")
    print("self-check: " + (problem or "ok, a wrong expected value and an exit 2 "
                            "both counted as failures"))
    for (i, argv_text), reason in {(i, a): r for i, a, r in failures}.items():
        print(f"FAILED command {i} ({argv_text}): {reason}")
    print(f"fail_ratio {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} commands)")

    if args.trace:
        metrics = layer_metrics(untraced, traced)
        units = LAYER_UNITS
        last = traced[-1]
        wall, spans = last["raw_wall_s"], last["spans"]
        print(f"{'span':30} {'calls':>9} {'total_s':>9} {'self_s':>9} {'self/wall':>9}"
              "   (last traced session, unscaled)")
        for name, row in sorted(spans.items(), key=lambda item: -item[1]["self_s"]):
            print(f"{name:30} {row['calls']:9d} {row['total_s']:9.4f} "
                  f"{row['self_s']:9.4f} {row['self_s'] / wall:9.1%}")
    else:
        metrics = {name: _median(untraced, name) for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
        print(f"unscaled wall_s median {_median(untraced, 'raw_wall_s'):.6g} s, "
              f"speed {_median(untraced, 'scale'):.3g} x reference (not metrics)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    print(json.dumps({
        "correct": problem is None and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one run of one workload, result as a JSON line.

    python3 perfbench/run.py --workload ed_full --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from its
`src/` directory, never from an installed copy.  Each run starts fresh
interpreters (worker.py) with BLAS pinned to one thread before numpy is
imported:

* --trace 0: four set-up-only interpreters and one measuring interpreter.
  Reports `wall_s` (median round time), `setup_s` (median of the five
  set-ups), both at the reference speed of speed.py, and `peak_rss_mb`
  (of the measuring interpreter).
* --trace 1: an untraced interpreter, then a traced one that runs the same
  rounds on the same inputs.  Reports the per-layer figures of the traced
  rounds; `trace.overhead_s`, the traced minus the untraced median round
  time at the reference speed; and the untraced interpreter's median
  probe time and median round wall time as measured.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Trace files go to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class RunFailed(Exception):
    pass


def _spawn(args, deadline, extra):
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)] + extra
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("time limit reached before the next interpreter started")
    cmd += ["--spawn-time", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"worker printed no result:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _report_problems(res):
    for text in res.get("failures", []) + res.get("bad_checks", []):
        print(text, file=sys.stderr)


def run(args):
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace == 0:
        setups = [_spawn(args, deadline, ["--setup-only"])["setup_ref_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = _spawn(args, deadline, [])
        _report_problems(res)
        setups.append(res["setup_ref_s"])
        metrics = {
            "wall_s": {"value": statistics.median(res["round_ref_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        runs = [res]
    else:
        base = _spawn(args, deadline, [])
        traced = _spawn(args, deadline, ["--trace", "1"])
        _report_problems(base)
        _report_problems(traced)
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = (statistics.median(traced["round_ref_s"])
                                      - statistics.median(base["round_ref_s"]))
        layers["speed.probe_s"] = base["probe_s"]
        layers["speed.wall_raw_s"] = statistics.median(base["round_s"])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
        runs = [base, traced]
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "genus5chain" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'genus5chain'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

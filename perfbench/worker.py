"""One benchmark interpreter: set up, run rounds, check results, report JSON.

Started by run.py with BLAS pinned to one thread in its environment.  The
last line of standard output is a JSON object; nothing else is printed
there.  Set-up time runs from the moment the parent spawned this process
(`--spawn-time`, a `time.time()` stamp) to the end of the warm-up; it is
scaled to the reference speed by probes run right after it (speed.py).
Every operation is timed between speed probes; the untraced interpreter
also probes inside long operations.  The package's lru_caches are emptied
before every round, outside its time.  A traced run writes its spans to
perfbench/out/trace-<workload>-seed<seed>.json.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import genus5chain

    where = Path(genus5chain.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"genus5chain imported from {where}, not from {SRC}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_package()
    import speed
    import workloads

    rounds = workloads.plan(args.workload, args.seed, args.seconds)
    workloads.warm_up()
    setup_s = time.time() - args.spawn_time
    setup_ref_s = setup_s * speed.PROBE_REF_S / speed.settled_probe()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    meter = speed.SpeedMeter()
    tracer = None
    if args.trace:
        import tracing

        # no probes inside operations, so spans hold no probe time
        tracer = tracing.Tracer()
        tracer.install()
    else:
        meter.install()

    attempted = 0
    failures = []
    bad_checks = []
    round_s = []
    round_ref_s = []
    for r, ops in enumerate(rounds):
        workloads.clear_caches()
        busy = busy_ref = 0.0
        for op in ops:
            attempted += 1
            token = meter.start()
            if tracer:
                tracer.enabled = True
            try:
                result = op.run()
            except Exception:
                failures.append(f"round {r} {op.name}:\n{traceback.format_exc()}")
                continue
            finally:
                if tracer:
                    tracer.enabled = False
                wall, wall_ref = meter.stop(token)
                busy += wall
                busy_ref += wall_ref
            try:
                op.check(result)
            except Exception as exc:
                bad_checks.append(f"round {r} {op.name}: {type(exc).__name__}: {exc}")
        round_s.append(busy)
        round_ref_s.append(busy_ref)

    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "round_s": round_s,
        "round_ref_s": round_ref_s,
        "probe_s": statistics.median(meter.samples),
        "attempted": attempted,
        "failed": len(failures),
        "correct": not bad_checks,
        "failures": failures,
        "bad_checks": bad_checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        values, detail = tracing.summarize(tracer.spans, len(round_s), sum(round_s))
        out["layers"] = values
        path = ROOT / "perfbench" / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "round_s": round_s,
                       "summary": detail, "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

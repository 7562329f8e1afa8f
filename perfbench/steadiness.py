"""Run two independent sets of benchmark runs and compare them with the bounds.

    python3 perfbench/steadiness.py

Each set runs every workload of BENCHMARK.json RUNS times, each run with
its own seed (set A uses seeds 1..RUNS, set B seeds 101..100+RUNS), for
the `run_seconds` of BENCHMARK.json.  For every end-to-end metric it
prints each set's median and quartiles, the spread (q3 - q1) / median,
and how far set B's median lies from set A's, against the metric's bound.
The benchmark is steady when every spread and every shift, in either
direction, stays within its bound, and both sets fail the same share of
operations.  Raw results go to perfbench/out/steadiness-<time>.json.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {}
    for label, seed0 in (("A", 1), ("B", 101)):
        for w in workloads:
            for seed in range(seed0, seed0 + RUNS):
                res = one_run(w, seed, spec["run_seconds"])
                results.setdefault(label, {}).setdefault(w, []).append(res)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {label} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)

    steady = True
    summary = {}
    print()
    for w in workloads:
        print(f"== {w}")
        share = {s: (sum(r["failed"] for r in results[s][w]),
                     sum(r["attempted"] for r in results[s][w])) for s in ("A", "B")}
        fa, aa = share["A"]
        fb, ab = share["B"]
        same_share = fa * ab == fb * aa
        correct = all(r["correct"] for s in ("A", "B") for r in results[s][w])
        steady &= same_share and correct
        print(f"   failed A {fa}/{aa}, B {fb}/{ab}, same share: {same_share}; all correct: {correct}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            d = {s: describe([r["metrics"][name]["value"] for r in results[s][w]])
                 for s in ("A", "B")}
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (d["B"]["median"] - d["A"]["median"]) / d["A"]["median"]
            ok = max(d[s]["spread"] for s in d) <= bound and abs(worse) <= bound
            steady &= ok
            summary.setdefault(w, {})[name] = {**d, "b_worse_than_a": worse, "bound": bound}
            for s in ("A", "B"):
                x = d[s]
                print(f"   {name:12s} {s}: median {x['median']:.4f} {m['unit']}  "
                      f"q1 {x['q1']:.4f}  q3 {x['q3']:.4f}  spread {x['spread']:6.2%}")
            print(f"   {name:12s} B worse than A by {worse:+.2%}; bound {bound:.0%}; "
                  f"{'ok' if ok else 'OUT OF BOUND'}")
    out = HERE / "out" / f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"summary": summary, "runs": results}, indent=1))
    print(f"\n{'STEADY' if steady else 'NOT STEADY'}; raw results in {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

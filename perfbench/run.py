#!/usr/bin/env python3
"""The itm benchmark: builds the worker, runs one workload, checks and
reduces its output.

    python3 perfbench/run.py --workload serve --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed 7]      # every workload, a table

Run from the repository root. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. A traced run starts the worker
twice, untraced then traced, each in its own process and each measuring
for half of ``--seconds``; the difference is reported as tracing
overhead. Each run also leaves a full record
(provenance, sample counts, exact counts, attribution, spans) under
``.perfbench/results/``. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
# A run must end within this many seconds once the worker is built.
RUN_BUDGET_S = 175.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build_worker():
    """Build the worker from source; return the path of its executable."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the workspace crates are missing; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"worker build failed ({proc.returncode})")
    exe = os.path.join(target_dir(), "release", "itm-perfbench")
    if not os.path.isfile(exe):
        fail(f"worker executable missing at {exe}")
    return exe


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_fingerprint():
    """sha256 over the sources the worker is built from (stands in for a
    git revision where the checkout is not a repository)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            if p.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(os.path.relpath(p, ROOT).encode())
                h.update(sha256_file(p).encode())
    return h.hexdigest()


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, exe):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "rustc": command_output(["rustc", "-V"]),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_fingerprint(),
        "worker_sha256": sha256_file(exe),
        "size": "default",
        "universe": args.universe,
        "seed": args.seed,
        "threads": nproc,
        "seconds": args.seconds,
        "host": os.uname().nodename,
        "started_unix": time.time(),
    }


def run_worker(exe, args, trace, seconds, deadline):
    work = os.path.join(STATE, f"work-{os.getpid()}-{trace}")
    os.makedirs(work, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--universe", str(args.universe)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"worker exceeded the {RUN_BUDGET_S:.0f} s run budget")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker exited {proc.returncode} without a record")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        fail(f"worker record is not JSON: {e}")


def compare_counts(label, a, b, checks):
    """Every count the two records share must be equal."""
    for key in sorted(set(a) & set(b)):
        checks["attempted"] += 1
        if a[key] != b[key]:
            checks["failed"] += 1
            checks["failures"].append(f"{label}: count {key} = {a[key]} vs {b[key]}")


def ledger_check(args, record, worker_sha, checks):
    """Seed-determined counts must repeat exactly across runs of the same
    worker binary: compare with the first run's counts, or record them."""
    d = os.path.join(STATE, "counts", worker_sha[:16])
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{args.workload}-u{args.universe}-seed{args.seed}.json")
    counts = record["counts"]
    if os.path.isfile(path):
        with open(path) as f:
            compare_counts("earlier run", json.load(f), counts, checks)
    else:
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)


def reduce_metrics(spec_metrics, produced, label):
    out = {}
    for m in spec_metrics:
        got = produced.get(m["name"])
        if got is None:
            fail(f"{label} metric {m['name']} was not produced")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def run_one(args, spec, exe):
    deadline = time.monotonic() + RUN_BUDGET_S
    prov = provenance(args, exe)
    checks = {"attempted": 0, "failed": 0, "failures": []}
    # A traced run makes two worker runs; they share the measuring time.
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_worker(exe, args, 0, seconds, deadline)
    traced = run_worker(exe, args, 1, seconds, deadline) if args.trace else None
    for rec in [plain] + ([traced] if traced else []):
        checks["attempted"] += rec["attempted"]
        checks["failed"] += rec["failed"]
        checks["failures"] += rec["failures"]
    if traced:
        compare_counts("traced run", plain["counts"], traced["counts"], checks)
    ledger_check(args, plain, prov["worker_sha256"], checks)

    e2e = dict(plain["end_to_end"])
    e2e["check_pass_ratio"] = {
        "value": 1.0 - checks["failed"] / max(1, checks["attempted"]),
        "unit": "ratio", "n": checks["attempted"]}
    record = {
        "provenance": prov,
        "workload": args.workload,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "fail_ratio": checks["failed"] / max(1, checks["attempted"]),
        "failures": checks["failures"][:50],
        "counts": plain["counts"],
        "end_to_end": e2e,
        "serving": plain["serving"],
    }
    if traced:
        overhead = {}
        for name, v in plain["end_to_end"].items():
            t = traced["end_to_end"].get(name)
            if t and v["value"]:
                overhead[name] = t["value"] / v["value"]
        layers = dict(traced["per_layer"])
        layers["itm-obs.trace_overhead_ratio"] = {
            "value": overhead.get("step_s", 0.0), "unit": "ratio"}
        record.update(per_layer=layers, tracing_overhead=overhead,
                      traced_end_to_end=traced["end_to_end"],
                      attribution=traced["attribution"])
        metrics = reduce_metrics(spec["per_layer"], layers, "per-layer")
    else:
        metrics = reduce_metrics(spec["end_to_end"], e2e, "end-to-end")
        for name, m in metrics.items():
            if not m["value"] > 0:
                checks["failed"] += 1
                checks["failures"].append(f"end-to-end metric {name} is {m['value']}")

    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}"
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if traced:
        with open(os.path.join(results, stem + "-spans.json"), "w") as f:
            json.dump(traced["spans"], f)
    report(record, args.trace)
    return {"correct": checks["failed"] == 0, "attempted": checks["attempted"],
            "failed": checks["failed"], "metrics": metrics}


def report(rec, trace):
    """Human-readable summary on standard error."""
    p = rec["provenance"]
    log(f"== {rec['workload']} seed={p['seed']} size={p['size']} universe={p['universe']} "
        f"threads={p['threads']} "
        f"nproc={p['nproc']} rustc={p['rustc']!r} rev={p['git_rev'] or p['source_sha256'][:12]}")
    log(f"   checks: {rec['attempted']} attempted, {rec['failed']} failed "
        f"(fail_ratio {rec['fail_ratio']:.6g})")
    for f in rec["failures"][:10]:
        log(f"   FAILED: {f}")
    for name, m in list(rec["end_to_end"].items()) + list(rec["serving"].items()):
        log(f"   {name:<18} {m['value']:>14.6g} {m['unit']:<6} (n={m['n']})")
    if trace:
        log("   -- per layer (traced run)")
        for name, m in rec["per_layer"].items():
            log(f"   {name:<36} {m['value']:>14.6g} {m['unit']}")
        log("   -- self time by composite call (s): call / itm-obs span path")
        for r in rec["attribution"]:
            if r["total_s"] >= 0.05:
                path = r["path"] or "(call span)"
                log(f"   {r['call']:<24} {path:<52} total {r['total_s']:8.3f} "
                    f"self {r['self_s']:8.3f} n={r['count']}")
        log("   -- tracing overhead (traced / untraced)")
        for name, x in rec["tracing_overhead"].items():
            log(f"   {name:<18} {x:8.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--universe", type=int, default=42,
                    help="seed of the simulated Internet the map is measured from")
    args = ap.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.all == bool(args.workload):
        fail("give exactly one of --workload NAME or --all")
    if args.workload and args.workload not in names:
        fail(f"unknown workload {args.workload!r} (one of {', '.join(names)})")
    exe = build_worker()
    if not args.all:
        print(json.dumps(run_one(args, spec, exe)), flush=True)
        return
    summary = {}
    for name in names:
        args.workload = name
        summary[name] = run_one(args, spec, exe)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    log(f"\n{'metric':<18} {'unit':<6} " + " ".join(f"{n:>14}" for n in names))
    for metric, unit in units.items():
        vals = " ".join(f"{summary[n]['metrics'][metric]['value']:>14.6g}" for n in names)
        log(f"{metric:<18} {unit:<6} {vals}")
    log(f"{'fail_ratio':<18} {'ratio':<6} " + " ".join(
        f"{summary[n]['failed'] / max(1, summary[n]['attempted']):>14.6g}" for n in names))
    print(json.dumps(summary), flush=True)
    if not all(r["correct"] for r in summary.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()

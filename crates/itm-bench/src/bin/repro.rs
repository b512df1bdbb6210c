//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p itm-bench --bin repro                 # everything
//! cargo run --release -p itm-bench --bin repro -- --exp fig2   # one artifact
//! cargo run --release -p itm-bench --bin repro -- --size small --seed 7
//! cargo run --release -p itm-bench --bin repro -- --ablations  # D1–D5 too
//! cargo run --release -p itm-bench --bin repro -- --exp coverage --metrics
//! cargo run --release -p itm-bench --bin repro -- --exp map --trace
//! cargo run --release -p itm-bench --bin repro -- --exp map --threads 8
//! cargo run --release -p itm-bench --bin repro -- --size small --explain pfx0 svc0
//! cargo run --release -p itm-bench --bin repro -- --exp map --faults light
//! cargo run --release -p itm-bench --bin repro -- --exp map --audit
//! cargo run --release -p itm-bench --bin repro -- --exp map --audit out=q.json
//! cargo run --release -p itm-bench --bin repro -- --bench-record
//! cargo run --release -p itm-bench --bin repro -- --bench-record --size small,default
//! cargo run --release -p itm-bench --bin repro -- --exp map --snapshot
//! cargo run --release -p itm-bench --bin repro -- --query point pfx0 svc0
//! cargo run --release -p itm-bench --bin repro -- --query reverse 10.0.0.1
//! cargo run --release -p itm-bench --bin repro -- --query route 0 1
//! cargo run --release -p itm-bench --bin repro -- --bench-query --size small
//! cargo run --release -p itm-bench --bin repro -- --epochs 5
//! cargo run --release -p itm-bench --bin repro -- --epochs 5 --epoch-plan heavy
//! cargo run --release -p itm-bench --bin repro -- --epochs 3 --epoch-verify
//! cargo run --release -p itm-bench --bin repro -- --diff a.snap b.snap
//! ```
//!
//! Results land in `results/<id>.csv` plus a combined
//! `results/summary.txt`; `--metrics` additionally records pipeline
//! instrumentation (phase timings, probe budgets) to
//! `results/metrics.json`; `--trace [path]` records the causal event
//! trace in Chrome trace format (load it in Perfetto / `chrome://tracing`);
//! `--explain <prefix> <service>` builds the map with tracing on and
//! prints the evidence chain behind one asserted map edge;
//! `--threads N` sizes the map-build worker pool (default: available
//! parallelism) — output is byte-identical at any thread count;
//! `--faults PROFILE` runs the campaigns under a deterministic fault plan
//! (`off` | `light` | `heavy` | a JSON plan file) — the same profile is
//! byte-reproducible across runs and thread counts, and `--faults off`
//! (the default) is byte-identical to not passing the flag at all;
//! `--bench-record` runs the map build once per size in `--size` (a
//! comma list in this mode, default `small,default,large`) with resource
//! profiling on and appends one schema-versioned row per size to the
//! `BENCH_map_build.json` trajectory (`--bench-out` overrides the path,
//! `--bench-baseline FILE` exits 1 if peak tracked bytes regress more
//! than 10% against the matching rows of a baseline trajectory).
//!
//! `--snapshot [FILE]` serializes the assembled map into the versioned,
//! checksummed binary snapshot (wire format: DESIGN.md §14; default
//! `<out>/map.snap`): byte-identical at any `--threads`, and rejected on
//! open if any single byte is corrupted. `--query` answers point, reverse,
//! and route lookups zero-copy off such a snapshot — no substrate build,
//! the provenance (technique claim list) of every point answer included —
//! and `--bench-query` builds the map once and appends a sustained
//! point-lookup throughput row to the schema-versioned `BENCH_query.json`
//! trajectory. With `--metrics`, `--query` and `--diff` write
//! `<out>/metrics.json` too: the `snapshot.open` span tree (read, checksum
//! verify, content validate) of every snapshot they open.
//!
//! `--audit [out=FILE]` scores every measurement technique against the
//! substrate's ground truth and writes a schema-versioned
//! `results/map_quality.json` (per-technique precision/recall/coverage
//! with service-class and population-tier breakdowns, the per-cell
//! disagreement index, pairwise agreement). The report is byte-identical
//! at any `--threads`, composes with `--faults` (a `faults` section
//! appears exactly as in the map summary), and with it off no artifact
//! changes by a byte.
//!
//! `--metrics` also turns on allocation profiling: `metrics.json` gains a
//! `resources` section (peak RSS, allocator-tracked bytes, per-phase
//! attribution). Profiling never changes map bytes — with it off, output
//! is byte-identical to builds that predate the profiler.
//!
//! `--epochs N` runs the continuous-map loop (DESIGN.md §15): one full
//! build (epoch 0), then N epochs of deterministic substrate churn under
//! `--epoch-plan` (`off` | `light` | `heavy` | a JSON plan file; default
//! `light`), each followed by an *incremental* rebuild that recomputes
//! only the campaigns the churn invalidated. Per-epoch rows land in
//! `results/epoch_metrics.json`; with `--snapshot` every epoch's map is
//! serialized to `<path>.epochK` (and the final epoch to `<path>` itself);
//! with `--metrics`, `metrics.json` covers the whole loop (span tree of
//! the full build and every incremental rebuild, counters, resources).
//! `--epoch-verify` additionally runs a from-scratch build each epoch,
//! asserts the incremental map is byte-identical (exit 1 on divergence),
//! and appends one incremental-vs-full speedup row per epoch to the
//! schema-versioned `BENCH_epoch.json` trajectory (`--bench-out`
//! overrides the path).
//!
//! `--diff A B` compares two map snapshots of the same universe and
//! writes every edge added, removed, moved, or re-evidenced — with the
//! technique provenance behind each delta — to the deterministic
//! `results/map_diff.json`, printing a kind-by-kind tally. Snapshots
//! that are missing, corrupted, version-mismatched, or describe
//! different universes exit 2; an empty delta (e.g. a snapshot diffed
//! against itself) exits 0.

use itm_bench::{ablations, experiments, ExperimentResult};
use itm_core::{MapConfig, MapSummary, ParallelExecutor, TrafficMap};
use itm_measure::{Substrate, SubstrateConfig};
use itm_obs::ProvenanceIndex;
use itm_topology::TopologyConfig;
use itm_types::{FaultPlan, PrefixId, ServiceId};
use std::io::Write;
use std::time::Instant;

// The instrumented allocator wrapper. Installation is free when tracking
// is off (one relaxed load per allocation) and is what lets `--metrics`
// and `--bench-record` attribute bytes to pipeline phases.
#[global_allocator]
static ALLOC: itm_obs::alloc::TrackingAlloc = itm_obs::alloc::TrackingAlloc::new();

/// Schema version stamped on the `BENCH_map_build.json` trajectory file
/// and each of its rows.
const BENCH_SCHEMA_VERSION: u64 = 1;

/// Experiment ids, in run order.
const EXPERIMENT_IDS: &[&str] = &[
    "map",
    "table1",
    "fig1a",
    "fig1b",
    "fig2",
    "pathlen",
    "anycast",
    "coverage",
    "ecs",
    "pathpred",
    "recommend",
    "ipid",
    "visibility",
    "consolidation",
    "cachehost",
    "assoc",
    "staleness",
];

/// Ablation ids (run with `--ablations`, or singly via `--exp ab_*`).
const ABLATION_IDS: &[&str] = &[
    "ab_ecs_scope",
    "ab_resolver_assumption",
    "ab_collectors",
    "ab_recommend_features",
    "ab_probe_budget",
];

struct Args {
    exp: Option<String>,
    seed: u64,
    size: String,
    ablations: bool,
    out_dir: String,
    metrics: bool,
    /// Worker threads for the map build (0 was rejected at parse time);
    /// defaults to the machine's available parallelism. Any value produces
    /// byte-identical output — shards are fixed, threads only run them.
    threads: usize,
    /// `--trace` was given; `Some(path)` if it carried an explicit output
    /// path, `None` for the default `<out>/trace.json`.
    trace: Option<Option<String>>,
    /// `--explain <prefix> <service>`: explain one map edge and exit.
    explain: Option<(String, String)>,
    /// `--audit` was given; `Some(spec)` if it carried a sub-option
    /// string (`out=FILE`), `None` for the defaults.
    audit: Option<Option<String>>,
    /// Fault plan the map build runs under (default: off).
    faults: FaultPlan,
    /// `--threads` was given explicitly (bench-record defaults to one
    /// worker otherwise, so peak-byte accounting is deterministic).
    threads_explicit: bool,
    /// `--size` was given explicitly (bench-record records the full
    /// small,default,large trajectory otherwise).
    size_explicit: bool,
    /// `--bench-record`: run the map build per size with profiling on and
    /// append trajectory rows instead of running experiments.
    bench_record: bool,
    /// Trajectory file `--bench-record` appends to.
    bench_out: String,
    /// `--bench-baseline FILE`: exit 1 if peak tracked bytes regress >10%
    /// against the matching-size rows of this baseline trajectory.
    bench_baseline: Option<String>,
    /// `--bench-out` was given explicitly (`--bench-query` appends to
    /// `BENCH_query.json` by default instead of the map-build trajectory).
    bench_out_explicit: bool,
    /// `--snapshot` was given; `Some(path)` if it carried an explicit
    /// file, `None` for the default `<out>/map.snap`. In build mode this
    /// is where the snapshot is written; with `--query` it is where the
    /// snapshot is read from.
    snapshot: Option<Option<String>>,
    /// `--query KIND ARGS…`: answer one query off an existing snapshot
    /// and exit without building anything.
    query: Option<Vec<String>>,
    /// `--bench-query`: build the map once, snapshot it, and benchmark
    /// sustained point-lookup throughput into the query trajectory.
    bench_query: bool,
    /// `--epochs N`: run the continuous-map loop for N epochs of churn
    /// after the initial full build.
    epochs: Option<u32>,
    /// Churn plan the epoch loop runs under (default: light).
    epoch_plan: itm_types::EpochPlan,
    /// Raw `--epoch-plan` argument, kept for labelling metrics rows.
    epoch_plan_raw: String,
    /// `--epoch-plan` was given explicitly (only legal with `--epochs`).
    epoch_plan_explicit: bool,
    /// `--epoch-verify`: full-rebuild every epoch, assert byte-identity,
    /// and record incremental-vs-full speedup rows.
    epoch_verify: bool,
    /// `--diff A B`: diff two snapshots and exit without building.
    diff: Option<(String, String)>,
}

fn usage() -> String {
    format!(
        "usage: repro [--exp <id>] [--seed N] [--size small|default|large] \
         [--threads N] [--ablations] [--metrics] [--trace [FILE]] \
         [--audit [out=FILE]] [--explain PREFIX SERVICE] \
         [--faults off|light|heavy|FILE] [--out DIR] \
         [--snapshot [FILE]] \
         [--query point PREFIX SERVICE | reverse ADDR | route ASN [ASN]] \
         [--epochs N] [--epoch-plan off|light|heavy|FILE] [--epoch-verify] \
         [--diff SNAP_A SNAP_B] \
         [--bench-record] [--bench-query] [--bench-out FILE] \
         [--bench-baseline FILE] [--help|-h]\n\
         with --bench-record, --size takes a comma list (default \
         small,default,large) and --threads defaults to 1;\n\
         --snapshot writes the queryable map snapshot (default \
         <out>/map.snap) and needs a map-building experiment; \
         --query answers one lookup off an existing snapshot (path from \
         --snapshot, default <out>/map.snap) without building anything; \
         --bench-query benchmarks point-lookup throughput into \
         BENCH_query.json (override with --bench-out);\n\
         --epochs runs the continuous-map loop: one full build, then N \
         epochs of deterministic churn (--epoch-plan, default light) each \
         followed by an incremental rebuild; rows land in \
         <out>/epoch_metrics.json (and <out>/metrics.json with --metrics), \
         --epoch-verify asserts byte-identity \
         against a from-scratch build every epoch and records speedup \
         rows to BENCH_epoch.json (override with --bench-out); \
         an --epoch-plan FILE is a JSON object with any of: \
         resolver_churn, link_flaps, vm_churn, rehome_services, \
         diurnal_shift_hours;\n\
         --diff writes every cell and route delta between two snapshots \
         (with technique provenance) to <out>/map_diff.json; with \
         --metrics, --query and --diff write the snapshot open spans to \
         <out>/metrics.json;\n\
         --audit writes <out>/map_quality.json (override with out=FILE) and \
         needs a map-building experiment: map table1 fig1a fig1b fig2 \
         coverage ecs;\n\
         PREFIX is pfxN, a bare index, or a /24 like 10.0.0.0/24;\n\
         SERVICE is svcN, a bare index, or a domain like svc0.example;\n\
         a --faults FILE is a JSON object with any of: loss, timeout, \
         refusal, churn, max_retries, backoff_base_secs, backoff_cap_secs\n\
         experiment ids: {}\n\
         ablation ids (with --exp): {}",
        EXPERIMENT_IDS.join(" "),
        ABLATION_IDS.join(" ")
    )
}

fn parse_args() -> Args {
    let mut args = Args {
        exp: None,
        seed: 42,
        size: "default".into(),
        ablations: false,
        out_dir: "results".into(),
        metrics: false,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        trace: None,
        explain: None,
        audit: None,
        faults: FaultPlan::off(),
        threads_explicit: false,
        size_explicit: false,
        bench_record: false,
        bench_out: "BENCH_map_build.json".into(),
        bench_baseline: None,
        bench_out_explicit: false,
        snapshot: None,
        query: None,
        bench_query: false,
        epochs: None,
        epoch_plan: itm_types::EpochPlan::light(),
        epoch_plan_raw: "light".into(),
        epoch_plan_explicit: false,
        epoch_verify: false,
        diff: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let a = argv[i].as_str();
        // The value following a flag, if any (flags never start another
        // flag's value).
        let value = |i: usize| -> Option<String> {
            argv.get(i + 1).filter(|v| !v.starts_with("--")).cloned()
        };
        match a {
            "--exp" => {
                args.exp = value(i);
                i += 2;
            }
            "--seed" => {
                let raw = value(i).unwrap_or_default();
                args.seed = raw.parse().unwrap_or_else(|_| {
                    eprintln!("--seed expects an integer, got {raw:?}");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--size" => {
                // A missing value must not silently mean "default": the
                // size labels bench rows and artifacts, so it follows the
                // same exit-2 contract as --bench-out and friends.
                let Some(v) = value(i) else {
                    eprintln!(
                        "--size expects small|default|large (a comma list \
                         with --bench-record)\n{}",
                        usage()
                    );
                    std::process::exit(2);
                };
                args.size = v;
                args.size_explicit = true;
                i += 2;
            }
            "--ablations" => {
                args.ablations = true;
                i += 1;
            }
            "--threads" => {
                let raw = value(i).unwrap_or_default();
                args.threads = match raw.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--threads expects a positive integer, got {raw:?}");
                        std::process::exit(2);
                    }
                };
                args.threads_explicit = true;
                i += 2;
            }
            "--bench-record" => {
                args.bench_record = true;
                i += 1;
            }
            "--epochs" => {
                let raw = value(i).unwrap_or_default();
                args.epochs = match raw.parse::<u32>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => {
                        eprintln!(
                            "--epochs expects a positive integer, got {raw:?}\n{}",
                            usage()
                        );
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--epoch-plan" => {
                let raw = value(i).unwrap_or_default();
                args.epoch_plan = parse_epoch_plan(&raw);
                args.epoch_plan_raw = raw;
                args.epoch_plan_explicit = true;
                i += 2;
            }
            "--epoch-verify" => {
                args.epoch_verify = true;
                i += 1;
            }
            "--diff" => {
                let (Some(a), Some(b)) = (value(i), value(i + 1)) else {
                    eprintln!("--diff expects two snapshot paths\n{}", usage());
                    std::process::exit(2);
                };
                args.diff = Some((a, b));
                i += 3;
            }
            "--bench-query" => {
                args.bench_query = true;
                i += 1;
            }
            "--snapshot" => match value(i) {
                Some(path) => {
                    args.snapshot = Some(Some(path));
                    i += 2;
                }
                None => {
                    args.snapshot = Some(None);
                    i += 1;
                }
            },
            "--query" => {
                // Greedy: the kind plus every following non-flag operand.
                let mut spec = Vec::new();
                let mut j = i + 1;
                while j < argv.len() && !argv[j].starts_with("--") {
                    spec.push(argv[j].clone());
                    j += 1;
                }
                if spec.is_empty() {
                    eprintln!(
                        "--query expects: point PREFIX SERVICE | reverse ADDR | \
                         route ASN [ASN]\n{}",
                        usage()
                    );
                    std::process::exit(2);
                }
                args.query = Some(spec);
                i = j;
            }
            "--bench-out" => {
                let Some(path) = value(i) else {
                    eprintln!("--bench-out expects a file path\n{}", usage());
                    std::process::exit(2);
                };
                args.bench_out = path;
                args.bench_out_explicit = true;
                i += 2;
            }
            "--bench-baseline" => {
                let Some(path) = value(i) else {
                    eprintln!("--bench-baseline expects a file path\n{}", usage());
                    std::process::exit(2);
                };
                args.bench_baseline = Some(path);
                i += 2;
            }
            "--metrics" => {
                args.metrics = true;
                i += 1;
            }
            "--trace" => match value(i) {
                Some(path) => {
                    args.trace = Some(Some(path));
                    i += 2;
                }
                None => {
                    args.trace = Some(None);
                    i += 1;
                }
            },
            "--audit" => match value(i) {
                Some(spec) => {
                    args.audit = Some(Some(spec));
                    i += 2;
                }
                None => {
                    args.audit = Some(None);
                    i += 1;
                }
            },
            "--explain" => {
                let (Some(pfx), Some(svc)) = (value(i), value(i + 1)) else {
                    eprintln!("--explain expects PREFIX and SERVICE\n{}", usage());
                    std::process::exit(2);
                };
                args.explain = Some((pfx, svc));
                i += 3;
            }
            "--faults" => {
                let raw = value(i).unwrap_or_default();
                args.faults = parse_fault_plan(&raw);
                i += 2;
            }
            "--out" => {
                args.out_dir = value(i).unwrap_or_else(|| "results".into());
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    // Reject unknown experiment ids up front, before the (expensive)
    // substrate build.
    if let Some(exp) = args.exp.as_deref() {
        if !EXPERIMENT_IDS.contains(&exp) && !ABLATION_IDS.contains(&exp) {
            eprintln!("unknown experiment id {exp:?}\n{}", usage());
            std::process::exit(2);
        }
    }
    // Comma-separated sizes exist only in bench-record mode; everywhere
    // else an unknown size silently meaning "default" would be a trap.
    if !args.bench_record && args.size.contains(',') {
        eprintln!(
            "--size takes a comma list only with --bench-record\n{}",
            usage()
        );
        std::process::exit(2);
    }
    // Unknown sizes are usage errors everywhere — checked here, before
    // any filesystem work, so `--size lrage` can never label artifacts
    // from a silently-substituted default build. Bench-record validates
    // its comma list entry-by-entry in `bench_sizes` instead.
    if !args.bench_record && !matches!(args.size.as_str(), "small" | "default" | "large") {
        eprintln!(
            "unknown --size {:?} (small|default|large)\n{}",
            args.size,
            usage()
        );
        std::process::exit(2);
    }
    // The three diverging modes are mutually exclusive.
    if (args.bench_record && args.bench_query)
        || (args.query.is_some() && (args.bench_record || args.bench_query))
    {
        eprintln!(
            "--bench-record, --bench-query, and --query are mutually \
             exclusive\n{}",
            usage()
        );
        std::process::exit(2);
    }
    // Validate the --query spec shape up front: kind + argument count.
    if let Some(spec) = &args.query {
        let ok = match spec.first().map(|s| s.as_str()) {
            Some("point") => spec.len() == 3,
            Some("reverse") => spec.len() == 2,
            Some("route") => spec.len() == 2 || spec.len() == 3,
            _ => false,
        };
        if !ok {
            eprintln!(
                "--query expects: point PREFIX SERVICE | reverse ADDR | \
                 route ASN [ASN]\n{}",
                usage()
            );
            std::process::exit(2);
        }
    }
    // The diff mode is read-mostly and never builds anything; combining
    // it with a build mode would silently ignore one of the two.
    if args.diff.is_some()
        && (args.epochs.is_some()
            || args.query.is_some()
            || args.bench_record
            || args.bench_query
            || args.exp.is_some()
            || args.explain.is_some()
            || args.audit.is_some()
            || args.snapshot.is_some()
            || args.ablations)
    {
        eprintln!("--diff does not combine with other modes\n{}", usage());
        std::process::exit(2);
    }
    // The epoch loop drives its own builds; experiment selection, query
    // modes, and the bench recorders do not compose with it.
    if args.epochs.is_some()
        && (args.query.is_some()
            || args.bench_record
            || args.bench_query
            || args.exp.is_some()
            || args.explain.is_some()
            || args.audit.is_some()
            || args.ablations)
    {
        eprintln!(
            "--epochs does not combine with --exp, --explain, --query, \
             --audit, --ablations, or the bench recorders\n{}",
            usage()
        );
        std::process::exit(2);
    }
    // Epoch sub-flags without the mode itself are silent no-ops — reject.
    if args.epochs.is_none() && (args.epoch_plan_explicit || args.epoch_verify) {
        eprintln!(
            "--epoch-plan and --epoch-verify need --epochs N\n{}",
            usage()
        );
        std::process::exit(2);
    }
    args
}

/// The sizes a `--bench-record` run covers, parsed from `--size` (comma
/// list; default all three). Unknown names are usage errors — unlike the
/// experiment path, nothing here may silently fall back to `default`.
fn bench_sizes(args: &Args) -> Vec<String> {
    let raw = if args.size_explicit {
        args.size.clone()
    } else {
        // --size was not given: record the whole trajectory.
        "small,default,large".to_string()
    };
    let sizes: Vec<String> = raw
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if sizes.is_empty() {
        eprintln!("--bench-record: --size lists no sizes\n{}", usage());
        std::process::exit(2);
    }
    for s in &sizes {
        if !matches!(s.as_str(), "small" | "default" | "large") {
            eprintln!(
                "--bench-record: unknown size {s:?} (small|default|large)\n{}",
                usage()
            );
            std::process::exit(2);
        }
    }
    sizes
}

/// The `--bench-record` mode: one profiled map build per requested size,
/// one schema-versioned row appended to the trajectory file per build.
///
/// Counters are zeroed *after* each substrate build, so a row accounts
/// for the map build alone. Worker count defaults to 1 (unless
/// `--threads` was given) because allocator peaks are interleaving-
/// dependent: at one thread every count and byte in a row except
/// `build_ms`, `peak_rss_bytes`, and `shard_skew_x1000` reproduces
/// exactly for the same seed.
fn bench_record(args: &Args) -> ! {
    let sizes = bench_sizes(args);
    require_writable_file(&args.bench_out);
    let threads = if args.threads_explicit {
        args.threads
    } else {
        1
    };
    itm_obs::alloc::set_enabled(true);
    itm_obs::set_enabled(true);
    let mut new_rows: Vec<serde_json::Value> = Vec::new();
    for size in &sizes {
        let cfg = config_for(size);
        let t0 = Instant::now();
        eprintln!(
            "bench-record: building substrate (size={size}, seed={})…",
            args.seed
        );
        let s = Substrate::build(cfg, args.seed).expect("valid config");
        eprintln!(
            "  substrate up [{:.1?}]; profiling map build…",
            t0.elapsed()
        );
        // Zero every counter now: the row measures the map build, not the
        // substrate generation before it.
        itm_obs::reset();
        itm_obs::alloc::reset();
        let exec = ParallelExecutor::new(threads);
        let t1 = Instant::now();
        let m = TrafficMap::build_with(&s, &MapConfig::default(), &exec).expect("map build");
        let build_ms = t1.elapsed().as_millis() as u64;
        let summary = MapSummary::extract(&s, &m);
        let report = itm_obs::snapshot();
        let resources = report.resources.clone().unwrap_or_default();
        let skew = report
            .histograms
            .get("exec.skew_x1000")
            .map(|h| h.max)
            .unwrap_or(0);
        let top_phases: Vec<serde_json::Value> = resources
            .top_phases(3)
            .into_iter()
            .map(|(name, p)| {
                serde_json::json!({
                    "phase": name,
                    "total_bytes": p.total_bytes,
                    "peak_bytes": p.peak_bytes,
                })
            })
            .collect();
        let peak_rss = match resources.peak_rss_bytes {
            Some(v) => serde_json::Value::from(v),
            None => serde_json::Value::Null,
        };
        eprintln!(
            "  {size}: build {build_ms} ms, tracked peak {} B (total {} B over {} allocs), \
             {} cells, skew x1000 = {skew}",
            resources.alloc.peak_bytes,
            resources.alloc.total_bytes,
            resources.alloc.allocs,
            summary.mapping_cells
        );
        new_rows.push(serde_json::json!({
            "schema_version": BENCH_SCHEMA_VERSION,
            "size": size.as_str(),
            "seed": args.seed,
            "threads": threads as u64,
            "build_ms": build_ms,
            "peak_rss_bytes": peak_rss,
            "tracked_peak_bytes": resources.alloc.peak_bytes,
            "tracked_total_bytes": resources.alloc.total_bytes,
            "allocs": resources.alloc.allocs,
            "deallocs": resources.alloc.deallocs,
            "mapping_cells": summary.mapping_cells as u64,
            "user_prefixes": summary.user_prefixes.len() as u64,
            "route_edges": summary.route_edges as u64,
            "shard_skew_x1000": skew,
            "top_phases": top_phases,
        }));
    }
    append_bench_rows(&args.bench_out, &new_rows);
    eprintln!(
        "bench-record: appended {} row(s) to {}",
        new_rows.len(),
        args.bench_out
    );
    if let Some(baseline) = &args.bench_baseline {
        check_bench_regression(baseline, &new_rows);
    }
    std::process::exit(0);
}

/// Append rows to the trajectory file, creating it (with the schema
/// header) if absent. A file with a different schema version or shape is
/// an error, not something to silently rewrite.
fn append_bench_rows(path: &str, new_rows: &[serde_json::Value]) {
    use serde_json::Value;
    let mut rows: Vec<Value> = Vec::new();
    match std::fs::read_to_string(path) {
        Ok(text) if !text.trim().is_empty() => {
            let v: Value = serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("{path}: existing trajectory is not valid JSON: {e}");
                std::process::exit(2);
            });
            match v.get("schema_version").and_then(|s| s.as_u64()) {
                Some(BENCH_SCHEMA_VERSION) => {}
                other => {
                    eprintln!(
                        "{path}: trajectory schema_version {other:?} != {BENCH_SCHEMA_VERSION}"
                    );
                    std::process::exit(2);
                }
            }
            match v.get("rows").and_then(|r| r.as_array()) {
                Some(existing) => rows.extend(existing.iter().cloned()),
                None => {
                    eprintln!("{path}: trajectory has no rows array");
                    std::process::exit(2);
                }
            }
        }
        _ => {}
    }
    rows.extend(new_rows.iter().cloned());
    let doc = serde_json::json!({
        "schema_version": BENCH_SCHEMA_VERSION,
        "rows": rows,
    });
    let text = serde_json::to_string_pretty(&doc).expect("serializable");
    std::fs::write(path, text).expect("write trajectory");
}

/// Compare freshly recorded rows against the latest matching-size row of
/// a baseline trajectory: a >10% growth in peak tracked bytes fails the
/// run (exit 1). Sizes absent from the baseline pass vacuously.
fn check_bench_regression(baseline_path: &str, new_rows: &[serde_json::Value]) {
    use serde_json::Value;
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("--bench-baseline: cannot read {baseline_path}: {e}");
        std::process::exit(2);
    });
    let v: Value = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("--bench-baseline: {baseline_path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let empty = Vec::new();
    let base_rows = v.get("rows").and_then(|r| r.as_array()).unwrap_or(&empty);
    let mut regressed = false;
    for row in new_rows {
        let size = row.get("size").and_then(|s| s.as_str()).unwrap_or("");
        let new_peak = row
            .get("tracked_peak_bytes")
            .and_then(|p| p.as_u64())
            .unwrap_or(0);
        // Latest baseline row for this size wins.
        let base_peak = base_rows
            .iter()
            .filter(|r| r.get("size").and_then(|s| s.as_str()) == Some(size))
            .filter_map(|r| r.get("tracked_peak_bytes").and_then(|p| p.as_u64()))
            .next_back();
        let Some(base_peak) = base_peak else {
            eprintln!("bench-record: no baseline row for size={size}; skipping check");
            continue;
        };
        // >10% growth fails; integer math, no float drift.
        let limit = base_peak + base_peak / 10;
        if base_peak > 0 && new_peak > limit {
            eprintln!(
                "bench-record: REGRESSION at size={size}: peak tracked bytes \
                 {new_peak} > {limit} (baseline {base_peak} +10%)"
            );
            regressed = true;
        } else {
            eprintln!(
                "bench-record: size={size} peak tracked bytes {new_peak} \
                 within 10% of baseline {base_peak}"
            );
        }
    }
    if regressed {
        std::process::exit(1);
    }
}

/// The snapshot path: explicit `--snapshot FILE` or `<out>/map.snap`.
fn snapshot_path(args: &Args) -> String {
    match &args.snapshot {
        Some(Some(path)) => path.clone(),
        _ => format!("{}/map.snap", args.out_dir),
    }
}

/// Resolve a `--query` PREFIX argument (pfxN, bare index, or a /24 like
/// 10.0.0.0/24) against the snapshot's prefix table.
fn snap_prefix(snap: &itm_serve::Snapshot, raw: &str) -> Option<PrefixId> {
    let text = raw.strip_prefix("pfx").unwrap_or(raw);
    if let Ok(n) = text.parse::<u32>() {
        return ((n as usize) < snap.n_prefixes()).then_some(PrefixId(n));
    }
    let net: itm_types::Ipv4Net = raw.parse().ok()?;
    snap.find_prefix(net)
}

/// Resolve a `--query` SERVICE argument (svcN, bare index, or a domain
/// name) against the snapshot's domain table.
fn snap_service(snap: &itm_serve::Snapshot, raw: &str) -> Option<ServiceId> {
    let text = raw.strip_prefix("svc").unwrap_or(raw);
    if let Ok(n) = text.parse::<u32>() {
        return ((n as usize) < snap.n_services()).then_some(ServiceId(n));
    }
    snap.service_named(raw)
}

/// Resolve a `--query` ASN argument (asN or a bare index).
fn snap_asn(snap: &itm_serve::Snapshot, raw: &str) -> Option<itm_types::Asn> {
    let text = raw.strip_prefix("as").unwrap_or(raw);
    let n: u32 = text.parse().ok()?;
    ((n as usize) < snap.n_ases()).then_some(itm_types::Asn(n))
}

/// The `--query` mode: open the snapshot and answer one lookup, exiting
/// 0 on a hit, 1 when the query is well-formed but the map asserts
/// nothing, and 2 on unresolvable arguments or an unopenable (missing,
/// corrupted, foreign-version) snapshot. Never builds a substrate — the
/// whole point of the serving layer is that queries cost microseconds.
/// With `--metrics`, an answered query also writes `<out>/metrics.json`.
fn run_query(args: &Args, spec: &[String]) -> ! {
    begin_metrics(args);
    let path = snapshot_path(args);
    let snap = match itm_serve::Snapshot::open(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open snapshot {path}: {e}");
            std::process::exit(2);
        }
    };
    let found = match spec[0].as_str() {
        "point" => {
            let Some(prefix) = snap_prefix(&snap, &spec[1]) else {
                eprintln!("cannot resolve prefix {:?}\n{}", spec[1], usage());
                std::process::exit(2);
            };
            let Some(service) = snap_service(&snap, &spec[2]) else {
                eprintln!("cannot resolve service {:?}\n{}", spec[2], usage());
                std::process::exit(2);
            };
            let net = snap
                .prefix_net(prefix)
                .map(|n| n.to_string())
                .unwrap_or_default();
            let client_as = snap.prefix_owner(prefix).map(|a| a.raw()).unwrap_or(0);
            let domain = snap.domain_of(service).unwrap_or("").to_string();
            match snap.point(service, prefix) {
                Some(ans) => {
                    let front = match ans.front_as {
                        Some(a) => format!("AS{}", a.raw()),
                        None => "unknown AS".into(),
                    };
                    println!(
                        "pfx{} ({net}, client AS{client_as}) × svc{} ({domain}) → {} ({front})",
                        prefix.raw(),
                        service.raw(),
                        ans.addr
                    );
                    println!("  techniques: {}", ans.techniques().join(", "));
                    true
                }
                None => {
                    eprintln!(
                        "no cell asserted for pfx{} ({net}) × svc{} ({domain})",
                        prefix.raw(),
                        service.raw()
                    );
                    false
                }
            }
        }
        "reverse" => {
            let Ok(addr) = spec[1].parse::<itm_types::Ipv4Addr>() else {
                eprintln!("cannot parse address {:?}\n{}", spec[1], usage());
                std::process::exit(2);
            };
            let cells = snap.reverse(addr);
            for (service, prefix) in &cells {
                println!(
                    "svc{} ({}) × pfx{} ({})",
                    service.raw(),
                    snap.domain_of(*service).unwrap_or(""),
                    prefix.raw(),
                    snap.prefix_net(*prefix)
                        .map(|n| n.to_string())
                        .unwrap_or_default()
                );
            }
            match snap.front_as_of(addr) {
                Some(a) => eprintln!(
                    "{addr} (front AS{}): serves {} cell(s)",
                    a.raw(),
                    cells.len()
                ),
                None => eprintln!("{addr}: serves {} cell(s)", cells.len()),
            }
            !cells.is_empty()
        }
        // Shape was validated at parse time, so this arm is "route".
        _ => {
            let Some(a) = snap_asn(&snap, &spec[1]) else {
                eprintln!("cannot resolve ASN {:?}\n{}", spec[1], usage());
                std::process::exit(2);
            };
            match spec.get(2) {
                Some(raw_b) => {
                    let Some(b) = snap_asn(&snap, raw_b) else {
                        eprintln!("cannot resolve ASN {raw_b:?}\n{}", usage());
                        std::process::exit(2);
                    };
                    match snap.edge(a, b) {
                        Some(code) => {
                            println!(
                                "AS{} → AS{}: {}",
                                a.raw(),
                                b.raw(),
                                itm_types::snap::rel::name(code).unwrap_or("?")
                            );
                            true
                        }
                        None => {
                            eprintln!("no edge AS{} → AS{}", a.raw(), b.raw());
                            false
                        }
                    }
                }
                None => {
                    let nbrs: Vec<_> = snap.neighbors(a).collect();
                    for (nbr, code) in &nbrs {
                        println!(
                            "AS{} {}",
                            nbr.raw(),
                            itm_types::snap::rel::name(*code).unwrap_or("?")
                        );
                    }
                    eprintln!("AS{}: {} neighbor(s)", a.raw(), nbrs.len());
                    !nbrs.is_empty()
                }
            }
        }
    };
    if args.metrics {
        write_metrics(&args.out_dir, None);
    }
    std::process::exit(if found { 0 } else { 1 });
}

/// The `--bench-query` mode: build the map once at `--size` (default
/// `default`), serialize it, open the snapshot, and time a deterministic
/// mix of ~2M point lookups (half sampled from live cells, half uniform
/// over the id space). One schema-versioned row lands in the
/// `BENCH_query.json` trajectory (`--bench-out` overrides the path).
///
/// The query list is pre-generated from the run seed so the timed loop
/// measures lookups only, and the same seed replays the same mix.
fn bench_query(args: &Args) -> ! {
    use rand::Rng;
    let bench_out = if args.bench_out_explicit {
        args.bench_out.clone()
    } else {
        "BENCH_query.json".to_string()
    };
    require_writable_file(&bench_out);
    let cfg = config_for(&args.size);
    let t0 = Instant::now();
    eprintln!(
        "bench-query: building substrate (size={}, seed={})…",
        args.size, args.seed
    );
    let s = Substrate::build(cfg, args.seed).expect("valid config");
    eprintln!(
        "  substrate up [{:.1?}]; building map ({} threads)…",
        t0.elapsed(),
        args.threads
    );
    let exec = ParallelExecutor::new(args.threads);
    let map = TrafficMap::build_with(&s, &MapConfig::default(), &exec).expect("map build");
    eprintln!("  map built [{:.1?}]; serializing snapshot…", t0.elapsed());
    let bytes = itm_core::snapshot_bytes(&s, &map);
    let snapshot_bytes_len = bytes.len() as u64;
    let snap = itm_serve::Snapshot::from_bytes(bytes).expect("fresh snapshot validates");
    let n_cells = snap.n_cells();
    let n_services = snap.n_services() as u32;
    let n_prefixes = snap.n_prefixes() as u32;

    const N_QUERIES: usize = 2_000_000;
    let mut rng = itm_types::SeedDomain::new(args.seed).rng("bench.query");
    let mut queries: Vec<(u32, u32)> = Vec::with_capacity(N_QUERIES);
    for k in 0..N_QUERIES {
        if k % 2 == 0 && n_cells > 0 {
            // A live cell: guaranteed hit.
            let (service, prefix, _) = snap
                .cell(rng.gen_range(0..n_cells))
                .expect("index in range");
            queries.push((service.raw(), prefix.raw()));
        } else {
            // Uniform over the id space: overwhelmingly misses.
            queries.push((rng.gen_range(0..n_services), rng.gen_range(0..n_prefixes)));
        }
    }

    eprintln!("  timing {N_QUERIES} point lookups…");
    let t1 = Instant::now();
    let mut hits = 0u64;
    for &(service, prefix) in &queries {
        if let Some(ans) = snap.point(ServiceId(service), PrefixId(prefix)) {
            hits += 1;
            std::hint::black_box(ans.addr.0);
        }
    }
    let elapsed = t1.elapsed();
    let qps = (N_QUERIES as f64 / elapsed.as_secs_f64()) as u64;
    eprintln!(
        "  {qps} queries/sec ({N_QUERIES} lookups, {hits} hits, {} ms) \
         over a {snapshot_bytes_len} byte snapshot of {n_cells} cells",
        elapsed.as_millis()
    );
    append_bench_rows(
        &bench_out,
        &[serde_json::json!({
            "schema_version": BENCH_SCHEMA_VERSION,
            "size": args.size.as_str(),
            "seed": args.seed,
            "threads": args.threads as u64,
            "queries": N_QUERIES as u64,
            "elapsed_ms": elapsed.as_millis() as u64,
            "qps": qps,
            "hits": hits,
            "cells": n_cells as u64,
            "snapshot_bytes": snapshot_bytes_len,
        })],
    );
    eprintln!("bench-query: appended 1 row to {bench_out}");
    std::process::exit(0);
}

/// JSON null for `None`, the displayed value otherwise.
fn opt_json<T: std::fmt::Display>(v: Option<T>) -> serde_json::Value {
    match v {
        Some(x) => serde_json::Value::from(x.to_string()),
        None => serde_json::Value::Null,
    }
}

/// The `--diff` mode: open two snapshots, compute every cell and route
/// delta between them, write the deterministic `<out>/map_diff.json`,
/// and print a kind-by-kind tally. Unopenable snapshots (missing,
/// corrupted, foreign-version) and snapshots of different universes exit
/// 2; any computed diff — including an empty one — exits 0. With
/// `--metrics`, `<out>/metrics.json` records both opens.
fn run_diff(args: &Args, path_a: &str, path_b: &str) -> ! {
    begin_metrics(args);
    let open = |path: &str| match itm_serve::Snapshot::open(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("--diff: cannot open snapshot {path}: {e}");
            std::process::exit(2);
        }
    };
    let a = open(path_a);
    let b = open(path_b);
    let diff = match itm_serve::MapDiff::compute(&a, &b) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("--diff: {path_a} vs {path_b}: {e}");
            std::process::exit(2);
        }
    };
    ensure_out_dir(&args.out_dir);
    let cells: Vec<serde_json::Value> = diff
        .cells
        .iter()
        .map(|d| {
            serde_json::json!({
                "kind": d.kind(),
                "service": d.service.raw(),
                "domain": a.domain_of(d.service).unwrap_or(""),
                "prefix": d.prefix.raw(),
                "net": opt_json(a.prefix_net(d.prefix)),
                "old_addr": opt_json(d.old_addr),
                "new_addr": opt_json(d.new_addr),
                "old_techniques": d.old_techniques(),
                "new_techniques": d.new_techniques(),
            })
        })
        .collect();
    let routes: Vec<serde_json::Value> = diff
        .routes
        .iter()
        .map(|d| {
            serde_json::json!({
                "kind": d.kind(),
                "from": d.from.raw(),
                "to": d.to.raw(),
                "old_rel": opt_json(d.old_kind.and_then(itm_types::snap::rel::name)),
                "new_rel": opt_json(d.new_kind.and_then(itm_types::snap::rel::name)),
            })
        })
        .collect();
    let doc = serde_json::json!({
        "schema_version": BENCH_SCHEMA_VERSION,
        "seed": a.seed(),
        "a": path_a,
        "b": path_b,
        "cells": cells,
        "routes": routes,
    });
    let out = format!("{}/map_diff.json", args.out_dir);
    let text = serde_json::to_string_pretty(&doc).expect("serializable");
    std::fs::write(&out, text).expect("write diff report");
    for kind in ["added", "removed", "moved", "re-evidenced"] {
        println!("cells {kind}: {}", diff.n_cells_of_kind(kind));
    }
    println!("route deltas: {}", diff.routes.len());
    if diff.is_empty() {
        eprintln!("snapshots are identical; wrote empty delta to {out}");
    } else {
        eprintln!(
            "wrote {} cell and {} route delta(s) to {out}",
            diff.cells.len(),
            diff.routes.len()
        );
    }
    if args.metrics {
        write_metrics(&args.out_dir, None);
    }
    std::process::exit(0);
}

/// Turn on the metrics registry and allocation profiling (`--metrics`).
/// Map bytes are unaffected either way.
fn enable_metrics() {
    itm_obs::set_enabled(true);
    itm_obs::reset();
    // Metrics runs profile memory too: metrics.json gains a `resources`
    // section (peak RSS, tracked bytes, per-phase attribution).
    itm_obs::alloc::set_enabled(true);
    itm_obs::alloc::reset();
    // Pre-register the headline probe counters so metrics.json always
    // carries them (at zero) even when a run skips a technique.
    itm_obs::counter_with("probe.queries", &[("technique", "cache_probe")]);
    itm_obs::counter_with("probe.queries", &[("technique", "ecs_mapping")]);
    itm_obs::counter_with("probe.log_lines", &[("technique", "root_crawl")]);
    itm_obs::counter_with("probe.pings", &[("technique", "ipid_probe")]);
    itm_obs::counter_with("probe.connects", &[("technique", "tls_scan")]);
    itm_obs::counter_with("probe.connects", &[("technique", "sni_scan")]);
}

/// With `--metrics`, preflight `<out>/metrics.json` and start collecting;
/// a no-op without it.
fn begin_metrics(args: &Args) {
    if args.metrics {
        ensure_out_dir(&args.out_dir);
        require_writable_file(&format!("{}/metrics.json", args.out_dir));
        enable_metrics();
    }
}

/// Write `<out_dir>/metrics.json`: counters, histograms, the span tree
/// and resources, plus `map`'s per-technique fault accounting when it
/// was built with faults on.
fn write_metrics(out_dir: &str, map: Option<&TrafficMap>) {
    let mut v = itm_obs::snapshot().to_json();
    // A faulted metrics run surfaces the per-technique fault accounting
    // here too, not only in the map summary: issued = observed +
    // degraded + lost per technique.
    if let Some(map) = map {
        if !map.fault_report.is_empty() {
            if let serde_json::Value::Object(root) = &mut v {
                let mut faults = serde_json::Map::new();
                for (technique, st) in &map.fault_report {
                    faults.insert(
                        technique.clone(),
                        serde_json::json!({
                            "issued": st.issued(),
                            "observed": st.observed,
                            "degraded": st.degraded,
                            "lost": st.lost,
                            "retries": st.retries,
                        }),
                    );
                }
                root.insert("faults".into(), serde_json::Value::Object(faults));
            }
        }
    }
    let path = format!("{out_dir}/metrics.json");
    let text = serde_json::to_string_pretty(&v).expect("serializable");
    std::fs::write(&path, text).expect("write metrics");
    eprintln!("wrote {path}");
}

/// The `--epochs` mode: one full build, then N epochs of deterministic
/// churn, each followed by an incremental rebuild of exactly the dirty
/// campaigns. Per-epoch rows land in `<out>/epoch_metrics.json`; with
/// `--snapshot` every epoch's map is serialized (the final epoch also to
/// the base path, so `--query` and `--diff` pick it up unadorned). With
/// `--epoch-verify`, every epoch also runs a from-scratch build and the
/// run dies (exit 1) unless the incremental map is byte-identical —
/// recording incremental-vs-full speedup rows to the `BENCH_epoch.json`
/// trajectory.
fn run_epochs(args: &Args, epochs: u32) -> ! {
    use itm_core::{apply_epoch, build_incremental, map_fingerprint_of};
    ensure_out_dir(&args.out_dir);
    let metrics_path = format!("{}/epoch_metrics.json", args.out_dir);
    require_writable_file(&metrics_path);
    let bench_out = if args.bench_out_explicit {
        args.bench_out.clone()
    } else {
        "BENCH_epoch.json".to_string()
    };
    if args.epoch_verify {
        require_writable_file(&bench_out);
    }
    let snap_base: Option<String> = args.snapshot.as_ref().map(|_| snapshot_path(args));
    if let Some(base) = &snap_base {
        require_writable_file(base);
    }
    begin_metrics(args);

    let cfg = config_for(&args.size);
    let t0 = Instant::now();
    eprintln!(
        "building substrate (size={}, seed={})…",
        args.size, args.seed
    );
    let mut s = Substrate::build(cfg, args.seed).expect("valid config");
    eprintln!("  substrate up [{:.1?}]", t0.elapsed());
    let exec = ParallelExecutor::new(args.threads);
    let map_cfg = MapConfig {
        faults: args.faults.clone(),
        ..Default::default()
    };

    // Each map is serialized once: its fingerprint, the verify comparison
    // and its snapshot files all read the same bytes.
    let serialize = |s: &Substrate, map: &TrafficMap| {
        let bytes = itm_core::snapshot_bytes(s, map);
        let fingerprint = map_fingerprint_of(&bytes, map);
        (bytes, fingerprint)
    };
    let write_snap = |bytes: &[u8], path: &str| match itm_core::write_snapshot_bytes(bytes, path) {
        Ok(n) => eprintln!("  wrote {path} ({n} bytes)"),
        Err(e) => {
            eprintln!("cannot write snapshot {path}: {e}");
            std::process::exit(2);
        }
    };
    // Every epoch's snapshot lands at `<base>.epochK`; the final epoch's
    // also at the base path, so query and diff tooling finds the freshest
    // map without a suffix.
    let write_epoch_snaps = |bytes: &[u8], epoch: u32| {
        let Some(base) = &snap_base else { return };
        write_snap(bytes, &format!("{base}.epoch{epoch}"));
        if epoch > 0 && epoch == epochs {
            write_snap(bytes, base);
        }
    };

    eprintln!(
        "epoch 0: full build ({} threads, plan {})…",
        args.threads, args.epoch_plan_raw
    );
    let t = Instant::now();
    let mut map = TrafficMap::build_with(&s, &map_cfg, &exec).expect("map build");
    let full0_ms = t.elapsed().as_millis() as u64;
    eprintln!(
        "  built [{} ms]: {} cells",
        full0_ms,
        map.user_mapping.mapping.len()
    );
    let (bytes, fingerprint) = serialize(&s, &map);
    write_epoch_snaps(&bytes, 0);
    // Not held through the next epoch's build.
    drop(bytes);

    let mut rows: Vec<serde_json::Value> = Vec::new();
    let mut bench_rows: Vec<serde_json::Value> = Vec::new();
    rows.push(serde_json::json!({
        "epoch": 0u64,
        "actions": 0u64,
        "dirty": Vec::<&str>::new(),
        "build_ms": full0_ms,
        "mapping_cells": map.user_mapping.mapping.len() as u64,
        "fingerprint": format!("{fingerprint:016x}"),
    }));

    for epoch in 1..=epochs {
        let (actions, dirty) = apply_epoch(&mut s, &args.epoch_plan, epoch);
        let t = Instant::now();
        map = build_incremental(&s, &map_cfg, &exec, map, &dirty).expect("incremental build");
        let inc_ms = t.elapsed().as_millis() as u64;
        eprintln!(
            "epoch {epoch}: {} mutation(s), dirty [{}], incremental rebuild {} ms",
            actions.len(),
            dirty.names().join(" "),
            inc_ms
        );
        let (bytes, fingerprint) = serialize(&s, &map);
        rows.push(serde_json::json!({
            "epoch": u64::from(epoch),
            "actions": actions.len() as u64,
            "dirty": dirty.names(),
            "build_ms": inc_ms,
            "mapping_cells": map.user_mapping.mapping.len() as u64,
            "fingerprint": format!("{fingerprint:016x}"),
        }));
        if args.epoch_verify {
            let t = Instant::now();
            let full = TrafficMap::build_with(&s, &map_cfg, &exec).expect("map build");
            let full_ms = t.elapsed().as_millis() as u64;
            let (full_bytes, full_fingerprint) = serialize(&s, &full);
            if full_bytes != bytes || full_fingerprint != fingerprint {
                eprintln!(
                    "epoch {epoch}: INCREMENTAL MAP DIVERGED from the \
                     from-scratch rebuild (plan {}, seed {})",
                    args.epoch_plan_raw, args.seed
                );
                std::process::exit(1);
            }
            let speedup_x1000 = full_ms.saturating_mul(1000) / inc_ms.max(1);
            eprintln!(
                "  verified byte-identical; full rebuild {} ms (speedup x{}.{:03})",
                full_ms,
                speedup_x1000 / 1000,
                speedup_x1000 % 1000
            );
            bench_rows.push(serde_json::json!({
                "schema_version": BENCH_SCHEMA_VERSION,
                "size": args.size.as_str(),
                "seed": args.seed,
                "threads": args.threads as u64,
                "plan": args.epoch_plan_raw.as_str(),
                "epoch": u64::from(epoch),
                "incremental_ms": inc_ms,
                "full_ms": full_ms,
                "speedup_x1000": speedup_x1000,
                "dirty": dirty.names(),
                "byte_identical": true,
            }));
        }
        write_epoch_snaps(&bytes, epoch);
    }

    let doc = serde_json::json!({
        "schema_version": BENCH_SCHEMA_VERSION,
        "size": args.size.as_str(),
        "seed": args.seed,
        "threads": args.threads as u64,
        "plan": args.epoch_plan_raw.as_str(),
        "epochs": u64::from(epochs),
        "rows": rows,
    });
    let text = serde_json::to_string_pretty(&doc).expect("serializable");
    std::fs::write(&metrics_path, text).expect("write epoch metrics");
    eprintln!("wrote {metrics_path}");
    if args.metrics {
        write_metrics(&args.out_dir, Some(&map));
    }
    if args.epoch_verify {
        append_bench_rows(&bench_out, &bench_rows);
        eprintln!(
            "epochs: appended {} row(s) to {bench_out}",
            bench_rows.len()
        );
    }
    eprintln!(
        "ran {epochs} epoch(s) under plan {} [total {:.1?}]",
        args.epoch_plan_raw,
        t0.elapsed()
    );
    std::process::exit(0);
}

/// Resolve a `--faults` argument: a named profile (`off`, `light`,
/// `heavy`) or a path to a JSON plan file. Unknown profiles, unreadable
/// files, malformed JSON, and out-of-range rates are all usage errors
/// (exit 2) caught before the expensive substrate build.
fn parse_fault_plan(raw: &str) -> FaultPlan {
    if raw.is_empty() {
        eprintln!("--faults expects off|light|heavy|FILE\n{}", usage());
        std::process::exit(2);
    }
    if let Some(plan) = FaultPlan::profile(raw) {
        return plan;
    }
    // Not a named profile: treat as a JSON plan file. Bare words that
    // were meant as profile names fall through here and fail the read
    // with a clear message either way.
    let text = match std::fs::read_to_string(raw) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "--faults: {raw:?} is neither a profile (off|light|heavy) \
                 nor a readable plan file: {e}\n{}",
                usage()
            );
            std::process::exit(2);
        }
    };
    let plan = match fault_plan_from_json(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("--faults: cannot parse plan file {raw}: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = plan.validate() {
        eprintln!("--faults: invalid plan in {raw}: {e}\n{}", usage());
        std::process::exit(2);
    }
    plan
}

/// Parse a JSON fault plan: an object whose fields all default to the
/// off plan's zeros, so `{}` is a valid (clean) plan and a partial file
/// like `{"loss": 0.1, "max_retries": 2}` works as expected.
fn fault_plan_from_json(text: &str) -> Result<FaultPlan, serde_json::Error> {
    use serde_json::{Error, Value};
    let v: Value = serde_json::from_str(text)?;
    if !matches!(v, Value::Object(_)) {
        return Err(Error::new("fault plan: expected a JSON object"));
    }
    let rate = |name: &str| -> Result<f64, Error> {
        match v.get(name) {
            None => Ok(0.0),
            Some(x) => x
                .as_f64()
                .ok_or_else(|| Error::new(format!("fault plan: {name} must be a number"))),
        }
    };
    let count = |name: &str| -> Result<u64, Error> {
        match v.get(name) {
            None => Ok(0),
            Some(x) => x.as_u64().ok_or_else(|| {
                Error::new(format!("fault plan: {name} must be a non-negative integer"))
            }),
        }
    };
    Ok(FaultPlan {
        loss: rate("loss")?,
        timeout: rate("timeout")?,
        refusal: rate("refusal")?,
        churn: rate("churn")?,
        max_retries: count("max_retries")?.min(u64::from(u32::MAX)) as u32,
        backoff_base_secs: count("backoff_base_secs")?,
        backoff_cap_secs: count("backoff_cap_secs")?,
    })
}

/// Resolve an `--epoch-plan` argument: a named profile (`off`, `light`,
/// `heavy`) or a path to a JSON plan file. Unknown profiles, unreadable
/// files, malformed JSON, and out-of-range rates are all usage errors
/// (exit 2) caught before the expensive substrate build — the same
/// contract as `--faults`.
fn parse_epoch_plan(raw: &str) -> itm_types::EpochPlan {
    if raw.is_empty() {
        eprintln!("--epoch-plan expects off|light|heavy|FILE\n{}", usage());
        std::process::exit(2);
    }
    if let Some(plan) = itm_types::EpochPlan::profile(raw) {
        return plan;
    }
    let text = match std::fs::read_to_string(raw) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "--epoch-plan: {raw:?} is neither a profile (off|light|heavy) \
                 nor a readable plan file: {e}\n{}",
                usage()
            );
            std::process::exit(2);
        }
    };
    let plan = match epoch_plan_from_json(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!(
                "--epoch-plan: cannot parse plan file {raw}: {e}\n{}",
                usage()
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = plan.validate() {
        eprintln!("--epoch-plan: invalid plan in {raw}: {e}\n{}", usage());
        std::process::exit(2);
    }
    plan
}

/// Parse a JSON epoch plan: an object whose fields all default to the
/// off plan's zeros, so `{}` is a valid (static) plan and a partial file
/// like `{"link_flaps": 4, "rehome_services": 2}` works as expected.
fn epoch_plan_from_json(text: &str) -> Result<itm_types::EpochPlan, serde_json::Error> {
    use serde_json::{Error, Value};
    let v: Value = serde_json::from_str(text)?;
    if !matches!(v, Value::Object(_)) {
        return Err(Error::new("epoch plan: expected a JSON object"));
    }
    let num = |name: &str| -> Result<f64, Error> {
        match v.get(name) {
            None => Ok(0.0),
            Some(x) => x
                .as_f64()
                .ok_or_else(|| Error::new(format!("epoch plan: {name} must be a number"))),
        }
    };
    let count = |name: &str| -> Result<u32, Error> {
        match v.get(name) {
            None => Ok(0),
            Some(x) => x
                .as_u64()
                .ok_or_else(|| {
                    Error::new(format!("epoch plan: {name} must be a non-negative integer"))
                })
                .map(|n| n.min(u64::from(u32::MAX)) as u32),
        }
    };
    Ok(itm_types::EpochPlan {
        resolver_churn: num("resolver_churn")?,
        link_flaps: count("link_flaps")?,
        vm_churn: num("vm_churn")?,
        rehome_services: count("rehome_services")?,
        diurnal_shift_hours: num("diurnal_shift_hours")?,
    })
}

/// Experiments that build (and share) the full traffic map.
fn needs_map(id: &str) -> bool {
    matches!(
        id,
        "map" | "table1" | "fig1a" | "fig1b" | "fig2" | "coverage" | "ecs"
    )
}

/// Resolve a `--audit` sub-option string: a comma list of `key=value`
/// pairs where the only recognized key is `out` (the report path).
/// Unknown sub-options are usage errors (exit 2), caught before any
/// expensive work. Returns the explicit output path, if one was given.
fn parse_audit_out(spec: &str) -> Option<String> {
    let mut out = None;
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.split_once('=') {
            Some(("out", path)) if !path.is_empty() => out = Some(path.to_string()),
            _ => {
                eprintln!(
                    "--audit: unknown sub-option {part:?} (expected out=FILE)\n{}",
                    usage()
                );
                std::process::exit(2);
            }
        }
    }
    out
}

/// Resolve a size name to a substrate config. Unknown names are usage
/// errors (exit 2): a typo'd `--size` must never silently run — and
/// mislabel — a default-size build. `parse_args` rejects bad sizes before
/// any filesystem work; this arm is the backstop for new call sites.
fn config_for(size: &str) -> SubstrateConfig {
    match size {
        "small" => SubstrateConfig::small(),
        "default" => SubstrateConfig::default(),
        "large" => SubstrateConfig {
            topology: TopologyConfig::large(),
            ..Default::default()
        },
        other => {
            eprintln!(
                "unknown --size {other:?} (small|default|large)\n{}",
                usage()
            );
            std::process::exit(2);
        }
    }
}

/// Create the output directory and verify it is actually writable
/// (`create_dir_all` succeeds on an existing read-only directory), exiting
/// with status 2 on failure as for any other bad invocation.
fn ensure_out_dir(dir: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create output dir {dir}: {e}");
        std::process::exit(2);
    }
    let probe = format!("{dir}/.write_probe");
    if let Err(e) = std::fs::write(&probe, b"") {
        eprintln!("output dir {dir} is not writable: {e}");
        std::process::exit(2);
    }
    let _ = std::fs::remove_file(&probe);
}

/// Verify an output file path is writable before doing any expensive
/// work, exiting with status 2 otherwise — the same preflight contract as
/// `ensure_out_dir`, so `--trace FILE` can no longer burn a full map
/// build and then fail at the final write. Opens in append mode so an
/// existing file's contents survive a later abort.
fn require_writable_file(path: &str) {
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        eprintln!("output file {path} is not writable: {e}");
        std::process::exit(2);
    }
}

/// Turn tracing on for this process: virtual timestamps seeded from the
/// run seed, ring reset so event ids start from zero. The metrics registry
/// is enabled too so span enter/exit events appear as Chrome durations.
fn enable_tracing(seed: u64) {
    itm_obs::set_enabled(true);
    itm_obs::trace::set_seed(seed);
    itm_obs::trace::reset();
    itm_obs::trace::set_enabled(true);
}

/// Resolve a `--explain` PREFIX argument (pfxN, bare index, or /24).
fn parse_prefix(s: &Substrate, raw: &str) -> Option<u32> {
    let text = raw.strip_prefix("pfx").unwrap_or(raw);
    if let Ok(n) = text.parse::<u32>() {
        return (n < s.topo.prefixes.len() as u32).then_some(n);
    }
    let net: itm_types::Ipv4Net = raw.parse().ok()?;
    s.topo.prefixes.find(net).map(|rec| rec.id.raw())
}

/// Resolve a `--explain` SERVICE argument (svcN, bare index, or domain).
fn parse_service(s: &Substrate, raw: &str) -> Option<u32> {
    let text = raw.strip_prefix("svc").unwrap_or(raw);
    if let Ok(n) = text.parse::<u32>() {
        return (n < s.catalog.len() as u32).then_some(n);
    }
    s.catalog.by_domain(raw).map(|svc| svc.id.raw())
}

/// The `--explain` mode: build the map with tracing on, index the trace,
/// and print the evidence chain behind one asserted edge. When the edge
/// is missing and the build ran under a fault plan, the recorded probe
/// failures for that cell explain the gap.
fn explain_edge(s: &Substrate, pfx_arg: &str, svc_arg: &str, faults: &FaultPlan) -> ! {
    let Some(prefix) = parse_prefix(s, pfx_arg) else {
        eprintln!("cannot resolve prefix {pfx_arg:?}\n{}", usage());
        std::process::exit(2);
    };
    let Some(service) = parse_service(s, svc_arg) else {
        eprintln!("cannot resolve service {svc_arg:?}\n{}", usage());
        std::process::exit(2);
    };
    let t = Instant::now();
    eprintln!("building map with tracing enabled…");
    let map_cfg = MapConfig {
        faults: faults.clone(),
        // Claim tables feed the per-technique verdict lines below.
        record_claims: true,
        ..Default::default()
    };
    let map = TrafficMap::build(s, &map_cfg).expect("map build");
    eprintln!("  map built [{:.1?}]", t.elapsed());
    let snap = itm_obs::trace::snapshot();
    eprintln!(
        "  {} trace events captured ({} dropped)",
        snap.records.len(),
        snap.dropped_events
    );
    let index = ProvenanceIndex::build(&snap);
    let found = match index.explain(prefix, service) {
        Some(chain) => {
            println!("{}", chain.render());
            true
        }
        None => {
            let failures = index.failures(prefix, service);
            if failures.is_empty() {
                eprintln!(
                    "no edge asserted for pfx{prefix} × svc{service}; the map \
                     did not measure that cell (try a user-access prefix and an \
                     ECS service, or list edges via a larger trace capacity)"
                );
            } else {
                eprintln!(
                    "no edge asserted for pfx{prefix} × svc{service}; \
                     {} recorded probe failure(s) explain the gap:",
                    failures.len()
                );
                const FAILURE_CAP: usize = 20;
                for r in failures.iter().take(FAILURE_CAP) {
                    eprintln!(
                        "  [{} {}] {}",
                        r.technique.as_str(),
                        r.kind.as_str(),
                        r.detail
                    );
                }
                if failures.len() > FAILURE_CAP {
                    eprintln!("  … and {} more", failures.len() - FAILURE_CAP);
                }
            }
            false
        }
    };
    print_cell_verdicts(s, &map, prefix, service);
    std::process::exit(if found { 0 } else { 1 });
}

/// The `--explain` quality addendum: what every replica estimator claims
/// for the cell, how each claim scores against the substrate's ground
/// truth, and the estimator's overall accuracy on this build for context.
fn print_cell_verdicts(s: &Substrate, map: &TrafficMap, prefix: u32, service: u32) {
    let rebuilt;
    let claims = match map.claims.as_ref() {
        Some(c) => c,
        None => {
            rebuilt = itm_core::MapClaims::record(s, map);
            &rebuilt
        }
    };
    let t = Instant::now();
    eprintln!("scoring techniques against ground truth…");
    let q = itm_core::audit(s, map);
    eprintln!("  audit done [{:.1?}]", t.elapsed());
    let (truth, verdicts) =
        itm_core::audit::explain_cell(s, map, claims, PrefixId(prefix), ServiceId(service));
    println!(
        "\ntechnique verdicts for pfx{prefix} × svc{service} (ground truth: AS{}):",
        truth.raw()
    );
    for v in &verdicts {
        let claim = match v.claimed {
            Some(a) => format!("AS{}", a.raw()),
            None => "-".to_string(),
        };
        let ctx = q
            .techniques
            .get(v.technique)
            .map(|t| {
                format!(
                    "overall precision {:.3}, coverage {:.3}",
                    t.overall.precision(),
                    t.overall.coverage()
                )
            })
            .unwrap_or_default();
        println!(
            "  {:<13} {:<12} {:<10} ({ctx})",
            v.technique,
            v.verdict.as_str(),
            claim
        );
    }
}

fn main() {
    let args = parse_args();
    if args.bench_record {
        bench_record(&args);
    }
    if args.bench_query {
        bench_query(&args);
    }
    // Query mode is read-only: it never builds a substrate and touches
    // the output dir only for --metrics; it opens the snapshot and answers.
    if let Some(spec) = &args.query {
        run_query(&args, spec);
    }
    // Diff mode opens two existing snapshots; it never builds anything.
    if let Some((a, b)) = &args.diff {
        run_diff(&args, a, b);
    }
    // The continuous-map loop drives its own full + incremental builds.
    if let Some(n) = args.epochs {
        run_epochs(&args, n);
    }
    ensure_out_dir(&args.out_dir);

    // Resolve the snapshot destination and preflight it with the other
    // output paths; like --audit, a snapshot needs the assembled map, so
    // `--exp` (when given) must name a map-building experiment.
    let snapshot_file: Option<String> = args.snapshot.as_ref().map(|_| snapshot_path(&args));
    if snapshot_file.is_some() {
        if let Some(exp) = args.exp.as_deref() {
            if !needs_map(exp) {
                eprintln!(
                    "--snapshot needs a map-building experiment (map table1 \
                     fig1a fig1b fig2 coverage ecs), got {exp:?}\n{}",
                    usage()
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &snapshot_file {
        require_writable_file(path);
    }

    // Resolve the trace destination now and preflight it alongside the
    // output dir: both failure modes exit 2 before the substrate build.
    let trace_file: Option<String> = args.trace.as_ref().map(|t| {
        t.clone()
            .unwrap_or_else(|| format!("{}/trace.json", args.out_dir))
    });
    if let Some(path) = &trace_file {
        require_writable_file(path);
    }

    // Resolve the audit destination and preflight it the same way. An
    // audit needs the assembled map, so `--exp` (when given) must name a
    // map-building experiment — also checked before the substrate build.
    let audit_file: Option<String> = args.audit.as_ref().map(|spec| {
        spec.as_deref()
            .and_then(parse_audit_out)
            .unwrap_or_else(|| format!("{}/map_quality.json", args.out_dir))
    });
    if audit_file.is_some() {
        if let Some(exp) = args.exp.as_deref() {
            if !needs_map(exp) {
                eprintln!(
                    "--audit needs a map-building experiment (map table1 fig1a \
                     fig1b fig2 coverage ecs), got {exp:?}\n{}",
                    usage()
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &audit_file {
        require_writable_file(path);
    }

    if args.trace.is_some() || args.explain.is_some() {
        enable_tracing(args.seed);
    }

    if args.metrics {
        enable_metrics();
    }

    let cfg = config_for(&args.size);
    let t0 = Instant::now();
    eprintln!(
        "building substrate (size={}, seed={})…",
        args.size, args.seed
    );
    let s = Substrate::build(cfg.clone(), args.seed).expect("valid config");
    eprintln!(
        "  {} ASes, {} links, {} /24s, {} services [{:.1?}]",
        s.topo.n_ases(),
        s.topo.links.len(),
        s.topo.prefixes.len(),
        s.catalog.len(),
        t0.elapsed()
    );

    if let Some((pfx_arg, svc_arg)) = &args.explain {
        explain_edge(&s, pfx_arg, svc_arg, &args.faults);
    }

    // Experiments that need the full map share one build.
    let want = |id: &str| args.exp.as_deref().map(|e| e == id).unwrap_or(true);

    let map = if ["map", "table1", "fig1a", "fig1b", "fig2", "coverage", "ecs"]
        .iter()
        .any(|id| want(id) && needs_map(id))
    {
        let t1 = Instant::now();
        if args.faults.is_off() {
            eprintln!("running measurement pipeline ({} threads)…", args.threads);
        } else {
            eprintln!(
                "running measurement pipeline ({} threads, faults on: \
                 loss={} timeout={} refusal={} churn={} retries={})…",
                args.threads,
                args.faults.loss,
                args.faults.timeout,
                args.faults.refusal,
                args.faults.churn,
                args.faults.max_retries
            );
        }
        let exec = ParallelExecutor::new(args.threads);
        let map_cfg = MapConfig {
            faults: args.faults.clone(),
            record_claims: audit_file.is_some(),
            ..Default::default()
        };
        let m = TrafficMap::build_with(&s, &map_cfg, &exec).expect("map build");
        eprintln!("  map built [{:.1?}]", t1.elapsed());
        Some(m)
    } else {
        None
    };

    // The map snapshot: a pure function of (substrate, map), so the file
    // is byte-identical at any thread count and any machine for one seed.
    if let (Some(path), Some(map)) = (&snapshot_file, &map) {
        let t = Instant::now();
        eprintln!("writing snapshot…");
        match itm_core::write_snapshot(&s, map, path) {
            Ok(n) => eprintln!("  wrote {path} ({n} bytes) [{:.1?}]", t.elapsed()),
            Err(e) => {
                eprintln!("cannot write snapshot {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    // The quality audit: score every technique against ground truth and
    // write the schema-versioned report. Pure function of (substrate,
    // map), so it is byte-identical at any thread count; with --audit off
    // no artifact changes by a byte.
    if let (Some(path), Some(map)) = (&audit_file, &map) {
        let t = Instant::now();
        eprintln!("auditing map quality…");
        let q = itm_core::audit(&s, map);
        assert!(q.is_consistent(), "audit accounting invariant violated");
        let mut v = q.to_json_value();
        // A faulted audit carries the per-technique fault accounting,
        // exactly as the map summary does; a clean one omits the key.
        if !map.fault_report.is_empty() {
            if let serde_json::Value::Object(root) = &mut v {
                let mut faults = serde_json::Map::new();
                for (technique, st) in &map.fault_report {
                    faults.insert(
                        technique.clone(),
                        serde_json::json!({
                            "issued": st.issued(),
                            "observed": st.observed,
                            "degraded": st.degraded,
                            "lost": st.lost,
                            "retries": st.retries,
                        }),
                    );
                }
                root.insert("faults".into(), serde_json::Value::Object(faults));
            }
        }
        let text = serde_json::to_string_pretty(&v).expect("serializable");
        std::fs::write(path, text).expect("write audit report");
        eprintln!("  wrote {path} [{:.1?}]", t.elapsed());
    }

    let mut results: Vec<ExperimentResult> = Vec::new();
    let mut run = |id: &str, f: &mut dyn FnMut() -> ExperimentResult| {
        if want(id) {
            let t = Instant::now();
            eprintln!("running {id}…");
            let r = f();
            eprintln!("  done [{:.1?}]", t.elapsed());
            results.push(r);
        }
    };

    if let Some(map) = &map {
        run("map", &mut || {
            let summary = MapSummary::extract(&s, map);
            let path = format!("{}/map_summary.json", args.out_dir);
            std::fs::write(&path, summary.to_json().expect("serializable"))
                .expect("write map summary");
            eprintln!("  wrote {path}");
            ExperimentResult {
                id: "map",
                title: "assembled traffic map (map_summary.json)".into(),
                csv_header: "metric,value".into(),
                csv_rows: vec![
                    format!("user_prefixes,{}", summary.user_prefixes.len()),
                    format!("mapping_cells,{}", summary.mapping_cells),
                    format!("offnets,{}", summary.offnets.len()),
                    format!("route_edges,{}", summary.route_edges),
                    format!("invisible_peering,{:.4}", summary.invisible_peering),
                ],
                headline: vec![
                    (
                        "user prefixes".into(),
                        summary.user_prefixes.len().to_string(),
                    ),
                    ("mapping cells".into(), summary.mapping_cells.to_string()),
                    (
                        "offnet deployments".into(),
                        summary.offnets.len().to_string(),
                    ),
                    ("route edges".into(), summary.route_edges.to_string()),
                ],
            }
        });
        run("table1", &mut || experiments::table1(&s, map));
        run("fig1a", &mut || experiments::fig1a(&s, map));
        run("fig1b", &mut || experiments::fig1b(&s, map));
        run("fig2", &mut || experiments::fig2(&s, map));
        run("coverage", &mut || experiments::coverage_claims(&s, map));
        run("ecs", &mut || experiments::ecs(&s, map));
    }
    run("pathlen", &mut || experiments::pathlen(&s));
    run("anycast", &mut || experiments::anycast(&s));
    run("pathpred", &mut || experiments::pathpred(&s));
    run("recommend", &mut || experiments::recommend(&s));
    run("ipid", &mut || experiments::ipid(&s));
    run("visibility", &mut || experiments::visibility(&s));
    run("consolidation", &mut || experiments::consolidation(&s));
    run("cachehost", &mut || experiments::cachehost(&s));
    run("assoc", &mut || experiments::assoc(&s));
    run("staleness", &mut || experiments::staleness(&s));

    if args.ablations
        || args
            .exp
            .as_deref()
            .map(|e| e.starts_with("ab_"))
            .unwrap_or(false)
    {
        run("ab_ecs_scope", &mut || ablations::ab_ecs_scope(&s));
        run("ab_resolver_assumption", &mut || {
            ablations::ab_resolver_assumption(&cfg, args.seed)
        });
        run("ab_collectors", &mut || ablations::ab_collectors(&s));
        run("ab_recommend_features", &mut || {
            ablations::ab_recommend_features(&s)
        });
        run("ab_probe_budget", &mut || ablations::ab_probe_budget(&s));
    }

    if results.is_empty() {
        // `--exp ab_*` without --ablations still runs (handled above), so
        // the only way here is an ablation id filtered out by a logic bug.
        eprintln!(
            "no experiment matched {:?}\n{}",
            args.exp.as_deref().unwrap_or(""),
            usage()
        );
        std::process::exit(2);
    }

    if args.metrics {
        write_metrics(&args.out_dir, map.as_ref());
    }

    if let Some(path) = &trace_file {
        let snap = itm_obs::trace::snapshot();
        let v = itm_obs::chrome_trace(&snap);
        let text = serde_json::to_string(&v).expect("serializable");
        std::fs::write(path, text).expect("write trace");
        eprintln!(
            "wrote {path} ({} events, {} dropped; open in Perfetto or chrome://tracing)",
            snap.records.len(),
            snap.dropped_events
        );
    }

    // Emit.
    let mut summary = String::new();
    for r in &results {
        let path = format!("{}/{}.csv", args.out_dir, r.id);
        std::fs::write(&path, r.csv()).expect("write csv");
        let text = r.text();
        print!("\n{text}");
        summary.push('\n');
        summary.push_str(&text);
    }
    let mut f =
        std::fs::File::create(format!("{}/summary.txt", args.out_dir)).expect("create summary");
    writeln!(
        f,
        "itm repro — size={}, seed={}, total {:.1?}",
        args.size,
        args.seed,
        t0.elapsed()
    )
    .unwrap();
    f.write_all(summary.as_bytes()).unwrap();
    eprintln!(
        "\nwrote {} experiment CSVs + summary.txt to {}/ [total {:.1?}]",
        results.len(),
        args.out_dir,
        t0.elapsed()
    );
}

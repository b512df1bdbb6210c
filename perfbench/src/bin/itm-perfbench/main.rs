//! Worker process of the itm benchmark: runs one workload once, in this
//! process, and prints one JSON record (last line of stdout) with its
//! end-to-end samples, exact counts, checks and — when traced — the
//! per-layer breakdown. `perfbench/run.py` builds this binary, starts it
//! once per run (twice for a traced run) and reduces the records.
//!
//! ```text
//! itm-perfbench --workload serve|epoch --seed N --seconds S
//!               --trace 0|1 --work-dir DIR [--universe N]
//! ```
//!
//! The substrate (the simulated Internet the map is measured from) is
//! built at the `default` size from `--universe` (default 42), so every
//! run measures the same universe; `--seed` makes the workload's own
//! inputs: the query list, and which epochs of churn are applied. Build
//! and epoch work run on every core.
//!
//! Every call into the workspace is a public API call timed from outside
//! (see [`trace`]); no crate is instrumented for the benchmark.

mod serve;
mod stats;
mod trace;

use itm_core::{MapConfig, ParallelExecutor, TrafficMap};
use itm_measure::{Substrate, SubstrateConfig};
use itm_serve::{MapDiff, Snapshot};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::time::Duration;
use trace::{Phase, Tracer};

// Installed in every run so traced and untraced runs execute the same
// binary; tracking stays off (one relaxed load per allocation) unless
// the run is traced.
#[global_allocator]
static ALLOC: itm_obs::alloc::TrackingAlloc = itm_obs::alloc::TrackingAlloc::new();

/// Epochs the `epoch` workload runs at least, whatever `--seconds` says.
const MIN_EPOCHS: u32 = 1;

/// The serving-loop metrics and their units (see [`Bench::serving`]).
const SERVING_METRICS: [(&str, &str); 7] = [
    ("serve_qps", "1/s"),
    ("point_p50_us", "us"),
    ("point_p99_us", "us"),
    ("reverse_p50_us", "us"),
    ("reverse_p99_us", "us"),
    ("route_p50_us", "us"),
    ("route_p99_us", "us"),
];

/// The quantile of the steps reported as `step_p90_s`.
const STEP_TAIL_Q: f64 = 0.90;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Serve,
    Epoch,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    universe: u64,
    work_dir: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: itm-perfbench --workload serve|epoch --seed N --seconds S \
         --trace 0|1 --work-dir DIR [--universe N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: Workload::Serve,
        seed: 42,
        seconds: 10.0,
        trace: false,
        universe: 42,
        work_dir: String::new(),
    };
    let mut workload = None;
    let mut i = 0;
    while i < argv.len() {
        let v = argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(match v.as_str() {
                    "serve" => Workload::Serve,
                    "epoch" => Workload::Epoch,
                    _ => usage(),
                })
            }
            "--seed" => a.seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--universe" => a.universe = v.parse().unwrap_or_else(|_| usage()),
            "--work-dir" => a.work_dir = v,
            _ => usage(),
        }
        i += 2;
    }
    a.workload = workload.unwrap_or_else(|| usage());
    if a.work_dir.is_empty() || !a.seconds.is_finite() || a.seconds <= 0.0 {
        usage();
    }
    a
}

/// Output checks: each one attempted counts, each failure counts against.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// One workload run.
struct Bench {
    args: Args,
    exec: ParallelExecutor,
    cfg: MapConfig,
    t: Tracer,
    checks: Checks,
    /// Timing samples per end-to-end metric, in seconds.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Counts that depend only on the seed (must repeat exactly).
    counts: BTreeMap<String, u64>,
    /// Tally of the serving loop each workload runs over its final
    /// snapshot (the timed part on `serve`).
    tally: serve::Tally,
    /// Per-epoch work counts: (dirty campaigns, changed cells, ECS
    /// queries issued).
    epochs: Vec<(u64, u64, u64)>,
    /// Wall seconds of the verification full build (epoch workload).
    verify_build_s: f64,
}

impl Bench {
    fn sample(&mut self, metric: &'static str, secs: f64) {
        self.samples.entry(metric).or_default().push(secs);
    }

    fn path(&self, name: &str) -> String {
        format!("{}/{name}", self.args.work_dir)
    }

    fn substrate(&mut self) -> Substrate {
        let cfg = SubstrateConfig::default();
        let universe = self.args.universe;
        let (s, _) = self
            .t
            .call("Substrate::build", || Substrate::build(cfg, universe));
        s.expect("the default substrate builds")
    }

    /// Validate an opened snapshot against the map it was written from.
    fn check_snapshot(
        &mut self,
        opened: &Result<Snapshot, itm_types::snap::SnapError>,
        map: &TrafficMap,
    ) {
        self.checks.check(opened.is_ok(), || {
            format!("snapshot failed validation: {opened:?}")
        });
        if let Ok(snap) = opened {
            let want = map.user_mapping.mapping.len();
            self.checks.check(snap.n_cells() == want, || {
                format!("n_cells {} != mapping cells {want}", snap.n_cells())
            });
        }
    }

    /// Built substrate → opened, validated snapshot: `build_with`,
    /// `write_snapshot`, `Snapshot::open`. Records a `map_ready_s` sample;
    /// returns the map, the snapshot and the `build_with` seconds. Counts
    /// are recorded under `label`.
    fn map_ready(&mut self, s: &Substrate, file: &str, label: &str) -> (TrafficMap, Snapshot, f64) {
        let path = self.path(file);
        let (exec, cfg) = (&self.exec, &self.cfg);
        let (map, t_build) = self.t.call("TrafficMap::build_with", || {
            TrafficMap::build_with(s, cfg, exec)
        });
        let map = map.expect("map build");
        let (written, t_write) = self.t.call("write_snapshot", || {
            itm_core::write_snapshot(s, &map, &path)
        });
        written.expect("snapshot write");
        let (opened, t_open) = self.t.call("Snapshot::open", || Snapshot::open(&path));
        self.sample("map_ready_s", t_build + t_write + t_open);
        self.check_snapshot(&opened, &map);
        self.count(
            &format!("{label}cells"),
            map.user_mapping.mapping.len() as u64,
        );
        let f = &map.user_mapping.fault_stats;
        self.count(
            &format!("{label}ecs_queries"),
            f.observed + f.degraded + f.lost,
        );
        (map, opened.expect("snapshot opens"), t_build)
    }

    /// Record an exact count; a repeat under the same key must agree.
    fn count(&mut self, key: &str, v: u64) {
        if let Some(&old) = self.counts.get(key) {
            self.checks.check(old == v, || {
                format!("count {key} changed within the run: {old} then {v}")
            });
        } else {
            self.counts.insert(key.to_string(), v);
        }
    }

    /// The `serve` workload's timed part: the serving loop over `snap`
    /// for `budget` (at least one full pass); each pass is a step.
    fn serve(&mut self, snap: &Snapshot, queries: &[serve::Query], budget: Duration) {
        self.t.enter("serve.closed_loop");
        let tally = serve::closed_loop(snap, queries, budget, Some(&mut self.checks));
        self.t.exit();
        for p in &tally.passes {
            self.sample("step_s", p.secs);
        }
        // Exact counts come from the first pass, which every loop makes in
        // full.
        let c = tally.first_pass;
        self.count("serve.point_hits", c.point_hits);
        self.count("serve.reverse_cells", c.reverse_cells);
        self.count("serve.nbrs_walked", c.nbrs_walked);
        self.tally = tally;
    }

    /// Traced runs only: a standalone resolver deploy (it runs serially
    /// inside every map build but has no span of its own) and, on
    /// `serve`, a 1-thread build for the thread-scaling ratio.
    fn extras(&mut self, s: &Substrate) {
        if !self.t.on() {
            return;
        }
        self.t.set_phase(Phase::Extra);
        self.t
            .call("Substrate::open_resolver", || s.open_resolver().is_ok());
        if self.args.workload == Workload::Serve {
            let cfg = &self.cfg;
            self.t.call("TrafficMap::build_with[1 thread]", || {
                TrafficMap::build_with(s, cfg, &ParallelExecutor::new(1)).is_ok()
            });
        }
    }

    /// The `epoch` workload's timed part: `light`-plan epochs, each
    /// `apply_epoch` → `build_incremental` → snapshot → open →
    /// `MapDiff::compute` against the previous epoch's snapshot. The
    /// seed picks which epochs of churn are applied. Epochs run while
    /// the next one, if as long as the last, would end no more than half
    /// an epoch past `--seconds`.
    fn run_epochs(&mut self, s: &mut Substrate, mut map: TrafficMap, snap: Snapshot) -> Epochs {
        let plan = itm_types::EpochPlan::light();
        let first = (self.args.seed % 1_000_000) as u32 * 100;
        let ecs_counter = itm_obs::counter_with("probe.queries", &[("technique", "ecs_mapping")]);
        let mut prev: Option<Snapshot> = None;
        let mut cur = snap;
        let mut diff = MapDiff::default();
        let (mut elapsed, mut last) = (0.0, 0.0);
        let mut k = 0u32;
        while k < MIN_EPOCHS || elapsed + last / 2.0 < self.args.seconds {
            k += 1;
            let epoch = first + k;
            let path = self.path(&format!("epoch{}.snap", k % 2));
            let ecs0 = ecs_counter.get();
            self.t.enter("epoch");
            let ((_, dirty), t_apply) = self
                .t
                .call("apply_epoch", || itm_core::apply_epoch(s, &plan, epoch));
            let (exec, cfg, s_ref) = (&self.exec, &self.cfg, &*s);
            let (next, t_inc) = self.t.call("build_incremental", || {
                itm_core::build_incremental(s_ref, cfg, exec, map, &dirty)
            });
            map = next.expect("incremental build");
            let (written, t_write) = self.t.call("write_snapshot", || {
                itm_core::write_snapshot(s_ref, &map, &path)
            });
            written.expect("snapshot write");
            let (opened, t_open) = self.t.call("Snapshot::open", || Snapshot::open(&path));
            self.check_snapshot(&opened, &map);
            let next = opened.expect("snapshot opens");
            let (computed, t_diff) = self
                .t
                .call("MapDiff::compute", || MapDiff::compute(&cur, &next));
            self.t.exit();
            let secs = t_apply + t_inc + t_write + t_open + t_diff;
            elapsed += secs;
            last = secs;
            self.sample("step_s", secs);
            self.checks.check(computed.is_ok(), || {
                format!("epoch {epoch}: diff failed: {computed:?}")
            });
            diff = computed.unwrap_or_default();
            let changed = diff.cells.len() as u64;
            self.count(
                &format!("epoch{k}.dirty_campaigns"),
                dirty.campaigns.len() as u64,
            );
            self.count(&format!("epoch{k}.diff_changed_cells"), changed);
            self.count(
                &format!("epoch{k}.diff_moved_cells"),
                diff.n_cells_of_kind("moved") as u64,
            );
            self.count(&format!("epoch{k}.cells"), next.n_cells() as u64);
            self.epochs.push((
                dirty.campaigns.len() as u64,
                changed,
                ecs_counter.get() - ecs0,
            ));
            prev = Some(std::mem::replace(&mut cur, next));
        }
        Epochs {
            prev: prev.expect("at least one epoch ran"),
            last: cur,
            diff,
            path: self.path(&format!("epoch{}.snap", k % 2)),
        }
    }

    /// Untimed checks on the final epoch: its diff round-trips, and its
    /// snapshot is byte-identical to a from-scratch build.
    fn verify_epochs(&mut self, s: &Substrate, e: &Epochs) {
        self.t.set_phase(Phase::Check);
        self.checks.check(
            e.diff.apply_cells(&e.prev) == itm_serve::decode_cells(&e.last),
            || "MapDiff::apply_cells(prev) != decode_cells(new)".into(),
        );
        // The from-scratch build goes through the same build → snapshot →
        // open chain as set-up, so it is a second `map_ready_s` sample.
        let (full, _, build_s) = self.map_ready(s, "verify.snap", "verify.");
        drop(full);
        self.verify_build_s = build_s;
        let written = std::fs::read(&e.path).unwrap_or_default();
        let rebuilt = std::fs::read(self.path("verify.snap")).unwrap_or_default();
        self.checks
            .check(!written.is_empty() && written == rebuilt, || {
                "final epoch snapshot differs from a from-scratch build".into()
            });
    }
}

/// The end of the `epoch` workload's timed part.
struct Epochs {
    /// The snapshot before the final epoch.
    prev: Snapshot,
    /// The final epoch's snapshot.
    last: Snapshot,
    /// `MapDiff::compute(prev, last)`.
    diff: MapDiff,
    /// Where `last` was written.
    path: String,
}

/// Peak resident set (`VmHWM`) of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `{value, unit, n}` for one metric.
fn metric(value: f64, unit: &str, n: usize) -> Value {
    json!({"value": value, "unit": unit, "n": n as u64})
}

impl Bench {
    /// The end-to-end metrics of this run.
    fn end_to_end(&self) -> Map {
        let mut m = Map::new();
        for (name, v) in &self.samples {
            m.insert((*name).to_string(), metric(stats::median(v), "s", v.len()));
        }
        if let Some(v) = self.samples.get("step_s") {
            let mut sorted = v.clone();
            sorted.sort_by(f64::total_cmp);
            let tail = stats::quantile(&sorted, STEP_TAIL_Q);
            m.insert("step_p90_s".into(), metric(tail, "s", v.len()));
            m.insert("step_max_s".into(), metric(stats::max(v), "s", v.len()));
        }
        m.insert("peak_rss_mb".into(), metric(peak_rss_mb(), "MB", 1));
        m
    }

    /// Serving-loop throughput and per-call latency: the median over the
    /// loop's complete passes of each pass's qps, p50 and p99. Empty when
    /// the workload serves no queries.
    fn serving(&self) -> Map {
        let mut m = Map::new();
        let passes = &self.tally.passes;
        if passes.is_empty() {
            return m;
        }
        let n = passes.len();
        let over = |f: Field| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
        let qps = serve::LIST_LEN as f64 / over(|p| p.secs);
        m.insert("serve_qps".into(), metric(qps, "1/s", n));
        type Field = fn(&serve::PassStats) -> f64;
        let latencies: [(&str, Field); 6] = [
            ("point_p50_us", |p| p.point[0]),
            ("point_p99_us", |p| p.point[1]),
            ("reverse_p50_us", |p| p.reverse[0]),
            ("reverse_p99_us", |p| p.reverse[1]),
            ("route_p50_us", |p| p.route[0]),
            ("route_p99_us", |p| p.route[1]),
        ];
        for (name, f) in latencies {
            m.insert(name.into(), metric(over(f), "us", n));
        }
        m
    }

    /// The per-layer metrics of a traced run.
    fn per_layer(&self) -> Map {
        let t = &self.t;
        let mut m = Map::new();
        let mut put = |name: &str, unit: &str, v: f64| {
            m.insert(name.to_string(), json!({"value": v, "unit": unit}));
        };
        let obs_s = |call: &str, leaf: &str| t.per_call(call, |s| s.obs.span_s(leaf));
        let wall = |call: &str| t.per_call(call, |s| s.secs());
        // The composite map call of this workload: incremental rebuilds
        // on `epoch`, full builds elsewhere.
        let map_call = if self.args.workload == Workload::Epoch {
            "build_incremental"
        } else {
            "TrafficMap::build_with"
        };
        put(
            "itm-measure.substrate_build_s",
            "s",
            obs_s("Substrate::build", "substrate.build"),
        );
        put(
            "itm-topology.generate_s",
            "s",
            obs_s("Substrate::build", "topology.generate"),
        );
        put(
            "itm-traffic.traffic_build_s",
            "s",
            obs_s("Substrate::build", "traffic.build"),
        );
        put(
            "itm-dns.open_resolver_s",
            "s",
            t.per_call("Substrate::open_resolver", |s| s.secs()),
        );
        for (name, leaf) in [
            ("itm-measure.cache_probe_s", "cache_probe.run"),
            ("itm-measure.root_crawl_s", "root_crawl.run"),
            ("itm-measure.user_mapping_s", "user_mapping.measure"),
            ("itm-tls.tls_scan_s", "tls_scan.run"),
            ("itm-tls.sni_scan_s", "sni_scan.run"),
            ("itm-routing.anycast_s", "services.anycast"),
            ("itm-routing.routes_assemble_s", "routes.assemble"),
        ] {
            put(name, "s", obs_s(map_call, leaf));
        }
        let self_s =
            |call: &str, root: &str| t.per_call(call, |s| s.obs.span_s(root) - s.obs.leaf_s(root));
        put(
            "itm-core.map_build_s",
            "s",
            obs_s("TrafficMap::build_with", "map.build"),
        );
        put(
            "itm-core.map_build_self_s",
            "s",
            self_s("TrafficMap::build_with", "map.build"),
        );
        put(
            "itm-core.build_incremental_s",
            "s",
            obs_s("build_incremental", "map.build_incremental"),
        );
        put(
            "itm-core.build_incremental_self_s",
            "s",
            self_s("build_incremental", "map.build_incremental"),
        );
        put("itm-core.apply_epoch_s", "s", wall("apply_epoch"));
        put("itm-core.snapshot_write_s", "s", wall("write_snapshot"));
        put(
            "itm-core.snapshot_claims_s",
            "s",
            obs_s("write_snapshot", "map.claims"),
        );
        put("itm-serve.open_s", "s", wall("Snapshot::open"));
        put("itm-serve.diff_s", "s", wall("MapDiff::compute"));

        // Only `serve` runs the serving loop; elsewhere these read 0.
        let serving = self.serving();
        for (name, unit) in SERVING_METRICS {
            let v = serving.get(name).and_then(|v| v.get("value"));
            put(
                &format!("itm-serve.{name}"),
                unit,
                v.and_then(Value::as_f64).unwrap_or(0.0),
            );
        }
        let q = &self.tally;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        put("itm-serve.point_busy_s", "s", q.point.ns as f64 / 1e9);
        put(
            "itm-serve.point_hit_ratio",
            "ratio",
            ratio(q.counts.point_hits as f64, q.point.calls as f64),
        );
        put("itm-serve.reverse_busy_s", "s", q.reverse.ns as f64 / 1e9);
        put(
            "itm-serve.reverse_cells_per_query",
            "count",
            ratio(q.counts.reverse_cells as f64, q.reverse.calls as f64),
        );
        put(
            "itm-serve.reverse_alloc_bytes",
            "bytes",
            ratio(q.reverse_alloc_bytes as f64, q.reverse.calls as f64),
        );
        put("itm-serve.route_busy_s", "s", q.route.ns as f64 / 1e9);
        put(
            "itm-serve.route_nbrs_per_query",
            "count",
            ratio(q.counts.nbrs_walked as f64, q.nbr_walks as f64),
        );

        let per = |f: &dyn Fn(&trace::ObsDelta) -> f64| t.per_call(map_call, |s| f(&s.obs));
        put(
            "itm-dns.ecs_cache_hit_ratio",
            "ratio",
            per(&|o| {
                ratio(
                    o.counter("dns.cache.hit") as f64,
                    o.counter("dns.cache.lookups") as f64,
                )
            }),
        );
        put(
            "itm-measure.ecs_queries",
            "count",
            per(&|o| o.counter("probe.queries{technique=\"ecs_mapping\"}") as f64),
        );
        put(
            "itm-core.exec_busy_s",
            "s",
            per(&|o| o.hist("exec.shard_ns").1 as f64 / 1e9),
        );
        put(
            "itm-core.exec_wait_s",
            "s",
            per(&|o| o.hist("exec.queue_wait_ns").1 as f64 / 1e9),
        );
        put(
            "itm-core.exec_skew_x1000",
            "x1000",
            per(&|o| {
                let (n, sum) = o.hist("exec.skew_x1000");
                ratio(sum as f64, n as f64)
            }),
        );
        let one_thread = t.per_call("TrafficMap::build_with[1 thread]", |s| s.secs());
        put(
            "itm-core.thread_scaling",
            "x",
            ratio(one_thread, obs_s("TrafficMap::build_with", "map.build")),
        );
        // Largest tracked peak of any allocation phase in a span subtree.
        let phases = itm_obs::alloc::phase_stats();
        let peak = |root: &str| {
            let under = format!("{root}/");
            phases
                .iter()
                .filter(|(name, _)| name == root || name.starts_with(&under))
                .map(|(_, p)| p.peak_bytes)
                .max()
                .unwrap_or(0) as f64
        };
        let build_root = if map_call == "build_incremental" {
            "map.build_incremental"
        } else {
            "map.build"
        };
        put("itm-obs.map_build_peak_bytes", "bytes", peak(build_root));
        put("itm-obs.snapshot_peak_bytes", "bytes", peak("map.snapshot"));

        let n_epochs = self.epochs.len() as f64;
        let mean = |f: &dyn Fn(&(u64, u64, u64)) -> f64| {
            ratio(self.epochs.iter().map(f).sum::<f64>(), n_epochs)
        };
        put("itm-types.dirty_campaigns", "count", mean(&|e| e.0 as f64));
        put(
            "itm-serve.diff_changed_cells",
            "count",
            mean(&|e| e.1 as f64),
        );
        put(
            "itm-core.epoch_useful_ratio",
            "ratio",
            mean(&|e| ratio(e.1 as f64, e.2 as f64)),
        );
        put(
            "itm-core.incremental_speedup",
            "x",
            ratio(self.verify_build_s, wall("build_incremental")),
        );
        m
    }

    /// Self-time attribution rows as JSON.
    fn attribution_json(&self) -> Value {
        let rows: Vec<Value> = self
            .t
            .attribution()
            .into_iter()
            .map(|(call, path, n, total, own)| {
                json!({"call": call, "path": path, "count": n, "total_s": total, "self_s": own})
            })
            .collect();
        Value::Array(rows)
    }
}

fn main() {
    let args = parse_args();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut b = Bench {
        t: Tracer::new(args.trace),
        args,
        exec: ParallelExecutor::new(threads),
        cfg: MapConfig::default(),
        checks: Checks::default(),
        samples: BTreeMap::new(),
        counts: BTreeMap::new(),
        tally: serve::Tally::default(),
        epochs: Vec::new(),
        verify_build_s: 0.0,
    };
    let seconds = Duration::from_secs_f64(b.args.seconds);
    let seed = b.args.seed;
    match b.args.workload {
        Workload::Serve => {
            let t0 = std::time::Instant::now();
            let s = b.substrate();
            let (map, snap, _) = b.map_ready(&s, "serve.snap", "");
            drop(map);
            let (queries, _) = b.t.call("serve::generate", || serve::generate(&snap, seed));
            b.sample("setup_s", t0.elapsed().as_secs_f64());
            b.extras(&s);
            drop(s);
            b.t.set_phase(Phase::Timed);
            b.serve(&snap, &queries, seconds);
        }
        Workload::Epoch => {
            let t0 = std::time::Instant::now();
            let mut s = b.substrate();
            let (map, snap, _) = b.map_ready(&s, "epoch0.snap", "");
            b.sample("setup_s", t0.elapsed().as_secs_f64());
            b.extras(&s);
            b.t.set_phase(Phase::Timed);
            let epochs = b.run_epochs(&mut s, map, snap);
            b.verify_epochs(&s, &epochs);
        }
    }

    let mut out = Map::new();
    out.insert(
        "workload".into(),
        json!(format!("{:?}", b.args.workload).to_lowercase()),
    );
    out.insert("seed".into(), json!(seed));
    out.insert("universe".into(), json!(b.args.universe));
    out.insert("threads".into(), json!(threads as u64));
    out.insert("trace".into(), json!(b.args.trace));
    out.insert("attempted".into(), json!(b.checks.attempted));
    out.insert("failed".into(), json!(b.checks.failed));
    out.insert(
        "failures".into(),
        Value::Array(
            b.checks
                .failures
                .iter()
                .map(|f| json!(f.as_str()))
                .collect(),
        ),
    );
    let mut counts = Map::new();
    for (k, v) in &b.counts {
        counts.insert(k.clone(), json!(*v));
    }
    out.insert("counts".into(), Value::Object(counts));
    let passes: Vec<Value> = b
        .tally
        .passes
        .iter()
        .map(|p| {
            json!([
                p.secs,
                p.point[0],
                p.point[1],
                p.reverse[0],
                p.reverse[1],
                p.route[0],
                p.route[1]
            ])
        })
        .collect();
    out.insert("passes".into(), Value::Array(passes));
    out.insert("end_to_end".into(), Value::Object(b.end_to_end()));
    out.insert("serving".into(), Value::Object(b.serving()));
    if b.t.on() {
        out.insert("per_layer".into(), Value::Object(b.per_layer()));
        out.insert("attribution".into(), b.attribution_json());
        out.insert("spans".into(), b.t.spans_json());
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Object(out)).expect("serializable")
    );
}

//! Benchmark-side spans around each public call, and the `itm-obs` series
//! that composite calls record internally.
//!
//! Every call the benchmark makes into the workspace goes through
//! [`Tracer::call`], which times it from outside. With tracing on, the
//! call also becomes a span (name, start, end, parent, phase) and carries
//! the `itm-obs` spans, counters and histogram sums recorded while it
//! ran, so sub-steps reachable only inside `Substrate::build`,
//! `TrafficMap::build_with`, `build_incremental` or `write_snapshot` are
//! attributed to the call that caused them. Nothing is instrumented
//! inside the crates; the spans are kept in memory and written out once
//! the run ends.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which part of a workload run a call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Work before the timed part (`setup_s`).
    Setup,
    /// The workload's timed part.
    Timed,
    /// Untimed correctness checks and secondary passes.
    Check,
    /// Extra traced-only measurements (standalone resolver deploy,
    /// 1-thread build).
    Extra,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Timed => "timed",
            Phase::Check => "check",
            Phase::Extra => "extra",
        }
    }
}

/// What the global `itm-obs` registry recorded during one call.
#[derive(Debug, Clone, Default)]
pub struct ObsDelta {
    /// Span path → (entries, total ns).
    pub spans: BTreeMap<String, (u64, u64)>,
    /// Counter series → increment.
    pub counters: BTreeMap<String, u64>,
    /// Histogram series → (observations, sum of values).
    pub hists: BTreeMap<String, (u64, u64)>,
}

impl ObsDelta {
    fn between(a: &itm_obs::MetricsReport, b: &itm_obs::MetricsReport) -> ObsDelta {
        let mut d = ObsDelta::default();
        for (path, s) in &b.spans {
            let (c0, t0) = a.spans.get(path).map_or((0, 0), |x| (x.count, x.total_ns));
            if s.count > c0 {
                d.spans
                    .insert(path.clone(), (s.count - c0, s.total_ns - t0));
            }
        }
        for (name, v) in &b.counters {
            let v0 = a.counters.get(name).copied().unwrap_or(0);
            if *v > v0 {
                d.counters.insert(name.clone(), v - v0);
            }
        }
        for (name, h) in &b.histograms {
            let (c0, s0) = a.histograms.get(name).map_or((0, 0), |x| (x.count, x.sum));
            if h.count > c0 {
                d.hists
                    .insert(name.clone(), (h.count - c0, h.sum.wrapping_sub(s0)));
            }
        }
        d
    }

    /// Total seconds in spans whose path is `leaf` or ends in `/leaf`.
    pub fn span_s(&self, leaf: &str) -> f64 {
        let suffix = format!("/{leaf}");
        self.spans
            .iter()
            .filter(|(p, _)| *p == leaf || p.ends_with(&suffix))
            .fold(0.0, |acc, (_, &(_, ns))| acc + ns as f64 / 1e9)
    }

    /// Total seconds in the leaf spans (those with no child span) strictly
    /// under `root`; `span_s(root) - leaf_s(root)` is the time in `root`'s
    /// subtree that no leaf span covers.
    pub fn leaf_s(&self, root: &str) -> f64 {
        let under = format!("{root}/");
        self.spans
            .iter()
            .filter(|(p, _)| p.starts_with(&under))
            .filter(|(p, _)| {
                let kids = format!("{p}/");
                !self.spans.keys().any(|q| q.starts_with(&kids))
            })
            .fold(0.0, |acc, (_, &(_, ns))| acc + ns as f64 / 1e9)
    }

    /// Sum of counter series whose canonical name starts with `prefix`
    /// (so `dns.cache.lookups` covers every label set).
    pub fn counter(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// (observations, sum) of one histogram series.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        self.hists.get(name).copied().unwrap_or((0, 0))
    }
}

/// One call span.
#[derive(Debug)]
pub struct Span {
    /// The public call (or grouping) this span covers.
    pub name: &'static str,
    /// Run phase the call belongs to.
    pub phase: Phase,
    /// Start, nanoseconds since the run began.
    pub start_ns: u64,
    /// End, nanoseconds since the run began.
    pub end_ns: u64,
    /// Index of the enclosing call span.
    pub parent: Option<usize>,
    /// `itm-obs` activity during the call.
    pub obs: ObsDelta,
}

impl Span {
    /// Wall seconds of the call.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Times every public call; records spans when tracing is on.
pub struct Tracer {
    on: bool,
    t0: Instant,
    phase: Phase,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; with `on`, the global `itm-obs` registry and allocation
    /// tracking are switched on for the rest of the process.
    pub fn new(on: bool) -> Tracer {
        if on {
            itm_obs::set_enabled(true);
            itm_obs::alloc::set_enabled(true);
        }
        Tracer {
            on,
            t0: Instant::now(),
            phase: Phase::Setup,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Later calls belong to `phase`.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a grouping span (an epoch, a query pass); close with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            phase: self.phase,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            obs: ObsDelta::default(),
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost grouping span.
    pub fn exit(&mut self) {
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run one public call, timed from outside. Returns its value and
    /// wall seconds.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.on.then(itm_obs::snapshot);
        let start_ns = self.now_ns();
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        if let Some(before) = before {
            let obs = ObsDelta::between(&before, &itm_obs::snapshot());
            self.spans.push(Span {
                name,
                phase: self.phase,
                start_ns,
                end_ns: start_ns + (secs * 1e9) as u64,
                parent: self.stack.last().copied(),
                obs,
            });
        }
        (out, secs)
    }

    /// The calls named `name` that a layer metric describes: those of the
    /// timed part when it made any, otherwise those of set-up, otherwise
    /// the traced-only extras.
    pub fn subject_calls(&self, name: &str) -> Vec<&Span> {
        let of = |phase| {
            self.spans
                .iter()
                .filter(|s| s.name == name && s.phase == phase)
                .collect::<Vec<_>>()
        };
        [of(Phase::Timed), of(Phase::Setup), of(Phase::Extra)]
            .into_iter()
            .find(|calls| !calls.is_empty())
            .unwrap_or_default()
    }

    /// Mean per subject call of `f(call)`; 0 when the workload never
    /// makes the call.
    pub fn per_call(&self, name: &str, f: impl Fn(&Span) -> f64) -> f64 {
        let calls = self.subject_calls(name);
        if calls.is_empty() {
            return 0.0;
        }
        calls.iter().fold(0.0, |acc, s| acc + f(s)) / calls.len() as f64
    }

    /// The spans as JSON records, in start order.
    pub fn spans_json(&self) -> Value {
        let rows: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let obs: Vec<Value> = s
                    .obs
                    .spans
                    .iter()
                    .map(|(p, &(n, ns))| json!({"path": p.as_str(), "count": n, "total_ns": ns}))
                    .collect();
                json!({
                    "id": i as u64,
                    "name": s.name,
                    "phase": s.phase.as_str(),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map_or(Value::Null, |p| json!(p as u64)),
                    "obs_spans": obs,
                })
            })
            .collect();
        Value::Array(rows)
    }

    /// Self-time attribution for each composite call: per `itm-obs` span
    /// path, total seconds and the part no child span covers, summed
    /// over every call of that name. A row with an empty path is the
    /// call span itself minus its top-level `itm-obs` spans.
    pub fn attribution(&self) -> Vec<(&'static str, String, u64, f64, f64)> {
        // call → (calls, wall seconds, span path → (entries, total ns))
        type PerCall = (u64, f64, BTreeMap<String, (u64, u64)>);
        let mut by_call: BTreeMap<&'static str, PerCall> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| !s.obs.spans.is_empty()) {
            let e = by_call.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            for (p, &(n, ns)) in &s.obs.spans {
                let x = e.2.entry(p.clone()).or_default();
                x.0 += n;
                x.1 += ns;
            }
        }
        let mut rows = Vec::new();
        for (call, (n_calls, wall, paths)) in by_call {
            let child_ns = |parent: Option<&str>| -> u64 {
                paths
                    .iter()
                    .filter(|(p, _)| match parent {
                        None => !p.contains('/'),
                        Some(par) => p
                            .strip_prefix(par)
                            .and_then(|rest| rest.strip_prefix('/'))
                            .is_some_and(|rest| !rest.contains('/')),
                    })
                    .map(|(_, &(_, ns))| ns)
                    .sum()
            };
            let top = child_ns(None) as f64 / 1e9;
            rows.push((call, String::new(), n_calls, wall, wall - top));
            for (p, &(n, ns)) in &paths {
                let total = ns as f64 / 1e9;
                let own = total - child_ns(Some(p)) as f64 / 1e9;
                rows.push((call, p.clone(), n, total, own));
            }
        }
        rows
    }
}

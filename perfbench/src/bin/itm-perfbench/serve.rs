//! The serving client: a query list generated from the seed, and a
//! closed loop that sends one query, waits for the answer, then sends
//! the next.
//!
//! The mix is 90% `point` (half on live cells, half uniform over the id
//! space, which mostly misses), 9% route (half `neighbors` full walks,
//! half `edge`), and 1% `reverse` over distinct serving addresses,
//! stratified by fan-out.

use crate::{stats, Checks};
use itm_serve::Snapshot;
use itm_types::{Asn, Ipv4Addr, PrefixId, ServiceId};
use rand::Rng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Queries in one pre-generated list; the loop cycles through it.
pub const LIST_LEN: usize = 100_000;

/// One query, with what the answer must contain.
#[derive(Debug, Clone, Copy)]
pub enum Query {
    /// Point lookup; `expect` is the cell's address for live-cell draws.
    Point {
        service: ServiceId,
        prefix: PrefixId,
        expect: Option<Ipv4Addr>,
    },
    /// Reverse lookup of `addr`, sampled from the cell ⟨service, prefix⟩.
    Reverse {
        addr: Ipv4Addr,
        service: ServiceId,
        prefix: PrefixId,
    },
    /// Full adjacency walk of one AS.
    Neighbors { asn: Asn },
    /// Relationship on one directed edge.
    Edge { a: Asn, b: Asn },
}

/// Distinct serving addresses, each with one cell it serves, ordered by
/// fan-out (cells served), then address.
fn serving_addresses(snap: &Snapshot) -> Vec<(Ipv4Addr, ServiceId, PrefixId)> {
    let mut seen: HashMap<u32, (ServiceId, PrefixId, u64)> = HashMap::new();
    for sid in 0..snap.n_services() {
        let service = ServiceId(sid as u32);
        for (prefix, addr) in snap.cells_of(service) {
            seen.entry(addr.0).or_insert((service, prefix, 0)).2 += 1;
        }
    }
    let mut out: Vec<_> = seen.into_iter().collect();
    out.sort_by_key(|&(a, (_, _, fan_out))| (fan_out, a));
    out.into_iter()
        .map(|(a, (s, p, _))| (Ipv4Addr(a), s, p))
        .collect()
}

/// One reverse target per stratum of the fan-out ranking, in shuffled
/// order: uniform over distinct addresses within each stratum, with the
/// same fan-out profile for every seed (fan-out is heavy-tailed, so a
/// plain uniform draw would make reverse p99 a property of the seed).
fn reverse_targets<R: Rng>(
    rng: &mut R,
    snap: &Snapshot,
    n: usize,
) -> Vec<(Ipv4Addr, ServiceId, PrefixId)> {
    let addrs = serving_addresses(snap);
    if addrs.is_empty() {
        return Vec::new();
    }
    let len = addrs.len();
    let mut picks: Vec<_> = (0..n)
        .map(|r| {
            let lo = (r * len / n).min(len - 1);
            let hi = ((r + 1) * len / n).clamp(lo + 1, len);
            addrs[rng.gen_range(lo..hi)]
        })
        .collect();
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.gen_range(0..=i));
    }
    picks
}

/// The seed's query list over `snap`.
pub fn generate(snap: &Snapshot, seed: u64) -> Vec<Query> {
    let mut rng = itm_types::SeedDomain::new(seed).rng("perfbench.serve");
    let mut reverse = reverse_targets(&mut rng, snap, LIST_LEN / 100)
        .into_iter()
        .cycle();
    let n_cells = snap.n_cells();
    let n_services = snap.n_services() as u32;
    let n_prefixes = snap.n_prefixes() as u32;
    let n_ases = snap.n_ases() as u32;
    (0..LIST_LEN)
        .map(|k| match k % 100 {
            0..=89 => {
                if rng.gen_bool(0.5) && n_cells > 0 {
                    let (service, prefix, addr) = snap
                        .cell(rng.gen_range(0..n_cells))
                        .expect("index in range");
                    Query::Point {
                        service,
                        prefix,
                        expect: Some(addr),
                    }
                } else {
                    Query::Point {
                        service: ServiceId(rng.gen_range(0..n_services)),
                        prefix: PrefixId(rng.gen_range(0..n_prefixes)),
                        expect: None,
                    }
                }
            }
            90..=98 => {
                let a = Asn(rng.gen_range(0..n_ases));
                if rng.gen_bool(0.5) {
                    Query::Neighbors { asn: a }
                } else {
                    // Half the edges exist, half are uniform draws.
                    let nbrs: Vec<Asn> = snap.neighbors(a).map(|(b, _)| b).collect();
                    let b = if rng.gen_bool(0.5) && !nbrs.is_empty() {
                        nbrs[rng.gen_range(0..nbrs.len())]
                    } else {
                        Asn(rng.gen_range(0..n_ases))
                    };
                    Query::Edge { a, b }
                }
            }
            _ => {
                let (addr, service, prefix) = reverse.next().expect("snapshot has cells");
                Query::Reverse {
                    addr,
                    service,
                    prefix,
                }
            }
        })
        .collect()
}

/// Latency quantiles (µs, `[p50, p99]`) and wall time of one complete
/// pass over the query list.
#[derive(Debug, Clone, Copy)]
pub struct PassStats {
    /// Wall seconds of the pass.
    pub secs: f64,
    /// Point call latency.
    pub point: [f64; 2],
    /// Reverse call latency.
    pub reverse: [f64; 2],
    /// Route (`neighbors` walk or `edge`) call latency.
    pub route: [f64; 2],
}

/// Calls of one kind and the time spent inside them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Busy {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds inside the calls.
    pub ns: u64,
}

/// Work counts of one full pass over the query list.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassCounts {
    /// Point queries that found a cell.
    pub point_hits: u64,
    /// Cells returned by reverse calls.
    pub reverse_cells: u64,
    /// Adjacency entries walked by `neighbors` calls.
    pub nbrs_walked: u64,
}

/// What a serving loop measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Every complete pass over the query list.
    pub passes: Vec<PassStats>,
    /// Point calls over the whole loop.
    pub point: Busy,
    /// Reverse calls over the whole loop.
    pub reverse: Busy,
    /// Route calls over the whole loop.
    pub route: Busy,
    /// Work counts over the whole loop.
    pub counts: PassCounts,
    /// `neighbors` calls over the whole loop.
    pub nbr_walks: u64,
    /// Bytes allocated inside reverse calls (when tracking is on).
    pub reverse_alloc_bytes: u64,
    /// The work counts after the first full pass: they depend only on
    /// the query list, not on how long the loop ran.
    pub first_pass: PassCounts,
}

/// Per-kind latencies (ns) of the pass in progress.
#[derive(Default)]
struct Current {
    point: Vec<u64>,
    reverse: Vec<u64>,
    route: Vec<u64>,
}

impl Current {
    /// Close the pass: its quantiles, then start empty.
    fn finish(&mut self, secs: f64) -> PassStats {
        let q = |v: &mut Vec<u64>| {
            let mut us: Vec<f64> = v.drain(..).map(|ns| ns as f64 / 1e3).collect();
            us.sort_by(f64::total_cmp);
            [stats::quantile(&us, 0.50), stats::quantile(&us, 0.99)]
        };
        PassStats {
            secs,
            point: q(&mut self.point),
            reverse: q(&mut self.reverse),
            route: q(&mut self.route),
        }
    }
}

/// Record one call's latency.
fn timed(busy: &mut Busy, cur: &mut Vec<u64>, since: Instant) {
    let ns = since.elapsed().as_nanos() as u64;
    busy.calls += 1;
    busy.ns += ns;
    cur.push(ns);
}

/// Closed loop: send `queries` in order, cycling, until `budget` has
/// elapsed and at least one full pass is done. With `checks`, the first
/// pass also verifies every answer, outside the timed call.
pub fn closed_loop(
    snap: &Snapshot,
    queries: &[Query],
    budget: Duration,
    mut checks: Option<&mut Checks>,
) -> Tally {
    let mut t = Tally::default();
    let mut cur = Current::default();
    let start = Instant::now();
    let mut pass_start = start;
    let mut k = 0usize;
    loop {
        if k > 0 && k.is_multiple_of(queries.len()) {
            t.passes
                .push(cur.finish(pass_start.elapsed().as_secs_f64()));
            pass_start = Instant::now();
            if k == queries.len() {
                t.first_pass = t.counts;
                checks = None;
            }
        }
        if k >= queries.len() && k.is_multiple_of(1024) && start.elapsed() >= budget {
            break;
        }
        let q = queries[k % queries.len()];
        k += 1;
        match q {
            Query::Point {
                service,
                prefix,
                expect,
            } => {
                let c = Instant::now();
                let ans = snap.point(service, prefix);
                timed(&mut t.point, &mut cur.point, c);
                let ans = std::hint::black_box(ans);
                t.counts.point_hits += u64::from(ans.is_some());
                if let (Some(ch), Some(want)) = (checks.as_deref_mut(), expect) {
                    ch.check(ans.map(|a| a.addr) == Some(want), || {
                        format!("point({service:?},{prefix:?}) != {want:?}")
                    });
                }
            }
            Query::Reverse {
                addr,
                service,
                prefix,
            } => {
                let bytes0 = itm_obs::alloc::stats().total_bytes;
                let c = Instant::now();
                let ans = snap.reverse(addr);
                timed(&mut t.reverse, &mut cur.reverse, c);
                t.reverse_alloc_bytes += itm_obs::alloc::stats().total_bytes - bytes0;
                let ans = std::hint::black_box(ans);
                t.counts.reverse_cells += ans.len() as u64;
                if let Some(ch) = checks.as_deref_mut() {
                    ch.check(ans.contains(&(service, prefix)), || {
                        format!("reverse({addr:?}) lacks its cell")
                    });
                }
            }
            Query::Neighbors { asn } => {
                let c = Instant::now();
                let mut n = 0u64;
                for e in snap.neighbors(asn) {
                    std::hint::black_box(e);
                    n += 1;
                }
                timed(&mut t.route, &mut cur.route, c);
                t.nbr_walks += 1;
                t.counts.nbrs_walked += n;
            }
            Query::Edge { a, b } => {
                let c = Instant::now();
                let ans = snap.edge(a, b);
                timed(&mut t.route, &mut cur.route, c);
                let ans = std::hint::black_box(ans);
                if let Some(ch) = checks.as_deref_mut() {
                    let walked = snap.neighbors(a).find(|&(n, _)| n == b).map(|(_, r)| r);
                    ch.check(ans == walked, || format!("edge({a:?},{b:?}) != neighbors"));
                }
            }
        }
    }
    t
}

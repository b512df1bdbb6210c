//! Truth-conditioned map-quality auditing (the "five blind men" scorer).
//!
//! The map fuses several partial measurement views: ECS mapping, anycast
//! catchments, TLS/SNI footprints, the catalogue prior, cache probing,
//! root crawling, and cloud traceroutes. Each sees a slice of the truth;
//! where slices overlap they can disagree. Because the substrate is
//! synthetic, every technique's view is exactly scorable — this module
//! owns the sweep: it enumerates the cell universe, derives each
//! technique's claim from compact per-technique claim tables
//! ([`MapClaims`]), compares the claims against ground truth, and rolls
//! the verdicts into an [`itm_obs::QualityReport`].
//!
//! Three claim planes:
//!
//! * **replica** — a claim names the AS serving a `(service, prefix)`
//!   cell. Estimators: `ecs` (the measured mapping), `anycast` (BGP
//!   catchments), `tls_nearest` (geodesically nearest SNI-confirmed
//!   front-end — the classic scan-derived assignment heuristic),
//!   `catalog_prior` (the operator's home AS), and `fused` (the map's own
//!   [`TrafficMap::serving_as_for`] cascade).
//! * **presence** — a claim asserts "users live here": `cache_probe` at
//!   prefix granularity, `root_crawl` at AS granularity.
//! * **routes** — a claim asserts an inter-AS link exists: `cloud_probe`
//!   against the ground-truth link set.
//!
//! Ground truth for a replica cell is the substrate's redirection policy
//! ([`itm_dns::FrontendDirectory::select`]): the off-net inside the
//! client's AS when one exists, else the geodesically nearest on-net PoP.
//! Anycast services are scored against the same intent — the catchment
//! estimator's gap to it (BGP path choice plus hot-potato noise) is
//! exactly the §3.2.3 open problem the audit is meant to expose.
//!
//! Everything here is a pure function of `(substrate, map)`. The map is
//! byte-identical across thread counts, so the audit — and its JSON — is
//! too.

use crate::map::TrafficMap;
use itm_measure::Substrate;
use itm_obs::quality::{DisagreementIndex, PairwiseAgreement, QualityReport, TechniqueAudit};
use itm_obs::Verdict;
use itm_topology::{PrefixKind, Topology};
use itm_traffic::{DeliveryMode, Service};
use itm_types::{Asn, GeoPoint, Ipv4Addr, PrefixId, ServiceId};
use std::collections::BTreeMap;

/// Claim-bitmap bits: which techniques back one measured mapping cell.
pub mod bits {
    /// Cache probing found users in the cell's prefix.
    pub const CACHE_PROBE: u8 = 1 << 0;
    /// The root crawl saw queries from the cell's AS.
    pub const ROOT_CRAWL: u8 = 1 << 1;
    /// The ECS campaign measured the cell directly.
    pub const ECS: u8 = 1 << 2;
    /// A catchment assigns the cell's AS to a serving site.
    pub const ANYCAST: u8 = 1 << 3;
    /// An SNI-confirmed front-end exists for the cell's service.
    pub const TLS_NEAREST: u8 = 1 << 4;
    /// The catalogue prior always speaks.
    pub const CATALOG_PRIOR: u8 = 1 << 5;
}

/// Compact per-technique claim tables, plus the per-cell claim bitmap.
///
/// Recorded at assembly time when [`crate::MapConfig::record_claims`] is
/// set (or rebuilt on demand by [`audit`]): dense vectors keyed by the
/// same raw indices the rest of the pipeline uses, so deriving any cell's
/// claim set is O(log services) — cheap enough to sweep hundreds of
/// millions of cells.
#[derive(Debug, Clone, Default)]
pub struct MapClaims {
    /// One bitmap byte per measured mapping cell, in
    /// `user_mapping.mapping` iteration order (sorted by `(service,
    /// prefix)`). See [`bits`].
    pub cell_bits: Vec<u8>,
    /// Per anycast service: catchment-derived serving AS per client AS
    /// (dense ASN index; `None` = unreachable).
    anycast_site_as: BTreeMap<ServiceId, Vec<Option<Asn>>>,
    /// Per SNI-footprinted service: owner AS of the geodesically nearest
    /// confirmed front-end, per city (ties toward the smaller address).
    tls_nearest_as: BTreeMap<ServiceId, Vec<Option<Asn>>>,
    /// The catalogue prior per service index.
    catalog_prior_as: Vec<Asn>,
    /// Serving address → host AS, memoized over every address the map's
    /// footprints mention.
    addr_owner: BTreeMap<u32, Asn>,
    /// Cache-probe presence claim per prefix index.
    cache_prefix: Vec<bool>,
    /// Root-crawl presence claim per AS index.
    root_as: Vec<bool>,
}

impl MapClaims {
    /// Build the claim tables from an assembled map.
    pub fn record(s: &Substrate, map: &TrafficMap) -> MapClaims {
        let _span = itm_obs::span("map.claims");
        let n_prefixes = s.topo.prefixes.len();
        let n_ases = s.topo.n_ases();

        let cache_prefix = map.cache_result.presence_claims(n_prefixes);
        let mut root_as = vec![false; n_ases];
        for a in map.root_result.claimed_as_set(s) {
            if let Some(slot) = root_as.get_mut(a.index()) {
                *slot = true;
            }
        }

        let mut anycast_site_as = BTreeMap::new();
        for (&svc, c) in &map.catchments {
            let eps = s.frontends.endpoints(svc);
            let mut per_as = vec![None; n_ases];
            for (client, site) in c.iter() {
                if let Some(e) = eps.get(site.index()) {
                    per_as[client.index()] = Some(e.offnet_host.unwrap_or(e.asn));
                }
            }
            anycast_site_as.insert(svc, per_as);
        }

        let mut tls_nearest_as = BTreeMap::new();
        if !map.sni_footprints.is_empty() {
            let locs: Vec<GeoPoint> = s.topo.world.cities.iter().map(|c| c.location).collect();
            let dist = CityDistances::new(&locs);
            for (&svc, addrs) in &map.sni_footprints {
                let fronts = resolve_fronts(&s.topo, addrs);
                if !fronts.is_empty() {
                    tls_nearest_as.insert(svc, nearest_front_per_city(&fronts, &dist));
                }
            }
        }

        let catalog_prior_as: Vec<Asn> = s
            .catalog
            .services
            .iter()
            .map(|svc| svc.owner.serving_as())
            .collect();

        let mut addr_owner: BTreeMap<u32, Asn> = BTreeMap::new();
        for addrs in map
            .user_mapping
            .footprint
            .values()
            .chain(map.sni_footprints.values())
        {
            for &a in addrs {
                if let Some(r) = s.topo.prefixes.lookup(a) {
                    addr_owner.insert(a.0, r.owner);
                }
            }
        }

        let mut claims = MapClaims {
            cell_bits: Vec::with_capacity(map.user_mapping.mapping.len()),
            anycast_site_as,
            tls_nearest_as,
            catalog_prior_as,
            addr_owner,
            cache_prefix,
            root_as,
        };
        // Cells come in service runs: look the run's per-service tables
        // up once, not twice per cell.
        let mut cell_bits = std::mem::take(&mut claims.cell_bits);
        let mut run_svc = None;
        let (mut anycast, mut tls): (&[Option<Asn>], &[Option<Asn>]) = (&[], &[]);
        for c in map.user_mapping.mapping.iter() {
            let (svc, p) = (c.service, c.prefix);
            if run_svc != Some(svc) {
                run_svc = Some(svc);
                anycast = claims.anycast_site_as.get(&svc).map_or(&[], Vec::as_slice);
                tls = claims.tls_nearest_as.get(&svc).map_or(&[], Vec::as_slice);
            }
            let claimed = |table: &[Option<Asn>], k: usize| matches!(table.get(k), Some(Some(_)));
            let rec = s.topo.prefixes.get(p);
            let mut b = bits::ECS | bits::CATALOG_PRIOR;
            if claims.cache_claim(p) {
                b |= bits::CACHE_PROBE;
            }
            if claims.root_claim(rec.owner) {
                b |= bits::ROOT_CRAWL;
            }
            if claimed(anycast, rec.owner.index()) {
                b |= bits::ANYCAST;
            }
            if claimed(tls, rec.city as usize) {
                b |= bits::TLS_NEAREST;
            }
            cell_bits.push(b);
        }
        claims.cell_bits = cell_bits;
        claims
    }

    /// The catchment estimator's serving-AS claim for a cell.
    pub fn anycast_claim(&self, svc: ServiceId, client: Asn) -> Option<Asn> {
        self.anycast_site_as
            .get(&svc)
            .and_then(|v| v.get(client.index()).copied().flatten())
    }

    /// The nearest-SNI-front-end claim for a cell.
    pub fn tls_claim(&self, svc: ServiceId, city: u32) -> Option<Asn> {
        self.tls_nearest_as
            .get(&svc)
            .and_then(|v| v.get(city as usize).copied().flatten())
    }

    /// The catalogue prior's claim (always present for a valid service).
    pub fn prior_claim(&self, svc: ServiceId) -> Option<Asn> {
        self.catalog_prior_as.get(svc.index()).copied()
    }

    /// Host AS of a serving address (memoized footprint lookup).
    pub fn owner_of(&self, addr: Ipv4Addr) -> Option<Asn> {
        self.addr_owner.get(&addr.0).copied()
    }

    /// Whether cache probing claims the prefix hosts users.
    pub fn cache_claim(&self, p: PrefixId) -> bool {
        self.cache_prefix.get(p.index()).copied().unwrap_or(false)
    }

    /// Whether the root crawl claims the AS hosts users.
    pub fn root_claim(&self, a: Asn) -> bool {
        self.root_as.get(a.index()).copied().unwrap_or(false)
    }
}

/// Great-circle distance between every pair of cities, computed once per
/// claim recording.
struct CityDistances {
    n: usize,
    /// `km[to * n + from]` = `location(from).distance_km(location(to))`,
    /// the exact call a search over every front makes, so both read the
    /// same bits. Row `to` holds every front city's distance to one
    /// claimed city.
    km: Vec<f64>,
}

impl CityDistances {
    /// The table over cities `0..locs.len()`, city `c` at `locs[c]`.
    fn new(locs: &[GeoPoint]) -> Self {
        let n = locs.len();
        let mut km = Vec::with_capacity(n * n);
        for &to in locs {
            km.extend(locs.iter().map(|&from| from.distance_km(to)));
        }
        CityDistances { n, km }
    }

    /// Distances from every city to city `to`, indexed by the from-city.
    fn to_city(&self, to: usize) -> &[f64] {
        &self.km[to * self.n..(to + 1) * self.n]
    }
}

/// `(front city, address, host AS)` for each of a service's SNI-confirmed
/// front-ends. An address in no routed prefix has no city or owner, so
/// it is skipped.
fn resolve_fronts(topo: &Topology, addrs: &[Ipv4Addr]) -> Vec<(u32, Ipv4Addr, Asn)> {
    addrs
        .iter()
        .filter_map(|&a| topo.prefixes.lookup(a).map(|r| (r.city, a, r.owner)))
        .collect()
}

/// Per city: the host AS of the front-end nearest to it, ties toward the
/// smaller address.
///
/// Every front sits at its prefix's city centroid, so fronts in one city
/// tie on distance and only the one with the smallest address can win.
/// The fronts therefore collapse to one per city first, and each claimed
/// city compares `(distance, address)` over those, reading distances from
/// `dist`. The answer equals the minimum over all fronts.
fn nearest_front_per_city(
    fronts: &[(u32, Ipv4Addr, Asn)],
    dist: &CityDistances,
) -> Vec<Option<Asn>> {
    let mut by_city = fronts.to_vec();
    by_city.sort_unstable_by_key(|&(city, addr, _)| (city, addr));
    by_city.dedup_by_key(|f| f.0);
    (0..dist.n)
        .map(|to| {
            let row = dist.to_city(to);
            let mut best: Option<(f64, Ipv4Addr, Asn)> = None;
            for &(city, addr, owner) in &by_city {
                let d = row[city as usize];
                let nearer =
                    best.is_none_or(|(bd, ba, _)| d.total_cmp(&bd).then(addr.cmp(&ba)).is_lt());
                if nearer {
                    best = Some((d, addr, owner));
                }
            }
            best.map(|(_, _, owner)| owner)
        })
        .collect()
}

/// Replica-plane estimator names, in the fixed order claims are listed.
pub const REPLICA_TECHNIQUES: [&str; 4] = ["ecs", "anycast", "tls_nearest", "catalog_prior"];

/// One prefix of the audited universe, with everything the per-cell loop
/// needs precomputed.
struct UniversePrefix {
    id: PrefixId,
    owner: Asn,
    city: u32,
    tier: &'static str,
    populated: bool,
}

/// The delivery class a service is audited under.
fn service_class(svc: &Service) -> &'static str {
    match (svc.mode, svc.ecs_support) {
        (DeliveryMode::Anycast, _) => "anycast",
        (DeliveryMode::CustomUrl, _) => "custom_url",
        (DeliveryMode::DnsRedirection, true) => "dns_ecs",
        (DeliveryMode::DnsRedirection, false) => "dns_no_ecs",
    }
}

fn tier_name(users: f64, p50: f64, p90: f64) -> &'static str {
    if users <= 0.0 {
        "t0_none"
    } else if users <= p50 {
        "t1_low"
    } else if users <= p90 {
        "t2_mid"
    } else {
        "t3_high"
    }
}

fn verdict_for(claim: Option<Asn>, truth: Asn) -> Verdict {
    match claim {
        Some(c) if c == truth => Verdict::Asserted,
        Some(_) => Verdict::Contradicted,
        None => Verdict::Silent,
    }
}

/// The ground-truth serving AS for one `(service, prefix)` cell: the
/// substrate's redirection policy (off-net in the client AS, else the
/// nearest on-net PoP).
pub fn truth_serving_as(s: &Substrate, svc: ServiceId, owner: Asn, city: u32) -> Asn {
    let e = s.frontends.select(&s.topo, svc, owner, city);
    e.offnet_host.unwrap_or(e.asn)
}

/// Per-technique verdicts for a single cell, for `repro --explain`.
#[derive(Debug, Clone)]
pub struct CellVerdict {
    /// Technique name (a key of [`QualityReport::techniques`]).
    pub technique: &'static str,
    /// The claim, if the technique spoke.
    pub claimed: Option<Asn>,
    /// How the claim scored against the truth.
    pub verdict: Verdict,
}

/// Score one cell across every replica estimator (fused last).
pub fn explain_cell(
    s: &Substrate,
    map: &TrafficMap,
    claims: &MapClaims,
    p: PrefixId,
    svc: ServiceId,
) -> (Asn, Vec<CellVerdict>) {
    let rec = s.topo.prefixes.get(p);
    let truth = truth_serving_as(s, svc, rec.owner, rec.city);
    let ecs = map
        .user_mapping
        .mapping
        .get(svc, p)
        .and_then(|addr| claims.owner_of(addr));
    let anycast = claims.anycast_claim(svc, rec.owner);
    let tls = claims.tls_claim(svc, rec.city);
    let prior = claims.prior_claim(svc);
    let fused = ecs.or(anycast).or(prior);
    let verdicts = [
        ("ecs", ecs),
        ("anycast", anycast),
        ("tls_nearest", tls),
        ("catalog_prior", prior),
        ("fused", fused),
    ]
    .into_iter()
    .map(|(technique, claimed)| CellVerdict {
        technique,
        claimed,
        verdict: verdict_for(claimed, truth),
    })
    .collect();
    (truth, verdicts)
}

/// Run the full quality audit of a map against its substrate.
///
/// Pure function of `(substrate, map)`: reuses the map's recorded claim
/// tables when [`crate::MapConfig::record_claims`] was on, rebuilds them
/// otherwise, and returns the same report either way.
pub fn audit(s: &Substrate, map: &TrafficMap) -> QualityReport {
    let _span = itm_obs::span("map.audit");
    let rebuilt;
    let claims = match &map.claims {
        Some(c) => c,
        None => {
            rebuilt = MapClaims::record(s, map);
            &rebuilt
        }
    };

    // ---- Cell universe: user-access prefixes ∪ cache-discovered ones ----
    let universe_ids: Vec<PrefixId> = s
        .topo
        .prefixes
        .iter()
        .filter(|r| r.kind == PrefixKind::UserAccess || claims.cache_claim(r.id))
        .map(|r| r.id)
        .collect();

    // Population-tier thresholds: p50/p90 of positive user counts.
    let mut positive: Vec<f64> = universe_ids
        .iter()
        .map(|&p| s.users.users_of(p))
        .filter(|&u| u > 0.0)
        .collect();
    positive.sort_by(|a, b| a.total_cmp(b));
    let pick = |q: usize| -> f64 {
        if positive.is_empty() {
            0.0
        } else {
            positive[(positive.len() * q / 100).min(positive.len() - 1)]
        }
    };
    let (p50, p90) = (pick(50), pick(90));

    let universe: Vec<UniversePrefix> = universe_ids
        .iter()
        .map(|&p| {
            let rec = s.topo.prefixes.get(p);
            let users = s.users.users_of(p);
            UniversePrefix {
                id: p,
                owner: rec.owner,
                city: rec.city,
                tier: tier_name(users, p50, p90),
                populated: users > 0.0,
            }
        })
        .collect();

    let mut report = QualityReport {
        seed: s.seed,
        services: s.catalog.len() as u64,
        prefixes: universe.len() as u64,
        cells: (s.catalog.len() as u64) * (universe.len() as u64),
        tier_p50: p50,
        tier_p90: p90,
        ..QualityReport::default()
    };

    // ---- Replica plane ----
    let mut audits: BTreeMap<&'static str, TechniqueAudit> = ["fused"]
        .iter()
        .chain(REPLICA_TECHNIQUES.iter())
        .map(|&name| (name, TechniqueAudit::new("replica")))
        .collect();
    let mut disagreement = DisagreementIndex::default();
    let mut pairwise = PairwiseAgreement::default();

    for svc in &s.catalog.services {
        let class = service_class(svc);
        let anycast_table = claims.anycast_site_as.get(&svc.id);
        let tls_table = claims.tls_nearest_as.get(&svc.id);
        let prior = claims.prior_claim(svc.id);
        // Walk the service's measured cells in lockstep with the
        // ascending prefix sweep: both are sorted by prefix id.
        let mut measured = map.user_mapping.cells_of(svc.id).peekable();
        for up in &universe {
            let truth = truth_serving_as(s, svc.id, up.owner, up.city);
            let mut ecs = None;
            while let Some(&(mp, addr)) = measured.peek() {
                if mp < up.id {
                    measured.next();
                } else {
                    if mp == up.id {
                        ecs = claims.owner_of(addr);
                    }
                    break;
                }
            }
            let anycast = anycast_table.and_then(|t| t.get(up.owner.index()).copied().flatten());
            let tls = tls_table.and_then(|t| t.get(up.city as usize).copied().flatten());
            let fused = ecs.or(anycast).or(prior);

            let mut cell: Vec<(&str, u32)> = Vec::with_capacity(5);
            for (name, claim) in [
                ("ecs", ecs),
                ("anycast", anycast),
                ("tls_nearest", tls),
                ("catalog_prior", prior),
            ] {
                if let Some(a) = audits.get_mut(name) {
                    a.record(Some(class), Some(up.tier), verdict_for(claim, truth), true);
                }
                if let Some(c) = claim {
                    cell.push((name, c.raw()));
                }
            }
            disagreement.observe(&cell);
            if let Some(c) = fused {
                cell.push(("fused", c.raw()));
            }
            pairwise.observe(&cell);
            if let Some(a) = audits.get_mut("fused") {
                a.record(Some(class), Some(up.tier), verdict_for(fused, truth), true);
            }
        }
    }

    // ---- Presence plane ----
    let mut cache = TechniqueAudit::new("presence");
    let mut populated_as = vec![false; s.topo.n_ases()];
    for up in &universe {
        let claimed = claims.cache_claim(up.id);
        let v = match (claimed, up.populated) {
            (true, true) => Verdict::Asserted,
            (true, false) => Verdict::Contradicted,
            (false, _) => Verdict::Silent,
        };
        cache.record(None, Some(up.tier), v, up.populated);
        if up.populated {
            if let Some(slot) = populated_as.get_mut(up.owner.index()) {
                *slot = true;
            }
        }
    }
    let mut root = TechniqueAudit::new("presence");
    for (i, &truth) in populated_as.iter().enumerate() {
        let asn = Asn(i as u32);
        let v = match (claims.root_claim(asn), truth) {
            (true, true) => Verdict::Asserted,
            (true, false) => Verdict::Contradicted,
            (false, _) => Verdict::Silent,
        };
        root.record(None, None, v, truth);
    }

    // ---- Routes plane ----
    let mut cloud = TechniqueAudit::new("routes");
    let truth_links: std::collections::BTreeSet<(Asn, Asn)> =
        s.topo.links.iter().map(|l| l.key()).collect();
    let claimed_links = map.cloud_result.claimed_links();
    for link in truth_links.union(claimed_links) {
        let is_true = truth_links.contains(link);
        let v = match (claimed_links.contains(link), is_true) {
            (true, true) => Verdict::Asserted,
            (true, false) => Verdict::Contradicted,
            (false, _) => Verdict::Silent,
        };
        cloud.record(None, None, v, is_true);
    }

    for (name, a) in audits {
        report.techniques.insert(name.to_string(), a);
    }
    report.techniques.insert("cache_probe".to_string(), cache);
    report.techniques.insert("root_crawl".to_string(), root);
    report.techniques.insert("cloud_probe".to_string(), cloud);
    report.disagreement = disagreement;
    report.pairwise = pairwise;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapConfig;
    use itm_measure::SubstrateConfig;

    fn build() -> (Substrate, TrafficMap) {
        let s = Substrate::build(SubstrateConfig::small(), 139).unwrap();
        let cfg = MapConfig {
            record_claims: true,
            ..MapConfig::default()
        };
        let m = TrafficMap::build(&s, &cfg).expect("map build");
        (s, m)
    }

    /// The per-front search `nearest_front_per_city` replaces: every
    /// front against every other, two haversines per comparison.
    fn nearest_front_reference(
        fronts: &[(u32, Ipv4Addr, Asn)],
        locs: &[GeoPoint],
    ) -> Vec<Option<Asn>> {
        locs.iter()
            .map(|&loc| {
                fronts
                    .iter()
                    .min_by(|a, b| {
                        locs[a.0 as usize]
                            .distance_km(loc)
                            .total_cmp(&locs[b.0 as usize].distance_km(loc))
                            .then(a.1.cmp(&b.1))
                    })
                    .map(|&(_, _, host)| host)
            })
            .collect()
    }

    #[test]
    fn tls_table_matches_the_per_front_search() {
        let (s, m) = build();
        let locs: Vec<GeoPoint> = s.topo.world.cities.iter().map(|c| c.location).collect();
        let dist = CityDistances::new(&locs);
        let (mut services, mut shared_city) = (0, false);
        for addrs in m.sni_footprints.values() {
            let fronts = resolve_fronts(&s.topo, addrs);
            assert_eq!(
                nearest_front_per_city(&fronts, &dist),
                nearest_front_reference(&fronts, &locs)
            );
            let mut cities: Vec<u32> = fronts.iter().map(|f| f.0).collect();
            cities.sort_unstable();
            cities.dedup();
            shared_city |= cities.len() < fronts.len();
            services += usize::from(!fronts.is_empty());
        }
        // The substrate exercises the collapse: some city hosts several
        // fronts of one service.
        assert!(services > 0 && shared_city);
    }

    #[test]
    fn tls_table_hand_built_cases() {
        // City 0 sits between cities 1 and 2, at equal distance from
        // both; city 3 is nearer city 1.
        let locs = [
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(10.0, 0.0),
            GeoPoint::new(-10.0, 0.0),
            GeoPoint::new(15.0, 0.0),
        ];
        assert_eq!(locs[1].distance_km(locs[0]), locs[2].distance_km(locs[0]));
        let dist = CityDistances::new(&locs);
        let check = |fronts: &[(u32, Ipv4Addr, Asn)]| {
            let table = nearest_front_per_city(fronts, &dist);
            assert_eq!(table, nearest_front_reference(fronts, &locs), "{fronts:?}");
            table
        };
        let (a, b, c) = (Asn(1), Asn(2), Asn(3));

        // Several fronts in one city: the smallest address wins everywhere.
        let one_city = [
            (1, Ipv4Addr(9), a),
            (1, Ipv4Addr(5), b),
            (1, Ipv4Addr(7), c),
        ];
        assert_eq!(check(&one_city), vec![Some(b); 4]);

        // Two cities at equal distance: the smaller address wins city 0,
        // whichever city it is in; city 3 takes its nearer city.
        let tie = [(1, Ipv4Addr(20), a), (2, Ipv4Addr(10), b)];
        assert_eq!(check(&tie), vec![Some(b), Some(a), Some(b), Some(a)]);
        let tie = [(1, Ipv4Addr(10), a), (2, Ipv4Addr(20), b)];
        assert_eq!(check(&tie), vec![Some(a), Some(a), Some(b), Some(a)]);

        // No fronts: no claim.
        assert_eq!(check(&[]), vec![None; 4]);
    }

    #[test]
    fn unresolvable_front_addresses_are_skipped() {
        let (s, m) = build();
        let unrouted = [0u32, 1, 0xFFFF_FFFF, 0xE000_0001]
            .into_iter()
            .map(Ipv4Addr)
            .find(|&a| s.topo.prefixes.lookup(a).is_none())
            .expect("an unrouted address");
        let addrs = m.sni_footprints.values().find(|v| !v.is_empty()).unwrap();
        let mut with_unrouted = addrs.clone();
        with_unrouted.insert(0, unrouted);
        assert_eq!(
            resolve_fronts(&s.topo, &with_unrouted),
            resolve_fronts(&s.topo, addrs)
        );
        assert!(resolve_fronts(&s.topo, &[unrouted]).is_empty());
    }

    #[test]
    fn claims_recorded_and_bitmap_covers_mapping() {
        let (_s, m) = build();
        let claims = m.claims.as_ref().expect("claims recorded");
        assert_eq!(claims.cell_bits.len(), m.user_mapping.mapping.len());
        // Every measured cell is, by construction, an ECS claim backed by
        // the catalogue prior.
        for &b in &claims.cell_bits {
            assert_ne!(b & bits::ECS, 0);
            assert_ne!(b & bits::CATALOG_PRIOR, 0);
        }
    }

    #[test]
    fn audit_is_consistent_and_covers_all_planes() {
        let (s, m) = build();
        let q = audit(&s, &m);
        assert!(q.is_consistent());
        for name in [
            "ecs",
            "anycast",
            "tls_nearest",
            "catalog_prior",
            "fused",
            "cache_probe",
            "root_crawl",
            "cloud_probe",
        ] {
            assert!(q.techniques.contains_key(name), "missing {name}");
        }
        // Replica universes all have the same size: services × prefixes.
        for name in ["ecs", "anycast", "tls_nearest", "catalog_prior", "fused"] {
            assert_eq!(q.techniques[name].overall.cells, q.cells, "{name}");
        }
        // ECS is near-perfect where it speaks (the technique's promise).
        let ecs = &q.techniques["ecs"].overall;
        assert!(ecs.precision() > 0.999, "ecs precision {}", ecs.precision());
        // The prior speaks everywhere.
        let prior = &q.techniques["catalog_prior"].overall;
        assert_eq!(prior.silent, 0);
        // Cloud probing never invents links.
        let cloud = &q.techniques["cloud_probe"].overall;
        assert_eq!(cloud.contradicted, 0);
        assert!(cloud.recall() > 0.0);
    }

    #[test]
    fn audit_matches_with_and_without_recorded_claims() {
        let s = Substrate::build(SubstrateConfig::small(), 139).unwrap();
        let plain = TrafficMap::build(&s, &MapConfig::default()).unwrap();
        let cfg = MapConfig {
            record_claims: true,
            ..MapConfig::default()
        };
        let recorded = TrafficMap::build(&s, &cfg).unwrap();
        let a = serde_json::to_string(&audit(&s, &plain).to_json_value()).unwrap();
        let b = serde_json::to_string(&audit(&s, &recorded).to_json_value()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fused_estimator_mirrors_the_map_cascade() {
        let (s, m) = build();
        let claims = m.claims.as_ref().unwrap();
        let mut checked = 0;
        for r in s.topo.prefixes.iter().take(200) {
            if r.kind != PrefixKind::UserAccess {
                continue;
            }
            for svc in s.catalog.services.iter().take(10) {
                let (_, verdicts) = explain_cell(&s, &m, claims, r.id, svc.id);
                let fused = verdicts
                    .iter()
                    .find(|v| v.technique == "fused")
                    .and_then(|v| v.claimed);
                assert_eq!(fused, m.serving_as_for(&s, r.id, svc.id));
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn explain_cell_scores_a_measured_cell() {
        let (s, m) = build();
        let claims = m.claims.as_ref().unwrap();
        let first = m.user_mapping.mapping.iter().next().unwrap();
        let (svc, p) = (first.service, first.prefix);
        let (truth, verdicts) = explain_cell(&s, &m, claims, p, svc);
        assert_eq!(verdicts.len(), 5);
        let ecs = verdicts.iter().find(|v| v.technique == "ecs").unwrap();
        // The measured mapping is exact for ECS services, so the claim
        // matches the truth.
        assert_eq!(ecs.claimed, Some(truth));
        assert_eq!(ecs.verdict, Verdict::Asserted);
    }
}

//! The epoch loop: deterministic substrate churn plus incremental map
//! rebuilds (the "continuously updated" map of the paper's abstract).
//!
//! An [`EpochPlan`] mutates the substrate between builds —
//! [`apply_epoch`] resolves its action indices against deterministic
//! eligibility lists and applies them in place — and reports a
//! [`DirtySet`]: the campaigns (and, for user mapping, the individual
//! services) those mutations invalidate. [`build_incremental`] then
//! recomputes exactly the dirty campaigns and retains every clean
//! component from the previous map, splicing re-measured user-mapping
//! services over the retained cell grid segment-by-segment.
//!
//! The contract, asserted by `tests/epoch_incremental.rs` and the CI
//! `epoch` job: the incremental map is **byte-identical** (snapshot bytes
//! and [`map_fingerprint`]) to a from-scratch build of the mutated
//! substrate, at any thread count. The argument: every campaign is a pure
//! function of `(substrate, seeds, config, faults)` with its own seed
//! stream; epoch mutations draw from disjoint `"epoch"` child domains; so
//! a campaign whose substrate inputs did not change reproduces its
//! previous output exactly, and retaining it is indistinguishable from
//! recomputing it. The dirty model in [`itm_types::epoch`] records which
//! substrate inputs each mutation touches.
//!
//! One intentional divergence: the incremental path does not re-emit
//! per-cell `EdgeAsserted` trace events for retained cells (the trace is
//! an observability stream, not part of the map; snapshot bytes and the
//! fingerprint do not cover it).

use crate::exec::ParallelExecutor;
use crate::map::{MapConfig, TrafficMap};
use crate::snapshot::snapshot_bytes;
use itm_measure::{ActivityEstimator, CloudProbeResult, Substrate, UserMapping};
use itm_routing::{AnycastDeployment, Catchments, CollectorSet};
use itm_tls::{detect_offnets, SniScan, TlsScan};
use itm_topology::AsClass;
use itm_traffic::DeliveryMode;
use itm_types::epoch::{Campaign, DirtySet, EpochAction, EpochBounds, EpochPlan};
use itm_types::{
    Asn, DomainTable, FaultInjector, FaultStats, Ipv4Addr, ItmError, Result, ServiceId,
};
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// Eligibility lists: the deterministic orderings EpochAction indices
// resolve against. Each is a pure function of the substrate's static
// structure (AS classes, link table, catalogue), so the same action
// sequence resolves to the same entities in a replayed trajectory.
// ---------------------------------------------------------------------------

/// ASes eligible for resolver-adoption churn: eyeballs and stubs (the
/// networks that own user-access prefixes), ascending ASN.
pub fn resolver_sites(s: &Substrate) -> Vec<Asn> {
    s.topo
        .ases
        .iter()
        .filter(|a| matches!(a.class, AsClass::Eyeball | AsClass::Stub))
        .map(|a| a.asn)
        .collect()
}

/// Links eligible for flapping: peering links (transit stays up — a
/// flapped transit edge could partition the graph), in link-table order,
/// as canonical [`itm_topology::Link::key`] pairs.
pub fn flappable_links(s: &Substrate) -> Vec<(Asn, Asn)> {
    s.topo
        .links
        .iter()
        .filter(|l| l.is_peering())
        .map(|l| l.key())
        .collect()
}

/// Cloud ASes whose vantage VMs can churn, ascending ASN.
pub fn cloud_vm_sites(s: &Substrate) -> Vec<Asn> {
    let mut v = s.topo.clouds();
    v.sort_unstable();
    v
}

/// Services eligible for re-homing: the ECS DNS-redirection services (the
/// only ones the user-mapping campaign measures), catalogue order.
pub fn rehomeable_services(s: &Substrate) -> Vec<ServiceId> {
    s.catalog
        .services
        .iter()
        .filter(|svc| svc.ecs_support && svc.mode == DeliveryMode::DnsRedirection)
        .map(|svc| svc.id)
        .collect()
}

/// The eligibility-list sizes for this substrate.
pub fn epoch_bounds(s: &Substrate) -> EpochBounds {
    EpochBounds {
        n_resolver_sites: resolver_sites(s).len() as u32,
        n_flappable_links: flappable_links(s).len() as u32,
        n_cloud_vms: cloud_vm_sites(s).len() as u32,
        n_ecs_services: rehomeable_services(s).len() as u32,
    }
}

/// Generate and apply epoch `epoch`'s mutations in place, returning the
/// resolved action sequence and the dirty set it implies.
///
/// Deterministic in `(s.seeds, plan, epoch)` and independent of how many
/// earlier epochs were applied — action *generation* draws from an
/// epoch-indexed stream, and every mutation either toggles state or
/// re-draws it from an epoch-keyed domain. Replaying epochs `0..=k` on a
/// fresh substrate therefore reproduces the same world as having lived
/// through them, which is what lets the differential tests rebuild from
/// scratch mid-trajectory.
pub fn apply_epoch(
    s: &mut Substrate,
    plan: &EpochPlan,
    epoch: u32,
) -> (Vec<EpochAction>, DirtySet) {
    let _span = itm_obs::span("epoch.apply");
    let sites = resolver_sites(s);
    let links = flappable_links(s);
    let vms = cloud_vm_sites(s);
    let services = rehomeable_services(s);
    let bounds = EpochBounds {
        n_resolver_sites: sites.len() as u32,
        n_flappable_links: links.len() as u32,
        n_cloud_vms: vms.len() as u32,
        n_ecs_services: services.len() as u32,
    };
    let actions = plan.actions(&s.seeds, epoch, &bounds);
    let dirty = DirtySet::from_actions(&actions, |i| services[i as usize]);

    let mut churned: BTreeSet<Asn> = BTreeSet::new();
    for a in &actions {
        match *a {
            EpochAction::ResolverChurn { site } => {
                churned.insert(sites[site as usize]);
            }
            EpochAction::LinkFlap { link } => {
                s.topo.toggle_link_down(links[link as usize]);
            }
            EpochAction::VmChurn { vm } => {
                let asn = vms[vm as usize];
                if !s.vm_down.remove(&asn) {
                    s.vm_down.insert(asn);
                }
            }
            EpochAction::Rehome { service, shift } => {
                s.frontends
                    .rehome_service(services[service as usize], shift);
            }
            EpochAction::DiurnalShift { millihours } => {
                s.traffic
                    .shift_diurnal_phase(f64::from(millihours) / 1000.0);
            }
        }
    }
    if !churned.is_empty() {
        // Adoption re-draws are keyed per prefix under an epoch-scoped
        // domain: independent of the churned-set iteration order, and a
        // different draw each epoch.
        let dom = s.seeds.child("epoch").child(&format!("churn-{epoch}"));
        let jitter = s.config.resolvers.adoption_jitter;
        s.resolvers.churn_adoption(&s.topo, &churned, jitter, &dom);
    }
    (actions, dirty)
}

/// Rebuild only the dirty campaigns of `prev` against the mutated
/// substrate, retaining everything else.
///
/// With the same `cfg` and executor as the original build, the result is
/// byte-identical to `TrafficMap::build_with(s, cfg, exec)` — see the
/// module docs for the argument and `tests/epoch_incremental.rs` for the
/// enforcement.
pub fn build_incremental(
    s: &Substrate,
    cfg: &MapConfig,
    exec: &ParallelExecutor,
    prev: TrafficMap,
    dirty: &DirtySet,
) -> Result<TrafficMap> {
    if dirty.is_clean() {
        return Ok(prev);
    }
    let _span = itm_obs::span("map.build_incremental");
    let injector = |campaign: &str| FaultInjector::new(cfg.faults.clone(), &s.seeds, campaign);

    let TrafficMap {
        user_prefixes: _,
        activity: prev_activity,
        onnet_servers: prev_onnet,
        offnet_servers: prev_offnet,
        sni_footprints: prev_sni,
        user_mapping: prev_mapping,
        catchments: prev_catchments,
        route_view: prev_route_view,
        visibility: prev_visibility,
        cache_result: prev_cache,
        root_result: prev_root,
        cloud_result: prev_cloud,
        fault_report: prev_report,
        claims: _,
    } = prev;

    // The resolver is a pure function of the substrate, redeployed every
    // epoch. Deploying it is one nearest-PoP pass over the prefixes; the
    // PoP-wide rate table (a `prefixes × services` demand sweep) is built
    // lazily, only if cache probing re-runs and reads it.
    let resolver_span = itm_obs::span("resolver.deploy");
    let resolver = s
        .open_resolver()
        .map_err(|e| ItmError::in_campaign("map.build_incremental", e))?;
    drop(resolver_span);

    // A recomputed component's predecessor is dropped before its
    // replacement is built: it is never read again, and freeing it first
    // lowers the epoch's peak.

    // ---- Component 1: users + activity ----
    let cache_result = if dirty.is_dirty(Campaign::CacheProbe) {
        drop(prev_cache);
        cfg.cache_probe
            .run_with_faults(s, &resolver, &injector("cache_probe"), |n, job| {
                exec.map(n, job)
            })
    } else {
        prev_cache
    };
    let root_result = if dirty.is_dirty(Campaign::RootCrawl) {
        drop(prev_root);
        cfg.root_crawl
            .run_with_faults(s, &resolver, &injector("root_crawl"), |n, job| {
                exec.map(n, job)
            })
    } else {
        prev_root
    };
    let activity = if dirty.is_dirty(Campaign::Activity) {
        drop(prev_activity);
        ActivityEstimator::fuse_with(s, &cache_result, &root_result, |n, job| exec.map(n, job))
    } else {
        prev_activity
    };
    let user_prefixes = cache_result.discovered.clone();

    // ---- Component 2: services ----
    // The SNI scan resolves against the TLS scan's candidate table, so
    // the pair recomputes together (no current mutation dirties either;
    // the branch exists for future mutation kinds and custom plans).
    let (onnet_servers, offnet_servers, sni_footprints, scan_stats) =
        if dirty.is_dirty(Campaign::TlsScan) || dirty.is_dirty(Campaign::SniScan) {
            let scan = TlsScan::run_with_faults(
                &s.topo,
                &s.tls,
                &cfg.scan,
                &s.seeds,
                &injector("tls-scan"),
                |n, job| exec.map(n, job),
            );
            let (onnet, offnet) = detect_offnets(&s.topo, &s.tls, &scan);
            let candidates: Vec<Ipv4Addr> = scan.observations.iter().map(|o| o.addr).collect();
            let domains = DomainTable::from_names(s.catalog.services.iter().map(|x| &x.domain));
            let sni = SniScan::run_with_faults(
                &s.tls,
                &candidates,
                &domains,
                &cfg.scan,
                &s.seeds,
                &injector("sni-scan"),
                |n, job| exec.map(n, job),
            );
            let footprints: BTreeMap<ServiceId, Vec<Ipv4Addr>> = s
                .catalog
                .services
                .iter()
                .map(|svc| (svc.id, sni.addresses_of(&domains, &svc.domain).to_vec()))
                .collect();
            (
                onnet,
                offnet,
                footprints,
                Some((scan.fault_stats, sni.fault_stats)),
            )
        } else {
            (prev_onnet, prev_offnet, prev_sni, None)
        };

    let user_mapping = if dirty.is_dirty(Campaign::UserMapping) {
        if dirty.services.is_empty() {
            // Dirty with no named services = invalidated wholesale.
            drop(prev_mapping);
            UserMapping::measure_with_faults(s, &resolver, &injector("user_mapping"), |n, job| {
                exec.map(n, job)
            })
        } else {
            // The dominant phase's payoff: re-measure only the re-homed
            // services and splice their segments over the retained grid.
            let fresh = UserMapping::measure_subset_with_faults(
                s,
                &resolver,
                &dirty.services,
                &injector("user_mapping"),
                |n, job| exec.map(n, job),
            );
            prev_mapping.splice(fresh, &dirty.services)
        }
    } else {
        prev_mapping
    };

    // Ground-truth view for catchments and cloud probing; cheap to derive
    // and only consulted by the dirty branches below.
    let full = s.full_view();
    let anycast_span = itm_obs::span("services.anycast");
    let catchments = if dirty.is_dirty(Campaign::Anycast) {
        drop(prev_catchments);
        let anycast_services: Vec<ServiceId> = s
            .catalog
            .services
            .iter()
            .filter(|svc| svc.mode == DeliveryMode::Anycast)
            .map(|svc| svc.id)
            .collect();
        let computed = exec.map(anycast_services.len(), &|k| {
            let svc = anycast_services[k];
            let sites: Vec<(Asn, u32)> = s
                .frontends
                .endpoints(svc)
                .iter()
                .map(|e| {
                    let host = e.offnet_host.unwrap_or(e.asn);
                    (host, e.city)
                })
                .collect();
            let dep = AnycastDeployment::new(&s.topo, &sites, cfg.anycast_noise);
            (
                svc,
                Catchments::compute(&s.topo, &full, &dep, &s.seeds.child("map-anycast")),
            )
        });
        computed.into_iter().collect()
    } else {
        prev_catchments
    };
    drop(anycast_span);

    // ---- Component 3: routes ----
    let routes_span = itm_obs::span("routes.assemble");
    let (route_view, visibility, cloud_result) = if dirty.is_dirty(Campaign::Routes) {
        drop((prev_route_view, prev_visibility, prev_cloud));
        let collectors = CollectorSet::typical(&s.topo, &s.seeds);
        let (public_view, visibility) = collectors.public_view(&s.topo);
        let cloud_result = CloudProbeResult::run_with_faults(
            s,
            &full,
            &s.seeds,
            &injector("cloud_probe"),
            |n, job| exec.map(n, job),
        );
        let extra = cloud_result.as_links(s);
        let route_view = public_view.with_extra_links(extra.iter());
        (route_view, visibility, cloud_result)
    } else {
        (prev_route_view, prev_visibility, prev_cloud)
    };
    drop(routes_span);

    // Fault accounting: fresh stats for recomputed campaigns, the
    // previous build's entries (identical by the purity argument) for
    // retained ones. Same keys and gating as the full build.
    let mut fault_report: BTreeMap<String, FaultStats> = BTreeMap::new();
    if !cfg.faults.is_off() {
        fault_report.insert("cache_probe".into(), cache_result.fault_stats);
        fault_report.insert("root_crawl".into(), root_result.fault_stats);
        match &scan_stats {
            Some((tls, sni)) => {
                fault_report.insert("tls_scan".into(), *tls);
                fault_report.insert("sni_scan".into(), *sni);
            }
            None => {
                for key in ["tls_scan", "sni_scan"] {
                    if let Some(st) = prev_report.get(key) {
                        fault_report.insert(key.into(), *st);
                    }
                }
            }
        }
        fault_report.insert("ecs_mapping".into(), user_mapping.fault_stats);
        fault_report.insert("cloud_probe".into(), cloud_result.fault_stats);
    }

    let mut map = TrafficMap {
        user_prefixes,
        activity,
        onnet_servers,
        offnet_servers,
        sni_footprints,
        user_mapping,
        catchments,
        route_view,
        visibility,
        cache_result,
        root_result,
        cloud_result,
        fault_report,
        claims: None,
    };
    if cfg.record_claims {
        map.claims = Some(crate::audit::MapClaims::record(s, &map));
    }
    Ok(map)
}

// ---------------------------------------------------------------------------
// Fingerprinting: a deterministic digest over *every* map component, for
// cheap equality assertions between incremental and from-scratch builds.
// Snapshot bytes cover the serialized surface (cells, footprints, routes,
// claims); the digest folds in the components the snapshot omits.
// ---------------------------------------------------------------------------

/// FNV-1a folding over little-endian scalar encodings.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u32(1);
                self.f64(x);
            }
            None => self.u32(0),
        }
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }
    fn stats(&mut self, st: &FaultStats) {
        self.u64(st.observed);
        self.u64(st.degraded);
        self.u64(st.lost);
        self.u64(st.retries);
    }
}

/// Digest every component of the map, snapshot-covered or not.
///
/// Two maps with equal fingerprints (against the same substrate) agree on
/// cells, footprints, routes, claims, activity estimates, catchments, raw
/// campaign outputs, and fault accounting — the equality the epoch
/// differential tests assert between incremental and full builds.
pub fn map_fingerprint(s: &Substrate, map: &TrafficMap) -> u64 {
    let mut h = Digest::new();
    h.bytes(&snapshot_bytes(s, map));

    h.u64(map.activity.len() as u64);
    for (asn, e) in map.activity.iter() {
        h.u32(asn.raw());
        h.opt_f64(e.cache_hit_rate);
        h.opt_f64(e.root_queries);
        h.opt_f64(e.apnic_users);
        h.f64(e.fused);
    }

    h.u64(map.catchments.len() as u64);
    for (svc, c) in &map.catchments {
        h.u32(svc.raw());
        for (asn, pop) in c.iter() {
            h.u32(asn.raw());
            h.u64(pop.index() as u64);
        }
    }

    for f in map.onnet_servers.iter().chain(&map.offnet_servers) {
        h.u32(f.hypergiant.raw());
        h.u32(f.host.raw());
        h.u32(f.addr.0);
        h.u32(f.city);
    }

    for p in &map.cache_result.discovered {
        h.u32(p.raw());
    }
    for (p, n) in &map.cache_result.hits_by_prefix {
        h.u32(p.raw());
        h.u32(*n);
    }
    h.u32(map.cache_result.probes_per_prefix);
    for (pop, n) in &map.cache_result.discovered_by_pop {
        h.u64(pop.index() as u64);
        h.u32(*n);
    }
    for d in &map.cache_result.domains {
        h.str(d);
    }
    h.stats(&map.cache_result.fault_stats);

    for (asn, q) in &map.root_result.queries_by_as {
        h.u32(asn.raw());
        h.f64(*q);
    }
    h.u64(map.root_result.unmapped_sources as u64);
    h.f64(map.root_result.usable_fraction);
    h.stats(&map.root_result.fault_stats);

    for &(a, b) in &map.cloud_result.links {
        h.u32(a.raw());
        h.u32(b.raw());
    }
    for asn in map
        .cloud_result
        .vantage
        .probes
        .iter()
        .chain(&map.cloud_result.vantage.cloud_vms)
    {
        h.u32(asn.raw());
    }
    h.stats(&map.cloud_result.fault_stats);

    for (label, total, vis) in &map.visibility.by_class {
        h.str(label);
        h.u64(*total as u64);
        h.u64(*vis as u64);
    }
    h.u64(map.visibility.total as u64);
    h.u64(map.visibility.visible as u64);

    for svc in &map.user_mapping.unmeasurable {
        h.u32(svc.raw());
    }
    for (svc, st) in &map.user_mapping.stats_by_service {
        h.u32(svc.raw());
        h.stats(st);
    }

    for (k, st) in &map.fault_report {
        h.str(k);
        h.stats(st);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_measure::SubstrateConfig;

    fn substrate() -> Substrate {
        Substrate::build(SubstrateConfig::small(), 139).expect("substrate")
    }

    #[test]
    fn eligibility_lists_are_nonempty_and_stable() {
        let s = substrate();
        let b = epoch_bounds(&s);
        assert!(b.n_resolver_sites > 0);
        assert!(b.n_flappable_links > 0);
        assert!(b.n_cloud_vms > 0);
        assert!(b.n_ecs_services > 0);
        assert_eq!(resolver_sites(&s), resolver_sites(&s));
        assert_eq!(flappable_links(&s), flappable_links(&s));
    }

    #[test]
    fn apply_epoch_is_deterministic_and_off_is_identity() {
        let mut a = substrate();
        let mut b = substrate();
        let (acts_a, dirty_a) = apply_epoch(&mut a, &EpochPlan::heavy(), 2);
        let (acts_b, dirty_b) = apply_epoch(&mut b, &EpochPlan::heavy(), 2);
        assert_eq!(acts_a, acts_b);
        assert_eq!(dirty_a, dirty_b);
        assert!(!acts_a.is_empty());
        assert_eq!(a.topo.links_down(), b.topo.links_down());
        assert_eq!(a.vm_down, b.vm_down);

        let mut c = substrate();
        let (acts, dirty) = apply_epoch(&mut c, &EpochPlan::off(), 0);
        assert!(acts.is_empty());
        assert!(dirty.is_clean());
        assert!(c.topo.links_down().is_empty());
    }

    #[test]
    fn incremental_build_matches_full_rebuild() {
        let cfg = MapConfig::default();
        let exec = ParallelExecutor::sequential();
        let mut s = substrate();
        let mut map = TrafficMap::build_with(&s, &cfg, &exec).expect("seed build");
        for epoch in 0..2u32 {
            let (_, dirty) = apply_epoch(&mut s, &EpochPlan::heavy(), epoch);
            map = build_incremental(&s, &cfg, &exec, map, &dirty).expect("incremental");
            let full = TrafficMap::build_with(&s, &cfg, &exec).expect("full rebuild");
            assert_eq!(
                snapshot_bytes(&s, &map),
                snapshot_bytes(&s, &full),
                "epoch {epoch}: incremental snapshot diverged"
            );
            assert_eq!(
                map_fingerprint(&s, &map),
                map_fingerprint(&s, &full),
                "epoch {epoch}: fingerprint diverged"
            );
        }
    }

    #[test]
    fn clean_dirty_set_returns_map_unchanged() {
        let cfg = MapConfig::default();
        let exec = ParallelExecutor::sequential();
        let s = substrate();
        let map = TrafficMap::build_with(&s, &cfg, &exec).expect("build");
        let before = map_fingerprint(&s, &map);
        let map = build_incremental(&s, &cfg, &exec, map, &DirtySet::clean()).expect("noop");
        assert_eq!(map_fingerprint(&s, &map), before);
    }

    #[test]
    fn fingerprint_distinguishes_mutated_worlds() {
        let cfg = MapConfig::default();
        let exec = ParallelExecutor::sequential();
        let mut s = substrate();
        let map0 = TrafficMap::build_with(&s, &cfg, &exec).expect("build");
        let fp0 = map_fingerprint(&s, &map0);
        let (_, dirty) = apply_epoch(&mut s, &EpochPlan::heavy(), 0);
        assert!(!dirty.is_clean());
        let map1 = build_incremental(&s, &cfg, &exec, map0, &dirty).expect("incremental");
        assert_ne!(
            map_fingerprint(&s, &map1),
            fp0,
            "heavy churn left the map unchanged"
        );
    }
}

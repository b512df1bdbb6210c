//! The Internet Traffic Map: assembly and queries.
//!
//! [`TrafficMap::build`] runs the full §3 pipeline over a substrate:
//!
//! 1. **Users & activity** (§3.1): cache probing + root-log crawling,
//!    fused with the APNIC estimates.
//! 2. **Services & mapping** (§3.2): TLS scans for infrastructure, SNI
//!    scans for footprints, ECS mapping for user→host, anycast catchments
//!    for anycast services.
//! 3. **Routes** (§3.3): the public collector view augmented with
//!    cloud-VM-discovered links; paths predicted on demand.
//!
//! The result is self-contained and serializable (minus the prediction
//! view, which is recomputed from stored links).

use crate::exec::ParallelExecutor;
use itm_measure::{
    ActivityEstimator, CacheProbeCampaign, CacheProbeResult, CloudProbeResult, RootCrawlResult,
    RootCrawler, Substrate, UserMapping,
};
use itm_routing::{
    AnycastDeployment, Catchments, CollectorSet, GraphView, RoutingTree, VisibilityReport,
};
use itm_tls::{detect_offnets, OffnetFinding, ScanConfig, SniScan, TlsScan};
use itm_traffic::DeliveryMode;
use itm_types::{
    Asn, DomainTable, FaultInjector, FaultPlan, FaultStats, Ipv4Addr, ItmError, PrefixId, Result,
    ServiceId,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Map-construction configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapConfig {
    /// Cache-probing campaign parameters.
    pub cache_probe: CacheProbeCampaign,
    /// Root-crawl parameters.
    pub root_crawl: RootCrawler,
    /// TLS/SNI scan parameters.
    pub scan: ScanConfig,
    /// Anycast intra-AS site-selection noise (hot-potato artifacts).
    pub anycast_noise: f64,
    /// Fault plan the campaigns run under (off by default: the clean,
    /// byte-identical-to-seed pipeline).
    pub faults: FaultPlan,
    /// Record per-cell claim bitmaps and per-technique claim tables
    /// ([`crate::audit::MapClaims`]) at assembly time, for the quality
    /// audit and `--explain` verdicts. Off by default: a clean build's
    /// memory profile and summary are unchanged.
    #[serde(default)]
    pub record_claims: bool,
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            cache_probe: CacheProbeCampaign::default(),
            root_crawl: RootCrawler::default(),
            scan: ScanConfig::default(),
            anycast_noise: 0.15,
            faults: FaultPlan::off(),
            record_claims: false,
        }
    }
}

/// The assembled Internet Traffic Map.
pub struct TrafficMap {
    /// Component 1: prefixes identified as hosting users.
    pub user_prefixes: BTreeSet<PrefixId>,
    /// Component 1: relative activity per AS (fused estimate).
    pub activity: ActivityEstimator,
    /// Component 2: serving infrastructure per hypergiant (on-net).
    pub onnet_servers: Vec<OffnetFinding>,
    /// Component 2: off-net deployments detected.
    pub offnet_servers: Vec<OffnetFinding>,
    /// Component 2: per-service footprints from SNI scanning.
    pub sni_footprints: BTreeMap<ServiceId, Vec<Ipv4Addr>>,
    /// Component 2: measured user→host mapping (ECS services).
    pub user_mapping: UserMapping,
    /// Component 2: anycast catchments per anycast service.
    pub catchments: BTreeMap<ServiceId, Catchments>,
    /// Component 3: the topology view available for path prediction
    /// (public + cloud-augmented links).
    pub route_view: GraphView,
    /// Collector visibility statistics (E12 input).
    pub visibility: VisibilityReport,
    /// Raw campaign outputs kept for scoring.
    pub cache_result: CacheProbeResult,
    /// Root-crawl output kept for scoring.
    pub root_result: RootCrawlResult,
    /// Cloud-probing output kept for scoring.
    pub cloud_result: CloudProbeResult,
    /// Per-technique fault accounting (`observed + degraded + lost` per
    /// technique equals the probes issued). Empty when the map was built
    /// with faults off, so clean builds stay byte-identical.
    pub fault_report: BTreeMap<String, FaultStats>,
    /// Per-cell claim bitmaps and per-technique claim tables, recorded
    /// when [`MapConfig::record_claims`] is set (`None` otherwise — the
    /// audit rebuilds them on demand).
    pub claims: Option<crate::audit::MapClaims>,
}

impl TrafficMap {
    /// Run the full pipeline.
    ///
    /// Fails only when a measurement substrate component cannot be
    /// deployed (e.g. a degenerate topology with no cities).
    pub fn build(s: &Substrate, cfg: &MapConfig) -> Result<TrafficMap> {
        Self::build_with(s, cfg, &ParallelExecutor::sequential())
    }

    /// Run the full pipeline with a shard executor.
    ///
    /// Campaigns split into a fixed number of shards (a function of input
    /// size only) and `exec` decides how many threads run them; partial
    /// results merge in shard-index order, so the map — and its JSON
    /// summary — is byte-identical for any thread count.
    pub fn build_with(
        s: &Substrate,
        cfg: &MapConfig,
        exec: &ParallelExecutor,
    ) -> Result<TrafficMap> {
        let _span = itm_obs::span("map.build");
        let _campaign = itm_obs::trace::campaign(
            itm_obs::trace::Technique::MapAssembly,
            "traffic map assembly",
        );

        let injector = |campaign: &str| FaultInjector::new(cfg.faults.clone(), &s.seeds, campaign);

        // ---- Component 1: users + activity ----
        let users_span = itm_obs::span("users.activity");
        let resolver_span = itm_obs::span("resolver.deploy");
        let resolver = s
            .open_resolver()
            .map_err(|e| ItmError::in_campaign("map.build", e))?;
        drop(resolver_span);
        let cache_result =
            cfg.cache_probe
                .run_with_faults(s, &resolver, &injector("cache_probe"), |n, job| {
                    exec.map(n, job)
                });
        let root_result =
            cfg.root_crawl
                .run_with_faults(s, &resolver, &injector("root_crawl"), |n, job| {
                    exec.map(n, job)
                });
        let activity =
            ActivityEstimator::fuse_with(s, &cache_result, &root_result, |n, job| exec.map(n, job));
        let user_prefixes = cache_result.discovered.clone();
        drop(users_span);

        // ---- Component 2: services ----
        let services_span = itm_obs::span("services.scan");
        let scan = TlsScan::run_with_faults(
            &s.topo,
            &s.tls,
            &cfg.scan,
            &s.seeds,
            &injector("tls-scan"),
            |n, job| exec.map(n, job),
        );
        let (onnet_servers, offnet_servers) = detect_offnets(&s.topo, &s.tls, &scan);
        let candidates: Vec<Ipv4Addr> = scan.observations.iter().map(|o| o.addr).collect();
        // Intern the catalogue's domains once; the SNI campaign and its
        // shards carry 4-byte ids instead of cloned strings.
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
        let sni_footprints: BTreeMap<ServiceId, Vec<Ipv4Addr>> = s
            .catalog
            .services
            .iter()
            .map(|svc| (svc.id, sni.addresses_of(&domains, &svc.domain).to_vec()))
            .collect();
        let user_mapping =
            UserMapping::measure_with_faults(s, &resolver, &injector("user_mapping"), |n, job| {
                exec.map(n, job)
            });
        drop(services_span);

        // Anycast catchments for anycast services: one shard per anycast
        // service, merged into a BTreeMap (disjoint service keys).
        let anycast_span = itm_obs::span("services.anycast");
        let full = s.full_view();
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
        let catchments: BTreeMap<ServiceId, Catchments> = computed.into_iter().collect();
        drop(anycast_span);

        // ---- Component 3: routes ----
        let routes_span = itm_obs::span("routes.assemble");
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
        drop(routes_span);

        // Assert the map's edges into the trace: one event per measured
        // (service, prefix) cell, each linking the serving address and AS
        // so provenance queries can join it back to the observations that
        // produced it. CellMap iteration is sorted by (service, prefix),
        // so the event stream is byte-stable without an explicit sort.
        if itm_obs::trace::enabled() {
            let cells: Vec<(ServiceId, PrefixId, Ipv4Addr)> = user_mapping
                .mapping
                .iter()
                .map(|c| (c.service, c.prefix, c.addr))
                .collect();
            for (svc, p, addr) in cells {
                let serving_as = s.topo.prefixes.lookup(addr).map(|r| r.owner);
                let mut subjects = itm_obs::trace::Subjects::none()
                    .prefix(p.raw())
                    .service(svc.raw())
                    .addr(addr.0);
                if let Some(owner) = serving_as {
                    subjects = subjects.asn(owner.raw());
                }
                itm_obs::trace::emit(
                    itm_obs::trace::Technique::MapAssembly,
                    itm_obs::trace::EventKind::EdgeAsserted,
                    subjects,
                    &s.catalog.get(svc).domain,
                );
            }
        }

        // Per-technique fault accounting. Populated only when the plan is
        // on: a clean build carries no report, which keeps its JSON
        // summary byte-identical to builds that predate fault injection.
        let mut fault_report: BTreeMap<String, FaultStats> = BTreeMap::new();
        if !cfg.faults.is_off() {
            fault_report.insert("cache_probe".into(), cache_result.fault_stats);
            fault_report.insert("root_crawl".into(), root_result.fault_stats);
            fault_report.insert("tls_scan".into(), scan.fault_stats);
            fault_report.insert("sni_scan".into(), sni.fault_stats);
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
        // Claim recording reads the assembled map, so it runs last; gated
        // because the tables cost memory a clean build must not pay.
        if cfg.record_claims {
            map.claims = Some(crate::audit::MapClaims::record(s, &map));
        }
        Ok(map)
    }

    /// Predict the AS path from a client AS toward the AS serving
    /// `service` for `client_prefix` (using the map's own mapping and
    /// route view — no ground truth).
    pub fn predicted_path(
        &self,
        s: &Substrate,
        client_prefix: PrefixId,
        service: ServiceId,
    ) -> Option<Vec<Asn>> {
        let serving_as = self.serving_as_for(s, client_prefix, service)?;
        let client_as = s.topo.prefixes.get(client_prefix).owner;
        let tree = RoutingTree::compute(&self.route_view, serving_as);
        tree.path(client_as)
    }

    /// The AS the map believes serves `(client_prefix, service)`.
    pub fn serving_as_for(
        &self,
        s: &Substrate,
        client_prefix: PrefixId,
        service: ServiceId,
    ) -> Option<Asn> {
        // ECS-measured mapping first.
        if let Some(addr) = self.user_mapping.mapping.get(service, client_prefix) {
            return s.topo.prefixes.lookup(addr).map(|r| r.owner);
        }
        // Anycast: the catchment's site AS.
        if let Some(c) = self.catchments.get(&service) {
            let client_as = s.topo.prefixes.get(client_prefix).owner;
            if let Some(site) = c.site_of(client_as) {
                let e = s.frontends.endpoints(service).get(site.index())?;
                return Some(e.offnet_host.unwrap_or(e.asn));
            }
        }
        // Fallback: the service owner's AS.
        Some(s.catalog.get(service).owner.serving_as())
    }

    /// Total number of distinct serving addresses the map knows about.
    pub fn known_server_count(&self) -> usize {
        let mut addrs: BTreeSet<u32> = BTreeSet::new();
        for f in self.onnet_servers.iter().chain(&self.offnet_servers) {
            addrs.insert(f.addr.0);
        }
        for v in self.sni_footprints.values() {
            addrs.extend(v.iter().map(|a| a.0));
        }
        addrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_measure::SubstrateConfig;

    fn build() -> (Substrate, TrafficMap) {
        let s = Substrate::build(SubstrateConfig::small(), 139).unwrap();
        let m = TrafficMap::build(&s, &MapConfig::default()).expect("map build");
        (s, m)
    }

    #[test]
    fn map_has_all_components() {
        let (s, m) = build();
        assert!(!m.user_prefixes.is_empty());
        assert!(!m.activity.is_empty());
        assert!(!m.onnet_servers.is_empty());
        assert!(m.known_server_count() > 0);
        assert!(!m.user_mapping.mapping.is_empty());
        // Every anycast service has catchments.
        let anycast = s
            .catalog
            .services
            .iter()
            .filter(|x| x.mode == DeliveryMode::Anycast)
            .count();
        assert_eq!(m.catchments.len(), anycast);
    }

    #[test]
    fn predicted_paths_exist_for_measured_cells() {
        let (s, m) = build();
        let mut tested = 0;
        for c in m.user_mapping.mapping.iter().take(20) {
            if let Some(path) = m.predicted_path(&s, c.prefix, c.service) {
                assert_eq!(
                    path.first().copied(),
                    Some(s.topo.prefixes.get(c.prefix).owner)
                );
                tested += 1;
            }
        }
        assert!(tested > 0, "no predictable paths at all");
    }

    #[test]
    fn route_view_is_public_plus_cloud() {
        let (s, m) = build();
        // The augmented view has at least as many edges as any cloud
        // discovered link set alone and is a subset of ground truth.
        assert!(m.route_view.n_edges_directed() <= s.full_view().n_edges_directed());
        for &(a, b) in &m.cloud_result.links {
            assert!(m.route_view.has_edge(a, b));
        }
    }
}

//! The open-resolver (Google Public DNS analogue) with probeable caches.
//!
//! §3.1.2, approach 1: "We issued non-recursive queries for popular domains
//! to Google Public DNS … to determine if the popular domains were in the
//! cache. … we used the EDNS0 Client Subnet (ECS) option, which enables
//! specifying a client prefix, causing Google Public DNS to only return a
//! result if a client from that prefix recently queried for the domain."
//!
//! The model: the open resolver operates PoPs in major cities; each user
//! prefix's open-resolver queries land at its nearest PoP; each PoP keeps a
//! cache keyed by `(service, scope)` where the scope is the client /24 for
//! ECS-supporting services and PoP-wide otherwise. Organic traffic fills
//! the caches; probes with `RD=0` read them without filling them.
//!
//! Two equivalent interfaces are provided:
//!
//! * [`CacheSim`] — a real insert/expire cache for event-level tests.
//! * [`OpenResolver::probe`] — the *analytic oracle*: occupancy of a cache
//!   entry during a TTL window is a deterministic Bernoulli draw with the
//!   Poisson no-arrival probability `1 − exp(−rate·TTL)`. Within a window
//!   the outcome is fixed (as a real cache's would be), across windows it
//!   redraws. This makes a full Internet sweep O(prefixes × domains)
//!   without any simulation time stepping.

use crate::authoritative::{AuthoritativeDns, DnsAnswer};
use crate::resolvers::ResolverAssignment;
use itm_topology::Topology;
use itm_traffic::{ServiceCatalog, TrafficModel, UserModel};
use itm_types::rng::stable_hash;
use itm_types::{
    FaultInjector, GeoPoint, Ipv4Addr, Ipv4Net, ItmError, PopId, PrefixId, ProbeFate, SeedDomain,
    ServiceId, SimTime,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Mean bits transferred per user session-with-DNS-lookup; converts demand
/// (bps) into DNS query rate (qps).
pub const BITS_PER_SESSION: f64 = 4.0e7;

/// Open-resolver deployment parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpenResolverConfig {
    /// Number of PoPs (placed in the largest global cities).
    pub n_pops: usize,
    /// Background query noise (qps) per (routed prefix, popular domain):
    /// scanners, bots, misconfigured hosts. Produces the small
    /// false-positive rate real cache probing observes (<1% in \[34\]).
    pub noise_qps: f64,
}

impl Default for OpenResolverConfig {
    fn default() -> Self {
        OpenResolverConfig {
            n_pops: 12,
            noise_qps: 2.0e-7,
        }
    }
}

/// One open-resolver PoP.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Pop {
    /// Dense id.
    pub id: PopId,
    /// City (world index).
    pub city: u32,
    /// Location (cached).
    pub location: GeoPoint,
}

/// Outcome of a non-recursive cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeResult {
    /// The entry was cached: someone behind that scope queried recently.
    Hit(Ipv4Addr),
    /// Not cached.
    Miss,
    /// Unknown domain.
    NxDomain,
}

/// The open resolver bound to a substrate.
pub struct OpenResolver<'a> {
    topo: &'a Topology,
    users: &'a UserModel,
    catalog: &'a ServiceCatalog,
    traffic: &'a TrafficModel,
    resolvers: &'a ResolverAssignment,
    auth: AuthoritativeDns<'a>,
    cfg: OpenResolverConfig,
    pops: Vec<Pop>,
    /// PoP serving each prefix (nearest by geography).
    pop_of_prefix: Vec<PopId>,
    /// Per-(pop, service) aggregate daily-mean qps for PoP-wide scopes,
    /// built on first use (see [`OpenResolver::pop_service_qps`]).
    pop_service_qps: OnceLock<Vec<f64>>,
    /// Occupancy draw seed.
    draw_seed: u64,
}

impl<'a> OpenResolver<'a> {
    /// Deploy the open resolver.
    ///
    /// Fails with [`ItmError::InvalidConfig`] when the topology has no
    /// cities to site PoPs in.
    #[allow(clippy::too_many_arguments)]
    pub fn deploy(
        topo: &'a Topology,
        users: &'a UserModel,
        catalog: &'a ServiceCatalog,
        traffic: &'a TrafficModel,
        resolvers: &'a ResolverAssignment,
        auth: AuthoritativeDns<'a>,
        cfg: OpenResolverConfig,
        seeds: &SeedDomain,
    ) -> Result<OpenResolver<'a>, ItmError> {
        let seeds = seeds.child("opendns");
        // PoPs in the biggest cities (by size × country weight).
        let mut ranked: Vec<(u32, f64)> = topo
            .world
            .cities
            .iter()
            .map(|c| {
                (
                    c.id,
                    c.size_weight * topo.world.country(c.country).population_weight,
                )
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let pops: Vec<Pop> = ranked
            .iter()
            .take(cfg.n_pops.max(1))
            .enumerate()
            .map(|(i, &(city, _))| Pop {
                id: PopId(i as u32),
                city,
                location: topo.city_location(city),
            })
            .collect();

        // Nearest-PoP assignment per prefix: smallest distance, ties to
        // the lower PoP id (pops are in id order, so the first wins).
        let mut pop_of_prefix = Vec::with_capacity(topo.prefixes.len());
        for r in topo.prefixes.iter() {
            let (first, rest) = pops.split_first().ok_or_else(|| ItmError::InvalidConfig {
                field: "world.cities",
                reason: "open resolver needs at least one city to site PoPs".into(),
            })?;
            let loc = topo.city_location(r.city);
            let mut best = (first.location.distance_km(loc), first.id);
            for p in rest {
                let d = p.location.distance_km(loc);
                if d.total_cmp(&best.0).is_lt() {
                    best = (d, p.id);
                }
            }
            pop_of_prefix.push(best.1);
        }

        Ok(OpenResolver {
            topo,
            users,
            catalog,
            traffic,
            resolvers,
            auth,
            cfg,
            pops,
            pop_of_prefix,
            pop_service_qps: OnceLock::new(),
            draw_seed: seeds.seed("occupancy"),
        })
    }

    /// The deployed PoPs.
    pub fn pops(&self) -> &[Pop] {
        &self.pops
    }

    /// The PoP a prefix's clients use.
    pub fn pop_of(&self, p: PrefixId) -> PopId {
        self.pop_of_prefix[p.index()]
    }

    /// The AS operating the open resolver (the largest hypergiant — the
    /// Google analogue).
    pub fn operator(&self) -> itm_types::Asn {
        self.topo.hypergiants()[0]
    }

    /// The egress address a PoP uses when querying authoritative/root
    /// servers — what root logs record for open-resolver clients. Drawn
    /// from the operator's hosting space (offset 8, per PoP index).
    pub fn pop_egress_addr(&self, pop: PopId) -> Ipv4Addr {
        let op = self.operator();
        let hosting: Vec<_> = self
            .topo
            .prefixes
            .owned_by(op)
            .iter()
            .filter(|&&p| self.topo.prefixes.get(p).kind == itm_topology::PrefixKind::Hosting)
            .collect();
        assert!(!hosting.is_empty(), "operator has hosting space");
        let k = pop.index() % hosting.len();
        let off = 8 + (pop.index() / hosting.len()) as u32;
        self.topo.prefixes.get(*hosting[k]).net.addr(off.min(9))
    }

    /// Organic open-resolver query rate for (prefix, service) at time `t`,
    /// including the background noise floor.
    pub fn query_rate(&self, p: PrefixId, s: ServiceId, t: SimTime) -> f64 {
        let organic = self
            .traffic
            .demand_at(self.topo, self.users, self.catalog, p, s, t)
            .raw()
            * self.resolvers.open_share(p)
            / BITS_PER_SESSION;
        organic + self.cfg.noise_qps
    }

    /// Aggregate daily-mean qps per `(pop, service)`, `pop`-major, for the
    /// PoP-wide (non-ECS) scopes [`OpenResolver::hit_probability`] reads.
    ///
    /// Built on first use: only cache probing asks, and a deployment that
    /// never probes (an epoch that re-runs only user mapping) skips the
    /// `prefixes × services` demand sweep. ECS columns stay zero — their
    /// rate is per prefix, never read from here. Each column sums its
    /// prefixes in prefix-id order, so the f64 totals do not depend on
    /// when, or from which thread, the table is built.
    fn pop_service_qps(&self) -> &[f64] {
        self.pop_service_qps.get_or_init(|| {
            let n_s = self.catalog.len();
            let mut qps = vec![0.0; self.pops.len() * n_s];
            let pop_wide: Vec<ServiceId> = self
                .catalog
                .services
                .iter()
                .filter(|s| !s.ecs_support)
                .map(|s| s.id)
                .collect();
            for r in self.topo.prefixes.iter() {
                if self.users.users_of(r.id) <= 0.0 {
                    continue;
                }
                let share = self.resolvers.open_share(r.id);
                if share <= 0.0 {
                    continue;
                }
                let pop = self.pop_of_prefix[r.id.index()].index();
                for &s in &pop_wide {
                    let demand = self
                        .traffic
                        .demand(self.topo, self.users, self.catalog, r.id, s);
                    qps[pop * n_s + s.index()] += demand.raw() * share / BITS_PER_SESSION;
                }
            }
            qps
        })
    }

    /// Probability that the cache entry for `(s, scope of p)` is occupied
    /// during the TTL window containing `t`.
    pub fn hit_probability(&self, p: PrefixId, s: ServiceId, t: SimTime) -> f64 {
        let svc = self.catalog.get(s);
        let ttl = svc.ttl_secs as f64;
        let rate = if svc.ecs_support {
            self.query_rate(p, s, t)
        } else {
            // PoP-wide scope: everyone behind the PoP contributes, so the
            // diurnal phase is the *PoP's*, not the probing prefix's —
            // otherwise one physical cache entry would look different to
            // probes carrying different ECS prefixes.
            let pop = self.pop_of(p).index();
            let base = self.pop_service_qps()[pop * self.catalog.len() + s.index()];
            let offset = self.pops[pop].location.solar_offset_hours();
            base * self.traffic.diurnal_multiplier_at(offset, t) + self.cfg.noise_qps
        };
        1.0 - (-rate * ttl).exp()
    }

    /// Non-recursive (RD=0) ECS probe: is `domain` cached for `ecs`'s
    /// scope at the PoP serving that prefix, at time `t`?
    ///
    /// Deterministic: the same (prefix, domain, TTL-window) always gives
    /// the same outcome, as a real cache would within one window.
    pub fn probe(&self, ecs: Ipv4Net, domain: &str, t: SimTime) -> ProbeResult {
        let Some(sid) = self.auth.service_for_domain(domain) else {
            itm_obs::counter!("dns.cache.nxdomain").inc();
            return ProbeResult::NxDomain;
        };
        let Some(rec) = self.topo.prefixes.find(ecs) else {
            // Unrouted prefix: nothing organic ever cached for it.
            itm_obs::counter!("dns.cache.miss").inc();
            return ProbeResult::Miss;
        };
        let svc = self.catalog.get(sid);
        if svc.ecs_support {
            itm_obs::counter!("dns.cache.lookups", "scope" => "ecs").inc();
        } else {
            itm_obs::counter!("dns.cache.lookups", "scope" => "pop").inc();
        }
        let ttl = svc.ttl_secs.max(1) as u64;
        let window = t.as_secs() / ttl;
        // Evaluate occupancy at the window start so the outcome is truly
        // constant across the whole TTL window, matching a real cache.
        let p_hit = self.hit_probability(rec.id, sid, SimTime(window * ttl));
        let key = if svc.ecs_support {
            rec.id.raw() as u64
        } else {
            // PoP-wide entry: same draw for every prefix behind the PoP.
            0x8000_0000_0000_0000 | self.pop_of(rec.id).raw() as u64
        };
        if deterministic_draw(self.draw_seed, key, sid.raw() as u64, window) < p_hit {
            itm_obs::counter!("dns.cache.hit").inc();
            // Answer as the authoritative would have for the organic query.
            let pop_city = self.pops[self.pop_of(rec.id).index()].city;
            let ecs_opt = svc.ecs_support.then_some(ecs);
            let ans = self.auth.resolve(sid, pop_city, ecs_opt);
            itm_obs::trace::emit(
                itm_obs::trace::Technique::CacheProbe,
                itm_obs::trace::EventKind::CacheHit,
                itm_obs::trace::Subjects::none()
                    .prefix(rec.id.raw())
                    .service(sid.raw())
                    .addr(ans.addr.0)
                    .pop(self.pop_of(rec.id).raw()),
                domain,
            );
            ProbeResult::Hit(ans.addr)
        } else {
            itm_obs::counter!("dns.cache.miss").inc();
            itm_obs::trace::emit(
                itm_obs::trace::Technique::CacheProbe,
                itm_obs::trace::EventKind::CacheMiss,
                itm_obs::trace::Subjects::none()
                    .prefix(rec.id.raw())
                    .service(sid.raw())
                    .pop(self.pop_of(rec.id).raw()),
                domain,
            );
            ProbeResult::Miss
        }
    }

    /// [`OpenResolver::probe`] under fault injection. The probe's fate is
    /// keyed by `(ecs prefix, domain, round)` — stable entity identifiers,
    /// never emission order — so faulted sweeps are byte-reproducible at
    /// any thread count. A lost probe returns `None` (the campaign records
    /// the gap); a degraded one returns the *same* result a clean probe
    /// would, after virtual-time backoff.
    pub fn probe_with_faults(
        &self,
        ecs: Ipv4Net,
        domain: &str,
        t: SimTime,
        faults: &FaultInjector,
        round: u64,
    ) -> (Option<ProbeResult>, ProbeFate) {
        if faults.is_off() {
            return (Some(self.probe(ecs, domain, t)), ProbeFate::Observed);
        }
        let key_a = ecs.addr(0).0 as u64;
        let key_b = stable_hash(domain);
        let fate = faults.fate(key_a, key_b, round);
        let subjects = || {
            let mut s = itm_obs::trace::Subjects::none();
            if let Some(rec) = self.topo.prefixes.find(ecs) {
                s = s.prefix(rec.id.raw()).pop(self.pop_of(rec.id).raw());
            }
            if let Some(sid) = self.auth.service_for_domain(domain) {
                s = s.service(sid.raw());
            }
            s
        };
        match fate {
            ProbeFate::Observed => (Some(self.probe(ecs, domain, t)), fate),
            ProbeFate::Degraded { retries } => {
                itm_obs::counter!("faults.probe.retried").inc();
                itm_obs::trace::emit(
                    itm_obs::trace::Technique::CacheProbe,
                    itm_obs::trace::EventKind::ProbeRetried,
                    subjects(),
                    &format!(
                        "retries={retries} backoff={}s",
                        faults.total_backoff_secs(key_a ^ key_b, retries)
                    ),
                );
                (Some(self.probe(ecs, domain, t)), fate)
            }
            ProbeFate::Lost => {
                itm_obs::counter!("faults.probe.lost").inc();
                let kind = faults
                    .first_fault(key_a, key_b, round)
                    .map(|k| k.as_str())
                    .unwrap_or("fault");
                itm_obs::trace::emit(
                    itm_obs::trace::Technique::CacheProbe,
                    itm_obs::trace::EventKind::ProbeFailed,
                    subjects(),
                    &format!(
                        "{kind}, retries exhausted after {} attempts",
                        faults.plan().max_retries + 1
                    ),
                );
                (None, fate)
            }
        }
    }

    /// A *recursive* query as a client stub would issue (fills caches in
    /// the event-level simulation; the analytic path does not need it).
    pub fn resolve_for_client(&self, client: PrefixId, domain: &str) -> Option<DnsAnswer> {
        let sid = self.auth.service_for_domain(domain)?;
        let svc = self.catalog.get(sid);
        let rec = self.topo.prefixes.get(client);
        let pop_city = self.pops[self.pop_of(client).index()].city;
        let ecs = svc.ecs_support.then_some(rec.net);
        let ans = self.auth.resolve(sid, pop_city, ecs);
        if matches!(
            ans.scope,
            crate::authoritative::AnswerScope::ClientPrefix(_)
        ) {
            itm_obs::trace::emit(
                itm_obs::trace::Technique::EcsMapping,
                itm_obs::trace::EventKind::EcsScopedAnswer,
                itm_obs::trace::Subjects::none()
                    .prefix(client.raw())
                    .service(sid.raw())
                    .addr(ans.addr.0)
                    .pop(self.pop_of(client).raw()),
                domain,
            );
        }
        Some(ans)
    }

    /// [`OpenResolver::resolve_for_client`] under fault injection. Two
    /// hops can fault: the resolver hop (loss/timeout/refusal per the
    /// full plan) and the authoritative hop (refusals only, applied by
    /// [`AuthoritativeDns::resolve_with_faults`]). The combined fate is
    /// lost-dominant with retries added across hops.
    pub fn resolve_for_client_with_faults(
        &self,
        client: PrefixId,
        domain: &str,
        faults: &FaultInjector,
    ) -> (Option<DnsAnswer>, ProbeFate) {
        if faults.is_off() {
            return (self.resolve_for_client(client, domain), ProbeFate::Observed);
        }
        let Some(sid) = self.auth.service_for_domain(domain) else {
            // NXDOMAIN is an answer, not a fault.
            return (None, ProbeFate::Observed);
        };
        let key_a = client.raw() as u64;
        let key_b = stable_hash(domain);
        let hop = faults.fate(key_a, key_b, 0);
        if let ProbeFate::Lost = hop {
            itm_obs::counter!("faults.resolve.lost").inc();
            let kind = faults
                .first_fault(key_a, key_b, 0)
                .map(|k| k.as_str())
                .unwrap_or("fault");
            itm_obs::trace::emit(
                itm_obs::trace::Technique::EcsMapping,
                itm_obs::trace::EventKind::ProbeFailed,
                itm_obs::trace::Subjects::none()
                    .prefix(client.raw())
                    .service(sid.raw())
                    .pop(self.pop_of(client).raw()),
                &format!("{kind}, retries exhausted"),
            );
            return (None, ProbeFate::Lost);
        }
        let svc = self.catalog.get(sid);
        let rec = self.topo.prefixes.get(client);
        let pop_city = self.pops[self.pop_of(client).index()].city;
        let ecs = svc.ecs_support.then_some(rec.net);
        let (ans, auth_fate) =
            self.auth
                .resolve_with_faults(sid, pop_city, ecs, faults, client.raw() as u64);
        let combined = hop.combine(auth_fate);
        let Some(ans) = ans else {
            return (None, ProbeFate::Lost);
        };
        if let ProbeFate::Degraded { retries } = combined {
            itm_obs::counter!("faults.resolve.retried").inc();
            itm_obs::trace::emit(
                itm_obs::trace::Technique::EcsMapping,
                itm_obs::trace::EventKind::ProbeRetried,
                itm_obs::trace::Subjects::none()
                    .prefix(client.raw())
                    .service(sid.raw()),
                &format!(
                    "retries={retries} backoff={}s",
                    faults.total_backoff_secs(key_a ^ key_b, retries)
                ),
            );
        }
        if matches!(
            ans.scope,
            crate::authoritative::AnswerScope::ClientPrefix(_)
        ) {
            itm_obs::trace::emit(
                itm_obs::trace::Technique::EcsMapping,
                itm_obs::trace::EventKind::EcsScopedAnswer,
                itm_obs::trace::Subjects::none()
                    .prefix(client.raw())
                    .service(sid.raw())
                    .addr(ans.addr.0)
                    .pop(self.pop_of(client).raw()),
                domain,
            );
        }
        (Some(ans), combined)
    }
}

/// Uniform [0,1) draw, stable in all four keys.
fn deterministic_draw(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    use itm_types::rng::mix64 as mix;
    let k = mix(seed ^ mix(a) ^ mix(b.rotate_left(17)) ^ mix(c.rotate_left(34)));
    (k >> 11) as f64 / (1u64 << 53) as f64
}

/// An event-level cache with real insert/expire semantics, used to check
/// that the analytic oracle's behaviour matches a concrete cache.
#[derive(Debug, Default)]
pub struct CacheSim {
    entries: HashMap<(ServiceId, CacheScopeKey), (Ipv4Addr, SimTime)>,
}

/// Cache key scope for [`CacheSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheScopeKey {
    /// Scoped to a client /24.
    Prefix(Ipv4Net),
    /// Scoped to a PoP.
    Pop(PopId),
}

impl CacheSim {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an answer observed at `now`.
    pub fn insert(&mut self, s: ServiceId, scope: CacheScopeKey, ans: &DnsAnswer, now: SimTime) {
        let expiry = SimTime(now.as_secs() + ans.ttl_secs as u64);
        self.entries.insert((s, scope), (ans.addr, expiry));
    }

    /// Look up without mutating (RD=0 semantics).
    pub fn lookup(&self, s: ServiceId, scope: CacheScopeKey, now: SimTime) -> Option<Ipv4Addr> {
        self.entries
            .get(&(s, scope))
            .filter(|(_, exp)| *exp > now)
            .map(|(a, _)| *a)
    }

    /// Drop expired entries.
    pub fn evict_expired(&mut self, now: SimTime) {
        let before = self.entries.len();
        self.entries.retain(|_, (_, exp)| *exp > now);
        itm_obs::counter!("dns.cache.evictions").add((before - self.entries.len()) as u64);
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Scope key an organic query by `client` for service `s` would use.
    pub fn scope_for(
        catalog: &ServiceCatalog,
        resolver: &OpenResolver<'_>,
        s: ServiceId,
        client_net: Ipv4Net,
        client: PrefixId,
    ) -> CacheScopeKey {
        if catalog.get(s).ecs_support {
            CacheScopeKey::Prefix(client_net)
        } else {
            CacheScopeKey::Pop(resolver.pop_of(client))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authoritative::AnswerScope;
    use crate::frontends::FrontendDirectory;
    use crate::resolvers::ResolverConfig;
    use itm_topology::{generate, PrefixKind, TopologyConfig};
    use itm_traffic::{ServiceCatalogConfig, TrafficConfig};

    struct Fixture {
        topo: Topology,
        users: UserModel,
        catalog: ServiceCatalog,
        traffic: TrafficModel,
        resolvers: ResolverAssignment,
        frontends: FrontendDirectory,
    }

    fn fixture() -> Fixture {
        let seeds = SeedDomain::new(43);
        let topo = generate(&TopologyConfig::small(), 43).unwrap();
        let users = UserModel::generate(&topo, &seeds);
        let catalog = ServiceCatalog::generate(&ServiceCatalogConfig::small(), &topo, &seeds);
        let traffic =
            TrafficModel::build(&topo, &users, &catalog, TrafficConfig::default(), &seeds);
        let resolvers = ResolverAssignment::build(&topo, &ResolverConfig::default(), &seeds);
        let frontends = FrontendDirectory::build(&topo, &catalog);
        Fixture {
            topo,
            users,
            catalog,
            traffic,
            resolvers,
            frontends,
        }
    }

    fn resolver<'a>(f: &'a Fixture) -> OpenResolver<'a> {
        let auth = AuthoritativeDns::new(&f.topo, &f.catalog, &f.frontends);
        OpenResolver::deploy(
            &f.topo,
            &f.users,
            &f.catalog,
            &f.traffic,
            &f.resolvers,
            auth,
            OpenResolverConfig {
                n_pops: 6,
                ..Default::default()
            },
            &SeedDomain::new(43),
        )
        .expect("deploy open resolver")
    }

    #[test]
    fn pops_deploy_and_cover_all_prefixes() {
        let f = fixture();
        let r = resolver(&f);
        assert_eq!(r.pops().len(), 6);
        for rec in f.topo.prefixes.iter() {
            let pop = r.pop_of(rec.id);
            assert!(pop.index() < 6);
        }
    }

    #[test]
    fn nxdomain_for_unknown_names() {
        let f = fixture();
        let r = resolver(&f);
        let net = f.topo.prefixes.get(PrefixId(0)).net;
        assert_eq!(
            r.probe(net, "not-a-service.example", SimTime::ZERO),
            ProbeResult::NxDomain
        );
    }

    #[test]
    fn unrouted_prefixes_never_hit() {
        let f = fixture();
        let r = resolver(&f);
        let bogus: Ipv4Net = "203.0.113.0/24".parse().unwrap();
        for w in 0..20 {
            let t = SimTime(w * 3600);
            assert_eq!(r.probe(bogus, "svc0.example", t), ProbeResult::Miss);
        }
    }

    #[test]
    fn busy_prefixes_hit_popular_domains() {
        let f = fixture();
        let r = resolver(&f);
        // The busiest user prefix should hit svc0 in most windows.
        let busiest = f
            .topo
            .prefixes
            .iter()
            .filter(|rec| rec.kind == PrefixKind::UserAccess)
            .max_by(|a, b| {
                f.traffic
                    .prefix_total(a.id)
                    .raw()
                    .partial_cmp(&f.traffic.prefix_total(b.id).raw())
                    .unwrap()
            })
            .unwrap();
        let mut hits = 0;
        let n = 48;
        for w in 0..n {
            let t = SimTime(w * 1800);
            if matches!(r.probe(busiest.net, "svc0.example", t), ProbeResult::Hit(_)) {
                hits += 1;
            }
        }
        assert!(hits > n / 2, "only {hits}/{n} windows hit");
    }

    #[test]
    fn probe_is_deterministic_within_a_window() {
        let f = fixture();
        let r = resolver(&f);
        let rec = f
            .topo
            .prefixes
            .iter()
            .find(|rec| rec.kind == PrefixKind::UserAccess)
            .unwrap();
        let a = r.probe(rec.net, "svc1.example", SimTime(1000));
        let b = r.probe(rec.net, "svc1.example", SimTime(1001));
        assert_eq!(a, b); // same TTL window (ttl >= 30s)
    }

    #[test]
    fn hit_probability_reflects_activity() {
        let f = fixture();
        let r = resolver(&f);
        let mut user_prefixes: Vec<_> = f
            .topo
            .prefixes
            .iter()
            .filter(|rec| rec.kind == PrefixKind::UserAccess)
            .collect();
        user_prefixes.sort_by(|a, b| {
            f.traffic
                .prefix_total(b.id)
                .raw()
                .partial_cmp(&f.traffic.prefix_total(a.id).raw())
                .unwrap()
        });
        let busy = user_prefixes.first().unwrap();
        let quiet = user_prefixes.last().unwrap();
        // Find an ECS service: probability must be higher for the busy one.
        let svc = f.catalog.services.iter().find(|s| s.ecs_support).unwrap();
        let t = SimTime(7200);
        assert!(
            r.hit_probability(busy.id, svc.id, t) > r.hit_probability(quiet.id, svc.id, t),
            "activity ordering lost"
        );
    }

    #[test]
    fn ecs_answer_matches_ground_truth_mapping() {
        let f = fixture();
        let r = resolver(&f);
        let svc = f
            .catalog
            .services
            .iter()
            .find(|s| s.ecs_support && s.mode == itm_traffic::DeliveryMode::DnsRedirection)
            .unwrap();
        // Probe every user prefix until we find a hit; its address must be
        // the ground-truth selection for that prefix.
        let mut checked = 0;
        for rec in f.topo.prefixes.iter() {
            if rec.kind != PrefixKind::UserAccess {
                continue;
            }
            for w in 0..8 {
                let t = SimTime(w * svc.ttl_secs as u64);
                if let ProbeResult::Hit(addr) = r.probe(rec.net, &svc.domain, t) {
                    let expect = f.frontends.select(&f.topo, svc.id, rec.owner, rec.city);
                    assert_eq!(addr, expect.addr);
                    checked += 1;
                    break;
                }
            }
            if checked > 10 {
                break;
            }
        }
        assert!(checked > 0, "no hits at all — model too cold");
    }

    /// The PoP-wide rate table as `deploy` used to build it eagerly: every
    /// service column, prefix-major.
    fn eager_pop_table(f: &Fixture, r: &OpenResolver<'_>) -> Vec<f64> {
        let n_s = f.catalog.len();
        let mut table = vec![0.0; r.pops().len() * n_s];
        for rec in f.topo.prefixes.iter() {
            if f.users.users_of(rec.id) <= 0.0 {
                continue;
            }
            let share = f.resolvers.open_share(rec.id);
            if share <= 0.0 {
                continue;
            }
            let pop = r.pop_of(rec.id).index();
            for svc in &f.catalog.services {
                let qps = f
                    .traffic
                    .demand(&f.topo, &f.users, &f.catalog, rec.id, svc.id)
                    .raw()
                    * share
                    / BITS_PER_SESSION;
                table[pop * n_s + svc.id.index()] += qps;
            }
        }
        table
    }

    /// Non-ECS `hit_probability` recomputed from an eager table, for one
    /// probing prefix per PoP.
    fn assert_lazy_table_matches_eager(f: &Fixture) -> Vec<f64> {
        let r = resolver(f);
        let table = eager_pop_table(f, &r);
        let n_s = f.catalog.len();
        let mut checked = 0;
        for pop in r.pops() {
            let Some(rec) = f
                .topo
                .prefixes
                .iter()
                .find(|rec| r.pop_of(rec.id) == pop.id)
            else {
                continue;
            };
            for svc in f.catalog.services.iter().filter(|s| !s.ecs_support) {
                for t in [SimTime(0), SimTime(7 * 3600), SimTime(19 * 3600 + 17)] {
                    let base = table[pop.id.index() * n_s + svc.id.index()];
                    let offset = pop.location.solar_offset_hours();
                    let rate = base * f.traffic.diurnal_multiplier_at(offset, t) + r.cfg.noise_qps;
                    let want = 1.0 - (-rate * svc.ttl_secs as f64).exp();
                    let got = r.hit_probability(rec.id, svc.id, t);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "pop {pop:?} svc {:?}",
                        svc.id
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no non-ECS service to check");
        table
    }

    #[test]
    fn lazy_pop_table_matches_an_eager_build_across_adoption_churn() {
        let mut f = fixture();
        let before = assert_lazy_table_matches_eager(&f);
        let churned: std::collections::BTreeSet<itm_types::Asn> =
            f.topo.ases.iter().map(|a| a.asn).collect();
        let dom = SeedDomain::new(43).child("epoch").child("churn-1");
        f.resolvers.churn_adoption(&f.topo, &churned, 1.5, &dom);
        let after = assert_lazy_table_matches_eager(&f);
        assert_ne!(before, after, "churn left the PoP rates unchanged");
    }

    #[test]
    fn cache_sim_semantics() {
        let mut c = CacheSim::new();
        let ans = DnsAnswer {
            addr: Ipv4Addr::new(9, 9, 9, 9),
            scope: AnswerScope::ResolverWide,
            ttl_secs: 60,
        };
        let scope = CacheScopeKey::Pop(PopId(0));
        assert!(c.lookup(ServiceId(0), scope, SimTime(0)).is_none());
        c.insert(ServiceId(0), scope, &ans, SimTime(0));
        assert_eq!(
            c.lookup(ServiceId(0), scope, SimTime(59)),
            Some(Ipv4Addr::new(9, 9, 9, 9))
        );
        assert!(c.lookup(ServiceId(0), scope, SimTime(60)).is_none());
        assert_eq!(c.len(), 1);
        c.evict_expired(SimTime(61));
        assert!(c.is_empty());
    }

    #[test]
    fn noise_floor_produces_rare_false_positives_only() {
        let f = fixture();
        let r = resolver(&f);
        // Infrastructure prefixes have no users; only the noise floor can
        // make them hit. Over many windows, hits must be very rare.
        let mut probes = 0u32;
        let mut hits = 0u32;
        for rec in f.topo.prefixes.iter() {
            if rec.kind != PrefixKind::Infrastructure {
                continue;
            }
            for w in 0..50 {
                let t = SimTime(w * 600);
                probes += 1;
                if matches!(r.probe(rec.net, "svc0.example", t), ProbeResult::Hit(_)) {
                    hits += 1;
                }
            }
        }
        assert!(probes > 0);
        assert!(
            (hits as f64) < probes as f64 * 0.01,
            "{hits}/{probes} false positives"
        );
    }
}

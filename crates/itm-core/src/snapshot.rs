//! The snapshot writer: serialize an assembled [`TrafficMap`] into the
//! sectioned binary format of [`itm_types::snap`].
//!
//! Everything written is a pure function of `(substrate, map)` — cell
//! columns come from the already-sorted [`CellMap`] iteration, claim bits
//! from [`MapClaims`] (recorded at build time or rebuilt here, identical
//! either way), adjacency from the route view's sorted neighbor lists —
//! so the bytes are identical at any `--threads` and across runs with the
//! same seed. The reverse index is a stable radix sort of cell indices by
//! address, and the front-end table is that sorted run deduplicated and
//! merged with the footprint sets — both deterministic.
//!
//! [`CellMap`]: itm_types::CellMap
//! [`MapClaims`]: crate::audit::MapClaims

use crate::audit::{bits, MapClaims};
use crate::map::TrafficMap;
use itm_measure::Substrate;
use itm_topology::NeighborKind;
use itm_types::snap::{rel, section, SnapWriter};
use itm_types::{Asn, DomainTable, ItmError, Result};

/// Map a topology relationship onto its on-disk code.
fn rel_code(kind: NeighborKind) -> u8 {
    match kind {
        NeighborKind::Customer => rel::CUSTOMER,
        NeighborKind::Provider => rel::PROVIDER,
        NeighborKind::Peer => rel::PEER,
    }
}

/// Serialize the map into snapshot bytes (see DESIGN.md §14).
///
/// The claim column reuses the map's recorded [`MapClaims`] when
/// `record_claims` was on and rebuilds them otherwise; both paths produce
/// the same bytes because claim recording is itself a pure function of
/// `(substrate, map)`.
pub fn snapshot_bytes(s: &Substrate, map: &TrafficMap) -> Vec<u8> {
    let _span = itm_obs::span("map.snapshot");

    // Claim bitmaps, aligned with the cell columns. The recorded table is
    // in the same iteration order, so it maps through directly. Derived
    // before any child span opens, so `map.claims` stays a direct child
    // of `map.snapshot`.
    let n_cells = map.user_mapping.mapping.len();
    let mut cell_bits = match &map.claims {
        Some(c) => c.cell_bits.clone(),
        None => MapClaims::record(s, map).cell_bits,
    };
    cell_bits.resize(n_cells, bits::ECS | bits::CATALOG_PRIOR);

    let columns_span = itm_obs::span("snapshot.columns");
    // ---- Domain table: catalogue order, exactly as the map build interns.
    let domains = DomainTable::from_names(s.catalog.services.iter().map(|x| &x.domain));
    let n_services = domains.len();
    let mut dom_off: Vec<u32> = Vec::with_capacity(n_services + 1);
    let mut dom_bytes: Vec<u8> = Vec::new();
    dom_off.push(0);
    for (_, name) in domains.iter() {
        dom_bytes.extend_from_slice(name.as_bytes());
        dom_bytes.push(0); // NUL terminator keeps names greppable in hexdumps
        dom_off.push(dom_bytes.len() as u32);
    }
    let mut dom_sorted: Vec<u32> = (0..n_services as u32).collect();
    dom_sorted.sort_by(|&a, &b| {
        domains
            .name(itm_types::DomainId(a))
            .cmp(domains.name(itm_types::DomainId(b)))
            .then(a.cmp(&b))
    });

    // ---- Prefix columns, in prefix-id order.
    let n_prefixes = s.topo.prefixes.len();
    let mut pfx_base: Vec<u32> = Vec::with_capacity(n_prefixes);
    let mut pfx_owner: Vec<u32> = Vec::with_capacity(n_prefixes);
    for r in s.topo.prefixes.iter() {
        pfx_base.push(r.net.network().0);
        pfx_owner.push(r.owner.raw());
    }
    let mut pfx_sorted: Vec<u32> = (0..n_prefixes as u32).collect();
    pfx_sorted.sort_by_key(|&i| (pfx_base[i as usize], i));

    // ---- Cell columns: CellMap iteration is already (service, prefix)
    // sorted, so the service-major runs fall out of a single pass.
    let cells = &map.user_mapping.mapping;
    let mut cell_svc_off: Vec<u64> = vec![0; n_services + 1];
    let mut cell_prefix: Vec<u32> = Vec::with_capacity(n_cells);
    let mut cell_addr: Vec<u32> = Vec::with_capacity(n_cells);
    for c in cells.iter() {
        if let Some(slot) = cell_svc_off.get_mut(c.service.index() + 1) {
            *slot += 1;
        }
        cell_prefix.push(c.prefix.raw());
        cell_addr.push(c.addr.0);
    }
    for i in 1..cell_svc_off.len() {
        cell_svc_off[i] += cell_svc_off[i - 1];
    }

    // ---- Route adjacency: the view's neighbor lists are sorted by ASN.
    let n_ases = map.route_view.n_ases();
    let mut route_off: Vec<u64> = Vec::with_capacity(n_ases + 1);
    let mut route_nbr: Vec<u32> = Vec::new();
    let mut route_kind: Vec<u8> = Vec::new();
    route_off.push(0);
    for a in 0..n_ases as u32 {
        for &(nbr, kind) in map.route_view.neighbors(Asn(a)) {
            route_nbr.push(nbr.raw());
            route_kind.push(rel_code(kind));
        }
        route_off.push(route_nbr.len() as u64);
    }
    drop(columns_span);

    // Reverse index: cell indices ordered by (serving address, index).
    let rev_span = itm_obs::span("snapshot.rev_index");
    let cell_rev = rev_index(&cell_addr);

    // ---- Front-end table: every distinct serving address the map knows —
    // the distinct addresses of the reverse index's sorted run, plus the
    // (small) ECS and SNI footprint sets.
    let mut front_addr: Vec<u32> = Vec::new();
    for &i in &cell_rev {
        let a = cell_addr[i as usize];
        if front_addr.last() != Some(&a) {
            front_addr.push(a);
        }
    }
    for addrs in map
        .user_mapping
        .footprint
        .values()
        .chain(map.sni_footprints.values())
    {
        front_addr.extend(addrs.iter().map(|a| a.0));
    }
    front_addr.sort_unstable();
    front_addr.dedup();
    let front_owner: Vec<u32> = front_addr
        .iter()
        .map(|&a| {
            s.topo
                .prefixes
                .lookup(itm_types::Ipv4Addr(a))
                .map(|r| r.owner.raw())
                .unwrap_or(u32::MAX)
        })
        .collect();
    drop(rev_span);

    // ---- Assemble, sections in id order. Each cell column is dropped as
    // soon as it is written, so the writer's buffer grows while they
    // shrink.
    let _finish_span = itm_obs::span("snapshot.finish");
    let meta = [
        s.seed,
        n_ases as u64,
        n_prefixes as u64,
        n_services as u64,
        n_cells as u64,
        route_nbr.len() as u64,
        front_addr.len() as u64,
    ];
    let mut w = SnapWriter::new();
    w.section_u64(section::META, &meta);
    w.section_u32(section::DOM_OFF, &dom_off);
    w.section_u8(section::DOM_BYTES, &dom_bytes);
    w.section_u32(section::DOM_SORTED, &dom_sorted);
    w.section_u32(section::PFX_BASE, &pfx_base);
    w.section_u32(section::PFX_OWNER, &pfx_owner);
    w.section_u32(section::PFX_SORTED, &pfx_sorted);
    w.section_u64(section::CELL_SVC_OFF, &cell_svc_off);
    w.section_u32(section::CELL_PREFIX, &cell_prefix);
    drop(cell_prefix);
    w.section_u32(section::CELL_ADDR, &cell_addr);
    drop(cell_addr);
    w.section_u8(section::CELL_BITS, &cell_bits);
    drop(cell_bits);
    w.section_u32(section::CELL_REV, &cell_rev);
    drop(cell_rev);
    w.section_u32(section::FRONT_ADDR, &front_addr);
    w.section_u32(section::FRONT_OWNER, &front_owner);
    w.section_u64(section::ROUTE_OFF, &route_off);
    w.section_u32(section::ROUTE_NBR, &route_nbr);
    w.section_u8(section::ROUTE_KIND, &route_kind);
    w.finish()
}

/// The reverse-index permutation: `0..addr.len()` ordered by
/// `(addr[i], i)`.
///
/// A stable LSD radix sort of the identity permutation, low 16 address
/// bits then high 16: each pass is stable, so equal addresses keep
/// ascending index order — exactly the `(addr, i)` order a comparison
/// sort would give, in two linear passes instead of `n log n`
/// comparisons.
fn rev_index(addr: &[u32]) -> Vec<u32> {
    const BUCKETS: usize = 1 << 16;
    let n = addr.len();
    assert!(
        u32::try_from(n).is_ok(),
        "reverse index needs cell indices that fit in u32"
    );
    // Bucket start offsets for both digits from one counting pass.
    let mut lo_start = vec![0usize; BUCKETS];
    let mut hi_start = vec![0usize; BUCKETS];
    for &a in addr {
        lo_start[(a & 0xFFFF) as usize] += 1;
        hi_start[(a >> 16) as usize] += 1;
    }
    for counts in [&mut lo_start, &mut hi_start] {
        let mut sum = 0;
        for c in counts.iter_mut() {
            let k = *c;
            *c = sum;
            sum += k;
        }
    }
    // Pass 1 scatters the identity permutation by the low digit; pass 2
    // re-scatters that order by the high digit.
    let mut by_lo = vec![0u32; n];
    for (i, &a) in addr.iter().enumerate() {
        let slot = &mut lo_start[(a & 0xFFFF) as usize];
        by_lo[*slot] = i as u32;
        *slot += 1;
    }
    let mut out = vec![0u32; n];
    for &i in &by_lo {
        let slot = &mut hi_start[(addr[i as usize] >> 16) as usize];
        out[*slot] = i;
        *slot += 1;
    }
    out
}

/// Serialize the map and write it to `path`, returning the byte length.
pub fn write_snapshot(s: &Substrate, map: &TrafficMap, path: &str) -> Result<u64> {
    let bytes = snapshot_bytes(s, map);
    let _span = itm_obs::span("snapshot.write_file");
    std::fs::write(path, &bytes)
        .map_err(|e| ItmError::config("snapshot_path", format!("cannot write {path}: {e}")))?;
    Ok(bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapConfig;
    use itm_measure::SubstrateConfig;
    use itm_types::snap;
    use proptest::prelude::*;

    #[test]
    fn snapshot_parses_and_counts_match_the_map() {
        let s = Substrate::build(SubstrateConfig::small(), 139).unwrap();
        let m = TrafficMap::build(&s, &MapConfig::default()).unwrap();
        let bytes = snapshot_bytes(&s, &m);
        let dir = snap::parse_dir(&bytes).unwrap();
        assert_eq!(dir.len(), 17);
        let meta = dir.iter().find(|e| e.id == snap::section::META).unwrap();
        let at = |k: usize| snap::read_u64(&bytes, meta.offset as usize + k * 8).unwrap();
        assert_eq!(at(0), s.seed);
        assert_eq!(at(1), m.route_view.n_ases() as u64);
        assert_eq!(at(2), s.topo.prefixes.len() as u64);
        assert_eq!(at(3), s.catalog.len() as u64);
        assert_eq!(at(4), m.user_mapping.mapping.len() as u64);
        assert_eq!(at(5), m.route_view.n_edges_directed() as u64);
    }

    #[test]
    fn recorded_and_rebuilt_claims_write_identical_bytes() {
        let s = Substrate::build(SubstrateConfig::small(), 139).unwrap();
        let plain = TrafficMap::build(&s, &MapConfig::default()).unwrap();
        let cfg = MapConfig {
            record_claims: true,
            ..MapConfig::default()
        };
        let recorded = TrafficMap::build(&s, &cfg).unwrap();
        assert_eq!(snapshot_bytes(&s, &plain), snapshot_bytes(&s, &recorded));
    }

    /// The comparison sort the radix reverse index replaces.
    fn rev_by_sort(addr: &[u32]) -> Vec<u32> {
        let mut rev: Vec<u32> = (0..addr.len() as u32).collect();
        rev.sort_by_key(|&i| (addr[i as usize], i));
        rev
    }

    /// Addresses biased toward the radix sort's edge cases: the extremes,
    /// heavy duplicates, and keys equal in one 16-bit digit.
    fn edgy_addr() -> impl Strategy<Value = u32> {
        (0u8..6, any::<u32>()).prop_map(|(kind, x)| match kind {
            0 => 0,
            1 => u32::MAX,
            2 => x % 4,
            3 => x | 0xFFFF,
            4 => x & 0xFFFF_0000,
            _ => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn radix_rev_index_equals_the_comparison_sort(
            addr in proptest::collection::vec(edgy_addr(), 0..600),
        ) {
            prop_assert_eq!(rev_index(&addr), rev_by_sort(&addr));
        }
    }

    #[test]
    fn radix_rev_index_edge_inputs() {
        for addr in [
            vec![],
            vec![u32::MAX],
            vec![0, u32::MAX, 0, u32::MAX],
            vec![7; 100],
            vec![0x0001_0000, 0x0000_FFFF, 0x0001_0000, 0],
        ] {
            assert_eq!(rev_index(&addr), rev_by_sort(&addr), "{addr:?}");
        }
    }

    #[test]
    fn wire_claim_bits_match_audit_bits() {
        // The on-disk constants are frozen copies of the audit's; if the
        // audit encoding ever moves, the snapshot writer must translate.
        assert_eq!(snap::claim::CACHE_PROBE, bits::CACHE_PROBE);
        assert_eq!(snap::claim::ROOT_CRAWL, bits::ROOT_CRAWL);
        assert_eq!(snap::claim::ECS, bits::ECS);
        assert_eq!(snap::claim::ANYCAST, bits::ANYCAST);
        assert_eq!(snap::claim::TLS_NEAREST, bits::TLS_NEAREST);
        assert_eq!(snap::claim::CATALOG_PRIOR, bits::CATALOG_PRIOR);
    }
}

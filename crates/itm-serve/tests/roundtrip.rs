//! Snapshot round-trip: every query the serving layer answers off the
//! bytes must agree with the in-memory [`TrafficMap`] the bytes were
//! serialized from, the bytes must be identical at any thread count, and
//! any corruption must be rejected at open.

use itm_core::{snapshot_bytes, MapConfig, ParallelExecutor, TrafficMap};
use itm_measure::{Substrate, SubstrateConfig};
use itm_serve::Snapshot;
use itm_types::snap::{self, section, SectionEntry};
use itm_types::{Asn, Ipv4Addr, PrefixId, ServiceId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn small_world(seed: u64) -> (Substrate, TrafficMap) {
    let s = Substrate::build(SubstrateConfig::small(), seed).unwrap();
    let m = TrafficMap::build(&s, &MapConfig::default()).unwrap();
    (s, m)
}

/// One small snapshot, built once and shared by every proptest case —
/// rebuilding the map per case would dominate the suite's runtime.
fn good_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let (s, m) = small_world(7);
        snapshot_bytes(&s, &m)
    })
}

#[test]
fn every_point_query_agrees_with_the_in_memory_map() {
    let (s, m) = small_world(42);
    let snap = Snapshot::from_bytes(snapshot_bytes(&s, &m)).unwrap();
    let cells = &m.user_mapping.mapping;
    assert_eq!(snap.n_cells(), cells.len());

    // Every in-memory cell answers identically off the bytes.
    for c in cells.iter() {
        let ans = snap
            .point(c.service, c.prefix)
            .unwrap_or_else(|| panic!("cell {:?}×{:?} missing", c.service, c.prefix));
        assert_eq!(ans.addr, c.addr);
    }

    // A sweep of absent cells misses identically too.
    let mut checked = 0;
    for sv in 0..s.catalog.len() as u32 {
        for pf in (0..s.topo.prefixes.len() as u32).step_by(7) {
            let service = ServiceId(sv);
            let prefix = PrefixId(pf);
            let mem = cells.get(service, prefix);
            let served = snap.point(service, prefix).map(|a| a.addr);
            assert_eq!(mem, served, "disagreement at svc{sv} pfx{pf}");
            checked += 1;
        }
    }
    assert!(checked > 1000, "sweep too small to mean anything");
}

#[test]
fn reverse_lookup_agrees_with_a_scan_of_the_in_memory_map() {
    let (s, m) = small_world(42);
    let snap = Snapshot::from_bytes(snapshot_bytes(&s, &m)).unwrap();
    let cells = &m.user_mapping.mapping;

    // Collect the expected reverse image of every 13th cell's address.
    let probe_addrs: Vec<Ipv4Addr> = cells
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 13 == 0)
        .map(|(_, c)| c.addr)
        .collect();
    for addr in probe_addrs {
        let mut expect: Vec<(ServiceId, PrefixId)> = cells
            .iter()
            .filter(|c| c.addr == addr)
            .map(|c| (c.service, c.prefix))
            .collect();
        expect.sort();
        let mut got = snap.reverse(addr);
        got.sort();
        assert_eq!(expect, got, "reverse({addr}) disagrees");
    }
    assert!(snap.reverse(Ipv4Addr(0xFFFF_FFFF)).is_empty());
}

#[test]
fn route_queries_agree_with_the_route_view() {
    let (s, m) = small_world(42);
    let snap = Snapshot::from_bytes(snapshot_bytes(&s, &m)).unwrap();
    assert_eq!(snap.n_ases(), m.route_view.n_ases());
    for a in 0..m.route_view.n_ases() as u32 {
        let mem: Vec<(Asn, u8)> = m
            .route_view
            .neighbors(Asn(a))
            .iter()
            .map(|&(nbr, kind)| {
                let code = match kind {
                    itm_topology::NeighborKind::Customer => itm_types::snap::rel::CUSTOMER,
                    itm_topology::NeighborKind::Provider => itm_types::snap::rel::PROVIDER,
                    itm_topology::NeighborKind::Peer => itm_types::snap::rel::PEER,
                };
                (nbr, code)
            })
            .collect();
        let served: Vec<(Asn, u8)> = snap.neighbors(Asn(a)).collect();
        assert_eq!(mem, served, "adjacency of AS{a} disagrees");
        for (nbr, code) in mem {
            assert_eq!(snap.edge(Asn(a), nbr), Some(code));
        }
    }
}

#[test]
fn domain_and_prefix_tables_agree_with_the_substrate() {
    let (s, m) = small_world(42);
    let snap = Snapshot::from_bytes(snapshot_bytes(&s, &m)).unwrap();
    assert_eq!(snap.n_services(), s.catalog.len());
    for svc in &s.catalog.services {
        assert_eq!(snap.domain_of(svc.id), Some(svc.domain.as_str()));
        assert_eq!(snap.service_named(&svc.domain), Some(svc.id));
    }
    assert_eq!(snap.n_prefixes(), s.topo.prefixes.len());
    for rec in s.topo.prefixes.iter() {
        assert_eq!(snap.prefix_net(rec.id), Some(rec.net));
        assert_eq!(snap.prefix_owner(rec.id), Some(rec.owner));
        assert_eq!(snap.find_prefix(rec.net), Some(rec.id));
        assert_eq!(snap.prefix_of_addr(rec.net.network()), Some(rec.id));
    }
}

#[test]
fn snapshot_bytes_are_identical_across_thread_counts() {
    let s = Substrate::build(SubstrateConfig::small(), 42).unwrap();
    let one = {
        let exec = ParallelExecutor::new(1);
        let m = TrafficMap::build_with(&s, &MapConfig::default(), &exec).unwrap();
        snapshot_bytes(&s, &m)
    };
    let three = {
        let exec = ParallelExecutor::new(3);
        let m = TrafficMap::build_with(&s, &MapConfig::default(), &exec).unwrap();
        snapshot_bytes(&s, &m)
    };
    assert_eq!(one, three, "snapshot bytes depend on the thread count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any byte anywhere in the file makes it unopenable — the
    /// whole-file checksum turns silent corruption into a hard error.
    #[test]
    fn any_corrupted_byte_is_rejected_at_open(pos in any::<u32>(), flip in 1u8..=255) {
        let good = good_bytes();
        let mut bad = good.to_vec();
        let i = pos as usize % bad.len();
        bad[i] ^= flip;
        prop_assert!(
            Snapshot::from_bytes(bad).is_err(),
            "corruption at byte {} (xor {:#04x}) went undetected", i, flip
        );
    }

    /// Truncation at any length is rejected too.
    #[test]
    fn any_truncation_is_rejected_at_open(cut in any::<u32>()) {
        let good = good_bytes();
        let len = cut as usize % good.len();
        prop_assert!(Snapshot::from_bytes(good[..len].to_vec()).is_err());
    }
}

/// Every cell of `snap` grouped by serving address, read cell by cell
/// through [`Snapshot::cell`] so the reverse index plays no part. Cells
/// are ordered by ⟨service, prefix⟩, so each group is too.
fn cells_by_addr(snap: &Snapshot) -> BTreeMap<u32, Vec<(ServiceId, PrefixId)>> {
    let mut by_addr: BTreeMap<u32, Vec<(ServiceId, PrefixId)>> = BTreeMap::new();
    for i in 0..snap.n_cells() {
        let (service, prefix, addr) = snap.cell(i).unwrap();
        by_addr.entry(addr.0).or_default().push((service, prefix));
    }
    by_addr
}

/// Every address in `by_addr`, each one's `+1` neighbour, `0` and
/// `u32::MAX`.
fn reverse_probes(by_addr: &BTreeMap<u32, Vec<(ServiceId, PrefixId)>>) -> BTreeSet<u32> {
    let mut probes: BTreeSet<u32> = [0, u32::MAX].into();
    for &a in by_addr.keys() {
        probes.insert(a);
        probes.insert(a.wrapping_add(1));
    }
    probes
}

#[test]
fn reverse_answers_every_address_in_service_prefix_order() {
    let (s, m) = small_world(42);
    let snap = Snapshot::from_bytes(snapshot_bytes(&s, &m)).unwrap();
    let mut by_addr: BTreeMap<u32, Vec<(ServiceId, PrefixId)>> = BTreeMap::new();
    for c in m.user_mapping.mapping.iter() {
        by_addr
            .entry(c.addr.0)
            .or_default()
            .push((c.service, c.prefix));
    }
    assert!(by_addr.len() > 10, "too few front-ends to mean anything");
    for a in reverse_probes(&by_addr) {
        let want = by_addr.get(&a).cloned().unwrap_or_default();
        assert!(
            want.windows(2).all(|w| w[0] < w[1]),
            "map cells of {a:#x} are not in ⟨service, prefix⟩ order"
        );
        // Compared as returned: the order is part of the contract.
        assert_eq!(snap.reverse(Ipv4Addr(a)), want, "reverse({a:#x})");
    }
}

/// Overwrite the `k`-th `u32` of section `e` in place.
fn put_u32(bytes: &mut [u8], e: &SectionEntry, k: usize, v: u32) {
    let at = e.offset as usize + 4 * k;
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// The `k`-th `u32` of section `e`.
fn get_u32(bytes: &[u8], e: &SectionEntry, k: usize) -> u32 {
    snap::read_u32(bytes, e.offset as usize + 4 * k).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rewriting one reverse-index or cell-address entry (checksum
    /// re-stamped, so only content validation stands guard) either gets
    /// the file rejected at open or leaves every reverse answer equal to
    /// a cell-by-cell scan. It never panics.
    #[test]
    fn rewritten_reverse_or_address_entry_is_rejected_or_answered_exactly(
        in_rev in any::<bool>(),
        pos in any::<u32>(),
        pick in any::<u32>(),
        mode in 0u8..4,
    ) {
        let good = good_bytes();
        let dir = snap::parse_dir(good).unwrap();
        let sec = |id| *dir.iter().find(|e| e.id == id).unwrap();
        let (rev, addr) = (sec(section::CELL_REV), sec(section::CELL_ADDR));
        let n = rev.count as usize;
        let r = pos as usize % n;
        let addr_at = |r: usize| get_u32(good, &addr, get_u32(good, &rev, r) as usize);
        let (target, k, value) = if in_rev {
            let value = match mode {
                // Anything at all: mostly out of range or out of order.
                0 => pick,
                // Another entry's value: a duplicated cell.
                1 => get_u32(good, &rev, pick as usize % n),
                2 => get_u32(good, &rev, r).wrapping_add(1),
                // The previous entry's value: sorted by address still.
                _ => get_u32(good, &rev, r.saturating_sub(1)),
            };
            (rev, r, value)
        } else {
            // The address run around reverse-index position r.
            let a = addr_at(r);
            let mut first = r;
            while first > 0 && addr_at(first - 1) == a {
                first -= 1;
            }
            let mut last = r;
            while last + 1 < n && addr_at(last + 1) == a {
                last += 1;
            }
            let (at, value) = match mode {
                0 => (r, pick),
                1 => (r, get_u32(good, &addr, pick as usize % n)),
                // The run's last cell moves one address up.
                2 => (last, a.wrapping_add(1)),
                // The run's first cell joins the previous run.
                _ => (first, addr_at(first.saturating_sub(1))),
            };
            (addr, get_u32(good, &rev, at) as usize, value)
        };
        let mut bad = good.to_vec();
        put_u32(&mut bad, &target, k, value);
        let sum = snap::checksum(&bad);
        bad[16..24].copy_from_slice(&sum.to_le_bytes());
        if let Ok(opened) = Snapshot::from_bytes(bad) {
            let by_addr = cells_by_addr(&opened);
            for a in reverse_probes(&by_addr) {
                let want = by_addr.get(&a).cloned().unwrap_or_default();
                prop_assert!(
                    opened.reverse(Ipv4Addr(a)) == want,
                    "reverse({:#x}) disagrees with the cell scan", a
                );
            }
        }
    }
}

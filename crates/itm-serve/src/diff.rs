//! Structural diff between two map snapshots (`repro --diff A B`).
//!
//! A continuously updated map is only trustworthy if its evolution is
//! inspectable: when epoch `k+1`'s snapshot differs from epoch `k`'s, an
//! operator needs to see *which* ⟨service, prefix⟩ cells moved to a new
//! front-end, which appeared or vanished, which route edges changed — and
//! which measurement techniques back each side of every delta.
//!
//! [`MapDiff::compute`] walks both snapshots' sorted columns in lockstep
//! (no decoding into owned structures beyond the delta lists themselves)
//! and reports:
//!
//! * [`CellDelta`] — a mapping cell added, removed, re-pointed to a
//!   different replica, or re-evidenced (same replica, different claim
//!   bits), with both sides' claim bitmaps as provenance;
//! * [`RouteDelta`] — a directed adjacency entry added, removed, or
//!   re-classified.
//!
//! Deltas come out in ⟨service, prefix⟩ / ⟨AS, neighbor⟩ order — the
//! snapshots' own canonical orders — so a serialized diff is byte-stable.
//!
//! Two snapshots are only comparable over the same universe: equal
//! service/prefix/AS counts, identical domain tables, identical prefix
//! tables. Anything else is an [`DiffError::Incompatible`], which the CLI
//! maps to exit 2 (version mismatches are caught earlier, at open, by the
//! snapshot header check).

use crate::Snapshot;
use itm_types::snap::claim;
use itm_types::{Asn, Ipv4Addr, PrefixId, ServiceId};
use std::collections::BTreeMap;

/// Why two snapshots cannot be diffed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// The snapshots describe different universes.
    Incompatible {
        /// Which table disagrees.
        what: &'static str,
    },
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::Incompatible { what } => {
                write!(f, "snapshots are not comparable: {what} differ")
            }
        }
    }
}

impl std::error::Error for DiffError {}

/// One mapping-cell difference between snapshot A and snapshot B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellDelta {
    /// The service the cell belongs to.
    pub service: ServiceId,
    /// The client prefix of the cell.
    pub prefix: PrefixId,
    /// A's serving replica (`None` = the cell did not exist in A).
    pub old_addr: Option<Ipv4Addr>,
    /// B's serving replica (`None` = the cell no longer exists in B).
    pub new_addr: Option<Ipv4Addr>,
    /// A's technique claim bitmap (0 when absent in A).
    pub old_bits: u8,
    /// B's technique claim bitmap (0 when absent in B).
    pub new_bits: u8,
}

impl CellDelta {
    /// `added`, `removed`, `moved` (replica changed) or `re-evidenced`
    /// (same replica, different claims).
    pub fn kind(&self) -> &'static str {
        match (self.old_addr, self.new_addr) {
            (None, Some(_)) => "added",
            (Some(_), None) => "removed",
            (Some(a), Some(b)) if a != b => "moved",
            _ => "re-evidenced",
        }
    }

    /// Technique names backing A's side of the cell.
    pub fn old_techniques(&self) -> Vec<&'static str> {
        claim::names(self.old_bits)
    }

    /// Technique names backing B's side of the cell.
    pub fn new_techniques(&self) -> Vec<&'static str> {
        claim::names(self.new_bits)
    }
}

/// One directed route-adjacency difference between A and B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDelta {
    /// Source AS of the directed edge.
    pub from: Asn,
    /// Neighbor AS of the directed edge.
    pub to: Asn,
    /// A's relationship code (`None` = edge absent in A); see
    /// [`itm_types::snap::rel`].
    pub old_kind: Option<u8>,
    /// B's relationship code (`None` = edge absent in B).
    pub new_kind: Option<u8>,
}

impl RouteDelta {
    /// `added`, `removed` or `re-classified`.
    pub fn kind(&self) -> &'static str {
        match (self.old_kind, self.new_kind) {
            (None, Some(_)) => "added",
            (Some(_), None) => "removed",
            _ => "re-classified",
        }
    }
}

/// The full structural difference between two snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapDiff {
    /// Cell deltas, in ⟨service, prefix⟩ order.
    pub cells: Vec<CellDelta>,
    /// Directed route deltas, in ⟨from, to⟩ order.
    pub routes: Vec<RouteDelta>,
}

impl MapDiff {
    /// Diff snapshot `a` against snapshot `b` (A = before, B = after).
    ///
    /// Fails when the snapshots describe different universes (counts,
    /// domain table, or prefix table disagree) — a diff across universes
    /// would attribute renumbering as churn.
    pub fn compute(a: &Snapshot, b: &Snapshot) -> Result<MapDiff, DiffError> {
        let incompatible = |what| Err(DiffError::Incompatible { what });
        if a.n_services() != b.n_services() {
            return incompatible("service counts");
        }
        if a.n_prefixes() != b.n_prefixes() {
            return incompatible("prefix counts");
        }
        if a.n_ases() != b.n_ases() {
            return incompatible("AS counts");
        }
        for sid in 0..a.n_services() {
            if a.domain_of(ServiceId(sid as u32)) != b.domain_of(ServiceId(sid as u32)) {
                return incompatible("domain tables");
            }
        }
        for p in 0..a.n_prefixes() {
            let p = PrefixId(p as u32);
            if a.prefix_net(p) != b.prefix_net(p) || a.prefix_owner(p) != b.prefix_owner(p) {
                return incompatible("prefix tables");
            }
        }

        let mut diff = MapDiff::default();
        for sid in 0..a.n_services() {
            let svc = ServiceId(sid as u32);
            diff.diff_service(a, b, svc);
        }
        for asn in 0..a.n_ases() {
            diff.diff_adjacency(a, b, Asn(asn as u32));
        }
        Ok(diff)
    }

    /// Merge-walk one service's sorted prefix runs in both snapshots.
    ///
    /// The walk reads the prefix, address and claim-bit columns by index.
    /// A run whose three column slices are byte-equal in A and B has no
    /// delta and is skipped without a walk — after a light epoch, that is
    /// almost every service.
    fn diff_service(&mut self, a: &Snapshot, b: &Snapshot, svc: ServiceId) {
        let (run_a, run_b) = (a.cell_run(svc), b.cell_run(svc));
        if a.cell_columns(run_a.clone()) == b.cell_columns(run_b.clone()) {
            return;
        }
        let delta = |prefix, old: Option<(Ipv4Addr, u8)>, new: Option<(Ipv4Addr, u8)>| CellDelta {
            service: svc,
            prefix,
            old_addr: old.map(|(addr, _)| addr),
            new_addr: new.map(|(addr, _)| addr),
            old_bits: old.map_or(0, |(_, bits)| bits),
            new_bits: new.map_or(0, |(_, bits)| bits),
        };
        let (mut i, mut j) = (run_a.start, run_b.start);
        loop {
            let next_a = (i < run_a.end).then(|| a.cell_entry(i));
            let next_b = (j < run_b.end).then(|| b.cell_entry(j));
            let d = match (next_a, next_b) {
                (None, None) => break,
                (Some((p, addr, bits)), None) => {
                    i += 1;
                    delta(p, Some((addr, bits)), None)
                }
                (None, Some((q, addr, bits))) => {
                    j += 1;
                    delta(q, None, Some((addr, bits)))
                }
                (Some((p, old, old_bits)), Some((q, new, new_bits))) => {
                    if p < q {
                        i += 1;
                        delta(p, Some((old, old_bits)), None)
                    } else if q < p {
                        j += 1;
                        delta(q, None, Some((new, new_bits)))
                    } else {
                        i += 1;
                        j += 1;
                        if old == new && old_bits == new_bits {
                            continue;
                        }
                        delta(p, Some((old, old_bits)), Some((new, new_bits)))
                    }
                }
            };
            self.cells.push(d);
        }
    }

    /// Merge-walk one AS's sorted neighbor runs in both snapshots.
    fn diff_adjacency(&mut self, a: &Snapshot, b: &Snapshot, from: Asn) {
        let removed = |n: Asn, kind: u8| RouteDelta {
            from,
            to: n,
            old_kind: Some(kind),
            new_kind: None,
        };
        let added = |m: Asn, kind: u8| RouteDelta {
            from,
            to: m,
            old_kind: None,
            new_kind: Some(kind),
        };
        let mut ia = a.neighbors(from).peekable();
        let mut ib = b.neighbors(from).peekable();
        loop {
            let delta = match (ia.peek().copied(), ib.peek().copied()) {
                (None, None) => break,
                (Some((n, kind)), None) => {
                    ia.next();
                    removed(n, kind)
                }
                (None, Some((m, kind))) => {
                    ib.next();
                    added(m, kind)
                }
                (Some((n, old)), Some((m, new))) => {
                    if n < m {
                        ia.next();
                        removed(n, old)
                    } else if m < n {
                        ib.next();
                        added(m, new)
                    } else {
                        ia.next();
                        ib.next();
                        if old == new {
                            continue;
                        }
                        RouteDelta {
                            from,
                            to: n,
                            old_kind: Some(old),
                            new_kind: Some(new),
                        }
                    }
                }
            };
            self.routes.push(delta);
        }
    }

    /// True when the snapshots were structurally identical.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.routes.is_empty()
    }

    /// Count of cell deltas with the given [`CellDelta::kind`].
    pub fn n_cells_of_kind(&self, kind: &str) -> usize {
        self.cells.iter().filter(|d| d.kind() == kind).count()
    }

    /// Reconstruct B's full cell grid from A plus this diff
    /// (verification helper: the round-trip test asserts it equals B's
    /// decoded cells exactly).
    pub fn apply_cells(&self, a: &Snapshot) -> Vec<(ServiceId, PrefixId, Ipv4Addr, u8)> {
        let mut grid: BTreeMap<(u32, u32), (Ipv4Addr, u8)> = decode_cells(a)
            .into_iter()
            .map(|(svc, p, addr, bits)| ((svc.raw(), p.raw()), (addr, bits)))
            .collect();
        for d in &self.cells {
            let key = (d.service.raw(), d.prefix.raw());
            match d.new_addr {
                Some(addr) => {
                    grid.insert(key, (addr, d.new_bits));
                }
                None => {
                    grid.remove(&key);
                }
            }
        }
        grid.into_iter()
            .map(|((s, p), (addr, bits))| (ServiceId(s), PrefixId(p), addr, bits))
            .collect()
    }

    /// Reconstruct B's directed adjacency from A plus this diff (the
    /// route half of the round-trip check).
    pub fn apply_routes(&self, a: &Snapshot) -> Vec<(Asn, Asn, u8)> {
        let mut adj: BTreeMap<(u32, u32), u8> = BTreeMap::new();
        for asn in 0..a.n_ases() {
            let from = Asn(asn as u32);
            for (to, kind) in a.neighbors(from) {
                adj.insert((from.raw(), to.raw()), kind);
            }
        }
        for d in &self.routes {
            let key = (d.from.raw(), d.to.raw());
            match d.new_kind {
                Some(kind) => {
                    adj.insert(key, kind);
                }
                None => {
                    adj.remove(&key);
                }
            }
        }
        adj.into_iter()
            .map(|((f, t), kind)| (Asn(f), Asn(t), kind))
            .collect()
    }
}

/// Decode a snapshot's full cell grid in canonical order (the comparison
/// target for [`MapDiff::apply_cells`]).
pub fn decode_cells(s: &Snapshot) -> Vec<(ServiceId, PrefixId, Ipv4Addr, u8)> {
    let mut out = Vec::with_capacity(s.n_cells());
    for sid in 0..s.n_services() {
        let svc = ServiceId(sid as u32);
        for i in s.cell_run(svc) {
            let (p, addr, bits) = s.cell_entry(i);
            out.push((svc, p, addr, bits));
        }
    }
    out
}

/// Decode a snapshot's full directed adjacency in canonical order (the
/// comparison target for [`MapDiff::apply_routes`]).
pub fn decode_routes(s: &Snapshot) -> Vec<(Asn, Asn, u8)> {
    let mut out = Vec::with_capacity(s.n_route_entries());
    for asn in 0..s.n_ases() {
        let from = Asn(asn as u32);
        for (to, kind) in s.neighbors(from) {
            out.push((from, to, kind));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_types::snap::{claim, rel, section, SnapWriter};

    /// Snapshot A: the `tiny()` universe of the crate tests — 2 services,
    /// 3 prefixes, 4 cells, 2 fronts, a 3-AS triangle.
    fn snap_a() -> Snapshot {
        let mut w = SnapWriter::new();
        w.section_u64(section::META, &[42, 3, 3, 2, 4, 4, 2]);
        w.section_u32(section::DOM_OFF, &[0, 10, 20]);
        w.section_u8(section::DOM_BYTES, b"a.example\0b.example\0");
        w.section_u32(section::DOM_SORTED, &[0, 1]);
        w.section_u32(section::PFX_BASE, &[0x0A000100, 0x0A000000, 0x0A000200]);
        w.section_u32(section::PFX_OWNER, &[1, 0, 2]);
        w.section_u32(section::PFX_SORTED, &[1, 0, 2]);
        w.section_u64(section::CELL_SVC_OFF, &[0, 2, 4]);
        w.section_u32(section::CELL_PREFIX, &[0, 1, 1, 2]);
        w.section_u32(
            section::CELL_ADDR,
            &[0x0A000001, 0x0A000201, 0x0A000001, 0x0A000201],
        );
        w.section_u8(
            section::CELL_BITS,
            &[
                claim::ECS,
                claim::CATALOG_PRIOR,
                claim::ECS | claim::ANYCAST,
                0,
            ],
        );
        w.section_u32(section::CELL_REV, &[0, 2, 1, 3]);
        w.section_u32(section::FRONT_ADDR, &[0x0A000001, 0x0A000201]);
        w.section_u32(section::FRONT_OWNER, &[1, u32::MAX]);
        w.section_u64(section::ROUTE_OFF, &[0, 1, 3, 4]);
        w.section_u32(section::ROUTE_NBR, &[1, 0, 2, 1]);
        w.section_u8(
            section::ROUTE_KIND,
            &[rel::PROVIDER, rel::CUSTOMER, rel::PEER, rel::PEER],
        );
        Snapshot::from_bytes(w.finish()).expect("snap_a is well-formed")
    }

    /// Snapshot B: the same universe one epoch later. Service 0's prefix 1
    /// moved replicas, prefix 2 appeared; service 1's prefix 1 vanished
    /// and prefix 2 gained a claim; AS0–AS2 peered up and AS1–AS2 turned
    /// into a provider relationship.
    fn snap_b() -> Snapshot {
        let mut w = SnapWriter::new();
        w.section_u64(section::META, &[42, 3, 3, 2, 4, 6, 2]);
        w.section_u32(section::DOM_OFF, &[0, 10, 20]);
        w.section_u8(section::DOM_BYTES, b"a.example\0b.example\0");
        w.section_u32(section::DOM_SORTED, &[0, 1]);
        w.section_u32(section::PFX_BASE, &[0x0A000100, 0x0A000000, 0x0A000200]);
        w.section_u32(section::PFX_OWNER, &[1, 0, 2]);
        w.section_u32(section::PFX_SORTED, &[1, 0, 2]);
        w.section_u64(section::CELL_SVC_OFF, &[0, 3, 4]);
        w.section_u32(section::CELL_PREFIX, &[0, 1, 2, 2]);
        w.section_u32(
            section::CELL_ADDR,
            &[0x0A000001, 0x0A000001, 0x0A000201, 0x0A000201],
        );
        w.section_u8(
            section::CELL_BITS,
            &[claim::ECS, claim::ECS, claim::ECS, claim::CATALOG_PRIOR],
        );
        w.section_u32(section::CELL_REV, &[0, 1, 2, 3]);
        w.section_u32(section::FRONT_ADDR, &[0x0A000001, 0x0A000201]);
        w.section_u32(section::FRONT_OWNER, &[1, u32::MAX]);
        w.section_u64(section::ROUTE_OFF, &[0, 2, 4, 6]);
        w.section_u32(section::ROUTE_NBR, &[1, 2, 0, 2, 0, 1]);
        w.section_u8(
            section::ROUTE_KIND,
            &[
                rel::PROVIDER,
                rel::PEER,
                rel::CUSTOMER,
                rel::PROVIDER,
                rel::PEER,
                rel::CUSTOMER,
            ],
        );
        Snapshot::from_bytes(w.finish()).expect("snap_b is well-formed")
    }

    #[test]
    fn self_diff_is_empty() {
        let a = snap_a();
        let d = MapDiff::compute(&a, &a).expect("compatible");
        assert!(d.is_empty());
        assert_eq!(d.apply_cells(&a), decode_cells(&a));
        assert_eq!(d.apply_routes(&a), decode_routes(&a));
    }

    #[test]
    fn diff_reports_every_kind_in_canonical_order() {
        let (a, b) = (snap_a(), snap_b());
        let d = MapDiff::compute(&a, &b).expect("compatible");

        let kinds: Vec<(u32, u32, &str)> = d
            .cells
            .iter()
            .map(|c| (c.service.raw(), c.prefix.raw(), c.kind()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (0, 1, "moved"),
                (0, 2, "added"),
                (1, 1, "removed"),
                (1, 2, "re-evidenced"),
            ]
        );
        assert_eq!(d.n_cells_of_kind("moved"), 1);
        assert_eq!(d.n_cells_of_kind("added"), 1);

        // Provenance travels with each delta.
        let moved = &d.cells[0];
        assert_eq!(moved.old_techniques(), vec!["catalog_prior"]);
        assert_eq!(moved.new_techniques(), vec!["ecs"]);
        let removed = &d.cells[2];
        assert_eq!(removed.old_techniques(), vec!["ecs", "anycast"]);
        assert!(removed.new_techniques().is_empty());

        let routes: Vec<(u32, u32, &str)> = d
            .routes
            .iter()
            .map(|r| (r.from.raw(), r.to.raw(), r.kind()))
            .collect();
        assert_eq!(
            routes,
            vec![
                (0, 2, "added"),
                (1, 2, "re-classified"),
                (2, 0, "added"),
                (2, 1, "re-classified"),
            ]
        );
    }

    #[test]
    fn applying_the_diff_to_a_reconstructs_b() {
        let (a, b) = (snap_a(), snap_b());
        let d = MapDiff::compute(&a, &b).expect("compatible");
        assert_eq!(d.apply_cells(&a), decode_cells(&b));
        assert_eq!(d.apply_routes(&a), decode_routes(&b));
        // And the reverse diff reconstructs A from B.
        let rev = MapDiff::compute(&b, &a).expect("compatible");
        assert_eq!(rev.apply_cells(&b), decode_cells(&a));
        assert_eq!(rev.apply_routes(&b), decode_routes(&a));
    }

    /// A snapshot over snap_a's universe (2 services, 3 prefixes, the
    /// 3-AS triangle) with the given per-service cell runs of
    /// `(prefix, addr, claim bits)`, prefixes ascending within a run.
    fn snap_with(runs: [&[(u32, u32, u8)]; 2]) -> Snapshot {
        let cells: Vec<(u32, u32, u8)> = runs.iter().flat_map(|r| r.iter().copied()).collect();
        let prefix: Vec<u32> = cells.iter().map(|c| c.0).collect();
        let addr: Vec<u32> = cells.iter().map(|c| c.1).collect();
        let bits: Vec<u8> = cells.iter().map(|c| c.2).collect();
        let mut rev: Vec<u32> = (0..cells.len() as u32).collect();
        rev.sort_by_key(|&i| (addr[i as usize], i));
        let mut fronts = addr.clone();
        fronts.sort_unstable();
        fronts.dedup();
        let n = cells.len() as u64;
        let mut w = SnapWriter::new();
        w.section_u64(section::META, &[42, 3, 3, 2, n, 4, fronts.len() as u64]);
        w.section_u32(section::DOM_OFF, &[0, 10, 20]);
        w.section_u8(section::DOM_BYTES, b"a.example\0b.example\0");
        w.section_u32(section::DOM_SORTED, &[0, 1]);
        w.section_u32(section::PFX_BASE, &[0x0A000100, 0x0A000000, 0x0A000200]);
        w.section_u32(section::PFX_OWNER, &[1, 0, 2]);
        w.section_u32(section::PFX_SORTED, &[1, 0, 2]);
        w.section_u64(section::CELL_SVC_OFF, &[0, runs[0].len() as u64, n]);
        w.section_u32(section::CELL_PREFIX, &prefix);
        w.section_u32(section::CELL_ADDR, &addr);
        w.section_u8(section::CELL_BITS, &bits);
        w.section_u32(section::CELL_REV, &rev);
        w.section_u32(section::FRONT_ADDR, &fronts);
        w.section_u32(section::FRONT_OWNER, &vec![u32::MAX; fronts.len()]);
        w.section_u64(section::ROUTE_OFF, &[0, 1, 3, 4]);
        w.section_u32(section::ROUTE_NBR, &[1, 0, 2, 1]);
        w.section_u8(
            section::ROUTE_KIND,
            &[rel::PROVIDER, rel::CUSTOMER, rel::PEER, rel::PEER],
        );
        Snapshot::from_bytes(w.finish()).expect("well-formed")
    }

    /// The cell walk as it was written before the index walk: the public
    /// iterator for prefixes and addresses, a `point()` lookup per cell
    /// for claim bits, every service walked. Kept as the reference the
    /// index walk and its run skip must agree with.
    fn reference_cells(a: &Snapshot, b: &Snapshot) -> Vec<CellDelta> {
        let mut out = Vec::new();
        for sid in 0..a.n_services() {
            let svc = ServiceId(sid as u32);
            let bits = |s: &Snapshot, p| s.point(svc, p).map_or(0, |ans| ans.claim_bits);
            let cell = |p, old: Option<Ipv4Addr>, new: Option<Ipv4Addr>| CellDelta {
                service: svc,
                prefix: p,
                old_addr: old,
                new_addr: new,
                old_bits: old.map_or(0, |_| bits(a, p)),
                new_bits: new.map_or(0, |_| bits(b, p)),
            };
            let mut ia = a.cells_of(svc).peekable();
            let mut ib = b.cells_of(svc).peekable();
            loop {
                let d = match (ia.peek().copied(), ib.peek().copied()) {
                    (None, None) => break,
                    (Some((p, old)), None) => {
                        ia.next();
                        cell(p, Some(old), None)
                    }
                    (None, Some((q, new))) => {
                        ib.next();
                        cell(q, None, Some(new))
                    }
                    (Some((p, old)), Some((q, new))) => {
                        if p < q {
                            ia.next();
                            cell(p, Some(old), None)
                        } else if q < p {
                            ib.next();
                            cell(q, None, Some(new))
                        } else {
                            ia.next();
                            ib.next();
                            if old == new && bits(a, p) == bits(b, p) {
                                continue;
                            }
                            cell(p, Some(old), Some(new))
                        }
                    }
                };
                out.push(d);
            }
        }
        out
    }

    /// Diff both ways, check each against the reference walk, and return
    /// the forward delta kinds as `(service, prefix, kind)`.
    fn diff_kinds(a: &Snapshot, b: &Snapshot) -> Vec<(u32, u32, &'static str)> {
        let fwd = MapDiff::compute(a, b).expect("compatible");
        assert_eq!(fwd.cells, reference_cells(a, b));
        assert_eq!(fwd.apply_cells(a), decode_cells(b));
        let back = MapDiff::compute(b, a).expect("compatible");
        assert_eq!(back.cells, reference_cells(b, a));
        assert_eq!(back.apply_cells(b), decode_cells(a));
        fwd.cells
            .iter()
            .map(|c| (c.service.raw(), c.prefix.raw(), c.kind()))
            .collect()
    }

    const X: u32 = 0x0A000001;
    const Y: u32 = 0x0A000201;

    #[test]
    fn a_run_differing_only_in_claim_bits_is_re_evidenced() {
        let svc1: &[(u32, u32, u8)] = &[(0, Y, claim::ECS)];
        let a = snap_with([&[(0, X, claim::ECS), (1, X, claim::ECS)], svc1]);
        let b = snap_with([
            &[(0, X, claim::ECS), (1, X, claim::ECS | claim::ANYCAST)],
            svc1,
        ]);
        assert_eq!(diff_kinds(&a, &b), vec![(0, 1, "re-evidenced")]);
        let d = MapDiff::compute(&a, &b).expect("compatible");
        assert_eq!(d.cells[0].old_bits, claim::ECS);
        assert_eq!(d.cells[0].new_bits, claim::ECS | claim::ANYCAST);
    }

    #[test]
    fn a_run_whose_length_changes_shifts_the_next_run_without_deltas() {
        // Service 0 grows by one cell, so service 1's identical run starts
        // one index later in B: it must still diff as unchanged.
        let svc1: &[(u32, u32, u8)] = &[(0, Y, claim::ECS), (2, X, claim::CATALOG_PRIOR)];
        let a = snap_with([&[(1, X, claim::ECS)], svc1]);
        let b = snap_with([&[(0, Y, claim::ECS), (1, X, claim::ECS), (2, Y, 0)], svc1]);
        assert_eq!(diff_kinds(&a, &b), vec![(0, 0, "added"), (0, 2, "added")]);
    }

    #[test]
    fn an_empty_run_on_either_side_adds_or_removes_every_cell() {
        let full: &[(u32, u32, u8)] = &[(0, X, claim::ECS), (2, Y, claim::ANYCAST)];
        let a = snap_with([full, &[]]);
        let b = snap_with([&[], full]);
        assert_eq!(
            diff_kinds(&a, &b),
            vec![
                (0, 0, "removed"),
                (0, 2, "removed"),
                (1, 0, "added"),
                (1, 2, "added"),
            ]
        );
        let both_empty = snap_with([&[], &[]]);
        assert!(diff_kinds(&both_empty, &both_empty).is_empty());
        assert_eq!(diff_kinds(&both_empty, &a).len(), 2);
    }

    #[test]
    fn the_index_walk_agrees_with_the_reference_on_the_fixture_pair() {
        let (a, b) = (snap_a(), snap_b());
        assert_eq!(diff_kinds(&a, &b).len(), 4);
    }

    #[test]
    fn different_universes_are_rejected() {
        let a = snap_a();
        // Same shape, different domain table.
        let mut w = SnapWriter::new();
        w.section_u64(section::META, &[42, 3, 3, 2, 4, 4, 2]);
        w.section_u32(section::DOM_OFF, &[0, 10, 20]);
        w.section_u8(section::DOM_BYTES, b"a.example\0c.example\0");
        w.section_u32(section::DOM_SORTED, &[0, 1]);
        w.section_u32(section::PFX_BASE, &[0x0A000100, 0x0A000000, 0x0A000200]);
        w.section_u32(section::PFX_OWNER, &[1, 0, 2]);
        w.section_u32(section::PFX_SORTED, &[1, 0, 2]);
        w.section_u64(section::CELL_SVC_OFF, &[0, 2, 4]);
        w.section_u32(section::CELL_PREFIX, &[0, 1, 1, 2]);
        w.section_u32(
            section::CELL_ADDR,
            &[0x0A000001, 0x0A000201, 0x0A000001, 0x0A000201],
        );
        w.section_u8(section::CELL_BITS, &[0, 0, 0, 0]);
        w.section_u32(section::CELL_REV, &[0, 2, 1, 3]);
        w.section_u32(section::FRONT_ADDR, &[0x0A000001, 0x0A000201]);
        w.section_u32(section::FRONT_OWNER, &[1, u32::MAX]);
        w.section_u64(section::ROUTE_OFF, &[0, 1, 3, 4]);
        w.section_u32(section::ROUTE_NBR, &[1, 0, 2, 1]);
        w.section_u8(
            section::ROUTE_KIND,
            &[rel::PROVIDER, rel::CUSTOMER, rel::PEER, rel::PEER],
        );
        let c = Snapshot::from_bytes(w.finish()).expect("well-formed");
        let err = MapDiff::compute(&a, &c).expect_err("must reject");
        assert_eq!(
            err,
            DiffError::Incompatible {
                what: "domain tables"
            }
        );
        assert!(err.to_string().contains("not comparable"));
    }
}

//! # itm-serve — zero-copy queries over a map snapshot
//!
//! The paper's end goal is "a continuously updated map of the Internet"
//! that researchers and operators *query*, not a one-shot batch artifact.
//! This crate is that serving layer: it opens the snapshot file written by
//! `repro --snapshot` (format: [`itm_types::snap`], DESIGN.md §14) and
//! answers the map's three question families directly off the file bytes —
//!
//! * **point**: which replica serves prefix X for service Y, and which
//!   techniques back that claim ([`Snapshot::point`]);
//! * **reverse**: which ⟨service, prefix⟩ cells a front-end address serves
//!   ([`Snapshot::reverse`]);
//! * **route**: an AS's adjacency and the relationship on a specific edge
//!   ([`Snapshot::neighbors`], [`Snapshot::edge`]);
//! * **diff**: the structural delta between two snapshots of the same
//!   universe — cells added/removed/moved, route edges changed, each with
//!   technique provenance ([`MapDiff`], the `repro --diff` backend).
//!
//! Every query is offset arithmetic plus binary search over the loaded
//! bytes: nothing is deserialized into owned structures, so open cost is
//! one read + one validation pass and the resident set is the file itself.
//! A point or route lookup is one binary search with no allocation. A
//! reverse lookup costs its answer: two searches bound the address's run
//! exactly, then a forward-only walk turns each of its k cells into
//! ⟨service, prefix⟩ in O(k), with one allocation for the result.
//! The sections are 8-byte aligned and little-endian precisely so this
//! works equally well over a memory mapping; with the workspace offline
//! (no mmap crate), [`Snapshot::open`] reads the file into a `Vec<u8>` and
//! the query paths are byte-offset-based either way.
//!
//! Validation happens once, at open: the whole-file checksum (any single
//! corrupted byte is a hard error), presence and element sizes of all
//! sections, monotonicity of every offset array, sortedness of every
//! binary-searched column (the reverse index strictly by ⟨address, cell⟩,
//! which makes it a permutation), and UTF-8 of the domain table. After
//! that, the query methods never panic and never re-validate. With
//! `itm-obs` metrics on, [`Snapshot::open`] records its read, verify and
//! validate stages as spans.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod diff;

pub use diff::{decode_cells, decode_routes, CellDelta, DiffError, MapDiff, RouteDelta};

use itm_types::snap::{self, claim, section, SectionEntry, SnapError};
use itm_types::{Asn, Ipv4Addr, Ipv4Net, PrefixId, ServiceId};

/// Locate a section by id in a parsed directory.
fn find(dir: &[SectionEntry], id: u32) -> Option<&SectionEntry> {
    dir.iter().find(|e| e.id == id)
}

/// Located section: byte offset + element count, validated at open.
#[derive(Debug, Clone, Copy)]
struct Sec {
    off: usize,
    count: usize,
}

/// Width in bytes of one element of a section.
fn elem_size(id: u32) -> usize {
    match id {
        section::META | section::CELL_SVC_OFF | section::ROUTE_OFF => 8,
        section::DOM_BYTES | section::CELL_BITS | section::ROUTE_KIND => 1,
        _ => 4,
    }
}

/// The answer to a point lookup: the serving replica for one
/// ⟨service, prefix⟩ mapping cell, with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointAnswer {
    /// The front-end address the map asserts serves this cell.
    pub addr: Ipv4Addr,
    /// The AS hosting that front-end, when the address resolves to a
    /// routed prefix.
    pub front_as: Option<Asn>,
    /// Technique claim bitmap for the cell (see [`itm_types::snap::claim`]).
    pub claim_bits: u8,
}

impl PointAnswer {
    /// Names of the measurement techniques backing this cell, in bit order.
    pub fn techniques(&self) -> Vec<&'static str> {
        claim::names(self.claim_bits)
    }
}

/// An opened, validated map snapshot. All queries are zero-copy reads
/// against the underlying bytes.
#[derive(Debug)]
pub struct Snapshot {
    bytes: Vec<u8>,
    meta: [u64; snap::META_FIELDS],
    dom_off: Sec,
    dom_bytes: Sec,
    dom_sorted: Sec,
    pfx_base: Sec,
    pfx_owner: Sec,
    pfx_sorted: Sec,
    cell_svc_off: Sec,
    cell_prefix: Sec,
    cell_addr: Sec,
    cell_bits: Sec,
    cell_rev: Sec,
    front_addr: Sec,
    front_owner: Sec,
    route_off: Sec,
    route_nbr: Sec,
    route_kind: Sec,
}

/// All sections a snapshot must carry, in id order.
const REQUIRED: [u32; 17] = [
    section::META,
    section::DOM_OFF,
    section::DOM_BYTES,
    section::DOM_SORTED,
    section::PFX_BASE,
    section::PFX_OWNER,
    section::PFX_SORTED,
    section::CELL_SVC_OFF,
    section::CELL_PREFIX,
    section::CELL_ADDR,
    section::CELL_BITS,
    section::CELL_REV,
    section::FRONT_ADDR,
    section::FRONT_OWNER,
    section::ROUTE_OFF,
    section::ROUTE_NBR,
    section::ROUTE_KIND,
];

impl Snapshot {
    /// Read and validate a snapshot file.
    ///
    /// Recorded as a `snapshot.open` span with `snapshot.read`,
    /// `snapshot.verify` (header, directory and checksum) and
    /// `snapshot.validate` (section contents) children.
    pub fn open(path: &str) -> Result<Snapshot, SnapError> {
        let _span = itm_obs::span("snapshot.open");
        let bytes = {
            let _read = itm_obs::span("snapshot.read");
            std::fs::read(path).map_err(|e| SnapError::Io {
                detail: format!("{path}: {e}"),
            })?
        };
        Snapshot::from_bytes(bytes)
    }

    /// Validate snapshot bytes and take ownership of them.
    ///
    /// Checks, beyond the header/checksum validation of
    /// [`snap::parse_dir`]: every required section is present with the
    /// right element size; section counts agree with the META counts;
    /// every offset array is monotone with the right endpoints; every
    /// binary-searched column is sorted; the domain table is NUL-delimited
    /// valid UTF-8; and every cross-section index is in range.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot, SnapError> {
        let dir = {
            let _verify = itm_obs::span("snapshot.verify");
            snap::parse_dir(&bytes)?
        };
        let _validate = itm_obs::span("snapshot.validate");
        let mut secs = [Sec { off: 0, count: 0 }; REQUIRED.len()];
        for (k, id) in REQUIRED.iter().enumerate() {
            let e = find(&dir, *id).ok_or(SnapError::MissingSection { id: *id })?;
            let size = elem_size(*id) as u64;
            if e.len != e.count.saturating_mul(size) {
                return Err(SnapError::BadSection {
                    id: *id,
                    reason: "length disagrees with element count",
                });
            }
            secs[k] = Sec {
                off: e.offset as usize,
                count: e.count as usize,
            };
        }
        let [meta_sec, dom_off, dom_bytes, dom_sorted, pfx_base, pfx_owner, pfx_sorted, cell_svc_off, cell_prefix, cell_addr, cell_bits, cell_rev, front_addr, front_owner, route_off, route_nbr, route_kind] =
            secs;

        if meta_sec.count != snap::META_FIELDS {
            return Err(SnapError::BadSection {
                id: section::META,
                reason: "wrong field count",
            });
        }
        let mut meta = [0u64; snap::META_FIELDS];
        for (k, m) in meta.iter_mut().enumerate() {
            *m = snap::read_u64(&bytes, meta_sec.off + k * 8).unwrap_or(0);
        }
        let [_seed, n_ases, n_prefixes, n_services, n_cells, n_route_entries, n_fronts] = meta;

        let want = [
            (dom_off, n_services + 1, "domain offsets"),
            (dom_sorted, n_services, "domain sort index"),
            (pfx_base, n_prefixes, "prefix bases"),
            (pfx_owner, n_prefixes, "prefix owners"),
            (pfx_sorted, n_prefixes, "prefix sort index"),
            (cell_svc_off, n_services + 1, "cell service offsets"),
            (cell_prefix, n_cells, "cell prefixes"),
            (cell_addr, n_cells, "cell addresses"),
            (cell_bits, n_cells, "cell claim bits"),
            (cell_rev, n_cells, "cell reverse index"),
            (front_addr, n_fronts, "front addresses"),
            (front_owner, n_fronts, "front owners"),
            (route_off, n_ases + 1, "route offsets"),
            (route_nbr, n_route_entries, "route neighbors"),
            (route_kind, n_route_entries, "route kinds"),
        ];
        for (sec, expect, what) in want {
            if sec.count as u64 != expect {
                return Err(SnapError::Malformed { what });
            }
        }

        let s = Snapshot {
            bytes,
            meta,
            dom_off,
            dom_bytes,
            dom_sorted,
            pfx_base,
            pfx_owner,
            pfx_sorted,
            cell_svc_off,
            cell_prefix,
            cell_addr,
            cell_bits,
            cell_rev,
            front_addr,
            front_owner,
            route_off,
            route_nbr,
            route_kind,
        };
        s.validate_contents()?;
        Ok(s)
    }

    /// Semantic validation of section contents (see [`Snapshot::from_bytes`]).
    fn validate_contents(&self) -> Result<(), SnapError> {
        let malformed = |what| Err(SnapError::Malformed { what });

        // Domain table: monotone offsets ending exactly at the byte pool,
        // each name NUL-terminated, the whole pool valid UTF-8.
        if self.u32_in(self.dom_off, 0) != 0 {
            return malformed("domain offsets do not start at 0");
        }
        for sid in 0..self.n_services() {
            let a = self.u32_in(self.dom_off, sid) as usize;
            let b = self.u32_in(self.dom_off, sid + 1) as usize;
            if b <= a || b > self.dom_bytes.count {
                return malformed("domain offsets not monotone");
            }
            if self.u8_in(self.dom_bytes, b - 1) != 0 {
                return malformed("domain name missing NUL terminator");
            }
        }
        if self.u32_in(self.dom_off, self.n_services()) as usize != self.dom_bytes.count {
            return malformed("domain offsets do not cover the byte pool");
        }
        let pool = self
            .bytes
            .get(self.dom_bytes.off..self.dom_bytes.off + self.dom_bytes.count)
            .unwrap_or(&[]);
        if std::str::from_utf8(pool).is_err() {
            return malformed("domain table is not UTF-8");
        }
        for k in 0..self.dom_sorted.count {
            if self.u32_in(self.dom_sorted, k) as usize >= self.n_services() {
                return malformed("domain sort index out of range");
            }
        }

        // Prefix columns: the sort index must be in range and order the
        // bases it points at nondecreasing.
        let mut prev_base = 0u32;
        for k in 0..self.pfx_sorted.count {
            let i = self.u32_in(self.pfx_sorted, k) as usize;
            if i >= self.n_prefixes() {
                return malformed("prefix sort index out of range");
            }
            let base = self.u32_in(self.pfx_base, i);
            if k > 0 && base < prev_base {
                return malformed("prefix sort index not sorted by base");
            }
            prev_base = base;
        }

        // Cell columns: service runs partition the cells; prefixes are
        // strictly ascending within each run (the point-lookup invariant).
        if self.u64_in(self.cell_svc_off, 0) != 0
            || self.u64_in(self.cell_svc_off, self.n_services()) != self.n_cells() as u64
        {
            return malformed("cell service offsets have wrong endpoints");
        }
        for sid in 0..self.n_services() {
            let a = self.u64_in(self.cell_svc_off, sid) as usize;
            let b = self.u64_in(self.cell_svc_off, sid + 1) as usize;
            if b < a || b > self.n_cells() {
                return malformed("cell service offsets not monotone");
            }
            for i in a..b {
                if i > a && self.u32_in(self.cell_prefix, i) <= self.u32_in(self.cell_prefix, i - 1)
                {
                    return malformed("cell prefixes not ascending within a service");
                }
            }
        }

        // Reverse index: in range and strictly ascending by ⟨serving
        // address, cell index⟩ (the reverse-lookup invariant). Strictness
        // makes the n_cells entries distinct, so the index is a
        // permutation of the cells, and each address run lists its cells
        // in ascending index order, which the forward service cursor of
        // `reverse` relies on.
        let mut prev = (0u32, 0usize);
        for k in 0..self.cell_rev.count {
            let i = self.u32_in(self.cell_rev, k) as usize;
            if i >= self.n_cells() {
                return malformed("cell reverse index out of range");
            }
            let key = (self.u32_in(self.cell_addr, i), i);
            if k > 0 && key <= prev {
                return malformed("cell reverse index not strictly ordered by (address, cell)");
            }
            prev = key;
        }

        // Front-end table: strictly ascending addresses.
        for k in 1..self.front_addr.count {
            if self.u32_in(self.front_addr, k) <= self.u32_in(self.front_addr, k - 1) {
                return malformed("front addresses not strictly ascending");
            }
        }

        // Route adjacency: offsets partition the entries; neighbor runs
        // are strictly ascending ASNs in range.
        if self.u64_in(self.route_off, 0) != 0
            || self.u64_in(self.route_off, self.n_ases()) != self.n_route_entries() as u64
        {
            return malformed("route offsets have wrong endpoints");
        }
        for a in 0..self.n_ases() {
            let lo = self.u64_in(self.route_off, a) as usize;
            let hi = self.u64_in(self.route_off, a + 1) as usize;
            if hi < lo || hi > self.n_route_entries() {
                return malformed("route offsets not monotone");
            }
            for i in lo..hi {
                let nbr = self.u32_in(self.route_nbr, i);
                if nbr as usize >= self.n_ases() {
                    return malformed("route neighbor out of range");
                }
                if i > lo && nbr <= self.u32_in(self.route_nbr, i - 1) {
                    return malformed("route neighbors not ascending within an AS");
                }
                if snap::rel::name(self.u8_in(self.route_kind, i)).is_none() {
                    return malformed("unknown route relationship code");
                }
            }
        }
        Ok(())
    }

    // ---- Raw column accessors. Offsets were bounds-checked at open, so
    // the `unwrap_or` defaults are unreachable for in-range indices.

    #[inline]
    fn u32_in(&self, s: Sec, i: usize) -> u32 {
        snap::read_u32(&self.bytes, s.off + i * 4).unwrap_or(0)
    }

    #[inline]
    fn u64_in(&self, s: Sec, i: usize) -> u64 {
        snap::read_u64(&self.bytes, s.off + i * 8).unwrap_or(0)
    }

    #[inline]
    fn u8_in(&self, s: Sec, i: usize) -> u8 {
        self.bytes.get(s.off + i).copied().unwrap_or(0)
    }

    /// First index in `[lo, hi)` whose key (per `key(i)`) is ≥ `target`.
    #[inline]
    fn lower_bound(
        &self,
        mut lo: usize,
        mut hi: usize,
        target: u32,
        key: impl Fn(usize) -> u32,
    ) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if key(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    // ---- Metadata.

    /// The substrate master seed the snapshot was built from.
    pub fn seed(&self) -> u64 {
        self.meta[0]
    }

    /// Number of ASes in the route view.
    pub fn n_ases(&self) -> usize {
        self.meta[1] as usize
    }

    /// Number of /24 prefixes in the topology.
    pub fn n_prefixes(&self) -> usize {
        self.meta[2] as usize
    }

    /// Number of services in the catalogue.
    pub fn n_services(&self) -> usize {
        self.meta[3] as usize
    }

    /// Number of ⟨service, prefix⟩ mapping cells.
    pub fn n_cells(&self) -> usize {
        self.meta[4] as usize
    }

    /// Number of directed route adjacency entries.
    pub fn n_route_entries(&self) -> usize {
        self.meta[5] as usize
    }

    /// Number of distinct front-end addresses.
    pub fn n_fronts(&self) -> usize {
        self.meta[6] as usize
    }

    /// Total size of the snapshot in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    // ---- Domain / service lookups.

    /// The domain name of a service, if the id is in range.
    pub fn domain_of(&self, service: ServiceId) -> Option<&str> {
        let s = service.index();
        if s >= self.n_services() {
            return None;
        }
        let a = self.u32_in(self.dom_off, s) as usize;
        let b = self.u32_in(self.dom_off, s + 1) as usize;
        // b - 1 drops the NUL terminator; validated non-empty at open.
        let name = self
            .bytes
            .get(self.dom_bytes.off + a..self.dom_bytes.off + b - 1)?;
        std::str::from_utf8(name).ok()
    }

    /// Find a service by exact domain name (binary search on the sorted
    /// domain index).
    pub fn service_named(&self, name: &str) -> Option<ServiceId> {
        let (mut lo, mut hi) = (0usize, self.n_services());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let sid = ServiceId(self.u32_in(self.dom_sorted, mid));
            if self.domain_of(sid).unwrap_or("") < name {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let sid =
            ServiceId(self.u32_in(self.dom_sorted, lo.min(self.n_services().saturating_sub(1))));
        if lo < self.n_services() && self.domain_of(sid) == Some(name) {
            Some(sid)
        } else {
            None
        }
    }

    // ---- Prefix lookups.

    /// The /24 network of a prefix id.
    pub fn prefix_net(&self, prefix: PrefixId) -> Option<Ipv4Net> {
        if prefix.index() >= self.n_prefixes() {
            return None;
        }
        Ipv4Net::new(Ipv4Addr(self.u32_in(self.pfx_base, prefix.index())), 24).ok()
    }

    /// The owner ASN of a prefix id.
    pub fn prefix_owner(&self, prefix: PrefixId) -> Option<Asn> {
        if prefix.index() >= self.n_prefixes() {
            return None;
        }
        Some(Asn(self.u32_in(self.pfx_owner, prefix.index())))
    }

    /// Find the prefix id whose /24 contains `addr`.
    pub fn prefix_of_addr(&self, addr: Ipv4Addr) -> Option<PrefixId> {
        self.find_base(addr.0 & !0xFF)
    }

    /// Find a prefix id by its network (the /24 base address).
    pub fn find_prefix(&self, net: Ipv4Net) -> Option<PrefixId> {
        self.find_base(net.network().0)
    }

    fn find_base(&self, base: u32) -> Option<PrefixId> {
        let k = self.lower_bound(0, self.n_prefixes(), base, |k| {
            self.u32_in(self.pfx_base, self.u32_in(self.pfx_sorted, k) as usize)
        });
        if k >= self.n_prefixes() {
            return None;
        }
        let id = self.u32_in(self.pfx_sorted, k);
        if self.u32_in(self.pfx_base, id as usize) == base {
            Some(PrefixId(id))
        } else {
            None
        }
    }

    // ---- The three query families.

    /// Point lookup: which replica serves `prefix` for `service`, and on
    /// what measurement evidence.
    ///
    /// One binary search over the service's prefix run — `O(log cells)`
    /// byte probes, no allocation.
    pub fn point(&self, service: ServiceId, prefix: PrefixId) -> Option<PointAnswer> {
        let s = service.index();
        if s >= self.n_services() {
            return None;
        }
        let lo = self.u64_in(self.cell_svc_off, s) as usize;
        let hi = self.u64_in(self.cell_svc_off, s + 1) as usize;
        let i = self.lower_bound(lo, hi, prefix.raw(), |i| self.u32_in(self.cell_prefix, i));
        if i >= hi || self.u32_in(self.cell_prefix, i) != prefix.raw() {
            return None;
        }
        let addr = Ipv4Addr(self.u32_in(self.cell_addr, i));
        Some(PointAnswer {
            addr,
            front_as: self.front_as_of(addr),
            claim_bits: self.u8_in(self.cell_bits, i),
        })
    }

    /// All ⟨prefix, replica⟩ cells of one service, in ascending prefix
    /// order.
    pub fn cells_of(&self, service: ServiceId) -> CellsIter<'_> {
        let run = self.cell_run(service);
        CellsIter {
            snap: self,
            i: run.start,
            hi: run.end,
        }
    }

    /// The global cell-index range of one service's run (empty for an
    /// unknown service).
    pub(crate) fn cell_run(&self, service: ServiceId) -> std::ops::Range<usize> {
        let s = service.index();
        if s >= self.n_services() {
            return 0..0;
        }
        self.u64_in(self.cell_svc_off, s) as usize..self.u64_in(self.cell_svc_off, s + 1) as usize
    }

    /// The raw prefix, address and claim-bit column bytes of a cell range
    /// (validated in bounds at open for any range within `0..n_cells`).
    pub(crate) fn cell_columns(&self, run: std::ops::Range<usize>) -> [&[u8]; 3] {
        let col = |sec: Sec, width: usize| {
            self.bytes
                .get(sec.off + run.start * width..sec.off + run.end * width)
                .unwrap_or(&[])
        };
        [
            col(self.cell_prefix, 4),
            col(self.cell_addr, 4),
            col(self.cell_bits, 1),
        ]
    }

    /// One past the last global cell index of service `s`'s run.
    #[inline]
    fn run_end(&self, s: usize) -> usize {
        self.u64_in(self.cell_svc_off, s + 1) as usize
    }

    /// The ⟨prefix, replica, claim bits⟩ of global cell index `i`.
    pub(crate) fn cell_entry(&self, i: usize) -> (PrefixId, Ipv4Addr, u8) {
        (
            PrefixId(self.u32_in(self.cell_prefix, i)),
            Ipv4Addr(self.u32_in(self.cell_addr, i)),
            self.u8_in(self.cell_bits, i),
        )
    }

    /// Reverse lookup: every ⟨service, prefix⟩ cell served by front-end
    /// address `addr`, in ascending ⟨service, prefix⟩ order.
    ///
    /// Two binary searches bound the address's run in the reverse index
    /// exactly; the run lists its cells in ascending index order (checked
    /// at open), so a forward-only [`ServiceCursor`] recovers each hit's
    /// service. Cost: two searches plus O(k) for k returned cells, with
    /// a short galloping search only where the walk enters a later
    /// service, and one allocation.
    pub fn reverse(&self, addr: Ipv4Addr) -> Vec<(ServiceId, PrefixId)> {
        let key = |k: usize| self.u32_in(self.cell_addr, self.u32_in(self.cell_rev, k) as usize);
        let n = self.n_cells();
        let lo = self.lower_bound(0, n, addr.0, key);
        let hi = match addr.0.checked_add(1) {
            Some(next) => self.lower_bound(lo, n, next, key),
            None => n,
        };
        let mut services = ServiceCursor::new(self);
        let mut out = Vec::with_capacity(hi - lo);
        for k in lo..hi {
            let i = self.u32_in(self.cell_rev, k) as usize;
            out.push((services.seek(i), PrefixId(self.u32_in(self.cell_prefix, i))));
        }
        out
    }

    /// The per-hit reference [`Snapshot::reverse`] replaced: a re-check of
    /// every hit's address and one partition search per hit.
    #[cfg(test)]
    fn reverse_reference(&self, addr: Ipv4Addr) -> Vec<(ServiceId, PrefixId)> {
        let key = |k: usize| self.u32_in(self.cell_addr, self.u32_in(self.cell_rev, k) as usize);
        let n = self.n_cells();
        let lo = self.lower_bound(0, n, addr.0, key);
        let hi = self.lower_bound(lo, n, addr.0.saturating_add(1), key);
        let hi = if addr.0 == u32::MAX { n } else { hi };
        let mut out = Vec::with_capacity(hi - lo);
        for k in lo..hi {
            let i = self.u32_in(self.cell_rev, k) as usize;
            if self.u32_in(self.cell_addr, i) != addr.0 {
                continue; // only reachable for addr == u32::MAX over-scan
            }
            out.push((
                self.service_of_cell(i),
                PrefixId(self.u32_in(self.cell_prefix, i)),
            ));
        }
        out
    }

    /// The service owning global cell index `i` (partition search over the
    /// service offset array).
    fn service_of_cell(&self, i: usize) -> ServiceId {
        let (mut lo, mut hi) = (0usize, self.n_services());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.u64_in(self.cell_svc_off, mid + 1) <= i as u64 {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        ServiceId(lo as u32)
    }

    /// The ⟨service, prefix, replica⟩ triple at global cell index `i`
    /// (cells are ordered by ⟨service, prefix⟩). Lets callers sample the
    /// cell population without walking a service run.
    pub fn cell(&self, i: usize) -> Option<(ServiceId, PrefixId, Ipv4Addr)> {
        if i >= self.n_cells() {
            return None;
        }
        Some((
            self.service_of_cell(i),
            PrefixId(self.u32_in(self.cell_prefix, i)),
            Ipv4Addr(self.u32_in(self.cell_addr, i)),
        ))
    }

    /// The AS hosting a front-end address, when known.
    pub fn front_as_of(&self, addr: Ipv4Addr) -> Option<Asn> {
        let k = self.lower_bound(0, self.n_fronts(), addr.0, |k| {
            self.u32_in(self.front_addr, k)
        });
        if k >= self.n_fronts() || self.u32_in(self.front_addr, k) != addr.0 {
            return None;
        }
        match self.u32_in(self.front_owner, k) {
            u32::MAX => None,
            owner => Some(Asn(owner)),
        }
    }

    /// Route lookup: the directed adjacency of `asn` as ⟨neighbor,
    /// relationship code⟩ pairs, ascending by neighbor (see
    /// [`itm_types::snap::rel`] for codes).
    pub fn neighbors(&self, asn: Asn) -> RouteIter<'_> {
        let a = asn.index();
        let (lo, hi) = if a < self.n_ases() {
            (
                self.u64_in(self.route_off, a) as usize,
                self.u64_in(self.route_off, a + 1) as usize,
            )
        } else {
            (0, 0)
        };
        RouteIter {
            snap: self,
            i: lo,
            hi,
        }
    }

    /// The relationship code on the directed edge `a → b`, if adjacent.
    pub fn edge(&self, a: Asn, b: Asn) -> Option<u8> {
        if a.index() >= self.n_ases() {
            return None;
        }
        let lo = self.u64_in(self.route_off, a.index()) as usize;
        let hi = self.u64_in(self.route_off, a.index() + 1) as usize;
        let i = self.lower_bound(lo, hi, b.raw(), |i| self.u32_in(self.route_nbr, i));
        if i < hi && self.u32_in(self.route_nbr, i) == b.raw() {
            Some(self.u8_in(self.route_kind, i))
        } else {
            None
        }
    }
}

/// A forward-only walk over the service partition of the cell index
/// space: [`ServiceCursor::seek`] maps ascending cell indices to their
/// owning services without a fresh search per cell.
struct ServiceCursor<'a> {
    snap: &'a Snapshot,
    /// The service the cursor sits on.
    service: usize,
    /// One past the last cell of `service`.
    end: usize,
}

impl<'a> ServiceCursor<'a> {
    fn new(snap: &'a Snapshot) -> ServiceCursor<'a> {
        ServiceCursor {
            snap,
            service: 0,
            end: snap.run_end(0),
        }
    }

    /// The service owning cell `i`. Successive calls must pass
    /// nondecreasing `i < n_cells`. When `i` is past the current run the
    /// cursor gallops forward, skipping services with empty runs, then
    /// binary-searches the bracket it found.
    fn seek(&mut self, i: usize) -> ServiceId {
        if i >= self.end {
            let n = self.snap.n_services();
            // Find the first service t > self.service whose run ends past
            // i; every service below `lo` ends at or before i.
            let mut lo = self.service + 1;
            let mut step = 1;
            while lo + step <= n && self.snap.run_end(lo + step - 1) <= i {
                lo += step;
                step *= 2;
            }
            let mut hi = (lo + step - 1).min(n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.snap.run_end(mid) <= i {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            self.service = lo;
            self.end = self.snap.run_end(lo);
        }
        ServiceId(self.service as u32)
    }
}

/// Iterator over one service's mapping cells (see [`Snapshot::cells_of`]).
#[derive(Debug)]
pub struct CellsIter<'a> {
    snap: &'a Snapshot,
    i: usize,
    hi: usize,
}

impl Iterator for CellsIter<'_> {
    type Item = (PrefixId, Ipv4Addr);

    fn next(&mut self) -> Option<Self::Item> {
        if self.i >= self.hi {
            return None;
        }
        let i = self.i;
        self.i += 1;
        Some((
            PrefixId(self.snap.u32_in(self.snap.cell_prefix, i)),
            Ipv4Addr(self.snap.u32_in(self.snap.cell_addr, i)),
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.hi - self.i;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CellsIter<'_> {}

/// Iterator over one AS's adjacency entries (see [`Snapshot::neighbors`]).
#[derive(Debug)]
pub struct RouteIter<'a> {
    snap: &'a Snapshot,
    i: usize,
    hi: usize,
}

impl Iterator for RouteIter<'_> {
    type Item = (Asn, u8);

    fn next(&mut self) -> Option<Self::Item> {
        if self.i >= self.hi {
            return None;
        }
        let i = self.i;
        self.i += 1;
        Some((
            Asn(self.snap.u32_in(self.snap.route_nbr, i)),
            self.snap.u8_in(self.snap.route_kind, i),
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.hi - self.i;
        (n, Some(n))
    }
}

impl ExactSizeIterator for RouteIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use itm_types::snap::SnapWriter;

    /// Hand-assemble a tiny but fully consistent snapshot:
    /// 2 services ("a.example", "b.example"), 3 prefixes, 4 cells,
    /// 2 front-ends, 3 ASes with a triangle of relationships.
    fn tiny() -> Vec<u8> {
        tiny_with_rev(&[0, 2, 1, 3])
    }

    /// [`tiny`] with the given reverse index, checksum re-stamped.
    fn tiny_with_rev(rev: &[u32]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        // seed, n_ases, n_prefixes, n_services, n_cells, n_route, n_fronts
        w.section_u64(section::META, &[42, 3, 3, 2, 4, 4, 2]);
        let names = b"a.example\0b.example\0";
        w.section_u32(section::DOM_OFF, &[0, 10, 20]);
        w.section_u8(section::DOM_BYTES, names);
        w.section_u32(section::DOM_SORTED, &[0, 1]);
        // Prefixes 10.0.0.0/24 (AS0), 10.0.1.0/24 (AS1), 10.0.2.0/24 (AS2),
        // stored out of base order to exercise the sort index.
        w.section_u32(section::PFX_BASE, &[0x0A000100, 0x0A000000, 0x0A000200]);
        w.section_u32(section::PFX_OWNER, &[1, 0, 2]);
        w.section_u32(section::PFX_SORTED, &[1, 0, 2]);
        // Service 0 maps prefixes {0, 1}; service 1 maps {1, 2}.
        w.section_u64(section::CELL_SVC_OFF, &[0, 2, 4]);
        w.section_u32(section::CELL_PREFIX, &[0, 1, 1, 2]);
        // Front 0x0A000001 serves cells 0 and 2; 0x0A000201 serves 1 and 3.
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
        w.section_u32(section::CELL_REV, rev);
        w.section_u32(section::FRONT_ADDR, &[0x0A000001, 0x0A000201]);
        w.section_u32(section::FRONT_OWNER, &[1, u32::MAX]);
        // AS0 ↔ AS1 (0's provider is 1), AS1 ↔ AS2 peers.
        w.section_u64(section::ROUTE_OFF, &[0, 1, 3, 4]);
        w.section_u32(section::ROUTE_NBR, &[1, 0, 2, 1]);
        w.section_u8(
            section::ROUTE_KIND,
            &[
                snap::rel::PROVIDER,
                snap::rel::CUSTOMER,
                snap::rel::PEER,
                snap::rel::PEER,
            ],
        );
        w.finish()
    }

    #[test]
    fn opens_and_reports_meta() {
        let s = Snapshot::from_bytes(tiny()).unwrap();
        assert_eq!(s.seed(), 42);
        assert_eq!(s.n_services(), 2);
        assert_eq!(s.n_cells(), 4);
        assert_eq!(s.n_fronts(), 2);
    }

    #[test]
    fn point_lookup_hits_and_misses() {
        let s = Snapshot::from_bytes(tiny()).unwrap();
        let hit = s.point(ServiceId(0), PrefixId(1)).unwrap();
        assert_eq!(hit.addr, Ipv4Addr(0x0A000201));
        assert_eq!(hit.front_as, None); // front owner is the unknown sentinel
        assert_eq!(hit.claim_bits, claim::CATALOG_PRIOR);
        assert_eq!(hit.techniques(), vec!["catalog_prior"]);
        let hit = s.point(ServiceId(1), PrefixId(1)).unwrap();
        assert_eq!(hit.front_as, Some(Asn(1)));
        assert_eq!(hit.techniques(), vec!["ecs", "anycast"]);
        assert!(s.point(ServiceId(0), PrefixId(2)).is_none());
        assert!(s.point(ServiceId(9), PrefixId(0)).is_none());
    }

    #[test]
    fn reverse_lookup_finds_all_cells_of_a_front() {
        let s = Snapshot::from_bytes(tiny()).unwrap();
        assert_eq!(
            s.reverse(Ipv4Addr(0x0A000001)),
            vec![(ServiceId(0), PrefixId(0)), (ServiceId(1), PrefixId(1))]
        );
        assert_eq!(
            s.reverse(Ipv4Addr(0x0A000201)),
            vec![(ServiceId(0), PrefixId(1)), (ServiceId(1), PrefixId(2))]
        );
        assert!(s.reverse(Ipv4Addr(0x01020304)).is_empty());
    }

    #[test]
    fn route_lookup_and_edges() {
        let s = Snapshot::from_bytes(tiny()).unwrap();
        let nbrs: Vec<_> = s.neighbors(Asn(1)).collect();
        assert_eq!(
            nbrs,
            vec![(Asn(0), snap::rel::CUSTOMER), (Asn(2), snap::rel::PEER)]
        );
        assert_eq!(s.edge(Asn(0), Asn(1)), Some(snap::rel::PROVIDER));
        assert_eq!(s.edge(Asn(0), Asn(2)), None);
        assert_eq!(s.neighbors(Asn(9)).count(), 0);
    }

    #[test]
    fn name_and_prefix_resolution() {
        let s = Snapshot::from_bytes(tiny()).unwrap();
        assert_eq!(s.domain_of(ServiceId(1)), Some("b.example"));
        assert_eq!(s.service_named("a.example"), Some(ServiceId(0)));
        assert_eq!(s.service_named("zzz"), None);
        assert_eq!(
            s.find_prefix("10.0.1.0/24".parse().unwrap()),
            Some(PrefixId(0))
        );
        assert_eq!(s.prefix_of_addr(Ipv4Addr(0x0A000042)), Some(PrefixId(1)));
        assert_eq!(s.prefix_of_addr(Ipv4Addr(0x7F000001)), None);
        assert_eq!(s.prefix_owner(PrefixId(2)), Some(Asn(2)));
        assert_eq!(
            s.prefix_net(PrefixId(1)).map(|n| n.to_string()),
            Some("10.0.0.0/24".into())
        );
    }

    #[test]
    fn cells_of_iterates_one_service_run() {
        let s = Snapshot::from_bytes(tiny()).unwrap();
        let cells: Vec<_> = s.cells_of(ServiceId(1)).collect();
        assert_eq!(
            cells,
            vec![
                (PrefixId(1), Ipv4Addr(0x0A000001)),
                (PrefixId(2), Ipv4Addr(0x0A000201)),
            ]
        );
        assert_eq!(s.cells_of(ServiceId(7)).count(), 0);
        assert_eq!(
            s.cell(2),
            Some((ServiceId(1), PrefixId(1), Ipv4Addr(0x0A000001)))
        );
        assert_eq!(s.cell(9), None);
    }

    #[test]
    fn missing_section_is_rejected() {
        let mut w = SnapWriter::new();
        w.section_u64(section::META, &[0; snap::META_FIELDS]);
        assert!(matches!(
            Snapshot::from_bytes(w.finish()),
            Err(SnapError::MissingSection { .. })
        ));
    }

    #[test]
    fn inconsistent_counts_are_rejected() {
        // Same sections as tiny() but META claims 5 cells.
        let good = tiny();
        let mut w = SnapWriter::new();
        w.section_u64(section::META, &[42, 3, 3, 2, 5, 4, 2]);
        let dir = snap::parse_dir(&good).unwrap();
        for e in dir.iter().skip(1) {
            let payload = &good[e.offset as usize..(e.offset + e.len) as usize];
            w.section_u8(e.id, payload); // byte-count mismatch vs u32 counts
        }
        assert!(Snapshot::from_bytes(w.finish()).is_err());
    }

    #[test]
    fn corrupted_byte_is_rejected() {
        let good = tiny();
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0xFF;
        assert!(Snapshot::from_bytes(bad).is_err());
    }

    #[test]
    fn duplicated_reverse_entry_is_rejected() {
        // Both cells of front 0x0A000001 point at cell 0: the addresses
        // stay sorted, but cell 2 is lost and cell 0 would answer twice.
        assert!(matches!(
            Snapshot::from_bytes(tiny_with_rev(&[0, 0, 1, 3])),
            Err(SnapError::Malformed { .. })
        ));
    }

    #[test]
    fn descending_cells_within_an_address_run_are_rejected() {
        assert!(matches!(
            Snapshot::from_bytes(tiny_with_rev(&[2, 0, 1, 3])),
            Err(SnapError::Malformed { .. })
        ));
    }

    /// A consistent snapshot with one AS and no routes whose cells are
    /// `runs`: one slice of ⟨prefix, address⟩ per service, prefixes
    /// ascending. The reverse index is derived the way the writer does:
    /// cells ordered by ⟨address, index⟩.
    fn cells_snapshot(runs: &[Vec<(u32, u32)>]) -> Vec<u8> {
        let names: Vec<String> = (0..runs.len()).map(|k| format!("s{k}.example")).collect();
        let mut dom_off = vec![0u32];
        let mut dom_bytes = Vec::new();
        for name in &names {
            dom_bytes.extend_from_slice(name.as_bytes());
            dom_bytes.push(0);
            dom_off.push(dom_bytes.len() as u32);
        }
        let mut dom_sorted: Vec<u32> = (0..runs.len() as u32).collect();
        dom_sorted.sort_by(|a, b| names[*a as usize].cmp(&names[*b as usize]));
        let cells: Vec<(u32, u32)> = runs.iter().flatten().copied().collect();
        let n_prefixes = cells.iter().map(|c| c.0 + 1).max().unwrap_or(0);
        let mut svc_off = vec![0u64];
        for run in runs {
            svc_off.push(svc_off.last().unwrap() + run.len() as u64);
        }
        let addrs: Vec<u32> = cells.iter().map(|c| c.1).collect();
        let mut rev: Vec<u32> = (0..cells.len() as u32).collect();
        rev.sort_by_key(|&i| (addrs[i as usize], i));
        let mut fronts = addrs.clone();
        fronts.sort_unstable();
        fronts.dedup();

        let mut w = SnapWriter::new();
        w.section_u64(
            section::META,
            &[
                1,
                1,
                n_prefixes as u64,
                runs.len() as u64,
                cells.len() as u64,
                0,
                fronts.len() as u64,
            ],
        );
        w.section_u32(section::DOM_OFF, &dom_off);
        w.section_u8(section::DOM_BYTES, &dom_bytes);
        w.section_u32(section::DOM_SORTED, &dom_sorted);
        let bases: Vec<u32> = (0..n_prefixes).map(|p| 0x0A00_0000 + (p << 8)).collect();
        w.section_u32(section::PFX_BASE, &bases);
        w.section_u32(section::PFX_OWNER, &vec![0; n_prefixes as usize]);
        w.section_u32(section::PFX_SORTED, &(0..n_prefixes).collect::<Vec<_>>());
        w.section_u64(section::CELL_SVC_OFF, &svc_off);
        w.section_u32(
            section::CELL_PREFIX,
            &cells.iter().map(|c| c.0).collect::<Vec<_>>(),
        );
        w.section_u32(section::CELL_ADDR, &addrs);
        w.section_u8(section::CELL_BITS, &vec![claim::ECS; cells.len()]);
        w.section_u32(section::CELL_REV, &rev);
        w.section_u32(section::FRONT_ADDR, &fronts);
        w.section_u32(section::FRONT_OWNER, &vec![0; fronts.len()]);
        w.section_u64(section::ROUTE_OFF, &[0, 0]);
        w.section_u32(section::ROUTE_NBR, &[]);
        w.section_u8(section::ROUTE_KIND, &[]);
        w.finish()
    }

    /// Every distinct cell address, its neighbours, and the ends of the
    /// address space.
    fn probe_addrs(s: &Snapshot) -> Vec<u32> {
        let mut probes = vec![0, 1, u32::MAX - 1, u32::MAX];
        for i in 0..s.n_cells() {
            let a = s.u32_in(s.cell_addr, i);
            probes.extend([a, a.wrapping_sub(1), a.wrapping_add(1)]);
        }
        probes.sort_unstable();
        probes.dedup();
        probes
    }

    #[test]
    fn reverse_matches_the_reference_across_service_boundaries() {
        const A: u32 = 0x0A00_0001;
        const B: u32 = 0x0A00_0102;
        // A spans the first and the last service, with empty services
        // between; u32::MAX takes the unbounded end of the run.
        let runs = vec![
            vec![(0, A), (1, B), (2, A)],
            vec![],
            vec![],
            vec![(1, u32::MAX), (3, A)],
            vec![],
            vec![(0, B), (2, u32::MAX)],
            vec![(0, u32::MAX), (1, A), (3, B)],
        ];
        let s = Snapshot::from_bytes(cells_snapshot(&runs)).unwrap();
        assert_eq!(
            s.reverse(Ipv4Addr(A)),
            vec![
                (ServiceId(0), PrefixId(0)),
                (ServiceId(0), PrefixId(2)),
                (ServiceId(3), PrefixId(3)),
                (ServiceId(6), PrefixId(1)),
            ]
        );
        assert_eq!(
            s.reverse(Ipv4Addr(u32::MAX)),
            vec![
                (ServiceId(3), PrefixId(1)),
                (ServiceId(5), PrefixId(2)),
                (ServiceId(6), PrefixId(0)),
            ]
        );
        for a in probe_addrs(&s) {
            assert_eq!(
                s.reverse(Ipv4Addr(a)),
                s.reverse_reference(Ipv4Addr(a)),
                "{a:#x}"
            );
        }
    }

    #[test]
    fn reverse_matches_the_reference_over_many_sparse_services() {
        // 400 services, most of them empty, over a handful of addresses:
        // the cursor must gallop across long stretches of empty runs.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let addrs = [0, 7, 0x0A00_0001, 0xC000_0201, u32::MAX];
        let runs: Vec<Vec<(u32, u32)>> = (0..400)
            .map(|_| {
                if next() % 5 != 0 {
                    return Vec::new();
                }
                let mut run = Vec::new();
                for p in 0..40 {
                    if next() % 3 == 0 {
                        run.push((p, addrs[(next() % addrs.len() as u64) as usize]));
                    }
                }
                run
            })
            .collect();
        let s = Snapshot::from_bytes(cells_snapshot(&runs)).unwrap();
        assert!(s.n_cells() > 100);
        for a in probe_addrs(&s) {
            let got = s.reverse(Ipv4Addr(a));
            assert_eq!(got, s.reverse_reference(Ipv4Addr(a)), "{a:#x}");
            assert!(got.windows(2).all(|w| w[0] < w[1]), "{a:#x} out of order");
        }
    }
}

//! The map snapshot wire format: sectioned, checksummed, mmap-friendly.
//!
//! A snapshot is the serving-layer artifact of the paper's end goal — "a
//! continuously updated map of the Internet" that others can *query*, not
//! a one-shot batch output. The format is a single binary file laid out so
//! a reader can answer point/reverse/route lookups with offset arithmetic
//! and binary search directly over the file bytes, without deserializing
//! anything into owned structures:
//!
//! * every integer is **little-endian** and fixed-width;
//! * every section starts on an **8-byte boundary** (zero-padded), so the
//!   file can be memory-mapped and each section viewed as a typed column;
//! * columns are **sorted** (cells by `(service, prefix)`, front-ends by
//!   address, adjacency by neighbor ASN), so lookups are binary searches;
//! * a **whole-file checksum** (four lane-parallel 64-bit word hashes
//!   folded FNV-style, with the checksum field read as zero; see
//!   [`checksum`]) makes any single corrupted byte a hard open-time error.
//!
//! Layout (see DESIGN.md §14 for the full specification):
//!
//! ```text
//! offset  0  magic    [u8; 8]  = "ITMSNAP\0"
//! offset  8  version  u32      = 2
//! offset 12  n_sections u32
//! offset 16  checksum u64      ([`checksum`] over the file, bytes 16..24 zeroed)
//! offset 24  file_len u64
//! offset 32  directory: n_sections × 32-byte entries
//!            { id u32, reserved u32 = 0, offset u64, len u64, count u64 }
//! then       section payloads, each 8-byte aligned, zero-padded between
//! ```
//!
//! `len` is the payload byte length *excluding* padding; `count` is the
//! element count (`len / elem_size` for fixed-width columns). Versioning
//! rule: any layout or semantic change bumps [`VERSION`]; readers reject
//! files whose version they do not understand, never guess.
//!
//! This module owns only the *encoding*: constants, the writer that
//! assembles header + directory + payloads, the directory parser, and the
//! checksum. What goes *into* the sections is the snapshot writer's
//! business (`itm-core`); how they are queried is the reader's
//! (`itm-serve`). Keeping the encoding here lets the serving crate depend
//! on nothing but `itm-types`.

use std::fmt;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"ITMSNAP\0";

/// Current snapshot schema version. Bump on any layout or semantic change.
///
/// Version 2 changed only the [`checksum`] function (version 1 used a
/// byte-serial FNV-1a 64); every section byte is the same as in version 1.
pub const VERSION: u32 = 2;

/// Byte size of one directory entry.
pub const DIR_ENTRY_SIZE: usize = 32;

/// Byte size of the fixed header preceding the directory.
pub const HEADER_SIZE: usize = 32;

/// Section ids. Ids are stable across versions; new sections take new ids.
pub mod section {
    /// `u64 × 7`: seed, n_ases, n_prefixes, n_services, n_cells,
    /// n_route_entries, n_fronts.
    pub const META: u32 = 1;
    /// `u32[n_services + 1]`: byte offsets into [`DOM_BYTES`] delimiting
    /// each service's domain name (entry `s` to `s + 1`).
    pub const DOM_OFF: u32 = 2;
    /// UTF-8 concatenation of all domain names, in service-id order.
    pub const DOM_BYTES: u32 = 3;
    /// `u32[n_services]`: permutation of service ids ordering domains
    /// lexicographically (the binary-search index for name lookup).
    pub const DOM_SORTED: u32 = 4;
    /// `u32[n_prefixes]`: base address of each /24, in prefix-id order.
    pub const PFX_BASE: u32 = 5;
    /// `u32[n_prefixes]`: owner ASN of each prefix, in prefix-id order.
    pub const PFX_OWNER: u32 = 6;
    /// `u32[n_prefixes]`: permutation of prefix ids ordering bases
    /// ascending (the binary-search index for net → id lookup).
    pub const PFX_SORTED: u32 = 7;
    /// `u64[n_services + 1]`: cell-index offsets delimiting each
    /// service's run in the cell columns (entry `s` to `s + 1`).
    pub const CELL_SVC_OFF: u32 = 8;
    /// `u32[n_cells]`: the prefix id of each mapping cell, grouped by
    /// service (via [`CELL_SVC_OFF`]) and ascending within a service.
    pub const CELL_PREFIX: u32 = 9;
    /// `u32[n_cells]`: the serving front-end address of each cell.
    pub const CELL_ADDR: u32 = 10;
    /// `u8[n_cells]`: the per-cell technique claim bitmap (see
    /// [`claim`]), aligned with the cell columns.
    pub const CELL_BITS: u32 = 11;
    /// `u32[n_cells]`: permutation of global cell indices ordered by
    /// `(serving address, cell index)` — the reverse-lookup index.
    pub const CELL_REV: u32 = 12;
    /// `u32[n_fronts]`: every distinct serving address the map knows
    /// (mapping cells ∪ SNI/ECS footprints), strictly ascending.
    pub const FRONT_ADDR: u32 = 13;
    /// `u32[n_fronts]`: host ASN per front address; `u32::MAX` when the
    /// address resolves to no routed prefix.
    pub const FRONT_OWNER: u32 = 14;
    /// `u64[n_ases + 1]`: adjacency offsets delimiting each AS's run in
    /// the route columns (entry `a` to `a + 1`).
    pub const ROUTE_OFF: u32 = 15;
    /// `u32[n_route_entries]`: neighbor ASN per directed adjacency entry,
    /// ascending within each AS's run.
    pub const ROUTE_NBR: u32 = 16;
    /// `u8[n_route_entries]`: relationship code per adjacency entry (see
    /// [`rel`]), aligned with [`ROUTE_NBR`].
    pub const ROUTE_KIND: u32 = 17;
}

/// Number of `u64` fields in the [`section::META`] payload.
pub const META_FIELDS: usize = 7;

/// On-disk relationship codes for route adjacency entries.
///
/// These encode `NeighborKind` without making the format depend on the
/// topology crate; the writer maps the enum to codes, readers map back.
pub mod rel {
    /// The neighbor is our customer (it pays us).
    pub const CUSTOMER: u8 = 0;
    /// The neighbor is our provider (we pay it).
    pub const PROVIDER: u8 = 1;
    /// Settlement-free peer.
    pub const PEER: u8 = 2;

    /// Human-readable name of a relationship code.
    pub fn name(code: u8) -> Option<&'static str> {
        match code {
            CUSTOMER => Some("customer"),
            PROVIDER => Some("provider"),
            PEER => Some("peer"),
            _ => None,
        }
    }
}

/// On-disk per-cell claim bits: which techniques back a mapping cell.
///
/// These duplicate `itm_core::audit::bits` *by value* — they are the wire
/// format, frozen under [`VERSION`], while the audit constants are free to
/// evolve with the audit. A round-trip test pins the two in sync.
pub mod claim {
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

    /// Technique names for the bits set in `bits`, in bit order.
    pub fn names(bits: u8) -> Vec<&'static str> {
        const TABLE: [(u8, &str); 6] = [
            (CACHE_PROBE, "cache_probe"),
            (ROOT_CRAWL, "root_crawl"),
            (ECS, "ecs"),
            (ANYCAST, "anycast"),
            (TLS_NEAREST, "tls_nearest"),
            (CATALOG_PRIOR, "catalog_prior"),
        ];
        TABLE
            .iter()
            .filter(|(b, _)| bits & b != 0)
            .map(|&(_, n)| n)
            .collect()
    }
}

/// Odd multiplier of the lane step (2^64 divided by the golden ratio).
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Starting value of each of the four checksum lanes.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
/// FNV-1a 64 offset basis and prime, used by the final fold.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One lane step: xor in a word, multiply by an odd constant, xorshift.
/// Each of the three operations is a bijection, so for a fixed lane the
/// result is a bijection of the word, and for a fixed word a bijection
/// of the lane.
#[inline]
fn lane_step(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(LANE_MUL);
    x ^ (x >> 32)
}

/// Feed one 32-byte block to the four lanes, one little-endian word each.
#[inline]
fn absorb(lanes: &mut [u64; 4], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        *lane = lane_step(*lane, u64::from_le_bytes(w));
    }
}

/// One FNV-style fold step: xor in a value, multiply by the FNV prime.
#[inline]
fn fnv_step(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Whole-file checksum, with the checksum field (bytes 16..24) read as
/// zero, so the stored value can live inside the region it covers.
///
/// The file is cut into 32-byte blocks. Word `k` (0..4) of every block
/// goes to lane `k` through [`lane_step`], so the four lanes are
/// independent dependency chains the CPU runs side by side. The bytes
/// after the last whole block are then hashed one at a time, and the
/// four lanes, those tail bytes and the byte length are folded together
/// with FNV-1a 64 steps.
///
/// Every step is a bijection in the value it takes in, with everything
/// else held fixed. A change to any one byte outside 16..24 therefore
/// changes exactly one lane word or one tail byte, every later step
/// carries the difference through, and the checksum changes: the same
/// guarantee byte-serial FNV-1a gives.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    let tail = blocks.remainder();
    if let Some(first) = blocks.next() {
        let mut head = [0u8; 32];
        head.copy_from_slice(first);
        head[16..24].fill(0);
        absorb(&mut lanes, &head);
        for block in blocks {
            absorb(&mut lanes, block);
        }
    }
    let mut h = lanes.iter().fold(FNV_OFFSET, |h, &lane| fnv_step(h, lane));
    let tail_start = bytes.len() - tail.len();
    for (k, &b) in tail.iter().enumerate() {
        let v = if (16..24).contains(&(tail_start + k)) {
            0
        } else {
            b
        };
        h = fnv_step(h, v as u64);
    }
    fnv_step(h, bytes.len() as u64)
}

/// One parsed directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section id (see [`section`]).
    pub id: u32,
    /// Byte offset of the payload from the start of the file.
    pub offset: u64,
    /// Payload byte length, excluding alignment padding.
    pub len: u64,
    /// Element count (`len / elem_size` for fixed-width columns).
    pub count: u64,
}

/// Errors from parsing or validating a snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The file is shorter than the fixed header.
    TooShort {
        /// Actual byte length.
        len: usize,
    },
    /// The magic bytes do not match [`MAGIC`].
    BadMagic,
    /// The schema version is not one this reader understands.
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The header's `file_len` disagrees with the actual byte count.
    LengthMismatch {
        /// Length recorded in the header.
        header: u64,
        /// Actual byte length.
        actual: usize,
    },
    /// The stored checksum does not match the recomputed one.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum recomputed over the file bytes.
        computed: u64,
    },
    /// A directory entry is malformed (out of bounds, misaligned,
    /// duplicated, or its length is inconsistent with its count).
    BadSection {
        /// The offending section id.
        id: u32,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A required section is absent from the directory.
    MissingSection {
        /// The absent section id.
        id: u32,
    },
    /// Section contents failed semantic validation (non-monotone offset
    /// array, invalid UTF-8 in the domain table, …).
    Malformed {
        /// What failed to validate.
        what: &'static str,
    },
    /// An I/O error while reading the snapshot file (carried as text so
    /// this type stays plain data).
    Io {
        /// The rendered I/O error.
        detail: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::TooShort { len } => {
                write!(f, "snapshot too short: {len} bytes < {HEADER_SIZE} header")
            }
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (reader speaks {VERSION}); \
                     rebuild the snapshot with `repro --snapshot`"
                )
            }
            SnapError::LengthMismatch { header, actual } => {
                write!(
                    f,
                    "snapshot length mismatch: header says {header}, file is {actual}"
                )
            }
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x} \
                 (file corrupted or truncated)"
            ),
            SnapError::BadSection { id, reason } => {
                write!(f, "snapshot section {id} is malformed: {reason}")
            }
            SnapError::MissingSection { id } => {
                write!(f, "snapshot is missing required section {id}")
            }
            SnapError::Malformed { what } => write!(f, "snapshot failed validation: {what}"),
            SnapError::Io { detail } => write!(f, "snapshot I/O error: {detail}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Read a little-endian `u32` at `off`, if in bounds.
#[inline]
pub fn read_u32(bytes: &[u8], off: usize) -> Option<u32> {
    let s = bytes.get(off..off.checked_add(4)?)?;
    Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

/// Read a little-endian `u64` at `off`, if in bounds.
#[inline]
pub fn read_u64(bytes: &[u8], off: usize) -> Option<u64> {
    let s = bytes.get(off..off.checked_add(8)?)?;
    Some(u64::from_le_bytes([
        s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
    ]))
}

/// Assembles a snapshot: typed sections are appended, in call order, to
/// one payload buffer (each zero-padded to 8 bytes), and
/// [`SnapWriter::finish`] splices the header and directory in front and
/// stamps the checksum. The writer therefore holds one copy of the data,
/// not a copy per section plus the file. Writing sections in a fixed
/// order makes the output a pure function of the section contents —
/// byte-identical across runs, thread counts, and machines.
#[derive(Debug, Default)]
pub struct SnapWriter {
    /// Section payloads back to back, each padded to 8 bytes.
    payload: Vec<u8>,
    /// `(id, count, payload offset, byte length)` per section.
    dir: Vec<(u32, u64, usize, usize)>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one section's payload via `write`, then pad to 8 bytes.
    fn section(&mut self, id: u32, count: u64, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.payload.len();
        write(&mut self.payload);
        let len = self.payload.len() - start;
        self.payload.resize((self.payload.len() + 7) & !7, 0);
        self.dir.push((id, count, start, len));
    }

    /// Add a raw byte section (`count` = byte length).
    pub fn section_u8(&mut self, id: u32, data: &[u8]) {
        self.section(id, data.len() as u64, |out| out.extend_from_slice(data));
    }

    /// Add a `u32` column section (`count` = element count).
    pub fn section_u32(&mut self, id: u32, data: &[u32]) {
        self.section(id, data.len() as u64, |out| {
            let start = out.len();
            out.resize(start + data.len() * 4, 0);
            for (dst, v) in out[start..].chunks_exact_mut(4).zip(data) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
        });
    }

    /// Add a `u64` column section (`count` = element count).
    pub fn section_u64(&mut self, id: u32, data: &[u64]) {
        self.section(id, data.len() as u64, |out| {
            let start = out.len();
            out.resize(start + data.len() * 8, 0);
            for (dst, v) in out[start..].chunks_exact_mut(8).zip(data) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
        });
    }

    /// Lay out the file and stamp `file_len` and the checksum.
    pub fn finish(self) -> Vec<u8> {
        let n = self.dir.len();
        // Header and directory entries are 32 bytes each, so the first
        // payload starts 8-byte aligned right after the directory.
        let dir_end = HEADER_SIZE + n * DIR_ENTRY_SIZE;
        let file_len = dir_end + self.payload.len();

        let mut head = vec![0u8; dir_end];
        head[..8].copy_from_slice(&MAGIC);
        head[8..12].copy_from_slice(&VERSION.to_le_bytes());
        head[12..16].copy_from_slice(&(n as u32).to_le_bytes());
        // bytes 16..24 (checksum) stay zero until the end.
        head[24..32].copy_from_slice(&(file_len as u64).to_le_bytes());
        for (k, &(id, count, start, len)) in self.dir.iter().enumerate() {
            let e = HEADER_SIZE + k * DIR_ENTRY_SIZE;
            head[e..e + 4].copy_from_slice(&id.to_le_bytes());
            // e+4..e+8: reserved, zero.
            head[e + 8..e + 16].copy_from_slice(&((dir_end + start) as u64).to_le_bytes());
            head[e + 16..e + 24].copy_from_slice(&(len as u64).to_le_bytes());
            head[e + 24..e + 32].copy_from_slice(&count.to_le_bytes());
        }
        let mut out = self.payload;
        out.splice(0..0, head);
        // Return exactly the file: growth slack would outlive the writer.
        out.shrink_to_fit();
        let sum = checksum(&out);
        out[16..24].copy_from_slice(&sum.to_le_bytes());
        out
    }
}

/// Parse and validate the header and directory of a snapshot.
///
/// Checks, in order: length, magic, version, `file_len`, checksum, then
/// each directory entry (in bounds, 8-byte aligned, no duplicate ids).
/// A checksum mismatch is a hard error — a corrupted snapshot must never
/// answer queries.
pub fn parse_dir(bytes: &[u8]) -> Result<Vec<SectionEntry>, SnapError> {
    if bytes.len() < HEADER_SIZE {
        return Err(SnapError::TooShort { len: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = read_u32(bytes, 8).unwrap_or(0);
    if version != VERSION {
        return Err(SnapError::BadVersion { found: version });
    }
    let file_len = read_u64(bytes, 24).unwrap_or(0);
    if file_len != bytes.len() as u64 {
        return Err(SnapError::LengthMismatch {
            header: file_len,
            actual: bytes.len(),
        });
    }
    let stored = read_u64(bytes, 16).unwrap_or(0);
    let computed = checksum(bytes);
    if stored != computed {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    let n = read_u32(bytes, 12).unwrap_or(0) as usize;
    let dir_end = HEADER_SIZE.saturating_add(n.saturating_mul(DIR_ENTRY_SIZE));
    if dir_end > bytes.len() {
        return Err(SnapError::Malformed {
            what: "directory extends past end of file",
        });
    }
    let mut entries = Vec::with_capacity(n);
    let mut seen: Vec<u32> = Vec::with_capacity(n);
    for k in 0..n {
        let e = HEADER_SIZE + k * DIR_ENTRY_SIZE;
        let id = read_u32(bytes, e).unwrap_or(0);
        let offset = read_u64(bytes, e + 8).unwrap_or(0);
        let len = read_u64(bytes, e + 16).unwrap_or(0);
        let count = read_u64(bytes, e + 24).unwrap_or(0);
        if seen.contains(&id) {
            return Err(SnapError::BadSection {
                id,
                reason: "duplicate section id",
            });
        }
        seen.push(id);
        if !offset.is_multiple_of(8) {
            return Err(SnapError::BadSection {
                id,
                reason: "payload offset not 8-byte aligned",
            });
        }
        let end = offset.saturating_add(len);
        if offset < dir_end as u64 || end > bytes.len() as u64 {
            return Err(SnapError::BadSection {
                id,
                reason: "payload out of bounds",
            });
        }
        entries.push(SectionEntry {
            id,
            offset,
            len,
            count,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.section_u64(section::META, &[7, 1, 2, 3, 4, 5, 6]);
        w.section_u32(section::PFX_BASE, &[10, 20, 30]);
        w.section_u8(section::CELL_BITS, &[1, 2, 3, 4, 5]);
        w.finish()
    }

    #[test]
    fn round_trip_header_and_directory() {
        let bytes = tiny();
        assert_eq!(bytes.len() % 8, 0);
        let dir = parse_dir(&bytes).unwrap();
        assert_eq!(dir.len(), 3);
        assert_eq!(dir[0].id, section::META);
        assert_eq!(dir[0].count, META_FIELDS as u64);
        assert_eq!(dir[0].len, (META_FIELDS * 8) as u64);
        assert_eq!(dir[1].count, 3);
        assert_eq!(dir[2].count, 5);
        // Payloads decode back.
        assert_eq!(read_u64(&bytes, dir[0].offset as usize), Some(7));
        assert_eq!(read_u32(&bytes, dir[1].offset as usize + 4), Some(20));
        assert_eq!(bytes[dir[2].offset as usize + 4], 5);
        // Every payload is 8-byte aligned.
        for e in &dir {
            assert_eq!(e.offset % 8, 0);
        }
    }

    #[test]
    fn writer_is_deterministic() {
        assert_eq!(tiny(), tiny());
    }

    #[test]
    fn any_single_byte_corruption_is_rejected() {
        let good = tiny();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x5A;
            assert!(
                parse_dir(&bad).is_err(),
                "corruption at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let good = tiny();
        for cut in [0, 8, HEADER_SIZE - 1, HEADER_SIZE, good.len() - 1] {
            assert!(parse_dir(&good[..cut]).is_err(), "truncation to {cut}");
        }
    }

    #[test]
    fn foreign_version_is_rejected_even_with_valid_checksum() {
        let mut bytes = tiny();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let sum = checksum(&bytes);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(parse_dir(&bytes), Err(SnapError::BadVersion { found: 99 }));
    }

    #[test]
    fn checksum_ignores_its_own_field() {
        let mut a = tiny();
        let sum = checksum(&a);
        a[16..24].copy_from_slice(&[0xFF; 8]);
        assert_eq!(checksum(&a), sum);
    }

    /// A fixed, non-trivial test buffer of `len` bytes.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn checksum_known_answers() {
        // Pinned outputs: a change to `checksum` changes the format, so it
        // must come with a `VERSION` bump and new values here. 256 bytes is
        // whole 32-byte blocks only; 77 bytes ends in a 13-byte tail.
        assert_eq!(checksum(&pattern(256)), 0x2c212b8cad0ee41a);
        assert_eq!(checksum(&pattern(77)), 0x69ffc137b1d0a7f2);
        // Short inputs are all tail, and still skip bytes 16..24.
        assert_eq!(
            checksum(&pattern(20)),
            checksum(&[&pattern(16)[..], &[0; 4]].concat())
        );
    }

    #[test]
    fn version_one_files_are_rejected() {
        let mut bytes = tiny();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let sum = checksum(&bytes);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(parse_dir(&bytes), Err(SnapError::BadVersion { found: 1 }));
        let msg = SnapError::BadVersion { found: 1 }.to_string();
        assert!(msg.contains("repro --snapshot"), "{msg}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn checksum_sees_every_byte_but_its_own_field(
            buf in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=300),
            mask in 1u8..=255,
        ) {
            let sum = checksum(&buf);
            for i in 0..buf.len() {
                let mut flipped = buf.clone();
                flipped[i] ^= mask;
                let own_field = (16..24).contains(&i);
                proptest::prop_assert!(
                    (checksum(&flipped) == sum) == own_field,
                    "flipping byte {} of {} (own field: {})",
                    i,
                    buf.len(),
                    own_field
                );
            }
        }
    }

    #[test]
    fn claim_names_and_rel_names() {
        assert_eq!(claim::names(0), Vec::<&str>::new());
        assert_eq!(
            claim::names(claim::ECS | claim::CATALOG_PRIOR),
            vec!["ecs", "catalog_prior"]
        );
        assert_eq!(rel::name(rel::PEER), Some("peer"));
        assert_eq!(rel::name(9), None);
    }

    #[test]
    fn empty_file_and_bad_magic() {
        assert!(matches!(parse_dir(&[]), Err(SnapError::TooShort { .. })));
        let mut bytes = tiny();
        bytes[0] = b'X';
        assert!(parse_dir(&bytes).is_err());
    }
}

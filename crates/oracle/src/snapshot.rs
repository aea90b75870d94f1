//! Versioned binary snapshot format for [`Oracle`] — compute once, serve
//! forever.
//!
//! No external dependencies (the build is offline): a small hand-rolled
//! little-endian layout built on FNV-1a 64 checksums. Every writer
//! produces the blocked v2 format below: [`Oracle::save`] and
//! [`Oracle::to_bytes`] with [`V2Config::default`] (64-row blocks,
//! successor plane on disk), [`Oracle::save_v2`] with any [`V2Config`].
//!
//! ## Format v2 — blocked
//!
//! The arenas are cut into fixed-size blocks of whole rows, each with its
//! own checksum, indexed from the tail of the file so a reader can
//! validate the header + index eagerly and page blocks lazily (the
//! [`PagedOracle`](crate::PagedOracle) backend) or load every block in
//! turn ([`Oracle::load`]). Written front-to-back with no seeks, so
//! [`Oracle::save_v2_to`] streams to any `Write`:
//!
//! ```text
//! offset  size      field
//! 0       8         magic  b"CGSTORCL"
//! 8       2         format version (u16 LE) = 2
//! 10      1         weight-type tag (PortableWeight::TAG)
//! 11      1         flags: bit0 = successor plane on disk,
//!                          bit1 = graph section on disk (≥ one set)
//! 12      8         n (u64 LE)
//! 20      4         block_rows (u32 LE): rows per block
//! 24      8         FNV-1a 64 of header bytes 0..24
//! 32      ...       B dist blocks, block b = rows [b·br, min(n,(b+1)·br))
//!                   of the row-major distance arena, 8 bytes per weight
//! ..      ...       B successor blocks (flag bit0): same row partition of
//!                   the target-major plane, u32 LE per entry
//! ..      ...       graph section (flag bit1): u8 directed, u64 m, then
//!                   m × (u32 from, u32 to, 8-byte weight)
//! ..      E·24      index: one (offset u64, len u64, fnv u64) entry per
//!                   dist block, then per successor block, then the graph
//!                   section — ranges must tile [32, index) exactly
//! end-32  32        footer: index offset u64, index len u64, index fnv
//!                   u64, FNV-1a 64 of the footer's first 24 bytes
//! ```
//!
//! The successor plane is optional on disk: with flag bit0 clear the
//! graph section must be present, and readers re-derive each target's
//! successor column on demand via the reverse-BFS derivation (counted by
//! [`successor_derivations`](crate::successor_derivations)). Paging
//! semantics: [`PagedOracle::open`](crate::PagedOracle::open) validates
//! header, footer and index up front, then reads a block only when a
//! query touches it, verifying the block checksum on first touch
//! ([`SnapshotError::BlockCorrupt`] names the failing index entry) and
//! keeping a byte-budgeted LRU resident set.
//!
//! ## Loading
//!
//! [`Oracle::load`] (over the open `File`) and [`Oracle::from_bytes`]
//! (over the bytes in memory) run one reader. It validates the header,
//! footer and index first, and allocates the arenas only once the index
//! has proved their size. It then takes each plane's blocks in groups of
//! four and reads a group in lockstep 64 KiB stripes, one per block. The
//! four block checksums fold side by side, one byte of each per step, and
//! every stripe decodes straight into its place in the arenas. A load
//! therefore peaks at the arenas (n²·12 bytes for 8-byte weights) plus
//! four stripes, never a block buffer or the file image beside them.
//!
//! The errors are those of reading one block at a time: a group's blocks
//! are judged in file order, and for each a short read comes first, then
//! a checksum mismatch, then a payload that does not decode. Then come the
//! diagonal, the graph section and the cross-arena invariants, whose two
//! sweeps split over the host's cores from n = 512 on, unless the caller
//! holds them to its own thread with [`Oracle::load_on`] and
//! [`Cores::Caller`].
//! [`PagedOracle::open`](crate::PagedOracle::open) runs the same header,
//! footer and index reader and the same block decoders.
//!
//! A load reads through one file handle from start to end: a file
//! atomically renamed over the path meanwhile leaves it reading the old,
//! consistent file. A rewrite in place cannot mix two snapshots, because
//! every block must match the index read at the start; the load fails
//! typed instead (a block checksum mismatch or a short read).
//!
//! ## Durability
//!
//! Every save writes a same-directory temp file, fsyncs and atomically
//! renames it over the target, so a concurrent reader (the serve-side
//! snapshot watcher) can never observe a half-written file.
//!
//! Loading is strictly validated and never panics on malformed input:
//! truncation, bad magic, unknown version, weight-type mismatch, checksum
//! failure and out-of-range successor ids all surface as [`SnapshotError`].

use crate::format_v2::{read_v2, V2Config};
use crate::oracle::{Cores, Oracle, NO_SUCC};
use crate::parallel::par_plane;
use congest_graph::{NodeId, Weight, F64};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes identifying an oracle snapshot.
pub const MAGIC: &[u8; 8] = b"CGSTORCL";
/// The blocked, out-of-core (v2) snapshot format version: the only one
/// this build writes or reads.
pub const VERSION_V2: u16 = 2;

/// A weight type with a canonical, portable 8-byte encoding, snapshottable
/// into the binary format.
pub trait PortableWeight: Weight {
    /// One-byte tag identifying the weight type in the snapshot header, so
    /// a `u64` snapshot cannot be silently decoded as `F64`.
    const TAG: u8;

    /// Canonical little-endian 8-byte encoding.
    fn encode(self) -> [u8; 8];

    /// Inverse of [`encode`](PortableWeight::encode); `None` when the bytes
    /// are not a valid weight (e.g. NaN for floats).
    fn decode(bytes: [u8; 8]) -> Option<Self>;
}

impl PortableWeight for u64 {
    const TAG: u8 = 1;

    fn encode(self) -> [u8; 8] {
        self.to_le_bytes()
    }

    fn decode(bytes: [u8; 8]) -> Option<Self> {
        Some(u64::from_le_bytes(bytes))
    }
}

impl PortableWeight for u32 {
    const TAG: u8 = 2;

    fn encode(self) -> [u8; 8] {
        u64::from(self).to_le_bytes()
    }

    fn decode(bytes: [u8; 8]) -> Option<Self> {
        u32::try_from(u64::from_le_bytes(bytes)).ok()
    }
}

impl PortableWeight for F64 {
    const TAG: u8 = 3;

    fn encode(self) -> [u8; 8] {
        self.get().to_bits().to_le_bytes()
    }

    fn decode(bytes: [u8; 8]) -> Option<Self> {
        let v = f64::from_bits(u64::from_le_bytes(bytes));
        (!v.is_nan() && v >= 0.0).then(|| F64::new(v))
    }
}

/// Why a snapshot failed to load (or save).
#[derive(Debug)]
pub enum SnapshotError {
    /// Fewer bytes than the header and footer require.
    Truncated {
        /// Bytes the snapshot should contain.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The leading magic bytes are not [`MAGIC`].
    BadMagic,
    /// The format version is not [`VERSION_V2`], the only one this build
    /// reads.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The snapshot was written with a different weight type.
    WeightTypeMismatch {
        /// Tag found in the header.
        found: u8,
        /// Tag of the weight type being loaded.
        expected: u8,
    },
    /// The header, index or footer checksum does not match its bytes.
    ChecksumMismatch,
    /// A single v2 block failed validation — its checksum does not match
    /// or its payload does not decode. `block` is the position of the
    /// failing entry in the snapshot's index (dist blocks first, then
    /// successor blocks, then the graph section).
    BlockCorrupt {
        /// Index-entry position of the failing block.
        block: u32,
        /// What went wrong with it.
        what: &'static str,
    },
    /// Structurally invalid content despite a valid checksum.
    Corrupt(&'static str),
    /// Filesystem failure while reading or writing.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { expected, got } => {
                write!(f, "snapshot truncated: expected {expected} bytes, got {got}")
            }
            SnapshotError::BadMagic => write!(f, "not an oracle snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found} (this build reads {VERSION_V2})")
            }
            SnapshotError::WeightTypeMismatch { found, expected } => {
                write!(f, "snapshot weight tag {found} does not match expected {expected}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::BlockCorrupt { block, what } => {
                write!(f, "snapshot block {block} corrupt: {what}")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Checks that every successor chain in target `v`'s column reaches `v`
/// (no cycles, no dead ends). Chains are memoized, so the whole column is
/// O(n): each node is walked at most once across all starting points.
fn succ_chains_terminate(v: usize, col: &[NodeId]) -> bool {
    let n = col.len();
    /// Per-node memo: unknown / on the current walk / proven to reach `v`.
    #[derive(Copy, Clone, PartialEq)]
    enum Mark {
        Unknown,
        InProgress,
        Ok,
    }
    let mut mark = vec![Mark::Unknown; n];
    mark[v] = Mark::Ok;
    let mut walk = Vec::new();
    for start in 0..n {
        if mark[start] != Mark::Unknown || col[start] == NO_SUCC {
            continue;
        }
        walk.clear();
        let mut cur = start;
        loop {
            match mark[cur] {
                Mark::Ok => break,
                Mark::InProgress => return false, // cycle
                Mark::Unknown => {}
            }
            let nxt = col[cur];
            if nxt == NO_SUCC {
                // Dead end before reaching `v` (cross-invariant already
                // rules this out for consistent snapshots, but stay safe).
                return false;
            }
            mark[cur] = Mark::InProgress;
            walk.push(cur);
            cur = nxt as usize;
        }
        for &u in &walk {
            mark[u] = Mark::Ok;
        }
    }
    true
}

/// Side of the square tiles [`check_plane`]'s cross-check walks: the
/// row-major `dist` is read down its columns there, and a 64×64 tile of it
/// (32 KiB at 8-byte weights) stays in L1 while the 64 target rows of the
/// plane run across it.
const TILE: usize = 64;

/// Cross-arena invariants shared by the snapshot loader and
/// [`Oracle::from_dist`]'s supplied-plane path: a successor exists iff the
/// pair is distinct and reachable, and every successor chain terminates at
/// its target. Returns the first violated invariant's description: a
/// mismatch anywhere is reported before any chain failure.
///
/// Both passes split their targets over `cores` as [`par_plane`] says:
/// with [`Cores::All`], over the host's cores from n = 512 on, and on the
/// calling thread below it.
pub(crate) fn check_plane<W: Weight>(
    n: usize,
    dist: &[W],
    succ: &[NodeId],
    cores: Cores,
) -> Result<(), &'static str> {
    let mut bands: Vec<&[NodeId]> = succ.chunks(TILE * n.max(1)).collect();
    let bands_ok = par_plane(n, cores, &mut bands, |b, band| {
        (0..n).step_by(TILE).all(|u0| {
            let u1 = (u0 + TILE).min(n);
            band.chunks(n).enumerate().all(|(dv, row)| {
                let v = b * TILE + dv;
                row[u0..u1]
                    .iter()
                    .zip(u0..)
                    .all(|(&s, u)| (s != NO_SUCC) == (u != v && !dist[u * n + v].is_inf()))
            })
        })
    });
    if bands_ok.contains(&false) {
        return Err("successor/distance mismatch");
    }
    let mut cols: Vec<&[NodeId]> = succ.chunks(n.max(1)).collect();
    if par_plane(n, cores, &mut cols, |v, col| succ_chains_terminate(v, col)).contains(&false) {
        return Err("successor chain does not reach its target");
    }
    Ok(())
}

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds `bytes` into a running FNV-1a 64 state `h`.
pub(crate) fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64-bit over `bytes`.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// Blocks whose checksums are folded side by side. One block's FNV-1a is
/// a serial chain of multiplies (about 1.6 ns a byte); four independent
/// chains stepped together keep four multiplies in flight.
pub(crate) const LANES: usize = 4;

/// Folds lane `k`'s bytes into the running FNV-1a 64 state `h[k]` for all
/// lanes at once, one byte of each per step: every state ends where
/// [`fnv1a_update`] over that lane alone would leave it. Lanes may differ
/// in length, and an empty lane keeps its state.
pub(crate) fn fnv1a_lanes(h: &mut [u64; LANES], lanes: [&[u8]; LANES]) {
    // Lockstep over the prefix every non-empty lane has. An empty lane (a
    // group of fewer than LANES blocks, or a short block that has ended)
    // rides along on a donor lane's bytes, and its state is thrown away.
    let common = lanes.iter().map(|l| l.len()).filter(|&len| len > 0).min().unwrap_or(0);
    if common > 0 {
        let donor = lanes.iter().find(|l| !l.is_empty()).expect("common > 0: a lane has bytes");
        let [a, b, c, d] =
            lanes.map(|l| if l.is_empty() { &donor[..common] } else { &l[..common] });
        let [mut s0, mut s1, mut s2, mut s3] = *h;
        for (((&x0, &x1), &x2), &x3) in a.iter().zip(b).zip(c).zip(d) {
            s0 = (s0 ^ u64::from(x0)).wrapping_mul(FNV_PRIME);
            s1 = (s1 ^ u64::from(x1)).wrapping_mul(FNV_PRIME);
            s2 = (s2 ^ u64::from(x2)).wrapping_mul(FNV_PRIME);
            s3 = (s3 ^ u64::from(x3)).wrapping_mul(FNV_PRIME);
        }
        for ((hk, lane), sk) in h.iter_mut().zip(lanes).zip([s0, s1, s2, s3]) {
            if !lane.is_empty() {
                *hk = sk;
            }
        }
    }
    for (hk, lane) in h.iter_mut().zip(lanes) {
        if lane.len() > common {
            *hk = fnv1a_update(*hk, &lane[common..]);
        }
    }
}

/// Atomically replaces `path`: streams the snapshot into a same-directory
/// temp file, fsyncs it, then renames it over the target, so a concurrent
/// reader (the serve-side watcher) sees either the old complete file or
/// the new complete file — never a partial write. The temp file is
/// removed on failure.
pub(crate) fn atomic_write(
    path: &Path,
    write_fn: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    // Unique per (process, call): concurrent savers in one process — or
    // two processes saving into one directory — never share a temp file.
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or(SnapshotError::Corrupt("snapshot path has no file name"))?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let file = std::fs::File::create(&tmp).map_err(SnapshotError::Io)?;
        let mut w = std::io::BufWriter::new(file);
        write_fn(&mut w)?;
        w.flush().map_err(SnapshotError::Io)?;
        // Data must be durable *before* the rename publishes it: a crash
        // between rename and writeback must not leave a torn target.
        w.get_ref().sync_all().map_err(SnapshotError::Io)?;
        std::fs::rename(&tmp, path).map_err(SnapshotError::Io)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    } else {
        // Best effort: persist the directory entry too. Failure here
        // (e.g. an unsyncable filesystem) does not un-publish the data.
        if let Ok(d) = std::fs::File::open(dir) {
            d.sync_all().ok();
        }
    }
    result
}

impl<W: PortableWeight> Oracle<W> {
    /// Serializes the oracle into the blocked v2 snapshot format with
    /// [`V2Config::default`]: the bytes [`save`](Oracle::save) writes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_v2(&V2Config::default())
            .expect("every oracle has a node, and the default config embeds no graph")
    }

    /// Deserializes a v2 snapshot eagerly, in stripes (see the
    /// module's "Loading" docs): every block checksum is verified, and
    /// when the successor plane was dropped on disk it is re-derived from
    /// the embedded graph (one
    /// [`successor_derivations`](crate::successor_derivations) tick).
    ///
    /// # Errors
    /// Returns a [`SnapshotError`] (never panics) on truncated, corrupted,
    /// version-mismatched or wrong-weight-type input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        read_v2(std::io::Cursor::new(bytes), Cores::All)
    }

    /// Writes the v2 snapshot [`to_bytes`](Oracle::to_bytes) describes to
    /// `path` **atomically**: the bytes are streamed into a same-directory
    /// temp file, fsynced, then renamed over the target. A concurrent
    /// reader — in particular the serve watcher, which fingerprints and
    /// reloads on change — can never observe a half-written snapshot.
    ///
    /// # Errors
    /// Propagates filesystem failures as [`SnapshotError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        self.save_v2(path, &V2Config::default())
    }

    /// Reads the v2 snapshot at `path` with the same reader as
    /// [`from_bytes`](Oracle::from_bytes), streaming it stripe by stripe
    /// from the open file instead of reading the whole image first. Its
    /// plane checks take every core from n = 512 on: [`Cores::All`].
    ///
    /// # Errors
    /// Propagates filesystem failures (opening a directory fails at its
    /// first read) and every [`from_bytes`](Oracle::from_bytes)
    /// validation error.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::load_on(path, Cores::All)
    }

    /// [`load`](Oracle::load) with its plane checks held to `cores`.
    /// Pass [`Cores::Caller`] when other work needs the remaining cores
    /// while this load runs.
    ///
    /// # Errors
    /// As [`load`](Oracle::load).
    pub fn load_on(path: impl AsRef<Path>, cores: Cores) -> Result<Self, SnapshotError> {
        read_v2(std::fs::File::open(path).map_err(SnapshotError::Io)?, cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use congest_graph::seq::apsp_dijkstra;

    fn sample_oracle() -> Oracle<u64> {
        let g = gnm_connected(12, 24, true, WeightDist::Uniform(0, 9), 9);
        Oracle::from_dist(&g, apsp_dijkstra(&g))
    }

    #[test]
    fn f64_round_trip() {
        let g = gnm_connected(8, 16, false, WeightDist::Uniform(1, 5), 4);
        let gf = g.map_weights(|w| F64::new(w as f64 * 0.5));
        let o = Oracle::from_dist(&gf, apsp_dijkstra(&gf));
        assert_eq!(Oracle::<F64>::from_bytes(&o.to_bytes()).unwrap(), o);
    }

    #[test]
    fn version_mismatch_rejected() {
        // A legacy v1 image is refused by its header alone, and so is any
        // version this build does not know.
        for version in [1u16, 99] {
            let mut bytes = sample_oracle().to_bytes();
            bytes[8..10].copy_from_slice(&version.to_le_bytes());
            let err = Oracle::<u64>::from_bytes(&bytes).unwrap_err();
            assert!(
                matches!(err, SnapshotError::UnsupportedVersion { found } if found == version),
                "version {version}: {err:?}"
            );
            assert_eq!(
                err.to_string(),
                format!("unsupported snapshot version {version} (this build reads 2)")
            );
        }
    }

    #[test]
    fn weight_tag_mismatch_rejected() {
        let bytes = sample_oracle().to_bytes();
        assert!(matches!(
            Oracle::<F64>::from_bytes(&bytes).unwrap_err(),
            SnapshotError::WeightTypeMismatch { found: 1, expected: 3 }
        ));
    }

    #[test]
    fn bit_flip_detected() {
        let good = sample_oracle().to_bytes();
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x40;
            match Oracle::<u64>::from_bytes(&bad) {
                // Past the magic and version only a checksum can notice:
                // the header's, a block's, the index's or the footer's.
                Err(SnapshotError::ChecksumMismatch)
                | Err(SnapshotError::BlockCorrupt { what: "checksum mismatch", .. }) => {}
                Err(other) => assert!(byte < 10, "byte {byte}: {other:?}"),
                Ok(_) => panic!("flipping byte {byte} went undetected"),
            }
        }
    }

    #[test]
    fn garbage_rejected() {
        let mut bytes = sample_oracle().to_bytes();
        bytes[..8].copy_from_slice(b"NOTORCL!");
        assert!(matches!(Oracle::<u64>::from_bytes(&bytes).unwrap_err(), SnapshotError::BadMagic));
        // Shorter than a header and footer.
        assert!(matches!(
            Oracle::<u64>::from_bytes(b"short").unwrap_err(),
            SnapshotError::Truncated { expected: 64, got: 5 }
        ));
        // No graph has zero nodes, so neither may a snapshot. Re-seal the
        // header so the node count itself is reached.
        let mut empty = sample_oracle().to_bytes();
        empty[12..20].copy_from_slice(&0u64.to_le_bytes());
        let h = fnv1a(&empty[..24]);
        empty[24..32].copy_from_slice(&h.to_le_bytes());
        assert!(matches!(
            Oracle::<u64>::from_bytes(&empty).unwrap_err(),
            SnapshotError::Corrupt("node count out of range")
        ));
    }

    /// An n = 2 oracle from forged arenas: every cell decodes, but a
    /// cross-arena invariant may be broken.
    fn forged(dist: [u64; 4], succ: [NodeId; 4]) -> Oracle<u64> {
        Oracle::from_parts(2, Box::new(dist), Box::new(succ))
    }

    /// A checksum-valid image of `o` must fail to load with
    /// `Corrupt(what)`.
    fn assert_rejected(o: &Oracle<u64>, what: &str) {
        match Oracle::<u64>::from_bytes(&o.to_bytes()) {
            Err(SnapshotError::Corrupt(got)) => assert_eq!(got, what),
            other => panic!("expected Corrupt({what:?}), got {other:?}"),
        }
    }

    #[test]
    fn nonzero_diagonal_snapshot_rejected() {
        // δ(0,0) = INF: per-cell fields are fine, but the diagonal
        // invariant must be enforced.
        let o = forged([u64::INF, 1, 1, 0], [NO_SUCC, 0, 1, NO_SUCC]);
        assert_rejected(&o, "nonzero diagonal distance");
    }

    #[test]
    fn successor_distance_mismatch_rejected() {
        // δ(0,1) = INF, yet node 0 names a successor toward target 1.
        let o = forged([0, u64::INF, 1, 0], [NO_SUCC, 0, 1, NO_SUCC]);
        assert_rejected(&o, "successor/distance mismatch");
    }

    #[test]
    fn cyclic_successor_snapshot_rejected() {
        // Node 0's successor toward target 1 is node 0 itself: valid per
        // cell, but the path walk would never terminate. Target-major:
        // toward 0: [NO_SUCC, 0]; toward 1: [0 (cycle!), NO_SUCC].
        let o = forged([0, 1, 1, 0], [NO_SUCC, 0, 0, NO_SUCC]);
        assert_rejected(&o, "successor chain does not reach its target");
    }

    #[test]
    fn lane_fold_matches_one_lane_at_a_time() {
        let bytes: Vec<u8> = (0..400u32).map(|i| (i * 37 % 251) as u8).collect();
        // Equal lanes, ragged lanes, empty lanes and all-empty lanes.
        for lens in [[64, 64, 64, 64], [0, 1, 7, 300], [5, 0, 0, 0], [0; 4], [299, 300, 2, 0]] {
            let lanes: [&[u8]; LANES] = std::array::from_fn(|k| &bytes[k..k + lens[k]]);
            let mut h: [u64; LANES] = std::array::from_fn(|k| FNV_OFFSET ^ k as u64);
            let expected: [u64; LANES] = std::array::from_fn(|k| fnv1a_update(h[k], lanes[k]));
            fnv1a_lanes(&mut h, lanes);
            assert_eq!(h, expected, "lane lengths {lens:?}");
        }
    }

    #[test]
    fn save_load_file_round_trip() {
        let o = sample_oracle();
        let path = std::env::temp_dir().join("congest_oracle_snapshot_test.bin");
        o.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let o2 = Oracle::<u64>::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes[8..10], VERSION_V2.to_le_bytes(), "save writes v2");
        assert_eq!(bytes, o.to_bytes());
        assert_eq!(o, o2);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Oracle::<u64>::load("/nonexistent/oracle.snap").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
        assert!(std::error::Error::source(&err).is_some());
        // Opening a directory succeeds on Linux; its first read fails.
        let err = Oracle::<u64>::load(std::env::temp_dir()).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err:?}");
    }
}

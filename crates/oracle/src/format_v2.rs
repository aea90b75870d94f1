//! The blocked v2 snapshot format: the writer, and the one reader that
//! both the eager loader and the lazy [`PagedOracle`](crate::PagedOracle)
//! backend run.
//!
//! See the [`snapshot`](crate::snapshot) module docs for the wire layout.
//! The design constraints, in order:
//!
//! * **Streamable writes** — blocks are emitted front-to-back and the
//!   index lands at the tail, so [`Oracle::save_v2_to`] needs no seeks
//!   and never materializes the n²×12 image. The writer takes a plane's
//!   blocks in groups of four: one pass over the group's arena cells
//!   encodes them in 64 KiB stripes and folds the four checksums side by
//!   side, then the four blocks stream out chunk by chunk. It holds four
//!   stripes, never a block.
//! * **Header + index validation first, blocks after** — a reader proves
//!   the file's *shape* (and that the index is not hostile: entries must
//!   exactly tile the span between header and index) from O(blocks)
//!   bytes, then fetches and checksums blocks: one at a time on demand
//!   when paging, each once in file order when loading eagerly. The eager
//!   reader takes each group of four blocks in lockstep 64 KiB stripes,
//!   folds the four checksums side by side and decodes every stripe
//!   straight into the arenas. It reports a group's failures in file
//!   order, and within a block a checksum mismatch before a decode error:
//!   the error a block-at-a-time reader returns.
//! * **Optional successor plane** — the n²×4 plane is the pure
//!   reconstruction accelerator; dropping it on disk shrinks the file by
//!   a third, and readers re-derive per-target columns from the embedded
//!   graph via the reverse-BFS derivation.

use crate::oracle::{derive_plane, Cores, Oracle, NO_SUCC};
use crate::snapshot::{
    atomic_write, check_plane, fnv1a, fnv1a_lanes, fnv1a_update, PortableWeight, SnapshotError,
    FNV_OFFSET, LANES, MAGIC, VERSION_V2,
};
use congest_graph::{Edge, Graph, NodeId};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// v2 header length: magic, version, weight tag, flags and n (20 bytes),
/// block_rows (4), header FNV (8).
const HEADER_V2_LEN: usize = 32;
/// Footer length: index offset + index len + index FNV + footer FNV.
const FOOTER_LEN: usize = 32;
/// Index entry length: offset + len + FNV, 8 bytes each.
const INDEX_ENTRY_LEN: usize = 24;
/// Flag bit: the target-major successor plane is present on disk.
const FLAG_SUCC: u8 = 1;
/// Flag bit: the graph edge list is present on disk (enables successor
/// re-derivation when the plane is absent).
const FLAG_GRAPH: u8 = 2;
/// Bytes of one block a lane reads, or encodes, per step: the eager
/// reader and the writer hold [`LANES`] such stripes, never a whole block.
/// A multiple of every cell width, so stripes split no cell.
const STRIPE: usize = 64 * 1024;

/// Knobs for writing a v2 snapshot.
#[derive(Copy, Clone, Debug)]
pub struct V2Config<'g, W> {
    /// Distance-matrix rows per block (also successor-plane targets per
    /// block). Small blocks page at finer granularity; large blocks
    /// amortize checksum and read overhead.
    pub block_rows: u32,
    /// Omit the n²×4 successor plane on disk (requires `graph`), cutting
    /// the file by a third; readers re-derive successor columns on
    /// demand, counted by [`successor_derivations`](crate::successor_derivations).
    pub drop_successors: bool,
    /// Embed the graph's edge list so plane-less snapshots can re-derive
    /// successors (and paged readers can derive per-target).
    pub graph: Option<&'g Graph<W>>,
}

impl<W> Default for V2Config<'static, W> {
    fn default() -> Self {
        V2Config { block_rows: 64, drop_successors: false, graph: None }
    }
}

/// Parsed v2 header.
#[derive(Copy, Clone, Debug)]
pub(crate) struct HeaderV2 {
    pub(crate) n: usize,
    pub(crate) block_rows: usize,
    pub(crate) has_succ: bool,
    pub(crate) has_graph: bool,
}

impl HeaderV2 {
    /// Number of row blocks each plane is cut into.
    pub(crate) fn blocks(&self) -> usize {
        self.n.div_ceil(self.block_rows)
    }

    /// Rows covered by block `b` (the last block may be short).
    pub(crate) fn rows_in_block(&self, b: usize) -> usize {
        let start = b * self.block_rows;
        self.block_rows.min(self.n - start)
    }
}

/// One index entry: where a block lives and what it must hash to.
#[derive(Copy, Clone, Debug)]
pub(crate) struct IndexEntry {
    pub(crate) offset: u64,
    pub(crate) len: u64,
    pub(crate) fnv: u64,
}

/// The fully validated index of a v2 file, split into its three
/// sections. Graph entries carry their index position so failures can
/// name the block.
pub(crate) struct LayoutV2 {
    pub(crate) dist: Vec<IndexEntry>,
    pub(crate) succ: Vec<IndexEntry>,
    pub(crate) graph: Option<(u32, IndexEntry)>,
}

/// Validates the fixed 32-byte v2 header.
fn parse_header_v2(
    bytes: &[u8; HEADER_V2_LEN],
    expected_tag: u8,
) -> Result<HeaderV2, SnapshotError> {
    if &bytes[0..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != VERSION_V2 {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    if fnv1a(&bytes[..24]) != u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes")) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    if bytes[10] != expected_tag {
        return Err(SnapshotError::WeightTypeMismatch { found: bytes[10], expected: expected_tag });
    }
    let flags = bytes[11];
    if flags & !(FLAG_SUCC | FLAG_GRAPH) != 0 {
        return Err(SnapshotError::Corrupt("unknown v2 flags"));
    }
    if flags == 0 {
        return Err(SnapshotError::Corrupt("v2 snapshot has neither successors nor graph"));
    }
    let n_raw = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let n = usize::try_from(n_raw)
        .ok()
        .filter(|&n| n >= 1 && n <= u32::MAX as usize / 4)
        .ok_or(SnapshotError::Corrupt("node count out of range"))?;
    let block_rows = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes")) as usize;
    if block_rows == 0 {
        return Err(SnapshotError::Corrupt("block_rows must be at least 1"));
    }
    Ok(HeaderV2 {
        n,
        block_rows,
        has_succ: flags & FLAG_SUCC != 0,
        has_graph: flags & FLAG_GRAPH != 0,
    })
}

/// Validates the 32-byte footer against the file length; returns
/// `(index_offset, index_len, index_fnv)`.
fn parse_footer(file_len: u64, bytes: &[u8; FOOTER_LEN]) -> Result<(u64, u64, u64), SnapshotError> {
    if fnv1a(&bytes[..24]) != u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes")) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let index_offset = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    let index_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let index_fnv = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let end = index_offset
        .checked_add(index_len)
        .ok_or(SnapshotError::Corrupt("index range overflows"))?;
    if index_offset < HEADER_V2_LEN as u64 || end != file_len - FOOTER_LEN as u64 {
        return Err(SnapshotError::Corrupt("index out of range"));
    }
    Ok((index_offset, index_len, index_fnv))
}

/// Validates the index blob: checksum, entry count, and — the hostile-
/// index defense — that the entries exactly tile `[32, index_offset)` in
/// order with the exact per-block payload sizes, so no entry can overlap
/// another, point outside the file, or leave unaccounted gaps.
fn parse_index(
    header: HeaderV2,
    index_bytes: &[u8],
    index_offset: u64,
    index_fnv: u64,
) -> Result<LayoutV2, SnapshotError> {
    if fnv1a(index_bytes) != index_fnv {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let blocks = header.blocks() as u64;
    let entries = blocks * (1 + u64::from(header.has_succ)) + u64::from(header.has_graph);
    if index_bytes.len() as u64 != entries * INDEX_ENTRY_LEN as u64 {
        return Err(SnapshotError::Corrupt("index size mismatch"));
    }
    let mut parsed = index_bytes.chunks_exact(INDEX_ENTRY_LEN).map(|c| IndexEntry {
        offset: u64::from_le_bytes(c[0..8].try_into().expect("8 bytes")),
        len: u64::from_le_bytes(c[8..16].try_into().expect("8 bytes")),
        fnv: u64::from_le_bytes(c[16..24].try_into().expect("8 bytes")),
    });
    let mut cursor = HEADER_V2_LEN as u64;
    let mut take = |expected_len: Option<u64>| -> Result<IndexEntry, SnapshotError> {
        let e = parsed.next().expect("entry count checked above");
        if e.offset != cursor {
            return Err(SnapshotError::Corrupt("index entries do not tile the file"));
        }
        if let Some(len) = expected_len {
            if e.len != len {
                return Err(SnapshotError::Corrupt("index entry length mismatch"));
            }
        }
        cursor = cursor
            .checked_add(e.len)
            .filter(|&end| end <= index_offset)
            .ok_or(SnapshotError::Corrupt("index entry out of range"))?;
        Ok(e)
    };
    let n = header.n as u64;
    let mut dist = Vec::with_capacity(blocks as usize);
    for b in 0..header.blocks() {
        dist.push(take(Some(header.rows_in_block(b) as u64 * n * 8))?);
    }
    let mut succ = Vec::new();
    if header.has_succ {
        succ.reserve(blocks as usize);
        for b in 0..header.blocks() {
            succ.push(take(Some(header.rows_in_block(b) as u64 * n * 4))?);
        }
    }
    let graph = if header.has_graph {
        let pos = (entries - 1) as u32;
        let e = take(None)?;
        if e.len < 9 {
            return Err(SnapshotError::Corrupt("graph section too short"));
        }
        Some((pos, e))
    } else {
        None
    };
    if cursor != index_offset {
        return Err(SnapshotError::Corrupt("index entries do not cover the file"));
    }
    Ok(LayoutV2 { dist, succ, graph })
}

/// Reads and validates a v2 file's header, footer and index from `src`
/// without touching any block: O(blocks) bytes whatever the file size.
/// The one entry point both the eager loader and
/// [`PagedOracle::open`](crate::PagedOracle::open) go through.
pub(crate) fn read_layout<R: Read + Seek>(
    src: &mut R,
    expected_tag: u8,
) -> Result<(HeaderV2, LayoutV2), SnapshotError> {
    let file_len = src.seek(SeekFrom::End(0)).map_err(SnapshotError::Io)?;
    let min = HEADER_V2_LEN + FOOTER_LEN;
    if file_len < min as u64 {
        return Err(SnapshotError::Truncated { expected: min, got: file_len as usize });
    }
    let mut head = [0u8; HEADER_V2_LEN];
    read_exact_at(src, 0, &mut head).map_err(SnapshotError::Io)?;
    let header = parse_header_v2(&head, expected_tag)?;
    let mut foot = [0u8; FOOTER_LEN];
    read_exact_at(src, file_len - FOOTER_LEN as u64, &mut foot).map_err(SnapshotError::Io)?;
    let (ioff, ilen, ifnv) = parse_footer(file_len, &foot)?;
    // `parse_footer` proved the index lies inside the file, so this
    // allocation is bounded by the file's own size.
    let mut ibytes = vec![0u8; ilen as usize];
    read_exact_at(src, ioff, &mut ibytes).map_err(SnapshotError::Io)?;
    let layout = parse_index(header, &ibytes, ioff, ifnv)?;
    Ok((header, layout))
}

/// One positioned read: fills `buf` from `offset`.
pub(crate) fn read_exact_at<R: Read + Seek>(
    src: &mut R,
    offset: u64,
    buf: &mut [u8],
) -> std::io::Result<()> {
    src.seek(SeekFrom::Start(offset))?;
    src.read_exact(buf)
}

/// Checks a block's bytes against its index entry's checksum; `pos`
/// names the entry in the error.
pub(crate) fn check_block(blob: &[u8], e: IndexEntry, pos: u32) -> Result<(), SnapshotError> {
    if fnv1a(blob) != e.fnv {
        return Err(SnapshotError::BlockCorrupt { block: pos, what: "checksum mismatch" });
    }
    Ok(())
}

/// Reads block `e` (index entry `pos`) into `buf`, reusing its
/// allocation, and verifies the block checksum.
pub(crate) fn read_block<R: Read + Seek>(
    src: &mut R,
    e: IndexEntry,
    pos: u32,
    buf: &mut Vec<u8>,
) -> Result<(), SnapshotError> {
    buf.resize(e.len as usize, 0);
    read_exact_at(src, e.offset, buf).map_err(SnapshotError::Io)?;
    check_block(buf, e, pos)
}

/// Decodes dist-block bytes, 8 a weight, into `out` (one cell per 8
/// bytes); `Err` says what is wrong with the block.
pub(crate) fn decode_dist<W>(
    blob: &[u8],
    decode: impl Fn([u8; 8]) -> Option<W>,
    out: &mut [W],
) -> Result<(), &'static str> {
    for (chunk, cell) in blob.chunks_exact(8).zip(out) {
        *cell = decode(chunk.try_into().expect("8-byte chunk")).ok_or("invalid weight encoding")?;
    }
    Ok(())
}

/// Decodes successor-block bytes, 4 an id, into `out`, rejecting any id
/// that names no node of an `n`-node oracle.
pub(crate) fn decode_succ(blob: &[u8], n: usize, out: &mut [NodeId]) -> Result<(), &'static str> {
    // No early exit: the loop stays branch-free and the range check is
    // settled once per call.
    let mut bad = false;
    for (chunk, cell) in blob.chunks_exact(4).zip(out) {
        let s = NodeId::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        bad |= s != NO_SUCC && s as usize >= n;
        *cell = s;
    }
    if bad {
        return Err("successor id out of range");
    }
    Ok(())
}

/// Decodes the (checksum-verified) graph section blob. `entry_pos` names
/// the index entry in errors.
pub(crate) fn parse_graph_section<W: PortableWeight>(
    blob: &[u8],
    n: usize,
    entry_pos: u32,
) -> Result<Graph<W>, SnapshotError> {
    let bad = |what| SnapshotError::BlockCorrupt { block: entry_pos, what };
    if blob.len() < 9 {
        return Err(bad("graph section too short"));
    }
    let directed = match blob[0] {
        0 => false,
        1 => true,
        _ => return Err(bad("invalid directed flag")),
    };
    let m = u64::from_le_bytes(blob[1..9].try_into().expect("8 bytes"));
    let expected = 9u64
        .checked_add(m.checked_mul(16).ok_or(bad("graph size overflows"))?)
        .ok_or(bad("graph size overflows"))?;
    if blob.len() as u64 != expected {
        return Err(bad("graph size mismatch"));
    }
    let mut edges = Vec::with_capacity(m as usize);
    for rec in blob[9..].chunks_exact(16) {
        let from = NodeId::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
        let to = NodeId::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
        if from as usize >= n || to as usize >= n {
            return Err(bad("edge endpoint out of range"));
        }
        let w = W::decode(rec[8..16].try_into().expect("8 bytes"))
            .filter(|w| !w.is_inf())
            .ok_or(bad("invalid edge weight encoding"))?;
        edges.push(Edge { from, to, weight: w });
    }
    Ok(Graph::from_edges(n, directed, edges))
}

/// Reads one plane's blocks — index entries `entries`, the first at index
/// position `first` — into `arena`, where they hold `width`-byte cells
/// back to back. Blocks go in groups of [`LANES`], each read in lockstep
/// stripes through `stripes`: the group's checksums fold side by side and
/// every stripe decodes straight into its block's cells. Failures are
/// reported as a block-at-a-time reader meets them: the group's blocks in
/// file order, and per block a read failure, then a checksum mismatch,
/// then a decode error.
fn read_section<T, R: Read + Seek>(
    src: &mut R,
    entries: &[IndexEntry],
    first: usize,
    arena: &mut [T],
    width: usize,
    decode: impl Fn(&[u8], &mut [T]) -> Result<(), &'static str>,
    stripes: &mut [Vec<u8>; LANES],
) -> Result<(), SnapshotError> {
    let mut rest = arena;
    for (g, group) in entries.chunks(LANES).enumerate() {
        let mut cells: [&mut [T]; LANES] = Default::default();
        for (out, e) in cells.iter_mut().zip(group) {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(e.len as usize / width);
            *out = head;
            rest = tail;
        }
        let mut io: [Option<std::io::Error>; LANES] = Default::default();
        let mut bad: [Option<&'static str>; LANES] = [None; LANES];
        let mut hash = [FNV_OFFSET; LANES];
        let longest = group.iter().map(|e| e.len as usize).max().unwrap_or(0);
        for at in (0..longest).step_by(STRIPE) {
            let mut lens = [0usize; LANES];
            for (k, e) in group.iter().enumerate() {
                let len = (e.len as usize).saturating_sub(at).min(STRIPE);
                if len == 0 || io[k].is_some() {
                    continue;
                }
                match read_exact_at(src, e.offset + at as u64, &mut stripes[k][..len]) {
                    Ok(()) => lens[k] = len,
                    Err(err) => io[k] = Some(err),
                }
            }
            fnv1a_lanes(&mut hash, std::array::from_fn(|k| &stripes[k][..lens[k]]));
            for k in 0..group.len() {
                if lens[k] > 0 && bad[k].is_none() {
                    let out = &mut cells[k][at / width..(at + lens[k]) / width];
                    bad[k] = decode(&stripes[k][..lens[k]], out).err();
                }
            }
        }
        for (k, e) in group.iter().enumerate() {
            let block = (first + g * LANES + k) as u32;
            if let Some(err) = io[k].take() {
                return Err(SnapshotError::Io(err));
            }
            if hash[k] != e.fnv {
                return Err(SnapshotError::BlockCorrupt { block, what: "checksum mismatch" });
            }
            if let Some(what) = bad[k] {
                return Err(SnapshotError::BlockCorrupt { block, what });
            }
        }
    }
    Ok(())
}

/// Eagerly loads a v2 snapshot from `src`, reading every block once, in
/// file order. The arenas are allocated only after [`read_layout`] has
/// proved their size, and the blocks decode straight into them through
/// [`LANES`] stripes of at most 64 KiB (see [`read_section`]), so peak
/// memory is the arenas plus those stripes. The successor plane is
/// re-derived from the embedded graph when it was dropped on disk, and the
/// cross-arena invariants are enforced; both sweeps split over `cores`.
pub(crate) fn read_v2<W: PortableWeight, R: Read + Seek>(
    mut src: R,
    cores: Cores,
) -> Result<Oracle<W>, SnapshotError> {
    let (header, layout) = read_layout(&mut src, W::TAG)?;
    let n = header.n;
    // Dist block 0 is the largest block: whole rows at 8 bytes a cell.
    let stripe = STRIPE.min(layout.dist[0].len as usize);
    let mut stripes: [Vec<u8>; LANES] = std::array::from_fn(|_| vec![0; stripe]);

    let mut dist = vec![W::ZERO; n * n];
    let decode = |blob: &[u8], out: &mut [W]| decode_dist(blob, W::decode, out);
    read_section(&mut src, &layout.dist, 0, &mut dist, 8, decode, &mut stripes)?;
    if (0..n).any(|u| dist[u * n + u] != W::ZERO) {
        return Err(SnapshotError::Corrupt("nonzero diagonal distance"));
    }

    // Every cell is overwritten, so a zeroed (lazily mapped) arena will do.
    let mut succ: Vec<NodeId> = vec![0; if header.has_succ { n * n } else { 0 }];
    let decode = |blob: &[u8], out: &mut [NodeId]| decode_succ(blob, n, out);
    read_section(&mut src, &layout.succ, layout.dist.len(), &mut succ, 4, decode, &mut stripes)?;
    drop(stripes);

    // The graph section is validated (checksum + structure) whenever
    // present, even if the successor plane makes it redundant for this
    // load: "every bit flip in the file is detected" must hold for the
    // whole file, not just the bytes this particular read path consumed.
    let graph: Option<Graph<W>> = match layout.graph {
        Some((pos, e)) => {
            let mut buf = Vec::new();
            read_block(&mut src, e, pos, &mut buf)?;
            Some(parse_graph_section(&buf, n, pos)?)
        }
        None => None,
    };

    let succ: Box<[NodeId]> = if header.has_succ {
        check_plane(n, &dist, &succ, cores).map_err(SnapshotError::Corrupt)?;
        succ.into_boxed_slice()
    } else {
        let g = graph.as_ref().expect("header flags guarantee a graph when successors are absent");
        derive_plane(g, &dist, cores)
            .map_err(|_| SnapshotError::Corrupt("distances inconsistent with embedded graph"))?
    };
    Ok(Oracle::from_parts(n, dist.into_boxed_slice(), succ))
}

/// Encodes `cells` into `out`, `B` bytes a cell, one whole chunk per call.
fn encode_into<T: Copy, const B: usize>(
    cells: &[T],
    enc: impl Fn(T) -> [u8; B],
    out: &mut Vec<u8>,
) {
    out.resize(cells.len() * B, 0);
    for (bytes, &c) in out.chunks_exact_mut(B).zip(cells) {
        bytes.copy_from_slice(&enc(c));
    }
}

/// Streams one plane — `arena` cut into blocks of `block_cells` cells —
/// into `w`, pushing each block's index entry and advancing `offset`. Per
/// group of [`LANES`] blocks, one pass encodes the group's cells stripe by
/// stripe and folds the four checksums side by side; then the blocks
/// stream out, encoded again one chunk at a time. Only `stripes` is held.
fn write_section<T: Copy, const B: usize>(
    w: &mut impl Write,
    arena: &[T],
    block_cells: usize,
    enc: impl Fn(T) -> [u8; B] + Copy,
    stripes: &mut [Vec<u8>; LANES],
    index: &mut Vec<IndexEntry>,
    offset: &mut u64,
) -> Result<(), SnapshotError> {
    let per_stripe = STRIPE / B;
    for group in arena.chunks(LANES * block_cells) {
        let mut blocks: [&[T]; LANES] = [&[]; LANES];
        for (slot, block) in blocks.iter_mut().zip(group.chunks(block_cells)) {
            *slot = block;
        }
        let mut hash = [FNV_OFFSET; LANES];
        for at in (0..blocks[0].len()).step_by(per_stripe) {
            for (stripe, block) in stripes.iter_mut().zip(blocks) {
                let part = &block[at.min(block.len())..(at + per_stripe).min(block.len())];
                encode_into(part, enc, stripe);
            }
            fnv1a_lanes(&mut hash, std::array::from_fn(|k| stripes[k].as_slice()));
        }
        for (block, fnv) in blocks.into_iter().zip(hash).filter(|(b, _)| !b.is_empty()) {
            for part in block.chunks(per_stripe) {
                encode_into(part, enc, &mut stripes[0]);
                w.write_all(&stripes[0]).map_err(SnapshotError::Io)?;
            }
            let len = (block.len() * B) as u64;
            index.push(IndexEntry { offset: *offset, len, fnv });
            *offset += len;
        }
    }
    Ok(())
}

impl<W: PortableWeight> Oracle<W> {
    /// Serializes the oracle into the blocked v2 snapshot format.
    ///
    /// # Errors
    /// Rejects inconsistent configuration (zero `block_rows`, dropping
    /// successors without an embedded graph, a graph of the wrong size).
    pub fn to_bytes_v2(&self, cfg: &V2Config<'_, W>) -> Result<Vec<u8>, SnapshotError> {
        let mut buf = Vec::new();
        self.save_v2_to(&mut buf, cfg)?;
        Ok(buf)
    }

    /// Streams the blocked v2 snapshot into `w` front-to-back (no seeks,
    /// no n² staging buffer, no block buffer: four 64 KiB stripes):
    /// header, dist blocks, successor blocks, graph section, index,
    /// footer.
    ///
    /// # Errors
    /// Rejects inconsistent configuration; propagates `w`'s failures as
    /// [`SnapshotError::Io`].
    pub fn save_v2_to(&self, w: impl Write, cfg: &V2Config<'_, W>) -> Result<(), SnapshotError> {
        let n = self.n();
        if n == 0 {
            return Err(SnapshotError::Corrupt("v2 snapshot requires at least one node"));
        }
        if cfg.block_rows == 0 {
            return Err(SnapshotError::Corrupt("block_rows must be at least 1"));
        }
        if cfg.drop_successors && cfg.graph.is_none() {
            return Err(SnapshotError::Corrupt("dropping successors requires an embedded graph"));
        }
        if let Some(g) = cfg.graph {
            if g.n() != n {
                return Err(SnapshotError::Corrupt("embedded graph node count mismatch"));
            }
        }
        let br = cfg.block_rows as usize;
        let header = HeaderV2 {
            n,
            block_rows: br,
            has_succ: !cfg.drop_successors,
            has_graph: cfg.graph.is_some(),
        };
        let flags = (if header.has_succ { FLAG_SUCC } else { 0 })
            | (if header.has_graph { FLAG_GRAPH } else { 0 });

        let mut w = w;
        let mut head = Vec::with_capacity(HEADER_V2_LEN);
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&VERSION_V2.to_le_bytes());
        head.push(W::TAG);
        head.push(flags);
        head.extend_from_slice(&(n as u64).to_le_bytes());
        head.extend_from_slice(&cfg.block_rows.to_le_bytes());
        let hsum = fnv1a(&head);
        head.extend_from_slice(&hsum.to_le_bytes());
        w.write_all(&head).map_err(SnapshotError::Io)?;

        let mut offset = HEADER_V2_LEN as u64;
        let mut index: Vec<IndexEntry> = Vec::new();
        let stripe = STRIPE.min(br.min(n) * n * 8);
        let mut stripes: [Vec<u8>; LANES] = std::array::from_fn(|_| Vec::with_capacity(stripe));
        let block_cells = br * n;
        let (dist, succ) = (self.dist_arena(), self.succ_arena());
        write_section(&mut w, dist, block_cells, W::encode, &mut stripes, &mut index, &mut offset)?;
        if header.has_succ {
            let enc = NodeId::to_le_bytes;
            write_section(&mut w, succ, block_cells, enc, &mut stripes, &mut index, &mut offset)?;
        }
        if let Some(g) = cfg.graph {
            let mut head = [0u8; 9];
            head[0] = u8::from(g.is_directed());
            head[1..].copy_from_slice(&(g.m() as u64).to_le_bytes());
            w.write_all(&head).map_err(SnapshotError::Io)?;
            let mut fnv = fnv1a(&head);
            let chunk = &mut stripes[0];
            for edges in g.edges().chunks(STRIPE / 16) {
                chunk.clear();
                for e in edges {
                    chunk.extend_from_slice(&e.from.to_le_bytes());
                    chunk.extend_from_slice(&e.to.to_le_bytes());
                    chunk.extend_from_slice(&e.weight.encode());
                }
                fnv = fnv1a_update(fnv, chunk);
                w.write_all(chunk).map_err(SnapshotError::Io)?;
            }
            let len = 9 + g.m() as u64 * 16;
            index.push(IndexEntry { offset, len, fnv });
            offset += len;
        }
        drop(stripes);

        let mut ibytes = Vec::with_capacity(index.len() * INDEX_ENTRY_LEN);
        for e in &index {
            ibytes.extend_from_slice(&e.offset.to_le_bytes());
            ibytes.extend_from_slice(&e.len.to_le_bytes());
            ibytes.extend_from_slice(&e.fnv.to_le_bytes());
        }
        let ifnv = fnv1a(&ibytes);
        w.write_all(&ibytes).map_err(SnapshotError::Io)?;
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(&offset.to_le_bytes());
        footer.extend_from_slice(&(ibytes.len() as u64).to_le_bytes());
        footer.extend_from_slice(&ifnv.to_le_bytes());
        let fsum = fnv1a(&footer);
        footer.extend_from_slice(&fsum.to_le_bytes());
        w.write_all(&footer).map_err(SnapshotError::Io)?;
        Ok(())
    }

    /// Writes the blocked v2 snapshot to `path` atomically: temp file +
    /// fsync + rename, so a concurrent reader sees the old file or the
    /// new one, never a torn write.
    ///
    /// # Errors
    /// Rejects inconsistent configuration; propagates filesystem
    /// failures as [`SnapshotError::Io`].
    pub fn save_v2(
        &self,
        path: impl AsRef<Path>,
        cfg: &V2Config<'_, W>,
    ) -> Result<(), SnapshotError> {
        atomic_write(path.as_ref(), |w| self.save_v2_to(w, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use congest_graph::seq::apsp_dijkstra;

    fn sample() -> (Graph<u64>, Oracle<u64>) {
        let g = gnm_connected(13, 30, true, WeightDist::Uniform(0, 9), 11);
        let o = Oracle::from_dist(&g, apsp_dijkstra(&g));
        (g, o)
    }

    #[test]
    fn v2_round_trip_with_successors() {
        let (_, o) = sample();
        for block_rows in [1u32, 3, 5, 13, 64] {
            let cfg = V2Config { block_rows, ..V2Config::default() };
            let bytes = o.to_bytes_v2(&cfg).unwrap();
            let o2 = Oracle::<u64>::from_bytes(&bytes).unwrap();
            assert_eq!(o, o2, "block_rows = {block_rows}");
        }
    }

    #[test]
    fn v2_round_trip_without_successors_derives() {
        let (g, o) = sample();
        let cfg = V2Config { block_rows: 4, drop_successors: true, graph: Some(&g) };
        let bytes = o.to_bytes_v2(&cfg).unwrap();
        let before = crate::successor_derivations();
        let o2 = Oracle::<u64>::from_bytes(&bytes).unwrap();
        assert!(crate::successor_derivations() > before, "plane must be re-derived");
        // Derivation may pick different (equally shortest) successors,
        // but distances are bit-identical and paths must telescope.
        assert_eq!(o.n(), o2.n());
        for u in 0..o.n() as NodeId {
            for v in 0..o.n() as NodeId {
                assert_eq!(o.distance(u, v), o2.distance(u, v));
                match (o.path(u, v), o2.path(u, v)) {
                    (Some(_), Some(p2)) => {
                        assert_eq!(p2[0], u);
                        assert_eq!(*p2.last().unwrap(), v);
                    }
                    (None, None) => {}
                    (a, b) => panic!("reachability mismatch at ({u}, {v}): {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn v2_misconfiguration_rejected() {
        let (g, o) = sample();
        assert!(matches!(
            o.to_bytes_v2(&V2Config { block_rows: 0, ..V2Config::default() }),
            Err(SnapshotError::Corrupt("block_rows must be at least 1"))
        ));
        assert!(matches!(
            o.to_bytes_v2(&V2Config { drop_successors: true, ..V2Config::default() }),
            Err(SnapshotError::Corrupt("dropping successors requires an embedded graph"))
        ));
        let small = gnm_connected(4, 6, true, WeightDist::Uniform(1, 3), 1);
        assert!(matches!(
            o.to_bytes_v2(&V2Config { block_rows: 4, drop_successors: false, graph: Some(&small) }),
            Err(SnapshotError::Corrupt("embedded graph node count mismatch"))
        ));
        let _ = g;
    }

    #[test]
    fn v2_zero_flags_rejected() {
        let (_, o) = sample();
        let mut bytes = o.to_bytes_v2(&V2Config::default()).unwrap();
        bytes[11] = 0;
        // Re-seal the header so the flags byte itself is reached.
        let h = fnv1a(&bytes[..24]);
        bytes[24..32].copy_from_slice(&h.to_le_bytes());
        assert!(matches!(
            Oracle::<u64>::from_bytes(&bytes).unwrap_err(),
            SnapshotError::Corrupt("v2 snapshot has neither successors nor graph")
        ));
    }

    #[test]
    fn v2_header_flip_is_checksum_mismatch() {
        let (_, o) = sample();
        let mut bytes = o.to_bytes_v2(&V2Config::default()).unwrap();
        bytes[20] ^= 1; // block_rows, covered by the header checksum
        assert!(matches!(
            Oracle::<u64>::from_bytes(&bytes).unwrap_err(),
            SnapshotError::ChecksumMismatch
        ));
    }
}

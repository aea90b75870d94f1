//! The out-of-core oracle backend: serves queries from a blocked v2
//! snapshot **without** loading it into RAM.
//!
//! [`PagedOracle::open`] validates only the header, footer and index
//! eagerly (O(blocks) bytes); distance and successor blocks are read
//! from the file the first time a query touches them, checksum-verified
//! on that first touch, decoded, and kept in a byte-budgeted LRU
//! resident set (reusing the intrusive-list [`LruCache`]). When the
//! snapshot was written without its successor plane, per-target columns
//! are re-derived on demand from the embedded graph via the same
//! reverse-BFS used everywhere else (each derivation ticks
//! [`successor_derivations`](crate::successor_derivations)) and cached
//! like any other page.
//!
//! Concurrency: the page cache and the file handle are two independent
//! mutexes, both held only for O(1)-ish critical sections (cache probe /
//! insert, one positioned read). Block decode and checksum verification
//! run outside both locks; two threads racing on the same miss may both
//! read the block, and the second insert is dropped.

use crate::engine::QueryError;
use crate::format_v2::{
    check_block, decode_dist, decode_succ, parse_graph_section, read_block, read_exact_at,
    read_layout, IndexEntry,
};
use crate::lru::LruCache;
use crate::oracle::{
    derive_target_from_col, k_nearest_in_row, tick_derivation, walk_succ_column, NO_SUCC,
};
use crate::snapshot::{PortableWeight, SnapshotError};
use congest_graph::{Graph, NodeId, Weight};
use congest_telemetry::{Counter, Gauge};
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning knobs for a [`PagedOracle`].
#[derive(Copy, Clone, Debug)]
pub struct PagedConfig {
    /// Byte budget for decoded resident pages. The LRU evicts past it,
    /// but always keeps at least one page, so the effective floor is the
    /// largest single block.
    pub resident_bytes: usize,
}

impl Default for PagedConfig {
    fn default() -> Self {
        PagedConfig { resident_bytes: 64 << 20 }
    }
}

/// Point-in-time counters of a [`PagedOracle`]'s paging activity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PagedStats {
    /// Page requests served from the resident set.
    pub hits: u64,
    /// Page requests that had to read (and validate) from the file.
    pub misses: u64,
    /// Pages evicted to stay inside the byte budget.
    pub evictions: u64,
    /// Block checksum verifications performed (first touch + re-reads
    /// after eviction + derivation sweeps).
    pub validations: u64,
    /// Successor columns re-derived on demand (plane-less snapshots).
    pub derivations: u64,
    /// Decoded bytes currently resident.
    pub resident_bytes: usize,
}

/// Page-key planes: dist blocks, on-disk successor blocks, derived
/// successor columns. Keys are `plane << 32 | index`, which cannot
/// collide since `n ≤ 2^30` bounds every index.
const PLANE_DIST: u64 = 0;
const PLANE_SUCC: u64 = 1;
const PLANE_DERIVED: u64 = 2;

fn page_key(plane: u64, i: usize) -> u64 {
    (plane << 32) | i as u64
}

/// One decoded resident page.
#[derive(Clone)]
enum Page<W> {
    Dist(Arc<[W]>),
    Succ(Arc<[NodeId]>),
}

impl<W> Page<W> {
    fn bytes(&self) -> usize {
        match self {
            Page::Dist(p) => p.len() * std::mem::size_of::<W>(),
            Page::Succ(p) => p.len() * std::mem::size_of::<NodeId>(),
        }
    }
}

struct PageCache<W> {
    lru: LruCache<u64, Page<W>>,
    resident: usize,
}

/// Cached telemetry handles (see the `oracle.paged.*` names); recording
/// is gated on the global enable flag.
struct PagedTele {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    validations: Arc<Counter>,
    resident: Arc<Gauge>,
}

impl PagedTele {
    fn new() -> Self {
        let reg = congest_telemetry::global().registry();
        PagedTele {
            hits: reg.counter("oracle.paged.block_hits"),
            misses: reg.counter("oracle.paged.block_misses"),
            evictions: reg.counter("oracle.paged.block_evictions"),
            validations: reg.counter("oracle.paged.block_validations"),
            resident: reg.gauge("oracle.paged.resident_bytes"),
        }
    }
}

/// A lazily-paged, byte-budgeted read handle over a blocked v2 snapshot
/// — the backend that serves snapshots larger than RAM. See the module
/// docs; construct with [`PagedOracle::open`], serve through
/// [`QueryEngine::new_paged`](crate::QueryEngine::new_paged) or query
/// directly.
pub struct PagedOracle<W> {
    n: usize,
    block_rows: usize,
    blocks: usize,
    has_succ: bool,
    /// Present iff the plane is absent (then it is required); used only
    /// for on-demand successor derivation.
    graph: Option<Graph<W>>,
    /// Captured at `open` so query methods need only `W: Weight` — the
    /// engine's backend enum stays bound-compatible with the eager path.
    decode: fn([u8; 8]) -> Option<W>,
    file: Mutex<File>,
    dist_index: Box<[IndexEntry]>,
    succ_index: Box<[IndexEntry]>,
    budget: usize,
    cache: Mutex<PageCache<W>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    validations: AtomicU64,
    derivations: AtomicU64,
    resident: AtomicUsize,
    tele: PagedTele,
}

impl<W: PortableWeight> PagedOracle<W> {
    /// Opens a blocked v2 snapshot for lazy serving: reads and validates
    /// the header, the footer and the whole index (plus the embedded
    /// graph when the successor plane was dropped on disk), but **no**
    /// distance or successor block — those page in on first use.
    ///
    /// # Errors
    /// Every malformed-input condition surfaces as a [`SnapshotError`],
    /// filesystem failures as [`SnapshotError::Io`].
    pub fn open(path: impl AsRef<Path>, cfg: PagedConfig) -> Result<Self, SnapshotError> {
        let mut file = File::open(path).map_err(SnapshotError::Io)?;
        let (header, layout) = read_layout(&mut file, W::TAG)?;
        let graph = match layout.graph {
            Some((pos, e)) if !header.has_succ => {
                let mut blob = Vec::new();
                read_block(&mut file, e, pos, &mut blob)?;
                Some(parse_graph_section::<W>(&blob, header.n, pos)?)
            }
            _ => None,
        };
        Ok(PagedOracle {
            n: header.n,
            block_rows: header.block_rows,
            blocks: header.blocks(),
            has_succ: header.has_succ,
            graph,
            decode: W::decode,
            file: Mutex::new(file),
            dist_index: layout.dist.into_boxed_slice(),
            succ_index: layout.succ.into_boxed_slice(),
            budget: cfg.resident_bytes,
            cache: Mutex::new(PageCache { lru: LruCache::unbounded(), resident: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            validations: AtomicU64::new(0),
            derivations: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            tele: PagedTele::new(),
        })
    }
}

impl<W: Weight> PagedOracle<W> {
    /// Number of nodes in the snapshot.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rows per block the snapshot was written with.
    #[must_use]
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of row blocks per plane.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Whether the successor plane is on disk (`false` means successor
    /// columns are derived on demand from the embedded graph).
    #[must_use]
    pub fn has_successor_plane(&self) -> bool {
        self.has_succ
    }

    /// The configured resident-set byte budget.
    #[must_use]
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Decoded bytes currently resident in the page cache.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Point-in-time paging counters.
    #[must_use]
    pub fn stats(&self) -> PagedStats {
        PagedStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            validations: self.validations.load(Ordering::Relaxed),
            derivations: self.derivations.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
        }
    }

    fn check(&self, node: NodeId) -> Result<(), QueryError> {
        if (node as usize) < self.n {
            Ok(())
        } else {
            Err(QueryError::NodeOutOfRange { node, n: self.n })
        }
    }

    fn cache_get(&self, key: u64) -> Option<Page<W>> {
        let hit = self.cache.lock().expect("page cache poisoned").lru.get(&key);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if congest_telemetry::enabled() {
                self.tele.hits.inc();
            }
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if congest_telemetry::enabled() {
                self.tele.misses.inc();
            }
        }
        hit
    }

    fn insert_page(&self, key: u64, page: Page<W>) {
        let sz = page.bytes();
        let mut c = self.cache.lock().expect("page cache poisoned");
        if c.lru.get(&key).is_some() {
            return; // a racing thread beat us to it; keep its accounting
        }
        c.resident += sz;
        c.lru.insert(key, page);
        let mut evicted = 0u64;
        while c.resident > self.budget && c.lru.len() > 1 {
            let Some((_, old)) = c.lru.pop_lru() else { break };
            c.resident -= old.bytes();
            evicted += 1;
        }
        let resident = c.resident;
        drop(c);
        self.resident.store(resident, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        if congest_telemetry::enabled() {
            if evicted > 0 {
                self.tele.evictions.add(evicted);
            }
            self.tele.resident.set(i64::try_from(resident).unwrap_or(i64::MAX));
        }
    }

    /// Reads + validates block `e` (whose index position is `pos`),
    /// ticking the validation counters. Only the positioned read holds
    /// the file lock; the checksum runs outside it.
    fn read_block(&self, e: IndexEntry, pos: u32) -> Result<Vec<u8>, QueryError> {
        let unavailable = QueryError::BlockUnavailable { block: pos };
        let mut bytes = vec![0u8; e.len as usize];
        let mut file = self.file.lock().expect("snapshot file poisoned");
        read_exact_at(&mut *file, e.offset, &mut bytes).map_err(|_| unavailable)?;
        drop(file);
        check_block(&bytes, e, pos).map_err(|_| unavailable)?;
        self.validations.fetch_add(1, Ordering::Relaxed);
        if congest_telemetry::enabled() {
            self.tele.validations.inc();
        }
        Ok(bytes)
    }

    /// The decoded distance block `b`, paging it in on a miss.
    fn dist_block(&self, b: usize) -> Result<Arc<[W]>, QueryError> {
        let key = page_key(PLANE_DIST, b);
        if let Some(Page::Dist(p)) = self.cache_get(key) {
            return Ok(p);
        }
        let pos = b as u32;
        let bytes = self.read_block(self.dist_index[b], pos)?;
        let mut cells = vec![W::ZERO; bytes.len() / 8];
        decode_dist(&bytes, self.decode, &mut cells)
            .map_err(|_| QueryError::BlockUnavailable { block: pos })?;
        let p: Arc<[W]> = cells.into();
        self.insert_page(key, Page::Dist(p.clone()));
        Ok(p)
    }

    /// The decoded on-disk successor block `b`, paging it in on a miss.
    fn succ_block(&self, b: usize) -> Result<Arc<[NodeId]>, QueryError> {
        let key = page_key(PLANE_SUCC, b);
        if let Some(Page::Succ(p)) = self.cache_get(key) {
            return Ok(p);
        }
        let pos = (self.blocks + b) as u32;
        let bytes = self.read_block(self.succ_index[b], pos)?;
        let mut cells = vec![NO_SUCC; bytes.len() / 4];
        decode_succ(&bytes, self.n, &mut cells)
            .map_err(|_| QueryError::BlockUnavailable { block: pos })?;
        let p: Arc<[NodeId]> = cells.into();
        self.insert_page(key, Page::Succ(p.clone()));
        Ok(p)
    }

    /// Gathers target `v`'s dense distance column by streaming every
    /// dist block straight from the file (validated, **not** cached —
    /// one derivation must not flush the whole resident set), decoding
    /// only the column's cells.
    fn read_dist_column(&self, v: NodeId) -> Result<Vec<W>, QueryError> {
        let mut dcol: Vec<W> = Vec::with_capacity(self.n);
        for (b, &e) in self.dist_index.iter().enumerate() {
            let bytes = self.read_block(e, b as u32)?;
            let rows = (e.len as usize / 8) / self.n;
            for r in 0..rows {
                let at = (r * self.n + v as usize) * 8;
                let w = (self.decode)(bytes[at..at + 8].try_into().expect("8 bytes"))
                    .ok_or(QueryError::BlockUnavailable { block: b as u32 })?;
                dcol.push(w);
            }
        }
        Ok(dcol)
    }

    /// Target `v`'s successor column when the plane is not on disk:
    /// derived once via reverse BFS over the embedded graph, then cached
    /// as a page like any block.
    fn derived_col(&self, v: NodeId) -> Result<Arc<[NodeId]>, QueryError> {
        let key = page_key(PLANE_DERIVED, v as usize);
        if let Some(Page::Succ(p)) = self.cache_get(key) {
            return Ok(p);
        }
        let dcol = self.read_dist_column(v)?;
        let g = self.graph.as_ref().expect("plane-less snapshots always embed a graph");
        let mut col = vec![NO_SUCC; self.n];
        self.derivations.fetch_add(1, Ordering::Relaxed);
        tick_derivation();
        derive_target_from_col(g, &dcol, v, &mut col)
            .map_err(|u| QueryError::CorruptSuccessors { u, v })?;
        let p: Arc<[NodeId]> = col.into();
        self.insert_page(key, Page::Succ(p.clone()));
        Ok(p)
    }

    /// `δ(u, v)`; `W::INF` when unreachable. Pages in `u`'s row block.
    ///
    /// # Errors
    /// [`QueryError::NodeOutOfRange`] for invalid ids,
    /// [`QueryError::BlockUnavailable`] when the block cannot be read or
    /// fails its checksum.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Result<W, QueryError> {
        self.check(u)?;
        self.check(v)?;
        let b = u as usize / self.block_rows;
        let blk = self.dist_block(b)?;
        Ok(blk[(u as usize - b * self.block_rows) * self.n + v as usize])
    }

    /// A shortest `u → v` vertex walk, `Ok(None)` when unreachable —
    /// the paged counterpart of [`Oracle::try_path`](crate::Oracle::try_path).
    ///
    /// # Errors
    /// [`QueryError::NodeOutOfRange`], [`QueryError::BlockUnavailable`],
    /// or [`QueryError::CorruptSuccessors`] when the (on-disk or
    /// derived) column cannot realize the walk.
    pub fn try_path(&self, u: NodeId, v: NodeId) -> Result<Option<Vec<NodeId>>, QueryError> {
        self.check(u)?;
        self.check(v)?;
        if self.has_succ {
            let b = v as usize / self.block_rows;
            let blk = self.succ_block(b)?;
            let base = (v as usize - b * self.block_rows) * self.n;
            walk_succ_column(self.n, &blk[base..base + self.n], u, v)
        } else {
            let col = self.derived_col(v)?;
            walk_succ_column(self.n, &col, u, v)
        }
    }

    /// The `k` nearest other nodes to `u` (see
    /// [`Oracle::k_nearest`](crate::Oracle::k_nearest)). Pages in `u`'s
    /// row block.
    ///
    /// # Errors
    /// [`QueryError::NodeOutOfRange`], [`QueryError::BlockUnavailable`].
    pub fn k_nearest(&self, u: NodeId, k: usize) -> Result<Vec<(NodeId, W)>, QueryError> {
        self.check(u)?;
        let b = u as usize / self.block_rows;
        let blk = self.dist_block(b)?;
        let base = (u as usize - b * self.block_rows) * self.n;
        Ok(k_nearest_in_row(u, &blk[base..base + self.n], k))
    }
}

//! The [`Oracle`]: a compact, query-ready form of an all-pairs
//! shortest-path solution.
//!
//! Distances live in a single flat arena (`Box<[W]>`, row-major, no nested
//! `Vec`s), and a successor matrix derived from the distances plus the
//! graph's adjacency enables O(path-length) shortest-path reconstruction.
//!
//! The successor matrix is stored *target-major*: `succ[v*n + u]` is the
//! next hop on a shortest path from `u` toward target `v`. This makes the
//! per-target derivation write one contiguous row (so targets parallelize
//! cleanly) and keeps a whole path walk inside one n-sized row.
//!
//! ## Where successors come from
//!
//! Every `congest_apsp::Solver` outcome already carries the target-major
//! Step-7 successor plane, filled while the distance messages propagated;
//! [`Oracle::from_dist`] validates it (`check_plane` + a graph-consistency
//! telescoping sweep) and adopts it by move. The reverse-BFS derivation
//! below runs only for plane-less matrices — hand-built matrices and
//! snapshots saved without their plane — and every derivation ticks the
//! process-wide [`successor_derivations`] counter, so the zero-derivation
//! fast path is observable.
//!
//! ## Why the fallback derives by reverse BFS, not greedy matching
//!
//! The obvious derivation — for each `(u, v)` pick any neighbor `w` with
//! `δ(u,v) = wt(u,w) + δ(w,v)` — is wrong in the presence of zero-weight
//! edges: two nodes joined by a zero-weight 2-cycle can elect *each other*
//! as successor and the path walk never terminates. Instead, for every
//! target `v` we run a reverse BFS over the shortest-path DAG: a node `u`
//! is only assigned a successor `w` that has already been assigned (or is
//! `v` itself), so successor chains strictly decrease in hop level and a
//! walk finishes in at most `n - 1` steps.

use crate::engine::QueryError;
use crate::parallel::par_plane;
use congest_apsp::ApspOutcome;
use congest_graph::{DistMatrix, Graph, NodeId, Weight};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

pub use congest_graph::NO_SUCC;

/// Process-wide count of reverse-BFS successor derivations performed by
/// [`Oracle::from_dist`]: one increment per oracle built from a matrix
/// *without* a successor plane. Adopting a producer-supplied plane never
/// increments it — the observable witness that `into_oracle` on a solver
/// outcome is zero-derivation.
static DERIVATIONS: AtomicU64 = AtomicU64::new(0);

/// Reads the process-wide derivation counter (see [`Oracle::from_dist`]).
/// Tests and benchmarks compare before/after values to prove a build took
/// the supplied-plane fast path.
#[must_use]
pub fn successor_derivations() -> u64 {
    DERIVATIONS.load(Ordering::Relaxed)
}

/// Ticks the derivation counter from the paged backend's on-demand
/// per-target derivation (one tick per derived column); [`derive_plane`]
/// ticks it once per plane.
pub(crate) fn tick_derivation() {
    DERIVATIONS.fetch_add(1, Ordering::Relaxed);
}

/// The cores an eager load's n×n plane sweeps may take, chosen by the
/// caller of [`Oracle::load_on`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cores {
    /// Every core of the host, from n = 512 on; smaller planes stay on
    /// the calling thread. What [`Oracle::load`] and
    /// [`Oracle::from_bytes`] use.
    All,
    /// The calling thread only: for a load that runs beside other work,
    /// such as a server swapping in a new generation while the old one
    /// still answers queries on the other cores.
    Caller,
}

/// A compact distance + successor oracle over a fixed graph snapshot.
///
/// Built once from an APSP solution ([`IntoOracle::into_oracle`] /
/// [`Oracle::from_dist`]), then serves `distance`, `path` and `k_nearest`
/// queries with no further access to the graph. All storage is two flat
/// arenas: `n²` distances and `n²` successor ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Oracle<W> {
    n: usize,
    /// Row-major distances: `dist[u*n + v] = δ(u, v)`.
    dist: Box<[W]>,
    /// Target-major successors: `succ[v*n + u]` = next hop from `u`
    /// toward `v`, or [`NO_SUCC`].
    succ: Box<[NodeId]>,
}

impl<W: Weight> Oracle<W> {
    /// Builds an oracle from an exact distance matrix for `g`
    /// (`dist[u][v] = δ(u, v)`, `W::INF` when unreachable), consuming the
    /// matrix: its flat arena becomes the oracle's distance storage by
    /// move.
    ///
    /// If the matrix carries a successor plane it is validated and adopted
    /// (also by move) — the zero-derivation fast path every solver outcome
    /// takes, observable via [`successor_derivations`];
    /// otherwise successors are derived from the distances plus `g`'s
    /// adjacency (one reverse BFS per target, O(n·m) total work).
    ///
    /// The validation sweeps and the derivation split their targets over
    /// the host's cores from n = 512 on; smaller matrices run on the
    /// calling thread.
    ///
    /// # Panics
    /// Panics if the matrix is not `n×n`, a diagonal entry is not zero, the
    /// matrix is inconsistent with `g` (some finite `dist[u][v]` not
    /// realizable as an edge walk in `g` — e.g. a matrix for a different
    /// graph), or an attached successor plane is inconsistent with the
    /// distances or with `g` (a non-edge or non-telescoping step).
    #[must_use]
    pub fn from_dist(g: &Graph<W>, dist: DistMatrix<W>) -> Self {
        let n = g.n();
        assert_eq!(dist.rows(), n, "distance matrix must have one row per node");
        assert_eq!(dist.cols(), n, "distance matrix must be square");
        for u in 0..n {
            assert_eq!(dist.get(u, u), W::ZERO, "diagonal entry δ({u},{u}) must be zero");
        }
        let (arena, succ_plane) = dist.into_parts();

        // Build timing: a supplied plane pays validation, a missing one
        // pays the reverse-BFS derivation — both worth a span + histogram
        // when telemetry is on (the 231 ms vs 370 ms gap at n = 2^11 is
        // exactly what PR 4 bought; keep it observable).
        let build_t0 = congest_telemetry::enabled().then(std::time::Instant::now);
        let supplied = succ_plane.is_some();

        let succ = match succ_plane {
            Some(succ) => {
                // A producer-supplied plane replaces the derivation, but
                // must satisfy the snapshot loader's invariants (successor
                // iff distinct + reachable, every chain terminates) ...
                if let Err(what) = crate::snapshot::check_plane(n, &arena, &succ, Cores::All) {
                    panic!("supplied successor plane invalid: {what}");
                }
                // ... plus the graph-consistency contract the derived path
                // gets from `derive_plane`: every successor step must be
                // an edge of `g` whose weight telescopes, so `path` walks
                // are real min-weight walks in `g` (and a matrix/plane for
                // a different graph is rejected). One O(m log m) adjacency
                // precompute keeps the n² pair sweep at a binary-search
                // lookup per cell instead of an O(deg) edge scan.
                let min_out: Vec<Vec<(NodeId, W)>> = (0..n as NodeId)
                    .map(|u| {
                        let mut adj: Vec<(NodeId, W)> = g.out_edges(u).collect();
                        adj.sort_unstable();
                        // sorted by (target, weight): the first entry per
                        // target holds the min parallel weight
                        adj.dedup_by_key(|e| e.0);
                        adj
                    })
                    .collect();
                // Targets are independent; sweep them in parallel like the
                // derive path does.
                let mut cols: Vec<&[NodeId]> = succ.chunks(n).collect();
                let results = {
                    let (arena, min_out) = (&arena, &min_out);
                    par_plane(n, Cores::All, &mut cols, move |v, col| -> Result<(), String> {
                        for (u, &s) in col.iter().enumerate() {
                            if s == NO_SUCC {
                                continue;
                            }
                            let adj = &min_out[u];
                            let Ok(i) = adj.binary_search_by_key(&s, |&(t, _)| t) else {
                                return Err(format!(
                                    "successor step ({u} -> {s}) is not an edge of the graph"
                                ));
                            };
                            if arena[u * n + v] != adj[i].1.plus(arena[s as usize * n + v]) {
                                return Err(format!(
                                    "successor step ({u} -> {s}) toward {v} does not telescope"
                                ));
                            }
                        }
                        Ok(())
                    })
                };
                for r in results {
                    if let Err(what) = r {
                        panic!("supplied successor plane invalid: {what}");
                    }
                }
                succ
            }
            None => derive_plane(g, &arena, Cores::All).unwrap_or_else(|(u, v)| {
                panic!("distance matrix inconsistent with graph at ({u}, {v})")
            }),
        };
        if let Some(t0) = build_t0 {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let tele = congest_telemetry::global();
            let (span, hist) = if supplied {
                ("oracle.build/validate-plane", "oracle.build.validate_ns")
            } else {
                ("oracle.build/derive-plane", "oracle.build.derive_ns")
            };
            tele.complete_span(
                span,
                tele.now_ns().saturating_sub(ns),
                ns,
                vec![("n".to_string(), n.to_string())],
            );
            tele.registry().histogram(hist).record(ns);
        }
        Oracle { n, dist: arena, succ }
    }

    /// Reassembles an oracle from its two arenas (snapshot loading).
    /// Caller has already validated lengths and value ranges.
    pub(crate) fn from_parts(n: usize, dist: Box<[W]>, succ: Box<[NodeId]>) -> Self {
        debug_assert_eq!(dist.len(), n * n);
        debug_assert_eq!(succ.len(), n * n);
        Oracle { n, dist, succ }
    }

    pub(crate) fn dist_arena(&self) -> &[W] {
        &self.dist
    }

    pub(crate) fn succ_arena(&self) -> &[NodeId] {
        &self.succ
    }

    /// Number of nodes in the snapshot.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// `δ(u, v)`; `W::INF` when `v` is unreachable from `u`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range (use
    /// [`QueryEngine`](crate::QueryEngine) for checked queries).
    #[inline]
    #[must_use]
    pub fn distance(&self, u: NodeId, v: NodeId) -> W {
        // Both bounds checked up front: without the `u` check an
        // out-of-range source would either panic with an unhelpful raw
        // slice index message or, worse, for `u * n + v` still in range,
        // silently read another row's distance.
        assert!((u as usize) < self.n && (v as usize) < self.n, "node out of range");
        self.dist[u as usize * self.n + v as usize]
    }

    /// All distances from `u`, indexed by target id.
    #[inline]
    #[must_use]
    pub fn distance_row(&self, u: NodeId) -> &[W] {
        &self.dist[u as usize * self.n..(u as usize + 1) * self.n]
    }

    /// The next hop on a shortest path from `u` toward `v`; `None` when
    /// `u == v` or `v` is unreachable.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    #[inline]
    #[must_use]
    pub fn successor(&self, u: NodeId, v: NodeId) -> Option<NodeId> {
        assert!((u as usize) < self.n && (v as usize) < self.n, "node out of range");
        let s = self.succ[v as usize * self.n + u as usize];
        (s != NO_SUCC).then_some(s)
    }

    /// A shortest path from `u` to `v` as a vertex walk
    /// `[u, ..., v]`, reconstructed in O(path length). `None` when `v` is
    /// unreachable; `Some(vec![u])` when `u == v`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range, or if the successor matrix is
    /// corrupt (see [`Oracle::try_path`] for the panic-free form serving
    /// layers should use on untrusted snapshots).
    #[must_use]
    pub fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        match self.try_path(u, v) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Oracle::path`] with every failure mode surfaced as a typed error
    /// instead of a panic: out-of-range ids and — on a damaged or
    /// hand-forged snapshot — a successor walk that dead-ends or fails to
    /// reach `v` within `n` steps (the budget every valid plane satisfies,
    /// since chains strictly descend in hop level).
    ///
    /// # Errors
    /// [`QueryError::NodeOutOfRange`] for invalid ids;
    /// [`QueryError::CorruptSuccessors`] when the walk defeats the step
    /// budget or dead-ends before `v`.
    pub fn try_path(&self, u: NodeId, v: NodeId) -> Result<Option<Vec<NodeId>>, QueryError> {
        for node in [u, v] {
            if node as usize >= self.n {
                return Err(QueryError::NodeOutOfRange { node, n: self.n });
            }
        }
        let col = &self.succ[v as usize * self.n..(v as usize + 1) * self.n];
        walk_succ_column(self.n, col, u, v)
    }

    /// The `k` nearest *other* nodes to `u` (finite distances only), sorted
    /// by `(distance, node id)` ascending. Returns fewer than `k` entries
    /// when fewer are reachable.
    ///
    /// O(n log k) via a bounded max-heap over the distance row.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn k_nearest(&self, u: NodeId, k: usize) -> Vec<(NodeId, W)> {
        assert!((u as usize) < self.n, "node out of range");
        k_nearest_in_row(u, self.distance_row(u), k)
    }
}

/// The `k` smallest `(distance, node)` pairs in `u`'s distance row,
/// excluding `u` itself and unreachable targets — the shared kernel under
/// [`Oracle::k_nearest`] and the paged backend's row-block variant.
/// O(n log k) via a bounded max-heap.
pub(crate) fn k_nearest_in_row<W: Weight>(u: NodeId, row: &[W], k: usize) -> Vec<(NodeId, W)> {
    // At most n-1 other nodes can ever be returned; clamp before
    // allocating so an absurd caller-supplied k cannot OOM the server.
    let k = k.min(row.len().saturating_sub(1));
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<(W, NodeId)> = BinaryHeap::with_capacity(k + 1);
    for (v, &d) in row.iter().enumerate() {
        if v == u as usize || d.is_inf() {
            continue;
        }
        let cand = (d, v as NodeId);
        if heap.len() < k {
            heap.push(cand);
        } else if cand < *heap.peek().expect("heap is non-empty at capacity") {
            heap.pop();
            heap.push(cand);
        }
    }
    heap.into_sorted_vec().into_iter().map(|(d, v)| (v, d)).collect()
}

/// Walks target `v`'s successor column from `u`: the shared panic-free
/// path-reconstruction kernel under [`Oracle::try_path`] and the paged
/// backend. `col[u]` is the next hop from `u` toward `v` (`NO_SUCC` when
/// unreachable); the walk budget is `n` vertices, which every valid plane
/// satisfies since successor chains strictly descend in hop level.
pub(crate) fn walk_succ_column(
    n: usize,
    col: &[NodeId],
    u: NodeId,
    v: NodeId,
) -> Result<Option<Vec<NodeId>>, QueryError> {
    if u == v {
        return Ok(Some(vec![u]));
    }
    if col[u as usize] == NO_SUCC {
        return Ok(None);
    }
    let mut walk = Vec::new();
    let mut cur = u;
    walk.push(cur);
    while cur != v {
        let nxt = col[cur as usize];
        // Budget: a simple path visits at most n vertices. A plane
        // that dead-ends (NO_SUCC mid-walk), cycles, or wanders past
        // the budget can only come from a corrupt snapshot.
        if nxt == NO_SUCC || nxt as usize >= n || walk.len() >= n {
            return Err(QueryError::CorruptSuccessors { u, v });
        }
        walk.push(nxt);
        cur = nxt;
    }
    Ok(Some(walk))
}

/// One-line compute → serve handoff: `solver.run()?.into_oracle(&g)`.
///
/// Implemented for [`ApspOutcome`] so the compute layer does not need to
/// depend on this crate. The outcome's flat distance arena is moved into
/// the oracle — no per-row allocation and no n² copy.
pub trait IntoOracle<W: Weight> {
    /// Consumes the APSP solution and builds a query-ready [`Oracle`]
    /// over the graph it was computed on.
    ///
    /// # Panics
    /// Panics if the solution was not computed on `g` (see
    /// [`Oracle::from_dist`]).
    fn into_oracle(self, g: &Graph<W>) -> Oracle<W>;
}

impl<W: Weight> IntoOracle<W> for ApspOutcome<W> {
    fn into_oracle(self, g: &Graph<W>) -> Oracle<W> {
        Oracle::from_dist(g, self.dist)
    }
}

/// Derives the whole target-major successor plane of the row-major
/// distance arena `dist` from `g` (one reverse BFS per target, split over
/// `cores` as [`par_plane`] says), ticking the derivation counter once.
/// `Err((u, v))` names a pair whose distance the graph cannot realize:
/// [`Oracle::from_dist`] panics on it, and the v2 loader, whose input is
/// untrusted, returns a typed error.
pub(crate) fn derive_plane<W: Weight>(
    g: &Graph<W>,
    dist: &[W],
    cores: Cores,
) -> Result<Box<[NodeId]>, (NodeId, NodeId)> {
    DERIVATIONS.fetch_add(1, Ordering::Relaxed);
    let n = g.n();
    let mut succ = vec![NO_SUCC; n * n].into_boxed_slice();
    let mut cols: Vec<&mut [NodeId]> = succ.chunks_mut(n.max(1)).collect();
    let results = par_plane(n, cores, &mut cols, |v, col| {
        // δ(u, v) = dist[u*n + v]: gather target v's strided column once
        // so the dense-column kernel serves this path and the paged
        // backend alike.
        let dcol: Vec<W> = (0..n).map(|u| dist[u * n + v]).collect();
        derive_target_from_col(g, &dcol, v as NodeId, col).map_err(|u| (u, v as NodeId))
    });
    results.into_iter().collect::<Result<(), _>>()?;
    Ok(succ)
}

/// Reverse BFS over the shortest-path DAG toward target `v`, over a dense
/// distance column (`dcol[u]` = δ(u, v)): assigns `col[u]` = next hop from
/// `u`, layer by layer, so successor chains strictly decrease in hop level
/// (see module docs). Panic-free: `Err(u)` names a node whose finite
/// distance the graph's shortest-path DAG cannot realize (or vice versa) —
/// the matrix does not belong to this graph.
pub(crate) fn derive_target_from_col<W: Weight>(
    g: &Graph<W>,
    dcol: &[W],
    v: NodeId,
    col: &mut [NodeId],
) -> Result<(), NodeId> {
    let n = g.n();
    let mut done = vec![false; n];
    let mut queue: Vec<NodeId> = Vec::with_capacity(n);
    done[v as usize] = true;
    queue.push(v);
    let mut head = 0;
    while head < queue.len() {
        let w = queue[head];
        head += 1;
        let dw = dcol[w as usize];
        let (srcs, wts) = g.in_row(w);
        for (&u, &wt) in srcs.iter().zip(wts) {
            if done[u as usize] {
                continue;
            }
            let du = dcol[u as usize];
            if !du.is_inf() && du == wt.plus(dw) {
                done[u as usize] = true;
                col[u as usize] = w;
                queue.push(u);
            }
        }
    }
    // Every node with a finite distance must have been reached through the
    // DAG; otherwise the matrix does not belong to this graph.
    for u in 0..n {
        if u == v as usize {
            continue;
        }
        if dcol[u].is_inf() == (col[u] != NO_SUCC) {
            return Err(u as NodeId);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use congest_graph::seq::apsp_dijkstra;
    use congest_graph::Edge;

    fn diamond() -> Graph<u64> {
        Graph::from_edges(
            4,
            true,
            vec![Edge::new(0, 1, 1), Edge::new(1, 3, 1), Edge::new(0, 2, 5), Edge::new(2, 3, 1)],
        )
    }

    #[test]
    fn paths_on_diamond() {
        let g = diamond();
        let o = Oracle::from_dist(&g, apsp_dijkstra(&g));
        assert_eq!(o.distance(0, 3), 2);
        assert_eq!(o.path(0, 3), Some(vec![0, 1, 3]));
        assert_eq!(o.path(0, 0), Some(vec![0]));
        assert_eq!(o.path(3, 0), None); // directed: no way back
        assert_eq!(o.successor(0, 3), Some(1));
        assert_eq!(o.successor(3, 3), None);
    }

    #[test]
    fn zero_weight_cycle_terminates() {
        // 0 <-> 1 with zero weights, plus 1 -> 2: greedy successor choice
        // could loop 0 -> 1 -> 0 forever; the BFS derivation must not.
        let g = Graph::from_edges(
            3,
            true,
            vec![Edge::new(0, 1, 0u64), Edge::new(1, 0, 0), Edge::new(1, 2, 1), Edge::new(0, 2, 1)],
        );
        let o = Oracle::from_dist(&g, apsp_dijkstra(&g));
        for u in 0..3 {
            for v in 0..3 {
                let Some(p) = o.path(u, v) else {
                    // Only node 2 has no outgoing edges.
                    assert!(u == 2 && v != 2, "({u}, {v}) should be reachable");
                    continue;
                };
                assert_eq!(p[0], u);
                assert_eq!(*p.last().unwrap(), v);
                assert!(p.len() <= 3);
            }
        }
    }

    #[test]
    fn k_nearest_sorted_and_bounded() {
        let g = gnm_connected(20, 40, true, WeightDist::Uniform(1, 9), 3);
        let o = Oracle::from_dist(&g, apsp_dijkstra(&g));
        for u in 0..20u32 {
            let near = o.k_nearest(u, 5);
            assert!(near.len() <= 5);
            assert!(near.windows(2).all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0)));
            assert!(near.iter().all(|&(v, d)| v != u && d == o.distance(u, v)));
            // must be the 5 smallest: every excluded node is >= the last kept
            if let Some(&(_, worst)) = near.last() {
                let kept: Vec<NodeId> = near.iter().map(|&(v, _)| v).collect();
                for v in 0..20u32 {
                    if v != u && !kept.contains(&v) && !o.distance(u, v).is_inf() {
                        assert!(o.distance(u, v) >= worst);
                    }
                }
            }
        }
        assert!(o.k_nearest(0, 0).is_empty());
        assert_eq!(o.k_nearest(0, 100).len(), 19); // everyone reachable, minus self
                                                   // A hostile k must not pre-allocate k heap slots.
        assert_eq!(o.k_nearest(0, usize::MAX).len(), 19);
    }

    #[test]
    fn single_node_graph() {
        let g: Graph<u64> = Graph::from_edges(1, true, vec![]);
        let o = Oracle::from_dist(&g, apsp_dijkstra(&g));
        assert_eq!(o.n(), 1);
        assert_eq!(o.path(0, 0), Some(vec![0]));
        assert!(o.k_nearest(0, 3).is_empty());
    }

    #[test]
    fn from_dist_moves_the_arena() {
        let g = diamond();
        let dist = apsp_dijkstra(&g);
        let ptr = dist.as_slice().as_ptr();
        let o = Oracle::from_dist(&g, dist);
        assert_eq!(o.dist_arena().as_ptr(), ptr, "arena must be moved, not copied");
    }

    #[test]
    fn supplied_successor_plane_is_adopted() {
        let g = diamond();
        // Derive once, then rebuild from a matrix carrying that plane: the
        // plane must be adopted by move and serve identical paths.
        let derived = Oracle::from_dist(&g, apsp_dijkstra(&g));
        let plane = derived.succ_arena().to_vec();
        let dist = apsp_dijkstra(&g).with_successors(plane);
        let succ_ptr = dist.successors().unwrap().as_ptr();
        let o = Oracle::from_dist(&g, dist);
        assert_eq!(o, derived);
        assert_eq!(o.succ_arena().as_ptr(), succ_ptr, "plane must be moved, not re-derived");
    }

    #[test]
    #[should_panic(expected = "does not reach its target")]
    fn cyclic_supplied_plane_rejected() {
        let g: Graph<u64> =
            Graph::from_edges(2, true, vec![Edge::new(0, 1, 1), Edge::new(1, 0, 1)]);
        // Toward target 1, node 0 names itself: the walk would never end.
        let dist = apsp_dijkstra(&g).with_successors(vec![NO_SUCC, 0, 0, NO_SUCC]);
        let _ = Oracle::from_dist(&g, dist);
    }

    #[test]
    #[should_panic(expected = "successor/distance mismatch")]
    fn mismatched_supplied_plane_rejected() {
        let g = diamond();
        // Reachable pair (0, 3) with no successor entry.
        let n = g.n();
        let dist = apsp_dijkstra(&g).with_successors(vec![NO_SUCC; n * n]);
        let _ = Oracle::from_dist(&g, dist);
    }

    #[test]
    #[should_panic(expected = "is not an edge of the graph")]
    fn non_edge_supplied_plane_rejected() {
        // Path 0 -> 1 -> 2; the plane claims 0 jumps straight to 2, which
        // telescopes distance-wise only if 0 -> 2 were an edge. It is not:
        // a plane for a different graph must not be adopted.
        let g: Graph<u64> =
            Graph::from_edges(3, true, vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1)]);
        let derived = Oracle::from_dist(&g, apsp_dijkstra(&g));
        let mut plane = derived.succ_arena().to_vec();
        plane[2 * 3] = 2; // toward target 2, from node 0: skip node 1
        let dist = apsp_dijkstra(&g).with_successors(plane);
        let _ = Oracle::from_dist(&g, dist);
    }

    #[test]
    #[should_panic(expected = "does not telescope")]
    fn non_shortest_supplied_plane_rejected() {
        // 0 -> 2 exists but costs 5; the shortest route is 0 -> 1 -> 2
        // (cost 2). A plane steering 0 directly to 2 names a real edge,
        // yet its weight cannot telescope against δ(0, 2) = 2.
        let g: Graph<u64> = Graph::from_edges(
            3,
            true,
            vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(0, 2, 5)],
        );
        let derived = Oracle::from_dist(&g, apsp_dijkstra(&g));
        let mut plane = derived.succ_arena().to_vec();
        plane[2 * 3] = 2; // toward target 2, from node 0: take the long edge
        let dist = apsp_dijkstra(&g).with_successors(plane);
        let _ = Oracle::from_dist(&g, dist);
    }

    /// Forged arenas (bypassing validation) with finite distances but a
    /// successor plane that cycles toward one target and dead-ends toward
    /// another — the shape a damaged snapshot would have.
    fn corrupt_oracle() -> Oracle<u64> {
        let n = 3;
        let dist = vec![0u64, 1, 1, 1, 0, 1, 1, 1, 0].into_boxed_slice();
        let mut succ = vec![NO_SUCC; n * n];
        let mut set = |v: usize, u: usize, s: NodeId| succ[v * n + u] = s;
        // target 0: valid chain 2 -> 1 -> 0
        set(0, 1, 0);
        set(0, 2, 1);
        // target 1: node 0 walks to 2, which has no successor (dead end)
        set(1, 0, 2);
        // target 2: nodes 0 and 1 name each other (cycle, defeats budget)
        set(2, 0, 1);
        set(2, 1, 0);
        Oracle::from_parts(n, dist, succ.into_boxed_slice())
    }

    #[test]
    fn try_path_reports_corruption_instead_of_panicking() {
        let o = corrupt_oracle();
        assert_eq!(o.try_path(2, 0), Ok(Some(vec![2, 1, 0])));
        assert_eq!(o.try_path(1, 1), Ok(Some(vec![1])));
        assert_eq!(o.try_path(0, 1), Err(QueryError::CorruptSuccessors { u: 0, v: 1 }));
        assert_eq!(o.try_path(0, 2), Err(QueryError::CorruptSuccessors { u: 0, v: 2 }));
        assert_eq!(o.try_path(0, 9), Err(QueryError::NodeOutOfRange { node: 9, n: 3 }));
        assert_eq!(o.try_path(9, 0), Err(QueryError::NodeOutOfRange { node: 9, n: 3 }));
    }

    #[test]
    #[should_panic(expected = "corrupt successor matrix")]
    fn path_panics_on_corrupt_plane() {
        let _ = corrupt_oracle().path(0, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn distance_bounds_checks_the_source() {
        let g = diamond();
        let o = Oracle::from_dist(&g, apsp_dijkstra(&g));
        // u = 4 with v in range: u*n + v would still land inside the
        // arena, so an unchecked read would return another row's entry.
        let _ = o.distance(4, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn successor_bounds_checked() {
        let g = diamond();
        let o = Oracle::from_dist(&g, apsp_dijkstra(&g));
        let _ = o.successor(4, 0); // must not silently read target 1's column
    }

    #[test]
    #[should_panic(expected = "inconsistent with graph")]
    fn foreign_matrix_rejected() {
        let g = diamond();
        // Matrix of a different graph: claims 3 -> 0 is reachable.
        let mut dist = apsp_dijkstra(&g);
        dist[3][0] = 7;
        let _ = Oracle::from_dist(&g, dist);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn nonzero_diagonal_rejected() {
        let g = diamond();
        let mut dist = apsp_dijkstra(&g);
        dist[1][1] = 1;
        let _ = Oracle::from_dist(&g, dist);
    }
}

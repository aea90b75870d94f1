//! Sequential reference shortest-path algorithms.
//!
//! These are the *correctness oracles* for the distributed algorithms: every
//! distributed APSP run is checked against [`apsp_dijkstra`], and every
//! h-hop structure against [`hop_limited_distances`] (which computes the
//! paper's `δ_h(u, v)` exactly via dynamic programming over hop counts).

use crate::graph::Graph;
use crate::matrix::DistMatrix;
use crate::weight::Weight;
use crate::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which adjacency to traverse.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges forward: distances *from* the source.
    Out,
    /// Follow edges backward: distances *to* the sink (the paper's in-SSSP).
    In,
}

fn neighbors<'a, W: Weight>(
    g: &'a Graph<W>,
    v: NodeId,
    dir: Direction,
) -> Box<dyn Iterator<Item = (NodeId, W)> + 'a> {
    match dir {
        Direction::Out => Box::new(g.out_edges(v)),
        Direction::In => Box::new(g.in_edges(v)),
    }
}

/// Single-source shortest path distances via Dijkstra (non-negative
/// weights). `dist[v] == W::INF` iff `v` is unreachable.
#[must_use]
pub fn dijkstra<W: Weight>(g: &Graph<W>, source: NodeId, dir: Direction) -> Vec<W> {
    let mut dist = vec![W::INF; g.n()];
    let mut heap: BinaryHeap<Reverse<(W, NodeId)>> = BinaryHeap::new();
    dist[source as usize] = W::ZERO;
    heap.push(Reverse((W::ZERO, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (w, wt) in neighbors(g, v, dir) {
            let nd = d.plus(wt);
            if nd < dist[w as usize] {
                dist[w as usize] = nd;
                heap.push(Reverse((nd, w)));
            }
        }
    }
    dist
}

/// Exact APSP matrix (`dist[x][t] = δ(x, t)`) via one Dijkstra per source,
/// written straight into a flat [`DistMatrix`] arena.
#[must_use]
pub fn apsp_dijkstra<W: Weight>(g: &Graph<W>) -> DistMatrix<W> {
    let n = g.n();
    let mut data = Vec::with_capacity(n * n);
    for s in 0..n as NodeId {
        data.extend_from_slice(&dijkstra(g, s, Direction::Out));
    }
    DistMatrix::from_flat(n, n, data)
}

/// Exact APSP via Floyd–Warshall; an independent oracle used to
/// cross-validate [`apsp_dijkstra`] in tests.
#[must_use]
pub fn floyd_warshall<W: Weight>(g: &Graph<W>) -> DistMatrix<W> {
    let n = g.n();
    let mut d = DistMatrix::square(n, W::INF);
    for v in 0..n {
        d.set(v, v, W::ZERO);
    }
    for v in 0..n as NodeId {
        for (t, w) in g.out_edges(v) {
            if w < d.get(v as usize, t as usize) {
                d.set(v as usize, t as usize, w);
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            if d.get(i, k).is_inf() {
                continue;
            }
            for j in 0..n {
                let via = d.get(i, k).plus(d.get(k, j));
                if via < d.get(i, j) {
                    d.set(i, j, via);
                }
            }
        }
    }
    d
}

/// `δ_h` — the minimum weight of a path with **at most h hops** from (or
/// to, per `dir`) `source`, via DP over hop counts in O(h·m).
///
/// `result[v] == W::INF` iff no ≤h-hop path exists.
#[must_use]
pub fn hop_limited_distances<W: Weight>(
    g: &Graph<W>,
    source: NodeId,
    h: usize,
    dir: Direction,
) -> Vec<W> {
    let n = g.n();
    let mut cur = vec![W::INF; n];
    cur[source as usize] = W::ZERO;
    let mut next = cur.clone();
    for _ in 0..h {
        for v in 0..n as NodeId {
            if cur[v as usize].is_inf() {
                continue;
            }
            for (t, w) in neighbors(g, v, dir) {
                let nd = cur[v as usize].plus(w);
                if nd < next[t as usize] {
                    next[t as usize] = nd;
                }
            }
        }
        cur.copy_from_slice(&next);
    }
    cur
}

/// For every node: the minimum hop count among all ≤h-hop paths from
/// `source` achieving `δ_h`; `None` if unreachable within h hops.
///
/// Used to validate CSSSP tree depths (a vertex must appear at its minimal
/// optimal depth).
#[must_use]
pub fn hop_limited_min_hops<W: Weight>(
    g: &Graph<W>,
    source: NodeId,
    h: usize,
    dir: Direction,
) -> Vec<Option<usize>> {
    let n = g.n();
    // per_hop[k][v] = best distance with <= k hops
    let mut per_hop = Vec::with_capacity(h + 1);
    let mut cur = vec![W::INF; n];
    cur[source as usize] = W::ZERO;
    per_hop.push(cur.clone());
    let mut next = cur.clone();
    for _ in 0..h {
        for v in 0..n as NodeId {
            if cur[v as usize].is_inf() {
                continue;
            }
            for (t, w) in neighbors(g, v, dir) {
                let nd = cur[v as usize].plus(w);
                if nd < next[t as usize] {
                    next[t as usize] = nd;
                }
            }
        }
        cur.copy_from_slice(&next);
        per_hop.push(cur.clone());
    }
    (0..n)
        .map(|v| {
            let best = per_hop[h][v];
            if best.is_inf() {
                None
            } else {
                Some((0..=h).find(|&k| per_hop[k][v] == best).expect("monotone DP"))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gnm_connected, path, Family, WeightDist};
    use crate::graph::Edge;

    #[test]
    fn dijkstra_diamond() {
        let g = Graph::from_edges(
            4,
            true,
            vec![Edge::new(0, 1, 1u64), Edge::new(1, 3, 1), Edge::new(0, 2, 5), Edge::new(2, 3, 1)],
        );
        assert_eq!(dijkstra(&g, 0, Direction::Out), vec![0, 1, 5, 2]);
        assert_eq!(dijkstra(&g, 3, Direction::In), vec![2, 1, 1, 0]);
        assert_eq!(dijkstra(&g, 3, Direction::Out), vec![u64::INF, u64::INF, u64::INF, 0]);
    }

    #[test]
    fn dijkstra_matches_floyd_warshall_on_families() {
        for fam in Family::ALL {
            let g = fam.build(20, true, WeightDist::Uniform(0, 7), 11);
            let a = apsp_dijkstra(&g);
            let b = floyd_warshall(&g);
            assert_eq!(a, b, "family {}", fam.name());
        }
    }

    #[test]
    fn hop_limited_converges_to_exact() {
        let g = gnm_connected(25, 50, true, WeightDist::Uniform(1, 9), 5);
        let exact = dijkstra(&g, 0, Direction::Out);
        let hop_n = hop_limited_distances(&g, 0, g.n(), Direction::Out);
        assert_eq!(exact, hop_n);
    }

    #[test]
    fn hop_limited_truncates() {
        let g = path(5, true, WeightDist::Unit, 0);
        let d2 = hop_limited_distances(&g, 0, 2, Direction::Out);
        assert_eq!(d2, vec![0, 1, 2, u64::INF, u64::INF]);
        let din = hop_limited_distances(&g, 4, 2, Direction::In);
        assert_eq!(din, vec![u64::INF, u64::INF, 2, 1, 0]);
    }

    #[test]
    fn hop_limited_monotone_in_h() {
        let g = gnm_connected(20, 40, false, WeightDist::Uniform(0, 5), 9);
        let mut prev = hop_limited_distances(&g, 3, 0, Direction::Out);
        for h in 1..g.n() {
            let cur = hop_limited_distances(&g, 3, h, Direction::Out);
            for v in 0..g.n() {
                assert!(cur[v] <= prev[v], "h-hop distance must be monotone in h");
            }
            prev = cur;
        }
    }

    #[test]
    fn min_hops_on_tie() {
        // Two equal-weight routes with different hop counts: 0->2 direct (w 2)
        // vs 0->1->2 (w 1+1). min hops at equal dist must be 1.
        let g = Graph::from_edges(
            3,
            true,
            vec![Edge::new(0, 1, 1u64), Edge::new(1, 2, 1), Edge::new(0, 2, 2)],
        );
        let hops = hop_limited_min_hops(&g, 0, 2, Direction::Out);
        assert_eq!(hops, vec![Some(0), Some(1), Some(1)]);
    }

    #[test]
    fn zero_weights_supported() {
        let g = Graph::from_edges(3, true, vec![Edge::new(0, 1, 0u64), Edge::new(1, 2, 0)]);
        assert_eq!(dijkstra(&g, 0, Direction::Out), vec![0, 0, 0]);
        assert_eq!(hop_limited_distances(&g, 0, 1, Direction::Out), vec![0, 0, u64::INF]);
    }

    #[test]
    fn f64_weights_work() {
        use crate::F64;
        let g = Graph::from_edges(
            3,
            true,
            vec![
                Edge::new(0, 1, F64::new(0.5)),
                Edge::new(1, 2, F64::new(0.25)),
                Edge::new(0, 2, F64::new(1.0)),
            ],
        );
        let d = dijkstra(&g, 0, Direction::Out);
        assert_eq!(d[2], F64::new(0.75));
    }
}

//! Pipelined aggregation and dissemination along a rooted spanning tree.
//!
//! These implement the communication skeletons of Algorithms 11/12
//! (Appendix A.5): a *k-vector convergecast* — every node holds a vector of
//! k values and the root learns their component-wise combination (a sum,
//! or any other associative and commutative operation) in O(height + k)
//! rounds — and the symmetric *stream broadcast* down the tree in
//! O(height + k) rounds. Each round a node forwards at most one component
//! per channel, which is what makes the paper's O(n)-round bound for n
//! sample points work (Lemmas A.13, A.14).

use crate::engine::{Engine, Envelope, NodeEnv, NodeLogic, Outbox, RunUntil, SimConfig, Topology};
use crate::error::SimError;
use crate::metrics::PhaseReport;
use crate::primitives::bfs::BfsTree;
use congest_graph::NodeId;

struct ConvNode<T> {
    /// Channel index of the parent (precomputed; `None` at the root).
    parent_ni: Option<usize>,
    n_children: usize,
    /// Running partial combinations; own contribution pre-loaded.
    acc: Vec<T>,
    /// How many children have reported each component.
    reported: Vec<usize>,
    next_send: usize,
    combine: fn(T, T) -> T,
}

impl<T: Copy + 'static> NodeLogic for ConvNode<T> {
    type Msg = (u32, T);

    fn on_round(
        &mut self,
        _env: &NodeEnv<'_>,
        inbox: &[Envelope<(u32, T)>],
        out: &mut Outbox<'_, (u32, T)>,
    ) {
        for e in inbox {
            let (mu, partial) = e.msg;
            let mu = mu as usize;
            self.acc[mu] = (self.combine)(self.acc[mu], partial);
            self.reported[mu] += 1;
        }
        if let Some(ni) = self.parent_ni {
            if self.next_send < self.acc.len() && self.reported[self.next_send] == self.n_children {
                out.send_nbr(ni, (self.next_send as u32, self.acc[self.next_send]));
                self.next_send += 1;
            }
        }
    }

    fn active(&self) -> bool {
        self.parent_ni.is_some() && self.next_send < self.acc.len()
    }

    fn msg_words(&self, _msg: &Self::Msg) -> u32 {
        // Component index + a one-word partial; a single component needs
        // no index, so a two-word partial such as a (j, count) pair fits
        // the same two words.
        2
    }
}

/// Convergecast: the component-wise `combine` of each node's `vals`
/// vector, delivered at the tree root. `combine` must be associative and
/// commutative (a sum, a maximum, ...). All vectors must share one length
/// k; the run takes O(height + k) rounds and sends k messages per tree
/// edge.
///
/// # Errors
/// Propagates engine errors.
pub fn convergecast_sum<T: Copy + 'static>(
    topo: &Topology,
    cfg: SimConfig,
    tree: &BfsTree,
    vals: Vec<Vec<T>>,
    combine: fn(T, T) -> T,
    until: RunUntil,
) -> Result<(Vec<T>, PhaseReport), SimError> {
    let n = topo.n();
    assert_eq!(vals.len(), n);
    let k = vals.first().map(Vec::len).unwrap_or(0);
    assert!(vals.iter().all(|v| v.len() == k), "all vectors must have length k");
    let engine = Engine::new(topo, cfg);
    let mut nodes: Vec<ConvNode<T>> = vals
        .into_iter()
        .enumerate()
        .map(|(i, v)| ConvNode {
            parent_ni: tree.parent[i].map(|p| {
                topo.neighbors(i as NodeId).binary_search(&p).expect("tree parent is a neighbor")
            }),
            n_children: tree.children[i].len(),
            acc: v,
            reported: vec![0; k],
            next_send: 0,
            combine,
        })
        .collect();
    let report = engine.run(&mut nodes, until)?;
    let root_acc = std::mem::take(&mut nodes[tree.root as usize].acc);
    Ok((root_acc, report))
}

/// Default quiescence budget for [`convergecast_sum`].
#[must_use]
pub fn convergecast_budget(tree: &BfsTree, k: usize) -> u64 {
    2 * (tree.height() + k as u64) + 8
}

struct StreamNode<T> {
    /// Channel indices of the tree children (precomputed).
    children_ni: Vec<usize>,
    /// Items received (or originated), in index order.
    received: Vec<T>,
    /// Next item index to forward to children.
    next_fwd: usize,
}

impl<T: Clone + 'static> NodeLogic for StreamNode<T> {
    type Msg = (u32, T);

    fn on_round(
        &mut self,
        _env: &NodeEnv<'_>,
        inbox: &[Envelope<(u32, T)>],
        out: &mut Outbox<'_, (u32, T)>,
    ) {
        // Fault-free, items arrive in index order. A lost one shifts every
        // later item, and the fault counters reject that run: no check here,
        // so a faulted run ends alike in debug and release builds.
        for e in inbox {
            self.received.push(e.msg.1.clone());
        }
        if self.next_fwd < self.received.len() && !self.children_ni.is_empty() {
            let item = self.received[self.next_fwd].clone();
            for i in 0..self.children_ni.len() {
                out.send_nbr(self.children_ni[i], (self.next_fwd as u32, item.clone()));
            }
            self.next_fwd += 1;
        }
    }

    fn active(&self) -> bool {
        !self.children_ni.is_empty() && self.next_fwd < self.received.len()
    }

    fn msg_words(&self, _msg: &Self::Msg) -> u32 {
        2 // stream index + item
    }
}

/// Broadcasts `values` from the tree root to every node, pipelined one item
/// per round per channel: O(height + k) rounds (Lemma A.1 shape). Returns
/// each node's received values (== `values` everywhere) and the report.
///
/// # Errors
/// Propagates engine errors.
pub fn broadcast_stream<T: Clone + 'static>(
    topo: &Topology,
    cfg: SimConfig,
    tree: &BfsTree,
    values: Vec<T>,
) -> Result<(Vec<Vec<T>>, PhaseReport), SimError> {
    let n = topo.n();
    let k = values.len();
    let engine = Engine::new(topo, cfg);
    let mut nodes: Vec<StreamNode<T>> = (0..n)
        .map(|i| StreamNode {
            children_ni: tree.children[i]
                .iter()
                .map(|c| {
                    topo.neighbors(i as NodeId).binary_search(c).expect("tree child is a neighbor")
                })
                .collect(),
            received: if i as NodeId == tree.root { values.clone() } else { Vec::new() },
            next_fwd: 0,
        })
        .collect();
    let budget = 2 * (tree.height() + k as u64) + 8;
    let report = engine.run(&mut nodes, RunUntil::Quiesce { max: budget })?;
    Ok((nodes.into_iter().map(|nd| nd.received).collect(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::bfs::build_bfs_tree;
    use congest_graph::generators::{gnm_connected, path, WeightDist};

    fn setup(n: usize, extra: usize, seed: u64) -> (Topology, BfsTree) {
        let g = gnm_connected(n, extra, false, WeightDist::Unit, seed);
        let topo = Topology::from_graph(&g);
        let (tree, _) = build_bfs_tree(&topo, SimConfig::default(), 0).unwrap();
        (topo, tree)
    }

    #[test]
    fn convergecast_sums_correct() {
        let (topo, tree) = setup(20, 30, 4);
        let k = 7;
        let vals: Vec<Vec<u64>> =
            (0..20).map(|i| (0..k).map(|mu| (i * 10 + mu) as u64).collect()).collect();
        let expected: Vec<u64> =
            (0..k).map(|mu| (0..20).map(|i| (i * 10 + mu) as u64).sum()).collect();
        let budget = convergecast_budget(&tree, k);
        let (sums, report) = convergecast_sum(
            &topo,
            SimConfig::default(),
            &tree,
            vals,
            |a, b| a + b,
            RunUntil::Quiesce { max: budget },
        )
        .unwrap();
        assert_eq!(sums, expected);
        assert!(report.rounds <= budget);
    }

    #[test]
    fn convergecast_pipelines_on_path() {
        // Path of n nodes, k components: rounds must be O(n + k), not n*k.
        let g = path(30, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let (tree, _) = build_bfs_tree(&topo, SimConfig::default(), 0).unwrap();
        let k = 40;
        let vals: Vec<Vec<u64>> = (0..30).map(|_| vec![1u64; k]).collect();
        let (sums, report) = convergecast_sum(
            &topo,
            SimConfig::default(),
            &tree,
            vals,
            |a, b| a + b,
            RunUntil::Quiesce { max: convergecast_budget(&tree, k) },
        )
        .unwrap();
        assert_eq!(sums, vec![30u64; k]);
        assert!(
            report.rounds <= (30 + 40) as u64 + 8,
            "pipelining violated: rounds = {}",
            report.rounds
        );
    }

    #[test]
    fn convergecast_k_zero() {
        let (topo, tree) = setup(8, 8, 1);
        let vals: Vec<Vec<u64>> = vec![Vec::new(); 8];
        let (sums, _) = convergecast_sum(
            &topo,
            SimConfig::default(),
            &tree,
            vals,
            |a, b| a + b,
            RunUntil::Quiesce { max: 64 },
        )
        .unwrap();
        assert!(sums.is_empty());
    }

    #[test]
    fn broadcast_stream_delivers_in_order() {
        let (topo, tree) = setup(15, 20, 2);
        let values: Vec<u64> = (100..130).collect();
        let (received, report) =
            broadcast_stream(&topo, SimConfig::default(), &tree, values.clone()).unwrap();
        for r in &received {
            assert_eq!(r, &values);
        }
        assert!(report.rounds <= 2 * (tree.height() + 30) + 8);
    }

    #[test]
    fn broadcast_stream_pipelines_on_path() {
        let g = path(25, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let (tree, _) = build_bfs_tree(&topo, SimConfig::default(), 0).unwrap();
        let values: Vec<u32> = (0..60).collect();
        let (received, report) =
            broadcast_stream(&topo, SimConfig::default(), &tree, values.clone()).unwrap();
        assert!(received.iter().all(|r| r == &values));
        assert!(report.rounds <= (25 + 60) as u64 + 8, "rounds = {}", report.rounds);
    }
}

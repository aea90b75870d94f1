//! Pipelined flooding broadcast with duplicate suppression.
//!
//! Implements the broadcast primitives of Appendix A.1:
//!
//! * Lemma A.1 — one node broadcasts k values in O(n + k) rounds;
//! * Lemma A.2 — every node broadcasts one (or a few) values, all delivered
//!   everywhere in O(n) rounds.
//!
//! Both are instances of the same mechanism: every node keeps a log of the
//! items it knows, in discovery order; each round it forwards, on every
//! channel, the next logged item the peer is not yet known to have. Each
//! channel carries one message a round and an item crosses it at most
//! once per direction, so all K items reach all nodes within O(K + D)
//! rounds — the standard pipelined-flooding bound.
//!
//! ## Keys
//!
//! Duplicate suppression goes through a caller-supplied `key: Fn(&T) ->
//! usize`, never through the item's value. The key contract:
//!
//! * **dense** — keys are small integers (a node id, or a row-major index
//!   into the table being broadcast), because the key-to-index map is
//!   sized by the largest key;
//! * **one payload per key** — two items with equal keys are the same
//!   item. The first one counts and the rest are dropped.
//!
//! The key runs once per initial item, before the first round: the first
//! item with a given key gets the next dense item index, and from then on
//! the protocol moves indices. A message is one index, charged
//! `item_words` like the item it names, so rounds, messages and payload
//! words are those of flooding the items themselves.
//!
//! ## Memory
//!
//! Each distinct item is held once per flood, in the table that
//! [`FloodLogs`] returns. Each node holds (1 + degree) bitsets over the K
//! item indices: one "seen" set and, per channel, one "peer already has
//! it" set. Of its discovery-order log it keeps only a **window**, a tail
//! that holds every entry some channel cursor has yet to pass. When a full
//! window needs room for a new item, it drops the prefix every cursor has
//! passed if that prefix is at least half the window, and otherwise
//! doubles its room, capped at K entries. So a node costs (1 + degree)·K
//! bits plus at most 4·K bytes, whatever the size of an item, and what the
//! window really takes depends on the topology:
//!
//! * on a tree, each channel's cursor keeps pace with what arrives, so a
//!   hub holds about one window and a leaf, whose one peer sent it nearly
//!   everything it knows, almost nothing;
//! * on a well-connected graph, slow channels hold their cursors far
//!   back, and windows stay close to K entries.
//!
//! Once the flood ends, the "seen" sets are the result: a node's log is
//! the set of items it learned, in item-index order. The "one payload per
//! key" contract is what makes the single shared copy exact: every node
//! that learns a key would have kept a copy equal to it.

use crate::bitset::BitSet;
use crate::engine::{Engine, Envelope, NodeEnv, NodeLogic, Outbox, RunUntil, SimConfig, Topology};
use crate::error::SimError;
use crate::metrics::PhaseReport;
use congest_graph::NodeId;

/// What a flood delivered: every distinct item once, plus the set of
/// items each node learned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FloodLogs<T> {
    /// Distinct items by index: the first initial item with each key.
    items: Vec<T>,
    /// Per node: the indices of the items it learned.
    seen: Vec<BitSet>,
}

impl<T> FloodLogs<T> {
    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.seen.len()
    }

    /// The distinct items node `v` learned, each once, in item-index order
    /// (the order in which their keys first appear among the initial
    /// items, taken node by node).
    pub fn log(&self, v: NodeId) -> impl Iterator<Item = &T> + '_ {
        self.seen[v as usize].ones().map(|i| &self.items[i])
    }

    /// Number of distinct items node `v` learned.
    #[must_use]
    pub fn log_len(&self, v: NodeId) -> usize {
        self.seen[v as usize].count()
    }

    /// Number of distinct items the flood was seeded with, the length of
    /// a complete log.
    #[must_use]
    pub fn item_count(&self) -> usize {
        self.items.len()
    }
}

struct FloodNode {
    /// The tail of the discovery-order log of known item indices: every
    /// entry some channel cursor has yet to pass, after a passed prefix
    /// that a full window drops.
    window: Vec<u32>,
    /// The indices in the log.
    seen: BitSet,
    /// Per neighbor (by position in the env neighbor list): indices the
    /// peer is known to have (either we sent them or they sent them).
    peer_knows: Vec<BitSet>,
    /// Per neighbor: scan position in `window`.
    cursor: Vec<usize>,
    /// Number of distinct items, K: the log never grows past it.
    items: usize,
    /// On-wire width of one item, in machine words (protocol-wide).
    item_words: u32,
}

impl FloodNode {
    /// A node that starts out knowing `own` among `items` distinct items.
    fn new(own: Vec<u32>, degree: usize, items: usize, item_words: u32) -> Self {
        let none = BitSet::with_capacity(items);
        let mut node = FloodNode {
            window: Vec::new(),
            seen: none.clone(),
            peer_knows: vec![none; degree],
            cursor: vec![0; degree],
            items,
            item_words,
        };
        for i in own {
            node.learn(i);
        }
        node
    }

    /// Logs item `i` unless it is already known.
    fn learn(&mut self, i: u32) {
        if self.seen.insert(i as usize) {
            if self.window.len() == self.window.capacity() {
                self.make_room();
            }
            self.window.push(i);
        }
    }

    /// Makes room in a full window: drops the prefix every cursor has
    /// passed if it is at least half the window, else doubles the room,
    /// up to K entries.
    fn make_room(&mut self) {
        let len = self.window.len();
        let passed = self.cursor.iter().copied().min().unwrap_or(len);
        if passed > 0 && 2 * passed >= len {
            self.window.drain(..passed);
            for c in &mut self.cursor {
                *c -= passed;
            }
        } else {
            self.window.reserve_exact((2 * len).max(4).min(self.items) - len);
        }
    }
}

impl NodeLogic for FloodNode {
    type Msg = u32;

    fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<u32>], out: &mut Outbox<'_, u32>) {
        // Receive first: dedup and remember that the sender knows the item.
        for e in inbox {
            self.learn(e.msg);
            let ni = env.neighbor_index(e.from).expect("sender is a neighbor");
            self.peer_knows[ni].insert(e.msg as usize);
        }
        // Send: for each channel, the first known item the peer lacks.
        for ni in 0..env.neighbors.len() {
            while let Some(&i) = self.window.get(self.cursor[ni]) {
                self.cursor[ni] += 1;
                if self.peer_knows[ni].insert(i as usize) {
                    out.send_nbr(ni, i);
                    break;
                }
            }
        }
    }

    fn active(&self) -> bool {
        self.cursor
            .iter()
            .zip(&self.peer_knows)
            .any(|(&c, knows)| self.window[c..].iter().any(|&i| !knows.get(i as usize)))
    }

    fn msg_words(&self, _msg: &u32) -> u32 {
        self.item_words
    }
}

/// Floods every node's initial items to all nodes. Returns the distinct
/// items each node learned (see [`FloodLogs`]) and the phase report.
///
/// `item_words` is the on-wire width of one item in O(log n)-bit machine
/// words (each id/weight field counts as one word); it only affects the
/// payload accounting, never the protocol. `key` maps every item to a
/// small integer, one per distinct item: equal keys are the same item (see
/// the module docs).
///
/// # Errors
/// Propagates engine errors; `budget` bounds the rounds (callers typically
/// pass the analytical O(K + n) bound).
///
/// # Panics
/// Panics if there are more than `u32::MAX` distinct items.
pub fn flood_broadcast<T>(
    topo: &Topology,
    cfg: SimConfig,
    initial: Vec<Vec<T>>,
    item_words: u32,
    key: impl Fn(&T) -> usize,
    until: RunUntil,
) -> Result<(FloodLogs<T>, PhaseReport), SimError> {
    const UNSEEN: u32 = u32::MAX;
    let n = topo.n();
    assert_eq!(initial.len(), n);
    let mut items = Vec::with_capacity(initial.iter().map(Vec::len).sum());
    let mut index_of: Vec<u32> = Vec::new();
    let mut own: Vec<Vec<u32>> = Vec::with_capacity(n);
    for node_items in initial {
        let mut indices = Vec::with_capacity(node_items.len());
        for item in node_items {
            let k = key(&item);
            if k >= index_of.len() {
                index_of.resize(k + 1, UNSEEN);
            }
            if index_of[k] == UNSEEN {
                index_of[k] = u32::try_from(items.len()).expect("more than u32::MAX flood items");
                items.push(item);
            }
            indices.push(index_of[k]);
        }
        own.push(indices);
    }
    drop(index_of);
    let engine = Engine::new(topo, cfg);
    let mut nodes: Vec<FloodNode> = own
        .into_iter()
        .enumerate()
        .map(|(v, own)| FloodNode::new(own, topo.degree(v as NodeId), items.len(), item_words))
        .collect();
    let report = engine.run(&mut nodes, until)?;
    let seen = nodes.into_iter().map(|nd| nd.seen).collect();
    Ok((FloodLogs { items, seen }, report))
}

/// Convenience wrapper for the Lemma A.2 pattern (all-to-all broadcast with
/// a quiescence budget of `O(total items + n)`); `item_words` and `key` as
/// in [`flood_broadcast`].
///
/// # Errors
/// Propagates engine errors.
pub fn all_to_all_broadcast<T>(
    topo: &Topology,
    cfg: SimConfig,
    initial: Vec<Vec<T>>,
    item_words: u32,
    key: impl Fn(&T) -> usize,
) -> Result<(FloodLogs<T>, PhaseReport), SimError> {
    let total: usize = initial.iter().map(Vec::len).sum();
    let budget = 4 * (total as u64 + topo.n() as u64) + 16;
    flood_broadcast(topo, cfg, initial, item_words, key, RunUntil::Quiesce { max: budget })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, path, star, WeightDist};
    use congest_graph::NodeId;

    /// Key of items that are their own key.
    fn id(x: &u32) -> usize {
        *x as usize
    }

    fn check_all_know_all(logs: &FloodLogs<u32>, expected: &mut Vec<u32>) {
        expected.sort_unstable();
        for v in 0..logs.n() as NodeId {
            let mut got: Vec<u32> = logs.log(v).copied().collect();
            got.sort_unstable();
            assert_eq!(&got, expected);
        }
    }

    #[test]
    fn single_source_k_values_on_path() {
        let g = path(8, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let k = 20u32;
        let mut initial: Vec<Vec<u32>> = vec![Vec::new(); 8];
        initial[0] = (0..k).collect();
        let (logs, report) =
            all_to_all_broadcast(&topo, SimConfig::default(), initial, 1, id).unwrap();
        check_all_know_all(&logs, &mut (0..k).collect());
        // Lemma A.1 shape: O(k + D) rounds.
        assert!(report.rounds <= (k as u64 + 8) + 8, "rounds = {}", report.rounds);
    }

    #[test]
    fn all_to_all_one_value_each() {
        let g = gnm_connected(24, 48, false, WeightDist::Unit, 5);
        let topo = Topology::from_graph(&g);
        let initial: Vec<Vec<u32>> = (0..24).map(|i| vec![i as u32]).collect();
        let (logs, report) =
            all_to_all_broadcast(&topo, SimConfig::default(), initial, 1, id).unwrap();
        check_all_know_all(&logs, &mut (0..24).collect());
        // Lemma A.2 shape: O(n) rounds.
        assert!(report.rounds <= 4 * 24, "rounds = {}", report.rounds);
    }

    #[test]
    fn duplicates_deduplicated() {
        let g = star(6, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        // every node starts with the same item (so the same key) plus one
        // unique item
        let initial: Vec<Vec<u32>> = (0..6).map(|i| vec![999, i as u32]).collect();
        let (logs, _) = all_to_all_broadcast(&topo, SimConfig::default(), initial, 1, id).unwrap();
        check_all_know_all(&logs, &mut vec![999, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn log_is_the_distinct_items_in_index_order() {
        let g = path(3, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        // Keys first appear, node by node, as 30, 10, 20, 11: that is the
        // item-index order. Node 2 discovers its own 11 first, and 10 is
        // one item though two nodes start with it.
        let initial = vec![vec![30u32, 10], vec![20, 10], vec![11]];
        let (logs, _) = all_to_all_broadcast(&topo, SimConfig::default(), initial, 1, id).unwrap();
        for v in 0..3 {
            assert_eq!(logs.log(v).copied().collect::<Vec<_>>(), [30, 10, 20, 11], "node {v}");
            assert_eq!(logs.log_len(v), 4);
        }
    }

    #[test]
    fn empty_broadcast_terminates_immediately() {
        let g = path(4, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let initial: Vec<Vec<u32>> = vec![Vec::new(); 4];
        let (logs, report) =
            all_to_all_broadcast(&topo, SimConfig::default(), initial, 1, id).unwrap();
        assert!((0..4).all(|v| logs.log_len(v) == 0));
        assert!(report.rounds <= 1);
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn deterministic_logs() {
        let g = gnm_connected(16, 30, false, WeightDist::Unit, 9);
        let topo = Topology::from_graph(&g);
        let initial: Vec<Vec<u32>> = (0..16).map(|i| vec![i as u32 * 7]).collect();
        let (a, ra) =
            all_to_all_broadcast(&topo, SimConfig::default(), initial.clone(), 1, id).unwrap();
        let (b, rb) = all_to_all_broadcast(&topo, SimConfig::default(), initial, 1, id).unwrap();
        assert_eq!(a, b);
        assert_eq!(ra.rounds, rb.rounds);
        assert_eq!(ra.messages, rb.messages);
    }

    #[test]
    fn messages_carry_indices_but_charge_item_words() {
        // Three-word table items: the wire carries indices, the accounting
        // charges every message the item's width.
        let g = gnm_connected(12, 20, false, WeightDist::Unit, 3);
        let topo = Topology::from_graph(&g);
        let initial: Vec<Vec<(NodeId, u32, u64)>> =
            (0..12).map(|v| (0..3).map(|k| (v, k, u64::from(v * k))).collect()).collect();
        let (logs, report) = all_to_all_broadcast(&topo, SimConfig::default(), initial, 3, |t| {
            t.0 as usize * 3 + t.1 as usize
        })
        .unwrap();
        assert!((0..12).all(|v| logs.log_len(v) == 36));
        assert!(logs.log(5).all(|&(v, k, d)| d == u64::from(v * k)));
        assert_eq!(report.payload_words, 3 * report.messages);
        assert_eq!(report.max_msg_words, 3);
    }

    #[test]
    fn finishes_within_its_analytical_budget() {
        // Exact-mode run with the analytical budget must succeed.
        let g = path(6, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let initial: Vec<Vec<u32>> = (0..6).map(|i| vec![i as u32]).collect();
        let budget = 4 * (6 + 6) + 16;
        let (_, report) =
            flood_broadcast(&topo, SimConfig::default(), initial, 1, id, RunUntil::Exact(budget))
                .unwrap();
        assert_eq!(report.rounds, budget);
    }

    #[test]
    fn large_payload_pipelines() {
        // K values from each endpoint of a path cross the middle: rounds
        // should be ~2K + n, not K * n.
        let g = path(10, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let mut initial: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); 10];
        initial[0] = (0..50).map(|k| (0, k)).collect();
        initial[9] = (0..50).map(|k| (9, k)).collect();
        let key = |&(v, k): &(NodeId, u32)| v as usize * 50 + k as usize;
        let (logs, report) =
            all_to_all_broadcast(&topo, SimConfig::default(), initial, 1, key).unwrap();
        assert!((0..10).all(|v| logs.log_len(v) == 100));
        assert!(report.rounds <= 2 * 50 + 3 * 10, "rounds = {}", report.rounds);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every item reaches every node, regardless of topology, item
        /// distribution, or duplication.
        #[test]
        fn flood_is_complete(
            n in 2usize..20,
            extra in 0usize..30,
            seed in 0u64..1000,
            items in proptest::collection::vec((0usize..20, 0u32..50), 0..30),
        ) {
            let g = gnm_connected(n, extra, false, WeightDist::Unit, seed);
            let topo = Topology::from_graph(&g);
            let mut initial: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut expected: Vec<u32> = Vec::new();
            for (slot, item) in items {
                initial[slot % n].push(item);
                expected.push(item);
            }
            expected.sort_unstable();
            expected.dedup();
            let (logs, report) =
                all_to_all_broadcast(&topo, SimConfig::default(), initial, 1, |&x| x as usize)
                    .unwrap();
            for v in 0..n as NodeId {
                let mut got: Vec<u32> = logs.log(v).copied().collect();
                got.sort_unstable();
                prop_assert_eq!(&got, &expected);
            }
            // Lemma A.1/A.2 shape: O(K + n) rounds.
            prop_assert!(report.rounds <= 4 * (expected.len() as u64 + n as u64) + 16);
        }

        /// An item never crosses one channel direction twice (duplicate
        /// suppression): total messages ≤ items × channels × 2.
        #[test]
        fn flood_message_bound(
            n in 2usize..16,
            extra in 0usize..20,
            seed in 0u64..1000,
            k in 1usize..10,
        ) {
            let g = gnm_connected(n, extra, false, WeightDist::Unit, seed);
            let topo = Topology::from_graph(&g);
            let mut initial: Vec<Vec<u32>> = vec![Vec::new(); n];
            initial[0] = (0..k as u32).collect();
            let channels: usize = (0..n as congest_graph::NodeId)
                .map(|v| topo.neighbors(v).len())
                .sum();
            let (_, report) =
                all_to_all_broadcast(&topo, SimConfig::default(), initial, 1, |&x| x as usize)
                    .unwrap();
            prop_assert!(report.messages <= (k * channels) as u64);
        }
    }
}

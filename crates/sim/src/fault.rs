//! Deterministic fault injection for the message plane.
//!
//! Production networks drop frames, corrupt payloads, crash nodes, and
//! flap links; the CONGEST analyses assume none of that. This module
//! models those failures *deterministically*: every fault decision is a
//! pure hash of `(seed, round, channel)` — no RNG state, no wall clock —
//! so a faulted run is exactly reproducible from its [`FaultSpec`], and a
//! retried phase can be re-seeded by salting the seed. A channel carries
//! at most one message per round, so `(round, channel)` names a message.
//!
//! Faults are injected at one place only — the delivery pass of the
//! engine's message plane (plus a per-round crash predicate) — so every
//! primitive and every algorithm built on [`crate::Engine`] inherits them
//! without per-call-site changes:
//!
//! * **Message drop** — a queued message silently vanishes in transit.
//! * **Payload corruption** — the receiver's
//!   [`NodeLogic::corrupt_msg`](crate::NodeLogic::corrupt_msg) hook
//!   mutates the payload in place (within the CONGEST word budget); if
//!   the protocol does not implement corruption, the frame is dropped
//!   instead (modeled as a failed payload checksum).
//! * **Node crash/restart** — a node skips whole rounds at round
//!   boundaries (warm restart: its local state survives, but it neither
//!   steps nor reads the messages that arrive while it is down).
//! * **Link flap** — an undirected link is down for a window of rounds;
//!   messages crossing it in either direction are lost.
//!
//! Rates are expressed in parts-per-million so a [`FaultSpec`] stays
//! `Copy` (it rides inside [`crate::SimConfig`]); crash and flap faults
//! are evaluated per *window* of rounds so an affected node/link stays
//! down for a contiguous stretch rather than blinking every round.

use congest_graph::NodeId;

/// splitmix64 finalizer — the stateless mixing core of every fault
/// decision.
#[inline]
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mixes a salted seed with up to three decision coordinates.
#[inline]
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    splitmix(splitmix(splitmix(seed ^ a).wrapping_add(b)).wrapping_add(c))
}

/// `true` with probability `ppm / 1_000_000` under the hash `h`.
#[inline]
fn hits(h: u64, ppm: u32) -> bool {
    ppm > 0 && h % 1_000_000 < u64::from(ppm)
}

const DROP_SALT: u64 = 0xD509_7C3A_11E5_0B61;
const CORRUPT_SALT: u64 = 0xC0B2_9A17_55D3_4E8F;
const CRASH_SALT: u64 = 0x5C4A_8821_9D0E_F37B;
const FLAP_SALT: u64 = 0xF1A9_3D5C_07B6_42ED;

/// A seeded fault model: rates (parts per million) for each fault class
/// plus the window lengths for the stateful classes. `Copy` by design so
/// it can ride inside [`crate::SimConfig`] through every existing call
/// site.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Root seed of every fault decision.
    pub seed: u64,
    /// Per-message drop probability, in parts per million.
    pub drop_ppm: u32,
    /// Per-message corruption probability, in parts per million.
    pub corrupt_ppm: u32,
    /// Per-node per-window crash probability, in parts per million.
    pub crash_ppm: u32,
    /// Rounds per crash window (a crashed node is down for the whole
    /// window); clamped to at least 1.
    pub crash_window: u64,
    /// Per-link per-window flap probability, in parts per million.
    pub flap_ppm: u32,
    /// Rounds per flap window; clamped to at least 1.
    pub flap_window: u64,
}

impl FaultSpec {
    /// A spec with every rate zero (injects nothing until a rate is set).
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultSpec {
            seed,
            drop_ppm: 0,
            corrupt_ppm: 0,
            crash_ppm: 0,
            crash_window: 4,
            flap_ppm: 0,
            flap_window: 4,
        }
    }

    /// Sets the per-message drop rate.
    #[must_use]
    pub fn drops(mut self, ppm: u32) -> Self {
        self.drop_ppm = ppm;
        self
    }

    /// Sets the per-message corruption rate.
    #[must_use]
    pub fn corruption(mut self, ppm: u32) -> Self {
        self.corrupt_ppm = ppm;
        self
    }

    /// Sets the per-node crash rate and the crash window length in rounds.
    #[must_use]
    pub fn crashes(mut self, ppm: u32, window: u64) -> Self {
        self.crash_ppm = ppm;
        self.crash_window = window.max(1);
        self
    }

    /// Sets the per-link flap rate and the flap window length in rounds.
    #[must_use]
    pub fn flaps(mut self, ppm: u32, window: u64) -> Self {
        self.flap_ppm = ppm;
        self.flap_window = window.max(1);
        self
    }

    /// A spec with the same rates under an independent seed — the
    /// recovery path salts retries with this so a retried phase does not
    /// replay the identical fault pattern forever.
    #[must_use]
    pub fn reseeded(self, salt: u64) -> Self {
        FaultSpec { seed: splitmix(self.seed ^ salt), ..self }
    }

    /// `true` iff any rate is non-zero. An all-zero spec is a no-op and
    /// the engine takes the exact fault-free code path for it.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.drop_ppm > 0 || self.corrupt_ppm > 0 || self.crash_ppm > 0 || self.flap_ppm > 0
    }
}

/// One scripted fault, for tests that need a specific failure at a
/// specific place (see [`FaultPlan::Script`]). Rounds are engine rounds
/// starting at 0; message faults address the message sent on the directed
/// channel `from → to` in that round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Drop one message in transit.
    Drop {
        /// Round the message was sent in.
        round: u64,
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
    },
    /// Corrupt one message in transit (drop if the protocol does not
    /// implement [`crate::NodeLogic::corrupt_msg`]).
    Corrupt {
        /// Round the message was sent in.
        round: u64,
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Entropy word handed to `corrupt_msg`.
        entropy: u64,
    },
    /// Take a node down for the inclusive round range.
    Crash {
        /// The crashed node.
        node: NodeId,
        /// First round the node is down.
        from_round: u64,
        /// Last round the node is down (inclusive).
        to_round: u64,
    },
    /// Cut the undirected link `a`–`b` for the inclusive round range.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// First round the link is down.
        from_round: u64,
        /// Last round the link is down (inclusive).
        to_round: u64,
    },
}

/// What happens to one in-transit message.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MsgFault {
    /// The message is lost. `flap` marks losses attributable to a link
    /// flap (they count into [`FaultCounters::flapped`] as well).
    Drop {
        /// Loss caused by a link flap rather than an independent drop.
        flap: bool,
    },
    /// The message is mutated in place with this entropy word before
    /// delivery.
    Corrupt {
        /// Deterministic entropy for the mutation.
        entropy: u64,
    },
}

/// A complete, deterministic fault plan for one engine run: either a
/// seeded statistical model or an explicit script of events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlan {
    /// Hash-derived faults from a [`FaultSpec`].
    Seeded(FaultSpec),
    /// Exactly these events and nothing else.
    Script(Vec<FaultEvent>),
}

impl FaultPlan {
    /// The fate of the message sent on channel `from → to` in `round`;
    /// `None` means deliver untouched.
    #[must_use]
    pub fn message_fault(&self, round: u64, from: NodeId, to: NodeId) -> Option<MsgFault> {
        match self {
            FaultPlan::Seeded(s) => {
                if s.flap_ppm > 0 {
                    let (a, b) = if from < to { (from, to) } else { (to, from) };
                    let link = (u64::from(a) << 32) | u64::from(b);
                    let w = round / s.flap_window.max(1);
                    if hits(mix(s.seed ^ FLAP_SALT, link, w, 0), s.flap_ppm) {
                        return Some(MsgFault::Drop { flap: true });
                    }
                }
                let chan = (u64::from(from) << 32) | u64::from(to);
                // A fixed 0 fills the coordinate a per-channel message
                // index would take: a channel carries one message a round,
                // and keeping the coordinate keeps every seeded plan's
                // faults.
                if hits(mix(s.seed ^ DROP_SALT, chan, round, 0), s.drop_ppm) {
                    return Some(MsgFault::Drop { flap: false });
                }
                let h = mix(s.seed ^ CORRUPT_SALT, chan, round, 0);
                if hits(h, s.corrupt_ppm) {
                    return Some(MsgFault::Corrupt { entropy: splitmix(h) });
                }
                None
            }
            FaultPlan::Script(events) => events.iter().find_map(|e| match *e {
                FaultEvent::Drop { round: r, from: f, to: t } if (r, f, t) == (round, from, to) => {
                    Some(MsgFault::Drop { flap: false })
                }
                FaultEvent::Corrupt { round: r, from: f, to: t, entropy }
                    if (r, f, t) == (round, from, to) =>
                {
                    Some(MsgFault::Corrupt { entropy })
                }
                FaultEvent::LinkDown { a, b, from_round, to_round }
                    if (from_round..=to_round).contains(&round)
                        && ((a, b) == (from, to) || (b, a) == (from, to)) =>
                {
                    Some(MsgFault::Drop { flap: true })
                }
                _ => None,
            }),
        }
    }

    /// `true` iff `node` is crashed during `round`.
    #[must_use]
    pub fn node_down(&self, node: NodeId, round: u64) -> bool {
        match self {
            FaultPlan::Seeded(s) => {
                let w = round / s.crash_window.max(1);
                hits(mix(s.seed ^ CRASH_SALT, u64::from(node), w, 0), s.crash_ppm)
            }
            FaultPlan::Script(events) => events.iter().any(|e| {
                matches!(*e, FaultEvent::Crash { node: v, from_round, to_round }
                    if v == node && (from_round..=to_round).contains(&round))
            }),
        }
    }

    /// `true` iff the plan can crash nodes at all (lets the engine skip
    /// the per-round down scan otherwise).
    #[must_use]
    pub fn has_node_faults(&self) -> bool {
        match self {
            FaultPlan::Seeded(s) => s.crash_ppm > 0,
            FaultPlan::Script(events) => {
                events.iter().any(|e| matches!(e, FaultEvent::Crash { .. }))
            }
        }
    }
}

/// Per-phase fault accounting, carried on
/// [`PhaseReport`](crate::PhaseReport). `injected` is the total number of
/// fault decisions that took effect (`dropped + corrupted +
/// crashed_rounds`); `flapped` is the subset of `dropped` attributable to
/// link flaps.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Total faults that took effect this phase.
    pub injected: u64,
    /// Messages lost in transit (random drops, flap losses, and
    /// corruption of messages whose protocol cannot mutate them).
    pub dropped: u64,
    /// Messages mutated in place and delivered.
    pub corrupted: u64,
    /// Node-rounds spent crashed.
    pub crashed_rounds: u64,
    /// Subset of `dropped` caused by link flaps.
    pub flapped: u64,
}

impl FaultCounters {
    /// `true` iff nothing was injected.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.injected == 0
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.injected += other.injected;
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.crashed_rounds += other.crashed_rounds;
        self.flapped += other.flapped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions() {
        let plan = FaultPlan::Seeded(FaultSpec::seeded(42).drops(100_000).corruption(50_000));
        for round in 0..50 {
            let a = plan.message_fault(round, 3, 7);
            let b = plan.message_fault(round, 3, 7);
            assert_eq!(a, b, "decision must not depend on evaluation order");
        }
    }

    /// A change to the seeded hash re-draws every seeded plan's faults, so
    /// the decisions on one channel are pinned.
    #[test]
    fn seeded_decisions_are_pinned() {
        let plan = FaultPlan::Seeded(FaultSpec::seeded(42).drops(100_000).corruption(50_000));
        let fired: Vec<(u64, MsgFault)> =
            (0..64).filter_map(|r| plan.message_fault(r, 3, 7).map(|f| (r, f))).collect();
        let drop = MsgFault::Drop { flap: false };
        let corrupt = |entropy| MsgFault::Corrupt { entropy };
        assert_eq!(
            fired,
            [
                (5, corrupt(16_711_477_992_026_173_514)),
                (8, corrupt(2_120_584_774_681_014_495)),
                (12, corrupt(10_020_177_523_240_211_961)),
                (17, drop),
                (18, drop),
                (20, drop),
                (24, drop),
                (38, corrupt(17_531_300_581_601_730_486)),
                (44, corrupt(6_915_134_981_626_378_848)),
            ]
        );
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::Seeded(FaultSpec::seeded(7).drops(250_000));
        let mut dropped = 0u32;
        let total = 4_000u32;
        for i in 0..total {
            if plan.message_fault(u64::from(i), 0, 1).is_some() {
                dropped += 1;
            }
        }
        let rate = f64::from(dropped) / f64::from(total);
        assert!((0.2..0.3).contains(&rate), "drop rate {rate} far from 0.25");
    }

    #[test]
    fn zero_rate_spec_is_inert() {
        let spec = FaultSpec::seeded(999);
        assert!(!spec.is_active());
        let plan = FaultPlan::Seeded(spec);
        for round in 0..100 {
            assert_eq!(plan.message_fault(round, 0, 1), None);
            assert!(!plan.node_down(0, round));
        }
    }

    #[test]
    fn crash_windows_are_contiguous() {
        let spec = FaultSpec::seeded(11).crashes(300_000, 8);
        let plan = FaultPlan::Seeded(spec);
        // Within one window the down status of a node never changes.
        for node in 0..64u32 {
            for w in 0..16u64 {
                let first = plan.node_down(node, w * 8);
                for r in w * 8..(w + 1) * 8 {
                    assert_eq!(plan.node_down(node, r), first, "node {node} round {r}");
                }
            }
        }
        // And some node is down somewhere at a 30% rate.
        let any = (0..64u32).any(|v| (0..128).any(|r| plan.node_down(v, r)));
        assert!(any, "30% crash rate over 64 nodes x 16 windows must hit");
    }

    #[test]
    fn flap_is_symmetric_in_the_link() {
        let plan = FaultPlan::Seeded(FaultSpec::seeded(5).flaps(400_000, 4));
        for round in 0..64 {
            let fwd = plan.message_fault(round, 2, 9);
            let bwd = plan.message_fault(round, 9, 2);
            assert_eq!(fwd, bwd, "a down link loses both directions");
        }
    }

    #[test]
    fn reseeded_changes_decisions() {
        let spec = FaultSpec::seeded(1).drops(500_000);
        let a = FaultPlan::Seeded(spec);
        let b = FaultPlan::Seeded(spec.reseeded(1));
        let differs = (0..64u64).any(|r| a.message_fault(r, 0, 1) != b.message_fault(r, 0, 1));
        assert!(differs, "reseeding must produce an independent pattern");
    }

    #[test]
    fn script_addresses_exact_messages() {
        let plan = FaultPlan::Script(vec![
            FaultEvent::Drop { round: 3, from: 1, to: 2 },
            FaultEvent::Corrupt { round: 4, from: 2, to: 1, entropy: 99 },
            FaultEvent::Crash { node: 5, from_round: 2, to_round: 4 },
            FaultEvent::LinkDown { a: 0, b: 3, from_round: 1, to_round: 2 },
        ]);
        assert_eq!(plan.message_fault(3, 1, 2), Some(MsgFault::Drop { flap: false }));
        assert_eq!(plan.message_fault(3, 2, 1), None);
        assert_eq!(plan.message_fault(2, 1, 2), None);
        assert_eq!(plan.message_fault(4, 2, 1), Some(MsgFault::Corrupt { entropy: 99 }));
        assert!(plan.node_down(5, 2) && plan.node_down(5, 4) && !plan.node_down(5, 5));
        assert!(!plan.node_down(4, 3));
        // Link cut hits both orientations, only inside the window.
        assert_eq!(plan.message_fault(1, 0, 3), Some(MsgFault::Drop { flap: true }));
        assert_eq!(plan.message_fault(2, 3, 0), Some(MsgFault::Drop { flap: true }));
        assert_eq!(plan.message_fault(3, 0, 3), None);
        assert!(plan.has_node_faults());
    }

    #[test]
    fn counters_merge_and_zero() {
        let mut a = FaultCounters::default();
        assert!(a.is_zero());
        let b =
            FaultCounters { injected: 3, dropped: 2, corrupted: 1, crashed_rounds: 0, flapped: 1 };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.injected, 6);
        assert_eq!(a.dropped, 4);
        assert_eq!(a.corrupted, 2);
        assert_eq!(a.flapped, 2);
        assert!(!a.is_zero());
    }
}

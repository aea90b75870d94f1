//! Simulator error types.

use congest_graph::NodeId;

/// Errors surfaced by the engine. All of these indicate a *protocol bug*
/// (or an exhausted safety budget), never a user-input problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A node sent a second message on one channel in one round (§1.1:
    /// one O(log n)-bit message per channel per round).
    BandwidthExceeded {
        /// Sending node.
        from: NodeId,
        /// Recipient channel.
        to: NodeId,
        /// Round in which the violation occurred.
        round: u64,
    },
    /// The phase did not terminate within its round budget.
    RoundBudgetExhausted {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// A node's `on_round` panicked, for instance on an
    /// [`Outbox::send_nbr`](crate::Outbox::send_nbr) index at or past its
    /// degree. The engine catches the unwind and returns this error once
    /// the round has stepped; when several nodes panic in one round, the
    /// lowest node id is reported.
    NodePanic {
        /// The node whose logic panicked.
        node: NodeId,
        /// Round in which the panic occurred.
        round: u64,
    },
    /// The protocol quiesced without covering the whole network, and the
    /// run had faults injected — e.g. a crashed node was never reached by
    /// a tree construction. Never produced on a fault-free run (there the
    /// same condition is a protocol bug and panics).
    Incomplete {
        /// A node the protocol failed to cover.
        node: NodeId,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::BandwidthExceeded { from, to, round } => {
                write!(f, "round {round}: node {from} sent twice on its channel to {to}")
            }
            SimError::RoundBudgetExhausted { budget } => {
                write!(f, "phase exceeded round budget of {budget}")
            }
            SimError::NodePanic { node, round } => {
                write!(f, "round {round}: node {node} panicked in on_round")
            }
            SimError::Incomplete { node } => {
                write!(f, "protocol quiesced under faults without covering node {node}")
            }
        }
    }
}

impl std::error::Error for SimError {}

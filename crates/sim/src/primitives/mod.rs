//! Reusable CONGEST communication primitives (Appendix A.1 / A.5 of the
//! paper): BFS spanning trees, pipelined flooding broadcast, and pipelined
//! tree aggregation/dissemination.

mod bfs;
mod flood;
mod tree_cast;

pub use bfs::{build_bfs_tree, BfsTree};
pub use flood::{all_to_all_broadcast, flood_broadcast, FloodLogs};
pub use tree_cast::{broadcast_stream, convergecast_budget, convergecast_sum};

//! Flooding search (FL) — paper §V-A.1.
//!
//! The source sends the query to all of its neighbors; every peer that receives the query
//! for the first time forwards it to all of its neighbors except the one it arrived from,
//! until the time-to-live `τ` is exhausted. Peers drop duplicate copies (Gnutella-style),
//! but the duplicate transmissions still count as messages — this is exactly the "large
//! number of messages" downside the paper attributes to FL.

use crate::kernel::{self, FanOut};
use crate::{SearchAlgorithm, SearchInfo, SearchOutcome, SearchScratch};
use rand::RngCore;
use sfo_graph::{GraphView, NodeId};

/// Flooding (broadcast) search.
///
/// # Example
///
/// ```
/// use sfo_graph::generators::ring_graph;
/// use sfo_graph::NodeId;
/// use sfo_search::{flooding::Flooding, SearchAlgorithm};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ring = ring_graph(20, 1)?; // a simple cycle
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let outcome = Flooding::new().search(&ring, NodeId::new(0), 3, &mut rng);
/// assert_eq!(outcome.hits, 6); // three peers reached in each direction
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flooding {
    _private: (),
}

impl Flooding {
    /// Creates a flooding search.
    pub fn new() -> Self {
        Flooding { _private: () }
    }
}

impl<G: GraphView + ?Sized> SearchAlgorithm<G> for Flooding {
    fn search(&self, graph: &G, source: NodeId, ttl: u32, rng: &mut dyn RngCore) -> SearchOutcome {
        // Fresh-allocation path: the frontier starts at the first round's size
        // instead of reallocating up the whole growth curve from empty.
        let mut scratch = SearchScratch::for_search(graph, source);
        self.search_with_scratch(graph, source, ttl, rng, &mut scratch)
    }

    fn search_with_scratch(
        &self,
        graph: &G,
        source: NodeId,
        ttl: u32,
        rng: &mut dyn RngCore,
        scratch: &mut SearchScratch,
    ) -> SearchOutcome {
        kernel::flood_from(graph, source, ttl, FanOut::All, rng, scratch, |_, _, _| {})
    }
}

impl SearchInfo for Flooding {
    fn name(&self) -> &'static str {
        "FL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfo_graph::generators::{complete_graph, ring_graph};
    use sfo_graph::metrics::reachable_within;
    use sfo_graph::Graph;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    fn path_graph(len: usize) -> Graph {
        let mut g = Graph::with_nodes(len);
        for i in 1..len {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i)).unwrap();
        }
        g
    }

    #[test]
    fn zero_ttl_reaches_nothing() {
        let g = complete_graph(5).unwrap();
        let o = Flooding::new().search(&g, NodeId::new(0), 0, &mut rng());
        assert_eq!(o, SearchOutcome::new(0, 0));
    }

    #[test]
    fn flooding_hits_match_bfs_reachability() {
        // FL with TTL tau reaches exactly the nodes within tau hops.
        let g = ring_graph(30, 2).unwrap();
        for ttl in 0..6 {
            let o = Flooding::new().search(&g, NodeId::new(3), ttl, &mut rng());
            assert_eq!(
                o.hits,
                reachable_within(&g, NodeId::new(3), ttl),
                "ttl={ttl}"
            );
        }
    }

    #[test]
    fn flooding_on_a_path_counts_messages_without_backtracking() {
        // On a path the query travels outward one link per round and never echoes back.
        let g = path_graph(6);
        let o = Flooding::new().search(&g, NodeId::new(0), 3, &mut rng());
        assert_eq!(o.hits, 3);
        assert_eq!(o.messages, 3);
    }

    #[test]
    fn flooding_in_a_clique_counts_duplicate_messages() {
        // In K4 from the source: 3 messages in round one; each of the 3 peers forwards to 2
        // others (excluding the sender) in round two = 6 more messages, all duplicates.
        let g = complete_graph(4).unwrap();
        let o = Flooding::new().search(&g, NodeId::new(0), 2, &mut rng());
        assert_eq!(o.hits, 3);
        assert_eq!(o.messages, 9);
    }

    #[test]
    fn large_ttl_covers_the_connected_component() {
        let g = ring_graph(50, 1).unwrap();
        let o = Flooding::new().search(&g, NodeId::new(0), 100, &mut rng());
        assert_eq!(o.hits, 49);
    }

    #[test]
    fn disconnected_nodes_are_never_hit() {
        let mut g = path_graph(4);
        g.add_nodes(3);
        let o = Flooding::new().search(&g, NodeId::new(0), 10, &mut rng());
        assert_eq!(o.hits, 3);
    }

    #[test]
    fn isolated_source_yields_empty_outcome() {
        let g = Graph::with_nodes(3);
        let o = Flooding::new().search(&g, NodeId::new(1), 5, &mut rng());
        assert_eq!(o, SearchOutcome::default());
    }

    #[test]
    fn name_is_fl() {
        assert_eq!(Flooding::new().name(), "FL");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_source_panics() {
        let g = complete_graph(3).unwrap();
        let _ = Flooding::new().search(&g, NodeId::new(9), 2, &mut rng());
    }
}

//! Contiguous shard slices of a frozen CSR snapshot.
//!
//! A [`CsrSlice`] is exactly what one shard host owns under placed execution: the
//! rebased `offsets` column and contiguous `targets` rows of one node range
//! `start..end`, plus the *global* node and edge counts of the snapshot it was cut
//! from. Targets stay global [`NodeId`]s — a slice can tell that a neighbor exists and
//! which node it is, but it can only enumerate the neighbor rows of the nodes it owns.
//!
//! [`ShardView`] is the read interface traversals run against: every whole graph (any
//! [`GraphView`] owns every row) and a shard slice implement it identically over the
//! rows they hold, so the same traversal code runs single-host and placed.

use crate::{CsrGraph, GraphError, GraphView, NodeId};
use std::ops::Range;

/// A read view over some (possibly all) rows of a frozen snapshot.
///
/// The contract mirrors [`CsrGraph`]: neighbor slices are in frozen order and
/// `node_count` is the *global* node count of the underlying snapshot, regardless of
/// how many rows this view owns. Callers must check [`ShardView::owns`] before asking
/// for a row a shard view might not hold.
pub trait ShardView {
    /// Global node count of the underlying snapshot.
    fn node_count(&self) -> usize;

    /// Global undirected edge count of the underlying snapshot.
    fn edge_count(&self) -> usize;

    /// Whether this view holds the neighbor row of node `index`.
    fn owns(&self, index: usize) -> bool;

    /// The neighbor row of an owned node, in frozen order.
    ///
    /// # Panics
    ///
    /// Panics if the view does not own `node` (see [`ShardView::owns`]).
    fn neighbors(&self, node: NodeId) -> &[NodeId];
}

/// Every whole graph is a view owning all of its rows, so the same traversal code runs
/// on a [`Graph`](crate::Graph), a [`CsrGraph`], or any other [`GraphView`] backend.
impl<G: GraphView + ?Sized> ShardView for G {
    #[inline]
    fn node_count(&self) -> usize {
        GraphView::node_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        GraphView::edge_count(self)
    }

    #[inline]
    fn owns(&self, index: usize) -> bool {
        index < GraphView::node_count(self)
    }

    #[inline]
    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        GraphView::neighbors(self, node)
    }
}

/// One contiguous node range of a CSR snapshot: the rebased offsets and row block a
/// shard host owns, plus the global shape of the snapshot it was cut from.
///
/// Built locally by [`CsrGraph::extract_slice`] or remotely from a decoded `LoadShard`
/// payload via [`CsrSlice::from_parts`]; both paths produce the identical value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrSlice {
    /// First owned node (global id).
    start: usize,
    /// One past the last owned node (global id).
    end: usize,
    /// Global node count of the source snapshot.
    node_count: usize,
    /// Global undirected edge count of the source snapshot.
    edge_count: usize,
    /// Rebased row offsets: `offsets[i]` is where owned node `start + i`'s row begins
    /// in `targets`; length `end - start + 1`.
    offsets: Vec<u32>,
    /// The owned rows, concatenated. Entries are global node ids.
    targets: Vec<NodeId>,
}

impl CsrSlice {
    /// Assembles a slice from its raw columns, validating every structural invariant:
    /// a sane range, a rebased offsets column of the right length starting at zero and
    /// nondecreasing up to `targets.len()`, every target inside the global id space,
    /// and simple rows (no self-loop, no repeated target).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] for a row naming its own node,
    /// [`GraphError::DuplicateEdge`] for a row naming a target twice, and
    /// [`GraphError::InvalidParameter`] naming any other violated invariant.
    pub fn from_parts(
        range: Range<usize>,
        node_count: usize,
        edge_count: usize,
        offsets: Vec<u32>,
        targets: Vec<NodeId>,
    ) -> Result<Self, GraphError> {
        let invalid = |reason: &'static str| GraphError::InvalidParameter { reason };
        if range.start > range.end || range.end > node_count {
            return Err(invalid("shard slice range out of bounds"));
        }
        if offsets.len() != range.end - range.start + 1 {
            return Err(invalid(
                "shard slice offsets length does not match its range",
            ));
        }
        if offsets[0] != 0 {
            return Err(invalid("shard slice offsets must start at zero"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(invalid("shard slice offsets must be nondecreasing"));
        }
        if *offsets.last().expect("nonempty offsets") as usize != targets.len() {
            return Err(invalid("shard slice offsets do not cover its targets"));
        }
        if targets.iter().any(|t| t.index() >= node_count) {
            return Err(invalid("shard slice target outside the global id space"));
        }
        if targets.len() > edge_count.saturating_mul(2) {
            return Err(invalid("shard slice holds more entries than the snapshot"));
        }
        // A simple graph's row never names its own node or a neighbor twice; the walk's
        // hop rule relies on the latter to terminate.
        let mut sorted = Vec::new();
        for (local, bounds) in offsets.windows(2).enumerate() {
            let node = NodeId::new(range.start + local);
            let row = &targets[bounds[0] as usize..bounds[1] as usize];
            if row.contains(&node) {
                return Err(GraphError::SelfLoop { node });
            }
            sorted.clear();
            sorted.extend_from_slice(row);
            sorted.sort_unstable();
            if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(GraphError::DuplicateEdge {
                    a: node,
                    b: pair[0],
                });
            }
        }
        Ok(CsrSlice {
            start: range.start,
            end: range.end,
            node_count,
            edge_count,
            offsets,
            targets,
        })
    }

    /// First owned node (global id).
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last owned node (global id).
    #[inline]
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of nodes this slice owns.
    #[inline]
    pub fn owned_count(&self) -> usize {
        self.end - self.start
    }

    /// Number of directed adjacency entries (row cells) this slice owns.
    #[inline]
    pub fn owned_entries(&self) -> usize {
        self.targets.len()
    }

    /// The slice's raw columns: rebased offsets and global-id targets.
    pub fn raw_parts(&self) -> (&[u32], &[NodeId]) {
        (&self.offsets, &self.targets)
    }

    /// Degree of an owned node.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not own `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        ShardView::neighbors(self, node).len()
    }
}

impl ShardView for CsrSlice {
    #[inline]
    fn node_count(&self) -> usize {
        self.node_count
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    #[inline]
    fn owns(&self, index: usize) -> bool {
        (self.start..self.end).contains(&index)
    }

    #[inline]
    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        assert!(
            self.owns(node.index()),
            "node {node} is not owned by shard slice {}..{}",
            self.start,
            self.end
        );
        let local = node.index() - self.start;
        &self.targets[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }
}

impl CsrGraph {
    /// Cuts the contiguous node range `range` out of the snapshot as a [`CsrSlice`]:
    /// the range's row block is copied once and its offsets rebased to start at zero.
    /// This is exactly the per-host shipment of placed execution — pair it with the
    /// matching shard manifest record to know the range, and with
    /// `ShardedCsr::shard_targets` to see the same rows in place.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not a valid node range of the snapshot.
    pub fn extract_slice(&self, range: Range<usize>) -> CsrSlice {
        assert!(
            range.start <= range.end && range.end <= self.node_count(),
            "range {range:?} out of bounds for a {}-node snapshot",
            self.node_count()
        );
        let (offsets, targets) = self.raw_parts();
        let base = offsets[range.start];
        let rebased: Vec<u32> = offsets[range.start..=range.end]
            .iter()
            .map(|&o| o - base)
            .collect();
        let block = targets[offsets[range.start] as usize..offsets[range.end] as usize].to_vec();
        CsrSlice::from_parts(range, self.node_count(), self.edge_count(), rebased, block)
            .expect("a slice cut from a valid snapshot is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path_graph(n: usize) -> CsrGraph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1)).unwrap();
        }
        g.freeze()
    }

    #[test]
    fn extracted_slices_reproduce_the_snapshot_rows() {
        let csr = path_graph(10);
        for (start, end) in [(0usize, 4usize), (4, 7), (7, 10), (0, 10), (3, 3)] {
            let slice = csr.extract_slice(start..end);
            assert_eq!(ShardView::node_count(&slice), 10);
            assert_eq!(ShardView::edge_count(&slice), 9);
            assert_eq!(slice.owned_count(), end - start);
            for node in 0..10 {
                assert_eq!(slice.owns(node), (start..end).contains(&node));
            }
            for node in start..end {
                assert_eq!(
                    ShardView::neighbors(&slice, NodeId::new(node)),
                    csr.neighbors(NodeId::new(node)),
                    "row {node} of slice {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn slices_round_trip_through_their_raw_parts() {
        let csr = path_graph(8);
        let slice = csr.extract_slice(2..6);
        let (offsets, targets) = slice.raw_parts();
        let back = CsrSlice::from_parts(
            2..6,
            ShardView::node_count(&slice),
            ShardView::edge_count(&slice),
            offsets.to_vec(),
            targets.to_vec(),
        )
        .unwrap();
        assert_eq!(back, slice);
    }

    #[test]
    fn malformed_parts_are_typed_errors() {
        let csr = path_graph(6);
        let slice = csr.extract_slice(1..4);
        let (offsets, targets) = slice.raw_parts();
        let (offsets, targets) = (offsets.to_vec(), targets.to_vec());
        // Reversed (deliberately malformed) and out-of-bounds ranges.
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 5..3;
        assert!(CsrSlice::from_parts(reversed, 6, 5, offsets.clone(), targets.clone()).is_err());
        assert!(CsrSlice::from_parts(1..9, 6, 5, offsets.clone(), targets.clone()).is_err());
        // Offsets column the wrong length / not rebased / decreasing / not covering.
        assert!(CsrSlice::from_parts(1..4, 6, 5, vec![0, 2], targets.clone()).is_err());
        let mut shifted = offsets.clone();
        shifted[0] = 1;
        assert!(CsrSlice::from_parts(1..4, 6, 5, shifted, targets.clone()).is_err());
        let mut decreasing = offsets.clone();
        decreasing[1] = u32::MAX;
        assert!(CsrSlice::from_parts(1..4, 6, 5, decreasing, targets.clone()).is_err());
        let mut short = offsets.clone();
        *short.last_mut().unwrap() -= 1;
        assert!(CsrSlice::from_parts(1..4, 6, 5, short, targets.clone()).is_err());
        // A target outside the global id space.
        let mut wild = targets.clone();
        wild[0] = NodeId::new(6);
        assert!(CsrSlice::from_parts(1..4, 6, 5, offsets.clone(), wild).is_err());
        // More entries than the snapshot has.
        assert!(CsrSlice::from_parts(1..4, 6, 2, offsets, targets).is_err());
    }

    #[test]
    fn rows_with_a_self_loop_are_rejected() {
        // Node 1's row names node 1 itself.
        let n = NodeId::new;
        let slice = CsrSlice::from_parts(1..2, 3, 2, vec![0, 2], vec![n(0), n(1)]);
        assert_eq!(slice, Err(GraphError::SelfLoop { node: n(1) }));
    }

    #[test]
    fn rows_with_a_repeated_target_are_rejected() {
        // Node 0's row names node 1 twice: a walk arriving from 1 could never leave.
        let n = NodeId::new;
        let slice = CsrSlice::from_parts(0..1, 3, 2, vec![0, 2], vec![n(1), n(1)]);
        assert_eq!(slice, Err(GraphError::DuplicateEdge { a: n(0), b: n(1) }));
    }

    #[test]
    fn the_whole_graph_is_a_shard_view_owning_everything() {
        let csr = path_graph(5);
        assert!(ShardView::owns(&csr, 4));
        assert!(!ShardView::owns(&csr, 5));
        assert_eq!(
            ShardView::neighbors(&csr, NodeId::new(2)),
            csr.neighbors(NodeId::new(2))
        );
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn asking_a_slice_for_a_foreign_row_panics() {
        let csr = path_graph(6);
        let slice = csr.extract_slice(0..3);
        let _ = ShardView::neighbors(&slice, NodeId::new(5));
    }
}

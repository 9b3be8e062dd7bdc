//! Placed (cross-host) traversal execution.
//!
//! Under placed execution every host owns one contiguous shard slice of the snapshot
//! (a [`CsrSlice`](sfo_graph::CsrSlice)) and a traversal *moves to its data*: a job
//! starts on the host owning its source node and, whenever the next node to expand
//! lives elsewhere, the whole suspended search — visited-bitset delta, frontier queue,
//! walker position, and raw RNG state — is exported as a [`PlacedState`] and resumed
//! on the owner. Exactly one host works on a job at any moment, so the placed run is
//! a pure partition of the serial oracle's work: the same expansions in the same
//! order consuming the same RNG stream, and therefore a byte-identical
//! [`SearchOutcome`].
//!
//! The state machine here is transport-agnostic; `sfo-net` wraps [`PlacedState`] in
//! `ForwardFrontier`/`FrontierResult` frames and routes by [`PlacedState::cursor`].
//!
//! There is no placed copy of any search: [`placed_advance`] imports the state into a
//! [`SearchScratch`], runs the same `sfo-search` traversal kernel
//! ([`sfo_search::kernel`]) the serial algorithms run, and exports the state again
//! when the kernel pauses on a row this host does not own. The kernel drops spent
//! frontier entries without reading their row, so only a genuine expansion forces a
//! hop, and the RNG state words travel with the frontier, so a hop is invisible to
//! the stream.

use rand::rngs::StdRng;
use sfo_graph::{NodeId, ShardView};
use sfo_search::kernel::{self, FanOut, Step, Walk};
use sfo_search::{SearchOutcome, SearchScratch};
use std::cell::Cell;
use std::ops::ControlFlow;

/// Sentinel for "no node" in the wire-width node fields of [`PlacedState`]
/// (`previous`, and the `from` column of queue entries).
pub const NO_NODE: u32 = u32::MAX;

/// The search algorithms placed execution supports: every shape whose per-step data
/// need is one neighbor row. Expanding-ring restarts whole floods (its rings would
/// re-hop the entire prefix) and the degree-biased walk reads *neighbor degrees*
/// (rows a shard host does not own), so both stay single-host and are refused by the
/// placed dispatcher with a typed error.
///
/// `k_min`/`walkers` are already resolved (no `None` = "match m" here); the
/// dispatcher resolves them from the spec before any frame is cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacedAlgorithm {
    /// Flooding (FL).
    Flooding,
    /// Normalized flooding (NF) with resolved fan-out `k_min`.
    NormalizedFlooding {
        /// Fan-out bound, at least 1.
        k_min: usize,
    },
    /// Gossip-style probabilistic flooding with forwarding probability `p`.
    ProbabilisticFlooding {
        /// Per-neighbor forwarding probability.
        p: f64,
    },
    /// A single random walk (RW).
    RandomWalk,
    /// `walkers` sequential walks sharing one TTL budget and one visited set.
    MultipleRandomWalk {
        /// Number of walkers, at least 1.
        walkers: usize,
    },
    /// NF to completion, then an RW whose hop budget is the NF message count (the
    /// paper's Figs. 11-12 methodology). The outcome is the walk's alone.
    RwNormalizedToNf {
        /// NF fan-out whose message count sets the walk budget.
        k_min: usize,
    },
}

impl PlacedAlgorithm {
    /// Whether the algorithm starts in the walk phase (no frontier queue at all).
    fn starts_walking(self) -> bool {
        matches!(
            self,
            PlacedAlgorithm::RandomWalk | PlacedAlgorithm::MultipleRandomWalk { .. }
        )
    }
}

/// A suspended placed search: everything needed to resume it bit-exactly on another
/// host. All fields are wire-width; `sfo-net` serializes this struct verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedState {
    /// The algorithm being executed.
    pub algorithm: PlacedAlgorithm,
    /// `false`: draining the frontier queue (flood family). `true`: stepping a walk
    /// (RW/MRW from the start; RW/NF after its flood phase completes).
    pub walk_phase: bool,
    /// The job's source node.
    pub source: u32,
    /// Flood TTL, or the remaining-walk *budget* in the walk phase.
    pub ttl: u32,
    /// Hits accumulated so far.
    pub hits: u64,
    /// Messages accumulated so far.
    pub messages: u64,
    /// Walk phase: the walker's position.
    pub current: u32,
    /// Walk phase: the previous hop ([`NO_NODE`] = none yet).
    pub previous: u32,
    /// Walk phase: index of the walker being stepped (always 0 for RW).
    pub walker: u32,
    /// Walk phase: steps the current walker has taken.
    pub steps_done: u32,
    /// Raw xoshiro256++ state of the job's RNG stream.
    pub rng: [u64; 4],
    /// Sparse visited-bitset delta: ascending `(word index, word)` pairs.
    pub visited: Vec<(u32, u64)>,
    /// Frontier queue, front first: `(node, from, depth)` with [`NO_NODE`] for a
    /// missing `from`.
    pub queue: Vec<(u32, u32, u32)>,
}

impl PlacedState {
    /// The node whose neighbor row the search needs next — the routing key: the
    /// dispatcher sends the frontier to the shard owning this node. `None` only for
    /// a flood whose queue is empty (a state [`placed_advance`] would immediately
    /// finish on any host).
    pub fn cursor(&self) -> Option<u32> {
        if self.walk_phase {
            Some(self.current)
        } else {
            self.queue.first().map(|&(node, _, _)| node)
        }
    }
}

/// Result of advancing a placed search on one host.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacedStep {
    /// The search completed here; this is the job's final outcome.
    Done(SearchOutcome),
    /// The next expansion needs a row this host does not own; resume the state on
    /// the shard owning [`PlacedState::cursor`].
    Forward(PlacedState),
}

/// Row-scan tallies of one [`placed_advance`] call, powering the
/// forwarded-frontier telemetry: on a full flood the cross/scanned ratio equals the
/// store's `boundary_fraction()` exactly (every owned row is scanned once, and each
/// cross entry is one end of a cross-shard edge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Adjacency entries read from owned rows.
    pub entries_scanned: u64,
    /// Of those, entries pointing at nodes this view does not own.
    pub entries_cross: u64,
}

/// Builds the initial [`PlacedState`] of one job, mirroring the serial preludes of
/// `sfo-search`: the source is marked visited (never counted as a hit), floods seed
/// their queue with `(source, none, 0)`, walks stand at the source. `rng` is the
/// job's stream *after* the source draw ([`crate::job_rng`] plus one `gen_range`).
pub fn placed_start(
    algorithm: PlacedAlgorithm,
    source: NodeId,
    ttl: u32,
    rng: [u64; 4],
) -> PlacedState {
    let source = source.as_u32();
    let walk_phase = algorithm.starts_walking();
    PlacedState {
        algorithm,
        walk_phase,
        source,
        ttl,
        hits: 0,
        messages: 0,
        current: source,
        previous: NO_NODE,
        walker: 0,
        steps_done: 0,
        rng,
        visited: vec![(source / 64, 1u64 << (source % 64))],
        queue: if walk_phase {
            Vec::new()
        } else {
            vec![(source, NO_NODE, 0)]
        },
    }
}

/// Advances a placed search as far as this host's rows allow.
///
/// Imports the state into `scratch`, runs the `sfo-search` traversal kernel over
/// `view` until it completes or pauses on a row the view does not own, and exports
/// the state again on a pause. Returns [`PlacedStep::Done`] with the final outcome,
/// or [`PlacedStep::Forward`] with the suspended state to resume on the owner of its
/// [`PlacedState::cursor`]. `stats` accumulates row-scan tallies across calls.
///
/// # Panics
///
/// Panics if the state references nodes or visited words outside `view`'s global id
/// space, or if its phase contradicts its algorithm — callers resuming *decoded*
/// states must validate them first (`sfo-net` does, frame-side).
pub fn placed_advance<V: ShardView + ?Sized>(
    view: &V,
    mut state: PlacedState,
    scratch: &mut SearchScratch,
    stats: &mut StepStats,
) -> PlacedStep {
    let stats = Cell::from_mut(stats);
    let view = Scanning { view, stats };
    let node_count = view.node_count();
    scratch.visited.import_sparse(node_count, &state.visited);
    let mut rng = StdRng::from_state_words(state.rng);
    let mut tally = SearchOutcome::new(state.hits as usize, state.messages as usize);
    let source = NodeId::new(state.source as usize);

    let mut walk = if state.walk_phase {
        let walkers = match state.algorithm {
            PlacedAlgorithm::MultipleRandomWalk { walkers } => walkers,
            _ => 1,
        };
        Walk {
            source,
            walkers,
            budget: state.ttl,
            walker: state.walker as usize,
            steps_done: state.steps_done,
            current: NodeId::new(state.current as usize),
            previous: decode_from(state.previous),
        }
    } else {
        let fan_out = match state.algorithm {
            PlacedAlgorithm::Flooding => FanOut::All,
            PlacedAlgorithm::NormalizedFlooding { k_min }
            | PlacedAlgorithm::RwNormalizedToNf { k_min } => FanOut::Random(k_min),
            PlacedAlgorithm::ProbabilisticFlooding { p } => FanOut::Probability(p),
            PlacedAlgorithm::RandomWalk | PlacedAlgorithm::MultipleRandomWalk { .. } => {
                panic!("walk algorithms never enter the flood phase")
            }
        };
        let queue = state
            .queue
            .iter()
            .map(|&(node, from, depth)| (NodeId::new(node as usize), decode_from(from), depth));
        scratch.queue.clear();
        scratch.queue.extend(queue);
        let ignore = |_, _, _| {};
        let step = kernel::flood(
            &view, fan_out, state.ttl, scratch, &mut tally, &mut rng, ignore,
        );
        if let Step::NeedRow(_) = step {
            state.queue = scratch
                .queue
                .iter()
                .map(|&(n, f, d)| (n.as_u32(), encode_from(f), d))
                .collect();
            return export(state, scratch, tally, rng);
        }
        // The flood drained. For RW/NF its message count becomes the walk budget and
        // the walk restarts from the source with a fresh visited set (the outcome is
        // the walk's alone), exactly as the serial two-phase job does.
        let PlacedAlgorithm::RwNormalizedToNf { .. } = state.algorithm else {
            return PlacedStep::Done(tally);
        };
        state.walk_phase = true;
        state.ttl = u32::try_from(tally.messages).unwrap_or(u32::MAX);
        tally = SearchOutcome::default();
        scratch.start(node_count, source);
        Walk::new(source, 1, state.ttl)
    };

    let go_on = |_, _, _| ControlFlow::Continue(());
    let step = kernel::walk(&view, &mut walk, scratch, &mut tally, &mut rng, go_on);
    if let Step::Done = step {
        return PlacedStep::Done(tally);
    }
    // A paused walker has hops left, so its index is below the u32 budget.
    state.walker = walk.walker as u32;
    state.steps_done = walk.steps_done;
    state.current = walk.current.as_u32();
    state.previous = encode_from(walk.previous);
    state.queue = Vec::new();
    export(state, scratch, tally, rng)
}

/// Writes the kernel's counters, visited set and RNG stream back into a paused state.
fn export(
    mut state: PlacedState,
    scratch: &SearchScratch,
    tally: SearchOutcome,
    rng: StdRng,
) -> PlacedStep {
    state.hits = tally.hits as u64;
    state.messages = tally.messages as u64;
    state.rng = rng.state_words();
    state.visited = scratch.visited.export_sparse();
    PlacedStep::Forward(state)
}

/// A view that tallies every row the kernel reads into [`StepStats`].
struct Scanning<'a, V: ?Sized> {
    view: &'a V,
    stats: &'a Cell<StepStats>,
}

impl<V: ShardView + ?Sized> ShardView for Scanning<'_, V> {
    fn node_count(&self) -> usize {
        self.view.node_count()
    }

    fn edge_count(&self) -> usize {
        self.view.edge_count()
    }

    fn owns(&self, index: usize) -> bool {
        self.view.owns(index)
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let row = self.view.neighbors(node);
        let cross = row.iter().filter(|next| !self.view.owns(next.index()));
        let mut stats = self.stats.get();
        stats.entries_scanned += row.len() as u64;
        stats.entries_cross += cross.count() as u64;
        self.stats.set(stats);
        row
    }
}

#[inline]
fn decode_from(from: u32) -> Option<NodeId> {
    (from != NO_NODE).then(|| NodeId::new(from as usize))
}

#[inline]
fn encode_from(from: Option<NodeId>) -> u32 {
    from.map_or(NO_NODE, |n| n.as_u32())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedCsr;
    use rand::SeedableRng;
    use sfo_graph::generators::ring_graph;
    use sfo_graph::{CsrGraph, CsrSlice, Graph};
    use sfo_search::flooding::Flooding;
    use sfo_search::normalized::NormalizedFlooding;
    use sfo_search::probabilistic::ProbabilisticFlooding;
    use sfo_search::random_walk::{MultipleRandomWalk, RandomWalk};
    use sfo_search::SearchAlgorithm;

    /// A small irregular graph: a ring with chords, so degrees differ.
    fn fixture() -> CsrGraph {
        let mut g = ring_graph(60, 2).unwrap();
        for i in 0..12 {
            let a = NodeId::new(i * 5);
            let b = NodeId::new((i * 7 + 13) % 60);
            if a != b {
                let _ = g.add_edge(a, b);
            }
        }
        g.freeze()
    }

    /// The serial oracle for `algorithm` from `source` at `ttl`, on a seeded stream.
    fn oracle(
        csr: &CsrGraph,
        algorithm: PlacedAlgorithm,
        source: NodeId,
        ttl: u32,
        seed: u64,
    ) -> SearchOutcome {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        match algorithm {
            PlacedAlgorithm::Flooding => Flooding::new().search(csr, source, ttl, &mut rng),
            PlacedAlgorithm::NormalizedFlooding { k_min } => {
                NormalizedFlooding::new(k_min).search(csr, source, ttl, &mut rng)
            }
            PlacedAlgorithm::ProbabilisticFlooding { p } => {
                ProbabilisticFlooding::new(p).search(csr, source, ttl, &mut rng)
            }
            PlacedAlgorithm::RandomWalk => RandomWalk::new().search(csr, source, ttl, &mut rng),
            PlacedAlgorithm::MultipleRandomWalk { walkers } => {
                MultipleRandomWalk::new(walkers).search(csr, source, ttl, &mut rng)
            }
            PlacedAlgorithm::RwNormalizedToNf { k_min } => {
                let nf = NormalizedFlooding::new(k_min).search(csr, source, ttl, &mut rng);
                let budget = u32::try_from(nf.messages).unwrap_or(u32::MAX);
                RandomWalk::new().search(csr, source, budget, &mut rng)
            }
        }
    }

    /// Runs the state machine over shard slices, routing by cursor like the real
    /// dispatcher; returns the outcome and the number of hops.
    fn run_over_slices(
        csr: &CsrGraph,
        shards: usize,
        algorithm: PlacedAlgorithm,
        source: NodeId,
        ttl: u32,
        seed: u64,
    ) -> (SearchOutcome, usize, StepStats) {
        let sharded = ShardedCsr::from_csr(csr, shards);
        let slices: Vec<CsrSlice> = sharded
            .shards()
            .iter()
            .map(|s| csr.extract_slice(s.node_range()))
            .collect();
        let rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut state = placed_start(algorithm, source, ttl, rng.state_words());
        let mut scratch = SearchScratch::new();
        let mut stats = StepStats::default();
        let mut hops = 0usize;
        loop {
            let cursor = state.cursor().expect("live state has a cursor");
            let owner = sharded.shard_of(NodeId::new(cursor as usize));
            match placed_advance(&slices[owner], state, &mut scratch, &mut stats) {
                PlacedStep::Done(outcome) => return (outcome, hops, stats),
                PlacedStep::Forward(next) => {
                    hops += 1;
                    assert!(
                        !slices[owner].owns(next.cursor().unwrap() as usize),
                        "forwarded a frontier the host could have served"
                    );
                    state = next;
                }
            }
        }
    }

    fn all_algorithms() -> Vec<PlacedAlgorithm> {
        vec![
            PlacedAlgorithm::Flooding,
            PlacedAlgorithm::NormalizedFlooding { k_min: 2 },
            PlacedAlgorithm::ProbabilisticFlooding { p: 0.6 },
            PlacedAlgorithm::RandomWalk,
            PlacedAlgorithm::MultipleRandomWalk { walkers: 3 },
            PlacedAlgorithm::RwNormalizedToNf { k_min: 2 },
        ]
    }

    #[test]
    fn whole_graph_advance_equals_the_serial_algorithms() {
        let csr = fixture();
        for algorithm in all_algorithms() {
            for (seed, source, ttl) in [(1u64, 0usize, 3u32), (2, 17, 5), (3, 59, 0), (4, 30, 2)] {
                let serial = oracle(&csr, algorithm, NodeId::new(source), ttl, seed);
                let rng = rand::rngs::StdRng::seed_from_u64(seed);
                let state = placed_start(algorithm, NodeId::new(source), ttl, rng.state_words());
                let mut scratch = SearchScratch::new();
                let mut stats = StepStats::default();
                let step = placed_advance(&csr, state, &mut scratch, &mut stats);
                assert_eq!(
                    step,
                    PlacedStep::Done(serial),
                    "{algorithm:?} seed {seed} source {source} ttl {ttl}"
                );
                assert_eq!(stats.entries_cross, 0, "a whole graph owns every row");
            }
        }
    }

    #[test]
    fn sliced_execution_is_byte_identical_for_every_shard_count() {
        let csr = fixture();
        for algorithm in all_algorithms() {
            for shards in [1usize, 2, 3, 5, 7] {
                for (seed, source, ttl) in [(11u64, 3usize, 4u32), (12, 42, 6), (13, 58, 1)] {
                    let serial = oracle(&csr, algorithm, NodeId::new(source), ttl, seed);
                    let (placed, hops, _) =
                        run_over_slices(&csr, shards, algorithm, NodeId::new(source), ttl, seed);
                    assert_eq!(
                        placed, serial,
                        "{algorithm:?} diverged at {shards} shards (seed {seed})"
                    );
                    if shards == 1 {
                        assert_eq!(hops, 0, "a single shard never hops");
                    }
                }
            }
        }
    }

    #[test]
    fn full_flood_scan_stats_reproduce_the_boundary_fraction() {
        let csr = fixture();
        for shards in [2usize, 3, 4] {
            let sharded = ShardedCsr::from_csr(&csr, shards);
            let (_, _, stats) = run_over_slices(
                &csr,
                shards,
                PlacedAlgorithm::Flooding,
                NodeId::new(0),
                csr.node_count() as u32,
                99,
            );
            // A full flood on a connected graph expands every node exactly once, so
            // scanned == 2E and cross == 2 * cross_shard_edges: the observed traffic
            // fraction IS boundary_fraction(), as an exact integer identity.
            assert_eq!(stats.entries_scanned, 2 * csr.edge_count() as u64);
            assert_eq!(
                stats.entries_cross,
                2 * sharded.cross_shard_edges() as u64,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn spent_frontier_entries_never_force_a_hop() {
        // ttl 0: the only queue entry pops as spent; any host finishes it, even one
        // owning nothing near the source.
        let csr = fixture();
        let slice = csr.extract_slice(30..40);
        let rng = rand::rngs::StdRng::seed_from_u64(7);
        let state = placed_start(
            PlacedAlgorithm::Flooding,
            NodeId::new(0),
            0,
            rng.state_words(),
        );
        let mut scratch = SearchScratch::new();
        let mut stats = StepStats::default();
        assert_eq!(
            placed_advance(&slice, state, &mut scratch, &mut stats),
            PlacedStep::Done(SearchOutcome::new(0, 0))
        );
    }

    #[test]
    fn walks_on_a_degree_zero_source_finish_empty() {
        let mut g = Graph::with_nodes(5);
        g.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        let csr = g.freeze();
        for algorithm in [
            PlacedAlgorithm::RandomWalk,
            PlacedAlgorithm::MultipleRandomWalk { walkers: 4 },
        ] {
            let rng = rand::rngs::StdRng::seed_from_u64(5);
            let state = placed_start(algorithm, NodeId::new(0), 9, rng.state_words());
            let mut scratch = SearchScratch::new();
            let step = placed_advance(&csr, state, &mut scratch, &mut StepStats::default());
            assert_eq!(step, PlacedStep::Done(SearchOutcome::new(0, 0)));
        }
    }

    #[test]
    fn forwarded_states_carry_a_cursor_their_sender_does_not_own() {
        let csr = fixture();
        let slice = csr.extract_slice(0..30);
        let rng = rand::rngs::StdRng::seed_from_u64(21);
        let state = placed_start(
            PlacedAlgorithm::Flooding,
            NodeId::new(0),
            csr.node_count() as u32,
            rng.state_words(),
        );
        let mut scratch = SearchScratch::new();
        match placed_advance(&slice, state, &mut scratch, &mut StepStats::default()) {
            PlacedStep::Forward(next) => {
                let cursor = next.cursor().unwrap() as usize;
                assert!(!slice.owns(cursor));
                assert!(cursor < csr.node_count());
                assert!(!next.visited.is_empty());
            }
            PlacedStep::Done(_) => panic!("a 30-node slice cannot finish a full flood"),
        }
    }
}

//! The traversal kernel: the one implementation of flooding (FL, NF, pFL) and of the
//! uniform random walk (RW, multi-RW).
//!
//! The [`SearchAlgorithm`](crate::SearchAlgorithm) impls run it on a whole graph (every
//! [`GraphView`](sfo_graph::GraphView) is a [`ShardView`] owning all rows), `sfo-engine`'s
//! placed execution runs it on one shard slice at a time, and `sfo-sim`'s item lookups
//! pass a visitor that checks each reached peer for a replica.
//!
//! Both loops are resumable: the frontier and visited set live in the [`SearchScratch`],
//! a walker's position in [`Walk`], the running counts in a [`SearchOutcome`]. When the
//! next expansion needs the row of a node the view does not [own](ShardView::owns), the
//! loop returns [`Step::NeedRow`] with that state intact, and calling it again on a view
//! owning the row continues where it stopped. RNG draws happen only at fan-out selection
//! and at walk hops, so a pause is invisible to the random stream.

use crate::{SearchOutcome, SearchScratch};
use rand::seq::SliceRandom;
use rand::Rng;
use sfo_graph::{NodeId, ShardView};
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// Which neighbors a flooding peer forwards the query to. The previous hop is always
/// excluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FanOut {
    /// Every neighbor (flooding, FL).
    All,
    /// At most this many uniformly random neighbors (normalized flooding, NF).
    Random(usize),
    /// Each neighbor independently with this probability (probabilistic flooding). The
    /// source forwards to all of its neighbors.
    Probability(f64),
}

/// Where a kernel loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The traversal is complete.
    Done,
    /// The traversal is paused: its next expansion needs the row of this node, which
    /// the view does not own.
    NeedRow(NodeId),
}

/// A resumable uniform random walk: `walkers` walkers leave `source` one after another
/// and share `budget` hops, split as evenly as possible (the first `budget % walkers`
/// walkers take one extra hop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// Where every walker starts.
    pub source: NodeId,
    /// Number of walkers.
    pub walkers: usize,
    /// Total hop budget shared by all walkers.
    pub budget: u32,
    /// Index of the walker being stepped.
    pub walker: usize,
    /// Hops the current walker has taken.
    pub steps_done: u32,
    /// The current walker's position.
    pub current: NodeId,
    /// The current walker's previous position, if it has moved.
    pub previous: Option<NodeId>,
}

impl Walk {
    /// A walk whose first walker stands at `source` and has not moved yet.
    pub fn new(source: NodeId, walkers: usize, budget: u32) -> Self {
        Walk {
            source,
            walkers,
            budget,
            walker: 0,
            steps_done: 0,
            current: source,
            previous: None,
        }
    }

    fn next_walker(&mut self) {
        self.walker += 1;
        self.steps_done = 0;
        self.current = self.source;
        self.previous = None;
    }
}

/// Drains the flood frontier in `scratch.queue`, forwarding from every entry whose
/// depth is below `ttl` according to `fan_out`; spent entries are dropped without
/// reading their row, so they never cause a pause.
///
/// Every message increments `tally.messages`; a first visit also increments
/// `tally.hits` and queues the node one level deeper. The message is then reported to
/// `visit` as `(node, hops travelled, first visit)`.
pub fn flood<V, R, F>(
    view: &V,
    fan_out: FanOut,
    ttl: u32,
    scratch: &mut SearchScratch,
    tally: &mut SearchOutcome,
    rng: &mut R,
    mut visit: F,
) -> Step
where
    V: ShardView + ?Sized,
    R: Rng + ?Sized,
    F: FnMut(NodeId, u32, bool),
{
    let SearchScratch {
        visited,
        queue,
        candidates,
    } = scratch;
    while let Some((node, from, depth)) = queue.pop_front() {
        if depth >= ttl {
            continue;
        }
        if !view.owns(node.index()) {
            return pause(queue, (node, from, depth));
        }
        let row = view.neighbors(node);
        let mut deliver = |next: NodeId| {
            tally.messages += 1;
            let first = visited.insert(next.index());
            if first {
                tally.hits += 1;
                queue.push_back((next, Some(node), depth + 1));
            }
            visit(next, depth + 1, first);
        };
        match fan_out {
            FanOut::All => {
                for &next in row {
                    if Some(next) != from {
                        deliver(next);
                    }
                }
            }
            FanOut::Random(k) => {
                candidates.clear();
                candidates.extend(row.iter().copied().filter(|&n| Some(n) != from));
                let targets: &[NodeId] = if candidates.len() > k {
                    candidates.partial_shuffle(rng, k).0
                } else {
                    candidates
                };
                for &next in targets {
                    deliver(next);
                }
            }
            FanOut::Probability(p) => {
                for &next in row {
                    // Only relayed copies are thinned: without the source exception the
                    // whole search dies at the first step with probability
                    // (1 - p)^degree.
                    if Some(next) != from && (depth == 0 || rng.gen::<f64>() < p) {
                        deliver(next);
                    }
                }
            }
        }
    }
    Step::Done
}

/// Puts a popped frontier entry back at the front and reports the row it needs. Kept
/// out of line and cold: on a whole graph the flood never pauses, and inlining this
/// path into the loop slowed plain flooding measurably.
#[cold]
fn pause(
    queue: &mut VecDeque<(NodeId, Option<NodeId>, u32)>,
    entry: (NodeId, Option<NodeId>, u32),
) -> Step {
    queue.push_front(entry);
    Step::NeedRow(entry.0)
}

/// Steps `state` until its budget is spent, every walker is stuck, or `visit` breaks.
///
/// Each hop goes to a uniformly random neighbor other than the previous one; a walker
/// at a dead end hands over to the next walker. Every hop increments `tally.messages`,
/// a first visit also `tally.hits`, and the hop is then reported to `visit` as
/// `(node, hops this walker has taken, first visit)`. Breaking ends the whole walk.
pub fn walk<V, R, F>(
    view: &V,
    state: &mut Walk,
    scratch: &mut SearchScratch,
    tally: &mut SearchOutcome,
    rng: &mut R,
    mut visit: F,
) -> Step
where
    V: ShardView + ?Sized,
    R: Rng + ?Sized,
    F: FnMut(NodeId, u32, bool) -> ControlFlow<()>,
{
    let budget = state.budget as usize;
    let base = budget.checked_div(state.walkers).unwrap_or(0);
    let remainder = budget.checked_rem(state.walkers).unwrap_or(0);
    while state.walker < state.walkers {
        let steps = base + usize::from(state.walker < remainder);
        if steps == 0 {
            // Shares never grow with the walker index, so no later walker moves either.
            break;
        }
        if state.steps_done as usize >= steps {
            state.next_walker();
            continue;
        }
        if !view.owns(state.current.index()) {
            return Step::NeedRow(state.current);
        }
        let Some(next) = hop(view.neighbors(state.current), state.previous, rng) else {
            state.next_walker();
            continue;
        };
        tally.messages += 1;
        let first = scratch.visited.insert(next.index());
        if first {
            tally.hits += 1;
        }
        state.previous = Some(state.current);
        state.current = next;
        state.steps_done += 1;
        if visit(next, state.steps_done, first).is_break() {
            break;
        }
    }
    state.walker = state.walkers;
    Step::Done
}

/// The uniform walk's hop rule: a uniformly random entry of `row` other than
/// `previous`, the single entry of a one-entry row (a walker bounces back from a
/// degree-1 node), and `None` for an empty row. The rejection loop terminates because
/// rows never repeat a target, so two entries cannot both equal `previous`.
pub(crate) fn hop<R: Rng + ?Sized>(
    row: &[NodeId],
    previous: Option<NodeId>,
    rng: &mut R,
) -> Option<NodeId> {
    match row.len() {
        0 => None,
        1 => Some(row[0]),
        _ => loop {
            let candidate = row[rng.gen_range(0..row.len())];
            if Some(candidate) != previous {
                break Some(candidate);
            }
        },
    }
}

/// Runs a whole flood from `source` on a view owning every row it reaches.
///
/// # Panics
///
/// Panics if `source` is out of bounds or the flood needs a row the view does not own.
pub fn flood_from<V, R, F>(
    view: &V,
    source: NodeId,
    ttl: u32,
    fan_out: FanOut,
    rng: &mut R,
    scratch: &mut SearchScratch,
    visit: F,
) -> SearchOutcome
where
    V: ShardView + ?Sized,
    R: Rng + ?Sized,
    F: FnMut(NodeId, u32, bool),
{
    scratch.start(view.node_count(), source);
    let mut tally = SearchOutcome::default();
    let step = flood(view, fan_out, ttl, scratch, &mut tally, rng, visit);
    finished(step, tally)
}

/// Runs a whole walk `state` on a view owning every row it reaches.
///
/// # Panics
///
/// Panics if the source is out of bounds or the walk needs a row the view does not own.
pub fn walk_from<V, R, F>(
    view: &V,
    mut state: Walk,
    rng: &mut R,
    scratch: &mut SearchScratch,
    visit: F,
) -> SearchOutcome
where
    V: ShardView + ?Sized,
    R: Rng + ?Sized,
    F: FnMut(NodeId, u32, bool) -> ControlFlow<()>,
{
    scratch.start(view.node_count(), state.source);
    let mut tally = SearchOutcome::default();
    let step = walk(view, &mut state, scratch, &mut tally, rng, visit);
    finished(step, tally)
}

fn finished(step: Step, tally: SearchOutcome) -> SearchOutcome {
    if let Step::NeedRow(node) = step {
        panic!("traversal needs the row of {node}, which the view does not own");
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sfo_graph::generators::ring_graph;
    use sfo_graph::CsrSlice;

    #[test]
    fn a_breaking_visitor_ends_every_walker() {
        let g = ring_graph(30, 2).unwrap();
        let walk = Walk::new(NodeId::new(0), 3, 30);
        let mut rng = StdRng::seed_from_u64(3);
        let stop = |_, _, _| ControlFlow::Break(());
        let outcome = walk_from(&g, walk, &mut rng, &mut SearchScratch::new(), stop);
        assert_eq!(outcome, SearchOutcome::new(1, 1));
    }

    #[test]
    fn walkers_beyond_the_budget_end_the_walk_at_once() {
        // Two hops for usize::MAX walkers: the first two move, and the walk must not
        // step through every remaining zero-hop walker.
        let g = ring_graph(30, 2).unwrap();
        let walk = Walk::new(NodeId::new(0), usize::MAX, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let go_on = |_, _, _| ControlFlow::Continue(());
        let outcome = walk_from(&g, walk, &mut rng, &mut SearchScratch::new(), go_on);
        assert_eq!(outcome.messages, 2);
    }

    #[test]
    fn walks_terminate_on_every_slice_from_parts_accepts() {
        // Every row of up to two entries over three nodes, for node 0 alone and for
        // nodes 0 and 1; `from_parts` must reject each row a walk could never leave.
        let mut rows = vec![vec![]];
        for a in 0..3 {
            rows.push(vec![a]);
            rows.extend((0..3).map(|b| vec![a, b]));
        }
        let mut slices = Vec::new();
        for r0 in &rows {
            for r1 in std::iter::once(None).chain(rows.iter().map(Some)) {
                let owned: Vec<&Vec<usize>> = std::iter::once(r0).chain(r1).collect();
                let mut offsets = vec![0u32];
                let mut targets = Vec::new();
                for row in &owned {
                    targets.extend(row.iter().map(|&t| NodeId::new(t)));
                    offsets.push(targets.len() as u32);
                }
                slices.extend(CsrSlice::from_parts(0..owned.len(), 3, 3, offsets, targets));
            }
        }
        assert!(slices.len() > 10, "the enumeration must accept some slices");
        for slice in &slices {
            for (start, previous) in (0..3).flat_map(|s| (0..4).map(move |p| (s, p))) {
                if !slice.owns(start) {
                    continue;
                }
                let mut state = Walk::new(NodeId::new(start), 2, 8);
                state.previous = (previous < 3).then(|| NodeId::new(previous));
                let mut scratch = SearchScratch::new();
                scratch.visited.reset(3);
                let mut tally = SearchOutcome::default();
                let mut rng = StdRng::seed_from_u64(5);
                let go_on = |_, _, _| ControlFlow::Continue(());
                walk(slice, &mut state, &mut scratch, &mut tally, &mut rng, go_on);
                assert!(tally.messages <= 8);
            }
        }
    }
}

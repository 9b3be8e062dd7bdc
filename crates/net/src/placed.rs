//! Wire-side support for placed execution: the `SearchSpec` → [`PlacedAlgorithm`]
//! compilation, semantic validation of decoded frontiers, and the shard-shipment
//! builder.
//!
//! Placement never ships routing tables. The partition is the engine's canonical
//! arithmetic: shard `i` of `s` over `n` nodes owns
//! [`partition::range`]`(n, s, i)`, the same contiguous near-equal split
//! [`sfo_engine::ShardedCsr`] computes, and [`partition::owner`] routes a node to its
//! shard — so every endpoint (dispatcher, shard host, test oracle) derives ownership
//! from three integers and can never disagree.

use crate::message::ShardPayload;
use crate::NetError;
use rand::Rng;
use sfo_engine::{partition, placed_start, PlacedAlgorithm, PlacedState, NO_NODE};
use sfo_graph::CsrGraph;
use sfo_scenario::SearchSpec;

/// Compiles a [`SearchSpec`] to its placed equivalent, resolving `k_min: None` to the
/// topology's `m` exactly as [`SearchSpec::build_for`] does.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] for expanding-ring (its rings restart whole floods)
/// and the degree-biased walk (it reads neighbor *degrees*, rows no shard host
/// owns) — the two shapes placed execution cannot route row by row.
pub fn placed_algorithm(search: &SearchSpec, m: usize) -> Result<PlacedAlgorithm, NetError> {
    match *search {
        SearchSpec::Flooding => Ok(PlacedAlgorithm::Flooding),
        SearchSpec::NormalizedFlooding { k_min } => Ok(PlacedAlgorithm::NormalizedFlooding {
            k_min: k_min.unwrap_or(m).max(1),
        }),
        SearchSpec::ProbabilisticFlooding { p } => Ok(PlacedAlgorithm::ProbabilisticFlooding { p }),
        SearchSpec::RandomWalk => Ok(PlacedAlgorithm::RandomWalk),
        SearchSpec::MultipleRandomWalk { walkers } => {
            Ok(PlacedAlgorithm::MultipleRandomWalk { walkers })
        }
        SearchSpec::RwNormalizedToNf { k_min } => Ok(PlacedAlgorithm::RwNormalizedToNf {
            k_min: k_min.unwrap_or(m).max(1),
        }),
        SearchSpec::ExpandingRing { .. } | SearchSpec::DegreeBiasedWalk => {
            Err(NetError::protocol(format!(
                "search {:?} is not supported under placed execution; run it against \
                 whole-snapshot workers",
                search.name()
            )))
        }
    }
}

/// Checks a decoded frontier against the id space of the snapshot it claims to run
/// on — every node reference in bounds and every visited word inside the bitset —
/// so resuming it can never panic the host.
///
/// # Errors
///
/// Returns [`NetError::Protocol`] naming the out-of-range field.
pub fn validate_state(state: &PlacedState, node_count: usize) -> Result<(), NetError> {
    let node_ok = |node: u32| (node as usize) < node_count;
    let from_ok = |node: u32| node == NO_NODE || node_ok(node);
    if !node_ok(state.source) {
        return Err(NetError::protocol(format!(
            "frontier source {} out of bounds for {node_count} nodes",
            state.source
        )));
    }
    if !node_ok(state.current) || !from_ok(state.previous) {
        return Err(NetError::protocol(format!(
            "frontier walker position {}/{} out of bounds for {node_count} nodes",
            state.current, state.previous
        )));
    }
    if let Some(&(node, from, _)) = state
        .queue
        .iter()
        .find(|&&(node, from, _)| !node_ok(node) || !from_ok(from))
    {
        return Err(NetError::protocol(format!(
            "frontier queue entry ({node}, {from}) out of bounds for {node_count} nodes"
        )));
    }
    let words = node_count.div_ceil(64);
    if let Some(&(word, _)) = state
        .visited
        .iter()
        .find(|&&(word, _)| word as usize >= words)
    {
        return Err(NetError::protocol(format!(
            "frontier visited word {word} out of bounds for {node_count} nodes"
        )));
    }
    Ok(())
}

/// Cuts shard `index` of `shard_count` out of `csr` as the shipment for its host.
///
/// # Panics
///
/// Panics if `shard_count` is zero or `index` is not a shard index.
pub fn shard_payload(
    csr: &CsrGraph,
    identity: u64,
    shard_count: usize,
    index: usize,
) -> ShardPayload {
    ShardPayload {
        identity,
        shard_index: index as u32,
        shard_count: shard_count as u32,
        slice: csr.extract_slice(partition::range(csr.node_count(), shard_count, index)),
    }
}

/// The initial [`PlacedState`] of global sweep job `global`: the serial job prelude
/// (per-job RNG stream, one source draw) followed by [`placed_start`], leaving the
/// RNG stream exactly where the serial algorithm would first read it.
pub(crate) fn sweep_job_state(
    algorithm: PlacedAlgorithm,
    seed: u64,
    global: usize,
    ttl: u32,
    node_count: usize,
) -> PlacedState {
    let mut rng = sfo_engine::job_rng(seed, global);
    let source = sfo_graph::NodeId::new(rng.gen_range(0..node_count));
    placed_start(algorithm, source, ttl, rng.state_words())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placed_algorithm_resolves_k_min_and_refuses_row_hungry_shapes() {
        assert_eq!(
            placed_algorithm(&SearchSpec::NormalizedFlooding { k_min: None }, 3).unwrap(),
            PlacedAlgorithm::NormalizedFlooding { k_min: 3 }
        );
        assert_eq!(
            placed_algorithm(&SearchSpec::RwNormalizedToNf { k_min: Some(5) }, 3).unwrap(),
            PlacedAlgorithm::RwNormalizedToNf { k_min: 5 }
        );
        for unsupported in [
            SearchSpec::ExpandingRing {
                initial_ttl: 1,
                increment: 1,
            },
            SearchSpec::DegreeBiasedWalk,
        ] {
            assert!(matches!(
                placed_algorithm(&unsupported, 2),
                Err(NetError::Protocol { .. })
            ));
        }
    }

    #[test]
    fn state_validation_catches_every_out_of_range_field() {
        let base = placed_start(
            PlacedAlgorithm::Flooding,
            sfo_graph::NodeId::new(3),
            2,
            [1, 2, 3, 4],
        );
        assert!(validate_state(&base, 10).is_ok());
        let mut bad = base.clone();
        bad.source = 10;
        assert!(validate_state(&bad, 10).is_err());
        let mut bad = base.clone();
        bad.current = 99;
        assert!(validate_state(&bad, 10).is_err());
        let mut bad = base.clone();
        bad.queue.push((3, 11, 1));
        assert!(validate_state(&bad, 10).is_err());
        let mut bad = base.clone();
        bad.visited.push((1, 1));
        assert!(validate_state(&bad, 10).is_err());
        assert!(validate_state(&base, 4).is_ok());
        assert!(validate_state(&base, 3).is_err());
    }
}

//! Shared fixtures for the Criterion benchmarks in this crate.
//!
//! Benchmarks run the workspace's mechanisms at *bench scale*: sizes are reduced so the
//! whole suite finishes in minutes while preserving the relative cost of the mechanisms
//! being compared. End-to-end figure and generator timings live in `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sfo_core::pa::PreferentialAttachment;
use sfo_core::DegreeCutoff;
use sfo_graph::Graph;

/// Node count used for single-topology benchmarks.
pub const BENCH_NODES: usize = 2_000;

/// A deterministic RNG for benchmarks.
pub fn bench_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A capped PA overlay reused by the search benchmarks.
pub fn capped_pa_graph(nodes: usize, m: usize, k_c: usize, seed: u64) -> Graph {
    PreferentialAttachment::new(nodes, m)
        .expect("bench parameters are valid")
        .with_cutoff(DegreeCutoff::hard(k_c))
        .generate(&mut bench_rng(seed))
        .expect("bench generation succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let graph = capped_pa_graph(300, 2, 20, 1);
        assert_eq!(graph.node_count(), 300);
        assert!(graph.max_degree().unwrap() <= 20);
    }
}

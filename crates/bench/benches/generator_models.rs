//! Generation cost of the extended generator family (paper §III-C variants).
//!
//! Complements perfbench's `core.generate_s.*` timings of the paper's four core mechanisms
//! with the modified preferential-attachment models: nonlinear PA, the fitness model, the
//! local-events model, the initial-attractiveness model, and the uncorrelated configuration
//! model — each with the hard cutoff that the rest of the workspace defaults to.

use criterion::{criterion_group, criterion_main, Criterion};
use sfo_bench::{bench_rng, BENCH_NODES};
use sfo_core::attractiveness::InitialAttractiveness;
use sfo_core::fitness::{FitnessDistribution, FitnessModel};
use sfo_core::local_events::LocalEventsModel;
use sfo_core::nonlinear::NonlinearPreferentialAttachment;
use sfo_core::ucm::UncorrelatedConfigurationModel;
use sfo_core::{DegreeCutoff, TopologyGenerator};
use std::time::Duration;

fn bench_generator(c: &mut Criterion, label: &str, generator: &dyn TopologyGenerator) {
    let mut group = c.benchmark_group("generator_models");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    group.bench_function(label, |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            generator
                .generate(&mut bench_rng(seed))
                .expect("bench generation succeeds")
        });
    });
    group.finish();
}

fn bench_generator_models(c: &mut Criterion) {
    let cutoff = DegreeCutoff::hard(20);
    bench_generator(
        c,
        "nlpa_alpha_0.5",
        &NonlinearPreferentialAttachment::new(BENCH_NODES, 2, 0.5)
            .unwrap()
            .with_cutoff(cutoff),
    );
    bench_generator(
        c,
        "nlpa_alpha_1.5",
        &NonlinearPreferentialAttachment::new(BENCH_NODES, 2, 1.5)
            .unwrap()
            .with_cutoff(cutoff),
    );
    bench_generator(
        c,
        "fitness_exponential",
        &FitnessModel::new(BENCH_NODES, 2)
            .unwrap()
            .with_distribution(FitnessDistribution::Exponential { rate: 1.0 })
            .with_cutoff(cutoff),
    );
    bench_generator(
        c,
        "local_events_p02_q02",
        &LocalEventsModel::new(BENCH_NODES, 2, 0.2, 0.2)
            .unwrap()
            .with_cutoff(cutoff),
    );
    bench_generator(
        c,
        "dms_gamma_2.5",
        &InitialAttractiveness::with_target_gamma(BENCH_NODES, 2, 2.5)
            .unwrap()
            .with_cutoff(cutoff),
    );
    bench_generator(
        c,
        "ucm_gamma_2.6",
        &UncorrelatedConfigurationModel::new(BENCH_NODES, 2.6, 2)
            .unwrap()
            .with_cutoff(cutoff),
    );
}

criterion_group!(benches, bench_generator_models);
criterion_main!(benches);

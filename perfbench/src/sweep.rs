//! The sweep workloads: engine-batched FL, NF and RW sweeps on a capped-PA
//! snapshot, through `WorkerPool`, so that search kernels and the pool do the timed
//! work. `sweep-pa100k` (N = 10^5) has a CSR about the size of one core's L2
//! cache; `sweep-pa1m` (N = 10^6) reads a CSR far larger than it. Workload `<name>` runs
//! `specs/<name>.json`, checked against `golden/<name>.json`.

use crate::common::{
    build_and_save, digest, field, secs, str_field, timed, u32_list, usize_field, Ctx, Golden,
    RunOutcome,
};
use crate::trace::{SpanId, Tracer};
use crate::units::{batch_e2e, repeat_passes};
use rand::Rng;
use sfo_engine::{
    average_per_ttl, batched_rw_normalized_to_nf_range, batched_ttl_sweep_range, job_rng,
    EngineConfig, WorkerPool,
};
use sfo_graph::snapshot::Provenance;
use sfo_graph::{CsrGraph, NodeId};
use sfo_scenario::json::FromJson;
use sfo_scenario::{BuiltSearch, SearchSpec};
use sfo_search::normalized::NormalizedFlooding;
use sfo_search::random_walk::RandomWalk;
use sfo_search::{SearchAlgorithm, SearchOutcome, SearchScratch};
use std::sync::Arc;
use std::time::Instant;

/// Engine workers of the pool; one, like every daemon the benchmark starts.
const ENGINE_WORKERS: usize = 1;
/// The traced run times every `SERIAL_STRIDE`-th job serially.
const SERIAL_STRIDE: usize = 4;

/// One algorithm's sweep grid.
struct Grid {
    name: String,
    search: SearchSpec,
    ttls: Vec<u32>,
    searches: usize,
}

impl Grid {
    fn jobs(&self) -> usize {
        self.ttls.len() * self.searches
    }
}

struct Config {
    /// The workload's name, which names its spec, golden and trace files.
    workload: String,
    snapshot_spec: String,
    setups: usize,
    grids: Vec<Grid>,
}

fn config(ctx: &Ctx, workload: &str) -> Result<Config, String> {
    let spec = ctx.spec(&format!("{workload}.json"))?;
    let grids = field(&spec, "searches")?
        .as_array()
        .ok_or("\"searches\" must be an array")?
        .iter()
        .map(|g| {
            Ok(Grid {
                name: str_field(g, "name")?.to_string(),
                search: SearchSpec::from_json(field(g, "search")?).map_err(|e| e.to_string())?,
                ttls: u32_list(g, "ttls")?,
                searches: usize_field(g, "searches_per_point")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Config {
        workload: workload.to_string(),
        snapshot_spec: str_field(&spec, "snapshot")?.to_string(),
        setups: usize_field(&spec, "setups")?.max(1),
        grids,
    })
}

struct Loaded {
    graph: Arc<CsrGraph>,
    provenance: Provenance,
    identity: u64,
    pool: WorkerPool,
}

/// Generates and saves the snapshot, loads it back, and starts the pool.
fn set_up(ctx: &Ctx, cfg: &Config, seed: u64, tracer: &Tracer) -> Result<Loaded, String> {
    let file = format!("{}.sfos", cfg.snapshot_spec.trim_end_matches(".json"));
    let snap = build_and_save(ctx, tracer, &cfg.snapshot_spec, seed, &file)?;
    let graph = tracer
        .span("graph.snapshot_load", None, |_| CsrGraph::load(&snap.path))
        .map_err(|e| format!("{}: {e}", snap.path))?;
    Ok(Loaded {
        graph: Arc::new(graph),
        provenance: snap.provenance,
        identity: snap.identity,
        pool: WorkerPool::new(EngineConfig::with_workers(ENGINE_WORKERS)),
    })
}

/// One grid through the pool: every job's outcome in global job order.
fn batch(loaded: &Loaded, grid: &Grid) -> Result<Vec<SearchOutcome>, String> {
    let seed = loaded.provenance.sweep_seed;
    let m = loaded.provenance.m as usize;
    let total = grid.jobs();
    Ok(
        match grid
            .search
            .build_for::<CsrGraph>(m)
            .map_err(|e| e.to_string())?
        {
            BuiltSearch::Algorithm(algorithm) => batched_ttl_sweep_range(
                &loaded.pool,
                &loaded.graph,
                algorithm,
                &grid.ttls,
                grid.searches,
                seed,
                0,
                total,
            ),
            BuiltSearch::RwNormalizedToNf { k_min } => batched_rw_normalized_to_nf_range(
                &loaded.pool,
                &loaded.graph,
                k_min,
                &grid.ttls,
                grid.searches,
                seed,
                0,
                total,
            ),
        },
    )
}

/// The digest a grid's report is checked by: its per-TTL averaged points.
fn report_digest(grid: &Grid, outcomes: &[SearchOutcome]) -> String {
    digest(&format!(
        "{:?}",
        average_per_ttl(&grid.ttls, grid.searches, outcomes)
    ))
}

/// One pass: every grid once, each report checked against its golden digest.
/// Returns the pass's wall time and every grid's outcomes.
fn pass(
    cfg: &Config,
    loaded: &Loaded,
    golden: &Golden,
    seed: u64,
    tracer: &Tracer,
    root: Option<SpanId>,
    out: &mut RunOutcome,
) -> Result<(f64, Vec<Vec<SearchOutcome>>), String> {
    let start = Instant::now();
    let mut all = Vec::new();
    for grid in &cfg.grids {
        let outcomes = tracer.span(&format!("engine.batch.{}", grid.name), root, |_| {
            batch(loaded, grid)
        })?;
        out.attempted += 1;
        let found = report_digest(grid, &outcomes);
        let expected = golden.expected(seed, &grid.name);
        let ok = expected == Some(found.as_str());
        if !ok {
            out.failed += 1;
        }
        out.check(ok, || {
            format!(
                "{} (seed {seed}): report digest {found}, recorded {expected:?}",
                grid.name
            )
        });
        all.push(outcomes);
    }
    Ok((secs(start), all))
}

fn check_identity(loaded: &Loaded, golden: &Golden, seed: u64, out: &mut RunOutcome) {
    let found = format!("{:#018x}", loaded.identity);
    let expected = golden.expected(seed, "snapshot");
    out.check(expected == Some(found.as_str()), || {
        format!("snapshot (seed {seed}): identity {found}, recorded {expected:?}")
    });
}

/// Prints the golden entry of input seed `seed` (used to record `golden/`).
pub fn record(ctx: &Ctx, workload: &str, seed: u64) -> Result<String, String> {
    let cfg = config(ctx, workload)?;
    let loaded = set_up(ctx, &cfg, seed, &Tracer::new(false))?;
    let mut digests = vec![("snapshot".to_string(), format!("{:#018x}", loaded.identity))];
    for grid in &cfg.grids {
        digests.push((
            grid.name.clone(),
            report_digest(grid, &batch(&loaded, grid)?),
        ));
    }
    Ok(Golden::entry_json(seed, &digests))
}

/// The end-to-end run.
pub fn run(ctx: &Ctx, workload: &str) -> Result<RunOutcome, String> {
    let cfg = config(ctx, workload)?;
    let golden = Golden::load(ctx, &format!("{workload}.json"))?;
    let seed = golden.input_seed(ctx.seed);
    let mut out = RunOutcome::default();
    out.notes
        .push(format!("input seed {seed} (recorded golden digests)"));
    let tracer = Tracer::new(false);
    let mut setup_times = Vec::new();
    let mut loaded = None;
    for _ in 0..cfg.setups {
        drop(loaded.take());
        let (l, wall) = timed(|| set_up(ctx, &cfg, seed, &tracer));
        setup_times.push(wall);
        loaded = Some(l?);
    }
    let loaded = loaded.expect("at least one set-up");
    check_identity(&loaded, &golden, seed, &mut out);
    let passes = repeat_passes(ctx.seconds, || {
        Ok(pass(&cfg, &loaded, &golden, seed, &tracer, None, &mut out)?.0)
    })?;
    batch_e2e(&mut out, &setup_times, &passes, 0.0);
    Ok(out)
}

/// The traced run: one set-up, one untraced and one traced pass, then a sample of
/// every grid's jobs again, serially and timed one by one.
pub fn run_traced(
    ctx: &Ctx,
    workload: &str,
    layers: &mut crate::layers::Layers,
) -> Result<RunOutcome, String> {
    let cfg = config(ctx, workload)?;
    let golden = Golden::load(ctx, &format!("{workload}.json"))?;
    let seed = golden.input_seed(ctx.seed);
    let mut out = RunOutcome::default();
    let tracer = Tracer::new(true);
    let loaded = set_up(ctx, &cfg, seed, &tracer)?;
    check_identity(&loaded, &golden, seed, &mut out);
    // A warm-up pass first, so the untraced/traced pair compares warm passes.
    pass(
        &cfg,
        &loaded,
        &golden,
        seed,
        &Tracer::new(false),
        None,
        &mut out,
    )?;
    let untraced = pass(
        &cfg,
        &loaded,
        &golden,
        seed,
        &Tracer::new(false),
        None,
        &mut out,
    )?
    .0;
    let pass_tracer = Tracer::new(true);
    let (traced, pooled) = pass_tracer.span("pass", None, |root| {
        pass(&cfg, &loaded, &golden, seed, &pass_tracer, root, &mut out)
    })?;
    let pass_spans = pass_tracer.spans();
    layers.account_pass(&pass_spans, untraced, &mut out);
    layers.add_spans(&pass_spans);
    layers.add_spans(&tracer.spans());

    // Estimated serial time of the whole pass: each sampled job stands for `stride`.
    let mut serial_total = 0.0;
    for (grid, pooled) in cfg.grids.iter().zip(&pooled) {
        let (times_us, sampled) = serial_jobs(&loaded, grid, SERIAL_STRIDE);
        serial_total += times_us.iter().sum::<f64>() / 1e6 * SERIAL_STRIDE as f64;
        let same = sampled.iter().all(|(g, o)| pooled.get(*g) == Some(o));
        out.check(same, || {
            format!("{}: serial jobs differ from the pooled batch", grid.name)
        });
        // Counts are exact, over every job of the pooled batch.
        let messages: usize = pooled.iter().map(|o| o.messages).sum();
        let hits: usize = pooled.iter().map(|o| o.hits).sum();
        let outcomes = pooled;
        let name = &grid.name;
        layers.set(
            &format!("search.{name}.job_us"),
            crate::stats::median(&times_us).unwrap_or(0.0),
        );
        layers.set(
            &format!("search.{name}.messages_per_job"),
            messages as f64 / outcomes.len().max(1) as f64,
        );
        layers.set(
            &format!("search.{name}.hits_per_message"),
            hits as f64 / messages.max(1) as f64,
        );
    }
    layers.set(
        "engine.efficiency",
        serial_total / (traced * loaded.pool.workers() as f64),
    );
    let mut spans = tracer.spans();
    spans.extend(pass_spans);
    layers.save_trace(ctx, &cfg.workload, &spans)?;
    drop(loaded);

    // placed-pa10k and serve-pa10k are not listed workloads: their wall times and
    // latencies wander too far between runs on a 2-vCPU host to gate on (see
    // README.md). Their layers are measured here, as probes, so that every traced
    // run of the listed set covers the net and placed layers.
    for probe in [
        crate::placed::run_traced(ctx, layers, false)?,
        crate::serve::run_traced(ctx, layers, false)?,
    ] {
        out.attempted += probe.attempted;
        out.failed += probe.failed;
        out.check_failures.extend(probe.check_failures);
    }
    Ok(out)
}

/// Every `stride`-th job of `grid` run serially on the calling thread, exactly as
/// the pool runs it (same per-job stream, same source draw); returns per-job
/// microseconds and `(global job index, outcome)` pairs.
fn serial_jobs(
    loaded: &Loaded,
    grid: &Grid,
    stride: usize,
) -> (Vec<f64>, Vec<(usize, SearchOutcome)>) {
    let seed = loaded.provenance.sweep_seed;
    let m = loaded.provenance.m as usize;
    let graph = loaded.graph.as_ref();
    let n = graph.node_count();
    let built = grid
        .search
        .build_for::<CsrGraph>(m)
        .expect("the grid's search validated when the pooled batch ran");
    let mut scratch = SearchScratch::new();
    let mut times = Vec::new();
    let mut outcomes = Vec::new();
    for global in (0..grid.jobs()).step_by(stride.max(1)) {
        let ttl = grid.ttls[global / grid.searches];
        let t = Instant::now();
        let mut rng = job_rng(seed, global);
        let source = NodeId::new(rng.gen_range(0..n));
        let outcome = match &built {
            BuiltSearch::Algorithm(a) => {
                a.search_with_scratch(graph, source, ttl, &mut rng, &mut scratch)
            }
            BuiltSearch::RwNormalizedToNf { k_min } => {
                let nf = NormalizedFlooding::new(*k_min).search_with_scratch(
                    graph,
                    source,
                    ttl,
                    &mut rng,
                    &mut scratch,
                );
                let budget = u32::try_from(nf.messages).unwrap_or(u32::MAX);
                RandomWalk::new().search_with_scratch(graph, source, budget, &mut rng, &mut scratch)
            }
        };
        times.push(t.elapsed().as_secs_f64() * 1e6);
        outcomes.push((global, outcome));
    }
    (times, outcomes)
}

//! `placed-pa10k`: the `sfo dispatch --placed` equivalent — a flooding sweep through
//! `dispatch_sweep` over pinned shard daemons, where searches hop between hosts as
//! forwarded frontiers. No other workload exercises frontier hops.

use crate::common::{
    build_and_save, field, secs, str_field, timed, u32_list, usize_field, Ctx, RunOutcome, Snapshot,
};
use crate::procs::Daemon;
use crate::trace::Tracer;
use crate::units::{batch_e2e, repeat_passes};
use sfo_engine::{batched_ttl_sweep_range, EngineConfig, WorkerPool};
use sfo_graph::CsrGraph;
use sfo_net::{dispatch_sweep, WorkerClient};
use sfo_scenario::json::FromJson;
use sfo_scenario::{BuiltSearch, RemoteSweepRequest, SearchSpec};
use sfo_search::SearchOutcome;
use std::sync::Arc;
use std::time::Instant;

const SPEC: &str = "placed-pa10k.json";

struct Config {
    snapshot_spec: String,
    /// The snapshot's generation seed. Fixed, not taken from the run seed: one
    /// TTL-6 flood makes anywhere from ~100 to ~2,000 frontier hops, so a job sample
    /// small enough to run in seconds would make the wall time depend on the seed
    /// far more than on the code (see README.md).
    input_seed: u64,
    shards: usize,
    setups: usize,
    ttls: Vec<u32>,
    searches: usize,
    warmup_searches: usize,
    search: SearchSpec,
}

fn config(ctx: &Ctx) -> Result<Config, String> {
    let spec = ctx.spec(SPEC)?;
    Ok(Config {
        snapshot_spec: str_field(&spec, "snapshot")?.to_string(),
        input_seed: field(&spec, "input_seed")?
            .as_u64()
            .ok_or("\"input_seed\" must be an unsigned integer")?,
        shards: usize_field(&spec, "shards")?.max(1),
        setups: usize_field(&spec, "setups")?.max(1),
        ttls: u32_list(&spec, "ttls")?,
        searches: usize_field(&spec, "searches_per_point")?,
        warmup_searches: usize_field(&spec, "warmup_searches_per_point")?,
        search: SearchSpec::from_json(field(&spec, "search")?).map_err(|e| e.to_string())?,
    })
}

/// The snapshot, one pinned daemon per shard, and the sweep request over them.
struct Placed {
    snapshot: Snapshot,
    daemons: Vec<Daemon>,
    request: RemoteSweepRequest,
}

impl Placed {
    fn stop(self) -> f64 {
        self.daemons.into_iter().map(Daemon::stop).sum()
    }
}

fn set_up(ctx: &Ctx, cfg: &Config, tracer: &Tracer) -> Result<Placed, String> {
    let snapshot = build_and_save(
        ctx,
        tracer,
        &cfg.snapshot_spec,
        cfg.input_seed,
        "pa10k-placed.sfos",
    )?;
    let shards = cfg.shards.to_string();
    let daemons = (0..cfg.shards)
        .map(|i| {
            let index = i.to_string();
            tracer.span("net.spawn", None, |_| {
                Daemon::spawn(
                    &ctx.sfo,
                    &snapshot.path,
                    &[
                        "--shards",
                        &shards,
                        "--shard",
                        &index,
                        "--engine-workers",
                        "1",
                    ],
                )
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let request = RemoteSweepRequest {
        workers: daemons.iter().map(|d| d.addr.clone()).collect(),
        identity: snapshot.identity,
        seed: snapshot.provenance.sweep_seed,
        ttls: cfg.ttls.clone(),
        searches_per_point: cfg.searches,
        search: cfg.search.clone(),
        m: snapshot.provenance.m as usize,
        placed: true,
        snapshot_path: snapshot.path.clone(),
    };
    // Warm-up: a smaller sweep of the same shape pays the placement handshake and
    // the daemons' first-use costs before timing.
    let warmup = RemoteSweepRequest {
        searches_per_point: cfg.warmup_searches,
        ..request.clone()
    };
    tracer
        .span("net.warmup", None, |_| dispatch_sweep(&warmup))
        .map_err(|e| format!("warm-up sweep failed: {e}"))?;
    Ok(Placed {
        snapshot,
        daemons,
        request,
    })
}

/// The same sweep run locally, the oracle a placed run must equal byte for byte.
fn local_reference(placed: &Placed, tracer: &Tracer) -> Result<Vec<SearchOutcome>, String> {
    let request = &placed.request;
    let graph = tracer
        .span("graph.snapshot_load", None, |_| {
            CsrGraph::load(&placed.snapshot.path)
        })
        .map_err(|e| format!("{}: {e}", placed.snapshot.path))?;
    let algorithm = match request.search.build_for::<CsrGraph>(request.m) {
        Ok(BuiltSearch::Algorithm(a)) => a,
        Ok(BuiltSearch::RwNormalizedToNf { .. }) => {
            return Err(format!("{SPEC}: placed sweeps run a plain search"))
        }
        Err(e) => return Err(e.to_string()),
    };
    let pool = WorkerPool::new(EngineConfig::with_workers(1));
    Ok(batched_ttl_sweep_range(
        &pool,
        &Arc::new(graph),
        algorithm,
        &request.ttls,
        request.searches_per_point,
        request.seed,
        0,
        request.job_count(),
    ))
}

/// One placed sweep, checked job by job against the local oracle; returns its wall
/// time.
fn pass(
    placed: &Placed,
    oracle: &[SearchOutcome],
    tracer: &Tracer,
    root: Option<crate::trace::SpanId>,
    out: &mut RunOutcome,
) -> Result<f64, String> {
    let start = Instant::now();
    let outcomes = tracer
        .span("net.dispatch_sweep", root, |_| {
            dispatch_sweep(&placed.request)
        })
        .map_err(|e| format!("placed sweep failed: {e}"))?;
    let wall_s = secs(start);
    let jobs = placed.request.job_count();
    let wrong = (0..jobs)
        .filter(|&j| outcomes.get(j) != oracle.get(j))
        .count()
        + outcomes.len().saturating_sub(jobs);
    out.attempted += jobs as u64;
    out.failed += wrong as u64;
    out.check(wrong == 0, || {
        format!("placed sweep: {wrong} of {jobs} jobs differ from the local run")
    });
    Ok(wall_s)
}

/// The daemons' summed placed-execution counters: `ForwardFrontier` frames
/// received, frontier entries scanned, and scanned entries whose neighbour lies in
/// another shard.
fn counters(placed: &Placed) -> Result<[u64; 3], String> {
    const NAMES: [&str; 3] = [
        "net.frames_in.ForwardFrontier",
        "placed.frontier_entries_scanned",
        "placed.frontier_entries_cross",
    ];
    placed.daemons.iter().try_fold([0; 3], |mut sum, d| {
        let mut client = WorkerClient::connect(&d.addr).map_err(|e| e.to_string())?;
        let stats = client.stats().map_err(|e| e.to_string())?;
        for (total, name) in sum.iter_mut().zip(NAMES) {
            *total += stats.counter(name).unwrap_or(0);
        }
        Ok(sum)
    })
}

/// The end-to-end run.
pub fn run(ctx: &Ctx) -> Result<RunOutcome, String> {
    let cfg = config(ctx)?;
    let tracer = Tracer::new(false);
    let mut out = RunOutcome::default();
    let mut setup_times = Vec::new();
    let mut placed: Option<Placed> = None;
    for _ in 0..cfg.setups {
        if let Some(previous) = placed.take() {
            previous.stop();
        }
        let (p, wall) = timed(|| set_up(ctx, &cfg, &tracer));
        setup_times.push(wall);
        placed = Some(p?);
    }
    let placed = placed.expect("at least one set-up");
    let oracle = local_reference(&placed, &tracer)?;
    let passes = repeat_passes(ctx.seconds, || {
        pass(&placed, &oracle, &tracer, None, &mut out)
    })?;
    let daemon_rss: f64 = placed.daemons.iter().map(Daemon::peak_rss_mb).sum();
    batch_e2e(&mut out, &setup_times, &passes, daemon_rss);
    placed.stop();
    Ok(out)
}

/// The traced run: one set-up and one traced sweep; frontier counts come from the
/// daemons' own counters. With `account`, a warm-up and an untraced sweep run
/// first, and the tracing overhead, the accounted share and the set-up's layer
/// times are recorded; without it
/// (the placed-layer probe of another workload's traced run), only the
/// `placed.*` metrics are.
pub fn run_traced(
    ctx: &Ctx,
    layers: &mut crate::layers::Layers,
    account: bool,
) -> Result<RunOutcome, String> {
    let cfg = config(ctx)?;
    let tracer = Tracer::new(true);
    let mut out = RunOutcome::default();
    let placed = set_up(ctx, &cfg, &tracer)?;
    let oracle = local_reference(&placed, &tracer)?;
    let untraced = if account {
        // A warm-up pass first, so the untraced/traced pair compares warm passes.
        pass(&placed, &oracle, &Tracer::new(false), None, &mut out)?;
        Some(pass(&placed, &oracle, &Tracer::new(false), None, &mut out)?)
    } else {
        None
    };
    let before = counters(&placed)?;
    let pass_tracer = Tracer::new(true);
    let traced = pass_tracer.span("pass", None, |root| {
        pass(&placed, &oracle, &pass_tracer, root, &mut out)
    })?;
    let after = counters(&placed)?;
    let [hops, scanned, cross] = std::array::from_fn(|i| after[i] - before[i]);
    let jobs = placed.request.job_count();
    layers.set("placed.frontiers_per_job", hops as f64 / jobs.max(1) as f64);
    layers.set("placed.hop_us", traced * 1e6 / hops.max(1) as f64);
    layers.set("placed.cross_frac", cross as f64 / scanned.max(1) as f64);
    let pass_spans = pass_tracer.spans();
    if let Some(untraced) = untraced {
        layers.account_pass(&pass_spans, untraced, &mut out);
        // Only this workload's own set-up; as a probe, it would blur another's.
        layers.add_spans(&tracer.spans());
    }
    let mut spans = tracer.spans();
    spans.extend(pass_spans);
    layers.save_trace(ctx, "placed-pa10k", &spans)?;
    placed.stop();
    Ok(out)
}

//! `serve-pa10k`: open-loop Poisson requests against an `sfo serve` child on a
//! capped-PA snapshot of 10^4 nodes, at three fixed rates (`light`, `knee`,
//! `overload`). Each request carries 32 floods at TTL 4, so the wire, the hand-off
//! and the per-connection queue dominate over the search itself.

use crate::common::{
    build_and_save, f64_field, field, secs, str_field, usize_field, Ctx, RunOutcome,
};
use crate::openloop::{self, poisson_schedule, Timed};
use crate::procs::{own_peak_rss_mb, Daemon};
use crate::stats::{median, quantile, tail};
use crate::trace::{self_times, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfo_engine::{run_queries_offset, AlgorithmTable, EngineConfig, QueryBatch, WorkerPool};
use sfo_graph::{CsrGraph, NodeId};
use sfo_net::message::{recv_message, send_message, BatchRequest, Message};
use sfo_net::{NetStream, WorkerClient};
use sfo_obs::MetricsSnapshot;
use sfo_scenario::json::FromJson;
use sfo_scenario::{BuiltSearch, SearchSpec};
use sfo_search::SearchOutcome;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SPEC: &str = "serve-pa10k.json";
/// The daemon's engine workers.
const ENGINE_WORKERS: usize = 1;
/// The daemon's per-connection pending-queue bound (`sfo serve --queue-bound`);
/// past it the daemon sheds.
const QUEUE_BOUND: usize = 32;
/// Every `CHECK_EVERY`-th served payload is checked against a local run.
const CHECK_EVERY: usize = 25;
/// Closed-loop round trips the traced run times for `net.roundtrip_us`.
const ROUNDTRIPS: usize = 400;
/// A run whose p99 send lag exceeds this many ms is invalid: the generator fell
/// behind its schedule.
const MAX_SEND_LAG_P99_MS: f64 = 50.0;

/// The phases of the schedule, in order.
pub const PHASES: [&str; 3] = ["light", "knee", "overload"];

struct Phase {
    name: String,
    rate_hz: f64,
    requests: usize,
}

struct Config {
    snapshot_spec: String,
    setups: usize,
    jobs_per_request: usize,
    ttl: u32,
    search: SearchSpec,
    warmup_requests: usize,
    phases: Vec<Phase>,
}

fn config(ctx: &Ctx) -> Result<Config, String> {
    let spec = ctx.spec(SPEC)?;
    let phases = field(&spec, "phases")?
        .as_array()
        .ok_or("\"phases\" must be an array")?
        .iter()
        .map(|p| {
            // A phase lasts its share of the run's seconds, with a floor on its
            // request count so that its reported percentile stays supported.
            let rate_hz = f64_field(p, "rate_hz")?;
            let planned = (rate_hz * f64_field(p, "share")? * ctx.seconds).round() as usize;
            Ok(Phase {
                name: str_field(p, "name")?.to_string(),
                rate_hz,
                requests: planned.max(usize_field(p, "min_requests")?),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
    if names != PHASES {
        return Err(format!(
            "{SPEC}: phases must be {PHASES:?}, found {names:?}"
        ));
    }
    Ok(Config {
        snapshot_spec: str_field(&spec, "snapshot")?.to_string(),
        setups: usize_field(&spec, "setups")?.max(1),
        jobs_per_request: usize_field(&spec, "jobs_per_request")?,
        ttl: u32::try_from(usize_field(&spec, "ttl")?).map_err(|e| e.to_string())?,
        search: SearchSpec::from_json(field(&spec, "search")?).map_err(|e| e.to_string())?,
        warmup_requests: usize_field(&spec, "warmup_requests")?,
        phases,
    })
}

/// A running daemon plus the local copy of its snapshot the checks run against.
struct Served {
    daemon: Daemon,
    identity: u64,
    graph: Arc<CsrGraph>,
    algorithms: Arc<AlgorithmTable<CsrGraph>>,
    pool: WorkerPool,
}

fn set_up(ctx: &Ctx, cfg: &Config, tracer: &Tracer) -> Result<Served, String> {
    let snap = build_and_save(
        ctx,
        tracer,
        &cfg.snapshot_spec,
        ctx.seed,
        "pa10k-serve.sfos",
    )?;
    let graph = tracer
        .span("graph.snapshot_load", None, |_| CsrGraph::load(&snap.path))
        .map_err(|e| format!("{}: {e}", snap.path))?;
    let algorithm = match cfg.search.build_for::<CsrGraph>(snap.provenance.m as usize) {
        Ok(BuiltSearch::Algorithm(a)) => a,
        Ok(BuiltSearch::RwNormalizedToNf { .. }) => {
            return Err(format!("{SPEC}: a request carries a plain search"))
        }
        Err(e) => return Err(e.to_string()),
    };
    let workers = ENGINE_WORKERS.to_string();
    let bound = QUEUE_BOUND.to_string();
    let daemon = tracer.span("net.spawn", None, |_| {
        Daemon::spawn(
            &ctx.sfo,
            &snap.path,
            &["--engine-workers", &workers, "--queue-bound", &bound],
        )
    })?;
    let served = Served {
        daemon,
        identity: snap.identity,
        graph: Arc::new(graph),
        algorithms: Arc::new(vec![algorithm]),
        pool: WorkerPool::new(EngineConfig::with_workers(1)),
    };
    // Warm-up: closed-loop requests of the schedule's own shape, so connection
    // set-up and the daemon's first-use costs are paid before timing.
    let mut client = WorkerClient::connect(&served.daemon.addr).map_err(|e| e.to_string())?;
    let n = served.graph.node_count();
    tracer.span("net.warmup", None, |_| -> Result<(), String> {
        for i in 0..cfg.warmup_requests {
            let (batch, _) = request(cfg, ctx.seed, n, i);
            let warmup = BatchRequest::Queries {
                seed: ctx.seed,
                index_offset: 0,
                algorithms: vec![cfg.search.clone()],
                batch,
            };
            client
                .submit(&warmup)
                .map_err(|e| format!("warm-up request failed: {e}"))?;
        }
        Ok(())
    })?;
    Ok(served)
}

/// How the daemon answered one request.
#[derive(Debug, Clone, PartialEq)]
enum Reply {
    Served(Vec<SearchOutcome>),
    Shed,
    Refused(String),
}

/// What one phase measured.
struct PhaseRun {
    name: String,
    /// Seconds from the phase's start to its last reply.
    makespan_s: f64,
    timed: Vec<Timed<Reply>>,
    start: Instant,
    /// Global index of the phase's first request.
    first: usize,
}

impl PhaseRun {
    fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .timed
            .iter()
            .filter(|t| matches!(t.reply, Reply::Served(_)))
            .map(|t| t.latency().as_secs_f64() * 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn count(&self, pred: impl Fn(&Reply) -> bool) -> usize {
        self.timed.iter().filter(|t| pred(&t.reply)).count()
    }
}

/// The batch request number `global` sends: `jobs` sources drawn from the run seed,
/// on global job indices `global * jobs ..`.
fn request(cfg: &Config, seed: u64, node_count: usize, global: usize) -> (QueryBatch, Message) {
    let mut rng = StdRng::seed_from_u64(seed ^ (global as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut batch = QueryBatch::new();
    for _ in 0..cfg.jobs_per_request {
        batch.push(NodeId::new(rng.gen_range(0..node_count)), 0, cfg.ttl);
    }
    let message = Message::SubmitBatch(BatchRequest::Queries {
        seed,
        index_offset: (global * cfg.jobs_per_request) as u64,
        algorithms: vec![cfg.search.clone()],
        batch: batch.clone(),
    });
    (batch, message)
}

fn connect(addr: &str, identity: u64) -> Result<(NetStream, NetStream), String> {
    let stream = NetStream::connect(addr).map_err(|e| e.to_string())?;
    if let NetStream::Tcp(tcp) = &stream {
        tcp.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
    }
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    match recv_message(&mut reader).map_err(|e| e.to_string())? {
        Message::Hello(hello) if hello.identity == identity => Ok((stream, reader)),
        other => Err(format!("expected the snapshot's Hello, got {other:?}")),
    }
}

/// Runs the whole schedule over one connection; `between` runs before and after
/// every phase (the traced run polls the daemon's stats there).
fn schedule(
    cfg: &Config,
    served: &Served,
    seed: u64,
    mut between: impl FnMut(Option<&str>) -> Result<(), String>,
) -> Result<Vec<PhaseRun>, String> {
    let (mut writer, mut reader) = connect(&served.daemon.addr, served.identity)?;
    let n = served.graph.node_count();
    let mut runs = Vec::new();
    let mut global = 0;
    for (p, phase) in cfg.phases.iter().enumerate() {
        let mut arrivals = StdRng::seed_from_u64(seed ^ (0xA5A5_0000 + p as u64));
        let due = poisson_schedule(phase.rate_hz, phase.requests, || arrivals.gen::<f64>());
        let messages: Vec<Message> = (global..global + phase.requests)
            .map(|g| request(cfg, seed, n, g).1)
            .collect();
        between(None)?;
        let start = Instant::now();
        let timed = openloop::run(
            &due,
            |i| send_message(&mut writer, &messages[i]).map_err(|e| e.to_string()),
            || match recv_message(&mut reader).map_err(|e| e.to_string())? {
                Message::BatchResult { outcomes } => Ok(Reply::Served(outcomes)),
                Message::Overloaded { .. } => Ok(Reply::Shed),
                Message::Error { message } => Ok(Reply::Refused(message)),
                other => Err(format!("unexpected reply {other:?}")),
            },
        )?;
        let makespan_s = timed.last().map_or(0.0, |t| t.done.as_secs_f64());
        between(Some(&phase.name))?;
        runs.push(PhaseRun {
            name: phase.name.clone(),
            makespan_s,
            timed,
            start,
            first: global,
        });
        global += phase.requests;
    }
    Ok(runs)
}

/// Checks every `CHECK_EVERY`-th served payload against a local run of the same
/// `(seed, global job index)` streams; counts errors, misses and forbidden sheds.
fn check(cfg: &Config, served: &Served, seed: u64, runs: &[PhaseRun], out: &mut RunOutcome) {
    let n = served.graph.node_count();
    for run in runs {
        let may_shed = run.name == PHASES[2];
        for (i, t) in run.timed.iter().enumerate() {
            let global = run.first + i;
            out.attempted += 1;
            match &t.reply {
                Reply::Served(outcomes) => {
                    if global % CHECK_EVERY == 0 {
                        let (batch, _) = request(cfg, seed, n, global);
                        let local = run_queries_offset(
                            &served.pool,
                            &served.graph,
                            &served.algorithms,
                            &batch,
                            seed,
                            global * cfg.jobs_per_request,
                        );
                        if local != *outcomes {
                            out.failed += 1;
                            out.check(false, || {
                                format!("request {global}: payload differs from the local run")
                            });
                        }
                    }
                }
                Reply::Shed if may_shed => {}
                Reply::Shed => out.failed += 1,
                Reply::Refused(message) => {
                    out.failed += 1;
                    out.check(false, || format!("request {global} refused: {message}"));
                }
            }
        }
    }
}

/// p99 send lag over the whole schedule, in ms; a run whose generator fell further
/// behind than `MAX_SEND_LAG_P99_MS` is invalid.
fn send_lag_p99_ms(runs: &[PhaseRun], out: &mut RunOutcome) -> f64 {
    let mut lags: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.timed.iter().map(|t| t.send_lag().as_secs_f64() * 1e3))
        .collect();
    lags.sort_by(f64::total_cmp);
    let p99 = quantile(&lags, 0.99).unwrap_or(0.0);
    out.check(p99 <= MAX_SEND_LAG_P99_MS, || {
        format!(
            "invalid run: the generator fell behind (p99 send lag {p99:.3} ms > {} ms)",
            MAX_SEND_LAG_P99_MS
        )
    });
    p99
}

/// The end-to-end run.
pub fn run(ctx: &Ctx) -> Result<RunOutcome, String> {
    let cfg = config(ctx)?;
    let tracer = Tracer::new(false);
    let mut out = RunOutcome::default();
    let mut setup_times = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..cfg.setups {
        if let Some(previous) = served.take() {
            previous.daemon.stop();
        }
        let t = Instant::now();
        served = Some(set_up(ctx, &cfg, &tracer)?);
        setup_times.push(secs(t));
    }
    let served = served.expect("at least one set-up");
    let seed = ctx.seed;
    let runs = schedule(&cfg, &served, seed, |_| Ok(()))?;
    check(&cfg, &served, seed, &runs, &mut out);
    let lag = send_lag_p99_ms(&runs, &mut out);
    out.notes.push(format!("p99 send lag {lag:.3} ms"));

    out.put("setup_s", median(&setup_times).unwrap_or(0.0), "s");
    out.put("wall_s", runs.iter().map(|r| r.makespan_s).sum(), "s");
    out.put("ok_frac", crate::units::ok_frac(&out), "fraction");
    let daemon_rss = served.daemon.peak_rss_mb();
    out.put("peak_rss_mb", own_peak_rss_mb() + daemon_rss, "MB");
    for run in &runs[..2] {
        let phase = &run.name;
        let lat = run.latencies_ms();
        let p50 = median(&lat).unwrap_or(0.0);
        let p99 = quantile(&lat, 0.99).unwrap_or(0.0);
        match tail(&lat) {
            Some(t) if t.quantile >= 0.99 => {}
            found => out.check(false, || {
                format!(
                    "{phase}: p99 is not supported by {} samples (tail {found:?})",
                    lat.len()
                )
            }),
        }
        let beyond = lat.len() - lat.len().min(((0.99 * lat.len() as f64).ceil()) as usize);
        let mut lags: Vec<f64> = run
            .timed
            .iter()
            .map(|t| t.send_lag().as_secs_f64() * 1e3)
            .collect();
        lags.sort_by(f64::total_cmp);
        out.notes.push(format!(
            "{phase}: {} sent, {} served; p50 {p50:.3} ms, p99 {p99:.3} ms ({beyond} samples \
             beyond p99); send lag p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            run.timed.len(),
            lat.len(),
            quantile(&lags, 0.5).unwrap_or(0.0),
            quantile(&lags, 0.99).unwrap_or(0.0),
            lags.last().copied().unwrap_or(0.0),
        ));
        out.put(&format!("p50_ms.{phase}"), p50, "ms");
        out.put(&format!("p99_ms.{phase}"), p99, "ms");
    }
    let overload = &runs[2];
    let served_n = overload.count(|r| matches!(r, Reply::Served(_)));
    let window = overload.makespan_s - overload.timed.first().map_or(0.0, |t| t.due.as_secs_f64());
    out.notes.push(format!(
        "overload: {} sent, {served_n} served, {} shed over {window:.3} s",
        overload.timed.len(),
        overload.count(|r| *r == Reply::Shed)
    ));
    out.put("goodput_rps.overload", served_n as f64 / window, "1/s");
    served.daemon.stop();
    Ok(out)
}

/// The traced run: one set-up, the closed-loop round-trip probe, then one traced
/// schedule that polls the daemon's stats around each phase. With `account`, an
/// untraced schedule runs first, and the tracing overhead, the accounted share
/// and the set-up's layer times are recorded; without it (the net-layer probe of another workload's traced run),
/// only the `net.*` metrics are.
pub fn run_traced(
    ctx: &Ctx,
    layers: &mut crate::layers::Layers,
    account: bool,
) -> Result<RunOutcome, String> {
    let cfg = config(ctx)?;
    let tracer = Tracer::new(true);
    let mut out = RunOutcome::default();
    let served = set_up(ctx, &cfg, &tracer)?;
    let seed = ctx.seed;
    let mut client = WorkerClient::connect(&served.daemon.addr).map_err(|e| e.to_string())?;

    // Closed loop: one job at TTL 1, the next only after the reply.
    let mut rtts = Vec::with_capacity(ROUNDTRIPS);
    tracer.span("net.roundtrip_probe", None, |_| -> Result<(), String> {
        for i in 0..ROUNDTRIPS {
            let mut batch = QueryBatch::new();
            batch.push(NodeId::new(i % served.graph.node_count()), 0, 1);
            let request = BatchRequest::Queries {
                seed,
                index_offset: i as u64,
                algorithms: vec![cfg.search.clone()],
                batch,
            };
            let t = Instant::now();
            client.submit(&request).map_err(|e| e.to_string())?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    })?;
    layers.set("net.roundtrip_us", median(&rtts).unwrap_or(0.0));

    let untraced_wall: Option<f64> = if account {
        let untraced = schedule(&cfg, &served, seed, |_| Ok(()))?;
        Some(untraced.iter().map(|r| r.makespan_s).sum())
    } else {
        None
    };

    let pass_tracer = Tracer::new(true);
    let mut before = MetricsSnapshot::default();
    let mut deltas: Vec<(String, f64, f64)> = Vec::new();
    let runs = pass_tracer.span("pass", None, |_| {
        schedule(&cfg, &served, seed, |phase| {
            let now = client.stats().map_err(|e| e.to_string())?;
            if let Some(phase) = phase {
                let hist = |s: &MetricsSnapshot| {
                    s.histogram("net.request_micros.SubmitBatch")
                        .map_or((0, 0), |h| (h.sum, h.count))
                };
                let ((s1, c1), (s0, c0)) = (hist(&now), hist(&before));
                let shed = now.counter("net.shed_total").unwrap_or(0)
                    - before.counter("net.shed_total").unwrap_or(0);
                let mean = (s1 - s0) as f64 / (c1 - c0).max(1) as f64;
                deltas.push((phase.to_string(), mean, shed as f64));
            }
            before = now;
            Ok(())
        })
    })?;
    let root = pass_tracer.spans().first().map(|s| s.id);
    for run in &runs {
        let phase = &run.name;
        let phase_id = pass_tracer.open();
        let end = run.start + Duration::from_secs_f64(run.makespan_s);
        for t in &run.timed {
            let id = pass_tracer.open();
            pass_tracer.record(
                id,
                "net.request",
                phase_id,
                run.start + t.due,
                run.start + t.done,
            );
        }
        pass_tracer.record(
            phase_id,
            &format!("serve.phase.{phase}"),
            root,
            run.start,
            end,
        );
    }
    for (phase, mean, shed) in deltas {
        layers.set(&format!("net.service_us.{phase}"), mean);
        layers.set(&format!("net.shed.{phase}"), shed);
    }
    check(&cfg, &served, seed, &runs, &mut out);
    let lag = send_lag_p99_ms(&runs, &mut out);
    layers.set("net.send_lag_ms", lag);
    let pass_spans = pass_tracer.spans();
    if let Some(untraced_wall) = untraced_wall {
        // An open-loop schedule's wall is set by its due times, not by the layers:
        // a phase's self time is its idle gap, when no request is outstanding. The
        // net layer accounts for the rest, the union of the phase's requests.
        let phase_self = self_times(&pass_spans);
        let (mut wall, mut busy) = (0.0, 0.0);
        for run in &runs {
            let idle = phase_self
                .get(&format!("serve.phase.{}", run.name))
                .map_or(0.0, |&(s, _)| s);
            wall += run.makespan_s;
            busy += run.makespan_s - idle;
        }
        layers.account(busy, untraced_wall, wall);
        // Only this workload's own set-up; as a probe, it would blur another's.
        layers.add_spans(&tracer.spans());
    }
    let mut spans = tracer.spans();
    spans.extend(pass_spans);
    layers.save_trace(ctx, "serve-pa10k", &spans)?;
    served.daemon.stop();
    Ok(out)
}

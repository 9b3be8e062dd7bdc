//! `paper-smoke`: the paper's figure set at `Scale::smoke()`, through
//! `sfo_experiments::run_experiment` — what a `reproduce` user waits for.

use crate::common::{digest, secs, timed, usize_field, Ctx, Golden, RunOutcome};
use crate::trace::{self_times, SpanId, Tracer};
use crate::units::{batch_e2e, repeat_passes};
use sfo_experiments::{run_experiment, Scale};
use sfo_obs::Registry;
use sfo_scenario::ScenarioRunner;
use sfo_search::experiment::{label_salt, stream_rng};
use std::sync::Arc;
use std::time::Instant;

const SPEC: &str = "paper-smoke.json";
const GOLDEN: &str = "paper-smoke.json";

struct Setup {
    ids: Vec<String>,
    warmup: Vec<String>,
    probes: Vec<String>,
    golden: Golden,
}

fn list(spec: &sfo_scenario::json::JsonValue, key: &str) -> Result<Vec<String>, String> {
    crate::common::field(spec, key)?
        .as_array()
        .ok_or_else(|| format!("\"{key}\" must be an array"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("\"{key}\" holds strings"))
        })
        .collect()
}

/// Reads the spec and golden files and runs the warm-up experiments.
fn set_up(ctx: &Ctx, seed: u64) -> Result<Setup, String> {
    let spec = ctx.spec(SPEC)?;
    let setup = Setup {
        ids: crate::EXPERIMENT_IDS
            .iter()
            .map(|id| id.to_string())
            .collect(),
        warmup: list(&spec, "warmup")?,
        probes: list(&spec, "probes")?,
        golden: Golden::load(ctx, GOLDEN)?,
    };
    for id in &setup.warmup {
        run_experiment(id, &Scale::smoke(), seed)
            .ok_or_else(|| format!("unknown experiment {id}"))?;
    }
    Ok(setup)
}

/// One pass over the figure set, each experiment's output checked against its
/// golden digest; returns the pass's wall time.
fn pass(
    setup: &Setup,
    seed: u64,
    tracer: &Tracer,
    root: Option<SpanId>,
    out: &mut RunOutcome,
) -> f64 {
    let start = Instant::now();
    for id in &setup.ids {
        let output = tracer.span(&format!("experiments.{id}"), root, |_| {
            run_experiment(id, &Scale::smoke(), seed)
        });
        out.attempted += 1;
        let found = output.map(|o| digest(&o.to_string()));
        let expected = setup.golden.expected(seed, id);
        let ok = found.is_some() && found.as_deref() == expected;
        if !ok {
            out.failed += 1;
        }
        out.check(ok, || {
            format!("{id} (seed {seed}): output digest {found:?}, recorded {expected:?}")
        });
    }
    secs(start)
}

/// Prints the golden entry of input seed `seed` (used to record `golden/`).
pub fn record(_ctx: &Ctx, seed: u64) -> Result<String, String> {
    let digests = crate::EXPERIMENT_IDS
        .iter()
        .map(|&id| {
            let out = run_experiment(id, &Scale::smoke(), seed)
                .ok_or_else(|| format!("unknown experiment {id}"))?;
            Ok((id.to_string(), digest(&out.to_string())))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Golden::entry_json(seed, &digests))
}

/// The end-to-end run.
pub fn run(ctx: &Ctx) -> Result<RunOutcome, String> {
    let spec = ctx.spec(SPEC)?;
    let setups = usize_field(&spec, "setups")?.max(1);
    let mut out = RunOutcome::default();
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..setups {
        let (s, wall) = timed(|| {
            let golden = Golden::load(ctx, GOLDEN)?;
            set_up(ctx, golden.input_seed(ctx.seed))
        });
        setup_times.push(wall);
        setup = Some(s?);
    }
    let setup = setup.expect("at least one set-up");
    let seed = setup.golden.input_seed(ctx.seed);
    out.notes
        .push(format!("input seed {seed} (recorded golden digests)"));
    let tracer = Tracer::new(false);
    let passes = repeat_passes(ctx.seconds, || {
        Ok(pass(&setup, seed, &tracer, None, &mut out))
    })?;
    batch_e2e(&mut out, &setup_times, &passes, 0.0);
    Ok(out)
}

/// The traced run: one untraced and one traced pass, then the layer probes.
pub fn run_traced(ctx: &Ctx, layers: &mut crate::layers::Layers) -> Result<RunOutcome, String> {
    let mut out = RunOutcome::default();
    let golden = Golden::load(ctx, GOLDEN)?;
    let seed = golden.input_seed(ctx.seed);
    let setup = set_up(ctx, seed)?;
    let untraced = pass(&setup, seed, &Tracer::new(false), None, &mut out);
    let tracer = Tracer::new(true);
    tracer.span("pass", None, |root| {
        pass(&setup, seed, &tracer, root, &mut out)
    });
    let pass_spans = tracer.spans();
    layers.account_pass(&pass_spans, untraced, &mut out);
    for (name, (self_s, _)) in self_times(&pass_spans) {
        if let Some(id) = name.strip_prefix("experiments.") {
            layers.set(&format!("experiments.{id}_s"), self_s);
        }
    }
    probe(ctx, &setup, seed, &tracer, layers)?;
    layers.save_trace(ctx, "paper-smoke", &tracer.spans())?;
    Ok(out)
}

/// Layer probes at smoke size: each generator family and `freeze` called directly,
/// then the probe scenarios through a metered `ScenarioRunner` for its phase split.
fn probe(
    ctx: &Ctx,
    setup: &Setup,
    seed: u64,
    tracer: &Tracer,
    layers: &mut crate::layers::Layers,
) -> Result<(), String> {
    let registry = Arc::new(Registry::new());
    let runner = ScenarioRunner::new().with_metrics(Arc::clone(&registry));
    tracer.span("probe", None, |root| -> Result<(), String> {
        for file in &setup.probes {
            let mut spec = ctx.scenario(file)?;
            spec.seed = seed;
            for topology in spec.expanded_topologies() {
                let family = match topology.family() {
                    "dapa_grn" | "dapa_mesh" => "dapa",
                    other => other,
                };
                let generator = topology.build().map_err(|e| format!("{file}: {e}"))?;
                let label = spec.curve_label.clone().unwrap_or_else(|| topology.label());
                for r in 0..spec.realizations {
                    let mut rng = stream_rng(seed, label_salt(&label), r);
                    let graph = tracer
                        .span(&format!("core.generate.{family}"), root, |_| {
                            generator.generate(&mut rng)
                        })
                        .map_err(|e| format!("{file}: {e}"))?;
                    tracer.span("graph.freeze", root, |_| graph.freeze());
                }
            }
            tracer
                .span("scenario.run", root, |_| runner.run(&spec))
                .map_err(|e| format!("{file}: {e}"))?;
        }
        Ok(())
    })?;
    let snapshot = registry.snapshot();
    for phase in ["generate", "freeze", "sweep"] {
        let micros = snapshot
            .histogram(&format!("scenario.{phase}_micros"))
            .map_or(0, |h| h.sum);
        layers.set(&format!("scenario.{phase}_s"), micros as f64 / 1e6);
    }
    layers.add_spans(&tracer.spans());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup_with(golden: &str) -> Setup {
        Setup {
            ids: vec!["fig1a".to_string()],
            warmup: Vec::new(),
            probes: Vec::new(),
            golden: Golden::parse(golden).expect("golden text"),
        }
    }

    #[test]
    fn a_digest_mismatch_fails_the_run() {
        let right = digest(
            &run_experiment("fig1a", &Scale::smoke(), 3)
                .expect("fig1a")
                .to_string(),
        );
        let good = setup_with(&format!(
            "{{\"entries\": [{{\"seed\": 3, \"digests\": {{\"fig1a\": \"{right}\"}}}}]}}"
        ));
        let mut out = RunOutcome::default();
        pass(&good, 3, &Tracer::new(false), None, &mut out);
        assert_eq!((out.attempted, out.failed), (1, 0));
        assert!(out.check_failures.is_empty());

        let bad = setup_with(
            "{\"entries\": [{\"seed\": 3, \"digests\": {\"fig1a\": \"0x0000000000000000\"}}]}",
        );
        let mut out = RunOutcome::default();
        pass(&bad, 3, &Tracer::new(false), None, &mut out);
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert_eq!(out.check_failures.len(), 1);
        assert_eq!(crate::exit_code(&out), 1);
    }
}

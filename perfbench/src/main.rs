//! The sfoverlay benchmark: five workloads over the whole stack, each printing every
//! end-to-end metric (or, traced, every per-layer metric) and checking that every
//! output is correct. See README.md for the workloads, the metrics and how the
//! layers map onto the end-to-end numbers.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--bench-dir perfbench] [--work-dir .bench_work] [--sfo <path to sfo>]
//! perfbench --record-golden <paper-smoke|sweep-pa100k|sweep-pa1m> --seeds <n,n,...>
//! ```
//!
//! The last line of standard output is the result object; a failed output check
//! still prints it (with `"correct": false`) and exits 1.

mod common;
mod layers;
mod openloop;
mod paper;
mod placed;
mod procs;
mod serve;
mod stats;
mod sweep;
mod trace;
mod units;

use common::{Ctx, RunOutcome};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The paper's figure set, in the order `paper-smoke` runs it.
pub const EXPERIMENT_IDS: [&str; 16] = [
    "fig1a",
    "fig1b",
    "fig1c",
    "fig2",
    "fig3",
    "fig4",
    "fig4g",
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "msg-complexity",
];

/// Every workload the benchmark runs. `BENCHMARK.json` lists the first two; the
/// other three are too unsteady to gate on and run by name (see README.md).
const WORKLOADS: [&str; 5] = [
    "paper-smoke",
    "sweep-pa100k",
    "sweep-pa1m",
    "serve-pa10k",
    "placed-pa10k",
];

/// A run is stopped (with its daemons) after this long.
const DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bench_dir: PathBuf,
    work_dir: PathBuf,
    sfo: PathBuf,
    record: Option<(String, Vec<u64>)>,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--bench-dir <dir>] [--work-dir <dir>] [--sfo <path>]\n       \
         perfbench --record-golden <paper-smoke|sweep-pa100k|sweep-pa1m> --seeds <n,n,...>",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        bench_dir: PathBuf::from("perfbench"),
        work_dir: PathBuf::from(".bench_work"),
        sfo: PathBuf::from(".bench_build/release/sfo"),
        record: None,
    };
    let mut seen_seed = false;
    let mut record_workload = None;
    let mut record_seeds = None;
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad())?;
                seen_seed = true;
            }
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--bench-dir" => args.bench_dir = PathBuf::from(value),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--sfo" => args.sfo = PathBuf::from(value),
            "--record-golden" => record_workload = Some(value.clone()),
            "--seeds" => {
                record_seeds = Some(
                    value
                        .split(',')
                        .map(|s| s.trim().parse::<u64>().map_err(|_| bad()))
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if let Some(workload) = record_workload {
        let seeds = record_seeds.ok_or("--record-golden needs --seeds")?;
        args.record = Some((workload, seeds));
        return Ok(args);
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload \"{}\"", args.workload));
    }
    if !seen_seed || args.seconds.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err("--seed and a positive --seconds are required".to_string());
    }
    Ok(args)
}

/// Runs one workload, end-to-end or traced.
fn run(ctx: &Ctx, workload: &str, traced: bool) -> Result<RunOutcome, String> {
    if !traced {
        return match workload {
            "paper-smoke" => paper::run(ctx),
            "sweep-pa100k" | "sweep-pa1m" => sweep::run(ctx, workload),
            "serve-pa10k" => serve::run(ctx),
            "placed-pa10k" => placed::run(ctx),
            other => Err(format!("unknown workload {other}")),
        };
    }
    let mut layers = layers::Layers::default();
    let mut out = match workload {
        "paper-smoke" => paper::run_traced(ctx, &mut layers),
        "sweep-pa100k" | "sweep-pa1m" => sweep::run_traced(ctx, workload, &mut layers),
        "serve-pa10k" => serve::run_traced(ctx, &mut layers, true),
        "placed-pa10k" => placed::run_traced(ctx, &mut layers, true),
        other => Err(format!("unknown workload {other}")),
    }?;
    layers.emit(&mut out);
    Ok(out)
}

/// The process exit code of a finished run: 1 when any output check failed.
fn exit_code(out: &RunOutcome) -> u8 {
    u8::from(!out.check_failures.is_empty())
}

/// The result object printed as the last line of standard output.
fn result_json(out: &RunOutcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check_failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        bench_dir: args.bench_dir,
        work_dir: args.work_dir,
        sfo: args.sfo,
        seed: args.seed,
        seconds: args.seconds,
    };
    if let Some((workload, seeds)) = &args.record {
        let entries: Result<Vec<String>, String> = seeds
            .iter()
            .map(|&seed| match workload.as_str() {
                "paper-smoke" => paper::record(&ctx, seed),
                w @ ("sweep-pa100k" | "sweep-pa1m") => sweep::record(&ctx, w, seed),
                other => Err(format!("{other} has no golden digests")),
            })
            .collect();
        return match entries {
            Ok(entries) => {
                println!("{{\n  \"entries\": [\n{}\n  ]\n}}", entries.join(",\n"));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    procs::arm_deadline(DEADLINE);
    let mut out = match run(&ctx, &args.workload, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let non_finite: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("{} is not a finite number", m.name))
        .collect();
    out.check_failures.extend(non_finite);
    for note in &out.notes {
        eprintln!("perfbench: {note}");
    }
    eprintln!(
        "perfbench: {} seed {}: {} attempted, {} failed",
        args.workload, args.seed, out.attempted, out.failed
    );
    for m in &out.metrics {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for failure in &out.check_failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    println!("{}", result_json(&out));
    ExitCode::from(exit_code(&out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve-pa10k",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(
            (args.workload.as_str(), args.seed, args.trace),
            ("serve-pa10k", 7, true)
        );
        assert!(parse_args(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload", "paper-smoke", "--seconds", "1"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
    }

    #[test]
    fn a_failed_check_means_a_nonzero_exit_and_an_incorrect_result() {
        let mut out = RunOutcome {
            attempted: 3,
            ..RunOutcome::default()
        };
        out.put("wall_s", 1.5, "s");
        assert_eq!(exit_code(&out), 0);
        assert!(result_json(&out).starts_with("{\"correct\": true, \"attempted\": 3"));
        out.check(false, || "digest mismatch".to_string());
        assert_eq!(exit_code(&out), 1);
        let json = result_json(&out);
        assert!(json.starts_with("{\"correct\": false"));
        assert!(json.ends_with("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"));
    }

    /// The metric names of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let root = sfo_scenario::json::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        root.get(section)
            .and_then(|v| v.as_array())
            .expect("a metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn emitted_metrics_match_the_declared_ones() {
        let mut out = RunOutcome::default();
        layers::Layers::default().emit(&mut out);
        let emitted: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(emitted, declared("per_layer"));

        let mut out = RunOutcome {
            attempted: 1,
            ..RunOutcome::default()
        };
        let wall = common::Wall {
            measured: 1.0,
            stolen: 0.0,
        };
        units::batch_e2e(&mut out, &[wall], &[wall], 0.0);
        let emitted: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(emitted, declared("end_to_end"));
    }

    #[test]
    fn every_per_layer_metric_is_emitted_once() {
        let mut out = RunOutcome::default();
        layers::Layers::default().emit(&mut out);
        let mut names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(names.contains(&"experiments.msg-complexity_s"));
        assert!(names.contains(&"placed.hop_us"));
    }
}

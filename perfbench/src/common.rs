//! What every workload shares: run settings, spec files, snapshots, digests and the
//! shape of a result.

use crate::trace::Tracer;
use sfo_graph::snapshot::{fnv1a64, read_identity, Provenance};
use sfo_scenario::json::JsonValue;
use sfo_scenario::{build_snapshot, ScenarioSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Settings of one benchmark run.
pub struct Ctx {
    /// The benchmark's directory (spec and golden files live under it).
    pub bench_dir: PathBuf,
    /// Scratch directory for snapshots and traces, inside the checkout.
    pub work_dir: PathBuf,
    /// The `sfo` binary the daemons run as.
    pub sfo: PathBuf,
    /// The run's seed; every input is derived from it.
    pub seed: u64,
    /// How long the measured part should last.
    pub seconds: f64,
}

impl Ctx {
    /// Parses `specs/<name>` under the benchmark directory.
    pub fn spec(&self, name: &str) -> Result<JsonValue, String> {
        let path = self.bench_dir.join("specs").join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses `specs/<name>` as a scenario spec.
    pub fn scenario(&self, name: &str) -> Result<ScenarioSpec, String> {
        let path = self.bench_dir.join("specs").join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        ScenarioSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// A path under the work directory (created on first use).
    pub fn work_path(&self, name: &str) -> Result<String, String> {
        std::fs::create_dir_all(&self.work_dir)
            .map_err(|e| format!("cannot create {}: {e}", self.work_dir.display()))?;
        Ok(self.work_dir.join(name).to_string_lossy().into_owned())
    }
}

/// Reads a required field of a spec object.
pub fn field<'a>(spec: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    spec.get(key)
        .ok_or_else(|| format!("spec is missing \"{key}\""))
}

/// Reads a required unsigned field.
pub fn usize_field(spec: &JsonValue, key: &str) -> Result<usize, String> {
    field(spec, key)?
        .as_usize()
        .ok_or_else(|| format!("\"{key}\" must be an unsigned integer"))
}

/// Reads a required number field.
pub fn f64_field(spec: &JsonValue, key: &str) -> Result<f64, String> {
    field(spec, key)?
        .as_f64()
        .ok_or_else(|| format!("\"{key}\" must be a number"))
}

/// Reads a required string field.
pub fn str_field<'a>(spec: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    field(spec, key)?
        .as_str()
        .ok_or_else(|| format!("\"{key}\" must be a string"))
}

/// Reads a required array of unsigned integers.
pub fn u32_list(spec: &JsonValue, key: &str) -> Result<Vec<u32>, String> {
    field(spec, key)?
        .as_array()
        .ok_or_else(|| format!("\"{key}\" must be an array"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| format!("\"{key}\" must hold unsigned integers"))
        })
        .collect()
}

/// A snapshot written to the work directory.
pub struct Snapshot {
    /// Where it was saved.
    pub path: String,
    /// Its identity hash (what a daemon echoes in `Hello`).
    pub identity: u64,
    /// The generation provenance (stub count `m`, `sweep_seed`).
    pub provenance: Provenance,
}

/// Generates the topology of scenario spec `spec_file` with its seed replaced by
/// `seed`, and saves it (unsharded, with provenance) as `<out>` in the work
/// directory.
pub fn build_and_save(
    ctx: &Ctx,
    tracer: &Tracer,
    spec_file: &str,
    seed: u64,
    out: &str,
) -> Result<Snapshot, String> {
    let mut spec = ctx.scenario(spec_file)?;
    spec.seed = seed;
    let family = spec
        .topology
        .as_ref()
        .map_or("pa".to_string(), |t| t.family().to_string());
    let file = tracer
        .span(&format!("core.generate.{family}"), None, |_| {
            build_snapshot(&spec, 0)
        })
        .map_err(|e| format!("{spec_file}: {e}"))?;
    let path = ctx.work_path(out)?;
    tracer
        .span("graph.snapshot_save", None, |_| file.save(&path))
        .map_err(|e| format!("cannot save {path}: {e}"))?;
    let identity = read_identity(&path).map_err(|e| format!("{path}: {e}"))?;
    let provenance = file
        .provenance
        .ok_or_else(|| format!("{spec_file}: the built snapshot carries no provenance"))?;
    Ok(Snapshot {
        path,
        identity,
        provenance,
    })
}

/// 64-bit FNV-1a digest of a text, as the `0x…` hex string golden files store.
pub fn digest(text: &str) -> String {
    format!("{:#018x}", fnv1a64(text.as_bytes()))
}

/// Golden digests recorded at the seed commit: for each recorded input seed, a
/// digest per output key. A run's `--seed` selects one recorded input seed, so
/// every run can be checked.
pub struct Golden {
    entries: Vec<(u64, BTreeMap<String, String>)>,
}

impl Golden {
    /// Reads `golden/<name>` under the benchmark directory.
    pub fn load(ctx: &Ctx, name: &str) -> Result<Golden, String> {
        let path = ctx.bench_dir.join("golden").join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Golden::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses `{"entries": [{"seed": n, "digests": {key: "0x…", …}}, …]}`.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let root = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let entries = field(&root, "entries")?
            .as_array()
            .ok_or("\"entries\" must be an array")?
            .iter()
            .map(|entry| {
                let seed = field(entry, "seed")?
                    .as_u64()
                    .ok_or("\"seed\" must be an unsigned integer")?;
                let digests = field(entry, "digests")?
                    .as_object()
                    .ok_or("\"digests\" must be an object")?
                    .iter()
                    .map(|(k, v)| {
                        v.as_str()
                            .map(|d| (k.clone(), d.to_string()))
                            .ok_or_else(|| format!("digest of {k} must be a string"))
                    })
                    .collect::<Result<BTreeMap<_, _>, String>>()?;
                Ok((seed, digests))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if entries.is_empty() {
            return Err("no recorded seeds".to_string());
        }
        Ok(Golden { entries })
    }

    /// The recorded input seed a run seed selects.
    pub fn input_seed(&self, run_seed: u64) -> u64 {
        self.entries[(run_seed % self.entries.len() as u64) as usize].0
    }

    /// The recorded digest of `key` for input seed `seed`.
    pub fn expected(&self, seed: u64, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(s, _)| *s == seed)
            .and_then(|(_, d)| d.get(key))
            .map(String::as_str)
    }

    /// Renders one recorded entry, in the file's format.
    pub fn entry_json(seed: u64, digests: &[(String, String)]) -> String {
        let body: Vec<String> = digests
            .iter()
            .map(|(k, d)| format!("      \"{k}\": \"{d}\""))
            .collect();
        format!(
            "    {{\"seed\": {seed}, \"digests\": {{\n{}\n    }}}}",
            body.join(",\n")
        )
    }
}

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, refusals, output-check misses (and sheds in
    /// phases that must not shed).
    pub failed: u64,
    /// Output-check failures, described; any makes the run incorrect.
    pub check_failures: Vec<String>,
    /// Measured metrics (end-to-end, or per-layer in a traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable context printed beside the metrics (sample counts, tails).
    pub notes: Vec<String>,
}

impl RunOutcome {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The host's cumulative CPU time split from the `cpu` line of `/proc/stat`:
/// `(busy, steal)` in clock ticks, where busy counts every state but idle and
/// iowait. Steal is time a vCPU wanted to run but the hypervisor ran something
/// else. Reads `(0, 0)` where the file is missing, which disables the adjustment
/// below.
fn host_cpu() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let at = |i: usize| ticks.get(i).copied().unwrap_or(0);
    let busy = at(0) + at(1) + at(2) + at(5) + at(6) + at(7);
    (busy, at(7))
}

/// Times a call in wall-clock seconds, both as measured and net of host CPU
/// steal.
///
/// On a shared virtual machine, the hypervisor can withhold the vCPUs for
/// minutes at a time. That stretches every wall time by the share of the
/// wanted CPU time it withholds: on the 2-vCPU test host, the same pass took
/// 15 s or 23 s. The net time scales the wall time by the share of busy vCPU
/// time that was not stolen while the call ran. For CPU-bound work it
/// approximates the wall time the same pass takes on an uncontended host.
pub fn timed<T>(call: impl FnOnce() -> T) -> (T, Wall) {
    let (busy0, steal0) = host_cpu();
    let start = Instant::now();
    let out = call();
    let measured = secs(start);
    let (busy1, steal1) = host_cpu();
    let busy = busy1.saturating_sub(busy0);
    let stolen = if busy == 0 {
        0.0
    } else {
        steal1.saturating_sub(steal0) as f64 / busy as f64
    };
    (out, Wall { measured, stolen })
}

/// A wall time and the host's steal share while it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// Seconds, as measured.
    pub measured: f64,
    /// Share of busy vCPU time the hypervisor withheld, in `[0, 1]`.
    pub stolen: f64,
}

impl Wall {
    /// Seconds net of host CPU steal.
    pub fn net(&self) -> f64 {
        self.measured * (1.0 - self.stolen)
    }
}

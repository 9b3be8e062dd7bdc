//! The per-layer metrics of a traced run.
//!
//! Every traced run reports every per-layer metric. A layer the workload does not
//! enter reports 0: its self time in that workload is zero.

use crate::common::{Ctx, RunOutcome};
use crate::trace::{self_times, to_json, Span};
use std::collections::BTreeMap;

/// The least share of a traced batch pass its layer spans must cover.
pub const MIN_ACCOUNTED: f64 = 0.9;

/// Every per-layer metric with its unit, in report order.
pub fn catalogue() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| names.push((name, unit));
    for family in ["pa", "cm", "hapa", "dapa"] {
        add(format!("core.generate_s.{family}"), "s");
    }
    for id in crate::EXPERIMENT_IDS {
        add(format!("experiments.{id}_s"), "s");
    }
    for phase in ["generate", "freeze", "sweep"] {
        add(format!("scenario.{phase}_s"), "s");
    }
    for name in [
        "graph.freeze_s",
        "graph.snapshot_save_s",
        "graph.snapshot_load_s",
    ] {
        add(name.to_string(), "s");
    }
    for alg in ["fl", "nf", "rw"] {
        add(format!("search.{alg}.job_us"), "us");
        add(format!("search.{alg}.messages_per_job"), "count");
        add(format!("search.{alg}.hits_per_message"), "ratio");
    }
    add("engine.batch_s".to_string(), "s");
    add("engine.efficiency".to_string(), "ratio");
    add("net.roundtrip_us".to_string(), "us");
    for phase in crate::serve::PHASES {
        add(format!("net.service_us.{phase}"), "us");
        add(format!("net.shed.{phase}"), "count");
    }
    add("net.send_lag_ms".to_string(), "ms");
    add("placed.frontiers_per_job".to_string(), "count");
    add("placed.hop_us".to_string(), "us");
    add("placed.cross_frac".to_string(), "ratio");
    add("trace.overhead_s".to_string(), "s");
    add("trace.accounted_frac".to_string(), "ratio");
    names
}

/// Per-layer values of one traced run, all starting at 0.
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: catalogue().into_iter().map(|(n, _)| (n, 0.0)).collect(),
        }
    }
}

impl Layers {
    /// Sets a metric; panics on a name outside the catalogue (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalogue")) = value;
    }

    /// Adds the self times of the spans that map onto layer metrics.
    pub fn add_spans(&mut self, spans: &[Span]) {
        for (name, (self_s, _)) in self_times(spans) {
            let metric = if let Some(family) = name.strip_prefix("core.generate.") {
                format!("core.generate_s.{family}")
            } else if name.starts_with("engine.batch.") {
                "engine.batch_s".to_string()
            } else if name.starts_with("graph.") {
                format!("{name}_s")
            } else {
                continue;
            };
            if let Some(value) = self.values.get_mut(&metric) {
                *value += self_s;
            }
        }
    }

    /// Records the tracing overhead (traced minus untraced wall time) and the share
    /// of the traced wall that `layer_s` seconds of layer time cover; returns the
    /// share.
    pub fn account(&mut self, layer_s: f64, untraced_wall_s: f64, traced_wall_s: f64) -> f64 {
        let share = layer_s / traced_wall_s;
        self.set("trace.overhead_s", traced_wall_s - untraced_wall_s);
        self.set("trace.accounted_frac", share);
        share
    }

    /// Accounts a traced batch pass. `pass_spans` holds it under a root span named
    /// `pass` whose children are back-to-back calls into a layer; what they leave
    /// uncovered is the benchmark's own glue (digests, output checks). Fails the
    /// run when the layer spans cover less than [`MIN_ACCOUNTED`] of the pass.
    pub fn account_pass(
        &mut self,
        pass_spans: &[Span],
        untraced_wall_s: f64,
        out: &mut RunOutcome,
    ) {
        let layer_s = self_times(pass_spans)
            .into_iter()
            .filter(|(name, _)| name != "pass")
            .map(|(_, (s, _))| s)
            .sum();
        let traced_wall_s = pass_spans
            .iter()
            .filter(|s| s.name == "pass")
            .map(|s| s.end - s.start)
            .sum();
        let share = self.account(layer_s, untraced_wall_s, traced_wall_s);
        out.check(share >= MIN_ACCOUNTED, || {
            format!("layer spans cover {share:.3} of the traced pass, below {MIN_ACCOUNTED}")
        });
    }

    /// Writes the run's spans to `trace/<workload>-seed<n>.json` in the work
    /// directory.
    pub fn save_trace(&self, ctx: &Ctx, workload: &str, spans: &[Span]) -> Result<(), String> {
        let dir = ctx.work_dir.join("trace");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{workload}-seed{}.json", ctx.seed));
        std::fs::write(&path, to_json(spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: wrote {} spans to {}",
            spans.len(),
            path.display()
        );
        Ok(())
    }

    /// Moves the values into `out` in catalogue order.
    pub fn emit(self, out: &mut RunOutcome) {
        for (name, unit) in catalogue() {
            out.put(&name, self.values[&name], unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::span;

    #[test]
    fn glue_outside_the_layer_spans_fails_the_accounting() {
        // A 10 s pass: 9.5 s inside layer calls, the rest glue.
        let tiled = [
            span(1, None, "pass", 0.0, 10.0),
            span(2, Some(1), "experiments.fig1a", 0.0, 4.0),
            span(3, Some(1), "experiments.fig2", 4.5, 10.0),
        ];
        let mut layers = Layers::default();
        let mut out = RunOutcome::default();
        layers.account_pass(&tiled, 9.0, &mut out);
        assert!((layers.values["trace.accounted_frac"] - 0.95).abs() < 1e-12);
        assert!((layers.values["trace.overhead_s"] - 1.0).abs() < 1e-12);
        assert!(out.check_failures.is_empty());

        // Half the pass outside any layer span.
        let gappy = [
            span(1, None, "pass", 0.0, 10.0),
            span(2, Some(1), "experiments.fig1a", 0.0, 5.0),
        ];
        let mut out = RunOutcome::default();
        layers.account_pass(&gappy, 10.0, &mut out);
        assert!((layers.values["trace.accounted_frac"] - 0.5).abs() < 1e-12);
        assert_eq!(out.check_failures.len(), 1);
        assert_eq!(crate::exit_code(&out), 1);
    }
}

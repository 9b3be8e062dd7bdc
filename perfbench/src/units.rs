//! End-to-end metrics of the batch workloads (`paper-smoke`, `sweep-pa1m`,
//! `placed-pa10k`), which time repeated passes over a fixed amount of work.
//!
//! Every workload reports every end-to-end metric. A batch workload has no offered
//! load: its user submits one pass (the figure set, the three sweeps, the placed
//! sweep) and waits for all of it. So its `light`/`knee` latency keys carry the
//! latency of a pass — the median, and the highest percentile the passes support,
//! which is the median again when fewer than 40 passes support no tail — and
//! `goodput_rps.overload` carries passes completed per second.
//!
//! Every time here is net of host CPU steal (see [`crate::common::timed`]); the
//! measured times and steal shares are printed beside the metrics.

use crate::common::{timed, RunOutcome, Wall};
use crate::procs::own_peak_rss_mb;
use crate::stats::{median, tail};

/// Runs passes for about `seconds`: at least one, and another only while it is
/// expected to end inside the window (judged by the mean pass so far). Each pass
/// returns its own measured wall time; the result pairs it with the host's steal
/// share while it ran.
pub fn repeat_passes(
    seconds: f64,
    mut pass: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<Wall>, String> {
    let mut walls: Vec<Wall> = Vec::new();
    let mut elapsed = 0.0;
    while walls.is_empty() || elapsed + elapsed / walls.len() as f64 <= seconds {
        let (measured, wall) = timed(&mut pass);
        let measured = measured?;
        elapsed += measured;
        walls.push(Wall { measured, ..wall });
    }
    Ok(walls)
}

/// Share of attempted operations that succeeded.
pub fn ok_frac(out: &RunOutcome) -> f64 {
    if out.attempted == 0 {
        return 0.0;
    }
    (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted as f64
}

/// Records the nine end-to-end metrics of a batch workload from its set-up and
/// pass times. `daemon_rss_mb` is the summed peak resident set of its child
/// daemons.
pub fn batch_e2e(out: &mut RunOutcome, setups: &[Wall], passes: &[Wall], daemon_rss_mb: f64) {
    let net = |walls: &[Wall]| -> Vec<f64> { walls.iter().map(Wall::net).collect() };
    let measured = |walls: &[Wall]| -> Vec<f64> { walls.iter().map(|w| w.measured).collect() };
    let stolen = |walls: &[Wall]| -> Vec<f64> { walls.iter().map(|w| w.stolen).collect() };
    let mut sorted = net(passes);
    sorted.sort_by(f64::total_cmp);
    let wall = median(&sorted).unwrap_or(0.0);
    let (high, label) = match tail(&sorted) {
        Some(t) => (t.value, t.label),
        None => (wall, "no supported tail; median"),
    };
    out.notes.push(format!(
        "{} passes: median {wall:.3} s net of steal, {label} {high:.3} s; measured median \
         {:.3} s; host steal share median {:.1} % (set-ups {:.1} %)",
        passes.len(),
        median(&measured(passes)).unwrap_or(0.0),
        median(&stolen(passes)).unwrap_or(0.0) * 100.0,
        median(&stolen(setups)).unwrap_or(0.0) * 100.0,
    ));
    out.put("setup_s", median(&net(setups)).unwrap_or(0.0), "s");
    out.put("wall_s", wall, "s");
    out.put("ok_frac", ok_frac(out), "fraction");
    out.put("peak_rss_mb", own_peak_rss_mb() + daemon_rss_mb, "MB");
    for phase in ["light", "knee"] {
        out.put(&format!("p50_ms.{phase}"), wall * 1e3, "ms");
        out.put(&format!("p99_ms.{phase}"), high * 1e3, "ms");
    }
    out.put(
        "goodput_rps.overload",
        passes.len() as f64 / sorted.iter().sum::<f64>(),
        "1/s",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_fill_the_window_without_overrunning_it() {
        let count = |seconds: f64| {
            repeat_passes(seconds, || Ok(1.0))
                .expect("passes never fail here")
                .len()
        };
        assert_eq!(count(3.5), 3);
        // A pass expected to end exactly at the window's end still runs.
        assert_eq!(count(3.0), 3);
        assert_eq!(count(0.5), 1);
    }

    #[test]
    fn steal_is_taken_out_of_the_wall_time() {
        let wall = Wall {
            measured: 20.0,
            stolen: 0.25,
        };
        assert_eq!(wall.net(), 15.0);
        let mut out = RunOutcome {
            attempted: 1,
            ..RunOutcome::default()
        };
        batch_e2e(&mut out, &[wall], &[wall, wall, wall], 0.0);
        let get = |name: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric present")
        };
        assert_eq!(get("wall_s"), 15.0);
        assert_eq!(get("setup_s"), 15.0);
        assert_eq!(get("p99_ms.knee"), 15_000.0);
        assert_eq!(get("goodput_rps.overload"), 1.0 / 15.0);
    }
}

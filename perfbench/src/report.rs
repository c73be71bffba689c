//! What one workload run reports, and helpers shared by the workloads.

use crate::digest::Digest;
use crate::stats::Percentile;
use crate::trace::Tracer;
use std::time::Instant;

/// One named metric with its unit and, for percentiles, its sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` (or report-only).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `MiB`, `count`, `%`).
    pub unit: String,
    /// Samples behind the value, when it is a statistic over samples.
    pub samples: Option<usize>,
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that failed (transport error, shed, non-ok response, Failed or
    /// TimedOut status, or a rejected certificate).
    pub failed: u64,
    /// Answers the certificate checked, and how many it rejected.
    pub certified: u64,
    /// Answers the certificate rejected.
    pub certify_failed: u64,
    /// Other correctness violations (digest drift, answer mismatches).
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
    /// Canonical digest of the answers.
    pub digest: Option<Digest>,
    /// Measured traffic properties (kind shares, hit shares, ...).
    pub traffic: Vec<(String, String)>,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples: None,
        });
    }

    /// Adds a per-layer metric when the layer produced one: a mean over
    /// no events is not a measurement, so it is left out, not read as 0.
    pub fn layer_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.layer(name, v, unit);
        }
    }

    /// Adds a per-layer percentile with its sample count.
    pub fn layer_percentile(&mut self, name: &str, p: Percentile) {
        self.layers.push(Metric {
            name: name.to_string(),
            value: p.value,
            unit: "ms".to_string(),
            samples: Some(p.samples),
        });
    }

    /// Adds a percentile as an end-to-end metric.
    pub fn e2e_percentile(&mut self, name: &str, p: Percentile) {
        self.e2e(name, p.value, "ms", Some(p.samples));
    }

    /// Records one measured traffic property.
    pub fn traffic(&mut self, name: &str, value: impl ToString) {
        self.traffic.push((name.to_string(), value.to_string()));
    }

    /// Whether every answer passed every check.
    pub fn correct(&self) -> bool {
        self.certify_failed == 0 && self.failed == 0 && self.errors.is_empty()
    }
}

/// Shortest stretch of set-up one set-up sample covers: a set-up that
/// takes less is repeated within the sample, and the sample is the mean
/// of its repetitions, so a ~25 ms city build is not timed alone.
const MIN_SETUP_SAMPLE_S: f64 = 0.25;

/// Takes `samples` set-up samples of `f` (see [`MIN_SETUP_SAMPLE_S`]) and
/// returns the median sample in seconds with the last result.
pub fn median_setup<T>(samples: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let (mut spent, mut reps) = (0.0, 0u32);
        while reps == 0 || spent < MIN_SETUP_SAMPLE_S {
            // Drop the previous result first, so set-up never holds two.
            drop(last.take());
            let t = Instant::now();
            let value = f();
            spent += t.elapsed().as_secs_f64();
            reps += 1;
            last = Some(value);
        }
        secs.push(spent / f64::from(reps));
    }
    (
        crate::stats::median(&secs).unwrap_or(0.0),
        last.expect("samples >= 1"),
    )
}

/// What a workload's measured window produced.
pub struct Window<T> {
    /// The ops, in op order.
    pub ops: Vec<T>,
    /// Wall time of the window in seconds.
    pub wall_s: f64,
    /// Spans of the traced replay (none for an untraced run).
    pub tracer: Tracer,
    /// `obs` deltas over the traced replay.
    pub obs: Option<ObsDelta>,
    /// How much slower the traced replay ran than the untraced window.
    pub overhead_pct: f64,
}

/// Measures a window of about `seconds` with `measure(budget_s, count,
/// tracer)`, which runs ops until `budget_s` has passed or, given a
/// count, exactly that many. A traced run measures half the time
/// untraced, then replays exactly those ops with `obs` on and the
/// benchmark's spans recorded; the replay must answer the same
/// (`digest`), and its slowdown is the tracing overhead.
pub fn measure_window<T, D: PartialEq>(
    report: &mut Report,
    seconds: f64,
    trace: bool,
    mut measure: impl FnMut(f64, Option<usize>, &Tracer) -> Result<(Vec<T>, f64), String>,
    digest: impl Fn(&[T]) -> D,
) -> Result<Window<T>, String> {
    let budget = if trace { seconds / 2.0 } else { seconds };
    let (ops, wall_s) = measure(budget, None, &Tracer::new(false))?;
    if !trace {
        return Ok(Window {
            ops,
            wall_s,
            tracer: Tracer::new(false),
            obs: None,
            overhead_pct: 0.0,
        });
    }
    let tracer = Tracer::new(true);
    let was_enabled = obs::enabled();
    obs::set_enabled(true);
    let delta = ObsDelta::start();
    let replay = measure(0.0, Some(ops.len()), &tracer);
    let delta = delta.finish();
    obs::set_enabled(was_enabled);
    let (traced, traced_s) = replay?;
    if digest(&traced) != digest(&ops) {
        report
            .errors
            .push("the traced replay answered differently".into());
    }
    Ok(Window {
        ops: traced,
        wall_s: traced_s,
        tracer,
        obs: Some(delta),
        overhead_pct: (traced_s / wall_s - 1.0) * 100.0,
    })
}

/// Counter deltas, span aggregates and histogram means of the global
/// `obs` registry between two snapshots.
pub struct ObsDelta {
    before: obs::Snapshot,
    after: obs::Snapshot,
}

impl ObsDelta {
    /// Snapshot now; call [`ObsDelta::finish`] after the traced window.
    pub fn start() -> ObsDelta {
        let now = obs::global().snapshot();
        ObsDelta {
            before: now.clone(),
            after: now,
        }
    }

    /// Takes the closing snapshot.
    pub fn finish(mut self) -> ObsDelta {
        self.after = obs::global().snapshot();
        self
    }

    /// Counter increase over the window.
    pub fn counter(&self, name: &str) -> f64 {
        let get = |s: &obs::Snapshot| s.counter(name).unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    /// (count, total ms) of span `name` over the window.
    pub fn span(&self, name: &str) -> (f64, f64) {
        let get = |s: &obs::Snapshot| s.span(name).map_or((0, 0), |x| (x.count, x.total_ns));
        let (c0, t0) = get(&self.before);
        let (c1, t1) = get(&self.after);
        (
            c1.saturating_sub(c0) as f64,
            t1.saturating_sub(t0) as f64 / 1e6,
        )
    }

    /// Mean span duration in ms over the window; `None` without spans.
    pub fn span_mean_ms(&self, name: &str) -> Option<f64> {
        let (n, ms) = self.span(name);
        (n > 0.0).then(|| ms / n)
    }

    /// Mean of the samples histogram `name` gained over the window;
    /// `None` without samples.
    pub fn histogram_mean(&self, name: &str) -> Option<f64> {
        let get = |s: &obs::Snapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c0, s0) = get(&self.before);
        let (c1, s1) = get(&self.after);
        let n = c1.saturating_sub(c0);
        (n > 0).then(|| s1.wrapping_sub(s0) as f64 / n as f64)
    }

    /// `hit / (hit + miss)` of two counters; `None` when neither moved.
    pub fn share(&self, hit: &str, miss: &str) -> Option<f64> {
        let h = self.counter(hit);
        let total = h + self.counter(miss);
        (total > 0.0).then(|| h / total)
    }
}

/// The routing, oracle and LP layer metrics read from `obs`, work
/// counts normalised per op. Counters are reported as they moved, 0
/// included; means over no events are left out.
pub fn common_layers(report: &mut Report, obs: &ObsDelta, ops: f64) {
    let per_op = |v: f64| if ops > 0.0 { v / ops } else { 0.0 };
    report.layer_opt(
        "routing.yen.path_rank_ms",
        obs.span_mean_ms("routing.yen.shortest_path"),
        "ms",
    );
    report.layer(
        "routing.yen.spur_searches",
        per_op(obs.counter("routing.yen.spur_searches")),
        "count",
    );
    report.layer_opt(
        "routing.yen.candidates_per_query",
        obs.histogram_mean("routing.yen.candidates_per_query"),
        "count",
    );
    for name in [
        "routing.astar.pops",
        "routing.astar.relaxations",
        "routing.astar.bound_prunes",
        "routing.dijkstra.sweeps",
        "routing.dijkstra.pops",
        "routing.repair.syncs",
        "routing.repair.nodes_resettled",
        "pathattack.reuse.repair.hit",
        "pathattack.reuse.repair.full_fallback",
        "pathattack.reuse.cch.sync",
        "pathattack.reuse.cch.fallback",
        "pathattack.oracle.calls",
        "pathattack.oracle.spur_searches",
        "lp.simplex.solves",
        "lp.simplex.pivots",
    ] {
        report.layer(name, per_op(obs.counter(name)), "count");
    }
    report.layer_opt(
        "pathattack.reuse.repair.hit_share",
        obs.share(
            "pathattack.reuse.repair.hit",
            "pathattack.reuse.repair.full_fallback",
        ),
        "share",
    );
    report.layer_opt(
        "pathattack.oracle.build_ms",
        obs.span_mean_ms("pathattack.oracle.build"),
        "ms",
    );
    report.layer_opt(
        "pathattack.attack_ms",
        obs.span_mean_ms("pathattack.attack.run"),
        "ms",
    );
    report.layer_opt(
        "lp.simplex.solve_ms",
        obs.span_mean_ms("lp.simplex.solve"),
        "ms",
    );
}

/// The certificate and tracing layer metrics every workload reports;
/// also lists the span summary and writes the spans out.
pub fn shared_layers(
    report: &mut Report,
    overhead_pct: f64,
    tracer: &Tracer,
    workload: &str,
    seed: u64,
) {
    let (runs, ms) = crate::certify::spent();
    report.layer("certify.checked", report.certified as f64, "count");
    report.layer("certify.failed", report.certify_failed as f64, "count");
    report.layer_opt("certify.ms", (runs > 0).then(|| ms / runs as f64), "ms");
    report.layer("trace.overhead_pct", overhead_pct, "%");
    for (name, (n, total, own)) in tracer.summary() {
        report.traffic(
            &format!("span {name}"),
            format!("n={n} total={total:.1}ms self={own:.1}ms"),
        );
    }
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        report.traffic("trace file", format!("not written: {e}"));
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_set_ups_are_repeated_within_a_sample() {
        let mut calls = 0;
        let (secs, last) = median_setup(2, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(60));
            calls
        });
        // Five 60 ms calls reach the 0.25 s a sample covers.
        assert_eq!(calls, 10);
        assert_eq!(last, 10);
        assert!((0.06..0.2).contains(&secs), "{secs}");
    }
}

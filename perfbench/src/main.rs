//! End-to-end and per-layer benchmark of the three paths users run.
//!
//! ```text
//! perfbench --workload sweep|serve|metro --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds its inputs from `--seed`, measures for about `--seconds`,
//! certifies every answer with its own two-sweep Dijkstra certificate,
//! prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured
//! untraced (`obs` off, except inside the server, which always runs with
//! it on); with `--trace 1` they are the per-layer ones, read from a
//! traced replay of the same ops, plus its overhead. The metric names
//! and units are those `BENCHMARK.json` declares; stderr also lists the
//! per-layer metrics of layers only this workload exercises. Exits
//! non-zero when any answer fails a check.

mod certify;
mod digest;
mod gen;
mod metro;
mod report;
mod serve_load;
mod stats;
mod sweep;
mod trace;

use report::{Metric, Report};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload sweep|serve|metro is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn metric_json(m: &Metric) -> obs::JsonValue {
    let mut obj = BTreeMap::new();
    obj.insert("value".to_string(), obs::JsonValue::Num(m.value));
    obj.insert("unit".to_string(), obs::JsonValue::Str(m.unit.clone()));
    obs::JsonValue::Obj(obj)
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares under `section`
/// (`end_to_end` or `per_layer`): the one list of what a run reports.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = obs::JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let entries = doc
        .get(section)
        .and_then(obs::JsonValue::as_arr)
        .ok_or_else(|| format!("{path} has no {section} list"))?;
    entries
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(obs::JsonValue::as_str)
                    .map(str::to_string)
            };
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("{path}: {section} entry without name or unit"))
        })
        .collect()
}

/// Picks the declared metrics the JSON line carries. Every declared
/// metric must have been measured, in its declared unit; the declared
/// per-layer ones are those of layers all three workloads exercise, and
/// the workload-specific layers are printed on stderr only.
fn select(report: &Report, trace: bool) -> Result<Vec<Metric>, String> {
    let (section, produced) = if trace {
        ("per_layer", &report.layers)
    } else {
        ("end_to_end", &report.end_to_end)
    };
    declared(section)?
        .into_iter()
        .map(
            |(name, unit)| match produced.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => Ok(m.clone()),
                Some(m) => Err(format!("{name} measured in {} instead of {unit}", m.unit)),
                None => Err(format!("workload produced no {name}")),
            },
        )
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "sweep" => sweep::run(args.seed, args.seconds, args.trace),
        "serve" => serve_load::run(args.seed, args.seconds, args.trace),
        "metro" => metro::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other:?} (sweep, serve, metro)")),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for m in report.end_to_end.iter().chain(&report.layers) {
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        eprintln!("  {:<36} {:>14.4} {}{n}", m.name, m.value, m.unit);
    }
    for (k, v) in &report.traffic {
        eprintln!("  {k:<36} {v}");
    }
    if let Some(d) = &report.digest {
        eprintln!("  {:<36} {}", "digest", d.hex());
    }
    eprintln!(
        "  certified {} answers, {} rejected; {} of {} ops failed",
        report.certified, report.certify_failed, report.failed, report.attempted
    );
    for e in report.errors.iter().take(20) {
        eprintln!("  ERROR {e}");
    }

    let metrics = match select(&report, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = report.correct();
    let mut out = BTreeMap::new();
    out.insert("correct".to_string(), obs::JsonValue::Bool(correct));
    out.insert(
        "attempted".to_string(),
        obs::JsonValue::Num(report.attempted as f64),
    );
    out.insert(
        "failed".to_string(),
        obs::JsonValue::Num(report.failed as f64),
    );
    out.insert(
        "metrics".to_string(),
        obs::JsonValue::Obj(
            metrics
                .iter()
                .map(|m| (m.name.clone(), metric_json(m)))
                .collect(),
        ),
    );
    println!("{}", obs::JsonValue::Obj(out).to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `sweep`: the paper's Tables II–VIII path as `metro-attack experiment`
//! runs it — Chicago at paper scale, `sample_instances` then
//! `run_instances`, weight TIME, rank 100, the four paper algorithms ×
//! three cost types, two worker threads.
//!
//! One op is one attack run. A run repeats whole sweeps, each on sources
//! sampled from its own sub-seed, until its time is up; every record of
//! every sweep is then re-derived and certified outside the timed window.

use crate::certify;
use crate::digest::{self, Digest};
use crate::report::{common_layers, measure_window, median_setup, shared_layers, Report};
use crate::stats;
use crate::trace::Tracer;
use citygen::{CityPreset, Scale};
use experiments::{ExperimentInstance, ExperimentPlan, ExperimentRecord};
use pathattack::{
    all_algorithms, AttackProblem, AttackStatus, CostType, NetworkCache, TargetContext, WeightType,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use traffic_graph::{GraphView, NodeId, RoadNetwork};

/// Random sources per hospital in one sweep.
const SOURCES_PER_HOSPITAL: usize = 1;
/// Worker threads of `run_instances`.
const THREADS: usize = 2;
/// Sweeps always run, whatever the time budget; the digest covers them.
const DIGEST_OPS: usize = 2;
/// Set-up samples behind the set-up median.
const SETUPS: usize = 7;

/// One timed sweep.
struct Sweep {
    plan: ExperimentPlan,
    instances: Vec<ExperimentInstance>,
    records: Vec<ExperimentRecord>,
    sample_s: f64,
    run_s: f64,
}

fn plan(seed: u64, rep: u64) -> ExperimentPlan {
    let sub_seed = rand::RngCore::next_u64(&mut crate::gen::rng(seed, 100 + rep));
    let mut plan = ExperimentPlan::paper(
        CityPreset::Chicago,
        WeightType::Time,
        Scale::Paper,
        sub_seed,
    );
    plan.sources_per_hospital = SOURCES_PER_HOSPITAL;
    plan.threads = THREADS;
    plan
}

/// Runs sweeps `0..` until `budget_s` has passed (after at least
/// [`DIGEST_OPS`]), or
/// exactly `reps` sweeps when given.
fn measure(
    net: &RoadNetwork,
    seed: u64,
    budget_s: f64,
    reps: Option<usize>,
    tracer: &Tracer,
) -> (Vec<Sweep>, f64) {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        let done = match reps {
            Some(n) => out.len() >= n,
            None => out.len() >= DIGEST_OPS && started.elapsed().as_secs_f64() >= budget_s,
        };
        if done {
            return (out, started.elapsed().as_secs_f64());
        }
        let op = out.len() as u64;
        let plan = plan(seed, op);
        tracer.span("sweep", op, None, |parent| {
            let t = Instant::now();
            let instances = tracer.span("experiments.sample_instances", op, parent, |_| {
                experiments::sample_instances(net, &plan)
            });
            let sample_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let records = tracer.span("experiments.run_instances", op, parent, |_| {
                experiments::run_instances(net, &plan, &instances)
            });
            let run_s = t.elapsed().as_secs_f64();
            out.push(Sweep {
                plan,
                instances,
                records,
                sample_s,
                run_s,
            });
        });
    }
}

/// Re-derives every successful record's cut set by re-running its
/// attack and certifies it. Returns (checked, rejected, error lines).
fn certify_sweeps(net: &RoadNetwork, sweeps: &[Sweep], tracer: &Tracer) -> (u64, u64, Vec<String>) {
    let weights = WeightType::Time.compute(net);
    let costs: Vec<Vec<f64>> = CostType::ALL.iter().map(|c| c.compute(net)).collect();
    // The re-runs share one context per hospital, as the harness does;
    // they only recover cut sets, which the certificate then checks.
    let cache = Arc::new(NetworkCache::new());
    let contexts: HashMap<NodeId, Arc<TargetContext>> = sweeps
        .iter()
        .flat_map(|s| &s.instances)
        .map(|i| i.target)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|t| {
            (
                t,
                Arc::new(TargetContext::build_with_cache(
                    net,
                    WeightType::Time,
                    t,
                    cache.clone(),
                )),
            )
        })
        .collect();
    let jobs: Vec<(&Sweep, &ExperimentRecord)> = sweeps
        .iter()
        .flat_map(|s| s.records.iter().map(move |r| (s, r)))
        .filter(|(_, r)| r.status == AttackStatus::Success)
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let algorithms = all_algorithms();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&(sweep, record)) = jobs.get(i) else {
                        break;
                    };
                    let verdict = tracer.span("certify", i as u64, None, |_| {
                        certify_record(net, &weights, &costs, &algorithms, &contexts, sweep, record)
                    });
                    results.lock().unwrap().push(verdict);
                }
            });
        }
    });
    let results = results.into_inner().unwrap();
    let rejected: Vec<String> = results.into_iter().filter_map(Result::err).collect();
    (jobs.len() as u64, rejected.len() as u64, rejected)
}

fn certify_record(
    net: &RoadNetwork,
    weights: &[f64],
    costs: &[Vec<f64>],
    algorithms: &[Box<dyn pathattack::AttackAlgorithm>],
    contexts: &HashMap<NodeId, Arc<TargetContext>>,
    sweep: &Sweep,
    record: &ExperimentRecord,
) -> Result<(), String> {
    let inst = sweep
        .instances
        .iter()
        .find(|i| i.source.index() == record.source && i.hospital == record.hospital)
        .ok_or_else(|| format!("no instance for record {}", digest::record_line(record)))?;
    let cost_idx = CostType::ALL
        .iter()
        .position(|&c| c == record.cost)
        .expect("known cost");
    let alg = algorithms
        .iter()
        .find(|a| a.name() == record.algorithm)
        .ok_or_else(|| format!("unknown algorithm {}", record.algorithm))?;
    let problem = AttackProblem::new_in(
        GraphView::new(net),
        sweep.plan.weight,
        record.cost,
        inst.source,
        inst.target,
        inst.pstar.clone(),
        &contexts[&inst.target],
    )
    .map_err(|e| e.to_string())?;
    let outcome = alg.attack(&problem);
    if outcome.num_removed() != record.edges_removed
        || outcome.total_cost.to_bits() != record.cost_removed.to_bits()
        || outcome.status != record.status
    {
        return Err(format!(
            "re-run of {} disagrees with its record",
            digest::record_line(record)
        ));
    }
    certify::check_cut(
        net,
        weights,
        Some((&costs[cost_idx], record.cost_removed)),
        &inst.pstar,
        &outcome.removed,
        problem.tie_margin(),
    )
    .map_err(|e| format!("{}: {e}", digest::record_line(record)))
}

fn sweeps_digest(sweeps: &[Sweep]) -> Digest {
    Digest::of(
        sweeps
            .iter()
            .take(DIGEST_OPS)
            .map(|s| digest::records_digest(&s.records).hex()),
    )
}

/// One `sweep` run.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, net) = median_setup(SETUPS, || CityPreset::Chicago.build(Scale::Paper, 42));
    let window = measure_window(
        &mut report,
        seconds,
        trace,
        |budget, reps, tracer| Ok(measure(&net, seed, budget, reps, tracer)),
        sweeps_digest,
    )?;
    let (sweeps, wall_s, tracer) = (window.ops, window.wall_s, window.tracer);

    // Peak memory of set-up plus the measured window, before the
    // certification below allocates its own tables.
    let peak_rss_mib = crate::report::peak_rss_mib();
    let records: Vec<&ExperimentRecord> = sweeps.iter().flat_map(|s| &s.records).collect();
    report.attempted = records.len() as u64;
    report.failed = records
        .iter()
        .filter(|r| matches!(r.status, AttackStatus::Failed | AttackStatus::TimedOut))
        .count() as u64;
    let cert_started = Instant::now();
    let (checked, rejected, errors) = certify_sweeps(&net, &sweeps, &tracer);
    let cert_s = cert_started.elapsed().as_secs_f64();
    report.certified = checked;
    report.certify_failed = rejected;
    report.failed += rejected;
    report.errors.extend(errors);
    report.digest = Some(sweeps_digest(&sweeps));

    let sweep_ms: Vec<f64> = sweeps
        .iter()
        .map(|s| (s.sample_s + s.run_s) * 1e3)
        .collect();
    report.e2e("setup_s", setup_s, "s", Some(SETUPS));
    report.e2e(
        "ops_per_s",
        records.len() as f64 / wall_s,
        "1/s",
        Some(records.len()),
    );
    let p50 = stats::percentile(&sweep_ms, 0.5).expect("one sweep at least");
    report.e2e_percentile("p50_ms", p50);
    report.layer("peak_rss_mib", peak_rss_mib, "MiB");

    let sample_s: f64 = sweeps.iter().map(|s| s.sample_s).sum();
    let run_s: f64 = sweeps.iter().map(|s| s.run_s).sum();
    let busy_s: f64 = records.iter().map(|r| r.runtime_s).sum();
    report.traffic("sweeps", sweeps.len());
    report.traffic(
        "instances",
        sweeps.iter().map(|s| s.instances.len()).sum::<usize>(),
    );
    report.traffic(
        "mean p* edges",
        format!(
            "{:.1}",
            stats::mean(
                &sweeps
                    .iter()
                    .flat_map(|s| &s.instances)
                    .map(|i| i.pstar.len() as f64)
                    .collect::<Vec<_>>()
            )
        ),
    );
    report.traffic(
        "blocking-path coverage %",
        format!("{:.2}", (sample_s + run_s) / wall_s * 100.0),
    );
    report.traffic("certify_s", format!("{cert_s:.3}"));
    // Layers only this workload exercises: on stderr, not in the JSON.
    report.layer("experiments.sample_s", sample_s, "s");
    report.layer("experiments.run_s", run_s, "s");
    report.layer(
        "experiments.worker_busy_share",
        busy_s / (run_s * THREADS as f64),
        "share",
    );
    // Mean attack time per algorithm, from the records' own runtimes, so
    // a slowdown of one algorithm does not hide in the mix.
    let mut per_alg: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &records {
        per_alg
            .entry(r.algorithm.as_str())
            .or_default()
            .push(r.runtime_s * 1e3);
    }
    for (alg, ms) in &per_alg {
        report.layer(
            &format!("pathattack.attack_ms.{alg}"),
            stats::mean(ms),
            "ms",
        );
    }
    if let Some(delta) = window.obs {
        report.layer("citygen.build_s", setup_s, "s");
        common_layers(&mut report, &delta, records.len() as f64);
        shared_layers(&mut report, window.overhead_pct, &tracer, "sweep", seed);
    }
    Ok(report)
}

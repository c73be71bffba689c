//! `metro`: the CLI `attack` path on Los Angeles at three times paper
//! scale (see [`SCALE`]). Per victim, one at a time and with nothing reused
//! between victims: `AttackProblem::with_path_rank` (rank 20), then
//! `GreedyPathCover::attack`, then `AttackOutcome::verify`.
//!
//! One op is one victim. Victims come in rounds of one per hospital
//! and a run stops only at a round boundary, so every run weighs the
//! four hospitals equally (their victims differ in cost by up to ~30 %).
//! Each source is drawn from the seed among nodes whose TIME distance to
//! the hospital lies in a fixed band, so every seed asks for trips of the
//! same kind.

use crate::certify;
use crate::digest::{self, Digest};
use crate::report::{common_layers, measure_window, median_setup, shared_layers, Report};
use crate::stats;
use crate::trace::Tracer;
use citygen::{CityPreset, Scale};
use pathattack::{
    AttackAlgorithm, AttackOutcome, AttackProblem, AttackStatus, CostType, GreedyPathCover,
    WeightType,
};
use routing::{Dijkstra, Direction, Path};
use std::time::Instant;
use traffic_graph::{GraphView, NodeId, PoiKind, RoadNetwork};

/// Three times the paper's Los Angeles (~155k nodes): the largest graph
/// in the benchmark. At `Scale::X10` (~517k nodes, ~3.9 s per victim)
/// a 25 s run holds only eight victims, and ten seeds spread by up to
/// 0.17; here a run holds ~25.
const SCALE: Scale = Scale::Custom(3.0);
/// Alternative-route rank forced on each victim.
const RANK: usize = 20;
/// Trip-time band (seconds under TIME weights) victims are drawn from.
const BAND_S: (f64, f64) = (240.0, 480.0);
/// Candidate sources per hospital.
const POOL: usize = 32;
/// Victims generated per run (a run stops earlier when its time is up).
const VICTIMS: usize = 64;
/// Hospitals in Los Angeles, hence victims per round.
const ROUND: usize = 4;

/// One victim's answer.
struct Answer {
    pstar: Path,
    /// The problem's tie margin, for the certificate.
    margin: f64,
    outcome: AttackOutcome,
    verified: Result<(), String>,
    ms: f64,
    path_rank_ms: f64,
    attack_ms: f64,
    verify_ms: f64,
}

/// Victim inputs for `seed`: `(hospital node, source node)` pairs.
fn victims(net: &RoadNetwork, seed: u64) -> Vec<(NodeId, NodeId)> {
    let hospitals: Vec<NodeId> = net
        .pois_of_kind(PoiKind::Hospital)
        .map(|p| p.node)
        .collect();
    assert_eq!(
        hospitals.len(),
        ROUND,
        "Los Angeles has one victim per hospital per round"
    );
    let weights = WeightType::Time.compute(net);
    let view = GraphView::new(net);
    let mut dij = Dijkstra::new(net.num_nodes());
    let pools: Vec<Vec<usize>> = hospitals
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            let dist = dij.distances(&view, |e| weights[e.index()], h, Direction::Backward);
            let mut rng = crate::gen::rng(seed, 10 + i as u64);
            crate::gen::draw_nodes(&mut rng, POOL, net.num_nodes(), |v| {
                (BAND_S.0..BAND_S.1).contains(&dist[v])
            })
        })
        .collect();
    crate::gen::victims(seed, VICTIMS, &pools)
        .into_iter()
        .map(|(h, s)| (hospitals[h], NodeId::new(s)))
        .collect()
}

fn attack_one(
    net: &RoadNetwork,
    op: u64,
    (target, source): (NodeId, NodeId),
    tracer: &Tracer,
) -> Result<Answer, String> {
    let t = Instant::now();
    tracer.span("victim", op, None, |parent| {
        let t0 = Instant::now();
        let problem = tracer
            .span("pathattack.with_path_rank", op, parent, |_| {
                AttackProblem::with_path_rank(
                    net,
                    WeightType::Time,
                    CostType::Uniform,
                    source,
                    target,
                    RANK,
                )
            })
            .map_err(|e| format!("victim {source} -> {target}: {e}"))?;
        let t1 = Instant::now();
        let outcome = tracer.span("pathattack.attack", op, parent, |_| {
            GreedyPathCover.attack(&problem)
        });
        let t2 = Instant::now();
        let verified = if outcome.is_success() {
            tracer.span("pathattack.verify", op, parent, |_| {
                outcome.verify(&problem)
            })
        } else {
            Ok(())
        };
        let t3 = Instant::now();
        Ok(Answer {
            pstar: problem.pstar().clone(),
            margin: problem.tie_margin(),
            outcome,
            verified,
            ms: t.elapsed().as_secs_f64() * 1e3,
            path_rank_ms: (t1 - t0).as_secs_f64() * 1e3,
            attack_ms: (t2 - t1).as_secs_f64() * 1e3,
            verify_ms: (t3 - t2).as_secs_f64() * 1e3,
        })
    })
}

/// Runs victims in order until `budget_s` has passed at the end of a
/// round (after at least one round), or exactly `count` victims when
/// given.
fn measure(
    net: &RoadNetwork,
    inputs: &[(NodeId, NodeId)],
    budget_s: f64,
    count: Option<usize>,
    tracer: &Tracer,
) -> Result<(Vec<Answer>, f64), String> {
    let started = Instant::now();
    let mut out = Vec::new();
    for (i, &input) in inputs.iter().enumerate() {
        let done = match count {
            Some(n) => i >= n,
            None => i >= ROUND && i % ROUND == 0 && started.elapsed().as_secs_f64() >= budget_s,
        };
        if done {
            break;
        }
        out.push(attack_one(net, i as u64, input, tracer)?);
    }
    Ok((out, started.elapsed().as_secs_f64()))
}

fn answers_digest(answers: &[Answer]) -> Digest {
    Digest::of(answers.iter().take(ROUND).map(|a| {
        let pstar: Vec<String> = a
            .pstar
            .edges()
            .iter()
            .map(|e| e.index().to_string())
            .collect();
        format!("{}|{}", pstar.join(","), digest::outcome_line(&a.outcome))
    }))
}

/// One `metro` run.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, net) = median_setup(3, || CityPreset::LosAngeles.build(SCALE, 42));
    let inputs = victims(&net, seed);
    let window = measure_window(
        &mut report,
        seconds,
        trace,
        |budget, count, tracer| measure(&net, &inputs, budget, count, tracer),
        answers_digest,
    )?;
    let (answers, wall_s, tracer) = (window.ops, window.wall_s, window.tracer);

    // Peak memory of set-up plus the measured window, before the
    // certification below allocates its own tables.
    let peak_rss_mib = crate::report::peak_rss_mib();
    report.attempted = answers.len() as u64;
    let weights = WeightType::Time.compute(&net);
    let costs = CostType::Uniform.compute(&net);
    let cert_started = Instant::now();
    for (i, a) in answers.iter().enumerate() {
        let failed_status = matches!(
            a.outcome.status,
            AttackStatus::Failed | AttackStatus::TimedOut
        );
        let mut ok = !failed_status;
        if let Err(e) = &a.verified {
            report.errors.push(format!(
                "victim {i}: library verify rejected the outcome: {e}"
            ));
            ok = false;
        }
        if a.outcome.is_success() {
            report.certified += 1;
            let verdict = tracer.span("certify", i as u64, None, |_| {
                certify::check_cut(
                    &net,
                    &weights,
                    Some((&costs, a.outcome.total_cost)),
                    &a.pstar,
                    &a.outcome.removed,
                    a.margin,
                )
            });
            if let Err(e) = verdict {
                report.certify_failed += 1;
                report
                    .errors
                    .push(format!("victim {i}: certificate rejected the cut: {e}"));
                ok = false;
            }
        }
        report.failed += u64::from(!ok);
    }
    let cert_s = cert_started.elapsed().as_secs_f64();
    report.traffic("certify_s", format!("{cert_s:.3}"));
    report.digest = Some(answers_digest(&answers));

    let ms: Vec<f64> = answers.iter().map(|a| a.ms).collect();
    report.e2e("setup_s", setup_s, "s", Some(3));
    report.e2e(
        "ops_per_s",
        answers.len() as f64 / wall_s,
        "1/s",
        Some(answers.len()),
    );
    report.e2e_percentile(
        "p50_ms",
        stats::percentile(&ms, 0.5).expect("two victims at least"),
    );
    report.layer("peak_rss_mib", peak_rss_mib, "MiB");

    let sum = |f: fn(&Answer) -> f64| answers.iter().map(f).sum::<f64>();
    report.traffic("victims", answers.len());
    report.traffic(
        "victim ms",
        answers
            .iter()
            .map(|a| format!("{:.0}", a.ms))
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.traffic(
        "mean p* edges",
        format!(
            "{:.1}",
            stats::mean(
                &answers
                    .iter()
                    .map(|a| a.pstar.len() as f64)
                    .collect::<Vec<_>>()
            )
        ),
    );
    report.traffic(
        "mean cut edges",
        format!(
            "{:.1}",
            stats::mean(
                &answers
                    .iter()
                    .map(|a| a.outcome.num_removed() as f64)
                    .collect::<Vec<_>>()
            )
        ),
    );
    report.traffic(
        "path_rank_ms (mean)",
        format!("{:.1}", sum(|a| a.path_rank_ms) / answers.len() as f64),
    );
    report.traffic(
        "attack_ms (mean)",
        format!("{:.1}", sum(|a| a.attack_ms) / answers.len() as f64),
    );
    // A layer only this workload exercises: on stderr, not in the JSON.
    report.layer(
        "pathattack.verify_ms",
        sum(|a| a.verify_ms) / answers.len() as f64,
        "ms",
    );
    let blocking_ms = sum(|a| a.path_rank_ms) + sum(|a| a.attack_ms) + sum(|a| a.verify_ms);
    report.traffic(
        "blocking-path coverage %",
        format!("{:.2}", blocking_ms / (wall_s * 1e3) * 100.0),
    );
    if let Some(delta) = window.obs {
        report.layer("citygen.build_s", setup_s, "s");
        common_layers(&mut report, &delta, answers.len() as f64);
        shared_layers(&mut report, window.overhead_pct, &tracer, "metro", seed);
    }
    Ok(report)
}

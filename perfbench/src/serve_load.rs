//! `serve`: closed-loop round trips through a real socket.
//!
//! An in-process `serve::Server` with production `ServerConfig` defaults
//! (batching, tracing and resilience on, workers = nproc) keeps Boston
//! at paper scale resident. Two `ResilientClient`s with
//! `RetryPolicy::no_retry()` each send their next request as soon as the
//! previous answer arrives. The request list comes from the seed
//! (`gen::request_mix`) and is replayed cyclically until the time is up.
//!
//! Set-up starts the server and warms every (weight, hospital) key and
//! the lazily built hierarchy before anything is timed. Answers are
//! certified in-process afterwards: `p*` is rebuilt once per request key,
//! route answers must equal it, attack and perturb answers must pass the
//! two-sweep certificate.

use crate::certify;
use crate::digest::Digest;
use crate::gen;
use crate::report::{common_layers, measure_window, median_setup, shared_layers, Report};
use crate::stats;
use crate::trace::Tracer;
use citygen::{CityPreset, Scale};
use obs::JsonValue;
use pathattack::{AttackProblem, CostType, WeightType};
use routing::Path;
use serve::{Request, RequestKind, ResilientClient, RetryPolicy, Server, ServerConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use traffic_graph::{EdgeId, NodeId, PoiKind, RoadNetwork};

const CITY: &str = "boston";
/// Path rank of every request: low, so path-rank stays light and the
/// transport, queue, batching, context-cache and hierarchy layers show.
const RANK: usize = 5;
/// Candidate sources per hospital.
const POOL: usize = 6;
/// Length of the request list the clients cycle through.
const LIST: usize = 400;
/// Closed-loop connections.
const CLIENTS: usize = 2;
/// Requests always answered before the window may close; the digest
/// covers exactly these.
const DIGEST_OPS: usize = 64;

/// One answered (or failed) request.
struct Sample {
    op: usize,
    ms: f64,
    /// Canonical result body, or the failure.
    answer: Result<String, String>,
}

/// Sources per hospital that admit a rank-[`RANK`] route under both
/// weights, drawn from the seed.
fn source_pools(net: &RoadNetwork, hospitals: &[NodeId], seed: u64) -> Vec<Vec<usize>> {
    hospitals
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            let mut rng = gen::rng(seed, 20 + i as u64);
            gen::draw_nodes(&mut rng, POOL, net.num_nodes(), |v| {
                WeightType::ALL.iter().all(|&w| {
                    AttackProblem::with_path_rank(
                        net,
                        w,
                        CostType::Uniform,
                        NodeId::new(v),
                        h,
                        RANK,
                    )
                    .is_ok_and(|p| p.pstar().len() >= experiments::MIN_TRIP_EDGES)
                })
            })
        })
        .collect()
}

/// The result object of a response, canonically serialised.
fn result_body(call: &serve::Call) -> Result<String, String> {
    let r = &call.response;
    if !r.ok {
        return Err(r.error.clone().unwrap_or_else(|| "error response".into()));
    }
    let result = r.result.as_ref().ok_or("ok response without result")?;
    if let Some(status) = result.get("status").and_then(JsonValue::as_str) {
        if matches!(status, "failed" | "timed_out") {
            return Err(format!("status {status}"));
        }
    }
    Ok(result.to_json())
}

/// Starts a production server and warms every key the mix can touch.
fn start_warm(pools: &[Vec<usize>]) -> Result<Server, String> {
    let server = Server::start(ServerConfig {
        cities: vec![CITY.to_string()],
        scale: Scale::Paper,
        seed: 42,
        ..ServerConfig::default()
    })?;
    let mut client =
        ResilientClient::new(&server.local_addr().to_string(), RetryPolicy::no_retry());
    let mut id = 1_000_000;
    for (hospital, pool) in pools.iter().enumerate() {
        for weight in WeightType::ALL {
            for kind in [
                RequestKind::Route,
                RequestKind::Attack,
                RequestKind::Perturb,
            ] {
                let mut r = Request::new(id, kind.clone(), CITY);
                id += 1;
                r.hospital = hospital;
                r.source = pool[0];
                r.weight = weight;
                r.rank = RANK;
                r.algorithm = "greedy-pathcover".to_string();
                let call = client.call(&r)?;
                result_body(&call).map_err(|e| format!("warm-up {}: {e}", kind.name()))?;
            }
        }
    }
    Ok(server)
}

/// Closed loop over `list` until `budget_s` has passed and at least
/// [`DIGEST_OPS`] requests were answered, or exactly `count` requests.
fn drive(
    addr: &str,
    list: &[Request],
    budget_s: f64,
    count: Option<usize>,
    tracer: &Tracer,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = ResilientClient::new(addr, RetryPolicy::no_retry());
                loop {
                    let op = next.fetch_add(1, Ordering::Relaxed);
                    let done = match count {
                        Some(n) => op >= n,
                        None => op >= DIGEST_OPS && started.elapsed().as_secs_f64() >= budget_s,
                    };
                    if done {
                        break;
                    }
                    let mut req = list[op % list.len()].clone();
                    req.id = op as u64;
                    let t = Instant::now();
                    let call = tracer.span(req.kind.name(), op as u64, None, |_| client.call(&req));
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let answer = call.and_then(|c| result_body(&c));
                    samples.lock().unwrap().push(Sample { op, ms, answer });
                }
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let mut samples = samples.into_inner().unwrap();
    samples.sort_by_key(|s| s.op);
    (samples, wall)
}

/// The server's `stats` result.
fn stats(addr: &str) -> Result<JsonValue, String> {
    let mut client = ResilientClient::new(addr, RetryPolicy::no_retry());
    let call = client.call(&Request::new(900_001, RequestKind::Stats, ""))?;
    call.response
        .result
        .ok_or_else(|| "stats without result".into())
}

/// (count, mean µs) of the server's lifetime latency histogram.
fn server_latency(stats: &JsonValue) -> (f64, f64) {
    let h = stats.get("latency_us");
    let get = |k| {
        h.and_then(|h| h.get(k))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    (get("count"), get("mean"))
}

/// Checks one distinct list entry's answer in-process.
fn certify_answer(
    net: &RoadNetwork,
    hospitals: &[NodeId],
    weights: &HashMap<&'static str, Vec<f64>>,
    costs: &[f64],
    pstars: &mut HashMap<(usize, usize, &'static str), (Path, f64)>,
    req: &Request,
    body: &str,
) -> Result<(), String> {
    let key = (req.source, req.hospital, req.weight.name());
    let (pstar, margin) = match pstars.get(&key) {
        Some(known) => known.clone(),
        None => {
            let problem = AttackProblem::with_path_rank(
                net,
                req.weight,
                CostType::Uniform,
                NodeId::new(req.source),
                hospitals[req.hospital],
                req.rank,
            )
            .map_err(|e| e.to_string())?;
            let known = (problem.pstar().clone(), problem.tie_margin());
            pstars.insert(key, known.clone());
            known
        }
    };
    let doc = JsonValue::parse(body).map_err(|e| e.to_string())?;
    let nums = |k: &str| -> Vec<f64> {
        doc.get(k)
            .and_then(JsonValue::as_arr)
            .map(|a| a.iter().filter_map(JsonValue::as_f64).collect())
            .unwrap_or_default()
    };
    let w = &weights[req.weight.name()];
    match req.kind {
        RequestKind::Route => {
            let nodes: Vec<usize> = pstar.nodes().iter().map(|n| n.index()).collect();
            let got: Vec<usize> = nums("nodes").into_iter().map(|v| v as usize).collect();
            if got != nodes {
                return Err("route differs from the in-process rank-k path".into());
            }
            Ok(())
        }
        RequestKind::Attack | RequestKind::Perturb => {
            let status = doc.get("status").and_then(JsonValue::as_str).unwrap_or("");
            let reported_w = doc
                .get("pstar_weight")
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN);
            // The server sums p* edge by edge, Yen prefix by spur: the
            // two may differ in the last bit, never beyond the tie margin.
            let gap = (reported_w - pstar.total_weight()).abs();
            if gap.is_nan() || gap > margin {
                return Err(format!(
                    "p* weight {reported_w} differs from in-process {}",
                    pstar.total_weight()
                ));
            }
            if status != "success" {
                return Ok(());
            }
            if req.kind == RequestKind::Attack {
                let removed: Vec<EdgeId> = nums("removed")
                    .into_iter()
                    .map(|v| EdgeId::new(v as usize))
                    .collect();
                let total = doc
                    .get("total_cost")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                certify::check_cut(net, w, Some((costs, total)), &pstar, &removed, margin)
            } else {
                let edges = nums("perturbed");
                let deltas = nums("deltas");
                let pairs: Vec<(EdgeId, f64)> = edges
                    .into_iter()
                    .zip(deltas)
                    .map(|(e, d)| (EdgeId::new(e as usize), d))
                    .collect();
                certify::check_perturb(net, w, &pstar, &pairs, margin)
            }
        }
        _ => Err("unexpected kind".into()),
    }
}

/// Digest of the first [`DIGEST_OPS`] answers.
fn samples_digest(samples: &[Sample]) -> Digest {
    Digest::of(samples.iter().take(DIGEST_OPS).map(|s| match &s.answer {
        Ok(body) => body.clone(),
        Err(e) => format!("error: {e}"),
    }))
}

/// One `serve` run.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let (build_s, net) = median_setup(3, || CityPreset::Boston.build(Scale::Paper, 42));
    let hospitals: Vec<NodeId> = net
        .pois_of_kind(PoiKind::Hospital)
        .map(|p| p.node)
        .collect();
    let pools = source_pools(&net, &hospitals, seed);
    if pools.iter().any(Vec::is_empty) {
        return Err("a hospital has no admissible source".into());
    }
    let list = gen::request_mix(seed, CITY, LIST, &pools, RANK);

    // Set-up: start, warm, and (but for the last) shut down, three times.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..3 {
        if let Some(old) = server.take() {
            Server::shutdown(old);
        }
        let t = Instant::now();
        server = Some(start_warm(&pools)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&setups).expect("three set-ups");
    let server = server.expect("one server");
    let addr = server.local_addr().to_string();

    // Server-side latency over the (last) measured window.
    let mut server_stats = (JsonValue::Null, JsonValue::Null);
    let window = measure_window(
        &mut report,
        seconds,
        trace,
        |budget, count, tracer| {
            let before = stats(&addr)?;
            let (samples, wall_s) = drive(&addr, &list, budget, count, tracer);
            server_stats = (before, stats(&addr)?);
            Ok((samples, wall_s))
        },
        samples_digest,
    )?;
    let (samples, wall_s, tracer) = (window.ops, window.wall_s, window.tracer);
    let (before, after) = server_stats;
    // Peak memory of set-up plus the measured window, before the
    // certification below allocates its own tables.
    let peak_rss_mib = crate::report::peak_rss_mib();
    let hierarchy_mib = after
        .get("hierarchies")
        .and_then(|h| h.get(CITY))
        .and_then(|h| h.get("bytes_resident"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
        / (1024.0 * 1024.0);
    server.shutdown();

    // Correctness, outside the timed window.
    let cert_started = Instant::now();
    let weights: HashMap<&'static str, Vec<f64>> = WeightType::ALL
        .iter()
        .map(|w| (w.name(), w.compute(&net)))
        .collect();
    let costs = CostType::Uniform.compute(&net);
    let mut pstars = HashMap::new();
    let mut first: HashMap<usize, &str> = HashMap::new();
    report.attempted = samples.len() as u64;
    for s in &samples {
        let entry = s.op % list.len();
        let body = match &s.answer {
            Ok(b) => b,
            Err(e) => {
                report.failed += 1;
                report.errors.push(format!("request {}: {e}", s.op));
                continue;
            }
        };
        match first.get(&entry) {
            Some(prev) if *prev == body.as_str() => continue,
            Some(_) => {
                report.failed += 1;
                report
                    .errors
                    .push(format!("request {} answered differently on replay", s.op));
                continue;
            }
            None => {
                first.insert(entry, body);
            }
        }
        let req = &list[entry];
        let verdict = tracer.span("certify", s.op as u64, None, |_| {
            certify_answer(&net, &hospitals, &weights, &costs, &mut pstars, req, body)
        });
        report.certified += 1;
        if let Err(e) = verdict {
            report.failed += 1;
            report.certify_failed += 1;
            report
                .errors
                .push(format!("request {} ({}): {e}", s.op, req.kind.name()));
        }
    }
    let cert_s = cert_started.elapsed().as_secs_f64();
    report.traffic("certify_s", format!("{cert_s:.3}"));
    report.digest = Some(samples_digest(&samples));

    let ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    report.e2e("setup_s", setup_s, "s", Some(3));
    report.e2e(
        "ops_per_s",
        samples.len() as f64 / wall_s,
        "1/s",
        Some(samples.len()),
    );
    report.e2e_percentile(
        "p50_ms",
        stats::percentile(&ms, 0.5).expect("requests answered"),
    );
    report.layer("peak_rss_mib", peak_rss_mib, "MiB");
    match stats::tail_percentile(&ms, 0.99) {
        Some(p99) => report.traffic("p99_ms", format!("{:.3} (n={})", p99.value, p99.samples)),
        None => report.traffic(
            "p99_ms",
            format!("refused: n={} leaves fewer than 10 beyond", ms.len()),
        ),
    }

    // Layers only this workload exercises: on stderr, not in the JSON.
    let (n0, mean0) = server_latency(&before);
    let (n1, mean1) = server_latency(&after);
    let client_ms = stats::mean(&ms);
    report.layer("serve.client_ms", client_ms, "ms");
    if n1 > n0 {
        let server_ms = (mean1 * n1 - mean0 * n0) / (n1 - n0) / 1e3;
        report.layer("serve.server_ms", server_ms, "ms");
        report.layer("serve.transport_ms", client_ms - server_ms, "ms");
    } else {
        report
            .errors
            .push("the server's stats counted no request of the window".into());
    }
    let shares = gen::kind_shares(samples.iter().map(|s| &list[s.op % list.len()].kind));
    for (i, (kind, _)) in gen::SERVE_SHARES.iter().enumerate() {
        let kind_ms: Vec<f64> = samples
            .iter()
            .filter(|s| list[s.op % list.len()].kind == *kind)
            .map(|s| s.ms)
            .collect();
        if let Some(p) = stats::percentile(&kind_ms, 0.5) {
            report.layer_percentile(&format!("serve.kind.{}.p50_ms", kind.name()), p);
        }
        report.traffic(
            &format!("share {}", kind.name()),
            format!("{:.3}", shares[i]),
        );
    }
    report.layer("serve.hierarchy.bytes_mib", hierarchy_mib, "MiB");
    report.traffic(
        "mean p* edges",
        format!(
            "{:.1}",
            stats::mean(
                &pstars
                    .values()
                    .map(|(p, _)| p.len() as f64)
                    .collect::<Vec<_>>()
            )
        ),
    );
    if let Some(delta) = window.obs {
        report.layer("citygen.build_s", build_s, "s");
        common_layers(&mut report, &delta, samples.len() as f64);
        report.layer_opt(
            "serve.batch.size_mean",
            delta.histogram_mean("serve.batch.size"),
            "count",
        );
        report.layer_opt(
            "serve.reuse.ctx.hit_share",
            delta.share("serve.reuse.ctx.hit", "serve.reuse.ctx.miss"),
            "share",
        );
        report.layer(
            "serve.requests.shed",
            delta.counter("serve.requests.shed"),
            "count",
        );
        shared_layers(&mut report, window.overhead_pct, &tracer, "serve", seed);
    }
    Ok(report)
}

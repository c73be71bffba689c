//! Measures the cost of the always-on tracing plane.
//!
//! ```text
//! trace_overhead [--requests N] [--concurrency C] [--rounds R]
//!                [--out FILE] [--max-overhead-pct X]
//! ```
//!
//! Starts two in-process servers on the Boston preset — one with
//! `tracing: false`, one with `tracing: true` — and drives the same
//! deterministic route/attack workload through both, alternating modes
//! across `--rounds` rounds (in ABBA order) so allocator and cache
//! warm-up affect both equally. The default `--requests` makes a round
//! last about a second on a 2-vCPU host, long enough that one
//! scheduler hiccup cannot decide it. Each round's wall time is kept;
//! the per-mode cost is the **best** (minimum) round, which filters
//! scheduler noise out of a measurement whose true signal is a few
//! microseconds per request (10–32 trace events). The overhead is
//! `(best_traced - best_untraced) / best_untraced`.
//!
//! Exits non-zero unless: every request succeeds in both modes, the
//! response bytes are identical with tracing on and off (the tracing
//! plane must observe, never alter), and the overhead is at most
//! `--max-overhead-pct` (default 2).

use serve::{Client, Request, RequestKind, Response, Server, ServerConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Deterministic mixed workload; ids are list indices so responses can
/// be compared across modes one-for-one.
fn workload(requests: usize) -> Vec<Request> {
    const SOURCES: [usize; 6] = [3, 11, 17, 29, 5, 23];
    (0..requests)
        .map(|i| {
            let kind = if i % 4 == 3 {
                RequestKind::Attack
            } else {
                RequestKind::Route
            };
            let mut r = Request::new(i as u64, kind, "boston");
            r.source = SOURCES[i % SOURCES.len()];
            r.rank = 5;
            r
        })
        .collect()
}

/// One closed-loop pass of the workload; returns wall seconds, raw
/// responses by id, and the error count.
fn drive(
    addr: &std::net::SocketAddr,
    reqs: &[Request],
    concurrency: usize,
) -> (f64, Vec<Option<Vec<u8>>>, usize) {
    let next = AtomicUsize::new(0);
    let responses = Mutex::new(vec![None; reqs.len()]);
    let errors = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..concurrency {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    match client.roundtrip_raw(&req.to_payload()) {
                        Ok(raw) => {
                            if !matches!(Response::parse(&raw), Ok(r) if r.ok) {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            responses.lock().unwrap()[i] = Some(raw);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    (
        started.elapsed().as_secs_f64(),
        responses.into_inner().unwrap(),
        errors.into_inner(),
    )
}

fn start_server(tracing: bool, workers: usize) -> Server {
    Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        cities: vec!["boston".to_string()],
        workers,
        batching: true,
        tracing,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

fn main() {
    let mut requests = 8000usize;
    let mut concurrency: Option<String> = None;
    let mut rounds = 5usize;
    let mut out_path = "BENCH_trace.json".to_string();
    let mut max_overhead_pct = 2.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--requests" => {
                requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests N")
            }
            "--concurrency" => concurrency = Some(args.next().expect("--concurrency C")),
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds R")
            }
            "--out" => out_path = args.next().expect("--out FILE"),
            "--max-overhead-pct" => {
                max_overhead_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-overhead-pct X")
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let concurrency = serve::resolve_workers(concurrency.as_deref()).unwrap_or_else(|e| {
        eprintln!("bad --concurrency: {e}");
        std::process::exit(2);
    });
    let workers = serve::resolve_workers(None).unwrap_or(4);
    let reqs = workload(requests);

    // Both servers stay up for the whole comparison; rounds alternate
    // between them so drift (page cache, CPU frequency) hits both.
    let plain = start_server(false, workers);
    let traced = start_server(true, workers);

    // Warm-up pass per mode: builds the shared contexts and JIT-warms
    // the allocator before any timed round.
    let (_, base_responses, warm_errors_plain) = drive(&plain.local_addr(), &reqs, concurrency);
    let (_, traced_responses, warm_errors_traced) = drive(&traced.local_addr(), &reqs, concurrency);
    let identical =
        base_responses == traced_responses && base_responses.iter().all(Option::is_some);

    let mut wall_plain = Vec::with_capacity(rounds);
    let mut wall_traced = Vec::with_capacity(rounds);
    let mut errors = warm_errors_plain + warm_errors_traced;
    for round in 0..rounds {
        // ABBA order: odd rounds drive the traced server first, so a
        // bias toward whichever mode runs first cancels out.
        let mut order = [(&mut wall_plain, &plain), (&mut wall_traced, &traced)];
        if round % 2 == 1 {
            order.reverse();
        }
        for (walls, server) in order {
            let (wall_s, _, errs) = drive(&server.local_addr(), &reqs, concurrency);
            walls.push(wall_s);
            errors += errs;
        }
        println!(
            "round {round}: untraced {:.1} ms, traced {:.1} ms",
            wall_plain[round] * 1e3,
            wall_traced[round] * 1e3
        );
    }
    plain.shutdown();
    traced.shutdown();

    let best = |walls: &[f64]| walls.iter().cloned().fold(f64::INFINITY, f64::min);
    let best_plain = best(&wall_plain);
    let best_traced = best(&wall_traced);
    let overhead_pct = (best_traced - best_plain) / best_plain * 100.0;
    let pass = errors == 0 && identical && overhead_pct <= max_overhead_pct;

    println!(
        "best untraced {:.1} ms, best traced {:.1} ms -> overhead {overhead_pct:.2}% \
         (max {max_overhead_pct}%); identical: {identical}; pass: {pass}",
        best_plain * 1e3,
        best_traced * 1e3
    );

    let fmt_walls = |walls: &[f64]| {
        walls
            .iter()
            .map(|w| format!("{:.2}", w * 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let json = format!(
        "{{\n  \"bench\": \"trace_overhead\",\n  \"city\": \"boston\",\n  \"scale\": \"small\",\n  \
         \"requests\": {requests},\n  \"concurrency\": {concurrency},\n  \"workers\": {workers},\n  \
         \"rounds\": {rounds},\n  \"wall_ms_untraced\": [{}],\n  \"wall_ms_traced\": [{}],\n  \
         \"best_ms_untraced\": {:.2},\n  \"best_ms_traced\": {:.2},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \"max_overhead_pct\": {max_overhead_pct},\n  \
         \"responses_identical\": {identical},\n  \"errors\": {errors},\n  \"pass\": {pass}\n}}\n",
        fmt_walls(&wall_plain),
        fmt_walls(&wall_traced),
        best_plain * 1e3,
        best_traced * 1e3,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_trace.json");
    println!("wrote {out_path}");
    if !pass {
        std::process::exit(1);
    }
}

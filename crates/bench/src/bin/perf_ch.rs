//! Measures the customizable contraction hierarchy on a large citygen
//! city and writes `BENCH_ch.json`.
//!
//! ```text
//! perf_ch [--preset NAME] [--scale S] [--seed N] [--queries N]
//!         [--recustomize-samples N] [--out FILE]
//!         [--min-query-speedup X] [--min-recustomize-speedup X]
//!         [--max-gen-ratio X]
//! ```
//!
//! Four sections, each gated but the second:
//!
//! 1. **Generation linearity** — builds the preset at a reference scale
//!    and at the target scale and compares per-node generation rates;
//!    a super-linear pass in `citygen` would blow the ratio up.
//! 2. **Contraction** — one metric-independent build (freeze + nested
//!    dissection + chordal completion) plus the first customization;
//!    reported, not gated (it is the once-per-city cost everything
//!    below amortizes).
//! 3. **Point queries** — elimination-tree CCH queries vs plain
//!    Dijkstra over sampled source/target pairs; medians must differ by
//!    `--min-query-speedup`.
//! 4. **Re-customization** — incremental re-customization after a
//!    single edge removal vs a full customization from scratch (and,
//!    for context, vs a full topology rebuild); medians must differ by
//!    `--min-recustomize-speedup`.
//!
//! CI runs a relaxed smoke configuration on a small city; the committed
//! `BENCH_ch.json` comes from the full defaults (`--preset la --scale
//! mega`, a million-node-plus network).

use citygen::{CityPreset, Scale};
use pathattack::WeightType;
use routing::{Cch, CchSearch, Dijkstra, Direction};
use std::time::Instant;
use traffic_graph::{EdgeId, FrozenGraph, GraphView, NodeId};

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// Deterministic LCG so samples are reproducible across runs.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn preset_from(name: &str) -> CityPreset {
    match name {
        "boston" => CityPreset::Boston,
        "sf" => CityPreset::SanFrancisco,
        "chicago" => CityPreset::Chicago,
        "la" => CityPreset::LosAngeles,
        other => panic!("unknown preset {other:?}"),
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64() * 1e3, v)
}

fn main() {
    let mut preset_name = "la".to_string();
    let mut scale = Scale::Mega;
    let mut seed = 42u64;
    let mut queries = 20usize;
    let mut recustomize_samples = 9usize;
    let mut out_path = "BENCH_ch.json".to_string();
    let mut min_query_speedup = 10.0f64;
    let mut min_recustomize_speedup = 10.0f64;
    let mut max_gen_ratio = 3.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |what: &str| args.next().unwrap_or_else(|| panic!("{what} VALUE"));
        let mut num = |what: &str| -> f64 {
            next(what)
                .parse()
                .unwrap_or_else(|_| panic!("{what} expects a number"))
        };
        match a.as_str() {
            "--preset" => preset_name = next("--preset"),
            "--scale" => {
                scale = Scale::from_cli(&next("--scale"))
                    .expect("--scale small|medium|paper|x10|mega|<f>")
            }
            "--seed" => seed = num("--seed") as u64,
            "--queries" => queries = num("--queries") as usize,
            "--recustomize-samples" => recustomize_samples = num("--recustomize-samples") as usize,
            "--min-query-speedup" => min_query_speedup = num("--min-query-speedup"),
            "--min-recustomize-speedup" => {
                min_recustomize_speedup = num("--min-recustomize-speedup")
            }
            "--max-gen-ratio" => max_gen_ratio = num("--max-gen-ratio"),
            "--out" => out_path = next("--out"),
            other => panic!("unknown argument {other:?}"),
        }
    }
    let preset = preset_from(&preset_name);
    obs::set_enabled(true);

    // 1. Generation linearity: per-node rate at a smaller reference
    // scale vs the target scale. A quadratic pass shows up as the big
    // city generating disproportionately slowly per node.
    let ref_scale = if matches!(scale, Scale::Mega) {
        Scale::X10
    } else {
        Scale::Small
    };
    let (ref_ms, ref_net) = timed(|| preset.build(ref_scale, seed));
    let ref_nodes = ref_net.num_nodes();
    drop(ref_net);
    let (gen_ms, net) = timed(|| preset.build(scale, seed));
    let nodes = net.num_nodes();
    let ref_rate_us = ref_ms * 1e3 / ref_nodes.max(1) as f64;
    let gen_rate_us = gen_ms * 1e3 / nodes.max(1) as f64;
    let gen_ratio = gen_rate_us / ref_rate_us;
    println!(
        "generation  {preset_name}@{ref_scale:?} {ref_nodes} nodes in {ref_ms:.0} ms \
         ({ref_rate_us:.2} us/node)  {preset_name}@{scale:?} {nodes} nodes in {gen_ms:.0} ms \
         ({gen_rate_us:.2} us/node)  ratio {gen_ratio:.2}"
    );

    let weights = WeightType::Time.compute(&net);

    // 2. Contraction: freeze + order + chordal topology, then the first
    // customization of the travel-time metric.
    let (contract_ms, (frozen, cch)) = timed(|| {
        let frozen = FrozenGraph::freeze(&net);
        let cch = Cch::build(&frozen);
        (frozen, cch)
    });
    let (customize_ms, metric) = timed(|| cch.customize(|e| weights[e.index()]));
    let bytes_resident = frozen.bytes_resident() + cch.bytes_resident() + metric.bytes_resident();
    drop(frozen);
    println!(
        "contraction {:.0} ms  ({} nodes, {} arcs, {:.1} MiB resident)  customize {:.0} ms",
        contract_ms,
        cch.num_nodes(),
        cch.num_arcs(),
        bytes_resident as f64 / (1024.0 * 1024.0),
        customize_ms,
    );

    // 3. Point queries vs Dijkstra on sampled reachable pairs.
    let view = GraphView::new(&net);
    let weight = |e: EdgeId| weights[e.index()];
    let mut rng = seed | 1;
    let mut search = CchSearch::new();
    let mut dij = Dijkstra::new(nodes);
    let mut cch_us = Vec::with_capacity(queries);
    let mut dij_us = Vec::with_capacity(queries);
    let mut checked = 0usize;
    while checked < queries {
        let s = NodeId::new((lcg(&mut rng) % nodes as u64) as usize);
        let t = NodeId::new((lcg(&mut rng) % nodes as u64) as usize);
        if s == t {
            continue;
        }
        let tq = Instant::now();
        let got = search.query(&cch, &metric, s, t);
        let cch_t = tq.elapsed().as_secs_f64() * 1e6;
        let tq = Instant::now();
        dij.sweep(&view, weight, s, Some(t), Direction::Forward);
        let want = dij.distance(t).unwrap_or(f64::INFINITY);
        let dij_t = tq.elapsed().as_secs_f64() * 1e6;
        let close = if want.is_finite() {
            (got - want).abs() <= 1e-6 * want.max(1.0)
        } else {
            got.is_infinite()
        };
        assert!(
            close,
            "query {s:?}->{t:?} diverged: cch {got} vs dijkstra {want}"
        );
        cch_us.push(cch_t);
        dij_us.push(dij_t);
        checked += 1;
    }
    let cch_query_us = median(&mut cch_us);
    let dij_query_us = median(&mut dij_us);
    let query_speedup = dij_query_us / cch_query_us;
    println!(
        "queries     {queries} pairs  cch {cch_query_us:.0} us  dijkstra {dij_query_us:.0} us  \
         speedup {query_speedup:.1}x"
    );

    // 4. Re-customization after a single removal vs full customization
    // (and, for context, a full topology rebuild).
    let num_edges = net.num_edges();
    let mut work = metric.clone();
    let mut recustomize_ms_samples = Vec::with_capacity(recustomize_samples);
    for _ in 0..recustomize_samples {
        let e = EdgeId::new((lcg(&mut rng) % num_edges as u64) as usize);
        let masked = |q: EdgeId| if q == e { f64::INFINITY } else { weight(q) };
        work.copy_from(&metric);
        let (t, _) = timed(|| cch.recustomize(&mut work, masked, [e]));
        recustomize_ms_samples.push(t);
    }
    let recustomize_ms = median(&mut recustomize_ms_samples);
    let (full_customize_ms, _) = timed(|| cch.customize(weight));
    let full_rebuild_ms = contract_ms + customize_ms;
    let recustomize_speedup = full_customize_ms / recustomize_ms.max(1e-6);
    println!(
        "recustomize {recustomize_ms:.2} ms after one removal  full customize \
         {full_customize_ms:.0} ms ({recustomize_speedup:.0}x)  full rebuild {full_rebuild_ms:.0} ms"
    );

    let pass = gen_ratio <= max_gen_ratio
        && query_speedup >= min_query_speedup
        && recustomize_speedup >= min_recustomize_speedup;

    let json = format!(
        "{{\n  \"bench\": \"perf_ch\",\n  \"preset\": \"{preset_name}\",\n  \"scale\": \"{}\",\n  \
         \"seed\": {seed},\n  \"nodes\": {nodes},\n  \"edges\": {num_edges},\n  \
         \"generation\": {{\"ref_scale\": \"{}\", \"ref_nodes\": {ref_nodes}, \
         \"ref_us_per_node\": {ref_rate_us:.3}, \"target_ms\": {gen_ms:.0}, \
         \"target_us_per_node\": {gen_rate_us:.3}, \"ratio\": {gen_ratio:.2}, \
         \"max_ratio\": {max_gen_ratio}}},\n  \
         \"contraction\": {{\"build_ms\": {contract_ms:.0}, \"arcs\": {}, \
         \"bytes_resident\": {}, \"customize_ms\": {customize_ms:.0}}},\n  \
         \"queries\": {{\"pairs\": {queries}, \"cch_us\": {cch_query_us:.1}, \
         \"dijkstra_us\": {dij_query_us:.1}, \"speedup\": {query_speedup:.1}, \
         \"min_speedup\": {min_query_speedup}}},\n  \
         \"recustomization\": {{\"samples\": {recustomize_samples}, \
         \"single_removal_ms\": {recustomize_ms:.3}, \"full_customize_ms\": {full_customize_ms:.0}, \
         \"full_rebuild_ms\": {full_rebuild_ms:.0}, \"speedup_vs_customize\": \
         {recustomize_speedup:.0}, \"min_speedup\": {min_recustomize_speedup}}},\n  \
         \"pass\": {pass}\n}}\n",
        scale.cli_name(),
        ref_scale.cli_name(),
        cch.num_arcs(),
        bytes_resident,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_ch.json");
    println!("wrote {out_path} (pass: {pass})");
    if !pass {
        std::process::exit(1);
    }
}

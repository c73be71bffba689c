//! End-to-end tests of the `metro-attack` CLI binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_metro-attack"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn generate_prints_summary() {
    let (ok, stdout, _) = run(&["generate", "--city", "chicago", "--scale", "0.05"]);
    assert!(ok);
    assert!(stdout.contains("Chicago"));
    assert!(stdout.contains("intersections"));
    assert!(stdout.contains("orientation order"));
    assert!(stdout.contains("Northwestern Memorial Hospital"));
}

#[test]
fn attack_succeeds_and_verifies() {
    let (ok, stdout, _) = run(&[
        "attack",
        "--city",
        "boston",
        "--scale",
        "0.05",
        "--rank",
        "10",
        "--algorithm",
        "greedy-pathcover",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("status Success"));
    assert!(stdout.contains("verified: p* is the exclusive shortest path"));
}

#[test]
fn attack_writes_svg() {
    let dir = std::env::temp_dir().join(format!("ma-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let svg = dir.join("attack.svg");
    let (ok, _, _) = run(&[
        "attack",
        "--city",
        "chicago",
        "--scale",
        "0.05",
        "--rank",
        "8",
        "--svg",
        svg.to_str().unwrap(),
    ]);
    assert!(ok);
    let content = std::fs::read_to_string(&svg).unwrap();
    assert!(content.starts_with("<svg"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recon_lists_top_segments() {
    let (ok, stdout, _) = run(&["recon", "--city", "sf", "--scale", "0.05", "--top", "5"]);
    assert!(ok);
    assert!(stdout.contains("most critical segments"));
    let rows = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with(char::is_numeric) && l.contains("betweenness"))
        .count();
    assert_eq!(rows, 5, "{stdout}");
}

#[test]
fn harden_reports_plan_or_defensible() {
    let (ok, stdout, _) = run(&[
        "harden", "--city", "chicago", "--scale", "0.05", "--rank", "8",
    ]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("harden") || stdout.contains("already defensible"),
        "{stdout}"
    );
    if stdout.contains("attack after hardening") {
        assert!(stdout.contains("Stuck"), "{stdout}");
    }
}

#[test]
fn isolate_reports_blockade() {
    let (ok, stdout, _) = run(&[
        "isolate", "--city", "sf", "--scale", "0.05", "--radius", "300",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("blockade isolating"));
}

#[test]
fn impact_reports_slowdown() {
    let (ok, stdout, _) = run(&[
        "impact", "--city", "chicago", "--scale", "0.05", "--trips", "10", "--rank", "8",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("city-wide impact"));
    assert!(stdout.contains("mean trip"));
}

#[test]
fn coordinate_runs() {
    let (ok, stdout, _) = run(&[
        "coordinate",
        "--city",
        "chicago",
        "--scale",
        "0.05",
        "--victims",
        "2",
        "--rank",
        "6",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("joint cut"));
}

#[test]
fn bad_usage_exits_nonzero() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    let (ok, _, _) = run(&["attack", "--city", "atlantis"]);
    assert!(!ok);
}

#[test]
fn usage_documents_every_known_flag() {
    let (ok, _, stderr) = run(&["help-me"]);
    assert!(!ok);
    for flag in metro_attack::cli::KNOWN_FLAGS {
        assert!(
            stderr.contains(&format!("--{flag}")),
            "usage output omits --{flag}:\n{stderr}"
        );
    }
}

#[test]
fn metrics_table_covers_routing_pathattack_and_harness() {
    let (ok, _, stderr) = run(&[
        "attack",
        "--city",
        "boston",
        "--scale",
        "0.05",
        "--rank",
        "10",
        "--metrics",
        "table",
    ]);
    assert!(ok, "{stderr}");
    for section in ["== COUNTERS ==", "== HISTOGRAMS ==", "== SPANS =="] {
        assert!(stderr.contains(section), "missing {section}:\n{stderr}");
    }
    // At least one counter, one histogram, and one span from each of the
    // three instrumented groups (ISSUE 1 acceptance criteria).
    for metric in [
        // routing
        "routing.dijkstra.pops",
        "routing.yen.candidates_per_query",
        "routing.yen.spur_searches",
        "routing.yen.spur_skips",
        "routing.yen.dead_end_spurs",
        "routing.yen.shortest_path",
        // pathattack (attack algorithms + oracle)
        "pathattack.oracle.calls",
        "pathattack.attack.edges_cut",
        "pathattack.attack.run",
        // harness (CLI command roll-up)
        "harness.commands",
        "harness.command_runtime_ms",
        "harness.cmd.attack",
    ] {
        assert!(stderr.contains(metric), "missing {metric}:\n{stderr}");
    }
}

#[test]
fn metrics_jsonl_parses_as_json_lines() {
    let (ok, stdout, stderr) = run(&[
        "attack",
        "--city",
        "chicago",
        "--scale",
        "0.05",
        "--rank",
        "8",
        "--metrics",
        "jsonl",
    ]);
    assert!(ok, "{stderr}");
    let telemetry: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert!(!telemetry.is_empty(), "no JSONL telemetry in:\n{stdout}");
    let joined = telemetry.join("\n");
    let snap = metro_attack::obs::Snapshot::from_jsonl(&joined).expect("valid JSONL");
    assert!(snap.counter("harness.commands").is_some());
    assert!(snap.counter("routing.astar.searches").is_some());
}

#[test]
fn metrics_file_writes_jsonl() {
    let dir = std::env::temp_dir().join(format!("ma-cli-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.jsonl");
    let (ok, _, stderr) = run(&[
        "attack",
        "--city",
        "chicago",
        "--scale",
        "0.05",
        "--rank",
        "8",
        "--metrics",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let content = std::fs::read_to_string(&path).unwrap();
    metro_attack::obs::Snapshot::from_jsonl(&content).expect("valid JSONL file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn attack_call_cap_reports_timeout() {
    let (ok, stdout, _) = run(&[
        "attack",
        "--city",
        "boston",
        "--scale",
        "0.05",
        "--rank",
        "10",
        "--max-oracle-calls",
        "0",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("status TimedOut"), "{stdout}");
}

#[test]
fn experiment_sweeps_with_checkpoint_resume_and_csv() {
    let dir = std::env::temp_dir().join(format!("ma-cli-exp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("sweep.ckpt.jsonl");
    let csv = dir.join("records.csv");
    let args = [
        "experiment",
        "--city",
        "chicago",
        "--scale",
        "0.05",
        "--rank",
        "8",
        "--sources",
        "1",
        "--deadline",
        "30",
        "--resume",
        ckpt.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
    ];
    let (ok, stdout, stderr) = run(&args);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("EXPERIMENT"), "{stdout}");
    assert!(stdout.contains("timed out"), "{stdout}");
    let first_csv = std::fs::read_to_string(&csv).unwrap();
    assert!(first_csv.starts_with("city,weight,cost"), "{first_csv}");
    assert!(ckpt.exists());

    // Second invocation resumes from the complete journal: nothing is
    // re-run and the CSV comes out byte-identical.
    let (ok, stdout, stderr) = run(&args);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("resuming from"), "{stdout}");
    let second_csv = std::fs::read_to_string(&csv).unwrap();
    assert_eq!(first_csv, second_csv);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiment_threads_flag_and_reuse_summary() {
    let (ok, stdout, stderr) = run(&[
        "experiment",
        "--city",
        "chicago",
        "--scale",
        "0.05",
        "--rank",
        "8",
        "--sources",
        "1",
        "--threads",
        "1",
        "--metrics",
        "table",
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    // The --metrics summary line reports total Dijkstra work and how
    // often the shared reverse tables absorbed a backward sweep.
    let line = stdout
        .lines()
        .find(|l| l.starts_with("dijkstra sweeps:"))
        .unwrap_or_else(|| panic!("no reuse summary in:\n{stdout}"));
    assert!(line.contains("rev-table reuse:"), "{line}");
    let grab = |marker: &str| -> u64 {
        let at = line.find(marker).unwrap() + marker.len();
        line[at..]
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let hits = grab("reuse:");
    let misses = grab("hits,");
    // Every (cost × algorithm) oracle shares its hospital's one table.
    assert!(hits > misses, "{line}");
    // The raw counters surface in the full metrics report too.
    assert!(stderr.contains("pathattack.reuse.rev_dij.hit"), "{stderr}");
    assert!(stderr.contains("routing.scratch.hit"), "{stderr}");
}

#[test]
fn experiment_rejects_bad_fault_spec() {
    let (ok, _, stderr) = run(&[
        "experiment",
        "--city",
        "chicago",
        "--scale",
        "0.05",
        "--faults",
        "frobnicate=1",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bad --faults spec"), "{stderr}");
}

#[test]
fn serve_answers_requests_and_drains_on_sigterm() {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_metro-attack"))
        .args([
            "serve",
            "--city",
            "boston",
            "--scale",
            "0.05",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    lines.read_line(&mut line).unwrap();
    let addr: std::net::SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .parse()
        .unwrap();

    let mut client = serve::Client::connect(&addr).expect("connect");
    let mut req = serve::Request::new(1, serve::RequestKind::Route, "boston");
    req.source = 7;
    let resp = client.roundtrip(&req).expect("roundtrip");
    assert!(resp.ok, "{:?}", resp.error);
    drop(client); // close the connection so drain has nothing in flight

    // Default `kill` signal is SIGTERM: the server must drain and exit 0.
    let killed = Command::new("kill")
        .arg(child.id().to_string())
        .status()
        .expect("kill runs");
    assert!(killed.success());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut lines, &mut rest).unwrap();
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited {status:?}:\n{rest}");
    assert!(rest.contains("drained cleanly"), "{rest}");
}

#[test]
fn trace_once_renders_a_frame_from_a_live_server() {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_metro-attack"))
        .args([
            "serve",
            "--city",
            "boston",
            "--scale",
            "0.05",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    lines.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();

    // Give the view something to show.
    let sock: std::net::SocketAddr = addr.parse().unwrap();
    let mut client = serve::Client::connect(&sock).expect("connect");
    let mut req = serve::Request::new(1, serve::RequestKind::Route, "boston");
    req.source = 7;
    assert!(client.roundtrip(&req).expect("roundtrip").ok);
    drop(client);

    let (ok, stdout, stderr) = run(&["trace", "--addr", &addr, "--once"]);
    assert!(ok, "trace --once failed:\n{stderr}");
    for needle in ["metro-serve @", "window", "10s", "60s", "top counters:"] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
    // --once never enters the live loop, so no ANSI clear sequences.
    assert!(
        !stdout.contains('\x1b'),
        "unexpected ANSI escapes:\n{stdout}"
    );

    let killed = Command::new("kill")
        .arg(child.id().to_string())
        .status()
        .expect("kill runs");
    assert!(killed.success());
    assert!(child.wait().expect("serve exits").success());
}

#[test]
fn trace_requires_an_addr() {
    let (ok, _, stderr) = run(&["trace", "--once"]);
    assert!(!ok);
    assert!(stderr.contains("--addr"), "{stderr}");
}

#[test]
fn chaos_requires_an_addr() {
    let (ok, _, stderr) = run(&["chaos"]);
    assert!(!ok);
    assert!(stderr.contains("--addr"), "{stderr}");
}

#[test]
fn chaos_rejects_a_bad_plan_spec() {
    let (ok, _, stderr) = run(&["chaos", "--addr", "127.0.0.1:9", "--chaos", "frobnicate=1"]);
    assert!(!ok);
    assert!(stderr.contains("frobnicate"), "{stderr}");
}

#[test]
fn metrics_off_by_default() {
    let (ok, stdout, stderr) = run(&[
        "attack", "--city", "chicago", "--scale", "0.05", "--rank", "8",
    ]);
    assert!(ok);
    assert!(!stdout.contains("\"kind\":"), "{stdout}");
    assert!(!stderr.contains("== COUNTERS =="), "{stderr}");
}

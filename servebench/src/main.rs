//! `servebench`: end-to-end and per-layer benchmark of `rpr serve`.
//!
//! ```text
//! servebench --workload warm_rw|cold_dense|cold_hard --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds `rpr` from source, then
//! alternates set-up and measurement on fresh servers: the run is cut
//! into `SLICES` slices, each of which spawns `rpr serve`, loads the
//! workload's steady state through it (timed as set-up), drives
//! `seconds / SLICES` of closed-loop traffic over two keep-alive
//! connections, and stops the server. Host speed drifts in phases of
//! seconds, so set-up is sampled at several points spread through the
//! run rather than in one burst, and reported as their mean. Every
//! answer is checked; the last
//! line of standard output is the JSON result. `--trace 1` also samples
//! the live server and replays the stream in process, stage by stage
//! (see `replay`). See README.md for the metric map.

mod gen;
mod live;
mod prom;
mod replay;
mod stats;
mod trace;
mod verify;

use gen::{Kind, Request, Resident, Workload};
use live::Server;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-up/window slices per run, each on a fresh server.
const SLICES: u32 = 12;

/// Samples a run must have beyond its p99; fewer counts one failure.
const MIN_TAIL: usize = 10;

/// Requests replayed in process by a traced run, per workload: enough
/// to pass the set-up's cache contents several times over.
fn replay_len(w: Workload) -> usize {
    match w {
        Workload::WarmRw => 2000,
        Workload::ColdDense => 80,
        Workload::ColdHard => 160,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other}")),
        },
    })
}

/// Builds `rpr` from the repository's sources and returns its path.
fn build_server() -> Result<PathBuf, String> {
    if !std::path::Path::new("crates/cli/Cargo.toml").exists() {
        return Err("run from the repository root (crates/cli not found)".into());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--offline", "-p", "rpr-cli"])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building rpr failed".into());
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = PathBuf::from(target).join("release").join("rpr");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("{} not found after build", bin.display()))
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// FNV-1a over the program's sources, identifying the code measured
/// when the checkout carries no git metadata.
fn tree_hash() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// `(steal, total)` jiffies of the whole machine from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        text.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn provenance(args: &Args) -> String {
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    format!(
        "provenance: commit={commit} tree={} rustc=\"{}\" nproc={} profile=release date={} seed={} \
         workload={} seconds={} slices={SLICES} connections={} server_flags=\"{}\"",
        tree_hash(),
        command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]).unwrap_or_else(|| "unknown".into()),
        args.seed,
        args.workload.name(),
        args.seconds,
        live::CONNECTIONS,
        live::server_flags().join(" "),
    )
}

/// Everything one run needs to generate and check its traffic.
struct Plan {
    workload: Workload,
    seed: u64,
    residents: Vec<Resident>,
    ws_json: Vec<String>,
    truth: Option<verify::WarmTruth>,
}

impl Plan {
    fn new(workload: Workload, seed: u64) -> Result<Plan, String> {
        let mut plan =
            Plan { workload, seed, residents: Vec::new(), ws_json: Vec::new(), truth: None };
        if workload == Workload::WarmRw {
            plan.residents = gen::residents(seed);
            plan.ws_json = plan
                .residents
                .iter()
                .map(|r| rpr_serve::Json::str(r.text.clone()).render())
                .collect();
            plan.truth = Some(verify::warm_truth(&plan.residents)?);
        }
        Ok(plan)
    }

    /// The `seq`-th request of connection `conn`.
    fn request(&self, conn: u64, seq: u64) -> Request {
        match &self.truth {
            Some(truth) => gen::warm_request(
                self.seed,
                conn,
                seq,
                &self.residents,
                &self.ws_json,
                &truth.fingerprints,
            ),
            None => gen::cold_request(self.workload, self.seed, conn, seq),
        }
    }

    /// Set-up traffic of slice `slice`. Warm: every resident uploaded
    /// with all its candidates, so sessions are cached and exact
    /// verdicts memoised. Cold: never-reused workspaces past the
    /// session cache's capacity (and, on `cold_hard`, past the shard
    /// store's byte ceiling), so the window starts at steady-state
    /// eviction.
    fn setup(&self, slice: u32) -> Vec<(&'static str, String)> {
        match self.workload {
            Workload::WarmRw => self
                .residents
                .iter()
                .zip(&self.ws_json)
                .map(|(r, ws)| {
                    let names: Vec<rpr_serve::Json> =
                        r.candidates.iter().map(|c| rpr_serve::Json::str(c.clone())).collect();
                    (
                        "/check",
                        format!(
                            "{{\"workspace\":{ws},\"repairs\":{}}}",
                            rpr_serve::Json::Arr(names).render()
                        ),
                    )
                })
                .collect(),
            w => {
                let fill = match w {
                    Workload::ColdHard => live::CACHE_ENTRIES + 48,
                    _ => live::CACHE_ENTRIES + 8,
                };
                (0..fill as u64)
                    .map(|seq| {
                        (
                            "/check",
                            gen::cold_request(w, self.seed, 1000 + u64::from(slice), seq).body,
                        )
                    })
                    .collect()
            }
        }
    }
}

/// Connection ids of slice `slice`: distinct per slice, so cold content
/// never repeats within a run.
fn conn_id(slice: u32, c: u64) -> u64 {
    u64::from(slice) * live::CONNECTIONS + c
}

/// What the live slices measured.
#[derive(Default)]
struct LiveRun {
    setup_s: Vec<f64>,
    window_s: f64,
    rss_kb: Vec<f64>,
    slice_rps: Vec<f64>,
    latencies: Vec<(Kind, u64)>,
    attempted: u64,
    failed: u64,
    setup_failed: u64,
    reconcile_failed: u64,
    problems: Vec<String>,
    /// Distinct certificates audited; cold answers re-checked in process.
    audited: u64,
    rechecked: u64,
    /// Cold requests generated inside the window (pool too short).
    inline_generated: u64,
    // Traced runs only.
    threads_max: u64,
    cpu_s: f64,
    handler_s: f64,
    handler_n: f64,
    cache_hits: f64,
    cache_misses: f64,
    cache_evictions: f64,
    shard_evictions: f64,
}

fn reconcile(
    plan: &Plan,
    m: &BTreeMap<String, f64>,
    expected_requests: u64,
    v: &verify::Verdict,
    problems: &mut Vec<String>,
) -> u64 {
    // Each check is a series and the value it must have; a series the
    // scrape lacks fails like a wrong value.
    let mut checks = vec![
        ("rpr_requests_total", expected_requests as f64),
        ("rpr_delta_ops_total", 2.0 * v.delta_ok as f64),
        ("rpr_cancelled_total", 0.0),
        ("rpr_rejected_total", 0.0),
        ("rpr_audit_failures_total", 0.0),
        ("rpr_certificates_issued_total", v.certificates as f64),
    ];
    match plan.workload {
        // No session is built in the window.
        Workload::WarmRw => checks.push(("rpr_cache_misses_total", plan.residents.len() as f64)),
        Workload::ColdDense => checks.push(("rpr_cache_hits_total", 0.0)),
        Workload::ColdHard => {
            checks.push(("rpr_cache_hits_total", 0.0));
            checks.push(("rpr_shard_hits_total", 0.0));
        }
    }
    let mut failed = 0;
    for (name, want) in checks {
        match prom::value(m, name) {
            Some(got) if got == want => {}
            got => {
                failed += 1;
                problems
                    .push(format!("/metrics does not reconcile: {name} is {got:?}, not {want}"));
            }
        }
    }
    failed
}

fn run_live(
    plan: &Plan,
    bin: &std::path::Path,
    seconds: u64,
    traced: bool,
) -> Result<LiveRun, String> {
    let mut run = LiveRun::default();
    let slice_len = Duration::from_secs_f64(seconds as f64 / f64::from(SLICES));
    // Cold bodies are generated before the slice, so generation stays
    // out of the window; the pool is sized from the previous slice and
    // a request past its end is generated inline.
    let mut pool_len = match plan.workload {
        Workload::WarmRw => 0,
        Workload::ColdDense => (60.0 * slice_len.as_secs_f64()) as u64,
        Workload::ColdHard => (150.0 * slice_len.as_secs_f64()) as u64,
    };
    for slice in 0..SLICES {
        let pools: Vec<Vec<Request>> = (0..live::CONNECTIONS)
            .map(|c| (0..pool_len).map(|seq| plan.request(conn_id(slice, c), seq)).collect())
            .collect();
        let setup = plan.setup(slice);
        let t0 = Instant::now();
        let server = Server::spawn(bin).map_err(|e| format!("cannot start rpr serve: {e}"))?;
        let statuses = live::upload(&server.addr, &setup);
        run.setup_s.push(t0.elapsed().as_secs_f64());
        run.setup_failed += statuses.iter().filter(|&&s| s != 200).count() as u64;

        let mut scrapes = 0;
        let before = if traced {
            scrapes += 1;
            Some((server.scrape().map_err(|e| e.to_string())?, server.cpu_seconds()))
        } else {
            None
        };
        let stop = AtomicBool::new(false);
        let (logs, window, threads) = std::thread::scope(|scope| {
            let sampler = traced.then(|| scope.spawn(|| live::sample_threads(server.pid, &stop)));
            let make = |c: u64, seq: u64| match pools[c as usize].get(seq as usize) {
                Some(req) => req.clone(),
                None => plan.request(conn_id(slice, c), seq),
            };
            let (logs, window) = live::drive(&server.addr, slice_len, &make);
            stop.store(true, Ordering::Relaxed);
            (logs, window, sampler.map_or(0, |s| s.join().expect("sampler panicked")))
        });
        let cpu_after = server.cpu_seconds();
        scrapes += 1;
        let after = server.scrape().map_err(|e| e.to_string())?;
        run.rss_kb.push(server.status_field("VmHWM").unwrap_or(0) as f64);
        server.stop();

        drop(pools);
        let mut answers = live::Answers::new();
        let mut optimal: Vec<Vec<bool>> = Vec::new();
        let mut sent = 0;
        if pool_len > 0 {
            let most = logs.iter().map(|l| l.sent).max().unwrap_or(0);
            if most > pool_len {
                run.inline_generated += most - pool_len;
            }
            pool_len = most + most / 4 + 16;
        }
        for log in logs {
            sent += log.sent;
            run.attempted += log.sent;
            run.failed += log.lost;
            run.latencies.extend(log.latencies);
            for (k, v) in log.answers {
                answers.entry(k).or_default().extend(v);
            }
            optimal.push(log.optimal);
        }
        run.window_s += window;
        run.slice_rps.push(sent as f64 / window);
        let built_in =
            |conn: u64, seq: u64| optimal[(conn - conn_id(slice, 0)) as usize][seq as usize];
        let v = verify::check_answers(
            plan.workload,
            plan.seed,
            &answers,
            &plan.residents,
            plan.truth.as_ref(),
            &built_in,
        );
        run.failed += v.failed;
        run.audited += v.audited;
        run.rechecked += v.rechecked;
        run.problems.extend(v.problems.iter().cloned());
        let expected = setup.len() as u64 + live::CONNECTIONS + sent + scrapes;
        run.reconcile_failed += reconcile(plan, &after, expected, &v, &mut run.problems);

        if let Some((m0, cpu0)) = before {
            // A series either scrape lacks fails like a wrong value.
            let mut missing = Vec::new();
            let mut d = |k: &str| match (prom::value(&after, k), prom::value(&m0, k)) {
                (Some(a), Some(b)) => a - b,
                _ => {
                    missing.push(k.to_owned());
                    0.0
                }
            };
            run.cache_hits += d("rpr_cache_hits_total");
            run.cache_misses += d("rpr_cache_misses_total");
            run.cache_evictions += d("rpr_cache_evictions_total");
            run.shard_evictions += d("rpr_shard_evictions_total");
            for h in ["check", "cqa", "delta"] {
                let name = format!("rpr_{h}_latency_seconds");
                match (prom::histogram(&after, &name), prom::histogram(&m0, &name)) {
                    (Some((s1, n1)), Some((s0, n0))) => {
                        run.handler_s += s1 - s0;
                        run.handler_n += n1 - n0;
                    }
                    _ => missing.push(name),
                }
            }
            run.reconcile_failed += missing.len() as u64;
            run.problems.extend(missing.iter().map(|k| format!("/metrics lacks {k}")));
            run.threads_max = run.threads_max.max(threads);
            run.cpu_s += cpu_after - cpu0;
        }
    }
    Ok(run)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let bin = build_server()?;
    println!("{}", provenance(&args));
    let plan = Plan::new(args.workload, args.seed)?;
    let jiffies0 = cpu_jiffies();
    let live = run_live(&plan, &bin, args.seconds, args.trace)?;
    // Time the hypervisor gave other guests: the host-phase drift the
    // figures cannot control, printed so a slow run can be explained.
    if let (Some((s0, t0)), Some((s1, t1))) = (jiffies0, cpu_jiffies()) {
        println!(
            "host: {:.2}% of CPU time stolen during the run",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        );
    }

    let mut all: Vec<f64> = live.latencies.iter().map(|&(_, ns)| ms(ns)).collect();
    all.sort_by(f64::total_cmp);
    let (p50, _) = stats::nearest_rank(&all, 0.50).ok_or("no request completed")?;
    let (p99, tail) = stats::nearest_rank(&all, 0.99).ok_or("no request completed")?;
    let answered = live.latencies.len() as u64;
    let correct_answers = answered.saturating_sub(live.failed - (live.attempted - answered));
    let mut failed = live.failed + live.setup_failed + live.reconcile_failed;
    for (i, ((s, rss), rps)) in
        live.setup_s.iter().zip(&live.rss_kb).zip(&live.slice_rps).enumerate()
    {
        println!("slice {i}: setup {s:.4} s, {rps:.1} requests/s, VmHWM {:.1} MB", rss / 1024.0);
    }
    println!(
        "latency: n={} p50={p50:.4} ms p99={p99:.4} ms ({tail} samples beyond p99), window {:.3} s",
        all.len(),
        live.window_s
    );
    println!(
        "checked: {answered} answers, {} distinct certificates audited, {} cold answers re-checked in process",
        live.audited, live.rechecked
    );
    if live.inline_generated > 0 {
        println!("note: {} cold requests were generated inside the window", live.inline_generated);
    }
    for p in &live.problems {
        println!("problem: {p}");
    }
    if tail < MIN_TAIL {
        failed += 1;
        println!("problem: {tail} samples beyond p99, fewer than {MIN_TAIL}");
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.push(("throughput_rps".into(), correct_answers as f64 / live.window_s, "1/s"));
        metrics.push(("latency_p50_ms".into(), p50, "ms"));
        metrics.push(("latency_p99_ms".into(), p99, "ms"));
        metrics.push(("setup_s".into(), stats::mean(&live.setup_s), "s"));
        metrics.push(("server_rss_mb".into(), stats::median(&live.rss_kb) / 1024.0, "MB"));
    } else {
        let (traced, trace_failed) = traced_metrics(&plan, &live, &all);
        failed += trace_failed;
        metrics.extend(traced);
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        live.attempted.max(1),
        body.join(", ")
    );
    Ok(())
}

/// The per-layer metrics of a traced run, live-server samples plus the
/// in-process replay, and the replayed requests that failed.
fn traced_metrics(
    plan: &Plan,
    live: &LiveRun,
    all_ms: &[f64],
) -> (Vec<(String, f64, &'static str)>, u64) {
    let n_live = live.latencies.len().max(1) as f64;
    let client_mean = all_ms.iter().sum::<f64>() / n_live;
    let kind_p50 = |k: Kind| {
        let mut v: Vec<f64> =
            live.latencies.iter().filter(|(kind, _)| *kind == k).map(|&(_, ns)| ms(ns)).collect();
        v.sort_by(f64::total_cmp);
        stats::nearest_rank(&v, 0.5).map_or(0.0, |(x, _)| x)
    };

    let stream: Vec<Request> =
        (0..replay_len(plan.workload) as u64).map(|i| plan.request(i % 2, i / 2)).collect();
    let setup = plan.setup(0);
    let (handler, stages) = replay::replay(&setup, &stream);
    let c = &stages.counts;
    let stage = |name: &str| stages.self_ms.get(name).copied().unwrap_or(0.0);
    // The `serve.handle` root's own self time is glue no stage covers:
    // it counts as unattributed, not as a stage.
    let stage_sum: f64 =
        stages.self_ms.iter().filter(|(k, _)| **k != "serve.handle").map(|(_, v)| v).sum();
    let trace_failed = handler.failed + c.failed;
    let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };

    let mut out: Vec<(String, f64, &'static str)> = vec![
        (
            "serve.wait_ms".into(),
            client_mean - 1e3 * live.handler_s / live.handler_n.max(1.0),
            "ms",
        ),
        ("serve.http_ms".into(), handler.http_ms, "ms"),
        ("serve.threads_max".into(), live.threads_max as f64, "count"),
        ("serve.cpu_ms_per_req".into(), 1e3 * live.cpu_s / n_live, "ms"),
        ("serve.handle_ms".into(), handler.handle_ms, "ms"),
        ("serve.respond_ms".into(), handler.respond_ms, "ms"),
        ("serve.check_p50_ms".into(), kind_p50(Kind::Check), "ms"),
        ("serve.certify_p50_ms".into(), kind_p50(Kind::Certify), "ms"),
        ("serve.delta_p50_ms".into(), kind_p50(Kind::Delta), "ms"),
        ("serve.cqa_p50_ms".into(), kind_p50(Kind::Cqa), "ms"),
        ("serve.cache.lookup_ms".into(), stage("serve.cache.lookup_ms"), "ms"),
        (
            "serve.cache.hit_ratio".into(),
            per(live.cache_hits as u64, (live.cache_hits + live.cache_misses) as u64),
            "ratio",
        ),
        ("serve.cache.evictions".into(), live.cache_evictions, "count"),
        ("serve.identity_ms".into(), stage("serve.identity_ms"), "ms"),
        ("format.scan_ms".into(), stage("format.scan_ms"), "ms"),
        ("format.parse_ms".into(), stage("format.parse_ms"), "ms"),
        ("format.fingerprint_ms".into(), stage("format.fingerprint_ms"), "ms"),
        ("format.prioritize_ms".into(), stage("format.prioritize_ms"), "ms"),
        ("format.body_bytes".into(), per(c.body_bytes, stream.len() as u64), "bytes"),
        ("core.session.build_ms".into(), stage("core.session.build_ms"), "ms"),
        ("fd.conflicts_ms".into(), stages.conflicts_ms * per(c.builds, stream.len() as u64), "ms"),
        ("core.session.bytes".into(), per(c.build_bytes, c.builds), "bytes"),
        ("core.session.components".into(), per(c.build_components, c.builds), "count"),
        (
            "core.shard_store.hit_ratio".into(),
            per(stages.shards.hits, stages.shards.hits + stages.shards.misses),
            "ratio",
        ),
        ("core.shard_store.bytes".into(), stages.shards.bytes as f64, "bytes"),
        ("core.shard_store.evictions".into(), live.shard_evictions, "count"),
        ("core.shard_store.enforce_ms".into(), stage("core.shard_store.enforce_ms"), "ms"),
        ("core.check_ms".into(), stage("core.check_ms"), "ms"),
        ("core.check.work_units".into(), per(c.work_units, c.checks), "count"),
        ("core.certify_ms".into(), stage("core.certify_ms"), "ms"),
        ("format.render_certificate_ms".into(), stage("format.render_certificate_ms"), "ms"),
        ("audit.audit_ms".into(), stage("audit.audit_ms"), "ms"),
        ("format.certificate_bytes".into(), per(c.certificate_bytes, c.certificates), "bytes"),
        ("core.delta.parse_ops_ms".into(), stage("core.delta.parse_ops_ms"), "ms"),
        ("core.delta.apply_ms".into(), stage("core.delta.apply_ms"), "ms"),
        ("core.delta.reuse_ratio".into(), per(c.components_reused, c.components_total), "ratio"),
        ("core.delta.rebuilds".into(), c.rebuilds as f64, "count"),
        ("cqa.answers_ms".into(), stage("cqa.answers_ms"), "ms"),
        ("cqa.repair_count".into(), per(c.repairs, c.cqa), "count"),
        ("trace.unattributed_ms".into(), handler.handle_ms - stage_sum, "ms"),
        ("trace.overhead_ratio".into(), stages.handle_ms / handler.handle_ms, "ratio"),
        ("trace.failed".into(), trace_failed as f64, "count"),
        // Exact counts of the fixed-length replay.
        ("count.requests".into(), stream.len() as f64, "count"),
        ("count.work_units".into(), c.work_units as f64, "count"),
        ("count.cache_hits".into(), c.cache_hits as f64, "count"),
        ("count.cache_misses".into(), c.cache_misses as f64, "count"),
        ("count.cache_evictions".into(), c.cache_evictions as f64, "count"),
        ("count.shard_hits".into(), stages.shards.hits as f64, "count"),
        ("count.shard_misses".into(), stages.shards.misses as f64, "count"),
        ("count.shard_evictions".into(), stages.shards.evictions as f64, "count"),
        ("count.components_reused".into(), c.components_reused as f64, "count"),
        ("count.certificates".into(), c.certificates as f64, "count"),
        ("count.certificate_bytes".into(), c.certificate_bytes as f64, "bytes"),
    ];
    // Which stage dominates, against the prediction in README.md.
    let (top, top_ms) = stages
        .self_ms
        .iter()
        .filter(|(k, _)| **k != "serve.handle")
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(k, v)| (*k, *v))
        .unwrap_or(("none", 0.0));
    let predicted: &[&str] = match plan.workload {
        Workload::WarmRw => &[
            "format.scan_ms",
            "format.parse_ms",
            "format.fingerprint_ms",
            "format.prioritize_ms",
            "serve.identity_ms",
            "core.certify_ms",
            "format.render_certificate_ms",
            "audit.audit_ms",
        ],
        Workload::ColdDense => &["core.session.build_ms"],
        Workload::ColdHard => &["core.check_ms"],
    };
    let met = predicted.contains(&top);
    println!(
        "dominant stage: {top} ({top_ms:.4} ms/request); predicted {}: {}",
        predicted.join(" | "),
        if met { "met" } else { "NOT met" }
    );
    println!(
        "stage self times sum to {stage_sum:.4} ms against serve.handle_ms {:.4} ms (unattributed {:.1}%)",
        handler.handle_ms,
        100.0 * (handler.handle_ms - stage_sum) / handler.handle_ms
    );
    out.push(("trace.prediction_met".into(), f64::from(u8::from(met)), "bool"));
    (out, trace_failed)
}

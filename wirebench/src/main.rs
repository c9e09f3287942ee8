//! wirebench: a seeded, closed-loop wire benchmark of `cypher-serve`.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload oltp_100k --seed 1 --seconds 20 --trace 0 [--holdout-seed 7]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! window untraced and traced and reports the per-layer metrics and the
//! tracing overhead. A human-readable report precedes the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `NOTES.md` for the workloads, metrics and predictions.

mod gen;
mod layers;
mod live;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use live::{Deployment, ScratchDir, Seeds, Window};
use stats::Summary;
use trace::Tracer;
use workload::Workload;

/// `setup_s` is the median of at least `SETUP_MIN` set-ups, more while
/// the set-ups have taken under `SETUP_BUDGET` (up to `SETUP_MAX`), so a
/// set-up of milliseconds is still a median of many.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Salt that separates holdout streams from every `--seed` stream.
const HOLDOUT_SALT: u64 = 0x5EED_0F4F_1DE5;

struct Args {
    workload: Workload,
    seed: u64,
    holdout: Option<u64>,
    seeds: Seeds,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut holdout) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or(format!(
                    "unknown workload {value} (known: {})",
                    workload::NAMES.join(", ")
                ))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--holdout-seed" => holdout = Some(num()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    // A holdout run draws both the statement stream and the marketplace
    // graph from a seed space no `--seed` value reaches.
    let seeds = match holdout {
        Some(h) => Seeds {
            stream: gen::Rng::new(h ^ HOLDOUT_SALT).next_u64(),
            graph: Some(gen::Rng::new(h.wrapping_add(HOLDOUT_SALT)).next_u64()),
        },
        None => Seeds {
            stream: seed,
            graph: None,
        },
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        holdout,
        seeds,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric: value, unit, and the sample count behind it.
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: Option<f64>, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// End-to-end numbers of one measured window.
struct EndToEnd {
    throughput: f64,
    completed: usize,
    read: Summary,
    write: Summary,
    all: Summary,
    notify: Summary,
    attempted: usize,
    failed: usize,
    retries: u64,
    /// `VmHWM` when the window ended, before the final checks copy graphs.
    peak_rss_mb: f64,
    errors: Vec<String>,
}

fn end_to_end(
    win: &Window,
    notify: &[f64],
    peak_rss_mb: f64,
    check_errors: Vec<String>,
) -> EndToEnd {
    let ms = |write: Option<bool>| -> Vec<f64> {
        win.samples()
            .filter(|s| write.is_none_or(|w| s.write == w))
            .map(live::Sample::ms)
            .collect()
    };
    let completed = win.samples().count();
    let elapsed = (win.end.saturating_sub(win.start) as f64 / 1e9).max(1e-9);
    let all_samples: Vec<&live::Sample> = win
        .sessions
        .iter()
        .flat_map(|s| s.window.iter().chain(s.cleanup.iter()))
        .collect();
    let mut errors: Vec<String> = win.sessions.iter().flat_map(|s| s.errors.clone()).collect();
    let failed = all_samples.iter().filter(|s| s.failed).count();
    errors.extend(check_errors);
    EndToEnd {
        throughput: completed as f64 / elapsed,
        completed,
        read: Summary::of(&ms(Some(false))),
        write: Summary::of(&ms(Some(true))),
        all: Summary::of(&ms(None)),
        notify: Summary::of(notify),
        attempted: all_samples.len(),
        failed,
        retries: all_samples.iter().map(|s| u64::from(s.retries)).sum(),
        peak_rss_mb,
        errors,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn scratch_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("wirebench")
}

/// The traced run measures two windows (untraced and traced) of half the
/// run's seconds each, plus two replays of a third each, so that a traced
/// run costs about twice an untraced one.
fn traced_window(seconds: u64) -> u64 {
    seconds.div_ceil(2)
}

/// Run one window on `dep`, check it, and stop the deployment.
fn measure(
    args: &Args,
    dep: Deployment,
    trace: Option<Instant>,
) -> Result<(Window, EndToEnd), String> {
    let win = live::run_window(
        &dep,
        &args.workload,
        args.seeds,
        if trace.is_some() {
            traced_window(args.seconds)
        } else {
            args.seconds
        },
        trace,
        trace.is_some() && dep.replica.is_some(),
    )?;
    let peak_rss_mb = stats::peak_rss_mb();
    let (notify, mut check_errors) = if args.workload.views {
        match live::view_notify_ms(&dep, &win) {
            Ok(v) => (v, Vec::new()),
            Err(e) => (Vec::new(), vec![e]),
        }
    } else {
        (Vec::new(), Vec::new())
    };
    check_errors.extend(live::final_checks(&dep, &win));
    let e2e = end_to_end(&win, &notify, peak_rss_mb, check_errors);
    dep.stop();
    Ok((win, e2e))
}

fn git_commit() -> String {
    let mut git = std::process::Command::new("git");
    // Look no further up than the working directory: a checkout that is
    // not a repository must not report some enclosing repository's head.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git.args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}

fn header(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "wirebench workload={} seed={} graph_seed={} seconds={} trace={} commit={}",
        args.workload.name,
        args.seeds.stream,
        args.seeds.graph.unwrap_or(workload::GRAPH_SEED),
        args.seconds,
        u8::from(args.trace),
        git_commit()
    );
    println!(
        "load: {} closed-loop wire sessions in one process, nproc={nproc}; server: ServerConfig::new defaults{}",
        workload::SESSIONS,
        if args.workload.sync_replicas > 0 {
            ", sync_replicas=1 strict, one in-process replica"
        } else {
            ""
        }
    );
    println!(
        "flush: one real fsync per group commit on the checkout's filesystem; \
         latencies are the host's (virtual disk, shared), not a storage device's"
    );
}

fn print_table(metrics: &[Metric]) {
    println!("{:<36} {:>16} {:<8} samples", "metric", "value", "unit");
    for m in metrics {
        let v = m.value.map_or("n/a".to_owned(), |v| format!("{v:.4}"));
        let tail = if m.name.contains("p90") {
            format!(" ({} beyond p90)", stats::beyond_p90(m.samples))
        } else {
            String::new()
        };
        println!("{:<36} {v:>16} {:<8} {}{tail}", m.name, m.unit, m.samples);
    }
}

fn print_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = m.value.unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn report_errors(errors: &[String]) {
    for e in errors.iter().take(20) {
        println!("error: {e}");
    }
    if errors.len() > 20 {
        println!("error: … {} more", errors.len() - 20);
    }
}

fn run_untraced(args: &Args, root: &std::path::Path) -> Result<(), String> {
    let dir = ScratchDir::new(root, "run")?;
    let dep = live::deploy(
        &args.workload,
        args.seeds,
        &dir.0,
        &mut Tracer::new(Instant::now()),
        false,
    )?;
    let mut setups = vec![dep.setup_s];
    let (_, e2e) = measure(args, dep, None)?;
    drop(dir);
    // The remaining set-ups run after the window: a process that has
    // already built and dropped a large graph runs the window measurably
    // slower, so the window always gets the process's first deployment.
    let started = Instant::now();
    while setups.len() < SETUP_MIN || (started.elapsed() < SETUP_BUDGET && setups.len() < SETUP_MAX)
    {
        let dir = ScratchDir::new(root, &format!("setup{}", setups.len()))?;
        let dep = live::deploy(
            &args.workload,
            args.seeds,
            &dir.0,
            &mut Tracer::new(started),
            false,
        )?;
        setups.push(dep.setup_s);
        dep.stop();
    }
    let setup_n = setups.len();
    let metrics = vec![
        metric("setup_s", Some(median(setups)), "s", setup_n),
        metric(
            "throughput_ops_s",
            Some(e2e.throughput),
            "ops/s",
            e2e.completed,
        ),
        metric("read_p50_ms", e2e.read.p50, "ms", e2e.read.n),
        metric("read_p90_ms", e2e.read.p90, "ms", e2e.read.n),
        metric("stmt_p90_ms", e2e.all.p90, "ms", e2e.all.n),
        metric("peak_rss_mb", Some(e2e.peak_rss_mb), "MB", 1),
    ];
    let extra = [
        metric("write_p50_ms", e2e.write.p50, "ms", e2e.write.n),
        metric("write_p90_ms", e2e.write.p90, "ms", e2e.write.n),
        metric("view_notify_p50_ms", e2e.notify.p50, "ms", e2e.notify.n),
        metric("view_notify_p90_ms", e2e.notify.p90, "ms", e2e.notify.n),
        metric(
            "error_ratio",
            Some(e2e.failed as f64 / e2e.attempted.max(1) as f64),
            "ratio",
            e2e.attempted,
        ),
    ];
    header(args);
    print_table(&metrics);
    println!("also measured (not in the JSON line; n/a where the workload has no such operation):");
    print_table(&extra);
    report_errors(&e2e.errors);
    print_json(e2e.errors.is_empty(), e2e.attempted, e2e.failed, &metrics);
    Ok(())
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn summary_us(ns: &[u64]) -> Summary {
    Summary::of(&ns.iter().map(|&n| us(n)).collect::<Vec<_>>())
}

/// The untraced run, in a child process of its own so that it and the
/// traced window both run on their process's first deployment. Returns
/// its JSON line's `(throughput_ops_s, read_p50_ms, correct, attempted,
/// failed)`.
fn untraced_child(args: &Args) -> Result<(f64, f64, bool, usize, usize), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", args.workload.name, "--trace", "0"]);
    cmd.args(["--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &traced_window(args.seconds).to_string()]);
    if let Some(h) = args.holdout {
        cmd.args(["--holdout-seed", &h.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("untraced run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !last.starts_with('{') {
        return Err(format!("untraced run failed: {}", out.status));
    }
    let number = |key: &str| -> Result<f64, String> {
        let at = last.find(key).ok_or(format!("untraced run: no {key}"))? + key.len();
        last[at..]
            .trim_start_matches([':', ' ', '{', '"', 'v', 'a', 'l', 'u', 'e'])
            .split([',', '}'])
            .next()
            .and_then(|v| v.trim().parse().ok())
            .ok_or(format!("untraced run: bad {key}"))
    };
    Ok((
        number("\"throughput_ops_s\"")?,
        number("\"read_p50_ms\"")?,
        last.contains("\"correct\": true"),
        number("\"attempted\"")? as usize,
        number("\"failed\"")? as usize,
    ))
}

fn run_traced(args: &Args, root: &std::path::Path) -> Result<(), String> {
    let (untraced_tput, untraced_read_p50, untraced_ok, untraced_attempted, untraced_failed) =
        untraced_child(args)?;
    let origin = Instant::now();
    let w = &args.workload;
    let dir_t = ScratchDir::new(root, "traced")?;
    let mut setup_tr = Tracer::new(origin);
    let dep = live::deploy(w, args.seeds, &dir_t.0, &mut setup_tr, true)?;
    let snapshot = dep.snapshot.clone();
    let (win, traced) = measure(args, dep, Some(origin))?;
    drop(dir_t);
    let stmts = win.statements();
    let per_session: Vec<Vec<gen::Stmt>> = stmts
        .iter()
        .map(|(window, cleanup)| window.iter().chain(cleanup).cloned().collect())
        .collect();
    // Both sessions' statements in completion order (each session's own
    // order is kept, so every replayed write meets its precondition).
    let mut merged: Vec<(u64, &gen::Stmt)> = win
        .sessions
        .iter()
        .zip(&stmts)
        .flat_map(|(log, (window, cleanup))| {
            log.window
                .iter()
                .chain(&log.cleanup)
                .map(|s| s.end)
                .zip(window.iter().chain(cleanup))
        })
        .collect();
    merged.sort_by_key(|&(end, _)| end);
    let merged: Vec<&gen::Stmt> = merged.into_iter().map(|(_, st)| st).collect();
    let mut client_tr = Tracer::new(origin);
    for s in win.sessions {
        if let Some(t) = s.tracer {
            client_tr.absorb(t);
        }
    }

    let budget = Duration::from_secs(args.seconds.div_ceil(3));
    let dir_r = ScratchDir::new(root, "replay")?;
    let dep = live::deploy(w, args.seeds, &dir_r.0, &mut Tracer::new(origin), false)?;
    let store = layers::store_replay(&dep, &per_session, origin, budget);
    dep.stop();
    let storage = layers::storage_replay(w, &snapshot, &merged, &dir_r.0, origin, budget)?;
    drop(dir_r);

    let mut all = Tracer::new(origin);
    for t in [setup_tr, client_tr] {
        all.absorb(t);
    }
    let share = layers::check_clone_share(&storage.tracer);
    let store_self = layers::self_table(&store.tracer);
    let storage_self = layers::self_table(&storage.tracer);
    all.absorb(store.tracer);
    let read_stmt = summary_us(&all.durations("stmt.read"));
    all.absorb(storage.tracer);
    let spans_path = root.join(format!("spans-{}-seed{}.tsv", w.name, args.seeds.stream));
    all.write_tsv(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    let d = |layer: &str| summary_us(&all.durations(layer));
    let parse = d("parser.parse");
    let read_exec = d("core.read_exec");
    let snap = d("server.snapshot_acquire");
    let submit = d("server.submit_write");
    let integrity = d("graph.integrity_check");
    let clone = d("graph.snapshot_clone");
    let fsync = d("storage.fsync");
    let replica = d("replication.replica_apply");
    let ivm = d("ivm.maintain");
    let write_exec = d("core.write_exec");
    let wal_append = summary_us(&storage.wal_append);
    let secs = |layer: &str| all.durations(layer).first().map(|&n| n as f64 / 1e9);
    let wal_bytes = &storage.wal_bytes;
    let wire = match (traced.read.p50, read_stmt.p50) {
        (Some(client_ms), Some(inproc_us)) => Some(client_ms * 1e3 - inproc_us),
        _ => None,
    };
    let z = |v: Option<f64>| Some(v.unwrap_or(0.0));
    let ms = |v: Option<f64>| z(v.map(|x| x / 1e3));
    let miss_ratio = if store.snapshot_calls == 0 {
        0.0
    } else {
        store.snapshot_misses as f64 / store.snapshot_calls as f64
    };
    let overhead = (untraced_tput - traced.throughput) / untraced_tput.max(1e-9);
    let overhead_read = traced.read.p50.map(|t| (t - untraced_read_p50) * 1e3);
    let metrics = vec![
        metric("parser.parse_us", z(parse.p50), "us", parse.n),
        metric("core.read_exec_p50_us", z(read_exec.p50), "us", read_exec.n),
        metric("core.read_exec_p90_us", z(read_exec.p90), "us", read_exec.n),
        metric("core.write_exec_us", z(write_exec.p50), "us", write_exec.n),
        metric(
            "graph.integrity_check_ms",
            ms(integrity.p50),
            "ms",
            integrity.n,
        ),
        metric("graph.snapshot_clone_ms", ms(clone.p50), "ms", clone.n),
        metric("server.snapshot_acquire_p50_us", z(snap.p50), "us", snap.n),
        metric("server.snapshot_acquire_p90_us", z(snap.p90), "us", snap.n),
        metric(
            "server.snapshot_miss_ratio",
            Some(miss_ratio),
            "ratio",
            store.snapshot_calls,
        ),
        metric("server.submit_write_us", z(submit.p50), "us", submit.n),
        metric("server.wire_us", z(wire), "us", traced.read.n),
        metric(
            "server.busy_retries_per_1k",
            Some(traced.retries as f64 * 1e3 / traced.attempted.max(1) as f64),
            "count",
            traced.attempted,
        ),
        metric(
            "storage.wal_append_us",
            z(wal_append.p50),
            "us",
            wal_append.n,
        ),
        metric("storage.fsync_us", z(fsync.p50), "us", fsync.n),
        metric(
            "storage.wal_bytes_per_write",
            Some(wal_bytes.iter().sum::<u64>() as f64 / wal_bytes.len().max(1) as f64),
            "B",
            wal_bytes.len(),
        ),
        metric(
            "storage.snapshot_encode_s",
            z(secs("storage.snapshot_encode")),
            "s",
            1,
        ),
        metric("storage.recover_s", z(secs("storage.recover")), "s", 1),
        metric(
            "replication.replica_apply_us",
            z(replica.p50),
            "us",
            replica.n,
        ),
        metric(
            "replication.lag_units_max",
            Some(win.lag_units_max as f64),
            "count",
            1,
        ),
        metric("ivm.maintain_us", z(ivm.p50), "us", ivm.n),
        metric(
            "ivm.fallbacks",
            Some(storage.ivm_fallbacks as f64),
            "count",
            ivm.n,
        ),
        metric(
            "trace.overhead_throughput_ratio",
            Some(overhead),
            "ratio",
            traced.completed,
        ),
        metric(
            "trace.overhead_read_p50_us",
            z(overhead_read),
            "us",
            traced.read.n,
        ),
        metric(
            "trace.check_clone_self_share",
            Some(share),
            "ratio",
            integrity.n + clone.n,
        ),
    ];
    header(args);
    println!("per-layer metrics (0 where the workload makes no such call; samples = calls):");
    print_table(&metrics);
    println!(
        "self time by layer, ms (store replay, {} s budget per session):",
        budget.as_secs()
    );
    for (l, v) in store_self {
        println!("  {l:<34} {v:>12.3}");
    }
    println!("self time by layer, ms (storage replay):");
    for (l, v) in storage_self {
        println!("  {l:<34} {v:>12.3}");
    }
    println!(
        "untraced (child process) vs traced window, {} s each: {:.3} vs {:.3} ops/s; spans written to {}",
        traced_window(args.seconds),
        untraced_tput,
        traced.throughput,
        spans_path.display()
    );
    let mut errors = traced.errors;
    if !untraced_ok {
        errors.push("the untraced run reported an incorrect result".to_owned());
    }
    errors.extend(store.errors.iter().cloned());
    errors.extend(storage.errors.iter().cloned());
    if storage.ivm_fallbacks != 0 {
        errors.push(format!(
            "{} view fallbacks in the storage replay",
            storage.ivm_fallbacks
        ));
    }
    report_errors(&errors);
    let failed = untraced_failed + traced.failed + store.errors.len() + storage.errors.len();
    print_json(
        errors.is_empty(),
        untraced_attempted + traced.attempted,
        failed,
        &metrics,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = scratch_root();
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("wirebench: create {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    let out = if args.trace {
        run_traced(&args, &root)
    } else {
        run_untraced(&args, &root)
    };
    match out {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}

//! The measured path: preload a marketplace graph into an in-process
//! `cypher-serve`, drive it over the wire with closed-loop sessions, and
//! check every answer and the final graph.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cypher_core::{graph_to_cypher, Dialect, Engine, EngineBuilder, Table};
use cypher_graph::{PropertyGraph, Value};
use cypher_server::{serve, Client, HelloOptions, ServerConfig, ServerHandle};
use cypher_storage::{recover::SNAPSHOT_FILE, snapshot, DurableGraph, RealFs};

use crate::gen::{probe_view, Catalog, Check, Counters, SessionGen, Stmt, FLEET_VIEWS};
use crate::trace::Tracer;
use crate::workload::{seed_graph, Workload, SESSIONS};

/// Seeds of one run: the statement stream's, and the marketplace
/// generator's when a holdout run replaces it.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub stream: u64,
    pub graph: Option<u64>,
}

/// The WAL sequence the preload snapshot claims to cover. It must be at
/// least 1: a replica joining at sequence 0 then bootstraps from the
/// snapshot instead of replaying an empty backlog and diverging at the
/// first unit.
pub const PRELOAD_TXID: u64 = 1;

/// `Busy` refusals retried per statement before it counts as failed.
const BUSY_ATTEMPTS: u32 = 20;

/// Delta slots reserved per view feed (see [`SLOTS_PER_SECOND`]).
const FEED_SLOTS: usize = 100_000;

/// How long a replica, a view feed or a final check may take to settle.
const SETTLE: Duration = Duration::from_secs(30);

/// Collects the non-empty deltas of one live view: (epoch, arrival).
pub struct ViewFeed {
    pub events: Arc<Mutex<Vec<(u64, Instant)>>>,
    thread: Option<JoinHandle<()>>,
}

impl ViewFeed {
    fn count(&self) -> usize {
        self.events.lock().expect("view feed thread panicked").len()
    }
}

/// A preloaded primary (and replica and views, when the workload asks).
pub struct Deployment {
    pub primary: ServerHandle,
    pub replica: Option<ServerHandle>,
    pub probes: Vec<ViewFeed>,
    fleet: Vec<ViewFeed>,
    pub graph: PropertyGraph,
    pub catalog: Arc<Catalog>,
    /// The preload `snapshot.bin` bytes.
    pub snapshot: Vec<u8>,
    pub setup_s: f64,
}

impl Deployment {
    /// Stop the servers and wait for every thread this deployment started.
    pub fn stop(mut self) {
        if let Some(r) = self.replica.take() {
            r.stop();
        }
        self.primary.stop();
        for mut f in self.probes.drain(..).chain(self.fleet.drain(..)) {
            if let Some(t) = f.thread.take() {
                t.join().expect("view feed thread panicked");
            }
        }
    }
}

/// The engine a session gets from `ServerConfig::new` defaults.
pub fn session_engine(cfg: &ServerConfig) -> Engine {
    EngineBuilder::new(cfg.dialect)
        .limits(cfg.limits)
        .read_workers(cfg.read_workers)
        .morsel_size(cfg.morsel_size)
        .parallel_threshold(cfg.parallel_threshold)
        .build()
}

/// Write `bytes` as the `snapshot.bin` of a fresh store directory.
pub fn preload_dir(dir: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    snapshot::write_bytes(&*RealFs::arc(), bytes, &dir.join(SNAPSHOT_FILE))
        .map_err(|e| format!("preload {}: {e}", dir.display()))
}

/// Generate, encode and preload the graph, start the server(s), and
/// register the views: everything `setup_s` times. Setup spans go to
/// `tr`; `recover` additionally times `DurableGraph::open` on the
/// preloaded directory (the traced run's `storage.recover_s`).
pub fn deploy(
    w: &Workload,
    seeds: Seeds,
    dir: &Path,
    tr: &mut Tracer,
    recover: bool,
) -> Result<Deployment, String> {
    let views = if w.views {
        SESSIONS + FLEET_VIEWS.len()
    } else {
        0
    };
    let mut buffers: Vec<_> = (0..views)
        .map(|_| reserved(FEED_SLOTS, (0, Instant::now())))
        .collect();
    let t0 = Instant::now();
    let (graph, _) = tr.span("datagen.marketplace_graph", |_| seed_graph(w, seeds.graph));
    let (bytes, _) = tr.span("storage.snapshot_encode", |_| {
        snapshot::encode_bytes(&graph, PRELOAD_TXID)
    });
    let bytes = bytes.map_err(|e| format!("encode snapshot: {e}"))?;
    let primary_dir = dir.join("primary");
    preload_dir(&primary_dir, &bytes)?;
    if recover {
        let (opened, _) = tr.span("storage.recover", |_| DurableGraph::open(&primary_dir));
        drop(opened.map_err(|e| format!("recover preload: {e}"))?);
    }
    let mut cfg = ServerConfig::new(&primary_dir);
    cfg.sync_replicas = w.sync_replicas;
    let engine = session_engine(&cfg);
    let (primary, _) = tr.span("server.serve", |_| serve(cfg));
    let primary = primary.map_err(|e| format!("serve primary: {e}"))?;

    let replica = if w.sync_replicas > 0 {
        let mut rcfg = ServerConfig::new(dir.join("replica"));
        rcfg.replica_of = Some(primary.addr().to_string());
        let (replica, _) = tr.span("server.serve_replica", |_| serve(rcfg));
        let replica = replica.map_err(|e| format!("serve replica: {e}"))?;
        let caught_up = wait_until(|| {
            primary.store().stats().replicas.len() == 1
                && replica.store().commit_seq() >= PRELOAD_TXID
        });
        if !caught_up {
            replica.stop();
            primary.stop();
            return Err("replica did not attach and bootstrap".to_owned());
        }
        Some(replica)
    } else {
        None
    };

    let mut probes = Vec::new();
    let mut fleet = Vec::new();
    if w.views {
        let texts = (0..SESSIONS)
            .map(|s| probe_view(s, SESSIONS))
            .chain(FLEET_VIEWS.iter().map(|s| (*s).to_owned()));
        for (i, text) in texts.enumerate() {
            let sub = match primary.store().subscribe_view(text.clone(), engine.clone()) {
                Ok(Ok(sub)) if !sub.reg.fallback => sub,
                Ok(Ok(_)) => return Err(format!("view falls back to re-evaluation: {text}")),
                Ok(Err(e)) => return Err(format!("view {text}: {e}")),
                Err(b) => return Err(format!("view {text}: busy ({})", b.0)),
            };
            let events = Arc::new(Mutex::new(buffers.pop().unwrap_or_default()));
            let sink = Arc::clone(&events);
            let thread = std::thread::spawn(move || {
                for ev in sub.events {
                    if !ev.update.is_empty() {
                        sink.lock()
                            .expect("view feed lock")
                            .push((ev.epoch, Instant::now()));
                    }
                }
            });
            let feed = ViewFeed {
                events,
                thread: Some(thread),
            };
            if i < SESSIONS {
                probes.push(feed);
            } else {
                fleet.push(feed);
            }
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let catalog = Arc::new(Catalog::of(&graph));
    Ok(Deployment {
        primary,
        replica,
        probes,
        fleet,
        graph,
        catalog,
        snapshot: bytes,
        setup_s,
    })
}

fn wait_until(mut ok: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + SETTLE;
    while Instant::now() < deadline {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    ok()
}

/// One statement as the client saw it. Statement texts are not kept:
/// the stream is regenerated from the seed ([`Window::statements`]), so
/// the harness's own memory stays flat however fast the server runs.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub write: bool,
    pub probe: bool,
    pub failed: bool,
    /// Busy refusals retried before the outcome.
    pub retries: u32,
    /// Send and ack, in ns since the window's origin.
    pub start: u64,
    pub end: u64,
    /// The ack's `RunOutcome.epoch`.
    pub epoch: u64,
    /// Hash of the rendered answer, for the oracle comparison of
    /// read-only workloads (0 otherwise).
    pub answer: u64,
}

const NO_SAMPLE: Sample = Sample {
    write: false,
    probe: false,
    failed: false,
    retries: 0,
    start: 0,
    end: 0,
    epoch: 0,
    answer: 0,
};

impl Sample {
    pub fn ms(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e6
    }
}

/// Sample slots reserved (and touched) per session and window second
/// before the window starts, so peak RSS does not grow with throughput.
const SLOTS_PER_SECOND: usize = 4_000;

fn reserved<T: Clone>(n: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, fill);
    v.clear();
    v
}

/// Everything one session did: the measured window, then its cleanup.
pub struct SessionLog {
    pub window: Vec<Sample>,
    pub cleanup: Vec<Sample>,
    pub errors: Vec<String>,
    pub tracer: Option<Tracer>,
}

/// Does an answer meet its statement's check? (The oracle comparison of
/// [`Check::Oracle`] happens after the run; here it only needs rows.)
pub fn check_answer(
    check: &Check,
    columns: &[String],
    rows: &[Vec<Value>],
    counters: Counters,
) -> Result<(), String> {
    let ok = match check {
        Check::Name(name) => {
            rows.len() == 1 && rows[0].len() == 1 && rows[0][0] == Value::Str(name.clone())
        }
        Check::NonEmpty | Check::Oracle => !rows.is_empty(),
        Check::Stats(want) => counters == *want && *want != [0; 7],
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "check {check:?} failed: columns {columns:?}, {} rows, counters {counters:?}",
            rows.len()
        ))
    }
}

fn answer_hash(columns: &[String], rows: &[Vec<Value>]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::hash::DefaultHasher::new();
    format!("{columns:?}{rows:?}").hash(&mut h);
    h.finish()
}

fn run_checked(
    client: &mut Client,
    stmt: &Stmt,
    origin: Instant,
    errors: &mut Vec<String>,
) -> Sample {
    let start = origin.elapsed().as_nanos() as u64;
    let mut retries = 0;
    let outcome = loop {
        match client.run(&stmt.text) {
            Err(e) if e.is_busy() && retries + 1 < BUSY_ATTEMPTS => {
                retries += 1;
                std::thread::sleep(Duration::from_millis(u64::from(retries)));
            }
            other => break other,
        }
    };
    let end = origin.elapsed().as_nanos() as u64;
    let (error, epoch, answer) = match outcome {
        Ok(out) => {
            let err = check_answer(&stmt.check, &out.columns, &out.rows, out.stats).err();
            let answer = if stmt.check == Check::Oracle {
                answer_hash(&out.columns, &out.rows)
            } else {
                0
            };
            (err, out.epoch, answer)
        }
        Err(e) => (Some(format!("statement failed: {e}")), 0, 0),
    };
    if let Some(e) = &error {
        errors.push(format!("{}: {e}", stmt.text));
    }
    Sample {
        write: stmt.write,
        probe: stmt.probe,
        failed: error.is_some(),
        retries,
        start,
        end,
        epoch,
        answer,
    }
}

/// The outcome of one measured window.
pub struct Window {
    pub sessions: Vec<SessionLog>,
    /// Origin of every sample's times.
    pub origin: Instant,
    pub start: u64,
    /// Last completion of a statement started inside the window.
    pub end: u64,
    /// Max replica lag (units sent minus durably acked) seen while the
    /// window ran; sampled only when asked for.
    pub lag_units_max: u64,
    stream: (Workload, Seeds, Arc<Catalog>),
}

impl Window {
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.sessions.iter().flat_map(|s| s.window.iter())
    }

    /// Regenerate each session's statements: the window's, then its
    /// cleanup's, index-aligned with the samples.
    pub fn statements(&self) -> Vec<(Vec<Stmt>, Vec<Stmt>)> {
        let (w, seeds, catalog) = &self.stream;
        self.sessions
            .iter()
            .enumerate()
            .map(|(s, log)| {
                let mut gen = SessionGen::new(w, seeds.stream, s, SESSIONS, Arc::clone(catalog));
                let window = (0..log.window.len()).map(|_| gen.next_stmt()).collect();
                (window, gen.cleanup())
            })
            .collect()
    }
}

/// Run `SESSIONS` closed-loop sessions over the wire for `seconds`, then
/// each session's cleanup. With `trace`, each client call gets a span.
pub fn run_window(
    dep: &Deployment,
    w: &Workload,
    seeds: Seeds,
    seconds: u64,
    trace: Option<Instant>,
    sample_lag: bool,
) -> Result<Window, String> {
    let addr = dep.primary.addr().to_string();
    let origin = trace.unwrap_or_else(Instant::now);
    let mut clients = Vec::new();
    for _ in 0..SESSIONS {
        clients.push(
            Client::connect(&addr, &HelloOptions::server_defaults())
                .map_err(|e| format!("connect: {e}"))?,
        );
    }
    let slots = SLOTS_PER_SECOND * seconds as usize;
    let barrier = Arc::new(Barrier::new(SESSIONS + 1));
    let stop_lag = Arc::new(AtomicBool::new(false));
    let lag_max = Arc::new(AtomicU64::new(0));
    let threads: Vec<JoinHandle<SessionLog>> = clients
        .into_iter()
        .enumerate()
        .map(|(s, mut client)| {
            let mut gen = SessionGen::new(w, seeds.stream, s, SESSIONS, Arc::clone(&dep.catalog));
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut tracer = trace.map(Tracer::new);
                let mut window = reserved(slots, NO_SAMPLE);
                let mut errors = Vec::new();
                barrier.wait();
                let deadline = Instant::now() + Duration::from_secs(seconds);
                while Instant::now() < deadline {
                    let stmt = gen.next_stmt();
                    let layer = if stmt.write {
                        "client.write"
                    } else {
                        "client.read"
                    };
                    let sample = match tracer.as_mut() {
                        Some(t) => {
                            t.span(layer, |_| {
                                run_checked(&mut client, &stmt, origin, &mut errors)
                            })
                            .0
                        }
                        None => run_checked(&mut client, &stmt, origin, &mut errors),
                    };
                    window.push(sample);
                }
                let cleanup = gen
                    .cleanup()
                    .iter()
                    .map(|st| run_checked(&mut client, st, origin, &mut errors))
                    .collect();
                let _ = client.goodbye();
                SessionLog {
                    window,
                    cleanup,
                    errors,
                    tracer,
                }
            })
        })
        .collect();
    let sampler = sample_lag.then(|| {
        let store = Arc::clone(dep.primary.store());
        let (stop, max) = (Arc::clone(&stop_lag), Arc::clone(&lag_max));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                for p in store.stats().replicas {
                    max.fetch_max(p.sent.saturating_sub(p.acked), Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    });
    barrier.wait();
    let start = origin.elapsed().as_nanos() as u64;
    let mut sessions = Vec::new();
    for t in threads {
        sessions.push(t.join().map_err(|_| "session thread panicked".to_owned())?);
    }
    stop_lag.store(true, Ordering::Release);
    if let Some(t) = sampler {
        t.join().map_err(|_| "lag sampler panicked".to_owned())?;
    }
    let end = sessions
        .iter()
        .filter_map(|s| s.window.last().map(|x| x.end))
        .max()
        .unwrap_or(start);
    Ok(Window {
        sessions,
        origin,
        start,
        end,
        lag_units_max: lag_max.load(Ordering::Relaxed),
        stream: (w.clone(), seeds, Arc::clone(&dep.catalog)),
    })
}

/// View-notification latencies (ms): the k-th probe write a session had
/// acknowledged pairs with the k-th delta of that session's probe view.
/// Only that session's probe writes move the view, one delta each, so the
/// pairing is exact; each delta's epoch is checked against its ack's
/// `RunOutcome.epoch`, which can only be the same or later. A delta that
/// lands before the client read its ack counts as 0.
pub fn view_notify_ms(dep: &Deployment, win: &Window) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for (s, log) in win.sessions.iter().enumerate() {
        let Some(feed) = dep.probes.get(s) else {
            continue;
        };
        let acked = |x: &&Sample| x.probe && !x.failed;
        let expected = log.window.iter().chain(&log.cleanup).filter(acked).count();
        wait_until(|| feed.count() >= expected);
        let events = feed.events.lock().expect("view feed lock");
        if events.len() != expected {
            return Err(format!(
                "probe view {s}: {} deltas for {expected} probe writes",
                events.len()
            ));
        }
        for (ack, (epoch, at)) in log.window.iter().filter(acked).zip(events.iter()) {
            if *epoch > ack.epoch {
                return Err(format!(
                    "probe view {s}: delta epoch {epoch} after ack epoch {}",
                    ack.epoch
                ));
            }
            let acked_at = win.origin + Duration::from_nanos(ack.end);
            out.push(at.saturating_duration_since(acked_at).as_secs_f64() * 1e3);
        }
    }
    Ok(out)
}

/// Final-state checks. Read-only workloads: every answer equals a serial
/// in-process `run_read` on the seed graph. Write workloads: the primary's
/// graph equals the seed graph with the commit log replayed in commit
/// order (which also restores its node and relationship counts), the
/// replica's dump equals the primary's, and no view fell back.
pub fn final_checks(dep: &Deployment, win: &Window) -> Vec<String> {
    let mut errors = Vec::new();
    let reads_only = win.samples().all(|s| !s.write);
    if reads_only {
        errors.extend(oracle_mismatches(&dep.graph, win));
        return errors;
    }
    let addr = dep.primary.addr().to_string();
    let result = (|| -> Result<(), String> {
        let mut client = Client::connect(&addr, &HelloOptions::server_defaults())
            .map_err(|e| format!("connect: {e}"))?;
        let log = client
            .commit_log()
            .map_err(|e| format!("commit log: {e}"))?;
        let replayed = replay_commit_log(&dep.graph, &log)?;
        if (replayed.node_count(), replayed.rel_count())
            != (dep.graph.node_count(), dep.graph.rel_count())
        {
            return Err(format!(
                "write mix is not size-neutral: {}/{} nodes/rels after replay, seed has {}/{}",
                replayed.node_count(),
                replayed.rel_count(),
                dep.graph.node_count(),
                dep.graph.rel_count()
            ));
        }
        let dump = client.dump_graph().map_err(|e| format!("dump: {e}"))?;
        if dump != graph_to_cypher(&replayed) {
            return Err(format!(
                "primary graph differs from the seed graph + {} replayed commits",
                log.len()
            ));
        }
        if let Some(replica) = &dep.replica {
            let head = dep.primary.store().commit_seq();
            if !wait_until(|| replica.store().commit_seq() >= head) {
                return Err("replica did not catch up".to_owned());
            }
            let mut rc =
                Client::connect(replica.addr().to_string(), &HelloOptions::server_defaults())
                    .map_err(|e| format!("connect replica: {e}"))?;
            let rdump = rc.dump_graph().map_err(|e| format!("replica dump: {e}"))?;
            let _ = rc.goodbye();
            if rdump != dump {
                return Err("replica dump differs from the primary's".to_owned());
            }
        }
        for v in dep.primary.store().stats().views {
            if v.fallbacks != 0 || !v.incremental || v.broken {
                return Err(format!(
                    "view {} did not maintain incrementally ({} fallbacks)",
                    v.query, v.fallbacks
                ));
            }
        }
        let _ = client.goodbye();
        Ok(())
    })();
    errors.extend(result.err());
    errors
}

/// Apply each committed statement's clauses to a copy of the seed graph.
/// The clause-level semantic function skips the per-statement commit
/// check; one integrity check at the end covers the final state.
pub fn replay_commit_log(seed: &PropertyGraph, log: &[String]) -> Result<PropertyGraph, String> {
    let mut g = seed.clone();
    let engine = Engine::builder(Dialect::Revised).build();
    for text in log {
        let q = cypher_parser::parse(text).map_err(|e| format!("replay parse {text}: {e}"))?;
        engine
            .apply_clauses(&mut g, Table::unit(), &q.first.clauses)
            .map_err(|e| format!("replay {text}: {e}"))?;
    }
    g.integrity_check()
        .map_err(|e| format!("replayed graph fails its integrity check: {e}"))?;
    Ok(g)
}

fn oracle_mismatches(graph: &PropertyGraph, win: &Window) -> Vec<String> {
    let serial = EngineBuilder::new(Dialect::Revised).read_workers(1).build();
    let mut cache: HashMap<String, Result<u64, String>> = HashMap::new();
    let mut errors = Vec::new();
    for (log, (stmts, _)) in win.sessions.iter().zip(win.statements()) {
        for (sample, stmt) in log.window.iter().zip(&stmts) {
            if sample.failed || stmt.check != Check::Oracle {
                continue;
            }
            let want = cache.entry(stmt.text.clone()).or_insert_with(|| {
                serial
                    .run_read(graph, &stmt.text)
                    .map(|r| answer_hash(&r.columns, &r.rows))
                    .map_err(|e| e.to_string())
            });
            match want {
                Ok(want) if *want == sample.answer => {}
                Ok(_) => errors.push(format!(
                    "answer differs from the serial oracle: {}",
                    stmt.text
                )),
                Err(e) => errors.push(format!("oracle failed on {}: {e}", stmt.text)),
            }
        }
    }
    errors
}

/// A scratch directory under the build directory, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(root: &Path, tag: &str) -> Result<ScratchDir, String> {
        let dir = root.join(format!("run-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

//! The traced replays behind the per-layer metrics.
//!
//! Spans are recorded from this crate, around calls into each layer's
//! public functions, replaying the statements the traced wire window
//! issued:
//!
//! * [`store_replay`] — one thread per session against a freshly
//!   preloaded `SharedStore` (the server's state object, no wire):
//!   `cypher_parser::parse`, `SharedStore::snapshot`,
//!   `Engine::run_read_query` on the published snapshot, and
//!   `SharedStore::submit_write`.
//! * [`storage_replay`] — serially, in completion order, against a
//!   `DurableGraph` opened on the same preload: `Engine::run_query`
//!   inside `DurableGraph::apply_buffered_logged`, `DurableGraph::flush`,
//!   `PropertyGraph::clone` (the reader snapshot publish) before a read
//!   that follows a write, `ViewManager::apply_statement` for the
//!   workload's views, and `SharedStore::replicate` on a replica-role
//!   store fed the committed units in order.
//!
//! `Engine::run_query` runs a statement inside a `Transaction` and
//! checks integrity at commit, both out of reach of a span from outside.
//! The storage replay therefore runs the same steps through their public
//! functions: `Transaction::begin`, `Engine::apply_clauses` (the clause
//! loop `run_query` runs), `PropertyGraph::integrity_check`, then
//! `Transaction::commit_unchecked` (the commit minus its check).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cypher_core::{Dialect, Engine, Table};
use cypher_graph::{PropertyGraph, Transaction};
use cypher_ivm::{Delta, ViewManager};
use cypher_parser::ast::Query;
use cypher_replication::{Role, ShippedUnit};
use cypher_server::store::dialect_byte;
use cypher_server::{ReplicaApply, ServerConfig, SharedStore, StoreOptions, WriteOutcome};
use cypher_storage::DurableGraph;

use crate::gen::{probe_view, Check, Stmt, FLEET_VIEWS};
use crate::live::{check_answer, preload_dir, session_engine, Deployment, PRELOAD_TXID};
use crate::trace::Tracer;
use crate::workload::{Workload, SESSIONS};

fn counters(s: &cypher_core::UpdateStats) -> [u64; 7] {
    [
        s.nodes_created,
        s.rels_created,
        s.nodes_deleted,
        s.rels_deleted,
        s.props_set,
        s.labels_added,
        s.labels_removed,
    ]
    .map(|c| c as u64)
}

/// Outcome of the store replay.
pub struct StoreReplay {
    pub tracer: Tracer,
    pub snapshot_calls: usize,
    pub snapshot_misses: usize,
    pub errors: Vec<String>,
}

/// Replay each session's statements (window, then cleanup) on its own
/// thread against `dep`'s primary store, until `budget` runs out.
pub fn store_replay(
    dep: &Deployment,
    per_session: &[Vec<Stmt>],
    origin: Instant,
    budget: Duration,
) -> StoreReplay {
    let store = Arc::clone(dep.primary.store());
    let engine = session_engine(&ServerConfig::new("unused"));
    // The Arc most recently handed to any session: a different one is a
    // miss (the worker published a fresh clone for this call).
    let last = Arc::new(Mutex::new(0usize));
    let deadline = Instant::now() + budget;
    let results: Vec<(Tracer, usize, usize, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_session
            .iter()
            .map(|stmts| {
                let (store, engine, last) = (Arc::clone(&store), engine.clone(), Arc::clone(&last));
                scope.spawn(move || {
                    let mut tr = Tracer::new(origin);
                    let (mut calls, mut misses, mut errors) = (0, 0, Vec::new());
                    for st in stmts {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let root = if st.write { "stmt.write" } else { "stmt.read" };
                        let (res, _) = tr.span(root, |tr| -> Result<(), String> {
                            let (q, _) =
                                tr.span("parser.parse", |_| cypher_parser::parse(&st.text));
                            let q = q.map_err(|e| e.to_string())?;
                            if st.write {
                                let (out, _) = tr.span("server.submit_write", |_| {
                                    store.submit_write(st.text.clone(), engine.clone())
                                });
                                match out {
                                    Ok(WriteOutcome::Ok(r)) => check_answer(
                                        &st.check,
                                        &r.columns,
                                        &r.rows,
                                        counters(&r.stats),
                                    ),
                                    Ok(other) => Err(format!("write refused: {other:?}")),
                                    Err(b) => Err(format!("busy: {}", b.0)),
                                }
                            } else {
                                let (snap, _) =
                                    tr.span("server.snapshot_acquire", |_| store.snapshot());
                                let snap = snap.ok_or("snapshot refused: busy")?;
                                calls += 1;
                                let ptr = Arc::as_ptr(&snap) as usize;
                                let mut seen = last.lock().expect("miss tracker lock");
                                if *seen != ptr {
                                    misses += 1;
                                    *seen = ptr;
                                }
                                drop(seen);
                                let (r, _) =
                                    tr.span("core.read_exec", |_| engine.run_read_query(&snap, &q));
                                let r = r.map_err(|e| e.to_string())?;
                                // Oracle answers were checked on the wire run.
                                let check = match &st.check {
                                    Check::Oracle => &Check::NonEmpty,
                                    c => c,
                                };
                                check_answer(check, &r.columns, &r.rows, counters(&r.stats))
                            }
                        });
                        if let Err(e) = res {
                            errors.push(format!("store replay: {}: {e}", st.text));
                        }
                    }
                    (tr, calls, misses, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("store replay thread panicked"))
            .collect()
    });
    let mut out = StoreReplay {
        tracer: Tracer::new(origin),
        snapshot_calls: 0,
        snapshot_misses: 0,
        errors: Vec::new(),
    };
    for (tr, calls, misses, errors) in results {
        out.tracer.absorb(tr);
        out.snapshot_calls += calls;
        out.snapshot_misses += misses;
        out.errors.extend(errors);
    }
    out
}

/// Outcome of the storage replay.
pub struct StorageReplay {
    pub tracer: Tracer,
    /// `pending_bytes` growth of each logged write: exact WAL bytes.
    pub wal_bytes: Vec<u64>,
    /// Per write: `apply_buffered_logged` minus the closure (ns).
    pub wal_append: Vec<u64>,
    pub ivm_fallbacks: u64,
    pub errors: Vec<String>,
}

/// Replay `stmts` serially through the storage, core, graph and IVM
/// layers (and the replica apply path when the workload has a replica),
/// until `budget` runs out.
pub fn storage_replay(
    w: &Workload,
    snapshot: &[u8],
    stmts: &[&Stmt],
    dir: &std::path::Path,
    origin: Instant,
    budget: Duration,
) -> Result<StorageReplay, String> {
    let primary_dir = dir.join("layers");
    preload_dir(&primary_dir, snapshot)?;
    let mut durable = DurableGraph::open(&primary_dir).map_err(|e| format!("open: {e}"))?;
    let engine = session_engine(&ServerConfig::new("unused"));
    let dialect = dialect_byte(Dialect::Revised);
    let mut views = if w.views {
        let mut mgr = ViewManager::new(durable.graph(), PRELOAD_TXID);
        let texts = (0..SESSIONS)
            .map(|s| probe_view(s, SESSIONS))
            .chain(FLEET_VIEWS.iter().map(|s| (*s).to_owned()));
        for text in texts {
            mgr.register(&text, &engine)
                .map_err(|e| format!("register view {text}: {e}"))?;
        }
        Some(mgr)
    } else {
        None
    };
    let mut out = StorageReplay {
        tracer: Tracer::new(origin),
        wal_bytes: Vec::new(),
        wal_append: Vec::new(),
        ivm_fallbacks: 0,
        errors: Vec::new(),
    };
    let mut units = Vec::new();
    let deadline = Instant::now() + budget;
    // A reader's first snapshot after any commit is a fresh clone.
    let mut stale = true;
    for &st in stmts {
        if Instant::now() >= deadline {
            break;
        }
        let tr = &mut out.tracer;
        if !st.write {
            if stale {
                let (clone, _) = tr.span("graph.snapshot_clone", |_| durable.graph().clone());
                drop(clone);
                stale = false;
            }
            continue;
        }
        let before = durable.pending_bytes();
        let (res, _) = tr.span("stmt.write", |tr| -> Result<(u64, u64, u64), String> {
            let (q, _) = tr.span("parser.parse", |_| cypher_parser::parse(&st.text));
            let q = q.map_err(|e| e.to_string())?;
            let (applied, apply_idx) = tr.span("storage.apply_buffered_logged", |tr| {
                durable.apply_buffered_logged(Some((dialect, &st.text)), |g| {
                    let (r, idx) =
                        tr.span("core.run_query", |tr| run_query_steps(tr, &engine, g, &q));
                    r.map(|()| idx)
                })
            });
            let (r, logged) = applied.map_err(|e| format!("apply: {e}"))?;
            let run_query_idx = r?;
            let seq = logged.ok_or("the write changed nothing")?;
            let append = tr
                .get(apply_idx)
                .dur()
                .saturating_sub(tr.get(run_query_idx).dur());
            let bytes = durable.pending_bytes().saturating_sub(before);
            let (flushed, _) = tr.span("storage.fsync", |_| durable.flush());
            flushed.map_err(|e| format!("flush: {e}"))?;
            if let Some(mgr) = views.as_mut() {
                let ops = durable.take_last_delta();
                let deltas = Delta::from_ops(&ops, durable.graph());
                let (applied, _) = tr.span("ivm.maintain", |_| mgr.apply_statement(seq, &deltas));
                applied.map_err(|e| format!("view maintenance: {e}"))?;
            }
            Ok((seq, append, bytes))
        });
        stale = true;
        match res {
            Ok((seq, append, bytes)) => {
                out.wal_append.push(append);
                out.wal_bytes.push(bytes);
                units.push(ShippedUnit {
                    seq,
                    dialect,
                    text: st.text.clone(),
                });
            }
            Err(e) => out.errors.push(format!("storage replay {}: {e}", st.text)),
        }
    }
    if let Some(mgr) = &views {
        out.ivm_fallbacks = mgr.stats().iter().map(|v| v.fallbacks).sum();
    }
    drop(durable);
    if w.sync_replicas > 0 {
        replica_replay(snapshot, &units, dir, &mut out)?;
    }
    Ok(out)
}

/// `Engine::run_query`'s steps, each in its own span.
fn run_query_steps(
    tr: &mut Tracer,
    engine: &Engine,
    g: &mut PropertyGraph,
    q: &Query,
) -> Result<(), String> {
    let mut tx = Transaction::begin(g);
    let (table, _) = tr.span("core.write_exec", |_| {
        engine.apply_clauses(&mut tx, Table::unit(), &q.first.clauses)
    });
    if let Err(e) = table {
        tx.rollback();
        return Err(e.to_string());
    }
    let (checked, _) = tr.span("graph.integrity_check", |_| tx.integrity_check());
    if let Err(e) = checked {
        tx.rollback();
        return Err(format!("integrity check: {e}"));
    }
    tx.commit_unchecked();
    Ok(())
}

/// Feed the committed units, in order, to a replica-role store preloaded
/// with the same snapshot.
fn replica_replay(
    snapshot: &[u8],
    units: &[ShippedUnit],
    dir: &std::path::Path,
    out: &mut StorageReplay,
) -> Result<(), String> {
    let replica_dir = dir.join("layers-replica");
    preload_dir(&replica_dir, snapshot)?;
    let durable = DurableGraph::open(&replica_dir).map_err(|e| format!("open replica: {e}"))?;
    let store = SharedStore::start_with(
        durable,
        StoreOptions {
            role: Role::Replica {
                primary: "127.0.0.1:9".to_owned(),
            },
            ..StoreOptions::default()
        },
    );
    for unit in units {
        let (applied, _) = out.tracer.span("replication.replica_apply", |_| {
            store.replicate(unit.clone())
        });
        match applied {
            Ok(ReplicaApply::Applied) => {}
            other => out
                .errors
                .push(format!("replica apply of unit {}: {other:?}", unit.seq)),
        }
    }
    store.shutdown();
    Ok(())
}

/// `graph.snapshot_clone` and `graph.integrity_check` self time as a
/// share of the self time on the write and read-tail paths; 0 on a
/// workload without writes.
pub fn check_clone_share(tr: &Tracer) -> f64 {
    let by = tr.self_time_by_layer();
    let get = |l: &str| by.get(l).copied().unwrap_or(0) as f64;
    let write_path: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.layer == "stmt.write")
        .map(|s| s.dur() as f64)
        .sum();
    if write_path == 0.0 {
        return 0.0;
    }
    (get("graph.integrity_check") + get("graph.snapshot_clone"))
        / (write_path + get("graph.snapshot_clone"))
}

/// Self time per layer, for the report.
pub fn self_table(tr: &Tracer) -> Vec<(&'static str, f64)> {
    tr.self_time_by_layer()
        .into_iter()
        .map(|(l, ns)| (l, ns as f64 / 1e6))
        .collect()
}

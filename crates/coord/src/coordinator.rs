//! The wire-served coordinator: a [`RouteExt`] that mounts the
//! [`LeaseRepository`] contract on the data server's HTTP listener
//! (`hdc serve --coordinate`), with optional checkpoint persistence and
//! cross-restart dedup.
//!
//! # Wire protocol
//!
//! JSON bodies on every endpoint and in both directions; [`crate::protocol`]
//! is the one module that encodes and decodes them. Wherever a snapshot
//! travels it is an `hdc-crawl-checkpoint` document (the established
//! on-disk format) holding the full plan and exactly one shard, so each
//! message re-validates the plan fingerprint for free:
//!
//! | request | body | response |
//! |---|---|---|
//! | `GET /plan` | — | `{"format":"hdc-coord","version":2,"ttl_ms":T,"done":D,"plan":[sig,…]}` |
//! | `POST /lease` | `{"worker":name}` | `{"grant":{"index":I,"lease":L,"ttl_ms":T}}` (+ `"partial":checkpoint` when salvaging), `{"wait":ms}`, or `{"drained":true}` |
//! | `POST /heartbeat` | `{"index":I,"lease":L}` (+ `"checkpoint":` a partial snapshot) | `{"held":bool}` |
//! | `POST /complete` | `{"index":I,"lease":L,"checkpoint":…}` (a complete snapshot) | `{"new":n}` or `{"lost":true}` |
//! | `GET /checkpoint` | — | the accumulated checkpoint |
//!
//! A refused request is answered `{"error":msg}`: 400 for a malformed
//! body (bad JSON, an index outside the plan, a value outside `u64`, a
//! heartbeat frontier outside the shard's `1..=resume_points()`, a
//! replayed completion), 409 `mismatch: …` for a snapshot of another
//! plan, 500 when the lease state itself fails. Every answer is
//! `application/json`.
//!
//! The coordinator never issues data queries: leases and heartbeats are
//! pure control traffic, so a wire-leased fleet's charged query cost is
//! exactly the solo crawl's.

use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hdc_core::{CancelToken, CrawlCheckpoint, CrawlRepository, JsonFileRepository};
use hdc_net::http::{Request, Response};
use hdc_net::RouteExt;

use crate::bloom::{DedupStats, TupleDedup};
use crate::lease::{LeaseDecision, LeaseRepository, MemoryLeaseRepository};
use crate::protocol::{self, Rejection};

/// How a coordinator came up relative to its persisted checkpoint.
#[derive(Clone, Debug)]
pub enum Restore {
    /// No checkpoint file (or persistence off): fresh plan.
    Fresh,
    /// Checkpoint absorbed: this many shards were already complete.
    Resumed {
        /// Complete shards restored from disk.
        complete: usize,
    },
    /// The checkpoint belongs to a different plan. The fleet starts
    /// fresh and **persistence is disabled** so the foreign checkpoint
    /// file is preserved; the message carries the typed
    /// [`hdc_core::RepositoryError::PlanMismatch`] remediation text.
    Mismatch {
        /// The plan-mismatch explanation for the operator.
        message: String,
    },
}

/// Configuration for [`Coordinator::new`].
pub struct CoordinatorConfig {
    /// Lease TTL: how long a worker may go between heartbeats.
    pub ttl: Duration,
    /// Checkpoint file for crash-restart persistence (the dedup sidecar
    /// lives at the same path + `.seen`).
    pub checkpoint: Option<PathBuf>,
    /// Cross-restart tuple dedup, if any.
    pub dedup: Option<TupleDedup>,
    /// Log lease traffic to stderr.
    pub verbose: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            ttl: Duration::from_secs(30),
            checkpoint: None,
            dedup: None,
            verbose: false,
        }
    }
}

/// Fleet summary for the operator once the plan drains.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// Tuples across all complete shards (bag cardinality).
    pub tuples: u64,
    /// Total charged queries across all complete shards.
    pub queries: u64,
    /// Complete / total shard counts.
    pub shards: (usize, usize),
    /// Dedup tallies (zeros when dedup is off).
    pub dedup: DedupStats,
    /// Leases that expired and were reclaimed.
    pub expired_leases: u64,
    /// Grants that carried a salvaged partial snapshot.
    pub salvaged_grants: u64,
    /// First persistence failure, if any (the crawl itself is
    /// unaffected; only resumability degraded).
    pub persist_error: Option<String>,
}

/// Wire-serving face of a [`MemoryLeaseRepository`]: translate HTTP
/// requests into lease verbs, persist after every state change, and
/// trip a [`CancelToken`] when the plan drains so `hdc serve
/// --coordinate` can shut itself down.
pub struct Coordinator {
    repo: MemoryLeaseRepository,
    /// The plan's signatures, fixed at construction.
    plan: Vec<String>,
    persist: Mutex<Option<JsonFileRepository>>,
    seen_path: Option<PathBuf>,
    persist_error: Mutex<Option<String>>,
    drained: Arc<CancelToken>,
    verbose: bool,
}

impl Coordinator {
    /// Builds a coordinator over `plan` (shard signatures in plan
    /// order). When `cfg.checkpoint` names an existing compatible
    /// checkpoint, completed shards and salvageable partials are
    /// restored (and the `.seen` dedup sidecar reloaded); a checkpoint
    /// for a *different* plan yields [`Restore::Mismatch`] — fleet
    /// proceeds fresh, persistence disabled, nothing aborted.
    pub fn new(plan: Vec<String>, cfg: CoordinatorConfig) -> io::Result<(Self, Restore)> {
        let mut dedup = cfg.dedup;
        let seen_path = cfg
            .checkpoint
            .as_ref()
            .map(|p| PathBuf::from(format!("{}.seen", p.display())));
        if let (Some(path), Some(_)) = (&seen_path, &dedup) {
            match std::fs::read_to_string(path) {
                Ok(text) => dedup = Some(TupleDedup::from_text(&text)?),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        let mut repo = MemoryLeaseRepository::new(plan.clone(), cfg.ttl);
        if let Some(d) = dedup {
            repo = repo.with_dedup(d);
        }
        let mut restore = Restore::Fresh;
        let mut persist = None;
        if let Some(path) = cfg.checkpoint {
            let mut file_repo = JsonFileRepository::new(&path);
            match file_repo.load()? {
                Some(mut cp) => {
                    // A partial no peer can resume from would poison the
                    // salvage slot (the furthest frontier is kept).
                    cp.shards.retain(|s| {
                        s.frontier
                            .is_none_or(|f| protocol::frontier_in_range(&plan, s.index, f))
                    });
                    match repo.store(&cp) {
                        Ok(()) => {
                            restore = Restore::Resumed {
                                complete: repo.progress().0,
                            };
                            persist = Some(file_repo);
                        }
                        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                            restore = Restore::Mismatch {
                                message: e.to_string(),
                            };
                            // Leave `persist` None: never overwrite a
                            // checkpoint that belongs to another plan.
                        }
                        Err(e) => return Err(e),
                    }
                }
                None => persist = Some(file_repo),
            }
        }
        let coordinator = Coordinator {
            repo,
            plan,
            persist: Mutex::new(persist),
            seen_path,
            persist_error: Mutex::new(None),
            drained: Arc::new(CancelToken::new()),
            verbose: cfg.verbose,
        };
        // A checkpoint can restore the plan already fully complete; no
        // `complete()` will ever arrive, so trip the token now or the
        // serving process would wait forever.
        if coordinator.repo.is_drained() {
            coordinator.drained.cancel();
        }
        Ok((coordinator, restore))
    }

    /// The shared lease repository — hand clones to in-process workers.
    pub fn repo(&self) -> MemoryLeaseRepository {
        self.repo.clone()
    }

    /// Token tripped when the last shard completes; `hdc serve
    /// --coordinate` passes it to the accept loop so the process drains
    /// itself.
    pub fn drained_token(&self) -> Arc<CancelToken> {
        Arc::clone(&self.drained)
    }

    /// Whether every shard has completed.
    pub fn is_drained(&self) -> bool {
        self.repo.is_drained()
    }

    /// The merged bag in plan order plus summary counters — for the
    /// operator's final verification line.
    pub fn outcome(&self) -> FleetOutcome {
        let cp = self.repo.checkpoint();
        let (complete, total) = self.repo.progress();
        let (dedup, expired, salvaged) = self.repo.fleet_stats();
        FleetOutcome {
            tuples: cp
                .shards
                .iter()
                .filter(|s| s.is_complete())
                .map(|s| s.tuples.len() as u64)
                .sum(),
            queries: cp
                .shards
                .iter()
                .filter(|s| s.is_complete())
                .map(|s| s.queries)
                .sum(),
            shards: (complete, total),
            dedup,
            expired_leases: expired,
            salvaged_grants: salvaged,
            persist_error: self.persist_error.lock().expect("persist error lock").clone(),
        }
    }

    /// The accumulated checkpoint (complete shards + best partials).
    pub fn checkpoint(&self) -> CrawlCheckpoint {
        self.repo.checkpoint()
    }

    /// Writes checkpoint + dedup sidecar. Failures are recorded (first
    /// one wins) and surfaced via [`Coordinator::outcome`] instead of
    /// failing the in-flight request: the crawl is correct either way,
    /// only crash-resumability degrades — same policy as the solo
    /// checkpointed crawl.
    fn persist(&self) {
        let result = self.try_persist();
        if let Err(e) = result {
            let mut slot = self.persist_error.lock().expect("persist error lock");
            if slot.is_none() {
                *slot = Some(e.to_string());
            }
        }
    }

    fn try_persist(&self) -> io::Result<()> {
        let mut guard = self.persist.lock().expect("persist lock");
        let Some(file_repo) = guard.as_mut() else {
            return Ok(());
        };
        file_repo.store(&self.repo.checkpoint())?;
        if let (Some(path), Some(text)) = (&self.seen_path, self.repo.dedup_text()) {
            let tmp = path.with_extension("seen.tmp");
            std::fs::write(&tmp, text)?;
            std::fs::rename(&tmp, path)?;
        }
        Ok(())
    }

    fn log(&self, line: std::fmt::Arguments<'_>) {
        if self.verbose {
            eprintln!("coord: {line}");
        }
    }

    fn lease_response(&self, req: &Request) -> Response {
        let worker = match protocol::parse_lease_request(&req.body) {
            Ok(w) => w,
            Err(r) => return r.into_response(),
        };
        match self.repo.clone().lease(&worker) {
            Ok(decision) => {
                if let LeaseDecision::Grant(g) = &decision {
                    self.log(format_args!(
                        "lease {} -> shard {} (lease {}, cursor {:?})",
                        worker,
                        g.index,
                        g.lease,
                        g.partial.as_ref().and_then(|p| p.frontier)
                    ));
                }
                ok(protocol::lease_answer(&decision, &self.plan))
            }
            Err(e) => Rejection::new(500, format!("lease failed: {e}")).into_response(),
        }
    }

    fn heartbeat_response(&self, req: &Request) -> Response {
        let (index, lease, partial) = match protocol::parse_heartbeat(&req.body, &self.plan) {
            Ok(v) => v,
            Err(r) => return r.into_response(),
        };
        let mut repo = self.repo.clone();
        match repo.heartbeat(index, lease, partial.as_ref()) {
            Ok(true) => {
                if partial.is_some() {
                    self.persist();
                }
                ok(protocol::held_answer(true))
            }
            Ok(false) => {
                self.log(format_args!(
                    "heartbeat on lost lease {lease} (shard {index})"
                ));
                ok(protocol::held_answer(false))
            }
            Err(e) => Rejection::bad(format!("heartbeat failed: {e}")).into_response(),
        }
    }

    fn complete_response(&self, req: &Request) -> Response {
        let (index, lease, snapshot) = match protocol::parse_complete(&req.body, &self.plan) {
            Ok(v) => v,
            Err(r) => return r.into_response(),
        };
        let mut repo = self.repo.clone();
        match repo.complete(index, lease, snapshot) {
            Ok(Some(new)) => {
                self.persist();
                let (done, total) = self.repo.progress();
                self.log(format_args!("shard {index} complete ({done}/{total})"));
                if done == total {
                    self.log(format_args!("plan drained"));
                    self.drained.cancel();
                }
                ok(protocol::complete_answer(Some(new)))
            }
            Ok(None) => {
                self.log(format_args!("stale completion for shard {index} discarded"));
                ok(protocol::complete_answer(None))
            }
            Err(e) => Rejection::bad(format!("complete failed: {e}")).into_response(),
        }
    }
}

impl RouteExt for Coordinator {
    fn handle(&self, req: &Request) -> Option<Response> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/lease") => Some(self.lease_response(req)),
            ("POST", "/heartbeat") => Some(self.heartbeat_response(req)),
            ("POST", "/complete") => Some(self.complete_response(req)),
            ("GET", "/plan") => Some(ok(protocol::plan_answer(
                &self.plan,
                self.repo.ttl_ms(),
                self.repo.progress().0,
            ))),
            ("GET", "/checkpoint") => Some(Response::json(
                200,
                self.repo.checkpoint().to_json().into_bytes(),
            )),
            _ => None,
        }
    }
}

fn ok(body: String) -> Response {
    Response::json(200, body.into_bytes())
}

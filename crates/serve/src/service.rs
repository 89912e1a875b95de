//! The public service API: session lifecycle, the ingest front, drain
//! ticks, reads, and crash recovery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crowd_core::exec::{JobOutcome, WorkerPool};
use crowd_data::AnswerRecord;
use crowd_stream::{ConvergeBudget, StreamConfig, StreamEngine, StreamReport};

use crate::durable::fault::{splitmix64, FaultPlan};
use crate::durable::wal::WalWriter;
use crate::durable::{self, DurabilityConfig, RecoveryReport};
use crate::obs;
use crate::shard::{
    lock, panic_message, publish_session, DrainCtx, Envelope, SessionSlot, SessionWal, Shard,
    ShardTickStats,
};
use crate::truth::{Published, SnapshotState, TruthReader, TruthSnapshot};
use crate::ServeError;

/// Opaque session identifier, stable for the session's lifetime (and,
/// with durability on, across process restarts — recovery rebuilds a
/// session under its original id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    pub(crate) fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Session shards. Each shard drains on its own pool worker, so this
    /// is the service's ingest/convergence parallelism.
    pub shards: usize,
    /// Per-shard ingest queue capacity, in **answers**. A batch that
    /// would overflow a non-empty queue is rejected with
    /// [`ServeError::Backpressure`]; a batch into an *empty* queue is
    /// always admitted (a single batch larger than the capacity must not
    /// be undeliverable).
    pub queue_capacity: usize,
    /// Per-session EM-iteration budget for one drain tick. Sessions that
    /// exhaust it stay dirty and resume (warm) next tick.
    pub tick_iteration_budget: usize,
    /// Optional per-shard wall-clock deadline for one drain tick; dirty
    /// sessions past it are deferred to the next tick. Checked between
    /// sessions (a single converge is bounded by the iteration budget,
    /// not pre-empted).
    pub tick_deadline: Option<Duration>,
    /// Durability: `Some` enables the per-session write-ahead answer
    /// log, periodic warm-state snapshots, crash recovery via
    /// [`CrowdServe::recover`], and checkpoint auto-restart of poisoned
    /// sessions. `None` (the default) is the pure in-memory service.
    pub durability: Option<DurabilityConfig>,
    /// Deterministic fault injection for chaos testing
    /// ([`FaultPlan::none`] by default — zero-cost on every path).
    pub fault: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: crowd_core::exec::default_threads().clamp(1, 8),
            queue_capacity: 1 << 16,
            tick_iteration_budget: usize::MAX,
            tick_deadline: None,
            durability: None,
            fault: FaultPlan::none(),
        }
    }
}

/// Deterministic-jitter exponential backoff for retrying
/// [`ServeError::Backpressure`] rejections
/// (see [`CrowdServe::submit_with_retry`]).
///
/// The delay for attempt `k` is `base_delay × 2^k`, capped at
/// `max_delay`, scaled by a jitter factor in `[1 − jitter, 1 + jitter]`
/// that is a **pure function of `(seed, k)`** — retry schedules
/// reproduce exactly under a fixed seed, while different seeds decorrelate
/// competing submitters (no thundering-herd re-submission).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total submit attempts (the first try included; 0 behaves as 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 − jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(200),
            jitter: 0.2,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before attempt `attempt + 1` (so `delay(0)` follows
    /// the first failure). Pure — the same policy always produces the
    /// same schedule.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(20));
        let capped = exp.min(self.max_delay);
        let h = splitmix64(self.seed ^ 0x6a69_7474 ^ u64::from(attempt));
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64); // [0, 1)
        let factor = 1.0 + self.jitter.clamp(0.0, 1.0) * (2.0 * unit - 1.0);
        capped.mul_f64(factor.max(0.0))
    }
}

/// What one [`CrowdServe::drain_tick`] did, aggregated over all shards.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Answers moved from ingest queues into engines.
    pub answers_ingested: usize,
    /// Sessions whose converge met the convergence criterion.
    pub sessions_converged: usize,
    /// Sessions whose converge ran out of iteration budget (they resume
    /// next tick).
    pub sessions_budget_exhausted: usize,
    /// Dirty sessions skipped because the shard's deadline had passed.
    pub sessions_deadline_deferred: usize,
    /// Poisoned sessions auto-restarted from their last checkpoint this
    /// tick (durability only).
    pub sessions_restarted: usize,
    /// Sessions newly poisoned by a converge panic this tick.
    pub poisoned: Vec<SessionId>,
    /// Per-session ingest/converge errors (typed engine rejections, not
    /// panics — those poison), plus durability warnings (wedged WALs,
    /// failed snapshot writes).
    pub errors: Vec<(SessionId, String)>,
    /// Shard drain jobs that failed outside any session's converge
    /// (cancelled pool, top-level panic). Always 0 in healthy operation.
    pub shard_failures: usize,
    /// Wall-clock duration of the whole tick (submit → all shards
    /// joined).
    pub elapsed: Duration,
}

impl TickReport {
    fn merge(&mut self, s: ShardTickStats) {
        self.answers_ingested += s.answers_ingested;
        self.sessions_converged += s.sessions_converged;
        self.sessions_budget_exhausted += s.sessions_budget_exhausted;
        self.sessions_deadline_deferred += s.sessions_deadline_deferred;
        self.sessions_restarted += s.sessions_restarted;
        self.poisoned.extend(s.newly_poisoned);
        self.errors.extend(s.ingest_errors);
    }
}

/// Per-session counters for observability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// The session.
    pub session: SessionId,
    /// The shard the session lives on.
    pub shard: usize,
    /// Answers accepted into the engine so far.
    pub answers_seen: usize,
    /// Answers accepted since the last warm converge.
    pub pending_answers: usize,
    /// Warm converges run so far.
    pub converges: usize,
    /// Whether the next drain tick would re-converge this session.
    pub needs_converge: bool,
    /// Whether the session is poisoned.
    pub poisoned: bool,
    /// Checkpoint auto-restarts this session has consumed.
    pub restarts: u32,
}

/// Service-wide counters.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Shards configured.
    pub shards: usize,
    /// Live sessions (including poisoned ones awaiting eviction).
    pub sessions: usize,
    /// Poisoned sessions awaiting restart or eviction.
    pub poisoned_sessions: usize,
    /// Answers currently waiting in ingest queues.
    pub queued_answers: usize,
}

/// Everything a retired session leaves behind.
#[derive(Debug)]
pub struct EvictedSession {
    /// The retired session's id.
    pub session: SessionId,
    /// Total answers the session absorbed.
    pub answers_seen: usize,
    /// Warm converges the session ran.
    pub converges: usize,
    /// The final converged report (after draining pending ingest), or the
    /// last one on record if the final converge was impossible.
    pub final_report: Option<StreamReport>,
    /// The poison message, for sessions that died to a converge panic.
    pub poisoned: Option<String>,
    /// Answers the engine never absorbed: for a poisoned session, every
    /// still-queued answer; for a healthy one, the suffix of any batch
    /// whose ingestion was rejected mid-way (the offending record and
    /// everything after it). Empty in clean evictions — the caller can
    /// always account for every submitted answer as either
    /// `answers_seen` or returned here.
    pub undrained: Vec<AnswerRecord>,
}

/// The multi-session service core. See the crate docs for the
/// architecture; all methods are callable from any thread.
pub struct CrowdServe {
    config: ServeConfig,
    shards: Vec<Arc<Shard>>,
    pool: WorkerPool,
    next_session: AtomicU64,
    /// Published sorted list of live session ids, swapped on
    /// create/evict/recover so [`sessions`](Self::sessions) and
    /// [`stats`](Self::stats) never take a sessions-map lock.
    registry: Published<Vec<SessionId>>,
}

/// Test-only rendezvous for pinning a converge "in flight": the drain
/// worker parks on it (slot lock held) until the test releases it.
/// Compiled only for this crate's tests and under `fault-inject`.
#[cfg(any(test, feature = "fault-inject"))]
#[doc(hidden)]
#[derive(Default)]
pub struct ConvergeGate {
    entered: (Mutex<bool>, std::sync::Condvar),
    release: (Mutex<bool>, std::sync::Condvar),
}

#[cfg(any(test, feature = "fault-inject"))]
impl ConvergeGate {
    /// Drain side: announce entry, then park until released.
    pub(crate) fn park(&self) {
        *lock(&self.entered.0) = true;
        self.entered.1.notify_all();
        let mut released = lock(&self.release.0);
        while !*released {
            released = self
                .release
                .1
                .wait(released)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Test side: block until the converge is parked on the gate.
    pub fn wait_entered(&self) {
        let mut entered = lock(&self.entered.0);
        while !*entered {
            entered = self
                .entered
                .1
                .wait(entered)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Test side: let the parked converge proceed.
    pub fn release(&self) {
        *lock(&self.release.0) = true;
        self.release.1.notify_all();
    }
}

impl CrowdServe {
    /// Build a service with `config.shards` empty shards and a worker
    /// pool sized to drain them all concurrently. With durability
    /// configured, the directory is created (but existing logs are not
    /// read — use [`CrowdServe::recover`] to rebuild sessions).
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        if config.shards == 0 {
            return Err(ServeError::BadConfig {
                detail: "shards must be at least 1".to_string(),
            });
        }
        if config.queue_capacity == 0 {
            return Err(ServeError::BadConfig {
                detail: "queue_capacity must be at least 1 answer".to_string(),
            });
        }
        if config.tick_iteration_budget == 0 {
            return Err(ServeError::BadConfig {
                detail: "tick_iteration_budget must be at least 1 iteration".to_string(),
            });
        }
        if let Some(dur) = &config.durability {
            std::fs::create_dir_all(&dur.dir).map_err(|e| ServeError::BadConfig {
                detail: format!("cannot create durability dir {}: {e}", dur.dir.display()),
            })?;
        }
        let shards = (0..config.shards)
            .map(|i| Arc::new(Shard::new(i)))
            .collect();
        Ok(Self {
            pool: WorkerPool::new(config.shards),
            shards,
            next_session: AtomicU64::new(0),
            registry: Published::new(0, |_| Vec::new()),
            config,
        })
    }

    /// Rebuild a service from the durability directory: every session
    /// with a WAL is recovered from its latest valid snapshot plus WAL
    /// tail replay (full-WAL replay when the snapshot is missing,
    /// corrupt, or inconsistent), torn WAL tails are truncated to the
    /// last valid frame, and batches that were logged but never covered
    /// by a converge frame are re-enqueued onto their shard's ingest
    /// queue (bypassing the capacity check — they were durably
    /// acknowledged and must not be dropped) for the next drain tick.
    ///
    /// Recovery is bit-identical: the rebuilt engines hold exactly the
    /// state replaying the logged answer/converge schedule produces, so
    /// continuing the stream yields the same plurality and posterior
    /// outputs the uninterrupted run would have (property-tested in
    /// `tests/durability.rs`). A session whose snapshot covered its
    /// entire converge history publishes no report (so no posteriors)
    /// until the next drain tick converges it again.
    ///
    /// Unrecoverable WALs (no valid header, or a replay-level failure)
    /// are skipped — counted and named in the [`RecoveryReport`], files
    /// left on disk for inspection, their ids never reused.
    pub fn recover(config: ServeConfig) -> Result<(Self, RecoveryReport), ServeError> {
        let Some(dur) = config.durability.clone() else {
            return Err(ServeError::BadConfig {
                detail: "recover requires config.durability".to_string(),
            });
        };
        let serve = Self::new(config)?;
        let mut report = RecoveryReport::default();
        let t_scan = Instant::now();
        let ids = durable::scan_wal_sessions(&dur.dir).map_err(|e| ServeError::Durability {
            session: None,
            detail: format!("cannot scan durability dir {}: {e}", dur.dir.display()),
        })?;
        report.timings.scan = t_scan.elapsed();
        let mut max_id = None;
        let mut recovered_ids: Vec<SessionId> = Vec::new();
        for raw in ids {
            max_id = Some(raw);
            let sid = SessionId::from_raw(raw);
            let r = match durable::recover_session(&dur.dir, raw) {
                Ok(r) => r,
                Err(e) => {
                    report.sessions_skipped += 1;
                    report.skipped.push((sid, e.to_string()));
                    continue;
                }
            };
            if r.torn {
                report.torn_tails_truncated += 1;
            }
            if r.snapshot_used {
                report.snapshots_used += 1;
            }
            if r.snapshot_fallback {
                report.snapshot_fallbacks += 1;
            }
            report.timings.absorb(&r.timings);
            report.converges_replayed += r.converges_run;
            // Reopen the WAL on its valid prefix (this truncates any torn
            // tail) so post-recovery submits extend a clean log.
            let writer = match WalWriter::reopen(
                &durable::wal_path(&dur.dir, raw),
                raw,
                dur.fsync,
                serve.config.fault.clone(),
                r.valid_len,
                r.valid_frames,
            ) {
                Ok(w) => w,
                Err(e) => {
                    report.sessions_skipped += 1;
                    report
                        .skipped
                        .push((sid, format!("wal reopen failed: {e}")));
                    continue;
                }
            };
            let shard = &serve.shards[(raw % serve.shards.len() as u64) as usize];
            lock(&shard.wals).insert(
                raw,
                Arc::new(Mutex::new(SessionWal {
                    writer,
                    batches_appended: r.cum_batches + r.tail_batches.len() as u64,
                    batches_ingested: r.cum_batches,
                    converges_logged: r.cum_converges,
                    converges_since_snapshot: 0,
                    snapshots_written: 0,
                })),
            );
            let mut slot = SessionSlot::new(r.engine);
            slot.last_report = r.last_report;
            slot.batches_ingested = r.cum_batches;
            // Republish the recovered truth, seeding the epoch counter
            // from the durable ingest/converge totals so snapshot epochs
            // keep increasing across the crash (ARCHITECTURE.md § read
            // path) — a reader that outlives the process restart never
            // sees its epoch go backwards.
            let cell = Arc::new(Published::new(r.cum_batches + r.cum_converges, |epoch| {
                crate::shard::snapshot_from_slot(&slot, sid, shard.index, epoch)
            }));
            obs::truth_publishes().inc();
            lock(&shard.truths).insert(raw, cell);
            lock(&shard.sessions).insert(raw, Arc::new(Mutex::new(slot)));
            let t_requeue = Instant::now();
            let mut requeued = 0usize;
            let mut q = lock(&shard.ingest);
            for records in r.tail_batches {
                requeued += records.len();
                q.queued_answers += records.len();
                obs::ingest_queued().add(records.len() as i64);
                q.queue.push_back(Envelope {
                    session: raw,
                    records,
                });
            }
            drop(q);
            shard.queued_answers.fetch_add(requeued, Ordering::SeqCst);
            report.timings.requeue += t_requeue.elapsed();
            report.answers_requeued += requeued;
            report.per_session.push(durable::RecoveredSessionCounts {
                session: sid,
                wal_frames: r.valid_frames,
                wal_bytes: r.valid_len,
                converges_replayed: r.converges_run,
                answers_requeued: requeued,
            });
            obs::recovery_converges_replayed().add(r.converges_run);
            obs::recovery_answers_requeued().add(requeued as u64);
            obs::recovery_wal_frames().add(r.valid_frames);
            obs::recovery_wal_bytes().add(r.valid_len);
            recovered_ids.push(sid);
            report.sessions_recovered += 1;
        }
        recovered_ids.sort_unstable();
        serve.registry.publish_with(move |_, _| recovered_ids);
        obs::recovery_sessions_recovered().add(report.sessions_recovered as u64);
        obs::recovery_sessions_skipped().add(report.sessions_skipped as u64);
        let t = &report.timings;
        for (hist, phase, dt) in [
            (obs::recovery_scan_seconds(), 0u64, t.scan),
            (obs::recovery_snapshot_load_seconds(), 1, t.snapshot_load),
            (obs::recovery_replay_seconds(), 2, t.replay),
            (obs::recovery_requeue_seconds(), 3, t.requeue),
        ] {
            let secs = dt.as_secs_f64();
            hist.record(secs);
            crowd_obs::journal::record(crowd_obs::SpanKind::RecoveryPhase, phase, secs);
        }
        serve
            .next_session
            .store(max_id.map_or(0, |m| m + 1), Ordering::Relaxed);
        Ok((serve, report))
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a session is pinned to.
    pub fn shard_of(&self, session: SessionId) -> usize {
        (session.raw() % self.shards.len() as u64) as usize
    }

    /// Ids of every live session, ascending — the way to re-address
    /// sessions after [`CrowdServe::recover`] (ids are stable across
    /// recovery). Served from a published registry snapshot: polling
    /// this never takes a sessions-map lock.
    pub fn sessions(&self) -> Vec<SessionId> {
        self.registry.read().as_ref().clone()
    }

    /// Open a streaming session. The engine validates the config (task
    /// type, method support) exactly as a standalone
    /// [`StreamEngine`](crowd_stream::StreamEngine) would. With
    /// durability on, the session's WAL is created (with the config as
    /// its header frame) before the session is registered — a session
    /// that cannot log is never opened.
    pub fn create_session(&self, config: StreamConfig) -> Result<SessionId, ServeError> {
        let engine = StreamEngine::new(config.clone())?;
        let raw = self.next_session.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[(raw % self.shards.len() as u64) as usize];
        if let Some(dur) = &self.config.durability {
            let writer = WalWriter::create(
                &durable::wal_path(&dur.dir, raw),
                raw,
                dur.fsync,
                self.config.fault.clone(),
                &config,
            )
            .map_err(|e| ServeError::Durability {
                session: Some(SessionId::from_raw(raw)),
                detail: format!("wal create failed: {e}"),
            })?;
            lock(&shard.wals).insert(
                raw,
                Arc::new(Mutex::new(SessionWal {
                    writer,
                    batches_appended: 0,
                    batches_ingested: 0,
                    converges_logged: 0,
                    converges_since_snapshot: 0,
                    snapshots_written: 0,
                })),
            );
        }
        let sid = SessionId::from_raw(raw);
        let slot = SessionSlot::new(engine);
        // Publish the session's first truth snapshot (epoch 1) before it
        // is registered: a reader can never observe an empty cell.
        let cell = Arc::new(Published::new(0, |epoch| {
            crate::shard::snapshot_from_slot(&slot, sid, shard.index, epoch)
        }));
        obs::truth_publishes().inc();
        lock(&shard.truths).insert(raw, cell);
        lock(&shard.sessions).insert(raw, Arc::new(Mutex::new(slot)));
        self.registry.publish_with(|prior, _| {
            let mut ids = prior.clone();
            let at = ids.partition_point(|&s| s < sid);
            ids.insert(at, sid);
            ids
        });
        Ok(sid)
    }

    /// Enqueue an answer batch for `session` — the async-style ingest
    /// front. Returns as soon as the batch is on the owning shard's
    /// bounded queue; no inference runs here, and validation happens at
    /// drain time (per-record, engine untouched on rejection). A full
    /// queue returns [`ServeError::Backpressure`] without enqueuing.
    ///
    /// With durability on this is a **write-ahead** step: the batch is
    /// appended (and, per [`FsyncPolicy`](crate::FsyncPolicy), fsynced)
    /// to the session's WAL before it is enqueued, so an acknowledged
    /// submit survives a crash. The append and the enqueue are atomic
    /// with respect to failure: on any error (including
    /// [`ServeError::Durability`]) the batch is neither logged nor
    /// queued — a frame on disk and a batch in the queue always
    /// correspond one-to-one.
    pub fn submit(&self, session: SessionId, records: Vec<AnswerRecord>) -> Result<(), ServeError> {
        if records.is_empty() {
            return Ok(());
        }
        let shard_idx = self.shard_of(session);
        let shard = &self.shards[shard_idx];
        {
            let Some(slot) = shard.slot(session.raw()) else {
                return Err(ServeError::UnknownSession(session));
            };
            if lock(&slot).poisoned.is_some() {
                return Err(ServeError::SessionPoisoned(session));
            }
        }
        // Lock order: wal → ingest. Both are held across the append so
        // the capacity check, the WAL frame, and the enqueue are one
        // atomic step (a backpressure rejection must not leave a frame
        // behind for recovery to resurrect).
        let wal = if self.config.durability.is_some() {
            Some(
                shard
                    .wal(session.raw())
                    .ok_or(ServeError::UnknownSession(session))?,
            )
        } else {
            None
        };
        let mut wal_guard = wal.as_ref().map(|w| lock(w));
        if let Some(w) = wal_guard.as_deref() {
            if let Some(why) = w.writer.broken() {
                return Err(ServeError::Durability {
                    session: Some(session),
                    detail: format!("wal is wedged ({why}); restart or evict the session"),
                });
            }
        }
        let mut q = lock(&shard.ingest);
        if q.queued_answers > 0 && q.queued_answers + records.len() > self.config.queue_capacity {
            obs::ingest_backpressure().inc();
            crowd_obs::journal::record(crowd_obs::SpanKind::BackpressureReject, session.raw(), 0.0);
            return Err(ServeError::Backpressure {
                session,
                shard: shard_idx,
                queued_answers: q.queued_answers,
                capacity: self.config.queue_capacity,
            });
        }
        if let Some(w) = wal_guard.as_deref_mut() {
            w.writer
                .append_batch(&records)
                .map_err(|e| ServeError::Durability {
                    session: Some(session),
                    detail: format!("wal append failed: {e}"),
                })?;
            w.batches_appended += 1;
        }
        obs::ingest_batches().inc();
        obs::ingest_answers().add(records.len() as u64);
        obs::ingest_queued().add(records.len() as i64);
        shard
            .queued_answers
            .fetch_add(records.len(), Ordering::SeqCst);
        q.queued_answers += records.len();
        q.queue.push_back(Envelope {
            session: session.raw(),
            records,
        });
        Ok(())
    }

    /// [`submit`](Self::submit) with deterministic-jitter exponential
    /// backoff on [`ServeError::Backpressure`]: the batch is retried up
    /// to `policy.max_attempts` times, sleeping `policy.delay(k)`
    /// between attempts (some other thread must be running drain ticks
    /// for the queue to empty). Every other error — unknown session,
    /// poisoned, durability — is returned immediately; when the
    /// attempts run out the last backpressure error comes back wrapped
    /// in [`ServeError::RetriesExhausted`]. The batch is never
    /// partially submitted.
    pub fn submit_with_retry(
        &self,
        session: SessionId,
        records: Vec<AnswerRecord>,
        policy: &RetryPolicy,
    ) -> Result<(), ServeError> {
        let attempts = policy.max_attempts.max(1);
        let mut records = records;
        for attempt in 0..attempts {
            let last = attempt + 1 == attempts;
            let batch = if last {
                std::mem::take(&mut records)
            } else {
                records.clone()
            };
            match self.submit(session, batch) {
                Ok(()) => return Ok(()),
                Err(e @ ServeError::Backpressure { .. }) => {
                    if last {
                        return Err(ServeError::RetriesExhausted {
                            session,
                            attempts,
                            last_error: Box::new(e),
                        });
                    }
                    std::thread::sleep(policy.delay(attempt));
                }
                Err(other) => return Err(other),
            }
        }
        unreachable!("loop returns on the last attempt")
    }

    /// Run one drain tick: one job per shard is submitted to the worker
    /// pool's from-any-thread queue, each shard ingests its queued
    /// batches and re-converges its dirty sessions under the configured
    /// budget, and the merged [`TickReport`] is returned once every shard
    /// has finished. With durability on, the tick also restarts poisoned
    /// sessions from checkpoint, logs converge frames, and writes
    /// snapshots on cadence.
    pub fn drain_tick(&self) -> TickReport {
        let started = Instant::now();
        let budget = ConvergeBudget::iterations(self.config.tick_iteration_budget);
        let deadline = self.config.tick_deadline;
        let ctx = DrainCtx {
            durability: self.config.durability.clone(),
            fault: self.config.fault.clone(),
        };
        let mut report = TickReport::default();

        if self.shards.len() == 1 {
            // One shard: drain inline, no dispatch latency.
            report.merge(self.shards[0].drain(budget, deadline, &ctx));
        } else {
            // Each job reports through its own slot (not shared shard
            // state), so concurrent drain_tick callers cannot steal or
            // clobber each other's statistics.
            let tickets: Vec<_> = self
                .shards
                .iter()
                .map(|shard| {
                    let shard = Arc::clone(shard);
                    let ctx = ctx.clone();
                    let out = Arc::new(Mutex::new(None::<ShardTickStats>));
                    let out_job = Arc::clone(&out);
                    let ticket = self.pool.submit(move || {
                        *lock(&out_job) = Some(shard.drain(budget, deadline, &ctx));
                    });
                    (ticket, out)
                })
                .collect();
            for (ticket, out) in tickets {
                match ticket.join() {
                    JobOutcome::Completed => {
                        report.merge(lock(&out).take().unwrap_or_default());
                    }
                    JobOutcome::Panicked(_) | JobOutcome::Cancelled => {
                        report.shard_failures += 1;
                    }
                }
            }
        }
        report.elapsed = started.elapsed();
        report
    }

    /// A clonable, `Send + Sync` [`TruthReader`] handle for polling
    /// `session`'s published [`TruthSnapshot`] — the wait-free read
    /// path. The handle outlives poisoning, checkpoint restarts, and
    /// even eviction: instead of erroring mid-poll, its snapshots
    /// degrade to the typed [`SnapshotState::SnapshotStale`] /
    /// [`SnapshotState::SessionGone`] states.
    ///
    /// Clone the handle per polling thread (each clone owns its hazard
    /// slot); [`TruthReader::snapshot`] then never takes any service
    /// lock — it completes in sub-microsecond time while the session's
    /// own converge is in flight (`tests/read_path.rs`, and measured by
    /// `crowd-serve-bench --mode mixed`).
    pub fn reader(&self, session: SessionId) -> Result<TruthReader, ServeError> {
        let cell = self.shards[self.shard_of(session)]
            .truth(session.raw())
            .ok_or(ServeError::UnknownSession(session))?;
        Ok(TruthReader::new(session, cell))
    }

    /// The current published [`TruthSnapshot`] for `session` — one
    /// coherent read of plurality, posteriors, last report, and stats:
    /// every field comes from the same publish epoch, so they can never
    /// disagree about which tick they describe.
    ///
    /// This entry point does one brief cell lookup (a map lock, never a
    /// session slot lock) and then a wait-free pointer load; it never
    /// waits for ingest or converge work. For a polling loop, take a
    /// [`reader`](Self::reader) handle instead and skip the lookup too.
    /// Returns [`ServeError::UnknownSession`] once the session has been
    /// evicted (a [`TruthReader`] held across the eviction keeps
    /// serving the terminal [`SnapshotState::SessionGone`] snapshot).
    pub fn truth(&self, session: SessionId) -> Result<Arc<TruthSnapshot>, ServeError> {
        let cell = self.shards[self.shard_of(session)]
            .truth(session.raw())
            .ok_or(ServeError::UnknownSession(session))?;
        let timer = obs::truth_read_seconds().start_timer();
        let snap = cell.read();
        timer.stop();
        obs::truth_reads().inc();
        Ok(snap)
    }

    /// Service-wide counters, served wait-free from the published
    /// session registry and per-shard atomic mirrors — polling this
    /// takes no sessions-map, slot, or queue lock.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            shards: self.shards.len(),
            sessions: self.registry.read().len(),
            poisoned_sessions: self
                .shards
                .iter()
                .map(|s| s.poisoned_sessions.load(Ordering::SeqCst))
                .sum(),
            queued_answers: self
                .shards
                .iter()
                .map(|s| s.queued_answers.load(Ordering::SeqCst))
                .sum(),
        }
    }

    /// Gracefully retire a session: its still-queued batches are pulled
    /// out of the shard's ingest queue and applied, a final unbudgeted
    /// converge runs (if the session is dirty and healthy), and the slot
    /// is removed. Poisoned sessions are evicted without touching the
    /// engine — their last good report and poison message come back in
    /// the [`EvictedSession`], and every answer the engine never
    /// absorbed (queued batches for a poisoned session, rejected-batch
    /// suffixes for a healthy one) is surfaced in
    /// [`EvictedSession::undrained`] rather than dropped.
    ///
    /// With durability on, the session's WAL and snapshot files are
    /// deleted — the caller received the final state, and a later
    /// [`recover`](Self::recover) must not resurrect the session.
    pub fn evict(&self, session: SessionId) -> Result<EvictedSession, ServeError> {
        let shard = &self.shards[self.shard_of(session)];
        // Serialise against whole drain ticks on this shard: an eviction
        // must see either the pre-drain queue (and pull its envelopes
        // below) or the post-drain engines — never a drain that has
        // stolen the queue but not yet applied it, which would silently
        // drop the session's submitted batches from its final state.
        let _gate = lock(&shard.drain_gate);

        // Pull this session's pending envelopes (preserving their order)
        // out of the ingest queue.
        let pending: Vec<Envelope> = {
            let mut q = lock(&shard.ingest);
            let (mine, rest): (Vec<Envelope>, Vec<Envelope>) = q
                .queue
                .drain(..)
                .partition(|env| env.session == session.raw());
            q.queue = rest.into();
            q.queued_answers = q.queue.iter().map(|e| e.records.len()).sum();
            mine
        };
        let pulled: usize = pending.iter().map(|e| e.records.len()).sum();
        obs::ingest_queued().add(-(pulled as i64));
        shard.queued_answers.fetch_sub(pulled, Ordering::SeqCst);

        let slot = lock(&shard.sessions)
            .remove(&session.raw())
            .ok_or(ServeError::UnknownSession(session))?;
        let wal = lock(&shard.wals).remove(&session.raw());
        let mut slot = lock(&slot);
        if slot.poisoned.is_some() {
            shard.poisoned_sessions.fetch_sub(1, Ordering::SeqCst);
        }

        let mut undrained = Vec::new();
        if slot.poisoned.is_none() {
            for env in pending {
                match slot.engine.push_batch(&env.records) {
                    Ok(_) => {}
                    // The partial-apply contract: 0..accepted applied,
                    // the rest (offending record included) untouched —
                    // surface it instead of dropping it.
                    Err((accepted, _)) => undrained.extend_from_slice(&env.records[accepted..]),
                }
            }
            if slot.engine.needs_converge() {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    slot.engine.converge()
                }));
                match outcome {
                    Ok(Ok(report)) => slot.last_report = Some(report),
                    Ok(Err(_)) => {} // e.g. empty stream: keep last_report
                    Err(payload) => slot.poisoned = Some(panic_message(payload.as_ref())),
                }
            }
        } else {
            for env in pending {
                undrained.extend(env.records);
            }
        }

        if let Some(dur) = &self.config.durability {
            // Close the file handle before unlinking.
            drop(wal);
            let _ = std::fs::remove_file(durable::wal_path(&dur.dir, session.raw()));
            let _ = std::fs::remove_file(durable::snapshot_path(&dur.dir, session.raw()));
        }

        // Publish the terminal snapshot (carrying the session's final
        // state) before the cell leaves the truths map: readers holding
        // a TruthReader across the eviction land on `SessionGone` with
        // the last truths intact, never on a torn or vanished cell.
        if let Some(cell) = lock(&shard.truths).remove(&session.raw()) {
            publish_session(
                &cell,
                &slot,
                session,
                shard.index,
                Some(SnapshotState::SessionGone),
            );
        }
        self.registry.publish_with(move |prior, _| {
            let mut next = prior.clone();
            next.retain(|&s| s != session);
            next
        });

        Ok(EvictedSession {
            session,
            answers_seen: slot.engine.answers_seen(),
            converges: slot.engine.converges(),
            final_report: slot.last_report.take(),
            poisoned: slot.poisoned.take(),
            undrained,
        })
    }

    /// Bring every session's view up to date with its answer log now
    /// (drain ticks do this lazily per converge) — a maintenance hook for
    /// idle periods.
    pub fn compact_all(&self) {
        for shard in &self.shards {
            let slots: Vec<_> = lock(&shard.sessions).values().cloned().collect();
            for slot in slots {
                let mut slot = lock(&slot);
                if slot.poisoned.is_none() {
                    slot.engine.sync_shards();
                }
            }
        }
    }

    /// Test-only fault injection: make the next converge on `session`
    /// panic inside the drain tick. Compiled only for this crate's own
    /// tests and under the `fault-inject` feature — the production API
    /// surface cannot poison sessions; chaos tests configure a seeded
    /// [`FaultPlan`] on [`ServeConfig`] instead.
    #[cfg(any(test, feature = "fault-inject"))]
    #[doc(hidden)]
    pub fn debug_panic_next_converge(&self, session: SessionId) -> Result<(), ServeError> {
        let slot = self.shards[self.shard_of(session)]
            .slot(session.raw())
            .ok_or(ServeError::UnknownSession(session))?;
        lock(&slot).debug_panic_next_converge = true;
        Ok(())
    }

    /// Test-only fault injection: make the next converge on `session`
    /// park on `gate` inside the drain tick, holding the session slot
    /// lock until the test calls [`ConvergeGate::release`]. This is how
    /// the wait-free claim is tested: with a converge deliberately
    /// wedged mid-tick, reader snapshots must still complete instantly.
    #[cfg(any(test, feature = "fault-inject"))]
    #[doc(hidden)]
    pub fn debug_block_next_converge(
        &self,
        session: SessionId,
        gate: Arc<ConvergeGate>,
    ) -> Result<(), ServeError> {
        let slot = self.shards[self.shard_of(session)]
            .slot(session.raw())
            .ok_or(ServeError::UnknownSession(session))?;
        lock(&slot).debug_block_next_converge = Some(gate);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::Method;
    use crowd_data::{Answer, TaskType};

    fn decision_session(n: usize, m: usize) -> StreamConfig {
        StreamConfig::new(Method::Mv, TaskType::DecisionMaking, n, m)
    }

    fn rec(task: usize, worker: usize, label: u8) -> AnswerRecord {
        AnswerRecord {
            task,
            worker,
            answer: Answer::Label(label),
        }
    }

    #[test]
    fn config_validation() {
        for (cfg, needle) in [
            (
                ServeConfig {
                    shards: 0,
                    ..ServeConfig::default()
                },
                "shards",
            ),
            (
                ServeConfig {
                    queue_capacity: 0,
                    ..ServeConfig::default()
                },
                "queue_capacity",
            ),
            (
                ServeConfig {
                    tick_iteration_budget: 0,
                    ..ServeConfig::default()
                },
                "tick_iteration_budget",
            ),
        ] {
            match CrowdServe::new(cfg) {
                Err(ServeError::BadConfig { detail }) => assert!(detail.contains(needle)),
                other => panic!("expected BadConfig, got {other:?}", other = other.is_ok()),
            }
        }
    }

    #[test]
    fn sessions_round_robin_over_shards() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 3,
            ..ServeConfig::default()
        })
        .unwrap();
        let ids: Vec<SessionId> = (0..6)
            .map(|_| serve.create_session(decision_session(4, 3)).unwrap())
            .collect();
        let shards: Vec<usize> = ids.iter().map(|&s| serve.shard_of(s)).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(serve.stats().sessions, 6);
    }

    #[test]
    fn submit_drain_read_roundtrip() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(3, 3)).unwrap();
        serve
            .submit(sid, vec![rec(0, 0, 1), rec(0, 1, 1), rec(1, 0, 0)])
            .unwrap();
        // Nothing ingested until the tick — the published snapshot still
        // describes the empty session.
        assert_eq!(serve.truth(sid).unwrap().stats.answers_seen, 0);
        assert_eq!(serve.stats().queued_answers, 3);
        let tick = serve.drain_tick();
        assert_eq!(tick.answers_ingested, 3);
        assert_eq!(tick.sessions_converged, 1);
        assert_eq!(tick.shard_failures, 0);
        assert!(tick.errors.is_empty());
        let snap = serve.truth(sid).unwrap();
        assert_eq!(snap.plurality, vec![Some(1), Some(0), None]);
        let report = snap.report.as_ref().unwrap();
        assert_eq!(report.answers_seen, 3);
        assert!(report.result.converged);
    }

    #[test]
    fn unknown_and_empty_submissions() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(2, 2)).unwrap();
        // Empty batch is a no-op, not an error.
        serve.submit(sid, vec![]).unwrap();
        assert_eq!(serve.stats().queued_answers, 0);
        let ghost = SessionId::from_raw(999);
        assert!(matches!(
            serve.submit(ghost, vec![rec(0, 0, 1)]),
            Err(ServeError::UnknownSession(_))
        ));
        assert!(matches!(
            serve.truth(ghost),
            Err(ServeError::UnknownSession(_))
        ));
        assert!(matches!(
            serve.reader(ghost),
            Err(ServeError::UnknownSession(_))
        ));
        assert!(matches!(
            serve.evict(ghost),
            Err(ServeError::UnknownSession(_))
        ));
    }

    #[test]
    fn backpressure_is_typed_and_non_lossy() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            queue_capacity: 4,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(10, 10)).unwrap();
        serve
            .submit(sid, vec![rec(0, 0, 1), rec(1, 0, 1), rec(2, 0, 1)])
            .unwrap();
        // 3 queued; 2 more would exceed capacity 4 → backpressure.
        let err = serve
            .submit(sid, vec![rec(3, 0, 1), rec(4, 0, 1)])
            .unwrap_err();
        match err {
            ServeError::Backpressure {
                queued_answers,
                capacity,
                ..
            } => {
                assert_eq!(queued_answers, 3);
                assert_eq!(capacity, 4);
            }
            other => panic!("expected backpressure, got {other}"),
        }
        // One more answer fits exactly.
        serve.submit(sid, vec![rec(3, 0, 1)]).unwrap();
        // After a drain the queue is empty again and accepts batches —
        // even one larger than capacity, since the queue is empty.
        serve.drain_tick();
        serve
            .submit(
                sid,
                vec![
                    rec(4, 0, 1),
                    rec(5, 0, 1),
                    rec(6, 0, 1),
                    rec(7, 0, 1),
                    rec(8, 0, 1),
                    rec(9, 0, 1),
                ],
            )
            .unwrap();
        let tick = serve.drain_tick();
        assert_eq!(tick.answers_ingested, 6);
        assert_eq!(serve.truth(sid).unwrap().stats.answers_seen, 10);
    }

    #[test]
    fn retry_policy_delays_are_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
            jitter: 0.25,
            seed: 42,
        };
        let a: Vec<Duration> = (0..6).map(|k| policy.delay(k)).collect();
        let b: Vec<Duration> = (0..6).map(|k| policy.delay(k)).collect();
        assert_eq!(a, b, "same policy, same schedule");
        for (k, d) in a.iter().enumerate() {
            let nominal = Duration::from_millis(2u64 << k).min(Duration::from_millis(50));
            let lo = nominal.mul_f64(0.75);
            let hi = nominal.mul_f64(1.25);
            assert!(
                (lo..=hi).contains(d),
                "delay({k}) = {d:?} outside [{lo:?}, {hi:?}]"
            );
        }
        let other = RetryPolicy { seed: 43, ..policy };
        assert_ne!(
            (0..6).map(|k| other.delay(k)).collect::<Vec<_>>(),
            a,
            "different seeds should jitter differently"
        );
    }

    #[test]
    fn submit_with_retry_exhausts_on_persistent_backpressure() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(8, 8)).unwrap();
        serve.submit(sid, vec![rec(0, 0, 1), rec(1, 0, 1)]).unwrap();
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        };
        // Nobody drains: every retry hits backpressure.
        let err = serve
            .submit_with_retry(sid, vec![rec(2, 0, 1), rec(3, 0, 1)], &policy)
            .unwrap_err();
        match err {
            ServeError::RetriesExhausted {
                session,
                attempts,
                last_error,
            } => {
                assert_eq!(session, sid);
                assert_eq!(attempts, 3);
                assert!(matches!(*last_error, ServeError::Backpressure { .. }));
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        // The failed batch was never partially enqueued.
        assert_eq!(serve.stats().queued_answers, 2);
        // After a drain, the same submit succeeds on the first retry.
        serve.drain_tick();
        serve
            .submit_with_retry(sid, vec![rec(2, 0, 1), rec(3, 0, 1)], &policy)
            .unwrap();
        let tick = serve.drain_tick();
        assert_eq!(tick.answers_ingested, 2);
    }

    #[test]
    fn invalid_records_surface_in_tick_report_without_killing_session() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(2, 2)).unwrap();
        // Second record is out of range; first is accepted, batch stops.
        serve
            .submit(sid, vec![rec(0, 0, 1), rec(7, 0, 1), rec(1, 1, 0)])
            .unwrap();
        let tick = serve.drain_tick();
        assert_eq!(tick.answers_ingested, 1);
        assert_eq!(tick.errors.len(), 1);
        assert!(tick.errors[0].1.contains("out of range"));
        // Session is alive and serving.
        assert_eq!(serve.truth(sid).unwrap().plurality[0], Some(1));
        serve.submit(sid, vec![rec(1, 1, 0)]).unwrap();
        let tick = serve.drain_tick();
        assert_eq!(tick.answers_ingested, 1);
        assert!(tick.errors.is_empty());
    }

    #[test]
    fn eviction_drains_pending_ingest_and_finalises() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(3, 3)).unwrap();
        let other = serve.create_session(decision_session(3, 3)).unwrap();
        serve.submit(sid, vec![rec(0, 0, 1), rec(1, 0, 0)]).unwrap();
        serve.submit(other, vec![rec(2, 2, 1)]).unwrap();
        // Evict before any tick: the queued batch must still count.
        let evicted = serve.evict(sid).unwrap();
        assert_eq!(evicted.answers_seen, 2);
        assert!(evicted.poisoned.is_none());
        assert!(evicted.undrained.is_empty());
        let report = evicted.final_report.expect("final converge ran");
        assert_eq!(report.answers_seen, 2);
        assert!(matches!(
            serve.truth(sid),
            Err(ServeError::UnknownSession(_))
        ));
        // The sibling session's queued batch survived the queue surgery.
        let tick = serve.drain_tick();
        assert_eq!(tick.answers_ingested, 1);
        assert_eq!(serve.truth(other).unwrap().stats.answers_seen, 1);
    }

    #[test]
    fn poisoned_eviction_surfaces_undrained_answers() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(4, 4)).unwrap();
        serve.submit(sid, vec![rec(0, 0, 1)]).unwrap();
        serve.drain_tick();
        serve.debug_panic_next_converge(sid).unwrap();
        serve.submit(sid, vec![rec(1, 1, 1)]).unwrap();
        let tick = serve.drain_tick();
        assert_eq!(tick.poisoned, vec![sid]);
        // Queued after poisoning: these answers never reach the engine.
        // (Submit refuses on a poisoned session, so enqueue through the
        // pre-poison path: the batch above was ingested before the panic;
        // queue one more via a fresh submit attempt — which must fail —
        // then verify the evicted payload accounts for every answer.)
        assert!(matches!(
            serve.submit(sid, vec![rec(2, 2, 1)]),
            Err(ServeError::SessionPoisoned(_))
        ));
        let evicted = serve.evict(sid).unwrap();
        assert_eq!(evicted.answers_seen, 2);
        assert!(evicted.poisoned.is_some());
        assert!(evicted.undrained.is_empty());
    }

    #[test]
    fn healthy_eviction_surfaces_rejected_batch_suffix() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(2, 2)).unwrap();
        // Second record is out of range: at eviction the engine keeps the
        // first and the rest must come back in `undrained`.
        serve
            .submit(sid, vec![rec(0, 0, 1), rec(9, 0, 1), rec(1, 1, 0)])
            .unwrap();
        let evicted = serve.evict(sid).unwrap();
        assert_eq!(evicted.answers_seen, 1);
        assert_eq!(evicted.undrained, vec![rec(9, 0, 1), rec(1, 1, 0)]);
    }

    #[test]
    fn concurrent_drain_ticks_conserve_statistics() {
        // drain_tick is callable from any thread; two overlapping ticks
        // must neither lose nor double-count ingested answers (each tick
        // reports through its own per-job slot, and batches are ingested
        // exactly once whichever tick drains them).
        let serve = CrowdServe::new(ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let sids: Vec<SessionId> = (0..4)
            .map(|_| serve.create_session(decision_session(8, 8)).unwrap())
            .collect();
        for round in 0..4 {
            for (k, &sid) in sids.iter().enumerate() {
                serve
                    .submit(sid, vec![rec(round, k % 8, 1), rec(4 + round, k % 8, 0)])
                    .unwrap();
            }
            let reports: Vec<TickReport> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2).map(|_| scope.spawn(|| serve.drain_tick())).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let ingested: usize = reports.iter().map(|r| r.answers_ingested).sum();
            assert_eq!(ingested, 8, "round {round}: {reports:?}");
            assert!(reports.iter().all(|r| r.shard_failures == 0));
        }
        for &sid in &sids {
            assert_eq!(serve.truth(sid).unwrap().stats.answers_seen, 8);
        }
    }

    #[test]
    fn deadline_defers_sessions_to_the_next_tick() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            tick_deadline: Some(Duration::ZERO),
            ..ServeConfig::default()
        })
        .unwrap();
        let a = serve.create_session(decision_session(2, 2)).unwrap();
        let b = serve.create_session(decision_session(2, 2)).unwrap();
        serve.submit(a, vec![rec(0, 0, 1)]).unwrap();
        serve.submit(b, vec![rec(0, 1, 1)]).unwrap();
        // Deadline ZERO: ingest happens, but every converge is deferred.
        let tick = serve.drain_tick();
        assert_eq!(tick.answers_ingested, 2);
        assert_eq!(tick.sessions_converged, 0);
        assert_eq!(tick.sessions_deadline_deferred, 2);
        let snap = serve.truth(a).unwrap();
        assert!(snap.stats.needs_converge);
        assert!(snap.report.is_none());
    }

    #[test]
    fn wedged_converge_never_stalls_readers_or_stats() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(3, 3)).unwrap();
        serve.submit(sid, vec![rec(0, 0, 1)]).unwrap();
        serve.drain_tick();
        let reader = serve.reader(sid).unwrap();
        let epoch_before = reader.snapshot().epoch;

        let gate = Arc::new(ConvergeGate::default());
        serve
            .debug_block_next_converge(sid, Arc::clone(&gate))
            .unwrap();
        serve.submit(sid, vec![rec(1, 1, 1)]).unwrap();
        std::thread::scope(|scope| {
            let tick = scope.spawn(|| serve.drain_tick());
            gate.wait_entered();
            // The session's own converge is now wedged mid-tick, holding
            // the slot lock. A lock-taking reader would hang here until
            // the release below; the published-snapshot path must finish
            // every read immediately — and so must the registry-backed
            // service-wide getters.
            let start = Instant::now();
            for _ in 0..1_000 {
                let snap = reader.snapshot();
                assert_eq!(snap.epoch, epoch_before, "no publish while wedged");
                assert!(snap.state.is_live());
            }
            let elapsed = start.elapsed();
            assert_eq!(serve.stats().sessions, 1);
            assert_eq!(serve.stats().queued_answers, 0, "already ingested");
            assert_eq!(serve.sessions(), vec![sid]);
            assert!(
                elapsed < Duration::from_secs(1),
                "1000 reads against a wedged converge took {elapsed:?}"
            );
            gate.release();
            let tick = tick.join().unwrap();
            assert_eq!(tick.answers_ingested, 1);
            assert_eq!(tick.sessions_converged, 1);
        });
        let snap = reader.snapshot();
        assert!(snap.epoch > epoch_before, "tick end published");
        assert_eq!(snap.stats.answers_seen, 2);
    }

    #[test]
    fn poisoned_session_snapshot_goes_stale_but_keeps_its_stats() {
        let serve = CrowdServe::new(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let sid = serve.create_session(decision_session(2, 2)).unwrap();
        serve.submit(sid, vec![rec(0, 0, 1), rec(1, 1, 0)]).unwrap();
        serve.drain_tick();
        assert!(serve.truth(sid).unwrap().state.is_live());

        serve.debug_panic_next_converge(sid).unwrap();
        serve.submit(sid, vec![rec(0, 1, 1)]).unwrap();
        let tick = serve.drain_tick();
        assert_eq!(tick.poisoned, vec![sid]);
        // The published snapshot degrades to the typed stale state, and
        // its counters are still served: the batch was ingested before
        // the converge panicked.
        let snap = serve.truth(sid).unwrap();
        assert!(snap.state.is_stale(), "poisoned publish: {:?}", snap.state);
        assert!(snap.stats.poisoned);
        assert_eq!(
            snap.stats.answers_seen, 3,
            "pre-panic counters still served"
        );
    }
}

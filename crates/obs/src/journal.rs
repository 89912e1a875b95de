//! The bounded, typed event journal.
//!
//! Metrics answer *how much / how long*; the journal answers *what just
//! happened, in what order* — the last few thousand typed spans (drain
//! ticks, converges, WAL appends and fsyncs, snapshots, recovery
//! phases, restarts, backpressure rejects) kept in per-thread ring
//! buffers and stitched together by a global drain.
//!
//! Semantics, deliberately modest:
//!
//! - **Bounded and lossy**: each writer thread keeps at most
//!   [`PER_THREAD_CAP`] events; when full, the oldest event on that
//!   thread is dropped and the global [`dropped`] counter incremented —
//!   recording never blocks on a reader and never allocates beyond the
//!   ring.
//! - **Per-thread writers**: a thread's first event registers its
//!   buffer in the global writer list; recording after that locks only
//!   the thread's own buffer (uncontended except against a drain).
//! - **Global drain**: [`drain`] removes and returns every buffered
//!   event, merged across threads and sorted by the global sequence
//!   number — a total order of allocation (not of completion: an event
//!   is buffered after its span finishes).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum buffered events per writer thread.
pub const PER_THREAD_CAP: usize = 4096;

/// The typed span kinds the layers record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One shard drain tick (`key` = shard index).
    DrainTick,
    /// One engine converge (`key` = session id, 0 outside serve).
    Converge,
    /// One answer-batch push into a stream engine (`key` = session id).
    BatchPush,
    /// One WAL frame append (`key` = session id).
    WalAppend,
    /// One WAL fsync (`key` = session id).
    WalFsync,
    /// One durable snapshot write (`key` = session id).
    SnapshotWrite,
    /// One recovery phase (`key` = phase ordinal: 0 scan, 1 snapshot
    /// load, 2 replay, 3 requeue).
    RecoveryPhase,
    /// One poisoned-session restart (`key` = session id).
    SessionRestart,
    /// One backpressure rejection (`key` = session id).
    BackpressureReject,
    /// One injected durability fault firing (`key` = session id).
    FaultInjected,
    /// One sweep cell finishing (`key` = cell index).
    SweepCell,
}

impl SpanKind {
    /// Stable lower-snake name used in JSON dumps.
    pub fn name(&self) -> &'static str {
        match self {
            Self::DrainTick => "drain_tick",
            Self::Converge => "converge",
            Self::BatchPush => "batch_push",
            Self::WalAppend => "wal_append",
            Self::WalFsync => "wal_fsync",
            Self::SnapshotWrite => "snapshot_write",
            Self::RecoveryPhase => "recovery_phase",
            Self::SessionRestart => "session_restart",
            Self::BackpressureReject => "backpressure_reject",
            Self::FaultInjected => "fault_injected",
            Self::SweepCell => "sweep_cell",
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Global allocation order (total across threads).
    pub seq: u64,
    /// Microseconds since process start when the event was recorded.
    pub at_micros: u64,
    /// What happened.
    pub kind: SpanKind,
    /// Kind-specific key (session id, shard index, phase ordinal…).
    pub key: u64,
    /// Span duration in seconds (0.0 for instantaneous events such as
    /// rejects and restarts).
    pub seconds: f64,
}

type Buffer = Arc<Mutex<VecDeque<Event>>>;

/// Every thread's buffer, in registration order. Buffers outlive their
/// threads so nothing recorded is lost to thread teardown.
fn writers() -> &'static Mutex<Vec<Buffer>> {
    static WRITERS: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    WRITERS.get_or_init(|| Mutex::new(Vec::new()))
}

fn seq_counter() -> &'static AtomicU64 {
    static SEQ: OnceLock<AtomicU64> = OnceLock::new();
    SEQ.get_or_init(|| AtomicU64::new(0))
}

fn dropped_counter() -> &'static AtomicU64 {
    static DROPPED: OnceLock<AtomicU64> = OnceLock::new();
    DROPPED.get_or_init(|| AtomicU64::new(0))
}

thread_local! {
    static LOCAL: RefCell<Option<Buffer>> = const { RefCell::new(None) };
}

/// Record one event. No-op while recording is disabled. Never blocks on
/// a drain for more than the time to push into one `VecDeque`.
pub fn record(kind: SpanKind, key: u64, seconds: f64) {
    if !crate::enabled() {
        return;
    }
    let event = Event {
        seq: seq_counter().fetch_add(1, Ordering::Relaxed),
        at_micros: crate::now_micros(),
        kind,
        key,
        seconds,
    };
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buffer = slot.get_or_insert_with(|| {
            let buffer: Buffer = Arc::new(Mutex::new(VecDeque::with_capacity(64)));
            writers()
                .lock()
                .expect("journal writer list poisoned")
                .push(Arc::clone(&buffer));
            buffer
        });
        let mut q = buffer.lock().expect("journal buffer poisoned");
        if q.len() >= PER_THREAD_CAP {
            q.pop_front();
            dropped_counter().fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event);
    });
}

/// Remove and return every buffered event across all threads, sorted by
/// sequence number. Concurrent recorders keep running; their new events
/// land in the next drain.
pub fn drain() -> Vec<Event> {
    let buffers: Vec<Buffer> = writers()
        .lock()
        .expect("journal writer list poisoned")
        .clone();
    let mut out = Vec::new();
    for b in buffers {
        out.extend(b.lock().expect("journal buffer poisoned").drain(..));
    }
    out.sort_by_key(|e| e.seq);
    out
}

/// Events dropped so far across all threads (ring-buffer overwrites).
pub fn dropped() -> u64 {
    dropped_counter().load(Ordering::Relaxed)
}

/// Render a drained event list as a JSON object:
/// `{"dropped": n, "events": [{"seq":…, "at_micros":…, "kind":"…",
/// "key":…, "seconds":…}, …]}`.
pub fn to_json(events: &[Event], dropped: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{{\"dropped\": {dropped}, \"events\": [");
    for (i, e) in events.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let secs = if e.seconds.is_finite() {
            e.seconds
        } else {
            0.0
        };
        let _ = write!(
            out,
            "{sep}{{\"seq\": {}, \"at_micros\": {}, \"kind\": \"{}\", \
             \"key\": {}, \"seconds\": {:.9}}}",
            e.seq,
            e.at_micros,
            e.kind.name(),
            e.key,
            secs
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `drain` empties every thread's ring, so a test that drains while
    /// another fills its own ring would steal the events (and the drops)
    /// that test counts: the draining tests take turns.
    static DRAINING: Mutex<()> = Mutex::new(());

    #[test]
    fn events_drain_in_sequence_order() {
        let _turn = DRAINING.lock().unwrap_or_else(|e| e.into_inner());
        record(SpanKind::DrainTick, 7001, 1e-3);
        record(SpanKind::Converge, 7001, 2e-3);
        let events = drain();
        let mine: Vec<&Event> = events.iter().filter(|e| e.key == 7001).collect();
        assert_eq!(mine.len(), 2);
        assert!(mine[0].seq < mine[1].seq);
        assert_eq!(mine[0].kind, SpanKind::DrainTick);
        // Drained means gone.
        assert!(drain().iter().all(|e| e.key != 7001));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        // Overfill from this thread only; other tests' events on other
        // threads are unaffected.
        let _turn = DRAINING.lock().unwrap_or_else(|e| e.into_inner());
        let before = dropped();
        for i in 0..(PER_THREAD_CAP as u64 + 10) {
            record(SpanKind::WalAppend, 8000 + i, 0.0);
        }
        assert!(dropped() >= before + 10);
        let events = drain();
        let mine: Vec<&Event> = events.iter().filter(|e| e.key >= 8000).collect();
        assert!(mine.len() <= PER_THREAD_CAP);
        // The survivors are the newest.
        assert!(mine.iter().all(|e| e.key >= 8010));
    }

    #[test]
    fn json_shape_is_parseable_by_eye() {
        let events = [Event {
            seq: 1,
            at_micros: 5,
            kind: SpanKind::BackpressureReject,
            key: 3,
            seconds: 0.0,
        }];
        let j = to_json(&events, 2);
        assert!(j.starts_with("{\"dropped\": 2"));
        assert!(j.contains("\"kind\": \"backpressure_reject\""));
        assert!(j.ends_with("]}"));
    }
}

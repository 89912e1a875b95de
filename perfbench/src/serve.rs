//! The `serve` workload: durable D&S sessions in `CrowdServe` fed by a
//! feeder thread (submits and drain ticks) beside a paced reader thread.
//!
//! - (a) Closed loop: each round submits one batch per session, then
//!   runs one drain tick. Fixed schedule, so its WAL, converge counts
//!   and truths are deterministic.
//! - (b) Crash and recover: the service of the last (a) pass is dropped
//!   without evicting and `CrowdServe::recover` rebuilds it from its
//!   logs; the recovered truths must match bit for bit.
//! - (c) Open loop on a fresh service: batches fall due on a fixed
//!   schedule at a constant offered rate, drain ticks run once per fixed
//!   period, and each batch's lag runs from its due time to the end of
//!   the first tick after which its session's published `cum_batches`
//!   covers it.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crowd_core::Method;
use crowd_data::datasets::PaperDataset;
use crowd_data::{collect, Answer, AnswerRecord, AssignmentStrategy, Dataset};
use crowd_metrics::{accuracy, f1_score};
use crowd_serve::{
    CrowdServe, DurabilityConfig, FsyncPolicy, RecoveryReport, ServeConfig, SessionId, TickReport,
    TruthReader,
};
use crowd_stream::StreamConfig;

use crate::probe::{exec_metrics, kernel_metrics, ObsDelta};
use crate::report::{num, Outcome};
use crate::stats::{geomean_of_cell_medians, median, percentile, Dist};
use crate::trace::{Layer, Tracer};
use crate::RunConfig;

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub sessions: usize,
    /// D_Product scale of each session's stream.
    pub scale: f64,
    /// Answers per batch in the closed loop (a).
    pub batch_a: usize,
    /// Answers per batch in the open loop (c).
    pub batch_c: usize,
    /// Offered rate of the open loop, answers per second.
    pub rate: f64,
    /// Drain-tick period of the open loop.
    pub tick_period: Duration,
    /// Interval between two reads of the paced reader.
    pub read_period: Duration,
}

impl Sizes {
    pub fn new(tiny: bool) -> Self {
        if tiny {
            Self {
                sessions: 3,
                scale: 0.05,
                batch_a: 20,
                batch_c: 10,
                rate: 20_000.0,
                tick_period: Duration::from_millis(10),
                read_period: Duration::from_micros(200),
            }
        } else {
            Self {
                sessions: 8,
                scale: 0.5,
                batch_a: 100,
                batch_c: 50,
                rate: 10_000.0,
                tick_period: Duration::from_millis(50),
                read_period: Duration::from_micros(500),
            }
        }
    }

    pub fn to_json(&self) -> String {
        let c = PaperDataset::DProduct.config(self.scale);
        format!(
            "{{\"sessions\": {}, \"dataset\": \"D_Product\", \"scale\": {}, \"tasks\": {}, \
             \"workers\": {}, \"redundancy\": {}, \"batch_a\": {}, \"batch_c\": {}, \
             \"rate_answers_per_s\": {}, \"tick_period_ms\": {}, \"read_period_us\": {}, \
             \"shards\": {}, \"fsync\": \"never\"}}",
            self.sessions,
            self.scale,
            c.num_tasks,
            c.num_workers,
            c.redundancy,
            self.batch_a,
            self.batch_c,
            self.rate,
            self.tick_period.as_secs_f64() * 1e3,
            self.read_period.as_secs_f64() * 1e6,
            ServeConfig::default().shards
        )
    }
}

/// A session's answer stream cut into batches of `size`.
fn batches(stream: &Dataset, size: usize) -> Vec<Vec<AnswerRecord>> {
    stream.records().chunks(size).map(<[_]>::to_vec).collect()
}

fn generate(sizes: &Sizes, seed: u64, tracer: &mut Tracer) -> Result<Vec<Dataset>, String> {
    let cfg = PaperDataset::DProduct.config(sizes.scale);
    let budget = cfg.num_tasks * cfg.redundancy;
    (0..sizes.sessions)
        .map(|s| {
            let session_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (s as u64 + 1);
            tracer
                .span(Layer::Data, "data.collect", || {
                    collect(&cfg, AssignmentStrategy::Uniform, budget, session_seed)
                })
                .map(|run| run.dataset)
                .map_err(|e| format!("collect: {e}"))
        })
        .collect()
}

/// A snapshot cadence that never lands on a session's last converge
/// (every (a) round converges each session once), so the recovered
/// sessions replay a last report to compare.
fn snapshot_cadence(streams: &[Dataset], batch: usize) -> u64 {
    (4..64u64)
        .find(|&k| {
            streams
                .iter()
                .all(|s| !(s.num_answers().div_ceil(batch) as u64).is_multiple_of(k))
        })
        .unwrap_or(0)
}

fn serve_config(dir: &Path, snapshot_every: u64) -> ServeConfig {
    ServeConfig {
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never,
            snapshot_every_converges: snapshot_every,
            max_session_restarts: 3,
        }),
        ..ServeConfig::default()
    }
}

/// A set-up service: the streams and their sessions.
struct Service {
    streams: Vec<Dataset>,
    serve: CrowdServe,
    ids: Vec<SessionId>,
    config: ServeConfig,
}

fn setup(sizes: &Sizes, seed: u64, dir: &Path, tracer: &mut Tracer) -> Result<Service, String> {
    let streams = generate(sizes, seed, tracer)?;
    let _ = std::fs::remove_dir_all(dir);
    let config = serve_config(dir, snapshot_cadence(&streams, sizes.batch_a));
    let serve = tracer
        .span(Layer::Serve, "serve.new", || {
            CrowdServe::new(config.clone())
        })
        .map_err(|e| format!("CrowdServe::new: {e}"))?;
    let ids = streams
        .iter()
        .map(|d| {
            tracer
                .span(Layer::Serve, "serve.create_session", || {
                    serve.create_session(StreamConfig::new(
                        Method::Ds,
                        d.task_type(),
                        d.num_tasks(),
                        d.num_workers(),
                    ))
                })
                .map_err(|e| format!("create_session: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Service {
        streams,
        serve,
        ids,
        config,
    })
}

/// A tick's failures, if any.
fn tick_failure(t: &TickReport) -> Option<String> {
    (!t.errors.is_empty() || t.shard_failures > 0 || !t.poisoned.is_empty()).then(|| {
        format!(
            "drain_tick: {} errors, {} shard failures, {} poisoned",
            t.errors.len(),
            t.shard_failures,
            t.poisoned.len()
        )
    })
}

/// Read `readers` round-robin once per `period` until `stop`; returns
/// each read's latency in ns.
fn paced_reader(readers: &[TruthReader], stop: &AtomicBool, period: Duration) -> Vec<f64> {
    let mut samples = Vec::new();
    let mut next = Instant::now();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now < next {
            std::thread::sleep(next - now);
            continue;
        }
        let t = Instant::now();
        std::hint::black_box(readers[i % readers.len()].snapshot());
        samples.push(t.elapsed().as_secs_f64() * 1e9);
        i += 1;
        // A fixed rate: no burst to catch up after an oversleep.
        next = (next + period).max(now);
    }
    samples
}

/// Final truths of every session (truths and posterior bits).
type Truths = Vec<(Vec<Answer>, Vec<u64>)>;

fn final_truths(serve: &CrowdServe, ids: &[SessionId]) -> Result<Truths, String> {
    ids.iter()
        .map(|&sid| {
            let snap = serve.truth(sid).map_err(|e| format!("truth({sid}): {e}"))?;
            let report = snap
                .report
                .as_ref()
                .ok_or(format!("{sid} has no converged report"))?;
            let bits = report
                .result
                .posteriors
                .iter()
                .flatten()
                .flatten()
                .map(|x| x.to_bits())
                .collect();
            Ok((report.result.truths.clone(), bits))
        })
        .collect()
}

struct PassA {
    wall: f64,
    ticks_ms: Vec<f64>,
    reads_ns: Vec<f64>,
    answers: usize,
    accuracy: f64,
    f1: f64,
    truths: Truths,
    converges: u64,
}

fn closed_loop(
    sizes: &Sizes,
    svc: &Service,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Option<PassA> {
    let batches: Vec<Vec<Vec<AnswerRecord>>> = svc
        .streams
        .iter()
        .map(|s| batches(s, sizes.batch_a))
        .collect();
    let rounds = batches.iter().map(Vec::len).max().unwrap_or(0);
    let readers = match svc
        .ids
        .iter()
        .map(|&sid| svc.serve.reader(sid))
        .collect::<Result<Vec<TruthReader>, _>>()
    {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("reader: {e}"));
            return None;
        }
    };
    let stop = AtomicBool::new(false);
    let mut ticks_ms = Vec::with_capacity(rounds);
    let mut submitted = 0usize;
    let mut ingested = 0usize;
    let (wall, reads_ns) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| paced_reader(&readers, &stop, sizes.read_period));
        let start = Instant::now();
        for round in 0..rounds {
            let mut ids = Vec::with_capacity(svc.ids.len());
            for (k, b) in batches.iter().enumerate() {
                let Some(batch) = b.get(round) else { continue };
                let records = batch.clone();
                let n = records.len();
                let batch_id = tracer.batch_id();
                let t0 = Instant::now();
                let r = svc.serve.submit(svc.ids[k], records);
                tracer.record(
                    Layer::Serve,
                    "serve.submit",
                    t0,
                    Instant::now(),
                    vec![batch_id],
                );
                out.op(r.is_ok(), || format!("submit: {:?}", r.as_ref().err()));
                submitted += n;
                ids.push(batch_id);
            }
            let t0 = Instant::now();
            let tick = svc.serve.drain_tick();
            let t1 = Instant::now();
            tracer.record(Layer::Serve, "serve.drain_tick", t0, t1, ids);
            ticks_ms.push((t1 - t0).as_secs_f64() * 1e3);
            ingested += tick.answers_ingested;
            let why = tick_failure(&tick);
            out.op(why.is_none(), || why.unwrap_or_default());
        }
        let wall = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        (wall, reader.join().expect("reader thread panicked"))
    });
    if ingested != submitted {
        out.fail(format!(
            "closed loop ingested {ingested} of {submitted} answers"
        ));
    }
    for (k, &sid) in svc.ids.iter().enumerate() {
        let want = batches[k].len() as u64;
        match svc.serve.truth(sid) {
            Ok(s) if s.cum_batches == want && !s.stats.poisoned => {}
            Ok(s) => out.fail(format!("{sid}: cum_batches {} of {want}", s.cum_batches)),
            Err(e) => out.fail(format!("truth({sid}): {e}")),
        }
    }
    let truths = match final_truths(&svc.serve, &svc.ids) {
        Ok(t) => t,
        Err(e) => {
            out.fail(e);
            return None;
        }
    };
    let mut acc = 0.0;
    let mut f1 = 0.0;
    for ((t, _), s) in truths.iter().zip(&svc.streams) {
        if t.len() != s.num_tasks() {
            out.fail(format!("{} truths for {} tasks", t.len(), s.num_tasks()));
            return None;
        }
        acc += accuracy(s, t);
        f1 += f1_score(s, t);
    }
    let converges = svc
        .ids
        .iter()
        .filter_map(|&sid| svc.serve.truth(sid).ok())
        .map(|s| s.stats.converges as u64)
        .sum();
    let n = truths.len() as f64;
    Some(PassA {
        wall,
        ticks_ms,
        reads_ns,
        answers: submitted,
        accuracy: acc / n,
        f1: f1 / n,
        truths,
        converges,
    })
}

/// One timed recovery; the recovered truths must equal `expected`.
fn recover(
    svc_config: &ServeConfig,
    expected: &Truths,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Option<(f64, RecoveryReport)> {
    let t0 = Instant::now();
    let r = tracer.span(Layer::Durable, "durable.recover", || {
        CrowdServe::recover(svc_config.clone())
    });
    let secs = t0.elapsed().as_secs_f64();
    let (serve, report) = match r {
        Ok(x) => x,
        Err(e) => {
            out.op(false, || format!("recover: {e}"));
            return None;
        }
    };
    let ok = report.sessions_recovered == expected.len() && report.sessions_skipped == 0;
    out.op(ok, || {
        format!(
            "recover: {} recovered, {} skipped of {}",
            report.sessions_recovered,
            report.sessions_skipped,
            expected.len()
        )
    });
    match final_truths(&serve, &serve.sessions()) {
        Ok(t) if &t == expected => {}
        Ok(_) => out.fail("recovered truths differ from the pre-crash truths".to_string()),
        Err(e) => out.fail(format!("after recover: {e}")),
    }
    Some((secs, report))
}

/// Open-loop results.
struct OpenLoop {
    /// Lag of every batch, indexed by batch (NaN if it never showed).
    lags_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    ticks_ms: Vec<f64>,
    tick_answers: Vec<f64>,
    duration_s: f64,
    answers: usize,
}

/// A batch waiting to become visible.
struct Pending {
    seq: u64,
    due: Instant,
    submitted: Instant,
    /// Index in due order.
    index: usize,
    /// Trace id shared by the batch's spans.
    id: u64,
}

/// The open-loop generator. `batches` is `(session index, records)` in due
/// order, the sessions numbered from 0; batch `i` falls due `i × interval` after the start and a
/// drain tick runs at every multiple of `period` (missed ticks are
/// skipped, not run back to back). `tick` runs one drain tick and
/// returns the answers it ingested and each session's published
/// `cum_batches`.
fn open_loop(
    batches: Vec<(usize, Vec<AnswerRecord>)>,
    interval: Duration,
    period: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
    mut submit: impl FnMut(usize, Vec<AnswerRecord>) -> Result<(), String>,
    mut tick: impl FnMut() -> Result<(usize, Vec<u64>), String>,
) -> OpenLoop {
    let total = batches.len();
    let answers = batches.iter().map(|(_, r)| r.len()).sum();
    let sessions = batches.iter().map(|(k, _)| k + 1).max().unwrap_or(0);
    let mut pending: Vec<VecDeque<Pending>> = (0..sessions).map(|_| VecDeque::new()).collect();
    let mut seq = vec![0u64; sessions];
    let mut res = OpenLoop {
        lags_ms: vec![f64::NAN; total],
        late_ms: Vec::with_capacity(total),
        submit_us: Vec::with_capacity(total),
        queue_wait_ms: Vec::with_capacity(total),
        ticks_ms: Vec::new(),
        tick_answers: Vec::new(),
        duration_s: 0.0,
        answers,
    };
    let planned = interval.mul_f64(total as f64);
    let give_up = planned * 3 + Duration::from_secs(5);
    let start = Instant::now();
    let mut next_tick = start + period;
    let mut iter = batches.into_iter().enumerate().peekable();
    loop {
        let due = iter
            .peek()
            .map(|(i, _)| start + interval.mul_f64(*i as f64));
        if due.is_none() && pending.iter().all(VecDeque::is_empty) {
            break;
        }
        if start.elapsed() > give_up {
            out.fail(format!("open loop did not finish within {give_up:?}"));
            break;
        }
        let next = due.map_or(next_tick, |d| d.min(next_tick));
        let now = Instant::now();
        if now < next {
            std::thread::sleep(next - now);
            tracer.record(Layer::Idle, "gen.wait", now, Instant::now(), Vec::new());
            continue;
        }
        if let Some(due) = due.filter(|&d| d <= next_tick) {
            let (i, (k, records)) = iter.next().expect("peeked");
            let id = tracer.batch_id();
            let t0 = Instant::now();
            let r = submit(k, records);
            let t1 = Instant::now();
            tracer.record(Layer::Serve, "serve.submit", t0, t1, vec![id]);
            out.op(r.is_ok(), || r.clone().err().unwrap_or_default());
            res.late_ms.push((t0 - due).as_secs_f64() * 1e3);
            res.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
            seq[k] += 1;
            pending[k].push_back(Pending {
                seq: seq[k],
                due,
                submitted: t1,
                index: i,
                id,
            });
            continue;
        }
        let t0 = Instant::now();
        let r = tick();
        let t1 = Instant::now();
        let ids: Vec<u64>;
        match r {
            Ok((ingested, cum)) => {
                let mut published = Vec::new();
                for (k, q) in pending.iter_mut().enumerate() {
                    while q.front().is_some_and(|p| p.seq <= cum[k]) {
                        let p = q.pop_front().expect("front exists");
                        res.lags_ms[p.index] = (t1 - p.due).as_secs_f64() * 1e3;
                        res.queue_wait_ms
                            .push(t0.saturating_duration_since(p.submitted).as_secs_f64() * 1e3);
                        published.push(p.id);
                    }
                }
                ids = published;
                res.tick_answers.push(ingested as f64);
                out.op(true, String::new);
            }
            Err(e) => {
                ids = Vec::new();
                out.op(false, || e);
            }
        }
        tracer.record(Layer::Serve, "serve.drain_tick", t0, t1, ids);
        res.ticks_ms.push((t1 - t0).as_secs_f64() * 1e3);
        // Skip missed ticks: the next one is the first multiple of the
        // period after now.
        let behind = (t1 - start).as_secs_f64() / period.as_secs_f64();
        next_tick = start + period.mul_f64(behind.floor() + 1.0);
    }
    res.duration_s = start.elapsed().as_secs_f64();
    let shown = res.lags_ms.iter().filter(|x| x.is_finite()).count();
    if shown != total {
        out.fail(format!(
            "{shown} of {total} open-loop batches became visible"
        ));
        res.lags_ms.retain(|x| x.is_finite());
    }
    res
}

fn run_open_loop(sizes: &Sizes, svc: &Service, tracer: &mut Tracer, out: &mut Outcome) -> OpenLoop {
    // Interleave the sessions' batches round-robin.
    let per: Vec<Vec<Vec<AnswerRecord>>> = svc
        .streams
        .iter()
        .map(|s| batches(s, sizes.batch_c))
        .collect();
    let rounds = per.iter().map(Vec::len).max().unwrap_or(0);
    let mut batches = Vec::new();
    for r in 0..rounds {
        for (k, b) in per.iter().enumerate() {
            if let Some(records) = b.get(r) {
                batches.push((k, records.clone()));
            }
        }
    }
    let interval = Duration::from_secs_f64(sizes.batch_c as f64 / sizes.rate);
    let submitted: usize = batches.iter().map(|(_, r)| r.len()).sum();
    let mut ingested = 0usize;
    let res = open_loop(
        batches,
        interval,
        sizes.tick_period,
        tracer,
        out,
        |k, records| {
            svc.serve
                .submit(svc.ids[k], records)
                .map_err(|e| format!("submit: {e}"))
        },
        || {
            let t = svc.serve.drain_tick();
            if let Some(why) = tick_failure(&t) {
                return Err(why);
            }
            ingested += t.answers_ingested;
            svc.ids
                .iter()
                .map(|&sid| {
                    svc.serve
                        .truth(sid)
                        .map(|s| s.cum_batches)
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, _>>()
                .map(|cum| (t.answers_ingested, cum))
        },
    );
    if ingested != submitted {
        out.fail(format!(
            "open loop ingested {ingested} of {submitted} answers"
        ));
    }
    res
}

/// Run the serve workload.
pub fn run(sizes: &Sizes, cfg: &RunConfig, out: &mut Outcome) {
    let mut tracer = Tracer::new(cfg.trace);
    let dir = |k: usize| -> PathBuf { cfg.work_dir.join(format!("svc-{k}")) };
    let started = Instant::now();
    let answers_total = {
        let c = PaperDataset::DProduct.config(sizes.scale);
        c.num_tasks * c.redundancy * sizes.sessions
    };
    let open_loop_s = answers_total as f64 / sizes.rate;

    let mut setup_secs = Vec::new();
    let mut generate_secs = Vec::new();
    let mut setup_fp: Option<Vec<usize>> = None;
    let mut new_service = |k: usize, tracer: &mut Tracer, out: &mut Outcome| -> Option<Service> {
        let t = Instant::now();
        let before = tracer.spans().len();
        let r = setup(sizes, cfg.seed, &dir(k), tracer);
        setup_secs.push(t.elapsed().as_secs_f64());
        generate_secs.push(
            tracer.spans()[before..]
                .iter()
                .filter(|s| s.layer == Layer::Data)
                .map(|s| s.end - s.start)
                .sum::<f64>(),
        );
        out.op(r.is_ok(), || r.as_ref().err().cloned().unwrap_or_default());
        let svc = r.ok()?;
        // Every setup must build the same inputs from the seed.
        let fp: Vec<usize> = svc.streams.iter().map(Dataset::num_answers).collect();
        if setup_fp.get_or_insert_with(|| fp.clone()) != &fp {
            out.fail("setups built different inputs from one seed".to_string());
        }
        Some(svc)
    };

    // (a) Closed-loop passes, each on a fresh service; in the traced run
    // untraced and traced passes alternate.
    let mut plain: Vec<PassA> = Vec::new();
    let mut traced: Vec<PassA> = Vec::new();
    let mut deltas = Vec::new();
    let mut last: Option<Service> = None;
    let budget_a = (cfg.seconds - open_loop_s - 2.0).max(0.0);
    let mut k = 0;
    while k < 2 || (started.elapsed().as_secs_f64() < budget_a && k < 6) {
        let is_traced = cfg.trace && k % 2 == 1;
        tracer.set_active(cfg.trace);
        let Some(svc) = new_service(k, &mut tracer, out) else {
            return;
        };
        tracer.set_active(is_traced);
        let before = is_traced.then(crowd_obs::snapshot);
        let pass = closed_loop(sizes, &svc, &mut tracer, out);
        if let Some(b) = before {
            deltas.push(ObsDelta::new(b, crowd_obs::snapshot()));
        }
        tracer.set_active(cfg.trace);
        let Some(pass) = pass else { return };
        let reference = plain.first().or(traced.first());
        if reference.is_some_and(|r| {
            r.truths != pass.truths
                || r.accuracy.to_bits() != pass.accuracy.to_bits()
                || r.converges != pass.converges
        }) {
            out.fail("closed-loop truths or quality differ between passes of one run".to_string());
        }
        if is_traced {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
        last = Some(svc);
        k += 1;
    }

    // (b) Crash: drop the last service without evicting, then recover.
    // Every pass published the same truths (checked above).
    let last = last.expect("two closed-loop passes ran");
    let reference = plain.first().or(traced.first()).expect("a pass ran");
    let expected = reference.truths.clone();
    let recover_config = last.config.clone();
    drop(last);
    let mut recoveries = Vec::new();
    for _ in 0..3 {
        if let Some(r) = recover(&recover_config, &expected, &mut tracer, out) {
            recoveries.push(r);
        }
    }

    // (c) Open loop on a fresh service.
    let Some(svc) = new_service(k, &mut tracer, out) else {
        return;
    };
    let open = run_open_loop(sizes, &svc, &mut tracer, out);
    drop(svc);

    let recover_s: Vec<f64> = recoveries.iter().map(|(s, _)| *s).collect();
    let lag = Dist::of(&open.lags_ms);
    out.detail(
        "phases",
        format!(
            "{{\"closed_loop_passes\": {}, \"recover_s\": {{\"value\": {}, \"n\": {}}}, \
             \"open_loop\": {{\"batches\": {}, \"answers\": {}, \"duration_s\": {}, \
             \"offered_answers_per_s\": {}, \"achieved_answers_per_s\": {}, \"ticks\": {}, \
             \"late_p99_ms\": {}, \"late_max_ms\": {}, \"lag_p50_ms\": {}, \"lag_p99_ms\": {}, \"lag_n\": {}}}}}",
            plain.len() + traced.len(),
            num(median(&recover_s)),
            recover_s.len(),
            open.lags_ms.len(),
            open.answers,
            num(open.duration_s),
            sizes.rate,
            num(open.answers as f64 / open.duration_s),
            open.ticks_ms.len(),
            num(percentile(&open.late_ms, 0.99)),
            num(open.late_ms.iter().copied().fold(0.0, f64::max)),
            num(lag.p50),
            num(lag.p99),
            lag.n,
        ),
    );

    if !cfg.trace {
        let walls: Vec<f64> = plain.iter().map(|p| p.wall).collect();
        let ticks: Vec<Vec<f64>> = plain.iter().map(|p| p.ticks_ms.clone()).collect();
        let reads: Vec<f64> = plain
            .iter()
            .flat_map(|p| p.reads_ns.iter().copied())
            .collect();
        let read = Dist::of(&reads);
        let infer_s = median(&walls);
        out.metric_n("setup_s", median(&setup_secs), "s", setup_secs.len());
        out.metric_n("infer_s", infer_s, "s", walls.len());
        out.metric_n(
            "infer_geomean_ms",
            geomean_of_cell_medians(&ticks),
            "ms",
            ticks.len(),
        );
        out.metric_n(
            "ingest_answers_per_s",
            reference.answers as f64 / infer_s,
            "answers/s",
            walls.len(),
        );
        out.metric_n("lag_p50_ms", lag.p50, "ms", lag.n);
        out.metric_n(
            "accuracy",
            reference.accuracy,
            "ratio",
            reference.truths.len(),
        );
        out.metric_n("f1", reference.f1, "ratio", reference.truths.len());
        out.detail(
            "reads",
            format!(
                "{{\"p50_ns\": {}, \"p99_ns\": {}, \"n\": {}}}",
                num(read.p50),
                num(read.p99),
                read.n
            ),
        );
        return;
    }

    // Per-layer metrics of the traced run.
    out.metric_n(
        "data.generate_s",
        median(&generate_secs),
        "s",
        generate_secs.len(),
    );
    let delta = ObsDelta::merged(&deltas).expect("a traced closed-loop pass ran");
    let n_traced = traced.len().max(1) as f64;
    let (conv_p99, conv_n) = delta.hist_quantile("stream.engine.converge_seconds", 0.99);
    out.metric_n(
        "stream.converge_ms",
        delta.hist_sum("stream.engine.converge_seconds") * 1e3 / n_traced,
        "ms",
        conv_n as usize,
    );
    out.metric_n(
        "stream.converge_p99_ms",
        conv_p99 * 1e3,
        "ms",
        conv_n as usize,
    );
    out.metric(
        "stream.converge_iters",
        delta.hist_sum("stream.engine.converge_iterations") / n_traced,
        "count",
    );
    out.metric(
        "stream.cold_converges",
        delta.counter("stream.engine.cold_converges_total") as f64 / n_traced,
        "count",
    );
    out.metric(
        "stream.warm_resumes",
        delta.counter("stream.engine.warm_resumes_total") as f64 / n_traced,
        "count",
    );
    out.metric_n(
        "obs.estep_s",
        delta.hist_sum("core.kernel.estep_seconds") / n_traced,
        "s",
        delta.hist_count("core.kernel.estep_seconds") as usize,
    );
    exec_metrics(out, &delta);
    let (wal_p99, wal_n) = delta.hist_quantile("serve.wal.append_seconds", 0.99);
    out.metric_n(
        "durable.wal_append_p99_us",
        wal_p99 * 1e6,
        "us",
        wal_n as usize,
    );
    out.metric_n(
        "durable.snapshot_write_ms",
        delta.hist_sum("serve.snapshot.write_seconds") * 1e3 / n_traced,
        "ms",
        delta.hist_count("serve.snapshot.write_seconds") as usize,
    );
    if let Some((_, rep)) = recoveries.last() {
        out.metric(
            "durable.wal_bytes",
            rep.per_session.iter().map(|s| s.wal_bytes).sum::<u64>() as f64,
            "bytes",
        );
        out.metric(
            "recover.converges_replayed",
            rep.converges_replayed as f64,
            "count",
        );
    }
    let phase = |f: fn(&RecoveryReport) -> Duration| -> f64 {
        median(
            &recoveries
                .iter()
                .map(|(_, r)| f(r).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    out.metric_n("recover.total_s", median(&recover_s), "s", recover_s.len());
    out.metric_n(
        "recover.scan_s",
        phase(|r| r.timings.scan),
        "s",
        recoveries.len(),
    );
    out.metric_n(
        "recover.snapshot_load_s",
        phase(|r| r.timings.snapshot_load),
        "s",
        recoveries.len(),
    );
    out.metric_n(
        "recover.replay_s",
        phase(|r| r.timings.replay),
        "s",
        recoveries.len(),
    );
    out.metric_n(
        "recover.requeue_s",
        phase(|r| r.timings.requeue),
        "s",
        recoveries.len(),
    );

    let submit = Dist::of(&open.submit_us);
    out.metric_n("serve.submit_p50_us", submit.p50, "us", submit.n);
    out.metric_n("serve.submit_p99_us", submit.p99, "us", submit.n);
    out.metric_n(
        "serve.queue_wait_p50_ms",
        percentile(&open.queue_wait_ms, 0.5),
        "ms",
        open.queue_wait_ms.len(),
    );
    let ticks = Dist::of(&open.ticks_ms);
    out.metric_n("serve.tick_p50_ms", ticks.p50, "ms", ticks.n);
    out.metric_n("serve.tick_p99_ms", ticks.p99, "ms", ticks.n);
    out.metric_n(
        "serve.tick_answers",
        open.tick_answers.iter().sum::<f64>() / open.tick_answers.len().max(1) as f64,
        "answers",
        open.tick_answers.len(),
    );
    let reads: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.reads_ns.iter().copied())
        .collect();
    let read = Dist::of(&reads);
    out.metric_n("serve.read_p50_ns", read.p50, "ns", read.n);
    out.metric_n("serve.read_p99_ns", read.p99, "ns", read.n);
    out.metric_n("serve.lag_p99_ms", lag.p99, "ms", lag.n);
    out.metric_n(
        "gen.late_max_ms",
        open.late_ms.iter().copied().fold(0.0, f64::max),
        "ms",
        open.late_ms.len(),
    );

    let rows = PaperDataset::SRel.config(0.1).num_tasks;
    kernel_metrics(out, &mut tracer, rows, 4, cfg.seed);
    crate::trace_metrics(
        out,
        &tracer,
        plain.iter().map(|p| p.wall),
        traced.iter().map(|p| p.wall),
    );
    cfg.write_trace(&tracer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn rec(task: usize) -> AnswerRecord {
        AnswerRecord {
            task,
            worker: 0,
            answer: Answer::Label(0),
        }
    }

    /// One stalled tick: batches due during the stall are submitted late
    /// and their lag still runs from their due time.
    #[test]
    fn open_loop_lag_runs_from_due_time_across_a_stall() {
        let interval = Duration::from_millis(2);
        let period = Duration::from_millis(10);
        let batches: Vec<(usize, Vec<AnswerRecord>)> =
            (0..20).map(|i| (i % 2, vec![rec(i)])).collect();
        let queued = Cell::new([0u64; 2]);
        let mut ticks = 0;
        let mut tracer = Tracer::new(true);
        let mut out = Outcome::default();
        let res = open_loop(
            batches,
            interval,
            period,
            &mut tracer,
            &mut out,
            |k, _| {
                let mut q = queued.get();
                q[k] += 1;
                queued.set(q);
                Ok(())
            },
            || {
                ticks += 1;
                if ticks == 1 {
                    // The first tick stalls for 30 ms.
                    std::thread::sleep(Duration::from_millis(30));
                }
                Ok((1, queued.get().to_vec()))
            },
        );
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(res.lags_ms.len(), 20);
        assert!(res.lags_ms.iter().all(|x| x.is_finite()));
        // Batch 0 is due at 0 ms and visible only after the stalled tick
        // (due at 10 ms, ends ≥ 40 ms): its lag counts the stall.
        assert!(res.lags_ms[0] >= 38.0, "{:?}", res.lags_ms);
        // Batches due during the stall (10..40 ms) were submitted late.
        let late_max = res.late_ms.iter().copied().fold(0.0, f64::max);
        assert!(late_max >= 20.0, "generator lateness {late_max}");
        // Every lag is at least the lateness of its own submission (both
        // indexed by batch).
        for (lag, late) in res.lags_ms.iter().zip(&res.late_ms) {
            assert!(lag >= late);
        }
        // The stall skipped the ticks due at 20 and 30 ms.
        assert!(res.ticks_ms.len() <= 5, "{} ticks", res.ticks_ms.len());
        assert!(tracer.spans().iter().any(|s| s.layer == Layer::Idle));
    }
}

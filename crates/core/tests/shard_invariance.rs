//! Shard-invariance property tests: every view-level method must be
//! **bit-identical** to its one-shard run (the view batch `infer`
//! builds) — posteriors, truths, worker quality, iteration count — at
//! every shard count, including the adversarial directory shapes (more
//! shards than tasks, one task per shard, empty shards from gap-heavy
//! logs), and on logs whose arrival order is not grouped by task.
//!
//! Why bit equality is the right bar (and achievable): E-steps are
//! per-task independent, so fanning them out by task chunk changes
//! nothing; the M-steps fold each worker's per-shard adjacency rows in
//! ascending shard order over the *canonical* task-ascending worker
//! rows, so the non-associative f64 accumulation visits answers in the
//! same order at any shard count, whatever the arrival order. GLAD never
//! walks a worker row at all.

use crowd_core::methods::{Ds, Glad, Lfc, Mv, Zc};
use crowd_core::views::{Cat, ShardedView};
use crowd_core::{InferenceOptions, InferenceResult, TruthInference, WorkerQuality};
use crowd_data::{Dataset, DatasetBuilder, StreamSim, TaskType};

/// The tested shard counts: the required {1, 2, 7, 16} plus `n` (every
/// shard holds one task) and `n + 5` (tail shards are empty ranges).
fn shard_counts(n: usize) -> Vec<usize> {
    vec![1, 2, 7, 16, n, n + 5]
}

fn fixtures() -> Vec<(&'static str, Dataset)> {
    // A streamed synthetic log (task-major by construction)…
    let streamed = StreamSim::new(11, 60, 12, 3, 4).to_dataset("streamed");
    // …and a hand-built ragged log with answer gaps (tasks 3 and 7
    // empty) so some shards come out empty even at low shard counts.
    let mut b = DatasetBuilder::new("ragged", TaskType::DecisionMaking, 9, 5);
    for (t, w, l) in [
        (0usize, 0usize, 0u8),
        (0, 1, 1),
        (0, 2, 0),
        (1, 3, 1),
        (1, 4, 1),
        (2, 0, 0),
        (4, 1, 0),
        (4, 2, 1),
        (4, 3, 0),
        (5, 4, 0),
        (6, 0, 1),
        (6, 1, 1),
        (8, 2, 0),
        (8, 4, 1),
    ] {
        b.add_label(t, w, l).unwrap();
    }
    let ragged = b.build();
    // …and a log that arrives worker by worker, so no worker's answers
    // come in task order and most tasks' answers are interleaved.
    let mut b = DatasetBuilder::new("worker-major", TaskType::SingleChoice { choices: 3 }, 23, 6);
    for w in (0..6usize).rev() {
        for t in (0..23usize).filter(|t| (t * 7 + w * 3) % 5 < 3) {
            b.add_label(22 - t, w, ((t + w) % 3) as u8).unwrap();
        }
    }
    let worker_major = b.build();
    // …and a log large enough that the E-step fans out over the pool
    // whenever more than one thread is allowed.
    let wide = StreamSim::new(13, 1500, 40, 3, 3).to_dataset("wide");
    vec![
        ("streamed", streamed),
        ("ragged", ragged),
        ("worker-major", worker_major),
        ("wide", wide),
    ]
}

/// The dataset's log as a view over `shards` task-range shards, built
/// the way a stream builds it (records in arrival order).
fn view_at(d: &Dataset, shards: usize) -> ShardedView {
    ShardedView::from_records(
        d.num_tasks(),
        d.num_workers(),
        d.num_choices().unwrap() as usize,
        shards,
        d.records()
            .iter()
            .map(|r| (r.task as u32, r.worker as u32, r.answer.label().unwrap())),
        vec![None; d.num_tasks()],
    )
}

fn posterior_bits(r: &InferenceResult) -> Vec<u64> {
    r.posteriors
        .as_ref()
        .expect("method reports posteriors")
        .iter()
        .flatten()
        .map(|p| p.to_bits())
        .collect()
}

fn quality_bits(r: &InferenceResult) -> Vec<u64> {
    r.worker_quality
        .iter()
        .flat_map(|q| match q {
            WorkerQuality::Probability(p) => vec![p.to_bits()],
            WorkerQuality::Confusion(m) => m
                .iter()
                .flatten()
                .map(|c| c.to_bits())
                .collect::<Vec<u64>>(),
            WorkerQuality::Unmodeled => vec![],
            other => panic!("unexpected quality kind {other:?}"),
        })
        .collect()
}

fn assert_identical(
    name: &str,
    shards: usize,
    reference: &InferenceResult,
    sharded: &InferenceResult,
) {
    assert_eq!(
        reference.truths, sharded.truths,
        "{name}: truths diverged at {shards} shards"
    );
    assert_eq!(
        posterior_bits(reference),
        posterior_bits(sharded),
        "{name}: posteriors diverged at {shards} shards"
    );
    assert_eq!(
        quality_bits(reference),
        quality_bits(sharded),
        "{name}: worker quality diverged at {shards} shards"
    );
    assert_eq!(
        (reference.iterations, reference.converged),
        (sharded.iterations, sharded.converged),
        "{name}: trajectory diverged at {shards} shards"
    );
}

/// Run `infer_view` serially on the one-shard view batch `infer` builds
/// (the reference), then with three threads through `infer` itself and
/// on the stream-built view at every tested shard count, and require
/// bit identity.
fn check_method(
    name: &str,
    method: &dyn TruthInference,
    infer_view: impl Fn(&ShardedView, &InferenceOptions) -> InferenceResult,
) {
    for (dataset_name, d) in fixtures() {
        let serial = InferenceOptions {
            threads: Some(1),
            ..InferenceOptions::seeded(17)
        };
        let options = InferenceOptions {
            threads: Some(3),
            ..InferenceOptions::seeded(17)
        };
        let label = format!("{name}/{dataset_name}");
        let one_shard = ShardedView::build("shard-test", &d, &serial, true).unwrap();
        assert_eq!(one_shard.num_shards(), 1);
        let reference = infer_view(&one_shard, &serial);
        assert_identical(&label, 1, &reference, &method.infer(&d, &options).unwrap());
        for shards in shard_counts(d.num_tasks()) {
            let sharded = infer_view(&view_at(&d, shards), &options);
            assert_identical(&label, shards, &reference, &sharded);
        }
    }
}

#[test]
fn ds_bit_identical_across_shard_counts() {
    check_method("D&S", &Ds, |view, o| Ds.infer_view(view, o).unwrap());
}

#[test]
fn lfc_bit_identical_across_shard_counts() {
    check_method("LFC", &Lfc::default(), |view, o| {
        Lfc::default().infer_view(view, o).unwrap()
    });
}

#[test]
fn zc_bit_identical_across_shard_counts() {
    check_method("ZC", &Zc::default(), |view, o| {
        Zc::default().infer_view(view, o).unwrap()
    });
}

#[test]
fn glad_bit_identical_across_shard_counts() {
    check_method("GLAD", &Glad::default(), |view, o| {
        Glad::default().infer_view(view, o).unwrap()
    });
}

#[test]
fn mv_bit_identical_across_shard_counts() {
    check_method("MV", &Mv, |view, o| Mv.infer_view(view, o).unwrap());
}

#[test]
fn warm_started_sharded_runs_stay_bit_identical() {
    // Warm starts (the streaming resume path) must not break the
    // guarantee: resume every shard count from the same previous state
    // and compare with the one-shard resume.
    let d = StreamSim::new(5, 40, 10, 2, 3).to_dataset("warm");
    let cold_options = InferenceOptions::seeded(3);
    let one_shard = ShardedView::build("shard-test", &d, &cold_options, true).unwrap();
    let cold = Ds.infer_view(&one_shard, &cold_options).unwrap();
    let warm_options = InferenceOptions {
        warm_start: Some(crowd_core::WarmStart::from_result(&cold)),
        ..InferenceOptions::seeded(3)
    };
    let reference = Ds.infer_view(&one_shard, &warm_options).unwrap();
    for shards in [1usize, 2, 7, 16] {
        let sharded = Ds.infer_view(&view_at(&d, shards), &warm_options).unwrap();
        assert_identical("D&S-warm", shards, &reference, &sharded);
    }
}

#[test]
fn streamed_construction_matches_sliced_construction_end_to_end() {
    // `from_records` (single-pass streaming build) must be
    // indistinguishable from slicing the equivalent flat view — run the
    // full EM on both and compare.
    let sim = StreamSim::new(29, 50, 9, 3, 3);
    let d = sim.to_dataset("stream-e2e");
    let options = InferenceOptions::seeded(8);
    // The flat view keeps golden empty (use_golden=false ⇒ no clamps) so
    // the streamed build with no golden matches.
    let cat = Cat::build("shard-test", &d, &options, false).unwrap();
    for shards in [3usize, 8] {
        let sliced = ShardedView::from_cat(&cat, shards);
        let streamed = ShardedView::from_records(
            sim.num_tasks(),
            sim.num_workers(),
            sim.num_choices() as usize,
            shards,
            sim.records(),
            vec![None; sim.num_tasks()],
        );
        let a = Ds.infer_view(&sliced, &options).unwrap();
        let b = Ds.infer_view(&streamed, &options).unwrap();
        assert_identical("D&S-streamed", shards, &a, &b);
    }
}

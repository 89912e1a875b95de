//! Thread-count invariance of Minimax: truths, posterior bits, σ-skill
//! bits and iteration counts must be identical at every `threads`
//! setting.
//!
//! Why bit equality holds: the dual ascent fans out per chunk of tasks,
//! and every model row, softmax and τ-gradient row is computed by the
//! same arithmetic whichever thread runs it; the chunk layout depends
//! only on the data. The σ-gradient fold, the one order-sensitive sum,
//! stays on the calling thread in task order. The truth update writes
//! each task's posterior row independently.
//!
//! Every fixture is above the fan-out gate (`answers × ℓ² ≥ 2¹³`), so
//! the thread counts above 1 really fan out.

use crowd_core::methods::Minimax;
use crowd_core::{InferenceOptions, InferenceResult, TruthInference, WorkerQuality};
use crowd_data::{Dataset, DatasetBuilder, GoldenSplit, StreamSim, TaskType};

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// The fan-out gate's work threshold (`PARALLEL_ESTEP_MIN_WORK`).
const GATE: usize = 1 << 13;

fn posterior_bits(r: &InferenceResult) -> Vec<u64> {
    r.posteriors
        .as_ref()
        .expect("Minimax reports posteriors")
        .iter()
        .flatten()
        .map(|p| p.to_bits())
        .collect()
}

fn skill_bits(r: &InferenceResult) -> Vec<u64> {
    r.worker_quality
        .iter()
        .flat_map(|q| match q {
            WorkerQuality::Skills(s) => s.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
            other => panic!("expected per-class skills, got {other:?}"),
        })
        .collect()
}

/// Run Minimax at every thread count and require identical outputs.
fn assert_thread_invariant(name: &str, d: &Dataset, base: InferenceOptions) {
    let l = usize::from(d.num_choices().expect("categorical fixture"));
    assert!(
        d.num_answers() * l * l >= GATE,
        "{name}: fixture below the fan-out gate"
    );
    let run = |threads| {
        let options = InferenceOptions {
            threads: Some(threads),
            ..base.clone()
        };
        Minimax::default().infer(d, &options).expect("Minimax runs")
    };
    let serial = run(1);
    for threads in THREADS {
        let r = run(threads);
        assert_eq!(
            serial.truths, r.truths,
            "{name}: truths at {threads} threads"
        );
        assert_eq!(
            posterior_bits(&serial),
            posterior_bits(&r),
            "{name}: posteriors at {threads} threads"
        );
        assert_eq!(
            skill_bits(&serial),
            skill_bits(&r),
            "{name}: σ skills at {threads} threads"
        );
        assert_eq!(
            (serial.iterations, serial.converged),
            (r.iterations, r.converged),
            "{name}: iterations at {threads} threads"
        );
    }
}

fn options(seed: u64) -> InferenceOptions {
    InferenceOptions {
        max_iterations: 6,
        ..InferenceOptions::seeded(seed)
    }
}

/// A deterministic 64-bit mix (splitmix64's finaliser).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[test]
fn two_three_and_four_choices() {
    for (l, tasks) in [(2u8, 600), (3, 300), (4, 250)] {
        let d = StreamSim::new(u64::from(l), tasks, 30, l, 4).to_dataset("sim");
        assert_thread_invariant(&format!("ℓ={l}"), &d, options(3));
    }
}

#[test]
fn golden_clamped_tasks() {
    let d = StreamSim::new(5, 400, 30, 4, 4).to_dataset("golden");
    let split = GoldenSplit::sample(&d, 0.2, 5);
    let base = InferenceOptions {
        golden: Some(split.revealed.clone()),
        ..options(5)
    };
    assert_thread_invariant("golden", &d, base);
}

#[test]
fn shuffled_records_across_several_super_blocks() {
    // 20 000 answers × 2 hypotheses span several 2¹⁴-row super-blocks,
    // and the records arrive in hashed order, not grouped by task.
    let sim = StreamSim::new(7, 5000, 60, 2, 4);
    let mut records: Vec<(u32, u32, u8)> = sim.records().collect();
    records.sort_by_key(|&(t, w, _)| mix((u64::from(t) << 32) | u64::from(w)));
    let mut b = DatasetBuilder::new(
        "shuffled",
        TaskType::SingleChoice { choices: 2 },
        sim.num_tasks(),
        sim.num_workers(),
    );
    for (t, w, label) in records {
        b.add_label(t as usize, w as usize, label).unwrap();
    }
    assert_thread_invariant("shuffled", &b.build(), options(7));
}

#[test]
fn task_larger_than_a_super_block() {
    // Task 0 is answered by 9000 workers: 18 000 model rows, more than
    // one 2¹⁴-row super-block; the other tasks are ordinary.
    let (tasks, workers) = (200usize, 9000usize);
    let mut b = DatasetBuilder::new("wide", TaskType::DecisionMaking, tasks, workers);
    let label = |t: usize, w: usize| {
        let truth = (t % 2) as u8;
        if mix((t * workers + w) as u64).is_multiple_of(4) {
            1 - truth
        } else {
            truth
        }
    };
    for w in 0..workers {
        b.add_label(0, w, label(0, w)).unwrap();
    }
    for t in 1..tasks {
        for k in 0..5 {
            let w = (t * 5 + k) % workers;
            b.add_label(t, w, label(t, w)).unwrap();
        }
    }
    assert_thread_invariant("wide task", &b.build(), options(11));
}

//! Properties of the TSV loader: arbitrary bytes never panic it, and
//! generated datasets round-trip exactly through `write_tsv`/`read_tsv`.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use crowd_data::io::{read_tsv, write_tsv};
use crowd_data::{
    datasets, CrowdSimulator, DataError, Dataset, HardTaskMode, SimulatorConfig, TaskType,
    WorkerModel,
};

/// A fresh directory for one test case.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crowd_tsv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Ids for every field but a line's last, values for its last: enough
/// to reach the label, numeric, header, duplicate and truth paths.
const IDS: &[&str] = &["t0", "t1", "w0", "w1", "", "\u{e9}"];
const GOOD_VALUES: &[&str] = &["0", "1"];
const ODD_VALUES: &[&str] = &[
    "3", "-2.5", "answer", "truth", "nan", "inf", "1e400", "256", "", " 1", "t0",
];
const ENDINGS: &[&str] = &["\n", "\r\n", "\n\n"];
/// Endings that add a field or join two lines.
const ODD_ENDINGS: &[&str] = &["\t\n", "\r"];

/// Arbitrary bytes: raw, or TSV-shaped lines, some followed by raw
/// ASCII. A shaped file has one width (2, 3 or 4 fields); about one
/// line in four has a flaw: another width, an odd value or an odd
/// ending.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    let line = (
        (0usize..12, 1usize..5),
        proptest::collection::vec(0usize..IDS.len(), 3),
        (0usize..GOOD_VALUES.len(), 0usize..ODD_VALUES.len()),
        (0usize..ENDINGS.len(), 0usize..ODD_ENDINGS.len()),
    );
    let lines = proptest::collection::vec(line, 0..6);
    let raw = proptest::collection::vec(0u8..=255, 0..24);
    (0usize..4, 0usize..4, lines, raw).prop_map(|(mode, width, lines, raw)| {
        let width = [2, 3, 3, 4][width];
        let mut text = String::new();
        for ((flaw, other_width), ids, (good, odd), (end, odd_end)) in lines {
            let n = if flaw == 0 { other_width } else { width };
            for &id in &ids[..n - 1] {
                text += IDS[id];
                text += "\t";
            }
            text += if flaw == 1 {
                ODD_VALUES[odd]
            } else {
                GOOD_VALUES[good]
            };
            text += if flaw == 2 {
                ODD_ENDINGS[odd_end]
            } else {
                ENDINGS[end]
            };
        }
        match mode {
            0 => raw,
            1 => text.bytes().chain(raw.iter().map(|b| b & 0x7f)).collect(),
            _ => text.into_bytes(),
        }
    })
}

const TASK_TYPES: [TaskType; 3] = [
    TaskType::DecisionMaking,
    TaskType::SingleChoice { choices: 4 },
    TaskType::Numeric,
];

/// `read_tsv` on the given files either fails with a typed error or
/// yields a dataset whose every record is in range, valid and unique.
fn load_is_sound(
    answers: &Path,
    truths: Option<&Path>,
    task_type: TaskType,
) -> Result<(), TestCaseError> {
    match read_tsv(answers, truths, task_type, "fuzz") {
        Err(
            DataError::Parse { .. }
            | DataError::Io(_)
            | DataError::LabelOutOfRange { .. }
            | DataError::AnswerKindMismatch { .. }
            | DataError::DuplicateAnswer { .. },
        ) => Ok(()),
        Err(other) => Err(TestCaseError::fail(format!("unexpected error {other:?}"))),
        Ok(d) => {
            let mut pairs = HashSet::new();
            for r in d.records() {
                prop_assert!(r.task < d.num_tasks() && r.worker < d.num_workers());
                prop_assert!(task_type.check_answer(&r.answer).is_ok());
                prop_assert!(pairs.insert((r.task, r.worker)), "duplicate loaded");
            }
            for truth in d.truths().iter().flatten() {
                prop_assert!(task_type.check_answer(truth).is_ok());
            }
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes as an answer file, and as a truth file beside a
    /// valid answer file, never panic the loader.
    #[test]
    fn arbitrary_bytes_never_panic(
        answers in arb_bytes(),
        truths in arb_bytes(),
        kind in 0usize..3,
    ) {
        let dir = scratch_dir("fuzz");
        let (a, t, good) = (dir.join("a.tsv"), dir.join("t.tsv"), dir.join("good.tsv"));
        std::fs::write(&a, &answers).unwrap();
        std::fs::write(&t, &truths).unwrap();
        std::fs::write(&good, "question\tworker\tanswer\nt0\tw0\t1\nt1\tw1\t0\n").unwrap();
        let task_type = TASK_TYPES[kind];
        load_is_sound(&a, None, task_type)?;
        load_is_sound(&a, Some(&t), task_type)?;
        load_is_sound(&good, Some(&t), task_type)?;
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Write `d`, read it back, and require the loaded dataset to be `d`
/// with its ids densified in first-appearance order: records in order,
/// truths, and task/worker counts. Returns the loaded dataset.
fn assert_round_trip(d: &Dataset, tag: &str) -> Dataset {
    let dir = scratch_dir(tag);
    let answers = write_tsv(d, &dir).unwrap();
    let truths = dir.join("truths.tsv");
    let truths = (d.num_truths() > 0).then_some(truths.as_path());
    let loaded = read_tsv(&answers, truths, d.task_type(), d.name()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    fn dense(map: &mut HashMap<usize, usize>, id: usize) -> usize {
        let next = map.len();
        *map.entry(id).or_insert(next)
    }
    let (mut tasks, mut workers) = (HashMap::new(), HashMap::new());
    for (got, want) in loaded.records().iter().zip(d.records()) {
        assert_eq!(got.task, dense(&mut tasks, want.task), "{tag}");
        assert_eq!(got.worker, dense(&mut workers, want.worker), "{tag}");
        assert_eq!(got.answer, want.answer, "{tag}");
    }
    assert_eq!(loaded.num_answers(), d.num_answers(), "{tag}");
    for (task, truth) in d.truths().iter().enumerate() {
        if truth.is_some() {
            assert_eq!(loaded.truth(dense(&mut tasks, task)), *truth, "{tag}");
        }
    }
    assert_eq!(loaded.num_truths(), d.num_truths(), "{tag}");
    assert_eq!(
        (loaded.num_tasks(), loaded.num_workers()),
        (tasks.len(), workers.len()),
        "{tag}"
    );
    loaded
}

#[test]
fn generated_datasets_round_trip_exactly() {
    for seed in 0..3 {
        let cat = datasets::d_product(0.05, seed);
        let num = datasets::n_emotion(0.2, seed);
        for d in [&cat, &num] {
            let loaded = assert_round_trip(d, &format!("{}_{seed}", d.name()));
            // Every task and every worker of these crowds answers, so
            // the universe survives the file unchanged.
            assert_eq!(
                (loaded.num_tasks(), loaded.num_workers()),
                (d.num_tasks(), d.num_workers()),
                "{} seed {seed}",
                d.name()
            );
        }
    }
}

#[test]
fn simulated_logs_with_idle_workers_and_partial_truth_round_trip() {
    let config = SimulatorConfig {
        name: "ragged".into(),
        task_type: TaskType::SingleChoice { choices: 4 },
        num_tasks: 300,
        num_workers: 60,
        redundancy: 3,
        truth_prior: vec![0.25; 4],
        worker_model: WorkerModel::OneCoin {
            alpha: 4.0,
            beta: 2.0,
        },
        spammer_fraction: 0.1,
        zipf_exponent: 1.2,
        truth_fraction: 0.4,
        numeric_task_offset_std: 0.0,
        hard_task_fraction: 0.2,
        hard_task_accuracy: 0.3,
        hard_task_mode: HardTaskMode::Flatten,
        truth_only_on_hard: false,
        heavy_worker_model: None,
    };
    for seed in 0..3 {
        let d = CrowdSimulator::new(config.clone(), seed).generate();
        let loaded = assert_round_trip(&d, &format!("ragged_{seed}"));
        // Idle workers never reach the file, so the loaded crowd is smaller.
        assert!(loaded.num_workers() < d.num_workers(), "seed {seed}");
        assert!(d.num_truths() < d.num_tasks(), "seed {seed}");
    }
}

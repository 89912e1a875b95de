//! TSV IO in the format of the authors' published release.
//!
//! The paper's code release ships each dataset as an answer file with
//! header `question\tworker\tanswer` and a truth file with header
//! `question\ttruth`. This module reads and writes that format so the
//! real datasets can replace the simulators when available, and so our
//! simulated logs can be exported for use with the original Python code.
//!
//! Task and worker identifiers are arbitrary strings in the files and are
//! densified to `0..n` indices on load, in first-appearance order; tasks
//! that only the truth file names come after every answered task.
//!
//! Line 1 is skipped only when it is the release header, i.e. its last
//! field is `answer` (answer file) or `truth` (truth file); any other
//! line 1 is data. Blank lines are skipped, a trailing `\r` is dropped,
//! and every [`DataError::Parse`] names the physical 1-based line.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::error::DataError;
use crate::model::{Answer, AnswerRecord, Dataset, TaskType};

/// Read a dataset from an answer TSV and an optional truth TSV.
///
/// `task_type` decides how the `answer` column is parsed: as a label index
/// for categorical types, as an `f64` for numeric; every value then passes
/// [`TaskType::check_answer`]. Lines are `task \t worker \t answer` and
/// `task \t truth`; see the module docs for the header rule.
///
/// One pass over each file's bytes: ids are borrowed from the buffer and
/// interned with one lookup each, answers are parsed straight into the
/// record log, and duplicate `(task, worker)` pairs are found afterwards
/// on the dataset's task adjacency. Errors: a non-UTF-8 file is
/// [`DataError::Io`] of kind `InvalidData`; field-count and value errors
/// come first, in file order (answer file, then truth file); then the
/// first duplicate in answer-file order, as [`DataError::DuplicateAnswer`].
/// A task named twice in the truth file keeps its last truth.
pub fn read_tsv(
    answers_path: &Path,
    truths_path: Option<&Path>,
    task_type: TaskType,
    name: &str,
) -> Result<Dataset, DataError> {
    let answers = std::fs::read(answers_path)?;
    let truth_file = truths_path.map(std::fs::read).transpose()?;
    let answers = utf8(&answers)?;

    let mut task_ids: HashMap<&str, usize> = HashMap::new();
    let mut worker_ids: HashMap<&str, usize> = HashMap::new();
    let mut records = Vec::with_capacity(answers.bytes().filter(|&b| b == b'\n').count() + 1);
    for row in rows(answers, "answer") {
        let (line, [task, worker, answer]) = row?;
        records.push(AnswerRecord {
            task: intern(&mut task_ids, task),
            worker: intern(&mut worker_ids, worker),
            answer: parse_answer(answer, task_type, line)?,
        });
    }

    let mut truths = vec![None; task_ids.len()];
    if let Some(bytes) = &truth_file {
        for row in rows(utf8(bytes)?, "truth") {
            let (line, [task, truth]) = row?;
            let task = intern(&mut task_ids, task);
            truths.resize(task_ids.len(), None);
            truths[task] = Some(parse_answer(truth, task_type, line)?);
        }
    }

    let dataset = Dataset::from_parts(
        name.to_string(),
        task_type,
        task_ids.len(),
        worker_ids.len(),
        records,
        truths,
    );
    match dataset.first_duplicate() {
        Some(r) => Err(DataError::DuplicateAnswer {
            task: r.task,
            worker: r.worker,
        }),
        None => Ok(dataset),
    }
}

/// Write `dataset` as `answers.tsv` (+ `truths.tsv` when any truth is
/// known) into `dir`, in the release format. Returns the answer-file path.
pub fn write_tsv(dataset: &Dataset, dir: &Path) -> Result<std::path::PathBuf, DataError> {
    std::fs::create_dir_all(dir)?;
    let answers_path = dir.join("answers.tsv");
    let mut out = BufWriter::new(std::fs::File::create(&answers_path)?);
    writeln!(out, "question\tworker\tanswer")?;
    for r in dataset.records() {
        writeln!(out, "t{}\tw{}\t{}", r.task, r.worker, fmt_answer(&r.answer))?;
    }
    out.flush()?;

    if dataset.num_truths() > 0 {
        let truths_path = dir.join("truths.tsv");
        let mut out = BufWriter::new(std::fs::File::create(&truths_path)?);
        writeln!(out, "question\ttruth")?;
        for (task, truth) in dataset.truths().iter().enumerate() {
            if let Some(t) = truth {
                writeln!(out, "t{}\t{}", task, fmt_answer(t))?;
            }
        }
        out.flush()?;
    }
    Ok(answers_path)
}

fn fmt_answer(a: &Answer) -> String {
    match a {
        Answer::Label(l) => l.to_string(),
        Answer::Numeric(v) => format!("{v}"),
    }
}

fn utf8(bytes: &[u8]) -> Result<&str, DataError> {
    std::str::from_utf8(bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e).into())
}

/// The dense index of `id`, assigning the next one on first sight.
fn intern<'a>(ids: &mut HashMap<&'a str, usize>, id: &'a str) -> usize {
    let next = ids.len();
    *ids.entry(id).or_insert(next)
}

/// The data rows of a TSV text as `(physical line, fields)`: blank lines
/// and a line-1 header ending in the field `header` are skipped, and a
/// row without exactly `N` tab-separated fields is a parse error.
fn rows<'a, const N: usize>(
    text: &'a str,
    header: &'a str,
) -> impl Iterator<Item = Result<(usize, [&'a str; N]), DataError>> + 'a {
    text.split('\n').enumerate().filter_map(move |(i, line)| {
        let line = line.trim_end_matches('\r');
        if line.is_empty() || (i == 0 && line.rsplit('\t').next() == Some(header)) {
            return None;
        }
        let count = line.bytes().filter(|&b| b == b'\t').count() + 1;
        if count != N {
            return Some(Err(DataError::Parse {
                line: i + 1,
                detail: format!("expected {N} tab-separated fields, got {count}"),
            }));
        }
        let mut fields = line.split('\t');
        Some(Ok((
            i + 1,
            std::array::from_fn(|_| fields.next().unwrap_or_default()),
        )))
    })
}

fn parse_answer(s: &str, task_type: TaskType, line: usize) -> Result<Answer, DataError> {
    let answer = if task_type.is_categorical() {
        Answer::Label(s.parse().map_err(|_| DataError::Parse {
            line,
            detail: format!("expected label index, got {s:?}"),
        })?)
    } else {
        Answer::Numeric(s.parse().map_err(|_| DataError::Parse {
            line,
            detail: format!("expected numeric answer, got {s:?}"),
        })?)
    };
    task_type.check_answer(&answer)?;
    Ok(answer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::toy::paper_example;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("crowd_io_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_categorical() {
        let dir = tmpdir("cat");
        let d = paper_example();
        write_tsv(&d, &dir).unwrap();
        let loaded = read_tsv(
            &dir.join("answers.tsv"),
            Some(&dir.join("truths.tsv")),
            TaskType::DecisionMaking,
            "roundtrip",
        )
        .unwrap();
        assert_eq!(loaded.num_tasks(), d.num_tasks());
        assert_eq!(loaded.num_workers(), d.num_workers());
        assert_eq!(loaded.num_answers(), d.num_answers());
        assert_eq!(loaded.num_truths(), d.num_truths());
        // Answer multiset must survive (indices may permute, values not).
        let mut a: Vec<String> = d.records().iter().map(|r| fmt_answer(&r.answer)).collect();
        let mut b: Vec<String> = loaded
            .records()
            .iter()
            .map(|r| fmt_answer(&r.answer))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roundtrip_numeric() {
        let dir = tmpdir("num");
        let d = datasets::n_emotion(0.1, 5);
        write_tsv(&d, &dir).unwrap();
        let loaded = read_tsv(
            &dir.join("answers.tsv"),
            Some(&dir.join("truths.tsv")),
            TaskType::Numeric,
            "roundtrip",
        )
        .unwrap();
        assert_eq!(loaded.num_answers(), d.num_answers());
        assert_eq!(loaded.num_truths(), d.num_truths());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_malformed_rows() {
        let dir = tmpdir("bad");
        let p = dir.join("answers.tsv");
        std::fs::write(&p, "question\tworker\tanswer\nt0\tw0\n").unwrap();
        let err = read_tsv(&p, None, TaskType::DecisionMaking, "bad");
        assert!(matches!(err, Err(DataError::Parse { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_label() {
        let dir = tmpdir("badlabel");
        let p = dir.join("answers.tsv");
        std::fs::write(&p, "question\tworker\tanswer\nt0\tw0\tseven\n").unwrap();
        let err = read_tsv(&p, None, TaskType::DecisionMaking, "bad");
        assert!(matches!(err, Err(DataError::Parse { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Load `answers` (and `truths`, when given) written to a fresh
    /// directory under `tag`.
    fn load(
        tag: &str,
        answers: &[u8],
        truths: Option<&[u8]>,
        task_type: TaskType,
    ) -> Result<Dataset, DataError> {
        let dir = tmpdir(tag);
        std::fs::write(dir.join("a.tsv"), answers).unwrap();
        if let Some(t) = truths {
            std::fs::write(dir.join("t.tsv"), t).unwrap();
        }
        let out = read_tsv(
            &dir.join("a.tsv"),
            truths.map(|_| dir.join("t.tsv")).as_deref(),
            task_type,
            tag,
        );
        std::fs::remove_dir_all(&dir).unwrap();
        out
    }

    fn parse_line(r: Result<Dataset, DataError>) -> usize {
        match r {
            Err(DataError::Parse { line, .. }) => line,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn bad_first_row_of_headerless_file_is_an_error_not_a_header() {
        let dm = TaskType::DecisionMaking;
        assert_eq!(
            parse_line(load("h1", b"t0\tw0\tseven\nt1\tw0\t1\n", None, dm)),
            1
        );
        // A good headerless first row is data.
        let d = load("h2", b"t0\tw0\t1\nt1\tw0\t0", None, dm).unwrap();
        assert_eq!(d.num_answers(), 2);
        // Only the release headers are skipped.
        let d = load(
            "h3",
            b"q\tw\tanswer\nt0\tw0\t1\n",
            Some(b"q\ttruth\nt0\t0\n"),
            dm,
        );
        let d = d.unwrap();
        assert_eq!((d.num_answers(), d.truth(0)), (1, Some(Answer::Label(0))));
        assert_eq!(
            parse_line(load("h4", b"t0\tw0\t1\n", Some(b"t0\tT\n"), dm)),
            1
        );
        // A header-shaped line after line 1 is data, and bad data.
        assert_eq!(
            parse_line(load("h5", b"t0\tw0\t1\nq\tw\tanswer\n", None, dm)),
            2
        );
    }

    #[test]
    fn parse_errors_name_the_physical_line() {
        let dm = TaskType::DecisionMaking;
        assert_eq!(
            parse_line(load("l1", b"t0\tw0\t1\nt1\tw0\tx\n", None, dm)),
            2
        );
        let blanks = b"question\tworker\tanswer\n\nt0\tw0\t1\r\n\r\n\nt1\tw0\t-1\n";
        assert_eq!(parse_line(load("l2", blanks, None, dm)), 6);
        let fields = b"question\tworker\tanswer\n\nt0\tw0\t1\tx\n";
        assert_eq!(parse_line(load("l3", fields, None, dm)), 3);
        let truth = b"question\ttruth\n\n\nt0\tz\n";
        assert_eq!(parse_line(load("l4", b"t0\tw0\t1\n", Some(truth), dm)), 4);
        // CRLF files and blank lines load cleanly.
        let crlf = b"question\tworker\tanswer\r\nt0\tw0\t1\r\n\r\nt0\tw1\t0\r\n";
        assert_eq!(load("l5", crlf, None, dm).unwrap().num_answers(), 2);
    }

    #[test]
    fn dense_ids_follow_first_appearance_with_truth_only_tasks_last() {
        let answers = b"question\tworker\tanswer\n\
            zeta\tbob\t1\nalpha\tann\t0\nzeta\tann\t1\nmid\tcy\t0\nalpha\tbob\t1\n";
        let truths = b"question\ttruth\nonly2\t1\nmid\t1\nonly1\t0\n";
        let d = load("ids", answers, Some(truths), TaskType::DecisionMaking).unwrap();
        let triples: Vec<(usize, usize, u8)> = d
            .records()
            .iter()
            .map(|r| (r.task, r.worker, r.answer.label().unwrap()))
            .collect();
        // Tasks zeta=0 alpha=1 mid=2, then only2=3 only1=4; workers bob=0 ann=1 cy=2.
        assert_eq!(
            triples,
            vec![(0, 0, 1), (1, 1, 0), (0, 1, 1), (2, 2, 0), (1, 0, 1)]
        );
        assert_eq!((d.num_tasks(), d.num_workers()), (5, 3));
        let l = |x| Some(Answer::Label(x));
        assert_eq!(d.truths(), &[None, None, l(1), l(1), l(0)]);
    }

    #[test]
    fn first_duplicate_in_file_order_is_reported() {
        // (b, y) repeats on line 5, (a, x) on line 6; task order would
        // meet (a, x) first.
        let answers = b"a\tx\t0\nb\ty\t1\na\ty\t1\nc\tx\t0\nb\ty\t0\na\tx\t1\n";
        match load("dup", answers, None, TaskType::DecisionMaking) {
            Err(DataError::DuplicateAnswer { task, worker }) => assert_eq!((task, worker), (1, 1)),
            other => panic!("expected a duplicate, got {other:?}"),
        }
    }

    #[test]
    fn invalid_values_and_bytes_are_typed_errors() {
        let num = TaskType::Numeric;
        for bad in ["NaN", "inf", "-infinity"] {
            let file = format!("t0\tw0\t{bad}\n");
            let err = load("nonfinite", file.as_bytes(), None, num);
            assert!(
                matches!(err, Err(DataError::AnswerKindMismatch { .. })),
                "{bad}"
            );
        }
        let err = load("truthnan", b"t0\tw0\t1.5\n", Some(b"t0\tnan\n"), num);
        assert!(matches!(err, Err(DataError::AnswerKindMismatch { .. })));
        let four = TaskType::SingleChoice { choices: 4 };
        let err = load("range", b"t0\tw0\t4\n", None, four);
        assert!(matches!(
            err,
            Err(DataError::LabelOutOfRange { label: 4, .. })
        ));
        match load("utf8", b"t0\tw\xff\t1\n", None, four) {
            Err(DataError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("expected an InvalidData io error, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_tsv(
            Path::new("/definitely/not/here.tsv"),
            None,
            TaskType::DecisionMaking,
            "x",
        );
        assert!(matches!(err, Err(DataError::Io(_))));
    }
}

//! Proof that `read_tsv` allocates nothing per row: loading R rows makes
//! far fewer than R heap allocations (here under R/100), so what it does
//! allocate — the file buffers, the record log, the id maps' doublings,
//! the adjacency — grows with the log's size, not its row count.
//!
//! Method: a counting global allocator around one load. Runs with
//! `harness = false` so no test-runner thread allocates during the
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crowd_data::io::read_tsv;
use crowd_data::TaskType;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const ROWS: usize = 20_000;
const TASKS: usize = 4_000;
const WORKERS: usize = 500;

fn main() {
    // Row i: task i mod 4000, worker (i / 4000) * 100 + i mod 97 — five
    // distinct workers per task, ids scattered, about a quarter of the
    // tasks with a truth.
    let dir = std::env::temp_dir().join(format!("crowd_tsv_alloc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (answers, truths) = (dir.join("answers.tsv"), dir.join("truths.tsv"));
    let mut text = String::from("question\tworker\tanswer\n");
    for i in 0..ROWS {
        let worker = (i / TASKS) * 100 + i % 97;
        writeln!(text, "task-{}\tworker-{worker}\t{}", i % TASKS, i % 3).unwrap();
    }
    std::fs::write(&answers, text).unwrap();
    let mut text = String::from("question\ttruth\n");
    for task in (0..TASKS).step_by(4) {
        writeln!(text, "task-{task}\t{}", task % 3).unwrap();
    }
    std::fs::write(&truths, text).unwrap();

    let task_type = TaskType::SingleChoice { choices: 3 };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let dataset = read_tsv(&answers, Some(&truths), task_type, "alloc").expect("file loads");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(dataset.num_answers(), ROWS);
    assert_eq!(dataset.num_tasks(), TASKS);
    assert!(dataset.num_workers() <= WORKERS);
    assert_eq!(dataset.num_truths(), TASKS / 4);
    println!("read_tsv: {ROWS} rows, {allocations} allocations");
    assert!(
        allocations < (ROWS / 100) as u64,
        "read_tsv made {allocations} allocations for {ROWS} rows — a per-row allocation is back"
    );
    println!("tsv_alloc: ok");
}

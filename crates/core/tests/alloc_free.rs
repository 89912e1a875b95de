//! Proof that the EM-family hot loops allocate nothing per outer
//! iteration (acceptance criterion of the flat-memory substrate
//! refactor).
//!
//! Method: install a counting global allocator, run each method twice on
//! the same dataset with different iteration caps (convergence disabled
//! by a near-zero tolerance), and require the allocation counts to be
//! **equal** — everything a run allocates (views, scratch, result
//! assembly) is iteration-count-independent, so any per-iteration heap
//! traffic would show up as `allocs(long) > allocs(short)`.
//!
//! Runs with `harness = false` so no test-runner machinery allocates
//! between the two measurements. The instances are kept below the
//! methods' parallel fan-out thresholds, which is the regime the
//! zero-allocation guarantee covers for every method; D&S, ZC and
//! Minimax are also audited above their gates with two threads, where
//! the fan-out reuses buffers allocated once per run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use crowd_core::methods::{Ds, Glad, Lfc, LfcN, Minimax, Zc};
use crowd_core::{InferenceOptions, TruthInference};
use crowd_data::datasets::PaperDataset;
use crowd_data::Dataset;

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

/// Allocation count of one full `infer` run pinned to exactly
/// `iterations` outer iterations (tolerance so small the tracker cannot
/// converge while the parameters still move), with the method's
/// internal fan-out capped at `threads`.
fn allocations_for(
    method: &dyn TruthInference,
    dataset: &Dataset,
    iterations: usize,
    threads: Option<usize>,
) -> u64 {
    let options = InferenceOptions {
        max_iterations: iterations,
        tolerance: 1e-300,
        threads,
        ..InferenceOptions::seeded(7)
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = method.infer(dataset, &options).expect("method runs");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        result.iterations,
        iterations,
        "{} stopped early — the measurement would be meaningless",
        method.name()
    );
    after - before
}

fn assert_iteration_alloc_free(
    method: &dyn TruthInference,
    dataset: &Dataset,
    threads: Option<usize>,
) {
    // Warm-up run absorbs any one-time lazy initialisation (including
    // spawning the pool's workers).
    let _ = allocations_for(method, dataset, 2, threads);
    let short = allocations_for(method, dataset, 3, threads);
    let long = allocations_for(method, dataset, 12, threads);
    assert_eq!(
        short,
        long,
        "{}: {} allocations at 3 iterations vs {} at 12 — the E/M loop allocates per iteration",
        method.name(),
        short,
        long
    );
    println!(
        "  {:<7} {} allocations regardless of iteration count",
        method.name(),
        short
    );
}

fn main() {
    println!("per-iteration allocation audit (counting global allocator):");
    let categorical = PaperDataset::DProduct.generate(0.05, 7);
    assert_iteration_alloc_free(&Ds, &categorical, None);
    assert_iteration_alloc_free(&Lfc::default(), &categorical, None);
    assert_iteration_alloc_free(&Zc::default(), &categorical, None);
    assert_iteration_alloc_free(&Glad::default(), &categorical, None);
    assert_iteration_alloc_free(&Minimax::default(), &categorical, None);

    // Above the fan-out gates (2¹³ work units, ℓ = 2): Minimax's dual
    // ascent and truth update (answers × ℓ²) and the task-chunked D&S/ZC
    // E-step (answers × ℓ + 3 × tasks × ℓ) must stay flat too.
    let fanned_out = PaperDataset::DProduct.generate(0.2, 7);
    assert!(
        categorical.num_answers() * 4 < 1 << 13 && fanned_out.num_answers() * 4 >= 1 << 13,
        "the two Minimax legs must sit on either side of the fan-out gate"
    );
    let estep_work = |d: &Dataset| d.num_answers() * 2 + 3 * d.num_tasks() * 2;
    assert!(
        estep_work(&categorical) < 1 << 13 && estep_work(&fanned_out) >= 1 << 13,
        "the two D&S/ZC legs must sit on either side of the E-step gate"
    );
    // Start the pool worker before measuring: a new thread allocates
    // once when the OS first runs it (std copies the thread name for its
    // stack-overflow handler), which can fall inside a measured run when
    // the machine is busy. Two jobs meeting at a barrier make the worker
    // run one of them, so its start-up is over before the legs below.
    let barrier = std::sync::Barrier::new(2);
    let meet = || {
        barrier.wait();
    };
    crowd_core::exec::parallel_map(2, vec![meet, meet]);
    println!("  fanned out, 2 threads:");
    assert_iteration_alloc_free(&Ds, &fanned_out, Some(2));
    assert_iteration_alloc_free(&Zc::default(), &fanned_out, Some(2));
    assert_iteration_alloc_free(&Minimax::default(), &fanned_out, Some(2));

    let numeric = PaperDataset::NEmotion.generate(0.2, 7);
    assert_iteration_alloc_free(&LfcN::default(), &numeric, None);

    // PM and CATD iterate discrete truth assignments, which reach an
    // exact fixed point (parameter delta identically zero) within a few
    // rounds, so their iteration count cannot be pinned the same way;
    // their loops reuse the same pre-allocated scratch buffers (see
    // methods/pm.rs, methods/catd.rs).
    println!("alloc-free audit passed");
}

//! Batched transcendental kernels for the EM hot loops.
//!
//! Every iterative method in the benchmark spends its inner time on
//! `exp`/`ln` over per-task posterior rows (the E-step) and per-edge
//! likelihood terms. This module is the one place that work happens:
//! branch-free 4-lane array kernels over contiguous slices (the rows of
//! a [`DMat`]), written so the element loops have constant trip counts
//! and no data-dependent branches — the shape LLVM autovectorises.
//!
//! Three backends — one compile-time fork, one runtime fork:
//!
//! - **default (`std`)**: every lane calls the platform
//!   `f64::exp`/`f64::ln`. Results are **bit-identical** to the scalar
//!   code the methods used before (the kernels only batch, never
//!   reassociate: elementwise ops are applied element by element, and
//!   the [`log_sum_exp`] reduction keeps the exact left-to-right
//!   summation order). The equivalence fixtures
//!   (`crowd-core/tests/fixtures/equivalence.tsv`) pin this.
//! - **`fast-math` feature, scalar leg (`fast-math-scalar`)**: a
//!   self-contained polynomial implementation of `exp`/`ln`
//!   (fdlibm-style Cody–Waite range reduction, see [`fast`]) with a
//!   documented error bound of **≤ 4 ULP** against the
//!   correctly-rounded result (the observed bound in the property tests
//!   is ≤ 2 ULP; 4 is the pinned contract). Under this feature the
//!   fixtures are compared with per-method tolerances instead of bit
//!   equality.
//! - **`fast-math` feature, vector leg (`fast-math-avx2`)**: the same
//!   polynomial evaluated four lanes at a time with explicit AVX2
//!   intrinsics (see [`simd`]), selected by one-time runtime feature
//!   detection (`avx2 && fma`, vetoed by `CROWD_FORCE_SCALAR` in the
//!   environment). The vector cores are **bit-identical to the scalar
//!   polynomial**, so which leg ran is unobservable in the output and
//!   the `fast-math` fixture tolerances hold on every CPU.
//!
//! [`backend_name`]/[`lanes_active`] report which leg the dispatchers
//! take, for bench artifacts and tests.
//!
//! Tail handling: slices are processed in chunks of [`LANES`] with a
//! scalar remainder loop; lengths 0..=3 take only the remainder path.
//! Empty slices are no-ops ([`log_sum_exp`] of an empty slice is
//! `-inf`, the sum of zero terms, as before).
//!
//! The [`fused`] submodule builds single-pass row kernels (gather +
//! accumulate + log-sum-exp + normalize, `ln`/`sigmoid`-of-computed
//! pipelines) on top of the same dispatchers, so E-step data is touched
//! once per iteration instead of once per op.

use crate::dmat::DMat;

/// The clamp used by the log-domain tables everywhere in the codebase:
/// probabilities are floored at `1e-12` before taking the log, keeping
/// degenerate zero-probability cells at a large-but-finite `≈ -27.6`
/// instead of `-inf` (which would poison posterior sums).
pub const SAFE_LN_EPS: f64 = 1e-12;

/// Lane width of the batched kernels. Four `f64`s fill one AVX2
/// register (and two NEON/SSE2 registers); the chunked loops below have
/// this constant trip count so the compiler unrolls or vectorises them.
pub const LANES: usize = 4;

#[cfg(target_arch = "x86_64")]
pub mod simd;

/// Stub for non-x86_64 targets: the vector leg never exists and the
/// dispatchers always take the scalar path.
#[cfg(not(target_arch = "x86_64"))]
pub mod simd {
    //! Non-x86_64 stub of the AVX2 backend (always inactive).

    /// Always `false` off x86_64.
    pub fn avx2_available() -> bool {
        false
    }

    /// Always `false` off x86_64.
    pub fn avx2_active() -> bool {
        false
    }

    /// No-op off x86_64.
    #[doc(hidden)]
    pub fn force_scalar(_on: bool) {}
}

pub mod fused;

pub use simd::force_scalar;

/// Name of the leg the slice dispatchers take right now: `"std"`
/// (default build), `"fast-math-scalar"` (polynomial, no vector unit),
/// or `"fast-math-avx2"` (polynomial, AVX2 lanes). Recorded per row in
/// the kernels bench artifact.
pub fn backend_name() -> &'static str {
    #[cfg(not(feature = "fast-math"))]
    {
        "std"
    }
    #[cfg(feature = "fast-math")]
    {
        if simd::avx2_active() {
            "fast-math-avx2"
        } else {
            "fast-math-scalar"
        }
    }
}

/// Vector width of the active leg: 4 under `fast-math-avx2`, 1 for
/// both scalar legs (the 4-lane chunking of the scalar loops is a code
/// shape, not a hardware width).
pub fn lanes_active() -> usize {
    if cfg!(feature = "fast-math") && simd::avx2_active() {
        LANES
    } else {
        1
    }
}

/// Scalar `exp` routed through the active backend (`std` by default,
/// the polynomial core under `fast-math`). Use this instead of
/// `f64::exp` in inference code so a feature flip retargets every call
/// site at once.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    #[cfg(not(feature = "fast-math"))]
    {
        x.exp()
    }
    #[cfg(feature = "fast-math")]
    {
        fast::exp(x)
    }
}

/// Scalar `ln` routed through the active backend (see [`exp`]).
#[inline(always)]
pub fn ln(x: f64) -> f64 {
    #[cfg(not(feature = "fast-math"))]
    {
        x.ln()
    }
    #[cfg(feature = "fast-math")]
    {
        fast::ln(x)
    }
}

/// The `x.max(1e-12).ln()` clamp idiom, centralised. Identical to the
/// open-coded form in default mode; `fast-math` swaps the `ln`.
#[inline(always)]
pub fn safe_ln(x: f64) -> f64 {
    ln(x.max(SAFE_LN_EPS))
}

/// [`safe_ln`] with a caller-chosen floor (VI-MF's qualification
/// initialisation clamps at `1e-9` rather than the common `1e-12`).
#[inline(always)]
pub fn safe_ln_eps(x: f64, eps: f64) -> f64 {
    ln(x.max(eps))
}

/// Apply `f` to every element, 4 lanes at a time. The chunk is
/// reborrowed as `&mut [f64; LANES]` so the inner loop has a constant
/// trip count (the autovectorisation-friendly shape); the remainder
/// loop handles lengths `1..=LANES-1` and slice tails.
#[inline(always)]
fn map_lanes(xs: &mut [f64], f: impl Fn(f64) -> f64) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let lanes: &mut [f64; LANES] = chunk.try_into().expect("exact chunk");
        for lane in lanes.iter_mut() {
            *lane = f(*lane);
        }
    }
    for x in chunks.into_remainder() {
        *x = f(*x);
    }
}

/// `x[i] ← exp(x[i])` in place.
pub fn exp_slice(xs: &mut [f64]) {
    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    if simd::avx2_active() {
        // SAFETY: detection verified avx2+fma.
        unsafe { simd::exp_slice_avx2(xs) };
        return;
    }
    map_lanes(xs, exp);
}

/// `x[i] ← ln(x[i])` in place.
pub fn ln_slice(xs: &mut [f64]) {
    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    if simd::avx2_active() {
        // SAFETY: detection verified avx2+fma.
        unsafe { simd::ln_slice_avx2(xs) };
        return;
    }
    map_lanes(xs, ln);
}

/// `x[i] ← ln(max(x[i], 1e-12))` in place — the row-batched form of
/// [`safe_ln`], used to refresh whole log-domain confusion tables in
/// one sweep.
pub fn safe_ln_slice(xs: &mut [f64]) {
    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    if simd::avx2_active() {
        // SAFETY: detection verified avx2+fma.
        unsafe { simd::safe_ln_slice_avx2(xs, SAFE_LN_EPS) };
        return;
    }
    map_lanes(xs, safe_ln);
}

/// `x[i] ← σ(x[i]) = 1/(1+exp(−x[i]))` in place, in the
/// overflow-stable two-sided form. Bit-identical to the scalar
/// `sigmoid` the logistic methods (GLAD, Multi) used: both sides
/// evaluate `exp(−|x|)` and differ only in the final select, which is
/// branch-free here.
pub fn sigmoid_slice(xs: &mut [f64]) {
    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    if simd::avx2_active() {
        // SAFETY: detection verified avx2+fma.
        unsafe { simd::sigmoid_slice_avx2(xs) };
        return;
    }
    map_lanes(xs, |x| {
        let e = exp(-x.abs());
        if x >= 0.0 {
            1.0 / (1.0 + e)
        } else {
            e / (1.0 + e)
        }
    });
}

/// Numerically stable `log(Σ exp(x_i))`.
///
/// Returns negative infinity on an empty slice (the sum of zero
/// terms). The summation is deliberately sequential left-to-right — a
/// lane-split reduction would reassociate the sum and change low bits,
/// breaking the default build's bit-exactness contract. The max
/// element contributes `exp(0) = 1.0` exactly, so that libm call is
/// skipped; this changes no bit of the sum.
#[inline]
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    if xs.len() == LANES && simd::avx2_active() {
        let row: &[f64; LANES] = xs.try_into().expect("length checked");
        // SAFETY: detection verified avx2+fma.
        if let Some(lse) = unsafe { simd::log_sum_exp4(row) } {
            return lse;
        }
    }
    log_sum_exp_scalar(xs)
}

/// The scalar [`log_sum_exp`] body — also the vector paths' fallback.
#[inline]
pub(crate) fn log_sum_exp_scalar(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max; // empty, or all -inf
    }
    let sum: f64 = xs
        .iter()
        .map(|&x| if x == max { 1.0 } else { exp(x - max) })
        .sum();
    max + ln(sum)
}

/// Convert a log-probability vector into a normalized probability
/// vector in place, stably. Degenerate input (all `-inf`, or an empty
/// slice) spreads mass uniformly. The ℓ = 4 posterior shape takes an
/// in-register vector path under `fast-math-avx2` (bit-identical to
/// the scalar leg; see [`simd::log_normalize4`]).
#[inline]
pub fn log_normalize(xs: &mut [f64]) {
    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    if xs.len() == LANES && simd::avx2_active() {
        let row: &mut [f64; LANES] = xs.try_into().expect("length checked");
        // SAFETY: detection verified avx2+fma.
        if unsafe { simd::log_normalize4(row) } {
            return;
        }
    }
    log_normalize_scalar(xs)
}

/// The scalar [`log_normalize`] body — also the fallback the vector
/// paths demote to, so it must never re-enter the dispatcher.
pub(crate) fn log_normalize_scalar(xs: &mut [f64]) {
    let lse = log_sum_exp_scalar(xs);
    if !lse.is_finite() {
        let uniform = 1.0 / xs.len().max(1) as f64;
        xs.iter_mut().for_each(|x| *x = uniform);
        return;
    }
    map_lanes(xs, |x| exp(x - lse));
}

/// [`log_normalize`] applied to every row of a matrix — the whole-
/// posterior form of the E-step's final step.
///
/// The per-row `log_sum_exp` temporaries are hoisted into stack blocks
/// (`fused::log_normalize_rows_blocked`) so the matrix is swept in
/// two linear passes (row statistics, then `exp(x − lse)`) instead of
/// three passes per row — this is where the old per-row form paid ~2×
/// the cost of its parts. ℓ = 4 matrices take the in-register row path
/// instead.
pub fn log_normalize_rows(m: &mut DMat) {
    if m.rows() == 0 || m.cols() == 0 {
        return;
    }
    let cols = m.cols();
    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    if cols <= LANES && simd::avx2_active() {
        log_normalize_rows_flat(cols, m.data_mut());
        return;
    }
    fused::log_normalize_rows_blocked(cols, m.data_mut());
}

/// [`log_normalize`] applied to each `cols`-wide row of a packed flat
/// buffer — bit-identical to calling it row by row, but narrow rows
/// (`cols ≤ 4`, the posterior shapes) batch four rows per vector
/// iteration under `fast-math-avx2`
/// ([`simd::log_normalize_rows_packed`]): one dispatch for the whole
/// buffer, and the per-row `ln` vectorises **across** rows. This is
/// the kernel for hot loops that softmax many tiny rows (Minimax's
/// dual ascent normalises one ℓ-wide model row per (answer,
/// hypothesis) pair).
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `cols` (`cols == 0`
/// requires an empty buffer).
pub fn log_normalize_rows_flat(cols: usize, data: &mut [f64]) {
    if data.is_empty() {
        return;
    }
    assert!(
        cols != 0 && data.len().is_multiple_of(cols),
        "flat buffer of {} elements is not rows of width {cols}",
        data.len()
    );
    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    if cols <= LANES && simd::avx2_active() {
        // SAFETY: detection verified avx2+fma; length checked above.
        unsafe {
            match cols {
                1 => simd::log_normalize_rows_packed::<1>(data),
                2 => simd::log_normalize_rows_packed::<2>(data),
                3 => simd::log_normalize_rows_packed::<3>(data),
                _ => simd::log_normalize_rows_packed::<4>(data),
            }
        }
        return;
    }
    for row in data.chunks_exact_mut(cols) {
        log_normalize_scalar(row);
    }
}

/// [`log_sum_exp`] of each `cols`-wide row of a packed flat buffer,
/// written to `out` — bit-identical to the per-row call, batched like
/// [`log_normalize_rows_flat`] under `fast-math-avx2`.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `cols` or `out` is not
/// exactly one element per row.
pub fn log_sum_exp_rows_flat(cols: usize, data: &[f64], out: &mut [f64]) {
    if data.is_empty() && out.is_empty() {
        return;
    }
    assert!(
        cols != 0 && data.len().is_multiple_of(cols) && out.len() == data.len() / cols,
        "flat buffer of {} elements / out of {} is not rows of width {cols}",
        data.len(),
        out.len()
    );
    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    if cols <= LANES && simd::avx2_active() {
        // SAFETY: detection verified avx2+fma; lengths checked above.
        unsafe {
            match cols {
                1 => simd::log_sum_exp_rows_packed::<1>(data, out),
                2 => simd::log_sum_exp_rows_packed::<2>(data, out),
                3 => simd::log_sum_exp_rows_packed::<3>(data, out),
                _ => simd::log_sum_exp_rows_packed::<4>(data, out),
            }
        }
        return;
    }
    for (row, o) in data.chunks_exact(cols).zip(out.iter_mut()) {
        *o = log_sum_exp_scalar(row);
    }
}

/// `Σ_i w_i · ln(max(x_i, 1e-12))` — the expected-log-likelihood
/// building block (posterior row dotted with a clamped log of a model
/// row). Sequential accumulation; the `ln`s go through the active
/// backend.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn weighted_log_dot(weights: &[f64], xs: &[f64]) -> f64 {
    assert_eq!(
        weights.len(),
        xs.len(),
        "weighted_log_dot operand length mismatch"
    );
    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    if simd::avx2_active() {
        let mut acc = 0.0f64;
        let mut i = 0;
        'vector: {
            while i + LANES <= xs.len() {
                let w: &[f64; LANES] = weights[i..i + LANES].try_into().expect("len");
                let x: &[f64; LANES] = xs[i..i + LANES].try_into().expect("len");
                // SAFETY: detection verified avx2+fma.
                match unsafe { simd::weighted_log_dot4(w, x, SAFE_LN_EPS, acc) } {
                    Some(next) => acc = next,
                    // A lane outside the ln window (+∞ input): redo
                    // the whole thing scalar — rare and bit-identical.
                    None => break 'vector,
                }
                i += LANES;
            }
            for (w, x) in weights[i..].iter().zip(&xs[i..]) {
                acc += w * safe_ln(*x);
            }
            return acc;
        }
    }
    weights.iter().zip(xs).map(|(&w, &x)| w * safe_ln(x)).sum()
}

/// Distance between two `f64`s in representable-value steps, treating
/// NaN == NaN as zero and mismatched special-value classes (one NaN,
/// or one infinite) as `u64::MAX`.
///
/// Test support for the ULP-contract checks (shared by the in-module
/// unit tests and `tests/kernel_properties.rs` so the comparison
/// semantics cannot drift apart); hidden from the documented API.
#[doc(hidden)]
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a == b || (a.is_nan() && b.is_nan()) {
        return 0;
    }
    if a.is_nan() != b.is_nan() || a.is_infinite() != b.is_infinite() {
        return u64::MAX;
    }
    let (ia, ib) = (a.to_bits() as i64, b.to_bits() as i64);
    // Map the signed-magnitude float order onto the integer line.
    let key = |i: i64| if i < 0 { i64::MIN - i } else { i };
    key(ia).abs_diff(key(ib))
}

/// Polynomial `exp`/`ln` cores (the `fast-math` backend).
///
/// Both follow the classic fdlibm/musl algorithms — Cody–Waite range
/// reduction with a split `ln 2`, then a short minimax polynomial —
/// which bound the error below 1 ULP in their reference form; the
/// pinned contract here is **≤ 4 ULP** against the correctly-rounded
/// result, verified over adversarial inputs by the property tests in
/// `tests/kernel_properties.rs`. Special values (NaN, ±∞, zeros,
/// subnormals, overflow/underflow thresholds) follow IEEE semantics and
/// are handled by an explicit guard before the branch-free core, so the
/// common path stays straight-line arithmetic.
///
/// Compiled in every configuration (the feature only decides whether
/// the `kernels::exp`/`kernels::ln` dispatchers route here), so the
/// property tests can compare both backends from one build.
pub mod fast {
    // All constants are the canonical fdlibm bit patterns, spelled as
    // bits so a mistyped decimal digit cannot silently cost ULPs. They
    // are `pub(crate)` because the AVX2 lanes in [`super::simd`]
    // evaluate the *same* polynomials — one source of truth keeps the
    // two legs bit-identical.
    pub(crate) const LN2_HI: f64 = f64::from_bits(0x3FE62E42FEE00000); // 6.93147180369123816490e-1
    pub(crate) const LN2_LO: f64 = f64::from_bits(0x3DEA39EF35793C76); // 1.90821492927058770002e-10
    pub(crate) const INV_LN2: f64 = f64::from_bits(0x3FF71547652B82FE); // 1.44269504088896338700e0
    pub(crate) const P1: f64 = f64::from_bits(0x3FC555555555553E); // 1.66666666666666019037e-1
    pub(crate) const P2: f64 = f64::from_bits(0xBF66C16C16BEBD93); // -2.77777777770155933842e-3
    pub(crate) const P3: f64 = f64::from_bits(0x3F11566AAF25DE2C); // 6.61375632143793436117e-5
    pub(crate) const P4: f64 = f64::from_bits(0xBEBBBD41C5D26BF1); // -1.65339022054652515390e-6
    pub(crate) const P5: f64 = f64::from_bits(0x3E66376972BEA4D0); // 4.13813679705723846039e-8
    pub(crate) const LG1: f64 = f64::from_bits(0x3FE5555555555593); // 6.666666666666735130e-1
    pub(crate) const LG2: f64 = f64::from_bits(0x3FD999999997FA04); // 3.999999999940941908e-1
    pub(crate) const LG3: f64 = f64::from_bits(0x3FD2492494229359); // 2.857142874366239149e-1
    pub(crate) const LG4: f64 = f64::from_bits(0x3FCC71C51D8E78AF); // 2.222219843214978396e-1
    pub(crate) const LG5: f64 = f64::from_bits(0x3FC7466496CB03DE); // 1.818357216161805012e-1
    pub(crate) const LG6: f64 = f64::from_bits(0x3FC39A09D078C69F); // 1.531383769920937332e-1
    pub(crate) const LG7: f64 = f64::from_bits(0x3FC2F112DF3E5244); // 1.479819860511658591e-1

    /// `exp(x)` via `x = k·ln2 + r`, `|r| ≤ ln2/2`, and the fdlibm
    /// degree-5 rational core `exp(r) = 1 + r·c/(2−c)` with
    /// `c = r − r²·P(r²)`.
    ///
    /// `k` is rounded ties-to-even so this leg agrees bit-for-bit with
    /// the AVX2 lanes (`_mm256_round_pd` rounds halves to even; either
    /// `k` at an exact tie is a valid reduction within the ≤4-ULP
    /// contract, but the legs must pick the same one).
    pub fn exp(x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        if x > 709.782_712_893_384 {
            return f64::INFINITY; // overflows even after reduction
        }
        if x < -745.133_219_101_941_2 {
            return 0.0; // underflows past the smallest subnormal
        }
        let k = (INV_LN2 * x).round_ties_even();
        let hi = x - k * LN2_HI;
        let lo = k * LN2_LO;
        let r = hi - lo;
        let rr = r * r;
        let c = r - rr * (P1 + rr * (P2 + rr * (P3 + rr * (P4 + rr * P5))));
        let y = 1.0 + (r * c / (2.0 - c) - lo + hi);
        scale_by_pow2(y, k as i32)
    }

    /// `y · 2^k` without going through `powi`, handling the subnormal
    /// underflow range by splitting the scale.
    fn scale_by_pow2(y: f64, k: i32) -> f64 {
        if (-1021..=1023).contains(&k) {
            return y * f64::from_bits(((k + 1023) as u64) << 52);
        }
        if k > 1023 {
            // y·2^k with k > 1023 only arises just below the overflow
            // guard; two normal-range scales cover it.
            return y
                * f64::from_bits((2046u64) << 52)
                * f64::from_bits(((k - 1023 + 1023) as u64) << 52);
        }
        // Deep underflow: scale into the subnormal range in two steps
        // so the intermediate stays normal.
        let first = y * f64::from_bits(2u64 << 52); // 2^-1021
        first * f64::from_bits(((k + 1021 + 1023).max(0) as u64) << 52)
    }

    /// `ln(x)` via the fdlibm reduction `x = 2^k · (1+f)`,
    /// `1+f ∈ [√2/2, √2)`, and the degree-14 minimax polynomial in
    /// `s = f/(2+f)`.
    pub fn ln(x: f64) -> f64 {
        if x.is_nan() || x < 0.0 {
            return f64::NAN;
        }
        if x == 0.0 {
            return f64::NEG_INFINITY;
        }
        if x.is_infinite() {
            return f64::INFINITY;
        }
        // Normalise subnormals so the exponent extraction below is exact.
        let (x, sub_adjust) = if x < f64::MIN_POSITIVE {
            (x * f64::from_bits((54 + 1023) << 52), -54.0)
        } else {
            (x, 0.0)
        };
        let bits = x.to_bits();
        let mut k = ((bits >> 52) as i32) - 1023;
        let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
        // Keep the significand in [√2/2, √2) so |f| stays small.
        if m > std::f64::consts::SQRT_2 {
            m *= 0.5;
            k += 1;
        }
        let f = m - 1.0;
        let hfsq = 0.5 * f * f;
        let s = f / (2.0 + f);
        let z = s * s;
        let w = z * z;
        let t1 = w * (LG2 + w * (LG4 + w * LG6));
        let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
        let r = t2 + t1;
        let dk = k as f64 + sub_adjust;
        dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The slice-vs-scalar and sigmoid-vs-reference comparisons live in
    // `tests/kernel_properties.rs`, which covers them over adversarial
    // inputs in both backends; the unit tests here pin the pieces the
    // property file does not reach (the clamp idiom, row semantics, and
    // the fast cores directly).

    #[test]
    fn safe_ln_matches_the_clamp_idiom() {
        for &x in &[0.0, 1e-300, 1e-12, 0.5, 1.0, 3.7] {
            assert_eq!(safe_ln(x).to_bits(), ln(x.max(1e-12)).to_bits());
        }
        assert_eq!(safe_ln(0.0), 1e-12f64.ln());
        assert_eq!(safe_ln_eps(0.0, 1e-9), ln(1e-9));
    }

    #[test]
    fn log_sum_exp_keeps_reference_semantics() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
        let xs = [-1000.0, -1000.0];
        assert!((log_sum_exp(&xs) - (-1000.0 + 2.0f64.ln())).abs() < 1e-10);
        let ys = [700.0, 710.0];
        assert!((log_sum_exp(&ys) - (710.0 + (1.0 + (-10.0f64).exp()).ln())).abs() < 1e-10);
    }

    #[test]
    fn log_normalize_rows_normalizes_every_row() {
        let mut m = DMat::from_rows(&[
            vec![-800.0, -801.0, -802.0],
            vec![0.0, 0.0, 0.0],
            vec![f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY],
        ]);
        log_normalize_rows(&mut m);
        for i in 0..3 {
            let sum: f64 = m.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
        }
        assert!(m.row(0)[0] > m.row(0)[1]);
        // Degenerate row → uniform.
        assert!(m.row(2).iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-15));
    }

    #[test]
    fn weighted_log_dot_matches_open_coded_form() {
        let w = [0.2, 0.5, 0.3];
        let x = [0.9, 0.0, 1e-14];
        let expect: f64 = w.iter().zip(&x).map(|(&w, &x)| w * safe_ln(x)).sum();
        assert_eq!(weighted_log_dot(&w, &x).to_bits(), expect.to_bits());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_log_dot_rejects_ragged_operands() {
        weighted_log_dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn fast_exp_edge_cases_and_ulp() {
        // The fast core is compiled in tests regardless of the feature.
        assert!(fast::exp(f64::NAN).is_nan());
        assert_eq!(fast::exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast::exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(fast::exp(0.0), 1.0);
        assert_eq!(fast::exp(710.0), f64::INFINITY);
        assert_eq!(fast::exp(-746.0), 0.0);
        let mut worst = 0u64;
        let mut x = -708.0;
        while x < 708.0 {
            worst = worst.max(ulp_diff(fast::exp(x), x.exp()));
            x += 0.618;
        }
        assert!(worst <= 4, "fast exp worst error {worst} ULP");
    }

    #[test]
    fn fast_ln_edge_cases_and_ulp() {
        assert!(fast::ln(f64::NAN).is_nan());
        assert!(fast::ln(-1.0).is_nan());
        assert_eq!(fast::ln(0.0), f64::NEG_INFINITY);
        assert_eq!(fast::ln(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast::ln(1.0), 0.0);
        let mut worst = 0u64;
        for i in 1..2000 {
            let x = i as f64 * 0.37e-2;
            worst = worst.max(ulp_diff(fast::ln(x), x.ln()));
        }
        // Subnormals go through the rescale path.
        for &x in &[1e-310, 5e-320, f64::MIN_POSITIVE, 1e300, 1e-300] {
            worst = worst.max(ulp_diff(fast::ln(x), x.ln()));
        }
        assert!(worst <= 4, "fast ln worst error {worst} ULP");
    }
}

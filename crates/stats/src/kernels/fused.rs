//! Fused single-pass row kernels for the E-step hot loops.
//!
//! PR 5 batched the transcendentals; these kernels batch the *passes*.
//! An EM E-step used to touch its hot row several times — init,
//! gather-and-accumulate, `log_sum_exp`, normalize, each a separate
//! sweep — and
//! the per-row `log_normalize` paid for two exp passes plus call
//! overhead on rows of length 2–4. Here each composite is one walk
//! over the data:
//!
//! - [`fused_posterior_row`] — log-prior init + strided log-table
//!   gather/accumulate over a CSR task row + log-sum-exp + normalize,
//!   written directly into the posterior row (D&S/LFC/VI-MF shape);
//! - [`fused_two_term_row`] — the correct/wrong two-term accumulate +
//!   normalize (ZC/GLAD shape);
//! - [`ln_map_into`]/[`safe_ln_map_into`]/[`exp_map_into`]/
//!   [`sigmoid_map_into`] — `f(x)`-of-computed pipelines (`safe_ln` of
//!   products, `sigmoid∘exp` chains) that fill from a closure and
//!   transform in cache-resident blocks instead of write-everything /
//!   transform-everything sweeps;
//! - `log_normalize_rows_blocked` — the whole-matrix normalize with
//!   the per-row `log_sum_exp` temporaries hoisted into stack blocks.
//!
//! Every fused kernel is **bit-identical** to the multi-pass
//! composition it replaces, in every backend: the element operations,
//! their association, and the summation orders are unchanged — only
//! the number of times the data crosses the cache changes. Under
//! `fast-math-avx2` the transcendental legs run on the vector cores
//! (which are themselves bit-identical to the scalar polynomial).

#[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
use super::simd;
use super::{exp, exp_slice, ln_slice, log_normalize, safe_ln_slice, sigmoid_slice, LANES};

/// Posterior row E-step, fused: `out ← log_prior`, then for every
/// `base` yielded by the iterator `out[j] += table[base + j·ℓ]`
/// (ℓ = `out.len()`, the per-label stride of the flat log-confusion
/// table), then [`log_normalize`]. One pass over the answers, the
/// normalize in registers for ℓ = 4.
///
/// # Panics
/// Panics if `log_prior.len() != out.len()` or a base walks off the
/// table.
pub fn fused_posterior_row(
    out: &mut [f64],
    log_prior: &[f64],
    table: &[f64],
    bases: impl Iterator<Item = usize>,
) {
    out.copy_from_slice(log_prior);
    let l = out.len();
    if l == LANES {
        let o: &mut [f64; LANES] = out.try_into().expect("length checked");
        for b in bases {
            o[0] += table[b];
            o[1] += table[b + LANES];
            o[2] += table[b + 2 * LANES];
            o[3] += table[b + 3 * LANES];
        }
    } else {
        for b in bases {
            let mut idx = b;
            for o in out.iter_mut() {
                *o += table[idx];
                idx += l;
            }
        }
    }
    log_normalize(out);
}

/// Two-term posterior row E-step, fused: for every `(label, on, off)`
/// term, `out[j] += if j == label { on } else { off }`, then
/// [`log_normalize`]. The caller pre-initialises `out` (zeros, or a
/// log-prior). This is the ZC/GLAD accumulate shape, where each answer
/// contributes its log-correct weight to the answered label and its
/// log-wrong weight to every other label.
pub fn fused_two_term_row(out: &mut [f64], terms: impl Iterator<Item = (usize, f64, f64)>) {
    for (label, on, off) in terms {
        for (j, o) in out.iter_mut().enumerate() {
            *o += if j == label { on } else { off };
        }
    }
    log_normalize(out);
}

/// Fill/transform block size: big enough to amortise one dispatcher
/// call, small enough that the freshly written values are still in L1
/// when the transform pass reads them back.
const FILL_BLOCK: usize = 256;

macro_rules! map_into {
    ($out:ident, $f:ident, $slice_kernel:ident) => {{
        let mut start = 0;
        while start < $out.len() {
            let end = (start + FILL_BLOCK).min($out.len());
            for (i, o) in $out[start..end].iter_mut().enumerate() {
                *o = $f(start + i);
            }
            $slice_kernel(&mut $out[start..end]);
            start = end;
        }
    }};
}

/// `out[i] = ln(f(i))` — fill from the closure and take the log in
/// cache-resident blocks (the fused `ln`-of-products pass: the caller
/// computes the product/clamp in `f`, the transcendental runs on the
/// batched backend).
pub fn ln_map_into(out: &mut [f64], mut f: impl FnMut(usize) -> f64) {
    map_into!(out, f, ln_slice)
}

/// `out[i] = ln(max(f(i), 1e-12))` — the fused `safe_ln`-of-products
/// pass (log-table refresh from a probability table in one sweep).
pub fn safe_ln_map_into(out: &mut [f64], mut f: impl FnMut(usize) -> f64) {
    map_into!(out, f, safe_ln_slice)
}

/// `out[i] = exp(f(i))` — fused copy-and-exponentiate.
pub fn exp_map_into(out: &mut [f64], mut f: impl FnMut(usize) -> f64) {
    map_into!(out, f, exp_slice)
}

/// `out[i] = σ(f(i))` — the fused `sigmoid∘exp`-style pass: the caller
/// assembles the logit (e.g. `α_w · e^{ln β_t}` from gathered tables)
/// in `f`, the squash runs batched.
pub fn sigmoid_map_into(out: &mut [f64], mut f: impl FnMut(usize) -> f64) {
    map_into!(out, f, sigmoid_slice)
}

/// `out[i] = exp(xs[i] − offs[i])` for one lane block, `1.0` where
/// `xs[i] == offs[i]` when `one_on_eq` — scalar legs here, vector
/// lanes in [`simd::exp_sub4`].
#[inline]
fn exp_sub_lanes(
    xs: &[f64; LANES],
    offs: &[f64; LANES],
    out: &mut [f64; LANES],
    one_on_eq: bool,
    simd_on: bool,
) {
    #[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
    if simd_on {
        // SAFETY: the caller checked `simd::avx2_active()`.
        unsafe { simd::exp_sub4(xs, offs, out, one_on_eq) };
        return;
    }
    let _ = simd_on;
    for i in 0..LANES {
        out[i] = if one_on_eq && xs[i] == offs[i] {
            1.0
        } else {
            exp(xs[i] - offs[i])
        };
    }
}

/// Rows handled per stack block by [`log_normalize_rows_blocked`].
const ROW_BLOCK: usize = 64;

/// [`log_normalize`] over every `cols`-wide row of `data`, with the
/// per-row temporaries (max, exp-sum, log-sum-exp) hoisted into stack
/// blocks of [`ROW_BLOCK`] rows. The matrix is swept in two linear
/// passes per block — row statistics, then `exp(x − lse)` — with the
/// exp work batched across row boundaries in [`LANES`]-wide chunks
/// (lanes carry their own row's offset, so short rows of 2–3 labels
/// still fill the vector unit). Bit-identical to the per-row form:
/// per-element operations and the within-row left-to-right summation
/// order are unchanged.
pub(crate) fn log_normalize_rows_blocked(cols: usize, data: &mut [f64]) {
    debug_assert!(cols > 0 && data.len().is_multiple_of(cols));
    let simd_on =
        cfg!(all(feature = "fast-math", target_arch = "x86_64")) && super::simd::avx2_active();
    let uniform = 1.0 / cols as f64;
    let rows = data.len() / cols;
    let mut maxs = [0.0f64; ROW_BLOCK];
    let mut sums = [0.0f64; ROW_BLOCK];
    let mut lses = [0.0f64; ROW_BLOCK];
    for r0 in (0..rows).step_by(ROW_BLOCK) {
        let bn = ROW_BLOCK.min(rows - r0);
        let block = &mut data[r0 * cols..(r0 + bn) * cols];
        // Pass 1a: per-row max (cheap, no transcendentals).
        for (bi, row) in block.chunks_exact(cols).enumerate() {
            maxs[bi] = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            sums[bi] = 0.0;
        }
        // Pass 1b: Σ exp(x − max) per row, batched across rows. Lanes
        // are accumulated into their rows in flat (row-major) order,
        // preserving each row's left-to-right sum. Degenerate rows
        // (non-finite max) produce garbage sums that pass 2 discards.
        let mut xin = [0.0f64; LANES];
        let mut offs = [0.0f64; LANES];
        let mut eout = [0.0f64; LANES];
        let mut rows_of = [0usize; LANES];
        let (mut r, mut c) = (0usize, 0usize);
        let mut i = 0;
        while i + LANES <= block.len() {
            xin.copy_from_slice(&block[i..i + LANES]);
            for lane in 0..LANES {
                rows_of[lane] = r;
                offs[lane] = maxs[r];
                c += 1;
                if c == cols {
                    c = 0;
                    r += 1;
                }
            }
            exp_sub_lanes(&xin, &offs, &mut eout, true, simd_on);
            for lane in 0..LANES {
                sums[rows_of[lane]] += eout[lane];
            }
            i += LANES;
        }
        while i < block.len() {
            let x = block[i];
            sums[r] += if x == maxs[r] { 1.0 } else { exp(x - maxs[r]) };
            c += 1;
            if c == cols {
                c = 0;
                r += 1;
            }
            i += 1;
        }
        // Row lse = max + ln(sum); the ln runs batched over the block.
        // Rows whose max is non-finite keep lse = max (the
        // `log_sum_exp` early return), and any non-finite lse (NaN in
        // the row, all −∞) means "spread uniformly" in pass 2.
        ln_slice(&mut sums[..bn]);
        for bi in 0..bn {
            lses[bi] = if maxs[bi].is_finite() {
                maxs[bi] + sums[bi]
            } else {
                maxs[bi]
            };
        }
        // Pass 2: x ← exp(x − lse), batched across rows; degenerate
        // rows are overwritten with the uniform vector afterwards.
        let (mut r, mut c) = (0usize, 0usize);
        let mut i = 0;
        while i + LANES <= block.len() {
            xin.copy_from_slice(&block[i..i + LANES]);
            for off in offs.iter_mut() {
                *off = lses[r];
                c += 1;
                if c == cols {
                    c = 0;
                    r += 1;
                }
            }
            exp_sub_lanes(&xin, &offs, &mut eout, false, simd_on);
            block[i..i + LANES].copy_from_slice(&eout);
            i += LANES;
        }
        while i < block.len() {
            block[i] = exp(block[i] - lses[r]);
            c += 1;
            if c == cols {
                c = 0;
                r += 1;
            }
            i += 1;
        }
        for bi in 0..bn {
            if !lses[bi].is_finite() {
                block[bi * cols..(bi + 1) * cols].fill(uniform);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{log_normalize, log_normalize_scalar, safe_ln, sigmoid_slice};
    use super::*;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_posterior_row_matches_unfused_composition() {
        for l in [2usize, 3, 4, 7] {
            let table: Vec<f64> = (0..l * l * 5).map(|i| -0.01 * i as f64 - 0.3).collect();
            let prior: Vec<f64> = (0..l).map(|j| -1.1 - 0.2 * j as f64).collect();
            let bases = [0usize, l * l, 3 * l * l + 1, l * l + l - 1];
            // Unfused reference: copy, strided accumulate, normalize.
            let mut want = prior.clone();
            for &b in &bases {
                let mut idx = b;
                for o in want.iter_mut() {
                    *o += table[idx];
                    idx += l;
                }
            }
            log_normalize(&mut want);
            let mut got = vec![0.0; l];
            fused_posterior_row(&mut got, &prior, &table, bases.iter().copied());
            assert_eq!(bits(&want), bits(&got), "l = {l}");
        }
    }

    #[test]
    fn fused_two_term_row_matches_unfused_composition() {
        let terms = [(0usize, -0.1, -2.0), (2, -0.4, -1.5), (1, -0.2, -0.9)];
        let mut want = vec![0.0; 3];
        for &(label, on, off) in &terms {
            for (j, o) in want.iter_mut().enumerate() {
                *o += if j == label { on } else { off };
            }
        }
        log_normalize(&mut want);
        let mut got = vec![0.0; 3];
        fused_two_term_row(&mut got, terms.iter().copied());
        assert_eq!(bits(&want), bits(&got));
    }

    #[test]
    fn map_into_kernels_match_fill_then_slice() {
        let src: Vec<f64> = (0..523).map(|i| 0.37 * (i as f64 - 200.0)).collect();
        let mut want: Vec<f64> = src.iter().map(|&x| safe_ln(x.abs() * 0.5)).collect();
        // The reference is fill-then-slice over the whole buffer; the
        // scalar `safe_ln` above equals it elementwise by construction.
        let mut got = vec![0.0; src.len()];
        safe_ln_map_into(&mut got, |i| src[i].abs() * 0.5);
        assert_eq!(bits(&want), bits(&got));

        want = src.clone();
        sigmoid_slice(&mut want);
        sigmoid_map_into(&mut got, |i| src[i]);
        assert_eq!(bits(&want), bits(&got));
    }

    #[test]
    fn blocked_rows_match_per_row_log_normalize() {
        for cols in [1usize, 2, 3, 4, 5, 9] {
            let rows = 131; // crosses the ROW_BLOCK boundary
            let mut data: Vec<f64> = (0..rows * cols)
                .map(|i| ((i * 2654435761usize) % 1000) as f64 * 0.013 - 6.0)
                .collect();
            // Sprinkle degenerate and extreme rows.
            if cols > 1 {
                data[0..cols].fill(f64::NEG_INFINITY);
                data[cols..2 * cols].fill(-800.0);
                data[2 * cols] = f64::NAN;
            }
            let mut want = data.clone();
            for row in want.chunks_exact_mut(cols) {
                log_normalize_scalar(row);
            }
            let mut got = data;
            log_normalize_rows_blocked(cols, &mut got);
            assert_eq!(bits(&want), bits(&got), "cols = {cols}");
        }
    }
}

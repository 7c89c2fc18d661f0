//! Vectorizable numeric kernels over flat `f32` slices.
//!
//! Factor matrices are stored row-major as one contiguous `Vec<f32>`
//! (`row r` = `buf[r * f .. (r + 1) * f]`), and every hot loop in the SVD
//! trainer and the per-user scorer funnels through the handful of
//! kernels below. They are written as exact-iteration slice loops —
//! `chunks_exact`, zipped iterators, no bounds checks in the loop body —
//! which is the shape rustc/LLVM auto-vectorizes without `-ffast-math`.
//!
//! Float addition is not associative, so a reduction only vectorizes if
//! the code itself fixes a lane order. [`dot`] therefore accumulates into
//! eight explicit lanes and folds them in a fixed tree at the end: the
//! result is deterministic (bit-identical run-over-run for the same
//! inputs) *and* SIMD-friendly. Every caller — serial SGD, the blocked
//! parallel trainer, `score`, the `UserScorer` — uses this one `dot`, so
//! "same factors ⇒ same score" holds across all code paths.

/// Number of parallel accumulator lanes in [`dot`].
///
/// Eight `f32` lanes fill one AVX2 register; on narrower ISAs LLVM
/// splits them into two SSE/NEON registers, which still beats a scalar
/// chain. The value is part of the determinism contract: changing it
/// changes the reduction order and thus the low bits of trained models.
pub const DOT_LANES: usize = 8;

/// Dot product of two equal-length `f32` slices with a fixed reduction
/// order (8 lanes, tree fold, scalar tail appended last).
///
/// # Panics
/// Panics in debug builds if `a.len() != b.len()` (the zip silently
/// truncates in release; all callers pass equal lengths).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; DOT_LANES];
    let chunks_a = a.chunks_exact(DOT_LANES);
    let chunks_b = b.chunks_exact(DOT_LANES);
    let tail_a = chunks_a.remainder();
    let tail_b = chunks_b.remainder();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *lane += x * y;
        }
    }
    // Fixed tree reduction: ((0+4)+(2+6)) + ((1+5)+(3+7)).
    let s04 = lanes[0] + lanes[4];
    let s26 = lanes[2] + lanes[6];
    let s15 = lanes[1] + lanes[5];
    let s37 = lanes[3] + lanes[7];
    let mut sum = (s04 + s26) + (s15 + s37);
    for (&x, &y) in tail_a.iter().zip(tail_b) {
        sum += x * y;
    }
    sum
}

/// `y += alpha * x`, element-wise.
#[inline]
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = beta * y + alpha * x`, element-wise (fused scale-and-add).
#[inline]
pub fn scale_add(y: &mut [f32], beta: f32, alpha: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = beta * *yi + alpha * xi;
    }
}

/// One regularized SGD update on a `(user, item)` factor-row pair:
///
/// ```text
/// p += lr * (err * q0 - lambda * p)
/// q += lr * (err * p0 - lambda * q)
/// ```
///
/// where `p0`/`q0` are the values *before* the update (the textbook
/// simultaneous step — `q`'s gradient must not see the new `p`).
#[inline]
pub fn sgd_step(p: &mut [f32], q: &mut [f32], err: f32, lr: f32, lambda: f32) {
    debug_assert_eq!(p.len(), q.len());
    for (pi, qi) in p.iter_mut().zip(q.iter_mut()) {
        let pv = *pi;
        let qv = *qi;
        *pi = pv + lr * (err * qv - lambda * pv);
        *qi = qv + lr * (err * pv - lambda * qv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_scalar_reference() {
        // 19 elements: two full 8-lane chunks plus a 3-element tail.
        let a: Vec<f32> = (0..19).map(|i| 0.5 + i as f32 * 0.25).collect();
        let b: Vec<f32> = (0..19).map(|i| 1.5 - i as f32 * 0.125).collect();
        let reference: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| f64::from(x) * f64::from(y))
            .sum();
        assert!((f64::from(dot(&a, &b)) - reference).abs() < 1e-4);
    }

    #[test]
    fn dot_is_deterministic() {
        let a: Vec<f32> = (0..100).map(|i| (i as f32 * 0.1).sin()).collect();
        let b: Vec<f32> = (0..100).map(|i| (i as f32 * 0.2).cos()).collect();
        let first = dot(&a, &b);
        for _ in 0..10 {
            assert_eq!(dot(&a, &b).to_bits(), first.to_bits());
        }
    }

    #[test]
    fn dot_empty_and_short() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn axpy_adds_scaled_vector() {
        let mut y = vec![1.0f32, 2.0, 3.0];
        axpy(&mut y, 2.0, &[10.0, 20.0, 30.0]);
        assert_eq!(y, vec![21.0, 42.0, 63.0]);
    }

    #[test]
    fn scale_add_fuses_scale_and_add() {
        let mut y = vec![2.0f32, 4.0];
        scale_add(&mut y, 0.5, 3.0, &[1.0, 2.0]);
        assert_eq!(y, vec![4.0, 8.0]);
    }

    #[test]
    fn sgd_step_uses_pre_update_values() {
        let mut p = vec![1.0f32];
        let mut q = vec![2.0f32];
        sgd_step(&mut p, &mut q, 0.5, 0.1, 0.0);
        // p = 1 + 0.1*0.5*2 = 1.1 ; q = 2 + 0.1*0.5*1 (old p!) = 2.05
        assert!((p[0] - 1.1).abs() < 1e-6);
        assert!((q[0] - 2.05).abs() < 1e-6);
    }
}

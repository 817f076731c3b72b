//! x86-64 microkernels: AVX2+FMA (4 × f64 lanes, fused multiply-add)
//! and SSE2 (2 × f64 lanes, the x86-64 baseline).
//!
//! The AVX2 micropanel computes 2 queries × 4 data points per iteration:
//! eight vector accumulators — one per (query, point) dot product — plus
//! two query vectors and a point vector in flight stay within the 16
//! architectural registers, and sharing each point load across both
//! queries lifts the FMA:load ratio above 1 so the loop runs
//! FMA-bound instead of load-bound. The `d mod 4` tail is handled with
//! `maskload` into the *same* accumulator, so each dot product carries
//! exactly 4 partial-sum chains (`lanes() ≤ MAX_LANES`) combined by one
//! 4-way horizontal reduction — the reassociation the widened
//! [`super::surrogate_slack`] accounts for.
//!
//! SSE2 tiles 2 queries × 2 points with an unvectorized `d mod 2` peel;
//! each dot carries 2 lanes plus one scalar tail chain.
//!
//! # Safety
//!
//! Every function here is `unsafe fn` with a `#[target_feature]`
//! attribute: callers (the dispatch layer in `mod.rs`) must verify the
//! feature is present — [`super::available`] does — before calling.

#![allow(unsafe_op_in_unsafe_fn)]
// Micropanel loops index per-query register accumulators and raw row
// pointers by `qi` in lockstep; an iterator form would obscure the
// register tiling.
#![allow(clippy::needless_range_loop)]

use std::arch::x86_64::*;

/// Lane-enable mask for the `d mod 4` remainder: lane `i` loads iff
/// `i < rem` (maskload semantics key off each lane's sign bit).
#[target_feature(enable = "avx2")]
unsafe fn tail_mask(rem: usize) -> __m256i {
    let lane = |i: usize| if i < rem { -1i64 } else { 0 };
    _mm256_setr_epi64x(lane(0), lane(1), lane(2), lane(3))
}

/// Transposing 4-way horizontal sum: lane `i` of the result is the full
/// sum of `acc_i`'s four lanes.
#[target_feature(enable = "avx2")]
unsafe fn hsum4(a0: __m256d, a1: __m256d, a2: __m256d, a3: __m256d) -> __m256d {
    let t01 = _mm256_hadd_pd(a0, a1); // [a0₀+a0₁, a1₀+a1₁, a0₂+a0₃, a1₂+a1₃]
    let t23 = _mm256_hadd_pd(a2, a3);
    let swap = _mm256_permute2f128_pd::<0x21>(t01, t23);
    let blend = _mm256_blend_pd::<0b1100>(t01, t23);
    _mm256_add_pd(swap, blend)
}

/// Full horizontal sum of one accumulator.
#[target_feature(enable = "avx2")]
unsafe fn hsum1(a: __m256d) -> f64 {
    let s = _mm_add_pd(_mm256_castpd256_pd128(a), _mm256_extractf128_pd::<1>(a));
    _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
}

/// `NQ` query rows (1 or 2) against all `nt` data rows; `out` is `NQ`
/// rows of stride `nt`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn rows_avx2<const NQ: usize>(
    q: *const f64,
    qn: *const f64,
    t: &[f64],
    tn: &[f64],
    d: usize,
    mask: __m256i,
    out: *mut f64,
) {
    let nt = tn.len();
    let rem = d % 4;
    let dfull = d - rem;
    let two = _mm256_set1_pd(2.0);
    let mut ti = 0;
    while ti + 4 <= nt {
        let x0 = t.as_ptr().add(ti * d);
        let x1 = x0.add(d);
        let x2 = x1.add(d);
        let x3 = x2.add(d);
        let mut acc = [[_mm256_setzero_pd(); 4]; NQ];
        let mut c = 0;
        while c < dfull {
            let vx0 = _mm256_loadu_pd(x0.add(c));
            let vx1 = _mm256_loadu_pd(x1.add(c));
            let vx2 = _mm256_loadu_pd(x2.add(c));
            let vx3 = _mm256_loadu_pd(x3.add(c));
            for qi in 0..NQ {
                let vq = _mm256_loadu_pd(q.add(qi * d + c));
                acc[qi][0] = _mm256_fmadd_pd(vq, vx0, acc[qi][0]);
                acc[qi][1] = _mm256_fmadd_pd(vq, vx1, acc[qi][1]);
                acc[qi][2] = _mm256_fmadd_pd(vq, vx2, acc[qi][2]);
                acc[qi][3] = _mm256_fmadd_pd(vq, vx3, acc[qi][3]);
            }
            c += 4;
        }
        if rem != 0 {
            let vx0 = _mm256_maskload_pd(x0.add(c), mask);
            let vx1 = _mm256_maskload_pd(x1.add(c), mask);
            let vx2 = _mm256_maskload_pd(x2.add(c), mask);
            let vx3 = _mm256_maskload_pd(x3.add(c), mask);
            for qi in 0..NQ {
                let vq = _mm256_maskload_pd(q.add(qi * d + c), mask);
                acc[qi][0] = _mm256_fmadd_pd(vq, vx0, acc[qi][0]);
                acc[qi][1] = _mm256_fmadd_pd(vq, vx1, acc[qi][1]);
                acc[qi][2] = _mm256_fmadd_pd(vq, vx2, acc[qi][2]);
                acc[qi][3] = _mm256_fmadd_pd(vq, vx3, acc[qi][3]);
            }
        }
        let vtn = _mm256_loadu_pd(tn.as_ptr().add(ti));
        for qi in 0..NQ {
            let dots = hsum4(acc[qi][0], acc[qi][1], acc[qi][2], acc[qi][3]);
            let base = _mm256_add_pd(_mm256_set1_pd(*qn.add(qi)), vtn);
            // base − 2·dot, the norm-form surrogate.
            _mm256_storeu_pd(out.add(qi * nt + ti), _mm256_fnmadd_pd(two, dots, base));
        }
        ti += 4;
    }
    // Point remainder: one data row at a time, same masked d-tail.
    while ti < nt {
        let x = t.as_ptr().add(ti * d);
        for qi in 0..NQ {
            let mut acc = _mm256_setzero_pd();
            let mut c = 0;
            while c < dfull {
                acc = _mm256_fmadd_pd(
                    _mm256_loadu_pd(q.add(qi * d + c)),
                    _mm256_loadu_pd(x.add(c)),
                    acc,
                );
                c += 4;
            }
            if rem != 0 {
                acc = _mm256_fmadd_pd(
                    _mm256_maskload_pd(q.add(qi * d + c), mask),
                    _mm256_maskload_pd(x.add(c), mask),
                    acc,
                );
            }
            *out.add(qi * nt + ti) = *qn.add(qi) + tn[ti] - 2.0 * hsum1(acc);
        }
        ti += 1;
    }
}

/// AVX2+FMA surrogate panel; see [`super::surrogate_panel`].
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn surrogate_panel_avx2(
    q: &[f64],
    qn: &[f64],
    t: &[f64],
    tn: &[f64],
    d: usize,
    out: &mut [f64],
) {
    let nq = qn.len();
    let nt = tn.len();
    if nq == 0 || nt == 0 {
        return;
    }
    let mask = tail_mask(d % 4);
    let mut qi = 0;
    while qi + 2 <= nq {
        rows_avx2::<2>(
            q.as_ptr().add(qi * d),
            qn.as_ptr().add(qi),
            t,
            tn,
            d,
            mask,
            out.as_mut_ptr().add(qi * nt),
        );
        qi += 2;
    }
    if qi < nq {
        rows_avx2::<1>(
            q.as_ptr().add(qi * d),
            qn.as_ptr().add(qi),
            t,
            tn,
            d,
            mask,
            out.as_mut_ptr().add(qi * nt),
        );
    }
}

/// Both-lane horizontal sums of a pair of accumulators:
/// `[Σ a0, Σ a1]`.
#[target_feature(enable = "sse2")]
unsafe fn hsum2(a0: __m128d, a1: __m128d) -> __m128d {
    _mm_add_pd(_mm_unpacklo_pd(a0, a1), _mm_unpackhi_pd(a0, a1))
}

/// One (query, point) dot product: 2-lane accumulator plus a scalar
/// chain for the `d mod 2` tail.
#[target_feature(enable = "sse2")]
unsafe fn dot1_sse2(q: *const f64, x: *const f64, dfull: usize, d: usize) -> f64 {
    let mut acc = _mm_setzero_pd();
    let mut c = 0;
    while c < dfull {
        acc = _mm_add_pd(acc, _mm_mul_pd(_mm_loadu_pd(q.add(c)), _mm_loadu_pd(x.add(c))));
        c += 2;
    }
    let mut dot = _mm_cvtsd_f64(_mm_add_sd(acc, _mm_unpackhi_pd(acc, acc)));
    if c < d {
        dot += *q.add(c) * *x.add(c);
    }
    dot
}

/// `NQ` query rows (1 or 2) against all `nt` data rows, 2 points per
/// iteration.
#[target_feature(enable = "sse2")]
unsafe fn rows_sse2<const NQ: usize>(
    q: *const f64,
    qn: *const f64,
    t: &[f64],
    tn: &[f64],
    d: usize,
    out: *mut f64,
) {
    let nt = tn.len();
    let rem = d % 2;
    let dfull = d - rem;
    let mut ti = 0;
    while ti + 2 <= nt {
        let x0 = t.as_ptr().add(ti * d);
        let x1 = x0.add(d);
        let mut acc = [[_mm_setzero_pd(); 2]; NQ];
        let mut c = 0;
        while c < dfull {
            let vx0 = _mm_loadu_pd(x0.add(c));
            let vx1 = _mm_loadu_pd(x1.add(c));
            for qi in 0..NQ {
                let vq = _mm_loadu_pd(q.add(qi * d + c));
                acc[qi][0] = _mm_add_pd(acc[qi][0], _mm_mul_pd(vq, vx0));
                acc[qi][1] = _mm_add_pd(acc[qi][1], _mm_mul_pd(vq, vx1));
            }
            c += 2;
        }
        for qi in 0..NQ {
            let mut dots = [0.0f64; 2];
            _mm_storeu_pd(dots.as_mut_ptr(), hsum2(acc[qi][0], acc[qi][1]));
            if rem != 0 {
                let qv = *q.add(qi * d + c);
                dots[0] += qv * *x0.add(c);
                dots[1] += qv * *x1.add(c);
            }
            let qnorm = *qn.add(qi);
            *out.add(qi * nt + ti) = qnorm + tn[ti] - 2.0 * dots[0];
            *out.add(qi * nt + ti + 1) = qnorm + tn[ti + 1] - 2.0 * dots[1];
        }
        ti += 2;
    }
    if ti < nt {
        let x = t.as_ptr().add(ti * d);
        for qi in 0..NQ {
            let dot = dot1_sse2(q.add(qi * d), x, dfull, d);
            *out.add(qi * nt + ti) = *qn.add(qi) + tn[ti] - 2.0 * dot;
        }
    }
}

/// SSE2 surrogate panel; see [`super::surrogate_panel`].
#[target_feature(enable = "sse2")]
pub(super) unsafe fn surrogate_panel_sse2(
    q: &[f64],
    qn: &[f64],
    t: &[f64],
    tn: &[f64],
    d: usize,
    out: &mut [f64],
) {
    let nq = qn.len();
    let nt = tn.len();
    if nq == 0 || nt == 0 {
        return;
    }
    let mut qi = 0;
    while qi + 2 <= nq {
        rows_sse2::<2>(
            q.as_ptr().add(qi * d),
            qn.as_ptr().add(qi),
            t,
            tn,
            d,
            out.as_mut_ptr().add(qi * nt),
        );
        qi += 2;
    }
    if qi < nq {
        rows_sse2::<1>(
            q.as_ptr().add(qi * d),
            qn.as_ptr().add(qi),
            t,
            tn,
            d,
            out.as_mut_ptr().add(qi * nt),
        );
    }
}

/// Exact column-tile distances, 4 lanes per vector; see
/// [`super::exact_sq_columns`]. Separate `sub`, `mul` and `add` keep each
/// lane's rounding identical to the scalar reference.
///
/// # Safety
///
/// AVX2 must be present, `out.len()` a multiple of 4 and `cols.len() ==
/// q.len() * out.len()`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn exact_sq_columns_avx2(q: &[f64], cols: &[f64], out: &mut [f64]) {
    let m = out.len();
    let base = cols.as_ptr();
    let mut j = 0;
    while j + 16 <= m {
        let mut acc = [_mm256_setzero_pd(); 4];
        for (c, &qc) in q.iter().enumerate() {
            let vq = _mm256_set1_pd(qc);
            let row = base.add(c * m + j);
            for (u, a) in acc.iter_mut().enumerate() {
                let delta = _mm256_sub_pd(vq, _mm256_loadu_pd(row.add(4 * u)));
                *a = _mm256_add_pd(*a, _mm256_mul_pd(delta, delta));
            }
        }
        for (u, a) in acc.iter().enumerate() {
            _mm256_storeu_pd(out.as_mut_ptr().add(j + 4 * u), *a);
        }
        j += 16;
    }
    while j < m {
        let mut acc = _mm256_setzero_pd();
        for (c, &qc) in q.iter().enumerate() {
            let delta = _mm256_sub_pd(_mm256_set1_pd(qc), _mm256_loadu_pd(base.add(c * m + j)));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(delta, delta));
        }
        _mm256_storeu_pd(out.as_mut_ptr().add(j), acc);
        j += 4;
    }
}

/// SSE2 variant of [`exact_sq_columns_avx2`]: 2 lanes per vector.
///
/// # Safety
///
/// `out.len()` must be even and `cols.len() == q.len() * out.len()`.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn exact_sq_columns_sse2(q: &[f64], cols: &[f64], out: &mut [f64]) {
    let m = out.len();
    let base = cols.as_ptr();
    for j in (0..m).step_by(2) {
        let mut acc = _mm_setzero_pd();
        for (c, &qc) in q.iter().enumerate() {
            let delta = _mm_sub_pd(_mm_set1_pd(qc), _mm_loadu_pd(base.add(c * m + j)));
            acc = _mm_add_pd(acc, _mm_mul_pd(delta, delta));
        }
        _mm_storeu_pd(out.as_mut_ptr().add(j), acc);
    }
}

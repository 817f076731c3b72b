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

/// AVX2+FMA surrogate gather; see [`super::surrogate_gather`]. One query
/// × 4 scattered candidates per iteration.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn surrogate_gather_avx2(
    q: &[f64],
    qn: f64,
    coords: &[f64],
    norms: &[f64],
    d: usize,
    cands: &[usize],
    out: &mut [f64],
) {
    let nc = cands.len();
    let rem = d % 4;
    let dfull = d - rem;
    let mask = tail_mask(rem);
    let two = _mm256_set1_pd(2.0);
    let qp = q.as_ptr();
    let mut ci = 0;
    while ci + 4 <= nc {
        let j = [cands[ci], cands[ci + 1], cands[ci + 2], cands[ci + 3]];
        let x0 = coords.as_ptr().add(j[0] * d);
        let x1 = coords.as_ptr().add(j[1] * d);
        let x2 = coords.as_ptr().add(j[2] * d);
        let x3 = coords.as_ptr().add(j[3] * d);
        let mut acc = [_mm256_setzero_pd(); 4];
        let mut c = 0;
        while c < dfull {
            let vq = _mm256_loadu_pd(qp.add(c));
            acc[0] = _mm256_fmadd_pd(vq, _mm256_loadu_pd(x0.add(c)), acc[0]);
            acc[1] = _mm256_fmadd_pd(vq, _mm256_loadu_pd(x1.add(c)), acc[1]);
            acc[2] = _mm256_fmadd_pd(vq, _mm256_loadu_pd(x2.add(c)), acc[2]);
            acc[3] = _mm256_fmadd_pd(vq, _mm256_loadu_pd(x3.add(c)), acc[3]);
            c += 4;
        }
        if rem != 0 {
            let vq = _mm256_maskload_pd(qp.add(c), mask);
            acc[0] = _mm256_fmadd_pd(vq, _mm256_maskload_pd(x0.add(c), mask), acc[0]);
            acc[1] = _mm256_fmadd_pd(vq, _mm256_maskload_pd(x1.add(c), mask), acc[1]);
            acc[2] = _mm256_fmadd_pd(vq, _mm256_maskload_pd(x2.add(c), mask), acc[2]);
            acc[3] = _mm256_fmadd_pd(vq, _mm256_maskload_pd(x3.add(c), mask), acc[3]);
        }
        let dots = hsum4(acc[0], acc[1], acc[2], acc[3]);
        let vtn = _mm256_setr_pd(norms[j[0]], norms[j[1]], norms[j[2]], norms[j[3]]);
        let base = _mm256_add_pd(_mm256_set1_pd(qn), vtn);
        _mm256_storeu_pd(out.as_mut_ptr().add(ci), _mm256_fnmadd_pd(two, dots, base));
        ci += 4;
    }
    while ci < nc {
        let j = cands[ci];
        let x = coords.as_ptr().add(j * d);
        let mut acc = _mm256_setzero_pd();
        let mut c = 0;
        while c < dfull {
            acc = _mm256_fmadd_pd(_mm256_loadu_pd(qp.add(c)), _mm256_loadu_pd(x.add(c)), acc);
            c += 4;
        }
        if rem != 0 {
            acc = _mm256_fmadd_pd(
                _mm256_maskload_pd(qp.add(c), mask),
                _mm256_maskload_pd(x.add(c), mask),
                acc,
            );
        }
        out[ci] = qn + norms[j] - 2.0 * hsum1(acc);
        ci += 1;
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

/// SSE2 surrogate gather; see [`super::surrogate_gather`]. One query ×
/// 2 scattered candidates per iteration.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn surrogate_gather_sse2(
    q: &[f64],
    qn: f64,
    coords: &[f64],
    norms: &[f64],
    d: usize,
    cands: &[usize],
    out: &mut [f64],
) {
    let nc = cands.len();
    let rem = d % 2;
    let dfull = d - rem;
    let qp = q.as_ptr();
    let mut ci = 0;
    while ci + 2 <= nc {
        let (j0, j1) = (cands[ci], cands[ci + 1]);
        let x0 = coords.as_ptr().add(j0 * d);
        let x1 = coords.as_ptr().add(j1 * d);
        let mut acc = [_mm_setzero_pd(); 2];
        let mut c = 0;
        while c < dfull {
            let vq = _mm_loadu_pd(qp.add(c));
            acc[0] = _mm_add_pd(acc[0], _mm_mul_pd(vq, _mm_loadu_pd(x0.add(c))));
            acc[1] = _mm_add_pd(acc[1], _mm_mul_pd(vq, _mm_loadu_pd(x1.add(c))));
            c += 2;
        }
        let mut dots = [0.0f64; 2];
        _mm_storeu_pd(dots.as_mut_ptr(), hsum2(acc[0], acc[1]));
        if rem != 0 {
            let qv = *qp.add(c);
            dots[0] += qv * *x0.add(c);
            dots[1] += qv * *x1.add(c);
        }
        out[ci] = qn + norms[j0] - 2.0 * dots[0];
        out[ci + 1] = qn + norms[j1] - 2.0 * dots[1];
        ci += 2;
    }
    if ci < nc {
        let j = cands[ci];
        let dot = dot1_sse2(qp, coords.as_ptr().add(j * d), dfull, d);
        out[ci] = qn + norms[j] - 2.0 * dot;
    }
}

/// Capture-skip scan (see [`super::next_hit_block`]): advances over
/// [`super::SKIP_BLOCK`]-sized windows of `buf` starting at `from` and
/// returns the start of the first window whose `<= accept` compare mask
/// is non-zero, or the index of the trailing partial window. The
/// comparison is exact, so a zero mask proves every element of the
/// window is `> accept`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn next_hit_block_avx2(buf: &[f64], from: usize, accept: f64) -> usize {
    let n = buf.len();
    let p = buf.as_ptr();
    let acc = _mm256_set1_pd(accept);
    let mut i = from;
    while i + super::SKIP_BLOCK <= n {
        let lo = _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_loadu_pd(p.add(i)), acc);
        let hi = _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_loadu_pd(p.add(i + 4)), acc);
        if _mm256_movemask_pd(_mm256_or_pd(lo, hi)) != 0 {
            return i;
        }
        i += super::SKIP_BLOCK;
    }
    i
}

/// SSE2 variant of [`next_hit_block_avx2`]: four 2-lane compares per
/// window.
#[target_feature(enable = "sse2")]
pub(super) unsafe fn next_hit_block_sse2(buf: &[f64], from: usize, accept: f64) -> usize {
    let n = buf.len();
    let p = buf.as_ptr();
    let acc = _mm_set1_pd(accept);
    let mut i = from;
    while i + super::SKIP_BLOCK <= n {
        let m01 = _mm_or_pd(
            _mm_cmple_pd(_mm_loadu_pd(p.add(i)), acc),
            _mm_cmple_pd(_mm_loadu_pd(p.add(i + 2)), acc),
        );
        let m23 = _mm_or_pd(
            _mm_cmple_pd(_mm_loadu_pd(p.add(i + 4)), acc),
            _mm_cmple_pd(_mm_loadu_pd(p.add(i + 6)), acc),
        );
        if _mm_movemask_pd(_mm_or_pd(m01, m23)) != 0 {
            return i;
        }
        i += super::SKIP_BLOCK;
    }
    i
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
    for j in (0..m).step_by(4) {
        let mut acc = _mm256_setzero_pd();
        for (c, &qc) in q.iter().enumerate() {
            let delta = _mm256_sub_pd(_mm256_set1_pd(qc), _mm256_loadu_pd(base.add(c * m + j)));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(delta, delta));
        }
        _mm256_storeu_pd(out.as_mut_ptr().add(j), acc);
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

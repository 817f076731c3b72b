//! aarch64 NEON microkernel: 2 × f64 lanes with fused multiply-add
//! (`vfmaq_f64`). Same register-tiling shape as the SSE2 kernel —
//! 2 queries × 2 data points per iteration, a scalar chain for the
//! `d mod 2` tail — so each dot product carries 2 lanes plus one tail
//! chain, well inside [`super::MAX_LANES`].
//!
//! NEON is part of the aarch64 baseline, so detection always selects it
//! there; this file is compiled only on aarch64 and is exercised by the
//! same differential suite (`crates/core/tests/simd_identity.rs`) as the
//! x86 kernels.
//!
//! # Safety
//!
//! `unsafe fn` + `#[target_feature(enable = "neon")]`: callers must
//! verify the feature (the dispatch layer does via [`super::available`]).

#![allow(unsafe_op_in_unsafe_fn)]
// Micropanel loops index per-query register accumulators and raw row
// pointers by `qi` in lockstep; an iterator form would obscure the
// register tiling.
#![allow(clippy::needless_range_loop)]

use std::arch::aarch64::*;

/// One (query, point) dot product: 2-lane FMA accumulator plus a scalar
/// chain for the `d mod 2` tail.
#[target_feature(enable = "neon")]
unsafe fn dot1_neon(q: *const f64, x: *const f64, dfull: usize, d: usize) -> f64 {
    let mut acc = vdupq_n_f64(0.0);
    let mut c = 0;
    while c < dfull {
        acc = vfmaq_f64(acc, vld1q_f64(q.add(c)), vld1q_f64(x.add(c)));
        c += 2;
    }
    let mut dot = vaddvq_f64(acc);
    if c < d {
        dot += *q.add(c) * *x.add(c);
    }
    dot
}

/// `NQ` query rows (1 or 2) against all `nt` data rows, 2 points per
/// iteration.
#[target_feature(enable = "neon")]
unsafe fn rows_neon<const NQ: usize>(
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
        let mut acc = [[vdupq_n_f64(0.0); 2]; NQ];
        let mut c = 0;
        while c < dfull {
            let vx0 = vld1q_f64(x0.add(c));
            let vx1 = vld1q_f64(x1.add(c));
            for qi in 0..NQ {
                let vq = vld1q_f64(q.add(qi * d + c));
                acc[qi][0] = vfmaq_f64(acc[qi][0], vq, vx0);
                acc[qi][1] = vfmaq_f64(acc[qi][1], vq, vx1);
            }
            c += 2;
        }
        for qi in 0..NQ {
            let mut dots = [vaddvq_f64(acc[qi][0]), vaddvq_f64(acc[qi][1])];
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
            let dot = dot1_neon(q.add(qi * d), x, dfull, d);
            *out.add(qi * nt + ti) = *qn.add(qi) + tn[ti] - 2.0 * dot;
        }
    }
}

/// NEON surrogate panel; see [`super::surrogate_panel`].
#[target_feature(enable = "neon")]
pub(super) unsafe fn surrogate_panel_neon(
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
        rows_neon::<2>(
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
        rows_neon::<1>(
            q.as_ptr().add(qi * d),
            qn.as_ptr().add(qi),
            t,
            tn,
            d,
            out.as_mut_ptr().add(qi * nt),
        );
    }
}

/// Exact column-tile distances, 2 lanes per vector; see
/// [`super::exact_sq_columns`]. Separate `sub`, `mul` and `add` (no
/// `vfmaq_f64`) keep each lane's rounding identical to the scalar
/// reference.
///
/// # Safety
///
/// `out.len()` must be even and `cols.len() == q.len() * out.len()`.
#[target_feature(enable = "neon")]
pub(super) unsafe fn exact_sq_columns_neon(q: &[f64], cols: &[f64], out: &mut [f64]) {
    let m = out.len();
    let base = cols.as_ptr();
    for j in (0..m).step_by(2) {
        let mut acc = vdupq_n_f64(0.0);
        for (c, &qc) in q.iter().enumerate() {
            let delta = vsubq_f64(vdupq_n_f64(qc), vld1q_f64(base.add(c * m + j)));
            acc = vaddq_f64(acc, vmulq_f64(delta, delta));
        }
        vst1q_f64(out.as_mut_ptr().add(j), acc);
    }
}

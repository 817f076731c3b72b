//! Portable scalar backend: the pre-SIMD blocked-kernel dot loop,
//! verbatim. Four independent partial sums (enough ILP to keep a scalar
//! FPU's add/mul ports busy), scalar tail for `d mod 4`, monomorphized
//! over common dimensionalities so the loop fully unrolls. This path is
//! the semantic reference — `LOF_FORCE_SCALAR=1` pins the whole process
//! to it — and its surrogates are bit-identical to the PR 1 kernel.

/// One surrogate dot product in the canonical scalar order.
#[inline(always)]
fn dot<const D: usize>(q: &[f64], x: &[f64], d: usize) -> f64 {
    let d = if D == 0 { d } else { D };
    let mut acc = [0.0f64; 4];
    let mut t = 0;
    while t + 4 <= d {
        acc[0] += q[t] * x[t];
        acc[1] += q[t + 1] * x[t + 1];
        acc[2] += q[t + 2] * x[t + 2];
        acc[3] += q[t + 3] * x[t + 3];
        t += 4;
    }
    let mut dot = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    while t < d {
        dot += q[t] * x[t];
        t += 1;
    }
    dot
}

fn panel_impl<const D: usize>(
    q: &[f64],
    qn: &[f64],
    t: &[f64],
    tn: &[f64],
    d: usize,
    out: &mut [f64],
) {
    let d = if D == 0 { d } else { D };
    let nt = tn.len();
    for (qi, &qnorm) in qn.iter().enumerate() {
        let qrow = &q[qi * d..][..d];
        let orow = &mut out[qi * nt..][..nt];
        for (ti, slot) in orow.iter_mut().enumerate() {
            let xrow = &t[ti * d..][..d];
            *slot = qnorm + tn[ti] - 2.0 * dot::<D>(qrow, xrow, d);
        }
    }
}

/// Dispatches to a monomorphized body for common dimensionalities so the
/// dot product fully unrolls; the runtime-`d` fallback covers the rest.
macro_rules! mono_d {
    ($d:expr, $impl:ident, ($($args:expr),*)) => {
        match $d {
            1 => $impl::<1>($($args),*),
            2 => $impl::<2>($($args),*),
            3 => $impl::<3>($($args),*),
            4 => $impl::<4>($($args),*),
            5 => $impl::<5>($($args),*),
            6 => $impl::<6>($($args),*),
            7 => $impl::<7>($($args),*),
            8 => $impl::<8>($($args),*),
            9 => $impl::<9>($($args),*),
            10 => $impl::<10>($($args),*),
            12 => $impl::<12>($($args),*),
            16 => $impl::<16>($($args),*),
            20 => $impl::<20>($($args),*),
            32 => $impl::<32>($($args),*),
            64 => $impl::<64>($($args),*),
            _ => $impl::<0>($($args),*),
        }
    };
}

pub(super) fn surrogate_panel(
    q: &[f64],
    qn: &[f64],
    t: &[f64],
    tn: &[f64],
    d: usize,
    out: &mut [f64],
) {
    mono_d!(d, panel_impl, (q, qn, t, tn, d, out));
}

/// Exact column-tile distances one lane at a time: the
/// [`crate::distance::squared_euclidean`] loop over a column-major tile.
pub(super) fn exact_sq_columns(q: &[f64], cols: &[f64], out: &mut [f64]) {
    let m = out.len();
    for (j, slot) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (c, &qc) in q.iter().enumerate() {
            let delta = qc - cols[c * m + j];
            acc += delta * delta;
        }
        *slot = acc;
    }
}

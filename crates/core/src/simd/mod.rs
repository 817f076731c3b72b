//! Runtime-dispatched SIMD microkernels for the norm-form surrogate
//! distance `‖q‖² + ‖x‖² − 2·q·x`.
//!
//! Step 1 of the paper's two-step algorithm (section 7.4) reduces, in the
//! blocked kernel, to a stream of dot products. This module evaluates
//! them at the hardware's FMA width: hand-written `std::arch`
//! microkernels for x86-64 AVX2+FMA and SSE2 and aarch64 NEON, selected
//! **once per process** by runtime CPU-feature detection ([`active`]),
//! with a portable scalar fallback that reproduces the pre-SIMD blocked
//! kernel bit for bit.
//!
//! ## Exactness contract
//!
//! SIMD summation reassociates the dot product (lane partial sums are
//! combined in a tree instead of the scalar path's fixed order), so a
//! SIMD surrogate generally differs from the scalar surrogate in its last
//! ulps. That is *allowed*: every consumer treats surrogates as
//! conservative keys only — candidate selection widens its cutoff by
//! [`surrogate_slack`] (which bounds the error of **any** summation
//! order, any lane count up to [`MAX_LANES`]) and re-derives the exact
//! scalar distance of every survivor. Final neighborhoods, ties, and LOF
//! values are therefore bit-identical across all dispatch targets —
//! enforced by `crates/core/tests/simd_identity.rs`.
//!
//! ## Forcing a target
//!
//! `LOF_FORCE_SCALAR=1` pins the process to the scalar path (the
//! differential-testing escape hatch used by `scripts/ci.sh`);
//! `LOF_SIMD=scalar|sse2|avx2|neon|auto` selects a specific target.
//! Either variable is read once, at the first [`active`] call; a
//! requested target the CPU cannot run falls back to detection.

mod scalar;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

/// Instruction-set targets the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// x86-64 AVX2 + FMA: 4 × f64 lanes, fused multiply-add.
    Avx2Fma,
    /// x86-64 SSE2 (baseline on every x86-64 CPU): 2 × f64 lanes.
    Sse2,
    /// aarch64 NEON (baseline on every aarch64 CPU): 2 × f64 lanes.
    Neon,
    /// Portable scalar fallback: the pre-SIMD blocked-kernel loop,
    /// monomorphized over common dimensionalities.
    Scalar,
}

/// Upper bound on the independent partial sums any microkernel carries
/// per dot product (lanes × register-tiled accumulators). The
/// [`surrogate_slack`] reassociation term uses this, so every current and
/// future kernel must stay within it.
pub const MAX_LANES: usize = 8;

impl Isa {
    /// Stable lower-case key (env values, metric names, JSON fields).
    pub fn key(self) -> &'static str {
        match self {
            Isa::Avx2Fma => "avx2_fma",
            Isa::Sse2 => "sse2",
            Isa::Neon => "neon",
            Isa::Scalar => "scalar",
        }
    }

    /// f64 lanes per vector register (1 for the scalar path).
    pub fn lanes(self) -> usize {
        match self {
            Isa::Avx2Fma => 4,
            Isa::Sse2 | Isa::Neon => 2,
            Isa::Scalar => 1,
        }
    }

    /// Data points per register-tiled micropanel iteration.
    pub fn panel_points(self) -> usize {
        match self {
            Isa::Avx2Fma => 4,
            Isa::Sse2 | Isa::Neon => 2,
            Isa::Scalar => 1,
        }
    }

    /// Queries per register-tiled micropanel iteration.
    pub fn panel_queries(self) -> usize {
        match self {
            Isa::Avx2Fma | Isa::Sse2 | Isa::Neon => 2,
            Isa::Scalar => 1,
        }
    }
}

/// Conservative bound on `|surrogate − exact scalar squared distance|`
/// for any point pair of a dataset whose largest squared norm is
/// `max_norm`, valid for **every** dispatch target.
///
/// Error budget: each norm and the dot product carry ≈ `d·eps·max‖x‖²`
/// of absolute rounding error; a SIMD dot splits the sum into at most
/// [`MAX_LANES`] partial chains of `⌈d/L⌉` fused multiply-adds each,
/// combined by a reduction tree of depth ≤ `log₂ MAX_LANES` — so the
/// worst chain length over any reassociation is ≤ `d + MAX_LANES` terms.
/// The final `qn + xn − 2·dot` combination contributes a few ulps of
/// magnitude ≤ `4·max‖x‖²`, and the exact scalar reference path
/// contributes a term of the same order. `16·(d + 4 + MAX_LANES)·eps·
/// max‖x‖²` over-covers the total by ~4x.
pub fn surrogate_slack(d: usize, max_norm: f64) -> f64 {
    16.0 * (d as f64 + 4.0 + MAX_LANES as f64) * f64::EPSILON * max_norm
}

/// The target pure hardware detection selects (no env override).
pub fn detect() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            Isa::Avx2Fma
        } else {
            Isa::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        Isa::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Isa::Scalar
    }
}

/// Every target this machine can execute, scalar first. Differential
/// tests iterate this to compare all runnable kernels in one process.
pub fn available() -> &'static [Isa] {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<Vec<Isa>> = OnceLock::new();
    AVAILABLE.get_or_init(|| {
        let mut isas = vec![Isa::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            isas.push(Isa::Sse2);
            if detect() == Isa::Avx2Fma {
                isas.push(Isa::Avx2Fma);
            }
        }
        #[cfg(target_arch = "aarch64")]
        isas.push(Isa::Neon);
        isas
    })
}

/// Env-var override: `LOF_FORCE_SCALAR` (anything but empty/`0`) pins
/// scalar; otherwise `LOF_SIMD` names a target (`auto` = detect).
fn from_env() -> Option<Isa> {
    if let Ok(v) = std::env::var("LOF_FORCE_SCALAR") {
        if !v.is_empty() && v != "0" {
            return Some(Isa::Scalar);
        }
    }
    match std::env::var("LOF_SIMD").ok()?.to_ascii_lowercase().as_str() {
        "scalar" => Some(Isa::Scalar),
        "sse2" => Some(Isa::Sse2),
        "avx2" | "avx2_fma" | "avx2fma" => Some(Isa::Avx2Fma),
        "neon" => Some(Isa::Neon),
        _ => None,
    }
}

/// The process-wide dispatch target: env override if runnable, hardware
/// detection otherwise. Resolved once (first call) and cached; the
/// selection is published to the `core.simd.dispatch_*` metric.
pub fn active() -> Isa {
    use std::sync::OnceLock;
    static ACTIVE: OnceLock<Isa> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let requested = from_env();
        let isa = match requested {
            Some(isa) if available().contains(&isa) => isa,
            _ => detect(),
        };
        crate::obs::publish_simd_dispatch(isa);
        isa
    })
}

/// Deterministic instrumentation for one [`surrogate_panel`] call:
/// `(micropanels executed, remainder lanes)`. Micropanels are full
/// register-tiled iterations (`panel_queries × panel_points` outputs
/// each); remainder lanes count the trailing `d mod lanes` dimension
/// elements of every dot that take the masked/peeled path.
pub fn panel_counts(isa: Isa, nq: usize, nt: usize, d: usize) -> (u64, u64) {
    let micropanels = (nq / isa.panel_queries()) as u64 * (nt / isa.panel_points()) as u64;
    let remainder = ((d % isa.lanes()) * nq * nt) as u64;
    (micropanels, remainder)
}

/// Checks `isa` can run here, falling back to scalar otherwise — this is
/// what keeps the dispatch functions safe to call with any `Isa` value.
#[inline]
fn runnable(isa: Isa) -> Isa {
    if available().contains(&isa) {
        isa
    } else {
        Isa::Scalar
    }
}

/// Surrogate panel: `out[qi·nt + ti] = qn[qi] + tn[ti] − 2·(q_qi · x_ti)`
/// for `nq` contiguous query rows against `nt` contiguous data rows.
///
/// `q` is `nq × d` row-major, `t` is `nt × d` row-major, `qn`/`tn` are
/// the rows' precomputed squared norms, and `out` must hold exactly
/// `nq·nt` slots. Each output differs from the exact scalar squared
/// distance by at most [`surrogate_slack`].
///
/// # Panics
///
/// Panics (debug) on inconsistent slice lengths.
pub fn surrogate_panel(
    isa: Isa,
    q: &[f64],
    qn: &[f64],
    t: &[f64],
    tn: &[f64],
    d: usize,
    out: &mut [f64],
) {
    debug_assert!(d > 0, "points have at least one dimension");
    debug_assert_eq!(q.len(), qn.len() * d, "query rows / norms mismatch");
    debug_assert_eq!(t.len(), tn.len() * d, "data rows / norms mismatch");
    debug_assert_eq!(out.len(), qn.len() * tn.len(), "output panel size mismatch");
    match runnable(isa) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` verified the features via `available()`.
        Isa::Avx2Fma => unsafe { x86::surrogate_panel_avx2(q, qn, t, tn, d, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Isa::Sse2 => unsafe { x86::surrogate_panel_sse2(q, qn, t, tn, d, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline.
        Isa::Neon => unsafe { neon::surrogate_panel_neon(q, qn, t, tn, d, out) },
        _ => scalar::surrogate_panel(q, qn, t, tn, d, out),
    }
}

/// Column-stride alignment of [`exact_sq_columns`] tiles: the widest
/// target's f64 lanes, so every target runs whole vectors with no tail.
pub const COLUMN_ALIGN: usize = 4;

/// Exact squared Euclidean distances from `q` to every lane of a
/// column-major tile: `out[j] = Σ_c (q[c] − cols[c·m + j])²` with
/// `m = out.len()` a multiple of [`COLUMN_ALIGN`].
///
/// Unlike the surrogate kernels this is **exact**: each lane takes one
/// subtract, one multiply and one add per dimension, summed forward from
/// `0.0` — the operations and order of
/// [`crate::distance::squared_euclidean`], with no fused multiply-add.
/// Vector lanes only run different point pairs side by side, so every
/// target returns the scalar reference's bits.
///
/// # Panics
///
/// Panics on a misaligned stride or a tile of the wrong size: the vector
/// kernels read whole lanes, so these checks keep them in bounds.
pub fn exact_sq_columns(isa: Isa, q: &[f64], cols: &[f64], out: &mut [f64]) {
    assert_eq!(out.len() % COLUMN_ALIGN, 0, "tile stride must be lane-aligned");
    assert_eq!(cols.len(), q.len() * out.len(), "tile size mismatch");
    // Every kernel below reads lanes `j..j + lanes` of each column with
    // `j + lanes <= out.len()` (lanes divide the aligned stride), inside
    // `cols` by the asserts above.
    match runnable(isa) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` verified the features via `available()`;
        // reads stay in bounds as noted above.
        Isa::Avx2Fma => unsafe { x86::exact_sq_columns_avx2(q, cols, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86-64 baseline; reads stay in
        // bounds as noted above.
        Isa::Sse2 => unsafe { x86::exact_sq_columns_sse2(q, cols, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline; reads stay in
        // bounds as noted above.
        Isa::Neon => unsafe { neon::exact_sq_columns_neon(q, cols, out) },
        _ => scalar::exact_sq_columns(q, cols, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::squared_euclidean;

    /// A small adversarial fixture: duplicates, a far-origin cluster, a
    /// zero row.
    fn fixture(d: usize) -> Vec<f64> {
        let mut rows = Vec::new();
        for i in 0..13 {
            for c in 0..d {
                rows.push(((i * (c + 2) + c) % 7) as f64 * 0.5 - 1.0);
            }
        }
        // Duplicate pair.
        let dup: Vec<f64> = rows[..d].to_vec();
        rows.extend_from_slice(&dup);
        rows.extend_from_slice(&dup);
        // Far-origin cluster (cancellation stress).
        for i in 0..4 {
            for c in 0..d {
                rows.push(1.0e8 + (i * (c + 1)) as f64 * 1.0e-3);
            }
        }
        // Zero row.
        rows.extend(std::iter::repeat_n(0.0, d));
        rows
    }

    fn norms(rows: &[f64], d: usize) -> Vec<f64> {
        rows.chunks_exact(d)
            .map(|r| {
                let mut acc = 0.0;
                for &v in r {
                    acc += v * v;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn every_available_isa_respects_the_slack_bound() {
        for &isa in available() {
            // d sweeps every remainder class of every lane width (1..=2·4+1).
            for d in 1..=(2 * 4 + 1) {
                let rows = fixture(d);
                let ns = norms(&rows, d);
                let n = ns.len();
                let max_norm = ns.iter().cloned().fold(0.0f64, f64::max);
                let slack = surrogate_slack(d, max_norm);
                let mut out = vec![0.0; n * n];
                surrogate_panel(isa, &rows, &ns, &rows, &ns, d, &mut out);
                for qi in 0..n {
                    for ti in 0..n {
                        let exact = squared_euclidean(&rows[qi * d..][..d], &rows[ti * d..][..d]);
                        let got = out[qi * n + ti];
                        assert!(
                            (got - exact).abs() <= slack,
                            "{}: d={d} pair ({qi},{ti}): |{got} - {exact}| > slack {slack}",
                            isa.key()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_columns_match_the_scalar_distance_bit_for_bit() {
        for &isa in available() {
            for d in 1..=9 {
                let rows = fixture(d);
                let m = rows.len() / d;
                let stride = m.next_multiple_of(COLUMN_ALIGN);
                let mut cols = vec![0.0; d * stride];
                for j in 0..m {
                    for c in 0..d {
                        cols[c * stride + j] = rows[j * d + c];
                    }
                }
                let mut out = vec![0.0; stride];
                for qi in 0..m {
                    let q = &rows[qi * d..][..d];
                    exact_sq_columns(isa, q, &cols, &mut out);
                    for j in 0..m {
                        let want = squared_euclidean(q, &rows[j * d..][..d]);
                        assert_eq!(
                            out[j].to_bits(),
                            want.to_bits(),
                            "{}: d={d} ({qi},{j})",
                            isa.key()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn active_is_stable_and_available() {
        let isa = active();
        assert_eq!(isa, active(), "dispatch must be resolved once");
        assert!(available().contains(&isa));
        assert!(available().contains(&Isa::Scalar));
    }

    #[test]
    fn panel_counts_are_deterministic_arithmetic() {
        let (p, r) = panel_counts(Isa::Scalar, 3, 10, 7);
        assert_eq!((p, r), (30, 0), "scalar: one micropanel per pair, no remainder");
        let (p, r) = panel_counts(Isa::Avx2Fma, 4, 10, 10);
        // 2-query × 4-point micropanels: ⌊4/2⌋·⌊10/4⌋ = 4; 10 % 4 lanes = 2
        // remainder lanes per dot, 40 dots.
        assert_eq!((p, r), (4, 80));
    }

    #[test]
    fn slack_grows_with_dimensionality_and_norm() {
        assert!(surrogate_slack(8, 1.0) > surrogate_slack(2, 1.0));
        assert!(surrogate_slack(2, 1.0e8) > surrogate_slack(2, 1.0));
        assert_eq!(surrogate_slack(3, 0.0), 0.0);
    }
}

//! Distance metrics.
//!
//! The paper only requires a distance function `d(p, q)`; the usual choice
//! (and the one used in its experiments) is Euclidean distance. We provide
//! the Minkowski family plus hooks the spatial indexes need: the minimum
//! distance from a point to an axis-aligned rectangle (for tree/grid pruning)
//! and a statement of whether the metric satisfies the triangle inequality
//! (for metric-tree pruning).

use std::fmt::Debug;

/// Stack capacity for the default [`Metric::min_dist_to_rect`]; covers
/// every dimensionality in the paper's experiments (max 64-d) without
/// touching the heap.
const CLAMP_STACK_DIMS: usize = 64;

/// How a metric relates to the blocked squared-Euclidean kernel in
/// [`crate::kernel`]. Metrics whose distance is a monotone function of
/// squared Euclidean distance can run k-NN selection entirely in squared
/// space (no `sqrt` per candidate) and use the norm-precompute batch
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedForm {
    /// `distance == sqrt(squared_euclidean)`: select on squared keys,
    /// take one `sqrt` per surviving neighbor.
    Euclidean,
    /// `distance == squared_euclidean`: squared keys *are* the distances.
    SquaredEuclidean,
    /// No squared-space shortcut; use the generic `distance` path.
    Generic,
}

/// A distance function over coordinate vectors.
///
/// Implementations must be symmetric, non-negative and return `0` for
/// identical inputs. [`Metric::min_dist_to_rect`] must be a lower bound on
/// the distance from `q` to any point inside the rectangle `[lo, hi]` — the
/// spatial indexes rely on it for pruning, so a too-large value produces
/// wrong query results (a too-small value only costs performance).
pub trait Metric: Send + Sync + Debug {
    /// Distance between two points of equal dimensionality.
    fn distance(&self, a: &[f64], b: &[f64]) -> f64;

    /// Lower bound on `distance(q, x)` over all `x` with `lo <= x <= hi`
    /// component-wise. The default clamps `q` into the rectangle, which is
    /// exact for every Minkowski metric. The clamped point lives in a
    /// fixed-size stack buffer (heap fallback only above
    /// [`CLAMP_STACK_DIMS`] dimensions), so pruning never allocates on
    /// realistic dimensionalities.
    fn min_dist_to_rect(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        debug_assert_eq!(q.len(), lo.len());
        debug_assert_eq!(q.len(), hi.len());
        if q.len() <= CLAMP_STACK_DIMS {
            let mut clamped = [0.0; CLAMP_STACK_DIMS];
            for d in 0..q.len() {
                clamped[d] = q[d].clamp(lo[d], hi[d]);
            }
            self.distance(q, &clamped[..q.len()])
        } else {
            let clamped: Vec<f64> = (0..q.len()).map(|d| q[d].clamp(lo[d], hi[d])).collect();
            self.distance(q, &clamped)
        }
    }

    /// Lower bound on the **squared Euclidean** distance from `q` to the
    /// rectangle — the pruning key of the squared-space tree descent.
    /// Only meaningful when [`Metric::blocked_form`] is not
    /// [`BlockedForm::Generic`]; the default squares
    /// [`Metric::min_dist_to_rect`], the Euclidean metrics override it
    /// with a direct gap accumulation (no `sqrt`, no allocation).
    fn min_dist_to_rect_sq(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        let d = self.min_dist_to_rect(q, lo, hi);
        d * d
    }

    /// Lower bound on `distance(x, y)` over all `x ∈ [alo, ahi]` and
    /// `y ∈ [blo, bhi]` (component-wise). The top-n pruning engine uses
    /// rectangle-to-rectangle bounds to derive per-partition k-distance
    /// envelopes without touching any point.
    ///
    /// The default returns `0.0`, which is always a valid lower bound
    /// (distances are non-negative): metrics without a cheap rectangle
    /// geometry — [`Angular`] — keep exactness and merely disable
    /// partition pruning. The Minkowski family overrides it with the
    /// per-dimension gap accumulation, which is exact.
    fn min_dist_between_rects(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        let _ = (alo, ahi, blo, bhi);
        0.0
    }

    /// Upper bound on `distance(x, y)` over all `x ∈ [alo, ahi]` and
    /// `y ∈ [blo, bhi]` (component-wise). Same contract shape as
    /// [`Metric::min_dist_between_rects`]: the default `+∞` is always
    /// valid and merely disables pruning; the Minkowski family overrides
    /// it with the exact farthest-corner accumulation.
    fn max_dist_between_rects(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        let _ = (alo, ahi, blo, bhi);
        f64::INFINITY
    }

    /// Whether this metric can be served by the blocked squared-distance
    /// kernel and squared-space selection. Defaults to
    /// [`BlockedForm::Generic`] (no shortcut).
    fn blocked_form(&self) -> BlockedForm {
        BlockedForm::Generic
    }

    /// Whether the metric satisfies the triangle inequality. Metric trees
    /// (ball trees) may only be used with metrics for which this holds.
    fn is_metric(&self) -> bool {
        true
    }
}

/// Euclidean (L2) distance — the metric used in all of the paper's
/// experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

impl Metric for Euclidean {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        squared_euclidean(a, b).sqrt()
    }

    fn min_dist_to_rect(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        self.min_dist_to_rect_sq(q, lo, hi).sqrt()
    }

    fn min_dist_to_rect_sq(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for d in 0..q.len() {
            let delta = rect_gap(q[d], lo[d], hi[d]);
            acc += delta * delta;
        }
        acc
    }

    fn min_dist_between_rects(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for d in 0..alo.len() {
            let gap = rect_rect_gap(alo[d], ahi[d], blo[d], bhi[d]);
            acc += gap * gap;
        }
        acc.sqrt()
    }

    fn max_dist_between_rects(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for d in 0..alo.len() {
            let span = rect_rect_span(alo[d], ahi[d], blo[d], bhi[d]);
            acc += span * span;
        }
        acc.sqrt()
    }

    fn blocked_form(&self) -> BlockedForm {
        BlockedForm::Euclidean
    }
}

/// Squared Euclidean distance. *Not* a metric (triangle inequality fails),
/// but monotone in Euclidean distance, so k-NN *sets* agree with
/// [`Euclidean`]; LOF values computed from it differ because reachability
/// distances are squared. Useful for distance-heavy experimentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquaredEuclidean;

impl Metric for SquaredEuclidean {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        squared_euclidean(a, b)
    }

    fn min_dist_to_rect(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        self.min_dist_to_rect_sq(q, lo, hi)
    }

    fn min_dist_to_rect_sq(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for d in 0..q.len() {
            let delta = rect_gap(q[d], lo[d], hi[d]);
            acc += delta * delta;
        }
        acc
    }

    fn min_dist_between_rects(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for d in 0..alo.len() {
            let gap = rect_rect_gap(alo[d], ahi[d], blo[d], bhi[d]);
            acc += gap * gap;
        }
        acc
    }

    fn max_dist_between_rects(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for d in 0..alo.len() {
            let span = rect_rect_span(alo[d], ahi[d], blo[d], bhi[d]);
            acc += span * span;
        }
        acc
    }

    fn blocked_form(&self) -> BlockedForm {
        BlockedForm::SquaredEuclidean
    }

    fn is_metric(&self) -> bool {
        false
    }
}

/// Manhattan (L1) distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Manhattan;

impl Metric for Manhattan {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    fn min_dist_to_rect(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        (0..q.len()).map(|d| rect_gap(q[d], lo[d], hi[d])).sum()
    }

    fn min_dist_between_rects(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        (0..alo.len()).map(|d| rect_rect_gap(alo[d], ahi[d], blo[d], bhi[d])).sum()
    }

    fn max_dist_between_rects(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        (0..alo.len()).map(|d| rect_rect_span(alo[d], ahi[d], blo[d], bhi[d])).sum()
    }
}

/// Chebyshev (L∞) distance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chebyshev;

impl Metric for Chebyshev {
    #[inline]
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    fn min_dist_to_rect(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        (0..q.len()).map(|d| rect_gap(q[d], lo[d], hi[d])).fold(0.0, f64::max)
    }

    fn min_dist_between_rects(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        (0..alo.len()).map(|d| rect_rect_gap(alo[d], ahi[d], blo[d], bhi[d])).fold(0.0, f64::max)
    }

    fn max_dist_between_rects(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        (0..alo.len()).map(|d| rect_rect_span(alo[d], ahi[d], blo[d], bhi[d])).fold(0.0, f64::max)
    }
}

/// Minkowski (Lp) distance for `p >= 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minkowski {
    p: f64,
}

impl Minkowski {
    /// Creates an Lp metric.
    ///
    /// # Panics
    ///
    /// Panics if `p < 1` (the triangle inequality fails for `p < 1`).
    pub fn new(p: f64) -> Self {
        assert!(p >= 1.0, "Minkowski requires p >= 1, got {p}");
        Minkowski { p }
    }

    /// The order `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Metric for Minkowski {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs().powf(self.p)).sum();
        sum.powf(1.0 / self.p)
    }

    fn min_dist_to_rect(&self, q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        let sum: f64 = (0..q.len()).map(|d| rect_gap(q[d], lo[d], hi[d]).powf(self.p)).sum();
        sum.powf(1.0 / self.p)
    }

    fn min_dist_between_rects(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        let sum: f64 = (0..alo.len())
            .map(|d| rect_rect_gap(alo[d], ahi[d], blo[d], bhi[d]).powf(self.p))
            .sum();
        sum.powf(1.0 / self.p)
    }

    fn max_dist_between_rects(&self, alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
        let sum: f64 = (0..alo.len())
            .map(|d| rect_rect_span(alo[d], ahi[d], blo[d], bhi[d]).powf(self.p))
            .sum();
        sum.powf(1.0 / self.p)
    }
}

/// Angular distance: the angle (in radians) between two vectors seen from
/// the origin. Unlike "cosine distance" (`1 − cos`), the angle itself
/// satisfies the triangle inequality, so it is a proper metric (on nonzero
/// vectors) and works with [`crate::scan::LinearScan`] and metric trees.
/// Natural for direction-like data such as the normalized color histograms
/// of the paper's 64-dimensional experiment.
///
/// A zero vector has no direction. It sits at angle π/2 to every nonzero
/// vector and at 0 to another zero vector. π/2 is the smallest such
/// constant that keeps the triangle inequality: a path through a zero
/// vector then costs π, the largest possible angle. So ball-tree pruning
/// stays exact on data with all-zero rows.
///
/// `min_dist_to_rect` returns 0: the generic clamp bound is *not* a valid
/// lower bound for angles, so rectangle-based indexes (grid/kd-tree/X-tree/
/// VA-file) degrade to correct-but-unpruned scans under this metric — use
/// the ball tree, which only needs the triangle inequality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Angular;

impl Metric for Angular {
    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        for (x, y) in a.iter().zip(b) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        if na == 0.0 || nb == 0.0 {
            return if na == nb { 0.0 } else { std::f64::consts::FRAC_PI_2 };
        }
        (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0).acos()
    }

    fn min_dist_to_rect(&self, _q: &[f64], _lo: &[f64], _hi: &[f64]) -> f64 {
        0.0 // no valid cheap bound; disables (never corrupts) pruning
    }
}

/// Squared Euclidean distance between two points.
///
/// This exact summation order (one forward pass, `acc += delta * delta`)
/// is the reference the blocked kernel's refine step reproduces, so the
/// fast path stays bit-identical to the scalar path.
#[inline]
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let delta = x - y;
        acc += delta * delta;
    }
    acc
}

/// Per-dimension distance from coordinate `q` to the interval `[lo, hi]`,
/// without a branch: for `lo <= hi` at most one of `lo - q` and `q - hi`
/// is positive, and it is the gap; inside the interval both are `<= 0`
/// and the gap is `0`. The trailing `+ 0.0` turns the `-0.0` that `max`
/// may keep (from a `-0.0` bound beside a `+0.0` coordinate) into `+0.0`,
/// so the result is the branching form's, bit for bit.
#[inline]
fn rect_gap(q: f64, lo: f64, hi: f64) -> f64 {
    (lo - q).max(q - hi).max(0.0) + 0.0
}

/// Per-dimension *closest* separation of the intervals `[alo, ahi]` and
/// `[blo, bhi]`: zero when they overlap.
#[inline]
fn rect_rect_gap(alo: f64, ahi: f64, blo: f64, bhi: f64) -> f64 {
    if ahi < blo {
        blo - ahi
    } else if bhi < alo {
        alo - bhi
    } else {
        0.0
    }
}

/// Per-dimension *farthest* separation of the intervals `[alo, ahi]` and
/// `[blo, bhi]`: the larger of the two end-to-end distances. Non-negative
/// for any pair of non-empty intervals.
#[inline]
fn rect_rect_span(alo: f64, ahi: f64, blo: f64, bhi: f64) -> f64 {
    (ahi - blo).max(bhi - alo)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 3] = [1.0, 2.0, 3.0];
    const B: [f64; 3] = [4.0, 6.0, 3.0];

    #[test]
    fn euclidean_matches_hand_computation() {
        assert!((Euclidean.distance(&A, &B) - 5.0).abs() < 1e-12);
        assert_eq!(Euclidean.distance(&A, &A), 0.0);
    }

    #[test]
    fn squared_euclidean_is_square_of_euclidean() {
        let d = Euclidean.distance(&A, &B);
        let d2 = SquaredEuclidean.distance(&A, &B);
        assert!((d * d - d2).abs() < 1e-12);
        assert!(!SquaredEuclidean.is_metric());
    }

    #[test]
    fn manhattan_and_chebyshev() {
        assert!((Manhattan.distance(&A, &B) - 7.0).abs() < 1e-12);
        assert!((Chebyshev.distance(&A, &B) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn minkowski_interpolates_l1_l2() {
        let l1 = Minkowski::new(1.0);
        let l2 = Minkowski::new(2.0);
        assert!((l1.distance(&A, &B) - Manhattan.distance(&A, &B)).abs() < 1e-12);
        assert!((l2.distance(&A, &B) - Euclidean.distance(&A, &B)).abs() < 1e-12);
        // As p grows, Lp approaches Chebyshev from above.
        let l16 = Minkowski::new(16.0);
        let linf = Chebyshev.distance(&A, &B);
        assert!(l16.distance(&A, &B) >= linf);
        assert!(l16.distance(&A, &B) < linf + 0.5);
    }

    #[test]
    #[should_panic(expected = "p >= 1")]
    fn minkowski_rejects_sub_one_p() {
        let _ = Minkowski::new(0.5);
    }

    #[test]
    fn rect_gap_matches_the_branching_form_bit_for_bit() {
        let branching = |q: f64, lo: f64, hi: f64| {
            if q < lo {
                lo - q
            } else if q > hi {
                q - hi
            } else {
                0.0
            }
        };
        let values =
            [f64::MIN, -3.5, -1.0, -f64::MIN_POSITIVE, -0.0, 0.0, 5e-324, 0.25, 2.0, 1e300];
        for &q in &values {
            for &lo in &values {
                for &hi in values.iter().filter(|&&hi| lo <= hi) {
                    assert_eq!(
                        rect_gap(q, lo, hi).to_bits(),
                        branching(q, lo, hi).to_bits(),
                        "q={q:?} lo={lo:?} hi={hi:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_dist_to_rect_is_zero_inside() {
        let lo = [0.0, 0.0];
        let hi = [1.0, 1.0];
        let inside = [0.5, 0.25];
        assert_eq!(Euclidean.min_dist_to_rect(&inside, &lo, &hi), 0.0);
        assert_eq!(Manhattan.min_dist_to_rect(&inside, &lo, &hi), 0.0);
        assert_eq!(Chebyshev.min_dist_to_rect(&inside, &lo, &hi), 0.0);
    }

    #[test]
    fn min_dist_to_rect_matches_nearest_corner() {
        let lo = [0.0, 0.0];
        let hi = [1.0, 1.0];
        let q = [2.0, 2.0]; // nearest rect point is (1, 1)
        assert!((Euclidean.min_dist_to_rect(&q, &lo, &hi) - 2f64.sqrt()).abs() < 1e-12);
        assert!((Manhattan.min_dist_to_rect(&q, &lo, &hi) - 2.0).abs() < 1e-12);
        assert!((Chebyshev.min_dist_to_rect(&q, &lo, &hi) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn angular_basics() {
        let x = [1.0, 0.0];
        let y = [0.0, 1.0];
        let diag = [1.0, 1.0];
        let neg = [-1.0, 0.0];
        assert!((Angular.distance(&x, &y) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((Angular.distance(&x, &diag) - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((Angular.distance(&x, &neg) - std::f64::consts::PI).abs() < 1e-12);
        assert_eq!(Angular.distance(&x, &x), 0.0);
        // Scale invariance: angles ignore magnitude.
        assert!((Angular.distance(&[2.0, 2.0], &x) - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        // A zero vector is orthogonal to everything nonzero.
        assert_eq!(Angular.distance(&[0.0, 0.0], &x), std::f64::consts::FRAC_PI_2);
        assert_eq!(Angular.distance(&x, &[0.0, 0.0]), std::f64::consts::FRAC_PI_2);
        assert_eq!(Angular.distance(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        // Pruning bound is disabled, not wrong.
        assert_eq!(Angular.min_dist_to_rect(&x, &[5.0, 5.0], &[6.0, 6.0]), 0.0);
        assert!(Angular.is_metric());
    }

    #[test]
    fn angular_triangle_inequality_spot_checks() {
        let vs = [
            vec![1.0, 0.0, 0.0],
            vec![0.5, 0.5, 0.0],
            vec![0.1, 0.9, 0.3],
            vec![-0.4, 0.2, 0.8],
            vec![0.3, 0.3, 0.3],
            vec![-1.0, 0.0, 0.0],
            // Zero vectors, in every position of a triple.
            vec![0.0, 0.0, 0.0],
        ];
        for a in &vs {
            for b in &vs {
                for c in &vs {
                    let ab = Angular.distance(a, b);
                    let bc = Angular.distance(b, c);
                    let ac = Angular.distance(a, c);
                    assert!(ac <= ab + bc + 1e-12, "triangle violated: {ac} > {ab} + {bc}");
                }
            }
        }
    }

    #[test]
    fn squared_rect_bound_is_square_of_rect_bound() {
        let lo = [0.0, -1.0, 2.0];
        let hi = [1.0, 1.0, 5.0];
        let q = [3.0, 0.0, 1.0];
        let d = Euclidean.min_dist_to_rect(&q, &lo, &hi);
        let sq = Euclidean.min_dist_to_rect_sq(&q, &lo, &hi);
        assert_eq!(d, sq.sqrt());
        assert_eq!(SquaredEuclidean.min_dist_to_rect(&q, &lo, &hi), sq);
        // Default (squaring) impl on a metric without an override.
        let cheb = Chebyshev.min_dist_to_rect(&q, &lo, &hi);
        assert_eq!(Chebyshev.min_dist_to_rect_sq(&q, &lo, &hi), cheb * cheb);
    }

    #[test]
    fn rect_rect_bounds_bracket_sampled_pairs() {
        let alo = [0.0, -1.0];
        let ahi = [1.0, 1.0];
        let blo = [2.5, 0.0];
        let bhi = [4.0, 3.0];
        let grid = |lo: &[f64; 2], hi: &[f64; 2]| {
            let mut pts = Vec::new();
            for i in 0..=4 {
                for j in 0..=4 {
                    pts.push([
                        lo[0] + (hi[0] - lo[0]) * i as f64 / 4.0,
                        lo[1] + (hi[1] - lo[1]) * j as f64 / 4.0,
                    ]);
                }
            }
            pts
        };
        let metrics: Vec<Box<dyn Metric>> = vec![
            Box::new(Euclidean),
            Box::new(SquaredEuclidean),
            Box::new(Manhattan),
            Box::new(Chebyshev),
            Box::new(Minkowski::new(3.0)),
        ];
        for m in &metrics {
            let lo_bound = m.min_dist_between_rects(&alo, &ahi, &blo, &bhi);
            let hi_bound = m.max_dist_between_rects(&alo, &ahi, &blo, &bhi);
            assert!(lo_bound <= hi_bound);
            for a in grid(&alo, &ahi) {
                for b in grid(&blo, &bhi) {
                    let d = m.distance(&a, &b);
                    assert!(
                        d >= lo_bound - 1e-12 && d <= hi_bound + 1e-12,
                        "{m:?}: d={d} outside [{lo_bound}, {hi_bound}]"
                    );
                }
            }
        }
        // The Euclidean bounds are exact at the closest/farthest corners.
        assert!((Euclidean.min_dist_between_rects(&alo, &ahi, &blo, &bhi) - 1.5).abs() < 1e-12);
        let farthest = (16.0f64 + 16.0).sqrt(); // (0,-1) to (4,3)
        assert!(
            (Euclidean.max_dist_between_rects(&alo, &ahi, &blo, &bhi) - farthest).abs() < 1e-12
        );
        // Overlapping rectangles: zero minimum, diameter-like maximum.
        assert_eq!(Manhattan.min_dist_between_rects(&alo, &ahi, &alo, &ahi), 0.0);
        assert_eq!(Manhattan.max_dist_between_rects(&alo, &ahi, &alo, &ahi), 3.0);
        // The conservative defaults never prune and never corrupt.
        assert_eq!(Angular.min_dist_between_rects(&alo, &ahi, &blo, &bhi), 0.0);
        assert_eq!(Angular.max_dist_between_rects(&alo, &ahi, &blo, &bhi), f64::INFINITY);
    }

    #[test]
    fn blocked_forms_are_declared_correctly() {
        assert_eq!(Euclidean.blocked_form(), BlockedForm::Euclidean);
        assert_eq!(SquaredEuclidean.blocked_form(), BlockedForm::SquaredEuclidean);
        assert_eq!(Manhattan.blocked_form(), BlockedForm::Generic);
        assert_eq!(Chebyshev.blocked_form(), BlockedForm::Generic);
        assert_eq!(Minkowski::new(3.0).blocked_form(), BlockedForm::Generic);
        assert_eq!(Angular.blocked_form(), BlockedForm::Generic);
    }

    #[test]
    fn default_rect_bound_handles_high_dimensions() {
        // Above the stack-buffer capacity the default falls back to a
        // heap buffer; semantics must not change.
        let dims = CLAMP_STACK_DIMS + 9;
        let lo = vec![0.0; dims];
        let hi = vec![1.0; dims];
        let q: Vec<f64> = (0..dims).map(|d| if d % 2 == 0 { 2.0 } else { 0.5 }).collect();
        let expected = (dims.div_ceil(2) as f64).sqrt(); // 1.0 gap on even dims
        #[derive(Debug)]
        struct DefaultEuclid;
        impl Metric for DefaultEuclid {
            fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
                squared_euclidean(a, b).sqrt()
            }
        }
        assert!((DefaultEuclid.min_dist_to_rect(&q, &lo, &hi) - expected).abs() < 1e-12);
    }

    #[test]
    fn default_rect_bound_agrees_with_specialized() {
        // The Minkowski override and the trait default (clamp + distance)
        // must agree: both compute the distance to the clamped point.
        #[derive(Debug)]
        struct DefaultMink(f64);
        impl Metric for DefaultMink {
            fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
                Minkowski::new(self.0).distance(a, b)
            }
        }
        let lo = [0.0, -1.0, 2.0];
        let hi = [1.0, 1.0, 5.0];
        let q = [3.0, 0.0, 1.0];
        for p in [1.0, 2.0, 3.0] {
            let specialized = Minkowski::new(p).min_dist_to_rect(&q, &lo, &hi);
            let default = DefaultMink(p).min_dist_to_rect(&q, &lo, &hi);
            assert!((specialized - default).abs() < 1e-12, "p = {p}");
        }
    }
}

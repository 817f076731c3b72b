//! The formal machinery of section 5: direct/indirect neighborhood
//! statistics, the Theorem 1 and Theorem 2 bounds on LOF, the Lemma 1
//! cluster bound, and the section 5.3 spread analysis.
//!
//! Everything here is executable, so the paper's theorems become testable
//! invariants: property tests in this crate and in `tests/` assert that the
//! actual LOF of every object falls inside these bounds on random data.

use crate::distance::Metric;
use crate::error::{LofError, Result};
use crate::lrd::reach_dist;
use crate::materialize::NeighborhoodTable;
use crate::point::Dataset;

/// The four quantities of section 5.2 for one object `p`:
///
/// * `direct_min/max` — extreme reachability distances between `p` and its
///   `MinPts`-nearest neighbors (its *direct* neighborhood);
/// * `indirect_min/max` — extreme reachability distances between `p`'s
///   neighbors `q` and *their* `MinPts`-nearest neighbors (its *indirect*
///   neighbors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborhoodStats {
    /// `min { reach-dist(p, q) | q ∈ N(p) }`.
    pub direct_min: f64,
    /// `max { reach-dist(p, q) | q ∈ N(p) }`.
    pub direct_max: f64,
    /// `min { reach-dist(q, o) | q ∈ N(p), o ∈ N(q) }`.
    pub indirect_min: f64,
    /// `max { reach-dist(q, o) | q ∈ N(p), o ∈ N(q) }`.
    pub indirect_max: f64,
}

impl NeighborhoodStats {
    /// The mean of `direct_min` and `direct_max` (`direct(p)` in §5.3).
    pub fn direct_mean(&self) -> f64 {
        0.5 * (self.direct_min + self.direct_max)
    }

    /// The mean of `indirect_min` and `indirect_max` (`indirect(p)` in §5.3).
    pub fn indirect_mean(&self) -> f64 {
        0.5 * (self.indirect_min + self.indirect_max)
    }
}

/// Lower and upper bounds on a LOF value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LofBounds {
    /// `LOF_min`.
    pub lower: f64,
    /// `LOF_max`.
    pub upper: f64,
}

impl LofBounds {
    /// Whether `value` lies within the bounds, up to a relative tolerance
    /// that absorbs floating-point rounding.
    ///
    /// The tolerance scales with both `value` and the bound magnitude: on
    /// duplicate-heavy data a degenerate reachability distance can drive
    /// `value` to (nearly) zero while the bound arithmetic still carries the
    /// rounding noise of its much larger inputs, so a tolerance keyed to
    /// `value` alone spuriously rejects. An infinite `upper` contributes
    /// nothing — the comparison against `+∞` already accepts.
    pub fn contains(&self, value: f64) -> bool {
        let magnitude =
            if self.upper.is_finite() { value.abs().max(self.upper.abs()) } else { value.abs() };
        let tol = 1e-9 * (1.0 + magnitude);
        value >= self.lower - tol && value <= self.upper + tol
    }

    /// `upper - lower`, the spread studied in §5.3.
    pub fn spread(&self) -> f64 {
        self.upper - self.lower
    }
}

/// Computes [`NeighborhoodStats`] of object `id` from a materialization
/// table.
///
/// # Errors
///
/// Propagates table validation errors.
pub fn neighborhood_stats(
    table: &NeighborhoodTable,
    min_pts: usize,
    id: usize,
) -> Result<NeighborhoodStats> {
    let k_distances = table.k_distances(min_pts)?;
    neighborhood_stats_with(table, min_pts, id, &k_distances)
}

/// As [`neighborhood_stats`], reusing precomputed `k`-distances.
pub fn neighborhood_stats_with(
    table: &NeighborhoodTable,
    min_pts: usize,
    id: usize,
    k_distances: &[f64],
) -> Result<NeighborhoodStats> {
    let direct = table.neighborhood(id, min_pts)?;
    let mut stats = NeighborhoodStats {
        direct_min: f64::INFINITY,
        direct_max: f64::NEG_INFINITY,
        indirect_min: f64::INFINITY,
        indirect_max: f64::NEG_INFINITY,
    };
    for q in direct {
        let rd = reach_dist(k_distances[q.id], q.dist);
        stats.direct_min = stats.direct_min.min(rd);
        stats.direct_max = stats.direct_max.max(rd);
        for o in table.neighborhood(q.id, min_pts)? {
            let rd = reach_dist(k_distances[o.id], o.dist);
            stats.indirect_min = stats.indirect_min.min(rd);
            stats.indirect_max = stats.indirect_max.max(rd);
        }
    }
    Ok(stats)
}

/// Theorem 1: for any object,
/// `direct_min/indirect_max <= LOF(p) <= direct_max/indirect_min`.
pub fn theorem1_bounds(stats: &NeighborhoodStats) -> LofBounds {
    LofBounds {
        lower: stats.direct_min / stats.indirect_max,
        upper: stats.direct_max / stats.indirect_min,
    }
}

/// Result of the Lemma 1 analysis of a candidate cluster `C`.
#[derive(Debug, Clone)]
pub struct ClusterBound {
    /// `reach-dist-min` over ordered pairs of distinct cluster members.
    pub reach_dist_min: f64,
    /// `reach-dist-max` over ordered pairs of distinct cluster members.
    pub reach_dist_max: f64,
    /// `ε = reach-dist-max / reach-dist-min − 1`.
    pub epsilon: f64,
    /// The bound `[1/(1+ε), 1+ε]` that Lemma 1 asserts for deep members.
    pub bounds: LofBounds,
    /// Members `p ∈ C` that are "deep": all of `p`'s `MinPts`-nearest
    /// neighbors `q` are in `C`, and all of each `q`'s `MinPts`-nearest
    /// neighbors are in `C` too.
    pub deep_members: Vec<usize>,
}

/// Lemma 1: computes `ε` for the cluster `C` (given as object ids) and
/// identifies its deep members, whose LOF must lie in `[1/(1+ε), 1+ε]`.
///
/// Needs the dataset and metric because `reach-dist-min/max` range over
/// *all* pairs of cluster members, not only materialized neighbor pairs.
///
/// # Errors
///
/// Returns [`LofError::InvalidPartition`] for clusters with fewer than two
/// members and propagates table/dataset validation errors.
pub fn lemma1_bound<M: Metric>(
    data: &Dataset,
    metric: &M,
    table: &NeighborhoodTable,
    min_pts: usize,
    cluster: &[usize],
) -> Result<ClusterBound> {
    if cluster.len() < 2 {
        return Err(LofError::InvalidPartition(
            "lemma 1 needs a cluster with at least two members".to_owned(),
        ));
    }
    for &id in cluster {
        data.check_id(id)?;
    }
    let k_distances = table.k_distances(min_pts)?;

    let mut rd_min = f64::INFINITY;
    let mut rd_max = f64::NEG_INFINITY;
    for &p in cluster {
        for &q in cluster {
            if p == q {
                continue;
            }
            let rd = reach_dist(k_distances[q], metric.distance(data.point(p), data.point(q)));
            rd_min = rd_min.min(rd);
            rd_max = rd_max.max(rd);
        }
    }
    let epsilon = rd_max / rd_min - 1.0;

    let in_cluster = |id: usize| cluster.contains(&id);
    let mut deep_members = Vec::new();
    'members: for &p in cluster {
        let direct = table.neighborhood(p, min_pts)?;
        for q in direct {
            if !in_cluster(q.id) {
                continue 'members;
            }
            for o in table.neighborhood(q.id, min_pts)? {
                if !in_cluster(o.id) {
                    continue 'members;
                }
            }
        }
        deep_members.push(p);
    }

    Ok(ClusterBound {
        reach_dist_min: rd_min,
        reach_dist_max: rd_max,
        epsilon,
        bounds: LofBounds { lower: 1.0 / (1.0 + epsilon), upper: 1.0 + epsilon },
        deep_members,
    })
}

/// Theorem 2: bounds on `LOF(p)` from a partition `C_1 ∪ … ∪ C_n` of `p`'s
/// `MinPts`-nearest neighborhood:
///
/// ```text
/// LOF(p) >= (Σ ξ_i · direct^i_min) · (Σ ξ_i / indirect^i_max)
/// LOF(p) <= (Σ ξ_i · direct^i_max) · (Σ ξ_i / indirect^i_min)
/// ```
///
/// where `ξ_i = |C_i| / |N(p)|`. With a single part this degenerates to
/// Theorem 1 (Corollary 1), which the tests verify.
///
/// # Errors
///
/// Returns [`LofError::InvalidPartition`] unless the parts are non-empty,
/// disjoint, and exactly cover the neighbor ids of `p`.
pub fn theorem2_bounds(
    table: &NeighborhoodTable,
    min_pts: usize,
    id: usize,
    partition: &[Vec<usize>],
) -> Result<LofBounds> {
    let neighborhood = table.neighborhood(id, min_pts)?;
    let neighbor_ids: Vec<usize> = neighborhood.iter().map(|n| n.id).collect();

    if partition.is_empty() {
        return Err(LofError::InvalidPartition("partition has no parts".to_owned()));
    }
    let mut covered = Vec::new();
    for (i, part) in partition.iter().enumerate() {
        if part.is_empty() {
            return Err(LofError::InvalidPartition(format!("part {i} is empty")));
        }
        for &m in part {
            if !neighbor_ids.contains(&m) {
                return Err(LofError::InvalidPartition(format!(
                    "object {m} in part {i} is not a MinPts-nearest neighbor of {id}"
                )));
            }
            if covered.contains(&m) {
                return Err(LofError::InvalidPartition(format!(
                    "object {m} appears in more than one part"
                )));
            }
            covered.push(m);
        }
    }
    if covered.len() != neighbor_ids.len() {
        return Err(LofError::InvalidPartition(format!(
            "partition covers {} of {} neighbors",
            covered.len(),
            neighbor_ids.len()
        )));
    }

    let k_distances = table.k_distances(min_pts)?;
    let card = neighborhood.len() as f64;
    let mut lower_direct = 0.0; // Σ ξ_i · direct^i_min
    let mut lower_indirect = 0.0; // Σ ξ_i / indirect^i_max
    let mut upper_direct = 0.0; // Σ ξ_i · direct^i_max
    let mut upper_indirect = 0.0; // Σ ξ_i / indirect^i_min
    for part in partition {
        let xi = part.len() as f64 / card;
        let mut d_min = f64::INFINITY;
        let mut d_max = f64::NEG_INFINITY;
        let mut i_min = f64::INFINITY;
        let mut i_max = f64::NEG_INFINITY;
        for &m in part {
            let q = neighborhood
                .iter()
                .find(|n| n.id == m)
                .expect("validated above: every part member is a neighbor");
            let rd = reach_dist(k_distances[q.id], q.dist);
            d_min = d_min.min(rd);
            d_max = d_max.max(rd);
            for o in table.neighborhood(q.id, min_pts)? {
                let rd = reach_dist(k_distances[o.id], o.dist);
                i_min = i_min.min(rd);
                i_max = i_max.max(rd);
            }
        }
        lower_direct += xi * d_min;
        lower_indirect += xi / i_max;
        upper_direct += xi * d_max;
        upper_indirect += xi / i_min;
    }
    Ok(LofBounds { lower: lower_direct * lower_indirect, upper: upper_direct * upper_indirect })
}

/// Envelope statistics for one part of a neighborhood partition, as known
/// to the top-n pruning engine *before* the part's objects are
/// materialized: each field brackets the corresponding exact per-part
/// extreme of [`theorem2_bounds`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartEnvelope {
    /// `|C_i|` — how many of `p`'s neighbors fall in this part.
    pub count: usize,
    /// Lower bound on `min { reach-dist(p, q) | q ∈ C_i }`.
    pub direct_min: f64,
    /// Upper bound on `max { reach-dist(p, q) | q ∈ C_i }`.
    pub direct_max: f64,
    /// Lower bound on `min { reach-dist(q, o) | q ∈ C_i, o ∈ N(q) }`.
    pub indirect_min: f64,
    /// Upper bound on `max { reach-dist(q, o) | q ∈ C_i, o ∈ N(q) }`.
    pub indirect_max: f64,
}

/// Clamps an envelope-derived LOF *lower* bound: NaN, infinities and
/// negative artifacts of degenerate reachability envelopes (`0/0`, `x/0`)
/// collapse to `0.0`, the vacuous lower bound.
pub(crate) fn clamp_envelope_lower(lower: f64) -> f64 {
    if lower.is_finite() && lower > 0.0 {
        lower
    } else {
        0.0
    }
}

/// Clamps an envelope-derived LOF *upper* bound: NaN (`0 · ∞` from an
/// all-duplicates direct envelope against a zero indirect minimum) and
/// non-positive values collapse to `+∞`. Pruning on a degenerate upper
/// bound would be unsound; an infinite one merely costs refinement work.
pub(crate) fn clamp_envelope_upper(upper: f64) -> f64 {
    if upper.is_nan() || upper <= 0.0 {
        f64::INFINITY
    } else {
        upper
    }
}

/// Theorem 2 evaluated on *envelopes*: the same ξ-weighted sums as
/// [`theorem2_bounds`], but each part contributes interval end-points
/// instead of exact reachability extremes. Every envelope brackets its
/// exact counterpart and the Theorem 2 expression is monotone in each
/// per-part statistic, so the result brackets the exact Theorem 2 bounds
/// — and hence `LOF(p)`. Degenerate inputs (zero indirect minima on
/// duplicate piles, infinite k-distance envelopes under metrics without
/// rectangle bounds) collapse to the vacuous `[0, +∞)` side instead of a
/// wrong finite bound.
///
/// # Errors
///
/// Returns [`LofError::InvalidPartition`] when `parts` is empty or any
/// part has `count == 0`.
pub fn theorem2_envelope_bounds(parts: &[PartEnvelope]) -> Result<LofBounds> {
    if parts.is_empty() {
        return Err(LofError::InvalidPartition("partition has no parts".to_owned()));
    }
    let mut card = 0usize;
    for (i, part) in parts.iter().enumerate() {
        if part.count == 0 {
            return Err(LofError::InvalidPartition(format!("part {i} is empty")));
        }
        card += part.count;
    }
    let card = card as f64;
    let mut lower_direct = 0.0; // Σ ξ_i · direct^i_min
    let mut lower_indirect = 0.0; // Σ ξ_i / indirect^i_max
    let mut upper_direct = 0.0; // Σ ξ_i · direct^i_max
    let mut upper_indirect = 0.0; // Σ ξ_i / indirect^i_min
    for part in parts {
        let xi = part.count as f64 / card;
        lower_direct += xi * part.direct_min;
        lower_indirect += xi / part.indirect_max;
        upper_direct += xi * part.direct_max;
        upper_indirect += xi / part.indirect_min;
    }
    Ok(LofBounds {
        lower: clamp_envelope_lower(lower_direct * lower_indirect),
        upper: clamp_envelope_upper(upper_direct * upper_indirect),
    })
}

/// Section 5.3 model: given mean `direct`, mean `indirect` and a fluctuation
/// percentage `pct` (so `direct_max = direct·(1+pct/100)` etc.), the implied
/// Theorem 1 bounds. This is the generator behind figure 4.
pub fn modelled_bounds(direct: f64, indirect: f64, pct: f64) -> LofBounds {
    let x = pct / 100.0;
    LofBounds {
        lower: (direct * (1.0 - x)) / (indirect * (1.0 + x)),
        upper: (direct * (1.0 + x)) / (indirect * (1.0 - x)),
    }
}

/// The closed form of figure 5:
/// `(LOF_max − LOF_min)/(direct/indirect) = 4·(pct/100) / (1 − (pct/100)²)`.
///
/// Depends only on `pct` — the relative fluctuation of LOF depends only on
/// the *ratios* of the underlying reachability distances, "the spirit of
/// local outliers".
pub fn relative_span(pct: f64) -> f64 {
    let x = pct / 100.0;
    4.0 * x / (1.0 - x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;
    use crate::lof::lof_values;
    use crate::scan::LinearScan;

    /// A dense 6x6 grid cluster plus one detached point.
    fn fixture() -> (Dataset, NeighborhoodTable) {
        let mut rows: Vec<[f64; 2]> = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                rows.push([i as f64, j as f64]);
            }
        }
        rows.push([20.0, 20.0]); // id 36
        let ds = Dataset::from_rows(&rows).unwrap();
        let table = {
            let scan = LinearScan::new(&ds, Euclidean);
            NeighborhoodTable::build(&scan, 6).unwrap()
        };
        (ds, table)
    }

    #[test]
    fn theorem1_bounds_contain_actual_lof_everywhere() {
        let (_, table) = fixture();
        let min_pts = 4;
        let lof = lof_values(&table, min_pts).unwrap();
        for (id, &value) in lof.iter().enumerate() {
            let stats = neighborhood_stats(&table, min_pts, id).unwrap();
            let bounds = theorem1_bounds(&stats);
            assert!(
                bounds.contains(value),
                "id={id}: lof={value} not in [{}, {}]",
                bounds.lower,
                bounds.upper
            );
        }
    }

    #[test]
    fn detached_point_has_bounds_well_above_one() {
        let (_, table) = fixture();
        let stats = neighborhood_stats(&table, 4, 36).unwrap();
        let bounds = theorem1_bounds(&stats);
        assert!(bounds.lower > 2.0, "lower bound {}", bounds.lower);
        // Figure 3's reading: the far object's reachability distances are its
        // actual distances, which dwarf the cluster-internal ones.
        assert!(stats.direct_min > stats.indirect_max);
    }

    #[test]
    fn lemma1_deep_members_satisfy_epsilon_bound() {
        let (ds, table) = fixture();
        let min_pts = 3;
        let cluster: Vec<usize> = (0..36).collect();
        let cb = lemma1_bound(&ds, &Euclidean, &table, min_pts, &cluster).unwrap();
        assert!(!cb.deep_members.is_empty(), "grid interior must contain deep members");
        assert!(!cb.deep_members.contains(&36));
        let lof = lof_values(&table, min_pts).unwrap();
        for &p in &cb.deep_members {
            assert!(
                cb.bounds.contains(lof[p]),
                "deep member {p}: lof={} not in [{}, {}] (eps={})",
                lof[p],
                cb.bounds.lower,
                cb.bounds.upper,
                cb.epsilon
            );
        }
        assert!(cb.epsilon >= 0.0);
        assert!(cb.reach_dist_max >= cb.reach_dist_min);
    }

    #[test]
    fn lemma1_rejects_tiny_clusters() {
        let (ds, table) = fixture();
        assert!(lemma1_bound(&ds, &Euclidean, &table, 3, &[0]).is_err());
    }

    #[test]
    fn corollary1_single_part_equals_theorem1() {
        let (_, table) = fixture();
        let min_pts = 4;
        for id in [0usize, 14, 36] {
            let neighbors: Vec<usize> =
                table.neighborhood(id, min_pts).unwrap().iter().map(|n| n.id).collect();
            let t2 = theorem2_bounds(&table, min_pts, id, &[neighbors]).unwrap();
            let t1 = theorem1_bounds(&neighborhood_stats(&table, min_pts, id).unwrap());
            assert!((t2.lower - t1.lower).abs() < 1e-12, "id={id}");
            assert!((t2.upper - t1.upper).abs() < 1e-12, "id={id}");
        }
    }

    #[test]
    fn theorem2_bounds_contain_actual_lof_for_split_partitions() {
        let (_, table) = fixture();
        let min_pts = 4;
        let lof = lof_values(&table, min_pts).unwrap();
        for (id, &value) in lof.iter().enumerate() {
            let neighbors: Vec<usize> =
                table.neighborhood(id, min_pts).unwrap().iter().map(|n| n.id).collect();
            let mid = neighbors.len() / 2;
            let parts = vec![neighbors[..mid].to_vec(), neighbors[mid..].to_vec()];
            if parts[0].is_empty() {
                continue;
            }
            let b = theorem2_bounds(&table, min_pts, id, &parts).unwrap();
            assert!(b.contains(value), "id={id}: lof={value} not in [{}, {}]", b.lower, b.upper);
        }
    }

    #[test]
    fn theorem2_partition_validation() {
        let (_, table) = fixture();
        let neighbors: Vec<usize> =
            table.neighborhood(0, 4).unwrap().iter().map(|n| n.id).collect();
        // Empty partition list.
        assert!(theorem2_bounds(&table, 4, 0, &[]).is_err());
        // Empty part.
        assert!(theorem2_bounds(&table, 4, 0, &[neighbors.clone(), vec![]]).is_err());
        // Non-neighbor member.
        assert!(theorem2_bounds(&table, 4, 0, &[vec![36]]).is_err());
        // Duplicate member.
        let dup = vec![neighbors.clone(), vec![neighbors[0]]];
        assert!(theorem2_bounds(&table, 4, 0, &dup).is_err());
        // Incomplete cover.
        assert!(theorem2_bounds(&table, 4, 0, &[vec![neighbors[0]]]).is_err());
    }

    #[test]
    fn contains_tolerance_scales_with_bound_magnitude() {
        // Rounding noise proportional to a large upper bound must not
        // reject a value sitting near the (much smaller) lower bound.
        let wide = LofBounds { lower: 2.0, upper: 1e6 };
        assert!(wide.contains(2.0 - 1e-4));
        assert!(wide.contains(1e6 + 1e-4));
        // The scaling must not make the check vacuous: clear misses still
        // fail, and an infinite upper bound contributes no tolerance.
        assert!(!wide.contains(1.0));
        assert!(!wide.contains(1.01e6));
        let open = LofBounds { lower: 2.0, upper: f64::INFINITY };
        assert!(open.contains(3.0e12));
        assert!(!open.contains(1.0));
        // Degenerate zero-width bounds accept their own value.
        let point = LofBounds { lower: 0.0, upper: 0.0 };
        assert!(point.contains(0.0));
        assert!(!point.contains(0.5));
    }

    /// Exact per-part statistics for `theorem2_envelope_bounds`, computed
    /// the same way `theorem2_bounds` computes them internally.
    fn exact_part_envelopes(
        table: &NeighborhoodTable,
        min_pts: usize,
        id: usize,
        partition: &[Vec<usize>],
    ) -> Vec<PartEnvelope> {
        let k_distances = table.k_distances(min_pts).unwrap();
        let neighborhood = table.neighborhood(id, min_pts).unwrap();
        partition
            .iter()
            .map(|part| {
                let mut env = PartEnvelope {
                    count: part.len(),
                    direct_min: f64::INFINITY,
                    direct_max: f64::NEG_INFINITY,
                    indirect_min: f64::INFINITY,
                    indirect_max: f64::NEG_INFINITY,
                };
                for &m in part {
                    let q = neighborhood.iter().find(|n| n.id == m).unwrap();
                    let rd = reach_dist(k_distances[q.id], q.dist);
                    env.direct_min = env.direct_min.min(rd);
                    env.direct_max = env.direct_max.max(rd);
                    for o in table.neighborhood(q.id, min_pts).unwrap() {
                        let rd = reach_dist(k_distances[o.id], o.dist);
                        env.indirect_min = env.indirect_min.min(rd);
                        env.indirect_max = env.indirect_max.max(rd);
                    }
                }
                env
            })
            .collect()
    }

    #[test]
    fn envelope_bounds_with_exact_stats_equal_theorem2() {
        let (_, table) = fixture();
        let min_pts = 4;
        for id in [0usize, 14, 35, 36] {
            let neighbors: Vec<usize> =
                table.neighborhood(id, min_pts).unwrap().iter().map(|n| n.id).collect();
            let mid = neighbors.len() / 2;
            let parts = vec![neighbors[..mid].to_vec(), neighbors[mid..].to_vec()];
            let exact = theorem2_bounds(&table, min_pts, id, &parts).unwrap();
            let envs = exact_part_envelopes(&table, min_pts, id, &parts);
            let got = theorem2_envelope_bounds(&envs).unwrap();
            assert!((got.lower - exact.lower).abs() < 1e-12, "id={id}");
            assert!((got.upper - exact.upper).abs() < 1e-12, "id={id}");
        }
    }

    #[test]
    fn envelope_bounds_widen_monotonically_and_still_contain_lof() {
        let (_, table) = fixture();
        let min_pts = 4;
        let lof = lof_values(&table, min_pts).unwrap();
        for (id, &value) in lof.iter().enumerate() {
            let neighbors: Vec<usize> =
                table.neighborhood(id, min_pts).unwrap().iter().map(|n| n.id).collect();
            let parts = vec![neighbors];
            let mut envs = exact_part_envelopes(&table, min_pts, id, &parts);
            // Slacken each envelope the way the pruning engine's geometric
            // estimates would: the bounds must only get wider.
            for env in &mut envs {
                env.direct_min *= 0.75;
                env.direct_max *= 1.25;
                env.indirect_min *= 0.75;
                env.indirect_max *= 1.25;
            }
            let b = theorem2_envelope_bounds(&envs).unwrap();
            assert!(b.contains(value), "id={id}: lof={value} not in [{}, {}]", b.lower, b.upper);
        }
    }

    #[test]
    fn envelope_bounds_degenerate_inputs_collapse_to_vacuous_sides() {
        // Zero indirect minimum (a duplicate pile): the upper bound must be
        // +∞, never a misleading finite value.
        let dup = PartEnvelope {
            count: 3,
            direct_min: 0.0,
            direct_max: 0.0,
            indirect_min: 0.0,
            indirect_max: 0.0,
        };
        let b = theorem2_envelope_bounds(&[dup]).unwrap();
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, f64::INFINITY);
        // Infinite envelopes (no usable rectangle bounds): same collapse.
        let blind = PartEnvelope {
            count: 2,
            direct_min: 0.0,
            direct_max: f64::INFINITY,
            indirect_min: 0.0,
            indirect_max: f64::INFINITY,
        };
        let b = theorem2_envelope_bounds(&[blind]).unwrap();
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, f64::INFINITY);
        // Validation mirrors theorem2_bounds.
        assert!(theorem2_envelope_bounds(&[]).is_err());
        assert!(theorem2_envelope_bounds(&[PartEnvelope { count: 0, ..dup }]).is_err());
    }

    #[test]
    fn modelled_bounds_match_relative_span_closed_form() {
        for (direct, indirect) in [(4.0, 1.0), (10.0, 2.5), (1.0, 1.0)] {
            for pct in [1.0, 5.0, 10.0, 25.0] {
                let b = modelled_bounds(direct, indirect, pct);
                let span = b.spread() / (direct / indirect);
                assert!(
                    (span - relative_span(pct)).abs() < 1e-9,
                    "direct={direct} indirect={indirect} pct={pct}"
                );
            }
        }
    }

    #[test]
    fn relative_span_grows_and_diverges() {
        assert!(relative_span(1.0) < relative_span(5.0));
        assert!(relative_span(5.0) < relative_span(10.0));
        assert!(relative_span(99.0) > 100.0);
        assert!((relative_span(0.0)).abs() < 1e-12);
    }

    #[test]
    fn figure3_worked_example() {
        // "suppose that d_min is 4 times that of i_max, and d_max is 6 times
        // that of i_min. Then by theorem 1, the LOF of p is between 4 and 6."
        let stats = NeighborhoodStats {
            direct_min: 4.0,
            direct_max: 6.0,
            indirect_min: 1.0,
            indirect_max: 1.0,
        };
        let b = theorem1_bounds(&stats);
        assert_eq!(b.lower, 4.0);
        assert_eq!(b.upper, 6.0);
    }
}

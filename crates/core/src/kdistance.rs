//! *k*-distance and *k*-distance neighborhoods (definitions 3 and 4), plus
//! the duplicate-tolerant *k-distinct-distance* variant the paper sketches
//! after definition 6.

use crate::distance::Metric;
use crate::error::{LofError, Result};
use crate::knn::with_thread_scratch;
use crate::neighbors::{sort_neighbors, KnnProvider, Neighbor};
use crate::point::Dataset;

/// The *k*-distance encoded by a tie-inclusive neighborhood: the distance of
/// its farthest member (definition 3).
///
/// # Panics
///
/// Panics on an empty neighborhood (which no valid provider produces).
#[inline]
pub fn k_distance_of(neighborhood: &[Neighbor]) -> f64 {
    neighborhood.last().expect("k-distance of empty neighborhood").dist
}

/// Computes `k-distance(p)` directly from a provider, through a one-id
/// [`KnnProvider::k_distances_into`] on the calling thread's scratch.
///
/// # Errors
///
/// Propagates the provider's validation errors.
pub fn k_distance<P: KnnProvider + ?Sized>(provider: &P, id: usize, k: usize) -> Result<f64> {
    with_thread_scratch(|scratch| {
        let mut out = Vec::with_capacity(1);
        provider.k_distances_into(&[id], k, f64::INFINITY, scratch, &mut out)?;
        Ok(out[0])
    })
}

/// The *k-distinct-distance* neighborhood of `id`.
///
/// Definition 3 requires at least `k` objects within the k-distance; when the
/// dataset contains `>= MinPts` duplicates of a point, every reachability
/// distance in its neighborhood is 0 and the local reachability density of
/// definition 6 becomes infinite. The paper's remedy is to base the
/// neighborhood on a `k`-distinct-distance "defined analogously to
/// *k*-distance …, with the additional requirement that there be at least `k`
/// objects with **different spatial coordinates**".
///
/// We implement that as: the k-distinct-distance of `p` is the smallest
/// distance `r` such that at least `k` *distinct coordinate vectors*, each
/// different from `p`'s own coordinates, lie within `r` of `p`. The returned
/// neighborhood contains every object (duplicates included) within that
/// distance — so the smoothing set may be larger than `k`, exactly as in
/// definition 4.
///
/// # Errors
///
/// Returns [`LofError::InvalidMinPts`] when `k == 0` or when fewer than `k`
/// distinct non-`p` coordinate vectors exist, and [`LofError::UnknownObject`]
/// for out-of-range ids.
pub fn k_distinct_neighborhood<M: Metric>(
    data: &Dataset,
    metric: &M,
    id: usize,
    k: usize,
) -> Result<Vec<Neighbor>> {
    data.check_id(id)?;
    if k == 0 {
        return Err(LofError::InvalidMinPts { min_pts: k, dataset_size: data.len() });
    }
    let q = data.point(id);
    let mut all = Vec::with_capacity(data.len().saturating_sub(1));
    for (j, p) in data.iter() {
        if j != id {
            all.push(Neighbor::new(j, metric.distance(q, p)));
        }
    }
    sort_neighbors(&mut all);

    // Walk outward, counting distinct coordinate vectors that differ from p.
    let mut seen: Vec<&[f64]> = Vec::new();
    let mut distinct_distance = None;
    for nb in &all {
        let coords = data.point(nb.id);
        if coords == q {
            continue; // duplicates of p never count toward the k distinct
        }
        if !seen.contains(&coords) {
            seen.push(coords);
            if seen.len() == k {
                distinct_distance = Some(nb.dist);
                break;
            }
        }
    }
    let Some(r) = distinct_distance else {
        return Err(LofError::InvalidMinPts { min_pts: k, dataset_size: data.len() });
    };
    all.retain(|n| n.dist <= r);
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;
    use crate::scan::LinearScan;

    #[test]
    fn k_distance_matches_definition_3_example() {
        // 1 object at distance 1, 2 at distance 2, 3 at distance 3 from p=origin.
        let ds = Dataset::from_rows(&[
            [0.0, 0.0],  // p
            [1.0, 0.0],  // d = 1
            [0.0, 2.0],  // d = 2
            [-2.0, 0.0], // d = 2
            [3.0, 0.0],  // d = 3
            [0.0, -3.0], // d = 3
            [-3.0, 0.0], // d = 3
        ])
        .unwrap();
        let scan = LinearScan::new(&ds, Euclidean);
        assert_eq!(k_distance(&scan, 0, 1).unwrap(), 1.0);
        assert_eq!(k_distance(&scan, 0, 2).unwrap(), 2.0);
        assert_eq!(k_distance(&scan, 0, 3).unwrap(), 2.0); // 2-distance == 3-distance
        assert_eq!(k_distance(&scan, 0, 4).unwrap(), 3.0);
        // And |N_4(p)| = 6, the paper's worked example.
        assert_eq!(scan.k_nearest(0, 4).unwrap().len(), 6);
    }

    #[test]
    fn k_distinct_skips_duplicates() {
        // p at origin with three exact duplicates, then real neighbors.
        let ds = Dataset::from_rows(&[
            [0.0, 0.0], // p
            [0.0, 0.0],
            [0.0, 0.0],
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 2.0],
        ])
        .unwrap();
        let nb = k_distinct_neighborhood(&ds, &Euclidean, 0, 2).unwrap();
        // 2-distinct-distance = 2.0; the three duplicates lie within it and
        // stay in the smoothing set, as do both distinct neighbors.
        assert_eq!(nb.len(), 5);
        assert_eq!(k_distance_of(&nb), 2.0);
        // Plain k-distance would be 0 here, the degenerate case.
        let scan = LinearScan::new(&ds, Euclidean);
        assert_eq!(k_distance(&scan, 0, 2).unwrap(), 0.0);
    }

    #[test]
    fn k_distinct_counts_duplicate_groups_once() {
        // Two distinct coordinate vectors among 4 non-p objects.
        let ds = Dataset::from_rows(&[[0.0], [1.0], [1.0], [2.0], [2.0]]).unwrap();
        let nb = k_distinct_neighborhood(&ds, &Euclidean, 0, 2).unwrap();
        assert_eq!(nb.len(), 4);
        assert!(k_distinct_neighborhood(&ds, &Euclidean, 0, 3).is_err());
    }

    #[test]
    fn k_distinct_equals_plain_without_duplicates() {
        let ds = Dataset::from_rows(&[[0.0], [1.0], [3.0], [6.0], [10.0]]).unwrap();
        let scan = LinearScan::new(&ds, Euclidean);
        for id in 0..ds.len() {
            for k in 1..ds.len() - 1 {
                let plain = scan.k_nearest(id, k).unwrap();
                let distinct = k_distinct_neighborhood(&ds, &Euclidean, id, k).unwrap();
                assert_eq!(plain, distinct, "id={id} k={k}");
            }
        }
    }

    #[test]
    fn k_distinct_validates_inputs() {
        let ds = Dataset::from_rows(&[[0.0], [1.0]]).unwrap();
        assert!(k_distinct_neighborhood(&ds, &Euclidean, 0, 0).is_err());
        assert!(k_distinct_neighborhood(&ds, &Euclidean, 5, 1).is_err());
    }
}

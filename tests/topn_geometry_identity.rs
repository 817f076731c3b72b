//! Pins the top-n geometry to its definitions, bit for bit.
//!
//! The partition cover's isolation radii and rank profiles run in squared
//! space where the metric allows it, verify each pair of partitions once
//! and share the result with both sides; the kd and ball k-distance
//! descents skip candidates tied with the heap's bound; the kd range pass
//! prunes and filters on squared distances. None of that may move a bit:
//!
//! * (a) on a small lattice-plus-outliers fixture where neither isolation
//!   cap binds, every isolation radius equals the brute-force minimum of
//!   `metric.distance` over member × non-member pairs, and every rank
//!   profile equals a sort of the per-pair distances, under Euclidean,
//!   SquaredEuclidean and Manhattan (the generic path), on kd and ball
//!   covers;
//! * (b) on covers of more than 3,000 partitions where both caps bind,
//!   a digest of every `Partition` and `PartitionEnvelope` field equals
//!   the one recorded before the squared-space geometry, the shared pairs
//!   and the flat box tree landed;
//! * (c) the kd `within` equals `LinearScan::within` at exact lattice tie
//!   radii and at every id's k-distance, and the kd and ball
//!   per-id k-distances (`kdistance::k_distance`, a one-id
//!   `k_distances_into`) equal `LinearScan`'s with `k` above the size of
//!   a duplicate pile.

use lof_core::kdistance::k_distance;
use lof_core::{
    set_isolation_radii,
    topn::{partition_envelopes, PartitionEnvelope},
    Dataset, Euclidean, KnnProvider, LinearScan, Manhattan, Metric, Partition, PartitionSource,
    SquaredEuclidean,
};
use lof_index::{BallTree, KdTree};

/// Deterministic uniform draws from a 64-bit LCG.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Two unit-spacing 5×5×5 lattices far apart, a pile of 20 duplicates,
/// and 12 scattered outliers, in 3-d.
fn small_fixture() -> Dataset {
    let mut rows: Vec<[f64; 3]> = Vec::new();
    for center in [[0.0, 0.0, 0.0], [40.0, 25.0, -10.0]] {
        for i in 0..125 {
            let offset = [i % 5, i / 5 % 5, i / 25].map(|c| c as f64);
            rows.push([center[0] + offset[0], center[1] + offset[1], center[2] + offset[2]]);
        }
    }
    rows.extend([[-20.0, 30.0, 5.0]; 20]);
    let mut rng = Lcg(7);
    for _ in 0..12 {
        rows.push([0; 3].map(|_| (rng.unit() * 120.0 - 40.0).round()));
    }
    Dataset::from_rows(&rows).unwrap()
}

/// Checks every radius and rank profile of `parts` against brute force.
fn check_against_brute_force<M: Metric>(
    data: &Dataset,
    metric: &M,
    label: &str,
    parts: &[Partition],
) {
    let mut part_of = vec![usize::MAX; data.len()];
    for (pi, p) in parts.iter().enumerate() {
        for &id in &p.members {
            part_of[id] = pi;
        }
    }
    assert!(part_of.iter().all(|&p| p != usize::MAX), "{label}: not a cover");
    for (pi, p) in parts.iter().enumerate() {
        let mut isolation = f64::INFINITY;
        for &a in &p.members {
            for b in (0..data.len()).filter(|&b| part_of[b] != pi) {
                isolation = isolation.min(metric.distance(data.point(a), data.point(b)));
            }
        }
        assert_eq!(p.isolation.to_bits(), isolation.to_bits(), "{label}: isolation of {pi}");

        let ranks = p.members.len() - 1;
        let (mut min_rank, mut max_rank) = (vec![f64::INFINITY; ranks], vec![0.0f64; ranks]);
        for &a in &p.members {
            let mut row: Vec<f64> = p
                .members
                .iter()
                .filter(|&&b| b != a)
                .map(|&b| metric.distance(data.point(a), data.point(b)))
                .collect();
            row.sort_unstable_by(f64::total_cmp);
            for (r, &d) in row.iter().enumerate() {
                min_rank[r] = min_rank[r].min(d);
                max_rank[r] = max_rank[r].max(d);
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p.min_rank_dists), bits(&min_rank), "{label}: min ranks of {pi}");
        assert_eq!(bits(&p.max_rank_dists), bits(&max_rank), "{label}: max ranks of {pi}");
    }
}

/// The cover `members` rebuilt under `metric` through the public
/// geometry functions.
fn rebuild<M: Metric>(data: &Dataset, metric: &M, members: &[Partition]) -> Vec<Partition> {
    let mut parts: Vec<Partition> = members
        .iter()
        .map(|p| Partition::from_member_points(metric, p.members.clone(), |id| data.point(id)))
        .collect();
    set_isolation_radii(metric, &mut parts, |id| data.point(id));
    parts
}

#[test]
fn isolation_radii_and_rank_profiles_equal_brute_force() {
    let data = small_fixture();
    let kd = KdTree::new(&data, Euclidean).partitions();
    let ball = BallTree::new(&data, Euclidean).partitions();
    assert!(kd.len() > 10 && ball.len() > 10, "the covers need many partitions");
    check_against_brute_force(&data, &Euclidean, "kd euclidean", &kd);
    check_against_brute_force(&data, &Euclidean, "ball euclidean", &ball);
    let kd_sq = KdTree::new(&data, SquaredEuclidean).partitions();
    check_against_brute_force(&data, &SquaredEuclidean, "kd squared", &kd_sq);
    let kd_l1 = KdTree::new(&data, Manhattan).partitions();
    check_against_brute_force(&data, &Manhattan, "kd manhattan", &kd_l1);
    let ball_l1 = BallTree::new(&data, Manhattan).partitions();
    check_against_brute_force(&data, &Manhattan, "ball manhattan", &ball_l1);
    // The ball tree refuses the squared pseudo-metric; its Euclidean cover
    // is rebuilt under it instead, as are the kd covers under the others.
    check_against_brute_force(
        &data,
        &SquaredEuclidean,
        "ball cover squared",
        &rebuild(&data, &SquaredEuclidean, &ball),
    );
    check_against_brute_force(
        &data,
        &Manhattan,
        "kd cover manhattan",
        &rebuild(&data, &Manhattan, &kd),
    );
    check_against_brute_force(
        &data,
        &Euclidean,
        "kd l1 cover euclidean",
        &rebuild(&data, &Euclidean, &kd_l1),
    );
}

/// Where [`capped_fixture`] puts the points whose partitions hit an
/// isolation cap: the centers of the two shells and one point of each
/// duplicate pile.
const CAPPED_PROBES: [usize; 4] = [14_700, 15_901, 17_102, 17_182];

/// 96 unit-spacing lattice clusters of 150 points in 4-d scattered over
/// a 1000-wide cube and 300 uniform outliers (ids `0..14_700`); then two
/// shells of 1,200 points, a Euclidean one of radius 50 and a Manhattan
/// one of radius 80, each after its center; then two piles of 80
/// duplicates one unit apart: over 3,000 partitions in every cover. Every
/// partition on a shell has a box closer to the shell's center than any point, so
/// the center's query exhausts the candidate cap under the shell's
/// metric; the piles' pair is over the pair cap wherever a cover keeps
/// each pile whole.
fn capped_fixture() -> Dataset {
    let mut rng = Lcg(0x5EED);
    let grid = |rng: &mut Lcg, scale: f64| (rng.unit() * scale * 64.0).round() / 64.0;
    let mut rows: Vec<[f64; 4]> = Vec::new();
    for _ in 0..96 {
        let center = [0; 4].map(|_| grid(&mut rng, 1000.0));
        for i in 0..150 {
            let mut rest = i;
            rows.push(center.map(|c| {
                let offset = (rest % 4) as f64 - 2.0;
                rest /= 4;
                c + offset
            }));
        }
    }
    for _ in 0..300 {
        rows.push([0; 4].map(|_| grid(&mut rng, 1000.0)));
    }
    for (center, radius, l1) in [(1500.0, 50.0, false), (-1500.0, 80.0, true)] {
        rows.push([center; 4]);
        for _ in 0..1200 {
            let dir = [0; 4].map(|_| rng.unit() - 0.5);
            let norm = if l1 {
                dir.iter().map(|x| x.abs()).sum::<f64>()
            } else {
                dir.iter().map(|x| x * x).sum::<f64>().sqrt()
            };
            rows.push(dir.map(|x| center + (x / norm * radius * 64.0).round() / 64.0));
        }
    }
    rows.extend([[-50.0, 500.0, 500.0, 500.0]; 80]);
    rows.extend([[-49.0, 500.0, 500.0, 500.0]; 80]);
    Dataset::from_rows(&rows).unwrap()
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        values.iter().for_each(|v| self.word(v.to_bits()));
    }
}

/// Digest of every field of every partition and envelope.
fn geometry_digest(parts: &[Partition], envs: &[PartitionEnvelope]) -> u64 {
    let mut h = Digest(0xcbf2_9ce4_8422_2325);
    for p in parts {
        h.floats(&p.lo);
        h.floats(&p.hi);
        h.word(p.members.len() as u64);
        p.members.iter().for_each(|&id| h.word(id as u64));
        h.floats(&p.min_rank_dists);
        h.floats(&p.max_rank_dists);
        h.word(p.isolation.to_bits());
    }
    for e in envs {
        h.floats(&[
            e.k_distance_lower,
            e.k_distance_upper,
            e.direct_min,
            e.direct_max,
            e.indirect_min,
            e.indirect_max,
            e.lof.lower,
            e.lof.upper,
        ]);
    }
    h.0
}

/// The cover's digest at MinPts 20, and how many of the partitions
/// holding a [`CAPPED_PROBES`] id have a radius below the brute-force
/// minimum, that is, one a cap cut short.
fn digest_and_capped<M: Metric>(data: &Dataset, metric: &M, parts: &[Partition]) -> (u64, usize) {
    let envs = partition_envelopes(metric, parts, 20).unwrap();
    let capped = parts
        .iter()
        .filter(|p| CAPPED_PROBES.iter().any(|id| p.members.contains(id)))
        .filter(|p| {
            let mut brute = f64::INFINITY;
            for &a in &p.members {
                for b in (0..data.len()).filter(|b| p.members.binary_search(b).is_err()) {
                    brute = brute.min(metric.distance(data.point(a), data.point(b)));
                }
            }
            p.isolation < brute
        })
        .count();
    (geometry_digest(parts, &envs), capped)
}

#[test]
fn capped_geometry_keeps_its_recorded_digest() {
    let data = capped_fixture();
    let kd = KdTree::new(&data, Euclidean).partitions();
    let (kd_digest, kd_capped) = digest_and_capped(&data, &Euclidean, &kd);
    let ball = BallTree::new(&data, Euclidean).partitions();
    let (ball_digest, ball_capped) = digest_and_capped(&data, &Euclidean, &ball);
    let kd_l1 = KdTree::new(&data, Manhattan).partitions();
    let (l1_digest, l1_capped) = digest_and_capped(&data, &Manhattan, &kd_l1);
    for cover in [&kd, &ball, &kd_l1] {
        assert!(cover.len() > 3000, "{} partitions", cover.len());
    }
    assert!(kd_capped > 0 && ball_capped > 0 && l1_capped > 0, "the caps must bind");
    // Recorded with the per-partition isolation queries, the all-pairs
    // rank profiles and the two box trees the flat one replaced.
    assert_eq!(kd_digest, 0x05ac_08dc_90ac_4904, "kd Euclidean geometry");
    assert_eq!(ball_digest, 0x1d84_3341_9b5d_a8dc, "ball Euclidean geometry");
    assert_eq!(l1_digest, 0x8182_db3e_ef70_7363, "kd Manhattan geometry");
}

/// Every id's canonical neighbor list under the scan and the kd-tree
/// `within` at `radius`, compared bit for bit.
fn check_within<M: Metric + Copy>(
    data: &Dataset,
    metric: M,
    label: &str,
    radius: impl Fn(usize) -> f64,
) {
    let scan = LinearScan::new(data, metric);
    let kd = KdTree::new(data, metric);
    for id in 0..data.len() {
        let r = radius(id);
        let want = scan.within(id, r).unwrap();
        let got = kd.within(id, r).unwrap();
        let bits = |v: &[lof_core::Neighbor]| {
            v.iter().map(|nb| (nb.id, nb.dist.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(&got), bits(&want), "{label}: id {id} at radius {r}");
    }
}

/// The k-distance of every id from the scan and from `tree`, bit for bit.
fn check_k_distance<P: KnnProvider>(
    data: &Dataset,
    scan: &impl KnnProvider,
    tree: &P,
    k: usize,
    label: &str,
) {
    for id in 0..data.len() {
        let want = k_distance(scan, id, k).unwrap();
        let got = k_distance(tree, id, k).unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "{label}: id {id} at k={k}");
    }
}

#[test]
fn kd_range_passes_and_k_distance_descents_match_the_scan() {
    let data = small_fixture();
    let ties = [1.0, 2f64.sqrt(), 3f64.sqrt(), 2.0, 5f64.sqrt()];
    for r in ties {
        check_within(&data, Euclidean, "euclidean tie", |_| r);
        check_within(&data, SquaredEuclidean, "squared tie", |_| r * r);
        check_within(&data, Manhattan, "manhattan tie", |_| r.round());
    }
    // k = 25 exceeds the 20-point duplicate pile.
    for k in [6, 25] {
        let scan = LinearScan::new(&data, Euclidean);
        let kd: Vec<f64> = (0..data.len()).map(|id| k_distance(&scan, id, k).unwrap()).collect();
        check_within(&data, Euclidean, "euclidean k-distance", |id| kd[id]);
        check_k_distance(&data, &scan, &KdTree::new(&data, Euclidean), k, "kd euclidean");
        check_k_distance(&data, &scan, &BallTree::new(&data, Euclidean), k, "ball euclidean");

        let scan_sq = LinearScan::new(&data, SquaredEuclidean);
        let kd_sq: Vec<f64> =
            (0..data.len()).map(|id| k_distance(&scan_sq, id, k).unwrap()).collect();
        check_within(&data, SquaredEuclidean, "squared k-distance", |id| kd_sq[id]);
        check_k_distance(&data, &scan_sq, &KdTree::new(&data, SquaredEuclidean), k, "kd squared");

        let scan_l1 = LinearScan::new(&data, Manhattan);
        let kd_l1: Vec<f64> =
            (0..data.len()).map(|id| k_distance(&scan_l1, id, k).unwrap()).collect();
        check_within(&data, Manhattan, "manhattan k-distance", |id| kd_l1[id]);
        check_k_distance(&data, &scan_l1, &KdTree::new(&data, Manhattan), k, "kd manhattan");
        check_k_distance(&data, &scan_l1, &BallTree::new(&data, Manhattan), k, "ball manhattan");
    }
}

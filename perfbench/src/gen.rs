//! Deterministic input generators. Every generator takes the workload
//! seed; the program under test only ever sees the files or lines they
//! produce.

use std::f64::consts::TAU;
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// SplitMix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Standard normal (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        (-2.0 * u.ln()).sqrt() * (TAU * self.unit()).cos()
    }
}

/// Writes rows as a CSV file with a non-numeric header (`x0,x1,...`),
/// the shape both `csv::load_dataset` and `ingest::ingest_csv` accept.
/// `{}` prints the shortest string that parses back to the same `f64`,
/// so the file carries the generated values exactly.
pub fn write_csv(path: &Path, rows: &[Vec<f64>]) -> io::Result<()> {
    let dims = rows.first().map_or(0, Vec::len);
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let header: Vec<String> = (0..dims).map(|c| format!("x{c}")).collect();
    writeln!(out, "{}", header.join(","))?;
    let mut line = String::new();
    for row in rows {
        line.clear();
        for (c, v) in row.iter().enumerate() {
            if c > 0 {
                line.push(',');
            }
            let _ = write!(line, "{v}");
        }
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// Sample seed of the fixed geometries; the workload seed only moves them.
const LAYOUT_SEED: u64 = 11;

/// `batch` / `ooc` data: a Gaussian mixture whose clusters have
/// different densities (the case LOF exists for), plus 1% uniform
/// planted outliers, shuffled so ids carry no cluster structure. How fast
/// the pipeline runs depends on the exact sample (one sample scores 15%
/// slower than another), so the points come from a fixed layout seed,
/// rounded to multiples of 1/1024, and the workload seed shifts the whole
/// set by a whole-unit offset (up to 5 per axis): fresh coordinates for
/// every seed, exactly the same distances, about the same cost.
pub fn density_mixture(seed: u64, n: usize, dims: usize) -> Vec<Vec<f64>> {
    // (share of the inliers, standard deviation)
    const CLUSTERS: [(f64, f64); 4] = [(0.4, 1.0), (0.3, 0.5), (0.2, 2.0), (0.1, 0.25)];
    let mut layout = Rng::new(LAYOUT_SEED);
    let shift = offset(seed, dims, 5);
    let outliers = n / 100;
    let inliers = n - outliers;
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut placed = 0;
    for (i, &(share, std)) in CLUSTERS.iter().enumerate() {
        let size = if i + 1 == CLUSTERS.len() {
            inliers - placed
        } else {
            (inliers as f64 * share) as usize
        };
        placed += size;
        for _ in 0..size {
            let center = |j: usize| if j == i { 25.0 } else { 0.0 };
            rows.push((0..dims).map(|j| center(j) + std * layout.normal()).collect());
        }
    }
    for _ in 0..outliers {
        rows.push((0..dims).map(|_| layout.range(-15.0, 40.0)).collect());
    }
    shuffle(&mut layout, &mut rows);
    for row in &mut rows {
        for (v, s) in row.iter_mut().zip(&shift) {
            *v = (*v * 1024.0).round() / 1024.0 + s;
        }
    }
    rows
}

/// A whole-unit offset of up to `reach` per axis, drawn from `seed`.
fn offset(seed: u64, dims: usize, reach: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    (0..dims).map(|_| (rng.next_u64() % (2 * reach + 1)) as f64 - reach as f64).collect()
}

/// `topn` data: unit-spacing lattice clusters scattered far apart plus
/// uniform planted outliers: the geometry where partition envelopes prune
/// (Gaussian clusters collapse the rectangle bounds). Pruning is very
/// sensitive to where the outliers fall, so the geometry comes from a
/// fixed layout seed and the workload seed moves the whole dataset by a
/// whole-unit offset (up to 100 per axis): fresh coordinates for every
/// seed, exactly the same distances (every coordinate is a multiple of
/// 1/64, so the shift is exact) and the same cost.
pub fn lattice_clusters(
    seed: u64,
    clusters: usize,
    outliers: usize,
    n: usize,
    dims: usize,
) -> Vec<Vec<f64>> {
    // Layouts differ in how much they prune: this one prunes ~90% of the
    // partitions and refines ~190 objects (layout 11 prunes none).
    const TOPN_LAYOUT_SEED: u64 = 2;
    let mut layout = Rng::new(TOPN_LAYOUT_SEED);
    let shift = offset(seed, dims, 100);
    let body = n - outliers;
    let mut rows = Vec::with_capacity(n);
    for c in 0..clusters {
        let share = body / clusters + usize::from(c < body % clusters);
        let center: Vec<f64> =
            shift.iter().map(|s| (layout.range(0.0, 1000.0) * 64.0).round() / 64.0 + s).collect();
        let side = (share as f64).powf(1.0 / dims as f64).ceil().max(1.0) as usize;
        let half = (side / 2) as f64;
        for i in 0..share {
            let mut rest = i;
            let row = center
                .iter()
                .map(|c| {
                    let offset = (rest % side) as f64 - half;
                    rest /= side;
                    c + offset
                })
                .collect();
            rows.push(row);
        }
    }
    for _ in 0..outliers {
        rows.push(
            shift.iter().map(|s| (layout.range(0.0, 1000.0) * 64.0).round() / 64.0 + s).collect(),
        );
    }
    rows
}

/// `serve` events: a three-cluster Gaussian mixture whose centers drift
/// along a closed loop with period `count`, plus about 1% uniform planted
/// outliers, each rendered as one NDJSON array line. The pool is replayed
/// cyclically; the drift is periodic, so the wrap is seamless, and a pool
/// far larger than the window never holds one point twice. Cluster `c`
/// starts at `15 · e_c` and swings along `e_{c+3}`. As for `batch`, the
/// events come from the fixed layout seed, rounded to multiples of
/// 1/1024, and the workload seed shifts them all by a whole-unit offset.
pub fn drifting_events(seed: u64, count: usize, dims: usize) -> Vec<String> {
    const CLUSTERS: [(f64, f64); 3] = [(0.5, 1.0), (0.3, 0.4), (0.2, 2.0)];
    let mut rng = Rng::new(LAYOUT_SEED);
    let shift = offset(seed, dims, 5);
    let axis = |c: usize, scale: f64| -> Vec<f64> {
        (0..dims).map(|j| if j == c % dims { scale } else { 0.0 }).collect()
    };
    let bases: Vec<Vec<f64>> = (0..CLUSTERS.len()).map(|c| axis(c, 15.0)).collect();
    let dirs: Vec<Vec<f64>> = (0..CLUSTERS.len()).map(|c| axis(c + 3, 1.0)).collect();
    let phases: Vec<f64> = (0..CLUSTERS.len()).map(|c| TAU * c as f64 / 3.0).collect();
    let mut lines = Vec::with_capacity(count);
    for t in 0..count {
        let point: Vec<f64> = if rng.unit() < 0.01 {
            (0..dims).map(|_| rng.range(-25.0, 40.0)).collect()
        } else {
            let pick = rng.unit();
            let mut acc = 0.0;
            let c = CLUSTERS
                .iter()
                .position(|&(share, _)| {
                    acc += share;
                    pick < acc
                })
                .unwrap_or(CLUSTERS.len() - 1);
            let swing = 6.0 * (TAU * t as f64 / count as f64 + phases[c]).sin();
            (0..dims)
                .map(|j| bases[c][j] + swing * dirs[c][j] + CLUSTERS[c].1 * rng.normal())
                .collect()
        };
        let mut line = String::with_capacity(dims * 20);
        line.push('[');
        for (j, (v, s)) in point.iter().zip(&shift).enumerate() {
            if j > 0 {
                line.push(',');
            }
            let _ = write!(line, "{}", (v * 1024.0).round() / 1024.0 + s);
        }
        line.push(']');
        lines.push(line);
    }
    lines
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

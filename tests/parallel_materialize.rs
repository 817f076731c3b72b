//! Parallel step 1 through the kd-tree join, checked by the root test
//! suite: `build_table_parallel` over a kd-tree must equal the serial
//! linear-scan table bit for bit, on shuffled ids with distance ties and
//! an oversized duplicate leaf, under whatever SIMD target the process
//! dispatches to (`LOF_FORCE_SCALAR=1` / `LOF_SIMD=sse2` rerun it).

use lof::core::build_table_parallel;
use lof::{Dataset, Euclidean, KdTree, LinearScan, NeighborhoodTable};

#[test]
fn parallel_kd_table_equals_the_serial_scan_table() {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut unit = || next() as f64 / (1u64 << 53) as f64;
    let mut rows: Vec<[f64; 4]> = (0..400)
        .map(|i| match i % 4 {
            // A continuous cluster.
            0 | 1 => [unit() * 3.0, unit() * 3.0, unit(), 1.0],
            // A unit lattice: distance ties straddling the k-th rank.
            2 => [(i % 5) as f64 + 20.0, ((i / 5) % 5) as f64, ((i / 25) % 4) as f64, 0.0],
            // Duplicates: more copies than a kd leaf holds.
            _ => [-9.0; 4],
        })
        .collect();
    // Shuffle so every worker's id chunk cuts across every leaf.
    for i in (1..rows.len()).rev() {
        rows.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let data = Dataset::from_rows(&rows).unwrap();
    let tree = KdTree::new(&data, Euclidean);
    for k in [4, 12] {
        let want = NeighborhoodTable::build(&LinearScan::new(&data, Euclidean), k).unwrap();
        for threads in [1, 2, 3] {
            let got = build_table_parallel(&tree, k, threads).unwrap();
            for id in 0..data.len() {
                let (g, w) =
                    (got.full_neighborhood(id).unwrap(), want.full_neighborhood(id).unwrap());
                assert_eq!(g.len(), w.len(), "k={k} threads={threads} id={id}: sizes");
                for (a, b) in g.iter().zip(w) {
                    assert_eq!(a.id, b.id, "k={k} threads={threads} id={id}: ids");
                    assert_eq!(
                        a.dist.to_bits(),
                        b.dist.to_bits(),
                        "k={k} threads={threads} id={id}"
                    );
                }
            }
        }
    }
}

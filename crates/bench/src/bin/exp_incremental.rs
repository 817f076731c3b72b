//! Extension experiment — the paper's second ongoing-work direction
//! ("further improve the performance of LOF computation"): incremental LOF
//! maintenance vs. batch recomputation under a stream of insertions.
//!
//! Expected shape: per-insert cost of the incremental model stays roughly
//! flat in stream length (the update is local: it rewrites the few
//! neighborhoods the new point joins, and the read refreshes only the
//! arriving score's dependencies), while recompute-per-insert
//! grows linearly; the maintained values are identical to batch (spot
//! checked here, property-tested in `lof-core`).

use lof_bench::{banner, scale, time, Table};
use lof_core::incremental::IncrementalLof;
use lof_core::{lof, Euclidean};
use lof_data::generators::{mixture, Component};
use lof_data::seeded;

fn main() {
    banner(
        "EXT exp_incremental",
        "ongoing work §8 — insert-time LOF maintenance vs batch recomputation",
    );
    let scale = scale();
    let min_pts = 10;

    let mut out = Table::new(
        "exp_incremental",
        &["base_n", "inserts", "incremental_s", "batch_s", "speedup", "mean_neighborhoods_updated"],
    );
    for base_n in [500usize, 1000, 2000].map(|n| n * scale) {
        let mut rng = seeded(17);
        let labeled = mixture(
            &mut rng,
            &[
                Component::Gaussian(base_n / 2, vec![0.0, 0.0], 2.0),
                Component::Gaussian(base_n / 2, vec![50.0, 0.0], 5.0),
            ],
            &[],
        );
        let inserts: Vec<[f64; 2]> = (0..100)
            .map(|i| {
                let angle = i as f64 * 0.7;
                [25.0 + 30.0 * angle.cos(), 30.0 * angle.sin()]
            })
            .collect();

        // Incremental: maintain under each insert, reading the arriving
        // score (the other scores refresh only when read).
        let mut model =
            IncrementalLof::new(labeled.data.clone(), Euclidean, min_pts).expect("valid seed");
        let mut updated_total = 0usize;
        let (_, inc_time) = time(|| {
            for p in &inserts {
                let (_, _, stats) = model.insert(p).expect("valid insert");
                updated_total += stats.neighborhoods_updated;
            }
        });

        // Batch: recompute everything after each insert.
        let mut data = labeled.data.clone();
        let (_, batch_time) = time(|| {
            for p in &inserts {
                data.push(p).expect("valid point");
                let _ = lof(&data, Euclidean, min_pts).expect("valid run");
            }
        });

        // Spot-check equality at the end.
        let batch_final = lof(model.dataset(), Euclidean, min_pts).expect("valid run");
        for (a, b) in model.lof_values().iter().zip(&batch_final) {
            assert!(
                (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                "incremental diverged from batch: {a} vs {b}"
            );
        }

        let inc_s = inc_time.as_secs_f64();
        let batch_s = batch_time.as_secs_f64();
        let mean_updated = updated_total as f64 / inserts.len() as f64;
        println!(
            "base n={base_n:5}: 100 inserts incremental {inc_s:7.3}s vs batch {batch_s:7.3}s \
             ({:.1}x), {mean_updated:.1} neighborhoods updated/insert",
            batch_s / inc_s
        );
        out.push(vec![
            base_n as f64,
            inserts.len() as f64,
            inc_s,
            batch_s,
            batch_s / inc_s,
            mean_updated,
        ]);
    }
    out.print_and_save();

    let speedups: Vec<f64> = out.rows.iter().map(|r| r[4]).collect();
    println!(
        "speedup grows with base size ({}): {}",
        speedups.iter().map(|s| format!("{s:.1}x")).collect::<Vec<_>>().join(" -> "),
        if speedups.windows(2).all(|w| w[1] > w[0]) && speedups[0] > 1.0 {
            "REPRODUCED (the update is local, batch is global)"
        } else {
            "NOT REPRODUCED"
        }
    );
}

//! Single-pass `MinPts`-range sweep engine: the one implementation of the
//! paper's step 2, behind both [`crate::range::lof_range`] and
//! [`crate::SpilledNeighborhoodTable::lof_range`].
//!
//! The per-`MinPts` reference ([`crate::range::lof_range_reference`]) walks
//! the materialization table `M` from scratch for every `MinPts` value:
//! `UB - LB + 1` iterations, each streaming the whole CSR arena three times
//! (k-distances, lrds, LOF ratios). The sweep engine streams the arena
//! **once per stage** instead: each object's tie-inclusive `N_k` is a
//! prefix of its materialized list and that prefix only grows with `k`, so
//! one walk of a neighbor list feeds the accumulators of *every* `MinPts`
//! in the range at the same time.
//!
//! The intermediate k-distance and lrd matrices are stored column-major
//! (`[n × rl]`, object outer): walking object `p`'s list touches, per
//! neighbor `o`, the `rl` contiguous per-`MinPts` values of `o` — one or
//! two cache lines instead of `rl` scattered row gathers, and an inner
//! loop the compiler can vectorize. Accumulation order per `(MinPts,
//! object)` cell is unchanged (neighbor rank ascending), so every value is
//! produced by the exact same floating-point operations in the exact same
//! order as the reference and results are **bit-identical** — the
//! `sweep_regression` integration test and the property suite compare the
//! two word for word.
//!
//! The stages read `M` through a [`Segment`] of consecutive rows. The
//! in-RAM table is one always-resident segment, cut into contiguous object
//! chunks that run on scoped threads (`threads == 1` runs the same code
//! inline); a spilled table feeds its on-disk segments through the same
//! stages one at a time. Stages only read `M` and write disjoint output
//! rows, so no coordination is needed beyond the final joins.

use crate::error::{LofError, Result};
use crate::lof::lrd_ratio;
use crate::lrd::reach_dist;
use crate::materialize::NeighborhoodTable;
use crate::neighbors::{tie_inclusive_len, Neighbor};
use crate::obs::{publish_event, CoreEvent};
use crate::range::{LofRangeResult, MinPtsRange};

/// A CSR offset: `usize` in the in-RAM table, `u32` in a spilled segment
/// (kept at its on-disk width, so a resident segment costs its file size).
pub(crate) trait Offset: Copy {
    fn at(self) -> usize;
}

impl Offset for usize {
    fn at(self) -> usize {
        self
    }
}

impl Offset for u32 {
    fn at(self) -> usize {
        self as usize
    }
}

/// A run of consecutive rows of `M`: row `start + i` is the sorted list
/// `arena[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment<'a, O> {
    pub(crate) start: usize,
    pub(crate) offsets: &'a [O],
    pub(crate) arena: &'a [Neighbor],
}

impl<'a, O: Offset> Segment<'a, O> {
    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The materialized list of local row `i`.
    fn list(&self, i: usize) -> &'a [Neighbor] {
        &self.arena[self.offsets[i].at()..self.offsets[i + 1].at()]
    }
}

/// Computes LOF for every `MinPts` of `range` in one pass over the table's
/// CSR arena per stage, chunk-parallel over objects when `threads > 1`.
/// Bit-identical to the per-`MinPts` reference.
pub(crate) fn sweep_lof_range(
    table: &NeighborhoodTable,
    range: MinPtsRange,
    threads: usize,
) -> Result<LofRangeResult> {
    if range.ub() > table.max_k() {
        return Err(LofError::TableTooShallow {
            materialized: table.max_k(),
            requested: range.ub(),
        });
    }
    if table.is_distinct() && range.lb() != table.max_k() {
        // Distinct tables answer only k == max_k; mirror the error the
        // reference hits on its first k_distances(lb) call.
        return Err(LofError::TableTooShallow {
            materialized: table.max_k(),
            requested: range.lb(),
        });
    }
    let n = table.len();
    let rl = range.len();
    let threads = threads.max(1).min(n.max(1));
    let (offsets, arena) = table.raw_parts();
    let whole = Segment { start: 0, offsets, arena };
    let distinct = table.is_distinct();

    let _span = lof_obs::span!("core.sweep");
    publish_event(CoreEvent::SweepRange);

    // Stage 1: tie-inclusive prefix lengths and k-distances for all (p, k)
    // in one list walk per object. Chunk outputs are consecutive rows of
    // the column-major `[n x rl]` matrices, so they concatenate.
    let (kd, lens) = {
        let (kd, lens): (Vec<Vec<f64>>, Vec<Vec<u32>>) =
            map_chunks(whole, threads, |seg| k_distance_stage(seg, range, distinct))
                .into_iter()
                .unzip();
        (kd.concat(), lens.concat())
    };

    // Stage 2: local reachability densities for all (p, k), one list walk
    // per object gathering each neighbor's contiguous k-distance column.
    let lrd = map_chunks(whole, threads, |seg| lrd_stage(seg, &kd, &lens, rl)).concat();

    // Stage 3: LOF ratios for all (p, k). The result rows are per-MinPts
    // score vectors, so the column-major chunks transpose on join.
    let mut values = vec![0.0f64; rl * n];
    let lof = map_chunks(whole, threads, |seg| lof_stage(seg, &lrd, &lens, rl));
    for (p, trace) in lof.iter().flat_map(|c| c.chunks(rl)).enumerate() {
        for (ri, &v) in trace.iter().enumerate() {
            values[ri * n + p] = v;
        }
    }
    Ok(LofRangeResult::from_values(range, n, values))
}

/// Cuts `whole` into up to `threads` contiguous segments and maps `work`
/// over them, on scoped threads only when more than one chunk exists.
/// Returns the outputs in row order.
fn map_chunks<T, F>(whole: Segment<'_, usize>, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Segment<'_, usize>) -> T + Sync,
{
    let n = whole.rows();
    let chunk = n.div_ceil(threads).max(1);
    let chunks = (0..n).step_by(chunk).map(|s| Segment {
        start: whole.start + s,
        offsets: &whole.offsets[s..=(s + chunk).min(n)],
        arena: whole.arena,
    });
    if threads <= 1 || chunk >= n {
        return chunks.map(work).collect();
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = chunks.map(|seg| scope.spawn(move || work(seg))).collect();
        handles.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect()
    })
}

/// Counts one stage's walk of `rows` lists for `cols` `MinPts` columns, so
/// `core.sweep.*` add up to the passes actually run on either path.
fn publish_pass(rows: usize, cols: usize) {
    publish_event(CoreEvent::SweepColumnPasses(rows as u64));
    publish_event(CoreEvent::SweepCells((rows * cols) as u64));
}

/// Stage 1 over `seg`: walk each materialized list once and read off, for
/// every `k` of `cols`, the tie-inclusive prefix length and the k-distance
/// (the prefix's last entry). `tie_inclusive_len` starts its scan at rank
/// `k`, so the whole per-object loop is `O(cols + ties)` on a list that
/// stays in cache. Output is column-major `[seg.rows() x cols.len()]`.
pub(crate) fn k_distance_stage<O: Offset>(
    seg: Segment<'_, O>,
    cols: MinPtsRange,
    distinct: bool,
) -> (Vec<f64>, Vec<u32>) {
    let rl = cols.len();
    let mut kd = vec![0.0f64; seg.rows() * rl];
    let mut lens = vec![0u32; seg.rows() * rl];
    for i in 0..seg.rows() {
        let full = seg.list(i);
        let base = i * rl;
        if distinct {
            // Validated: a distinct table only ever sweeps [max_k, max_k],
            // and its full stored list is the neighborhood.
            kd[base] = full[full.len() - 1].dist;
            lens[base] = full.len() as u32;
            continue;
        }
        for (ri, k) in cols.iter().enumerate() {
            let end = tie_inclusive_len(full, k);
            kd[base + ri] = full[end - 1].dist;
            lens[base + ri] = end as u32;
        }
    }
    publish_pass(seg.rows(), rl);
    (kd, lens)
}

/// The list walk shared by stages 2 and 3: one walk of each object's
/// widest prefix covers every column. Neighbor `j` of object `p` belongs to
/// `N_k(p)` exactly for the tail of `MinPts` columns whose prefix length
/// exceeds `j` (prefix lengths are non-decreasing in `k`), so a monotone
/// cursor finds the first such column and `add(p, neighbor, first, tail)`
/// adds the neighbor's term into each tail accumulator. Neighbor rank stays
/// the outer loop, so each accumulator sees its terms in exactly the
/// reference order; `finish(sum, |N_k(p)|)` maps each sum to the output.
/// Output is column-major `[seg.rows() x rl]`.
fn column_sums<O: Offset>(
    seg: Segment<'_, O>,
    lens: &[u32],
    rl: usize,
    add: impl Fn(usize, &Neighbor, usize, &mut [f64]),
    finish: impl Fn(f64, f64) -> f64,
) -> Vec<f64> {
    let mut out = vec![0.0f64; seg.rows() * rl];
    let mut sums = vec![0.0f64; rl];
    for i in 0..seg.rows() {
        let p = seg.start + i;
        let len_col = &lens[p * rl..(p + 1) * rl];
        sums.iter_mut().for_each(|v| *v = 0.0);
        let mut first = 0usize;
        for (j, nb) in seg.list(i)[..len_col[rl - 1] as usize].iter().enumerate() {
            while first < rl && (len_col[first] as usize) <= j {
                first += 1;
            }
            add(p, nb, first, &mut sums[first..]);
        }
        for ri in 0..rl {
            out[i * rl + ri] = finish(sums[ri], len_col[ri] as f64);
        }
    }
    publish_pass(seg.rows(), rl);
    out
}

/// Stage 2 over `seg`: local reachability densities for every column, with
/// the operation order of [`crate::lrd::local_reachability_densities_with`].
/// `kd` and `lens` are the whole `[n x rl]` stage 1 matrices.
pub(crate) fn lrd_stage<O: Offset>(
    seg: Segment<'_, O>,
    kd: &[f64],
    lens: &[u32],
    rl: usize,
) -> Vec<f64> {
    let add = |_, nb: &Neighbor, first, sums: &mut [f64]| {
        for (sum, &kd_o) in sums.iter_mut().zip(&kd[nb.id * rl + first..(nb.id + 1) * rl]) {
            *sum += reach_dist(kd_o, nb.dist);
        }
    };
    column_sums(seg, lens, rl, add, |sum, len| {
        let mean = sum / len;
        if mean > 0.0 {
            1.0 / mean
        } else {
            f64::INFINITY
        }
    })
}

/// Stage 3 over `seg`: LOF values (definition 7, the mean lrd ratio) for
/// every column, with the operation order of
/// [`crate::lof::lof_values_with`]. `lrd` is the whole stage 2 matrix.
pub(crate) fn lof_stage<O: Offset>(
    seg: Segment<'_, O>,
    lrd: &[f64],
    lens: &[u32],
    rl: usize,
) -> Vec<f64> {
    let add = |p: usize, nb: &Neighbor, first, sums: &mut [f64]| {
        let lrd_o = &lrd[nb.id * rl + first..(nb.id + 1) * rl];
        let lrd_p = &lrd[p * rl + first..(p + 1) * rl];
        for ((sum, &o), &q) in sums.iter_mut().zip(lrd_o).zip(lrd_p) {
            *sum += lrd_ratio(o, q);
        }
    };
    column_sums(seg, lens, rl, add, |sum, len| sum / len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;
    use crate::point::Dataset;
    use crate::range::lof_range_reference;
    use crate::scan::LinearScan;

    fn mixed_dataset() -> Dataset {
        // Clusters of different density, duplicate piles (infinite lrds),
        // and isolates — every code path of the sweep.
        let mut rows: Vec<[f64; 2]> = Vec::new();
        for i in 0..40 {
            rows.push([(i % 8) as f64, (i / 8) as f64]);
        }
        for _ in 0..6 {
            rows.push([20.0, 20.0]);
        }
        for i in 0..20 {
            rows.push([(i as f64) * 0.01 + 50.0, 0.0]);
        }
        rows.push([-30.0, -30.0]);
        Dataset::from_rows(&rows).unwrap()
    }

    fn assert_bit_identical(a: &LofRangeResult, b: &LofRangeResult, label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: object counts");
        for k in a.range().iter() {
            for (id, (x, y)) in
                a.at_min_pts(k).unwrap().iter().zip(b.at_min_pts(k).unwrap()).enumerate()
            {
                assert_eq!(x.to_bits(), y.to_bits(), "{label}: k={k} id={id} ({x} vs {y})");
            }
        }
    }

    #[test]
    fn sweep_is_bit_identical_to_reference() {
        let ds = mixed_dataset();
        let scan = LinearScan::new(&ds, Euclidean);
        let table = NeighborhoodTable::build(&scan, 12).unwrap();
        let range = MinPtsRange::new(2, 12).unwrap();
        let want = lof_range_reference(&table, range).unwrap();
        for threads in [1, 2, 3, 8] {
            let got = sweep_lof_range(&table, range, threads).unwrap();
            assert_bit_identical(&got, &want, &format!("threads={threads}"));
        }
    }

    #[test]
    fn sweep_handles_single_value_ranges() {
        let ds = mixed_dataset();
        let scan = LinearScan::new(&ds, Euclidean);
        let table = NeighborhoodTable::build(&scan, 7).unwrap();
        let range = MinPtsRange::single(7).unwrap();
        let want = lof_range_reference(&table, range).unwrap();
        let got = sweep_lof_range(&table, range, 4).unwrap();
        assert_bit_identical(&got, &want, "single");
    }

    #[test]
    fn sweep_matches_reference_on_distinct_tables() {
        let ds = mixed_dataset();
        let table = NeighborhoodTable::build_distinct(&ds, &Euclidean, 5).unwrap();
        // Only [max_k, max_k] is answerable from a distinct table.
        let ok = MinPtsRange::single(5).unwrap();
        let want = lof_range_reference(&table, ok).unwrap();
        let got = sweep_lof_range(&table, ok, 3).unwrap();
        assert_bit_identical(&got, &want, "distinct");
        // Any other range fails identically to the reference.
        for bad in [MinPtsRange::new(4, 5).unwrap(), MinPtsRange::new(3, 4).unwrap()] {
            let want_err = lof_range_reference(&table, bad).unwrap_err();
            let got_err = sweep_lof_range(&table, bad, 3).unwrap_err();
            assert_eq!(format!("{got_err:?}"), format!("{want_err:?}"), "range {bad:?}");
        }
    }

    #[test]
    fn sweep_rejects_too_shallow_tables() {
        let ds = mixed_dataset();
        let scan = LinearScan::new(&ds, Euclidean);
        let table = NeighborhoodTable::build(&scan, 5).unwrap();
        let err = sweep_lof_range(&table, MinPtsRange::new(3, 9).unwrap(), 2).unwrap_err();
        assert!(matches!(err, LofError::TableTooShallow { materialized: 5, requested: 9 }));
    }
}

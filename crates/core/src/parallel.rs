//! Parallel variants of the two-step algorithm.
//!
//! The paper's ongoing-work section asks "to further improve the performance
//! of LOF computation"; both steps are embarrassingly parallel across
//! objects, so we provide scoped-thread versions. Results are bit-identical
//! to the serial code — property tests assert this.
//!
//! Step 1 runs through the provider's own driver,
//! [`KnnProvider::materialize`], so each provider kind splits the work
//! the way its search shares it. The default gives each worker one
//! contiguous id chunk in a **single** [`KnnProvider::batch_k_nearest`]
//! call. The kd and ball trees answer queries one leaf group at a time
//! (one traversal per group), and a cut by id would split every group on
//! shuffled ids, one piece per worker; their workers instead claim whole
//! leaf groups off a shared cursor, so each leaf is traversed once at any
//! thread count and dense and sparse leaves balance out as they are
//! claimed. Either way workers share nothing but the cursor while they
//! run, and the table is the same at every thread count.

use crate::error::{LofError, Result};
use crate::materialize::NeighborhoodTable;
use crate::neighbors::KnnProvider;
use crate::range::{LofRangeResult, MinPtsRange};

/// Clamps a requested thread count to something sensible for
/// `work_items`. A request of `0` is clamped to 1 (serial), *not*
/// auto-detected: callers that mean "use every core" must resolve the
/// count themselves (the CLI normalizes `--threads 0` to
/// `default_threads()` at parse time).
fn effective_threads(threads: usize, work_items: usize) -> usize {
    threads.max(1).min(work_items.max(1))
}

/// Maps `f` over `0..items`, returning the results in index order. With
/// `threads > 1` the indices are strided across scoped worker threads —
/// each result is computed independently, so any schedule yields the same
/// vector; with one thread the loop runs inline. Each worker (the calling
/// thread when serial) makes one state with `init` and hands it to `f`
/// for every index it maps, so buffers in it are reused across indices.
/// `f` must not let the state change its results.
pub(crate) fn map_strided_with<S, R, I, F>(items: usize, threads: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = effective_threads(threads, items);
    if workers <= 1 {
        let mut state = init();
        return (0..items).map(|i| f(&mut state, i)).collect();
    }
    let (init, f) = (&init, &f);
    let parts: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut state = init();
                    (w..items).step_by(workers).map(|i| f(&mut state, i)).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("strided map worker panicked")).collect()
    });
    // Worker `w` mapped `w, w + workers, ...` in order, so index `i` is
    // the next result of worker `i % workers`.
    let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
    (0..items).map(|i| parts[i % workers].next().expect("every index computed")).collect()
}

/// Builds the materialization table with `threads` worker threads (step
/// 1 in parallel), through the provider's own step-1 driver,
/// [`KnnProvider::materialize`].
///
/// # Errors
///
/// Same as [`NeighborhoodTable::build`]; the provider's driver decides
/// which of several failing workers reports (the default: the first id
/// chunk).
pub fn build_table_parallel<P>(
    provider: &P,
    max_k: usize,
    threads: usize,
) -> Result<NeighborhoodTable>
where
    P: KnnProvider + Sync + ?Sized,
{
    let n = provider.len();
    if n == 0 {
        return Err(LofError::EmptyDataset);
    }
    let _span = lof_obs::span!("core.materialize.build");
    let (neighbors, lens) = provider.materialize(max_k, effective_threads(threads, n))?;
    Ok(NeighborhoodTable::from_flat(max_k, neighbors, &lens))
}

/// Computes the LOF range with `threads` workers (step 2 in parallel).
///
/// Since PR 3 this drives the [`crate::sweep`] engine with object-chunk
/// parallelism: every worker sweeps the full `MinPts` range over a
/// contiguous slice of objects, so the table is streamed once per stage
/// regardless of the range width. Bit-identical to the serial
/// [`crate::range::lof_range`] (itself the single-threaded sweep).
///
/// # Errors
///
/// Same as [`crate::range::lof_range`].
pub fn lof_range_parallel(
    table: &NeighborhoodTable,
    range: MinPtsRange,
    threads: usize,
) -> Result<LofRangeResult> {
    crate::sweep::sweep_lof_range(table, range, effective_threads(threads, table.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;
    use crate::point::Dataset;
    use crate::range::lof_range;
    use crate::scan::LinearScan;

    fn dataset() -> Dataset {
        // Two clusters of different density plus stragglers, 1-d for speed.
        let mut rows: Vec<[f64; 1]> = Vec::new();
        for i in 0..60 {
            rows.push([i as f64 * 0.1]);
        }
        for i in 0..40 {
            rows.push([100.0 + i as f64]);
        }
        rows.push([55.0]);
        rows.push([-30.0]);
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn parallel_table_equals_serial() {
        let ds = dataset();
        let scan = LinearScan::new(&ds, Euclidean);
        let serial = NeighborhoodTable::build(&scan, 8).unwrap();
        for threads in [1, 2, 3, 7] {
            let par = build_table_parallel(&scan, 8, threads).unwrap();
            assert_eq!(par.len(), serial.len());
            assert_eq!(par.stored_entries(), serial.stored_entries());
            for id in 0..serial.len() {
                assert_eq!(
                    par.full_neighborhood(id).unwrap(),
                    serial.full_neighborhood(id).unwrap(),
                    "threads={threads} id={id}"
                );
            }
        }
    }

    #[test]
    fn parallel_range_equals_serial() {
        let ds = dataset();
        let scan = LinearScan::new(&ds, Euclidean);
        let table = NeighborhoodTable::build(&scan, 10).unwrap();
        let range = MinPtsRange::new(3, 10).unwrap();
        let serial = lof_range(&table, range).unwrap();
        for threads in [2, 4, 9] {
            let par = lof_range_parallel(&table, range, threads).unwrap();
            for k in range.iter() {
                assert_eq!(par.at_min_pts(k).unwrap(), serial.at_min_pts(k).unwrap());
            }
        }
    }

    #[test]
    fn parallel_reports_validation_errors() {
        let ds = dataset();
        let scan = LinearScan::new(&ds, Euclidean);
        assert!(build_table_parallel(&scan, ds.len(), 4).is_err());
        let table = NeighborhoodTable::build(&scan, 5).unwrap();
        assert!(matches!(
            lof_range_parallel(&table, MinPtsRange::new(3, 9).unwrap(), 4),
            Err(LofError::TableTooShallow { .. })
        ));
    }

    #[test]
    fn map_strided_matches_inline_for_any_thread_count() {
        let square = |(): &mut (), i: usize| i * i;
        let inline = map_strided_with(7, 1, || (), square);
        for threads in [2, 3, 8] {
            assert_eq!(map_strided_with(7, threads, || (), square), inline);
        }
        assert!(map_strided_with(0, 4, || (), |(), i| i).is_empty());
    }

    #[test]
    fn thread_count_is_clamped() {
        let ds = dataset();
        let scan = LinearScan::new(&ds, Euclidean);
        // More threads than objects / rows must still work.
        let table = build_table_parallel(&scan, 4, 10_000).unwrap();
        let res = lof_range_parallel(&table, MinPtsRange::new(2, 4).unwrap(), 10_000).unwrap();
        assert_eq!(res.len(), ds.len());
    }
}

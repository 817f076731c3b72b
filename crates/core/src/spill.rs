//! A disk-spillable materialization database `M`.
//!
//! [`NeighborhoodTable`](crate::NeighborhoodTable) keeps the whole CSR
//! arena resident — `n · MinPtsUB` entries, which at the 10M-point tier is
//! gigabytes. [`SpilledNeighborhoodTable`] materializes the same
//! tie-inclusive neighborhoods but writes them to disk in fixed row-range
//! **segments**, appended in completion order as the batch self-join
//! produces them, so peak build memory is one segment regardless of `n`.
//!
//! Step 2 runs the sweep engine's stages ([`crate::sweep`]) over the
//! segments. [`SpilledNeighborhoodTable::lof_range`] takes the `MinPts`
//! range in batches of [`SpilledNeighborhoodTable::columns_per_wave`]
//! columns, the most whose per-wave matrices fit in the budget; each batch
//! reads the segments in three in-order waves (k-distances, lrds, LOF
//! values folded into the running aggregate). Since every read is a full
//! in-order wave, the segment cache keeps every segment once loaded when
//! the whole spill file fits in the budget, and otherwise holds only the
//! segment being read (readers hold an `Arc`, so eviction never
//! invalidates one).
//!
//! ## Exactness
//!
//! The waves call the sweep's own stage functions — there is no second
//! copy of the arithmetic — and each object's values are folded in
//! ascending `MinPts` by the [`Aggregate`] steps the in-RAM result uses.
//! Segmentation only changes *where* a neighbor list is read from, never
//! the arithmetic on it, so scores are bit-identical to the in-RAM path —
//! which `tests`, the `ooc_sweep_identity` suite and the CI ingest gate
//! assert with `to_bits` equality.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{LofError, Result};
use crate::neighbors::{KnnProvider, Neighbor};
use crate::obs::{publish_event, CoreEvent};
use crate::range::{Aggregate, MinPtsRange};
use crate::sweep::{k_distance_stage, lof_stage, lrd_stage, Segment};

/// Accounting for one spillable table: segments written at build, cache
/// misses and evictions during scoring, and current cache residency.
/// Mirrored onto the `core.ooc.*` registry counters at publish points.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpillStats {
    /// CSR segments written to the spill file during the build.
    pub segment_spills: u64,
    /// Segments read back from disk (cache misses).
    pub segment_reloads: u64,
    /// Segments dropped from the cache to make way for the next one
    /// (only when the spill file does not fit in the budget).
    pub segment_evictions: u64,
    /// Bytes currently held by the segment cache.
    pub resident_bytes: u64,
}

/// Location of one serialized segment inside the spill file.
#[derive(Debug, Clone, Copy)]
struct SegmentMeta {
    start_row: usize,
    rows: usize,
    entries: usize,
    file_off: u64,
}

impl SegmentMeta {
    fn byte_len(&self) -> u64 {
        ((self.rows + 1) * 4 + self.entries * 16) as u64
    }
}

/// One segment deserialized into RAM: local CSR offsets plus the
/// concatenated sorted neighbor lists of rows
/// `start_row..start_row + rows`.
#[derive(Debug)]
struct LoadedSegment {
    start_row: usize,
    offsets: Vec<u32>,
    neighbors: Vec<Neighbor>,
}

impl LoadedSegment {
    fn view(&self) -> Segment<'_, u32> {
        Segment { start: self.start_row, offsets: &self.offsets, arena: &self.neighbors }
    }

    fn heap_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.neighbors.len() * std::mem::size_of::<Neighbor>()
    }
}

#[derive(Debug)]
struct SegmentCache {
    /// The segments in RAM: all of them once read when the spill file fits
    /// the budget, otherwise at most the one read last.
    resident: Vec<Option<Arc<LoadedSegment>>>,
    resident_bytes: usize,
    stats: SpillStats,
    /// The part of `stats` already added to the registry counters.
    published: SpillStats,
}

/// Bytes per object per `MinPts` column of the per-wave matrices: an `f64`
/// k-distance and a `u32` prefix length (wave 1) plus an `f64` lrd (wave 2).
const WAVE_BYTES_PER_CELL: usize = 8 + 4 + 8;

/// The materialization database `M`, spilled to disk and read back through
/// a budgeted segment cache. See the module docs.
#[derive(Debug)]
pub struct SpilledNeighborhoodTable {
    max_k: usize,
    n: usize,
    budget_bytes: usize,
    stored_entries: u64,
    segments: Vec<SegmentMeta>,
    /// True when the whole spill file fits in the budget, so segments
    /// stay resident once loaded.
    keep_all: bool,
    file: File,
    path: PathBuf,
    cache: Mutex<SegmentCache>,
}

fn io_err(what: &str, e: std::io::Error) -> LofError {
    LofError::InvalidPartition(format!("{what}: {e}"))
}

/// Rows per segment: sized so one segment is roughly an eighth of the
/// budget (a streaming read holds one segment, far below it) but at least
/// 256 rows, so small budgets degrade to more reloads instead of
/// pathological per-row I/O. The floor never outgrows the budget: below
/// 256 rows' worth it shrinks to the rows that fit (at least one), so the
/// one segment a streaming read holds stays within the budget whenever a
/// row does.
fn segment_rows(n: usize, max_k: usize, budget_bytes: usize) -> usize {
    let bytes_per_row = 16 * (max_k + 1) + 4;
    // A segment's offsets hold one word more than it has rows.
    let floor = (budget_bytes.saturating_sub(4) / bytes_per_row).clamp(1, 256);
    let target = (budget_bytes / 8).max(floor * bytes_per_row);
    (target / bytes_per_row).min(n.max(1))
}

impl SpilledNeighborhoodTable {
    /// Materializes every object's tie-inclusive `max_k`-neighborhood into
    /// a spill file under `spill_dir`, holding at most one segment of
    /// neighbor lists in memory at a time. `budget_bytes` bounds the
    /// segment cache and, separately, the per-wave column matrices of
    /// [`SpilledNeighborhoodTable::lof_range`] (the build itself honors it
    /// by segment sizing).
    ///
    /// The spill file is exclusive to this table and is deleted on drop.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::EmptyDataset`] on an empty provider, propagates
    /// provider errors ([`LofError::InvalidMinPts`], ...), and maps spill
    /// I/O failures onto [`LofError::InvalidPartition`].
    pub fn build<P: KnnProvider + ?Sized>(
        provider: &P,
        max_k: usize,
        budget_bytes: usize,
        spill_dir: &Path,
    ) -> Result<Self> {
        let n = provider.len();
        if n == 0 {
            return Err(LofError::EmptyDataset);
        }
        let _span = lof_obs::span!("core.spill.build");
        static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = spill_dir.join(format!(
            "lof-spill-{}-{}.bin",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create spill file", e))?;
        let mut writer = BufWriter::with_capacity(1 << 20, &file);

        let seg_rows = segment_rows(n, max_k, budget_bytes);
        let mut scratch = crate::knn::KnnScratch::new();
        let mut neighbors: Vec<Neighbor> = Vec::new();
        let mut lens: Vec<usize> = Vec::new();
        let mut segments = Vec::with_capacity(n.div_ceil(seg_rows));
        let mut stored_entries = 0u64;
        let mut file_off = 0u64;
        let mut spills = 0u64;
        let mut start = 0usize;
        while start < n {
            let end = (start + seg_rows).min(n);
            neighbors.clear();
            lens.clear();
            provider.batch_k_nearest(start..end, max_k, &mut scratch, &mut neighbors, &mut lens)?;
            let mut acc = 0u32;
            writer.write_all(&acc.to_le_bytes()).map_err(|e| io_err("write spill", e))?;
            for &len in &lens {
                acc += len as u32;
                writer.write_all(&acc.to_le_bytes()).map_err(|e| io_err("write spill", e))?;
            }
            for nb in &neighbors {
                writer
                    .write_all(&(nb.id as u64).to_le_bytes())
                    .and_then(|()| writer.write_all(&nb.dist.to_le_bytes()))
                    .map_err(|e| io_err("write spill", e))?;
            }
            let meta = SegmentMeta {
                start_row: start,
                rows: end - start,
                entries: neighbors.len(),
                file_off,
            };
            file_off += meta.byte_len();
            stored_entries += neighbors.len() as u64;
            segments.push(meta);
            spills += 1;
            start = end;
        }
        writer.flush().map_err(|e| io_err("flush spill", e))?;
        drop(writer);
        scratch.stats.publish_and_reset();

        let cache = SegmentCache {
            resident: segments.iter().map(|_| None).collect(),
            resident_bytes: 0,
            stats: SpillStats { segment_spills: spills, ..SpillStats::default() },
            published: SpillStats::default(),
        };
        let table = SpilledNeighborhoodTable {
            max_k,
            n,
            budget_bytes,
            stored_entries,
            segments,
            // A loaded segment occupies exactly its on-disk bytes.
            keep_all: file_off <= budget_bytes as u64,
            file,
            path,
            cache: Mutex::new(cache),
        };
        table.publish_stats();
        Ok(table)
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the table covers no objects (never: empty providers are
    /// rejected at build).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `MinPtsUB` the table was materialized with.
    pub fn max_k(&self) -> usize {
        self.max_k
    }

    /// Total stored `(neighbor, distance)` entries — the paper's
    /// "size of M" — all of them on disk.
    pub fn stored_entries(&self) -> u64 {
        self.stored_entries
    }

    /// Number of on-disk segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The resident-memory budget, in bytes: it bounds the segment cache
    /// and, separately, the per-wave column matrices.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// `MinPts` columns each wave of [`SpilledNeighborhoodTable::lof_range`]
    /// covers over `range`: the most whose per-wave matrices (20 bytes per
    /// object per column) fit in the budget, at least 1 and at most
    /// `range.len()`. A streaming table reads every segment
    /// `3 × ⌈range.len() / columns⌉` times; a resident one reads each once.
    pub fn columns_per_wave(&self, range: MinPtsRange) -> usize {
        (self.budget_bytes / (WAVE_BYTES_PER_CELL * self.n)).clamp(1, range.len())
    }

    /// A snapshot of the spill/reload/eviction accounting.
    pub fn stats(&self) -> SpillStats {
        let cache = self.cache.lock().expect("segment cache poisoned");
        SpillStats { resident_bytes: cache.resident_bytes as u64, ..cache.stats }
    }

    /// Adds what accrued since the last publish to the `core.ooc.*`
    /// counters and sets the residency gauge.
    fn publish_stats(&self) {
        let mut cache = self.cache.lock().expect("segment cache poisoned");
        let (now, before) = (cache.stats, cache.published);
        cache.published = now;
        crate::obs::publish_ooc_spill(&SpillStats {
            segment_spills: now.segment_spills - before.segment_spills,
            segment_reloads: now.segment_reloads - before.segment_reloads,
            segment_evictions: now.segment_evictions - before.segment_evictions,
            resident_bytes: cache.resident_bytes as u64,
        });
    }

    /// The resident-or-reloaded segment `idx`. Unless every segment fits
    /// the budget, the segment read last is evicted to make way for it.
    fn segment(&self, idx: usize) -> Result<Arc<LoadedSegment>> {
        let mut cache = self.cache.lock().expect("segment cache poisoned");
        if let Some(seg) = &cache.resident[idx] {
            return Ok(Arc::clone(seg));
        }
        if !self.keep_all {
            if let Some(evicted) = cache.resident.iter_mut().find_map(Option::take) {
                cache.resident_bytes -= evicted.heap_bytes();
                cache.stats.segment_evictions += 1;
            }
        }
        let seg = Arc::new(self.read_segment(&self.segments[idx])?);
        cache.stats.segment_reloads += 1;
        cache.resident_bytes += seg.heap_bytes();
        cache.resident[idx] = Some(Arc::clone(&seg));
        Ok(seg)
    }

    fn read_segment(&self, meta: &SegmentMeta) -> Result<LoadedSegment> {
        // `&File` implements Read/Seek; the call sites hold the cache
        // lock, so seek+read pairs never interleave.
        let mut file = &self.file;
        file.seek(SeekFrom::Start(meta.file_off)).map_err(|e| io_err("seek spill", e))?;
        let mut buf = vec![0u8; meta.byte_len() as usize];
        file.read_exact(&mut buf).map_err(|e| io_err("read spill", e))?;
        let mut offsets = Vec::with_capacity(meta.rows + 1);
        for chunk in buf[..(meta.rows + 1) * 4].chunks_exact(4) {
            offsets.push(u32::from_le_bytes(chunk.try_into().expect("4 bytes")));
        }
        if offsets.last().copied() != Some(meta.entries as u32) {
            return Err(LofError::InvalidPartition(format!(
                "spill segment at {} is corrupt: {} entries indexed, {} stored",
                meta.file_off,
                offsets.last().copied().unwrap_or(0),
                meta.entries
            )));
        }
        let mut neighbors = Vec::with_capacity(meta.entries);
        for entry in buf[(meta.rows + 1) * 4..].chunks_exact(16) {
            let id = u64::from_le_bytes(entry[..8].try_into().expect("8 bytes")) as usize;
            let dist = f64::from_le_bytes(entry[8..].try_into().expect("8 bytes"));
            neighbors.push(Neighbor { id, dist });
        }
        Ok(LoadedSegment { start_row: meta.start_row, offsets, neighbors })
    }

    /// Runs `f` over every segment in row order: one wave.
    fn wave(&self, mut f: impl FnMut(Segment<'_, u32>)) -> Result<()> {
        for idx in 0..self.segments.len() {
            f(self.segment(idx)?.view());
        }
        Ok(())
    }

    /// Aggregated LOF scores over a `MinPts` range, without ever holding
    /// the `range.len() x n` value matrix: the sweep engine's stages run
    /// over the segments for batches of
    /// [`SpilledNeighborhoodTable::columns_per_wave`] columns, three waves
    /// per batch, and each object's values are folded into its running
    /// aggregate in ascending `MinPts`. Bit-identical to
    /// `lof_range(..).scores(aggregate)` on the in-RAM path.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::TableTooShallow`] when `range.ub() > max_k`,
    /// and maps spill I/O failures onto [`LofError::InvalidPartition`].
    pub fn lof_range(&self, range: MinPtsRange, aggregate: Aggregate) -> Result<OocScores> {
        if range.ub() > self.max_k {
            return Err(LofError::TableTooShallow {
                materialized: self.max_k,
                requested: range.ub(),
            });
        }
        let _span = lof_obs::span!("core.spill.lof_range");
        publish_event(CoreEvent::SweepRange);
        let n = self.n;
        let width = self.columns_per_wave(range);
        let mut kd = vec![0.0f64; n * width];
        let mut lens = vec![0u32; n * width];
        let mut lrd = vec![0.0f64; n * width];
        let mut scores = vec![aggregate.seed(); n];
        for lb in range.iter().step_by(width) {
            let cols = MinPtsRange::new(lb, (lb + width - 1).min(range.ub()))?;
            let w = cols.len();
            let rows = |seg: &Segment<'_, u32>| seg.start * w..(seg.start + seg.rows()) * w;
            self.wave(|seg| {
                let (kd_s, lens_s) = k_distance_stage(seg, cols, false);
                kd[rows(&seg)].copy_from_slice(&kd_s);
                lens[rows(&seg)].copy_from_slice(&lens_s);
            })?;
            let (kd, lens) = (&kd[..n * w], &lens[..n * w]);
            self.wave(|seg| lrd[rows(&seg)].copy_from_slice(&lrd_stage(seg, kd, lens, w)))?;
            self.wave(|seg| {
                let lofs = lof_stage(seg, &lrd[..n * w], lens, w);
                for (score, trace) in scores[seg.start..].iter_mut().zip(lofs.chunks(w)) {
                    *score = trace.iter().fold(*score, |acc, &v| aggregate.step(acc, v));
                }
            })?;
        }
        for s in &mut scores {
            *s = aggregate.finish(*s, range.len());
        }
        self.publish_stats();
        Ok(OocScores { range, aggregate, scores })
    }
}

impl Drop for SpilledNeighborhoodTable {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Aggregated out-of-core scores: what
/// [`SpilledNeighborhoodTable::lof_range`] returns instead of a
/// [`crate::LofRangeResult`] (whose full per-`MinPts` matrix is exactly
/// what a memory budget cannot afford).
#[derive(Debug, Clone)]
pub struct OocScores {
    range: MinPtsRange,
    aggregate: Aggregate,
    scores: Vec<f64>,
}

impl OocScores {
    /// The `MinPts` range scored.
    pub fn range(&self) -> MinPtsRange {
        self.range
    }

    /// The aggregate the scores were folded with.
    pub fn aggregate(&self) -> Aggregate {
        self.aggregate
    }

    /// Aggregated score per object, in id order.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// The aggregated score of one object.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::UnknownObject`] for out-of-range ids.
    pub fn score(&self, id: usize) -> Result<f64> {
        self.scores
            .get(id)
            .copied()
            .ok_or(LofError::UnknownObject { id, dataset_size: self.scores.len() })
    }

    /// Objects ranked most-outlying first, ties broken by id — the same
    /// order as [`crate::LofRangeResult::ranking`].
    pub fn ranking(&self) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> = self.scores.iter().copied().enumerate().collect();
        ranked.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;
    use crate::materialize::NeighborhoodTable;
    use crate::point::Dataset;
    use crate::range::lof_range_reference;
    use crate::scan::LinearScan;

    fn mixture(n: usize) -> Dataset {
        // Deterministic two-cluster-plus-outliers scene, no RNG needed.
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let f = i as f64;
            if i % 97 == 96 {
                rows.push([50.0 + (f * 0.37).sin() * 40.0, -60.0 + (f * 0.71).cos() * 40.0]);
            } else if i % 2 == 0 {
                rows.push([(f * 0.13).sin() * 3.0, (f * 0.29).cos() * 3.0]);
            } else {
                rows.push([10.0 + (f * 0.17).sin(), 10.0 + (f * 0.23).cos()]);
            }
        }
        Dataset::from_rows(&rows).unwrap()
    }

    fn spill_dir() -> PathBuf {
        std::env::temp_dir()
    }

    #[test]
    fn spilled_scores_are_bit_identical_to_reference() {
        let data = mixture(600);
        let scan = LinearScan::new(&data, Euclidean);
        let range = MinPtsRange::new(5, 12).unwrap();

        let table = NeighborhoodTable::build(&scan, 12).unwrap();
        let reference = lof_range_reference(&table, range).unwrap();

        // A budget far below the table size forces constant eviction.
        let spilled = SpilledNeighborhoodTable::build(&scan, 12, 16 << 10, &spill_dir()).unwrap();
        assert!(spilled.segment_count() > 1, "test must actually segment");

        for aggregate in [Aggregate::Max, Aggregate::Min, Aggregate::Mean] {
            let ooc = spilled.lof_range(range, aggregate).unwrap();
            let expected = reference.scores(aggregate);
            assert_eq!(ooc.scores().len(), expected.len());
            for (id, (a, b)) in ooc.scores().iter().zip(&expected).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "id={id} aggregate={aggregate:?}");
            }
            assert_eq!(ooc.ranking(), reference.ranking(aggregate));
        }
    }

    #[test]
    fn per_k_passes_match_in_ram_table() {
        let data = mixture(300);
        let scan = LinearScan::new(&data, Euclidean);
        let table = NeighborhoodTable::build(&scan, 8).unwrap();
        let spilled = SpilledNeighborhoodTable::build(&scan, 8, 8 << 10, &spill_dir()).unwrap();
        assert_eq!(spilled.stored_entries() as usize, table.stored_entries());
        for k in 1..=8 {
            let lof = spilled.lof_range(MinPtsRange::single(k).unwrap(), Aggregate::Max).unwrap();
            let expected = crate::lof::lof_values(&table, k).unwrap();
            for (id, (a, b)) in lof.scores().iter().zip(&expected).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "k={k} id={id}");
            }
        }
    }

    #[test]
    fn tiny_budget_spills_and_evicts() {
        let data = mixture(500);
        let scan = LinearScan::new(&data, Euclidean);
        let spilled = SpilledNeighborhoodTable::build(&scan, 10, 4 << 10, &spill_dir()).unwrap();
        let _ = spilled.lof_range(MinPtsRange::new(3, 10).unwrap(), Aggregate::Max).unwrap();
        let stats = spilled.stats();
        assert!(stats.segment_spills > 1, "spills: {stats:?}");
        assert!(stats.segment_reloads > stats.segment_spills, "multi-pass reloads: {stats:?}");
        assert!(stats.segment_evictions > 0, "evictions: {stats:?}");
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn segments_stay_within_budgets_below_the_row_floor() {
        let data = mixture(600);
        let scan = LinearScan::new(&data, Euclidean);
        // 16 KiB holds about 90 rows of 10 neighbors, far below 256 rows.
        let budget = 16 << 10;
        let spilled = SpilledNeighborhoodTable::build(&scan, 10, budget, &spill_dir()).unwrap();
        assert!(spilled.segment_count() > 1);
        let largest = spilled.segments.iter().map(SegmentMeta::byte_len).max().unwrap();
        assert!(largest <= budget as u64, "a {largest}-byte segment under a {budget}-byte budget");
        let mut peak = 0;
        for k in [4, 10] {
            spilled.lof_range(MinPtsRange::single(k).unwrap(), Aggregate::Max).unwrap();
            peak = peak.max(spilled.stats().resident_bytes);
        }
        assert!(peak > 0 && peak <= budget as u64, "resident {peak} bytes");
        // A budget that holds one row and no more gets one-row segments.
        let tight = SpilledNeighborhoodTable::build(&scan, 10, 16 * 11 + 8, &spill_dir()).unwrap();
        assert!(tight.segments.iter().all(|seg| seg.rows == 1));
    }

    #[test]
    fn spill_file_is_removed_on_drop() {
        let data = mixture(120);
        let scan = LinearScan::new(&data, Euclidean);
        let spilled = SpilledNeighborhoodTable::build(&scan, 5, 1 << 20, &spill_dir()).unwrap();
        let path = spilled.path.clone();
        assert!(path.exists());
        drop(spilled);
        assert!(!path.exists());
    }

    #[test]
    fn depth_validation_matches_in_ram_errors() {
        let data = mixture(50);
        let scan = LinearScan::new(&data, Euclidean);
        let spilled = SpilledNeighborhoodTable::build(&scan, 5, 1 << 20, &spill_dir()).unwrap();
        assert!(matches!(
            spilled.lof_range(MinPtsRange::single(6).unwrap(), Aggregate::Min),
            Err(LofError::TableTooShallow { materialized: 5, requested: 6 })
        ));
        assert!(matches!(
            spilled.lof_range(MinPtsRange::new(2, 6).unwrap(), Aggregate::Max),
            Err(LofError::TableTooShallow { .. })
        ));
        assert!(matches!(
            SpilledNeighborhoodTable::build(
                &LinearScan::new(&Dataset::new(2), Euclidean),
                3,
                1,
                &spill_dir()
            ),
            Err(LofError::EmptyDataset)
        ));
    }

    #[test]
    fn ooc_scores_accessors() {
        let data = mixture(150);
        let scan = LinearScan::new(&data, Euclidean);
        let spilled = SpilledNeighborhoodTable::build(&scan, 6, 1 << 20, &spill_dir()).unwrap();
        let range = MinPtsRange::new(4, 6).unwrap();
        let ooc = spilled.lof_range(range, Aggregate::Max).unwrap();
        assert_eq!(ooc.range(), range);
        assert_eq!(ooc.aggregate(), Aggregate::Max);
        assert_eq!(ooc.score(0).unwrap(), ooc.scores()[0]);
        assert!(ooc.score(150).is_err());
        let ranking = ooc.ranking();
        assert_eq!(ranking.len(), 150);
        assert!(ranking.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}

//! Shared plumbing for the index implementations.

use lof_core::distance::BlockedForm;
use lof_core::{
    simd, Capture, Dataset, KernelStats, KnnScratch, LofError, Metric, Neighbor, Result,
};

/// Validates a `k_nearest(id, k)` query against dataset size `n`.
pub(crate) fn validate_knn(n: usize, id: usize, k: usize) -> Result<()> {
    if id >= n {
        return Err(LofError::UnknownObject { id, dataset_size: n });
    }
    if k == 0 || k >= n {
        return Err(LofError::InvalidMinPts { min_pts: k, dataset_size: n });
    }
    Ok(())
}

/// Validates a `within(id, radius)` query against dataset size `n`.
pub(crate) fn validate_within(n: usize, id: usize) -> Result<()> {
    if id >= n {
        return Err(LofError::UnknownObject { id, dataset_size: n });
    }
    Ok(())
}

pub(crate) use lof_core::widen_sq;

/// Appends the points `ids` to `cols` as one column-major tile of
/// [`simd::exact_sq_columns`]: `dims` columns of `ids.len()` lanes each,
/// zero-padded to a multiple of [`simd::COLUMN_ALIGN`].
fn push_columns(data: &Dataset, ids: &[usize], cols: &mut Vec<f64>) {
    let stride = ids.len().next_multiple_of(simd::COLUMN_ALIGN);
    let base = cols.len();
    cols.resize(base + data.dims() * stride, 0.0);
    for (j, &id) in ids.iter().enumerate() {
        for (c, &v) in data.point(id).iter().enumerate() {
            cols[base + c * stride + j] = v;
        }
    }
}

/// Every leaf's tile ([`push_columns`]) in one block: the transient copy
/// `materialize` builds so the tree joins read each candidate leaf in
/// place instead of gathering it once per group. It holds the dataset
/// plus lane padding and lives only as long as the `materialize` call:
/// the trees keep no second copy of the coordinates, so a
/// memory-mapped dataset stays out of RAM between calls.
pub(crate) struct LeafColumns {
    cols: Vec<f64>,
    /// Where each leaf node's tile starts in `cols`, by node index (0 for
    /// internal nodes).
    at: Vec<usize>,
}

impl LeafColumns {
    /// The tiles of `leaves`, each given as `(node index, members)`, of a
    /// tree with `nodes` nodes.
    pub(crate) fn build<'a>(
        data: &Dataset,
        nodes: usize,
        leaves: impl Iterator<Item = (usize, &'a [usize])>,
    ) -> Self {
        let mut block = LeafColumns { cols: Vec::new(), at: vec![0; nodes] };
        for (node, members) in leaves {
            block.at[node] = block.cols.len();
            push_columns(data, members, &mut block.cols);
        }
        block
    }
}

/// One query's distances to the members of a candidate leaf, as the tree
/// joins feed them to each query's [`Capture`]: exact squared Euclidean
/// under a squared form, from one lane-parallel
/// [`simd::exact_sq_columns`] call (the scalar reference's bits), and
/// `metric.distance` otherwise. A leaf's tile comes from the
/// [`LeafColumns`] block when there is one, else it is gathered into the
/// scratch once per group and leaf.
pub(crate) struct LeafTile<'s, M> {
    data: &'s Dataset,
    metric: &'s M,
    squared: bool,
    isa: simd::Isa,
    block: Option<&'s LeafColumns>,
    /// The gathered tile of leaf `staged` (no block only).
    cols: &'s mut Vec<f64>,
    staged: usize,
    dists: &'s mut Vec<f64>,
}

impl<'s, M: Metric> LeafTile<'s, M> {
    pub(crate) fn new(
        data: &'s Dataset,
        metric: &'s M,
        block: Option<&'s LeafColumns>,
        cols: &'s mut Vec<f64>,
        dists: &'s mut Vec<f64>,
    ) -> Self {
        let squared = metric.blocked_form() != BlockedForm::Generic;
        LeafTile {
            data,
            metric,
            squared,
            isa: simd::active(),
            block,
            cols,
            staged: usize::MAX,
            dists,
        }
    }

    /// Distances from `q` to `members`, the points of leaf `node`, in
    /// member order.
    pub(crate) fn distances(&mut self, node: usize, members: &[usize], q: &[f64]) -> &[f64] {
        if !self.squared {
            self.dists.clear();
            self.dists
                .extend(members.iter().map(|&id| self.metric.distance(q, self.data.point(id))));
            return self.dists;
        }
        let stride = members.len().next_multiple_of(simd::COLUMN_ALIGN);
        let cols: &[f64] = match self.block {
            Some(block) => &block.cols[block.at[node]..][..self.data.dims() * stride],
            None => {
                if self.staged != node {
                    self.cols.clear();
                    push_columns(self.data, members, self.cols);
                    self.staged = node;
                }
                self.cols
            }
        };
        self.dists.resize(stride, 0.0);
        simd::exact_sq_columns(self.isa, q, cols, &mut self.dists[..stride]);
        &self.dists[..members.len()]
    }
}

/// One leaf group's state while a tree join traverses for it: a
/// [`Capture`] per query, the loosest accept bound among them, and the
/// candidate leaf tile.
pub(crate) struct GroupWalk<'w, M> {
    /// The group's `(leaf, id)` pairs.
    group: &'w [(usize, usize)],
    captures: &'w mut [Capture],
    /// The loosest accept bound of the group; captures tighten only at
    /// leaves, so [`GroupWalk::capture_leaf`] refreshes it.
    pub(crate) bound: f64,
    tile: LeafTile<'w, M>,
    stats: &'w mut KernelStats,
}

impl<'w, M: Metric> GroupWalk<'w, M> {
    /// Resets the first `group.len()` captures of `scratch` for queries of
    /// `k` neighbors, reading candidate leaves from `block` when given.
    pub(crate) fn new(
        data: &'w Dataset,
        metric: &'w M,
        group: &'w [(usize, usize)],
        k: usize,
        block: Option<&'w LeafColumns>,
        scratch: &'w mut KnnScratch,
    ) -> Self {
        let KnnScratch { captures, leaf_cols, tile_sq, stats, .. } = scratch;
        stats.bump_join_groups(1);
        let captures = Capture::reset_first(captures, group.len(), k, 0.0);
        let tile = LeafTile::new(data, metric, block, leaf_cols, tile_sq);
        GroupWalk { group, captures, bound: f64::INFINITY, tile, stats }
    }

    /// Offers leaf `node`'s `members` to every query for which `near`
    /// (given the query's point and accept bound) says the leaf may hold
    /// a candidate.
    pub(crate) fn capture_leaf(
        &mut self,
        node: usize,
        members: &[usize],
        near: impl Fn(&[f64], f64) -> bool,
    ) {
        let data = self.tile.data;
        for (&(_, qid), capture) in self.group.iter().zip(self.captures.iter_mut()) {
            let q = data.point(qid);
            if near(q, capture.accept()) {
                let dists = self.tile.distances(node, members, q);
                capture.offer(dists, members.iter().copied(), qid, self.stats);
            }
        }
        self.bound = self.captures.iter().fold(0.0f64, |m, c| m.max(c.accept()));
    }

    /// Appends every query's neighborhood to `staged` in group order and
    /// its length to `glens` ([`Capture::neighborhood_into`]).
    pub(crate) fn finish(self, squared: bool, staged: &mut Vec<Neighbor>, glens: &mut Vec<usize>) {
        for capture in self.captures {
            glens.push(capture.neighborhood_into(squared, staged));
        }
    }
}

/// Most candidates, per unit of `k`, one batched k-distance gather
/// collects before it gives up and the batch falls back to per-id
/// descents. Selecting from `C` gathered candidates costs each id about
/// `C` exact distances, while a descent costs each id a roughly fixed
/// amount that grows with `k`, so the crossover is a candidate count
/// proportional to `k`, independent of the batch size. Measured on kd
/// leaf partitions of lattice clusters at d = 4 (10k and 100k points;
/// the per-batch gather and descent times, best of 5, bucketed by `C`),
/// the two cost the same near `C` = 29k at k = 10, 17k at k = 20 and
/// 20k at k = 40 (2-vCPU x86-64 VM, AVX2).
const GATHER_CAP_PER_K: usize = 20;

/// The kd and ball trees' `k_distances_into`: every id's k-distance,
/// bit-identical to the per-id descent `descent(id)`, from one candidate
/// gather for the whole batch.
///
/// `gather(lo, hi, cap, out)` collects the id of every point within the
/// promised `radius` of the box `[lo, hi]` (widened for rounding), or
/// returns false once more than `cap` ([`GATHER_CAP_PER_K`] · `k`)
/// qualify. The box spans the batch's points, so it holds the closed
/// ball at `radius` around each of them, and with it every k-ball the
/// promise covers, for any metric whose rectangle bound is a true lower
/// bound. Each id's k-distance is then
/// the k-th smallest of its exact distances to the other candidates,
/// computed as the descent computes them (squared Euclidean, with one
/// `sqrt` at the end under [`BlockedForm::Euclidean`]; the metric's
/// `distance` otherwise), so the bits match. Under a squared form the
/// candidates are scored as one lane-parallel tile
/// ([`simd::exact_sq_columns`], the scalar reference's bits).
///
/// An id is answered from the gather only when its k-th distance is
/// within `radius`: then every point at most that far lies within
/// `radius` of the box and was gathered, so no point outside the gather
/// can undercut it. Otherwise (a broken promise), and for single ids,
/// `radius = +∞` and gathers past the cap, `descent` answers; a gather
/// past the cap is counted in `scratch.stats.gather_overflows`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gathered_k_distances<M: lof_core::Metric>(
    data: &lof_core::Dataset,
    metric: &M,
    ids: &[usize],
    k: usize,
    radius: f64,
    scratch: &mut KnnScratch,
    out: &mut Vec<f64>,
    gather: impl Fn(&[f64], &[f64], usize, &mut Vec<usize>) -> bool,
    descent: impl Fn(usize, &mut KnnScratch) -> f64,
) -> Result<()> {
    for &id in ids {
        validate_knn(data.len(), id, k)?;
    }
    let start = out.len();
    let batched = ids.len() > 1 && radius.is_finite();
    let gathered = batched && {
        let KnnScratch { lo, hi, gather: cands, .. } = scratch;
        lo.clear();
        lo.extend_from_slice(data.point(ids[0]));
        hi.clone_from(lo);
        for &id in &ids[1..] {
            for (d, &v) in data.point(id).iter().enumerate() {
                lo[d] = lo[d].min(v);
                hi[d] = hi[d].max(v);
            }
        }
        cands.clear();
        gather(lo, hi, GATHER_CAP_PER_K * k, cands)
    };
    if batched && !gathered {
        scratch.stats.gather_overflows += 1;
    }
    if gathered {
        let KnnScratch { gather: cands, leaf_cols: cols, tile_sq: dists, .. } = scratch;
        let form = metric.blocked_form();
        let isa = simd::active();
        let count = cands.len();
        let stride = count.next_multiple_of(simd::COLUMN_ALIGN);
        if form != BlockedForm::Generic {
            cols.clear();
            push_columns(data, cands, cols);
        }
        dists.clear();
        dists.resize(stride, 0.0);
        for &id in ids {
            let q = data.point(id);
            if form == BlockedForm::Generic {
                for (d, &c) in dists.iter_mut().zip(cands.iter()) {
                    *d = metric.distance(q, data.point(c));
                }
            } else {
                simd::exact_sq_columns(isa, q, cols, dists);
            }
            let others = match cands.iter().position(|&c| c == id) {
                Some(own) => {
                    dists[own] = f64::INFINITY;
                    count - 1
                }
                None => count,
            };
            let answer = (others >= k).then(|| {
                let (_, &mut kth, _) = dists[..count].select_nth_unstable_by(k - 1, f64::total_cmp);
                if form == BlockedForm::Euclidean {
                    kth.sqrt()
                } else {
                    kth
                }
            });
            out.push(answer.filter(|&d| d <= radius).unwrap_or(f64::NAN));
        }
    } else {
        out.resize(start + ids.len(), f64::NAN);
    }
    for (slot, &id) in out[start..].iter_mut().zip(ids) {
        if slot.is_nan() {
            *slot = descent(id, scratch);
        }
    }
    Ok(())
}

/// Sorts the queries `ids` by `(containing leaf, id)` into `order`, so
/// ids sharing a leaf become one contiguous group, and records where each
/// group starts in `starts` (followed by `order.len()`).
fn leaf_groups(
    ids: std::ops::Range<usize>,
    leaf_of: &[usize],
    order: &mut Vec<(usize, usize)>,
    starts: &mut Vec<usize>,
) {
    order.clear();
    order.extend(ids.map(|id| (leaf_of[id], id)));
    order.sort_unstable();
    starts.clear();
    starts.extend((0..order.len()).filter(|&i| i == 0 || order[i].0 != order[i - 1].0));
    starts.push(order.len());
}

/// The group loop of every leaf-grouped join: answers each group that
/// `claims` yields (a group index with whatever the caller attached to
/// it), one tree traversal per group, and hands `emit` the attachment,
/// the group's `(leaf, id)` pairs, its neighborhoods (concatenated in
/// group order) and their lengths. For every `(leaf, id)` pair of its
/// group, **in the given order**, `join` must append the id's canonically
/// sorted neighborhood to the group buffer (3rd argument) and push the
/// neighborhood's length (4th argument).
fn run_groups<S, J>(
    order: &[(usize, usize)],
    starts: &[usize],
    claims: impl Iterator<Item = (usize, S)>,
    scratch: &mut KnnScratch,
    join: &J,
    mut emit: impl FnMut(S, &[(usize, usize)], &[Neighbor], &[usize]),
) where
    J: Fn(&[(usize, usize)], &mut KnnScratch, &mut Vec<Neighbor>, &mut Vec<usize>),
{
    // Take the group buffers out of the scratch so `join` can borrow the
    // rest of it (captures, tile buffers) without conflicts.
    let mut group_out = std::mem::take(&mut scratch.join_staged);
    let mut group_lens = std::mem::take(&mut scratch.join_lens);
    for (g, attached) in claims {
        let group = &order[starts[g]..starts[g + 1]];
        group_out.clear();
        group_lens.clear();
        join(group, scratch, &mut group_out, &mut group_lens);
        debug_assert_eq!(group_lens.len(), group.len(), "one neighborhood length per query");
        debug_assert_eq!(
            group_lens.iter().sum::<usize>(),
            group_out.len(),
            "lengths must cover the group buffer"
        );
        emit(attached, group, &group_out, &group_lens);
    }
    scratch.join_staged = group_out;
    scratch.join_lens = group_lens;
}

/// Drives a leaf-grouped batch self-join for a tree index over the id
/// range `ids`, on the calling thread.
///
/// Each leaf group goes through `join` exactly once (see [`run_groups`]) —
/// that is where the tree traverses once per group instead of once per
/// query. The driver writes each neighborhood straight into `out` in
/// ascending id order, the `batch_k_nearest` contract, without staging
/// the whole batch: `k < n` guarantees every neighborhood at least `k`
/// entries, so id `i` owns a fixed `k`-entry slot of `out`, and only the
/// tie overflow beyond the `k`-th entry is staged. One backward pass then
/// splices the overflow in (see [`splice_tie_overflow`]). A batch holds
/// each neighborhood once in `out`, never a second full copy in staging.
///
/// All staging lives in the caller's [`KnnScratch`], so a warmed-up
/// scratch makes the whole batch allocation-free.
#[allow(clippy::too_many_arguments)]
pub(crate) fn leaf_grouped_batch<J>(
    n: usize,
    ids: std::ops::Range<usize>,
    k: usize,
    leaf_of: &[usize],
    scratch: &mut KnnScratch,
    out: &mut Vec<Neighbor>,
    lens: &mut Vec<usize>,
    join: J,
) -> Result<()>
where
    J: Fn(&[(usize, usize)], &mut KnnScratch, &mut Vec<Neighbor>, &mut Vec<usize>),
{
    if ids.start >= ids.end {
        return Ok(());
    }
    validate_knn(n, ids.start, k)?;
    if ids.end > n {
        return Err(LofError::UnknownObject { id: n, dataset_size: n });
    }
    let base = ids.start;
    let count = ids.len();
    let mut order = std::mem::take(&mut scratch.join_order);
    let mut starts = std::mem::take(&mut scratch.join_starts);
    let mut spans = std::mem::take(&mut scratch.join_spans);
    let mut ties = std::mem::take(&mut scratch.join_ties);
    leaf_groups(ids, leaf_of, &mut order, &mut starts);
    spans.clear();
    spans.resize(count, (0, 0));
    ties.clear();

    let slots = out.len();
    out.resize(slots + count * k, Neighbor::new(0, 0.0));
    let claims = (0..starts.len() - 1).map(|g| (g, ()));
    run_groups(&order, &starts, claims, scratch, &join, |(), group, lists, group_lens| {
        let mut cursor = 0;
        for (&(_, qid), &len) in group.iter().zip(group_lens) {
            debug_assert!(len >= k, "k < n leaves every neighborhood at least k entries");
            let list = &lists[cursor..cursor + len];
            let slot = slots + (qid - base) * k;
            out[slot..slot + k].copy_from_slice(&list[..k]);
            spans[qid - base] = (ties.len(), len);
            ties.extend_from_slice(&list[k..]);
            cursor += len;
        }
    });
    lens.extend(spans.iter().map(|&(_, len)| len));
    splice_tie_overflow(out, slots, k, &spans, &ties);

    scratch.join_order = order;
    scratch.join_starts = starts;
    scratch.join_spans = spans;
    scratch.join_ties = ties;
    Ok(())
}

/// Step 1 over a whole tree (`KnnProvider::materialize` for the kd and
/// ball trees): the neighborhoods of ids `0..n` in id order, and their
/// lengths, from `threads` workers.
///
/// Workers claim whole leaf groups, in `(leaf, id)` order, off one shared
/// cursor, so every leaf forms exactly one group and pays one traversal
/// however many threads run. Cutting the ids into contiguous chunks would
/// instead cut, on shuffled ids, every leaf into one group per worker.
/// Claiming one group at a time also balances dense and sparse leaves,
/// whose traversals differ in cost, without sizing anything up front.
///
/// The output is written in place, as [`leaf_grouped_batch`] writes it:
/// each id owns a fixed `k`-entry slot, the slots are listed in
/// `(leaf, id)` order, and claiming a group hands its worker that
/// group's run of the list. Each worker stages only its tie overflow,
/// spliced in once all are done, so the neighborhoods are held once,
/// never a second full copy. With one worker (one thread, or a single
/// leaf) the calling thread does the work.
pub(crate) fn leaf_grouped_table<J>(
    n: usize,
    k: usize,
    threads: usize,
    leaf_of: &[usize],
    join: J,
) -> Result<(Vec<Neighbor>, Vec<usize>)>
where
    J: Fn(&[(usize, usize)], &mut KnnScratch, &mut Vec<Neighbor>, &mut Vec<usize>) + Sync,
{
    if n == 0 {
        return Ok((Vec::new(), Vec::new()));
    }
    validate_knn(n, 0, k)?;
    let (mut order, mut starts) = (Vec::new(), Vec::new());
    leaf_groups(0..n, leaf_of, &mut order, &mut starts);
    let groups = starts.len() - 1;
    let mut out = vec![Neighbor::new(0, 0.0); n * k];
    // Each id's `k`-entry slot, listed in `(leaf, id)` order so that the
    // slots of one group are one contiguous run a worker can claim.
    let mut slots: Vec<&mut [Neighbor]> = {
        let mut by_id: Vec<Option<&mut [Neighbor]>> = out.chunks_mut(k).map(Some).collect();
        order.iter().map(|&(_, id)| by_id[id].take().expect("each id once")).collect()
    };
    // The shared cursor: the next group to claim, and the slots of that
    // group and every later one.
    let cursor = std::sync::Mutex::new((0, slots.as_mut_slice()));
    let claim = || {
        let mut cursor = cursor.lock().expect("claim cursor poisoned");
        let g = cursor.0;
        if g == groups {
            return None;
        }
        let rest = std::mem::take(&mut cursor.1);
        let (group_slots, rest) = rest.split_at_mut(starts[g + 1] - starts[g]);
        *cursor = (g + 1, rest);
        Some((g, group_slots))
    };
    // A worker returns its tie overflow and, per overflowing query, its
    // id, overflow start and length.
    let work = || {
        let mut scratch = KnnScratch::new();
        let (mut ties, mut spans) = (Vec::new(), Vec::new());
        let emit = |group_slots: &mut [&mut [Neighbor]],
                    group: &[(usize, usize)],
                    lists: &[Neighbor],
                    lens: &[usize]| {
            let mut at = 0;
            for ((slot, &(_, id)), &len) in group_slots.iter_mut().zip(group).zip(lens) {
                slot.copy_from_slice(&lists[at..at + k]);
                if len > k {
                    spans.push((id, ties.len(), len));
                    ties.extend_from_slice(&lists[at + k..at + len]);
                }
                at += len;
            }
        };
        run_groups(&order, &starts, std::iter::from_fn(claim), &mut scratch, &join, emit);
        // Flush this worker's kernel counters before its scratch dies.
        scratch.stats.publish_and_reset();
        (ties, spans)
    };
    let parts = match threads.min(groups) {
        0 | 1 => vec![work()],
        workers => std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("materialization worker panicked"))
                .collect()
        }),
    };
    drop(slots);

    let mut spans = vec![(0, k); n];
    let mut ties = Vec::new();
    for (part_ties, part_spans) in parts {
        for (id, start, len) in part_spans {
            spans[id] = (ties.len() + start, len);
        }
        ties.extend_from_slice(&part_ties);
    }
    splice_tie_overflow(&mut out, 0, k, &spans, &ties);
    Ok((out, spans.into_iter().map(|(_, len)| len).collect()))
}

/// Moves fixed-stride neighborhood slots into their packed positions.
///
/// `out[slots..]` holds one `k`-entry slot per query, in id order;
/// `spans[j] = (start, len)` locates query `j`'s `len - k` overflow
/// entries in `ties`. Query `j` moves up by the overflow of every query
/// before it, so walking from the last query down never overwrites a slot
/// still to be read, and the walk stops as soon as no query at or below
/// the current one overflowed (at once on tie-free data).
fn splice_tie_overflow(
    out: &mut Vec<Neighbor>,
    slots: usize,
    k: usize,
    spans: &[(usize, usize)],
    ties: &[Neighbor],
) {
    let mut end = out.len() + ties.len();
    out.resize(end, Neighbor::new(0, 0.0));
    for (j, &(start, len)) in spans.iter().enumerate().rev() {
        let slot = slots + j * k;
        if end == slot + k {
            break;
        }
        let extra = len - k;
        end -= extra;
        out[end..end + extra].copy_from_slice(&ties[start..start + extra]);
        end -= k;
        out.copy_within(slot..slot + k, end);
    }
}

/// How many times the median leaf hull diameter a partition may span
/// before [`leaf_partitions`] bisects it.
const SPRAWL_FACTOR: f64 = 4.0;

/// Builds top-n [`lof_core::Partition`]s from a tree's leaves (each given
/// as its member id slice): members sorted ascending (the engine's cover
/// contract), tight bounding boxes and exact intra-partition rank
/// profiles recomputed from coordinates. Leaves are `LEAF_SIZE`-bounded,
/// so the per-partition all-pairs profile pass stays cheap.
///
/// **Sprawl splitting:** a leaf that captures an isolated outlier
/// together with its nearest cluster spans a hull orders of magnitude
/// larger than its siblings'. Such a box passes near everything along
/// its extent, so every partition it is "reachable" from inherits its
/// huge reachability envelope — one sprawling leaf can poison the bounds
/// of the whole cover and disable pruning outright. The engine is exact
/// for *any* cover, so every leaf whose hull diameter exceeds
/// [`SPRAWL_FACTOR`]× the median leaf diameter is bisected
/// ([`bisect_sprawl`]) until each piece is within that threshold or a
/// single point: the outlier ends up alone, while the cluster members
/// beside it stay one tight partition instead of a run of singletons,
/// each of which would cost every later pass as much as a whole leaf.
/// The reference is the median rather than a high percentile because
/// once more than a tenth of the leaves hold an outlier, a 90th
/// percentile is itself a sprawling diameter and the split switches off.
///
/// **Isolation radii:** tree splits land on coordinate values shared by
/// points on both sides, so sibling leaf boxes routinely abut (rectangle
/// distance 0) even when the closest cross-leaf point pair sits a full
/// neighbor-spacing apart. The envelope pass can only see geometry, so
/// after the cover is final each partition gets the exact minimum
/// member-to-non-member distance ([`lof_core::Partition::isolation`])
/// from [`lof_core::set_isolation_radii`]; this crate only supplies the
/// leaves.
///
/// Timed by the `index.partitions` span, split into
/// `index.partitions.sprawl` (leaf boxes and bisection),
/// `index.partitions.profiles` and `index.partitions.isolation`; the
/// counters are listed at [`publish_partition_counts`].
pub(crate) fn leaf_partitions<'a, M: lof_core::Metric>(
    data: &lof_core::Dataset,
    metric: &M,
    leaves: impl Iterator<Item = &'a [usize]>,
) -> Vec<lof_core::Partition> {
    let _span = lof_obs::span!("index.partitions");

    let sprawl_span = lof_obs::span!("index.partitions.sprawl");
    let leaves: Vec<Vec<usize>> = leaves
        .map(|leaf| {
            let mut members = leaf.to_vec();
            members.sort_unstable();
            members
        })
        .collect();
    let diameters: Vec<f64> = leaves.iter().map(|m| hull_diameter(data, metric, m)).collect();
    let threshold = sprawl_threshold(&diameters);
    let mut covers = Vec::with_capacity(leaves.len());
    let (mut sprawl_leaves, mut pieces) = (0u64, 0u64);
    for (members, d) in leaves.into_iter().zip(diameters) {
        if threshold > 0.0 && members.len() > 1 && d.is_finite() && d > threshold {
            let before = covers.len();
            bisect_sprawl(data, metric, members, threshold, &mut covers);
            sprawl_leaves += 1;
            pieces += (covers.len() - before) as u64;
        } else {
            covers.push(members);
        }
    }
    drop(sprawl_span);

    let profiles_span = lof_obs::span!("index.partitions.profiles");
    let mut parts: Vec<lof_core::Partition> = covers
        .into_iter()
        .map(|members| {
            lof_core::Partition::from_member_points(metric, members, |id| data.point(id))
        })
        .collect();
    drop(profiles_span);

    let isolation_span = lof_obs::span!("index.partitions.isolation");
    let isolation = lof_core::set_isolation_radii(metric, &mut parts, |id| data.point(id));
    drop(isolation_span);
    if lof_obs::enabled() {
        publish_partition_counts(lof_obs::global(), sprawl_leaves, pieces, isolation);
    }
    parts
}

/// Adds one cover's work to `registry`'s counters:
/// `index.partitions.sprawl_leaves` and `index.partitions.pieces` (the
/// leaves bisected and the pieces they became),
/// `index.partitions.isolation_pairs` (distinct partition pairs verified
/// point by point) and `index.partitions.isolation_evals` (the point
/// distances that took).
fn publish_partition_counts(
    registry: &lof_obs::MetricsRegistry,
    sprawl_leaves: u64,
    pieces: u64,
    isolation: lof_core::IsolationWork,
) {
    for (name, value) in [
        ("index.partitions.sprawl_leaves", sprawl_leaves),
        ("index.partitions.pieces", pieces),
        ("index.partitions.isolation_pairs", isolation.pairs),
        ("index.partitions.isolation_evals", isolation.evals),
    ] {
        registry.counter(name).add(value);
    }
}

/// Tight bounding box of the members' points, in one pass.
fn bounding_box(data: &lof_core::Dataset, members: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let mut lo = vec![f64::INFINITY; data.dims()];
    let mut hi = vec![f64::NEG_INFINITY; data.dims()];
    for &id in members {
        for ((l, h), &x) in lo.iter_mut().zip(&mut hi).zip(data.point(id)) {
            *l = l.min(x);
            *h = h.max(x);
        }
    }
    (lo, hi)
}

/// Diameter of the members' bounding box under `metric` (`+inf` for
/// metrics without rectangle geometry).
fn hull_diameter<M: lof_core::Metric>(
    data: &lof_core::Dataset,
    metric: &M,
    members: &[usize],
) -> f64 {
    let (lo, hi) = bounding_box(data, members);
    metric.max_dist_between_rects(&lo, &hi, &lo, &hi)
}

/// The diameter above which a leaf sprawls: [`SPRAWL_FACTOR`]× the
/// median finite leaf diameter. `0.0` — no splitting — for a blind
/// metric (every diameter infinite) or degenerate point-pile leaves,
/// which leave no meaningful scale to judge sprawl against.
fn sprawl_threshold(diameters: &[f64]) -> f64 {
    let mut finite: Vec<f64> = diameters.iter().copied().filter(|d| d.is_finite()).collect();
    if finite.is_empty() {
        return 0.0;
    }
    let mid = (finite.len() - 1) / 2;
    let (_, median, _) = finite.select_nth_unstable_by(mid, f64::total_cmp);
    SPRAWL_FACTOR * *median
}

/// Splits the ascending `members` of a sprawling leaf into pieces whose
/// hull diameter is at most `threshold` (or that hold one point), and
/// appends them to `out` left to right. Each step cuts a piece at the
/// midpoint of its box's widest side; the cut is a stable partition, so
/// every piece stays ascending.
fn bisect_sprawl<M: lof_core::Metric>(
    data: &lof_core::Dataset,
    metric: &M,
    members: Vec<usize>,
    threshold: f64,
    out: &mut Vec<Vec<usize>>,
) {
    let mut stack = vec![members];
    while let Some(piece) = stack.pop() {
        let (lo, hi) = bounding_box(data, &piece);
        let sprawls =
            piece.len() > 1 && metric.max_dist_between_rects(&lo, &hi, &lo, &hi) > threshold;
        let widest = (0..lo.len())
            .max_by(|&a, &b| (hi[a] - lo[a]).total_cmp(&(hi[b] - lo[b])))
            .filter(|&d| sprawls && hi[d] > lo[d]);
        let Some(dim) = widest else {
            out.push(piece);
            continue;
        };
        // Both sides must be non-empty: `x <= mid` keeps the `lo` end on
        // the left and the `hi` end on the right whenever
        // `lo <= mid < hi`; should rounding break that, cut at `lo`.
        let mut mid = 0.5 * lo[dim] + 0.5 * hi[dim];
        if mid < lo[dim] || mid >= hi[dim] {
            mid = lo[dim];
        }
        let (left, right): (Vec<usize>, Vec<usize>) =
            piece.into_iter().partition(|&id| data.point(id)[dim] <= mid);
        stack.push(right);
        stack.push(left);
    }
}

/// Implements [`lof_core::KnnProvider`] for an index type exposing the
/// internal two-phase search API:
///
/// * `fn search_k_distance(&self, q, k, exclude, scratch) -> f64` — exact
///   `k`-distance among candidates (excluding `exclude`), using the scratch
///   buffers for all transient search state. Only the returned value is
///   meaningful: the kd and ball descents skip candidates tied with a full
///   heap's bound, so the ids the scratch heap holds afterwards need not
///   be the canonical `k` smallest;
/// * `fn search_within_into(&self, q, radius, exclude, scratch, out)` —
///   appends all candidates within `radius` (inclusive) to `out`, in any
///   order (the macro sorts the appended tail canonically);
/// * `fn size(&self) -> usize`.
///
/// Tie-inclusion (definition 4) falls out of running the range phase at the
/// exact `k`-distance. The plain form's `k_distances_into` is the first
/// phase on its own, per id, so its value is the last distance
/// `k_nearest_into` returns and `within(id, k-distance)` is the same
/// neighborhood. Because
/// both phases draw every buffer from the caller's
/// [`lof_core::KnnScratch`], the generated `k_nearest_into` is
/// allocation-free once the scratch is warm; `within` borrows the calling
/// thread's shared scratch, as the trait's default `k_nearest` does.
///
/// The `($ty, self_join)` form additionally overrides the trait's
/// `batch_k_nearest` and `materialize` with the leaf-grouped join: the
/// index's inherent `join_group(group, k, block, scratch, staged, lens)`
/// answers one leaf group, reading candidate leaves from the
/// [`LeafColumns`] `block` when given; `leaf_nodes()` lists the leaves as
/// `(node, members)`, `node_count()` counts the nodes, and `leaf_of` maps
/// each id to its leaf. Its
/// `k_distances_into` answers a batch from one candidate gather: the
/// index's inherent `gather_near_box(lo, hi, radius, cap, out)` collects
/// every point within `radius` of a box, or gives up past `cap`
/// ([`gathered_k_distances`]).
/// `batch_k_nearest` runs the groups of an id range on the calling thread
/// ([`leaf_grouped_batch`]); `materialize` lets its workers claim whole
/// groups ([`leaf_grouped_table`]).
macro_rules! impl_knn_provider {
    ($ty:ident) => {
        crate::common::impl_knn_provider!(
            @impl $ty,
            /// The first phase of `k_nearest_into` alone, per id: its
            /// range pass and sort are skipped, and the radius it would
            /// run at is returned. `radius` is not needed.
            fn k_distances_into(
                &self,
                ids: &[usize],
                k: usize,
                _radius: f64,
                scratch: &mut lof_core::KnnScratch,
                out: &mut Vec<f64>,
            ) -> lof_core::Result<()> {
                for &id in ids {
                    crate::common::validate_knn(self.size(), id, k)?;
                    out.push(self.search_k_distance(self.data.point(id), k, Some(id), scratch));
                }
                Ok(())
            }
        );
    };
    ($ty:ident, self_join) => {
        crate::common::impl_knn_provider!(
            @impl $ty,
            /// Leaf-grouped batch self-join: queries sharing a leaf are
            /// answered by a single traversal with shared node pruning and
            /// blocked candidate evaluation. Bit-identical to the default
            /// per-id loop (property-tested in `tests/batch_consistency.rs`).
            fn batch_k_nearest(
                &self,
                ids: std::ops::Range<usize>,
                k: usize,
                scratch: &mut lof_core::KnnScratch,
                out: &mut Vec<lof_core::Neighbor>,
                lens: &mut Vec<usize>,
            ) -> lof_core::Result<()> {
                crate::common::leaf_grouped_batch(
                    self.size(),
                    ids,
                    k,
                    &self.leaf_of,
                    scratch,
                    out,
                    lens,
                    |group, scratch, staged, glens| {
                        self.join_group(group, k, None, scratch, staged, glens)
                    },
                )
            },
            /// Step 1 by leaf group: workers claim whole leaf groups, so
            /// each leaf pays one traversal at any thread count. Under a
            /// squared form they read candidate leaves from one
            /// column-major copy of the dataset in leaf order, built for
            /// the call and freed when it returns.
            fn materialize(
                &self,
                k: usize,
                threads: usize,
            ) -> lof_core::Result<(Vec<lof_core::Neighbor>, Vec<usize>)>
            where
                Self: Sync,
            {
                let squared =
                    self.metric.blocked_form() != lof_core::distance::BlockedForm::Generic;
                let block = squared.then(|| {
                    crate::common::LeafColumns::build(
                        self.data,
                        self.node_count(),
                        self.leaf_nodes(),
                    )
                });
                crate::common::leaf_grouped_table(
                    self.size(),
                    k,
                    threads,
                    &self.leaf_of,
                    |group, scratch, staged, glens| {
                        self.join_group(group, k, block.as_ref(), scratch, staged, glens)
                    },
                )
            },
            /// A batch with a finite `radius` is answered from one gather
            /// around the ids' bounding box ([`gathered_k_distances`]);
            /// single ids and `radius = +∞` run the per-id descent.
            fn k_distances_into(
                &self,
                ids: &[usize],
                k: usize,
                radius: f64,
                scratch: &mut lof_core::KnnScratch,
                out: &mut Vec<f64>,
            ) -> lof_core::Result<()> {
                crate::common::gathered_k_distances(
                    self.data,
                    &self.metric,
                    ids,
                    k,
                    radius,
                    scratch,
                    out,
                    |lo, hi, cap, cands| self.gather_near_box(lo, hi, radius, cap, cands),
                    |id, scratch| self.search_k_distance(self.data.point(id), k, Some(id), scratch),
                )
            }
        );
    };
    (@impl $ty:ident, $($join:item),*) => {
        impl<M: lof_core::Metric> lof_core::KnnProvider for $ty<'_, M> {
            $($join)*

            fn len(&self) -> usize {
                self.size()
            }

            fn k_nearest_into(
                &self,
                id: usize,
                k: usize,
                scratch: &mut lof_core::KnnScratch,
                out: &mut Vec<lof_core::Neighbor>,
            ) -> lof_core::Result<usize> {
                crate::common::validate_knn(self.size(), id, k)?;
                let q = self.data.point(id);
                let k_distance = self.search_k_distance(q, k, Some(id), scratch);
                let start = out.len();
                self.search_within_into(q, k_distance, Some(id), scratch, out);
                lof_core::neighbors::sort_neighbors(&mut out[start..]);
                Ok(out.len() - start)
            }

            fn within(&self, id: usize, radius: f64) -> lof_core::Result<Vec<lof_core::Neighbor>> {
                crate::common::validate_within(self.size(), id)?;
                lof_core::with_thread_scratch(|scratch| {
                    let mut out = Vec::new();
                    self.search_within_into(
                        self.data.point(id),
                        radius,
                        Some(id),
                        scratch,
                        &mut out,
                    );
                    lof_core::neighbors::sort_neighbors(&mut out);
                    Ok(out)
                })
            }
        }

        impl<M: lof_core::Metric> $ty<'_, M> {
            /// Tie-inclusive k-nearest neighbors of an arbitrary query point
            /// (which need not be part of the dataset; no object is
            /// excluded).
            ///
            /// # Errors
            ///
            /// Returns [`lof_core::LofError::InvalidMinPts`] when `k == 0`
            /// or `k > len()`, and [`lof_core::LofError::DimensionMismatch`]
            /// for queries of the wrong dimensionality.
            pub fn k_nearest_point(
                &self,
                q: &[f64],
                k: usize,
            ) -> lof_core::Result<Vec<lof_core::Neighbor>> {
                if q.len() != self.data.dims() {
                    return Err(lof_core::LofError::DimensionMismatch {
                        expected: self.data.dims(),
                        found: q.len(),
                    });
                }
                if k == 0 || k > self.size() {
                    return Err(lof_core::LofError::InvalidMinPts {
                        min_pts: k,
                        dataset_size: self.size(),
                    });
                }
                lof_core::with_thread_scratch(|scratch| {
                    let k_distance = self.search_k_distance(q, k, None, scratch);
                    let mut out = Vec::new();
                    self.search_within_into(q, k_distance, None, scratch, &mut out);
                    lof_core::neighbors::sort_neighbors(&mut out);
                    Ok(out)
                })
            }

            /// All objects within `radius` (inclusive) of an arbitrary query
            /// point, sorted canonically.
            ///
            /// # Errors
            ///
            /// Returns [`lof_core::LofError::DimensionMismatch`] for queries
            /// of the wrong dimensionality.
            pub fn within_point(
                &self,
                q: &[f64],
                radius: f64,
            ) -> lof_core::Result<Vec<lof_core::Neighbor>> {
                if q.len() != self.data.dims() {
                    return Err(lof_core::LofError::DimensionMismatch {
                        expected: self.data.dims(),
                        found: q.len(),
                    });
                }
                lof_core::with_thread_scratch(|scratch| {
                    let mut out = Vec::new();
                    self.search_within_into(q, radius, None, scratch, &mut out);
                    lof_core::neighbors::sort_neighbors(&mut out);
                    Ok(out)
                })
            }
        }
    };
}

pub(crate) use impl_knn_provider;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BallTree, KdTree};
    use lof_core::{Dataset, Euclidean, Metric, Partition, PartitionSource};

    /// Ids `0..LATTICE` are three unit-spacing 5×5×5 lattices far apart,
    /// `CLUSTER` ids each; `OUTLIERS` scattered points follow.
    const CLUSTER: usize = 125;
    const LATTICE: usize = 3 * CLUSTER;
    const OUTLIERS: usize = 24;

    fn lattice_with_outliers() -> Dataset {
        let mut data = Dataset::new(3);
        for center in [[0.0, 0.0, 0.0], [300.0, 40.0, 10.0], [-50.0, 250.0, 400.0]] {
            for i in 0..CLUSTER {
                let offset = [i % 5, i / 5 % 5, i / 25].map(|c| c as f64);
                data.push(&[center[0] + offset[0], center[1] + offset[1], center[2] + offset[2]])
                    .unwrap();
            }
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 600.0 - 150.0
        };
        for _ in 0..OUTLIERS {
            data.push(&[next(), next(), next()]).unwrap();
        }
        data
    }

    /// The lattice a point belongs to, `None` for an outlier.
    fn cluster_of(id: usize) -> Option<usize> {
        (id < LATTICE).then_some(id / CLUSTER)
    }

    /// Checks the cover a tree's `partitions()` built from its leaves:
    /// exact, disjoint and ascending; every multi-member piece within
    /// the sprawl threshold; profiles exactly those of its members; and
    /// the lattice points of one cluster that share a leaf share a piece.
    /// The trees' median splits cut some leaves across two clusters, so the last
    /// check is the form of "no lattice point ends up a singleton" that
    /// holds for any tree: a lattice point is alone only when its leaf
    /// holds no other point of its cluster.
    fn check_cover<'a>(
        data: &Dataset,
        label: &str,
        leaves: impl Iterator<Item = &'a [usize]>,
        parts: &[Partition],
    ) {
        let leaves: Vec<&[usize]> = leaves.collect();
        let diameters: Vec<f64> =
            leaves.iter().map(|m| hull_diameter(data, &Euclidean, m)).collect();
        let threshold = sprawl_threshold(&diameters);
        assert!(
            diameters.iter().any(|&d| d > threshold),
            "{label}: the fixture must hold sprawling leaves"
        );
        let mut piece_of = vec![None; data.len()];
        for (i, p) in parts.iter().enumerate() {
            assert!(p.members.windows(2).all(|w| w[0] < w[1]), "{label}: piece {i} not ascending");
            for &id in &p.members {
                assert!(piece_of[id].replace(i).is_none(), "{label}: id {id} in two pieces");
            }
            if p.members.len() > 1 {
                let d = Euclidean.max_dist_between_rects(&p.lo, &p.hi, &p.lo, &p.hi);
                assert!(d <= threshold, "{label}: piece {i} spans {d} > {threshold}");
            }
            let want =
                Partition::from_member_points(&Euclidean, p.members.clone(), |id| data.point(id));
            assert_eq!(Partition { isolation: 0.0, ..p.clone() }, want, "{label}: piece {i}");
        }
        assert!(piece_of.iter().all(Option::is_some), "{label}: the cover misses ids");
        assert!(parts.len() > leaves.len(), "{label}: no leaf was bisected");
        for leaf in leaves {
            for &a in leaf {
                for &b in leaf {
                    if cluster_of(a).is_some() && cluster_of(a) == cluster_of(b) {
                        assert_eq!(
                            piece_of[a], piece_of[b],
                            "{label}: lattice points {a} and {b} share a leaf but not a piece"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sprawl_bisection_keeps_an_exact_tight_cover() {
        let data = lattice_with_outliers();
        let kd = KdTree::new(&data, Euclidean);
        check_cover(&data, "kdtree", kd.leaf_members(), &kd.partitions());
        let ball = BallTree::new(&data, Euclidean);
        check_cover(&data, "balltree", ball.leaf_members(), &ball.partitions());
    }

    #[test]
    fn partitions_record_their_spans_and_sprawl_counters() {
        let registry = lof_obs::global();
        let calls = registry.histogram("index.partitions").count();
        let leaves_before = registry.counter("index.partitions.sprawl_leaves").value();
        let pieces_before = registry.counter("index.partitions.pieces").value();
        let data = lattice_with_outliers();
        let kd = KdTree::new(&data, Euclidean);
        let leaves: Vec<&[usize]> = kd.leaf_members().collect();
        let parts = kd.partitions();
        if !lof_obs::enabled() {
            return;
        }
        let diameters: Vec<f64> =
            leaves.iter().map(|m| hull_diameter(&data, &Euclidean, m)).collect();
        let threshold = sprawl_threshold(&diameters);
        let sprawling = diameters.iter().filter(|&&d| d > threshold).count();
        // Other tests in this binary may build covers concurrently, so
        // the global counters can only be bounded from below.
        let bisected = registry.counter("index.partitions.sprawl_leaves").value() - leaves_before;
        let pieces = registry.counter("index.partitions.pieces").value() - pieces_before;
        assert!(bisected >= sprawling as u64, "{bisected} < {sprawling}");
        assert!(pieces >= (parts.len() - (leaves.len() - sprawling)) as u64);
        let mut again = parts.clone();
        let work = lof_core::set_isolation_radii(&Euclidean, &mut again, |id| data.point(id));
        assert!(work.pairs > 0 && work.evals >= work.pairs);
        assert!(registry.counter("index.partitions.isolation_pairs").value() >= work.pairs);
        assert!(registry.counter("index.partitions.isolation_evals").value() >= work.evals);
        for span in ["", ".sprawl", ".profiles", ".isolation"] {
            let name = format!("index.partitions{span}");
            assert!(registry.histogram(&name).count() > calls, "{name} not recorded");
        }
    }

    #[test]
    fn isolation_counters_count_each_pair_once() {
        // Three runs on a line, at 0..=2, 10..=11 and 30..=33. A's query
        // verifies B and stops (C's box is farther than the pair found);
        // B's query reuses that pair and stops; C's verifies B. Two
        // distinct pairs, 3·2 + 2·4 point distances.
        let xs = [0.0, 1.0, 2.0, 10.0, 11.0, 30.0, 31.0, 32.0, 33.0];
        let rows: Vec<[f64; 1]> = xs.iter().map(|&x| [x]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let mut parts: Vec<Partition> = [vec![0, 1, 2], vec![3, 4], vec![5, 6, 7, 8]]
            .into_iter()
            .map(|m| Partition::from_member_points(&Euclidean, m, |id| data.point(id)))
            .collect();
        let work = lof_core::set_isolation_radii(&Euclidean, &mut parts, |id| data.point(id));
        assert_eq!(work, lof_core::IsolationWork { pairs: 2, evals: 14 });
        let radii: Vec<f64> = parts.iter().map(|p| p.isolation).collect();
        assert_eq!(radii, [8.0, 8.0, 19.0]);

        if !lof_obs::enabled() {
            return;
        }
        let registry = lof_obs::MetricsRegistry::new();
        publish_partition_counts(&registry, 1, 3, work);
        publish_partition_counts(&registry, 0, 0, work);
        let read = |name: &str| registry.counter(&format!("index.partitions.{name}")).value();
        assert_eq!(
            [
                read("sprawl_leaves"),
                read("pieces"),
                read("isolation_pairs"),
                read("isolation_evals")
            ],
            [1, 3, 4, 28]
        );
    }

    #[test]
    fn bisection_stops_at_single_points_and_keeps_order() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [100.0, 0.0], [1.0, 0.0], [50.0, 3.0]];
        let data = Dataset::from_rows(&rows).unwrap();
        let mut out = Vec::new();
        bisect_sprawl(&data, &Euclidean, vec![0, 1, 2, 3], 2.0, &mut out);
        assert_eq!(out, vec![vec![0, 2], vec![3], vec![1]]);
    }
}

//! Spatial shard layout for the sharded incremental engine.
//!
//! The sharded streaming window partitions one logical dataset across N
//! worker shards by spatial structure — the same bounding-box pruning
//! idea the top-n engine's micro-partitions use
//! ([`crate::topn::Partition`]), rebuilt here around *mutable*
//! membership: points arrive into the nearest shard box, leave by
//! swap-remove, and the whole layout is re-split (kd-style, widest
//! dimension at the proportional rank) after enough churn.
//!
//! Two per-shard statistics drive all pruning, both conservative under
//! staleness:
//!
//! - the **bounding box** only grows between rebalances, so
//!   [`Metric::min_dist_to_rect`] stays a lower bound on the distance
//!   from a query to every member;
//! - the **k-distance envelope** ([`KdistEnvelope`]) only ratchets up,
//!   so `env.excludes(min_dist)` proves no member's maintained neighbor
//!   list can absorb a point at that distance — the shard is provably
//!   outside the event's reverse-k-NN repair set.
//!
//! Neither statistic affects *values*: pruning only ever skips shards
//! whose members are strictly beyond every decision threshold, so scores
//! are bit-identical at any shard count (property-tested in
//! `crates/stream/tests/shards.rs`).

use crate::bounds::KdistEnvelope;
use crate::distance::Metric;
use crate::point::Dataset;

/// Rebalance at least this many events apart, even for tiny windows.
const MIN_REBALANCE_OPS: usize = 64;

/// One shard's bounding box, grown on assignment and recomputed exactly
/// at rebalance.
#[derive(Debug, Clone)]
struct ShardBox {
    lo: Vec<f64>,
    hi: Vec<f64>,
    init: bool,
}

impl ShardBox {
    fn empty(dims: usize) -> Self {
        ShardBox { lo: vec![0.0; dims], hi: vec![0.0; dims], init: false }
    }

    fn grow(&mut self, p: &[f64]) {
        if !self.init {
            self.lo.copy_from_slice(p);
            self.hi.copy_from_slice(p);
            self.init = true;
            return;
        }
        for ((lo, hi), &v) in self.lo.iter_mut().zip(self.hi.iter_mut()).zip(p) {
            if v < *lo {
                *lo = v;
            }
            if v > *hi {
                *hi = v;
            }
        }
    }

    fn min_dist<M: Metric>(&self, metric: &M, q: &[f64]) -> f64 {
        if self.init {
            metric.min_dist_to_rect(q, &self.lo, &self.hi)
        } else {
            f64::INFINITY
        }
    }
}

/// The mutable shard assignment of a dataset: member lists, bounding
/// boxes and k-distance envelopes per shard, with swap-remove-aware
/// bookkeeping mirroring [`crate::incremental::IncrementalLof`]'s id
/// relocation.
#[derive(Debug, Clone)]
pub(crate) struct ShardLayout {
    threads: usize,
    /// Point id -> owning shard.
    assign: Vec<u32>,
    /// Point id -> index within its shard's member list.
    pos: Vec<u32>,
    /// Shard -> member ids (unordered; positions tracked via `pos`).
    members: Vec<Vec<u32>>,
    boxes: Vec<ShardBox>,
    envs: Vec<KdistEnvelope>,
    /// Inserts + removes since the last rebalance.
    ops: usize,
    rebalance_every: usize,
}

impl ShardLayout {
    /// Builds a layout over `data` with `cutoff(id)` yielding each
    /// point's maintained neighbor-list cutoff (for the envelopes).
    pub(crate) fn build(
        data: &Dataset,
        cutoff: impl Fn(usize) -> f64,
        shards: usize,
        threads: usize,
    ) -> ShardLayout {
        let shards = shards.max(1);
        let mut layout = ShardLayout {
            threads: threads.clamp(1, shards),
            assign: Vec::new(),
            pos: Vec::new(),
            members: vec![Vec::new(); shards],
            boxes: (0..shards).map(|_| ShardBox::empty(data.dims())).collect(),
            envs: vec![KdistEnvelope::EMPTY; shards],
            ops: 0,
            rebalance_every: MIN_REBALANCE_OPS,
        };
        layout.rebalance(data, &cutoff);
        layout
    }

    /// Re-splits every point kd-style and recomputes boxes and envelopes
    /// exactly. Deterministic in the current dataset state.
    pub(crate) fn rebalance(&mut self, data: &Dataset, cutoff: &impl Fn(usize) -> f64) {
        let n = data.len();
        let shards = self.members.len();
        self.assign.clear();
        self.assign.resize(n, 0);
        self.pos.clear();
        self.pos.resize(n, 0);
        for m in &mut self.members {
            m.clear();
        }
        for b in &mut self.boxes {
            b.init = false;
        }
        for e in &mut self.envs {
            *e = KdistEnvelope::EMPTY;
        }
        let mut ids: Vec<u32> = (0..n as u32).collect();
        kd_split(data, &mut ids, shards, 0, &mut self.assign);
        for id in 0..n {
            let s = self.assign[id] as usize;
            self.pos[id] = self.members[s].len() as u32;
            self.members[s].push(id as u32);
            self.boxes[s].grow(data.point(id));
            self.envs[s].ratchet(cutoff(id));
        }
        self.ops = 0;
        self.rebalance_every = n.max(MIN_REBALANCE_OPS);
    }

    /// True when enough churn has accumulated that boxes and envelopes
    /// should be recomputed exactly.
    pub(crate) fn needs_rebalance(&self) -> bool {
        self.ops >= self.rebalance_every
    }

    pub(crate) fn shards(&self) -> usize {
        self.members.len()
    }

    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    pub(crate) fn shard_of(&self, id: usize) -> usize {
        self.assign[id] as usize
    }

    pub(crate) fn members(&self, shard: usize) -> &[u32] {
        &self.members[shard]
    }

    pub(crate) fn env(&self, shard: usize) -> KdistEnvelope {
        self.envs[shard]
    }

    pub(crate) fn ratchet_env(&mut self, shard: usize, cutoff: f64) {
        self.envs[shard].ratchet(cutoff);
    }

    /// Lower bound on the distance from `q` to any member of `shard`
    /// (`+∞` for empty shards).
    pub(crate) fn min_dist<M: Metric>(&self, metric: &M, q: &[f64], shard: usize) -> f64 {
        self.boxes[shard].min_dist(metric, q)
    }

    /// Assigns the next point id (must equal the current point count) to
    /// the shard whose box is nearest to `q` (ties to the lower index),
    /// growing that box to cover it. Returns the home shard.
    pub(crate) fn assign_new<M: Metric>(&mut self, metric: &M, q: &[f64]) -> usize {
        let mut best = 0;
        let mut best_dist = f64::INFINITY;
        for s in 0..self.members.len() {
            let d = self.boxes[s].min_dist(metric, q);
            if d < best_dist {
                best = s;
                best_dist = d;
            }
        }
        let id = self.assign.len();
        self.assign.push(best as u32);
        self.pos.push(self.members[best].len() as u32);
        self.members[best].push(id as u32);
        self.boxes[best].grow(q);
        self.ops += 1;
        best
    }

    /// Mirrors the model's swap-remove: detaches `id` from its shard,
    /// relocates the previous last id into slot `id`, and returns the
    /// removed point's home shard. Boxes and envelopes are left
    /// stale-high (conservative) until the next rebalance.
    pub(crate) fn swap_remove(&mut self, id: usize) -> usize {
        let last = self.assign.len() - 1;
        let home = self.assign[id] as usize;
        let p = self.pos[id] as usize;
        let ms = &mut self.members[home];
        ms.swap_remove(p);
        if p < ms.len() {
            self.pos[ms[p] as usize] = p as u32;
        }
        self.assign.swap_remove(id);
        self.pos.swap_remove(id);
        if id != last {
            let s = self.assign[id] as usize;
            let q = self.pos[id] as usize;
            self.members[s][q] = id as u32;
        }
        self.ops += 1;
        home
    }
}

/// Recursive kd-style split: labels `ids` with `shards` consecutive
/// shard numbers starting at `first`, splitting the widest-spread
/// dimension at the proportional rank so leaf populations stay balanced
/// for any shard count. Deterministic: ranks tie-break on id.
fn kd_split(data: &Dataset, ids: &mut [u32], shards: usize, first: u32, assign: &mut [u32]) {
    if shards <= 1 || ids.len() <= 1 {
        for &id in ids.iter() {
            assign[id as usize] = first;
        }
        return;
    }
    let dims = data.dims();
    let mut lo = vec![f64::INFINITY; dims];
    let mut hi = vec![f64::NEG_INFINITY; dims];
    for &id in ids.iter() {
        let p = data.point(id as usize);
        for d in 0..dims {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let mut split_dim = 0;
    let mut best_spread = f64::NEG_INFINITY;
    for d in 0..dims {
        let spread = hi[d] - lo[d];
        if spread > best_spread {
            best_spread = spread;
            split_dim = d;
        }
    }
    let left_shards = shards / 2;
    let cut = (ids.len() * left_shards / shards).clamp(1, ids.len() - 1);
    ids.select_nth_unstable_by(cut, |a, b| {
        data.point(*a as usize)[split_dim]
            .total_cmp(&data.point(*b as usize)[split_dim])
            .then(a.cmp(b))
    });
    let (lhs, rhs) = ids.split_at_mut(cut);
    kd_split(data, lhs, left_shards, first, assign);
    kd_split(data, rhs, shards - left_shards, first + left_shards as u32, assign);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;

    fn grid(n: usize) -> Dataset {
        let rows: Vec<[f64; 2]> = (0..n).map(|i| [(i % 8) as f64, (i / 8) as f64]).collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn build_covers_every_point_exactly_once() {
        for shards in [1, 2, 3, 4, 8] {
            let data = grid(40);
            let layout = ShardLayout::build(&data, |_| 1.0, shards, 1);
            let mut seen = vec![0usize; data.len()];
            for s in 0..layout.shards() {
                for &m in layout.members(s) {
                    assert_eq!(layout.shard_of(m as usize), s);
                    seen[m as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "disjoint cover at {shards} shards");
            // Population stays balanced within a factor of ~2.
            let max = (0..shards).map(|s| layout.members(s).len()).max().unwrap();
            assert!(max <= 40usize.div_ceil(shards) * 2, "balance at {shards} shards: max {max}");
        }
    }

    #[test]
    fn min_dist_lower_bounds_every_member() {
        let data = grid(40);
        let layout = ShardLayout::build(&data, |_| 1.0, 4, 1);
        let q = [3.3, -2.0];
        for s in 0..layout.shards() {
            let bound = layout.min_dist(&Euclidean, &q, s);
            for &m in layout.members(s) {
                let d = Euclidean.distance(&q, data.point(m as usize));
                assert!(bound <= d, "shard {s}: bound {bound} vs member dist {d}");
            }
        }
    }

    #[test]
    fn swap_remove_keeps_positions_consistent() {
        let data = grid(20);
        let mut layout = ShardLayout::build(&data, |_| 1.0, 3, 1);
        let mut remaining = 20usize;
        // Remove ids in a scrambled order, mirroring the model's
        // swap-remove relocation each time.
        for id in [5usize, 0, 12, 7, 7, 3] {
            layout.swap_remove(id);
            remaining -= 1;
            let mut seen = vec![0usize; remaining];
            for s in 0..layout.shards() {
                for (i, &m) in layout.members(s).iter().enumerate() {
                    assert_eq!(layout.shard_of(m as usize), s);
                    assert_eq!(layout.pos[m as usize] as usize, i);
                    seen[m as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "cover after removing {id}");
        }
    }

    #[test]
    fn assign_new_joins_the_nearest_box_and_grows_it() {
        let data = grid(16);
        let mut layout = ShardLayout::build(&data, |_| 1.0, 2, 1);
        let q = [0.0, 0.1];
        let home = layout.assign_new(&Euclidean, &q);
        assert_eq!(layout.shard_of(16), home);
        assert_eq!(layout.min_dist(&Euclidean, &q, home), 0.0, "box grew to cover the point");
    }

    #[test]
    fn envelope_ratchets_and_rebalance_resets_exactly() {
        let data = grid(12);
        let mut layout = ShardLayout::build(&data, |_| 2.0, 2, 1);
        layout.ratchet_env(0, 9.0);
        assert!(!layout.env(0).excludes(8.5));
        layout.rebalance(&data, &|_| 2.0);
        assert!(layout.env(0).excludes(2.1), "rebalance recomputes the exact envelope");
        assert!(!layout.env(0).excludes(2.0));
    }
}

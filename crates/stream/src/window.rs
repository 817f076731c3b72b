//! The sliding-window streaming detector: a bounded window over
//! [`IncrementalLof`] with a warm-up phase, a configurable eviction policy,
//! per-event alert rules, and built-in latency/cascade observability.
//!
//! Every event is scored *against the current window* (definitions 3–7
//! applied to the window contents), so the emitted score is exactly what a
//! batch LOF over the live window would produce — property tests assert
//! bit-identity against a fresh [`IncrementalLof::new`] after every event.
//! The model defers lrd/LOF maintenance to the reads: each event computes
//! only its own score, and [`SlidingWindowLof::top_n`] and the top-k alert
//! rule flush what they compare against.

use crate::snapshot::{SnapshotStats, WindowSnapshot};
use lof_core::incremental::{IncrementalLof, UpdateStats};
use lof_core::{Dataset, LofError, Metric, Result};
use lof_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;
use std::time::Instant;

/// What happens when the window outgrows its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Count-based sliding window: evict the longest-resident event once
    /// `len > capacity` (the streaming-LOF default).
    SlideOldest,
    /// Landmark window: never evict — the model accretes every event since
    /// the landmark (capacity is ignored).
    Landmark,
}

/// Configuration of a [`SlidingWindowLof`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// `MinPts` for the maintained LOF model.
    pub min_pts: usize,
    /// Window capacity (events) under [`EvictionPolicy::SlideOldest`].
    pub capacity: usize,
    /// Events buffered before the model is built; events arriving during
    /// warm-up are recorded but not scored. Clamped to
    /// `min_pts + 1 ..= capacity` by [`StreamConfig::validate`].
    pub warmup: usize,
    /// Eviction policy.
    pub policy: EvictionPolicy,
    /// Absolute alert rule: flag events with `LOF > threshold`.
    pub threshold: Option<f64>,
    /// Relative alert rule: flag events whose score ranks among the `k`
    /// highest LOF values of the current window.
    pub top_k: Option<usize>,
}

impl StreamConfig {
    /// A slide-oldest window of `capacity` events at the given `MinPts`,
    /// with warm-up `min_pts + 1` and no alert rules.
    pub fn new(min_pts: usize, capacity: usize) -> Self {
        StreamConfig {
            min_pts,
            capacity,
            warmup: min_pts + 1,
            policy: EvictionPolicy::SlideOldest,
            threshold: None,
            top_k: None,
        }
    }

    /// Sets the warm-up length (events buffered before scoring starts).
    #[must_use]
    pub fn warmup(mut self, events: usize) -> Self {
        self.warmup = events;
        self
    }

    /// Sets the eviction policy.
    #[must_use]
    pub fn policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the absolute LOF alert threshold.
    #[must_use]
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Sets the rolling top-`k` alert rule.
    #[must_use]
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Ignores its argument: every window is one flat model. Kept for
    /// source compatibility with callers written when windows could be
    /// split into spatial shards (`perfbench` still calls it).
    #[doc(hidden)]
    #[must_use]
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    /// Ignores its argument: every window defers lrd/LOF maintenance to
    /// the reads. Kept for source compatibility with callers written when
    /// eager maintenance was the default (`perfbench` still calls it).
    #[doc(hidden)]
    #[must_use]
    pub fn deferred(self, _deferred: bool) -> Self {
        self
    }

    /// Checks the invariants the window needs: `min_pts >= 1`,
    /// `capacity > min_pts + 1` (room to evict while neighborhoods stay
    /// defined), `warmup` within `min_pts + 1 ..= capacity`, a threshold
    /// that is a positive finite number and a top-k of at least 1. Every
    /// front end (`lof stream`, `lof serve`, `TENANT CREATE`, snapshot
    /// restore) checks its window through here.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::InvalidMinPts`] when the window could never hold
    /// a defined neighborhood, [`LofError::InvalidRange`] when the warm-up
    /// falls outside the valid band, [`LofError::InvalidAlertRule`] for an
    /// alert rule that could never mean what it says.
    pub fn validate(&self) -> Result<()> {
        if self.min_pts == 0 || self.capacity <= self.min_pts + 1 {
            return Err(LofError::InvalidMinPts {
                min_pts: self.min_pts,
                dataset_size: self.capacity,
            });
        }
        if self.warmup <= self.min_pts || self.warmup > self.capacity {
            return Err(LofError::InvalidRange { lb: self.warmup, ub: self.capacity });
        }
        if let Some(t) = self.threshold.filter(|t| !t.is_finite() || *t <= 0.0) {
            return Err(LofError::InvalidAlertRule(format!(
                "threshold must be a positive finite number, got {t}"
            )));
        }
        if self.top_k == Some(0) {
            return Err(LofError::InvalidAlertRule("top-k must be >= 1, got 0".to_owned()));
        }
        Ok(())
    }
}

/// The record emitted for one processed event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEvent {
    /// Stream sequence number of this event (0-based; equals the model's
    /// arrival number).
    pub seq: u64,
    /// LOF of the event against the post-eviction window; `None` during
    /// warm-up.
    pub score: Option<f64>,
    /// True while the window is still warming up.
    pub warmup: bool,
    /// Window size after this event (including it, minus any eviction).
    pub window_len: usize,
    /// Sequence number of the event this one evicted, if any.
    pub evicted: Option<u64>,
    /// Merged insert + eviction update cascade; `None` during warm-up.
    pub cascade: Option<UpdateStats>,
    /// The absolute-threshold alert rule fired.
    pub threshold_alert: bool,
    /// The rolling top-k alert rule fired.
    pub top_k_alert: bool,
    /// Wall-clock scoring latency of this event, nanoseconds.
    pub latency_ns: u64,
}

impl ScoredEvent {
    /// True when any configured alert rule fired.
    pub fn is_alert(&self) -> bool {
        self.threshold_alert || self.top_k_alert
    }
}

/// Aggregate counters of a window's lifetime (for dashboards and the
/// end-of-stream summary record).
///
/// The latency histogram is `Arc`-shared: the same instance is registered
/// in the window's [`MetricsRegistry`] under `stream.latency_ns`, so a
/// metrics snapshot and these stats can never disagree. Since PR 4 it
/// records **scored events only** — warm-up buffering is not a scoring
/// latency, and the reconciliation invariant is
/// `latency.count() == scored`.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Events processed (warm-up included).
    pub events: u64,
    /// Events that received a score.
    pub scored: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Events on which at least one alert rule fired.
    pub alerts: u64,
    /// Scoring latency distribution over scored events.
    pub latency: Arc<Histogram>,
}

/// The window's registry handles, resolved once at construction so the
/// per-event mirror writes are plain sharded-atomic bumps.
#[derive(Debug)]
struct WindowMetrics {
    events: Arc<Counter>,
    scored: Arc<Counter>,
    evictions: Arc<Counter>,
    alerts: Arc<Counter>,
    occupancy: Arc<Gauge>,
    last_lof: Arc<Gauge>,
}

impl WindowMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        WindowMetrics {
            events: registry.counter("stream.events"),
            scored: registry.counter("stream.scored"),
            evictions: registry.counter("stream.evictions"),
            alerts: registry.counter("stream.alerts"),
            occupancy: registry.gauge("stream.window_occupancy"),
            last_lof: registry.gauge("stream.last_lof"),
        }
    }
}

/// A bounded sliding-window streaming LOF detector.
///
/// ```
/// use lof_core::Euclidean;
/// use lof_stream::{SlidingWindowLof, StreamConfig};
///
/// let config = StreamConfig::new(3, 50).warmup(10).threshold(2.0);
/// let mut window = SlidingWindowLof::new(config, Euclidean).unwrap();
/// for i in 0u32..30 {
///     let ev = window.push(&[f64::from(i % 5), f64::from(i / 5)]).unwrap();
///     assert_eq!(ev.seq, u64::from(i));
/// }
/// let spike = window.push(&[100.0, 100.0]).unwrap();
/// assert!(spike.score.unwrap() > 2.0);
/// assert!(spike.threshold_alert);
/// ```
#[derive(Debug)]
pub struct SlidingWindowLof<M: Metric> {
    config: StreamConfig,
    /// Holds the metric until the warm-up completes and the model takes it.
    metric: Option<M>,
    /// Warm-up buffer (created on the first event, fixing the stream's
    /// dimensionality).
    pending: Option<Dataset>,
    model: Option<IncrementalLof<M>>,
    next_seq: u64,
    stats: StreamStats,
    registry: Arc<MetricsRegistry>,
    metrics: WindowMetrics,
}

impl<M: Metric> SlidingWindowLof<M> {
    /// Creates an empty window with its own private [`MetricsRegistry`].
    ///
    /// # Errors
    ///
    /// Propagates [`StreamConfig::validate`].
    pub fn new(config: StreamConfig, metric: M) -> Result<Self> {
        Self::with_registry(config, metric, Arc::new(MetricsRegistry::new()))
    }

    /// Creates an empty window mirroring its counters into `registry`
    /// (`stream.*` names). The stats' latency histogram is registered
    /// there as `stream.latency_ns` — shared, not copied.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamConfig::validate`].
    pub fn with_registry(
        config: StreamConfig,
        metric: M,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Self> {
        config.validate()?;
        let stats = StreamStats::default();
        registry.insert_histogram("stream.latency_ns", Arc::clone(&stats.latency));
        let metrics = WindowMetrics::new(&registry);
        Ok(SlidingWindowLof {
            config,
            metric: Some(metric),
            pending: None,
            model: None,
            next_seq: 0,
            stats,
            registry,
            metrics,
        })
    }

    /// The window's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The registry this window mirrors its counters into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Events currently in the window (buffered or modeled).
    pub fn len(&self) -> usize {
        match (&self.model, &self.pending) {
            (Some(model), _) => model.len(),
            (None, Some(pending)) => pending.len(),
            (None, None) => 0,
        }
    }

    /// True before the first event arrives.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True until the warm-up completes and the model is live.
    pub fn is_warming_up(&self) -> bool {
        self.model.is_none()
    }

    /// The live LOF model (after warm-up). Its score readers take
    /// `&mut self` because they refresh stale caches first; read scores
    /// through [`lof_values`](Self::lof_values) or
    /// [`top_n`](Self::top_n).
    pub fn model(&self) -> Option<&IncrementalLof<M>> {
        self.model.as_ref()
    }

    /// The current LOF of every window member, in the model's id order
    /// (see [`model`](Self::model)); empty during warm-up. Refreshes
    /// every stale score first.
    pub fn lof_values(&mut self) -> &[f64] {
        self.model.as_mut().map_or(&[], IncrementalLof::lof_values)
    }

    /// Processes one event: inserts it, applies the eviction policy, scores
    /// it against the resulting window, and evaluates the alert rules.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::DimensionMismatch`] /
    /// [`LofError::NonFiniteCoordinate`] for invalid points; the window is
    /// left unchanged and no sequence number is consumed.
    pub fn push(&mut self, point: &[f64]) -> Result<ScoredEvent> {
        let start = Instant::now();
        let seq = self.next_seq;
        let (score, evicted, cascade) = if self.model.is_some() {
            self.push_live(point)?
        } else {
            self.push_warmup(point)?;
            (None, None, None)
        };
        self.next_seq += 1;

        let threshold_alert = match (score, self.config.threshold) {
            (Some(s), Some(t)) => s > t,
            _ => false,
        };
        let top_k_alert = match (score, self.config.top_k) {
            (Some(s), Some(k)) => self.ranks_in_top_k(s, k),
            _ => false,
        };

        let latency_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let event = ScoredEvent {
            seq,
            score,
            warmup: score.is_none(),
            window_len: self.len(),
            evicted,
            cascade,
            threshold_alert,
            top_k_alert,
            latency_ns,
        };

        self.stats.events += 1;
        self.metrics.events.inc();
        if let Some(s) = score {
            self.stats.scored += 1;
            self.metrics.scored.inc();
            self.metrics.last_lof.set(s);
            // Scored events only: warm-up buffering is not a scoring
            // latency, and reconciliation tests pin
            // `latency.count() == scored`.
            self.stats.latency.record(latency_ns);
        }
        if evicted.is_some() {
            self.stats.evictions += 1;
            self.metrics.evictions.inc();
        }
        if event.is_alert() {
            self.stats.alerts += 1;
            self.metrics.alerts.inc();
        }
        self.metrics.occupancy.set(event.window_len as f64);
        Ok(event)
    }

    /// Warm-up path: buffer the point; build the model when the buffer
    /// reaches the configured warm-up length.
    fn push_warmup(&mut self, point: &[f64]) -> Result<()> {
        let pending = self.pending.get_or_insert_with(|| Dataset::new(point.len().max(1)));
        pending.push(point)?;
        if pending.len() >= self.config.warmup {
            let seed = self.pending.take().expect("warm-up buffer exists");
            let metric = self.metric.take().expect("metric unclaimed before model build");
            self.model = Some(IncrementalLof::new(seed, metric, self.config.min_pts)?);
        }
        Ok(())
    }

    /// Live path: insert, evict per policy, and re-read the event's score
    /// from the post-eviction window.
    fn push_live(
        &mut self,
        point: &[f64],
    ) -> Result<(Option<f64>, Option<u64>, Option<UpdateStats>)> {
        let model = self.model.as_mut().expect("live model");
        // Lazy insert + a single `lof` read after the eviction decision:
        // the emitted (post-eviction) score is computed exactly once per
        // event.
        let (id, insert_stats) = model.insert_lazy(point)?;

        let over_capacity =
            self.config.policy == EvictionPolicy::SlideOldest && model.len() > self.config.capacity;
        if !over_capacity {
            let score = model.lof(id)?;
            return Ok((Some(score), None, Some(insert_stats)));
        }

        // Evict the longest-resident event. The freshly inserted point sits
        // in the last slot (maximum arrival), so the swap-remove relocates
        // it into the evicted slot — re-read its score there: the emitted
        // value must reflect the *post-eviction* window.
        let oldest = model.oldest();
        let evicted_seq = model.arrival(oldest)?;
        debug_assert_ne!(oldest, id, "the newest event is never the eviction candidate");
        let evict_stats = model.remove(oldest)?;
        let new_id = model.newest();
        // Refreshes exactly the lrds this one score averages.
        let score = model.lof(new_id)?;
        Ok((Some(score), Some(evicted_seq), Some(insert_stats.merge(evict_stats))))
    }

    /// The window's `n` most outlying members as `(event seq, LOF)`
    /// pairs, ordered by score descending with ties broken by earlier
    /// arrival. Empty during warm-up (no model, no scores yet).
    ///
    /// The model refreshes every stale score first (hence `&mut self`),
    /// so answering is a flush and a sort over the maintained scores,
    /// not a sweep.
    pub fn top_n(&mut self, n: usize) -> Vec<(u64, f64)> {
        let Some(model) = self.model.as_mut() else {
            return Vec::new();
        };
        let mut ranked: Vec<(u64, f64)> = (0..model.len())
            .map(|id| (model.arrival(id).expect("window members have arrivals"), 0.0))
            .collect();
        for (entry, &lof) in ranked.iter_mut().zip(model.lof_values()) {
            entry.1 = lof;
        }
        ranked.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(n);
        ranked
    }

    /// Captures the window's complete scoring state as a serializable
    /// [`WindowSnapshot`] tagged with the caller's metric identity.
    ///
    /// The snapshot holds the points in id order plus the arrival /
    /// sequence counters — by the maintained-state invariant (incremental
    /// state == fresh batch build over the current id order) that is
    /// sufficient for [`restore`](Self::restore) to resume scoring and
    /// evicting bit-identically. The latency histogram is deliberately
    /// not captured.
    pub fn snapshot(&self, metric_tag: &str) -> WindowSnapshot {
        let (dims, warming, points, arrivals, next_arrival) = match (&self.model, &self.pending) {
            (Some(model), _) => {
                let data = model.dataset();
                let arrivals =
                    (0..model.len()).map(|id| model.arrival(id).expect("id in range")).collect();
                (data.dims(), false, data.as_flat().to_vec(), arrivals, model.next_arrival())
            }
            (None, Some(pending)) => {
                (pending.dims(), true, pending.as_flat().to_vec(), Vec::new(), self.next_seq)
            }
            (None, None) => (0, true, Vec::new(), Vec::new(), self.next_seq),
        };
        WindowSnapshot {
            metric_tag: metric_tag.to_owned(),
            config: self.config.clone(),
            dims,
            warming,
            points,
            arrivals,
            next_seq: self.next_seq,
            next_arrival,
            stats: SnapshotStats {
                events: self.stats.events,
                scored: self.stats.scored,
                evictions: self.stats.evictions,
                alerts: self.stats.alerts,
            },
            extras: Vec::new(),
        }
    }

    /// Rebuilds a window from a snapshot with its own private registry.
    ///
    /// # Errors
    ///
    /// See [`restore_with_registry`](Self::restore_with_registry).
    pub fn restore(snap: &WindowSnapshot, metric: M, metric_tag: &str) -> Result<Self> {
        Self::restore_with_registry(snap, metric, metric_tag, Arc::new(MetricsRegistry::new()))
    }

    /// Rebuilds a window from a snapshot, mirroring counters into
    /// `registry` exactly as [`with_registry`](Self::with_registry) does.
    ///
    /// The restored window scores, alerts, and evicts **bit-identically**
    /// to the uninterrupted original from the next event on (property
    /// tests in `tests/snapshot.rs` pin this). Lifetime counters resume;
    /// the latency histogram restarts empty — wall-clock timings of the
    /// dead process are not comparable, so after a restore
    /// `latency.count()` lags `stats().scored` by the pre-snapshot count.
    ///
    /// # Errors
    ///
    /// Returns [`LofError::InvalidPartition`] when `metric_tag` does not
    /// match the tag the snapshot was taken under, or when the snapshot's
    /// fields are mutually inconsistent (warming buffer at or past the
    /// warm-up length, sequence counters that cannot have produced the
    /// contents); propagates model-construction errors otherwise.
    pub fn restore_with_registry(
        snap: &WindowSnapshot,
        metric: M,
        metric_tag: &str,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Self> {
        if snap.metric_tag != metric_tag {
            return Err(LofError::InvalidPartition(format!(
                "snapshot was taken under metric '{}' but restore was handed '{metric_tag}'",
                snap.metric_tag
            )));
        }
        let mut window = Self::with_registry(snap.config.clone(), metric, registry)?;
        let n = snap.points.len().checked_div(snap.dims).unwrap_or(0);
        if snap.warming {
            if n >= snap.config.warmup {
                return Err(LofError::InvalidPartition(format!(
                    "warming snapshot buffers {n} events at warm-up length {}",
                    snap.config.warmup
                )));
            }
            if snap.next_seq != n as u64 {
                return Err(LofError::InvalidPartition(format!(
                    "warming snapshot buffers {n} events but next_seq is {}",
                    snap.next_seq
                )));
            }
            if n > 0 {
                window.pending = Some(Dataset::from_flat(snap.dims, snap.points.clone())?);
            }
        } else {
            let data = Dataset::from_flat(snap.dims, snap.points.clone())?;
            let metric = window.metric.take().expect("metric unclaimed before restore build");
            window.model = Some(IncrementalLof::with_arrivals(
                data,
                metric,
                snap.config.min_pts,
                snap.arrivals.clone(),
                snap.next_arrival,
            )?);
        }
        window.next_seq = snap.next_seq;
        window.stats.events = snap.stats.events;
        window.stats.scored = snap.stats.scored;
        window.stats.evictions = snap.stats.evictions;
        window.stats.alerts = snap.stats.alerts;
        window.metrics.events.add(snap.stats.events);
        window.metrics.scored.add(snap.stats.scored);
        window.metrics.evictions.add(snap.stats.evictions);
        window.metrics.alerts.add(snap.stats.alerts);
        window.metrics.occupancy.set(window.len() as f64);
        Ok(window)
    }

    /// True when at most `k - 1` window members score strictly higher than
    /// `score` (i.e. the event ranks in the window's top-`k`). Refreshes
    /// every stale score first — the rule compares against every
    /// member's current score.
    fn ranks_in_top_k(&mut self, score: f64, k: usize) -> bool {
        if k == 0 {
            return false;
        }
        let higher = self.lof_values().iter().filter(|&&v| v > score).count();
        higher < k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lof_core::Euclidean;

    fn grid_point(i: u64) -> [f64; 2] {
        [(i % 6) as f64, ((i / 6) % 6) as f64]
    }

    #[test]
    fn warmup_then_scoring_then_sliding() {
        let config = StreamConfig::new(3, 20).warmup(10);
        let mut w = SlidingWindowLof::new(config, Euclidean).unwrap();
        for i in 0..10 {
            let ev = w.push(&grid_point(i)).unwrap();
            assert!(ev.warmup && ev.score.is_none(), "event {i} is warm-up");
        }
        assert!(!w.is_warming_up());
        for i in 10..20 {
            let ev = w.push(&grid_point(i)).unwrap();
            assert!(ev.score.is_some() && ev.evicted.is_none());
        }
        // Capacity reached: the next push evicts seq 0, then 1, ...
        for (step, i) in (20..25).enumerate() {
            let ev = w.push(&grid_point(i)).unwrap();
            assert_eq!(ev.evicted, Some(step as u64));
            assert_eq!(ev.window_len, 20);
        }
        assert_eq!(w.stats().evictions, 5);
        assert_eq!(w.stats().events, 25);
        assert_eq!(w.stats().scored, 15);
        assert_eq!(w.stats().latency.count(), 15, "latency records scored events only");
    }

    #[test]
    fn top_n_ranks_window_members_by_score_then_arrival() {
        let config = StreamConfig::new(3, 64).warmup(5);
        let mut w = SlidingWindowLof::new(config, Euclidean).unwrap();
        assert!(w.top_n(3).is_empty(), "no ranking during warm-up");
        for i in 0..4 {
            w.push(&grid_point(i)).unwrap();
            assert!(w.top_n(3).is_empty(), "still warming up");
        }
        for i in 4..16 {
            w.push(&grid_point(i)).unwrap();
        }
        // A far-away outlier must rank first.
        let ev = w.push(&[40.0, 40.0]).unwrap();
        let top = w.top_n(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, ev.seq, "the planted outlier leads the ranking");
        assert!(top[0].1 > top[1].1);
        // Ordered by score desc, ties by earlier arrival; full ranking is
        // capped at the window size.
        let all = w.top_n(usize::MAX);
        assert_eq!(all.len(), w.len());
        for pair in all.windows(2) {
            let ((s0, l0), (s1, l1)) = (pair[0], pair[1]);
            assert!(l0 > l1 || (l0 == l1 && s0 < s1), "ranking order violated");
        }
    }

    #[test]
    fn registry_mirror_matches_the_stats() {
        let config = StreamConfig::new(3, 20).warmup(10).threshold(2.0);
        let mut w = SlidingWindowLof::new(config, Euclidean).unwrap();
        for i in 0..25 {
            w.push(&grid_point(i)).unwrap();
        }
        w.push(&[100.0, 100.0]).unwrap();
        let r = Arc::clone(w.registry());
        let stats = w.stats().clone();
        // The registered histogram IS the stats histogram, in both modes.
        assert_eq!(r.histogram("stream.latency_ns").count(), stats.latency.count());
        if lof_obs::enabled() {
            assert_eq!(r.counter("stream.events").value(), stats.events);
            assert_eq!(r.counter("stream.scored").value(), stats.scored);
            assert_eq!(r.counter("stream.evictions").value(), stats.evictions);
            assert_eq!(r.counter("stream.alerts").value(), stats.alerts);
            assert_eq!(r.gauge("stream.window_occupancy").value(), w.len() as f64);
            assert_eq!(
                r.counter("stream.events").value() - r.counter("stream.evictions").value(),
                w.len() as u64,
                "occupancy == inserts - evictions"
            );
        }
    }

    #[test]
    fn landmark_never_evicts() {
        let config = StreamConfig::new(3, 10).warmup(5).policy(EvictionPolicy::Landmark);
        let mut w = SlidingWindowLof::new(config, Euclidean).unwrap();
        for i in 0..40 {
            let ev = w.push(&grid_point(i)).unwrap();
            assert_eq!(ev.evicted, None);
        }
        assert_eq!(w.len(), 40);
        assert_eq!(w.stats().evictions, 0);
    }

    #[test]
    fn threshold_and_top_k_alerts_fire_on_a_spike() {
        let config = StreamConfig::new(4, 60).warmup(30).threshold(2.5).top_k(1);
        let mut w = SlidingWindowLof::new(config, Euclidean).unwrap();
        for i in 0..40 {
            let ev = w.push(&grid_point(i)).unwrap();
            assert!(!ev.threshold_alert, "grid points stay under threshold");
        }
        let spike = w.push(&[50.0, 50.0]).unwrap();
        assert!(spike.threshold_alert && spike.top_k_alert && spike.is_alert());
        assert!(w.stats().alerts >= 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SlidingWindowLof::new(StreamConfig::new(0, 10), Euclidean).is_err());
        assert!(SlidingWindowLof::new(StreamConfig::new(5, 6), Euclidean).is_err());
        assert!(SlidingWindowLof::new(StreamConfig::new(3, 10).warmup(2), Euclidean).is_err());
        assert!(SlidingWindowLof::new(StreamConfig::new(3, 10).warmup(11), Euclidean).is_err());
        for t in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let config = StreamConfig::new(3, 10).threshold(t);
            assert!(matches!(config.validate(), Err(LofError::InvalidAlertRule(_))), "{t}");
        }
        let config = StreamConfig::new(3, 10).top_k(0);
        assert!(matches!(config.validate(), Err(LofError::InvalidAlertRule(_))));
    }

    #[test]
    fn bad_points_do_not_consume_sequence_numbers() {
        let mut w = SlidingWindowLof::new(StreamConfig::new(3, 20), Euclidean).unwrap();
        w.push(&[0.0, 0.0]).unwrap();
        assert!(w.push(&[1.0]).is_err(), "dimension mismatch");
        assert!(w.push(&[f64::NAN, 0.0]).is_err(), "non-finite");
        let ev = w.push(&[1.0, 1.0]).unwrap();
        assert_eq!(ev.seq, 1, "failed pushes must not burn seq 1");
        assert_eq!(w.stats().events, 2);
    }

    #[test]
    fn emitted_score_reflects_the_post_eviction_window() {
        let config = StreamConfig::new(3, 12).warmup(12);
        let mut w = SlidingWindowLof::new(config, Euclidean).unwrap();
        for i in 0..12 {
            w.push(&grid_point(i)).unwrap();
        }
        let ev = w.push(&grid_point(12)).unwrap();
        assert_eq!(ev.evicted, Some(0));
        let newest = w.model().unwrap().newest();
        assert_eq!(ev.score.unwrap().to_bits(), w.lof_values()[newest].to_bits());
    }
}

//! The incremental model recomputes lrds and LOFs on read, so the reads
//! are what publish `core.incremental.cascade_lofs`: each read adds the
//! LOF values its refresh recomputed, updates add nothing. The counter
//! is process-global, so this binary holds a single test — no other test
//! can publish into the deltas it reads.

use lof_core::incremental::IncrementalLof;
use lof_core::{Dataset, Euclidean};

/// The counter's movement since the previous call.
struct Delta(u64);

impl Delta {
    fn read() -> u64 {
        lof_obs::global().counter("core.incremental.cascade_lofs").value()
    }

    fn take(&mut self) -> u64 {
        let now = Self::read();
        let delta = now - self.0;
        self.0 = now;
        delta
    }
}

/// `n` with obs compiled in, 0 without (the counter is a no-op then).
fn published(n: u64) -> u64 {
    if lof_obs::enabled() {
        n
    } else {
        0
    }
}

#[test]
fn reads_publish_exactly_the_lofs_they_recompute() {
    let rows: Vec<[f64; 2]> = (0..30).map(|i| [(i % 6) as f64, (i / 6) as f64]).collect();
    let mut model = IncrementalLof::new(Dataset::from_rows(&rows).unwrap(), Euclidean, 4).unwrap();
    let mut delta = Delta(Delta::read());

    model.flush();
    assert_eq!(delta.take(), 0, "a fresh build has nothing stale");

    // Nobody holds a far point: reading it recomputes its own LOF only.
    let (far, _) = model.insert_lazy(&[1000.0, 1000.0]).unwrap();
    assert_eq!(delta.take(), 0, "updates publish nothing");
    model.lof(far).unwrap();
    assert_eq!(delta.take(), published(1));
    model.lof(far).unwrap();
    assert_eq!(delta.take(), 0, "a repeated read is a cache hit");
    model.flush();
    assert_eq!(delta.take(), 0, "the far insert invalidated nothing else");

    // An interior insert joins neighborhoods: the arriving score is one
    // recompute, the flush adds the neighbors' LOFs it invalidated.
    model.remove(far).unwrap();
    let (q, _, stats) = model.insert(&[2.5, 2.5]).unwrap();
    assert!(stats.neighborhoods_updated > 0);
    assert_eq!((stats.lrds_recomputed, stats.lofs_recomputed), (0, 0));
    assert_eq!(delta.take(), published(1));
    model.flush();
    let flushed = delta.take();
    if lof_obs::enabled() {
        assert!(flushed >= stats.neighborhoods_updated as u64, "flush published {flushed}");
        assert!(flushed < model.len() as u64, "the refresh stays local: {flushed}");
    } else {
        assert_eq!(flushed, 0);
    }
    model.lof(q).unwrap();
    model.flush();
    assert_eq!(delta.take(), 0, "nothing is stale after a flush");
}

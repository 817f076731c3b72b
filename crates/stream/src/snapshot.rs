//! Versioned on-disk snapshots of a [`SlidingWindowLof`]: the `LOFW`
//! binary format with CRC32 framing.
//!
//! A window's complete scoring state is surprisingly small. The crate's
//! maintained-state invariant — the incremental model is bit-identical to
//! a fresh batch build over the current window contents in id order
//! (property-tested in `tests/properties.rs`) — means a snapshot never
//! has to serialize neighborhoods, lrd/LOF vectors, or CSR arenas: the
//! points in id order, their arrival numbers, and the sequence counters
//! are enough for [`SlidingWindowLof::restore`] to rebuild a model that
//! scores and evicts **bit-identically** to the uninterrupted run.
//!
//! Format (`LOFW` magic, version 2, all integers little-endian):
//!
//! ```text
//! [magic u32 = 0x4C4F4657] [version u32] [payload_len u64]
//! [payload: payload_len bytes] [crc32 u32 of the payload]
//! ```
//!
//! The payload is a flat field sequence (strings are `u64` length +
//! UTF-8 bytes, options are a presence byte + value):
//!
//! ```text
//! metric_tag:str  min_pts:u64 capacity:u64 warmup:u64 policy:u8
//! threshold:opt<f64> top_k:opt<u64>  shards:u64 deferred:u8
//! dims:u64 warming:u8
//! n:u64 points:n*dims*f64  arrivals:(count:u64, count*u64)
//! next_seq:u64 next_arrival:u64
//! events:u64 scored:u64 evictions:u64 alerts:u64 cascade_lofs:u64
//! border_repairs:u64
//! extras:(count:u64, count*(key:str, value:str))
//! ```
//!
//! `shards`, `deferred`, `cascade_lofs` and `border_repairs` are retired
//! fields of the v2 layout, from when a window could be split into
//! spatial shards and maintained its scores eagerly, counting the LOFs
//! each update recomputed. Every window is now one flat model that
//! refreshes its scores on read, so writers store the constants `1`,
//! `1`, `0` and `0`; readers still reject a `deferred` byte other than 0
//! or 1, then ignore all four. Version 1 (readable, never written) lacks
//! `shards`, `deferred` and `border_repairs`. Snapshots of either version restore into the same
//! window, which scores bit-identically whatever the retired fields say.
//!
//! `extras` carries serving-layer annotations (tenant name, quota
//! settings) opaquely: the window itself neither reads nor validates
//! them, so the serve tier can evolve its metadata without a format
//! bump. Corruption anywhere in the payload is caught by the trailing
//! CRC32 (IEEE polynomial) before any field is interpreted; truncation
//! is caught by the declared `payload_len`.
//!
//! What a snapshot deliberately does **not** carry: the latency
//! histogram (wall-clock timings of a dead process are not comparable to
//! the restored one's — counts restart at zero while the `events` /
//! `scored` counters resume, documented on
//! [`SlidingWindowLof::restore`]).

use crate::window::{EvictionPolicy, StreamConfig};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// `"LOFW"` interpreted as a little-endian u32.
pub const MAGIC: u32 = 0x4C4F_4657;
/// Current format version.
pub const VERSION: u32 = 2;
/// Oldest version [`WindowSnapshot::from_bytes`] still reads.
pub const MIN_VERSION: u32 = 1;

/// Hard cap on the declared payload length (1 GiB): a corrupt header
/// must not drive a multi-gigabyte allocation before the CRC check.
const MAX_PAYLOAD: u64 = 1 << 30;

/// CRC32 (IEEE 802.3 polynomial, reflected) over `bytes` — the same
/// checksum `cksum`-style tools and zlib compute.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The lifetime counters persisted with a window (everything in
/// [`StreamStats`](crate::StreamStats) except the latency histogram).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Events processed (warm-up included).
    pub events: u64,
    /// Events that received a score.
    pub scored: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Events on which at least one alert rule fired.
    pub alerts: u64,
}

/// A serializable image of a [`SlidingWindowLof`]'s scoring state.
///
/// Produced by [`SlidingWindowLof::snapshot`], consumed by
/// [`SlidingWindowLof::restore`]; [`to_bytes`](Self::to_bytes) /
/// [`from_bytes`](Self::from_bytes) are the `LOFW` wire form.
///
/// [`SlidingWindowLof::snapshot`]: crate::SlidingWindowLof::snapshot
/// [`SlidingWindowLof::restore`]: crate::SlidingWindowLof::restore
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Caller-declared metric identity (e.g. `"euclidean"`). Restore
    /// refuses a snapshot whose tag differs from the metric it is handed:
    /// scoring the same points under a different metric would silently
    /// produce different (non-resumed) results.
    pub metric_tag: String,
    /// The window configuration.
    pub config: StreamConfig,
    /// Stream dimensionality (meaningful when `points` is non-empty).
    pub dims: usize,
    /// True when the window was still buffering its warm-up.
    pub warming: bool,
    /// Window contents in id order, row-major flat (`n * dims` values).
    pub points: Vec<f64>,
    /// Arrival sequence numbers in id order; empty while warming (the
    /// buffered events' sequence numbers are the implicit `0..n`).
    pub arrivals: Vec<u64>,
    /// The next stream sequence number.
    pub next_seq: u64,
    /// The model's next arrival number (equals `next_seq` in a window
    /// that has never been tampered with; persisted independently so the
    /// model's eviction clock is explicit).
    pub next_arrival: u64,
    /// Lifetime counters at snapshot time.
    pub stats: SnapshotStats,
    /// Opaque serving-layer annotations (tenant name, quotas, ...).
    pub extras: Vec<(String, String)>,
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader over the payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(len).ok_or_else(|| bad("length overflow"))?;
        if end > self.bytes.len() {
            return Err(bad("snapshot payload truncated"));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> io::Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| bad("count exceeds the address space"))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("snapshot string is not UTF-8"))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

impl WindowSnapshot {
    /// Serializes the snapshot to the framed `LOFW` byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64 + self.points.len() * 8 + self.arrivals.len() * 8);
        put_str(&mut payload, &self.metric_tag);
        put_u64(&mut payload, self.config.min_pts as u64);
        put_u64(&mut payload, self.config.capacity as u64);
        put_u64(&mut payload, self.config.warmup as u64);
        payload.push(match self.config.policy {
            EvictionPolicy::SlideOldest => 0,
            EvictionPolicy::Landmark => 1,
        });
        match self.config.threshold {
            Some(t) => {
                payload.push(1);
                payload.extend_from_slice(&t.to_le_bytes());
            }
            None => payload.push(0),
        }
        match self.config.top_k {
            Some(k) => {
                payload.push(1);
                put_u64(&mut payload, k as u64);
            }
            None => payload.push(0),
        }
        // Retired `shards` and `deferred` fields (see the module docs).
        put_u64(&mut payload, 1);
        payload.push(1);
        put_u64(&mut payload, self.dims as u64);
        payload.push(u8::from(self.warming));
        let n = self.points.len().checked_div(self.dims).unwrap_or(0);
        put_u64(&mut payload, n as u64);
        for &c in &self.points {
            payload.extend_from_slice(&c.to_le_bytes());
        }
        put_u64(&mut payload, self.arrivals.len() as u64);
        for &a in &self.arrivals {
            put_u64(&mut payload, a);
        }
        put_u64(&mut payload, self.next_seq);
        put_u64(&mut payload, self.next_arrival);
        put_u64(&mut payload, self.stats.events);
        put_u64(&mut payload, self.stats.scored);
        put_u64(&mut payload, self.stats.evictions);
        put_u64(&mut payload, self.stats.alerts);
        put_u64(&mut payload, 0); // retired `cascade_lofs`
        put_u64(&mut payload, 0); // retired `border_repairs`
        put_u64(&mut payload, self.extras.len() as u64);
        for (k, v) in &self.extras {
            put_str(&mut payload, k);
            put_str(&mut payload, v);
        }

        let mut out = Vec::with_capacity(payload.len() + 20);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let crc = crc32(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates a framed `LOFW` byte image.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for wrong magic, unsupported version,
    /// truncation, CRC mismatch, or structurally inconsistent fields
    /// (shape mismatches, non-finite points, invalid config).
    pub fn from_bytes(bytes: &[u8]) -> io::Result<WindowSnapshot> {
        let mut cur = Cursor { bytes, pos: 0 };
        let magic = u32::from_le_bytes(cur.take(4)?.try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(bad("not a LOF window snapshot (bad magic)"));
        }
        let version = u32::from_le_bytes(cur.take(4)?.try_into().expect("4 bytes"));
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(bad("unsupported LOF window snapshot version"));
        }
        let payload_len = cur.u64()?;
        if payload_len > MAX_PAYLOAD {
            return Err(bad("snapshot payload length is implausible"));
        }
        let payload = cur.take(payload_len as usize)?;
        let declared_crc = u32::from_le_bytes(cur.take(4)?.try_into().expect("4 bytes"));
        if !cur.done() {
            return Err(bad("trailing garbage after the snapshot frame"));
        }
        if crc32(payload) != declared_crc {
            return Err(bad("snapshot CRC mismatch (corrupted payload)"));
        }

        let mut cur = Cursor { bytes: payload, pos: 0 };
        let metric_tag = cur.str()?;
        let min_pts = cur.usize()?;
        let capacity = cur.usize()?;
        let warmup = cur.usize()?;
        let policy = match cur.u8()? {
            0 => EvictionPolicy::SlideOldest,
            1 => EvictionPolicy::Landmark,
            _ => return Err(bad("unknown eviction policy byte")),
        };
        let threshold = match cur.u8()? {
            0 => None,
            1 => Some(cur.f64()?),
            _ => return Err(bad("bad threshold presence byte")),
        };
        let top_k = match cur.u8()? {
            0 => None,
            1 => Some(cur.usize()?),
            _ => return Err(bad("bad top_k presence byte")),
        };
        // The retired `shards` / `deferred` fields (v2 only).
        if version >= 2 {
            cur.u64()?;
            if cur.u8()? > 1 {
                return Err(bad("bad deferred byte"));
            }
        }
        let config = StreamConfig { min_pts, capacity, warmup, policy, threshold, top_k };
        config.validate().map_err(|e| bad(&format!("snapshot config invalid: {e}")))?;

        let dims = cur.usize()?;
        let warming = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return Err(bad("bad warming byte")),
        };
        let n = cur.usize()?;
        let coords = n.checked_mul(dims).ok_or_else(|| bad("point count overflow"))?;
        let mut points = Vec::with_capacity(coords.min(payload.len() / 8));
        for _ in 0..coords {
            let c = cur.f64()?;
            if !c.is_finite() {
                return Err(bad("snapshot holds a non-finite coordinate"));
            }
            points.push(c);
        }
        let arrival_count = cur.usize()?;
        if arrival_count != if warming { 0 } else { n } {
            return Err(bad("arrival metadata does not match the point count"));
        }
        let mut arrivals = Vec::with_capacity(arrival_count);
        for _ in 0..arrival_count {
            arrivals.push(cur.u64()?);
        }
        let next_seq = cur.u64()?;
        let next_arrival = cur.u64()?;
        let stats = SnapshotStats {
            events: cur.u64()?,
            scored: cur.u64()?,
            evictions: cur.u64()?,
            alerts: cur.u64()?,
        };
        cur.u64()?; // retired `cascade_lofs`
        if version >= 2 {
            cur.u64()?; // retired `border_repairs`
        }
        let extra_count = cur.usize()?;
        let mut extras = Vec::with_capacity(extra_count.min(1024));
        for _ in 0..extra_count {
            let k = cur.str()?;
            let v = cur.str()?;
            extras.push((k, v));
        }
        if !cur.done() {
            return Err(bad("trailing garbage inside the snapshot payload"));
        }
        Ok(WindowSnapshot {
            metric_tag,
            config,
            dims,
            warming,
            points,
            arrivals,
            next_seq,
            next_arrival,
            stats,
            extras,
        })
    }

    /// Looks up an extra by key.
    pub fn extra(&self, key: &str) -> Option<&str> {
        self.extras.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Writes the framed snapshot to `path` (atomic enough for a single
    /// writer: a temp file in the same directory, then rename).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to_file(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            w.write_all(&self.to_bytes())?;
            w.flush()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Reads and validates a framed snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; returns `InvalidData` as
    /// [`from_bytes`](Self::from_bytes) does.
    pub fn read_from_file(path: &Path) -> io::Result<WindowSnapshot> {
        let mut bytes = Vec::new();
        BufReader::new(File::open(path)?).read_to_end(&mut bytes)?;
        WindowSnapshot::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WindowSnapshot {
        WindowSnapshot {
            metric_tag: "euclidean".to_owned(),
            config: StreamConfig::new(3, 16).warmup(8).threshold(2.0).top_k(4),
            dims: 2,
            warming: false,
            points: vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            arrivals: vec![7, 3, 4, 5, 6],
            next_seq: 8,
            next_arrival: 8,
            stats: SnapshotStats { events: 8, scored: 3, evictions: 3, alerts: 1 },
            extras: vec![("tenant".to_owned(), "alpha".to_owned())],
        }
    }

    /// Serializes `snap` in the retired v1 layout (no shards / deferred /
    /// border_repairs fields) so the compat read path stays covered.
    fn v1_bytes(snap: &WindowSnapshot) -> Vec<u8> {
        let mut payload = Vec::new();
        put_str(&mut payload, &snap.metric_tag);
        put_u64(&mut payload, snap.config.min_pts as u64);
        put_u64(&mut payload, snap.config.capacity as u64);
        put_u64(&mut payload, snap.config.warmup as u64);
        payload.push(match snap.config.policy {
            EvictionPolicy::SlideOldest => 0,
            EvictionPolicy::Landmark => 1,
        });
        match snap.config.threshold {
            Some(t) => {
                payload.push(1);
                payload.extend_from_slice(&t.to_le_bytes());
            }
            None => payload.push(0),
        }
        match snap.config.top_k {
            Some(k) => {
                payload.push(1);
                put_u64(&mut payload, k as u64);
            }
            None => payload.push(0),
        }
        put_u64(&mut payload, snap.dims as u64);
        payload.push(u8::from(snap.warming));
        put_u64(&mut payload, (snap.points.len() / snap.dims.max(1)) as u64);
        for &c in &snap.points {
            payload.extend_from_slice(&c.to_le_bytes());
        }
        put_u64(&mut payload, snap.arrivals.len() as u64);
        for &a in &snap.arrivals {
            put_u64(&mut payload, a);
        }
        put_u64(&mut payload, snap.next_seq);
        put_u64(&mut payload, snap.next_arrival);
        put_u64(&mut payload, snap.stats.events);
        put_u64(&mut payload, snap.stats.scored);
        put_u64(&mut payload, snap.stats.evictions);
        put_u64(&mut payload, snap.stats.alerts);
        put_u64(&mut payload, 9); // a v1 writer's `cascade_lofs`, ignored on read
        put_u64(&mut payload, snap.extras.len() as u64);
        for (k, v) in &snap.extras {
            put_str(&mut payload, k);
            put_str(&mut payload, v);
        }
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let crc = crc32(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn v1_snapshots_read_back_unchanged() {
        let snap = sample();
        assert_eq!(WindowSnapshot::from_bytes(&v1_bytes(&snap)).unwrap(), snap);
    }

    /// Rewrites the retired v2 fields of `bytes` (a [`WindowSnapshot::
    /// to_bytes`] image of [`sample`]) and re-seals the CRC.
    fn with_retired_fields(
        bytes: &[u8],
        shards: u64,
        deferred: u8,
        cascade_lofs: u64,
        border_repairs: u64,
    ) -> Vec<u8> {
        let snap = sample();
        // magic, version, length; tag; min_pts, capacity, warmup; policy;
        // threshold and top_k (both present in `sample`).
        let engine = 16 + 8 + snap.metric_tag.len() + 24 + 1 + 9 + 9;
        let extras: usize =
            8 + snap.extras.iter().map(|(k, v)| 16 + k.len() + v.len()).sum::<usize>();
        let repairs = bytes.len() - 4 - extras - 8;
        let mut out = bytes.to_vec();
        out[engine..engine + 8].copy_from_slice(&shards.to_le_bytes());
        out[engine + 8] = deferred;
        out[repairs - 8..repairs].copy_from_slice(&cascade_lofs.to_le_bytes());
        out[repairs..repairs + 8].copy_from_slice(&border_repairs.to_le_bytes());
        let crc = crc32(&out[16..out.len() - 4]);
        let end = out.len();
        out[end - 4..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn retired_v2_fields_are_written_as_constants_and_ignored_on_read() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(with_retired_fields(&bytes, 1, 1, 0, 0), bytes, "writers store 1, 1, 0 and 0");
        for (shards, deferred, cascade, repairs) in [(4, 0, 9, 7), (0, 1, 0, 0), (8, 1, 5, 123)] {
            let old = with_retired_fields(&bytes, shards, deferred, cascade, repairs);
            assert_eq!(WindowSnapshot::from_bytes(&old).unwrap(), snap);
        }
        assert!(WindowSnapshot::from_bytes(&with_retired_fields(&bytes, 1, 2, 0, 0)).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = WindowSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.extra("tenant"), Some("alpha"));
        assert_eq!(back.extra("missing"), None);
    }

    #[test]
    fn corruption_and_truncation_are_rejected() {
        let bytes = sample().to_bytes();
        // Wrong magic.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(WindowSnapshot::from_bytes(&bad_magic).is_err());
        // Unsupported version.
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(WindowSnapshot::from_bytes(&bad_version).is_err());
        // Every truncation point fails cleanly.
        for cut in 0..bytes.len() {
            assert!(WindowSnapshot::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Any single bit flip in the payload trips the CRC.
        for byte in (16..bytes.len() - 4).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 0x10;
            assert!(WindowSnapshot::from_bytes(&corrupt).is_err(), "flip at {byte}");
        }
        // Trailing garbage after the frame.
        let mut long = bytes.clone();
        long.push(0);
        assert!(WindowSnapshot::from_bytes(&long).is_err());
    }

    #[test]
    fn inconsistent_fields_are_rejected() {
        // Arrival metadata must match the point count when live.
        let mut snap = sample();
        snap.arrivals.pop();
        assert!(WindowSnapshot::from_bytes(&snap.to_bytes()).is_err());
        // A warming snapshot carries no arrivals.
        let mut snap = sample();
        snap.warming = true;
        assert!(WindowSnapshot::from_bytes(&snap.to_bytes()).is_err());
        // Non-finite coordinates never round-trip.
        let mut snap = sample();
        snap.points[3] = f64::NAN;
        assert!(WindowSnapshot::from_bytes(&snap.to_bytes()).is_err());
        // Invalid configs are caught at parse time.
        let mut snap = sample();
        snap.config.min_pts = 0;
        assert!(WindowSnapshot::from_bytes(&snap.to_bytes()).is_err());
    }
}

//! Tenant specifications and tenant-level shared state.
//!
//! A tenant is a named [`SlidingWindowLof`] with its own configuration
//! and [`Quotas`]. The wire form is `TENANT CREATE <name> [key=value...]`;
//! this module turns those raw pairs into a validated
//! [`TenantSpec`], and round-trips the serving-layer attributes (name,
//! quotas) through snapshot `extras` so a restored server resumes with
//! identical admission behavior.
//!
//! [`SlidingWindowLof`]: lof_stream::SlidingWindowLof

use crate::quota::Quotas;
use lof_stream::{EvictionPolicy, StreamConfig, WindowSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A validated tenant definition: window configuration plus quotas.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// The window configuration.
    pub config: StreamConfig,
    /// The admission quotas.
    pub quotas: Quotas,
}

impl TenantSpec {
    /// Builds a spec from `TENANT CREATE` parameters, starting from the
    /// server's defaults. Recognized keys: `minpts`, `capacity`,
    /// `warmup`, `policy` (`slide` | `landmark`), `threshold`, `topk`,
    /// `max_points`, `max_eps`, `max_conns`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown keys, unparsable
    /// values, or a configuration that fails [`StreamConfig::validate`].
    pub fn from_params(
        defaults: &StreamConfig,
        default_quotas: Quotas,
        params: &[(String, String)],
    ) -> Result<TenantSpec, String> {
        let mut config = defaults.clone();
        let mut quotas = default_quotas;
        // `warmup` tracks `minpts` unless explicitly pinned, matching the
        // StreamConfig::new default of `min_pts + 1`.
        let mut warmup_pinned = false;
        for (key, value) in params {
            match key.as_str() {
                "minpts" => config.min_pts = parse_num(key, value)?,
                "capacity" => config.capacity = parse_num(key, value)?,
                "warmup" => {
                    config.warmup = parse_num(key, value)?;
                    warmup_pinned = true;
                }
                "policy" => {
                    config.policy = match value.as_str() {
                        "slide" => EvictionPolicy::SlideOldest,
                        "landmark" => EvictionPolicy::Landmark,
                        other => {
                            return Err(format!(
                                "bad policy '{other}' (expected 'slide' or 'landmark')"
                            ))
                        }
                    }
                }
                "threshold" => config.threshold = Some(parse_num(key, value)?),
                "topk" => config.top_k = Some(parse_num(key, value)?),
                "max_points" => quotas.max_points = Some(parse_num(key, value)?),
                "max_eps" => quotas.max_events_per_sec = Some(parse_num(key, value)?),
                "max_conns" => quotas.max_conns = Some(parse_num(key, value)?),
                other => {
                    return Err(format!(
                        "unknown parameter '{other}' (expected minpts, capacity, warmup, \
                         policy, threshold, topk, max_points, max_eps, max_conns)"
                    ))
                }
            }
        }
        if !warmup_pinned {
            config.warmup = config.min_pts + 1;
        }
        config.validate().map_err(|e| format!("invalid window configuration: {e}"))?;
        if let Some(max_points) = quotas.max_points {
            if config.policy == EvictionPolicy::SlideOldest && config.capacity > max_points {
                return Err(format!(
                    "capacity {} exceeds max_points quota {max_points}",
                    config.capacity
                ));
            }
        }
        Ok(TenantSpec { config, quotas })
    }

    /// The snapshot `extras` carrying this tenant's serving-layer
    /// attributes (the window state itself lives in the snapshot body).
    pub fn extras(&self, name: &str) -> Vec<(String, String)> {
        let mut extras = vec![("tenant".to_owned(), name.to_owned())];
        if let Some(v) = self.quotas.max_events_per_sec {
            extras.push(("quota.max_events_per_sec".to_owned(), v.to_string()));
        }
        if let Some(v) = self.quotas.max_points {
            extras.push(("quota.max_points".to_owned(), v.to_string()));
        }
        if let Some(v) = self.quotas.max_conns {
            extras.push(("quota.max_conns".to_owned(), v.to_string()));
        }
        extras
    }

    /// Recovers the quotas a snapshot was taken under (absent or
    /// unparsable extras mean unlimited — snapshots from older writers
    /// stay loadable).
    pub fn quotas_from_snapshot(snap: &WindowSnapshot) -> Quotas {
        Quotas {
            max_events_per_sec: snap.extra("quota.max_events_per_sec").and_then(|v| v.parse().ok()),
            max_points: snap.extra("quota.max_points").and_then(|v| v.parse().ok()),
            max_conns: snap.extra("quota.max_conns").and_then(|v| v.parse().ok()),
        }
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("bad value for '{key}': {e}"))
}

/// Live per-tenant statistics, written by the owning worker after every
/// event and read lock-free by the I/O thread to answer `TENANT LIST`.
#[derive(Debug, Default)]
pub struct TenantShared {
    /// Events currently held in the window.
    pub window_len: AtomicU64,
    /// Lifetime events pushed into the window.
    pub events: AtomicU64,
    /// True while the window is warming up.
    pub warming: AtomicBool,
}

impl TenantShared {
    /// Publishes the post-event view (worker side).
    pub fn publish(&self, window_len: usize, events: u64, warming: bool) {
        self.window_len.store(window_len as u64, Ordering::Relaxed);
        self.events.store(events, Ordering::Relaxed);
        self.warming.store(warming, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> StreamConfig {
        StreamConfig::new(3, 64)
    }

    #[test]
    fn create_params_override_defaults_and_validate() {
        let spec = TenantSpec::from_params(
            &defaults(),
            Quotas::default(),
            &[
                ("minpts".to_owned(), "5".to_owned()),
                ("capacity".to_owned(), "128".to_owned()),
                ("threshold".to_owned(), "2.5".to_owned()),
                ("max_eps".to_owned(), "100".to_owned()),
            ],
        )
        .expect("valid spec");
        assert_eq!(spec.config.min_pts, 5);
        assert_eq!(spec.config.capacity, 128);
        assert_eq!(spec.config.warmup, 6, "warmup tracks the overridden minpts");
        assert_eq!(spec.config.threshold, Some(2.5));
        assert_eq!(spec.quotas.max_events_per_sec, Some(100));
        assert_eq!(spec.quotas.max_points, None);

        // Landmark policy and pinned warmup.
        let spec = TenantSpec::from_params(
            &defaults(),
            Quotas::default(),
            &[("policy".to_owned(), "landmark".to_owned()), ("warmup".to_owned(), "10".to_owned())],
        )
        .expect("valid spec");
        assert_eq!(spec.config.policy, EvictionPolicy::Landmark);
        assert_eq!(spec.config.warmup, 10);
    }

    #[test]
    fn bad_params_are_rejected_with_messages() {
        let cases: &[(&str, &str)] = &[
            ("minpts", "abc"),
            ("policy", "ring"),
            ("threshold", "-1"),
            ("threshold", "inf"),
            ("topk", "0"),
            ("frobnicate", "1"),
        ];
        for (key, value) in cases {
            let err = TenantSpec::from_params(
                &defaults(),
                Quotas::default(),
                &[((*key).to_owned(), (*value).to_owned())],
            )
            .expect_err("must reject");
            assert!(!err.is_empty());
            if *key == "threshold" {
                assert!(err.contains("threshold must be a positive finite number"), "{err}");
            }
        }
        // The retired engine keys are plain unknown parameters now.
        for key in ["shards", "deferred"] {
            let err = TenantSpec::from_params(
                &defaults(),
                Quotas::default(),
                &[(key.into(), "1".into())],
            )
            .expect_err("retired key");
            assert!(err.starts_with(&format!("unknown parameter '{key}'")), "{err}");
        }
        // Capacity above max_points is inconsistent for a sliding window.
        assert!(TenantSpec::from_params(
            &defaults(),
            Quotas::default(),
            &[
                ("capacity".to_owned(), "100".to_owned()),
                ("max_points".to_owned(), "50".to_owned()),
            ],
        )
        .is_err());
        // An invalid window config is caught by validate().
        assert!(TenantSpec::from_params(
            &defaults(),
            Quotas::default(),
            &[("capacity".to_owned(), "2".to_owned())],
        )
        .is_err());
    }

    #[test]
    fn quotas_round_trip_through_snapshot_extras() {
        let spec = TenantSpec {
            config: defaults(),
            quotas: Quotas {
                max_events_per_sec: Some(500),
                max_points: Some(10_000),
                max_conns: None,
            },
        };
        let extras = spec.extras("alpha");
        assert!(extras.contains(&("tenant".to_owned(), "alpha".to_owned())));

        // Build a minimal snapshot carrying the extras and recover.
        let snap = WindowSnapshot {
            metric_tag: "euclidean".to_owned(),
            config: spec.config.clone(),
            dims: 0,
            warming: true,
            points: Vec::new(),
            arrivals: Vec::new(),
            next_seq: 0,
            next_arrival: 0,
            stats: Default::default(),
            extras,
        };
        assert_eq!(snap.extra("tenant"), Some("alpha"));
        assert_eq!(TenantSpec::quotas_from_snapshot(&snap), spec.quotas);
    }
}

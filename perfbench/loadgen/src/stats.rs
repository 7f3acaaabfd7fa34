//! The load generator's own arithmetic: percentiles, throughput, `/metrics`
//! deltas and the unattributed share. Kept free of I/O so the unit tests
//! below can pin it on canned inputs.

use ukc_json::Json;

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// closest ranks. `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median, or 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// How many samples lie strictly above the `q`-quantile: a tail
/// percentile is only worth gating with at least ten of them.
pub fn samples_beyond(values: &[f64], q: f64) -> usize {
    match percentile(values, q) {
        Some(p) => values.iter().filter(|&&v| v > p).count(),
        None => 0,
    }
}

/// Completed operations per second of wall time.
pub fn throughput(completed: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        completed as f64 / seconds
    } else {
        0.0
    }
}

/// The `/metrics` counters the benchmark reconciles against its own
/// client-side counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    pub solves_ok: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub waves: f64,
    pub wave_jobs: f64,
    pub pool_tasks: f64,
    pub pool_chunks: f64,
    pub ingest_accepted: f64,
    pub ingest_rejected: f64,
}

impl Counters {
    /// Reads the counters out of a `/metrics` document.
    pub fn parse(text: &str) -> Result<Counters, String> {
        let doc = Json::parse(text).map_err(|e| format!("/metrics is not JSON: {e}"))?;
        let num = |path: &[&str]| -> Result<f64, String> {
            let mut node = &doc;
            for key in path {
                node = node
                    .get(key)
                    .ok_or_else(|| format!("/metrics has no {}", path.join(".")))?;
            }
            node.as_f64()
                .ok_or_else(|| format!("/metrics {} is not a number", path.join(".")))
        };
        Ok(Counters {
            solves_ok: num(&["solves", "ok"])?,
            cache_hits: num(&["cache", "hits"])?,
            cache_misses: num(&["cache", "misses"])?,
            waves: num(&["scheduler", "waves"])?,
            wave_jobs: num(&["scheduler", "wave_jobs"])?,
            pool_tasks: num(&["pool", "tasks"])?,
            pool_chunks: num(&["pool", "chunks"])?,
            ingest_accepted: num(&["ingest", "accepted"])?,
            ingest_rejected: num(&["ingest", "rejected"])?,
        })
    }

    /// What happened between two scrapes.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            solves_ok: self.solves_ok - before.solves_ok,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            waves: self.waves - before.waves,
            wave_jobs: self.wave_jobs - before.wave_jobs,
            pool_tasks: self.pool_tasks - before.pool_tasks,
            pool_chunks: self.pool_chunks - before.pool_chunks,
            ingest_accepted: self.ingest_accepted - before.ingest_accepted,
            ingest_rejected: self.ingest_rejected - before.ingest_rejected,
        }
    }

    /// Hits over cache lookups that ended in a hit or a filled miss.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }

    /// Scheduler jobs per wave.
    pub fn jobs_per_wave(&self) -> f64 {
        ratio(self.wave_jobs, self.waves)
    }

    /// Pool chunks per pool task.
    pub fn chunks_per_task(&self) -> f64 {
        ratio(self.pool_chunks, self.pool_tasks)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One op class for attribution: how many ops it had, their client-side
/// median, and the sum of the layer medians the trace attributes to it.
#[derive(Clone, Copy, Debug)]
pub struct Attribution {
    pub count: usize,
    pub client_p50_ms: f64,
    pub attributed_ms: f64,
}

impl Attribution {
    /// `1 − attributed / client` for this class alone.
    pub fn unattributed_share(&self) -> f64 {
        1.0 - ratio(self.attributed_ms, self.client_p50_ms)
    }
}

/// `1 − attributed / client` over several op classes, each weighted by
/// its op count: the share of client time no measured layer accounts for.
pub fn unattributed_share(classes: &[Attribution]) -> f64 {
    let client: f64 = classes
        .iter()
        .map(|c| c.count as f64 * c.client_p50_ms)
        .sum();
    let attributed: f64 = classes
        .iter()
        .map(|c| c.count as f64 * c.attributed_ms)
        .sum();
    1.0 - ratio(attributed, client)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert!(close(percentile(&v, 0.9).unwrap(), 4.6));
        assert!(close(median(&[1.0, 2.0, 3.0, 10.0]), 2.5));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_sample_counts() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 = 90.1; 91..=100 lie beyond it.
        assert_eq!(samples_beyond(&v, 0.9), 10);
        assert_eq!(samples_beyond(&v[..20], 0.9), 2);
        assert_eq!(samples_beyond(&[], 0.9), 0);
    }

    #[test]
    fn throughput_is_ops_over_seconds() {
        assert!(close(throughput(250, 10.0), 25.0));
        assert!(close(throughput(3, 0.5), 6.0));
        assert_eq!(throughput(10, 0.0), 0.0);
    }

    const BEFORE: &str = r#"{"requests": {"healthz": 1},
        "cache": {"hits": 4, "misses": 1, "hit_rate": 0.8, "size": 1, "capacity": 256},
        "scheduler": {"waves": 2, "wave_jobs": 2, "coalesced_jobs": 0, "overloaded": 0},
        "pool": {"workers": 1, "busy": 0, "queued_chunks": 0, "tasks": 10, "chunks": 40, "waves": 0},
        "solves": {"ok": 2, "errors": 0},
        "ingest": {"accepted": 5, "rejected": 0, "stale_served": 0}}"#;
    const AFTER: &str = r#"{"requests": {"healthz": 9},
        "cache": {"hits": 44, "misses": 11, "hit_rate": 0.8, "size": 11, "capacity": 256},
        "scheduler": {"waves": 10, "wave_jobs": 14, "coalesced_jobs": 0, "overloaded": 0},
        "pool": {"workers": 1, "busy": 0, "queued_chunks": 0, "tasks": 30, "chunks": 160, "waves": 3},
        "solves": {"ok": 12, "errors": 0},
        "ingest": {"accepted": 25, "rejected": 1, "stale_served": 0}}"#;

    #[test]
    fn metrics_deltas_parse_and_subtract() {
        let before = Counters::parse(BEFORE).unwrap();
        let after = Counters::parse(AFTER).unwrap();
        let d = after.since(&before);
        assert_eq!(d.solves_ok, 10.0);
        assert_eq!(d.cache_hits, 40.0);
        assert_eq!(d.cache_misses, 10.0);
        assert!(close(d.hit_rate(), 0.8));
        assert!(close(d.jobs_per_wave(), 1.5));
        assert!(close(d.chunks_per_task(), 6.0));
        assert_eq!(d.ingest_accepted, 20.0);
        assert_eq!(d.ingest_rejected, 1.0);
        assert_eq!(Counters::default().hit_rate(), 0.0);
    }

    #[test]
    fn metrics_parse_names_the_missing_counter() {
        let err = Counters::parse(r#"{"cache": {"hits": 1}}"#).unwrap_err();
        assert!(err.contains("solves.ok"), "{err}");
        assert!(Counters::parse("not json").is_err());
    }

    #[test]
    fn unattributed_share_weights_classes_by_count() {
        let miss = Attribution {
            count: 10,
            client_p50_ms: 40.0,
            attributed_ms: 30.0,
        };
        let hit = Attribution {
            count: 40,
            client_p50_ms: 2.0,
            attributed_ms: 1.0,
        };
        assert!(close(miss.unattributed_share(), 0.25));
        assert!(close(hit.unattributed_share(), 0.5));
        // (10·40 + 40·2) = 480 client ms, (10·30 + 40·1) = 340 attributed.
        assert!(close(unattributed_share(&[miss, hit]), 1.0 - 340.0 / 480.0));
        assert_eq!(unattributed_share(&[]), 1.0);
    }
}

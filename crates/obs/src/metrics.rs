//! Metrics registry (counters and gauges) and log-bucketed latency
//! histograms.
//!
//! Series are keyed by `(name, sorted labels)` in a `BTreeMap`, so the
//! Prometheus-text rendering is byte-stable for deterministic inputs —
//! the property the `StatsRequest` wire snapshot relies on. Histograms
//! bucket multiplicatively (factor [`HISTOGRAM_GROWTH`] ≈ 1.19), which
//! bounds any reported percentile to within one bucket width of the
//! exact nearest-rank value.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Multiplicative bucket growth factor (2^(1/4)): every reported
/// percentile is within ×1.19 of the exact nearest-rank sample.
pub const HISTOGRAM_GROWTH: f64 = 1.189_207_115_002_721;

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Log-bucketed histogram with nearest-rank percentile estimation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Bucket index → count. Index `i` covers `(g^i, g^(i+1)]`;
    /// `i64::MIN` is the underflow bucket for values ≤ 0.
    buckets: BTreeMap<i64, u64>,
    count: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    fn bucket_index(v: f64) -> i64 {
        if v <= 0.0 || !v.is_finite() {
            return i64::MIN;
        }
        (v.ln() / HISTOGRAM_GROWTH.ln()).floor() as i64
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        *self.buckets.entry(Self::bucket_index(v)).or_insert(0) += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile estimate for `p` in `[0, 100]`.
    ///
    /// Returns the upper bound of the bucket holding the nearest-rank
    /// sample, clamped to the observed maximum — so the result `r`
    /// satisfies `exact ≤ r ≤ exact × HISTOGRAM_GROWTH`.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (&idx, &n) in &self.buckets {
            cumulative += n;
            if cumulative >= rank {
                if idx == i64::MIN {
                    return self.min.min(0.0);
                }
                let upper = HISTOGRAM_GROWTH.powi((idx + 1) as i32);
                return upper.min(self.max);
            }
        }
        self.max
    }
}

/// Convenience wrapper for latency summaries in milliseconds —
/// the shared replacement for hand-rolled sorted-vector percentiles.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    hist: Histogram,
}

impl LatencySummary {
    /// An empty summary.
    pub fn new() -> LatencySummary {
        LatencySummary::default()
    }

    /// Record one latency in milliseconds.
    pub fn observe_ms(&mut self, ms: f64) {
        self.hist.observe(ms);
    }

    /// Number of recorded latencies.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Percentile estimate in milliseconds (see [`Histogram::percentile`]).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.hist.percentile(p)
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

#[derive(Debug, Clone, PartialEq)]
enum SeriesValue {
    Counter(u64),
    Gauge(f64),
}

impl SeriesValue {
    fn type_str(&self) -> &'static str {
        match self {
            SeriesValue::Counter(_) => "counter",
            SeriesValue::Gauge(_) => "gauge",
        }
    }
}

/// Which series a snapshot exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsScope {
    /// Every series.
    All,
    /// Series labelled with this tenant id, plus series carrying no
    /// `tenant` label at all (global shard health).
    Tenant(u64),
}

/// Thread-safe registry of named, labelled metric series.
#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<BTreeMap<SeriesKey, SeriesValue>>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    SeriesKey {
        name: name.to_string(),
        labels,
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `delta` to a counter, creating it at 0 first if absent.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let mut series = relock(&self.series);
        let entry = series
            .entry(key(name, labels))
            .or_insert(SeriesValue::Counter(0));
        match entry {
            SeriesValue::Counter(c) => *c = c.saturating_add(delta),
            other => *other = SeriesValue::Counter(delta),
        }
    }

    /// Set a counter to an absolute value taken from an external
    /// monotonic source (e.g. a flushed `Metrics` struct). The stored
    /// value never decreases, keeping the series monotonic across
    /// repeated flushes.
    pub fn counter_set(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        let mut series = relock(&self.series);
        let entry = series
            .entry(key(name, labels))
            .or_insert(SeriesValue::Counter(0));
        match entry {
            SeriesValue::Counter(c) => *c = (*c).max(value),
            other => *other = SeriesValue::Counter(value),
        }
    }

    /// Set a gauge.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let mut series = relock(&self.series);
        series.insert(key(name, labels), SeriesValue::Gauge(value));
    }

    /// Current value of a counter series (0 if absent). For tests and
    /// report plumbing.
    pub fn get_counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match relock(&self.series).get(&key(name, labels)) {
            Some(SeriesValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Render the registry as Prometheus text format.
    ///
    /// Series are emitted in sorted `(name, labels)` order with one
    /// `# TYPE` line per metric name, so two registries holding the
    /// same values render byte-identically.
    pub fn render(&self, scope: StatsScope) -> String {
        let series = relock(&self.series);
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (k, v) in series.iter() {
            if !Self::in_scope(k, scope) {
                continue;
            }
            if last_name != Some(k.name.as_str()) {
                out.push_str("# TYPE ");
                out.push_str(&k.name);
                out.push(' ');
                out.push_str(v.type_str());
                out.push('\n');
                last_name = Some(k.name.as_str());
            }
            let value = match v {
                SeriesValue::Counter(c) => c.to_string(),
                SeriesValue::Gauge(g) => crate::trace::format_f64(*g),
            };
            render_sample(&mut out, &k.name, &k.labels, &value);
        }
        out
    }

    fn in_scope(k: &SeriesKey, scope: StatsScope) -> bool {
        match scope {
            StatsScope::All => true,
            StatsScope::Tenant(t) => match k.labels.iter().find(|(name, _)| name == "tenant") {
                None => true,
                Some((_, v)) => *v == t.to_string(),
            },
        }
    }
}

fn render_sample(out: &mut String, name: &str, labels: &[(String, String)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_track_nearest_rank_within_one_bucket() {
        let mut h = Histogram::new();
        let mut samples: Vec<f64> = Vec::new();
        let mut x = 1u64;
        for i in 0..1000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 0.1 + (x >> 40) as f64 / 1000.0 + (i as f64) * 0.003;
            samples.push(v);
            h.observe(v);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [50.0, 90.0, 99.0, 99.9] {
            let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
            let exact = samples[rank - 1];
            let est = h.percentile(p);
            assert!(
                est >= exact - 1e-12 && est <= exact * HISTOGRAM_GROWTH + 1e-12,
                "p{p}: exact {exact}, est {est}"
            );
        }
    }

    #[test]
    fn render_is_sorted_and_scoped() {
        let r = Registry::new();
        r.counter_add("pds_requests_total", &[("tenant", "2"), ("shard", "0")], 3);
        r.counter_add("pds_requests_total", &[("tenant", "1"), ("shard", "0")], 5);
        r.gauge_set("pds_up", &[("shard", "0")], 1.0);
        let all = r.render(StatsScope::All);
        assert!(all.contains("# TYPE pds_requests_total counter"));
        let t1 = r.render(StatsScope::Tenant(1));
        assert!(t1.contains("tenant=\"1\""), "{t1}");
        assert!(!t1.contains("tenant=\"2\""), "{t1}");
        assert!(t1.contains("pds_up"), "global series stay visible: {t1}");
        let t1_again = r.render(StatsScope::Tenant(1));
        assert_eq!(t1, t1_again, "rendering must be byte-stable");
    }

    #[test]
    fn counter_set_is_monotonic() {
        let r = Registry::new();
        r.counter_set("c", &[], 10);
        r.counter_set("c", &[], 7);
        assert_eq!(r.get_counter("c", &[]), 10);
        r.counter_set("c", &[], 12);
        assert_eq!(r.get_counter("c", &[]), 12);
    }
}

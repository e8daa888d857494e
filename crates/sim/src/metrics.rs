//! Machine-wide metrics: named counter sets for hot-path components and
//! a hierarchical registry snapshotted to one stable JSON schema.
//!
//! Components that sit on the simulation hot path (the NIC, the mesh)
//! own a [`MetricSet`] — a flat, index-addressed vector of named
//! counters. Incrementing through a [`CounterId`] is one bounds-checked
//! saturating add, cheap enough for per-packet accounting, and the set
//! is `Clone` so cloned machines keep independent statistics.
//!
//! At observation time the machine gathers every component's metrics
//! into a [`MetricsRegistry`] under hierarchical dotted names
//! (`nic0.fifo.in.occupancy`, `mesh.link.3-4.util`,
//! `nic0.retx.timeouts`) and takes a [`MetricsSnapshot`], which
//! serializes to the `shrimp.metrics.v1` JSON schema every benchmark
//! binary emits:
//!
//! ```json
//! {"schema":"shrimp.metrics.v1","entries":{
//!    "nic0.packets_sent":{"type":"counter","value":8},
//!    "mesh.link.0-1.util":{"type":"gauge","value":0.25},
//!    "latency.e2e":{"type":"histogram","count":40,"min":941,"max":1532,
//!                   "mean":1101.5,"p50":1024,"p95":2048,"p99":2048}}}
//! ```
//!
//! # Examples
//!
//! ```
//! use shrimp_sim::metrics::{MetricsRegistry, MetricsSnapshot};
//!
//! let mut reg = MetricsRegistry::new();
//! reg.set_counter("nic0.retx.timeouts", 3);
//! reg.set_gauge("mesh.link.0-1.util", 0.5);
//! let snap = reg.snapshot();
//! let parsed = MetricsSnapshot::parse_json(&snap.to_json()).unwrap();
//! assert_eq!(parsed, snap);
//! assert_eq!(parsed.counter("nic0.retx.timeouts"), Some(3));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{write_escaped, write_f64, JsonError, Value};
use crate::stats::Histogram;

/// Handle to one counter inside a [`MetricSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// A flat set of named counters owned by one component.
///
/// # Examples
///
/// ```
/// use shrimp_sim::metrics::MetricSet;
///
/// let mut set = MetricSet::new();
/// let sent = set.counter("packets_sent");
/// set.incr(sent);
/// set.add(sent, 2);
/// assert_eq!(set.get(sent), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    counters: Vec<(&'static str, u64)>,
}

impl MetricSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Registers a counter (or returns the existing handle for `name`).
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == name) {
            return CounterId(i as u32);
        }
        self.counters.push((name, 0));
        CounterId((self.counters.len() - 1) as u32)
    }

    /// Adds one, saturating.
    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Adds `n`, saturating.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        let v = &mut self.counters[id.0 as usize].1;
        *v = v.saturating_add(n);
    }

    /// Current value of a counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize].1
    }

    /// Looks a counter up by name (snapshot-time convenience).
    pub fn value_of(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// All `(name, value)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }
}

/// A fixed-point view of one histogram for snapshots: counts plus the
/// power-of-two percentile upper bounds from [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Upper bound on the median.
    pub p50: u64,
    /// Upper bound on the 95th percentile.
    pub p95: u64,
    /// Upper bound on the 99th percentile.
    pub p99: u64,
}

impl From<&Histogram> for HistogramSummary {
    fn from(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            mean: h.mean().unwrap_or(0.0),
            p50: h.p50().unwrap_or(0),
            p95: h.p95().unwrap_or(0),
            p99: h.p99().unwrap_or(0),
        }
    }
}

/// One registered metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic count.
    Counter(u64),
    /// An instantaneous measurement (utilization, rate).
    Gauge(f64),
    /// A distribution summary.
    Histogram(HistogramSummary),
}

/// The machine-wide registry: hierarchical dotted names → values.
///
/// Components register at snapshot time (the machine walks its parts),
/// so the registry never sits on the simulation hot path.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers a counter under `name`.
    pub fn set_counter(&mut self, name: impl Into<String>, value: u64) {
        self.entries.insert(name.into(), MetricValue::Counter(value));
    }

    /// Registers a gauge under `name`.
    pub fn set_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.entries.insert(name.into(), MetricValue::Gauge(value));
    }

    /// Registers a histogram summary under `name`.
    pub fn set_histogram(&mut self, name: impl Into<String>, h: &Histogram) {
        self.entries
            .insert(name.into(), MetricValue::Histogram(HistogramSummary::from(h)));
    }

    /// Registers every counter of a [`MetricSet`] as `{prefix}.{name}`.
    pub fn extend_set(&mut self, prefix: &str, set: &MetricSet) {
        for (name, value) in set.iter() {
            self.set_counter(format!("{prefix}.{name}"), value);
        }
    }

    /// Freezes the registry into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self.entries.clone(),
        }
    }
}

/// An immutable, name-sorted view of every registered metric.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// All entries in name order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &MetricValue)> + '_ {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A counter's value, if `name` names a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// A gauge's value, if `name` names a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// A histogram summary, if `name` names a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Serializes to the stable `shrimp.metrics.v1` schema (keys sorted,
    /// one line), writing straight into one pre-sized string.
    pub fn to_json(&self) -> String {
        let size: usize = self
            .entries
            .iter()
            .map(|(name, value)| {
                name.len()
                    + match value {
                        MetricValue::Counter(_) | MetricValue::Gauge(_) => 56,
                        MetricValue::Histogram(_) => 160,
                    }
            })
            .sum();
        // Sizes of typical entries; the string still grows if a long
        // number or an escaped name overruns them.
        let mut out = String::with_capacity(48 + size);
        out.push_str(r#"{"schema":"shrimp.metrics.v1","entries":{"#);
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, name);
            match value {
                MetricValue::Counter(n) => {
                    let _ = write!(out, r#":{{"type":"counter","value":{n}}}"#);
                }
                MetricValue::Gauge(g) => {
                    out.push_str(r#":{"type":"gauge","value":"#);
                    write_f64(&mut out, *g);
                    out.push('}');
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        r#":{{"type":"histogram","count":{},"min":{},"max":{},"mean":"#,
                        h.count, h.min, h.max
                    );
                    write_f64(&mut out, h.mean);
                    let _ = write!(out, r#","p50":{},"p95":{},"p99":{}}}"#, h.p50, h.p95, h.p99);
                }
            }
        }
        out.push_str("}}");
        out
    }

    /// Parses a `shrimp.metrics.v1` document back into a snapshot.
    pub fn parse_json(text: &str) -> Result<MetricsSnapshot, JsonError> {
        let bad = |message: &str| JsonError {
            message: message.to_string(),
            offset: 0,
        };
        let doc = Value::parse(text)?;
        if doc.get("schema").and_then(Value::as_str) != Some("shrimp.metrics.v1") {
            return Err(bad("missing or unknown schema tag"));
        }
        let mut entries = BTreeMap::new();
        for (name, entry) in doc
            .get("entries")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("missing entries object"))?
        {
            let kind = entry
                .get("type")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("entry missing type"))?;
            let value = match kind {
                "counter" => MetricValue::Counter(
                    entry
                        .get("value")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| bad("counter missing value"))?,
                ),
                "gauge" => MetricValue::Gauge(
                    entry
                        .get("value")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| bad("gauge missing value"))?,
                ),
                "histogram" => {
                    let field_u64 = |f: &str| {
                        entry
                            .get(f)
                            .and_then(Value::as_u64)
                            .ok_or_else(|| bad(&format!("histogram missing {f}")))
                    };
                    MetricValue::Histogram(HistogramSummary {
                        count: field_u64("count")?,
                        min: field_u64("min")?,
                        max: field_u64("max")?,
                        mean: entry
                            .get("mean")
                            .and_then(Value::as_f64)
                            .ok_or_else(|| bad("histogram missing mean"))?,
                        p50: field_u64("p50")?,
                        p95: field_u64("p95")?,
                        p99: field_u64("p99")?,
                    })
                }
                other => return Err(bad(&format!("unknown metric type `{other}`"))),
            };
            if entries.insert(name.clone(), value).is_some() {
                return Err(bad(&format!("duplicate metric name `{name}`")));
            }
        }
        Ok(MetricsSnapshot { entries })
    }
}

/// Lints a `shrimp.metrics.v1` document: the schema tag must be
/// present, counters non-negative (enforced structurally by the u64
/// parse), gauges finite, and histogram summaries internally
/// consistent (monotone `p50 ≤ p95 ≤ p99` bounds, `min ≤ max`, an
/// empty histogram all-zero, a non-empty one with `min ≤ mean ≤ max`).
/// Returns the number of entries checked. Every bench binary runs this
/// before writing `BENCH_*.metrics.json`, and CI re-runs it on the
/// emitted files.
pub fn validate_metrics_json(text: &str) -> Result<usize, String> {
    let snap = MetricsSnapshot::parse_json(text).map_err(|e| e.message)?;
    for (name, value) in snap.entries() {
        match value {
            MetricValue::Counter(_) => {}
            MetricValue::Gauge(g) => {
                if !g.is_finite() {
                    return Err(format!("gauge `{name}` is not finite: {g}"));
                }
            }
            MetricValue::Histogram(h) => {
                if h.min > h.max {
                    return Err(format!("histogram `{name}` has min {} > max {}", h.min, h.max));
                }
                if h.p50 > h.p95 || h.p95 > h.p99 {
                    return Err(format!(
                        "histogram `{name}` percentile bounds not monotone: p50={} p95={} p99={}",
                        h.p50, h.p95, h.p99
                    ));
                }
                if !h.mean.is_finite() {
                    return Err(format!("histogram `{name}` mean is not finite"));
                }
                if h.count == 0 {
                    if h.min != 0 || h.max != 0 || h.mean != 0.0 {
                        return Err(format!("histogram `{name}` is empty but has nonzero bounds"));
                    }
                } else if h.mean < h.min as f64 - 1e-9 || h.mean > h.max as f64 + 1e-9 {
                    return Err(format!(
                        "histogram `{name}` mean {} outside [{}, {}]",
                        h.mean, h.min, h.max
                    ));
                }
            }
        }
    }
    Ok(snap.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_set_handles_are_stable_and_saturating() {
        let mut set = MetricSet::new();
        let a = set.counter("a");
        let b = set.counter("b");
        assert_eq!(set.counter("a"), a, "re-registration returns the same id");
        set.add(a, u64::MAX - 1);
        set.incr(a);
        set.incr(a);
        set.incr(b);
        assert_eq!(set.get(a), u64::MAX);
        assert_eq!(set.get(b), 1);
        assert_eq!(set.value_of("a"), Some(u64::MAX));
        assert_eq!(set.value_of("missing"), None);
    }

    #[test]
    fn snapshot_json_round_trips_every_metric_kind() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("nic0.packets_sent", 8);
        reg.set_counter("nic0.retx.timeouts", 0);
        reg.set_gauge("mesh.link.3-4.util", 0.125);
        reg.set_gauge("machine.rate", 33_000_000.5);
        let mut h = Histogram::new();
        for v in [900u64, 1000, 1100, 5000] {
            h.record(v);
        }
        reg.set_histogram("latency.e2e", &h);
        reg.set_histogram("latency.empty", &Histogram::new());

        let snap = reg.snapshot();
        let text = snap.to_json();
        let parsed = MetricsSnapshot::parse_json(&text).unwrap();
        assert_eq!(parsed, snap, "serialize → parse must be the identity");
        assert_eq!(parsed.counter("nic0.packets_sent"), Some(8));
        assert_eq!(parsed.gauge("mesh.link.3-4.util"), Some(0.125));
        let e2e = parsed.histogram("latency.e2e").unwrap();
        assert_eq!((e2e.count, e2e.min, e2e.max), (4, 900, 5000));
        assert_eq!(e2e.mean, 2000.0);
    }

    /// The exact bytes of the `shrimp.metrics.v1` writer, pinned: every
    /// determinism test compares `to_json` output, so a change here is a
    /// change to every published metrics file.
    #[test]
    fn snapshot_json_bytes_are_pinned() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("c.max", u64::MAX);
        reg.set_gauge("g.finite", 0.1);
        reg.set_gauge("g.nan", f64::NAN);
        reg.set_histogram("h.empty", &Histogram::new());
        let mut h = Histogram::new();
        for v in [3u64, 7, 1000] {
            h.record(v);
        }
        reg.set_histogram("h.full", &h);
        reg.set_counter("name \"quoted\"\\\n\u{1}é", 2);
        let want = concat!(
            r#"{"schema":"shrimp.metrics.v1","entries":{"#,
            r#""c.max":{"type":"counter","value":18446744073709551615},"#,
            r#""g.finite":{"type":"gauge","value":0.1},"#,
            r#""g.nan":{"type":"gauge","value":null},"#,
            r#""h.empty":{"type":"histogram","count":0,"min":0,"max":0,"mean":0.0,"#,
            r#""p50":0,"p95":0,"p99":0},"#,
            r#""h.full":{"type":"histogram","count":3,"min":3,"max":1000,"#,
            r#""mean":336.6666666666667,"p50":8,"p95":1024,"p99":1024},"#,
            r#""name \"quoted\"\\\n\u0001é":{"type":"counter","value":2}}}"#,
        );
        assert_eq!(reg.snapshot().to_json(), want);
    }

    #[test]
    fn snapshot_percentiles_match_known_distribution() {
        // 1000 samples 1..=1000: the power-of-two upper bounds are
        // p50 → 512, p95 → 1024, p99 → 1024.
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let mut reg = MetricsRegistry::new();
        reg.set_histogram("d", &h);
        let s = reg.snapshot();
        let d = s.histogram("d").unwrap();
        assert_eq!(d.p50, 512);
        assert_eq!(d.p95, 1024);
        assert_eq!(d.p99, 1024);
        assert!(d.p50 >= 500 && d.p95 >= 950 && d.p99 >= 990);
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(MetricsSnapshot::parse_json("{}").is_err());
        assert!(MetricsSnapshot::parse_json("{\"schema\":\"other\",\"entries\":{}}").is_err());
        assert!(MetricsSnapshot::parse_json(
            "{\"schema\":\"shrimp.metrics.v1\",\"entries\":{\"x\":{\"type\":\"nope\"}}}"
        )
        .is_err());
    }

    #[test]
    fn parse_rejects_duplicate_metric_names() {
        let twice = "{\"schema\":\"shrimp.metrics.v1\",\"entries\":{\
                     \"c\":{\"type\":\"counter\",\"value\":1},\
                     \"c\":{\"type\":\"counter\",\"value\":2}}}";
        let err = MetricsSnapshot::parse_json(twice).unwrap_err();
        assert!(err.message.contains("duplicate metric name `c`"), "{err}");
        assert!(validate_metrics_json(twice).is_err());
    }

    #[test]
    fn validate_accepts_every_emitted_shape() {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("c", 0);
        reg.set_counter("engine.windows.closed", u64::MAX);
        reg.set_gauge("g", -1.5);
        let mut h = Histogram::new();
        h.record(1);
        h.record(100);
        reg.set_histogram("h", &h);
        reg.set_histogram("empty", &Histogram::new());
        let n = validate_metrics_json(&reg.snapshot().to_json()).unwrap();
        assert_eq!(n, 5);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        // Foreign schema.
        assert!(validate_metrics_json("{\"schema\":\"other\",\"entries\":{}}").is_err());
        // Negative counter (fails the u64 parse).
        assert!(validate_metrics_json(
            "{\"schema\":\"shrimp.metrics.v1\",\"entries\":{\"c\":{\"type\":\"counter\",\"value\":-3}}}"
        )
        .is_err());
        // Non-monotone percentile bounds.
        let bad_hist = "{\"schema\":\"shrimp.metrics.v1\",\"entries\":{\"h\":{\"type\":\"histogram\",\
                        \"count\":2,\"min\":1,\"max\":8,\"mean\":4.0,\"p50\":8,\"p95\":4,\"p99\":8}}}";
        assert!(validate_metrics_json(bad_hist).unwrap_err().contains("not monotone"));
        // min above max.
        let inverted = "{\"schema\":\"shrimp.metrics.v1\",\"entries\":{\"h\":{\"type\":\"histogram\",\
                        \"count\":2,\"min\":9,\"max\":8,\"mean\":8.5,\"p50\":8,\"p95\":8,\"p99\":16}}}";
        assert!(validate_metrics_json(inverted).unwrap_err().contains("min"));
        // Empty histogram with leftover bounds.
        let ghost = "{\"schema\":\"shrimp.metrics.v1\",\"entries\":{\"h\":{\"type\":\"histogram\",\
                     \"count\":0,\"min\":1,\"max\":2,\"mean\":1.5,\"p50\":0,\"p95\":0,\"p99\":0}}}";
        assert!(validate_metrics_json(ghost).unwrap_err().contains("empty"));
    }

    #[test]
    fn extend_set_prefixes_names() {
        let mut set = MetricSet::new();
        let c = set.counter("crc_drops");
        set.add(c, 2);
        let mut reg = MetricsRegistry::new();
        reg.extend_set("nic3", &set);
        assert_eq!(reg.snapshot().counter("nic3.crc_drops"), Some(2));
    }
}

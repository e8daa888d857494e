//! Property-based tests of the simulation kernel.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use shrimp_sim::json::Value;
use shrimp_sim::{
    validate_metrics_json, BandwidthResource, EventQueue, Histogram, MetricsRegistry,
    MetricsSnapshot, SerialResource, SimDuration, SimTime,
};

/// The tokens that steer the JSON parser's state machine.
const JSON_TOKENS: [&str; 22] = [
    "[", "]", "{", "}", "\"", "\\", "u", ":", ",", "0", "1", "2", "3", "4", "5", "6", "7", "8",
    "9", "e", "-", ".",
];

/// Characters metric names are drawn from: plain, escaped and multi-byte.
const NAME_CHARS: [char; 10] = ['a', 'z', '.', '_', '"', '\\', '\n', '\u{1}', 'é', '✓'];

/// A registry built from generated `(name, kind, value, samples)` tuples.
fn registry(entries: &[(Vec<usize>, u8, u64, Vec<u64>)]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for (name, kind, value, samples) in entries {
        let name: String = name.iter().map(|&i| NAME_CHARS[i]).collect();
        match kind {
            0 => reg.set_counter(name, *value),
            1 => {
                let g = f64::from_bits(*value);
                reg.set_gauge(name, if g.is_finite() { g } else { 0.0 });
            }
            _ => {
                let mut h = Histogram::new();
                for &s in samples {
                    h.record(s);
                }
                reg.set_histogram(name, &h);
            }
        }
    }
    reg
}

proptest! {
    /// A serialized resource never double-books: grants are disjoint,
    /// ordered, and total busy time equals the sum of requested
    /// durations.
    #[test]
    fn serial_resource_grants_are_disjoint(
        reqs in prop::collection::vec((0u64..10_000, 1u64..500), 1..100),
    ) {
        let mut r = SerialResource::new();
        let mut grants = Vec::new();
        let mut total = 0u64;
        for (at, dur) in reqs {
            let g = r.reserve(SimTime::from_picos(at), SimDuration::from_picos(dur));
            prop_assert!(g.start >= SimTime::from_picos(at));
            prop_assert_eq!(g.end.since(g.start).as_picos(), dur);
            grants.push(g);
            total += dur;
        }
        for w in grants.windows(2) {
            prop_assert!(w[1].start >= w[0].end, "grants must not overlap");
        }
        prop_assert_eq!(r.busy_total().as_picos(), total);
    }

    /// Bandwidth durations are monotone in payload size and additive
    /// within rounding.
    #[test]
    fn bandwidth_duration_monotone(rate in 1u64..1_000_000_000, a in 1u64..100_000, b in 1u64..100_000) {
        let r = BandwidthResource::new(rate, SimDuration::ZERO);
        let (small, large) = (a.min(b), a.max(b));
        prop_assert!(r.duration_of(small) <= r.duration_of(large));
        // duration(a+b) <= duration(a) + duration(b) (ceil rounding).
        prop_assert!(r.duration_of(a + b) <= r.duration_of(a) + r.duration_of(b));
    }

    /// The event queue is a stable priority queue under any push/pop
    /// interleaving (checked against a reference model).
    #[test]
    fn event_queue_matches_reference(ops in prop::collection::vec(prop::option::of(0u64..100), 1..300)) {
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, usize)> = Vec::new(); // (time, seq)
        let mut seq = 0usize;
        for op in ops {
            match op {
                Some(t) => {
                    q.push(SimTime::from_picos(t), seq);
                    model.push((t, seq));
                    seq += 1;
                }
                None => {
                    // Reference pop: earliest time, lowest seq.
                    model.sort_by_key(|&(t, s)| (t, s));
                    let expect = if model.is_empty() { None } else { Some(model.remove(0)) };
                    let got = q.pop().map(|(t, s)| (t.as_picos(), s));
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
    }

    /// The calendar queue pops in exactly the same (time, FIFO-tie)
    /// order as the binary-heap `EventQueue` over arbitrary push/pop
    /// interleavings, including past-time pushes and far-future
    /// overflow relative to the bucket horizon.
    #[test]
    fn calendar_matches_binary_heap(
        // `Some(t)` pushes at time t, `None` pops.
        ops in prop::collection::vec(prop::option::of(0u64..200_000), 1..300),
        width in 1u64..5_000,
    ) {
        let mut cal = shrimp_sim::CalendarQueue::with_bucket_width(width);
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut seq = 0u64;
        for op in ops {
            match op {
                Some(t) => {
                    cal.push(SimTime::from_picos(t), seq, seq);
                    heap.push(SimTime::from_picos(t), seq);
                    seq += 1;
                }
                None => {
                    let got = cal.pop().map(|(t, _, e)| (t, e));
                    let want = heap.pop();
                    prop_assert_eq!(got, want);
                }
            }
        }
        loop {
            let got = cal.pop().map(|(t, _, e)| (t, e));
            let want = heap.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
        prop_assert!(cal.is_empty());
    }

    /// Histogram statistics match a direct computation for any samples.
    #[test]
    fn histogram_matches_direct(samples in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), samples.iter().min().copied());
        prop_assert_eq!(h.max(), samples.iter().max().copied());
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean().unwrap() - mean).abs() < 1e-6);
        // The quantile upper bound really bounds the true quantile.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.1, 0.5, 0.9, 1.0] {
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            let bound = h.quantile_upper_bound(q).unwrap();
            prop_assert!(bound >= sorted[idx], "q={q}: bound {bound} < {}", sorted[idx]);
        }
    }

    /// The JSON parser and the metrics lint return `Ok` or `Err` and
    /// never panic, on arbitrary bytes, on token soup and on a valid
    /// metrics document with one byte replaced.
    #[test]
    fn json_parsing_is_total(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        soup in prop::collection::vec(0usize..JSON_TOKENS.len(), 0..200),
        (at, byte) in (any::<prop::sample::Index>(), any::<u8>()),
    ) {
        let soup: String = soup.iter().map(|&i| JSON_TOKENS[i]).collect();
        let entries = [(vec![0, 4, 8], 2u8, 0, vec![1, 9, 300]), (vec![1], 1, 7, vec![])];
        let mut mutated = registry(&entries).snapshot().to_json().into_bytes();
        let i = at.index(mutated.len());
        mutated[i] = byte;
        for text in [String::from_utf8_lossy(&bytes), soup.into(), String::from_utf8_lossy(&mutated)] {
            let _ = Value::parse(&text);
            let _ = validate_metrics_json(&text);
        }
    }

    /// Any snapshot survives `to_json` → `parse_json` unchanged, writes
    /// the same bytes the second time, and passes the lint.
    #[test]
    fn metrics_json_round_trips(
        entries in prop::collection::vec(
            (
                prop::collection::vec(0usize..NAME_CHARS.len(), 0..8),
                0u8..3,
                any::<u64>(),
                prop::collection::vec(0u64..1 << 40, 0..16),
            ),
            0..24,
        ),
    ) {
        let snap = registry(&entries).snapshot();
        let text = snap.to_json();
        let parsed = MetricsSnapshot::parse_json(&text);
        prop_assert!(parsed.is_ok(), "{:?} on {text}", parsed.err());
        let parsed = parsed.unwrap();
        prop_assert_eq!(&parsed, &snap);
        prop_assert_eq!(parsed.to_json(), text);
        prop_assert_eq!(validate_metrics_json(&text), Ok(snap.len()));
    }
}

/// A 100k-entry snapshot is written and linted in well under the bound;
/// a parser that rescans the rest of the document for every character
/// needs hours for a document this size.
#[test]
fn hundred_thousand_entry_export_is_linear() {
    let mut reg = MetricsRegistry::new();
    let mut h = Histogram::new();
    for v in [941u64, 1024, 1532] {
        h.record(v);
    }
    for i in 0..100_000u64 {
        match i % 3 {
            0 => reg.set_counter(format!("node{i}.nic.packets_sent"), i),
            1 => reg.set_gauge(format!("mesh.link.{i}-{}.util", i + 1), i as f64 / 7.0),
            _ => reg.set_histogram(format!("node{i}.latency.e2e"), &h),
        }
    }
    let snap = reg.snapshot();
    let t = Instant::now();
    let text = snap.to_json();
    let linted = validate_metrics_json(&text);
    let elapsed = t.elapsed();
    assert_eq!(linted, Ok(100_000));
    assert!(
        elapsed < Duration::from_secs(10),
        "to_json + lint of {} bytes took {elapsed:?}",
        text.len()
    );
}

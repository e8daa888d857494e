//! Host-speed probes: two fixed kernels of the benchmark's own code
//! that no change to the simulator can speed up or slow down.
//!
//! The container shares its cores with other tenants, and the same
//! simulator call runs up to twice as long while a neighbour is busy.
//! That slowdown lasts seconds and moves whole processes, so medians
//! alone do not remove it. Each timed call is therefore bracketed by
//! probe calls, and its host time is scaled by `reference / probe`:
//! the time the call would have taken at the probe's reference speed.
//! A probe is matched to the work it calibrates, because a busy
//! neighbour slows SIMD text scanning far more than branchy
//! event-queue code.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// A probe: its kernel and its time on a quiet 2-vCPU Xeon (Sapphire
/// Rapids) KVM guest, in seconds.
#[derive(Clone, Copy)]
pub struct Probe {
    kernel: fn(),
    reference_s: f64,
}

/// UTF-8 validation of a JSON-like buffer; calibrates the metrics
/// export, whose time is JSON building and linting.
pub const TEXT: Probe = Probe {
    kernel: text_kernel,
    reference_s: 1.2e-3,
};

/// A small discrete-event loop (binary-heap queue, per-node state,
/// an append-only log); calibrates the simulation runs.
pub const EVENTS: Probe = Probe {
    kernel: events_kernel,
    reference_s: 11.6e-3,
};

impl Probe {
    fn time(self) -> f64 {
        let t0 = Instant::now();
        (self.kernel)();
        t0.elapsed().as_secs_f64()
    }

    /// Runs `f` between `reps` probe calls on each side. Returns the
    /// host time of `f`, that time scaled to the reference speed by
    /// the median probe time, and `f`'s result.
    pub fn timed<T>(self, reps: usize, f: impl FnOnce() -> T) -> (f64, f64, T) {
        let mut probes: Vec<f64> = (0..reps).map(|_| self.time()).collect();
        let t0 = Instant::now();
        let out = f();
        let raw = t0.elapsed().as_secs_f64();
        probes.extend((0..reps).map(|_| self.time()));
        (raw, raw * self.reference_s / crate::median(&probes), out)
    }
}

fn text_kernel() {
    static BUF: OnceLock<Vec<u8>> = OnceLock::new();
    let buf = BUF.get_or_init(|| {
        let unit = b"{\"nic3.fifo.out.rejections\": {\"counter\": 1024}, ";
        unit.iter().copied().cycle().take(600_000).collect()
    });
    let mut n = 0;
    for _ in 0..40 {
        n += std::str::from_utf8(black_box(buf)).map_or(0, str::len);
    }
    black_box(n);
}

fn events_kernel() {
    let mut r = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        r ^= r << 13;
        r ^= r >> 7;
        r ^= r << 17;
        r
    };
    let mut queue = BinaryHeap::with_capacity(8192);
    for id in 0..4096u64 {
        queue.push(Reverse((next() >> 44, id)));
    }
    let mut nodes = vec![[0u64; 32]; 256];
    let mut log = Vec::new();
    for _ in 0..100_000 {
        let Reverse((t, id)) = queue.pop().expect("the queue never drains");
        let r = next();
        let node = &mut nodes[(id as usize) & 255];
        let k = (r as usize) & 31;
        node[k] = node[k].wrapping_add(t);
        if node[k] & 3 == 0 {
            log.push(t);
        }
        for x in node.iter_mut().take(8) {
            *x ^= t;
        }
        queue.push(Reverse((t + (r >> 54), id)));
    }
    black_box((&nodes, log.len()));
}

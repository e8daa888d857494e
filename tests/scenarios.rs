//! Golden scenario-replay suite: every checked-in DSL file under
//! `scenarios/` runs under worker counts {1, 4, 8} and must produce the
//! same delivery hash, event count and byte-identical
//! `shrimp.metrics.v1` snapshot each time — pinned here so any change
//! to machine behavior or generator behavior is a visible diff.
//!
//! Refresh the pins after an intentional change with
//! `cargo run --release -p shrimp-workload --example pins`.

use shrimp::workload::{dsl::Scenario, run_scenario_observed, run_scenario_with_workers};

/// Worker counts every golden scenario is swept under.
const WORKER_SWEEP: [usize; 3] = [1, 4, 8];

fn load(name: &str) -> Scenario {
    let path = format!("{}/scenarios/{name}.shrimp", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Scenario::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// Runs `name` under the worker sweep, asserts all runs are identical,
/// and checks the pinned values.
fn check_golden(name: &str, hash: u64, events: u64, deliveries: u64) {
    let sc = load(name);
    let mut reports = WORKER_SWEEP
        .iter()
        .map(|&w| run_scenario_with_workers(&sc, w).unwrap_or_else(|e| panic!("{name} w={w}: {e}")));
    let first = reports.next().expect("sweep is non-empty");
    let json = first.metrics.to_json();
    for (r, &w) in reports.zip(&WORKER_SWEEP[1..]) {
        assert_eq!(r.delivery_hash, first.delivery_hash, "{name}: hash diverged at workers={w}");
        assert_eq!(r.events_processed, first.events_processed, "{name}: events diverged at workers={w}");
        assert_eq!(r.metrics.to_json(), json, "{name}: metrics diverged at workers={w}");
    }
    assert_eq!(first.sessions_completed, sc.total_sessions(), "{name}: sessions completed");
    assert_eq!(first.delivery_hash, hash, "{name}: pinned delivery hash (got 0x{:016x})", first.delivery_hash);
    assert_eq!(first.events_processed, events, "{name}: pinned event count");
    assert_eq!(first.deliveries, deliveries, "{name}: pinned delivery count");
}

#[test]
fn golden_streaming() {
    check_golden("streaming", 0xc74d_67c8_92a1_07fa, 134, 36);
}

#[test]
fn golden_rpc_pingpong() {
    check_golden("rpc_pingpong", 0xadae_1c8b_55a3_6464, 323, 96);
}

#[test]
fn golden_fanout() {
    check_golden("fanout", 0xe943_6f84_c387_d065, 227, 72);
}

#[test]
fn golden_dsm() {
    check_golden("dsm", 0x6c08_1470_b198_8a2c, 1667, 496);
}

#[test]
fn golden_mixed() {
    check_golden("mixed", 0x5006_25d5_0f2e_70e3, 623, 240);
}

/// The mixed session mix on the NP-RDMA-style unpinned backend: IOTLB
/// misses and dynamic map-ins replay byte-identically across the
/// worker sweep, and the run takes visibly longer simulated time than
/// `golden_mixed` (same load, same seed) because first-touch pages pay
/// the kernel map-in round trip.
#[test]
fn golden_unpinned() {
    check_golden("unpinned", 0x3faa_3d7d_3b6f_b366, 672, 240);
}

#[test]
fn golden_faulted() {
    check_golden("faulted", 0x5847_1dfe_84a5_26ce, 201, 54);
}

/// Link churn: every directed link of the mesh dies and heals twice
/// mid-run while all four session kinds are in flight, and the run
/// still replays byte-identically across the worker sweep.
#[test]
fn golden_churn() {
    check_golden("churn", 0x3c54_e4dc_1aa2_253a, 425, 172);
}

/// The churn scenario must actually exercise the adaptive path: the
/// mesh reports reroutes (and the counters surface in the snapshot).
#[test]
fn churn_scenario_reroutes() {
    let sc = load("churn");
    let (report, m) = run_scenario_observed(&sc, Some(1)).unwrap();
    assert_eq!(report.sessions_completed, sc.total_sessions());
    let stats = m.mesh_stats();
    assert!(stats.reroutes > 0, "expected adaptive reroutes under churn");
    assert_eq!(report.metrics.counter("mesh.reroutes"), Some(stats.reroutes));
    assert_eq!(report.metrics.counter("mesh.bounced"), Some(stats.bounced));
    assert_eq!(
        stats.packets_injected, stats.packets_ejected,
        "every packet (including bounced ones) leaves the fabric"
    );
}

/// The acceptance workload: 10k sessions of all four kinds on a 4x4
/// mesh replay byte-identically across `SHRIMP_WORKERS={1,8}`.
/// Release-only — debug builds take minutes.
#[test]
#[cfg_attr(debug_assertions, ignore = "10k sessions: run with --release")]
fn mixed10k_replays_across_worker_counts() {
    let sc = load("mixed10k");
    let a = run_scenario_with_workers(&sc, 1).expect("mixed10k w=1");
    let b = run_scenario_with_workers(&sc, 8).expect("mixed10k w=8");
    assert_eq!(a.sessions_completed, 10_000);
    assert_eq!(a.delivery_hash, 0xace0_3fe5_af81_f71c, "pinned hash (got 0x{:016x})", a.delivery_hash);
    assert_eq!(a.events_processed, 277_661);
    assert_eq!(b.delivery_hash, a.delivery_hash);
    assert_eq!(b.events_processed, a.events_processed);
    assert_eq!(b.metrics.to_json(), a.metrics.to_json());
}

/// Acceptance soak: on a 4×4 mesh every directed link fails and
/// repairs exactly once (`times=1` schedules one down/up window per
/// link by construction) while all four session kinds run. The run
/// must complete with byte-identical deliveries and metrics across
/// workers {1, 8}, and the mesh must report adaptive reroutes —
/// proof the dynamic-topology path was actually exercised.
#[test]
#[ignore = "churn soak; run with --ignored in CI"]
fn churn_soak_every_link_fails_once() {
    let text = "\
scenario churn_soak
mesh 4x4
seed 4242
pages 768
users 8
link fail=20us..200us repair=5us..40us times=1
session rpc count=8 src=any dst=any requests=3 request=256 response=512 think=1us..20us server=1us..8us
session stream count=8 src=any dst=any pages=2 gap=1us..6us
session fanout count=4 src=any leaves=3 rounds=2 bytes=512 think=2us..10us
session dsm count=8 src=any dst=any pages=2 ops=4 write=32 think=1us..8us
";
    let sc = Scenario::parse(text).expect("soak scenario is valid");
    let (a, ma) = run_scenario_observed(&sc, Some(1)).expect("soak w=1");
    let (b, _) = run_scenario_observed(&sc, Some(8)).expect("soak w=8");
    assert_eq!(a.sessions_completed, sc.total_sessions());
    assert_eq!(b.delivery_hash, a.delivery_hash, "delivery hash diverged at workers=8");
    assert_eq!(b.events_processed, a.events_processed, "event count diverged at workers=8");
    assert_eq!(b.metrics.to_json(), a.metrics.to_json(), "metrics diverged at workers=8");
    let stats = ma.mesh_stats();
    assert!(stats.reroutes > 0, "soak never took an adaptive route");
    assert_eq!(stats.packets_injected, stats.packets_ejected);
}

/// Per-delivery latency stages must telescope exactly to the
/// end-to-end figure — including for packets that sat in the overflow
/// queue with a future `born` stamp (the refill edge case: a transfer
/// can be queued in the same instant an overflow refill runs, and the
/// stamp must stay `born <= injected`). The streaming scenario's
/// back-to-back full-page transfers exercise that path.
#[test]
fn latency_stages_telescope() {
    for name in ["streaming", "mixed"] {
        let sc = load(name);
        let (report, m) = run_scenario_observed(&sc, Some(1)).unwrap();
        let records = &m.telemetry().records;
        assert_eq!(records.len() as u64, report.deliveries, "{name}: one record per delivery");
        for (i, r) in records.iter().enumerate() {
            assert!(r.injected.since(r.born) >= shrimp::sim::SimDuration::ZERO);
            assert_eq!(
                r.out_fifo() + r.mesh() + r.in_fifo() + r.dma(),
                r.end_to_end(),
                "{name}: record {i} stages do not telescope"
            );
        }
    }
}

/// The report's session metrics reconcile with the scenario: completed
/// counts per kind and goodput appear under `sessions.*`.
#[test]
fn report_session_metrics_reconcile() {
    let sc = load("mixed");
    let r = run_scenario_with_workers(&sc, 1).unwrap();
    let m = &r.metrics;
    assert_eq!(m.counter("sessions.completed"), Some(sc.total_sessions()));
    assert_eq!(m.counter("sessions.goodput_bytes"), Some(r.goodput_bytes));
    let per_kind: u64 = ["rpc", "stream", "fanout", "dsm"]
        .iter()
        .filter_map(|k| m.counter(&format!("sessions.{k}.completed")))
        .sum();
    assert_eq!(per_kind, sc.total_sessions());
    for k in ["rpc", "stream", "fanout", "dsm"] {
        let h = m.histogram(&format!("sessions.{k}.duration")).unwrap();
        assert!(h.count > 0, "{k} duration histogram populated");
    }
    assert!(m.histogram("sessions.rpc.op_latency").unwrap().count > 0);
    assert!(m.counter("machine.sessions_opened").unwrap() >= sc.total_sessions());
}

/// The network pump visits only nodes with work, so its per-event cost
/// must not grow with idle nodes: the streaming scenario on a 32×32
/// mesh (1,020 of its 1,024 nodes idle at any time) may cost at most 2×
/// the node visits per event of the same scenario on its own 2×2 mesh.
/// A pump that swept every node after every mesh advance scored ~256×.
#[test]
fn pump_visits_per_event_do_not_grow_with_idle_nodes() {
    let path = format!("{}/scenarios/streaming.shrimp", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert!(text.lines().any(|l| l == "mesh 2x2"), "streaming.shrimp runs on a 2x2 mesh");
    let wide = text.replace("mesh 2x2", "mesh 32x32");
    let visits_per_event = |doc: &str| {
        let sc = Scenario::parse(doc).expect("streaming scenario parses");
        let (report, m) = run_scenario_observed(&sc, Some(1)).expect("streaming completes");
        assert_eq!(report.sessions_completed, sc.total_sessions(), "{:?}: sessions", sc.mesh);
        m.pump_stats().node_visits as f64 / report.events_processed as f64
    };
    let small = visits_per_event(&text);
    let large = visits_per_event(&wide);
    assert!(
        large <= 2.0 * small,
        "node visits per event grew with idle nodes: {large:.3} at 32x32 vs {small:.3} at 2x2"
    );
}

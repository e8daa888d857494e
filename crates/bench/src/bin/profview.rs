//! Engine self-profile viewer: runs any scenario DSL file with the
//! engine profiler and flight recorder on, then reports where the
//! simulator spent its wall clock, why lookahead windows closed, and
//! how the windows were shaped.
//!
//! ```text
//! cargo run --release -p shrimp-bench --bin profview -- \
//!     scenarios/mixed.shrimp [--workers N] [--metrics-out PATH] \
//!     [--overhead-budget PCT]
//! ```
//!
//! The deterministic window telemetry (`engine.windows.*`,
//! `engine.barrier.*`) is byte-identical for every worker count; the
//! wall-clock phase profile (`engine.profile.*`) is this run's
//! measurement and varies run to run. Both land in the metrics file
//! (default `BENCH_profview.metrics.json`).
//!
//! `--overhead-budget PCT` additionally re-runs the scenario with
//! profiling off and on (best of three ~250 ms batched regions each),
//! verifies the two runs are byte-identical in simulation outcome, and
//! fails when the profiled wall clock exceeds the unprofiled one by
//! more than PCT percent.

use shrimp_bench::{banner, write_metrics, Table};
use shrimp_sim::{BarrierCause, Histogram, MetricsRegistry};
use shrimp_workload::dsl::Scenario;
use shrimp_workload::gen::run_scenario_tuned;

struct Args {
    scenario: String,
    workers: Option<usize>,
    overhead_budget: Option<f64>,
}

fn parse_args() -> Args {
    let mut scenario = None;
    let mut workers = None;
    let mut overhead_budget = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--metrics-out" => {
                args.next(); // consumed again by metrics_out_path
            }
            "--workers" => {
                let v = args.next().expect("--workers requires a count");
                workers = Some(v.parse().expect("--workers takes an integer"));
            }
            "--overhead-budget" => {
                let v = args.next().expect("--overhead-budget requires a percentage");
                overhead_budget = Some(v.parse().expect("--overhead-budget takes a number"));
            }
            other if !other.starts_with("--") && scenario.is_none() => {
                scenario = Some(other.to_string());
            }
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: profview <scenario.shrimp> \
                     [--workers N] [--metrics-out PATH] [--overhead-budget PCT]"
                );
                std::process::exit(2);
            }
        }
    }
    let Some(scenario) = scenario else {
        eprintln!(
            "usage: profview <scenario.shrimp> [--workers N] [--metrics-out PATH] \
             [--overhead-budget PCT]"
        );
        std::process::exit(2);
    };
    Args { scenario, workers, overhead_budget }
}

fn hist_row(name: &str, h: &Histogram) -> Vec<String> {
    vec![
        name.to_string(),
        h.count().to_string(),
        h.min().map_or_else(|| "-".into(), |v| v.to_string()),
        h.p50().map_or_else(|| "-".into(), |v| v.to_string()),
        h.p95().map_or_else(|| "-".into(), |v| v.to_string()),
        h.p99().map_or_else(|| "-".into(), |v| v.to_string()),
        h.max().map_or_else(|| "-".into(), |v| v.to_string()),
    ]
}

/// Best-of-three wall clock over timed regions of `iters` back-to-back
/// scenario runs each. A single short scenario is scheduler-noise all
/// the way down; batching runs into ~quarter-second regions and taking
/// the minimum region gives a stable overhead ratio.
fn best_wall(
    sc: &Scenario,
    workers: Option<usize>,
    profile: bool,
    iters: usize,
) -> (std::time::Duration, u64) {
    let mut best = std::time::Duration::MAX;
    let mut hash = 0;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            let (r, _) = run_scenario_tuned(sc, workers, |cfg| {
                cfg.telemetry.profile = profile;
            })
            .expect("scenario completes");
            hash = r.delivery_hash;
        }
        best = best.min(t0.elapsed());
    }
    (best, hash)
}

fn main() {
    let args = parse_args();
    let text = std::fs::read_to_string(&args.scenario)
        .unwrap_or_else(|e| panic!("read {}: {e}", args.scenario));
    let sc = Scenario::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", args.scenario));

    banner(format!("Engine profile: scenario `{}`", sc.name));
    let start = std::time::Instant::now();
    let (report, machine) = run_scenario_tuned(&sc, args.workers, |cfg| {
        cfg.telemetry.profile = true;
    })
    .expect("scenario completes");
    let wall = start.elapsed();

    println!(
        "sessions={} deliveries={} events={} sim_time={:.3} ms wall={wall:.2?} workers={}\n",
        report.sessions_completed,
        report.deliveries,
        report.events_processed,
        report.final_time_ps as f64 / 1e9,
        machine.config().workers,
    );

    // Network pump work: deterministic, so comparable across hosts.
    let pump = machine.pump_stats();
    let events = report.events_processed.max(1) as f64;
    let visits_per_event = pump.node_visits as f64 / events;
    println!(
        "network pump: {} pumps, {} node visits — {:.3} pumps_per_event, \
         {visits_per_event:.3} node_visits_per_event\n",
        pump.pumps,
        pump.node_visits,
        pump.pumps as f64 / events,
    );

    // Why windows closed — the deterministic barrier-cause breakdown.
    let ws = machine.window_stats();
    let total = ws.total_closed().max(1);
    let mut causes = Table::new(vec!["barrier cause", "windows", "share"]);
    for cause in BarrierCause::ALL {
        let n = ws.closes(cause);
        causes.row(vec![
            cause.name().into(),
            n.to_string(),
            format!("{:.1}%", n as f64 * 100.0 / total as f64),
        ]);
    }
    causes.row(vec!["total".into(), ws.total_closed().to_string(), "100.0%".into()]);
    causes.print();

    // Window shape.
    let mut shape = Table::new(vec!["window shape", "count", "min", "p50", "p95", "p99", "max"]);
    shape.row(hist_row("depth (events)", &ws.depth));
    shape.row(hist_row("participants", &ws.participants));
    shape.row(hist_row("slice events", &ws.slice_events));
    println!();
    shape.print();

    // Wall-clock phase attribution.
    println!();
    let profile = machine.profile().expect("profiler was enabled");
    print!("{}", profile.render());

    let fr = machine.flight_recorder();
    println!(
        "\nflight recorder: {} events recorded, {} retained ({} per node ring)",
        fr.recorded(),
        fr.dump().len(),
        fr.capacity(),
    );

    // Metrics file: the report's scalars, the live window histograms,
    // and this run's wall-clock phase profile.
    let mut reg = MetricsRegistry::new();
    for (name, value) in report.metrics.entries() {
        match value {
            shrimp_sim::MetricValue::Counter(v) => reg.set_counter(name.to_string(), *v),
            shrimp_sim::MetricValue::Gauge(v) => reg.set_gauge(name.to_string(), *v),
            shrimp_sim::MetricValue::Histogram(_) => {}
        }
    }
    reg.set_counter("engine.pump.pumps", pump.pumps);
    reg.set_counter("engine.pump.node_visits", pump.node_visits);
    reg.set_gauge("engine.pump.node_visits_per_event", visits_per_event);
    ws.register(&mut reg);
    profile.register(&mut reg);
    write_metrics("profview", &reg.snapshot());

    if let Some(budget) = args.overhead_budget {
        banner(format!("Overhead budget: profiling must cost <= {budget}%"));
        // Size regions to ~250 ms using the wall clock of the profiled
        // run above, so short scenarios get enough repetitions to
        // average out scheduler noise.
        let iters = ((0.25 / wall.as_secs_f64().max(1e-4)).ceil() as usize).clamp(1, 200);
        let (off, hash_off) = best_wall(&sc, args.workers, false, iters);
        let (on, hash_on) = best_wall(&sc, args.workers, true, iters);
        assert_eq!(
            hash_off, hash_on,
            "profiling perturbed the simulation (delivery hash drifted)"
        );
        let overhead = (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
        println!(
            "best-of-3 regions of {iters} runs: profile off {off:.2?}, on {on:.2?} \
             — overhead {overhead:+.2}%"
        );
        if overhead > budget {
            eprintln!("FAIL: profiling overhead {overhead:.2}% exceeds budget {budget}%");
            std::process::exit(1);
        }
        println!("within budget");
    }
}

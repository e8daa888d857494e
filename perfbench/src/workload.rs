//! The three workloads: how each is set up from a seed, run, and
//! checked.

use std::hint::black_box;
use std::time::Instant;

use shrimp_core::{Machine, MachineConfig, MapRequest};
use shrimp_cpu::{Assembler, Program, Reg};
use shrimp_mem::{VirtAddr, PAGE_SIZE};
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::{RetxConfig, UpdatePolicy};
use shrimp_os::Pid;
use shrimp_sim::SimRng;
use shrimp_workload::{delivery_hash, run_scenario_observed, run_scenario_tuned, Scenario};

/// Every workload the benchmark knows, by `--workload` name.
pub const NAMES: [&str; 3] = ["mixed10k", "sparse256", "cpu_autoupdate"];

/// `scenarios/mixed10k.shrimp`, copied so that the benchmark's input
/// stays fixed when the repository's scenarios change.
const MIXED10K: &str = include_str!("../workloads/mixed10k.shrimp");
const SPARSE256: &str = include_str!("../workloads/sparse256.shrimp");

/// cpu_autoupdate: a ring through the 16 nodes of a 4x4 mesh in node
/// order, each node storing over 2 pages mapped to its successor, 32
/// passes per node on average. The seed splits the 512 passes among
/// the nodes, so the longest stream sets the simulated time and the
/// latency tail, and picks each node's think loop between passes (which
/// moves the latency median, otherwise pinned by the saturated receive
/// backlog) and the salt of its store pattern. (A seeded ring order
/// instead routes single-write streams over shared multi-hop paths
/// whose stalls multiply the event count about 35-fold.)
const RING_DIM: u16 = 4;
const RING_PAGES: u64 = 2;
const PASSES: u32 = 32;
const WORDS: u32 = (RING_PAGES * PAGE_SIZE / 4) as u32;
/// Store pattern: word `w` of pass `p` on a node with salt `s` holds
/// `s + p * PASS_STRIDE + w * WORD_STRIDE` (wrapping).
const PASS_STRIDE: u32 = 0x0001_0003;
const WORD_STRIDE: u32 = 0x9e37;
/// Seeded moves of one pass between two nodes of the same update
/// policy, and the fewest passes a node keeps.
const PASS_MOVES: usize = 96;
const MIN_PASSES: u32 = 16;
/// Upper bound of the seeded think-loop iterations after each pass.
const MAX_THINK: u64 = 256;

/// A workload, ready to set up and run repeatedly from one seed.
pub enum Workload {
    /// A scenario DSL document; its `seed` line is replaced by `--seed`.
    Scenario { text: &'static str, seed: u64 },
    /// The CPU store-loop ring.
    CpuRing { seed: u64 },
}

/// Host time of the parts of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Scenario::parse`, or assembling the store loop.
    pub parse: f64,
    /// `Machine::new`.
    pub new: f64,
    /// Processes, buffers, exports, mappings and program load.
    pub map: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.parse + self.new + self.map
    }
}

/// What one finished run leaves behind for the checks and metrics.
pub struct Outcome {
    /// The finished machine; `None` when the run failed before handing
    /// it back (a stalled scenario).
    pub machine: Option<Machine>,
    /// Operations attempted: sessions, or (node, page, pass) triples.
    pub ops_total: u64,
    /// Operations that did not complete, or completed wrongly.
    pub ops_failed: u64,
    /// FNV-1a over the delivery log (0 when the run failed).
    pub delivery_hash: u64,
    /// Output checks that failed, in words.
    pub errors: Vec<String>,
    /// The processes that ran a CPU program.
    pub programs: Vec<(NodeId, Pid)>,
}

/// A built cpu_autoupdate machine, before its programs start.
pub struct Ring {
    m: Machine,
    pids: Vec<Pid>,
    dst_vas: Vec<VirtAddr>,
    salts: Vec<u32>,
    passes: Vec<u32>,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "mixed10k" => Some(Workload::Scenario {
                text: MIXED10K,
                seed,
            }),
            "sparse256" => Some(Workload::Scenario {
                text: SPARSE256,
                seed,
            }),
            "cpu_autoupdate" => Some(Workload::CpuRing { seed }),
            _ => None,
        }
    }

    /// One timed set-up, torn down again: everything up to the first
    /// simulated event. A scenario's generator maps its channels during
    /// the run, so a scenario set-up is parse + `Machine::new`.
    pub fn setup(&self) -> SetupTimes {
        match self {
            Workload::Scenario { .. } => {
                let t0 = Instant::now();
                let sc = self.scenario();
                let t1 = Instant::now();
                let m = Machine::new(scenario_config(&sc));
                let t2 = Instant::now();
                black_box(&m);
                SetupTimes {
                    parse: (t1 - t0).as_secs_f64(),
                    new: (t2 - t1).as_secs_f64(),
                    map: 0.0,
                }
            }
            Workload::CpuRing { seed } => build_ring(*seed, false).1,
        }
    }

    /// Sets up a run (untimed), with the engine profiler on or off.
    pub fn prepare(&self, profile: bool) -> Prepared {
        match self {
            Workload::Scenario { .. } => Prepared::Scenario {
                sc: self.scenario(),
                profile,
            },
            Workload::CpuRing { seed } => Prepared::Ring(Box::new(build_ring(*seed, profile).0)),
        }
    }

    fn scenario(&self) -> Scenario {
        let Workload::Scenario { text, seed } = self else {
            unreachable!("only scenario workloads parse a document")
        };
        let mut sc = Scenario::parse(text).expect("benchmark scenario parses");
        sc.seed = *seed;
        sc
    }
}

/// A workload set up and ready to run once.
pub enum Prepared {
    Scenario { sc: Scenario, profile: bool },
    Ring(Box<Ring>),
}

impl Prepared {
    /// Runs to completion and checks the outputs.
    pub fn run(self) -> Outcome {
        match self {
            Prepared::Scenario { sc, profile } => {
                let total = sc.total_sessions();
                let result = if profile {
                    run_scenario_tuned(&sc, Some(1), |cfg| cfg.telemetry.profile = true)
                } else {
                    run_scenario_observed(&sc, Some(1))
                };
                check_scenario(result, total)
            }
            Prepared::Ring(ring) => {
                let mut ring = *ring;
                for (i, &pid) in ring.pids.iter().enumerate() {
                    ring.m.start(NodeId(i as u16), pid);
                }
                let result = ring.m.run_until_idle();
                let mut out = check_ring(ring);
                if let Err(e) = result {
                    out.errors.push(format!("run_until_idle: {e}"));
                }
                out
            }
        }
    }
}

/// The machine configuration the scenario generator builds (see
/// `shrimp_workload::gen`), so the set-up measures the same machine.
fn scenario_config(sc: &Scenario) -> MachineConfig {
    let mut cfg = MachineConfig::prototype(MeshShape::new(sc.mesh.0, sc.mesh.1));
    cfg.pages_per_node = sc.pages;
    cfg.nic_backend = sc.nic;
    cfg.telemetry.latency = true;
    cfg.nic.retx = RetxConfig::reliable();
    cfg.workers = 1;
    cfg
}

fn check_scenario(
    result: Result<(shrimp_workload::Report, Machine), shrimp_workload::WorkloadError>,
    total: u64,
) -> Outcome {
    match result {
        Ok((report, m)) => {
            let mut errors = Vec::new();
            if report.sessions_completed != total {
                errors.push(format!(
                    "{} of {total} sessions completed",
                    report.sessions_completed
                ));
            }
            if delivery_hash(m.deliveries()) != report.delivery_hash {
                errors.push("report delivery hash disagrees with the machine's log".into());
            }
            Outcome {
                ops_total: total,
                ops_failed: total - report.sessions_completed.min(total),
                delivery_hash: report.delivery_hash,
                machine: Some(m),
                errors,
                programs: Vec::new(),
            }
        }
        Err(e) => {
            let completed = match e {
                shrimp_workload::WorkloadError::Stalled { completed, .. } => completed,
                shrimp_workload::WorkloadError::Machine(_) => 0,
            };
            Outcome {
                machine: None,
                ops_total: total,
                ops_failed: total - completed.min(total),
                delivery_hash: 0,
                errors: vec![format!("scenario failed: {e}")],
                programs: Vec::new(),
            }
        }
    }
}

/// The store loop every ring node runs. Registers set per node: R0 the
/// think-loop iterations after each pass (at least 1), R1 the source
/// buffer, R2 the pass count, R6 the salt.
fn ring_program() -> Program {
    let mut asm = Assembler::new();
    asm.label("pass")
        .mov(Reg::R4, Reg::R1)
        .li(Reg::R5, WORDS)
        .mov(Reg::R7, Reg::R6)
        .label("word")
        .store(Reg::R7, Reg::R4, 0)
        .addi(Reg::R4, 4)
        .addi(Reg::R7, WORD_STRIDE as i32)
        .addi(Reg::R5, -1)
        .cmpi(Reg::R5, 0)
        .jnz("word")
        .mov(Reg::R3, Reg::R0)
        .label("think")
        .addi(Reg::R3, -1)
        .cmpi(Reg::R3, 0)
        .jnz("think")
        .addi(Reg::R6, PASS_STRIDE as i32)
        .addi(Reg::R2, -1)
        .cmpi(Reg::R2, 0)
        .jnz("pass")
        .halt();
    asm.assemble().expect("ring program assembles")
}

/// The value of word `w` after `passes` passes of a node with `salt`.
fn final_word(salt: u32, passes: u32, w: u32) -> u32 {
    salt.wrapping_add((passes - 1).wrapping_mul(PASS_STRIDE))
        .wrapping_add(w.wrapping_mul(WORD_STRIDE))
}

fn build_ring(seed: u64, profile: bool) -> (Ring, SetupTimes) {
    let n = usize::from(RING_DIM * RING_DIM);
    let mut rng = SimRng::seed_from(seed);
    let salts: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
    let thinks: Vec<u32> = (0..n)
        .map(|_| 1 + (rng.next_u64() % MAX_THINK) as u32)
        .collect();
    let mut passes = vec![PASSES; n];
    for _ in 0..PASS_MOVES {
        // Between nodes of one parity, so each update path keeps its
        // share of the traffic (and the packet count stays fixed).
        let from = (rng.next_u64() % n as u64) as usize;
        let to = (rng.next_u64() % (n as u64 / 2)) as usize * 2 + from % 2;
        if passes[from] > MIN_PASSES {
            passes[from] -= 1;
            passes[to] += 1;
        }
    }

    let t0 = Instant::now();
    let program = ring_program();
    let t1 = Instant::now();
    let mut cfg = MachineConfig::prototype(MeshShape::new(RING_DIM, RING_DIM));
    cfg.telemetry.latency = true;
    cfg.telemetry.profile = profile;
    cfg.workers = 1;
    let mut m = Machine::new(cfg);
    let t2 = Instant::now();

    let node = |i: usize| NodeId(i as u16);
    let pids: Vec<Pid> = (0..n).map(|i| m.create_process(node(i))).collect();
    let mut dst_vas = Vec::with_capacity(n);
    let mut exports = Vec::with_capacity(n);
    for (i, &pid) in pids.iter().enumerate() {
        let va = m
            .alloc_pages(node(i), pid, RING_PAGES)
            .expect("alloc receive buffer");
        exports.push(
            m.export_buffer(node(i), pid, va, RING_PAGES, Some(node((i + n - 1) % n)))
                .expect("export receive buffer"),
        );
        dst_vas.push(va);
    }
    for (i, &pid) in pids.iter().enumerate() {
        let succ = (i + 1) % n;
        let src_va = m
            .alloc_pages(node(i), pid, RING_PAGES)
            .expect("alloc send buffer");
        let policy = if i % 2 == 0 {
            UpdatePolicy::AutomaticSingle
        } else {
            UpdatePolicy::AutomaticBlocked
        };
        m.map(MapRequest {
            src_node: node(i),
            src_pid: pid,
            src_va,
            dst_node: node(succ),
            export: exports[succ],
            dst_offset: 0,
            len: RING_PAGES * PAGE_SIZE,
            policy,
        })
        .expect("map ring edge");
        m.load_program(node(i), pid, program.clone());
        m.set_reg(node(i), pid, Reg::R0, thinks[i]);
        m.set_reg(node(i), pid, Reg::R1, src_va.raw() as u32);
        m.set_reg(node(i), pid, Reg::R2, passes[i]);
        m.set_reg(node(i), pid, Reg::R6, salts[i]);
    }
    let t3 = Instant::now();
    let times = SetupTimes {
        parse: (t1 - t0).as_secs_f64(),
        new: (t2 - t1).as_secs_f64(),
        map: (t3 - t2).as_secs_f64(),
    };
    (
        Ring {
            m,
            pids,
            dst_vas,
            salts,
            passes,
        },
        times,
    )
}

/// Checks every destination page against the last pass's pattern and
/// counts the (node, page, pass) operations whose bytes arrived.
fn check_ring(ring: Ring) -> Outcome {
    let Ring {
        m,
        pids,
        dst_vas,
        salts,
        passes,
    } = ring;
    let n = pids.len();
    let ops_total = RING_PAGES * passes.iter().map(|&p| u64::from(p)).sum::<u64>();
    let mut errors = Vec::new();
    if !m.all_halted() {
        errors.push("a store loop did not halt".into());
    }

    // Bytes delivered into each (destination node, physical page).
    let mut delivered = std::collections::BTreeMap::<(u16, u64), u64>::new();
    for d in m.deliveries() {
        *delivered
            .entry((d.node.0, d.dst_addr.raw() / PAGE_SIZE))
            .or_default() += d.len;
    }

    let mut completed = 0u64;
    for src in 0..n {
        let dst = (src + 1) % n;
        let (dnode, dpid) = (NodeId(dst as u16), pids[dst]);
        for page in 0..RING_PAGES {
            let va = dst_vas[dst].add(page * PAGE_SIZE);
            let bytes = m
                .translate(dnode, dpid, va)
                .map(|pa| delivered.get(&(dst as u16, pa.raw() / PAGE_SIZE)).copied())
                .ok()
                .flatten()
                .unwrap_or(0);
            let want = u64::from(passes[src]);
            let mut done = (bytes / PAGE_SIZE).min(want);
            if bytes != want * PAGE_SIZE {
                errors.push(format!(
                    "node {src} page {page}: {bytes} bytes delivered, want {}",
                    want * PAGE_SIZE
                ));
            }
            let got = m.peek(dnode, dpid, va, PAGE_SIZE).unwrap_or_default();
            let first_word = (page * PAGE_SIZE / 4) as u32;
            let intact = got.len() as u64 == PAGE_SIZE
                && got.chunks_exact(4).enumerate().all(|(k, b)| {
                    let v = u32::from_le_bytes(b.try_into().expect("4-byte chunk"));
                    v == final_word(salts[src], passes[src], first_word + k as u32)
                });
            if !intact {
                errors.push(format!(
                    "node {src} page {page}: contents differ from the last pass"
                ));
                done = done.min(want - 1);
            }
            completed += done;
        }
    }
    Outcome {
        ops_total,
        ops_failed: ops_total - completed,
        delivery_hash: delivery_hash(m.deliveries()),
        machine: Some(m),
        errors,
        programs: pids
            .iter()
            .enumerate()
            .map(|(i, &p)| (NodeId(i as u16), p))
            .collect(),
    }
}

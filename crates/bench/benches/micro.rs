//! Criterion micro-benchmarks of the hot data structures.
//!
//! These are not paper results; they keep the simulator's own fast paths
//! honest (the snoop-path NIPT lookup runs once per bus write, the event
//! queue once per simulated event, the network pump after every mesh
//! advance).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use shrimp_core::{msglib, Machine, MachineConfig, MapRequest};
use shrimp_cpu::{Assembler, Cpu, FlatMemory, Reg};
use shrimp_mem::{CacheConfig, CacheModel, PageNum, PhysAddr, Tlb, VirtPageNum, PAGE_SIZE};
use shrimp_mesh::{MeshShape, NodeId};
use shrimp_nic::packet::crc32;
use shrimp_nic::{Nipt, OutSegment, PacketFifo, ShrimpPacket, UpdatePolicy, WireHeader};
use shrimp_sim::{step, EventQueue, SimTime, StepBound, StepOutcome};

fn bench_crc32(c: &mut Criterion) {
    let page = vec![0xa5u8; 4096];
    c.bench_function("crc32/4096B", |b| b.iter(|| crc32(black_box(&page))));
    let word = [0x5au8; 22];
    c.bench_function("crc32/22B_packet", |b| b.iter(|| crc32(black_box(&word))));
}

fn bench_nipt(c: &mut Criterion) {
    let mut nipt = Nipt::new(1024);
    for p in 0..1024u64 {
        if p % 3 == 0 {
            nipt.set_out_segment(
                PageNum::new(p),
                OutSegment::full_page(NodeId(1), PageNum::new(p), UpdatePolicy::AutomaticSingle),
            )
            .expect("segment");
        }
    }
    c.bench_function("nipt/lookup_out", |b| {
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 4096 + 4) % (1024 * 4096);
            black_box(nipt.lookup_out(PhysAddr::new(addr)))
        })
    });
}

fn bench_fifo(c: &mut Criterion) {
    let header = WireHeader {
        dst_coord: shrimp_mesh::MeshCoord { x: 0, y: 0 },
        src: NodeId(0),
        dst_addr: PhysAddr::new(0),
    };
    c.bench_function("fifo/push_pop", |b| {
        b.iter_batched(
            || {
                (
                    PacketFifo::new(64 * 1024, 32 * 1024),
                    ShrimpPacket::new(header, vec![0u8; 64]),
                )
            },
            |(mut fifo, pkt)| {
                for _ in 0..32 {
                    fifo.try_push(SimTime::ZERO, pkt.clone()).expect("fits");
                }
                while fifo.pop().is_some() {}
                fifo
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            for i in 0..1024u64 {
                q.push(SimTime::from_picos((i * 7919) % 4096), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            sum
        })
    });
}

fn bench_mesh_route(c: &mut Criterion) {
    let shape = MeshShape::new(8, 8);
    c.bench_function("mesh/route_64_nodes", |b| {
        b.iter(|| {
            let mut hops = 0u32;
            for a in 0..64u16 {
                for z in 0..64u16 {
                    hops += shape.hops(NodeId(a), NodeId(z)) as u32;
                }
            }
            hops
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/load_stream", |b| {
        b.iter_batched(
            || CacheModel::new(CacheConfig::pentium_l2()),
            |mut cache| {
                for i in 0..4096u64 {
                    cache.load(PhysAddr::new((i * 32) % (512 * 1024)));
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_tlb(c: &mut Criterion) {
    c.bench_function("tlb/lookup_hit", |b| {
        let mut tlb = Tlb::new(64);
        for i in 0..64u64 {
            tlb.insert(
                VirtPageNum::new(i),
                PageNum::new(i),
                shrimp_mem::PageFlags::default(),
            );
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 64;
            black_box(tlb.lookup(VirtPageNum::new(i)))
        })
    });
}

fn bench_cpu(c: &mut Criterion) {
    c.bench_function("cpu/tight_loop_1k", |b| {
        let mut asm = Assembler::new();
        asm.li(Reg::R1, 1000)
            .label("loop")
            .addi(Reg::R1, -1)
            .cmpi(Reg::R1, 0)
            .jnz("loop")
            .halt();
        let program = asm.assemble().expect("assembles");
        b.iter_batched(
            || (Cpu::new(program.clone()), FlatMemory::new(64)),
            |(mut cpu, mut mem)| {
                cpu.run_to_halt(SimTime::ZERO, &mut mem, 10_000).expect("halts");
                cpu
            },
            BatchSize::SmallInput,
        )
    });
}

/// The network pump and mesh layers: a 32×32 machine carrying one
/// deliberate-update stream from a corner to the opposite corner. Each
/// iteration is one step of the run loop — advance the mesh to its next
/// event, pump the nodes marked dirty, dispatch that instant's events —
/// so the 1,020 idle nodes must cost nothing. The stream restarts
/// whenever the machine idles.
fn bench_pump(c: &mut Criterion) {
    const PAGES: u64 = 4;
    let (src, dst) = (NodeId(0), NodeId(1023));
    let mut cfg = MachineConfig::prototype(MeshShape::new(32, 32));
    cfg.pages_per_node = 32;
    let mut m = Machine::new(cfg);
    let s = m.create_process(src);
    let r = m.create_process(dst);
    let src_va = m.alloc_pages(src, s, PAGES).expect("alloc send");
    let dst_va = m.alloc_pages(dst, r, PAGES).expect("alloc recv");
    let export = m.export_buffer(dst, r, dst_va, PAGES, Some(src)).expect("export");
    m.map(MapRequest {
        src_node: src,
        src_pid: s,
        src_va,
        dst_node: dst,
        export,
        dst_offset: 0,
        len: PAGES * PAGE_SIZE,
        policy: UpdatePolicy::Deliberate,
    })
    .expect("map");
    let mut cmd_delta = 0u32;
    for p in 0..PAGES {
        let cmd = m.map_command_page(src, s, src_va.add(p * PAGE_SIZE)).expect("command page");
        if p == 0 {
            cmd_delta = (cmd.raw() - src_va.raw()) as u32;
        }
    }
    let program = msglib::deliberate_stream_program();
    let restart = |m: &mut Machine| {
        m.load_program(src, s, program.clone());
        m.set_reg(src, s, Reg::R5, src_va.raw() as u32);
        m.set_reg(src, s, Reg::R7, cmd_delta);
        m.set_reg(src, s, Reg::R3, PAGES as u32);
        m.set_reg(src, s, Reg::R2, (PAGE_SIZE / 4) as u32);
        m.set_reg(src, s, Reg::R4, (PAGE_SIZE / 4) as u32);
        m.start(src, s);
    };
    restart(&mut m);
    c.bench_function("pump/step_32x32_one_stream", |b| {
        b.iter(|| {
            if step(&mut m, StepBound::unbounded()) == StepOutcome::Idle {
                restart(&mut m);
            }
        })
    });
}

criterion_group!(
    benches,
    bench_crc32,
    bench_nipt,
    bench_fifo,
    bench_event_queue,
    bench_mesh_route,
    bench_cache,
    bench_tlb,
    bench_cpu,
    bench_pump
);
criterion_main!(benches);

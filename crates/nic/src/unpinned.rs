//! The unpinned (NP-RDMA-style) NIC backend.
//!
//! The paper's design pins every mapped page at map time so the NIC's
//! NIPT translation is always backed by resident memory. This backend
//! models the alternative explored by NP-RDMA-class designs: **no
//! map-time pinning**. Outgoing translation goes through a bounded
//! IOTLB; a miss means the page is not NIC-resident and a dynamic
//! map-in — one kernel round trip, [`crate::config::UnpinnedConfig::
//! map_in_latency`] — must complete before the write can packetize.
//!
//! Mechanics, all deterministic:
//!
//! - A snooped write whose page hits the IOTLB proceeds exactly as on
//!   the pinned backend (the IOTLB caches *residency* only; the
//!   translation content is always read from the shared NIPT, so a
//!   stale entry can never produce a wrong address — invalidation is a
//!   timing matter, not a correctness one).
//! - A miss buffers the write and schedules a map-in completing at
//!   `now + map_in_latency`. Writes that miss on a page whose map-in
//!   is already in flight join the pending entry without escalating
//!   the wait — the flat-pacing discipline the go-back-N engine uses
//!   for reroute bounces (a miss means "not resident yet", not "lossy
//!   path", so there is nothing to back off from).
//! - When the map-in completes (driven by [`NicModel::poll`] at event
//!   times, which are worker-invariant), the entry is installed and
//!   the buffered writes replay through the ordinary snoop path,
//!   stamped at the map-in completion time.
//! - Installing into a full IOTLB evicts the least-recently-used entry
//!   through the same invalidation routine the kernel shootdown hook
//!   ([`NicModel::invalidate_translation`]) uses.

use std::collections::BTreeMap;

use shrimp_mem::{PageNum, PhysAddr};
use shrimp_mesh::{MeshPacket, MeshShape, NodeId};
use shrimp_sim::fault::NicFaultSite;
use shrimp_sim::{MetricsRegistry, SimDuration, SimTime, Tracer};

use crate::command::{CommandOp, CommandSpace};
use crate::config::NicConfig;
use crate::datapath::{CommandEffect, NicInterrupt, SnoopOutcome};
use crate::error::NicError;
use crate::incoming::IncomingDelivery;
use crate::model::NicModel;
use crate::nic::NetworkInterface;
use crate::nipt::Nipt;
use crate::packet::{Payload, ShrimpPacket};
use crate::stats::NicStats;

/// IOTLB and dynamic map-in counters of the unpinned backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IotlbStats {
    /// Outgoing translations served from the IOTLB.
    pub hits: u64,
    /// Outgoing translations that missed (write buffered or DMA start
    /// delayed behind a dynamic map-in).
    pub misses: u64,
    /// Dynamic map-in round trips performed.
    pub map_ins: u64,
    /// Entries evicted under capacity pressure (LRU shootdown).
    pub evictions: u64,
    /// Entries currently resident.
    pub resident: u64,
}

/// One snooped write parked behind an in-flight map-in. Snooped stores
/// are at most a bus word, so the data inlines.
#[derive(Debug, Clone, Copy)]
struct BufferedWrite {
    addr: PhysAddr,
    len: u8,
    data: [u8; 8],
}

/// An in-flight dynamic map-in for one page.
#[derive(Debug, Clone)]
struct MissEntry {
    /// When the kernel round trip completes and the entry installs.
    ready: SimTime,
    /// Writes to replay, in snoop order, once the page is resident.
    writes: Vec<BufferedWrite>,
}

/// The unpinned backend: the full SHRIMP datapath behind a bounded
/// outgoing IOTLB with dynamic map-in on miss.
#[derive(Debug, Clone)]
pub struct UnpinnedNicModel {
    inner: NetworkInterface,
    /// Resident pages → last-use tick. The LRU victim is the entry with
    /// the smallest `(tick, page)` — total order, so eviction is
    /// deterministic.
    iotlb: BTreeMap<PageNum, u64>,
    use_tick: u64,
    /// In-flight map-ins keyed by page.
    pending: BTreeMap<PageNum, MissEntry>,
    hits: u64,
    misses: u64,
    map_ins: u64,
    evictions: u64,
}

impl UnpinnedNicModel {
    /// Creates the unpinned NIC of `node`; parameters come from
    /// `config.unpinned`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the node is off-mesh.
    pub fn new(node: NodeId, shape: MeshShape, config: NicConfig, num_pages: u64) -> Self {
        UnpinnedNicModel {
            inner: NetworkInterface::new(node, shape, config, num_pages),
            iotlb: BTreeMap::new(),
            use_tick: 0,
            pending: BTreeMap::new(),
            hits: 0,
            misses: 0,
            map_ins: 0,
            evictions: 0,
        }
    }

    /// The wrapped reference datapath (inspection only).
    pub fn inner(&self) -> &NetworkInterface {
        &self.inner
    }

    /// IOTLB counter snapshot.
    pub fn iotlb_stats(&self) -> IotlbStats {
        IotlbStats {
            hits: self.hits,
            misses: self.misses,
            map_ins: self.map_ins,
            evictions: self.evictions,
            resident: self.iotlb.len() as u64,
        }
    }

    /// Marks `page` most recently used.
    fn touch(&mut self, page: PageNum) {
        self.use_tick += 1;
        self.iotlb.insert(page, self.use_tick);
    }

    /// Installs `page`, evicting the LRU entry if the IOTLB is full.
    fn install(&mut self, page: PageNum) {
        let cap = self.inner.config().unpinned.iotlb_entries;
        while !self.iotlb.contains_key(&page) && self.iotlb.len() >= cap {
            let victim = self
                .iotlb
                .iter()
                .min_by_key(|&(p, t)| (*t, *p))
                .map(|(p, _)| *p)
                .expect("full IOTLB has a victim");
            self.evict(victim);
        }
        self.touch(page);
    }

    /// Drops `page` from the IOTLB — the shootdown routine, shared by
    /// capacity eviction and the kernel unmap hook.
    fn evict(&mut self, page: PageNum) {
        if self.iotlb.remove(&page).is_some() {
            self.evictions += 1;
        }
    }

    /// Completes every map-in that is ready by `now`: installs the
    /// entry and replays its buffered writes at the completion instant.
    fn complete_map_ins(&mut self, now: SimTime) {
        while let Some((page, ready)) = self
            .pending
            .iter()
            .filter(|(_, e)| e.ready <= now)
            .min_by_key(|(p, e)| (e.ready, **p))
            .map(|(p, e)| (*p, e.ready))
        {
            let entry = self.pending.remove(&page).expect("entry was just found");
            self.install(page);
            for w in &entry.writes {
                self.inner
                    .snoop_write(ready, w.addr, &w.data[..usize::from(w.len)]);
            }
        }
    }
}

impl NicModel for UnpinnedNicModel {
    fn node(&self) -> NodeId {
        self.inner.node()
    }
    fn config(&self) -> &NicConfig {
        self.inner.config()
    }
    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }
    fn tracer(&self) -> &Tracer {
        self.inner.tracer()
    }
    fn set_fault_injection(&mut self, site: NicFaultSite) {
        self.inner.set_fault_injection(site);
    }
    fn nipt(&self) -> &Nipt {
        self.inner.nipt()
    }
    fn nipt_mut(&mut self) -> &mut Nipt {
        self.inner.nipt_mut()
    }
    fn command_space(&self) -> CommandSpace {
        self.inner.command_space()
    }
    fn stats(&self) -> NicStats {
        self.inner.stats()
    }
    fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        self.inner.register_metrics(reg, prefix);
        reg.set_counter(format!("{prefix}.iotlb.hits"), self.hits);
        reg.set_counter(format!("{prefix}.iotlb.misses"), self.misses);
        reg.set_counter(format!("{prefix}.iotlb.map_ins"), self.map_ins);
        reg.set_counter(format!("{prefix}.iotlb.evictions"), self.evictions);
    }

    fn snoop_write(&mut self, now: SimTime, addr: PhysAddr, data: &[u8]) -> SnoopOutcome {
        let automatic = self
            .inner
            .nipt()
            .lookup_out(addr)
            .is_some_and(|seg| seg.policy.is_automatic());
        if !automatic {
            // Unmapped or deliberate pages: the reference path ignores
            // the write; no residency is involved.
            return self.inner.snoop_write(now, addr, data);
        }
        let page = addr.page();
        if self.iotlb.contains_key(&page) {
            self.hits += 1;
            self.touch(page);
            return self.inner.snoop_write(now, addr, data);
        }
        // Miss: buffer the write behind a dynamic map-in. A second miss
        // on a page already being mapped in joins the in-flight entry —
        // flat pacing, no escalation (see the module docs).
        self.misses += 1;
        let mut w = BufferedWrite {
            addr,
            len: data.len() as u8,
            data: [0; 8],
        };
        w.data[..data.len()].copy_from_slice(data);
        if let Some(entry) = self.pending.get_mut(&page) {
            entry.writes.push(w);
        } else {
            self.map_ins += 1;
            let ready = now + self.inner.config().unpinned.map_in_latency;
            self.pending.insert(
                page,
                MissEntry {
                    ready,
                    writes: vec![w],
                },
            );
        }
        SnoopOutcome::Stalled
    }

    fn is_command_addr(&self, addr: PhysAddr) -> bool {
        self.inner.is_command_addr(addr)
    }
    fn command_read(&mut self, now: SimTime, addr: PhysAddr) -> u32 {
        self.inner.command_read(now, addr)
    }

    fn command_write(
        &mut self,
        now: SimTime,
        addr: PhysAddr,
        value: u32,
        mem_read: impl FnOnce(PhysAddr, u64) -> (Payload, SimTime),
    ) -> Result<CommandEffect, NicError> {
        // A deliberate-update start needs the source page resident; on a
        // miss the DMA source read is held behind one synchronous map-in
        // round trip (the kernel is already involved on this path, so
        // the latency folds into the bus read completion time).
        let data_page = self.inner.command_space().data_addr_for(addr).map(PhysAddr::page);
        let is_start = matches!(CommandOp::decode(value), Ok(CommandOp::StartTransfer { .. }));
        let miss = is_start && data_page.is_some_and(|p| !self.iotlb.contains_key(&p));
        let extra = if miss {
            self.inner.config().unpinned.map_in_latency
        } else {
            SimDuration::ZERO
        };
        let result = self.inner.command_write(now, addr, value, |src, len| {
            let (payload, read_done) = mem_read(src, len);
            (payload, read_done + extra)
        });
        if let (true, Ok(CommandEffect::DmaStarted { .. }), Some(page)) =
            (is_start, &result, data_page)
        {
            if miss {
                self.misses += 1;
                self.map_ins += 1;
                self.install(page);
            } else {
                self.hits += 1;
                self.touch(page);
            }
        }
        result
    }

    fn poll(&mut self, now: SimTime) {
        self.complete_map_ins(now);
        self.inner.poll(now);
    }

    fn next_deadline(&self) -> Option<SimTime> {
        let map_in = self.pending.values().map(|e| e.ready).min();
        match (self.inner.next_deadline(), map_in) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn cpu_must_stall(&self) -> bool {
        // Map-ins are asynchronous (the miss buffers the write and the
        // CPU proceeds); only the reference FIFO backpressure stalls.
        self.inner.cpu_must_stall()
    }

    fn outgoing_ready_at(&self) -> Option<SimTime> {
        self.inner.outgoing_ready_at()
    }
    fn pop_outgoing(&mut self, now: SimTime) -> Option<MeshPacket<ShrimpPacket>> {
        self.inner.pop_outgoing(now)
    }
    fn outgoing_due(&self, now: SimTime) -> bool {
        self.inner.outgoing_due(now)
    }
    fn has_pending_control(&self) -> bool {
        self.inner.has_pending_control()
    }
    fn can_accept_from_network_at(&self, now: SimTime) -> bool {
        self.inner.can_accept_from_network_at(now)
    }
    fn accept_packet(
        &mut self,
        now: SimTime,
        packet: MeshPacket<ShrimpPacket>,
    ) -> Result<(), NicError> {
        self.inner.accept_packet(now, packet)
    }
    fn pop_incoming(&mut self, now: SimTime) -> Option<Result<IncomingDelivery, NicError>> {
        self.inner.pop_incoming(now)
    }
    fn incoming_ready_at(&self) -> Option<SimTime> {
        self.inner.incoming_ready_at()
    }
    fn take_interrupts(&mut self) -> Vec<NicInterrupt> {
        self.inner.take_interrupts()
    }
    fn has_interrupts(&self) -> bool {
        self.inner.has_interrupts()
    }
    fn out_fifo_bytes(&self) -> u64 {
        self.inner.out_fifo_bytes()
    }
    fn in_fifo_bytes(&self) -> u64 {
        self.inner.in_fifo_bytes()
    }

    fn invalidate_translation(&mut self, page: PageNum) {
        self.evict(page);
        // Buffered misses for the page die with the mapping: by the time
        // the map-in would complete there is nothing to translate
        // through, matching the reference backend's treatment of writes
        // to pages unmapped mid-flight.
        self.pending.remove(&page);
    }

    fn iotlb_stats(&self) -> Option<IotlbStats> {
        Some(UnpinnedNicModel::iotlb_stats(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nipt::UpdatePolicy;
    use crate::testutil::{map_out_on, shape, t};
    use shrimp_sim::SimDuration;

    fn unic() -> UnpinnedNicModel {
        UnpinnedNicModel::new(NodeId(0), shape(), NicConfig::default(), 64)
    }

    fn tiny_unic(entries: usize) -> UnpinnedNicModel {
        let cfg = NicConfig {
            unpinned: crate::config::UnpinnedConfig {
                iotlb_entries: entries,
                ..crate::config::UnpinnedConfig::prototype()
            },
            ..NicConfig::default()
        };
        UnpinnedNicModel::new(NodeId(0), shape(), cfg, 64)
    }

    #[test]
    fn miss_buffers_then_replays_after_map_in() {
        let mut n = unic();
        map_out_on(n.nipt_mut(), 2, 1, 9, UpdatePolicy::AutomaticSingle);
        let addr = PageNum::new(2).at_offset(16);
        // First touch misses: buffered, no packet yet.
        assert_eq!(n.snoop_write(t(0), addr, &7u32.to_le_bytes()), SnoopOutcome::Stalled);
        assert!(n.pop_outgoing(t(10_000)).is_none());
        let lat = n.config().unpinned.map_in_latency;
        assert_eq!(n.next_deadline(), Some(t(0) + lat));
        // Map-in completes: the write replays stamped at completion.
        n.poll(t(0) + lat);
        let mp = n
            .pop_outgoing(t(0) + lat + SimDuration::from_us(1))
            .expect("replayed after map-in");
        assert_eq!(mp.payload().payload(), &7u32.to_le_bytes());
        let s = UnpinnedNicModel::iotlb_stats(&n);
        assert_eq!((s.misses, s.map_ins, s.hits, s.resident), (1, 1, 0, 1));
    }

    #[test]
    fn second_miss_joins_inflight_map_in() {
        let mut n = unic();
        map_out_on(n.nipt_mut(), 2, 1, 9, UpdatePolicy::AutomaticSingle);
        let base = PageNum::new(2).base();
        assert_eq!(n.snoop_write(t(0), base, &[1; 4]), SnoopOutcome::Stalled);
        assert_eq!(n.snoop_write(t(100), base.add(4), &[2; 4]), SnoopOutcome::Stalled);
        let s = UnpinnedNicModel::iotlb_stats(&n);
        // Two misses, ONE kernel round trip: the second write joined the
        // in-flight entry (flat pacing, no escalation).
        assert_eq!((s.misses, s.map_ins), (2, 1));
        let lat = n.config().unpinned.map_in_latency;
        n.poll(t(0) + lat);
        assert!(n.pop_outgoing(t(0) + lat + SimDuration::from_us(1)).is_some());
        assert!(n.pop_outgoing(t(0) + lat + SimDuration::from_us(1)).is_some());
    }

    #[test]
    fn resident_page_hits_like_pinned() {
        let mut n = unic();
        map_out_on(n.nipt_mut(), 2, 1, 9, UpdatePolicy::AutomaticSingle);
        let addr = PageNum::new(2).at_offset(8);
        n.snoop_write(t(0), addr, &[1; 4]);
        let lat = n.config().unpinned.map_in_latency;
        n.poll(t(0) + lat);
        n.pop_outgoing(t(0) + lat + SimDuration::from_us(1)).unwrap();
        // Resident now: the next write queues immediately.
        assert_eq!(
            n.snoop_write(t(100_000), addr, &[2; 4]),
            SnoopOutcome::Queued
        );
        assert_eq!(UnpinnedNicModel::iotlb_stats(&n).hits, 1);
    }

    #[test]
    fn capacity_pressure_evicts_lru() {
        let mut n = tiny_unic(2);
        for page in 2..5 {
            map_out_on(n.nipt_mut(), page, 1, 9 + page, UpdatePolicy::AutomaticSingle);
        }
        let lat = n.config().unpinned.map_in_latency;
        let mut now = t(0);
        for page in 2..5u64 {
            n.snoop_write(now, PageNum::new(page).base(), &[page as u8; 4]);
            now += lat;
            n.poll(now);
        }
        let s = UnpinnedNicModel::iotlb_stats(&n);
        // Page 2 (least recently used) was shot down for page 4.
        assert_eq!((s.evictions, s.resident), (1, 2));
        assert_eq!(
            n.snoop_write(now, PageNum::new(2).base(), &[9; 4]),
            SnoopOutcome::Stalled,
            "evicted page must miss again"
        );
        assert_eq!(
            n.snoop_write(now, PageNum::new(4).base(), &[9; 4]),
            SnoopOutcome::Queued,
            "most recent page stays resident"
        );
    }

    #[test]
    fn unmap_shootdown_drops_entry_and_pending_misses() {
        let mut n = unic();
        map_out_on(n.nipt_mut(), 2, 1, 9, UpdatePolicy::AutomaticSingle);
        n.snoop_write(t(0), PageNum::new(2).base(), &[1; 4]);
        n.unmap_out(PageNum::new(2), 0);
        let lat = n.config().unpinned.map_in_latency;
        n.poll(t(0) + lat);
        assert!(
            n.pop_outgoing(t(0) + lat + SimDuration::from_us(1)).is_none(),
            "buffered write for an unmapped page must not replay"
        );
        assert_eq!(UnpinnedNicModel::iotlb_stats(&n).resident, 0);
    }

    #[test]
    fn deliberate_start_pays_map_in_on_miss_only() {
        let mut n = unic();
        map_out_on(n.nipt_mut(), 6, 1, 12, UpdatePolicy::Deliberate);
        let data_addr = PageNum::new(6).base();
        let cmd = n.command_space().command_addr_for(data_addr);
        let lat = n.config().unpinned.map_in_latency;
        let e = n
            .command_write(t(0), cmd, 4, |_, _| (Payload::from(vec![0; 16]), t(500)))
            .unwrap();
        let CommandEffect::DmaStarted { done_at } = e else {
            panic!("expected DmaStarted, got {e:?}");
        };
        assert!(done_at >= t(500) + lat, "miss pays the kernel round trip");
        // Second transfer on the now-resident page pays no map-in.
        let done_at = done_at + SimDuration::from_us(1);
        let e2 = n
            .command_write(done_at, cmd, 4, |_, _| {
                (Payload::from(vec![0; 16]), done_at + SimDuration::from_ns(500))
            })
            .unwrap();
        let CommandEffect::DmaStarted { done_at: d2 } = e2 else {
            panic!("expected DmaStarted, got {e2:?}");
        };
        assert!(d2 < done_at + lat, "hit must not pay the round trip");
        let s = UnpinnedNicModel::iotlb_stats(&n);
        assert_eq!((s.misses, s.hits, s.map_ins), (1, 1, 1));
    }
}

//! The pluggable NIC backend boundary.
//!
//! [`NicModel`] captures exactly the surface the machine model
//! (`shrimp-core`'s `node.rs` / `machine.rs`) consumes from a network
//! interface: the snoop/command datapath, the inject/eject pump, DMA
//! delivery, map/unmap + shootdown hooks, and counters. Two backends
//! implement it:
//!
//! - [`ShrimpNicModel`] — the paper's pinned design (map-time pinning,
//!   NIPT translation at the NIC); this is [`NetworkInterface`], the
//!   reference implementation.
//! - [`crate::unpinned::UnpinnedNicModel`] — an NP-RDMA-style design
//!   with no map-time pinning: outgoing translation goes through a
//!   bounded IOTLB whose misses trigger deterministic dynamic map-ins.
//!
//! [`AnyNic`] is the enum the machine embeds in each node. Enum (not
//! generic) dispatch keeps `Node` a single concrete type, which the
//! conservative parallel engine requires: its worker pool crosses raw
//! node pointers between threads, and worker byte-identity is proven
//! for one node layout, not a family of instantiations.

use shrimp_mem::{PageNum, PhysAddr};
use shrimp_mesh::{MeshPacket, MeshShape, NodeId};
use shrimp_sim::fault::NicFaultSite;
use shrimp_sim::{MetricsRegistry, SimTime, Tracer};

use crate::command::CommandSpace;
use crate::config::NicConfig;
use crate::datapath::{CommandEffect, NicInterrupt, SnoopOutcome};
use crate::error::NicError;
use crate::incoming::IncomingDelivery;
use crate::nic::NetworkInterface;
use crate::nipt::{Nipt, OutSegment};
use crate::packet::{Payload, ShrimpPacket};
use crate::stats::NicStats;
use crate::unpinned::{IotlbStats, UnpinnedNicModel};

/// Which NIC backend a machine is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NicBackend {
    /// The paper's design: pages are pinned at map time and the NIPT at
    /// the NIC always holds a valid translation.
    #[default]
    Shrimp,
    /// NP-RDMA-style: no map-time pinning; outgoing translations are
    /// cached in a bounded IOTLB and faulted in dynamically on miss.
    Unpinned,
}

impl NicBackend {
    /// The DSL/CLI spelling of this backend.
    pub fn as_str(self) -> &'static str {
        match self {
            NicBackend::Shrimp => "shrimp",
            NicBackend::Unpinned => "unpinned",
        }
    }

    /// Parses the DSL/CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "shrimp" => Some(NicBackend::Shrimp),
            "unpinned" => Some(NicBackend::Unpinned),
            _ => None,
        }
    }
}

/// The paper's pinned NIC — the reference [`NicModel`] implementation.
pub type ShrimpNicModel = NetworkInterface;

/// The surface `shrimp-core` consumes from a NIC backend.
///
/// The default method bodies implement the map/unmap hooks directly on
/// the NIPT — the pinned behaviour. A backend with extra translation
/// state (the unpinned IOTLB) overrides them to observe kernel-side
/// mapping changes, and overrides [`NicModel::invalidate_translation`]
/// — the shootdown hook — to drop cached translations.
pub trait NicModel {
    /// This NIC's node id.
    fn node(&self) -> NodeId;
    /// The configuration in force.
    fn config(&self) -> &NicConfig;
    /// Installs the typed trace sink.
    fn set_tracer(&mut self, tracer: Tracer);
    /// The trace events recorded by this NIC so far.
    fn tracer(&self) -> &Tracer;
    /// Arms transient receive-stall fault injection.
    fn set_fault_injection(&mut self, site: NicFaultSite);
    /// The network interface page table (shared by both backends: it is
    /// the single source of translation truth; the unpinned backend's
    /// IOTLB only caches *residency*).
    fn nipt(&self) -> &Nipt;
    /// Mutable access to the NIPT. Kernel code should prefer the typed
    /// hooks ([`NicModel::map_in`], [`NicModel::map_out_segment`],
    /// [`NicModel::unmap_out`]) so backends observe the transition.
    fn nipt_mut(&mut self) -> &mut Nipt;
    /// The command address region.
    fn command_space(&self) -> CommandSpace;
    /// Counter snapshot.
    fn stats(&self) -> NicStats;
    /// Registers counters and gauges under `prefix`.
    fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str);

    // ── datapath ─────────────────────────────────────────────────────
    /// Reacts to a snooped write transaction on the memory bus.
    fn snoop_write(&mut self, now: SimTime, addr: PhysAddr, data: &[u8]) -> SnoopOutcome;
    /// True if `addr` is one of this NIC's command addresses.
    fn is_command_addr(&self, addr: PhysAddr) -> bool;
    /// A read cycle on a command address (the DMA status word).
    fn command_read(&mut self, now: SimTime, addr: PhysAddr) -> u32;
    /// A write cycle on a command address; `mem_read` performs the
    /// deliberate-update source read over the memory bus.
    ///
    /// # Errors
    ///
    /// See [`NetworkInterface::command_write`].
    fn command_write(
        &mut self,
        now: SimTime,
        addr: PhysAddr,
        value: u32,
        mem_read: impl FnOnce(PhysAddr, u64) -> (Payload, SimTime),
    ) -> Result<CommandEffect, NicError>;

    // ── pump ─────────────────────────────────────────────────────────
    /// Housekeeping whenever simulated time advances.
    fn poll(&mut self, now: SimTime);
    /// The next time-based deadline this NIC needs a `poll` at.
    fn next_deadline(&self) -> Option<SimTime>;
    /// True while mapped writes must stall the CPU.
    fn cpu_must_stall(&self) -> bool;

    // ── inject / eject ───────────────────────────────────────────────
    /// When the head outgoing packet becomes ready for injection.
    fn outgoing_ready_at(&self) -> Option<SimTime>;
    /// Pops the next outgoing mesh packet ready by `now`.
    fn pop_outgoing(&mut self, now: SimTime) -> Option<MeshPacket<ShrimpPacket>>;
    /// True when [`NicModel::pop_outgoing`] at `now` would change state
    /// (side-effect free).
    fn outgoing_due(&self, now: SimTime) -> bool;
    /// True when control frames or replays are waiting to inject.
    fn has_pending_control(&self) -> bool;
    /// True while the NIC accepts packets from the network at `now`.
    fn can_accept_from_network_at(&self, now: SimTime) -> bool;
    /// Accepts one packet from the mesh.
    ///
    /// # Errors
    ///
    /// See [`NetworkInterface::accept_packet`].
    fn accept_packet(
        &mut self,
        now: SimTime,
        packet: MeshPacket<ShrimpPacket>,
    ) -> Result<(), NicError>;
    /// Pops the head incoming delivery once it clears the receive
    /// pipeline.
    fn pop_incoming(&mut self, now: SimTime) -> Option<Result<IncomingDelivery, NicError>>;
    /// When the head incoming packet clears the receive pipeline.
    fn incoming_ready_at(&self) -> Option<SimTime>;
    /// Drains raised interrupts.
    fn take_interrupts(&mut self) -> Vec<NicInterrupt>;
    /// True when raised interrupts are waiting to be taken.
    fn has_interrupts(&self) -> bool;
    /// Outgoing FIFO occupancy in bytes.
    fn out_fifo_bytes(&self) -> u64;
    /// Incoming FIFO occupancy in bytes.
    fn in_fifo_bytes(&self) -> u64;

    // ── map / unmap + shootdown hooks ────────────────────────────────
    /// Kernel hook: a page became (un)importable — receive-side mapping.
    ///
    /// # Errors
    ///
    /// Propagates [`Nipt::set_mapped_in`] failures (off-table page).
    fn map_in(&mut self, page: PageNum, mapped: bool) -> Result<(), NicError> {
        self.nipt_mut().set_mapped_in(page, mapped)?;
        if !mapped {
            self.invalidate_translation(page);
        }
        Ok(())
    }
    /// Kernel hook: an outgoing mapping segment was installed/rewritten.
    ///
    /// # Errors
    ///
    /// Propagates [`Nipt::set_out_segment`] failures (overlap, bad
    /// segment).
    fn map_out_segment(&mut self, page: PageNum, seg: OutSegment) -> Result<(), NicError> {
        self.nipt_mut().set_out_segment(page, seg)
    }
    /// Kernel hook: the outgoing segment of `page` at `offset` was torn
    /// down. Cached translations for the page are shot down.
    fn unmap_out(&mut self, page: PageNum, offset: u64) -> Option<OutSegment> {
        let seg = self.nipt_mut().clear_out_segment(page, offset);
        self.invalidate_translation(page);
        seg
    }
    /// Shootdown hook: every cached translation for `page` must be
    /// dropped (TLB-shootdown analogue). A no-op on the pinned backend,
    /// whose NIPT is always authoritative.
    fn invalidate_translation(&mut self, page: PageNum) {
        let _ = page;
    }
    /// IOTLB counters, when the backend has one.
    fn iotlb_stats(&self) -> Option<IotlbStats> {
        None
    }
}

impl NicModel for NetworkInterface {
    fn node(&self) -> NodeId {
        NetworkInterface::node(self)
    }
    fn config(&self) -> &NicConfig {
        NetworkInterface::config(self)
    }
    fn set_tracer(&mut self, tracer: Tracer) {
        NetworkInterface::set_tracer(self, tracer);
    }
    fn tracer(&self) -> &Tracer {
        NetworkInterface::tracer(self)
    }
    fn set_fault_injection(&mut self, site: NicFaultSite) {
        NetworkInterface::set_fault_injection(self, site);
    }
    fn nipt(&self) -> &Nipt {
        NetworkInterface::nipt(self)
    }
    fn nipt_mut(&mut self) -> &mut Nipt {
        NetworkInterface::nipt_mut(self)
    }
    fn command_space(&self) -> CommandSpace {
        NetworkInterface::command_space(self)
    }
    fn stats(&self) -> NicStats {
        NetworkInterface::stats(self)
    }
    fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        NetworkInterface::register_metrics(self, reg, prefix);
    }
    fn snoop_write(&mut self, now: SimTime, addr: PhysAddr, data: &[u8]) -> SnoopOutcome {
        NetworkInterface::snoop_write(self, now, addr, data)
    }
    fn is_command_addr(&self, addr: PhysAddr) -> bool {
        NetworkInterface::is_command_addr(self, addr)
    }
    fn command_read(&mut self, now: SimTime, addr: PhysAddr) -> u32 {
        NetworkInterface::command_read(self, now, addr)
    }
    fn command_write(
        &mut self,
        now: SimTime,
        addr: PhysAddr,
        value: u32,
        mem_read: impl FnOnce(PhysAddr, u64) -> (Payload, SimTime),
    ) -> Result<CommandEffect, NicError> {
        NetworkInterface::command_write(self, now, addr, value, mem_read)
    }
    fn poll(&mut self, now: SimTime) {
        NetworkInterface::poll(self, now);
    }
    fn next_deadline(&self) -> Option<SimTime> {
        NetworkInterface::next_deadline(self)
    }
    fn cpu_must_stall(&self) -> bool {
        NetworkInterface::cpu_must_stall(self)
    }
    fn outgoing_ready_at(&self) -> Option<SimTime> {
        NetworkInterface::outgoing_ready_at(self)
    }
    fn pop_outgoing(&mut self, now: SimTime) -> Option<MeshPacket<ShrimpPacket>> {
        NetworkInterface::pop_outgoing(self, now)
    }
    fn outgoing_due(&self, now: SimTime) -> bool {
        NetworkInterface::outgoing_due(self, now)
    }
    fn has_pending_control(&self) -> bool {
        NetworkInterface::has_pending_control(self)
    }
    fn can_accept_from_network_at(&self, now: SimTime) -> bool {
        NetworkInterface::can_accept_from_network_at(self, now)
    }
    fn accept_packet(
        &mut self,
        now: SimTime,
        packet: MeshPacket<ShrimpPacket>,
    ) -> Result<(), NicError> {
        NetworkInterface::accept_packet(self, now, packet)
    }
    fn pop_incoming(&mut self, now: SimTime) -> Option<Result<IncomingDelivery, NicError>> {
        NetworkInterface::pop_incoming(self, now)
    }
    fn incoming_ready_at(&self) -> Option<SimTime> {
        NetworkInterface::incoming_ready_at(self)
    }
    fn take_interrupts(&mut self) -> Vec<NicInterrupt> {
        NetworkInterface::take_interrupts(self)
    }
    fn has_interrupts(&self) -> bool {
        NetworkInterface::has_interrupts(self)
    }
    fn out_fifo_bytes(&self) -> u64 {
        NetworkInterface::out_fifo_bytes(self)
    }
    fn in_fifo_bytes(&self) -> u64 {
        NetworkInterface::in_fifo_bytes(self)
    }
}

/// The backend a node actually embeds: enum dispatch over the
/// [`NicModel`] family (see the module docs for why not generics).
#[derive(Debug, Clone)]
pub enum AnyNic {
    /// The pinned reference backend.
    Shrimp(ShrimpNicModel),
    /// The NP-RDMA-style unpinned backend.
    Unpinned(UnpinnedNicModel),
}

impl AnyNic {
    /// Builds the selected backend for `node`.
    pub fn new(
        backend: NicBackend,
        node: NodeId,
        shape: MeshShape,
        config: NicConfig,
        num_pages: u64,
    ) -> Self {
        match backend {
            NicBackend::Shrimp => {
                AnyNic::Shrimp(NetworkInterface::new(node, shape, config, num_pages))
            }
            NicBackend::Unpinned => {
                AnyNic::Unpinned(UnpinnedNicModel::new(node, shape, config, num_pages))
            }
        }
    }

    /// Which backend this is.
    pub fn backend(&self) -> NicBackend {
        match self {
            AnyNic::Shrimp(_) => NicBackend::Shrimp,
            AnyNic::Unpinned(_) => NicBackend::Unpinned,
        }
    }

    /// The unpinned backend, if that is what this node runs.
    pub fn as_unpinned(&self) -> Option<&UnpinnedNicModel> {
        match self {
            AnyNic::Shrimp(_) => None,
            AnyNic::Unpinned(n) => Some(n),
        }
    }
}

/// Forwards every [`NicModel`] method to the active variant.
macro_rules! dispatch {
    ($self:ident, $n:ident => $body:expr) => {
        match $self {
            AnyNic::Shrimp($n) => $body,
            AnyNic::Unpinned($n) => $body,
        }
    };
}

impl NicModel for AnyNic {
    fn node(&self) -> NodeId {
        dispatch!(self, n => n.node())
    }
    fn config(&self) -> &NicConfig {
        dispatch!(self, n => n.config())
    }
    fn set_tracer(&mut self, tracer: Tracer) {
        dispatch!(self, n => n.set_tracer(tracer))
    }
    fn tracer(&self) -> &Tracer {
        dispatch!(self, n => n.tracer())
    }
    fn set_fault_injection(&mut self, site: NicFaultSite) {
        dispatch!(self, n => n.set_fault_injection(site))
    }
    fn nipt(&self) -> &Nipt {
        dispatch!(self, n => n.nipt())
    }
    fn nipt_mut(&mut self) -> &mut Nipt {
        dispatch!(self, n => n.nipt_mut())
    }
    fn command_space(&self) -> CommandSpace {
        dispatch!(self, n => n.command_space())
    }
    fn stats(&self) -> NicStats {
        dispatch!(self, n => n.stats())
    }
    fn register_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        dispatch!(self, n => n.register_metrics(reg, prefix))
    }
    fn snoop_write(&mut self, now: SimTime, addr: PhysAddr, data: &[u8]) -> SnoopOutcome {
        dispatch!(self, n => n.snoop_write(now, addr, data))
    }
    fn is_command_addr(&self, addr: PhysAddr) -> bool {
        dispatch!(self, n => n.is_command_addr(addr))
    }
    fn command_read(&mut self, now: SimTime, addr: PhysAddr) -> u32 {
        dispatch!(self, n => n.command_read(now, addr))
    }
    fn command_write(
        &mut self,
        now: SimTime,
        addr: PhysAddr,
        value: u32,
        mem_read: impl FnOnce(PhysAddr, u64) -> (Payload, SimTime),
    ) -> Result<CommandEffect, NicError> {
        dispatch!(self, n => n.command_write(now, addr, value, mem_read))
    }
    fn poll(&mut self, now: SimTime) {
        dispatch!(self, n => n.poll(now))
    }
    fn next_deadline(&self) -> Option<SimTime> {
        dispatch!(self, n => n.next_deadline())
    }
    fn cpu_must_stall(&self) -> bool {
        dispatch!(self, n => n.cpu_must_stall())
    }
    fn outgoing_ready_at(&self) -> Option<SimTime> {
        dispatch!(self, n => n.outgoing_ready_at())
    }
    fn pop_outgoing(&mut self, now: SimTime) -> Option<MeshPacket<ShrimpPacket>> {
        dispatch!(self, n => n.pop_outgoing(now))
    }
    fn outgoing_due(&self, now: SimTime) -> bool {
        dispatch!(self, n => n.outgoing_due(now))
    }
    fn has_pending_control(&self) -> bool {
        dispatch!(self, n => n.has_pending_control())
    }
    fn can_accept_from_network_at(&self, now: SimTime) -> bool {
        dispatch!(self, n => n.can_accept_from_network_at(now))
    }
    fn accept_packet(
        &mut self,
        now: SimTime,
        packet: MeshPacket<ShrimpPacket>,
    ) -> Result<(), NicError> {
        dispatch!(self, n => n.accept_packet(now, packet))
    }
    fn pop_incoming(&mut self, now: SimTime) -> Option<Result<IncomingDelivery, NicError>> {
        dispatch!(self, n => n.pop_incoming(now))
    }
    fn incoming_ready_at(&self) -> Option<SimTime> {
        dispatch!(self, n => n.incoming_ready_at())
    }
    fn take_interrupts(&mut self) -> Vec<NicInterrupt> {
        dispatch!(self, n => n.take_interrupts())
    }
    fn has_interrupts(&self) -> bool {
        dispatch!(self, n => n.has_interrupts())
    }
    fn out_fifo_bytes(&self) -> u64 {
        dispatch!(self, n => n.out_fifo_bytes())
    }
    fn in_fifo_bytes(&self) -> u64 {
        dispatch!(self, n => n.in_fifo_bytes())
    }
    fn map_in(&mut self, page: PageNum, mapped: bool) -> Result<(), NicError> {
        dispatch!(self, n => n.map_in(page, mapped))
    }
    fn map_out_segment(&mut self, page: PageNum, seg: OutSegment) -> Result<(), NicError> {
        dispatch!(self, n => n.map_out_segment(page, seg))
    }
    fn unmap_out(&mut self, page: PageNum, offset: u64) -> Option<OutSegment> {
        dispatch!(self, n => n.unmap_out(page, offset))
    }
    fn invalidate_translation(&mut self, page: PageNum) {
        dispatch!(self, n => n.invalidate_translation(page))
    }
    fn iotlb_stats(&self) -> Option<IotlbStats> {
        // Qualified: the unpinned backend also has an inherent
        // `iotlb_stats` returning the bare struct.
        dispatch!(self, n => NicModel::iotlb_stats(n))
    }
}

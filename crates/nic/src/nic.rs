//! The network interface state machine.
//!
//! [`NetworkInterface`] composes the NIPT, FIFOs, DMA engine and command
//! space into the datapath of Figure 4. It is a passive component: the
//! machine model in `shrimp-core` feeds it snooped bus writes, drains its
//! Outgoing FIFO into the mesh, offers it arriving mesh packets, and
//! performs the EISA DMA for deliveries it pops from the Incoming FIFO.
//!
//! The behaviour is split across sibling modules, all implementing
//! methods on [`NetworkInterface`]:
//!
//! - [`crate::datapath`] — snooped automatic updates and command-driven
//!   deliberate updates,
//! - [`crate::outgoing`] — Outgoing FIFO, overflow spill/refill, and the
//!   FIFO→mesh injection path,
//! - [`crate::incoming`] — mesh→Incoming FIFO acceptance and delivery,
//! - [`crate::retx`] — go-back-N retransmission and bounce/reroute
//!   recovery,
//! - [`crate::stats`] — counters and registry wiring.
//!
//! This module keeps the struct itself, construction, and the shared
//! housekeeping (`poll` / `next_deadline`).

use shrimp_mesh::{MeshCoord, MeshShape, NodeId};
use shrimp_sim::fault::NicFaultSite;
use shrimp_sim::{ComponentId, MetricSet, SimTime, Tracer};

use crate::command::CommandSpace;
use crate::config::NicConfig;
use crate::dma::DmaEngine;
use crate::fifo::PacketFifo;
use crate::nipt::Nipt;
use crate::packet::ShrimpPacket;

// Re-exports so the long-standing `shrimp_nic::nic::*` paths keep
// resolving after the module split.
pub use crate::datapath::{CommandEffect, NicInterrupt, SnoopOutcome};
pub use crate::incoming::IncomingDelivery;
pub use crate::stats::NicStats;

pub(crate) use crate::datapath::PendingBlocked;
pub(crate) use crate::retx::RetxState;
pub(crate) use crate::stats::NicCounterIds;

/// The SHRIMP network interface of one node.
///
/// See the crate-level docs for an example.
#[derive(Debug, Clone)]
pub struct NetworkInterface {
    pub(crate) node: NodeId,
    pub(crate) coord: MeshCoord,
    pub(crate) shape: MeshShape,
    pub(crate) config: NicConfig,
    pub(crate) nipt: Nipt,
    pub(crate) cmd_space: CommandSpace,
    pub(crate) out_fifo: PacketFifo,
    pub(crate) in_fifo: PacketFifo,
    pub(crate) pending: Option<PendingBlocked>,
    pub(crate) overflow: std::collections::VecDeque<ShrimpPacket>,
    pub(crate) dma: DmaEngine,
    pub(crate) interrupts: Vec<NicInterrupt>,
    pub(crate) out_threshold_raised: bool,
    /// Go-back-N engine state; `None` when retransmission is disabled.
    pub(crate) retx: Option<RetxState>,
    /// Pending ack/nack frames `(ready_at, dst, frame)`. Control frames
    /// bypass the data FIFO: the hardware generates them on the receive
    /// side and data backpressure must not block them (deadlock).
    pub(crate) ctl_queue: std::collections::VecDeque<(SimTime, NodeId, ShrimpPacket)>,
    /// Fault injection: transient receive stalls.
    pub(crate) fault: Option<NicFaultSite>,
    /// While set, the NIC refuses packets from the network.
    pub(crate) stall_until: Option<SimTime>,
    /// Hot-path counters, read back via [`NetworkInterface::stats`] or a
    /// [`shrimp_sim::MetricsRegistry`].
    pub(crate) metrics: MetricSet,
    /// Handles into `metrics`, resolved once at construction.
    pub(crate) ids: NicCounterIds,
    /// Typed trace sink (disabled by default: recording costs nothing).
    pub(crate) tracer: Tracer,
    /// Mirrors `in_fifo.over_threshold()` so threshold crossings emit
    /// exactly one raise/clear trace pair per backpressure episode.
    pub(crate) in_threshold_traced: bool,
}

impl NetworkInterface {
    /// Creates the NIC of `node` on a `shape` backplane with `num_pages`
    /// of local physical memory behind it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the node is off-mesh.
    pub fn new(node: NodeId, shape: MeshShape, config: NicConfig, num_pages: u64) -> Self {
        config.validate();
        let coord = shape.coord_of(node);
        let mut metrics = MetricSet::new();
        let ids = NicCounterIds::register(&mut metrics);
        NetworkInterface {
            node,
            coord,
            shape,
            config,
            nipt: Nipt::new(num_pages),
            cmd_space: CommandSpace::new(num_pages * shrimp_mem::PAGE_SIZE),
            out_fifo: PacketFifo::new(config.out_fifo_bytes, config.out_fifo_threshold),
            in_fifo: PacketFifo::new(config.in_fifo_bytes, config.in_fifo_threshold),
            pending: None,
            overflow: std::collections::VecDeque::new(),
            dma: DmaEngine::new(),
            interrupts: Vec::new(),
            out_threshold_raised: false,
            retx: config.retx.enabled.then(RetxState::default),
            ctl_queue: std::collections::VecDeque::new(),
            fault: None,
            stall_until: None,
            metrics,
            ids,
            tracer: Tracer::disabled(),
            in_threshold_traced: false,
        }
    }

    /// Installs the typed trace sink. Tracing is off until this is called
    /// (and free when the installed tracer is disabled).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The trace events recorded by this NIC so far.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This NIC's trace component id (`nic0`, `nic1`, …).
    pub(crate) fn component(&self) -> ComponentId {
        ComponentId::nic(self.node.0)
    }

    /// Arms transient receive-stall fault injection on this NIC.
    pub fn set_fault_injection(&mut self, site: NicFaultSite) {
        self.fault = Some(site);
    }

    /// This NIC's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This NIC's mesh coordinates.
    pub fn coord(&self) -> MeshCoord {
        self.coord
    }

    /// The configuration in force.
    pub fn config(&self) -> &NicConfig {
        &self.config
    }

    /// The network interface page table.
    pub fn nipt(&self) -> &Nipt {
        &self.nipt
    }

    /// Mutable access to the NIPT — the `map` system call's target.
    pub fn nipt_mut(&mut self) -> &mut Nipt {
        &mut self.nipt
    }

    /// The command address region.
    pub fn command_space(&self) -> CommandSpace {
        self.cmd_space
    }

    /// The DMA engine (primarily for inspection in tests and benches).
    pub fn dma(&self) -> &DmaEngine {
        &self.dma
    }

    /// Housekeeping: expires the blocked-write merge window and retries
    /// overflowed packets. Call whenever simulated time advances.
    pub fn poll(&mut self, now: SimTime) {
        if let Some(p) = &self.pending {
            // At or past the deadline the packet is terminated (>=, so a
            // wakeup scheduled exactly at the deadline makes progress).
            if now.saturating_since(p.last_write) >= self.config.merge_window {
                self.flush_pending(now);
            }
        }
        self.refill_from_overflow(now);
        self.clear_out_threshold(now);
        if self.stall_until.is_some_and(|s| now >= s) {
            self.stall_until = None;
        }
        self.poll_retx(now);
    }

    /// The next time-based deadline this NIC needs a `poll` at: merge
    /// window expiry, retransmit timer, or the end of an injected stall.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut deadline = self
            .pending
            .as_ref()
            .map(|p| p.last_write + self.config.merge_window);
        let fold = |t: SimTime, d: Option<SimTime>| Some(d.map_or(t, |cur| cur.min(t)));
        if let Some(s) = self.stall_until {
            deadline = fold(s, deadline);
        }
        if let Some(st) = &self.retx {
            for peer in st.send.values() {
                if let Some(t) = peer.timeout_at {
                    deadline = fold(t, deadline);
                }
            }
        }
        deadline
    }

    /// Drains raised interrupts.
    pub fn take_interrupts(&mut self) -> Vec<NicInterrupt> {
        std::mem::take(&mut self.interrupts)
    }

    /// True when raised interrupts are waiting to be taken.
    pub fn has_interrupts(&self) -> bool {
        !self.interrupts.is_empty()
    }
}

//! The SHRIMP multicomputer, assembled.
//!
//! This crate is the paper's system put together: commodity nodes
//! (CPU + memory + snooping cache + Xpress/EISA buses), the custom
//! virtual memory-mapped network interface, node kernels, and the
//! Paragon-style mesh backplane, all advanced by one deterministic event
//! loop.
//!
//! * [`Machine`] — build it from a [`MachineConfig`], create processes,
//!   export receive buffers, establish mappings with [`Machine::map`],
//!   and either run mini-ISA programs on the simulated CPUs or move data
//!   with the host-level [`Machine::poke`] / [`Machine::peek`].
//! * [`msglib`] — the paper's §5.2 message-passing primitives written in
//!   the mini-ISA: single buffering (± copy), double buffering (loop
//!   cases 1–3), the deliberate-update send macro, and user-level NX/2
//!   `csend`/`crecv`. Running them reproduces Table 1's instruction
//!   counts.
//! * [`pram`] — the PRAM-consistency shared-memory layer of §4.1
//!   (complementary automatic-update mappings).
//! * [`mqueue`] — FIFO queues emulated over memory mappings, the §7
//!   argument that the mapped model subsumes FIFO interfaces.
//! * [`collective`] — barrier and broadcast layered on point-to-point
//!   mappings (the library work §7 says the model pushes to user level).
//!
//! See the [`Machine`] docs for an end-to-end example.

pub mod collective;
pub mod config;
mod engine;
pub mod error;
pub mod machine;
pub mod mqueue;
pub mod msglib;
mod node;
pub mod pram;

pub use config::MachineConfig;
pub use error::MachineError;
pub use machine::{
    DeliveryRecord, LatencyRecord, Machine, MachineTelemetry, MapRequest, MappingId, PumpStats,
};

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Memory controllers for the `cwfmem` simulator.
//!
//! This crate sits between the cache hierarchy and the `dram-timing`
//! channels. It provides:
//!
//! * [`request`] — the [`LineRequest`]/[`MemEvent`] vocabulary and the
//!   [`MainMemory`] trait every memory backend (homogeneous or the paper's
//!   CWF heterogeneous design) implements;
//! * [`mapping`] — physical address interleaving schemes (the open-page
//!   row-locality mapping of the baseline, and close-page bank interleaving
//!   for RLDRAM3);
//! * [`controller`] — the per-channel controller of Table 1 of the paper:
//!   an FR-FCFS transaction scheduler with 48-entry read/write queues,
//!   write-drain watermarks (32/16) and demand-over-prefetch priority with
//!   age promotion, a refresh unit, and power-state management;
//! * [`aggregate`] — the arbiter of §4.2.4's sub-ranked organization:
//!   several skinny data channels sharing one double-data-rate
//!   address/command bus (one command per device cycle across all
//!   sub-channels);
//! * [`channelset`] — [`ChannelSet`], the controllers of every backend in
//!   their clock domains plus the plumbing around them (tick gating,
//!   completion queue, retries, stats, wake-up bounds, audit, trace), and
//!   the [`Organization`] trait a backend implements to get
//!   [`MainMemory`];
//! * [`homogeneous`] — the organization of N identical interleaved
//!   channels (the baseline and the all-RLDRAM3 / all-LPDDR2 comparison
//!   points of Figure 1).
//!
//! # Examples
//!
//! ```
//! use mem_ctrl::{HomogeneousMemory, LineRequest, MainMemory};
//!
//! let mut mem = HomogeneousMemory::baseline_ddr3();
//! let req = LineRequest::demand_read(0x4000, 0, 0);
//! let token = mem.try_submit(&req, 0).unwrap().unwrap();
//! let mut events = Vec::new();
//! for cyc in 0..2_000 {
//!     mem.tick(cyc);
//!     mem.drain_events(cyc, &mut events);
//! }
//! assert!(events.iter().any(|e| e.token() == token));
//! ```

pub mod aggregate;
pub mod audit;
pub mod channelset;
pub mod controller;
pub mod homogeneous;
pub mod mapping;
mod refresh;
pub mod request;
mod sched;
mod txnq;

pub use aggregate::AggregatedController;
pub use audit::{AuditRecord, CacheAuditOp, ChannelDesc};
pub use channelset::{ChannelSet, ClockDomain, CtrlTicks, Organization};
pub use controller::{Controller, ControllerStats, CtrlParams, SchedPolicy};
pub use homogeneous::{HomogeneousMemory, PAGE_BYTES};
pub use mapping::{AddressMapper, Loc, MappingScheme};
pub use request::{
    AccessKind, LineRequest, MainMemory, MemBusy, MemEvent, MemSystemStats, RequestToken, Token,
};

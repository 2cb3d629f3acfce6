#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The paper's contribution: critical-word-first heterogeneous DRAM.
//!
//! A cache line is split across two memory types (§4.2):
//!
//! * one designated word (plus a parity bit per byte) lives on a
//!   **low-latency DIMM** — four x9 RLDRAM3 sub-channels aggregated behind
//!   a single memory controller and shared address/command bus;
//! * the other seven words plus the line's SECDED ECC live on a
//!   **low-power DIMM** — a 64-bit LPDDR2 (or DDR3) channel.
//!
//! Every LLC miss creates *two* memory requests. Because the RLDRAM
//! channel has far lower device latency and queueing delay, the critical
//! word typically arrives tens of CPU cycles before the rest of the line;
//! the waiting instruction is woken after a parity check, and full SECDED
//! coverage is restored when the slow part lands (§4.2.3).
//!
//! Modules:
//!
//! * [`placement`] — which word goes to the fast DIMM: the paper's static
//!   word-0 scheme, the adaptive 3-bit-tag scheme (§4.2.5), the oracular
//!   upper bound, and the random-mapping control experiment (§6.1.1);
//! * [`hetero`] — [`HeteroCwfMemory`], the split-transaction backend
//!   (implements [`mem_ctrl::MainMemory`]);
//! * [`pageplace`] — the page-granularity comparator of §7.1 and the
//!   hot-page selection that feeds it;
//! * [`dramcache`] — [`DramCacheMemory`], the competing hybrid-memory
//!   organization: the fast channels as a tags-in-DRAM line cache in
//!   front of a slow NVM-like store (DESIGN.md §17).
//!
//! # Examples
//!
//! ```
//! use cwf_core::{CwfConfig, HeteroCwfMemory};
//! use mem_ctrl::{LineRequest, MainMemory, MemEvent};
//!
//! let mut mem = HeteroCwfMemory::new(CwfConfig::rl()); // RLDRAM3 + LPDDR2
//! let token = mem
//!     .try_submit(&LineRequest::demand_read(0x8000, 0, 0), 0)
//!     .unwrap()
//!     .unwrap();
//! let mut ev = Vec::new();
//! for now in 0..3_000 {
//!     mem.tick(now);
//!     mem.drain_events(now, &mut ev);
//! }
//! // Word 0 (critical) arrives well before the full line.
//! let first = ev.iter().find(|e| matches!(e, MemEvent::WordsAvailable { .. })).unwrap();
//! let fill = ev.iter().find(|e| matches!(e, MemEvent::LineFilled { .. })).unwrap();
//! assert!(first.at() < fill.at());
//! assert_eq!(first.token(), token);
//! ```

pub mod dramcache;
pub mod hetero;
pub mod pageplace;
pub mod placement;

pub use dramcache::{DramCacheConfig, DramCacheMemory, DramCacheStats, FillPolicy};
pub use hetero::{CwfConfig, CwfStats, HeteroCwfMemory};
pub use pageplace::{hot_pages, PagePlacedMemory, PAGE_BYTES};
pub use placement::{Placement, PlacementPolicy};

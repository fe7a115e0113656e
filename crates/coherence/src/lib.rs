//! A MESI directory cache-coherence simulator.
//!
//! Kona's core insight (§3) is that the hardware *already* tracks every
//! read and write through cache coherence: a memory controller (or a
//! cache-coherent FPGA exporting VFMem) sees a `GetS`/`GetM` request for
//! every line the CPU pulls in and a writeback for every modified line the
//! CPU evicts. This crate simulates that machinery:
//!
//! * [`CoherenceSystem`] — CPU caches at line granularity (MESI states,
//!   LRU capacity evictions) and the home agent's directory, behind
//!   [`CoherenceSystem::read`] / [`CoherenceSystem::write`] /
//!   [`CoherenceSystem::recall`] (the FPGA's snoop) /
//!   [`CoherenceSystem::invalidate_page`] (the FPGA expelling a page),
//!   queueing [`WritebackEvent`]s — precisely the stream the Kona FPGA
//!   turns into dirty cache-line bitmaps (the `track-local-data`
//!   primitive).
//! * [`LineState`], [`DirEntry`], [`AgentStats`] — what
//!   [`CoherenceSystem::agent_state`], [`CoherenceSystem::directory_entry`]
//!   and [`CoherenceSystem::agent_stats`] report, for inspecting protocol
//!   state in tests and in the FPGA model.
//!
//! Like the hardware directory it models ("a directory for VFMem, similar
//! to current directories in the CPU", §4.3), the state is an indexed
//! table, not a hash map per line: one record per *page* holds the 64
//! directory words and the LRU positions of its cached lines, so a cache
//! hit touches no hash table and the table never outgrows what the caches
//! hold.
//!
//! The protocol maintains the single-writer/multiple-reader invariant,
//! verified by property tests, by [`CoherenceSystem::check_invariants`]
//! and by a twin test against the previous map-per-line implementation.
//!
//! # Examples
//!
//! ```
//! use kona_coherence::{AgentId, CoherenceSystem};
//! use kona_types::LineIndex;
//!
//! let mut sys = CoherenceSystem::new(2, 4); // 2 agents, 4-line caches
//! sys.write(AgentId(0), LineIndex(1));
//! // Agent 1 reading the line forces agent 0's dirty copy back to memory.
//! sys.read(AgentId(1), LineIndex(1));
//! let events = sys.drain_writebacks();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].line, LineIndex(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod agent;
#[cfg(test)]
mod directory;
mod line_list;
mod page_table;
#[cfg(test)]
mod reference;
mod state;
mod system;

pub use page_table::MAX_AGENTS;
pub use state::{AgentStats, DirEntry, LineState};
pub use system::{
    AccessResult, AgentId, CoherenceStats, CoherenceSystem, WritebackCause, WritebackEvent,
};

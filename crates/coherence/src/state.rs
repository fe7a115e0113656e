//! The inspection types: what a line looks like from a cache's side
//! ([`LineState`]), from the directory's side ([`DirEntry`]), and the
//! per-agent counters ([`AgentStats`]).

/// MESI stable states for a line in a cache agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Dirty, exclusive copy.
    Modified,
    /// Clean, exclusive copy (silent upgrade to Modified allowed).
    Exclusive,
    /// Clean, possibly shared copy.
    Shared,
}

impl LineState {
    /// Whether this state permits a write hit without a directory message.
    pub fn writable(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }

    /// Whether the copy is dirty with respect to memory.
    pub fn dirty(self) -> bool {
        matches!(self, LineState::Modified)
    }
}

/// Per-agent counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Read or write hits served entirely by this cache.
    pub hits: u64,
    /// Accesses requiring a directory transaction.
    pub misses: u64,
    /// Lines displaced by capacity.
    pub capacity_evictions: u64,
    /// Invalidation messages honoured.
    pub invalidations_received: u64,
}

/// Directory-side state for one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirEntry {
    /// No cache holds the line.
    Uncached,
    /// One or more caches hold clean copies.
    Shared(Vec<u32>),
    /// Exactly one cache holds the line in Exclusive or Modified state.
    Owned(u32),
}

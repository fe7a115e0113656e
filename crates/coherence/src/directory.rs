//! The reference directory: one hashed [`DirEntry`] per tracked line.
//! Test-only — see [`crate::reference`].

use crate::state::DirEntry;
use kona_types::{FxHashMap, LineIndex};

/// The directory maps lines to their sharers/owner.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// Fx-hashed: probed on every directory transaction.
    entries: FxHashMap<u64, DirEntry>,
}

impl Directory {
    /// Creates an empty directory (all lines uncached).
    pub fn new() -> Self {
        Directory::default()
    }

    /// The entry for `line` ([`DirEntry::Uncached`] if never set).
    pub fn entry(&self, line: LineIndex) -> DirEntry {
        self.entries
            .get(&line.raw())
            .cloned()
            .unwrap_or(DirEntry::Uncached)
    }

    /// Sets the entry for `line`; `Uncached` removes the map slot.
    pub fn set(&mut self, line: LineIndex, entry: DirEntry) {
        match entry {
            DirEntry::Uncached => {
                self.entries.remove(&line.raw());
            }
            e => {
                self.entries.insert(line.raw(), e);
            }
        }
    }

    /// Adds `agent` to the sharer set of `line`.
    ///
    /// # Panics
    ///
    /// Panics if the line is currently owned — the caller must downgrade
    /// the owner first; calling this directly would violate SWMR.
    pub fn add_sharer(&mut self, line: LineIndex, agent: u32) {
        let entry = self.entry(line);
        match entry {
            DirEntry::Uncached => self.set(line, DirEntry::Shared(vec![agent])),
            DirEntry::Shared(mut s) => {
                if !s.contains(&agent) {
                    s.push(agent);
                }
                self.set(line, DirEntry::Shared(s));
            }
            DirEntry::Owned(_) => panic!("add_sharer on owned line violates SWMR"),
        }
    }

    /// Removes `agent` from `line`'s sharers/ownership (e.g. after a silent
    /// eviction notification). No-op if not present.
    pub fn remove_agent(&mut self, line: LineIndex, agent: u32) {
        match self.entry(line) {
            DirEntry::Uncached => {}
            DirEntry::Shared(mut s) => {
                s.retain(|&a| a != agent);
                if s.is_empty() {
                    self.set(line, DirEntry::Uncached);
                } else {
                    self.set(line, DirEntry::Shared(s));
                }
            }
            DirEntry::Owned(o) => {
                if o == agent {
                    self.set(line, DirEntry::Uncached);
                }
            }
        }
    }

    /// Number of tracked (non-uncached) lines.
    pub fn tracked_lines(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_uncached() {
        let dir = Directory::new();
        assert_eq!(dir.entry(LineIndex(1)), DirEntry::Uncached);
        assert_eq!(dir.tracked_lines(), 0);
    }

    #[test]
    fn sharer_set_management() {
        let mut dir = Directory::new();
        dir.add_sharer(LineIndex(1), 0);
        dir.add_sharer(LineIndex(1), 1);
        dir.add_sharer(LineIndex(1), 1); // idempotent
        assert_eq!(dir.entry(LineIndex(1)), DirEntry::Shared(vec![0, 1]));
        dir.remove_agent(LineIndex(1), 0);
        assert_eq!(dir.entry(LineIndex(1)), DirEntry::Shared(vec![1]));
        dir.remove_agent(LineIndex(1), 1);
        assert_eq!(dir.entry(LineIndex(1)), DirEntry::Uncached);
    }

    #[test]
    fn owned_transitions() {
        let mut dir = Directory::new();
        dir.set(LineIndex(2), DirEntry::Owned(3));
        assert_eq!(dir.tracked_lines(), 1);
        dir.remove_agent(LineIndex(2), 2); // wrong agent: no-op
        assert_eq!(dir.entry(LineIndex(2)), DirEntry::Owned(3));
        dir.remove_agent(LineIndex(2), 3);
        assert_eq!(dir.entry(LineIndex(2)), DirEntry::Uncached);
    }

    #[test]
    #[should_panic]
    fn add_sharer_to_owned_panics() {
        let mut dir = Directory::new();
        dir.set(LineIndex(1), DirEntry::Owned(0));
        dir.add_sharer(LineIndex(1), 1);
    }
}

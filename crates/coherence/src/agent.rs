//! The reference cache agent: a map from line to MESI state plus a
//! hashed LRU index. Test-only — the twin test in [`crate::reference`]
//! drives it against the page-indexed implementation.

use crate::state::{AgentStats, LineState};
use kona_types::{FxHashMap, LineIndex, SlabLru};

/// A CPU cache at line granularity: a capacity-bounded map from line to
/// MESI state with LRU replacement.
///
/// Agents do not act on their own; [`crate::reference::RefSystem`]
/// drives them and the directory together.
#[derive(Debug, Clone)]
pub struct CacheAgent {
    capacity: usize,
    /// Fx-hashed: line numbers are simulator-generated, not adversarial,
    /// and this map is probed on every access.
    lines: FxHashMap<u64, LineState>,
    lru: SlabLru,
    stats: AgentStats,
}

impl CacheAgent {
    /// Creates an agent holding at most `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "agent capacity must be positive");
        CacheAgent {
            capacity,
            lines: FxHashMap::default(),
            lru: SlabLru::with_capacity(capacity),
            stats: AgentStats::default(),
        }
    }

    /// Current state of `line`, if cached.
    pub fn state(&self, line: LineIndex) -> Option<LineState> {
        self.lines.get(&line.raw()).copied()
    }

    /// Number of cached lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Counters.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// Lines currently in [`LineState::Modified`], sorted.
    pub fn modified_lines(&self) -> Vec<LineIndex> {
        let mut v: Vec<LineIndex> = self.modified().collect();
        v.sort_unstable();
        v
    }

    /// Lines currently in [`LineState::Modified`], in no particular
    /// order — one pass over the cache, no allocation.
    pub fn modified(&self) -> impl Iterator<Item = LineIndex> + '_ {
        self.lines
            .iter()
            .filter(|(_, s)| s.dirty())
            .map(|(&l, _)| LineIndex(l))
    }

    /// Installs `line` in `state`, touching LRU order. If the cache is at
    /// capacity, evicts the LRU line and returns `(line, state)` of the
    /// victim.
    pub fn install(
        &mut self,
        line: LineIndex,
        state: LineState,
    ) -> Option<(LineIndex, LineState)> {
        let mut victim = None;
        if !self.lines.contains_key(&line.raw()) && self.lines.len() == self.capacity {
            let v = self.lru.pop_lru().expect("capacity > 0 implies LRU entry");
            let vs = self.lines.remove(&v).expect("LRU entry must be cached");
            self.stats.capacity_evictions += 1;
            victim = Some((LineIndex(v), vs));
        }
        self.lines.insert(line.raw(), state);
        self.lru.touch(line.raw());
        victim
    }

    /// Records a hit on `line` (LRU touch + counter).
    pub(crate) fn note_hit(&mut self, line: LineIndex) {
        self.stats.hits += 1;
        self.lru.touch(line.raw());
    }

    /// Records a miss (counter only; install happens separately).
    pub(crate) fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Changes the state of a cached line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not cached — protocol bugs should fail loudly.
    pub(crate) fn set_state(&mut self, line: LineIndex, state: LineState) {
        let slot = self
            .lines
            .get_mut(&line.raw())
            .expect("state change for uncached line");
        *slot = state;
    }

    /// Drops `line` (invalidation); returns the old state if it was cached.
    pub fn invalidate(&mut self, line: LineIndex) -> Option<LineState> {
        let old = self.lines.remove(&line.raw());
        if old.is_some() {
            self.lru.remove(line.raw());
            self.stats.invalidations_received += 1;
        }
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(LineState::Modified.writable() && LineState::Modified.dirty());
        assert!(LineState::Exclusive.writable() && !LineState::Exclusive.dirty());
        assert!(!LineState::Shared.writable());
    }

    #[test]
    fn install_and_state() {
        let mut a = CacheAgent::new(2);
        assert!(a.install(LineIndex(1), LineState::Shared).is_none());
        assert_eq!(a.state(LineIndex(1)), Some(LineState::Shared));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn capacity_eviction_returns_victim() {
        let mut a = CacheAgent::new(2);
        a.install(LineIndex(1), LineState::Modified);
        a.install(LineIndex(2), LineState::Shared);
        let victim = a.install(LineIndex(3), LineState::Exclusive);
        assert_eq!(victim, Some((LineIndex(1), LineState::Modified)));
        assert_eq!(a.stats().capacity_evictions, 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn reinstall_does_not_evict() {
        let mut a = CacheAgent::new(1);
        a.install(LineIndex(1), LineState::Shared);
        assert!(a.install(LineIndex(1), LineState::Modified).is_none());
        assert_eq!(a.state(LineIndex(1)), Some(LineState::Modified));
    }

    #[test]
    fn invalidate() {
        let mut a = CacheAgent::new(2);
        a.install(LineIndex(1), LineState::Modified);
        assert_eq!(a.invalidate(LineIndex(1)), Some(LineState::Modified));
        assert_eq!(a.invalidate(LineIndex(1)), None);
        assert_eq!(a.stats().invalidations_received, 1);
    }

    #[test]
    fn modified_lines_sorted() {
        let mut a = CacheAgent::new(4);
        a.install(LineIndex(5), LineState::Modified);
        a.install(LineIndex(2), LineState::Modified);
        a.install(LineIndex(3), LineState::Shared);
        assert_eq!(a.modified_lines(), vec![LineIndex(2), LineIndex(5)]);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        CacheAgent::new(0);
    }
}

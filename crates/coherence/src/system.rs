//! The coherence system: agents + directory + the writeback event stream.

use crate::agent::{AgentStats, CacheAgent, LineState};
use crate::directory::{DirEntry, Directory};
use kona_types::LineIndex;
use std::collections::VecDeque;

/// Identifies a cache agent (CPU core / cache slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentId(pub u32);

/// Why a modified line reached memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritebackCause {
    /// Capacity eviction from a cache agent (PutM).
    Eviction,
    /// Downgrade to Shared because another agent read the line.
    Downgrade,
    /// Invalidation because another agent wrote the line.
    Invalidation,
    /// Explicit snoop issued by the memory agent (the FPGA preparing to
    /// write dirty data to remote memory, §4.4).
    Snoop,
}

/// A dirty line reaching memory — the raw material of Kona's cache-line
/// dirty-data tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritebackEvent {
    /// The line written back.
    pub line: LineIndex,
    /// The agent that held the modified copy.
    pub agent: AgentId,
    /// What triggered the writeback.
    pub cause: WritebackCause,
}

/// Result of one processor access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// The access was satisfied without a directory transaction.
    pub hit: bool,
    /// Invalidations sent to other agents.
    pub invalidations: usize,
    /// A dirty copy had to be fetched from another agent.
    pub forwarded: bool,
}

/// Protocol-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Total reads issued.
    pub reads: u64,
    /// Total writes issued.
    pub writes: u64,
    /// Directory transactions (misses and upgrades).
    pub directory_transactions: u64,
    /// Invalidation messages delivered.
    pub invalidations: u64,
    /// Writebacks that reached memory.
    pub writebacks: u64,
    /// Snoops issued by the memory agent.
    pub snoops: u64,
}

impl CoherenceStats {
    /// Accumulates another domain's counters (shard-merge aggregation).
    pub fn merge(&mut self, other: &CoherenceStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.directory_transactions += other.directory_transactions;
        self.invalidations += other.invalidations;
        self.writebacks += other.writebacks;
        self.snoops += other.snoops;
    }
}

/// A complete single-host coherence domain.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct CoherenceSystem {
    agents: Vec<CacheAgent>,
    directory: Directory,
    events: VecDeque<WritebackEvent>,
    stats: CoherenceStats,
}

impl CoherenceSystem {
    /// Creates `n_agents` agents each holding up to `lines_per_agent`
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(n_agents: usize, lines_per_agent: usize) -> Self {
        assert!(n_agents > 0, "need at least one agent");
        CoherenceSystem {
            agents: (0..n_agents).map(|_| CacheAgent::new(lines_per_agent)).collect(),
            directory: Directory::new(),
            events: VecDeque::new(),
            stats: CoherenceStats::default(),
        }
    }

    /// Number of agents.
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Counters for one agent.
    ///
    /// # Panics
    ///
    /// Panics if the agent id is out of range.
    pub fn agent_stats(&self, agent: AgentId) -> AgentStats {
        self.agents[agent.0 as usize].stats()
    }

    /// Protocol counters.
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Directory state for a line (for inspection).
    pub fn directory_entry(&self, line: LineIndex) -> DirEntry {
        self.directory.entry(line)
    }

    /// Agent-side state for a line (for inspection).
    pub fn agent_state(&self, agent: AgentId, line: LineIndex) -> Option<LineState> {
        self.agents[agent.0 as usize].state(line)
    }

    /// Drains the queued writeback events (the FPGA polls this stream).
    pub fn drain_writebacks(&mut self) -> Vec<WritebackEvent> {
        self.events.drain(..).collect()
    }

    /// Processor load of `line` by `agent`.
    ///
    /// # Panics
    ///
    /// Panics if the agent id is out of range.
    pub fn read(&mut self, agent: AgentId, line: LineIndex) -> AccessResult {
        self.stats.reads += 1;
        let idx = agent.0 as usize;
        if self.agents[idx].state(line).is_some() {
            self.agents[idx].note_hit(line);
            return AccessResult {
                hit: true,
                invalidations: 0,
                forwarded: false,
            };
        }

        self.agents[idx].note_miss();
        self.stats.directory_transactions += 1;
        let mut forwarded = false;
        let new_state = match self.directory.entry(line) {
            DirEntry::Uncached => {
                self.directory.set(line, DirEntry::Owned(agent.0));
                LineState::Exclusive
            }
            DirEntry::Shared(mut sharers) => {
                sharers.push(agent.0);
                self.directory.set(line, DirEntry::Shared(sharers));
                LineState::Shared
            }
            DirEntry::Owned(owner) => {
                // Downgrade the owner; a Modified copy is written back.
                let owner_idx = owner as usize;
                match self.agents[owner_idx].state(line) {
                    Some(LineState::Modified) => {
                        self.agents[owner_idx].set_state(line, LineState::Shared);
                        self.push_writeback(line, AgentId(owner), WritebackCause::Downgrade);
                        forwarded = true;
                    }
                    Some(LineState::Exclusive) => {
                        self.agents[owner_idx].set_state(line, LineState::Shared);
                    }
                    // The owner silently evicted the clean line; directory
                    // state was stale.
                    _ => {}
                }
                let mut sharers = vec![agent.0];
                if self.agents[owner_idx].state(line).is_some() {
                    sharers.push(owner);
                }
                self.directory.set(line, DirEntry::Shared(sharers));
                LineState::Shared
            }
        };
        self.install(idx, line, new_state);
        AccessResult {
            hit: false,
            invalidations: 0,
            forwarded,
        }
    }

    /// Processor store to `line` by `agent`.
    ///
    /// # Panics
    ///
    /// Panics if the agent id is out of range.
    pub fn write(&mut self, agent: AgentId, line: LineIndex) -> AccessResult {
        self.stats.writes += 1;
        let idx = agent.0 as usize;
        match self.agents[idx].state(line) {
            Some(LineState::Modified) => {
                self.agents[idx].note_hit(line);
                return AccessResult {
                    hit: true,
                    invalidations: 0,
                    forwarded: false,
                };
            }
            Some(LineState::Exclusive) => {
                // Silent E -> M upgrade: no directory message in MESI.
                self.agents[idx].set_state(line, LineState::Modified);
                self.agents[idx].note_hit(line);
                return AccessResult {
                    hit: true,
                    invalidations: 0,
                    forwarded: false,
                };
            }
            Some(LineState::Shared) | None => {}
        }

        self.agents[idx].note_miss();
        self.stats.directory_transactions += 1;
        let mut invalidations = 0;
        let mut forwarded = false;
        match self.directory.entry(line) {
            DirEntry::Uncached => {}
            DirEntry::Shared(sharers) => {
                for s in sharers {
                    if s != agent.0 && self.agents[s as usize].invalidate(line).is_some() {
                        invalidations += 1;
                        self.stats.invalidations += 1;
                    }
                }
            }
            DirEntry::Owned(owner) if owner != agent.0 => {
                let owner_idx = owner as usize;
                if let Some(state) = self.agents[owner_idx].invalidate(line) {
                    invalidations += 1;
                    self.stats.invalidations += 1;
                    if state.dirty() {
                        // Dirty data transferred; it also reaches memory in
                        // our home-writeback model.
                        self.push_writeback(line, AgentId(owner), WritebackCause::Invalidation);
                        forwarded = true;
                    }
                }
            }
            DirEntry::Owned(_) => {}
        }
        self.directory.set(line, DirEntry::Owned(agent.0));
        self.install(idx, line, LineState::Modified);
        AccessResult {
            hit: false,
            invalidations,
            forwarded,
        }
    }

    /// Memory-agent snoop of `line`: if any agent holds it Modified, the
    /// dirty data is flushed to memory (the agent keeps a Shared copy) and
    /// `true` is returned. This is what the Kona FPGA does before writing
    /// dirty lines to remote memory (§4.4).
    pub fn recall(&mut self, line: LineIndex) -> bool {
        self.stats.snoops += 1;
        if let DirEntry::Owned(owner) = self.directory.entry(line) {
            let owner_idx = owner as usize;
            if self.agents[owner_idx].state(line) == Some(LineState::Modified) {
                self.agents[owner_idx].set_state(line, LineState::Shared);
                self.directory.set(line, DirEntry::Shared(vec![owner]));
                self.push_writeback(line, AgentId(owner), WritebackCause::Snoop);
                return true;
            }
        }
        false
    }

    /// Every line some agent holds Modified, in no particular order —
    /// the only lines a [`recall`](Self::recall) would act on. Bounded by
    /// the agents' total capacity, so a memory agent about to snoop many
    /// lines can find the few that matter without probing each one.
    pub fn modified_lines(&self) -> impl Iterator<Item = LineIndex> + '_ {
        self.agents.iter().flat_map(CacheAgent::modified)
    }

    /// Accounts `lines` snoops of lines no agent holds Modified, without
    /// probing them. Relies on the invariant that [`recall`](Self::recall)
    /// of a non-Modified line changes nothing but the `snoops` counter;
    /// the caller vouches (via [`modified_lines`](Self::modified_lines))
    /// that none of the lines is Modified.
    pub fn note_clean_snoops(&mut self, lines: u64) {
        self.stats.snoops += lines;
    }

    /// Invalidates `line` everywhere (e.g. the FPGA dropping a page from
    /// FMem must remove any CPU copies first). Returns whether any copy
    /// was dirty (and thus written back).
    pub fn invalidate_all(&mut self, line: LineIndex) -> bool {
        let mut was_dirty = false;
        match self.directory.entry(line) {
            DirEntry::Uncached => {}
            DirEntry::Shared(sharers) => {
                for s in sharers {
                    if self.agents[s as usize].invalidate(line).is_some() {
                        self.stats.invalidations += 1;
                    }
                }
            }
            DirEntry::Owned(owner) => {
                if let Some(state) = self.agents[owner as usize].invalidate(line) {
                    self.stats.invalidations += 1;
                    if state.dirty() {
                        self.push_writeback(line, AgentId(owner), WritebackCause::Invalidation);
                        was_dirty = true;
                    }
                }
            }
        }
        self.directory.set(line, DirEntry::Uncached);
        was_dirty
    }

    fn install(&mut self, idx: usize, line: LineIndex, state: LineState) {
        if let Some((victim, victim_state)) = self.agents[idx].install(line, state) {
            // Notify the directory of the displacement.
            self.directory.remove_agent(victim, idx as u32);
            if victim_state.dirty() {
                self.push_writeback(victim, AgentId(idx as u32), WritebackCause::Eviction);
            }
        }
    }

    fn push_writeback(&mut self, line: LineIndex, agent: AgentId, cause: WritebackCause) {
        self.stats.writebacks += 1;
        self.events.push_back(WritebackEvent { line, agent, cause });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kona_types::rng::{Rng, StdRng};

    #[test]
    fn read_miss_installs_exclusive() {
        let mut sys = CoherenceSystem::new(2, 4);
        let r = sys.read(AgentId(0), LineIndex(1));
        assert!(!r.hit);
        assert_eq!(sys.agent_state(AgentId(0), LineIndex(1)), Some(LineState::Exclusive));
        assert_eq!(sys.directory_entry(LineIndex(1)), DirEntry::Owned(0));
    }

    #[test]
    fn exclusive_write_is_silent_upgrade() {
        let mut sys = CoherenceSystem::new(2, 4);
        sys.read(AgentId(0), LineIndex(1));
        let before = sys.stats().directory_transactions;
        let r = sys.write(AgentId(0), LineIndex(1));
        assert!(r.hit);
        assert_eq!(sys.stats().directory_transactions, before);
        assert_eq!(sys.agent_state(AgentId(0), LineIndex(1)), Some(LineState::Modified));
    }

    #[test]
    fn second_reader_downgrades_modified_owner() {
        let mut sys = CoherenceSystem::new(2, 4);
        sys.write(AgentId(0), LineIndex(1));
        let r = sys.read(AgentId(1), LineIndex(1));
        assert!(r.forwarded);
        assert_eq!(sys.agent_state(AgentId(0), LineIndex(1)), Some(LineState::Shared));
        assert_eq!(sys.agent_state(AgentId(1), LineIndex(1)), Some(LineState::Shared));
        let wb = sys.drain_writebacks();
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].cause, WritebackCause::Downgrade);
    }

    #[test]
    fn writer_invalidates_sharers() {
        let mut sys = CoherenceSystem::new(3, 4);
        sys.read(AgentId(0), LineIndex(1));
        sys.read(AgentId(1), LineIndex(1));
        let r = sys.write(AgentId(2), LineIndex(1));
        assert_eq!(r.invalidations, 2);
        assert_eq!(sys.agent_state(AgentId(0), LineIndex(1)), None);
        assert_eq!(sys.agent_state(AgentId(1), LineIndex(1)), None);
        assert_eq!(sys.directory_entry(LineIndex(1)), DirEntry::Owned(2));
    }

    #[test]
    fn shared_writer_upgrades_and_invalidates_peer() {
        let mut sys = CoherenceSystem::new(2, 4);
        sys.read(AgentId(0), LineIndex(1));
        sys.read(AgentId(1), LineIndex(1)); // both Shared
        let r = sys.write(AgentId(0), LineIndex(1));
        assert!(!r.hit); // upgrade needs a directory transaction
        assert_eq!(r.invalidations, 1);
        assert_eq!(sys.agent_state(AgentId(0), LineIndex(1)), Some(LineState::Modified));
    }

    #[test]
    fn capacity_eviction_of_dirty_line_emits_putm() {
        let mut sys = CoherenceSystem::new(1, 2);
        sys.write(AgentId(0), LineIndex(1));
        sys.write(AgentId(0), LineIndex(2));
        sys.write(AgentId(0), LineIndex(3)); // evicts line 1 (dirty)
        let wb = sys.drain_writebacks();
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].line, LineIndex(1));
        assert_eq!(wb[0].cause, WritebackCause::Eviction);
        // Directory forgets the evicted line.
        assert_eq!(sys.directory_entry(LineIndex(1)), DirEntry::Uncached);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut sys = CoherenceSystem::new(1, 2);
        sys.read(AgentId(0), LineIndex(1));
        sys.read(AgentId(0), LineIndex(2));
        sys.read(AgentId(0), LineIndex(3));
        assert!(sys.drain_writebacks().is_empty());
    }

    #[test]
    fn recall_flushes_dirty_line() {
        let mut sys = CoherenceSystem::new(2, 4);
        sys.write(AgentId(0), LineIndex(7));
        assert!(sys.recall(LineIndex(7)));
        assert_eq!(sys.agent_state(AgentId(0), LineIndex(7)), Some(LineState::Shared));
        assert_eq!(sys.drain_writebacks()[0].cause, WritebackCause::Snoop);
        // Second recall: nothing dirty.
        assert!(!sys.recall(LineIndex(7)));
    }

    #[test]
    fn invalidate_all_reports_dirty() {
        let mut sys = CoherenceSystem::new(2, 4);
        sys.write(AgentId(1), LineIndex(9));
        assert!(sys.invalidate_all(LineIndex(9)));
        assert_eq!(sys.agent_state(AgentId(1), LineIndex(9)), None);
        assert_eq!(sys.directory_entry(LineIndex(9)), DirEntry::Uncached);
        assert!(!sys.invalidate_all(LineIndex(9)));
    }

    #[test]
    fn hit_statistics() {
        let mut sys = CoherenceSystem::new(1, 4);
        sys.read(AgentId(0), LineIndex(1));
        sys.read(AgentId(0), LineIndex(1));
        sys.write(AgentId(0), LineIndex(1));
        let s = sys.agent_stats(AgentId(0));
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
    }

    fn swmr_holds(sys: &CoherenceSystem, lines: &[u64]) -> bool {
        for &l in lines {
            let line = LineIndex(l);
            let mut modified = 0;
            let mut others = 0;
            for a in 0..sys.agent_count() {
                match sys.agent_state(AgentId(a as u32), line) {
                    Some(LineState::Modified) | Some(LineState::Exclusive) => modified += 1,
                    Some(LineState::Shared) => others += 1,
                    None => {}
                }
            }
            if modified > 1 || (modified == 1 && others > 0) {
                return false;
            }
        }
        true
    }

    /// Single-writer/multiple-reader holds under arbitrary interleaved
    /// reads, writes, recalls and invalidations.
    #[test]
    fn prop_swmr_invariant() {
        let mut rng = StdRng::seed_from_u64(0x5317);
        for _ in 0..32 {
            let mut sys = CoherenceSystem::new(3, 4);
            let lines: Vec<u64> = (0..16).collect();
            for _ in 0..rng.gen_range(1usize..400) {
                let agent = rng.gen_range(0u32..3);
                let line = rng.gen_range(0u64..16);
                let op = rng.gen_range(0u8..4);
                let a = AgentId(agent);
                let l = LineIndex(line);
                match op {
                    0 => {
                        sys.read(a, l);
                    }
                    1 => {
                        sys.write(a, l);
                    }
                    2 => {
                        sys.recall(l);
                    }
                    _ => {
                        sys.invalidate_all(l);
                    }
                }
                assert!(
                    swmr_holds(&sys, &lines),
                    "SWMR violated after op {op:?} on line {line}"
                );
            }
        }
    }

    /// The invariant bulk snoop accounting rests on: recalling a line
    /// outside `modified_lines()` — Exclusive, Shared or uncached —
    /// bumps `snoops` and nothing else, and `note_clean_snoops` matches.
    #[test]
    fn prop_recall_of_non_modified_line_only_counts_a_snoop() {
        let mut rng = StdRng::seed_from_u64(0xC1EA);
        for _ in 0..32 {
            let mut sys = CoherenceSystem::new(3, 4);
            for _ in 0..rng.gen_range(1usize..200) {
                let a = AgentId(rng.gen_range(0u32..3));
                let l = LineIndex(rng.gen_range(0u64..16));
                if rng.gen() {
                    sys.write(a, l);
                } else {
                    sys.read(a, l);
                }
            }
            sys.drain_writebacks();
            let modified: Vec<LineIndex> = sys.modified_lines().collect();
            let view = |sys: &CoherenceSystem| -> Vec<(DirEntry, Vec<Option<LineState>>)> {
                (0..16u64)
                    .map(|l| {
                        let states = (0..3).map(|a| sys.agent_state(AgentId(a), LineIndex(l)));
                        (sys.directory_entry(LineIndex(l)), states.collect())
                    })
                    .collect()
            };
            let before = view(&sys);
            let mut bulk = sys.clone();
            let mut clean = 0u64;
            for l in (0..16u64).map(LineIndex).filter(|l| !modified.contains(l)) {
                assert!(!sys.recall(l));
                clean += 1;
            }
            bulk.note_clean_snoops(clean);
            assert_eq!(sys.stats(), bulk.stats());
            assert_eq!(view(&sys), before);
            assert!(sys.drain_writebacks().is_empty());
            // Every Modified line, by contrast, is acted on.
            for l in modified {
                assert!(sys.recall(l));
            }
        }
    }

    /// Directory ownership agrees with agent states: if the directory
    /// says Owned(a), no *other* agent holds the line.
    #[test]
    fn prop_directory_agrees() {
        let mut rng = StdRng::seed_from_u64(0xD14);
        for _ in 0..32 {
            let mut sys = CoherenceSystem::new(2, 4);
            for _ in 0..rng.gen_range(1usize..300) {
                let agent = rng.gen_range(0u32..2);
                let line = rng.gen_range(0u64..8);
                if rng.gen() {
                    sys.write(AgentId(agent), LineIndex(line));
                } else {
                    sys.read(AgentId(agent), LineIndex(line));
                }
                for l in 0..8u64 {
                    if let DirEntry::Owned(o) = sys.directory_entry(LineIndex(l)) {
                        for a in 0..2u32 {
                            if a != o {
                                assert_eq!(sys.agent_state(AgentId(a), LineIndex(l)), None);
                            }
                        }
                    }
                }
            }
        }
    }
}

//! The reference model and the twin test.
//!
//! [`RefSystem`] is the previous, hash-map-per-line implementation of
//! [`CoherenceSystem`](crate::CoherenceSystem), kept test-only. The twin
//! test drives both with the same seeded scripts and compares everything
//! observable after every operation.

use crate::agent::CacheAgent;
use crate::directory::Directory;
use crate::state::{AgentStats, DirEntry, LineState};
use crate::system::{AccessResult, AgentId, CoherenceStats, WritebackCause, WritebackEvent};
use kona_types::{LineIndex, LINES_PER_PAGE_4K};
use std::collections::VecDeque;

/// The map-based coherence domain every release up to PR 22 shipped:
/// one hashed state map and one hashed LRU index per agent, one hashed
/// directory entry per line. Kept verbatim as the oracle.
#[derive(Debug, Clone)]
pub struct RefSystem {
    agents: Vec<CacheAgent>,
    directory: Directory,
    events: VecDeque<WritebackEvent>,
    stats: CoherenceStats,
}

impl RefSystem {
    /// Creates `n_agents` agents each holding up to `lines_per_agent`
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(n_agents: usize, lines_per_agent: usize) -> Self {
        assert!(n_agents > 0, "need at least one agent");
        RefSystem {
            agents: (0..n_agents)
                .map(|_| CacheAgent::new(lines_per_agent))
                .collect(),
            directory: Directory::new(),
            events: VecDeque::new(),
            stats: CoherenceStats::default(),
        }
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

    /// What the FPGA did before `invalidate_page` existed: every line
    /// of the page in ascending order.
    pub fn invalidate_page(&mut self, first_line: LineIndex) -> bool {
        let mut was_dirty = false;
        for l in 0..LINES_PER_PAGE_4K as u64 {
            was_dirty |= self.invalidate_all(LineIndex(first_line.raw() + l));
        }
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
    use crate::CoherenceSystem;
    use kona_types::rng::{Rng, StdRng};
    use std::collections::BTreeSet;

    const LINES: u64 = LINES_PER_PAGE_4K as u64;

    /// The new system and the oracle, driven in lockstep.
    struct Twins {
        new: CoherenceSystem,
        old: RefSystem,
        agents: u32,
        touched: BTreeSet<u64>,
    }

    impl Twins {
        fn new(agents: u32, capacity: usize) -> Self {
            Twins {
                new: CoherenceSystem::new(agents as usize, capacity),
                old: RefSystem::new(agents as usize, capacity),
                agents,
                touched: BTreeSet::new(),
            }
        }

        /// Everything observable must agree, after every operation.
        fn assert_agree(&mut self, op: &str) {
            assert_eq!(
                self.new.drain_writebacks(),
                self.old.drain_writebacks(),
                "writeback stream after {op}"
            );
            assert_eq!(self.new.stats(), self.old.stats(), "stats after {op}");
            for a in (0..self.agents).map(AgentId) {
                assert_eq!(
                    self.new.agent_stats(a),
                    self.old.agent_stats(a),
                    "{a:?} stats after {op}"
                );
            }
            for &l in &self.touched {
                let line = LineIndex(l);
                for a in (0..self.agents).map(AgentId) {
                    assert_eq!(
                        self.new.agent_state(a, line),
                        self.old.agent_state(a, line),
                        "{a:?} state of {line:?} after {op}"
                    );
                }
                // The old directory lists sharers in arrival order, the
                // new one ascending: equal as sets.
                let sorted = |entry| match entry {
                    DirEntry::Shared(mut sharers) => {
                        sharers.sort_unstable();
                        DirEntry::Shared(sharers)
                    }
                    other => other,
                };
                assert_eq!(
                    self.new.directory_entry(line),
                    sorted(self.old.directory_entry(line)),
                    "directory entry of {line:?} after {op}"
                );
            }
            let modified =
                |lines: &mut dyn Iterator<Item = LineIndex>| lines.collect::<BTreeSet<_>>();
            assert_eq!(
                modified(&mut self.new.modified_lines()),
                modified(&mut self.old.modified_lines()),
                "modified lines after {op}"
            );
            if let Err(violation) = self.new.check_invariants() {
                panic!("invariant broken after {op}: {violation}");
            }
        }
    }

    /// Seeded random scripts — 1–4 agents, capacities 1–64, lines spread
    /// over a handful of pages, some of them beyond 2^40 — must leave the
    /// page-indexed system and the map-based oracle indistinguishable
    /// after every single operation.
    #[test]
    fn twin_matches_reference_after_every_op() {
        let mut rng = StdRng::seed_from_u64(0x7717);
        for script in 0..96 {
            let agents = rng.gen_range(1u32..5);
            let capacity = rng.gen_range(1usize..65);
            let mut twins = Twins::new(agents, capacity);
            // A few pages, dense and sparse, and within each a window of
            // lines narrow enough for agents to collide on.
            let pages: Vec<u64> = (0..rng.gen_range(1usize..6))
                .map(|_| match rng.gen_range(0u8..3) {
                    0 => rng.gen_range(0u64..4),
                    1 => rng.gen_range(0u64..1 << 20),
                    _ => (1 << 34) + rng.gen_range(0u64..1 << 20), // lines >= 2^40
                })
                .collect();
            let window = [4, 16, LINES][rng.gen_range(0usize..3)];
            for step in 0..rng.gen_range(1usize..500) {
                let page = pages[rng.gen_range(0usize..pages.len())];
                let line = LineIndex(page * LINES + rng.gen_range(0u64..window));
                let agent = AgentId(rng.gen_range(0u32..agents));
                twins.touched.insert(line.raw());
                let op = match rng.gen_range(0u8..20) {
                    0..=6 => {
                        assert_eq!(twins.new.read(agent, line), twins.old.read(agent, line));
                        format!("read({agent:?}, {line:?})")
                    }
                    7..=13 => {
                        assert_eq!(twins.new.write(agent, line), twins.old.write(agent, line));
                        format!("write({agent:?}, {line:?})")
                    }
                    14..=15 => {
                        assert_eq!(twins.new.recall(line), twins.old.recall(line));
                        format!("recall({line:?})")
                    }
                    16..=17 => {
                        assert_eq!(
                            twins.new.invalidate_all(line),
                            twins.old.invalidate_all(line)
                        );
                        format!("invalidate_all({line:?})")
                    }
                    _ => {
                        let first = LineIndex(page * LINES);
                        assert_eq!(
                            twins.new.invalidate_page(first),
                            twins.old.invalidate_page(first)
                        );
                        format!("invalidate_page({first:?})")
                    }
                };
                twins.assert_agree(&format!("script {script} step {step}: {op}"));
            }
        }
    }
}

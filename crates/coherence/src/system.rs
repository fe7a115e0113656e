//! The coherence system: agents + directory + the writeback event stream.

use crate::line_list::{LineList, NIL};
use crate::page_table::{split, DirWord, PageTable, MAX_AGENTS};
use crate::state::{AgentStats, DirEntry, LineState};
use kona_types::{LineIndex, LINES_PER_PAGE_4K};
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
/// All state hangs off one table keyed by page: a page record holds the
/// page's 64 directory words and, per agent, where in that agent's LRU
/// list each cached line sits. An access to the page last touched reaches
/// both without hashing; see [`check_invariants`](Self::check_invariants)
/// for what ties the pieces together.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct CoherenceSystem {
    agents: Vec<LineList>,
    table: PageTable,
    events: VecDeque<WritebackEvent>,
    stats: CoherenceStats,
}

const HIT: AccessResult = AccessResult {
    hit: true,
    invalidations: 0,
    forwarded: false,
};

impl CoherenceSystem {
    /// Creates `n_agents` agents each holding up to `lines_per_agent`
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero, or if `n_agents` exceeds
    /// [`MAX_AGENTS`] — a directory word is one `u64` sharer mask.
    pub fn new(n_agents: usize, lines_per_agent: usize) -> Self {
        assert!(n_agents > 0, "need at least one agent");
        assert!(
            n_agents <= MAX_AGENTS,
            "{n_agents} agents exceed the directory's {MAX_AGENTS}-agent sharer mask"
        );
        CoherenceSystem {
            agents: (0..n_agents)
                .map(|_| LineList::new(lines_per_agent))
                .collect(),
            table: PageTable::new(n_agents),
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
        self.agents[agent.0 as usize].stats
    }

    /// Protocol counters.
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Directory state for a line (for inspection). A
    /// [`DirEntry::Shared`] lists its sharers in ascending agent order,
    /// whatever order they joined in — compare it as a set.
    pub fn directory_entry(&self, line: LineIndex) -> DirEntry {
        let (page, l) = split(line);
        match self.table.peek(page) {
            Some(rec) => self.table.word(rec, l).entry(),
            None => DirEntry::Uncached,
        }
    }

    /// Agent-side state for a line (for inspection).
    ///
    /// # Panics
    ///
    /// Panics if the agent id is out of range.
    pub fn agent_state(&self, agent: AgentId, line: LineIndex) -> Option<LineState> {
        let list = &self.agents[agent.0 as usize];
        let (page, l) = split(line);
        let slot = self.table.slot(self.table.peek(page)?, l, agent.0 as usize);
        (slot != NIL).then(|| list.node(slot).state)
    }

    /// Drains the queued writeback events (the FPGA polls this stream).
    pub fn drain_writebacks(&mut self) -> Vec<WritebackEvent> {
        self.events.drain(..).collect()
    }

    /// Takes the oldest queued writeback event, if any —
    /// [`drain_writebacks`](Self::drain_writebacks) one event at a time,
    /// for a consumer that polls after every access.
    pub fn pop_writeback(&mut self) -> Option<WritebackEvent> {
        self.events.pop_front()
    }

    /// Where line `l` of `page` stands for agent `a`: the page's record,
    /// if any, and the agent's slot for the line ([`NIL`] = not cached).
    #[inline]
    fn lookup(&mut self, a: usize, page: u64, l: usize) -> (Option<u32>, u32) {
        assert!(a < self.agents.len(), "agent id out of range");
        let rec = self.table.find(page);
        let slot = rec.map_or(NIL, |rec| self.table.slot(rec, l, a));
        (rec, slot)
    }

    #[inline]
    fn hit(&mut self, a: usize, slot: u32) -> AccessResult {
        let list = &mut self.agents[a];
        list.stats.hits += 1;
        list.touch(slot);
        HIT
    }

    /// Opens the directory transaction of a miss: counts it and makes
    /// sure the line's page has a record.
    fn miss(&mut self, a: usize, page: u64, rec: Option<u32>) -> u32 {
        self.agents[a].stats.misses += 1;
        self.stats.directory_transactions += 1;
        rec.unwrap_or_else(|| self.table.create(page))
    }

    /// Processor load of `line` by `agent`.
    ///
    /// # Panics
    ///
    /// Panics if the agent id is out of range.
    pub fn read(&mut self, agent: AgentId, line: LineIndex) -> AccessResult {
        self.stats.reads += 1;
        let a = agent.0 as usize;
        let (page, l) = split(line);
        let (rec, slot) = self.lookup(a, page, l);
        if slot != NIL {
            return self.hit(a, slot);
        }

        let rec = self.miss(a, page, rec);
        let word = self.table.word(rec, l);
        let mut forwarded = false;
        let (new_word, new_state) = if word.is_uncached() {
            (DirWord::owned_by(a), LineState::Exclusive)
        } else if let Some(owner) = word.owner() {
            // Downgrade the owner; a Modified copy is written back.
            let owner_slot = self.table.slot(rec, l, owner);
            if self.agents[owner].node(owner_slot).state.dirty() {
                self.push_writeback(line, owner, WritebackCause::Downgrade);
                forwarded = true;
            }
            self.agents[owner].set_state(owner_slot, LineState::Shared);
            (DirWord::shared_by(owner).with(a), LineState::Shared)
        } else {
            (word.with(a), LineState::Shared)
        };
        self.table.set_word(rec, l, new_word);
        self.install(a, line, rec, l, new_state);
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
        let a = agent.0 as usize;
        let (page, l) = split(line);
        let (rec, slot) = self.lookup(a, page, l);
        if slot != NIL {
            match self.agents[a].node(slot).state {
                LineState::Modified => return self.hit(a, slot),
                LineState::Exclusive => {
                    // Silent E -> M upgrade: no directory message in MESI.
                    self.agents[a].set_state(slot, LineState::Modified);
                    return self.hit(a, slot);
                }
                LineState::Shared => {}
            }
        }

        let rec = self.miss(a, page, rec);
        let mut invalidations = 0;
        let mut forwarded = false;
        for holder in self.table.word(rec, l).holders().filter(|&h| h != a) {
            invalidations += 1;
            if self.drop_copy(rec, l, holder).dirty() {
                // Dirty data transferred; it also reaches memory in our
                // home-writeback model.
                self.push_writeback(line, holder, WritebackCause::Invalidation);
                forwarded = true;
            }
        }
        self.table.set_word(rec, l, DirWord::owned_by(a));
        if slot != NIL {
            // Upgrade of the Shared copy already cached.
            self.agents[a].set_state(slot, LineState::Modified);
            self.agents[a].touch(slot);
        } else {
            self.install(a, line, rec, l, LineState::Modified);
        }
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
        let (page, l) = split(line);
        let Some(rec) = self.table.find(page) else {
            return false;
        };
        let Some(owner) = self.table.word(rec, l).owner() else {
            return false;
        };
        let slot = self.table.slot(rec, l, owner);
        if !self.agents[owner].node(slot).state.dirty() {
            return false;
        }
        self.agents[owner].set_state(slot, LineState::Shared);
        self.table.set_word(rec, l, DirWord::shared_by(owner));
        self.push_writeback(line, owner, WritebackCause::Snoop);
        true
    }

    /// Every line some agent holds Modified, in no particular order —
    /// the only lines a [`recall`](Self::recall) would act on. Bounded by
    /// the agents' total capacity, so a memory agent about to snoop many
    /// lines can find the few that matter without probing each one.
    pub fn modified_lines(&self) -> impl Iterator<Item = LineIndex> + '_ {
        self.agents.iter().flat_map(|list| {
            list.iter()
                .filter(|(_, node)| node.state.dirty())
                .map(|(_, node)| LineIndex(node.line))
        })
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
        let (page, l) = split(line);
        match self.table.find(page) {
            Some(rec) => self.invalidate_line(rec, l, line),
            None => false,
        }
    }

    /// Invalidates the whole 4 KiB page starting at `first_line`: exactly
    /// [`invalidate_all`](Self::invalidate_all) on each of its 64 lines in
    /// ascending order (so writebacks queue in line order), but one table
    /// lookup and then only the lines some cache still holds. Returns
    /// whether any copy was dirty.
    ///
    /// # Panics
    ///
    /// Panics if `first_line` is not the first line of a page.
    pub fn invalidate_page(&mut self, first_line: LineIndex) -> bool {
        let (page, l) = split(first_line);
        assert_eq!(l, 0, "{first_line:?} does not start a page");
        let Some(rec) = self.table.find(page) else {
            return false;
        };
        let mut was_dirty = false;
        // Clearing the last present line recycles the record, which is
        // also the last time the loop looks at it.
        let mut present = self.table.present(rec);
        while present != 0 {
            let l = present.trailing_zeros() as usize;
            present &= present - 1;
            was_dirty |= self.invalidate_line(rec, l, LineIndex(first_line.raw() + l as u64));
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        was_dirty
    }

    /// Checks everything the representation relies on, returning the
    /// first violation:
    ///
    /// * single writer / multiple readers — a directory word with an
    ///   owner names exactly one agent, which holds the line Exclusive or
    ///   Modified; every sharer holds it Shared;
    /// * an agent holds a line ⇔ the line's directory word names the
    ///   agent ⇔ the page record's slot for (line, agent) points at the
    ///   agent's node for that line, whose back-pointer is that record;
    /// * each agent's list is as long as its `len`, within capacity;
    /// * the table is consistent with itself and holds no record without
    ///   a cached line, so its size is bounded by the lines cached.
    ///
    /// Linear in the cached lines; meant for tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.table.check()?;
        for (a, list) in self.agents.iter().enumerate() {
            let mut walked = 0;
            for (slot, node) in list.iter() {
                walked += 1;
                let (page, l) = split(LineIndex(node.line));
                if self.table.peek(page) != Some(node.rec) {
                    return Err(format!(
                        "agent {a} line {}: node points at record {}, not its page's",
                        node.line, node.rec
                    ));
                }
                if self.table.slot(node.rec, l, a) != slot {
                    return Err(format!(
                        "agent {a} line {}: slot table does not point back at the node",
                        node.line
                    ));
                }
            }
            if walked != list.len() || walked > list.capacity() {
                return Err(format!(
                    "agent {a}: {walked} nodes linked, len {}, capacity {}",
                    list.len(),
                    list.capacity()
                ));
            }
        }
        let mut held = 0;
        for (rec, page) in self.table.live() {
            for l in 0..LINES_PER_PAGE_4K {
                let word = self.table.word(rec, l);
                let line = page * LINES_PER_PAGE_4K as u64 + l as u64;
                if word.owner().is_some() && word.holders().count() != 1 {
                    return Err(format!(
                        "line {line}: owned word {word:?} names several agents"
                    ));
                }
                for a in 0..self.agents.len() {
                    let slot = self.table.slot(rec, l, a);
                    let named = word.holders().any(|h| h == a);
                    if named != (slot != NIL) {
                        return Err(format!(
                            "line {line}: directory word {word:?} and agent {a}'s slot disagree"
                        ));
                    }
                    if !named {
                        continue;
                    }
                    held += 1;
                    let state = self.agents[a].node(slot).state;
                    if state.writable() != word.owner().is_some() {
                        return Err(format!(
                            "line {line}: agent {a} holds it {state:?} under directory word {word:?}"
                        ));
                    }
                }
            }
        }
        let cached: usize = self.agents.iter().map(LineList::len).sum();
        if held != cached {
            return Err(format!("{held} slots for {cached} cached lines"));
        }
        Ok(())
    }

    /// Number of live page records.
    #[cfg(test)]
    pub(crate) fn page_records(&self) -> usize {
        self.table.live().len()
    }

    /// Invalidates line `l` of live record `rec` everywhere; clearing the
    /// record's last cached line recycles it.
    fn invalidate_line(&mut self, rec: u32, l: usize, line: LineIndex) -> bool {
        let word = self.table.word(rec, l);
        if word.is_uncached() {
            return false;
        }
        let mut was_dirty = false;
        for holder in word.holders() {
            if self.drop_copy(rec, l, holder).dirty() {
                self.push_writeback(line, holder, WritebackCause::Invalidation);
                was_dirty = true;
            }
        }
        self.table.set_word(rec, l, DirWord::UNCACHED);
        was_dirty
    }

    /// Removes `holder`'s copy of line `l` of record `rec` on an
    /// invalidation message and returns the state it was in. The caller
    /// rewrites the directory word.
    fn drop_copy(&mut self, rec: u32, l: usize, holder: usize) -> LineState {
        let slot = self.table.slot(rec, l, holder);
        self.table.set_slot(rec, l, holder, NIL);
        self.stats.invalidations += 1;
        let list = &mut self.agents[holder];
        list.stats.invalidations_received += 1;
        list.remove(slot).state
    }

    /// Caches `line` (line `l` of record `rec`, whose directory word
    /// already names agent `a`) at the MRU end, displacing the LRU line
    /// if the agent is full.
    fn install(&mut self, a: usize, line: LineIndex, rec: u32, l: usize, state: LineState) {
        if self.agents[a].is_full() {
            let list = &mut self.agents[a];
            let victim = list.remove(list.lru());
            list.stats.capacity_evictions += 1;
            // Notify the directory of the displacement. This may recycle
            // the victim's record, never `rec`: its word for `line` is set.
            let (_, vl) = split(LineIndex(victim.line));
            self.table.set_slot(victim.rec, vl, a, NIL);
            let word = self.table.word(victim.rec, vl).without(a);
            self.table.set_word(victim.rec, vl, word);
            if victim.state.dirty() {
                self.push_writeback(LineIndex(victim.line), a, WritebackCause::Eviction);
            }
        }
        let slot = self.agents[a].push_front(line.raw(), rec, state);
        self.table.set_slot(rec, l, a, slot);
    }

    fn push_writeback(&mut self, line: LineIndex, agent: usize, cause: WritebackCause) {
        self.stats.writebacks += 1;
        self.events.push_back(WritebackEvent {
            line,
            agent: AgentId(agent as u32),
            cause,
        });
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

    /// The writeback queue read one event at a time is the drained queue.
    #[test]
    fn pop_writeback_is_drain_in_order() {
        let mut popped = CoherenceSystem::new(1, 2);
        let mut drained = popped.clone();
        for sys in [&mut popped, &mut drained] {
            for l in 0..6 {
                sys.write(AgentId(0), LineIndex(l));
            }
        }
        let events: Vec<WritebackEvent> = std::iter::from_fn(|| popped.pop_writeback()).collect();
        assert_eq!(events.len(), 4);
        assert_eq!(events, drained.drain_writebacks());
    }

    /// The memory bound behind `scan_clean`'s RSS: a page record is
    /// recycled as its last line leaves the caches, so scanning 100x the
    /// cache's capacity in distinct pages never holds more records than
    /// cached lines — a handful on a dense scan, one per line at worst.
    #[test]
    fn scan_keeps_page_records_within_cached_lines() {
        const LINES: u64 = LINES_PER_PAGE_4K as u64;
        let capacity = 128;
        let mut sys = CoherenceSystem::new(1, capacity);
        for line in 0..100 * capacity as u64 * LINES {
            sys.read(AgentId(0), LineIndex(line));
            assert!(sys.page_records() <= capacity / LINES as usize + 1);
        }
        // One line per page: every cached line pins a record of its own.
        for page in 0..100 * capacity as u64 {
            sys.write(AgentId(0), LineIndex((1 << 40) + page * LINES));
            assert!(sys.page_records() <= capacity);
        }
        assert_eq!(sys.page_records(), capacity);
        sys.check_invariants().unwrap();
    }
}

//! The one table coherence state hangs off, keyed by page (`line >> 6`).
//!
//! A page record holds the page's 64 directory words and, for every
//! (line, agent), the slot of the agent's [`LineList`] node holding that
//! line. Records live in a slab; a single hash map from page to record
//! index sits behind a one-entry memo of the last page looked up, so
//! consecutive accesses to one page — the common case by far — reach
//! directory word and LRU node without hashing at all. A record is
//! recycled the moment its last directory word clears, which bounds the
//! table by what the CPU caches hold, never by the footprint touched.
//!
//! [`LineList`]: crate::line_list::LineList

use crate::line_list::NIL;
use crate::state::DirEntry;
use kona_types::{FxHashMap, LineIndex, LINES_PER_PAGE_4K};

const LINES: usize = LINES_PER_PAGE_4K;

/// Most agents a directory word can name: bit 63 is [`OWNED`], bits
/// `0..63` are the sharer mask.
pub const MAX_AGENTS: usize = 63;

/// Set in a directory word whose single mask bit is an owner (the cache
/// holds the line Exclusive or Modified), clear for a set of sharers.
const OWNED: u64 = 1 << 63;

/// A directory word: `0` = uncached, else a mask of the agents holding
/// the line, with [`OWNED`] set when the one holder may write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DirWord(u64);

impl DirWord {
    pub(crate) const UNCACHED: DirWord = DirWord(0);

    pub(crate) fn owned_by(agent: usize) -> DirWord {
        DirWord(OWNED | 1 << agent)
    }

    pub(crate) fn shared_by(agent: usize) -> DirWord {
        DirWord(1 << agent)
    }

    pub(crate) fn with(self, agent: usize) -> DirWord {
        DirWord(self.0 | 1 << agent)
    }

    /// The word after `agent` gives the line up; uncached once the last
    /// holder is gone.
    pub(crate) fn without(self, agent: usize) -> DirWord {
        let w = self.0 & !(1 << agent);
        if w & !OWNED == 0 {
            DirWord::UNCACHED
        } else {
            DirWord(w)
        }
    }

    pub(crate) fn is_uncached(self) -> bool {
        self.0 == 0
    }

    /// The owner, if the word names one.
    pub(crate) fn owner(self) -> Option<usize> {
        (self.0 & OWNED != 0).then(|| (self.0 & !OWNED).trailing_zeros() as usize)
    }

    /// The agents holding the line (owner or sharers), ascending.
    pub(crate) fn holders(self) -> impl Iterator<Item = usize> {
        let mut mask = self.0 & !OWNED;
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let agent = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                agent
            })
        })
    }

    pub(crate) fn entry(self) -> DirEntry {
        if self.is_uncached() {
            return DirEntry::Uncached;
        }
        match self.owner() {
            Some(owner) => DirEntry::Owned(owner as u32),
            None => DirEntry::Shared(self.holders().map(|a| a as u32).collect()),
        }
    }
}

/// Splits a line into its page and its index within the page.
#[inline]
pub(crate) fn split(line: LineIndex) -> (u64, usize) {
    (
        line.raw() / LINES as u64,
        (line.raw() % LINES as u64) as usize,
    )
}

#[derive(Debug, Clone)]
struct PageRecord {
    page: u64,
    /// Bit `l` set ⇔ `dir[l]` is not uncached. Zero ⇔ the record is free.
    present: u64,
    dir: [DirWord; LINES],
}

/// The page-indexed slab of directory words and LRU slots.
#[derive(Debug, Clone)]
pub(crate) struct PageTable {
    n_agents: usize,
    index: FxHashMap<u64, u32>,
    /// The last page looked up and its record ([`NIL`] = known absent).
    memo: (u64, u32),
    records: Vec<PageRecord>,
    /// `LINES * n_agents` node slots per record, line-major.
    slots: Vec<u32>,
    free: Vec<u32>,
}

impl PageTable {
    pub(crate) fn new(n_agents: usize) -> Self {
        PageTable {
            n_agents,
            index: FxHashMap::default(),
            // No line maps to this page, so "known absent" is true of it.
            memo: (u64::MAX, NIL),
            records: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The record of `page`, remembering the answer for the next call.
    #[inline]
    pub(crate) fn find(&mut self, page: u64) -> Option<u32> {
        if self.memo.0 != page {
            self.memo = (page, self.index.get(&page).copied().unwrap_or(NIL));
        }
        (self.memo.1 != NIL).then_some(self.memo.1)
    }

    /// [`find`](Self::find) for `&self` inspection paths.
    pub(crate) fn peek(&self, page: u64) -> Option<u32> {
        if self.memo.0 == page {
            return (self.memo.1 != NIL).then_some(self.memo.1);
        }
        self.index.get(&page).copied()
    }

    /// A fresh record for `page`, which must have none: every word
    /// uncached, every slot [`NIL`].
    pub(crate) fn create(&mut self, page: u64) -> u32 {
        let rec = match self.free.pop() {
            Some(rec) => {
                self.records[rec as usize].page = page;
                rec
            }
            None => {
                self.records.push(PageRecord {
                    page,
                    present: 0,
                    dir: [DirWord::UNCACHED; LINES],
                });
                self.slots
                    .resize(self.records.len() * LINES * self.n_agents, NIL);
                (self.records.len() - 1) as u32
            }
        };
        self.index.insert(page, rec);
        self.memo = (page, rec);
        rec
    }

    #[inline]
    pub(crate) fn word(&self, rec: u32, l: usize) -> DirWord {
        self.records[rec as usize].dir[l]
    }

    /// Sets a directory word. Clearing the record's last word recycles
    /// the record: `rec` is dead on return from such a call.
    #[inline]
    pub(crate) fn set_word(&mut self, rec: u32, l: usize, word: DirWord) {
        let record = &mut self.records[rec as usize];
        record.dir[l] = word;
        if word.is_uncached() {
            record.present &= !(1 << l);
            if record.present == 0 {
                self.recycle(rec);
            }
        } else {
            record.present |= 1 << l;
        }
    }

    /// Bit `l` set ⇔ line `l` of the record's page is cached somewhere.
    pub(crate) fn present(&self, rec: u32) -> u64 {
        self.records[rec as usize].present
    }

    #[inline]
    pub(crate) fn slot(&self, rec: u32, l: usize, agent: usize) -> u32 {
        self.slots[self.slot_index(rec, l, agent)]
    }

    #[inline]
    pub(crate) fn set_slot(&mut self, rec: u32, l: usize, agent: usize, slot: u32) {
        let i = self.slot_index(rec, l, agent);
        self.slots[i] = slot;
    }

    #[inline]
    fn slot_index(&self, rec: u32, l: usize, agent: usize) -> usize {
        debug_assert!(l < LINES && agent < self.n_agents);
        (rec as usize * LINES + l) * self.n_agents + agent
    }

    fn recycle(&mut self, rec: u32) {
        let page = self.records[rec as usize].page;
        self.index.remove(&page);
        self.free.push(rec);
        if self.memo.0 == page {
            self.memo.1 = NIL;
        }
    }

    /// Live records as `(record, page)`, in no particular order.
    pub(crate) fn live(&self) -> impl ExactSizeIterator<Item = (u32, u64)> + '_ {
        self.index.iter().map(|(&page, &rec)| (rec, page))
    }

    /// Checks the table's own bookkeeping: index, memo, free list and
    /// `present` masks describe the same set of records.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.index.len() + self.free.len() != self.records.len() {
            return Err(format!(
                "{} live + {} free records != {} allocated",
                self.index.len(),
                self.free.len(),
                self.records.len()
            ));
        }
        for (rec, page) in self.live() {
            let record = &self.records[rec as usize];
            if record.page != page {
                return Err(format!(
                    "index maps page {page} to record of {}",
                    record.page
                ));
            }
            if record.present == 0 {
                return Err(format!("live record of page {page} has no cached line"));
            }
            for (l, word) in record.dir.iter().enumerate() {
                if word.is_uncached() == (record.present >> l & 1 == 1) {
                    return Err(format!(
                        "page {page} line {l}: present bit disagrees with {word:?}"
                    ));
                }
            }
        }
        for &rec in &self.free {
            let record = &self.records[rec as usize];
            let base = rec as usize * LINES * self.n_agents;
            let slots = &self.slots[base..base + LINES * self.n_agents];
            if record.present != 0
                || record.dir.iter().any(|w| !w.is_uncached())
                || slots.iter().any(|&s| s != NIL)
            {
                return Err(format!("free record {rec} is not blank"));
            }
        }
        let (page, rec) = self.memo;
        if self.index.get(&page).copied().unwrap_or(NIL) != rec {
            return Err(format!("memo ({page}, {rec}) disagrees with the index"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_word_round_trips() {
        assert_eq!(DirWord::UNCACHED.entry(), DirEntry::Uncached);
        assert_eq!(DirWord::owned_by(62).entry(), DirEntry::Owned(62));
        assert_eq!(DirWord::owned_by(0).owner(), Some(0));
        let shared = DirWord::shared_by(5).with(0).with(62);
        assert_eq!(shared.owner(), None);
        assert_eq!(shared.entry(), DirEntry::Shared(vec![0, 5, 62]));
        assert_eq!(shared.without(5).entry(), DirEntry::Shared(vec![0, 62]));
        assert_eq!(shared.without(7), shared);
        assert!(DirWord::owned_by(3).without(3).is_uncached());
        assert_eq!(DirWord::owned_by(3).without(4), DirWord::owned_by(3));
        assert!(DirWord::shared_by(3).without(3).is_uncached());
    }

    #[test]
    fn records_recycle_when_their_last_word_clears() {
        let mut t = PageTable::new(2);
        assert_eq!(t.find(9), None);
        let r = t.create(9);
        t.set_word(r, 3, DirWord::owned_by(1));
        t.set_word(r, 4, DirWord::shared_by(0));
        t.set_slot(r, 3, 1, 17);
        assert_eq!(t.find(9), Some(r));
        assert_eq!(t.peek(9), Some(r));
        assert_eq!(t.slot(r, 3, 1), 17);
        assert_eq!(t.slot(r, 3, 0), NIL);
        assert_eq!(t.present(r), 0b11000);
        t.check().unwrap();

        t.set_slot(r, 3, 1, NIL);
        t.set_word(r, 3, DirWord::UNCACHED);
        assert_eq!(t.find(9), Some(r));
        t.set_word(r, 4, DirWord::UNCACHED);
        assert_eq!(t.find(9), None);
        assert_eq!(t.peek(9), None);
        assert_eq!(t.live().count(), 0);
        t.check().unwrap();

        // The blank record is handed out again, to any page.
        assert_eq!(t.create(1 << 40), r);
        assert_eq!(t.find(1 << 40), Some(r));
    }
}

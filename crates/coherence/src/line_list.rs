//! One agent's cached lines: an intrusive LRU list over a slab of nodes.
//!
//! The list has no index of its own. The slot of the node holding a line
//! is stored in that line's page record ([`crate::page_table`]), so a hit
//! relinks a node it was handed and never hashes.

use crate::state::{AgentStats, LineState};

/// Sentinel slot: no node / no page record.
pub(crate) const NIL: u32 = u32::MAX;

/// One cached line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) line: u64,
    /// The page record holding this line's directory word and slot — live
    /// for as long as the node is, so an eviction finds it without a probe.
    pub(crate) rec: u32,
    pub(crate) state: LineState,
    /// Towards the MRU end.
    prev: u32,
    /// Towards the LRU end; the next free slot while on the free list.
    next: u32,
}

/// A capacity-bounded set of cached lines in LRU order.
#[derive(Debug, Clone)]
pub(crate) struct LineList {
    nodes: Vec<Node>,
    /// MRU end.
    head: u32,
    /// LRU end.
    tail: u32,
    /// Head of the free list, chained through `next`.
    free: u32,
    len: usize,
    capacity: usize,
    pub(crate) stats: AgentStats,
}

impl LineList {
    /// An empty list holding at most `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a `u32` slot.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "agent capacity must be positive");
        assert!(
            capacity < NIL as usize,
            "agent capacity must fit a u32 slot index"
        );
        LineList {
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
            capacity,
            stats: AgentStats::default(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// The node in `slot`, which must be live.
    #[inline]
    pub(crate) fn node(&self, slot: u32) -> &Node {
        &self.nodes[slot as usize]
    }

    #[inline]
    pub(crate) fn set_state(&mut self, slot: u32, state: LineState) {
        self.nodes[slot as usize].state = state;
    }

    /// The least recently used slot ([`NIL`] when empty).
    pub(crate) fn lru(&self) -> u32 {
        self.tail
    }

    /// Live slots from most to least recently used.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &Node)> + '_ {
        let mut slot = self.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(slot as usize)?;
            let item = (slot, node);
            slot = node.next;
            Some(item)
        })
    }

    /// Makes the live node in `slot` the most recently used.
    #[inline]
    pub(crate) fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// Adds `line` at the MRU end and returns its slot. The caller makes
    /// room first; the list never evicts on its own.
    pub(crate) fn push_front(&mut self, line: u64, rec: u32, state: LineState) -> u32 {
        debug_assert!(self.len < self.capacity, "push into a full agent");
        let node = Node {
            line,
            rec,
            state,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.nodes[slot as usize].next;
            self.nodes[slot as usize] = node;
            slot
        };
        self.link_front(slot);
        self.len += 1;
        slot
    }

    /// Unlinks the live node in `slot`, frees the slot and returns the
    /// node as it was.
    pub(crate) fn remove(&mut self, slot: u32) -> Node {
        self.unlink(slot);
        let node = self.nodes[slot as usize];
        self.nodes[slot as usize].next = self.free;
        self.free = slot;
        self.len -= 1;
        node
    }

    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    #[inline]
    fn link_front(&mut self, slot: u32) {
        let old = self.head;
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = old;
        match old {
            NIL => self.tail = slot,
            h => self.nodes[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(list: &LineList) -> Vec<u64> {
        list.iter().map(|(_, n)| n.line).collect()
    }

    #[test]
    fn order_touch_and_remove() {
        let mut l = LineList::new(3);
        let a = l.push_front(1, 0, LineState::Shared);
        let b = l.push_front(2, 0, LineState::Shared);
        let c = l.push_front(3, 0, LineState::Modified);
        assert!(l.is_full());
        assert_eq!(lines(&l), vec![3, 2, 1]);
        assert_eq!(l.lru(), a);
        l.touch(a);
        assert_eq!(lines(&l), vec![1, 3, 2]);
        l.touch(a); // already MRU
        assert_eq!(l.lru(), b);
        assert_eq!(l.remove(c).line, 3);
        assert_eq!(lines(&l), vec![1, 2]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn freed_slots_are_reused_before_the_slab_grows() {
        let mut l = LineList::new(2);
        let a = l.push_front(1, 0, LineState::Shared);
        let b = l.push_front(2, 0, LineState::Shared);
        l.remove(a);
        l.remove(b);
        assert_eq!(l.lru(), NIL);
        assert_eq!(l.push_front(3, 7, LineState::Exclusive), b);
        assert_eq!(l.push_front(4, 7, LineState::Exclusive), a);
        assert_eq!(l.node(a).rec, 7);
        assert_eq!(lines(&l), vec![4, 3]);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        LineList::new(0);
    }
}

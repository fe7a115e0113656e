//! A memory node's byte pool with RDMA registration checking.

use kona_types::{KonaError, RemoteAddr, Result};

/// The memory pool of one disaggregated-memory node.
///
/// One-sided verbs may only touch byte ranges that have been registered
/// (as with real NIC memory regions); [`NodeMemory::check_registered`]
/// enforces this.
///
/// # Examples
///
/// ```
/// # use kona_net::NodeMemory;
/// let mut node = NodeMemory::new(0, 8192);
/// node.register(0, 4096);
/// node.write_bytes(64, &[1, 2, 3]).unwrap();
/// assert_eq!(node.read_bytes(64, 3), &[1, 2, 3]);
/// assert!(node.write_bytes(4096, &[0]).is_err()); // unregistered
/// ```
#[derive(Debug, Clone)]
pub struct NodeMemory {
    id: u32,
    bytes: Vec<u8>,
    /// Registered `(offset, len)` ranges: sorted by offset, disjoint and
    /// non-adjacent (overlapping or touching registrations coalesce), so
    /// membership checks can binary-search.
    regions: Vec<(u64, u64)>,
}

impl NodeMemory {
    /// Creates a node with `capacity` zeroed bytes and nothing registered.
    pub fn new(id: u32, capacity: u64) -> Self {
        NodeMemory {
            id,
            bytes: vec![0; capacity as usize],
            regions: Vec::new(),
        }
    }

    /// The node id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Total pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Registers `[offset, offset + len)` for RDMA access. Overlapping or
    /// adjacent registrations coalesce into one region (as a NIC merges
    /// MRs covering the same pages), keeping the region list minimal.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the pool.
    pub fn register(&mut self, offset: u64, len: u64) {
        assert!(
            offset + len <= self.capacity(),
            "registration beyond pool capacity"
        );
        if len == 0 {
            return;
        }
        self.regions.push((offset, len));
        self.regions.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.regions.len());
        for &(start, rlen) in &self.regions {
            match merged.last_mut() {
                Some((mstart, mlen)) if start <= *mstart + *mlen => {
                    *mlen = (*mlen).max(start + rlen - *mstart);
                }
                _ => merged.push((start, rlen)),
            }
        }
        self.regions = merged;
    }

    /// Deregisters `[offset, offset + len)`: any registered coverage
    /// intersecting the range is removed, splitting regions that straddle
    /// its edges. Deregistering unregistered bytes is a no-op.
    pub fn deregister(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        let mut next: Vec<(u64, u64)> = Vec::with_capacity(self.regions.len() + 1);
        for &(start, rlen) in &self.regions {
            let rend = start + rlen;
            if rend <= offset || start >= end {
                next.push((start, rlen));
                continue;
            }
            if start < offset {
                next.push((start, offset - start));
            }
            if rend > end {
                next.push((end, rend - end));
            }
        }
        self.regions = next;
    }

    /// Registered regions currently in effect (sorted, disjoint).
    pub fn regions(&self) -> &[(u64, u64)] {
        &self.regions
    }

    /// Checks that `[offset, offset+len)` lies inside one registered region.
    ///
    /// Regions are sorted and disjoint, so the candidate region — the last
    /// one starting at or before `offset` — is found by binary search.
    ///
    /// # Errors
    ///
    /// Returns [`KonaError::UnregisteredMemory`] otherwise.
    pub fn check_registered(&self, offset: u64, len: u64) -> Result<()> {
        let idx = self.regions.partition_point(|&(start, _)| start <= offset);
        let covered = idx > 0 && {
            let (start, rlen) = self.regions[idx - 1];
            offset + len <= start + rlen
        };
        if covered {
            Ok(())
        } else {
            Err(KonaError::UnregisteredMemory {
                addr: RemoteAddr::new(self.id, offset),
                len,
            })
        }
    }

    /// Writes `data` at `offset` (the landing of an RDMA WRITE).
    ///
    /// # Errors
    ///
    /// Returns [`KonaError::UnregisteredMemory`] if the range is not
    /// registered.
    pub fn write_bytes(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_registered(offset, data.len() as u64)?;
        self.bytes[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes at `offset` without a registration check (local
    /// access by the node's own CPU, e.g. the cache-line log receiver).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the pool.
    pub fn read_bytes(&self, offset: u64, len: u64) -> &[u8] {
        &self.bytes[offset as usize..(offset + len) as usize]
    }

    /// Reads `len` bytes at `offset` as an RDMA READ (registration
    /// checked). Borrows the pool, so the caller makes the only copy.
    ///
    /// # Errors
    ///
    /// Returns [`KonaError::UnregisteredMemory`] if the range is not
    /// registered.
    pub fn rdma_read(&self, offset: u64, len: u64) -> Result<&[u8]> {
        self.check_registered(offset, len)?;
        Ok(self.read_bytes(offset, len))
    }

    /// Local (non-RDMA) write by the node's own CPU, e.g. the cache-line
    /// log receiver distributing lines to their home addresses.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the pool.
    pub fn local_write(&mut self, offset: u64, data: &[u8]) {
        self.bytes[offset as usize..offset as usize + data.len()].copy_from_slice(data);
    }

    /// Zeroes the whole pool, keeping registrations. A fenced node
    /// rejoining the cluster re-syncs from scratch: its pre-partition
    /// contents must not be mistaken for live data.
    pub fn wipe(&mut self) {
        self.bytes.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_access() {
        let mut n = NodeMemory::new(3, 1024);
        assert_eq!(n.id(), 3);
        assert_eq!(n.capacity(), 1024);
        n.register(0, 512);
        assert!(n.check_registered(0, 512).is_ok());
        assert!(n.check_registered(500, 20).is_err()); // crosses boundary
        assert!(n.check_registered(512, 1).is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        let mut n = NodeMemory::new(0, 1024);
        n.register(128, 256);
        n.write_bytes(130, b"hello").unwrap();
        assert_eq!(n.rdma_read(130, 5).unwrap(), b"hello");
        assert_eq!(n.read_bytes(130, 5), b"hello");
    }

    #[test]
    fn unregistered_write_fails() {
        let mut n = NodeMemory::new(0, 1024);
        let err = n.write_bytes(0, &[1]).unwrap_err();
        assert!(matches!(err, KonaError::UnregisteredMemory { .. }));
    }

    #[test]
    fn local_write_bypasses_registration() {
        let mut n = NodeMemory::new(0, 64);
        n.local_write(10, &[9]);
        assert_eq!(n.read_bytes(10, 1), &[9]);
    }

    #[test]
    #[should_panic]
    fn register_beyond_capacity_panics() {
        NodeMemory::new(0, 64).register(0, 128);
    }

    #[test]
    fn multiple_regions() {
        let mut n = NodeMemory::new(0, 1024);
        n.register(512, 256);
        n.register(0, 128);
        assert!(n.check_registered(64, 64).is_ok());
        assert!(n.check_registered(600, 100).is_ok());
        assert!(n.check_registered(200, 8).is_err());
    }

    #[test]
    fn overlapping_registrations_coalesce() {
        let mut n = NodeMemory::new(0, 1024);
        n.register(0, 128);
        n.register(64, 128); // overlaps the first
        n.register(192, 64); // adjacent to the merged region
        assert_eq!(n.regions(), &[(0, 256)]);
        // A transfer spanning the old region boundaries now passes.
        assert!(n.check_registered(100, 150).is_ok());
        assert!(n.check_registered(0, 257).is_err());
        // Containment and duplicates add nothing.
        n.register(32, 8);
        n.register(0, 256);
        assert_eq!(n.regions(), &[(0, 256)]);
        n.register(0, 0); // zero-length no-op
        assert_eq!(n.regions(), &[(0, 256)]);
    }

    #[test]
    fn deregister_removes_and_splits() {
        let mut n = NodeMemory::new(0, 1024);
        n.register(0, 512);
        // Punch a hole in the middle: the region splits in two.
        n.deregister(128, 64);
        assert_eq!(n.regions(), &[(0, 128), (192, 320)]);
        assert!(n.check_registered(0, 128).is_ok());
        assert!(n.check_registered(128, 64).is_err());
        assert!(n.check_registered(192, 320).is_ok());
        assert!(n.check_registered(100, 100).is_err()); // straddles the hole
        // Trim an edge.
        n.deregister(0, 64);
        assert_eq!(n.regions(), &[(64, 64), (192, 320)]);
        // Remove across several regions at once.
        n.deregister(0, 1024);
        assert!(n.regions().is_empty());
        assert!(n.check_registered(64, 1).is_err());
        // Deregistering nothing is a no-op.
        n.deregister(0, 0);
        n.deregister(900, 100);
        assert!(n.regions().is_empty());
    }

    #[test]
    fn check_registered_binary_search_agrees_with_scan() {
        use kona_types::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xC0A1);
        for _ in 0..32 {
            let mut n = NodeMemory::new(0, 4096);
            let mut naive: Vec<(u64, u64)> = Vec::new();
            for _ in 0..rng.gen_range(1usize..8) {
                let start = rng.gen_range(0u64..4000);
                let len = rng.gen_range(1u64..=(4096 - start).min(400));
                n.register(start, len);
                naive.push((start, len));
            }
            for _ in 0..64 {
                let off = rng.gen_range(0u64..4096);
                let len = rng.gen_range(1u64..=(4096 - off).min(256));
                let scan = naive
                    .iter()
                    .any(|&(s, l)| off >= s && off + len <= s + l);
                // The coalesced form may cover *more* than any single naive
                // region (adjacent merges), never less.
                let fast = n.check_registered(off, len).is_ok();
                if scan {
                    assert!(fast, "covered range rejected at {off}+{len}");
                }
                if !fast {
                    assert!(!scan);
                }
            }
        }
    }
}

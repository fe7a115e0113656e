//! End-to-end replica integrity scrubbing.
//!
//! The control plane keeps a *truth store* — the bytes the application
//! actually wrote, at cache-line granularity — and walks the slab map
//! with a cursor, a few slabs per scrub step. For each slab it digests
//! the truth and every reachable copy's fabric memory with the same
//! rolling FNV-1a; a copy whose digest diverges (a healed node that
//! missed flushes during a partition, a stale rejoin) is repaired by
//! re-copying the truth bytes over the fabric. With lease fencing on,
//! the scrub is a proof obligation — it must find zero divergent slabs
//! under every bundled fault plan; with fencing off it is the detection
//! and repair backstop.

use kona_types::{FxHashMap, LineBitmap, CACHE_LINE_SIZE, LINES_PER_PAGE_4K, PAGE_SIZE_4K};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` (prefixed by their position, so line order matters)
/// into a rolling FNV-1a 64 digest.
pub fn digest_fold(mut hash: u64, position: u64, bytes: &[u8]) -> u64 {
    for b in position.to_le_bytes() {
        hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    hash
}

#[derive(Debug, Clone)]
struct TruthPage {
    image: Vec<u8>,
    written: LineBitmap,
}

/// The compute node's ground truth: every byte range the application
/// wrote (in [`DataMode::Tracked`](kona_types::DataMode) runs), kept at
/// line granularity so the scrubber only ever compares bytes whose
/// expected value it actually knows. Lines only partially covered by a
/// write are not marked — a re-granted slab may legitimately hold
/// garbage in never-written bytes, and the scrubber must not flag it.
#[derive(Debug, Clone, Default)]
pub struct TruthStore {
    pages: FxHashMap<u64, TruthPage>,
}

impl TruthStore {
    /// An empty truth store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an application write of `data` at virtual address `addr`.
    pub fn record_write(&mut self, addr: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let pos = addr + done as u64;
            let page = pos / PAGE_SIZE_4K;
            let start = (pos % PAGE_SIZE_4K) as usize;
            let chunk = (PAGE_SIZE_4K as usize - start).min(data.len() - done);
            let tp = self.pages.entry(page).or_insert_with(|| TruthPage {
                image: vec![0; PAGE_SIZE_4K as usize],
                written: LineBitmap::new(LINES_PER_PAGE_4K),
            });
            tp.image[start..start + chunk].copy_from_slice(&data[done..done + chunk]);
            // Mark only lines the write covers end to end.
            let first_full = (start as u64).div_ceil(CACHE_LINE_SIZE);
            let end_full = (start + chunk) as u64 / CACHE_LINE_SIZE;
            for line in first_full..end_full {
                tp.written.set(line as usize);
            }
            done += chunk;
        }
    }

    /// Drops truth for `[base, base + len)` — the application freed it.
    pub fn clear_range(&mut self, base: u64, len: u64) {
        let first = base / PAGE_SIZE_4K;
        let last = (base + len).div_ceil(PAGE_SIZE_4K);
        for page in first..last {
            self.pages.remove(&page);
        }
    }

    /// Fully written lines inside the virtual range `[base, base+len)`
    /// as `(offset within the range, line bytes)`, in address order,
    /// straight off the page images.
    pub fn lines_in(&self, base: u64, len: u64) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let first = base / PAGE_SIZE_4K;
        let last = (base + len).div_ceil(PAGE_SIZE_4K);
        (first..last)
            .filter_map(move |page| Some((page, self.pages.get(&page)?)))
            .flat_map(move |(page, tp)| {
                tp.written.iter_set().filter_map(move |line| {
                    let addr = page * PAGE_SIZE_4K + line as u64 * CACHE_LINE_SIZE;
                    if addr < base || addr + CACHE_LINE_SIZE > base + len {
                        return None;
                    }
                    let start = line * CACHE_LINE_SIZE as usize;
                    Some((addr - base, &tp.image[start..start + CACHE_LINE_SIZE as usize]))
                })
            })
    }

    /// Rolling digest of the truth lines inside `[base, base+len)`.
    pub fn digest_range(&self, base: u64, len: u64) -> u64 {
        self.lines_in(base, len)
            .fold(FNV_OFFSET, |h, (off, bytes)| digest_fold(h, off, bytes))
    }
}

/// Lifetime scrub totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Slab/copy pairs digest-checked.
    pub copies_checked: u64,
    /// Copies whose digest diverged from the truth.
    pub divergence_found: u64,
    /// Divergent copies repaired by re-copy.
    pub divergence_repaired: u64,
    /// Copy checks skipped because the hosting node was unreachable.
    pub skipped: u64,
}

/// The scrub cursor: resumes the slab walk where the last step left
/// off, wrapping at the end of the slab map.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScrubCursor {
    next: u64,
}

impl ScrubCursor {
    /// The next `batch` slab indices (into a `slab_count`-long, sorted
    /// slab list), advancing the cursor.
    pub fn take(&mut self, slab_count: usize, batch: usize) -> Vec<usize> {
        if slab_count == 0 || batch == 0 {
            return Vec::new();
        }
        let take = batch.min(slab_count);
        let out = (0..take)
            .map(|k| (self.next as usize + k) % slab_count)
            .collect();
        self.next = (self.next + take as u64) % slab_count as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tracks_only_fully_written_lines() {
        let mut t = TruthStore::new();
        // One full line at 64 and a partial tail at 128..150.
        t.record_write(64, &[0xAA; 86]);
        let lines: Vec<_> = t.lines_in(0, PAGE_SIZE_4K).collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].0, 64);
        assert_eq!(lines[0].1, &[0xAA; 64][..]);
        // Completing the partial line makes it visible.
        t.record_write(128, &[0xBB; 64]);
        assert_eq!(t.lines_in(0, PAGE_SIZE_4K).count(), 2);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = TruthStore::new();
        a.record_write(0, &[1; 64]);
        a.record_write(64, &[2; 64]);
        let mut b = TruthStore::new();
        b.record_write(0, &[2; 64]);
        b.record_write(64, &[1; 64]);
        assert_ne!(a.digest_range(0, 128), b.digest_range(0, 128));
        assert_eq!(a.digest_range(0, 128), a.clone().digest_range(0, 128));
        // Range restriction changes the digest input set.
        assert_ne!(a.digest_range(0, 128), a.digest_range(0, 64));
    }

    #[test]
    fn clear_range_forgets_pages() {
        let mut t = TruthStore::new();
        t.record_write(0, &[7; 64]);
        t.record_write(PAGE_SIZE_4K, &[8; 64]);
        t.clear_range(0, PAGE_SIZE_4K);
        assert_eq!(t.lines_in(0, PAGE_SIZE_4K).count(), 0);
        assert_eq!(t.lines_in(PAGE_SIZE_4K, PAGE_SIZE_4K).count(), 1);
    }

    #[test]
    fn cursor_wraps_deterministically() {
        let mut c = ScrubCursor::default();
        assert_eq!(c.take(3, 2), vec![0, 1]);
        assert_eq!(c.take(3, 2), vec![2, 0]);
        assert_eq!(c.take(3, 2), vec![1, 2]);
        assert!(c.take(0, 2).is_empty());
    }
}

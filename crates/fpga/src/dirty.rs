//! Per-page dirty cache-line bitmaps.
//!
//! "The FPGA can observe the cache-line writebacks, and track them in a
//! bitmap for cache-line granularity dirty data tracking" (§4.3). The
//! eviction handler later consumes a page's bitmap to write only the dirty
//! lines to remote memory.

use kona_types::{FxHashMap, LineBitmap, LineIndex, PageNumber, LINES_PER_PAGE_4K};

/// A page's dirty bitmap plus its cached population count.
///
/// `mark` keeps `count` in sync via [`LineBitmap::insert`]'s newly-set
/// return, so queries never rescan the bitmap words.
#[derive(Debug, Clone)]
struct PageDirty {
    bitmap: LineBitmap,
    count: usize,
}

/// Tracks dirty cache lines per 4 KiB page.
///
/// # Examples
///
/// ```
/// # use kona_fpga::DirtyTracker;
/// # use kona_types::{LineIndex, PageNumber};
/// let mut dt = DirtyTracker::new();
/// dt.mark(LineIndex(65)); // page 1, line 1
/// assert_eq!(dt.dirty_line_count(PageNumber(1)), 1);
/// let bm = dt.take_page(PageNumber(1)).unwrap();
/// assert!(bm.get(1));
/// assert_eq!(dt.dirty_line_count(PageNumber(1)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DirtyTracker {
    pages: FxHashMap<u64, PageDirty>,
    total_marks: u64,
    /// Dirty lines across all pages, maintained incrementally so the
    /// poller can read it every wakeup without a full-map scan.
    total_dirty: usize,
}

impl DirtyTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        DirtyTracker::default()
    }

    /// Marks `line` dirty (observed writeback).
    pub fn mark(&mut self, line: LineIndex) {
        self.total_marks += 1;
        let entry = self
            .pages
            .entry(line.page_number().raw())
            .or_insert_with(|| PageDirty {
                bitmap: LineBitmap::new(LINES_PER_PAGE_4K),
                count: 0,
            });
        if entry.bitmap.insert(line.index_in_page()) {
            entry.count += 1;
            self.total_dirty += 1;
        }
    }

    /// Number of dirty lines recorded for `page`.
    pub fn dirty_line_count(&self, page: PageNumber) -> usize {
        self.pages.get(&page.raw()).map_or(0, |p| p.count)
    }

    /// Borrow the dirty bitmap of `page`, if any lines are dirty.
    pub fn peek_page(&self, page: PageNumber) -> Option<&LineBitmap> {
        self.pages.get(&page.raw()).map(|p| &p.bitmap)
    }

    /// Removes and returns the dirty bitmap of `page` (the eviction handler
    /// consuming the page's dirty state).
    pub fn take_page(&mut self, page: PageNumber) -> Option<LineBitmap> {
        let taken = self.pages.remove(&page.raw())?;
        self.total_dirty -= taken.count;
        Some(taken.bitmap)
    }

    /// Pages with at least one dirty line, sorted.
    pub fn dirty_pages(&self) -> Vec<PageNumber> {
        let mut v: Vec<PageNumber> = self.pages().map(PageNumber).collect();
        v.sort_unstable();
        v
    }

    /// Pages with at least one dirty line, in no particular order and
    /// without allocating.
    pub fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.keys().copied()
    }

    /// Total dirty lines across all pages.
    pub fn total_dirty_lines(&self) -> usize {
        self.total_dirty
    }

    /// Lifetime count of mark operations (including re-marks).
    pub fn total_marks(&self) -> u64 {
        self.total_marks
    }

    /// Returns `true` if nothing is dirty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_take() {
        let mut dt = DirtyTracker::new();
        assert!(dt.is_empty());
        dt.mark(LineIndex(0));
        dt.mark(LineIndex(1));
        dt.mark(LineIndex(1)); // re-mark is idempotent on the bitmap
        assert_eq!(dt.dirty_line_count(PageNumber(0)), 2);
        assert_eq!(dt.total_marks(), 3);
        let bm = dt.take_page(PageNumber(0)).unwrap();
        assert_eq!(bm.count_set(), 2);
        assert!(dt.is_empty());
        assert!(dt.take_page(PageNumber(0)).is_none());
    }

    #[test]
    fn pages_tracked_independently() {
        let mut dt = DirtyTracker::new();
        dt.mark(LineIndex(0)); // page 0
        dt.mark(LineIndex(64)); // page 1
        dt.mark(LineIndex(129)); // page 2
        assert_eq!(
            dt.dirty_pages(),
            vec![PageNumber(0), PageNumber(1), PageNumber(2)]
        );
        assert_eq!(dt.total_dirty_lines(), 3);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut dt = DirtyTracker::new();
        dt.mark(LineIndex(70));
        assert!(dt.peek_page(PageNumber(1)).unwrap().get(6));
        assert_eq!(dt.dirty_line_count(PageNumber(1)), 1);
    }

    /// Cached counts stay in sync with the bitmaps under re-marks and takes.
    #[test]
    fn cached_counts_match_bitmaps() {
        let mut dt = DirtyTracker::new();
        for i in 0..200u64 {
            dt.mark(LineIndex(i % 130)); // re-marks plus three pages
        }
        let expected: usize = dt
            .dirty_pages()
            .iter()
            .map(|&p| dt.peek_page(p).unwrap().count_set())
            .sum();
        assert_eq!(dt.total_dirty_lines(), expected);
        assert_eq!(dt.dirty_line_count(PageNumber(0)), 64);
        dt.take_page(PageNumber(0));
        assert_eq!(dt.total_dirty_lines(), expected - 64);
    }
}

//! Exact working-set tracking for the load/store hooks.
//!
//! Every load and store the profiler sees lands here before any sampling
//! decision, so this is the hottest structure of instrumented execution
//! after the counters themselves. A 4 KiB page holds exactly 64 lines of
//! 64 bytes, so one `u64` per touched page records which of its lines were
//! touched: the line footprint is the number of set bits, and the page
//! footprint is the number of occupied slots. Pages map to slots through
//! an open-addressing table with a multiplicative (Fibonacci) hash, and
//! the slot of the last page touched is memoized, so a run of accesses
//! within one page costs one compare and one bit test.

use crate::profiler::Footprint;

const LINE_SHIFT: u32 = Footprint::LINE_BYTES.trailing_zeros();
const PAGE_SHIFT: u32 = Footprint::PAGE_BYTES.trailing_zeros();
const LINES_PER_PAGE: u64 = Footprint::PAGE_BYTES / Footprint::LINE_BYTES;
const _: () = assert!(LINES_PER_PAGE == 64, "one u64 of line bits per page");

/// Marks an empty slot. Page numbers are `addr >> 12 < 2^52`, so no real
/// page can collide with it.
const EMPTY: u64 = u64::MAX;

/// Initial slot count (a power of two).
const INITIAL_SLOTS: usize = 64;

/// Exact set of touched lines, indexed by page.
#[derive(Debug, Clone)]
pub(crate) struct LineBitmap {
    /// Page number per slot, or [`EMPTY`].
    pages: Vec<u64>,
    /// Touched-line bits per slot, parallel to `pages`.
    lines: Vec<u64>,
    /// `64 - log2(slot count)`: the hash keeps the product's top bits.
    shift: u32,
    /// Occupied slots (distinct pages).
    page_count: u64,
    /// Set bits over all slots (distinct lines).
    line_count: u64,
    /// The last page touched and its slot (`EMPTY` before the first).
    last_page: u64,
    last_slot: usize,
}

impl Default for LineBitmap {
    fn default() -> Self {
        LineBitmap {
            pages: vec![EMPTY; INITIAL_SLOTS],
            lines: vec![0; INITIAL_SLOTS],
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
            page_count: 0,
            line_count: 0,
            last_page: EMPTY,
            last_slot: 0,
        }
    }
}

impl LineBitmap {
    /// Records the line containing `addr`.
    #[inline]
    pub(crate) fn touch(&mut self, addr: u64) {
        let page = addr >> PAGE_SHIFT;
        if page != self.last_page {
            self.last_slot = self.slot_of(page);
            self.last_page = page;
        }
        let bit = 1u64 << ((addr >> LINE_SHIFT) & (LINES_PER_PAGE - 1));
        let word = &mut self.lines[self.last_slot];
        if *word & bit == 0 {
            *word |= bit;
            self.line_count += 1;
        }
    }

    /// The footprint recorded so far.
    pub(crate) fn footprint(&self) -> Footprint {
        Footprint {
            lines: self.line_count,
            pages: self.page_count,
        }
    }

    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `page`, inserting it if absent.
    fn slot_of(&mut self, page: u64) -> usize {
        let mask = self.pages.len() - 1;
        let mut slot = self.home(page);
        loop {
            match self.pages[slot] {
                p if p == page => return slot,
                EMPTY => break,
                _ => slot = (slot + 1) & mask,
            }
        }
        // Keep the load factor at or below one half.
        if (self.page_count + 1) * 2 > self.pages.len() as u64 {
            self.grow();
            slot = self.home(page);
            while self.pages[slot] != EMPTY {
                slot = (slot + 1) & (self.pages.len() - 1);
            }
        }
        self.pages[slot] = page;
        self.page_count += 1;
        slot
    }

    /// Doubles the table and reinserts every occupied slot.
    #[cold]
    fn grow(&mut self) {
        let slots = self.pages.len() * 2;
        let pages = std::mem::replace(&mut self.pages, vec![EMPTY; slots]);
        let lines = std::mem::replace(&mut self.lines, vec![0; slots]);
        self.shift -= 1;
        let mask = slots - 1;
        for (page, bits) in pages.into_iter().zip(lines) {
            if page == EMPTY {
                continue;
            }
            let mut slot = self.home(page);
            while self.pages[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.pages[slot] = page;
            self.lines[slot] = bits;
        }
    }
}

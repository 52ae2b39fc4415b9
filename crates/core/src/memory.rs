//! Live memory accounting for budget-aware exploration.
//!
//! The operational explorer holds its entire visited set in RAM: interned
//! state components, the flat id-row table, the DFS frontier and (under
//! reduction) per-state sleep-set bookkeeping. [`MemoryAccountant`] tracks
//! each of those categories as running byte totals so the explorer can poll a
//! single cheap sum on the same cadence as its interrupt checks and compare
//! it against a [`CheckBudget`-style](crate::interrupt::StopReason) memory
//! limit.
//!
//! The figures are *accounted* bytes — what the explorer knows it allocated —
//! not allocator-truth. That keeps them deterministic across runs (a
//! requirement for reproducible budget trips and counter pins) while
//! staying within a small constant factor of resident-set reality.
//! [`process_resident_bytes`] reads the OS view for watermark-style admission
//! control, where determinism does not matter.

/// Running byte totals for the memory consumed by one exploration,
/// broken down by data structure.
///
/// All figures are accounted (deterministic) bytes, not allocator truth.
/// Categories are set or adjusted by the owning data structures; [`total`]
/// sums the live categories and `spilled_bytes` tracks what has been moved
/// to disk (and therefore no longer counts against the in-RAM total).
///
/// [`total`]: MemoryAccountant::total
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryAccountant {
    /// Bytes held by interned state components (deduplicated memories and
    /// per-process states) in the component arena.
    pub component_bytes: usize,
    /// Bytes held by the resident portion of the flat u32 id-row table.
    pub id_table_bytes: usize,
    /// Estimated bytes held by the hash index over interned rows.
    pub index_bytes: usize,
    /// Bytes held by the DFS frontier / work stack.
    pub frontier_bytes: usize,
    /// Bytes held by the sleep-set bookkeeping: per-state set ids and the
    /// deduplicated table of sets (partial-order reduction only).
    pub sleep_bytes: usize,
    /// Bytes that have been spilled to disk (excluded from [`total`]).
    ///
    /// [`total`]: MemoryAccountant::total
    pub spilled_bytes: usize,
    /// Number of segment files written by the spill path.
    pub spill_segments: usize,
    /// High-water mark of [`total`] over the exploration's lifetime.
    ///
    /// [`total`]: MemoryAccountant::total
    pub peak_bytes: usize,
}

impl MemoryAccountant {
    /// A fresh accountant with every category at zero.
    #[must_use]
    pub fn new() -> Self {
        MemoryAccountant::default()
    }

    /// The current in-RAM total across all categories.
    #[must_use]
    pub fn total(&self) -> usize {
        self.component_bytes
            .saturating_add(self.id_table_bytes)
            .saturating_add(self.index_bytes)
            .saturating_add(self.frontier_bytes)
            .saturating_add(self.sleep_bytes)
    }

    /// Updates the high-water mark from the current total and returns the
    /// current total. Call after any batch of category updates.
    pub fn note_peak(&mut self) -> usize {
        let total = self.total();
        if total > self.peak_bytes {
            self.peak_bytes = total;
        }
        total
    }

    /// Records `bytes` moving from the id-table category to disk as one new
    /// spill segment.
    pub fn note_spill(&mut self, bytes: usize) {
        self.id_table_bytes = self.id_table_bytes.saturating_sub(bytes);
        self.spilled_bytes = self.spilled_bytes.saturating_add(bytes);
        self.spill_segments += 1;
    }
}

/// The process's resident-set size in bytes, read from the operating system.
///
/// Returns `None` when the figure is unavailable (non-Linux platforms, or a
/// malformed `/proc/self/statm`). This is allocator/OS truth — use it for
/// watermark-style admission control, not for deterministic budget checks.
#[must_use]
pub fn process_resident_bytes() -> Option<usize> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    // statm: size resident shared text lib data dt (pages)
    let resident_pages: usize = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages.saturating_mul(page_size()))
}

/// The system page size in bytes, defaulting to 4096 when undiscoverable.
fn page_size() -> usize {
    // Parse "KernelPageSize:        4 kB"-style lines are overkill; every
    // supported target uses 4 KiB pages unless configured otherwise, and a
    // wrong constant only skews the advisory RSS figure, never correctness.
    4096
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_live_categories_only() {
        let mut acct = MemoryAccountant::new();
        acct.component_bytes = 100;
        acct.id_table_bytes = 200;
        acct.index_bytes = 50;
        acct.frontier_bytes = 25;
        acct.sleep_bytes = 10;
        acct.spilled_bytes = 1_000_000; // on disk: not part of the RAM total
        assert_eq!(acct.total(), 385);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut acct = MemoryAccountant::new();
        acct.id_table_bytes = 500;
        assert_eq!(acct.note_peak(), 500);
        acct.id_table_bytes = 100;
        assert_eq!(acct.note_peak(), 100);
        assert_eq!(acct.peak_bytes, 500);
    }

    #[test]
    fn spill_moves_bytes_off_the_ram_total() {
        let mut acct = MemoryAccountant::new();
        acct.id_table_bytes = 1000;
        acct.note_peak();
        acct.note_spill(600);
        assert_eq!(acct.id_table_bytes, 400);
        assert_eq!(acct.spilled_bytes, 600);
        assert_eq!(acct.spill_segments, 1);
        assert_eq!(acct.total(), 400);
        assert_eq!(acct.peak_bytes, 1000);
    }

    #[test]
    fn resident_bytes_reads_something_plausible_on_linux() {
        if let Some(bytes) = process_resident_bytes() {
            // Any live process is at least a few pages resident.
            assert!(bytes > 4096, "implausible RSS {bytes}");
        }
    }
}

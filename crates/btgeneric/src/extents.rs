//! The code cache's address → block index: every live arena extent,
//! ordered by start address. An extent is born when a generation is
//! installed (cold translation, hot promotion) and dies when its block
//! is evicted or the cache is flushed (the whole registry is dropped);
//! between those two points it is in this index, so "which block owns
//! this bundle address" is one ordered-map probe instead of a scan over
//! every block ever translated. Live extents are disjoint — the arena
//! never hands out an address twice before it is released — which is
//! what makes the greatest-start-at-or-below probe exact.

use std::collections::BTreeMap;

/// Live extents by start address: `start -> (end, owning block id)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct ExtentIndex {
    by_start: BTreeMap<u64, (u64, u32)>,
}

impl ExtentIndex {
    /// Records `[start, end)` as owned by block `id`.
    pub(crate) fn insert(&mut self, (start, end): (u64, u64), id: u32) {
        let prev = self.by_start.insert(start, (end, id));
        debug_assert!(prev.is_none(), "extent {start:#x} indexed twice");
    }

    /// Forgets the extent starting at `start` (its arena space is being
    /// released).
    pub(crate) fn remove(&mut self, start: u64) {
        let prev = self.by_start.remove(&start);
        debug_assert!(prev.is_some(), "extent {start:#x} was never indexed");
    }

    /// The block owning the live extent that contains `addr`, if any.
    pub(crate) fn owner_of(&self, addr: u64) -> Option<u32> {
        let (_, &(end, id)) = self.by_start.range(..=addr).next_back()?;
        (addr < end).then_some(id)
    }

    /// Every live extent as `(start, end, owner)`, in address order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
        self.by_start.iter().map(|(&s, &(e, id))| (s, e, id))
    }

    /// The owner of every live extent, in address order — a block with
    /// several live generations appears once per generation.
    pub(crate) fn owners(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().map(|(_, _, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_of_is_exact_at_extent_edges_and_in_holes() {
        let mut ix = ExtentIndex::default();
        ix.insert((0x100, 0x140), 7);
        ix.insert((0x140, 0x150), 8);
        ix.insert((0x200, 0x210), 7);
        assert_eq!(ix.owner_of(0xF0), None, "below the first extent");
        assert_eq!(ix.owner_of(0x100), Some(7));
        assert_eq!(ix.owner_of(0x130), Some(7));
        assert_eq!(ix.owner_of(0x140), Some(8), "end is exclusive");
        assert_eq!(ix.owner_of(0x150), None, "hole between extents");
        assert_eq!(ix.owner_of(0x200), Some(7));
        assert_eq!(ix.owner_of(0x210), None, "past the last extent");
        assert_eq!(ix.owners().collect::<Vec<_>>(), [7, 8, 7]);

        ix.remove(0x140);
        assert_eq!(ix.owner_of(0x140), None, "released extent is a hole");
        assert_eq!(ix.owner_of(0x130), Some(7), "neighbour survives");
        // A hole is refilled by a different block.
        ix.insert((0x140, 0x148), 9);
        assert_eq!(ix.owner_of(0x140), Some(9));
        assert_eq!(ix.owner_of(0x148), None);
    }
}

//! Per-SM L1 data cache: tag array + MSHRs + miss classification + the
//! per-line hashed-PC field Linebacker adds (§4, Figure 7).
//!
//! Miss classification follows §2.2 (Figure 1): a miss is cold if the line
//! was never resident in this L1, capacity/conflict otherwise. The record
//! of resident-ever lines is a `LineHistory`, an exact paged bitset: one
//! 64-bit word per 64-line page touched, so its size follows the pages a
//! kernel touches rather than every line it ever filled.

use crate::cache::mshr::MshrFile;
use crate::cache::tag_array::{Evicted, TagArray};
use crate::config::CacheConfig;
use crate::fastmap::FastMap;
use crate::types::{LineAddr, MissClass};

/// Lines one history word covers.
const PAGE_LINES: u64 = u64::BITS as u64;

/// Every line ever filled into one L1, as a paged bitset: page
/// `line / 64` maps to a word whose bit `line % 64` is set once the line
/// has been resident. Membership is exact, never probabilistic, so the
/// cold/capacity-conflict split is the one a per-line set gives. A warp
/// streaming through consecutive lines costs one 16-byte entry per 64
/// lines.
#[derive(Debug, Default)]
struct LineHistory {
    pages: FastMap<u64, u64>,
}

impl LineHistory {
    #[inline]
    fn insert(&mut self, line: LineAddr) {
        *self.pages.entry(line.0 / PAGE_LINES).or_insert(0) |= 1 << (line.0 % PAGE_LINES);
    }

    #[inline]
    fn contains(&self, line: LineAddr) -> bool {
        let bit = 1u64 << (line.0 % PAGE_LINES);
        self.pages.get(&(line.0 / PAGE_LINES)).is_some_and(|&w| w & bit != 0)
    }
}

/// Per-line metadata stored alongside the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineMeta {
    /// 5-bit hashed PC of the load that last fetched or accessed the line.
    /// Linebacker consults this on eviction to decide whether the victim was
    /// produced by a high-locality load.
    pub hpc: u8,
}

/// Result of an L1 lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Lookup {
    /// Line present.
    Hit,
    /// Line absent; classified cold or capacity/conflict.
    Miss(MissClass),
}

/// The L1 data cache of one SM.
#[derive(Debug)]
pub struct L1Cache {
    tags: TagArray<LineMeta>,
    mshrs: MshrFile,
    /// Lines ever resident — distinguishes cold from capacity/conflict
    /// misses per the paper's §2.2 definition.
    history: LineHistory,
}

impl L1Cache {
    /// Builds an L1 from a [`CacheConfig`].
    pub fn new(cfg: &CacheConfig) -> Self {
        L1Cache {
            tags: TagArray::new(cfg.n_sets(), cfg.assoc),
            mshrs: MshrFile::new(cfg.mshrs),
            history: LineHistory::default(),
        }
    }

    /// Looks up `line`, updating LRU and the per-line HPC on a hit.
    pub fn access(&mut self, line: LineAddr, hpc: u8) -> L1Lookup {
        match self.tags.probe(line) {
            Some(meta) => {
                meta.hpc = hpc;
                L1Lookup::Hit
            }
            None => {
                let class = if self.history.contains(line) {
                    MissClass::CapacityConflict
                } else {
                    MissClass::Cold
                };
                L1Lookup::Miss(class)
            }
        }
    }

    /// Fills `line` (tagged with the fetching load's `hpc`), returning the
    /// evicted victim if the set was full.
    pub fn fill(&mut self, line: LineAddr, hpc: u8) -> Option<Evicted<LineMeta>> {
        self.history.insert(line);
        if self.tags.peek(line).is_some() {
            // A racing fill (e.g. two merged MSHR paths) may try to re-fill;
            // treat as a no-op.
            return None;
        }
        self.tags.fill(line, LineMeta { hpc })
    }

    /// Invalidates `line` (write-evict on store hit). Returns true if the
    /// line was present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        self.tags.invalidate(line).is_some()
    }

    /// Is the line currently resident? (No LRU side effects.)
    pub fn contains(&self, line: LineAddr) -> bool {
        self.tags.peek(line).is_some()
    }

    /// Access to the MSHR file.
    pub fn mshrs(&mut self) -> &mut MshrFile {
        &mut self.mshrs
    }

    /// Immutable MSHR view.
    pub fn mshrs_ref(&self) -> &MshrFile {
        &self.mshrs
    }

    /// Resident line count.
    pub fn occupancy(&self) -> usize {
        self.tags.occupancy()
    }

    /// Underlying tag geometry (sets, assoc).
    pub fn geometry(&self) -> (u32, u32) {
        (self.tags.n_sets(), self.tags.assoc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Address;

    fn l1() -> L1Cache {
        L1Cache::new(&CacheConfig::l1_default())
    }

    #[test]
    fn geometry_is_48x8() {
        assert_eq!(l1().geometry(), (48, 8));
    }

    #[test]
    fn first_miss_is_cold_second_is_2c() {
        let mut c = l1();
        assert_eq!(c.access(LineAddr(7), 0), L1Lookup::Miss(MissClass::Cold));
        c.fill(LineAddr(7), 0);
        assert_eq!(c.access(LineAddr(7), 0), L1Lookup::Hit);
        c.invalidate(LineAddr(7));
        assert_eq!(c.access(LineAddr(7), 0), L1Lookup::Miss(MissClass::CapacityConflict));
    }

    #[test]
    fn eviction_makes_next_miss_capacity() {
        let mut c = l1();
        // Fill set 0 (lines congruent mod 48) beyond capacity.
        for i in 0..9u64 {
            c.fill(LineAddr(i * 48), 0);
        }
        // Line 0 was LRU and evicted.
        assert!(!c.contains(LineAddr(0)));
        assert_eq!(c.access(LineAddr(0), 0), L1Lookup::Miss(MissClass::CapacityConflict));
    }

    #[test]
    fn hit_updates_hpc() {
        let mut c = l1();
        c.fill(LineAddr(1), 3);
        c.access(LineAddr(1), 9);
        // Evict it to observe the payload.
        for i in 1..9u64 {
            c.fill(LineAddr(1 + i * 48), 0);
        }
        // Our line should eventually be evicted with the updated HPC.
        let mut evicted_hpc = None;
        let mut c2 = l1();
        c2.fill(LineAddr(1), 3);
        c2.access(LineAddr(1), 9);
        for i in 1..=8u64 {
            if let Some(ev) = c2.fill(LineAddr(1 + i * 48), 0) {
                if ev.line == LineAddr(1) {
                    evicted_hpc = Some(ev.payload.hpc);
                }
            }
        }
        assert_eq!(evicted_hpc, Some(9));
    }

    #[test]
    fn double_fill_is_noop() {
        let mut c = l1();
        assert!(c.fill(LineAddr(5), 1).is_none());
        assert!(c.fill(LineAddr(5), 2).is_none());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_missing_line_is_false() {
        let mut c = l1();
        assert!(!c.invalidate(LineAddr(77)));
    }

    /// Fills `line` and immediately evicts it again, leaving only the
    /// history behind: the next access is a miss whose class is the
    /// history's answer.
    fn fill_and_drop(c: &mut L1Cache, line: u64) {
        c.fill(LineAddr(line), 0);
        c.invalidate(LineAddr(line));
    }

    fn class_of(c: &mut L1Cache, line: u64) -> MissClass {
        match c.access(LineAddr(line), 0) {
            L1Lookup::Miss(class) => class,
            L1Lookup::Hit => panic!("line {line} is resident"),
        }
    }

    #[test]
    fn history_is_exact_at_word_boundaries() {
        use MissClass::{CapacityConflict as Seen, Cold};
        let mut c = l1();
        fill_and_drop(&mut c, 63);
        assert_eq!([0, 62, 63, 64].map(|l| class_of(&mut c, l)), [Cold, Cold, Seen, Cold]);
        fill_and_drop(&mut c, 0);
        assert_eq!(c.history.pages.len(), 1, "lines 0 and 63 share a word");
        fill_and_drop(&mut c, 64);
        assert_eq!(c.history.pages.len(), 2, "line 64 opens the next word");
        assert_eq!([0, 1, 63, 64, 65].map(|l| class_of(&mut c, l)), [Seen, Cold, Seen, Seen, Cold]);
        fill_and_drop(&mut c, 65);
        assert_eq!(class_of(&mut c, 65), Seen);
        assert_eq!(c.history.pages.len(), 2);
    }

    #[test]
    fn history_is_exact_near_the_top_of_the_address_space() {
        use MissClass::{CapacityConflict as Seen, Cold};
        // Trace addresses span all 64 bits, so lines reach 2^57 - 1.
        let top = Address(u64::MAX).line().0;
        assert_eq!(top, (1 << 57) - 1);
        let mut c = l1();
        for line in [top, top - 64, 1 << 56] {
            fill_and_drop(&mut c, line);
        }
        assert_eq!(c.history.pages.len(), 3);
        let probes = [top, top - 1, top - 63, top - 64, top - 65, 1 << 56, (1 << 56) + 1, 0, 63];
        assert_eq!(
            probes.map(|l| class_of(&mut c, l)),
            [Seen, Cold, Cold, Seen, Cold, Seen, Cold, Cold, Cold],
            "no page aliases another, whatever its high bits"
        );
    }

    #[test]
    fn streaming_history_costs_one_word_per_64_lines() {
        let mut c = l1();
        // An unaligned start straddles one extra word: 1,000,000 lines from
        // line 1 touch words 0..=15,625.
        for line in 1..=1_000_000u64 {
            c.fill(LineAddr(line), 0);
        }
        assert!(c.history.pages.len() <= 15_626, "{} words", c.history.pages.len());
        assert_eq!(class_of(&mut c, 1), MissClass::CapacityConflict);
        assert_eq!(class_of(&mut c, 0), MissClass::Cold);
        assert_eq!(class_of(&mut c, 1_000_001), MissClass::Cold);
    }
}

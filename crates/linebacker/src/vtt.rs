//! The Victim Tag Table (VTT): set-associative tag partitions mapping victim
//! lines to idle warp registers (paper §4, §4.1).
//!
//! The VTT mirrors the L1's 48 sets. It is built from partitions (VPs) of
//! `vp_assoc` ways each; a partition can hold data only when 192 consecutive
//! idle registers (24 KB) back it. During the monitoring period the VTT runs
//! in *tag-only* mode: it remembers recently evicted tags so the Load Monitor
//! can count would-be hits, but no data is preserved.
//!
//! The register number backing a hit in partition `N`, set `X`, way `Y` is
//! Equation 2 of the paper:
//!
//! ```text
//! RN = Offset + N * entries_per_vp + X * ways + Y        (Offset = 511)
//! ```
//!
//! The tag store is one partition-major slab, as [`TagArray`]'s is set-major:
//! way `Y` of set `X` in partition `N` lives at `(N * sets + X) * ways + Y`,
//! the same order Equation 2 numbers the backing registers in. Unlike a
//! `TagArray` stripe, a way here never moves, because its position is its
//! register. A way is 16 bytes in two parallel arrays: its line, and one
//! state word holding its LRU stamp with the valid and invalidated bits
//! folded in. A lookup scans only lines and reads a state word only on a
//! tag match. A set's ways in one partition are one contiguous stripe,
//! and a partition is one contiguous range, so flushing it is a single
//! `fill` of its state words.
//!
//! [`TagArray`]: gpu_sim::cache::TagArray

use gpu_sim::types::{Cycle, LineAddr, RegNum};

use crate::config::LbConfig;

#[cfg(test)]
mod reference;

/// State-word bit: the way holds a tag.
const VALID: u64 = 1 << 63;
/// State-word bit: the tag's data was invalidated by a store; the slot is
/// reused in priority (paper §4 "Delay Considerations" store policy).
const INVALIDATED: u64 = 1 << 62;
/// State-word bits of the LRU stamp (the VTT's access tick).
const STAMP: u64 = INVALIDATED - 1;

/// Does state word `state` hold a tag whose data is still preserved?
#[inline]
fn live(state: u64) -> bool {
    state & (VALID | INVALIDATED) == VALID
}

/// Result of a VTT lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VttHit {
    /// Which partition matched (0-based); search latency is
    /// `(vp + 1) * vp_access_latency`.
    pub vp: u32,
    /// The backing register computed by Equation 2.
    pub rn: RegNum,
}

/// The Victim Tag Table of one SM.
#[derive(Debug)]
pub struct Vtt {
    cfg: LbConfig,
    /// Every partition's lines in one slab: way `way` of set `set` in
    /// partition `vp` is `lines[(vp * vtt_sets + set) * vp_assoc + way]`.
    /// An empty way's line is stale and never matched alone.
    lines: Vec<LineAddr>,
    /// State word of each way, parallel to `lines`: `VALID`, `INVALIDATED`
    /// and the stamp of its last insertion or hit. An empty way's is 0.
    states: Vec<u64>,
    /// Partitions currently backed by idle register space (count, starting
    /// at `first_active`).
    active_vps: u32,
    /// Index of the first partition whose register range is free.
    first_active: u32,
    /// Tag-only mode (monitoring period): all partitions store tags, none
    /// store data.
    tag_only: bool,
    tick: Cycle,
    hits: u64,
    misses: u64,
    insertions: u64,
    store_invalidations: u64,
}

impl Vtt {
    /// Creates the VTT with every partition present but none active.
    pub fn new(cfg: &LbConfig) -> Self {
        let ways = (cfg.max_vps() * cfg.entries_per_vp()) as usize;
        Vtt {
            cfg: cfg.clone(),
            lines: vec![LineAddr(0); ways],
            states: vec![0; ways],
            active_vps: 0,
            first_active: cfg.max_vps(),
            tag_only: true,
            tick: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            store_invalidations: 0,
        }
    }

    /// Equation 2: the register number backing `(vp, set, way)`.
    pub fn reg_of(&self, vp: u32, set: u32, way: u32) -> RegNum {
        RegNum(self.cfg.rn_offset + vp * self.cfg.entries_per_vp() + set * self.cfg.vp_assoc + way)
    }

    /// First register number a partition needs.
    pub fn vp_first_rn(&self, vp: u32) -> RegNum {
        self.reg_of(vp, 0, 0)
    }

    /// Last register number a partition needs.
    pub fn vp_last_rn(&self, vp: u32) -> RegNum {
        self.reg_of(vp, self.cfg.vtt_sets - 1, self.cfg.vp_assoc - 1)
    }

    /// Switches to tag-only (monitoring) mode.
    pub fn set_tag_only(&mut self, tag_only: bool) {
        if self.tag_only != tag_only {
            self.tag_only = tag_only;
            // Mode change discards all contents: monitoring tags carry no
            // data, and stale tags must not produce false data hits.
            self.states.fill(0);
        }
    }

    /// Is the VTT in tag-only mode?
    pub fn tag_only(&self) -> bool {
        self.tag_only
    }

    /// Number of partitions currently usable for data.
    pub fn active_vps(&self) -> u32 {
        self.active_vps
    }

    /// Registers currently dedicated to victim storage.
    pub fn victim_regs(&self) -> u32 {
        if self.tag_only {
            0
        } else {
            self.active_vps * self.cfg.regs_per_vp()
        }
    }

    /// Recomputes the active-partition prefix from the first free register
    /// number (`min_free_rn`): partition `n` is active iff its whole RN range
    /// lies at or above `min_free_rn`. Deactivated partitions are flushed.
    pub fn refresh_partitions(&mut self, min_free_rn: u32) {
        // RN ranges ascend with vp, so once one partition is free the rest
        // are too: the active partitions are `first..max`, and lookups scan
        // them in order from `first_active`.
        let max = self.cfg.max_vps();
        let first = (0..max).find(|&vp| self.vp_first_rn(vp).0 >= min_free_rn).unwrap_or(max);
        // Flush everything below (now owned by live registers).
        let per_vp = self.cfg.entries_per_vp() as usize;
        self.states[..first as usize * per_vp].fill(0);
        self.first_active = first;
        self.active_vps = max - first;
    }

    /// Slab range of the ways of `set` in partition `vp`.
    #[inline]
    fn stripe(&self, vp: u32, set: usize) -> std::ops::Range<usize> {
        let assoc = self.cfg.vp_assoc as usize;
        let start = (vp as usize * self.cfg.vtt_sets as usize + set) * assoc;
        start..start + assoc
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.0 % self.cfg.vtt_sets as u64) as usize
    }

    fn search_range(&self) -> std::ops::Range<u32> {
        if self.tag_only {
            0..self.cfg.max_vps()
        } else {
            self.first_active..self.first_active + self.active_vps
        }
    }

    /// The first way, in search order, of `line`'s set that holds `line`
    /// with a state word `accept` admits: `(vp, way, slab index)`.
    fn find(&self, line: LineAddr, accept: impl Fn(u64) -> bool) -> Option<(u32, u32, usize)> {
        let set = self.set_index(line);
        for vp in self.search_range() {
            let stripe = self.stripe(vp, set);
            let start = stripe.start;
            for (w, &l) in self.lines[stripe].iter().enumerate() {
                if l == line && accept(self.states[start + w]) {
                    return Some((vp, w as u32, start + w));
                }
            }
        }
        None
    }

    /// Stamps way `slot` as holding a live tag, used now.
    fn touch(&mut self, slot: usize) {
        debug_assert!(self.tick <= STAMP, "VTT stamp overflow");
        self.states[slot] = VALID | self.tick;
    }

    /// Looks up `line`. On a hit returns the matching partition (for search
    /// latency) and the backing register; updates LRU.
    pub fn lookup(&mut self, line: LineAddr) -> Option<VttHit> {
        self.tick += 1;
        match self.find(line, live) {
            Some((vp, w, slot)) => {
                self.touch(slot);
                self.hits += 1;
                let set = self.set_index(line) as u32;
                Some(VttHit { vp: vp - self.search_range().start, rn: self.reg_of(vp, set, w) })
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts the tag (and, in data mode, implicitly the line data) of an
    /// evicted victim. Returns the backing register chosen, or `None` when
    /// no partition is available. Invalidated slots are reused in priority;
    /// otherwise the LRU way across active partitions of the set is
    /// replaced.
    pub fn insert(&mut self, line: LineAddr) -> Option<RegNum> {
        let range = self.search_range();
        if range.is_empty() {
            return None;
        }
        self.tick += 1;
        // Already present (even if invalidated)? Refresh it.
        if let Some((_, _, slot)) = self.find(line, |state| state & VALID != 0) {
            self.touch(slot);
            return None;
        }
        // Priority 1: the first invalidated or empty slot; otherwise
        // priority 2: the global LRU across the set's active ways, the
        // first in search order among equals. Every way is live by then,
        // so comparing state words compares stamps.
        let set = self.set_index(line);
        let mut victim: Option<(u32, u32, u64)> = None;
        'scan: for vp in range {
            let stripe = self.stripe(vp, set);
            for (w, &state) in self.states[stripe].iter().enumerate() {
                if !live(state) {
                    victim = Some((vp, w as u32, 0));
                    break 'scan;
                }
                if victim.is_none_or(|(_, _, best)| state < best) {
                    victim = Some((vp, w as u32, state));
                }
            }
        }
        let (vp, w, _) = victim.expect("nonempty range has ways");
        let slot = self.stripe(vp, set).start + w as usize;
        self.lines[slot] = line;
        self.touch(slot);
        self.insertions += 1;
        Some(self.reg_of(vp, set as u32, w))
    }

    /// A store wrote `line`: invalidate any preserved copy (victim data is
    /// never dirty). Returns true if a copy existed.
    pub fn invalidate_store(&mut self, line: LineAddr) -> bool {
        match self.find(line, live) {
            Some((_, _, slot)) => {
                self.states[slot] |= INVALIDATED;
                self.store_invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// (hits, misses, insertions, store invalidations).
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (self.hits, self.misses, self.insertions, self.store_invalidations)
    }

    /// Valid, non-invalidated entries currently held.
    pub fn occupancy(&self) -> usize {
        self.states.iter().filter(|&&state| live(state)).count()
    }

    /// Index of the first active partition.
    pub fn first_active(&self) -> u32 {
        self.first_active
    }

    /// Bytes the tag store holds: 16 per way, its line and its state word.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.lines[..]) + size_of_val(&self.states[..])
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefVtt;
    use super::*;
    use testkit::check_n;

    fn data_vtt(active_from_rn: u32) -> Vtt {
        let mut v = Vtt::new(&LbConfig::default());
        v.set_tag_only(false);
        v.refresh_partitions(active_from_rn);
        v
    }

    #[test]
    fn equation2_rn_mapping() {
        let v = Vtt::new(&LbConfig::default());
        // RN = 511 + N*192 + X*4 + Y
        assert_eq!(v.reg_of(0, 0, 0), RegNum(511));
        assert_eq!(v.reg_of(0, 0, 3), RegNum(514));
        assert_eq!(v.reg_of(0, 1, 0), RegNum(515));
        assert_eq!(v.reg_of(1, 0, 0), RegNum(703));
        assert_eq!(v.reg_of(7, 47, 3), RegNum(511 + 7 * 192 + 47 * 4 + 3));
        // Highest mapped RN stays within the 2048-register file.
        assert!(v.reg_of(7, 47, 3).0 < 2048);
    }

    #[test]
    fn rn_mapping_is_injective() {
        let v = Vtt::new(&LbConfig::default());
        let mut seen = std::collections::HashSet::new();
        for vp in 0..8 {
            for set in 0..48 {
                for way in 0..4 {
                    assert!(seen.insert(v.reg_of(vp, set, way)), "duplicate RN");
                }
            }
        }
        assert_eq!(seen.len(), 1536);
    }

    #[test]
    fn tag_only_mode_has_no_victim_regs() {
        let mut v = Vtt::new(&LbConfig::default());
        assert!(v.tag_only());
        assert_eq!(v.victim_regs(), 0);
        v.insert(LineAddr(5));
        assert!(v.lookup(LineAddr(5)).is_some(), "tags are searchable while monitoring");
    }

    #[test]
    fn mode_switch_flushes() {
        let mut v = Vtt::new(&LbConfig::default());
        v.insert(LineAddr(5));
        v.set_tag_only(false);
        v.refresh_partitions(0);
        assert!(v.lookup(LineAddr(5)).is_none(), "monitoring tags must not leak data hits");
    }

    #[test]
    fn partitions_activate_by_free_space() {
        let mut v = data_vtt(2048);
        assert_eq!(v.active_vps(), 0);
        // Free space from RN 511 onward: all 8 partitions fit.
        v.refresh_partitions(511);
        assert_eq!(v.active_vps(), 8);
        assert_eq!(v.victim_regs(), 1536);
        // Free space only from RN 1000: partitions 0 and 1 (first RNs 511,
        // 703) are unavailable; 895 < 1000 too, so first active is vp 3
        // (first RN 1087).
        v.refresh_partitions(1000);
        assert_eq!(v.first_active(), 3);
        assert_eq!(v.active_vps(), 5);
    }

    #[test]
    fn insert_then_hit_returns_mapped_register() {
        let mut v = data_vtt(511);
        let rn = v.insert(LineAddr(10)).expect("space available");
        let hit = v.lookup(LineAddr(10)).expect("must hit");
        assert_eq!(hit.rn, rn);
        assert_eq!(hit.vp, 0, "first partition searched first");
    }

    #[test]
    fn no_insert_when_no_active_partition() {
        let mut v = data_vtt(2048);
        assert_eq!(v.insert(LineAddr(10)), None);
    }

    #[test]
    fn store_invalidation_blocks_hit_and_slot_reused_first() {
        let mut v = data_vtt(511);
        // Fill set 0 of partition 0 completely (4 ways): lines congruent
        // mod 48.
        for i in 0..4u64 {
            v.insert(LineAddr(i * 48));
        }
        assert!(v.invalidate_store(LineAddr(96)));
        assert!(v.lookup(LineAddr(96)).is_none(), "invalidated entry must not hit");
        // Next insertion to the same set must take the invalidated slot
        // (way 2 of vp 0) rather than evicting an LRU entry.
        let rn = v.insert(LineAddr(9 * 48)).unwrap();
        let expect = v.reg_of(0, 0, 2);
        assert_eq!(rn, expect);
        // The other three original lines still hit.
        for i in [0u64, 1, 3] {
            assert!(v.lookup(LineAddr(i * 48)).is_some());
        }
    }

    #[test]
    fn lru_eviction_across_partitions() {
        let cfg = LbConfig::with_vp_assoc(1); // 1-way: 32 partitions
        let mut v = Vtt::new(&cfg);
        v.set_tag_only(false);
        v.refresh_partitions(511);
        assert_eq!(v.active_vps(), 32);
        // Fill all 32 ways of set 0.
        for i in 0..32u64 {
            v.insert(LineAddr(i * 48));
        }
        // Touch all but line 0 so line 0 is LRU.
        for i in 1..32u64 {
            v.lookup(LineAddr(i * 48));
        }
        v.insert(LineAddr(99 * 48));
        assert!(v.lookup(LineAddr(0)).is_none(), "LRU line must be evicted");
        assert!(v.lookup(LineAddr(99 * 48)).is_some());
    }

    #[test]
    fn sequential_search_reports_partition_index() {
        let cfg = LbConfig::with_vp_assoc(1);
        let mut v = Vtt::new(&cfg);
        v.set_tag_only(false);
        v.refresh_partitions(511);
        // Fill ways in partitions 0 and 1 for set 0.
        v.insert(LineAddr(0));
        v.insert(LineAddr(48));
        let h0 = v.lookup(LineAddr(0)).unwrap();
        let h1 = v.lookup(LineAddr(48)).unwrap();
        assert_eq!(h0.vp, 0);
        assert_eq!(h1.vp, 1, "second line landed in the next partition");
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut v = data_vtt(511);
        v.insert(LineAddr(7));
        assert_eq!(v.insert(LineAddr(7)), None, "duplicate insert is a refresh");
        assert_eq!(v.occupancy(), 1);
    }

    #[test]
    fn deactivating_partitions_flushes_only_their_ways() {
        let mut v = data_vtt(511);
        let cfg = LbConfig::default();
        let (vps, assoc) = (cfg.max_vps(), cfg.vp_assoc);
        // Fill the edge sets 0 and 47 in every partition: the i-th line of
        // a set lands in partition i / assoc, way i % assoc.
        let line = |set: u32, i: u32| LineAddr((set + i * cfg.vtt_sets) as u64);
        for set in [0, 47] {
            for i in 0..vps * assoc {
                assert_eq!(v.insert(line(set, i)), Some(v.reg_of(i / assoc, set, i % assoc)));
            }
        }
        // Registers reclaimed below partition 3's range: 0..3 are flushed.
        v.refresh_partitions(v.vp_first_rn(3).0);
        assert_eq!((v.first_active(), v.active_vps()), (3, vps - 3));
        assert_eq!(v.occupancy(), 2 * (vps as usize - 3) * assoc as usize);
        // Re-activating every partition shows what the flush left behind.
        for from_vp in [3, 0] {
            v.refresh_partitions(v.vp_first_rn(from_vp).0);
            for set in [0, 47] {
                for i in 0..vps * assoc {
                    let (vp, way) = (i / assoc, i % assoc);
                    let hit = v.lookup(line(set, i));
                    if vp < 3 {
                        assert_eq!(hit, None, "set {set} of flushed partition {vp} kept a tag");
                    } else {
                        let rn = v.reg_of(vp, set, way);
                        assert_eq!(hit, Some(VttHit { vp: vp - from_vp, rn }), "set {set}, {vp}");
                    }
                }
            }
        }
    }

    #[test]
    fn deactivated_partitions_are_flushed() {
        let mut v = data_vtt(511);
        v.insert(LineAddr(3));
        // Registers reclaimed: only partitions from RN 1500 remain.
        v.refresh_partitions(1500);
        assert!(v.lookup(LineAddr(3)).is_none());
    }

    #[test]
    fn table1_footprint_is_16_bytes_per_way() {
        // 48 sets x 32 ways over 8 four-way partitions.
        assert_eq!(Vtt::new(&LbConfig::default()).heap_bytes(), 24_576);
        for assoc in [1, 2, 4, 8, 16, 32] {
            assert_eq!(Vtt::new(&LbConfig::with_vp_assoc(assoc)).heap_bytes(), 48 * 32 * 16);
        }
    }

    /// Random lookups, insertions, store invalidations, partition
    /// refreshes and mode switches give the same hits, backing registers,
    /// occupancy and counters as the frozen 24-byte-way reference, at
    /// every legal partition associativity (Fig. 10 sweeps 1, 4 and 16).
    #[test]
    fn matches_reference_at_every_associativity() {
        for assoc in [1, 2, 4, 8, 16, 32] {
            check_n(&format!("vtt_matches_reference_{assoc}_way"), 64, |r| {
                let cfg = LbConfig::with_vp_assoc(assoc);
                let (mut new, mut old) = (Vtt::new(&cfg), RefVtt::new(&cfg));
                // Lines of a few sets, so that sets overflow their 32 ways
                // and evict, but few enough lines per set that some hit.
                let sets = *r.pick(&[1, 2, 3, u64::from(cfg.vtt_sets)]);
                let per_set = r.range_u64(1, 64);
                for step in 0..r.range_usize(1, 800) {
                    let line = LineAddr(
                        r.range_u64(0, sets) + u64::from(cfg.vtt_sets) * r.range_u64(0, per_set),
                    );
                    match r.range_u32(0, 40) {
                        0..=14 => assert_eq!(new.lookup(line), old.lookup(line), "lookup {step}"),
                        15..=32 => assert_eq!(new.insert(line), old.insert(line), "insert {step}"),
                        33..=37 => assert_eq!(
                            new.invalidate_store(line),
                            old.invalidate_store(line),
                            "store {step}"
                        ),
                        38 => {
                            // A partition boundary, or a register inside a
                            // partition's range.
                            let rn = match r.range_u32(0, 3) {
                                0 => first_rn(&cfg, r.range_u32(0, cfg.max_vps() + 1)),
                                _ => r.range_u32(0, 2_100),
                            };
                            new.refresh_partitions(rn);
                            old.refresh_partitions(rn);
                        }
                        _ => {
                            let tag_only = r.range_u32(0, 4) == 0;
                            new.set_tag_only(tag_only);
                            old.set_tag_only(tag_only);
                        }
                    }
                    assert_eq!(new.occupancy(), old.occupancy(), "occupancy at step {step}");
                    assert_eq!(new.stats(), old.stats(), "counters at step {step}");
                    assert_eq!(
                        (new.active_vps(), new.first_active(), new.victim_regs()),
                        (old.active_vps(), old.first_active(), old.victim_regs()),
                    );
                }
            });
        }
    }

    /// Equation 2's first register of partition `vp` (the end of the file
    /// for `vp == max_vps`).
    fn first_rn(cfg: &LbConfig, vp: u32) -> u32 {
        cfg.rn_offset + vp * cfg.entries_per_vp()
    }
}

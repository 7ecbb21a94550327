//! Generic set-associative tag array with true-LRU replacement.
//!
//! Used by the L1 and L2 data caches and by CERF's cache-emulated register
//! file; Linebacker's Victim Tag Table mirrors the same geometry.
//!
//! Each set is a recency-ordered stripe of one set-major `LineAddr` slab:
//! set `s` owns `lines[s * assoc .. (s + 1) * assoc]`, its first `lens[s]`
//! entries are its resident lines, most recently used first, and the rest
//! are free. Payloads live in a parallel slab. A hit moves its line to the
//! front of the stripe, a fill shifts the new line in at the front, and a
//! fill into a full set evicts the last line, which is the least recently
//! used one. The order is the state: there is no per-way valid flag and no
//! per-way LRU clock, so a way costs 8 bytes plus its payload, and a set
//! one length byte. Way positions are never observable; only which lines
//! are resident and which one is evicted are, and those are the ones a
//! per-way `last_use` stamp gives.

use crate::types::LineAddr;

/// Most ways a set may have: a set's resident count is one byte.
pub const MAX_ASSOC: u32 = u8::MAX as u32;

/// Most lines (sets × ways) an array may hold, so that a line count fits
/// the `u32` that `CacheConfig::n_lines` and `L2Cache::capacity_lines`
/// return.
pub const MAX_LINES: u64 = u32::MAX as u64;

/// Result of a [`TagArray::fill`]: the line that had to be evicted, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted<P> {
    /// Address of the evicted line.
    pub line: LineAddr,
    /// Payload that was stored with it (e.g. the hashed PC of the last
    /// accessor, which Linebacker uses to filter victims).
    pub payload: P,
}

/// A set-associative tag array. `P` is per-line metadata.
#[derive(Debug, Clone)]
pub struct TagArray<P> {
    /// Set-major slab; set `s`'s resident lines are
    /// `lines[s * assoc .. s * assoc + lens[s]]`, most recent first.
    lines: Vec<LineAddr>,
    /// Payloads, parallel to `lines`.
    payloads: Vec<P>,
    /// Resident lines per set.
    lens: Vec<u8>,
    n_sets: usize,
    assoc: usize,
}

impl<P: Copy + Default> TagArray<P> {
    /// Creates an array with `n_sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, if `assoc` exceeds
    /// [`MAX_ASSOC`], or if the array would hold more than [`MAX_LINES`]
    /// lines. `GpuConfig::validate` reports the same limits as errors.
    pub fn new(n_sets: u32, assoc: u32) -> Self {
        assert!(n_sets > 0 && assoc > 0, "tag array must have nonzero geometry");
        assert!(assoc <= MAX_ASSOC, "tag array associativity {assoc} exceeds {MAX_ASSOC}");
        let total = u64::from(n_sets) * u64::from(assoc);
        assert!(total <= MAX_LINES, "tag array of {total} lines exceeds {MAX_LINES}");
        TagArray {
            lines: vec![LineAddr(0); total as usize],
            payloads: vec![P::default(); total as usize],
            lens: vec![0; n_sets as usize],
            n_sets: n_sets as usize,
            assoc: assoc as usize,
        }
    }

    /// Number of sets.
    pub fn n_sets(&self) -> u32 {
        self.n_sets as u32
    }

    /// Associativity.
    pub fn assoc(&self) -> u32 {
        self.assoc as u32
    }

    /// Set index for a line. The L1 of the paper has 48 sets, which is not a
    /// power of two, so indexing is modulo rather than bit-sliced.
    #[inline]
    pub fn set_index(&self, line: LineAddr) -> usize {
        (line.0 % self.n_sets as u64) as usize
    }

    /// `line`'s set: its index, the slab offset of its stripe and its
    /// resident count.
    #[inline]
    fn locate(&self, line: LineAddr) -> (usize, usize, usize) {
        let s = self.set_index(line);
        (s, s * self.assoc, self.lens[s] as usize)
    }

    /// Recency position of `line` among the `len` resident lines at `base`.
    #[inline]
    fn position(&self, base: usize, len: usize, line: LineAddr) -> Option<usize> {
        self.lines[base..base + len].iter().position(|&l| l == line)
    }

    /// Shifts the `n` most recent ways of the stripe at `base` one slot
    /// back, over slot `base + n`, and puts `line` and `payload` in front.
    /// Returns what slot `base + n` held.
    #[inline]
    fn push_front(&mut self, base: usize, n: usize, line: LineAddr, payload: P) -> Evicted<P> {
        // Carry each way one slot back: at most `assoc` register swaps,
        // cheaper than a `memmove` call on a stripe this short.
        let mut carry = Evicted { line, payload };
        let ways = self.lines[base..=base + n].iter_mut().zip(&mut self.payloads[base..=base + n]);
        for (l, p) in ways {
            std::mem::swap(l, &mut carry.line);
            std::mem::swap(p, &mut carry.payload);
        }
        carry
    }

    /// Looks up `line`; on a hit, makes it the most recently used line of
    /// its set and returns a mutable reference to its payload.
    pub fn probe(&mut self, line: LineAddr) -> Option<&mut P> {
        let (_, base, len) = self.locate(line);
        let i = self.position(base, len, line)?;
        if i > 0 {
            let payload = self.payloads[base + i];
            self.push_front(base, i, line, payload);
        }
        Some(&mut self.payloads[base])
    }

    /// Looks up `line` without touching the recency order.
    pub fn peek(&self, line: LineAddr) -> Option<&P> {
        let (_, base, len) = self.locate(line);
        self.position(base, len, line).map(|i| &self.payloads[base + i])
    }

    /// Inserts `line` (which must not be present) as its set's most
    /// recently used line, evicting the least recently used one if the set
    /// is full. Returns the evicted line, if any.
    pub fn fill(&mut self, line: LineAddr, payload: P) -> Option<Evicted<P>> {
        let (s, base, len) = self.locate(line);
        debug_assert!(
            self.position(base, len, line).is_none(),
            "fill of already-present line {line}"
        );
        if len == self.assoc {
            return Some(self.push_front(base, len - 1, line, payload));
        }
        self.push_front(base, len, line, payload);
        self.lens[s] += 1;
        None
    }

    /// Replaces the least recently used line of `line`'s set with `line`
    /// (which must not be present), now the most recently used one, and
    /// returns the replaced line; whether or not the set is full. An
    /// empty set has nothing to replace: it stays empty and `None` is
    /// returned. CERF uses this to stay within its capacity.
    pub fn replace_lru(&mut self, line: LineAddr, payload: P) -> Option<Evicted<P>> {
        let (_, base, len) = self.locate(line);
        debug_assert!(self.position(base, len, line).is_none(), "replace by present line {line}");
        (len > 0).then(|| self.push_front(base, len - 1, line, payload))
    }

    /// Invalidates `line` if present and returns its payload. The other
    /// lines keep their recency order.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<P> {
        let (s, base, len) = self.locate(line);
        let i = self.position(base, len, line)?;
        let payload = self.payloads[base + i];
        self.lines.copy_within(base + i + 1..base + len, base + i);
        self.payloads.copy_within(base + i + 1..base + len, base + i);
        self.lens[s] -= 1;
        Some(payload)
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }

    /// Iterates over all resident lines, set by set, each set's most
    /// recently used first.
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.lens.iter().enumerate().flat_map(move |(s, &n)| {
            let base = s * self.assoc;
            self.lines[base..base + n as usize].iter().copied()
        })
    }

    /// Bytes the array's slabs hold: lines, payloads and set lengths.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.lines[..]) + size_of_val(&self.payloads[..]) + size_of_val(&self.lens[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::reference::RefTagArray;
    use crate::cache::LineMeta;
    use testkit::{check, Rng};

    fn arr(sets: u32, assoc: u32) -> TagArray<u8> {
        TagArray::new(sets, assoc)
    }

    #[test]
    fn miss_then_hit() {
        let mut t = arr(4, 2);
        assert!(t.probe(LineAddr(100)).is_none());
        assert!(t.fill(LineAddr(100), 7).is_none());
        assert_eq!(t.probe(LineAddr(100)), Some(&mut 7));
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = arr(1, 2);
        t.fill(LineAddr(1), 0);
        t.fill(LineAddr(2), 0);
        // Touch line 1 so line 2 becomes LRU.
        t.probe(LineAddr(1));
        let ev = t.fill(LineAddr(3), 0).expect("set full");
        assert_eq!(ev.line, LineAddr(2));
    }

    #[test]
    fn eviction_carries_payload() {
        let mut t = arr(1, 1);
        t.fill(LineAddr(9), 42);
        let ev = t.fill(LineAddr(10), 43).unwrap();
        assert_eq!(ev, Evicted { line: LineAddr(9), payload: 42 });
    }

    #[test]
    fn conflict_within_set_only() {
        let mut t = arr(2, 1);
        t.fill(LineAddr(0), 0); // set 0
        t.fill(LineAddr(1), 0); // set 1
                                // Filling another set-0 line evicts line 0, not line 1.
        let ev = t.fill(LineAddr(2), 0).unwrap();
        assert_eq!(ev.line, LineAddr(0));
        assert!(t.peek(LineAddr(1)).is_some());
    }

    #[test]
    fn invalidate_frees_way() {
        let mut t = arr(1, 1);
        t.fill(LineAddr(5), 1);
        assert_eq!(t.invalidate(LineAddr(5)), Some(1));
        assert!(t.peek(LineAddr(5)).is_none());
        // The invalid way is reused without eviction.
        assert!(t.fill(LineAddr(6), 2).is_none());
    }

    #[test]
    fn occupancy_tracks_fills() {
        let mut t = arr(4, 4);
        for i in 0..10 {
            t.fill(LineAddr(i), 0);
        }
        assert_eq!(t.occupancy(), 10);
        t.invalidate(LineAddr(0));
        assert_eq!(t.occupancy(), 9);
    }

    #[test]
    fn modulo_indexing_for_48_sets() {
        let t = arr(48, 8);
        assert_eq!(t.set_index(LineAddr(48)), 0);
        assert_eq!(t.set_index(LineAddr(49)), 1);
        assert_eq!(t.set_index(LineAddr(47)), 47);
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut t = arr(1, 2);
        t.fill(LineAddr(1), 0);
        t.fill(LineAddr(2), 0);
        t.peek(LineAddr(1));
        // LRU is still line 1 because peek did not touch it.
        let ev = t.fill(LineAddr(3), 0).unwrap();
        assert_eq!(ev.line, LineAddr(1));
    }

    #[test]
    #[should_panic(expected = "nonzero geometry")]
    fn zero_geometry_panics() {
        let _ = arr(0, 1);
    }

    #[test]
    #[should_panic(expected = "associativity 256 exceeds 255")]
    fn associativity_beyond_a_length_byte_panics() {
        let _ = arr(1, 256);
    }

    #[test]
    fn invalidating_a_middle_line_keeps_the_others_in_recency_order() {
        let mut t = arr(1, 4);
        for i in 1..=4u64 {
            t.fill(LineAddr(i), i as u8);
        }
        assert_eq!(t.invalidate(LineAddr(2)), Some(2));
        assert!(t.fill(LineAddr(9), 9).is_none(), "the freed way must absorb the fill");
        assert_eq!(t.resident_lines().collect::<Vec<_>>(), [9, 4, 3, 1].map(LineAddr));
        // Line 1 is still the least recently used.
        assert_eq!(t.fill(LineAddr(10), 10), Some(Evicted { line: LineAddr(1), payload: 1 }));
    }

    #[test]
    fn replace_lru_swaps_the_oldest_line_of_a_partial_set() {
        let mut t = arr(2, 4);
        assert_eq!(t.replace_lru(LineAddr(0), 1), None, "an empty set has nothing to replace");
        assert_eq!(t.occupancy(), 0);
        t.fill(LineAddr(0), 1);
        t.fill(LineAddr(2), 2);
        t.probe(LineAddr(0));
        assert_eq!(t.replace_lru(LineAddr(4), 3), Some(Evicted { line: LineAddr(2), payload: 2 }));
        assert_eq!(t.resident_lines().collect::<Vec<_>>(), [4, 0].map(LineAddr));
    }

    /// Byte counts at the Table 1 geometries: 8 bytes per way plus its
    /// payload, plus one length byte per set.
    #[test]
    fn table1_footprints() {
        assert_eq!(TagArray::<()>::new(2048, 8).heap_bytes(), 133_120, "L2");
        assert_eq!(TagArray::<LineMeta>::new(48, 8).heap_bytes(), 3_504, "L1");
        assert_eq!(TagArray::<()>::new(48, 32).heap_bytes(), 12_336, "CERF store");
    }

    /// Runs a random sequence of probes, peeks, fills and invalidations on
    /// the compact array and on the frozen stamp-per-way reference, and
    /// requires identical answers throughout.
    fn matches_reference(r: &mut Rng, n_sets: u32, assoc: u32) {
        let mut new: TagArray<u32> = TagArray::new(n_sets, assoc);
        let mut old: RefTagArray<u32> = RefTagArray::new(n_sets, assoc);
        // Enough distinct lines to overfill every set a few times over.
        let span = u64::from(n_sets) * u64::from(assoc) * r.range_u64(1, 4) + 1;
        for step in 0..r.range_usize(1, 2_000) {
            let line = LineAddr(r.range_u64(0, span));
            match r.range_u32(0, 8) {
                0..=3 => {
                    let payload = r.range_u64(0, 1 << 32) as u32;
                    let (a, b) = (new.probe(line), old.probe(line));
                    assert_eq!(a.as_deref(), b.as_deref(), "probe {line} at step {step}");
                    if let (Some(a), Some(b)) = (a, b) {
                        (*a, *b) = (payload, payload);
                    } else if r.bool() {
                        // A miss usually fills, as the L1 and L2 do.
                        assert_eq!(new.fill(line, payload), old.fill(line, payload), "fill {line}");
                    }
                }
                4 => assert_eq!(new.peek(line), old.peek(line), "peek {line} at step {step}"),
                5 => assert_eq!(new.invalidate(line), old.invalidate(line), "invalidate {line}"),
                _ => {
                    if old.peek(line).is_none() {
                        let payload = step as u32;
                        assert_eq!(new.fill(line, payload), old.fill(line, payload), "fill {line}");
                    }
                }
            }
            assert_eq!(new.occupancy(), old.occupancy(), "occupancy at step {step}");
        }
    }

    #[test]
    fn matches_reference_at_l1_geometry() {
        check("tag_array_matches_reference_l1", |r| matches_reference(r, 48, 8));
    }

    #[test]
    fn matches_reference_at_cerf_geometry() {
        check("tag_array_matches_reference_cerf", |r| matches_reference(r, 48, 32));
    }

    #[test]
    fn matches_reference_direct_mapped() {
        check("tag_array_matches_reference_direct_mapped", |r| matches_reference(r, 16, 1));
    }

    #[test]
    fn matches_reference_at_small_l2_geometry() {
        check("tag_array_matches_reference_small_l2", |r| matches_reference(r, 64, 8));
    }
}

//! Banked register file model.
//!
//! A 256 KB register file holds 2048 warp registers of 128 B (one cache line)
//! each, spread over 32 banks. The model tracks:
//!
//! * per-CTA contiguous allocation (FRN/count, as Linebacker's CTA manager
//!   assumes),
//! * per-cycle bank conflicts (the paper's Figure 16 metric), and
//! * statically / dynamically unused space (SUR / DUR, Figure 4).
//!
//! It keeps no register contents: its state is one `(first, count)` range
//! and one backed-up bit per CTA slot, so its size does not grow with the
//! register count. What contents would show is ownership, and that is
//! checked instead: a register is *live* while it lies in the range of a
//! resident CTA that is not backed up ([`RegFile::is_live`]). A policy that
//! stores victim lines in idle registers must never write or read a live
//! one; Linebacker debug-asserts this at every victim insert and hit.

use crate::types::{CtaId, Cycle, RegNum};

/// Snapshot of register-file occupancy, in warp registers (128 B units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RfSpace {
    /// Total warp registers in the file.
    pub total: u32,
    /// Registers allocated to CTAs that are currently active.
    pub active_used: u32,
    /// Registers of resident but throttled (backed-up) CTAs — Dynamically
    /// Unused Register file space.
    pub dynamic_unused: u32,
    /// Registers never allocated to any resident CTA — Statically Unused
    /// Register file space.
    pub static_unused: u32,
}

impl RfSpace {
    /// SUR + DUR: total idle space usable as victim storage.
    pub fn idle(&self) -> u32 {
        self.dynamic_unused + self.static_unused
    }
}

/// The register file of one SM.
#[derive(Debug)]
pub struct RegFile {
    total_regs: u32,
    banks: u32,
    /// Per-bank use count in the current cycle (lazily cleared).
    bank_use: Vec<u8>,
    bank_cycle: Cycle,
    /// Per-CTA-slot allocation: (first register, count).
    alloc: Vec<Option<(u32, u32)>>,
    /// CTA slots whose registers are currently backed up off-chip (their
    /// space is DUR).
    backed_up: Vec<bool>,
    reads: u64,
    writes: u64,
    conflicts: u64,
}

impl RegFile {
    /// Creates a register file with `total_regs` warp registers in `banks`
    /// banks, supporting `cta_slots` hardware CTA slots.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(total_regs: u32, banks: u32, cta_slots: u32) -> Self {
        assert!(total_regs > 0 && banks > 0 && cta_slots > 0);
        RegFile {
            total_regs,
            banks,
            bank_use: vec![0; banks as usize],
            bank_cycle: u64::MAX,
            alloc: vec![None; cta_slots as usize],
            backed_up: vec![false; cta_slots as usize],
            reads: 0,
            writes: 0,
            conflicts: 0,
        }
    }

    /// Total warp registers.
    pub fn total_regs(&self) -> u32 {
        self.total_regs
    }

    /// Allocates `count` contiguous warp registers for `cta`. Allocation is
    /// first-fit over slot order, matching the FRN model of the paper's CTA
    /// manager. Returns the first register number, or `None` if space or the
    /// slot is unavailable.
    pub fn allocate_cta(&mut self, cta: CtaId, count: u32) -> Option<RegNum> {
        let slot = cta.0 as usize;
        if slot >= self.alloc.len() || self.alloc[slot].is_some() || count == 0 {
            return None;
        }
        let first = self.find_gap(count)?;
        self.alloc[slot] = Some((first, count));
        self.backed_up[slot] = false;
        Some(RegNum(first))
    }

    fn find_gap(&self, count: u32) -> Option<u32> {
        let mut used: Vec<(u32, u32)> = self.alloc.iter().flatten().copied().collect();
        used.sort_unstable();
        let mut cursor = 0u32;
        for (start, len) in used {
            if start >= cursor && start - cursor >= count {
                return Some(cursor);
            }
            cursor = cursor.max(start + len);
        }
        if self.total_regs - cursor >= count {
            Some(cursor)
        } else {
            None
        }
    }

    /// Frees the registers of a completed CTA.
    pub fn free_cta(&mut self, cta: CtaId) {
        let slot = cta.0 as usize;
        self.alloc[slot] = None;
        self.backed_up[slot] = false;
    }

    /// Marks a throttled CTA's registers as backed up (space becomes DUR).
    /// Returns the `(first, count)` range, or `None` if the CTA has no
    /// allocation.
    pub fn mark_backed_up(&mut self, cta: CtaId) -> Option<(RegNum, u32)> {
        let slot = cta.0 as usize;
        let (first, count) = self.alloc[slot]?;
        self.backed_up[slot] = true;
        Some((RegNum(first), count))
    }

    /// Clears the backed-up mark when a CTA is re-activated and its
    /// registers restored.
    pub fn mark_restored(&mut self, cta: CtaId) -> Option<(RegNum, u32)> {
        let slot = cta.0 as usize;
        let (first, count) = self.alloc[slot]?;
        self.backed_up[slot] = false;
        Some((RegNum(first), count))
    }

    /// Is this CTA currently backed up?
    pub fn is_backed_up(&self, cta: CtaId) -> bool {
        self.backed_up[cta.0 as usize]
    }

    /// Allocation of a CTA, if any: (first register, count).
    pub fn cta_range(&self, cta: CtaId) -> Option<(RegNum, u32)> {
        self.alloc[cta.0 as usize].map(|(f, c)| (RegNum(f), c))
    }

    /// Does `reg` hold live state: does it lie in the range of a resident
    /// CTA that is not backed up? Idle registers (SUR, and DUR once a
    /// backup completed) are not live.
    pub fn is_live(&self, reg: RegNum) -> bool {
        self.alloc.iter().zip(&self.backed_up).any(|(a, &bu)| match *a {
            Some((f, c)) => !bu && (f..f + c).contains(&reg.0),
            None => false,
        })
    }

    /// Largest register number allocated to any *non-backed-up* CTA — the
    /// paper's LRN. Victim-cache partitions may only use registers above it.
    pub fn largest_active_rn(&self) -> Option<RegNum> {
        self.alloc
            .iter()
            .zip(&self.backed_up)
            .filter_map(|(a, bu)| match (a, bu) {
                (Some((f, c)), false) => Some(RegNum(f + c - 1)),
                _ => None,
            })
            .max()
    }

    /// Current occupancy snapshot.
    pub fn space(&self) -> RfSpace {
        let mut active = 0;
        let mut dynamic = 0;
        for (a, bu) in self.alloc.iter().zip(&self.backed_up) {
            if let Some((_, c)) = a {
                if *bu {
                    dynamic += c;
                } else {
                    active += c;
                }
            }
        }
        RfSpace {
            total: self.total_regs,
            active_used: active,
            dynamic_unused: dynamic,
            static_unused: self.total_regs - active - dynamic,
        }
    }

    /// Reads or writes `reg` during `cycle`, returning the extra delay in
    /// cycles caused by a bank conflict (0 when the bank was free).
    pub fn access(&mut self, reg: RegNum, cycle: Cycle, write: bool) -> u32 {
        if self.bank_cycle != cycle {
            self.bank_use.iter_mut().for_each(|u| *u = 0);
            self.bank_cycle = cycle;
        }
        // Banks are a power of two in every real configuration; the mask
        // avoids a hardware divide on a path hit three times per issued
        // instruction (identical result either way).
        let bank = if self.banks.is_power_of_two() {
            (reg.0 & (self.banks - 1)) as usize
        } else {
            (reg.0 % self.banks) as usize
        };
        let prior = self.bank_use[bank];
        self.bank_use[bank] = prior.saturating_add(1);
        if write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        if prior > 0 {
            self.conflicts += 1;
            prior as u32
        } else {
            0
        }
    }

    /// The operand traffic of one issued instruction: two reads and one
    /// write on the warp's registers, rotated by the instruction's body
    /// position so consecutive instructions stress different banks.
    /// `base` is the warp's first register (precomputed at CTA launch),
    /// `span` its register count (>= 1). Returns the summed bank-conflict
    /// delay.
    ///
    /// One divide seeds the rotation; the two follow-up operands wrap by
    /// subtraction (`r + 1 < 2 * span` always), replacing three hardware
    /// divides per instruction with one — and keeping the exact access
    /// sequence the SM's issue stage used to produce inline.
    pub fn access_operands(&mut self, base: u32, span: u32, rot3: u32, cycle: Cycle) -> u32 {
        let mut extra = 0u32;
        debug_assert!(rot3 < span, "caller passes a pre-reduced rotation");
        let mut r = rot3;
        for write in [false, false, true] {
            extra += self.access(RegNum(base + r), cycle, write);
            r += 1;
            if r >= span {
                r -= span;
            }
        }
        extra
    }

    /// Lifetime (reads, writes, bank conflicts).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.reads, self.writes, self.conflicts)
    }

    /// Heap bytes this register file holds: its per-bank and per-CTA-slot
    /// tables, none of which grows with the register count.
    pub fn heap_bytes(&self) -> usize {
        self.bank_use.capacity()
            + self.alloc.capacity() * std::mem::size_of::<Option<(u32, u32)>>()
            + self.backed_up.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rf() -> RegFile {
        RegFile::new(2048, 32, 32)
    }

    #[test]
    fn allocation_is_contiguous_and_disjoint() {
        let mut r = rf();
        let a = r.allocate_cta(CtaId(0), 100).unwrap();
        let b = r.allocate_cta(CtaId(1), 100).unwrap();
        assert_eq!(a, RegNum(0));
        assert_eq!(b, RegNum(100));
    }

    #[test]
    fn free_then_reuse_gap() {
        let mut r = rf();
        r.allocate_cta(CtaId(0), 100);
        r.allocate_cta(CtaId(1), 100);
        r.free_cta(CtaId(0));
        // First-fit places a smaller CTA in the freed gap.
        assert_eq!(r.allocate_cta(CtaId(2), 50), Some(RegNum(0)));
    }

    #[test]
    fn allocation_fails_when_full() {
        let mut r = rf();
        assert!(r.allocate_cta(CtaId(0), 2048).is_some());
        assert!(r.allocate_cta(CtaId(1), 1).is_none());
    }

    #[test]
    fn double_allocation_same_slot_fails() {
        let mut r = rf();
        assert!(r.allocate_cta(CtaId(0), 10).is_some());
        assert!(r.allocate_cta(CtaId(0), 10).is_none());
    }

    #[test]
    fn space_accounting() {
        let mut r = rf();
        r.allocate_cta(CtaId(0), 200);
        r.allocate_cta(CtaId(1), 200);
        let s = r.space();
        assert_eq!(s.active_used, 400);
        assert_eq!(s.static_unused, 1648);
        assert_eq!(s.dynamic_unused, 0);

        r.mark_backed_up(CtaId(1));
        let s = r.space();
        assert_eq!(s.active_used, 200);
        assert_eq!(s.dynamic_unused, 200);
        assert_eq!(s.idle(), 1848);
    }

    #[test]
    fn lrn_ignores_backed_up_ctas() {
        let mut r = rf();
        r.allocate_cta(CtaId(0), 100);
        r.allocate_cta(CtaId(1), 100);
        assert_eq!(r.largest_active_rn(), Some(RegNum(199)));
        r.mark_backed_up(CtaId(1));
        assert_eq!(r.largest_active_rn(), Some(RegNum(99)));
        r.mark_restored(CtaId(1));
        assert_eq!(r.largest_active_rn(), Some(RegNum(199)));
    }

    #[test]
    fn bank_conflicts_counted_within_cycle() {
        let mut r = rf();
        assert_eq!(r.access(RegNum(0), 10, false), 0);
        // Same bank (reg 32 maps to bank 0) in the same cycle: conflict.
        assert_eq!(r.access(RegNum(32), 10, false), 1);
        // Different bank: free.
        assert_eq!(r.access(RegNum(1), 10, false), 0);
        // New cycle clears bank usage.
        assert_eq!(r.access(RegNum(64), 11, false), 0);
        assert_eq!(r.stats().2, 1);
    }

    #[test]
    fn conflict_delay_grows_with_contention() {
        let mut r = rf();
        assert_eq!(r.access(RegNum(0), 5, true), 0);
        assert_eq!(r.access(RegNum(32), 5, true), 1);
        assert_eq!(r.access(RegNum(64), 5, true), 2);
    }

    /// `access_operands` must reproduce the inline rotation it replaced:
    /// same registers, same read/write split, same conflict delays. The
    /// `(pos * 3) % span` reduction itself now happens once per kernel in
    /// `Sm::try_launch_cta`, so the bench seeds it the same way here.
    #[test]
    fn access_operands_matches_inline_rotation() {
        let (base, span) = (100u32, 24u32);
        for rot in [0u32, 1, 7, 23, 24, 1000] {
            let mut a = rf();
            let mut b = rf();
            let batched = a.access_operands(base, span, rot.wrapping_mul(3) % span, 42);
            let mut inline_extra = 0u32;
            let mut r = rot.wrapping_mul(3) % span;
            for write in [false, false, true] {
                inline_extra += b.access(RegNum(base + r), 42, write);
                r += 1;
                if r >= span {
                    r -= span;
                }
            }
            assert_eq!(batched, inline_extra, "rot={rot}");
            assert_eq!(a.stats(), b.stats(), "rot={rot}");
        }
    }

    #[test]
    fn liveness_follows_resident_unbacked_ranges() {
        let mut r = rf();
        r.allocate_cta(CtaId(0), 100);
        r.allocate_cta(CtaId(1), 100);
        assert!(r.is_live(RegNum(0)) && r.is_live(RegNum(199)));
        assert!(!r.is_live(RegNum(200)), "SUR is idle");
        r.mark_backed_up(CtaId(1));
        assert!(!r.is_live(RegNum(100)) && !r.is_live(RegNum(199)), "DUR is idle");
        assert!(r.is_live(RegNum(99)));
        r.mark_restored(CtaId(1));
        assert!(r.is_live(RegNum(150)));
        r.free_cta(CtaId(0));
        assert!(!r.is_live(RegNum(0)));
    }

    #[test]
    fn heap_bytes_do_not_grow_with_the_register_count() {
        let small = RegFile::new(2048, 32, 32);
        let large = RegFile::new(65_536, 32, 32);
        assert_eq!(small.heap_bytes(), large.heap_bytes());
        assert!(small.heap_bytes() > 0);
    }
}

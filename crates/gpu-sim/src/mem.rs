//! Memory requests exchanged between SMs and the shared memory system
//! (L2 + DRAM).
//!
//! A [`MemReq`] is 16 bytes: the 8-byte line address plus four narrow
//! fields in the other 8,
//!
//! | field | width | holds |
//! |---|---|---|
//! | SM | 16 bits | issuing SM |
//! | warp | 8 bits | warp slot of a demand read |
//! | class | 8 bits | request class |
//! | generation | 16 bits | warp-slot residency generation of a demand read |
//! | argument | 16 bits | static load of a demand read, CTA slot of register traffic |
//!
//! so a queued request costs 24 bytes with its cycle stamp (interconnect
//! entries, held outbox batches). Every narrow field is bounded where its
//! value enters the simulator, never truncated here:
//! [`GpuConfig::validate`](crate::config::GpuConfig::validate) caps the SM
//! count at [`MAX_SMS`], the warp slots per SM at [`MAX_WARP_SLOTS`] and the
//! CTA slots per SM at [`MAX_CTA_SLOTS`];
//! [`KernelSpec::validate`](crate::kernel::KernelSpec::validate), which
//! every kernel build, `LBW1` decode and trace import passes through, caps
//! the static loads at [`MAX_LOADS`]. The generation is 16 bits in the warp
//! slab already.

use crate::types::{CtaId, LineAddr, LoadId, SmId};

/// SMs a request can name: its SM field is 16 bits.
pub const MAX_SMS: u32 = 1 << 16;
/// Warp slots per SM a request can name: its warp field is 8 bits.
pub const MAX_WARP_SLOTS: u32 = 1 << 8;
/// CTA slots per SM a request can name: its argument field is 16 bits.
pub const MAX_CTA_SLOTS: u32 = 1 << 16;
/// Static loads per kernel a request can name: its argument field is 16
/// bits.
pub const MAX_LOADS: u32 = 1 << 16;

/// What a request is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemReqKind {
    /// Demand read that missed L1 (fills L1 on return).
    Read,
    /// Demand read bypassing L1 (no fill on return).
    BypassRead,
    /// Write-through store (fire-and-forget).
    Store,
    /// Register backup write for a throttled CTA (fire-and-forget, but
    /// completion is tracked to set the CTA's "backup complete" bit).
    RegBackup {
        /// CTA being backed up.
        cta: CtaId,
    },
    /// Register restore read for a re-activated CTA.
    RegRestore {
        /// CTA being restored.
        cta: CtaId,
    },
}

/// The request class as stored: [`MemReqKind`] without its CTA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    BypassRead,
    Store,
    RegBackup,
    RegRestore,
}

/// A request leaving an SM for the shared memory system. Built by one
/// constructor per class and read through accessors; see the module docs
/// for its layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    line: LineAddr,
    sm: u16,
    /// Warp slot of a demand read; 0 for every other class.
    warp: u8,
    class: Class,
    /// Residency generation of `warp` at issue: the stale-response filter
    /// of a bypassing read. 0 for every other class.
    gen: u16,
    /// Static load of a demand read, CTA slot of register traffic, 0 for a
    /// store.
    arg: u16,
}

impl MemReq {
    fn new(sm: SmId, line: LineAddr, class: Class, warp: u32, gen: u32, arg: u32) -> Self {
        debug_assert!(sm.0 < MAX_SMS, "SM {} exceeds the request's SM field", sm.0);
        debug_assert!(warp < MAX_WARP_SLOTS, "warp slot {warp} exceeds the request's warp field");
        debug_assert!(gen <= u32::from(u16::MAX), "generation {gen} is wider than 16 bits");
        debug_assert!(arg <= u32::from(u16::MAX), "load or CTA slot {arg} exceeds 16 bits");
        MemReq { line, sm: sm.0 as u16, warp: warp as u8, class, gen: gen as u16, arg: arg as u16 }
    }

    /// A demand read of `line` that missed L1, by `warp` (residency
    /// generation `gen`) for static load `load`.
    #[inline]
    pub fn read(sm: SmId, warp: u32, gen: u32, load: LoadId, line: LineAddr) -> Self {
        Self::new(sm, line, Class::Read, warp, gen, load.0)
    }

    /// A demand read of `line` bypassing L1; its response completes
    /// `load` of `warp` if the slot still holds generation `gen`.
    #[inline]
    pub fn bypass_read(sm: SmId, warp: u32, gen: u32, load: LoadId, line: LineAddr) -> Self {
        Self::new(sm, line, Class::BypassRead, warp, gen, load.0)
    }

    /// A write-through store of `line`.
    #[inline]
    pub fn store(sm: SmId, line: LineAddr) -> Self {
        Self::new(sm, line, Class::Store, 0, 0, 0)
    }

    /// One line of `cta`'s register backup.
    #[inline]
    pub fn reg_backup(sm: SmId, cta: CtaId, line: LineAddr) -> Self {
        Self::new(sm, line, Class::RegBackup, 0, 0, cta.0)
    }

    /// One line of `cta`'s register restore.
    #[inline]
    pub fn reg_restore(sm: SmId, cta: CtaId, line: LineAddr) -> Self {
        Self::new(sm, line, Class::RegRestore, 0, 0, cta.0)
    }

    /// Requested line.
    #[inline]
    pub fn line(&self) -> LineAddr {
        self.line
    }

    /// Issuing SM.
    #[inline]
    pub fn sm(&self) -> SmId {
        SmId(u32::from(self.sm))
    }

    /// Issuing warp slot (0 for traffic that completes no warp).
    #[inline]
    pub fn warp(&self) -> u32 {
        u32::from(self.warp)
    }

    /// Residency generation of [`MemReq::warp`] at issue (0 for traffic
    /// that completes no warp).
    #[inline]
    pub fn gen(&self) -> u32 {
        u32::from(self.gen)
    }

    /// Static load of a demand read (`LoadId(0)` for other classes).
    #[inline]
    pub fn load(&self) -> LoadId {
        match self.class {
            Class::Read | Class::BypassRead => LoadId(u32::from(self.arg)),
            _ => LoadId(0),
        }
    }

    /// Request class.
    #[inline]
    pub fn kind(&self) -> MemReqKind {
        let cta = CtaId(u32::from(self.arg));
        match self.class {
            Class::Read => MemReqKind::Read,
            Class::BypassRead => MemReqKind::BypassRead,
            Class::Store => MemReqKind::Store,
            Class::RegBackup => MemReqKind::RegBackup { cta },
            Class::RegRestore => MemReqKind::RegRestore { cta },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Cycle;

    #[test]
    fn kinds_are_distinguishable() {
        assert_ne!(MemReqKind::Read, MemReqKind::BypassRead);
        assert_ne!(MemReqKind::Store, MemReqKind::RegBackup { cta: CtaId(0) });
        assert_eq!(
            MemReqKind::RegRestore { cta: CtaId(3) },
            MemReqKind::RegRestore { cta: CtaId(3) }
        );
    }

    #[test]
    fn requests_pack_into_16_bytes() {
        assert_eq!(std::mem::size_of::<MemReq>(), 16);
        assert_eq!(std::mem::size_of::<(Cycle, MemReq)>(), 24);
    }

    #[test]
    fn constructors_round_trip_their_fields_at_the_bounds() {
        let line = LineAddr(u64::MAX);
        let sm = SmId(MAX_SMS - 1);
        let (warp, gen, load) = (MAX_WARP_SLOTS - 1, 0xffff, LoadId(MAX_LOADS - 1));
        for (r, kind) in [
            (MemReq::read(sm, warp, gen, load, line), MemReqKind::Read),
            (MemReq::bypass_read(sm, warp, gen, load, line), MemReqKind::BypassRead),
        ] {
            assert_eq!(
                (r.sm(), r.warp(), r.gen(), r.load(), r.line()),
                (sm, warp, gen, load, line)
            );
            assert_eq!(r.kind(), kind);
        }
        let cta = CtaId(MAX_CTA_SLOTS - 1);
        let backup = MemReq::reg_backup(sm, cta, line);
        assert_eq!(backup.kind(), MemReqKind::RegBackup { cta });
        let restore = MemReq::reg_restore(sm, cta, line);
        assert_eq!(restore.kind(), MemReqKind::RegRestore { cta });
        for r in [backup, restore, MemReq::store(sm, line)] {
            assert_eq!((r.sm(), r.warp(), r.gen(), r.load()), (sm, 0, 0, LoadId(0)));
        }
        assert_eq!(MemReq::store(sm, line).kind(), MemReqKind::Store);
    }
}

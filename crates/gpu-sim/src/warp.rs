//! Per-warp execution state: a struct-of-arrays slab + the in-order scoreboard.
//!
//! Warp state used to be a per-warp struct (with two heap-allocated `Vec`s)
//! stored as `Vec<Option<WarpState>>`; the scheduler's hot scans then strode
//! over ~190-byte objects to read one field each. [`WarpSlab`] stores each
//! field as a dense column indexed by warp slot instead, so
//! `Sm::issue`/`Sm::tick` touch cache-resident rows, and CTA launch/reap
//! recycles slots by zeroing column ranges without allocating.

use crate::kernel::{InstKind, KernelSpec};
use crate::replay::{next_pos, RecordCursor, Run};
use crate::types::{CtaId, Cycle, LoadId};

/// `meta` bit: slot holds a live (occupied, not retired) warp.
pub const META_LIVE: u32 = 1 << 0;
/// `meta` bit: the warp's CTA is schedulable (status `Active`).
pub const META_CTA_OK: u32 = 1 << 1;
/// `meta` bit: the warp's current instruction is a load.
pub const META_LOAD: u32 = 1 << 2;
/// `meta` bit: the warp's current instruction is a store.
pub const META_STORE: u32 = 1 << 3;
/// `meta` bit: the current instruction waits on an outstanding load (the
/// load's id sits in the high half of the word).
pub const META_DEP: u32 = 1 << 4;
/// Mask selecting both "can issue at all" conditions.
pub const META_READY: u32 = META_LIVE | META_CTA_OK;

/// Struct-of-arrays slab holding every warp slot of one SM.
///
/// A slot is *occupied* from CTA launch until reap; freed slots are reused
/// by later CTAs (the launch path re-zeroes every column). The per-load
/// columns (`outstanding`, `access_index`) are flattened as
/// `slot * n_loads + load` and sized lazily at the first CTA launch — the
/// kernel, and hence the static-load count, is unknown when the SM is built.
#[derive(Debug)]
pub struct WarpSlab {
    /// Static loads per warp (stride of the flattened per-load columns).
    n_loads: usize,
    /// Slot holds a live warp (was `Option::is_some`).
    occupied: Vec<bool>,
    /// CTA slot this warp belongs to.
    cta: Vec<CtaId>,
    /// Globally unique warp number (drives private address patterns).
    global_warp: Vec<u64>,
    /// Launch order for GTO "oldest" tie-breaking.
    age: Vec<u64>,
    /// Index of the next instruction in the kernel body, for synthetic and
    /// replayed warps alike.
    body_pos: Vec<u32>,
    /// Completed loop iterations.
    iter: Vec<u32>,
    /// Finished all iterations.
    done: Vec<bool>,
    /// The warp cannot issue before this cycle (ALU latency, replay).
    next_ready: Vec<Cycle>,
    /// Total outstanding line-requests.
    total_outstanding: Vec<u32>,
    /// Precomputed first operand register (CTA base + intra-CTA offset).
    op_base: Vec<u32>,
    /// Packed issue metadata, maintained at every state transition (launch,
    /// advance, retire, free, CTA status change): `META_*` flag bits in the
    /// low half, the `wait_for` load id in the high half. The scheduler's
    /// per-candidate classify reads this one word instead of re-deriving
    /// liveness, CTA state and the current instruction's shape from five
    /// columns plus the kernel body.
    meta: Vec<u32>,
    /// Residency generation, bumped on `free` (16-bit wrapping). In-flight
    /// memory work captures it at issue; delivery drops completions whose
    /// generation no longer matches, so a slot recycled while a dangling
    /// load (one no instruction waits on) is still in flight cannot have
    /// the stale response credited to its new resident.
    gen: Vec<u32>,
    /// Replay stream id of the warp (`cta_ordinal * warps_per_cta +
    /// lane`). Written at every replay launch; read only by replay
    /// execution — dead in synthetic runs.
    stream: Vec<u32>,
    /// Capture: index of the warp's recorder in its SM's recorder list.
    /// A column of its own, since a replay re-captured holds its replay
    /// stream id in `stream`.
    recorder: Vec<u32>,
    /// Replayed warp: index of its current run in its stream.
    run: Vec<u32>,
    /// Replayed warp: ops of the current run after the current one.
    run_left: Vec<u32>,
    /// Replayed warp: its place in the kernel's record bytes (the next
    /// record and the stream's next fresh pool line).
    cursor: Vec<RecordCursor>,
    /// Outstanding line-requests per static load (scoreboard), flattened.
    outstanding: Vec<u32>,
    /// Per-load dynamic access counter (pattern phase), flattened.
    access_index: Vec<u64>,
}

impl WarpSlab {
    /// Creates an empty slab with `n_slots` warp slots.
    pub fn new(n_slots: usize) -> Self {
        WarpSlab {
            n_loads: 0,
            occupied: vec![false; n_slots],
            cta: vec![CtaId(0); n_slots],
            global_warp: vec![0; n_slots],
            age: vec![0; n_slots],
            body_pos: vec![0; n_slots],
            iter: vec![0; n_slots],
            done: vec![false; n_slots],
            next_ready: vec![0; n_slots],
            total_outstanding: vec![0; n_slots],
            op_base: vec![0; n_slots],
            meta: vec![0; n_slots],
            gen: vec![0; n_slots],
            stream: vec![0; n_slots],
            recorder: vec![0; n_slots],
            run: vec![0; n_slots],
            run_left: vec![0; n_slots],
            cursor: vec![RecordCursor::default(); n_slots],
            outstanding: Vec::new(),
            access_index: Vec::new(),
        }
    }

    /// Number of warp slots.
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        !self.occupied.iter().any(|&o| o)
    }

    /// Sizes the flattened per-load columns for a kernel with `n_loads`
    /// static loads. Called before the first launch; a live slab (one SM
    /// runs one kernel) is never resized.
    pub fn ensure_loads(&mut self, n_loads: usize) {
        if self.n_loads == n_loads && !self.outstanding.is_empty() {
            return;
        }
        debug_assert!(self.is_empty(), "cannot resize the per-load columns of a live slab");
        self.n_loads = n_loads;
        let cells = self.occupied.len() * n_loads.max(1);
        self.outstanding = vec![0; cells];
        self.access_index = vec![0; cells];
    }

    /// Packed `META_*` bits describing the instruction at `pos`.
    fn inst_meta(kernel: &KernelSpec, pos: u32) -> u32 {
        let inst = &kernel.body[pos as usize];
        let mut m = match inst.kind {
            InstKind::Load { .. } => META_LOAD,
            InstKind::Store { .. } => META_STORE,
            InstKind::Alu { .. } => 0,
        };
        if let Some(dep) = inst.wait_for {
            debug_assert!(dep.0 < 1 << 16, "load id must fit the meta high half");
            m |= META_DEP | (dep.0 << 16);
        }
        m
    }

    /// Moves the warp in `slot` to body position `pos` and refreshes its
    /// instruction meta bits.
    #[inline]
    fn set_pos(&mut self, slot: usize, kernel: &KernelSpec, pos: u32) {
        self.body_pos[slot] = pos;
        self.meta[slot] = (self.meta[slot] & META_READY) | Self::inst_meta(kernel, pos);
    }

    /// Retires the warp in `slot`.
    #[inline]
    fn retire(&mut self, slot: usize) {
        self.done[slot] = true;
        self.meta[slot] &= !META_LIVE;
    }

    /// Launches a warp into `slot`, resetting every column of the row. A
    /// freshly-launched CTA is `Active`, so the slot starts CTA-schedulable.
    pub fn launch(
        &mut self,
        slot: usize,
        cta: CtaId,
        global_warp: u64,
        age: u64,
        op_base: u32,
        kernel: &KernelSpec,
    ) {
        debug_assert!(!self.occupied[slot], "launch into an occupied slot");
        self.occupied[slot] = true;
        self.cta[slot] = cta;
        self.global_warp[slot] = global_warp;
        self.age[slot] = age;
        self.body_pos[slot] = 0;
        self.iter[slot] = 0;
        self.done[slot] = false;
        self.next_ready[slot] = 0;
        self.total_outstanding[slot] = 0;
        self.op_base[slot] = op_base;
        self.run[slot] = 0;
        self.run_left[slot] = 0;
        self.cursor[slot] = RecordCursor::default();
        self.meta[slot] = META_READY | Self::inst_meta(kernel, 0);
        let lo = slot * self.n_loads;
        self.outstanding[lo..lo + self.n_loads].fill(0);
        self.access_index[lo..lo + self.n_loads].fill(0);
    }

    /// Replay stream id of the warp in `slot`.
    #[inline]
    pub fn stream(&self, slot: usize) -> u32 {
        self.stream[slot]
    }

    /// Capture recorder index of the warp in `slot`.
    #[inline]
    pub fn recorder(&self, slot: usize) -> u32 {
        self.recorder[slot]
    }

    /// Assigns the capture recorder index of the warp in `slot` (set at
    /// launch when the SM captures).
    #[inline]
    pub fn set_recorder(&mut self, slot: usize, index: u32) {
        self.recorder[slot] = index;
    }

    /// Starts the warp just launched into `slot` on its replay stream `id`,
    /// at the first op of `first`, the stream's first run, and at `records`,
    /// the stream's first record.
    pub fn start_replay(
        &mut self,
        slot: usize,
        kernel: &KernelSpec,
        id: u32,
        first: Run,
        records: RecordCursor,
    ) {
        self.stream[slot] = id;
        self.run_left[slot] = first.count - 1;
        self.cursor[slot] = records;
        self.set_pos(slot, kernel, first.start);
    }

    /// The record cursor of the replayed warp in `slot`, which
    /// [`ReplayKernel::read_record`](crate::replay::ReplayKernel::read_record)
    /// moves past each record it reads.
    #[inline]
    pub fn cursor_mut(&mut self, slot: usize) -> &mut RecordCursor {
        &mut self.cursor[slot]
    }

    /// The record cursor of the replayed warp in `slot`.
    #[inline]
    pub fn cursor(&self, slot: usize) -> RecordCursor {
        self.cursor[slot]
    }

    /// Frees `slot` at CTA reap; the row is re-zeroed by the next launch.
    /// Bumping the generation here invalidates every in-flight completion
    /// still addressed to the old resident.
    ///
    /// The generation is 16 bits because it shares a `u32` completion tag
    /// with the slot index (`Sm::complete`). A stale completion could only
    /// alias if the slot were reused exactly 65 536 times while one
    /// response stayed in flight; memory latencies are bounded by a few
    /// thousand cycles and a reuse implies a full CTA lifetime, so the
    /// wrap is unreachable in practice — but it is an assumption of the
    /// tag scheme, not an enforced invariant.
    pub fn free(&mut self, slot: usize) {
        self.occupied[slot] = false;
        self.meta[slot] = 0;
        self.gen[slot] = (self.gen[slot] + 1) & 0xffff;
    }

    /// Residency generation of `slot` (see the `gen` column).
    #[inline]
    pub fn generation(&self, slot: usize) -> u32 {
        self.gen[slot]
    }

    /// Does `slot` hold a live warp?
    #[inline]
    pub fn is_occupied(&self, slot: usize) -> bool {
        self.occupied[slot]
    }

    /// CTA of the warp in `slot`.
    #[inline]
    pub fn cta(&self, slot: usize) -> CtaId {
        self.cta[slot]
    }

    /// Global warp number of the warp in `slot`.
    #[inline]
    pub fn global_warp(&self, slot: usize) -> u64 {
        self.global_warp[slot]
    }

    /// GTO age of the warp in `slot`.
    #[inline]
    pub fn age(&self, slot: usize) -> u64 {
        self.age[slot]
    }

    /// Has the warp in `slot` retired?
    #[inline]
    pub fn done(&self, slot: usize) -> bool {
        self.done[slot]
    }

    /// Earliest cycle the warp in `slot` may issue.
    #[inline]
    pub fn next_ready(&self, slot: usize) -> Cycle {
        self.next_ready[slot]
    }

    /// Blocks the warp in `slot` from issuing before `cycle`.
    #[inline]
    pub fn set_next_ready(&mut self, slot: usize, cycle: Cycle) {
        self.next_ready[slot] = cycle;
    }

    /// Body position of the warp in `slot`.
    #[inline]
    pub fn body_pos(&self, slot: usize) -> u32 {
        self.body_pos[slot]
    }

    /// Total outstanding line-requests of the warp in `slot`.
    #[inline]
    pub fn total_outstanding(&self, slot: usize) -> u32 {
        self.total_outstanding[slot]
    }

    /// Precomputed first operand register of the warp in `slot`.
    #[inline]
    pub fn op_base(&self, slot: usize) -> u32 {
        self.op_base[slot]
    }

    /// Outstanding line-requests of `load` for the warp in `slot`.
    #[inline]
    pub fn outstanding(&self, slot: usize, load: LoadId) -> u32 {
        self.outstanding[slot * self.n_loads + load.0 as usize]
    }

    /// Can the warp in `slot` issue its next instruction at `cycle`?
    /// (Scheduling eligibility; CTA active state is checked by the caller.)
    pub fn can_issue(
        &self,
        slot: usize,
        kernel: &KernelSpec,
        cycle: Cycle,
        max_outstanding: u32,
    ) -> bool {
        if self.done[slot] || self.next_ready[slot] > cycle {
            return false;
        }
        let inst = &kernel.body[self.body_pos[slot] as usize];
        if let Some(dep) = inst.wait_for {
            if self.outstanding[slot * self.n_loads + dep.0 as usize] > 0 {
                return false;
            }
        }
        if matches!(inst.kind, crate::kernel::InstKind::Load { .. })
            && self.total_outstanding[slot] >= max_outstanding
        {
            return false;
        }
        true
    }

    /// Advances the warp in `slot` past its current instruction, wrapping
    /// the loop body and retiring the warp after the final iteration.
    pub fn advance(&mut self, slot: usize, kernel: &KernelSpec) {
        let pos = next_pos(self.body_pos[slot], kernel.body.len() as u32);
        if pos == 0 {
            self.iter[slot] += 1;
            if self.iter[slot] >= kernel.iterations {
                return self.retire(slot);
            }
        }
        self.set_pos(slot, kernel, pos);
    }

    /// Advances the replayed warp in `slot` past its current op along its
    /// stream's `runs`: within a run the body position steps and wraps as
    /// in [`WarpSlab::advance`]; past a run's last op it moves to the next
    /// run's start, and past the last run the warp retires. The stub
    /// kernel's `iterations` is ignored — a stream's length *is* its trip
    /// count.
    pub fn advance_replay(&mut self, slot: usize, kernel: &KernelSpec, runs: &[Run]) {
        let pos = if self.run_left[slot] > 0 {
            self.run_left[slot] -= 1;
            next_pos(self.body_pos[slot], kernel.body.len() as u32)
        } else {
            self.run[slot] += 1;
            let Some(next) = runs.get(self.run[slot] as usize) else {
                return self.retire(slot);
            };
            self.run_left[slot] = next.count - 1;
            next.start
        };
        self.set_pos(slot, kernel, pos);
    }

    /// Packed issue metadata of the warp in `slot` (`META_*` flags plus the
    /// dependency load id in the high half).
    #[inline]
    pub fn meta(&self, slot: usize) -> u32 {
        self.meta[slot]
    }

    /// Propagates the owning CTA's schedulability into `slot`'s metadata
    /// (called by the SM whenever a CTA's status flips to or from `Active`).
    pub fn set_cta_ok(&mut self, slot: usize, ok: bool) {
        if ok {
            self.meta[slot] |= META_CTA_OK;
        } else {
            self.meta[slot] &= !META_CTA_OK;
        }
    }

    /// Registers `n` new outstanding line-requests of `load` for the warp in
    /// `slot`.
    pub fn add_outstanding(&mut self, slot: usize, load: LoadId, n: u32) {
        self.outstanding[slot * self.n_loads + load.0 as usize] += n;
        self.total_outstanding[slot] += n;
    }

    /// Completes one outstanding line-request of `load` for the warp in
    /// `slot`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if no request of that load is outstanding.
    pub fn complete_one(&mut self, slot: usize, load: LoadId) {
        let cell = slot * self.n_loads + load.0 as usize;
        debug_assert!(self.outstanding[cell] > 0);
        self.outstanding[cell] -= 1;
        self.total_outstanding[slot] -= 1;
    }

    /// Takes the next access index of `load` for the warp in `slot`
    /// (post-incrementing).
    pub fn next_access_index(&mut self, slot: usize, load: LoadId) -> u64 {
        let cell = slot * self.n_loads + load.0 as usize;
        let i = self.access_index[cell];
        self.access_index[cell] += 1;
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use crate::kernel::KernelSpec;
    use crate::pattern::AccessPattern;

    fn kernel() -> KernelSpec {
        KernelBuilder::new("k")
            .grid(1, 1)
            .load_then_use(AccessPattern::streaming(128), 0)
            .alu(2)
            .iterations(2)
            .build()
            .unwrap()
    }

    fn slab(k: &KernelSpec) -> WarpSlab {
        let mut s = WarpSlab::new(4);
        s.ensure_loads(k.loads.len());
        s.launch(0, CtaId(0), 0, 0, 0, k);
        s
    }

    #[test]
    fn advance_wraps_and_retires() {
        let k = kernel();
        let mut w = slab(&k);
        let body = k.body.len() as u32;
        for _ in 0..body {
            w.advance(0, &k);
        }
        assert_eq!(w.iter[0], 1);
        assert!(!w.done(0));
        for _ in 0..body {
            w.advance(0, &k);
        }
        assert!(w.done(0));
    }

    #[test]
    fn scoreboard_blocks_consumer() {
        let k = kernel();
        let mut w = slab(&k);
        // Execute the load (inst 0) and leave it outstanding.
        w.add_outstanding(0, LoadId(0), 1);
        w.advance(0, &k);
        // Inst 1 is the consumer with wait_for = load 0.
        assert!(!w.can_issue(0, &k, 100, 8));
        w.complete_one(0, LoadId(0));
        assert!(w.can_issue(0, &k, 100, 8));
    }

    #[test]
    fn outstanding_cap_blocks_loads() {
        let k = kernel();
        let mut w = slab(&k);
        w.add_outstanding(0, LoadId(0), 6);
        // body_pos 0 is a load; cap of 6 reached.
        assert!(!w.can_issue(0, &k, 0, 6));
        assert!(w.can_issue(0, &k, 0, 7));
    }

    #[test]
    fn next_ready_gates_issue() {
        let k = kernel();
        let mut w = slab(&k);
        w.set_next_ready(0, 10);
        assert!(!w.can_issue(0, &k, 9, 8));
        assert!(w.can_issue(0, &k, 10, 8));
    }

    #[test]
    fn access_index_increments() {
        let k = KernelBuilder::new("k2")
            .grid(1, 1)
            .load(AccessPattern::streaming(128))
            .load(AccessPattern::streaming(128))
            .build()
            .unwrap();
        let mut w = WarpSlab::new(2);
        w.ensure_loads(2);
        w.launch(0, CtaId(0), 0, 0, 0, &k);
        assert_eq!(w.next_access_index(0, LoadId(0)), 0);
        assert_eq!(w.next_access_index(0, LoadId(0)), 1);
        assert_eq!(w.next_access_index(0, LoadId(1)), 0);
    }

    #[test]
    fn done_warp_cannot_issue() {
        let k = kernel();
        let mut w = slab(&k);
        w.done[0] = true;
        assert!(!w.can_issue(0, &k, 0, 8));
    }

    /// Slot reuse must behave like a freshly-constructed warp: launch,
    /// dirty every column, free, relaunch — the recycled row starts clean.
    #[test]
    fn slot_reuse_resets_all_columns() {
        let k = kernel();
        let mut w = slab(&k);
        w.add_outstanding(0, LoadId(0), 3);
        w.next_access_index(0, LoadId(0));
        w.advance(0, &k);
        w.set_next_ready(0, 500);
        w.free(0);
        assert!(!w.is_occupied(0));
        w.launch(0, CtaId(1), 77, 9, 24, &k);
        assert!(w.is_occupied(0));
        assert_eq!(w.cta(0), CtaId(1));
        assert_eq!(w.global_warp(0), 77);
        assert_eq!(w.age(0), 9);
        assert_eq!(w.op_base(0), 24);
        assert_eq!(w.body_pos(0), 0);
        assert_eq!(w.next_ready(0), 0);
        assert_eq!(w.total_outstanding(0), 0);
        assert_eq!(w.outstanding(0, LoadId(0)), 0);
        assert_eq!(w.next_access_index(0, LoadId(0)), 0);
    }

    /// A replayed warp's body position follows its runs: it steps and
    /// wraps within a run, jumps to the next run's start, and the warp
    /// retires past the last run whatever the kernel's `iterations`.
    #[test]
    fn advance_replay_walks_runs_and_retires() {
        let k = kernel(); // load, dep'd consumer, ALU; two iterations
        let mut w = slab(&k);
        let runs = [Run { start: 2, count: 3 }, Run { start: 1, count: 2 }];
        let records = RecordCursor { byte: 40, fresh: 9 };
        w.start_replay(0, &k, 7, runs[0], records);
        assert_eq!(w.stream(0), 7);
        let mut walk = vec![w.body_pos(0)];
        while !w.done(0) {
            w.advance_replay(0, &k, &runs);
            walk.push(w.body_pos(0));
        }
        // The last entry is the position the warp retired at.
        assert_eq!(walk, [2, 0, 1, 1, 2, 2]);
        assert_eq!(w.meta(0) & META_LIVE, 0);
        assert_eq!(w.cursor(0), records);
        w.cursor_mut(0).byte += 3;
        assert_eq!(w.cursor(0).byte, 43);
        // The next tenant of the slot starts its cursor afresh.
        w.free(0);
        w.launch(0, CtaId(0), 1, 1, 0, &k);
        assert_eq!(w.cursor(0), RecordCursor::default());
        w.start_replay(0, &k, 8, Run { start: 0, count: 1 }, RecordCursor::default());
        assert_ne!(w.meta(0) & META_LOAD, 0);
        w.advance_replay(0, &k, &[Run { start: 0, count: 1 }]);
        assert!(w.done(0));
    }

    /// The packed metadata column must mirror the slow columns at every
    /// transition: launch, advance (load -> dep'd consumer -> retire), CTA
    /// status flips, free.
    #[test]
    fn meta_tracks_state_transitions() {
        let k = kernel();
        let mut w = slab(&k);
        // body[0] is the load.
        assert_eq!(w.meta(0) & META_READY, META_READY);
        assert_ne!(w.meta(0) & META_LOAD, 0);
        assert_eq!(w.meta(0) & (META_STORE | META_DEP), 0);
        w.advance(0, &k);
        // body[1] is the consumer: wait_for = load 0 in the high half.
        assert_ne!(w.meta(0) & META_DEP, 0);
        assert_eq!(w.meta(0) >> 16, 0);
        assert_eq!(w.meta(0) & (META_LOAD | META_STORE), 0);
        w.set_cta_ok(0, false);
        assert_eq!(w.meta(0) & META_READY, META_LIVE);
        w.set_cta_ok(0, true);
        assert_eq!(w.meta(0) & META_READY, META_READY);
        // Run out both iterations: the retired slot drops META_LIVE.
        let body = k.body.len() as u32;
        for _ in 0..(2 * body - 1) {
            w.advance(0, &k);
        }
        assert!(w.done(0));
        assert_eq!(w.meta(0) & META_LIVE, 0);
        w.free(0);
        assert_eq!(w.meta(0), 0);
    }
}

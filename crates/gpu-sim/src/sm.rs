//! One streaming multiprocessor: issue pipeline, load/store unit, L1, and
//! CTA lifecycle (including throttling-driven register backup/restore).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use crate::cache::{L1Cache, L1Lookup, MshrOutcome};
use crate::config::GpuConfig;
use crate::cta::{CtaState, CtaStatus};
use crate::kernel::{InstKind, KernelSpec};
use crate::mem::{MemReq, MemReqKind};
use crate::pattern::{AccessCtx, DecodeCtx, LineDesc};
use crate::phase_timer;
use crate::policy::{MissService, PolicyCtx, PreAccess, SmPolicy, WindowInfo};
use crate::regfile::RegFile;
use crate::replay::{ReplayKernel, TraceOp, WarpStream};
use crate::scheduler::{CandList, GtoScheduler};
use crate::stats::{RfSpaceSample, SimStats};
use crate::types::{
    hashed_pc5, CtaId, Cycle, LineAddr, LoadId, MissClass, Pc, RegNum, SmId, WarpId,
};
use crate::warp::{WarpSlab, META_DEP, META_LOAD, META_READY, META_STORE};
use lb_trace::{Event as TraceEvent, L1Outcome as TraceL1Outcome, Tracer};

/// A line request waiting for an L1 port.
#[derive(Debug, Clone, Copy)]
struct LsuReq {
    warp: u32,
    /// Warp-slot residency generation at issue; completions deliver only
    /// while it still matches (the slot may recycle underneath a queued
    /// request whose warp retired without waiting on it).
    gen: u32,
    load: LoadId,
    pc: Pc,
    /// The load's hashed PC (precomputed once per static load at kernel
    /// init instead of re-folded per queued line).
    hpc: u8,
    line: LineAddr,
}

/// Maximum LSU queue depth before load issue back-pressures.
const LSU_QUEUE_CAP: usize = 64;

/// Store-buffer entries per SM: outstanding store lines beyond this stall
/// further store instructions (write-through stores must not outrun DRAM
/// bandwidth unboundedly).
const STORE_BUFFER_CAP: u32 = 64;

/// Timer-wheel horizon in cycles. A warp blocked purely on a `next_ready`
/// within this many cycles parks in `wake_ring` (it leaves the candidate
/// lists and the exact slot re-lists it); the rare longer latency stays a
/// candidate and is re-examined instead.
const WAKE_RING: u64 = 256;

/// Completion-ring span in cycles (power of two). Must exceed every local
/// completion delay (`l1_hit_latency`, plus the victim-probe penalty on a
/// register-file hit); longer delays spill to `comp_overflow`.
const COMP_RING: usize = 64;

/// Issue eligibility of one warp this cycle, as seen by the lazy GTO walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpClass {
    /// Can issue right now.
    Eligible,
    /// Ready, but its load/store needs LSU queue space (drains without a
    /// warp event — stays a candidate, and the SM re-walks next cycle).
    GatedLsu,
    /// Ready store, but no store credit (returns via a store ack, which
    /// fires a wake — stays a candidate).
    GatedStore,
    /// Blocked only on a latency expiring at the carried cycle, within the
    /// timer-wheel horizon: park it there.
    TimeNear(Cycle),
    /// Latency expiring beyond the wheel horizon: stays a candidate and
    /// bounds the sleep horizon with the carried cycle.
    TimeFar(Cycle),
    /// Event-blocked (retired, CTA not schedulable, dependency or load
    /// cap): leaves the candidate list until an event re-lists it.
    Blocked,
}

/// One streaming multiprocessor.
pub struct Sm {
    /// This SM's id.
    pub id: SmId,
    /// The L1 data cache.
    pub l1: L1Cache,
    /// The register file.
    pub regfile: RegFile,
    /// Per-SM statistics (merged by the GPU at run end).
    pub stats: SimStats,
    /// The architecture policy driving this SM.
    pub policy: Box<dyn SmPolicy>,
    /// All warp state, as struct-of-arrays columns indexed by warp slot.
    warps: WarpSlab,
    /// Per-scheduler candidate lists — GTO's age-sorted fallback order —
    /// holding every warp that may be issueable. The issue walk takes the
    /// greedily-held warp if it is eligible, else the first eligible
    /// candidate; candidates proven event-blocked on the way (retired, CTA
    /// not schedulable, waiting on a dependency or the outstanding-load
    /// cap) are removed, and warps blocked only on a known `next_ready`
    /// park in the timer wheel. Every unblocking event re-inserts: a load
    /// completion re-arms its warp, a restore finishing re-arms its CTA's
    /// warps, and CTA launch / reap / limit changes / window ends
    /// conservatively rebuild all lists. Warps held back by LSU
    /// back-pressure or store credits stay listed — those gates clear
    /// without any warp event firing.
    cands: Vec<CandList>,
    /// Timer wheel for warps blocked only on a known `next_ready`: slot
    /// `(t % WAKE_RING) * words..` holds the bitmask of warp slots to
    /// re-list at cycle `t`. The issue walk fires the current slot before
    /// picking, and the sleep horizon of an empty walk is the nearest
    /// non-empty slot — the walk therefore visits every cycle with a
    /// parked timer (`issue_sleep_until` never exceeds the earliest one),
    /// so slots cannot be skipped over.
    wake_ring: Vec<u64>,
    /// Bits currently set across `wake_ring` (lets quiet paths skip it).
    ring_timers: u32,
    ctas: Vec<Option<CtaState>>,
    schedulers: Vec<GtoScheduler>,
    lsu_queue: VecDeque<LsuReq>,
    /// Locally-completing accesses, bucketed by finish cycle: ring slot
    /// `t & (COMP_RING - 1)` holds the `(tagged warp, load)` pairs finishing
    /// at cycle `t`, where the tagged warp packs the slot's residency
    /// generation in bits 31..16 and the warp slot in bits 15..0 (the same
    /// layout the MSHR waiter tokens carry in their upper word). Local latencies are small constants (an L1 hit, or a hit
    /// plus the victim-probe penalty), so every push lands within
    /// `COMP_RING` cycles of `comp_head` and the heap this replaces paid
    /// its ordering cost for nothing; `comp_overflow` catches configs with
    /// outsized latencies. Slot vectors keep their capacity across reuse.
    comp_ring: Vec<Vec<(u32, u32)>>,
    /// Occupancy bitmask over `comp_ring` (bit `s` set iff slot `s` holds
    /// entries); makes the earliest-completion lookup a rotate + ctz.
    comp_mask: u64,
    /// Earliest cycle not yet drained; after `drain_completions(cycle)`
    /// this is `cycle + 1`, which pins every ring entry into the window
    /// `[comp_head, comp_head + COMP_RING)` (pushes only happen later in
    /// the same tick, with bounded delays). Entries sharing a slot
    /// therefore always share the same finish cycle.
    comp_head: Cycle,
    /// Completions whose delay exceeds the ring span (none with the
    /// default config; correctness backstop, drained by cycle like the
    /// ring).
    comp_overflow: BinaryHeap<Reverse<(Cycle, u32, u32)>>,
    /// Outgoing requests for the shared memory system (drained by the GPU).
    pub outbox: Vec<MemReq>,
    /// Emission batches a local-clock span produced before returning: each
    /// entry is one tick's outbox stamped with its emission cycle, in
    /// non-decreasing stamp order. The GPU queues them for
    /// interconnect entry at exactly those cycles, letting the span run on
    /// through a miss drain instead of bouncing back to the global loop at
    /// every emitting cycle.
    pub emissions: Vec<(Cycle, Vec<MemReq>)>,
    /// Recycled emission-batch allocations (refilled by the GPU's flush).
    pub outbox_pool: Vec<Vec<MemReq>>,
    /// Current active-CTA limit imposed by the policy.
    cta_limit: Option<u32>,
    /// Monotone CTA launch counter (GTO age base; also makes global warp
    /// numbers unique).
    launch_seq: u64,
    warp_seq: u64,
    /// Backed-up register contents per CTA slot (verifies restore fidelity).
    backup_store: HashMap<u32, Vec<u64>>,
    /// Next backup line offset in this SM's dedicated backup address region.
    backup_cursor: u64,
    window_start_insts: u64,
    window_index: u32,
    /// Scratch buffer for pattern generation.
    line_buf: Vec<LineAddr>,
    /// Scratch buffer for MSHR waiter draining (fill completion).
    waiter_buf: Vec<u64>,
    /// Issue-scan sleep horizon: while `cycle < issue_sleep_until` and no
    /// wake event arrived, the ready sets are provably empty and `issue`
    /// returns without scanning the warps.
    issue_sleep_until: Cycle,
    /// Set by any event that can change warp eligibility (completion
    /// drain, memory response, CTA launch/reap/limit change, window end).
    issue_wake: bool,
    /// Bit `s`: scheduler `s`'s greedily-held warp classified `Blocked`
    /// (dependency, outstanding-load cap, or non-`Active` CTA) on a past
    /// scan and no wake event has fired since, so it is still blocked and
    /// the scan skips re-classifying it. Cleared wholesale when a scan
    /// consumes `issue_wake` (the same events that end the issue sleep are
    /// the only ones that can unblock a warp), and per scheduler when a
    /// new pick replaces the held warp.
    cur_blocked: u64,
    /// A warp retired or a CTA returned to `Active` since the last reap:
    /// only then can `is_complete() && Active` newly hold for some CTA, so
    /// `reap_completed_ctas` skips its slot scan otherwise.
    reap_pending: bool,
    /// Outstanding store lines in flight toward DRAM.
    stores_in_flight: u32,
    seed: u64,
    /// Decoded access-descriptor table: `warp slot * desc_stride + load`
    /// holds the interned [`LineDesc`] of that (warp, load) pair, or `None`
    /// until its first execution. A CTA launch clears the rows of the slots
    /// it occupies (slot reuse changes the global warp number, so stale
    /// descriptors must never survive a relaunch).
    desc_table: Vec<Option<LineDesc>>,
    /// Loads per warp slot in `desc_table`; 0 while the cache is disabled
    /// (`--no-desc-cache`, a load-free kernel, or the sizing cap).
    desc_stride: usize,
    /// Precomputed operand rotation per body position:
    /// `(pos * 3) % regs_per_warp`. The issue stage reads it once per
    /// instruction instead of paying a hardware divide (the divisor is a
    /// runtime kernel parameter, so the compiler cannot strength-reduce
    /// it).
    rot3: Vec<u32>,
    /// `schedulers_per_sm - 1` when the count is a power of two (the
    /// common configuration), else 0 with [`Sm::sched_of`] falling back to
    /// a real modulo. Warp-to-scheduler mapping runs on every wake event.
    sched_mask: Option<u32>,
    /// Descriptor-cache hits (replays) this run.
    desc_hits: u64,
    /// Descriptor-cache misses (decode + intern) this run.
    desc_misses: u64,
    /// Per-load hashed PC, precomputed at kernel init.
    load_hpc: Vec<u8>,
    /// Stepped SM-cycles whose LSU phase had queued work (per-phase cycle
    /// attribution for the profiler).
    lsu_busy_cycles: u64,
    /// Stepped SM-cycles whose issue phase ran a real candidate scan.
    issue_scan_cycles: u64,
    /// Local-clock spans started (one per [`Sm::tick_span`] call with a
    /// multi-cycle horizon).
    bursts: u64,
    /// Cycles simulated inside those spans (mean span length is
    /// `burst_cycles / bursts`).
    burst_cycles: u64,
    /// Span-length histogram: buckets 1, 2–3, 4–7, 8–15, 16–63, 64+.
    burst_hist: [u64; 6],
    /// LSU queue entries serviced on local cycles after the first tick of a
    /// span — i.e. drained without a global `Gpu::step` rendezvous.
    lsu_batched: u64,
    /// Monotone count of LSU entries serviced (popped with their access
    /// resolved); `tick_span` differences it to attribute `lsu_batched`.
    lsu_serviced: u64,
    /// Scratch: the `(scheduler, warp)` picks of the current issue scan, in
    /// scheduler order — the candidate set for a greedy-run burst.
    burst_set: Vec<(u32, u32)>,
    /// Event-trace capture handle (shared with the GPU; off by default).
    tracer: Tracer,
    /// Trace-replay frontend: when set, warps execute their pre-recorded
    /// streams instead of the synthetic pattern generator (`body_pos`
    /// becomes a stream cursor; `gen_access_lines` is never called).
    replay: Option<Arc<ReplayKernel>>,
    /// Workload-trace capture: when set, every executed instruction appends
    /// a [`TraceOp`] (memory ops with their coalesced lines) to its warp's
    /// stream. Indexed by grid-wide stream id; each stream executes on
    /// exactly one SM, so the GPU merges per-SM vectors at run end.
    capture: Option<Vec<WarpStream>>,
    /// Grid-wide dispatch ordinal of the *next* CTA this SM launches
    /// (stream base = ordinal x warps_per_cta). Set by the GPU immediately
    /// before every `try_launch_cta`; a dead store outside trace mode.
    next_cta_ordinal: u64,
}

impl Sm {
    /// Creates an SM with the given policy.
    pub fn new(id: SmId, cfg: &GpuConfig, policy: Box<dyn SmPolicy>, seed: u64) -> Self {
        Sm {
            id,
            l1: L1Cache::new(&cfg.l1),
            regfile: RegFile::new(cfg.warp_regs_per_sm(), cfg.regfile_banks, cfg.max_ctas_per_sm),
            stats: SimStats::default(),
            policy,
            warps: WarpSlab::new(cfg.max_warps_per_sm as usize),
            cands: (0..cfg.schedulers_per_sm)
                .map(|_| CandList::with_capacity(cfg.max_warps_per_sm as usize))
                .collect(),
            wake_ring: vec![0; WAKE_RING as usize * cfg.max_warps_per_sm.div_ceil(64) as usize],
            ring_timers: 0,
            ctas: (0..cfg.max_ctas_per_sm).map(|_| None).collect(),
            schedulers: (0..cfg.schedulers_per_sm).map(|_| GtoScheduler::new()).collect(),
            lsu_queue: VecDeque::new(),
            comp_ring: vec![Vec::new(); COMP_RING],
            comp_mask: 0,
            comp_head: 0,
            comp_overflow: BinaryHeap::new(),
            outbox: Vec::new(),
            emissions: Vec::new(),
            outbox_pool: Vec::new(),
            cta_limit: None,
            launch_seq: 0,
            warp_seq: 0,
            backup_store: HashMap::new(),
            backup_cursor: 0,
            window_start_insts: 0,
            window_index: 0,
            line_buf: Vec::with_capacity(32),
            waiter_buf: Vec::with_capacity(32),
            issue_sleep_until: 0,
            issue_wake: true,
            cur_blocked: 0,
            reap_pending: false,
            stores_in_flight: 0,
            seed,
            desc_table: Vec::new(),
            desc_stride: 0,
            rot3: Vec::new(),
            sched_mask: cfg.schedulers_per_sm.is_power_of_two().then(|| cfg.schedulers_per_sm - 1),
            desc_hits: 0,
            desc_misses: 0,
            load_hpc: Vec::new(),
            lsu_busy_cycles: 0,
            issue_scan_cycles: 0,
            bursts: 0,
            burst_cycles: 0,
            burst_hist: [0; 6],
            lsu_batched: 0,
            lsu_serviced: 0,
            burst_set: Vec::with_capacity(cfg.schedulers_per_sm as usize),
            tracer: Tracer::off(),
            replay: None,
            capture: None,
            next_cta_ordinal: 0,
        }
    }

    /// Installs an event-trace capture handle (a clone of the GPU's).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Switches this SM to the trace-replay frontend: warps execute the
    /// streams of `rep` instead of generating accesses synthetically. Must
    /// be installed before the first CTA launch.
    pub fn set_replay(&mut self, rep: Arc<ReplayKernel>) {
        debug_assert_eq!(self.launch_seq, 0, "replay must be installed before any launch");
        self.replay = Some(rep);
    }

    /// Enables workload-trace capture with `n_streams` grid-wide streams.
    /// Must be installed before the first CTA launch.
    pub fn enable_capture(&mut self, n_streams: usize) {
        debug_assert_eq!(self.launch_seq, 0, "capture must be enabled before any launch");
        self.capture = Some(vec![WarpStream::default(); n_streams]);
    }

    /// Takes the captured streams (empty entries belong to CTAs launched on
    /// other SMs); `None` when capture was never enabled.
    pub fn take_capture(&mut self) -> Option<Vec<WarpStream>> {
        self.capture.take()
    }

    /// Sets the grid-wide dispatch ordinal of the next CTA launched here
    /// (called by the GPU before every `try_launch_cta`).
    #[inline]
    pub fn set_next_cta_ordinal(&mut self, ord: u64) {
        self.next_cta_ordinal = ord;
    }

    /// Scheduler owning warp slot `wi` (`wi % schedulers_per_sm`, with the
    /// divide strength-reduced for power-of-two scheduler counts).
    #[inline]
    fn sched_of(&self, wi: usize) -> usize {
        match self.sched_mask {
            Some(m) => wi & m as usize,
            None => wi % self.schedulers.len(),
        }
    }

    /// Re-lists one warp as a scheduling candidate (no-op for vacated
    /// slots or warps already listed). Called on events that can unblock
    /// exactly this warp, i.e. its own load completions and timer expiry.
    #[inline]
    fn wake_warp(&mut self, wi: usize) {
        if !self.warps.is_occupied(wi) {
            return;
        }
        let s = self.sched_of(wi);
        // This event may unblock this warp; if it is scheduler `s`'s held
        // warp, the blocked memo no longer certifies anything.
        self.cur_blocked &= !(1 << s);
        self.cands[s].insert(self.warps.age(wi), wi as u32);
    }

    /// Conservatively re-lists every resident warp. Called on CTA-level
    /// events (launch, reap, limit change, window end) whose eligibility
    /// effects span warps.
    fn wake_all_warps(&mut self) {
        self.cur_blocked = 0;
        for v in &mut self.cands {
            v.clear();
        }
        let n_scheds = self.schedulers.len();
        for slot in 0..self.warps.len() {
            if self.warps.is_occupied(slot) {
                self.cands[slot % n_scheds].push_unsorted(self.warps.age(slot), slot as u32);
            }
        }
        for v in &mut self.cands {
            v.sort();
        }
    }

    /// Number of resident CTAs (any status).
    pub fn resident_ctas(&self) -> u32 {
        self.ctas.iter().flatten().count() as u32
    }

    /// Number of active (schedulable) CTAs.
    pub fn active_ctas(&self) -> u32 {
        self.ctas.iter().flatten().filter(|c| c.schedulable()).count() as u32
    }

    /// Number of resident but deactivated CTAs (any non-active status).
    pub fn inactive_ctas(&self) -> u32 {
        self.resident_ctas() - self.active_ctas()
    }

    /// All warps retired and no CTAs resident. Called once per run-loop
    /// iteration, so the slot scan short-circuits on the first resident
    /// CTA instead of counting them all.
    pub fn drained(&self) -> bool {
        self.ctas.iter().all(|c| c.is_none())
            && self.lsu_queue.is_empty()
            && self.comp_mask == 0
            && self.comp_overflow.is_empty()
    }

    /// Tries to launch one CTA of `kernel`; returns false when occupancy
    /// limits (slots, warps, threads, registers, shared memory) forbid it.
    pub fn try_launch_cta(&mut self, kernel: &KernelSpec, cfg: &GpuConfig) -> bool {
        if self.launch_seq == 0 {
            // One SM runs one kernel: size the kernel-derived tables once,
            // before the first CTA can issue anything.
            self.warps.ensure_loads(kernel.loads.len());
            self.load_hpc = kernel.loads.iter().map(|l| hashed_pc5(l.pc)).collect();
            let span = kernel.regs_per_warp().max(1);
            self.rot3 = (0..kernel.body.len() as u32).map(|p| (p * 3) % span).collect();
            let entries = self.warps.len() * kernel.loads.len();
            // Replay never decodes patterns (lines come from the trace, and
            // the stream's interned line pool already plays the descriptor
            // role), so the table would only cost memory and stats noise.
            if self.replay.is_none()
                && cfg.desc_cache
                && entries > 0
                && entries <= cfg.desc_cache_max_entries as usize
            {
                self.desc_stride = kernel.loads.len();
                self.desc_table = vec![None; entries];
            }
        }
        let warps_per_cta = kernel.warps_per_cta;
        let resident: u32 = self.resident_ctas();
        if resident >= cfg.max_ctas_per_sm {
            return false;
        }
        let resident_warps: u32 = self.ctas.iter().flatten().map(|c| c.warps.len() as u32).sum();
        if resident_warps + warps_per_cta > cfg.max_warps_per_sm {
            return false;
        }
        if (resident_warps + warps_per_cta) * cfg.simd_width > cfg.max_threads_per_sm {
            return false;
        }
        let smem_used: u64 = resident as u64 * kernel.shared_mem_per_cta;
        if smem_used + kernel.shared_mem_per_cta > cfg.shared_mem_bytes_per_sm {
            return false;
        }
        // Find a free CTA slot and a contiguous block of warp slots.
        let slot = match self.ctas.iter().position(|c| c.is_none()) {
            Some(s) => s as u32,
            None => return false,
        };
        let warp_base = match self.find_warp_slots(warps_per_cta) {
            Some(b) => b,
            None => return false,
        };
        let first_reg = match self.regfile.allocate_cta(CtaId(slot), kernel.regs_per_cta()) {
            Some(r) => r,
            None => return false,
        };
        let seq = self.launch_seq;
        self.launch_seq += 1;
        // Trace frontend: the k-th dispatched CTA (grid-wide) executes
        // streams `k * warps_per_cta + lane`. The Arc clone keeps the borrow
        // checker off the slab while launching (CTA launches are rare).
        let rep = self.replay.clone();
        let stream_base = self.next_cta_ordinal * kernel.warps_per_cta as u64;
        let mut warp_ids = Vec::with_capacity(warps_per_cta as usize);
        for i in 0..warps_per_cta {
            let wid = warp_base + i;
            let gw = self.warp_seq;
            self.warp_seq += 1;
            // Operand base: the warp's first register, precomputed here so
            // the issue stage does one column read instead of re-deriving
            // it per instruction.
            let op_base =
                first_reg.0 + (wid % kernel.warps_per_cta.max(1)) * kernel.regs_per_warp();
            match &rep {
                Some(rep) => {
                    let sid = stream_base + i as u64;
                    let first =
                        WarpSlab::inst_meta_at(kernel, rep.streams[sid as usize].ops[0].pos);
                    self.warps.launch_trace(
                        wid as usize,
                        CtaId(slot),
                        gw,
                        seq * 1000 + i as u64,
                        op_base,
                        first,
                    );
                    self.warps.set_stream(wid as usize, sid as u32);
                }
                None => {
                    self.warps.launch(
                        wid as usize,
                        CtaId(slot),
                        gw,
                        seq * 1000 + i as u64,
                        op_base,
                        kernel,
                    );
                    if self.capture.is_some() {
                        self.warps.set_stream(wid as usize, (stream_base + i as u64) as u32);
                    }
                }
            }
            // Slot reuse changes the global warp number: stale descriptors
            // of the previous tenant must never replay.
            if self.desc_stride != 0 {
                let lo = wid as usize * self.desc_stride;
                self.desc_table[lo..lo + self.desc_stride].fill(None);
            }
            warp_ids.push(wid);
        }
        for wid in warp_base..warp_base + warps_per_cta {
            self.wake_warp(wid as usize);
        }
        self.ctas[slot as usize] = Some(CtaState {
            id: CtaId(slot),
            status: CtaStatus::Active,
            first_reg,
            reg_count: kernel.regs_per_cta(),
            warps: warp_ids,
            warps_done: 0,
            launch_seq: seq,
        });
        let mut ctx =
            PolicyCtx { cycle: 0, sm: self.id, regfile: &mut self.regfile, stats: &mut self.stats };
        self.policy.on_cta_launch(CtaId(slot), first_reg, &mut ctx);
        self.issue_wake = true;
        true
    }

    fn find_warp_slots(&self, count: u32) -> Option<u32> {
        let n = self.warps.len() as u32;
        let mut run = 0u32;
        for i in 0..n {
            if !self.warps.is_occupied(i as usize) {
                run += 1;
                if run == count {
                    return Some(i + 1 - count);
                }
            } else {
                run = 0;
            }
        }
        None
    }

    /// Advances this SM one cycle. Emits memory requests into `outbox`.
    pub fn tick(&mut self, cycle: Cycle, kernel: &KernelSpec, cfg: &GpuConfig) {
        self.tick_bounded(cycle, cycle + 1, kernel, cfg);
    }

    /// Advances this SM at `cycle`; with `limit > cycle + 1` the issue
    /// stage may extend into a greedy-run burst, issuing K back-to-back
    /// cycles of the held warps' independent ALU runs in this one call.
    /// Returns the last cycle actually simulated (`cycle` unless a burst
    /// ran). Every burst cycle is charged exactly as the per-cycle loop
    /// would charge it; `limit` must not exceed the caller's safe horizon.
    pub fn tick_bounded(
        &mut self,
        cycle: Cycle,
        limit: Cycle,
        kernel: &KernelSpec,
        cfg: &GpuConfig,
    ) -> Cycle {
        let probe = phase_timer::start();
        self.drain_completions(cycle);
        phase_timer::stop(probe, phase_timer::SM_DRAIN);
        let probe = phase_timer::start();
        self.process_lsu(cycle, cfg);
        phase_timer::stop(probe, phase_timer::SM_LSU);
        let probe = phase_timer::start();
        let end = self.issue(cycle, limit, kernel, cfg);
        phase_timer::stop(probe, phase_timer::SM_ISSUE);
        end
    }

    /// Runs a tight local-clock loop from `cycle` up to (but excluding)
    /// `horizon`: repeated exact single-cycle ticks at this SM's own due
    /// cycles, plus in-issue greedy bursts, without returning to the global
    /// step loop in between. An outbox emission does not end the span: the
    /// batch is parked in `emissions` under its emission cycle (the GPU
    /// feeds it to the interconnect at exactly that cycle), and the span
    /// runs on — bounded by the earliest cycle a response to it could come
    /// back, two interconnect flights after the emission. The span does
    /// stop at the first pending CTA reap (the GPU refills freed slots the
    /// same cycle). Returns `(last simulated cycle, locally stepped
    /// cycles)`.
    ///
    /// The caller guarantees that no external event (memory response,
    /// window boundary, CTA dispatch) can target this SM before `horizon`;
    /// under that guarantee every local tick observes exactly the state the
    /// per-cycle loop would have shown it, so stats, policy callbacks and
    /// completion schedules are bit-identical.
    pub fn tick_span(
        &mut self,
        cycle: Cycle,
        horizon: Cycle,
        kernel: &KernelSpec,
        cfg: &GpuConfig,
    ) -> (Cycle, u64) {
        let mut c = cycle;
        let mut ticks = 0u64;
        let mut first = true;
        // Inclusive last cycle this span may simulate. Tightened at each
        // emission: a request entering the interconnect at `e` reaches its
        // partition no sooner than `e + icnt_latency` and its response
        // reaches this SM no sooner than `e + 2*icnt_latency` — and a
        // delivery at cycle `t` lands after the SM's own phase-1 view of
        // `t`, so the SM may still simulate `t` itself.
        let mut bound = horizon - 1;
        loop {
            let serviced_before = self.lsu_serviced;
            let end = self.tick_bounded(c, bound + 1, kernel, cfg);
            ticks += end - c + 1;
            if !first {
                // LSU entries drained on a local cycle: no global step was
                // paid for them.
                self.lsu_batched += self.lsu_serviced - serviced_before;
            }
            first = false;
            c = end;
            if !self.outbox.is_empty() {
                bound = bound.min(end + 2 * cfg.icnt_latency as Cycle);
                let batch =
                    std::mem::replace(&mut self.outbox, self.outbox_pool.pop().unwrap_or_default());
                self.emissions.push((end, batch));
            }
            if self.reap_pending {
                break;
            }
            match self.next_due(c) {
                Some(n) if n <= bound => c = n,
                _ => break,
            }
        }
        self.bursts += 1;
        self.burst_cycles += ticks;
        let bucket = match ticks {
            1 => 0,
            2..=3 => 1,
            4..=7 => 2,
            8..=15 => 3,
            16..=63 => 4,
            _ => 5,
        };
        self.burst_hist[bucket] += 1;
        (c, ticks)
    }

    fn drain_completions(&mut self, cycle: Cycle) {
        while self.comp_mask != 0 {
            let base = (self.comp_head & (COMP_RING as u64 - 1)) as u32;
            let d = self.comp_mask.rotate_right(base).trailing_zeros() as u64;
            let t = self.comp_head + d;
            if t > cycle {
                break;
            }
            let slot = (t & (COMP_RING as u64 - 1)) as usize;
            self.comp_mask &= !(1u64 << slot);
            let mut batch = std::mem::take(&mut self.comp_ring[slot]);
            for (warp_tag, load) in batch.drain(..) {
                self.complete(warp_tag, load);
            }
            self.comp_ring[slot] = batch;
            self.comp_head = t + 1;
        }
        self.comp_head = self.comp_head.max(cycle + 1);
        // Same-cycle completions commute (counter decrements plus deduped
        // sorted candidate inserts), so draining any overflow after the
        // ring preserves the retired heap's output exactly.
        while let Some(&Reverse((t, warp_tag, load))) = self.comp_overflow.peek() {
            if t > cycle {
                break;
            }
            self.comp_overflow.pop();
            self.complete(warp_tag, load);
        }
    }

    /// Delivers one completion to `warp_tag` (generation in the upper
    /// half, warp slot in the lower): credit the load and wake the warp —
    /// unless the slot was recycled since issue (generation mismatch), in
    /// which case the completion is stale and dropped rather than credited
    /// to the slot's new resident.
    #[inline]
    fn complete(&mut self, warp_tag: u32, load: u32) {
        self.issue_wake = true;
        let warp = (warp_tag & 0xffff) as usize;
        if self.warps.generation(warp) != warp_tag >> 16 {
            return;
        }
        if self.warps.is_occupied(warp) {
            self.warps.complete_one(warp, LoadId(load));
        }
        self.wake_warp(warp);
    }

    /// Parks a local completion for cycle `t` (ring slot when the delay
    /// fits, overflow heap otherwise). `process_lsu` runs after the drain,
    /// so `comp_head` is already `cycle + 1` here; clamping keeps a
    /// zero-latency config on the heap's schedule (delivery next tick).
    #[inline]
    fn push_completion(&mut self, t: Cycle, warp_tag: u32, load: u32) {
        phase_timer::bump(phase_timer::COMP_PUSHES);
        let t = t.max(self.comp_head);
        if t - self.comp_head < COMP_RING as u64 {
            let slot = (t & (COMP_RING as u64 - 1)) as usize;
            self.comp_ring[slot].push((warp_tag, load));
            self.comp_mask |= 1u64 << slot;
        } else {
            self.comp_overflow.push(Reverse((t, warp_tag, load)));
        }
    }

    fn process_lsu(&mut self, cycle: Cycle, cfg: &GpuConfig) {
        if self.lsu_queue.is_empty() {
            return;
        }
        self.lsu_busy_cycles += 1;
        for _ in 0..cfg.l1_ports {
            // Peek, don't pop: the blocked-head path (MSHR full) leaves the
            // deque untouched instead of popping and pushing the same entry
            // back every retry cycle.
            let Some(&req) = self.lsu_queue.front() else { break };
            let hpc = req.hpc;
            let mut ctx = PolicyCtx {
                cycle,
                sm: self.id,
                regfile: &mut self.regfile,
                stats: &mut self.stats,
            };
            if self.policy.pre_access(req.warp, req.pc, req.load, req.line, &mut ctx)
                == PreAccess::Bypass
            {
                self.stats.record_access(req.load, crate::types::AccessOutcome::Bypass, None);
                self.tracer.emit(
                    cycle,
                    TraceEvent::L1Access {
                        sm: self.id.0 as u64,
                        warp: req.warp as u64,
                        line: req.line.0,
                        outcome: TraceL1Outcome::Bypass,
                    },
                );
                self.outbox.push(MemReq {
                    sm: self.id,
                    warp: req.warp,
                    gen: req.gen,
                    load: req.load,
                    line: req.line,
                    kind: MemReqKind::BypassRead,
                });
                self.lsu_queue.pop_front();
                self.lsu_serviced += 1;
                continue;
            }
            match self.l1.access(req.line, hpc) {
                L1Lookup::Hit => {
                    let mut ctx = PolicyCtx {
                        cycle,
                        sm: self.id,
                        regfile: &mut self.regfile,
                        stats: &mut self.stats,
                    };
                    self.policy.on_hit(req.pc, req.load, req.line, &mut ctx);
                    self.stats.record_access(req.load, crate::types::AccessOutcome::L1Hit, None);
                    self.tracer.emit(
                        cycle,
                        TraceEvent::L1Access {
                            sm: self.id.0 as u64,
                            warp: req.warp as u64,
                            line: req.line.0,
                            outcome: TraceL1Outcome::Hit,
                        },
                    );
                    self.push_completion(
                        cycle + cfg.l1_hit_latency as u64,
                        req.gen << 16 | req.warp,
                        req.load.0,
                    );
                }
                L1Lookup::Miss(class) => {
                    let mut ctx = PolicyCtx {
                        cycle,
                        sm: self.id,
                        regfile: &mut self.regfile,
                        stats: &mut self.stats,
                    };
                    match self.policy.on_miss(req.pc, req.load, req.line, &mut ctx) {
                        MissService::VictimHit { extra_latency } => {
                            self.stats.record_access(
                                req.load,
                                crate::types::AccessOutcome::RegHit,
                                None,
                            );
                            self.tracer.emit(
                                cycle,
                                TraceEvent::L1Access {
                                    sm: self.id.0 as u64,
                                    warp: req.warp as u64,
                                    line: req.line.0,
                                    outcome: TraceL1Outcome::RegHit,
                                },
                            );
                            self.push_completion(
                                cycle + (cfg.l1_hit_latency + extra_latency) as u64,
                                req.gen << 16 | req.warp,
                                req.load.0,
                            );
                        }
                        MissService::ToL2 => {
                            // Waiter-token layout: generation in bits
                            // 63..48, warp slot in 47..32, load in 31..0
                            // (slots and generations are both 16-bit).
                            debug_assert!(req.warp < 1 << 16);
                            let token = (req.gen as u64) << 48
                                | (req.warp as u64) << 32
                                | req.load.0 as u64;
                            let miss_outcome = match class {
                                MissClass::Cold => TraceL1Outcome::MissCold,
                                MissClass::CapacityConflict => TraceL1Outcome::MissCapacity,
                            };
                            match self.l1.mshrs().allocate(req.line, token) {
                                MshrOutcome::Merged => {
                                    self.stats.record_access(
                                        req.load,
                                        crate::types::AccessOutcome::Miss,
                                        Some(class),
                                    );
                                    self.tracer.emit(
                                        cycle,
                                        TraceEvent::L1Access {
                                            sm: self.id.0 as u64,
                                            warp: req.warp as u64,
                                            line: req.line.0,
                                            outcome: miss_outcome,
                                        },
                                    );
                                    self.tracer.emit(
                                        cycle,
                                        TraceEvent::MshrMerge {
                                            level: 0,
                                            sm: self.id.0 as u64,
                                            line: req.line.0,
                                        },
                                    );
                                }
                                MshrOutcome::NewEntry => {
                                    self.stats.record_access(
                                        req.load,
                                        crate::types::AccessOutcome::Miss,
                                        Some(class),
                                    );
                                    self.tracer.emit(
                                        cycle,
                                        TraceEvent::L1Access {
                                            sm: self.id.0 as u64,
                                            warp: req.warp as u64,
                                            line: req.line.0,
                                            outcome: miss_outcome,
                                        },
                                    );
                                    self.outbox.push(MemReq {
                                        sm: self.id,
                                        warp: req.warp,
                                        gen: req.gen,
                                        load: req.load,
                                        line: req.line,
                                        kind: MemReqKind::Read,
                                    });
                                }
                                MshrOutcome::Full => {
                                    // Structural stall: the head stays in
                                    // place and retries next cycle.
                                    self.stats.mshr_stalls += 1;
                                    return;
                                }
                            }
                        }
                    }
                }
            }
            self.lsu_queue.pop_front();
            self.lsu_serviced += 1;
        }
    }

    fn issue(&mut self, cycle: Cycle, limit: Cycle, kernel: &KernelSpec, cfg: &GpuConfig) -> Cycle {
        // Event-driven fast path: if the last full scan proved every ready
        // set empty, nothing can become issueable before `issue_sleep_until`
        // unless a wake event fired (completion drain, memory response, CTA
        // launch/reap/limit change, window end). Warp latencies expire at
        // known cycles; everything else is event-driven, so skipping the
        // scan is exactly equivalent to running it.
        if !self.issue_wake && cycle < self.issue_sleep_until {
            return cycle;
        }
        self.issue_wake = false;
        self.issue_scan_cycles += 1;
        self.burst_set.clear();

        // Fire due warp timers: re-list warps whose `next_ready` is now.
        let nw = self.wake_ring.len() / WAKE_RING as usize;
        if self.ring_timers > 0 {
            let base = (cycle % WAKE_RING) as usize * nw;
            for wdx in 0..nw {
                let mut fired = self.wake_ring[base + wdx];
                if fired != 0 {
                    self.wake_ring[base + wdx] = 0;
                    self.ring_timers -= fired.count_ones();
                    while fired != 0 {
                        let b = fired.trailing_zeros() as usize;
                        fired &= fired - 1;
                        // A parked warp may have been reaped since;
                        // `wake_warp` ignores vacated slots.
                        self.wake_warp(wdx * 64 + b);
                    }
                }
            }
        }

        let lsu_full = self.lsu_queue.len() >= LSU_QUEUE_CAP;
        if lsu_full {
            phase_timer::bump(phase_timer::SCAN_LSU_FULL);
        }
        let mut gated_by_lsu = false;
        let mut timed_wake: Option<Cycle> = None;
        let mut issued_any = false;

        // Lazy GTO per scheduler: take the greedily-held warp if it is
        // still eligible, else walk the age-sorted candidate list and take
        // the first eligible entry — exactly `GtoScheduler::pick` over the
        // full ready set, without materializing it. The walk prunes
        // event-blocked candidates and parks latency-blocked ones in the
        // timer wheel as it passes them; entries it never reaches stay
        // listed for the next walk. Store credits are re-checked live per
        // scheduler (an earlier scheduler's issue can consume the last
        // credit), and `can_issue`/CTA eligibility of one warp cannot be
        // changed by another warp's same-cycle execution, so evaluating
        // lazily is equivalent to the former full pre-scan.
        for s in 0..self.schedulers.len() {
            let mut pick: Option<WarpId> = None;
            if let Some(cur) = self.schedulers[s].current() {
                // Timer fast-out: a warp whose `next_ready` lies ahead can
                // only classify as `Blocked`/`Time*` (never `Eligible` or
                // `GatedLsu`, both of which require an expired timer), and
                // the current-warp check ignores that distinction — so one
                // column read replaces the full classify. Exact. The
                // `cur_blocked` memo is the same trick for event-blocked
                // warps: `Blocked` can only end via a wake event, and every
                // wake event clears the memo, so a set bit certifies the
                // classify would return `Blocked` again.
                if self.cur_blocked & (1 << s) == 0
                    && self.warps.next_ready(cur.0 as usize) <= cycle
                {
                    match self.classify(cur.0 as usize, cycle, cfg, lsu_full) {
                        WarpClass::Eligible => {
                            phase_timer::bump(phase_timer::PICK_WAS_CURRENT);
                            pick = Some(cur)
                        }
                        WarpClass::GatedLsu => gated_by_lsu = true,
                        WarpClass::Blocked => self.cur_blocked |= 1 << s,
                        _ => {}
                    }
                }
            }
            if pick.is_none() {
                phase_timer::bump(phase_timer::CAND_WALKS);
                let mut k = 0;
                while k < self.cands[s].len() {
                    let (_, wid) = self.cands[s].get(k);
                    match self.classify(wid as usize, cycle, cfg, lsu_full) {
                        WarpClass::Eligible => {
                            pick = Some(WarpId(wid));
                            break;
                        }
                        WarpClass::GatedLsu => {
                            gated_by_lsu = true;
                            k += 1;
                        }
                        WarpClass::GatedStore => k += 1,
                        WarpClass::TimeNear(t) => {
                            let idx = (t % WAKE_RING) as usize * nw + wid as usize / 64;
                            let bit = 1u64 << (wid as usize % 64);
                            if self.wake_ring[idx] & bit == 0 {
                                self.wake_ring[idx] |= bit;
                                self.ring_timers += 1;
                            }
                            self.cands[s].remove(k);
                        }
                        WarpClass::TimeFar(t) => {
                            timed_wake = Some(timed_wake.map_or(t, |x| x.min(t)));
                            k += 1;
                        }
                        WarpClass::Blocked => {
                            self.cands[s].remove(k);
                        }
                    }
                }
            }
            if let Some(wid) = pick {
                self.cur_blocked &= !(1 << s);
                self.schedulers[s].note_pick(wid);
                self.burst_set.push((s as u32, wid.0));
                issued_any = true;
                let probe = phase_timer::start();
                self.execute_inst(wid, cycle, kernel, cfg);
                phase_timer::stop(probe, phase_timer::SM_EXECUTE);
            }
        }

        // Greedy-run burst: GTO holds each picked warp until it stalls, so
        // while every picked warp keeps a back-to-back independent ALU run
        // and no other warp can wake, the next scans are fully determined —
        // replay them here instead of bouncing through the global loop.
        // Preconditions: the caller granted local headroom, nothing escaped
        // the SM this cycle (no LSU entry, no outbox message, no finished
        // CTA), and no candidate is waiting on LSU back-pressure.
        let mut end = cycle;
        if limit > cycle + 1
            && !self.burst_set.is_empty()
            && !gated_by_lsu
            && self.lsu_queue.is_empty()
            && self.outbox.is_empty()
            && !self.reap_pending
        {
            end = self.greedy_burst(cycle, limit, kernel, cfg);
        }

        // Arm the sleep horizon only when this scan did nothing and no warp
        // was held back by LSU back-pressure (the LSU drains without firing
        // a wake event; but then the queue is non-empty, so those cycles
        // are busy anyway and re-scanning is cheap relative to the drain).
        self.issue_sleep_until = if issued_any || gated_by_lsu {
            end // re-scan next cycle
        } else {
            // The nearest parked timer bounds the horizon too. Any parked
            // wake lies within (cycle, cycle + WAKE_RING), so the forward
            // walk always finds it — and usually within a few slots.
            if self.ring_timers > 0 {
                for d in 1..WAKE_RING {
                    let t = cycle + d;
                    let base = (t % WAKE_RING) as usize * nw;
                    if self.wake_ring[base..base + nw].iter().any(|&w| w != 0) {
                        timed_wake = Some(timed_wake.map_or(t, |x| x.min(t)));
                        break;
                    }
                }
            }
            timed_wake.unwrap_or(Cycle::MAX)
        };
        end
    }

    /// Continues this cycle's issue into a greedy-run burst: re-issues the
    /// exact set of warps just picked (`burst_set`) on consecutive cycles
    /// for as long as the per-cycle scan would provably re-pick the same
    /// set and nothing else, charging each cycle's stats and occupancy
    /// identically. Returns the last cycle executed.
    ///
    /// Legality is all-or-nothing per cycle:
    /// - no timer-wheel slot fires that cycle (a woken warp could create a
    ///   pick on a scheduler outside the set; burst schedulers' held warps
    ///   outrank any wake under GTO, but we end conservatively and let the
    ///   real scan fire the timers),
    /// - no load completion comes due (its drain could wake a
    ///   dependency-blocked warp before the scan),
    /// - every burst warp is ready exactly that cycle with a plain ALU op
    ///   (`next_ready` chains back-to-back; live, not a load/store, no
    ///   unresolved dependency),
    /// - nothing escapes the SM (LSU queue and outbox stay empty, no CTA
    ///   finishes).
    fn greedy_burst(
        &mut self,
        cycle: Cycle,
        limit: Cycle,
        kernel: &KernelSpec,
        cfg: &GpuConfig,
    ) -> Cycle {
        // Upper bound: the caller's horizon, the timer wheel's unambiguous
        // range, and the first pending load completion.
        let mut bound = (limit - 1).min(cycle + WAKE_RING - 1);
        if self.comp_mask != 0 {
            let base = (self.comp_head & (COMP_RING as u64 - 1)) as u32;
            let d = self.comp_mask.rotate_right(base).trailing_zeros() as u64;
            bound = bound.min((self.comp_head + d).saturating_sub(1));
        }
        if let Some(&Reverse((t, ..))) = self.comp_overflow.peek() {
            bound = bound.min(t.saturating_sub(1));
        }
        // A non-burst scheduler's held warp that merely waits out a latency
        // re-enters via its parked timer (caught per cycle below); capping
        // on it directly as well is free, and divergence is not.
        for s in 0..self.schedulers.len() {
            if self.burst_set.iter().any(|&(bs, _)| bs as usize == s) {
                continue;
            }
            if let Some(cur) = self.schedulers[s].current() {
                let nr = self.warps.next_ready(cur.0 as usize);
                if nr > cycle {
                    bound = bound.min(nr - 1);
                }
            }
        }
        let nw = self.wake_ring.len() / WAKE_RING as usize;
        let set = std::mem::take(&mut self.burst_set);
        let mut end = cycle;
        'cycles: for c in cycle + 1..=bound {
            // The real scan fires due timers before picking; end the burst
            // at the first cycle with a parked wake instead of replaying
            // that path (the slot stays intact for the real scan).
            if self.ring_timers > 0 {
                let base = (c % WAKE_RING) as usize * nw;
                if self.wake_ring[base..base + nw].iter().any(|&w| w != 0) {
                    break;
                }
            }
            for &(_, w) in &set {
                let wi = w as usize;
                let meta = self.warps.meta(wi);
                if self.warps.next_ready(wi) != c
                    || meta & META_READY != META_READY
                    || meta & (META_LOAD | META_STORE) != 0
                    || (meta & META_DEP != 0 && self.warps.outstanding(wi, LoadId(meta >> 16)) > 0)
                {
                    break 'cycles;
                }
            }
            // This cycle is now exactly what the per-cycle loop would do:
            // scan, re-pick every held warp, execute in scheduler order.
            self.issue_scan_cycles += 1;
            for &(s, w) in &set {
                self.schedulers[s as usize].note_pick(WarpId(w));
                self.execute_inst(WarpId(w), c, kernel, cfg);
            }
            end = c;
            if self.reap_pending || !self.lsu_queue.is_empty() || !self.outbox.is_empty() {
                break;
            }
        }
        self.burst_set = set;
        end
    }

    /// Classifies one warp slot's issue eligibility this cycle (pure; the
    /// caller does the candidate-list / timer-wheel bookkeeping).
    ///
    /// Single pass over the slab's packed `meta` word plus (at most) the
    /// scoreboard and timer columns. The word carries liveness, CTA
    /// schedulability and the current instruction's shape — maintained at
    /// the state transitions, so the per-candidate cost is three dependent
    /// loads instead of re-deriving the same facts from five columns, the
    /// CTA table and the kernel body. A warp blocked on a dependency or
    /// the outstanding-load cap is `Blocked` regardless of its latency
    /// timer (a load completion wakes it); a warp blocked *only* on its
    /// timer is `Time*`-parked. This is exactly the split the former
    /// double `can_issue` probe (now, then again at `next_ready`)
    /// computed.
    #[inline]
    fn classify(&self, wi: usize, cycle: Cycle, cfg: &GpuConfig, lsu_full: bool) -> WarpClass {
        phase_timer::bump(phase_timer::CLASSIFY_CALLS);
        let meta = self.warps.meta(wi);
        // Dead slot, retired warp, or CTA not `Active`: all encode as a
        // missing READY bit (launch sets both, retire/free/deactivate
        // clear their half).
        if meta & META_READY != META_READY {
            return WarpClass::Blocked;
        }
        if meta & META_DEP != 0 && self.warps.outstanding(wi, LoadId(meta >> 16)) > 0 {
            return WarpClass::Blocked;
        }
        let is_load = meta & META_LOAD != 0;
        if is_load && self.warps.total_outstanding(wi) >= cfg.max_outstanding_per_warp {
            return WarpClass::Blocked;
        }
        let nr = self.warps.next_ready(wi);
        if nr > cycle {
            // Blocked purely on latency: ready again at `next_ready`.
            if nr - cycle < WAKE_RING {
                return WarpClass::TimeNear(nr);
            }
            return WarpClass::TimeFar(nr);
        }
        // Back-pressure: loads/stores need LSU space; stores need a credit.
        let is_store = meta & META_STORE != 0;
        if lsu_full && (is_store || is_load) {
            return WarpClass::GatedLsu;
        }
        if is_store && self.stores_in_flight >= STORE_BUFFER_CAP {
            return WarpClass::GatedStore;
        }
        WarpClass::Eligible
    }

    /// Earliest future cycle at which this SM can make progress without an
    /// external event — its slot in the GPU's component calendar. Must be
    /// called right after the SM's phase of the current cycle (tick, CTA
    /// reap, outbox drain), so the cached issue horizon and completion heap
    /// reflect this cycle. `None` means only external events (memory
    /// responses, window boundaries, CTA dispatch) can wake the SM, and the
    /// GPU re-arms the calendar slot whenever it delivers one.
    ///
    /// Unlike the per-cycle warp scan this replaces, the horizon is O(1):
    /// it reuses the `issue_sleep_until` bookkeeping the issue scan already
    /// maintains (a scan that finds no candidate records the earliest
    /// latency-expiry wake-up; warps blocked on dependencies, the
    /// outstanding-load cap, or store credits wake via response events,
    /// which set `issue_wake` and re-arm the slot). A completed-but-active
    /// CTA can exist only inside a tick (completion happens in the issue
    /// stage and the GPU reaps in the same phase), so no reap is ever
    /// pending while the SM sleeps.
    pub fn next_due(&self, cycle: Cycle) -> Option<Cycle> {
        // A non-empty LSU queue makes per-cycle progress (and per-cycle
        // MSHR-stall accounting); a non-empty outbox must drain; a pending
        // wake event requires a fresh issue scan. All three mean the next
        // cycle is a real step.
        if !self.lsu_queue.is_empty() || !self.outbox.is_empty() || self.issue_wake {
            return Some(cycle + 1);
        }
        let mut next: Option<Cycle> = None;
        if self.comp_mask != 0 {
            let base = (self.comp_head & (COMP_RING as u64 - 1)) as u32;
            let d = self.comp_mask.rotate_right(base).trailing_zeros() as u64;
            next = Some((self.comp_head + d).max(cycle + 1));
        }
        if let Some(&Reverse((t, ..))) = self.comp_overflow.peek() {
            let t = t.max(cycle + 1);
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        if self.issue_sleep_until != Cycle::MAX {
            let t = self.issue_sleep_until.max(cycle + 1);
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        next
    }

    /// Issues the warp's next instruction. One path serves synthetic and
    /// replayed warps: [`Sm::fetch_op`] supplies the body position and a
    /// memory op's lines, the shared body does operand traffic, the
    /// ALU/Load/Store work and capture, and only the final advance differs
    /// (kernel-body loop or stream cursor).
    fn execute_inst(&mut self, wid: WarpId, cycle: Cycle, kernel: &KernelSpec, cfg: &GpuConfig) {
        let slot = wid.0 as usize;
        let body_pos = self.fetch_op(slot, kernel);
        let inst = &kernel.body[body_pos as usize];
        self.stats.instructions += 1;
        self.tracer.emit(
            cycle,
            TraceEvent::Issue { sm: self.id.0 as u64, warp: wid.0 as u64, pos: body_pos as u64 },
        );

        // Operand traffic: two reads and one write on the warp's registers,
        // rotated by the body position. The base register is a precomputed
        // slab column (set at CTA launch), not re-derived per instruction.
        let extra_delay = self.regfile.access_operands(
            self.warps.op_base(slot),
            kernel.regs_per_warp().max(1),
            self.rot3[body_pos as usize],
            cycle,
        );

        match inst.kind {
            InstKind::Alu { latency } => {
                self.capture_op(slot, body_pos, false);
                self.warps.set_next_ready(slot, cycle + latency.max(1) as u64 + extra_delay as u64);
            }
            InstKind::Load { load } => {
                self.capture_op(slot, body_pos, true);
                let n = self.line_buf.len() as u32;
                self.warps.add_outstanding(slot, load, n);
                self.warps.set_next_ready(slot, cycle + 1 + extra_delay as u64);
                let pc = kernel.load(load).pc;
                let hpc = self.load_hpc[load.0 as usize];
                let gen = self.warps.generation(slot);
                for &line in &self.line_buf {
                    if cfg.detailed_load_stats {
                        self.stats.record_line_touch(load, line.0);
                    }
                    self.lsu_queue.push_back(LsuReq { warp: wid.0, gen, load, pc, hpc, line });
                }
            }
            InstKind::Store { load } => {
                self.capture_op(slot, body_pos, true);
                self.warps.set_next_ready(slot, cycle + 1 + extra_delay as u64);
                // Write-evict (hit) / write-no-allocate (miss): invalidate L1
                // copy, notify the policy so victim copies are invalidated
                // too, and send the store through to memory.
                for i in 0..self.line_buf.len() {
                    let line = self.line_buf[i];
                    self.stats.stores += 1;
                    self.stores_in_flight += 1;
                    self.l1.invalidate(line);
                    let mut ctx = PolicyCtx {
                        cycle,
                        sm: self.id,
                        regfile: &mut self.regfile,
                        stats: &mut self.stats,
                    };
                    self.policy.on_store(line, &mut ctx);
                    self.outbox.push(MemReq {
                        sm: self.id,
                        warp: wid.0,
                        gen: 0,
                        load,
                        line,
                        kind: MemReqKind::Store,
                    });
                }
            }
        }

        // Advance the warp past this instruction and retire if finished: a
        // synthetic warp loops over the kernel body, a replayed warp steps
        // its stream cursor and retires at stream end.
        match &self.replay {
            None => self.warps.advance(slot, kernel),
            Some(rep) => {
                let stream = &rep.streams[self.warps.stream(slot) as usize];
                let next = stream.ops.get(self.warps.body_pos(slot) as usize + 1);
                let next_meta = next.map(|o| WarpSlab::inst_meta_at(kernel, o.pos));
                self.warps.advance_trace(slot, next_meta);
            }
        }
        if self.warps.done(slot) {
            let cta_id = self.warps.cta(slot);
            self.schedulers[(wid.0 % cfg.schedulers_per_sm) as usize].release(wid);
            let cta = self.ctas[cta_id.0 as usize].as_mut().expect("CTA exists");
            cta.warps_done += 1;
            self.reap_pending = true;
        }
    }

    /// Source step of [`Sm::execute_inst`]: returns the body position of
    /// the warp's next instruction and, for a memory op, leaves its
    /// coalesced lines in `line_buf`. A synthetic warp reads its kernel
    /// body and generates the lines; a replayed warp reads its stream op
    /// (the cursor is `body_pos`) and copies the op's interned line slice,
    /// never consulting the descriptor cache or the access-index counter.
    fn fetch_op(&mut self, slot: usize, kernel: &KernelSpec) -> u32 {
        let Some(rep) = &self.replay else {
            let pos = self.warps.body_pos(slot);
            if let InstKind::Load { load } | InstKind::Store { load } =
                kernel.body[pos as usize].kind
            {
                let idx = self.warps.next_access_index(slot, load);
                self.gen_access_lines(slot, load, idx, kernel);
            }
            return pos;
        };
        let stream = &rep.streams[self.warps.stream(slot) as usize];
        let op = stream.ops[self.warps.body_pos(slot) as usize];
        self.line_buf.clear();
        self.line_buf.extend_from_slice(
            &stream.lines[op.line_off as usize..(op.line_off + op.line_len) as usize],
        );
        op.pos
    }

    /// Appends the instruction just executed to its warp's capture stream
    /// (no-op unless capture is enabled). Memory ops record the current
    /// `line_buf` contents as a raw slice appended to the stream's line
    /// pool; the `LBW1` encoder interns duplicate slices at serialization
    /// time, so capture stays allocation-cheap on the hot path.
    #[inline]
    fn capture_op(&mut self, slot: usize, pos: u32, mem: bool) {
        let Sm { capture, line_buf, warps, .. } = self;
        let Some(cap) = capture.as_mut() else { return };
        let s = &mut cap[warps.stream(slot) as usize];
        if mem {
            let off = s.lines.len() as u32;
            s.lines.extend_from_slice(line_buf);
            s.ops.push(TraceOp { pos, line_off: off, line_len: line_buf.len() as u32 });
        } else {
            s.ops.push(TraceOp { pos, line_off: 0, line_len: 0 });
        }
    }

    /// Generates the coalesced line addresses of one dynamic access of
    /// `load` into `line_buf` — the single entry point behind synthetic
    /// Load and Store ops in [`Sm::fetch_op`], so the cached and uncached
    /// paths cannot drift.
    ///
    /// With the descriptor cache enabled, the first execution of a
    /// (warp slot, load) pair decodes the pattern's per-warp constants into
    /// a [`LineDesc`] and interns it; every later execution replays the
    /// descriptor with only the access index applied. Replay is exact (see
    /// `pattern::decoded_replay_matches_gen_lines`), and a debug assertion
    /// re-checks it against `gen_lines` on every miss.
    fn gen_access_lines(&mut self, slot: usize, load: LoadId, idx: u64, kernel: &KernelSpec) {
        self.line_buf.clear();
        if self.desc_stride != 0 {
            let cell = slot * self.desc_stride + load.0 as usize;
            let desc = match self.desc_table[cell] {
                Some(d) => {
                    self.desc_hits += 1;
                    d
                }
                None => {
                    self.desc_misses += 1;
                    let d = kernel.load(load).pattern.decode(DecodeCtx {
                        seed: self.seed,
                        sm: self.id,
                        global_warp: self.warps.global_warp(slot),
                        load,
                    });
                    self.desc_table[cell] = Some(d);
                    d
                }
            };
            desc.replay(idx, &mut self.line_buf);
            #[cfg(debug_assertions)]
            {
                let mut reference = Vec::new();
                kernel.load(load).pattern.gen_lines(
                    AccessCtx {
                        seed: self.seed,
                        sm: self.id,
                        global_warp: self.warps.global_warp(slot),
                        load,
                        access_index: idx,
                    },
                    &mut reference,
                );
                debug_assert_eq!(
                    self.line_buf, reference,
                    "descriptor replay diverged from gen_lines (slot {slot}, load {load:?})"
                );
            }
            return;
        }
        kernel.load(load).pattern.gen_lines(
            AccessCtx {
                seed: self.seed,
                sm: self.id,
                global_warp: self.warps.global_warp(slot),
                load,
                access_index: idx,
            },
            &mut self.line_buf,
        );
    }

    /// Handles a response from the shared memory system. The L1 fill is
    /// tagged with the fetching load's hashed PC (precomputed per static
    /// load at kernel init).
    pub fn handle_response(&mut self, req: MemReq, cycle: Cycle) {
        // Any response can change warp eligibility (load completion, store
        // credit return, backup/restore progress toggling CTA status).
        self.issue_wake = true;
        match req.kind {
            MemReqKind::Read => {
                // Fill L1; evicted victim goes to the policy. The waiter
                // list is drained into a reusable scratch buffer (taken out
                // of `self` for the duration so `wake_warp` below can
                // borrow freely).
                let mut waiters = std::mem::take(&mut self.waiter_buf);
                self.l1.mshrs().complete_into(req.line, &mut waiters);
                let fill_hpc = waiters
                    .first()
                    .map(|&t| self.load_hpc[(t & 0xffff_ffff) as usize])
                    .unwrap_or(0);
                let evicted = self.l1.fill(req.line, fill_hpc);
                if let Some(ev) = evicted {
                    let preserved = {
                        let mut ctx = PolicyCtx {
                            cycle,
                            sm: self.id,
                            regfile: &mut self.regfile,
                            stats: &mut self.stats,
                        };
                        self.policy.on_evict(ev.line, ev.payload.hpc, &mut ctx)
                    };
                    self.tracer.emit(
                        cycle,
                        TraceEvent::Evict {
                            sm: self.id.0 as u64,
                            line: ev.line.0,
                            hpc: ev.payload.hpc as u64,
                            preserved,
                        },
                    );
                }
                for &t in &waiters {
                    // The token's upper word is exactly the tagged warp.
                    self.complete((t >> 32) as u32, (t & 0xffff_ffff) as u32);
                }
                self.waiter_buf = waiters;
            }
            MemReqKind::BypassRead => {
                self.complete(req.gen << 16 | req.warp, req.load.0);
            }
            MemReqKind::Store => {
                self.stores_in_flight = self.stores_in_flight.saturating_sub(1);
            }
            MemReqKind::RegBackup { cta } => self.backup_line_done(cta, cycle),
            MemReqKind::RegRestore { cta } => self.restore_line_done(cta, cycle),
        }
    }

    /// Ends the current monitoring window: computes IPC, consults the
    /// policy, enforces any CTA limit, and samples RF occupancy.
    pub fn end_window(&mut self, cycle: Cycle, cfg: &GpuConfig) {
        self.issue_wake = true;
        self.wake_all_warps();
        let insts = self.stats.instructions - self.window_start_insts;
        self.window_start_insts = self.stats.instructions;
        let info = WindowInfo {
            index: self.window_index,
            cycles: cfg.window_cycles,
            instructions: insts,
            ipc: insts as f64 / cfg.window_cycles as f64,
            active_ctas: self.active_ctas(),
            inactive_ctas: self.inactive_ctas(),
        };
        self.window_index += 1;
        self.tracer
            .emit(cycle, TraceEvent::Window { sm: self.id.0 as u64, window: info.index as u64 });
        let mut ctx =
            PolicyCtx { cycle, sm: self.id, regfile: &mut self.regfile, stats: &mut self.stats };
        let limit = self.policy.on_window(&info, &mut ctx);
        self.cta_limit = limit;
        self.enforce_cta_limit(cycle);
        // Sample RF occupancy for Figures 4 and 9.
        let space = self.regfile.space();
        let victim = self.policy.victim_space_regs();
        self.stats.rf_samples.push(RfSpaceSample {
            static_unused: space.static_unused,
            dynamic_unused: space.dynamic_unused,
            victim_in_use: victim,
        });
        // Timeline point (window-level hit fraction is cumulative-delta
        // based; fall back to the cumulative fraction for simplicity —
        // accurate enough per window given the monotone counters).
        let total = self.stats.mem_accesses().max(1);
        self.stats.timeline.push(crate::stats::WindowSample {
            sm: self.id.0,
            window: info.index,
            ipc: info.ipc,
            hit_fraction: (self.stats.l1_hits + self.stats.reg_hits) as f64 / total as f64,
            active_ctas: self.active_ctas(),
            victim_regs: victim,
        });
        if cfg.detailed_load_stats {
            self.stats.close_detail_window();
        }
    }

    /// Applies the current CTA limit: deactivates the highest-id active CTAs
    /// or re-activates inactive ones.
    pub fn enforce_cta_limit(&mut self, cycle: Cycle) {
        let Some(limit) = self.cta_limit else {
            // No limit: re-activate everything that is inactive.
            self.activate_up_to(u32::MAX, cycle);
            return;
        };
        let limit = limit.max(1);
        while self.active_ctas() > limit {
            // Deactivate the active CTA with the largest hardware id (§4.1).
            let victim = self
                .ctas
                .iter()
                .flatten()
                .filter(|c| c.schedulable())
                .map(|c| c.id)
                .max_by_key(|c| c.0);
            let Some(victim) = victim else { break };
            self.deactivate_cta(victim, cycle);
        }
        if self.active_ctas() < limit {
            self.activate_up_to(limit, cycle);
        }
    }

    fn activate_up_to(&mut self, limit: u32, cycle: Cycle) {
        loop {
            if self.active_ctas() >= limit {
                break;
            }
            let candidate = self
                .ctas
                .iter()
                .flatten()
                .filter(|c| matches!(c.status, CtaStatus::Inactive))
                .map(|c| c.id)
                .min_by_key(|c| c.0);
            let Some(c) = candidate else { break };
            self.activate_cta(c, cycle);
        }
    }

    fn deactivate_cta(&mut self, cta: CtaId, cycle: Cycle) {
        let slot = cta.0 as usize;
        let (first, count) = match self.regfile.cta_range(cta) {
            Some(r) => r,
            None => return,
        };
        {
            let mut ctx = PolicyCtx {
                cycle,
                sm: self.id,
                regfile: &mut self.regfile,
                stats: &mut self.stats,
            };
            self.policy.on_cta_deactivate(cta, &mut ctx);
        }
        self.tracer.emit(cycle, TraceEvent::Backup { sm: self.id.0 as u64, cta: cta.0 as u64 });
        // Snapshot architectural state for fidelity checking.
        let contents: Vec<u64> =
            (first.0..first.0 + count).map(|r| self.regfile.read_contents(RegNum(r))).collect();
        self.backup_store.insert(cta.0, contents);
        // Emit backup traffic: one line per warp register.
        for i in 0..count {
            let line = self.backup_line_addr(i);
            self.outbox.push(MemReq {
                sm: self.id,
                warp: 0,
                gen: 0,
                load: LoadId(0),
                line,
                kind: MemReqKind::RegBackup { cta },
            });
        }
        self.backup_cursor += count as u64;
        if let Some(c) = self.ctas[slot].as_mut() {
            c.status = CtaStatus::BackingUp { remaining: count };
            // The CTA's warps occupy one contiguous ascending block.
            let lo = *c.warps.first().expect("CTA has warps");
            let hi = *c.warps.last().expect("CTA has warps");
            for wi in lo..=hi {
                self.warps.set_cta_ok(wi as usize, false);
            }
        }
    }

    fn activate_cta(&mut self, cta: CtaId, cycle: Cycle) {
        let slot = cta.0 as usize;
        let (_, count) = match self.regfile.cta_range(cta) {
            Some(r) => r,
            None => return,
        };
        {
            let mut ctx = PolicyCtx {
                cycle,
                sm: self.id,
                regfile: &mut self.regfile,
                stats: &mut self.stats,
            };
            // Victim partitions over this CTA's registers must be released
            // before the restore overwrites them.
            self.policy.on_cta_activate(cta, &mut ctx);
        }
        self.tracer.emit(cycle, TraceEvent::Restore { sm: self.id.0 as u64, cta: cta.0 as u64 });
        for i in 0..count {
            let line = self.backup_line_addr(i);
            self.outbox.push(MemReq {
                sm: self.id,
                warp: 0,
                gen: 0,
                load: LoadId(0),
                line,
                kind: MemReqKind::RegRestore { cta },
            });
        }
        self.backup_cursor += count as u64;
        if let Some(c) = self.ctas[slot].as_mut() {
            c.status = CtaStatus::Restoring { remaining: count };
        }
    }

    fn backup_line_addr(&self, i: u32) -> LineAddr {
        // Dedicated backup region: "load 0" slice of this SM's address space
        // is reserved (kernel loads are numbered from 1 in the pattern
        // region map via `load + 1`).
        LineAddr(((self.id.0 as u64) << 36) | (self.backup_cursor + i as u64))
    }

    fn backup_line_done(&mut self, cta: CtaId, cycle: Cycle) {
        let slot = cta.0 as usize;
        let Some(c) = self.ctas[slot].as_mut() else { return };
        if let CtaStatus::BackingUp { remaining } = &mut c.status {
            *remaining -= 1;
            if *remaining == 0 {
                c.status = CtaStatus::Inactive;
                self.regfile.mark_backed_up(cta);
                let mut ctx = PolicyCtx {
                    cycle,
                    sm: self.id,
                    regfile: &mut self.regfile,
                    stats: &mut self.stats,
                };
                self.policy.on_backup_complete(cta, &mut ctx);
            }
        }
    }

    fn restore_line_done(&mut self, cta: CtaId, cycle: Cycle) {
        let slot = cta.0 as usize;
        let Some(c) = self.ctas[slot].as_mut() else { return };
        if let CtaStatus::Restoring { remaining } = &mut c.status {
            *remaining -= 1;
            if *remaining == 0 {
                c.status = CtaStatus::Active;
                self.reap_pending = true;
                // The CTA's warps occupy one contiguous ascending block.
                let lo = *c.warps.first().expect("CTA has warps");
                let hi = *c.warps.last().expect("CTA has warps");
                let _ = cycle;
                if let Some((first, count)) = self.regfile.mark_restored(cta) {
                    if let Some(saved) = self.backup_store.remove(&cta.0) {
                        debug_assert_eq!(saved.len(), count as usize);
                        for (i, v) in saved.into_iter().enumerate() {
                            self.regfile.write_contents(RegNum(first.0 + i as u32), v);
                        }
                    }
                }
                // The CTA is schedulable again: re-list its warps.
                for wi in lo..=hi {
                    self.warps.set_cta_ok(wi as usize, true);
                    self.wake_warp(wi as usize);
                }
            }
        }
    }

    /// Reaps completed CTAs; returns how many were freed (the GPU refills).
    pub fn reap_completed_ctas(&mut self, cycle: Cycle) -> u32 {
        if !self.reap_pending {
            return 0;
        }
        self.reap_pending = false;
        let mut freed = 0;
        for slot in 0..self.ctas.len() {
            let complete = self.ctas[slot]
                .as_ref()
                .map(|c| c.is_complete() && matches!(c.status, CtaStatus::Active))
                .unwrap_or(false);
            if !complete {
                continue;
            }
            let cta = self.ctas[slot].take().expect("checked above");
            for wid in &cta.warps {
                self.warps.free(*wid as usize);
            }
            self.regfile.free_cta(cta.id);
            let mut ctx = PolicyCtx {
                cycle,
                sm: self.id,
                regfile: &mut self.regfile,
                stats: &mut self.stats,
            };
            self.policy.on_cta_complete(cta.id, &mut ctx);
            freed += 1;
        }
        if freed > 0 {
            self.issue_wake = true;
            self.wake_all_warps();
            // A finished CTA frees an active slot: prefer re-activating a
            // throttled CTA over launching a new one (paper §3.2, P5).
            self.enforce_cta_limit(cycle);
        }
        freed
    }

    /// True when the SM can accept another CTA under the current limit.
    pub fn wants_new_cta(&self) -> bool {
        match self.cta_limit {
            Some(l) => self.active_ctas() + self.inactive_ctas() < l.max(1),
            None => true,
        }
    }

    /// Current active-CTA limit (None = unlimited).
    pub fn cta_limit(&self) -> Option<u32> {
        self.cta_limit
    }

    /// Sets the CTA limit directly (used by tests and static policies before
    /// the first window fires).
    pub fn set_cta_limit(&mut self, limit: Option<u32>, cycle: Cycle) {
        self.issue_wake = true;
        self.wake_all_warps();
        self.cta_limit = limit;
        self.enforce_cta_limit(cycle);
    }

    /// Snapshot of backed-up register contents for a CTA (tests).
    pub fn backup_snapshot(&self, cta: CtaId) -> Option<&[u64]> {
        self.backup_store.get(&cta.0).map(|v| v.as_slice())
    }

    /// Finalizes per-SM stats (MSHR stall counts etc.).
    pub fn finalize_stats(&mut self) {
        let (reads, writes, conflicts) = self.regfile.stats();
        self.stats.rf_reads = reads;
        self.stats.rf_writes = writes;
        self.stats.rf_bank_conflicts = conflicts;
        self.stats.monitor_periods = self.policy.monitor_periods();
        self.stats.events.desc_hits = self.desc_hits;
        self.stats.events.desc_misses = self.desc_misses;
        self.stats.events.desc_entries =
            self.desc_table.iter().filter(|d| d.is_some()).count() as u64;
        self.stats.events.desc_bytes =
            (self.desc_table.len() * std::mem::size_of::<Option<LineDesc>>()) as u64;
        self.stats.events.sm_lsu_busy_cycles = self.lsu_busy_cycles;
        self.stats.events.sm_issue_scan_cycles = self.issue_scan_cycles;
        self.stats.events.sm_bursts = self.bursts;
        self.stats.events.sm_burst_cycles = self.burst_cycles;
        self.stats.events.sm_burst_len_1 = self.burst_hist[0];
        self.stats.events.sm_burst_len_2_3 = self.burst_hist[1];
        self.stats.events.sm_burst_len_4_7 = self.burst_hist[2];
        self.stats.events.sm_burst_len_8_15 = self.burst_hist[3];
        self.stats.events.sm_burst_len_16_63 = self.burst_hist[4];
        self.stats.events.sm_burst_len_64p = self.burst_hist[5];
        self.stats.events.sm_lsu_batched = self.lsu_batched;
    }
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("resident_ctas", &self.resident_ctas())
            .field("active_ctas", &self.active_ctas())
            .field("policy", &self.policy.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use crate::pattern::AccessPattern;
    use crate::policy::NullPolicy;

    fn small_cfg() -> GpuConfig {
        GpuConfig::default().with_sms(1)
    }

    fn kernel() -> KernelSpec {
        KernelBuilder::new("k")
            .grid(8, 2)
            .regs_per_thread(16)
            .load_then_use(AccessPattern::reuse_working_set(16 * 1024, true), 2)
            .alu(4)
            .iterations(50)
            .build()
            .unwrap()
    }

    fn sm() -> Sm {
        Sm::new(SmId(0), &small_cfg(), Box::new(NullPolicy), 42)
    }

    #[test]
    fn launch_respects_register_limit() {
        let cfg = small_cfg();
        let k = KernelBuilder::new("fat")
            .grid(8, 8)
            .regs_per_thread(128) // 8 warps x 128 regs = 1024 regs per CTA
            .alu(1)
            .iterations(1)
            .build()
            .unwrap();
        let mut sm = sm();
        assert!(sm.try_launch_cta(&k, &cfg));
        assert!(sm.try_launch_cta(&k, &cfg));
        // Third CTA would need 3072 > 2048 registers.
        assert!(!sm.try_launch_cta(&k, &cfg));
        assert_eq!(sm.resident_ctas(), 2);
    }

    #[test]
    fn launch_respects_warp_limit() {
        let cfg = small_cfg();
        let k = KernelBuilder::new("wide")
            .grid(8, 32)
            .regs_per_thread(8)
            .alu(1)
            .iterations(1)
            .build()
            .unwrap();
        let mut sm = sm();
        assert!(sm.try_launch_cta(&k, &cfg));
        assert!(sm.try_launch_cta(&k, &cfg));
        assert!(!sm.try_launch_cta(&k, &cfg), "64-warp limit reached");
    }

    #[test]
    fn ticking_executes_instructions() {
        let cfg = small_cfg();
        let k = kernel();
        let mut sm = sm();
        assert!(sm.try_launch_cta(&k, &cfg));
        for c in 0..2000 {
            sm.tick(c, &k, &cfg);
            // Service memory requests instantly for this unit test.
            let reqs: Vec<_> = sm.outbox.drain(..).collect();
            for r in reqs {
                if matches!(r.kind, MemReqKind::Read | MemReqKind::BypassRead) {
                    sm.handle_response(r, c);
                }
            }
        }
        assert!(sm.stats.instructions > 100, "issued {}", sm.stats.instructions);
        assert!(sm.stats.mem_accesses() > 0);
    }

    /// The descriptor cache must be a pure speed knob: identical counters
    /// with it on (default) and off, hits recorded only when enabled.
    #[test]
    fn desc_cache_is_output_invariant() {
        let run = |cfg: GpuConfig| {
            let k = kernel();
            let mut sm = Sm::new(SmId(0), &cfg, Box::new(NullPolicy), 42);
            assert!(sm.try_launch_cta(&k, &cfg));
            for c in 0..3000 {
                sm.tick(c, &k, &cfg);
                let reqs: Vec<_> = sm.outbox.drain(..).collect();
                for r in reqs {
                    if matches!(r.kind, MemReqKind::Read | MemReqKind::BypassRead) {
                        sm.handle_response(r, c);
                    }
                }
            }
            sm.finalize_stats();
            sm.stats
        };
        let on = run(small_cfg());
        let off = run(small_cfg().with_desc_cache(false));
        assert_eq!(on.instructions, off.instructions);
        assert_eq!(on.l1_hits, off.l1_hits);
        assert_eq!(on.miss_cold, off.miss_cold);
        assert_eq!(on.miss_2c, off.miss_2c);
        assert_eq!(on.rf_reads, off.rf_reads);
        assert!(on.events.desc_hits > 0, "cached run must replay descriptors");
        assert!(on.events.desc_misses > 0, "first executions decode");
        assert_eq!(off.events.desc_hits, 0);
        assert_eq!(off.events.desc_misses, 0);
        assert_eq!(off.events.desc_entries, 0);
        assert_eq!(off.events.desc_bytes, 0);
    }

    #[test]
    fn cta_completes_and_is_reaped() {
        let cfg = small_cfg();
        let k = KernelBuilder::new("tiny")
            .grid(1, 1)
            .regs_per_thread(8)
            .alu(1)
            .iterations(3)
            .build()
            .unwrap();
        let mut sm = sm();
        assert!(sm.try_launch_cta(&k, &cfg));
        for c in 0..100 {
            sm.tick(c, &k, &cfg);
            sm.reap_completed_ctas(c);
        }
        assert_eq!(sm.resident_ctas(), 0);
        assert!(sm.drained());
    }

    #[test]
    fn throttle_deactivates_highest_id_cta() {
        let cfg = small_cfg();
        let k = kernel();
        let mut sm = sm();
        for _ in 0..4 {
            assert!(sm.try_launch_cta(&k, &cfg));
        }
        sm.set_cta_limit(Some(2), 0);
        // Backup traffic must be in the outbox.
        let backups =
            sm.outbox.iter().filter(|r| matches!(r.kind, MemReqKind::RegBackup { .. })).count()
                as u32;
        assert_eq!(backups, 2 * k.regs_per_cta());
        assert_eq!(sm.active_ctas(), 2);
        // CTAs 2 and 3 (highest ids) are the deactivated ones.
        let reqs: Vec<_> = sm.outbox.drain(..).collect();
        for r in &reqs {
            if let MemReqKind::RegBackup { cta } = r.kind {
                assert!(cta.0 >= 2);
            }
        }
        // Complete the backups.
        for r in reqs {
            sm.handle_response(r, 10);
        }
        assert_eq!(sm.inactive_ctas(), 2);
        assert!(sm.regfile.is_backed_up(CtaId(2)));
        assert!(sm.regfile.is_backed_up(CtaId(3)));
    }

    #[test]
    fn restore_roundtrips_register_contents() {
        let cfg = small_cfg();
        let k = kernel();
        let mut sm = sm();
        for _ in 0..4 {
            sm.try_launch_cta(&k, &cfg);
        }
        let (first, count) = sm.regfile.cta_range(CtaId(3)).unwrap();
        let before: Vec<u64> =
            (first.0..first.0 + count).map(|r| sm.regfile.read_contents(RegNum(r))).collect();

        sm.set_cta_limit(Some(3), 0);
        let reqs: Vec<_> = sm.outbox.drain(..).collect();
        for r in reqs {
            sm.handle_response(r, 5);
        }
        assert!(sm.regfile.is_backed_up(CtaId(3)));
        // Clobber the register contents (as victim caching would).
        for r in first.0..first.0 + count {
            sm.regfile.write_contents(RegNum(r), 0xbad);
        }
        // Lift the limit: CTA 3 restores.
        sm.set_cta_limit(None, 100);
        let reqs: Vec<_> = sm.outbox.drain(..).collect();
        assert!(reqs.iter().all(|r| matches!(r.kind, MemReqKind::RegRestore { .. })));
        for r in reqs {
            sm.handle_response(r, 200);
        }
        let after: Vec<u64> =
            (first.0..first.0 + count).map(|r| sm.regfile.read_contents(RegNum(r))).collect();
        assert_eq!(before, after, "restore must reproduce the backed-up state");
        assert_eq!(sm.active_ctas(), 4);
    }

    #[test]
    fn window_end_samples_rf_space() {
        let cfg = small_cfg();
        let k = kernel();
        let mut sm = sm();
        sm.try_launch_cta(&k, &cfg);
        sm.end_window(50_000, &cfg);
        assert_eq!(sm.stats.rf_samples.len(), 1);
        let s = sm.stats.rf_samples[0];
        assert_eq!(s.static_unused, 2048 - k.regs_per_cta());
    }

    #[test]
    fn drained_only_when_everything_empty() {
        let sm = sm();
        assert!(sm.drained());
    }
}

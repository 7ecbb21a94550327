//! Top-level GPU: CTA dispatcher, memory partitions (interconnect + L2
//! slices + DRAM channels), and the per-cycle simulation loop.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::calendar::Calendar;
use crate::config::GpuConfig;
use crate::energy::Activity;
use crate::kernel::KernelSpec;
use crate::mem::MemReq;
use crate::partition::MemPartition;
use crate::phase_timer;
use crate::policy::{PolicyFactory, SmPolicy};
use crate::replay::{CaptureError, ReplayKernel, WarpStream};
use crate::sm::Sm;
use crate::stats::{PartitionCounters, ProfileEvents, SimStats};
use crate::types::{Cycle, SmId};
use lb_trace::Tracer;

/// A complete simulated GPU executing one kernel.
pub struct Gpu {
    cfg: GpuConfig,
    kernel: KernelSpec,
    sms: Vec<Sm>,
    /// The partitioned memory side: each entry owns one L2 slice, one DRAM
    /// channel and one interconnect queue pair. Lines are steered by the
    /// power-of-two interleave `line & part_mask`.
    partitions: Vec<MemPartition>,
    /// `n_mem_partitions - 1`: low line-address bits selecting a partition.
    part_mask: u64,
    /// CTAs of the grid not yet dispatched.
    remaining_ctas: u32,
    /// Grid-wide dispatch ordinal of the next CTA to launch. In trace mode
    /// this is the stream-block index (`ordinal * warps_per_cta` is the
    /// first stream of the CTA); in synthetic mode it is threaded but
    /// unread, so maintaining it costs one dead store per launch.
    cta_ordinal: u64,
    cycle: Cycle,
    /// The next window-boundary cycle (`k * window_cycles`); advanced by one
    /// window each time it fires so the per-cycle boundary test is a compare
    /// instead of a division. Jumps never cross it: `try_skip_idle` caps
    /// every fast-forward at `next_window - 1`.
    next_window: Cycle,
    scratch_msgs: Vec<MemReq>,
    /// Reusable list of SM indices still accepting CTAs during a dispatch.
    dispatch_scratch: Vec<u32>,
    /// Component calendar over the SMs (indices `0..n_sms`), the DRAM
    /// channels (index `n_sms + p` for partition `p`), and one outbox-flush
    /// slot per SM (index `n_sms + n_parts + i`, see `pending_out`); `step`
    /// touches only due components. The interconnect queues are not in the
    /// calendar: their `next_due` is an O(1) head peek, cheaper read
    /// directly than kept coherent here.
    calendar: Calendar,
    /// Local-clock bursting enabled: `cfg.burst` and no event tracer
    /// attached (the shared trace stream interleaves all components, so its
    /// cycle stamps must be globally monotone; an SM running ahead of the
    /// global clock would write future-stamped events between other
    /// components' present-stamped ones).
    burst: bool,
    /// Per-SM count of memory requests in flight beyond the SM boundary.
    /// Every outbox message produces exactly one response delivery, so a
    /// zero count proves no inbound delivery can target the SM and its
    /// local horizon is bounded by the window edge alone.
    in_flight: Vec<u32>,
    /// Per-SM held outbox batches: requests an SM emitted at local cycles
    /// ahead of the global clock, each batch under its emission cycle in
    /// increasing stamp order. Pushing them into the interconnect
    /// immediately would interleave out of (cycle, SM id) order with other
    /// SMs' traffic; instead each batch waits here and the SM's calendar
    /// flush slot fires at the front batch's emission cycle, reproducing
    /// the cycle-lockstep queue order exactly.
    pending_out: Vec<VecDeque<(Cycle, Vec<MemReq>)>>,
    /// Per-SM last locally simulated cycle. Only consulted at run end: an
    /// SM's local clock may finish ahead of the global cycle (a pure-ALU
    /// retirement mid-span), and the reported cycle count must cover it.
    local_time: Vec<Cycle>,
    /// Per-component stepped-cycle counters: SMs at `0..n_sms`, DRAM
    /// channels at `n_sms..n_sms + P`, each partition's `to_l2` at
    /// `n_sms + P + p` and `from_l2` at `n_sms + 2P + p`. Slept cycles are
    /// not counted separately: every component is either stepped or slept
    /// each cycle, so slept == total cycles - stepped.
    comp_stepped: Vec<u64>,
    /// Hot-path profiler counters (reported via `SimStats::events`).
    stepped_cycles: u64,
    skipped_cycles: u64,
    skip_jumps: u64,
    dispatch_passes: u64,
    /// Skip-engagement breakdown: what bounded each fast-forward jump.
    skip_to_sm: u64,
    skip_to_dram: u64,
    skip_to_icnt: u64,
    skip_to_window: u64,
    skip_to_max: u64,
}

impl Gpu {
    /// Builds a GPU for `kernel` with one policy instance per SM.
    pub fn new(cfg: GpuConfig, kernel: KernelSpec, factory: &PolicyFactory<'_>) -> Self {
        Self::new_traced(cfg, kernel, factory, Tracer::off())
    }

    /// Builds a GPU with an event-trace capture handle. Every SM gets a
    /// clone of the handle (they share one writer), so a single trace file
    /// interleaves all components in deterministic step-phase order.
    pub fn new_traced(
        cfg: GpuConfig,
        kernel: KernelSpec,
        factory: &PolicyFactory<'_>,
        tracer: Tracer,
    ) -> Self {
        Self::new_inner(cfg, kernel, None, false, factory, tracer)
    }

    /// Builds a GPU that replays `rep` instead of generating addresses: each
    /// warp executes its recorded stream through the unmodified pipeline.
    /// The stub kernel drives occupancy and policy transforms exactly as a
    /// synthetic kernel would.
    pub fn new_replay(cfg: GpuConfig, rep: Arc<ReplayKernel>, factory: &PolicyFactory<'_>) -> Self {
        let kernel = rep.stub.clone();
        Self::new_inner(cfg, kernel, Some(rep), false, factory, Tracer::off())
    }

    /// Shared builder behind the synthetic, replay and capture frontends.
    /// `replay` installs per-warp streams on every SM before the initial
    /// dispatch; `capture` arms per-SM stream recorders sized to the grid.
    fn new_inner(
        cfg: GpuConfig,
        kernel: KernelSpec,
        replay: Option<Arc<ReplayKernel>>,
        capture: bool,
        factory: &PolicyFactory<'_>,
        tracer: Tracer,
    ) -> Self {
        let n_streams = kernel.grid_ctas as usize * kernel.warps_per_cta as usize;
        let sms = (0..cfg.n_sms)
            .map(|i| {
                let policy: Box<dyn SmPolicy> = factory(SmId(i), &cfg, &kernel);
                let mut sm = Sm::new(SmId(i), &cfg, policy, 0x5eed ^ (i as u64));
                sm.set_tracer(tracer.clone());
                if let Some(rep) = &replay {
                    sm.set_replay(Arc::clone(rep));
                }
                if capture {
                    sm.enable_capture(n_streams);
                }
                sm
            })
            .collect();
        let n_parts = cfg.n_mem_partitions as usize;
        let partitions =
            (0..cfg.n_mem_partitions).map(|p| MemPartition::new(&cfg, p, tracer.clone())).collect();
        let n_sms = cfg.n_sms as usize;
        let mut calendar = Calendar::new(n_sms + n_parts + n_sms);
        for i in 0..n_sms {
            // Flush slots are event components: parked until an SM holds a
            // future-stamped outbox batch.
            calendar.park(n_sms + n_parts + i);
        }
        let mut gpu = Gpu {
            partitions,
            part_mask: cfg.n_mem_partitions as u64 - 1,
            remaining_ctas: kernel.grid_ctas,
            cta_ordinal: 0,
            cycle: 0,
            next_window: cfg.window_cycles,
            scratch_msgs: Vec::new(),
            dispatch_scratch: Vec::new(),
            calendar,
            burst: cfg.burst && !tracer.is_on(),
            in_flight: vec![0; n_sms],
            pending_out: vec![VecDeque::new(); n_sms],
            local_time: vec![0; n_sms],
            comp_stepped: vec![0; cfg.n_sms as usize + 3 * n_parts],
            stepped_cycles: 0,
            skipped_cycles: 0,
            skip_jumps: 0,
            dispatch_passes: 0,
            skip_to_sm: 0,
            skip_to_dram: 0,
            skip_to_icnt: 0,
            skip_to_window: 0,
            skip_to_max: 0,
            sms,
            cfg,
            kernel,
        };
        // Fill the SMs immediately so both `run()` and manual `step()`
        // loops start with work on board.
        gpu.dispatch_ctas();
        gpu
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The kernel being executed.
    pub fn kernel(&self) -> &KernelSpec {
        &self.kernel
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Read-only view of an SM (tests, experiments).
    pub fn sm(&self, i: u32) -> &Sm {
        &self.sms[i as usize]
    }

    /// (stepped, slept) cycle counts for SM `i`. For a finished run their
    /// sum equals the total simulated cycles — the per-component partition
    /// invariant the profiler tests lock.
    pub fn sm_activity(&self, i: u32) -> (u64, u64) {
        let stepped = self.comp_stepped[i as usize];
        (stepped, self.cycle - stepped)
    }

    /// Dispatches CTAs to every SM that has room and wants more work.
    ///
    /// Placement is round-robin (one CTA per willing SM per pass), which the
    /// paper's homogeneous-SM evaluation depends on. An SM that refuses a
    /// launch is dropped from the candidate list for the rest of this call:
    /// nothing during a dispatch can free its resources, so the refusal is
    /// permanent and rescanning it (as the old implementation did every
    /// pass) is pure waste.
    fn dispatch_ctas(&mut self) {
        self.dispatch_passes += 1;
        if self.remaining_ctas == 0 {
            return;
        }
        let mut candidates = std::mem::take(&mut self.dispatch_scratch);
        candidates.clear();
        candidates.extend(0..self.cfg.n_sms);
        while self.remaining_ctas > 0 && !candidates.is_empty() {
            candidates.retain(|&i| {
                if self.remaining_ctas == 0 {
                    return false;
                }
                let sm = &mut self.sms[i as usize];
                sm.set_next_cta_ordinal(self.cta_ordinal);
                if sm.wants_new_cta() && sm.try_launch_cta(&self.kernel, &self.cfg) {
                    self.remaining_ctas -= 1;
                    self.cta_ordinal += 1;
                    true
                } else {
                    false
                }
            });
        }
        self.dispatch_scratch = candidates;
    }

    /// Runs the kernel to completion or `max_cycles`, returning merged stats.
    ///
    /// Uses two levels of event-driven scheduling, both bit-exact: inside
    /// `step()`, the component calendar gates each SM and the DRAM
    /// controller individually, so a busy cycle touches only components
    /// with work; between steps, `try_skip_idle` jumps straight to the
    /// earliest component event instead of stepping through dead cycles.
    pub fn run(&mut self) -> SimStats {
        while self.cycle < self.cfg.max_cycles {
            self.try_skip_idle();
            if self.cycle >= self.cfg.max_cycles {
                break;
            }
            self.step();
            if self.done() {
                break;
            }
        }
        // An SM's local clock may finish ahead of the global one (a pure-ALU
        // retirement mid-span ends the run with no further global events);
        // the lockstep loop keeps stepping those tail cycles while any SM
        // still has work, and an idle SM with an armed issue-scan wake-up
        // performs that (futile) scan then. Replay exactly those calendar
        // slots: anything due up to the furthest local time would have
        // fired under lockstep; anything later would not (the run ends
        // first). The machine is drained, so these ticks can only re-scan
        // and re-arm — no architectural state moves.
        let ahead = self.local_time.iter().copied().max().unwrap_or(0);
        while self.cycle <= ahead {
            if !self.calendar.any_due(self.cycle) {
                match self.calendar.next_event() {
                    Some((t, comp)) if t <= ahead => {
                        let comp = comp as usize;
                        if comp < self.sms.len() || comp >= self.sms.len() + self.partitions.len() {
                            self.skip_to_sm += 1;
                        } else {
                            self.skip_to_dram += 1;
                        }
                        self.skipped_cycles += t - self.cycle;
                        self.skip_jumps += 1;
                        self.cycle = t;
                    }
                    _ => break,
                }
            }
            self.step();
        }
        // The reported cycle count is the cycle after the last simulated
        // one, exactly as the lockstep loop would have left it. Horizons
        // never pass `max_cycles`, so this cannot overshoot the cap. The
        // global loop never visited the remaining tail cycles, so for the
        // stepped/skipped partition they count as fast-forwarded.
        if ahead + 1 > self.cycle {
            self.skipped_cycles += ahead + 1 - self.cycle;
            self.cycle = ahead + 1;
        }
        if cfg!(debug_assertions) && self.done() {
            self.debug_assert_drained();
        }
        self.collect_stats()
    }

    /// Drain invariant of a finished run: every request an SM emitted was
    /// answered, and no traffic is left staged between an SM and the
    /// partitions.
    fn debug_assert_drained(&self) {
        for (i, sm) in self.sms.iter().enumerate() {
            debug_assert_eq!(self.in_flight[i], 0, "SM {i}: requests left unanswered at drain");
            debug_assert!(self.pending_out[i].is_empty(), "SM {i}: held outbox batch at drain");
            debug_assert!(sm.emissions.is_empty(), "SM {i}: unmerged emissions at drain");
            debug_assert!(sm.outbox.is_empty(), "SM {i}: unsent outbox at drain");
        }
    }

    /// Fast-forwards to the earliest cycle at which any component can act.
    ///
    /// The calendar already knows the next due cycle of every SM and of the
    /// DRAM controller; the interconnect queues expose theirs as an O(1)
    /// head peek. The jump target is the minimum over those horizons,
    /// capped at the last cycle of the current monitoring window (that
    /// cycle's step fires `end_window`) and at `max_cycles`. No per-cycle
    /// state needs replaying at jump time: the DRAM token bucket catches up
    /// lazily through [`Dram::advance_to`] on its next real tick.
    ///
    /// Unlike the all-or-nothing skipper this replaces, the check is O(1):
    /// it never rescans warps, and it engages whenever the *earliest*
    /// component event is in the future, not only when every component is
    /// simultaneously idle (individual SMs sleep through busy cycles inside
    /// `step` via the same calendar).
    fn try_skip_idle(&mut self) {
        let cycle = self.cycle;
        // Cheap pre-check first: on a busy machine some component is due
        // right now and the argmin below would be wasted work every cycle.
        if self.calendar.any_due(cycle) {
            return;
        }
        // One pass over the partitions both finishes the pre-check and
        // seeds the jump-target fold with the earliest interconnect horizon.
        let mut icnt: Option<Cycle> = None;
        for p in &self.partitions {
            icnt = match (icnt, p.icnt_next_due()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        if icnt.is_some_and(|t| t <= cycle) {
            return;
        }
        let cal = self.calendar.next_event();
        let mut target = Cycle::MAX;
        for t in [cal.map(|(t, _)| t), icnt].into_iter().flatten() {
            target = target.min(t);
        }
        // The last cycle of the current window must still be stepped so its
        // `end_window` fires on schedule; `max_cycles` ends the run loop.
        let window_last = self.next_window - 1;
        let target = target.min(window_last).min(self.cfg.max_cycles);
        if target <= cycle {
            return;
        }
        // Attribute the jump to whichever horizon bounded it. Outbox-flush
        // slots (above the DRAM range) are SM-side work.
        if cal.is_some_and(|(t, _)| t == target) {
            let comp = cal.expect("checked").1 as usize;
            if comp < self.sms.len() || comp >= self.sms.len() + self.partitions.len() {
                self.skip_to_sm += 1;
            } else {
                self.skip_to_dram += 1;
            }
        } else if icnt == Some(target) {
            self.skip_to_icnt += 1;
        } else if target == window_last {
            self.skip_to_window += 1;
        } else {
            self.skip_to_max += 1;
        }
        let n = target - cycle;
        self.cycle = target;
        self.skipped_cycles += n;
        self.skip_jumps += 1;
    }

    /// All work dispatched and drained. A held outbox batch is in-flight
    /// work the partitions have not seen yet, so it keeps the GPU alive.
    pub fn done(&self) -> bool {
        self.remaining_ctas == 0
            && self.sms.iter().all(|s| s.drained())
            && self.partitions.iter().all(|p| p.drained())
            && self.pending_out.iter().all(|q| q.is_empty())
    }

    /// Advances the whole GPU one cycle, stepping only the components whose
    /// calendar entry is due. Gating a component is bit-exact because its
    /// `next_due` horizon certifies that a tick before that cycle would be
    /// a state no-op; the phase order is identical to the old exhaustive
    /// sweep, so a due component observes exactly what it always did.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        self.stepped_cycles += 1;
        let n_sms = self.sms.len();
        let n_parts = self.partitions.len();

        // 1. SM pipelines (in SM-id order, as the exhaustive sweep was).
        //    Each due SM runs a local-clock span up to its safe horizon; an
        //    SM whose span ran ahead of the global clock parks its outbox
        //    batch in `pending_out`, and the batch enters the interconnect
        //    here, at its emission cycle, in SM-id order — the exact queue
        //    position a cycle-lockstep run would have given it.
        let (base_h, t_del) = self.horizon_inputs(cycle);
        for i in 0..n_sms {
            self.flush_pending(i, cycle);
            if !self.calendar.is_due(i, cycle) {
                continue;
            }
            // Every held batch flushes at a global step at its stamp, and
            // stamps never reach the SM's next due cycle, so a due SM has
            // nothing pending.
            debug_assert!(self.pending_out[i].is_empty());
            let horizon = self.sm_horizon(i, cycle, base_h, t_del);
            let (end, ticks) = self.sms[i].tick_span(cycle, horizon, &self.kernel, &self.cfg);
            self.absorb_span(i, cycle, end, ticks);
        }

        // Phases 2-4 touch disjoint fields every iteration; one split
        // borrow up front replaces repeated `self.partitions[p]` indexing
        // in the per-cycle loops.
        let Gpu { partitions, calendar, comp_stepped, scratch_msgs, sms, in_flight, .. } =
            &mut *self;

        // 2. L2 side: each partition consumes its arriving requests. A
        //    request pushed to DRAM here arrives at its `ready_at` cycle
        //    (stores this very cycle), so pull the channel's due cycle
        //    forward before phase 3 reads it. Waking at arrival rather than
        //    at the exact serviceable cycle is safe — a tick that can't
        //    pick anything is a state no-op — and keeps this path O(1) per
        //    request.
        let probe = phase_timer::start();
        for (p, part) in partitions.iter_mut().enumerate() {
            if part.to_l2.next_due().is_some_and(|t| t <= cycle) {
                comp_stepped[n_sms + n_parts + p] += 1;
                scratch_msgs.clear();
                part.to_l2.pop_ready(cycle, scratch_msgs);
                for &req in scratch_msgs.iter() {
                    if let Some(arrival) = part.handle_at_l2(req, cycle) {
                        calendar.wake_at(n_sms + p, arrival);
                    }
                }
            }
        }
        phase_timer::stop(probe, phase_timer::L2_INGRESS);

        // 3. DRAM channels. After every tick a channel reports its exact
        //    next horizon (next completion, or the earliest cycle a pick
        //    can succeed: request arrival + bank free + bandwidth-token
        //    refill); the calendar sleeps it until then. `next_service`'s
        //    floor early-out keeps the scan short on busy streaks.
        let probe = phase_timer::start();
        for (p, part) in partitions.iter_mut().enumerate() {
            let comp = n_sms + p;
            if calendar.is_due(comp, cycle) {
                comp_stepped[comp] += 1;
                part.step_dram(cycle);
                let due = part.dram.next_due(cycle).unwrap_or(Cycle::MAX);
                calendar.schedule(comp, due);
            }
        }
        phase_timer::stop(probe, phase_timer::DRAM);

        // 4. Responses back to SMs (partitions in index order, so same-cycle
        //    deliveries interleave deterministically); each delivery re-arms
        //    the SM's slot.
        let probe = phase_timer::start();
        for (p, part) in partitions.iter_mut().enumerate() {
            if part.from_l2.next_due().is_some_and(|t| t <= cycle) {
                comp_stepped[n_sms + 2 * n_parts + p] += 1;
                scratch_msgs.clear();
                part.from_l2.pop_ready(cycle, scratch_msgs);
                for &rsp in scratch_msgs.iter() {
                    let sm = &mut sms[rsp.sm.0 as usize];
                    sm.handle_response(rsp, cycle);
                    // Every delivery answers exactly one request this SM
                    // emitted; the counter going dry re-opens its horizon.
                    debug_assert!(in_flight[rsp.sm.0 as usize] > 0);
                    in_flight[rsp.sm.0 as usize] -= 1;
                    calendar.wake_at(rsp.sm.0 as usize, cycle + 1);
                }
            }
        }
        phase_timer::stop(probe, phase_timer::L2_EGRESS);

        self.cycle += 1;

        // 5. Window boundary: IPC monitoring, policy decisions, throttling
        //    enforcement, and refill of freed CTA capacity. Every SM runs
        //    `end_window` (it samples stats and can change CTA status), so
        //    every SM must be stepped at the boundary cycle.
        if self.cycle == self.next_window {
            self.next_window += self.cfg.window_cycles;
            for sm in &mut self.sms {
                sm.end_window(self.cycle, &self.cfg);
            }
            self.dispatch_ctas();
            for i in 0..n_sms {
                self.calendar.wake_at(i, self.cycle);
            }
        }
    }

    /// Phase-1 horizon inputs, identical for every due SM this step: the
    /// burst cap (window edge, cycle cap) and the earliest possible
    /// inbound-delivery cycle (youngest queued response across all
    /// partitions, floored by the interconnect latency of one not yet
    /// queued). Valid to compute once up front because phase 1 never
    /// pushes into `from_l2` and never moves the window edge.
    fn horizon_inputs(&self, cycle: Cycle) -> (Cycle, Cycle) {
        let base = self.next_window.min(self.cfg.max_cycles);
        let mut t_del = cycle + self.cfg.icnt_latency as Cycle;
        for p in &self.partitions {
            if let Some(t) = p.from_l2.next_due() {
                t_del = t_del.min(t);
            }
        }
        (base, t_del)
    }

    /// Safe local-simulation horizon (exclusive) for due SM `i`: nothing
    /// external can touch the SM before it. The window boundary runs
    /// `end_window` on every SM; with requests in flight, the earliest
    /// possible inbound delivery is `t_del` — and a delivery at cycle `t`
    /// lands after the SM's own phase-1 view of `t`, so the SM may locally
    /// simulate through `t` itself. Without bursting, exactly one cycle.
    fn sm_horizon(&self, i: usize, cycle: Cycle, base_h: Cycle, t_del: Cycle) -> Cycle {
        if self.burst {
            let mut h = base_h;
            if self.in_flight[i] > 0 {
                h = h.min(t_del + 1);
            }
            h.max(cycle + 1)
        } else {
            cycle + 1
        }
    }

    /// Phase-1 flush of SM `i`'s held outbox batches: every batch stamped
    /// at or before `cycle` enters the interconnect now (this global step
    /// *is* its emission cycle), then the flush slot re-arms at the next
    /// held stamp or parks.
    fn flush_pending(&mut self, i: usize, cycle: Cycle) {
        if self.pending_out[i].front().is_none_or(|(stamp, _)| *stamp > cycle) {
            return;
        }
        let n_sms = self.sms.len();
        let n_parts = self.partitions.len();
        let part_mask = self.part_mask;
        while let Some((stamp, _)) = self.pending_out[i].front() {
            if *stamp > cycle {
                break;
            }
            let (_, mut batch) = self.pending_out[i].pop_front().unwrap();
            for req in batch.drain(..) {
                self.partitions[(req.line.0 & part_mask) as usize].to_l2.push(req, cycle);
            }
            self.sms[i].outbox_pool.push(batch); // keep the allocation
        }
        match self.pending_out[i].front() {
            Some((stamp, _)) => self.calendar.schedule(n_sms + n_parts + i, *stamp),
            None => self.calendar.park(n_sms + n_parts + i),
        }
    }

    /// Post-span bookkeeping for SM `i`, in SM-id order: CTA reap and
    /// refill, emission batches into the interconnect or `pending_out`,
    /// and the SM's next calendar slot.
    fn absorb_span(&mut self, i: usize, cycle: Cycle, end: Cycle, ticks: u64) {
        let n_sms = self.sms.len();
        let n_parts = self.partitions.len();
        let part_mask = self.part_mask;
        self.comp_stepped[i] += ticks;
        self.local_time[i] = end;
        // CTA reap and refill happen at the SM's local time: the span
        // ends on the cycle a CTA finishes, exactly where the per-cycle
        // loop would have reaped it.
        let sm = &mut self.sms[i];
        let completed = sm.reap_completed_ctas(end);
        if completed > 0 && self.remaining_ctas > 0 {
            // Replace finished CTAs promptly (an inactive CTA, if any,
            // was already re-activated inside the SM).
            while self.remaining_ctas > 0 && sm.wants_new_cta() {
                sm.set_next_cta_ordinal(self.cta_ordinal);
                if !sm.try_launch_cta(&self.kernel, &self.cfg) {
                    break;
                }
                self.remaining_ctas -= 1;
                self.cta_ordinal += 1;
            }
        }
        // The reap/refill block above can itself emit (a CTA limit
        // re-activation starts restore DMA, a launch may start
        // backup); those requests leave the SM at its local time, so
        // fold them in as one more emission batch stamped `end`.
        if !sm.outbox.is_empty() {
            let batch = std::mem::replace(&mut sm.outbox, sm.outbox_pool.pop().unwrap_or_default());
            sm.emissions.push((end, batch));
        }
        // Drain the span's emission batches into the interconnect,
        // steering each request to the partition owning its line
        // (power-of-two interleave). Batches are stamped with their
        // emission cycle in non-decreasing order; ones from the past
        // of the global clock (at most the span's first tick and the
        // reap above can produce them) go straight in, future ones
        // wait for their flush slot.
        if !sm.emissions.is_empty() {
            for k in 0..sm.emissions.len() {
                let stamp = sm.emissions[k].0;
                let mut batch = std::mem::take(&mut sm.emissions[k].1);
                self.in_flight[i] += batch.len() as u32;
                if stamp <= cycle {
                    for req in batch.drain(..) {
                        self.partitions[(req.line.0 & part_mask) as usize].to_l2.push(req, cycle);
                    }
                    sm.outbox_pool.push(batch);
                } else {
                    self.pending_out[i].push_back((stamp, batch));
                }
            }
            sm.emissions.clear();
            if let Some((stamp, _)) = self.pending_out[i].front() {
                self.calendar.wake_at(n_sms + n_parts + i, *stamp);
            }
        }
        let due = self.sms[i].next_due(end).unwrap_or(Cycle::MAX);
        self.calendar.schedule(i, due);
    }

    /// Read-only view of one memory partition (tests, experiments).
    pub fn partition(&self, p: u32) -> &MemPartition {
        &self.partitions[p as usize]
    }

    /// Number of memory partitions.
    pub fn n_partitions(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// One-line snapshot of queue depths (debugging stalls); memory-side
    /// depths are summed over the partitions.
    pub fn debug_queues(&self) -> String {
        let sm0 = &self.sms[0];
        let dram: usize = self.partitions.iter().map(|p| p.dram.pending()).sum();
        let to_l2: usize = self.partitions.iter().map(|p| p.to_l2.in_flight()).sum();
        let from_l2: usize = self.partitions.iter().map(|p| p.from_l2.in_flight()).sum();
        format!(
            "cycle={} dram={} to_l2={} from_l2={} l1_mshr(sm0)={} sm0_active={} sm0_inactive={}",
            self.cycle,
            dram,
            to_l2,
            from_l2,
            sm0.l1.mshrs_ref().in_flight(),
            sm0.active_ctas(),
            sm0.inactive_ctas(),
        )
    }

    /// Merges per-SM stats, computes energy, and returns the run summary.
    pub fn collect_stats(&mut self) -> SimStats {
        let mut total =
            SimStats { cycles: self.cycle, completed: self.done(), ..SimStats::default() };
        // Front-end counters owned by the SMs (descriptor cache, per-phase
        // cycle attribution); summed here, carried into the merged events.
        let mut desc_hits = 0u64;
        let mut desc_misses = 0u64;
        let mut desc_entries = 0u64;
        let mut desc_bytes = 0u64;
        let mut sm_lsu_busy_cycles = 0u64;
        let mut sm_issue_scan_cycles = 0u64;
        let mut burst = ProfileEvents::default();
        for sm in &mut self.sms {
            sm.finalize_stats();
            let s = &sm.stats;
            desc_hits += s.events.desc_hits;
            desc_misses += s.events.desc_misses;
            desc_entries += s.events.desc_entries;
            desc_bytes += s.events.desc_bytes;
            sm_lsu_busy_cycles += s.events.sm_lsu_busy_cycles;
            sm_issue_scan_cycles += s.events.sm_issue_scan_cycles;
            burst.sm_bursts += s.events.sm_bursts;
            burst.sm_burst_cycles += s.events.sm_burst_cycles;
            burst.sm_burst_len_1 += s.events.sm_burst_len_1;
            burst.sm_burst_len_2_3 += s.events.sm_burst_len_2_3;
            burst.sm_burst_len_4_7 += s.events.sm_burst_len_4_7;
            burst.sm_burst_len_8_15 += s.events.sm_burst_len_8_15;
            burst.sm_burst_len_16_63 += s.events.sm_burst_len_16_63;
            burst.sm_burst_len_64p += s.events.sm_burst_len_64p;
            burst.sm_lsu_batched += s.events.sm_lsu_batched;
            total.instructions += s.instructions;
            total.l1_hits += s.l1_hits;
            total.miss_cold += s.miss_cold;
            total.miss_2c += s.miss_2c;
            total.bypasses += s.bypasses;
            total.reg_hits += s.reg_hits;
            total.stores += s.stores;
            total.rf_reads += s.rf_reads;
            total.rf_writes += s.rf_writes;
            total.rf_bank_conflicts += s.rf_bank_conflicts;
            total.mshr_stalls += s.mshr_stalls;
            total.policy_extra_pj += s.policy_extra_pj;
            total.monitor_periods = total.monitor_periods.max(s.monitor_periods);
            total.merge_per_load_dense(&s.per_load_dense);
            // RF samples: averaged per SM, then concatenated (homogeneous).
            total.rf_samples.extend(s.rf_samples.iter().copied());
            total.timeline.extend(s.timeline.iter().copied());
            total.merge_load_detail_dense(&s.load_detail_dense);
        }
        // Per-access accounting is dense; the map-shaped public views are
        // produced once, here.
        total.materialize_maps();
        let n_sms = self.sms.len();
        let n_parts = self.partitions.len();
        let l2_requests: u64 = self.partitions.iter().map(|p| p.l2_access_count()).sum();
        let dram_services: u64 = self.partitions.iter().map(|p| p.dram_services()).sum();
        let icnt_delivered: u64 =
            self.partitions.iter().map(|p| p.to_l2.delivered() + p.from_l2.delivered()).sum();
        let dram_stepped: u64 = self.comp_stepped[n_sms..n_sms + n_parts].iter().sum();
        let icnt_stepped: u64 =
            self.comp_stepped[n_sms + n_parts..n_sms + 3 * n_parts].iter().sum();
        total.events = ProfileEvents {
            stepped_cycles: self.stepped_cycles,
            skipped_cycles: self.skipped_cycles,
            skip_jumps: self.skip_jumps,
            l2_requests,
            dram_services,
            icnt_delivered,
            dispatch_passes: self.dispatch_passes,
            // Each component is either stepped or slept every simulated
            // cycle, so slept counts are derived, never maintained. DRAM
            // and icnt totals count every channel/queue instance, so their
            // stepped + slept sums equal `n_parts * cycles` (resp.
            // `2 * n_parts * cycles`).
            sm_stepped_cycles: self.comp_stepped[..n_sms].iter().sum(),
            sm_slept_cycles: n_sms as u64 * self.cycle
                - self.comp_stepped[..n_sms].iter().sum::<u64>(),
            dram_stepped_cycles: dram_stepped,
            dram_slept_cycles: n_parts as u64 * self.cycle - dram_stepped,
            icnt_stepped_cycles: icnt_stepped,
            icnt_slept_cycles: 2 * n_parts as u64 * self.cycle - icnt_stepped,
            skip_to_sm: self.skip_to_sm,
            skip_to_dram: self.skip_to_dram,
            skip_to_icnt: self.skip_to_icnt,
            skip_to_window: self.skip_to_window,
            skip_to_max: self.skip_to_max,
            desc_hits,
            desc_misses,
            desc_entries,
            desc_bytes,
            sm_lsu_busy_cycles,
            sm_issue_scan_cycles,
            sm_bursts: burst.sm_bursts,
            sm_burst_cycles: burst.sm_burst_cycles,
            sm_burst_len_1: burst.sm_burst_len_1,
            sm_burst_len_2_3: burst.sm_burst_len_2_3,
            sm_burst_len_4_7: burst.sm_burst_len_4_7,
            sm_burst_len_8_15: burst.sm_burst_len_8_15,
            sm_burst_len_16_63: burst.sm_burst_len_16_63,
            sm_burst_len_64p: burst.sm_burst_len_64p,
            sm_lsu_batched: burst.sm_lsu_batched,
        };
        // Per-partition breakdown, indexed by partition id.
        total.partitions = (0..n_parts)
            .map(|p| {
                let part = &self.partitions[p];
                let (l2_hits, l2_misses) = part.l2.hit_miss();
                PartitionCounters {
                    l2_accesses: part.l2_access_count(),
                    l2_hits,
                    l2_misses,
                    dram_services: part.dram_services(),
                    dram_bytes: part.dram.traffic_bytes(),
                    icnt_delivered: part.to_l2.delivered() + part.from_l2.delivered(),
                    dram_stepped_cycles: self.comp_stepped[n_sms + p],
                    to_l2_stepped_cycles: self.comp_stepped[n_sms + n_parts + p],
                    from_l2_stepped_cycles: self.comp_stepped[n_sms + 2 * n_parts + p],
                }
            })
            .collect();
        for part in &total.partitions {
            total.l2_hits += part.l2_hits;
            total.l2_misses += part.l2_misses;
            for (acc, b) in total.dram_bytes.iter_mut().zip(part.dram_bytes) {
                *acc += b;
            }
        }
        let activity = Activity {
            cycles: total.cycles,
            n_sms: self.cfg.n_sms,
            instructions: total.instructions,
            rf_accesses: total.rf_reads + total.rf_writes,
            l1_accesses: total.mem_accesses() + total.stores,
            l2_accesses: l2_requests,
            dram_bytes: total.dram_bytes.iter().sum(),
            policy_extra_pj: total.policy_extra_pj,
        };
        total.energy_mj = self.cfg.energy.total_mj(&activity);
        total
    }

    /// Collects the per-warp streams recorded by a capture run. Each stream
    /// executes on exactly one SM, so the merge picks, per grid-wide stream
    /// index, the single SM whose recorder holds its ops; a stream no SM
    /// recorded (its CTA never launched) stays empty for the caller's
    /// completeness check.
    fn take_capture(&mut self) -> Vec<WarpStream> {
        let n = self.kernel.grid_ctas as usize * self.kernel.warps_per_cta as usize;
        let mut merged = vec![WarpStream::default(); n];
        for sm in &mut self.sms {
            if let Some(cap) = sm.take_capture() {
                for (i, s) in cap.into_iter().enumerate() {
                    if !s.ops.is_empty() {
                        merged[i] = s;
                    }
                }
            }
        }
        merged
    }
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("cycle", &self.cycle)
            .field("kernel", &self.kernel.name)
            .field("remaining_ctas", &self.remaining_ctas)
            .finish()
    }
}

/// Convenience: run `kernel` on `cfg` with the given policy factory.
///
/// # Thread safety
///
/// `run_kernel` is a pure function of its inputs: it allocates a fresh
/// [`Gpu`] (no globals, no interior mutability shared across calls) and the
/// simulation is bit-deterministic for a given `(cfg, kernel, factory)`.
/// All inputs are `Send + Sync` ([`GpuConfig`]/[`KernelSpec`] are plain
/// data; [`PolicyFactory`] requires it by definition), so independent runs
/// may execute concurrently on a worker pool — this is what the `lb-bench`
/// run engine does — and produce byte-identical statistics regardless of
/// thread count or completion order.
pub fn run_kernel(cfg: GpuConfig, kernel: KernelSpec, factory: &PolicyFactory<'_>) -> SimStats {
    Gpu::new(cfg, kernel, factory).run()
}

/// Like [`run_kernel`], but capturing microarchitectural events through
/// `tracer`. With `Tracer::off()` this is exactly `run_kernel`: the emit
/// sites reduce to a single dead branch each, and the simulated state —
/// and therefore the returned stats — is untouched either way (tracing is
/// strictly observational).
///
/// The caller keeps a clone of the handle and calls `Tracer::finish()`
/// (or `take_bytes()` for memory sinks) after this returns.
pub fn run_kernel_traced(
    cfg: GpuConfig,
    kernel: KernelSpec,
    factory: &PolicyFactory<'_>,
    tracer: Tracer,
) -> SimStats {
    Gpu::new_traced(cfg, kernel, factory, tracer).run()
}

/// Runs a replay workload to completion: every warp executes its recorded
/// stream through the unmodified pipeline. Deterministic and thread-safe on
/// the same terms as [`run_kernel`]; the shared [`ReplayKernel`] is
/// read-only throughout.
pub fn run_replay_kernel(
    cfg: GpuConfig,
    rep: &Arc<ReplayKernel>,
    factory: &PolicyFactory<'_>,
) -> SimStats {
    Gpu::new_replay(cfg, Arc::clone(rep), factory).run()
}

/// Like [`run_replay_kernel`], but capturing microarchitectural events
/// through `tracer` (strictly observational, as in [`run_kernel_traced`]).
pub fn run_replay_kernel_traced(
    cfg: GpuConfig,
    rep: &Arc<ReplayKernel>,
    factory: &PolicyFactory<'_>,
    tracer: Tracer,
) -> SimStats {
    Gpu::new_inner(cfg, rep.stub.clone(), Some(Arc::clone(rep)), false, factory, tracer).run()
}

/// Runs `kernel` synthetically while recording every warp's issue-order
/// instruction/address stream, returning the run's stats and the recorded
/// [`ReplayKernel`]. Fails if the run hits the cycle cap (the streams would
/// be truncated) or any warp never executed (the grid exceeds one dispatch
/// wave, so stream placement would not be policy-invariant).
pub fn capture_kernel(
    cfg: GpuConfig,
    kernel: KernelSpec,
    factory: &PolicyFactory<'_>,
) -> Result<(SimStats, ReplayKernel), CaptureError> {
    let stub = kernel.clone();
    let mut gpu = Gpu::new_inner(cfg, kernel, None, true, factory, Tracer::off());
    let stats = gpu.run();
    if !stats.completed {
        return Err(CaptureError::Incomplete { cycles: stats.cycles });
    }
    let streams = gpu.take_capture();
    if let Some(i) = streams.iter().position(|s| s.ops.is_empty()) {
        return Err(CaptureError::EmptyStream { stream: i });
    }
    Ok((stats, ReplayKernel { stub, streams }))
}

/// Replays `rep` while re-capturing the executed streams. A faithful replay
/// re-captures exactly what it consumed, so encoding the result must be
/// byte-identical to the input file — the self-check `ci/replay_smoke.sh`
/// runs on every captured corpus.
pub fn run_replay_capture(
    cfg: GpuConfig,
    rep: &Arc<ReplayKernel>,
    factory: &PolicyFactory<'_>,
) -> Result<(SimStats, ReplayKernel), CaptureError> {
    let mut gpu =
        Gpu::new_inner(cfg, rep.stub.clone(), Some(Arc::clone(rep)), true, factory, Tracer::off());
    let stats = gpu.run();
    if !stats.completed {
        return Err(CaptureError::Incomplete { cycles: stats.cycles });
    }
    let streams = gpu.take_capture();
    if let Some(i) = streams.iter().position(|s| s.ops.is_empty()) {
        return Err(CaptureError::EmptyStream { stream: i });
    }
    Ok((stats, ReplayKernel { stub: rep.stub.clone(), streams }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use crate::pattern::AccessPattern;
    use crate::policy::baseline_factory;

    fn fast_cfg() -> GpuConfig {
        GpuConfig::default().with_sms(2).with_windows(5_000, 60_000)
    }

    fn cache_friendly_kernel() -> KernelSpec {
        KernelBuilder::new("friendly")
            .grid(8, 4)
            .regs_per_thread(32)
            .load_then_use(AccessPattern::reuse_working_set(8 * 1024, true), 2)
            .alu(4)
            .iterations(300)
            .build()
            .unwrap()
    }

    #[test]
    fn small_kernel_completes() {
        let k = KernelBuilder::new("tiny")
            .grid(4, 2)
            .regs_per_thread(16)
            .alu(2)
            .iterations(10)
            .build()
            .unwrap();
        let stats = run_kernel(fast_cfg(), k, &baseline_factory());
        assert!(stats.completed, "tiny ALU kernel must drain");
        // 4 CTAs x 2 warps x 1 body instruction x 10 iterations.
        assert_eq!(stats.instructions, 4 * 2 * 10);
    }

    #[test]
    fn memory_kernel_produces_hits_and_misses() {
        let stats = run_kernel(fast_cfg(), cache_friendly_kernel(), &baseline_factory());
        assert!(stats.mem_accesses() > 1000);
        assert!(stats.l1_hits > 0, "8 KB shared working set must hit in 48 KB L1");
        assert!(stats.miss_cold > 0, "first touches are cold misses");
        assert!(stats.ipc() > 0.1, "ipc = {}", stats.ipc());
    }

    #[test]
    fn streaming_kernel_mostly_misses() {
        let k = KernelBuilder::new("stream")
            .grid(8, 4)
            .regs_per_thread(32)
            .load_then_use(AccessPattern::streaming(128), 2)
            .alu(4)
            .iterations(200)
            .build()
            .unwrap();
        let stats = run_kernel(fast_cfg(), k, &baseline_factory());
        assert!(
            stats.miss_ratio() > 0.9,
            "streaming load should thrash: miss ratio {}",
            stats.miss_ratio()
        );
    }

    #[test]
    fn thrashing_working_set_has_capacity_misses() {
        let k = KernelBuilder::new("thrash")
            .grid(8, 8)
            .regs_per_thread(32)
            .load_then_use(AccessPattern::reuse_working_set(256 * 1024, true), 2)
            .alu(2)
            .iterations(400)
            .build()
            .unwrap();
        let stats = run_kernel(fast_cfg(), k, &baseline_factory());
        assert!(
            stats.miss_2c > stats.miss_cold,
            "a 256 KB set in a 48 KB cache must produce capacity misses (2c={} cold={})",
            stats.miss_2c,
            stats.miss_cold
        );
    }

    #[test]
    fn dram_traffic_accounted() {
        let stats = run_kernel(fast_cfg(), cache_friendly_kernel(), &baseline_factory());
        assert!(stats.dram_bytes[0] > 0, "demand reads must reach DRAM");
    }

    #[test]
    fn energy_positive() {
        let stats = run_kernel(fast_cfg(), cache_friendly_kernel(), &baseline_factory());
        assert!(stats.energy_mj > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_kernel(fast_cfg(), cache_friendly_kernel(), &baseline_factory());
        let b = run_kernel(fast_cfg(), cache_friendly_kernel(), &baseline_factory());
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l1_hits, b.l1_hits);
        assert_eq!(a.miss_2c, b.miss_2c);
    }

    #[test]
    fn capture_replay_round_trip_matches() {
        let cfg = fast_cfg();
        let k = KernelBuilder::new("rt")
            .grid(4, 2)
            .regs_per_thread(16)
            .load_then_use(AccessPattern::reuse_working_set(8 * 1024, true), 2)
            .alu(2)
            .iterations(50)
            .build()
            .unwrap();
        // One-wave grid: every CTA places at construction time, so stream
        // placement is identical in the direct, capture and replay runs.
        assert!(crate::replay::resident_ctas(&cfg, &k) * cfg.n_sms >= k.grid_ctas);
        let direct = run_kernel(cfg.clone(), k.clone(), &baseline_factory());
        let (cap_stats, rep) = capture_kernel(cfg.clone(), k, &baseline_factory()).unwrap();
        rep.validate().unwrap();
        assert_eq!(direct.instructions, cap_stats.instructions);
        assert_eq!(direct.cycles, cap_stats.cycles);
        let rep = std::sync::Arc::new(rep);
        let replayed = run_replay_kernel(cfg, &rep, &baseline_factory());
        assert!(replayed.completed);
        assert_eq!(direct.cycles, replayed.cycles);
        assert_eq!(direct.instructions, replayed.instructions);
        assert_eq!(direct.l1_hits, replayed.l1_hits);
        assert_eq!(direct.miss_cold, replayed.miss_cold);
        assert_eq!(direct.miss_2c, replayed.miss_2c);
        assert_eq!(direct.stores, replayed.stores);
        assert_eq!(direct.rf_reads, replayed.rf_reads);
        assert_eq!(direct.rf_writes, replayed.rf_writes);
        // Replay-with-capture reproduces the consumed streams exactly.
        let (_, rep2) = run_replay_capture(fast_cfg(), &rep, &baseline_factory()).unwrap();
        assert_eq!(*rep, rep2);
    }

    #[test]
    fn capture_rejects_truncated_run() {
        let cfg = GpuConfig::default().with_sms(1).with_windows(1_000, 3_000);
        let k = KernelBuilder::new("long")
            .grid(2, 2)
            .regs_per_thread(16)
            .load_then_use(AccessPattern::streaming(128), 1)
            .iterations(100_000)
            .build()
            .unwrap();
        match capture_kernel(cfg, k, &baseline_factory()) {
            Err(crate::replay::CaptureError::Incomplete { cycles }) => assert!(cycles <= 3_000),
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn cycle_cap_respected() {
        let cfg = GpuConfig::default().with_sms(1).with_windows(1_000, 3_000);
        let k = KernelBuilder::new("long")
            .grid(64, 8)
            .regs_per_thread(32)
            .load_then_use(AccessPattern::streaming(128), 1)
            .iterations(100_000)
            .build()
            .unwrap();
        let stats = run_kernel(cfg, k, &baseline_factory());
        assert!(!stats.completed);
        assert!(stats.cycles <= 3_000);
    }
}

//! The Linebacker policy: ties the Load Monitor, Victim Tag Table, and CTA
//! Throttling Logic into the simulator's [`SmPolicy`] extension point.

use gpu_sim::config::GpuConfig;
use gpu_sim::kernel::KernelSpec;
use gpu_sim::policy::{MissService, PolicyCtx, PolicyFactory, SmPolicy, WindowInfo};
use gpu_sim::types::{CtaId, LineAddr, LoadId, Pc, RegNum, SmId};

use crate::config::{LbConfig, LbMode};
use crate::ctl::{CtaManager, IpcMonitor};
use crate::load_monitor::{LmPhase, LoadMonitor};
use crate::vtt::Vtt;

/// Execution phase of the Linebacker state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Per-load locality monitoring (tag-only VTT).
    Monitoring,
    /// High-locality loads selected; victim caching active.
    VictimCaching,
    /// No locality found: Linebacker disabled for this kernel.
    Disabled,
}

/// Linebacker for one SM.
///
/// # Examples
///
/// ```
/// use linebacker::{LbConfig, LinebackerPolicy};
/// use gpu_sim::config::GpuConfig;
/// use gpu_sim::kernel::KernelBuilder;
/// use gpu_sim::types::SmId;
///
/// let gpu = GpuConfig::default();
/// let kernel = KernelBuilder::new("k").grid(4, 2).alu(1).build()?;
/// let lb = LinebackerPolicy::new(LbConfig::default(), SmId(0), &gpu, &kernel);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct LinebackerPolicy {
    cfg: LbConfig,
    lm: LoadMonitor,
    vtt: Vtt,
    ipc: IpcMonitor,
    cta_mgr: CtaManager,
    phase: Phase,
    /// Current throttling limit (None until throttling engages).
    limit: Option<u32>,
    /// Hashed PCs selected as high-locality (cached from the LM).
    selected: Vec<u8>,
    /// CTAs whose restore is in flight: (cta, first and last register of
    /// its range).
    restoring: Vec<(CtaId, u32, u32)>,
    /// Set after a re-activation (back-off): the next IPC improvement is
    /// explained by the back-off itself, so further throttling is latched
    /// off until IPC degrades again. Prevents throttle/activate ping-pong
    /// (the paper tuned its bounds "to prevent frequent throttling and
    /// re-activating CTAs").
    backed_off: bool,
    /// Best window IPC observed since throttling engaged.
    best_ipc: f64,
    /// Settle-window toggle: every other window skips the throttle decision
    /// so CTA-switch transients do not feed Equation 1.
    settle: bool,
    /// Per-limit IPC records collected during the probe phase.
    probe_records: Vec<(u32, f64)>,
    /// Deepest limit the probe phase will visit.
    probe_floor: u32,
    /// Probe finished; limit locked at the best-IPC level.
    locked: bool,
    /// Throttle/activate events (Figure 17 overhead accounting).
    throttle_events: u64,
}

impl LinebackerPolicy {
    /// Creates a Linebacker instance for one SM.
    pub fn new(cfg: LbConfig, _sm: SmId, gpu: &GpuConfig, kernel: &KernelSpec) -> Self {
        let mut vtt = Vtt::new(&cfg);
        let phase = if cfg.mode.selective {
            Phase::Monitoring
        } else {
            // "Victim Caching" ablation: no monitoring, preserve everything.
            vtt.set_tag_only(false);
            Phase::VictimCaching
        };
        LinebackerPolicy {
            lm: LoadMonitor::new(cfg.lm_entries, cfg.hit_threshold),
            ipc: IpcMonitor::new(cfg.ipc_upper, cfg.ipc_lower),
            cta_mgr: CtaManager::new(
                gpu.max_ctas_per_sm,
                kernel.regs_per_cta(),
                // Dedicated off-chip backup region base address.
                0x4000_0000,
            ),
            vtt,
            phase,
            limit: None,
            selected: Vec::new(),
            restoring: Vec::new(),
            backed_off: false,
            best_ipc: 0.0,
            settle: true,
            probe_records: Vec::new(),
            probe_floor: 1,
            locked: false,
            throttle_events: 0,
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LbConfig {
        &self.cfg
    }

    /// Currently selected high-locality hashed PCs.
    pub fn selected_hpcs(&self) -> &[u8] {
        &self.selected
    }

    /// Is the policy disabled (cache-insensitive kernel)?
    pub fn is_disabled(&self) -> bool {
        self.phase == Phase::Disabled
    }

    /// Shadow CTA-manager state (tests/inspection).
    pub fn cta_manager(&self) -> &CtaManager {
        &self.cta_mgr
    }

    /// Throttle/re-activate events so far.
    pub fn throttle_events(&self) -> u64 {
        self.throttle_events
    }

    fn charge(&self, ctx: &mut PolicyCtx<'_>, pj: f64) {
        ctx.stats.policy_extra_pj += pj;
    }

    /// First register number guaranteed free: above the largest active RN
    /// and above any in-flight restore range.
    fn min_free_rn(&self, ctx: &PolicyCtx<'_>) -> u32 {
        let lrn = ctx.regfile.largest_active_rn().map(|r| r.0 + 1).unwrap_or(0);
        let restoring = self.restoring.iter().map(|&(_, _, last)| last + 1).max().unwrap_or(0);
        lrn.max(restoring)
    }

    /// May victim storage use `rn`: is it neither live (see
    /// [`RegFile::is_live`](gpu_sim::regfile::RegFile::is_live)) nor inside
    /// a restore in flight? Checked at every victim insert and hit.
    fn owns(&self, rn: RegNum, ctx: &PolicyCtx<'_>) -> bool {
        !ctx.regfile.is_live(rn)
            && !self.restoring.iter().any(|&(_, first, last)| (first..=last).contains(&rn.0))
    }

    fn refresh_partitions(&mut self, ctx: &mut PolicyCtx<'_>) {
        if self.phase == Phase::VictimCaching {
            let min_free = self.min_free_rn(ctx);
            self.vtt.refresh_partitions(min_free);
        }
    }

    /// Should a victim line with this hashed PC be preserved?
    fn preserve_victim(&self, victim_hpc: u8) -> bool {
        if self.phase != Phase::VictimCaching {
            return false;
        }
        if !self.cfg.mode.selective {
            return true;
        }
        self.selected.contains(&victim_hpc)
    }
}

impl SmPolicy for LinebackerPolicy {
    fn name(&self) -> &'static str {
        "linebacker"
    }

    fn on_hit(&mut self, pc: Pc, _load: LoadId, _line: LineAddr, ctx: &mut PolicyCtx<'_>) {
        // Per-line HPC field update + LM bookkeeping.
        self.charge(ctx, self.cfg.hpc_pj);
        if self.phase == Phase::Monitoring {
            self.lm.record(pc, true);
            self.charge(ctx, self.cfg.lm_pj);
        }
    }

    fn on_miss(
        &mut self,
        pc: Pc,
        _load: LoadId,
        line: LineAddr,
        ctx: &mut PolicyCtx<'_>,
    ) -> MissService {
        match self.phase {
            Phase::Monitoring => {
                // Tag-only probe: counts as an LM hit if the tag was recently
                // evicted, but the data must still come from L2.
                self.charge(ctx, self.cfg.vtt_pj + self.cfg.lm_pj);
                let tag_hit = self.vtt.lookup(line).is_some();
                self.lm.record(pc, tag_hit);
                MissService::ToL2
            }
            Phase::VictimCaching => {
                self.charge(ctx, self.cfg.vtt_pj);
                match self.vtt.lookup(line) {
                    Some(hit) => {
                        debug_assert!(
                            self.owns(hit.rn, ctx),
                            "victim hit in live or restoring {}",
                            hit.rn
                        );
                        // Register-file read for the victim line: sequential
                        // VP searches + arbitration + bank conflicts.
                        let conflict = ctx.regfile.access(hit.rn, ctx.cycle, false);
                        let latency = (hit.vp + 1) * self.cfg.vp_access_latency + 1 + conflict;
                        MissService::VictimHit { extra_latency: latency }
                    }
                    None => MissService::ToL2,
                }
            }
            Phase::Disabled => MissService::ToL2,
        }
    }

    fn on_evict(&mut self, victim: LineAddr, victim_hpc: u8, ctx: &mut PolicyCtx<'_>) -> bool {
        match self.phase {
            Phase::Monitoring => {
                // Keep the tag so re-accesses count as would-be hits; the
                // data is not preserved in this phase.
                self.charge(ctx, self.cfg.vtt_pj);
                self.vtt.insert(victim);
                false
            }
            Phase::VictimCaching => {
                if self.preserve_victim(victim_hpc) {
                    self.charge(ctx, self.cfg.vtt_pj);
                    if let Some(rn) = self.vtt.insert(victim) {
                        debug_assert!(
                            self.owns(rn, ctx),
                            "victim insert into live or restoring {rn}"
                        );
                        // Register write of the preserved line (the
                        // register-to-register move of the paper).
                        ctx.regfile.access(rn, ctx.cycle, true);
                        return true;
                    }
                }
                false
            }
            Phase::Disabled => false,
        }
    }

    fn on_store(&mut self, line: LineAddr, ctx: &mut PolicyCtx<'_>) {
        if self.phase != Phase::Disabled {
            self.charge(ctx, self.cfg.vtt_pj);
            self.vtt.invalidate_store(line);
        }
    }

    fn on_window(&mut self, info: &WindowInfo, ctx: &mut PolicyCtx<'_>) -> Option<u32> {
        self.charge(ctx, self.cfg.cta_mgr_pj);

        // Retire completed restores (their registers are live again).
        let restoring = std::mem::take(&mut self.restoring);
        self.restoring =
            restoring.into_iter().filter(|&(cta, ..)| ctx.regfile.is_backed_up(cta)).collect();

        // Phase transitions from the Load Monitor.
        if self.phase == Phase::Monitoring {
            match self.lm.end_window().clone() {
                LmPhase::Selected(set) => {
                    self.selected = set;
                    self.phase = Phase::VictimCaching;
                    self.vtt.set_tag_only(false);
                    if self.cfg.mode.throttling {
                        // Proactive first throttle (§3.2): assume throttling
                        // helps a cache-sensitive kernel, then probe a
                        // bounded range of active-CTA counts, one per
                        // decision window, before locking at the best level.
                        let start = (info.active_ctas + info.inactive_ctas).max(1);
                        self.probe_floor = (start / 2).max(1);
                        self.probe_records.push((start, info.ipc));
                        self.limit = Some(start.saturating_sub(1).max(1));
                        self.throttle_events += 1;
                        // Prime the IPC baseline.
                        self.ipc.end_window(info.ipc);
                        self.best_ipc = info.ipc;
                    }
                }
                LmPhase::Disabled => {
                    self.phase = Phase::Disabled;
                }
                LmPhase::Monitoring => {}
            }
        } else if self.phase == Phase::VictimCaching && self.cfg.mode.throttling {
            // Alternate decision windows with settle windows: the window in
            // which a CTA switch happens is polluted by backup/restore
            // traffic and cache refill, so its IPC is not compared.
            self.settle = !self.settle;
            if self.settle {
                self.refresh_partitions(ctx);
                return self.limit;
            }
            if let Some(limit) = self.limit {
                let resident = (info.active_ctas + info.inactive_ctas).max(1);
                let _ = self.ipc.end_window(info.ipc);
                let var = self.ipc.last_var();
                self.best_ipc = self.best_ipc.max(info.ipc);
                if !self.locked {
                    // Probe phase: record this window's IPC against the
                    // limit that produced it, then step one CTA deeper —
                    // until the floor is reached or IPC collapses (>40 %
                    // below the best seen), at which point the limit locks
                    // at the best-IPC level recorded.
                    self.probe_records.push((limit, info.ipc));
                    let collapse = info.ipc < self.best_ipc * 0.6;
                    // Early abort: if three probed levels have not beaten
                    // the unthrottled starting IPC, the app does not respond
                    // to throttling — stop paying the probe cost.
                    let unpromising = self.probe_records.len() >= 4
                        && self.best_ipc <= self.probe_records[0].1 * 1.02;
                    if limit > self.probe_floor && !collapse && !unpromising {
                        self.limit = Some(limit - 1);
                        self.throttle_events += 1;
                    } else {
                        let best = self
                            .probe_records
                            .iter()
                            .copied()
                            .max_by(|a, b| a.1.total_cmp(&b.1))
                            .map(|(l, _)| l)
                            .unwrap_or(resident);
                        self.limit = Some(best.min(resident));
                        self.locked = true;
                        self.throttle_events += 1;
                    }
                } else if var < self.cfg.ipc_lower {
                    // Locked: only back off when IPC clearly degrades
                    // (Equation 1 below the lower bound), e.g. toward the
                    // kernel tail when parallelism runs out.
                    self.limit = Some((limit + 1).min(resident));
                    self.throttle_events += 1;
                    self.backed_off = true;
                }
            }
        }

        self.refresh_partitions(ctx);
        self.limit
    }

    fn on_cta_launch(&mut self, cta: CtaId, first_reg: RegNum, _ctx: &mut PolicyCtx<'_>) {
        self.cta_mgr.on_launch(cta, first_reg);
    }

    fn on_cta_deactivate(&mut self, cta: CtaId, ctx: &mut PolicyCtx<'_>) {
        self.charge(ctx, self.cfg.cta_mgr_pj);
        self.cta_mgr.begin_backup(cta);
    }

    fn on_backup_complete(&mut self, cta: CtaId, ctx: &mut PolicyCtx<'_>) {
        self.charge(ctx, self.cfg.cta_mgr_pj);
        self.cta_mgr.complete_backup(cta);
        // Freed registers may activate more victim partitions.
        self.refresh_partitions(ctx);
    }

    fn on_cta_activate(&mut self, cta: CtaId, ctx: &mut PolicyCtx<'_>) {
        self.charge(ctx, self.cfg.cta_mgr_pj);
        self.cta_mgr.begin_restore(cta);
        if let Some((first, count)) = ctx.regfile.cta_range(cta) {
            self.restoring.push((cta, first.0, first.0 + count - 1));
            self.cta_mgr.complete_restore(cta, first);
        }
        // Partitions over the restored range must release immediately so the
        // incoming register state is not clobbered by victim writes.
        self.refresh_partitions(ctx);
    }

    fn on_cta_complete(&mut self, cta: CtaId, ctx: &mut PolicyCtx<'_>) {
        self.cta_mgr.on_complete(cta);
        self.refresh_partitions(ctx);
    }

    fn victim_space_regs(&self) -> u32 {
        self.vtt.victim_regs()
    }

    fn monitor_periods(&self) -> u32 {
        if self.cfg.mode.selective {
            self.lm.windows_run()
        } else {
            0
        }
    }

    fn debug_state(&self) -> String {
        format!(
            "phase={:?} limit={:?} latched={} vps={} victim_regs={} selected={:?}",
            self.phase,
            self.limit,
            self.backed_off,
            self.vtt.active_vps(),
            self.vtt.victim_regs(),
            self.selected,
        )
    }
}

/// Builds a policy factory for Linebacker with the given configuration.
///
/// # Examples
///
/// ```
/// use linebacker::{linebacker_factory, LbConfig};
/// use gpu_sim::config::GpuConfig;
/// use gpu_sim::gpu::run_kernel;
/// use gpu_sim::kernel::KernelBuilder;
/// use gpu_sim::pattern::AccessPattern;
///
/// let kernel = KernelBuilder::new("demo")
///     .grid(4, 2)
///     .load_then_use(AccessPattern::reuse_working_set(8 * 1024, true), 2)
///     .iterations(50)
///     .build()?;
/// let cfg = GpuConfig::default().with_sms(1).with_windows(2_000, 20_000);
/// let stats = run_kernel(cfg, kernel, &linebacker_factory(LbConfig::default()));
/// assert!(stats.instructions > 0);
/// # Ok::<(), String>(())
/// ```
pub fn linebacker_factory(cfg: LbConfig) -> Box<PolicyFactory<'static>> {
    Box::new(move |sm, gpu, kernel| Box::new(LinebackerPolicy::new(cfg.clone(), sm, gpu, kernel)))
}

/// Factory for the "Victim Caching" ablation (no selection, no throttling).
pub fn victim_caching_factory() -> Box<PolicyFactory<'static>> {
    linebacker_factory(LbConfig::with_mode(LbMode::victim_caching_only()))
}

/// Factory for the "Selective Victim Caching" ablation (selection, no
/// throttling; statically-unused registers only).
pub fn selective_victim_caching_factory() -> Box<PolicyFactory<'static>> {
    linebacker_factory(LbConfig::with_mode(LbMode::selective_victim_caching()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::regfile::RegFile;
    use gpu_sim::stats::SimStats;
    use gpu_sim::types::hashed_pc5;

    fn fixture() -> (LinebackerPolicy, RegFile, SimStats, KernelSpec, GpuConfig) {
        let gpu = GpuConfig::default();
        let kernel = gpu_sim::kernel::KernelBuilder::new("k")
            .grid(8, 4)
            .regs_per_thread(32)
            .load_then_use(gpu_sim::pattern::AccessPattern::reuse_working_set(8192, true), 1)
            .iterations(10)
            .build()
            .unwrap();
        let lb = LinebackerPolicy::new(LbConfig::default(), SmId(0), &gpu, &kernel);
        let rf = RegFile::new(2048, 32, 32);
        (lb, rf, SimStats::default(), kernel, gpu)
    }

    fn window(active: u32, inactive: u32, ipc: f64, index: u32) -> WindowInfo {
        WindowInfo {
            index,
            cycles: 50_000,
            instructions: (ipc * 50_000.0) as u64,
            ipc,
            active_ctas: active,
            inactive_ctas: inactive,
        }
    }

    /// Drives the policy through monitoring to selection of `pc`.
    fn select_load(lb: &mut LinebackerPolicy, rf: &mut RegFile, stats: &mut SimStats, pc: Pc) {
        for i in 0..2 {
            for j in 0..100 {
                let mut ctx = PolicyCtx { cycle: j, sm: SmId(0), regfile: rf, stats };
                if j % 2 == 0 {
                    lb.on_hit(pc, LoadId(0), LineAddr(j), &mut ctx);
                } else {
                    lb.on_miss(pc, LoadId(0), LineAddr(1_000_000 + j), &mut ctx);
                }
            }
            let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: rf, stats };
            lb.on_window(&window(8, 0, 1.0, i), &mut ctx);
        }
    }

    #[test]
    fn monitoring_selects_high_locality_load() {
        let (mut lb, mut rf, mut stats, _, _) = fixture();
        let pc = Pc(0x40);
        select_load(&mut lb, &mut rf, &mut stats, pc);
        assert!(lb.selected_hpcs().contains(&hashed_pc5(pc)));
        assert_eq!(lb.monitor_periods(), 2);
        assert!(!lb.is_disabled());
    }

    #[test]
    fn low_locality_disables_linebacker() {
        let (mut lb, mut rf, mut stats, _, _) = fixture();
        let pc = Pc(0x40);
        for i in 0..2 {
            for j in 0..100u64 {
                let mut ctx =
                    PolicyCtx { cycle: j, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
                // All misses, and the lines never repeat: no VTT tag hits.
                lb.on_miss(pc, LoadId(0), LineAddr(10_000 + i as u64 * 1000 + j), &mut ctx);
            }
            let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
            lb.on_window(&window(8, 0, 1.0, i), &mut ctx);
        }
        assert!(lb.is_disabled());
        // Disabled: no victim service ever.
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
        assert_eq!(lb.on_miss(pc, LoadId(0), LineAddr(10_001), &mut ctx), MissService::ToL2);
    }

    #[test]
    fn monitoring_counts_vtt_tag_hits() {
        // A line evicted and re-accessed during monitoring counts as a hit
        // for the LM even though data comes from L2.
        let (mut lb, mut rf, mut stats, _, _) = fixture();
        let pc = Pc(0x40);
        for i in 0..2 {
            for j in 0..50u64 {
                let line = LineAddr(j);
                let mut ctx =
                    PolicyCtx { cycle: j, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
                // Evict the line, then miss on it: tag hit.
                lb.on_evict(line, 0, &mut ctx);
                lb.on_miss(pc, LoadId(0), line, &mut ctx);
            }
            let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
            lb.on_window(&window(8, 0, 1.0, i), &mut ctx);
        }
        assert!(!lb.is_disabled(), "VTT tag hits must qualify the load");
    }

    #[test]
    fn victim_hit_after_selection() {
        let (mut lb, mut rf, mut stats, _, _) = fixture();
        let pc = Pc(0x40);
        select_load(&mut lb, &mut rf, &mut stats, pc);
        // Preserve a victim of the selected load and re-access it.
        let line = LineAddr(777);
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
        lb.on_evict(line, hashed_pc5(pc), &mut ctx);
        let svc = lb.on_miss(pc, LoadId(0), line, &mut ctx);
        match svc {
            MissService::VictimHit { extra_latency } => {
                assert!(extra_latency >= lb.config().vp_access_latency);
            }
            other => panic!("expected VictimHit, got {other:?}"),
        }
    }

    #[test]
    fn non_selected_victims_dropped() {
        let (mut lb, mut rf, mut stats, _, _) = fixture();
        let pc = Pc(0x40);
        select_load(&mut lb, &mut rf, &mut stats, pc);
        let streaming_hpc = hashed_pc5(Pc(0x48));
        assert_ne!(streaming_hpc, hashed_pc5(pc));
        let line = LineAddr(888);
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
        lb.on_evict(line, streaming_hpc, &mut ctx);
        assert_eq!(
            lb.on_miss(pc, LoadId(0), line, &mut ctx),
            MissService::ToL2,
            "victims of unselected loads must not be preserved"
        );
    }

    #[test]
    fn store_invalidates_preserved_line() {
        let (mut lb, mut rf, mut stats, _, _) = fixture();
        let pc = Pc(0x40);
        select_load(&mut lb, &mut rf, &mut stats, pc);
        let line = LineAddr(999);
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
        lb.on_evict(line, hashed_pc5(pc), &mut ctx);
        lb.on_store(line, &mut ctx);
        assert_eq!(lb.on_miss(pc, LoadId(0), line, &mut ctx), MissService::ToL2);
    }

    #[test]
    fn proactive_throttle_after_selection() {
        let (mut lb, mut rf, mut stats, _, _) = fixture();
        select_load(&mut lb, &mut rf, &mut stats, Pc(0x40));
        // The selection window already set the proactive limit to 7; the
        // following flat window (var = 0, non-negative) descends once more.
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
        let limit = lb.on_window(&window(7, 1, 1.0, 2), &mut ctx);
        assert_eq!(limit, Some(6), "descent continues while throttling does not hurt");
    }

    #[test]
    fn probe_phase_locks_at_best_limit() {
        let (mut lb, mut rf, mut stats, _, _) = fixture();
        select_load(&mut lb, &mut rf, &mut stats, Pc(0x40));
        let mut run = |ipc: f64,
                       active: u32,
                       inactive: u32,
                       i: u32,
                       rf: &mut RegFile,
                       stats: &mut SimStats| {
            let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: rf, stats };
            lb.on_window(&window(active, inactive, ipc, i), &mut ctx)
        };
        // Selection recorded (8, 1.0) and set the proactive limit 7; probe
        // floor is 8/2 = 4. Each decision window records (limit, ipc) and
        // steps one CTA deeper; settle windows in between are ignored.
        assert_eq!(run(1.10, 7, 1, 2, &mut rf, &mut stats), Some(6)); // (7, 1.10)
        assert_eq!(run(0.10, 6, 2, 3, &mut rf, &mut stats), Some(6)); // settle
        assert_eq!(run(1.40, 6, 2, 4, &mut rf, &mut stats), Some(5)); // (6, 1.40)
        assert_eq!(run(0.10, 5, 3, 5, &mut rf, &mut stats), Some(5)); // settle
        assert_eq!(run(1.20, 5, 3, 6, &mut rf, &mut stats), Some(4)); // (5, 1.20)
        assert_eq!(run(0.10, 4, 4, 7, &mut rf, &mut stats), Some(4)); // settle
                                                                      // Floor reached: lock at the argmax of the records — limit 6.
        assert_eq!(run(0.90, 4, 4, 8, &mut rf, &mut stats), Some(6));
        // Locked: a recovering window holds.
        assert_eq!(run(0.10, 6, 2, 9, &mut rf, &mut stats), Some(6)); // settle
        assert_eq!(run(1.38, 6, 2, 10, &mut rf, &mut stats), Some(6));
        // A clear (>10 %) degradation after lock backs off one CTA.
        assert_eq!(run(0.10, 6, 2, 11, &mut rf, &mut stats), Some(6)); // settle
        assert_eq!(run(1.10, 6, 2, 12, &mut rf, &mut stats), Some(7));
    }

    #[test]
    fn victim_caching_mode_preserves_everything_immediately() {
        let gpu = GpuConfig::default();
        let kernel = gpu_sim::kernel::KernelBuilder::new("k").grid(4, 2).alu(1).build().unwrap();
        let mut lb = LinebackerPolicy::new(
            LbConfig::with_mode(LbMode::victim_caching_only()),
            SmId(0),
            &gpu,
            &kernel,
        );
        let mut rf = RegFile::new(2048, 32, 32);
        let mut stats = SimStats::default();
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
        // No monitoring: preservation works from the first cycle, with any
        // HPC value.
        lb.on_window(&window(4, 0, 1.0, 0), &mut ctx); // activates partitions
        lb.on_evict(LineAddr(5), 31, &mut ctx);
        assert!(matches!(
            lb.on_miss(Pc(0), LoadId(0), LineAddr(5), &mut ctx),
            MissService::VictimHit { .. }
        ));
        assert_eq!(lb.monitor_periods(), 0);
    }

    #[test]
    fn no_throttling_in_svc_mode() {
        let (_, mut rf, mut stats, kernel, gpu) = fixture();
        let mut lb = LinebackerPolicy::new(
            LbConfig::with_mode(LbMode::selective_victim_caching()),
            SmId(0),
            &gpu,
            &kernel,
        );
        select_load(&mut lb, &mut rf, &mut stats, Pc(0x40));
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
        assert_eq!(lb.on_window(&window(8, 0, 2.0, 5), &mut ctx), None);
    }

    #[test]
    fn partitions_track_idle_space() {
        let (mut lb, mut rf, mut stats, _, _) = fixture();
        // Allocate CTAs occupying most of the register file.
        rf.allocate_cta(CtaId(0), 900);
        rf.allocate_cta(CtaId(1), 900);
        select_load(&mut lb, &mut rf, &mut stats, Pc(0x40));
        // LRN = 1799: only registers 1800.. are idle. Partition 7 spans
        // 1855..=2046, partition 6 starts at 1663 (< 1800). So exactly 1 VP.
        assert_eq!(lb.victim_space_regs(), 192);

        // Back up CTA 1: registers 900..1799 freed.
        rf.mark_backed_up(CtaId(1));
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
        lb.on_backup_complete(CtaId(1), &mut ctx);
        // Now idle from 900: partitions with first RN >= 900 are 3..=7
        // (vp2 first RN 895 < 900), i.e. 5 partitions.
        assert_eq!(lb.victim_space_regs(), 5 * 192);
    }

    #[test]
    fn restore_releases_partitions_before_data_arrives() {
        let (mut lb, mut rf, mut stats, _, _) = fixture();
        rf.allocate_cta(CtaId(0), 900);
        rf.allocate_cta(CtaId(1), 900);
        select_load(&mut lb, &mut rf, &mut stats, Pc(0x40));
        rf.mark_backed_up(CtaId(1));
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
        lb.on_backup_complete(CtaId(1), &mut ctx);
        assert_eq!(lb.victim_space_regs(), 5 * 192);
        // Begin re-activation: partitions over 900..1799 must release NOW.
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
        lb.on_cta_activate(CtaId(1), &mut ctx);
        assert_eq!(lb.victim_space_regs(), 192);
    }

    #[test]
    fn energy_charged_for_structures() {
        let (mut lb, mut rf, mut stats, _, _) = fixture();
        select_load(&mut lb, &mut rf, &mut stats, Pc(0x40));
        assert!(stats.policy_extra_pj > 0.0);
    }

    #[test]
    fn cta_manager_shadows_launch() {
        let (mut lb, mut rf, mut stats, _, _) = fixture();
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut stats };
        lb.on_cta_launch(CtaId(0), RegNum(0), &mut ctx);
        assert!(lb.cta_manager().entry(CtaId(0)).active);
    }
}

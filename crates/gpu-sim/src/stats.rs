//! Simulation statistics: everything the paper's figures are built from.
//!
//! Per-access accounting is allocation-free on the hot path: per-load
//! counters accumulate in dense `Vec`s indexed by the static load ordinal
//! (load ids are small dense integers assigned by
//! [`KernelBuilder`](crate::kernel::KernelBuilder)), and the map-shaped
//! public views (`per_load`, `load_detail`) are materialized once, at
//! [`Gpu::collect_stats`](crate::gpu::Gpu::collect_stats).

use std::collections::HashMap;

use crate::types::{AccessOutcome, LoadId, MissClass};

/// Per-static-load counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Dynamic line accesses made by the load.
    pub accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// Misses serviced by L2/DRAM.
    pub misses: u64,
    /// Hits in register-file victim storage.
    pub reg_hits: u64,
    /// Accesses that bypassed L1.
    pub bypasses: u64,
}

/// Detailed per-load, per-window locality data (only collected when
/// `GpuConfig::detailed_load_stats` is set; feeds Figures 2 and 3).
#[derive(Debug, Clone, Default)]
pub struct LoadWindowDetail {
    /// Per line: access count within the current window.
    pub line_counts: HashMap<u64, u32>,
    /// Completed-window results: (reused_ws_bytes, streamed_bytes, accesses,
    /// distinct_lines).
    pub windows: Vec<WindowLocality>,
    /// The load was touched at least once. Dense slots exist for every load
    /// ordinal; only touched ones appear in the materialized public map
    /// (matching the key set the per-access map inserts used to produce).
    pub(crate) touched: bool,
}

/// Locality summary of one monitoring window for one load.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowLocality {
    /// Bytes of lines re-accessed (>=2 times) within the window — the
    /// "reused working set" of Figure 2.
    pub reused_ws_bytes: u64,
    /// Bytes of lines touched exactly once (streaming candidates).
    pub single_use_bytes: u64,
    /// Total line accesses in the window.
    pub accesses: u64,
    /// Distinct lines in the window. With an infinite cache, misses =
    /// distinct lines, so the paper's ">95 % miss with infinite cache"
    /// streaming test is `distinct_lines as f64 / accesses as f64 > 0.95`.
    pub distinct_lines: u64,
}

impl WindowLocality {
    /// The paper's streaming-load test (§2.3): more than 95 % of window
    /// accesses would miss even with an infinite cache.
    pub fn is_streaming(&self) -> bool {
        self.accesses > 0 && self.distinct_lines as f64 / self.accesses as f64 > 0.95
    }
}

/// Register-file space sample (per window).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RfSpaceSample {
    /// Statically unused warp registers.
    pub static_unused: u32,
    /// Dynamically unused warp registers (throttled CTAs).
    pub dynamic_unused: u32,
    /// Warp registers actively used as victim storage.
    pub victim_in_use: u32,
}

/// One point of the per-window execution timeline of one SM.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowSample {
    /// SM the sample came from.
    pub sm: u32,
    /// Zero-based window index.
    pub window: u32,
    /// Warp-IPC of the window.
    pub ipc: f64,
    /// L1 + victim hit fraction of the window's accesses.
    pub hit_fraction: f64,
    /// Active (schedulable) CTAs at the window boundary.
    pub active_ctas: u32,
    /// Warp registers used as victim storage at the window boundary.
    pub victim_regs: u32,
}

/// Hot-path event counters filled by the built-in profiler (zero-cost to
/// maintain; reported by `lb-experiments --profile`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileEvents {
    /// Cycles advanced one at a time through the full pipeline.
    pub stepped_cycles: u64,
    /// Cycles fast-forwarded by the idle-cycle skipper.
    pub skipped_cycles: u64,
    /// Number of fast-forward jumps taken.
    pub skip_jumps: u64,
    /// Requests handled at the L2 (demand + bypass + stores + reg traffic).
    pub l2_requests: u64,
    /// DRAM requests completing service.
    pub dram_services: u64,
    /// Messages delivered by the two interconnect queues.
    pub icnt_delivered: u64,
    /// CTA dispatch passes over the SM array.
    pub dispatch_passes: u64,
    /// SM-cycles actually executed (summed over SMs; an SM ticked on a
    /// stepped cycle counts 1).
    pub sm_stepped_cycles: u64,
    /// SM-cycles slept: the SM was gated by the component calendar on a
    /// stepped cycle, or the whole GPU fast-forwarded past the cycle.
    /// For every SM, stepped + slept == total cycles.
    pub sm_slept_cycles: u64,
    /// Cycles the DRAM controller was ticked.
    pub dram_stepped_cycles: u64,
    /// Cycles the DRAM controller was gated or fast-forwarded past.
    pub dram_slept_cycles: u64,
    /// Queue-cycles either interconnect queue delivered (two queues, so
    /// stepped + slept == 2 × total cycles).
    pub icnt_stepped_cycles: u64,
    /// Queue-cycles either interconnect queue was gated or skipped.
    pub icnt_slept_cycles: u64,
    /// Fast-forward jumps whose target was an SM's next-due cycle.
    pub skip_to_sm: u64,
    /// Fast-forward jumps whose target was the DRAM's next-due cycle.
    pub skip_to_dram: u64,
    /// Fast-forward jumps whose target was an interconnect delivery.
    pub skip_to_icnt: u64,
    /// Fast-forward jumps capped at the monitoring-window boundary.
    pub skip_to_window: u64,
    /// Fast-forward jumps capped at `max_cycles`.
    pub skip_to_max: u64,
    /// Decoded access-descriptor cache hits (load/store executions that
    /// replayed an interned descriptor instead of regenerating addresses).
    pub desc_hits: u64,
    /// Descriptor-cache misses (first execution of a (warp slot, load) pair
    /// since its CTA launched: decode + intern).
    pub desc_misses: u64,
    /// Descriptor-table entries populated at run end (summed over SMs).
    pub desc_entries: u64,
    /// Bytes reserved by the descriptor tables (summed over SMs).
    pub desc_bytes: u64,
    /// SM-cycles the load/store unit entered with queued work (per-phase
    /// attribution of `sm_stepped_cycles`).
    pub sm_lsu_busy_cycles: u64,
    /// SM-cycles the issue stage ran a real candidate scan (not
    /// short-circuited by the sleep horizon).
    pub sm_issue_scan_cycles: u64,
    /// Local-clock spans executed (one per `Sm::tick_span` call; a span of
    /// length 1 is an ordinary single-cycle tick).
    pub sm_bursts: u64,
    /// SM-cycles simulated inside local-clock spans (equals
    /// `sm_stepped_cycles`; the ratio to `sm_bursts` is the mean burst
    /// length).
    pub sm_burst_cycles: u64,
    /// Span-length histogram: spans of exactly 1 cycle.
    pub sm_burst_len_1: u64,
    /// Span-length histogram: spans of 2–3 cycles.
    pub sm_burst_len_2_3: u64,
    /// Span-length histogram: spans of 4–7 cycles.
    pub sm_burst_len_4_7: u64,
    /// Span-length histogram: spans of 8–15 cycles.
    pub sm_burst_len_8_15: u64,
    /// Span-length histogram: spans of 16–63 cycles.
    pub sm_burst_len_16_63: u64,
    /// Span-length histogram: spans of 64 cycles or more.
    pub sm_burst_len_64p: u64,
    /// LSU queue entries serviced on a locally simulated cycle (no global
    /// step was paid for them).
    pub sm_lsu_batched: u64,
}

/// Counters of one memory partition (L2 slice + DRAM channel + icnt queue
/// pair), reported per partition so imbalance across the address interleave
/// is observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionCounters {
    /// L2 slice accesses (lookups + fills).
    pub l2_accesses: u64,
    /// L2 slice tag hits.
    pub l2_hits: u64,
    /// L2 slice tag misses.
    pub l2_misses: u64,
    /// DRAM transactions completed by this channel.
    pub dram_services: u64,
    /// Channel bytes per traffic class
    /// (demand-read, store-write, reg-backup, reg-restore).
    pub dram_bytes: [u64; 4],
    /// Messages delivered by this partition's two interconnect queues.
    pub icnt_delivered: u64,
    /// Cycles this partition's DRAM channel was stepped (not slept).
    pub dram_stepped_cycles: u64,
    /// Cycles this partition's request queue was stepped.
    pub to_l2_stepped_cycles: u64,
    /// Cycles this partition's response queue was stepped.
    pub from_l2_stepped_cycles: u64,
}

impl PartitionCounters {
    /// Total bytes moved by this channel over all traffic classes.
    pub fn dram_total_bytes(&self) -> u64 {
        self.dram_bytes.iter().sum()
    }
}

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Warp instructions executed (one warp instruction = up to 32 thread
    /// instructions; IPC here is warp-IPC, consistent across configs).
    pub instructions: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// Cold misses.
    pub miss_cold: u64,
    /// Capacity/conflict misses.
    pub miss_2c: u64,
    /// Accesses that bypassed L1.
    pub bypasses: u64,
    /// Victim/register hits ("Reg hit" in Figure 13).
    pub reg_hits: u64,
    /// Store line-writes issued.
    pub stores: u64,
    /// L2 hits / misses.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Register file reads.
    pub rf_reads: u64,
    /// Register file writes.
    pub rf_writes: u64,
    /// Register file bank conflicts.
    pub rf_bank_conflicts: u64,
    /// MSHR structural stalls.
    pub mshr_stalls: u64,
    /// DRAM bytes per traffic class (demand, store, backup, restore).
    pub dram_bytes: [u64; 4],
    /// Per-load counters, keyed by static load id. Only materialized (from
    /// [`SimStats::per_load_dense`]) when a run's stats are collected;
    /// per-SM accumulators leave it empty.
    pub per_load: HashMap<u32, LoadStats>,
    /// Dense per-load accumulators indexed by static load ordinal — the
    /// allocation-free hot path behind [`SimStats::per_load`].
    pub per_load_dense: Vec<LoadStats>,
    /// Per-window RF space samples (averaged for Figures 4 and 9).
    pub rf_samples: Vec<RfSpaceSample>,
    /// Per-window execution timeline (IPC, hit fraction, active CTAs,
    /// victim space), one sample per SM per window.
    pub timeline: Vec<WindowSample>,
    /// Monitoring periods the policy spent finding high-locality loads
    /// (Figure 9's parenthesized numbers); set by the policy.
    pub monitor_periods: u32,
    /// Extra energy charged by policy structures, in pJ.
    pub policy_extra_pj: f64,
    /// Detailed per-load locality windows (Figures 2/3), if enabled. Like
    /// [`SimStats::per_load`], materialized only at collection time.
    pub load_detail: HashMap<u32, LoadWindowDetail>,
    /// Dense accumulators behind [`SimStats::load_detail`].
    pub load_detail_dense: Vec<LoadWindowDetail>,
    /// Hot-path profiler event counters (whole-GPU; filled at run end).
    pub events: ProfileEvents,
    /// Per-memory-partition counters, indexed by partition id (length
    /// `n_mem_partitions`; filled at run end).
    pub partitions: Vec<PartitionCounters>,
    /// Total energy in mJ (filled at run end).
    pub energy_mj: f64,
    /// Whether the kernel fully drained before `max_cycles`.
    pub completed: bool,
}

impl SimStats {
    /// Warp instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Total L1-visible memory accesses (all outcomes).
    pub fn mem_accesses(&self) -> u64 {
        self.l1_hits + self.miss_cold + self.miss_2c + self.bypasses + self.reg_hits
    }

    /// Total misses (cold + capacity/conflict).
    pub fn misses(&self) -> u64 {
        self.miss_cold + self.miss_2c
    }

    /// L1 miss ratio over non-bypassed accesses.
    pub fn miss_ratio(&self) -> f64 {
        let denom = self.l1_hits + self.misses() + self.reg_hits;
        if denom == 0 {
            0.0
        } else {
            self.misses() as f64 / denom as f64
        }
    }

    /// Fraction of all accesses with the given outcome (Figure 13 stacks).
    pub fn outcome_fraction(&self, outcome: AccessOutcome) -> f64 {
        let total = self.mem_accesses();
        if total == 0 {
            return 0.0;
        }
        let n = match outcome {
            AccessOutcome::L1Hit => self.l1_hits,
            AccessOutcome::Miss => self.misses(),
            AccessOutcome::Bypass => self.bypasses,
            AccessOutcome::RegHit => self.reg_hits,
        };
        n as f64 / total as f64
    }

    /// Records one L1-level access outcome for `load`.
    ///
    /// Hot path: indexes the dense per-load table directly (growing it to
    /// the load ordinal on first touch — amortized, bounded by the static
    /// load count of the kernel) instead of hashing into a map per access.
    pub fn record_access(
        &mut self,
        load: LoadId,
        outcome: AccessOutcome,
        class: Option<MissClass>,
    ) {
        let i = load.0 as usize;
        if self.per_load_dense.len() <= i {
            self.per_load_dense.resize(i + 1, LoadStats::default());
        }
        let ls = &mut self.per_load_dense[i];
        ls.accesses += 1;
        match outcome {
            AccessOutcome::L1Hit => {
                self.l1_hits += 1;
                ls.l1_hits += 1;
            }
            AccessOutcome::Miss => {
                match class.expect("miss must carry a classification") {
                    MissClass::Cold => self.miss_cold += 1,
                    MissClass::CapacityConflict => self.miss_2c += 1,
                }
                ls.misses += 1;
            }
            AccessOutcome::Bypass => {
                self.bypasses += 1;
                ls.bypasses += 1;
            }
            AccessOutcome::RegHit => {
                self.reg_hits += 1;
                ls.reg_hits += 1;
            }
        }
    }

    /// Records a detailed line touch (Figures 2/3 collection).
    pub fn record_line_touch(&mut self, load: LoadId, line: u64) {
        let i = load.0 as usize;
        if self.load_detail_dense.len() <= i {
            self.load_detail_dense.resize(i + 1, LoadWindowDetail::default());
        }
        let d = &mut self.load_detail_dense[i];
        d.touched = true;
        *d.line_counts.entry(line).or_insert(0) += 1;
    }

    /// Closes the detailed-stats window for all loads.
    pub fn close_detail_window(&mut self) {
        for d in &mut self.load_detail_dense {
            let mut w = WindowLocality::default();
            for (_, &count) in d.line_counts.iter() {
                w.accesses += count as u64;
                w.distinct_lines += 1;
                if count >= 2 {
                    w.reused_ws_bytes += crate::types::LINE_BYTES;
                } else {
                    w.single_use_bytes += crate::types::LINE_BYTES;
                }
            }
            if w.accesses > 0 {
                d.windows.push(w);
            }
            d.line_counts.clear();
        }
    }

    /// Merges another run's dense per-load counters into this one
    /// (index-aligned; used when the GPU folds per-SM stats together).
    pub fn merge_per_load_dense(&mut self, other: &[LoadStats]) {
        if self.per_load_dense.len() < other.len() {
            self.per_load_dense.resize(other.len(), LoadStats::default());
        }
        for (e, ls) in self.per_load_dense.iter_mut().zip(other) {
            e.accesses += ls.accesses;
            e.l1_hits += ls.l1_hits;
            e.misses += ls.misses;
            e.reg_hits += ls.reg_hits;
            e.bypasses += ls.bypasses;
        }
    }

    /// Merges another run's dense detail windows into this one.
    pub fn merge_load_detail_dense(&mut self, other: &[LoadWindowDetail]) {
        if self.load_detail_dense.len() < other.len() {
            self.load_detail_dense.resize(other.len(), LoadWindowDetail::default());
        }
        for (e, d) in self.load_detail_dense.iter_mut().zip(other) {
            e.windows.extend(d.windows.iter().copied());
            // Open-window line counts are per-SM transients and are not
            // merged (the legacy map merge dropped them too), but a touched
            // load must keep its key in the materialized public map.
            e.touched |= d.touched;
        }
    }

    /// Materializes the map-shaped public views (`per_load`, `load_detail`)
    /// from the dense accumulators. Called once per run, at collection; the
    /// key sets match what the per-access map updates used to produce
    /// (loads that were actually touched).
    pub fn materialize_maps(&mut self) {
        self.per_load = self
            .per_load_dense
            .iter()
            .enumerate()
            .filter(|(_, ls)| ls.accesses > 0)
            .map(|(i, ls)| (i as u32, *ls))
            .collect();
        self.load_detail = self
            .load_detail_dense
            .iter()
            .enumerate()
            .filter(|(_, d)| d.touched)
            .map(|(i, d)| (i as u32, d.clone()))
            .collect();
    }

    /// Mean statically-unused registers over sampled windows, in bytes.
    pub fn avg_static_unused_bytes(&self) -> f64 {
        avg_by(&self.rf_samples, |s| s.static_unused) * crate::types::LINE_BYTES as f64
    }

    /// Mean dynamically-unused registers over sampled windows, in bytes.
    pub fn avg_dynamic_unused_bytes(&self) -> f64 {
        avg_by(&self.rf_samples, |s| s.dynamic_unused) * crate::types::LINE_BYTES as f64
    }

    /// Mean victim-storage registers in use, in bytes.
    pub fn avg_victim_in_use_bytes(&self) -> f64 {
        avg_by(&self.rf_samples, |s| s.victim_in_use) * crate::types::LINE_BYTES as f64
    }

    /// Aggregates the per-SM timeline into one series averaged per window
    /// index (SMs are homogeneous, so the mean is representative).
    pub fn timeline_aggregate(&self) -> Vec<WindowSample> {
        use std::collections::BTreeMap;
        let mut by_window: BTreeMap<u32, (WindowSample, u32)> = BTreeMap::new();
        for s in &self.timeline {
            let e = by_window.entry(s.window).or_insert((
                WindowSample { sm: u32::MAX, window: s.window, ..Default::default() },
                0,
            ));
            e.0.ipc += s.ipc;
            e.0.hit_fraction += s.hit_fraction;
            e.0.active_ctas += s.active_ctas;
            e.0.victim_regs += s.victim_regs;
            e.1 += 1;
        }
        by_window
            .into_values()
            .map(|(mut s, n)| {
                let n_f = n as f64;
                s.ipc /= n_f;
                s.hit_fraction /= n_f;
                s.active_ctas = (s.active_ctas as f64 / n_f).round() as u32;
                s.victim_regs = (s.victim_regs as f64 / n_f).round() as u32;
                s
            })
            .collect()
    }
}

fn avg_by(samples: &[RfSpaceSample], f: impl Fn(&RfSpaceSample) -> u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|s| f(s) as u64).sum::<u64>() as f64 / samples.len() as f64
}

/// Geometric mean of a slice of positive ratios (the paper's GM columns).
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_zero_when_no_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn record_access_accumulates() {
        let mut s = SimStats::default();
        s.record_access(LoadId(0), AccessOutcome::L1Hit, None);
        s.record_access(LoadId(0), AccessOutcome::Miss, Some(MissClass::Cold));
        s.record_access(LoadId(1), AccessOutcome::Miss, Some(MissClass::CapacityConflict));
        s.record_access(LoadId(1), AccessOutcome::RegHit, None);
        s.record_access(LoadId(1), AccessOutcome::Bypass, None);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.miss_cold, 1);
        assert_eq!(s.miss_2c, 1);
        assert_eq!(s.reg_hits, 1);
        assert_eq!(s.bypasses, 1);
        assert_eq!(s.mem_accesses(), 5);
        assert_eq!(s.per_load_dense[1].accesses, 3);
        s.materialize_maps();
        assert_eq!(s.per_load[&1].accesses, 3);
    }

    #[test]
    #[should_panic(expected = "classification")]
    fn miss_requires_class() {
        let mut s = SimStats::default();
        s.record_access(LoadId(0), AccessOutcome::Miss, None);
    }

    #[test]
    fn outcome_fractions_sum_to_one() {
        let mut s = SimStats::default();
        for _ in 0..3 {
            s.record_access(LoadId(0), AccessOutcome::L1Hit, None);
        }
        s.record_access(LoadId(0), AccessOutcome::Miss, Some(MissClass::Cold));
        let sum = s.outcome_fraction(AccessOutcome::L1Hit)
            + s.outcome_fraction(AccessOutcome::Miss)
            + s.outcome_fraction(AccessOutcome::Bypass)
            + s.outcome_fraction(AccessOutcome::RegHit);
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detail_window_classifies_reuse_and_streaming() {
        let mut s = SimStats::default();
        // Load 0: lines 1,2 touched twice each (reused).
        for _ in 0..2 {
            s.record_line_touch(LoadId(0), 1);
            s.record_line_touch(LoadId(0), 2);
        }
        // Load 1: 20 distinct lines once each (streaming).
        for l in 0..20 {
            s.record_line_touch(LoadId(1), 100 + l);
        }
        s.close_detail_window();
        s.materialize_maps();
        let w0 = s.load_detail[&0].windows[0];
        assert_eq!(w0.reused_ws_bytes, 2 * 128);
        assert!(!w0.is_streaming());
        let w1 = s.load_detail[&1].windows[0];
        assert_eq!(w1.single_use_bytes, 20 * 128);
        assert!(w1.is_streaming());
    }

    #[test]
    fn materialized_maps_skip_untouched_ordinals() {
        let mut s = SimStats::default();
        // Only load 2 is touched; the dense table still has slots 0 and 1.
        s.record_access(LoadId(2), AccessOutcome::L1Hit, None);
        s.record_line_touch(LoadId(2), 5);
        s.materialize_maps();
        assert_eq!(s.per_load.len(), 1);
        assert!(s.per_load.contains_key(&2));
        assert_eq!(s.load_detail.len(), 1);
        assert!(s.load_detail.contains_key(&2));
    }

    #[test]
    fn dense_merge_matches_elementwise_sum() {
        let mut a = SimStats::default();
        a.record_access(LoadId(0), AccessOutcome::L1Hit, None);
        let mut b = SimStats::default();
        b.record_access(LoadId(0), AccessOutcome::Miss, Some(MissClass::Cold));
        b.record_access(LoadId(1), AccessOutcome::Bypass, None);
        a.merge_per_load_dense(&b.per_load_dense);
        assert_eq!(a.per_load_dense[0].accesses, 2);
        assert_eq!(a.per_load_dense[0].l1_hits, 1);
        assert_eq!(a.per_load_dense[0].misses, 1);
        assert_eq!(a.per_load_dense[1].bypasses, 1);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn rf_sample_averages() {
        let mut s = SimStats::default();
        s.rf_samples.push(RfSpaceSample {
            static_unused: 100,
            dynamic_unused: 0,
            victim_in_use: 50,
        });
        s.rf_samples.push(RfSpaceSample {
            static_unused: 300,
            dynamic_unused: 200,
            victim_in_use: 150,
        });
        assert!((s.avg_static_unused_bytes() - 200.0 * 128.0).abs() < 1e-9);
        assert!((s.avg_dynamic_unused_bytes() - 100.0 * 128.0).abs() < 1e-9);
        assert!((s.avg_victim_in_use_bytes() - 100.0 * 128.0).abs() < 1e-9);
    }

    #[test]
    fn miss_ratio_excludes_bypass() {
        let mut s = SimStats::default();
        s.record_access(LoadId(0), AccessOutcome::Miss, Some(MissClass::Cold));
        s.record_access(LoadId(0), AccessOutcome::Bypass, None);
        assert!((s.miss_ratio() - 1.0).abs() < 1e-12);
    }
}

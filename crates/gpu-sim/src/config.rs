//! GPU configuration (the paper's Table 1) and a builder for variants.

use crate::types::LINE_BYTES;

/// Full configuration of the simulated GPU.
///
/// Defaults reproduce Table 1 of the paper:
///
/// | parameter | value |
/// |---|---|
/// | SMs | 16 |
/// | clock | 1126 MHz |
/// | SIMD width | 32 |
/// | max threads/warps/CTAs per SM | 2048 / 64 / 32 |
/// | warp scheduling | GTO, 4 schedulers per SM |
/// | register file per SM | 256 KB |
/// | shared memory per SM | 96 KB |
/// | L1 per SM | 48 KB, 8-way, 128 B lines, 64 MSHRs |
/// | L2 shared | 2048 KB, 8-way |
/// | DRAM bandwidth | 352.5 GB/s |
///
/// # Examples
///
/// ```
/// use gpu_sim::config::GpuConfig;
///
/// let cfg = GpuConfig::default();
/// assert_eq!(cfg.n_sms, 16);
/// assert_eq!(cfg.l1.size_bytes, 48 * 1024);
/// assert_eq!(cfg.warp_regs_per_sm(), 2048);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub n_sms: u32,
    /// Core clock frequency in Hz (1126 MHz in the paper).
    pub clock_hz: u64,
    /// SIMD width (threads per warp).
    pub simd_width: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident CTAs per SM.
    pub max_ctas_per_sm: u32,
    /// Number of warp schedulers (issue slots) per SM.
    pub schedulers_per_sm: u32,
    /// Register file bytes per SM (256 KB).
    pub regfile_bytes_per_sm: u64,
    /// Number of register file banks per SM.
    pub regfile_banks: u32,
    /// Shared memory bytes per SM (96 KB). Only used for occupancy limits.
    pub shared_mem_bytes_per_sm: u64,
    /// L1 data cache configuration.
    pub l1: CacheConfig,
    /// L2 shared cache configuration.
    pub l2: CacheConfig,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u32,
    /// Minimum L2 round-trip latency in cycles (the paper quotes a 200-cycle
    /// minimum for an L2 access).
    pub l2_latency: u32,
    /// Interconnect (SM <-> L2 partition) one-way latency in cycles.
    pub icnt_latency: u32,
    /// L1 cache accesses (line lookups) the LSU can start per cycle per SM.
    pub l1_ports: u32,
    /// Interconnect delivery bandwidth in messages per cycle per direction.
    /// `None` derives the historical default `(n_sms * 2).max(8)`, which
    /// tracks the SM count so the interconnect never becomes the accidental
    /// bottleneck of a scaled-down machine; set an explicit value to model
    /// a fixed-width crossbar.
    pub icnt_bw: Option<u32>,
    /// Number of independent memory partitions. Each partition owns one L2
    /// slice (capacity and MSHRs split evenly), one DRAM channel (bandwidth
    /// and banks split evenly) and its own interconnect queue pair; lines
    /// are steered by a power-of-two interleave on the line address. Must
    /// be a power of two. The default of 1 reproduces the monolithic
    /// memory side bit-exactly.
    pub n_mem_partitions: u32,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Maximum outstanding load line-requests per warp before the scoreboard
    /// stalls further memory instructions.
    pub max_outstanding_per_warp: u32,
    /// Statistics/monitoring window length in core cycles (50 000 in the
    /// paper, for both IPC and per-load locality monitoring).
    pub window_cycles: u64,
    /// Hard cap on simulated cycles (a run terminates at the cap even if the
    /// kernel has not drained; stats are still meaningful rates).
    pub max_cycles: u64,
    /// Enable expensive per-load working-set/streaming statistics
    /// (needed for reproducing Figures 2 and 3 only).
    pub detailed_load_stats: bool,
    /// Enable the per-SM decoded access-descriptor cache: the first
    /// execution of a (warp slot, static load) pair decodes the pattern's
    /// per-warp constants into a [`crate::pattern::LineDesc`] and later
    /// executions replay it, skipping address generation and coalescing.
    /// Replay is exact, so this is a pure speed knob — simulated results
    /// are byte-identical either way (`--no-desc-cache` is the escape
    /// hatch that proves it).
    pub desc_cache: bool,
    /// Hard cap on descriptor-table entries per SM
    /// (`warp slots x static loads`); a kernel exceeding it simply runs
    /// uncached, which cannot change simulated results.
    pub desc_cache_max_entries: u32,
    /// Enable greedy-run burst execution and decoupled SM local clocks:
    /// between interactions with the memory side, an SM simulates several
    /// cycles per `Gpu::step` (a tight local loop bounded by the earliest
    /// possible inbound delivery and the window edge, plus multi-cycle
    /// greedy ALU runs issued in one scan). Every burst is provably
    /// equivalent to cycle-lockstep stepping, so this is a pure simulator
    /// speed knob — simulated results are byte-identical either way
    /// (`--no-burst` is the escape hatch that proves it). Automatically
    /// suspended while an event tracer is attached (the trace wire format
    /// requires globally monotone cycle stamps).
    pub burst: bool,
    /// Energy model parameters.
    pub energy: crate::energy::EnergyConfig,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            n_sms: 16,
            clock_hz: 1_126_000_000,
            simd_width: 32,
            max_threads_per_sm: 2048,
            max_warps_per_sm: 64,
            max_ctas_per_sm: 32,
            schedulers_per_sm: 4,
            regfile_bytes_per_sm: 256 * 1024,
            regfile_banks: 32,
            shared_mem_bytes_per_sm: 96 * 1024,
            l1: CacheConfig::l1_default(),
            l2: CacheConfig::l2_default(),
            l1_hit_latency: 28,
            l2_latency: 200,
            icnt_latency: 8,
            l1_ports: 4,
            icnt_bw: None,
            n_mem_partitions: 1,
            dram: DramConfig::default(),
            max_outstanding_per_warp: 6,
            window_cycles: 50_000,
            max_cycles: 400_000,
            detailed_load_stats: false,
            desc_cache: true,
            desc_cache_max_entries: 64 * 1024,
            burst: true,
            energy: crate::energy::EnergyConfig::default(),
        }
    }
}

impl GpuConfig {
    /// Creates the Table 1 baseline configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy with a different L1 size (16/48/64/96/128 KB sweeps of
    /// the paper's Figure 14). Sets remain derived from size/assoc/line.
    pub fn with_l1_size(mut self, bytes: u64) -> Self {
        self.l1.size_bytes = bytes;
        self
    }

    /// Returns a copy with a different SM count (used by the scaled-down
    /// experiment harness; the workload is homogeneous across SMs).
    pub fn with_sms(mut self, n: u32) -> Self {
        assert!(n > 0, "GPU must have at least one SM");
        // Keep per-SM DRAM bandwidth constant when scaling the SM count.
        let per_sm = self.dram.bandwidth_bytes_per_sec / self.n_sms as u64;
        self.dram.bandwidth_bytes_per_sec = per_sm * n as u64;
        self.n_sms = n;
        self
    }

    /// Returns a copy with a different monitoring-window length and cycle cap.
    pub fn with_windows(mut self, window_cycles: u64, max_cycles: u64) -> Self {
        assert!(window_cycles > 0);
        self.window_cycles = window_cycles;
        self.max_cycles = max_cycles;
        self
    }

    /// Returns a copy with an explicit interconnect bandwidth (messages per
    /// cycle per direction), overriding the SM-count-derived default.
    pub fn with_icnt_bw(mut self, per_cycle: u32) -> Self {
        assert!(per_cycle > 0, "interconnect bandwidth must be positive");
        self.icnt_bw = Some(per_cycle);
        self
    }

    /// Returns a copy with a different memory-partition count. The L2
    /// capacity/MSHRs, DRAM bandwidth and DRAM banks configured here stay
    /// GPU-wide totals; each partition receives a 1/n slice at construction
    /// time.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two that divides the L2 geometry and
    /// DRAM bank count evenly.
    pub fn with_mem_partitions(mut self, n: u32) -> Self {
        assert!(n > 0 && n.is_power_of_two(), "partition count must be a power of two, got {n}");
        assert!(
            self.l2.size_bytes.is_multiple_of(n as u64 * self.l2.assoc as u64 * self.l2.line_bytes),
            "L2 capacity must split into {n} whole slices"
        );
        assert!(self.l2.mshrs.is_multiple_of(n), "L2 MSHRs must split evenly across {n} slices");
        assert!(
            self.dram.banks.is_multiple_of(n),
            "DRAM banks must split evenly across {n} channels"
        );
        self.n_mem_partitions = n;
        self
    }

    /// Returns a copy with the decoded access-descriptor cache enabled or
    /// disabled (the `--no-desc-cache` escape hatch). Purely a simulator
    /// speed knob: simulated results are identical either way.
    pub fn with_desc_cache(mut self, enabled: bool) -> Self {
        self.desc_cache = enabled;
        self
    }

    /// Returns a copy with greedy-run burst execution enabled or disabled
    /// (the `--no-burst` escape hatch). Purely a simulator speed knob:
    /// simulated results are identical either way.
    pub fn with_burst(mut self, enabled: bool) -> Self {
        self.burst = enabled;
        self
    }

    /// Interconnect delivery bandwidth in messages per cycle per direction:
    /// the explicit `icnt_bw` if set, otherwise the historical
    /// `(n_sms * 2).max(8)` default.
    pub fn icnt_bandwidth(&self) -> u32 {
        self.icnt_bw.unwrap_or_else(|| (self.n_sms * 2).max(8))
    }

    /// Total warp registers (128 B each) in one SM's register file.
    pub fn warp_regs_per_sm(&self) -> u32 {
        (self.regfile_bytes_per_sm / LINE_BYTES) as u32
    }

    /// DRAM service rate expressed in cache lines per core cycle (aggregate
    /// over the whole GPU).
    pub fn dram_lines_per_cycle(&self) -> f64 {
        self.dram.bandwidth_bytes_per_sec as f64 / (LINE_BYTES as f64 * self.clock_hz as f64)
    }
}

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total data capacity in bytes.
    pub size_bytes: u64,
    /// Set associativity.
    pub assoc: u32,
    /// Line size in bytes (128 throughout the paper).
    pub line_bytes: u64,
    /// Number of MSHR entries (miss-status holding registers).
    pub mshrs: u32,
}

impl CacheConfig {
    /// The paper's L1: 48 KB, 8-way, 128 B lines, 64 MSHRs.
    pub fn l1_default() -> Self {
        CacheConfig { size_bytes: 48 * 1024, assoc: 8, line_bytes: LINE_BYTES, mshrs: 64 }
    }

    /// The paper's L2: 2048 KB, 8-way.
    pub fn l2_default() -> Self {
        CacheConfig { size_bytes: 2048 * 1024, assoc: 8, line_bytes: LINE_BYTES, mshrs: 256 }
    }

    /// Number of sets implied by size/associativity/line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn n_sets(&self) -> u32 {
        let denom = self.assoc as u64 * self.line_bytes;
        assert!(
            denom > 0 && self.size_bytes.is_multiple_of(denom),
            "cache geometry must divide evenly"
        );
        (self.size_bytes / denom) as u32
    }

    /// Total number of lines the cache can hold.
    pub fn n_lines(&self) -> u32 {
        (self.size_bytes / self.line_bytes) as u32
    }
}

/// DRAM model parameters (Table 1's off-chip memory).
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Aggregate bandwidth in bytes/second (352.5 GB/s in the paper).
    pub bandwidth_bytes_per_sec: u64,
    /// Number of independent DRAM banks (timing-state machines).
    pub banks: u32,
    /// tRCD: activate-to-read delay, in memory cycles.
    pub t_rcd: u32,
    /// tRP: precharge delay.
    pub t_rp: u32,
    /// tRC: row-cycle time.
    pub t_rc: u32,
    /// tRRD: activate-to-activate (different bank) delay, in tenths.
    pub t_rrd_tenths: u32,
    /// CL: CAS latency.
    pub t_cl: u32,
    /// tWR: write recovery.
    pub t_wr: u32,
    /// tRAS: row-active time.
    pub t_ras: u32,
    /// Row size in bytes (lines mapping to the same row hit the open row).
    pub row_bytes: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            bandwidth_bytes_per_sec: 352_500_000_000,
            banks: 16,
            t_rcd: 12,
            t_rp: 12,
            t_rc: 40,
            t_rrd_tenths: 55,
            t_cl: 12,
            t_wr: 12,
            t_ras: 28,
            row_bytes: 2048,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = GpuConfig::default();
        assert_eq!(c.n_sms, 16);
        assert_eq!(c.clock_hz, 1_126_000_000);
        assert_eq!(c.simd_width, 32);
        assert_eq!(c.max_threads_per_sm, 2048);
        assert_eq!(c.max_warps_per_sm, 64);
        assert_eq!(c.max_ctas_per_sm, 32);
        assert_eq!(c.schedulers_per_sm, 4);
        assert_eq!(c.regfile_bytes_per_sm, 256 * 1024);
        assert_eq!(c.shared_mem_bytes_per_sm, 96 * 1024);
        assert_eq!(c.l1.size_bytes, 48 * 1024);
        assert_eq!(c.l1.assoc, 8);
        assert_eq!(c.l1.line_bytes, 128);
        assert_eq!(c.l1.mshrs, 64);
        assert_eq!(c.l2.size_bytes, 2048 * 1024);
        assert_eq!(c.l2.assoc, 8);
        assert_eq!(c.dram.bandwidth_bytes_per_sec, 352_500_000_000);
        assert_eq!(c.dram.t_rcd, 12);
        assert_eq!(c.dram.t_rp, 12);
        assert_eq!(c.dram.t_rc, 40);
        assert_eq!(c.dram.t_cl, 12);
        assert_eq!(c.dram.t_wr, 12);
        assert_eq!(c.dram.t_ras, 28);
        // Simulator-engineering knobs (not Table 1): descriptor cache on by
        // default, sized far above any real kernel's slot x load product.
        assert!(c.desc_cache);
        assert_eq!(c.desc_cache_max_entries, 64 * 1024);
        assert!(c.burst);
    }

    #[test]
    fn burst_escape_hatch() {
        assert!(!GpuConfig::default().with_burst(false).burst);
        assert!(GpuConfig::default().with_burst(true).burst);
    }

    #[test]
    fn desc_cache_escape_hatch() {
        let c = GpuConfig::default().with_desc_cache(false);
        assert!(!c.desc_cache);
        assert!(GpuConfig::default().with_desc_cache(true).desc_cache);
    }

    #[test]
    fn l1_has_48_sets() {
        // The paper's VTT mirrors the 48-set L1 (48 KB / 8 ways / 128 B).
        assert_eq!(CacheConfig::l1_default().n_sets(), 48);
    }

    #[test]
    fn warp_regs_per_sm_is_2048() {
        assert_eq!(GpuConfig::default().warp_regs_per_sm(), 2048);
    }

    #[test]
    fn dram_lines_per_cycle_sane() {
        let c = GpuConfig::default();
        let r = c.dram_lines_per_cycle();
        // 352.5e9 / (128 * 1.126e9) ~= 2.45 lines per core cycle.
        assert!(r > 2.0 && r < 3.0, "rate = {r}");
    }

    #[test]
    fn l1_size_sweep_changes_sets() {
        let c = GpuConfig::default().with_l1_size(16 * 1024);
        assert_eq!(c.l1.n_sets(), 16);
        let c = GpuConfig::default().with_l1_size(128 * 1024);
        assert_eq!(c.l1.n_sets(), 128);
    }

    #[test]
    fn with_sms_scales_bandwidth() {
        let base = GpuConfig::default();
        let scaled = base.clone().with_sms(4);
        assert_eq!(scaled.n_sms, 4);
        assert_eq!(scaled.dram.bandwidth_bytes_per_sec, base.dram.bandwidth_bytes_per_sec / 4);
    }

    #[test]
    #[should_panic(expected = "at least one SM")]
    fn with_sms_zero_panics() {
        let _ = GpuConfig::default().with_sms(0);
    }

    #[test]
    fn icnt_bandwidth_default_tracks_sm_count() {
        // The derived default is (n_sms * 2).max(8): floor of 8 for tiny
        // machines, 2 per SM beyond that.
        assert_eq!(GpuConfig::default().icnt_bandwidth(), 32);
        assert_eq!(GpuConfig::default().with_sms(1).icnt_bandwidth(), 8);
        assert_eq!(GpuConfig::default().with_sms(4).icnt_bandwidth(), 8);
        assert_eq!(GpuConfig::default().with_sms(8).icnt_bandwidth(), 16);
    }

    #[test]
    fn icnt_bandwidth_override_wins() {
        let c = GpuConfig::default().with_icnt_bw(3);
        assert_eq!(c.icnt_bandwidth(), 3);
    }

    #[test]
    fn mem_partitions_default_is_one() {
        assert_eq!(GpuConfig::default().n_mem_partitions, 1);
    }

    #[test]
    fn with_mem_partitions_accepts_powers_of_two() {
        for n in [1u32, 2, 4, 8] {
            assert_eq!(GpuConfig::default().with_mem_partitions(n).n_mem_partitions, n);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_mem_partitions_rejects_non_power_of_two() {
        let _ = GpuConfig::default().with_mem_partitions(3);
    }

    #[test]
    fn n_lines_matches_geometry() {
        let l1 = CacheConfig::l1_default();
        assert_eq!(l1.n_lines(), 384); // 48 KB / 128 B
        assert_eq!(l1.n_lines(), l1.n_sets() * l1.assoc);
    }
}

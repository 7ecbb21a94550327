//! GPU configuration (the paper's Table 1) and a builder for variants.

use crate::mem::{MAX_CTA_SLOTS, MAX_SMS, MAX_WARP_SLOTS};
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
    /// experiment harness; the workload is homogeneous across SMs). Zero
    /// SMs is an error [`GpuConfig::validate`] reports.
    pub fn with_sms(mut self, n: u32) -> Self {
        // Keep per-SM DRAM bandwidth constant when scaling the SM count.
        let per_sm = self.dram.bandwidth_bytes_per_sec / u64::from(self.n_sms.max(1));
        self.dram.bandwidth_bytes_per_sec = per_sm * n as u64;
        self.n_sms = n;
        self
    }

    /// Returns a copy with a different monitoring-window length and cycle cap.
    pub fn with_windows(mut self, window_cycles: u64, max_cycles: u64) -> Self {
        self.window_cycles = window_cycles;
        self.max_cycles = max_cycles;
        self
    }

    /// Returns a copy with an explicit interconnect bandwidth (messages per
    /// cycle per direction), overriding the SM-count-derived default.
    pub fn with_icnt_bw(mut self, per_cycle: u32) -> Self {
        self.icnt_bw = Some(per_cycle);
        self
    }

    /// Checks the whole configuration: at least one SM, warp slot and CTA
    /// slot, and no more than a [`MemReq`](crate::mem::MemReq) can name
    /// ([`MAX_SMS`], [`MAX_WARP_SLOTS`], [`MAX_CTA_SLOTS`]), a nonzero
    /// window length and interconnect bandwidth, L1 and L2 geometries a
    /// [`TagArray`](crate::cache::TagArray) can hold (see
    /// [`CacheConfig::check`]) and a memory-partition count that splits the
    /// memory system ([`GpuConfig::check_mem_partitions`]). `Gpu::new`
    /// panics through it; the harness binaries call it after parsing their
    /// flags and exit 2 with its message.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_sms == 0 {
            return Err("GPU must have at least one SM".into());
        }
        if self.n_sms > MAX_SMS {
            return Err(format!("at most {MAX_SMS} SMs, got {}", self.n_sms));
        }
        if !(1..=MAX_WARP_SLOTS).contains(&self.max_warps_per_sm) {
            let n = self.max_warps_per_sm;
            return Err(format!("warp slots per SM must be 1 to {MAX_WARP_SLOTS}, got {n}"));
        }
        if !(1..=MAX_CTA_SLOTS).contains(&self.max_ctas_per_sm) {
            let n = self.max_ctas_per_sm;
            return Err(format!("CTA slots per SM must be 1 to {MAX_CTA_SLOTS}, got {n}"));
        }
        if self.window_cycles == 0 {
            return Err("monitoring window must be at least one cycle".into());
        }
        if self.icnt_bw == Some(0) {
            return Err("interconnect bandwidth must be positive".into());
        }
        self.l1.check("L1")?;
        self.l2.check("L2")?;
        self.check_mem_partitions(self.n_mem_partitions)
    }

    /// Checks that the memory subsystem splits into `n` partitions: `n` is
    /// a power of two that divides the L2 geometry, the L2 MSHRs and the
    /// DRAM bank count evenly. The harness binaries call it on their
    /// `--partitions` value before building anything.
    pub fn check_mem_partitions(&self, n: u32) -> Result<(), String> {
        if n == 0 || !n.is_power_of_two() {
            return Err(format!("partition count must be a power of two, got {n}"));
        }
        let slice_unit = u64::from(n) * u64::from(self.l2.assoc) * self.l2.line_bytes;
        if !self.l2.size_bytes.is_multiple_of(slice_unit) {
            return Err(format!("L2 capacity must split into {n} whole slices"));
        }
        if !self.l2.mshrs.is_multiple_of(n) {
            return Err(format!("L2 MSHRs must split evenly across {n} slices"));
        }
        if !self.dram.banks.is_multiple_of(n) {
            return Err(format!("DRAM banks must split evenly across {n} channels"));
        }
        Ok(())
    }

    /// Returns a copy with a different memory-partition count. The L2
    /// capacity/MSHRs, DRAM bandwidth and DRAM banks configured here stay
    /// GPU-wide totals; each partition receives a 1/n slice at construction
    /// time.
    ///
    /// # Panics
    ///
    /// Panics when [`GpuConfig::check_mem_partitions`] rejects `n`.
    pub fn with_mem_partitions(mut self, n: u32) -> Self {
        if let Err(e) = self.check_mem_partitions(n) {
            panic!("{e}");
        }
        self.n_mem_partitions = n;
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

    /// Checks the geometry of the cache named `name`: whole sets of
    /// `assoc` lines, at least one of them, at most
    /// [`MAX_ASSOC`](crate::cache::tag_array::MAX_ASSOC) ways (a set's
    /// resident count is one byte) and at most
    /// [`MAX_LINES`](crate::cache::tag_array::MAX_LINES) lines.
    pub fn check(&self, name: &str) -> Result<(), String> {
        use crate::cache::tag_array::{MAX_ASSOC, MAX_LINES};
        let set_bytes = u64::from(self.assoc) * self.line_bytes;
        if set_bytes == 0 || self.size_bytes == 0 || !self.size_bytes.is_multiple_of(set_bytes) {
            return Err(format!("{name}: geometry must divide evenly into whole sets"));
        }
        if self.assoc > MAX_ASSOC {
            return Err(format!("{name}: associativity {} exceeds {MAX_ASSOC} ways", self.assoc));
        }
        if self.size_bytes / self.line_bytes > MAX_LINES {
            return Err(format!("{name}: more than {MAX_LINES} lines"));
        }
        Ok(())
    }

    /// Number of sets implied by size/associativity/line size.
    ///
    /// # Panics
    ///
    /// Panics when [`CacheConfig::check`] rejects the geometry.
    pub fn n_sets(&self) -> u32 {
        if let Err(e) = self.check("cache") {
            panic!("{e}");
        }
        (self.size_bytes / (u64::from(self.assoc) * self.line_bytes)) as u32
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
        // Simulator-engineering knob (not Table 1): bursting on by default.
        assert!(c.burst);
    }

    #[test]
    fn burst_escape_hatch() {
        assert!(!GpuConfig::default().with_burst(false).burst);
        assert!(GpuConfig::default().with_burst(true).burst);
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
    fn validate_accepts_table1_and_the_harness_machines() {
        for cfg in [
            GpuConfig::default(),
            GpuConfig::default().with_sms(1).with_windows(6_000, 150_000),
            GpuConfig::default().with_sms(4).with_icnt_bw(3).with_mem_partitions(8),
            GpuConfig::default().with_l1_size(16 * 1024),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    /// `validate` rejects `cfg` with an error naming `want`.
    fn rejects(cfg: GpuConfig, want: &str) {
        let err = cfg.validate().unwrap_err();
        assert!(err.contains(want), "{err:?} does not name {want:?}");
    }

    #[test]
    fn validate_rejects_zero_sms() {
        rejects(GpuConfig::default().with_sms(0), "GPU must have at least one SM");
        // Scaling from zero SMs back up is well defined.
        assert_eq!(GpuConfig::default().with_sms(0).with_sms(2).validate(), Ok(()));
    }

    #[test]
    fn validate_bounds_the_fields_a_memory_request_names() {
        let c = GpuConfig::default();
        rejects(c.clone().with_sms(MAX_SMS + 1), "at most 65536 SMs, got 65537");
        assert_eq!(c.clone().with_sms(MAX_SMS).validate(), Ok(()));
        let warps = |n| GpuConfig { max_warps_per_sm: n, ..c.clone() };
        rejects(warps(0), "warp slots per SM must be 1 to 256, got 0");
        rejects(warps(MAX_WARP_SLOTS + 1), "warp slots per SM must be 1 to 256, got 257");
        assert_eq!(warps(MAX_WARP_SLOTS).validate(), Ok(()));
        let ctas = |n| GpuConfig { max_ctas_per_sm: n, ..c.clone() };
        rejects(ctas(0), "CTA slots per SM must be 1 to 65536, got 0");
        rejects(ctas(MAX_CTA_SLOTS + 1), "CTA slots per SM must be 1 to 65536, got 65537");
        assert_eq!(ctas(MAX_CTA_SLOTS).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_a_zero_window() {
        rejects(GpuConfig::default().with_windows(0, 1_000), "window must be at least one cycle");
    }

    #[test]
    fn validate_rejects_zero_interconnect_bandwidth() {
        rejects(GpuConfig::default().with_icnt_bw(0), "interconnect bandwidth must be positive");
    }

    #[test]
    fn validate_rejects_cache_geometries_that_do_not_divide() {
        let mut c = GpuConfig::default();
        c.l1.size_bytes = 1_000;
        rejects(c.clone(), "L1: geometry must divide evenly into whole sets");
        c.l1 = CacheConfig::l1_default();
        c.l2.assoc = 0;
        rejects(c.clone(), "L2: geometry must divide evenly");
        c.l2 = CacheConfig::l2_default();
        c.l2.size_bytes = 0;
        rejects(c, "L2: geometry must divide evenly");
    }

    #[test]
    fn validate_rejects_associativity_beyond_a_length_byte() {
        let l1 = CacheConfig { size_bytes: 256 * 128, assoc: 256, ..CacheConfig::l1_default() };
        let mut c = GpuConfig { l1, ..GpuConfig::default() };
        rejects(c.clone(), "L1: associativity 256 exceeds 255 ways");
        c.l1.assoc = 255;
        c.l1.size_bytes = 255 * 128;
        assert_eq!(c.validate(), Ok(()), "a fully associative 255-way L1 fits");
    }

    #[test]
    fn validate_rejects_more_lines_than_a_u32_counts() {
        let mut c = GpuConfig::default();
        c.l2.size_bytes = (1 << 32) * 128;
        rejects(c.clone(), "L2: more than 4294967295 lines");
        c.l2.size_bytes = ((1 << 32) - 8) * 128;
        assert_eq!(c.l2.check("L2"), Ok(()));
    }

    #[test]
    fn validate_rejects_a_partition_count_the_memory_cannot_split() {
        let mut c = GpuConfig { n_mem_partitions: 3, ..GpuConfig::default() };
        rejects(c.clone(), "partition count must be a power of two, got 3");
        c.n_mem_partitions = 64;
        rejects(c, "DRAM banks must split evenly across 64 channels");
    }

    #[test]
    #[should_panic(expected = "cache: geometry must divide evenly into whole sets")]
    fn n_sets_panics_through_the_geometry_check() {
        let _ = CacheConfig { size_bytes: 1_000, ..CacheConfig::l1_default() }.n_sets();
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
    fn partition_check_names_the_structure_that_does_not_split() {
        let c = GpuConfig::default();
        assert_eq!(c.check_mem_partitions(16), Ok(()));
        let rejects = |n: u32, want: &str| {
            let err = c.check_mem_partitions(n).unwrap_err();
            assert!(err.contains(want), "{n}: {err}");
        };
        // 16 DRAM banks, 256 L2 MSHRs, and 2 MB of 8-way 128 B L2 lines
        // (2048 sets).
        rejects(0, "must be a power of two");
        rejects(32, "DRAM banks must split evenly across 32 channels");
        rejects(64, "DRAM banks must split evenly across 64 channels");
        rejects(512, "L2 MSHRs must split evenly across 512 slices");
        rejects(4096, "L2 capacity must split into 4096 whole slices");
    }

    #[test]
    #[should_panic(expected = "DRAM banks must split evenly across 64 channels")]
    fn with_mem_partitions_asserts_through_the_check() {
        let _ = GpuConfig::default().with_mem_partitions(64);
    }

    #[test]
    fn n_lines_matches_geometry() {
        let l1 = CacheConfig::l1_default();
        assert_eq!(l1.n_lines(), 384); // 48 KB / 128 B
        assert_eq!(l1.n_lines(), l1.n_sets() * l1.assoc);
    }
}

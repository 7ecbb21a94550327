//! CERF: the Cache-Emulated Register File (Jing et al., MICRO 2016).
//!
//! CERF unifies the register file and L1 into one on-chip local memory
//! (304 KB = 256 KB RF + 48 KB L1 at the paper's baseline) and uses the
//! rarely-accessed register space as additional cache. It differs from
//! Linebacker in three ways that the evaluation exposes:
//!
//! * it caches **every** line, including streaming data (no load-locality
//!   filter), so streaming kernels still thrash;
//! * it has no CTA throttling, so only statically-idle register space (plus
//!   rarely-used live registers) is available;
//! * the unified structure puts cache traffic and operand traffic on the
//!   same banks, roughly doubling bank conflicts (Figure 16: +52.4 % vs the
//!   baseline against Linebacker's +29.1 %).
//!
//! The register-resident cache's tags are a [`TagArray`]: one set-major
//! slab of 48 recency-ordered stripes of 32 ways. CERF adds only its
//! capacity rule on top.

use gpu_sim::cache::TagArray;
use gpu_sim::config::GpuConfig;
use gpu_sim::policy::{MissService, PolicyCtx, PolicyFactory, SmPolicy, WindowInfo};
use gpu_sim::types::{LineAddr, LoadId, Pc, RegNum};

#[cfg(test)]
mod reference;

/// CERF for one SM.
#[derive(Debug)]
pub struct CerfPolicy {
    /// 48-set, 32-way tag store over the unified space.
    tags: TagArray<()>,
    /// Maximum lines the register-resident cache may hold (recomputed each
    /// window from idle + rarely-used register space).
    capacity: u32,
    access_latency: u32,
    /// Fraction of *live* registers treated as rarely-accessed and usable as
    /// cache (CERF's register-liveness analysis).
    rare_fraction: f64,
    reg_hits: u64,
}

const CERF_SETS: u32 = 48;
const CERF_WAYS: u32 = 32;

impl CerfPolicy {
    /// Creates CERF. `access_latency` is the extra latency of a hit in the
    /// register-resident cache beyond an L1 hit.
    pub fn new(_gpu: &GpuConfig) -> Self {
        CerfPolicy {
            tags: TagArray::new(CERF_SETS, CERF_WAYS),
            capacity: 0,
            access_latency: 22,
            rare_fraction: 0.0,
            reg_hits: 0,
        }
    }

    /// Current register-cache capacity in lines.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Hits served from the register-resident cache.
    pub fn reg_hits(&self) -> u64 {
        self.reg_hits
    }

    /// A pseudo register number for bank-conflict modelling: CERF spreads
    /// cached lines over the whole unified register file.
    fn pseudo_rn(&self, line: LineAddr) -> RegNum {
        RegNum((line.0 % 2048) as u32)
    }

    fn lookup(&mut self, line: LineAddr) -> bool {
        self.tags.probe(line).is_some()
    }

    /// Caches `line` unless it is present or there is no room. Under
    /// capacity a line fills its set (a full set evicts its LRU line); at
    /// capacity it can only replace its set's LRU line, so a line of an
    /// empty set is dropped.
    fn insert(&mut self, line: LineAddr) -> bool {
        if self.capacity == 0 || self.tags.peek(line).is_some() {
            return false;
        }
        if self.tags.occupancy() < self.capacity as usize {
            self.tags.fill(line, ());
            true
        } else {
            self.tags.replace_lru(line, ()).is_some()
        }
    }

    fn invalidate(&mut self, line: LineAddr) {
        self.tags.invalidate(line);
    }
}

impl SmPolicy for CerfPolicy {
    fn name(&self) -> &'static str {
        "cerf"
    }

    fn on_hit(&mut self, _pc: Pc, _load: LoadId, line: LineAddr, ctx: &mut PolicyCtx<'_>) {
        // Unified structure: every L1-side access also occupies a register
        // bank — the source of CERF's extra bank conflicts.
        let rn = self.pseudo_rn(line);
        ctx.regfile.access(rn, ctx.cycle, false);
    }

    fn on_miss(
        &mut self,
        _pc: Pc,
        _load: LoadId,
        line: LineAddr,
        ctx: &mut PolicyCtx<'_>,
    ) -> MissService {
        if self.lookup(line) {
            self.reg_hits += 1;
            let rn = self.pseudo_rn(line);
            let conflict = ctx.regfile.access(rn, ctx.cycle, false);
            MissService::VictimHit { extra_latency: self.access_latency + conflict }
        } else {
            MissService::ToL2
        }
    }

    fn on_evict(&mut self, victim: LineAddr, _victim_hpc: u8, ctx: &mut PolicyCtx<'_>) -> bool {
        // No filtering: every evicted line (streaming included) is cached.
        if self.insert(victim) {
            let rn = self.pseudo_rn(victim);
            ctx.regfile.access(rn, ctx.cycle, true);
            true
        } else {
            false
        }
    }

    fn on_store(&mut self, line: LineAddr, _ctx: &mut PolicyCtx<'_>) {
        self.invalidate(line);
    }

    fn on_window(&mut self, _info: &WindowInfo, ctx: &mut PolicyCtx<'_>) -> Option<u32> {
        // Recompute capacity: statically idle registers plus the
        // rarely-accessed fraction of live registers.
        let space = ctx.regfile.space();
        let usable = space.static_unused as f64
            + space.dynamic_unused as f64
            + space.active_used as f64 * self.rare_fraction;
        self.capacity = usable as u32;
        None
    }

    fn victim_space_regs(&self) -> u32 {
        self.capacity
    }
}

/// Factory for CERF.
pub fn cerf_factory() -> Box<PolicyFactory<'static>> {
    Box::new(|_, gpu, _| Box::new(CerfPolicy::new(gpu)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::regfile::RegFile;
    use gpu_sim::stats::SimStats;
    use gpu_sim::types::SmId;
    use reference::RefCerfStore;
    use testkit::check;

    fn prepared() -> (CerfPolicy, RegFile, SimStats) {
        let mut p = CerfPolicy::new(&GpuConfig::default());
        let mut rf = RegFile::new(2048, 32, 32);
        let mut st = SimStats::default();
        let info = WindowInfo {
            index: 0,
            cycles: 1000,
            instructions: 0,
            ipc: 0.0,
            active_ctas: 0,
            inactive_ctas: 0,
        };
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut st };
        p.on_window(&info, &mut ctx); // capacity = all 2048 idle regs
        (p, rf, st)
    }

    #[test]
    fn caches_all_evictions_including_streaming() {
        let (mut p, mut rf, mut st) = prepared();
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut st };
        p.on_evict(LineAddr(5), 31, &mut ctx);
        assert!(matches!(
            p.on_miss(Pc(0), LoadId(0), LineAddr(5), &mut ctx),
            MissService::VictimHit { .. }
        ));
        assert_eq!(p.reg_hits(), 1);
    }

    #[test]
    fn capacity_zero_before_first_window() {
        let mut p = CerfPolicy::new(&GpuConfig::default());
        let mut rf = RegFile::new(2048, 32, 32);
        let mut st = SimStats::default();
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut st };
        p.on_evict(LineAddr(5), 0, &mut ctx);
        assert_eq!(p.on_miss(Pc(0), LoadId(0), LineAddr(5), &mut ctx), MissService::ToL2);
    }

    #[test]
    fn capacity_counts_idle_registers_only() {
        let mut p = CerfPolicy::new(&GpuConfig::default());
        let mut rf = RegFile::new(2048, 32, 32);
        rf.allocate_cta(gpu_sim::types::CtaId(0), 1000);
        let mut st = SimStats::default();
        let info = WindowInfo {
            index: 0,
            cycles: 1000,
            instructions: 0,
            ipc: 0.0,
            active_ctas: 1,
            inactive_ctas: 0,
        };
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut st };
        p.on_window(&info, &mut ctx);
        // 1048 idle registers; live registers are not usable without
        // throttling (conservative liveness assumption).
        assert_eq!(p.capacity(), 1048);
    }

    #[test]
    fn store_invalidates_cached_line() {
        let (mut p, mut rf, mut st) = prepared();
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut st };
        p.on_evict(LineAddr(9), 0, &mut ctx);
        p.on_store(LineAddr(9), &mut ctx);
        assert_eq!(p.on_miss(Pc(0), LoadId(0), LineAddr(9), &mut ctx), MissService::ToL2);
    }

    #[test]
    fn unified_structure_adds_bank_traffic_on_l1_hits() {
        let (mut p, mut rf, mut st) = prepared();
        let before = {
            let (r, w, _) = rf.stats();
            r + w
        };
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut st };
        p.on_hit(Pc(0), LoadId(0), LineAddr(1), &mut ctx);
        let after = {
            let (r, w, _) = rf.stats();
            r + w
        };
        assert_eq!(after, before + 1, "every L1 hit touches a unified bank");
    }

    #[test]
    fn capacity_bounds_occupancy() {
        let (mut p, mut rf, mut st) = prepared();
        p.capacity = 4;
        let mut ctx = PolicyCtx { cycle: 0, sm: SmId(0), regfile: &mut rf, stats: &mut st };
        // Insert lines mapping to distinct sets: the first four fill, and
        // the rest are rejected, since at capacity a line may only replace
        // a line of its own set and these sets are empty.
        for i in 0..10u64 {
            assert_eq!(p.on_evict(LineAddr(i), 0, &mut ctx), i < 4, "line {i}");
        }
        assert_eq!(p.tags.occupancy(), 4);
        // Same-set LRU replacement still works at capacity.
        assert!(p.on_evict(line_in(0, 1), 0, &mut ctx));
        assert_eq!(p.tags.occupancy(), 4);
        assert!(!p.lookup(LineAddr(0)), "line 0 was its set's LRU line");
    }

    /// The `n`-th line (from 0) mapping to `set`.
    fn line_in(set: u64, n: u64) -> LineAddr {
        LineAddr(set + n * CERF_SETS as u64)
    }

    #[test]
    fn overfilling_a_set_never_evicts_a_neighbouring_set() {
        let (mut p, _, _) = prepared();
        let ways = u64::from(CERF_WAYS);
        // In the slab, sets 0 and 2 flank set 1, and set 46 precedes the
        // last set, 47.
        let (flanks, overfilled) = ([0, 2, 46], [1, 47]);
        for set in flanks {
            for n in 0..ways {
                assert!(p.insert(line_in(set, n)));
            }
        }
        // 40 lines into a 32-way set: the last 8 each evict that set's LRU.
        for set in overfilled {
            for n in 0..40 {
                assert!(p.insert(line_in(set, n)));
            }
        }
        for set in flanks {
            for n in 0..ways {
                assert!(p.lookup(line_in(set, n)), "set {set} lost its line {n}");
            }
        }
        for set in overfilled {
            for n in 0..40 {
                assert_eq!(p.lookup(line_in(set, n)), n >= 8, "set {set}, line {n}");
            }
        }
        assert_eq!(p.tags.occupancy(), 5 * CERF_WAYS as usize);
    }

    #[test]
    fn store_footprint() {
        // 48 x 32 lines of 8 bytes, plus one length byte per set.
        assert_eq!(CerfPolicy::new(&GpuConfig::default()).tags.heap_bytes(), 12_336);
    }

    /// Random insertions, lookups and store invalidations under a
    /// capacity that changes as windows would change it give the same
    /// answers and occupancy as the frozen stamp-per-way store.
    #[test]
    fn matches_reference() {
        check("cerf_matches_reference", |r| {
            let mut p = CerfPolicy::new(&GpuConfig::default());
            let mut old = RefCerfStore::new();
            let sets = *r.pick(&[1, 2, 5, u64::from(CERF_SETS)]);
            let per_set = r.range_u64(1, 3 * u64::from(CERF_WAYS));
            for step in 0..r.range_usize(1, 1_500) {
                let line = line_in(r.range_u64(0, sets), r.range_u64(0, per_set));
                match r.range_u32(0, 20) {
                    0..=8 => assert_eq!(p.insert(line), old.insert(line), "insert {step}"),
                    9..=15 => assert_eq!(p.lookup(line), old.lookup(line), "lookup {step}"),
                    16..=18 => {
                        p.invalidate(line);
                        old.invalidate(line);
                    }
                    _ => {
                        let capacity = *r.pick(&[0, 1, 4, 31, 32, 100, 1_536, 2_048]);
                        (p.capacity, old.capacity) = (capacity, capacity);
                    }
                }
                assert_eq!(p.tags.occupancy(), old.occupancy as usize, "occupancy at step {step}");
            }
        });
    }
}

//! Burst execution must be invisible: with greedy-run bursting and SM
//! local clocks enabled (the default) every *architectural* statistic —
//! instruction counts, cache outcomes, per-load maps, timelines, energy —
//! must be bit-identical to the lockstep per-cycle engine (`--no-burst`).
//!
//! Only engine-observability counters are allowed to differ: how many
//! cycles the global loop stepped vs. skipped, per-component stepped/slept
//! splits, and the burst counters themselves (which are zero with bursting
//! off by definition). The digest below scrubs exactly those fields and
//! compares everything else, including `sm_issue_scan_cycles` and
//! `sm_lsu_busy_cycles` — the burst engine must charge scheduler scans and
//! LSU occupancy on the same cycles the per-cycle loop would.

use std::collections::BTreeMap;

use baselines::{cerf_factory, pcal_factory};
use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::{run_kernel, run_kernel_traced};
use gpu_sim::kernel::{KernelBuilder, KernelSpec};
use gpu_sim::pattern::AccessPattern;
use gpu_sim::policy::{baseline_factory, PolicyFactory};
use gpu_sim::stats::{LoadWindowDetail, SimStats};
use gpu_sim::trace::{diff, TraceWriter, Tracer, MASK_ALL};
use linebacker::{linebacker_factory, LbConfig};

/// The four single-run policies (Best-SWL is a sweep over baseline runs,
/// so baseline coverage covers it).
fn policies() -> Vec<(&'static str, Box<PolicyFactory<'static>>)> {
    vec![
        ("base", baseline_factory()),
        ("pcal", pcal_factory()),
        ("cerf", cerf_factory()),
        ("lb", linebacker_factory(LbConfig::default())),
    ]
}

/// Map iteration order depends on insertion history; sort line counts
/// before formatting so two equal details digest equally.
fn detail_digest(d: &LoadWindowDetail) -> String {
    let lines: BTreeMap<u64, u32> = d.line_counts.iter().map(|(k, v)| (*k, *v)).collect();
    format!("lines={lines:?} windows={:?}", d.windows)
}

/// Architectural digest of a run: every field of [`SimStats`] except the
/// engine-scheduling counters that bursting is *allowed* to change.
fn digest(stats: &SimStats) -> String {
    let mut s = stats.clone();
    // Pull the HashMap-keyed views out and re-key them deterministically.
    let per_load: BTreeMap<u32, String> =
        s.per_load.iter().map(|(k, v)| (*k, format!("{v:?}"))).collect();
    let load_detail: BTreeMap<u32, String> =
        s.load_detail.iter().map(|(k, v)| (*k, detail_digest(v))).collect();
    let detail_dense: Vec<String> = s.load_detail_dense.iter().map(detail_digest).collect();
    s.per_load.clear();
    s.load_detail.clear();
    s.load_detail_dense.clear();
    // Engine observability: global stepped/skipped split and its per-cause
    // breakdown legitimately shift when SMs run on local clocks.
    let e = &mut s.events;
    e.stepped_cycles = 0;
    e.skipped_cycles = 0;
    e.skip_jumps = 0;
    e.dispatch_passes = 0;
    e.sm_stepped_cycles = 0;
    e.sm_slept_cycles = 0;
    e.dram_stepped_cycles = 0;
    e.dram_slept_cycles = 0;
    e.icnt_stepped_cycles = 0;
    e.icnt_slept_cycles = 0;
    e.skip_to_sm = 0;
    e.skip_to_dram = 0;
    e.skip_to_icnt = 0;
    e.skip_to_window = 0;
    e.skip_to_max = 0;
    // Burst counters are the feature's own telemetry: zero with --no-burst.
    e.sm_bursts = 0;
    e.sm_burst_cycles = 0;
    e.sm_burst_len_1 = 0;
    e.sm_burst_len_2_3 = 0;
    e.sm_burst_len_4_7 = 0;
    e.sm_burst_len_8_15 = 0;
    e.sm_burst_len_16_63 = 0;
    e.sm_burst_len_64p = 0;
    e.sm_lsu_batched = 0;
    for p in &mut s.partitions {
        p.dram_stepped_cycles = 0;
        p.to_l2_stepped_cycles = 0;
        p.from_l2_stepped_cycles = 0;
    }
    format!("{s:?}|per_load={per_load:?}|detail={load_detail:?}|dense={detail_dense:?}")
}

fn quick_cfg() -> GpuConfig {
    GpuConfig::default().with_sms(4).with_windows(5_000, 60_000)
}

fn assert_equivalent(cfg: &GpuConfig, k: &KernelSpec, factory: &PolicyFactory<'_>, what: &str) {
    let on = run_kernel(cfg.clone(), k.clone(), factory);
    let off = run_kernel(cfg.clone().with_burst(false), k.clone(), factory);
    assert_eq!(
        digest(&on),
        digest(&off),
        "{what}: burst-on and burst-off architectural stats must be identical"
    );
}

/// Golden equivalence across all four policies on paper workloads covering
/// the three behaviour classes: cache-sensitive reuse (GA), mixed (GE),
/// and streaming (S2).
#[test]
fn burst_on_off_identical_across_policies() {
    let cfg = quick_cfg();
    for abbrev in ["GA", "GE", "S2"] {
        let app = workloads::app(abbrev).expect("known app");
        let k = app.kernel(cfg.n_sms);
        for (name, factory) in policies() {
            assert_equivalent(&cfg, &k, &factory, &format!("app={abbrev} arch={name}"));
        }
    }
}

/// Multi-partition memory subsystem: the pending-outbox flush path must
/// reproduce the lockstep interconnect arrival order across L2 slices.
#[test]
fn burst_equivalence_holds_with_partitioned_memory() {
    let cfg = quick_cfg().with_mem_partitions(4);
    let app = workloads::app("GE").expect("known app");
    let k = app.kernel(cfg.n_sms);
    assert_equivalent(&cfg, &k, &linebacker_factory(LbConfig::default()), "GE lb 4-part");
}

/// Attaching a tracer suspends bursting, so traced runs are lockstep on
/// both sides and the event streams must be byte-identical — the lb-trace
/// differ must see zero divergence.
#[test]
fn traced_runs_diverge_nowhere() {
    let cfg = quick_cfg();
    let app = workloads::app("GA").expect("known app");
    let k = app.kernel(cfg.n_sms);
    let capture = |cfg: GpuConfig| {
        let tracer = Tracer::new(TraceWriter::to_memory(MASK_ALL));
        let s = run_kernel_traced(cfg, k.clone(), &linebacker_factory(LbConfig::default()), {
            tracer.clone()
        });
        (s, tracer.take_bytes().expect("memory sink"))
    };
    let (s_on, bytes_on) = capture(cfg.clone());
    let (s_off, bytes_off) = capture(cfg.with_burst(false));
    assert_eq!(digest(&s_on), digest(&s_off));
    assert_eq!(bytes_on, bytes_off, "traced runs must produce byte-identical event streams");
    let outcome = diff(&bytes_on, &bytes_off).expect("valid traces");
    assert!(outcome.is_identical(), "trace diff must report zero divergence");
}

/// Randomized sweep: kernels drawn across access patterns, grid shapes,
/// register pressure, and policies must digest identically on vs. off.
/// This is the adversarial net for burst-legality corner cases the golden
/// apps don't reach (store bursts, dependence gating, tiny working sets).
#[test]
fn randomized_kernels_are_burst_invariant() {
    testkit::check_n("burst-equivalence-sweep", 16, |rng| {
        let pattern = match rng.range_u32(0, 3) {
            0 => AccessPattern::Streaming { bytes_per_access: 32 << rng.range_u32(0, 2) },
            1 => AccessPattern::ReuseWorkingSet {
                ws_bytes: 4096 << rng.range_u32(0, 4),
                shared: rng.bool(),
            },
            2 => AccessPattern::Tiled {
                tile_bytes: 2048 << rng.range_u32(0, 3),
                reuse: rng.range_u32(2, 5),
                shared: rng.bool(),
            },
            _ => AccessPattern::RandomInSet {
                ws_bytes: 8192 << rng.range_u32(0, 3),
                shared: rng.bool(),
            },
        };
        let mut b = KernelBuilder::new("sweep")
            .grid(rng.range_u32(2, 9), rng.range_u32(1, 9))
            .regs_per_thread(rng.range_u32(16, 65))
            .iterations(rng.range_u32(30, 120))
            .load_then_use(pattern, rng.range_u32(0, 4));
        for _ in 0..rng.range_u32(0, 5) {
            b = b.alu(rng.range_u32(1, 4));
        }
        if rng.bool() {
            b = b.store(AccessPattern::SparseStream { period: rng.range_u32(2, 6) });
        }
        let k = b.build().expect("kernel must validate");
        let cfg = GpuConfig::default().with_sms(rng.range_u32(1, 5)).with_windows(5_000, 60_000);
        let (name, factory) = policies().swap_remove(rng.range_usize(0, 4));
        assert_equivalent(&cfg, &k, &factory, &format!("sweep arch={name}"));
    });
}

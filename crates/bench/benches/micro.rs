//! Micro-benchmarks of the simulator's hot paths: tag array, MSHRs,
//! coalescer, register file, DRAM, VTT, Load Monitor, `LBW1` decode, the
//! replay record cursor, a full-GPU cycle, a 16-SM GPU construction, and
//! the harness's plan and dedupe.
//!
//! Timed with the in-tree `testkit::bench` harness (the container has no
//! crates.io access, so criterion is not available). Each iteration batches
//! `OPS` operations so per-op overhead dominates the timer resolution.

use std::collections::HashSet;
use std::hint::black_box;

use gpu_sim::cache::{MshrFile, TagArray};
use gpu_sim::coalesce::coalesce;
use gpu_sim::config::{DramConfig, GpuConfig};
use gpu_sim::dram::{Dram, TrafficClass};
use gpu_sim::gpu::Gpu;
use gpu_sim::kernel::KernelBuilder;
use gpu_sim::pattern::AccessPattern;
use gpu_sim::policy::baseline_factory;
use gpu_sim::regfile::RegFile;
use gpu_sim::types::{Address, CtaId, LineAddr, Pc, RegNum};
use lb_bench::{experiments, Arch, Runner, Scale};
use linebacker::{LbConfig, LinebackerPolicy, LoadMonitor, Vtt};
use testkit::bench;

/// Operations per timed iteration.
const OPS: u64 = 100_000;
const ITERS: u32 = 10;

/// Probe-then-fill over `lines` distinct lines cycled in order through an
/// `n_sets` x `assoc` array without payloads, as the L2 and CERF keep them:
/// a mix of hits (recency moves) and evictions.
fn bench_tag_array_at(name: &str, n_sets: u32, assoc: u32, lines: u64) {
    let mut t: TagArray<()> = TagArray::new(n_sets, assoc);
    let mut i = 0u64;
    bench(name, ITERS, || {
        for _ in 0..OPS {
            i += 1;
            let line = LineAddr(i.wrapping_mul(0x9E37_79B9) % lines);
            if t.probe(black_box(line)).is_none() {
                t.fill(line, ());
            }
        }
    });
}

fn bench_tag_array() {
    let mut t: TagArray<u8> = TagArray::new(48, 8);
    let mut i = 0u64;
    bench("tag_array_probe_fill_100k", ITERS, || {
        for _ in 0..OPS {
            i += 1;
            let line = LineAddr(i % 1000);
            if t.probe(black_box(line)).is_none() {
                t.fill(line, 0);
            }
        }
    });
    // Table 1's L2 (2048 x 8) over a working set 1.5x its 16,384 lines, and
    // CERF's 48 x 32 store over 2,048 lines (1.33x its 1,536).
    bench_tag_array_at("tag_array_l2_2048x8_100k", 2048, 8, 24_576);
    bench_tag_array_at("tag_array_cerf_48x32_100k", 48, 32, 2_048);
}

fn bench_mshr() {
    let mut m = MshrFile::new(64);
    let mut i = 0u64;
    bench("mshr_allocate_complete_100k", ITERS, || {
        for _ in 0..OPS {
            i += 1;
            let line = LineAddr(i % 48);
            m.allocate(black_box(line), i);
            if i.is_multiple_of(4) {
                m.complete(line);
            }
        }
    });
    // Deep merges: 16 lines in flight, each collecting 32 waiters before
    // it completes (an L2 file serving every SM's miss on a hot line).
    let mut m = MshrFile::new(256);
    let mut out = Vec::new();
    let mut i = 0u64;
    bench("mshr_deep_merge_100k", ITERS, || {
        for _ in 0..OPS / 512 {
            for w in 0..512u64 {
                i += 1;
                m.allocate(black_box(LineAddr(w % 16)), i);
            }
            for line in 0..16 {
                m.complete_into(LineAddr(line), &mut out);
                black_box(out.len());
            }
        }
    });
}

fn bench_coalescer() {
    let coalesced: Vec<Address> = (0..32).map(|l| Address(0x1000 + l * 4)).collect();
    let divergent: Vec<Address> = (0..32).map(|l| Address(l * 4096)).collect();
    bench("coalesce_unit_stride_100k", ITERS, || {
        for _ in 0..OPS {
            black_box(coalesce(black_box(&coalesced)));
        }
    });
    bench("coalesce_divergent_10k", ITERS, || {
        for _ in 0..OPS / 10 {
            black_box(coalesce(black_box(&divergent)));
        }
    });
}

fn bench_regfile() {
    let mut rf = RegFile::new(2048, 32, 32);
    rf.allocate_cta(CtaId(0), 256);
    let mut i = 0u64;
    bench("regfile_access_100k", ITERS, || {
        for _ in 0..OPS {
            i += 1;
            black_box(rf.access(RegNum((i % 256) as u32), i / 3, i.is_multiple_of(3)));
        }
    });
}

fn bench_dram() {
    let mut d = Dram::new(DramConfig::default(), 2.45);
    let mut done = Vec::new();
    let mut i = 0u64;
    bench("dram_tick_loaded_100k", ITERS, || {
        for _ in 0..OPS {
            i += 1;
            if i.is_multiple_of(2) {
                d.push(LineAddr(i * 7), TrafficClass::DemandRead, i as u32, i);
            }
            done.clear();
            d.tick(i, &mut done, &gpu_sim::trace::Tracer::off());
            black_box(done.len());
        }
    });
}

fn bench_vtt() {
    let mut v = Vtt::new(&LbConfig::default());
    v.set_tag_only(false);
    v.refresh_partitions(511);
    let mut i = 0u64;
    bench("vtt_insert_lookup_100k", ITERS, || {
        for _ in 0..OPS {
            i += 1;
            v.insert(LineAddr(i % 400));
            black_box(v.lookup(LineAddr((i * 3) % 400)));
        }
    });
    // All 8 four-way partitions active, and 3,000 lines against 1,536
    // ways: lookups scan every partition and insertions evict by LRU.
    let mut v = Vtt::new(&LbConfig::default());
    v.set_tag_only(false);
    v.refresh_partitions(511);
    assert_eq!(v.active_vps(), 8);
    let mut i = 0u64;
    bench("vtt_8vp_evicting_100k", ITERS, || {
        for _ in 0..OPS {
            i += 1;
            let line = LineAddr(i.wrapping_mul(0x9E37_79B9) % 3_000);
            if v.lookup(black_box(line)).is_none() {
                v.insert(line);
            }
        }
    });
}

fn bench_load_monitor() {
    let mut lm = LoadMonitor::new(32, 0.2);
    let mut i = 0u32;
    bench("load_monitor_record_100k", ITERS, || {
        for _ in 0..OPS {
            i += 1;
            lm.record(Pc(i % 256), i.is_multiple_of(3));
        }
    });
}

fn bench_lb_policy_construction() {
    let gpu = GpuConfig::default();
    let kernel = KernelBuilder::new("k")
        .grid(8, 8)
        .regs_per_thread(24)
        .load_then_use(AccessPattern::reuse_working_set(2048, false), 2)
        .iterations(100)
        .build()
        .unwrap();
    bench("linebacker_policy_new_1k", ITERS, || {
        for _ in 0..1000 {
            black_box(LinebackerPolicy::new(
                LbConfig::default(),
                gpu_sim::types::SmId(0),
                &gpu,
                &kernel,
            ));
        }
    });
}

fn bench_gpu_cycle() {
    let cfg = GpuConfig::default().with_sms(1).with_windows(4_000, u64::MAX / 2);
    let kernel = KernelBuilder::new("k")
        .grid(64, 8)
        .regs_per_thread(24)
        .load_then_use(AccessPattern::reuse_working_set(2048, false), 2)
        .alu(2)
        .iterations(1_000_000)
        .build()
        .unwrap();
    let mut gpu = Gpu::new(cfg, kernel, &baseline_factory());
    // Warm up dispatch.
    for _ in 0..100 {
        gpu.step();
    }
    bench("gpu_step_1sm_10k", ITERS, || {
        for _ in 0..10_000 {
            gpu.step();
        }
    });
}

/// `Gpu::new` of the Table 1 machine (16 SMs) for S2 under Linebacker: the
/// construction `gpu.new_ms` times per simulation, ten per iteration.
fn bench_gpu_new() {
    let cfg = GpuConfig::default();
    let kernel = workloads::app("S2").expect("S2 is a Table 2 app").kernel(cfg.n_sms);
    let arch = Arch::Linebacker;
    let cfg = arch.transform_config_with(&cfg, &kernel);
    let factory = arch.factory();
    bench("gpu_new_table1_lb", ITERS, || {
        for _ in 0..10 {
            black_box(Gpu::new(cfg.clone(), kernel.clone(), &factory));
        }
    });
}

/// The checked-in `LBW1` corpus: three captured kernels of 7,680 to 9,216
/// ops each.
fn corpus() -> Vec<Vec<u8>> {
    ["bi-mixed", "ge-stream", "s1-reuse"]
        .iter()
        .map(|name| std::fs::read(lb_replay::testdata_dir().join(format!("{name}.lbw1"))).unwrap())
        .collect()
}

/// Decodes the corpus, as a replay set-up decodes its traces, and walks
/// every access record of it with a record cursor, as replayed warps read
/// their memory ops.
fn bench_replay() {
    let files = corpus();
    bench("lbw1_decode_corpus", ITERS, || {
        for bytes in &files {
            black_box(lb_replay::decode(black_box(bytes)).unwrap());
        }
    });
    let kernels: Vec<_> = files.iter().map(|b| lb_replay::decode(b).unwrap()).collect();
    // Records per trip: 2,304 + 1,536 + 2,304.
    bench("replay_fetch_cursor", ITERS, || {
        for rep in &kernels {
            for s in rep.streams() {
                let (mut cur, end) = (s.cursor(), s.end().byte);
                while cur.byte < end {
                    black_box(rep.read_record(&mut cur));
                }
            }
        }
    });
}

/// The harness set-up the benchmark's `suite-quick` workload times: a
/// quick-scale runner, the default suite's 18 plans, and a std `HashSet`
/// dedupe of their keys (2,083 planned, 809 distinct).
fn bench_harness_plan() {
    bench("harness_plan_dedupe", 100, || {
        let runner = Runner::new(Scale::Quick);
        let mut seen = HashSet::new();
        let mut keys = Vec::new();
        for id in experiments::ALL {
            let batch = experiments::plan(id, &runner).expect("default-suite ids have plans");
            keys.extend(batch.into_iter().filter(|k| seen.insert(*k)));
        }
        black_box(keys);
    });
}

fn main() {
    bench_tag_array();
    bench_mshr();
    bench_coalescer();
    bench_regfile();
    bench_dram();
    bench_vtt();
    bench_load_monitor();
    bench_lb_policy_construction();
    bench_replay();
    bench_gpu_cycle();
    bench_gpu_new();
    bench_harness_plan();
}

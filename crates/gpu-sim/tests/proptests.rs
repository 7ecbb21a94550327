//! Randomized property tests for the simulator substrate (seeded and
//! deterministic, via the in-tree `testkit` crate).

use testkit::{check, Rng};

use gpu_sim::config::{DramConfig, GpuConfig};
use gpu_sim::dram::{Dram, TrafficClass};
use gpu_sim::kernel::KernelBuilder;
use gpu_sim::pattern::{AccessCtx, AccessPattern};
use gpu_sim::scheduler::GtoScheduler;
use gpu_sim::trace::Tracer;
use gpu_sim::types::{LineAddr, LoadId, SmId, WarpId, LINE_BYTES};

fn any_pattern(r: &mut Rng) -> AccessPattern {
    match r.range_u32(0, 5) {
        0 => AccessPattern::ReuseWorkingSet {
            ws_bytes: r.range_u64(1, 64) * LINE_BYTES,
            shared: r.bool(),
        },
        1 => AccessPattern::Streaming { bytes_per_access: r.range_u64(1, 8) * LINE_BYTES },
        2 => AccessPattern::Tiled {
            tile_bytes: r.range_u64(1, 32) * LINE_BYTES,
            reuse: r.range_u32(1, 8),
            shared: r.bool(),
        },
        3 => AccessPattern::RandomInSet {
            ws_bytes: r.range_u64(1, 64) * LINE_BYTES,
            shared: r.bool(),
        },
        _ => AccessPattern::Divergent {
            ws_bytes: r.range_u64(8, 256) * LINE_BYTES,
            lines_per_access: r.range_u32(1, 32),
        },
    }
}

/// Every pattern is deterministic and produces 1..=32 lines per access.
#[test]
fn patterns_deterministic_and_bounded() {
    check("patterns_deterministic_and_bounded", |r| {
        let pattern = any_pattern(r);
        let ctx = AccessCtx {
            seed: 42,
            sm: SmId(1),
            global_warp: r.range_u64(0, 256),
            load: LoadId(3),
            access_index: r.range_u64(0, 10_000),
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        pattern.gen_lines(ctx, &mut a);
        pattern.gen_lines(ctx, &mut b);
        assert_eq!(&a, &b, "patterns must be stateless/deterministic");
        assert!(!a.is_empty() && a.len() <= 32, "access produced {} lines", a.len());
        // No duplicate lines within one access (post-coalescing invariant).
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), a.len());
    });
}

/// Reuse patterns cycle with period = working-set lines; footprints stay
/// within the declared working set.
#[test]
fn reuse_pattern_period() {
    check("reuse_pattern_period", |r| {
        let lines = r.range_u64(1, 64);
        let warp = r.range_u64(0, 64);
        let p = AccessPattern::ReuseWorkingSet { ws_bytes: lines * LINE_BYTES, shared: false };
        let gen = |idx: u64| {
            let mut v = Vec::new();
            p.gen_lines(
                AccessCtx {
                    seed: 7,
                    sm: SmId(0),
                    global_warp: warp,
                    load: LoadId(0),
                    access_index: idx,
                },
                &mut v,
            );
            v[0]
        };
        assert_eq!(gen(0), gen(lines));
        let footprint: std::collections::HashSet<LineAddr> = (0..lines * 2).map(gen).collect();
        assert_eq!(footprint.len() as u64, lines);
    });
}

/// DRAM conserves requests: everything pushed eventually completes, and
/// bytes equal requests x line size.
#[test]
fn dram_conserves_requests() {
    check("dram_conserves_requests", |r| {
        let lines = r.vec(1, 100, |r| r.range_u64(0, 10_000));
        let mut d = Dram::new(DramConfig::default(), 2.0);
        for (i, &l) in lines.iter().enumerate() {
            d.push(LineAddr(l), TrafficClass::DemandRead, i as u32, 0);
        }
        let mut done = Vec::new();
        let mut out = 0usize;
        for c in 0..200_000u64 {
            done.clear();
            d.tick(c, &mut done, &Tracer::off());
            out += done.len();
            if d.pending() == 0 {
                break;
            }
        }
        assert_eq!(out, lines.len(), "all requests must complete");
        assert_eq!(d.total_bytes(), lines.len() as u64 * LINE_BYTES);
    });
}

/// GTO always returns a member of the ready set.
#[test]
fn gto_picks_from_ready_set() {
    check("gto_picks_from_ready_set", |r| {
        let ready = r.vec(0, 20, |r| (r.range_u32(0, 64), r.range_u64(0, 1000)));
        let mut s = GtoScheduler::new();
        let pairs: Vec<(WarpId, u64)> = ready.iter().map(|&(w, a)| (WarpId(w), a)).collect();
        match s.pick(&pairs) {
            Some(w) => assert!(pairs.iter().any(|&(x, _)| x == w)),
            None => assert!(pairs.is_empty()),
        }
    });
}

/// Kernel builder output always validates, and per-CTA register math is
/// consistent.
#[test]
fn built_kernels_validate() {
    check("built_kernels_validate", |r| {
        let ctas = r.range_u32(1, 64);
        let warps = r.range_u32(1, 16);
        let regs = r.range_u32(1, 64);
        let iters = r.range_u32(1, 1000);
        let k = KernelBuilder::new("prop")
            .grid(ctas, warps)
            .regs_per_thread(regs)
            .load_then_use(AccessPattern::streaming(128), 1)
            .alu(2)
            .iterations(iters)
            .build()
            .unwrap();
        assert!(k.validate().is_ok());
        assert_eq!(k.regs_per_cta(), warps * regs);
        assert_eq!(k.dyn_insts_per_warp(), k.body.len() as u64 * iters as u64);
    });
}

/// Config geometry stays valid for all L1 sweep sizes used anywhere.
#[test]
fn l1_sweep_geometry() {
    for kb in [16u64, 32, 48, 64, 96, 128, 192] {
        let cfg = GpuConfig::default().with_l1_size(kb * 1024);
        let sets = cfg.l1.n_sets();
        assert_eq!(sets as u64 * 8 * 128, kb * 1024);
    }
}

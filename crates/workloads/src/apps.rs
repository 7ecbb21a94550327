//! The 20 synthetic benchmark applications (the paper's Table 2).
//!
//! Each model reproduces the *memory-visible* behaviour of the real
//! benchmark: the per-load reused working sets, streaming footprints,
//! register pressure, and the resulting cache-sensitivity class. The real
//! CUDA sources are not executed; see DESIGN.md §1 for the substitution
//! rationale.

use std::sync::OnceLock;

use gpu_sim::pattern::AccessPattern;

use crate::spec::{AppLoad, AppSpec, Sensitivity};

const KB: u64 = 1024;

fn reuse(ws_kb: u64, gap: u32) -> AppLoad {
    AppLoad { pattern: AccessPattern::reuse_working_set(ws_kb * KB, true), use_gap: gap }
}

/// Per-warp private reused working set (`ws_bytes` *per warp*). This is the
/// dominant pattern of the paper's cache-sensitive apps: Figure 2 notes that
/// 85 % of the reused working set is private to one load, and warp
/// throttling helps precisely because fewer active warps shrink the live
/// footprint.
fn reuse_private(ws_bytes: u64, gap: u32) -> AppLoad {
    AppLoad { pattern: AccessPattern::reuse_working_set(ws_bytes, false), use_gap: gap }
}

fn random(ws_kb: u64, gap: u32) -> AppLoad {
    AppLoad {
        pattern: AccessPattern::RandomInSet { ws_bytes: ws_kb * KB, shared: true },
        use_gap: gap,
    }
}

fn stream(bytes_per_access: u64, gap: u32) -> AppLoad {
    AppLoad { pattern: AccessPattern::streaming(bytes_per_access), use_gap: gap }
}

fn tiled(tile_kb: u64, reuse_count: u32, gap: u32) -> AppLoad {
    AppLoad {
        pattern: AccessPattern::Tiled {
            tile_bytes: tile_kb * KB,
            reuse: reuse_count,
            shared: true,
        },
        use_gap: gap,
    }
}

fn divergent(ws_kb: u64, lines: u32, gap: u32) -> AppLoad {
    AppLoad {
        pattern: AccessPattern::Divergent { ws_bytes: ws_kb * KB, lines_per_access: lines },
        use_gap: gap,
    }
}

/// All 20 applications in the paper's Table 2 order (cache-sensitive group
/// first). The table is built once per process; every plan, render and
/// simulation of the harness reads this one copy.
pub fn all_apps() -> &'static [AppSpec] {
    static TABLE: OnceLock<Vec<AppSpec>> = OnceLock::new();
    TABLE.get_or_init(build_table)
}

fn build_table() -> Vec<AppSpec> {
    vec![
        // ---------------- cache-sensitive ----------------
        AppSpec {
            abbrev: "S2",
            description: "Symmetric rank-2k operations (Polybench SYR2K)",
            sensitivity: Sensitivity::CacheSensitive,
            warps_per_cta: 8,
            regs_per_thread: 24,
            loads: vec![reuse_private(2048, 2), reuse(16, 2)],
            alu_per_iter: 3,
            has_store: true,
        },
        AppSpec {
            abbrev: "GE",
            description: "Scalar, vector and matrix multiplication (Polybench GESUMMV)",
            sensitivity: Sensitivity::CacheSensitive,
            warps_per_cta: 8,
            regs_per_thread: 20,
            loads: vec![reuse_private(2048, 3), reuse(16, 1)],
            alu_per_iter: 2,
            has_store: false,
        },
        AppSpec {
            abbrev: "BI",
            description: "BiCGStab linear solver (Polybench BICG)",
            sensitivity: Sensitivity::CacheSensitive,
            warps_per_cta: 8,
            regs_per_thread: 16,
            loads: vec![reuse_private(1024, 2), stream(128, 1)],
            alu_per_iter: 2,
            has_store: true,
        },
        AppSpec {
            abbrev: "KM",
            description: "KMeans clustering (Rodinia)",
            sensitivity: Sensitivity::CacheSensitive,
            warps_per_cta: 8,
            regs_per_thread: 28,
            loads: vec![random(48, 2), reuse_private(1024, 1), stream(128, 1)],
            alu_per_iter: 3,
            has_store: true,
        },
        AppSpec {
            abbrev: "AT",
            description: "Matrix transpose-vector multiplication (Polybench ATAX)",
            sensitivity: Sensitivity::CacheSensitive,
            warps_per_cta: 8,
            regs_per_thread: 20,
            loads: vec![divergent(32, 4, 3), reuse_private(2048, 1)],
            alu_per_iter: 2,
            has_store: false,
        },
        AppSpec {
            abbrev: "BC",
            description: "Breadth-first search (CUDA SDK)",
            sensitivity: Sensitivity::CacheSensitive,
            warps_per_cta: 8,
            regs_per_thread: 16,
            loads: vec![random(48, 2), reuse_private(1024, 1), stream(128, 1)],
            alu_per_iter: 1,
            has_store: true,
        },
        AppSpec {
            abbrev: "S1",
            description: "Symmetric rank-1k operations (Polybench SYRK)",
            sensitivity: Sensitivity::CacheSensitive,
            warps_per_cta: 8,
            regs_per_thread: 22,
            loads: vec![reuse_private(2048, 2), reuse(16, 2)],
            alu_per_iter: 3,
            has_store: true,
        },
        AppSpec {
            abbrev: "MV",
            description: "Matrix-vector product transpose (Polybench MVT)",
            sensitivity: Sensitivity::CacheSensitive,
            warps_per_cta: 8,
            regs_per_thread: 16,
            loads: vec![reuse_private(2048, 2), divergent(16, 2, 2)],
            alu_per_iter: 2,
            has_store: false,
        },
        AppSpec {
            abbrev: "CF",
            description: "CFD Euler solver (Rodinia)",
            sensitivity: Sensitivity::CacheSensitive,
            warps_per_cta: 8,
            regs_per_thread: 24,
            loads: vec![reuse_private(1792, 2), reuse(24, 2)],
            alu_per_iter: 4,
            has_store: true,
        },
        AppSpec {
            abbrev: "PF",
            description: "Particle filter, float variant (Rodinia)",
            sensitivity: Sensitivity::CacheSensitive,
            warps_per_cta: 8,
            regs_per_thread: 20,
            loads: vec![reuse_private(1792, 2), random(16, 1)],
            alu_per_iter: 3,
            has_store: true,
        },
        // ---------------- cache-insensitive ----------------
        AppSpec {
            abbrev: "BG",
            description: "Breadth-first search (GPGPU-Sim suite)",
            sensitivity: Sensitivity::CacheInsensitive,
            warps_per_cta: 4,
            regs_per_thread: 12,
            loads: vec![random(16, 1), stream(128, 1)],
            alu_per_iter: 1,
            has_store: true,
        },
        AppSpec {
            abbrev: "LI",
            description: "LIBOR Monte Carlo (GPGPU-Sim suite)",
            sensitivity: Sensitivity::CacheInsensitive,
            warps_per_cta: 8,
            regs_per_thread: 32,
            loads: vec![stream(256, 2), reuse(8, 1)],
            alu_per_iter: 6,
            has_store: false,
        },
        AppSpec {
            abbrev: "SR2",
            description: "SRAD v2 speckle-reducing diffusion (Rodinia)",
            sensitivity: Sensitivity::CacheInsensitive,
            warps_per_cta: 8,
            regs_per_thread: 24,
            loads: vec![stream(256, 2), reuse(12, 1)],
            alu_per_iter: 4,
            has_store: true,
        },
        AppSpec {
            abbrev: "SP",
            description: "Sparse matrix-vector multiplication (Parboil SPMV)",
            sensitivity: Sensitivity::CacheInsensitive,
            warps_per_cta: 4,
            regs_per_thread: 16,
            loads: vec![divergent(24, 4, 2), stream(128, 1)],
            alu_per_iter: 1,
            has_store: true,
        },
        AppSpec {
            abbrev: "BR",
            description: "Breadth-first search (Rodinia)",
            sensitivity: Sensitivity::CacheInsensitive,
            warps_per_cta: 6,
            regs_per_thread: 12,
            loads: vec![random(24, 1), stream(128, 1)],
            alu_per_iter: 1,
            has_store: true,
        },
        AppSpec {
            abbrev: "FD",
            description: "2D finite-difference time-domain stencil (Polybench FDTD-2D)",
            sensitivity: Sensitivity::CacheInsensitive,
            warps_per_cta: 8,
            regs_per_thread: 20,
            loads: vec![stream(128, 1), stream(128, 1), stream(128, 1)],
            alu_per_iter: 3,
            has_store: true,
        },
        AppSpec {
            abbrev: "GA",
            description: "Gaussian elimination (Rodinia)",
            sensitivity: Sensitivity::CacheInsensitive,
            warps_per_cta: 2,
            regs_per_thread: 16,
            loads: vec![reuse(16, 1)],
            alu_per_iter: 2,
            has_store: true,
        },
        AppSpec {
            abbrev: "2D",
            description: "2D convolution (Polybench 2DCONV)",
            sensitivity: Sensitivity::CacheInsensitive,
            warps_per_cta: 8,
            regs_per_thread: 16,
            loads: vec![stream(256, 2), tiled(8, 4, 1)],
            alu_per_iter: 2,
            has_store: true,
        },
        AppSpec {
            abbrev: "SR1",
            description: "SRAD v1 speckle-reducing diffusion (Rodinia)",
            sensitivity: Sensitivity::CacheInsensitive,
            warps_per_cta: 6,
            regs_per_thread: 24,
            loads: vec![reuse(20, 2), stream(128, 1)],
            alu_per_iter: 3,
            has_store: true,
        },
        AppSpec {
            abbrev: "HS",
            description: "HotSpot thermal simulation (Rodinia)",
            sensitivity: Sensitivity::CacheInsensitive,
            warps_per_cta: 8,
            regs_per_thread: 28,
            loads: vec![tiled(16, 6, 2), stream(256, 1)],
            alu_per_iter: 4,
            has_store: true,
        },
    ]
}

/// Looks an application up by its Table 2 abbreviation and returns a copy
/// of its table entry.
pub fn app(abbrev: &str) -> Option<AppSpec> {
    all_apps().iter().find(|a| a.abbrev == abbrev).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::config::GpuConfig;

    #[test]
    fn twenty_apps_ten_per_class() {
        let apps = all_apps();
        assert_eq!(apps.len(), 20);
        let sensitive =
            apps.iter().filter(|a| a.sensitivity == Sensitivity::CacheSensitive).count();
        assert_eq!(sensitive, 10);
    }

    #[test]
    fn abbreviations_unique_and_match_paper() {
        let apps = all_apps();
        let expect = [
            "S2", "GE", "BI", "KM", "AT", "BC", "S1", "MV", "CF", "PF", "BG", "LI", "SR2", "SP",
            "BR", "FD", "GA", "2D", "SR1", "HS",
        ];
        let got: Vec<&str> = apps.iter().map(|a| a.abbrev).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn all_kernels_build() {
        for a in all_apps() {
            let k = a.kernel_with(1, 10);
            assert!(k.validate().is_ok(), "{} kernel invalid", a.abbrev);
        }
    }

    #[test]
    fn lookup_by_abbrev() {
        assert!(app("S2").is_some());
        assert!(app("HS").is_some());
        assert!(app("zz").is_none());
    }

    #[test]
    fn sensitive_apps_have_big_working_sets() {
        // Figure 2's claim: the top loads of cache-sensitive apps exceed the
        // 48 KB L1. Sensitive apps resident 8 CTAs x 8 warps = 64 warps.
        for a in all_apps() {
            if a.sensitivity == Sensitivity::CacheSensitive {
                let warps = a.resident_ctas(&GpuConfig::default()) as u64 * a.warps_per_cta as u64;
                assert!(
                    a.nominal_ws_bytes(warps) > 48 * 1024,
                    "{} working set {} too small for its class",
                    a.abbrev,
                    a.nominal_ws_bytes(warps)
                );
            }
        }
    }

    #[test]
    fn insensitive_apps_fit_or_stream() {
        for a in all_apps() {
            if a.sensitivity == Sensitivity::CacheInsensitive {
                let fits = a.nominal_ws_bytes(48) <= 48 * 1024;
                assert!(fits || a.has_streaming_load(), "{} should fit in L1 or stream", a.abbrev);
            }
        }
    }

    #[test]
    fn streaming_apps_match_figure3() {
        // BI, LI, SR2, 2D, HS access streaming data beyond the cache size.
        for abbrev in ["BI", "LI", "SR2", "2D", "HS"] {
            assert!(app(abbrev).unwrap().has_streaming_load(), "{abbrev}");
        }
    }

    #[test]
    fn sur_spread_matches_figure4_range() {
        // Figure 4: SUR spans roughly 4-144 KB across apps. Ours must spread
        // over a comparable range (not all zero, not all maximal).
        let cfg = GpuConfig::default();
        let surs: Vec<u64> = all_apps().iter().map(|a| a.static_unused_bytes(&cfg)).collect();
        let max = *surs.iter().max().unwrap();
        let min = *surs.iter().min().unwrap();
        assert!(max >= 64 * 1024, "largest SUR {} too small", max);
        assert!(min <= 16 * 1024, "smallest SUR {} too large", min);
        let avg = surs.iter().sum::<u64>() / surs.len() as u64;
        assert!(
            (32 * 1024..=128 * 1024).contains(&avg),
            "average SUR {avg} outside the paper's ballpark"
        );
    }

    #[test]
    fn occupancy_within_hw_limits() {
        let cfg = GpuConfig::default();
        for a in all_apps() {
            let r = a.resident_ctas(&cfg);
            assert!((1..=32).contains(&r), "{}: resident {r}", a.abbrev);
            assert!(r * a.warps_per_cta <= 64, "{}: too many warps", a.abbrev);
        }
    }
}

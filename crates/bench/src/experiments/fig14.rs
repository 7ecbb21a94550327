//! Figure 14: L1 cache-size sweep (16/48/64/96/128 KB). Within each cache
//! configuration, Linebacker and CERF are normalized to the baseline with
//! the same L1 size. The paper reports LB/CERF improvements of 78.0/58.1 %
//! at 16 KB shrinking to 12.0/6.1 % at 128 KB.

use workloads::all_apps;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{f3, Table};

/// The swept L1 sizes in KB.
pub const L1_SIZES_KB: [u64; 5] = [16, 48, 64, 96, 128];

/// Runs the cache-size sweep.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "fig14",
        "L1 size sweep: LB and CERF geometric-mean speedup vs same-size baseline",
        vec!["l1_kb".into(), "LB".into(), "CERF".into()],
    );
    for kbs in L1_SIZES_KB {
        let bytes = kbs * 1024;
        let mut lb_ratios = Vec::new();
        let mut cerf_ratios = Vec::new();
        for app in all_apps() {
            let base = r.run_l1(app, Arch::Baseline, bytes).ipc();
            let lb = r.run_l1(app, Arch::Linebacker, bytes).ipc();
            let cerf = r.run_l1(app, Arch::Cerf, bytes).ipc();
            lb_ratios.push(lb / base.max(1e-9));
            cerf_ratios.push(cerf / base.max(1e-9));
        }
        t.row(vec![
            kbs.to_string(),
            f3(gpu_sim::stats::geometric_mean(&lb_ratios)),
            f3(gpu_sim::stats::geometric_mean(&cerf_ratios)),
        ]);
    }
    t.note("paper: 16KB LB 1.78 / CERF 1.58; 48KB LB 1.44; 128KB LB 1.12 / CERF 1.06");
    t.note("expected shape: gains shrink as the L1 grows; LB >= CERF throughout");
    t
}

/// The simulations [`run`] needs, as a prefetchable plan.
pub fn runs(_r: &Runner) -> Vec<RunKey> {
    let mut keys = Vec::new();
    for kbs in L1_SIZES_KB {
        let bytes = kbs * 1024;
        for app in all_apps() {
            for arch in [Arch::Baseline, Arch::Linebacker, Arch::Cerf] {
                keys.push(RunKey::for_app(app, arch).with_l1(bytes));
            }
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gains_shrink_with_cache_size_and_lb_leads() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        let lb: Vec<f64> = t.rows.iter().map(|row| row[1].parse().unwrap()).collect();
        let cerf: Vec<f64> = t.rows.iter().map(|row| row[2].parse().unwrap()).collect();
        // Gains shrink as the cache grows: the 48 KB point must beat the
        // 128 KB point (the 16 KB point is noisy at quick scale because the
        // severely thrashed baseline slows warp progress).
        assert!(lb[1] > *lb.last().unwrap(), "LB gain should shrink from 48KB to 128KB: {lb:?}");
        // LB never seriously harms any cache size.
        for (i, v) in lb.iter().enumerate() {
            assert!(*v > 0.93, "LB harmful at sweep point {i}: {v}");
        }
        // CERF also shrinks with cache size (its gain comes from the same
        // extra capacity).
        assert!(cerf[1] > 0.95, "CERF harmful at 48KB: {}", cerf[1]);
        // LB improves on the baseline at 48 KB.
        assert!(lb[1] > 1.0, "LB must beat the 48KB baseline");
        // Known deviation vs the paper at large caches: LB's victim space is
        // bounded by partition alignment above the LRN, while our CERF model
        // uses all statically idle registers — so CERF can lead at 96-128 KB
        // here (the paper has LB lead throughout). Documented in
        // EXPERIMENTS.md; not asserted.
    }
}

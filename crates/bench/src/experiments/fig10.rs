//! Figure 10: effect of VTT-partition set-associativity. The paper sweeps
//! 1/4/16-way partitions: 1-way uses 92.8 % of idle register space but pays
//! long sequential searches; 16-way wastes space (71.1 % utilization); 4-way
//! is best (88.5 % utilization, 29.0 % speedup over Best-SWL).

use workloads::all_apps;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{f3, pct, Table};

/// The swept associativities.
pub const ASSOCS: [u32; 3] = [1, 4, 16];

/// Runs the associativity sweep.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "fig10",
        "VTT partition associativity: idle-RF utilization and performance vs Best-SWL",
        vec!["assoc".into(), "utilization".into(), "perf_vs_bswl_GM".into()],
    );
    for assoc in ASSOCS {
        let arch = if assoc == 4 { Arch::Linebacker } else { Arch::LinebackerAssoc(assoc) };
        let mut ratios = Vec::new();
        let mut util_num = 0.0;
        let mut util_den = 0.0;
        for app in all_apps() {
            let s = r.run(app, arch);
            let bswl = r.best_swl_ipc(app);
            ratios.push(s.ipc() / bswl.max(1e-9));
            util_num += s.avg_victim_in_use_bytes();
            util_den += s.avg_static_unused_bytes() + s.avg_dynamic_unused_bytes();
        }
        let gm = gpu_sim::stats::geometric_mean(&ratios);
        t.row(vec![format!("{assoc}-way"), pct(util_num / util_den.max(1.0)), f3(gm)]);
    }
    t.note("paper: 1-way 92.8% util; 4-way 88.5% util, best perf (1.29); 16-way 71.1% util");
    t
}

/// The simulations [`run`] needs, as a prefetchable plan.
pub fn runs(r: &Runner) -> Vec<RunKey> {
    let mut keys = Vec::new();
    for app in all_apps() {
        keys.extend(r.best_swl_plan(app));
        for assoc in ASSOCS {
            let arch = if assoc == 4 { Arch::Linebacker } else { Arch::LinebackerAssoc(assoc) };
            keys.push(RunKey::for_app(app, arch));
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_way_is_best_and_utilization_falls_with_assoc() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        let util: Vec<f64> =
            t.rows.iter().map(|row| row[1].trim_end_matches('%').parse().unwrap()).collect();
        let perf: Vec<f64> = t.rows.iter().map(|row| row[2].parse().unwrap()).collect();
        // Utilization: 1-way >= 4-way >= 16-way.
        assert!(util[0] >= util[1] && util[1] >= util[2], "utilization order {util:?}");
        // 4-way performance should be at least as good as 16-way.
        assert!(perf[1] >= perf[2] * 0.98, "4-way {} vs 16-way {}", perf[1], perf[2]);
    }
}

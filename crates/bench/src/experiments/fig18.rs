//! Figure 18: energy consumption of CERF and Linebacker normalized to the
//! baseline. The paper reports LB at 0.779 of baseline energy (-22.1 %) and
//! CERF at 0.788 (-21.2 %): both win mostly by cutting runtime.

use workloads::all_apps;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{f3, Table};

/// Runs the energy comparison. Energy is normalized per instruction so
/// rate-based runs (fixed cycle budget) compare fairly.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "fig18",
        "energy consumption (normalized to baseline, per instruction)",
        vec!["app".into(), "CERF".into(), "LB".into()],
    );
    for app in all_apps() {
        let per_inst = |s: &gpu_sim::stats::SimStats| s.energy_mj / s.instructions.max(1) as f64;
        let base = per_inst(&r.run(app, Arch::Baseline)).max(1e-18);
        let cerf = per_inst(&r.run(app, Arch::Cerf));
        let lb = per_inst(&r.run(app, Arch::Linebacker));
        t.row(vec![app.abbrev.into(), f3(cerf / base), f3(lb / base)]);
    }
    t.gm_row("GM", &[1, 2]);
    t.note("paper: CERF 0.788, LB 0.779 of baseline energy");
    t
}

/// The simulations [`run`] needs, as a prefetchable plan.
pub fn runs(_r: &Runner) -> Vec<RunKey> {
    let mut keys = Vec::new();
    for app in all_apps() {
        for arch in [Arch::Baseline, Arch::Cerf, Arch::Linebacker] {
            keys.push(RunKey::for_app(app, arch));
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lb_saves_energy() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        let gm = t.rows.last().unwrap();
        let lb: f64 = gm[2].parse().unwrap();
        assert!(lb < 1.0, "LB must save energy per instruction (got {lb})");
    }
}

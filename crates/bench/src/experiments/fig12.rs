//! Figure 12: the headline comparison — Baseline, Best-SWL, PCAL, CERF and
//! Linebacker, normalized to Best-SWL. The paper's geometric means are
//! 0.775 / 1.000 / 1.076 / 1.196 / 1.290.

use workloads::all_apps;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{f3, Table};

/// Runs the headline comparison.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "fig12",
        "performance vs previous approaches (normalized to Best-SWL)",
        vec![
            "app".into(),
            "Baseline".into(),
            "Best-SWL".into(),
            "PCAL".into(),
            "CERF".into(),
            "LB".into(),
        ],
    );
    for app in all_apps() {
        let bswl = r.best_swl_ipc(app);
        let norm = |arch: Arch| f3(r.run(app, arch).ipc() / bswl.max(1e-9));
        t.row(vec![
            app.abbrev.into(),
            norm(Arch::Baseline),
            "1.000".into(),
            norm(Arch::Pcal),
            norm(Arch::Cerf),
            norm(Arch::Linebacker),
        ]);
    }
    t.gm_row("GM", &[1, 2, 3, 4, 5]);
    t.note("paper GM: baseline 0.775, PCAL 1.076, CERF 1.196, LB 1.290");
    t.note("known deviation: our PCAL lands below Best-SWL (see EXPERIMENTS.md)");
    t
}

/// The simulations [`run`] needs, as a prefetchable plan.
pub fn runs(r: &Runner) -> Vec<RunKey> {
    let mut keys = Vec::new();
    for app in all_apps() {
        keys.extend(r.best_swl_plan(app));
        for arch in [Arch::Baseline, Arch::Pcal, Arch::Cerf, Arch::Linebacker] {
            keys.push(RunKey::for_app(app, arch));
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_ordering_holds() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        let gm = t.rows.last().unwrap();
        let base: f64 = gm[1].parse().unwrap();
        let cerf: f64 = gm[4].parse().unwrap();
        let lb: f64 = gm[5].parse().unwrap();
        assert!(base < 1.0, "baseline must lose to Best-SWL (got {base})");
        assert!(lb > 1.0, "LB must beat Best-SWL (got {lb})");
        // At quick scale (single SM, short run) LB pays its probe cost but
        // cannot amortize it; require parity within 5%. The default scale
        // reproduces the paper's LB > CERF ordering (see EXPERIMENTS.md).
        assert!(lb > cerf * 0.95, "LB ({lb}) must not lose clearly to CERF ({cerf})");
        assert!(cerf > base, "CERF must beat baseline");
    }
}

//! Figure 15: combinations of previous works (§5.5) — PCAL+CERF,
//! Baseline+SVC, PCAL+SVC, full Linebacker, and LB+CacheExt, normalized to
//! Best-SWL. The paper reports 1.213 / (VC) / 1.251 / 1.290 / 1.419.

use workloads::all_apps;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{f3, Table};

/// Runs the combination study.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "fig15",
        "combinations of warp scheduling and cache structures (normalized to Best-SWL)",
        vec![
            "app".into(),
            "Base+SVC".into(),
            "PCAL+CERF".into(),
            "PCAL+SVC".into(),
            "LB".into(),
            "LB+CacheExt".into(),
        ],
    );
    for app in all_apps() {
        let bswl = r.best_swl_ipc(app);
        let norm = |arch: Arch| f3(r.run(app, arch).ipc() / bswl.max(1e-9));
        t.row(vec![
            app.abbrev.into(),
            norm(Arch::BaselineSvc),
            norm(Arch::PcalCerf),
            norm(Arch::PcalSvc),
            norm(Arch::Linebacker),
            norm(Arch::LbCacheExt),
        ]);
    }
    t.gm_row("GM", &[1, 2, 3, 4, 5]);
    t.note("paper GM: PCAL+CERF 1.213, PCAL+SVC 1.251, LB 1.290, LB+CacheExt 1.419");
    t
}

/// The simulations [`run`] needs, as a prefetchable plan.
pub fn runs(r: &Runner) -> Vec<RunKey> {
    let mut keys = Vec::new();
    for app in all_apps() {
        keys.extend(r.best_swl_plan(app));
        for arch in
            [Arch::BaselineSvc, Arch::PcalCerf, Arch::PcalSvc, Arch::Linebacker, Arch::LbCacheExt]
        {
            keys.push(RunKey::for_app(app, arch));
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lb_beats_partial_combinations() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        let gm = t.rows.last().unwrap();
        let base_svc: f64 = gm[1].parse().unwrap();
        let lb: f64 = gm[4].parse().unwrap();
        let lb_ext: f64 = gm[5].parse().unwrap();
        assert!(lb >= base_svc, "full LB ({lb}) must beat SVC without throttling ({base_svc})");
        assert!(lb_ext >= lb * 0.98, "LB+CacheExt ({lb_ext}) should not lose to LB ({lb})");
    }
}

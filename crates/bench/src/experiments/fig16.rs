//! Figure 16: register-file bank conflicts of CERF and Linebacker,
//! normalized to the baseline. The paper reports +52.4 % for CERF and
//! +29.1 % for Linebacker: both add victim traffic to the register banks,
//! but LB filters streaming data and hits more often in L1.

use workloads::all_apps;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{f3, Table};

/// Runs the bank-conflict comparison.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "fig16",
        "register-file bank conflicts (normalized to baseline)",
        vec!["app".into(), "CERF".into(), "LB".into()],
    );
    for app in all_apps() {
        let base = r.run(app, Arch::Baseline);
        // Normalize per executed instruction so IPC differences between the
        // architectures do not distort the conflict comparison.
        let rate = |s: &gpu_sim::stats::SimStats| {
            s.rf_bank_conflicts as f64 / s.instructions.max(1) as f64
        };
        let b = rate(&base).max(1e-12);
        let cerf = rate(&r.run(app, Arch::Cerf));
        let lb = rate(&r.run(app, Arch::Linebacker));
        t.row(vec![app.abbrev.into(), f3(cerf / b), f3(lb / b)]);
    }
    t.gm_row("GM", &[1, 2]);
    t.note("paper: CERF 1.524, LB 1.291 (conflicts per run, normalized to baseline)");
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
    fn cerf_has_more_conflicts_than_lb() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        let gm = t.rows.last().unwrap();
        let cerf: f64 = gm[1].parse().unwrap();
        let lb: f64 = gm[2].parse().unwrap();
        assert!(cerf > lb, "CERF ({cerf}) must produce more bank conflicts than LB ({lb})");
        assert!(cerf > 1.0, "CERF must add conflicts over baseline");
    }
}

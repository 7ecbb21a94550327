//! Figure 9: idle register-file space available as victim-cache storage
//! under Linebacker, and the number of locality-monitoring periods spent
//! before the high-locality loads were identified.

use workloads::all_apps;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{kb, Table};

/// Runs the idle-space measurement.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "fig09",
        "idle RF space under Linebacker (KB, per SM) and monitoring periods",
        vec![
            "app".into(),
            "static_kb".into(),
            "dynamic_kb".into(),
            "victim_in_use_kb".into(),
            "monitor_periods".into(),
        ],
    );
    let n_windows_per_sm = |samples: usize| (samples as f64 / r.config().n_sms as f64).max(1.0);
    let mut stat_sum = 0.0;
    let mut dyn_sum = 0.0;
    for app in all_apps() {
        let s = r.run(app, Arch::Linebacker);
        // rf_samples are concatenated across SMs; the averages are per SM.
        let _ = n_windows_per_sm(s.rf_samples.len());
        let stat = s.avg_static_unused_bytes();
        let dynu = s.avg_dynamic_unused_bytes();
        stat_sum += stat;
        dyn_sum += dynu;
        t.row(vec![
            app.abbrev.into(),
            kb(stat),
            kb(dynu),
            kb(s.avg_victim_in_use_bytes()),
            s.monitor_periods.to_string(),
        ]);
    }
    t.note(format!(
        "avg static {} KB (paper 88.5), avg dynamic {} KB (paper 48.5)",
        kb(stat_sum / 20.0),
        kb(dyn_sum / 20.0)
    ));
    t.note("paper: high-locality loads found within ~2 periods in most apps");
    t
}

/// The simulations [`run`] needs, as a prefetchable plan.
pub fn runs(_r: &Runner) -> Vec<RunKey> {
    all_apps().iter().map(|a| RunKey::for_app(a, Arch::Linebacker)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitoring_converges_quickly() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        // Most apps should converge (or disable) within a handful of
        // periods, as in the paper.
        let fast = t.rows.iter().filter(|row| row[4].parse::<u32>().unwrap() <= 5).count();
        assert!(fast >= 15, "only {fast}/20 apps converged within 5 periods");
    }

    #[test]
    fn throttling_produces_dynamic_space_somewhere() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        let with_dur = t.rows.iter().filter(|row| row[2].parse::<f64>().unwrap() > 0.0).count();
        assert!(with_dur >= 3, "no dynamically unused space found ({with_dur} apps)");
    }
}

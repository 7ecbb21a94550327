//! Figure 2: per-SM reused working-set size of the top-4 most frequently
//! executed non-streaming loads (re-accessed within a 50 000-cycle window).
//! The paper finds this exceeds the 48 KB L1 in 13 of 20 applications.

use workloads::all_apps;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{kb, Table};

/// Runs the working-set measurement.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "fig02",
        "per-SM reused working set of top-4 non-streaming loads (KB/window)",
        vec!["app".into(), "reused_ws_kb".into(), "exceeds_l1".into()],
    );
    let n_sms = r.config().n_sms as f64;
    let mut exceeds = 0;
    for app in all_apps() {
        let s = r.run_detailed(app);
        // Rank loads by window accesses, excluding streaming loads (the
        // paper's methodology), then sum the top 4 reused working sets.
        let mut per_load: Vec<(u64, f64)> = s
            .load_detail
            .values()
            .filter_map(|d| {
                if d.windows.is_empty() {
                    return None;
                }
                let accesses: u64 = d.windows.iter().map(|w| w.accesses).sum();
                let streaming =
                    d.windows.iter().filter(|w| w.is_streaming()).count() * 2 > d.windows.len();
                if streaming {
                    return None;
                }
                let avg_ws = d.windows.iter().map(|w| w.reused_ws_bytes).sum::<u64>() as f64
                    / d.windows.len() as f64;
                Some((accesses, avg_ws))
            })
            .collect();
        per_load.sort_by_key(|&(accesses, _)| std::cmp::Reverse(accesses));
        // Detail windows are aggregated over all SMs; divide by SM count.
        let total: f64 = per_load.iter().take(4).map(|(_, ws)| ws).sum::<f64>() / n_sms;
        if total > 48.0 * 1024.0 {
            exceeds += 1;
        }
        t.row(vec![
            app.abbrev.into(),
            kb(total),
            if total > 48.0 * 1024.0 { "yes" } else { "no" }.into(),
        ]);
    }
    t.note(format!("{exceeds}/20 apps exceed the 48 KB L1 (paper: 13/20)"));
    t.note("window length scales with the run scale; sizes are per SM");
    t
}

/// The simulations [`run`] needs, as a prefetchable plan.
pub fn runs(_r: &Runner) -> Vec<RunKey> {
    all_apps().iter().map(|a| RunKey::for_app(a, Arch::Baseline).with_detailed()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitive_apps_have_large_reused_working_sets() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        assert_eq!(t.rows.len(), 20);
        // A majority of apps should exceed L1 (paper: 13/20). At quick scale
        // windows are short, so require at least 8.
        let exceeds: u32 = t.notes[0].split('/').next().unwrap().parse().unwrap();
        assert!(exceeds >= 8, "only {exceeds}/20 exceed L1");
    }
}

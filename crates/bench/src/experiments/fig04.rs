//! Figure 4: statically (SUR) and dynamically (DUR) unused register file
//! space under the Best-SWL configuration. The paper reports SUR from
//! 4-144 KB (avg 87.1 KB) and DUR of 27-173 KB in 13/20 apps (avg 58.7 KB).

use workloads::all_apps;

use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{kb, Table};

/// Runs the unused-register measurement.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "fig04",
        "statically (SUR) and dynamically (DUR) unused register space under Best-SWL (KB)",
        vec!["app".into(), "sur_kb".into(), "dur_kb".into(), "best_swl_limit".into()],
    );
    let cfg = r.config();
    let mut sur_sum = 0.0;
    let mut dur_sum = 0.0;
    let mut dur_apps = 0;
    for app in all_apps() {
        let sur = app.static_unused_bytes(cfg) as f64;
        let (limit, _) = r.best_swl(app);
        let resident = app.resident_ctas(cfg);
        let regs_per_cta = (app.warps_per_cta * app.regs_per_thread) as u64;
        let dur = match limit {
            Some(l) if l < resident => ((resident - l) as u64 * regs_per_cta * 128) as f64,
            _ => 0.0,
        };
        sur_sum += sur;
        dur_sum += dur;
        if dur > 0.0 {
            dur_apps += 1;
        }
        t.row(vec![
            app.abbrev.into(),
            kb(sur),
            kb(dur),
            limit.map(|l| l.to_string()).unwrap_or_else(|| "none".into()),
        ]);
    }
    t.note(format!(
        "avg SUR {} KB (paper 87.1), avg DUR {} KB over all apps (paper 58.7 in {}...13/20 apps)",
        kb(sur_sum / 20.0),
        kb(dur_sum / 20.0),
        dur_apps
    ));
    t
}

/// The simulations [`run`] needs, as a prefetchable plan.
pub fn runs(r: &Runner) -> Vec<RunKey> {
    all_apps().iter().flat_map(|a| r.best_swl_plan(a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sur_spread_is_wide() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        let surs: Vec<f64> = t.rows.iter().map(|row| row[1].parse().unwrap()).collect();
        let max = surs.iter().cloned().fold(0.0, f64::max);
        let min = surs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max >= 64.0, "max SUR {max} KB too small");
        assert!(min <= 32.0, "min SUR {min} KB too big");
    }

    #[test]
    fn throttled_apps_show_dur() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        let with_dur = t.rows.iter().filter(|row| row[2].parse::<f64>().unwrap() > 0.0).count();
        assert!(with_dur >= 3, "only {with_dur} apps show DUR");
    }
}

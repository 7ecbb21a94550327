//! Figure 1: breakdown of cold vs capacity/conflict (2C) miss ratio in the
//! baseline. The paper reports an average total miss ratio of 66.6 % with
//! 44.6 % capacity/conflict (67 % of all misses).

use workloads::all_apps;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{pct, Table};

/// Runs the miss-breakdown experiment.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "fig01",
        "cold vs capacity/conflict miss ratio breakdown (baseline)",
        vec!["app".into(), "cold".into(), "2C".into(), "total_miss".into(), "2C_share".into()],
    );
    let mut cold_sum = 0.0;
    let mut c2_sum = 0.0;
    for app in all_apps() {
        let s = r.run(app, Arch::Baseline);
        let denom = (s.l1_hits + s.misses()) as f64;
        let cold = s.miss_cold as f64 / denom.max(1.0);
        let c2 = s.miss_2c as f64 / denom.max(1.0);
        cold_sum += cold;
        c2_sum += c2;
        let share = if s.misses() > 0 { s.miss_2c as f64 / s.misses() as f64 } else { 0.0 };
        t.row(vec![app.abbrev.into(), pct(cold), pct(c2), pct(cold + c2), pct(share)]);
    }
    let n = 20.0;
    t.row(vec![
        "AVG".into(),
        pct(cold_sum / n),
        pct(c2_sum / n),
        pct((cold_sum + c2_sum) / n),
        pct(c2_sum / (cold_sum + c2_sum)),
    ]);
    t.note("paper: avg total miss 66.6%, avg 2C 44.6% (67.0% of all misses)");
    t
}

/// The simulations [`run`] needs, as a prefetchable plan.
pub fn runs(_r: &Runner) -> Vec<RunKey> {
    all_apps().iter().map(|a| RunKey::for_app(a, Arch::Baseline)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_dominated_by_capacity_conflict() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        // The AVG row's 2C share should exceed 50% (paper: 67%).
        let avg = t.rows.last().unwrap();
        let share: f64 = avg[4].trim_end_matches('%').parse().unwrap();
        assert!(share > 33.0, "2C share {share}% too low");
        // Total miss ratio should be substantial (paper: 66.6%).
        let total: f64 = avg[3].trim_end_matches('%').parse().unwrap();
        assert!(total > 40.0, "total miss ratio {total}% too low");
    }
}

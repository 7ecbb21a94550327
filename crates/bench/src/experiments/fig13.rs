//! Figure 13: L1 hit / miss / bypass / register-hit breakdown for the
//! Baseline (B), Best-SWL (S), PCAL (P), CERF (C) and Linebacker (L).
//! The paper reports LB's combined hit ratio at 65.1 % (40.4 % of accesses
//! served from registers) vs CERF's 57.9 %.

use gpu_sim::types::AccessOutcome;
use workloads::all_apps;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{pct, Table};

/// Runs the request-breakdown experiment.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "fig13",
        "memory request breakdown (hit/reg-hit/bypass/miss fractions)",
        vec![
            "app".into(),
            "arch".into(),
            "hit".into(),
            "reg_hit".into(),
            "bypass".into(),
            "miss".into(),
        ],
    );
    let archs = [
        ("B", Arch::Baseline),
        ("S", Arch::StaticLimit(0)), // placeholder; replaced per app below
        ("P", Arch::Pcal),
        ("C", Arch::Cerf),
        ("L", Arch::Linebacker),
    ];
    let mut agg: Vec<(f64, f64)> = vec![(0.0, 0.0); archs.len()]; // (hit+reg, reg)
    for app in all_apps() {
        let (limit, _) = r.best_swl(app);
        for (i, (label, arch)) in archs.iter().enumerate() {
            let arch = if *label == "S" {
                match limit {
                    Some(l) => Arch::StaticLimit(l),
                    None => Arch::Baseline,
                }
            } else {
                *arch
            };
            let s = r.run(app, arch);
            let hit = s.outcome_fraction(AccessOutcome::L1Hit);
            let reg = s.outcome_fraction(AccessOutcome::RegHit);
            let byp = s.outcome_fraction(AccessOutcome::Bypass);
            let miss = s.outcome_fraction(AccessOutcome::Miss);
            agg[i].0 += hit + reg;
            agg[i].1 += reg;
            t.row(vec![
                app.abbrev.into(),
                (*label).into(),
                pct(hit),
                pct(reg),
                pct(byp),
                pct(miss),
            ]);
        }
    }
    for (i, (label, _)) in archs.iter().enumerate() {
        t.note(format!(
            "{label}: avg combined hit {} (reg hits {})",
            pct(agg[i].0 / 20.0),
            pct(agg[i].1 / 20.0)
        ));
    }
    t.note("paper: LB combined 65.1% (40.4% reg hits); CERF 57.9%");
    t
}

/// The simulations [`run`] needs, as a prefetchable plan. The "S" column
/// resolves to `StaticLimit(winning limit)` (or the baseline), both already
/// members of the Best-SWL sweep, so no second round is needed.
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
    fn lb_has_best_combined_hit_ratio() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        let get_avg = |label: &str| -> f64 {
            t.notes
                .iter()
                .find(|n| n.starts_with(&format!("{label}:")))
                .and_then(|n| n.split("combined hit ").nth(1))
                .and_then(|s| s.split('%').next())
                .and_then(|s| s.trim().parse().ok())
                .unwrap()
        };
        let b = get_avg("B");
        let l = get_avg("L");
        let c = get_avg("C");
        assert!(l > b, "LB combined hits ({l}) must beat baseline ({b})");
        assert!(l >= c * 0.95, "LB ({l}) should be at least near CERF ({c})");
    }

    #[test]
    fn lb_serves_requests_from_registers() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        // At least some apps should show double-digit reg-hit fractions.
        let strong = t
            .rows
            .iter()
            .filter(|row| row[1] == "L")
            .filter(|row| row[3].trim_end_matches('%').parse::<f64>().unwrap() > 10.0)
            .count();
        assert!(strong >= 5, "only {strong} apps show >10% reg hits under LB");
    }
}

//! Ablation sweeps over Linebacker's design parameters (beyond the paper's
//! Figure 10 associativity sweep): the Load-Monitor hit threshold, the
//! monitoring-window length, and the IPC variation bounds. These quantify
//! the sensitivity of the Table 3 choices.

use gpu_sim::stats::geometric_mean;
use workloads::{all_apps, Sensitivity};

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{f3, Table};

/// Hit-ratio thresholds swept (Table 3 default: 0.20).
pub const THRESHOLDS: [f64; 3] = [0.05, 0.20, 0.50];
/// Window lengths swept, as multiples of the scale's window.
pub const WINDOW_FACTORS: [f64; 3] = [0.5, 1.0, 2.0];
/// IPC bound magnitudes swept (Table 3 default: 0.10).
pub const BOUNDS: [f64; 3] = [0.05, 0.10, 0.20];

fn sensitive_apps() -> Vec<&'static workloads::AppSpec> {
    all_apps().iter().filter(|a| a.sensitivity == Sensitivity::CacheSensitive).collect()
}

/// Sweep values are carried in [`Arch`] variants as integer hundredths
/// (`f64` is not `Hash`/`Eq`, so it cannot live in a [`RunKey`]).
fn hundredths(x: f64) -> u32 {
    (x * 100.0).round() as u32
}

/// A window factor as the percentage [`RunKey::with_window_pct`] takes.
fn window_pct(factor: f64) -> u16 {
    u16::try_from(hundredths(factor)).expect("window factors stay below 655.36x")
}

/// Runs the three ablation sweeps. Geometric means are over the ten
/// cache-sensitive apps, normalized to the Best-SWL oracle.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "ablation",
        "Linebacker parameter ablations (GM over cache-sensitive apps, vs Best-SWL)",
        vec!["parameter".into(), "value".into(), "perf_GM".into()],
    );
    let apps = sensitive_apps();
    let bswl: Vec<f64> = apps.iter().map(|a| r.best_swl_ipc(a)).collect();

    // 1) Hit threshold (memoized through the runner; prefetched by `runs`).
    for &th in &THRESHOLDS {
        let mut ratios = Vec::new();
        for (a, &b) in apps.iter().zip(&bswl) {
            let s = r.run(a, Arch::LbThreshold(hundredths(th)));
            ratios.push(s.ipc() / b.max(1e-9));
        }
        t.row(vec!["hit_threshold".into(), format!("{th:.2}"), f3(geometric_mean(&ratios))]);
    }

    // 2) Monitoring-window length (both LB and its Best-SWL reference would
    //    shift, so normalize to the *same* window's baseline instead). Runs
    //    through the runner like every other sweep: the window override is
    //    part of the RunKey, the 1.0x centre point collapses to the plain
    //    keys the rest of the suite has already simulated, and the off-
    //    centre points are memoized, profiled, and counted like any run.
    for &f in &WINDOW_FACTORS {
        let pct = window_pct(f);
        let mut ratios = Vec::new();
        for a in &apps {
            let base = r.run_key(RunKey::for_app(a, Arch::Baseline).with_window_pct(pct));
            let lb = r.run_key(RunKey::for_app(a, Arch::Linebacker).with_window_pct(pct));
            ratios.push(lb.ipc() / base.ipc().max(1e-9));
        }
        t.row(vec![
            "window_factor(vs baseline)".into(),
            format!("{f:.1}x"),
            f3(geometric_mean(&ratios)),
        ]);
    }

    // 3) IPC variation bounds (memoized through the runner).
    for &bnd in &BOUNDS {
        let mut ratios = Vec::new();
        for (a, &b) in apps.iter().zip(&bswl) {
            let s = r.run(a, Arch::LbIpcBound(hundredths(bnd)));
            ratios.push(s.ipc() / b.max(1e-9));
        }
        t.row(vec!["ipc_bounds".into(), format!("±{bnd:.2}"), f3(geometric_mean(&ratios))]);
    }

    t.note("Table 3 defaults: threshold 0.20, window 50k cycles, bounds ±0.10");
    t.note("window sweep is normalized to the same-window baseline (not Best-SWL)");
    t
}

/// The plannable simulations [`run`] needs, window-factor sweep included:
/// the window length is carried in the [`RunKey`] (`with_window_pct`), so
/// every ablation point participates in planning, deduplication, and the
/// profiler; the 1.0x centre point collapses to the suite's plain keys.
pub fn runs(r: &Runner) -> Vec<RunKey> {
    let mut keys = Vec::new();
    for app in sensitive_apps() {
        keys.extend(r.best_swl_plan(app));
        for &th in &THRESHOLDS {
            keys.push(RunKey::for_app(app, Arch::LbThreshold(hundredths(th))));
        }
        for &f in &WINDOW_FACTORS {
            keys.push(RunKey::for_app(app, Arch::Baseline).with_window_pct(window_pct(f)));
            keys.push(RunKey::for_app(app, Arch::Linebacker).with_window_pct(window_pct(f)));
        }
        for &bnd in &BOUNDS {
            keys.push(RunKey::for_app(app, Arch::LbIpcBound(hundredths(bnd))));
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threshold_not_dominated() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        // Rows 0..3 are the threshold sweep; the 0.20 default (row 1) should
        // be within 10% of the best threshold tried.
        let vals: Vec<f64> = t.rows[..3].iter().map(|row| row[2].parse().unwrap()).collect();
        let best = vals.iter().cloned().fold(f64::MIN, f64::max);
        assert!(vals[1] >= best * 0.90, "default threshold ({}) far below best ({best})", vals[1]);
    }

    #[test]
    fn all_sweep_points_run() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        assert_eq!(t.rows.len(), 9);
        for row in &t.rows {
            let v: f64 = row[2].parse().unwrap();
            assert!(v > 0.3, "{} {} collapsed: {v}", row[0], row[1]);
        }
    }
}

//! Figure 3: per-SM streaming data size per window. A load is streaming if
//! its miss ratio with an infinite cache exceeds 95 % in a window (§2.3).
//! The paper finds >16 KB of streaming data in 9 of 20 apps, with BI, LI,
//! SR2, 2D and HS exceeding the 48 KB cache size.

use workloads::all_apps;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{kb, Table};

/// Runs the streaming-size measurement.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "fig03",
        "per-SM streaming data size per window (KB)",
        vec!["app".into(), "streaming_kb".into(), "has_streaming_load".into()],
    );
    let n_sms = r.config().n_sms as f64;
    let mut over_16 = 0;
    for app in all_apps() {
        let s = r.run_detailed(app);
        let mut bytes = 0.0;
        for d in s.load_detail.values() {
            if d.windows.is_empty() {
                continue;
            }
            // The paper's definition: >95% infinite-cache miss ratio.
            let streaming =
                d.windows.iter().filter(|w| w.is_streaming()).count() * 2 > d.windows.len();
            if streaming {
                bytes += d.windows.iter().map(|w| w.single_use_bytes).sum::<u64>() as f64
                    / d.windows.len() as f64;
            }
        }
        bytes /= n_sms;
        if bytes > 16.0 * 1024.0 {
            over_16 += 1;
        }
        t.row(vec![
            app.abbrev.into(),
            kb(bytes),
            if app.has_streaming_load() { "yes" } else { "no" }.into(),
        ]);
    }
    t.note(format!("{over_16}/20 apps stream more than 16 KB per window (paper: 9/20)"));
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
    fn streaming_apps_detected() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        // Apps modeled with streaming loads must show streaming bytes.
        for row in &t.rows {
            if row[2] == "yes" {
                let v: f64 = row[1].parse().unwrap();
                assert!(v > 0.0, "{} has a streaming load but 0 bytes", row[0]);
            }
        }
        // FD (pure streaming) must dwarf GA (pure reuse).
        let get = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[1].parse().unwrap()
        };
        assert!(get("FD") > get("GA"));
    }
}

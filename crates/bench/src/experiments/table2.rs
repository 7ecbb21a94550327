//! Table 2: the application suite and its cache-sensitivity classification
//! (>30 % speedup with a 192 KB L1 vs the 48 KB baseline).

use workloads::{all_apps, Sensitivity};

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{f2, f3, Table};

/// Runs the classification experiment.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "table2",
        "application suite and cache-sensitivity classification",
        vec![
            "app".into(),
            "ipc@48KB".into(),
            "ipc@192KB".into(),
            "speedup".into(),
            "measured".into(),
            "expected".into(),
        ],
    );
    let mut agree = 0;
    for app in all_apps() {
        let small = r.run(app, Arch::Baseline);
        let large = r.run_l1(app, Arch::Baseline, 192 * 1024);
        let speedup = if small.ipc() > 0.0 { large.ipc() / small.ipc() } else { 1.0 };
        let measured = if speedup > 1.30 { "sensitive" } else { "insensitive" };
        let expected = match app.sensitivity {
            Sensitivity::CacheSensitive => "sensitive",
            Sensitivity::CacheInsensitive => "insensitive",
        };
        if measured == expected {
            agree += 1;
        }
        t.row(vec![
            app.abbrev.into(),
            f3(small.ipc()),
            f3(large.ipc()),
            f2(speedup),
            measured.into(),
            expected.into(),
        ]);
    }
    t.note(format!("{agree}/20 apps match the paper's Table 2 classification"));
    t.note("paper threshold: >30% speedup with 192 KB L1 => cache-sensitive");
    t
}

/// The simulations [`run`] needs, as a prefetchable plan.
pub fn runs(_r: &Runner) -> Vec<RunKey> {
    let mut keys = Vec::new();
    for app in all_apps() {
        keys.push(RunKey::for_app(app, Arch::Baseline));
        keys.push(RunKey::for_app(app, Arch::Baseline).with_l1(192 * 1024));
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_mostly_agrees_at_quick_scale() {
        let r = crate::shared_quick_runner();
        let t = run(r);
        assert_eq!(t.rows.len(), 20);
        let agree: u32 = t.notes[0].split('/').next().unwrap().parse().unwrap();
        assert!(agree >= 16, "classification agreement too low: {agree}/20");
    }
}

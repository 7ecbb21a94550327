//! Partition-sensitivity sweep (simulator-infrastructure study, not a
//! paper artifact): IPC and total memory traffic across P ∈ {1, 2, 4, 8}
//! memory partitions.
//!
//! The partitioned memory subsystem splits the L2 and DRAM into P
//! identical slice/channel pairs with aggregate capacity, MSHRs, banks
//! and bandwidth held constant. The `conserved` column compares each
//! row's L2-access and DRAM-transaction totals against the P=1 row;
//! `DRIFT` (greppable) marks rows whose totals moved. At the harness
//! scales, runs are *cycle-bounded* (rate-based kernels outlive the
//! cycle cap), so a partition count that changes memory timing changes
//! how much work fits in the budget — DRIFT at P>1 therefore measures
//! timing sensitivity, not lost traffic. The strict conservation
//! invariants (per-partition counters sum to the global scalars, and
//! work-bounded runs do identical work at every P) are locked by the
//! `partition_conservation` and `partition_goldens` integration tests.
//!
//! Not registered in [`crate::experiments::ALL`]: the default suite must
//! stay byte-identical to the pre-partition harness. Run explicitly with
//! `lb-experiments partition`.

use gpu_sim::stats::SimStats;

use crate::arch::Arch;
use crate::runkey::RunKey;
use crate::runner::Runner;
use crate::table::{f3, Table};

/// Partition counts swept (powers of two; 1 is the monolithic baseline).
pub const SWEEP: [u8; 4] = [1, 2, 4, 8];

/// Apps under study: GE (cache-sensitive), LI (streaming), S2
/// (cache-sensitive, the paper's headline app).
pub const APPS: [&str; 3] = ["GE", "LI", "S2"];

/// Total L2 accesses and DRAM transactions of one run, summed over its
/// partitions.
fn totals(s: &SimStats) -> (u64, u64) {
    let l2 = s.partitions.iter().map(|p| p.l2_accesses).sum();
    let dram = s.partitions.iter().map(|p| p.dram_services).sum();
    (l2, dram)
}

/// Runs the sweep and renders the sensitivity table.
pub fn run(r: &Runner) -> Table {
    let mut t = Table::new(
        "partition",
        "memory-partition sensitivity (P = L2 slices = DRAM channels)",
        vec![
            "app".into(),
            "P".into(),
            "IPC".into(),
            "l2_acc".into(),
            "dram_tx".into(),
            "conserved".into(),
        ],
    );
    let mut drifted = 0u32;
    for app in APPS {
        let spec = workloads::app(app).expect("sweep app exists");
        let base = r.run_key(RunKey::for_app(&spec, Arch::Baseline).with_partitions(1));
        let (base_l2, base_dram) = totals(&base);
        for p in SWEEP {
            let s = r.run_key(RunKey::for_app(&spec, Arch::Baseline).with_partitions(p));
            let (l2, dram) = totals(&s);
            let conserved = l2 == base_l2 && dram == base_dram;
            if !conserved {
                drifted += 1;
            }
            t.row(vec![
                app.into(),
                p.to_string(),
                f3(s.ipc()),
                l2.to_string(),
                dram.to_string(),
                if conserved { "yes".into() } else { "DRIFT".into() },
            ]);
        }
    }
    if drifted == 0 {
        t.note("traffic conserved at every partition count (totals match P=1 exactly)");
    } else {
        t.note(format!(
            "DRIFT: {drifted} rows diverge from their P=1 totals (cycle-bounded runs: \
             partition timing changes how much work fits the cycle budget; the \
             work-bounded conservation invariant is locked by partition_conservation)"
        ));
    }
    t.note("aggregate L2/MSHR/bank/bandwidth capacity held constant across P");
    t
}

/// The sweep's simulation plan: every (app, P) point.
pub fn runs(_r: &Runner) -> Vec<RunKey> {
    let mut keys = Vec::new();
    for app in APPS {
        let spec = workloads::app(app).expect("sweep app exists");
        for p in SWEEP {
            keys.push(RunKey::for_app(&spec, Arch::Baseline).with_partitions(p));
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_render() {
        let r = crate::shared_quick_runner();
        r.prefetch(&runs(r));
        let warm = r.sims_run();
        let t = run(r);
        assert_eq!(r.sims_run(), warm, "partition sweep simulated during rendering");
        assert_eq!(t.rows.len(), APPS.len() * SWEEP.len());
    }

    #[test]
    fn sweep_points_are_distinct_keys() {
        let keys = runs(crate::shared_quick_runner());
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
    }
}

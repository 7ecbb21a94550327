//! Cross-crate integration tests: every architecture runs on every class of
//! workload, and invariants hold across the substrate/policy boundary.

use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::Arc;

use gpu_sim::config::GpuConfig;
use gpu_sim::fastmap::FxHasher64;
use gpu_sim::gpu::{run_kernel, run_replay_kernel};
use gpu_sim::policy::baseline_factory;
use lb_bench::{experiments, Arch, RunKey, Runner, Scale};
use workloads::{all_apps, app, Sensitivity};

fn cfg() -> GpuConfig {
    GpuConfig::default().with_sms(1).with_windows(4_000, 40_000)
}

#[test]
fn every_architecture_runs_every_app_class() {
    // Smoke: one sensitive and one insensitive app under every architecture.
    let archs = [
        Arch::Baseline,
        Arch::StaticLimit(2),
        Arch::Pcal,
        Arch::Cerf,
        Arch::Linebacker,
        Arch::LinebackerAssoc(1),
        Arch::LinebackerAssoc(16),
        Arch::VictimCaching,
        Arch::Svc,
        Arch::PcalCerf,
        Arch::PcalSvc,
        Arch::BaselineSvc,
        Arch::CacheExt,
        Arch::LbCacheExt,
    ];
    for name in ["GE", "FD"] {
        let a = app(name).unwrap();
        for arch in archs {
            let c = arch.transform_config(&cfg(), &a);
            let k = a.kernel(c.n_sms);
            let s = run_kernel(c, k, &arch.factory());
            assert!(s.instructions > 0, "{name} under {} executed nothing", arch.label());
            assert!(s.ipc() > 0.0, "{name} under {} has zero IPC", arch.label());
        }
    }
}

#[test]
fn access_outcomes_partition_all_accesses() {
    // hit + miss + bypass + reg-hit must equal total accesses for every
    // architecture (conservation across the policy boundary).
    for arch in [Arch::Baseline, Arch::Pcal, Arch::Cerf, Arch::Linebacker] {
        let a = app("KM").unwrap();
        let c = cfg();
        let k = a.kernel(c.n_sms);
        let s = run_kernel(c, k, &arch.factory());
        let sum = s.l1_hits + s.misses() + s.bypasses + s.reg_hits;
        assert_eq!(sum, s.mem_accesses(), "outcome counts must partition accesses");
        let per_load: u64 = s.per_load.values().map(|l| l.accesses).sum();
        assert_eq!(per_load, s.mem_accesses(), "per-load counts must sum to the total");
    }
}

#[test]
fn baseline_never_produces_reg_hits_or_bypasses() {
    for a in all_apps().iter().take(4) {
        let c = cfg();
        let k = a.kernel(c.n_sms);
        let s = run_kernel(c, k, &baseline_factory());
        assert_eq!(s.reg_hits, 0, "{}: baseline has no victim storage", a.abbrev);
        assert_eq!(s.bypasses, 0, "{}: baseline never bypasses", a.abbrev);
        assert_eq!(
            s.dram_bytes[2] + s.dram_bytes[3],
            0,
            "{}: baseline never backs up registers",
            a.abbrev
        );
    }
}

#[test]
fn determinism_across_identical_runs() {
    let a = app("S2").unwrap();
    let c = cfg();
    let r1 = run_kernel(c.clone(), a.kernel(c.n_sms), &Arch::Linebacker.factory());
    let r2 = run_kernel(c.clone(), a.kernel(c.n_sms), &Arch::Linebacker.factory());
    assert_eq!(r1.instructions, r2.instructions);
    assert_eq!(r1.l1_hits, r2.l1_hits);
    assert_eq!(r1.reg_hits, r2.reg_hits);
    assert_eq!(r1.dram_bytes, r2.dram_bytes);
}

#[test]
fn suite_covers_both_sensitivity_classes() {
    let apps = all_apps();
    assert_eq!(apps.len(), 20);
    assert_eq!(apps.iter().filter(|a| a.sensitivity == Sensitivity::CacheSensitive).count(), 10);
}

#[test]
fn suite_plan_keys_hash_apart() {
    // The default suite's plan, as the harness dedupes and memoizes it:
    // every distinct key must get its own hash word, and every duplicate
    // the word of its first copy. Duplicates are found by `Eq` alone, so
    // the check does not trust the hash it tests. Every plan vector, the
    // dedupe set and the memo hold keys by value, so the key stays at two
    // words of app, one of architecture and one of packed overrides.
    assert_eq!(std::mem::size_of::<RunKey>(), 32);
    let hasher = BuildHasherDefault::<FxHasher64>::default();
    let r = Runner::new(Scale::Quick);
    let planned: Vec<RunKey> =
        experiments::ALL.iter().flat_map(|id| experiments::plan(id, &r).unwrap()).collect();
    let mut firsts: Vec<(RunKey, u64)> = Vec::new();
    for key in &planned {
        let h = hasher.hash_one(key);
        match firsts.iter().find(|(k, _)| k == key) {
            Some(&(_, first)) => assert_eq!(h, first, "{key} hashes unlike its first copy"),
            None => firsts.push((*key, h)),
        }
    }
    assert!(firsts.len() < planned.len(), "the suite's plans share no key");
    let hashes: HashSet<u64> = firsts.iter().map(|&(_, h)| h).collect();
    assert_eq!(hashes.len(), firsts.len(), "distinct plan keys share a hash");
    // The profile record and the `--trace` file names are keyed on the
    // display string, so it must tell the distinct keys apart too.
    let shown: HashSet<String> = firsts.iter().map(|(k, _)| k.to_string()).collect();
    assert_eq!(shown.len(), firsts.len(), "distinct plan keys display alike");
}

#[test]
fn runner_best_swl_consistent_with_direct_runs() {
    let r = Runner::new(Scale::Quick);
    let a = app("PF").unwrap();
    let (limit, stats) = r.best_swl(&a);
    if let Some(l) = limit {
        let direct = r.run(&a, Arch::StaticLimit(l));
        assert_eq!(stats.ipc(), direct.ipc(), "memoized best run must match the direct run");
    } else {
        let direct = r.run(&a, Arch::Baseline);
        assert_eq!(stats.ipc(), direct.ipc());
    }
}

/// S2 makes the most victim inserts of the quick suite. In a debug build
/// Linebacker asserts at every victim insert and hit that the register is
/// neither live nor inside a restore in flight, so this run fails if a
/// victim partition ever overlaps CTA registers.
#[test]
fn linebacker_victim_registers_stay_idle_on_s2() {
    let s = Runner::new(Scale::Quick).run(&app("S2").unwrap(), Arch::Linebacker);
    assert!(s.reg_hits > 0, "S2 must hit in victim registers at quick scale");
}

#[test]
fn cache_insensitive_app_unharmed_by_linebacker() {
    // The Load Monitor's self-disable keeps LB from hurting streaming apps.
    let a = app("FD").unwrap();
    let c = GpuConfig::default().with_sms(1).with_windows(6_000, 120_000);
    let base = run_kernel(c.clone(), a.kernel(c.n_sms), &baseline_factory());
    let lb = run_kernel(c.clone(), a.kernel(c.n_sms), &Arch::Linebacker.factory());
    assert!(
        lb.ipc() >= base.ipc() * 0.95,
        "LB ({:.3}) must not hurt the streaming app FD ({:.3})",
        lb.ipc(),
        base.ipc()
    );
}

#[test]
fn captured_trace_replays_identically() {
    // Capture S1 on a one-wave grid, take it through LBW1 bytes and back,
    // then replay it: the trace frontend end to end across crates.
    let cfg = GpuConfig::default().with_sms(2).with_windows(5_000, 400_000);
    let (cap, rep) = lb_replay::capture_app("S1", &cfg, 4, &baseline_factory()).unwrap();
    let bytes = lb_replay::encode(&rep);
    let rep = Arc::new(lb_replay::decode(&bytes).unwrap());
    assert_eq!(
        lb_replay::encode(&rep),
        bytes,
        "re-encoding a decoded trace must be byte-identical"
    );
    for arch in [Arch::Baseline, Arch::Linebacker] {
        let c = arch.transform_config_with(&cfg, &rep.stub);
        let s = run_replay_kernel(c, &rep, &arch.factory());
        assert!(s.completed, "{} replay did not complete", arch.label());
        assert_eq!(s.instructions, cap.instructions, "{} replay instruction count", arch.label());
        if arch == Arch::Baseline {
            // Capture placement is policy-invariant, so a Baseline replay
            // reproduces the Baseline capture run exactly.
            assert_eq!(s.cycles, cap.cycles);
            assert_eq!(s.l1_hits, cap.l1_hits);
            assert_eq!(s.dram_bytes, cap.dram_bytes);
        }
    }
}

#[test]
fn fresh_capture_equals_its_own_decode() {
    // A capture codes its records as an LBW1 file codes them, over a pool
    // holding each distinct line slice once, so its decode gives it back
    // whole: runs, record bytes, pool and stream starts. S1's warps re-read
    // each other's lines, so its records include repeats.
    let cfg = GpuConfig::default().with_sms(2).with_windows(5_000, 400_000);
    let (_, cap) = lb_replay::capture_app("S1", &cfg, 2, &baseline_factory()).unwrap();
    let mut back = lb_replay::decode(&lb_replay::encode(&cap)).unwrap();
    assert!(lb_replay::format::repeat_records(&back) > 0, "the capture holds no repeat");
    // A decoded stub carries placeholder access patterns, which replay
    // never runs; every other stub field round-trips.
    let load_pcs = |k: &gpu_sim::KernelSpec| k.loads.iter().map(|l| l.pc).collect::<Vec<_>>();
    assert_eq!(load_pcs(&back.stub), load_pcs(&cap.stub));
    assert_eq!(
        (back.stub.grid_ctas, back.stub.warps_per_cta, &back.stub.body),
        (cap.stub.grid_ctas, cap.stub.warps_per_cta, &cap.stub.body)
    );
    back.stub = cap.stub.clone();
    assert!(back == cap, "a fresh capture differs from its own decode");
}

#[test]
fn fresh_captures_reproduce_checked_in_corpus() {
    // The corpus files are `lb-replay capture APP OUT --sms 2 --iterations
    // 6` of S1, GE and BI; capturing them again here, through the
    // recorders, must give each file back byte for byte.
    let cfg = GpuConfig::default().with_sms(2).with_windows(5_000, 2_000_000);
    for (app, name) in [("S1", "s1-reuse"), ("GE", "ge-stream"), ("BI", "bi-mixed")] {
        let (_, rep) = lb_replay::capture_app(app, &cfg, 6, &baseline_factory()).unwrap();
        let file = std::fs::read(lb_replay::testdata_dir().join(format!("{name}.lbw1"))).unwrap();
        assert!(lb_replay::encode(&rep) == file, "{app}: a fresh capture differs from {name}.lbw1");
    }
}

/// FNV-1a of `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn decode_sweep_outcomes_match_pinned_digest() {
    // The inputs of crates/lb-replay/tests/decode_sweep.rs: every prefix of
    // a 2-SM S1 capture of two trips and its 2,500 seeded corruptions. Each
    // outcome is hashed: an error's text, which names the stream, record
    // and byte, or an Ok kernel's encoding and pool. The sweep there checks
    // only that each outcome is Ok or typed; the literals pin which one, so
    // a record reader that accepts, rejects or reports anything differently
    // fails here.
    let cfg = GpuConfig::default().with_sms(2).with_windows(5_000, 400_000);
    let (_, rep) = lb_replay::capture_app("S1", &cfg, 2, &baseline_factory()).unwrap();
    let bytes = lb_replay::encode(&rep);
    let digest = std::cell::Cell::new(0xcbf2_9ce4_8422_2325);
    let decoded_ok = std::cell::Cell::new(0u32);
    let outcome = |input: &[u8]| {
        let h = match lb_replay::decode(input) {
            Ok(k) => {
                decoded_ok.set(decoded_ok.get() + 1);
                let pool: Vec<u8> = k.pool().iter().flat_map(|l| l.0.to_le_bytes()).collect();
                fnv(fnv(fnv(digest.get(), b"ok"), &lb_replay::encode(&k)), &pool)
            }
            Err(e) => fnv(fnv(digest.get(), b"err"), e.to_string().as_bytes()),
        };
        digest.set(h);
    };
    for cut in 0..=bytes.len() {
        outcome(&bytes[..cut]);
    }
    testkit::check_n("lbw1_corruption", 2_500, |rng| {
        let mut bad = bytes.clone();
        for _ in 0..rng.range_u32(1, 5) {
            let at = rng.range_usize(0, bad.len());
            bad[at] = rng.u64() as u8;
        }
        outcome(&bad);
    });
    // 329 Ok outcomes: the whole file and 328 corruptions.
    assert_eq!((digest.get(), decoded_ok.get()), (0x54ed_9169_0e30_1cf3, 329), "outcomes moved");
}

#[test]
fn checked_in_trace_corpus_decodes_at_the_current_version() {
    // Each corpus file: (dynamic insts, memory ops). A format change must
    // re-encode the corpus, or this fails before any CI smoke runs.
    let corpus =
        [("bi-mixed", 7_680, 2_304), ("ge-stream", 7_680, 1_536), ("s1-reuse", 9_216, 2_304)];
    for (name, insts, mem_ops) in corpus {
        let path = lb_replay::testdata_dir().join(format!("{name}.lbw1"));
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[4], lb_replay::format::VERSION, "{name}: version byte");
        let rep = lb_replay::decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        rep.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(lb_replay::encode(&rep), bytes, "{name}: re-encoding must be byte-identical");
        assert_eq!(rep.dyn_insts(), insts, "{name}: dynamic insts");
        let records: usize = rep.streams().map(|s| s.n_accesses()).sum();
        assert_eq!(records, mem_ops, "{name}: memory ops");
    }
}

//! End-to-end profiler smoke: a profiled run of the `sanity` binary must
//! emit exactly one valid JSON document on stdout, with the
//! stepped/skipped accounting consistent and skipping engaged somewhere in
//! the suite; `lb-experiments --profile` writes a record only where
//! `--profile-out` points, `--profile-out` alone turns profiling on in both
//! binaries, and a missing or unwritable output path (or an unknown
//! `sanity` app) exits 2 before anything runs.

use std::process::Command;

use lb_bench::profile::{validate_json, SCHEMA};

/// Extracts `"key": <number>` from the flat profile JSON (the keys probed
/// here are unique in the document).
fn field(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).unwrap_or_else(|| panic!("missing field {key}"));
    let rest = json[at + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or_else(|_| panic!("unparsable number for {key}: {rest:.20?}"))
}

#[test]
fn sanity_profile_emits_valid_json() {
    // One app keeps this fast; --quick shrinks windows further. No
    // `--profile`: `--profile-out` alone must turn profiling on.
    let file = std::env::temp_dir().join(format!("lb-sanity-profile-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_sanity"))
        .args(["--quick", "--profile-out"])
        .arg(&file)
        .arg("GA")
        .output()
        .expect("sanity binary must run");
    let written = std::fs::read_to_string(&file);
    let _ = std::fs::remove_file(&file);
    assert!(out.status.success(), "sanity exited with {:?}", out.status);

    let stdout = String::from_utf8(out.stdout).expect("stdout must be UTF-8");
    validate_json(&stdout).unwrap_or_else(|at| panic!("invalid JSON at byte {at}: {stdout}"));
    assert_eq!(written.expect("--profile-out must write its file"), stdout);

    assert!(
        stdout.contains(&format!("\"schema\": {SCHEMA},")),
        "document must carry the record's schema version"
    );
    assert!(stdout.contains("\"scale\": \"sanity-quick\""));
    assert!(stdout.contains("\"component_sleep\""), "must carry per-component sleep stats");
    assert!(stdout.contains("\"skip_bounds\""), "must carry the skip-engagement breakdown");
    assert!(stdout.contains("\"trace\""), "must carry the trace-capture accounting block");
    assert!(stdout.contains("\"partitions\": [{\"id\": 0,"), "must carry per-partition stats");
    assert!(stdout.contains("\"desc_cache\""), "must carry the descriptor-cache block");
    assert!(stdout.contains("\"sm_phases\""), "must carry per-phase SM cycle attribution");
}

#[test]
fn sanity_profile_counters_are_consistent() {
    let out = Command::new(env!("CARGO_BIN_EXE_sanity"))
        .args(["--profile", "--quick", "GA"])
        .output()
        .expect("sanity binary must run");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    validate_json(&stdout).unwrap_or_else(|at| panic!("invalid JSON at byte {at}"));

    let cycles = field(&stdout, "cycles");
    let stepped = field(&stdout, "stepped_cycles");
    let skipped = field(&stdout, "skipped_cycles");
    assert!(cycles > 0.0);
    assert_eq!(stepped + skipped, cycles, "stepped + skipped must equal cycles");

    let sims = field(&stdout, "sims");
    assert!(sims >= 5.0, "GA runs at least base/bswl/pcal/cerf/lb, got {sims}");

    let cps = field(&stdout, "cycles_per_sec");
    assert!(cps > 0.0, "throughput must be positive");

    // The DRAM controller is one component per GPU, so its stepped + slept
    // cycles must sum to the total simulated cycles across the suite.
    let dram_stepped = field(&stdout, "dram_stepped");
    let dram_slept = field(&stdout, "dram_slept");
    assert_eq!(dram_stepped + dram_slept, cycles, "per-DRAM cycle accounting must close");

    // The descriptor cache is on by default: after every warp's first
    // execution of each static load, accesses replay from the table, so
    // hits must dominate misses across the suite.
    let desc_hits = field(&stdout, "hits");
    let desc_misses = field(&stdout, "misses");
    assert!(desc_hits > 0.0, "default run must replay from the descriptor cache");
    assert!(desc_misses > 0.0, "first executions must decode");
    assert!(
        desc_hits > desc_misses,
        "steady-state replays must outnumber decodes ({desc_hits} vs {desc_misses})"
    );
}

#[test]
fn lb_experiments_profile_writes_only_to_profile_out() {
    // `overhead` plans no simulation, so both runs are instant. Run in an
    // empty directory: `--profile` alone must leave it empty (a default
    // file name would overwrite a committed record when run from the
    // repository root), and `--profile-out` must write exactly its file.
    let dir = std::env::temp_dir().join(format!("lb-profile-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_lb-experiments"))
            .args(["--scale", "quick", "--profile"])
            .args(extra)
            .arg("overhead")
            .current_dir(&dir)
            .output()
            .expect("lb-experiments must run");
        assert!(out.status.success(), "lb-experiments exited with {:?}", out.status);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("[profile]"), "--profile must print its report: {stderr}");
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        files
    };
    let bare = run(&[]);
    let named = run(&["--profile-out", "record.json"]);
    let json = std::fs::read_to_string(dir.join("record.json"));
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(bare.is_empty(), "--profile alone wrote {bare:?}");
    assert_eq!(named, ["record.json"]);
    let json = json.unwrap();
    validate_json(&json).unwrap_or_else(|at| panic!("invalid JSON at byte {at}: {json}"));
}

#[test]
fn output_flags_fail_fast_and_profile_out_implies_profile() {
    // `overhead` plans no simulation, and `sanity` rejects an unknown app
    // before it runs one, so every run here is instant.
    let dir = std::env::temp_dir().join(format!("lb-output-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |bin: &str, args: &[&str]| {
        let out = Command::new(bin).args(args).current_dir(&dir).output().expect("binary must run");
        (out.status.code(), String::from_utf8(out.stderr).unwrap())
    };
    let lb = env!("CARGO_BIN_EXE_lb-experiments");
    let sanity = env!("CARGO_BIN_EXE_sanity");

    let (code, stderr) = run(lb, &["--scale", "quick", "--profile-out", "rec.json", "overhead"]);
    let json = std::fs::read_to_string(dir.join("rec.json"));
    let (sanity_code, sanity_err) =
        run(sanity, &["--quick", "--profile-out", "sanity.json", "none"]);
    let sanity_json = dir.join("sanity.json").exists();
    let failures = [
        (lb, &["--out"][..]),
        (lb, &["--csv-dir"]),
        (lb, &["--scale", "quick", "--out", "/nonexistent/dir/x.txt", "overhead"]),
        (lb, &["--scale", "quick", "--profile-out", "/nonexistent/dir/p.json", "overhead"]),
        (lb, &["--scale", "quick", "--csv-dir", "rec.json/csv", "overhead"]),
        (lb, &["--scale", "quick", "--no-such-option", "overhead"]),
        (sanity, &["--profile-out"]),
        (sanity, &["--quick", "--profile-out", "/nonexistent/dir/p.json"]),
        (sanity, &["--quick", "--no-such-option", "GA"]),
    ]
    .map(|(bin, args)| (args, run(bin, args)));
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("[profile] wrote rec.json"), "{stderr}");
    assert!(json.unwrap().contains("\"schema\": 1"));
    assert_eq!(sanity_code, Some(2), "{sanity_err}");
    assert!(sanity_err.contains("unknown app 'none'"), "{sanity_err}");
    assert!(!sanity_json, "an unknown app must fail before --profile-out is created");
    for (args, (code, stderr)) in failures {
        assert_eq!(code, Some(2), "{args:?} exited with {code:?}: {stderr}");
        assert!(!stderr.contains("[plan]"), "{args:?} planned before failing: {stderr}");
    }
}

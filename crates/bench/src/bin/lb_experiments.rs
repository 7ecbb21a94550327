//! Command-line experiment harness.
//!
//! ```text
//! lb-experiments [--scale quick|default|full] [--jobs N] [--verbose]
//!                [--profile [--profile-out FILE]] [ids... | all]
//! ```
//!
//! Execution is plan-then-render: every requested experiment first reports
//! its simulation plan as typed run keys, the deduplicated union executes
//! across a worker pool (`--jobs`, or the `LB_JOBS` environment variable,
//! default: all cores), then a second round covers plan nodes whose
//! identity depends on first-round results (the Best-SWL+CacheExt points).
//! Rendering reads from the warm memo, so tables are byte-identical at any
//! worker count.

#![forbid(unsafe_code)]

use std::io::Write;

use lb_bench::{experiments, Runner, Scale};

fn main() {
    let mut scale = Scale::Default;
    let mut ids: Vec<String> = Vec::new();
    let mut verbose = false;
    let mut out_path: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut profile = false;
    let mut profile_out: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut trace_mask = gpu_sim::trace::MASK_ALL;
    let mut partitions: Option<u32> = None;
    let mut desc_cache = true;
    let mut burst = true;
    let mut workloads_specs: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (quick|default|full)");
                    std::process::exit(2);
                });
            }
            "--jobs" | "-j" => {
                let v = args.next().unwrap_or_default();
                jobs = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => {
                        eprintln!("--jobs expects a positive integer, got '{v}'");
                        std::process::exit(2);
                    }
                };
            }
            "--verbose" => verbose = true,
            "--out" => out_path = args.next(),
            "--csv-dir" => csv_dir = args.next(),
            "--profile" => profile = true,
            "--profile-out" => {
                profile_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--profile-out expects a file path");
                    std::process::exit(2);
                }));
            }
            "--trace" => {
                trace_dir = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--trace expects a directory path");
                    std::process::exit(2);
                }));
            }
            "--trace-events" => {
                let v = args.next().unwrap_or_default();
                trace_mask = gpu_sim::trace::parse_mask(&v).unwrap_or_else(|e| {
                    eprintln!("--trace-events: {e}");
                    std::process::exit(2);
                });
            }
            "--partitions" => {
                let v = args.next().unwrap_or_default();
                partitions = match v.parse::<u32>() {
                    Ok(n) => Some(n),
                    _ => {
                        eprintln!("--partitions expects a power of two (1, 2, 4, ...), got '{v}'");
                        std::process::exit(2);
                    }
                };
            }
            "--no-desc-cache" => desc_cache = false,
            "--no-burst" => burst = false,
            "--workload" => {
                workloads_specs.push(args.next().unwrap_or_else(|| {
                    eprintln!("--workload expects trace:PATH");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: lb-experiments [--scale quick|default|full] [--jobs N] \
                     [--verbose] [--out FILE] [--csv-dir DIR] \
                     [--profile] [--profile-out FILE] [--trace DIR] \
                     [--trace-events MASK] [--partitions N] [--no-desc-cache] \
                     [--no-burst] [--workload trace:PATH]... [ids... | all]\n  \
                     LB_JOBS=N overrides the default worker count (all cores); \
                     --jobs beats LB_JOBS\n  --profile prints a \
                     hot-path throughput report to stderr; with \
                     --profile-out FILE it also writes the JSON record to \
                     FILE\n  --trace DIR \
                     captures one .lbt event trace per simulation into DIR; \
                     --trace-events narrows the captured kinds (names like \
                     issue,l1,dram, a 0x hex mask, or 'all')\n  --partitions N \
                     splits the memory subsystem into N L2-slice/DRAM-channel \
                     pairs (power of two; default 1)\n  --no-desc-cache disables \
                     the decoded access-descriptor cache (slower, byte-identical \
                     output; a verification escape hatch)\n  --no-burst disables \
                     greedy-run burst execution and SM local clocks (slower, \
                     byte-identical output; a verification escape hatch)\n  \
                     --workload trace:PATH loads a workload trace (.lbw1, or \
                     .traceg to import) into the trace_replay experiment; \
                     repeatable\n  ids: {}",
                    experiments::ALL.join(" ")
                );
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if let Err(e) = scale.config().validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }
    if let Some(n) = partitions {
        if let Err(e) = scale.config().check_mem_partitions(n) {
            eprintln!("--partitions: {e}");
            std::process::exit(2);
        }
    }
    // Bare `--workload trace:PATH` runs just the trace study; otherwise an
    // empty id list (or an explicit `all`) expands to the default suite.
    if ids.iter().any(|i| i == "all") || (ids.is_empty() && workloads_specs.is_empty()) {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
    }
    // Loaded traces register under `trace:<stem>` keys and surface through
    // the (opt-in) trace_replay experiment; pull it in if not requested.
    for spec in &workloads_specs {
        let (key, rep) = lb_replay::load_workload_spec(spec).unwrap_or_else(|e| {
            eprintln!("--workload: {e}");
            std::process::exit(2);
        });
        eprintln!(
            "[workload] {key}: {} streams, {} dynamic insts",
            rep.total_streams(),
            rep.dyn_insts()
        );
        if !ids.iter().any(|i| i == "trace_replay") {
            ids.push("trace_replay".to_string());
        }
    }

    let mut runner = Runner::new(scale);
    runner.verbose = verbose;
    if let Some(n) = partitions {
        runner.set_partitions(n);
        eprintln!("[config] memory subsystem split into {n} partitions");
    }
    if !desc_cache {
        runner.set_desc_cache(false);
        eprintln!("[config] descriptor cache disabled (verification mode)");
    }
    if !burst {
        runner.set_burst(false);
        eprintln!("[config] burst execution disabled (verification mode)");
    }
    // Precedence: --jobs flag, then LB_JOBS, then available parallelism.
    let env_jobs = std::env::var("LB_JOBS").ok().and_then(|v| v.parse::<usize>().ok());
    if let Some(n) = jobs.or(env_jobs) {
        runner.set_jobs(n);
    }
    if let Some(dir) = &trace_dir {
        runner.set_trace(dir.into(), trace_mask).unwrap_or_else(|e| {
            eprintln!("--trace {dir}: {e}");
            std::process::exit(2);
        });
        eprintln!(
            "[trace] capturing to {dir}/ (events: {})",
            gpu_sim::trace::mask_names(trace_mask)
        );
    }

    let started = std::time::Instant::now();

    // Round 1: the union of every experiment's plan, deduplicated and
    // executed in parallel with single-flight semantics.
    let mut batch = Vec::new();
    for id in &ids {
        match experiments::plan(id, &runner) {
            Some(keys) => batch.extend(keys),
            None => {
                eprintln!("unknown experiment id '{id}'");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "[plan] {} experiments -> {} planned runs ({} workers)",
        ids.len(),
        batch.len(),
        runner.jobs()
    );
    runner.prefetch(&batch);

    // Round 2: keys that depend on round-1 results (Best-SWL winners).
    let mut followups = Vec::new();
    for id in &ids {
        followups.extend(experiments::followup(id, &runner).unwrap_or_default());
    }
    if !followups.is_empty() {
        eprintln!("[plan] round 2: {} follow-up runs", followups.len());
        runner.prefetch(&followups);
    }
    eprintln!(
        "[plan] {} simulations executed in {:.1}s; rendering",
        runner.sims_run(),
        started.elapsed().as_secs_f64()
    );

    let mut rendered = String::new();
    for id in &ids {
        let t0 = std::time::Instant::now();
        match experiments::run(id, &runner) {
            Some(t) => {
                let s = t.render();
                println!("{s}");
                rendered.push_str(&s);
                rendered.push('\n');
                if let Some(dir) = &csv_dir {
                    std::fs::create_dir_all(dir).expect("create csv dir");
                    let path = format!("{dir}/{}.csv", t.id);
                    std::fs::write(&path, t.render_csv()).expect("write csv");
                }
                eprintln!(
                    "[{id}] done in {:.1}s ({} sims so far)",
                    t0.elapsed().as_secs_f64(),
                    runner.sims_run()
                );
            }
            None => {
                eprintln!("unknown experiment id '{id}'");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "all done: {} experiments, {} simulations, {} workers, {:.1}s, scale={}",
        ids.len(),
        runner.sims_run(),
        runner.jobs(),
        started.elapsed().as_secs_f64(),
        scale
    );
    if let Some(p) = out_path {
        let mut f = std::fs::File::create(&p).expect("create output file");
        f.write_all(rendered.as_bytes()).expect("write output file");
        eprintln!("wrote {p}");
    }
    if profile {
        let suite_wall_s = started.elapsed().as_secs_f64();
        let mut prof = runner.profile();
        prof.jobs = runner.jobs() as u64;
        eprint!("{}", prof.summary(suite_wall_s));
        if let Some(p) = profile_out {
            let json = prof.to_json("lb-experiments", &scale.to_string(), suite_wall_s);
            std::fs::write(&p, &json).expect("write profile json");
            eprintln!("[profile] wrote {p}");
        }
    }
    // No-op unless LB_PHASE_TIMERS=1 (diagnostics; see gpu_sim::phase_timer).
    gpu_sim::phase_timer::report();
}

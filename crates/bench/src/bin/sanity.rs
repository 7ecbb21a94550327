//! Quick per-app IPC sanity table across all five architectures.
//!
//! ```text
//! sanity [--quick] [--profile] [--profile-out FILE]
//!        [--trace DIR] [--trace-events MASK] [--partitions N]
//!        [--no-desc-cache] [--no-burst] [apps...]
//! ```
//!
//! With `--profile`, the IPC table moves to stderr and stdout carries a
//! single JSON throughput record (the same shape `lb-experiments --profile
//! --profile-out FILE` writes to `FILE`), so CI can parse it directly. With
//! `--trace DIR`, every timed simulation also captures an `.lbt` event
//! trace named after its profile key (e.g. `app=GA_arch=base.lbt`).

#![forbid(unsafe_code)]

use baselines::{best_swl_sweep, cerf_factory, pcal_factory};
use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::{run_kernel, run_kernel_traced, run_replay_kernel, run_replay_kernel_traced};
use gpu_sim::kernel::KernelSpec;
use gpu_sim::policy::{baseline_factory, PolicyFactory};
use gpu_sim::replay::ReplayKernel;
use gpu_sim::trace::{parse_mask, TraceWriter, Tracer, MASK_ALL};
use lb_bench::profile::Profile;
use lb_bench::runner::sanitize_key;
use linebacker::{linebacker_factory, LbConfig};
use workloads::all_apps;

fn main() {
    let mut profile = false;
    let mut quick = false;
    let mut profile_out: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut trace_mask = MASK_ALL;
    let mut partitions: Option<u32> = None;
    let mut desc_cache = true;
    let mut burst = true;
    let mut only: Vec<String> = Vec::new();
    let mut workload_specs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--profile" => profile = true,
            "--quick" => quick = true,
            "--profile-out" => profile_out = args.next(),
            "--trace" => {
                trace_dir = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--trace expects a directory path");
                    std::process::exit(2);
                }));
            }
            "--trace-events" => {
                let v = args.next().unwrap_or_default();
                trace_mask = parse_mask(&v).unwrap_or_else(|e| {
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
                workload_specs.push(args.next().unwrap_or_else(|| {
                    eprintln!("--workload expects trace:PATH");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: sanity [--quick] [--profile] [--profile-out FILE] \
                     [--trace DIR] [--trace-events MASK] [--partitions N] \
                     [--no-desc-cache] [--no-burst] \
                     [--workload trace:PATH]... [apps...]\n  --workload replays a \
                     workload trace (.lbw1, or .traceg to import) as an extra \
                     table row (no Best-SWL sweep for traces)"
                );
                return;
            }
            other => only.push(other.to_string()),
        }
    }
    let mut cfg = if quick {
        GpuConfig::default().with_sms(4).with_windows(5_000, 60_000)
    } else {
        GpuConfig::default().with_sms(4).with_windows(10_000, 240_000)
    };
    if let Some(n) = partitions {
        if let Err(e) = cfg.check_mem_partitions(n) {
            eprintln!("--partitions: {e}");
            std::process::exit(2);
        }
        cfg = cfg.with_mem_partitions(n);
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir).expect("create trace dir");
    }
    if !desc_cache {
        cfg = cfg.with_desc_cache(false);
    }
    if !burst {
        cfg = cfg.with_burst(false);
    }
    let started = std::time::Instant::now();
    let mut prof = Profile::default();
    let trace = trace_dir.map(|d| (d, trace_mask));
    let timed = |prof: &mut Profile,
                 name: String,
                 cfg: &GpuConfig,
                 k: &KernelSpec,
                 factory: &PolicyFactory<'_>| {
        let t0 = std::time::Instant::now();
        let s = match &trace {
            None => run_kernel(cfg.clone(), k.clone(), factory),
            Some((dir, mask)) => {
                let path = format!("{dir}/{}.lbt", sanitize_key(&name));
                let writer = TraceWriter::to_file(std::path::Path::new(&path), *mask)
                    .unwrap_or_else(|e| panic!("cannot create trace file {path}: {e}"));
                let tracer = Tracer::new(writer);
                let s = run_kernel_traced(cfg.clone(), k.clone(), factory, tracer.clone());
                tracer.finish().unwrap_or_else(|e| panic!("cannot flush trace file {path}: {e}"));
                prof.record_trace(tracer.bytes(), tracer.events());
                s
            }
        };
        prof.record(name, t0.elapsed().as_secs_f64(), &s);
        s
    };
    let timed_replay = |prof: &mut Profile,
                        name: String,
                        cfg: &GpuConfig,
                        rep: &std::sync::Arc<ReplayKernel>,
                        factory: &PolicyFactory<'_>| {
        let t0 = std::time::Instant::now();
        let s = match &trace {
            None => run_replay_kernel(cfg.clone(), rep, factory),
            Some((dir, mask)) => {
                let path = format!("{dir}/{}.lbt", sanitize_key(&name));
                let writer = TraceWriter::to_file(std::path::Path::new(&path), *mask)
                    .unwrap_or_else(|e| panic!("cannot create trace file {path}: {e}"));
                let tracer = Tracer::new(writer);
                let s = run_replay_kernel_traced(cfg.clone(), rep, factory, tracer.clone());
                tracer.finish().unwrap_or_else(|e| panic!("cannot flush trace file {path}: {e}"));
                prof.record_trace(tracer.bytes(), tracer.events());
                s
            }
        };
        prof.record(name, t0.elapsed().as_secs_f64(), &s);
        s
    };

    let header = format!(
        "{:<4} {:>8} {:>8} {:>8} {:>8} {:>8}  reg_hit%  periods",
        "app", "base", "bswl", "pcal", "cerf", "lb"
    );
    let mut table = vec![header];
    for app in all_apps() {
        if !only.is_empty() && !only.iter().any(|a| a == app.abbrev) {
            continue;
        }
        let k = app.kernel(cfg.n_sms);
        let base = timed(
            &mut prof,
            format!("app={} arch=base", app.abbrev),
            &cfg,
            &k,
            &baseline_factory(),
        );
        let t0 = std::time::Instant::now();
        let swl = best_swl_sweep(&cfg, &k);
        prof.record(
            format!("app={} arch=bswl(sweep)", app.abbrev),
            t0.elapsed().as_secs_f64(),
            &swl.stats,
        );
        let pcal =
            timed(&mut prof, format!("app={} arch=pcal", app.abbrev), &cfg, &k, &pcal_factory());
        let cerf =
            timed(&mut prof, format!("app={} arch=cerf", app.abbrev), &cfg, &k, &cerf_factory());
        let lb = timed(
            &mut prof,
            format!("app={} arch=lb", app.abbrev),
            &cfg,
            &k,
            &linebacker_factory(LbConfig::default()),
        );
        table.push(format!(
            "{:<4} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}  {:>6.1}%  {}",
            app.abbrev,
            base.ipc(),
            swl.stats.ipc(),
            pcal.ipc(),
            cerf.ipc(),
            lb.ipc(),
            lb.outcome_fraction(gpu_sim::types::AccessOutcome::RegHit) * 100.0,
            lb.monitor_periods,
        ));
    }
    // Trace rows: replayed workloads under the same policies. Best-SWL's
    // CTA-limit sweep is a synthetic-grid oracle, so that column stays "-".
    for spec in &workload_specs {
        let (key, rep) = lb_replay::load_workload_spec(spec).unwrap_or_else(|e| {
            eprintln!("--workload: {e}");
            std::process::exit(2);
        });
        let base = timed_replay(
            &mut prof,
            format!("app={key} arch=base"),
            &cfg,
            &rep,
            &baseline_factory(),
        );
        let pcal =
            timed_replay(&mut prof, format!("app={key} arch=pcal"), &cfg, &rep, &pcal_factory());
        let cerf =
            timed_replay(&mut prof, format!("app={key} arch=cerf"), &cfg, &rep, &cerf_factory());
        let lb = timed_replay(
            &mut prof,
            format!("app={key} arch=lb"),
            &cfg,
            &rep,
            &linebacker_factory(LbConfig::default()),
        );
        table.push(format!(
            "{:<4} {:>8.3} {:>8} {:>8.3} {:>8.3} {:>8.3}  {:>6.1}%  {}",
            key.strip_prefix("trace:").unwrap_or(key),
            base.ipc(),
            "-",
            pcal.ipc(),
            cerf.ipc(),
            lb.ipc(),
            lb.outcome_fraction(gpu_sim::types::AccessOutcome::RegHit) * 100.0,
            lb.monitor_periods,
        ));
    }

    if profile {
        // Table to stderr; stdout carries exactly one JSON document.
        for line in &table {
            eprintln!("{line}");
        }
        let suite_wall_s = started.elapsed().as_secs_f64();
        prof.jobs = 1;
        eprint!("{}", prof.summary(suite_wall_s));
        let scale = if quick { "sanity-quick" } else { "sanity" };
        let json = prof.to_json("sanity", scale, suite_wall_s);
        print!("{json}");
        if let Some(p) = profile_out {
            std::fs::write(&p, &json).expect("write profile json");
            eprintln!("[profile] wrote {p}");
        }
    } else {
        for line in &table {
            println!("{line}");
        }
    }
}

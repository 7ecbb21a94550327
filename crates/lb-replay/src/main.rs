//! `lb-replay` — workload-trace tool: capture synthetic kernels, import
//! Accel-Sim text traces, inspect and self-check `.lbw1` files.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use gpu_sim::policy::baseline_factory;
use gpu_sim::GpuConfig;
use lb_replay::format;

const USAGE: &str = "\
lb-replay — LBW1 workload traces for the Linebacker reproduction

USAGE:
  lb-replay capture <APP> <OUT.lbw1> [--sms N] [--iterations N]
      Run the named synthetic workload (one-wave grid, baseline policy)
      and write its captured instruction/address streams.
  lb-replay import <IN.traceg> <OUT.lbw1>
      Normalize an Accel-Sim-style text kernel trace into LBW1.
  lb-replay info <FILE.lbw1>
      Print the trace's header and stream summary.
  lb-replay selftest <FILE.lbw1> [--sms N]
      Replay the trace while re-capturing it; verify the re-encoded
      bytes match the file exactly (exit 1 on mismatch).

Captures default to 4 SMs and 12 iterations.";

fn parse_flag(args: &[String], name: &str) -> Result<Option<u32>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a numeric value")),
    }
}

fn capture_cfg(sms: u32) -> GpuConfig {
    // Plenty of headroom: captures must complete, not rate-measure.
    GpuConfig::default().with_sms(sms).with_windows(5_000, 2_000_000)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "capture" => {
            let app = args.get(1).ok_or("capture: missing APP")?;
            let out = args.get(2).ok_or("capture: missing OUT.lbw1")?;
            let sms = parse_flag(&args, "--sms")?.unwrap_or(4);
            let iters = parse_flag(&args, "--iterations")?
                .unwrap_or(lb_replay::capture::DEFAULT_ITERATIONS);
            let cfg = capture_cfg(sms);
            let (stats, rep) = lb_replay::capture_app(app, &cfg, iters, &baseline_factory())
                .map_err(|e| e.to_string())?;
            format::write_file(Path::new(out), &rep).map_err(|e| e.to_string())?;
            println!(
                "captured {app}: {} streams, {} dynamic insts, {} cycles -> {out}",
                rep.total_streams(),
                rep.dyn_insts(),
                stats.cycles
            );
            Ok(())
        }
        "import" => {
            let input = args.get(1).ok_or("import: missing IN.traceg")?;
            let out = args.get(2).ok_or("import: missing OUT.lbw1")?;
            let rep = lb_replay::import_file(Path::new(input)).map_err(|e| e.to_string())?;
            format::write_file(Path::new(out), &rep).map_err(|e| e.to_string())?;
            println!(
                "imported {}: {} CTAs x {} warps, {} dynamic insts -> {out}",
                rep.stub.name,
                rep.stub.grid_ctas,
                rep.stub.warps_per_cta,
                rep.dyn_insts()
            );
            Ok(())
        }
        "info" => {
            let file = args.get(1).ok_or("info: missing FILE.lbw1")?;
            let rep = format::read_file(Path::new(file)).map_err(|e| e.to_string())?;
            let mem_ops: u64 =
                rep.streams.iter().flat_map(|s| &s.ops).filter(|o| o.line_len > 0).count() as u64;
            let pool: usize = rep.streams.iter().map(|s| s.lines.len()).sum();
            println!("kernel        {}", rep.stub.name);
            println!(
                "grid          {} CTAs x {} warps",
                rep.stub.grid_ctas, rep.stub.warps_per_cta
            );
            println!("regs/thread   {}", rep.stub.regs_per_thread);
            println!("shared/CTA    {} B", rep.stub.shared_mem_per_cta);
            println!("static body   {} insts, {} loads", rep.stub.body.len(), rep.stub.loads.len());
            println!("dynamic insts {}", rep.dyn_insts());
            println!("memory ops    {mem_ops}");
            println!("line pool     {pool} entries");
            Ok(())
        }
        "selftest" => {
            let file = args.get(1).ok_or("selftest: missing FILE.lbw1")?;
            let sms = parse_flag(&args, "--sms")?.unwrap_or(4);
            let bytes = std::fs::read(file).map_err(|e| e.to_string())?;
            let rep = Arc::new(format::decode(&bytes).map_err(|e| e.to_string())?);
            let re = lb_replay::replay_reencode(&capture_cfg(sms), &rep, &baseline_factory())
                .map_err(|e| e.to_string())?;
            if re != bytes {
                return Err(format!("{file}: replay re-capture diverges from the file"));
            }
            println!("{file}: OK ({} dynamic insts replayed and re-captured)", rep.dyn_insts());
            Ok(())
        }
        "" | "-h" | "--help" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

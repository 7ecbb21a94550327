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
      Print the trace's header and stream summary, with the kernel's line
      pool, the records that repeat a slice of it and the bytes the
      decoded kernel's arrays hold.
  lb-replay selftest <FILE.lbw1> [--sms N]
      Replay the trace while re-capturing it; verify the re-encoded
      bytes match the file exactly (exit 1 on mismatch).

Captures default to 4 SMs and 12 iterations.";

/// The value of count flag `name` (`--sms`, `--iterations`), which must be
/// at least 1: a GPU of no SM or a kernel of no trip has nothing to run.
fn parse_flag(args: &[String], name: &str) -> Result<Option<u32>, String> {
    let Some(i) = args.iter().position(|a| a == name) else { return Ok(None) };
    match args.get(i + 1).and_then(|v| v.parse().ok()) {
        Some(0) => Err(format!("{name} must be at least 1")),
        Some(n) => Ok(Some(n)),
        None => Err(format!("{name} needs a numeric value")),
    }
}

/// The positional arguments of subcommand `args[0]`, one for each of
/// `names`, in order. The count flags in `flags` may stand anywhere after
/// the subcommand, each once and followed by its value ([`parse_flag`]
/// reads it). A missing positional, one too many, a repeated flag or any
/// other option is an error.
fn positionals<'a>(
    args: &'a [String],
    names: &[&str],
    flags: &[&str],
) -> Result<Vec<&'a str>, String> {
    let cmd = &args[0];
    let mut found = Vec::new();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        if flags.contains(&arg.as_str()) {
            if args.iter().filter(|a| *a == arg).count() > 1 {
                return Err(format!("{cmd}: {arg} given more than once"));
            }
            rest.next();
        } else if arg.starts_with('-') || found.len() == names.len() {
            return Err(format!("{cmd}: unexpected argument '{arg}' (see --help)"));
        } else {
            found.push(arg.as_str());
        }
    }
    match names.get(found.len()) {
        Some(missing) => Err(format!("{cmd}: missing {missing}")),
        None => Ok(found),
    }
}

/// The capture configuration at `sms` SMs, checked before any GPU is built.
fn capture_cfg(sms: u32) -> Result<GpuConfig, String> {
    // Plenty of headroom: captures must complete, not rate-measure.
    let cfg = GpuConfig::default().with_sms(sms).with_windows(5_000, 2_000_000);
    cfg.validate().map_err(|e| format!("invalid GPU configuration: {e}"))?;
    Ok(cfg)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "capture" => {
            let pos = positionals(&args, &["APP", "OUT.lbw1"], &["--sms", "--iterations"])?;
            let (app, out) = (pos[0], pos[1]);
            let sms = parse_flag(&args, "--sms")?.unwrap_or(4);
            let iters = parse_flag(&args, "--iterations")?
                .unwrap_or(lb_replay::capture::DEFAULT_ITERATIONS);
            let cfg = capture_cfg(sms)?;
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
            let pos = positionals(&args, &["IN.traceg", "OUT.lbw1"], &[])?;
            let (input, out) = (pos[0], pos[1]);
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
            let file = positionals(&args, &["FILE.lbw1"], &[])?[0];
            let rep = format::read_file(Path::new(file)).map_err(|e| e.to_string())?;
            // Every op at a Load or Store position owns one access record;
            // sparse patterns leave many of them without lines. Counting
            // records, never ops, keeps this linear in the file's size.
            let runs: usize = rep.streams().map(|s| s.runs().len()).sum();
            let records = rep.streams().flat_map(|s| s.records());
            let (mem_ops, lineless) =
                records.fold((0, 0), |(n, none), (_, len)| (n + 1, none + usize::from(len == 0)));
            println!("kernel        {}", rep.stub.name);
            println!(
                "grid          {} CTAs x {} warps",
                rep.stub.grid_ctas, rep.stub.warps_per_cta
            );
            println!("regs/thread   {}", rep.stub.regs_per_thread);
            println!("shared/CTA    {} B", rep.stub.shared_mem_per_cta);
            println!("static body   {} insts, {} loads", rep.stub.body.len(), rep.stub.loads.len());
            println!("dynamic insts {}", rep.dyn_insts());
            println!("runs          {runs}");
            println!("memory ops    {mem_ops} ({lineless} without lines)");
            println!("line pool     {} entries", rep.pool().len());
            println!("repeats       {} records", format::repeat_records(&rep));
            println!("decoded       {} bytes", rep.heap_bytes());
            Ok(())
        }
        "selftest" => {
            let file = positionals(&args, &["FILE.lbw1"], &["--sms"])?[0];
            let cfg = capture_cfg(parse_flag(&args, "--sms")?.unwrap_or(4))?;
            let bytes = std::fs::read(file).map_err(|e| e.to_string())?;
            let rep = Arc::new(format::decode(&bytes).map_err(|e| e.to_string())?);
            let re = lb_replay::replay_reencode(&cfg, &rep, &baseline_factory())
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

#[cfg(test)]
mod tests {
    use super::{capture_cfg, parse_flag, positionals};

    #[test]
    fn count_flags_reject_zero_and_non_numbers() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = args(&["capture", "S1", "o.lbw1", "--sms", "0", "--iterations", "3"]);
        assert_eq!(parse_flag(&a, "--sms"), Err("--sms must be at least 1".into()));
        assert_eq!(parse_flag(&a, "--iterations"), Ok(Some(3)));
        let a = args(&["selftest", "f.lbw1", "--iterations", "0", "--sms"]);
        assert_eq!(parse_flag(&a, "--iterations"), Err("--iterations must be at least 1".into()));
        assert_eq!(parse_flag(&a, "--sms"), Err("--sms needs a numeric value".into()));
        assert_eq!(parse_flag(&args(&["info", "f.lbw1"]), "--sms"), Ok(None));
    }

    #[test]
    fn unknown_arguments_and_bad_configs_are_errors() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let capture =
            |v: &[&str]| positionals(&args(v), &["APP", "OUT"], &["--sms"]).map(|p| p.join(" "));
        // Count flags may stand before, between or after the positionals.
        assert_eq!(capture(&["capture", "--sms", "2", "S1", "o"]), Ok("S1 o".into()));
        assert_eq!(capture(&["capture", "S1", "--sms", "2", "o"]), Ok("S1 o".into()));
        let unexpected = |a: &str| Err(format!("capture: unexpected argument '{a}' (see --help)"));
        assert_eq!(capture(&["capture", "S1", "o", "--bogus"]), unexpected("--bogus"));
        assert_eq!(capture(&["capture", "S1", "o", "extra"]), unexpected("extra"));
        assert_eq!(capture(&["capture", "S1"]), Err("capture: missing OUT".into()));
        let twice = capture(&["capture", "S1", "o", "--sms", "2", "--sms", "3"]);
        assert_eq!(twice, Err("capture: --sms given more than once".into()));
        let info = args(&["info", "f.lbw1", "extra"]);
        let err = positionals(&info, &["FILE.lbw1"], &[]).unwrap_err();
        assert_eq!(err, "info: unexpected argument 'extra' (see --help)");
        // The SM count a 16-byte request can name, checked before any GPU.
        assert!(capture_cfg(65_536).is_ok());
        let err = capture_cfg(70_000).unwrap_err();
        assert!(err.starts_with("invalid GPU configuration: at most 65536 SMs"), "{err}");
    }
}

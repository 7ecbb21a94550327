//! Golden event-trace regression tests.
//!
//! Where `gpu-sim/tests/golden.rs` locks the end-of-run scalar counters,
//! these tests lock the *order of microarchitectural events*: one short
//! fixed kernel runs under the baseline, PCAL, CERF and Linebacker
//! policies with tracing enabled, and the captured streams are diffed
//! against committed `.lbt` files in `tests/golden_traces/`. A divergence
//! names the first differing event (cycle, kind, payload), which localizes
//! a behavioural change far more precisely than a drifted digest.
//!
//! The committed captures deliberately exclude per-instruction `Issue`
//! events (the bulkiest kind, covered by the determinism test below) to
//! keep the checked-in files small.
//!
//! To re-pin after an *intended* simulation change:
//!
//! ```text
//! LB_REGOLDEN=1 cargo test -p lb-bench --test golden_traces
//! ```

use std::path::PathBuf;

use baselines::{cerf_factory, pcal_factory};
use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::run_kernel_traced;
use gpu_sim::kernel::{KernelBuilder, KernelSpec};
use gpu_sim::pattern::AccessPattern;
use gpu_sim::policy::{baseline_factory, PolicyFactory};
use gpu_sim::trace::{diff, read_file, DiffOutcome, EventKind, TraceWriter, Tracer, MASK_ALL};
use gpu_sim::types::LINE_BYTES;
use linebacker::{linebacker_factory, LbConfig};

/// Same shape as the golden-stats kernel but shorter, so the committed
/// traces stay small while still exercising eviction, backup/restore and
/// both cache levels.
fn trace_kernel(n_sms: u32) -> KernelSpec {
    KernelBuilder::new("golden-trace")
        .grid(4 * n_sms, 8)
        .regs_per_thread(24)
        .iterations(12)
        .alu(3)
        .load_then_use(
            AccessPattern::ReuseWorkingSet { ws_bytes: 16 * LINE_BYTES, shared: false },
            2,
        )
        .load_then_use(AccessPattern::ReuseWorkingSet { ws_bytes: 16 * 1024, shared: true }, 1)
        .load(AccessPattern::Streaming { bytes_per_access: LINE_BYTES })
        .alu(2)
        .build()
        .expect("trace kernel must validate")
}

fn capture(factory: &PolicyFactory<'_>, mask: u64) -> Vec<u8> {
    let cfg = GpuConfig::default().with_sms(2).with_windows(2_500, 30_000);
    let kernel = trace_kernel(cfg.n_sms);
    let tracer = Tracer::new(TraceWriter::to_memory(mask));
    run_kernel_traced(cfg, kernel, factory, tracer.clone());
    tracer.finish().expect("memory writer cannot fail");
    tracer.take_bytes().expect("memory-backed tracer")
}

/// Everything except per-instruction issue events.
fn golden_mask() -> u64 {
    MASK_ALL & !EventKind::Issue.bit()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_traces").join(name)
}

fn check_golden(name: &str, factory: &PolicyFactory<'_>) {
    let fresh = capture(factory, golden_mask());
    let path = golden_path(name);
    if std::env::var_os("LB_REGOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &fresh).expect("write golden trace");
        eprintln!("re-pinned {} ({} bytes)", path.display(), fresh.len());
        return;
    }
    let pinned = read_file(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with LB_REGOLDEN=1 to (re-)pin the golden traces",
            path.display()
        )
    });
    let outcome = diff(&pinned, &fresh).expect("both traces must parse");
    match outcome {
        DiffOutcome::Identical { events } => {
            assert!(events > 0, "golden trace {name} is empty");
        }
        other => panic!(
            "{name} diverged from the pinned golden trace; if the simulation \
             change is intended, re-pin with LB_REGOLDEN=1.\n{other}"
        ),
    }
}

#[test]
fn golden_trace_baseline() {
    check_golden("baseline.lbt", &baseline_factory());
}

#[test]
fn golden_trace_pcal() {
    check_golden("pcal.lbt", &pcal_factory());
}

#[test]
fn golden_trace_cerf() {
    check_golden("cerf.lbt", &cerf_factory());
}

#[test]
fn golden_trace_linebacker() {
    check_golden("linebacker.lbt", &linebacker_factory(LbConfig::default()));
}

/// Two captures of the same configuration — full mask, `Issue` included —
/// must be event-for-event identical: the capture path itself is
/// deterministic, not just the simulation scalars.
#[test]
fn identical_runs_produce_identical_traces() {
    let a = capture(&linebacker_factory(LbConfig::default()), MASK_ALL);
    let b = capture(&linebacker_factory(LbConfig::default()), MASK_ALL);
    let outcome = diff(&a, &b).expect("traces must parse");
    assert!(outcome.is_identical(), "same config diverged: {outcome}");
}

/// Different policies must produce *different* streams (the diff tool's
/// reason to exist); the first divergence carries a usable payload.
#[test]
fn policies_diverge_and_diff_localizes_it() {
    let base = capture(&baseline_factory(), golden_mask());
    let lb = capture(&linebacker_factory(LbConfig::default()), golden_mask());
    match diff(&base, &lb).expect("traces must parse") {
        DiffOutcome::Diverged { index, .. } => {
            // Both runs start from the same cold caches, so the shared
            // prefix is non-trivial — the finder must skip past it.
            assert!(index > 0, "divergence at the very first event is implausible");
        }
        other => panic!("baseline and Linebacker traces must diverge, got {other}"),
    }
}

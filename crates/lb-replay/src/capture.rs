//! Capture: run a synthetic workload and record its replayable streams.
//!
//! Capture re-grids the application's kernel to exactly **one dispatch
//! wave** — `resident_ctas(cfg, kernel) * n_sms` CTAs — so every CTA is
//! placed at construction time by the deterministic round-robin dispatcher.
//! Stream↔(SM, warp slot) placement then depends only on the grid, never on
//! policy throttling decisions taken later in the run, which is what makes
//! a captured trace replay stats-identically under *all* policies, not just
//! the one it was captured under. Iterations are clamped well below the
//! synthetic default (rate-based runs never finish; a capture must).

use std::sync::Arc;

use gpu_sim::config::GpuConfig;
use gpu_sim::kernel::KernelSpec;
use gpu_sim::policy::PolicyFactory;
use gpu_sim::replay::{resident_ctas, ReplayKernel};
use gpu_sim::stats::SimStats;

use crate::format::ReplayError;

/// Default loop trips for a captured kernel: long enough to exercise every
/// cache behaviour (cold, reuse, capacity), short enough that the whole
/// grid retires within the capture cycle cap.
pub const DEFAULT_ITERATIONS: u32 = 12;

/// Re-grids `kernel` to one dispatch wave under `cfg` and clamps its trip
/// count to `iterations`, returning the capture-ready spec. Errors if the
/// kernel cannot place even one CTA per SM.
pub fn one_wave_kernel(
    cfg: &GpuConfig,
    mut kernel: KernelSpec,
    iterations: u32,
) -> Result<KernelSpec, ReplayError> {
    let per_sm = resident_ctas(cfg, &kernel);
    if per_sm == 0 {
        return Err(ReplayError::Malformed(format!(
            "kernel {} fits zero CTAs per SM under the capture config",
            kernel.name
        )));
    }
    kernel.grid_ctas = per_sm * cfg.n_sms;
    kernel.iterations = iterations.max(1);
    Ok(kernel)
}

/// Captures a named synthetic application (`workloads::app` abbreviation)
/// into a [`ReplayKernel`] under the baseline policy, returning the capture
/// run's stats alongside the trace. A trip count of 0 is clamped to 1, as
/// [`one_wave_kernel`] clamps it.
pub fn capture_app(
    abbrev: &str,
    cfg: &GpuConfig,
    iterations: u32,
    factory: &PolicyFactory<'_>,
) -> Result<(SimStats, ReplayKernel), ReplayError> {
    let app = workloads::app(abbrev)
        .ok_or_else(|| ReplayError::Malformed(format!("unknown application '{abbrev}'")))?;
    // The app's kernel builder rejects a zero trip count; clamp it first.
    let iterations = iterations.max(1);
    let kernel = one_wave_kernel(cfg, app.kernel_with(cfg.n_sms, iterations), iterations)?;
    capture_spec(cfg, kernel, factory)
}

/// Captures an explicit kernel spec (already one-wave-gridded; use
/// [`one_wave_kernel`] first if unsure).
pub fn capture_spec(
    cfg: &GpuConfig,
    kernel: KernelSpec,
    factory: &PolicyFactory<'_>,
) -> Result<(SimStats, ReplayKernel), ReplayError> {
    gpu_sim::capture_kernel(cfg.clone(), kernel, factory)
        .map_err(|e| ReplayError::Malformed(e.to_string()))
}

/// Replays `rep`, re-captures what executed, and returns the re-encoded
/// bytes — byte-identical to `encode(rep)` iff the replay consumed exactly
/// what the file describes. The `selftest` CLI subcommand and
/// `ci/replay_smoke.sh` run this check over the corpus.
pub fn replay_reencode(
    cfg: &GpuConfig,
    rep: &Arc<ReplayKernel>,
    factory: &PolicyFactory<'_>,
) -> Result<Vec<u8>, ReplayError> {
    let (_, recap) = gpu_sim::run_replay_capture(cfg.clone(), rep, factory)
        .map_err(|e| ReplayError::Malformed(e.to_string()))?;
    Ok(crate::format::encode(&recap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::kernel::InstKind;
    use gpu_sim::policy::baseline_factory;
    use gpu_sim::replay::Run;

    fn cap_cfg() -> GpuConfig {
        GpuConfig::default().with_sms(2).with_windows(5_000, 400_000)
    }

    #[test]
    fn captured_app_round_trips_through_bytes() {
        let cfg = cap_cfg();
        let (_, rep) = capture_app("S1", &cfg, 6, &baseline_factory()).unwrap();
        rep.validate().unwrap();
        assert_eq!(rep.total_streams(), rep.n_streams());
        let bytes = crate::format::encode(&rep);
        let back = crate::format::decode(&bytes).unwrap();
        // Decoded stubs carry placeholder patterns (never executed); every
        // header field policy transforms read must round-trip exactly.
        assert_eq!(back.stub.name, rep.stub.name);
        assert_eq!(back.stub.grid_ctas, rep.stub.grid_ctas);
        assert_eq!(back.stub.warps_per_cta, rep.stub.warps_per_cta);
        assert_eq!(back.stub.regs_per_thread, rep.stub.regs_per_thread);
        assert_eq!(back.stub.shared_mem_per_cta, rep.stub.shared_mem_per_cta);
        assert_eq!(back.stub.body, rep.stub.body);
        assert_eq!(back.dyn_insts(), rep.dyn_insts());
        // Canonical encoding: a replay re-capture serializes identically.
        let rt = replay_reencode(&cfg, &std::sync::Arc::new(back), &baseline_factory()).unwrap();
        assert_eq!(rt, bytes);
    }

    #[test]
    fn captured_stream_is_one_run_and_a_record_per_memory_op() {
        let cfg = cap_cfg();
        for trips in [1, 3, 5] {
            let (_, rep) = capture_app("S1", &cfg, trips, &baseline_factory()).unwrap();
            let body = &rep.stub.body;
            let mem_insts = body.iter().filter(|i| !matches!(i.kind, InstKind::Alu { .. })).count();
            assert!(mem_insts < body.len(), "S1 has ALU ops that must store nothing");
            for s in rep.streams() {
                assert_eq!(s.runs(), [Run { start: 0, count: trips * body.len() as u32 }]);
                assert_eq!(s.n_accesses(), trips as usize * mem_insts);
            }
        }
    }

    #[test]
    fn zero_iterations_capture_one_trip() {
        let cfg = cap_cfg();
        let (_, zero) = capture_app("S1", &cfg, 0, &baseline_factory()).unwrap();
        let (_, one) = capture_app("S1", &cfg, 1, &baseline_factory()).unwrap();
        assert_eq!(zero, one);
    }

    #[test]
    fn unknown_app_is_typed_error() {
        match capture_app("nope", &cap_cfg(), 4, &baseline_factory()) {
            Err(ReplayError::Malformed(msg)) => assert!(msg.contains("unknown application")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}

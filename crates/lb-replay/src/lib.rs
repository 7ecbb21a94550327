//! `lb-replay`: workload traces for the Linebacker reproduction.
//!
//! Three layers on top of `gpu-sim`'s replay frontend:
//!
//! - [`format`] — the `LBW1` wire format: a serialized
//!   [`ReplayKernel`](gpu_sim::replay::ReplayKernel) (kernel-stub header +
//!   per-warp instruction/line streams) with a canonical, interned
//!   encoding and typed decode errors.
//! - [`capture`] — run any synthetic workload one-wave-gridded and record
//!   its exact issue-order streams, producing a self-contained replay
//!   corpus with no external inputs.
//! - [`import`] — normalize Accel-Sim-style text kernel traces
//!   (`kernel-*.traceg` subset) into `LBW1`, opening SASS-derived
//!   real-application inputs.
//!
//! The `lb-replay` binary exposes all three (`capture`, `import`, `info`,
//! `selftest`); the bench harness loads `.lbw1` files via
//! `--workload trace:PATH`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod format;
pub mod import;

pub use capture::{capture_app, capture_spec, one_wave_kernel, replay_reencode};
pub use format::{decode, encode, read_file, write_file, ReplayError};
pub use import::{import_file, import_str};

/// Absolute path of the checked-in trace corpus (`crates/lb-replay/testdata`).
pub fn testdata_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata")
}

/// Resolves a harness `--workload trace:PATH` spec: loads the file (`.traceg`
/// imports, anything else decodes as LBW1), registers it in the
/// [`workloads::traces`] registry under its file stem, and returns the
/// registry key alongside the kernel.
pub fn load_workload_spec(
    spec: &str,
) -> Result<(&'static str, std::sync::Arc<gpu_sim::replay::ReplayKernel>), String> {
    let path = spec
        .strip_prefix("trace:")
        .ok_or_else(|| format!("workload spec '{spec}' must look like trace:PATH"))?;
    let path = std::path::Path::new(path);
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| format!("workload path '{}' has no file stem", path.display()))?;
    let rep = match path.extension().and_then(|e| e.to_str()) {
        Some("traceg") => import::import_file(path),
        _ => format::read_file(path),
    }
    .map_err(|e| format!("{}: {e}", path.display()))?;
    let rep = std::sync::Arc::new(rep);
    let key = workloads::traces::register(stem, std::sync::Arc::clone(&rep));
    Ok((key, rep))
}

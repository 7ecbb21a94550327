//! # gpu-sim — a cycle-level GPU microarchitecture simulator
//!
//! This crate is the substrate of the Linebacker (ISCA 2019) reproduction: a
//! from-scratch Rust model of the GPU the paper simulates with GPGPU-Sim
//! v3.2.2 — streaming multiprocessors with Greedy-Then-Oldest warp
//! scheduling, a banked register file, per-SM L1 caches with MSHRs, a shared
//! L2, and a bandwidth/timing-modeled DRAM (Table 1 of the paper).
//!
//! Architecture policies (warp throttling, cache bypassing, victim caching)
//! plug in through the [`policy::SmPolicy`] trait; the Linebacker mechanism
//! and every baseline it is compared against are implementations of that
//! trait living in sibling crates.
//!
//! ## Quick start
//!
//! ```
//! use gpu_sim::config::GpuConfig;
//! use gpu_sim::gpu::run_kernel;
//! use gpu_sim::kernel::KernelBuilder;
//! use gpu_sim::pattern::AccessPattern;
//! use gpu_sim::policy::baseline_factory;
//!
//! // A small kernel with one reused-working-set load.
//! let kernel = KernelBuilder::new("demo")
//!     .grid(8, 4)
//!     .regs_per_thread(32)
//!     .load_then_use(AccessPattern::reuse_working_set(16 * 1024, true), 2)
//!     .alu(4)
//!     .iterations(100)
//!     .build()?;
//!
//! let cfg = GpuConfig::default().with_sms(2).with_windows(5_000, 50_000);
//! let stats = run_kernel(cfg, kernel, &baseline_factory());
//! assert!(stats.instructions > 0);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod calendar;
pub mod coalesce;
pub mod config;
pub mod cta;
pub mod dram;
pub mod energy;
pub mod fastmap;
pub mod gpu;
pub mod icnt;
pub mod kernel;
pub mod mem;
pub mod partition;
pub mod pattern;
pub mod phase_timer;
pub mod policy;
pub mod regfile;
pub mod replay;
pub mod scheduler;
pub mod sm;
pub mod stats;
pub mod types;
pub mod warp;

pub use config::GpuConfig;
pub use gpu::{
    capture_kernel, run_kernel, run_kernel_traced, run_replay_capture, run_replay_kernel,
    run_replay_kernel_traced, Gpu,
};
pub use kernel::{KernelBuilder, KernelSpec};
/// The event-trace crate, re-exported so simulator users need not name the
/// `lb-trace` dependency themselves.
pub use lb_trace as trace;
pub use pattern::AccessPattern;
pub use policy::{NullPolicy, SmPolicy};
pub use replay::{CaptureError, ReplayKernel, TraceOp, WarpStream};
pub use stats::SimStats;

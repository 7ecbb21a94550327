//! # linebacker — victim caching in idle GPU register files
//!
//! Reproduction of the core mechanism of *Linebacker: Preserving Victim
//! Cache Lines in Idle Register Files of GPUs* (ISCA 2019). Linebacker
//! co-designs three techniques on top of a GTO-scheduled GPU:
//!
//! 1. **CTA throttling** driven by windowed IPC variation (±10 % bounds),
//!    which frees register-file space while curbing cache contention;
//! 2. **register backup/restore** of throttled CTAs to off-chip memory, so
//!    their register-file space becomes *dynamically unused*;
//! 3. **selective victim caching**: a 32-entry Load Monitor classifies
//!    static loads by hit ratio over 50 k-cycle windows, and only victims of
//!    high-locality loads are preserved — in idle warp registers indexed by
//!    a Victim Tag Table mirroring the L1's 48 sets.
//!
//! The entry point is [`LinebackerPolicy`], an implementation of
//! [`gpu_sim::policy::SmPolicy`]; attach it to a simulation with
//! [`linebacker_factory`]:
//!
//! ```
//! use gpu_sim::config::GpuConfig;
//! use gpu_sim::gpu::run_kernel;
//! use gpu_sim::kernel::KernelBuilder;
//! use gpu_sim::pattern::AccessPattern;
//! use linebacker::{linebacker_factory, LbConfig};
//!
//! let kernel = KernelBuilder::new("demo")
//!     .grid(8, 4)
//!     .regs_per_thread(32)
//!     .load_then_use(AccessPattern::reuse_working_set(64 * 1024, true), 2)
//!     .iterations(200)
//!     .build()?;
//! let cfg = GpuConfig::default().with_sms(2).with_windows(5_000, 60_000);
//! let stats = run_kernel(cfg, kernel, &linebacker_factory(LbConfig::default()));
//! println!("IPC = {:.3}, reg hits = {}", stats.ipc(), stats.reg_hits);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod ctl;
pub mod hpc;
pub mod load_monitor;
pub mod overhead;
pub mod policy;
pub mod vtt;

pub use config::{LbConfig, LbMode};
pub use ctl::{CtaManager, IpcMonitor, ThrottleDecision};
pub use load_monitor::{LmPhase, LoadMonitor};
pub use overhead::StorageOverhead;
pub use policy::{
    linebacker_factory, selective_victim_caching_factory, victim_caching_factory, LinebackerPolicy,
};
pub use vtt::{Vtt, VttHit};

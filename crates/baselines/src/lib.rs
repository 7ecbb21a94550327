//! # baselines — the architectures Linebacker is compared against
//!
//! Implementations of every comparison point in the paper's evaluation:
//!
//! * [`best_swl`] — Best-SWL, the oracle static CTA-limit (warp throttling)
//!   baseline, including the sweep that finds the per-application optimum;
//! * [`pcal`] — PCAL, token-based warp prioritization with L1 bypass for
//!   token-less warps;
//! * [`cerf`] — CERF, the cache-emulated register file (unified on-chip
//!   local memory, no locality filter);
//! * [`cache_ext`] — the idealized enlarged-L1 configurations of §2.4;
//! * [`combos`] — PCAL+CERF, Baseline+SVC, PCAL+SVC compositions from §5.5.
//!
//! All policies implement [`gpu_sim::policy::SmPolicy`] and attach to a
//! simulation via their `*_factory()` constructors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod best_swl;
pub mod cache_ext;
pub mod cerf;
pub mod combos;
pub mod pcal;

pub use best_swl::{best_swl_sweep, static_limit_factory, BestSwl, StaticLimitPolicy};
pub use cache_ext::{best_swl_cache_ext_config, cache_ext_config, statically_unused_bytes};
pub use cerf::{cerf_factory, CerfPolicy};
pub use combos::{baseline_svc_factory, pcal_cerf_factory, pcal_svc_factory, ComposedPolicy};
pub use pcal::{pcal_factory, PcalPolicy};

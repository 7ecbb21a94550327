//! # linebacker-repro
//!
//! A from-scratch Rust reproduction of *Linebacker: Preserving Victim Cache
//! Lines in Idle Register Files of GPUs* (ISCA 2019).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`gpu_sim`] — the cycle-level GPU simulator substrate (SMs, GTO
//!   scheduling, banked register file, L1/MSHR/L2/DRAM);
//! * [`workloads`] — synthetic models of the paper's 20-app benchmark suite;
//! * [`linebacker`] — the paper's contribution: Load Monitor, Victim Tag
//!   Table, CTA Throttling Logic and the victim-caching policy;
//! * [`baselines`] — Best-SWL, PCAL, CERF, CacheExt and combinations;
//! * [`lb_bench`] — the experiment harness regenerating every table/figure.
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology and results.

#![forbid(unsafe_code)]

pub use baselines;
pub use gpu_sim;
pub use lb_bench;
pub use linebacker;
pub use workloads;

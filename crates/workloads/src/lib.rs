//! # workloads — synthetic models of the Linebacker benchmark suite
//!
//! The paper evaluates on 20 CUDA applications from Rodinia, Parboil,
//! Polybench, the GPGPU-Sim suite and the CUDA SDK (Table 2). This crate
//! provides synthetic equivalents: per-application kernel models calibrated
//! to the memory-visible characteristics the paper reports — reused
//! working-set sizes (Figure 2), streaming footprints (Figure 3), register
//! occupancy (Figure 4) and the resulting cache-sensitivity split.
//!
//! ```
//! use workloads::apps::{all_apps, app};
//!
//! assert_eq!(all_apps().len(), 20);
//! let bicg = app("BI").expect("BI exists");
//! let kernel = bicg.kernel(16);
//! assert!(kernel.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod spec;
pub mod suite;
pub mod traces;

pub use apps::{all_apps, app};
pub use spec::{AppLoad, AppSpec, Sensitivity};
pub use suite::{classify, run_baseline, Classification};

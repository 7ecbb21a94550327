//! # lb-bench — the experiment harness of the Linebacker reproduction
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | id | paper artifact |
//! |---|---|
//! | `table2` | Table 2 (suite + cache-sensitivity classification) |
//! | `fig01`..`fig05` | the motivational studies (§2) |
//! | `overhead` | §4.2 storage overhead |
//! | `fig09`..`fig18` | the evaluation (§5) |
//!
//! Use the `lb-experiments` binary:
//!
//! ```text
//! lb-experiments --scale default all
//! lb-experiments --jobs 8 fig12 fig13
//! ```
//!
//! The harness is layered: experiments *plan* their simulations as typed
//! [`RunKey`]s ([`experiments::plan`]), the [`engine`] executes the
//! deduplicated union across a worker pool with single-flight semantics,
//! and rendering reads from the warm memo. Figures that share run sets
//! (12/13/16/17/18) therefore cost one set of simulations, executed in
//! parallel (`--jobs`/`LB_JOBS`, default: all cores) with bit-identical
//! results at any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod engine;
pub mod experiments;
pub mod profile;
pub mod runkey;
pub mod runner;
pub mod scale;
pub mod table;

pub use arch::Arch;
pub use engine::Engine;
pub use profile::Profile;
pub use runkey::{ArchSpec, RunKey};
pub use runner::Runner;
pub use scale::Scale;
pub use table::Table;

/// A process-wide runner at [`Scale::Quick`], shared by the test suite so
/// memoized simulations are reused across test functions.
pub fn shared_quick_runner() -> &'static Runner {
    use std::sync::OnceLock;
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    RUNNER.get_or_init(|| Runner::new(Scale::Quick))
}

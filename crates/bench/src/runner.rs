//! Memoized experiment runner: many figures share the same simulations
//! (Figures 12, 13, 16, 17 and 18 all read the same five-architecture run
//! set), so results are cached per [`RunKey`] within one harness
//! invocation.
//!
//! The runner is a thin policy layer over the [`Engine`]: it owns the scale
//! and base configuration, translates the legacy `run`/`run_l1`/
//! `run_detailed` entry points into typed [`RunKey`]s, and adds the
//! Best-SWL oracle (a per-app memoized *plan node*: its candidate sweep is
//! expressible as `Vec<RunKey>` up front via [`Runner::best_swl_plan`], so
//! batch prefetching covers it, and the arg-max itself is cached so repeat
//! calls re-run nothing).

use std::sync::{Arc, Mutex, OnceLock};

use gpu_sim::config::GpuConfig;
use gpu_sim::fastmap::FastMap;
use gpu_sim::gpu::{run_kernel, run_kernel_traced, run_replay_kernel, run_replay_kernel_traced};
use gpu_sim::stats::SimStats;
use gpu_sim::trace::{TraceWriter, Tracer};
use workloads::AppSpec;

use crate::arch::Arch;
use crate::engine::Engine;
use crate::profile::Profile;
use crate::runkey::RunKey;
use crate::scale::Scale;

/// Candidate CTA limits tried by the Best-SWL oracle sweep.
pub const SWL_CANDIDATES: [u32; 8] = [1, 2, 3, 4, 6, 8, 12, 16];

/// A Best-SWL oracle verdict: the winning CTA limit (`None` = unlimited
/// baseline) and the stats of the winning run.
pub type BestSwl = (Option<u32>, Arc<SimStats>);

/// Event-trace capture configuration for a whole harness invocation: each
/// distinct simulation writes `<dir>/<sanitized RunKey>.lbt`.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Directory receiving one `.lbt` file per distinct simulation.
    pub dir: std::path::PathBuf,
    /// Event-kind selection mask (see [`gpu_sim::trace::parse_mask`]).
    pub mask: u64,
}

/// Turns a `RunKey` display string (`GA/Baseline+l1=16K`) into a safe file
/// stem (`GA_Baseline+l1=16K`).
pub fn sanitize_key(key: &str) -> String {
    key.chars()
        .map(|c| if c.is_ascii_alphanumeric() || "+=.-".contains(c) { c } else { '_' })
        .collect()
}

/// The machine's available parallelism, read once per process: the query
/// reads cgroup files, which costs more than building a runner.
fn default_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The memoized runner.
pub struct Runner {
    scale: Scale,
    cfg: GpuConfig,
    engine: Engine,
    /// Memoized Best-SWL oracle results per app (the arg-max over the
    /// sweep, not just the individual runs).
    best_swl: Mutex<FastMap<&'static str, BestSwl>>,
    /// Worker threads used by [`Runner::prefetch`]; `None` until set, for
    /// the machine's available parallelism.
    jobs: Option<usize>,
    /// Progress reporting to stderr.
    pub verbose: bool,
    /// Hot-path profiler: per-sim wall-clock and event counters
    /// (always collected — one `Instant` pair per simulation — and
    /// reported when the harness runs with `--profile`).
    profile: Mutex<Profile>,
    /// Event-trace capture (`--trace`): when set, every distinct simulation
    /// writes one `.lbt` file named after its run key.
    trace: Option<TraceSpec>,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("scale", &self.scale)
            .field("jobs", &self.jobs())
            .field("sims_run", &self.sims_run())
            .finish()
    }
}

impl Runner {
    /// Creates a runner at the given scale. The worker count defaults to
    /// the machine's available parallelism, read on first use (override
    /// with [`Runner::set_jobs`], or the `--jobs`/`LB_JOBS` knobs of
    /// `lb-experiments`).
    pub fn new(scale: Scale) -> Self {
        Runner {
            cfg: scale.config(),
            scale,
            engine: Engine::new(),
            best_swl: Mutex::new(FastMap::default()),
            jobs: None,
            verbose: false,
            profile: Mutex::new(Profile::default()),
            trace: None,
        }
    }

    /// Enables per-simulation event tracing: each distinct run key writes
    /// `<dir>/<sanitized key>.lbt` with the given event mask. The directory
    /// is created here; simulation behavior is unchanged (tracing is
    /// strictly observational).
    pub fn set_trace(&mut self, dir: std::path::PathBuf, mask: u64) -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        self.trace = Some(TraceSpec { dir, mask });
        Ok(())
    }

    /// The active trace capture configuration, if any.
    pub fn trace_spec(&self) -> Option<&TraceSpec> {
        self.trace.as_ref()
    }

    /// Overrides the memory-partition count of the base configuration
    /// (the `--partitions` knob of `lb-experiments`). Per-key overrides
    /// via [`RunKey::with_partitions`] still take precedence.
    pub fn set_partitions(&mut self, n: u32) {
        self.cfg = self.cfg.clone().with_mem_partitions(n);
    }

    /// Enables or disables greedy-run burst execution and SM local clocks
    /// (the `--no-burst` escape hatch of the harness binaries). Output is
    /// byte-identical either way; bursting is purely a speed optimization.
    pub fn set_burst(&mut self, on: bool) {
        self.cfg = self.cfg.clone().with_burst(on);
    }

    /// The scale in use.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The base configuration (before per-architecture transforms).
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Worker threads used by [`Runner::prefetch`].
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(default_jobs)
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = Some(jobs.max(1));
    }

    /// Number of simulations actually executed so far. Each distinct
    /// [`RunKey`] contributes at most one, no matter how many figures (or
    /// threads) request it.
    pub fn sims_run(&self) -> u64 {
        self.engine.sims_run()
    }

    /// Runs (or recalls) `app` under `arch` on the scale's base config.
    pub fn run(&self, app: &AppSpec, arch: Arch) -> Arc<SimStats> {
        self.run_key(RunKey::for_app(app, arch))
    }

    /// Runs with an overridden L1 size (Figure 14 sweeps).
    pub fn run_l1(&self, app: &AppSpec, arch: Arch, l1_bytes: u32) -> Arc<SimStats> {
        self.run_key(RunKey::for_app(app, arch).with_l1(l1_bytes))
    }

    /// Runs the baseline with detailed per-load statistics (Figures 2/3).
    ///
    /// The paper defines reuse and streaming over 50 000-cycle windows;
    /// shorter scale windows cannot observe typical reuse distances, so
    /// detailed runs always use the paper's window length (and enough
    /// cycles for several windows), independent of the scale.
    pub fn run_detailed(&self, app: &AppSpec) -> Arc<SimStats> {
        self.run_key(RunKey::for_app(app, Arch::Baseline).with_detailed())
    }

    /// Runs (or recalls) an explicit [`RunKey`].
    pub fn run_key(&self, key: RunKey) -> Arc<SimStats> {
        self.engine.run(key, |k| self.compute(k))
    }

    /// Executes a batch of keys across [`Runner::jobs`] worker threads with
    /// single-flight deduplication; every key is warm in the memo
    /// afterwards, so rendering never simulates. Duplicate and
    /// already-memoized keys cost nothing.
    pub fn prefetch(&self, keys: &[RunKey]) {
        self.engine.prefetch(keys, self.jobs(), self.verbose, |k| self.compute(k));
    }

    /// The single place a simulation is actually launched: builds the
    /// config from the key's [`crate::runkey::ArchSpec`] and calls the pure
    /// `run_kernel`.
    fn compute(&self, key: &RunKey) -> SimStats {
        // Trace-driven workloads (`trace:<name>` keys) resolve through the
        // runtime registry; everything else through the synthetic app table.
        let replay = workloads::traces::get(key.app);
        let (cfg, kernel) = match &replay {
            Some(rep) => (key.spec().config_for_kernel(&self.cfg, &rep.stub), None),
            None => {
                let app = workloads::app(key.app)
                    .unwrap_or_else(|| panic!("unknown app in run key: {key}"));
                // One kernel serves both the config transform and the run:
                // no transform changes the SM count it is sized for.
                let kernel = app.kernel(self.cfg.n_sms);
                let cfg = key.spec().config_for_kernel(&self.cfg, &kernel);
                debug_assert_eq!(
                    cfg.n_sms, self.cfg.n_sms,
                    "{key}: transform changed the SM count"
                );
                (cfg, Some(kernel))
            }
        };
        let t0 = std::time::Instant::now();
        let mut trace_io = None;
        let stats = match &self.trace {
            None => match &replay {
                Some(rep) => run_replay_kernel(cfg, rep, &key.arch.factory()),
                None => run_kernel(cfg, kernel.unwrap(), &key.arch.factory()),
            },
            Some(spec) => {
                // Partitioned runs carry per-record partition ids in the
                // wire format; the flag bit sits outside `parse_mask`'s
                // reach, so it is OR'd in here, never by the user.
                let mask = if cfg.n_mem_partitions > 1 {
                    spec.mask | gpu_sim::trace::FLAG_PART_IDS
                } else {
                    spec.mask
                };
                let path = spec.dir.join(format!("{}.lbt", sanitize_key(&key.to_string())));
                let writer = TraceWriter::to_file(&path, mask)
                    .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", path.display()));
                let tracer = Tracer::new(writer);
                let stats = match &replay {
                    Some(rep) => {
                        run_replay_kernel_traced(cfg, rep, &key.arch.factory(), tracer.clone())
                    }
                    None => {
                        run_kernel_traced(cfg, kernel.unwrap(), &key.arch.factory(), tracer.clone())
                    }
                };
                tracer
                    .finish()
                    .unwrap_or_else(|e| panic!("cannot flush trace file {}: {e}", path.display()));
                trace_io = Some((tracer.bytes(), tracer.events()));
                stats
            }
        };
        let mut prof = self.profile.lock().unwrap();
        prof.record(key.to_string(), t0.elapsed().as_secs_f64(), &stats);
        if let Some((bytes, events)) = trace_io {
            prof.record_trace(bytes, events);
        }
        drop(prof);
        stats
    }

    /// Snapshot of the hot-path profile accumulated so far.
    pub fn profile(&self) -> Profile {
        self.profile.lock().unwrap().clone()
    }

    /// The keys the Best-SWL oracle for `app` needs: the unlimited baseline
    /// plus every effective [`SWL_CANDIDATES`] point. Prefetching these
    /// makes a later [`Runner::best_swl`] call pure table lookup.
    pub fn best_swl_plan(&self, app: &AppSpec) -> Vec<RunKey> {
        let resident = app.resident_ctas(&self.cfg);
        std::iter::once(RunKey::for_app(app, Arch::Baseline))
            .chain(
                SWL_CANDIDATES
                    .into_iter()
                    .filter(|&l| l < resident) // l >= resident: no throttling effect
                    .map(|l| RunKey::for_app(app, Arch::StaticLimit(l))),
            )
            .collect()
    }

    /// Best-SWL oracle for `app`: sweeps [`SWL_CANDIDATES`] plus unlimited
    /// and returns `(best limit, stats of the best run)`. `None` means the
    /// unlimited baseline won. The result is memoized per app, so repeat
    /// calls (every normalized figure takes this denominator) cost nothing.
    pub fn best_swl(&self, app: &AppSpec) -> BestSwl {
        if let Some(hit) = self.best_swl.lock().unwrap().get(app.abbrev) {
            return hit.clone();
        }
        // Compute outside the lock: the sweep may simulate for minutes and
        // the engine already deduplicates the underlying runs, so a
        // concurrent racer computes the same arg-max from the same stats.
        let mut best: BestSwl = (None, self.run(app, Arch::Baseline));
        for key in self.best_swl_plan(app) {
            if key.arch == Arch::Baseline {
                continue;
            }
            let s = self.run_key(key);
            if s.ipc() > best.1.ipc() {
                let limit = match key.arch {
                    Arch::StaticLimit(l) => Some(l),
                    _ => unreachable!("best_swl_plan emits only baseline/static-limit keys"),
                };
                best = (limit, s);
            }
        }
        self.best_swl.lock().unwrap().insert(app.abbrev, best.clone());
        best
    }

    /// IPC of the Best-SWL oracle (the usual normalization denominator).
    pub fn best_swl_ipc(&self, app: &AppSpec) -> f64 {
        self.best_swl(app).1.ipc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::app;

    #[test]
    fn memoization_avoids_reruns() {
        let r = Runner::new(Scale::Quick);
        let a = app("GA").unwrap();
        let s1 = r.run(&a, Arch::Baseline);
        let n = r.sims_run();
        let s2 = r.run(&a, Arch::Baseline);
        assert_eq!(r.sims_run(), n, "second call must hit the memo");
        assert!(Arc::ptr_eq(&s1, &s2));
    }

    #[test]
    fn l1_override_is_distinct_key() {
        let r = Runner::new(Scale::Quick);
        let a = app("GA").unwrap();
        let _ = r.run(&a, Arch::Baseline);
        let _ = r.run_l1(&a, Arch::Baseline, 16 * 1024);
        assert_eq!(r.sims_run(), 2);
    }

    #[test]
    fn best_swl_never_below_baseline() {
        let r = Runner::new(Scale::Quick);
        let a = app("S2").unwrap();
        let base = r.run(&a, Arch::Baseline).ipc();
        let (_, best) = r.best_swl(&a);
        assert!(best.ipc() >= base - 1e-12);
    }

    #[test]
    fn detailed_run_collects_load_windows() {
        let r = Runner::new(Scale::Quick);
        let a = app("GA").unwrap();
        let s = r.run_detailed(&a);
        assert!(!s.load_detail.is_empty(), "detailed stats must be collected");
    }

    #[test]
    fn best_swl_result_is_memoized() {
        let r = Runner::new(Scale::Quick);
        let a = app("S2").unwrap();
        let first = r.best_swl(&a);
        let n = r.sims_run();
        let second = r.best_swl(&a);
        assert_eq!(r.sims_run(), n, "second best_swl call must not simulate");
        assert_eq!(first.0, second.0);
        assert!(Arc::ptr_eq(&first.1, &second.1));
    }

    #[test]
    fn prefetched_plan_makes_best_swl_free() {
        let r = Runner::new(Scale::Quick);
        let a = app("S2").unwrap();
        let plan = r.best_swl_plan(&a);
        assert!(plan.len() >= 2, "sweep must include baseline plus candidates");
        r.prefetch(&plan);
        let n = r.sims_run();
        assert_eq!(n as usize, plan.len());
        let _ = r.best_swl(&a);
        assert_eq!(r.sims_run(), n, "best_swl after prefetch must be lookup only");
    }

    #[test]
    fn prefetch_deduplicates_keys() {
        let r = Runner::new(Scale::Quick);
        let a = app("GA").unwrap();
        let key = RunKey::for_app(&a, Arch::Baseline);
        r.prefetch(&[key, key, key]);
        assert_eq!(r.sims_run(), 1);
    }

    #[test]
    fn jobs_default_to_the_machine_until_set() {
        let mut r = Runner::new(Scale::Quick);
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(r.jobs(), machine);
        r.set_jobs(3);
        assert_eq!(r.jobs(), 3);
        r.set_jobs(0);
        assert_eq!(r.jobs(), 1, "clamped to one worker");
    }

    #[test]
    fn run_key_matches_legacy_entry_points() {
        let r = Runner::new(Scale::Quick);
        let a = app("GA").unwrap();
        let via_key = r.run_key(RunKey::for_app(&a, Arch::Baseline).with_l1(16 * 1024));
        let via_legacy = r.run_l1(&a, Arch::Baseline, 16 * 1024);
        assert!(Arc::ptr_eq(&via_key, &via_legacy));
        assert_eq!(r.sims_run(), 1);
    }
}

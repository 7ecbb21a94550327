//! Typed run identity: the memo/planning key of the experiment harness.
//!
//! A [`RunKey`] names one simulation — `(app, architecture, L1 override,
//! detailed flag)` — and an [`ArchSpec`] turns that identity into the exact
//! [`GpuConfig`] transform and policy factory the run uses. The key is a
//! plain `Hash + Eq` value type, so two distinct configurations can never
//! alias (the previous string-formatted key could only promise this
//! informally), and plans for whole figure suites are just `Vec<RunKey>`.
//!
//! The harness hashes every planned key at least twice (plan dedupe, then
//! the memo), so [`RunKey`]'s `Hash` writes one pre-mixed `u64` instead of
//! the dozen field writes a derive would feed the hasher.

use std::hash::{Hash, Hasher};

use gpu_sim::config::GpuConfig;
use gpu_sim::policy::PolicyFactory;
use workloads::AppSpec;

use crate::arch::Arch;

/// Identity of one simulation run within a [`crate::Runner`].
///
/// Equality is structural: every field that influences the simulation's
/// configuration participates, so collisions are unrepresentable. The hash
/// covers every field too (see the `Hash` impl).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunKey {
    /// Application abbreviation (the paper's two-letter code, e.g. `"S2"`).
    pub app: &'static str,
    /// Architecture under evaluation.
    pub arch: Arch,
    /// Optional L1 size override in bytes (Figure 14 / Table 2 sweeps).
    pub l1_override: Option<u64>,
    /// Detailed per-load statistics (Figures 2/3; forces the paper's
    /// 50 k-cycle window definition).
    pub detailed: bool,
    /// Optional memory-partition count override (`None` = the scale's base
    /// config, i.e. one partition). Part of the key so memoization can
    /// never alias runs across partition counts.
    pub partitions: Option<u32>,
    /// Optional monitoring-window length override, as a percentage of the
    /// scale's window (ablation sweep). `None` = the scale's window; the
    /// builder collapses 100% to `None` so the sweep's identity point
    /// shares memoized runs with every other figure.
    pub window_pct: Option<u32>,
}

impl RunKey {
    /// A plain run of `app` under `arch` on the scale's base config.
    pub fn new(app: &'static str, arch: Arch) -> Self {
        RunKey { app, arch, l1_override: None, detailed: false, partitions: None, window_pct: None }
    }

    /// A plain run keyed by an [`AppSpec`].
    pub fn for_app(app: &AppSpec, arch: Arch) -> Self {
        Self::new(app.abbrev, arch)
    }

    /// Overrides the L1 size (bytes).
    pub fn with_l1(mut self, bytes: u64) -> Self {
        self.l1_override = Some(bytes);
        self
    }

    /// Enables detailed per-load statistics.
    pub fn with_detailed(mut self) -> Self {
        self.detailed = true;
        self
    }

    /// Overrides the memory-partition count (power of two).
    pub fn with_partitions(mut self, n: u32) -> Self {
        self.partitions = Some(n);
        self
    }

    /// Overrides the monitoring-window length as a percentage of the
    /// scale's window. 100% is the identity transform and deliberately
    /// collapses to the plain key, so the ablation sweep's centre point
    /// memo-shares with the rest of the suite instead of re-simulating.
    pub fn with_window_pct(mut self, pct: u32) -> Self {
        self.window_pct = if pct == 100 { None } else { Some(pct) };
        self
    }

    /// The architecture specification part of the key (everything except
    /// the application).
    pub fn spec(&self) -> ArchSpec {
        ArchSpec {
            arch: self.arch,
            l1_override: self.l1_override,
            detailed: self.detailed,
            partitions: self.partitions,
            window_pct: self.window_pct,
        }
    }
}

/// Odd multiplier of the mixing steps (2^64 / golden ratio).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// One multiply-xor step: folds `word` into `h`. For a fixed `h` the step
/// is a bijection of `word` (an odd multiply, then an xor-shift), so two
/// keys that differ in one folded word always hash apart.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    let x = (h ^ word).wrapping_mul(MIX);
    x ^ (x >> 32)
}

/// `(variant, payload)` of an architecture, packed as `variant << 32 |
/// payload`. The match is exhaustive, so a new variant cannot compile
/// without a code of its own.
fn arch_code(arch: Arch) -> u64 {
    let (variant, payload): (u64, u32) = match arch {
        Arch::Baseline => (0, 0),
        Arch::StaticLimit(l) => (1, l),
        Arch::Pcal => (2, 0),
        Arch::Cerf => (3, 0),
        Arch::Linebacker => (4, 0),
        Arch::LinebackerAssoc(a) => (5, a),
        Arch::VictimCaching => (6, 0),
        Arch::Svc => (7, 0),
        Arch::PcalCerf => (8, 0),
        Arch::PcalSvc => (9, 0),
        Arch::BaselineSvc => (10, 0),
        Arch::CacheExt => (11, 0),
        Arch::BestSwlCacheExt(l) => (12, l),
        Arch::LbCacheExt => (13, 0),
        Arch::LbThreshold(t) => (14, t),
        Arch::LbIpcBound(b) => (15, b),
    };
    variant << 32 | payload as u64
}

impl Hash for RunKey {
    /// Writes one `u64`: the app's bytes folded 8 at a time, then the
    /// architecture code with the option and flag bits above it, then the
    /// two `u32` overrides, then the L1 override. The destructuring names
    /// every field, so a new one cannot compile unhashed.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let RunKey { app, arch, l1_override, detailed, partitions, window_pct } = *self;
        let bytes = app.as_bytes();
        let mut h = bytes.len() as u64;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word: [u8; 8] = word.try_into().expect("chunks_exact(8) yields 8 bytes");
            h = mix(h, u64::from_le_bytes(word));
        }
        // The short tail (an app abbreviation's only word) is gathered
        // byte by byte: a variable-length copy into a buffer costs a
        // `memcpy` call, as much as the rest of the hash.
        let tail = words.remainder();
        if !tail.is_empty() {
            h = mix(h, tail.iter().rev().fold(0, |w, &b| w << 8 | b as u64));
        }
        let flags = detailed as u64
            | (l1_override.is_some() as u64) << 1
            | (partitions.is_some() as u64) << 2
            | (window_pct.is_some() as u64) << 3;
        h = mix(h, arch_code(arch) | flags << 40);
        h = mix(h, (partitions.unwrap_or(0) as u64) << 32 | window_pct.unwrap_or(0) as u64);
        h = mix(h, l1_override.unwrap_or(0));
        state.write_u64(h);
    }
}

impl std::fmt::Display for RunKey {
    /// Stable display form for logs: `GA/LB`, `GA/Baseline+l1=16K`,
    /// `GA/Baseline+detailed`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.app, self.arch.label())?;
        if let Some(l1) = self.l1_override {
            if l1 % 1024 == 0 {
                write!(f, "+l1={}K", l1 / 1024)?;
            } else {
                write!(f, "+l1={l1}B")?;
            }
        }
        if self.detailed {
            write!(f, "+detailed")?;
        }
        if let Some(p) = self.partitions {
            write!(f, "+p={p}")?;
        }
        if let Some(w) = self.window_pct {
            write!(f, "+win={w}%")?;
        }
        Ok(())
    }
}

/// The architecture-side specification of a run: fully determines the
/// configuration transform and the policy factory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchSpec {
    /// Architecture under evaluation.
    pub arch: Arch,
    /// Optional L1 size override in bytes.
    pub l1_override: Option<u64>,
    /// Detailed per-load statistics.
    pub detailed: bool,
    /// Optional memory-partition count override.
    pub partitions: Option<u32>,
    /// Optional monitoring-window length override (% of the scale window).
    pub window_pct: Option<u32>,
}

impl ArchSpec {
    /// Builds the final [`GpuConfig`] for this spec from the scale's base
    /// configuration. Applies, in order: the L1 override, the
    /// architecture's own transform (CacheExt enlargements), and the
    /// detailed-statistics window rules (Figures 2/3 use the paper's
    /// 50 k-cycle windows regardless of scale, so reuse distances are
    /// observable).
    pub fn config(&self, base: &GpuConfig, app: &AppSpec) -> GpuConfig {
        let kernel = app.kernel(base.n_sms);
        self.config_for_kernel(base, &kernel)
    }

    /// [`ArchSpec::config`] against an explicit kernel spec. The trace-replay
    /// path resolves the architecture transform from the trace's kernel stub
    /// rather than instantiating an [`AppSpec`].
    pub fn config_for_kernel(
        &self,
        base: &GpuConfig,
        kernel: &gpu_sim::kernel::KernelSpec,
    ) -> GpuConfig {
        let mut cfg = base.clone();
        if let Some(l1) = self.l1_override {
            cfg = cfg.with_l1_size(l1);
        }
        cfg = self.arch.transform_config_with(&cfg, kernel);
        if let Some(p) = self.partitions {
            cfg = cfg.with_mem_partitions(p);
        }
        if let Some(pct) = self.window_pct {
            let w = (cfg.window_cycles as f64 * (pct as f64 / 100.0)) as u64;
            let max = cfg.max_cycles;
            cfg = cfg.with_windows(w.max(1_000), max);
        }
        cfg.detailed_load_stats = self.detailed;
        if self.detailed {
            let max = cfg.max_cycles.max(250_000);
            cfg = cfg.with_windows(50_000, max);
        }
        cfg
    }

    /// The policy factory for this spec.
    pub fn factory(&self) -> Box<PolicyFactory<'static>> {
        self.arch.factory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, BuildHasherDefault};

    use gpu_sim::fastmap::FxHasher64;
    use testkit::Rng;

    /// The key's hash as the engine's memo sees it. One Fx step of one
    /// word is an odd multiply, a bijection, so distinct values here mean
    /// distinct hash words.
    fn hash_of(key: &RunKey) -> u64 {
        BuildHasherDefault::<FxHasher64>::default().hash_one(key)
    }

    /// A `trace:` name longer than 8 bytes, so it folds over several words.
    fn trace_name(rng: &mut Rng) -> &'static str {
        let len = rng.range_usize(3, 24);
        let name: String = (0..len).map(|_| (b'a' + rng.range_u32(0, 26) as u8) as char).collect();
        Box::leak(format!("trace:{name}").into_boxed_str())
    }

    fn random_app(rng: &mut Rng) -> &'static str {
        if rng.bool() {
            rng.pick(workloads::all_apps()).abbrev
        } else {
            trace_name(rng)
        }
    }

    /// Every variant, payload-carrying ones with a random payload.
    fn random_arch(rng: &mut Rng) -> Arch {
        let p = rng.u64() as u32;
        match rng.range_u32(0, 16) {
            0 => Arch::Baseline,
            1 => Arch::StaticLimit(p),
            2 => Arch::Pcal,
            3 => Arch::Cerf,
            4 => Arch::Linebacker,
            5 => Arch::LinebackerAssoc(p),
            6 => Arch::VictimCaching,
            7 => Arch::Svc,
            8 => Arch::PcalCerf,
            9 => Arch::PcalSvc,
            10 => Arch::BaselineSvc,
            11 => Arch::CacheExt,
            12 => Arch::BestSwlCacheExt(p),
            13 => Arch::LbCacheExt,
            14 => Arch::LbThreshold(p),
            _ => Arch::LbIpcBound(p),
        }
    }

    fn random_opt_u32(rng: &mut Rng) -> Option<u32> {
        rng.bool().then(|| rng.u64() as u32)
    }

    fn random_key(rng: &mut Rng) -> RunKey {
        RunKey {
            app: random_app(rng),
            arch: random_arch(rng),
            l1_override: rng.bool().then(|| rng.u64()),
            detailed: rng.bool(),
            partitions: random_opt_u32(rng),
            window_pct: random_opt_u32(rng),
        }
    }

    #[test]
    fn hash_follows_equality_and_every_field() {
        testkit::check("runkey_hash", |rng| {
            let key = random_key(rng);
            // A copy, and an equal key whose app string lives elsewhere.
            let copy = key;
            let moved: &'static str = Box::leak(key.app.to_string().into_boxed_str());
            let relocated = RunKey { app: moved, ..key };
            assert_eq!(hash_of(&copy), hash_of(&key));
            assert_eq!(relocated, key);
            assert_eq!(hash_of(&relocated), hash_of(&key), "{key}");

            // Changing any one field changes the key and its hash.
            let mut changed = Vec::new();
            let mut other = key;
            while other.app == key.app {
                other.app = random_app(rng);
            }
            changed.push(other);
            let mut other = key;
            while other.arch == key.arch {
                other.arch = random_arch(rng);
            }
            changed.push(other);
            let mut other = key;
            while other.l1_override == key.l1_override {
                other.l1_override = rng.bool().then(|| rng.u64());
            }
            changed.push(other);
            changed.push(RunKey { detailed: !key.detailed, ..key });
            let mut other = key;
            while other.partitions == key.partitions {
                other.partitions = random_opt_u32(rng);
            }
            changed.push(other);
            let mut other = key;
            while other.window_pct == key.window_pct {
                other.window_pct = random_opt_u32(rng);
            }
            changed.push(other);
            for other in changed {
                assert_ne!(other, key);
                assert_ne!(hash_of(&other), hash_of(&key), "{key} and {other} hash alike");
            }
        });
    }

    #[test]
    fn payload_and_override_bits_stay_apart() {
        // Equal numbers in different fields, and `Some(0)` against `None`,
        // must not cancel out in the packed words.
        let base = RunKey::new("GA", Arch::Baseline);
        let keys = [
            base,
            RunKey::new("GA", Arch::StaticLimit(0)),
            RunKey::new("GA", Arch::StaticLimit(4)),
            RunKey::new("GA", Arch::LinebackerAssoc(4)),
            base.with_l1(0),
            base.with_l1(4),
            base.with_partitions(0),
            base.with_partitions(4),
            RunKey { window_pct: Some(0), ..base },
            base.with_window_pct(4),
            base.with_detailed(),
            RunKey::new("GA\0", Arch::Baseline),
        ];
        let hashes: HashSet<u64> = keys.iter().map(hash_of).collect();
        assert_eq!(hashes.len(), keys.len());
    }

    #[test]
    fn distinct_configs_never_alias() {
        // The old string key round-tripped `Option<u64>` and `bool` through
        // Debug formatting; the typed key must keep every distinct
        // configuration distinct. Enumerate a dense cross-product and
        // assert full injectivity under Hash + Eq.
        let apps = ["GA", "GE", "S2"];
        let archs = [
            Arch::Baseline,
            Arch::StaticLimit(1),
            Arch::StaticLimit(16),
            Arch::Linebacker,
            Arch::LinebackerAssoc(16),
            Arch::Cerf,
        ];
        let l1s = [None, Some(16 * 1024), Some(16384 + 1), Some(192 * 1024)];
        let mut seen: HashSet<RunKey> = HashSet::new();
        let mut n = 0;
        for app in apps {
            for arch in archs {
                for l1 in l1s {
                    for detailed in [false, true] {
                        for partitions in [None, Some(2)] {
                            for window_pct in [None, Some(50)] {
                                let key = RunKey {
                                    app,
                                    arch,
                                    l1_override: l1,
                                    detailed,
                                    partitions,
                                    window_pct,
                                };
                                assert!(seen.insert(key), "key aliased: {key}");
                                n += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), n);
    }

    #[test]
    fn numeric_arch_parameters_do_not_collide() {
        // StaticLimit(12) vs LinebackerAssoc(12) vs a 12-byte L1 override:
        // structurally different fields must produce different keys even
        // when the embedded numbers agree.
        let a = RunKey::new("GA", Arch::StaticLimit(12));
        let b = RunKey::new("GA", Arch::LinebackerAssoc(12));
        let c = RunKey::new("GA", Arch::Baseline).with_l1(12);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn builders_set_fields() {
        let k = RunKey::new("BI", Arch::Cerf).with_l1(96 * 1024).with_detailed();
        assert_eq!(k.app, "BI");
        assert_eq!(k.l1_override, Some(96 * 1024));
        assert!(k.detailed);
        assert_eq!(k.spec().arch, Arch::Cerf);
    }

    #[test]
    fn display_is_stable_and_injective_for_common_keys() {
        let keys = [
            RunKey::new("GA", Arch::Baseline),
            RunKey::new("GA", Arch::Baseline).with_l1(16 * 1024),
            RunKey::new("GA", Arch::Baseline).with_detailed(),
            RunKey::new("GA", Arch::Linebacker),
        ];
        let shown: HashSet<String> = keys.iter().map(|k| k.to_string()).collect();
        assert_eq!(shown.len(), keys.len());
        assert_eq!(keys[0].to_string(), "GA/Baseline");
        assert_eq!(keys[1].to_string(), "GA/Baseline+l1=16K");
        assert_eq!(keys[2].to_string(), "GA/Baseline+detailed");
    }

    #[test]
    fn partition_override_reaches_config_and_display() {
        let base = crate::scale::Scale::Quick.config();
        let app = workloads::app("GA").unwrap();
        let key = RunKey::new("GA", Arch::Baseline).with_partitions(4);
        assert_eq!(key.to_string(), "GA/Baseline+p=4");
        assert_eq!(key.spec().config(&base, &app).n_mem_partitions, 4);
        // Default keys stay exactly as they always displayed (memo keys and
        // trace filenames must not change for pre-partition runs).
        let plain = RunKey::new("GA", Arch::Baseline);
        assert_eq!(plain.to_string(), "GA/Baseline");
        assert_eq!(plain.spec().config(&base, &app).n_mem_partitions, 1);
    }

    #[test]
    fn window_override_reaches_config_and_identity_point_collapses() {
        let base = crate::scale::Scale::Quick.config();
        let app = workloads::app("GA").unwrap();
        let half = RunKey::new("GA", Arch::Linebacker).with_window_pct(50);
        assert_eq!(half.to_string(), "GA/LB+win=50%");
        let cfg = half.spec().config(&base, &app);
        assert_eq!(cfg.window_cycles, ((base.window_cycles as f64 * 0.5) as u64).max(1_000));
        assert_eq!(cfg.max_cycles, base.max_cycles);
        // 100% is the identity: it must collapse to the plain key so the
        // memo shares the run with every figure that uses the base window.
        let ident = RunKey::new("GA", Arch::Linebacker).with_window_pct(100);
        assert_eq!(ident, RunKey::new("GA", Arch::Linebacker));
        assert_eq!(ident.to_string(), "GA/LB");
    }

    #[test]
    fn spec_config_applies_l1_and_detailed_windows() {
        let base = crate::scale::Scale::Quick.config();
        let app = workloads::app("GA").unwrap();
        let spec = ArchSpec {
            arch: Arch::Baseline,
            l1_override: Some(16 * 1024),
            detailed: false,
            partitions: None,
            window_pct: None,
        };
        let cfg = spec.config(&base, &app);
        assert_eq!(cfg.l1.size_bytes, 16 * 1024);
        assert!(!cfg.detailed_load_stats);

        let det = ArchSpec {
            arch: Arch::Baseline,
            l1_override: None,
            detailed: true,
            partitions: None,
            window_pct: None,
        };
        let cfg = det.config(&base, &app);
        assert!(cfg.detailed_load_stats);
        assert_eq!(cfg.window_cycles, 50_000);
        assert!(cfg.max_cycles >= 250_000);
    }
}

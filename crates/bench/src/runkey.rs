//! Typed run identity: the memo/planning key of the experiment harness.
//!
//! A [`RunKey`] names one simulation — `(app, architecture, L1 override,
//! detailed flag, partition override, window override)` — and an
//! [`ArchSpec`] turns that identity into the exact [`GpuConfig`] transform
//! and policy factory the run uses. The key is a plain `Hash + Eq` value
//! type, so two distinct configurations can never alias (the previous
//! string-formatted key could only promise this informally), and plans for
//! whole figure suites are just `Vec<RunKey>`.
//!
//! The harness hashes every planned key at least twice (plan dedupe, then
//! the memo) and moves it through every plan vector, so a key is 32 bytes:
//! the app, the architecture and one word holding the four overrides. Its
//! `Hash` writes one pre-mixed `u64` instead of the dozen field writes a
//! derive would feed the hasher.

use std::hash::{Hash, Hasher};

use gpu_sim::config::GpuConfig;
use gpu_sim::policy::PolicyFactory;
use workloads::AppSpec;

use crate::arch::Arch;

/// Identity of one simulation run within a [`crate::Runner`].
///
/// Equality is structural: every field that influences the simulation's
/// configuration participates, so collisions are unrepresentable. The hash
/// covers every field too (see the `Hash` impl). The four overrides share
/// one private word; read them with [`RunKey::l1_override`],
/// [`RunKey::detailed`], [`RunKey::partitions`] and [`RunKey::window_pct`],
/// and set them with the `with_*` builders, whose parameter types hold
/// exactly the values the word can store.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct RunKey {
    /// Application abbreviation (the paper's two-letter code, e.g. `"S2"`).
    pub app: &'static str,
    /// Architecture under evaluation.
    pub arch: Arch,
    /// The overrides, laid out by `L1`, `WINDOW`, `PARTS` and `DETAILED`.
    overrides: u64,
}

/// One optional override in [`RunKey`]'s packed word: a `width`-bit
/// payload at `shift`, and a presence bit of its own, so `Some(0)` stays
/// distinct from `None`.
struct Field {
    shift: u32,
    width: u32,
    set: u64,
}

impl Field {
    /// The word shifted down to the payload, if present; the accessors'
    /// casts to the payload's type drop the bits above it.
    fn get(&self, word: u64) -> Option<u64> {
        (word & self.set != 0).then_some(word >> self.shift)
    }

    /// `word` with this field replaced by `value`.
    fn put(&self, word: u64, value: Option<u64>) -> u64 {
        let cleared = word & !(self.set | ((1 << self.width) - 1) << self.shift);
        value.map_or(cleared, |v| cleared | self.set | v << self.shift)
    }
}

/// L1 size override in bytes (Figure 14 / Table 2 sweeps).
const L1: Field = Field { shift: 0, width: u32::BITS, set: 1 << 56 };
/// Monitoring-window override in percent of the scale's window.
const WINDOW: Field = Field { shift: 32, width: u16::BITS, set: 1 << 57 };
/// Memory-partition count override.
const PARTS: Field = Field { shift: 48, width: u8::BITS, set: 1 << 58 };
/// Detailed per-load statistics (Figures 2/3).
const DETAILED: u64 = 1 << 59;

impl RunKey {
    /// A plain run of `app` under `arch` on the scale's base config.
    pub fn new(app: &'static str, arch: Arch) -> Self {
        RunKey { app, arch, overrides: 0 }
    }

    /// A plain run keyed by an [`AppSpec`].
    pub fn for_app(app: &AppSpec, arch: Arch) -> Self {
        Self::new(app.abbrev, arch)
    }

    /// Overrides the L1 size (bytes).
    pub fn with_l1(mut self, bytes: u32) -> Self {
        self.overrides = L1.put(self.overrides, Some(bytes.into()));
        self
    }

    /// Enables detailed per-load statistics (forces the paper's 50 k-cycle
    /// window definition).
    pub fn with_detailed(mut self) -> Self {
        self.overrides |= DETAILED;
        self
    }

    /// Overrides the memory-partition count (power of two). Part of the
    /// key so memoization can never alias runs across partition counts.
    pub fn with_partitions(mut self, n: u8) -> Self {
        self.overrides = PARTS.put(self.overrides, Some(n.into()));
        self
    }

    /// Overrides the monitoring-window length as a percentage of the
    /// scale's window. 100% is the identity transform and deliberately
    /// collapses to the plain key, so the ablation sweep's centre point
    /// memo-shares with the rest of the suite instead of re-simulating.
    pub fn with_window_pct(mut self, pct: u16) -> Self {
        self.overrides = WINDOW.put(self.overrides, (pct != 100).then_some(pct.into()));
        self
    }

    /// The L1 size override in bytes, if any.
    pub fn l1_override(&self) -> Option<u32> {
        L1.get(self.overrides).map(|v| v as u32)
    }

    /// Whether the run collects detailed per-load statistics.
    pub fn detailed(&self) -> bool {
        self.overrides & DETAILED != 0
    }

    /// The memory-partition count override (`None` = the scale's base
    /// config, i.e. one partition).
    pub fn partitions(&self) -> Option<u8> {
        PARTS.get(self.overrides).map(|v| v as u8)
    }

    /// The monitoring-window override in percent of the scale's window
    /// (`None` = the scale's window).
    pub fn window_pct(&self) -> Option<u16> {
        WINDOW.get(self.overrides).map(|v| v as u16)
    }

    /// The architecture specification part of the key (everything except
    /// the application), with the overrides unpacked.
    pub fn spec(&self) -> ArchSpec {
        ArchSpec {
            arch: self.arch,
            l1_override: self.l1_override().map(u64::from),
            detailed: self.detailed(),
            partitions: self.partitions().map(u32::from),
            window_pct: self.window_pct().map(u32::from),
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
    /// architecture code, then the packed overrides word. The
    /// destructuring names every field, so a new one cannot compile
    /// unhashed.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let RunKey { app, arch, overrides } = *self;
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
        h = mix(h, arch_code(arch));
        h = mix(h, overrides);
        state.write_u64(h);
    }
}

impl std::fmt::Debug for RunKey {
    /// The key with its overrides unpacked, as a derive over separate
    /// fields would print it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunKey")
            .field("app", &self.app)
            .field("arch", &self.arch)
            .field("l1_override", &self.l1_override())
            .field("detailed", &self.detailed())
            .field("partitions", &self.partitions())
            .field("window_pct", &self.window_pct())
            .finish()
    }
}

impl std::fmt::Display for RunKey {
    /// Stable display form for logs: `GA/LB`, `GA/Baseline+l1=16K`,
    /// `GA/Baseline+detailed`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.app, self.arch.label())?;
        if let Some(l1) = self.l1_override() {
            if l1 % 1024 == 0 {
                write!(f, "+l1={}K", l1 / 1024)?;
            } else {
                write!(f, "+l1={l1}B")?;
            }
        }
        if self.detailed() {
            write!(f, "+detailed")?;
        }
        if let Some(p) = self.partitions() {
            write!(f, "+p={p}")?;
        }
        if let Some(w) = self.window_pct() {
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

    /// A key's four overrides, unpacked: L1 bytes, detailed flag,
    /// partition count and window percentage.
    type Overrides = (Option<u32>, bool, Option<u8>, Option<u16>);

    /// A value of an override of `max`'s type, from the whole domain: zero
    /// and `max` often, anything in between otherwise.
    fn random_payload(rng: &mut Rng, max: u64) -> u64 {
        match rng.range_u32(0, 4) {
            0 => 0,
            1 => max,
            _ => rng.u64() % (max + 1),
        }
    }

    fn random_l1(rng: &mut Rng) -> Option<u32> {
        rng.bool().then(|| random_payload(rng, u32::MAX.into()) as u32)
    }

    fn random_partitions(rng: &mut Rng) -> Option<u8> {
        rng.bool().then(|| random_payload(rng, u8::MAX.into()) as u8)
    }

    fn random_window(rng: &mut Rng) -> Option<u16> {
        rng.bool().then(|| random_payload(rng, u16::MAX.into()) as u16)
    }

    fn random_overrides(rng: &mut Rng) -> Overrides {
        (random_l1(rng), rng.bool(), random_partitions(rng), random_window(rng))
    }

    /// `key` with `overrides` applied by the builders.
    fn apply(mut key: RunKey, overrides: Overrides) -> RunKey {
        let (l1, detailed, partitions, window) = overrides;
        if let Some(bytes) = l1 {
            key = key.with_l1(bytes);
        }
        if detailed {
            key = key.with_detailed();
        }
        if let Some(n) = partitions {
            key = key.with_partitions(n);
        }
        if let Some(pct) = window {
            key = key.with_window_pct(pct);
        }
        key
    }

    /// The key the builders make from `app`, `arch` and `overrides`.
    fn key_with(app: &'static str, arch: Arch, overrides: Overrides) -> RunKey {
        apply(RunKey::new(app, arch), overrides)
    }

    #[test]
    fn overrides_round_trip_over_their_whole_domains() {
        testkit::check("runkey_round_trip", |rng| {
            let arch = random_arch(rng);
            let ov @ (l1, detailed, partitions, window) = random_overrides(rng);
            let key = key_with("GA", arch, ov);
            // 100% is the identity window and collapses to `None`.
            let kept_window = window.filter(|&pct| pct != 100);
            assert_eq!(key.l1_override(), l1, "{key:?}");
            assert_eq!(key.detailed(), detailed, "{key:?}");
            assert_eq!(key.partitions(), partitions, "{key:?}");
            assert_eq!(key.window_pct(), kept_window, "{key:?}");
            let spec = key.spec();
            assert_eq!(spec.arch, arch);
            assert_eq!(spec.l1_override, l1.map(u64::from));
            assert_eq!(spec.detailed, detailed);
            assert_eq!(spec.partitions, partitions.map(u32::from));
            assert_eq!(spec.window_pct, kept_window.map(u32::from));

            // The builders commute, and a later value replaces an earlier
            // one whole, leaving the other fields alone.
            let reversed = [
                (None, false, None, window),
                (None, false, partitions, None),
                (None, detailed, None, None),
                (l1, false, None, None),
            ]
            .into_iter()
            .fold(RunKey::new("GA", arch), apply);
            assert_eq!(reversed, key);
            let noise = (
                l1.map(|_| rng.u64() as u32),
                false,
                partitions.map(|_| rng.u64() as u8),
                window.map(|_| rng.u64() as u16),
            );
            assert_eq!(apply(apply(RunKey::new("GA", arch), noise), ov), key);
        });
    }

    #[test]
    fn hash_follows_equality_and_every_field() {
        testkit::check("runkey_hash", |rng| {
            let (app, arch) = (random_app(rng), random_arch(rng));
            let ov @ (l1, detailed, partitions, window) = random_overrides(rng);
            let key = key_with(app, arch, ov);
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
            while other.l1_override() == key.l1_override() {
                other = key_with(app, arch, (random_l1(rng), detailed, partitions, window));
            }
            changed.push(other);
            changed.push(key_with(app, arch, (l1, !detailed, partitions, window)));
            let mut other = key;
            while other.partitions() == key.partitions() {
                other = key_with(app, arch, (l1, detailed, random_partitions(rng), window));
            }
            changed.push(other);
            let mut other = key;
            while other.window_pct() == key.window_pct() {
                other = key_with(app, arch, (l1, detailed, partitions, random_window(rng)));
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
        // Equal numbers in different fields, `Some(0)` against `None`, and
        // each field's largest value must not cancel out or spill into a
        // neighbour in the packed words.
        let base = RunKey::new("GA", Arch::Baseline);
        let keys = [
            base,
            RunKey::new("GA", Arch::StaticLimit(0)),
            RunKey::new("GA", Arch::StaticLimit(4)),
            RunKey::new("GA", Arch::LinebackerAssoc(4)),
            base.with_l1(0),
            base.with_l1(4),
            base.with_l1(u32::MAX),
            base.with_partitions(0),
            base.with_partitions(4),
            base.with_partitions(u8::MAX),
            base.with_window_pct(0),
            base.with_window_pct(4),
            base.with_window_pct(u16::MAX),
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
                            for window in [None, Some(50)] {
                                let key = key_with(app, arch, (l1, detailed, partitions, window));
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
        assert_eq!(k.l1_override(), Some(96 * 1024));
        assert!(k.detailed());
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

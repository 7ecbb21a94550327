//! Per-load address-stream generators.
//!
//! The paper's observation (§2.3) is that a static load's locality class is
//! stable across warps: a load is either *reused* (its working set is
//! re-accessed) or *streaming* (every access touches new data). Patterns here
//! are stateless functions of `(seed, SM, warp, load, access index)` so that
//! simulation is reproducible and warp state stays tiny.

use crate::types::{LineAddr, LoadId, SmId, LINE_BYTES};

/// Deterministic 64-bit mix (splitmix64 finalizer). Used as a stateless RNG.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Identifies one dynamic execution of a static load by one warp.
#[derive(Debug, Clone, Copy)]
pub struct AccessCtx {
    /// Global seed for the whole simulation.
    pub seed: u64,
    /// SM executing the access (per-SM data partitioning).
    pub sm: SmId,
    /// Globally unique warp number (across CTAs), for private working sets.
    pub global_warp: u64,
    /// The static load being executed.
    pub load: LoadId,
    /// Monotone per-(warp, load) access counter (the loop iteration).
    pub access_index: u64,
}

/// The memory behaviour of one static load.
///
/// All sizes are *per SM* — matching how the paper reports working sets
/// ("per-SM working set size", Figures 2 and 3).
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPattern {
    /// Cyclic sweep over a working set of `ws_bytes`. If `shared`, all warps
    /// of an SM walk the *same* region (inter-warp reuse); otherwise each
    /// warp owns a private region of that size.
    ReuseWorkingSet {
        /// Working-set size in bytes (per SM if shared, per warp otherwise).
        ws_bytes: u64,
        /// Whether all warps of the SM share the region.
        shared: bool,
    },
    /// Pure streaming: each access touches `bytes_per_access` of brand-new
    /// data, never revisited. Models >95 %-miss loads of Figure 3.
    Streaming {
        /// New bytes consumed per dynamic access (>= one line).
        bytes_per_access: u64,
    },
    /// Blocked reuse: the warp re-reads a `tile_bytes` tile `reuse` times,
    /// then moves to the next tile.
    Tiled {
        /// Tile size in bytes.
        tile_bytes: u64,
        /// Times each tile line is accessed before moving on.
        reuse: u32,
        /// Whether warps of an SM share tiles.
        shared: bool,
    },
    /// Uniform-random line within a working set (hash-based, reproducible).
    RandomInSet {
        /// Working-set size in bytes.
        ws_bytes: u64,
        /// Whether all warps of the SM share the region.
        shared: bool,
    },
    /// Memory-divergent access: the 32 lanes hit `lines_per_access` distinct
    /// random lines of a working set (exercises the coalescer).
    Divergent {
        /// Working-set size in bytes.
        ws_bytes: u64,
        /// Distinct lines produced per access (1..=32).
        lines_per_access: u32,
    },
    /// Sparse streaming: emits one fresh line every `period`-th access and
    /// nothing in between. Models result stores, which are far less frequent
    /// than input loads in typical kernels. Only meaningful for stores —
    /// loads must always access memory.
    SparseStream {
        /// Emit a line when `access_index % period == 0`.
        period: u32,
    },
}

impl AccessPattern {
    /// Convenience constructor for a shared/private cyclic-reuse pattern.
    pub fn reuse_working_set(ws_bytes: u64, shared: bool) -> Self {
        AccessPattern::ReuseWorkingSet { ws_bytes, shared }
    }

    /// Convenience constructor for a streaming pattern.
    pub fn streaming(bytes_per_access: u64) -> Self {
        AccessPattern::Streaming { bytes_per_access }
    }

    /// Is this load a streaming load by construction?
    pub fn is_streaming(&self) -> bool {
        matches!(self, AccessPattern::Streaming { .. } | AccessPattern::SparseStream { .. })
    }

    /// Nominal per-SM reused working-set footprint of this load in bytes
    /// (0 for streaming loads). `warps_per_sm` scales private patterns.
    pub fn nominal_ws_bytes(&self, warps_per_sm: u64) -> u64 {
        match *self {
            AccessPattern::ReuseWorkingSet { ws_bytes, shared } => {
                if shared {
                    ws_bytes
                } else {
                    ws_bytes * warps_per_sm
                }
            }
            AccessPattern::Streaming { .. } => 0,
            AccessPattern::Tiled { tile_bytes, shared, .. } => {
                if shared {
                    tile_bytes
                } else {
                    tile_bytes * warps_per_sm
                }
            }
            AccessPattern::RandomInSet { ws_bytes, shared } => {
                if shared {
                    ws_bytes
                } else {
                    ws_bytes * warps_per_sm
                }
            }
            AccessPattern::Divergent { ws_bytes, .. } => ws_bytes,
            AccessPattern::SparseStream { .. } => 0,
        }
    }

    /// Generates the (already coalesced) line addresses of one dynamic
    /// access, appending them to `out`: `decode` + [`LineDesc::replay`],
    /// the one mapping from a pattern to lines.
    ///
    /// The common GPU case — a fully coalesced warp access — produces exactly
    /// one line. [`AccessPattern::Divergent`] produces several, via per-lane
    /// address generation and the hardware coalescer model.
    pub fn gen_lines(&self, ctx: AccessCtx, out: &mut Vec<LineAddr>) {
        let AccessCtx { seed, sm, global_warp, load, access_index } = ctx;
        self.decode(DecodeCtx { seed, sm, global_warp, load }).replay(access_index, out);
    }

    /// Decodes this pattern's per-(warp, load) constants into a [`LineDesc`],
    /// so that [`LineDesc::replay`] applies only the `access_index`-dependent
    /// arithmetic. The SM memoizes the result per (warp slot, load); see
    /// [`LineDesc`] for the per-variant folding.
    pub fn decode(&self, d: DecodeCtx) -> LineDesc {
        let region = region_base(d.load, d.sm);
        match *self {
            AccessPattern::ReuseWorkingSet { ws_bytes, shared } => {
                let lines = ws_lines(ws_bytes);
                let base = if shared { region } else { region + private_slice(d.global_warp) };
                // Different warps start at hashed offsets of the same sweep so
                // shared working sets see inter-warp reuse without lockstep.
                let start = if shared { fast_mod(mix64(d.seed ^ d.global_warp), lines) } else { 0 };
                LineDesc::Cyclic { base, start, lines }
            }
            // Unique, never-revisited region per warp.
            AccessPattern::Streaming { bytes_per_access } => LineDesc::Stream {
                base: region + private_slice(d.global_warp),
                n: lines_per_access(bytes_per_access),
            },
            AccessPattern::Tiled { tile_bytes, reuse, shared } => {
                let tile_lines = ws_lines(tile_bytes);
                let base = if shared { region } else { region + private_slice(d.global_warp) };
                LineDesc::Tile { base, tile_lines, per_tile: tile_lines * reuse.max(1) as u64 }
            }
            AccessPattern::RandomInSet { ws_bytes, shared } => LineDesc::Hash {
                base: if shared { region } else { region + private_slice(d.global_warp) },
                lines: ws_lines(ws_bytes),
                key: d.seed ^ if shared { 0 } else { d.global_warp },
                loadbits: (d.load.0 as u64) << 32,
            },
            AccessPattern::Divergent { ws_bytes, lines_per_access } => LineDesc::Div {
                region,
                lines: ws_lines(ws_bytes),
                seed: d.seed,
                warp: d.global_warp,
                groups: lines_per_access.clamp(1, 32) as u64,
            },
            AccessPattern::SparseStream { period } => LineDesc::Sparse {
                base: region + private_slice(d.global_warp),
                period: period.max(1) as u64,
            },
        }
    }
}

/// Identifies one (warp, static-load) *decode context*: everything an
/// [`AccessCtx`] carries except the iteration-dependent `access_index`.
/// All addresses a warp's load can ever touch are a function of these four
/// fields plus the access index, which is what lets the SM memoize the
/// decoded descriptor.
#[derive(Debug, Clone, Copy)]
pub struct DecodeCtx {
    /// Global seed for the whole simulation.
    pub seed: u64,
    /// SM executing the access.
    pub sm: SmId,
    /// Globally unique warp number (across CTAs).
    pub global_warp: u64,
    /// The static load being executed.
    pub load: LoadId,
}

/// A decoded access descriptor: the per-(warp, load) constants of an
/// [`AccessPattern`] folded into closed form, so per-iteration replay
/// applies only the `access_index`-dependent offset.
///
/// The folding is exact, not approximate:
/// - arithmetic patterns (`Cyclic`, `Stream`, `Tile`, `Sparse`) pre-add
///   `region_base` + `private_slice` and pre-hash the shared-sweep start,
///   leaving pure offset math per access;
/// - `Hash` folds the index-independent XOR operands — XOR is associative
///   and commutative, so `seed ^ mix64(i ^ loadbits) ^ warp` becomes
///   `key ^ mix64(i ^ loadbits)` with `key = seed ^ warp`;
/// - `Div` necessarily re-hashes per group (the hash input mixes the access
///   index with the group id) but skips `region_base`/`ws_lines` and shares
///   the coalescer dedup rule via [`crate::coalesce::push_line_dedup`].
///
/// The root package's `decoded_replay_matches_frozen_reference` property
/// test holds `decode` + `replay` to a frozen copy of the direct
/// per-access generator this folding was derived from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LineDesc {
    /// [`AccessPattern::ReuseWorkingSet`]: cyclic sweep of `lines` lines from
    /// `base`, entered at a (pre-hashed) `start` offset.
    Cyclic {
        /// First line of the (possibly per-warp) region.
        base: u64,
        /// Hashed sweep entry offset (0 for private working sets).
        start: u64,
        /// Working-set size in lines.
        lines: u64,
    },
    /// [`AccessPattern::Streaming`]: `n` fresh lines per access.
    Stream {
        /// First line of the warp's private region.
        base: u64,
        /// Lines consumed per dynamic access.
        n: u64,
    },
    /// [`AccessPattern::Tiled`]: sweep a `tile_lines` tile, advance every
    /// `per_tile` accesses.
    Tile {
        /// First line of the (possibly per-warp) region.
        base: u64,
        /// Tile size in lines.
        tile_lines: u64,
        /// Dynamic accesses per tile (`tile_lines * reuse`).
        per_tile: u64,
    },
    /// [`AccessPattern::RandomInSet`]: hashed line within the working set.
    Hash {
        /// First line of the (possibly per-warp) region.
        base: u64,
        /// Working-set size in lines.
        lines: u64,
        /// Pre-folded outer-hash key (`seed`, XOR warp if private).
        key: u64,
        /// Pre-shifted load-id salt for the inner hash.
        loadbits: u64,
    },
    /// [`AccessPattern::Divergent`]: per-group hash + coalescer dedup.
    Div {
        /// First line of the shared region.
        region: u64,
        /// Working-set size in lines.
        lines: u64,
        /// Global seed (outer-hash key).
        seed: u64,
        /// Global warp number (inner-hash salt).
        warp: u64,
        /// Address groups per access (1..=32).
        groups: u64,
    },
    /// [`AccessPattern::SparseStream`]: one fresh line every `period` accesses.
    Sparse {
        /// First line of the warp's private region.
        base: u64,
        /// Access period between emitted lines (>= 1).
        period: u64,
    },
}

impl LineDesc {
    /// Replays the descriptor for one dynamic access, appending its lines
    /// for `access_index` to `out`.
    #[inline]
    pub fn replay(&self, access_index: u64, out: &mut Vec<LineAddr>) {
        match *self {
            LineDesc::Cyclic { base, start, lines } => {
                out.push(LineAddr(base + fast_mod(start + access_index, lines)));
            }
            LineDesc::Stream { base, n } => {
                let first = access_index * n;
                for k in 0..n {
                    out.push(LineAddr(base + first + k));
                }
            }
            LineDesc::Tile { base, tile_lines, per_tile } => {
                let tile = fast_div(access_index, per_tile);
                let idx = fast_mod(access_index, tile_lines);
                out.push(LineAddr(base + tile * tile_lines + idx));
            }
            LineDesc::Hash { base, lines, key, loadbits } => {
                let h = mix64(key ^ mix64(access_index ^ loadbits));
                out.push(LineAddr(base + fast_mod(h, lines)));
            }
            LineDesc::Div { region, lines, seed, warp, groups } => {
                // A warp's 32 lanes split into `groups` address groups; every
                // lane of one group hashes to the same line (the lane id only
                // picks the intra-line byte), and lanes visit the groups in
                // round-robin order. Generating one line per group in group
                // order and deduplicating against this access's lines is
                // therefore exactly the 32-lane coalescer output — without
                // materializing the per-lane address vector.
                let start = out.len();
                for group in 0..groups {
                    let h = mix64(seed ^ mix64(access_index ^ (group << 40) ^ warp));
                    let line = LineAddr(region + fast_mod(h, lines));
                    crate::coalesce::push_line_dedup(out, start, line);
                }
            }
            LineDesc::Sparse { base, period } => {
                if fast_mod(access_index, period) == 0 {
                    out.push(LineAddr(base + fast_div(access_index, period)));
                }
            }
        }
    }
}

/// First line number of the address region owned by `(load, sm)`.
///
/// Regions are disjoint by construction: bits [44..] encode the load, bits
/// [36..44) the SM, leaving 2^36 lines (8 TiB) per (load, SM) slice.
#[inline]
fn region_base(load: LoadId, sm: SmId) -> u64 {
    ((load.0 as u64 + 1) << 44) | ((sm.0 as u64) << 36)
}

/// Per-warp private sub-slice within a region: 65536 warp slices of
/// 2^20 + 1 lines each, so streaming warps never collide within a
/// simulation's footprint. The stride is deliberately *odd* (coprime with
/// the 48/192-set cache geometries): a power-of-two stride would alias every
/// warp's slice into the same few sets of the modulo-indexed caches.
#[inline]
fn private_slice(global_warp: u64) -> u64 {
    (global_warp & 0xffff) * ((1 << 20) + 1)
}

#[inline]
fn ws_lines(ws_bytes: u64) -> u64 {
    (ws_bytes / LINE_BYTES).max(1)
}

/// `x % m` with a bitmask fast path for power-of-two `m` (the common case:
/// working sets are power-of-two KB). Exact for every input; the hot loop
/// issues a load/store pattern per instruction, and a 64-bit `div` costs
/// tens of cycles where the mask costs one.
#[inline]
fn fast_mod(x: u64, m: u64) -> u64 {
    if m.is_power_of_two() {
        x & (m - 1)
    } else {
        x % m
    }
}

/// `x / d` with a shift fast path for power-of-two `d`. Exact counterpart
/// of [`fast_mod`].
#[inline]
fn fast_div(x: u64, d: u64) -> u64 {
    if d.is_power_of_two() {
        x >> d.trailing_zeros()
    } else {
        x / d
    }
}

#[inline]
fn lines_per_access(bytes: u64) -> u64 {
    (bytes / LINE_BYTES).max(1)
}

/// Coalesces per-thread byte addresses into the access's distinct line
/// addresses, preserving first-touch order — the merge a GPU's coalescing
/// unit performs across a warp's lanes. Used by the trace importer to
/// normalize external per-lane address lists into the line-granular streams
/// the replay frontend consumes; the synthetic generator produces
/// already-coalesced lines and never calls this.
pub fn coalesce_bytes(byte_addrs: &[u64], out: &mut Vec<LineAddr>) {
    out.clear();
    for &b in byte_addrs {
        let line = LineAddr(b / LINE_BYTES);
        if !out.contains(&line) {
            out.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(warp: u64, idx: u64) -> AccessCtx {
        AccessCtx { seed: 7, sm: SmId(0), global_warp: warp, load: LoadId(0), access_index: idx }
    }

    #[test]
    fn coalesce_dedups_in_first_touch_order() {
        let mut out = Vec::new();
        // Lanes touching lines 1, 0, 1, 2 coalesce to [1, 0, 2].
        coalesce_bytes(&[128, 0, 130, 300], &mut out);
        assert_eq!(out, vec![LineAddr(1), LineAddr(0), LineAddr(2)]);
    }

    fn gen(p: &AccessPattern, warp: u64, idx: u64) -> Vec<LineAddr> {
        let mut v = Vec::new();
        p.gen_lines(ctx(warp, idx), &mut v);
        v
    }

    #[test]
    fn reuse_pattern_cycles() {
        let p = AccessPattern::reuse_working_set(4 * LINE_BYTES, true);
        let a0 = gen(&p, 0, 0);
        let a4 = gen(&p, 0, 4);
        assert_eq!(a0, a4, "period must equal the working-set line count");
        let all: std::collections::HashSet<_> = (0..16).flat_map(|i| gen(&p, 0, i)).collect();
        assert_eq!(all.len(), 4, "footprint must equal the working set");
    }

    #[test]
    fn shared_reuse_overlaps_across_warps() {
        let p = AccessPattern::reuse_working_set(8 * LINE_BYTES, true);
        let w0: std::collections::HashSet<_> = (0..32).flat_map(|i| gen(&p, 0, i)).collect();
        let w1: std::collections::HashSet<_> = (0..32).flat_map(|i| gen(&p, 1, i)).collect();
        assert_eq!(w0, w1, "shared working sets must coincide across warps");
    }

    #[test]
    fn private_reuse_disjoint_across_warps() {
        let p = AccessPattern::reuse_working_set(8 * LINE_BYTES, false);
        let w0: std::collections::HashSet<_> = (0..8).flat_map(|i| gen(&p, 0, i)).collect();
        let w1: std::collections::HashSet<_> = (0..8).flat_map(|i| gen(&p, 1, i)).collect();
        assert!(w0.is_disjoint(&w1));
    }

    #[test]
    fn streaming_never_repeats() {
        let p = AccessPattern::streaming(LINE_BYTES);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            for l in gen(&p, 3, i) {
                assert!(seen.insert(l), "streaming pattern repeated {l}");
            }
        }
    }

    #[test]
    fn streaming_multi_line_access() {
        let p = AccessPattern::streaming(4 * LINE_BYTES);
        assert_eq!(gen(&p, 0, 0).len(), 4);
    }

    #[test]
    fn tiled_reuses_within_tile() {
        let p = AccessPattern::Tiled { tile_bytes: 2 * LINE_BYTES, reuse: 3, shared: true };
        // 2-line tile, reuse 3 => 6 accesses per tile; indices 0 and 2 hit the
        // same line.
        assert_eq!(gen(&p, 0, 0), gen(&p, 0, 2));
        // After 6 accesses the tile advances.
        assert_ne!(gen(&p, 0, 0), gen(&p, 0, 6));
    }

    #[test]
    fn random_in_set_stays_in_set() {
        let ws = 16 * LINE_BYTES;
        let p = AccessPattern::RandomInSet { ws_bytes: ws, shared: true };
        let base = gen(&p, 0, 0)[0].0 & !0xf;
        for i in 0..200 {
            let l = gen(&p, 0, i)[0];
            assert!(l.0 >= base && l.0 < base + 16 + 16, "line out of working set");
        }
    }

    #[test]
    fn divergent_produces_multiple_coalesced_lines() {
        let p = AccessPattern::Divergent { ws_bytes: 1 << 20, lines_per_access: 8 };
        let lines = gen(&p, 0, 0);
        assert!(lines.len() <= 8, "coalescer must merge same-line lanes");
        assert!(lines.len() > 1, "divergent access should span multiple lines");
        let set: std::collections::HashSet<_> = lines.iter().collect();
        assert_eq!(set.len(), lines.len(), "coalesced output has no duplicates");
    }

    /// The group-direct divergent generator must reproduce the reference
    /// path it replaced: hash all 32 lane addresses (lane -> group by
    /// round-robin, lane id picks the intra-line byte) and run them through
    /// the hardware coalescer model.
    #[test]
    fn divergent_matches_lane_coalescer_reference() {
        use crate::coalesce::coalesce;
        use crate::types::Address;
        for (ws_bytes, lpa) in [(1u64 << 20, 8u32), (48 * 1024, 4), (1 << 14, 32), (128, 1)] {
            let p = AccessPattern::Divergent { ws_bytes, lines_per_access: lpa };
            for (warp, idx) in [(0u64, 0u64), (3, 7), (11, 123)] {
                let c = ctx(warp, idx);
                let lines = ws_lines(ws_bytes);
                let region = region_base(c.load, c.sm);
                let groups = lpa.clamp(1, 32) as u64;
                let lanes: Vec<Address> = (0..32u64)
                    .map(|lane| {
                        let group = lane % groups;
                        let h =
                            mix64(c.seed ^ mix64(c.access_index ^ (group << 40) ^ c.global_warp));
                        let line = region + h % lines;
                        Address((line << crate::types::LINE_SHIFT) + (lane % 32) * 4)
                    })
                    .collect();
                assert_eq!(gen(&p, warp, idx), coalesce(&lanes), "ws={ws_bytes} lpa={lpa}");
            }
        }
    }

    #[test]
    fn regions_disjoint_across_loads_and_sms() {
        let a = region_base(LoadId(0), SmId(0));
        let b = region_base(LoadId(1), SmId(0));
        let c = region_base(LoadId(0), SmId(1));
        // Each (load, SM) slice spans 2^36 lines.
        assert!(b - a >= 1 << 44);
        assert_eq!(c - a, 1 << 36);
    }

    #[test]
    fn determinism() {
        let p = AccessPattern::RandomInSet { ws_bytes: 1 << 16, shared: false };
        assert_eq!(gen(&p, 5, 99), gen(&p, 5, 99));
    }

    #[test]
    fn nominal_ws_scales_private_patterns() {
        let shared = AccessPattern::reuse_working_set(1024, true);
        let private = AccessPattern::reuse_working_set(1024, false);
        assert_eq!(shared.nominal_ws_bytes(48), 1024);
        assert_eq!(private.nominal_ws_bytes(48), 48 * 1024);
        assert_eq!(AccessPattern::streaming(128).nominal_ws_bytes(48), 0);
    }
}

//! Randomized property tests over the core data structures and mechanism
//! invariants (seeded and deterministic, via the in-tree `testkit` crate).

use testkit::{check, check_n, Rng};

use gpu_sim::cache::{L1Cache, L1Lookup, MshrFile, MshrOutcome, TagArray};
use gpu_sim::coalesce::coalesce;
use gpu_sim::config::CacheConfig;
use gpu_sim::kernel::{InstKind, KernelSpec, LoadSpec, StaticInst};
use gpu_sim::pattern::{AccessCtx, AccessPattern, DecodeCtx, LineDesc};
use gpu_sim::regfile::RegFile;
use gpu_sim::replay::{KernelReader, Run, RunCheck};
use gpu_sim::types::{
    hashed_pc5, Address, CtaId, LineAddr, LoadId, MissClass, Pc, RegNum, SmId, LINE_BYTES,
};
use linebacker::{IpcMonitor, LbConfig, LoadMonitor, ThrottleDecision, Vtt};

/// The coalescer never emits more requests than lanes, never duplicates
/// a line, and covers every lane's line.
#[test]
fn coalescer_covers_all_lanes() {
    check("coalescer_covers_all_lanes", |r| {
        let addrs = r.vec(1, 32, |r| r.range_u64(0, 1 << 30));
        let lanes: Vec<Address> = addrs.iter().map(|&a| Address(a)).collect();
        let lines = coalesce(&lanes);
        assert!(lines.len() <= lanes.len());
        // No duplicates.
        let set: std::collections::HashSet<_> = lines.iter().collect();
        assert_eq!(set.len(), lines.len());
        // Coverage.
        for a in &lanes {
            assert!(lines.contains(&a.line()));
        }
    });
}

/// A tag array never holds two entries for the same line and never
/// exceeds its capacity; a fill is always observable until evicted.
#[test]
fn tag_array_no_duplicates_and_capacity() {
    check("tag_array_no_duplicates_and_capacity", |r| {
        let ops = r.vec(1, 300, |r| r.range_u64(0, 200));
        let mut t: TagArray<()> = TagArray::new(16, 4);
        for &line in &ops {
            let line = LineAddr(line);
            if t.probe(line).is_none() {
                t.fill(line, ());
            }
            assert!(t.occupancy() <= 16 * 4);
            // The just-touched line must be resident.
            assert!(t.peek(line).is_some());
        }
        // No duplicate lines resident.
        let lines: Vec<_> = t.resident_lines().collect();
        let set: std::collections::HashSet<_> = lines.iter().collect();
        assert_eq!(set.len(), lines.len());
    });
}

/// LRU: after touching line A, filling conflicting lines evicts others
/// before A (single-set array).
#[test]
fn tag_array_lru_protects_recent() {
    check("tag_array_lru_protects_recent", |r| {
        let fresh = r.range_u64(1, 100);
        let mut t: TagArray<()> = TagArray::new(1, 4);
        for i in 0..4u64 {
            t.fill(LineAddr(1000 + i), ());
        }
        t.probe(LineAddr(1000)); // protect
        let ev = t.fill(LineAddr(2000 + fresh), ()).expect("full set evicts");
        assert_ne!(ev.line, LineAddr(1000));
    });
}

/// The L1 classifies every access (hit, cold miss, capacity/conflict
/// miss) exactly as a reference that keeps each ever-filled line in a
/// `HashSet`, over random fill/access/invalidate sequences drawn from dense
/// runs, strided walks, wide trace-range addresses and one-bit twins.
#[test]
fn l1_miss_classes_match_hash_set_reference() {
    check("l1_miss_classes_match_hash_set_reference", |r| {
        // Lines come from up to five families; trace lines reach 2^57 - 1.
        let mut pool = Vec::new();
        for _ in 0..r.range_usize(1, 6) {
            let base = r.range_u64(0, 1 << 57);
            let len = r.range_u64(1, 200);
            match r.range_u32(0, 3) {
                0 => pool.extend((0..len).map(|i| (base + i) % (1 << 57))),
                1 => {
                    let stride = *r.pick(&[2u64, 48, 63, 64, 65, 4096, 1 << 20]);
                    pool.extend((0..len).map(|i| (base + i * stride) % (1 << 57)));
                }
                _ => pool.extend((0..len).map(|_| r.u64() >> 7)),
            }
        }
        // Twins one flipped bit away: a history that drops or folds any
        // bit of the line confuses a line with its twin.
        if r.bool() {
            let twins: Vec<u64> = pool.iter().map(|&l| l ^ (1 << r.range_u64(0, 57))).collect();
            pool.extend(twins);
        }
        let mut l1 = L1Cache::new(&CacheConfig::l1_default());
        let mut seen = std::collections::HashSet::new();
        let mut at = r.range_usize(0, pool.len());
        for step in 0..r.range_usize(1, 800) {
            // Half the steps stream on through the pool, half jump back.
            at = if r.bool() { (at + 1) % pool.len() } else { r.range_usize(0, pool.len()) };
            let line = LineAddr(pool[at]);
            if r.range_u32(0, 8) == 0 {
                // A store hit write-evicts the line; the history keeps it.
                l1.invalidate(line);
                continue;
            }
            let expect = if l1.contains(line) {
                L1Lookup::Hit
            } else if seen.contains(&line) {
                L1Lookup::Miss(MissClass::CapacityConflict)
            } else {
                L1Lookup::Miss(MissClass::Cold)
            };
            assert_eq!(l1.access(line, 0), expect, "step {step}, line {:#x}", line.0);
            // Most misses fill; the rest stay in flight past a later access.
            if expect != L1Lookup::Hit && r.range_u32(0, 4) != 0 {
                l1.fill(line, 0);
                seen.insert(line);
            }
        }
    });
}

/// MSHR merge invariant: all waiters allocated to a line come back on
/// completion, exactly once.
#[test]
fn mshr_waiters_conserved() {
    check("mshr_waiters_conserved", |r| {
        let waiters = r.vec(1, 64, |r| r.range_u64(0, 1000));
        let mut m = MshrFile::new(64);
        let line = LineAddr(7);
        let mut accepted = 0u64;
        for &w in &waiters {
            match m.allocate(line, w) {
                MshrOutcome::NewEntry | MshrOutcome::Merged => accepted += 1,
                MshrOutcome::Full => {}
            }
        }
        let done = m.complete(line);
        assert_eq!(done.len() as u64, accepted);
        assert!(m.complete(line).is_empty());
    });
}

/// Register-file CTA allocation is always disjoint and within bounds.
#[test]
fn regfile_allocations_disjoint() {
    check("regfile_allocations_disjoint", |r| {
        let counts = r.vec(1, 8, |r| r.range_u32(1, 300));
        let mut rf = RegFile::new(2048, 32, 32);
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            if let Some(first) = rf.allocate_cta(CtaId(i as u32), c) {
                assert!(first.0 + c <= 2048, "allocation out of bounds");
                for &(f2, c2) in &ranges {
                    let no_overlap = first.0 + c <= f2 || f2 + c2 <= first.0;
                    assert!(no_overlap, "overlapping CTA allocations");
                }
                ranges.push((first.0, c));
            }
        }
        // Space accounting is consistent.
        let s = rf.space();
        assert_eq!(s.active_used, ranges.iter().map(|&(_, c)| c).sum::<u32>());
        assert_eq!(s.active_used + s.static_unused + s.dynamic_unused, 2048);
    });
}

/// Register ownership under random allocate / back-up / restore / free
/// sequences over 32 CTA slots: after every step, each register's liveness,
/// the LRN and the space split equal a reference computed from the ranges.
#[test]
fn regfile_ownership_matches_range_reference() {
    check_n("regfile_ownership_matches_range_reference", 64, |r| {
        const REGS: u32 = 2048;
        let mut rf = RegFile::new(REGS, 32, 32);
        // Reference: per CTA slot, its (first, count, backed up).
        let mut slots: [Option<(u32, u32, bool)>; 32] = [None; 32];
        for _ in 0..r.range_usize(1, 48) {
            let slot = r.range_u32(0, 32);
            let cta = CtaId(slot);
            let entry = &mut slots[slot as usize];
            match (r.range_u32(0, 4), *entry) {
                (0, None) => {
                    let count = r.range_u32(1, 400);
                    if let Some(first) = rf.allocate_cta(cta, count) {
                        *entry = Some((first.0, count, false));
                    }
                }
                (0, Some(_)) => assert!(rf.allocate_cta(cta, 1).is_none(), "slot taken"),
                (1, Some((f, c, _))) => {
                    assert_eq!(rf.mark_backed_up(cta), Some((RegNum(f), c)));
                    *entry = Some((f, c, true));
                }
                (2, Some((f, c, _))) => {
                    assert_eq!(rf.mark_restored(cta), Some((RegNum(f), c)));
                    *entry = Some((f, c, false));
                }
                (3, Some(_)) => {
                    rf.free_cta(cta);
                    *entry = None;
                }
                _ => {}
            }
            let mut live = vec![false; REGS as usize];
            let (mut active, mut dynamic) = (0, 0);
            for &(f, c, backed_up) in slots.iter().flatten() {
                if backed_up {
                    dynamic += c;
                } else {
                    active += c;
                    for reg in f..f + c {
                        assert!(!live[reg as usize], "ranges overlap at r{reg}");
                        live[reg as usize] = true;
                    }
                }
            }
            for (reg, &l) in live.iter().enumerate() {
                assert_eq!(rf.is_live(RegNum(reg as u32)), l, "liveness of r{reg}");
            }
            let lrn = live.iter().rposition(|&l| l).map(|reg| RegNum(reg as u32));
            assert_eq!(rf.largest_active_rn(), lrn);
            let s = rf.space();
            assert_eq!((s.total, s.active_used, s.dynamic_unused), (REGS, active, dynamic));
            assert_eq!(s.active_used + s.static_unused + s.dynamic_unused, REGS);
        }
    });
}

/// Equation 2 maps every VTT slot to a unique register within RN
/// 511..2047, for every legal associativity.
#[test]
fn vtt_rn_mapping_injective() {
    for assoc in [1u32, 2, 4, 8, 16, 32] {
        let cfg = LbConfig::with_vp_assoc(assoc);
        let v = Vtt::new(&cfg);
        let mut seen = std::collections::HashSet::new();
        for vp in 0..cfg.max_vps() {
            for set in 0..cfg.vtt_sets {
                for way in 0..cfg.vp_assoc {
                    let rn = v.reg_of(vp, set, way);
                    assert!(rn.0 >= 511 && rn.0 < 2048, "rn {} out of range", rn.0);
                    assert!(seen.insert(rn), "duplicate rn {}", rn.0);
                }
            }
        }
        assert_eq!(seen.len() as u32, cfg.max_vps() * cfg.entries_per_vp());
    }
}

/// A line inserted into an active VTT is either findable or was evicted
/// by a later insertion — never silently lost while capacity remains.
#[test]
fn vtt_insert_then_lookup() {
    check("vtt_insert_then_lookup", |r| {
        let lines = r.vec(1, 100, |r| r.range_u64(0, 48));
        let mut v = Vtt::new(&LbConfig::default());
        v.set_tag_only(false);
        v.refresh_partitions(511);
        // Insert lines from distinct sets only (i * 48 + k keeps set = k).
        for (i, &k) in lines.iter().enumerate() {
            let line = LineAddr(i as u64 * 48 + k % 48);
            v.insert(line);
            assert!(v.lookup(line).is_some(), "freshly inserted line must hit");
        }
    });
}

/// The Load Monitor conserves accesses: hits + misses recorded equals
/// total records while monitoring.
#[test]
fn load_monitor_conserves_accesses() {
    check("load_monitor_conserves_accesses", |r| {
        let events = r.vec(1, 500, |r| (r.range_u32(0, 64), r.bool()));
        let mut lm = LoadMonitor::new(32, 0.2);
        for &(pc, hit) in &events {
            lm.record(Pc(pc * 8), hit);
        }
        assert_eq!(lm.accesses(), events.len() as u64);
    });
}

/// The hashed PC always fits in 5 bits.
#[test]
fn hashed_pc_is_5_bits() {
    check("hashed_pc_is_5_bits", |r| {
        let pc = r.range_u64(0, u32::MAX as u64 + 1) as u32;
        assert!(hashed_pc5(Pc(pc)) < 32);
    });
}

/// The IPC monitor's decisions respect the bounds exactly.
#[test]
fn ipc_monitor_decisions_respect_bounds() {
    check("ipc_monitor_decisions_respect_bounds", |r| {
        let prev = r.range_f64(0.1, 100.0);
        let cur = r.range_f64(0.1, 100.0);
        let mut m = IpcMonitor::new(0.10, -0.10);
        m.end_window(prev);
        let d = m.end_window(cur);
        let var = (cur - prev) / prev;
        let expect = if var > 0.10 {
            ThrottleDecision::ThrottleOne
        } else if var < -0.10 {
            ThrottleDecision::ActivateOne
        } else {
            ThrottleDecision::Hold
        };
        assert_eq!(d, expect);
    });
}

/// `decode(..).replay(i, out)` is the simulator's only mapping from a
/// load's pattern to the lines of one access. It must push exactly the
/// lines of [`frozen::gen_lines`], the direct per-access generator it was
/// folded from: over a fixed grid of every variant, and over random
/// patterns with shared and private, power-of-two and odd sizes, zero
/// `reuse` and `period`, zero and more than 32 divergent groups, warps past
/// the 65,536 private slices and indices up to 2^40. Each descriptor is
/// decoded once and replayed for several indices, as the SM's memo does.
#[test]
fn decoded_replay_matches_frozen_reference() {
    let grid = [
        AccessPattern::ReuseWorkingSet { ws_bytes: 16 * LINE_BYTES, shared: false },
        AccessPattern::ReuseWorkingSet { ws_bytes: 16 * 1024, shared: true },
        AccessPattern::ReuseWorkingSet { ws_bytes: 3 * LINE_BYTES, shared: true },
        AccessPattern::Streaming { bytes_per_access: LINE_BYTES },
        AccessPattern::Streaming { bytes_per_access: 4 * LINE_BYTES },
        AccessPattern::Tiled { tile_bytes: 2 * LINE_BYTES, reuse: 3, shared: true },
        AccessPattern::Tiled { tile_bytes: 8 * LINE_BYTES, reuse: 1, shared: false },
        AccessPattern::RandomInSet { ws_bytes: 1 << 16, shared: true },
        AccessPattern::RandomInSet { ws_bytes: 48 * 1024, shared: false },
        AccessPattern::Divergent { ws_bytes: 1 << 14, lines_per_access: 8 },
        AccessPattern::Divergent { ws_bytes: 128, lines_per_access: 32 },
        AccessPattern::SparseStream { period: 6 },
        AccessPattern::SparseStream { period: 1 },
    ];
    for p in &grid {
        for (seed, sm, load) in [(7u64, 0u32, 0u32), (0x5eed, 3, 2)] {
            for warp in [0u64, 1, 13, 65_537] {
                let d = DecodeCtx { seed, sm: SmId(sm), global_warp: warp, load: LoadId(load) };
                let desc = p.decode(d);
                for idx in (0..40).chain([997, 12_345, 1 << 40]) {
                    assert_replay_matches(p, desc, d, idx, false);
                }
            }
        }
    }
    check_n("decoded_replay_matches_frozen_reference", 1024, |r| {
        let p = any_pattern(r);
        let d = DecodeCtx {
            seed: r.u64(),
            sm: SmId(r.range_u32(0, 1 << 16)),
            global_warp: match r.range_u32(0, 3) {
                0 => r.range_u64(0, 64),
                1 => r.range_u64(65_500, 65_600),
                _ => r.u64(),
            },
            load: LoadId(r.range_u32(0, 1 << 16)),
        };
        let desc = p.decode(d);
        let first = match r.range_u32(0, 3) {
            0 => 0,
            1 => r.range_u64(0, 1 << 20),
            _ => r.range_u64(0, (1 << 40) - 6),
        };
        for idx in first..first + 7 {
            assert_replay_matches(&p, desc, d, idx, r.bool());
        }
    });
}

/// Replays `desc` for access `idx` and compares it with the frozen
/// generator. Both sides append to a buffer that already holds one line —
/// with `own_line`, the first line this access makes — so the coalescer's
/// dedup must look only at the current access.
fn assert_replay_matches(
    p: &AccessPattern,
    desc: LineDesc,
    d: DecodeCtx,
    idx: u64,
    own_line: bool,
) {
    let ctx = AccessCtx {
        seed: d.seed,
        sm: d.sm,
        global_warp: d.global_warp,
        load: d.load,
        access_index: idx,
    };
    let mut fresh = Vec::new();
    frozen::gen_lines(p, ctx, &mut fresh);
    let sentinel = match fresh.first() {
        Some(&line) if own_line => line,
        _ => LineAddr(0xdead),
    };
    let mut reference = vec![sentinel];
    frozen::gen_lines(p, ctx, &mut reference);
    let mut replayed = vec![sentinel];
    desc.replay(idx, &mut replayed);
    assert_eq!(replayed, reference, "{p:?} {ctx:?}");
}

/// Any pattern variant, including the degenerate parameters the
/// simulator clamps (zero `reuse`, `period` and group count, more than 32
/// groups, sizes below one line).
fn any_pattern(r: &mut Rng) -> AccessPattern {
    let shared = r.bool();
    match r.range_u32(0, 6) {
        0 => AccessPattern::ReuseWorkingSet { ws_bytes: any_size(r), shared },
        1 => AccessPattern::Streaming { bytes_per_access: r.range_u64(0, 64 * LINE_BYTES) },
        2 => AccessPattern::Tiled {
            tile_bytes: any_size(r),
            reuse: *r.pick(&[0, 1, 2, 3, 7, 1000, u32::MAX]),
            shared,
        },
        3 => AccessPattern::RandomInSet { ws_bytes: any_size(r), shared },
        4 => {
            AccessPattern::Divergent { ws_bytes: any_size(r), lines_per_access: r.range_u32(0, 41) }
        }
        _ => AccessPattern::SparseStream { period: *r.pick(&[0, 1, 2, 3, 6, 64, 1000, u32::MAX]) },
    }
}

/// A power-of-two size, an odd number of lines, or any byte count below
/// 4 MB (0 included).
fn any_size(r: &mut Rng) -> u64 {
    match r.range_u32(0, 3) {
        0 => 1 << r.range_u32(0, 25),
        1 => (2 * r.range_u64(0, 1 << 12) + 1) * LINE_BYTES,
        _ => r.range_u64(0, 1 << 22),
    }
}

/// The direct per-access line generator that `AccessPattern::decode` and
/// `LineDesc::replay` were folded from, frozen with its own copies of every
/// helper so that no change to `gpu_sim::pattern` moves both sides of
/// [`decoded_replay_matches_frozen_reference`] at once.
mod frozen {
    use gpu_sim::pattern::{AccessCtx, AccessPattern};
    use gpu_sim::types::{LineAddr, LoadId, SmId, LINE_BYTES};

    pub fn gen_lines(p: &AccessPattern, ctx: AccessCtx, out: &mut Vec<LineAddr>) {
        let region = region_base(ctx.load, ctx.sm);
        match *p {
            AccessPattern::ReuseWorkingSet { ws_bytes, shared } => {
                let lines = ws_lines(ws_bytes);
                let base = if shared { region } else { region + private_slice(ctx.global_warp) };
                let start =
                    if shared { fast_mod(mix64(ctx.seed ^ ctx.global_warp), lines) } else { 0 };
                let idx = fast_mod(start + ctx.access_index, lines);
                out.push(LineAddr(base + idx));
            }
            AccessPattern::Streaming { bytes_per_access } => {
                let n = lines_per_access(bytes_per_access);
                let base = region + private_slice(ctx.global_warp);
                let first = ctx.access_index * n;
                for k in 0..n {
                    out.push(LineAddr(base + first + k));
                }
            }
            AccessPattern::Tiled { tile_bytes, reuse, shared } => {
                let tile_lines = ws_lines(tile_bytes);
                let reuse = reuse.max(1) as u64;
                let accesses_per_tile = tile_lines * reuse;
                let tile = fast_div(ctx.access_index, accesses_per_tile);
                let idx = fast_mod(ctx.access_index, tile_lines);
                let base = if shared { region } else { region + private_slice(ctx.global_warp) };
                out.push(LineAddr(base + tile * tile_lines + idx));
            }
            AccessPattern::RandomInSet { ws_bytes, shared } => {
                let lines = ws_lines(ws_bytes);
                let base = if shared { region } else { region + private_slice(ctx.global_warp) };
                let h = mix64(
                    ctx.seed
                        ^ mix64(ctx.access_index ^ ((ctx.load.0 as u64) << 32))
                        ^ if shared { 0 } else { ctx.global_warp },
                );
                out.push(LineAddr(base + fast_mod(h, lines)));
            }
            AccessPattern::Divergent { ws_bytes, lines_per_access } => {
                let lines = ws_lines(ws_bytes);
                let groups = lines_per_access.clamp(1, 32) as u64;
                let start = out.len();
                for group in 0..groups {
                    let h =
                        mix64(ctx.seed ^ mix64(ctx.access_index ^ (group << 40) ^ ctx.global_warp));
                    let line = LineAddr(region + fast_mod(h, lines));
                    push_line_dedup(out, start, line);
                }
            }
            AccessPattern::SparseStream { period } => {
                let period = period.max(1) as u64;
                if fast_mod(ctx.access_index, period) == 0 {
                    let base = region + private_slice(ctx.global_warp);
                    out.push(LineAddr(base + fast_div(ctx.access_index, period)));
                }
            }
        }
    }

    fn mix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn region_base(load: LoadId, sm: SmId) -> u64 {
        ((load.0 as u64 + 1) << 44) | ((sm.0 as u64) << 36)
    }

    fn private_slice(global_warp: u64) -> u64 {
        (global_warp & 0xffff) * ((1 << 20) + 1)
    }

    fn ws_lines(ws_bytes: u64) -> u64 {
        (ws_bytes / LINE_BYTES).max(1)
    }

    fn lines_per_access(bytes: u64) -> u64 {
        (bytes / LINE_BYTES).max(1)
    }

    fn fast_mod(x: u64, m: u64) -> u64 {
        if m.is_power_of_two() {
            x & (m - 1)
        } else {
            x % m
        }
    }

    fn fast_div(x: u64, d: u64) -> u64 {
        if d.is_power_of_two() {
            x >> d.trailing_zeros()
        } else {
            x / d
        }
    }

    fn push_line_dedup(out: &mut Vec<LineAddr>, start: usize, line: LineAddr) {
        if !out[start..].contains(&line) {
            out.push(line);
        }
    }
}

/// `KernelReader::read_records`, whose records take a fast step and fall
/// back to a checked one, must read exactly what the per-record reader it
/// grew from reads ([`frozen_reader::read_records`]): the same `Result`
/// (a `RecordFault` equal field by field), the same byte position and the
/// same pool, stream after stream. Each case draws a body of up to eight
/// instructions, one to three streams of random runs (some continuing the
/// run before, some too long for the bytes) and record bytes back to back,
/// as in a file: lineless records; fresh records of 1 to 40, 1,024 and
/// 1,025 lines; repeats inside the pool, ending at its end and past it;
/// `h = 1`; varints of 1 to 10 bytes, overlong and overflowing ones
/// included; and raw bytes. Some cases hold no faulty record, so the
/// readers go deep; each case is also read cut at every byte of its last
/// record.
#[test]
fn record_reader_matches_frozen_reference() {
    check_n("record_reader_matches_frozen_reference", 400, |r| {
        let kinds = [
            InstKind::Alu { latency: 1 },
            InstKind::Load { load: LoadId(0) },
            InstKind::Store { load: LoadId(0) },
        ];
        let body: Vec<StaticInst> = (0..r.range_u32(1, 9))
            .map(|i| StaticInst { pc: Pc(16 * i), kind: *r.pick(&kinds), wait_for: None })
            .collect();
        let load = LoadSpec { id: LoadId(0), pc: Pc(0), pattern: AccessPattern::streaming(128) };
        let stub =
            KernelSpec::from_raw("p".into(), 1, 1, 8, 0, body.clone(), 1, vec![load]).unwrap();
        let check = RunCheck::new(&body);
        let body_len = body.len() as u64;
        let streams: Vec<Vec<Run>> = (0..r.range_usize(1, 4))
            .map(|_| {
                let mut runs: Vec<Run> = Vec::new();
                for _ in 0..r.range_usize(1, 4) {
                    let start = match runs.last() {
                        // Where the run before ends: the reader merges it.
                        Some(last) if r.bool() => {
                            ((u64::from(last.start) + u64::from(last.count)) % body_len) as u32
                        }
                        _ => r.range_u32(0, body_len as u32),
                    };
                    let count = match r.range_u32(0, 16) {
                        0 => u32::MAX - r.range_u32(0, 3),
                        _ => r.range_u32(1, 25),
                    };
                    runs.push(Run { start, count });
                }
                runs
            })
            .collect();
        let mem_ops: u64 = streams.iter().flatten().map(|&run| check.run(run).unwrap()).sum();
        let faulty = *r.pick(&[0, 0, 2, 20]);
        let (mut bytes, mut pool, mut last) = (Vec::new(), 0, 0);
        for _ in 0..mem_ops.min(200) + r.range_u64(0, 3) {
            last = bytes.len();
            put_any_record(r, &mut bytes, &mut pool, faulty);
        }
        for cut in last..=bytes.len() {
            assert_readers_agree(&stub, &check, &streams, &bytes[..cut]);
        }
    });
}

/// Reads `streams`, their record bytes back to back in `buf`, through a
/// `KernelReader` and through the frozen reader, and compares every
/// stream's result and byte position and the pool left at the end.
fn assert_readers_agree(stub: &KernelSpec, check: &RunCheck, streams: &[Vec<Run>], buf: &[u8]) {
    let mut reader = KernelReader::new(stub.clone(), streams.len(), buf.len());
    let (mut base, mut pool) = (vec![0; check.n_mem()], Vec::new());
    let (mut pos, mut frozen_pos) = (0, 0);
    for (si, runs) in streams.iter().enumerate() {
        for &run in runs {
            reader.push_run(run).unwrap();
        }
        let got = reader.read_records(buf, &mut pos);
        let want =
            frozen_reader::read_records(buf, &mut frozen_pos, check, runs, &mut base, &mut pool);
        assert_eq!(got, want.map(|_| ()), "stream {si} of {streams:?}, {} bytes", buf.len());
        assert_eq!(pos, frozen_pos, "stream {si}: byte position");
        if got.is_err() {
            break;
        }
    }
    let got = reader.finish();
    let same = got.pool().iter().zip(&pool).take_while(|(a, b)| a == b).count();
    let (n, m) = (got.pool().len(), pool.len());
    assert!(same == n && n == m, "pools of {n} and {m} lines differ at line {same}");
}

/// Appends one access record to `bytes`, its varints now and then padded
/// to up to ten bytes; `pool` counts the lines the fresh records so far
/// append. With `faulty` percent, the record is one the reader rejects
/// (unless an earlier fault stopped it): a fresh or repeat record of 1,025
/// lines, a repeat past the pool, `h = 1`, a varint past 64 bits, or raw
/// bytes.
fn put_any_record(r: &mut Rng, bytes: &mut Vec<u8>, pool: &mut u64, faulty: u64) {
    let varint = |r: &mut Rng, bytes: &mut Vec<u8>, v: u64| {
        let min = (64 - (v | 1).leading_zeros() as usize).div_ceil(7);
        let width = if r.range_u32(0, 8) == 0 { r.range_usize(min, 11) } else { min };
        for i in 0..width {
            let more = if i + 1 < width { 0x80 } else { 0 };
            bytes.push(((v >> (7 * i)) & 0x7f) as u8 | more);
        }
    };
    if r.range_u64(0, 100) < faulty {
        match r.range_u32(0, 6) {
            0 => {
                // Whole, so that only the length check rejects it.
                varint(r, bytes, 2 * 1025 + 1);
                bytes.extend((0..1025).map(|_| r.range_u32(0, 128) as u8));
            }
            1 => {
                varint(r, bytes, 2 * 1025);
                varint(r, bytes, 0);
            }
            2 => {
                let len = r.range_u64(1, 41);
                varint(r, bytes, 2 * len);
                let off = match r.range_u32(0, 3) {
                    0 => (*pool + 1).saturating_sub(len),
                    1 => *pool + r.range_u64(0, 1 << 20),
                    _ => r.u64(),
                };
                varint(r, bytes, off);
            }
            3 => varint(r, bytes, 1),
            4 => {
                bytes.extend([0xff; 9]);
                bytes.push(r.range_u32(2, 256) as u8);
            }
            _ => {
                for _ in 0..r.range_u32(1, 5) {
                    bytes.push(r.u64() as u8);
                }
            }
        }
        return;
    }
    match r.range_u32(0, 8) {
        0 | 1 => varint(r, bytes, 0),
        2..=4 => {
            let len = if r.range_u32(0, 40) == 0 { 1024 } else { r.range_u64(1, 41) };
            varint(r, bytes, 2 * len + 1);
            for _ in 0..len {
                let d: i64 = match r.range_u32(0, 4) {
                    0 | 1 => r.range_u64(0, 128) as i64 - 64,
                    2 => r.range_u64(0, 1 << 42) as i64 - (1 << 41),
                    _ => r.u64() as i64,
                };
                varint(r, bytes, ((d << 1) ^ (d >> 63)) as u64);
            }
            *pool += len;
        }
        _ if *pool == 0 => varint(r, bytes, 0),
        _ => {
            // Inside the pool, or ending at its end.
            let len = r.range_u64(1, 41.min(*pool + 1));
            let off = if r.bool() { *pool - len } else { r.range_u64(0, *pool - len + 1) };
            varint(r, bytes, 2 * len);
            varint(r, bytes, off);
        }
    }
}

/// `KernelReader::read_records` before its fast step: the size check, then
/// every record through `get_uvarint` and `check_record`, at the memory
/// indices `RunCheck::mem_indices` gives, frozen with its own zigzag
/// decode so that no change to `gpu_sim::replay`'s reader moves both sides
/// of [`record_reader_matches_frozen_reference`] at once.
mod frozen_reader {
    use gpu_sim::replay::{check_record, get_uvarint, RecordFault, Run, RunCheck, StreamFault};
    use gpu_sim::types::LineAddr;

    /// Reads the records of a stream of `runs`, as pushed, from `buf` at
    /// `*pos`; `base` holds a delta base per Load/Store position and
    /// `pool` the lines of the fresh records so far.
    pub fn read_records(
        buf: &[u8],
        pos: &mut usize,
        check: &RunCheck,
        runs: &[Run],
        base: &mut [u64],
        pool: &mut Vec<LineAddr>,
    ) -> Result<u64, RecordFault> {
        let start = *pos;
        // Each record takes at least a byte.
        let mem_ops = runs.iter().fold(0u64, |n, &run| n.saturating_add(check.run(run).unwrap()));
        if mem_ops > buf.len().saturating_sub(start) as u64 {
            let fault = StreamFault::Truncated(start);
            return Err(RecordFault { fault, record: 0, at: start });
        }
        let mut record = 0;
        for &run in runs {
            for k in check.mem_indices(run) {
                let at = *pos;
                let fail = |fault| RecordFault { fault, record, at };
                // h = 0, a lineless record, has nothing more to read.
                let h = get_uvarint(buf, pos).map_err(fail)?;
                let len = h >> 1;
                if h & 1 == 1 {
                    // Fresh: room for `len` more lines at the pool's end,
                    // below the pool limit.
                    let end = pool.len();
                    let (_, len) = check_record(end as u64, len, end.saturating_add(len as usize))
                        .map_err(fail)?;
                    if len == 0 {
                        return Err(fail(StreamFault::FreshWithoutLines));
                    }
                    let mut line = base[k].wrapping_add(get_zigzag(buf, pos).map_err(fail)? as u64);
                    base[k] = line;
                    pool.push(LineAddr(line));
                    for _ in 1..len {
                        line = line.wrapping_add(get_zigzag(buf, pos).map_err(fail)? as u64);
                        pool.push(LineAddr(line));
                    }
                } else if h != 0 {
                    // A repeat: `off` must name lines already in the pool.
                    let off = get_uvarint(buf, pos).map_err(fail)?;
                    let (off, _) = check_record(off, len, pool.len()).map_err(fail)?;
                    base[k] = pool[off as usize].0;
                }
                record += 1;
            }
        }
        Ok(record)
    }

    fn get_zigzag(buf: &[u8], pos: &mut usize) -> Result<i64, StreamFault> {
        let raw = get_uvarint(buf, pos)?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }
}

/// `StreamBuilder`, which keeps each access coded as line deltas, must give
/// `ReplayKernel::from_streams` what the builder it replaced, which kept
/// each access's length and lines raw, gave it ([`frozen_builder`]): the
/// same runs, record bytes, pool and stream starts, stream by stream. Each
/// case draws a body of 1 to 64 instructions, most of them Load/Store (more
/// positions than any small table of delta bases holds), and 1 to 4
/// streams over it, each in a builder over that body or over a growing one
/// (`GROWING_BODY`). A stream mostly steps, so its runs merge and wrap the
/// body, and now and then jumps. ALU ops carry no access; a memory op's
/// access is lineless, a repeat of an earlier access, or 1 to 4 (now and
/// then up to 1,024) lines near 0, near `u64::MAX`, near the line before
/// or anywhere, so deltas wrap both ways.
#[test]
fn stream_builder_matches_frozen_reference() {
    use gpu_sim::replay::{ReplayKernel, StreamBuilder, GROWING_BODY};
    check_n("stream_builder_matches_frozen_reference", 300, |r| {
        let kinds = [
            InstKind::Alu { latency: 1 },
            InstKind::Load { load: LoadId(0) },
            InstKind::Store { load: LoadId(0) },
        ];
        let body: Vec<StaticInst> = (0..r.range_u32(1, 65))
            .map(|i| StaticInst { pc: Pc(16 * i), kind: *r.pick(&kinds), wait_for: None })
            .collect();
        let len = body.len() as u32;
        let n_streams = r.range_usize(1, 5);
        let load = LoadSpec { id: LoadId(0), pc: Pc(0), pattern: AccessPattern::streaming(128) };
        let stub = KernelSpec::from_raw(
            "b".into(),
            n_streams as u32,
            1,
            8,
            0,
            body.clone(),
            1,
            vec![load],
        )
        .unwrap();
        let (mut builders, mut frozen) = (Vec::new(), Vec::new());
        let mut earlier: Vec<Vec<LineAddr>> = Vec::new();
        for _ in 0..n_streams {
            let body_len = if r.bool() { len } else { GROWING_BODY };
            let (mut b, mut f) =
                (StreamBuilder::new(body_len), frozen_builder::StreamBuilder::new(body_len));
            let mut pos = r.range_u32(0, len);
            for i in 0..r.range_usize(1, 300) {
                if i > 0 {
                    let step = if pos + 1 == len { 0 } else { pos + 1 };
                    pos = if r.range_u32(0, 10) == 0 { r.range_u32(0, len) } else { step };
                }
                if matches!(body[pos as usize].kind, InstKind::Alu { .. }) {
                    b.push(pos, None);
                    f.push(pos, None);
                    continue;
                }
                let lines = any_access(r, &earlier);
                b.push(pos, Some(&lines));
                f.push(pos, Some(&lines));
                earlier.push(lines);
            }
            assert_eq!(b.runs(), f.runs());
            builders.push(b);
            frozen.push(f);
        }
        let (streams, pool) = frozen_builder::code(&body, &frozen);
        let got = ReplayKernel::from_streams(stub, builders);
        got.validate().unwrap();
        assert_eq!(got.n_streams(), streams.len());
        let mut byte = 0;
        for (si, (runs, bytes)) in streams.iter().enumerate() {
            let s = got.stream(si);
            assert_eq!(s.runs(), runs, "stream {si}: runs");
            assert_eq!(s.cursor().byte as usize, byte, "stream {si}: first record byte");
            assert!(s.record_bytes() == bytes, "stream {si}: record bytes");
            byte += bytes.len();
        }
        assert!(got.pool() == pool, "pools of {} and {} lines", got.pool().len(), pool.len());
    });
}

/// The lines of one memory op's access: none, a repeat of one of
/// `earlier`, or fresh lines near 0, near `u64::MAX`, near the line
/// before or anywhere.
fn any_access(r: &mut Rng, earlier: &[Vec<LineAddr>]) -> Vec<LineAddr> {
    match r.range_u32(0, 8) {
        0 => Vec::new(),
        1 if !earlier.is_empty() => r.pick(earlier).clone(),
        _ => {
            let n = if r.range_u32(0, 30) == 0 { r.range_u64(1, 1025) } else { r.range_u64(1, 5) };
            let mut line = 0u64;
            (0..n)
                .map(|_| {
                    line = match r.range_u32(0, 4) {
                        0 => r.range_u64(0, 64),
                        1 => u64::MAX - r.range_u64(0, 64),
                        2 => line.wrapping_add(r.range_u64(0, 2048)).wrapping_sub(1024),
                        _ => r.u64(),
                    };
                    LineAddr(line)
                })
                .collect()
        }
    }
}

/// `StreamBuilder` before it coded its accesses, which kept each access's
/// line count and lines raw, and `ReplayKernel::from_streams` as it coded
/// such builders: through the record writer and the fresh-slice table,
/// frozen with their own hash and varint writer, so that no change to
/// `gpu_sim::replay` moves both sides of
/// [`stream_builder_matches_frozen_reference`] at once.
mod frozen_builder {
    use gpu_sim::kernel::StaticInst;
    use gpu_sim::replay::{Run, RunCheck};
    use gpu_sim::types::LineAddr;

    /// One stream's runs, and each access's line count and lines.
    pub struct StreamBuilder {
        runs: Vec<Run>,
        lens: Vec<u32>,
        lines: Vec<LineAddr>,
        body_len: u32,
        next: u32,
    }

    impl StreamBuilder {
        pub fn new(body_len: u32) -> Self {
            StreamBuilder {
                runs: Vec::new(),
                lens: Vec::new(),
                lines: Vec::new(),
                body_len,
                next: 0,
            }
        }

        pub fn runs(&self) -> &[Run] {
            &self.runs
        }

        pub fn push(&mut self, pos: u32, access: Option<&[LineAddr]>) {
            self.push_run(Run { start: pos, count: 1 });
            if let Some(lines) = access {
                self.lens.push(lines.len() as u32);
                self.lines.extend_from_slice(lines);
            }
        }

        fn push_run(&mut self, run: Run) {
            match self.runs.last_mut() {
                Some(last)
                    if run.start == self.next && last.count.checked_add(run.count).is_some() =>
                {
                    last.count += run.count;
                }
                _ => self.runs.push(run),
            }
            let after = u64::from(run.start) + u64::from(run.count);
            self.next = (after % u64::from(self.body_len.max(1))) as u32;
        }
    }

    /// One coded stream: its runs and its record bytes.
    pub type Coded = (Vec<Run>, Vec<u8>);

    /// Each stream as `from_streams` coded `streams` over `body`, and the
    /// kernel's pool.
    pub fn code(body: &[StaticInst], streams: &[StreamBuilder]) -> (Vec<Coded>, Vec<LineAddr>) {
        let check = RunCheck::new(body);
        let unplaced = check.n_mem();
        let n_records = streams.iter().map(|b| b.lens.len()).sum();
        let mut writer = RecordWriter::new(unplaced, n_records);
        let mut pool = Vec::new();
        let mut coded = Vec::new();
        for b in streams {
            let mut places = b.runs.iter().flat_map(|&r| check.mem_indices(r));
            let mut lines = b.lines.as_slice();
            let mut bytes = Vec::new();
            for &len in &b.lens {
                let (access, rest) = lines.split_at(len as usize);
                lines = rest;
                let k = places.next().unwrap_or(unplaced);
                writer.put(&mut bytes, &mut pool, k, access);
            }
            coded.push((b.runs.clone(), bytes));
        }
        (coded, pool)
    }

    const PROBES: usize = 16;

    struct FreshSlices {
        slots: Vec<(u32, u32)>,
        shift: u32,
    }

    impl FreshSlices {
        fn new(n_records: usize) -> Self {
            let n = n_records.next_power_of_two().max(PROBES);
            FreshSlices { slots: vec![(0, 0); n], shift: 64 - n.trailing_zeros() }
        }

        fn repeat_of(&mut self, pool: &[LineAddr], lines: &[LineAddr]) -> Option<u32> {
            // FxHash: one rotate, xor and multiply per line.
            let hash = lines.iter().fold(0u64, |h, l| {
                (h.rotate_left(5) ^ l.0).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
            });
            let mask = self.slots.len() - 1;
            let mut i = (hash >> self.shift) as usize;
            for _ in 0..PROBES {
                let (off, len) = self.slots[i];
                if len == 0 {
                    if let Ok(off) = u32::try_from(pool.len()) {
                        self.slots[i] = (off, lines.len() as u32);
                    }
                    return None;
                }
                if len as usize == lines.len() && pool[off as usize..][..lines.len()] == *lines {
                    return Some(off);
                }
                i = (i + 1) & mask;
            }
            None
        }
    }

    struct RecordWriter {
        base: Vec<u64>,
        fresh: FreshSlices,
    }

    impl RecordWriter {
        fn new(n_mem: usize, n_records: usize) -> Self {
            RecordWriter { base: vec![0; n_mem + 1], fresh: FreshSlices::new(n_records) }
        }

        fn put(
            &mut self,
            bytes: &mut Vec<u8>,
            pool: &mut Vec<LineAddr>,
            k: usize,
            lines: &[LineAddr],
        ) {
            let Some(&first) = lines.first() else {
                bytes.push(0);
                return;
            };
            let h = 2 * lines.len() as u64;
            if let Some(off) = self.fresh.repeat_of(pool, lines) {
                put_uvarint(bytes, h);
                put_uvarint(bytes, u64::from(off));
            } else {
                put_uvarint(bytes, h + 1);
                put_zigzag(bytes, first.0.wrapping_sub(self.base[k]) as i64);
                for w in lines.windows(2) {
                    put_zigzag(bytes, w[1].0.wrapping_sub(w[0].0) as i64);
                }
                pool.extend_from_slice(lines);
            }
            self.base[k] = first.0;
        }
    }

    fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }

    fn put_zigzag(buf: &mut Vec<u8>, v: i64) {
        put_uvarint(buf, ((v << 1) ^ (v >> 63)) as u64);
    }
}

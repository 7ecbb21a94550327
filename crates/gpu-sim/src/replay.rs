//! Trace-replay workload frontend: per-warp instruction/address streams.
//!
//! The synthetic frontend generates each warp's addresses on the fly from an
//! [`AccessPattern`](crate::pattern::AccessPattern); the replay frontend
//! instead feeds every warp a pre-recorded stream — captured from a synthetic
//! run ([`crate::gpu::capture_kernel`]) or imported from an external
//! SASS-style text trace (the `lb-replay` crate). A [`ReplayKernel`] pairs a
//! plain [`KernelSpec`] *stub* (grid shape, resources, static body — the
//! header every policy transform reads) with one [`WarpStream`] per warp of
//! the grid: the warp's dynamic instruction sequence as indices into the
//! stub body, plus the coalesced line addresses of its memory operations,
//! interned in a per-stream line pool and referenced by (offset, length).
//!
//! Stream identity is by *CTA dispatch ordinal*: the k-th CTA the GPU
//! launches (grid-wide, across SMs) executes streams
//! `k * warps_per_cta .. (k + 1) * warps_per_cta`. Initial dispatch is
//! deterministic round-robin, so a capture sized to one wave (every CTA
//! placed before cycle 0) replays each stream on exactly the SM and warp
//! slot that produced it — the property the cross-policy round-trip tests
//! rely on.
//!
//! # Stream layout
//!
//! A [`WarpStream`] stores nothing per ALU op. Its ops are a list of
//! [`Run`]s: a run `(start, count)` is `count` ops at consecutive body
//! positions from `start`, wrapping to 0 past the body's end — the walk
//! [`WarpSlab::advance`](crate::warp::WarpSlab::advance) makes for a
//! synthetic warp. A captured stream of any trip count is therefore one
//! run, and an imported trace adds one run per taken branch. Each op at a
//! Load/Store body position owns one access record `(line_off, line_len)`
//! into the stream's line pool, in issue order; a memory op whose access
//! touched no lines (a sparse pattern skipped the instance) owns a
//! lineless one. Whether an op is a memory op is read from the stub body,
//! so readers walk the runs through it: [`WarpStream::ops`] yields the
//! decoded [`TraceOp`] view. Streams are built through [`StreamBuilder`].
//!
//! A replayed warp's `body_pos` column holds its real body position, as a
//! synthetic warp's does; its run index, the ops left in that run and its
//! next access record are slab columns too
//! ([`WarpSlab::advance_replay`](crate::warp::WarpSlab::advance_replay)),
//! so the SM reads a record only when the warp issues a memory
//! instruction.

use crate::config::GpuConfig;
use crate::kernel::{InstKind, KernelSpec, StaticInst};
use crate::types::{Cycle, LineAddr};

/// Body length for a [`StreamBuilder`] whose body grows while it records
/// (import): the most instructions a body may have, so a run can wrap only
/// at the end of a body that long, where the body walk wraps as well.
pub const GROWING_BODY: u32 = u32::MAX;

/// One dynamic instruction of a warp's replay stream, decoded.
///
/// `pos` indexes the stub kernel's `body`; the static instruction there
/// supplies the kind, latency, PC and scoreboard edge. Memory operations
/// carry their coalesced line addresses as a `line_off .. line_off +
/// line_len` slice of the owning stream's line pool; an op without lines
/// has `line_off == line_len == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Index into the stub kernel's `body`.
    pub pos: u32,
    /// First line of this access in the stream's line pool.
    pub line_off: u32,
    /// Number of coalesced lines (0 for ALU operations).
    pub line_len: u32,
}

impl TraceOp {
    /// Checks this op against the stub `body` and the size of its stream's
    /// line pool: the body position is in range, the line slice lies inside
    /// the pool, and an ALU op carries no lines. A memory op with zero lines
    /// is legal: sparse patterns (e.g. `SparseStream`) skip most instances.
    /// Returns whether the op is a memory op, i.e. owns an access record.
    /// [`ReplayKernel::validate`] states the per-op invariants through this,
    /// and the `LBW1` decoder runs it on each op as it parses it.
    #[inline]
    pub fn check(self, body: &[StaticInst], pool_len: usize) -> Result<bool, String> {
        let Some(inst) = body.get(self.pos as usize) else {
            return Err(self.fault(body, pool_len));
        };
        let mem = !matches!(inst.kind, InstKind::Alu { .. });
        let end = u64::from(self.line_off) + u64::from(self.line_len);
        if self.line_len == 0 || (mem && end <= pool_len as u64) {
            Ok(mem)
        } else {
            Err(self.fault(body, pool_len))
        }
    }

    /// Describes why [`TraceOp::check`] rejected this op.
    #[cold]
    fn fault(self, body: &[StaticInst], pool_len: usize) -> String {
        let end = u64::from(self.line_off) + u64::from(self.line_len);
        match body.get(self.pos as usize) {
            None => format!("body position {} out of range", self.pos),
            Some(_) if end > pool_len as u64 => {
                format!("line slice {}..{end} exceeds pool of {pool_len}", self.line_off)
            }
            Some(_) => format!("ALU op carries {} lines", self.line_len),
        }
    }
}

/// `count` ops at consecutive body positions from `start`, wrapping to 0
/// past the end of the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Body position of the run's first op.
    pub start: u32,
    /// Number of ops in the run (at least 1).
    pub count: u32,
}

/// The body position after `pos` in a body of `body_len` instructions: the
/// one step of the body walk that runs, synthetic and replayed warps share.
#[inline]
pub(crate) fn next_pos(pos: u32, body_len: u32) -> u32 {
    let next = pos.wrapping_add(1);
    if next == body_len {
        0
    } else {
        next
    }
}

/// The recorded execution of one warp: its dynamic instructions as runs of
/// body positions, one access record per memory op, and the line pool the
/// records reference (layout in the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarpStream {
    /// Runs of ops in issue order.
    runs: Vec<Run>,
    /// `(line_off, line_len)` of each memory op, in issue order.
    accesses: Vec<(u32, u32)>,
    /// Line pool referenced by the access records. Capture appends raw
    /// per-access slices; the `LBW1` encoder interns duplicates, so a
    /// decoded stream shares repeated accesses.
    lines: Vec<LineAddr>,
}

impl WarpStream {
    /// Number of ops (dynamic instructions).
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.count as usize).sum()
    }

    /// True when the stream holds no op.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The runs in issue order.
    #[inline]
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Number of access records (memory ops).
    pub fn n_accesses(&self) -> usize {
        self.accesses.len()
    }

    /// The coalesced lines of access record `i`.
    #[inline]
    pub fn access(&self, i: u32) -> &[LineAddr] {
        let (off, len) = self.accesses[i as usize];
        let off = off as usize;
        &self.lines[off..off + len as usize]
    }

    /// The ops in issue order, walked through the stub `body`: each run
    /// steps its body position, and each op at a Load/Store position takes
    /// the next access record. Never panics; on a stream that does not fit
    /// `body`, which [`ReplayKernel::validate`] rejects, the ops past a
    /// missing record read as lineless.
    pub fn ops<'a>(&'a self, body: &'a [StaticInst]) -> impl Iterator<Item = TraceOp> + 'a {
        let body_len = body.len() as u32;
        let mut records = self.accesses.iter();
        self.runs
            .iter()
            .flat_map(move |r| {
                std::iter::successors(Some(r.start), move |&p| Some(next_pos(p, body_len)))
                    .take(r.count as usize)
            })
            .map(move |pos| {
                let mem =
                    body.get(pos as usize).is_some_and(|i| !matches!(i.kind, InstKind::Alu { .. }));
                let (line_off, line_len) =
                    if mem { records.next().copied().unwrap_or((0, 0)) } else { (0, 0) };
                TraceOp { pos, line_off, line_len }
            })
    }

    /// The coalesced lines of `op`, one of this stream's ops.
    #[inline]
    pub fn lines(&self, op: TraceOp) -> &[LineAddr] {
        let off = op.line_off as usize;
        &self.lines[off..off + op.line_len as usize]
    }

    /// The whole line pool.
    pub fn pool(&self) -> &[LineAddr] {
        &self.lines
    }
}

/// Appends ops to a [`WarpStream`]: an op extends the last run when its
/// body position follows the run's last one, and opens a run otherwise.
/// Capture, import and the `LBW1` decoder all build streams through this.
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    /// The stream built so far.
    stream: WarpStream,
    /// Body length runs wrap at ([`GROWING_BODY`] while the body grows).
    body_len: u32,
    /// Body position that extends the last run.
    next: u32,
}

impl StreamBuilder {
    /// An empty stream over a body of `body_len` instructions, whose runs
    /// wrap to 0 past its end. Import, whose body grows while it reads,
    /// passes [`GROWING_BODY`]: a run that never wraps is still a run.
    pub fn new(body_len: u32) -> Self {
        StreamBuilder { stream: WarpStream::default(), body_len, next: 0 }
    }

    /// Appends an op at body position `pos`: `access` is `Some(lines)` for
    /// an op at a Load or Store position (`lines` may be empty) and `None`
    /// for an ALU op. The lines are copied to the end of the pool. Capture
    /// and import record through this.
    pub fn push(&mut self, pos: u32, access: Option<&[LineAddr]>) {
        let record = access.map(|lines| {
            let off = self.stream.lines.len() as u32;
            self.stream.lines.extend_from_slice(lines);
            (off, lines.len() as u32)
        });
        self.push_ref(pos, record);
    }

    /// Appends an op whose access record, if any, is `(line_off, line_len)`
    /// of a pool supplied later by [`StreamBuilder::take_with_pool`]; the
    /// `LBW1` decoder pushes its parsed ops through this.
    #[inline]
    pub fn push_ref(&mut self, pos: u32, record: Option<(u32, u32)>) {
        let runs = &mut self.stream.runs;
        match runs.last_mut() {
            Some(r) if pos == self.next && r.count < u32::MAX => r.count += 1,
            _ => runs.push(Run { start: pos, count: 1 }),
        }
        self.next = next_pos(pos, self.body_len);
        if let Some((off, len)) = record {
            // A lineless record's offset carries nothing; keep it canonical.
            self.stream.accesses.push(if len == 0 { (0, 0) } else { (off, len) });
        }
    }

    /// The finished stream.
    pub fn finish(self) -> WarpStream {
        self.stream
    }

    /// Returns the ops pushed so far as a new stream over `pool`, copied
    /// out at exact size, and empties `self` but keeps its buffers. The
    /// decoder builds every stream in one such scratch builder, so no
    /// decoded stream carries a growing buffer's spare capacity.
    pub fn take_with_pool(&mut self, pool: Vec<LineAddr>) -> WarpStream {
        let s = &mut self.stream;
        debug_assert!(s.lines.is_empty(), "a scratch builder has no pool of its own");
        let out = WarpStream {
            runs: s.runs.as_slice().to_vec(),
            accesses: s.accesses.as_slice().to_vec(),
            lines: pool,
        };
        s.runs.clear();
        s.accesses.clear();
        out
    }
}

/// A trace-driven workload: a kernel stub plus one stream per warp.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayKernel {
    /// Grid shape, resources and static body. Policy transforms and
    /// occupancy read only this; the stub's `AccessPattern`s are never
    /// executed in replay (imported kernels carry placeholders).
    pub stub: KernelSpec,
    /// One stream per warp, indexed `cta_ordinal * warps_per_cta + lane`.
    pub streams: Vec<WarpStream>,
}

impl ReplayKernel {
    /// Total warps in the grid (`grid_ctas * warps_per_cta`).
    pub fn total_streams(&self) -> usize {
        self.stub.grid_ctas as usize * self.stub.warps_per_cta as usize
    }

    /// Total dynamic instructions across all streams.
    pub fn dyn_insts(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Validates internal consistency: the stub itself, the stream count
    /// against the grid, no empty stream, every op of the walk against the
    /// stub body and its stream's pool ([`TraceOp::check`]), and one access
    /// record per memory op.
    pub fn validate(&self) -> Result<(), String> {
        self.stub.validate()?;
        if self.streams.len() != self.total_streams() {
            return Err(format!(
                "stream count {} does not match grid {} CTAs x {} warps",
                self.streams.len(),
                self.stub.grid_ctas,
                self.stub.warps_per_cta
            ));
        }
        let body = &self.stub.body;
        for (si, s) in self.streams.iter().enumerate() {
            if s.is_empty() {
                return Err(format!("stream {si} is empty"));
            }
            let mut mem_ops = 0;
            for (oi, op) in s.ops(body).enumerate() {
                let mem = op
                    .check(body, s.pool().len())
                    .map_err(|e| format!("stream {si} op {oi}: {e}"))?;
                mem_ops += usize::from(mem);
            }
            if mem_ops != s.n_accesses() {
                return Err(format!(
                    "stream {si} has {} access records for {mem_ops} memory ops",
                    s.n_accesses()
                ));
            }
        }
        Ok(())
    }
}

/// A capture run could not produce a complete trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureError {
    /// The run hit the cycle cap before every warp retired; the recorded
    /// streams would be truncated mid-execution.
    Incomplete {
        /// Cycles simulated when the cap fired.
        cycles: Cycle,
    },
    /// A warp of the grid never issued an instruction (its CTA was never
    /// dispatched) — the grid does not fit the capture configuration.
    EmptyStream {
        /// Index of the first empty stream.
        stream: usize,
    },
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::Incomplete { cycles } => {
                write!(f, "capture run incomplete after {cycles} cycles (raise max_cycles or shrink the kernel)")
            }
            CaptureError::EmptyStream { stream } => {
                write!(f, "warp stream {stream} never executed (grid exceeds capture occupancy)")
            }
        }
    }
}

impl std::error::Error for CaptureError {}

/// CTAs of `kernel` simultaneously resident on one SM under `cfg` (the
/// occupancy minimum over warp slots, threads, registers and shared
/// memory — the same limits [`crate::sm::Sm::try_launch_cta`] enforces).
/// Capture grids are sized to `resident_ctas * n_sms` so the whole grid
/// dispatches in one wave and stream placement is policy-invariant.
pub fn resident_ctas(cfg: &GpuConfig, kernel: &KernelSpec) -> u32 {
    let wpc = kernel.warps_per_cta.max(1);
    let by_warps = cfg.max_warps_per_sm / wpc;
    let by_threads = cfg.max_threads_per_sm / (wpc * cfg.simd_width);
    let by_regs = cfg.warp_regs_per_sm() / kernel.regs_per_cta().max(1);
    let by_smem = cfg
        .shared_mem_bytes_per_sm
        .checked_div(kernel.shared_mem_per_cta)
        .map_or(u32::MAX, |n| n.min(u64::from(u32::MAX)) as u32);
    by_warps.min(by_threads).min(by_regs).min(by_smem).min(cfg.max_ctas_per_sm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use crate::pattern::AccessPattern;
    use crate::types::{LoadId, Pc};

    /// A load at body position 0 and its ALU consumer at 1.
    fn stub() -> KernelSpec {
        KernelBuilder::new("t")
            .grid(1, 1)
            .load_then_use(AccessPattern::streaming(128), 0)
            .iterations(1)
            .build()
            .unwrap()
    }

    fn rep_of(stream: WarpStream) -> ReplayKernel {
        ReplayKernel { stub: stub(), streams: vec![stream] }
    }

    /// A stream over `stub()` from `(pos, access)` ops (`None`: ALU op).
    fn stream(ops: &[(u32, Option<&[LineAddr]>)]) -> WarpStream {
        let mut b = StreamBuilder::new(2);
        for &(pos, access) in ops {
            b.push(pos, access);
        }
        b.finish()
    }

    fn valid_rep() -> ReplayKernel {
        rep_of(stream(&[(0, Some(&[LineAddr(42)])), (1, None)]))
    }

    #[test]
    fn valid_replay_kernel_passes() {
        assert!(valid_rep().validate().is_ok());
    }

    #[test]
    fn stream_count_mismatch_rejected() {
        let mut r = valid_rep();
        r.streams.push(WarpStream::default());
        assert!(r.validate().unwrap_err().contains("stream count"));
    }

    #[test]
    fn empty_stream_rejected() {
        let r = rep_of(WarpStream::default());
        assert!(r.validate().unwrap_err().contains("is empty"));
    }

    #[test]
    fn out_of_range_pos_rejected() {
        let s = stream(&[(99, Some(&[LineAddr(42)]))]);
        assert!(rep_of(s).validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn line_slice_overflow_rejected() {
        let mut b = StreamBuilder::new(2);
        b.push_ref(0, Some((0, 7)));
        b.push_ref(1, None);
        let r = rep_of(b.take_with_pool(vec![LineAddr(42)]));
        assert!(r.validate().unwrap_err().contains("exceeds pool"));
    }

    #[test]
    fn access_records_match_memory_ops() {
        // A record pushed for the ALU consumer at pos 1 is one too many.
        let s = stream(&[(0, Some(&[LineAddr(42)])), (1, Some(&[LineAddr(43)]))]);
        let err = rep_of(s).validate().unwrap_err();
        assert!(err.contains("2 access records for 1 memory ops"), "{err}");
        // A load pushed without a record leaves one missing.
        let s = stream(&[(0, None), (1, None)]);
        let err = rep_of(s).validate().unwrap_err();
        assert!(err.contains("0 access records for 1 memory ops"), "{err}");
        // A memory op with zero lines is legal (sparse-pattern skip).
        assert!(rep_of(stream(&[(0, Some(&[])), (1, None)])).validate().is_ok());
    }

    #[test]
    fn check_reports_memory_ops_and_rejects_alu_lines() {
        let body = stub().body;
        let op = |pos, line_off, line_len| TraceOp { pos, line_off, line_len };
        assert_eq!(op(0, 0, 1).check(&body, 1), Ok(true));
        assert_eq!(op(0, 0, 0).check(&body, 0), Ok(true));
        assert_eq!(op(1, 0, 0).check(&body, 1), Ok(false));
        assert!(op(1, 0, 1).check(&body, 1).unwrap_err().contains("ALU op carries"));
        assert!(op(0, 1, 1).check(&body, 1).unwrap_err().contains("exceeds pool"));
        assert!(op(2, 0, 0).check(&body, 1).unwrap_err().contains("out of range"));
    }

    /// A four-instruction body: load, ALU, store, ALU.
    fn body4() -> Vec<StaticInst> {
        let inst = |i: u32, kind| StaticInst { pc: Pc(16 * i), kind, wait_for: None };
        vec![
            inst(0, InstKind::Load { load: LoadId(0) }),
            inst(1, InstKind::Alu { latency: 1 }),
            inst(2, InstKind::Store { load: LoadId(1) }),
            inst(3, InstKind::Alu { latency: 1 }),
        ]
    }

    #[test]
    fn builder_extends_wraps_and_opens_runs() {
        let body = body4();
        let positions = [2, 3, 0, 1, 2, 0, 1, 3];
        let mut b = StreamBuilder::new(4);
        let mut grow = StreamBuilder::new(GROWING_BODY);
        for &p in &positions {
            let access: Option<&[LineAddr]> = match p {
                0 => Some(&[LineAddr(7), LineAddr(8)]),
                2 => Some(&[]),
                _ => None,
            };
            b.push(p, access);
            grow.push(p, access);
        }
        let (s, g) = (b.finish(), grow.finish());
        let run = |start, count| Run { start, count };
        // 2,3 wrap to 0,1,2; a jump back to 0 opens a run, and so does 1 -> 3.
        assert_eq!(s.runs(), [run(2, 5), run(0, 2), run(3, 1)]);
        // A growing body never wraps: the step from 3 to 0 opens a run too.
        assert_eq!(g.runs(), [run(2, 2), run(0, 3), run(0, 2), run(3, 1)]);
        assert_eq!(s.len(), positions.len());
        // One record per Load/Store op, lineless ones included; ALU ops
        // store nothing.
        assert_eq!(s.n_accesses(), 4);
        let ops: Vec<TraceOp> = s.ops(&body).collect();
        assert_eq!(ops, g.ops(&body).collect::<Vec<_>>());
        assert_eq!(ops.iter().map(|o| o.pos).collect::<Vec<_>>(), positions);
        assert_eq!(s.lines(ops[2]), [LineAddr(7), LineAddr(8)]);
        assert_eq!(ops[0], TraceOp { pos: 2, line_off: 0, line_len: 0 });
        assert_eq!(s.access(1), [LineAddr(7), LineAddr(8)]);
        assert_eq!(s.access(3), s.lines(ops[5]));
    }

    #[test]
    fn random_op_sequences_walk_back_op_for_op() {
        testkit::check_n("stream_walk_round_trip", 300, |rng| {
            let kinds = [
                InstKind::Alu { latency: 1 },
                InstKind::Load { load: LoadId(0) },
                InstKind::Store { load: LoadId(0) },
            ];
            let body: Vec<StaticInst> = (0..rng.range_u32(1, 9))
                .map(|i| StaticInst { pc: Pc(16 * i), kind: *rng.pick(&kinds), wait_for: None })
                .collect();
            let len = body.len() as u32;
            let mut b = StreamBuilder::new(len);
            let mut grow = StreamBuilder::new(GROWING_BODY);
            let mut want: Vec<(u32, Vec<LineAddr>)> = Vec::new();
            let mut pos = rng.range_u32(0, len);
            let mut jumps = 0;
            for i in 0..rng.range_usize(1, 200) {
                if i > 0 {
                    // Mostly step (wrapping at the body end), sometimes jump.
                    let step = next_pos(pos, len);
                    pos = if rng.range_u32(0, 8) == 0 { rng.range_u32(0, len) } else { step };
                    jumps += usize::from(pos != step);
                }
                let mem = !matches!(body[pos as usize].kind, InstKind::Alu { .. });
                let lines: Vec<LineAddr> = if mem {
                    (0..rng.range_u64(0, 4)).map(|_| LineAddr(rng.range_u64(0, 64))).collect()
                } else {
                    Vec::new()
                };
                b.push(pos, mem.then_some(lines.as_slice()));
                grow.push(pos, mem.then_some(lines.as_slice()));
                want.push((pos, lines));
            }
            let (s, g) = (b.finish(), grow.finish());
            assert_eq!(s.runs().len(), jumps + 1, "a run per jump, none per wrap");
            assert_eq!(s.len(), want.len());
            assert_eq!(
                s.n_accesses(),
                want.iter()
                    .filter(|(p, _)| { !matches!(body[*p as usize].kind, InstKind::Alu { .. }) })
                    .count()
            );
            for stream in [&s, &g] {
                let got: Vec<(u32, Vec<LineAddr>)> =
                    stream.ops(&body).map(|op| (op.pos, stream.lines(op).to_vec())).collect();
                assert_eq!(got, want);
            }
        });
    }

    #[test]
    fn captured_stream_is_one_run_whatever_its_alu_count() {
        let cfg = GpuConfig::default().with_sms(2).with_windows(5_000, 60_000);
        for gap in [0, 3, 9] {
            let k = KernelBuilder::new("c")
                .grid(2, 2)
                .load_then_use(AccessPattern::streaming(128), gap)
                .store(AccessPattern::streaming(128))
                .iterations(3)
                .build()
                .unwrap();
            let body_len = k.body.len() as u32;
            let (_, rep) =
                crate::gpu::capture_kernel(cfg.clone(), k, &crate::policy::baseline_factory())
                    .unwrap();
            for s in &rep.streams {
                assert_eq!(s.runs(), [Run { start: 0, count: 3 * body_len }]);
                // Three trips of one load and one store, however many ALU
                // ops the body holds.
                assert_eq!(s.n_accesses(), 6);
            }
        }
    }

    #[test]
    fn take_with_pool_copies_out_and_resets_scratch() {
        let mut scratch = StreamBuilder::new(2);
        scratch.push_ref(0, Some((0, 1)));
        scratch.push_ref(1, None);
        let s = scratch.take_with_pool(vec![LineAddr(42)]);
        assert_eq!(s, valid_rep().streams[0]);
        // The next stream starts empty: a run of its own, no old records.
        scratch.push_ref(1, None);
        let t = scratch.take_with_pool(Vec::new());
        assert_eq!(t.runs(), [Run { start: 1, count: 1 }]);
        assert_eq!(t.n_accesses(), 0);
    }

    #[test]
    fn resident_ctas_respects_register_limit() {
        let cfg = GpuConfig::default();
        let k = KernelBuilder::new("r").grid(64, 8).regs_per_thread(64).alu(1).build().unwrap();
        // 8 warps x 64 regs = 512 regs/CTA; a 2048-reg file fits 4.
        assert_eq!(resident_ctas(&cfg, &k), cfg.warp_regs_per_sm() / 512);
    }
}

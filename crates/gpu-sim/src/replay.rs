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
//! # Stream words
//!
//! A [`WarpStream`] keeps its ops as a run of `u32` words, not one struct
//! per op, because most dynamic instructions carry no lines. An op without
//! lines is one word, its body position. An op with lines is three words:
//! `MEM | pos`, `line_off`, `line_len`, where `MEM` is bit 31, so a body
//! position stays at or below [`MAX_OP_POS`]. A memory op whose access
//! touched no lines (a sparse pattern skipped the instance) is stored like
//! an ALU op. A replayed warp's cursor (its `body_pos` column) is a *word
//! index* into its stream: [`WarpStream::op_at`] decodes the op at a cursor
//! and returns the cursor just past it. The words are private; [`TraceOp`]
//! is the decoded view every reader gets.

use crate::config::GpuConfig;
use crate::kernel::{InstKind, KernelSpec, StaticInst};
use crate::types::{Cycle, LineAddr};

/// Tag bit on the first word of an op that carries lines.
const MEM: u32 = 1 << 31;

/// Largest body position a stream op can hold (bit 31 tags memory ops).
pub const MAX_OP_POS: u32 = MEM - 1;

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
    /// [`ReplayKernel::validate`] states the per-op invariants through this,
    /// and the `LBW1` decoder runs it on each op as it parses it.
    #[inline]
    pub fn check(self, body: &[StaticInst], pool_len: usize) -> Result<(), String> {
        let fits = match body.get(self.pos as usize) {
            None => false,
            Some(_) if self.line_len == 0 => true,
            Some(inst) => {
                u64::from(self.line_off) + u64::from(self.line_len) <= pool_len as u64
                    && !matches!(inst.kind, InstKind::Alu { .. })
            }
        };
        if fits {
            Ok(())
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

/// The recorded execution of one warp: its dynamic instructions as op
/// words (layout in the module docs) and the line pool its memory
/// operations reference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarpStream {
    /// Op words in issue order.
    words: Vec<u32>,
    /// Number of ops in `words`.
    n_ops: usize,
    /// Line pool referenced by the ops' (offset, length) slices. Capture
    /// appends raw per-access slices; the `LBW1` encoder interns duplicates,
    /// so a decoded stream shares repeated accesses.
    lines: Vec<LineAddr>,
}

impl WarpStream {
    /// Appends an op and copies its `lines` (empty for an op without lines)
    /// to the end of the pool. Capture and import record through this.
    pub fn push(&mut self, pos: u32, lines: &[LineAddr]) {
        let off = self.lines.len() as u32;
        self.lines.extend_from_slice(lines);
        self.push_ref(pos, off, lines.len() as u32);
    }

    /// Appends an op that references `line_len` lines at `line_off` of a
    /// pool supplied later by [`WarpStream::take_with_pool`]; the `LBW1`
    /// decoder pushes its parsed ops through this. Panics if `pos` exceeds
    /// [`MAX_OP_POS`], which the word layout cannot represent.
    #[inline]
    pub fn push_ref(&mut self, pos: u32, line_off: u32, line_len: u32) {
        assert!(pos <= MAX_OP_POS, "body position {pos} does not fit an op word");
        if line_len == 0 {
            self.words.push(pos);
        } else {
            self.words.extend([MEM | pos, line_off, line_len]);
        }
        self.n_ops += 1;
    }

    /// Returns the ops pushed so far as a new stream over `pool`, its words
    /// copied out at exact size, and empties `self` but keeps its word
    /// buffer. The decoder builds every stream in one such scratch stream,
    /// so no decoded stream carries a growing buffer's spare capacity.
    pub fn take_with_pool(&mut self, pool: Vec<LineAddr>) -> WarpStream {
        debug_assert!(self.lines.is_empty(), "a scratch stream has no pool of its own");
        let s =
            WarpStream { words: self.words.as_slice().to_vec(), n_ops: self.n_ops, lines: pool };
        self.words.clear();
        self.n_ops = 0;
        s
    }

    /// Number of ops (dynamic instructions).
    pub fn len(&self) -> usize {
        self.n_ops
    }

    /// True when the stream holds no op.
    pub fn is_empty(&self) -> bool {
        self.n_ops == 0
    }

    /// Decodes the op at word index `at`, returning it with the word index
    /// of the op after it. `at` must be a cursor this stream handed out
    /// (0, or a value `op_at` returned) and not past the last op.
    #[inline]
    pub fn op_at(&self, at: u32) -> (TraceOp, u32) {
        let i = at as usize;
        let w = self.words[i];
        if w & MEM == 0 {
            (TraceOp { pos: w, line_off: 0, line_len: 0 }, at + 1)
        } else {
            let op =
                TraceOp { pos: w & !MEM, line_off: self.words[i + 1], line_len: self.words[i + 2] };
            (op, at + 3)
        }
    }

    /// Body position of the op at word index `at`, or `None` when `at` is
    /// the end of the stream.
    #[inline]
    pub fn pos_at(&self, at: u32) -> Option<u32> {
        self.words.get(at as usize).map(|&w| w & !MEM)
    }

    /// The ops in issue order.
    pub fn ops(&self) -> impl Iterator<Item = TraceOp> + '_ {
        let mut at = 0u32;
        std::iter::from_fn(move || {
            self.pos_at(at)?;
            let (op, next) = self.op_at(at);
            at = next;
            Some(op)
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
    /// against the grid, no empty stream, and every op against the stub
    /// body and its stream's pool ([`TraceOp::check`]).
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
        for (si, s) in self.streams.iter().enumerate() {
            if s.is_empty() {
                return Err(format!("stream {si} is empty"));
            }
            for (oi, op) in s.ops().enumerate() {
                op.check(&self.stub.body, s.pool().len())
                    .map_err(|e| format!("stream {si} op {oi}: {e}"))?;
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

    fn valid_rep() -> ReplayKernel {
        let mut s = WarpStream::default();
        s.push(0, &[LineAddr(42)]);
        s.push(1, &[]);
        rep_of(s)
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
        let mut s = WarpStream::default();
        s.push(99, &[LineAddr(42)]);
        assert!(rep_of(s).validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn line_slice_overflow_rejected() {
        let mut s = WarpStream::default();
        s.push_ref(0, 0, 7);
        let r = rep_of(s.take_with_pool(vec![LineAddr(42)]));
        assert!(r.validate().unwrap_err().contains("exceeds pool"));
    }

    #[test]
    fn kind_mismatch_rejected() {
        // The ALU consumer at pos 1 must not carry lines.
        let mut s = WarpStream::default();
        s.push(0, &[LineAddr(42)]);
        s.push(1, &[LineAddr(43)]);
        assert!(rep_of(s).validate().unwrap_err().contains("ALU op carries"));
        // A memory op with zero lines is legal (sparse-pattern skip).
        let mut s = WarpStream::default();
        s.push(0, &[]);
        s.push(1, &[]);
        assert!(rep_of(s).validate().is_ok());
    }

    #[test]
    fn words_round_trip_ops_and_cursors() {
        let mut s = WarpStream::default();
        s.push(3, &[]);
        s.push(MAX_OP_POS, &[LineAddr(7), LineAddr(8)]);
        s.push(0, &[]);
        s.push(5, &[LineAddr(9)]);
        assert_eq!(s.len(), 4);
        let want = [
            TraceOp { pos: 3, line_off: 0, line_len: 0 },
            TraceOp { pos: MAX_OP_POS, line_off: 0, line_len: 2 },
            TraceOp { pos: 0, line_off: 0, line_len: 0 },
            TraceOp { pos: 5, line_off: 2, line_len: 1 },
        ];
        assert_eq!(s.ops().collect::<Vec<_>>(), want);
        // Cursors are word indices: one word per op without lines, three
        // per op with lines.
        let mut at = 0;
        for (op, next) in want.iter().zip([1, 4, 5, 8]) {
            assert_eq!(s.pos_at(at), Some(op.pos));
            assert_eq!(s.op_at(at), (*op, next));
            at = next;
        }
        assert_eq!(s.pos_at(at), None);
        assert_eq!(s.lines(want[1]), &[LineAddr(7), LineAddr(8)]);
        assert_eq!(s.pool().len(), 3);
    }

    #[test]
    fn take_with_pool_copies_out_and_resets_scratch() {
        let mut scratch = WarpStream::default();
        scratch.push_ref(0, 0, 1);
        scratch.push_ref(1, 0, 0);
        let s = scratch.take_with_pool(vec![LineAddr(42)]);
        assert_eq!(s, valid_rep().streams[0]);
        assert!(scratch.is_empty());
        assert_eq!(scratch.pos_at(0), None);
    }

    #[test]
    #[should_panic(expected = "does not fit an op word")]
    fn body_position_past_limit_panics() {
        WarpStream::default().push(MAX_OP_POS + 1, &[]);
    }

    #[test]
    fn resident_ctas_respects_register_limit() {
        let cfg = GpuConfig::default();
        let k = KernelBuilder::new("r").grid(64, 8).regs_per_thread(64).alu(1).build().unwrap();
        // 8 warps x 64 regs = 512 regs/CTA; a 2048-reg file fits 4.
        assert_eq!(resident_ctas(&cfg, &k), cfg.warp_regs_per_sm() / 512);
    }
}

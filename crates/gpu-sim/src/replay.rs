//! Trace-replay workload frontend: per-warp instruction/address streams.
//!
//! The synthetic frontend generates each warp's addresses on the fly from an
//! [`AccessPattern`](crate::pattern::AccessPattern); the replay frontend
//! instead feeds every warp a pre-recorded stream — captured from a synthetic
//! run ([`crate::gpu::capture_kernel`]) or imported from an external
//! SASS-style text trace (the `lb-replay` crate). A [`ReplayKernel`] pairs a
//! plain [`KernelSpec`] *stub* (grid shape, resources, static body — the
//! header every policy transform reads) with one stream per warp of the
//! grid: the warp's dynamic instruction sequence as runs of stub body
//! positions, plus the coalesced line addresses of its memory operations.
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
//! A stream stores nothing per ALU op. Its ops are a list of [`Run`]s: a
//! run `(start, count)` is `count` ops at consecutive body positions from
//! `start`, wrapping to 0 past the body's end — the walk
//! [`WarpSlab::advance`](crate::warp::WarpSlab::advance) makes for a
//! synthetic warp. A captured stream of any trip count is therefore one
//! run, and an imported trace adds one run per taken branch. Each op at a
//! Load/Store body position owns one access record, a slice of the
//! kernel's line pool, in issue order; a memory op whose access touched no
//! lines (a sparse pattern skipped the instance) owns a lineless one.
//! Whether an op is a memory op is read from the stub body:
//! [`WarpStream::ops`] walks the runs through it and yields the decoded
//! [`TraceOp`] view, op by op.
//!
//! # Kernel layout
//!
//! A [`ReplayKernel`] keeps all its streams in four flat arrays: the runs
//! of every stream back to back; the record bytes of every stream back to
//! back, exactly as an `LBW1` file codes them; one deduplicated line pool;
//! and per stream the index of its first run, the offset of its first
//! record byte and its first fresh pool line (a [`RecordCursor`]).
//! [`ReplayKernel::stream`] lends one stream out as a [`WarpStream`], a
//! view whose [`WarpStream::runs`], [`WarpStream::records`] and
//! [`WarpStream::ops`] read the arrays in place. Capture and import record
//! each stream in a [`StreamBuilder`] of its own, and
//! [`ReplayKernel::from_streams`] codes the finished streams; the `LBW1`
//! decoder checks and copies a file's stream sections through a
//! [`KernelReader`]. Both build the same kernel from the same streams, so
//! a capture equals its own decode.
//!
//! # Record bytes
//!
//! Every record of every stream is coded against one kernel-wide line
//! pool, filled in record order. A record starts with a LEB128 head `h`:
//!
//! - `h = 0`: an access of no line;
//! - `h = 2·len + 1`: *fresh*, `len` zigzag line deltas follow, and the
//!   lines are appended to the pool. The first line is coded against the
//!   first line of the previous non-empty record at the same body position
//!   (0 before any), each later line against the line before it;
//! - `h = 2·len`: a *repeat*, `off` follows, and the lines are
//!   `pool[off .. off + len]` of the pool so far.
//!
//! `h = 1`, a fresh record of no lines, is malformed. A stream's fresh
//! records fill one contiguous stretch of the pool, so a reader never needs
//! the delta bases: a [`RecordCursor`] (the byte offset of the next record
//! and the stream's next fresh pool line) reads a fresh record's lines at
//! its pool cursor, skips its deltas and moves both cursors on, and reads a
//! repeat's lines at `off`. [`ReplayKernel::read_record`] is that step; a
//! replayed warp keeps its cursor in a slab column, so the SM reads a
//! record only when the warp issues a memory instruction.
//!
//! [`ReplayKernel::from_streams`] writes a record as a repeat when its lines
//! equal those of a fresh record written before, found in a compact table
//! (`FreshSlices`) sized from the kernel's record count. Every decision
//! depends on the records' lines alone, so the bytes are canonical: any
//! split of the same ops into runs and builders codes the same records.
//! The cursors bound a kernel to [`MAX_POOL_LINES`] pool lines and
//! [`MAX_RECORD_BYTES`] record bytes. The decoder rejects a file that
//! passes either bound with a typed error; capture and import, which would
//! need tens of GB of lines to pass them, panic.
//!
//! # Capture recorders
//!
//! A capture run records each warp in a [`StreamBuilder`] of its own. An SM
//! holds one `(grid stream id, builder)` pair per warp it launched, in
//! launch order, and a warp-slab column gives each slot the index of its
//! recorder. The column is not the slab's stream column: when a replay is
//! re-captured (`lb-replay selftest`), that one holds the replay stream id.
//! The GPU merges the recorders into grid order at the end of the run and
//! is dropped before the streams are coded, so capture costs memory in the
//! grid's warps, not in SMs times warps, and a grid of several dispatch
//! waves records each stream once, on the SM that ran it.
//!
//! A builder keeps its runs and each access coded as a fresh record codes
//! its lines, without the head's fresh bit: a uvarint line count, then
//! zigzag deltas, the first line against the first line of the stream's
//! previous non-empty access at the same body position and each later one
//! against the line before it. It keeps one delta base per body position
//! that has held a non-empty access, so an access of one line near the
//! last one at its position takes two or three bytes instead of a 4-byte
//! length and an 8-byte line. [`ReplayKernel::from_streams`] reads each
//! builder back one access at a time, its delta bases indexed by the
//! memory index the runs give each access in the stub body. A stream
//! therefore reads back as pushed when it gives an access to exactly the
//! ops at the stub's Load/Store positions, as capture and import do; in
//! debug builds, the GPU checks at the end of a capture that each recorder
//! holds one access per memory op of its runs.
//!
//! # Checks
//!
//! [`ReplayKernel::validate`] and the `LBW1` decoder share two checks and
//! one reader. The run check ([`RunCheck`]) takes each run once: it must
//! start inside the body and hold at least one op, and its memory ops (the
//! access records it owns) are counted in O(1) from a prefix count of the
//! body's Load/Store positions. The reader takes each run with that count
//! and walks the run's memory indices with a counter, from the rank of its
//! first Load/Store, so each record gets its body position (the ranks
//! [`RunCheck::mem_indices`] yields) without walking ALU ops. The record
//! check ([`check_record`]) takes each access record: at most
//! [`MAX_LINES_PER_RECORD`] lines, in a slice inside the pool so far and
//! below [`MAX_POOL_LINES`]. The reader decodes a stream's record bytes
//! through it, rebuilding its fresh lines; `validate` compares the rebuilt
//! pool with the kernel's. Nothing walks ops, so a check costs what the
//! kernel stores, never what it declares: a run of 2^32 - 1 ops is checked
//! as fast as a run of one.
//!
//! The reader takes each record in one of two steps, and the record's bytes
//! alone choose which. The fast step reads a whole well-formed record whose
//! varints take at most three bytes, with plain slice reads and the record
//! check as integer compares. Any other record (a longer varint, the end of
//! the input, a fault) leaves the pool and the byte cursor as they were,
//! and the checked step, out of line, reads it a varint at a time through
//! [`get_uvarint`] and [`check_record`]: it accepts the record or returns
//! its [`RecordFault`]. The reader therefore accepts and rejects exactly
//! what the checked step alone would, with the same faults.

use crate::config::GpuConfig;
use crate::fastmap::FxHasher64;
use crate::kernel::{InstKind, KernelSpec, StaticInst};
use crate::types::{Cycle, LineAddr};
use lb_trace::put_uvarint;
use std::hash::Hasher;

/// Body length for a [`StreamBuilder`] whose body grows while it records
/// (import): the most instructions a body may have, so a run can wrap only
/// at the end of a body that long, where the body walk wraps as well.
pub const GROWING_BODY: u32 = u32::MAX;

/// Most lines a kernel's pool holds: every pool offset, a record cursor's
/// fresh line included, fits a `u32`.
pub const MAX_POOL_LINES: u64 = u32::MAX as u64;

/// Most record bytes a kernel holds: a record cursor's byte offset fits a
/// `u32`.
pub const MAX_RECORD_BYTES: u64 = u32::MAX as u64;

/// One dynamic instruction of a warp's replay stream, decoded.
///
/// `pos` indexes the stub kernel's `body`; the static instruction there
/// supplies the kind, latency, PC and scoreboard edge. Memory operations
/// carry their coalesced line addresses as a `line_off .. line_off +
/// line_len` slice of the kernel's line pool; an op without lines has
/// `line_off == line_len == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Index into the stub kernel's `body`.
    pub pos: u32,
    /// First line of this access in the kernel's line pool.
    pub line_off: u32,
    /// Number of coalesced lines (0 for ALU operations).
    pub line_len: u32,
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

/// A reader's place in a kernel's record bytes (see the module docs): the
/// byte offset of the next record and the pool line the next fresh record
/// starts at.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordCursor {
    /// Offset of the next record in the kernel's record bytes.
    pub byte: u32,
    /// Pool line of the next fresh record's first line.
    pub fresh: u32,
}

/// Where a stream starts in the kernel's arrays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StreamStart {
    /// Index of its first run.
    run: u32,
    /// Its first record byte and first fresh pool line.
    records: RecordCursor,
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

/// The recorded execution of one warp, borrowed from its kernel's arrays:
/// its runs of body positions and one access record per memory op (layout
/// in the module docs). [`ReplayKernel::stream`] lends it out.
#[derive(Debug, Clone, Copy)]
pub struct WarpStream<'a> {
    /// The kernel whose arrays hold the stream.
    rep: &'a ReplayKernel,
    /// The stream's index in the kernel.
    id: usize,
}

impl<'a> WarpStream<'a> {
    /// Number of ops (dynamic instructions).
    pub fn len(&self) -> usize {
        self.runs().iter().map(|r| r.count as usize).sum()
    }

    /// True when the stream holds no op.
    pub fn is_empty(&self) -> bool {
        self.runs().is_empty()
    }

    /// The runs in issue order.
    #[inline]
    pub fn runs(&self) -> &'a [Run] {
        let s = &self.rep.starts;
        &self.rep.runs[s[self.id].run as usize..s[self.id + 1].run as usize]
    }

    /// The cursor at the stream's first record.
    #[inline]
    pub fn cursor(&self) -> RecordCursor {
        self.rep.starts[self.id].records
    }

    /// The cursor past the stream's last record: its record bytes' end and
    /// the next stream's first fresh pool line.
    #[inline]
    pub fn end(&self) -> RecordCursor {
        self.rep.starts[self.id + 1].records
    }

    /// The stream's record bytes, as an `LBW1` file codes them.
    pub fn record_bytes(&self) -> &'a [u8] {
        &self.rep.bytes[self.cursor().byte as usize..self.end().byte as usize]
    }

    /// Each access record's `(line_off, line_len)` pool slice, in issue
    /// order: `(0, 0)` when lineless.
    pub fn records(&self) -> impl Iterator<Item = (u32, u32)> + 'a {
        let (rep, mut cur, end) = (self.rep, self.cursor(), self.end().byte);
        std::iter::from_fn(move || (cur.byte < end).then(|| rep.read_span(&mut cur)))
    }

    /// Number of access records (memory ops).
    pub fn n_accesses(&self) -> usize {
        self.records().count()
    }

    /// The coalesced lines of each access record, in issue order.
    pub fn accesses(&self) -> impl Iterator<Item = &'a [LineAddr]> + 'a {
        let rep = self.rep;
        self.records().map(move |span| rep.pool_slice(span))
    }

    /// The ops in issue order, walked through the stub `body`: each run
    /// steps its body position, and each op at a Load/Store position takes
    /// the next access record. Never panics; on a stream that does not fit
    /// `body`, which [`ReplayKernel::validate`] rejects, the ops past a
    /// missing record read as lineless.
    pub fn ops(&self, body: &'a [StaticInst]) -> impl Iterator<Item = TraceOp> + 'a {
        let body_len = body.len() as u32;
        let mut records = self.records();
        self.runs()
            .iter()
            .flat_map(move |r| {
                std::iter::successors(Some(r.start), move |&p| Some(next_pos(p, body_len)))
                    .take(r.count as usize)
            })
            .map(move |pos| {
                let mem =
                    body.get(pos as usize).is_some_and(|i| !matches!(i.kind, InstKind::Alu { .. }));
                let (line_off, line_len) =
                    if mem { records.next().unwrap_or((0, 0)) } else { (0, 0) };
                TraceOp { pos, line_off, line_len }
            })
    }

    /// The coalesced lines of `op`, one of this stream's ops.
    #[inline]
    pub fn lines(&self, op: TraceOp) -> &'a [LineAddr] {
        self.rep.pool_slice((op.line_off, op.line_len))
    }
}

/// Records one stream op by op, for capture and import, where the ops of
/// all warps arrive interleaved. A run extends the last one when it starts at the
/// body position after the last run's last op, and opens a run otherwise,
/// so any split of a walk into runs builds the same stream. Capture and
/// import push op by op ([`StreamBuilder::push`]) and hand the finished
/// builders to [`ReplayKernel::from_streams`]; the `LBW1` decoder merges
/// each stream's runs the same way ([`KernelReader::push_run`]).
/// Each access is kept coded as line deltas (layout in the module docs).
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    /// Runs in issue order.
    runs: Vec<Run>,
    /// Every access, coded, in issue order.
    bytes: Vec<u8>,
    /// Accesses pushed.
    accesses: usize,
    /// The delta bases: `(body position, first line)` of the last
    /// non-empty access at each position that has held one, by position.
    bases: Vec<(u32, u64)>,
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
        StreamBuilder {
            runs: Vec::new(),
            bytes: Vec::new(),
            accesses: 0,
            bases: Vec::new(),
            body_len,
            next: 0,
        }
    }

    /// True when no op has been pushed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The runs pushed so far.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Number of accesses pushed (memory ops).
    pub fn n_accesses(&self) -> usize {
        self.accesses
    }

    /// Bytes the builder's arrays hold: runs, coded accesses and delta
    /// bases. Counted from lengths, not capacities, as
    /// [`ReplayKernel::heap_bytes`] counts.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.runs[..]) + size_of_val(&self.bytes[..]) + size_of_val(&self.bases[..])
    }

    /// Appends an op at body position `pos`: `access` is `Some(lines)` for
    /// an op at a Load or Store position (`lines` may be empty) and `None`
    /// for an ALU op. The lines are coded onto the builder's bytes; they
    /// read back as pushed when every op at a Load/Store position of the
    /// stub body, and no other op, has an access, as capture and import
    /// push them.
    pub fn push(&mut self, pos: u32, access: Option<&[LineAddr]>) {
        self.push_run(Run { start: pos, count: 1 });
        let Some(lines) = access else { return };
        self.accesses += 1;
        put_uvarint(&mut self.bytes, lines.len() as u64);
        let Some(&first) = lines.first() else { return };
        let i = self.bases.binary_search_by_key(&pos, |&(p, _)| p).unwrap_or_else(|i| {
            self.bases.insert(i, (pos, 0));
            i
        });
        put_deltas(&mut self.bytes, self.bases[i].1, lines);
        self.bases[i].1 = first.0;
    }

    /// Reads the coded access at byte `*p` into `lines`, its first line
    /// against `*base`, which takes that line when there is one, and moves
    /// `*p` past it.
    fn read_access(&self, p: &mut usize, base: &mut u64, lines: &mut Vec<LineAddr>) {
        lines.clear();
        let len = read_uvarint(&self.bytes, p);
        let mut line = *base;
        for _ in 0..len {
            let zz = read_uvarint(&self.bytes, p);
            line = line.wrapping_add((zz >> 1) ^ (zz & 1).wrapping_neg());
            lines.push(LineAddr(line));
        }
        if let Some(&first) = lines.first() {
            *base = first.0;
        }
    }

    /// Appends `run`, merged into the last run when it continues it and
    /// the merged count fits a `u32`.
    pub fn push_run(&mut self, run: Run) {
        match self.runs.last_mut() {
            Some(last) if run.start == self.next && last.count.checked_add(run.count).is_some() => {
                last.count += run.count;
            }
            _ => self.runs.push(run),
        }
        // The position `count` steps of the body walk past `start`.
        let after = u64::from(run.start) + u64::from(run.count);
        self.next = (after % u64::from(self.body_len.max(1))) as u32;
    }
}

/// Upper bound on the coalesced lines of one access record: a 32-lane warp
/// touching wide vectors stays far below it, so a longer record is corrupt
/// or adversarial.
pub const MAX_LINES_PER_RECORD: u64 = 1024;

/// Why the run check ([`RunCheck::run`]), the record check
/// ([`check_record`]) or the record reader rejected a run or an access
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFault {
    /// A run starts at `.0`, at or past the end of a body of `.1`
    /// instructions.
    RunStart(u32, u64),
    /// A run holds no op.
    EmptyRun,
    /// A record claims `.0` lines, more than [`MAX_LINES_PER_RECORD`].
    OverlongRecord(u64),
    /// A record's line slice `.0 .. .0 + .1` ends past a pool of `.2`
    /// lines.
    PastPool(u64, u64, usize),
    /// A record's line slice `.0 .. .0 + .1` ends past [`MAX_POOL_LINES`].
    PoolLimit(u64, u64),
    /// A fresh record of no lines (`h = 1`).
    FreshWithoutLines,
    /// The bytes ended mid-record, at byte `.0`.
    Truncated(usize),
    /// A varint starting at byte `.0` runs past 64 bits.
    VarintOverflow(usize),
    /// The kernel's record bytes pass [`MAX_RECORD_BYTES`], or its runs
    /// 2^32 - 1.
    KernelLimit,
}

impl std::fmt::Display for StreamFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StreamFault::RunStart(start, body_len) => {
                write!(f, "run start {start} out of range (body of {body_len})")
            }
            StreamFault::EmptyRun => write!(f, "zero-length run"),
            StreamFault::OverlongRecord(lines) => {
                write!(f, "record claims {lines} lines (max {MAX_LINES_PER_RECORD})")
            }
            StreamFault::PastPool(off, len, pool_len) => {
                let end = off.saturating_add(len);
                write!(f, "line slice {off}..{end} exceeds pool of {pool_len}")
            }
            StreamFault::PoolLimit(off, len) => {
                let end = off.saturating_add(len);
                write!(f, "line slice {off}..{end} passes the pool limit of {MAX_POOL_LINES} lines")
            }
            StreamFault::FreshWithoutLines => write!(f, "fresh record of no lines (h = 1)"),
            StreamFault::Truncated(at) => write!(f, "truncated input at byte {at}"),
            StreamFault::VarintOverflow(at) => write!(f, "varint overflow at byte {at}"),
            StreamFault::KernelLimit => {
                write!(f, "the kernel passes {MAX_RECORD_BYTES} record bytes or runs")
            }
        }
    }
}

/// A record that failed to read: the fault, the record's index in its
/// stream and the byte it starts at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordFault {
    /// Why the record was rejected.
    pub fault: StreamFault,
    /// Index of the record in its stream.
    pub record: u64,
    /// Offset of the record's first byte in the bytes read.
    pub at: usize,
}

/// The run check, over one stub body (see the module docs).
#[derive(Debug, Clone)]
pub struct RunCheck {
    /// `mem_before[p]`: Load/Store instructions among body positions
    /// `0..p`, for `p` up to the body length.
    mem_before: Vec<u64>,
}

impl RunCheck {
    /// Prefix-counts the Load/Store positions of `body`.
    pub fn new(body: &[StaticInst]) -> Self {
        let mut mem_before = Vec::with_capacity(body.len() + 1);
        let mut n = 0;
        mem_before.push(n);
        for inst in body {
            n += u64::from(!matches!(inst.kind, InstKind::Alu { .. }));
            mem_before.push(n);
        }
        RunCheck { mem_before }
    }

    /// Checks that `run` starts inside the body and holds at least one op,
    /// and returns its memory ops, without walking it.
    #[inline]
    pub fn run(&self, run: Run) -> Result<u64, StreamFault> {
        let body_len = self.mem_before.len() as u64 - 1;
        let (start, count) = (u64::from(run.start), u64::from(run.count));
        if start >= body_len {
            return Err(StreamFault::RunStart(run.start, body_len));
        }
        if count == 0 {
            return Err(StreamFault::EmptyRun);
        }
        let before = |p: u64| self.mem_before[p as usize];
        // The walk up to the body's end, then whole trips, then a head.
        let first = count.min(body_len - start);
        let (trips, head) = ((count - first) / body_len, (count - first) % body_len);
        Ok(before(start + first) - before(start) + trips * before(body_len) + before(head))
    }

    /// Number of Load/Store positions in the body.
    #[inline]
    pub fn n_mem(&self) -> usize {
        self.mem_before[self.mem_before.len() - 1] as usize
    }

    /// The memory index of each memory op of `run`, in issue order: its
    /// rank among the body's Load/Store positions, in body order. The
    /// first is the rank of the first Load/Store at or after `run.start`,
    /// and each later one the next rank, wrapping to 0 as the walk wraps
    /// the body, so each access record's body position follows from its
    /// run without walking ALU ops. Empty for a run the check rejects.
    pub fn mem_indices(&self, run: Run) -> impl Iterator<Item = usize> {
        let n_mem = self.n_mem();
        let n = self.run(run).unwrap_or(0);
        let first = self.first_mem_index(run.start);
        std::iter::successors(Some(first), move |&k| Some(if k + 1 == n_mem { 0 } else { k + 1 }))
            .take(usize::try_from(n).unwrap_or(usize::MAX))
    }

    /// The memory index of the first memory op of a run from body position
    /// `start`: the rank of the first Load/Store at or after `start`, or 0
    /// when the walk wraps the body before it meets one.
    #[inline]
    fn first_mem_index(&self, start: u32) -> usize {
        match self.mem_before.get(start as usize) {
            Some(&k) if (k as usize) < self.n_mem() => k as usize,
            _ => 0,
        }
    }
}

/// The record check: access record `(line_off, line_len)` of a kernel
/// whose pool holds `pool_len` lines so far claims at most
/// [`MAX_LINES_PER_RECORD`] lines, in a slice inside the pool that ends at
/// or before [`MAX_POOL_LINES`]. Returns the record's pool slice, `(0, 0)`
/// when lineless.
#[inline]
pub fn check_record(
    line_off: u64,
    line_len: u64,
    pool_len: usize,
) -> Result<(u32, u32), StreamFault> {
    if line_len > MAX_LINES_PER_RECORD {
        return Err(StreamFault::OverlongRecord(line_len));
    }
    if line_len == 0 {
        return Ok((0, 0));
    }
    let end = line_off.saturating_add(line_len);
    if end <= (pool_len as u64).min(MAX_POOL_LINES) {
        // The end fits a u32, so the offset does too.
        Ok((line_off as u32, line_len as u32))
    } else if end <= pool_len as u64 {
        Err(StreamFault::PoolLimit(line_off, line_len))
    } else {
        Err(StreamFault::PastPool(line_off, line_len, pool_len))
    }
}

/// Reads a LEB128 uvarint at `*pos` and moves past it: the wire primitive
/// of `LBW1` files and of record bytes.
#[inline]
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, StreamFault> {
    // Most values (record heads, run counts, small line deltas) fit one
    // byte: read those in one branch.
    if let Some(&b) = buf.get(*pos).filter(|&&b| b < 0x80) {
        *pos += 1;
        return Ok(u64::from(b));
    }
    let start = *pos;
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return Err(StreamFault::Truncated(buf.len()));
        };
        // A u64 takes at most ten bytes; the tenth may only hold bit 63.
        if shift == 63 && b > 1 {
            return Err(StreamFault::VarintOverflow(start));
        }
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Bytes [`put_uvarint`] writes for `v`.
pub fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

fn put_zigzag(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends the zigzag deltas of non-empty `lines`: the first against
/// `base`, each later one against the line before it.
fn put_deltas(buf: &mut Vec<u8>, base: u64, lines: &[LineAddr]) {
    put_zigzag(buf, lines[0].0.wrapping_sub(base) as i64);
    for w in lines.windows(2) {
        put_zigzag(buf, w[1].0.wrapping_sub(w[0].0) as i64);
    }
}

#[inline]
fn get_zigzag(buf: &[u8], pos: &mut usize) -> Result<i64, StreamFault> {
    let raw = get_uvarint(buf, pos)?;
    Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
}

/// Reads a uvarint of bytes a checked reader has already accepted, and
/// moves past it.
#[inline]
fn read_uvarint(bytes: &[u8], p: &mut usize) -> u64 {
    let b = bytes[*p];
    *p += 1;
    if b < 0x80 {
        return u64::from(b);
    }
    let (mut v, mut shift) = (u64::from(b & 0x7f), 7);
    loop {
        let b = bytes[*p];
        *p += 1;
        v |= u64::from(b & 0x7f).wrapping_shl(shift);
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Reads the access records of one stream from `buf` at `*pos`, in one
/// pass, and returns how many it read. `runs` holds each run of the stream
/// with its memory ops, as the run check counted them, and a counter walks
/// each run's memory indices from the first
/// ([`RunCheck::first_mem_index`]): each record's index picks its delta base
/// in `base`, one per Load/Store position, updated as the records pass.
/// Records go through the fast step ([`RecordReader::read_fast`]), and a
/// record it cannot take through the checked step, which accepts it or
/// returns its fault. A fresh record's lines are appended to `pool`.
fn read_records(
    buf: &[u8],
    pos: &mut usize,
    check: &RunCheck,
    runs: &[(Run, u64)],
    base: &mut [u64],
    pool: &mut Vec<LineAddr>,
) -> Result<u64, RecordFault> {
    let mut reader = RecordReader { buf, base, pool };
    let mut record = 0;
    for &(run, n) in runs {
        let (mut k, end) = (check.first_mem_index(run.start), record + n);
        while record < end {
            let (p, next, read) = reader.read_fast(*pos, k, end - record);
            (*pos, k, record) = (p, next, record + read);
            if record < end {
                let at = *pos;
                read_record_checked(buf, pos, &mut reader.base[k], reader.pool)
                    .map_err(|fault| RecordFault { fault, record, at })?;
                record += 1;
                k = if k + 1 == reader.base.len() { 0 } else { k + 1 };
            }
        }
    }
    Ok(record)
}

/// What the record reader carries from record to record: the bytes, the
/// delta base of each Load/Store position and the pool.
struct RecordReader<'a> {
    buf: &'a [u8],
    base: &'a mut [u64],
    pool: &'a mut Vec<LineAddr>,
}

impl RecordReader<'_> {
    /// The fast step over up to `n` records at byte `p`, the first at
    /// memory index `k`: reads records until `n` are read or one is not
    /// for the fast step ([`read_record_fast`]), and returns the byte and
    /// the memory index after the records read, and how many it read. Out
    /// of line, so that its loop holds its state in registers.
    #[inline(never)]
    fn read_fast(&mut self, mut p: usize, mut k: usize, n: u64) -> (usize, usize, u64) {
        let mut left = n;
        while left > 0 {
            match read_record_fast(self.buf, p, &mut self.base[k], self.pool) {
                Some(end) => p = end,
                None => break,
            }
            left -= 1;
            k = if k + 1 == self.base.len() { 0 } else { k + 1 };
        }
        (p, k, n - left)
    }
}

/// Reads a uvarint of at most three bytes at `p`: the value and the offset
/// past it, or `None` when the bytes end first or the varint is longer.
#[inline(always)]
fn short_uvarint(buf: &[u8], p: usize) -> Option<(u64, usize)> {
    let b0 = u64::from(*buf.get(p)?);
    if b0 < 0x80 {
        return Some((b0, p + 1));
    }
    let b1 = u64::from(*buf.get(p + 1)?);
    if b1 < 0x80 {
        return Some(((b0 & 0x7f) | b1 << 7, p + 2));
    }
    let b2 = u64::from(*buf.get(p + 2)?);
    (b2 < 0x80).then_some(((b0 & 0x7f) | (b1 & 0x7f) << 7 | b2 << 14, p + 3))
}

/// Reads the record at `p` when it is whole, passes the record check and
/// codes every varint in at most three bytes, updates its delta base
/// `base`, and returns the offset past it. Otherwise returns `None` and
/// leaves `base` and `pool` as they were, so that the checked step can read
/// the record afresh. A repeat's offset is below 2^21 here, so a slice
/// inside the pool also ends below [`MAX_POOL_LINES`], and the record check
/// is two integer compares per record.
#[inline(always)]
fn read_record_fast(
    buf: &[u8],
    p: usize,
    base: &mut u64,
    pool: &mut Vec<LineAddr>,
) -> Option<usize> {
    let (h, p) = short_uvarint(buf, p)?;
    let len = h >> 1;
    if h & 1 == 1 {
        // Fresh: 1 to MAX_LINES_PER_RECORD lines, below the pool limit.
        let mark = pool.len();
        if len.wrapping_sub(1) >= MAX_LINES_PER_RECORD || mark as u64 + len > MAX_POOL_LINES {
            return None;
        }
        let (zz, mut p) = short_uvarint(buf, p)?;
        let first = base.wrapping_add((zz >> 1) ^ (zz & 1).wrapping_neg());
        pool.push(LineAddr(first));
        let mut line = first;
        for _ in 1..len {
            let Some((zz, next)) = short_uvarint(buf, p) else {
                pool.truncate(mark);
                return None;
            };
            line = line.wrapping_add((zz >> 1) ^ (zz & 1).wrapping_neg());
            pool.push(LineAddr(line));
            p = next;
        }
        *base = first;
        Some(p)
    } else if h != 0 {
        // A repeat: `off` must name lines already in the pool.
        let (off, p) = short_uvarint(buf, p)?;
        if len > MAX_LINES_PER_RECORD || off + len > pool.len() as u64 {
            return None;
        }
        *base = pool[off as usize].0;
        Some(p)
    } else {
        Some(p)
    }
}

/// The checked step: reads the record at `*pos` a varint at a time, each
/// through [`get_uvarint`], and puts it through the record check
/// ([`check_record`]). It takes what the fast step leaves, whether a long
/// varint or a fault, so its faults are the reader's.
#[cold]
#[inline(never)]
fn read_record_checked(
    buf: &[u8],
    pos: &mut usize,
    base: &mut u64,
    pool: &mut Vec<LineAddr>,
) -> Result<(), StreamFault> {
    // h = 0, a lineless record, has nothing more to read.
    let h = get_uvarint(buf, pos)?;
    let len = h >> 1;
    if h & 1 == 1 {
        // Fresh: room for `len` more lines at the pool's end, below the pool
        // limit.
        let end = pool.len();
        let (_, len) = check_record(end as u64, len, end.saturating_add(len as usize))?;
        if len == 0 {
            return Err(StreamFault::FreshWithoutLines);
        }
        let mut line = base.wrapping_add(get_zigzag(buf, pos)? as u64);
        *base = line;
        pool.push(LineAddr(line));
        for _ in 1..len {
            line = line.wrapping_add(get_zigzag(buf, pos)? as u64);
            pool.push(LineAddr(line));
        }
    } else if h != 0 {
        // A repeat: `off` must name lines already in the pool.
        let off = get_uvarint(buf, pos)?;
        let (off, _) = check_record(off, len, pool.len())?;
        *base = pool[off as usize].0;
    }
    Ok(())
}

/// Counts the records of `bytes`, checking only that each is whole.
fn count_records(bytes: &[u8]) -> Result<u64, RecordFault> {
    let (mut pos, mut record) = (0, 0);
    while pos < bytes.len() {
        let at = pos;
        let fail = |fault| RecordFault { fault, record, at };
        let h = get_uvarint(bytes, &mut pos).map_err(fail)?;
        // A fresh record's deltas, or a repeat's offset.
        let varints = if h & 1 == 1 { h >> 1 } else { u64::from(h != 0) };
        for _ in 0..varints {
            get_uvarint(bytes, &mut pos).map_err(fail)?;
        }
        record += 1;
    }
    Ok(record)
}

/// Slots [`FreshSlices`] probes for one slice before writing it fresh.
const PROBES: usize = 16;

/// The record writer's index of the fresh records written so far, to find
/// repeats: an open-addressed table of `(pool offset, line count)` slots,
/// one per kernel record rounded up to a power of two, allocated once
/// before coding starts. A slice is looked up in at most [`PROBES`] slots
/// from its hash and checked against the pool; a new slice whose window is
/// full is written fresh and left out. Every decision depends on the
/// records' lines alone, so the coding stays canonical, and since colliding
/// slices can only lengthen the bytes, never slow a lookup, an unkeyed hash
/// is safe here.
struct FreshSlices {
    /// `(pool offset, line count)` of an indexed fresh record; a count of
    /// 0 marks an empty slot.
    slots: Vec<(u32, u32)>,
    /// Right shift taking a hash to a slot index (its top bits).
    shift: u32,
}

impl FreshSlices {
    fn new(n_records: usize) -> Self {
        let n = n_records.next_power_of_two().max(PROBES);
        FreshSlices { slots: vec![(0, 0); n], shift: 64 - n.trailing_zeros() }
    }

    /// The pool offset of an earlier fresh record holding `lines`;
    /// otherwise indexes `lines` as the fresh record about to be appended
    /// to `pool` and returns `None`.
    fn repeat_of(&mut self, pool: &[LineAddr], lines: &[LineAddr]) -> Option<u32> {
        let mut hasher = FxHasher64::default();
        for l in lines {
            hasher.write_u64(l.0);
        }
        let hash = hasher.finish();
        let mask = self.slots.len() - 1;
        let mut i = (hash >> self.shift) as usize;
        for _ in 0..PROBES {
            let (off, len) = self.slots[i];
            if len == 0 {
                // A slice starting past pool offset u32::MAX stays
                // unindexed: its repeats are written fresh.
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

/// Codes access records as record bytes (see the module docs): the delta
/// bases, one per Load/Store position and a last one for records an
/// invalid kernel's runs leave without a position, and the fresh-slice
/// table.
struct RecordWriter {
    base: Vec<u64>,
    fresh: FreshSlices,
}

impl RecordWriter {
    /// A writer for a body of `n_mem` Load/Store positions and a kernel of
    /// `n_records` access records.
    fn new(n_mem: usize, n_records: usize) -> Self {
        RecordWriter { base: vec![0; n_mem + 1], fresh: FreshSlices::new(n_records) }
    }

    /// Appends the record of `lines`, an access at memory index `k`, to
    /// `bytes`, and a fresh record's lines to `pool`.
    fn put(&mut self, bytes: &mut Vec<u8>, pool: &mut Vec<LineAddr>, k: usize, lines: &[LineAddr]) {
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
            put_deltas(bytes, self.base[k], lines);
            pool.extend_from_slice(lines);
        }
        self.base[k] = first.0;
    }
}

/// `n` as a `u32` offset into a kernel array; the kernel's limits keep
/// record bytes and pool lines below 2^32, and no input holds 2^32 runs.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("replay kernel arrays hold fewer than 2^32 entries")
}

/// A trace-driven workload: a kernel stub plus one stream per warp, held
/// in kernel-wide arrays (layout in the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayKernel {
    /// Grid shape, resources and static body. Policy transforms and
    /// occupancy read only this; the stub's `AccessPattern`s are never
    /// executed in replay (imported kernels carry placeholders).
    pub stub: KernelSpec,
    /// Every stream's runs, stream after stream.
    runs: Vec<Run>,
    /// Every stream's record bytes, stream after stream.
    bytes: Vec<u8>,
    /// The deduplicated line pool the records code.
    pool: Vec<LineAddr>,
    /// Where each stream starts, and a last entry where the last one ends.
    starts: Vec<StreamStart>,
}

impl ReplayKernel {
    /// A kernel of `stub` with no stream yet.
    pub fn new(stub: KernelSpec) -> Self {
        ReplayKernel {
            stub,
            runs: Vec::new(),
            bytes: Vec::new(),
            pool: Vec::new(),
            starts: vec![StreamStart::default()],
        }
    }

    /// A kernel of `stub` whose streams, indexed `cta_ordinal *
    /// warps_per_cta + lane`, are the ones `streams` recorded: each access
    /// read back at the Load/Store position its runs give it in the stub
    /// body, into one reused slice, and coded as an `LBW1` file codes it
    /// (see the module docs), each builder freed once coded.
    ///
    /// # Panics
    ///
    /// Panics when the kernel would pass [`MAX_POOL_LINES`] or
    /// [`MAX_RECORD_BYTES`].
    pub fn from_streams(stub: KernelSpec, streams: Vec<StreamBuilder>) -> Self {
        let check = RunCheck::new(&stub.body);
        let unplaced = check.n_mem();
        let n_records = streams.iter().map(|b| b.accesses).sum();
        let mut writer = RecordWriter::new(unplaced, n_records);
        let mut rep = ReplayKernel::new(stub);
        rep.runs.reserve_exact(streams.iter().map(|b| b.runs.len()).sum());
        rep.starts.reserve_exact(streams.len());
        // Each record takes at least a byte.
        rep.bytes.reserve(n_records);
        // A builder's delta bases, by memory index, as it keyed them by
        // body position, and the lines of the access read back.
        let (mut base, mut lines) = (vec![0; unplaced + 1], Vec::new());
        for b in streams {
            base.fill(0);
            let mut places = b.runs.iter().flat_map(|&r| check.mem_indices(r));
            let mut p = 0;
            for _ in 0..b.accesses {
                let k = places.next().unwrap_or(unplaced);
                b.read_access(&mut p, &mut base[k], &mut lines);
                writer.put(&mut rep.bytes, &mut rep.pool, k, &lines);
            }
            rep.runs.extend_from_slice(&b.runs);
            assert!(
                rep.pool.len() as u64 <= MAX_POOL_LINES
                    && rep.bytes.len() as u64 <= MAX_RECORD_BYTES,
                "a replay kernel holds at most {MAX_POOL_LINES} lines and {MAX_RECORD_BYTES} record bytes"
            );
            rep.close_stream();
        }
        rep.bytes.shrink_to_fit();
        rep.pool.shrink_to_fit();
        rep
    }

    /// Ends the stream whose runs and records were appended last.
    fn close_stream(&mut self) {
        let records =
            RecordCursor { byte: offset(self.bytes.len()), fresh: offset(self.pool.len()) };
        self.starts.push(StreamStart { run: offset(self.runs.len()), records });
    }

    /// Number of streams held.
    pub fn n_streams(&self) -> usize {
        self.starts.len() - 1
    }

    /// Stream `i`, indexed `cta_ordinal * warps_per_cta + lane`. Reading
    /// a stream past [`ReplayKernel::n_streams`] panics.
    #[inline]
    pub fn stream(&self, i: usize) -> WarpStream<'_> {
        WarpStream { rep: self, id: i }
    }

    /// Every stream, in index order.
    pub fn streams(&self) -> impl Iterator<Item = WarpStream<'_>> {
        (0..self.n_streams()).map(|i| self.stream(i))
    }

    /// The line pool the access records code.
    pub fn pool(&self) -> &[LineAddr] {
        &self.pool
    }

    /// The pool slice `(line_off, line_len)` of the record at `cur`, which
    /// moves past it; `(0, 0)` when lineless.
    #[inline]
    fn read_span(&self, cur: &mut RecordCursor) -> (u32, u32) {
        let bytes = &self.bytes;
        let mut p = cur.byte as usize;
        let h = read_uvarint(bytes, &mut p);
        let len = (h >> 1) as u32;
        let off = if h & 1 == 1 {
            // Fresh: the lines are the stream's next pool lines, and the
            // deltas that code them are skipped.
            let off = cur.fresh;
            cur.fresh += len;
            let mut left = len;
            while left > 0 {
                left -= u32::from(bytes[p] < 0x80);
                p += 1;
            }
            off
        } else if h != 0 {
            read_uvarint(bytes, &mut p) as u32
        } else {
            0
        };
        cur.byte = p as u32;
        (off, len)
    }

    /// The lines of the record at `cur`, which moves past it (see the
    /// module docs). `cur` must sit at a record of this kernel.
    #[inline]
    pub fn read_record(&self, cur: &mut RecordCursor) -> &[LineAddr] {
        let span = self.read_span(cur);
        self.pool_slice(span)
    }

    /// The lines of pool slice `(line_off, line_len)`.
    #[inline]
    fn pool_slice(&self, (line_off, line_len): (u32, u32)) -> &[LineAddr] {
        let off = line_off as usize;
        &self.pool[off..off + line_len as usize]
    }

    /// Bytes the kernel's arrays hold: record bytes, pool, runs and stream
    /// starts. Counted from lengths, not capacities, so the figure depends
    /// on the streams alone.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.bytes[..])
            + size_of_val(&self.pool[..])
            + size_of_val(&self.runs[..])
            + size_of_val(&self.starts[..])
    }

    /// Total warps in the grid (`grid_ctas * warps_per_cta`).
    pub fn total_streams(&self) -> usize {
        self.stub.grid_ctas as usize * self.stub.warps_per_cta as usize
    }

    /// Total dynamic instructions across all streams.
    pub fn dyn_insts(&self) -> u64 {
        self.runs.iter().map(|r| u64::from(r.count)).sum()
    }

    /// Validates internal consistency: the stub itself, the stream count
    /// against the grid, and per stream at least one run, every run
    /// through the run check ([`RunCheck`]), one whole record per memory op
    /// of the runs, and every record through the reader the decoder uses:
    /// the record check ([`check_record`]) against the pool so far, and
    /// fresh lines that rebuild the kernel's pool, each stream's at its
    /// first fresh line. Its cost follows the runs and records stored, not
    /// the ops declared.
    pub fn validate(&self) -> Result<(), String> {
        self.stub.validate()?;
        if self.n_streams() != self.total_streams() {
            return Err(format!(
                "stream count {} does not match grid {} CTAs x {} warps",
                self.n_streams(),
                self.stub.grid_ctas,
                self.stub.warps_per_cta
            ));
        }
        let check = RunCheck::new(&self.stub.body);
        let mut base = vec![0; check.n_mem()];
        let mut pool = Vec::with_capacity(self.pool.len());
        let mut runs = Vec::new();
        let fault = |si, f: RecordFault| format!("stream {si} record {}: {}", f.record, f.fault);
        for (si, s) in self.streams().enumerate() {
            if s.is_empty() {
                return Err(format!("stream {si} is empty"));
            }
            runs.clear();
            for (ri, &run) in s.runs().iter().enumerate() {
                let n = check.run(run).map_err(|e| format!("stream {si} run {ri}: {e}"))?;
                runs.push((run, n));
            }
            let mem_ops: u64 = runs.iter().map(|&(_, n)| n).sum();
            let bytes = s.record_bytes();
            let records = count_records(bytes).map_err(|f| fault(si, f))?;
            if mem_ops != records {
                return Err(format!(
                    "stream {si} has {records} access records for {mem_ops} memory ops"
                ));
            }
            if s.cursor().fresh as usize != pool.len() {
                return Err(format!(
                    "stream {si} starts at pool line {}, after {} fresh lines",
                    s.cursor().fresh,
                    pool.len()
                ));
            }
            read_records(bytes, &mut 0, &check, &runs, &mut base, &mut pool)
                .map_err(|f| fault(si, f))?;
        }
        let end = self.starts[self.n_streams()].records;
        if (end.byte as usize, end.fresh as usize) != (self.bytes.len(), pool.len()) {
            return Err(format!(
                "the streams end at record byte {} and pool line {}, of {} and {}",
                end.byte,
                end.fresh,
                self.bytes.len(),
                pool.len()
            ));
        }
        if pool != self.pool {
            let at = pool.iter().zip(&self.pool).take_while(|(a, b)| a == b).count();
            return Err(format!(
                "pool of {} lines differs at line {at} from the {} lines its records code",
                self.pool.len(),
                pool.len()
            ));
        }
        Ok(())
    }
}

/// Builds a [`ReplayKernel`] from `LBW1` stream sections in one validating
/// pass: each stream's runs go through the run check, then its record
/// bytes through the reader [`ReplayKernel::validate`] uses, which builds
/// the pool; the bytes are copied as they are. The `LBW1` decoder reads the
/// runs and hands each stream's record section over.
#[derive(Debug)]
pub struct KernelReader {
    /// The kernel read so far.
    rep: ReplayKernel,
    check: RunCheck,
    /// Per Load/Store position, the first line of the last non-empty
    /// record there: the delta base of the next fresh record.
    base: Vec<u64>,
    /// The open stream's runs, merged as [`StreamBuilder::push_run`] merges
    /// them, each with its memory ops.
    open: Vec<(Run, u64)>,
    /// Body position that extends the open stream's last run.
    next: u32,
    /// Memory ops of the open stream's runs.
    mem_ops: u64,
    /// Streams the kernel declares.
    n_streams: usize,
}

impl KernelReader {
    /// A reader of the streams of `stub`, `n_streams` of them, whose
    /// record sections take at most `max_bytes` bytes (a bound on what the
    /// record bytes can take, checked by the caller against its input).
    pub fn new(stub: KernelSpec, n_streams: usize, max_bytes: usize) -> Self {
        let check = RunCheck::new(&stub.body);
        let mut rep = ReplayKernel::new(stub);
        rep.starts.reserve_exact(n_streams);
        rep.runs.reserve(n_streams);
        rep.bytes.reserve(max_bytes);
        KernelReader {
            base: vec![0; check.n_mem()],
            check,
            rep,
            open: Vec::new(),
            next: 0,
            mem_ops: 0,
            n_streams,
        }
    }

    /// Appends `run` to the open stream, merged into its last run when it
    /// continues it and the merged count fits a `u32`, after the run check;
    /// returns the run's memory ops.
    pub fn push_run(&mut self, run: Run) -> Result<u64, StreamFault> {
        let n = self.check.run(run)?;
        self.mem_ops = self.mem_ops.saturating_add(n);
        match self.open.last_mut() {
            Some((last, mem))
                if run.start == self.next && last.count.checked_add(run.count).is_some() =>
            {
                last.count += run.count;
                *mem += n;
            }
            _ => self.open.push((run, n)),
        }
        // The run check puts `start` inside a non-empty body.
        let body_len = self.rep.stub.body.len() as u64;
        self.next = ((u64::from(run.start) + u64::from(run.count)) % body_len) as u32;
        Ok(n)
    }

    /// Reads the open stream's access records, one per memory op of its
    /// runs, from `buf` at `*pos`, checks them, appends its fresh lines to
    /// the pool and its record bytes to the kernel, and closes the stream.
    pub fn read_records(&mut self, buf: &[u8], pos: &mut usize) -> Result<(), RecordFault> {
        let start = *pos;
        // Each record takes at least a byte.
        if self.mem_ops > buf.len().saturating_sub(start) as u64 {
            let fault = StreamFault::Truncated(start);
            return Err(RecordFault { fault, record: 0, at: start });
        }
        self.reserve_pool();
        let rep = &mut self.rep;
        read_records(buf, pos, &self.check, &self.open, &mut self.base, &mut rep.pool)?;
        let runs = rep.runs.len() + self.open.len();
        if (rep.bytes.len() + (*pos - start)) as u64 > MAX_RECORD_BYTES || runs > u32::MAX as usize
        {
            let fault = StreamFault::KernelLimit;
            return Err(RecordFault { fault, record: 0, at: start });
        }
        rep.bytes.extend_from_slice(&buf[start..*pos]);
        rep.runs.extend(self.open.iter().map(|&(run, _)| run));
        rep.close_stream();
        self.open.clear();
        self.mem_ops = 0;
        Ok(())
    }

    /// Makes room in the pool for the open stream's fresh lines, as many
    /// as the streams read so far average: the pool doubles, as a `Vec`
    /// does, but no further than the size those streams project for the
    /// whole kernel, so the last doubling does not overshoot it. A stream
    /// with more fresh lines grows the pool as any `Vec` grows.
    fn reserve_pool(&mut self) {
        let done = self.rep.n_streams();
        let pool = &mut self.rep.pool;
        let per = pool.len().div_ceil(done.max(1));
        if pool.capacity() - pool.len() < per {
            let projected = per.saturating_mul(self.n_streams);
            let want = (2 * pool.capacity()).min(projected).max(pool.len() + per);
            pool.reserve_exact(want - pool.len());
        }
    }

    /// The kernel of the streams read, its arrays shrunk to fit.
    pub fn finish(mut self) -> ReplayKernel {
        self.rep.bytes.shrink_to_fit();
        self.rep.pool.shrink_to_fit();
        self.rep.runs.shrink_to_fit();
        self.rep
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
    /// A warp of the grid never issued an instruction.
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
                write!(f, "warp stream {stream} never executed")
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
    use crate::kernel::{KernelBuilder, LoadSpec};
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

    fn rep_of(stream: StreamBuilder) -> ReplayKernel {
        ReplayKernel::from_streams(stub(), vec![stream])
    }

    /// A stream over `stub()` from `(pos, access)` ops (`None`: ALU op).
    fn stream(ops: &[(u32, Option<&[LineAddr]>)]) -> StreamBuilder {
        let mut b = StreamBuilder::new(2);
        for &(pos, access) in ops {
            b.push(pos, access);
        }
        b
    }

    fn valid_rep() -> ReplayKernel {
        rep_of(stream(&[(0, Some(&[LineAddr(42)])), (1, None)]))
    }

    /// The zigzag code of `d`.
    fn zz(d: i64) -> u8 {
        ((d << 1) ^ (d >> 63)) as u8
    }

    #[test]
    fn valid_replay_kernel_passes() {
        assert!(valid_rep().validate().is_ok());
    }

    #[test]
    fn stream_count_mismatch_rejected() {
        let s = || stream(&[(0, Some(&[LineAddr(42)])), (1, None)]);
        let r = ReplayKernel::from_streams(stub(), vec![s(), s()]);
        assert!(r.validate().unwrap_err().contains("stream count"));
    }

    #[test]
    fn empty_stream_rejected() {
        let r = rep_of(StreamBuilder::new(2));
        assert!(r.validate().unwrap_err().contains("is empty"));
    }

    #[test]
    fn out_of_range_pos_rejected() {
        let s = stream(&[(99, Some(&[LineAddr(42)]))]);
        assert!(rep_of(s).validate().unwrap_err().contains("out of range"));
    }

    /// A one-stream kernel over `stub()` from whole runs, raw record bytes
    /// and a pool, as no constructor would build it.
    fn raw_kernel(runs: &[Run], bytes: &[u8], pool: &[u64]) -> ReplayKernel {
        let mut rep = ReplayKernel::new(stub());
        rep.runs = runs.to_vec();
        rep.bytes = bytes.to_vec();
        rep.pool = pool.iter().map(|&l| LineAddr(l)).collect();
        rep.close_stream();
        rep
    }

    #[test]
    fn bad_runs_and_records_rejected() {
        let run = |start, count| Run { start, count };
        assert_eq!(raw_kernel(&[run(0, 2)], &[3, zz(42)], &[42]).validate(), Ok(()));
        let rejects = |runs: &[Run], bytes: &[u8], pool: &[u64], want: &str| {
            let err = raw_kernel(runs, bytes, pool).validate().unwrap_err();
            assert!(err.contains(want), "{want}: {err}");
        };
        // A repeat with no pool before it: the kernel's pool does not count,
        // only the lines of the records before.
        rejects(&[run(0, 2)], &[14, 0], &[42; 7], "record 0: line slice 0..7 exceeds pool of 0");
        rejects(&[run(0, 2)], &[0x82, 0x10, 0], &[], "record 0: record claims 1025 lines");
        rejects(&[run(0, 2)], &[1], &[], "record 0: fresh record of no lines (h = 1)");
        rejects(&[run(0, 2)], &[5, zz(42)], &[42, 43], "record 0: truncated input at byte 2");
        rejects(&[run(0, 2), run(2, 1)], &[0], &[], "run 1: run start 2 out of range");
        rejects(&[run(0, 2), run(1, 0)], &[0], &[], "run 1: zero-length run");
        rejects(&[run(0, 2)], &[3, zz(42)], &[43], "pool of 1 lines differs at line 0");
        rejects(&[run(0, 2)], &[0], &[42], "end at record byte 1 and pool line 1, of 1 and 0");
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

    /// A random body of 1 to 8 instructions, each ALU, Load or Store.
    fn random_body(rng: &mut testkit::Rng) -> Vec<StaticInst> {
        let kinds = [
            InstKind::Alu { latency: 1 },
            InstKind::Load { load: LoadId(0) },
            InstKind::Store { load: LoadId(0) },
        ];
        (0..rng.range_u32(1, 9))
            .map(|i| StaticInst { pc: Pc(16 * i), kind: *rng.pick(&kinds), wait_for: None })
            .collect()
    }

    /// The body positions a run visits, walked op by op.
    fn walk(r: Run, body_len: u32) -> impl Iterator<Item = u32> {
        std::iter::successors(Some(r.start), move |&p| Some(next_pos(p, body_len)))
            .take(r.count as usize)
    }

    #[test]
    fn run_check_counts_memory_ops_without_walking() {
        let check = RunCheck::new(&body4());
        let run = |start, count| Run { start, count };
        // Load at 0, store at 2: a walk from 1 of 6 ops passes 2, 0, 2.
        assert_eq!(check.run(run(1, 6)), Ok(3));
        assert_eq!(check.run(run(3, 1)), Ok(0));
        // Two memory ops per trip of 4 (2^32 - 1 = 4 * (2^30 - 1) + 3, and
        // the head 0, 1, 2 holds both).
        assert_eq!(check.run(run(0, u32::MAX)), Ok(2 * (1 << 30)));
        assert_eq!(check.run(run(4, 1)), Err(StreamFault::RunStart(4, 4)));
        assert_eq!(check.run(run(0, 0)), Err(StreamFault::EmptyRun));
        testkit::check_n("run_check_matches_walk", 300, |rng| {
            let body = random_body(rng);
            let len = body.len() as u32;
            let r = run(rng.range_u32(0, len), rng.range_u32(1, 40));
            let walked =
                walk(r, len).filter(|&p| !matches!(body[p as usize].kind, InstKind::Alu { .. }));
            assert_eq!(RunCheck::new(&body).run(r), Ok(walked.count() as u64), "{r:?}");
        });
    }

    #[test]
    fn mem_indices_give_each_record_its_body_position() {
        let check = RunCheck::new(&body4());
        let ranks = |start, count| check.mem_indices(Run { start, count }).collect::<Vec<_>>();
        // Memory positions 0 and 2: a run from 1 meets 2 first, a run from
        // 3 wraps to 0; a rejected run has none.
        assert_eq!(check.n_mem(), 2);
        assert_eq!(ranks(1, 6), [1, 0, 1]);
        assert_eq!(ranks(3, 4), [0, 1]);
        assert_eq!(ranks(3, 1), []);
        assert_eq!(ranks(4, 1), []);
        // Lazy: a run of 2^32 - 1 ops yields its first ranks at once.
        let long = check.mem_indices(Run { start: 0, count: u32::MAX });
        assert_eq!(long.take(3).collect::<Vec<_>>(), [0, 1, 0]);
        testkit::check_n("mem_indices_match_walk", 300, |rng| {
            let body = random_body(rng);
            let len = body.len() as u32;
            let mem_pos: Vec<u32> = (0..len)
                .filter(|&p| !matches!(body[p as usize].kind, InstKind::Alu { .. }))
                .collect();
            let r = Run { start: rng.range_u32(0, len), count: rng.range_u32(1, 40) };
            let walked: Vec<u32> = walk(r, len).filter(|p| mem_pos.contains(p)).collect();
            let counted: Vec<u32> =
                RunCheck::new(&body).mem_indices(r).map(|k| mem_pos[k]).collect();
            assert_eq!(counted, walked, "{r:?}");
        });
    }

    #[test]
    fn record_check_bounds_length_and_slice() {
        assert_eq!(check_record(3, 2, 5), Ok((3, 2)));
        // A lineless record needs no pool and is stored canonical.
        assert_eq!(check_record(9, 0, 0), Ok((0, 0)));
        let past = |off, len| StreamFault::PastPool(off, len, 5);
        assert_eq!(check_record(4, 2, 5), Err(past(4, 2)));
        assert_eq!(check_record(u64::MAX, 1, 5), Err(past(u64::MAX, 1)));
        assert_eq!(check_record(1 << 32, 1, 5), Err(past(1 << 32, 1)));
        let lines = MAX_LINES_PER_RECORD + 1;
        assert_eq!(check_record(0, lines, 4096), Err(StreamFault::OverlongRecord(lines)));
        assert_eq!(check_record(0, MAX_LINES_PER_RECORD, 4096), Ok((0, 1024)));
    }

    #[test]
    fn record_check_keeps_pool_offsets_within_a_u32() {
        // A pool as large as the address space still stops at 2^32 - 1
        // lines, so every offset a cursor holds fits a u32.
        let top = MAX_POOL_LINES;
        assert_eq!(check_record(top - 1, 1, usize::MAX), Ok(((top - 1) as u32, 1)));
        assert_eq!(check_record(top, 1, usize::MAX), Err(StreamFault::PoolLimit(top, 1)));
        assert_eq!(check_record(top - 1, 2, usize::MAX), Err(StreamFault::PoolLimit(top - 1, 2)));
        let err = StreamFault::PoolLimit(top, 1).to_string();
        assert!(err.contains("passes the pool limit of 4294967295 lines"), "{err}");
        // Past a smaller pool, the pool is what the slice passes.
        assert_eq!(check_record(top, 1, 5), Err(StreamFault::PastPool(top, 1, 5)));
    }

    #[test]
    fn varints_read_back_and_fail_typed() {
        let mut buf = Vec::new();
        let values = [0, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            let at = buf.len();
            put_uvarint(&mut buf, v);
            assert_eq!(buf.len() - at, uvarint_len(v), "{v}");
        }
        let mut pos = 0;
        for &v in &values {
            let mut cursor = pos;
            assert_eq!(read_uvarint(&buf, &mut cursor), v);
            assert_eq!(get_uvarint(&buf, &mut pos), Ok(v));
            assert_eq!(cursor, pos);
        }
        assert_eq!(get_uvarint(&buf, &mut pos), Err(StreamFault::Truncated(buf.len())));
        assert_eq!(get_uvarint(&[0x80, 0x80], &mut 0), Err(StreamFault::Truncated(2)));
        let eleven = [0xff; 11];
        assert_eq!(get_uvarint(&eleven, &mut 0), Err(StreamFault::VarintOverflow(0)));
    }

    #[test]
    fn records_code_against_one_deduplicated_pool() {
        // Load at 0, ALU at 1, over two streams: a fresh pair, a lineless
        // access, the pair again (a repeat), then a line one past it.
        let s0 = stream(&[
            (0, Some(&[LineAddr(10), LineAddr(13)])),
            (1, None),
            (0, Some(&[])),
            (1, None),
        ]);
        let s1 = stream(&[
            (0, Some(&[LineAddr(10), LineAddr(13)])),
            (1, None),
            (0, Some(&[LineAddr(11)])),
            (1, None),
        ]);
        let mut stub = stub();
        stub.grid_ctas = 2;
        let rep = ReplayKernel::from_streams(stub, vec![s0, s1]);
        rep.validate().unwrap();
        assert_eq!(rep.pool(), [LineAddr(10), LineAddr(13), LineAddr(11)]);
        // Stream 0: fresh h = 5, deltas +10 and +3; lineless.
        assert_eq!(rep.stream(0).record_bytes(), [5, zz(10), zz(3), 0]);
        // Stream 1: a repeat of pool[0..2]; then fresh, coded against 10,
        // the first line of the last record at position 0.
        assert_eq!(rep.stream(1).record_bytes(), [4, 0, 3, zz(1)]);
        assert_eq!(rep.stream(1).cursor(), RecordCursor { byte: 4, fresh: 2 });
        assert_eq!(rep.stream(1).end(), RecordCursor { byte: 8, fresh: 3 });
        let spans: Vec<Vec<(u32, u32)>> = rep.streams().map(|s| s.records().collect()).collect();
        assert_eq!(spans, [vec![(0, 2), (0, 0)], vec![(0, 2), (2, 1)]]);
        // A cursor walks a stream to its end, a record at a time.
        let mut cur = rep.stream(1).cursor();
        assert_eq!(rep.read_record(&mut cur), [LineAddr(10), LineAddr(13)]);
        assert_eq!(cur, RecordCursor { byte: 6, fresh: 2 });
        assert_eq!(rep.read_record(&mut cur), [LineAddr(11)]);
        assert_eq!(cur, rep.stream(1).end());
        // Runs, record bytes, pool and starts, at their lengths.
        assert_eq!(rep.heap_bytes(), 8 + 3 * 8 + 2 * 8 + 3 * 12);
    }

    /// The kernel [`KernelReader`] builds from `rep`'s runs and record
    /// bytes, stream by stream, as the `LBW1` decoder hands them over.
    fn reread(rep: &ReplayKernel) -> Result<ReplayKernel, (usize, RecordFault)> {
        let mut reader = KernelReader::new(rep.stub.clone(), rep.n_streams(), rep.bytes.len());
        for (si, s) in rep.streams().enumerate() {
            for &run in s.runs() {
                reader.push_run(run).unwrap();
            }
            reader.read_records(s.record_bytes(), &mut 0).map_err(|f| (si, f))?;
        }
        Ok(reader.finish())
    }

    #[test]
    fn random_streams_read_back_through_the_cursor_and_the_reader() {
        // Lineless, one-line and multi-line records of up to
        // MAX_LINES_PER_RECORD lines, fresh or repeating a slice of an
        // earlier stream, coded by `from_streams` and read back record by
        // record, op by op and through the decoder's reader.
        testkit::check_n("record_bytes_round_trip", 200, |rng| {
            let n_streams = rng.range_u32(1, 4);
            let mut stub = stub();
            stub.grid_ctas = n_streams;
            let body = stub.body.clone();
            let mut builders = Vec::new();
            let mut want: Vec<Vec<Vec<LineAddr>>> = Vec::new();
            for _ in 0..n_streams {
                let mut b = StreamBuilder::new(2);
                let mut records: Vec<Vec<LineAddr>> = Vec::new();
                // A load at 0 and an ALU op at 1, walked in turn.
                let n_ops = rng.range_u32(1, 40);
                for pos in (0..2).cycle().take(n_ops as usize) {
                    if pos == 1 {
                        b.push(1, None);
                        continue;
                    }
                    let earlier: Vec<&Vec<LineAddr>> =
                        want.iter().flatten().chain(&records).filter(|l| !l.is_empty()).collect();
                    let lines: Vec<LineAddr> = match rng.range_u32(0, 4) {
                        0 => Vec::new(),
                        1 if !earlier.is_empty() => rng.pick(&earlier).to_vec(),
                        _ => {
                            let len = match rng.range_u32(0, 20) {
                                0 => rng.range_u64(1, MAX_LINES_PER_RECORD + 1),
                                _ => rng.range_u64(1, 4),
                            };
                            (0..len).map(|_| LineAddr(rng.u64())).collect()
                        }
                    };
                    b.push(0, Some(&lines));
                    records.push(lines);
                }
                builders.push(b);
                want.push(records);
            }
            let rep = ReplayKernel::from_streams(stub, builders);
            rep.validate().unwrap();
            for (si, records) in want.iter().enumerate() {
                let s = rep.stream(si);
                let got: Vec<&[LineAddr]> = s.accesses().collect();
                assert_eq!(got, records.iter().map(Vec::as_slice).collect::<Vec<_>>());
                let loads: Vec<&[LineAddr]> =
                    s.ops(&body).filter(|op| op.pos == 0).map(|op| s.lines(op)).collect();
                assert_eq!(loads, got);
                let mut cur = s.cursor();
                for lines in records {
                    assert_eq!(rep.read_record(&mut cur), lines.as_slice());
                }
                assert_eq!(cur, s.end());
            }
            // Each distinct slice once: no fresh record repeats another.
            let mut seen = std::collections::HashSet::new();
            for s in rep.streams() {
                let mut next = s.cursor().fresh;
                for (off, len) in s.records() {
                    if len > 0 && off == next {
                        next += len;
                        assert!(seen.insert(rep.pool_slice((off, len))), "a fresh slice twice");
                    }
                }
                assert_eq!(next, s.end().fresh);
            }
            assert_eq!(reread(&rep), Ok(rep.clone()), "a kernel reads back as itself");
        });
    }

    #[test]
    fn reader_rejects_records_past_the_pool_so_far() {
        // One stream whose only record repeats a line no record wrote.
        let mut reader = KernelReader::new(stub(), 1, 2);
        assert_eq!(reader.push_run(Run { start: 0, count: 2 }), Ok(1));
        let err = reader.read_records(&[2, 0], &mut 0).unwrap_err();
        assert_eq!(err, RecordFault { fault: StreamFault::PastPool(0, 1, 0), record: 0, at: 0 });
        // A run over the load twice needs two records, so two bytes at least.
        let mut reader = KernelReader::new(stub(), 1, 1);
        reader.push_run(Run { start: 0, count: 3 }).unwrap();
        let err = reader.read_records(&[0], &mut 0).unwrap_err();
        assert_eq!(err.fault, StreamFault::Truncated(0));
        assert_eq!(reader.push_run(Run { start: 2, count: 1 }), Err(StreamFault::RunStart(2, 2)));
    }

    /// A stub of `n_streams` one-warp CTAs over `body`, whose Load/Store
    /// instructions name load 0 or 1.
    fn stub_of(body: Vec<StaticInst>, n_streams: usize) -> KernelSpec {
        let load =
            |i| LoadSpec { id: LoadId(i), pc: Pc(i), pattern: AccessPattern::streaming(128) };
        let loads = vec![load(0), load(1)];
        KernelSpec::from_raw("b".into(), n_streams as u32, 1, 8, 0, body, 1, loads).unwrap()
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
        let rep = ReplayKernel::from_streams(stub_of(body.clone(), 2), vec![b, grow]);
        rep.validate().unwrap();
        let (s, g) = (rep.stream(0), rep.stream(1));
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
        assert_eq!(ops.iter().map(|o| o.pos).collect::<Vec<_>>(), positions);
        assert_eq!(s.lines(ops[2]), [LineAddr(7), LineAddr(8)]);
        assert_eq!(ops[0], TraceOp { pos: 2, line_off: 0, line_len: 0 });
        let accesses: Vec<&[LineAddr]> = s.accesses().collect();
        assert_eq!(accesses[1], [LineAddr(7), LineAddr(8)]);
        assert_eq!(accesses[3], s.lines(ops[5]));
        // The second stream's records repeat the first's lines: the pool
        // holds them once.
        let g_ops: Vec<TraceOp> = g.ops(&body).collect();
        assert_eq!(g_ops[2], TraceOp { pos: 0, line_off: 0, line_len: 2 });
        assert_eq!(g.accesses().nth(1), Some(accesses[1]));
        assert_eq!(rep.pool(), [LineAddr(7), LineAddr(8)]);
    }

    #[test]
    fn builder_codes_each_access_against_the_last_at_its_position() {
        // Over body4 (load at 0, store at 2): an access's first line is
        // coded against the first line of the last non-empty access at its
        // position, 0 before any, and wraps around the line space; a
        // lineless access codes only its count and leaves the base.
        let top = LineAddr(u64::MAX);
        let ops: [(u32, Option<&[LineAddr]>); 11] = [
            (0, Some(&[LineAddr(10), LineAddr(8)])),
            (1, None),
            (2, Some(&[top])),
            (3, None),
            (0, Some(&[LineAddr(13)])),
            (1, None),
            (2, Some(&[])),
            (3, None),
            (0, Some(&[])),
            (1, None),
            (2, Some(&[LineAddr(1)])),
        ];
        let mut b = StreamBuilder::new(4);
        for &(pos, access) in &ops {
            b.push(pos, access);
        }
        assert_eq!(b.bytes, [2, zz(10), zz(-2), 1, zz(-1), 1, zz(3), 0, 0, 1, zz(2)]);
        assert_eq!(b.bases, [(0, 13), (2, 1)]);
        assert_eq!(b.n_accesses(), 6);
        // One run, the coded accesses and two bases, at their lengths.
        assert_eq!(b.heap_bytes(), 8 + 11 + 2 * 16);
        let rep = ReplayKernel::from_streams(stub_of(body4(), 1), vec![b]);
        rep.validate().unwrap();
        let want: Vec<&[LineAddr]> = ops.iter().filter_map(|&(_, access)| access).collect();
        assert!(rep.stream(0).accesses().eq(want));
    }

    #[test]
    fn random_op_sequences_walk_back_op_for_op() {
        testkit::check_n("stream_walk_round_trip", 300, |rng| {
            let body = random_body(rng);
            let len = body.len() as u32;
            let mut builders = Vec::new();
            let mut wants: Vec<Vec<(u32, Vec<LineAddr>)>> = Vec::new();
            let mut jumps = Vec::new();
            for _ in 0..rng.range_usize(1, 4) {
                let mut b = StreamBuilder::new(len);
                let mut grow = StreamBuilder::new(GROWING_BODY);
                let mut want: Vec<(u32, Vec<LineAddr>)> = Vec::new();
                let mut pos = rng.range_u32(0, len);
                let mut n_jumps = 0;
                for i in 0..rng.range_usize(1, 200) {
                    if i > 0 {
                        // Mostly step (wrapping at the body end), sometimes jump.
                        let step = next_pos(pos, len);
                        pos = if rng.range_u32(0, 8) == 0 { rng.range_u32(0, len) } else { step };
                        n_jumps += usize::from(pos != step);
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
                builders.extend([b, grow]);
                wants.extend([want.clone(), want]);
                jumps.push(n_jumps);
            }
            let rep = ReplayKernel::from_streams(stub_of(body.clone(), builders.len()), builders);
            rep.validate().unwrap();
            for (si, want) in wants.iter().enumerate() {
                let s = rep.stream(si);
                if si % 2 == 0 {
                    assert_eq!(s.runs().len(), jumps[si / 2] + 1, "a run per jump, none per wrap");
                    // Any split of the runs pushes back to the same runs.
                    let mut split = StreamBuilder::new(len);
                    for r in s.runs() {
                        let cut = rng.range_u32(1, r.count + 1);
                        split.push_run(Run { start: r.start, count: cut });
                        if cut < r.count {
                            let start = (r.start + cut) % len;
                            split.push_run(Run { start, count: r.count - cut });
                        }
                    }
                    assert_eq!(split.runs(), s.runs());
                }
                assert_eq!(s.len(), want.len());
                let mem = want
                    .iter()
                    .filter(|(p, _)| !matches!(body[*p as usize].kind, InstKind::Alu { .. }));
                assert_eq!(s.n_accesses(), mem.count());
                let got: Vec<(u32, Vec<LineAddr>)> =
                    s.ops(&body).map(|op| (op.pos, s.lines(op).to_vec())).collect();
                assert_eq!(&got, want);
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
            for s in rep.streams() {
                assert_eq!(s.runs(), [Run { start: 0, count: 3 * body_len }]);
                // Three trips of one load and one store, however many ALU
                // ops the body holds.
                assert_eq!(s.n_accesses(), 6);
            }
            assert_eq!(reread(&rep), Ok(rep.clone()), "a capture equals its own decode");
        }
    }

    #[test]
    fn push_run_merges_only_a_continuing_run_that_fits() {
        let run = |start, count| Run { start, count };
        let mut b = StreamBuilder::new(4);
        // (1, 5) ends at 1 + 5 = 6 = 2 mod 4, so (2, 3) continues it.
        b.push_run(run(1, 5));
        b.push_run(run(2, 3));
        b.push(1, None);
        // (1, 9) ends before 2, so (3, 2) opens a run.
        b.push_run(run(3, 2));
        // (3, 2) ends before 1: this fills it to the largest count, and one
        // more op opens a run.
        b.push_run(run(1, u32::MAX - 2));
        b.push_run(run(2, 1));
        assert_eq!(b.runs(), [run(1, 9), run(3, u32::MAX), run(2, 1)]);
    }

    #[test]
    fn resident_ctas_respects_register_limit() {
        let cfg = GpuConfig::default();
        let k = KernelBuilder::new("r").grid(64, 8).regs_per_thread(64).alu(1).build().unwrap();
        // 8 warps x 64 regs = 512 regs/CTA; a 2048-reg file fits 4.
        assert_eq!(resident_ctas(&cfg, &k), cfg.warp_regs_per_sm() / 512);
    }
}

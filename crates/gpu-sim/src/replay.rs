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
//! # Kernel-wide arrays
//!
//! A [`ReplayKernel`] keeps all its streams in six flat arrays: the runs
//! of every stream back to back, their access records back to back, one
//! line pool that every record indexes, a table of the multi-line records'
//! slices, and per stream the offset of its first run and of its first
//! record. Any record may share pool lines with any earlier one, whichever
//! stream it belongs to: a decoded `LBW1` trace holds each distinct line
//! slice once, while capture and import append the lines of every access.
//! [`ReplayKernel::stream`] lends one stream out as a [`WarpStream`], a
//! view whose [`WarpStream::runs`], [`WarpStream::access`] and
//! [`WarpStream::ops`] read the arrays in place. Capture and import record
//! each stream in a [`StreamBuilder`] of its own, and
//! [`ReplayKernel::from_streams`] lays the finished streams out; the
//! `LBW1` decoder appends to the arrays directly
//! ([`ReplayKernel::push_line`], [`ReplayKernel::push_record`],
//! [`ReplayKernel::push_stream`]).
//!
//! # Record words
//!
//! An access record is one `u32` word, read only through
//! [`ReplayKernel::span`] (its `(line_off, line_len)` pool slice) and
//! [`ReplayKernel::slice`] (its lines):
//!
//! - a word below 2^31 is the pool index of a one-line access;
//! - [`LINELESS`] (`u32::MAX`) is an access of no line;
//! - any other word has its top bit set, and its low 31 bits index the
//!   multi-line table, whose entry is the `(line_off, line_len)` of an
//!   access of two or more lines.
//!
//! Most accesses name one line or none, so a record costs four bytes where
//! an offset and a length cost eight. The words bound a kernel to
//! [`MAX_POOL_LINES`] pool lines, so a one-line word never reaches the tag
//! bit, and to [`MAX_RECORDS`] records, so a table index never reaches
//! [`LINELESS`]. The `LBW1` decoder rejects a file that passes either bound
//! with a typed error; capture and import, which would need 16 GB of lines
//! to pass them, panic.
//!
//! # Capture recorders
//!
//! A capture run records each warp in a [`StreamBuilder`] of its own. An SM
//! holds one `(grid stream id, builder)` pair per warp it launched, in
//! launch order, and a warp-slab column gives each slot the index of its
//! recorder. The column is not the slab's stream column: when a replay is
//! re-captured (`lb-replay selftest`), that one holds the replay stream id.
//! The GPU merges the recorders into grid order at the end of the run, so
//! capture costs memory in the grid's warps, not in SMs times warps, and a
//! grid of several dispatch waves records each stream once, on the SM that
//! ran it.
//!
//! # Checks
//!
//! [`ReplayKernel::validate`] and the `LBW1` decoder share two checks. The
//! run check ([`RunCheck`]) takes each run: it must start inside the body
//! and hold at least one op, and its memory ops (the access records it
//! owns) are counted in O(1) from a prefix count of the body's Load/Store
//! positions. The same prefix count gives each record's body position
//! ([`RunCheck::mem_indices`]) without walking ALU ops. The record check
//! ([`check_record`]) takes each access record: at most
//! [`MAX_LINES_PER_RECORD`] lines, in a slice inside the kernel's pool and
//! below [`MAX_POOL_LINES`]. Neither walks ops, so a check costs what the
//! kernel stores, never what it declares: a run of 2^32 - 1 ops is checked
//! as fast as a run of one.
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

/// Record word of an access that touched no line.
pub const LINELESS: u32 = u32::MAX;

/// Tag bit of a record word that indexes the multi-line table.
const MULTI: u32 = 1 << 31;

/// Most lines a kernel's pool holds: a one-line record's word is its pool
/// index, which stays below the tag bit.
pub const MAX_POOL_LINES: u64 = 1 << 31;

/// Most access records a kernel holds: a multi-line record's table index
/// is below the record count, so its word stays below [`LINELESS`].
pub const MAX_RECORDS: u64 = (1 << 31) - 1;

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
        let b = &self.rep.run_bounds;
        &self.rep.runs[b[self.id] as usize..b[self.id + 1] as usize]
    }

    /// The access records in issue order, as record words (see the module
    /// docs).
    #[inline]
    fn records(&self) -> &'a [u32] {
        let b = &self.rep.record_bounds;
        &self.rep.records[b[self.id] as usize..b[self.id + 1] as usize]
    }

    /// Number of access records (memory ops).
    pub fn n_accesses(&self) -> usize {
        self.records().len()
    }

    /// The coalesced lines of access record `i`.
    #[inline]
    pub fn access(&self, i: u32) -> &'a [LineAddr] {
        self.rep.slice(self.records()[i as usize])
    }

    /// The ops in issue order, walked through the stub `body`: each run
    /// steps its body position, and each op at a Load/Store position takes
    /// the next access record. Never panics; on a stream that does not fit
    /// `body`, which [`ReplayKernel::validate`] rejects, the ops past a
    /// missing record read as lineless.
    pub fn ops(&self, body: &'a [StaticInst]) -> impl Iterator<Item = TraceOp> + 'a {
        let (rep, body_len) = (self.rep, body.len() as u32);
        let mut records = self.records().iter();
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
                    if mem { records.next().map_or((0, 0), |&w| rep.span(w)) } else { (0, 0) };
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
/// each stream's runs in one reused builder ([`StreamBuilder::push_run`])
/// and appends them with [`ReplayKernel::push_stream`].
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    /// Runs in issue order.
    runs: Vec<Run>,
    /// The line count of each memory op's access; its lines follow the
    /// earlier accesses' lines in `lines`.
    lens: Vec<u32>,
    /// The lines of every access, appended in issue order.
    lines: Vec<LineAddr>,
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
        StreamBuilder { runs: Vec::new(), lens: Vec::new(), lines: Vec::new(), body_len, next: 0 }
    }

    /// True when no op has been pushed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The runs pushed so far.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Appends an op at body position `pos`: `access` is `Some(lines)` for
    /// an op at a Load or Store position (`lines` may be empty) and `None`
    /// for an ALU op. The lines are copied to the end of the builder's pool.
    pub fn push(&mut self, pos: u32, access: Option<&[LineAddr]>) {
        self.push_run(Run { start: pos, count: 1 });
        if let Some(lines) = access {
            self.lens.push(lines.len() as u32);
            self.lines.extend_from_slice(lines);
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

/// Why the run check ([`RunCheck::run`]) or the record check
/// ([`check_record`]) rejected a run or an access record.
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
        }
    }
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
        let first = match self.mem_before.get(run.start as usize) {
            Some(&k) if n > 0 && (k as usize) < n_mem => k as usize,
            _ => 0,
        };
        std::iter::successors(Some(first), move |&k| Some(if k + 1 == n_mem { 0 } else { k + 1 }))
            .take(usize::try_from(n).unwrap_or(usize::MAX))
    }
}

/// The record check: access record `(line_off, line_len)` of a kernel
/// whose pool holds `pool_len` lines claims at most
/// [`MAX_LINES_PER_RECORD`] lines, in a slice inside the pool that ends at
/// or before [`MAX_POOL_LINES`]. Returns the record's pool slice as
/// [`ReplayKernel::push_record`] takes it, `(0, 0)` when lineless.
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
        // Below 2^31, so the offset fits the word.
        Ok((line_off as u32, line_len as u32))
    } else if end <= pool_len as u64 {
        Err(StreamFault::PoolLimit(line_off, line_len))
    } else {
        Err(StreamFault::PastPool(line_off, line_len, pool_len))
    }
}

/// `n` as a `u32` offset into a kernel array; the decoder bounds what it
/// appends, and capture cannot hold 2^32 entries in memory.
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
    /// Every stream's access records, stream after stream, as record
    /// words (see the module docs).
    records: Vec<u32>,
    /// `(line_off, line_len)` of each multi-line record, in record order.
    multi: Vec<(u32, u32)>,
    /// The line pool the records index.
    pool: Vec<LineAddr>,
    /// Stream `i`'s runs are `runs[run_bounds[i]..run_bounds[i + 1]]`.
    run_bounds: Vec<u32>,
    /// Stream `i`'s records are `records[record_bounds[i]..record_bounds[i + 1]]`.
    record_bounds: Vec<u32>,
}

impl ReplayKernel {
    /// A kernel of `stub` with no stream yet.
    pub fn new(stub: KernelSpec) -> Self {
        ReplayKernel {
            stub,
            runs: Vec::new(),
            records: Vec::new(),
            multi: Vec::new(),
            pool: Vec::new(),
            run_bounds: vec![0],
            record_bounds: vec![0],
        }
    }

    /// A kernel of `stub` whose streams, indexed `cta_ordinal *
    /// warps_per_cta + lane`, are the ones `streams` recorded, laid out in
    /// arrays of exact size.
    pub fn from_streams(stub: KernelSpec, streams: Vec<StreamBuilder>) -> Self {
        let mut rep = ReplayKernel::new(stub);
        let total = |f: fn(&StreamBuilder) -> usize| streams.iter().map(f).sum::<usize>();
        rep.runs.reserve_exact(total(|b| b.runs.len()));
        rep.records.reserve_exact(total(|b| b.lens.len()));
        rep.multi.reserve_exact(total(|b| b.lens.iter().filter(|&&len| len > 1).count()));
        rep.pool.reserve_exact(total(|b| b.lines.len()));
        rep.run_bounds.reserve_exact(streams.len());
        rep.record_bounds.reserve_exact(streams.len());
        for mut b in streams {
            rep.push_stream(&mut b);
        }
        rep
    }

    /// Appends a line to the pool.
    #[inline]
    pub fn push_line(&mut self, line: LineAddr) {
        self.pool.push(line);
    }

    /// Appends the access record of pool slice `(line_off, line_len)`, one
    /// [`check_record`] passed, to the stream the next
    /// [`ReplayKernel::push_stream`] closes: lineless when `line_len` is 0.
    /// The caller keeps the kernel within [`MAX_RECORDS`].
    ///
    /// # Panics
    ///
    /// Panics when the slice ends past [`MAX_POOL_LINES`], where its word
    /// would collide with the tag bit.
    #[inline]
    pub fn push_record(&mut self, line_off: u32, line_len: u32) {
        assert!(
            u64::from(line_off) + u64::from(line_len) <= MAX_POOL_LINES,
            "record slice {line_off}+{line_len} passes the pool limit"
        );
        let word = match line_len {
            0 => LINELESS,
            1 => line_off,
            _ => {
                self.multi.push((line_off, line_len));
                MULTI | (self.multi.len() - 1) as u32
            }
        };
        self.records.push(word);
    }

    /// Closes the next stream: its records are the ones pushed since the
    /// last stream closed, then the records `b` holds, whose lines are
    /// appended to the pool; its runs are `b`'s. Empties `b` but keeps its
    /// buffers, so one builder can carry every stream's runs.
    ///
    /// # Panics
    ///
    /// Panics when the kernel would pass [`MAX_POOL_LINES`] or
    /// [`MAX_RECORDS`]; the decoder rejects such a file before it gets
    /// here.
    pub fn push_stream(&mut self, b: &mut StreamBuilder) {
        let lines = self.pool.len() + b.lines.len();
        let records = self.records.len() + b.lens.len();
        assert!(
            lines as u64 <= MAX_POOL_LINES && records as u64 <= MAX_RECORDS,
            "a replay kernel holds at most {MAX_POOL_LINES} lines and {MAX_RECORDS} records"
        );
        let mut off = self.pool.len() as u32;
        for &len in &b.lens {
            self.push_record(off, len);
            off += len;
        }
        self.runs.extend_from_slice(&b.runs);
        self.pool.extend_from_slice(&b.lines);
        self.run_bounds.push(offset(self.runs.len()));
        self.record_bounds.push(offset(self.records.len()));
        b.runs.clear();
        b.lens.clear();
        b.lines.clear();
    }

    /// Reserves room for `streams` more streams holding `records` more
    /// access records, `multi` more of them multi-line, and `lines` more
    /// pool lines.
    pub fn reserve(&mut self, streams: usize, records: usize, multi: usize, lines: usize) {
        self.run_bounds.reserve(streams);
        self.record_bounds.reserve(streams);
        self.runs.reserve(streams);
        self.records.reserve(records);
        self.multi.reserve(multi);
        self.pool.reserve(lines);
    }

    /// Releases the arrays' spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.runs.shrink_to_fit();
        self.records.shrink_to_fit();
        self.multi.shrink_to_fit();
        self.pool.shrink_to_fit();
        self.run_bounds.shrink_to_fit();
        self.record_bounds.shrink_to_fit();
    }

    /// Number of streams held.
    pub fn n_streams(&self) -> usize {
        self.run_bounds.len() - 1
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

    /// Every stream's access records, stream after stream, as record
    /// words; [`ReplayKernel::span`] and [`ReplayKernel::slice`] read them.
    pub fn records(&self) -> &[u32] {
        &self.records
    }

    /// The line pool the access records index.
    pub fn pool(&self) -> &[LineAddr] {
        &self.pool
    }

    /// The pool slice `(line_off, line_len)` of record word `word`: `(0,
    /// 0)` when lineless.
    #[inline]
    pub fn span(&self, word: u32) -> (u32, u32) {
        if word & MULTI == 0 {
            (word, 1)
        } else if word == LINELESS {
            (0, 0)
        } else {
            self.multi[(word & !MULTI) as usize]
        }
    }

    /// The lines of record word `word`.
    #[inline]
    pub fn slice(&self, word: u32) -> &[LineAddr] {
        self.pool_slice(self.span(word))
    }

    /// The lines of pool slice `(line_off, line_len)`.
    #[inline]
    fn pool_slice(&self, (line_off, line_len): (u32, u32)) -> &[LineAddr] {
        let off = line_off as usize;
        &self.pool[off..off + line_len as usize]
    }

    /// Bytes the kernel's arrays hold: records, multi-line table, pool,
    /// runs and stream bounds. Counted from lengths, not capacities, so
    /// the figure depends on the streams alone.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.records[..])
            + size_of_val(&self.multi[..])
            + size_of_val(&self.pool[..])
            + size_of_val(&self.runs[..])
            + size_of_val(&self.run_bounds[..])
            + size_of_val(&self.record_bounds[..])
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
    /// against the grid, and per stream at least one run, every run through
    /// the run check ([`RunCheck`]), every access record through the record
    /// check ([`check_record`]), and one record per memory op of the runs.
    /// Its cost follows the runs and records stored, not the ops declared.
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
        for (si, s) in self.streams().enumerate() {
            if s.is_empty() {
                return Err(format!("stream {si} is empty"));
            }
            let mut mem_ops = 0u64;
            for (ri, &run) in s.runs().iter().enumerate() {
                mem_ops += check.run(run).map_err(|e| format!("stream {si} run {ri}: {e}"))?;
            }
            if mem_ops != s.n_accesses() as u64 {
                return Err(format!(
                    "stream {si} has {} access records for {mem_ops} memory ops",
                    s.n_accesses()
                ));
            }
            for (ai, &word) in s.records().iter().enumerate() {
                let (off, len) = self.span(word);
                check_record(off.into(), len.into(), self.pool.len())
                    .map_err(|e| format!("stream {si} record {ai}: {e}"))?;
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

    /// A one-stream kernel over `stub()` from whole runs, access records
    /// and a pool of `pool_len` lines, built the way the decoder builds one.
    fn raw_kernel(runs: &[Run], records: &[(u32, u32)], pool_len: usize) -> ReplayKernel {
        let mut rep = ReplayKernel::new(stub());
        for _ in 0..pool_len {
            rep.push_line(LineAddr(42));
        }
        for &(off, len) in records {
            rep.push_record(off, len);
        }
        let mut b = StreamBuilder::new(2);
        for &r in runs {
            b.push_run(r);
        }
        rep.push_stream(&mut b);
        rep
    }

    #[test]
    fn bad_runs_and_records_rejected() {
        let run = |start, count| Run { start, count };
        let rejects = |runs: &[Run], records: &[(u32, u32)], want: &str| {
            let err = raw_kernel(runs, records, 1).validate().unwrap_err();
            assert!(err.contains(want), "{want}: {err}");
        };
        rejects(&[run(0, 2)], &[(0, 7)], "record 0: line slice 0..7 exceeds pool of 1");
        rejects(&[run(0, 2)], &[(0, 1025)], "record 0: record claims 1025 lines");
        rejects(&[run(0, 2), run(2, 1)], &[(0, 1)], "run 1: run start 2 out of range");
        rejects(&[run(0, 2), run(1, 0)], &[(0, 1)], "run 1: zero-length run");
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
    fn record_check_keeps_pool_indices_below_the_tag_bit() {
        // A pool as large as the address space still stops at 2^31 lines:
        // index 2^31 - 1 is a one-line word, index 2^31 would be a tag.
        let top = MAX_POOL_LINES;
        assert_eq!(check_record(top - 1, 1, usize::MAX), Ok(((top - 1) as u32, 1)));
        assert_eq!(check_record(top, 1, usize::MAX), Err(StreamFault::PoolLimit(top, 1)));
        assert_eq!(check_record(top - 1, 2, usize::MAX), Err(StreamFault::PoolLimit(top - 1, 2)));
        let err = StreamFault::PoolLimit(top, 1).to_string();
        assert!(err.contains("passes the pool limit of 2147483648 lines"), "{err}");
        // Past a smaller pool, the pool is what the slice passes.
        assert_eq!(check_record(top, 1, 5), Err(StreamFault::PastPool(top, 1, 5)));
    }

    #[test]
    #[should_panic(expected = "passes the pool limit")]
    fn a_record_word_never_takes_the_tag_bit() {
        ReplayKernel::new(stub()).push_record(1 << 31, 1);
    }

    #[test]
    fn record_words_read_back_every_record_shape() {
        // Lineless, one-line and multi-line records of up to
        // MAX_LINES_PER_RECORD lines, fresh or repeating a slice of the
        // pool so far, built op by op (capture, import) and record by record
        // (the LBW1 decoder's push path).
        testkit::check_n("record_words_round_trip", 200, |rng| {
            let n_streams = rng.range_u32(1, 4);
            let mut stub = stub();
            stub.grid_ctas = n_streams;
            let body = stub.body.clone();
            let mut builders = Vec::new();
            let mut pushed = ReplayKernel::new(stub.clone());
            let mut scratch = StreamBuilder::new(2);
            let mut want: Vec<Vec<Vec<LineAddr>>> = Vec::new();
            for _ in 0..n_streams {
                let mut b = StreamBuilder::new(2);
                let mut records = Vec::new();
                // A load at 0 and an ALU op at 1, walked in turn.
                let n_ops = rng.range_u32(1, 40);
                for pos in (0..2).cycle().take(n_ops as usize) {
                    if pos == 1 {
                        b.push(1, None);
                        continue;
                    }
                    let pool_len = pushed.pool().len() as u64;
                    let lines: Vec<LineAddr> = match rng.range_u32(0, 4) {
                        0 => {
                            pushed.push_record(0, 0);
                            Vec::new()
                        }
                        1 if pool_len > 0 => {
                            let len = rng.range_u64(1, pool_len.min(MAX_LINES_PER_RECORD) + 1);
                            let off = rng.range_u64(0, pool_len - len + 1);
                            let (off, len) = check_record(off, len, pushed.pool().len()).unwrap();
                            pushed.push_record(off, len);
                            pushed.pool_slice((off, len)).to_vec()
                        }
                        _ => {
                            let len = match rng.range_u32(0, 20) {
                                0 => rng.range_u64(1, MAX_LINES_PER_RECORD + 1),
                                _ => rng.range_u64(1, 4),
                            };
                            let lines: Vec<LineAddr> =
                                (0..len).map(|_| LineAddr(rng.u64())).collect();
                            let end = pushed.pool().len() as u32;
                            lines.iter().for_each(|&l| pushed.push_line(l));
                            pushed.push_record(end, len as u32);
                            lines
                        }
                    };
                    b.push(0, Some(&lines));
                    records.push(lines);
                }
                scratch.push_run(Run { start: 0, count: n_ops });
                pushed.push_stream(&mut scratch);
                builders.push(b);
                want.push(records);
            }
            let built = ReplayKernel::from_streams(stub, builders);
            let flat: Vec<&Vec<LineAddr>> = want.iter().flatten().collect();
            for rep in [&built, &pushed] {
                rep.validate().unwrap();
                assert_eq!(rep.records().len(), flat.len());
                for (&word, &lines) in rep.records().iter().zip(&flat) {
                    let (off, len) = rep.span(word);
                    assert_eq!(len as usize, lines.len());
                    assert_eq!(rep.pool_slice((off, len)), lines.as_slice());
                    assert_eq!(rep.slice(word), lines.as_slice());
                }
                for (si, records) in want.iter().enumerate() {
                    let s = rep.stream(si);
                    for (i, lines) in records.iter().enumerate() {
                        assert_eq!(s.access(i as u32), lines.as_slice());
                    }
                    let loads: Vec<Vec<LineAddr>> = s
                        .ops(&body)
                        .filter(|op| op.pos == 0)
                        .map(|op| s.lines(op).to_vec())
                        .collect();
                    assert_eq!(&loads, records);
                }
            }
        });
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
        let rep = ReplayKernel::from_streams(stub(), vec![b, grow]);
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
        assert_eq!(s.access(1), [LineAddr(7), LineAddr(8)]);
        assert_eq!(s.access(3), s.lines(ops[5]));
        // The second stream's records index the pool past the first's lines.
        let g_ops: Vec<TraceOp> = g.ops(&body).collect();
        assert_eq!(g_ops[2], TraceOp { pos: 0, line_off: 4, line_len: 2 });
        assert_eq!(g.access(1), s.access(1));
        assert_eq!(rep.pool().len(), 8);
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
            let rep = ReplayKernel::from_streams(stub(), builders);
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
        }
    }

    #[test]
    fn push_stream_appends_and_resets_the_builder() {
        // The decoder's way: lines and kernel-pool records, then the runs
        // of one reused builder.
        let mut rep = ReplayKernel::new(stub());
        let mut scratch = StreamBuilder::new(2);
        rep.push_line(LineAddr(42));
        rep.push_record(0, 1);
        scratch.push_run(Run { start: 0, count: 2 });
        rep.push_stream(&mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(rep, valid_rep());
        // The next stream starts empty: a run of its own, and a record that
        // repeats the first stream's line.
        rep.push_record(0, 1);
        scratch.push_run(Run { start: 0, count: 1 });
        rep.push_stream(&mut scratch);
        assert_eq!(rep.n_streams(), 2);
        assert_eq!(rep.stream(1).runs(), [Run { start: 0, count: 1 }]);
        assert_eq!(rep.stream(1).access(0), [LineAddr(42)]);
        assert_eq!(rep.stream(0).n_accesses(), 1);
        assert_eq!(rep.pool().len(), 1);
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

//! `LBW1` — the workload-trace wire format.
//!
//! A workload trace is a serialized [`ReplayKernel`]: a kernel-stub header
//! (grid shape, resources, static body, per-load PCs) followed by one
//! per-warp stream section. Behind the 5-byte preamble every field is a
//! LEB128 uvarint — the same wire primitive `lb-trace` uses for event
//! traces — except each body instruction's tag, which is one raw byte. The
//! format is compact, endian-free and append-friendly.
//!
//! Layout (version 3):
//!
//! ```text
//! magic   b"LBW1"
//! version u8 (= 3)
//! name    uvarint len + UTF-8 bytes
//! header  grid_ctas, warps_per_cta, regs_per_thread,
//!         shared_mem_per_cta, iterations          (uvarints)
//! loads   n (at most 65,536), then per load: pc   (uvarints)
//! body    n, then per inst: pc, tag u8 (0 ALU / 1 LOAD / 2 STORE),
//!         arg (ALU latency or load index), wait (0 = none, else id+1)
//! streams n (must equal grid_ctas * warps_per_cta), then per stream:
//!         n_runs + per run: start, count,
//!         then one record per memory op of the runs, in issue order:
//!           h = 0           lineless
//!           h = 2·len + 1   fresh: len zigzag line deltas follow, and the
//!                           lines are appended to the kernel's pool
//!           h = 2·len       repeat: off follows, and the lines are
//!                           pool[off .. off + len] of the pool so far
//! ```
//!
//! A stream is written in the shape a decoded kernel keeps it (layout in
//! [`gpu_sim::replay`]): runs of consecutive body positions, then one
//! access record per op at a Load/Store position. The runs imply the
//! record count, and an ALU op costs no byte. The record section of each
//! stream is the kernel's in-memory record layout, byte for byte: the
//! record codec (varints, delta bases, the repeat table) lives behind
//! [`gpu_sim::replay`], and this module adds the header and the runs.
//!
//! # One line pool per kernel
//!
//! Every record of every stream indexes one kernel-wide line pool, filled
//! in record order: a fresh record appends its lines, and a repeat names a
//! slice of the pool so far, wherever it came from — warps re-read each
//! other's lines. A fresh record's first line is written as a zigzag delta
//! against the first line of the previous non-empty record, fresh or
//! repeat, at the same body position (0 before any); each later line
//! against the line before it. Successive accesses of one instruction lie
//! close together even when the regions of two instructions lie far apart,
//! so most deltas take one or two bytes.
//!
//! # Canonical encoding
//!
//! A record has exactly one header: `h = 1`, a fresh record of no lines,
//! is malformed. Capture and import code their records once, in
//! [`ReplayKernel::from_streams`]: a record is written as a repeat when
//! its lines equal those of a fresh record written before, found in a
//! compact table sized from the record count. The bytes are therefore a
//! function of the runs and of each record's lines. [`encode`] writes the
//! header, each stream's runs and a copy of its record bytes, so
//! `encode(decode(f)) == f` for every file `encode` wrote, and a capture
//! equals its own decode — the properties the capture→replay→re-encode
//! self-check in CI relies on. A file written by another tool may code a
//! repeat inside a fresh record or a non-minimal varint; decode keeps its
//! records as they are, and they encode back unchanged.
//!
//! Version 2 gave each stream a pool of its own, every line coded against
//! the line before it; version 1 listed every op. Neither has a reader: a
//! file of either version is rejected as [`ReplayError::BadVersion`].
//!
//! [`decode`] is the header plus one validating pass over the stream
//! section, through a [`KernelReader`]. It rejects a stream with no run,
//! puts each run through the run check ([`RunCheck`]: start inside the
//! body, at least one op, memory ops counted in O(1)) before the reader
//! merges it, takes each record's body position from the same prefix count
//! (the ranks [`RunCheck::mem_indices`] yields, walked with a counter from
//! the run's count: O(records), no ALU op walked), and puts each record
//! through the record check ([`check_record`]: at most
//! [`MAX_LINES_PER_RECORD`] lines; a repeat's slice inside the pool so
//! far; no line past the pool limit of a record cursor), as integer
//! compares in the reader's fast step or through `check_record` itself in
//! its checked step (see [`gpu_sim::replay`]). It builds only the
//! pool, which doubles, capped at the size the streams read so far project
//! for the whole kernel, and copies the record bytes into one array
//! reserved from the input left; both are shrunk to fit at the end.
//! [`ReplayKernel::validate`] runs the same reader and is debug-asserted
//! on every decoded kernel. Every count is bounded by the remaining input
//! before it sizes an allocation, the record bytes must stay within
//! [`MAX_RECORD_BYTES`], and every failure is a typed [`ReplayError`]. The
//! `decode_sweep` tests decode every prefix of a captured trace and
//! thousands of seeded corruptions of it, and check that every kernel
//! decode accepts also passes `validate`; a root-package test pins a digest
//! of every one of those outcomes, error texts included.
//!
//! [`RunCheck`]: gpu_sim::replay::RunCheck
//! [`RunCheck::mem_indices`]: gpu_sim::replay::RunCheck::mem_indices
//! [`check_record`]: gpu_sim::replay::check_record
//! [`MAX_RECORD_BYTES`]: gpu_sim::replay::MAX_RECORD_BYTES
//!
//! Decoded kernel stubs carry a placeholder [`AccessPattern`] per load:
//! replay never executes patterns, and every policy transform reads only
//! the header fields (registers, warps, shared memory), which round-trip
//! exactly.

use gpu_sim::kernel::{InstKind, KernelSpec, LoadSpec, StaticInst};
use gpu_sim::mem::MAX_LOADS;
use gpu_sim::pattern::AccessPattern;
use gpu_sim::replay::{self, uvarint_len, KernelReader, ReplayKernel, Run, StreamFault};
use gpu_sim::types::{LoadId, Pc};
use lb_trace::put_uvarint;

pub use gpu_sim::replay::MAX_LINES_PER_RECORD;

/// File preamble identifying a workload trace.
pub const MAGIC: [u8; 4] = *b"LBW1";
/// Current format version.
pub const VERSION: u8 = 3;

/// Typed decode/import failure. Every malformed input maps to a variant —
/// the decoder never panics and never over-allocates on hostile lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The file does not start with `b"LBW1"`.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// The input ended mid-record.
    UnexpectedEof {
        /// Byte offset at which more input was required.
        at: usize,
    },
    /// A uvarint ran past 64 bits.
    VarintOverflow {
        /// Byte offset of the offending varint.
        at: usize,
    },
    /// A memory record claims more coalesced lines than any warp can issue.
    OverlongRecord {
        /// Byte offset of the record.
        at: usize,
        /// The claimed line count.
        lines: u64,
    },
    /// The stream section disagrees with the header's grid size.
    StreamCountMismatch {
        /// `grid_ctas * warps_per_cta` from the header.
        expected: u64,
        /// Stream count found in the file.
        found: u64,
    },
    /// Structurally well-formed but semantically invalid content (bad
    /// instruction tag, undefined load, failed [`ReplayKernel::validate`],
    /// out-of-range ids in imported traces, ...).
    Malformed(String),
    /// Underlying I/O failure (message of the `std::io::Error`).
    Io(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::BadMagic => write!(f, "not an LBW1 workload trace (bad magic)"),
            ReplayError::BadVersion(v) => write!(f, "unsupported LBW1 version {v}"),
            ReplayError::UnexpectedEof { at } => write!(f, "truncated input at byte {at}"),
            ReplayError::VarintOverflow { at } => write!(f, "varint overflow at byte {at}"),
            ReplayError::OverlongRecord { at, lines } => {
                write!(f, "record at byte {at} claims {lines} lines (max {MAX_LINES_PER_RECORD})")
            }
            ReplayError::StreamCountMismatch { expected, found } => {
                write!(f, "stream count {found} does not match grid ({expected} warps)")
            }
            ReplayError::Malformed(msg) => write!(f, "malformed workload trace: {msg}"),
            ReplayError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<std::io::Error> for ReplayError {
    fn from(e: std::io::Error) -> Self {
        ReplayError::Io(e.to_string())
    }
}

/// Reads a header uvarint with the record codec's reader
/// ([`replay::get_uvarint`]), its failures as [`ReplayError`]s.
#[inline]
fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, ReplayError> {
    replay::get_uvarint(buf, pos).map_err(|e| fault(e, *pos, String::new()))
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8, ReplayError> {
    let b = *buf.get(*pos).ok_or(ReplayError::UnexpectedEof { at: *pos })?;
    *pos += 1;
    Ok(b)
}

/// Checked u32 narrowing for decoded counts.
fn as_u32(v: u64, what: &str) -> Result<u32, ReplayError> {
    u32::try_from(v).map_err(|_| ReplayError::Malformed(format!("{what} {v} exceeds u32")))
}

/// Fails unless `n` items of at least one byte each fit in the input left
/// after `pos`, so a hostile count is a truncation before it sizes an
/// allocation.
fn fits(n: u64, buf: &[u8], pos: usize) -> Result<usize, ReplayError> {
    if n > buf.len().saturating_sub(pos) as u64 {
        return Err(ReplayError::UnexpectedEof { at: pos });
    }
    Ok(n as usize)
}

/// Reads a count, checked with [`fits`].
fn get_count(buf: &[u8], pos: &mut usize) -> Result<usize, ReplayError> {
    let n = get_uvarint(buf, pos)?;
    fits(n, buf, *pos)
}

/// Serializes `rep` to `LBW1` bytes: the header, then per stream its runs
/// and its record bytes as the kernel keeps them. The kernel's records are
/// already coded (see the module docs), so a decoded trace encodes to its
/// file byte for byte and a capture to the file its decode came from. The
/// buffer is allocated once, at the encoding's exact size. A kernel whose
/// runs fail [`ReplayKernel::validate`] still encodes, to bytes that
/// [`decode`] rejects.
pub fn encode(rep: &ReplayKernel) -> Vec<u8> {
    let stub = &rep.stub;
    let mut head = Vec::new();
    head.extend_from_slice(&MAGIC);
    head.push(VERSION);
    put_uvarint(&mut head, stub.name.len() as u64);
    head.extend_from_slice(stub.name.as_bytes());
    put_uvarint(&mut head, u64::from(stub.grid_ctas));
    put_uvarint(&mut head, u64::from(stub.warps_per_cta));
    put_uvarint(&mut head, u64::from(stub.regs_per_thread));
    put_uvarint(&mut head, stub.shared_mem_per_cta);
    put_uvarint(&mut head, u64::from(stub.iterations));
    put_uvarint(&mut head, stub.loads.len() as u64);
    for l in &stub.loads {
        put_uvarint(&mut head, u64::from(l.pc.0));
    }
    put_uvarint(&mut head, stub.body.len() as u64);
    for inst in &stub.body {
        put_uvarint(&mut head, u64::from(inst.pc.0));
        let (tag, arg) = match inst.kind {
            InstKind::Alu { latency } => (0u8, u64::from(latency)),
            InstKind::Load { load } => (1, u64::from(load.0)),
            InstKind::Store { load } => (2, u64::from(load.0)),
        };
        head.push(tag);
        put_uvarint(&mut head, arg);
        put_uvarint(&mut head, inst.wait_for.map_or(0, |l| u64::from(l.0) + 1));
    }
    put_uvarint(&mut head, rep.n_streams() as u64);
    let run_bytes = |r: &Run| uvarint_len(r.start.into()) + uvarint_len(r.count.into());
    let streams: usize = rep
        .streams()
        .map(|s| {
            let runs = s.runs();
            uvarint_len(runs.len() as u64)
                + runs.iter().map(run_bytes).sum::<usize>()
                + s.record_bytes().len()
        })
        .sum();
    let mut out = Vec::with_capacity(head.len() + streams);
    out.extend_from_slice(&head);
    for s in rep.streams() {
        put_uvarint(&mut out, s.runs().len() as u64);
        for r in s.runs() {
            put_uvarint(&mut out, u64::from(r.start));
            put_uvarint(&mut out, u64::from(r.count));
        }
        out.extend_from_slice(s.record_bytes());
    }
    debug_assert_eq!(out.len(), out.capacity(), "encode sized its buffer wrongly");
    out
}

/// Parses `LBW1` bytes into a validated [`ReplayKernel`] in one pass (see
/// the module docs).
pub fn decode(buf: &[u8]) -> Result<ReplayKernel, ReplayError> {
    let (stub, n_streams, mut pos) = decode_header(buf)?;
    let mut reader = KernelReader::new(stub, n_streams, buf.len() - pos);
    for si in 0..n_streams {
        let n_runs = get_count(buf, &mut pos)?;
        if n_runs == 0 {
            return Err(ReplayError::Malformed(format!("stream {si} is empty")));
        }
        for ri in 0..n_runs {
            let at = pos;
            let start = as_u32(get_uvarint(buf, &mut pos)?, "run start")?;
            let count = as_u32(get_uvarint(buf, &mut pos)?, "run count")?;
            reader
                .push_run(Run { start, count })
                .map_err(|e| fault(e, at, format!("stream {si} run {ri}")))?;
        }
        reader
            .read_records(buf, &mut pos)
            .map_err(|f| fault(f.fault, f.at, format!("stream {si} record {}", f.record)))?;
    }
    let rep = reader.finish();
    debug_assert_eq!(rep.validate(), Ok(()), "decode's checks let an invalid kernel through");
    Ok(rep)
}

/// Parses the header of `LBW1` bytes: the kernel stub, then the stream
/// count, which must match the grid and fit the input left. Returns both
/// and the offset of the first stream.
pub(crate) fn decode_header(buf: &[u8]) -> Result<(KernelSpec, usize, usize), ReplayError> {
    if buf.len() < 4 {
        return Err(if buf.is_empty() {
            ReplayError::UnexpectedEof { at: 0 }
        } else {
            ReplayError::BadMagic
        });
    }
    if buf[..4] != MAGIC {
        return Err(ReplayError::BadMagic);
    }
    let mut pos = 4usize;
    let version = get_u8(buf, &mut pos)?;
    if version != VERSION {
        return Err(ReplayError::BadVersion(version));
    }
    let name_len = get_uvarint(buf, &mut pos)? as usize;
    if name_len > buf.len().saturating_sub(pos) {
        return Err(ReplayError::UnexpectedEof { at: pos });
    }
    let name = std::str::from_utf8(&buf[pos..pos + name_len])
        .map_err(|_| ReplayError::Malformed("kernel name is not UTF-8".into()))?
        .to_string();
    pos += name_len;
    let grid_ctas = as_u32(get_uvarint(buf, &mut pos)?, "grid_ctas")?;
    let warps_per_cta = as_u32(get_uvarint(buf, &mut pos)?, "warps_per_cta")?;
    let regs_per_thread = as_u32(get_uvarint(buf, &mut pos)?, "regs_per_thread")?;
    let shared_mem_per_cta = get_uvarint(buf, &mut pos)?;
    let iterations = as_u32(get_uvarint(buf, &mut pos)?, "iterations")?;

    let n_loads = get_count(buf, &mut pos)?;
    if n_loads > MAX_LOADS as usize {
        return Err(ReplayError::Malformed(format!("{n_loads} static loads exceed {MAX_LOADS}")));
    }
    let mut loads = Vec::with_capacity(n_loads);
    for i in 0..n_loads as u32 {
        let pc = as_u32(get_uvarint(buf, &mut pos)?, "load pc")?;
        // Replay never executes patterns; decoded stubs carry placeholders.
        loads.push(LoadSpec { id: LoadId(i), pc: Pc(pc), pattern: AccessPattern::streaming(128) });
    }

    let n_body = get_count(buf, &mut pos)?;
    as_u32(n_body as u64, "static body length")?;
    let mut body = Vec::with_capacity(n_body);
    for _ in 0..n_body {
        let pc = as_u32(get_uvarint(buf, &mut pos)?, "pc")?;
        let tag_at = pos;
        let tag = get_u8(buf, &mut pos)?;
        let arg = get_uvarint(buf, &mut pos)?;
        let kind = match tag {
            0 => InstKind::Alu { latency: as_u32(arg, "latency")? },
            1 => InstKind::Load { load: LoadId(as_u32(arg, "load index")?) },
            2 => InstKind::Store { load: LoadId(as_u32(arg, "load index")?) },
            t => {
                return Err(ReplayError::Malformed(format!(
                    "unknown instruction tag {t} at byte {tag_at}"
                )))
            }
        };
        let wait = get_uvarint(buf, &mut pos)?;
        let wait_for = match wait {
            0 => None,
            w => Some(LoadId(as_u32(w - 1, "wait id")?)),
        };
        body.push(StaticInst { pc: Pc(pc), kind, wait_for });
    }

    let stub = KernelSpec::from_raw(
        name,
        grid_ctas,
        warps_per_cta,
        regs_per_thread,
        shared_mem_per_cta,
        body,
        iterations,
        loads,
    )
    .map_err(ReplayError::Malformed)?;

    let n_streams = get_uvarint(buf, &mut pos)?;
    let expected = u64::from(grid_ctas) * u64::from(warps_per_cta);
    if n_streams != expected {
        return Err(ReplayError::StreamCountMismatch { expected, found: n_streams });
    }
    // Each stream takes at least a byte.
    fits(n_streams, buf, pos)?;
    Ok((stub, n_streams as usize, pos))
}

/// The typed error for a run or record at byte `at`, named `what`, that
/// failed its check or its read.
#[cold]
fn fault(e: StreamFault, at: usize, what: String) -> ReplayError {
    match e {
        StreamFault::OverlongRecord(lines) => ReplayError::OverlongRecord { at, lines },
        StreamFault::Truncated(at) => ReplayError::UnexpectedEof { at },
        StreamFault::VarintOverflow(at) => ReplayError::VarintOverflow { at },
        e => ReplayError::Malformed(format!("{what}: {e}")),
    }
}

/// How many of `rep`'s access records its `LBW1` file writes as repeats:
/// a fresh record's lines start at its stream's next fresh pool line, and
/// a repeat's lie before it.
pub fn repeat_records(rep: &ReplayKernel) -> usize {
    let repeats = |s: replay::WarpStream<'_>| {
        let mut next = s.cursor().fresh;
        s.records()
            .filter(|&(off, len)| {
                let fresh = off == next;
                next += if fresh { len } else { 0 };
                len > 0 && !fresh
            })
            .count()
    };
    rep.streams().map(repeats).sum()
}

/// Reads and decodes a workload trace from `path`.
pub fn read_file(path: &std::path::Path) -> Result<ReplayKernel, ReplayError> {
    decode(&std::fs::read(path)?)
}

/// Encodes `rep` and writes it to `path`.
pub fn write_file(path: &std::path::Path, rep: &ReplayKernel) -> Result<(), ReplayError> {
    Ok(std::fs::write(path, encode(rep))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::kernel::KernelBuilder;
    use gpu_sim::replay::StreamBuilder;
    use gpu_sim::types::LineAddr;

    /// Body: a load, then three ALU ops.
    fn stub4() -> KernelSpec {
        KernelBuilder::new("fmt")
            .grid(1, 2)
            .regs_per_thread(16)
            .load_then_use(AccessPattern::streaming(128), 1)
            .alu(3)
            .iterations(2)
            .build()
            .unwrap()
    }

    fn sample() -> ReplayKernel {
        // Each stream repeats its first access, and the second stream's
        // second access repeats the first stream's line 11 — the encoder
        // must write both as repeats.
        let stream = |accesses: [&[LineAddr]; 2]| {
            let mut s = StreamBuilder::new(4);
            for lines in accesses {
                s.push(0, Some(lines));
                for pos in 1..4 {
                    s.push(pos, None);
                }
            }
            s
        };
        let pair = [LineAddr(10), LineAddr(11)];
        let s0 = stream([&pair, &pair]);
        let s1 = stream([&[LineAddr(500)], &pair]);
        ReplayKernel::from_streams(stub4(), vec![s0, s1])
    }

    /// Asserts that `a` and `b` hold the same runs and, record by record,
    /// the same lines.
    fn assert_same_streams(a: &ReplayKernel, b: &ReplayKernel) {
        assert_eq!(a.n_streams(), b.n_streams());
        for (sa, sb) in a.streams().zip(b.streams()) {
            assert_eq!(sa.runs(), sb.runs());
            assert_eq!(sa.n_accesses(), sb.n_accesses());
            assert!(sa.accesses().eq(sb.accesses()));
        }
    }

    /// The lines of each access record of `rep`'s stream `si`.
    fn lines_of(rep: &ReplayKernel, si: usize) -> Vec<Vec<u64>> {
        rep.stream(si).accesses().map(|a| a.iter().map(|l| l.0).collect()).collect()
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let rep = sample();
        rep.validate().unwrap();
        let bytes = encode(&rep);
        let back = decode(&bytes).unwrap();
        back.validate().unwrap();
        assert_eq!(back.stub, rep.stub);
        assert_same_streams(&rep, &back);
        for (a, b) in rep.streams().zip(back.streams()) {
            for (oa, ob) in a.ops(&rep.stub.body).zip(b.ops(&back.stub.body)) {
                assert_eq!(oa.pos, ob.pos);
                assert_eq!(a.lines(oa), b.lines(ob));
            }
        }
        // The pool holds each distinct slice once, across streams, in the
        // capture as in its decode: a kernel equals its own decode.
        assert_eq!(back.pool(), [LineAddr(10), LineAddr(11), LineAddr(500)]);
        assert_eq!(back, rep);
        let records: usize = back.streams().map(|s| s.n_accesses()).sum();
        assert_eq!((repeat_records(&back), records), (2, 4));
    }

    #[test]
    fn encode_allocates_its_exact_size() {
        let mut kernels = vec![sample()];
        // With no streams the stream section is the one-byte count.
        let mut stub = stub4();
        stub.grid_ctas = 0;
        kernels.push(ReplayKernel::new(stub));
        // Long names and bodies, and run counts and starts of several bytes.
        let mut long = KernelBuilder::new("n".repeat(300)).grid(1, 1);
        for _ in 0..200 {
            long = long.alu(1);
        }
        let long = long.load(AccessPattern::streaming(128)).build().unwrap();
        let mut s = StreamBuilder::new(201);
        s.push_run(Run { start: 150, count: 100_000 });
        for line in 0..1 + 100_000 / 201 {
            s.push(200, Some(&[LineAddr(line << 20)]));
        }
        kernels.push(ReplayKernel::from_streams(long, vec![s]));
        for rep in &kernels {
            let bytes = encode(rep);
            assert_eq!(bytes.capacity(), bytes.len(), "{}", rep.stub.name.len());
        }
    }

    #[test]
    fn encode_is_canonical() {
        let rep = sample();
        let bytes = encode(&rep);
        let back = decode(&bytes).unwrap();
        assert_eq!(encode(&back), bytes, "re-encoding a decoded trace must be byte-identical");
    }

    #[test]
    fn truncated_file_reports_eof() {
        let bytes = encode(&sample());
        for cut in [0, 3, 5, bytes.len() / 2, bytes.len() - 1] {
            match decode(&bytes[..cut]) {
                Err(ReplayError::UnexpectedEof { .. }) | Err(ReplayError::BadMagic) => {}
                other => panic!("cut at {cut}: expected EOF/BadMagic, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(ReplayError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        // Version 1 listed every op and version 2 kept a pool per stream;
        // neither has a reader any more.
        for v in [1, 2, 9] {
            let mut bytes = encode(&sample());
            bytes[4] = v;
            assert_eq!(decode(&bytes), Err(ReplayError::BadVersion(v)));
        }
    }

    #[test]
    fn overlong_record_rejected() {
        // A record claiming more lines than any warp can coalesce must be
        // rejected by length, before validation ever sees it.
        let mut s = StreamBuilder::new(4);
        s.push(0, Some(&vec![LineAddr(1); MAX_LINES_PER_RECORD as usize + 1]));
        s.push(1, None);
        let bad = ReplayKernel::from_streams(stub4(), vec![s, sample_stream()]);
        match decode(&encode(&bad)) {
            Err(ReplayError::OverlongRecord { lines, .. }) => {
                assert_eq!(lines, MAX_LINES_PER_RECORD + 1);
            }
            other => panic!("expected OverlongRecord, got {other:?}"),
        }
    }

    /// A valid stream over `stub4()`: one load of one line, then the ALU ops.
    fn sample_stream() -> StreamBuilder {
        let mut s = StreamBuilder::new(4);
        s.push(0, Some(&[LineAddr(10)]));
        for pos in 1..4 {
            s.push(pos, None);
        }
        s
    }

    #[test]
    fn stream_count_mismatch_rejected() {
        let rep = ReplayKernel::from_streams(stub4(), vec![sample_stream()]);
        match decode(&encode(&rep)) {
            Err(ReplayError::StreamCountMismatch { expected: 2, found: 1 }) => {}
            other => panic!("expected StreamCountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        let mut bytes = MAGIC.to_vec();
        bytes.push(VERSION);
        bytes.extend_from_slice(&[0xff; 12]); // name length runs past 64 bits
        match decode(&bytes) {
            Err(ReplayError::VarintOverflow { .. }) => {}
            other => panic!("expected VarintOverflow, got {other:?}"),
        }
    }

    #[test]
    fn semantic_garbage_rejected_not_panicking() {
        // An op indexing past the stub body encodes without panicking and
        // fails decode's run check with a typed error.
        let mut s = StreamBuilder::new(4);
        s.push(0, Some(&[LineAddr(10)]));
        s.push(99, None);
        let rep = ReplayKernel::from_streams(stub4(), vec![s, sample_stream()]);
        match decode(&encode(&rep)) {
            Err(ReplayError::Malformed(msg)) => assert!(msg.contains("out of range")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// `stub`'s header re-gridded to one warp, followed by a stream section
    /// given as raw uvarints.
    fn section_for(mut stub: KernelSpec, section: &[u64]) -> Vec<u8> {
        stub.grid_ctas = 1;
        stub.warps_per_cta = 1;
        // With no streams, the header is followed by a one-byte count.
        let mut bytes = encode(&ReplayKernel::new(stub));
        bytes.pop();
        for &v in section {
            put_uvarint(&mut bytes, v);
        }
        bytes
    }

    /// [`section_for`] over `stub4()`: a load, then three ALU ops.
    fn with_stream_section(section: &[u64]) -> Vec<u8> {
        section_for(stub4(), section)
    }

    #[test]
    fn static_loads_past_the_request_field_rejected() {
        // A header declaring one load more than a memory request can name,
        // each with PC 0; the body and streams never get read.
        let mut bytes = MAGIC.to_vec();
        bytes.push(VERSION);
        for v in [0, 1, 1, 16, 0, 1, u64::from(MAX_LOADS) + 1] {
            put_uvarint(&mut bytes, v);
        }
        bytes.resize(bytes.len() + MAX_LOADS as usize + 1, 0);
        match decode(&bytes) {
            Err(ReplayError::Malformed(msg)) => {
                assert_eq!(msg, "65537 static loads exceed 65536")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn huge_stream_count_rejected_before_allocating() {
        // A header may declare any grid; a stream count that matches it
        // must still fit the input before it sizes an allocation.
        let mut stub = stub4();
        stub.grid_ctas = 1 << 20;
        stub.warps_per_cta = 1 << 20;
        let mut bytes = encode(&ReplayKernel::new(stub));
        bytes.pop();
        put_uvarint(&mut bytes, 1 << 40);
        // A valid first stream: one run over an ALU position, no records.
        bytes.extend_from_slice(&[1, 1, 1]);
        match decode(&bytes) {
            Err(ReplayError::UnexpectedEof { .. }) => {}
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn run_and_record_checks_reject_bad_sections() {
        // n_streams, then per stream: n_runs, (start, count)..., then per
        // memory op a header h (0 lineless, 2 len + 1 fresh and its deltas,
        // 2 len repeat and its offset). The body is a load, then three ALU
        // ops, so a run (0, 5) passes the load twice.
        let cases: [(&[u64], &str); 10] = [
            (&[1, 0], "stream 0 is empty"),
            (&[1, 1, 0, 0], "stream 0 run 0: zero-length run"),
            (&[1, 1, 4, 1], "stream 0 run 0: run start 4 out of range"),
            // A repeat with no pool before it, and one past the pool so far.
            (&[1, 1, 0, 1, 2, 0], "stream 0 record 0: line slice 0..1 exceeds pool of 0"),
            (&[1, 1, 0, 5, 3, 20, 4, 0], "stream 0 record 1: line slice 0..2 exceeds pool of 1"),
            (&[1, 1, 0, 1, 1], "stream 0 record 0: fresh record of no lines (h = 1)"),
            (&[1, 1, 0, 1, 2 * 1025 + 1, 20], "claims 1025 lines"),
            (&[1, 1, 0, 1, 2 * 1025, 0], "claims 1025 lines"),
            // Fresh deltas that run past the input: three lines, two deltas.
            (&[1, 1, 0, 1, 7, 20, 2], "truncated input"),
            // A run of 5 passes the load twice, but one record follows.
            (&[1, 1, 0, 5, 3, 20], "truncated input"),
        ];
        for (section, want) in cases {
            let err = decode(&with_stream_section(section)).unwrap_err();
            assert!(err.to_string().contains(want), "{want}: got {err:?}");
        }
        for over in [cases[6].0, cases[7].0] {
            let err = decode(&with_stream_section(over));
            assert!(matches!(err, Err(ReplayError::OverlongRecord { lines: 1025, .. })));
        }
        for short in [cases[8].0, cases[9].0] {
            let err = decode(&with_stream_section(short));
            assert!(matches!(err, Err(ReplayError::UnexpectedEof { .. })), "{err:?}");
        }
        for malformed in [cases[3].0, cases[4].0, cases[5].0] {
            let err = decode(&with_stream_section(malformed));
            assert!(matches!(err, Err(ReplayError::Malformed(_))), "{err:?}");
        }
    }

    #[test]
    fn fresh_deltas_start_from_the_last_record_at_the_same_position() {
        // Two loads, at positions 0 and 1, with regions 2^40 bytes apart.
        let stub = KernelBuilder::new("two")
            .grid(1, 1)
            .load(AccessPattern::streaming(128))
            .load(AccessPattern::streaming(128))
            .build()
            .unwrap();
        let far = 1u64 << 40;
        let zz = |d: i64| ((d << 1) ^ (d >> 63)) as u64;
        // One run of 7 ops: positions 0, 1, 0, 1, 0, 1, 0.
        let section = [
            1,
            1,
            0,
            7,
            5,
            zz(1000),
            zz(1), // pos 0: fresh 1000, 1001 (base 0)
            3,
            zz(far as i64), // pos 1: fresh 2^40 (base 0)
            3,
            zz(4), // pos 0: fresh 1004 (base 1000)
            3,
            zz(4), // pos 1: fresh 2^40 + 4 (base 2^40)
            4,
            0, // pos 0: repeat pool[0..2] = 1000, 1001
            2,
            2, // pos 1: repeat pool[2..3] = 2^40
            3,
            zz(2), // pos 0: fresh 1002 (base 1000, from the repeat)
        ];
        let bytes = section_for(stub, &section);
        let rep = decode(&bytes).unwrap();
        let lines = lines_of(&rep, 0);
        let want: [&[u64]; 7] =
            [&[1000, 1001], &[far], &[1004], &[far + 4], &[1000, 1001], &[far], &[1002]];
        assert_eq!(lines, want);
        assert_eq!((rep.pool().len(), repeat_records(&rep)), (6, 2));
        assert_eq!(encode(&rep), bytes, "the encoder writes the same records");
    }

    #[test]
    fn repeats_inside_and_of_multi_line_records_decode_to_their_lines() {
        let zz = |d: i64| ((d << 1) ^ (d >> 63)) as u64;
        // One run of 13 ops passes the load at 0, 4, 8 and 12.
        let section = [
            1,
            1,
            0,
            13,
            7,
            zz(100),
            zz(1),
            zz(1), // fresh 100, 101, 102: pool[0..3]
            2,
            1, // one-line repeat inside it: pool[1..2] = 101
            4,
            1, // multi-line repeat: pool[1..3] = 101, 102
            3,
            zz(99), // fresh 200, against the last record's first line, 101
        ];
        let bytes = with_stream_section(&section);
        let rep = decode(&bytes).unwrap();
        let want: [&[u64]; 4] = [&[100, 101, 102], &[101], &[101, 102], &[200]];
        assert_eq!(lines_of(&rep, 0), want);
        let spans: Vec<(u32, u32)> = rep.stream(0).records().collect();
        assert_eq!(spans, [(0, 3), (1, 1), (1, 2), (3, 1)]);
        assert_eq!((rep.pool().len(), repeat_records(&rep)), (4, 2));
        // The kernel keeps the file's records as they are.
        assert_eq!(encode(&rep), bytes);
        // Capture codes a repeat only of a whole fresh record, so the same
        // lines recorded op by op code these two fresh.
        let mut s = StreamBuilder::new(4);
        for lines in rep.stream(0).accesses() {
            s.push(0, Some(lines));
            (1..4).for_each(|pos| s.push(pos, None));
        }
        let mut stub = rep.stub.clone();
        stub.warps_per_cta = 1;
        let recoded = ReplayKernel::from_streams(stub, vec![s]);
        assert_eq!((recoded.pool().len(), repeat_records(&recoded)), (7, 0));
        assert!(recoded.stream(0).accesses().eq(rep.stream(0).accesses()));
    }

    #[test]
    fn pool_limit_fault_is_a_typed_error() {
        let limit = gpu_sim::replay::MAX_POOL_LINES;
        let e = fault(StreamFault::PoolLimit(limit, 1), 7, "stream 0 record 0".into());
        match e {
            ReplayError::Malformed(msg) => assert!(msg.contains("passes the pool limit"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn continuing_runs_decode_as_one_and_reencode_canonically() {
        // Runs (0, 2) and (2, 6) walk 0, 1 then 2, 3, 0, 1, 2, 3: one walk
        // of 8 ops from 0, passing the load twice. Line 5 is fresh, then
        // repeated.
        let split = with_stream_section(&[1, 2, 0, 2, 2, 6, 3, 10, 2, 0]);
        let rep = decode(&split).unwrap();
        assert_eq!(rep.stream(0).runs(), [Run { start: 0, count: 8 }]);
        assert_eq!(rep.stream(0).accesses().nth(1), Some(&[LineAddr(5)][..]));
        let canonical = with_stream_section(&[1, 1, 0, 8, 3, 10, 2, 0]);
        assert_eq!(encode(&rep), canonical);
        assert_eq!(decode(&canonical).unwrap(), rep);
    }

    #[test]
    fn a_run_of_u32_max_ops_decodes_without_walking_it() {
        // One warp whose body is one ALU op, running it 2^32 - 1 times: a
        // seven-byte stream section. Decode and validate must not walk it.
        let stub = KernelBuilder::new("spin").grid(1, 1).alu(1).build().unwrap();
        let bytes = section_for(stub, &[1, 1, 0, u64::from(u32::MAX)]);
        let t = std::time::Instant::now();
        let rep = decode(&bytes).unwrap();
        rep.validate().unwrap();
        assert_eq!(rep.dyn_insts(), 4_294_967_295);
        assert_eq!(rep.stream(0).n_accesses(), 0);
        // A walk of 2^32 ops takes minutes in a debug build.
        assert!(t.elapsed() < std::time::Duration::from_secs(1), "took {:?}", t.elapsed());
        assert_eq!(encode(&rep), bytes);
    }

    #[test]
    fn random_kernels_round_trip_through_one_pool() {
        let repeats = std::cell::Cell::new(0);
        testkit::check_n("lbw1_v3_round_trip", 300, |rng| {
            let mut b = KernelBuilder::new("rand").grid(rng.range_u32(1, 4), rng.range_u32(1, 4));
            for _ in 0..rng.range_u32(1, 9) {
                b = match rng.range_u32(0, 3) {
                    0 => b.alu(1),
                    1 => b.load(AccessPattern::streaming(128)),
                    _ => b.store(AccessPattern::streaming(128)),
                };
            }
            let stub = b.build().unwrap();
            let body = stub.body.clone();
            let len = body.len() as u32;
            // A few slices that warps share, multi-line ones and lines far
            // apart among them, for cross-stream repeats.
            let shared: Vec<Vec<LineAddr>> = (0..rng.range_usize(1, 6))
                .map(|_| {
                    let base = rng.range_u64(0, 4) << 40 | rng.range_u64(0, 1 << 20);
                    (0..rng.range_u64(1, 5))
                        .map(|i| LineAddr(base + i * rng.range_u64(1, 3)))
                        .collect()
                })
                .collect();
            let mut streams = Vec::new();
            for _ in 0..stub.grid_ctas * stub.warps_per_cta {
                let mut s = StreamBuilder::new(len);
                let mut pos = rng.range_u32(0, len);
                for i in 0..rng.range_usize(1, 60) {
                    if i > 0 {
                        // Mostly step, wrapping at the body's end; sometimes
                        // branch, as an imported trace does.
                        let step = (pos + 1) % len;
                        pos = if rng.range_u32(0, 6) == 0 { rng.range_u32(0, len) } else { step };
                    }
                    if matches!(body[pos as usize].kind, InstKind::Alu { .. }) {
                        s.push(pos, None);
                        continue;
                    }
                    let lines: Vec<LineAddr> = match rng.range_u32(0, 4) {
                        0 => Vec::new(),
                        1 => (0..rng.range_u64(1, 4))
                            .map(|_| LineAddr(rng.u64() >> rng.range_u32(0, 64)))
                            .collect(),
                        _ => rng.pick(&shared).clone(),
                    };
                    s.push(pos, Some(&lines));
                }
                streams.push(s);
            }
            let raw = ReplayKernel::from_streams(stub, streams);
            raw.validate().unwrap();
            let bytes = encode(&raw);
            let back = decode(&bytes).unwrap();
            back.validate().unwrap();
            assert_eq!(back.stub, raw.stub);
            assert_same_streams(&raw, &back);
            assert_eq!(encode(&back), bytes, "the raw and the decoded form encode alike");
            assert_eq!(back, raw, "a kernel equals its own decode");
            repeats.set(repeats.get() + repeat_records(&back));
        });
        assert!(repeats.get() > 0, "no kernel wrote a repeat, so none was checked");
    }
}

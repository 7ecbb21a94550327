//! `LBW1` — the workload-trace wire format.
//!
//! A workload trace is a serialized [`ReplayKernel`]: a kernel-stub header
//! (grid shape, resources, static body, per-load PCs) followed by one
//! per-warp stream section. Behind the 5-byte preamble every field is a
//! LEB128 uvarint — the same wire primitive `lb-trace` uses for event
//! traces — except each body instruction's tag, which is one raw byte. The
//! format is compact, endian-free and append-friendly.
//!
//! Layout (version 2):
//!
//! ```text
//! magic   b"LBW1"
//! version u8 (= 2)
//! name    uvarint len + UTF-8 bytes
//! header  grid_ctas, warps_per_cta, regs_per_thread,
//!         shared_mem_per_cta, iterations          (uvarints)
//! loads   n, then per load: pc                    (uvarints)
//! body    n, then per inst: pc, tag u8 (0 ALU / 1 LOAD / 2 STORE),
//!         arg (ALU latency or load index), wait (0 = none, else id+1)
//! streams n (must equal grid_ctas * warps_per_cta), then per stream:
//!         n_lines + zigzag-delta line addresses,
//!         n_runs + per run: start, count,
//!         then per memory op of the runs, in issue order:
//!         line_len, and (if line_len > 0) line_off
//! ```
//!
//! A stream is written in the shape a decoded [`WarpStream`] keeps (layout
//! in [`gpu_sim::replay`]): runs of consecutive body positions, then one
//! access record per op at a Load/Store position. The runs imply the
//! record count, and an ALU op costs no byte. Version 1 listed every op; a
//! version-1 file is rejected as [`ReplayError::BadVersion`].
//!
//! The encoder *interns* each stream's line pool: a memory op whose line
//! slice already appeared earlier in the stream references the first
//! occurrence instead of appending a copy. Interning runs at encode time,
//! so a raw capture (which appends every access) and a decoded trace
//! (already interned) serialize to byte-identical files — the property the
//! capture→replay→re-encode self-check in CI relies on.
//!
//! [`decode`] is a single pass over the bytes. It rejects a stream with no
//! run, puts each run through the run check ([`RunCheck`]: start inside
//! the body, at least one op, memory ops counted in O(1)) before
//! [`StreamBuilder::push_run`] merges it, and each record through the
//! record check ([`check_record`]: at most [`MAX_LINES_PER_RECORD`] lines,
//! slice inside the stream's pool). [`ReplayKernel::validate`] runs the
//! same two checks and is debug-asserted on every decoded kernel; neither
//! walks ops. Every count is bounded by the remaining input before it sizes
//! an allocation. The `decode_sweep` tests decode every prefix of a
//! captured trace and thousands of seeded corruptions of it, and check that
//! every kernel decode accepts also passes `validate`.
//!
//! Decoded kernel stubs carry a placeholder [`AccessPattern`] per load:
//! replay never executes patterns, and every policy transform reads only
//! the header fields (registers, warps, shared memory), which round-trip
//! exactly.

use std::collections::HashMap;

use gpu_sim::kernel::{InstKind, KernelSpec, LoadSpec, StaticInst};
use gpu_sim::pattern::AccessPattern;
use gpu_sim::replay::{
    check_record, ReplayKernel, Run, RunCheck, StreamBuilder, StreamFault, WarpStream,
};
use gpu_sim::types::{LineAddr, LoadId, Pc};
use lb_trace::put_uvarint;

pub use gpu_sim::replay::MAX_LINES_PER_RECORD;

/// File preamble identifying a workload trace.
pub const MAGIC: [u8; 4] = *b"LBW1";
/// Current format version.
pub const VERSION: u8 = 2;

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

/// LEB128 reader twin of `lb_trace::get_uvarint`, reporting positions in
/// [`ReplayError`] terms so decode failures carry a byte offset. A one-byte
/// varint, by far the most common, is read inline.
#[inline]
fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, ReplayError> {
    match buf.get(*pos) {
        Some(&b) if b < 0x80 => {
            *pos += 1;
            Ok(u64::from(b))
        }
        _ => {
            let (v, next) = get_uvarint_long(buf, *pos)?;
            *pos = next;
            Ok(v)
        }
    }
}

/// Reads the varint at `start` whatever its length, returning it with the
/// position after it.
fn get_uvarint_long(buf: &[u8], start: usize) -> Result<(u64, usize), ReplayError> {
    let mut v = 0u64;
    // A u64 takes at most ten bytes; the tenth may only hold bit 63.
    for (i, &b) in buf.get(start..).unwrap_or_default().iter().take(10).enumerate() {
        if i == 9 && b > 1 {
            return Err(ReplayError::VarintOverflow { at: start });
        }
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return Ok((v, start + i + 1));
        }
    }
    Err(ReplayError::UnexpectedEof { at: buf.len() })
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

fn put_zigzag(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

#[inline]
fn get_zigzag(buf: &[u8], pos: &mut usize) -> Result<i64, ReplayError> {
    let raw = get_uvarint(buf, pos)?;
    Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
}

/// Serializes `rep` to `LBW1` bytes. Interns each stream's line pool (see
/// the module docs), so the output is canonical: encoding a decoded trace
/// reproduces the file byte for byte.
pub fn encode(rep: &ReplayKernel) -> Vec<u8> {
    let stub = &rep.stub;
    let mut out = Vec::with_capacity(64 + rep.streams.len() * 32);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    put_uvarint(&mut out, stub.name.len() as u64);
    out.extend_from_slice(stub.name.as_bytes());
    put_uvarint(&mut out, u64::from(stub.grid_ctas));
    put_uvarint(&mut out, u64::from(stub.warps_per_cta));
    put_uvarint(&mut out, u64::from(stub.regs_per_thread));
    put_uvarint(&mut out, stub.shared_mem_per_cta);
    put_uvarint(&mut out, u64::from(stub.iterations));
    put_uvarint(&mut out, stub.loads.len() as u64);
    for l in &stub.loads {
        put_uvarint(&mut out, u64::from(l.pc.0));
    }
    put_uvarint(&mut out, stub.body.len() as u64);
    for inst in &stub.body {
        put_uvarint(&mut out, u64::from(inst.pc.0));
        let (tag, arg) = match inst.kind {
            InstKind::Alu { latency } => (0u8, u64::from(latency)),
            InstKind::Load { load } => (1, u64::from(load.0)),
            InstKind::Store { load } => (2, u64::from(load.0)),
        };
        out.push(tag);
        put_uvarint(&mut out, arg);
        put_uvarint(&mut out, inst.wait_for.map_or(0, |l| u64::from(l.0) + 1));
    }
    put_uvarint(&mut out, rep.streams.len() as u64);
    let mut interned: HashMap<&[LineAddr], u32> = HashMap::new();
    for s in &rep.streams {
        // Canonical pool: first occurrence of each distinct line slice, in
        // record order.
        interned.clear();
        let mut pool: Vec<LineAddr> = Vec::new();
        let records: Vec<(u32, u32)> = (0..s.n_accesses() as u32)
            .map(|i| {
                let slice = s.access(i);
                if slice.is_empty() {
                    return (0, 0);
                }
                let off = *interned.entry(slice).or_insert_with(|| {
                    let off = pool.len() as u32;
                    pool.extend_from_slice(slice);
                    off
                });
                (off, slice.len() as u32)
            })
            .collect();
        put_uvarint(&mut out, pool.len() as u64);
        let mut prev = 0i64;
        for line in &pool {
            let cur = line.0 as i64;
            put_zigzag(&mut out, cur.wrapping_sub(prev));
            prev = cur;
        }
        put_uvarint(&mut out, s.runs().len() as u64);
        for r in s.runs() {
            put_uvarint(&mut out, u64::from(r.start));
            put_uvarint(&mut out, u64::from(r.count));
        }
        for &(off, len) in &records {
            put_uvarint(&mut out, u64::from(len));
            if len > 0 {
                put_uvarint(&mut out, u64::from(off));
            }
        }
    }
    out
}

/// Parses `LBW1` bytes into a validated [`ReplayKernel`] in one pass (see
/// the module docs).
pub fn decode(buf: &[u8]) -> Result<ReplayKernel, ReplayError> {
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
    let mut loads = Vec::with_capacity(n_loads);
    for i in 0..n_loads as u32 {
        let pc = as_u32(get_uvarint(buf, &mut pos)?, "load pc")?;
        // Replay never executes patterns; decoded stubs carry placeholders.
        loads.push(LoadSpec { id: LoadId(i), pc: Pc(pc), pattern: AccessPattern::streaming(128) });
    }

    let n_body = get_count(buf, &mut pos)?;
    let body_len = as_u32(n_body as u64, "static body length")?;
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
    let mut streams = Vec::with_capacity(fits(n_streams, buf, pos)?);
    let check = RunCheck::new(&stub.body);
    // Every stream's runs are merged here, then copied out at exact size.
    let mut scratch = StreamBuilder::new(body_len);
    for si in 0..n_streams {
        streams.push(get_stream(buf, &mut pos, si, &check, &mut scratch)?);
    }

    let rep = ReplayKernel { stub, streams };
    debug_assert_eq!(rep.validate(), Ok(()), "decode's checks let an invalid kernel through");
    Ok(rep)
}

/// Reads stream `si`: its line pool, its runs, each checked and merged in
/// `scratch`, then the access records the runs imply, each checked against
/// the pool.
fn get_stream(
    buf: &[u8],
    pos: &mut usize,
    si: u64,
    check: &RunCheck,
    scratch: &mut StreamBuilder,
) -> Result<WarpStream, ReplayError> {
    let n_lines = get_count(buf, pos)?;
    let mut lines = Vec::with_capacity(n_lines);
    let mut prev = 0i64;
    for _ in 0..n_lines {
        let delta = get_zigzag(buf, pos)?;
        prev = prev.wrapping_add(delta);
        lines.push(LineAddr(prev as u64));
    }
    let n_runs = get_count(buf, pos)?;
    if n_runs == 0 {
        return Err(ReplayError::Malformed(format!("stream {si} is empty")));
    }
    let mut mem_ops = 0u64;
    for ri in 0..n_runs {
        let at = *pos;
        let start = as_u32(get_uvarint(buf, pos)?, "run start")?;
        let count = as_u32(get_uvarint(buf, pos)?, "run count")?;
        let run = Run { start, count };
        let run_mem = check.run(run).map_err(|e| fault(e, at, format!("stream {si} run {ri}")))?;
        mem_ops = mem_ops.saturating_add(run_mem);
        scratch.push_run(run);
    }
    let n_records = fits(mem_ops, buf, *pos)?;
    let mut records = Vec::with_capacity(n_records);
    for ai in 0..n_records {
        let at = *pos;
        let len = get_uvarint(buf, pos)?;
        let off = if len > 0 { get_uvarint(buf, pos)? } else { 0 };
        records.push(
            check_record(off, len, lines.len())
                .map_err(|e| fault(e, at, format!("stream {si} record {ai}")))?,
        );
    }
    Ok(scratch.take_with(records, lines))
}

/// The typed error for a run or record at byte `at`, named `what`, that
/// failed its check.
#[cold]
fn fault(e: StreamFault, at: usize, what: String) -> ReplayError {
    match e {
        StreamFault::OverlongRecord(lines) => ReplayError::OverlongRecord { at, lines },
        e => ReplayError::Malformed(format!("{what}: {e}")),
    }
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

    fn sample() -> ReplayKernel {
        let stub = KernelBuilder::new("fmt")
            .grid(1, 2)
            .regs_per_thread(16)
            .load_then_use(AccessPattern::streaming(128), 1)
            .alu(3)
            .iterations(2)
            .build()
            .unwrap();
        // Body: load, ALU, ALU, ALU. Each stream repeats its first access —
        // the encoder must intern it.
        let stream = |lines: &[LineAddr]| {
            let mut s = StreamBuilder::new(4);
            for _ in 0..2 {
                s.push(0, Some(lines));
                for pos in 1..4 {
                    s.push(pos, None);
                }
            }
            s.finish()
        };
        let s0 = stream(&[LineAddr(10), LineAddr(11)]);
        let s1 = stream(&[LineAddr(500)]);
        ReplayKernel { stub, streams: vec![s0, s1] }
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let rep = sample();
        rep.validate().unwrap();
        let bytes = encode(&rep);
        let back = decode(&bytes).unwrap();
        back.validate().unwrap();
        assert_eq!(back.stub, rep.stub);
        assert_eq!(back.streams.len(), rep.streams.len());
        // Interning dedups the repeated slices but the per-op line content
        // is preserved exactly.
        for (a, b) in rep.streams.iter().zip(&back.streams) {
            assert_eq!(a.len(), b.len());
            for (oa, ob) in a.ops(&rep.stub.body).zip(b.ops(&back.stub.body)) {
                assert_eq!(oa.pos, ob.pos);
                assert_eq!(a.lines(oa), b.lines(ob));
            }
        }
        assert!(back.streams[0].pool().len() < rep.streams[0].pool().len());
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
        // Version 1, which listed every op, has no reader any more.
        for v in [1, 9] {
            let mut bytes = encode(&sample());
            bytes[4] = v;
            assert_eq!(decode(&bytes), Err(ReplayError::BadVersion(v)));
        }
    }

    #[test]
    fn overlong_record_rejected() {
        // A record claiming more lines than any warp can coalesce must be
        // rejected by length, before validation ever sees it.
        let mut bad = sample();
        let mut s = StreamBuilder::new(3);
        s.push(0, Some(&vec![LineAddr(1); MAX_LINES_PER_RECORD as usize + 1]));
        s.push(1, None);
        bad.streams[0] = s.finish();
        match decode(&encode(&bad)) {
            Err(ReplayError::OverlongRecord { lines, .. }) => {
                assert_eq!(lines, MAX_LINES_PER_RECORD + 1);
            }
            other => panic!("expected OverlongRecord, got {other:?}"),
        }
    }

    #[test]
    fn stream_count_mismatch_rejected() {
        let mut rep = sample();
        rep.streams.pop();
        let bytes = encode(&rep);
        match decode(&bytes) {
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
        // An op indexing past the stub body decodes structurally but fails
        // validation with a typed error.
        let mut rep = sample();
        let mut s = StreamBuilder::new(3);
        s.push(0, Some(&[LineAddr(10)]));
        s.push(99, None);
        rep.streams[0] = s.finish();
        let bytes = encode(&rep);
        match decode(&bytes) {
            Err(ReplayError::Malformed(msg)) => assert!(msg.contains("out of range")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// The sample's header re-gridded to one warp, followed by a stream
    /// section given as raw uvarints.
    fn with_stream_section(section: &[u64]) -> Vec<u8> {
        let mut stub = sample().stub;
        stub.grid_ctas = 1;
        stub.warps_per_cta = 1;
        // With no streams, the header is followed by a one-byte count.
        let mut bytes = encode(&ReplayKernel { stub, streams: Vec::new() });
        bytes.pop();
        for &v in section {
            put_uvarint(&mut bytes, v);
        }
        bytes
    }

    #[test]
    fn huge_stream_count_rejected_before_allocating() {
        // A header may declare any grid; a stream count that matches it
        // must still fit the input before it sizes an allocation.
        let mut stub = sample().stub;
        stub.grid_ctas = 1 << 20;
        stub.warps_per_cta = 1 << 20;
        let mut bytes = encode(&ReplayKernel { stub, streams: Vec::new() });
        bytes.pop();
        put_uvarint(&mut bytes, 1 << 40);
        match decode(&bytes) {
            Err(ReplayError::UnexpectedEof { .. }) => {}
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn run_and_record_checks_reject_bad_sections() {
        // n_streams, then per stream: n_lines, lines..., n_runs, (start,
        // count)..., then per memory op: line_len (, line_off). The body is
        // the sample's: a load, then three ALU ops.
        let cases: [(&[u64], &str); 6] = [
            (&[1, 0, 0], "stream 0 is empty"),
            (&[1, 0, 1, 0, 0], "stream 0 run 0: zero-length run"),
            (&[1, 0, 1, 4, 1], "stream 0 run 0: run start 4 out of range"),
            (&[1, 1, 0, 1, 0, 1, 2, 0], "stream 0 record 0: line slice 0..2 exceeds pool of 1"),
            (&[1, 0, 1, 0, 1, 1025, 0], "claims 1025 lines"),
            // A run of 5 wraps onto the load twice, but one record follows.
            (&[1, 1, 0, 1, 0, 5, 1, 0], "truncated input"),
        ];
        for (section, want) in cases {
            let err = decode(&with_stream_section(section)).unwrap_err();
            assert!(err.to_string().contains(want), "{want}: got {err:?}");
        }
        let over = decode(&with_stream_section(cases[4].0));
        assert!(matches!(over, Err(ReplayError::OverlongRecord { lines: 1025, .. })));
        let short = decode(&with_stream_section(cases[5].0));
        assert!(matches!(short, Err(ReplayError::UnexpectedEof { .. })));
    }

    #[test]
    fn continuing_runs_decode_as_one_and_reencode_canonically() {
        // Runs (0, 2) and (2, 6) walk 0, 1 then 2, 3, 0, 1, 2, 3: one walk
        // of 8 ops from 0, passing the load twice.
        let split = with_stream_section(&[1, 1, 10, 2, 0, 2, 2, 6, 1, 0, 1, 0]);
        let rep = decode(&split).unwrap();
        assert_eq!(rep.streams[0].runs(), [Run { start: 0, count: 8 }]);
        assert_eq!(rep.streams[0].access(1), [LineAddr(5)]);
        let canonical = with_stream_section(&[1, 1, 10, 1, 0, 8, 1, 0, 1, 0]);
        assert_eq!(encode(&rep), canonical);
        assert_eq!(decode(&canonical).unwrap(), rep);
    }

    #[test]
    fn a_run_of_u32_max_ops_decodes_without_walking_it() {
        // One warp whose body is one ALU op, running it 2^32 - 1 times: an
        // eight-byte stream section. Decode and validate must not walk it.
        let stub = KernelBuilder::new("spin").grid(1, 1).alu(1).build().unwrap();
        let mut bytes = encode(&ReplayKernel { stub, streams: Vec::new() });
        bytes.pop();
        for v in [1, 0, 1, 0, u64::from(u32::MAX)] {
            put_uvarint(&mut bytes, v);
        }
        let t = std::time::Instant::now();
        let rep = decode(&bytes).unwrap();
        rep.validate().unwrap();
        assert_eq!(rep.dyn_insts(), 4_294_967_295);
        assert_eq!(rep.streams[0].n_accesses(), 0);
        // A walk of 2^32 ops takes minutes in a debug build.
        assert!(t.elapsed() < std::time::Duration::from_secs(1), "took {:?}", t.elapsed());
        assert_eq!(encode(&rep), bytes);
    }
}

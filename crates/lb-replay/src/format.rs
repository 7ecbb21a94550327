//! `LBW1` — the workload-trace wire format.
//!
//! A workload trace is a serialized [`ReplayKernel`]: a kernel-stub header
//! (grid shape, resources, static body, per-load PCs) followed by one
//! per-warp stream section. Behind the 5-byte preamble every field is a
//! LEB128 uvarint — the same wire primitive `lb-trace` uses for event
//! traces — except each body instruction's tag, which is one raw byte. The
//! format is compact, endian-free and append-friendly.
//!
//! Layout:
//!
//! ```text
//! magic   b"LBW1"
//! version u8 (= 1)
//! name    uvarint len + UTF-8 bytes
//! header  grid_ctas, warps_per_cta, regs_per_thread,
//!         shared_mem_per_cta, iterations          (uvarints)
//! loads   n, then per load: pc                    (uvarints)
//! body    n, then per inst: pc, tag u8 (0 ALU / 1 LOAD / 2 STORE),
//!         arg (ALU latency or load index), wait (0 = none, else id+1)
//! streams n (must equal grid_ctas * warps_per_cta), then per stream:
//!         n_lines + zigzag-delta line addresses,
//!         n_ops + per op: pos, line_len, and (if line_len > 0) line_off
//! ```
//!
//! The encoder *interns* each stream's line pool: a memory op whose line
//! slice already appeared earlier in the stream references the first
//! occurrence instead of appending a copy. Interning runs at encode time,
//! so a raw capture (which appends every access) and a decoded trace
//! (already interned) serialize to byte-identical files — the property the
//! capture→replay→re-encode self-check in CI relies on.
//!
//! The wire lists every op, but a decoded [`WarpStream`] keeps only runs
//! of consecutive body positions and one access record per memory op
//! (layout in [`gpu_sim::replay`]); [`encode`] walks the runs through the
//! stub body to write the op list back.
//!
//! [`decode`] is a single pass over the bytes. It checks each op once, as
//! it parses it ([`TraceOp::check`]: body position in range, line slice
//! inside the stream's pool, no lines on an ALU op), rejects an empty
//! stream, and only then extends the stream's last run or opens a new one
//! ([`StreamBuilder`]). [`ReplayKernel::validate`] states the same
//! invariants and is debug-asserted on every decoded kernel. The
//! `decode_sweep` tests decode every prefix of a captured trace and
//! thousands of seeded corruptions of it, and check that every kernel
//! decode accepts also passes `validate`.
//!
//! Decoded kernel stubs carry a placeholder [`AccessPattern`] per load:
//! replay never executes patterns, and every policy transform reads only
//! the header fields (registers, warps, shared memory), which round-trip
//! exactly.

use std::collections::HashMap;

use gpu_sim::kernel::{InstKind, KernelSpec, LoadSpec, StaticInst};
use gpu_sim::pattern::AccessPattern;
use gpu_sim::replay::{ReplayKernel, StreamBuilder, TraceOp, WarpStream};
use gpu_sim::types::{LineAddr, LoadId, Pc};
use lb_trace::put_uvarint;

/// File preamble identifying a workload trace.
pub const MAGIC: [u8; 4] = *b"LBW1";
/// Current format version.
pub const VERSION: u8 = 1;
/// Upper bound on coalesced lines per record: a 32-lane warp touching
/// wide vectors stays far below this, so anything larger is a corrupt or
/// adversarial record, rejected before it can size an allocation.
pub const MAX_LINES_PER_RECORD: u64 = 1024;

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

/// Reads one op record: `pos`, `line_len` and, if `line_len > 0`,
/// `line_off`. When the next three bytes are one-byte varints the record
/// is read with one bounds check; anything else takes the general path,
/// which keeps every check.
#[inline]
fn get_op(buf: &[u8], pos: &mut usize) -> Result<TraceOp, ReplayError> {
    if let Some(&[p, len, off]) = buf.get(*pos..*pos + 3) {
        if (p | len | off) < 0x80 {
            let (p, len, off) = (u32::from(p), u32::from(len), u32::from(off));
            if len == 0 {
                // `off` is the next record's first byte.
                *pos += 2;
                return Ok(TraceOp { pos: p, line_off: 0, line_len: 0 });
            }
            *pos += 3;
            return Ok(TraceOp { pos: p, line_off: off, line_len: len });
        }
    }
    let (op, next) = get_op_general(buf, *pos)?;
    *pos = next;
    Ok(op)
}

#[cold]
fn get_op_general(buf: &[u8], start: usize) -> Result<(TraceOp, usize), ReplayError> {
    let mut pos = start;
    let p = as_u32(get_uvarint(buf, &mut pos)?, "body position")?;
    let len = get_uvarint(buf, &mut pos)?;
    if len > MAX_LINES_PER_RECORD {
        return Err(ReplayError::OverlongRecord { at: start, lines: len });
    }
    let off = if len > 0 { as_u32(get_uvarint(buf, &mut pos)?, "line offset")? } else { 0 };
    Ok((TraceOp { pos: p, line_off: off, line_len: len as u32 }, pos))
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
    let mut interned: HashMap<Vec<LineAddr>, u32> = HashMap::new();
    for s in &rep.streams {
        // Canonical pool: first occurrence of each distinct line slice, in
        // op order.
        interned.clear();
        let mut pool: Vec<LineAddr> = Vec::new();
        let mut slots: Vec<(u32, u32)> = Vec::with_capacity(s.len());
        for op in s.ops(&stub.body) {
            if op.line_len == 0 {
                slots.push((0, 0));
                continue;
            }
            let slice = s.lines(op);
            let off = *interned.entry(slice.to_vec()).or_insert_with(|| {
                let off = pool.len() as u32;
                pool.extend_from_slice(slice);
                off
            });
            slots.push((off, op.line_len));
        }
        put_uvarint(&mut out, pool.len() as u64);
        let mut prev = 0i64;
        for line in &pool {
            let cur = line.0 as i64;
            put_zigzag(&mut out, cur.wrapping_sub(prev));
            prev = cur;
        }
        put_uvarint(&mut out, s.len() as u64);
        for (op, &(off, len)) in s.ops(&stub.body).zip(&slots) {
            put_uvarint(&mut out, u64::from(op.pos));
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

    let n_loads = get_uvarint(buf, &mut pos)?;
    if n_loads > buf.len() as u64 {
        return Err(ReplayError::UnexpectedEof { at: pos });
    }
    let mut loads = Vec::with_capacity(n_loads as usize);
    for i in 0..n_loads as u32 {
        let pc = as_u32(get_uvarint(buf, &mut pos)?, "load pc")?;
        // Replay never executes patterns; decoded stubs carry placeholders.
        loads.push(LoadSpec { id: LoadId(i), pc: Pc(pc), pattern: AccessPattern::streaming(128) });
    }

    let n_body = get_uvarint(buf, &mut pos)?;
    if n_body > buf.len() as u64 {
        return Err(ReplayError::UnexpectedEof { at: pos });
    }
    let body_len = as_u32(n_body, "static body length")?;
    let mut body = Vec::with_capacity(n_body as usize);
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
    if n_streams > buf.len() as u64 {
        return Err(ReplayError::UnexpectedEof { at: pos });
    }
    let mut streams = Vec::with_capacity(n_streams as usize);
    // Every stream is built here, then copied out at exact size.
    let mut scratch = StreamBuilder::new(body_len);
    for si in 0..n_streams {
        streams.push(get_stream(buf, &mut pos, si, &stub.body, &mut scratch)?);
    }

    let rep = ReplayKernel { stub, streams };
    debug_assert_eq!(
        rep.validate(),
        Ok(()),
        "decode's per-op checks let an invalid kernel through"
    );
    Ok(rep)
}

/// Reads stream `si`: its line pool, then its ops, each checked against the
/// stub `body` and the pool as it is parsed and then pushed onto `scratch`
/// (with its access record if it is a memory op).
fn get_stream(
    buf: &[u8],
    pos: &mut usize,
    si: u64,
    body: &[StaticInst],
    scratch: &mut StreamBuilder,
) -> Result<WarpStream, ReplayError> {
    let n_lines = get_uvarint(buf, pos)?;
    if n_lines > buf.len() as u64 {
        return Err(ReplayError::UnexpectedEof { at: *pos });
    }
    let mut lines = Vec::with_capacity(n_lines as usize);
    let mut prev = 0i64;
    for _ in 0..n_lines {
        let delta = get_zigzag(buf, pos)?;
        prev = prev.wrapping_add(delta);
        lines.push(LineAddr(prev as u64));
    }
    let n_ops = get_uvarint(buf, pos)?;
    if n_ops > buf.len() as u64 {
        return Err(ReplayError::UnexpectedEof { at: *pos });
    }
    if n_ops == 0 {
        return Err(ReplayError::Malformed(format!("stream {si} is empty")));
    }
    for oi in 0..n_ops {
        let op = get_op(buf, pos)?;
        let mem = op
            .check(body, lines.len())
            .map_err(|e| ReplayError::Malformed(format!("stream {si} op {oi}: {e}")))?;
        scratch.push_ref(op.pos, mem.then_some((op.line_off, op.line_len)));
    }
    Ok(scratch.take_with_pool(lines))
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
        // Each stream repeats its first access — the encoder must intern it.
        let stream = |lines: &[LineAddr]| {
            let mut s = StreamBuilder::new(3);
            for _ in 0..2 {
                s.push(0, Some(lines));
                s.push(1, None);
                s.push(2, None);
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
        let mut bytes = encode(&sample());
        bytes[4] = 9;
        assert_eq!(decode(&bytes), Err(ReplayError::BadVersion(9)));
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
    fn fused_checks_reject_what_validate_rejects() {
        // n_streams, then per stream: n_lines, lines..., n_ops, ops...
        let cases: [(&[u64], &str); 4] = [
            (&[1, 0, 0], "is empty"),
            (&[1, 1, 0, 1, 9, 0], "out of range"),
            (&[1, 1, 0, 1, 0, 2, 0], "exceeds pool"),
            (&[1, 1, 0, 1, 1, 1, 0], "ALU op carries"),
        ];
        for (section, want) in cases {
            match decode(&with_stream_section(section)) {
                Err(ReplayError::Malformed(msg)) => assert!(msg.contains(want), "{msg}"),
                other => panic!("expected Malformed({want}), got {other:?}"),
            }
        }
    }
}

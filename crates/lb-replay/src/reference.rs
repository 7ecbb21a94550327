//! A frozen copy of the record-word kernel layout the record bytes
//! replaced, and of its `LBW1` stream-section reader: the reference the
//! differential tests below compare the record cursor and
//! [`WarpStream::ops`](gpu_sim::replay::WarpStream::ops) with.
//!
//! An access record was one `u32` word: below 2^31 the pool index of a
//! one-line access, [`LINELESS`] an access of no line, and any other word
//! the tagged index of a `(line_off, line_len)` entry in a table of
//! multi-line records. Capture and import appended every access's lines to
//! the pool; the decoder appended each fresh record's lines and pointed a
//! repeat at the lines already there.

use gpu_sim::kernel::{InstKind, StaticInst};
use gpu_sim::replay::{get_uvarint, Run, RunCheck, StreamBuilder};
use gpu_sim::types::LineAddr;

/// Record word of an access that touched no line.
const LINELESS: u32 = u32::MAX;

/// Tag bit of a record word that indexes the multi-line table.
const MULTI: u32 = 1 << 31;

/// The record-word kernel: runs, record words, multi-line table, pool and
/// per-stream bounds, as flat arrays.
#[derive(Debug, Default)]
pub struct RefKernel {
    runs: Vec<Run>,
    records: Vec<u32>,
    multi: Vec<(u32, u32)>,
    pool: Vec<LineAddr>,
    run_bounds: Vec<u32>,
    record_bounds: Vec<u32>,
}

impl RefKernel {
    fn new() -> Self {
        RefKernel { run_bounds: vec![0], record_bounds: vec![0], ..Default::default() }
    }

    fn push_record(&mut self, line_off: u32, line_len: u32) {
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

    /// Closes a stream of `runs` over the records pushed since the last.
    fn close_stream(&mut self, runs: &[Run]) {
        self.runs.extend_from_slice(runs);
        self.run_bounds.push(self.runs.len() as u32);
        self.record_bounds.push(self.records.len() as u32);
    }

    /// The capture and import layout: each stream's runs from `builders`,
    /// and each of its accesses in `accesses` appended to the pool.
    pub fn from_accesses(builders: &[StreamBuilder], accesses: &[Vec<Vec<LineAddr>>]) -> Self {
        let mut rep = RefKernel::new();
        for (b, stream) in builders.iter().zip(accesses) {
            for lines in stream {
                rep.push_record(rep.pool.len() as u32, lines.len() as u32);
                rep.pool.extend_from_slice(lines);
            }
            rep.close_stream(b.runs());
        }
        rep
    }

    /// The record-word decoder's reading of a file's stream section,
    /// `n_streams` streams from `pos`, over `body`. Reads only files the
    /// current decoder accepts, and panics on anything else.
    pub fn decode_streams(
        buf: &[u8],
        mut pos: usize,
        n_streams: usize,
        body: &[StaticInst],
    ) -> Self {
        let check = RunCheck::new(body);
        let mut base = vec![0u64; check.n_mem()];
        let mut rep = RefKernel::new();
        let get = |pos: &mut usize| get_uvarint(buf, pos).unwrap();
        for _ in 0..n_streams {
            let mut runs = StreamBuilder::new(body.len() as u32);
            for _ in 0..get(&mut pos) {
                let start = get(&mut pos) as u32;
                runs.push_run(Run { start, count: get(&mut pos) as u32 });
            }
            for &run in runs.runs() {
                for k in check.mem_indices(run) {
                    let h = get(&mut pos);
                    let len = (h >> 1) as u32;
                    if h == 0 {
                        rep.push_record(0, 0);
                    } else if h & 1 == 1 {
                        let off = rep.pool.len() as u32;
                        let mut line = base[k];
                        for i in 0..len {
                            let raw = get(&mut pos);
                            let delta = ((raw >> 1) as i64) ^ -((raw & 1) as i64);
                            line = line.wrapping_add(delta as u64);
                            if i == 0 {
                                base[k] = line;
                            }
                            rep.pool.push(LineAddr(line));
                        }
                        rep.push_record(off, len);
                    } else {
                        let off = get(&mut pos) as u32;
                        base[k] = rep.pool[off as usize].0;
                        rep.push_record(off, len);
                    }
                }
            }
            rep.close_stream(runs.runs());
        }
        rep
    }

    /// Number of streams held.
    pub fn n_streams(&self) -> usize {
        self.run_bounds.len() - 1
    }

    fn span(&self, word: u32) -> (u32, u32) {
        if word & MULTI == 0 {
            (word, 1)
        } else if word == LINELESS {
            (0, 0)
        } else {
            self.multi[(word & !MULTI) as usize]
        }
    }

    fn slice(&self, word: u32) -> &[LineAddr] {
        let (off, len) = self.span(word);
        &self.pool[off as usize..(off + len) as usize]
    }

    /// Stream `i`'s runs.
    pub fn runs(&self, i: usize) -> &[Run] {
        &self.runs[self.run_bounds[i] as usize..self.run_bounds[i + 1] as usize]
    }

    /// The lines of each access record of stream `i`, in issue order.
    pub fn accesses(&self, i: usize) -> Vec<&[LineAddr]> {
        let b = &self.record_bounds;
        self.records[b[i] as usize..b[i + 1] as usize].iter().map(|&w| self.slice(w)).collect()
    }

    /// Stream `i`'s ops as `(body position, lines)`, walked through `body`
    /// as the record-word `WarpStream::ops` walked them.
    pub fn ops(&self, i: usize, body: &[StaticInst]) -> Vec<(u32, Vec<LineAddr>)> {
        let mut records = self.accesses(i).into_iter();
        let mut ops = Vec::new();
        for r in self.runs(i) {
            let mut pos = r.start;
            for _ in 0..r.count {
                let mem = !matches!(body[pos as usize].kind, InstKind::Alu { .. });
                let lines = if mem { records.next().unwrap_or(&[]) } else { &[] };
                ops.push((pos, lines.to_vec()));
                pos = if pos + 1 == body.len() as u32 { 0 } else { pos + 1 };
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{decode, decode_header, encode};
    use gpu_sim::kernel::KernelBuilder;
    use gpu_sim::pattern::AccessPattern;
    use gpu_sim::replay::{ReplayKernel, WarpStream};

    /// Asserts that the record cursor, `accesses` and `ops` of `rep` read
    /// the same line slices, stream by stream, as `reference`.
    fn assert_reads_like(rep: &ReplayKernel, reference: &RefKernel, case: &str) {
        assert_eq!(rep.n_streams(), reference.n_streams(), "{case}");
        for (si, s) in rep.streams().enumerate() {
            let want = reference.accesses(si);
            assert_eq!(s.runs(), reference.runs(si), "{case}: stream {si} runs");
            let mut cur = s.cursor();
            let cursor: Vec<&[LineAddr]> =
                (0..want.len()).map(|_| rep.read_record(&mut cur)).collect();
            assert_eq!(cursor, want, "{case}: stream {si} through the cursor");
            assert_eq!(cur, s.end(), "{case}: stream {si} cursor end");
            assert_eq!(s.accesses().collect::<Vec<_>>(), want, "{case}: stream {si} accesses");
            let body = &rep.stub.body;
            let ops = |s: WarpStream<'_>| -> Vec<(u32, Vec<LineAddr>)> {
                s.ops(body).map(|op| (op.pos, s.lines(op).to_vec())).collect()
            };
            assert_eq!(ops(s), reference.ops(si, body), "{case}: stream {si} ops");
        }
    }

    #[test]
    fn random_streams_read_like_the_record_word_kernel() {
        testkit::check_n("record_bytes_match_record_words", 300, |rng| {
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
            // Slices warps share, for repeats across streams.
            let shared: Vec<Vec<LineAddr>> = (0..rng.range_usize(1, 6))
                .map(|_| {
                    (0..rng.range_u64(1, 5)).map(|_| LineAddr(rng.range_u64(0, 1 << 40))).collect()
                })
                .collect();
            let mut builders = Vec::new();
            let mut accesses = Vec::new();
            for _ in 0..stub.grid_ctas * stub.warps_per_cta {
                let mut s = StreamBuilder::new(len);
                let mut stream = Vec::new();
                let mut pos = rng.range_u32(0, len);
                for i in 0..rng.range_usize(1, 80) {
                    if i > 0 {
                        // Mostly step, wrapping at the body's end; sometimes
                        // branch.
                        let step = (pos + 1) % len;
                        pos = if rng.range_u32(0, 6) == 0 { rng.range_u32(0, len) } else { step };
                    }
                    if matches!(body[pos as usize].kind, InstKind::Alu { .. }) {
                        s.push(pos, None);
                        continue;
                    }
                    let lines: Vec<LineAddr> = match rng.range_u32(0, 5) {
                        0 => Vec::new(),
                        1 => {
                            let n = if rng.range_u32(0, 10) == 0 { 1024 } else { 4 };
                            (0..rng.range_u64(2, n + 1)).map(|_| LineAddr(rng.u64() >> 8)).collect()
                        }
                        2 => vec![LineAddr(rng.u64() >> rng.range_u32(0, 64))],
                        _ => rng.pick(&shared).clone(),
                    };
                    s.push(pos, Some(&lines));
                    stream.push(lines);
                }
                builders.push(s);
                accesses.push(stream);
            }
            let reference = RefKernel::from_accesses(&builders, &accesses);
            let rep = ReplayKernel::from_streams(stub, builders);
            rep.validate().unwrap();
            assert_reads_like(&rep, &reference, "capture");
            let bytes = encode(&rep);
            let back = decode(&bytes).unwrap();
            assert_reads_like(&back, &reference, "decoded capture");
            let (stub, n_streams, pos) = decode_header(&bytes).unwrap();
            let words = RefKernel::decode_streams(&bytes, pos, n_streams, &stub.body);
            assert_reads_like(&back, &words, "record-word decode");
        });
    }

    #[test]
    fn corpus_reads_like_the_record_word_kernel() {
        for name in ["bi-mixed", "ge-stream", "s1-reuse"] {
            let bytes = std::fs::read(crate::testdata_dir().join(format!("{name}.lbw1"))).unwrap();
            let rep = decode(&bytes).unwrap();
            let (stub, n_streams, pos) = decode_header(&bytes).unwrap();
            let words = RefKernel::decode_streams(&bytes, pos, n_streams, &stub.body);
            assert_eq!(words.pool, rep.pool(), "{name}: pool");
            assert_reads_like(&rep, &words, name);
        }
    }
}

//! Importer for Accel-Sim-style text kernel traces (`kernel-*.traceg`).
//!
//! Accel-Sim's NVBit tracer writes one text file per kernel: `-key = value`
//! header lines, then one `#BEGIN_TB`/`#END_TB` section per thread block
//! containing per-warp instruction listings. This importer consumes the
//! subset of that format sufficient for line-granular replay and normalizes
//! it into a [`ReplayKernel`]:
//!
//! ```text
//! -kernel name = vecadd
//! -grid dim = (2,1,1)
//! -block dim = (64,1,1)
//! -nregs = 16
//! -shmem = 0
//!
//! #BEGIN_TB
//! thread block = 0,0,0
//! warp = 0
//! insts = 3
//! 0000 ffffffff 1 R2 LDG.E 1 R4 4 1 0x7f0000000000 128
//! 0010 ffffffff 1 R6 IMAD 2 R2 R5 0
//! 0020 ffffffff 0 STG.E 2 R4 R6 4 1 0x7f0000100000 128
//! warp = 1
//! ...
//! #END_TB
//! ```
//!
//! Instruction lines are `PC mask n_dest dests... OPCODE n_src srcs...
//! mem_width`, and memory instructions (`mem_width > 0`) append an address
//! descriptor: mode `0` followed by one byte address per active lane, or
//! mode `1` followed by `base stride` (lane *i* at `base + i*stride`) —
//! the two uncompressed encodings Accel-Sim's tracer emits. Per-lane byte
//! addresses are coalesced to distinct 128 B lines in first-touch order.
//! A memory instruction whose active mask is 0 (every lane predicated off)
//! touches no line and imports as a lineless memory op.
//!
//! Normalization into `LBW1` terms:
//! - Distinct PCs become the static body, in first-appearance order. `LD*`
//!   opcodes map to loads, `ST*` to stores (each mem PC gets its own
//!   load-spec slot, as the synthetic builder does), everything else to ALU
//!   with a coarse latency model ([`opcode_latency`]). A body past
//!   `u32::MAX` instructions is a typed error.
//! - Each warp's instructions are appended to its stream through a
//!   [`StreamBuilder`] over a growing body ([`GROWING_BODY`]): a jump
//!   (a taken branch) opens a new run.
//! - Scoreboard edges are recovered from registers: at a PC's first dynamic
//!   occurrence, a source register produced by a still-pending load gives
//!   the static instruction its `wait_for` edge.
//! - Thread blocks are CTAs in file order; `warp = N` indexes streams
//!   within the block. A warp id at or past `block warps` is a typed error
//!   ([`ReplayError::Malformed`]), as is a block count that disagrees with
//!   `-grid dim` and a warp that lists more or fewer instruction lines than
//!   its `insts = N`. So is a block that brings the grid to more warps than
//!   the file has lines: every warp lists at least one instruction, and the
//!   check comes before the warps' streams are allocated.

use std::collections::HashMap;
use std::path::Path;

use gpu_sim::kernel::{InstKind, KernelSpec, LoadSpec, StaticInst};
use gpu_sim::mem::MAX_LOADS;
use gpu_sim::pattern::{coalesce_bytes, AccessPattern};
use gpu_sim::replay::{ReplayKernel, StreamBuilder, GROWING_BODY};
use gpu_sim::types::{LineAddr, LoadId, Pc};

use crate::format::{ReplayError, MAX_LINES_PER_RECORD};

/// Lanes per warp assumed by the importer (Accel-Sim masks are 32-bit).
const WARP_LANES: u32 = 32;

/// Coarse issue-latency model for non-memory SASS opcodes: transcendental
/// SFU ops and double-precision run long, fused integer/float pipes take
/// two cycles, everything else single-issues. Replay timing fidelity comes
/// from the recorded memory behaviour; this only shapes ALU spacing.
pub fn opcode_latency(opcode: &str) -> u32 {
    let base = opcode.split('.').next().unwrap_or(opcode);
    match base {
        "MUFU" | "RCP" | "SQRT" | "RSQ" | "SIN" | "COS" | "LG2" | "EX2" => 4,
        "DADD" | "DMUL" | "DFMA" | "DSETP" => 8,
        "IMAD" | "FFMA" | "FMUL" | "FADD" | "IADD3" | "LEA" | "SHF" => 2,
        _ => 1,
    }
}

fn malformed(line_no: usize, msg: impl std::fmt::Display) -> ReplayError {
    ReplayError::Malformed(format!("line {line_no}: {msg}"))
}

fn parse_dim3(v: &str) -> Option<u64> {
    let inner = v.trim().strip_prefix('(')?.strip_suffix(')')?;
    let mut total = 1u64;
    for part in inner.split(',') {
        total = total.checked_mul(part.trim().parse::<u64>().ok()?)?;
    }
    Some(total)
}

fn parse_reg(tok: &str) -> Option<u32> {
    // "RZ" is the zero register: never a real dependency.
    tok.strip_prefix('R').and_then(|n| n.parse::<u32>().ok())
}

fn parse_num(tok: &str) -> Option<u64> {
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        tok.parse::<u64>().ok()
    }
}

/// One parsed instruction line.
struct RawInst {
    pc: u32,
    dests: Vec<u32>,
    opcode: String,
    srcs: Vec<u32>,
    /// The line carries an address descriptor (`mem_width > 0`).
    has_addresses: bool,
    /// Coalesced lines of a memory instruction; empty for ALU and for a
    /// memory instruction with every lane predicated off.
    lines: Vec<LineAddr>,
}

fn parse_inst_line(line: &str, line_no: usize) -> Result<RawInst, ReplayError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let mut i = 0usize;
    let mut next = |what: &str| -> Result<&str, ReplayError> {
        let t = toks.get(i).copied().ok_or_else(|| malformed(line_no, format!("missing {what}")));
        i += 1;
        t
    };
    let pc = u32::from_str_radix(next("PC")?, 16)
        .map_err(|_| malformed(line_no, "PC is not hexadecimal"))?;
    let mask = u32::from_str_radix(next("active mask")?, 16)
        .map_err(|_| malformed(line_no, "mask is not hexadecimal"))?;
    let n_dest: usize = next("dest count")?
        .parse()
        .map_err(|_| malformed(line_no, "dest count is not a number"))?;
    let mut dests = Vec::with_capacity(n_dest);
    for _ in 0..n_dest {
        if let Some(r) = parse_reg(next("dest register")?) {
            dests.push(r);
        }
    }
    let opcode = next("opcode")?.to_string();
    let n_src: usize =
        next("src count")?.parse().map_err(|_| malformed(line_no, "src count is not a number"))?;
    let mut srcs = Vec::with_capacity(n_src);
    for _ in 0..n_src {
        if let Some(r) = parse_reg(next("src register")?) {
            srcs.push(r);
        }
    }
    let mem_width: u64 =
        next("mem width")?.parse().map_err(|_| malformed(line_no, "mem width is not a number"))?;
    let mut lines = Vec::new();
    if mem_width > 0 {
        let active = u64::from(mask.count_ones().min(WARP_LANES));
        let mode = next("address mode")?;
        let mut bytes = Vec::with_capacity(active as usize);
        match mode {
            "0" => {
                for _ in 0..active {
                    let a = parse_num(next("lane address")?)
                        .ok_or_else(|| malformed(line_no, "bad lane address"))?;
                    bytes.push(a);
                }
            }
            "1" => {
                let base = parse_num(next("base address")?)
                    .ok_or_else(|| malformed(line_no, "bad base address"))?;
                let stride =
                    parse_num(next("stride")?).ok_or_else(|| malformed(line_no, "bad stride"))?;
                for lane in 0..active {
                    bytes.push(base.wrapping_add(lane.wrapping_mul(stride)));
                }
            }
            m => return Err(malformed(line_no, format!("unsupported address mode '{m}'"))),
        }
        coalesce_bytes(&bytes, &mut lines);
        if lines.len() as u64 > MAX_LINES_PER_RECORD {
            return Err(ReplayError::OverlongRecord { at: line_no, lines: lines.len() as u64 });
        }
    }
    Ok(RawInst { pc, dests, opcode, srcs, has_addresses: mem_width > 0, lines })
}

/// Parses Accel-Sim-style trace text into a validated [`ReplayKernel`].
pub fn import_str(text: &str) -> Result<ReplayKernel, ReplayError> {
    let mut name = String::from("imported");
    let mut grid_ctas: Option<u64> = None;
    let mut block_threads: Option<u64> = None;
    let mut nregs = 16u32;
    let mut shmem = 0u64;

    // Static-body accumulation: PC → body index, discovered in file order.
    let mut body: Vec<StaticInst> = Vec::new();
    let mut loads: Vec<LoadSpec> = Vec::new();
    let mut pc_index: HashMap<u32, u32> = HashMap::new();

    let mut streams: Vec<StreamBuilder> = Vec::new();
    let mut warps_per_cta = 0u32;
    let mut cta = -1i64;
    let mut cur_stream: Option<usize> = None;
    // Instruction lines the current warp has yet to list, and the line
    // number and count of its `insts = N`.
    let mut insts_left = 0u64;
    let mut insts_decl = (0usize, 0u64);
    // Per-warp pending-load scoreboard: register → load id, reset per warp.
    let mut pending: HashMap<u32, LoadId> = HashMap::new();

    let n_lines = text.lines().count();
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('-') {
            if let Some((key, value)) = rest.split_once('=') {
                let (key, value) = (key.trim(), value.trim());
                match key {
                    "kernel name" => name = value.to_string(),
                    "grid dim" => {
                        grid_ctas = Some(
                            parse_dim3(value).ok_or_else(|| malformed(line_no, "bad grid dim"))?,
                        );
                    }
                    "block dim" => {
                        block_threads = Some(
                            parse_dim3(value).ok_or_else(|| malformed(line_no, "bad block dim"))?,
                        );
                    }
                    "nregs" => {
                        nregs = value.parse().map_err(|_| malformed(line_no, "bad nregs"))?;
                    }
                    "shmem" => {
                        shmem = value.parse().map_err(|_| malformed(line_no, "bad shmem"))?;
                    }
                    _ => {} // other header keys (kernel id, binary version, ...) are irrelevant
                }
            }
            continue;
        }
        if line == "#BEGIN_TB" {
            let threads =
                block_threads.ok_or_else(|| malformed(line_no, "#BEGIN_TB before block dim"))?;
            warps_per_cta = u32::try_from(threads.div_ceil(u64::from(WARP_LANES)))
                .map_err(|_| malformed(line_no, "block dim exceeds u32 warps"))?
                .max(1);
            cta += 1;
            // Every warp lists at least one instruction line, so the file's
            // lines bound the warps it can list before they size anything.
            let warps = (cta as u64 + 1) * u64::from(warps_per_cta);
            if warps > n_lines as u64 {
                return Err(malformed(
                    line_no,
                    format!(
                        "{warps} warps declared, more than the file's {n_lines} lines can list"
                    ),
                ));
            }
            streams.resize(warps as usize, StreamBuilder::new(GROWING_BODY));
            cur_stream = None;
            continue;
        }
        if line == "#END_TB" {
            check_listed(insts_left, insts_decl)?;
            continue;
        }
        if line.starts_with("thread block") {
            continue;
        }
        if let Some(v) = line.strip_prefix("warp = ") {
            check_listed(insts_left, insts_decl)?;
            if cta < 0 {
                return Err(malformed(line_no, "warp header outside a thread block"));
            }
            let w: u32 = v.trim().parse().map_err(|_| malformed(line_no, "bad warp id"))?;
            if w >= warps_per_cta {
                return Err(malformed(
                    line_no,
                    format!("warp id {w} out of range (block has {warps_per_cta} warps)"),
                ));
            }
            cur_stream = Some(cta as usize * warps_per_cta as usize + w as usize);
            pending.clear();
            insts_left = 0;
            continue;
        }
        if let Some(v) = line.strip_prefix("insts = ") {
            check_listed(insts_left, insts_decl)?;
            insts_left = v.trim().parse().map_err(|_| malformed(line_no, "bad inst count"))?;
            insts_decl = (line_no, insts_left);
            continue;
        }
        // Anything else must be an instruction line of the current warp.
        let sid = cur_stream.ok_or_else(|| malformed(line_no, "instruction outside a warp"))?;
        if insts_left == 0 {
            return Err(malformed(line_no, "more instruction lines than 'insts' declared"));
        }
        insts_left -= 1;
        let inst = parse_inst_line(line, line_no)?;
        let is_load = inst.opcode.starts_with("LD");
        let is_store = inst.opcode.starts_with("ST");
        if (is_load || is_store) && !inst.has_addresses {
            return Err(malformed(line_no, "memory opcode without addresses"));
        }
        let pos = *pc_index.entry(inst.pc).or_insert_with(|| {
            let pos = body.len() as u32;
            let kind = if is_load || is_store {
                let id = LoadId(loads.len() as u32);
                loads.push(LoadSpec {
                    id,
                    pc: Pc(inst.pc),
                    pattern: AccessPattern::streaming(128),
                });
                if is_load {
                    InstKind::Load { load: id }
                } else {
                    InstKind::Store { load: id }
                }
            } else {
                InstKind::Alu { latency: opcode_latency(&inst.opcode) }
            };
            // Scoreboard edge: first source register still pending from an
            // earlier load in this warp.
            let wait_for = inst.srcs.iter().find_map(|r| pending.get(r).copied());
            body.push(StaticInst { pc: Pc(inst.pc), kind, wait_for });
            pos
        });
        if body.len() > u32::MAX as usize {
            return Err(malformed(line_no, "static body exceeds u32::MAX instructions"));
        }
        if loads.len() > MAX_LOADS as usize {
            return Err(malformed(line_no, format!("more than {MAX_LOADS} memory PCs")));
        }
        // The body kind at this PC's first occurrence decides the op's kind.
        let mem = !matches!(body[pos as usize].kind, InstKind::Alu { .. });
        if !mem && inst.has_addresses {
            return Err(malformed(line_no, "ALU instruction carries addresses"));
        }
        // Track register liveness for later wait_for discovery.
        if is_load {
            if let InstKind::Load { load } = body[pos as usize].kind {
                for &d in &inst.dests {
                    pending.insert(d, load);
                }
            }
        } else {
            for d in &inst.dests {
                pending.remove(d);
            }
        }
        streams[sid].push(pos, mem.then_some(inst.lines.as_slice()));
    }
    check_listed(insts_left, insts_decl)?;

    let declared = grid_ctas.ok_or_else(|| ReplayError::Malformed("missing grid dim".into()))?;
    let found = (cta + 1).max(0) as u64;
    if declared != found {
        return Err(ReplayError::Malformed(format!(
            "grid dim declares {declared} thread blocks but the file contains {found}"
        )));
    }
    let stub = KernelSpec::from_raw(
        name,
        u32::try_from(declared).map_err(|_| ReplayError::Malformed("grid exceeds u32".into()))?,
        warps_per_cta.max(1),
        nregs.max(1),
        shmem,
        body,
        1, // dynamic streams drive execution; the stub trip count is unused
        loads,
    )
    .map_err(ReplayError::Malformed)?;
    let rep = ReplayKernel::from_streams(stub, streams);
    rep.validate().map_err(ReplayError::Malformed)?;
    Ok(rep)
}

/// Fails when the warp whose `insts = N` sits at line `insts_decl.0` still
/// has `left` of its `insts_decl.1` instruction lines unlisted.
fn check_listed(left: u64, insts_decl: (usize, u64)) -> Result<(), ReplayError> {
    let (line_no, n) = insts_decl;
    if left == 0 {
        Ok(())
    } else {
        Err(malformed(line_no, format!("warp declares {n} instructions but lists {}", n - left)))
    }
}

/// Reads and imports a `kernel-*.traceg` text trace from `path`.
pub fn import_file(path: &Path) -> Result<ReplayKernel, ReplayError> {
    import_str(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> String {
        let mut t = String::from(
            "-kernel name = vecadd\n\
             -kernel id = 1\n\
             -grid dim = (2,1,1)\n\
             -block dim = (64,1,1)\n\
             -nregs = 16\n\
             -shmem = 0\n\n",
        );
        for tb in 0..2 {
            t.push_str("#BEGIN_TB\n");
            t.push_str(&format!("thread block = {tb},0,0\n"));
            for w in 0..2 {
                let base = 0x1000_0000u64 + (tb * 2 + w) as u64 * 0x4000;
                t.push_str(&format!("warp = {w}\ninsts = 4\n"));
                t.push_str(&format!("0000 ffffffff 1 R2 LDG.E 1 R4 4 1 0x{base:x} 4\n"));
                t.push_str("0010 ffffffff 1 R6 IMAD 2 R2 R5 0\n");
                t.push_str("0020 ffffffff 1 R7 FFMA 2 R6 R6 0\n");
                t.push_str(&format!(
                    "0030 ffffffff 0 STG.E 2 R4 R7 4 1 0x{:x} 4\n",
                    base + 0x10_0000
                ));
            }
            t.push_str("#END_TB\n");
        }
        t
    }

    #[test]
    fn sample_trace_imports() {
        let rep = import_str(&sample_trace()).unwrap();
        assert_eq!(rep.stub.name, "vecadd");
        assert_eq!(rep.stub.grid_ctas, 2);
        assert_eq!(rep.stub.warps_per_cta, 2);
        assert_eq!(rep.stub.body.len(), 4);
        assert_eq!(rep.stub.loads.len(), 2); // one load slot, one store slot
        assert_eq!(rep.n_streams(), 4);
        // The IMAD consumes R2, the LDG dest → scoreboard edge recovered.
        assert_eq!(rep.stub.body[1].wait_for, Some(LoadId(0)));
        assert_eq!(rep.stub.body[2].wait_for, None);
        // 32 lanes, stride 4 → 128 consecutive bytes → 1 line per access.
        assert_eq!(rep.stream(0).accesses().next().unwrap().len(), 1);
        // Each warp touches a distinct line.
        let first: Vec<LineAddr> = rep.streams().map(|s| s.accesses().next().unwrap()[0]).collect();
        assert_eq!(first.len(), 4);
        assert!(first.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn imported_trace_encodes_and_decodes() {
        let rep = import_str(&sample_trace()).unwrap();
        let bytes = crate::format::encode(&rep);
        let back = crate::format::decode(&bytes).unwrap();
        assert_eq!(back.stub, rep.stub);
        assert_eq!(back.dyn_insts(), rep.dyn_insts());
    }

    #[test]
    fn out_of_range_warp_id_rejected() {
        let bad = sample_trace().replace("warp = 1", "warp = 9");
        match import_str(&bad) {
            Err(ReplayError::Malformed(msg)) => assert!(msg.contains("out of range")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn memory_pcs_past_the_request_field_rejected() {
        // One warp whose every instruction is a masked-off load at a new PC.
        let trace = |pcs: u32| {
            let mut t = format!(
                "-grid dim = (1,1,1)\n-block dim = (32,1,1)\n\
                 #BEGIN_TB\nthread block = 0,0,0\nwarp = 0\ninsts = {pcs}\n"
            );
            for pc in 0..pcs {
                t.push_str(&format!("{:x} 0 0 LDG.E 0 4 1 0x0 4\n", pc * 16));
            }
            t + "#END_TB\n"
        };
        assert_eq!(import_str(&trace(MAX_LOADS)).unwrap().stub.loads.len(), MAX_LOADS as usize);
        match import_str(&trace(MAX_LOADS + 1)) {
            Err(ReplayError::Malformed(msg)) => {
                assert_eq!(msg, "line 65543: more than 65536 memory PCs")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn block_count_mismatch_rejected() {
        let bad = sample_trace().replace("(2,1,1)", "(3,1,1)");
        match import_str(&bad) {
            Err(ReplayError::Malformed(msg)) => assert!(msg.contains("thread blocks")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn block_too_large_for_the_file_rejected_before_allocating() {
        // 65536 x 65536 threads are 2^27 warps per block; a short file
        // cannot list them, so this fails before sizing their streams.
        let t = "-kernel name = huge\n\
                 -grid dim = (1,1,1)\n\
                 -block dim = (65536,65536,1)\n\
                 #BEGIN_TB\n\
                 warp = 0\n\
                 insts = 1\n\
                 0000 ffffffff 1 R1 IADD3 2 R2 R3 0\n";
        match import_str(t) {
            Err(ReplayError::Malformed(msg)) => assert_eq!(
                msg,
                "line 4: 134217728 warps declared, more than the file's 7 lines can list"
            ),
            other => panic!("expected Malformed, got {other:?}"),
        }
        // The sample's blocks of two warps each fit its lines.
        let sample = sample_trace();
        let lines = sample.lines().count();
        let wide = sample.replace("(64,1,1)", &format!("({},1,1)", 32 * (lines / 2 + 1)));
        match import_str(&wide) {
            Err(ReplayError::Malformed(msg)) => assert!(msg.contains("more than the file's")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn explicit_address_list_mode_supported() {
        let t = "-kernel name = gather\n\
                 -grid dim = (1,1,1)\n\
                 -block dim = (32,1,1)\n\
                 -nregs = 8\n\
                 -shmem = 0\n\
                 #BEGIN_TB\n\
                 thread block = 0,0,0\n\
                 warp = 0\n\
                 insts = 2\n\
                 0000 0000000f 1 R2 LDG.E 1 R4 4 0 0x100 0x180 0x100 0x200\n\
                 0010 ffffffff 1 R5 IADD3 2 R2 R2 0\n";
        let rep = import_str(t).unwrap();
        // Four lanes, lines 2, 3, 2, 4 → coalesced to three distinct lines.
        assert_eq!(rep.stream(0).accesses().next().unwrap().len(), 3);
        assert_eq!(rep.pool(), [LineAddr(2), LineAddr(3), LineAddr(4)]);
    }

    #[test]
    fn short_warp_listing_rejected() {
        // Warp 0 of block 0 declares 4 instructions at line 11 and lists 3;
        // the shortfall shows at the next `warp =`, at `#END_TB`, or at the
        // end of the input.
        let drop_line = |t: &str, at: usize| {
            t.lines().enumerate().filter(|&(i, _)| i != at).map(|(_, l)| format!("{l}\n")).collect()
        };
        let full = sample_trace();
        let before_next_warp: String = drop_line(&full, 13);
        let last = full.lines().count() - 2; // the last warp's last instruction
        let before_end_tb: String = drop_line(&full, last);
        let at_end_of_input = before_end_tb.trim_end().strip_suffix("#END_TB").unwrap().to_string();
        // The last warp's `insts = 4` is line 32.
        for (text, line) in [(before_next_warp, 11), (before_end_tb, 32), (at_end_of_input, 32)] {
            match import_str(&text) {
                Err(ReplayError::Malformed(msg)) => assert_eq!(
                    msg,
                    format!("line {line}: warp declares 4 instructions but lists 3"),
                ),
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn masked_off_memory_op_imports_lineless() {
        let t = sample_trace().replacen("0000 ffffffff 1 R2 LDG.E", "0000 00000000 1 R2 LDG.E", 1);
        let rep = import_str(&t).unwrap();
        assert_eq!(rep.stream(0).accesses().next().unwrap(), []);
        assert_eq!(rep.stream(1).accesses().next().unwrap().len(), 1);
        // An ALU opcode with an address descriptor is not a memory op.
        let bad = sample_trace().replacen("IMAD 2 R2 R5 0", "IMAD 2 R2 R5 4 1 0x0 4", 1);
        match import_str(&bad) {
            Err(ReplayError::Malformed(msg)) => assert!(msg.contains("ALU instruction"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn loop_fixture_round_trips_op_for_op() {
        use gpu_sim::replay::Run;
        let rep = import_file(&crate::testdata_dir().join("loop.traceg")).unwrap();
        let run = |start, count| Run { start, count };
        for s in rep.streams() {
            // Prologue and first trip, then one run per taken backward
            // branch; the epilogue follows on from the last trip.
            assert_eq!(s.runs(), [run(0, 5), run(2, 3), run(2, 3), run(2, 5)]);
            // Two prologue/epilogue accesses, one per trip (the third
            // masked off), and nothing for the eight ALU ops.
            assert_eq!(s.n_accesses(), 6);
            assert_eq!(s.accesses().nth(3).unwrap(), []);
        }
        let bytes = crate::format::encode(&rep);
        let back = crate::format::decode(&bytes).unwrap();
        assert_eq!(back.stub, rep.stub);
        for (a, b) in rep.streams().zip(back.streams()) {
            let ops = |s: gpu_sim::replay::WarpStream<'_>| -> Vec<(u32, Vec<LineAddr>)> {
                s.ops(&rep.stub.body).map(|op| (op.pos, s.lines(op).to_vec())).collect()
            };
            assert_eq!(ops(a), ops(b));
            assert_eq!(ops(a).len(), 16);
        }
        assert_eq!(crate::format::encode(&back), bytes);
        // `lb-replay selftest`: replaying while re-capturing re-encodes the
        // same bytes.
        let cfg = gpu_sim::GpuConfig::default().with_sms(2).with_windows(5_000, 400_000);
        let re = crate::replay_reencode(
            &cfg,
            &std::sync::Arc::new(back),
            &gpu_sim::policy::baseline_factory(),
        )
        .unwrap();
        assert_eq!(re, bytes);
    }

    #[test]
    fn replays_end_to_end() {
        use gpu_sim::policy::baseline_factory;
        let rep = std::sync::Arc::new(import_str(&sample_trace()).unwrap());
        let cfg = gpu_sim::GpuConfig::default().with_sms(2).with_windows(5_000, 60_000);
        let stats = gpu_sim::run_replay_kernel(cfg, &rep, &baseline_factory());
        assert!(stats.completed);
        assert_eq!(stats.instructions, rep.dyn_insts());
        assert!(stats.stores > 0);
        assert!(stats.mem_accesses() > 0);
    }
}

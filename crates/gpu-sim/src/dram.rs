//! Off-chip DRAM model: aggregate-bandwidth bus plus per-bank timing state.
//!
//! The model is deliberately simpler than a full FR-FCFS controller but keeps
//! the two properties the evaluation depends on: (1) a hard aggregate
//! bandwidth ceiling (352.5 GB/s in Table 1), which makes memory-intensive
//! kernels contend, and (2) row-buffer/bank-timing effects (RCD/RP/CL/RAS)
//! that penalize scattered accesses.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::config::DramConfig;
use crate::types::{Cycle, LineAddr, LINE_BYTES, LINE_SHIFT};
use lb_trace::{Event as TraceEvent, Tracer};

/// Traffic classes, for Figure 17's split of demand data vs. Linebacker's
/// register backup/restore overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Demand reads (L2 miss fills).
    DemandRead,
    /// Write-through / write-evict store traffic.
    StoreWrite,
    /// Linebacker register backup (CTA deactivation) writes.
    RegBackup,
    /// Linebacker register restore (CTA re-activation) reads.
    RegRestore,
}

/// An in-flight DRAM request (24 bytes).
#[derive(Debug, Clone)]
struct DramReq {
    line: LineAddr,
    class: TrafficClass,
    /// Opaque completion token delivered back to the issuer.
    token: u32,
    /// Earliest cycle the request may be serviced (arrival time).
    ready_at: Cycle,
}

/// A completed DRAM request (16 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramDone {
    /// The requested line.
    pub line: LineAddr,
    /// Traffic class of the request.
    pub class: TrafficClass,
    /// The issuer's completion token.
    pub token: u32,
}

/// Token-bucket burst cap, in lines (bounds how much unused bandwidth can
/// accumulate during idle periods).
const BUDGET_CAP: f64 = 8.0;

/// FR-FCFS reorder-window depth, per queue.
const WINDOW: usize = 64;

/// Precomputed line → (partition, bank, row) mapping. The low `part_shift`
/// bits of the line address select the memory partition (power-of-two
/// interleave at line granularity, so consecutive lines stripe across
/// partitions); bank index is `local % banks` and row is
/// `local * LINE_BYTES / row_bytes` over the partition-local line number
/// `line >> part_shift`. For the power-of-two geometries every config ships
/// (16 banks, 2 KiB rows) bank and row reduce to a mask and a shift, which
/// matters because the FR-FCFS window scan computes them per candidate per
/// cycle. The fallback path keeps odd geometries bit-exact. With
/// `part_shift == 0` (one partition) the mapping is the legacy monolithic
/// one, bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct AddrMap {
    banks: u64,
    row_bytes: u64,
    /// `log2(n_mem_partitions)`: low line-address bits selecting a partition.
    part_shift: u32,
    /// `banks - 1` when the bank count is a power of two.
    bank_mask: Option<u64>,
    /// `log2(row_bytes) - LINE_SHIFT` when `row_bytes` is a power of two
    /// of at least one line.
    row_shift: Option<u32>,
}

impl AddrMap {
    /// Builds the mapping for a channel with `banks` banks and `row_bytes`
    /// rows, where the low `part_shift` line-address bits select the
    /// memory partition (0 for a monolithic memory side).
    pub fn new(banks: u64, row_bytes: u64, part_shift: u32) -> Self {
        let bank_mask = (banks.is_power_of_two()).then(|| banks - 1);
        let row_shift = (row_bytes.is_power_of_two() && row_bytes >= LINE_BYTES)
            .then(|| row_bytes.trailing_zeros() - LINE_SHIFT);
        AddrMap { banks, row_bytes, part_shift, bank_mask, row_shift }
    }

    /// Memory partition owning `line` under the power-of-two interleave.
    #[inline]
    pub fn partition_of(&self, line: LineAddr) -> usize {
        (line.0 & ((1u64 << self.part_shift) - 1)) as usize
    }

    /// Partition-local line number: the global line address with the
    /// partition-select bits stripped, so each channel sees a dense space.
    #[inline]
    fn local(&self, line: LineAddr) -> u64 {
        line.0 >> self.part_shift
    }

    #[inline]
    fn bank(&self, line: LineAddr) -> usize {
        let local = self.local(line);
        match self.bank_mask {
            Some(m) => (local & m) as usize,
            None => (local % self.banks) as usize,
        }
    }

    #[inline]
    fn row(&self, line: LineAddr) -> u64 {
        let local = self.local(line);
        match self.row_shift {
            // `local * 2^LINE_SHIFT / 2^k == local >> (k - LINE_SHIFT)` exactly:
            // the multiply only introduces low zero bits, so truncation agrees.
            Some(s) => local >> s,
            None => local * LINE_BYTES / self.row_bytes,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    /// Row currently open (None = precharged).
    open_row: Option<u64>,
    /// Bank busy until this cycle.
    busy_until: Cycle,
}

/// The DRAM subsystem.
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    /// Latency-sensitive requests (demand reads, register restores).
    queue: VecDeque<DramReq>,
    /// Latency-insensitive writes (stores, register backups); serviced with
    /// leftover bandwidth after reads (read-priority scheduling).
    wqueue: VecDeque<DramReq>,
    banks: Vec<BankState>,
    /// Line → (bank, row) mapping with power-of-two fast paths.
    map: AddrMap,
    /// Fractional budget of lines that may start service this cycle
    /// (token-bucket bandwidth model).
    line_budget: f64,
    lines_per_cycle: f64,
    /// Next cycle whose token-bucket refill has not been applied yet. All
    /// budget mutation goes through [`Dram::advance_to`], so skipped and
    /// stepped cycles replay the identical (non-associative) f64 sequence.
    synced_cycle: Cycle,
    /// In-service requests in the legacy swap-remove layout. The collection
    /// order this layout produces is observable downstream (L2 fill / LRU
    /// order, response FIFO order) and locked by the golden digests, so the
    /// payload store must keep it; see `finish_heap` for the fast index.
    in_service: Vec<(Cycle, DramDone)>,
    /// Min-heap over the finish cycles of `in_service` (same multiset),
    /// keyed by finish cycle. Makes `next_completion` O(1) — it is polled
    /// every scheduling decision — without perturbing the collection order.
    finish_heap: BinaryHeap<Reverse<Cycle>>,
    /// Bytes transferred per class.
    bytes: [u64; 4],
    row_hits: u64,
    row_misses: u64,
    /// Memory-partition id stamped on emitted `DramTx` trace events.
    part_id: u64,
}

impl Dram {
    /// Creates the DRAM model. `lines_per_cycle` is the aggregate bandwidth
    /// expressed in 128 B lines per core cycle.
    pub fn new(cfg: DramConfig, lines_per_cycle: f64) -> Self {
        Self::new_channel(cfg, lines_per_cycle, 0, 0)
    }

    /// Creates one DRAM channel of a partitioned memory system. `cfg` holds
    /// the channel's own bank count; `part_shift` strips the
    /// partition-select bits from line addresses before bank/row mapping,
    /// and `part_id` tags this channel's `DramTx` trace events. With
    /// `part_shift == 0` this is exactly the monolithic model.
    pub fn new_channel(
        cfg: DramConfig,
        lines_per_cycle: f64,
        part_shift: u32,
        part_id: u64,
    ) -> Self {
        assert!(lines_per_cycle > 0.0);
        let banks = cfg.banks as usize;
        let map = AddrMap::new(cfg.banks as u64, cfg.row_bytes, part_shift);
        Dram {
            cfg,
            queue: VecDeque::new(),
            wqueue: VecDeque::new(),
            banks: vec![BankState::default(); banks],
            map,
            line_budget: 0.0,
            lines_per_cycle,
            synced_cycle: 0,
            in_service: Vec::new(),
            finish_heap: BinaryHeap::new(),
            bytes: [0; 4],
            row_hits: 0,
            row_misses: 0,
            part_id,
        }
    }

    fn class_idx(class: TrafficClass) -> usize {
        match class {
            TrafficClass::DemandRead => 0,
            TrafficClass::StoreWrite => 1,
            TrafficClass::RegBackup => 2,
            TrafficClass::RegRestore => 3,
        }
    }

    /// Enqueues a one-line request arriving at `cycle`. Reads and register
    /// restores go to the latency-sensitive queue; stores and register
    /// backups to the write queue.
    pub fn push(&mut self, line: LineAddr, class: TrafficClass, token: u32, cycle: Cycle) {
        let req = DramReq { line, class, token, ready_at: cycle };
        match class {
            TrafficClass::DemandRead | TrafficClass::RegRestore => self.queue.push_back(req),
            TrafficClass::StoreWrite | TrafficClass::RegBackup => self.wqueue.push_back(req),
        }
    }

    /// Number of requests waiting or in service.
    pub fn pending(&self) -> usize {
        self.queue.len() + self.wqueue.len() + self.in_service.len()
    }

    /// Writes waiting (store-buffer backpressure signal).
    pub fn write_backlog(&self) -> usize {
        self.wqueue.len()
    }

    /// Both request queues are empty (requests may still be in service).
    /// While true, `tick` makes no scheduling decisions — the only per-cycle
    /// state change is the token-bucket refill.
    pub fn queues_empty(&self) -> bool {
        self.queue.is_empty() && self.wqueue.is_empty()
    }

    /// Earliest finish cycle among in-service requests, if any.
    pub fn next_completion(&self) -> Option<Cycle> {
        self.finish_heap.peek().map(|&Reverse(t)| t)
    }

    /// Replays the token-bucket refill for every cycle up to and including
    /// `cycle` that has not been applied yet. Both normal stepping and the
    /// calendar's fast-forward go through this single method, so a skipped
    /// span cannot drift from the per-cycle path.
    ///
    /// The refill is repeated addition of an `f64` (not associative), so a
    /// closed form would not be bit-identical; instead the loop replays each
    /// step and exits early once the bucket saturates at exactly the cap
    /// (after which further refills are a fixpoint).
    pub fn advance_to(&mut self, cycle: Cycle) {
        while self.synced_cycle <= cycle {
            self.line_budget = (self.line_budget + self.lines_per_cycle).min(BUDGET_CAP);
            self.synced_cycle += 1;
            if self.line_budget == BUDGET_CAP {
                self.synced_cycle = cycle + 1;
                break;
            }
        }
    }

    /// Advances the model one core cycle; returns requests completing now.
    /// Cycles between the previous `tick` and this one need no call at all:
    /// `advance_to` replays their (refill-only) effect on entry.
    pub fn tick(&mut self, cycle: Cycle, done: &mut Vec<DramDone>, tracer: &Tracer) {
        // Refill the bandwidth token bucket (cap prevents unbounded burst),
        // covering any cycles skipped since the last tick.
        self.advance_to(cycle);

        // FR-FCFS over a bounded reorder window with read priority: prefer
        // row-hit reads to open rows (first-ready), then the oldest
        // serviceable read; leftover bandwidth drains the write queue. Reads
        // never starve behind stores; stores stall the cores through the
        // SM-side store buffer when they outrun DRAM bandwidth.
        while self.line_budget >= 1.0 {
            if let Some(i) = Self::frfcfs_pick(&self.queue, &self.banks, self.map, cycle, WINDOW) {
                let req = self.queue.remove(i).expect("index in bounds");
                let bank_idx = self.map.bank(req.line);
                self.start_service(req, bank_idx, cycle, tracer);
                continue;
            }
            if let Some(i) = Self::frfcfs_pick(&self.wqueue, &self.banks, self.map, cycle, WINDOW) {
                let req = self.wqueue.remove(i).expect("index in bounds");
                let bank_idx = self.map.bank(req.line);
                self.start_service(req, bank_idx, cycle, tracer);
                continue;
            }
            break;
        }

        // Collect completions, but only when the finish-heap minimum says
        // something is actually due — most busy cycles complete nothing,
        // and the O(1) peek spares them the `in_service` scan (which finds
        // nothing exactly when the heap minimum is in the future). The
        // swap-remove scan order is deliberate: it is the canonical
        // completion order the golden digests lock (changing it reorders
        // same-cycle L2 fills and responses).
        if self.finish_heap.peek().is_some_and(|&Reverse(t)| t <= cycle) {
            let mut i = 0;
            while i < self.in_service.len() {
                if self.in_service[i].0 <= cycle {
                    let (_, d) = self.in_service.swap_remove(i);
                    done.push(d);
                } else {
                    i += 1;
                }
            }
            // Every entry with finish <= cycle was just collected, so
            // popping the same prefix keeps the heap in sync with
            // `in_service`.
            while let Some(&Reverse(t)) = self.finish_heap.peek() {
                if t > cycle {
                    break;
                }
                self.finish_heap.pop();
            }
        }
    }

    /// FR-FCFS selection over the first `window` entries of `queue`: the
    /// oldest row-hit on a free bank if any, else the oldest serviceable
    /// request.
    fn frfcfs_pick(
        queue: &VecDeque<DramReq>,
        banks: &[BankState],
        map: AddrMap,
        cycle: Cycle,
        window: usize,
    ) -> Option<usize> {
        let n = queue.len().min(window);
        let mut pick: Option<usize> = None;
        for (i, r) in queue.iter().enumerate().take(n) {
            if r.ready_at > cycle {
                continue;
            }
            let bi = map.bank(r.line);
            if banks[bi].busy_until > cycle {
                continue;
            }
            let row = map.row(r.line);
            if banks[bi].open_row == Some(row) {
                return Some(i);
            }
            if pick.is_none() {
                pick = Some(i);
            }
        }
        pick
    }

    fn start_service(&mut self, req: DramReq, bank_idx: usize, cycle: Cycle, tracer: &Tracer) {
        tracer.emit(
            cycle,
            TraceEvent::DramTx {
                part: self.part_id,
                class: Self::class_idx(req.class) as u64,
                line: req.line.0,
            },
        );
        let row = self.map.row(req.line);
        let bank = &mut self.banks[bank_idx];
        // Bank occupancy is the data-burst time; row misses pay extra
        // *latency* (precharge + activate + CAS) but banks overlap, so
        // aggregate throughput is governed by the bandwidth token bucket.
        const BURST: u64 = 4;
        let latency = if bank.open_row == Some(row) {
            self.row_hits += 1;
            self.cfg.t_cl
        } else {
            self.row_misses += 1;
            bank.open_row = Some(row);
            self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cl
        };
        bank.busy_until = cycle + BURST;
        self.line_budget -= 1.0;
        self.bytes[Self::class_idx(req.class)] += LINE_BYTES;
        let finish = cycle + latency as u64;
        self.in_service
            .push((finish, DramDone { line: req.line, class: req.class, token: req.token }));
        self.finish_heap.push(Reverse(finish));
    }

    /// Earliest future cycle at which `tick` could do anything: start a
    /// service or complete one. `None` means the DRAM is fully drained and
    /// only a new `push` can create work (the token-bucket refill alone is
    /// not "work": `advance_to` replays it lazily on the next real tick).
    ///
    /// Exactness argument: while no tick runs, queue contents, bank state
    /// and `ready_at`s are frozen; the only evolving quantity is the budget,
    /// and `earliest_budget` replays that exactly. A request in the FR-FCFS
    /// window becomes serviceable at `max(ready_at, bank.busy_until)`, so
    /// the earliest service opportunity is the min of that over both
    /// windows, floored by the budget-availability cycle.
    pub fn next_due(&self, cycle: Cycle) -> Option<Cycle> {
        let completion = self.next_completion();
        let service = self.next_service(cycle);
        match (completion, service) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Earliest cycle at or after `cycle` at which an FR-FCFS pick could
    /// succeed, `None` if both queues are empty.
    fn next_service(&self, cycle: Cycle) -> Option<Cycle> {
        if self.queues_empty() {
            return None;
        }
        let floor = cycle.max(self.earliest_budget(cycle));
        let mut best: Option<Cycle> = None;
        for q in [&self.queue, &self.wqueue] {
            for r in q.iter().take(WINDOW) {
                let bi = self.map.bank(r.line);
                let t = r.ready_at.max(self.banks[bi].busy_until);
                if t <= floor {
                    // Can't beat the floor; a pick succeeds there.
                    return Some(floor);
                }
                best = Some(best.map_or(t, |b| b.min(t)));
            }
        }
        best
    }

    /// First cycle at or after `from` whose replayed refill leaves at least
    /// one whole line of budget.
    fn earliest_budget(&self, from: Cycle) -> Cycle {
        if self.line_budget >= 1.0 {
            return from;
        }
        // Replay refills from the sync point; terminates because
        // `lines_per_cycle > 0` and the target (1.0) is below the cap.
        let mut budget = self.line_budget;
        let mut c = self.synced_cycle;
        loop {
            budget = (budget + self.lines_per_cycle).min(BUDGET_CAP);
            if budget >= 1.0 {
                return c.max(from);
            }
            c += 1;
        }
    }

    /// Bytes transferred so far, per traffic class
    /// (demand-read, store-write, reg-backup, reg-restore).
    pub fn traffic_bytes(&self) -> [u64; 4] {
        self.bytes
    }

    /// Total bytes over all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// (row hits, row misses) since construction.
    pub fn row_stats(&self) -> (u64, u64) {
        (self.row_hits, self.row_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default(), 2.0)
    }

    fn run_until_done(d: &mut Dram, start: Cycle, max: u64) -> Vec<(Cycle, DramDone)> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for c in start..start + max {
            buf.clear();
            d.tick(c, &mut buf, &Tracer::off());
            for x in &buf {
                out.push((c, *x));
            }
            if d.pending() == 0 {
                break;
            }
        }
        out
    }

    #[test]
    fn single_request_completes() {
        let mut d = dram();
        d.push(LineAddr(5), TrafficClass::DemandRead, 77, 0);
        let done = run_until_done(&mut d, 0, 1000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.token, 77);
        assert_eq!(done[0].1.line, LineAddr(5));
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut d = dram();
        // Same row, same bank: second is a row hit.
        d.push(LineAddr(0), TrafficClass::DemandRead, 0, 0);
        let t1 = run_until_done(&mut d, 0, 1000)[0].0;
        d.push(LineAddr(0), TrafficClass::DemandRead, 1, t1 + 100);
        let t2 = run_until_done(&mut d, t1 + 100, 1000)[0].0 - (t1 + 100);
        assert!(t2 < t1 + 1, "row hit latency {t2} should beat cold {t1}");
        assert_eq!(d.row_stats(), (1, 1));
    }

    #[test]
    fn queued_and_completed_requests_stay_small() {
        assert_eq!(std::mem::size_of::<DramReq>(), 24);
        assert_eq!(std::mem::size_of::<DramDone>(), 16);
    }

    #[test]
    fn bandwidth_bounds_throughput() {
        let mut d = Dram::new(DramConfig::default(), 0.5); // 1 line per 2 cycles
        for i in 0..100u32 {
            d.push(LineAddr(u64::from(i) * 64), TrafficClass::DemandRead, i, 0);
        }
        let done = run_until_done(&mut d, 0, 10_000);
        assert_eq!(done.len(), 100);
        let last = done.iter().map(|(c, _)| *c).max().unwrap();
        // 100 lines at 0.5 lines/cycle needs at least ~200 cycles.
        assert!(last >= 190, "completed too fast: {last}");
    }

    #[test]
    fn traffic_accounted_by_class() {
        let mut d = dram();
        d.push(LineAddr(1), TrafficClass::DemandRead, 0, 0);
        d.push(LineAddr(2), TrafficClass::RegBackup, 1, 0);
        d.push(LineAddr(3), TrafficClass::RegBackup, 2, 0);
        run_until_done(&mut d, 0, 1000);
        let t = d.traffic_bytes();
        assert_eq!(t[0], 128);
        assert_eq!(t[2], 256);
        assert_eq!(d.total_bytes(), 384);
    }

    #[test]
    fn partition_interleave_strides_consecutive_lines() {
        // 4 partitions: low two line-address bits pick the partition, the
        // rest form the channel-local line number.
        let map = AddrMap::new(16, 2048, 2);
        for i in 0..32u64 {
            assert_eq!(map.partition_of(LineAddr(i)), (i % 4) as usize);
        }
        // The channel sees a dense local space: lines 4 apart (same
        // partition) land on consecutive banks.
        assert_eq!(map.bank(LineAddr(0)), 0);
        assert_eq!(map.bank(LineAddr(4)), 1);
        assert_eq!(map.bank(LineAddr(8)), 2);

        // Shift 0 is the monolithic mapping: everything in partition 0,
        // banks straight off the global line number.
        let mono = AddrMap::new(16, 2048, 0);
        for i in 0..32u64 {
            assert_eq!(mono.partition_of(LineAddr(i)), 0);
            assert_eq!(mono.bank(LineAddr(i)), (i % 16) as usize);
        }
    }

    #[test]
    fn requests_not_serviced_before_arrival() {
        let mut d = dram();
        d.push(LineAddr(1), TrafficClass::DemandRead, 0, 50);
        let mut buf = Vec::new();
        for c in 0..50 {
            d.tick(c, &mut buf, &Tracer::off());
        }
        assert!(buf.is_empty(), "request serviced before its arrival cycle");
    }

    /// The calendar's fast-forward contract, checked at the event level: a
    /// DRAM ticked only at its `next_due` cycles must start the same
    /// transactions at the same cycles (and complete the same requests at
    /// the same cycles) as one ticked every single cycle. The traces are
    /// captured with memory-backed tracers and compared byte-for-byte, so
    /// any drift in `advance_to`'s replayed refill — including the
    /// saturation fast-path — would surface as a divergence.
    #[test]
    fn skipped_span_matches_stepped_span_transaction_for_transaction() {
        use lb_trace::{EventKind, TraceReader, TraceWriter, Tracer};

        // Bursts separated by long idle gaps (the spans the calendar
        // skips), mixed classes, bank conflicts, and a fractional
        // bandwidth so the token bucket carries non-trivial state.
        let schedule: &[(u64, TrafficClass, u64)] = &[
            (0, TrafficClass::DemandRead, 0),
            (0, TrafficClass::DemandRead, 64),
            (1, TrafficClass::StoreWrite, 64 * 7),
            (2, TrafficClass::RegBackup, 64 * 13),
            (400, TrafficClass::DemandRead, 64),
            (401, TrafficClass::RegRestore, 64 * 13),
            (1900, TrafficClass::DemandRead, 0),
            (1901, TrafficClass::StoreWrite, 64 * 29),
        ];
        let build = || {
            let mut d = Dram::new(DramConfig::default(), 0.3);
            for (i, &(at, class, line)) in schedule.iter().enumerate() {
                d.push(LineAddr(line), class, i as u32, at);
            }
            d
        };
        let mask = EventKind::DramTx.bit();

        // Reference: tick every cycle until drained.
        let mut stepped = build();
        let t_stepped = Tracer::new(TraceWriter::to_memory(mask));
        let mut done_stepped = Vec::new();
        let mut buf = Vec::new();
        for c in 0..40_000 {
            buf.clear();
            stepped.tick(c, &mut buf, &t_stepped);
            done_stepped.extend(buf.iter().map(|d| (c, d.token)));
            if stepped.pending() == 0 {
                break;
            }
        }
        assert_eq!(done_stepped.len(), schedule.len(), "stepped run must drain");

        // Skipping: tick only at the cycles `next_due` reports.
        let mut skipped = build();
        let t_skipped = Tracer::new(TraceWriter::to_memory(mask));
        let mut done_skipped = Vec::new();
        let mut c = 0;
        let mut ticks = 0u64;
        while skipped.pending() > 0 && c < 40_000 {
            buf.clear();
            skipped.tick(c, &mut buf, &t_skipped);
            ticks += 1;
            done_skipped.extend(buf.iter().map(|d| (c, d.token)));
            match skipped.next_due(c + 1) {
                Some(n) => c = n.max(c + 1),
                None => break,
            }
        }
        assert_eq!(done_skipped, done_stepped, "completion sequences must match");
        assert!(
            ticks < done_stepped.iter().map(|&(c, _)| c).max().unwrap(),
            "skip path must actually skip cycles (took {ticks} ticks)"
        );

        // The DramTx event streams must be byte-identical.
        t_stepped.finish().unwrap();
        t_skipped.finish().unwrap();
        let a = t_stepped.take_bytes().unwrap();
        let b = t_skipped.take_bytes().unwrap();
        assert_eq!(a, b, "DramTx traces diverge between stepped and skipped spans");
        let n = TraceReader::new(&a).unwrap().collect_events().unwrap().len();
        assert_eq!(n, schedule.len(), "one DramTx per scheduled request");
    }
}

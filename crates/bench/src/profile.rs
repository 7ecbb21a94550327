//! Built-in hot-path profiler: wall-clock and event accounting for every
//! simulation the harness launches, reported by `--profile` and written to
//! `BENCH_PR10.json` so the perf trajectory of the simulator has a recorded
//! baseline. Since the component-calendar scheduler, the record includes
//! per-component sleep fractions (how often each SM / the DRAM / the
//! interconnect was gated) and a breakdown of what bounded each
//! fast-forward jump; since the partitioned memory subsystem it also
//! carries a per-partition breakdown (traffic and sleep fractions for
//! each L2-slice/DRAM-channel pair); since the decoded access-descriptor
//! cache it also reports the cache's hit rate (per run and aggregated)
//! and splits stepped SM cycles into LSU-busy and issue-scan phases; since
//! greedy-run bursting the `sm_phases` block also carries a `burst`
//! sub-record (span counts, a span-length histogram, and LSU entries
//! serviced on batched local cycles). A top-level `workers` block records
//! the harness's `--jobs` count.
//!
//! The record carries a `schema` version ([`SCHEMA`]) instead of a tag
//! naming the change that produced it: bump the constant whenever a key
//! is added, removed or changes meaning, so readers can tell which layout
//! they hold.
//!
//! The workspace is std-only, so the JSON record is emitted by a small
//! hand-rolled writer (and checked in tests by the equally small
//! [`validate_json`] recursive-descent validator).

use gpu_sim::stats::SimStats;

/// Layout version of the JSON record written by [`Profile::to_json`].
pub const SCHEMA: u32 = 1;

/// Timing and event record of one simulation.
#[derive(Debug, Clone)]
pub struct SimRecord {
    /// Run-key string (unique per distinct simulation).
    pub key: String,
    /// Wall-clock seconds spent inside `run_kernel`.
    pub wall_s: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Cycles advanced one at a time.
    pub stepped: u64,
    /// Cycles fast-forwarded by the idle-cycle skipper.
    pub skipped: u64,
    /// Descriptor-cache hits in this simulation (0 when disabled).
    pub desc_hits: u64,
    /// Descriptor-cache misses (decodes) in this simulation.
    pub desc_misses: u64,
    /// Local-clock spans executed in this simulation.
    pub bursts: u64,
    /// SM-cycles covered by those spans (mean span length = cycles/spans).
    pub burst_cycles: u64,
}

impl SimRecord {
    /// Fraction of simulated cycles that were skipped, in [0, 1].
    pub fn skipped_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.skipped as f64 / self.cycles as f64
        }
    }

    /// Descriptor-cache hit rate in [0, 1]; 0 when the run had no cached
    /// accesses (cache disabled or load-free kernel).
    pub fn desc_hit_rate(&self) -> f64 {
        let total = self.desc_hits + self.desc_misses;
        if total == 0 {
            0.0
        } else {
            self.desc_hits as f64 / total as f64
        }
    }

    /// Mean local-clock span length in SM-cycles; 1.0 when the run never
    /// ticked an SM (degenerate) so a burst-free run reads as "no batching".
    pub fn mean_burst_len(&self) -> f64 {
        if self.bursts == 0 {
            1.0
        } else {
            self.burst_cycles as f64 / self.bursts as f64
        }
    }
}

/// Aggregated profile over every simulation of a harness invocation.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// One record per executed simulation, in completion order.
    pub records: Vec<SimRecord>,
    /// Summed per-stage event counters across all simulations.
    pub skip_jumps: u64,
    /// L2 requests handled (demand + bypass + stores + register traffic).
    pub l2_requests: u64,
    /// DRAM service completions.
    pub dram_services: u64,
    /// Interconnect deliveries (both directions).
    pub icnt_delivered: u64,
    /// CTA dispatch passes over the SM array.
    pub dispatch_passes: u64,
    /// SM-cycles executed (summed over SMs and simulations).
    pub sm_stepped: u64,
    /// SM-cycles slept (summed over SMs and simulations).
    pub sm_slept: u64,
    /// DRAM-controller cycles ticked.
    pub dram_stepped: u64,
    /// DRAM-controller cycles slept.
    pub dram_slept: u64,
    /// Interconnect queue-cycles delivered (two queues per GPU).
    pub icnt_stepped: u64,
    /// Interconnect queue-cycles slept (two queues per GPU).
    pub icnt_slept: u64,
    /// Fast-forward jumps bounded by an SM wake-up.
    pub skip_to_sm: u64,
    /// Fast-forward jumps bounded by the DRAM's next event.
    pub skip_to_dram: u64,
    /// Fast-forward jumps bounded by an interconnect delivery.
    pub skip_to_icnt: u64,
    /// Fast-forward jumps capped at a monitoring-window boundary.
    pub skip_to_window: u64,
    /// Fast-forward jumps capped at the cycle limit.
    pub skip_to_max: u64,
    /// Descriptor-cache hits (replays) summed over all simulations.
    pub desc_hits: u64,
    /// Descriptor-cache misses (first-execution decodes).
    pub desc_misses: u64,
    /// Descriptor-table entries populated, summed over simulations.
    pub desc_entries: u64,
    /// Bytes held by the descriptor tables, summed over simulations.
    pub desc_bytes: u64,
    /// Stepped SM cycles in which the LSU pipe had queued work.
    pub sm_lsu_busy: u64,
    /// Stepped SM cycles that entered the issue candidate scan.
    pub sm_issue_scan: u64,
    /// Local-clock spans executed across all simulations.
    pub sm_bursts: u64,
    /// SM-cycles covered by those spans.
    pub sm_burst_cycles: u64,
    /// Span-length histogram buckets: 1, 2–3, 4–7, 8–15, 16–63, 64+.
    pub sm_burst_hist: [u64; 6],
    /// LSU entries serviced on batched local cycles (no global step paid).
    pub sm_lsu_batched: u64,
    /// Harness worker threads (`--jobs`) of this invocation; 0 until the
    /// producing binary sets it.
    pub jobs: u64,
    /// Trace files written (when `--trace` is active).
    pub trace_files: u64,
    /// Total encoded trace bytes across those files.
    pub trace_bytes: u64,
    /// Total trace events captured across those files.
    pub trace_events: u64,
    /// Per-partition aggregation, indexed by partition id. Simulations
    /// with fewer partitions simply do not contribute to higher indices,
    /// so a mixed sweep (P=1 suite plus a P=8 sensitivity run) still
    /// reports every channel it ever saw.
    pub partitions: Vec<PartProfile>,
}

/// Aggregated per-partition counters across every simulation that had
/// this partition id (the memory subsystem is P identical L2-slice +
/// DRAM-channel pairs; this records how evenly traffic spread and how
/// often each channel slept).
#[derive(Debug, Clone, Copy, Default)]
pub struct PartProfile {
    /// Simulations that had at least this many partitions.
    pub sims: u64,
    /// L2 accesses handled by this slice.
    pub l2_accesses: u64,
    /// DRAM services completed by this channel.
    pub dram_services: u64,
    /// Interconnect deliveries through this partition's queue pair.
    pub icnt_delivered: u64,
    /// Cycles this partition's DRAM channel was stepped.
    pub dram_stepped: u64,
    /// Cycles this partition's DRAM channel was asleep.
    pub dram_slept: u64,
    /// Queue-cycles this partition's icnt pair delivered.
    pub icnt_stepped: u64,
    /// Queue-cycles this partition's icnt pair slept.
    pub icnt_slept: u64,
}

impl PartProfile {
    /// Fraction of cycles this partition's DRAM channel was asleep.
    pub fn dram_sleep_fraction(&self) -> f64 {
        sleep_fraction(self.dram_stepped, self.dram_slept)
    }

    /// Fraction of queue-cycles this partition's icnt pair slept.
    pub fn icnt_sleep_fraction(&self) -> f64 {
        sleep_fraction(self.icnt_stepped, self.icnt_slept)
    }
}

/// slept / (stepped + slept), in [0, 1]; 0 when nothing was counted.
fn sleep_fraction(stepped: u64, slept: u64) -> f64 {
    let total = stepped + slept;
    if total == 0 {
        0.0
    } else {
        slept as f64 / total as f64
    }
}

impl Profile {
    /// Records one finished simulation.
    pub fn record(&mut self, key: String, wall_s: f64, stats: &SimStats) {
        let e = &stats.events;
        self.records.push(SimRecord {
            key,
            wall_s,
            cycles: stats.cycles,
            stepped: e.stepped_cycles,
            skipped: e.skipped_cycles,
            desc_hits: e.desc_hits,
            desc_misses: e.desc_misses,
            bursts: e.sm_bursts,
            burst_cycles: e.sm_burst_cycles,
        });
        self.skip_jumps += e.skip_jumps;
        self.l2_requests += e.l2_requests;
        self.dram_services += e.dram_services;
        self.icnt_delivered += e.icnt_delivered;
        self.dispatch_passes += e.dispatch_passes;
        self.sm_stepped += e.sm_stepped_cycles;
        self.sm_slept += e.sm_slept_cycles;
        self.dram_stepped += e.dram_stepped_cycles;
        self.dram_slept += e.dram_slept_cycles;
        self.icnt_stepped += e.icnt_stepped_cycles;
        self.icnt_slept += e.icnt_slept_cycles;
        self.skip_to_sm += e.skip_to_sm;
        self.skip_to_dram += e.skip_to_dram;
        self.skip_to_icnt += e.skip_to_icnt;
        self.skip_to_window += e.skip_to_window;
        self.skip_to_max += e.skip_to_max;
        self.desc_hits += e.desc_hits;
        self.desc_misses += e.desc_misses;
        self.desc_entries += e.desc_entries;
        self.desc_bytes += e.desc_bytes;
        self.sm_lsu_busy += e.sm_lsu_busy_cycles;
        self.sm_issue_scan += e.sm_issue_scan_cycles;
        self.sm_bursts += e.sm_bursts;
        self.sm_burst_cycles += e.sm_burst_cycles;
        self.sm_burst_hist[0] += e.sm_burst_len_1;
        self.sm_burst_hist[1] += e.sm_burst_len_2_3;
        self.sm_burst_hist[2] += e.sm_burst_len_4_7;
        self.sm_burst_hist[3] += e.sm_burst_len_8_15;
        self.sm_burst_hist[4] += e.sm_burst_len_16_63;
        self.sm_burst_hist[5] += e.sm_burst_len_64p;
        self.sm_lsu_batched += e.sm_lsu_batched;
        if self.partitions.len() < stats.partitions.len() {
            self.partitions.resize(stats.partitions.len(), PartProfile::default());
        }
        for (agg, pc) in self.partitions.iter_mut().zip(&stats.partitions) {
            agg.sims += 1;
            agg.l2_accesses += pc.l2_accesses;
            agg.dram_services += pc.dram_services;
            agg.icnt_delivered += pc.icnt_delivered;
            agg.dram_stepped += pc.dram_stepped_cycles;
            agg.dram_slept += stats.cycles - pc.dram_stepped_cycles;
            let icnt_stepped = pc.to_l2_stepped_cycles + pc.from_l2_stepped_cycles;
            agg.icnt_stepped += icnt_stepped;
            agg.icnt_slept += 2 * stats.cycles - icnt_stepped;
        }
    }

    /// Records one written trace file (size and event count).
    pub fn record_trace(&mut self, bytes: u64, events: u64) {
        self.trace_files += 1;
        self.trace_bytes += bytes;
        self.trace_events += events;
    }

    /// Fraction of SM-cycles in which the SM was asleep (calendar-gated or
    /// inside a fast-forwarded span).
    pub fn sm_sleep_fraction(&self) -> f64 {
        sleep_fraction(self.sm_stepped, self.sm_slept)
    }

    /// Fraction of cycles the DRAM controller was asleep.
    pub fn dram_sleep_fraction(&self) -> f64 {
        sleep_fraction(self.dram_stepped, self.dram_slept)
    }

    /// Fraction of interconnect queue-cycles with no delivery work.
    pub fn icnt_sleep_fraction(&self) -> f64 {
        sleep_fraction(self.icnt_stepped, self.icnt_slept)
    }

    /// Aggregate descriptor-cache hit rate across all simulations, in
    /// [0, 1]; 0 when no access went through the cache.
    pub fn desc_hit_rate(&self) -> f64 {
        let total = self.desc_hits + self.desc_misses;
        if total == 0 {
            0.0
        } else {
            self.desc_hits as f64 / total as f64
        }
    }

    /// Number of recorded simulations.
    pub fn sims(&self) -> usize {
        self.records.len()
    }

    /// Total wall-clock seconds spent simulating (sum over sims; on one
    /// worker this approximates the suite wall-clock, on N workers it can
    /// exceed it).
    pub fn sim_wall_s(&self) -> f64 {
        self.records.iter().map(|r| r.wall_s).sum()
    }

    /// Total simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.records.iter().map(|r| r.cycles).sum()
    }

    /// Total stepped cycles.
    pub fn stepped(&self) -> u64 {
        self.records.iter().map(|r| r.stepped).sum()
    }

    /// Total skipped cycles.
    pub fn skipped(&self) -> u64 {
        self.records.iter().map(|r| r.skipped).sum()
    }

    /// Fraction of all simulated cycles that were fast-forwarded.
    pub fn skipped_fraction(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            self.skipped() as f64 / c as f64
        }
    }

    /// Simulated cycles per wall-clock second of simulation time.
    pub fn cycles_per_sec(&self) -> f64 {
        let w = self.sim_wall_s();
        if w <= 0.0 {
            0.0
        } else {
            self.cycles() as f64 / w
        }
    }

    /// Human-readable multi-line summary (for `--profile` stderr output).
    pub fn summary(&self, suite_wall_s: f64) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "[profile] {} sims in {:.1}s wall ({:.1}s summed sim time, {:.2} sims/s)\n",
            self.sims(),
            suite_wall_s,
            self.sim_wall_s(),
            if suite_wall_s > 0.0 { self.sims() as f64 / suite_wall_s } else { 0.0 },
        ));
        s.push_str(&format!(
            "[profile] {} cycles simulated ({:.2} Mcycles/s): {} stepped, {} skipped \
             ({:.1}% skipped in {} jumps)\n",
            self.cycles(),
            self.cycles_per_sec() / 1e6,
            self.stepped(),
            self.skipped(),
            self.skipped_fraction() * 100.0,
            self.skip_jumps,
        ));
        s.push_str(&format!(
            "[profile] events: {} L2 requests, {} DRAM services, {} icnt deliveries, \
             {} dispatch passes\n",
            self.l2_requests, self.dram_services, self.icnt_delivered, self.dispatch_passes,
        ));
        s.push_str(&format!(
            "[profile] component sleep: SM {:.1}%, DRAM {:.1}%, icnt {:.1}%\n",
            self.sm_sleep_fraction() * 100.0,
            self.dram_sleep_fraction() * 100.0,
            self.icnt_sleep_fraction() * 100.0,
        ));
        s.push_str(&format!(
            "[profile] desc cache: {} hits, {} misses ({:.2}% hit rate), \
             {} entries, {} bytes\n",
            self.desc_hits,
            self.desc_misses,
            self.desc_hit_rate() * 100.0,
            self.desc_entries,
            self.desc_bytes,
        ));
        s.push_str(&format!(
            "[profile] SM phases: {} lsu-busy cycles, {} issue-scan cycles \
             (of {} stepped SM-cycles)\n",
            self.sm_lsu_busy, self.sm_issue_scan, self.sm_stepped,
        ));
        s.push_str(&format!(
            "[profile] bursts: {} spans covering {} SM-cycles (mean {:.2}), \
             {} lsu batched; len hist 1:{} 2-3:{} 4-7:{} 8-15:{} 16-63:{} 64+:{}\n",
            self.sm_bursts,
            self.sm_burst_cycles,
            self.agg_mean_burst_len(),
            self.sm_lsu_batched,
            self.sm_burst_hist[0],
            self.sm_burst_hist[1],
            self.sm_burst_hist[2],
            self.sm_burst_hist[3],
            self.sm_burst_hist[4],
            self.sm_burst_hist[5],
        ));
        if self.partitions.len() > 1 {
            for (id, p) in self.partitions.iter().enumerate() {
                s.push_str(&format!(
                    "[profile]   part {id}: {} L2 acc, {} DRAM svc, {} icnt, \
                     dram sleep {:.1}%, icnt sleep {:.1}%\n",
                    p.l2_accesses,
                    p.dram_services,
                    p.icnt_delivered,
                    p.dram_sleep_fraction() * 100.0,
                    p.icnt_sleep_fraction() * 100.0,
                ));
            }
        }
        s.push_str(&format!(
            "[profile] skip bounds: {} sm, {} dram, {} icnt, {} window, {} max\n",
            self.skip_to_sm,
            self.skip_to_dram,
            self.skip_to_icnt,
            self.skip_to_window,
            self.skip_to_max,
        ));
        let mut slowest: Vec<&SimRecord> = self.records.iter().collect();
        slowest.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
        for r in slowest.iter().take(5) {
            s.push_str(&format!(
                "[profile]   slow: {} {:.2}s {} cycles ({:.1}% skipped, \
                 {:.1}% desc hits, {:.2} mean burst)\n",
                r.key,
                r.wall_s,
                r.cycles,
                r.skipped_fraction() * 100.0,
                r.desc_hit_rate() * 100.0,
                r.mean_burst_len(),
            ));
        }
        s
    }

    /// Mean local-clock span length across all simulations (1.0 when no SM
    /// ever ticked).
    pub fn agg_mean_burst_len(&self) -> f64 {
        if self.sm_bursts == 0 {
            1.0
        } else {
            self.sm_burst_cycles as f64 / self.sm_bursts as f64
        }
    }

    /// The `BENCH_PR10.json` throughput record.
    ///
    /// `label` names the producing binary, `scale` the run scale, and
    /// `suite_wall_s` the end-to-end harness wall-clock.
    pub fn to_json(&self, label: &str, scale: &str, suite_wall_s: f64) -> String {
        let mut slowest: Vec<&SimRecord> = self.records.iter().collect();
        slowest.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
        let slow_entries: Vec<String> = slowest
            .iter()
            .take(5)
            .map(|r| {
                format!(
                    "{{\"key\": {}, \"wall_s\": {:.3}, \"cycles\": {}, \
                     \"skipped_fraction\": {:.6}, \"desc_hit_rate\": {:.6}, \
                     \"mean_burst_len\": {:.3}}}",
                    json_string(&r.key),
                    r.wall_s,
                    r.cycles,
                    r.skipped_fraction(),
                    r.desc_hit_rate(),
                    r.mean_burst_len(),
                )
            })
            .collect();
        let part_entries: Vec<String> = self
            .partitions
            .iter()
            .enumerate()
            .map(|(id, p)| {
                format!(
                    "{{\"id\": {id}, \"sims\": {}, \"l2_accesses\": {}, \
                     \"dram_services\": {}, \"icnt_delivered\": {}, \
                     \"dram_sleep_fraction\": {:.6}, \"icnt_sleep_fraction\": {:.6}}}",
                    p.sims,
                    p.l2_accesses,
                    p.dram_services,
                    p.icnt_delivered,
                    p.dram_sleep_fraction(),
                    p.icnt_sleep_fraction(),
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": {},\n  \"binary\": {},\n  \"scale\": {},\n  \
             \"suite_wall_s\": {:.3},\n  \"sims\": {},\n  \"sim_wall_s\": {:.3},\n  \
             \"cycles\": {},\n  \"stepped_cycles\": {},\n  \"skipped_cycles\": {},\n  \
             \"skipped_fraction\": {:.6},\n  \"cycles_per_sec\": {:.1},\n  \
             \"sims_per_sec\": {:.3},\n  \"events\": {{\"skip_jumps\": {}, \
             \"l2_requests\": {}, \"dram_services\": {}, \"icnt_delivered\": {}, \
             \"dispatch_passes\": {}}},\n  \"component_sleep\": {{\
             \"sm_stepped\": {}, \"sm_slept\": {}, \"sm_sleep_fraction\": {:.6}, \
             \"dram_stepped\": {}, \"dram_slept\": {}, \"dram_sleep_fraction\": {:.6}, \
             \"icnt_stepped\": {}, \"icnt_slept\": {}, \"icnt_sleep_fraction\": {:.6}}},\n  \
             \"sm_phases\": {{\"lsu_busy_cycles\": {}, \"issue_scan_cycles\": {}, \
             \"burst\": {{\"bursts\": {}, \"burst_cycles\": {}, \"mean_len\": {:.3}, \
             \"lsu_batched\": {}, \"len_hist\": {{\"1\": {}, \"2_3\": {}, \"4_7\": {}, \
             \"8_15\": {}, \"16_63\": {}, \"64p\": {}}}}}}},\n  \
             \"workers\": {{\"jobs\": {}}},\n  \
             \"desc_cache\": {{\"entries\": {}, \"hits\": {}, \"misses\": {}, \
             \"hit_rate\": {:.6}, \"bytes\": {}}},\n  \
             \"skip_bounds\": {{\"sm\": {}, \"dram\": {}, \"icnt\": {}, \
             \"window\": {}, \"max\": {}}},\n  \"trace\": {{\"files\": {}, \
             \"bytes\": {}, \"events\": {}}},\n  \"partitions\": [{}],\n  \
             \"slowest\": [{}]\n}}\n",
            SCHEMA,
            json_string(label),
            json_string(scale),
            suite_wall_s,
            self.sims(),
            self.sim_wall_s(),
            self.cycles(),
            self.stepped(),
            self.skipped(),
            self.skipped_fraction(),
            self.cycles_per_sec(),
            if suite_wall_s > 0.0 { self.sims() as f64 / suite_wall_s } else { 0.0 },
            self.skip_jumps,
            self.l2_requests,
            self.dram_services,
            self.icnt_delivered,
            self.dispatch_passes,
            self.sm_stepped,
            self.sm_slept,
            self.sm_sleep_fraction(),
            self.dram_stepped,
            self.dram_slept,
            self.dram_sleep_fraction(),
            self.icnt_stepped,
            self.icnt_slept,
            self.icnt_sleep_fraction(),
            self.sm_lsu_busy,
            self.sm_issue_scan,
            self.sm_bursts,
            self.sm_burst_cycles,
            self.agg_mean_burst_len(),
            self.sm_lsu_batched,
            self.sm_burst_hist[0],
            self.sm_burst_hist[1],
            self.sm_burst_hist[2],
            self.sm_burst_hist[3],
            self.sm_burst_hist[4],
            self.sm_burst_hist[5],
            self.jobs,
            self.desc_entries,
            self.desc_hits,
            self.desc_misses,
            self.desc_hit_rate(),
            self.desc_bytes,
            self.skip_to_sm,
            self.skip_to_dram,
            self.skip_to_icnt,
            self.skip_to_window,
            self.skip_to_max,
            self.trace_files,
            self.trace_bytes,
            self.trace_events,
            part_entries.join(", "),
            slow_entries.join(", "),
        )
    }
}

/// Encodes `s` as a JSON string literal (quotes, escapes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal JSON validator (recursive descent over the full grammar minus
/// `\u` surrogate-pair checking). Returns the byte offset of the first
/// error. Used by tests to prove `--profile` output is well-formed without
/// pulling in a dependency.
pub fn validate_json(s: &str) -> Result<(), usize> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i == b.len() {
        Ok(())
    } else {
        Err(i)
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), usize> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        _ => Err(*i),
    }
}

fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if b[*i..].starts_with(lit) {
        *i += lit.len();
        Ok(())
    } else {
        Err(*i)
    }
}

fn object(b: &[u8], i: &mut usize) -> Result<(), usize> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(*i);
        }
        *i += 1;
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(*i),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<(), usize> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(*i),
        }
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), usize> {
    if b.get(*i) != Some(&b'"') {
        return Err(*i);
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        if b.len() < *i + 5 || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(*i);
                        }
                        *i += 5;
                    }
                    _ => return Err(*i),
                }
            }
            0x00..=0x1f => return Err(*i),
            _ => *i += 1,
        }
    }
    Err(*i)
}

fn number(b: &[u8], i: &mut usize) -> Result<(), usize> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let int_start = *i;
    while *i < b.len() && b[*i].is_ascii_digit() {
        *i += 1;
    }
    if *i == int_start || (b[int_start] == b'0' && *i - int_start > 1) {
        return Err(start);
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        let frac = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        if *i == frac {
            return Err(*i);
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        let exp = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        if *i == exp {
            return Err(*i);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_valid_json() {
        for s in [
            "{}",
            "[]",
            "null",
            "-12.5e3",
            "{\"a\": [1, 2.5, \"x\\n\", true, null], \"b\": {\"c\": false}}",
            "  { \"k\" : \"v\" }  ",
        ] {
            assert!(validate_json(s).is_ok(), "should accept: {s}");
        }
    }

    #[test]
    fn validator_rejects_invalid_json() {
        for s in ["", "{", "{\"a\":}", "[1,]", "01", "\"unterminated", "{\"a\":1} extra", "nul"] {
            assert!(validate_json(s).is_err(), "should reject: {s}");
        }
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert!(validate_json(&json_string("weird \u{1} ctrl")).is_ok());
    }

    #[test]
    fn profile_json_is_valid_and_consistent() {
        let mut p = Profile::default();
        let mut stats = SimStats { cycles: 1000, ..SimStats::default() };
        stats.events.stepped_cycles = 600;
        stats.events.skipped_cycles = 400;
        stats.events.skip_jumps = 7;
        stats.events.desc_hits = 30;
        stats.events.desc_misses = 10;
        stats.events.desc_entries = 10;
        stats.events.desc_bytes = 480;
        stats.events.sm_lsu_busy_cycles = 200;
        stats.events.sm_issue_scan_cycles = 450;
        stats.events.sm_bursts = 50;
        stats.events.sm_burst_cycles = 600;
        stats.events.sm_burst_len_1 = 20;
        stats.events.sm_burst_len_2_3 = 10;
        stats.events.sm_burst_len_8_15 = 20;
        stats.events.sm_lsu_batched = 120;
        p.record("app=GA arch=base".into(), 0.25, &stats);
        p.jobs = 2;
        let j = p.to_json("test", "quick", 0.3);
        assert!(validate_json(&j).is_ok(), "emitted JSON must validate: {j}");
        assert_eq!(p.cycles(), 1000);
        assert_eq!(p.stepped() + p.skipped(), p.cycles());
        assert!((p.skipped_fraction() - 0.4).abs() < 1e-12);
        assert!((p.desc_hit_rate() - 0.75).abs() < 1e-12);
        assert!((p.records[0].desc_hit_rate() - 0.75).abs() < 1e-12);
        assert!(j.contains("\"desc_cache\": {\"entries\": 10, \"hits\": 30, \"misses\": 10"));
        assert!(j.contains("\"sm_phases\": {\"lsu_busy_cycles\": 200, \"issue_scan_cycles\": 450"));
        assert!(j.contains(
            "\"burst\": {\"bursts\": 50, \"burst_cycles\": 600, \"mean_len\": 12.000, \
             \"lsu_batched\": 120, \"len_hist\": {\"1\": 20, \"2_3\": 10, \"4_7\": 0, \
             \"8_15\": 20, \"16_63\": 0, \"64p\": 0}}"
        ));
        assert!((p.agg_mean_burst_len() - 12.0).abs() < 1e-12);
        assert!((p.records[0].mean_burst_len() - 12.0).abs() < 1e-12);
        assert!(j.contains("\"mean_burst_len\": 12.000"));
        assert!(j.starts_with(&format!("{{\n  \"schema\": {SCHEMA},\n")));
        assert!(j.contains("\"workers\": {\"jobs\": 2},"));
    }

    #[test]
    fn per_partition_counters_aggregate_across_sims() {
        use gpu_sim::stats::PartitionCounters;
        let mut p = Profile::default();
        // One two-partition sim, one single-partition sim: partition 0
        // accumulates from both, partition 1 from the first only.
        let mut two = SimStats { cycles: 100, ..SimStats::default() };
        two.partitions = vec![
            PartitionCounters {
                l2_accesses: 10,
                dram_services: 4,
                icnt_delivered: 14,
                dram_stepped_cycles: 60,
                to_l2_stepped_cycles: 30,
                from_l2_stepped_cycles: 10,
                ..PartitionCounters::default()
            },
            PartitionCounters {
                l2_accesses: 6,
                dram_services: 2,
                icnt_delivered: 8,
                dram_stepped_cycles: 20,
                to_l2_stepped_cycles: 10,
                from_l2_stepped_cycles: 10,
                ..PartitionCounters::default()
            },
        ];
        p.record("two".into(), 0.1, &two);
        let mut one = SimStats { cycles: 50, ..SimStats::default() };
        one.partitions = vec![PartitionCounters {
            l2_accesses: 5,
            dram_services: 1,
            icnt_delivered: 6,
            dram_stepped_cycles: 50,
            to_l2_stepped_cycles: 25,
            from_l2_stepped_cycles: 25,
            ..PartitionCounters::default()
        }];
        p.record("one".into(), 0.1, &one);

        assert_eq!(p.partitions.len(), 2);
        assert_eq!(p.partitions[0].sims, 2);
        assert_eq!(p.partitions[0].l2_accesses, 15);
        assert_eq!(p.partitions[0].dram_stepped, 110);
        assert_eq!(p.partitions[0].dram_slept, 40);
        assert_eq!(p.partitions[1].sims, 1);
        assert_eq!(p.partitions[1].l2_accesses, 6);
        // Sim 1: 2*100 queue-cycles, 40 stepped; partition 1 saw 20 of 200.
        assert!((p.partitions[1].icnt_sleep_fraction() - 0.9).abs() < 1e-12);
        let j = p.to_json("test", "quick", 0.3);
        assert!(validate_json(&j).is_ok(), "emitted JSON must validate: {j}");
        assert!(j.contains("\"partitions\": [{\"id\": 0,"));
    }
}

//! Memory partitions: the unit of the partitioned SM-to-DRAM path.
//!
//! A [`MemPartition`] bundles one L2 slice (with its own MSHRs), one DRAM
//! channel (own token bucket, bank set and finish heap) and a private
//! `to_l2`/`from_l2` interconnect queue pair. Lines are steered to
//! partitions by a power-of-two interleave on the line address
//! ([`crate::dram::AddrMap::partition_of`]): partition `p` owns every line
//! with `line & (n_partitions - 1) == p`, so consecutive lines stripe
//! across partitions exactly like GPGPU-Sim's address-interleaved memory
//! partitions.
//!
//! Capacity and bandwidth are split, not replicated: each slice gets
//! `1/n` of the configured L2 capacity and MSHRs, and each channel gets
//! `1/n` of the DRAM banks and bandwidth. With `n_mem_partitions == 1`
//! the single partition is field-for-field the old monolithic memory
//! side — same L2 geometry, same `lines_per_cycle` float (division by
//! 1.0 is exact), same address map (partition shift 0) — which is what
//! keeps the default configuration bit-identical to the pre-partition
//! simulator.

use crate::cache::{L2Cache, MshrOutcome};
use crate::config::{CacheConfig, GpuConfig};
use crate::dram::{Dram, DramDone, TrafficClass};
use crate::icnt::IcntQueue;
use crate::mem::{MemReq, MemReqKind};
use crate::types::Cycle;
use lb_trace::{Event as TraceEvent, Tracer};

/// One independent slice of the memory subsystem: L2 slice + MSHRs +
/// DRAM channel + interconnect queue pair.
pub struct MemPartition {
    /// This partition's index (also the trace-event partition id).
    pub(crate) id: u32,
    /// The L2 slice (capacity and MSHRs are 1/n of the GPU total).
    pub(crate) l2: L2Cache,
    /// SM -> L2 request queue of this partition.
    pub(crate) to_l2: IcntQueue<MemReq>,
    /// L2 -> SM response queue of this partition.
    pub(crate) from_l2: IcntQueue<MemReq>,
    /// The DRAM channel (1/n of the banks and bandwidth).
    pub(crate) dram: Dram,
    /// Requests whose DRAM token indexes this table.
    dram_pending: Vec<MemReq>,
    dram_free: Vec<usize>,
    /// Completion scratch for `step_dram` (reused across ticks).
    scratch_done: Vec<DramDone>,
    /// MSHR-waiter scratch for `step_dram` (reused across ticks).
    scratch_waiters: Vec<u64>,
    /// L2 accesses (lookups + fills) serviced by this slice.
    l2_access_count: u64,
    /// DRAM transactions completed by this channel.
    dram_services: u64,
    l2_latency: u64,
    tracer: Tracer,
}

impl MemPartition {
    /// Builds partition `id` of `cfg.n_mem_partitions`, slicing the
    /// GPU-wide L2/DRAM totals in `cfg` down to this partition's share.
    pub fn new(cfg: &GpuConfig, id: u32, tracer: Tracer) -> Self {
        let n = cfg.n_mem_partitions;
        debug_assert!(n.is_power_of_two() && id < n);
        let l2_cfg = CacheConfig {
            size_bytes: cfg.l2.size_bytes / n as u64,
            mshrs: cfg.l2.mshrs / n,
            ..cfg.l2.clone()
        };
        let mut dram_cfg = cfg.dram.clone();
        dram_cfg.banks /= n;
        // Power-of-two division of an f64 only changes the exponent, so
        // the per-channel rate is exact and n == 1 reproduces the
        // monolithic token-bucket sequence bit for bit.
        let lines_per_cycle = cfg.dram_lines_per_cycle() / n as f64;
        let part_shift = n.trailing_zeros();
        // The interconnect's delivery bandwidth is split across partition
        // ports, with a floor of one message per cycle per port.
        let icnt_bw = (cfg.icnt_bandwidth() / n).max(1);
        MemPartition {
            id,
            l2: L2Cache::new(&l2_cfg),
            to_l2: IcntQueue::new(cfg.icnt_latency, icnt_bw),
            from_l2: IcntQueue::new(cfg.icnt_latency, icnt_bw),
            dram: Dram::new_channel(dram_cfg, lines_per_cycle, part_shift, id as u64),
            dram_pending: Vec::new(),
            dram_free: Vec::new(),
            scratch_done: Vec::new(),
            scratch_waiters: Vec::new(),
            l2_access_count: 0,
            dram_services: 0,
            l2_latency: cfg.l2_latency as u64,
            tracer,
        }
    }

    fn alloc_dram_slot(&mut self, req: MemReq) -> u64 {
        if let Some(i) = self.dram_free.pop() {
            self.dram_pending[i] = req;
            i as u64
        } else {
            self.dram_pending.push(req);
            (self.dram_pending.len() - 1) as u64
        }
    }

    /// Handles one request arriving at this partition's L2 slice; returns
    /// the DRAM arrival cycle if the request was forwarded to the channel
    /// (the caller wakes this partition's calendar slot at that cycle).
    pub(crate) fn handle_at_l2(&mut self, req: MemReq, cycle: Cycle) -> Option<Cycle> {
        match req.kind {
            MemReqKind::Read | MemReqKind::BypassRead => {
                self.l2_access_count += 1;
                let hit = self.l2.access(req.line);
                self.tracer.emit(
                    cycle,
                    TraceEvent::L2Access { part: self.id as u64, line: req.line.0, hit },
                );
                if hit {
                    // L2 hit: response after the L2 pipeline latency.
                    self.from_l2.push(req, cycle + self.l2_latency);
                    None
                } else {
                    let token = self.alloc_dram_slot(req);
                    match self.l2.mshrs().allocate(req.line, token) {
                        MshrOutcome::NewEntry => {
                            // The DRAM request itself carries a fresh token
                            // so the fill can find the merged waiter list.
                            let dram_token = self.alloc_dram_slot(req);
                            let arrival = cycle + self.l2_latency;
                            self.dram.push(req.line, TrafficClass::DemandRead, dram_token, arrival);
                            Some(arrival)
                        }
                        MshrOutcome::Merged => {
                            self.tracer.emit(
                                cycle,
                                TraceEvent::MshrMerge {
                                    level: 1,
                                    sm: req.sm.0 as u64,
                                    line: req.line.0,
                                },
                            );
                            None
                        }
                        MshrOutcome::Full => {
                            // Model back-pressure as a retried request.
                            self.to_l2.push(req, cycle + 16);
                            self.dram_free.push(token as usize);
                            None
                        }
                    }
                }
            }
            MemReqKind::Store => {
                // Write-through, no-allocate: straight to DRAM.
                self.l2_access_count += 1;
                let token = self.alloc_dram_slot(req);
                self.dram.push(req.line, TrafficClass::StoreWrite, token, cycle);
                Some(cycle)
            }
            MemReqKind::RegBackup { .. } => {
                let token = self.alloc_dram_slot(req);
                self.dram.push(req.line, TrafficClass::RegBackup, token, cycle);
                Some(cycle)
            }
            MemReqKind::RegRestore { .. } => {
                let token = self.alloc_dram_slot(req);
                self.dram.push(req.line, TrafficClass::RegRestore, token, cycle);
                Some(cycle)
            }
        }
    }

    /// One DRAM-channel tick plus completion fan-out into `from_l2`.
    pub(crate) fn step_dram(&mut self, cycle: Cycle) {
        self.scratch_done.clear();
        self.dram.tick(cycle, &mut self.scratch_done, &self.tracer);
        self.dram_services += self.scratch_done.len() as u64;
        for i in 0..self.scratch_done.len() {
            let d = self.scratch_done[i];
            let req = self.dram_pending[d.token as usize];
            self.dram_free.push(d.token as usize);
            match req.kind {
                MemReqKind::Read | MemReqKind::BypassRead => {
                    self.l2.fill(req.line);
                    self.l2_access_count += 1;
                    // Wake all L2-MSHR waiters merged on this line.
                    let mut waiters = std::mem::take(&mut self.scratch_waiters);
                    self.l2.mshrs().complete_into(req.line, &mut waiters);
                    for &t in &waiters {
                        let waiter = self.dram_pending[t as usize];
                        self.dram_free.push(t as usize);
                        self.from_l2.push(waiter, cycle);
                    }
                    self.scratch_waiters = waiters;
                }
                MemReqKind::Store
                | MemReqKind::RegBackup { .. }
                | MemReqKind::RegRestore { .. } => {
                    // Store-buffer credit / completion notification back to
                    // the SM (backpressure).
                    self.from_l2.push(req, cycle);
                }
            }
        }
    }

    /// Earliest cycle either interconnect queue of this partition can
    /// deliver a message.
    pub(crate) fn icnt_next_due(&self) -> Option<Cycle> {
        match (self.to_l2.next_due(), self.from_l2.next_due()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// No requests in flight anywhere in this partition.
    pub(crate) fn drained(&self) -> bool {
        self.to_l2.in_flight() == 0 && self.from_l2.in_flight() == 0 && self.dram.pending() == 0
    }

    /// L2 accesses (lookups + fills) serviced by this slice.
    pub fn l2_access_count(&self) -> u64 {
        self.l2_access_count
    }

    /// DRAM transactions completed by this channel.
    pub fn dram_services(&self) -> u64 {
        self.dram_services
    }
}

impl std::fmt::Debug for MemPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemPartition")
            .field("id", &self.id)
            .field("l2_accesses", &self.l2_access_count)
            .field("dram_pending", &self.dram.pending())
            .field("to_l2", &self.to_l2.in_flight())
            .field("from_l2", &self.from_l2.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_partition_matches_monolithic_geometry() {
        let cfg = GpuConfig::default();
        let p = MemPartition::new(&cfg, 0, Tracer::off());
        // The lone slice owns the full L2 and the full DRAM channel.
        assert_eq!(p.l2.capacity_lines() as u64, cfg.l2.size_bytes / cfg.l2.line_bytes);
        assert_eq!(p.dram.pending(), 0);
    }

    #[test]
    fn slices_split_capacity_evenly() {
        let cfg = GpuConfig::default().with_mem_partitions(4);
        let slices: Vec<MemPartition> =
            (0..4).map(|i| MemPartition::new(&cfg, i, Tracer::off())).collect();
        let total: u64 = slices.iter().map(|p| p.l2.capacity_lines() as u64).sum();
        assert_eq!(total, cfg.l2.size_bytes / cfg.l2.line_bytes);
    }
}

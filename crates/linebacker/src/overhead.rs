//! Storage-overhead model reproducing the paper's §4.2 accounting
//! (total ≈ 5.88 KB per SM, ~0.9 % of an SM's area).

/// Per-structure storage overheads in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageOverhead {
    /// Per-line 5-bit HPC fields over the whole L1.
    pub hpc_fields_bytes: u64,
    /// Load Monitor: 32 entries x (2-bit valid + three 4-byte registers).
    pub lm_bytes: u64,
    /// IPC monitor: three 32-bit registers.
    pub ipc_monitor_bytes: u64,
    /// CTA manager common info: two 11-bit + one 32-bit register.
    pub cta_common_bytes: u64,
    /// Per-CTA Info: 32 entries x (2 x 1-bit + 11-bit + 32-bit).
    pub per_cta_bytes: u64,
    /// Victim tag table: entries x (1 valid + 18 tag + 5 meta bits).
    pub vtt_bytes: u64,
    /// 6-entry transfer buffer: (4-byte address + 128-byte line) each.
    /// Counted as storage only; the timing model sends backup and restore
    /// lines straight to the interconnect.
    pub buffer_bytes: u64,
}

impl StorageOverhead {
    /// Computes the overhead for a given L1 size and VTT entry count
    /// (defaults: 48 KB L1, 1536 VTT entries).
    pub fn compute(l1_bytes: u64, vtt_entries: u64) -> Self {
        let l1_lines = l1_bytes / 128;
        // 5 bits per line, packed.
        let hpc_fields_bytes = l1_lines * 5 / 8;
        // LM: 32 entries x (2 bits + 3 x 4 B). The paper rounds to 392 B
        // (12.25 B/entry).
        let lm_bytes = 32 * (2 + 3 * 4 * 8) / 8;
        let ipc_monitor_bytes = 3 * 4;
        // Common info: 11 + 11 + 32 bits.
        let cta_common_bytes = (11u64 + 11 + 32).div_ceil(8);
        // Per-CTA: 32 x (1 + 1 + 11 + 32 bits).
        let per_cta_bytes = 32 * (1 + 1 + 11 + 32) / 8;
        // VTT: 24 bits per entry.
        let vtt_bytes = vtt_entries * 24 / 8;
        let buffer_bytes = 6 * (4 + 128);
        StorageOverhead {
            hpc_fields_bytes,
            lm_bytes,
            ipc_monitor_bytes,
            cta_common_bytes,
            per_cta_bytes,
            vtt_bytes,
            buffer_bytes,
        }
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.hpc_fields_bytes
            + self.lm_bytes
            + self.ipc_monitor_bytes
            + self.cta_common_bytes
            + self.per_cta_bytes
            + self.vtt_bytes
            + self.buffer_bytes
    }

    /// Total in KB.
    pub fn total_kb(&self) -> f64 {
        self.total_bytes() as f64 / 1024.0
    }
}

impl Default for StorageOverhead {
    fn default() -> Self {
        Self::compute(48 * 1024, 1536)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_section_4_2() {
        let o = StorageOverhead::default();
        // Paper: HPC fields 240 B for 48 KB L1.
        assert_eq!(o.hpc_fields_bytes, 240);
        // Paper: LM uses 392 B.
        assert_eq!(o.lm_bytes, 392);
        // Paper: VTT 4608 B for 1536 entries.
        assert_eq!(o.vtt_bytes, 4608);
        // Paper: buffer (4 + 128) x 6 = 792 B.
        assert_eq!(o.buffer_bytes, 792);
        // Paper total: ~5.88 KB.
        let kb = o.total_kb();
        assert!((5.7..6.1).contains(&kb), "total {kb} KB should be ~5.88 KB");
    }

    #[test]
    fn scales_with_l1_size() {
        let small = StorageOverhead::compute(16 * 1024, 1536);
        let large = StorageOverhead::compute(128 * 1024, 1536);
        assert!(small.hpc_fields_bytes < large.hpc_fields_bytes);
        assert_eq!(small.vtt_bytes, large.vtt_bytes);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let o = StorageOverhead::default();
        let sum = o.hpc_fields_bytes
            + o.lm_bytes
            + o.ipc_monitor_bytes
            + o.cta_common_bytes
            + o.per_cta_bytes
            + o.vtt_bytes
            + o.buffer_bytes;
        assert_eq!(o.total_bytes(), sum);
    }
}

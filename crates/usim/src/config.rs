//! Machine configuration: cache geometry, penalties and limits.

/// Cost-model and resource parameters of the simulated machine. The
/// defaults approximate the 167 MHz UltraSPARC of the paper's testbed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MachineConfig {
    /// Data cache size in bytes (default 16 KB, direct mapped).
    pub dcache_bytes: u64,
    /// Data cache line size (default 32 B).
    pub dcache_line: u64,
    /// Instruction cache size in bytes (default 16 KB).
    pub icache_bytes: u64,
    /// Instruction cache line size (default 32 B).
    pub icache_line: u64,
    /// Instruction cache associativity (default 2-way).
    pub icache_ways: usize,
    /// Unified external L2 cache size in bytes; 0 disables the L2 (the
    /// default — L1 misses then cost a flat [`MachineConfig::dcache_miss_penalty`]).
    /// The paper's E5000 testbed had a 512 KB - 1 MB external cache.
    pub l2_bytes: u64,
    /// L2 line size (default 64 B).
    pub l2_line: u64,
    /// L2 associativity (default 4-way... the external cache was direct
    /// mapped; 1 by default).
    pub l2_ways: usize,
    /// Extra cycles for an access that misses the L2 (memory latency).
    pub l2_miss_penalty: u64,
    /// Cycles added by a D-cache read miss (an L2 *hit* when the L2 is
    /// enabled).
    pub dcache_miss_penalty: u64,
    /// Cycles added by an I-cache miss.
    pub icache_miss_penalty: u64,
    /// Cycles added by a branch misprediction.
    pub mispredict_penalty: u64,
    /// Branch predictor entries.
    pub predictor_entries: usize,
    /// Store buffer depth (entries).
    pub store_buffer_depth: usize,
    /// Cycles between store buffer drains.
    pub store_drain_interval: u64,
    /// FP add/sub/mul latency in cycles.
    pub fp_latency: u64,
    /// FP divide latency in cycles.
    pub fdiv_latency: u64,
    /// Base address of code in the simulated address space.
    pub code_base: u64,
    /// Top of the simulated stack (frames grow down).
    pub stack_top: u64,
    /// Bytes reserved per activation frame (for counter save areas).
    pub frame_bytes: u64,
    /// Maximum call depth before a stack-overflow error.
    pub max_call_depth: usize,
    /// Abort after this many executed micro-ops (runaway guard).
    pub max_instructions: u64,
    /// Record per-block execution counts (a debugging/oracle feature;
    /// off by default — it is not part of the modeled machine).
    pub trace_blocks: bool,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            dcache_bytes: 16 * 1024,
            dcache_line: 32,
            icache_bytes: 16 * 1024,
            icache_line: 32,
            icache_ways: 2,
            l2_bytes: 0,
            l2_line: 64,
            l2_ways: 1,
            l2_miss_penalty: 30,
            dcache_miss_penalty: 8,
            icache_miss_penalty: 6,
            mispredict_penalty: 4,
            predictor_entries: 2048,
            store_buffer_depth: 8,
            store_drain_interval: 2,
            fp_latency: 3,
            fdiv_latency: 12,
            code_base: 0x0001_0000,
            stack_top: 0x7fff_0000,
            frame_bytes: 64,
            max_call_depth: 8192,
            max_instructions: 2_000_000_000,
            trace_blocks: false,
        }
    }
}

impl MachineConfig {
    /// A configuration with a tiny D-cache, handy for tests that want
    /// misses without megabytes of traffic.
    pub fn tiny_cache() -> MachineConfig {
        MachineConfig {
            dcache_bytes: 512,
            icache_bytes: 512,
            ..MachineConfig::default()
        }
    }

    /// A configuration with the E5000-style external cache enabled.
    pub fn with_l2(size_bytes: u64) -> MachineConfig {
        MachineConfig {
            l2_bytes: size_bytes,
            ..MachineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_ultrasparc_l1() {
        let c = MachineConfig::default();
        assert_eq!(c.dcache_bytes, 16 * 1024);
        assert_eq!(c.dcache_line, 32);
        assert_eq!(c.icache_ways, 2);
    }

    #[test]
    fn tiny_cache_is_small() {
        assert!(MachineConfig::tiny_cache().dcache_bytes < 1024);
    }
}

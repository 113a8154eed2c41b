//! Per-layer metric names (declared with their units in `BENCHMARK.json`)
//! and the map a traced run fills. Workloads name metrics only through
//! these constants, and a test checks the list against the declaration.

use std::collections::BTreeMap;

pub const SYNTH_MS: &str = "synth.ms";
pub const GEN_INSTANCE_MS: &str = "gen.instance_ms";
pub const GEN_UNSERVABLE: &str = "gen.unservable";
pub const NECESSITY_MS: &str = "contam.necessity_ms";
pub const GROUPING_MS: &str = "frontend.grouping_ms";
pub const MERGE_MS: &str = "frontend.merge_ms";
pub const GREEDY_MS: &str = "frontend.greedy_ms";
pub const GROUPS: &str = "frontend.groups";
pub const CANDIDATES: &str = "frontend.candidates";
pub const ROUTE_CALLS: &str = "routing.route_calls";
pub const BFS_RUNS: &str = "routing.bfs_runs";
pub const SCRATCH_REUSES: &str = "routing.scratch_reuses";
pub const LADDER_MS: &str = "ladder.ms";
pub const SERVED_PDW: &str = "ladder.served_pdw";
pub const SERVED_GREEDY: &str = "ladder.served_greedy";
pub const SERVED_DAWO: &str = "ladder.served_dawo";
pub const REJECTIONS: &str = "ladder.rejections";
pub const VALIDATE_MS: &str = "sim.validate_ms";
pub const PROPAGATE_MS: &str = "sim.propagate_ms";
pub const ILP_MS: &str = "ilp.ms";
pub const ILP_NODES: &str = "ilp.nodes";
pub const ILP_PIVOTS: &str = "ilp.lp_pivots";
pub const ILP_FIRST_INCUMBENT_MS: &str = "ilp.first_incumbent_ms";
pub const ILP_ADOPTED: &str = "ilp.adopted";
pub const ILP_IMPROVED: &str = "ilp.improved_vs_greedy";
pub const ILP_OVERRUN_MS: &str = "ilp.budget_overrun_ms";
pub const REGIONS: &str = "partition.regions";
pub const REGIONS_SKIPPED: &str = "partition.regions_skipped";
pub const SEAM_GROUPS: &str = "partition.seam_groups";
pub const WHOLE_CHIP_MS: &str = "partition.whole_chip_ms";
pub const REPAIR_P50_MS: &str = "repair.ms_p50";
pub const REPAIR_P99_MS: &str = "repair.ms_p99";
pub const REPAIR_CACHE_SERVED: &str = "repair.cache_served_ratio";
pub const REPAIR_INVALIDATED: &str = "repair.invalidated_analyses";
pub const REPAIR_REACH: &str = "repair.reach_recomputed";
pub const QUEUE_WAIT_P50_MS: &str = "server.queue_wait_ms_p50";
pub const QUEUE_WAIT_P99_MS: &str = "server.queue_wait_ms_p99";
pub const SERVICE_HIT_MS: &str = "server.service_ms_hit";
pub const SERVICE_LEAD_MS: &str = "server.service_ms_lead";
pub const SERVICE_REPAIR_MS: &str = "server.service_ms_repair";
pub const MEMO_HIT_RATIO: &str = "server.memo_hit_ratio";
pub const SOLVES: &str = "server.solves";
pub const LRU_WARM_HITS: &str = "server.lru_warm_hits";
pub const LRU_MISSES: &str = "server.lru_misses";
pub const SHED: &str = "server.shed";
pub const INSTANCE_HASH_MS: &str = "codec.instance_hash_ms";
pub const CERTIFY_MS: &str = "codec.certify_ms";
pub const ENCODE_MS: &str = "codec.artifact_encode_ms";
pub const DECODE_MS: &str = "codec.artifact_decode_ms";
pub const REQUEST_BYTES: &str = "codec.request_bytes";
pub const RESPONSE_BYTES: &str = "codec.response_bytes";
pub const PING_RTT_MS: &str = "net.ping_rtt_ms";
pub const CLIENT_VERIFY_MS: &str = "net.client_verify_ms";
pub const RETRIES: &str = "net.retries";
pub const RESIDUAL_MS: &str = "net.residual_ms";

/// Every per-layer metric, in declaration order.
#[cfg(test)]
pub const ALL: [&str; 55] = [
    SYNTH_MS,
    GEN_INSTANCE_MS,
    GEN_UNSERVABLE,
    NECESSITY_MS,
    GROUPING_MS,
    MERGE_MS,
    GREEDY_MS,
    GROUPS,
    CANDIDATES,
    ROUTE_CALLS,
    BFS_RUNS,
    SCRATCH_REUSES,
    LADDER_MS,
    SERVED_PDW,
    SERVED_GREEDY,
    SERVED_DAWO,
    REJECTIONS,
    VALIDATE_MS,
    PROPAGATE_MS,
    ILP_MS,
    ILP_NODES,
    ILP_PIVOTS,
    ILP_FIRST_INCUMBENT_MS,
    ILP_ADOPTED,
    ILP_IMPROVED,
    ILP_OVERRUN_MS,
    REGIONS,
    REGIONS_SKIPPED,
    SEAM_GROUPS,
    WHOLE_CHIP_MS,
    REPAIR_P50_MS,
    REPAIR_P99_MS,
    REPAIR_CACHE_SERVED,
    REPAIR_INVALIDATED,
    REPAIR_REACH,
    QUEUE_WAIT_P50_MS,
    QUEUE_WAIT_P99_MS,
    SERVICE_HIT_MS,
    SERVICE_LEAD_MS,
    SERVICE_REPAIR_MS,
    MEMO_HIT_RATIO,
    SOLVES,
    LRU_WARM_HITS,
    LRU_MISSES,
    SHED,
    INSTANCE_HASH_MS,
    CERTIFY_MS,
    ENCODE_MS,
    DECODE_MS,
    REQUEST_BYTES,
    RESPONSE_BYTES,
    PING_RTT_MS,
    CLIENT_VERIFY_MS,
    RETRIES,
    RESIDUAL_MS,
];

/// Per-layer values a workload measured. Layers a workload bypasses stay
/// absent; the report prints them as 0.
pub type Layers = BTreeMap<&'static str, f64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_constant_is_declared_in_order() {
        let declared: Vec<String> = crate::spec::Spec::load()
            .per_layer
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(declared, ALL.map(String::from).to_vec());
    }
}

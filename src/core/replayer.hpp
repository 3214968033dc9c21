// Replayer: executes a synthetic workload against the same device models
// a real chunkserver runs on, producing traces and end-to-end latencies
// that can be compared 1:1 with the original system's — the second half
// of the paper's validation loop (Table 2's "Synthetic Workload (KOOZA)"
// rows).
//
// Two modes implement the cross-examination:
//  * kStructured  — phases run in the request's learned order (KOOZA).
//  * kIndependent — every subsystem is stressed concurrently at arrival,
//    which is all a structure-less in-breadth model can justify; latency
//    degenerates to the slowest subsystem (the paper's "invalid stressing
//    of the system").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/synthetic.hpp"
#include "hw/cpu.hpp"
#include "hw/disk.hpp"
#include "hw/memory.hpp"
#include "hw/network.hpp"
#include "trace/traceset.hpp"

namespace kooza::core {

enum class ReplayMode { kStructured, kIndependent };

struct ReplayConfig {
    hw::DiskParams disk{};
    hw::CpuParams cpu{.cores = 2, .per_byte_cost = 1.0 / 1e9,
                      .per_request_overhead = 20e-6};
    hw::MemoryParams memory{};
    hw::SwitchParams net{};
    /// Replay servers. Request r runs on server `r.server % n_servers`
    /// (a `repl.forward` phase hops to the next one). core::Generator
    /// leaves `server` at 0; core::ClusterModel tags each request.
    std::size_t n_servers = 1;
    std::uint64_t control_bytes = 512;
    /// Split of a request's CPU busy time before/after I/O (take it from
    /// ServerModel::cpu_verify_fraction for a trained model).
    double cpu_verify_fraction = 0.4;
    std::uint64_t seed = 99;
};

struct ReplayResult {
    trace::TraceSet traces;
    std::vector<double> latencies;      ///< completion order
    std::uint64_t network_drops = 0;    ///< client-port frame drops (incast)
    std::uint64_t network_timeouts = 0;
    std::size_t unknown_phases = 0;     ///< phases the replayer didn't recognize

    /// Aggregate run statistics (for power/provisioning studies).
    double duration = 0.0;              ///< simulated seconds
    double mean_cpu_utilization = 0.0;  ///< across replay servers
    double mean_disk_utilization = 0.0;
};

class Replayer {
public:
    explicit Replayer(ReplayConfig cfg = {});

    [[nodiscard]] ReplayResult replay(const SyntheticWorkload& workload,
                                      ReplayMode mode = ReplayMode::kStructured) const;

    /// Sharded replay: requests are partitioned by their `server` tag and
    /// each server runs as an independent shard with its own sim::Engine
    /// and TraceSet, executed across the thread pool and merged by shard
    /// index — so results are bit-identical at any thread count. Unlike
    /// replay(), shards share nothing: no client-port fan-in contention
    /// and no cross-server replica forwarding (repl.forward stays on the
    /// shard). Use replay() when those couplings are the point (incast).
    [[nodiscard]] ReplayResult replay_sharded(
        const SyntheticWorkload& workload,
        ReplayMode mode = ReplayMode::kStructured) const;

    [[nodiscard]] const ReplayConfig& config() const noexcept { return cfg_; }

private:
    [[nodiscard]] ReplayResult replay_with_ids(const SyntheticWorkload& workload,
                                               ReplayMode mode,
                                               std::uint64_t base_id) const;

    ReplayConfig cfg_;
};

}  // namespace kooza::core

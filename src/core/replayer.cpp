#include "core/replayer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "sim/engine.hpp"
#include "trace/sink.hpp"

namespace kooza::core {

namespace {

struct ReplayerMetrics {
    obs::Counter& replayed = obs::counter("core.replayer.requests_total");
    obs::Counter& unknown = obs::counter("core.replayer.unknown_phases_total");
    // Simulated-time request latency: integer ns, deterministic at any
    // thread count (shard engines clock their own requests).
    obs::Histogram& latency_ns =
        obs::histogram("core.replayer.request_latency_ns", obs::Unit::kNanoseconds);
};

ReplayerMetrics& metrics() {
    static ReplayerMetrics m;
    return m;
}

/// One replay server: the chunkserver's device stack without GFS logic.
struct ServerStack {
    std::unique_ptr<hw::Disk> disk;
    std::unique_ptr<hw::Cpu> cpu;
    std::unique_ptr<hw::Memory> memory;
    std::unique_ptr<hw::SwitchPort> ingress;

    ServerStack(sim::Engine& eng, const ReplayConfig& cfg, trace::Sink* sink) {
        disk = std::make_unique<hw::Disk>(eng, cfg.disk, sink);
        cpu = std::make_unique<hw::Cpu>(eng, cfg.cpu, sink);
        memory = std::make_unique<hw::Memory>(eng, cfg.memory, sink);
        ingress = std::make_unique<hw::SwitchPort>(
            eng, cfg.net, trace::NetworkRecord::Direction::kRx, sink);
    }
};

struct Runtime {
    sim::Engine engine;
    trace::TraceSet traces;
    trace::MemorySink sink{traces};
    std::vector<std::unique_ptr<ServerStack>> servers;
    std::unique_ptr<hw::SwitchPort> client_port;
    std::vector<double> latencies;
    std::size_t unknown_phases = 0;

    explicit Runtime(const ReplayConfig& cfg) {
        for (std::size_t s = 0; s < cfg.n_servers; ++s)
            servers.push_back(std::make_unique<ServerStack>(engine, cfg, &sink));
        client_port = std::make_unique<hw::SwitchPort>(
            engine, cfg.net, trace::NetworkRecord::Direction::kTx, &sink);
    }

    void finish_request(std::uint64_t id, const SyntheticRequest& r, double arrival) {
        trace::RequestRecord rec;
        rec.request_id = id;
        rec.type = r.type;
        rec.arrival = arrival;
        rec.completion = engine.now();
        rec.bytes = r.network_bytes;
        traces.requests.push_back(rec);
        latencies.push_back(rec.completion - rec.arrival);
        metrics().replayed.add();
        metrics().latency_ns.observe_seconds(rec.completion - rec.arrival);
    }
};

class Execution {
public:
    Execution(Runtime& rt, const ReplayConfig& cfg) : rt_(rt), cfg_(cfg) {}

    /// How many times each phase kind occurs in a request's sequence —
    /// the request's feature budget is split evenly across repeats (a
    /// chunk-boundary write has two disk.io phases of half the bytes, not
    /// two full-size I/Os).
    struct PhaseCounts {
        std::size_t rx = 0, tx = 0, verify = 0, aggregate = 0, mem = 0, disk = 0;

        static PhaseCounts of(const std::vector<std::string>& phases) {
            PhaseCounts c;
            for (const auto& p : phases) {
                if (p == "net.rx") ++c.rx;
                else if (p == "net.tx") ++c.tx;
                else if (p == "cpu.verify") ++c.verify;
                else if (p == "cpu.aggregate") ++c.aggregate;
                else if (p == "mem.buffer") ++c.mem;
                else if (p == "disk.io") ++c.disk;
            }
            return c;
        }
    };

    /// Structured replay: phases in the request's learned order. `r`
    /// lives in the workload, which outlives the engine run.
    void run_structured(std::uint64_t id, const SyntheticRequest& r,
                        std::size_t server) {
        const double arrival = rt_.engine.now();
        const SyntheticRequest* req = &r;
        auto step = std::make_shared<std::function<void(std::size_t)>>();
        *step = [this, id, req, server, arrival, counts = PhaseCounts::of(r.phases),
                 step](std::size_t i) {
            if (i >= req->phases.size()) {
                rt_.engine.schedule_after(0.0, [step] { *step = nullptr; });
                rt_.finish_request(id, *req, arrival);
                return;
            }
            execute_phase(id, *req, counts, server, req->phases[i],
                          [step, i] { (*step)(i + 1); });
        };
        (*step)(0);
    }

    /// Independent replay: all subsystems stressed concurrently (the
    /// structure-free in-breadth stressing). `r` lives in the workload.
    void run_independent(std::uint64_t id, const SyntheticRequest& r,
                         std::size_t server) {
        const double arrival = rt_.engine.now();
        const SyntheticRequest* req = &r;
        auto outstanding = std::make_shared<int>(4);
        auto done_one = [this, id, req, arrival, outstanding] {
            if (--*outstanding == 0) rt_.finish_request(id, *req, arrival);
        };
        ServerStack& st = *rt_.servers[server];
        // Network: payload in the payload-bearing direction.
        if (r.type == trace::IoType::kWrite)
            st.ingress->transfer(id, r.network_bytes,
                                 [done_one](double) { done_one(); }, true);
        else
            rt_.client_port->transfer(id, r.network_bytes,
                                      [done_one](double) { done_one(); }, true);
        // CPU: the whole busy budget as one burst.
        st.cpu->execute(id, r.cpu_busy_seconds, done_one);
        // Memory.
        st.memory->access(id, bank_of(r), r.memory_bytes, r.memory_type,
                          [done_one](double) { done_one(); });
        // Storage.
        st.disk->io(id, lbn_of(r), r.storage_bytes, r.storage_type,
                    [done_one](double) { done_one(); });
    }

private:
    [[nodiscard]] std::uint32_t bank_of(const SyntheticRequest& r) const {
        return r.bank % cfg_.memory.banks;
    }
    [[nodiscard]] std::uint64_t lbn_of(const SyntheticRequest& r) const {
        return std::min<std::uint64_t>(r.lbn, cfg_.disk.lbn_count - 1);
    }

    static std::uint64_t split(std::uint64_t total, std::size_t n) {
        return n <= 1 ? total : total / n;
    }

    void execute_phase(std::uint64_t id, const SyntheticRequest& r,
                       const PhaseCounts& counts, std::size_t server,
                       const std::string& phase, std::function<void()> next) {
        ServerStack& st = *rt_.servers[server];
        if (phase == "net.rx") {
            const bool payload = r.type == trace::IoType::kWrite;
            st.ingress->transfer(
                id,
                payload ? split(r.network_bytes, counts.rx) : cfg_.control_bytes,
                [next = std::move(next)](double) { next(); }, payload);
        } else if (phase == "net.tx") {
            const bool payload = r.type == trace::IoType::kRead;
            rt_.client_port->transfer(
                id,
                payload ? split(r.network_bytes, counts.tx) : cfg_.control_bytes,
                [next = std::move(next)](double) { next(); }, payload);
        } else if (phase == "cpu.verify") {
            st.cpu->execute(id,
                            cfg_.cpu_verify_fraction * r.cpu_busy_seconds /
                                double(std::max<std::size_t>(1, counts.verify)),
                            std::move(next));
        } else if (phase == "cpu.aggregate") {
            st.cpu->execute(id,
                            (1.0 - cfg_.cpu_verify_fraction) * r.cpu_busy_seconds /
                                double(std::max<std::size_t>(1, counts.aggregate)),
                            std::move(next));
        } else if (phase == "mem.buffer") {
            st.memory->access(id, bank_of(r), split(r.memory_bytes, counts.mem),
                              r.memory_type,
                              [next = std::move(next)](double) { next(); });
        } else if (phase == "disk.io") {
            st.disk->io(id, lbn_of(r), split(r.storage_bytes, counts.disk),
                        r.storage_type,
                        [next = std::move(next)](double) { next(); });
        } else if (phase == "repl.forward") {
            // One replica hop: payload to the next server, which writes it.
            const std::size_t rep = (server + 1) % rt_.servers.size();
            ServerStack& rs = *rt_.servers[rep];
            rs.ingress->transfer(
                id, r.network_bytes,
                [this, id, &rs, &r, next = std::move(next)](double) mutable {
                    rs.disk->io(id, lbn_of(r), r.storage_bytes, r.storage_type,
                                [next = std::move(next)](double) { next(); });
                },
                true);
        } else if (phase == "master.lookup") {
            // Control round trip on the client port.
            rt_.client_port->transfer(
                id, cfg_.control_bytes,
                [this, id, next = std::move(next)](double) mutable {
                    rt_.client_port->transfer(
                        id, cfg_.control_bytes,
                        [next = std::move(next)](double) { next(); }, false);
                },
                false);
        } else {
            ++rt_.unknown_phases;
            metrics().unknown.add();
            rt_.engine.schedule_after(0.0, std::move(next));
        }
    }

    Runtime& rt_;
    const ReplayConfig& cfg_;
};

/// Feeds a workload's arrivals into the engine a few at a time instead of
/// queueing the whole schedule up front, so pending events stay
/// O(in-flight), as in capture's SchedulePump. Arrivals fire in stable
/// time order. The first arrival of each instant arms every arrival of
/// the next instant before it runs its request, so arrivals of one
/// instant fire back to back in workload order, ahead of the work the
/// requests schedule for that instant (see DESIGN.md "Event core").
/// Request ids are `base_id` plus the workload index. Events reference
/// `requests`, which outlives the engine run.
class ArrivalPump {
public:
    ArrivalPump(Runtime& rt, Execution& exec,
                const std::vector<SyntheticRequest>& requests,
                std::uint64_t base_id, ReplayMode mode)
        : rt_(rt), exec_(exec), requests_(requests), order_(requests.size()),
          base_id_(base_id), mode_(mode) {
        for (const auto& r : requests_)
            if (!(std::isfinite(r.time) && r.time >= 0.0))
                throw std::invalid_argument(
                    "Replayer::replay: arrival time not finite and non-negative");
        std::iota(order_.begin(), order_.end(), std::size_t{0});
        std::stable_sort(order_.begin(), order_.end(),
                         [this](std::size_t a, std::size_t b) {
                             return requests_[a].time < requests_[b].time;
                         });
        arm_next_instant();
    }

private:
    [[nodiscard]] double at(std::size_t k) const {
        return requests_[order_[k]].time;
    }

    void arm_next_instant() {
        if (armed_ == order_.size()) return;
        const double t = at(armed_);
        do {
            const std::size_t k = armed_++;
            rt_.engine.schedule_at(t, [this, k] {
                // Only the instant's first arrival to fire still finds the
                // newest armed arrival at its own instant.
                if (at(armed_ - 1) == at(k)) arm_next_instant();
                run(order_[k]);
            });
        } while (armed_ < order_.size() && at(armed_) == t);
    }

    void run(std::size_t i) {
        const SyntheticRequest& r = requests_[i];
        const std::size_t server = std::size_t(r.server % rt_.servers.size());
        // A request with no phase list cannot be replayed in order — fall
        // back to concurrent stressing.
        if (mode_ == ReplayMode::kStructured && !r.phases.empty())
            exec_.run_structured(base_id_ + i, r, server);
        else
            exec_.run_independent(base_id_ + i, r, server);
    }

    Runtime& rt_;
    Execution& exec_;
    const std::vector<SyntheticRequest>& requests_;
    std::vector<std::size_t> order_;  ///< workload indices, stable time order
    std::size_t armed_ = 0;           ///< arrivals scheduled so far
    std::uint64_t base_id_;
    ReplayMode mode_;
};

}  // namespace

Replayer::Replayer(ReplayConfig cfg) : cfg_(cfg) {
    if (cfg_.n_servers == 0) throw std::invalid_argument("Replayer: n_servers 0");
    if (!(cfg_.cpu_verify_fraction > 0.0 && cfg_.cpu_verify_fraction < 1.0))
        throw std::invalid_argument("Replayer: cpu_verify_fraction outside (0,1)");
}

ReplayResult Replayer::replay(const SyntheticWorkload& workload,
                              ReplayMode mode) const {
    return replay_with_ids(workload, mode, 0);
}

ReplayResult Replayer::replay_sharded(const SyntheticWorkload& workload,
                                      ReplayMode mode) const {
    if (workload.empty())
        throw std::invalid_argument("Replayer::replay_sharded: empty workload");
    const std::size_t shards = cfg_.n_servers;
    if (shards <= 1) return replay(workload, mode);

    // Partition by server tag, preserving arrival order within a shard.
    std::vector<SyntheticWorkload> parts(shards);
    for (auto& p : parts) p.model_name = workload.model_name;
    for (const auto& r : workload.requests) {
        auto& p = parts[std::size_t(r.server % shards)];
        p.requests.push_back(r);
        p.requests.back().server = 0;
    }
    // Each shard's request ids start after the previous shard's range, so
    // merged traces keep globally-unique ids no matter the schedule.
    std::vector<std::uint64_t> base_id(shards, 0);
    std::uint64_t next_id = 0;
    for (std::size_t s = 0; s < shards; ++s) {
        base_id[s] = next_id;
        next_id += parts[s].requests.size();
    }

    ReplayConfig shard_cfg = cfg_;
    shard_cfg.n_servers = 1;
    const Replayer shard_replayer(shard_cfg);
    std::vector<std::optional<ReplayResult>> results(shards);
    par::pool().parallel_for(shards, [&](std::size_t s) {
        if (parts[s].requests.empty()) return;  // idle server: nothing to run
        results[s] = shard_replayer.replay_with_ids(parts[s], mode, base_id[s]);
    });

    // Merge by shard index (idle shards count as 0-utilization servers).
    ReplayResult out;
    for (std::size_t s = 0; s < shards; ++s) {
        if (!results[s]) continue;
        ReplayResult& r = *results[s];
        out.traces.merge(r.traces);
        out.latencies.insert(out.latencies.end(), r.latencies.begin(),
                             r.latencies.end());
        out.network_drops += r.network_drops;
        out.network_timeouts += r.network_timeouts;
        out.unknown_phases += r.unknown_phases;
        out.mean_cpu_utilization += r.mean_cpu_utilization;
        out.mean_disk_utilization += r.mean_disk_utilization;
        out.duration = std::max(out.duration, r.duration);
    }
    out.mean_cpu_utilization /= double(shards);
    out.mean_disk_utilization /= double(shards);
    out.traces.sort_by_time();
    return out;
}

ReplayResult Replayer::replay_with_ids(const SyntheticWorkload& workload,
                                       ReplayMode mode,
                                       std::uint64_t base_id) const {
    if (workload.empty())
        throw std::invalid_argument("Replayer::replay: empty workload");
    Runtime rt(cfg_);
    Execution exec(rt, cfg_);
    ArrivalPump pump(rt, exec, workload.requests, base_id, mode);
    rt.engine.run();
    ReplayResult out;
    out.traces = std::move(rt.traces);
    out.traces.sort_by_time();
    out.latencies = std::move(rt.latencies);
    out.network_drops = rt.client_port->drops();
    out.network_timeouts = rt.client_port->timeouts();
    for (const auto& s : rt.servers) {
        out.network_drops += s->ingress->drops();
        out.network_timeouts += s->ingress->timeouts();
        out.mean_cpu_utilization += s->cpu->utilization();
        out.mean_disk_utilization += s->disk->utilization();
    }
    out.mean_cpu_utilization /= double(rt.servers.size());
    out.mean_disk_utilization /= double(rt.servers.size());
    out.duration = rt.engine.now();
    out.unknown_phases = rt.unknown_phases;
    return out;
}

}  // namespace kooza::core

// Tests for the replayer: structured vs independent modes, trace output,
// incast behaviour, phase handling, and arrival order and queue depth.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/replayer.hpp"
#include "obs/metrics.hpp"
#include "stats/descriptive.hpp"
#include "trace/features.hpp"

namespace {

using namespace kooza::core;
using kooza::trace::IoType;

SyntheticRequest basic_read(double t) {
    SyntheticRequest r;
    r.time = t;
    r.type = IoType::kRead;
    r.network_bytes = 65536;
    r.cpu_busy_seconds = 0.0002;
    r.memory_bytes = 16384;
    r.memory_type = IoType::kRead;
    r.bank = 1;
    r.storage_bytes = 65536;
    r.storage_type = IoType::kRead;
    r.lbn = 4096;
    r.phases = {"net.rx",  "cpu.verify",    "mem.buffer",
                "disk.io", "cpu.aggregate", "net.tx"};
    return r;
}

SyntheticWorkload workload_of(std::vector<SyntheticRequest> rs) {
    SyntheticWorkload w;
    w.model_name = "test";
    w.requests = std::move(rs);
    return w;
}

TEST(Replayer, StructuredProducesFullTraces) {
    Replayer rep;
    const auto res = rep.replay(workload_of({basic_read(0.0)}));
    ASSERT_EQ(res.latencies.size(), 1u);
    EXPECT_GT(res.latencies[0], 0.0);
    EXPECT_EQ(res.traces.requests.size(), 1u);
    EXPECT_EQ(res.traces.storage.size(), 1u);
    EXPECT_EQ(res.traces.cpu.size(), 2u);  // verify + aggregate
    EXPECT_EQ(res.traces.memory.size(), 1u);
    EXPECT_EQ(res.traces.network.size(), 1u);  // read payload on net.tx
    EXPECT_EQ(res.unknown_phases, 0u);
}

TEST(Replayer, FeatureProjectionMatchesInput) {
    Replayer rep;
    const auto res = rep.replay(workload_of({basic_read(0.0)}));
    const auto fs = kooza::trace::extract_features(res.traces);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].network_bytes, 65536u);
    EXPECT_EQ(fs[0].storage_bytes, 65536u);
    EXPECT_EQ(fs[0].memory_bytes, 16384u);
    EXPECT_EQ(fs[0].first_lbn, 4096u);
    EXPECT_EQ(fs[0].first_bank, 1u);
}

TEST(Replayer, IndependentFasterThanStructured) {
    // Serial phases must take at least as long as the max single phase.
    std::vector<SyntheticRequest> rs;
    for (int i = 0; i < 50; ++i) rs.push_back(basic_read(double(i) * 0.05));
    Replayer rep;
    const auto structured = rep.replay(workload_of(rs), ReplayMode::kStructured);
    const auto independent = rep.replay(workload_of(rs), ReplayMode::kIndependent);
    EXPECT_LT(kooza::stats::mean(independent.latencies),
              kooza::stats::mean(structured.latencies));
}

TEST(Replayer, EmptyPhasesFallBackToIndependent) {
    auto r = basic_read(0.0);
    r.phases.clear();
    Replayer rep;
    const auto res = rep.replay(workload_of({r}), ReplayMode::kStructured);
    ASSERT_EQ(res.latencies.size(), 1u);
    EXPECT_GT(res.latencies[0], 0.0);
}

TEST(Replayer, UnknownPhasesCountedAndSkipped) {
    auto r = basic_read(0.0);
    r.phases = {"warp.drive", "disk.io"};
    Replayer rep;
    const auto res = rep.replay(workload_of({r}));
    EXPECT_EQ(res.unknown_phases, 1u);
    EXPECT_EQ(res.traces.storage.size(), 1u);
}

TEST(Replayer, WritePathRecordsRxPayload) {
    auto r = basic_read(0.0);
    r.type = IoType::kWrite;
    r.storage_type = IoType::kWrite;
    r.memory_type = IoType::kWrite;
    Replayer rep;
    const auto res = rep.replay(workload_of({r}));
    ASSERT_EQ(res.traces.network.size(), 1u);
    EXPECT_EQ(res.traces.network[0].direction,
              kooza::trace::NetworkRecord::Direction::kRx);
}

TEST(Replayer, ReplForwardUsesSecondServerDisk) {
    auto r = basic_read(0.0);
    r.type = IoType::kWrite;
    r.storage_type = IoType::kWrite;
    r.phases = {"net.rx", "disk.io", "repl.forward", "net.tx"};
    ReplayConfig cfg;
    cfg.n_servers = 2;
    Replayer rep(cfg);
    const auto res = rep.replay(workload_of({r}));
    EXPECT_EQ(res.traces.storage.size(), 2u);   // primary + replica write
    EXPECT_EQ(res.traces.network.size(), 2u);   // rx payload + forward
}

TEST(Replayer, MasterLookupPhaseSupported) {
    auto r = basic_read(0.0);
    r.phases.insert(r.phases.begin(), "master.lookup");
    Replayer rep;
    const auto res = rep.replay(workload_of({r}));
    EXPECT_EQ(res.unknown_phases, 0u);
}

TEST(Replayer, LbnAndBankClamped) {
    auto r = basic_read(0.0);
    r.lbn = ~0ull;  // beyond any disk
    r.bank = 1000;
    Replayer rep;
    EXPECT_NO_THROW(rep.replay(workload_of({r})));
}

TEST(Replayer, IncastDropsGrowWithFanIn) {
    // Many servers respond to one client at the same instant.
    auto run = [](std::size_t n_servers) {
        std::vector<SyntheticRequest> rs;
        for (std::size_t i = 0; i < n_servers; ++i) {
            auto r = basic_read(0.0);
            r.network_bytes = 256 << 10;
            r.phases = {"net.tx"};
            r.server = std::uint32_t(i);
            rs.push_back(r);
        }
        ReplayConfig cfg;
        cfg.n_servers = n_servers;
        cfg.net.buffer_frames = 8;
        cfg.net.retry_timeout = 0.05;
        Replayer rep(cfg);
        return rep.replay(workload_of(rs)).network_drops;
    };
    EXPECT_EQ(run(2), 0u);
    EXPECT_GT(run(64), 0u);
}

TEST(Replayer, Validation) {
    Replayer rep;
    EXPECT_THROW(rep.replay(SyntheticWorkload{}), std::invalid_argument);
    ReplayConfig bad;
    bad.n_servers = 0;
    EXPECT_THROW(Replayer{bad}, std::invalid_argument);
    ReplayConfig bad2;
    bad2.cpu_verify_fraction = 1.5;
    EXPECT_THROW(Replayer{bad2}, std::invalid_argument);
}

TEST(Replayer, RepeatedPhasesSplitTheByteBudget) {
    // A chunk-boundary write has two disk.io phases; the request's bytes
    // must be split across them, not executed twice.
    auto r = basic_read(0.0);
    r.type = IoType::kWrite;
    r.storage_type = IoType::kWrite;
    r.storage_bytes = 4 << 20;
    r.network_bytes = 4 << 20;
    r.memory_bytes = 256 << 10;
    r.phases = {"net.rx",  "net.rx",  "cpu.verify", "mem.buffer", "disk.io",
                "cpu.verify", "mem.buffer", "disk.io", "cpu.aggregate", "net.tx"};
    Replayer rep;
    const auto res = rep.replay(workload_of({r}));
    const auto fs = kooza::trace::extract_features(res.traces);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].storage_bytes, 4u << 20);   // 2 x 2 MB, not 2 x 4 MB
    EXPECT_EQ(fs[0].network_bytes, 4u << 20);
    EXPECT_EQ(fs[0].memory_bytes, 256u << 10);
    EXPECT_EQ(res.traces.storage.size(), 2u);
    EXPECT_EQ(res.traces.storage[0].size_bytes, 2u << 20);
}

TEST(Replayer, RepeatedCpuPhasesSplitBusyTime) {
    auto r = basic_read(0.0);
    r.cpu_busy_seconds = 0.004;
    r.phases = {"cpu.verify", "cpu.verify", "cpu.aggregate", "cpu.aggregate"};
    Replayer rep;  // verify fraction 0.4
    const auto res = rep.replay(workload_of({r}));
    const auto fs = kooza::trace::extract_features(res.traces);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_NEAR(fs[0].cpu_busy_seconds, 0.004, 1e-12);
    ASSERT_EQ(res.traces.cpu.size(), 4u);
    EXPECT_NEAR(res.traces.cpu[0].busy_seconds, 0.4 * 0.004 / 2.0, 1e-12);
    EXPECT_NEAR(res.traces.cpu[2].busy_seconds, 0.6 * 0.004 / 2.0, 1e-12);
}

TEST(Replayer, SinglePhaseKeepsFullBudget) {
    auto r = basic_read(0.0);
    r.phases = {"disk.io"};
    Replayer rep;
    const auto res = rep.replay(workload_of({r}));
    ASSERT_EQ(res.traces.storage.size(), 1u);
    EXPECT_EQ(res.traces.storage[0].size_bytes, 65536u);
}

TEST(Replayer, ReportsUtilizationAndDuration) {
    std::vector<SyntheticRequest> rs;
    for (int i = 0; i < 40; ++i) rs.push_back(basic_read(double(i) * 0.02));
    Replayer rep;
    const auto res = rep.replay(workload_of(rs));
    EXPECT_GT(res.duration, 0.0);
    EXPECT_GT(res.mean_disk_utilization, 0.0);
    EXPECT_LE(res.mean_disk_utilization, 1.0);
    EXPECT_GT(res.mean_cpu_utilization, 0.0);
    EXPECT_LE(res.mean_cpu_utilization, 1.0);
    // Disk dominates this workload.
    EXPECT_GT(res.mean_disk_utilization, res.mean_cpu_utilization);
}

TEST(Replayer, DeterministicAcrossRuns) {
    std::vector<SyntheticRequest> rs;
    for (int i = 0; i < 20; ++i) rs.push_back(basic_read(double(i) * 0.01));
    Replayer rep;
    const auto a = rep.replay(workload_of(rs));
    const auto b = rep.replay(workload_of(rs));
    ASSERT_EQ(a.latencies.size(), b.latencies.size());
    for (std::size_t i = 0; i < a.latencies.size(); ++i)
        EXPECT_DOUBLE_EQ(a.latencies[i], b.latencies[i]);
}

TEST(Replayer, QueueDepthStaysAtInFlightScale) {
    // 2000 well-spaced requests: only a handful are ever in flight, so
    // the engine's pending set must stay near that, not near the length
    // of the schedule.
    std::vector<SyntheticRequest> rs;
    for (int i = 0; i < 2000; ++i) rs.push_back(basic_read(double(i) * 0.02));
    auto& peak = kooza::obs::gauge("sim.engine.queue_depth_peak");
    peak.reset();
    const auto res = Replayer{}.replay(workload_of(rs));
    ASSERT_EQ(res.latencies.size(), 2000u);
    EXPECT_GT(peak.max(), 0.0);
    EXPECT_LE(peak.max(), 16.0);
}

// Requests whose CPU phase takes no time: each one's CPU completion and
// deferred core grant land at its own arrival instant, so any reordering
// of equal-time arrivals against that work changes who gets the core and
// the disk first.
SyntheticRequest zero_cpu_read(double t) {
    auto r = basic_read(t);
    r.cpu_busy_seconds = 0.0;
    r.phases = {"cpu.verify", "disk.io", "cpu.aggregate"};
    return r;
}

ReplayConfig one_core() {
    ReplayConfig cfg;
    cfg.cpu.cores = 1;
    return cfg;
}

TEST(Replayer, EqualTimeArrivalsRunInWorkloadOrder) {
    // Arrivals at one instant fire back to back in workload order, ahead
    // of the work they schedule for that instant: the single core and the
    // FIFO disk then serve the requests in workload order.
    std::vector<SyntheticRequest> rs;
    for (int i = 0; i < 4; ++i) rs.push_back(zero_cpu_read(0.0));
    for (int i = 0; i < 3; ++i) rs.push_back(zero_cpu_read(0.001));
    const auto res = Replayer{one_core()}.replay(workload_of(rs));
    ASSERT_EQ(res.traces.storage.size(), rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i)
        EXPECT_EQ(res.traces.storage[i].request_id, i);
    ASSERT_EQ(res.latencies.size(), rs.size());
    EXPECT_TRUE(std::is_sorted(res.latencies.begin(), res.latencies.begin() + 4));
}

TEST(Replayer, OutOfOrderWorkloadReplaysInStableTimeOrder) {
    // The same requests listed out of time order replay exactly as the
    // time-sorted list does, provided equal-time requests keep their
    // relative order. Request ids stay the workload index.
    std::vector<SyntheticRequest> sorted;
    for (int i = 0; i < 3; ++i) sorted.push_back(zero_cpu_read(0.0));
    for (int i = 0; i < 3; ++i) sorted.push_back(zero_cpu_read(0.001));
    for (int i = 0; i < 3; ++i) sorted.push_back(zero_cpu_read(0.0015 * i + 0.002));
    for (std::size_t i = 0; i < sorted.size(); ++i)
        sorted[i].storage_bytes = 4096 * (i + 1);  // tell the requests apart
    // shuffled[j] = sorted[perm[j]]; ties (0,1,2) and (3,4,5) keep order.
    const std::vector<std::size_t> perm = {8, 3, 0, 6, 4, 1, 7, 2, 5};
    std::vector<SyntheticRequest> shuffled;
    for (std::size_t k : perm) shuffled.push_back(sorted[k]);

    const Replayer rep(one_core());
    const auto a = rep.replay(workload_of(sorted));
    const auto b = rep.replay(workload_of(shuffled));
    EXPECT_EQ(a.latencies, b.latencies);
    EXPECT_EQ(a.duration, b.duration);
    ASSERT_EQ(a.traces.storage.size(), b.traces.storage.size());
    for (std::size_t i = 0; i < a.traces.storage.size(); ++i) {
        const auto& x = a.traces.storage[i];
        const auto& y = b.traces.storage[i];
        EXPECT_EQ(x.request_id, perm[y.request_id]);
        EXPECT_EQ(x.time, y.time);
        EXPECT_EQ(x.size_bytes, y.size_bytes);
        EXPECT_EQ(x.latency, y.latency);
    }
    ASSERT_EQ(a.traces.cpu.size(), b.traces.cpu.size());
    for (std::size_t i = 0; i < a.traces.cpu.size(); ++i) {
        EXPECT_EQ(a.traces.cpu[i].request_id, perm[b.traces.cpu[i].request_id]);
        EXPECT_EQ(a.traces.cpu[i].time, b.traces.cpu[i].time);
    }
    ASSERT_EQ(a.traces.requests.size(), b.traces.requests.size());
    for (std::size_t i = 0; i < a.traces.requests.size(); ++i) {
        const auto& x = a.traces.requests[i];
        const auto& y = b.traces.requests[i];
        EXPECT_EQ(x.request_id, perm[y.request_id]);
        EXPECT_EQ(x.arrival, y.arrival);
        EXPECT_EQ(x.completion, y.completion);
    }
}

TEST(Replayer, RejectsNonFiniteOrNegativeArrival) {
    for (double t : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.0}) {
        auto rs = std::vector<SyntheticRequest>{basic_read(0.0), basic_read(t)};
        EXPECT_THROW(Replayer{}.replay(workload_of(rs)), std::invalid_argument);
    }
}

}  // namespace

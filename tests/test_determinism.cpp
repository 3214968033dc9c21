// Determinism regression tests for the parallel pipeline: every
// parallelized stage (Trainer, sharded Replayer, ClusterModel, SQS
// sampling) must produce bit-identical results at 1 vs N threads.
// Runs under TSan in the sanitizer tier (ctest -L tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/capture.hpp"
#include "core/generator.hpp"
#include "core/multiserver.hpp"
#include "core/replayer.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "gfs/cluster.hpp"
#include "par/pool.hpp"
#include "queueing/sqs.hpp"
#include "trace/binary.hpp"
#include "trace/io.hpp"
#include "workloads/profiles.hpp"

namespace {

using namespace kooza;
using namespace kooza::core;

/// Restores the global pool size on scope exit so tests don't leak a
/// thread-count override into each other.
struct ThreadGuard {
    ~ThreadGuard() { par::set_threads(0); }
};

trace::TraceSet capture_micro(std::uint64_t seed, std::size_t count = 300) {
    gfs::GfsConfig cfg;
    gfs::Cluster cluster(cfg);
    sim::Rng rng(seed);
    workloads::MicroProfile profile({.count = count, .arrival_rate = 25.0});
    profile.generate(rng).install(cluster);
    cluster.run();
    return cluster.traces();
}

TEST(CanonicalPhases, WriteDiffersFromRead) {
    const auto read = canonical_phases(trace::IoType::kRead);
    const auto write = canonical_phases(trace::IoType::kWrite);
    EXPECT_NE(read, write);  // the Fig. 1 write path is not the read path
    // Writes fan out to replicas between the primary disk write and the
    // ack; reads never touch the replication path.
    EXPECT_NE(std::find(write.begin(), write.end(), "repl.forward"), write.end());
    EXPECT_EQ(std::find(read.begin(), read.end(), "repl.forward"), read.end());
    // Both stay bracketed by the network round trip.
    ASSERT_FALSE(read.empty());
    ASSERT_FALSE(write.empty());
    EXPECT_EQ(read.front(), "net.rx");
    EXPECT_EQ(read.back(), "net.tx");
    EXPECT_EQ(write.front(), "net.rx");
    EXPECT_EQ(write.back(), "net.tx");
}

TEST(Determinism, TrainerByteIdenticalAcrossThreadCounts) {
    ThreadGuard guard;
    // Reads and writes, so both types' chains and structure queues are in
    // the flat fit plan, with several states per chain.
    const auto ts = capture_micro(11, 600);
    auto serialized = [&ts](std::size_t threads) {
        par::set_threads(threads);
        const auto model = Trainer({.workload_name = "det-test"}).train(ts);
        EXPECT_TRUE(model.has_reads());
        EXPECT_TRUE(model.has_writes());
        for (const TypeModel* t : {&model.reads(), &model.writes()}) {
            EXPECT_GT(t->storage.chain().n_states(), 1u);
            EXPECT_GT(t->memory.chain().n_states(), 1u);
            EXPECT_GT(t->cpu.chain().n_states(), 1u);
            EXPECT_GT(t->structure.training_traces(), 0u);
        }
        std::stringstream ss;
        save_model(model, ss);
        return ss.str();
    };
    const auto one = serialized(1);
    for (std::size_t threads : {2, 4, 7, 8})
        EXPECT_EQ(one, serialized(threads)) << threads << " threads";
}

TEST(Determinism, ShardedReplayIdenticalAcrossThreadCounts) {
    ThreadGuard guard;
    const auto ts = capture_micro(12);
    par::set_threads(1);
    const auto model = Trainer({.workload_name = "det-replay"}).train(ts);
    sim::Rng rng(5);
    auto workload = Generator(model).generate(400, rng);
    for (std::size_t i = 0; i < workload.requests.size(); ++i)
        workload.requests[i].server = std::uint32_t(i % 4);

    ReplayConfig rc;
    rc.n_servers = 4;
    rc.cpu_verify_fraction = model.cpu_verify_fraction();
    const Replayer replayer(rc);
    auto run = [&](std::size_t threads) {
        par::set_threads(threads);
        return replayer.replay_sharded(workload);
    };
    const auto a = run(1);
    const auto b = run(4);
    ASSERT_EQ(a.latencies.size(), b.latencies.size());
    for (std::size_t i = 0; i < a.latencies.size(); ++i)
        EXPECT_DOUBLE_EQ(a.latencies[i], b.latencies[i]) << "request " << i;
    EXPECT_EQ(a.network_drops, b.network_drops);
    EXPECT_EQ(a.network_timeouts, b.network_timeouts);
    EXPECT_EQ(a.unknown_phases, b.unknown_phases);
    EXPECT_DOUBLE_EQ(a.duration, b.duration);
    EXPECT_DOUBLE_EQ(a.mean_cpu_utilization, b.mean_cpu_utilization);
    EXPECT_DOUBLE_EQ(a.mean_disk_utilization, b.mean_disk_utilization);
    ASSERT_EQ(a.traces.requests.size(), b.traces.requests.size());
    for (std::size_t i = 0; i < a.traces.requests.size(); ++i) {
        EXPECT_EQ(a.traces.requests[i].request_id, b.traces.requests[i].request_id);
        EXPECT_DOUBLE_EQ(a.traces.requests[i].completion,
                         b.traces.requests[i].completion);
    }
}

TEST(Determinism, ClusterModelGenerateIdenticalAcrossThreadCounts) {
    ThreadGuard guard;
    const std::vector<trace::TraceSet> per_server{capture_micro(21, 150),
                                                  capture_micro(22, 150),
                                                  capture_micro(23, 150)};
    auto generate = [&](std::size_t threads) {
        par::set_threads(threads);
        const auto cluster = ClusterModel::train(per_server);
        sim::Rng rng(9);
        return cluster.generate(5.0, rng);
    };
    const auto a = generate(1);
    const auto b = generate(4);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    ASSERT_FALSE(a.requests.empty());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.requests[i].time, b.requests[i].time);
        EXPECT_EQ(a.requests[i].type, b.requests[i].type);
        EXPECT_EQ(a.requests[i].server, b.requests[i].server);
        EXPECT_EQ(a.requests[i].storage_bytes, b.requests[i].storage_bytes);
        EXPECT_EQ(a.requests[i].lbn, b.requests[i].lbn);
        EXPECT_EQ(a.requests[i].phases, b.requests[i].phases);
    }
}

TEST(Determinism, BinaryTraceFilesByteIdenticalAcrossThreadCounts) {
    // A fixed-seed capture written as kooza.trace/1 must produce
    // byte-identical .bin files at any thread count — the on-disk
    // extension of the existing trace/metrics determinism contract.
    namespace fs = std::filesystem;
    ThreadGuard guard;
    auto slurp = [](const fs::path& p) {
        std::ifstream f(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
    };
    auto capture_to = [&](std::size_t threads, const fs::path& dir) {
        par::set_threads(threads);
        fs::remove_all(dir);
        trace::write_binary(capture_micro(33), dir);
    };
    const auto dir_1 = fs::temp_directory_path() / "kooza_det_bin_t1";
    const auto dir_n = fs::temp_directory_path() / "kooza_det_bin_t8";
    capture_to(1, dir_1);
    capture_to(8, dir_n);
    for (const auto* stem : trace::kStreamStems) {
        const auto name = std::string(stem) + ".bin";
        const auto a = slurp(dir_1 / name);
        EXPECT_FALSE(a.empty()) << name;
        EXPECT_EQ(a, slurp(dir_n / name)) << name;
    }
    fs::remove_all(dir_1);
    fs::remove_all(dir_n);
}

TEST(Determinism, StreamedCaptureByteIdenticalToMaterialized) {
    // The tentpole contract of the streaming capture path: flushing
    // chunks while the simulation runs (CaptureOptions::stream) must lay
    // down the same seven .bin files as materializing the TraceSet and
    // writing it post-hoc — at 1 and at N threads, and with a chunk size
    // small enough to force many mid-run flushes.
    namespace fs = std::filesystem;
    ThreadGuard guard;
    auto slurp = [](const fs::path& p) {
        std::ifstream f(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
    };
    CaptureOptions opts;
    opts.profile = "micro";
    opts.count = 400;
    opts.rate = 50.0;
    opts.seed = 77;
    opts.n_servers = 5;
    opts.replication = 2;
    opts.fault_rate = 0.2;
    opts.mttr = 1.0;
    opts.format = trace::Format::kBinary;
    opts.chunk_records = 64;  // many flushes, not one big one

    const auto base = fs::temp_directory_path();
    const auto mat = base / "kooza_det_stream_mat";
    const auto st1 = base / "kooza_det_stream_t1";
    const auto st8 = base / "kooza_det_stream_t8";
    auto run_into = [&](const fs::path& dir, bool stream, std::size_t threads) {
        par::set_threads(threads);
        fs::remove_all(dir);
        auto o = opts;
        o.out_dir = dir.string();
        o.stream = stream;
        return core::run_capture(o);
    };
    const auto res_mat = run_into(mat, false, 1);
    const auto res_st1 = run_into(st1, true, 1);
    const auto res_st8 = run_into(st8, true, 8);
    EXPECT_GT(res_mat.records, 0u);
    EXPECT_EQ(res_mat.records, res_st1.records);
    EXPECT_EQ(res_mat.records, res_st8.records);
    for (const auto* stem : trace::kStreamStems) {
        const auto name = std::string(stem) + ".bin";
        const auto a = slurp(mat / name);
        EXPECT_FALSE(a.empty()) << name;
        EXPECT_EQ(a, slurp(st1 / name)) << name;
        EXPECT_EQ(a, slurp(st8 / name)) << name;
    }
    fs::remove_all(mat);
    fs::remove_all(st1);
    fs::remove_all(st8);
}

TEST(Determinism, ClosedLoopCaptureByteIdenticalAcrossThreadCounts) {
    // Closed-loop feedback (completion callbacks refill the client
    // windows) plus admission control plus faults — all of it runs on the
    // single-threaded engine, so the capture files must stay
    // byte-identical at 1 vs 8 threads in both capture modes, exactly
    // like the open-loop contract above.
    namespace fs = std::filesystem;
    ThreadGuard guard;
    auto slurp = [](const fs::path& p) {
        std::ifstream f(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
    };
    CaptureOptions opts;
    opts.closed_loop = true;
    opts.clients = 6;
    opts.outstanding = 3;
    opts.think_time = 0.002;
    opts.count = 400;
    opts.seed = 91;
    opts.n_servers = 3;
    opts.replication = 2;
    opts.fault_rate = 0.2;
    opts.mttr = 1.0;
    opts.admission = "queue";
    opts.format = trace::Format::kBinary;
    opts.chunk_records = 64;

    const auto base = fs::temp_directory_path();
    const auto mat = base / "kooza_det_closed_mat";
    const auto st1 = base / "kooza_det_closed_t1";
    const auto st8 = base / "kooza_det_closed_t8";
    auto run_into = [&](const fs::path& dir, bool stream, std::size_t threads) {
        par::set_threads(threads);
        fs::remove_all(dir);
        auto o = opts;
        o.out_dir = dir.string();
        o.stream = stream;
        return core::run_capture(o);
    };
    const auto res_mat = run_into(mat, false, 1);
    const auto res_st1 = run_into(st1, true, 1);
    const auto res_st8 = run_into(st8, true, 8);
    EXPECT_GT(res_mat.completed, 0u);
    EXPECT_GT(res_mat.records, 0u);
    EXPECT_EQ(res_mat.records, res_st1.records);
    EXPECT_EQ(res_mat.records, res_st8.records);
    EXPECT_EQ(res_st1.completed, res_st8.completed);
    EXPECT_EQ(res_st1.rejected, res_st8.rejected);
    EXPECT_EQ(res_st1.converged_tickets, res_st8.converged_tickets);
    for (const auto* stem : trace::kStreamStems) {
        const auto name = std::string(stem) + ".bin";
        const auto a = slurp(mat / name);
        EXPECT_FALSE(a.empty()) << name;
        EXPECT_EQ(a, slurp(st1 / name)) << name;
        EXPECT_EQ(a, slurp(st8 / name)) << name;
    }
    fs::remove_all(mat);
    fs::remove_all(st1);
    fs::remove_all(st8);
}

TEST(Determinism, ClosedLoopCsvIdenticalAcrossThreadCounts) {
    // CSV leg of the same contract: a materialized closed-loop capture
    // written as CSV must lay down identical text at any thread count.
    namespace fs = std::filesystem;
    ThreadGuard guard;
    auto slurp_dir = [](const fs::path& dir) {
        std::string all;
        std::vector<fs::path> files;
        for (const auto& e : fs::directory_iterator(dir)) files.push_back(e.path());
        std::sort(files.begin(), files.end());
        for (const auto& p : files) {
            std::ifstream f(p, std::ios::binary);
            all += p.filename().string();
            all += std::string(std::istreambuf_iterator<char>(f),
                               std::istreambuf_iterator<char>());
        }
        return all;
    };
    CaptureOptions opts;
    opts.scenario = "closedloop";
    opts.count = 300;
    opts.seed = 17;
    opts.n_servers = 2;
    opts.admission = "queue";
    opts.format = trace::Format::kCsv;
    auto run_into = [&](const fs::path& dir, std::size_t threads) {
        par::set_threads(threads);
        fs::remove_all(dir);
        auto o = opts;
        o.out_dir = dir.string();
        return core::run_capture(o);
    };
    const auto base = fs::temp_directory_path();
    const auto d1 = base / "kooza_det_closed_csv_t1";
    const auto d8 = base / "kooza_det_closed_csv_t8";
    const auto r1 = run_into(d1, 1);
    const auto r8 = run_into(d8, 8);
    EXPECT_GT(r1.completed, 0u);
    EXPECT_EQ(r1.completed, r8.completed);
    const auto a = slurp_dir(d1);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, slurp_dir(d8));
    fs::remove_all(d1);
    fs::remove_all(d8);
}

TEST(Determinism, SqsSamplingIdenticalAcrossThreadCounts) {
    ThreadGuard guard;
    std::vector<double> gaps, services;
    sim::Rng rng(3);
    stats::Exponential arrivals(50.0);
    stats::Exponential service(100.0);
    for (int i = 0; i < 500; ++i) {
        gaps.push_back(arrivals.sample(rng));
        services.push_back(service.sample(rng));
    }
    const auto model = queueing::SqsWorkloadModel::characterize(gaps, services);
    const queueing::SqsSimulator sim({.tasks_per_server = 500, .seed = 31});
    auto run = [&](std::size_t threads) {
        par::set_threads(threads);
        return sim.run(model, 256);
    };
    const auto a = run(1);
    const auto b = run(4);
    EXPECT_DOUBLE_EQ(a.mean_response, b.mean_response);
    EXPECT_DOUBLE_EQ(a.ci_halfwidth, b.ci_halfwidth);
    EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.servers_simulated, b.servers_simulated);
    EXPECT_EQ(a.tasks_simulated, b.tasks_simulated);
}

}  // namespace

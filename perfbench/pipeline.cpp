// kooza_perfbench — the KOOZA pipeline end to end (capture -> trace
// write/read -> feature extraction -> training -> generation -> replay ->
// validation) on one named workload, timed per stage, with every output
// checked. See perfbench/README.md for the workloads and the metric map.
//
// Usage:
//   kooza_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --workdir DIR [--smoke]
//
// The run first sets up several times (setup_s is their median), then
// repeats the pipeline at the given seed until S seconds have passed (at
// least once). With --trace 0 the last stdout line is the result JSON
// with the end-to-end metrics; with --trace 1 untraced and traced
// iterations alternate, spans are recorded around every call into the
// library, and the result JSON carries the per-layer metrics instead.
// Exit status is 0 only when every output check passed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/hmm.hpp"
#include "core/capture.hpp"
#include "core/generator.hpp"
#include "core/replayer.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "core/validator.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "trace/binary.hpp"
#include "trace/features.hpp"
#include "trace/io.hpp"

namespace {

namespace fs = std::filesystem;
using namespace kooza;
using Clock = std::chrono::steady_clock;

/// Paper §5: KOOZA's synthetic latency stays within 6.6% of the original.
constexpr double kKoozaLatencyBarPct = 6.6;
/// The structure-less HMM must visibly miss (the cross-examination's
/// headline contrast); it measures about 97%.
constexpr double kHmmLatencyFloorPct = 50.0;
/// Traced run: leaf stage spans must cover the pipeline to within 5%.
constexpr double kSpanCoverage = 0.05;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Floor on the warm-up pass's request count (the HMM needs a few
/// 256-request segments).
constexpr std::size_t kWarmupMinRequests = 1000;

// ---------------------------------------------------------------- workloads

enum class Family { kMaterialized, kStreamed };

struct Workload {
    const char* name;
    Family family;
    bool hmm;  ///< also train + replay + validate the HMM baseline
    core::CaptureOptions capture;
};

Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
    core::CaptureOptions o;
    o.seed = seed;
    if (name == "websearch-200k") {
        o.profile = "websearch";
        o.count = smoke ? 20'000 : 200'000;
        o.n_servers = smoke ? 4 : 16;
        return {"websearch-200k", Family::kMaterialized, false, o};
    }
    if (name == "flashcrowd-xexam") {
        o.scenario = "flashcrowd";
        o.count = smoke ? 6'000 : 60'000;
        o.n_servers = 1;
        return {"flashcrowd-xexam", Family::kMaterialized, true, o};
    }
    if (name == "datacenter-stream") {
        // bench_scale's capture shape: switch-friendly 8 KB I/O, 1/100
        // span sampling, no O(requests) latency vector. 100k requests keep
        // a pass near 2 s, so a run's median is taken over about ten passes
        // (at 500k a run holds two, and runs spread far wider).
        o.profile = "micro";
        o.count = smoke ? 20'000 : 100'000;
        o.rate = 1000.0;
        o.n_servers = smoke ? 100 : 1000;
        o.span_sample_every = 100;
        o.read_size = 8192;
        o.write_size = 8192;
        o.collect_latencies = false;
        o.stream = true;
        return {"datacenter-stream", Family::kStreamed, false, o};
    }
    throw std::invalid_argument("unknown workload '" + name +
                                "' (websearch-200k, flashcrowd-xexam, "
                                "datacenter-stream)");
}

// ------------------------------------------------------------------ helpers

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void add(const char* p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= std::uint8_t(p[i]);
            h *= 0x100000001b3ULL;
        }
    }
    void add(const std::string& s) { add(s.data(), s.size()); }
};

std::string hex(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

/// Digest of a capture directory: every regular file, in name order, as
/// (name, contents).
std::string digest_dir(const fs::path& dir) {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.is_regular_file()) files.push_back(e.path());
    std::sort(files.begin(), files.end());
    Fnv1a f;
    std::vector<char> buf(1 << 16);
    for (const auto& p : files) {
        f.add(p.filename().string());
        std::ifstream in(p, std::ios::binary);
        while (in) {
            in.read(buf.data(), std::streamsize(buf.size()));
            f.add(buf.data(), std::size_t(in.gcount()));
        }
    }
    return hex(f.h);
}

std::uint64_t dir_bytes(const fs::path& dir) {
    std::uint64_t n = 0;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.is_regular_file()) n += e.file_size();
    return n;
}

std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// Metric reads from an obs snapshot (0 when the metric never registered).
double counter(const obs::Snapshot& s, std::string_view name) {
    const auto* m = s.find(name);
    return m ? double(m->value) : 0.0;
}
double hist_sum_s(const obs::Snapshot& s, std::string_view name) {
    const auto* m = s.find(name);
    return m ? double(m->sum) / 1e9 : 0.0;
}
double gauge_max(const obs::Snapshot& s, std::string_view name) {
    const auto* m = s.find(name);
    return m ? m->gauge_max : 0.0;
}

/// Deterministic digest of a stage's registry snapshot: the canonical
/// JSON export of its non-wall metrics, restricted to those that moved
/// (the set of registered metrics grows during the first pass).
std::string digest_snapshot(const obs::Snapshot& s) {
    obs::Snapshot moved;
    for (const auto& m : s.metrics)
        if (!m.wall && (m.value != 0 || m.count != 0 || m.gauge_max != 0.0))
            moved.metrics.push_back(m);
    Fnv1a f;
    f.add(obs::to_json(moved, {.include_wall = false}));
    return hex(f.h);
}

// ------------------------------------------------------------------ tracing

/// In-memory span recorder. Spans carry name, start, end (ns since the
/// run started), parent and the iteration; they are written out once, at
/// the end of the run. With tracing off every call is a no-op.
class Tracer {
public:
    struct Span {
        std::string name;
        int id = 0;
        int parent = -1;
        int iteration = 0;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
    };

    explicit Tracer(Clock::time_point t0) : t0_(t0) {}

    bool on = false;
    int iteration = 0;

    int open(const std::string& name) {
        if (!on) return -1;
        const int id = int(spans_.size());
        spans_.push_back({name, id, stack_.empty() ? -1 : stack_.back(), iteration,
                          now_ns(), 0});
        stack_.push_back(id);
        return id;
    }
    void close(int id) {
        if (id < 0) return;
        spans_[std::size_t(id)].end_ns = now_ns();
        stack_.pop_back();
    }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    void write(const fs::path& file, const std::string& run_id) const {
        std::ofstream out(file);
        out << "{\"run_id\": \"" << run_id << "\", \"spans\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto& s = spans_[i];
            out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
                << ", \"iteration\": " << s.iteration << ", \"name\": \"" << s.name
                << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
                << "}" << (i + 1 < spans_.size() ? "," : "") << "\n";
        }
        out << "]}\n";
        if (!out) throw std::runtime_error("cannot write " + file.string());
    }

private:
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
            .count();
    }

    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---------------------------------------------------------------- iteration

/// Everything one pipeline pass produces.
struct Iteration {
    double capture_s = 0.0;
    double model_s = 0.0;
    std::map<std::string, double> stage_s;       ///< wall seconds per stage
    std::map<std::string, obs::Snapshot> snaps;  ///< registry per stage
    /// Values that must repeat exactly at a fixed seed: simulated-time
    /// counters, digests and the validation numbers.
    std::map<std::string, std::string> fingerprint;
    std::map<std::string, double> fidelity;
    std::uint64_t trace_bytes = 0;
    std::uint64_t trace_records = 0;
    double sim_goodput = 0.0;  ///< capture: completed requests per simulated second
    std::uint64_t attempted = 0;  ///< requests issued + output checks
    std::uint64_t failed = 0;     ///< failed requests + failed checks
    std::vector<std::string> check_failures;

    [[nodiscard]] double pipeline_s() const { return capture_s + model_s; }

    void check(bool ok, const std::string& what) {
        ++attempted;
        if (!ok) {
            ++failed;
            check_failures.push_back(what);
        }
    }
};

class Pipeline {
public:
    Pipeline(Workload w, fs::path workdir, Tracer& tracer)
        : w_(std::move(w)), dir_(std::move(workdir)), tracer_(tracer) {}

    /// Everything before the measured capture starts: a clean work
    /// directory, the sized thread pool, and one warm-up pass of every
    /// stage at 1/100 of the request count, so code, allocator and page
    /// cache are warm before timing. Returns the warm-up pass (its checks
    /// count like any other).
    Iteration setup() {
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        par::set_threads(std::min<std::size_t>(
            4, std::max(1u, std::thread::hardware_concurrency())));
        Workload small = w_;
        small.capture.count = std::max<std::size_t>(kWarmupMinRequests,
                                                    w_.capture.count / 100);
        Tracer off(Clock::now());
        Pipeline warm(small, dir_ / "warmup", off);
        warm.fidelity_bars_ = false;  // the paper's bars are claims at full size
        return warm.run(false);
    }

    Iteration run(bool traced) {
        tracer_.on = traced;
        Iteration it;
        const auto cap_dir = dir_ / "capture";
        fs::remove_all(cap_dir);
        const int root = tracer_.open("pipeline");

        auto t0 = Clock::now();
        const int cap_span = tracer_.open("capture");
        auto opts = w_.capture;
        if (w_.family == Family::kStreamed) opts.out_dir = cap_dir.string();
        core::CaptureResult cap;
        stage(it, "core.capture", [&] { cap = core::run_capture(opts); });
        std::array<std::size_t, 7> written{};
        if (w_.family == Family::kMaterialized) {
            written = stream_counts(cap.traces);
            stage(it, "trace.write", [&] {
                trace::write_traces(cap.traces, cap_dir, trace::Format::kBinary);
            });
            cap.traces = {};
        }
        tracer_.close(cap_span);
        it.capture_s = seconds_since(t0);

        t0 = Clock::now();
        const int model_span = tracer_.open("model");
        if (w_.family == Family::kMaterialized)
            model_materialized(it, cap_dir, written);
        else
            model_streamed(it, cap_dir, cap);
        tracer_.close(model_span);
        it.model_s = seconds_since(t0);
        tracer_.close(root);

        const std::uint64_t requested = w_.capture.count;
        it.attempted += requested;
        it.failed += cap.failed;
        it.check(cap.completed + cap.failed == requested,
                 "capture: completed + failed == requested");
        it.check(cap.failed == 0, "capture: no failed or rejected requests");
        it.trace_bytes = dir_bytes(cap_dir);
        it.trace_records = cap.records;
        it.sim_goodput = cap.goodput;
        fingerprint(it, cap_dir);
        return it;
    }

private:
    template <typename Fn>
    void stage(Iteration& it, const std::string& name, Fn&& fn) {
        obs::Registry::global().reset();
        const int span = tracer_.open(name);
        const auto t0 = Clock::now();
        fn();
        it.stage_s[name] += seconds_since(t0);
        tracer_.close(span);
        it.snaps[name] = obs::Registry::global().snapshot();
    }

    static std::array<std::size_t, 7> stream_counts(const trace::TraceSet& ts) {
        return {ts.storage.size(),  ts.cpu.size(),      ts.memory.size(),
                ts.network.size(),  ts.requests.size(), ts.failures.size(),
                ts.spans.size()};
    }

    /// save -> load -> save must reproduce the bytes; returns the digest.
    std::string round_trip(Iteration& it, const core::ServerModel& model) {
        std::string first, second;
        stage(it, "core.serialize", [&] {
            std::ostringstream a;
            core::save_model(model, a);
            first = a.str();
            std::istringstream in(first);
            const auto back = core::load_model(in);
            std::ostringstream b;
            core::save_model(back, b);
            second = b.str();
        });
        it.check(first == second, "model: save -> load -> save is byte-identical");
        Fnv1a f;
        f.add(first);
        return hex(f.h);
    }

    /// `generated` synthetic requests were replayed: each one is an
    /// operation, and one without a latency is a failed one.
    static void check_replay(Iteration& it, std::size_t generated,
                             const core::ReplayResult& rep, const std::string& who) {
        it.attempted += generated;
        it.failed += generated - std::min(generated, rep.latencies.size());
        it.check(rep.latencies.size() == generated,
                 who + ": replayed latencies == generated");
        it.check(rep.unknown_phases == 0, who + ": unknown_phases == 0");
    }

    core::ValidationReport validate(Iteration& it,
                                    const std::vector<trace::RequestFeatures>& orig,
                                    const core::ReplayResult& rep,
                                    const std::string& who) {
        core::ValidationReport report;
        stage(it, "core.validate", [&] {
            report = core::compare_features(orig, trace::extract_features(rep.traces),
                                            who + " synthetic vs original");
        });
        report.unknown_phases = rep.unknown_phases;
        bool finite = !report.rows.empty();
        for (const auto& r : report.rows)
            finite = finite && std::isfinite(r.original) &&
                     std::isfinite(r.synthetic) && std::isfinite(r.variation_pct);
        it.check(finite, who + ": every validation row is finite");
        return report;
    }

    static double p99_variation(const core::ValidationReport& r) {
        for (const auto& row : r.rows)
            if (row.subsystem == "Performance" && row.metric == "Latency p99")
                return row.variation_pct;
        return std::nan("");
    }

    void model_materialized(Iteration& it, const fs::path& cap_dir,
                            const std::array<std::size_t, 7>& written) {
        trace::TraceSet ts;
        stage(it, "trace.read", [&] { ts = trace::read_traces(cap_dir); });
        it.check(stream_counts(ts) == written,
                 "trace: read-back record counts per stream == written");
        std::vector<trace::RequestFeatures> orig;
        stage(it, "trace.extract", [&] { orig = trace::extract_features(ts); });

        const std::size_t n = w_.capture.count;
        core::TrainerConfig tc;
        tc.workload_name = w_.name;
        std::optional<core::ServerModel> model;
        stage(it, "core.train", [&] { model.emplace(core::Trainer(tc).train(ts)); });
        it.fingerprint["model.digest"] = round_trip(it, *model);

        core::SyntheticWorkload synth;
        stage(it, "core.generate", [&] {
            sim::Rng rng(w_.capture.seed);
            synth = core::Generator(*model).generate(n, rng);
        });
        it.check(synth.requests.size() == n, "kooza: generated == requested");

        core::ReplayConfig rc;
        rc.n_servers = w_.capture.n_servers;
        rc.cpu_verify_fraction = model->cpu_verify_fraction();
        core::ReplayResult rep;
        stage(it, "core.replay", [&] {
            rep = core::Replayer(rc).replay(synth, core::ReplayMode::kStructured);
        });
        synth = {};
        check_replay(it, n, rep, "kooza");
        const auto kooza = validate(it, orig, rep, "KOOZA");
        rep = {};
        it.fidelity["latency_err_pct"] = kooza.latency_variation();
        it.fidelity["p99_err_pct"] = p99_variation(kooza);
        it.fidelity["feature_err_pct"] = kooza.max_feature_variation();

        if (!w_.hmm) return;
        // Every fit runs the full max_iter Baum-Welch budget (tol 0), so
        // the work per pass does not depend on when a seed's fit converges
        // (the size HMM stops after 4 iterations on most seeds, 21 on some).
        baselines::HmmConfig hc;
        hc.tol = 0.0;
        std::optional<baselines::HmmModel> hmm;
        stage(it, "baselines.hmm.train",
              [&] { hmm.emplace(baselines::HmmModel::train(ts, hc)); });
        ts = {};
        it.fingerprint["hmm.baum_welch_iterations"] =
            std::to_string(hmm->interarrival_hmm().iterations_run()) + "+" +
            std::to_string(hmm->size_hmm().iterations_run());
        stage(it, "baselines.hmm.generate", [&] {
            sim::Rng rng(w_.capture.seed);
            synth = hmm->generate(n, rng);
        });
        it.check(synth.requests.size() == n, "hmm: generated == requested");
        core::ReplayConfig ic;
        ic.n_servers = w_.capture.n_servers;
        stage(it, "core.replay_independent", [&] {
            rep = core::Replayer(ic).replay(synth, core::ReplayMode::kIndependent);
        });
        check_replay(it, synth.requests.size(), rep, "hmm");
        const auto hmm_report = validate(it, orig, rep, "HMM");
        it.fidelity["hmm_latency_err_pct"] = hmm_report.latency_variation();
        if (!fidelity_bars_) return;
        it.check(kooza.latency_variation() < kKoozaLatencyBarPct,
                 "kooza: latency_err_pct < 6.6 (paper bound)");
        it.check(hmm_report.latency_variation() > kHmmLatencyFloorPct,
                 "hmm: hmm_latency_err_pct > 50");
    }

    void model_streamed(Iteration& it, const fs::path& cap_dir,
                        const core::CaptureResult& cap) {
        std::uint64_t rows = 0;
        stage(it, "trace.read", [&] { rows = trace::ChunkedReader(cap_dir).total_rows(); });
        it.check(rows == cap.records,
                 "trace: ChunkedReader::total_rows == CaptureResult::records");

        core::TrainerConfig tc;
        tc.workload_name = w_.name;
        std::optional<core::ServerModel> model;
        stage(it, "core.train_streaming",
              [&] { model.emplace(core::Trainer(tc).train_streaming(cap_dir)); });
        const std::size_t n = w_.capture.count;
        core::SyntheticWorkload synth;
        stage(it, "core.generate", [&] {
            sim::Rng rng(w_.capture.seed);
            synth = core::Generator(*model).generate(n, rng);
        });
        it.check(synth.requests.size() == n, "kooza: generated == requested");
        it.fingerprint["model.digest"] = round_trip(it, *model);
    }

    void fingerprint(Iteration& it, const fs::path& cap_dir) {
        auto& fp = it.fingerprint;
        fp["capture.digest"] = digest_dir(cap_dir);
        for (const auto& [name, snap] : it.snaps)
            fp["obs." + name + ".digest"] = digest_snapshot(snap);
        for (const auto& [k, v] : it.fidelity) fp[k] = fmt(v);
        fp["trace.bytes"] = std::to_string(it.trace_bytes);
        fp["trace.records"] = std::to_string(it.trace_records);
        fp["gfs.sim_goodput"] = fmt(it.sim_goodput);
    }

    Workload w_;
    fs::path dir_;
    Tracer& tracer_;
    bool fidelity_bars_ = true;
};

// ---------------------------------------------------------- per-layer view

double stage_s(const Iteration& it, const std::string& name) {
    const auto f = it.stage_s.find(name);
    return f == it.stage_s.end() ? 0.0 : f->second;
}

const obs::Snapshot& snap(const Iteration& it, const std::string& name) {
    static const obs::Snapshot empty;
    const auto f = it.snaps.find(name);
    return f == it.snaps.end() ? empty : f->second;
}

struct LayerValue {
    double value = 0.0;
    const char* unit = "count";
};

/// Per-layer metrics of one traced pass, named as in BENCHMARK.json.
std::map<std::string, LayerValue> layer_metrics(const Iteration& it) {
    std::map<std::string, LayerValue> m;
    auto put = [&m](const char* name, double value, const char* unit = "count") {
        m[name] = {value, unit};
    };
    auto per_s = [](double n, double s) { return s > 0 ? n / s : 0.0; };
    const auto& cap = snap(it, "core.capture");
    const auto& rep = snap(it, "core.replay");
    const double cap_s = stage_s(it, "core.capture");
    const double rep_s = stage_s(it, "core.replay");

    const double cap_events = counter(cap, "sim.engine.events_dispatched_total");
    const double rep_events = counter(rep, "sim.engine.events_dispatched_total");
    put("sim.capture_events", cap_events);
    put("sim.capture_events_per_s", per_s(cap_events, cap_s), "1/s");
    put("sim.capture_queue_peak", gauge_max(cap, "sim.engine.queue_depth_peak"));
    put("sim.replay_events", rep_events);
    put("sim.replay_events_per_s", per_s(rep_events, rep_s), "1/s");
    put("sim.replay_queue_peak", gauge_max(rep, "sim.engine.queue_depth_peak"));

    put("workloads.schedule_s", stage_s(it, "workloads.schedule"), "s");

    const double hits = counter(cap, "gfs.client.cache_hits_total");
    const double lookups = hits + counter(cap, "gfs.client.cache_misses_total");
    const auto* lat = cap.find("gfs.client.request_latency_ns");
    put("gfs.requests", counter(cap, "gfs.client.requests_total"));
    put("gfs.failed", counter(cap, "gfs.client.requests_failed_total"));
    put("gfs.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
    put("gfs.sim_p99_ms", lat ? obs::histogram_quantile(*lat, 0.99) / 1e6 : 0.0, "ms");
    put("gfs.sim_goodput", it.sim_goodput, "1/s");

    // Disk wait = time from issue to completion minus service time.
    const double cap_busy = hist_sum_s(cap, "hw.disk.service_ns");
    const double rep_busy = hist_sum_s(rep, "hw.disk.service_ns");
    put("hw.capture.disk_busy_s", cap_busy, "s");
    put("hw.capture.disk_wait_s", hist_sum_s(cap, "hw.disk.latency_ns") - cap_busy, "s");
    put("hw.replay.disk_busy_s", rep_busy, "s");
    put("hw.replay.disk_wait_s", hist_sum_s(rep, "hw.disk.latency_ns") - rep_busy, "s");
    put("hw.cpu_busy_s", hist_sum_s(cap, "hw.cpu.busy_ns"), "s");
    double drops = 0.0;
    for (const auto& [name, s] : it.snaps) drops += counter(s, "hw.net.drops_total");
    put("hw.net.drops", drops);

    const double mb = double(it.trace_bytes) / 1e6;
    const double write_s = stage_s(it, "trace.write");
    const double read_s = stage_s(it, "trace.read");
    put("trace.write_s", write_s, "s");
    put("trace.write_mb_per_s", per_s(mb, write_s), "MB/s");
    put("trace.bytes", double(it.trace_bytes), "B");
    put("trace.records", double(it.trace_records));
    put("trace.read_s", read_s, "s");
    put("trace.read_mb_per_s", per_s(mb, read_s), "MB/s");
    put("trace.extract_s", stage_s(it, "trace.extract"), "s");
    put("trace.stream_chunks", counter(cap, "trace.stream.chunks_flushed_total"));

    const double train_s = stage_s(it, "core.train") + stage_s(it, "core.train_streaming");
    const auto& train = it.snaps.count("core.train") ? snap(it, "core.train")
                                                     : snap(it, "core.train_streaming");
    const double busy = hist_sum_s(train, "core.trainer.submodel_wall_ns");
    put("core.train_s", stage_s(it, "core.train"), "s");
    put("core.train_streaming_s", stage_s(it, "core.train_streaming"), "s");
    put("core.train_submodel_busy_s", busy, "s");
    put("par.train_parallelism", per_s(busy, train_s), "ratio");
    put("core.generate_s", stage_s(it, "core.generate"), "s");
    put("core.replay_s", rep_s, "s");
    put("core.validate_s", stage_s(it, "core.validate"), "s");
    put("core.serialize_s", stage_s(it, "core.serialize"), "s");

    const auto& hmm = snap(it, "baselines.hmm.train");
    put("baselines.hmm.train_s", stage_s(it, "baselines.hmm.train"), "s");
    put("baselines.hmm.generate_s", stage_s(it, "baselines.hmm.generate"), "s");
    put("core.replay_independent_s", stage_s(it, "core.replay_independent"), "s");
    put("markov.echmm.fits", counter(hmm, "markov.echmm.fits_total"));
    put("markov.echmm.ll_decreased", counter(hmm, "markov.echmm.ll_decreased_total"));
    return m;
}

// ------------------------------------------------------------------- main

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool smoke = false;
    fs::path workdir;
};

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
        const std::string v = argv[++i];
        std::size_t used = 0;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--workdir") {
            a.workdir = v;
        } else if (flag == "--seed") {
            a.seed = std::stoull(v, &used);
            have_seed = used == v.size() && v[0] != '-';
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v, &used);
            have_seconds = used == v.size() && a.seconds >= 0.0;
        } else if (flag == "--trace") {
            a.trace = v == "1";
            have_trace = v == "0" || v == "1";
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (a.workload.empty() || a.workdir.empty() || !have_seed || !have_seconds ||
        !have_trace)
        throw std::invalid_argument(
            "usage: kooza_perfbench --workload NAME --seed N --seconds S "
            "--trace 0|1 --workdir DIR [--smoke]");
    return a;
}

std::string json_metric(const std::string& name, double value, const char* unit) {
    return "\"" + name + "\": {\"value\": " + fmt(value) + ", \"unit\": \"" + unit +
           "\"}";
}

int run(const Args& args) {
    const auto t_start = Clock::now();
    const auto w = make_workload(args.workload, args.seed, args.smoke);
    const std::string run_id = std::string(w.name) + "-s" + std::to_string(args.seed) +
                               "-p" + std::to_string(::getpid());
    Tracer tracer(t_start);
    const fs::path workdir = args.workdir / run_id;
    Pipeline pipe(w, workdir, tracer);

    std::vector<double> setups;
    std::vector<Iteration> warmups;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        warmups.push_back(pipe.setup());
        setups.push_back(seconds_since(t0));
    }
    std::cout << "run: " << run_id << " workload=" << w.name << " seed=" << args.seed
              << " threads=" << par::threads() << (args.smoke ? " (smoke)" : "")
              << "\n";

    // Traced runs alternate untraced and traced passes, so the tracing
    // overhead is measured under the same conditions.
    std::vector<Iteration> plain, traced;
    std::vector<double> schedule_s;
    do {
        plain.push_back(pipe.run(false));
        if (args.trace) {
            tracer.iteration = int(traced.size());
            tracer.on = true;
            const int span = tracer.open("workloads.schedule");
            const auto t0 = Clock::now();
            auto sched = core::make_capture_schedule(w.capture);
            std::size_t drained = 0;
            while (sched->next()) ++drained;
            schedule_s.push_back(seconds_since(t0));
            tracer.close(span);
            traced.push_back(pipe.run(true));
            traced.back().stage_s["workloads.schedule"] = schedule_s.back();
            traced.back().check(drained == w.capture.count,
                                "workloads: schedule yields the requested count");
        }
    } while (seconds_since(t_start) < args.seconds);
    tracer.on = false;
    fs::remove_all(workdir);

    // Traced passes: the leaf stage spans must tile the pass. A span's
    // self time is its duration minus the part its children cover.
    const auto& spans = tracer.spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const auto& s : spans)
        if (s.parent >= 0) child_ns[std::size_t(s.parent)] += s.end_ns - s.start_ns;
    std::vector<double> leaf_sum(traced.size(), 0.0);
    for (const auto& s : spans)
        if (child_ns[std::size_t(s.id)] == 0 && s.name != "workloads.schedule")
            leaf_sum[std::size_t(s.iteration)] += double(s.end_ns - s.start_ns) / 1e9;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const double p = traced[i].pipeline_s();
        traced[i].check(std::abs(leaf_sum[i] - p) <= kSpanCoverage * p,
                        "stage spans sum to within 5% of pipeline_s");
    }

    // Every pass's fingerprint repeats the first one of its size exactly.
    std::vector<Iteration*> measured;
    for (auto& it : plain) measured.push_back(&it);
    for (auto& it : traced) measured.push_back(&it);
    std::vector<Iteration*> warm;
    for (auto& it : warmups) warm.push_back(&it);
    const Iteration& first = *measured.front();
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    for (const auto& group : {warm, measured}) {
        for (auto* it : group) {
            it->check(it->fingerprint == group.front()->fingerprint,
                      "fingerprint repeats exactly at a fixed seed");
            attempted += it->attempted;
            failed += it->failed;
            for (const auto& f : it->check_failures)
                if (std::find(failures.begin(), failures.end(), f) == failures.end())
                    failures.push_back(f);
        }
    }

    auto med = [](const std::vector<Iteration>& v, auto get) {
        std::vector<double> xs;
        for (const auto& it : v) xs.push_back(get(it));
        return median(xs);
    };
    const double pipeline_s = med(plain, [](const Iteration& i) { return i.pipeline_s(); });

    std::cout << "\nfingerprint (information; must repeat exactly at a fixed seed):\n";
    for (const auto& [k, v] : first.fingerprint) std::cout << "  " << k << " = " << v << "\n";
    std::cout << "fidelity:\n";
    for (const auto& [k, v] : first.fidelity)
        std::cout << "  " << k << " = " << fmt(v) << " %\n";
    std::cout << "untraced passes: " << plain.size() << ", traced passes: " << traced.size()
              << "\nstage wall time, median over untraced passes:\n";
    std::map<std::string, std::vector<double>> by_stage;
    for (const auto& it : plain)
        for (const auto& [name, sec] : it.stage_s) by_stage[name].push_back(sec);
    for (const auto& [name, v] : by_stage)
        std::cout << "  " << name << " = " << fmt(median(v)) << " s\n";
    std::cout << "operations: attempted=" << attempted << " failed=" << failed
              << " failed_share=" << fmt(attempted ? double(failed) / double(attempted) : 0)
              << "\n";
    for (const auto& f : failures) std::cout << "CHECK FAILED: " << f << "\n";

    std::vector<std::string> metrics;
    if (!args.trace) {
        metrics.push_back(json_metric("setup_s", median(setups), "s"));
        metrics.push_back(json_metric(
            "capture_s", med(plain, [](const Iteration& i) { return i.capture_s; }), "s"));
        metrics.push_back(json_metric(
            "model_s", med(plain, [](const Iteration& i) { return i.model_s; }), "s"));
        metrics.push_back(json_metric("pipeline_s", pipeline_s, "s"));
        metrics.push_back(json_metric("peak_rss_mb", peak_rss_mb(), "MB"));
    } else {
        // Times are medians over the traced passes; counts repeat exactly.
        std::map<std::string, std::pair<std::vector<double>, const char*>> per;
        for (const auto& it : traced)
            for (const auto& [k, v] : layer_metrics(it)) {
                per[k].first.push_back(v.value);
                per[k].second = v.unit;
            }
        const double traced_pipeline =
            med(traced, [](const Iteration& i) { return i.pipeline_s(); });
        per["obs.trace_overhead_s"] = {{traced_pipeline - pipeline_s}, "s"};
        for (const auto& [k, v] : per)
            metrics.push_back(json_metric(k, median(v.first), v.second));

        std::map<std::string, std::vector<double>> self;
        for (const auto& s : spans) {
            auto& v = self[s.name];
            v.resize(traced.size(), 0.0);
            v[std::size_t(s.iteration)] +=
                double(s.end_ns - s.start_ns - child_ns[std::size_t(s.id)]) / 1e9;
        }
        std::cout << "\nstage self time (median of " << traced.size()
                  << " traced passes; share of traced pipeline_s "
                  << fmt(traced_pipeline) << " s):\n";
        for (const auto& [name, v] : self) {
            const double s = median(v);
            char line[160];
            std::snprintf(line, sizeof line, "  %-26s %10.4f s %6.1f %%\n", name.c_str(), s,
                          traced_pipeline > 0 ? 100.0 * s / traced_pipeline : 0.0);
            std::cout << line;
        }
        const fs::path span_file = args.workdir / (run_id + ".spans.json");
        tracer.write(span_file, run_id);
        std::cout << "spans: " << tracer.spans().size() << " written to "
                  << span_file.string() << "\n";
    }

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << metrics[i];
    std::cout << "}}" << std::endl;
    return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "kooza_perfbench: " << e.what() << "\n";
        return 2;
    }
}

// Edge-case tests for the tracing stack: span-tree pathologies, CSV
// robustness, and feature extraction on sparse/partial traces.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "trace/binary.hpp"
#include "trace/csv.hpp"
#include "trace/features.hpp"
#include "trace/span.hpp"
#include "trace/traceset.hpp"

namespace {

using namespace kooza::trace;

/// Strict read_csv requires the full stream set; lay down an empty
/// capture first so a test can overwrite just the stream it targets.
std::filesystem::path full_dir(const char* name) {
    const auto dir = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    write_csv(TraceSet{}, dir);
    return dir;
}

TEST(SpanEdges, MultipleRootsPerTraceTolerated) {
    // A trace with two root spans (e.g. client retried and re-rooted):
    // the tree picks the first root by start time and still renders.
    SpanTracer t(1);
    const auto r1 = t.start_span(5, 0, "request", 0.0);
    t.end_span(r1, 1.0);
    const auto r2 = t.start_span(5, 0, "request", 2.0);
    t.end_span(r2, 3.0);
    SpanTree tree(t.spans(), 5);
    EXPECT_EQ(tree.root().start, 0.0);
    EXPECT_FALSE(tree.render().empty());
}

TEST(SpanEdges, OrphanParentTreatedAsLeaf) {
    // A child whose parent was never recorded (partial trace) is still in
    // the tree's span list; render starts from the root that exists.
    SpanTracer t(1);
    const auto root = t.start_span(7, 0, "request", 0.0);
    const auto orphan = t.start_span(7, 9999, "lost.child", 0.1);
    t.end_span(orphan, 0.2);
    t.end_span(root, 1.0);
    SpanTree tree(t.spans(), 7);
    EXPECT_EQ(tree.spans().size(), 2u);
    EXPECT_EQ(tree.children_of(tree.root().span_id).size(), 0u);
}

TEST(SpanEdges, ZeroDurationSpans) {
    SpanTracer t(1);
    const auto s = t.start_span(1, 0, "instant", 5.0);
    t.end_span(s, 5.0);
    SpanTree tree(t.spans(), 1);
    EXPECT_DOUBLE_EQ(tree.total_duration(), 0.0);
    EXPECT_DOUBLE_EQ(tree.phase_durations()[0], 0.0);
}

TEST(SpanEdges, AnnotationsSurviveCollection) {
    SpanTracer t(1);
    const auto s = t.start_span(2, 0, "request", 0.0);
    t.annotate(s, 0.5, "midpoint");
    t.annotate(s, 0.9, "late");
    t.end_span(s, 1.0);
    ASSERT_EQ(t.annotations().size(), 2u);
    EXPECT_EQ(t.annotations()[1].span_id, s);
    EXPECT_EQ(t.annotations()[1].time, 0.9);
    EXPECT_EQ(t.annotations()[1].message, "late");
}

/// The map-based SpanTracer that the flat window replaced, kept verbatim
/// as the reference except for its sink and per-phase histogram hooks,
/// which the comparison below does not observe.
class MapTracer {
public:
    struct RefAnnotation {
        double time = 0.0;
        std::string message;
    };
    struct RefSpan {
        TraceId trace_id = 0;
        SpanId span_id = 0;
        SpanId parent_id = 0;
        std::string name;
        double start = 0.0;
        double end = 0.0;
        std::vector<RefAnnotation> annotations;
    };

    explicit MapTracer(std::uint64_t sample_every) : every_(sample_every) {}

    bool sampled(TraceId trace) const noexcept { return trace % every_ == 0; }

    SpanId start_span(TraceId trace, SpanId parent, std::string name, double now) {
        ++ops_req_;
        if (!sampled(trace)) return 0;
        ++ops_rec_;
        const SpanId id = next_id_++;
        RefSpan s;
        s.trace_id = trace;
        s.span_id = id;
        s.parent_id = parent;
        s.name = std::move(name);
        s.start = now;
        s.end = now;
        open_.emplace(id, std::move(s));
        return id;
    }

    void annotate(SpanId span, double now, std::string message) {
        ++ops_req_;
        if (span == 0) return;
        auto it = open_.find(span);
        if (it == open_.end()) throw std::logic_error("SpanTracer::annotate: unknown span");
        ++ops_rec_;
        it->second.annotations.push_back(RefAnnotation{now, std::move(message)});
    }

    void end_span(SpanId span, double now) {
        ++ops_req_;
        if (span == 0) return;
        auto it = open_.find(span);
        if (it == open_.end()) throw std::logic_error("SpanTracer::end_span: unknown span");
        ++ops_rec_;
        it->second.end = now;
        done_.push_back(std::move(it->second));
        open_.erase(it);
    }

    const std::vector<RefSpan>& spans() const noexcept { return done_; }
    std::uint64_t operations_requested() const noexcept { return ops_req_; }
    std::uint64_t operations_recorded() const noexcept { return ops_rec_; }

private:
    std::uint64_t every_;
    SpanId next_id_ = 1;
    std::map<SpanId, RefSpan> open_;
    std::vector<RefSpan> done_;
    std::uint64_t ops_req_ = 0;
    std::uint64_t ops_rec_ = 0;
};

/// Drive both tracers with one seeded random operation sequence: a
/// long-lived root per run with many children, spans closed in random
/// order, unsampled (0) handles, and double / unknown handles below the
/// live window and at or above the next id. Every call must agree: the
/// same handle, the same throw, the same spans and annotations.
void run_against_reference(std::uint64_t seed, std::uint64_t sample_every,
                           std::size_t steps) {
    std::mt19937_64 rng(seed);
    const char* const names[] = {"request", "net.rx", "cpu.verify", "disk.io",
                                 "mem.buffer", "net.tx"};
    SpanTracer flat(sample_every);
    MapTracer ref(sample_every);
    std::vector<SpanId> open;    // sampled handles still open
    std::vector<SpanId> closed;  // sampled handles already closed
    SpanId next = 1;             // the id the next sampled span gets
    double now = 0.0;
    auto pick = [&](std::vector<SpanId>& v) {
        const auto i = std::size_t(rng() % v.size());
        const SpanId id = v[i];
        v[i] = v.back();
        v.pop_back();
        return id;
    };
    auto start = [&](TraceId trace, SpanId parent) {
        const char* name = names[rng() % std::size(names)];
        const SpanId a = flat.start_span(trace, parent, name, now);
        const SpanId b = ref.start_span(trace, parent, name, now);
        EXPECT_EQ(a, b);
        if (a != 0) {
            EXPECT_EQ(a, next);
            ++next;
            open.push_back(a);
        }
        return a;
    };
    auto expect_unknown = [&](SpanId id) {
        EXPECT_THROW(flat.end_span(id, now), std::logic_error) << id;
        EXPECT_THROW(ref.end_span(id, now), std::logic_error) << id;
        EXPECT_THROW(flat.annotate(id, now, "x"), std::logic_error) << id;
        EXPECT_THROW(ref.annotate(id, now, "x"), std::logic_error) << id;
    };

    // The long-lived root: sampled, open for the whole run.
    const SpanId root = start(0, 0);
    ASSERT_NE(root, 0u);
    open.pop_back();
    for (std::size_t step = 0; step < steps; ++step) {
        now += double(rng() % 1000) * 1e-6;
        const auto op = rng() % 10;
        if (op < 4) {
            // A child of the root or of a random open span, on a trace
            // that may be sampled out.
            const TraceId trace = rng() % 64;
            const SpanId parent =
                open.empty() || rng() % 2 == 0 ? root : open[rng() % open.size()];
            start(trace, parent);
        } else if (op < 7 && !open.empty()) {
            const SpanId id = pick(open);
            flat.end_span(id, now);
            ref.end_span(id, now);
            closed.push_back(id);
        } else if (op == 7 && !open.empty()) {
            const SpanId id = open[rng() % open.size()];
            const std::string msg = "note" + std::to_string(step);
            flat.annotate(id, now, msg);
            ref.annotate(id, now, msg);
        } else if (op == 8) {
            // Unsampled handle: a no-op that still counts as requested.
            flat.end_span(0, now);
            ref.end_span(0, now);
            flat.annotate(0, now, "dropped");
            ref.annotate(0, now, "dropped");
        } else if (!closed.empty()) {
            // Double end_span of a closed span (below or inside the window).
            expect_unknown(closed[rng() % closed.size()]);
        }
    }
    expect_unknown(next);         // the next id, not yet handed out
    expect_unknown(next + 1000);  // far above it
    while (!open.empty()) {
        const SpanId id = pick(open);
        flat.end_span(id, now);
        ref.end_span(id, now);
    }
    flat.end_span(root, now);
    ref.end_span(root, now);
    expect_unknown(root);  // id 1: below the window, which is now empty
    expect_unknown(next - 1);

    EXPECT_EQ(flat.operations_requested(), ref.operations_requested());
    EXPECT_EQ(flat.operations_recorded(), ref.operations_recorded());
    ASSERT_EQ(flat.spans().size(), ref.spans().size());
    std::size_t notes = 0;
    for (std::size_t i = 0; i < ref.spans().size(); ++i) {
        const Span& a = flat.spans()[i];
        const auto& b = ref.spans()[i];
        EXPECT_EQ(a.trace_id, b.trace_id) << i;
        EXPECT_EQ(a.span_id, b.span_id) << i;
        EXPECT_EQ(a.parent_id, b.parent_id) << i;
        EXPECT_EQ(a.name, b.name) << i;
        EXPECT_EQ(a.start, b.start) << i;
        EXPECT_EQ(a.end, b.end) << i;
        // The span's annotations, in call order, among the tracer's.
        std::size_t k = 0;
        for (const auto& n : flat.annotations()) {
            if (n.span_id != a.span_id) continue;
            ASSERT_LT(k, b.annotations.size()) << i;
            EXPECT_EQ(n.time, b.annotations[k].time) << i;
            EXPECT_EQ(n.message, b.annotations[k].message) << i;
            ++k;
        }
        EXPECT_EQ(k, b.annotations.size()) << i;
        notes += k;
    }
    EXPECT_EQ(notes, flat.annotations().size());
}

TEST(SpanTracer, FlatWindowMatchesMapReference) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        for (const std::uint64_t every : {1u, 3u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " sample_every " +
                         std::to_string(every));
            run_against_reference(seed, every, 3000);
        }
}

TEST(CsvEdges, EmptyTraceSetRoundTrips) {
    const auto dir = std::filesystem::temp_directory_path() / "kooza_csv_empty";
    std::filesystem::remove_all(dir);
    TraceSet empty;
    write_csv(empty, dir);
    const auto back = read_csv(dir);
    EXPECT_TRUE(back.empty());
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, BlankLinesSkipped) {
    const auto dir = full_dir("kooza_csv_blank");
    {
        std::ofstream f(dir / "requests.csv");
        f << "request_id,type,arrival,completion,bytes\n\n\n";
        f << "1,read,0.5,1.5,4096\n\n";
    }
    const auto ts = read_csv(dir);
    ASSERT_EQ(ts.requests.size(), 1u);
    EXPECT_EQ(ts.requests[0].bytes, 4096u);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, LeadingBlankLineKeepsHeader) {
    // A blank first line used to demote the real header (matched by
    // line number, not content) to a data row, so the first record was
    // parsed from the header text and threw.
    const auto dir = full_dir("kooza_csv_lead");
    {
        std::ofstream f(dir / "requests.csv");
        f << "\n\nrequest_id,type,arrival,completion,bytes\n";
        f << "3,write,0.25,0.75,8192\n";
        f << "4,read,1.0,1.25,512\n";
    }
    const auto ts = read_csv(dir);
    ASSERT_EQ(ts.requests.size(), 2u);
    EXPECT_EQ(ts.requests[0].request_id, 3u);
    EXPECT_EQ(ts.requests[0].type, IoType::kWrite);
    EXPECT_EQ(ts.requests[1].bytes, 512u);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, CrlfLineEndingsRoundTrip) {
    // Traces exported on Windows (or via git with autocrlf) carry \r\n;
    // the stray '\r' used to ride on the last field and break exact-match
    // parsing of enum columns like the I/O type.
    const auto dir = full_dir("kooza_csv_crlf");
    {
        std::ofstream f(dir / "requests.csv", std::ios::binary);
        f << "request_id,type,arrival,completion,bytes\r\n";
        f << "7,read,0.5,1.5,4096\r\n";
        f << "8,write,2.0,2.5,1024\r\n";
    }
    {
        std::ofstream f(dir / "storage.csv", std::ios::binary);
        f << "time,request_id,lbn,size_bytes,type,latency\r\n";
        f << "0.6,7,128,4096,read,0.01\r\n";
    }
    const auto ts = read_csv(dir);
    ASSERT_EQ(ts.requests.size(), 2u);
    EXPECT_EQ(ts.requests[0].type, IoType::kRead);
    EXPECT_EQ(ts.requests[0].bytes, 4096u);  // last field, where '\r' rode
    EXPECT_EQ(ts.requests[1].type, IoType::kWrite);
    ASSERT_EQ(ts.storage.size(), 1u);
    EXPECT_DOUBLE_EQ(ts.storage[0].latency, 0.01);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, SplitCsvLineStripsTrailingCr) {
    const auto f = split_csv_line("1,read,0.5\r");
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f.back(), "0.5");
    // A lone '\r' field (blank last column on a CRLF file) becomes empty.
    const auto g = split_csv_line("a,b,");
    ASSERT_EQ(g.size(), 3u);
    EXPECT_TRUE(g.back().empty());
}

TEST(CsvEdges, WrongFieldCountThrows) {
    const auto dir = full_dir("kooza_csv_fields");
    {
        std::ofstream f(dir / "storage.csv");
        f << "time,request_id,lbn,size_bytes,type,latency\n";
        f << "1.0,1,2,3\n";  // 4 fields, need 6
    }
    EXPECT_THROW(read_csv(dir), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, BadIoTypeThrows) {
    const auto dir = full_dir("kooza_csv_type");
    {
        std::ofstream f(dir / "memory.csv");
        f << "time,request_id,bank,size_bytes,type\n";
        f << "1.0,1,0,4096,sideways\n";
    }
    EXPECT_THROW(read_csv(dir), std::invalid_argument);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, TrailingJunkOnNumberThrows) {
    // stod parses a valid prefix, so "0.5sec" used to load silently as
    // 0.5 — corrupt data round-tripped as clean.
    const auto dir = full_dir("kooza_csv_junknum");
    {
        std::ofstream f(dir / "requests.csv");
        f << "request_id,type,arrival,completion,bytes\n";
        f << "1,read,0.5sec,1.5,4096\n";
    }
    EXPECT_THROW(read_csv(dir), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, NegativeIdThrows) {
    // stoull accepts a leading '-' and wraps: "-1" used to load as
    // 18446744073709551615 instead of being rejected.
    const auto dir = full_dir("kooza_csv_negid");
    {
        std::ofstream f(dir / "requests.csv");
        f << "request_id,type,arrival,completion,bytes\n";
        f << "-1,read,0.5,1.5,4096\n";
    }
    EXPECT_THROW(read_csv(dir), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, JunkIdThrows) {
    const auto dir = full_dir("kooza_csv_junkid");
    {
        std::ofstream f(dir / "requests.csv");
        f << "request_id,type,arrival,completion,bytes\n";
        f << "1,read,0.5,1.5,4096 B\n";
    }
    EXPECT_THROW(read_csv(dir), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, EmptyNumericFieldThrows) {
    const auto dir = full_dir("kooza_csv_emptyfield");
    {
        std::ofstream f(dir / "requests.csv");
        f << "request_id,type,arrival,completion,bytes\n";
        f << "1,read,0.5,1.5,\n";
    }
    EXPECT_THROW(read_csv(dir), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(FeatureEdges, RequestWithoutSubsystemRecords) {
    // A completed request with no device records (e.g. served entirely
    // from a cache we don't model) still extracts, with zeroed features.
    TraceSet ts;
    ts.requests.push_back({9, IoType::kRead, 1.0, 1.5, 100});
    const auto fs = extract_features(ts);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].network_bytes, 0u);
    EXPECT_EQ(fs[0].storage_bytes, 0u);
    EXPECT_DOUBLE_EQ(fs[0].cpu_utilization, 0.0);
    EXPECT_DOUBLE_EQ(fs[0].latency, 0.5);
}

TEST(FeatureEdges, OrphanDeviceRecordsIgnored) {
    // Device records whose request never completed don't produce feature
    // rows (the paper's models train on completed requests only).
    TraceSet ts;
    ts.storage.push_back({0.1, 77, 0, 4096, IoType::kRead, 0.01});
    ts.cpu.push_back({0.1, 77, 0.001, 1.0});
    const auto fs = extract_features(ts);
    EXPECT_TRUE(fs.empty());
}

TEST(CsvEdges, MissingStreamFileFailsLoudly) {
    // Deleting one stream file (say storage.csv) used to read back as an
    // empty stream — a partial capture masquerading as a quiet workload.
    const auto dir = full_dir("kooza_csv_missing");
    std::filesystem::remove(dir / "storage.csv");
    const auto& missing =
        kooza::obs::counter("trace.csv.missing_files_total");
    const auto before = missing.value();
    EXPECT_THROW(
        {
            try {
                (void)read_csv(dir);
            } catch (const std::runtime_error& e) {
                EXPECT_NE(std::string(e.what()).find("storage.csv"),
                          std::string::npos);
                throw;
            }
        },
        std::runtime_error);
    EXPECT_EQ(missing.value(), before + 1);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, UnknownDirectionThrows) {
    // Anything but "rx"/"tx" used to silently parse as kTx.
    const auto dir = full_dir("kooza_csv_direction");
    {
        std::ofstream f(dir / "network.csv");
        f << "time,request_id,size_bytes,direction,latency\n";
        f << "1.0,1,4096,sideways,0.01\n";
    }
    EXPECT_THROW((void)read_csv(dir), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(Records, DirectionFromStringStrict) {
    EXPECT_EQ(direction_from_string("rx"), NetworkRecord::Direction::kRx);
    EXPECT_EQ(direction_from_string("tx"), NetworkRecord::Direction::kTx);
    EXPECT_THROW((void)direction_from_string("sideways"), std::invalid_argument);
    EXPECT_THROW((void)direction_from_string(""), std::invalid_argument);
    EXPECT_THROW((void)direction_from_string("TX"), std::invalid_argument);
}

TEST(CsvEdges, SpanNameWithCommaRejectedOnWrite) {
    // spans.csv has no quoting: a ',' (or stray CR) in a span name used
    // to shift every following field on read-back. The writer now
    // rejects such names; the binary string table is immune.
    const auto base = std::filesystem::temp_directory_path();
    for (const auto* name : {"disk,io", "net\rrx", "cpu\nverify"}) {
        TraceSet ts;
        Span s;
        s.trace_id = 1;
        s.span_id = 2;
        s.parent_id = 0;
        s.name = name;
        s.start = 0.5;
        s.end = 1.5;
        ts.spans.push_back(s);
        const auto csv_dir = base / "kooza_csv_spanname";
        std::filesystem::remove_all(csv_dir);
        EXPECT_THROW(write_csv(ts, csv_dir), std::runtime_error) << name;
        // Same names round-trip exactly through kooza.trace/1.
        const auto bin_dir = base / "kooza_bin_spanname";
        std::filesystem::remove_all(bin_dir);
        write_binary(ts, bin_dir);
        const auto back = read_binary(bin_dir);
        ASSERT_EQ(back.spans.size(), 1u) << name;
        EXPECT_EQ(back.spans[0].name, name);
        std::filesystem::remove_all(csv_dir);
        std::filesystem::remove_all(bin_dir);
    }
}

TEST(FeatureEdges, TiedMemoryTrafficPrefersRead) {
    TraceSet ts;
    ts.requests.push_back({1, IoType::kRead, 0.0, 1.0, 100});
    ts.memory.push_back({0.1, 1, 0, 512, IoType::kRead});
    ts.memory.push_back({0.2, 1, 1, 512, IoType::kWrite});
    const auto fs = extract_features(ts);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].memory_type, IoType::kRead);  // tie -> read
    EXPECT_EQ(fs[0].memory_bytes, 1024u);
}

}  // namespace

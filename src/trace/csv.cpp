#include "trace/csv.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace kooza::trace {

namespace {

namespace fs = std::filesystem;

struct CsvMetrics {
    obs::Counter& rows = obs::counter("trace.csv.rows_total");
    obs::Counter& bad_rows = obs::counter("trace.csv.bad_rows_total");
    obs::Counter& missing_files = obs::counter("trace.csv.missing_files_total");
};

CsvMetrics& metrics() {
    static CsvMetrics m;
    return m;
}

std::ofstream open_out(const fs::path& p) {
    std::ofstream f(p);
    if (!f) throw std::runtime_error("write_csv: cannot open " + p.string());
    f.precision(17);
    return f;
}

[[noreturn]] void bad_row(const fs::path& p, std::size_t line, const char* why) {
    metrics().bad_rows.add();
    std::ostringstream os;
    os << "read_csv: " << p.string() << ":" << line << ": " << why;
    throw std::runtime_error(os.str());
}

struct Reader {
    fs::path path;
    std::ifstream file;
    std::size_t line_no = 0;
    bool header_skipped = false;

    explicit Reader(const fs::path& p) : path(p), file(p) {
        // A capture always writes the full stream set, so an absent file
        // is a partial/deleted capture — failing quietly here used to
        // make it masquerade as a workload with an empty stream.
        if (!file) {
            metrics().missing_files.add();
            throw std::runtime_error("read_csv: missing stream file " +
                                     p.string() + " (partial capture?)");
        }
    }

    /// Next data row split into fields; empty optional-equivalent when EOF.
    bool next(std::vector<std::string>& fields) {
        std::string line;
        while (std::getline(file, line)) {
            ++line_no;
            // CRLF files: getline leaves the '\r' on the line.
            if (!line.empty() && line.back() == '\r') line.pop_back();
            if (line.empty()) continue;
            // The header is the first *non-empty* line, wherever it sits —
            // keying on line_no == 1 made a leading blank line demote the
            // real header to a data row.
            if (!header_skipped) {
                header_skipped = true;
                continue;
            }
            fields = split_csv_line(line);
            metrics().rows.add();
            return true;
        }
        return false;
    }

    double num(const std::string& s, const char* what) {
        std::size_t pos = 0;
        double v = 0.0;
        try {
            v = std::stod(s, &pos);
        } catch (const std::exception&) {
            bad_row(path, line_no, what);
        }
        // stod happily parses a valid prefix ("1.5GB" -> 1.5, "1,000"
        // split upstream into "1"), silently truncating corrupt data.
        // Require the whole field to be consumed.
        if (pos != s.size()) bad_row(path, line_no, what);
        return v;
    }
    std::uint64_t id(const std::string& s, const char* what) {
        // IDs and sizes are unsigned decimal fields. stoull alone accepted
        // leading whitespace, trailing junk, and even "-1" (wrapping to
        // 2^64-1), so corrupt rows round-tripped as huge valid-looking ids.
        if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
            bad_row(path, line_no, what);
        try {
            return std::stoull(s);
        } catch (const std::exception&) {
            bad_row(path, line_no, what);  // out of range for uint64
        }
    }
};

void expect_fields(Reader& r, const std::vector<std::string>& f, std::size_t n) {
    if (f.size() != n) bad_row(r.path, r.line_no, "wrong field count");
}

}  // namespace

std::vector<std::string> split_csv_line(const std::string& line) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const auto pos = line.find(',', start);
        if (pos == std::string::npos) {
            out.push_back(line.substr(start));
            break;
        }
        out.push_back(line.substr(start, pos - start));
        start = pos + 1;
    }
    // CRLF input: the '\r' rides on the last field and breaks exact-match
    // parsing (e.g. "read\r" fails iotype_from_string).
    if (!out.empty() && !out.back().empty() && out.back().back() == '\r')
        out.back().pop_back();
    return out;
}

void write_csv(const TraceSet& ts, const fs::path& dir) {
    fs::create_directories(dir);
    {
        auto f = open_out(dir / "storage.csv");
        f << "time,request_id,lbn,size_bytes,type,latency\n";
        for (const auto& r : ts.storage)
            f << r.time << ',' << r.request_id << ',' << r.lbn << ',' << r.size_bytes
              << ',' << to_string(r.type) << ',' << r.latency << '\n';
    }
    {
        auto f = open_out(dir / "cpu.csv");
        f << "time,request_id,busy_seconds,utilization\n";
        for (const auto& r : ts.cpu)
            f << r.time << ',' << r.request_id << ',' << r.busy_seconds << ','
              << r.utilization << '\n';
    }
    {
        auto f = open_out(dir / "memory.csv");
        f << "time,request_id,bank,size_bytes,type\n";
        for (const auto& r : ts.memory)
            f << r.time << ',' << r.request_id << ',' << r.bank << ',' << r.size_bytes
              << ',' << to_string(r.type) << '\n';
    }
    {
        auto f = open_out(dir / "network.csv");
        f << "time,request_id,size_bytes,direction,latency\n";
        for (const auto& r : ts.network)
            f << r.time << ',' << r.request_id << ',' << r.size_bytes << ','
              << to_string(r.direction) << ',' << r.latency << '\n';
    }
    {
        auto f = open_out(dir / "requests.csv");
        f << "request_id,type,arrival,completion,bytes\n";
        for (const auto& r : ts.requests)
            f << r.request_id << ',' << to_string(r.type) << ',' << r.arrival << ','
              << r.completion << ',' << r.bytes << '\n';
    }
    {
        auto f = open_out(dir / "failures.csv");
        f << "time,request_id,server,kind,duration\n";
        for (const auto& r : ts.failures)
            f << r.time << ',' << r.request_id << ',' << r.server << ','
              << to_string(r.kind) << ',' << r.duration << '\n';
    }
    {
        auto f = open_out(dir / "spans.csv");
        f << "trace_id,span_id,parent_id,name,start,end\n";
        for (const auto& s : ts.spans) {
            // The format has no quoting, so a ',' / CR / LF in a span name
            // would silently shift every following field on read-back.
            // Reject at the source; kooza.trace/1 (binary.hpp) stores
            // names in a string table and takes arbitrary bytes.
            if (s.name.str().find_first_of(",\r\n") != std::string::npos)
                throw std::runtime_error(
                    "write_csv: span name contains ',' or a line break "
                    "(unrepresentable in spans.csv, use --format=bin): '" +
                    s.name.str() + "'");
            f << s.trace_id << ',' << s.span_id << ',' << s.parent_id << ','
              << s.name << ',' << s.start << ',' << s.end << '\n';
        }
    }
}

TraceSet read_csv(const fs::path& dir) {
    TraceSet ts;
    {
        Reader r(dir / "storage.csv");
        std::vector<std::string> f;
        while (r.next(f)) {
            expect_fields(r, f, 6);
            StorageRecord rec;
            rec.time = r.num(f[0], "time");
            rec.request_id = r.id(f[1], "request_id");
            rec.lbn = r.id(f[2], "lbn");
            rec.size_bytes = r.id(f[3], "size_bytes");
            rec.type = iotype_from_string(f[4]);
            rec.latency = r.num(f[5], "latency");
            ts.storage.push_back(rec);
        }
    }
    {
        Reader r(dir / "cpu.csv");
        std::vector<std::string> f;
        while (r.next(f)) {
            expect_fields(r, f, 4);
            CpuRecord rec;
            rec.time = r.num(f[0], "time");
            rec.request_id = r.id(f[1], "request_id");
            rec.busy_seconds = r.num(f[2], "busy_seconds");
            rec.utilization = r.num(f[3], "utilization");
            ts.cpu.push_back(rec);
        }
    }
    {
        Reader r(dir / "memory.csv");
        std::vector<std::string> f;
        while (r.next(f)) {
            expect_fields(r, f, 5);
            MemoryRecord rec;
            rec.time = r.num(f[0], "time");
            rec.request_id = r.id(f[1], "request_id");
            rec.bank = std::uint32_t(r.id(f[2], "bank"));
            rec.size_bytes = r.id(f[3], "size_bytes");
            rec.type = iotype_from_string(f[4]);
            ts.memory.push_back(rec);
        }
    }
    {
        Reader r(dir / "network.csv");
        std::vector<std::string> f;
        while (r.next(f)) {
            expect_fields(r, f, 5);
            NetworkRecord rec;
            rec.time = r.num(f[0], "time");
            rec.request_id = r.id(f[1], "request_id");
            rec.size_bytes = r.id(f[2], "size_bytes");
            // Strict enum parse: anything but "rx"/"tx" used to silently
            // map to kTx, so corrupt rows skewed the traffic direction mix.
            try {
                rec.direction = direction_from_string(f[3]);
            } catch (const std::invalid_argument&) {
                bad_row(r.path, r.line_no, "direction");
            }
            rec.latency = r.num(f[4], "latency");
            ts.network.push_back(rec);
        }
    }
    {
        Reader r(dir / "requests.csv");
        std::vector<std::string> f;
        while (r.next(f)) {
            expect_fields(r, f, 5);
            RequestRecord rec;
            rec.request_id = r.id(f[0], "request_id");
            rec.type = iotype_from_string(f[1]);
            rec.arrival = r.num(f[2], "arrival");
            rec.completion = r.num(f[3], "completion");
            rec.bytes = r.id(f[4], "bytes");
            ts.requests.push_back(rec);
        }
    }
    {
        Reader r(dir / "failures.csv");
        std::vector<std::string> f;
        while (r.next(f)) {
            expect_fields(r, f, 5);
            FailureRecord rec;
            rec.time = r.num(f[0], "time");
            rec.request_id = r.id(f[1], "request_id");
            rec.server = std::uint32_t(r.id(f[2], "server"));
            rec.kind = failure_kind_from_string(f[3]);
            rec.duration = r.num(f[4], "duration");
            ts.failures.push_back(rec);
        }
    }
    {
        Reader r(dir / "spans.csv");
        std::vector<std::string> f;
        // Each distinct name is interned once; later rows copy its id.
        std::unordered_map<std::string, PhaseName> names;
        while (r.next(f)) {
            expect_fields(r, f, 6);
            Span s;
            s.trace_id = r.id(f[0], "trace_id");
            s.span_id = r.id(f[1], "span_id");
            s.parent_id = r.id(f[2], "parent_id");
            auto it = names.find(f[3]);
            if (it == names.end()) it = names.emplace(f[3], PhaseName(f[3])).first;
            s.name = it->second;
            s.start = r.num(f[4], "start");
            s.end = r.num(f[5], "end");
            ts.spans.push_back(s);
        }
    }
    return ts;
}

}  // namespace kooza::trace

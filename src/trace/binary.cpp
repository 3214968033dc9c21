#include "trace/binary.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "trace/columns.hpp"

// The column payloads are written and bulk-loaded as native integers;
// the on-disk spec is little-endian, so a big-endian port would need
// byte-swapping loads here.
static_assert(std::endian::native == std::endian::little,
              "kooza.trace/1 I/O assumes a little-endian host");

namespace kooza::trace {

namespace {

namespace fs = std::filesystem;

struct BinMetrics {
    obs::Counter& rows = obs::counter("trace.bin.rows_total");
    obs::Counter& files_written = obs::counter("trace.bin.files_written_total");
    obs::Counter& bytes_written =
        obs::counter("trace.bin.bytes_written_total", obs::Unit::kBytes);
    obs::Counter& bad_files = obs::counter("trace.bin.bad_files_total");
    obs::Counter& missing_files = obs::counter("trace.bin.missing_files_total");
};

BinMetrics& metrics() {
    static BinMetrics m;
    return m;
}

/// Column value widths, used for both packing and validation.
enum class Col : std::uint8_t { kF64, kU64, kU32, kU8 };

constexpr std::size_t width(Col c) noexcept {
    switch (c) {
        case Col::kF64:
        case Col::kU64: return 8;
        case Col::kU32: return 4;
        case Col::kU8: return 1;
    }
    return 0;
}

/// Per-stream schema: id, file stem, column spec string (hashed into the
/// header — any layout change must bump it) and column widths.
struct StreamSchema {
    std::uint32_t id;
    const char* stem;
    const char* spec;
    std::vector<Col> cols;
};

const std::array<StreamSchema, 7>& schemas() {
    static const std::array<StreamSchema, 7> s{{
        {0, "storage",
         "time:f64,request_id:u64,lbn:u64,size_bytes:u64,type:u8,latency:f64",
         {Col::kF64, Col::kU64, Col::kU64, Col::kU64, Col::kU8, Col::kF64}},
        {1, "cpu", "time:f64,request_id:u64,busy_seconds:f64,utilization:f64",
         {Col::kF64, Col::kU64, Col::kF64, Col::kF64}},
        {2, "memory", "time:f64,request_id:u64,bank:u32,size_bytes:u64,type:u8",
         {Col::kF64, Col::kU64, Col::kU32, Col::kU64, Col::kU8}},
        {3, "network",
         "time:f64,request_id:u64,size_bytes:u64,direction:u8,latency:f64",
         {Col::kF64, Col::kU64, Col::kU64, Col::kU8, Col::kF64}},
        {4, "requests", "request_id:u64,type:u8,arrival:f64,completion:f64,bytes:u64",
         {Col::kU64, Col::kU8, Col::kF64, Col::kF64, Col::kU64}},
        {5, "failures",
         "time:f64,request_id:u64,server:u32,kind:u8,duration:f64",
         {Col::kF64, Col::kU64, Col::kU32, Col::kU8, Col::kF64}},
        {6, "spans",
         "trace_id:u64,span_id:u64,parent_id:u64,name:strtab32,start:f64,end:f64",
         {Col::kU64, Col::kU64, Col::kU64, Col::kU32, Col::kF64, Col::kF64}},
    }};
    return s;
}

/// FNV-1a 64-bit over the schema spec string.
std::uint64_t schema_hash(const char* spec) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char* p = spec; *p; ++p) {
        h ^= std::uint8_t(*p);
        h *= 0x100000001b3ull;
    }
    return h;
}

template <typename T>
void put(std::vector<std::uint8_t>& b, T v) {
    const auto old = b.size();
    b.resize(old + sizeof(T));
    std::memcpy(b.data() + old, &v, sizeof(T));
}

/// Append one column for a whole record batch: a single resize, then a
/// tight fixed-stride store loop — the struct-of-arrays split that
/// replaces the old per-record, per-field push_back walk. `get` projects
/// a record to the column's wire value (u8/u32/u64 or bit-cast f64).
template <typename Rec, typename Get>
void pack_column(std::vector<std::uint8_t>& b, const std::vector<Rec>& rs,
                 Get&& get) {
    using V = decltype(get(rs.data()[0]));
    const auto old = b.size();
    b.resize(old + rs.size() * sizeof(V));
    std::uint8_t* p = b.data() + old;
    for (const auto& r : rs) {
        const V v = get(r);
        std::memcpy(p, &v, sizeof(V));
        p += sizeof(V);
    }
}

std::uint64_t f64_bits(double v) noexcept {
    return std::bit_cast<std::uint64_t>(v);
}

/// Reader names that prefix every rejection, so an error names the
/// reader that met it.
constexpr const char* kReadBinary = "read_binary";
constexpr const char* kChunkedReader = "ChunkedReader";

[[noreturn]] void bad_file(const char* reader, const fs::path& p,
                           const std::string& why) {
    metrics().bad_files.add();
    throw std::runtime_error(std::string(reader) + ": " + p.string() + ": " + why);
}

/// Fixed-size serialized header: magic + version + stream id + schema
/// hash + record count, then its CRC.
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

std::vector<std::uint8_t> make_header(const StreamSchema& s, std::uint64_t count) {
    std::vector<std::uint8_t> h;
    h.insert(h.end(), std::begin(kBinaryMagic), std::end(kBinaryMagic));
    put(h, kBinaryVersion);
    put(h, s.id);
    put(h, schema_hash(s.spec));
    put(h, count);
    put(h, crc32(h.data(), h.size()));
    return h;
}

template <typename T>
T load(const std::uint8_t* p) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

/// Validate a stream file's header and return its record count. `h`
/// holds the first `avail` bytes of a file of `file_bytes` bytes. The
/// count is bounded by the file size before any count * width product
/// is formed: a hostile count would otherwise wrap that product to a
/// small, "valid" section length.
std::uint64_t check_header(const char* reader, const fs::path& p,
                           const StreamSchema& s, const std::uint8_t* h,
                           std::size_t avail, std::uint64_t file_bytes) {
    if (avail < kHeaderBytes + 4) bad_file(reader, p, "truncated file (header)");
    if (std::memcmp(h, kBinaryMagic, sizeof(kBinaryMagic)) != 0)
        bad_file(reader, p, "bad magic (not a kooza.trace/1 file)");
    if (crc32(h, kHeaderBytes) != load<std::uint32_t>(h + kHeaderBytes))
        bad_file(reader, p, "header CRC32 mismatch");
    // After the 8-byte magic: u32 version, u32 stream id, u64 schema
    // hash, u64 record count.
    if (const auto ver = load<std::uint32_t>(h + 8); ver != kBinaryVersion)
        bad_file(reader, p, "unsupported version " + std::to_string(ver));
    if (const auto id = load<std::uint32_t>(h + 12); id != s.id)
        bad_file(reader, p, "stream id mismatch (file renamed?)");
    if (load<std::uint64_t>(h + 16) != schema_hash(s.spec))
        bad_file(reader, p, "schema hash mismatch");
    const auto count = load<std::uint64_t>(h + 24);
    std::uint64_t row_bytes = 0;
    for (const Col c : s.cols) row_bytes += width(c);
    if (count > file_bytes / row_bytes)
        bad_file(reader, p, "record count " + std::to_string(count) +
                                " exceeds the file size");
    return count;
}

/// Parse the spans string table payload (u32 count, then u32 length +
/// bytes per name) and intern each name once. The count is bounded by
/// the payload before anything is reserved: every entry needs at least
/// its 4-byte length.
std::vector<PhaseName> parse_string_table(const char* reader,
                                          const std::uint8_t* data,
                                          std::size_t len, const fs::path& path) {
    std::size_t p = 0;
    auto need = [&](std::size_t n) {
        if (n > len - p) bad_file(reader, path, "string table truncated");
    };
    need(4);
    std::uint32_t n;
    std::memcpy(&n, data, 4);
    p += 4;
    if (n > (len - p) / 4)
        bad_file(reader, path, "string table count " + std::to_string(n) +
                                   " exceeds its section");
    if (n > PhaseName::kCapacity)
        bad_file(reader, path, "string table count " + std::to_string(n) +
                                   " exceeds the phase-name capacity");
    std::vector<PhaseName> names;
    names.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        need(4);
        std::uint32_t name_len;
        std::memcpy(&name_len, data + p, 4);
        p += 4;
        need(name_len);
        names.emplace_back(
            std::string_view(reinterpret_cast<const char*>(data + p), name_len));
        p += name_len;
    }
    if (p != len) bad_file(reader, path, "string table has trailing bytes");
    return names;
}

/// Where each column of one stream starts, at the first row to decode;
/// the widest schema has six columns.
using ColumnPtrs = std::array<const std::uint8_t*, 6>;

/// Decode rows [begin, begin + n) of stream `s`, whose columns start at
/// `col`, into a resized tail of the matching stream of `out`. An enum
/// byte outside its range is corruption, not a default value (as in the
/// CSV readers), and so is a span-name index past `names`; both name
/// the absolute record. After a throw, `out` holds a partial tail.
void decode_rows(const char* reader, const fs::path& path, StreamId s,
                 const ColumnPtrs& col, std::uint64_t begin, std::size_t n,
                 const std::vector<PhaseName>& names, TraceSet& out) {
    auto u64 = [&](std::size_t c, std::size_t i) {
        return load<std::uint64_t>(col[c] + i * 8);
    };
    auto u32 = [&](std::size_t c, std::size_t i) {
        return load<std::uint32_t>(col[c] + i * 4);
    };
    auto f64 = [&](std::size_t c, std::size_t i) {
        return std::bit_cast<double>(u64(c, i));
    };
    auto enum8 = [&](std::size_t c, std::size_t i, std::uint8_t max,
                     const char* what) {
        const auto v = col[c][i];
        if (v > max)
            bad_file(reader, path, "record " + std::to_string(begin + i) +
                                       ": invalid " + what + " value " +
                                       std::to_string(v));
        return v;
    };
    auto tail = [n](auto& v) {
        const auto base = v.size();
        v.resize(base + n);
        return v.data() + base;
    };

    switch (s) {
        case StreamId::kStorage: {
            auto* r = tail(out.storage);
            for (std::size_t i = 0; i < n; ++i)
                r[i] = {f64(0, i), u64(1, i), u64(2, i), u64(3, i),
                        IoType(enum8(4, i, 1, "io type")), f64(5, i)};
            break;
        }
        case StreamId::kCpu: {
            auto* r = tail(out.cpu);
            for (std::size_t i = 0; i < n; ++i)
                r[i] = {f64(0, i), u64(1, i), f64(2, i), f64(3, i)};
            break;
        }
        case StreamId::kMemory: {
            auto* r = tail(out.memory);
            for (std::size_t i = 0; i < n; ++i)
                r[i] = {f64(0, i), u64(1, i), u32(2, i), u64(3, i),
                        IoType(enum8(4, i, 1, "io type"))};
            break;
        }
        case StreamId::kNetwork: {
            auto* r = tail(out.network);
            for (std::size_t i = 0; i < n; ++i)
                r[i] = {f64(0, i), u64(1, i), u64(2, i),
                        NetworkRecord::Direction(enum8(3, i, 1, "direction")),
                        f64(4, i)};
            break;
        }
        case StreamId::kRequests: {
            auto* r = tail(out.requests);
            for (std::size_t i = 0; i < n; ++i)
                r[i] = {u64(0, i), IoType(enum8(1, i, 1, "io type")), f64(2, i),
                        f64(3, i), u64(4, i)};
            break;
        }
        case StreamId::kFailures: {
            auto* r = tail(out.failures);
            for (std::size_t i = 0; i < n; ++i)
                r[i] = {f64(0, i), u64(1, i), u32(2, i),
                        FailureRecord::Kind(enum8(3, i, 5, "failure kind")),
                        f64(4, i)};
            break;
        }
        case StreamId::kSpans: {
            auto* r = tail(out.spans);
            for (std::size_t i = 0; i < n; ++i) {
                const auto ix = u32(3, i);
                if (ix >= names.size())
                    bad_file(reader, path, "record " + std::to_string(begin + i) +
                                               ": name index out of range");
                r[i] = {u64(0, i), u64(1, i), u64(2, i), names[ix], f64(4, i),
                        f64(5, i)};
            }
            break;
        }
    }
    metrics().rows.add(n);
}

/// Cursor over a fully-loaded stream file (read_binary's I/O).
struct FileView {
    fs::path path;
    std::vector<std::uint8_t> data;
    std::size_t pos = 0;

    [[noreturn]] void bad(const std::string& why) const {
        bad_file(kReadBinary, path, why);
    }
    void need(std::size_t n, const char* what) const {
        if (n > data.size() - pos) bad(std::string("truncated file (") + what + ")");
    }
    template <typename T>
    T take() {
        T v;
        std::memcpy(&v, data.data() + pos, sizeof(T));
        pos += sizeof(T);
        return v;
    }
    /// One CRC-checked section: u64 length + payload + u32 crc. Returns
    /// the payload's offset; `pos` advances past the section.
    std::size_t take_section(const char* what, std::size_t expected_len) {
        need(8, what);
        const auto len = take<std::uint64_t>();
        if (expected_len != std::size_t(-1) && len != expected_len)
            bad(std::string(what) + ": unexpected section length");
        // Compared before adding, so a hostile length cannot wrap.
        if (len > data.size() - pos)
            bad(std::string("truncated file (") + what + ")");
        need(std::size_t(len) + 4, what);
        const auto off = pos;
        pos += std::size_t(len);
        const auto stored = take<std::uint32_t>();
        if (crc32(data.data() + off, std::size_t(len)) != stored)
            bad(std::string(what) + ": CRC32 mismatch (corrupt section)");
        return off;
    }
};

FileView load_file(const fs::path& p) {
    std::ifstream f(p, std::ios::binary);
    if (!f) bad_file(kReadBinary, p, "cannot open");
    FileView v{p, {}, 0};
    f.seekg(0, std::ios::end);
    v.data.resize(std::size_t(f.tellg()));
    f.seekg(0);
    // One bulk read; columns are then decoded by pointer from the buffer.
    f.read(reinterpret_cast<char*>(v.data.data()),
           std::streamsize(v.data.size()));
    if (!f) bad_file(kReadBinary, p, "short read");
    return v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) noexcept {
    // Slicing-by-8: table[0] is the classic byte-at-a-time table; table[s]
    // advances a byte s extra positions through the shift register, so the
    // main loop folds 8 payload bytes per iteration. Same polynomial and
    // check value as the byte-wise form (crc32("123456789") == 0xCBF43926).
    static const auto tables = [] {
        std::array<std::array<std::uint32_t, 256>, 8> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t s = 1; s < 8; ++s)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[s][i] = t[0][t[s - 1][i] & 0xFF] ^ (t[s - 1][i] >> 8);
        return t;
    }();
    const auto& t = tables;
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (len >= 8) {
        std::uint32_t lo, hi;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= c;
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
        p += 8;
        len -= 8;
    }
    while (len-- > 0) c = t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

BinaryWriter::BinaryWriter(std::filesystem::path dir,
                           std::size_t spill_buffer_bytes)
    : dir_(std::move(dir)), spill_buffer_bytes_(spill_buffer_bytes) {
    streams_.resize(schemas().size());
    for (const auto& s : schemas())
        streams_[s.id].columns.resize(s.cols.size());
}

BinaryWriter::~BinaryWriter() {
    // Callers should finish() explicitly (it can throw); the destructor
    // only covers the non-exceptional forgot-to-finish path.
    if (!finished_) {
        try {
            finish();
        } catch (...) {
        }
    }
}

void BinaryWriter::append(const TraceSet& chunk) {
    if (finished_)
        throw std::logic_error("BinaryWriter::append: writer already finished");
    auto& st = streams_;
    // Column-major: each column of a stream is packed for the whole batch
    // in one pass (single resize + tight stride loop) instead of cycling
    // through every column per record.
    auto col = [&](std::size_t stream, std::size_t ix) -> auto& {
        return st[stream].columns[ix].bytes;
    };
    if (!chunk.storage.empty()) {
        const auto& rs = chunk.storage;
        pack_column(col(0, 0), rs, [](const auto& r) { return f64_bits(r.time); });
        pack_column(col(0, 1), rs, [](const auto& r) { return r.request_id; });
        pack_column(col(0, 2), rs, [](const auto& r) { return r.lbn; });
        pack_column(col(0, 3), rs, [](const auto& r) { return r.size_bytes; });
        pack_column(col(0, 4), rs,
                    [](const auto& r) { return std::uint8_t(r.type); });
        pack_column(col(0, 5), rs,
                    [](const auto& r) { return f64_bits(r.latency); });
        st[0].count += rs.size();
    }
    if (!chunk.cpu.empty()) {
        const auto& rs = chunk.cpu;
        pack_column(col(1, 0), rs, [](const auto& r) { return f64_bits(r.time); });
        pack_column(col(1, 1), rs, [](const auto& r) { return r.request_id; });
        pack_column(col(1, 2), rs,
                    [](const auto& r) { return f64_bits(r.busy_seconds); });
        pack_column(col(1, 3), rs,
                    [](const auto& r) { return f64_bits(r.utilization); });
        st[1].count += rs.size();
    }
    if (!chunk.memory.empty()) {
        const auto& rs = chunk.memory;
        pack_column(col(2, 0), rs, [](const auto& r) { return f64_bits(r.time); });
        pack_column(col(2, 1), rs, [](const auto& r) { return r.request_id; });
        pack_column(col(2, 2), rs, [](const auto& r) { return r.bank; });
        pack_column(col(2, 3), rs, [](const auto& r) { return r.size_bytes; });
        pack_column(col(2, 4), rs,
                    [](const auto& r) { return std::uint8_t(r.type); });
        st[2].count += rs.size();
    }
    if (!chunk.network.empty()) {
        const auto& rs = chunk.network;
        pack_column(col(3, 0), rs, [](const auto& r) { return f64_bits(r.time); });
        pack_column(col(3, 1), rs, [](const auto& r) { return r.request_id; });
        pack_column(col(3, 2), rs, [](const auto& r) { return r.size_bytes; });
        pack_column(col(3, 3), rs,
                    [](const auto& r) { return std::uint8_t(r.direction); });
        pack_column(col(3, 4), rs,
                    [](const auto& r) { return f64_bits(r.latency); });
        st[3].count += rs.size();
    }
    if (!chunk.requests.empty()) {
        const auto& rs = chunk.requests;
        pack_column(col(4, 0), rs, [](const auto& r) { return r.request_id; });
        pack_column(col(4, 1), rs,
                    [](const auto& r) { return std::uint8_t(r.type); });
        pack_column(col(4, 2), rs,
                    [](const auto& r) { return f64_bits(r.arrival); });
        pack_column(col(4, 3), rs,
                    [](const auto& r) { return f64_bits(r.completion); });
        pack_column(col(4, 4), rs, [](const auto& r) { return r.bytes; });
        st[4].count += rs.size();
    }
    if (!chunk.failures.empty()) {
        const auto& rs = chunk.failures;
        pack_column(col(5, 0), rs, [](const auto& r) { return f64_bits(r.time); });
        pack_column(col(5, 1), rs, [](const auto& r) { return r.request_id; });
        pack_column(col(5, 2), rs, [](const auto& r) { return r.server; });
        pack_column(col(5, 3), rs,
                    [](const auto& r) { return std::uint8_t(r.kind); });
        pack_column(col(5, 4), rs,
                    [](const auto& r) { return f64_bits(r.duration); });
        st[5].count += rs.size();
    }
    append_spans(chunk.spans);
    records_ += chunk.total_records();
    maybe_spill();
}

void BinaryWriter::append(const ColumnChunk& chunk) {
    if (finished_)
        throw std::logic_error("BinaryWriter::append: writer already finished");
    // Numeric streams arrive pre-encoded: splice whole columns.
    for (std::size_t id = 0; id < kStreamCount; ++id) {
        const auto& src = chunk.streams_[id];
        if (src.count == 0) continue;
        auto& dst = streams_[id];
        for (std::size_t c = 0; c < dst.columns.size(); ++c) {
            auto& b = dst.columns[c].bytes;
            b.insert(b.end(), src.cols[c].begin(), src.cols[c].end());
        }
        dst.count += src.count;
    }
    // Spans encode their name column through this writer's string table.
    append_spans(chunk.spans_);
    records_ += chunk.records();
    maybe_spill();
}

void BinaryWriter::append_spans(const std::vector<Span>& rs) {
    if (rs.empty()) return;
    auto& st = streams_[6];
    auto col = [&](std::size_t ix) -> auto& { return st.columns[ix].bytes; };
    pack_column(col(0), rs, [](const Span& r) { return r.trace_id; });
    pack_column(col(1), rs, [](const Span& r) { return r.span_id; });
    pack_column(col(2), rs, [](const Span& r) { return r.parent_id; });
    pack_column(col(3), rs, [&](const Span& r) { return name_index(r.name); });
    pack_column(col(4), rs, [](const Span& r) { return f64_bits(r.start); });
    pack_column(col(5), rs, [](const Span& r) { return f64_bits(r.end); });
    st.count += rs.size();
}

std::uint32_t BinaryWriter::name_index(PhaseName name) {
    constexpr auto kUnseen = ~std::uint32_t{0};
    if (name.id() >= name_ix_.size()) name_ix_.resize(name.id() + 1, kUnseen);
    auto& ix = name_ix_[name.id()];
    if (ix == kUnseen) {
        ix = std::uint32_t(names_.size());
        names_.push_back(name);
    }
    return ix;
}

void BinaryWriter::maybe_spill() {
    if (spill_buffer_bytes_ == 0) return;
    for (std::size_t id = 0; id < streams_.size(); ++id)
        for (std::size_t c = 0; c < streams_[id].columns.size(); ++c)
            if (streams_[id].columns[c].bytes.size() >= spill_buffer_bytes_)
                spill_column(id, c);
}

void BinaryWriter::spill_column(std::size_t stream_id, std::size_t col_ix) {
    auto& col = streams_[stream_id].columns[col_ix];
    if (!col.spill.is_open()) {
        fs::create_directories(dir_);
        col.spill_path = dir_ / (std::string(schemas()[stream_id].stem) + ".c" +
                                 std::to_string(col_ix) + ".spill");
        col.spill.open(col.spill_path,
                       std::ios::binary | std::ios::trunc | std::ios::out);
        if (!col.spill)
            throw std::runtime_error("BinaryWriter: cannot open spill file " +
                                     col.spill_path.string());
    }
    col.crc = crc32(col.bytes.data(), col.bytes.size(), col.crc);
    col.spill.write(reinterpret_cast<const char*>(col.bytes.data()),
                    std::streamsize(col.bytes.size()));
    if (!col.spill)
        throw std::runtime_error("BinaryWriter: spill write failed: " +
                                 col.spill_path.string());
    col.spilled += col.bytes.size();
    col.bytes.clear();
}

void BinaryWriter::write_stream_file(std::size_t stream_id) {
    const auto& schema = schemas()[stream_id];
    auto& stream = streams_[stream_id];
    const auto path = dir_ / (std::string(schema.stem) + ".bin");
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        throw std::runtime_error("BinaryWriter: cannot open " + path.string());

    std::uint64_t written = 0;
    auto emit = [&](const std::vector<std::uint8_t>& bytes) {
        f.write(reinterpret_cast<const char*>(bytes.data()),
                std::streamsize(bytes.size()));
        written += bytes.size();
    };
    auto emit_section = [&](const std::vector<std::uint8_t>& payload) {
        std::vector<std::uint8_t> frame;
        put(frame, std::uint64_t(payload.size()));
        emit(frame);
        emit(payload);
        std::vector<std::uint8_t> tail;
        put(tail, crc32(payload.data(), payload.size()));
        emit(tail);
    };
    // A spilled column splices its temp file in front of the still-
    // buffered tail; the section CRC chains across both, so the bytes
    // are identical to the all-in-memory path.
    auto emit_column = [&](Column& col) {
        if (col.spilled == 0) {
            emit_section(col.bytes);
            return;
        }
        std::vector<std::uint8_t> frame;
        put(frame, std::uint64_t(col.spilled + col.bytes.size()));
        emit(frame);
        col.spill.close();
        std::ifstream in(col.spill_path, std::ios::binary);
        if (!in)
            throw std::runtime_error("BinaryWriter: cannot reopen spill file " +
                                     col.spill_path.string());
        std::vector<char> buf(1 << 20);
        std::uint64_t copied = 0;
        while (in) {
            in.read(buf.data(), std::streamsize(buf.size()));
            const auto got = in.gcount();
            if (got <= 0) break;
            f.write(buf.data(), got);
            written += std::uint64_t(got);
            copied += std::uint64_t(got);
        }
        if (copied != col.spilled)
            throw std::runtime_error("BinaryWriter: spill file truncated: " +
                                     col.spill_path.string());
        emit(col.bytes);
        std::vector<std::uint8_t> tail;
        put(tail, crc32(col.bytes.data(), col.bytes.size(), col.crc));
        emit(tail);
        std::error_code ec;
        fs::remove(col.spill_path, ec);
    };

    emit(make_header(schema, stream.count));
    for (auto& col : stream.columns) emit_column(col);
    if (schema.id == 6) {
        std::vector<std::uint8_t> tab;
        put(tab, std::uint32_t(names_.size()));
        for (const PhaseName name : names_) {
            const std::string& n = name.str();
            put(tab, std::uint32_t(n.size()));
            tab.insert(tab.end(), n.begin(), n.end());
        }
        emit_section(tab);
    }
    if (!f) throw std::runtime_error("BinaryWriter: write failed: " + path.string());
    metrics().files_written.add();
    metrics().bytes_written.add(written);
}

void BinaryWriter::finish() {
    if (finished_) return;
    fs::create_directories(dir_);
    for (std::size_t id = 0; id < streams_.size(); ++id) write_stream_file(id);
    finished_ = true;
}

void write_binary(const TraceSet& ts, const std::filesystem::path& dir) {
    BinaryWriter w(dir);
    w.append(ts);
    w.finish();
}

TraceSet read_binary(const std::filesystem::path& dir) {
    // All seven stream files are required: a capture always writes the
    // full set, so an absent file is a partial/deleted capture, not a
    // quiet workload.
    for (const auto& s : schemas()) {
        const auto p = dir / (std::string(s.stem) + ".bin");
        if (!fs::exists(p)) {
            metrics().missing_files.add();
            throw std::runtime_error("read_binary: missing stream file " +
                                     p.string() + " (partial capture?)");
        }
    }

    TraceSet ts;
    std::vector<PhaseName> names;
    for (const auto& s : schemas()) {
        auto v = load_file(dir / (std::string(s.stem) + ".bin"));
        const auto count = check_header(kReadBinary, v.path, s, v.data.data(),
                                        v.data.size(), v.data.size());
        v.pos = kHeaderBytes + 4;
        ColumnPtrs col{};
        for (std::size_t c = 0; c < s.cols.size(); ++c)
            col[c] = v.data.data() +
                     v.take_section("column", std::size_t(count) * width(s.cols[c]));
        if (s.id == 6) {
            const auto off = v.take_section("string table", std::size_t(-1));
            // The payload ends before the section's crc.
            names = parse_string_table(kReadBinary, v.data.data() + off,
                                       v.pos - 4 - off, v.path);
        }
        decode_rows(kReadBinary, v.path, StreamId(s.id), col, 0, std::size_t(count),
                    names, ts);
    }
    return ts;
}

ChunkedReader::ChunkedReader(std::filesystem::path dir) : dir_(std::move(dir)) {
    files_.resize(schemas().size());
    std::vector<char> buf(1 << 20);
    for (const auto& s : schemas()) {
        auto& sf = files_[s.id];
        sf.path = dir_ / (std::string(s.stem) + ".bin");
        if (!fs::exists(sf.path)) {
            metrics().missing_files.add();
            throw std::runtime_error("ChunkedReader: missing stream file " +
                                     sf.path.string() + " (partial capture?)");
        }
        sf.file.open(sf.path, std::ios::binary);
        if (!sf.file) bad_file(kChunkedReader, sf.path, "cannot open");

        std::vector<std::uint8_t> h(kHeaderBytes + 4);
        sf.file.read(reinterpret_cast<char*>(h.data()),
                     std::streamsize(h.size()));
        const std::uint64_t file_bytes = fs::file_size(sf.path);
        sf.count = check_header(kChunkedReader, sf.path, s, h.data(),
                                std::size_t(sf.file.gcount()), file_bytes);

        // Walk the sections once, CRC-checking each payload through the
        // bounded buffer and remembering where it starts.
        std::uint64_t off = kHeaderBytes + 4;
        constexpr std::uint64_t kAnyLen = ~0ull;
        auto check_section = [&](std::uint64_t expected_len, const char* what,
                                 std::vector<std::uint8_t>* capture) {
            std::uint64_t len = 0;
            sf.file.read(reinterpret_cast<char*>(&len), 8);
            if (sf.file.gcount() != 8)
                bad_file(kChunkedReader, sf.path,
                         std::string("truncated file (") + what + ")");
            if (expected_len != kAnyLen && len != expected_len)
                bad_file(kChunkedReader, sf.path,
                         std::string(what) + ": unexpected section length");
            off += 8;
            if (len > file_bytes - off)
                bad_file(kChunkedReader, sf.path,
                         std::string("truncated file (") + what + ")");
            const std::uint64_t payload = off;
            if (capture) capture->reserve(std::size_t(len));
            std::uint32_t crc = 0;
            std::uint64_t left = len;
            while (left > 0) {
                const auto take =
                    std::size_t(std::min<std::uint64_t>(left, buf.size()));
                sf.file.read(buf.data(), std::streamsize(take));
                if (std::size_t(sf.file.gcount()) != take)
                    bad_file(kChunkedReader, sf.path,
                             std::string("truncated file (") + what + ")");
                crc = crc32(buf.data(), take, crc);
                if (capture)
                    capture->insert(capture->end(), buf.data(),
                                    buf.data() + take);
                left -= take;
            }
            std::uint32_t stored = 0;
            sf.file.read(reinterpret_cast<char*>(&stored), 4);
            if (sf.file.gcount() != 4)
                bad_file(kChunkedReader, sf.path,
                         std::string("truncated file (") + what + ")");
            if (crc != stored)
                bad_file(kChunkedReader, sf.path,
                         std::string(what) + ": CRC32 mismatch (corrupt section)");
            off += len + 4;
            return payload;
        };
        for (std::size_t c = 0; c < s.cols.size(); ++c)
            sf.col_offsets.push_back(check_section(
                sf.count * width(s.cols[c]), "column", nullptr));
        if (s.id == 6) {
            // The string table is bounded by the number of distinct span
            // names, so it is safe to hold in memory.
            std::vector<std::uint8_t> tab;
            check_section(kAnyLen, "string table", &tab);
            names_ = parse_string_table(kChunkedReader, tab.data(), tab.size(),
                                        sf.path);
        }
    }
}

std::uint64_t ChunkedReader::rows(StreamId s) const noexcept {
    return files_[std::size_t(s)].count;
}

std::uint64_t ChunkedReader::total_rows() const noexcept {
    std::uint64_t n = 0;
    for (const auto& sf : files_) n += sf.count;
    return n;
}

void ChunkedReader::read_rows(StreamId s, std::uint64_t begin, std::uint64_t n,
                              TraceSet& out) {
    const auto id = std::size_t(s);
    const auto& schema = schemas()[id];
    auto& sf = files_[id];
    if (begin + n < begin || begin + n > sf.count)
        throw std::out_of_range("ChunkedReader::read_rows: rows [" +
                                std::to_string(begin) + ", " +
                                std::to_string(begin + n) + ") past end of " +
                                sf.path.string());
    if (n == 0) return;

    std::vector<std::vector<std::uint8_t>> cols(schema.cols.size());
    ColumnPtrs col{};
    for (std::size_t c = 0; c < schema.cols.size(); ++c) {
        const auto w = width(schema.cols[c]);
        cols[c].resize(std::size_t(n) * w);
        sf.file.clear();
        sf.file.seekg(std::streamoff(sf.col_offsets[c] + begin * w));
        sf.file.read(reinterpret_cast<char*>(cols[c].data()),
                     std::streamsize(cols[c].size()));
        if (std::size_t(sf.file.gcount()) != cols[c].size())
            bad_file(kChunkedReader, sf.path, "short read");
        col[c] = cols[c].data();
    }
    decode_rows(kChunkedReader, sf.path, s, col, begin, std::size_t(n), names_, out);
}

}  // namespace kooza::trace

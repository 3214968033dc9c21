// CSV persistence for TraceSets, so captured workloads can be stored,
// shared and re-trained on — the role production trace archives (SNIA,
// IISWC traces) play for the papers the survey covers.
//
// Layout: one file per stream inside a directory —
//   storage.csv, cpu.csv, memory.csv, network.csv, requests.csv,
//   failures.csv, spans.csv
// Each file has a header row; fields are comma-separated, no quoting
// (span names must not contain commas or newlines).
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "trace/traceset.hpp"

namespace kooza::trace {

/// Write every stream into `dir` (created if missing).
/// Throws std::runtime_error on I/O failure, or when a span name contains
/// a ',' or line break (unrepresentable without quoting — the binary
/// format's string table has no such restriction).
void write_csv(const TraceSet& ts, const std::filesystem::path& dir);

/// Read a TraceSet previously written by write_csv. Every stream file
/// must be present — a missing file means a partial capture and throws
/// (counted in trace.csv.missing_files_total); a malformed row throws
/// std::runtime_error with the file and line number.
[[nodiscard]] TraceSet read_csv(const std::filesystem::path& dir);

/// Split one CSV line on commas (no quoting/escaping).
[[nodiscard]] std::vector<std::string> split_csv_line(const std::string& line);

}  // namespace kooza::trace

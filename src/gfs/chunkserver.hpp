// GFS chunkserver: executes read and write requests against its local
// device models, following the subsystem path of the paper's Figure 1:
//
//   read:  net.rx -> cpu.verify -> mem.buffer -> disk.io -> cpu.aggregate
//          -> net.tx
//   write: net.rx -> cpu.verify -> mem.buffer -> disk.io -> repl.forward*
//          -> cpu.aggregate -> net.tx(ack)
//
// Every phase is wrapped in a Dapper-style span so in-depth tracing can
// recover the structure, and every device emits subsystem records so
// in-breadth models can be trained — both from the same run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gfs/config.hpp"
#include "gfs/master.hpp"
#include "hw/cpu.hpp"
#include "hw/disk.hpp"
#include "hw/memory.hpp"
#include "hw/network.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "trace/sink.hpp"
#include "trace/span.hpp"

namespace kooza::gfs {

class AdmissionController;

/// Canonical phase names (shared with the KOOZA structure queue),
/// interned once so the span hot path never hashes a string.
namespace phase {
inline const trace::PhaseName kNetRx{"net.rx"};
inline const trace::PhaseName kCpuVerify{"cpu.verify"};
inline const trace::PhaseName kMemBuffer{"mem.buffer"};
inline const trace::PhaseName kDiskIo{"disk.io"};
inline const trace::PhaseName kReplForward{"repl.forward"};
inline const trace::PhaseName kCpuAggregate{"cpu.aggregate"};
inline const trace::PhaseName kNetTx{"net.tx"};
inline const trace::PhaseName kMasterLookup{"master.lookup"};
inline const trace::PhaseName kFailover{"failover"};
inline const trace::PhaseName kRequest{"request"};
}  // namespace phase

class ChunkServer {
public:
    ChunkServer(std::uint32_t id, sim::Engine& engine, const GfsConfig& cfg,
                trace::Sink* sink, trace::SpanTracer* tracer, sim::Rng rng);

    /// Handle a read of `size` bytes at `lbn`. `parent` is the client's
    /// root span. `on_done` fires when the response payload has reached
    /// the client's port (the caller transfers it; see `respond_via`).
    /// With admission control attached, `on_reject` fires instead when
    /// the server bounces the request (empty on_reject = never bounce,
    /// queue past the limit instead).
    void handle_read(std::uint64_t request_id, std::uint64_t lbn, std::uint64_t size,
                     trace::SpanId parent, hw::SwitchPort& client_port,
                     std::function<void()> on_done,
                     std::function<void()> on_reject = {});

    /// Handle a write of `size` bytes at `lbn`. `replicas` are the
    /// secondary servers to forward to (chain order). Completion fires
    /// once the local write, all forwards, and the client ack are done.
    void handle_write(std::uint64_t request_id, std::uint64_t lbn, std::uint64_t size,
                      trace::SpanId parent, hw::SwitchPort& client_port,
                      std::vector<ChunkServer*> replicas,
                      std::function<void()> on_done,
                      std::function<void()> on_reject = {});

    /// Attach a ticket controller gating primary reads and writes.
    /// Replica-side writes are NOT gated: the primary's ticket covers the
    /// whole replication chain (gating forwards could deadlock the chain
    /// against itself on small ticket counts).
    void set_admission(AdmissionController* admission) noexcept {
        admission_ = admission;
    }
    [[nodiscard]] AdmissionController* admission() const noexcept {
        return admission_;
    }

    /// Ingress port (client->server and server->server traffic lands here).
    [[nodiscard]] hw::SwitchPort& ingress() noexcept { return *ingress_; }

    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
    [[nodiscard]] hw::Disk& disk() noexcept { return *disk_; }
    [[nodiscard]] hw::Cpu& cpu() noexcept { return *cpu_; }
    [[nodiscard]] hw::Memory& memory() noexcept { return *memory_; }

    /// Failure injection: a failed server never answers; clients time out
    /// and fail over to the next replica. Recover with set_failed(false).
    void set_failed(bool failed) noexcept { failed_ = failed; }
    [[nodiscard]] bool failed() const noexcept { return failed_; }

private:
    /// Admission-gated entry bodies (the public handlers wrap these with
    /// the ticket acquire/release when a controller is attached).
    void read_admitted(std::uint64_t request_id, std::uint64_t lbn,
                       std::uint64_t size, trace::SpanId parent,
                       hw::SwitchPort& client_port, std::function<void()> on_done);
    void write_admitted(std::uint64_t request_id, std::uint64_t lbn,
                        std::uint64_t size, trace::SpanId parent,
                        hw::SwitchPort& client_port,
                        std::vector<ChunkServer*> replicas,
                        std::function<void()> on_done);

    /// Wrap `on_done` so the admission ticket is returned before the
    /// caller's completion runs (the freed ticket must be grantable to
    /// whatever that completion submits next).
    [[nodiscard]] std::function<void()> release_ticket_then(
        std::function<void()> on_done);

    /// Replica-side write: disk + devices only, no client ack.
    void handle_replica_write(std::uint64_t request_id, std::uint64_t lbn,
                              std::uint64_t size, trace::SpanId parent,
                              std::function<void()> on_done);

    /// Common pre-I/O path: cpu.verify then mem.buffer. Calls `next`.
    void verify_and_buffer(std::uint64_t request_id, std::uint64_t size,
                           trace::IoType mem_type, trace::SpanId parent,
                           std::function<void()> next);

    [[nodiscard]] std::uint64_t mem_bytes(std::uint64_t size, trace::IoType t) const;
    [[nodiscard]] std::uint32_t pick_bank(std::uint64_t request_id) const;

    std::uint32_t id_;
    sim::Engine& engine_;
    const GfsConfig& cfg_;
    trace::Sink* sink_;
    trace::SpanTracer* tracer_;
    sim::Rng rng_;
    std::unique_ptr<hw::Disk> disk_;
    std::unique_ptr<hw::Cpu> cpu_;
    std::unique_ptr<hw::Memory> memory_;
    std::unique_ptr<hw::SwitchPort> ingress_;
    AdmissionController* admission_ = nullptr;
    bool failed_ = false;
};

}  // namespace kooza::gfs

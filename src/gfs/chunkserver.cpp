#include "gfs/chunkserver.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "gfs/admission.hpp"
#include "obs/metrics.hpp"

namespace kooza::gfs {

ChunkServer::ChunkServer(std::uint32_t id, sim::Engine& engine, const GfsConfig& cfg,
                         trace::Sink* sink, trace::SpanTracer* tracer, sim::Rng rng)
    : id_(id), engine_(engine), cfg_(cfg), sink_(sink), tracer_(tracer), rng_(rng) {
    disk_ = std::make_unique<hw::Disk>(engine_, cfg_.disk, sink_);
    cpu_ = std::make_unique<hw::Cpu>(engine_, cfg_.cpu, sink_);
    memory_ = std::make_unique<hw::Memory>(engine_, cfg_.memory, sink_);
    ingress_ = std::make_unique<hw::SwitchPort>(
        engine_, cfg_.net, trace::NetworkRecord::Direction::kRx, sink_);
}

std::uint64_t ChunkServer::mem_bytes(std::uint64_t size, trace::IoType t) const {
    const std::uint32_t shift =
        t == trace::IoType::kRead ? cfg_.mem_shift_read : cfg_.mem_shift_write;
    return std::max<std::uint64_t>(size >> shift, 512);
}

std::uint32_t ChunkServer::pick_bank(std::uint64_t request_id) const {
    // Banks follow storage locality by default; fall back to request id.
    return std::uint32_t(request_id % cfg_.memory.banks);
}

namespace {
/// Span helpers tolerating a null tracer.
trace::SpanId begin_span(trace::SpanTracer* t, std::uint64_t trace_id,
                         trace::SpanId parent, trace::PhaseName name, double now) {
    return t != nullptr ? t->start_span(trace_id, parent, name, now) : 0;
}
void finish_span(trace::SpanTracer* t, trace::SpanId s, double now) {
    if (t != nullptr) t->end_span(s, now);
}

struct ServerMetrics {
    obs::Counter& reads = obs::counter("gfs.server.reads_total");
    obs::Counter& writes = obs::counter("gfs.server.writes_total");
    obs::Counter& replica_writes = obs::counter("gfs.server.replica_writes_total");
    obs::Counter& read_bytes =
        obs::counter("gfs.server.read_bytes_total", obs::Unit::kBytes);
    obs::Counter& write_bytes =
        obs::counter("gfs.server.write_bytes_total", obs::Unit::kBytes);
};

ServerMetrics& metrics() {
    static ServerMetrics m;
    return m;
}
}  // namespace

void ChunkServer::verify_and_buffer(std::uint64_t request_id, std::uint64_t size,
                                    trace::IoType mem_type, trace::SpanId parent,
                                    std::function<void()> next) {
    const double verify_work =
        cfg_.cpu_verify_fraction * cpu_->work_for_bytes(size);
    const auto sv =
        begin_span(tracer_, request_id, parent, phase::kCpuVerify, engine_.now());
    cpu_->execute(request_id, verify_work, [this, request_id, size, mem_type, parent,
                                            sv, next = std::move(next)]() mutable {
        finish_span(tracer_, sv, engine_.now());
        const auto sm =
            begin_span(tracer_, request_id, parent, phase::kMemBuffer, engine_.now());
        const std::uint32_t bank = std::uint32_t(
            memory_->bank_of(request_id * 4096 + std::uint64_t(id_) * 64));
        memory_->access(request_id, bank, mem_bytes(size, mem_type), mem_type,
                        [this, sm, next = std::move(next)](double) mutable {
                            finish_span(tracer_, sm, engine_.now());
                            next();
                        });
    });
}

std::function<void()> ChunkServer::release_ticket_then(
    std::function<void()> on_done) {
    return [this, on_done = std::move(on_done)]() mutable {
        admission_->release();
        on_done();
    };
}

void ChunkServer::handle_read(std::uint64_t request_id, std::uint64_t lbn,
                              std::uint64_t size, trace::SpanId parent,
                              hw::SwitchPort& client_port,
                              std::function<void()> on_done,
                              std::function<void()> on_reject) {
    if (admission_ != nullptr) {
        admission_->admit(
            [this, request_id, lbn, size, parent, &client_port,
             on_done = std::move(on_done)]() mutable {
                read_admitted(request_id, lbn, size, parent, client_port,
                              release_ticket_then(std::move(on_done)));
            },
            std::move(on_reject));
        return;
    }
    read_admitted(request_id, lbn, size, parent, client_port, std::move(on_done));
}

void ChunkServer::read_admitted(std::uint64_t request_id, std::uint64_t lbn,
                                std::uint64_t size, trace::SpanId parent,
                                hw::SwitchPort& client_port,
                                std::function<void()> on_done) {
    metrics().reads.add();
    metrics().read_bytes.add(size);
    // net.rx: the request header reaches this server's port (control).
    const auto srx = begin_span(tracer_, request_id, parent, phase::kNetRx, engine_.now());
    ingress_->transfer(
        request_id, cfg_.control_bytes,
        [this, request_id, lbn, size, parent, srx, &client_port,
         on_done = std::move(on_done)](double) mutable {
            finish_span(tracer_, srx, engine_.now());
            verify_and_buffer(
                request_id, size, trace::IoType::kRead, parent,
                [this, request_id, lbn, size, parent, &client_port,
                 on_done = std::move(on_done)]() mutable {
                    const auto sd = begin_span(tracer_, request_id, parent,
                                               phase::kDiskIo, engine_.now());
                    disk_->io(
                        request_id, lbn, size, trace::IoType::kRead,
                        [this, request_id, size, parent, sd, &client_port,
                         on_done = std::move(on_done)](double) mutable {
                            finish_span(tracer_, sd, engine_.now());
                            const double agg_work =
                                (1.0 - cfg_.cpu_verify_fraction) *
                                cpu_->work_for_bytes(size);
                            const auto sa =
                                begin_span(tracer_, request_id, parent,
                                           phase::kCpuAggregate, engine_.now());
                            cpu_->execute(
                                request_id, agg_work,
                                [this, request_id, size, parent, sa, &client_port,
                                 on_done = std::move(on_done)]() mutable {
                                    finish_span(tracer_, sa, engine_.now());
                                    const auto st = begin_span(tracer_, request_id,
                                                               parent, phase::kNetTx,
                                                               engine_.now());
                                    client_port.transfer(
                                        request_id, size,
                                        [this, st,
                                         on_done = std::move(on_done)](double) mutable {
                                            finish_span(tracer_, st, engine_.now());
                                            on_done();
                                        },
                                        /*record=*/true);
                                });
                        });
                });
        },
        /*record=*/false);
}

void ChunkServer::handle_replica_write(std::uint64_t request_id, std::uint64_t lbn,
                                       std::uint64_t size, trace::SpanId parent,
                                       std::function<void()> on_done) {
    metrics().replica_writes.add();
    verify_and_buffer(request_id, size, trace::IoType::kWrite, parent,
                      [this, request_id, lbn, size, parent,
                       on_done = std::move(on_done)]() mutable {
                          const auto sd = begin_span(tracer_, request_id, parent,
                                                     phase::kDiskIo, engine_.now());
                          disk_->io(request_id, lbn, size, trace::IoType::kWrite,
                                    [this, sd,
                                     on_done = std::move(on_done)](double) mutable {
                                        finish_span(tracer_, sd, engine_.now());
                                        on_done();
                                    });
                      });
}

void ChunkServer::handle_write(std::uint64_t request_id, std::uint64_t lbn,
                               std::uint64_t size, trace::SpanId parent,
                               hw::SwitchPort& client_port,
                               std::vector<ChunkServer*> replicas,
                               std::function<void()> on_done,
                               std::function<void()> on_reject) {
    if (admission_ != nullptr) {
        admission_->admit(
            [this, request_id, lbn, size, parent, &client_port,
             replicas = std::move(replicas),
             on_done = std::move(on_done)]() mutable {
                write_admitted(request_id, lbn, size, parent, client_port,
                               std::move(replicas),
                               release_ticket_then(std::move(on_done)));
            },
            std::move(on_reject));
        return;
    }
    write_admitted(request_id, lbn, size, parent, client_port, std::move(replicas),
                   std::move(on_done));
}

void ChunkServer::write_admitted(std::uint64_t request_id, std::uint64_t lbn,
                                 std::uint64_t size, trace::SpanId parent,
                                 hw::SwitchPort& client_port,
                                 std::vector<ChunkServer*> replicas,
                                 std::function<void()> on_done) {
    metrics().writes.add();
    metrics().write_bytes.add(size);
    // net.rx: the write payload reaches this server's port.
    const auto srx = begin_span(tracer_, request_id, parent, phase::kNetRx, engine_.now());
    ingress_->transfer(
        request_id, size,
        [this, request_id, lbn, size, parent, srx, &client_port,
         replicas = std::move(replicas), on_done = std::move(on_done)](double) mutable {
            finish_span(tracer_, srx, engine_.now());
            verify_and_buffer(
                request_id, size, trace::IoType::kWrite, parent,
                [this, request_id, lbn, size, parent, &client_port,
                 replicas = std::move(replicas),
                 on_done = std::move(on_done)]() mutable {
                    const auto sd = begin_span(tracer_, request_id, parent,
                                               phase::kDiskIo, engine_.now());
                    disk_->io(
                        request_id, lbn, size, trace::IoType::kWrite,
                        [this, request_id, lbn, size, parent, sd, &client_port,
                         replicas = std::move(replicas),
                         on_done = std::move(on_done)](double) mutable {
                            finish_span(tracer_, sd, engine_.now());
                            // Forward along the replication chain, then ack.
                            auto forward = std::make_shared<std::function<void(std::size_t)>>();
                            auto replicas_ptr =
                                std::make_shared<std::vector<ChunkServer*>>(
                                    std::move(replicas));
                            auto done_ptr = std::make_shared<std::function<void()>>(
                                std::move(on_done));
                            *forward = [this, request_id, lbn, size, parent, &client_port,
                                        replicas_ptr, done_ptr,
                                        forward](std::size_t i) {
                                if (i < replicas_ptr->size()) {
                                    ChunkServer* rep = (*replicas_ptr)[i];
                                    const auto sf = begin_span(tracer_, request_id,
                                                               parent,
                                                               phase::kReplForward,
                                                               engine_.now());
                                    rep->ingress().transfer(
                                        request_id, size,
                                        [this, request_id, lbn, size, parent, rep, sf,
                                         forward, i](double) {
                                            rep->handle_replica_write(
                                                request_id, lbn, size, parent,
                                                [this, sf, forward, i] {
                                                    finish_span(tracer_, sf,
                                                                engine_.now());
                                                    (*forward)(i + 1);
                                                });
                                        },
                                        /*record=*/true);
                                    return;
                                }
                                // Chain finished: break the self-reference
                                // cycle once this invocation unwinds.
                                engine_.schedule_after(
                                    0.0, [forward] { *forward = nullptr; });
                                const double agg_work =
                                    (1.0 - cfg_.cpu_verify_fraction) *
                                    cpu_->work_for_bytes(size);
                                const auto sa = begin_span(tracer_, request_id, parent,
                                                           phase::kCpuAggregate,
                                                           engine_.now());
                                cpu_->execute(request_id, agg_work, [this, request_id,
                                                                     parent, sa,
                                                                     &client_port,
                                                                     done_ptr] {
                                    finish_span(tracer_, sa, engine_.now());
                                    const auto st = begin_span(tracer_, request_id,
                                                               parent, phase::kNetTx,
                                                               engine_.now());
                                    client_port.transfer(
                                        request_id, cfg_.control_bytes,
                                        [this, st, done_ptr](double) {
                                            finish_span(tracer_, st, engine_.now());
                                            (*done_ptr)();
                                        },
                                        /*record=*/false);
                                });
                            };
                            (*forward)(0);
                        });
                });
        },
        /*record=*/true);
}

}  // namespace kooza::gfs

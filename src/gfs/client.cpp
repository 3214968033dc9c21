#include "gfs/client.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace kooza::gfs {

namespace {
trace::SpanId begin_span(trace::SpanTracer* t, std::uint64_t trace_id,
                         trace::SpanId parent, trace::PhaseName name, double now) {
    return t != nullptr ? t->start_span(trace_id, parent, name, now) : 0;
}
void finish_span(trace::SpanTracer* t, trace::SpanId s, double now) {
    if (t != nullptr) t->end_span(s, now);
}

struct ClientMetrics {
    obs::Counter& requests = obs::counter("gfs.client.requests_total");
    obs::Counter& failed = obs::counter("gfs.client.requests_failed_total");
    obs::Counter& cache_hits = obs::counter("gfs.client.cache_hits_total");
    obs::Counter& cache_misses = obs::counter("gfs.client.cache_misses_total");
    obs::Counter& failovers = obs::counter("gfs.client.failovers_total");
    obs::Counter& rejected = obs::counter("gfs.client.rejections_total");
    obs::Counter& retry_rounds = obs::counter("gfs.client.retry_rounds_total");
    obs::Histogram& latency_ns =
        obs::histogram("gfs.client.request_latency_ns", obs::Unit::kNanoseconds);
};

ClientMetrics& metrics() {
    static ClientMetrics m;
    return m;
}
}  // namespace

MasterNode::MasterNode(sim::Engine& engine, const GfsConfig& cfg) {
    hw::CpuParams mp = cfg.cpu;
    mp.cores = 1;
    cpu = std::make_unique<hw::Cpu>(engine, mp, nullptr);
    ingress = std::make_unique<hw::SwitchPort>(
        engine, cfg.net, trace::NetworkRecord::Direction::kRx, nullptr);
}

Client::Client(std::uint32_t id, sim::Engine& engine, const GfsConfig& cfg,
               Master& master, MasterNode& master_node,
               std::vector<std::unique_ptr<ChunkServer>>& servers,
               trace::Sink* sink, trace::SpanTracer* tracer)
    : id_(id),
      engine_(engine),
      cfg_(cfg),
      master_(master),
      master_node_(master_node),
      servers_(servers),
      sink_(sink),
      tracer_(tracer) {
    ingress_ = std::make_unique<hw::SwitchPort>(
        engine_, cfg_.net, trace::NetworkRecord::Direction::kTx, sink_);
}

std::uint64_t Client::lbn_of(ChunkHandle handle, std::uint64_t offset_in_chunk) const {
    const std::uint64_t blocks_per_chunk =
        std::max<std::uint64_t>(1, cfg_.chunk_size / cfg_.disk.block_size);
    if (cfg_.disk.lbn_count <= blocks_per_chunk)
        throw std::invalid_argument("Client: disk smaller than one chunk");
    // Chunks map to disjoint chunk-aligned block ranges: the disk holds
    // `slots` whole chunks and handles wrap onto aligned slots, so two
    // live handles never straddle each other's range (the old
    // `(handle*bpc) % (lbn_count-bpc)` produced overlapping, unaligned
    // ranges once handles wrapped, corrupting the storage model's
    // block-range states).
    const std::uint64_t slots = cfg_.disk.lbn_count / blocks_per_chunk;
    const std::uint64_t base = (handle % slots) * blocks_per_chunk;
    return base + offset_in_chunk / cfg_.disk.block_size;
}

double Client::backoff_wait(std::uint32_t step) const {
    // A backoff factor <= 1 cannot grow the wait, so short-circuit: the
    // old loop ran all `step` iterations shrinking the wait toward zero,
    // which both wasted O(step) work under large retry-round configs and
    // silently turned "backoff" into "retry faster and faster".
    if (cfg_.failover_backoff <= 1.0 || step == 0)
        return std::min(cfg_.failover_timeout, cfg_.failover_timeout_max);
    double wait = cfg_.failover_timeout;
    for (std::uint32_t i = 0; i < step; ++i) {
        wait *= cfg_.failover_backoff;
        if (wait >= cfg_.failover_timeout_max) break;
    }
    return std::min(wait, cfg_.failover_timeout_max);
}

void Client::demote_cached_replica(const CacheKey& key, std::uint32_t failed_server) {
    const auto it = location_cache_.find(key);
    if (it == location_cache_.end()) return;
    auto& servers = it->second.servers;
    const auto pos = std::find(servers.begin(), servers.end(), failed_server);
    if (pos != servers.end()) std::rotate(pos, pos + 1, servers.end());
}

void Client::lookup(std::uint64_t request_id, const std::string& file,
                    std::uint64_t offset, trace::SpanId root,
                    std::function<void(const ChunkLocation&)> next) {
    const std::uint64_t chunk_index = offset / master_.chunk_size();
    const auto key = std::make_pair(file, chunk_index);
    if (cfg_.client_caches_locations) {
        auto it = location_cache_.find(key);
        if (it != location_cache_.end()) {
            metrics().cache_hits.add();
            next(it->second);
            return;
        }
    }
    metrics().cache_misses.add();
    // Pay the master round trip: control to master, CPU work, control back.
    const auto sl =
        begin_span(tracer_, request_id, root, phase::kMasterLookup, engine_.now());
    master_node_.ingress->transfer(
        request_id, cfg_.control_bytes,
        [this, request_id, file, offset, key, sl, next = std::move(next)](double) mutable {
            master_node_.cpu->execute(
                request_id, master_node_.cpu->params().per_request_overhead,
                [this, request_id, file, offset, key, sl,
                 next = std::move(next)]() mutable {
                    ingress_->transfer(
                        request_id, cfg_.control_bytes,
                        [this, file, offset, key, sl, next = std::move(next)](double) {
                            finish_span(tracer_, sl, engine_.now());
                            // locate() lists replicas the master believes
                            // alive first; overwrite (never emplace) so a
                            // refreshed location replaces a stale one.
                            const ChunkLocation loc = master_.locate(file, offset);
                            if (cfg_.client_caches_locations)
                                location_cache_[key] = loc;
                            next(loc);
                        },
                        /*record=*/false);
                });
        },
        /*record=*/false);
}

void Client::try_replica(std::uint64_t request_id, std::string file,
                         std::uint64_t chunk_index, ChunkLocation loc,
                         std::uint64_t offset_in_chunk, std::uint64_t size,
                         trace::IoType type, trace::SpanId root, std::size_t attempt,
                         std::uint32_t round, std::uint32_t backoff_step,
                         std::shared_ptr<bool> request_failed,
                         std::function<void()> done) {
    if (loc.servers.empty())
        throw std::logic_error("Client::try_replica: no replicas");
    if (attempt >= loc.servers.size()) {
        // Every known replica is down. Evict the stale location and, if
        // retry rounds remain, back off and re-ask the master — it may
        // have re-replicated the chunk onto live servers by now.
        if (round < cfg_.client_retry_rounds) {
            metrics().retry_rounds.add();
            if (cfg_.client_caches_locations)
                location_cache_.erase(CacheKey(file, chunk_index));
            const double wait = backoff_wait(backoff_step);
            const auto sf = begin_span(tracer_, request_id, root, phase::kFailover,
                                       engine_.now());
            engine_.schedule_after(
                wait,
                [this, request_id, file = std::move(file), chunk_index,
                 offset_in_chunk, size, type, root, round, backoff_step, sf,
                 request_failed = std::move(request_failed),
                 done = std::move(done)]() mutable {
                    finish_span(tracer_, sf, engine_.now());
                    const std::uint64_t offset =
                        chunk_index * master_.chunk_size() + offset_in_chunk;
                    lookup(request_id, file, offset, root,
                           [this, request_id, file, chunk_index, offset_in_chunk,
                            size, type, root, round, backoff_step,
                            request_failed = std::move(request_failed),
                            done = std::move(done)](const ChunkLocation& fresh) mutable {
                               try_replica(request_id, std::move(file), chunk_index,
                                           fresh, offset_in_chunk, size, type, root,
                                           0, round + 1, backoff_step + 1,
                                           std::move(request_failed),
                                           std::move(done));
                           });
                });
            return;
        }
        // Out of retry rounds: the piece (and hence the request) fails.
        *request_failed = true;
        engine_.schedule_after(0.0, std::move(done));
        return;
    }
    ChunkServer* target = servers_.at(loc.servers[attempt]).get();
    if (target->failed()) {
        // Wait out the (backed-off) RPC timeout, demote the dead replica
        // in the cached location, then fail over to the next replica.
        const double wait = backoff_wait(backoff_step);
        ++failovers_;
        metrics().failovers.add();
        if (sink_ != nullptr) {
            trace::FailureRecord rec;
            rec.time = engine_.now();
            rec.request_id = request_id;
            rec.server = target->id();
            rec.kind = trace::FailureRecord::Kind::kFailover;
            rec.duration = wait;
            sink_->append(rec);
        }
        if (cfg_.client_caches_locations)
            demote_cached_replica(CacheKey(file, chunk_index), loc.servers[attempt]);
        const auto sf =
            begin_span(tracer_, request_id, root, phase::kFailover, engine_.now());
        engine_.schedule_after(
            wait,
            [this, request_id, file = std::move(file), chunk_index,
             loc = std::move(loc), offset_in_chunk, size, type, root, attempt, round,
             backoff_step, sf, request_failed = std::move(request_failed),
             done = std::move(done)]() mutable {
                finish_span(tracer_, sf, engine_.now());
                try_replica(request_id, std::move(file), chunk_index, std::move(loc),
                            offset_in_chunk, size, type, root, attempt + 1, round,
                            backoff_step + 1, std::move(request_failed),
                            std::move(done));
            });
        return;
    }
    const std::uint64_t lbn = lbn_of(loc.handle, offset_in_chunk);
    // Admission rejection is the server deliberately shedding load:
    // retrying would defeat the shed, so the piece (and the request)
    // fails immediately and the bounce lands in the failures stream.
    auto on_reject = [this, request_id, server = loc.servers[attempt],
                      request_failed, done]() {
        ++rejections_;
        metrics().rejected.add();
        if (sink_ != nullptr) {
            trace::FailureRecord rec;
            rec.time = engine_.now();
            rec.request_id = request_id;
            rec.server = server;
            rec.kind = trace::FailureRecord::Kind::kAdmissionReject;
            rec.duration = 0.0;
            sink_->append(rec);
        }
        *request_failed = true;
        done();
    };
    if (type == trace::IoType::kRead) {
        target->handle_read(request_id, lbn, size, root, *ingress_, std::move(done),
                            std::move(on_reject));
    } else {
        // The chosen server acts as primary; remaining healthy replicas
        // form the forwarding chain.
        std::vector<ChunkServer*> replicas;
        for (std::size_t r = 0; r < loc.servers.size(); ++r) {
            if (r == attempt) continue;
            ChunkServer* rep = servers_.at(loc.servers[r]).get();
            if (!rep->failed()) replicas.push_back(rep);
        }
        target->handle_write(request_id, lbn, size, root, *ingress_,
                             std::move(replicas), std::move(done),
                             std::move(on_reject));
    }
}

void Client::issue(std::uint64_t request_id, const std::string& file,
                   std::uint64_t offset, std::uint64_t size, trace::IoType type,
                   std::function<void(double)> on_done) {
    if (size == 0) throw std::invalid_argument("Client::issue: size 0");
    if (offset + size > master_.file_size(file))
        throw std::invalid_argument("Client::issue: beyond end of file " + file);
    const double arrival = engine_.now();
    // The RequestRecord is keyed at arrival but only emitted (or dropped,
    // on failure) at completion: hold the requests stream until then.
    if (sink_ != nullptr) sink_->open_hold(trace::StreamId::kRequests, arrival);
    const auto root =
        begin_span(tracer_, request_id, 0, phase::kRequest, arrival);

    // Split into per-chunk pieces.
    struct Piece {
        std::uint64_t offset;
        std::uint64_t size;
    };
    auto pieces = std::make_shared<std::vector<Piece>>();
    std::uint64_t cur = offset, remaining = size;
    while (remaining > 0) {
        const std::uint64_t in_chunk = cur % master_.chunk_size();
        const std::uint64_t take =
            std::min(remaining, master_.chunk_size() - in_chunk);
        pieces->push_back(Piece{cur, take});
        cur += take;
        remaining -= take;
    }

    auto outstanding = std::make_shared<std::size_t>(pieces->size());
    auto request_failed = std::make_shared<bool>(false);
    auto finish = [this, request_id, type, arrival, size, root, outstanding,
                   request_failed, on_done = std::move(on_done)]() {
        if (--*outstanding != 0) return;
        const double now = engine_.now();
        if (*request_failed) {
            ++failed_requests_;
            metrics().failed.add();
            if (sink_ != nullptr) {
                trace::FailureRecord rec;
                rec.time = now;
                rec.request_id = request_id;
                rec.kind = trace::FailureRecord::Kind::kRequestFailed;
                rec.duration = now - arrival;
                sink_->append(rec);
                // Failed requests emit no RequestRecord; release the hold.
                sink_->close_hold(trace::StreamId::kRequests, arrival);
            }
            finish_span(tracer_, root, now);
            if (on_done) on_done(-1.0);
            return;
        }
        if (sink_ != nullptr) {
            trace::RequestRecord rec;
            rec.request_id = request_id;
            rec.type = type;
            rec.arrival = arrival;
            rec.completion = now;
            rec.bytes = size;
            sink_->append(rec);
            sink_->close_hold(trace::StreamId::kRequests, arrival);
        }
        metrics().requests.add();
        metrics().latency_ns.observe_seconds(now - arrival);
        finish_span(tracer_, root, now);
        if (on_done) on_done(now - arrival);
    };

    for (const auto& piece : *pieces) {
        const std::uint64_t chunk_index = piece.offset / master_.chunk_size();
        lookup(request_id, file, piece.offset, root,
               [this, request_id, file, chunk_index, piece, type, root,
                request_failed, finish](const ChunkLocation& loc) {
                   try_replica(request_id, file, chunk_index, loc,
                               piece.offset % master_.chunk_size(), piece.size, type,
                               root, 0, 0, 0, request_failed, finish);
               });
    }
}

}  // namespace kooza::gfs

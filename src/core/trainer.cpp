#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>

#include "gfs/chunkserver.hpp"
#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "stats/fitting.hpp"
#include "stats/hypothesis.hpp"
#include "trace/binary.hpp"
#include "trace/features.hpp"

namespace kooza::core {

namespace {

// Wall-clock train timings are tagged `wall`: they are real elapsed time,
// vary run to run, and are excluded from deterministic exports.
struct TrainerMetrics {
    obs::Counter& runs = obs::counter("core.trainer.runs_total");
    obs::Counter& requests = obs::counter("core.trainer.requests_total");
    obs::Histogram& train_wall_ns = obs::histogram(
        "core.trainer.train_wall_ns", obs::Unit::kNanoseconds, /*wall=*/true);
    /// Every piece of sub-model work (the planning lanes and each fit-plan
    /// job); its sum over the train wall time is the pool's training
    /// parallelism.
    obs::Histogram& submodel_wall_ns = obs::histogram(
        "core.trainer.submodel_wall_ns", obs::Unit::kNanoseconds, /*wall=*/true);
    /// The same work split by stage: the arrival process and the Markov
    /// chains, and the structure queues.
    obs::Histogram& chain_fit_wall_ns = obs::histogram(
        "core.trainer.chain_fit_wall_ns", obs::Unit::kNanoseconds, /*wall=*/true);
    obs::Histogram& structure_fit_wall_ns = obs::histogram(
        "core.trainer.structure_fit_wall_ns", obs::Unit::kNanoseconds, /*wall=*/true);
};

TrainerMetrics& trainer_metrics() {
    static TrainerMetrics m;
    return m;
}

}  // namespace

std::vector<std::string> canonical_phases(trace::IoType t) {
    if (t == trace::IoType::kRead)
        return {"net.rx", "cpu.verify", "mem.buffer", "disk.io", "cpu.aggregate",
                "net.tx"};
    // Write path (gfs::ChunkServer::handle_write): the payload is verified,
    // buffered and written, then re-enters NET/DISK through the replica
    // fan-out before the post-I/O aggregate and the ack leaves on net.tx.
    return {"net.rx",       "cpu.verify",    "mem.buffer", "disk.io",
            "repl.forward", "cpu.aggregate", "net.tx"};
}

namespace {

std::uint64_t next_pow2(std::uint64_t x) {
    std::uint64_t p = 1;
    while (p < x && p < (1ull << 62)) p <<= 1;
    return p;
}

}  // namespace

Trainer::Trainer(TrainerConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.lbn_ranges == 0 || cfg_.util_levels == 0)
        throw std::invalid_argument("Trainer: state-space sizes must be >= 1");
}

struct Trainer::TrainInputs {
    std::vector<trace::RequestFeatures> features;
    std::uint64_t max_lbn = 0;    ///< over every storage record
    std::uint32_t max_bank = 0;   ///< over every memory record
    double verify_sum = 0.0;      ///< cpu.verify span seconds
    double verify_total = 0.0;    ///< cpu.verify + cpu.aggregate seconds
    StructureAccumulator structure;

    /// Fold spans into the verify split and the structure buffer.
    void observe_spans(const std::vector<trace::Span>& spans);
};

void Trainer::TrainInputs::observe_spans(const std::vector<trace::Span>& spans) {
    for (const auto& s : spans) {
        if (s.name == gfs::phase::kCpuVerify) verify_sum += s.duration();
        if (s.name == gfs::phase::kCpuVerify || s.name == gfs::phase::kCpuAggregate)
            verify_total += s.duration();
    }
    structure.observe(spans);
}

ServerModel Trainer::train(const trace::TraceSet& ts) const {
    // The input pass stays on the calling thread. Run on a pool worker,
    // its large buffers are freed into that worker's malloc arena, where
    // the caller's next stage cannot reuse them: at 4 lanes that cost +9%
    // peak RSS on a 60k-request capture to save 0.08 s on a 200k one.
    TrainInputs in;
    in.features = trace::extract_features(ts);
    for (const auto& r : ts.storage) in.max_lbn = std::max(in.max_lbn, r.lbn);
    for (const auto& r : ts.memory) in.max_bank = std::max(in.max_bank, r.bank);
    in.observe_spans(ts.spans);
    in.structure.seal();
    return train_impl(std::move(in));
}

ServerModel Trainer::train_streaming(const std::filesystem::path& dir,
                                     std::size_t chunk_rows) const {
    if (chunk_rows == 0)
        throw std::invalid_argument(
            "Trainer::train_streaming: chunk_rows must be >= 1");
    trace::ChunkedReader reader(dir);
    TrainInputs in;
    trace::FeatureAccumulator facc;
    trace::TraceSet chunk;
    const auto for_chunks = [&](trace::StreamId s, auto&& fn) {
        const std::uint64_t total = reader.rows(s);
        for (std::uint64_t off = 0; off < total; off += chunk_rows) {
            chunk = trace::TraceSet{};
            reader.read_rows(s, off,
                             std::min<std::uint64_t>(chunk_rows, total - off), chunk);
            fn(chunk);
        }
    };
    // Stream feed order mirrors FeatureAccumulator::observe(TraceSet) —
    // network, cpu, memory, storage, requests — so the per-request
    // accumulation is identical to the in-memory pass. (The failures
    // stream carries no model features.)
    for_chunks(trace::StreamId::kNetwork, [&](const trace::TraceSet& c) {
        for (const auto& r : c.network) facc.observe(r);
    });
    for_chunks(trace::StreamId::kCpu, [&](const trace::TraceSet& c) {
        for (const auto& r : c.cpu) facc.observe(r);
    });
    for_chunks(trace::StreamId::kMemory, [&](const trace::TraceSet& c) {
        for (const auto& r : c.memory) {
            facc.observe(r);
            in.max_bank = std::max(in.max_bank, r.bank);
        }
    });
    for_chunks(trace::StreamId::kStorage, [&](const trace::TraceSet& c) {
        for (const auto& r : c.storage) {
            facc.observe(r);
            in.max_lbn = std::max(in.max_lbn, r.lbn);
        }
    });
    for_chunks(trace::StreamId::kRequests, [&](const trace::TraceSet& c) {
        for (const auto& r : c.requests) facc.observe(r);
    });
    for_chunks(trace::StreamId::kSpans,
               [&](const trace::TraceSet& c) { in.observe_spans(c.spans); });
    in.features = facc.finish();
    in.structure.seal();
    return train_impl(std::move(in));
}

namespace {

/// Times one piece of sub-model work into the all-lanes busy total and
/// into its stage.
struct FitTimer {
    explicit FitTimer(obs::Histogram& stage)
        : busy(trainer_metrics().submodel_wall_ns), stage_timer(stage) {}
    obs::TimerScope busy, stage_timer;
};

/// One (sample -> distribution) fit of the flat fit plan. Each job writes
/// only its own result slot, so the plan's outcome does not depend on
/// the order jobs run in or the lane that runs them.
struct FitJob {
    std::size_t weight = 0;          ///< sample size: the scheduling key
    obs::Histogram* stage = nullptr; ///< chain_fit or structure_fit timer
    std::function<void()> run;
};

/// Run every job on the pool in one flat parallel_for, largest first so
/// the long fits start early and the short ones fill in behind them.
void run_fit_plan(std::vector<FitJob>& jobs) {
    std::stable_sort(jobs.begin(), jobs.end(), [](const FitJob& a, const FitJob& b) {
        return a.weight > b.weight;
    });
    par::pool().parallel_for(jobs.size(), [&](std::size_t i) {
        const FitTimer timer(*jobs[i].stage);
        jobs[i].run();
    });
}

}  // namespace

ServerModel Trainer::train_impl(TrainInputs in) const {
    const obs::TimerScope train_timer(trainer_metrics().train_wall_ns);
    const auto& features = in.features;
    if (features.empty())
        throw std::invalid_argument("Trainer::train: no completed requests in trace");
    trainer_metrics().runs.add();
    trainer_metrics().requests.add(features.size());
    std::vector<FitJob> jobs;
    obs::Histogram* const chain_fit = &trainer_metrics().chain_fit_wall_ns;
    obs::Histogram* const structure_fit = &trainer_metrics().structure_fit_wall_ns;

    // ---- Network sub-model: the arrival process. -------------------------
    std::vector<double> arrivals = trace::column_arrival(features);
    std::sort(arrivals.begin(), arrivals.end());
    std::unique_ptr<queueing::ArrivalProcess> arrival_model;
    std::vector<double> gaps;
    if (arrivals.size() < 3) {
        arrival_model = std::make_unique<queueing::PoissonArrivals>(1.0);
    } else {
        gaps.resize(arrivals.size() - 1);
        for (std::size_t i = 1; i < arrivals.size(); ++i)
            gaps[i - 1] = std::max(arrivals[i] - arrivals[i - 1], 1e-12);
        jobs.push_back({gaps.size(), chain_fit, [&] {
            auto exp_fit = stats::fit_exponential(gaps);
            const double ks = stats::ks_statistic(gaps, *exp_fit);
            if (ks <= cfg_.arrival_ks_threshold) {
                arrival_model =
                    std::make_unique<queueing::PoissonArrivals>(exp_fit->lambda());
            } else {
                // Divergent-from-Poisson stream: keep the empirical gaps.
                arrival_model = std::make_unique<queueing::TraceArrivals>(gaps);
            }
        }});
    }

    // ---- State spaces. ---------------------------------------------------
    std::uint64_t lbn_space = cfg_.lbn_space;
    if (lbn_space == 0) lbn_space = next_pow2(in.max_lbn + 1);
    std::size_t banks = cfg_.banks;
    if (banks == 0) banks = std::size_t(in.max_bank) + 1;
    auto lbn_disc = std::make_unique<markov::LbnRangeDiscretizer>(
        lbn_space, std::min<std::size_t>(cfg_.lbn_ranges, std::size_t(lbn_space)));
    auto bank_disc = std::make_unique<markov::BankDiscretizer>(banks);
    auto util_disc = std::make_unique<markov::UtilizationDiscretizer>(cfg_.util_levels);

    // ---- Split requests by type, in arrival order. -----------------------
    const trace::IoType types[2] = {trace::IoType::kRead, trace::IoType::kWrite};
    std::vector<trace::TraceId> ids[2];
    for (const auto& f : features)
        for (std::size_t t = 0; t < 2; ++t)
            if (f.storage_type == types[t]) ids[t].push_back(f.request_id);
    const double read_fraction = double(ids[0].size()) / double(features.size());

    // ---- Learn the CPU verify/aggregate split from span durations. -------
    double verify_fraction = 0.4;
    if (in.verify_total > 0.0 && in.verify_sum > 0.0 &&
        in.verify_sum < in.verify_total)
        verify_fraction = in.verify_sum / in.verify_total;

    // ---- Plan each type's sub-models. ------------------------------------
    // The serial part of every fit — transition counts, per-state
    // bucketing, variant counting — runs here; what is left is a flat
    // list of independent distribution fits.
    using Fitted = std::vector<std::unique_ptr<stats::Distribution>>;
    struct TypePlan {
        std::optional<markov::AnnotatedFitPlan> chains[3];  ///< storage, memory, cpu
        std::optional<StructureFitPlan> structure;  ///< empty: canonical fallback
        Fitted chain_fits[3], structure_fits;
    };
    const auto add_jobs = [&](const auto& plan, Fitted& out, obs::Histogram* stage) {
        out.resize(plan.samples());
        for (std::size_t i = 0; i < plan.samples(); ++i)
            jobs.push_back({plan.sample(i).size(), stage, [&plan, &out, i, this] {
                out[i] = stats::fit_or_empirical(plan.sample(i), cfg_.ks_threshold);
            }});
    };
    std::optional<TypePlan> plans[2];
    for (std::size_t t = 0; t < 2; ++t)
        if (!ids[t].empty()) plans[t].emplace();
    // Four lanes: each type's chains and each type's structure queue.
    par::pool().parallel_for(4, [&](std::size_t lane) {
        const std::size_t t = lane % 2;
        if (!plans[t]) return;
        if (lane >= 2) {
            const FitTimer timer(*structure_fit);
            // Structure from span trees of this type's requests.
            try {
                plans[t]->structure = in.structure.plan(ids[t]);
            } catch (const std::invalid_argument&) {
                if (!cfg_.fallback_structure) throw;
            }
            return;
        }
        const FitTimer timer(*chain_fit);
        markov::AnnotatedSequence storage_seq, memory_seq, cpu_seq;
        auto& storage_size = storage_seq.features[feature::kSize];
        auto& storage_net = storage_seq.features[feature::kNet];
        auto& memory_size = memory_seq.features[feature::kSize];
        auto& memory_type = memory_seq.features[feature::kType];
        auto& cpu_busy = cpu_seq.features[feature::kBusy];
        for (const auto& f : features) {
            if (f.storage_type != types[t]) continue;
            storage_seq.states.push_back(lbn_disc->state_of(double(f.first_lbn)));
            storage_size.push_back(double(f.storage_bytes));
            storage_net.push_back(double(f.network_bytes));
            memory_seq.states.push_back(bank_disc->state_of(double(f.first_bank)));
            memory_size.push_back(double(f.memory_bytes));
            memory_type.push_back(f.memory_type == trace::IoType::kWrite ? 1.0 : 0.0);
            cpu_seq.states.push_back(util_disc->state_of(f.cpu_utilization));
            cpu_busy.push_back(f.cpu_busy_seconds);
        }
        const markov::AnnotatedSequence* seqs[3] = {&storage_seq, &memory_seq, &cpu_seq};
        const std::size_t n_states[3] = {lbn_disc->n_states(), bank_disc->n_states(),
                                         util_disc->n_states()};
        for (std::size_t c = 0; c < 3; ++c)
            plans[t]->chains[c] = markov::AnnotatedMarkovChain::plan(
                std::span(seqs[c], 1), n_states[c], cfg_.laplace_alpha,
                cfg_.max_state_samples);
    });
    for (auto& tp : plans) {
        if (!tp) continue;
        for (std::size_t c = 0; c < 3; ++c)
            add_jobs(*tp->chains[c], tp->chain_fits[c], chain_fit);
        if (tp->structure) add_jobs(*tp->structure, tp->structure_fits, structure_fit);
    }

    // ---- Every distribution fit, across the pool. ------------------------
    run_fit_plan(jobs);

    std::optional<TypeModel> models[2];
    for (std::size_t t = 0; t < 2; ++t) {
        if (!plans[t]) continue;
        auto& tp = *plans[t];
        auto chain = [&tp](std::size_t c) {
            return std::move(*tp.chains[c]).finish(std::move(tp.chain_fits[c]));
        };
        auto structure =
            tp.structure
                ? std::move(*tp.structure).finish(std::move(tp.structure_fits))
                : StructureQueue::canonical(canonical_phases(types[t]));
        models[t] = TypeModel{chain(0), chain(1), chain(2), std::move(structure)};
    }

    return ServerModel(cfg_.workload_name, std::move(arrival_model), read_fraction,
                       std::move(models[0]), std::move(models[1]),
                       std::move(lbn_disc), std::move(bank_disc), std::move(util_disc),
                       verify_fraction);
}

}  // namespace kooza::core

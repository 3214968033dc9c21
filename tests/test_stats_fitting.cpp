// Tests for parameter estimation and KS-based model selection: each
// estimator must recover known parameters from synthetic samples, and
// fit_best must identify the generating family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <span>

#include "sim/rng.hpp"
#include "stats/empirical.hpp"
#include "stats/fitting.hpp"
#include "stats/hypothesis.hpp"

namespace {

using namespace kooza::stats;
using kooza::sim::Rng;

std::vector<double> draw(const Distribution& d, int n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> xs(n);
    for (auto& x : xs) x = d.sample(rng);
    return xs;
}

TEST(FitExponential, RecoversRate) {
    Exponential truth(2.5);
    auto fit = fit_exponential(draw(truth, 20000, 1));
    EXPECT_NEAR(fit->lambda(), 2.5, 0.1);
}

TEST(FitExponential, RejectsBadInput) {
    EXPECT_THROW(fit_exponential({}), std::invalid_argument);
    const std::vector<double> neg{-1.0, -2.0};
    EXPECT_THROW(fit_exponential(neg), std::invalid_argument);
}

TEST(FitNormal, RecoversParams) {
    Normal truth(10.0, 3.0);
    auto fit = fit_normal(draw(truth, 20000, 2));
    EXPECT_NEAR(fit->mean(), 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(fit->variance()), 3.0, 0.1);
}

TEST(FitNormal, ConstantRejected) {
    const std::vector<double> xs{5.0, 5.0, 5.0};
    EXPECT_THROW(fit_normal(xs), std::invalid_argument);
}

TEST(FitLogNormal, RecoversParams) {
    LogNormal truth(1.0, 0.4);
    auto fit = fit_lognormal(draw(truth, 20000, 3));
    EXPECT_NEAR(fit->mu(), 1.0, 0.05);
    EXPECT_NEAR(fit->sigma(), 0.4, 0.05);
}

TEST(FitLogNormal, NegativeDataRejected) {
    const std::vector<double> xs{1.0, -1.0};
    EXPECT_THROW(fit_lognormal(xs), std::invalid_argument);
}

TEST(FitPareto, RecoversParams) {
    Pareto truth(2.0, 3.0);
    auto fit = fit_pareto(draw(truth, 20000, 4));
    EXPECT_NEAR(fit->xm(), 2.0, 0.01);
    EXPECT_NEAR(fit->alpha(), 3.0, 0.15);
}

TEST(FitWeibull, RecoversParams) {
    Weibull truth(1.7, 3.0);
    auto fit = fit_weibull(draw(truth, 20000, 5));
    EXPECT_NEAR(fit->shape(), 1.7, 0.1);
    EXPECT_NEAR(fit->scale(), 3.0, 0.1);
}

TEST(FitGamma, RecoversParams) {
    Gamma truth(4.0, 1.5);
    auto fit = fit_gamma(draw(truth, 20000, 6));
    EXPECT_NEAR(fit->mean(), 6.0, 0.2);
    EXPECT_NEAR(fit->variance(), 9.0, 0.7);
}

TEST(FitUniform, CoversSample) {
    Uniform truth(3.0, 8.0);
    auto fit = fit_uniform(draw(truth, 5000, 7));
    EXPECT_NEAR(fit->lo(), 3.0, 0.05);
    EXPECT_NEAR(fit->hi(), 8.0, 0.05);
}

struct BestCase {
    std::string expected;
    std::function<std::unique_ptr<Distribution>()> make;
};

class FitBestIdentifies : public ::testing::TestWithParam<std::string> {};

TEST_P(FitBestIdentifies, GeneratingFamilyWins) {
    const std::string which = GetParam();
    std::unique_ptr<Distribution> truth;
    if (which == "exponential") truth = std::make_unique<Exponential>(1.0);
    if (which == "normal") truth = std::make_unique<Normal>(50.0, 5.0);
    if (which == "pareto") truth = std::make_unique<Pareto>(1.0, 1.2);
    if (which == "uniform") truth = std::make_unique<Uniform>(10.0, 20.0);
    ASSERT_NE(truth, nullptr);
    auto best = fit_best(draw(*truth, 8000, 42));
    if (which == "exponential") {
        // Weibull(1, s) and Gamma(1, s) coincide with the exponential; any
        // of the three may win the KS race on a finite sample.
        EXPECT_TRUE(best.dist->name() == "exponential" ||
                    best.dist->name() == "weibull" || best.dist->name() == "gamma")
            << best.dist->describe();
    } else {
        EXPECT_EQ(best.dist->name(), which);
    }
    EXPECT_LT(best.ks, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Families, FitBestIdentifies,
                         ::testing::Values("exponential", "normal", "pareto",
                                           "uniform"),
                         [](const auto& info) { return info.param; });

TEST(FitAll, SortedByKs) {
    Exponential truth(1.0);
    const Family fams[] = {Family::kExponential, Family::kNormal, Family::kUniform};
    auto fits = fit_all(draw(truth, 4000, 8), fams);
    ASSERT_GE(fits.size(), 2u);
    for (std::size_t i = 1; i < fits.size(); ++i)
        EXPECT_LE(fits[i - 1].ks, fits[i].ks);
}

TEST(FitAll, ConstantSampleGivesDeterministic) {
    const std::vector<double> xs{7.0, 7.0, 7.0};
    const Family fams[] = {Family::kExponential, Family::kNormal};
    auto fits = fit_all(xs, fams);
    ASSERT_EQ(fits.size(), 1u);
    EXPECT_EQ(fits[0].dist->name(), "deterministic");
    EXPECT_DOUBLE_EQ(fits[0].ks, 0.0);
}

TEST(FitAll, SkipsInapplicableFamilies) {
    // Data with negatives: lognormal/pareto/weibull must be skipped, not throw.
    Normal truth(0.0, 1.0);
    const Family fams[] = {Family::kLogNormal, Family::kPareto, Family::kWeibull,
                           Family::kNormal};
    auto fits = fit_all(draw(truth, 2000, 9), fams);
    ASSERT_EQ(fits.size(), 1u);
    EXPECT_EQ(fits[0].dist->name(), "normal");
}

TEST(FitOrEmpirical, ParametricWhenGoodFit) {
    Exponential truth(2.0);
    auto d = fit_or_empirical(draw(truth, 5000, 10), 0.05);
    // Must stay parametric (exponential or a generalization), not empirical.
    EXPECT_NE(d->name(), "empirical");
    EXPECT_NEAR(d->mean(), 0.5, 0.05);
}

TEST(FitOrEmpirical, EmpiricalFallbackOnMixture) {
    // Strongly bimodal data fits no single family well.
    Rng rng(11);
    std::vector<double> xs;
    for (int i = 0; i < 2000; ++i)
        xs.push_back(rng.bernoulli(0.5) ? rng.normal(1.0, 0.01)
                                        : rng.normal(100.0, 0.01));
    auto d = fit_or_empirical(xs, 0.05);
    EXPECT_EQ(d->name(), "empirical");
}

TEST(FitOrEmpirical, ConstantGivesDeterministic) {
    const std::vector<double> xs{4.0, 4.0};
    auto d = fit_or_empirical(xs);
    EXPECT_EQ(d->name(), "deterministic");
}

// ---- Sort-once model selection vs a per-family reference. ---------------
//
// fit_all/fit_or_empirical sort one copy of the sample and score every
// family on it; the reference below is the straightforward version that
// lets ks_statistic copy and sort per family. Both must agree bitwise.

const Family kDefaultFamilies[] = {Family::kExponential, Family::kNormal,
                                   Family::kLogNormal,   Family::kPareto,
                                   Family::kWeibull,     Family::kGamma,
                                   Family::kUniform};

std::vector<Fit> reference_fit_all(std::span<const double> xs,
                                   std::span<const Family> families) {
    std::vector<Fit> fits;
    if (std::all_of(xs.begin(), xs.end(), [&](double x) { return x == xs.front(); })) {
        fits.push_back(Fit{std::make_unique<Deterministic>(xs.front()), 0.0});
        return fits;
    }
    for (Family f : families) {
        std::unique_ptr<Distribution> d;
        try {
            switch (f) {
                case Family::kDeterministic: continue;
                case Family::kUniform: d = fit_uniform(xs); break;
                case Family::kExponential: d = fit_exponential(xs); break;
                case Family::kNormal: d = fit_normal(xs); break;
                case Family::kLogNormal: d = fit_lognormal(xs); break;
                case Family::kPareto: d = fit_pareto(xs); break;
                case Family::kWeibull: d = fit_weibull(xs); break;
                case Family::kGamma: d = fit_gamma(xs); break;
            }
        } catch (const std::invalid_argument&) {
            continue;
        }
        const double ks = ks_statistic(xs, *d);
        fits.push_back(Fit{std::move(d), ks});
    }
    std::sort(fits.begin(), fits.end(),
              [](const Fit& a, const Fit& b) { return a.ks < b.ks; });
    return fits;
}

std::unique_ptr<Distribution> reference_fit_or_empirical(std::span<const double> xs,
                                                         double ks_threshold) {
    auto fits = reference_fit_all(xs, kDefaultFamilies);
    if (fits.front().dist->name() == "deterministic" || fits.front().ks <= ks_threshold)
        return std::move(fits.front().dist);
    return std::make_unique<Empirical>(xs);
}

/// A distribution's stored parameters, for bitwise comparison.
std::vector<double> params(const Distribution& d) {
    if (auto* p = dynamic_cast<const Deterministic*>(&d)) return {p->value()};
    if (auto* p = dynamic_cast<const Uniform*>(&d)) return {p->lo(), p->hi()};
    if (auto* p = dynamic_cast<const Exponential*>(&d)) return {p->lambda()};
    if (auto* p = dynamic_cast<const Normal*>(&d)) return {p->mean(), p->sigma()};
    if (auto* p = dynamic_cast<const LogNormal*>(&d)) return {p->mu(), p->sigma()};
    if (auto* p = dynamic_cast<const Pareto*>(&d)) return {p->xm(), p->alpha()};
    if (auto* p = dynamic_cast<const Weibull*>(&d)) return {p->shape(), p->scale()};
    if (auto* p = dynamic_cast<const Gamma*>(&d)) return {p->shape(), p->scale()};
    if (auto* p = dynamic_cast<const Empirical*>(&d)) return p->sorted();
    ADD_FAILURE() << "unknown family " << d.name();
    return {};
}

void expect_same_fits(std::span<const double> xs) {
    const auto got = fit_all(xs, kDefaultFamilies);
    const auto want = reference_fit_all(xs, kDefaultFamilies);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].dist->name(), want[i].dist->name()) << "rank " << i;
        EXPECT_EQ(got[i].ks, want[i].ks) << want[i].dist->name();
        EXPECT_EQ(params(*got[i].dist), params(*want[i].dist)) << want[i].dist->name();
    }
}

/// Fixtures: continuous, heavily tied, and mixed-sign samples in an
/// order that is not sorted.
std::vector<double> lognormal_sample() { return draw(LogNormal(1.0, 0.6), 3000, 21); }

std::vector<double> tied_sample() {
    // Twelve distinct values, like a near-constant phase duration.
    Rng rng(22);
    std::vector<double> xs(5000);
    for (auto& x : xs) x = 5.4e-05 + 1e-12 * double(rng.uniform_int(0, 11));
    return xs;
}

TEST(SortOnceFit, MatchesPerFamilyReference) {
    expect_same_fits(lognormal_sample());
    expect_same_fits(draw(Weibull(1.7, 3.0), 2000, 23));
    expect_same_fits(draw(Gamma(2.5, 0.3), 2000, 24));
}

TEST(SortOnceFit, TiesMatchReference) {
    expect_same_fits(tied_sample());
    // Quantized sizes: a handful of block sizes repeated.
    Rng rng(25);
    std::vector<double> sizes(4000);
    for (auto& x : sizes) x = 4096.0 * double(1 << rng.uniform_int(0, 4));
    expect_same_fits(sizes);
}

TEST(SortOnceFit, ConstantSample) {
    const std::vector<double> xs(50, 3.25);
    expect_same_fits(xs);
    const auto d = fit_or_empirical(xs);
    EXPECT_EQ(params(*d), params(*reference_fit_or_empirical(xs, 0.08)));
}

TEST(SortOnceFit, NonPositiveDataSkipsFamilies) {
    // Zeros and negatives rule out lognormal, pareto, weibull and gamma.
    std::vector<double> xs = draw(Normal(0.5, 2.0), 2000, 26);
    xs[7] = 0.0;
    expect_same_fits(xs);
    const auto fits = fit_all(xs, kDefaultFamilies);
    for (const auto& f : fits) {
        EXPECT_NE(f.dist->name(), "lognormal");
        EXPECT_NE(f.dist->name(), "pareto");
        EXPECT_NE(f.dist->name(), "weibull");
        EXPECT_NE(f.dist->name(), "gamma");
    }
}

TEST(SortOnceFit, ThresholdIsInclusive) {
    // A threshold exactly at the best KS keeps the parametric fit; one ulp
    // below falls back to the empirical distribution.
    for (const auto& xs : {lognormal_sample(), tied_sample()}) {
        const double best = reference_fit_all(xs, kDefaultFamilies).front().ks;
        for (double thr : {best, std::nextafter(best, 0.0)}) {
            const auto got = fit_or_empirical(xs, thr);
            const auto want = reference_fit_or_empirical(xs, thr);
            EXPECT_EQ(got->name(), want->name());
            EXPECT_EQ(params(*got), params(*want));
        }
        EXPECT_NE(fit_or_empirical(xs, best)->name(), "empirical");
        EXPECT_EQ(fit_or_empirical(xs, std::nextafter(best, 0.0))->name(), "empirical");
    }
}

TEST(SortOnceFit, DefaultThresholdMatchesReference) {
    // At the default 0.08 one fixture stays parametric and one falls back.
    const auto smooth = lognormal_sample();
    EXPECT_NE(fit_or_empirical(smooth, 0.08)->name(), "empirical");
    EXPECT_EQ(params(*fit_or_empirical(smooth, 0.08)),
              params(*reference_fit_or_empirical(smooth, 0.08)));
    const auto tied = tied_sample();
    EXPECT_EQ(fit_or_empirical(tied, 0.08)->name(), "empirical");
    EXPECT_EQ(params(*fit_or_empirical(tied, 0.08)),
              params(*reference_fit_or_empirical(tied, 0.08)));
}

TEST(SortOnceFit, EmpiricalFallbackKeepsSortedSample) {
    Rng rng(27);
    std::vector<double> xs;
    for (int i = 0; i < 2000; ++i)
        xs.push_back(rng.bernoulli(0.5) ? rng.normal(1.0, 0.01) : rng.normal(100.0, 0.01));
    const auto d = fit_or_empirical(xs, 0.05);
    ASSERT_EQ(d->name(), "empirical");
    EXPECT_EQ(params(*d), params(Empirical(xs)));
}

TEST(FamilyName, AllNamed) {
    EXPECT_EQ(family_name(Family::kExponential), "exponential");
    EXPECT_EQ(family_name(Family::kDeterministic), "deterministic");
    EXPECT_EQ(family_name(Family::kGamma), "gamma");
}

}  // namespace

// Tests for KS / chi-square tests and the special functions behind them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.hpp"
#include "stats/distributions.hpp"
#include "stats/hypothesis.hpp"
#include "stats/special.hpp"

namespace {

using namespace kooza::stats;
using kooza::sim::Rng;

std::vector<double> draw(const Distribution& d, int n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> xs(n);
    for (auto& x : xs) x = d.sample(rng);
    return xs;
}

TEST(Special, NormalCdfKnownValues) {
    EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
    EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(Special, NormalQuantileInvertsCdf) {
    for (double p : {0.01, 0.1, 0.5, 0.9, 0.99})
        EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-8);
    EXPECT_THROW((void)normal_quantile(0.0), std::invalid_argument);
    EXPECT_THROW((void)normal_quantile(1.0), std::invalid_argument);
}

TEST(Special, GammaPBoundaries) {
    EXPECT_DOUBLE_EQ(gamma_p(2.0, 0.0), 0.0);
    EXPECT_NEAR(gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-10);
    EXPECT_NEAR(gamma_p(2.0, 100.0), 1.0, 1e-10);
    EXPECT_NEAR(gamma_p(0.5, 0.5) + gamma_q(0.5, 0.5), 1.0, 1e-12);
    EXPECT_THROW((void)gamma_p(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW((void)gamma_p(1.0, -1.0), std::invalid_argument);
}

TEST(Special, KolmogorovSurvival) {
    EXPECT_DOUBLE_EQ(kolmogorov_survival(0.0), 1.0);
    EXPECT_NEAR(kolmogorov_survival(1.36), 0.05, 0.005);  // classic 5% point
    EXPECT_LT(kolmogorov_survival(3.0), 1e-6);
}

TEST(Special, ChiSquareSurvival) {
    // chi2(1): P(X > 3.841) ~ 0.05.
    EXPECT_NEAR(chi_square_survival(3.841, 1.0), 0.05, 0.002);
    EXPECT_DOUBLE_EQ(chi_square_survival(0.0, 3.0), 1.0);
}

TEST(KsTest, AcceptsTrueDistribution) {
    Exponential d(1.0);
    const auto r = ks_test(draw(d, 2000, 1), d);
    EXPECT_FALSE(r.reject(0.01));
    EXPECT_LT(r.statistic, 0.05);
}

TEST(KsTest, RejectsWrongDistribution) {
    Exponential truth(1.0);
    Normal wrong(1.0, 1.0);
    const auto r = ks_test(draw(truth, 2000, 2), wrong);
    EXPECT_TRUE(r.reject(0.01));
}

TEST(KsStatistic, ExactSmallSample) {
    // Sample {0.5} vs U(0,1): ECDF jumps 0 -> 1 at 0.5, so D = 0.5.
    Uniform u(0.0, 1.0);
    const std::vector<double> xs{0.5};
    EXPECT_DOUBLE_EQ(ks_statistic(xs, u), 0.5);
    EXPECT_THROW((void)ks_statistic({}, u), std::invalid_argument);
}

TEST(KsStatistic, TiedPointsMatchPerPointCdf) {
    // Three-way ties at a spacing far below 1: tied points share one cdf
    // evaluation, neighbouring distinct points must not.
    std::vector<double> sorted;
    for (int i = 0; i < 900; ++i) sorted.push_back(1e-10 * double(i / 3));
    const Uniform dist(0.0, 1e-10 * 300.0);
    const double n = double(sorted.size());
    double want = 0.0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const double f = dist.cdf(sorted[i]);
        want = std::max(want, std::fabs(double(i + 1) / n - f));
        want = std::max(want, std::fabs(f - double(i) / n));
    }
    EXPECT_EQ(ks_statistic_sorted(sorted, dist), want);
    std::vector<double> shuffled(sorted.rbegin(), sorted.rend());
    EXPECT_EQ(ks_statistic(shuffled, dist), want);
    EXPECT_THROW((void)ks_statistic_sorted({}, dist), std::invalid_argument);
}

TEST(KsTwoSample, SameSourceAccepted) {
    Normal d(0.0, 1.0);
    const auto r = ks_test_two_sample(draw(d, 1500, 3), draw(d, 1500, 4));
    EXPECT_FALSE(r.reject(0.01));
}

TEST(KsTwoSample, ShiftedSourceRejected) {
    Normal a(0.0, 1.0), b(1.0, 1.0);
    const auto r = ks_test_two_sample(draw(a, 1500, 5), draw(b, 1500, 6));
    EXPECT_TRUE(r.reject(0.001));
}

TEST(KsTwoSample, IdenticalSamplesZeroStatistic) {
    const std::vector<double> xs{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(ks_statistic_two_sample(xs, xs), 0.0);
}

TEST(ChiSquare, AcceptsTrueDistribution) {
    Exponential d(2.0);
    const auto r = chi_square_test(draw(d, 3000, 7), d, 10, 1);
    EXPECT_FALSE(r.reject(0.01));
}

TEST(ChiSquare, RejectsWrongDistribution) {
    Exponential truth(2.0);
    Uniform wrong(0.0, 2.0);
    const auto r = chi_square_test(draw(truth, 3000, 8), wrong, 10, 0);
    EXPECT_TRUE(r.reject(0.001));
}

TEST(ChiSquare, ParameterValidation) {
    Exponential d(1.0);
    const std::vector<double> xs{1.0, 2.0};
    EXPECT_THROW((void)chi_square_test(xs, d, 1, 0), std::invalid_argument);
    EXPECT_THROW((void)chi_square_test(xs, d, 3, 2), std::invalid_argument);
    EXPECT_THROW((void)chi_square_test({}, d, 5, 0), std::invalid_argument);
}

}  // namespace

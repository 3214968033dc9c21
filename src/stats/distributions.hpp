// Parametric distribution families.
//
// The paper's modeling pipeline (Feitelson '02, Li '10) fits candidate
// families to observed marginals (inter-arrival times, sizes, service
// demands) and selects by Kolmogorov-Smirnov distance. Distribution is the
// common interface those fits return; see fitting.hpp for the estimators.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace kooza::stats {

/// Abstract continuous distribution over (a subset of) the reals.
class Distribution {
public:
    virtual ~Distribution() = default;

    /// P(X <= x).
    [[nodiscard]] virtual double cdf(double x) const = 0;

    /// Inverse CDF for p in (0,1). Default implementation bisects cdf();
    /// closed-form families override.
    [[nodiscard]] virtual double quantile(double p) const;

    [[nodiscard]] virtual double mean() const = 0;
    [[nodiscard]] virtual double variance() const = 0;

    /// Draw one variate.
    [[nodiscard]] virtual double sample(sim::Rng& rng) const = 0;

    /// Family name, e.g. "exponential".
    [[nodiscard]] virtual std::string name() const = 0;

    /// Human-readable family + parameters, e.g. "exponential(lambda=2.5)".
    [[nodiscard]] virtual std::string describe() const = 0;

    [[nodiscard]] virtual std::unique_ptr<Distribution> clone() const = 0;

protected:
    /// Bisection fallback for quantile(); search_lo/hi bound the support.
    [[nodiscard]] double quantile_by_bisection(double p, double lo, double hi) const;
};

/// Point mass at `value` (used for constant request features).
class Deterministic final : public Distribution {
public:
    explicit Deterministic(double value) : value_(value) {}
    [[nodiscard]] double cdf(double x) const override { return x >= value_ ? 1.0 : 0.0; }
    [[nodiscard]] double quantile(double) const override { return value_; }
    [[nodiscard]] double mean() const override { return value_; }
    [[nodiscard]] double variance() const override { return 0.0; }
    [[nodiscard]] double sample(sim::Rng&) const override { return value_; }
    [[nodiscard]] std::string name() const override { return "deterministic"; }
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Distribution> clone() const override {
        return std::make_unique<Deterministic>(*this);
    }
    [[nodiscard]] double value() const noexcept { return value_; }

private:
    double value_;
};

/// Uniform on [lo, hi].
class Uniform final : public Distribution {
public:
    Uniform(double lo, double hi);
    [[nodiscard]] double cdf(double x) const override;
    [[nodiscard]] double quantile(double p) const override;
    [[nodiscard]] double mean() const override { return 0.5 * (lo_ + hi_); }
    [[nodiscard]] double variance() const override {
        return (hi_ - lo_) * (hi_ - lo_) / 12.0;
    }
    [[nodiscard]] double sample(sim::Rng& rng) const override;
    [[nodiscard]] std::string name() const override { return "uniform"; }
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Distribution> clone() const override {
        return std::make_unique<Uniform>(*this);
    }
    [[nodiscard]] double lo() const noexcept { return lo_; }
    [[nodiscard]] double hi() const noexcept { return hi_; }

private:
    double lo_, hi_;
};

/// Exponential with rate lambda (mean 1/lambda).
class Exponential final : public Distribution {
public:
    explicit Exponential(double lambda);
    [[nodiscard]] double cdf(double x) const override;
    [[nodiscard]] double quantile(double p) const override;
    [[nodiscard]] double mean() const override { return 1.0 / lambda_; }
    [[nodiscard]] double variance() const override { return 1.0 / (lambda_ * lambda_); }
    [[nodiscard]] double sample(sim::Rng& rng) const override;
    [[nodiscard]] std::string name() const override { return "exponential"; }
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Distribution> clone() const override {
        return std::make_unique<Exponential>(*this);
    }
    [[nodiscard]] double lambda() const noexcept { return lambda_; }

private:
    double lambda_;
};

class Normal final : public Distribution {
public:
    Normal(double mean, double stddev);
    [[nodiscard]] double cdf(double x) const override;
    [[nodiscard]] double quantile(double p) const override;
    [[nodiscard]] double mean() const override { return mean_; }
    [[nodiscard]] double variance() const override { return sd_ * sd_; }
    /// The stored standard deviation (sqrt(variance()) may differ in the
    /// last bit).
    [[nodiscard]] double sigma() const noexcept { return sd_; }
    [[nodiscard]] double sample(sim::Rng& rng) const override;
    [[nodiscard]] std::string name() const override { return "normal"; }
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Distribution> clone() const override {
        return std::make_unique<Normal>(*this);
    }

private:
    double mean_, sd_;
};

/// Lognormal: log X ~ Normal(mu, sigma).
class LogNormal final : public Distribution {
public:
    LogNormal(double mu, double sigma);
    [[nodiscard]] double cdf(double x) const override;
    [[nodiscard]] double quantile(double p) const override;
    [[nodiscard]] double mean() const override;
    [[nodiscard]] double variance() const override;
    [[nodiscard]] double sample(sim::Rng& rng) const override;
    [[nodiscard]] std::string name() const override { return "lognormal"; }
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Distribution> clone() const override {
        return std::make_unique<LogNormal>(*this);
    }
    [[nodiscard]] double mu() const noexcept { return mu_; }
    [[nodiscard]] double sigma() const noexcept { return sigma_; }

private:
    double mu_, sigma_;
};

/// Pareto with scale xm and shape alpha: the heavy-tail family the paper's
/// survey highlights for DC request sizes.
class Pareto final : public Distribution {
public:
    Pareto(double xm, double alpha);
    [[nodiscard]] double cdf(double x) const override;
    [[nodiscard]] double quantile(double p) const override;
    [[nodiscard]] double mean() const override;       ///< inf if alpha <= 1
    [[nodiscard]] double variance() const override;   ///< inf if alpha <= 2
    [[nodiscard]] double sample(sim::Rng& rng) const override;
    [[nodiscard]] std::string name() const override { return "pareto"; }
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Distribution> clone() const override {
        return std::make_unique<Pareto>(*this);
    }
    [[nodiscard]] double xm() const noexcept { return xm_; }
    [[nodiscard]] double alpha() const noexcept { return alpha_; }

private:
    double xm_, alpha_;
};

class Weibull final : public Distribution {
public:
    Weibull(double shape, double scale);
    [[nodiscard]] double cdf(double x) const override;
    [[nodiscard]] double quantile(double p) const override;
    [[nodiscard]] double mean() const override;
    [[nodiscard]] double variance() const override;
    [[nodiscard]] double sample(sim::Rng& rng) const override;
    [[nodiscard]] std::string name() const override { return "weibull"; }
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Distribution> clone() const override {
        return std::make_unique<Weibull>(*this);
    }
    [[nodiscard]] double shape() const noexcept { return shape_; }
    [[nodiscard]] double scale() const noexcept { return scale_; }

private:
    double shape_, scale_;
};

/// Gamma with shape k and scale theta.
class Gamma final : public Distribution {
public:
    Gamma(double shape, double scale);
    [[nodiscard]] double cdf(double x) const override;
    [[nodiscard]] double mean() const override { return shape_ * scale_; }
    [[nodiscard]] double variance() const override { return shape_ * scale_ * scale_; }
    [[nodiscard]] double sample(sim::Rng& rng) const override;
    [[nodiscard]] std::string name() const override { return "gamma"; }
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Distribution> clone() const override {
        return std::make_unique<Gamma>(*this);
    }
    [[nodiscard]] double quantile(double p) const override;
    [[nodiscard]] double shape() const noexcept { return shape_; }
    [[nodiscard]] double scale() const noexcept { return scale_; }

private:
    double shape_, scale_;
};

/// Zipf popularity sampler over n ranked items: P(i) proportional to
/// 1/(i+1)^s. Not a Distribution (discrete rank domain); used for file
/// popularity in the web-search workload.
class ZipfSampler {
public:
    ZipfSampler(std::size_t n, double s);
    [[nodiscard]] std::size_t sample(sim::Rng& rng) const;
    [[nodiscard]] std::size_t n() const noexcept { return cdf_.size(); }
    [[nodiscard]] double s() const noexcept { return s_; }
    /// Probability of rank i.
    [[nodiscard]] double pmf(std::size_t i) const;

private:
    std::vector<double> cdf_;
    double s_;
};

}  // namespace kooza::stats

#include "stats/empirical.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace kooza::stats {

Empirical::Empirical(std::span<const double> xs) : xs_(xs.begin(), xs.end()) {
    if (xs_.empty()) throw std::invalid_argument("Empirical: empty sample");
    std::sort(xs_.begin(), xs_.end());
}

Empirical::Empirical(Sorted, std::vector<double> sorted) : xs_(std::move(sorted)) {
    if (xs_.empty()) throw std::invalid_argument("Empirical: empty sample");
}

std::unique_ptr<Empirical> Empirical::from_sorted(std::vector<double> sorted) {
    return std::unique_ptr<Empirical>(new Empirical(Sorted{}, std::move(sorted)));
}

double Empirical::cdf(double x) const {
    auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
    return double(it - xs_.begin()) / double(xs_.size());
}

double Empirical::quantile(double p) const {
    if (!(p >= 0.0 && p <= 1.0))
        throw std::invalid_argument("Empirical::quantile: p outside [0,1]");
    return quantile_sorted(xs_, p);
}

double Empirical::mean() const { return kooza::stats::mean(xs_); }
double Empirical::variance() const { return kooza::stats::variance(xs_); }

double Empirical::sample(sim::Rng& rng) const {
    return quantile(rng.uniform(0.0, 1.0));
}

std::string Empirical::describe() const {
    std::ostringstream os;
    os << "empirical(n=" << xs_.size() << ", mean=" << mean() << ")";
    return os.str();
}

}  // namespace kooza::stats

#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace nanocache::math {

double mean(const std::vector<double>& values) {
  NC_REQUIRE(!values.empty(), "mean of empty sample");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double sample_stddev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double ss = 0.0;
  for (double v : values) ss += (v - m) * (v - m);
  return std::sqrt(ss / static_cast<double>(values.size() - 1));
}

double percentile(std::vector<double> values, double q) {
  NC_REQUIRE(!values.empty(), "percentile of empty sample");
  NC_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  std::sort(values.begin(), values.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  return values[idx];
}

}  // namespace nanocache::math

// Time-series rendering for per-tick metrics (§V-C: "we also collected
// data on the average work per tick").  Renders a downsampled ASCII area
// chart of a tick series, plus a multi-series comparison layout used by
// the work-per-tick reproduction bench.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dhtlb::viz {

struct SeriesRenderOptions {
  std::size_t width = 72;    // columns (ticks are bucketed to fit)
  std::size_t height = 12;   // rows of the plot area
  std::string title;
  std::string y_label = "work/tick";
};

/// Buckets `series` into `width` columns (mean per bucket) and renders
/// an ASCII area chart with a y-axis scale.  Empty input renders the
/// title only.
std::string render_series(std::span<const std::uint64_t> series,
                          const SeriesRenderOptions& options = {});

/// Renders several series on a shared y-scale, stacked vertically with
/// their labels — the layout used to compare strategies' throughput
/// curves over the same job.
struct LabeledSeries {
  std::string label;
  std::vector<std::uint64_t> values;
};
std::string render_series_comparison(
    const std::vector<LabeledSeries>& series,
    const SeriesRenderOptions& options = {});

/// Mean of each of `buckets` equal slices of the series (the downsample
/// kernel used by render_series; exposed for tests).
std::vector<double> bucket_means(std::span<const std::uint64_t> series,
                                 std::size_t buckets);

}  // namespace dhtlb::viz

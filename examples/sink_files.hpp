// Observability sink files for the command-line programs (dhtlb_cli,
// dhtlb_scenario): opens the Chrome trace and the per-tick metrics JSONL
// named by --trace/--metrics and owns both the streams and the sinks.
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dhtlb::examples {

struct SinkFiles {
  std::string trace_path;
  std::string metrics_path;
  std::ofstream trace_file;
  std::ofstream metrics_file;
  std::unique_ptr<obs::TraceSink> trace;
  std::unique_ptr<obs::MetricsRegistry> metrics;

  /// Opens a sink for each non-empty path.  Returns "" on success, or a
  /// message naming the file that cannot be written.
  std::string open(const std::string& trace_to,
                   const std::string& metrics_to) {
    trace_path = trace_to;
    metrics_path = metrics_to;
    if (!trace_path.empty()) {
      trace_file.open(trace_path, std::ios::binary | std::ios::trunc);
      if (!trace_file) return "cannot write trace file: " + trace_path;
      trace = std::make_unique<obs::TraceSink>(trace_file);
    }
    if (!metrics_path.empty()) {
      metrics_file.open(metrics_path, std::ios::binary | std::ios::trunc);
      if (!metrics_file) return "cannot write metrics file: " + metrics_path;
      metrics = std::make_unique<obs::MetricsRegistry>(metrics_file);
    }
    return "";
  }

  /// Closes the trace and flushes the metrics.  With `report`, prints
  /// one "wrote ..." line per file on stdout.
  void finish(bool report) {
    if (trace) {
      trace->close();
      if (report) {
        std::printf("wrote trace %s (%llu events; open in chrome://tracing)\n",
                    trace_path.c_str(),
                    static_cast<unsigned long long>(trace->event_count()));
      }
    }
    if (metrics) {
      metrics->flush();
      if (report) {
        std::printf("wrote metrics %s (%llu rows)\n", metrics_path.c_str(),
                    static_cast<unsigned long long>(metrics->rows_written()));
      }
    }
  }
};

}  // namespace dhtlb::examples

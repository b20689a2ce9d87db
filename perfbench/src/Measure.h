//===-- perfbench/src/Measure.h - Spans, percentiles, metric output -------===//
//
// Part of the PTM project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own instruments: an in-memory span log (written out
/// when the run ends), exact percentiles over recorded samples, and the
/// metric sheet printed as the final JSON line.
///
/// Spans are recorded only from benchmark code, around its calls into the
/// service's layers. A request span is keyed by the request's correlation
/// id; its children (encode, send, receive wait, decode) name it as their
/// parent. A span's self time is its duration minus its children's.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t {
  Request,
  Encode,
  Send,
  RecvWait,
  Decode,
  TelemetryPoll,
  StoreCall,
  ExecutorCall,
  WireCall,
};
inline constexpr unsigned kNumSpanKinds = 9;
const char *spanKindName(SpanKind K);

struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = a root span.
  SpanKind Kind = SpanKind::Request;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

class SpanLog {
public:
  /// Keeps at most \p Cap spans; later ones are dropped (and counted).
  explicit SpanLog(size_t MaxSpans) : Cap(MaxSpans) { Spans.reserve(Cap); }

  void add(const Span &S) {
    if (Spans.size() < Cap)
      Spans.push_back(S);
    else
      ++Dropped;
  }
  /// Records a root span with a fresh id; returns the id.
  uint64_t addRoot(SpanKind K, uint64_t StartNs, uint64_t EndNs) {
    uint64_t Id = (1ULL << 62) | ++LastRootId;
    add({Id, 0, K, StartNs, EndNs});
    return Id;
  }

  const std::vector<Span> &spans() const { return Spans; }
  uint64_t dropped() const { return Dropped; }

  /// Durations (ns) of every span of kind \p K.
  std::vector<uint64_t> durations(SpanKind K) const;
  /// Self times (ns) of every span of kind \p K.
  std::vector<uint64_t> selfTimes(SpanKind K) const;

  /// Writes one tab-separated line per span; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  size_t Cap;
  std::vector<Span> Spans;
  uint64_t Dropped = 0;
  uint64_t LastRootId = 0;
};

/// The nearest-rank \p Pct-th percentile of \p V (0 when empty).
double percentile(std::vector<uint64_t> V, double Pct);
inline double median(std::vector<uint64_t> V) {
  return percentile(std::move(V), 50.0);
}
double medianOf(std::vector<double> V);

/// The highest of 99, 99.9, 99.99, 99.999 that leaves at least ten of
/// \p N samples above it; 0 when none does.
double highestTailPercentile(uint64_t N);

/// Latencies at 50 ns resolution up to 50 ms, with larger values kept
/// exactly, so a run of tens of millions of requests costs a few MB.
class LatencyLog {
public:
  void record(uint64_t Ns) {
    ++N;
    if (Ns / kBucketNs < Buckets.size())
      ++Buckets[Ns / kBucketNs];
    else
      Over.push_back(Ns);
  }
  uint64_t count() const { return N; }
  /// The nearest-rank \p Pct-th percentile in ns: the midpoint of its
  /// 50 ns bucket, or the exact value above 50 ms. 0 when empty.
  double percentile(double Pct) const;

private:
  static constexpr uint64_t kBucketNs = 50;
  std::vector<uint32_t> Buckets = std::vector<uint32_t>(1000000);
  std::vector<uint64_t> Over;
  uint64_t N = 0;
};

/// One named metric value with its unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// A metric the benchmark reports, with its unit.
struct MetricName {
  const char *Name;
  const char *Unit;
};

/// Printed by an untraced run, in this order.
const std::vector<MetricName> &endToEndMetrics();
/// Printed by a traced run, in this order.
const std::vector<MetricName> &perLayerMetrics();

/// True iff \p Name is a valid metric name: 1 to 64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool validMetricName(const std::string &Name);

/// Renders the final result line.
std::string resultJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Metrics);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H

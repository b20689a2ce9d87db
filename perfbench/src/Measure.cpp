//===-- perfbench/src/Measure.cpp - Spans, percentiles, metric output -----===//
//
// Part of the PTM project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <unordered_map>

using namespace perfbench;

const char *perfbench::spanKindName(SpanKind K) {
  static const char *const Names[kNumSpanKinds] = {
      "request",        "encode",     "send",
      "recv_wait",      "decode",     "telemetry_poll",
      "store_call",     "executor_call", "wire_call"};
  return Names[static_cast<unsigned>(K)];
}

std::vector<uint64_t> SpanLog::durations(SpanKind K) const {
  std::vector<uint64_t> Out;
  for (const Span &S : Spans)
    if (S.Kind == K)
      Out.push_back(S.EndNs - S.StartNs);
  return Out;
}

std::vector<uint64_t> SpanLog::selfTimes(SpanKind K) const {
  std::unordered_map<uint64_t, uint64_t> ChildNs;
  for (const Span &S : Spans)
    if (S.Parent != 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::vector<uint64_t> Out;
  for (const Span &S : Spans) {
    if (S.Kind != K)
      continue;
    uint64_t Total = S.EndNs - S.StartNs;
    auto It = ChildNs.find(S.Id);
    uint64_t Children = It == ChildNs.end() ? 0 : It->second;
    Out.push_back(Total > Children ? Total - Children : 0);
  }
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "id\tparent\tkind\tstart_ns\tdur_ns\n");
  for (const Span &S : Spans)
    std::fprintf(F, "%llu\t%llu\t%s\t%llu\t%llu\n",
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 spanKindName(S.Kind),
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs - S.StartNs));
  return std::fclose(F) == 0;
}

double perfbench::percentile(std::vector<uint64_t> V, double Pct) {
  if (V.empty())
    return 0.0;
  size_t Rank = static_cast<size_t>(std::ceil(Pct / 100.0 * double(V.size())));
  size_t Idx = Rank == 0 ? 0 : std::min(Rank, V.size()) - 1;
  std::nth_element(V.begin(), V.begin() + static_cast<std::ptrdiff_t>(Idx),
                   V.end());
  return static_cast<double>(V[Idx]);
}

double LatencyLog::percentile(double Pct) const {
  if (N == 0)
    return 0.0;
  uint64_t Rank = static_cast<uint64_t>(std::ceil(Pct / 100.0 * double(N)));
  Rank = std::clamp<uint64_t>(Rank, 1, N);
  uint64_t Seen = 0;
  for (size_t B = 0; B < Buckets.size(); ++B) {
    Seen += Buckets[B];
    if (Seen >= Rank)
      return double(B * kBucketNs) + kBucketNs / 2.0;
  }
  std::vector<uint64_t> Sorted = Over;
  std::sort(Sorted.begin(), Sorted.end());
  return static_cast<double>(Sorted[Rank - Seen - 1]);
}

double perfbench::medianOf(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double perfbench::highestTailPercentile(uint64_t N) {
  double Best = 0.0;
  for (double P : {99.0, 99.9, 99.99, 99.999})
    if (double(N) * (100.0 - P) / 100.0 >= 10.0)
      Best = P;
  return Best;
}

const std::vector<MetricName> &perfbench::endToEndMetrics() {
  static const std::vector<MetricName> Names = {
      {"throughput_ops_s", "op/s"}, {"latency_p50_us", "us"},
      {"latency_p90_us", "us"},     {"cpu_us_per_op", "us/op"},
      {"setup_s", "s"},
  };
  return Names;
}

const std::vector<MetricName> &perfbench::perLayerMetrics() {
  static const std::vector<MetricName> Names = {
      {"net.client.encode_ns", "ns"},
      {"net.client.send_us", "us"},
      {"net.client.recv_wait_us", "us"},
      {"net.client.decode_ns", "ns"},
      {"gen.request_self_us", "us"},
      {"gen.lag_p99_us", "us"},
      {"trace.overhead_pct", "%"},
      {"net.server.requests", "count"},
      {"net.server.responses", "count"},
      {"net.server.malformed", "count"},
      {"net.server.self_us", "us"},
      {"kv.executor.latency_p50_us", "us"},
      {"kv.executor.latency_p99_us", "us"},
      {"kv.executor.batch_mean", "req"},
      {"kv.executor.queue_depth_max", "req"},
      {"kv.executor.roundtrip_us", "us"},
      {"kv.store.get_us", "us"},
      {"kv.store.put_us", "us"},
      {"kv.store.multi_put_us", "us"},
      {"kv.store.snapshot_get_us", "us"},
      {"ladder.wire_rtt_us", "us"},
      {"stm.commits", "count"},
      {"stm.aborts", "count"},
      {"stm.abort_ratio", "ratio"},
      {"stm.aborts.read-validation", "count"},
      {"stm.aborts.lock-held", "count"},
      {"stm.aborts.commit-validation", "count"},
      {"stm.aborts.user", "count"},
      {"stm.aborts.history-full", "count"},
      {"stm.cm_wait_us", "us"},
      {"kv.wal.appends_per_write", "ratio"},
      {"kv.wal.bytes_per_user_byte", "ratio"},
      {"kv.wal.append_p50_us", "us"},
      {"kv.wal.append_p99_us", "us"},
      {"kv.wal.io_errors", "count"},
      {"kv.wal.replay_us_per_record", "us"},
      {"proc.sys_share", "ratio"},
      {"proc.vol_ctx_switches_per_op", "1/op"},
      {"proc.invol_ctx_switches_per_op", "1/op"},
  };
  return Names;
}

bool perfbench::validMetricName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(Name[0])))
    return false;
  for (char C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' && C != '.' &&
        C != '-')
      return false;
  return true;
}

std::string perfbench::resultJson(bool Correct, uint64_t Attempted,
                                  uint64_t Failed,
                                  const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

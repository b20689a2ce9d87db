//===-- perfbench/src/Workload.h - Workloads, op streams, answer oracle ---===//
//
// Part of the PTM project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the service benchmark sends and what it expects back.
///
///  * WorkloadSpec: the three named traffic mixes (closed or open loop,
///    window or offered rate, op mix, WAL on or off).
///  * KeySpace: 16Ki keys split into one disjoint partition per
///    connection, plus the per-shard key lists the generator needs to
///    build cross-shard pairs and all-shard snapshots.
///  * OpGen: the deterministic per-connection op stream. The same seed
///    gives the same ops, whatever the timing of the run.
///  * Model: the answer oracle. Each connection owns its partition and the
///    server answers a connection in request order, so applying ops to the
///    model in send order predicts every response exactly.
///  * OpenLoopSchedule: due times of an open loop, driven by whatever
///    clock the caller reads (the self-tests inject one).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "net/Protocol.h"
#include "support/Random.h"

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

namespace kv = ptm::kv;
namespace net = ptm::net;

inline constexpr unsigned kConnections = 4;
inline constexpr unsigned kKeys = 16384;
inline constexpr unsigned kKeysPerConn = kKeys / kConnections;
inline constexpr unsigned kSnapshotKeys = 32;

struct WorkloadSpec {
  const char *Name;
  bool OpenLoop;
  unsigned Window;   ///< Closed loop: requests in flight per connection.
  double RatePerSec; ///< Open loop: offered rate over all connections.
  unsigned GetPct, PutPct, MultiPutPct, SnapshotPct;
  bool Wal; ///< A Wal with Sync=true is attached to the store.
};

/// The workload named \p Name, or null.
const WorkloadSpec *findWorkload(std::string_view Name);
const std::vector<WorkloadSpec> &allWorkloads();

enum class OpKind : uint8_t { Get, Put, MultiPut, SnapshotGet };
inline constexpr unsigned kNumOpKinds = 4;
const char *opKindName(OpKind K);

struct Op {
  OpKind Kind = OpKind::Get;
  uint64_t Key = 0;   ///< Get, Put, first key of a MultiPut pair.
  uint64_t Key2 = 0;  ///< Second key of a MultiPut pair.
  uint64_t Value = 0; ///< Put value; both keys of a pair get it.
  std::vector<uint64_t> Keys; ///< SnapshotGet.

  bool singleKey() const { return Kind == OpKind::Get || Kind == OpKind::Put; }
  net::NetRequest toRequest() const;

  friend bool operator==(const Op &A, const Op &B) {
    return A.Kind == B.Kind && A.Key == B.Key && A.Key2 == B.Key2 &&
           A.Value == B.Value && A.Keys == B.Keys;
  }
};

class KeySpace {
public:
  /// \p ShardOf routes a key the way the store does.
  KeySpace(const std::function<unsigned(uint64_t)> &ShardOf, unsigned Shards);

  static uint64_t key(unsigned Conn, unsigned Index) {
    return 1 + uint64_t(Conn) * kKeysPerConn + Index;
  }
  /// The value every key holds after set-up (never a generated value).
  static uint64_t preloadValue(uint64_t Key) { return Key * 2654435761u; }

  unsigned shards() const { return Shards; }
  unsigned shardOf(uint64_t Key) const { return ShardOfKey[Key - 1]; }
  const std::vector<uint64_t> &shardKeys(unsigned Conn, unsigned Shard) const {
    return ByShard[Conn * Shards + Shard];
  }

private:
  unsigned Shards;
  std::vector<uint8_t> ShardOfKey;
  std::vector<std::vector<uint64_t>> ByShard; ///< [conn * Shards + shard].
};

class OpGen {
public:
  OpGen(const WorkloadSpec &Spec, const KeySpace &Keys, uint64_t Seed,
        unsigned Conn);

  void next(Op &Out);

private:
  uint64_t randomKey() {
    return KeySpace::key(Conn, unsigned(Rng.nextBounded(kKeysPerConn)));
  }

  const WorkloadSpec &Spec;
  const KeySpace &Keys;
  unsigned Conn;
  ptm::Xoshiro256 Rng;
  uint64_t Seq = 0;
};

class Model {
public:
  Model();

  /// Applies \p O in send order and returns the response it must get.
  net::NetResponse apply(const Op &O);

  uint64_t value(uint64_t Key) const { return Values[Key - 1]; }
  bool written(uint64_t Key) const { return Written[Key - 1]; }
  /// The partner key when the last write to \p Key came from a pair that
  /// is still the last write of both keys; 0 otherwise.
  uint64_t livePartner(uint64_t Key) const;

private:
  std::vector<uint64_t> Values;
  std::vector<uint8_t> Written;
  std::vector<uint64_t> Partner; ///< 0 = last write was a single put.
};

/// True iff \p Got answers the request whose expected answer is \p Want
/// (the correlation id is checked separately, against send order).
bool sameAnswer(const net::NetResponse &Want, const net::NetResponse &Got);

/// Due times of an open loop: op I is due at Start + I * Interval.
/// release() hands out every op that is due at \p NowNs and not yet
/// handed out; a request's latency and the generator's lag are both
/// measured from its due time, so a stall is charged to every request it
/// delays.
class OpenLoopSchedule {
public:
  OpenLoopSchedule(uint64_t Start, uint64_t Interval)
      : StartNs(Start), IntervalNs(Interval) {}

  uint64_t dueNs(uint64_t I) const { return StartNs + I * IntervalNs; }
  uint64_t released() const { return Released; }
  uint64_t nextDueNs() const { return dueNs(Released); }

  /// Marks every op due by \p NowNs as released; returns how many were
  /// newly released (indices [released() - N, released())).
  uint64_t release(uint64_t NowNs);

private:
  uint64_t StartNs, IntervalNs;
  uint64_t Released = 0;
};

/// Latency of a request due at \p DueNs and answered at \p DoneNs.
inline uint64_t latencyFromDue(uint64_t DueNs, uint64_t DoneNs) {
  return DoneNs > DueNs ? DoneNs - DueNs : 0;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H

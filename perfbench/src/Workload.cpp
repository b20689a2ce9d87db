//===-- perfbench/src/Workload.cpp - Workloads, op streams, answer oracle -===//
//
// Part of the PTM project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

using namespace perfbench;
using ptm::kv::KvOp;
using ptm::kv::KvResponse;
using ptm::kv::KvStatus;

const std::vector<WorkloadSpec> &perfbench::allWorkloads() {
  //                Name          Open   Win  Rate     Get Put Multi Snap Wal
  static const std::vector<WorkloadSpec> Specs = {
      {"pipelined", false, 32, 0.0, 50, 50, 0, 0, false},
      {"durable", false, 8, 0.0, 40, 50, 10, 0, true},
      {"scan_paced", true, 0, 10000.0, 0, 50, 0, 50, false},
  };
  return Specs;
}

const WorkloadSpec *perfbench::findWorkload(std::string_view Name) {
  for (const WorkloadSpec &S : allWorkloads())
    if (Name == S.Name)
      return &S;
  return nullptr;
}

const char *perfbench::opKindName(OpKind K) {
  switch (K) {
  case OpKind::Get:
    return "get";
  case OpKind::Put:
    return "put";
  case OpKind::MultiPut:
    return "multi_put";
  case OpKind::SnapshotGet:
    return "snapshot_get";
  }
  return "?";
}

net::NetRequest Op::toRequest() const {
  net::NetRequest R;
  switch (Kind) {
  case OpKind::Get:
    R.Op = KvOp::Get;
    R.Key = Key;
    break;
  case OpKind::Put:
    R.Op = KvOp::Put;
    R.Key = Key;
    R.Value = Value;
    break;
  case OpKind::MultiPut:
    R.Op = KvOp::MultiPut;
    R.Pairs = {{Key, Value}, {Key2, Value}};
    break;
  case OpKind::SnapshotGet:
    R.Op = KvOp::SnapshotGet;
    R.Keys = Keys;
    break;
  }
  return R;
}

KeySpace::KeySpace(const std::function<unsigned(uint64_t)> &ShardOf,
                   unsigned ShardCount)
    : Shards(ShardCount), ShardOfKey(kKeys), ByShard(kConnections * Shards) {
  for (unsigned C = 0; C < kConnections; ++C)
    for (unsigned I = 0; I < kKeysPerConn; ++I) {
      uint64_t K = key(C, I);
      unsigned S = ShardOf(K);
      ShardOfKey[K - 1] = static_cast<uint8_t>(S);
      ByShard[C * Shards + S].push_back(K);
    }
}

OpGen::OpGen(const WorkloadSpec &W, const KeySpace &K, uint64_t Seed,
             unsigned Connection)
    : Spec(W), Keys(K), Conn(Connection),
      Rng(Seed * 0x9e3779b97f4a7c15ULL + Connection + 1) {}

void OpGen::next(Op &Out) {
  Out.Keys.clear();
  Out.Key2 = 0;
  Out.Value = 0;
  // Values are unique per (connection, op), so a misrouted or stale
  // answer can never match by accident; the top bit keeps them apart
  // from the preload values.
  uint64_t Fresh = (1ULL << 63) | (uint64_t(Conn) << 48) | ++Seq;
  unsigned Pick = static_cast<unsigned>(Rng.nextBounded(100));
  if (Pick < Spec.GetPct) {
    Out.Kind = OpKind::Get;
    Out.Key = randomKey();
  } else if (Pick < Spec.GetPct + Spec.PutPct) {
    Out.Kind = OpKind::Put;
    Out.Key = randomKey();
    Out.Value = Fresh;
  } else if (Pick < Spec.GetPct + Spec.PutPct + Spec.MultiPutPct) {
    // The correlated pair {k, k + half}, redrawn until it spans shards.
    constexpr unsigned Half = kKeysPerConn / 2;
    Out.Kind = OpKind::MultiPut;
    Out.Value = Fresh;
    do {
      unsigned I = static_cast<unsigned>(Rng.nextBounded(Half));
      Out.Key = KeySpace::key(Conn, I);
      Out.Key2 = KeySpace::key(Conn, I + Half);
    } while (Keys.shardOf(Out.Key) == Keys.shardOf(Out.Key2));
  } else {
    // An equal share of own-partition keys from every shard, so each
    // snapshot spans all shards and costs the same.
    Out.Kind = OpKind::SnapshotGet;
    unsigned PerShard = kSnapshotKeys / Keys.shards();
    for (unsigned S = 0; S < Keys.shards(); ++S) {
      const std::vector<uint64_t> &Pool = Keys.shardKeys(Conn, S);
      size_t First = Out.Keys.size();
      while (Out.Keys.size() < First + PerShard) {
        uint64_t K = Pool[Rng.nextBounded(Pool.size())];
        bool Dup = false;
        for (size_t I = First; I < Out.Keys.size(); ++I)
          Dup |= Out.Keys[I] == K;
        if (!Dup)
          Out.Keys.push_back(K);
      }
    }
  }
}

Model::Model() : Values(kKeys), Written(kKeys, 0), Partner(kKeys, 0) {
  for (uint64_t K = 1; K <= kKeys; ++K)
    Values[K - 1] = KeySpace::preloadValue(K);
}

net::NetResponse Model::apply(const Op &O) {
  net::NetResponse Want;
  Want.Result = {KvStatus::Ok, 0};
  auto Write = [&](uint64_t K, uint64_t V, uint64_t P) {
    Values[K - 1] = V;
    Written[K - 1] = 1;
    Partner[K - 1] = P;
  };
  switch (O.Kind) {
  case OpKind::Get:
    Want.Result.Value = value(O.Key);
    break;
  case OpKind::Put:
    Write(O.Key, O.Value, 0);
    break;
  case OpKind::MultiPut:
    Write(O.Key, O.Value, O.Key2);
    Write(O.Key2, O.Value, O.Key);
    break;
  case OpKind::SnapshotGet:
    for (uint64_t K : O.Keys)
      Want.Values.push_back({KvStatus::Ok, value(K)});
    break;
  }
  return Want;
}

uint64_t Model::livePartner(uint64_t Key) const {
  uint64_t P = Partner[Key - 1];
  return P != 0 && Partner[P - 1] == Key ? P : 0;
}

bool perfbench::sameAnswer(const net::NetResponse &Want,
                           const net::NetResponse &Got) {
  return Want.Result == Got.Result && Want.Values == Got.Values;
}

uint64_t OpenLoopSchedule::release(uint64_t NowNs) {
  if (NowNs < StartNs)
    return 0;
  uint64_t DueCount = (NowNs - StartNs) / IntervalNs + 1;
  uint64_t N = DueCount > Released ? DueCount - Released : 0;
  Released += N;
  return N;
}

//===-- perfbench/src/SelfTest.cpp - The benchmark's own checks -----------===//
//
// Part of the PTM project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `perfbench --self-test`: checks the benchmark's own machinery before
/// it is trusted with a run. Exit status 0 iff every check passes.
///
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Workload.h"

#include <cstdio>
#include <set>

using namespace perfbench;

int runSelfTests();

namespace {

unsigned Failures = 0;

void check(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "self-test FAILED: %s\n", What);
    ++Failures;
  }
}

KeySpace fakeKeySpace() {
  auto ShardOf = [](uint64_t K) {
    return unsigned((K * 0x9e3779b97f4a7c15ULL) >> 61);
  };
  return KeySpace(ShardOf, 8);
}

/// The oracle accepts the right answer and rejects a wrong value, a wrong
/// status and a wrong snapshot slot.
void oracleRejectsWrongAnswers() {
  Model M;
  Op Put;
  Put.Kind = OpKind::Put;
  Put.Key = 5;
  Put.Value = 77;
  net::NetResponse Ack = M.apply(Put);
  Op Get;
  Get.Kind = OpKind::Get;
  Get.Key = 5;
  net::NetResponse Want = M.apply(Get);
  check(Want.Result.Value == 77, "model reads its own write");
  check(sameAnswer(Ack, Ack) && sameAnswer(Want, Want), "right answer passes");
  net::NetResponse Stale = Want;
  Stale.Result.Value = KeySpace::preloadValue(5);
  check(!sameAnswer(Want, Stale), "stale value rejected");
  net::NetResponse Missing = Want;
  Missing.Result.Status = kv::KvStatus::NotFound;
  check(!sameAnswer(Want, Missing), "wrong status rejected");

  Op Snap;
  Snap.Kind = OpKind::SnapshotGet;
  Snap.Keys = {5, 6, 7};
  net::NetResponse SnapWant = M.apply(Snap);
  net::NetResponse Torn = SnapWant;
  Torn.Values[2].Value ^= 1;
  check(!sameAnswer(SnapWant, Torn), "wrong snapshot slot rejected");
  Torn.Values.pop_back();
  check(!sameAnswer(SnapWant, Torn), "short snapshot rejected");
}

/// With an injected clock, lateness and latency count from the due
/// time, not from when the generator got round to sending.
void openLoopLatenessFromDueTime() {
  OpenLoopSchedule S(/*StartNs=*/1000, /*IntervalNs=*/100);
  check(S.release(999) == 0, "nothing due before the start");
  check(S.release(1000) == 1 && S.released() == 1, "op 0 due at the start");
  // The generator stalls until t=1350: ops 1..3 are released late.
  uint64_t Now = 1350;
  check(S.release(Now) == 3, "stalled ops released together");
  check(S.dueNs(1) == 1100 && S.dueNs(3) == 1300, "due times are on schedule");
  check(latencyFromDue(S.dueNs(1), Now) == 250, "lag of a late op");
  // Answered at t=1500: latency includes the 250 ns the stall cost.
  check(latencyFromDue(S.dueNs(1), 1500) == 400, "latency from due time");
  check(S.release(Now) == 0, "no op is released twice");
  check(S.nextDueNs() == 1400, "next due time");
}

/// Metric names are valid and within the sheet's limits.
void metricNamesValid() {
  std::set<std::string> Seen;
  for (const auto *List : {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricName &N : *List) {
      check(validMetricName(N.Name), N.Name);
      check(Seen.insert(N.Name).second, "metric names are unique");
    }
  check(endToEndMetrics().size() <= 16, "at most 16 end-to-end metrics");
  check(perLayerMetrics().size() <= 128, "at most 128 per-layer metrics");
  check(!validMetricName("bad name") && !validMetricName(".x") &&
            !validMetricName(std::string(65, 'a')),
        "invalid names are rejected");
}

/// The same seed gives the same op sequence; another seed does not. The
/// ops also keep their shape: pairs span shards, snapshots cover every
/// shard with distinct own-partition keys.
void sameSeedSameOps() {
  KeySpace Keys = fakeKeySpace();
  for (const WorkloadSpec &Spec : allWorkloads()) {
    OpGen A(Spec, Keys, 42, 1), B(Spec, Keys, 42, 1), C(Spec, Keys, 43, 1);
    Op OA, OB, OC;
    bool Same = true, Differs = false, Shaped = true;
    for (int I = 0; I < 5000; ++I) {
      A.next(OA);
      B.next(OB);
      C.next(OC);
      Same &= OA == OB;
      Differs |= !(OA == OC);
      uint64_t Lo = KeySpace::key(1, 0), Hi = KeySpace::key(2, 0);
      if (OA.Kind == OpKind::MultiPut)
        Shaped &= Keys.shardOf(OA.Key) != Keys.shardOf(OA.Key2);
      if (OA.Kind == OpKind::SnapshotGet) {
        std::set<uint64_t> Distinct(OA.Keys.begin(), OA.Keys.end());
        std::set<unsigned> Shards;
        for (uint64_t K : OA.Keys) {
          Shards.insert(Keys.shardOf(K));
          Shaped &= K >= Lo && K < Hi;
        }
        Shaped &= OA.Keys.size() == kSnapshotKeys &&
                  Distinct.size() == kSnapshotKeys && Shards.size() == 8;
      } else {
        Shaped &= OA.Key >= Lo && OA.Key < Hi;
      }
    }
    check(Same, "same seed, same ops");
    check(Differs, "another seed, other ops");
    check(Shaped, "ops stay in their partition and keep their shape");
  }
}

} // namespace

int runSelfTests() {
  oracleRejectsWrongAnswers();
  openLoopLatenessFromDueTime();
  metricNamesValid();
  sameSeedSameOps();
  if (Failures == 0)
    std::fprintf(stderr, "perfbench self-test: all checks passed\n");
  return Failures == 0 ? 0 : 1;
}

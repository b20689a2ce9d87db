//===-- perfbench/src/Main.cpp - The service benchmark --------------------===//
//
// Part of the PTM project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One run of one workload against an in-process KvServer over loopback,
/// configured as `kv_server --serve` ships: default KvConfig (tl2, gv1,
/// backoff), 8 shards x 64 buckets x 4096 keys, default server options,
/// 16Ki keys preloaded.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--work-dir DIR]
///   perfbench --self-test
///
/// --trace 0 prints the end-to-end metrics; --trace 1 prints the
/// per-layer metrics (a traced run, the unloaded ladder, and in-process
/// runs of the layers the server does not expose). The last stdout line
/// is the JSON result; exit status 1 means an answer, a counter or the
/// recovered WAL disagreed with the oracle.
///
//===----------------------------------------------------------------------===//

#include "LoadGen.h"
#include "Measure.h"
#include "Workload.h"

#include "kv/Kv.h"
#include "net/KvClient.h"
#include "net/KvServer.h"
#include "obs/Metrics.h"
#include "stm/ContentionManager.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

using namespace perfbench;
using ptm::obs::monotonicNowNs;

int runSelfTests();

namespace {

/// Set-ups timed before the measured run, and again after it: set-up time
/// drifts with the host over seconds, so the samples span the run.
constexpr unsigned kSetupRepeats = 4;
constexpr double kWarmupSec = 2.0;
constexpr double kRungSec = 0.5;      ///< Each unloaded ladder rung, at
constexpr uint64_t kRungOps = 20000;  ///< most this long and this many ops.
constexpr double kExecutorSec = 2.0; ///< The rate-matched executor run.
constexpr size_t kSpanCap = 1u << 19;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".bench_build/perfbench-work";
};

/// Everything an oracle check found wrong; any entry fails the run.
struct Verdict {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;

  void add(const RunStats &R) {
    Attempted += R.Sent;
    Failed += R.failures();
    if (!R.FirstMismatch.empty())
      Problems.push_back(R.FirstMismatch);
    else if (R.failures())
      Problems.push_back(std::to_string(R.Unfinished) + " requests unanswered");
  }
  void expect(bool Ok, const std::string &What) {
    if (!Ok)
      Problems.push_back(What);
  }
};

double nsToUs(double Ns) { return Ns / 1000.0; }
double secs(uint64_t Ns) { return double(Ns) / 1e9; }
double tvUs(const timeval &T) {
  return double(T.tv_sec) * 1e6 + double(T.tv_usec);
}

kv::KvConfig serveConfig() {
  kv::KvConfig Cfg;
  Cfg.ShardCount = 8;
  Cfg.BucketsPerShard = 64;
  Cfg.CapacityPerShard = 4096;
  Cfg.MaxThreads = net::KvServer::Options().Workers + 1; // + poll thread.
  return Cfg;
}

/// Set-up failures end the run: nothing can be measured without them.
[[noreturn]] void die(const std::string &What) {
  std::fprintf(stderr, "perfbench: %s\n", What.c_str());
  std::exit(1);
}

std::unique_ptr<kv::KvStore> makeStore(bool Preload) {
  auto Store = kv::KvStore::create(serveConfig());
  if (!Store)
    die("cannot create the store");
  if (Preload)
    for (uint64_t K = 1; K <= kKeys; ++K)
      if (!Store->put(0, K, KeySpace::preloadValue(K)).ok())
        die("preload failed");
  return Store;
}

/// A fresh WAL directory, opened with the shipped durability contract.
std::unique_ptr<kv::Wal> openFreshWal(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  std::filesystem::create_directories(Dir, Ec);
  unsigned Shards = serveConfig().ShardCount;
  kv::WalRecovery Rec = kv::Wal::recover(Dir, Shards);
  kv::Wal::Options Opts;
  Opts.Sync = true;
  std::unique_ptr<kv::Wal> Log =
      Rec.Ok ? kv::Wal::open(Dir, Shards, Rec, Opts) : nullptr;
  if (!Log)
    die("cannot open a WAL in " + Dir);
  return Log;
}

std::string filesystemType(const std::string &Dir) {
  struct statfs Fs;
  if (::statfs(Dir.c_str(), &Fs) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(Fs.f_type)) {
  case 0xEF53:
    return "ext4";
  case 0x01021994:
    return "tmpfs";
  case 0x58465342:
    return "xfs";
  case 0x9123683E:
    return "btrfs";
  case 0x794C7630:
    return "overlayfs";
  default: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "0x%lx",
                  static_cast<unsigned long>(Fs.f_type));
    return Buf;
  }
  }
}

/// CPU placement. The generator thread runs on the first CPU the process
/// may use; each thread the service spawns gets one of the other CPUs to
/// itself, so client work never shares a CPU with server work (as it would
/// not with the client on another machine) and the server's threads land
/// the same way on every run. Wrap each call that spawns service threads
/// in beginSpawn() / endSpawn(). With fewer than four CPUs nothing is
/// pinned.
class Placement {
public:
  Placement() {
    cpu_set_t All;
    CPU_ZERO(&All);
    if (::sched_getaffinity(0, sizeof(All), &All) != 0 || CPU_COUNT(&All) < 4)
      return;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &All))
        CpuIds.push_back(C);
  }
  void pinGenerator() const { pin(0, CpuIds.empty() ? -1 : CpuIds[0]); }
  void beginSpawn() { Before = threadIds(); }
  void endSpawn() {
    if (CpuIds.empty())
      return;
    size_t Next = 1;
    for (int Tid : threadIds())
      if (std::find(Before.begin(), Before.end(), Tid) == Before.end()) {
        pin(Tid, CpuIds[Next]);
        Next = Next + 1 < CpuIds.size() ? Next + 1 : 1;
      }
  }

private:
  static std::vector<int> threadIds() {
    std::vector<int> Ids;
    std::error_code Ec;
    for (const auto &E :
         std::filesystem::directory_iterator("/proc/self/task", Ec))
      Ids.push_back(std::atoi(E.path().filename().c_str()));
    return Ids;
  }
  static void pin(int Tid, int Cpu) {
    if (Cpu < 0)
      return;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Cpu, &Set);
    ::sched_setaffinity(Tid, sizeof(Set), &Set);
  }
  std::vector<int> CpuIds;
  std::vector<int> Before;
};

Placement Cpus;

/// A store, its optional WAL and the server over them. Members destroy
/// in reverse order: server first, then the log, then the store.
struct Service {
  std::unique_ptr<kv::KvStore> Store;
  std::string WalDir;
  std::unique_ptr<kv::Wal> Log;
  std::unique_ptr<net::KvServer> Server;

  ~Service() {
    Server.reset();
    Log.reset();
    if (!WalDir.empty()) {
      std::error_code Ec;
      std::filesystem::remove_all(WalDir, Ec);
    }
  }
};

std::unique_ptr<Service> startService(const WorkloadSpec &Spec,
                                      const std::string &WalDir) {
  auto S = std::make_unique<Service>();
  S->Store = makeStore(/*Preload=*/true);
  if (Spec.Wal) {
    S->WalDir = WalDir;
    S->Log = openFreshWal(WalDir);
    S->Store->attachWal(S->Log.get());
  }
  Cpus.beginSpawn();
  S->Server = net::KvServer::start(*S->Store, net::KvServer::Options());
  Cpus.endSpawn();
  if (!S->Server)
    die("cannot start the server");
  return S;
}

/// Merged contention-manager telemetry of every shard TM.
ptm::CmTelemetry cmTelemetry(kv::KvStore &Store) {
  ptm::CmTelemetry Merged;
  for (unsigned I = 0; I < Store.shardCount(); ++I)
    if (ptm::ContentionManager *Cm = Store.shardTm(I).contentionManager())
      Merged.WaitNs.merge(Cm->telemetry().WaitNs);
  return Merged;
}

/// The layer counters polled at the edges of the traced window.
struct Poll {
  ptm::obs::MetricsSnapshot Net;
  ptm::TmStats Stm;
  uint64_t CmWaitNs = 0;
};

Poll pollLayers(Service &S, SpanLog &Trace) {
  uint64_t T0 = monotonicNowNs();
  Poll P;
  P.Net = S.Server->telemetry();
  P.Stm = S.Store->statsSnapshot();
  P.CmWaitNs = cmTelemetry(*S.Store).WaitNs.Sum;
  Trace.addRoot(SpanKind::TelemetryPoll, T0, monotonicNowNs());
  return P;
}

/// Executes \p O in-process against \p Store; returns the answer in the
/// wire response shape so the oracle can check it.
net::NetResponse callStore(kv::KvStore &Store, const Op &O) {
  net::NetResponse R;
  switch (O.Kind) {
  case OpKind::Get:
    R.Result = Store.get(0, O.Key);
    break;
  case OpKind::Put:
    R.Result = Store.put(0, O.Key, O.Value);
    break;
  case OpKind::MultiPut:
    R.Result = {Store.multiPut(0, {{O.Key, O.Value}, {O.Key2, O.Value}}), 0};
    break;
  case OpKind::SnapshotGet:
    R.Result = {Store.snapshotGet(0, O.Keys, R.Values), 0};
    break;
  }
  return R;
}

void toRequest(const Op &O, kv::KvRequest &R) {
  R.reset();
  R.Op = O.Kind == OpKind::Get ? kv::KvOp::Get : kv::KvOp::Put;
  R.Key = O.Key;
  R.Value = O.Value;
}

kv::RequestExecutor::Options executorOptions() {
  net::KvServer::Options Srv;
  kv::RequestExecutor::Options Opts;
  Opts.Workers = Srv.Workers;
  Opts.QueueCapacity = Srv.QueueCapacity;
  Opts.MaxBatch = Srv.MaxBatch;
  return Opts;
}

/// The unloaded, window-1 ladder of one workload's mix: each op as a
/// direct KvStore call, as an executor submit+wait, and as a wire round
/// trip through KvClient.
struct Ladder {
  std::vector<uint64_t> StoreNs[kNumOpKinds];
  std::vector<uint64_t> ExecutorNs;
  std::vector<uint64_t> WireNs;
};

Ladder runLadder(const WorkloadSpec &Spec, const KeySpace &Keys, uint64_t Seed,
                 const std::string &WalDir, SpanLog &Trace, Verdict &V) {
  Ladder L;
  const uint64_t RungNs = static_cast<uint64_t>(kRungSec * 1e9);
  auto Rung = [&](const char *Name, bool SingleKeyOnly, auto &&Body) {
    Model M;
    OpGen Gen(Spec, Keys, Seed, 0);
    Op O;
    uint64_t Ops = 0, Bad = 0;
    uint64_t End = monotonicNowNs() + RungNs;
    while (Ops < kRungOps && monotonicNowNs() < End) {
      Gen.next(O);
      if (SingleKeyOnly && !O.singleKey())
        continue; // Multi-key ops never ride the executor.
      net::NetResponse Want = M.apply(O);
      if (!Body(O, Want))
        ++Bad;
      ++Ops;
    }
    V.Attempted += Ops;
    V.Failed += Bad;
    V.expect(Bad == 0, std::string("ladder ") + Name + ": wrong answers");
  };

  {
    auto Store = makeStore(true);
    std::unique_ptr<kv::Wal> Log = Spec.Wal ? openFreshWal(WalDir) : nullptr;
    if (Log)
      Store->attachWal(Log.get());
    Rung("kv.store", false, [&](const Op &O, const net::NetResponse &Want) {
      uint64_t T0 = monotonicNowNs();
      net::NetResponse Got = callStore(*Store, O);
      uint64_t T1 = monotonicNowNs();
      L.StoreNs[static_cast<unsigned>(O.Kind)].push_back(T1 - T0);
      Trace.addRoot(SpanKind::StoreCall, T0, T1);
      return sameAnswer(Want, Got);
    });
    Store->attachWal(nullptr);
  }
  {
    auto Store = makeStore(true);
    std::unique_ptr<kv::Wal> Log = Spec.Wal ? openFreshWal(WalDir) : nullptr;
    if (Log)
      Store->attachWal(Log.get());
    Cpus.beginSpawn();
    kv::RequestExecutor Exec(*Store, executorOptions());
    Cpus.endSpawn();
    kv::KvRequest R;
    Rung("kv.executor", true, [&](const Op &O, const net::NetResponse &Want) {
      toRequest(O, R);
      uint64_t T0 = monotonicNowNs();
      Exec.submit(R);
      kv::RequestExecutor::wait(R);
      uint64_t T1 = monotonicNowNs();
      L.ExecutorNs.push_back(T1 - T0);
      Trace.addRoot(SpanKind::ExecutorCall, T0, T1);
      return R.Out == Want.Result;
    });
    Exec.drainAndStop();
    Store->attachWal(nullptr);
  }
  {
    auto Svc = startService(Spec, WalDir);
    auto Client = net::KvClient::connect(Svc->Server->port());
    if (!Client)
      die("cannot connect to the server");
    Rung("wire", false, [&](const Op &O, const net::NetResponse &Want) {
      net::NetRequest Req = O.toRequest();
      net::NetResponse Got;
      uint64_t T0 = monotonicNowNs();
      bool Ok = Client->send(Req) && Client->receive(Got);
      uint64_t T1 = monotonicNowNs();
      L.WireNs.push_back(T1 - T0);
      Trace.addRoot(SpanKind::WireCall, T0, T1);
      return Ok && sameAnswer(Want, Got);
    });
  }
  return L;
}

/// The executor under the served run's single-key rate, in-process: the
/// server owns its executor privately, so its queueing is measured here,
/// on an executor built with the server's options and fed the same ops
/// at the same rate from one producer (as the poll thread is).
struct ExecutorRun {
  ptm::obs::MetricsSnapshot Tel;
  int64_t QueueDepthMax = 0;
};

ExecutorRun runExecutorAtRate(const WorkloadSpec &Spec, const KeySpace &Keys,
                              uint64_t Seed, double Rate,
                              const std::string &WalDir, SpanLog &Trace,
                              Verdict &V) {
  ExecutorRun Out;
  auto Store = makeStore(true);
  std::unique_ptr<kv::Wal> Log = Spec.Wal ? openFreshWal(WalDir) : nullptr;
  if (Log)
    Store->attachWal(Log.get());
  Cpus.beginSpawn();
  kv::RequestExecutor Exec(*Store, executorOptions());
  Cpus.endSpawn();

  constexpr size_t kSlots = 4096;
  std::unique_ptr<kv::KvRequest[]> Reqs(new kv::KvRequest[kSlots]);
  std::vector<kv::KvResponse> Want(kSlots);
  std::vector<uint8_t> Used(kSlots, 0);
  uint64_t Bad = 0, Ops = 0;
  auto Settle = [&](size_t Slot) {
    if (!Used[Slot])
      return;
    kv::RequestExecutor::wait(Reqs[Slot]);
    Bad += !(Reqs[Slot].Out == Want[Slot]);
    Used[Slot] = 0;
  };

  Model M;
  std::vector<std::unique_ptr<OpGen>> Gens;
  for (unsigned C = 0; C < kConnections; ++C)
    Gens.push_back(std::make_unique<OpGen>(Spec, Keys, Seed, C));
  Op O;
  uint64_t IntervalNs = static_cast<uint64_t>(1e9 / std::max(Rate, 1.0));
  uint64_t Start = monotonicNowNs();
  uint64_t End = Start + static_cast<uint64_t>(kExecutorSec * 1e9);
  uint64_t NextPoll = Start;
  OpenLoopSchedule Sched(Start, IntervalNs);
  for (uint64_t Now = Start; Now < End; Now = monotonicNowNs()) {
    for (uint64_t N = Sched.release(Now); N > 0; --N) {
      do
        Gens[Ops % kConnections]->next(O);
      while (!O.singleKey());
      size_t Slot = Ops % kSlots;
      Settle(Slot);
      Want[Slot] = M.apply(O).Result;
      toRequest(O, Reqs[Slot]);
      Used[Slot] = 1;
      Exec.submit(Reqs[Slot]);
      ++Ops;
    }
    if (Now >= NextPoll) {
      uint64_t T0 = monotonicNowNs();
      ptm::obs::MetricsSnapshot Snap = Exec.telemetry();
      for (const ptm::obs::SnapshotEntry &G : Snap.Gauges)
        if (G.Name.rfind("kv.executor.queue_depth.", 0) == 0)
          Out.QueueDepthMax = std::max(Out.QueueDepthMax, G.Value);
      Trace.addRoot(SpanKind::TelemetryPoll, T0, monotonicNowNs());
      NextPoll = Now + 1000000;
    }
  }
  for (size_t S = 0; S < kSlots; ++S)
    Settle(S);
  Exec.drainAndStop();
  Out.Tel = Exec.telemetry();
  Store->attachWal(nullptr);
  V.Attempted += Ops;
  V.Failed += Bad;
  V.expect(Bad == 0, "executor run: wrong answers");
  return Out;
}

/// The clean-restart durability check: recover the WAL into a fresh
/// store, which must hold every acknowledged write, nothing else, and no
/// torn pair. Returns recover + replay time per record, in us.
double checkRecovery(Service &S, const Model &M, Verdict &V) {
  S.Server.reset();
  S.Store->attachWal(nullptr);
  S.Log.reset();
  uint64_t T0 = monotonicNowNs();
  kv::WalRecovery Rec = kv::Wal::recover(S.WalDir, serveConfig().ShardCount);
  auto Fresh = makeStore(/*Preload=*/false);
  bool Replayed =
      Rec.Ok && Fresh->replayWal(Rec.Records) == kv::KvStatus::Ok;
  uint64_t T1 = monotonicNowNs();
  V.expect(Replayed, "recovery: WAL unreadable or replay failed");
  V.expect(Rec.TornBytes == 0, "recovery: torn bytes after a clean stop");
  if (!Replayed)
    return 0;
  uint64_t Lost = 0, Extra = 0, Torn = 0;
  for (uint64_t K = 1; K <= kKeys; ++K) {
    kv::KvResponse R = Fresh->get(0, K);
    if (M.written(K))
      Lost += !(R.ok() && R.Value == M.value(K));
    else
      Extra += R.ok();
    uint64_t P = M.livePartner(K);
    if (P > K && !(Fresh->get(0, P) == R))
      ++Torn;
  }
  V.expect(Lost == 0, "recovery: " + std::to_string(Lost) +
                          " acknowledged writes missing or stale");
  V.expect(Extra == 0, "recovery: " + std::to_string(Extra) +
                           " keys that were never written");
  V.expect(Torn == 0, "recovery: " + std::to_string(Torn) + " torn pairs");
  std::printf("recovery: %zu records, %llu keys, lost=%llu extra=%llu "
              "torn=%llu\n",
              Rec.Records.size(),
              static_cast<unsigned long long>(Fresh->sampleSize()),
              static_cast<unsigned long long>(Lost),
              static_cast<unsigned long long>(Extra),
              static_cast<unsigned long long>(Torn));
  return Rec.Records.empty()
             ? 0
             : nsToUs(double(T1 - T0)) / double(Rec.Records.size());
}

double usPct(const LatencyLog &Log, double Pct) {
  return nsToUs(Log.percentile(Pct));
}

void printLatency(const char *Name, const LatencyLog &Ns) {
  double Tail = highestTailPercentile(Ns.count());
  std::printf("  %-16s p50=%.2f us  p90=%.2f us  p99=%.2f us", Name,
              usPct(Ns, 50), usPct(Ns, 90), usPct(Ns, 99));
  if (Tail > 0)
    std::printf("  p%g=%.2f us", Tail, usPct(Ns, Tail));
  std::printf("  (n=%llu)\n", static_cast<unsigned long long>(Ns.count()));
}

struct Sheet {
  std::map<std::string, double> Values;
  void set(const std::string &Name, double V) { Values[Name] = V; }
};

/// Orders \p S by \p Names; a missing or unlisted metric is a bug in the
/// benchmark and fails the run.
std::vector<Metric> finish(const Sheet &S, const std::vector<MetricName> &Names,
                           Verdict &V) {
  std::vector<Metric> Out;
  for (const MetricName &N : Names) {
    auto It = S.Values.find(N.Name);
    V.expect(It != S.Values.end(),
             std::string("metric not measured: ") + N.Name);
    Out.push_back({N.Name, It == S.Values.end() ? 0.0 : It->second, N.Unit});
  }
  V.expect(Out.size() == S.Values.size(), "a measured metric is not listed");
  return Out;
}

/// What the served runs leave for the reports.
struct Served {
  std::vector<double> SetupSec;
  RunStats Plain;  ///< The untraced run: every end-to-end metric.
  RunStats Traced; ///< The traced run (--trace 1 only).
  RunStats After;  ///< The untraced run again (--trace 1 only), so that
                   ///< trace.overhead_pct does not depend on run order.
  Poll P0, P1;     ///< Layer counters at the traced window's edges.
  ptm::obs::MetricsSnapshot Net, WalTel;
  double ReplayUsPerRecord = 0;

  uint64_t total(uint64_t RunStats::*Field) const {
    return Plain.*Field + Traced.*Field + After.*Field;
  }
};

/// Sets the service up (store + preload + WAL + server + connections)
/// kSetupRepeats times, keeps the last, drives it, checks the server's
/// counters and, with a WAL, the recovered store, then times
/// kSetupRepeats more set-ups.
Served serve(const Args &A, const WorkloadSpec &Spec, const KeySpace &Keys,
             const std::string &WalDir, SpanLog &Trace, Verdict &V) {
  Served R;
  std::unique_ptr<Model> M;
  std::unique_ptr<Service> Svc;
  std::unique_ptr<LoadGen> Gen;
  auto SetUp = [&] {
    Gen.reset();
    Svc.reset();
    M = std::make_unique<Model>();
    uint64_t T0 = monotonicNowNs();
    Svc = startService(Spec, WalDir);
    Gen = std::make_unique<LoadGen>(Spec, Keys, *M, A.Seed);
    if (!Gen->connect(Svc->Server->port()))
      die("cannot connect to the server");
    R.SetupSec.push_back(secs(monotonicNowNs() - T0));
  };
  for (unsigned I = 0; I < kSetupRepeats; ++I)
    SetUp();

  R.Plain = Gen->run(kWarmupSec, A.Seconds, nullptr, 1, [](bool) {});
  V.add(R.Plain);
  if (A.Trace) {
    // Sample so that the window's request spans (5 each) fit the span log
    // with room to spare, at the untraced run's rate.
    uint64_t Every = R.Plain.WindowOps / (kSpanCap / 6) + 1;
    R.Traced = Gen->run(kWarmupSec, A.Seconds, &Trace, Every, [&](bool Start) {
      (Start ? R.P0 : R.P1) = pollLayers(*Svc, Trace);
    });
    V.add(R.Traced);
    R.After = Gen->run(kWarmupSec, A.Seconds, nullptr, 1, [](bool) {});
    V.add(R.After);
  }
  uint64_t Sent = R.total(&RunStats::Sent);
  uint64_t Received = R.total(&RunStats::Received);
  R.Net = Svc->Server->telemetry();
  if (Svc->Log)
    R.WalTel = Svc->Log->telemetry();
  V.expect(R.Net.counter("net.requests") == Sent,
           "net.requests " + std::to_string(R.Net.counter("net.requests")) +
               " != sent " + std::to_string(Sent));
  V.expect(R.Net.counter("net.responses") == Received,
           "net.responses " + std::to_string(R.Net.counter("net.responses")) +
               " != received " + std::to_string(Received));
  V.expect(R.Net.counter("net.malformed") == 0, "net.malformed != 0");
  if (Spec.Wal)
    R.ReplayUsPerRecord = checkRecovery(*Svc, *M, V);
  for (unsigned I = 0; I < kSetupRepeats; ++I)
    SetUp();
  return R;
}

void printEndToEnd(const Served &R, const Verdict &V) {
  const RunStats &P = R.Plain;
  std::vector<double> PerSec(P.PerSecond.begin(), P.PerSecond.end());
  std::printf("end to end (untraced run):\n");
  printLatency("all ops", P.Lat);
  printLatency("single-key ops", P.SingleLat);
  if (P.MultiLat.count()) {
    printLatency("multi-key ops", P.MultiLat);
    std::printf("  multi_p50_us %.2f us (n=%llu)\n", usPct(P.MultiLat, 50),
                static_cast<unsigned long long>(P.MultiLat.count()));
  }
  std::printf("  throughput %.0f op/s (median 1-s slice %.0f op/s, n=%zu "
              "slices)\n",
              P.throughput(), medianOf(PerSec), PerSec.size());
  std::printf("  fail_ratio %.6g (%llu of %llu attempted)\n",
              V.Attempted ? double(V.Failed) / double(V.Attempted) : 1.0,
              static_cast<unsigned long long>(V.Failed),
              static_cast<unsigned long long>(V.Attempted));
  std::printf("  setup_s median %.4f s (n=%zu set-ups)\n",
              medianOf(R.SetupSec), R.SetupSec.size());
}

Sheet endToEnd(const Served &R) {
  const RunStats &P = R.Plain;
  double CpuUs = tvUs(P.RuEnd.ru_utime) + tvUs(P.RuEnd.ru_stime) -
                 tvUs(P.RuStart.ru_utime) - tvUs(P.RuStart.ru_stime);
  Sheet S;
  S.set("throughput_ops_s", P.throughput());
  S.set("latency_p50_us", usPct(P.Lat, 50));
  S.set("latency_p90_us", usPct(P.Lat, 90));
  S.set("cpu_us_per_op", P.WindowOps ? CpuUs / double(P.WindowOps) : 0);
  S.set("setup_s", medianOf(R.SetupSec));
  return S;
}

/// The per-layer sheet: the traced run's spans and polled counters, the
/// executor at the served rate, and the unloaded ladder.
Sheet perLayer(const Served &R, const WorkloadSpec &Spec, const KeySpace &Keys,
               uint64_t Seed, const std::string &WalDir, SpanLog &Trace,
               Verdict &V) {
  const RunStats &Plain = R.Plain, &Traced = R.Traced;
  Sheet S;
  // Client side of the wire, from the traced requests' spans.
  S.set("net.client.encode_ns", median(Trace.durations(SpanKind::Encode)));
  S.set("net.client.send_us", nsToUs(median(Trace.durations(SpanKind::Send))));
  S.set("net.client.recv_wait_us",
        nsToUs(median(Trace.durations(SpanKind::RecvWait))));
  S.set("net.client.decode_ns", median(Trace.durations(SpanKind::Decode)));
  S.set("gen.request_self_us",
        nsToUs(median(Trace.selfTimes(SpanKind::Request))));
  S.set("gen.lag_p99_us", usPct(Traced.Lag, 99));
  double Untraced = (Plain.throughput() + R.After.throughput()) / 2;
  S.set("trace.overhead_pct",
        Untraced > 0 ? 100.0 * (Untraced - Traced.throughput()) / Untraced
                     : 0);

  S.set("net.server.requests", double(R.Net.counter("net.requests")));
  S.set("net.server.responses", double(R.Net.counter("net.responses")));
  S.set("net.server.malformed", double(R.Net.counter("net.malformed")));

  // STM: deltas over the traced window.
  ptm::TmStats Stm = R.P1.Stm;
  uint64_t Commits = Stm.Commits - R.P0.Stm.Commits;
  uint64_t Aborts = Stm.totalAborts() - R.P0.Stm.totalAborts();
  S.set("stm.commits", double(Commits));
  S.set("stm.aborts", double(Aborts));
  S.set("stm.abort_ratio",
        Commits + Aborts ? double(Aborts) / double(Commits + Aborts) : 0);
  for (unsigned C = 1; C < ptm::kNumAbortCauses; ++C)
    S.set(std::string("stm.aborts.") +
              ptm::abortCauseName(static_cast<ptm::AbortCause>(C)),
          double(Stm.Aborts[C] - R.P0.Stm.Aborts[C]));
  S.set("stm.cm_wait_us", nsToUs(double(R.P1.CmWaitNs - R.P0.CmWaitNs)));

  // WAL, over the service's life (zero when no WAL is attached).
  uint64_t Appends = R.WalTel.counter("wal.appends");
  const ptm::obs::HistogramSnapshot *AppendNs =
      R.WalTel.histogram("wal.append_ns");
  uint64_t Writes = R.total(&RunStats::WritesSent);
  uint64_t UserBytes = 16 * R.total(&RunStats::PairsWritten);
  S.set("kv.wal.appends_per_write",
        Spec.Wal && Writes ? double(Appends) / double(Writes) : 0);
  S.set("kv.wal.bytes_per_user_byte",
        Spec.Wal && UserBytes
            ? double(R.WalTel.counter("wal.bytes")) / double(UserBytes)
            : 0);
  S.set("kv.wal.append_p50_us",
        AppendNs ? nsToUs(double(AppendNs->percentile(50))) : 0);
  S.set("kv.wal.append_p99_us",
        AppendNs ? nsToUs(double(AppendNs->percentile(99))) : 0);
  S.set("kv.wal.io_errors", double(R.WalTel.counter("wal.io_errors")));
  S.set("kv.wal.replay_us_per_record", R.ReplayUsPerRecord);

  // Process: the traced window.
  const rusage &R0 = Traced.RuStart, &R1 = Traced.RuEnd;
  double User = tvUs(R1.ru_utime) - tvUs(R0.ru_utime);
  double Sys = tvUs(R1.ru_stime) - tvUs(R0.ru_stime);
  double Ops = double(std::max<uint64_t>(Traced.WindowOps, 1));
  S.set("proc.sys_share", User + Sys > 0 ? Sys / (User + Sys) : 0);
  S.set("proc.vol_ctx_switches_per_op",
        double(R1.ru_nvcsw - R0.ru_nvcsw) / Ops);
  S.set("proc.invol_ctx_switches_per_op",
        double(R1.ru_nivcsw - R0.ru_nivcsw) / Ops);

  // The executor at the served single-key rate, then the ladder.
  double SingleRate = double(Traced.SingleLat.count()) / Traced.WindowSec;
  ExecutorRun Ex = runExecutorAtRate(Spec, Keys, Seed, SingleRate,
                                     WalDir, Trace, V);
  const ptm::obs::HistogramSnapshot *ExecLat =
      Ex.Tel.histogram("kv.executor.latency_ns");
  double ExecP50 = ExecLat ? nsToUs(double(ExecLat->percentile(50))) : 0;
  uint64_t Batches = Ex.Tel.counter("kv.executor.batches");
  S.set("kv.executor.latency_p50_us", ExecP50);
  S.set("kv.executor.latency_p99_us",
        ExecLat ? nsToUs(double(ExecLat->percentile(99))) : 0);
  S.set("kv.executor.batch_mean",
        Batches ? double(Ex.Tel.counter("kv.executor.completed")) /
                      double(Batches)
                : 0);
  S.set("kv.executor.queue_depth_max", double(Ex.QueueDepthMax));
  S.set("net.server.self_us", usPct(Traced.SingleLat, 50) - ExecP50);

  Ladder L = runLadder(Spec, Keys, Seed, WalDir, Trace, V);
  for (unsigned K = 0; K < kNumOpKinds; ++K)
    S.set(std::string("kv.store.") + opKindName(static_cast<OpKind>(K)) +
              "_us",
          nsToUs(median(L.StoreNs[K])));
  S.set("kv.executor.roundtrip_us", nsToUs(median(L.ExecutorNs)));
  S.set("ladder.wire_rtt_us", nsToUs(median(L.WireNs)));

  std::printf("unloaded ladder (window 1, %s mix):\n", Spec.Name);
  for (unsigned K = 0; K < kNumOpKinds; ++K)
    if (!L.StoreNs[K].empty())
      std::printf("  kv.store.%s_us %.2f (n=%zu)\n",
                  opKindName(static_cast<OpKind>(K)),
                  nsToUs(median(L.StoreNs[K])), L.StoreNs[K].size());
  std::printf("  -> kv.executor.roundtrip_us %.2f (n=%zu)\n",
              nsToUs(median(L.ExecutorNs)), L.ExecutorNs.size());
  std::printf("  -> ladder.wire_rtt_us %.2f (n=%zu)\n",
              nsToUs(median(L.WireNs)), L.WireNs.size());
  std::printf("  loaded latency_p50_us %.2f (traced run): %.2f us above "
              "the unloaded wire round trip is queueing\n",
              usPct(Traced.Lat, 50),
              usPct(Traced.Lat, 50) - nsToUs(median(L.WireNs)));
  std::printf("  traced throughput %.0f op/s vs untraced %.0f and %.0f "
              "op/s before and after\n",
              Traced.throughput(), Plain.throughput(), R.After.throughput());
  return S;
}

bool parseArgs(int Argc, char **Argv, Args &A, bool &SelfTest) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--self-test") {
      SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string Val = Argv[++I];
    if (Flag == "--workload")
      A.Workload = Val;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(Val.c_str());
    else if (Flag == "--trace")
      A.Trace = Val == "1";
    else if (Flag == "--work-dir")
      A.WorkDir = Val;
    else
      return false;
  }
  return SelfTest || (!A.Workload.empty() && A.Seconds >= 1);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  bool SelfTest = false;
  if (!parseArgs(Argc, Argv, A, SelfTest)) {
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--work-dir DIR] | "
                         "--self-test\n");
    return 2;
  }
  if (SelfTest)
    return runSelfTests();
  const WorkloadSpec *SpecPtr = findWorkload(A.Workload);
  if (!SpecPtr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  const WorkloadSpec &Spec = *SpecPtr;
  Cpus.pinGenerator();
  std::error_code Ec;
  std::filesystem::create_directories(A.WorkDir, Ec);
  std::string Tag = Spec.Name + std::string("-") + std::to_string(::getpid());
  std::string WalDir = A.WorkDir + "/wal-" + Tag;

  auto Probe = makeStore(false);
  KeySpace Keys([&](uint64_t K) { return Probe->shardOf(K); },
                Probe->shardCount());
  Probe.reset();

  std::printf("perfbench: workload %s, seed %llu, %.0f s window after %.0f s "
              "warm-up, %s\n",
              Spec.Name, static_cast<unsigned long long>(A.Seed), A.Seconds,
              kWarmupSec, A.Trace ? "traced" : "untraced");
  if (Spec.OpenLoop)
    std::printf("  open loop, %.0f req/s offered over %u connections\n",
                Spec.RatePerSec, kConnections);
  else
    std::printf("  closed loop, window %u x %u connections\n", Spec.Window,
                kConnections);
  if (Spec.Wal)
    std::printf("  WAL fdatasync per group commit, on %s\n",
                filesystemType(A.WorkDir).c_str());

  Verdict V;
  SpanLog Trace(kSpanCap);
  Served R = serve(A, Spec, Keys, WalDir, Trace, V);
  printEndToEnd(R, V);
  std::vector<Metric> Out;
  if (A.Trace) {
    Sheet S = perLayer(R, Spec, Keys, A.Seed, WalDir, Trace, V);
    std::string SpanPath = A.WorkDir + "/spans-" + Spec.Name + ".tsv";
    if (Trace.write(SpanPath))
      std::printf("spans: %zu written to %s (%llu dropped over the cap)\n",
                  Trace.spans().size(), SpanPath.c_str(),
                  static_cast<unsigned long long>(Trace.dropped()));
    Out = finish(S, perLayerMetrics(), V);
  } else {
    Out = finish(endToEnd(R), endToEndMetrics(), V);
  }

  std::filesystem::remove_all(WalDir, Ec);
  for (const std::string &Problem : V.Problems)
    std::printf("FAIL: %s\n", Problem.c_str());
  bool Correct = V.Problems.empty();
  std::printf("%s\n", resultJson(Correct, V.Attempted, V.Failed, Out).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

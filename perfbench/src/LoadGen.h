//===-- perfbench/src/LoadGen.h - One-thread loopback load generator ------===//
//
// Part of the PTM project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a KvServer over loopback from the calling thread: kConnections
/// non-blocking sockets multiplexed on one epoll set, speaking the wire
/// codec of net/Protocol.h. (KvClient's receive blocks on one socket, so
/// a single thread cannot multiplex its pipelined surface across several
/// connections; the generator frames requests exactly as KvClient::send
/// does, coalescing the frames a connection has ready into one send.)
///
/// A closed loop keeps Window requests in flight per connection and
/// times each from the moment it was issued. An open loop releases
/// requests on an OpenLoopSchedule, round-robin over the connections, and
/// times each from its due time. Every response is checked against the
/// Model before it is counted.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include "Measure.h"
#include "Workload.h"

#include <sys/resource.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct RunStats {
  uint64_t Sent = 0;
  uint64_t Received = 0;
  uint64_t Errors = 0;     ///< Answers with an unexpected non-Ok status.
  uint64_t Wrong = 0;      ///< Other answers that disagree with the Model.
  uint64_t Unfinished = 0; ///< Sent but never answered.
  uint64_t WritesSent = 0;   ///< Put and MultiPut requests sent.
  uint64_t PairsWritten = 0; ///< Key-value pairs those requests carry.
  std::string FirstMismatch;

  double WindowSec = 0;
  uint64_t WindowOps = 0;         ///< Answers received inside the window.
  uint64_t FirstDoneNs = 0, LastDoneNs = 0; ///< First/last of those.
  LatencyLog Lat;       ///< Every op answered in the window.
  LatencyLog MultiLat;  ///< The multi-key ones among them.
  LatencyLog SingleLat; ///< The single-key ones.
  LatencyLog Lag;       ///< Open loop: send time - due time.
  std::vector<uint64_t> PerSecond; ///< Answers per 1-s slice of the window.
  rusage RuStart{}, RuEnd{};

  uint64_t failures() const { return Errors + Wrong + Unfinished; }
  /// Answers per second between the window's first and last answer.
  double throughput() const {
    return WindowOps > 1 && LastDoneNs > FirstDoneNs
               ? double(WindowOps - 1) * 1e9 / double(LastDoneNs - FirstDoneNs)
               : 0;
  }
};

class LoadGen {
public:
  LoadGen(const WorkloadSpec &Spec, const KeySpace &Keys, Model &M,
          uint64_t Seed);
  ~LoadGen();

  LoadGen(const LoadGen &) = delete;
  LoadGen &operator=(const LoadGen &) = delete;

  /// Opens the connections to 127.0.0.1:\p Port. False on failure.
  bool connect(uint16_t Port);

  /// Runs \p WarmupSec of load, then a timed window of \p Seconds, then
  /// drains what is still in flight. \p OnEdge runs at the start (true)
  /// and end (false) of the window. With \p Trace, one request in
  /// \p SampleEvery per connection is timed, and recorded as spans when
  /// it is answered inside the window.
  RunStats run(double WarmupSec, double Seconds, SpanLog *Trace,
               uint64_t SampleEvery, const std::function<void(bool)> &OnEdge);

private:
  struct InFlight {
    uint64_t Id = 0;
    uint64_t DueNs = 0; ///< Issue time (closed loop) or due time (open).
    net::NetResponse Want;
    bool Multi = false;
    bool Sampled = false;
    uint64_t EncStart = 0, EncEnd = 0, SendStart = 0, SendEnd = 0;
  };
  struct Conn {
    int Fd = -1;
    unsigned Index = 0;
    std::unique_ptr<OpGen> Gen;
    uint64_t Seq = 0;
    std::vector<uint8_t> Out;
    size_t OutPos = 0;
    bool WantOut = false; ///< EPOLLOUT armed.
    size_t Unsent = 0;    ///< Tail of Q whose frames are not yet sent.
    std::vector<uint8_t> In;
    size_t InPos = 0;
    std::deque<InFlight> Q;
    bool Broken = false;
  };

  void issue(Conn &C, uint64_t DueNs, uint64_t NowNs);
  void flush(Conn &C);
  void onReadable(Conn &C);
  void decodeAll(Conn &C, uint64_t RecvNs);
  void fail(Conn &C, const std::string &Why);
  void setWantOut(Conn &C, bool On);

  const WorkloadSpec &Spec;
  const KeySpace &Keys;
  Model &M;
  uint64_t Seed;
  std::vector<Conn> Conns;
  int EpollFd = -1;
  int TimerFd = -1;

  // Per-run state.
  RunStats *Stats = nullptr;
  SpanLog *Trace = nullptr;
  uint64_t SampleEvery = 1;
  uint64_t WindowStart = 0, WindowEnd = 0;
  bool Issuing = false;
  Op Scratch;
  net::NetResponse Resp;
};

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H

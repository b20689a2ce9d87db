//===-- perfbench/src/LoadGen.cpp - One-thread loopback load generator ----===//
//
// Part of the PTM project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "LoadGen.h"

#include "obs/Metrics.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

using namespace perfbench;
using ptm::obs::monotonicNowNs;

namespace {
constexpr uint64_t kNsPerSec = 1000000000ULL;
constexpr uint64_t kDrainNs = 10 * kNsPerSec;
constexpr uint64_t kTimerTag = ~0ULL;
} // namespace

LoadGen::LoadGen(const WorkloadSpec &W, const KeySpace &K, Model &Oracle,
                 uint64_t RunSeed)
    : Spec(W), Keys(K), M(Oracle), Seed(RunSeed) {}

LoadGen::~LoadGen() {
  for (Conn &C : Conns)
    if (C.Fd >= 0)
      ::close(C.Fd);
  if (TimerFd >= 0)
    ::close(TimerFd);
  if (EpollFd >= 0)
    ::close(EpollFd);
}

bool LoadGen::connect(uint16_t Port) {
  EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
  TimerFd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (EpollFd < 0 || TimerFd < 0)
    return false;
  epoll_event TEv{};
  TEv.events = EPOLLIN;
  TEv.data.u64 = kTimerTag;
  if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, TimerFd, &TEv) != 0)
    return false;
  Conns.resize(kConnections);
  for (unsigned I = 0; I < kConnections; ++I) {
    Conn &C = Conns[I];
    C.Index = I;
    C.Gen = std::make_unique<OpGen>(Spec, Keys, Seed, I);
    C.Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (C.Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Port);
    if (::connect(C.Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)))
      return false;
    int One = 1;
    ::setsockopt(C.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    int Flags = ::fcntl(C.Fd, F_GETFL, 0);
    if (Flags < 0 || ::fcntl(C.Fd, F_SETFL, Flags | O_NONBLOCK) != 0)
      return false;
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.u64 = I;
    if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, C.Fd, &Ev) != 0)
      return false;
  }
  return true;
}

void LoadGen::setWantOut(Conn &C, bool On) {
  if (C.WantOut == On)
    return;
  C.WantOut = On;
  epoll_event Ev{};
  Ev.events = On ? EPOLLIN | EPOLLOUT : EPOLLIN;
  Ev.data.u64 = C.Index;
  ::epoll_ctl(EpollFd, EPOLL_CTL_MOD, C.Fd, &Ev);
}

void LoadGen::fail(Conn &C, const std::string &Why) {
  if (Stats->FirstMismatch.empty())
    Stats->FirstMismatch = "connection " + std::to_string(C.Index) + ": " + Why;
  C.Broken = true;
}

void LoadGen::issue(Conn &C, uint64_t DueNs, uint64_t NowNs) {
  C.Gen->next(Scratch);
  net::NetRequest Req = Scratch.toRequest();
  Req.Id = (uint64_t(C.Index + 1) << 40) | ++C.Seq;
  InFlight F;
  F.Id = Req.Id;
  F.DueNs = DueNs;
  F.Want = M.apply(Scratch);
  F.Multi = !Scratch.singleKey();
  F.Sampled = Trace && C.Seq % SampleEvery == 0;
  if (F.Sampled)
    F.EncStart = monotonicNowNs();
  net::encodeRequest(Req, C.Out);
  if (F.Sampled)
    F.EncEnd = monotonicNowNs();
  if (Spec.OpenLoop && DueNs >= WindowStart && DueNs < WindowEnd)
    Stats->Lag.record(latencyFromDue(DueNs, NowNs));
  if (Scratch.Kind == OpKind::Put || Scratch.Kind == OpKind::MultiPut) {
    ++Stats->WritesSent;
    Stats->PairsWritten += Scratch.Kind == OpKind::Put ? 1 : 2;
  }
  C.Q.push_back(std::move(F));
  ++C.Unsent;
  ++Stats->Sent;
}

void LoadGen::flush(Conn &C) {
  if (C.Broken || C.OutPos == C.Out.size())
    return;
  size_t First = C.Q.size() - C.Unsent;
  bool Sampled = false;
  for (size_t I = First; Trace && I < C.Q.size(); ++I)
    Sampled |= C.Q[I].Sampled;
  uint64_t S0 = Sampled ? monotonicNowNs() : 0;
  while (C.OutPos < C.Out.size()) {
    ssize_t N = ::send(C.Fd, C.Out.data() + C.OutPos, C.Out.size() - C.OutPos,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (N > 0) {
      C.OutPos += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    fail(C, std::string("send: ") + std::strerror(errno));
    return;
  }
  for (size_t I = First; Sampled && I < C.Q.size(); ++I)
    if (C.Q[I].SendStart == 0)
      C.Q[I].SendStart = S0;
  if (C.OutPos < C.Out.size()) {
    setWantOut(C, true);
    return;
  }
  C.Out.clear();
  C.OutPos = 0;
  setWantOut(C, false);
  if (Sampled) {
    uint64_t S1 = monotonicNowNs();
    for (size_t I = First; I < C.Q.size(); ++I)
      C.Q[I].SendEnd = S1;
  }
  C.Unsent = 0;
}

void LoadGen::decodeAll(Conn &C, uint64_t RecvNs) {
  while (!C.Broken) {
    bool Sampled = !C.Q.empty() && C.Q.front().Sampled;
    uint64_t D0 = Sampled ? monotonicNowNs() : 0;
    size_t Consumed = 0;
    net::DecodeStatus S = net::decodeResponse(
        C.In.data() + C.InPos, C.In.size() - C.InPos, Consumed, Resp);
    if (S == net::DecodeStatus::NeedMore)
      break;
    if (S == net::DecodeStatus::Malformed || C.Q.empty()) {
      ++Stats->Wrong;
      fail(C, "malformed or unsolicited response");
      return;
    }
    C.InPos += Consumed;
    InFlight &F = C.Q.front();
    ++Stats->Received;
    if (Resp.Id != F.Id) {
      ++Stats->Wrong;
      fail(C, "response id " + std::to_string(Resp.Id) + ", expected " +
                  std::to_string(F.Id));
      return;
    }
    if (!sameAnswer(F.Want, Resp)) {
      if (Resp.Result.Status != F.Want.Result.Status)
        ++Stats->Errors;
      else
        ++Stats->Wrong;
      if (Stats->FirstMismatch.empty())
        Stats->FirstMismatch =
            "request " + std::to_string(F.Id) + ": status " +
            kv::kvStatusName(Resp.Result.Status) + " value " +
            std::to_string(Resp.Result.Value) + ", expected " +
            kv::kvStatusName(F.Want.Result.Status) + " value " +
            std::to_string(F.Want.Result.Value);
    }
    if (RecvNs >= WindowStart && RecvNs < WindowEnd) {
      uint64_t Lat = latencyFromDue(F.DueNs, RecvNs);
      Stats->Lat.record(Lat);
      (F.Multi ? Stats->MultiLat : Stats->SingleLat).record(Lat);
      if (Stats->WindowOps++ == 0)
        Stats->FirstDoneNs = RecvNs;
      Stats->LastDoneNs = RecvNs;
      size_t Slice = (RecvNs - WindowStart) / kNsPerSec;
      if (Slice < Stats->PerSecond.size())
        ++Stats->PerSecond[Slice];
    }
    if (Sampled && F.SendEnd != 0 && RecvNs >= WindowStart &&
        RecvNs < WindowEnd) {
      uint64_t D1 = monotonicNowNs();
      Trace->add({F.Id, 0, SpanKind::Request, F.EncStart, D1});
      Trace->add({0, F.Id, SpanKind::Encode, F.EncStart, F.EncEnd});
      Trace->add({0, F.Id, SpanKind::Send, F.SendStart, F.SendEnd});
      Trace->add({0, F.Id, SpanKind::RecvWait, F.SendEnd, RecvNs});
      Trace->add({0, F.Id, SpanKind::Decode, D0, D1});
    }
    C.Q.pop_front();
  }
  if (C.InPos == C.In.size()) {
    C.In.clear();
    C.InPos = 0;
  }
}

void LoadGen::onReadable(Conn &C) {
  uint8_t Chunk[65536];
  while (!C.Broken) {
    ssize_t N = ::recv(C.Fd, Chunk, sizeof(Chunk), MSG_DONTWAIT);
    if (N > 0) {
      uint64_t RecvNs = monotonicNowNs();
      C.In.insert(C.In.end(), Chunk, Chunk + N);
      decodeAll(C, RecvNs);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    fail(C, N == 0 ? "server closed the connection"
                   : std::string("recv: ") + std::strerror(errno));
  }
  if (Issuing && !Spec.OpenLoop && !C.Broken) {
    uint64_t Now = monotonicNowNs();
    while (C.Q.size() < Spec.Window)
      issue(C, Now, Now);
  }
  flush(C);
}

RunStats LoadGen::run(double WarmupSec, double Seconds, SpanLog *TraceLog,
                      uint64_t SampleEveryN,
                      const std::function<void(bool)> &OnEdge) {
  RunStats Result;
  Stats = &Result;
  Trace = TraceLog;
  SampleEvery = std::max<uint64_t>(SampleEveryN, 1);
  // The open loop's timer wakes on time, not up to 50 us late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  uint64_t Start = monotonicNowNs();
  WindowStart = Start + static_cast<uint64_t>(WarmupSec * kNsPerSec);
  WindowEnd = WindowStart + static_cast<uint64_t>(Seconds * kNsPerSec);
  Result.WindowSec = Seconds;
  Result.PerSecond.assign(static_cast<size_t>(Seconds), 0);
  Issuing = true;

  OpenLoopSchedule Sched(
      Start, Spec.OpenLoop ? static_cast<uint64_t>(kNsPerSec / Spec.RatePerSec)
                           : 1);
  if (!Spec.OpenLoop)
    for (Conn &C : Conns) {
      for (unsigned W = 0; W < Spec.Window; ++W)
        issue(C, Start, Start);
      flush(C);
    }

  enum { Warm, Window, Drain } Phase = Warm;
  uint64_t DrainDeadline = 0;
  epoll_event Events[kConnections + 1];
  for (;;) {
    uint64_t Now = monotonicNowNs();
    if (Phase == Warm && Now >= WindowStart) {
      Phase = Window;
      ::getrusage(RUSAGE_SELF, &Result.RuStart);
      OnEdge(true);
    }
    if (Phase == Window && Now >= WindowEnd) {
      Phase = Drain;
      ::getrusage(RUSAGE_SELF, &Result.RuEnd);
      OnEdge(false);
      Issuing = false;
      DrainDeadline = Now + kDrainNs;
    }
    bool AllBroken = true;
    size_t Pending = 0;
    for (const Conn &C : Conns) {
      AllBroken &= C.Broken;
      if (!C.Broken)
        Pending += C.Q.size();
    }
    if (Phase == Drain && (Pending == 0 || Now >= DrainDeadline || AllBroken))
      break;

    if (Spec.OpenLoop && Issuing) {
      uint64_t N = Sched.release(Now);
      for (uint64_t I = Sched.released() - N; I < Sched.released(); ++I) {
        Conn &C = Conns[I % kConnections];
        if (!C.Broken)
          issue(C, Sched.dueNs(I), Now);
      }
      for (Conn &C : Conns)
        flush(C);
      uint64_t Due = Sched.nextDueNs();
      itimerspec Ts{};
      Ts.it_value.tv_sec = static_cast<time_t>(Due / kNsPerSec);
      Ts.it_value.tv_nsec = static_cast<long>(Due % kNsPerSec);
      ::timerfd_settime(TimerFd, TFD_TIMER_ABSTIME, &Ts, nullptr);
    }

    int N = ::epoll_wait(EpollFd, Events, kConnections + 1, 1);
    for (int I = 0; I < N; ++I) {
      if (Events[I].data.u64 == kTimerTag) {
        uint64_t Expirations = 0;
        (void)!::read(TimerFd, &Expirations, sizeof(Expirations));
        continue;
      }
      Conn &C = Conns[Events[I].data.u64];
      if (Events[I].events & (EPOLLIN | EPOLLERR | EPOLLHUP))
        onReadable(C);
      if (Events[I].events & EPOLLOUT)
        flush(C);
    }
  }
  if (Phase != Drain)
    ::getrusage(RUSAGE_SELF, &Result.RuEnd);
  for (Conn &C : Conns) {
    Result.Unfinished += C.Q.size();
    C.Q.clear();
    C.Unsent = 0;
  }
  Stats = nullptr;
  Trace = nullptr;
  return Result;
}

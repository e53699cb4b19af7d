#include "check/scheduler.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#if defined(__SANITIZE_ADDRESS__)
#define PJOIN_MC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PJOIN_MC_ASAN 1
#endif
#endif
#ifdef PJOIN_MC_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace pjoin {
namespace mc {

namespace {

// AddressSanitizer keeps one stack range per OS thread. Every fiber switch
// names the destination stack before it (StartSwitch) and confirms the
// arrival after it (FinishSwitch); without that, an exception unwinding on
// a fiber stack makes ASan clear the wrong range and abort. A null `save`
// tells ASan the departing fiber never resumes. Both are no-ops without
// ASan.
void StartSwitch([[maybe_unused]] void** save,
                 [[maybe_unused]] const void* bottom,
                 [[maybe_unused]] size_t size) {
#ifdef PJOIN_MC_ASAN
  __sanitizer_start_switch_fiber(save, bottom, size);
#endif
}

void FinishSwitch([[maybe_unused]] void* save,
                  [[maybe_unused]] const void** bottom_old,
                  [[maybe_unused]] size_t* size_old) {
#ifdef PJOIN_MC_ASAN
  __sanitizer_finish_switch_fiber(save, bottom_old, size_old);
#endif
}

// All model threads are fibers on ONE OS thread, so a plain global is safe.
Execution* g_current = nullptr;

constexpr size_t kFiberStackSize = 256 * 1024;
// TSO store buffers are kept tiny: each buffered store is a scheduler
// branching point, and two in-flight stores per thread already expose every
// reordering the spine's protocols are sensitive to.
constexpr size_t kStoreBufferCap = 2;

// A reused fiber stack may still carry ASan poison from the frames of the
// fiber that ran on it last, which left by jumping away instead of
// returning through them. A no-op without ASan.
void UnpoisonStack([[maybe_unused]] char* stack) {
#ifdef PJOIN_MC_ASAN
  __asan_unpoison_memory_region(stack, kFiberStackSize);
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// ExploreResult
// ---------------------------------------------------------------------------

std::string ExploreResult::Summary() const {
  std::ostringstream os;
  os << "[MC] label=" << label << " schedules=" << schedules
     << " states=" << points << " exhaustive=" << (exhaustive ? 1 : 0)
     << " bound=" << bound << " tso=" << (tso ? 1 : 0)
     << " failed=" << (failed ? 1 : 0);
  return os.str();
}

std::string ExploreResult::TraceString() const {
  std::ostringstream os;
  os << failure << "\nfailing schedule (" << trace.size() << " points):\n";
  for (const std::string& line : trace) os << "  " << line << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

Execution* Execution::Current() { return g_current; }

Execution::Execution(const ExploreOptions& options, Run mode,
                     const std::vector<int>* prefix, uint64_t walk_seed,
                     std::vector<std::unique_ptr<char[]>>* stacks)
    : options_(options),
      mode_(mode),
      prefix_(prefix),
      stacks_(stacks),
      rng_(walk_seed) {
  // Fibers park their ucontext inside ThreadState; reserving up front
  // guarantees the vector never relocates live contexts.
  threads_.reserve(kMaxModelThreads);
}

int Execution::CreateThread(std::function<void()> fn) {
  if (static_cast<int>(threads_.size()) >= kMaxModelThreads) {
    Fail("too many model threads (kMaxModelThreads)");
  }
  const int tid = static_cast<int>(threads_.size());
  threads_.emplace_back();
  ThreadState& t = threads_.back();
  t.fn = std::move(fn);
  t.state = State::kReady;
  // Stacks are not zero-filled (a fiber writes its frames before reading
  // them) and are reused by every schedule of the Explore.
  std::vector<std::unique_ptr<char[]>>& stacks = *stacks_;
  if (stacks.size() <= static_cast<size_t>(tid)) {
    stacks.push_back(std::make_unique_for_overwrite<char[]>(kFiberStackSize));
  } else {
    UnpoisonStack(stacks[static_cast<size_t>(tid)].get());
  }
  t.stack = stacks[static_cast<size_t>(tid)].get();
  if (tid > 0) {
    // Thread creation is a happens-before edge: the child starts with the
    // parent's clock; the parent then advances so post-fork parent events
    // are not ordered before the child's view.
    t.clock.Join(threads_[current_].clock);
    ++threads_[current_].clock.c[current_];
  }
  return tid;
}

void Execution::JoinThread(int tid) {
  SchedulePoint(&threads_[tid], "join");
  while (threads_[tid].state != State::kFinished) {
    ThreadState& self = threads_[current_];
    self.state = State::kBlockedJoin;
    self.join_target = tid;
    ScheduleOut(/*self_enabled=*/false);
  }
  // join() synchronizes-with thread exit.
  threads_[current_].clock.Join(threads_[tid].clock);
}

int Execution::SchedulePoint(const void* loc, const char* op) {
  if (abort_) throw AbortExecution{};
  if (++steps_ > options_.max_steps) {
    Fail("livelock: schedule exceeded max_steps (unbounded spin?)");
  }
  RecordTrace(current_, op, loc);
  ScheduleOut(/*self_enabled=*/true);
  return current_;
}

void Execution::BlockOnAddress(const void* loc) {
  ThreadState& self = threads_[current_];
  self.state = State::kBlocked;
  self.blocked_addr = loc;
  RecordTrace(current_, "block", loc);
  ScheduleOut(/*self_enabled=*/false);
}

void Execution::Notify(const void* loc, bool all) {
  // A waker's pending stores must be visible to the woken thread; real
  // futex wake paths sit behind at least one barrier, so drain first.
  if (options_.tso) FlushCurrentThread();
  RecordTrace(current_, all ? "notify_all" : "notify_one", loc);
  for (size_t i = 0; i < threads_.size(); ++i) {
    ThreadState& t = threads_[i];
    if (t.state == State::kBlocked && t.blocked_addr == loc) {
      t.state = State::kReady;
      t.blocked_addr = nullptr;
      if (!all) break;  // lowest-tid waiter wins; deterministic
    }
  }
}

void Execution::Fail(std::string what) {
  FailNoThrow(std::move(what));
  throw AbortExecution{};
}

void Execution::FailNoThrow(std::string what) {
  if (!failed_) {
    failed_ = true;
    failure_ = std::move(what);
  }
  abort_ = true;
}

VectorClock& Execution::thread_clock(int tid) { return threads_[tid].clock; }

uint64_t Execution::TickClock() {
  return ++threads_[current_].clock.c[current_];
}

void Execution::BufferStore(AtomicBase* loc, uint64_t bits, bool release) {
  ThreadState& self = threads_[current_];
  if (self.buffer.size() >= kStoreBufferCap) DoFlushOldest(current_);
  self.buffer.push_back(BufferedStore{loc, bits, release, self.clock});
}

bool Execution::PeekBuffered(const AtomicBase* loc, uint64_t* bits) const {
  const ThreadState& self = threads_[current_];
  for (auto it = self.buffer.rbegin(); it != self.buffer.rend(); ++it) {
    if (it->loc == loc) {
      *bits = it->bits;
      return true;
    }
  }
  return false;
}

void Execution::FlushCurrentThread() {
  while (!threads_[current_].buffer.empty()) DoFlushOldest(current_);
}

void Execution::DoFlushOldest(int tid) {
  ThreadState& t = threads_[tid];
  BufferedStore s = t.buffer.front();
  t.buffer.erase(t.buffer.begin());
  RecordTrace(tid, "flush", s.loc);
  s.loc->CommitStoreBits(s.bits, s.release, s.clock);
}

bool Execution::IsReady(int tid) const {
  const ThreadState& t = threads_[tid];
  switch (t.state) {
    case State::kReady:
      return true;
    case State::kBlockedJoin:
      return threads_[t.join_target].state == State::kFinished;
    default:
      return false;
  }
}

bool Execution::AllFinished() const {
  for (const ThreadState& t : threads_) {
    if (t.state != State::kFinished) return false;
  }
  return true;
}

std::vector<Execution::Action> Execution::ComputeEnabled(
    bool self_enabled) const {
  std::vector<Action> out;
  // Once the preemption budget is spent, the running thread keeps the CPU
  // until it blocks or finishes (CHESS-style bounding). Only the DFS pass
  // is bounded; random walks sample the full schedule space.
  const bool restrict_to_self =
      self_enabled && mode_ == Run::kDfs && options_.max_preemptions >= 0 &&
      preemptions_ >= options_.max_preemptions;
  // Canonical order (current first, then ready tids ascending, then flush
  // tids ascending) keeps choice indices stable across replays.
  if (self_enabled) out.push_back(Action{Action::kRunThread, current_});
  if (!restrict_to_self) {
    for (int i = 0; i < static_cast<int>(threads_.size()); ++i) {
      if (i == current_) continue;
      if (IsReady(i)) out.push_back(Action{Action::kRunThread, i});
    }
  }
  if (options_.tso) {
    for (int i = 0; i < static_cast<int>(threads_.size()); ++i) {
      if (!threads_[i].buffer.empty()) out.push_back(Action{Action::kFlush, i});
    }
  }
  return out;
}

int Execution::ChooseIndex(int n) {
  int choice = 0;
  if (n > 1) {
    if (mode_ == Run::kRandom) {
      choice = static_cast<int>(rng_() % static_cast<uint64_t>(n));
    } else if (decision_index_ < (prefix_ ? prefix_->size() : 0)) {
      choice = (*prefix_)[decision_index_];
      if (choice >= n) choice = n - 1;  // defensive; replay is deterministic
    }
  }
  decisions_.push_back(Decision{choice, n});
  ++decision_index_;
  return choice;
}

void Execution::ScheduleOut(bool self_enabled) {
  const int self = current_;
  for (;;) {
    std::vector<Action> enabled = ComputeEnabled(self_enabled);
    if (enabled.empty()) {
      Fail(DeadlockMessage());  // throws into the blocking fiber
    }
    const int choice = ChooseIndex(static_cast<int>(enabled.size()));
    const Action a = enabled[choice];
    if (a.kind == Action::kFlush) {
      DoFlushOldest(a.tid);
      continue;  // a flush is a sub-step; keep deciding
    }
    if (a.tid == self && self_enabled) return;  // fast path: no fiber swap
    if (self_enabled) {
      threads_[self].state = State::kReady;
      ++preemptions_;  // another thread chosen while self was runnable
    }
    SwitchFrom(self, a.tid);
    // Resumed: some other fiber chose to run us again.
    if (abort_) throw AbortExecution{};
    return;
  }
}

void Execution::PrepareStart(int tid) {
  ThreadState& t = threads_[tid];
  t.started = true;
  starting_tid_ = tid;
  getcontext(&t.start_ctx);
  t.start_ctx.uc_stack.ss_sp = t.stack;
  t.start_ctx.uc_stack.ss_size = kFiberStackSize;
  t.start_ctx.uc_link = nullptr;  // fibers exit via TransferAfterFinish
  makecontext(&t.start_ctx, reinterpret_cast<void (*)()>(&TrampolineEntry), 0);
}

void Execution::SwitchFrom(int from, int to) {
  ThreadState& t = threads_[to];
  t.state = State::kRunning;
  current_ = to;
  StartSwitch(&threads_[from].asan_fake_stack, t.stack, kFiberStackSize);
  if (!t.started) {
    PrepareStart(to);
    swapcontext(&threads_[from].ctx, &t.start_ctx);
  } else {
    swapcontext(&threads_[from].ctx, &t.ctx);
  }
  FinishSwitch(threads_[from].asan_fake_stack, nullptr, nullptr);
}

void Execution::JumpTo(int to) {
  ThreadState& t = threads_[to];
  t.state = State::kRunning;
  current_ = to;
  StartSwitch(nullptr, t.stack, kFiberStackSize);
  if (!t.started) {
    PrepareStart(to);
    setcontext(&t.start_ctx);
  } else {
    setcontext(&t.ctx);
  }
  std::abort();  // setcontext does not return
}

void Execution::ReturnToMain() {
  StartSwitch(nullptr, main_stack_bottom_, main_stack_size_);
  setcontext(&main_ctx_);
  std::abort();  // setcontext does not return
}

void Execution::TrampolineEntry() {
  Execution* e = g_current;
  const int tid = e->starting_tid_;
  const void* from_bottom = nullptr;
  size_t from_size = 0;
  FinishSwitch(nullptr, &from_bottom, &from_size);
  if (tid == 0) {
    // Fiber 0 is always entered from RunSchedule: remember that stack for
    // the switch back.
    e->main_stack_bottom_ = from_bottom;
    e->main_stack_size_ = from_size;
  }
  try {
    if (e->abort_) throw AbortExecution{};
    e->threads_[tid].fn();
  } catch (const AbortExecution&) {
    // Stack unwound; destructors ran. Failure already recorded.
  } catch (const std::exception& ex) {
    e->FailNoThrow(std::string("uncaught exception in model thread: ") +
                   ex.what());
  } catch (...) {
    e->FailNoThrow("uncaught non-standard exception in model thread");
  }
  e->TransferAfterFinish(tid);
}

void Execution::TransferAfterFinish(int tid) {
  ThreadState& self = threads_[tid];
  self.state = State::kFinished;
  if (!abort_) {
    // Thread exit drains its store buffer: the stores become visible, and
    // join() later publishes the exit clock.
    while (!self.buffer.empty()) DoFlushOldest(tid);
  } else {
    self.buffer.clear();
  }
  for (;;) {
    if (abort_) {
      // Abort chain: resume each started-but-unfinished fiber so it throws
      // at its park point and unwinds (destructors run, no leaks).
      int next = -1;
      for (int i = 0; i < static_cast<int>(threads_.size()); ++i) {
        if (threads_[i].state == State::kFinished) continue;
        if (!threads_[i].started) {
          threads_[i].state = State::kFinished;  // never ran; nothing to unwind
          threads_[i].buffer.clear();
          continue;
        }
        next = i;
        break;
      }
      if (next < 0) ReturnToMain();
      JumpTo(next);
    }
    Action a{Action::kDeadlock, -1};
    {
      // Scoped: the jumps below never return, so a vector still alive at
      // one of them would never be freed.
      const std::vector<Action> enabled =
          ComputeEnabled(/*self_enabled=*/false);
      if (!enabled.empty()) {
        a = enabled[ChooseIndex(static_cast<int>(enabled.size()))];
      }
    }
    if (a.kind == Action::kDeadlock) {
      if (AllFinished()) ReturnToMain();
      FailNoThrow(DeadlockMessage());
      continue;  // falls into the abort chain above
    }
    if (a.kind == Action::kFlush) {
      DoFlushOldest(a.tid);
      continue;
    }
    JumpTo(a.tid);
  }
}

void Execution::RunSchedule(const std::function<void()>& body) {
  g_current = this;
  CreateThread(body);  // tid 0 = the test body
  ThreadState& t0 = threads_[0];
  t0.state = State::kRunning;
  current_ = 0;
  PrepareStart(0);
  StartSwitch(&main_asan_fake_stack_, t0.stack, kFiberStackSize);
  swapcontext(&main_ctx_, &t0.start_ctx);
  // Back here only when every fiber has finished (TransferAfterFinish).
  FinishSwitch(main_asan_fake_stack_, nullptr, nullptr);
  g_current = nullptr;
}

std::string Execution::DeadlockMessage() const {
  std::ostringstream os;
  os << "deadlock: no runnable thread or pending flush;";
  for (int i = 0; i < static_cast<int>(threads_.size()); ++i) {
    const ThreadState& t = threads_[i];
    if (t.state == State::kFinished) continue;
    os << " T" << i
       << (t.state == State::kBlocked
               ? "=blocked(futex)"
               : t.state == State::kBlockedJoin ? "=blocked(join)" : "=live");
  }
  return os.str();
}

void Execution::RecordTrace(int tid, const char* op, const void* loc) {
  trace_.push_back(TraceEntry{static_cast<int8_t>(tid), op,
                              static_cast<int16_t>(LocId(loc))});
}

int Execution::LocId(const void* loc) {
  if (loc == nullptr) return -1;
  for (size_t i = 0; i < locs_.size(); ++i) {
    if (locs_[i] == loc) return static_cast<int>(i);
  }
  locs_.push_back(loc);
  return static_cast<int>(locs_.size()) - 1;
}

std::vector<std::string> Execution::TraceLines() const {
  std::vector<std::string> out;
  out.reserve(trace_.size());
  for (const TraceEntry& e : trace_) {
    std::ostringstream os;
    os << "T" << static_cast<int>(e.tid) << " " << e.op;
    if (e.loc_id >= 0) os << " @" << static_cast<char>('a' + e.loc_id % 26)
                          << (e.loc_id / 26 ? std::to_string(e.loc_id / 26) : "");
    out.push_back(os.str());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Explore
// ---------------------------------------------------------------------------

ExploreResult Explore(const ExploreOptions& options,
                      const std::function<void()>& body) {
  ExploreResult res;
  res.label = options.label;
  res.bound = options.max_preemptions;
  res.tso = options.tso;
  // Local lambdas inside this friend function retain private access.
  auto fill_failure = [&res](Execution& exec) {
    res.failed = true;
    res.failure = exec.failure_;
    res.trace = exec.TraceLines();
  };

  // Depth-first over decision sequences: re-run with a replay prefix, then
  // backtrack the deepest non-saturated choice.
  std::vector<int> prefix;
  std::vector<std::unique_ptr<char[]>> stacks;
  for (;;) {
    if (res.schedules >= options.max_schedules) break;  // truncated
    Execution exec(options, Execution::Run::kDfs, &prefix, /*walk_seed=*/0,
                   &stacks);
    exec.RunSchedule(body);
    ++res.schedules;
    res.points += exec.steps_;
    if (exec.failed_) {
      fill_failure(exec);
      return res;
    }
    std::vector<Execution::Decision>& d = exec.decisions_;
    while (!d.empty() && d.back().chosen + 1 >= d.back().n_enabled) {
      d.pop_back();
    }
    if (d.empty()) {
      res.exhaustive = true;  // every schedule within the bound was run
      break;
    }
    ++d.back().chosen;
    prefix.clear();
    prefix.reserve(d.size());
    for (const Execution::Decision& dec : d) prefix.push_back(dec.chosen);
  }

  for (int64_t i = 0; i < options.random_walks; ++i) {
    Execution exec(options, Execution::Run::kRandom, nullptr,
                   options.seed + static_cast<uint64_t>(i), &stacks);
    exec.RunSchedule(body);
    ++res.schedules;
    res.points += exec.steps_;
    if (exec.failed_) {
      fill_failure(exec);
      return res;
    }
  }
  return res;
}

// ---------------------------------------------------------------------------
// Thread / Check / SchedYield
// ---------------------------------------------------------------------------

Thread::Thread(std::function<void()> fn) {
  Execution* e = Execution::Current();
  if (e == nullptr) {
    std::fprintf(stderr, "mc::Thread used outside mc::Explore\n");
    std::abort();
  }
  tid_ = e->CreateThread(std::move(fn));
}

Thread::~Thread() {
  if (joined_) return;
  Execution* e = Execution::Current();
  // During abort-unwind the scheduler reaps the un-joined fiber itself;
  // outside of that, destroying an un-joined thread is a test bug.
  if (e != nullptr && !e->aborting()) {
    e->FailNoThrow("mc::Thread destroyed without join()");
  }
}

void Thread::join() {
  Execution::Current()->JoinThread(tid_);
  joined_ = true;
}

void Check(bool ok, const char* what) {
  if (ok) return;
  Execution* e = Execution::Current();
  if (e == nullptr) {
    std::fprintf(stderr, "mc::Check failed outside mc::Explore: %s\n", what);
    std::abort();
  }
  e->Fail(std::string("check failed: ") + what);
}

void SchedYield() { Execution::Current()->SchedulePoint(nullptr, "yield"); }

}  // namespace mc
}  // namespace pjoin

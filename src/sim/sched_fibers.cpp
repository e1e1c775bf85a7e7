// The virtual-time scheduler engine: stackful fibers on one host thread.
//
// Every rank is a stackful coroutine and all of them multiplex onto the
// host thread that called run(). A virtual-time handoff is a user-space
// stack switch — save callee-saved registers, swap stack pointers, restore
// — with no mutex, no condition variable and no kernel involvement, which
// is what makes 160-rank simulations run at model speed instead of
// host-scheduler speed.
//
// Scheduling state: per-rank clocks and statuses, the ready set as an
// explicit binary min-heap keyed by (vtime, rank) — push/pop O(log n), peek
// O(1) — and a channel→waiter-list map, so notify() touches only the ranks
// actually blocked on the channel. Every decision is a pure function of
// that state, so event order and every virtual timestamp are a pure
// function of the program.
//
// Switch primitive: on x86-64 a ~20-instruction assembly routine
// (System V: rbx, rbp, r12-r15 are callee-saved; xmm registers are
// caller-saved and need no save). Elsewhere, POSIX ucontext — slower
// (swapcontext re-syncs the signal mask via a syscall) but portable.
//
// Sanitizers: every stack switch is announced to the sanitizer compiled
// in. Under TSan (__tsan_create_fiber / __tsan_switch_to_fiber) each
// simulated rank is its own thread-of-execution, and TSan checks the flag
// protocol's happens-before edges across fibers. Under ASan
// (__sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber) the
// runtime learns the bounds of the stack it is about to run on, so stack
// instrumentation, exception unwinding and fake stacks follow the fibers.
//
// Fiber stacks are mmap'd with a PROT_NONE guard page at the low end, so a
// rank function overflowing its stack faults loudly instead of corrupting
// a neighbouring fiber.
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/scheduler.h"
#include "util/check.h"

#if defined(__SANITIZE_THREAD__)
#define XHC_TSAN_FIBERS 1
#elif defined(__SANITIZE_ADDRESS__)
#define XHC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XHC_TSAN_FIBERS 1
#elif __has_feature(address_sanitizer)
#define XHC_ASAN_FIBERS 1
#endif
#endif
#ifndef XHC_TSAN_FIBERS
#define XHC_TSAN_FIBERS 0
#endif
#ifndef XHC_ASAN_FIBERS
#define XHC_ASAN_FIBERS 0
#endif

#if XHC_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif
#if XHC_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__x86_64__)
#define XHC_FIBER_ASM 1
#else
#define XHC_FIBER_ASM 0
#include <ucontext.h>
#endif

#if XHC_FIBER_ASM
// xhc_fiber_switch(save_sp, load_sp): pushes the System V callee-saved
// registers, parks the current stack pointer in *save_sp, adopts load_sp,
// restores the saved registers of the target fiber and returns on its
// stack. A freshly-created fiber's frame is laid out so this "return"
// lands in xhc_fiber_entry (see make_fiber).
asm(R"(
.text
.globl xhc_fiber_switch
.hidden xhc_fiber_switch
.type xhc_fiber_switch, @function
xhc_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    retq
.size xhc_fiber_switch, .-xhc_fiber_switch
)");
extern "C" void xhc_fiber_switch(void** save_sp, void* load_sp);
#endif

namespace xhc::sim {

namespace {

constexpr std::size_t kFiberStackBytes = 1u << 20;  // 1 MiB, lazily paged

enum class Status : unsigned char {
  kReady,
  kRunning,
  kBlocked,
  kDone,
};

struct RankState {
  double vtime = 0.0;
  Status status = Status::kReady;
  const void* channel = nullptr;
  VirtualScheduler::PredFn pred_fn = nullptr;  ///< non-owning; caller frame
  void* pred_ctx = nullptr;                    ///< outlives the suspension
  bool dirty = false;      ///< channel notified since last predicate check
  int waiter_idx = -1;     ///< position in the channel's waiter list
};

/// Binary min-heap of ready ranks keyed by (vtime, rank). Keys are unique
/// (rank breaks ties), so the minimum — and therefore the schedule — is
/// total-order deterministic.
class ReadyHeap {
 public:
  void reserve(std::size_t n) { h_.reserve(n); }
  bool empty() const noexcept { return h_.empty(); }

  void push(double vtime, int rank) {
    h_.push_back({vtime, rank});
    std::size_t i = h_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(h_[i], h_[parent])) break;
      std::swap(h_[i], h_[parent]);
      i = parent;
    }
  }

  /// True when key (vtime, rank) precedes-or-equals the heap minimum,
  /// i.e. a running rank with that key may keep the token.
  bool at_most_top(double vtime, int rank) const noexcept {
    if (h_.empty()) return true;
    return vtime < h_[0].vtime ||
           (vtime == h_[0].vtime && rank < h_[0].rank);
  }

  int pop() {
    const int rank = h_[0].rank;
    h_[0] = h_.back();
    h_.pop_back();
    sift_down(0);
    return rank;
  }

  /// Removes a specific rank, wherever it sits (linear scan + sift).
  /// Only the exploration pick hook uses this — never the default path —
  /// and only on tiny topologies, so O(n) is fine.
  void extract(int rank) {
    std::size_t i = 0;
    while (i < h_.size() && h_[i].rank != rank) ++i;
    if (i == h_.size()) return;
    h_[i] = h_.back();
    h_.pop_back();
    if (i == h_.size()) return;
    // Restore heap order from i: the replacement may violate either way.
    std::size_t j = i;
    while (j > 0) {
      const std::size_t parent = (j - 1) / 2;
      if (!less(h_[j], h_[parent])) break;
      std::swap(h_[j], h_[parent]);
      j = parent;
    }
    if (j == i) sift_down(i);
  }

  /// Appends every ready rank to `out` (heap order, not sorted).
  void ranks_into(std::vector<int>& out) const {
    for (const Entry& e : h_) out.push_back(e.rank);
  }

 private:
  struct Entry {
    double vtime;
    int rank;
  };
  static bool less(const Entry& a, const Entry& b) noexcept {
    return a.vtime < b.vtime || (a.vtime == b.vtime && a.rank < b.rank);
  }
  void sift_down(std::size_t i) {
    while (true) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = l + 1;
      std::size_t m = i;
      if (l < h_.size() && less(h_[l], h_[m])) m = l;
      if (r < h_.size() && less(h_[r], h_[m])) m = r;
      if (m == i) break;
      std::swap(h_[i], h_[m]);
      i = m;
    }
  }
  std::vector<Entry> h_;
};

/// Thread-local cache of fiber stack mappings (guard page included). Bench
/// sweeps create one scheduler per simulation point, and mapping 160 fresh
/// stacks per run means an mmap/munmap pair plus a cold page-fault per
/// touched page, every run — measurably more kernel time than the
/// simulation itself. Reused mappings keep their warm pages and their
/// PROT_NONE guard. Thread-local so parallel sweep workers never contend;
/// each host thread's cache is unmapped when the thread exits.
class StackPool {
 public:
  ~StackPool() {
    for (char* m : free_) ::munmap(m, map_bytes_);
  }

  /// Returns the mmap base: [base, base+page) is the guard page, the stack
  /// is the kFiberStackBytes above it.
  char* acquire() {
    if (!free_.empty()) {
      char* m = free_.back();
      free_.pop_back();
      return m;
    }
    void* mem = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    XHC_CHECK(mem != MAP_FAILED, "fiber stack mmap failed");
    ::mprotect(mem, page_, PROT_NONE);
    return static_cast<char*>(mem);
  }

  void release(char* m) {
    if (free_.size() >= kMaxCached) {
      ::munmap(m, map_bytes_);
      return;
    }
    free_.push_back(m);
  }

  std::size_t page() const { return page_; }

 private:
  // Covers the largest paper system (160 ranks) with headroom; extra
  // stacks beyond this are returned to the kernel. Under TSan the cache is
  // disabled: a reused stack would carry the dead fiber's shadow state and
  // report phantom races against the new tenant, while munmap/mmap resets
  // the shadow (and TSan runs are not wall-clock sensitive anyway).
  static constexpr std::size_t kMaxCached = XHC_TSAN_FIBERS ? 0 : 192;

  const std::size_t page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t map_bytes_ = kFiberStackBytes + page_;
  std::vector<char*> free_;
};

/// A suspended execution context: one rank's fiber, or the caller of run().
struct Context {
#if XHC_FIBER_ASM
  void* sp = nullptr;  ///< saved stack pointer while suspended
#else
  ucontext_t uc;
#endif
  char* map = nullptr;  ///< mmap base (guard page + stack), pool-owned
#if XHC_TSAN_FIBERS
  void* tsan = nullptr;  ///< TSan fiber context
#endif
#if XHC_ASAN_FIBERS
  const void* stack_lo = nullptr;  ///< stack bounds announced to ASan
  std::size_t stack_bytes = 0;
  void* fake_stack = nullptr;  ///< ASan fake-stack handle while suspended
#endif
};

class FiberScheduler;
thread_local FiberScheduler* tls_current_sched = nullptr;
thread_local StackPool tls_stack_pool;

class FiberScheduler final : public VirtualScheduler {
 public:
  FiberScheduler(int n, double epoch) : ranks_(static_cast<std::size_t>(n)) {
    for (auto& r : ranks_) r.vtime = epoch;
    heap_.reserve(static_cast<std::size_t>(n));
    barrier_waiters_.reserve(static_cast<std::size_t>(n));
  }

  ~FiberScheduler() override { release_stacks(); }

  void run(const std::function<void(int)>& body) override {
    XHC_CHECK(body_ == nullptr, "scheduler run() re-entered");
    body_ = &body;
    fibers_.resize(ranks_.size());
    for (int r = 0; r < n_ranks(); ++r) {
      make_fiber(r);
      heap_.push(rank(r).vtime, r);
    }

    // Nested simulations (a rank body driving another SimMachine) stack
    // fine: the inner scheduler's caller context is the outer fiber.
    FiberScheduler* const prev = tls_current_sched;
    tls_current_sched = this;
#if XHC_TSAN_FIBERS
    // Remembered so the terminal switch in fiber_main can announce the
    // way back.
    caller_.tsan = __tsan_get_current_fiber();
#endif
    current_ = take_next();
    transfer(&caller_, fibers_[idx(current_)]);
    tls_current_sched = prev;

    body_ = nullptr;
    release_stacks();
    if (first_error_) {
      auto e = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

  // Single host thread: no locks anywhere on the rank-side hot path.
  double now(int r) override { return rank(r).vtime; }

  void advance(int r, double dt) override {
    XHC_REQUIRE(dt >= 0.0, "cannot advance time backwards (dt=", dt, ")");
    rank(r).vtime += dt;
    yield(r);
  }

  void lift(int r, double t) override {
    RankState& self = rank(r);
    self.vtime = std::max(self.vtime, t);
    yield(r);
  }

  double wait_until_raw(int r, const void* channel, PredFn fn,
                        void* ctx) override {
    RankState& self = rank(r);
    while (true) {
      if (const auto resume = fn(ctx)) {
        self.vtime = std::max(self.vtime, *resume);
        yield(r);
        return self.vtime;
      }
      switch_from_to(r, block(r, channel, fn, ctx));
    }
  }

  /// Marks every rank blocked on `channel` dirty (O(waiters)).
  void notify(const void* channel) override {
    auto it = waiters_.find(channel);
    if (it == waiters_.end()) return;
    for (const int w : it->second) {
      if (!rank(w).dirty) {
        rank(w).dirty = true;
        dirty_.push_back(w);
      }
    }
  }

  /// The last live arriver releases everyone at (max arrival + extra_cost)
  /// and then yields normally; earlier arrivers park on the internal
  /// barrier channel and resume with their clock already lifted.
  void barrier(int r, double extra_cost) override {
    RankState& self = rank(r);
    barrier_max_time_ = std::max(barrier_max_time_, self.vtime);
    ++barrier_arrived_;
    if (barrier_arrived_ < n_ranks() - n_done_) {
      self.status = Status::kBlocked;
      self.channel = barrier_channel();
      self.dirty = false;
      barrier_waiters_.push_back(r);
      promote_dirty();
      switch_from_to(r, pick_or_deadlock());
      return;
    }
    const double release = barrier_max_time_ + extra_cost;
    barrier_arrived_ = 0;
    barrier_max_time_ = 0.0;
    ++barrier_gen_;
    for (const int w : barrier_waiters_) {
      RankState& ws = rank(w);
      ws.vtime = std::max(ws.vtime, release);
      ws.status = Status::kReady;
      ws.channel = nullptr;
      ws.dirty = false;
      heap_.push(ws.vtime, w);
    }
    barrier_waiters_.clear();
    self.vtime = std::max(self.vtime, release);
    yield(r);
  }

  void abort_all() override { aborted_ = true; }

  void set_channel_namer(
      std::function<std::string(const void*)> namer) override {
    namer_ = std::move(namer);
  }

  void set_pick_hook(PickHook hook) override { pick_hook_ = std::move(hook); }

  int n_ranks() const noexcept override {
    return static_cast<int>(ranks_.size());
  }

  /// Body of every fiber; runs on the fiber's own stack and never returns.
  [[noreturn]] void fiber_main() {
#if XHC_ASAN_FIBERS
    // The first fiber is entered from run(): keep the caller's stack
    // bounds for the switch back.
    const bool from_caller = caller_.stack_bytes == 0;
    __sanitizer_finish_switch_fiber(
        nullptr, from_caller ? &caller_.stack_lo : nullptr,
        from_caller ? &caller_.stack_bytes : nullptr);
#endif
    const int r = current_;
    try {
      check_abort();
      (*body_)(r);
    } catch (...) {
      record_error(std::current_exception());
      aborted_ = true;
    }
    const int next = pick_after_finish(r);
    if (next == kAllDone) {
      transfer(nullptr, caller_);
    } else {
      current_ = next;
      transfer(nullptr, fibers_[idx(next)]);
    }
    __builtin_unreachable();  // a Done fiber is never resumed
  }

 private:
  /// Returned by the picks when no rank is left to run.
  static constexpr int kAllDone = -1;

  static std::size_t idx(int r) { return static_cast<std::size_t>(r); }
  RankState& rank(int r) { return ranks_[idx(r)]; }
  const void* barrier_channel() const noexcept { return &barrier_gen_; }

  // -- scheduling decisions -------------------------------------------------

  /// Scheduling point of a rank that stays runnable (advance / lift /
  /// post-wait resume): promotes notified waiters, then either keeps the
  /// token or marks r Ready and resumes the new minimum.
  void yield(int r) {
    const int next = yield_point(r);
    if (next != r) switch_from_to(r, next);
  }

  /// Decision half of yield(): returns r to keep the token, or the rank
  /// (already marked Running) to hand it to.
  int yield_point(int r) {
    promote_dirty();
    RankState& self = rank(r);
    if (pick_hook_ && !heap_.empty()) {
      const int ch = consult_hook(r);
      if (ch >= 0) {
        if (ch == r) return r;
        self.status = Status::kReady;
        heap_.push(self.vtime, r);
        heap_.extract(ch);
        rank(ch).status = Status::kRunning;
        return ch;
      }
    }
    if (heap_.at_most_top(self.vtime, r)) return r;
    self.status = Status::kReady;
    heap_.push(self.vtime, r);
    const int next = heap_.pop();
    rank(next).status = Status::kRunning;
    return next;
  }

  /// Blocks r on (channel, pred) and picks the next rank to run; throws
  /// the deadlock report when nobody is ready.
  int block(int r, const void* channel, PredFn fn, void* ctx) {
    RankState& self = rank(r);
    self.status = Status::kBlocked;
    self.channel = channel;
    self.pred_fn = fn;
    self.pred_ctx = ctx;
    self.dirty = false;
    add_waiter(channel, r);
    promote_dirty();
    return pick_or_deadlock();
  }

  int pick_or_deadlock() {
    if (heap_.empty()) throw util::Error(describe());
    return take_next();
  }

  /// Takes the next rank off the ready heap — the hook's choice when one is
  /// installed and answers with a rank, the minimum otherwise — and marks
  /// it Running. Heap must be non-empty.
  int take_next() {
    if (pick_hook_) {
      const int ch = consult_hook(-1);
      if (ch >= 0) {
        heap_.extract(ch);
        rank(ch).status = Status::kRunning;
        return ch;
      }
    }
    const int next = heap_.pop();
    rank(next).status = Status::kRunning;
    return next;
  }

  /// Presents the runnable candidates (ready heap plus `extra` when >= 0,
  /// ascending) to the hook. Returns the hook's choice, or -1 for "use the
  /// default policy" — which is also the answer for a choice that is not
  /// actually a candidate, so a buggy hook degrades to the deterministic
  /// schedule instead of corrupting the heap.
  int consult_hook(int extra) {
    cand_.clear();
    heap_.ranks_into(cand_);
    if (extra >= 0) cand_.push_back(extra);
    std::sort(cand_.begin(), cand_.end());
    const int ch = pick_hook_(cand_);
    if (ch < 0) return -1;
    for (const int c : cand_) {
      if (c == ch) return ch;
    }
    return -1;
  }

  /// Re-evaluates the predicates of notified blocked ranks; engaged ones
  /// become Ready at max(their clock, predicate resume time). Predicates
  /// are pure reads of simulation state, so the evaluation order cannot
  /// influence outcomes.
  void promote_dirty() {
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
      const int w = dirty_[i];
      RankState& ws = rank(w);
      ws.dirty = false;
      if (ws.status != Status::kBlocked || ws.pred_fn == nullptr) continue;
      if (const auto resume = ws.pred_fn(ws.pred_ctx)) {
        ws.vtime = std::max(ws.vtime, *resume);
        ws.status = Status::kReady;
        remove_waiter(ws.channel, w);
        ws.channel = nullptr;
        ws.pred_fn = nullptr;
        ws.pred_ctx = nullptr;
        heap_.push(ws.vtime, w);
      }
    }
    dirty_.clear();
  }

  void add_waiter(const void* channel, int r) {
    auto& list = waiters_[channel];
    rank(r).waiter_idx = static_cast<int>(list.size());
    list.push_back(r);
  }

  void remove_waiter(const void* channel, int r) {
    auto it = waiters_.find(channel);
    auto& list = it->second;
    const int i = rank(r).waiter_idx;
    list[static_cast<std::size_t>(i)] = list.back();
    rank(list.back()).waiter_idx = i;
    list.pop_back();
    rank(r).waiter_idx = -1;
    if (list.empty()) waiters_.erase(it);
  }

  /// Rank r is finishing (normally or mid-unwind). Returns the next rank
  /// to resume, or kAllDone when the run is complete. Never throws: a
  /// deadlock discovered here is recorded and converted into an abort
  /// unwind of the remaining parked fibers.
  int pick_after_finish(int r) {
    rank(r).status = Status::kDone;
    ++n_done_;
    if (!aborted_) {
      promote_dirty();
      if (!heap_.empty()) return take_next();
      if (n_done_ == n_ranks()) return kAllDone;
      record_error(std::make_exception_ptr(util::Error(describe())));
      aborted_ = true;
    }
    // Abort unwind: resume parked fibers lowest-rank-first so each can
    // throw at its suspension point and run its destructors.
    for (int i = 0; i < n_ranks(); ++i) {
      if (rank(i).status != Status::kDone) return i;
    }
    return kAllDone;
  }

  /// Human-readable dump of every rank's state, for the deadlock report.
  std::string describe() const {
    std::string os = "virtual-time deadlock; rank states:";
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
      const RankState& t = ranks_[i];
      os += " [" + std::to_string(i) + ":";
      switch (t.status) {
        case Status::kReady:
          os += "ready";
          break;
        case Status::kRunning:
          os += "running";
          break;
        case Status::kBlocked: {
          std::string chan;
          if (t.channel == barrier_channel()) {
            chan = "barrier";
          } else {
            if (namer_) chan = namer_(t.channel);
            if (!chan.empty()) {
              chan = "'" + chan + "'";
            } else {
              char buf[32];
              std::snprintf(buf, sizeof buf, "%p", t.channel);
              chan = buf;
            }
          }
          os += "blocked@" + chan;
          break;
        }
        case Status::kDone:
          os += "done";
          break;
      }
      char tb[32];
      std::snprintf(tb, sizeof tb, "%g", t.vtime);
      os += std::string(" t=") + tb + "]";
    }
    return os;
  }

  // -- stack switching ------------------------------------------------------

  void make_fiber(int r) {
    Context& f = fibers_[idx(r)];
    // Guard page at the low end: stacks grow down into it on overflow.
    f.map = tls_stack_pool.acquire();
    char* const stack_lo = f.map + tls_stack_pool.page();
#if XHC_TSAN_FIBERS
    f.tsan = __tsan_create_fiber(0);
    char fiber_name[32];
    std::snprintf(fiber_name, sizeof(fiber_name), "sim-rank-%d", r);
    __tsan_set_fiber_name(f.tsan, fiber_name);
#endif
#if XHC_ASAN_FIBERS
    f.stack_lo = stack_lo;
    f.stack_bytes = kFiberStackBytes;
#endif
#if XHC_FIBER_ASM
    // Initial frame, from the 16-aligned stack top downwards:
    //   [sp+48] entry address — consumed by xhc_fiber_switch's ret
    //   [sp+0..47] six zeroed callee-saved register slots
    // After the pops and the ret, rsp ≡ 8 (mod 16): the ABI state at a
    // normal function entry, so xhc_fiber_entry can be ordinary C++.
    auto top = reinterpret_cast<std::uintptr_t>(stack_lo + kFiberStackBytes);
    top &= ~static_cast<std::uintptr_t>(15);
    void** frame = reinterpret_cast<void**>(top - 64);
    for (int i = 0; i < 6; ++i) frame[i] = nullptr;
    frame[6] = reinterpret_cast<void*>(&fiber_entry);
    f.sp = frame;
#else
    XHC_CHECK(getcontext(&f.uc) == 0, "getcontext failed");
    f.uc.uc_stack.ss_sp = stack_lo;
    f.uc.uc_stack.ss_size = kFiberStackBytes;
    f.uc.uc_link = nullptr;  // fibers exit via explicit setcontext
    makecontext(&f.uc, reinterpret_cast<void (*)()>(&fiber_entry), 0);
#endif
  }

  void release_stacks() {
    // Runs on the caller's context, after every fiber has finished or
    // unwound — never while a fiber is current.
    for (Context& f : fibers_) {
      if (f.map != nullptr) tls_stack_pool.release(f.map);
      f.map = nullptr;
#if XHC_TSAN_FIBERS
      if (f.tsan != nullptr) __tsan_destroy_fiber(f.tsan);
      f.tsan = nullptr;
#endif
    }
    fibers_.clear();
  }

  static void fiber_entry() { tls_current_sched->fiber_main(); }

  /// Suspends `from` and resumes `to`, announcing the switch to the
  /// sanitizers. `from` is null for a finished fiber, which never resumes;
  /// otherwise this returns once something transfers back to `from`.
  void transfer(Context* from, Context& to) {
#if XHC_ASAN_FIBERS
    __sanitizer_start_switch_fiber(from != nullptr ? &from->fake_stack
                                                   : nullptr,
                                   to.stack_lo, to.stack_bytes);
#endif
#if XHC_TSAN_FIBERS
    __tsan_switch_to_fiber(to.tsan, 0);
#endif
#if XHC_FIBER_ASM
    xhc_fiber_switch(from != nullptr ? &from->sp : &scratch_sp_, to.sp);
#else
    if (from == nullptr) setcontext(&to.uc);
    swapcontext(&from->uc, &to.uc);
#endif
#if XHC_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(from->fake_stack, nullptr, nullptr);
#endif
  }

  /// Suspends rank `self` and resumes `next`; throws on return if the
  /// simulation was aborted while this rank slept.
  void switch_from_to(int self, int next) {
    current_ = next;
    transfer(&fibers_[idx(self)], fibers_[idx(next)]);
    check_abort();
  }

  void check_abort() const {
    if (aborted_) {
      throw util::Error("simulation aborted (a rank threw an exception)");
    }
  }

  void record_error(std::exception_ptr e) {
    if (!first_error_) first_error_ = std::move(e);
  }

  // Scheduling state.
  std::vector<RankState> ranks_;
  std::function<std::string(const void*)> namer_;
  PickHook pick_hook_;
  std::vector<int> cand_;  ///< scratch candidate list for the hook
  ReadyHeap heap_;
  std::unordered_map<const void*, std::vector<int>> waiters_;
  std::vector<int> dirty_;  ///< notified ranks pending re-evaluation
  int n_done_ = 0;

  // Barrier accumulator; barrier_gen_'s address doubles as the channel.
  std::vector<int> barrier_waiters_;
  int barrier_arrived_ = 0;
  double barrier_max_time_ = 0.0;
  std::uint64_t barrier_gen_ = 0;

  // Execution.
  std::vector<Context> fibers_;
  Context caller_;  ///< the context that called run()
  const std::function<void(int)>* body_ = nullptr;
  int current_ = -1;
  bool aborted_ = false;
  std::exception_ptr first_error_;
#if XHC_FIBER_ASM
  void* scratch_sp_ = nullptr;  ///< discard slot for terminal switches
#endif
};

}  // namespace

std::unique_ptr<VirtualScheduler> VirtualScheduler::create(int n,
                                                           double epoch) {
  XHC_REQUIRE(n > 0, "need at least one rank");
  return std::make_unique<FiberScheduler>(n, epoch);
}

}  // namespace xhc::sim

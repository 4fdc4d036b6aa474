#include "malsched/service/scheduler.hpp"

#include <cmath>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <utility>

#include "malsched/service/canonical.hpp"

namespace malsched::service {

namespace detail {

struct Interned {
  explicit Interned(core::Instance inst) : instance(std::move(inst)) {}

  core::Instance instance;

  struct Quotient {
    CanonicalForm form;
    /// canonical_text(form): the raw bytes of the canonical instance
    /// (8 + 24n), which follow the solver name in the cache key.
    std::string key_bytes;
    bool safe;  ///< well_conditioned(form)
  };

  /// The canonical quotient for permute on/off, built thread-safely on
  /// first use and cached for the handle's lifetime.  Lazy so handles whose
  /// requests never touch a cache (cache disabled, non-cacheable solver)
  /// carry no canonical copies or key bytes.
  const Quotient& quotient(bool permute) const {
    const std::size_t i = permute ? 1 : 0;
    std::call_once(once_[i], [this, permute, i] {
      CanonicalOptions options;
      options.permute = permute;
      CanonicalForm form = canonicalize(instance, options);
      std::string key_bytes = canonical_text(form);
      const bool safe = well_conditioned(form);
      quotients_[i] = std::make_unique<Quotient>(
          Quotient{std::move(form), std::move(key_bytes), safe});
    });
    return *quotients_[i];
  }

 private:
  mutable std::once_flag once_[2];
  mutable std::unique_ptr<Quotient> quotients_[2];
};

}  // namespace detail

InstanceHandle intern(core::Instance instance) {
  return InstanceHandle(
      std::make_shared<const detail::Interned>(std::move(instance)));
}

const core::Instance& InstanceHandle::instance() const {
  MALSCHED_EXPECTS_MSG(valid(), "instance() on an invalid InstanceHandle");
  return interned_->instance;
}

std::uint64_t InstanceHandle::key() const {
  return interned_ == nullptr ? 0 : interned_->quotient(true).form.key;
}

namespace detail {

namespace {

/// True for the failure classes minted by a fired cancellation token; these
/// must short-circuit retry/fallback paths — re-solving an abandoned
/// request defeats the point of abandoning it.
bool is_abort_code(ErrorCode code) noexcept {
  return code == ErrorCode::Cancelled || code == ErrorCode::DeadlineExceeded;
}

// Canonical-space solve through the cache: look up, solve-and-fill on miss,
// denormalize back to the client's task ids and units.  The cache key is
// the solver name, '\n', then the canonical instance's raw bytes.  Failed
// solves are never cached.
SolveResult solve_canonical(const SolverRegistry& registry,
                            const std::string& solver,
                            const core::Instance& client_instance,
                            const CanonicalForm& form,
                            const std::string& key_bytes, ResultCache& cache,
                            const SolveContext& context) {
  const std::string key = solver + "\n" + key_bytes;

  if (auto cached = cache.get(key)) {
    SolveResult result = SolveResult::success(
        solver,
        SolveOutput{form.objective_scale * cached->objective,
                    form.time_scale * cached->makespan,
                    denormalize_completions(form, cached->completions)});
    result.cache_hit = true;
    return result;
  }

  // Miss: solve in canonical space so the entry serves the whole
  // equivalence class, then map back to the request's units.
  SolveResult canonical_result = registry.solve(solver, form.instance, context);
  if (!canonical_result.ok()) {
    // A fired cancellation token is not a diagnostics problem: return the
    // abort as-is instead of burning a second full solve on a request
    // nobody is waiting for.
    if (is_abort_code(canonical_result.error().code)) {
      return canonical_result;
    }
    // Error diagnostics name task indices; re-solve in client space so the
    // message points at the client's task ids, not the canonical ordering.
    // Errors are the rare path, so the duplicate work is acceptable.
    return registry.solve(solver, client_instance, context);
  }
  const SolveOutput& canonical = canonical_result.output();
  cache.put(key, CachedSolve{canonical.objective, canonical.makespan,
                             canonical.completions});
  return SolveResult::success(
      solver,
      SolveOutput{form.objective_scale * canonical.objective,
                  form.time_scale * canonical.makespan,
                  denormalize_completions(form, canonical.completions)});
}

}  // namespace

SolveResult solve_dispatch(const SolverRegistry& registry,
                           const std::string& solver,
                           const InstanceHandle& instance, ResultCache* cache,
                           const SolveContext& context) {
  if (!instance.valid()) {
    return SolveResult::failure(solver, ErrorCode::ParseError,
                                "invalid (empty) instance handle");
  }
  const Interned& interned = *instance.interned_;
  try {
    const SolverRegistry::SolverInfo* info = registry.find(solver);
    if (cache != nullptr && info != nullptr && info->cacheable &&
        interned.instance.size() > 0) {
      // Pick the quotient the solver supports: permutation + scale for
      // order-invariant solvers, scale only otherwise (canonical.hpp).
      const Interned::Quotient& quotient =
          interned.quotient(info->order_invariant);
      if (!quotient.safe) {
        // Wide dynamic range: rescaling would push values into the solvers'
        // absolute tolerances and corrupt the result.  Solve in client
        // space, uncached — correctness over memoization.
        return registry.solve(solver, interned.instance, context);
      }
      return solve_canonical(registry, solver, interned.instance,
                             quotient.form, quotient.key_bytes, *cache,
                             context);
    }
    return registry.solve(solver, interned.instance, context);
  } catch (const std::exception& e) {
    return SolveResult::failure(solver, ErrorCode::SolverFailure,
                                std::string("solver threw: ") + e.what());
  } catch (...) {
    // Custom solvers are arbitrary user callables; contain non-std throws
    // too so one bad request cannot abort the whole stream.
    return SolveResult::failure(solver, ErrorCode::SolverFailure,
                                "solver threw a non-standard exception");
  }
}

/// Queue rank: lexicographic (score, admission id).  FIFO admission leaves
/// every score 0 so ids — assigned in admission order — decide; priority
/// admission computes the weighted-shortest-estimated-work score.  Ranks
/// are immutable after admission, so std::multimap gives ordered pops and
/// O(log n) cancellation erases without any re-heapify.
struct QueueKey {
  double score = 0.0;
  std::uint64_t id = 0;

  bool operator<(const QueueKey& other) const noexcept {
    if (score != other.score) {
      return score < other.score;
    }
    return id < other.id;
  }
};

struct Job {
  std::string solver;
  InstanceHandle instance;
  std::shared_ptr<TicketShared> state;
  std::chrono::steady_clock::time_point admitted;
};

using AdmissionQueue = std::multimap<QueueKey, Job>;

/// Queue guts, co-owned by the Scheduler and every outstanding Ticket so
/// Ticket::cancel() can safely lock/erase even after ~Scheduler (which
/// drains the queue first, so post-destruction cancels find every ticket
/// already resolved and become no-ops).
struct SchedulerShared {
  std::mutex mutex;
  std::condition_variable not_empty;
  std::condition_variable not_full;
  AdmissionQueue queue;
  bool closed = false;
  std::uint64_t next_ticket_id = 0;
  /// Rank origin: scores are seconds-since-epoch of admission plus the
  /// aged work estimate, so they stay small and lose no double precision.
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

/// Per-ticket shared state.  `stage` and `queue_pos` are guarded by the
/// owner's mutex; the promise is written by whoever performs the
/// Queued->Resolved transition (worker or cancel()), which the mutex makes
/// unique; the CancelSource flag is internally atomic and polled lock-free
/// by the solver.
struct TicketShared {
  enum class Stage { Queued, Running, Resolved };

  std::shared_ptr<SchedulerShared> owner;
  Stage stage = Stage::Queued;
  core::CancelSource cancel;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  std::promise<SolveResult> promise;
  std::string solver;             ///< for failure results minted by cancel()
  AdmissionQueue::iterator queue_pos;  ///< valid only while Queued
};

}  // namespace detail

bool Ticket::cancel() noexcept {
  if (shared_ == nullptr) {
    return false;  // invalid, or never admitted (QueueClosed fast path)
  }
  detail::TicketShared& state = *shared_;
  std::promise<SolveResult> promise;
  {
    const std::lock_guard<std::mutex> lock(state.owner->mutex);
    switch (state.stage) {
      case detail::TicketShared::Stage::Queued:
        // Remove the queued work outright: the slot frees for backpressured
        // submitters and no worker ever spends a solve on it.
        state.owner->queue.erase(state.queue_pos);
        state.stage = detail::TicketShared::Stage::Resolved;
        promise = std::move(state.promise);
        break;
      case detail::TicketShared::Stage::Running:
        // A worker owns the job: flip the cooperative flag; cancellation-
        // aware solvers abort at their next node boundary, others finish.
        state.cancel.request_cancel();
        return true;
      case detail::TicketShared::Stage::Resolved:
        return false;
    }
  }
  state.owner->not_full.notify_one();
  promise.set_value(SolveResult::failure(
      state.solver, ErrorCode::Cancelled,
      "request cancelled while queued; no solve was started"));
  return true;
}

Scheduler::Scheduler(const SolverRegistry& registry, Options options)
    : registry_(registry),
      queue_capacity_(options.queue_capacity == 0 ? 1
                                                  : options.queue_capacity),
      admission_(options.admission),
      aging_factor_(std::isfinite(options.aging_factor) &&
                            options.aging_factor >= 0.0
                        ? options.aging_factor
                        : Options{}.aging_factor),
      shared_(std::make_shared<detail::SchedulerShared>()) {
  if (!options.use_cache) {
    cache_ = nullptr;  // an explicit off-switch beats a borrowed cache
  } else if (options.cache != nullptr) {
    cache_ = options.cache;
  } else if (options.cache_capacity > 0) {
    CacheOptions cache_options;
    cache_options.capacity = options.cache_capacity;
    cache_options.admission = options.cache_admission;
    if (options.cache_ttl_seconds) {
      cache_options.ttl =
          std::chrono::duration<double>(*options.cache_ttl_seconds);
    }
    owned_cache_ = std::make_unique<ResultCache>(cache_options);
    cache_ = owned_cache_.get();
  }
  unsigned threads = options.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
  }
  if (threads == 0) {
    threads = 1;
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Scheduler::~Scheduler() {
  close();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

Ticket Scheduler::submit(std::string solver, InstanceHandle instance,
                         const SubmitOptions& options) {
  Ticket ticket;
  auto state = std::make_shared<detail::TicketShared>();
  state->owner = shared_;
  state->deadline = options.deadline;
  state->solver = solver;
  ticket.future_ = state->promise.get_future();

  const auto admitted = std::chrono::steady_clock::now();
  double score = 0.0;
  if (admission_ == Admission::WeightedPriority) {
    double weight = options.priority_weight;
    if (!std::isfinite(weight) || !(weight > 0.0)) {
      weight = 1.0;  // clamp nonsense weights instead of corrupting ranks
    }
    double estimate = registry_.estimated_seconds(
        solver, instance.valid() ? instance.size() : 0);
    if (std::isnan(estimate) || estimate < 0.0) {
      // A broken user cost hint must not poison the rank: NaN scores would
      // violate the queue comparator's strict weak ordering.  Fall back to
      // arrival-time rank.  (+inf is fine — it compares consistently and
      // just parks the request behind everything, aging aside.)
      estimate = 0.0;
    }
    score =
        std::chrono::duration<double>(admitted - shared_->epoch).count() +
        aging_factor_ * estimate / weight;
  }

  {
    std::unique_lock<std::mutex> lock(shared_->mutex);
    // Backpressure: block while the admission queue is at capacity.
    shared_->not_full.wait(lock, [this] {
      return shared_->closed || shared_->queue.size() < queue_capacity_;
    });
    if (shared_->closed) {
      lock.unlock();
      // Never admitted: resolve immediately, leave id 0 and shared_ null
      // (cancel() on this ticket is a no-op).
      state->stage = detail::TicketShared::Stage::Resolved;
      state->promise.set_value(SolveResult::failure(
          std::move(solver), ErrorCode::QueueClosed,
          "scheduler is closed; request was not admitted"));
      return ticket;
    }
    // Id assigned at the actual enqueue, inside the same critical section,
    // so ids reflect admission order even when several submitters were
    // blocked on backpressure.
    ticket.id_ = ++shared_->next_ticket_id;
    state->queue_pos = shared_->queue.emplace(
        detail::QueueKey{score, ticket.id_},
        detail::Job{std::move(solver), std::move(instance), state, admitted});
    ticket.shared_ = std::move(state);
  }
  shared_->not_empty.notify_one();
  return ticket;
}

void Scheduler::close() noexcept {
  {
    const std::lock_guard<std::mutex> lock(shared_->mutex);
    shared_->closed = true;
  }
  shared_->not_empty.notify_all();
  shared_->not_full.notify_all();
}

bool Scheduler::closed() const noexcept {
  const std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->closed;
}

CacheStats Scheduler::cache_stats() const {
  return cache_ == nullptr ? CacheStats{} : cache_->stats();
}

void Scheduler::worker_loop() {
  detail::SchedulerShared& shared = *shared_;
  for (;;) {
    detail::Job job;
    {
      std::unique_lock<std::mutex> lock(shared.mutex);
      shared.not_empty.wait(
          lock, [&shared] { return shared.closed || !shared.queue.empty(); });
      if (shared.queue.empty()) {
        return;  // closed and drained
      }
      auto node = shared.queue.extract(shared.queue.begin());
      job = std::move(node.mapped());
      job.state->stage = detail::TicketShared::Stage::Running;
    }
    shared.not_full.notify_one();

    detail::TicketShared& state = *job.state;
    SolveResult result;
    const auto started = std::chrono::steady_clock::now();
    const double queued_seconds =
        std::chrono::duration<double>(started - job.admitted).count();
    if (state.cancel.cancel_requested()) {
      // cancel() landed in the pop-to-here window: honor it without solving.
      result = SolveResult::failure(
          job.solver, ErrorCode::Cancelled,
          "request cancelled before the solve started");
    } else if (state.deadline && started >= *state.deadline) {
      result = SolveResult::failure(
          job.solver, ErrorCode::DeadlineExceeded,
          "deadline expired after " + std::to_string(queued_seconds) +
              "s in the admission queue; no solve was started");
    } else {
      SolveContext context;
      context.cancel = state.deadline
                           ? state.cancel.token_with_deadline(*state.deadline)
                           : state.cancel.token();
      result = detail::solve_dispatch(registry_, job.solver, job.instance,
                                      cache_, context);
      // Reclassify only when this request actually carried a deadline — a
      // context-aware solver may mint Cancelled for its own reasons, which
      // must not be relabeled as a deadline miss.
      if (!result.ok() && result.error().code == ErrorCode::Cancelled &&
          state.deadline && !state.cancel.cancel_requested()) {
        // The token fired, but nobody called cancel(): it was the deadline.
        result = SolveResult::failure(
            job.solver, ErrorCode::DeadlineExceeded,
            "deadline expired mid-solve: " + result.error().detail);
      }
    }
    result.latency_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      job.admitted)
            .count();
    {
      // Publish the Resolved stage under the lock so a racing cancel()
      // either sees Running (flag only, result already decided) or Resolved
      // (no-op) — never a half-resolved promise.
      const std::lock_guard<std::mutex> lock(shared.mutex);
      state.stage = detail::TicketShared::Stage::Resolved;
    }
    state.promise.set_value(std::move(result));
  }
}

}  // namespace malsched::service

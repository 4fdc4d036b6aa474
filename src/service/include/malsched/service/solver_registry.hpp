#pragma once

/// \file solver_registry.hpp
/// The uniform (solver, instance) -> SolveResult surface of the scheduling
/// service.  Every algorithm in the library — the fluid-engine policies
/// (sim::all_policies), clairvoyant greedy search, water-filling
/// normalization, the Corollary-1 order LP and the branch-and-bound
/// optimum — is exposed under a stable string name so front-ends dispatch
/// without compile-time knowledge of the zoo.
///
/// Failures are typed: a SolveResult carries either a SolveOutput or a
/// SolveError{code, detail}, never a bare string.  The codes are a closed
/// enum so clients can branch on the failure class (retry on QueueClosed,
/// reject on SizeGuard, ...) without parsing messages.
///
/// Registered solvers must be deterministic (same instance -> bitwise same
/// result) and safe to invoke concurrently from many threads; the Scheduler,
/// the batch executor and the canonicalization cache all rely on it.

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "malsched/core/cancel.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/support/contracts.hpp"

namespace malsched::service {

/// Closed set of failure classes the service can report.  When adding a
/// code, extend kAllErrorCodes below and the error_code_name switch (the
/// compiler's -Wswitch flags the latter; parse_error_code and the
/// round-trip tests iterate kAllErrorCodes, so they follow automatically).
enum class ErrorCode {
  UnknownSolver,     ///< no solver registered under the requested name
  SizeGuard,         ///< instance exceeds a solver's complexity guard
  ParseError,        ///< request references an unknown/unparseable instance
  SolverFailure,     ///< the solver rejected the input, failed or threw
  QueueClosed,       ///< submitted after Scheduler::close()
  Cancelled,         ///< the client abandoned the request (Ticket::cancel())
  DeadlineExceeded,  ///< SubmitOptions::deadline passed before completion
  ProtocolMismatch,  ///< a fleet peer failed the versioned wire handshake
};

/// Every ErrorCode, the single enumeration the parser and tests iterate.
inline constexpr ErrorCode kAllErrorCodes[] = {
    ErrorCode::UnknownSolver,    ErrorCode::SizeGuard,
    ErrorCode::ParseError,       ErrorCode::SolverFailure,
    ErrorCode::QueueClosed,      ErrorCode::Cancelled,
    ErrorCode::DeadlineExceeded, ErrorCode::ProtocolMismatch};

/// Stable kebab-case name of a code ("unknown-solver", ...), the form
/// `write_results` emits.
[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;

/// Inverse of error_code_name; nullopt for unrecognized text.
[[nodiscard]] std::optional<ErrorCode> parse_error_code(
    std::string_view name) noexcept;

/// Escapes free text (quotes, backslashes, newlines) for embedding in the
/// one-line-per-request result stream of write_results (`message="..."`),
/// so client-controlled solver names and error details cannot break the
/// stream's one-line-per-request shape.
[[nodiscard]] std::string escape_result_text(const std::string& text);

/// Typed failure: a class plus a human-readable detail message.
struct SolveError {
  ErrorCode code = ErrorCode::SolverFailure;
  std::string detail;

  /// "code-name: detail" for logs and diagnostics.
  [[nodiscard]] std::string to_string() const;
};

/// Successful solve payload.
struct SolveOutput {
  double objective = 0.0;            ///< Σ w_i C_i
  double makespan = 0.0;
  std::vector<double> completions;   ///< indexed by original task id
};

/// Uniform result: either a SolveOutput or a SolveError, plus per-request
/// metadata.  Expected-style accessors — `ok()` selects which side is live;
/// `output()`/`error()` assert on the wrong side.
class SolveResult {
 public:
  /// Default-constructed results are an empty SolverFailure (so containers
  /// of pending results are failures until filled in).
  SolveResult() : outcome_(SolveError{}) {}

  [[nodiscard]] static SolveResult success(std::string solver,
                                           SolveOutput output) {
    SolveResult result;
    result.solver = std::move(solver);
    result.outcome_ = std::move(output);
    return result;
  }
  [[nodiscard]] static SolveResult failure(std::string solver,
                                           SolveError error) {
    SolveResult result;
    result.solver = std::move(solver);
    result.outcome_ = std::move(error);
    return result;
  }
  [[nodiscard]] static SolveResult failure(std::string solver, ErrorCode code,
                                           std::string detail) {
    return failure(std::move(solver), SolveError{code, std::move(detail)});
  }

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<SolveOutput>(outcome_);
  }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] const SolveOutput& output() const {
    MALSCHED_EXPECTS_MSG(ok(), "output() on a failed SolveResult");
    return std::get<SolveOutput>(outcome_);
  }
  [[nodiscard]] SolveOutput& output() {
    MALSCHED_EXPECTS_MSG(ok(), "output() on a failed SolveResult");
    return std::get<SolveOutput>(outcome_);
  }
  [[nodiscard]] const SolveError& error() const {
    MALSCHED_EXPECTS_MSG(!ok(), "error() on a successful SolveResult");
    return std::get<SolveError>(outcome_);
  }

  /// Success-side conveniences (assert ok(), like output()).
  [[nodiscard]] double objective() const { return output().objective; }
  [[nodiscard]] double makespan() const { return output().makespan; }
  [[nodiscard]] const std::vector<double>& completions() const {
    return output().completions;
  }

  std::string solver;
  bool cache_hit = false;        ///< set by the caching solve path
  double latency_seconds = 0.0;  ///< submit-to-completion, including any
                                 ///< backpressure wait (Scheduler), or solve
                                 ///< wall time (solve_cached)

 private:
  std::variant<SolveError, SolveOutput> outcome_;
};

/// Per-request execution context passed down to solvers that opt in (the
/// ContextSolverFn registration form).  Carries the cooperative cancellation
/// token the Scheduler builds from Ticket::cancel() and the request's
/// deadline; solvers poll it at their own node boundaries.  Plain SolverFn
/// registrations never see it — they run to completion regardless.
struct SolveContext {
  core::CancelToken cancel;
};

/// Name -> solver dispatch table.  Build it once (registration is not
/// thread-safe), then `solve` freely from any number of threads.
///
/// Cache contract: the canonicalization cache solves a rescaled instance
/// (P = 1, Σ V = 1, Σ w = 1) and maps the result back, so a *cacheable*
/// solver must be scale-equivariant — completion times scale linearly under
/// volume/machine scaling and are weight-scale independent.  Every algorithm
/// in this library is; register a solver that is not (e.g. one with absolute
/// thresholds) with `cacheable = false` and it will always be solved in
/// client space.
class SolverRegistry {
 public:
  using SolverFn = std::function<SolveResult(const core::Instance&)>;
  using ContextSolverFn =
      std::function<SolveResult(const core::Instance&, const SolveContext&)>;
  /// Estimated solve wall time in seconds for an n-task instance.  Coarse
  /// by design: the priority admission queue only needs the relative
  /// magnitudes right (exponential ≫ LP ≫ fluid policy) to order work.
  using CostHintFn = std::function<double(std::size_t)>;

  struct SolverInfo {
    ContextSolverFn fn;
    /// True when the solver's output is independent of task numbering
    /// *including tie-breaking*; the cache then also quotients permutations
    /// (see canonical.hpp).  Defaults to false — the safe choice: id-based
    /// tie-breaks are easy to overlook and would silently flip cached
    /// results for permuted instances.
    bool order_invariant = false;
    std::string description;
    /// False exempts the solver from the canonicalization cache entirely
    /// (for solvers that are not scale-equivariant, see class comment).
    bool cacheable = true;
    /// True when the solver polls SolveContext::cancel and aborts early
    /// (returning a Cancelled failure).  Polynomial-time solvers finish in
    /// microseconds-to-milliseconds and simply run to completion.
    bool cancellable = false;
    /// Estimated solve seconds given n; null falls back to the scheduler's
    /// default estimate.  Feeds the weighted-shortest-estimated-work
    /// admission order (scheduler.hpp).
    CostHintFn cost_hint;
  };

  /// Registers (or replaces) a solver under `name`, which must not contain
  /// '\n' (the cache-key separator, cache.hpp).
  void register_solver(std::string name, SolverFn fn,
                       bool order_invariant = false,
                       std::string description = "", bool cacheable = true);
  /// Full-control registration (context-aware solvers, cost hints, the
  /// cancellable flag).
  void register_solver(std::string name, SolverInfo info);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] const SolverInfo* find(const std::string& name) const;
  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const noexcept { return solvers_.size(); }

  /// Dispatches `solver` on `instance`.  Unknown solvers yield an
  /// UnknownSolver error; zero-task instances short-circuit to an empty
  /// success for every solver.
  [[nodiscard]] SolveResult solve(const std::string& solver,
                                  const core::Instance& instance) const {
    return solve(solver, instance, SolveContext{});
  }
  /// Same, threading a cancellation/deadline context into solvers that
  /// registered context-aware (the `cancellable` column).
  [[nodiscard]] SolveResult solve(const std::string& solver,
                                  const core::Instance& instance,
                                  const SolveContext& context) const;

  /// Estimated solve seconds for `solver` on an n-task instance: the
  /// registered cost hint when present, else a flat polynomial default.
  /// Unknown solvers get the default too — they fail fast at dispatch.
  [[nodiscard]] double estimated_seconds(const std::string& solver,
                                         std::size_t n) const;

  /// The full built-in zoo: every sim policy under its policy name, plus
  /// "greedy-heuristic", "water-fill-smith", "order-lp-smith" and "optimal".
  [[nodiscard]] static SolverRegistry with_default_solvers();

 private:
  std::map<std::string, SolverInfo> solvers_;
};

}  // namespace malsched::service

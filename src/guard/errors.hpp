/**
 * @file
 * SimGuard structured errors. Every failure the framework can detect
 * at runtime maps onto one of three categories:
 *
 *  - ConfigError        — an invalid configuration or topology, caught
 *                         before (or while) models are constructed;
 *  - ContractViolation  — a component or the composer broke the COBRA
 *                         event contract of paper §III (detected by
 *                         the ContractAuditor or the base-class
 *                         contract helpers);
 *  - DeadlockError      — the pipeline stopped committing; carries the
 *                         watchdog's post-mortem text;
 *  - CheckpointError    — a warp-mode checkpoint could not be written,
 *                         read, or applied (corruption, truncation,
 *                         version/config mismatch);
 *  - TimeoutError       — a cooperative wall-clock watchdog expired
 *                         while driving a simulation point (the serve
 *                         daemon's per-point deadline).
 *
 * All derive from SimError, which itself derives from std::logic_error
 * so legacy call sites (and tests) that catch std::logic_error keep
 * working unchanged.
 *
 * The hierarchy doubles as a machine-readable failure taxonomy:
 * errorClassOf() maps any exception onto a stable class string
 * ("config", "contract", "deadlock", "checkpoint", "timeout", "sim",
 * "internal") used by SweepOutcome::errorClass and the cobra_serve
 * failure records, and errorClassTransient() says whether a class is
 * worth retrying (environmental, e.g. a timeout under host load or a
 * regenerable checkpoint) or deterministic (a config or contract bug
 * that will fail identically on every attempt).
 */

#ifndef COBRA_GUARD_ERRORS_HPP
#define COBRA_GUARD_ERRORS_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cobra::guard {

/** Root of the SimGuard error hierarchy. */
class SimError : public std::logic_error
{
  public:
    explicit SimError(const std::string& msg) : std::logic_error(msg) {}
};

/** An invalid configuration, topology, or parameter combination. */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string& msg)
        : SimError("invalid config: " + msg)
    {
    }

    /** Field-style message: "invalid config: <field>: <detail>". */
    ConfigError(const std::string& field, const std::string& detail)
        : SimError("invalid config: " + field + ": " + detail)
    {
    }
};

/**
 * A breach of the §III predictor interface contract. Names the
 * offending component and, when known, the query (history-file
 * position) it happened on.
 */
class ContractViolation : public SimError
{
  public:
    ContractViolation(std::string component, std::uint64_t query,
                      const std::string& detail)
        : SimError("contract violation [component=" + component +
                   " query=" + std::to_string(query) + "]: " + detail),
          component_(std::move(component)), query_(query)
    {
    }

    /** Name of the component the violation was detected on. */
    const std::string& component() const { return component_; }

    /** Query serial / history-file position the violation refers to. */
    std::uint64_t query() const { return query_; }

  private:
    std::string component_;
    std::uint64_t query_;
};

/**
 * The simulated pipeline made no commit progress for longer than the
 * configured watchdog threshold. what() is the short message; the
 * full pipeline post-mortem text is available via postMortem().
 */
class DeadlockError : public SimError
{
  public:
    DeadlockError(const std::string& msg, std::string post_mortem)
        : SimError(msg), postMortem_(std::move(post_mortem))
    {
    }

    const std::string& postMortem() const { return postMortem_; }

  private:
    std::string postMortem_;
};

/**
 * A warp-mode checkpoint failed structural validation (bad magic,
 * version skew, checksum mismatch, truncation, section-tag mismatch)
 * or does not match the simulator it is being restored into
 * (configuration fingerprint mismatch). Restores fail atomically with
 * this error instead of applying partial state.
 */
class CheckpointError : public SimError
{
  public:
    explicit CheckpointError(const std::string& msg)
        : SimError("invalid checkpoint: " + msg)
    {
    }

    /** Context-style message: "invalid checkpoint: <where>: <detail>". */
    CheckpointError(const std::string& where, const std::string& detail)
        : SimError("invalid checkpoint: " + where + ": " + detail)
    {
    }
};

/**
 * A cooperative wall-clock watchdog expired: the point's simulation
 * exceeded its deadline and was abandoned at a slice boundary. Raised
 * by deadline-driven run loops (cobra_serve), never by Simulator
 * itself.
 */
class TimeoutError : public SimError
{
  public:
    TimeoutError(const std::string& what_ran, std::uint64_t limit_ms)
        : SimError("wall-clock timeout: " + what_ran + " exceeded " +
                   std::to_string(limit_ms) + " ms"),
          limitMs_(limit_ms)
    {
    }

    std::uint64_t limitMs() const { return limitMs_; }

  private:
    std::uint64_t limitMs_;
};

/**
 * Machine-readable failure class of @p e — the error taxonomy string
 * carried by SweepOutcome::errorClass and cobra_serve point records.
 * Subclass checks run most-derived-first so e.g. a CheckpointError is
 * "checkpoint", not "sim".
 */
inline const char*
errorClassOf(const std::exception& e)
{
    if (dynamic_cast<const ConfigError*>(&e) != nullptr)
        return "config";
    if (dynamic_cast<const ContractViolation*>(&e) != nullptr)
        return "contract";
    if (dynamic_cast<const DeadlockError*>(&e) != nullptr)
        return "deadlock";
    if (dynamic_cast<const CheckpointError*>(&e) != nullptr)
        return "checkpoint";
    if (dynamic_cast<const TimeoutError*>(&e) != nullptr)
        return "timeout";
    if (dynamic_cast<const SimError*>(&e) != nullptr)
        return "sim";
    return "internal";
}

/**
 * Describe the exception in flight (call from a catch block) as a
 * message plus its errorClassOf() class. A DeadlockError keeps the
 * watchdog's post-mortem appended to its message; a non-std exception
 * (say, `throw 42` from a user-supplied factory) is "internal", like
 * any other unclassified failure. The sweep engine and the batch trace
 * evaluator both report failures through this one helper.
 */
inline void
captureCurrentException(std::string& error, std::string& error_class)
{
    try {
        throw;
    } catch (const DeadlockError& e) {
        error = std::string(e.what()) + "\n" + e.postMortem();
        error_class = errorClassOf(e);
    } catch (const std::exception& e) {
        error = e.what();
        error_class = errorClassOf(e);
    } catch (...) {
        error = "unknown non-std exception";
        error_class = "internal";
    }
}

/**
 * Whether a failure class is transient — plausibly environmental, so
 * a bounded retry may succeed (timeouts under host load, checkpoint
 * cache entries that are regenerated after rejection, unclassified
 * internal errors). Deterministic classes (config, contract,
 * deadlock, sim) fail identically on every attempt and are never
 * retried.
 */
inline bool
errorClassTransient(std::string_view cls)
{
    return cls == "timeout" || cls == "checkpoint" ||
           cls == "internal";
}

} // namespace cobra::guard

#endif // COBRA_GUARD_ERRORS_HPP

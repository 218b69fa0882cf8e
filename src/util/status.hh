/**
 * @file
 * Recoverable errors.  Three layers, used together:
 *
 *  - ErrorCode / Status / Expected<T>: value-style error reporting for
 *    APIs that want to return failure instead of raising it;
 *  - SimError and its subclasses (ConfigError, TraceError,
 *    DeadlockError): the exception hierarchy thrown by library code for
 *    recoverable failures — bad user configuration, corrupt trace
 *    files, simulations that exceed their watchdog budget;
 *  - runTopLevel(): the one place a CLI converts uncaught SimErrors
 *    back into today's print-and-exit behaviour.
 *
 * Internal invariant violations (simulator bugs) remain the domain of
 * panic()/FO4_ASSERT in util/logging.hh and still abort; nothing in
 * this file is for those.
 */

#ifndef FO4_UTIL_STATUS_HH
#define FO4_UTIL_STATUS_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace fo4::util
{

/** Machine-readable classification of every recoverable failure. */
enum class ErrorCode
{
    Ok = 0,
    InvalidConfig, ///< parameter/configuration values out of range
    UnknownKey,    ///< unrecognized (likely misspelled) config key
    TraceIo,       ///< trace file unreadable, unwritable or short
    TraceFormat,   ///< not a trace file / version or layout mismatch
    TraceCorrupt,  ///< well-formed header but damaged payload
    Deadlock,      ///< simulation exceeded its watchdog cycle budget
    JournalIo,     ///< durable output (journal, atomic CSV) I/O failure
    JournalFormat, ///< not a journal / header or version mismatch
    JournalCorrupt, ///< mid-file record damage (CRC or framing)
    ResumeMismatch, ///< journal identity differs from the run's inputs
    Cancelled,     ///< work stopped by a cooperative cancellation request
    NetIo,         ///< socket create/connect/read/write failure or timeout
    Protocol,      ///< malformed, corrupt or unrecognized wire frame
    Overloaded,    ///< admission control refused the request (queue full)
    NotFound,      ///< request names a job id the service does not know
    NotReady,      ///< results requested before the job finished
    Internal,      ///< unexpected failure escaping a lower layer
};

/** Stable name of a code ("InvalidConfig", ...); never null. */
const char *errorCodeName(ErrorCode code);

/**
 * Inverse of errorCodeName: the code whose stable name is `name`, or
 * Internal when the name is unknown (a peer speaking a newer protocol
 * may name codes this build has never heard of; degrading them to
 * Internal keeps the error typed without inventing meaning).
 */
ErrorCode errorCodeFromName(const std::string &name);

/** The outcome of an operation: Ok, or a code plus a message. */
class [[nodiscard]] Status
{
  public:
    /** Success. */
    Status() = default;

    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status ok() { return Status{}; }

    bool isOk() const { return code_ == ErrorCode::Ok; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "ok", or "[Code] message". */
    std::string toString() const;

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/**
 * Accumulates violations so a validator can report *every* problem in
 * one pass instead of aborting at the first.
 */
class ErrorCollector
{
  public:
    /** Record one violation, printf-style. */
    void addf(const char *fmt, ...) __attribute__((format(printf, 2, 3)));

    bool empty() const { return messages_.empty(); }
    std::size_t count() const { return messages_.size(); }
    const std::vector<std::string> &messages() const { return messages_; }

    /** All violations joined with "; ". */
    std::string joined() const;

    /** Ok when empty, otherwise `code` with the joined message. */
    Status status(ErrorCode code) const;

  private:
    std::vector<std::string> messages_;
};

/**
 * Base of the recoverable-error hierarchy.  what() carries the full
 * human-readable context; code() the machine-readable classification.
 */
class SimError : public std::runtime_error
{
  public:
    SimError(ErrorCode code, const std::string &message)
        : std::runtime_error(message), code_(code)
    {
    }

    ErrorCode code() const { return code_; }

    Status toStatus() const { return Status(code_, what()); }

  private:
    ErrorCode code_;
};

/** Invalid user-supplied configuration (parameters, keys, names). */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string &message)
        : SimError(ErrorCode::InvalidConfig, message)
    {
    }

    ConfigError(ErrorCode code, const std::string &message)
        : SimError(code, message)
    {
    }
};

/** A trace file that cannot be read, parsed or trusted. */
class TraceError : public SimError
{
  public:
    /** `code` must be one of TraceIo / TraceFormat / TraceCorrupt. */
    TraceError(ErrorCode code, const std::string &message);
};

/** A write-ahead journal that cannot be read, written or trusted. */
class JournalError : public SimError
{
  public:
    /** `code` must be one of JournalIo / JournalFormat / JournalCorrupt
     *  / ResumeMismatch. */
    JournalError(ErrorCode code, const std::string &message);
};

/**
 * A sweep-service failure: transport trouble (NetIo), a frame that
 * cannot be trusted (Protocol), an admission refusal (Overloaded), or a
 * job-lifecycle error (NotFound / NotReady).  The client also uses it
 * to rethrow errors the *server* reported, preserving the remote code —
 * so, unlike TraceError/JournalError, any non-Ok code is permitted.
 */
class SvcError : public SimError
{
  public:
    SvcError(ErrorCode code, const std::string &message);
};

/**
 * Work stopped early because cancellation was requested (Ctrl-C, a
 * deadline, a caller tearing down).  Cancellation is not a fault of the
 * work item: per-job fault isolation deliberately lets this escape so
 * the caller knows the result is absent, not failed.
 */
class CancelledError : public SimError
{
  public:
    explicit CancelledError(const std::string &message)
        : SimError(ErrorCode::Cancelled, message)
    {
    }
};

/** Pipeline-state snapshot captured when a simulation watchdog fires. */
struct DeadlockDump
{
    std::string model;                 ///< "out-of-order" / "in-order"
    std::int64_t cycle = 0;            ///< cycle the watchdog fired at
    std::uint64_t cycleLimit = 0;      ///< the budget that was exceeded
    std::uint64_t committed = 0;       ///< instructions committed so far
    std::uint64_t target = 0;          ///< instructions requested
    std::uint64_t robOccupancy = 0;    ///< ooo: dispatched, uncommitted
    std::uint64_t windowOccupancy = 0; ///< ooo: issue-window entries
    std::uint64_t frontEndOccupancy = 0; ///< ooo: fetched, undispatched
    std::int64_t lsqOccupancy = 0;     ///< ooo: loads/stores in flight
    std::uint64_t queueOccupancy = 0;  ///< inorder: issue-queue entries
    std::string oldestStalled; ///< description of the oldest stuck op

    /** Multi-line diagnostic report. */
    std::string toString() const;
};

/**
 * A run that exceeded its cycle budget without committing its target.
 * what() includes the full diagnostic dump.
 */
class DeadlockError : public SimError
{
  public:
    explicit DeadlockError(DeadlockDump dump);

    const DeadlockDump &dump() const { return dump_; }

  private:
    DeadlockDump dump_;
};

/**
 * Either a value or the Status explaining its absence.  Accessing
 * value() on a failed Expected is a caller bug and panics.
 */
template <typename T>
class Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {}
    Expected(Status status) : status_(std::move(status))
    {
        FO4_ASSERT(!status_.isOk(),
                   "Expected built from an Ok status but no value");
    }

    bool ok() const { return value_.has_value(); }

    const T &
    value() const
    {
        requireValue();
        return *value_;
    }

    T &
    value()
    {
        requireValue();
        return *value_;
    }

    /** Ok for a held value, the originating error otherwise. */
    const Status &status() const { return status_; }

    T
    valueOr(T fallback) const
    {
        return ok() ? *value_ : std::move(fallback);
    }

  private:
    void
    requireValue() const
    {
        if (!value_) {
            panic("Expected::value() on error: %s",
                  status_.toString().c_str());
        }
    }

    std::optional<T> value_;
    Status status_;
};

/**
 * Run a CLI body, converting uncaught SimErrors into an error report on
 * stderr and a nonzero exit status — the single top-level handler that
 * ends a command-line tool on error while letting library callers
 * recover.
 *
 * Exit-code contract: 0 = the body's own success code, 1 = a typed
 * SimError (bad configuration, corrupt input, ...), 2 = an unexpected
 * exception, 130 = CancelledError (the conventional SIGINT code) — a
 * cancelled run is resumable, not failed, and scripts can tell the
 * difference.
 */
int runTopLevel(const std::function<int()> &body);

} // namespace fo4::util

#endif // FO4_UTIL_STATUS_HH

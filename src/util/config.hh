/**
 * @file
 * Tiny typed key=value configuration store used by the example programs'
 * command lines (e.g. `pipeline_explorer t_useful=6 bench=gzip`).
 */

#ifndef FO4_UTIL_CONFIG_HH
#define FO4_UTIL_CONFIG_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace fo4::util
{

/**
 * One recognized `key=value` knob and its one-line description — the
 * unit of both spell checking (Config::checkKnown) and the generated
 * `--help` text (runTopLevel below).
 */
struct KeyDoc
{
    const char *key;
    const char *help;
};

/** String-keyed configuration with typed, defaulted accessors. */
class Config
{
  public:
    Config() = default;

    /**
     * Parse argv-style "key=value" tokens.  A leading "--" is stripped
     * ("--jobs=4" == "jobs=4"; a bare "--flag" means flag=1).  Tokens
     * without '=' are collected as positional arguments.  Giving the
     * same key twice — under either spelling — throws ConfigError
     * naming both offending tokens, instead of silently keeping one.
     */
    static Config fromArgs(int argc, const char *const *argv);

    /** Store one key; a key already present throws ConfigError. */
    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    /**
     * Compare the stored keys against the program's known key set and
     * warn() about each unknown one, so a misspelling like `t_usefull=6`
     * is flagged instead of silently ignored.  Returns the unknown keys.
     */
    std::vector<std::string>
    checkKnown(std::initializer_list<const char *> known) const;

    /** checkKnown over a documented key set (the spelling authority a
     *  binary also feeds to runTopLevel for its --help text). */
    std::vector<std::string>
    checkKnown(const std::vector<KeyDoc> &known) const;

    /** Typed accessors; a malformed value throws ConfigError. */
    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    std::int64_t getInt(const std::string &key, std::int64_t fallback) const;

    /** getInt, but a stored value outside [lo, hi] throws ConfigError:
     *  the range check every integer key passes before its cast, so no
     *  value wraps (warmup=-1) or truncates (port=70000 as a uint16_t).
     *  The fallback is returned unchecked when the key is absent. */
    std::int64_t getIntIn(const std::string &key, std::int64_t fallback,
                          std::int64_t lo, std::int64_t hi) const;

    /** getIntIn with lo = 1, for counts such as attempts= or id=. */
    std::int64_t getPositiveInt(const std::string &key,
                                std::int64_t fallback) const
    {
        return getIntIn(key, fallback, 1, INT64_MAX);
    }
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key, bool fallback) const;

    const std::vector<std::string> &positional() const { return args; }

  private:
    std::map<std::string, std::string> values;
    std::vector<std::string> args;
};

/** Render the `--help` text for a documented key set: one aligned
 *  "key=  description" line per KeyDoc, plus the help flag itself. */
std::string renderKeyHelp(const std::string &program,
                          const std::vector<KeyDoc> &keys);

/**
 * Help-aware variant of runTopLevel (util/status.hh): if the command
 * line asks for help — `help=1`, `--help`, or a bare `help` argument —
 * print the recognized keys from `keys` with their one-line
 * descriptions and exit 0 *without* running `body`.  Otherwise behaves
 * exactly like runTopLevel(body).  `keys` should be the same list the
 * body passes to Config::checkKnown, so the help text and the spell
 * checker can never drift apart.
 */
int runTopLevel(int argc, const char *const *argv,
                const std::vector<KeyDoc> &keys,
                const std::function<int()> &body);

} // namespace fo4::util

#endif // FO4_UTIL_CONFIG_HH

/**
 * @file
 * The once-per-key memo behind every process-wide cache: structure
 * latencies (cacti::LatencyCache), Zipf tables (util::ZipfSampler),
 * decoded traces (trace::DecodedTraceRegistry) and warm states
 * (core::WarmStartCache).
 *
 * get(key, build) runs `build` at most once per key, under that key's
 * std::once_flag.  Other callers of the same key wait for that build;
 * callers of other keys do not, because the table lock is held only to
 * find or add the key's slot, never across a build.  A build that
 * throws caches nothing: the callers waiting on it get its exception,
 * the key is forgotten, and the next get of that key builds again — a
 * trace file missing on one attempt may be there on a retry.
 *
 * Values are handed out by copy (a double, a shared_ptr), so clear()
 * forgets every entry while values already handed out live on.
 */

#ifndef FO4_UTIL_ONCE_MAP_HH
#define FO4_UTIL_ONCE_MAP_HH

#include <cstddef>
#include <exception>
#include <map>
#include <memory>
#include <mutex>

namespace fo4::util
{

/** A memo table: each key's value is built once and then shared. */
template <class Key, class Value>
class OnceMap
{
  public:
    /** The value for `key`, from `build()` if no earlier call built it.
     *  Rethrows the exception of a build that failed. */
    template <class Build>
    Value
    get(const Key &key, Build &&build)
    {
        std::shared_ptr<Slot> slot;
        {
            std::lock_guard<std::mutex> guard(lock);
            auto &entry = slots[key];
            if (!entry)
                entry = std::make_shared<Slot>();
            slot = entry;
        }
        // The exception is kept, not thrown through call_once: under
        // ThreadSanitizer's pthread_once a throwing callable leaves the
        // flag stuck "running", and the next caller would hang.
        std::call_once(slot->once, [&] {
            try {
                slot->value = build();
            } catch (...) {
                slot->error = std::current_exception();
            }
        });
        if (slot->error) {
            std::lock_guard<std::mutex> guard(lock);
            const auto it = slots.find(key);
            if (it != slots.end() && it->second == slot)
                slots.erase(it);
            std::rethrow_exception(slot->error);
        }
        return slot->value;
    }

    /** Keys built or being built. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> guard(lock);
        return slots.size();
    }

    /** Forget every entry; later gets build again. */
    void
    clear()
    {
        std::lock_guard<std::mutex> guard(lock);
        slots.clear();
    }

  private:
    struct Slot
    {
        std::once_flag once;
        Value value{};
        std::exception_ptr error;
    };

    mutable std::mutex lock;
    std::map<Key, std::shared_ptr<Slot>> slots;
};

} // namespace fo4::util

#endif // FO4_UTIL_ONCE_MAP_HH

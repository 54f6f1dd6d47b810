/**
 * @file
 * The Validator registry and determinism-digest primitives of the
 * simulation integrity layer (docs/validation.md).
 *
 * Subsystems register named drain-time checkers with the registry
 * owned by their Cluster; `Cluster::run()` invokes them once the event
 * queue drains, whenever the runtime validation level is at least
 * `basic`. A checker inspects its subsystem's final state and raises an
 * ASTRA_CHECK diagnostic on any broken invariant — packets that never
 * retired, credits still held, a scheduler queue that is not empty.
 *
 * Fnv1aDigest is the determinism auditor's accumulator: the event
 * queue folds every retired event's (tick, priority, sequence) into a
 * 64-bit FNV-1a hash, so two runs are bit-for-bit identical iff their
 * digests match. This is what `--digest` prints and what the
 * serial-vs-parallel sweep audit compares.
 */

#ifndef ASTRA_COMMON_VALIDATE_HH
#define ASTRA_COMMON_VALIDATE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace astra
{

/**
 * A named collection of drain-time invariant checkers.
 *
 * Checkers run in registration order (deterministic output) and report
 * violations by raising an ASTRA_CHECK diagnostic themselves — a
 * checker that returns normally passed.
 */
class ValidatorRegistry
{
  public:
    using Checker = std::function<void()>;

    /** Register @p fn under @p name (shown in diagnostics/tests). */
    void
    add(std::string name, Checker fn)
    {
        _checkers.push_back(Entry{std::move(name), std::move(fn)});
    }

    /** Run every checker, in registration order. */
    void
    runAll() const
    {
        for (const Entry &e : _checkers)
            e.fn();
    }

    /** Number of registered checkers. */
    std::size_t size() const { return _checkers.size(); }

    /** Registered checker names, in registration order. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(_checkers.size());
        for (const Entry &e : _checkers)
            out.push_back(e.name);
        return out;
    }

  private:
    struct Entry
    {
        std::string name;
        Checker fn;
    };

    std::vector<Entry> _checkers;
};

/**
 * 64-bit FNV-1a accumulator over the retired-event stream.
 */
class Fnv1aDigest
{
  public:
    static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ULL;
    static constexpr std::uint64_t kPrime = 1099511628211ULL;

    /**
     * Fold the 8 bytes of @p v into the hash, low byte first.
     *
     * A zero byte's step is (h ^ 0) * p = h * p, so the run of zero
     * bytes above the highest non-zero one folds as a single multiply
     * by p^k: a typical event (small tick, priority 0, small sequence)
     * takes about 10 dependent multiplies instead of 24, and the value
     * is the byte loop's exactly (docs/performance.md).
     */
    void
    mix(std::uint64_t v)
    {
        const int n = (std::bit_width(v) + 7) / 8; // significant bytes
        for (int i = 0; i < n; ++i) {
            _h ^= (v >> (8 * i)) & 0xffU;
            _h *= kPrime;
        }
        _h *= kPrimePow[std::size_t(8 - n)];
    }

    /** The accumulated hash. */
    std::uint64_t value() const { return _h; }

  private:
    /** kPrime^k mod 2^64 for k = 0..8: k zero bytes folded at once. */
    static constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
        std::array<std::uint64_t, 9> pw{};
        pw[0] = 1;
        for (std::size_t k = 1; k < pw.size(); ++k)
            pw[k] = pw[k - 1] * kPrime;
        return pw;
    }();

    std::uint64_t _h = kOffsetBasis;
};

namespace validate
{

/**
 * Event-queue ordering checker: firing (when, prio, seq) immediately
 * after (last_when, last_prio, last_seq) must respect non-decreasing
 * tick order, ascending priority within a tick, and FIFO (ascending
 * sequence) within equal (tick, priority). Raises an ASTRA_CHECK
 * diagnostic on violation.
 */
void eventOrder(Tick last_when, int last_prio, std::uint64_t last_seq,
                Tick when, int prio, std::uint64_t seq);

} // namespace validate

} // namespace astra

#endif // ASTRA_COMMON_VALIDATE_HH

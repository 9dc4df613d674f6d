#ifndef BOLT_UTIL_RNG_H
#define BOLT_UTIL_RNG_H

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "util/mt19937_64.h"

namespace bolt {
namespace util {

/**
 * Deterministic random number generator used by every stochastic component
 * in the simulator.
 *
 * All experiment binaries seed a single root Rng and derive independent
 * substreams from it (see substream()), so results are reproducible
 * run-to-run regardless of the order in which components draw numbers.
 * The engine is Mt19937_64, whose output equals std::mt19937_64 word
 * for word, so every sampler returns what the same std:: distribution
 * would return over std::mt19937_64.
 *
 * Loops that derive one short-lived stream per item can hand a block
 * of fresh streams to prime(), which seeds their first-draw prefixes
 * in lockstep. Priming is an optimization only: a primed stream draws
 * exactly what the unprimed stream would.
 *
 * A stream's opening can also be prepared on one thread and drawn on
 * another without handing over the 2.5 KB stream: twistPrefix() writes
 * its first k engine words (8 bytes each) and fromPrefix() rebuilds the
 * stream from its seed and those words. The rebuilt stream draws
 * exactly what the original would, for any number of draws: the first
 * k words come from the prefix, and the engine rebuilds its seeding
 * chain when it runs past them (Mt19937_64::adoptPrefix).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. */
    explicit Rng(uint64_t seed = 0x5DEECE66DULL) : engine_(seed) {}

    /** The seed this stream was created with. */
    uint64_t seed() const { return engine_.seed(); }

    /**
     * Derive an independent substream keyed by a label.
     *
     * Two substreams with different labels (or indices) are statistically
     * independent of each other and of the parent stream; deriving is
     * side-effect free on the parent.
     */
    Rng substream(std::string_view label, uint64_t index = 0) const;

    /**
     * Counter-based stream derivation for parallel tasks.
     *
     * Builds an independent stream from a root seed and a path of
     * integer coordinates, e.g. stream(seed, {kPhaseDetect, server_id})
     * or stream(seed, {kPhaseInstance, server_id, victim_id}). The
     * derivation is a pure function of (seed, path) — no draws from any
     * parent stream — so tasks can derive their streams in any order on
     * any thread and results stay bit-identical regardless of thread
     * count. Distinct paths (including distinct lengths) yield
     * decorrelated streams.
     */
    static Rng stream(uint64_t seed,
                      std::initializer_list<uint64_t> path);

    /** Streams prime() seeds side by side; a block of more takes turns. */
    static constexpr size_t kPrimeWidth = Mt19937_64::kLockstep;

    /**
     * Seed the first-draw prefix of every stream in `streams` that has
     * not drawn yet, kPrimeWidth engines at a time with their seeding
     * chains interleaved (Mt19937_64::seedLockstep). Streams that have
     * drawn, or are primed already, are left untouched. No draw of any
     * stream changes.
     */
    static void prime(std::span<Rng> streams);

    /**
     * Write this stream's first out.size() engine words to `out`, at
     * most Mt19937_64::kStateWords. Only for a stream that has drawn
     * fewer than that many words; no draw of it changes.
     */
    void twistPrefix(std::span<uint64_t> out)
    {
        engine_.twistPrefix(out.data(), out.size());
    }

    /**
     * The stream created with `seed`, before its first draw, given the
     * words its twistPrefix() wrote. It keeps no pointer to `words`.
     */
    static Rng
    fromPrefix(uint64_t seed, std::span<const uint64_t> words)
    {
        Rng r(seed);
        r.engine_.adoptPrefix(seed, words.data(), words.size());
        return r;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo = 0.0, double hi = 1.0);

    /** Uniform integer in [lo, hi] (inclusive). */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Gaussian with the given mean and standard deviation. */
    double gaussian(double mean = 0.0, double stddev = 1.0);

    /**
     * Gaussian clamped into [lo, hi].
     *
     * Used for resource-pressure noise where values must stay in [0, 100].
     */
    double clampedGaussian(double mean, double stddev, double lo, double hi);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p);

    /** Exponential with the given mean (mean = 1/lambda). */
    double exponential(double mean);

    /**
     * Lognormal parameterized by the *target* median and a shape sigma.
     * Used for service-latency draws.
     */
    double lognormal(double median, double sigma);

    /** Pick a uniformly random element index from a container size. */
    size_t index(size_t size);

    /**
     * Sample an index from an unnormalized non-negative weight vector.
     * Returns weights.size() - 1 if rounding pushes past the end.
     */
    size_t weightedIndex(const std::vector<double>& weights);

    /** Fisher-Yates shuffle of an index permutation [0, n). */
    std::vector<size_t> permutation(size_t n);

    /** Pick a reference to a uniformly random element. */
    template <typename T>
    const T&
    pick(const std::vector<T>& items)
    {
        return items[index(items.size())];
    }

  private:
    Mt19937_64 engine_;
};

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_RNG_H

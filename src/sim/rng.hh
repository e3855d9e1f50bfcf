/**
 * @file
 * Deterministic random-number utilities.
 *
 * All stochastic pieces of the repository (matrix generators, fault
 * injection) draw from a seeded Rng so that runs are reproducible.
 */

#ifndef NETSPARSE_SIM_RNG_HH
#define NETSPARSE_SIM_RNG_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>

namespace netsparse {

/**
 * splitmix64: a tiny, high-quality 64-bit mixing function.
 *
 * Used both for seeding and as the deterministic "property checksum"
 * carried by PR payloads for end-to-end data-path verification.
 */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * MT19937-64 with lazy seeding: the same output sequence as
 * std::mt19937_64 for every seed, without paying for the whole state up
 * front.
 *
 * Seeding std::mt19937_64 fills 312 state words one after another and
 * its first draw twists all 312 of them: about 600 serial steps before
 * the first number. The generators give every matrix row its own engine
 * and draw only ~4 (road network) to ~90 (web crawl) numbers per row, so
 * that start-up cost dominated matrix generation. Here each block of
 * 312 words is twisted a few words at a time, as draws reach them. Word
 * i of a block reads the previous block's words i, i + 1 and i + 156
 * (or this block's word i - 156), so in the first block the initial
 * words are computed only as far as the twisted words read. The twist
 * runs in the standard order and in place, so it yields exactly the
 * standard words.
 */
class LazyMt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    explicit LazyMt19937_64(result_type seed) { x_[0] = seed; }

    result_type
    operator()()
    {
        if (next_ == ready_)
            twistMore();
        return temper(x_[next_++]);
    }

  private:
    static constexpr unsigned kN = 312;
    static constexpr unsigned kM = 156;
    /** Words twisted per step: few enough that a row drawing only a
     *  handful of numbers does not pay for many more. */
    static constexpr unsigned kStep = 4;
    static_assert(kN % kStep == 0);
    static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ull;
    static constexpr result_type kLowerMask = (result_type(1) << 31) - 1;
    static constexpr result_type kInitMult = 6364136223846793005ull;

    static result_type
    temper(result_type z)
    {
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        return z ^ (z >> 43);
    }

    /** Twist the next kStep words, starting a new block when the
     *  current one is used up. */
    void
    twistMore()
    {
        if (ready_ == kN)
            next_ = ready_ = 0;
        const unsigned end = ready_ + kStep;
        const unsigned last = std::min(end - 1 + kM, kN - 1);
        if (seeded_ <= last) {
            // The initialization recurrence is serial; keep it in
            // registers rather than re-reading the last stored word.
            result_type prev = x_[seeded_ - 1];
            for (unsigned k = seeded_; k <= last; ++k) {
                prev = kInitMult * (prev ^ (prev >> 62)) + k;
                x_[k] = prev;
            }
            seeded_ = last + 1;
        }
        for (unsigned i = ready_; i < end; ++i) {
            result_type y = (x_[i] & ~kLowerMask) |
                            (x_[i + 1 < kN ? i + 1 : 0] & kLowerMask);
            x_[i] = x_[i < kN - kM ? i + kM : i + kM - kN] ^ (y >> 1) ^
                    ((y & 1) ? kMatrixA : 0);
        }
        ready_ = end;
    }

    result_type x_[kN];
    // Counters are 32-bit so that stores to the 64-bit state words
    // cannot alias them and force reloads in the draw loop.
    /** Initial state words computed so far (x_[0] is the seed). */
    unsigned seeded_ = 1;
    /** Words of the current block twisted so far. */
    unsigned ready_ = 0;
    unsigned next_ = 0;
};

/**
 * Seedable random source with convenience draws over a 64-bit engine.
 * The distributions are libstdc++'s, so two engines with the same output
 * sequence give the same draws.
 */
template <class Engine>
class BasicRng
{
  public:
    explicit BasicRng(std::uint64_t seed = 1) : eng_(splitmix64(seed)) {}

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        std::uniform_int_distribution<std::uint64_t> d(lo, hi);
        return d(eng_);
    }

    /** Uniform real in [0, 1). */
    double
    uniform()
    {
        std::uniform_real_distribution<double> d(0.0, 1.0);
        return d(eng_);
    }

    /** Geometric-ish positive integer with mean approximately @p mean. */
    std::uint64_t
    geometric(double mean)
    {
        if (mean <= 1.0)
            return 1;
        std::geometric_distribution<std::uint64_t> d(1.0 / mean);
        return d(eng_) + 1;
    }

    /**
     * Bounded Zipf-like draw in [0, n): index i is picked with probability
     * proportional to 1 / (i + 1)^alpha. Implemented by inverse-CDF over
     * a precomputed-free approximation (rejection on the continuous
     * bounded Pareto), which is accurate enough for workload synthesis.
     */
    std::uint64_t
    zipf(std::uint64_t n, double alpha)
    {
        if (n <= 1)
            return 0;
        // Inverse transform on the continuous bounded power law.
        double u = uniform();
        double nmax = static_cast<double>(n);
        double x;
        if (alpha == 1.0) {
            x = std::exp(u * std::log(nmax));
        } else {
            double a1 = 1.0 - alpha;
            x = std::pow(u * (std::pow(nmax, a1) - 1.0) + 1.0, 1.0 / a1);
        }
        auto idx = static_cast<std::uint64_t>(x - 1.0);
        return idx >= n ? n - 1 : idx;
    }

  private:
    Engine eng_;
};

/** The repository's random source: std::mt19937_64's draws, seeded lazily. */
using Rng = BasicRng<LazyMt19937_64>;

} // namespace netsparse

#endif // NETSPARSE_SIM_RNG_HH
